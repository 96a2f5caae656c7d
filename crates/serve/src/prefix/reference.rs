//! The token-keyed radix cache the chain-hash cache replaced, preserved
//! verbatim as a test-only reference implementation.
//!
//! Each node keys its children by the token ids of their blocks and
//! stores its own block's tokens, and a demoting eviction re-folds
//! [`crate::tier::chain_hash`] over the victim's whole root path. The
//! equivalence property test in `prefix::tests` drives this cache and
//! [`super::PrefixCache`] through the same seeded operations and asserts
//! equal returned blocks, evictions, demotion hashes, counters and
//! ref-counts after every one.

use std::collections::{BTreeSet, HashMap};

use super::PrefixCacheStats;
use crate::kv::{BlockAllocator, BlockId};

/// Arena index of one radix-tree node.
type NodeId = usize;

/// The root occupies arena slot 0 and holds no block.
const ROOT: NodeId = 0;

#[derive(Debug, Clone)]
struct Node {
    /// Token ids of this node's block (the edge label from the parent);
    /// empty for the root.
    key: Vec<u64>,
    /// The KV block backing this node (unused by the root).
    block: BlockId,
    parent: NodeId,
    children: HashMap<Vec<u64>, NodeId>,
    /// Logical LRU timestamp of the last lookup that traversed this node.
    last_use: u64,
    /// True while the block's ref-count exceeds the cache's own reference
    /// (a running sequence still shares it), as of the last resync.
    shared: bool,
    /// Children whose subtree contains a shared node. A node is *pinned*
    /// (unevictable even by cascade) iff it is shared or this is nonzero.
    pinned_children: usize,
}

impl Node {
    /// Pinned nodes can never be delivered by [`PrefixCache::evict_lru`]:
    /// the node's own block is shared, or a shared descendant keeps it from
    /// ever becoming a sole-owner leaf.
    fn pinned(&self) -> bool {
        self.shared || self.pinned_children > 0
    }
}

/// A radix tree of cached KV blocks keyed by token-id prefixes.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    block_size: usize,
    nodes: Vec<Option<Node>>,
    recycled: Vec<NodeId>,
    clock: u64,
    resident: usize,
    peak_resident: usize,
    evictions: u64,
    insertions: u64,
    /// Resident block → its tree node, for [`PrefixCache::release`] resync.
    by_block: HashMap<BlockId, NodeId>,
    /// Eviction candidates — exactly the unshared leaves — ordered by
    /// `(last_use, id)` so iteration order matches the reference LRU scan.
    lru: BTreeSet<(u64, NodeId)>,
    /// Non-root nodes currently pinned; `resident - pinned_count` is the
    /// cascade-deliverable eviction total.
    pinned_count: usize,
}

impl PrefixCache {
    /// Creates an empty cache over blocks of `block_size` token ids.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    #[must_use]
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        PrefixCache {
            block_size,
            nodes: vec![Some(Node {
                key: Vec::new(),
                block: 0,
                parent: ROOT,
                children: HashMap::new(),
                last_use: 0,
                shared: false,
                pinned_children: 0,
            })],
            recycled: Vec::new(),
            clock: 0,
            resident: 0,
            peak_resident: 0,
            evictions: 0,
            insertions: 0,
            by_block: HashMap::new(),
            lru: BTreeSet::new(),
            pinned_count: 0,
        }
    }

    fn node(&self, id: NodeId) -> &Node {
        self.nodes[id].as_ref().expect("live node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.nodes[id].as_mut().expect("live node")
    }

    /// Blocks currently resident in the tree.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.resident
    }

    /// Blocks that repeated [`PrefixCache::evict_lru`] calls could free
    /// right now, in O(1). Eviction is leaf-first and only touches
    /// sole-owner blocks, so a resident block is cascade-deliverable
    /// exactly when its *entire subtree* is sole-owner. Sole ownership of
    /// the node alone is not enough: [`PrefixCache::insert`] deduplicates
    /// an already-resident prefix block while still attaching the
    /// sequence's divergent child beneath it, so a sequence can share a
    /// mid-tree node without referencing its ancestor — that ancestor
    /// stays pinned until the shared descendant retires, and must not be
    /// counted. Lets a caller check an allocation is satisfiable *before*
    /// sacrificing cache residency.
    #[must_use]
    pub fn evictable_blocks(&self, allocator: &BlockAllocator) -> usize {
        debug_assert_eq!(
            self.resident - self.pinned_count,
            self.scan_evictable(allocator),
            "incremental pin counters diverged from the reference scan \
             (was a resident block freed without PrefixCache::release?)"
        );
        self.resident - self.pinned_count
    }

    /// Reference implementation of [`PrefixCache::evictable_blocks`]: pin
    /// every ancestor of a shared node (per the live allocator ref-counts),
    /// then count the unpinned sole-owner residents. Iterative (long
    /// transcripts make arbitrarily deep chains, so recursion would risk
    /// the stack), and O(nodes) amortized: each parent-chain walk stops at
    /// the first already-pinned ancestor. Debug cross-check only.
    fn scan_evictable(&self, allocator: &BlockAllocator) -> usize {
        let mut pinned = vec![false; self.nodes.len()];
        for id in 1..self.nodes.len() {
            let Some(node) = self.nodes[id].as_ref() else {
                continue;
            };
            if allocator.ref_count(node.block) == 1 {
                continue;
            }
            let mut at = id;
            while at != ROOT && !pinned[at] {
                pinned[at] = true;
                at = self.node(at).parent;
            }
        }
        (1..self.nodes.len())
            .filter(|&id| {
                self.nodes[id]
                    .as_ref()
                    .is_some_and(|node| !pinned[id] && allocator.ref_count(node.block) == 1)
            })
            .count()
    }

    /// Reference implementation of the [`PrefixCache::evict_lru`] victim
    /// choice: full arena scan for the `(last_use, id)`-minimal sole-owner
    /// leaf, against the live allocator ref-counts. Debug cross-check only.
    fn scan_victim(&self, allocator: &BlockAllocator) -> Option<(u64, NodeId)> {
        let mut victim: Option<(u64, NodeId)> = None;
        for id in 1..self.nodes.len() {
            let Some(node) = self.nodes[id].as_ref() else {
                continue;
            };
            if !node.children.is_empty() || allocator.ref_count(node.block) != 1 {
                continue;
            }
            let candidate = (node.last_use, id);
            if victim.is_none_or(|best| candidate < best) {
                victim = Some(candidate);
            }
        }
        victim
    }

    /// Snapshot of the lifetime counters.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            resident_blocks: self.resident,
            peak_resident_blocks: self.peak_resident,
            evictions: self.evictions,
            insertions: self.insertions,
        }
    }

    /// Bumps `id`'s LRU timestamp, keeping its candidate-set key in sync.
    fn touch(&mut self, id: NodeId, now: u64) {
        let node = self.node(id);
        if node.children.is_empty() && !node.shared {
            let stale = (node.last_use, id);
            self.lru.remove(&stale);
            self.lru.insert((now, id));
        }
        self.node_mut(id).last_use = now;
    }

    /// Records a shared-flag transition for `id`, maintaining the LRU
    /// candidate set and the pin counters (with ancestor propagation).
    fn set_shared(&mut self, id: NodeId, shared: bool) {
        let node = self.node(id);
        if node.shared == shared {
            return;
        }
        let was_pinned = node.pinned();
        if node.children.is_empty() {
            let key = (node.last_use, id);
            if shared {
                self.lru.remove(&key);
            } else {
                self.lru.insert(key);
            }
        }
        self.node_mut(id).shared = shared;
        let now_pinned = self.node(id).pinned();
        if was_pinned != now_pinned {
            self.propagate_pin_flip(id, now_pinned);
        }
    }

    /// Walks the ancestor chain after `id`'s pinned state flipped to
    /// `now_pinned`, updating the pinned total and each ancestor's
    /// pinned-children count. Stops at the first ancestor whose own state
    /// does not flip, so the per-update cost telescopes the same way the
    /// reference scan's pin walk does.
    fn propagate_pin_flip(&mut self, mut id: NodeId, now_pinned: bool) {
        debug_assert_ne!(id, ROOT, "the root holds no block and is never pinned");
        loop {
            if now_pinned {
                self.pinned_count += 1;
            } else {
                self.pinned_count -= 1;
            }
            let parent = self.node(id).parent;
            let node = self.node_mut(parent);
            let was_pinned = node.pinned();
            if now_pinned {
                node.pinned_children += 1;
            } else {
                node.pinned_children -= 1;
            }
            if parent == ROOT || was_pinned == node.pinned() {
                return;
            }
            id = parent;
        }
    }

    /// Matches the longest cached block-aligned prefix of `tokens` and
    /// shares every matched block with the caller: each returned block has
    /// been [`BlockAllocator::fork`]ed once, and the caller owns that
    /// reference (releases it with [`PrefixCache::release`]). The cached
    /// prefix length in tokens is `result.len() * block_size`.
    pub fn lookup(&mut self, tokens: &[u64], allocator: &mut BlockAllocator) -> Vec<BlockId> {
        self.clock += 1;
        let now = self.clock;
        let mut node = ROOT;
        let mut matched = Vec::new();
        for chunk in tokens.chunks_exact(self.block_size) {
            let Some(&child) = self.node(node).children.get(chunk) else {
                break;
            };
            allocator.fork(self.node(child).block);
            matched.push(self.node(child).block);
            self.touch(child, now);
            // The caller now holds a reference on top of the cache's own.
            self.set_shared(child, true);
            node = child;
        }
        matched
    }

    /// Inserts the full blocks of `tokens` (a sequence's prompt, or its
    /// prompt plus generated output on completion) into the tree. `blocks`
    /// is the sequence's block list covering at least those tokens. Each
    /// *newly created* node takes its own reference on the sequence's block
    /// (the cache's ownership share); blocks whose prefix is already
    /// resident are left untouched, so duplicates are deduplicated in favor
    /// of the first writer.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` does not cover the full blocks of `tokens`.
    pub fn insert(&mut self, tokens: &[u64], blocks: &[BlockId], allocator: &mut BlockAllocator) {
        let full_blocks = tokens.len() / self.block_size;
        assert!(
            blocks.len() >= full_blocks,
            "sequence holds {} blocks but {} full blocks of tokens were offered",
            blocks.len(),
            full_blocks
        );
        self.clock += 1;
        let now = self.clock;
        let mut node = ROOT;
        for (i, chunk) in tokens.chunks_exact(self.block_size).enumerate() {
            if let Some(&child) = self.node(node).children.get(chunk) {
                self.touch(child, now);
                node = child;
                continue;
            }
            allocator.fork(blocks[i]);
            // The parent gains its first child below: eviction is
            // leaf-only, so it stops being a candidate.
            if node != ROOT && self.node(node).children.is_empty() && !self.node(node).shared {
                self.lru.remove(&(self.node(node).last_use, node));
            }
            // The sequence still holds its own reference, so a fresh node
            // starts shared; computed from the live count for robustness.
            let shared = allocator.ref_count(blocks[i]) > 1;
            let fresh = self.new_node(Node {
                key: chunk.to_vec(),
                block: blocks[i],
                parent: node,
                children: HashMap::new(),
                last_use: now,
                shared,
                pinned_children: 0,
            });
            self.node_mut(node).children.insert(chunk.to_vec(), fresh);
            let displaced = self.by_block.insert(blocks[i], fresh);
            debug_assert!(
                displaced.is_none(),
                "block {} resident under two tree nodes",
                blocks[i]
            );
            self.resident += 1;
            self.peak_resident = self.peak_resident.max(self.resident);
            self.insertions += 1;
            if shared {
                self.propagate_pin_flip(fresh, true);
            } else {
                self.lru.insert((now, fresh));
            }
            node = fresh;
        }
    }

    fn new_node(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.recycled.pop() {
            self.nodes[id] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            self.nodes.len() - 1
        }
    }

    /// Drops one caller-held reference on `block`. For a cache-resident
    /// block this is the required replacement for [`BlockAllocator::free`]:
    /// it resyncs the node's shared flag as the ref-count falls back to the
    /// cache's own reference, which is what makes the block evictable
    /// again. For a block the cache never saw (a sequence's private tail,
    /// or one already evicted) it degrades to a plain `free`.
    pub fn release(&mut self, block: BlockId, allocator: &mut BlockAllocator) {
        allocator.free(block);
        if let Some(&id) = self.by_block.get(&block) {
            let refs = allocator.ref_count(block);
            debug_assert!(
                refs >= 1,
                "resident block {block} freed past the cache's own reference"
            );
            self.set_shared(id, refs > 1);
        }
    }

    /// Evicts the least-recently-used *evictable* block — a leaf node whose
    /// block the cache is the sole owner of — freeing it back to the
    /// allocator in O(log evictable). Returns `false` when nothing is
    /// evictable (every resident block is still shared with a running
    /// sequence, or the tree is empty).
    pub fn evict_lru(&mut self, allocator: &mut BlockAllocator) -> bool {
        debug_assert_eq!(
            self.lru.first().copied(),
            self.scan_victim(allocator),
            "incremental LRU candidates diverged from the reference scan \
             (was a resident block freed without PrefixCache::release?)"
        );
        let Some((_, id)) = self.lru.pop_first() else {
            return false;
        };
        let node = self.nodes[id].take().expect("victim is live");
        debug_assert_eq!(
            allocator.ref_count(node.block),
            1,
            "eviction candidate is not sole-owner"
        );
        self.node_mut(node.parent).children.remove(&node.key);
        self.by_block.remove(&node.block);
        allocator.free(node.block);
        self.recycled.push(id);
        self.resident -= 1;
        self.evictions += 1;
        // The victim was an unshared leaf, hence unpinned: no counter
        // propagation. Its parent may have just become a candidate leaf.
        if node.parent != ROOT {
            let parent = self.node(node.parent);
            if parent.children.is_empty() && !parent.shared {
                self.lru.insert((parent.last_use, node.parent));
            }
        }
        true
    }

    /// [`PrefixCache::evict_lru`], but additionally returns the victim's
    /// chained path hash ([`crate::tier::chain_hash`] folded from
    /// [`crate::tier::PATH_HASH_SEED`] over every block's tokens from the
    /// root), so the caller can *demote* the evicted block into a lower
    /// KV tier ([`crate::TierResidency::demote`]) instead of dropping it.
    /// Returns `None` when nothing is evictable. The plain `evict_lru`
    /// stays hash-free, so untiered runs pay nothing for this hook.
    pub fn evict_lru_demoting(&mut self, allocator: &mut BlockAllocator) -> Option<u64> {
        let &(_, id) = self.lru.first()?;
        let hash = self.path_hash(id);
        let evicted = self.evict_lru(allocator);
        debug_assert!(evicted, "a present LRU candidate must evict");
        Some(hash)
    }

    /// The chained hash of every token from the root through `id`'s block.
    fn path_hash(&self, id: NodeId) -> u64 {
        let mut chain = Vec::new();
        let mut at = id;
        while at != ROOT {
            chain.push(at);
            at = self.node(at).parent;
        }
        let mut hash = crate::tier::PATH_HASH_SEED;
        for &node in chain.iter().rev() {
            hash = crate::tier::chain_hash(hash, &self.node(node).key);
        }
        hash
    }
}
