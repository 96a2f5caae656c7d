//! Radix-tree prefix cache over token-id prefixes, with block-granular
//! ref-counted sharing and LRU eviction of unreferenced blocks.
//!
//! SGLang's RadixAttention idea on top of the [`crate::kv`] allocator: the
//! cache is a radix tree whose edges are whole KV blocks
//! ([`BlockAllocator::block_size`] token ids each). A request's prompt is
//! matched block by block from the root; every matched block is shared with
//! the requesting sequence via [`BlockAllocator::fork`] (refcount sharing),
//! so the prefill only has to process the *uncached suffix*. Shared blocks
//! are immutable by construction — sequence growth appends at a block
//! boundary or inside a private block — so the serving engine never writes
//! one. After a prefill (and again on completion, when the generated
//! tokens are known) the sequence's full blocks are inserted, so later
//! same-session turns and same-system-prompt sessions hit.
//!
//! Only *full* blocks enter the tree: partial trailing blocks stay private
//! to their sequence, which keeps every shared block immutable (sequence
//! growth always appends at a block boundary or inside a private block).
//!
//! # What identifies a block
//!
//! A cached block is identified by its whole prefix, the way vLLM's
//! automatic prefix caching identifies KV blocks: by a 64-bit *hash* of
//! that prefix plus a second, independent 64-bit *fingerprint* of it. Both
//! are stored when the block is inserted, and one cache-wide map from hash
//! to node replaces per-node child maps. A demoting eviction therefore
//! hands back a stored hash — the key [`crate::TierResidency`] files the
//! demoted block under — instead of re-hashing the victim's root path.
//!
//! A cache is keyed one of two ways, and never both:
//!
//! - **By token ids** ([`PrefixCache::lookup`], [`PrefixCache::insert`]):
//!   the hash is the *chain hash* ([`crate::tier::chain_hash`] of the
//!   parent's chain hash and the block's own token ids, starting from
//!   [`crate::tier::PATH_HASH_SEED`]), and the fingerprint is chained over
//!   the same tokens with its own seed and step.
//! - **By stream keys** (the scheduler's cache): a [`TokenStream`]'s
//!   token `p` is `splitmix64(key(p) ^ splitmix64(p))`, where `key(p)` is
//!   the shared key below `system_tokens` and the session key from there
//!   on. `splitmix64` is a bijection, so two equal-length prefixes have
//!   equal token ids exactly when the same key covers each position. A
//!   prefix is therefore described exactly by its runs of keys — one run,
//!   or a shared run then a session run — with their lengths, and the
//!   block's hash and fingerprint hash that tagged description, in O(1)
//!   whatever the block size or depth. The description includes the
//!   prefix length, so prefixes of different lengths never match; the
//!   tree and the residency map only compare blocks by their whole
//!   prefix, so the stream keys identify exactly the blocks the token ids
//!   would.
//!
//! A hit needs the hash, the fingerprint *and* the parent to match. On
//! any mismatch a lookup stops, and an insert leaves the rest of the
//! sequence private, so a hash collision costs a cache hit, never a wrong
//! block (a wrong block would take both 64-bit values and the parent
//! colliding at once).
//!
//! # Invariants (enforced by `crates/serve/tests/property_serving.rs`)
//!
//! * The cache holds exactly one reference per resident node; a lookup
//!   hands the *caller* one additional reference per matched block.
//! * Eviction only touches leaf nodes whose block the cache is the sole
//!   owner of (`ref_count == 1`): blocks still referenced by a running
//!   sequence are never reclaimed under it.
//! * Calling [`PrefixCache::evict_lru`] until it returns `false` releases
//!   every resident block, so after the sequences retire too, the
//!   allocator drains to `allocated == 0` and all ref-counts return to
//!   zero.
//! * Determinism: ties in the LRU order break on the smaller node id.
//!
//! # Bookkeeping contract and complexity
//!
//! A lookup or an insert costs one map probe per block plus that block's
//! link. Links are computed lazily, block by block, so a lookup stops
//! hashing at its first miss. A token-keyed link hashes the block's
//! `block_size` token ids; a stream-keyed link costs O(1), so the
//! scheduler keeps no per-sequence chain: each claim, prefill, chunk
//! publication and retirement hands the crate-private link API
//! (`lookup_links`, `insert_links`) a fresh iterator of its links.
//!
//! The cache tracks incrementally, per node, whether its block is *shared*
//! (the allocator's ref-count exceeds the cache's own reference) and how
//! many of its children root a shared descendant. That makes
//! [`PrefixCache::evictable_blocks`] O(1) and [`PrefixCache::evict_lru`]
//! (or [`PrefixCache::evict_lru_demoting`]) O(log evictable) — the
//! original full-arena scans cost O(cache size) per admission decision,
//! which dominated the simulator at million-session scale. The price is a
//! contract: once a block is resident, a caller must drop its references
//! through [`PrefixCache::release`] rather than [`BlockAllocator::free`],
//! so the shared flags resync as the ref-count crosses back to one.
//! (References are only *acquired* through [`PrefixCache::lookup`] and
//! [`PrefixCache::insert`], which resync on their own; `release` degrades
//! to a plain `free` for blocks the cache never saw.) Debug builds
//! cross-check both the evictable counter and every eviction choice
//! against the original reference scans.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

use crate::kv::{BlockAllocator, BlockId};
use crate::tier::{chain_hash, PATH_HASH_SEED};
use crate::workload::{PrefixRuns, TokenStream};

/// Arena index of one radix-tree node.
type NodeId = usize;

/// The root occupies arena slot 0 and holds no block.
const ROOT: NodeId = 0;

/// The fingerprint a path starts from (the first 64 bits of √2).
const FINGERPRINT_SEED: u64 = 0x6a09_e667_f3bc_c908;

/// The fingerprint step's odd multiplier (MurmurHash3's first finalizer
/// constant).
const FINGERPRINT_MUL: u64 = 0xff51_afd7_ed55_8ccd;

/// The identity of one full block: a hash of its whole prefix, and an
/// independent fingerprint of the same prefix. Token-keyed links chain
/// both from the parent's link over the block's token ids
/// ([`BlockLink::child`]); stream-keyed links hash the prefix's runs of
/// stream keys ([`stream_links`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockLink {
    /// [`chain_hash`] of the parent's hash and the block's token ids, or
    /// of the prefix's runs: the key of the cache's map and of the tier
    /// residency map.
    pub(crate) hash: u64,
    /// The collision guard: a multiply-rotate chain, unrelated to
    /// [`chain_hash`]'s xor-mix, over the same input.
    pub(crate) fingerprint: u64,
}

impl BlockLink {
    /// The link every path starts from; the root holds no block.
    pub(crate) const ROOT: BlockLink = BlockLink {
        hash: PATH_HASH_SEED,
        fingerprint: FINGERPRINT_SEED,
    };

    /// The link of the block holding `block_tokens` under `self`.
    pub(crate) fn child(self, block_tokens: &[u64]) -> BlockLink {
        BlockLink {
            hash: chain_hash(self.hash, block_tokens),
            fingerprint: block_tokens.iter().fold(self.fingerprint, |fp, &token| {
                (fp ^ token).wrapping_mul(FINGERPRINT_MUL).rotate_left(29)
            }),
        }
    }

    /// The link of the block ending a [`TokenStream`] prefix with `runs`:
    /// the description, tagged by its form, hashed as one block.
    fn of_prefix(runs: PrefixRuns) -> BlockLink {
        match runs {
            PrefixRuns::One { key, len } => Self::ROOT.child(&[ONE_RUN, key, len as u64]),
            PrefixRuns::Two {
                shared,
                split,
                session,
                len,
            } => Self::ROOT.child(&[TWO_RUNS, shared, split as u64, session, len as u64]),
        }
    }
}

/// Tags of the two forms of a [`PrefixRuns`] description.
const ONE_RUN: u64 = 1;
const TWO_RUNS: u64 = 2;

/// The links of the full blocks of `tokens`, hashed as they are consumed.
fn links_of(tokens: &[u64], block_size: usize) -> impl Iterator<Item = BlockLink> + '_ {
    tokens
        .chunks_exact(block_size)
        .scan(BlockLink::ROOT, |link, block| {
            *link = link.child(block);
            Some(*link)
        })
}

/// The links of `stream`'s full blocks `blocks` (block `k` ends at
/// position `(k + 1) · block_size`), each in O(1) from its prefix's runs.
pub(crate) fn stream_links(
    stream: TokenStream,
    block_size: usize,
    blocks: Range<usize>,
) -> impl Iterator<Item = BlockLink> {
    blocks.map(move |block| BlockLink::of_prefix(stream.prefix_runs((block + 1) * block_size)))
}

/// Hashes a `u64` key to itself: chain hashes are already mixed, so the
/// map needs no second hash.
#[derive(Debug, Default, Clone, Copy)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the chain-hash map hashes only u64 keys");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// The identity of this node's block ([`BlockLink::ROOT`] for the
    /// root).
    link: BlockLink,
    /// The KV block backing this node (unused by the root).
    block: BlockId,
    parent: NodeId,
    /// Resident children; a leaf has none.
    children: usize,
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

/// Counters of one cache's lifetime, for [`crate::scheduler::PagedStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Blocks currently resident in the tree.
    pub resident_blocks: usize,
    /// Largest resident-block count observed.
    pub peak_resident_blocks: usize,
    /// Blocks evicted over the cache's lifetime.
    pub evictions: u64,
    /// Blocks inserted over the cache's lifetime.
    pub insertions: u64,
}

/// A radix tree of cached KV blocks, each identified by a hash and a
/// fingerprint of its whole prefix (see the [module
/// docs](crate::prefix)).
#[derive(Debug, Clone)]
pub struct PrefixCache {
    block_size: usize,
    nodes: Vec<Option<Node>>,
    recycled: Vec<NodeId>,
    /// Chain hash → the resident node carrying it. At most one node holds
    /// a hash: an insert that meets a colliding entry stops instead.
    by_hash: HashMap<u64, NodeId, BuildHasherDefault<PassThrough>>,
    clock: u64,
    resident: usize,
    peak_resident: usize,
    evictions: u64,
    insertions: u64,
    /// Block id → its tree node, [`ROOT`] when the block is not resident,
    /// for [`PrefixCache::release`] resync.
    by_block: Vec<NodeId>,
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
                link: BlockLink::ROOT,
                block: 0,
                parent: ROOT,
                children: 0,
                last_use: 0,
                shared: false,
                pinned_children: 0,
            })],
            recycled: Vec::new(),
            by_hash: HashMap::default(),
            clock: 0,
            resident: 0,
            peak_resident: 0,
            evictions: 0,
            insertions: 0,
            by_block: Vec::new(),
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
            if node.children > 0 || allocator.ref_count(node.block) != 1 {
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
        if node.children == 0 && !node.shared {
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
        if node.children == 0 {
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

    /// The resident node `link` names under `parent`, if its chain hash,
    /// fingerprint and parent all match.
    fn child(&self, parent: NodeId, link: BlockLink) -> Option<NodeId> {
        let &id = self.by_hash.get(&link.hash)?;
        let node = self.node(id);
        (node.link == link && node.parent == parent).then_some(id)
    }

    /// Matches the longest cached block-aligned prefix of `tokens` and
    /// shares every matched block with the caller: each returned block has
    /// been [`BlockAllocator::fork`]ed once, and the caller owns that
    /// reference (releases it with [`PrefixCache::release`]). The cached
    /// prefix length in tokens is `result.len() * block_size`. Blocks are
    /// hashed one at a time, and hashing stops at the first miss.
    pub fn lookup(&mut self, tokens: &[u64], allocator: &mut BlockAllocator) -> Vec<BlockId> {
        self.lookup_links(links_of(tokens, self.block_size), allocator)
    }

    /// [`PrefixCache::lookup`] over a sequence's block links (from the
    /// root), consuming them only up to the first miss.
    pub(crate) fn lookup_links(
        &mut self,
        links: impl IntoIterator<Item = BlockLink>,
        allocator: &mut BlockAllocator,
    ) -> Vec<BlockId> {
        self.clock += 1;
        let now = self.clock;
        let mut node = ROOT;
        let mut matched = Vec::new();
        for link in links {
            let Some(child) = self.child(node, link) else {
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
        self.insert_links(links_of(tokens, self.block_size), blocks, allocator);
    }

    /// [`PrefixCache::lookup`] of `stream`'s first `len` tokens, keyed by
    /// stream keys ([`stream_links`]).
    pub(crate) fn lookup_stream(
        &mut self,
        stream: TokenStream,
        len: usize,
        allocator: &mut BlockAllocator,
    ) -> Vec<BlockId> {
        let links = stream_links(stream, self.block_size, 0..len / self.block_size);
        self.lookup_links(links, allocator)
    }

    /// [`PrefixCache::insert`] of `stream`'s first `len` tokens, keyed by
    /// stream keys ([`stream_links`]).
    pub(crate) fn insert_stream(
        &mut self,
        stream: TokenStream,
        len: usize,
        blocks: &[BlockId],
        allocator: &mut BlockAllocator,
    ) {
        let links = stream_links(stream, self.block_size, 0..len / self.block_size);
        self.insert_links(links, blocks, allocator);
    }

    /// [`PrefixCache::insert`] over a sequence's block links (from the
    /// root); `blocks[i]` backs the `i`-th link. A link whose hash is
    /// resident under a different fingerprint or parent is a collision: it
    /// and every later block stay private to the sequence.
    pub(crate) fn insert_links(
        &mut self,
        links: impl IntoIterator<Item = BlockLink>,
        blocks: &[BlockId],
        allocator: &mut BlockAllocator,
    ) {
        self.clock += 1;
        let now = self.clock;
        let mut node = ROOT;
        for (i, link) in links.into_iter().enumerate() {
            if let Some(&id) = self.by_hash.get(&link.hash) {
                let resident = self.node(id);
                if resident.link != link || resident.parent != node {
                    return; // a collision: the rest stays private
                }
                self.touch(id, now);
                node = id;
                continue;
            }
            let block = blocks[i];
            allocator.fork(block);
            // The parent gains its first child below: eviction is
            // leaf-only, so it stops being a candidate.
            let parent = self.node(node);
            if node != ROOT && parent.children == 0 && !parent.shared {
                self.lru.remove(&(parent.last_use, node));
            }
            self.node_mut(node).children += 1;
            // The sequence still holds its own reference, so a fresh node
            // starts shared; computed from the live count for robustness.
            let shared = allocator.ref_count(block) > 1;
            let fresh = self.new_node(Node {
                link,
                block,
                parent: node,
                children: 0,
                last_use: now,
                shared,
                pinned_children: 0,
            });
            self.by_hash.insert(link.hash, fresh);
            if self.by_block.len() <= block {
                self.by_block.resize(block + 1, ROOT);
            }
            debug_assert_eq!(
                self.by_block[block], ROOT,
                "block {block} resident under two tree nodes"
            );
            self.by_block[block] = fresh;
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
        let id = self.by_block.get(block).copied().unwrap_or(ROOT);
        if id != ROOT {
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
        self.evict_lru_demoting(allocator).is_some()
    }

    /// [`PrefixCache::evict_lru`], but returns the victim's prefix hash,
    /// stored since its insert (in a token-keyed cache,
    /// [`crate::tier::chain_hash`] folded from
    /// [`crate::tier::PATH_HASH_SEED`] over every block's tokens from the
    /// root), so the caller can *demote* the evicted block into a lower KV
    /// tier ([`crate::TierResidency::demote`]) instead of dropping it.
    /// Returns `None` when nothing is evictable.
    pub fn evict_lru_demoting(&mut self, allocator: &mut BlockAllocator) -> Option<u64> {
        debug_assert_eq!(
            self.lru.first().copied(),
            self.scan_victim(allocator),
            "incremental LRU candidates diverged from the reference scan \
             (was a resident block freed without PrefixCache::release?)"
        );
        let (_, id) = self.lru.pop_first()?;
        let node = self.nodes[id].take().expect("victim is live");
        debug_assert_eq!(
            allocator.ref_count(node.block),
            1,
            "eviction candidate is not sole-owner"
        );
        self.by_hash.remove(&node.link.hash);
        self.by_block[node.block] = ROOT;
        allocator.free(node.block);
        self.recycled.push(id);
        self.resident -= 1;
        self.evictions += 1;
        // The victim was an unshared leaf, hence unpinned: no counter
        // propagation. Its parent may have just become a candidate leaf.
        let parent = self.node_mut(node.parent);
        parent.children -= 1;
        if node.parent != ROOT && parent.children == 0 && !parent.shared {
            let key = (parent.last_use, node.parent);
            self.lru.insert(key);
        }
        Some(node.link.hash)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<u64> {
        range.collect()
    }

    /// Allocates `n` private blocks for a sequence.
    fn seq_blocks(pool: &mut BlockAllocator, n: usize) -> Vec<BlockId> {
        (0..n).map(|_| pool.alloc().unwrap()).collect()
    }

    #[test]
    fn lookup_misses_then_hits_after_insert() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let tokens = ids(0..10); // 2 full blocks + 2 trailing tokens
        assert!(cache.lookup(&tokens, &mut pool).is_empty());

        let blocks = seq_blocks(&mut pool, 3);
        cache.insert(&tokens, &blocks, &mut pool);
        assert_eq!(cache.resident_blocks(), 2, "only full blocks are cached");
        // The cache holds one extra ref on each inserted block.
        assert_eq!(pool.ref_count(blocks[0]), 2);
        assert_eq!(pool.ref_count(blocks[2]), 1, "partial block stays private");

        let matched = cache.lookup(&tokens, &mut pool);
        assert_eq!(matched, vec![blocks[0], blocks[1]]);
        // The lookup handed us one more reference per matched block.
        assert_eq!(pool.ref_count(blocks[0]), 3);
        for block in matched {
            cache.release(block, &mut pool);
        }
    }

    #[test]
    fn divergent_suffixes_share_the_common_prefix_only() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let a: Vec<u64> = [0, 1, 2, 3, 10, 11, 12, 13].to_vec();
        let b: Vec<u64> = [0, 1, 2, 3, 20, 21, 22, 23].to_vec();
        let blocks_a = seq_blocks(&mut pool, 2);
        cache.insert(&a, &blocks_a, &mut pool);
        let blocks_b = seq_blocks(&mut pool, 2);
        cache.insert(&b, &blocks_b, &mut pool);
        // b's first block duplicated a's resident prefix: not re-inserted.
        assert_eq!(cache.resident_blocks(), 3);
        assert_eq!(pool.ref_count(blocks_b[0]), 1, "duplicate stays private");

        let matched = cache.lookup(&b, &mut pool);
        assert_eq!(matched, vec![blocks_a[0], blocks_b[1]]);
        for block in matched {
            cache.release(block, &mut pool);
        }
    }

    #[test]
    fn eviction_is_lru_leaf_first_and_spares_shared_blocks() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let chain = ids(0..8); // parent block + child block
        let blocks = seq_blocks(&mut pool, 2);
        cache.insert(&chain, &blocks, &mut pool);
        // Release the sequence's own refs: cache is the sole owner.
        cache.release(blocks[0], &mut pool);
        cache.release(blocks[1], &mut pool);
        assert_eq!(pool.allocated_blocks(), 2);

        // The parent is not a leaf: the child must go first.
        assert!(cache.evict_lru(&mut pool));
        assert_eq!(cache.resident_blocks(), 1);
        assert_eq!(pool.ref_count(blocks[1]), 0);
        assert_eq!(pool.ref_count(blocks[0]), 1, "parent still cached");

        // A block shared with a "running sequence" (here re-acquired
        // through a lookup) is not evictable.
        let matched = cache.lookup(&chain[..4], &mut pool);
        assert_eq!(matched, vec![blocks[0]]);
        assert!(!cache.evict_lru(&mut pool));
        cache.release(blocks[0], &mut pool);
        assert!(cache.evict_lru(&mut pool));
        assert_eq!(pool.allocated_blocks(), 0);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn lru_order_follows_lookups() {
        let mut pool = BlockAllocator::new(2, 16);
        let mut cache = PrefixCache::new(2);
        let a: Vec<u64> = vec![1, 2];
        let b: Vec<u64> = vec![3, 4];
        let blocks_a = seq_blocks(&mut pool, 1);
        cache.insert(&a, &blocks_a, &mut pool);
        let blocks_b = seq_blocks(&mut pool, 1);
        cache.insert(&b, &blocks_b, &mut pool);
        cache.release(blocks_a[0], &mut pool);
        cache.release(blocks_b[0], &mut pool);
        // Touch `a`: `b` becomes the LRU victim.
        for block in cache.lookup(&a, &mut pool) {
            cache.release(block, &mut pool);
        }
        assert!(cache.evict_lru(&mut pool));
        assert_eq!(pool.ref_count(blocks_b[0]), 0, "b evicted first");
        assert_eq!(pool.ref_count(blocks_a[0]), 1);
    }

    #[test]
    fn evictable_blocks_counts_exactly_the_sole_owner_residents() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let tokens = ids(0..12); // 3 full blocks in a chain
        let blocks = seq_blocks(&mut pool, 3);
        cache.insert(&tokens, &blocks, &mut pool);
        // The sequence still holds all three: nothing is evictable.
        assert_eq!(cache.evictable_blocks(&pool), 0);
        // Sequence releases its path: the whole chain becomes evictable
        // (the count is the cascade total, not just current leaves).
        for &block in &blocks {
            cache.release(block, &mut pool);
        }
        assert_eq!(cache.evictable_blocks(&pool), 3);
        // A sequence re-sharing a prefix pins that path again.
        let matched = cache.lookup(&ids(0..8), &mut pool);
        assert_eq!(matched.len(), 2);
        assert_eq!(cache.evictable_blocks(&pool), 1);
        // And the count is exactly what eviction can deliver.
        assert!(cache.evict_lru(&mut pool));
        assert!(!cache.evict_lru(&mut pool));
        for block in matched {
            cache.release(block, &mut pool);
        }
    }

    /// Regression: a dedup-insert can leave a sequence sharing a mid-tree
    /// node without referencing its ancestor — the ancestor is sole-owner
    /// yet unevictable while the shared descendant lives, and
    /// `evictable_blocks` must not count it (it used to, promising blocks
    /// that `evict_lru` could never deliver).
    #[test]
    fn evictable_blocks_excludes_sole_owner_nodes_above_shared_descendants() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        // Sequence A inserts two chained blocks.
        let a: Vec<u64> = vec![0, 1, 2, 3, 10, 11, 12, 13];
        let blocks_a = seq_blocks(&mut pool, 2);
        cache.insert(&a, &blocks_a, &mut pool);
        // Sequence B duplicates A's first block of tokens (deduplicated:
        // B keeps its private copy) and diverges in its second, which the
        // cache attaches beneath A's resident prefix block.
        let b: Vec<u64> = vec![0, 1, 2, 3, 20, 21, 22, 23];
        let blocks_b = seq_blocks(&mut pool, 2);
        cache.insert(&b, &blocks_b, &mut pool);
        // A retires; B keeps running. The cache now solely owns A's whole
        // chain, but A's first block sits above B's still-shared divergent
        // block: only A's leaf is deliverable.
        cache.release(blocks_a[0], &mut pool);
        cache.release(blocks_a[1], &mut pool);
        assert_eq!(cache.evictable_blocks(&pool), 1);
        assert!(cache.evict_lru(&mut pool));
        assert!(!cache.evict_lru(&mut pool), "nothing else is deliverable");
        assert_eq!(cache.evictable_blocks(&pool), 0);
        // B retires: the remaining chain becomes deliverable end to end.
        cache.release(blocks_b[0], &mut pool);
        cache.release(blocks_b[1], &mut pool);
        assert_eq!(cache.evictable_blocks(&pool), 2);
        while cache.evict_lru(&mut pool) {}
        assert_eq!(pool.allocated_blocks(), 0);
    }

    #[test]
    fn flush_drains_everything_unshared() {
        let mut pool = BlockAllocator::new(4, 32);
        let mut cache = PrefixCache::new(4);
        for stream in 0..4u64 {
            let tokens: Vec<u64> = (0..12).map(|p| stream * 100 + p).collect();
            let blocks = seq_blocks(&mut pool, 3);
            cache.insert(&tokens, &blocks, &mut pool);
            for block in blocks {
                cache.release(block, &mut pool);
            }
        }
        assert_eq!(cache.resident_blocks(), 12);
        while cache.evict_lru(&mut pool) {}
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(pool.allocated_blocks(), 0);
    }

    /// The demoting evictor returns the same hash a caller computes by
    /// folding `chain_hash` over the victim's full token path — the key
    /// the residency map is probed with at admission.
    #[test]
    fn demoting_eviction_hashes_the_full_root_path() {
        use crate::tier::{chain_hash, PATH_HASH_SEED};
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let tokens = ids(0..8); // two chained blocks
        let blocks = seq_blocks(&mut pool, 2);
        cache.insert(&tokens, &blocks, &mut pool);
        cache.release(blocks[0], &mut pool);
        cache.release(blocks[1], &mut pool);

        // Leaf first: its hash covers both blocks' tokens.
        let leaf = chain_hash(chain_hash(PATH_HASH_SEED, &tokens[..4]), &tokens[4..]);
        assert_eq!(cache.evict_lru_demoting(&mut pool), Some(leaf));
        let parent = chain_hash(PATH_HASH_SEED, &tokens[..4]);
        assert_eq!(cache.evict_lru_demoting(&mut pool), Some(parent));
        assert_eq!(cache.evict_lru_demoting(&mut pool), None, "tree empty");
        assert_eq!(pool.allocated_blocks(), 0);
    }

    /// `release` on a block the cache never saw is a plain allocator free.
    #[test]
    fn release_degrades_to_free_for_unknown_blocks() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let block = pool.alloc().unwrap();
        cache.release(block, &mut pool);
        assert_eq!(pool.allocated_blocks(), 0);
        assert_eq!(cache.evictable_blocks(&pool), 0);
    }

    /// A chain hash colliding with a resident block's, under another
    /// fingerprint, is a different block: the lookup misses, and the
    /// insert leaves it — and the rest of its sequence — private. A
    /// resident link reached under the wrong parent misses too.
    #[test]
    fn colliding_chain_hashes_miss_and_stay_private() {
        let mut pool = BlockAllocator::new(4, 16);
        let mut cache = PrefixCache::new(4);
        let tokens = ids(0..8);
        let resident = seq_blocks(&mut pool, 2);
        cache.insert(&tokens, &resident, &mut pool);
        let first = BlockLink::ROOT.child(&tokens[..4]);
        let second = first.child(&tokens[4..]);
        let forged = BlockLink {
            hash: first.hash,
            fingerprint: first.fingerprint ^ 1,
        };
        assert!(cache.lookup_links([forged], &mut pool).is_empty());
        assert!(
            cache.lookup_links([second], &mut pool).is_empty(),
            "a resident link under another parent misses"
        );

        let private = seq_blocks(&mut pool, 2);
        cache.insert_links([forged, forged.child(&ids(20..24))], &private, &mut pool);
        assert_eq!(cache.resident_blocks(), 2);
        assert_eq!(
            pool.ref_count(private[0]),
            1,
            "the colliding block stays private"
        );
        assert_eq!(pool.ref_count(private[1]), 1, "and so does the rest");

        // The genuine blocks still hit.
        let matched = cache.lookup(&tokens, &mut pool);
        assert_eq!(matched, resident);
        for block in matched.into_iter().chain(resident).chain(private) {
            cache.release(block, &mut pool);
        }
        while cache.evict_lru(&mut pool) {}
        assert_eq!(pool.allocated_blocks(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The stream keys identify exactly what token ids do. Over random
        /// `TokenStream` pairs (keys from a pool of three, so `shared ==
        /// session` and shared keys come up often; `system_tokens` zero,
        /// on a block edge, mid-block, or beyond every compared prefix)
        /// and block sizes 1–32, two equal-length block prefixes have equal
        /// runs, and equal links, exactly when their token ids are equal;
        /// prefixes of different lengths never match.
        #[test]
        fn stream_keys_identify_exactly_what_token_ids_do(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let block_size = rng.gen_range(1..33usize);
            let keys: [u64; 3] = [rng.gen(), rng.gen(), rng.gen()];
            let blocks = 4;
            let draw = |rng: &mut StdRng| TokenStream {
                session: keys[rng.gen_range(0..3usize)],
                system_tokens: match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => rng.gen_range(1..blocks) * block_size,
                    2 => rng.gen_range(1..blocks * block_size),
                    _ => blocks * block_size + rng.gen_range(0..2 * block_size),
                },
                shared: keys[rng.gen_range(0..3usize)],
            };
            for pair in 0..32 {
                let (a, b) = (draw(&mut rng), draw(&mut rng));
                let at = format!("seed {seed}, pair {pair}: {a:?} vs {b:?}, block size {block_size}");
                let links_a: Vec<BlockLink> = stream_links(a, block_size, 0..blocks).collect();
                let links_b: Vec<BlockLink> = stream_links(b, block_size, 0..blocks).collect();
                for k in 0..blocks {
                    let len = (k + 1) * block_size;
                    let same_ids = a.token_ids(len) == b.token_ids(len);
                    prop_assert_eq!(a.prefix_runs(len) == b.prefix_runs(len), same_ids, "{}: runs at {}", &at, len);
                    prop_assert_eq!(links_a[k] == links_b[k], same_ids, "{}: links at {}", &at, len);
                    for j in (0..blocks).filter(|&j| j != k) {
                        let other = (j + 1) * block_size;
                        prop_assert!(
                            a.prefix_runs(len) != b.prefix_runs(other)
                                && a.prefix_runs(len) != a.prefix_runs(other)
                                && links_a[k] != links_b[j],
                            "{}: lengths {} and {} match",
                            &at,
                            len,
                            other
                        );
                    }
                }
            }
        }
    }

    /// Both caches, each on its own pool, after the same operations:
    /// equal counters, evictable totals and per-block ref-counts.
    fn same_state(
        cache: &PrefixCache,
        pool: &BlockAllocator,
        old: &reference::PrefixCache,
        old_pool: &BlockAllocator,
        at: &str,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(cache.stats(), old.stats(), "{}: stats", at);
        prop_assert_eq!(cache.resident_blocks(), old.resident_blocks(), "{}", at);
        prop_assert_eq!(
            cache.evictable_blocks(pool),
            old.evictable_blocks(old_pool),
            "{}: evictable blocks",
            at
        );
        for block in 0..pool.total_blocks() {
            prop_assert_eq!(
                pool.ref_count(block),
                old_pool.ref_count(block),
                "{}: ref-count of block {}",
                at,
                block
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The chain-hash cache returns what the token-keyed cache it
        /// replaced returns. Chat sessions sharing a system prompt and RAG
        /// sessions sharing two documents arrive (lookup, allocate,
        /// insert), retire after generating (insert the transcript,
        /// release), get preempted (release only), and cold blocks are
        /// evicted plainly or for demotion, on a pool small enough that
        /// arrivals evict too. After every operation both caches agree on
        /// the returned blocks, eviction results, demotion hashes,
        /// counters, evictable totals and ref-counts. (The vendored
        /// proptest does not shrink: a failure names its seed and
        /// operation.)
        #[test]
        fn hashed_cache_matches_the_token_keyed_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let block_size = rng.gen_range(1..33usize);
            let total_blocks = rng.gen_range(4..40usize);
            let mut pool = BlockAllocator::new(block_size, total_blocks);
            let mut old_pool = BlockAllocator::new(block_size, total_blocks);
            let mut cache = PrefixCache::new(block_size);
            let mut old = reference::PrefixCache::new(block_size);
            let system = rng.gen_range(0..3 * block_size);
            let documents = [rng.gen_range(0..4 * block_size), rng.gen_range(0..4 * block_size)];
            let streams: Vec<TokenStream> = (0..4u64)
                .map(|session| TokenStream::session(session, system))
                .chain((0..4u64).map(|session| {
                    let document = session % 2;
                    let tokens = documents[document as usize];
                    TokenStream::document(document, 100 + session, tokens)
                }))
                .collect();
            // Live sequences: stream, transcript length, held blocks.
            let mut live: Vec<(TokenStream, usize, Vec<BlockId>)> = Vec::new();
            for op in 0..160 {
                let at = format!("seed {seed}, operation {op}");
                match rng.gen_range(0..8u32) {
                    0..=2 => {
                        let stream = streams[rng.gen_range(0..streams.len())];
                        let len = rng.gen_range(1..6 * block_size + 1);
                        let tokens = stream.token_ids(len);
                        let mut blocks = cache.lookup(&tokens, &mut pool);
                        let old_blocks = old.lookup(&tokens, &mut old_pool);
                        prop_assert_eq!(&blocks, &old_blocks, "{}: lookup", &at);
                        while blocks.len() < pool.blocks_for_tokens(len) {
                            let block = pool.alloc();
                            prop_assert_eq!(block, old_pool.alloc(), "{}: alloc", &at);
                            if let Some(block) = block {
                                blocks.push(block);
                                continue;
                            }
                            let evicted = cache.evict_lru(&mut pool);
                            let old_evicted = old.evict_lru(&mut old_pool);
                            prop_assert_eq!(evicted, old_evicted, "{}: evict", &at);
                            if !evicted {
                                break;
                            }
                        }
                        if blocks.len() < pool.blocks_for_tokens(len) {
                            for &block in &blocks {
                                cache.release(block, &mut pool);
                                old.release(block, &mut old_pool);
                            }
                        } else {
                            cache.insert(&tokens, &blocks, &mut pool);
                            old.insert(&tokens, &blocks, &mut old_pool);
                            live.push((stream, len, blocks));
                        }
                    }
                    3 | 4 if !live.is_empty() => {
                        let sequence = rng.gen_range(0..live.len());
                        let (stream, mut len, mut blocks) = live.swap_remove(sequence);
                        // Three in four retire: the generated tokens fill the
                        // blocks' slack (and any block the pool still has
                        // free), then the transcript is published. The rest
                        // are preempted and publish nothing.
                        if rng.gen_range(0..4u32) > 0 {
                            len += rng.gen_range(0..2 * block_size);
                            while blocks.len() < pool.blocks_for_tokens(len) {
                                let block = pool.alloc();
                                prop_assert_eq!(block, old_pool.alloc(), "{}: alloc", &at);
                                match block {
                                    Some(block) => blocks.push(block),
                                    None => len = blocks.len() * block_size,
                                }
                            }
                            let tokens = stream.token_ids(len);
                            cache.insert(&tokens, &blocks, &mut pool);
                            old.insert(&tokens, &blocks, &mut old_pool);
                        }
                        for &block in &blocks {
                            cache.release(block, &mut pool);
                            old.release(block, &mut old_pool);
                        }
                    }
                    5 => {
                        let evicted = cache.evict_lru(&mut pool);
                        prop_assert_eq!(evicted, old.evict_lru(&mut old_pool), "{}: evict", &at);
                    }
                    _ => {
                        let hash = cache.evict_lru_demoting(&mut pool);
                        prop_assert_eq!(
                            hash,
                            old.evict_lru_demoting(&mut old_pool),
                            "{}: demotion hash",
                            &at
                        );
                    }
                }
                same_state(&cache, &pool, &old, &old_pool, &at)?;
            }
            for (_, _, blocks) in live {
                for block in blocks {
                    cache.release(block, &mut pool);
                    old.release(block, &mut old_pool);
                }
            }
            while cache.evict_lru(&mut pool) {}
            while old.evict_lru(&mut old_pool) {}
            same_state(&cache, &pool, &old, &old_pool, &format!("seed {seed}, drained"))?;
            prop_assert_eq!(pool.allocated_blocks(), 0);
        }
    }
}
