//! Tiered KV offload: an HBM → DDR → disk-class hierarchy for KV-cache
//! blocks, priced consistently with [`deca_llm::InterconnectModel`]
//! (`bytes / bandwidth + latency`).
//!
//! HBM is tier zero — the [`crate::BlockAllocator`] pool itself. This
//! module models the tiers *below* it: where swapped-out sequences and
//! demoted cold prefixes live, how many blocks each tier holds, and what
//! a transfer costs. The paged scheduler uses the model two ways:
//!
//! - **Swap instead of recompute.** When decode runs out of HBM blocks
//!   and must preempt a victim, it compares the modeled swap-out +
//!   swap-in cost against re-prefilling the victim's context and takes
//!   the cheaper path ([`KvTierModel::swap_out_seconds`] /
//!   [`KvTierModel::swap_in_seconds`] vs
//!   [`crate::ServingCostModel::prefill_seconds`]).
//! - **Demote instead of evict.** When the radix prefix cache evicts a
//!   cold block, its tokens demote to DDR (spilling to disk) instead of
//!   vanishing; a later request whose prompt covers the demoted path
//!   promotes the block back, paying the swap-in transfer rather than a
//!   fresh prefill.
//!
//! [`KvShipSpec`] prices the third movement class: shipping a prefilled
//! sequence's KV from a prefill-pool replica to a decode-pool replica
//! over the inter-socket interconnect (the disaggregated mode in
//! [`crate::sweep`]).

use std::collections::{HashMap, VecDeque};

use deca_llm::InterconnectModel;

/// Which tier below HBM a block lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    /// The host DDR pool: large, ~an order of magnitude slower than HBM.
    Ddr,
    /// The disk-class pool (NVMe): huge, two orders slower than DDR.
    Disk,
}

/// One tier's capacity and transfer pricing. A transfer of `bytes` costs
/// `bytes / (bandwidth_gbps * 1e9) + latency_us * 1e-6` seconds — the
/// same shape as [`InterconnectModel::point_to_point_seconds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvTierSpec {
    /// How many KV blocks the tier holds. Zero disables the tier.
    pub capacity_blocks: usize,
    /// Transfer bandwidth between HBM and this tier, GB/s.
    pub bandwidth_gbps: f64,
    /// Fixed per-transfer latency, microseconds.
    pub latency_us: f64,
}

impl KvTierSpec {
    /// A disabled tier: zero capacity, free (never exercised) transfers.
    #[must_use]
    pub fn disabled() -> Self {
        KvTierSpec {
            capacity_blocks: 0,
            bandwidth_gbps: f64::INFINITY,
            latency_us: 0.0,
        }
    }

    /// A DDR-class tier: ~200 GB/s sustained over the memory bus, sub-µs
    /// setup.
    #[must_use]
    pub fn ddr(capacity_blocks: usize) -> Self {
        KvTierSpec {
            capacity_blocks,
            bandwidth_gbps: 200.0,
            latency_us: 0.5,
        }
    }

    /// An NVMe disk-class tier: ~6 GB/s, ~80 µs access setup.
    #[must_use]
    pub fn nvme(capacity_blocks: usize) -> Self {
        KvTierSpec {
            capacity_blocks,
            bandwidth_gbps: 6.0,
            latency_us: 80.0,
        }
    }

    /// Seconds to move `bytes` between HBM and this tier.
    #[must_use]
    pub fn transfer_seconds(&self, bytes: f64) -> f64 {
        bytes / (self.bandwidth_gbps * 1e9) + self.latency_us * 1e-6
    }
}

/// The KV tier hierarchy below HBM, plus the size of one block's KV so
/// transfers can be priced in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvTierModel {
    /// Bytes of (compressed) KV held by one full block.
    pub block_kv_bytes: f64,
    /// The DDR tier (first choice for swap-outs and demotions).
    pub ddr: KvTierSpec,
    /// The disk-class tier (overflow when DDR is full).
    pub disk: KvTierSpec,
}

impl KvTierModel {
    /// No tiers: the degenerate config under which the paged scheduler
    /// reproduces its recompute-only behavior bit for bit.
    #[must_use]
    pub fn disabled() -> Self {
        KvTierModel {
            block_kv_bytes: 0.0,
            ddr: KvTierSpec::disabled(),
            disk: KvTierSpec::disabled(),
        }
    }

    /// A DDR-only hierarchy.
    #[must_use]
    pub fn ddr_only(block_kv_bytes: f64, capacity_blocks: usize) -> Self {
        KvTierModel {
            block_kv_bytes,
            ddr: KvTierSpec::ddr(capacity_blocks),
            disk: KvTierSpec::disabled(),
        }
    }

    /// Whether any tier below HBM has capacity. When false the scheduler
    /// takes exactly its pre-tiering code path.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.ddr.capacity_blocks > 0 || self.disk.capacity_blocks > 0
    }

    fn spec(&self, tier: TierKind) -> &KvTierSpec {
        match tier {
            TierKind::Ddr => &self.ddr,
            TierKind::Disk => &self.disk,
        }
    }

    /// Seconds to write `blocks` KV blocks from HBM out to `tier`.
    #[must_use]
    pub fn swap_out_seconds(&self, tier: TierKind, blocks: usize) -> f64 {
        self.spec(tier)
            .transfer_seconds(blocks as f64 * self.block_kv_bytes)
    }

    /// Seconds to read `blocks` KV blocks from `tier` back into HBM.
    #[must_use]
    pub fn swap_in_seconds(&self, tier: TierKind, blocks: usize) -> f64 {
        self.spec(tier)
            .transfer_seconds(blocks as f64 * self.block_kv_bytes)
    }
}

/// Pricing for shipping a prefilled sequence's KV from a prefill-pool
/// replica to a decode-pool replica over the interconnect. Disabled
/// (the default) when `bytes_per_token` is zero — the scheduler then
/// never schedules a [`crate::event::Event::KvTransferDone`] and takes
/// its pre-disaggregation arrival path exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvShipSpec {
    /// Bytes of (compressed) KV per context token.
    pub bytes_per_token: f64,
    /// Interconnect bandwidth, GB/s.
    pub bandwidth_gbps: f64,
    /// Fixed per-transfer latency, microseconds.
    pub latency_us: f64,
}

impl KvShipSpec {
    /// No shipping: requests arrive with their KV already local.
    #[must_use]
    pub fn disabled() -> Self {
        KvShipSpec {
            bytes_per_token: 0.0,
            bandwidth_gbps: f64::INFINITY,
            latency_us: 0.0,
        }
    }

    /// Ship `bytes_per_token` of KV per context token over `link`.
    #[must_use]
    pub fn over_interconnect(bytes_per_token: f64, link: &InterconnectModel) -> Self {
        KvShipSpec {
            bytes_per_token,
            bandwidth_gbps: link.link_bandwidth_gbps,
            latency_us: link.link_latency_us,
        }
    }

    /// Whether arrivals carry a KV transfer.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.bytes_per_token > 0.0
    }

    /// Seconds to ship a `context_tokens`-token KV over the link.
    #[must_use]
    pub fn transfer_seconds(&self, context_tokens: usize) -> f64 {
        context_tokens as f64 * self.bytes_per_token / (self.bandwidth_gbps * 1e9)
            + self.latency_us * 1e-6
    }
}

/// Chained path hash identifying one full block by *all* tokens from the
/// prompt start through the block: `h_{k+1} = chain_hash(h_k, block_k)`,
/// starting from [`PATH_HASH_SEED`]. The prefix cache keys its blocks by
/// this hash when it is keyed by token ids; the scheduler's cache hashes
/// each block's whole prefix in O(1) from its token stream's keys
/// instead (see [`crate::prefix`]). Either way the residency map files a
/// demoted block under the hash its cache stored, so a demoted block is
/// recognized by any later prompt sharing its whole prefix.
#[must_use]
pub fn chain_hash(parent: u64, block_tokens: &[u64]) -> u64 {
    let mut h = mix(parent ^ 0x2545_f491_4f6c_dd1d);
    for &token in block_tokens {
        h = mix(h ^ mix(token));
    }
    h
}

/// The root hash a chained path starts from.
pub const PATH_HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// splitmix64's output mixer — the same shape the workload generator
/// uses, good 64-bit avalanche.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One tier's occupancy below HBM.
#[derive(Debug, Clone, Default)]
struct TierState {
    /// Demotions, oldest first, as `(hash, sequence number)`. A promotion
    /// leaves its entry behind; the sequence number tells that stale entry
    /// from a later re-demotion of the same hash.
    order: VecDeque<(u64, u64)>,
    /// Demoted prefix blocks (droppable to make swap room).
    demoted: usize,
    /// Swap-out reservations (live sequences — never dropped).
    reserved: usize,
}

/// Runtime occupancy of the tiers below HBM: which demoted prefix blocks
/// live where (keyed by the prefix hash the cache evicted them under),
/// and how many blocks each tier holds (demoted prefixes *plus* swap-out
/// reservations).
///
/// Swap-outs outrank cold prefixes: when a swap reservation needs room,
/// the oldest demoted blocks are dropped (FIFO) to make it. Entirely
/// deterministic — the hash maps are only ever probed by key, never
/// iterated.
#[derive(Debug, Clone)]
pub struct TierResidency {
    model: KvTierModel,
    /// Demoted block → its tier and the sequence number of its demotion.
    demoted: HashMap<u64, (TierKind, u64)>,
    /// Demotions so far: the next demotion's sequence number.
    demotions: u64,
    /// Per-tier occupancy, indexed by [`TierKind`].
    tiers: [TierState; 2],
}

impl TierResidency {
    /// An empty residency map over `model`.
    #[must_use]
    pub fn new(model: KvTierModel) -> Self {
        TierResidency {
            model,
            demoted: HashMap::new(),
            demotions: 0,
            tiers: Default::default(),
        }
    }

    /// The tier model this residency tracks.
    #[must_use]
    pub fn model(&self) -> &KvTierModel {
        &self.model
    }

    /// Blocks currently held in `tier` (demoted prefixes + swap
    /// reservations).
    #[must_use]
    pub fn used_blocks(&self, tier: TierKind) -> usize {
        let state = &self.tiers[tier as usize];
        state.demoted + state.reserved
    }

    /// Blocks of headroom left in `tier`.
    #[must_use]
    pub fn free_blocks(&self, tier: TierKind) -> usize {
        self.model.spec(tier).capacity_blocks - self.used_blocks(tier)
    }

    /// The tier a `blocks`-block swap reservation would land in (DDR
    /// before disk), or `None` when no tier could hold it even after
    /// dropping every demoted prefix. Side-effect free — the cost check
    /// a preemption runs before committing to the swap.
    #[must_use]
    pub fn can_reserve(&self, blocks: usize) -> Option<TierKind> {
        [TierKind::Ddr, TierKind::Disk].into_iter().find(|&tier| {
            self.model.spec(tier).capacity_blocks >= self.tiers[tier as usize].reserved + blocks
        })
    }

    /// Drops the oldest demoted blocks from `tier` until it has at least
    /// `need` free blocks or no demoted blocks remain.
    fn make_room(&mut self, tier: TierKind, need: usize) {
        while self.free_blocks(tier) < need {
            let state = &mut self.tiers[tier as usize];
            let Some((hash, seq)) = state.order.pop_front() else {
                return;
            };
            // Lazy deletion: skip entries promoted (and perhaps demoted
            // again since) after they were queued.
            if self.demoted.get(&hash) == Some(&(tier, seq)) {
                self.demoted.remove(&hash);
                state.demoted -= 1;
            }
        }
    }

    /// Reserves room for a `blocks`-block swap-out, dropping demoted
    /// prefixes if needed (a live sequence's KV outranks a cold
    /// prefix's). Returns the tier that took the reservation — always
    /// [`TierResidency::can_reserve`]'s answer — or `None` when no tier
    /// can hold it.
    pub fn reserve_swap(&mut self, blocks: usize) -> Option<TierKind> {
        let tier = self.can_reserve(blocks)?;
        self.make_room(tier, blocks);
        debug_assert!(self.free_blocks(tier) >= blocks);
        self.tiers[tier as usize].reserved += blocks;
        Some(tier)
    }

    /// Releases a `blocks`-block reservation from `tier` (swap-in landed
    /// or the sequence retired).
    pub fn release(&mut self, tier: TierKind, blocks: usize) {
        let reserved = &mut self.tiers[tier as usize].reserved;
        debug_assert!(*reserved >= blocks, "released more than was reserved");
        *reserved -= blocks;
    }

    /// Demotes one evicted prefix block (identified by its prefix hash)
    /// into the first tier with headroom, DDR before disk. Returns
    /// the receiving tier, or `None` when both tiers are full — the
    /// block is then simply gone, exactly as under plain eviction.
    pub fn demote(&mut self, hash: u64) -> Option<TierKind> {
        if let Some(&(tier, _)) = self.demoted.get(&hash) {
            return Some(tier); // already resident below HBM
        }
        for tier in [TierKind::Ddr, TierKind::Disk] {
            if self.free_blocks(tier) >= 1 {
                let seq = self.demotions;
                self.demotions += 1;
                self.demoted.insert(hash, (tier, seq));
                let state = &mut self.tiers[tier as usize];
                state.demoted += 1;
                state.order.push_back((hash, seq));
                return Some(tier);
            }
        }
        None
    }

    /// Promotes a demoted block back to HBM: removes it from its tier
    /// and returns which tier it came from (pricing the swap-in), or
    /// `None` if the hash is not resident.
    pub fn promote(&mut self, hash: u64) -> Option<TierKind> {
        let (tier, _) = self.demoted.remove(&hash)?;
        self.tiers[tier as usize].demoted -= 1;
        Some(tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_pricing_matches_the_interconnect_shape() {
        let link = InterconnectModel {
            link_bandwidth_gbps: 50.0,
            link_latency_us: 2.0,
        };
        let tier = KvTierSpec {
            capacity_blocks: 10,
            bandwidth_gbps: 50.0,
            latency_us: 2.0,
        };
        let bytes = 1_000_000.0;
        assert_eq!(
            tier.transfer_seconds(bytes),
            link.point_to_point_seconds(bytes)
        );
        let ship = KvShipSpec::over_interconnect(100.0, &link);
        assert_eq!(
            ship.transfer_seconds(10_000),
            link.point_to_point_seconds(100.0 * 10_000.0)
        );
    }

    #[test]
    fn disabled_configs_report_disabled() {
        assert!(!KvTierModel::disabled().enabled());
        assert!(!KvShipSpec::disabled().enabled());
        assert!(KvTierModel::ddr_only(1024.0, 8).enabled());
        assert!(KvShipSpec::over_interconnect(64.0, &InterconnectModel::spr_upi()).enabled());
    }

    #[test]
    fn swap_costs_scale_with_blocks_and_tier_speed() {
        let model = KvTierModel {
            block_kv_bytes: 1024.0 * 1024.0,
            ddr: KvTierSpec::ddr(64),
            disk: KvTierSpec::nvme(1024),
        };
        let ddr = model.swap_in_seconds(TierKind::Ddr, 8);
        let disk = model.swap_in_seconds(TierKind::Disk, 8);
        assert!(ddr > 0.0 && disk > ddr, "disk is the slower tier");
        assert!(
            model.swap_out_seconds(TierKind::Ddr, 16) > model.swap_out_seconds(TierKind::Ddr, 8)
        );
    }

    #[test]
    fn reservations_fill_ddr_then_spill_to_disk() {
        let model = KvTierModel {
            block_kv_bytes: 1024.0,
            ddr: KvTierSpec::ddr(4),
            disk: KvTierSpec::nvme(8),
        };
        let mut residency = TierResidency::new(model);
        assert_eq!(residency.reserve_swap(3), Some(TierKind::Ddr));
        // DDR has 1 free block left; a 2-block swap spills to disk.
        assert_eq!(residency.reserve_swap(2), Some(TierKind::Disk));
        assert_eq!(residency.used_blocks(TierKind::Ddr), 3);
        assert_eq!(residency.used_blocks(TierKind::Disk), 2);
        // Nothing can hold 9 blocks.
        assert_eq!(residency.reserve_swap(9), None);
        residency.release(TierKind::Ddr, 3);
        assert_eq!(residency.free_blocks(TierKind::Ddr), 4);
    }

    #[test]
    fn swap_reservations_drop_the_oldest_demoted_prefixes() {
        let model = KvTierModel {
            block_kv_bytes: 1024.0,
            ddr: KvTierSpec::ddr(3),
            disk: KvTierSpec::disabled(),
        };
        let mut residency = TierResidency::new(model);
        for hash in [11, 22, 33] {
            assert_eq!(residency.demote(hash), Some(TierKind::Ddr));
        }
        assert_eq!(residency.free_blocks(TierKind::Ddr), 0);
        // A 2-block swap drops the two oldest demotions (11 and 22).
        assert_eq!(residency.reserve_swap(2), Some(TierKind::Ddr));
        assert_eq!(residency.promote(11), None);
        assert_eq!(residency.promote(22), None);
        assert_eq!(residency.promote(33), Some(TierKind::Ddr));
    }

    /// A promotion leaves its queue entry behind; a later re-demotion of
    /// the same hash must not inherit that entry's place at the front.
    #[test]
    fn swap_room_drops_the_oldest_demotion_even_after_a_re_demotion() {
        let mut residency = TierResidency::new(KvTierModel::ddr_only(1024.0, 2));
        assert_eq!(residency.demote(1), Some(TierKind::Ddr));
        assert_eq!(residency.demote(2), Some(TierKind::Ddr));
        assert_eq!(residency.promote(1), Some(TierKind::Ddr));
        assert_eq!(residency.demote(1), Some(TierKind::Ddr));
        // Block 2 is now the oldest demotion: it makes the room.
        assert_eq!(residency.reserve_swap(1), Some(TierKind::Ddr));
        assert_eq!(residency.promote(2), None);
        assert_eq!(residency.promote(1), Some(TierKind::Ddr));
    }

    #[test]
    fn demotion_spills_and_promotion_frees() {
        let model = KvTierModel {
            block_kv_bytes: 1024.0,
            ddr: KvTierSpec::ddr(1),
            disk: KvTierSpec::nvme(1),
        };
        let mut residency = TierResidency::new(model);
        assert_eq!(residency.demote(7), Some(TierKind::Ddr));
        assert_eq!(residency.demote(8), Some(TierKind::Disk));
        assert_eq!(residency.demote(9), None, "both tiers full: dropped");
        // Re-demoting a resident hash is a no-op reporting its home.
        assert_eq!(residency.demote(7), Some(TierKind::Ddr));
        assert_eq!(residency.used_blocks(TierKind::Ddr), 1);
        assert_eq!(residency.promote(7), Some(TierKind::Ddr));
        assert_eq!(residency.promote(7), None);
        assert_eq!(residency.free_blocks(TierKind::Ddr), 1);
    }

    #[test]
    fn chained_hashes_distinguish_paths_and_positions() {
        let a = chain_hash(PATH_HASH_SEED, &[1, 2, 3, 4]);
        let b = chain_hash(PATH_HASH_SEED, &[1, 2, 3, 5]);
        assert_ne!(a, b, "different tokens, different hash");
        let deep_a = chain_hash(a, &[9, 9, 9, 9]);
        let deep_b = chain_hash(b, &[9, 9, 9, 9]);
        assert_ne!(deep_a, deep_b, "same block under different parents");
        assert_eq!(chain_hash(a, &[9, 9, 9, 9]), deep_a, "deterministic");
    }
}
