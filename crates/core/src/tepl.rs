//! The TEPL (Tile External Preprocess and Load) queue (§5.3).
//!
//! TEPL is the ISA extension that lets the core invoke DECA out-of-order.
//! The core holds a small TEPL queue (akin to a load-store queue) with one
//! execution port per DECA Loader. A TEPL instruction occupies a slot from
//! issue until the decompressed tile has been written into the destination
//! core tile register; a structural hazard stalls further TEPLs when every
//! slot is busy. TEPLs execute speculatively: on a pipeline flush the core
//! sends a squash signal and DECA aborts whatever it was doing.

use crate::DecaError;

/// The lifecycle of one TEPL queue slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeplSlotState {
    /// No TEPL occupies this slot.
    Free,
    /// A TEPL has been issued to the DECA Loader and is awaiting the
    /// decompressed tile.
    Issued {
        /// Identifier of the tile being preprocessed.
        tile_id: u64,
    },
    /// The decompressed tile has been delivered to the destination tile
    /// register; the TEPL is ready to retire.
    Completed {
        /// Identifier of the delivered tile.
        tile_id: u64,
    },
}

/// The core-side TEPL queue.
#[derive(Debug, Clone, PartialEq)]
pub struct TeplQueue {
    slots: Vec<TeplSlotState>,
    issued_total: u64,
    squashed_total: u64,
    structural_stalls: u64,
}

impl TeplQueue {
    /// Creates a queue with one slot per DECA Loader (the paper uses two).
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    #[must_use]
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "the TEPL queue needs at least one port");
        TeplQueue {
            slots: vec![TeplSlotState::Free; ports],
            issued_total: 0,
            squashed_total: 0,
            structural_stalls: 0,
        }
    }

    /// Number of ports (slots).
    #[must_use]
    pub fn ports(&self) -> usize {
        self.slots.len()
    }

    /// Current slot states.
    #[must_use]
    pub fn slots(&self) -> &[TeplSlotState] {
        &self.slots
    }

    /// True if a new TEPL could issue right now.
    #[must_use]
    pub fn can_issue(&self) -> bool {
        self.slots.contains(&TeplSlotState::Free)
    }

    /// Number of TEPLs currently in flight (issued but not yet retired).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, TeplSlotState::Free))
            .count()
    }

    /// Issues a TEPL for `tile_id`, returning the slot index it occupies.
    ///
    /// # Errors
    ///
    /// Returns [`DecaError::TeplHazard`] when every slot is busy — the
    /// structural hazard that stalls the core's issue stage (§5.3). The
    /// stall is also counted for statistics.
    pub fn issue(&mut self, tile_id: u64) -> Result<usize, DecaError> {
        if let Some(slot) = self.slots.iter().position(|s| *s == TeplSlotState::Free) {
            self.slots[slot] = TeplSlotState::Issued { tile_id };
            self.issued_total += 1;
            Ok(slot)
        } else {
            self.structural_stalls += 1;
            Err(DecaError::TeplHazard {
                reason: "all TEPL ports busy (as many TEPLs in flight as DECA Loaders)",
            })
        }
    }

    /// Marks the TEPL in `slot` as completed (DECA wrote the tile into the
    /// destination register).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not currently in the `Issued` state.
    pub fn complete(&mut self, slot: usize) {
        match self.slots[slot] {
            TeplSlotState::Issued { tile_id } => {
                self.slots[slot] = TeplSlotState::Completed { tile_id };
            }
            other => panic!("TEPL slot {slot} cannot complete from state {other:?}"),
        }
    }

    /// Retires the TEPL in `slot`, freeing it.
    ///
    /// # Panics
    ///
    /// Panics if the slot has not completed.
    pub fn retire(&mut self, slot: usize) {
        match self.slots[slot] {
            TeplSlotState::Completed { .. } => self.slots[slot] = TeplSlotState::Free,
            other => panic!("TEPL slot {slot} cannot retire from state {other:?}"),
        }
    }

    /// Squashes every outstanding TEPL (pipeline flush: branch misprediction
    /// or exception). DECA aborts the in-progress tiles; the core may safely
    /// reissue the same TEPLs later.
    pub fn squash_all(&mut self) {
        for slot in &mut self.slots {
            if !matches!(slot, TeplSlotState::Free) {
                self.squashed_total += 1;
                *slot = TeplSlotState::Free;
            }
        }
    }

    /// TEPLs issued since construction.
    #[must_use]
    pub fn issued_total(&self) -> u64 {
        self.issued_total
    }

    /// TEPLs squashed since construction.
    #[must_use]
    pub fn squashed_total(&self) -> u64 {
        self.squashed_total
    }

    /// Structural-hazard stalls observed.
    #[must_use]
    pub fn structural_stalls(&self) -> u64 {
        self.structural_stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issue_complete_retire_cycle() {
        let mut q = TeplQueue::new(2);
        assert!(q.can_issue());
        let a = q.issue(1).expect("slot");
        let b = q.issue(2).expect("slot");
        assert_ne!(a, b);
        assert_eq!(q.in_flight(), 2);
        assert!(!q.can_issue());
        // Third TEPL hits the structural hazard.
        assert!(matches!(q.issue(3), Err(DecaError::TeplHazard { .. })));
        assert_eq!(q.structural_stalls(), 1);
        q.complete(a);
        assert_eq!(q.in_flight(), 2, "completed TEPLs still hold their slot");
        q.retire(a);
        assert_eq!(q.in_flight(), 1);
        assert!(q.can_issue());
        let c = q.issue(3).expect("slot freed");
        assert_eq!(c, a);
        assert_eq!(q.issued_total(), 3);
        q.complete(b);
        q.retire(b);
    }

    #[test]
    fn squash_frees_all_slots_and_counts() {
        let mut q = TeplQueue::new(2);
        let a = q.issue(10).expect("slot");
        q.issue(11).expect("slot");
        q.complete(a);
        q.squash_all();
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.squashed_total(), 2);
        // Reissuing the same tiles afterwards is safe.
        assert!(q.issue(10).is_ok());
    }

    #[test]
    fn slot_states_are_observable() {
        let mut q = TeplQueue::new(1);
        assert_eq!(q.slots(), &[TeplSlotState::Free]);
        q.issue(7).expect("slot");
        assert_eq!(q.slots(), &[TeplSlotState::Issued { tile_id: 7 }]);
        q.complete(0);
        assert_eq!(q.slots(), &[TeplSlotState::Completed { tile_id: 7 }]);
        assert_eq!(q.ports(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot complete")]
    fn completing_a_free_slot_panics() {
        let mut q = TeplQueue::new(1);
        q.complete(0);
    }

    #[test]
    #[should_panic(expected = "cannot retire")]
    fn retiring_an_issued_slot_panics() {
        let mut q = TeplQueue::new(1);
        q.issue(1).expect("slot");
        q.retire(0);
    }
}
