//! Dynamic hash table mapping raw feature IDs to dense slots (paper §IV-C1).
//!
//! The table starts empty and grows as new feature IDs are encountered during
//! training — "the key will be dynamically incremented when a new key is
//! encountered". Mapping IDs to dense `0..len` slots lets the embedding and
//! output-weight matrices be plain contiguous buffers that grow by appending
//! rows, and — unlike *feature hashing* (the modulo trick) — is collision-free
//! by construction, which the paper calls out as the advantage over \[15\].

use crate::hasher::FastHashMap;

/// Maps arbitrary `u64` feature IDs to dense slot indices `0..len`.
///
/// Slots are assigned in first-seen order and never reused, so a slot index
/// is stable for the lifetime of the table and can index a parallel weight
/// buffer. A reverse table supports slot → ID look-ups (needed when decoding
/// batched-softmax candidates back to feature IDs).
#[derive(Clone, Debug, Default)]
pub struct DynamicHashTable {
    forward: FastHashMap<u64, u32>,
    reverse: Vec<u64>,
}

impl DynamicHashTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty table with capacity for `n` keys.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            forward: FastHashMap::with_capacity_and_hasher(n, Default::default()),
            reverse: Vec::with_capacity(n),
        }
    }

    /// Number of distinct IDs seen so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True when no IDs have been inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Looks up the slot of `id` without inserting.
    #[inline]
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        self.forward.get(&id).map(|&s| s as usize)
    }

    /// Converts a table length to the next slot index, refusing to wrap.
    ///
    /// Slots are stored as `u32`; a plain `as u32` cast at 2³² entries would
    /// silently wrap to slot 0 and alias the first weight row. The paper's
    /// per-field vocabularies stay far below that, so running into the limit
    /// means a corrupt ID stream — panicking with a capacity message beats
    /// silently training aliased embeddings.
    #[inline]
    fn next_slot(len: usize) -> u32 {
        u32::try_from(len).unwrap_or_else(|_| {
            panic!("DynamicHashTable capacity exceeded: {len} slots (max {})", u32::MAX)
        })
    }

    /// Returns the slot of `id`, assigning the next free slot when the ID is
    /// new. `on_insert(slot)` fires exactly once per new ID so callers can
    /// grow parallel weight storage (the paper randomly initializes the new
    /// embedding row at this point).
    ///
    /// Panics once the table holds 2³² entries (slots are `u32`).
    #[inline]
    pub fn slot_or_insert(&mut self, id: u64, mut on_insert: impl FnMut(usize)) -> usize {
        let next = Self::next_slot(self.reverse.len());
        let entry = self.forward.entry(id).or_insert(next);
        let slot = *entry as usize;
        if *entry == next {
            self.reverse.push(id);
            on_insert(slot);
        }
        slot
    }

    /// The ID stored in `slot`. Panics if the slot was never assigned.
    #[inline]
    pub fn id_of(&self, slot: usize) -> u64 {
        self.reverse[slot]
    }

    /// True if `id` has been seen.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        self.forward.contains_key(&id)
    }

    /// Iterates `(id, slot)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.reverse.iter().enumerate().map(|(slot, &id)| (id, slot))
    }

    /// All IDs in slot order.
    pub fn ids(&self) -> &[u64] {
        &self.reverse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_assigned_in_first_seen_order() {
        let mut t = DynamicHashTable::new();
        assert_eq!(t.slot_or_insert(100, |_| {}), 0);
        assert_eq!(t.slot_or_insert(7, |_| {}), 1);
        assert_eq!(t.slot_or_insert(100, |_| {}), 0);
        assert_eq!(t.slot_or_insert(55, |_| {}), 2);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn on_insert_fires_once_per_new_id() {
        let mut t = DynamicHashTable::new();
        let mut inserted = Vec::new();
        for &id in &[5u64, 5, 9, 5, 9, 1] {
            t.slot_or_insert(id, |slot| inserted.push(slot));
        }
        assert_eq!(inserted, vec![0, 1, 2]);
    }

    #[test]
    fn lookup_without_insert_does_not_grow() {
        let mut t = DynamicHashTable::new();
        t.slot_or_insert(3, |_| {});
        assert_eq!(t.slot_of(3), Some(0));
        assert_eq!(t.slot_of(4), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reverse_lookup_roundtrips() {
        let mut t = DynamicHashTable::new();
        for id in [10u64, 20, 30] {
            t.slot_or_insert(id, |_| {});
        }
        for (id, slot) in t.iter() {
            assert_eq!(t.id_of(slot), id);
            assert_eq!(t.slot_of(id), Some(slot));
        }
        assert_eq!(t.ids(), &[10, 20, 30]);
    }

    #[test]
    fn next_slot_accepts_the_full_u32_range() {
        assert_eq!(DynamicHashTable::next_slot(0), 0);
        assert_eq!(DynamicHashTable::next_slot(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn next_slot_panics_instead_of_wrapping() {
        // 2^32 entries would wrap to slot 0 under the old `as u32` cast,
        // aliasing weight rows; the guard must refuse instead.
        DynamicHashTable::next_slot(1usize << 32);
    }

    #[test]
    fn contains_reflects_insertions() {
        let mut t = DynamicHashTable::with_capacity(4);
        assert!(!t.contains(1));
        t.slot_or_insert(1, |_| {});
        assert!(t.contains(1));
        assert!(!t.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    proptest! {
        /// Model-based test: the dynamic table must agree with a reference
        /// `HashMap` assigning sequential slots, for any insertion sequence.
        #[test]
        fn agrees_with_reference_model(ids in proptest::collection::vec(0u64..500, 1..2000)) {
            let mut table = DynamicHashTable::new();
            let mut model: HashMap<u64, usize> = HashMap::new();
            for id in ids {
                let next = model.len();
                let expected = *model.entry(id).or_insert(next);
                let got = table.slot_or_insert(id, |_| {});
                prop_assert_eq!(got, expected);
            }
            prop_assert_eq!(table.len(), model.len());
            for (&id, &slot) in &model {
                prop_assert_eq!(table.slot_of(id), Some(slot));
                prop_assert_eq!(table.id_of(slot), id);
            }
        }

        /// Slots are always a dense range 0..len with no gaps or duplicates.
        #[test]
        fn slots_are_dense(ids in proptest::collection::vec(any::<u64>(), 0..500)) {
            let mut table = DynamicHashTable::new();
            for id in ids {
                table.slot_or_insert(id, |_| {});
            }
            let mut slots: Vec<usize> = table.iter().map(|(_, s)| s).collect();
            slots.sort_unstable();
            let expected: Vec<usize> = (0..table.len()).collect();
            prop_assert_eq!(slots, expected);
        }
    }
}
