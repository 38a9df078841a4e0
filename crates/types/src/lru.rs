//! The way store behind every set-associative structure in the simulator.

use core::mem;

/// Bit 63 of a slot: the caller's per-way flag (the dirty bit of a cache
/// line; unused by the TLB).
const FLAG: u64 = 1 << 63;
/// The encoded-key bits of a slot.
const KEY: u64 = FLAG - 1;

/// A set-associative store of `u64` keys with true-LRU replacement, held
/// in one flat array of slots.
///
/// Set *s* owns slots `s * ways .. (s + 1) * ways`. Each set holds its
/// resident keys in most-recently-used-first order, followed by its empty
/// slots, so the least-recently-used key is always the last resident one
/// and no recency stamp is stored. A slot holds `key + 1` (0 means empty,
/// so a new store is untouched zero pages), with the caller's flag in
/// bit 63. Keys are placed in set `key % sets`, unless the caller names
/// the set through the `*_in` calls (one set per DRAM bank).
///
/// A set is only ever emptied whole ([`clear_set`](Self::clear_set)):
/// otherwise it fills front to back and then only permutes or replaces
/// its keys. The store therefore behaves exactly like any other true-LRU
/// store that fills an empty way whenever one exists, whatever way
/// positions that store would pick — no caller can observe a way's index.
///
/// # Examples
///
/// ```
/// use stacksim_types::LruSets;
///
/// let mut s = LruSets::new(1, 2);
/// assert_eq!(s.insert(10, false), None);
/// assert_eq!(s.insert(20, true), None);
/// assert!(s.touch(10, false)); // 20 is now least recently used
/// assert_eq!(s.insert(30, false), Some((20, true)));
/// ```
#[derive(Clone, Debug)]
pub struct LruSets {
    sets: usize,
    ways: usize,
    slots: Vec<u64>,
}

impl LruSets {
    /// Creates `sets` empty sets of `ways` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "an LRU store needs sets and ways");
        LruSets {
            sets,
            ways,
            slots: vec![0; sets * ways],
        }
    }

    /// The set `key` lives in.
    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    /// The slot encoding of `key`, and the slots of `set`.
    #[inline]
    fn slots_of(&self, set: usize, key: u64) -> (u64, core::ops::Range<usize>) {
        debug_assert!(key < KEY, "key {key:#x} collides with the flag bit");
        (key + 1, set * self.ways..(set + 1) * self.ways)
    }

    /// Whether `key` is resident (no recency update).
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.contains_in(self.set_of(key), key)
    }

    /// Whether `key` is resident in `set` (no recency update).
    #[inline]
    pub fn contains_in(&self, set: usize, key: u64) -> bool {
        let (enc, slots) = self.slots_of(set, key);
        self.slots[slots].iter().any(|&s| s & KEY == enc)
    }

    /// Looks `key` up; if it is resident, makes it the most recently used
    /// key of its set, sets its flag when `flag` is true, and returns true.
    #[inline]
    pub fn touch(&mut self, key: u64, flag: bool) -> bool {
        self.touch_in(self.set_of(key), key, flag)
    }

    /// [`touch`](Self::touch) with the set given by the caller instead of
    /// derived from `key`.
    #[inline]
    pub fn touch_in(&mut self, set: usize, key: u64, flag: bool) -> bool {
        let (enc, slots) = self.slots_of(set, key);
        let set = &mut self.slots[slots];
        match set.iter().position(|&s| s & KEY == enc) {
            Some(i) => {
                let slot = set[i] | flag_bit(flag);
                promote(set, i, slot);
                true
            }
            None => false,
        }
    }

    /// Sets `key`'s flag if it is resident, without a recency update.
    /// Returns whether it was resident.
    pub fn set_flag(&mut self, key: u64) -> bool {
        let (enc, slots) = self.slots_of(self.set_of(key), key);
        match self.slots[slots].iter_mut().find(|s| **s & KEY == enc) {
            Some(s) => {
                *s |= FLAG;
                true
            }
            None => false,
        }
    }

    /// Makes `key` the most recently used key of its set. A resident key
    /// keeps its flag, which is also set when `flag` is true. Otherwise
    /// `key` takes an empty slot if its set has one, else it replaces the
    /// least recently used key, which is returned with its flag.
    #[inline]
    pub fn insert(&mut self, key: u64, flag: bool) -> Option<(u64, bool)> {
        self.insert_in(self.set_of(key), key, flag)
    }

    /// [`insert`](Self::insert) with the set given by the caller instead
    /// of derived from `key`.
    #[inline]
    pub fn insert_in(&mut self, set: usize, key: u64, flag: bool) -> Option<(u64, bool)> {
        let (enc, slots) = self.slots_of(set, key);
        let set = &mut self.slots[slots];
        let i = set
            .iter()
            .position(|&s| s == 0 || s & KEY == enc)
            .unwrap_or(set.len() - 1);
        let old = set[i];
        let resident = old & KEY == enc;
        let slot = if resident { old } else { enc } | flag_bit(flag);
        promote(set, i, slot);
        (!resident && old != 0).then(|| ((old & KEY) - 1, old & FLAG != 0))
    }

    /// Empties `set` (a DRAM refresh closing a bank's open rows).
    pub fn clear_set(&mut self, set: usize) {
        self.slots[set * self.ways..(set + 1) * self.ways].fill(0);
    }

    /// Number of resident keys.
    pub fn resident(&self) -> usize {
        self.slots.iter().filter(|&&s| s != 0).count()
    }
}

#[inline]
const fn flag_bit(flag: bool) -> u64 {
    if flag {
        FLAG
    } else {
        0
    }
}

/// Writes `slot` to the front of `set` and shifts `set[..i]` back by one,
/// dropping the old `set[i]`: a swap chain, which stays inline where a
/// rotate would call out to a generic routine and `memmove` on every hit.
#[inline]
fn promote(set: &mut [u64], i: usize, slot: u64) {
    let mut carry = slot;
    for s in &mut set[..=i] {
        carry = mem::replace(s, carry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_store_is_empty() {
        let s = LruSets::new(3, 4);
        assert_eq!(s.resident(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn fills_empty_slots_before_evicting() {
        let mut s = LruSets::new(1, 3);
        for k in 0..3 {
            assert_eq!(s.insert(k, false), None);
        }
        assert_eq!(s.resident(), 3);
        assert_eq!(s.insert(3, false), Some((0, false)));
    }

    #[test]
    fn touch_and_flags() {
        let mut s = LruSets::new(1, 2);
        s.insert(5, false);
        s.insert(6, false);
        assert!(s.touch(5, true));
        assert!(!s.touch(7, true));
        assert!(s.set_flag(6));
        assert!(!s.set_flag(7));
        // 6 is least recently used: the flag change did not promote it.
        assert_eq!(s.insert(7, false), Some((6, true)));
        assert_eq!(s.insert(8, false), Some((5, true)));
    }

    #[test]
    fn resident_insert_merges_the_flag_and_promotes() {
        let mut s = LruSets::new(1, 2);
        s.insert(1, true);
        s.insert(2, false);
        assert_eq!(s.insert(1, false), None);
        assert_eq!(s.insert(3, false), Some((2, false)));
        assert_eq!(s.insert(4, false), Some((1, true)));
    }

    #[test]
    fn keys_index_sets_by_remainder() {
        let mut s = LruSets::new(3, 1);
        assert_eq!(s.insert(0, false), None);
        assert_eq!(s.insert(1, false), None);
        assert_eq!(s.insert(2, false), None);
        assert_eq!(s.insert(3, false), Some((0, false)));
        assert!(s.contains(1) && s.contains(2) && s.contains(3));
    }

    #[test]
    fn largest_line_index_round_trips() {
        let big = (1u64 << 58) - 1;
        let mut s = LruSets::new(5, 1);
        s.insert(big, true);
        assert!(s.contains(big));
        assert_eq!(s.insert(big - 5, false), Some((big, true)));
    }

    #[test]
    fn set_explicit_calls_use_the_named_set() {
        // Key 0 would live in set 0; the `*_in` calls put it in set 1.
        let mut s = LruSets::new(2, 2);
        assert_eq!(s.insert_in(1, 0, false), None);
        assert!(s.contains_in(1, 0));
        assert!(!s.contains_in(0, 0));
        assert!(!s.contains(0));
        assert!(!s.touch_in(0, 0, false));
        assert_eq!(s.insert_in(1, 2, false), None);
        assert!(s.touch_in(1, 0, true));
        // 2 is least recently used in set 1; set 0 is untouched.
        assert_eq!(s.insert_in(1, 4, false), Some((2, false)));
        assert_eq!(s.insert_in(1, 6, false), Some((0, true)));
        assert_eq!(s.resident(), 2);
    }

    #[test]
    fn lru_eviction_order_in_a_named_set() {
        let mut s = LruSets::new(4, 3);
        for row in 1..=3 {
            assert_eq!(s.insert_in(2, row, false), None);
        }
        // Touch 1 so 2 becomes least recently used.
        assert!(s.touch_in(2, 1, false));
        assert_eq!(s.insert_in(2, 4, false), Some((2, false)));
        assert!(s.contains_in(2, 1) && s.contains_in(2, 3) && s.contains_in(2, 4));
    }

    #[test]
    fn clear_set_empties_only_that_set() {
        let mut s = LruSets::new(2, 2);
        s.insert_in(0, 1, false);
        s.insert_in(0, 2, false);
        s.insert_in(1, 1, false);
        s.clear_set(0);
        assert!(!s.contains_in(0, 1) && !s.contains_in(0, 2));
        assert!(s.contains_in(1, 1));
        assert_eq!(s.resident(), 1);
        // The emptied set fills front to back again before evicting.
        assert_eq!(s.insert_in(0, 3, false), None);
        assert_eq!(s.insert_in(0, 4, false), None);
        assert_eq!(s.insert_in(0, 5, false), Some((3, false)));
    }
}
