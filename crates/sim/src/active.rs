//! Deterministic active sets: which routers, slots and ports have work.
//!
//! [`crate::schedule::ActiveSchedule`] keeps one [`ActiveSet`] per kind of
//! pending work (routers with queued injections, routers with occupied input
//! slots) and the switch allocator one over the output ports with a request
//! ([`crate::arbiter::SwitchRequests`]); each router walks its input slots'
//! occupancy and waiting-head masks ([`crate::router::RouterState`]) word by
//! word through the same [`WordIndices`]. So each
//! pipeline stage iterates only over live state instead of the full
//! `routers × ports × VCs` grid. The set is a fixed-size bitset: insertion,
//! removal and membership are O(1), and iteration always yields indices in
//! **ascending order** — the same order a full scan visits them — which is
//! what keeps active-set scheduling bit-identical to the reference full scan
//! (RNG draws and metric recordings happen in exactly the same sequence).

/// A set of indices with deterministic ascending iteration.
#[derive(Clone, Debug)]
pub struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// Creates an empty set able to hold indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        ActiveSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Adds `index` to the set (no-op if already present).
    #[inline]
    pub fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Removes `index` from the set (no-op if absent).
    #[inline]
    pub fn remove(&mut self, index: usize) {
        self.words[index / 64] &= !(1u64 << (index % 64));
    }

    /// True when `index` is in the set.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Number of 64-index words the set spans.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The indices in word `w` (`64 * w ..`), ascending.
    ///
    /// The iterator owns a copy of the word, so it borrows nothing: the loop
    /// body may change the set (and what owns it). `for w in
    /// 0..set.num_words() { for i in set.word_indices(w) { .. } }` visits
    /// the set in ascending order; a change the body makes to the word being
    /// walked is not seen, to later words it is.
    #[inline]
    pub fn word_indices(&self, w: usize) -> WordIndices {
        WordIndices::new(w, self.words[w])
    }

    /// Removes every index, writing only the words that hold one. The switch
    /// allocator clears its port set for every router it visits, usually a
    /// single word, so this skips the `memset` call a fill would make.
    #[inline]
    pub fn clear(&mut self) {
        for word in &mut self.words {
            if *word != 0 {
                *word = 0;
            }
        }
    }

    /// Clears `out` and fills it with the set's indices in ascending order.
    ///
    /// Stages snapshot the set before processing it so that insertions and
    /// removals made *during* the stage (downstream arrivals, queues draining)
    /// take effect from the next stage onwards, exactly like a full scan.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        out.clear();
        for w in 0..self.num_words() {
            out.extend(self.word_indices(w));
        }
    }
}

/// The indices of one word of an [`ActiveSet`], ascending
/// ([`ActiveSet::word_indices`]).
#[derive(Clone, Copy, Debug)]
pub struct WordIndices {
    base: usize,
    bits: u64,
}

impl WordIndices {
    /// The indices of the set bits of `bits`, read as word `w` of a bitset
    /// (so bit `i` is index `64 * w + i`), ascending.
    #[inline]
    pub(crate) fn new(w: usize, bits: u64) -> Self {
        WordIndices { base: w * 64, bits }
    }
}

impl Iterator for WordIndices {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let index = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected(set: &ActiveSet) -> Vec<usize> {
        let mut v = Vec::new();
        set.collect_into(&mut v);
        v
    }

    #[test]
    fn insert_and_remove() {
        let mut s = ActiveSet::new(200);
        assert!(collected(&s).is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(199);
        assert_eq!(collected(&s), [0, 63, 64, 199]);
        s.remove(63);
        assert_eq!(collected(&s), [0, 64, 199]);
        assert!(s.contains(64) && s.contains(199) && !s.contains(63) && !s.contains(1));
        s.remove(63); // double-remove is a no-op
        s.insert(64); // double-insert is a no-op
        assert_eq!(collected(&s), [0, 64, 199]);
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = ActiveSet::new(300);
        for &i in &[250, 3, 128, 64, 63, 0, 299] {
            s.insert(i);
        }
        assert_eq!(collected(&s), vec![0, 3, 63, 64, 128, 250, 299]);
    }

    #[test]
    fn word_indices_walk_the_set_in_ascending_order() {
        let mut s = ActiveSet::new(300);
        let members = [0, 3, 63, 64, 128, 250, 299];
        for &i in members.iter().rev() {
            s.insert(i);
        }
        assert_eq!(s.num_words(), 5);
        let walked: Vec<usize> = (0..s.num_words()).flat_map(|w| s.word_indices(w)).collect();
        assert_eq!(walked, members);
        assert_eq!(s.word_indices(0).collect::<Vec<_>>(), [0, 3, 63]);
        assert_eq!(s.word_indices(1).collect::<Vec<_>>(), [64]);
        assert_eq!(s.word_indices(3).collect::<Vec<_>>(), [250]);
        s.clear();
        assert_eq!(
            (0..s.num_words()).flat_map(|w| s.word_indices(w)).count(),
            0
        );
    }

    #[test]
    fn collect_reuses_buffer() {
        let mut s = ActiveSet::new(10);
        s.insert(5);
        let mut buf = vec![1, 2, 3];
        s.collect_into(&mut buf);
        assert_eq!(buf, vec![5]);
        s.remove(5);
        s.collect_into(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_word() {
        let mut s = ActiveSet::new(65);
        s.insert(64);
        assert_eq!(collected(&s), vec![64]);
        let empty = ActiveSet::new(0);
        assert_eq!(empty.num_words(), 0);
        assert!(collected(&empty).is_empty());
    }
}
