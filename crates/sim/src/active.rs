//! Deterministic active-set worklists for [`crate::schedule::ActiveSchedule`].
//!
//! The scheduler keeps one [`ActiveSet`] per kind of pending work (routers with
//! queued injections, routers with occupied input VCs) so each pipeline stage
//! iterates only over live state instead of the full `routers × ports × VCs`
//! grid. The set is a fixed-size bitset: insertion, removal and membership are
//! O(1), and iteration always yields indices in **ascending order** — the same
//! order a full scan visits them — which is what keeps active-set scheduling
//! bit-identical to the reference full scan (RNG draws and metric
//! recordings happen in exactly the same sequence).

/// A set of router indices with deterministic ascending iteration.
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

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set holds no indices.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears `out` and fills it with the set's indices in ascending order.
    ///
    /// Stages snapshot the set before processing it so that insertions and
    /// removals made *during* the stage (downstream arrivals, queues draining)
    /// take effect from the next stage onwards, exactly like a full scan.
    pub fn collect_into(&self, out: &mut Vec<usize>) {
        out.clear();
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                out.push(w * 64 + bit);
                bits &= bits - 1;
            }
        }
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
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(200);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(199);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(199));
        assert!(!s.contains(1) && !s.contains(65));
        assert_eq!(s.len(), 4);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
        s.remove(63); // double-remove is a no-op
        assert_eq!(s.len(), 3);
        s.insert(64); // double-insert is a no-op
        assert_eq!(s.len(), 3);
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
    fn collect_reuses_buffer() {
        let mut s = ActiveSet::new(10);
        s.insert(5);
        let mut buf = vec![1, 2, 3];
        s.collect_into(&mut buf);
        assert_eq!(buf, vec![5]);
        s.remove(5);
        s.collect_into(&mut buf);
        assert!(buf.is_empty());
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_word() {
        let mut s = ActiveSet::new(65);
        s.insert(64);
        assert!(s.contains(64));
        assert_eq!(collected(&s), vec![64]);
        let empty = ActiveSet::new(0);
        assert!(empty.is_empty());
    }
}
