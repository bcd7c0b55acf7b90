//! LRU cache for kernel rows.
//!
//! SMO revisits the same working-set indices many times (points near the
//! margin get selected repeatedly), so caching whole kernel rows — the
//! technique Joachims introduced for SVMlight and LIBSVM adopted — removes
//! a large fraction of the SMSV work. The cache is bounded by a byte budget
//! and evicts least-recently-used rows.
//!
//! The cache is a slab: up to `capacity` slots, each owning one row buffer,
//! a per-sample slot table, and an intrusive doubly linked recency list
//! over the slots. Lookup, insertion and eviction are O(1), and an evicted
//! slot's buffer is reused by the row that replaces it, so a cache that has
//! filled up never allocates again.

use dls_sparse::Scalar;

/// Sentinel for "no slot" / "no sample" in the `u32` link and slot tables.
const NIL: u32 = u32::MAX;

/// A bounded LRU cache mapping sample index → kernel row.
///
/// Kernel matrices are square: a row of length `row_len` spans the same
/// samples that index the rows, so every index must be `< row_len`.
#[derive(Debug)]
pub struct KernelCache {
    /// Maximum number of cached rows (derived from the byte budget).
    capacity: usize,
    row_len: usize,
    /// `slot_of[i]` is the slot holding sample `i`'s row, or `NIL`.
    slot_of: Vec<u32>,
    /// Per slot in use: the sample whose row it holds.
    owner: Vec<u32>,
    /// Recency links per slot: `prev` points toward the least recent row.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Least recently used slot (next to evict), or `NIL` when empty.
    head: u32,
    /// Most recently used slot, or `NIL` when empty.
    tail: u32,
    /// Row buffer per slot in use, each `row_len` long.
    rows: Vec<Box<[Scalar]>>,
    hits: u64,
    misses: u64,
}

impl KernelCache {
    /// Creates a cache that holds at most `budget_bytes` worth of rows of
    /// length `row_len`. Always admits at least two rows (SMO needs the
    /// `high` and `low` rows of the current iteration simultaneously), and
    /// never more than `row_len`, the number of distinct rows. A slot's
    /// row buffer is allocated when the slot first fills.
    ///
    /// # Panics
    /// Panics if `row_len` does not fit the `u32` slot table.
    pub fn with_budget(budget_bytes: usize, row_len: usize) -> Self {
        assert!(row_len < NIL as usize, "kernel cache supports fewer than 2^32 - 1 samples");
        let row_bytes = (row_len * std::mem::size_of::<Scalar>()).max(1);
        let capacity = (budget_bytes / row_bytes).min(row_len).max(2);
        Self {
            capacity,
            row_len,
            slot_of: vec![NIL; row_len],
            owner: Vec::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            rows: Vec::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of rows the cache can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of rows currently resident.
    #[inline]
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True when no rows are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Rows that can still be inserted without evicting one.
    #[inline]
    pub fn free_slots(&self) -> usize {
        self.capacity - self.owner.len()
    }

    /// Cache hits so far.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fetches the row for `index` if resident, counting a hit (and
    /// refreshing recency) or a miss. The caller computes and [`insert`]s
    /// the row after a miss, which lets it fill several rows per miss with
    /// one blocked SMSV sweep.
    ///
    /// [`insert`]: KernelCache::insert
    pub fn get(&mut self, index: usize) -> Option<&[Scalar]> {
        let slot = self.slot_of[index];
        if slot == NIL {
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.unlink(slot);
        self.push_mru(slot);
        Some(&self.rows[slot as usize])
    }

    /// True when `index` is resident. Does not count toward hit/miss
    /// statistics and does not refresh recency.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.slot_of[index] != NIL
    }

    /// Copies `row` in as the row for `index`, replacing a resident row for
    /// the same index or, at capacity, reusing the least recently used
    /// row's slot. The inserted row becomes the most recently used.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the cache's row length.
    pub fn insert(&mut self, index: usize, row: &[Scalar]) {
        assert_eq!(row.len(), self.row_len, "kernel row length mismatch");
        let mut slot = self.slot_of[index];
        if slot != NIL {
            self.unlink(slot);
            self.rows[slot as usize].copy_from_slice(row);
        } else if self.owner.len() < self.capacity {
            slot = self.owner.len() as u32;
            self.owner.push(index as u32);
            self.prev.push(NIL);
            self.next.push(NIL);
            self.rows.push(row.into());
        } else {
            // Hand the least recently used row's slot and buffer over.
            slot = self.head;
            self.unlink(slot);
            self.slot_of[self.owner[slot as usize] as usize] = NIL;
            self.owner[slot as usize] = index as u32;
            self.rows[slot as usize].copy_from_slice(row);
        }
        self.slot_of[index] = slot;
        self.push_mru(slot);
    }

    /// Drops every cached row and its buffer (kernel rows depend only on X,
    /// never on α, so training itself never needs this).
    pub fn clear(&mut self) {
        for &i in &self.owner {
            self.slot_of[i as usize] = NIL;
        }
        self.owner.clear();
        self.prev.clear();
        self.next.clear();
        self.rows.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Appends a detached `slot` as the most recently used.
    fn push_mru(&mut self, slot: u32) {
        self.prev[slot as usize] = self.tail;
        self.next[slot as usize] = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.next[self.tail as usize] = slot;
        }
        self.tail = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ROW: usize = 16;

    /// A cache of exactly `rows` rows of length [`ROW`].
    fn cache(rows: usize) -> KernelCache {
        KernelCache::with_budget(rows * ROW * std::mem::size_of::<Scalar>(), ROW)
    }

    fn row(v: Scalar) -> Vec<Scalar> {
        vec![v; ROW]
    }

    #[test]
    fn computes_on_miss_and_reuses_on_hit() {
        let mut c = cache(4);
        assert!(c.get(7).is_none());
        c.insert(7, &row(1.0));
        assert_eq!(c.get(7).unwrap(), &row(1.0)[..]);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!(c.contains(7));
        assert!(!c.contains(6));
        // contains() leaves the statistics alone.
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = cache(2);
        assert_eq!(c.capacity(), 2);
        c.insert(0, &row(0.0));
        c.insert(1, &row(1.0));
        // Touch 0 so 1 becomes least recent; inserting 2 evicts it.
        let _ = c.get(0);
        c.insert(2, &row(2.0));
        assert_eq!(c.len(), 2);
        assert!(!c.contains(1));
        assert_eq!(c.get(0).unwrap(), &row(0.0)[..]);
        // The evicted slot now holds row 2's content.
        assert_eq!(c.get(2).unwrap(), &row(2.0)[..]);
    }

    #[test]
    fn reinsert_replaces_without_evicting() {
        let mut c = cache(2);
        c.insert(0, &row(0.0));
        c.insert(1, &row(1.0));
        c.insert(0, &row(5.0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.free_slots(), 0);
        assert_eq!(c.get(0).unwrap(), &row(5.0)[..]);
        // 0 was refreshed by the reinsert, so 1 is the eviction victim.
        c.insert(3, &row(3.0));
        assert!(c.contains(0) && c.contains(3) && !c.contains(1));
    }

    #[test]
    fn always_admits_two_rows() {
        let c = KernelCache::with_budget(0, 1_000_000);
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn capacity_never_exceeds_the_number_of_rows() {
        let c = KernelCache::with_budget(1 << 30, 10);
        assert_eq!(c.capacity(), 10);
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = cache(3);
        c.insert(3, &row(3.0));
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(3));
        assert_eq!(c.free_slots(), 3);
        c.insert(4, &row(4.0));
        assert_eq!(c.get(4).unwrap(), &row(4.0)[..]);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(usize),
        Insert(usize, u8),
        Contains(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..ROW).prop_map(Op::Get),
            (0..ROW, 0u8..=255).prop_map(|(i, v)| Op::Insert(i, v)),
            (0..ROW).prop_map(Op::Contains),
        ]
    }

    /// The obvious LRU: resident `(index, row)` pairs, most recent last.
    struct ReferenceLru {
        capacity: usize,
        entries: Vec<(usize, Vec<Scalar>)>,
        hits: u64,
        misses: u64,
    }

    impl ReferenceLru {
        fn position(&self, index: usize) -> Option<usize> {
            self.entries.iter().position(|(i, _)| *i == index)
        }

        fn get(&mut self, index: usize) -> Option<Vec<Scalar>> {
            match self.position(index) {
                Some(p) => {
                    self.hits += 1;
                    let e = self.entries.remove(p);
                    self.entries.push(e);
                    Some(self.entries.last().unwrap().1.clone())
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, index: usize, row: Vec<Scalar>) {
            if let Some(p) = self.position(index) {
                self.entries.remove(p);
            } else if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((index, row));
        }
    }

    proptest! {
        #[test]
        fn slab_lru_matches_reference(
            capacity in 2usize..=8,
            ops in proptest::collection::vec(arb_op(), 0..200),
        ) {
            let mut slab = cache(capacity);
            let mut reference =
                ReferenceLru { capacity, entries: Vec::new(), hits: 0, misses: 0 };
            for op in ops {
                match op {
                    Op::Get(i) => {
                        let got = slab.get(i).map(<[Scalar]>::to_vec);
                        prop_assert_eq!(got, reference.get(i));
                    }
                    Op::Insert(i, v) => {
                        // Distinct values per position catch slot mix-ups.
                        let r: Vec<Scalar> =
                            (0..ROW).map(|k| Scalar::from(v) + k as Scalar / 32.0).collect();
                        slab.insert(i, &r);
                        reference.insert(i, r);
                    }
                    Op::Contains(i) => {
                        prop_assert_eq!(slab.contains(i), reference.position(i).is_some());
                    }
                }
                prop_assert_eq!(slab.len(), reference.entries.len());
                prop_assert_eq!((slab.hits(), slab.misses()), (reference.hits, reference.misses));
                for i in 0..ROW {
                    prop_assert_eq!(slab.contains(i), reference.position(i).is_some(), "index {}", i);
                }
            }
        }
    }
}
