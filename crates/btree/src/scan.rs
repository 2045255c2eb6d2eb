//! Range scan cursor over the leaf chain.

use crate::key::{Entry, Key};
use crate::tree::BTree;
use ri_pagestore::{PageId, Result};

/// Iterator over all entries whose key columns lie in `[lo, hi]`
/// (inclusive, lexicographic).
///
/// The cursor reads one leaf per page access, on the page bytes: it
/// binary-searches for `lo` in the first leaf, decodes only the entries it
/// will yield into one reusable buffer, and stops at the first entry above
/// `hi` without touching the next leaf.  The search phase costs
/// `O(log_b n)` page accesses and the scan phase one access per leaf — the
/// cost model of the paper's Theorem in Section 4.4.
///
/// Cursors are **latch-free** (B-link protocol): each leaf is read in one
/// copy-atomic page access and the cursor follows right links, so concurrent
/// writers — including splits — proceed freely, and the owning thread may
/// even write through the same tree while the cursor is live (the
/// pre-B-link "no DML under an open cursor" rule is gone).  Guarantee:
/// every entry committed before the scan started and not concurrently
/// deleted is yielded exactly once, in order — splits only move entries
/// *right*, and the cursor moves right with them.  Entries inserted or
/// deleted concurrently may or may not appear, as with any non-snapshot
/// index scan.
pub struct RangeScan<'t> {
    tree: &'t BTree,
    hi: Key,
    /// The current leaf's entries in range, yielded from `idx` on.
    buf: Vec<Entry>,
    idx: usize,
    /// The leaf to read once `buf` drains; invalid once the scan is done.
    next: PageId,
    /// A failed start, yielded once before the scan ends.
    failed: Option<ri_pagestore::Error>,
}

impl<'t> RangeScan<'t> {
    pub(crate) fn new(tree: &'t BTree, lo: &[i64], hi: &[i64]) -> RangeScan<'t> {
        assert_eq!(lo.len(), tree.arity(), "lo bound arity mismatch");
        assert_eq!(hi.len(), tree.arity(), "hi bound arity mismatch");
        let hi = Key::new(hi);
        // Start at the first entry >= (lo, payload 0): payloads are
        // unsigned, so payload 0 sorts before every entry with equal columns.
        let from = Entry { key: Key::new(lo), payload: 0 };
        let buf = Vec::with_capacity(tree.leaf_cap);
        let mut scan = RangeScan { tree, hi, buf, idx: 0, next: PageId::INVALID, failed: None };
        match tree.scan_start(&from, &hi, &mut scan.buf) {
            Ok(next) => scan.next = next,
            Err(e) => scan.failed = Some(e),
        }
        scan
    }

    /// Drains the scan, panicking on I/O errors (test convenience).
    pub fn collect_payloads(self) -> Vec<u64> {
        self.map(|r| r.expect("scan I/O error").payload).collect()
    }
}

impl Iterator for RangeScan<'_> {
    type Item = Result<Entry>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.failed.take() {
            return Some(Err(e));
        }
        while self.idx == self.buf.len() {
            if self.next.is_invalid() {
                return None;
            }
            self.buf.clear();
            self.idx = 0;
            match self.tree.scan_leaf(self.next, None, &self.hi, &mut self.buf) {
                Ok(next) => self.next = next,
                Err(e) => {
                    self.next = PageId::INVALID;
                    return Some(Err(e));
                }
            }
        }
        self.idx += 1;
        Some(Ok(self.buf[self.idx - 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk};
    use std::sync::Arc;

    fn tree_with(n: i64) -> (Arc<BufferPool>, BTree) {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(256), BufferPoolConfig::with_capacity(16)));
        let tree = BTree::create(Arc::clone(&pool), 1).unwrap();
        for i in 0..n {
            tree.insert(&[i], i as u64 + 1000).unwrap();
        }
        (pool, tree)
    }

    #[test]
    fn empty_tree_scan_is_empty() {
        let pool = Arc::new(BufferPool::with_defaults(MemDisk::new(256)));
        let tree = BTree::create(pool, 1).unwrap();
        assert_eq!(tree.scan_all().count(), 0);
    }

    #[test]
    fn inclusive_bounds() {
        let (_pool, tree) = tree_with(100);
        let got: Vec<u64> = tree.scan_range(&[10], &[20]).collect_payloads();
        assert_eq!(got, (1010..=1020).collect::<Vec<_>>());
    }

    #[test]
    fn bounds_outside_data() {
        let (_pool, tree) = tree_with(10);
        assert_eq!(tree.scan_range(&[-100], &[-1]).count(), 0);
        assert_eq!(tree.scan_range(&[50], &[99]).count(), 0);
        assert_eq!(tree.scan_range(&[-5], &[200]).count(), 10);
    }

    #[test]
    fn point_scan() {
        let (_pool, tree) = tree_with(64);
        let got: Vec<u64> = tree.scan_range(&[7], &[7]).collect_payloads();
        assert_eq!(got, vec![1007]);
    }

    #[test]
    fn scan_crosses_many_leaves_in_order() {
        let (_pool, tree) = tree_with(2000);
        let got: Vec<u64> = tree.scan_all().collect_payloads();
        assert_eq!(got.len(), 2000);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn an_entry_above_hi_ends_the_scan_without_reading_the_next_leaf() {
        let (pool, tree) = tree_with(200);
        let height = tree.stats().unwrap().height as u64;
        assert!(height >= 2, "the scan must start below an internal node");
        // The first leaf's entries, and the link to the second leaf.
        let mut first = Vec::new();
        let from = Entry::new(&[0], 0);
        let next = tree.scan_start(&from, &Key::new(&[i64::MAX]), &mut first).unwrap();
        assert!(first.len() >= 2 && !next.is_invalid());
        let reads = |hi: i64| {
            let before = pool.stats().snapshot();
            let got = tree.scan_range(&[0], &[hi]).collect_payloads();
            (got.len(), pool.stats().snapshot().since(&before).logical_reads)
        };
        // `hi` below the leaf's last entry: that entry cuts the scan, so
        // only the meta page and the descent path are read.
        let below_last = first[first.len() - 2].key.col(0);
        assert_eq!(reads(below_last), (first.len() - 1, 1 + height));
        // `hi` at the last entry: nothing in this leaf is above it, so the
        // cursor must read the next leaf to see where the range ends.
        let last = first[first.len() - 1].key.col(0);
        assert_eq!(reads(last), (first.len(), 2 + height));
    }

    #[test]
    fn scan_skips_emptied_leaves() {
        // Delete a whole leaf's worth in the middle: the empty leaf stays
        // linked (deletes do not restructure) and the scan skips it.
        let (_pool, tree) = tree_with(64);
        for i in 20..30 {
            assert!(tree.delete(&[i], i as u64 + 1000).unwrap());
        }
        let got: Vec<u64> = tree.scan_all().collect_payloads();
        let want: Vec<u64> =
            (0..64).filter(|i| !(20..30).contains(i)).map(|i| i as u64 + 1000).collect();
        assert_eq!(got, want);
        tree.check_invariants().unwrap();
    }

    #[test]
    fn writes_under_a_live_cursor_are_legal() {
        // The B-link cursor holds no latch: inserting (and splitting)
        // while a cursor is mid-scan must neither deadlock nor lose any
        // entry that existed when the scan began.
        let (_pool, tree) = tree_with(50);
        let mut scan = tree.scan_all();
        let mut seen: Vec<u64> = (0..10).map(|_| scan.next().unwrap().unwrap().payload).collect();
        for i in 100..160 {
            tree.insert(&[i], i as u64 + 1000).unwrap(); // splits ahead of the cursor
        }
        seen.extend(scan.map(|e| e.unwrap().payload));
        let original: Vec<u64> = (0..50).map(|i| i + 1000).collect();
        for p in original {
            assert!(seen.contains(&p), "entry {p} lost under concurrent splits");
        }
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "cursor stays ordered");
    }
}
