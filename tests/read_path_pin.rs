//! Pins the page accesses of the query path.
//!
//! The B-link read path and the executor may be rewritten for speed, but
//! the paper's cost model counts page accesses, so every rewrite must read
//! exactly the pages the previous code read, in the same order.  This
//! suite builds a fixed RI-tree of 10k D1 intervals, runs a fixed set of
//! 200 queries (checked against the naive oracle), and compares the pool's
//! counters with constants captured before the zero-copy read path
//! landed: the logical reads pin which pages are requested, and the
//! physical reads of the 200-frame LRU pool pin their order.

use ri_tree::core::{Interval, RiTree};
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::pagestore::IoSnapshot;
use ri_tree::prelude::*;
use ri_tree::workloads::{d1, queries_for_selectivity};

/// Counters of the 200 queries, captured from the materializing executor
/// over owned node decoding.
const GOLDEN_LOGICAL_READS: u64 = 16_395;
const GOLDEN_PHYSICAL_READS: u64 = 628;

#[test]
fn query_page_accesses_match_the_captured_counts() {
    let pool = Arc::new(BufferPool::new(
        MemDisk::new(DEFAULT_PAGE_SIZE),
        BufferPoolConfig::with_capacity(200),
    ));
    let db = Arc::new(Database::create(Arc::clone(&pool)).unwrap());
    let tree = RiTree::create(db, "pin").unwrap();
    let spec = d1(10_000, 2000);
    let data: Vec<(Interval, i64)> = spec
        .generate(12)
        .into_iter()
        .enumerate()
        .map(|(id, (l, u))| (Interval::new(l, u).unwrap(), id as i64))
        .collect();
    // Half bottom-up (full nodes), half by descents (splits).
    let (bulk, single) = data.split_at(data.len() / 2);
    tree.insert_batch(bulk, 1).unwrap();
    for &(iv, id) in single {
        tree.insert(iv, id).unwrap();
    }
    let mut oracle = NaiveIntervalSet::new();
    for &(iv, id) in &data {
        oracle.insert(iv.lower, iv.upper, id);
    }

    let mut queries = queries_for_selectivity(&spec, 0.003, 100, 5);
    queries.extend(queries_for_selectivity(&spec, 0.01, 50, 6));
    queries.extend(queries_for_selectivity(&spec, 0.0, 50, 7).into_iter().map(|(l, _)| (l, l)));
    assert_eq!(queries.len(), 200);

    let before = pool.stats().snapshot();
    for &(l, u) in &queries {
        let got = if l == u {
            tree.stab(l).unwrap()
        } else {
            tree.intersection(Interval::new(l, u).unwrap()).unwrap()
        };
        assert_eq!(got, oracle.intersection(l, u), "query [{l}, {u}]");
    }
    let io: IoSnapshot = pool.stats().snapshot().since(&before);
    println!("READ-PIN logical_reads: {}, physical_reads: {}", io.logical_reads, io.physical_reads);
    assert_eq!(io.logical_reads, GOLDEN_LOGICAL_READS, "pages requested by the queries");
    assert_eq!(io.physical_reads, GOLDEN_PHYSICAL_READS, "LRU misses, i.e. the access order");
}
