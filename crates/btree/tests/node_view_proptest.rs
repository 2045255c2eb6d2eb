//! Property tests for the in-page read path: on random encoded nodes,
//! [`NodeView`] must route and scan exactly as the owned decoding does
//! ([`read_node`] + [`InternalNode::route`]/`covers`, and
//! `partition_point` plus the `hi` cut on a [`LeafNode`]).
//!
//! Keys come from a tiny domain so that equal keys, targets equal to a
//! separator or to the high key, and bounds below every entry are common.

use proptest::prelude::*;
use ri_btree::layout::{
    internal_capacity, leaf_capacity, read_node, write_internal, write_leaf, InternalNode,
    LeafNode, LeafStep, Node, NodeView, Route,
};
use ri_btree::{Entry, Key};
use ri_pagestore::PageId;

const PAGE: usize = 512;

type Raw = (i64, i64, i64, i64, u64);

fn raw() -> impl Strategy<Value = Raw> {
    (-3i64..3, -3i64..3, -3i64..3, -3i64..3, 0u64..3)
}

fn entry(r: &Raw, arity: usize) -> Entry {
    Entry::new(&[r.0, r.1, r.2, r.3][..arity], r.4)
}

/// Sorted, distinct entries of `arity` columns; with `high`, the largest
/// becomes the node's high key (every stored entry stays below it).
fn node_entries(raws: &[Raw], arity: usize, high: bool) -> (Vec<Entry>, Option<Entry>) {
    let mut entries: Vec<Entry> = raws.iter().map(|r| entry(r, arity)).collect();
    entries.sort();
    entries.dedup();
    let high = if high { entries.pop() } else { None };
    (entries, high)
}

/// Targets worth probing: random ones, every stored key, and the high key.
fn targets(raws: &[Raw], arity: usize, stored: &[Entry], high: Option<Entry>) -> Vec<Entry> {
    let mut out: Vec<Entry> = raws.iter().map(|r| entry(r, arity)).collect();
    out.extend_from_slice(stored);
    out.extend(high);
    out.push(Entry { key: Key::new(&[-4; 4][..arity]), payload: 0 });
    out
}

fn expected_scan(leaf: &LeafNode, from: Option<&Entry>, hi: &Key) -> (LeafStep, Vec<Entry>) {
    let start = match from {
        Some(t) if !leaf.covers(t) => return (LeafStep::Right(leaf.next), Vec::new()),
        Some(t) => leaf.entries.partition_point(|e| e < t),
        None => 0,
    };
    let rest = &leaf.entries[start..];
    let emitted: Vec<Entry> = rest.iter().take_while(|e| e.key <= *hi).copied().collect();
    let cut = emitted.len() < rest.len();
    (LeafStep::Scanned { next: leaf.next, cut }, emitted)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn in_page_routing_agrees_with_owned_decoding(
        arity in 1usize..5,
        seps in prop::collection::vec(raw(), 0..24),
        high in 0u8..2,
        probes in prop::collection::vec(raw(), 1..12),
    ) {
        let (mut sep_entries, high) = node_entries(&seps, arity, high == 1);
        sep_entries.truncate(internal_capacity(PAGE, arity));
        let node = InternalNode {
            child0: PageId(1000),
            entries: sep_entries.iter().enumerate().map(|(i, s)| (*s, PageId(2000 + i as u64))).collect(),
            next: if high.is_some() { PageId(77) } else { PageId::INVALID },
            high,
        };
        let mut buf = vec![0u8; PAGE];
        write_internal(&mut buf, &node, arity);
        let Node::Internal(owned) = read_node(&buf, arity).unwrap() else {
            panic!("expected an internal node");
        };
        let view = NodeView::new(&buf, arity).unwrap();
        prop_assert!(!view.is_leaf());
        prop_assert_eq!(view.right_link(), owned.next);
        for t in targets(&probes, arity, &sep_entries, high) {
            let want = if owned.covers(&t) {
                Route::Down(owned.child_at(owned.route(&t)))
            } else {
                Route::Right(owned.next)
            };
            prop_assert_eq!(view.covers(&t), owned.covers(&t));
            prop_assert_eq!(view.route(&t), want, "target {:?}", t);
        }
    }

    #[test]
    fn in_page_leaf_scan_agrees_with_owned_decoding(
        arity in 1usize..5,
        stored in prop::collection::vec(raw(), 0..24),
        high in 0u8..2,
        probes in prop::collection::vec(raw(), 1..8),
        his in prop::collection::vec(raw(), 1..6),
    ) {
        let (mut entries, high) = node_entries(&stored, arity, high == 1);
        entries.truncate(leaf_capacity(PAGE, arity));
        let next = if high.is_some() { PageId(55) } else { PageId::INVALID };
        let node = LeafNode { entries: entries.clone(), next, high };
        let mut buf = vec![0u8; PAGE];
        write_leaf(&mut buf, &node, arity);
        let Node::Leaf(owned) = read_node(&buf, arity).unwrap() else {
            panic!("expected a leaf");
        };
        let view = NodeView::new(&buf, arity).unwrap();
        prop_assert!(view.is_leaf());
        // Upper bounds: random, every stored key, and one below them all.
        let mut hi_keys: Vec<Key> = his.iter().map(|r| entry(r, arity).key).collect();
        hi_keys.extend(entries.iter().map(|e| e.key));
        hi_keys.push(Key::new(&[-4; 4][..arity]));
        let froms = targets(&probes, arity, &entries, high);
        for hi in &hi_keys {
            for from in froms.iter().map(Some).chain([None]) {
                let mut got = Vec::new();
                let step = view.scan_leaf(from, hi, &mut got);
                let (want_step, want) = expected_scan(&owned, from, hi);
                prop_assert_eq!(step, want_step, "from {:?} hi {:?}", from, hi);
                prop_assert_eq!(got, want, "from {:?} hi {:?}", from, hi);
            }
        }
    }
}
