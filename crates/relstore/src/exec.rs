//! Physical query execution.
//!
//! The plan algebra mirrors the operators appearing in the paper's Oracle
//! execution plan (Figure 10): `COLLECTION ITERATOR` over a transient
//! session-state table, `INDEX RANGE SCAN` with bind variables from the
//! outer row, `NESTED LOOPS`, and `UNION-ALL`; plus `FILTER` and
//! `TABLE ACCESS FULL` which the competitor methods need.
//!
//! Execution is push-based: [`Database::execute_with`] first binds the
//! plan to its handles — every index and heap it names is opened once, in
//! plan order — and then streams rows through the operators into a sink
//! as `&[i64]` slices.  An index scan builds each row in a stack buffer
//! from the entry the B-link cursor decoded in place, so no operator
//! allocates per row.  `NESTED LOOPS` drains its outer input into one
//! flat buffer before running the inner plan, which keeps the order of
//! page accesses that of evaluating the outer side first.
//! [`Database::execute`] collects the stream into owned rows; the RI-tree
//! keeps only the id column.

use crate::catalog::Database;
use crate::heap::Heap;
use ri_btree::{BTree, MAX_ARITY};
use ri_pagestore::{Error, Result};
use std::sync::Arc;

/// A materialized row of `i64` values.
pub type Row = Vec<i64>;

/// A bound value for one key column of an index range scan.
///
/// `Outer(i)` is a *bind variable* referencing column `i` of the current
/// outer row of the enclosing nested-loops join — exactly how the paper's
/// SQL query (Figure 9) correlates `leftNodes`/`rightNodes` with the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundExpr {
    /// A literal value.
    Const(i64),
    /// Column `i` of the current outer row.
    Outer(usize),
    /// Negative infinity (`i64::MIN`).
    NegInf,
    /// Positive infinity (`i64::MAX`).
    PosInf,
}

impl BoundExpr {
    fn eval(&self, outer: Option<&[i64]>) -> Result<i64> {
        match *self {
            BoundExpr::Const(v) => Ok(v),
            BoundExpr::NegInf => Ok(i64::MIN),
            BoundExpr::PosInf => Ok(i64::MAX),
            BoundExpr::Outer(i) => outer
                .and_then(|r| r.get(i).copied())
                .ok_or_else(|| Error::InvalidArgument(format!("unbound outer column {i}"))),
        }
    }
}

/// Comparison operators for [`Predicate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `=`
    Eq,
}

/// Row predicates for the `FILTER` operator.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// Always true.
    True,
    /// `row[col] op value`.
    CmpConst {
        /// Column position in the input row.
        col: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: i64,
    },
    /// `row[a] + row[b] op value` — needed for derived-attribute predicates
    /// such as the IST H-ordering's `lower + length >= :lower`.
    CmpSum {
        /// First summand column.
        a: usize,
        /// Second summand column.
        b: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: i64,
    },
    /// `row[a] - row[b] op value` (e.g. interval length on a bounds table).
    CmpDiff {
        /// Minuend column.
        a: usize,
        /// Subtrahend column.
        b: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Right-hand literal.
        value: i64,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
}

impl Predicate {
    /// Evaluates the predicate against a row.
    pub fn matches(&self, row: &[i64]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::CmpConst { col, op, value } => cmp(row[*col], *op, *value),
            Predicate::CmpSum { a, b, op, value } => cmp(row[*a] + row[*b], *op, *value),
            Predicate::CmpDiff { a, b, op, value } => cmp(row[*a] - row[*b], *op, *value),
            Predicate::And(ps) => ps.iter().all(|p| p.matches(row)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(row)),
        }
    }
}

#[inline]
fn cmp(v: i64, op: CmpOp, value: i64) -> bool {
    match op {
        CmpOp::Le => v <= value,
        CmpOp::Ge => v >= value,
        CmpOp::Lt => v < value,
        CmpOp::Gt => v > value,
        CmpOp::Eq => v == value,
    }
}

/// A physical query plan.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Iterates a transient in-memory collection (the paper's session-state
    /// tables `leftNodes` / `rightNodes`); costs no I/O.
    CollectionIterator {
        /// Display name for EXPLAIN output.
        name: String,
        /// The collection rows.
        rows: Vec<Row>,
    },
    /// Inclusive composite-key range scan over a secondary index.
    /// Output rows are the key columns followed by the row id payload.
    IndexRangeScan {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Lower bound, one expression per key column.
        lo: Vec<BoundExpr>,
        /// Upper bound, one expression per key column.
        hi: Vec<BoundExpr>,
    },
    /// For each outer row, evaluates the inner plan with the outer row's
    /// values available as bind variables; emits the inner rows.
    NestedLoops {
        /// Outer (driving) input.
        outer: Box<Plan>,
        /// Inner (parameterized) input.
        inner: Box<Plan>,
    },
    /// Concatenates the results of all inputs (no duplicate elimination —
    /// the paper's Section 4.2 argues the branches are disjoint).
    UnionAll(
        /// The input plans.
        Vec<Plan>,
    ),
    /// Keeps only rows matching the predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Filter predicate.
        pred: Predicate,
    },
    /// Projects the given columns of each input row.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Column positions to keep, in output order.
        cols: Vec<usize>,
    },
    /// Full table scan (`TABLE ACCESS FULL`); output rows are the table
    /// columns.
    TableScan {
        /// Table name.
        table: String,
    },
}

/// Counters accumulated during one [`Database::execute`] call.
///
/// `rows_examined` feeds the response-time model: it counts every row
/// produced by a scan or collection operator, approximating per-row CPU
/// cost of the SQL engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by scan/collection operators.
    pub rows_examined: u64,
    /// Rows in the final result.
    pub result_rows: u64,
    /// Number of index range scans started (search phases).
    pub index_searches: u64,
}

/// A plan bound to the handles it runs on, as compiled by
/// [`Exec::bind`]: scans refer to their opened tree or heap by slot, so
/// running a scan resolves nothing by name.
enum Op<'p> {
    Collection(&'p [Row]),
    IndexScan { tree: usize, index: &'p str, lo: &'p [BoundExpr], hi: &'p [BoundExpr] },
    NestedLoops(Box<Op<'p>>, Box<Op<'p>>),
    UnionAll(Vec<Op<'p>>),
    Filter(Box<Op<'p>>, &'p Predicate),
    Project(Box<Op<'p>>, &'p [usize]),
    TableScan(usize),
}

/// The handles one execution runs on, each opened once.
struct Exec<'p> {
    trees: Vec<(&'p str, &'p str, BTree)>,
    heaps: Vec<(&'p str, Heap)>,
}

impl<'p> Exec<'p> {
    /// Opens every index and heap `plan` names — in plan order, once per
    /// distinct name — and compiles `plan` into the operator tree.
    fn bind(&mut self, db: &Database, plan: &'p Plan) -> Result<Op<'p>> {
        Ok(match plan {
            Plan::CollectionIterator { rows, .. } => Op::Collection(rows),
            Plan::IndexRangeScan { table, index, lo, hi } => {
                let found = self.trees.iter().position(|(t, i, _)| t == table && i == index);
                let tree = match found {
                    Some(slot) => slot,
                    None => {
                        let meta = db.index_meta(table, index)?;
                        let tree = BTree::open(Arc::clone(db.pool()), meta.btree_meta)?;
                        self.trees.push((table, index, tree));
                        self.trees.len() - 1
                    }
                };
                Op::IndexScan { tree, index, lo, hi }
            }
            Plan::NestedLoops { outer, inner } => {
                let outer = self.bind(db, outer)?;
                Op::NestedLoops(Box::new(outer), Box::new(self.bind(db, inner)?))
            }
            Plan::UnionAll(inputs) => {
                Op::UnionAll(inputs.iter().map(|p| self.bind(db, p)).collect::<Result<_>>()?)
            }
            Plan::Filter { input, pred } => Op::Filter(Box::new(self.bind(db, input)?), pred),
            Plan::Project { input, cols } => Op::Project(Box::new(self.bind(db, input)?), cols),
            Plan::TableScan { table } => {
                let heap = match self.heaps.iter().position(|(t, _)| t == table) {
                    Some(slot) => slot,
                    None => {
                        let meta = db.table_meta(table)?;
                        let heap = Heap::open(Arc::clone(db.pool()), meta.heap_meta)?;
                        self.heaps.push((table, heap));
                        self.heaps.len() - 1
                    }
                };
                Op::TableScan(heap)
            }
        })
    }

    /// Runs `op`, handing each output row to `sink`.  `outer` is the
    /// current outer row of the enclosing nested-loops join, if any.
    fn run(
        &self,
        op: &Op<'p>,
        outer: Option<&[i64]>,
        stats: &mut ExecStats,
        sink: &mut dyn FnMut(&[i64]),
    ) -> Result<()> {
        match op {
            Op::Collection(rows) => {
                for row in *rows {
                    stats.rows_examined += 1;
                    sink(row);
                }
            }
            Op::IndexScan { tree, index, lo, hi } => {
                let tree = &self.trees[*tree].2;
                let arity = tree.arity();
                if lo.len() != arity || hi.len() != arity {
                    return Err(Error::InvalidArgument(format!(
                        "scan bounds have {}..{} columns, index {index} expects {arity}",
                        lo.len(),
                        hi.len()
                    )));
                }
                let mut lo_vals = [0i64; MAX_ARITY];
                for (v, b) in lo_vals.iter_mut().zip(lo.iter()) {
                    *v = b.eval(outer)?;
                }
                let mut hi_vals = [0i64; MAX_ARITY];
                for (v, b) in hi_vals.iter_mut().zip(hi.iter()) {
                    *v = b.eval(outer)?;
                }
                stats.index_searches += 1;
                let mut row = [0i64; MAX_ARITY + 1];
                for entry in tree.scan_range(&lo_vals[..arity], &hi_vals[..arity]) {
                    let entry = entry?;
                    row[..arity].copy_from_slice(entry.key.as_slice());
                    row[arity] = entry.payload as i64;
                    stats.rows_examined += 1;
                    sink(&row[..=arity]);
                }
            }
            Op::NestedLoops(o, inner) => {
                // Drain the outer side first (rows laid end to end), then
                // bind each of its rows into the inner plan.
                let (mut vals, mut ends) = (Vec::new(), Vec::new());
                self.run(o, outer, stats, &mut |r| {
                    vals.extend_from_slice(r);
                    ends.push(vals.len());
                })?;
                let mut start = 0;
                for end in ends {
                    self.run(inner, Some(&vals[start..end]), stats, sink)?;
                    start = end;
                }
            }
            Op::UnionAll(inputs) => {
                for input in inputs {
                    self.run(input, outer, stats, sink)?;
                }
            }
            Op::Filter(input, pred) => {
                self.run(input, outer, stats, &mut |r| {
                    if pred.matches(r) {
                        sink(r)
                    }
                })?;
            }
            Op::Project(input, cols) => {
                let mut row = Vec::with_capacity(cols.len());
                self.run(input, outer, stats, &mut |r| {
                    row.clear();
                    row.extend(cols.iter().map(|&c| r[c]));
                    sink(&row);
                })?;
            }
            Op::TableScan(heap) => {
                for (_, row) in self.heaps[*heap].1.scan()? {
                    stats.rows_examined += 1;
                    sink(&row);
                }
            }
        }
        Ok(())
    }
}

impl Database {
    /// Executes a physical plan, handing each result row to `sink` as it
    /// is produced (the slice is only valid during the call), and
    /// accumulates counters into `stats`.  The plan's indexes and heaps
    /// are opened once, before the first row.
    pub fn execute_with(
        &self,
        plan: &Plan,
        stats: &mut ExecStats,
        mut sink: impl FnMut(&[i64]),
    ) -> Result<()> {
        let mut exec = Exec { trees: Vec::new(), heaps: Vec::new() };
        let op = exec.bind(self, plan)?;
        let mut rows = 0u64;
        exec.run(&op, None, stats, &mut |r| {
            rows += 1;
            sink(r);
        })?;
        stats.result_rows += rows;
        Ok(())
    }

    /// Executes a physical plan and collects its rows, accumulating
    /// counters into `stats`.
    pub fn execute(&self, plan: &Plan, stats: &mut ExecStats) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        self.execute_with(plan, stats, |r| out.push(r.to_vec()))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{IndexDef, TableDef};
    use ri_pagestore::{BufferPool, BufferPoolConfig, MemDisk};

    fn setup() -> Database {
        let pool =
            Arc::new(BufferPool::new(MemDisk::new(2048), BufferPoolConfig::with_capacity(64)));
        let db = Database::create(pool).unwrap();
        db.create_table(TableDef {
            name: "T".into(),
            columns: vec!["k".into(), "v".into(), "id".into()],
        })
        .unwrap();
        db.create_index("T", IndexDef { name: "KV".into(), key_cols: vec![0, 1] }).unwrap();
        let t = db.table("T").unwrap();
        for i in 0..100i64 {
            t.insert(&[i % 10, i, 1000 + i]).unwrap();
        }
        db
    }

    #[test]
    fn index_scan_with_const_bounds() {
        let db = setup();
        let plan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Const(4), BoundExpr::Const(50)],
            hi: vec![BoundExpr::Const(4), BoundExpr::PosInf],
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        // k = 4 and v >= 50: v in {54, 64, 74, 84, 94}.
        let vs: Vec<i64> = rows.iter().map(|r| r[1]).collect();
        assert_eq!(vs, vec![54, 64, 74, 84, 94]);
        assert_eq!(stats.index_searches, 1);
        assert_eq!(stats.result_rows, 5);
    }

    #[test]
    fn nested_loops_binds_outer_columns() {
        let db = setup();
        // Transient collection of (k_min, k_max) pairs, as in Figure 9.
        let plan = Plan::NestedLoops {
            outer: Box::new(Plan::CollectionIterator {
                name: "PROBES".into(),
                rows: vec![vec![2, 2], vec![7, 7]],
            }),
            inner: Box::new(Plan::IndexRangeScan {
                table: "T".into(),
                index: "KV".into(),
                lo: vec![BoundExpr::Outer(0), BoundExpr::NegInf],
                hi: vec![BoundExpr::Outer(1), BoundExpr::PosInf],
            }),
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        assert_eq!(rows.len(), 20);
        assert!(rows.iter().all(|r| r[0] == 2 || r[0] == 7));
        assert_eq!(stats.index_searches, 2, "one search per outer row");
    }

    #[test]
    fn union_all_concatenates_without_dedup() {
        let db = setup();
        let scan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Const(1), BoundExpr::NegInf],
            hi: vec![BoundExpr::Const(1), BoundExpr::PosInf],
        };
        let plan = Plan::UnionAll(vec![scan.clone(), scan]);
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        assert_eq!(rows.len(), 20, "UNION ALL must keep duplicates");
    }

    #[test]
    fn filter_and_project() {
        let db = setup();
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::TableScan { table: "T".into() }),
                pred: Predicate::And(vec![
                    Predicate::CmpConst { col: 1, op: CmpOp::Ge, value: 95 },
                    Predicate::CmpConst { col: 1, op: CmpOp::Lt, value: 98 },
                ]),
            }),
            cols: vec![2],
        };
        let mut stats = ExecStats::default();
        let rows = db.execute(&plan, &mut stats).unwrap();
        assert_eq!(rows, vec![vec![1095], vec![1096], vec![1097]]);
        assert_eq!(stats.rows_examined, 100, "full scan examines every row");
    }

    #[test]
    fn or_predicate() {
        let p = Predicate::Or(vec![
            Predicate::CmpConst { col: 0, op: CmpOp::Eq, value: 1 },
            Predicate::CmpConst { col: 0, op: CmpOp::Eq, value: 2 },
        ]);
        assert!(p.matches(&[1]));
        assert!(p.matches(&[2]));
        assert!(!p.matches(&[3]));
        assert!(Predicate::True.matches(&[]));
    }

    #[test]
    fn scan_bound_arity_is_checked() {
        let db = setup();
        let plan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Const(1)],
            hi: vec![BoundExpr::Const(1)],
        };
        assert!(db.execute(&plan, &mut ExecStats::default()).is_err());
    }

    #[test]
    fn unbound_outer_column_errors() {
        let db = setup();
        let plan = Plan::IndexRangeScan {
            table: "T".into(),
            index: "KV".into(),
            lo: vec![BoundExpr::Outer(0), BoundExpr::NegInf],
            hi: vec![BoundExpr::Outer(0), BoundExpr::PosInf],
        };
        assert!(db.execute(&plan, &mut ExecStats::default()).is_err());
    }
}
