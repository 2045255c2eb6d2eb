//! The workloads: one client runs rounds of the same work, each a pass
//! over a fixed query mix, a fixed batch of writes and the recovery of a
//! crash image, with the host's speed taken alongside. `cached_read` and
//! `paged_read` query the RI-tree directly; `tier_read` goes through a
//! `HotTier`.

use crate::calib::{self, Calibration};
use crate::common::{self, checksum, ratio};
use crate::engine::{self, Engine, Media, Medium};
use crate::probe::Delta;
use crate::probe::Probe;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Layer};
use crate::writer::Dml;
use crate::writer::{self, SplitMix, WriterRun, WriterState, COMMIT_EVERY};
use crate::{Args, Outcome};
use ri_tree::core::{HotTier, HotTierConfig, HotTierStats, Interval, RiTree, UPPER_NOW};
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::prelude::Database;
use ri_tree::relstore::{BoundExpr, ExecStats, Plan, Row, Table};
use ri_tree::workloads::{d1, queries_for_selectivity, zipf, WorkloadSpec};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Size and placement of a workload.
pub struct ReadCfg {
    /// Intervals loaded.
    pub n: usize,
    /// Zipf (`s = 1.0`) interval and query starts, else uniform (D1).
    pub skewed: bool,
    /// Buffer pool frames.
    pub frames: usize,
    /// Data device on a file, else in memory. The log is always in
    /// memory: on this benchmark's host, synced-log latencies varied
    /// too much from run to run to bound.
    pub files: bool,
    /// Queries and writes go through a `HotTier` with a budget of
    /// [`TIER_BUDGET_PCT`] of the loaded intervals.
    pub tier: bool,
    /// Set-ups per untraced run (the median is reported).
    pub setup_reps: usize,
    /// Copies of [`MIX`] in the distinct queries: more queries put more
    /// of them behind each percentile, so fewer depend on the seed.
    pub query_sets: usize,
}

/// 100k intervals in a pool that holds the whole database.
pub const CACHED: ReadCfg = ReadCfg {
    n: 100_000,
    skewed: false,
    frames: 16_384,
    files: false,
    tier: false,
    setup_reps: 5,
    query_sets: 4,
};

/// 1M intervals on a file under the paper's 200-frame pool.
pub const PAGED: ReadCfg = ReadCfg {
    n: 1_000_000,
    skewed: false,
    frames: 200,
    files: true,
    tier: false,
    setup_reps: 3,
    query_sets: 1,
};

/// 100k skewed intervals, read through a hot tier.
pub const TIER: ReadCfg = ReadCfg {
    n: 100_000,
    skewed: true,
    frames: 16_384,
    files: false,
    tier: true,
    setup_reps: 5,
    query_sets: 4,
};

/// The hot tier's budget, in percent of the loaded intervals: room for
/// the whole live set, so a warm tier evicts nothing. With a 75% budget
/// the tier kept admitting and evicting blocks at a rate that depended
/// on where the seed put the hot blocks (0.8 to 9.1 evictions per round
/// over six seeds), and read_ops_s moved with it, from 3.4k to 5.1k/s.
pub const TIER_BUDGET_PCT: usize = 150;

/// Interval length parameter `d`: durations are uniform in `[0, 2d]`.
pub const D: i64 = 2000;

/// Zipf exponent of the skewed workload's interval and query starts.
pub const SKEW: f64 = 1.0;

/// The query mix: `(selectivity, distinct queries per set)`.
/// Selectivity 0 is a stab. The middle class holds 60% of the queries so that the median
/// falls inside it, and the p99 falls inside the widest class.
pub const MIX: [(f64, usize); 3] = [(0.0, 205), (0.003, 614), (0.01, 205)];

/// Commits between checkpoints in every write client.
pub const CHECKPOINT_EVERY: u64 = 64;

/// The distinct queries, `sets` copies of [`MIX`] in size, shuffled; the
/// client cycles through them.
pub fn query_mix(spec: &WorkloadSpec, seed: u64, sets: usize) -> Vec<Interval> {
    let mut out = Vec::new();
    for (c, &(sel, count)) in MIX.iter().enumerate() {
        let qs =
            queries_for_selectivity(spec, sel, count * sets, seed.wrapping_add(101 + c as u64));
        out.extend(qs.into_iter().map(|(lower, upper)| Interval { lower, upper }));
    }
    let mut rng = SplitMix(seed ^ 0x5EED);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Latencies and outcome of a run of the read client.
#[derive(Default)]
struct ReadRun {
    lat_us: Vec<f64>,
    busy_s: f64,
    failed: u64,
    wrong: u64,
    /// Executor counters (traced runs).
    exec: ExecStats,
    /// Replayed index scans and the entries they returned.
    scans: u64,
    entries: u64,
}

/// What the client talks to: the tree, or a hot tier in front of it.
// One value per run: its size does not matter.
#[allow(clippy::large_enum_variant)]
enum Front {
    Tree(RiTree),
    Tier(HotTier),
}

impl Front {
    fn tree(&self) -> &RiTree {
        match self {
            Front::Tree(t) => t,
            Front::Tier(h) => h.tree(),
        }
    }

    fn query(&self, q: Interval) -> ri_tree::core::Result<Vec<i64>> {
        match self {
            Front::Tree(t) => t.intersection(q),
            Front::Tier(h) => h.intersection(q),
        }
    }

    fn dml(&self) -> &dyn Dml {
        match self {
            Front::Tree(t) => t,
            Front::Tier(h) => h,
        }
    }

    fn tier_stats(&self) -> HotTierStats {
        match self {
            Front::Tree(_) => HotTierStats::default(),
            Front::Tier(h) => h.stats(),
        }
    }
}

/// The untraced client: one pass over the queries in a closed loop.
fn read_pass(front: &Front, queries: &[Interval], expect: &[u64]) -> ReadRun {
    let mut run = ReadRun::default();
    for qi in 0..queries.len() {
        let t = Instant::now();
        let r = front.query(queries[qi]);
        let d = t.elapsed().as_secs_f64();
        run.busy_s += d;
        run.lat_us.push(d * 1e6);
        match r {
            Ok(ids) => run.wrong += u64::from(checksum(&ids) != expect[qi]),
            Err(_) => run.failed += 1,
        }
    }
    run
}

/// The traced client through a hot tier, one pass: each read is labelled a hit
/// (charged to `mem`, the `HintIndex`), a miss or a bypass (charged to
/// `core`) by the tier counters it moved, which is exact with one client.
fn traced_tier_pass(tier: &HotTier, queries: &[Interval], expect: &[u64]) -> ReadRun {
    let mut run = ReadRun::default();
    for qi in 0..queries.len() {
        let before = tier.stats();
        let t = Instant::now();
        let span = trace::begin(Layer::Core, "tier.read");
        let r = tier.intersection(queries[qi]);
        trace::end(span);
        let d = t.elapsed().as_secs_f64();
        let after = tier.stats();
        if after.hits > before.hits {
            trace::relabel(span, Layer::Mem, "tier.hit");
        } else if after.misses > before.misses {
            trace::relabel(span, Layer::Core, "tier.miss");
        } else {
            trace::relabel(span, Layer::Core, "tier.bypass");
        }
        run.busy_s += d;
        run.lat_us.push(d * 1e6);
        match r {
            Ok(ids) => run.wrong += u64::from(checksum(&ids) != expect[qi]),
            Err(_) => run.failed += 1,
        }
    }
    run
}

/// Replays a plan's index range scans through `BTree::scan_range`.
struct Replayer {
    tables: HashMap<String, Table>,
}

impl Replayer {
    fn new(db: &Database, tree: &RiTree) -> Result<Replayer, String> {
        let name = tree.table_name().to_string();
        let table = db.table(&name).map_err(|e| e.to_string())?;
        Ok(Replayer { tables: HashMap::from([(name, table)]) })
    }

    fn bound(b: &BoundExpr, outer: Option<&Row>) -> i64 {
        match *b {
            BoundExpr::Const(v) => v,
            BoundExpr::NegInf => i64::MIN,
            BoundExpr::PosInf => i64::MAX,
            BoundExpr::Outer(i) => outer.expect("bound variables need an outer row")[i],
        }
    }

    fn run(&self, plan: &Plan, outer: Option<&Row>, run: &mut ReadRun) -> Result<(), String> {
        match plan {
            Plan::UnionAll(inputs) => inputs.iter().try_for_each(|p| self.run(p, outer, run)),
            Plan::NestedLoops { outer: o, inner } => match &**o {
                Plan::CollectionIterator { rows, .. } => {
                    rows.iter().try_for_each(|row| self.run(inner, Some(row), run))
                }
                other => Err(format!("replay: unexpected outer input {other:?}")),
            },
            Plan::IndexRangeScan { table, index, lo, hi } => {
                let tree = self.tables[table].index(index).map_err(|e| e.to_string())?;
                let lo: Vec<i64> = lo.iter().map(|b| Self::bound(b, outer)).collect();
                let hi: Vec<i64> = hi.iter().map(|b| Self::bound(b, outer)).collect();
                for entry in tree.scan_range(&lo, &hi) {
                    std::hint::black_box(entry.map_err(|e| e.to_string())?);
                    run.entries += 1;
                }
                run.scans += 1;
                Ok(())
            }
            other => Err(format!("replay: unexpected plan node {other:?}")),
        }
    }
}

/// The traced client, one pass: `RiTree::intersection` recomposed from its public
/// parts (plan, execute, id extraction) with a span around each; after
/// each query its index scans are replayed to estimate the B-link share
/// of the execute.
fn traced_pass(
    engine: &Engine,
    tree: &RiTree,
    queries: &[Interval],
    expect: &[u64],
    hit_ns: f64,
) -> Result<ReadRun, String> {
    let replayer = Replayer::new(&engine.db, tree)?;
    let pool = engine.db.pool();
    let data = engine.data_io();
    let mut run = ReadRun::default();
    for qi in 0..queries.len() {
        let t = Instant::now();
        let root = trace::begin(Layer::Core, "read");
        let span = trace::begin(Layer::Core, "core.plan");
        let plan = tree.intersection_plan(queries[qi], UPPER_NOW - 1);
        trace::end(span);
        let exec = trace::begin(Layer::Relstore, "relstore.execute");
        let rows = plan.as_ref().map(|p| engine.db.execute(p, &mut run.exec));
        trace::end(exec);
        let ids = rows.map(|r| {
            r.map(|rows| {
                let mut ids: Vec<i64> = rows.iter().map(|r| r[2]).collect();
                ids.sort_unstable();
                ids
            })
        });
        trace::end(root);
        let d = t.elapsed().as_secs_f64();
        run.busy_s += d;
        run.lat_us.push(d * 1e6);
        match ids {
            Ok(Ok(ids)) => run.wrong += u64::from(checksum(&ids) != expect[qi]),
            _ => {
                run.failed += 1;
                continue;
            }
        }
        // Replay, outside the operation's span.
        let plan = plan.expect("the query succeeded");
        let (io0, dev0) = (pool.stats().snapshot(), data.snapshot());
        let t = Instant::now();
        replayer.run(&plan, None, &mut run)?;
        let replay_ns = t.elapsed().as_nanos() as u64;
        let (io, dev) = (pool.stats().snapshot().since(&io0), data.snapshot().since(&dev0));
        let scan =
            trace::derived(exec, Layer::Btree, "btree.scan", replay_ns.saturating_sub(dev.read_ns));
        let hits = io.logical_reads - io.physical_reads;
        trace::derived(scan, Layer::Pagestore, "pagestore.pool_hit", (hits as f64 * hit_ns) as u64);
    }
    Ok(run)
}

/// Rounds every run makes at least, however short `--seconds` is.
pub const MIN_ROUNDS: usize = 8;

/// Blocks a round's read pass is cut into; the reference computation
/// is timed before each block, after the writes and after the recovery.
pub const BLOCKS: usize = 4;

/// Writes in a checkpoint cycle.
pub const CYCLE: u64 = CHECKPOINT_EVERY * COMMIT_EVERY;

/// Checkpoint cycles of writes in each round.
pub const CYCLES_PER_ROUND: u64 = 4;

/// Every query's answer on the current live set: the oracle's answer on
/// the loaded data, kept up to date as the writes land.
struct Answers {
    ids: Vec<Vec<i64>>,
}

impl Answers {
    /// Applies writes in order: `inserted` then `deleted`. An id deleted
    /// in the same batch it was inserted in is live in between, so this
    /// order is exact.
    fn apply(
        &mut self,
        queries: &[Interval],
        inserted: &[(Interval, i64)],
        deleted: &[(Interval, i64)],
    ) {
        let hits = |iv: &Interval, q: &Interval| iv.lower <= q.upper && q.lower <= iv.upper;
        for (q, ids) in queries.iter().zip(&mut self.ids) {
            for &(_, id) in inserted.iter().filter(|(iv, _)| hits(iv, q)) {
                if let Err(at) = ids.binary_search(&id) {
                    ids.insert(at, id);
                }
            }
            for &(_, id) in deleted.iter().filter(|(iv, _)| hits(iv, q)) {
                if let Ok(at) = ids.binary_search(&id) {
                    ids.remove(at);
                }
            }
        }
    }

    fn checksums(&self) -> Vec<u64> {
        self.ids.iter().map(|ids| checksum(ids)).collect()
    }
}

/// What one untraced round measured.
#[derive(Default)]
struct Round {
    reads: ReadRun,
    writes: WriterRun,
    recovery_s: f64,
    /// Factor that scales the round's timings to the reference speed.
    scale: f64,
}

impl ReadRun {
    fn absorb(&mut self, o: ReadRun) {
        self.lat_us.extend(o.lat_us);
        self.busy_s += o.busy_s;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.exec.rows_examined += o.exec.rows_examined;
        self.exec.result_rows += o.exec.result_rows;
        self.exec.index_searches += o.exec.index_searches;
        self.scans += o.scans;
        self.entries += o.entries;
    }
}

/// Runs one workload.
pub fn run(
    cfg: &ReadCfg,
    args: &Args,
    work: &Path,
    report: &mut Report,
) -> Result<Outcome, String> {
    let spec = if cfg.skewed { zipf(cfg.n, D, SKEW) } else { d1(cfg.n, D) };
    let items = common::generate(&spec, args.seed);
    let queries = query_mix(&spec, args.seed, cfg.query_sets);
    let data = if cfg.files { Medium::File(work.to_path_buf()) } else { Medium::Mem };
    let media = Media { data, log: Medium::Mem };
    let calib = Calibration::new();
    let reps = if args.trace { 1 } else { cfg.setup_reps };
    let (engine, tree, setup) =
        engine::timed_setup(reps, &calib, || engine::load_then_log(&media, cfg.frames, &items))?;
    report.set("setup_s", stats::median_of(&setup.scaled));
    report.note(format!("setup_s samples: {:?} (raw {:?})", setup.scaled, setup.raw));
    let front = if cfg.tier {
        Front::Tier(HotTier::new(tree, HotTierConfig::with_capacity(cfg.n * TIER_BUDGET_PCT / 100)))
    } else {
        Front::Tree(tree)
    };

    // The oracle's answers on the loaded data. Each distinct query runs
    // against them before anything is timed, which warms the pool; a hot
    // tier admits a block on its second miss, so it gets two passes.
    let oracle =
        NaiveIntervalSet::from_triples(items.iter().map(|&(iv, id)| (iv.lower, iv.upper, id)));
    let mut answers =
        Answers { ids: queries.iter().map(|q| oracle.intersection(q.lower, q.upper)).collect() };
    drop(oracle);
    let mut out = Outcome { correct: true, attempted: 0, failed: 0 };
    let mut wrong = 0u64;
    for _ in 0..if cfg.tier { 2 } else { 1 } {
        for (q, want) in queries.iter().zip(&answers.ids) {
            out.attempted += 1;
            match front.query(*q) {
                Ok(got) => wrong += u64::from(&got != want),
                Err(_) => out.failed += 1,
            }
        }
    }

    // Half a checkpoint cycle of writes before the first round. Every
    // round then writes whole cycles, so each ends half-way between two
    // checkpoints, and its crash image has the same log tail to replay.
    let source = if cfg.skewed { zipf(usize::MAX, D, SKEW) } else { d1(usize::MAX, D) };
    let mut st =
        WriterState::new(&items, source.stream(args.seed ^ 0x001F_5E27), args.seed ^ 0x00DE_1E7E);
    let lead = writer::run(front.dml(), &engine.db, &mut st, CYCLE / 2, CHECKPOINT_EVERY);
    out.attempted += lead.attempted;
    out.failed += lead.failed;
    answers.apply(&queries, &st.inserted, &st.deleted);

    // Rounds of identical work until `--seconds` have passed: one pass
    // over the queries, `CYCLES_PER_ROUND` checkpoint cycles of writes, and the
    // recovery of a crash image. A traced run traces every other round,
    // so traced and untraced rounds see the same machine.
    let mut rounds: Vec<Round> = Vec::new();
    let (mut traced, mut traced_writes) = (ReadRun::default(), WriterRun::default());
    let (mut read_delta, mut write_delta) = (Delta::default(), Delta::default());
    let mut tier_delta = HotTierStats::default();
    let mut spans = Vec::new();
    let mut recovered: Option<(Engine, RiTree, String)> = None;
    let hit_ns = if args.trace { common::pool_hit_ns(&engine)? } else { 0.0 };
    let start = Instant::now();
    for r in 0.. {
        if r >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let expect = answers.checksums();
        let tracing = args.trace && r % 2 == 1;
        let tier0 = front.tier_stats();
        let mut round = Round::default();
        let mut speed = Vec::with_capacity(BLOCKS + 2);
        if tracing {
            trace::start_thread();
            let run = match &front {
                Front::Tree(tree) => traced_pass(&engine, tree, &queries, &expect, hit_ns),
                Front::Tier(tier) => Ok(traced_tier_pass(tier, &queries, &expect)),
            };
            spans.push(trace::finish_thread());
            traced.absorb(run?);
        } else {
            let per = queries.len().div_ceil(BLOCKS);
            for (q, e) in queries.chunks(per).zip(expect.chunks(per)) {
                speed.push(calib.time());
                let p0 = Probe::take(&engine);
                round.reads.absorb(read_pass(&front, q, e));
                read_delta.add(&Probe::take(&engine).since(&p0));
            }
        }
        let (ins0, del0) = (st.inserted.len(), st.deleted.len());
        let p0 = Probe::take(&engine);
        if tracing {
            trace::start_thread();
        }
        let run = writer::run(
            front.dml(),
            &engine.db,
            &mut st,
            CYCLES_PER_ROUND * CYCLE,
            CHECKPOINT_EVERY,
        );
        if tracing {
            spans.push(trace::finish_thread());
            write_delta.add(&Probe::take(&engine).since(&p0));
            add_tier(&mut tier_delta, &front.tier_stats(), &tier0);
            traced_writes.absorb(run);
        } else {
            round.writes = run;
        }
        answers.apply(&queries, &st.inserted[ins0..], &st.deleted[del0..]);
        if !tracing {
            speed.push(calib.time());
        }
        if let Some((e, t, tag)) = recovered.take() {
            engine::discard(&media, e, t, &tag)?;
        }
        let tag = r.to_string();
        let (secs, e, t) = engine::timed_recovery(&media, &engine, cfg.frames, &tag)?;
        recovered = Some((e, t, tag));
        if !tracing {
            speed.push(calib.time());
            round.scale = calib::scale(&speed);
            round.recovery_s = secs;
            rounds.push(round);
        }
    }
    for r in &rounds {
        out.attempted += r.reads.lat_us.len() as u64 + r.writes.attempted;
        out.failed += r.reads.failed + r.writes.failed;
        wrong += r.reads.wrong;
    }
    out.attempted += traced.lat_us.len() as u64 + traced_writes.attempted;
    out.failed += traced.failed + traced_writes.failed;
    wrong += traced.wrong;

    let mut pooled = Pooled::new(&rounds, report);
    let all_reads = pooled.reads.lat_us.len() as f64;
    report.note(format!(
        "reads: {all_reads} untraced queries, {:.1} logical / {:.1} physical page reads each",
        ratio(read_delta.io.logical_reads as f64, all_reads),
        ratio(read_delta.io.physical_reads as f64, all_reads)
    ));
    if !args.trace {
        let p = &mut pooled;
        common::set_latency(report, "read_p50_us", Some("read_p99_us"), &mut p.reads.lat_us)?;
        report.set("read_ops_s", stats::median_of(&p.read_rates));
        common::set_write_e2e(report, &mut p.writes, stats::median_of(&p.write_rates))?;
        report.set("recovery_s", stats::median_of(&p.recovery));
        report.note(format!("recovery_s samples: {:?}", p.recovery));
    } else {
        // Page counts come from the untraced rounds: the traced rounds'
        // replays would inflate them.
        let d = &read_delta;
        report.set("pagestore.logical_reads_per_read", ratio(d.io.logical_reads as f64, all_reads));
        report
            .set("pagestore.physical_reads_per_read", ratio(d.io.physical_reads as f64, all_reads));
        report.set("pagestore.hit_ratio", d.io.hit_ratio());
        report.set(
            "pagestore.device_read_us",
            ratio(d.data.read_ns as f64, d.data.reads as f64) / 1e3,
        );
        report.set("pagestore.hit_ns", hit_ns);
        let mut untraced: Vec<f64> =
            rounds.iter().flat_map(|r| r.reads.lat_us.iter().copied()).collect();
        stats::sort(&mut untraced);
        stats::sort(&mut traced.lat_us);
        let base = stats::median(&untraced).ok_or("no untraced reads")?.value;
        let with = stats::median(&traced.lat_us).ok_or("no traced reads")?.value;
        report.set("trace.overhead_share", (with - base) / base);
        report.note(format!("read p50: {base:.3} us untraced, {with:.3} us traced"));
        let ex = traced.exec;
        let traced_reads = traced.lat_us.len() as f64;
        report.set("core.index_searches_per_read", ratio(ex.index_searches as f64, traced_reads));
        report.set(
            "relstore.rows_examined_per_result",
            ratio(ex.rows_examined as f64, ex.result_rows as f64),
        );
        report.set("btree.entries_per_scan", ratio(traced.entries as f64, traced.scans as f64));
        let file = Path::new(crate::TRACE_DIR).join(format!("{}.tsv", args.workload));
        let index = common::finish_trace(report, &spans, &file)?;
        report.set("core.plan_us", index.get("core.plan").mean_us());
        report.set("relstore.execute_us", index.get("relstore.execute").mean_us());
        report.set("relstore.exec_self_us", index.get("relstore.execute").mean_self_us());
        report.set("btree.scan_us", index.get("btree.scan").mean_us());
        let (hit, miss) = (index.get("tier.hit"), index.get("tier.miss"));
        let tier_reads = (hit.count + miss.count + index.get("tier.bypass").count) as f64;
        report.set("core.hot_tier.hit_ratio", ratio(hit.count as f64, tier_reads));
        report.set("core.hot_tier.hit_us", hit.mean_us());
        report.set("core.hot_tier.miss_us", miss.mean_us());
        let t = &tier_delta;
        report.set(
            "core.hot_tier.wasted_admission_share",
            ratio(t.aborted_admissions as f64, (t.admissions + t.aborted_admissions) as f64),
        );
        report.set(
            "core.hot_tier.invalidations_per_write",
            ratio(t.invalidations as f64, traced_writes.writes as f64),
        );
        report.set("core.hot_tier.evicted_blocks", t.evicted_blocks as f64);
        common::set_write_layers(report, &traced_writes, &write_delta, &index);
    }

    if cfg.tier {
        report.note(format!("tier: {:?}", front.tier_stats()));
    }

    // Space, then the durability check on the last round's crash image:
    // every committed write present, every committed delete absent.
    common::set_space(report, &engine, st.live.len())?;
    report.set("btree.height", index_height(&engine.db, front.tree())?);
    drop(front);
    drop(engine);
    let (e, t, tag) = recovered.expect("at least one round");
    wrong += common::check_tree(&t, &st.live_map(), &queries[..CHECKED_AFTER])?;
    engine::discard(&media, e, t, &tag)?;
    report.set("rss_peak_mb", common::rss_peak_mb()?);
    if wrong > 0 {
        report.note(format!("WRONG ANSWERS: {wrong}"));
    }
    out.correct = wrong == 0;
    Ok(out)
}

fn scaled(v: &[f64], k: f64) -> impl Iterator<Item = f64> + '_ {
    v.iter().map(move |x| x * k)
}

/// Every untraced round's timings, scaled to the reference speed by its
/// round's factor.
#[derive(Default)]
struct Pooled {
    /// Every round's reads.
    reads: ReadRun,
    /// Every round's writes.
    writes: WriterRun,
    /// Queries per second of each round.
    read_rates: Vec<f64>,
    /// Writes per second of each round.
    write_rates: Vec<f64>,
    /// Each round's recovery time, s.
    recovery: Vec<f64>,
}

impl Pooled {
    fn new(rounds: &[Round], report: &mut Report) -> Pooled {
        let mut p = Pooled::default();
        let mut raw_reads = Vec::new();
        for r in rounds {
            let k = r.scale;
            raw_reads.extend(&r.reads.lat_us);
            p.reads.lat_us.extend(scaled(&r.reads.lat_us, k));
            p.read_rates.push(r.reads.lat_us.len() as f64 / (r.reads.busy_s * k));
            p.writes.insert_us.extend(scaled(&r.writes.insert_us, k));
            p.writes.delete_us.extend(scaled(&r.writes.delete_us, k));
            p.writes.commit_us.extend(scaled(&r.writes.commit_us, k));
            p.writes.checkpoint_ms.extend(scaled(&r.writes.checkpoint_ms, k));
            p.writes.busy_s += r.writes.busy_s * k;
            p.writes.writes += r.writes.writes;
            p.write_rates.push(r.writes.writes as f64 / (r.writes.busy_s * k));
            p.recovery.push(r.recovery_s * k);
        }
        stats::sort(&mut raw_reads);
        let factors: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.scale)).collect();
        let read_ms: Vec<String> =
            rounds.iter().map(|r| format!("{:.1}", r.reads.busy_s * 1e3)).collect();
        report.note(format!(
            "rounds: {}; raw read p50 {:.3} us",
            rounds.len(),
            stats::median(&raw_reads).map_or(0.0, |q| q.value)
        ));
        report.note(format!("speed factor of each round: {}", factors.join(" ")));
        report.note(format!("raw read ms of each round: {}", read_ms.join(" ")));
        p
    }
}

/// Adds the change of the tier's counters from `b` to `a` to `sum`.
fn add_tier(sum: &mut HotTierStats, a: &HotTierStats, b: &HotTierStats) {
    sum.hits += a.hits - b.hits;
    sum.misses += a.misses - b.misses;
    sum.bypasses += a.bypasses - b.bypasses;
    sum.admissions += a.admissions - b.admissions;
    sum.aborted_admissions += a.aborted_admissions - b.aborted_admissions;
    sum.evicted_blocks += a.evicted_blocks - b.evicted_blocks;
    sum.invalidations += a.invalidations - b.invalidations;
}

/// Queries re-checked against the oracle after recovery.
const CHECKED_AFTER: usize = 256;

/// Height of the taller of the tree's two composite indexes.
fn index_height(db: &Database, tree: &RiTree) -> Result<f64, String> {
    // `RiTree::create` names its indexes after its table.
    let mut h = 0u16;
    for side in ["LOWER", "UPPER"] {
        let index = format!("{}_{side}", tree.table_name());
        h = h.max(db.index_stats(tree.table_name(), &index).map_err(|e| e.to_string())?.height);
    }
    Ok(f64::from(h))
}
