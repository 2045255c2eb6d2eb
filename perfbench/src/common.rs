//! Pieces every workload uses: inputs, correctness checks, and the
//! metrics computed from latencies, counters and spans.

use crate::engine::{Engine, USER_BYTES};
use crate::probe::Delta;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Layer, Span, ROOT};
use crate::writer::WriterRun;
use ri_tree::core::{Interval, RiTree};
use ri_tree::mem::NaiveIntervalSet;
use ri_tree::workloads::{WorkloadSpec, DOMAIN_MAX};
use std::collections::HashMap;
use std::path::Path;

/// Generates the data set: `(interval, id)` with ids `0..n`.
pub fn generate(spec: &WorkloadSpec, seed: u64) -> Vec<(Interval, i64)> {
    spec.generate(seed)
        .into_iter()
        .enumerate()
        .map(|(i, (lower, upper))| (Interval { lower, upper }, i as i64))
        .collect()
}

/// An order-sensitive checksum of a sorted answer.
pub fn checksum(ids: &[i64]) -> u64 {
    ids.iter().fold(ids.len() as u64, |h, &id| {
        (h ^ id as u64).wrapping_mul(0x0100_0000_01B3).rotate_left(17)
    })
}

/// Checks a quiet tree against the live set: its size, every id over the
/// whole domain, and each of `queries` against the naive oracle. Returns
/// the number of wrong answers.
pub fn check_tree(
    tree: &RiTree,
    live: &HashMap<i64, Interval>,
    queries: &[Interval],
) -> Result<u64, String> {
    let oracle =
        NaiveIntervalSet::from_triples(live.iter().map(|(&id, iv)| (iv.lower, iv.upper, id)));
    let mut wrong = 0u64;
    if tree.count().map_err(|e| e.to_string())? != live.len() as u64 {
        wrong += 1;
    }
    let mut all: Vec<i64> = live.keys().copied().collect();
    all.sort_unstable();
    let got =
        tree.intersection(Interval { lower: 0, upper: DOMAIN_MAX }).map_err(|e| e.to_string())?;
    wrong += u64::from(got != all);
    for &q in queries {
        let got = tree.intersection(q).map_err(|e| e.to_string())?;
        wrong += u64::from(got != oracle.intersection(q.lower, q.upper));
    }
    Ok(wrong)
}

/// Peak resident memory of this process, MB (`VmHWM`).
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Sets `<prefix>_p50_us` and, when given, `<prefix>_p99_us` from a
/// latency sample in µs, noting the percentile and sample count.
pub fn set_latency(
    report: &mut Report,
    p50: &'static str,
    p99: Option<&'static str>,
    sample: &mut [f64],
) -> Result<(), String> {
    stats::sort(sample);
    let med = stats::median(sample).ok_or_else(|| format!("{p50}: no samples"))?;
    report.set(p50, med.value);
    report.note(format!("{p50} = {:.3} (median of {})", med.value, med.n));
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.1}", sample[(sample.len() * d / 10).min(sample.len() - 1)]))
        .collect();
    report.note(format!("{p50} deciles: {}", deciles.join(" ")));
    if let Some(p99) = p99 {
        let q = stats::tail(sample, 0.99)
            .ok_or_else(|| format!("{p99}: {} samples are too few", sample.len()))?;
        report.set(p99, q.value);
        report.note(format!(
            "{p99} = {:.3} (p{:.2} of {} samples, {} beyond)",
            q.value,
            q.p * 100.0,
            q.n,
            q.n - (q.p * q.n as f64).round() as usize
        ));
    }
    Ok(())
}

/// End-to-end metrics of a write client; `ops_s` is its write rate.
pub fn set_write_e2e(report: &mut Report, run: &mut WriterRun, ops_s: f64) -> Result<(), String> {
    set_latency(report, "insert_p50_us", Some("insert_p99_us"), &mut run.insert_us)?;
    set_latency(report, "delete_p50_us", None, &mut run.delete_us)?;
    set_latency(report, "commit_p50_us", Some("commit_p99_us"), &mut run.commit_us)?;
    report.set("write_ops_s", ops_s);
    report.note(format!(
        "writes = {} in {:.3} s busy, {} commits, {} checkpoints",
        run.writes,
        run.busy_s,
        run.commit_us.len(),
        run.checkpoint_ms.len()
    ));
    Ok(())
}

/// Sum of durations and self times of the spans called `name`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub dur_ns: i64,
    /// Sum of self times, ns.
    pub self_ns: i64,
}

impl Agg {
    /// Mean duration in µs (0 without spans).
    pub fn mean_us(&self) -> f64 {
        ratio(self.dur_ns as f64, self.count as f64) / 1e3
    }

    /// Mean self time in µs (0 without spans).
    pub fn mean_self_us(&self) -> f64 {
        ratio(self.self_ns as f64, self.count as f64) / 1e3
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not use).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Aggregates spans by name, and device-write spans by the name of
/// their parent (to price checkpoints in bytes).
#[derive(Debug, Default)]
pub struct SpanIndex {
    by_name: HashMap<&'static str, Agg>,
    device_writes_under: HashMap<&'static str, u64>,
}

impl SpanIndex {
    /// Adds one thread's spans.
    pub fn add(&mut self, spans: &[Span]) {
        let selfs = trace::self_times(spans);
        for (s, &own) in spans.iter().zip(&selfs) {
            let a = self.by_name.entry(s.name).or_default();
            a.count += 1;
            a.dur_ns += s.dur_ns as i64;
            a.self_ns += own;
            if s.parent != ROOT && matches!(s.name, "device.write" | "device.allocate") {
                *self.device_writes_under.entry(spans[s.parent as usize].name).or_default() += 1;
            }
        }
    }

    /// Totals of the spans called `name`.
    pub fn get(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Device page writes made directly inside spans called `parent`.
    pub fn device_writes_under(&self, parent: &str) -> u64 {
        self.device_writes_under.get(parent).copied().unwrap_or(0)
    }
}

/// Checks every thread's spans, sets the layer shares and the overrun
/// count, and writes the spans to `out`.
pub fn finish_trace(
    report: &mut Report,
    threads: &[Vec<Span>],
    out: &Path,
) -> Result<SpanIndex, String> {
    let mut totals = trace::Totals::default();
    let mut index = SpanIndex::default();
    for spans in threads {
        totals.merge(&trace::check(spans).map_err(|e| format!("trace check: {e}"))?);
        index.add(spans);
    }
    let shares = totals.shares();
    let sum: f64 = shares.iter().sum();
    if (sum - 1.0).abs() > 1e-9 {
        return Err(format!("trace check: layer shares sum to {sum}"));
    }
    for (layer, share) in Layer::ALL.iter().zip(shares) {
        report.set(
            match layer {
                Layer::Core => "layer_share.core",
                Layer::Relstore => "layer_share.relstore",
                Layer::Btree => "layer_share.btree",
                Layer::Pagestore => "layer_share.pagestore",
                Layer::Wal => "layer_share.wal",
                Layer::Mem => "layer_share.mem",
            },
            share,
        );
    }
    report.set("trace.overruns", totals.overruns as f64);
    report.note(format!(
        "trace: {} ops, {:.3} s traced, {} spans, {} overruns beyond tolerance",
        totals.ops,
        totals.root_ns as f64 / 1e9,
        threads.iter().map(Vec::len).sum::<usize>(),
        totals.overruns
    ));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir:?}: {e}"))?;
    }
    let file = std::fs::File::create(out).map_err(|e| format!("{out:?}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    trace::write_tsv(&mut w, threads).map_err(|e| format!("{out:?}: {e}"))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("{out:?}: {e}"))?;
    Ok(index)
}

/// Per-layer metrics of a traced write client: `delta` spans the
/// client's run, `spans` holds its commit and checkpoint spans.
pub fn set_write_layers(report: &mut Report, run: &WriterRun, delta: &Delta, spans: &SpanIndex) {
    let writes = run.writes as f64;
    let inserts = run.insert_us.len() as f64;
    let commits = run.commit_us.len() as f64;
    report.set("btree.splits_per_insert", ratio(delta.latch.splits as f64, inserts));
    report.set("btree.latches_per_write", ratio(delta.latch.total_acquisitions() as f64, writes));
    report.set("btree.right_link_chases", delta.latch.right_link_chases as f64);
    report
        .set("pagestore.physical_writes_per_write", ratio(delta.io.physical_writes as f64, writes));
    report.set(
        "pagestore.device_write_us",
        ratio(delta.data.write_ns as f64, delta.data.writes as f64) / 1e3,
    );
    report.set("pagestore.coalesced_faults", delta.miss.coalesced_faults as f64);
    report.set("wal.bytes_per_commit", ratio(delta.wal_record_bytes as f64, commits));
    report.set(
        "wal.bytes_per_user_byte",
        ratio(delta.wal_record_bytes as f64, writes * USER_BYTES as f64),
    );
    report.set("wal.syncs_per_commit", ratio(delta.log.syncs as f64, commits));
    report.set("wal.sync_us", ratio(delta.log.sync_ns as f64, delta.log.syncs as f64) / 1e3);
    report.set(
        "wal.device_write_us",
        ratio(delta.log.write_ns as f64, delta.log.writes as f64) / 1e3,
    );
    report.set("wal.commit_self_us", spans.get("commit").mean_self_us());
    let checkpoints = spans.get("checkpoint");
    report.set("wal.checkpoint_ms", checkpoints.mean_us() / 1e3);
    report.set(
        "wal.checkpoint_bytes",
        ratio(
            (spans.device_writes_under("checkpoint") * ri_tree::prelude::DEFAULT_PAGE_SIZE as u64)
                as f64,
            checkpoints.count as f64,
        ),
    );
}

/// `space_amp` and `pagestore.pages_per_live_interval` of a quiet engine.
pub fn set_space(report: &mut Report, engine: &Engine, live: usize) -> Result<(), String> {
    engine.db.pool().flush_all().map_err(|e| e.to_string())?;
    let bytes = engine.data_bytes();
    report.set("space_amp", bytes as f64 / (live as u64 * USER_BYTES) as f64);
    report.set(
        "pagestore.pages_per_live_interval",
        bytes as f64 / ri_tree::prelude::DEFAULT_PAGE_SIZE as f64 / live as f64,
    );
    report.note(format!("data device: {bytes} bytes for {live} live intervals"));
    Ok(())
}

/// Mean time of a pool hit, ns: `BufferPool::with_page` on pages made
/// resident just before, 16 calls per page over up to 2,000 pages.
pub fn pool_hit_ns(engine: &Engine) -> Result<f64, String> {
    let pool = engine.db.pool();
    let pages = pool.num_pages();
    let step = (pages / 2000).max(1);
    let (mut ns, mut calls) = (0u128, 0u64);
    let mut p = 0;
    while p < pages {
        let id = ri_tree::pagestore::PageId(p);
        pool.with_page(id, |b| b[0]).map_err(|e| e.to_string())?;
        let t = std::time::Instant::now();
        for _ in 0..16 {
            std::hint::black_box(pool.with_page(id, |b| b[0]).map_err(|e| e.to_string())?);
        }
        ns += t.elapsed().as_nanos();
        calls += 16;
        p += step;
    }
    Ok(ns as f64 / calls as f64)
}
