//! In-memory spans recorded around calls into each layer, and the
//! arithmetic that turns them into per-layer self times.
//!
//! Spans are recorded from the benchmark's own code only: around the
//! public calls it makes into `core`, `relstore` and `btree`, and inside
//! [`crate::timed_disk::TimedDisk`] for every device call. A span that
//! cannot be timed directly (the B-link scan inside `Database::execute`,
//! pool hits) is added as a *derived* child: an estimate with a duration
//! but no position in time.
//!
//! Each thread keeps its own span list; nothing is shared or locked while
//! tracing. Spans are written out when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The workspace crates on the RI-tree's path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `RiTree` planning and DML, plus `HotTier`.
    Core,
    /// `Database::execute`, heap and catalog.
    Relstore,
    /// B-link descent and scan.
    Btree,
    /// Buffer pool and the data device.
    Pagestore,
    /// The write-ahead log and its device.
    Wal,
    /// `HintIndex`, reached through hot-tier hits.
    Mem,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 6] =
        [Layer::Core, Layer::Relstore, Layer::Btree, Layer::Pagestore, Layer::Wal, Layer::Mem];

    /// The layer's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Relstore => "relstore",
            Layer::Btree => "btree",
            Layer::Pagestore => "pagestore",
            Layer::Wal => "wal",
            Layer::Mem => "mem",
        }
    }

    fn index(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).expect("listed")
    }
}

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Indices refer to the recording thread's list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer the span's self time is charged to.
    pub layer: Layer,
    /// What was called.
    pub name: &'static str,
    /// Start, in ns since the trace epoch (0 for derived spans).
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// An estimate attributed to its parent rather than a timed call.
    pub derived: bool,
}

/// Handle to an open span; inert when tracing is off on this thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Default)]
struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

fn ns_since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Starts recording on the calling thread.
pub fn start_thread() {
    EPOCH.get_or_init(Instant::now);
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.on = true;
        t.spans.clear();
        t.stack.clear();
    });
}

/// Stops recording on the calling thread and hands over its spans.
pub fn finish_thread() -> Vec<Span> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "a span was left open");
        t.on = false;
        std::mem::take(&mut t.spans)
    })
}

/// Opens a span as a child of the innermost open span.
pub fn begin(layer: Layer, name: &'static str) -> SpanId {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return SpanId::NONE;
        }
        let parent = t.stack.last().copied().unwrap_or(ROOT);
        let idx = t.spans.len() as u32;
        let start_ns = ns_since_epoch(Instant::now());
        t.spans.push(Span { parent, layer, name, start_ns, dur_ns: 0, derived: false });
        t.stack.push(idx);
        SpanId(idx)
    })
}

/// Closes the innermost open span, which must be `id`.
pub fn end(id: SpanId) {
    if id == SpanId::NONE {
        return;
    }
    let now = ns_since_epoch(Instant::now());
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert_eq!(t.stack.pop(), Some(id.0), "spans must close innermost first");
        let span = &mut t.spans[id.0 as usize];
        span.dur_ns = now - span.start_ns;
    });
}

/// Re-labels a span once its outcome is known (a hot-tier read turns
/// out to be a hit, a miss or a bypass only after it returns).
pub fn relabel(id: SpanId, layer: Layer, name: &'static str) {
    if id == SpanId::NONE {
        return;
    }
    TRACER.with(|t| {
        let span = &mut t.borrow_mut().spans[id.0 as usize];
        span.layer = layer;
        span.name = name;
    });
}

/// Adds an estimated child of `parent` lasting `dur_ns`; returns its id
/// so that a further estimate can be nested under it.
pub fn derived(parent: SpanId, layer: Layer, name: &'static str, dur_ns: u64) -> SpanId {
    if parent == SpanId::NONE {
        return SpanId::NONE;
    }
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let idx = t.spans.len() as u32;
        t.spans.push(Span { parent: parent.0, layer, name, start_ns: 0, dur_ns, derived: true });
        SpanId(idx)
    })
}

/// Records a completed device call as a child of the innermost open
/// span. Calls made outside any span (set-up, checks) are not recorded.
pub fn device(layer: Layer, name: &'static str, start: Instant, dur: Duration) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let Some(&parent) = t.stack.last() else { return };
        let start_ns = ns_since_epoch(start);
        let dur_ns = dur.as_nanos() as u64;
        t.spans.push(Span { parent, layer, name, start_ns, dur_ns, derived: false });
    });
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.dur_ns as i64).collect();
    for s in spans {
        if s.parent != ROOT {
            out[s.parent as usize] -= s.dur_ns as i64;
        }
    }
    out
}

/// How far a span's children may overrun it before the trace is judged
/// inconsistent: clock reads are ~25 ns apart, and derived estimates
/// (a replayed scan, pool hits priced at a measured mean) are noisy, so
/// a span may be overrun by 2 µs plus 5% of its duration.
pub fn tolerance_ns(dur_ns: u64) -> i64 {
    2_000 + (dur_ns / 20) as i64
}

/// What one thread's spans add up to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Totals {
    /// Root spans (traced operations).
    pub ops: u64,
    /// Sum of root durations.
    pub root_ns: u64,
    /// Sum of self times per layer, indexed as [`Layer::ALL`].
    pub layer_ns: [i64; 6],
    /// Spans whose children overran them by more than the tolerance.
    pub overruns: u64,
}

impl Totals {
    /// Adds another thread's totals.
    pub fn merge(&mut self, other: &Totals) {
        self.ops += other.ops;
        self.root_ns += other.root_ns;
        for (a, b) in self.layer_ns.iter_mut().zip(other.layer_ns) {
            *a += b;
        }
        self.overruns += other.overruns;
    }

    /// Each layer's share of the traced time.
    pub fn shares(&self) -> [f64; 6] {
        let mut out = [0.0; 6];
        if self.root_ns > 0 {
            for (o, &ns) in out.iter_mut().zip(&self.layer_ns) {
                *o = ns as f64 / self.root_ns as f64;
            }
        }
        out
    }
}

/// Checks one thread's spans and sums them by layer.
///
/// The structure must be sound: every parent precedes its children, a
/// timed child lies inside its timed parent, and timed siblings do not
/// overlap. A structural fault is an error. Children may overrun their
/// parent by [`tolerance_ns`]; a larger overrun is counted in
/// [`Totals::overruns`]. Finally, the self times of each operation's
/// spans must add up to the operation's duration — the parent's self
/// time plus its children's self times equal the parent's duration.
pub fn check(spans: &[Span]) -> Result<Totals, String> {
    let selfs = self_times(spans);
    let mut totals = Totals::default();
    // Root index of every span, and the last timed child seen per parent
    // (children are recorded in call order, so siblings are sorted).
    let mut root_of = vec![0u32; spans.len()];
    let mut last_end = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            root_of[i] = i as u32;
            continue;
        }
        let p = s.parent as usize;
        if p >= i {
            return Err(format!("span {i} ({}) names a later parent {p}", s.name));
        }
        root_of[i] = root_of[p];
        let parent = &spans[p];
        if !s.derived && !parent.derived {
            let end = s.start_ns + s.dur_ns;
            if s.start_ns < parent.start_ns || end > parent.start_ns + parent.dur_ns {
                return Err(format!("span {i} ({}) lies outside its parent {p}", s.name));
            }
            if s.start_ns < last_end[p] {
                return Err(format!("span {i} ({}) overlaps an earlier sibling", s.name));
            }
            last_end[p] = end;
        }
    }
    let mut per_root: std::collections::HashMap<u32, i64> = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if selfs[i] < -tolerance_ns(s.dur_ns) {
            totals.overruns += 1;
        }
        totals.layer_ns[s.layer.index()] += selfs[i];
        *per_root.entry(root_of[i]).or_default() += selfs[i];
    }
    for (&root, &sum) in &per_root {
        let dur = spans[root as usize].dur_ns;
        if sum != dur as i64 {
            return Err(format!("op {root}: self times sum to {sum} ns, duration is {dur} ns"));
        }
        totals.ops += 1;
        totals.root_ns += dur;
    }
    Ok(totals)
}

/// Writes spans as tab-separated lines, one per span, tagged with the
/// recording thread's number.
pub fn write_tsv(out: &mut impl Write, threads: &[Vec<Span>]) -> std::io::Result<()> {
    writeln!(out, "thread\tspan\tparent\tlayer\tname\tstart_ns\tdur_ns\tderived")?;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.name,
                s.start_ns,
                s.dur_ns,
                u8::from(s.derived)
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(parent: u32, layer: Layer, start_ns: u64, dur_ns: u64) -> Span {
        Span { parent, layer, name: "t", start_ns, dur_ns, derived: false }
    }

    fn est(parent: u32, layer: Layer, dur_ns: u64) -> Span {
        Span { parent, layer, name: "d", start_ns: 0, dur_ns, derived: true }
    }

    /// read[0,100) > plan[5,15) + execute[20,90) > device[30,40) + scan~25 > pool~5
    fn read_op() -> Vec<Span> {
        vec![
            timed(ROOT, Layer::Core, 0, 100),
            timed(0, Layer::Core, 5, 10),
            timed(0, Layer::Relstore, 20, 70),
            timed(2, Layer::Pagestore, 30, 10),
            est(2, Layer::Btree, 25),
            est(4, Layer::Pagestore, 5),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let selfs = self_times(&read_op());
        assert_eq!(selfs, vec![100 - 10 - 70, 10, 70 - 10 - 25, 10, 25 - 5, 5]);
    }

    #[test]
    fn layer_totals_partition_the_operation() {
        let totals = check(&read_op()).unwrap();
        assert_eq!(totals.ops, 1);
        assert_eq!(totals.root_ns, 100);
        // core 20 + 10, relstore 35, btree 20, pagestore 10 + 5.
        assert_eq!(totals.layer_ns, [30, 35, 20, 15, 0, 0]);
        assert_eq!(totals.overruns, 0);
        let sum: f64 = totals.shares().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn structural_faults_are_errors() {
        let mut outside = read_op();
        outside[3].start_ns = 85; // device call ends after execute does
        assert!(check(&outside).unwrap_err().contains("outside"));
        let mut overlap = read_op();
        overlap[2].start_ns = 10; // execute starts before plan ends
        overlap[3].start_ns = 30;
        assert!(check(&overlap).unwrap_err().contains("overlaps"));
        let mut forward = read_op();
        forward[1].parent = 4;
        assert!(check(&forward).unwrap_err().contains("later parent"));
    }

    #[test]
    fn overrunning_estimates_are_counted_not_hidden() {
        let mut spans = read_op();
        spans[4].dur_ns = 200_000; // a scan estimate far beyond execute
        let totals = check(&spans).unwrap();
        assert_eq!(totals.overruns, 1);
        // The books still balance: the overrun shows as negative self time.
        let sum: i64 = totals.layer_ns.iter().sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recording_nests_device_calls_under_the_open_span() {
        start_thread();
        let op = begin(Layer::Core, "read");
        let exec = begin(Layer::Relstore, "execute");
        device(Layer::Pagestore, "device.read", Instant::now(), Duration::from_nanos(1));
        end(exec);
        derived(exec, Layer::Btree, "scan", 0);
        end(op);
        // Outside any span: not recorded.
        device(Layer::Pagestore, "device.read", Instant::now(), Duration::from_nanos(1));
        let spans = finish_thread();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 1);
        assert!(spans[3].derived);
        check(&spans).unwrap();
        // Off again: nothing is recorded.
        assert_eq!(begin(Layer::Core, "x"), SpanId::NONE);
    }
}
