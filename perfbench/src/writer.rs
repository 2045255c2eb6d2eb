//! The write client: inserts, a delete of a known-live interval on every
//! 2nd write, a commit every 8 writes and a checkpoint every
//! `checkpoint_every` commits.

use crate::trace::{self, Layer};
use ri_tree::core::{HotTier, Interval, RiTree};
use ri_tree::prelude::Database;
use ri_tree::workloads::IntervalStream;
use std::collections::HashMap;
use std::time::Instant;

/// Writes between commits.
pub const COMMIT_EVERY: u64 = 8;
/// Every this-many-th write is a delete. Every other write is one, so
/// the live set keeps its size and every round reads a database of the
/// same size.
pub const DELETE_EVERY: u64 = 2;

/// The DML entry points the writer drives.
pub trait Dml {
    /// Inserts `iv` under `id`.
    fn insert(&self, iv: Interval, id: i64) -> ri_tree::core::Result<()>;
    /// Deletes `iv` under `id`; `false` if it was not there.
    fn delete(&self, iv: Interval, id: i64) -> ri_tree::core::Result<bool>;
}

impl Dml for RiTree {
    fn insert(&self, iv: Interval, id: i64) -> ri_tree::core::Result<()> {
        RiTree::insert(self, iv, id)
    }
    fn delete(&self, iv: Interval, id: i64) -> ri_tree::core::Result<bool> {
        RiTree::delete(self, iv, id)
    }
}

impl Dml for HotTier {
    fn insert(&self, iv: Interval, id: i64) -> ri_tree::core::Result<()> {
        HotTier::insert(self, iv, id)
    }
    fn delete(&self, iv: Interval, id: i64) -> ri_tree::core::Result<bool> {
        HotTier::delete(self, iv, id)
    }
}

/// Small deterministic generator for the writer's choices.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The writer's inputs, its view of the live set, and its progress,
/// which carries over from one call of [`run`] to the next.
pub struct WriterState {
    /// Intervals known to be live; deletes pick from here.
    pub live: Vec<(Interval, i64)>,
    /// Every interval inserted so far, in order.
    pub inserted: Vec<(Interval, i64)>,
    /// Every interval deleted so far, in order.
    pub deleted: Vec<(Interval, i64)>,
    /// Id for the next insert.
    pub next_id: i64,
    /// Source of inserted intervals.
    pub source: IntervalStream,
    /// Source of delete choices.
    pub rng: SplitMix,
    /// Writes so far.
    pub writes: u64,
    /// Commits so far.
    pub commits: u64,
}

impl WriterState {
    /// A writer over the loaded `items`, whose ids run `0..items.len()`.
    pub fn new(items: &[(Interval, i64)], source: IntervalStream, seed: u64) -> WriterState {
        WriterState {
            live: items.to_vec(),
            inserted: Vec::new(),
            deleted: Vec::new(),
            next_id: items.len() as i64,
            source,
            rng: SplitMix(seed),
            writes: 0,
            commits: 0,
        }
    }

    /// The live set as an id-keyed map (for building the oracle).
    pub fn live_map(&self) -> HashMap<i64, Interval> {
        self.live.iter().map(|&(iv, id)| (id, iv)).collect()
    }
}

/// What the writer measured.
#[derive(Debug, Default)]
pub struct WriterRun {
    /// Insert latencies, µs.
    pub insert_us: Vec<f64>,
    /// Delete latencies, µs.
    pub delete_us: Vec<f64>,
    /// Commit latencies, µs.
    pub commit_us: Vec<f64>,
    /// Checkpoint latencies, ms.
    pub checkpoint_ms: Vec<f64>,
    /// Time spent inside the engine's calls, s.
    pub busy_s: f64,
    /// Inserts and deletes attempted.
    pub writes: u64,
    /// Calls attempted (writes, commits, checkpoints).
    pub attempted: u64,
    /// Calls that returned `Err`, and deletes that found nothing.
    pub failed: u64,
}

impl WriterRun {
    /// Adds another run's measurements.
    pub fn absorb(&mut self, o: WriterRun) {
        self.insert_us.extend(o.insert_us);
        self.delete_us.extend(o.delete_us);
        self.commit_us.extend(o.commit_us);
        self.checkpoint_ms.extend(o.checkpoint_ms);
        self.busy_s += o.busy_s;
        self.writes += o.writes;
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Times one call: a span around it and its latency.
fn timed<T>(layer: Layer, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
    let span = trace::begin(layer, name);
    let t = Instant::now();
    let out = call();
    let secs = t.elapsed().as_secs_f64();
    trace::end(span);
    (out, secs)
}

/// Makes `writes` more writes, a multiple of [`COMMIT_EVERY`].
///
/// # Panics
/// If `writes` is not a multiple of [`COMMIT_EVERY`].
pub fn run(
    dml: &dyn Dml,
    db: &Database,
    st: &mut WriterState,
    writes: u64,
    checkpoint_every: u64,
) -> WriterRun {
    assert_eq!(writes % COMMIT_EVERY, 0, "writes end on a commit");
    let mut run = WriterRun::default();
    while run.writes < writes {
        for _ in 0..COMMIT_EVERY {
            run.writes += 1;
            run.attempted += 1;
            st.writes += 1;
            if st.writes.is_multiple_of(DELETE_EVERY) {
                let (iv, id) = st.live.swap_remove(st.rng.below(st.live.len()));
                let (r, s) = timed(Layer::Core, "delete", || dml.delete(iv, id));
                run.busy_s += s;
                run.delete_us.push(s * 1e6);
                run.failed += u64::from(!matches!(r, Ok(true)));
                st.deleted.push((iv, id));
            } else {
                let (lower, upper) = st.source.next().expect("the insert stream is long enough");
                let iv = Interval { lower, upper };
                let id = st.next_id;
                st.next_id += 1;
                let (r, s) = timed(Layer::Core, "insert", || dml.insert(iv, id));
                run.busy_s += s;
                run.insert_us.push(s * 1e6);
                match r {
                    Ok(()) => {
                        st.live.push((iv, id));
                        st.inserted.push((iv, id));
                    }
                    Err(_) => run.failed += 1,
                }
            }
        }
        let (r, s) = timed(Layer::Wal, "commit", || db.commit());
        st.commits += 1;
        run.attempted += 1;
        run.busy_s += s;
        run.commit_us.push(s * 1e6);
        run.failed += u64::from(r.is_err());
        if st.commits.is_multiple_of(checkpoint_every) {
            let (r, s) = timed(Layer::Wal, "checkpoint", || db.checkpoint());
            run.attempted += 1;
            run.busy_s += s;
            run.checkpoint_ms.push(s * 1e3);
            run.failed += u64::from(r.is_err());
        }
    }
    run
}
