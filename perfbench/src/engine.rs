//! Building, loading, dropping and reopening the database under test.

use crate::calib::{self, Calibration};
use crate::timed_disk::{DeviceCounters, TimedDisk};
use crate::trace::Layer;
use ri_tree::core::{Interval, RiTree};
use ri_tree::pagestore::{DiskManager, WalConfig};
use ri_tree::prelude::{
    BufferPool, BufferPoolConfig, Database, FileDisk, MemDisk, DEFAULT_PAGE_SIZE,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A device as the pool sees it: any disk behind the timing wrapper.
pub type Dev = TimedDisk<Arc<dyn DiskManager>>;

/// Name of the RI-tree every workload creates.
pub const TREE: &str = "bench";

/// Bytes of user data per interval: lower, upper and id, 8 bytes each.
pub const USER_BYTES: u64 = 24;

/// Where the devices live.
#[derive(Clone, Debug)]
pub enum Medium {
    /// In memory (`MemDisk`).
    Mem,
    /// Files (`FileDisk`) in this directory.
    File(PathBuf),
}

impl Medium {
    /// A fresh, empty device called `name`.
    pub fn create(&self, name: &str, layer: Layer) -> Result<Arc<Dev>, String> {
        let disk: Arc<dyn DiskManager> = match self {
            Medium::Mem => Arc::new(MemDisk::new(DEFAULT_PAGE_SIZE)),
            Medium::File(dir) => {
                let path = dir.join(name);
                if path.exists() {
                    std::fs::remove_file(&path).map_err(|e| format!("{path:?}: {e}"))?;
                }
                Arc::new(FileDisk::open(&path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?)
            }
        };
        Ok(Arc::new(TimedDisk::new(disk, layer)))
    }

    /// A copy of device `src` (called `name` on this medium) under the
    /// name `copy`. The source must be quiet: no pool may own it.
    pub fn copy(&self, src: &Dev, name: &str, copy: &str) -> Result<Arc<Dev>, String> {
        let layer = src.layer();
        match self {
            Medium::Mem => {
                let out = MemDisk::new(DEFAULT_PAGE_SIZE);
                let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
                for p in 0..src.inner().num_pages() {
                    let id = out.allocate_page().map_err(|e| e.to_string())?;
                    src.inner().read_page(id, &mut buf).map_err(|e| e.to_string())?;
                    debug_assert_eq!(id.0, p);
                    out.write_page(id, &buf).map_err(|e| e.to_string())?;
                }
                Ok(Arc::new(TimedDisk::new(Arc::new(out) as Arc<dyn DiskManager>, layer)))
            }
            Medium::File(dir) => {
                let to = dir.join(copy);
                std::fs::copy(dir.join(name), &to).map_err(|e| format!("{to:?}: {e}"))?;
                let disk = FileDisk::open(&to, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
                Ok(Arc::new(TimedDisk::new(Arc::new(disk) as Arc<dyn DiskManager>, layer)))
            }
        }
    }
}

impl Medium {
    /// Deletes device `name` of this medium once no pool owns it (a
    /// device in memory goes with its last handle).
    pub fn remove(&self, name: &str) -> Result<(), String> {
        match self {
            Medium::Mem => Ok(()),
            Medium::File(dir) => {
                let path = dir.join(name);
                std::fs::remove_file(&path).map_err(|e| format!("{path:?}: {e}"))
            }
        }
    }
}

/// Where the data device and the log device live.
#[derive(Clone, Debug)]
pub struct Media {
    /// The data device's medium.
    pub data: Medium,
    /// The log device's medium.
    pub log: Medium,
}

/// An open database with its two timed devices.
pub struct Engine {
    /// The database (durable: its pool logs to `wal`).
    pub db: Arc<Database>,
    /// The data device.
    pub data: Arc<Dev>,
    /// The log device.
    pub wal: Arc<Dev>,
}

impl Engine {
    /// Counters of the data device.
    pub fn data_io(&self) -> Arc<DeviceCounters> {
        self.data.counters()
    }

    /// Counters of the log device.
    pub fn wal_io(&self) -> Arc<DeviceCounters> {
        self.wal.counters()
    }

    /// Bytes on the data device.
    pub fn data_bytes(&self) -> u64 {
        self.data.num_pages() * DEFAULT_PAGE_SIZE as u64
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn durable_pool(data: &Arc<Dev>, wal: &Arc<Dev>, frames: usize) -> Result<Arc<BufferPool>, String> {
    let pool = BufferPool::new_durable_with(
        Arc::clone(data),
        BufferPoolConfig::with_capacity(frames),
        Arc::clone(wal),
        WalConfig::default(),
    )
    .map_err(err)?;
    Ok(Arc::new(pool))
}

/// Loads `items` into a fresh database with `insert_batch` on a volatile
/// pool, writes it back and syncs it, then reopens it on a durable pool
/// with an empty log: a bulk load without logging, after which every
/// change is logged.
pub fn load_then_log(
    media: &Media,
    frames: usize,
    items: &[(Interval, i64)],
) -> Result<(Engine, RiTree), String> {
    let data = media.data.create("data.db", Layer::Pagestore)?;
    {
        let pool =
            Arc::new(BufferPool::new(Arc::clone(&data), BufferPoolConfig::with_capacity(frames)));
        let db = Arc::new(Database::create(Arc::clone(&pool)).map_err(err)?);
        let tree = RiTree::create(Arc::clone(&db), TREE).map_err(err)?;
        tree.insert_batch(items, 1).map_err(err)?;
        pool.flush_all().map_err(err)?;
    }
    data.sync().map_err(err)?;
    let wal = media.log.create("wal.db", Layer::Wal)?;
    let db = Arc::new(Database::open(durable_pool(&data, &wal, frames)?).map_err(err)?);
    let tree = RiTree::open(Arc::clone(&db), TREE).map_err(err)?;
    Ok((Engine { db, data, wal }, tree))
}

/// Runs `setup` `reps` times and returns the last engine with each
/// set-up's time in seconds, raw and scaled to the reference speed by
/// two reference timings just before it and two just after. Earlier
/// engines are dropped before the next set-up starts.
pub fn timed_setup(
    reps: usize,
    calib: &Calibration,
    mut setup: impl FnMut() -> Result<(Engine, RiTree), String>,
) -> Result<(Engine, RiTree, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let before = [calib.time(), calib.time()];
        let t = Instant::now();
        let built = setup()?;
        let secs = t.elapsed().as_secs_f64();
        times.raw.push(secs);
        times.scaled.push(secs * calib::scale(&[before[0], before[1], calib.time(), calib.time()]));
        last = Some(built);
    }
    let (engine, tree) = last.expect("at least one set-up");
    Ok((engine, tree, times))
}

/// Set-up times in seconds, raw and scaled to the reference speed.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// As measured.
    pub raw: Vec<f64>,
    /// Scaled to the reference speed.
    pub scaled: Vec<f64>,
}

/// Times the recovery of a crash image of `engine`: copies of its
/// devices as they stand, without the pages its pool still buffers, so
/// the log tail since the last checkpoint must be replayed. The copies
/// (named after `tag`) are not timed; the durable pool's construction
/// (which scans the log), `Database::open` (which replays it) and
/// `RiTree::open` are. `engine` must be quiet: no call in flight.
pub fn timed_recovery(
    media: &Media,
    engine: &Engine,
    frames: usize,
    tag: &str,
) -> Result<(f64, Engine, RiTree), String> {
    let data = media.data.copy(&engine.data, "data.db", &format!("data.{tag}.db"))?;
    let wal = media.log.copy(&engine.wal, "wal.db", &format!("wal.{tag}.db"))?;
    // The pool attaches the log and scans it; `Database::open` redoes
    // it. Both are recovery.
    let t = Instant::now();
    let pool = durable_pool(&data, &wal, frames)?;
    let db = Arc::new(Database::open(pool).map_err(err)?);
    let tree = RiTree::open(Arc::clone(&db), TREE).map_err(err)?;
    let secs = t.elapsed().as_secs_f64();
    Ok((secs, Engine { db, data, wal }, tree))
}

/// Drops a recovered database and deletes the device copies
/// [`timed_recovery`] made for it under `tag`.
pub fn discard(media: &Media, engine: Engine, tree: RiTree, tag: &str) -> Result<(), String> {
    drop(tree);
    drop(engine);
    media.data.remove(&format!("data.{tag}.db"))?;
    media.log.remove(&format!("wal.{tag}.db"))
}
