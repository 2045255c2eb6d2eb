//! A [`DiskManager`] wrapper that times every call it forwards.
//!
//! The wrapper changes nothing about the device: each call goes through
//! to the wrapped disk with the same arguments, and its result comes back
//! unchanged. On the way it counts calls, bytes and nanoseconds, and on a
//! traced thread it records the call as a span under the open one.

use crate::trace::{self, Layer};
use ri_tree::pagestore::{DiskManager, PageId, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Running totals of one device, shared between the wrapper (which the
/// buffer pool owns) and the benchmark (which reads them).
#[derive(Debug, Default)]
pub struct DeviceCounters {
    reads: AtomicU64,
    read_ns: AtomicU64,
    writes: AtomicU64,
    write_ns: AtomicU64,
    write_bytes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
}

/// A point-in-time copy of [`DeviceCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    /// Pages read.
    pub reads: u64,
    /// Time spent in reads.
    pub read_ns: u64,
    /// Pages written, page allocations included.
    pub writes: u64,
    /// Time spent in writes and allocations.
    pub write_ns: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Syncs.
    pub syncs: u64,
    /// Time spent in syncs.
    pub sync_ns: u64,
}

impl DeviceSnapshot {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            reads: self.reads - earlier.reads,
            read_ns: self.read_ns - earlier.read_ns,
            writes: self.writes - earlier.writes,
            write_ns: self.write_ns - earlier.write_ns,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
        }
    }

    /// Adds the counts of another interval.
    pub fn add(&mut self, o: &DeviceSnapshot) {
        self.reads += o.reads;
        self.read_ns += o.read_ns;
        self.writes += o.writes;
        self.write_ns += o.write_ns;
        self.write_bytes += o.write_bytes;
        self.syncs += o.syncs;
        self.sync_ns += o.sync_ns;
    }
}

impl DeviceCounters {
    /// Current totals. Each counter is read separately; take snapshots
    /// while the device is quiet when the counters must agree exactly.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DeviceSnapshot {
            reads: get(&self.reads),
            read_ns: get(&self.read_ns),
            writes: get(&self.writes),
            write_ns: get(&self.write_ns),
            write_bytes: get(&self.write_bytes),
            syncs: get(&self.syncs),
            sync_ns: get(&self.sync_ns),
        }
    }
}

fn add(counter: &AtomicU64, v: u64) {
    counter.fetch_add(v, Ordering::Relaxed);
}

/// Forwards every call to `inner`, timing it.
pub struct TimedDisk<D> {
    inner: D,
    layer: Layer,
    counters: Arc<DeviceCounters>,
}

impl<D: DiskManager> TimedDisk<D> {
    /// Wraps `inner`; its calls are charged to `layer` in traces.
    pub fn new(inner: D, layer: Layer) -> TimedDisk<D> {
        TimedDisk { inner, layer, counters: Arc::default() }
    }

    /// The totals, readable while the pool owns the wrapper.
    pub fn counters(&self) -> Arc<DeviceCounters> {
        Arc::clone(&self.counters)
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The layer this device's calls are charged to.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    fn timed<T>(
        &self,
        name: &'static str,
        count: &AtomicU64,
        ns: &AtomicU64,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = call();
        let dur = start.elapsed();
        add(count, 1);
        add(ns, dur.as_nanos() as u64);
        trace::device(self.layer, name, start, dur);
        out
    }
}

impl<D: DiskManager> DiskManager for TimedDisk<D> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let c = &self.counters;
        self.timed("device.read", &c.reads, &c.read_ns, || self.inner.read_page(id, buf))
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let c = &self.counters;
        add(&c.write_bytes, buf.len() as u64);
        self.timed("device.write", &c.writes, &c.write_ns, || self.inner.write_page(id, buf))
    }

    fn allocate_page(&self) -> Result<PageId> {
        let c = &self.counters;
        add(&c.write_bytes, self.inner.page_size() as u64);
        self.timed("device.allocate", &c.writes, &c.write_ns, || self.inner.allocate_page())
    }

    fn sync(&self) -> Result<()> {
        let c = &self.counters;
        self.timed("device.sync", &c.syncs, &c.sync_ns, || self.inner.sync())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ri_tree::pagestore::{FileDisk, MemDisk};

    /// Drives the same call sequence into a bare device and a wrapped
    /// one; every result and every byte read back must match.
    fn same_as_bare(bare: &dyn DiskManager, wrapped: &dyn DiskManager) {
        let ps = bare.page_size();
        assert_eq!(wrapped.page_size(), ps);
        for _ in 0..5 {
            assert_eq!(bare.allocate_page().unwrap(), wrapped.allocate_page().unwrap());
        }
        assert_eq!(bare.num_pages(), wrapped.num_pages());
        for p in 0..5u64 {
            let page: Vec<u8> = (0..ps).map(|i| (i as u64 * 31 + p * 7) as u8).collect();
            bare.write_page(PageId(p), &page).unwrap();
            wrapped.write_page(PageId(p), &page).unwrap();
        }
        bare.sync().unwrap();
        wrapped.sync().unwrap();
        for p in 0..5u64 {
            let (mut a, mut b) = (vec![0u8; ps], vec![1u8; ps]);
            bare.read_page(PageId(p), &mut a).unwrap();
            wrapped.read_page(PageId(p), &mut b).unwrap();
            assert_eq!(a, b, "page {p} differs");
        }
        // Errors pass through unchanged too.
        let mut buf = vec![0u8; ps];
        let e1 = bare.read_page(PageId(99), &mut buf).unwrap_err().to_string();
        let e2 = wrapped.read_page(PageId(99), &mut buf).unwrap_err().to_string();
        assert_eq!(e1, e2);
        assert!(wrapped.write_page(PageId(99), &buf).is_err());
    }

    #[test]
    fn mem_disk_reads_and_writes_exactly_as_bare() {
        let wrapped = TimedDisk::new(MemDisk::new(256), Layer::Pagestore);
        same_as_bare(&MemDisk::new(256), &wrapped);
        let snap = wrapped.counters().snapshot();
        // 5 allocations + 5 writes + 1 failed write; 5 reads + 1 failed read.
        assert_eq!(snap.writes, 11);
        assert_eq!(snap.write_bytes, 11 * 256);
        assert_eq!(snap.reads, 6);
        assert_eq!(snap.syncs, 1);
    }

    #[test]
    fn file_disk_bytes_on_disk_match_bare() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.perfbench-work/timed-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("bare"), dir.join("wrapped"));
        {
            let bare = FileDisk::open(&a, 128).unwrap();
            let wrapped = TimedDisk::new(FileDisk::open(&b, 128).unwrap(), Layer::Wal);
            same_as_bare(&bare, &wrapped);
        }
        let (fa, fb) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(fa.len(), 5 * 128);
        assert_eq!(fa, fb);
    }
}
