//! Counter snapshots taken around a phase, from every layer's own
//! statistics plus the timed devices.

use crate::engine::Engine;
use crate::timed_disk::DeviceSnapshot;
use ri_tree::pagestore::{IoSnapshot, LatchSnapshot, MissSnapshot, WalSnapshot};

/// Every counter the per-layer metrics are computed from.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Buffer pool page requests.
    pub io: IoSnapshot,
    /// Buffer pool miss handling.
    pub miss: MissSnapshot,
    /// B-link latch and structure-modification counters.
    pub latch: LatchSnapshot,
    /// Log records, commits and syncs.
    pub wal: WalSnapshot,
    /// Data device.
    pub data: DeviceSnapshot,
    /// Log device.
    pub log: DeviceSnapshot,
}

/// The change of a [`Probe`] over a phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Delta {
    /// Buffer pool page requests.
    pub io: IoSnapshot,
    /// Buffer pool miss handling.
    pub miss: MissSnapshot,
    /// B-link latch and structure-modification counters.
    pub latch: LatchSnapshot,
    /// Log record bytes.
    pub wal_record_bytes: u64,
    /// Data device.
    pub data: DeviceSnapshot,
    /// Log device.
    pub log: DeviceSnapshot,
}

impl Probe {
    /// Snapshots every counter of `engine`.
    pub fn take(engine: &Engine) -> Probe {
        let pool = engine.db.pool();
        Probe {
            io: pool.stats().snapshot(),
            miss: pool.stats().miss_snapshot(),
            latch: pool.latches().stats(),
            wal: pool.wal().expect("every workload runs a durable pool").stats(),
            data: engine.data_io().snapshot(),
            log: engine.wal_io().snapshot(),
        }
    }

    /// The change from `earlier` to `self`.
    pub fn since(&self, earlier: &Probe) -> Delta {
        Delta {
            io: self.io.since(&earlier.io),
            miss: self.miss.since(&earlier.miss),
            latch: self.latch.since(&earlier.latch),
            wal_record_bytes: self.wal.record_bytes - earlier.wal.record_bytes,
            data: self.data.since(&earlier.data),
            log: self.log.since(&earlier.log),
        }
    }
}

impl Delta {
    /// Adds the change over another phase.
    pub fn add(&mut self, o: &Delta) {
        self.io.accumulate(&o.io);
        self.miss.accumulate(&o.miss);
        let (l, m) = (&mut self.latch, &o.latch);
        l.page_shared += m.page_shared;
        l.page_exclusive += m.page_exclusive;
        l.splits += m.splits;
        l.right_link_chases += m.right_link_chases;
        l.incomplete_smo_completions += m.incomplete_smo_completions;
        l.pending_root_grow_waits += m.pending_root_grow_waits;
        self.wal_record_bytes += o.wal_record_bytes;
        self.data.add(&o.data);
        self.log.add(&o.log);
    }
}
