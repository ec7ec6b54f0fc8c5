//! Flight recorder: a lock-free ring of the last N structured events per
//! worker, for post-mortem debugging of faults the aggregate metrics
//! cannot explain.
//!
//! The post-run [`MetricsRegistry`](crate::metrics::MetricsRegistry) and
//! the span [`Recorder`](crate::span::Recorder) answer *"where did the
//! time go"*; neither answers *"what exactly was worker 2 doing in the
//! last milliseconds before the fault"*. The flight recorder does: every
//! worker owns one fixed-capacity ring (a lane) and appends one
//! [`FlightEvent`] per interesting step — row start, ring pop, compute,
//! checkpoint deposit, ring push, prune skip, fault. When the run dies
//! (device fault, panic, abort) or on demand (`--flight-dump`, the
//! `/flight` HTTP endpoint), the rings are dumped as JSONL, newest events
//! last, one object per line.
//!
//! ## Concurrency protocol
//!
//! Each lane is single-writer (its worker) / multi-reader (the dumper, a
//! live HTTP scrape). Slots are written under a per-slot **seqlock**: the
//! writer bumps the slot's sequence to *odd*, writes the payload, then
//! publishes the matching *even* sequence with `Release`. A reader
//! recomputes which even sequence a slot must carry for a given logical
//! index; any mismatch (torn write, concurrent overwrite, never written)
//! makes the reader skip that slot rather than emit garbage. Every field
//! is a relaxed atomic, so a race is at worst a skipped entry — never
//! undefined behaviour, never a lock a faulting worker could die holding.

use std::io::Write as _;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

/// What a [`FlightEvent`] records. Kept deliberately coarse: the point is
/// replaying the *shape* of the last moments, not a full trace (that is
/// what `--trace-out` is for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Worker picked up a new block-row.
    RowStart,
    /// Popped a border column from the predecessor ring.
    RingPop,
    /// Finished computing a tile (aux = tile column).
    Compute,
    /// Deposited a checkpoint wave.
    Checkpoint,
    /// Pushed a border column to the successor ring.
    RingPush,
    /// Skipped a pruned tile (aux = tile column).
    PruneSkip,
    /// The worker observed a fault (its own injected fault or a poisoned
    /// ring from a dead neighbour).
    Fault,
    /// The coordinator migrated block-columns at a checkpoint boundary
    /// (aux = the lane's new slab width in columns; dur_ns = 0).
    Rebalance,
}

impl FlightKind {
    /// Stable wire name used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::RowStart => "row_start",
            FlightKind::RingPop => "ring_pop",
            FlightKind::Compute => "compute",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::RingPush => "ring_push",
            FlightKind::PruneSkip => "prune_skip",
            FlightKind::Fault => "fault",
            FlightKind::Rebalance => "rebalance",
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            FlightKind::RowStart => 0,
            FlightKind::RingPop => 1,
            FlightKind::Compute => 2,
            FlightKind::Checkpoint => 3,
            FlightKind::RingPush => 4,
            FlightKind::PruneSkip => 5,
            FlightKind::Fault => 6,
            FlightKind::Rebalance => 7,
        }
    }

    fn from_u64(v: u64) -> Option<FlightKind> {
        Some(match v {
            0 => FlightKind::RowStart,
            1 => FlightKind::RingPop,
            2 => FlightKind::Compute,
            3 => FlightKind::Checkpoint,
            4 => FlightKind::RingPush,
            5 => FlightKind::PruneSkip,
            6 => FlightKind::Fault,
            7 => FlightKind::Rebalance,
            _ => return None,
        })
    }
}

/// One structured flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub kind: FlightKind,
    /// Device the event happened on.
    pub device: u32,
    /// Block-row the worker was processing.
    pub row: u64,
    /// Nanoseconds since the run epoch (wall or simulated).
    pub t_ns: u64,
    /// Duration of the step in nanoseconds (0 for instantaneous marks).
    pub dur_ns: u64,
    /// Kind-specific payload (tile column, fault code, …).
    pub aux: u64,
}

/// One seqlocked slot. `seq` is 0 while never written, odd while a write
/// is in flight, and `2 * wrap_generation + 2` once logical index
/// `generation * capacity + slot` has been published.
#[derive(Default)]
struct Slot {
    seq: AtomicU64,
    kind: AtomicU64,
    device: AtomicU64,
    row: AtomicU64,
    t_ns: AtomicU64,
    dur_ns: AtomicU64,
    aux: AtomicU64,
}

/// One worker's ring.
struct Lane {
    /// Count of events ever recorded on this lane (logical write index).
    head: AtomicU64,
    slots: Vec<Slot>,
}

/// Fixed-capacity per-worker event rings. Clone the [`Arc`] into each
/// worker; record from the owning worker only, dump from anywhere.
pub struct FlightRecorder {
    lanes: Vec<Lane>,
    /// Power-of-two slots per lane.
    capacity: usize,
}

/// Default events retained per worker lane.
pub const DEFAULT_CAPACITY: usize = 256;

impl FlightRecorder {
    /// A recorder with `lanes` worker lanes of `capacity` events each
    /// (rounded up to a power of two, minimum 2).
    pub fn new(lanes: usize, capacity: usize) -> Arc<FlightRecorder> {
        let capacity = capacity.max(2).next_power_of_two();
        Arc::new(FlightRecorder {
            lanes: (0..lanes)
                .map(|_| Lane {
                    head: AtomicU64::new(0),
                    slots: (0..capacity).map(|_| Slot::default()).collect(),
                })
                .collect(),
            capacity,
        })
    }

    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append `event` to `lane`. Out-of-range lanes are dropped silently —
    /// same contract as [`LiveTelemetry`](crate::live::LiveTelemetry).
    ///
    /// Single-writer per lane: only the worker owning `lane` may call
    /// this. Readers racing a write skip the slot instead of tearing.
    pub fn record(&self, lane: usize, event: FlightEvent) {
        let Some(l) = self.lanes.get(lane) else {
            return;
        };
        let idx = l.head.load(Ordering::Relaxed);
        let slot = &l.slots[(idx as usize) & (self.capacity - 1)];
        let generation = idx / self.capacity as u64;
        // Seqlock write: odd = in flight, even = published.
        slot.seq.store(2 * generation + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.kind.store(event.kind.to_u64(), Ordering::Relaxed);
        slot.device.store(event.device as u64, Ordering::Relaxed);
        slot.row.store(event.row, Ordering::Relaxed);
        slot.t_ns.store(event.t_ns, Ordering::Relaxed);
        slot.dur_ns.store(event.dur_ns, Ordering::Relaxed);
        slot.aux.store(event.aux, Ordering::Relaxed);
        slot.seq.store(2 * generation + 2, Ordering::Release);
        l.head.store(idx + 1, Ordering::Release);
    }

    /// The retained events of `lane`, oldest first. Entries a concurrent
    /// writer is overwriting right now are skipped, not torn.
    pub fn events(&self, lane: usize) -> Vec<FlightEvent> {
        let Some(l) = self.lanes.get(lane) else {
            return Vec::new();
        };
        let head = l.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.capacity as u64);
        let mut out = Vec::with_capacity((head - start) as usize);
        for idx in start..head {
            let slot = &l.slots[(idx as usize) & (self.capacity - 1)];
            let expect = 2 * (idx / self.capacity as u64) + 2;
            if slot.seq.load(Ordering::Acquire) != expect {
                continue; // torn or already lapped by the writer
            }
            let kind = slot.kind.load(Ordering::Relaxed);
            let event = FlightEvent {
                kind: match FlightKind::from_u64(kind) {
                    Some(k) => k,
                    None => continue,
                },
                device: slot.device.load(Ordering::Relaxed) as u32,
                row: slot.row.load(Ordering::Relaxed),
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                dur_ns: slot.dur_ns.load(Ordering::Relaxed),
                aux: slot.aux.load(Ordering::Relaxed),
            };
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != expect {
                continue; // overwritten while we were reading
            }
            out.push(event);
        }
        out
    }

    /// All lanes as JSONL: one JSON object per event, lanes in order,
    /// oldest events first within a lane. Each line parses with
    /// [`crate::json::parse`].
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for lane in 0..self.lanes.len() {
            for e in self.events(lane) {
                out.push_str(&format!(
                    concat!(
                        "{{\"lane\": {}, \"kind\": \"{}\", \"device\": {}, ",
                        "\"row\": {}, \"t_ns\": {}, \"dur_ns\": {}, \"aux\": {}}}\n"
                    ),
                    lane,
                    e.kind.as_str(),
                    e.device,
                    e.row,
                    e.t_ns,
                    e.dur_ns,
                    e.aux
                ));
            }
        }
        out
    }

    /// Write the JSONL dump to `path`.
    pub fn dump_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.dump_jsonl().as_bytes())?;
        f.flush()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("lanes", &self.lanes.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn ev(kind: FlightKind, row: u64) -> FlightEvent {
        FlightEvent {
            kind,
            device: 1,
            row,
            t_ns: row * 10,
            dur_ns: 3,
            aux: 7,
        }
    }

    #[test]
    fn records_in_order_and_wraps_to_the_last_n() {
        let fr = FlightRecorder::new(1, 4);
        assert_eq!(fr.capacity(), 4);
        for row in 0..10 {
            fr.record(0, ev(FlightKind::Compute, row));
        }
        let events: Vec<u64> = fr.events(0).iter().map(|e| e.row).collect();
        assert_eq!(events, vec![6, 7, 8, 9]);
    }

    #[test]
    fn lanes_are_independent_and_out_of_range_is_dropped() {
        let fr = FlightRecorder::new(2, 8);
        fr.record(0, ev(FlightKind::RingPop, 1));
        fr.record(1, ev(FlightKind::RingPush, 2));
        fr.record(5, ev(FlightKind::Fault, 3)); // no lane 5: dropped
        assert_eq!(fr.events(0).len(), 1);
        assert_eq!(fr.events(1).len(), 1);
        assert_eq!(fr.events(0)[0].kind, FlightKind::RingPop);
        assert_eq!(fr.events(1)[0].kind, FlightKind::RingPush);
        assert!(fr.events(5).is_empty());
    }

    #[test]
    fn dump_is_valid_jsonl_with_all_fields() {
        let fr = FlightRecorder::new(2, 8);
        fr.record(0, ev(FlightKind::RowStart, 4));
        fr.record(1, ev(FlightKind::Fault, 9));
        let dump = fr.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = json::parse(line).expect("each dump line is valid JSON");
            for key in ["lane", "kind", "device", "row", "t_ns", "dur_ns", "aux"] {
                assert!(v.get(key).is_some(), "missing {key} in {line}");
            }
        }
        let fault = json::parse(lines[1]).unwrap();
        assert_eq!(fault.get("kind").unwrap().as_str(), Some("fault"));
        assert_eq!(fault.get("lane").unwrap().as_f64(), Some(1.0));
        assert_eq!(fault.get("row").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn dump_to_writes_the_file() {
        let fr = FlightRecorder::new(1, 4);
        fr.record(0, ev(FlightKind::Checkpoint, 2));
        let path =
            std::env::temp_dir().join(format!("megasw-flight-test-{}.jsonl", std::process::id()));
        fr.dump_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"checkpoint\""));
    }

    #[test]
    fn concurrent_reads_never_observe_torn_events() {
        // One writer hammers a tiny ring while a reader scrapes it; every
        // event the reader sees must be internally consistent (we encode
        // the row into every payload field so a tear is detectable).
        let fr = FlightRecorder::new(1, 4);
        let fr2 = Arc::clone(&fr);
        let writer = std::thread::spawn(move || {
            for row in 0..20_000u64 {
                fr2.record(
                    0,
                    FlightEvent {
                        kind: FlightKind::Compute,
                        device: (row % 7) as u32,
                        row,
                        t_ns: row,
                        dur_ns: row,
                        aux: row,
                    },
                );
            }
        });
        // Start handshake: the reader may be scheduled long before the
        // writer, so wait for the first publish. The ring never empties
        // afterwards, so every scrape below has events to check.
        while fr.events(0).is_empty() {
            std::thread::yield_now();
        }
        let mut seen = 0usize;
        for _ in 0..2_000 {
            for e in fr.events(0) {
                seen += 1;
                assert_eq!(e.t_ns, e.row, "torn event: {e:?}");
                assert_eq!(e.dur_ns, e.row, "torn event: {e:?}");
                assert_eq!(e.aux, e.row, "torn event: {e:?}");
                assert_eq!(e.device as u64, e.row % 7, "torn event: {e:?}");
            }
        }
        writer.join().unwrap();
        assert!(seen > 0, "reader never saw a single stable event");
        // After the writer quiesces the full ring is readable.
        assert_eq!(fr.events(0).len(), 4);
    }
}
