//! In-flight run telemetry: lock-free live counters plus a sampler.
//!
//! PR 1's observability is entirely post-hoc — the metrics registry is
//! built after the workers have joined — so a multi-hour megabase run is a
//! black box while it executes. [`LiveTelemetry`] closes that gap: the
//! pipeline workers bump **relaxed atomic counters** (cells computed,
//! block-rows done, outgoing-ring occupancy, kernel busy time) once per
//! block-row, and anyone holding a clone of the handle can take a
//! consistent-enough [`LiveSnapshot`] at any moment without stopping the
//! run. A [`ProgressSampler`] thread does exactly that at a configurable
//! interval and renders the `--progress` TTY line.
//!
//! Why atomics here when the post-run [`MetricsRegistry`]
//! (`crate::metrics`) needs no locking at all: the registry is built *once*
//! from data the run has already finished producing, so it is lock-free by
//! construction; live counters are written by N worker threads while being
//! read by the sampler, which is only safe through atomic operations.
//! Relaxed ordering suffices — every counter is a monotone statistic, and a
//! sampler that observes `rows_done` one row stale renders a progress line
//! that is one row stale, nothing worse.
//!
//! The discrete-event twin drives the same handle with **simulated time**:
//! construct with [`LiveTelemetry::with_manual_clock`] and advance via
//! [`LiveTelemetry::set_now_ns`] at simulated-time boundaries; GCUPS then
//! reads in simulated seconds, exactly like the rest of the DES reporting.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-device live counters. All relaxed atomics; see the module docs.
#[derive(Debug, Default)]
struct DeviceLive {
    /// DP cells computed so far.
    cells: AtomicU64,
    /// Block-rows finished so far.
    rows_done: AtomicU64,
    /// Block-rows this device will compute in total.
    rows_total: AtomicU64,
    /// Nanoseconds spent inside kernels so far.
    busy_ns: AtomicU64,
    /// Current occupancy of the device's *outgoing* border ring.
    ring_occupancy: AtomicU64,
    /// Pruning watermark this device currently holds (monotone; only
    /// written when the run prunes).
    watermark: AtomicI64,
    /// Tiles this device has skipped via the pruning bound so far.
    tiles_pruned: AtomicU64,
    /// DP cells covered by the skipped tiles.
    cells_skipped: AtomicU64,
    /// Nanoseconds blocked on the predecessor's border ring (`pop`).
    wait_input_ns: AtomicU64,
    /// Nanoseconds blocked on the successor's border ring (`push`).
    wait_output_ns: AtomicU64,
    /// Nanoseconds spent depositing checkpoint waves.
    checkpoint_ns: AtomicU64,
    /// Nanoseconds spent inside the prune-skip fast path.
    prune_skip_ns: AtomicU64,
}

/// How the telemetry measures "now".
#[derive(Debug)]
enum Clock {
    /// Wall clock, anchored at handle creation (threaded backend).
    Wall(Instant),
    /// Externally driven nanoseconds (DES backend: simulated time).
    Manual(AtomicU64),
}

/// Shared, lock-free in-flight counters for one run.
///
/// Clone the [`Arc`] freely: workers write, samplers read, nobody blocks.
#[derive(Debug)]
pub struct LiveTelemetry {
    total_cells: u64,
    devices: Vec<DeviceLive>,
    clock: Clock,
    /// Run-level count of completed recoveries (device blacklisted,
    /// columns repartitioned, pipeline resumed from a checkpoint wave).
    recoveries: AtomicU64,
    /// Set the first time any worker reports a pruning update; gates the
    /// pruning segment of the progress line so pruning-free runs pay no
    /// visual noise.
    pruning_active: AtomicBool,
    /// Completed pairs in a many-pair batch run (0 for single-pair runs,
    /// which never call [`LiveTelemetry::on_pair_done`]).
    pairs_done: AtomicU64,
    /// Total pairs a batch run will align; gates the pair segment of the
    /// progress line the same way `pruning_active` gates pruning.
    pairs_total: AtomicU64,
}

/// One device's portion of a [`LiveSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSnapshot {
    pub cells: u64,
    pub rows_done: u64,
    pub rows_total: u64,
    pub busy_ns: u64,
    pub ring_occupancy: u64,
    /// Pruning watermark this device held at the snapshot (0 when the run
    /// does not prune).
    pub watermark: i64,
    /// Tiles skipped so far via the pruning bound.
    pub tiles_pruned: u64,
    /// DP cells covered by skipped tiles.
    pub cells_skipped: u64,
    /// Nanoseconds blocked on the incoming border ring so far.
    pub wait_input_ns: u64,
    /// Nanoseconds blocked on the outgoing border ring so far.
    pub wait_output_ns: u64,
    /// Nanoseconds spent depositing checkpoints so far.
    pub checkpoint_ns: u64,
    /// Nanoseconds spent in the prune-skip fast path so far.
    pub prune_skip_ns: u64,
}

impl DeviceSnapshot {
    /// Fraction of this device's own slab finished, in `[0, 1]`.
    pub fn fraction_done(&self) -> f64 {
        if self.rows_total == 0 {
            1.0
        } else {
            self.rows_done as f64 / self.rows_total as f64
        }
    }

    /// Total attributed non-compute nanoseconds so far.
    pub fn stall_ns(&self) -> u64 {
        self.wait_input_ns + self.wait_output_ns + self.checkpoint_ns + self.prune_skip_ns
    }

    /// The stall phase this device has spent the most time in so far, as a
    /// short label plus its nanoseconds — `None` until any stall time has
    /// been attributed. Drives the `--progress` per-device stall column.
    pub fn dominant_stall(&self) -> Option<(&'static str, u64)> {
        let phases = [
            ("in", self.wait_input_ns),
            ("out", self.wait_output_ns),
            ("ckpt", self.checkpoint_ns),
            ("prune", self.prune_skip_ns),
        ];
        phases
            .into_iter()
            .filter(|&(_, ns)| ns > 0)
            .max_by_key(|&(_, ns)| ns)
    }
}

/// A point-in-time view of a run's live counters.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Nanoseconds since the run epoch (wall or simulated).
    pub now_ns: u64,
    /// Total DP cells the run will compute.
    pub total_cells: u64,
    /// Recoveries completed so far (0 for a fault-free run).
    pub recoveries: u64,
    /// True once any worker reported a pruning update this run.
    pub pruning: bool,
    /// Pairs finished so far in a batch run (0 outside batch mode).
    pub pairs_done: u64,
    /// Pairs the batch run will align in total (0 outside batch mode;
    /// gates the `pairs` segment of the progress line).
    pub pairs_total: u64,
    pub devices: Vec<DeviceSnapshot>,
}

impl LiveSnapshot {
    /// Cells computed so far, across all devices.
    pub fn cells_done(&self) -> u64 {
        self.devices.iter().map(|d| d.cells).sum()
    }

    /// Tiles pruned so far, across all devices.
    pub fn tiles_pruned(&self) -> u64 {
        self.devices.iter().map(|d| d.tiles_pruned).sum()
    }

    /// DP cells skipped so far, across all devices.
    pub fn cells_skipped(&self) -> u64 {
        self.devices.iter().map(|d| d.cells_skipped).sum()
    }

    /// Overall fraction done, in `[0, 1]`.
    pub fn fraction_done(&self) -> f64 {
        if self.total_cells == 0 {
            1.0
        } else {
            (self.cells_done() as f64 / self.total_cells as f64).min(1.0)
        }
    }

    /// Cumulative GCUPS since the run epoch.
    pub fn gcups_cumulative(&self) -> f64 {
        gcups(self.cells_done(), self.now_ns)
    }

    /// Instantaneous GCUPS over the window since `prev` (cumulative GCUPS
    /// when no previous snapshot exists or time has not advanced).
    pub fn gcups_since(&self, prev: Option<&LiveSnapshot>) -> f64 {
        match prev {
            Some(p) if self.now_ns > p.now_ns => gcups(
                self.cells_done().saturating_sub(p.cells_done()),
                self.now_ns - p.now_ns,
            ),
            _ => self.gcups_cumulative(),
        }
    }

    /// Per-device progress imbalance: the spread (max − min) of
    /// `fraction_done` across devices that have work assigned
    /// (`rows_total > 0`), in `[0, 1]`. Zero when fewer than two devices
    /// participate. A wavefront pipeline in steady state keeps this near
    /// `1 / rows_total` per chain hop; a badly partitioned run lets it
    /// grow.
    pub fn imbalance(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut active = 0usize;
        for d in &self.devices {
            if d.rows_total == 0 {
                continue;
            }
            active += 1;
            let f = d.fraction_done();
            lo = lo.min(f);
            hi = hi.max(f);
        }
        if active < 2 {
            0.0
        } else {
            (hi - lo).max(0.0)
        }
    }
}

fn gcups(cells: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        cells as f64 / ns as f64 // cells/ns == giga-cells/s
    }
}

impl LiveTelemetry {
    /// Wall-clock telemetry for a run of `total_cells` over `num_devices`
    /// devices. The epoch is "now".
    pub fn new(num_devices: usize, total_cells: u64) -> Arc<LiveTelemetry> {
        Arc::new(LiveTelemetry {
            total_cells,
            devices: (0..num_devices).map(|_| DeviceLive::default()).collect(),
            clock: Clock::Wall(Instant::now()),
            recoveries: AtomicU64::new(0),
            pruning_active: AtomicBool::new(false),
            pairs_done: AtomicU64::new(0),
            pairs_total: AtomicU64::new(0),
        })
    }

    /// Simulated-time telemetry: "now" is whatever the last
    /// [`LiveTelemetry::set_now_ns`] said (starts at 0).
    pub fn with_manual_clock(num_devices: usize, total_cells: u64) -> Arc<LiveTelemetry> {
        Arc::new(LiveTelemetry {
            total_cells,
            devices: (0..num_devices).map(|_| DeviceLive::default()).collect(),
            clock: Clock::Manual(AtomicU64::new(0)),
            recoveries: AtomicU64::new(0),
            pruning_active: AtomicBool::new(false),
            pairs_done: AtomicU64::new(0),
            pairs_total: AtomicU64::new(0),
        })
    }

    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    pub fn total_cells(&self) -> u64 {
        self.total_cells
    }

    /// Nanoseconds since the run epoch on this handle's clock.
    pub fn now_ns(&self) -> u64 {
        match &self.clock {
            Clock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
            Clock::Manual(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Advance a manual (simulated-time) clock; monotone, so a stale writer
    /// cannot move time backwards. No-op on wall clocks.
    pub fn set_now_ns(&self, now_ns: u64) {
        if let Clock::Manual(ns) = &self.clock {
            ns.fetch_max(now_ns, Ordering::Relaxed);
        }
    }

    /// Declare how many block-rows device `device` will compute.
    pub fn set_rows_total(&self, device: usize, rows: u64) {
        if let Some(d) = self.devices.get(device) {
            d.rows_total.store(rows, Ordering::Relaxed);
        }
    }

    /// One finished block-row on `device`: `cells` more DP cells, `busy_ns`
    /// more kernel time. The single per-row write the workers pay.
    pub fn on_row_done(&self, device: usize, cells: u64, busy_ns: u64) {
        self.bump(device, |d| &d.cells, cells);
        self.bump(device, |d| &d.rows_done, 1);
        self.bump(device, |d| &d.busy_ns, busy_ns);
    }

    /// A gauge the device's outgoing ring keeps at its current occupancy
    /// (see `CircularBuffer::attach_occupancy_gauge` in `megasw-multigpu`).
    pub fn ring_gauge(self: &Arc<Self>, device: usize) -> Option<RingGauge> {
        if device < self.devices.len() {
            Some(RingGauge {
                live: Arc::clone(self),
                device,
            })
        } else {
            None
        }
    }

    /// Add `n` to one of `device`'s counters (dropped for out-of-range
    /// devices, like every other write).
    fn bump(&self, device: usize, counter: impl Fn(&DeviceLive) -> &AtomicU64, n: u64) {
        if let Some(d) = self.devices.get(device) {
            counter(d).fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `ns` more nanoseconds `device` spent blocked on (or, in the DES,
    /// idle waiting for) its predecessor's border.
    pub fn on_wait_input_ns(&self, device: usize, ns: u64) {
        self.bump(device, |d| &d.wait_input_ns, ns);
    }

    /// `ns` more nanoseconds `device` spent blocked pushing its border.
    pub fn on_wait_output_ns(&self, device: usize, ns: u64) {
        self.bump(device, |d| &d.wait_output_ns, ns);
    }

    /// `ns` more nanoseconds `device` spent depositing checkpoint waves.
    pub fn on_checkpoint_ns(&self, device: usize, ns: u64) {
        self.bump(device, |d| &d.checkpoint_ns, ns);
    }

    /// `device` skipped `tiles` more tiles covering `cells` DP cells, in
    /// `ns` nanoseconds of the prune-skip fast path.
    pub fn on_prune_skip(&self, device: usize, tiles: u64, cells: u64, ns: u64) {
        self.pruning_active.store(true, Ordering::Relaxed);
        self.bump(device, |d| &d.tiles_pruned, tiles);
        self.bump(device, |d| &d.cells_skipped, cells);
        self.bump(device, |d| &d.prune_skip_ns, ns);
    }

    /// `device`'s current pruning watermark. The gauge uses `fetch_max`,
    /// so it stays monotone even under races between a worker and a stale
    /// resumed attempt.
    pub fn on_watermark(&self, device: usize, watermark: i32) {
        self.pruning_active.store(true, Ordering::Relaxed);
        if let Some(d) = self.devices.get(device) {
            d.watermark.fetch_max(watermark as i64, Ordering::Relaxed);
        }
    }

    /// One completed recovery: a device was blacklisted and the run
    /// resumed on the survivors.
    pub fn on_recovery(&self) {
        self.recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Declare how many pairs a batch run will align. Turning this on (any
    /// nonzero total) adds the `pairs` segment to the progress line.
    pub fn set_pairs_total(&self, pairs: u64) {
        self.pairs_total.store(pairs, Ordering::Relaxed);
    }

    /// One finished pair in a batch run.
    pub fn on_pair_done(&self) {
        self.pairs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters, read without blocking any worker.
    pub fn snapshot(&self) -> LiveSnapshot {
        LiveSnapshot {
            now_ns: self.now_ns(),
            total_cells: self.total_cells,
            recoveries: self.recoveries.load(Ordering::Relaxed),
            pruning: self.pruning_active.load(Ordering::Relaxed),
            pairs_done: self.pairs_done.load(Ordering::Relaxed),
            pairs_total: self.pairs_total.load(Ordering::Relaxed),
            devices: self
                .devices
                .iter()
                .map(|d| DeviceSnapshot {
                    cells: d.cells.load(Ordering::Relaxed),
                    rows_done: d.rows_done.load(Ordering::Relaxed),
                    rows_total: d.rows_total.load(Ordering::Relaxed),
                    busy_ns: d.busy_ns.load(Ordering::Relaxed),
                    ring_occupancy: d.ring_occupancy.load(Ordering::Relaxed),
                    watermark: d.watermark.load(Ordering::Relaxed),
                    tiles_pruned: d.tiles_pruned.load(Ordering::Relaxed),
                    cells_skipped: d.cells_skipped.load(Ordering::Relaxed),
                    wait_input_ns: d.wait_input_ns.load(Ordering::Relaxed),
                    wait_output_ns: d.wait_output_ns.load(Ordering::Relaxed),
                    checkpoint_ns: d.checkpoint_ns.load(Ordering::Relaxed),
                    prune_skip_ns: d.prune_skip_ns.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Write handle for one device's ring-occupancy gauge.
#[derive(Debug, Clone)]
pub struct RingGauge {
    live: Arc<LiveTelemetry>,
    device: usize,
}

impl RingGauge {
    /// Set the gauge to the ring's current occupancy.
    pub fn set(&self, occupancy: usize) {
        if let Some(d) = self.live.devices.get(self.device) {
            d.ring_occupancy.store(occupancy as u64, Ordering::Relaxed);
        }
    }
}

/// Render one progress line from a snapshot (and the previous one, for the
/// instantaneous rate). Pure, so the TTY plumbing stays trivial to test.
///
/// Anatomy: `overall% | instantaneous GCUPS | cumulative GCUPS | imbalance
/// | per-device slab progress`.
pub fn render_progress_line(cur: &LiveSnapshot, prev: Option<&LiveSnapshot>) -> String {
    let mut line = format!(
        "{:5.1}% | {:7.3} GCUPS now | {:7.3} GCUPS avg | imbalance {:4.1}%",
        100.0 * cur.fraction_done(),
        cur.gcups_since(prev),
        cur.gcups_cumulative(),
        100.0 * cur.imbalance(),
    );
    if cur.pairs_total > 0 {
        line.push_str(&format!(" | pairs {}/{}", cur.pairs_done, cur.pairs_total));
    }
    if cur.recoveries > 0 {
        line.push_str(&format!(" | rec {}", cur.recoveries));
    }
    if cur.pruning {
        line.push_str(&format!(" | pruned {}", cur.tiles_pruned()));
    }
    for (i, d) in cur.devices.iter().enumerate() {
        line.push_str(&format!(
            " | d{i} {:3.0}% occ {}",
            100.0 * d.fraction_done(),
            d.ring_occupancy
        ));
        // Per-device stall column: dominant stall phase and its share of
        // the elapsed wall clock (omitted until any stall is attributed).
        if let Some((label, ns)) = d.dominant_stall() {
            let pct = if cur.now_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / cur.now_ns as f64
            };
            line.push_str(&format!(" st:{label} {pct:2.0}%"));
        }
    }
    line
}

/// A background thread that snapshots a [`LiveTelemetry`] at a fixed
/// interval and hands each (previous, current) pair to a sink — the CLI's
/// sink writes the `--progress` line to stderr.
pub struct ProgressSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressSampler {
    /// Start sampling `live` every `interval`, feeding `sink`. The sink
    /// also runs once on shutdown with the final snapshot, so a finished
    /// run always reports 100%.
    pub fn spawn(
        live: Arc<LiveTelemetry>,
        interval: Duration,
        mut sink: impl FnMut(&LiveSnapshot, Option<&LiveSnapshot>) + Send + 'static,
    ) -> ProgressSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut prev: Option<LiveSnapshot> = None;
            while !stop2.load(Ordering::Relaxed) {
                let cur = live.snapshot();
                sink(&cur, prev.as_ref());
                prev = Some(cur);
                // Sleep in small slices so stop() returns promptly even at
                // long sampling intervals.
                let mut remaining = interval;
                while !stop2.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                    let slice = remaining.min(Duration::from_millis(20));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
            let cur = live.snapshot();
            sink(&cur, prev.as_ref());
        });
        ProgressSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the sampler and wait for its final sample.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressSampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let live = LiveTelemetry::new(2, 1_000);
        live.set_rows_total(0, 10);
        live.set_rows_total(1, 10);
        live.on_row_done(0, 100, 5);
        live.on_row_done(0, 100, 5);
        live.on_row_done(1, 50, 2);
        let s = live.snapshot();
        assert_eq!(s.cells_done(), 250);
        assert_eq!(s.devices[0].rows_done, 2);
        assert_eq!(s.devices[0].busy_ns, 10);
        assert_eq!(s.devices[1].cells, 50);
        assert!((s.fraction_done() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_device_is_ignored() {
        let live = LiveTelemetry::new(1, 100);
        live.on_row_done(7, 100, 1); // silently dropped
        assert_eq!(live.snapshot().cells_done(), 0);
        assert!(live.ring_gauge(7).is_none());
    }

    #[test]
    fn manual_clock_drives_simulated_gcups() {
        let live = LiveTelemetry::with_manual_clock(1, 4_000);
        live.set_rows_total(0, 4);
        live.on_row_done(0, 2_000, 1_000);
        live.set_now_ns(1_000);
        let s = live.snapshot();
        assert_eq!(s.now_ns, 1_000);
        // 2000 cells in 1000 ns = 2 giga-cells/s.
        assert!((s.gcups_cumulative() - 2.0).abs() < 1e-12);
        // Clock is monotone: stale writers cannot rewind it.
        live.set_now_ns(500);
        assert_eq!(live.snapshot().now_ns, 1_000);
    }

    #[test]
    fn instantaneous_rate_uses_the_window() {
        let live = LiveTelemetry::with_manual_clock(1, 10_000);
        live.on_row_done(0, 1_000, 0);
        live.set_now_ns(1_000);
        let first = live.snapshot();
        live.on_row_done(0, 3_000, 0);
        live.set_now_ns(2_000);
        let second = live.snapshot();
        // Window: 3000 cells over 1000 ns = 3.0; cumulative: 4000/2000 = 2.0.
        assert!((second.gcups_since(Some(&first)) - 3.0).abs() < 1e-12);
        assert!((second.gcups_cumulative() - 2.0).abs() < 1e-12);
        // Degenerate window falls back to cumulative.
        assert_eq!(second.gcups_since(Some(&second)), second.gcups_cumulative());
    }

    #[test]
    fn imbalance_is_the_progress_spread() {
        let live = LiveTelemetry::new(3, 300);
        for (d, rows) in [(0usize, 10u64), (1, 10), (2, 10)] {
            live.set_rows_total(d, rows);
        }
        for _ in 0..8 {
            live.on_row_done(0, 10, 1);
        }
        for _ in 0..6 {
            live.on_row_done(1, 10, 1);
        }
        for _ in 0..5 {
            live.on_row_done(2, 10, 1);
        }
        let s = live.snapshot();
        assert!((s.imbalance() - 0.3).abs() < 1e-12);
        // Single-device runs have no imbalance by definition.
        let solo = LiveTelemetry::new(1, 100);
        solo.set_rows_total(0, 4);
        solo.on_row_done(0, 25, 1);
        assert_eq!(solo.snapshot().imbalance(), 0.0);
    }

    #[test]
    fn ring_gauge_tracks_occupancy() {
        let live = LiveTelemetry::new(2, 100);
        let gauge = live.ring_gauge(0).unwrap();
        gauge.set(3);
        assert_eq!(live.snapshot().devices[0].ring_occupancy, 3);
        gauge.set(0);
        assert_eq!(live.snapshot().devices[0].ring_occupancy, 0);
    }

    #[test]
    fn progress_line_contains_the_advertised_fields() {
        let live = LiveTelemetry::with_manual_clock(2, 1_000);
        live.set_rows_total(0, 2);
        live.set_rows_total(1, 2);
        live.on_row_done(0, 400, 10);
        live.on_row_done(1, 100, 10);
        live.set_now_ns(1_000);
        let s = live.snapshot();
        let line = render_progress_line(&s, None);
        assert!(line.contains("50.0%"), "{line}");
        assert!(line.contains("GCUPS now"), "{line}");
        assert!(line.contains("GCUPS avg"), "{line}");
        assert!(line.contains("imbalance"), "{line}");
        assert!(line.contains("d0"), "{line}");
        assert!(line.contains("d1"), "{line}");
        // Fault-free runs do not pay a recovery column…
        assert!(!line.contains("rec"), "{line}");
        // …but a recovered run surfaces the count.
        live.on_recovery();
        live.on_recovery();
        let s = live.snapshot();
        assert_eq!(s.recoveries, 2);
        let line = render_progress_line(&s, None);
        assert!(line.contains("| rec 2"), "{line}");
    }

    #[test]
    fn prune_updates_gate_the_progress_segment_and_stay_monotone() {
        let live = LiveTelemetry::new(2, 1_000);
        // Pruning-free snapshots render no pruning segment.
        let s = live.snapshot();
        assert!(!s.pruning);
        assert!(!render_progress_line(&s, None).contains("pruned"));
        live.on_watermark(0, 5);
        live.on_prune_skip(0, 2, 128, 0);
        live.on_watermark(1, 9);
        live.on_prune_skip(1, 1, 64, 0);
        // A stale (lower) watermark write cannot rewind the gauge; skip
        // counts add up.
        live.on_watermark(1, 4);
        live.on_prune_skip(1, 2, 32, 0);
        let s = live.snapshot();
        assert!(s.pruning);
        assert_eq!(s.devices[0].watermark, 5);
        assert_eq!(s.devices[1].watermark, 9);
        assert_eq!(s.devices[1].tiles_pruned, 3);
        assert_eq!(s.tiles_pruned(), 5);
        assert_eq!(s.cells_skipped(), 128 + 96);
        assert!(render_progress_line(&s, None).contains("| pruned 5"));
    }

    #[test]
    fn phase_attribution_accumulates_and_renders_a_stall_column() {
        let live = LiveTelemetry::with_manual_clock(2, 1_000);
        live.set_rows_total(0, 2);
        live.set_rows_total(1, 2);
        // No stall attributed yet: no stall column in the line.
        live.set_now_ns(1_000);
        let line = render_progress_line(&live.snapshot(), None);
        assert!(!line.contains("st:"), "{line}");
        live.on_wait_input_ns(0, 300);
        live.on_wait_input_ns(0, 100);
        live.on_checkpoint_ns(0, 50);
        live.on_wait_output_ns(1, 200);
        live.on_prune_skip(9, 1, 64, 999); // out of range: dropped
        let s = live.snapshot();
        assert_eq!(s.devices[0].wait_input_ns, 400);
        assert_eq!(s.devices[0].checkpoint_ns, 50);
        assert_eq!(s.devices[0].stall_ns(), 450);
        assert_eq!(s.devices[1].wait_output_ns, 200);
        assert_eq!(s.devices[0].dominant_stall(), Some(("in", 400)));
        assert_eq!(s.devices[1].dominant_stall(), Some(("out", 200)));
        let line = render_progress_line(&s, None);
        // 400 of 1000 ns waiting on input for d0; 200 of 1000 ns on output
        // for d1.
        assert!(line.contains("st:in 40%"), "{line}");
        assert!(line.contains("st:out 20%"), "{line}");
    }

    #[test]
    fn sampler_samples_and_reports_the_final_state() {
        let live = LiveTelemetry::new(1, 100);
        live.set_rows_total(0, 1);
        let seen: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let sampler = ProgressSampler::spawn(
            Arc::clone(&live),
            Duration::from_millis(5),
            move |cur, _prev| seen2.lock().unwrap().push(cur.fraction_done()),
        );
        // Wait for the first sample (the sampler thread may start late on a
        // busy host), so the run completes strictly after sampling began.
        let deadline = Instant::now() + Duration::from_secs(30);
        while seen.lock().unwrap().is_empty() {
            assert!(Instant::now() < deadline, "sampler never sampled");
            std::thread::sleep(Duration::from_millis(1));
        }
        live.on_row_done(0, 100, 1);
        sampler.stop();
        let seen = seen.lock().unwrap();
        assert!(seen.len() >= 2, "expected several samples, got {seen:?}");
        // The shutdown sample observes the completed run.
        assert_eq!(*seen.last().unwrap(), 1.0);
    }
}
