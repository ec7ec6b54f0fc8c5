//! One event stream for both backends.
//!
//! Every instrumentation point of a pipeline step makes exactly one call,
//! [`Probe::emit`]: a threaded worker's row start, border waits, kernels,
//! prune skips, checkpoint deposits and faults; the DES's scheduled
//! kernels, the gaps between them and its border transfers; and either
//! coordinator's recoveries and rebalances. One `match` there decides what
//! each of the four sinks gets:
//!
//! * the span [`Recorder`], which keeps the kinds its `ObsLevel` allows;
//! * [`LiveTelemetry`], by delta adds on the device's lane, after which its
//!   manual clock advances to the event's end (a no-op on wall clocks);
//! * the [`FlightRecorder`], one event on the device's lane;
//! * the probe's own [`DeviceTotals`] — phase clocks, busy time, the kernel
//!   envelope and the cell/tile counters the report is built from.
//!
//! Live and flight lanes are **platform device indices** on both backends,
//! the same key as `DeviceTotals`. DESIGN.md §12 tabulates the mapping.

use crate::stats::DeviceTotals;
use megasw_obs::{
    FlightEvent, FlightKind, FlightRecorder, LiveTelemetry, ObsKind, ObsSpan, Recorder,
};
use megasw_sw::cell::Score;
use megasw_sw::kernel;
use std::sync::Arc;

/// The observers attached to a run, shared by every probe of that run.
#[derive(Debug, Clone)]
pub struct Sinks {
    /// Span recorder; its level filters what is kept.
    pub obs: Recorder,
    /// In-flight counters, one lane per platform device.
    pub live: Option<Arc<LiveTelemetry>>,
    /// Black-box event rings, one lane per platform device.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl Default for Sinks {
    /// No observers: a disabled recorder, no live handle, no flight box.
    fn default() -> Self {
        Sinks {
            obs: Recorder::disabled(),
            live: None,
            flight: None,
        }
    }
}

/// One pipeline step, with what the sinks need beyond its block-row and
/// interval.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    /// A worker picked up a block-row (an instant).
    RowStart,
    /// Blocked popping the predecessor's border.
    WaitInput,
    /// A simulated compute stream idle between two kernels, waiting for its
    /// input border: the DES's ring wait. It draws no span; the
    /// `border_xfer` spans already show what the lane waited for.
    InputGap,
    /// One block-row's kernels over `tiles` tile columns, covering `cells`
    /// cells (computed or skipped). `watermark` is the pruning watermark
    /// after the row, when the run prunes.
    Compute {
        cells: u64,
        tiles: u64,
        watermark: Option<Score>,
    },
    /// `tiles` tiles covering `cells` cells skipped via the pruning bound,
    /// starting at column `col`.
    PruneSkip { col: u64, tiles: u64, cells: u64 },
    /// Depositing checkpoint wave `wave`.
    Checkpoint { wave: u64 },
    /// Pushing a `bytes`-byte border to the successor, blocked while its
    /// ring is full.
    WaitOutput { bytes: u64 },
    /// A `bytes`-byte border on the link to the successor (DES).
    BorderXfer { bytes: u64 },
    /// The worker died: its own injected fault, or a `poisoned` ring left
    /// by a dead neighbour.
    Fault { poisoned: bool },
    /// Coordinator: `device` was blacklisted and the run rewound.
    Recovery { device: usize },
    /// Coordinator: a re-split was evaluated at a segment boundary.
    Rebalance,
    /// Coordinator: a migration resized `device`'s slab to `width` columns.
    Migrate { device: usize, width: u64 },
}

/// A device's (or the coordinator's) single instrumentation entry point.
/// A device probe lives for one attempt and owns that attempt's
/// [`DeviceTotals`]; the driver adds them to the run only if the attempt
/// completed.
pub(crate) struct Probe<'s> {
    sinks: &'s Sinks,
    /// Platform device index of this lane; `None` for the coordinator.
    device: Option<usize>,
    /// The thread's SIMD rescue counters when the probe was made.
    rescues_base: (u64, u64),
    totals: DeviceTotals,
}

impl<'s> Probe<'s> {
    /// `device`'s probe for one attempt over a matrix of `rows` block-rows
    /// (announced to live telemetry as the lane's row total).
    pub(crate) fn device(sinks: &'s Sinks, device: usize, rows: usize) -> Probe<'s> {
        if let Some(live) = &sinks.live {
            live.set_rows_total(device, rows as u64);
        }
        Probe {
            device: Some(device),
            ..Probe::coordinator(sinks)
        }
    }

    /// The coordinator's probe, for recoveries and rebalances.
    pub(crate) fn coordinator(sinks: &'s Sinks) -> Probe<'s> {
        Probe {
            sinks,
            device: None,
            rescues_base: (
                kernel::simd_rescues_thread(),
                kernel::simd_rescue_ns_thread(),
            ),
            totals: DeviceTotals::default(),
        }
    }

    /// Now on the recorder's clock (threaded backend only; the DES passes
    /// simulated timestamps).
    pub(crate) fn now_ns(&self) -> u64 {
        self.sinks.obs.now_ns()
    }

    /// Cells covered so far in this attempt.
    pub(crate) fn cells(&self) -> u128 {
        self.totals.cells
    }

    /// Emit an instant. Only the flight recorder keeps instants, so the
    /// clock is read only when one is attached.
    pub(crate) fn mark(&mut self, event: Event, row: usize) {
        let t = if self.sinks.flight.is_some() {
            self.now_ns()
        } else {
            0
        };
        self.emit(event, row, t, t);
    }

    /// Report one step of block-row `row` over `start_ns..end_ns` to every
    /// sink.
    pub(crate) fn emit(&mut self, event: Event, row: usize, start_ns: u64, end_ns: u64) {
        let dur = end_ns.saturating_sub(start_ns);
        let t = &mut self.totals;
        let live = self.sinks.live.as_deref();
        // A lane's events are its own; the coordinator's name their device.
        let device = match event {
            Event::Recovery { device } | Event::Migrate { device, .. } => Some(device),
            _ => self.device,
        };
        let lane = live.zip(device);
        // The span's kind, and the flight event's kind, timestamp and aux.
        let (span, flight) = match event {
            Event::RowStart => (None, Some((FlightKind::RowStart, start_ns, 0))),
            Event::WaitInput => {
                t.wait_input_ns += dur;
                on_lane(lane, |l, d| l.on_wait_input_ns(d, dur));
                let fly = (FlightKind::RingPop, end_ns, 0);
                (Some(ObsKind::RingPopWait), Some(fly))
            }
            Event::InputGap => {
                t.wait_input_ns += dur;
                on_lane(lane, |l, d| l.on_wait_input_ns(d, dur));
                (None, None)
            }
            Event::Compute {
                cells,
                tiles,
                watermark,
            } => {
                t.cells += cells as u128;
                t.tiles_total += tiles;
                t.busy_ns += dur;
                t.first_kernel_start_ns.get_or_insert(start_ns);
                t.last_kernel_end_ns = end_ns;
                on_lane(lane, |l, d| l.on_row_done(d, cells, dur));
                if let Some(wm) = watermark {
                    on_lane(lane, |l, d| l.on_watermark(d, wm));
                }
                (
                    Some(ObsKind::Kernel),
                    Some((FlightKind::Compute, end_ns, tiles)),
                )
            }
            Event::PruneSkip { col, tiles, cells } => {
                t.prune_skip_ns += dur;
                t.tiles_pruned += tiles;
                t.cells_skipped += cells as u128;
                on_lane(lane, |l, d| l.on_prune_skip(d, tiles, cells, dur));
                (None, Some((FlightKind::PruneSkip, start_ns, col)))
            }
            Event::Checkpoint { wave } => {
                t.checkpoint_ns += dur;
                on_lane(lane, |l, d| l.on_checkpoint_ns(d, dur));
                (None, Some((FlightKind::Checkpoint, start_ns, wave)))
            }
            Event::WaitOutput { bytes } => {
                t.bytes_sent += bytes;
                t.wait_output_ns += dur;
                on_lane(lane, |l, d| l.on_wait_output_ns(d, dur));
                (
                    Some(ObsKind::RingPush),
                    Some((FlightKind::RingPush, end_ns, 0)),
                )
            }
            Event::BorderXfer { bytes } => {
                t.bytes_sent += bytes;
                (Some(ObsKind::BorderXfer), None)
            }
            Event::Fault { poisoned } => {
                let fly = (FlightKind::Fault, start_ns, u64::from(poisoned));
                (None, Some(fly))
            }
            Event::Recovery { .. } => {
                on_lane(lane, |l, _| l.on_recovery());
                (Some(ObsKind::Recovery), None)
            }
            Event::Rebalance => (Some(ObsKind::Rebalance), None),
            Event::Migrate { width, .. } => (None, Some((FlightKind::Rebalance, start_ns, width))),
        };
        if let Some(kind) = span {
            self.sinks.obs.record(ObsSpan {
                kind,
                device: device.map(|d| d as u32),
                block_row: Some(row as u32),
                start_ns,
                end_ns,
            });
        }
        if let (Some(fr), Some(d), Some((kind, t_ns, aux))) = (&self.sinks.flight, device, flight) {
            let row = row as u64;
            let device = d as u32;
            let event = FlightEvent {
                kind,
                device,
                row,
                t_ns,
                dur_ns: dur,
                aux,
            };
            fr.record(d, event);
        }
        if let Some(l) = live {
            l.set_now_ns(end_ns);
        }
    }

    /// The attempt's totals, with the SIMD rescues this thread ran since
    /// the probe was made (a worker owns its thread, so they are exactly
    /// its own).
    pub(crate) fn finish(mut self) -> DeviceTotals {
        let (rescues, rescue_ns) = self.rescues_base;
        self.totals.simd_rescues = kernel::simd_rescues_thread().saturating_sub(rescues);
        self.totals.simd_rescue_ns = kernel::simd_rescue_ns_thread().saturating_sub(rescue_ns);
        self.totals
    }
}

/// Run `update` on a live lane, when there is one.
fn on_lane(lane: Option<(&LiveTelemetry, usize)>, update: impl FnOnce(&LiveTelemetry, usize)) {
    if let Some((live, device)) = lane {
        update(live, device);
    }
}
