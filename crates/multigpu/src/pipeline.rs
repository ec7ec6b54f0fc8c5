//! The threaded multi-GPU pipeline.
//!
//! One OS thread plays each device of the platform chain. Thread `g`
//! computes its column slab block-row by block-row with the real
//! [`megasw_sw::block`] kernel; after finishing block-row `r` it pushes the
//! slab's right border (one [`ColBorder`] of that row's height) into the
//! circular buffer toward thread `g + 1`, which pops exactly one border
//! before starting its own block-row `r`. The result is the paper's
//! fine-grain wavefront across devices: all GPUs cooperate on the same
//! matrix, offset by one block-row per chain position, with communication
//! overlapping computation whenever the ring has slack.
//!
//! The run is **bit-exact**: every border value equals the sequential
//! matrix's value, so the merged best cell is identical to the reference
//! (integration tests sweep partitions, block sizes and capacities to prove
//! it).
//!
//! ## Entry point
//!
//! [`PipelineRun`] is the single builder-style entry:
//!
//! ```
//! use megasw_multigpu::pipeline::{PipelineRun, Semantics};
//! use megasw_multigpu::config::RunConfig;
//! use megasw_gpusim::Platform;
//!
//! let (a, b) = (vec![0u8, 1, 2, 3], vec![0u8, 1, 2, 3]);
//! let report = PipelineRun::new(&a, &b, &Platform::env1())
//!     .config(RunConfig::test_default())
//!     .semantics(Semantics::Local)
//!     .run()
//!     .unwrap();
//! assert!(report.best.score > 0);
//! ```
//!
//! ## Distributed block pruning
//!
//! With [`PruneMode::Local`](crate::config::PruneMode) or
//! [`PruneMode::Distributed`](crate::config::PruneMode) on
//! `config.policy.pruning`, each worker tests every tile against the
//! CUDAlign pruning bound (`megasw_sw::prune`) and skips tiles that cannot
//! beat its **watermark** — the highest score it knows about. In
//! `Distributed` mode the watermark additionally folds in (a) the
//! neighbour's watermark piggybacked on every popped
//! [`BorderMsg`](crate::circbuf::BorderMsg) and (b) a shared global
//! watermark atomic read and published once per block-row, which carries
//! best scores between non-adjacent devices. Skipped tiles emit the same
//! zero/−∞ substitute borders the sequential pruned executor uses, so the
//! final best cell stays **bit-identical** to the unpruned run; the
//! skipped-work accounting lands in [`RunReport::pruning`]
//! (see DESIGN.md §10). Pruning applies to [`Semantics::Local`] only;
//! anchored runs ignore the knob.
//!
//! ## Observability
//!
//! Every run computes a wall-clock
//! [`StallBreakdown`](crate::stats::StallBreakdown) per device (fill,
//! border-wait, drain — the same accounting the simulator reports), exposed
//! via [`DeviceReport::stall`]. Attaching a
//! [`Recorder`](megasw_obs::Recorder) with [`PipelineRun::observer`]
//! additionally captures typed spans — `Kernel` per block-row, `RingPush` /
//! `RingPopWait` around the border ring — for Chrome-trace export.
//!
//! Attaching a [`LiveTelemetry`](megasw_obs::LiveTelemetry) handle with
//! [`PipelineRun::live`] exposes the run **while it executes**: every
//! worker bumps the handle's relaxed atomic counters once per block-row
//! (cells, rows, kernel busy time) and the border rings keep its occupancy
//! gauges current, so a sampler thread can render live progress and GCUPS
//! without perturbing the workers. Every step reaches the recorder, the
//! live handle, the flight recorder and the run's accounting through one
//! [`Probe`](crate::probe) call, and live and flight lanes are **platform
//! device indices**, the same key as `DeviceReport::device`.

use crate::checkpoint::{Checkpoint, CheckpointStore, RecoveryPolicy};
use crate::circbuf::{BorderMsg, CircularBuffer, RingError, RingStats};
use crate::config::{PruneMode, RebalanceMode, RunConfig};
use crate::error::MegaswError;
use crate::partition::{make_slabs, make_slabs_excluding_with_weights, rebalance, Slab};
use crate::probe::{Event, Probe, Sinks};
use crate::stats::{
    DeviceReport, DeviceTotals, PruningReport, RebalanceReport, RecoveryReport, RunReport,
};
use megasw_gpusim::Platform;
use megasw_obs::{FlightRecorder, LiveTelemetry, Recorder};
use megasw_sw::block::{skip_block, BlockInput};
use megasw_sw::border::{ColBorder, RowBorder};
use megasw_sw::cell::{BestCell, Score};
use megasw_sw::kernel::{self, Kernel, KernelSelection};
use megasw_sw::prune::{prune_bound, restore_corner, tile_is_prunable};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Matrix semantics a pipeline run computes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Smith-Waterman local alignment (zero floor, zero boundaries).
    Local,
    /// Anchored ("prefix-global") alignment: every path starts at the
    /// matrix origin; gap-cost boundaries, no zero floor. Used by stage 2
    /// to locate alignment start points (see [`crate::stages`]).
    Anchored,
}

/// Pipeline failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The configuration failed validation.
    InvalidConfig(String),
    /// A device failed mid-run (only via fault injection in this simulator;
    /// a real deployment would map CUDA errors here).
    DeviceFault { device: usize, block_row: usize },
    /// A neighbour's failure surfaced through the ring.
    RingPoisoned { device: usize },
    /// The run observed its cancellation token (set via
    /// [`PipelineRun::cancel`]) at a checkpoint boundary and stopped
    /// cooperatively. Not a fault: nothing is blacklisted and the queue
    /// owner may resubmit.
    Cancelled,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PipelineError::DeviceFault { device, block_row } => {
                write!(f, "device {device} failed at block-row {block_row}")
            }
            PipelineError::RingPoisoned { device } => {
                write!(f, "device {device} observed a poisoned ring")
            }
            PipelineError::Cancelled => write!(f, "run cancelled at a checkpoint boundary"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Deterministic fault injection for resilience tests: the given device
/// fails just before computing the given block-row.
///
/// This is the original single-fault form, kept for source compatibility;
/// it converts into a one-entry [`FaultSchedule`] with
/// [`FaultPhase::Compute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub device: usize,
    pub fail_at_block_row: usize,
}

/// Which point of a worker's per-block-row loop a fault fires at.
///
/// The four phases bracket the row's dataflow: waiting for the left
/// neighbour's border (`RingPop`), the DP kernel itself (`Compute`),
/// handing the right border to the ring (`RingPush`), and the border's bus
/// transfer to the neighbour (`Transfer`). Every phase check fires
/// unconditionally at its point in the loop, so a fault on a slab with no
/// ring on that side still kills the device deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultPhase {
    /// While waiting on the incoming border ring, before the pop.
    RingPop,
    /// Just before launching the block-row's kernels (the [`FaultPlan`]
    /// semantics).
    #[default]
    Compute,
    /// Just before pushing the outgoing border.
    RingPush,
    /// After the push, while the border is in flight to the neighbour.
    Transfer,
}

impl FaultPhase {
    /// Canonical lowercase name, matching the CLI / repro-string syntax.
    pub fn name(self) -> &'static str {
        match self {
            FaultPhase::RingPop => "ring-pop",
            FaultPhase::Compute => "compute",
            FaultPhase::RingPush => "ring-push",
            FaultPhase::Transfer => "transfer",
        }
    }
}

impl FromStr for FaultPhase {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ring-pop" => Ok(FaultPhase::RingPop),
            "compute" => Ok(FaultPhase::Compute),
            "ring-push" => Ok(FaultPhase::RingPush),
            "transfer" => Ok(FaultPhase::Transfer),
            other => Err(format!(
                "unknown fault phase `{other}` (expected ring-pop|compute|ring-push|transfer)"
            )),
        }
    }
}

impl std::fmt::Display for FaultPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled device failure: `device` dies at `block_row`, in `phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledFault {
    /// Platform index of the device that fails.
    pub device: usize,
    /// Block-row at which it fails.
    pub block_row: usize,
    /// Where in the row's dataflow it fails.
    pub phase: FaultPhase,
}

impl FromStr for ScheduledFault {
    type Err = String;

    /// Parse `DEV:ROW[:PHASE]` (phase defaults to `compute`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let device = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("empty fault spec in `{s}`"))?
            .parse::<usize>()
            .map_err(|e| format!("bad device in fault `{s}`: {e}"))?;
        let block_row = parts
            .next()
            .ok_or_else(|| format!("fault `{s}` needs DEV:ROW[:PHASE]"))?
            .parse::<usize>()
            .map_err(|e| format!("bad block-row in fault `{s}`: {e}"))?;
        let phase = match parts.next() {
            Some(p) => p.parse::<FaultPhase>()?,
            None => FaultPhase::Compute,
        };
        if parts.next().is_some() {
            return Err(format!("trailing garbage in fault `{s}`"));
        }
        Ok(ScheduledFault {
            device,
            block_row,
            phase,
        })
    }
}

impl std::fmt::Display for ScheduledFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.device, self.block_row, self.phase)
    }
}

/// A deterministic multi-fault schedule: every entry fires exactly when
/// its (device, block-row, phase) point is reached — same schedule, same
/// outcome, every run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultSchedule {
    pub faults: Vec<ScheduledFault>,
}

impl FaultSchedule {
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Does a fault fire for `device` at `block_row` in `phase`?
    pub(crate) fn fires(&self, device: usize, block_row: usize, phase: FaultPhase) -> bool {
        self.faults
            .iter()
            .any(|f| f.device == device && f.block_row == block_row && f.phase == phase)
    }
}

impl From<FaultPlan> for FaultSchedule {
    fn from(plan: FaultPlan) -> FaultSchedule {
        FaultSchedule {
            faults: vec![ScheduledFault {
                device: plan.device,
                block_row: plan.fail_at_block_row,
                phase: FaultPhase::Compute,
            }],
        }
    }
}

impl From<ScheduledFault> for FaultSchedule {
    fn from(fault: ScheduledFault) -> FaultSchedule {
        FaultSchedule {
            faults: vec![fault],
        }
    }
}

impl From<Vec<ScheduledFault>> for FaultSchedule {
    fn from(faults: Vec<ScheduledFault>) -> FaultSchedule {
        FaultSchedule { faults }
    }
}

impl FromStr for FaultSchedule {
    type Err = String;

    /// Parse a comma-separated list of `DEV:ROW[:PHASE]` specs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let faults = s
            .split(',')
            .filter(|part| !part.trim().is_empty())
            .map(|part| part.trim().parse::<ScheduledFault>())
            .collect::<Result<Vec<_>, _>>()?;
        if faults.is_empty() {
            return Err("empty fault schedule".to_string());
        }
        Ok(FaultSchedule { faults })
    }
}

impl std::fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// Builder for one threaded pipeline run — the single entry point to the
/// threaded backend. All run-shaping knobs (pruning, partitioning,
/// checkpoint cadence) arrive through the
/// [`KernelPolicy`](crate::config::KernelPolicy) on the attached
/// [`RunConfig`].
#[derive(Debug, Clone)]
pub struct PipelineRun<'a> {
    a: &'a [u8],
    b: &'a [u8],
    platform: &'a Platform,
    config: RunConfig,
    semantics: Semantics,
    faults: FaultSchedule,
    recovery: Option<RecoveryPolicy>,
    sinks: Sinks,
    flight_dump: Option<PathBuf>,
    cancel: Option<Arc<AtomicBool>>,
}

impl<'a> PipelineRun<'a> {
    /// Start configuring a run of `a × b` on `platform`. Defaults:
    /// [`RunConfig::paper_default`], [`Semantics::Local`], no faults, no
    /// observer.
    pub fn new(a: &'a [u8], b: &'a [u8], platform: &'a Platform) -> PipelineRun<'a> {
        PipelineRun {
            a,
            b,
            platform,
            config: RunConfig::paper_default(),
            semantics: Semantics::Local,
            faults: FaultSchedule::default(),
            recovery: None,
            sinks: Sinks::default(),
            flight_dump: None,
            cancel: None,
        }
    }

    /// Block geometry, ring capacity, partition policy and score scheme.
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Local (default) or anchored matrix semantics.
    pub fn semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Inject a deterministic fault schedule (resilience testing). Accepts
    /// a single [`FaultPlan`] (legacy), a [`ScheduledFault`], or a whole
    /// [`FaultSchedule`] / `Vec<ScheduledFault>`.
    pub fn faults(mut self, faults: impl Into<FaultSchedule>) -> Self {
        self.faults = faults.into();
        self
    }

    /// Enable fault-tolerant execution: on a device failure, blacklist the
    /// device, repartition its columns across the survivors, rewind to the
    /// newest complete checkpoint wave and resume. The final score and
    /// best-cell are bit-identical to a fault-free run; the accounting
    /// lands in [`RunReport::recovery`].
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Attach a span recorder. Clone the recorder before attaching and read
    /// the spans from your clone after `run()` returns.
    pub fn observer(mut self, observer: Recorder) -> Self {
        self.sinks.obs = observer;
        self
    }

    /// Attach in-flight telemetry: workers update the handle's atomic
    /// counters once per block-row and the rings keep its occupancy gauges
    /// current. Lanes are platform device indices, so size the handle for
    /// the whole platform. Keep a clone to sample from another thread
    /// while the run executes (see [`megasw_obs::ProgressSampler`]).
    pub fn live(mut self, live: Arc<LiveTelemetry>) -> Self {
        self.sinks.live = Some(live);
        self
    }

    /// Attach a flight recorder: each worker appends one structured event
    /// per step (row start, ring pop, compute, checkpoint, ring push,
    /// prune skip, fault) to its own lock-free ring. Keep a clone to dump
    /// the rings yourself, or set [`PipelineRun::flight_dump_path`] to
    /// have `run()` dump them as JSONL automatically. Lanes are platform
    /// device indices, like live-telemetry lanes.
    pub fn flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.sinks.flight = Some(flight);
        self
    }

    /// Dump the attached flight recorder's rings to `path` as JSONL when
    /// `run()` finishes — always on a failed run (the black-box read-out),
    /// and also on success so `--flight-dump` doubles as an on-demand
    /// dump. No-op unless a recorder is attached via
    /// [`PipelineRun::flight`].
    pub fn flight_dump_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.flight_dump = Some(path.into());
        self
    }

    /// Attach a cooperative cancellation token. The run polls it at every
    /// checkpoint boundary — before the first attempt and between
    /// attempts — and returns [`PipelineError::Cancelled`] once it observes
    /// `true`. With a checkpoint cadence configured, a run carrying a token
    /// is cut into segments of one checkpoint interval, so the token is
    /// polled at every checkpoint wave; without a cadence it is polled only
    /// before the run starts. Workers mid-segment finish their segment
    /// first: cancellation never tears a wave, so the abort is clean and
    /// the platform stays reusable.
    pub fn cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Execute the run.
    pub fn run(self) -> Result<RunReport, MegaswError> {
        let result = run_pipeline(
            self.a,
            self.b,
            self.platform,
            &self.config,
            &self.faults,
            self.recovery,
            self.semantics,
            &self.sinks,
            self.cancel.as_deref(),
        )
        .map_err(MegaswError::from);
        if let (Some(fr), Some(path)) = (&self.sinks.flight, &self.flight_dump) {
            // Best-effort: a failing dump must not mask the run's result.
            let _ = fr.dump_to(path);
        }
        result
    }
}

/// What one worker reports after finishing its rows of an attempt.
struct DevicePartial {
    best: BestCell,
    /// The worker's final pruning watermark (0 when pruning is off).
    watermark: Score,
    /// The worker's activity in this attempt, in recorder time. `ring_out`
    /// is left to the driver, which owns the attempt's rings.
    totals: DeviceTotals,
}

/// The pruning mode a run actually executes under: the configured mode for
/// local semantics, forced [`PruneMode::Off`] for anchored runs (pruning's
/// safety argument needs the zero floor; see `megasw_sw::prune`).
fn effective_prune_mode(config: &RunConfig, semantics: Semantics) -> PruneMode {
    match semantics {
        Semantics::Local => config.policy.pruning,
        Semantics::Anchored => PruneMode::Off,
    }
}

/// The threaded driver behind [`PipelineRun`] and the alignment stages in
/// [`crate::stages`]: one loop over checkpoint-bounded attempts.
///
/// Each attempt executes the pipeline from `start_row` up to `stop_row`
/// over the current slab set. A plain run is one attempt over every row
/// with no checkpoint store. Workers deposit border checkpoints on the
/// cadence of `config.policy.checkpoint` only when something consumes
/// them:
///
/// **Cancellation** (a token and a cadence, rebalancing off): the run is
/// cut into segments of one checkpoint interval, so the token is polled at
/// every checkpoint wave.
///
/// **Recovery** (when a policy is attached): on a device fault the failed
/// device is blacklisted, its columns are repartitioned across the
/// survivors ([`make_slabs_excluding_with_weights`] — measured throughput
/// for `Proportional`, calibrated once per run and cached), the run rewinds
/// to the newest complete checkpoint wave and resumes from its reassembled
/// border. Gives up — surfacing the original fault — when the failure
/// budget is exhausted or no survivor remains. Without a policy a fault
/// fails the run.
///
/// **Rebalance** (when `config.policy.rebalance` is on): the run is cut
/// into segments of `window_waves × checkpoint-interval` block-rows; every
/// segment boundary lands on the checkpoint cadence, so the boundary wave
/// is complete the moment the workers join. [`rebalance`] decides from
/// each device's *effective* throughput over the segment (covered cells —
/// pruned tiles count at their skip cost — per busy nanosecond); a
/// migration resumes every worker from the boundary checkpoint's
/// full-width H/F border wave under new slab geometry. No
/// block-row is recomputed — the rewind is zero by construction — and
/// because the checkpointed lanes are exact, scores stay **bit-identical**
/// to a static split.
///
/// All three compose: a fault mid-segment takes the recovery path, and
/// later boundaries keep rebalancing the survivors. Every completed
/// attempt is added to a per-device [`DeviceTotals`], so the report
/// accounts for the whole run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pipeline(
    a: &[u8],
    b: &[u8],
    platform: &Platform,
    config: &RunConfig,
    faults: &FaultSchedule,
    recovery: Option<RecoveryPolicy>,
    semantics: Semantics,
    sinks: &Sinks,
    cancel: Option<&AtomicBool>,
) -> Result<RunReport, PipelineError> {
    config.validate().map_err(PipelineError::InvalidConfig)?;
    let kernel = kernel::select(config.policy.dispatch).map_err(PipelineError::InvalidConfig)?;
    let selection = KernelSelection {
        dispatch: config.policy.dispatch,
        resolved: kernel.id(),
    };
    let rb_mode = config.policy.rebalance;
    let cadence = config.policy.checkpoint.rows_interval();
    if recovery.is_some() && cadence.is_none() {
        return Err(PipelineError::InvalidConfig(
            "recovery requires a checkpoint cadence (policy.checkpoint must not be Disabled)"
                .to_string(),
        ));
    }
    // The cadence, kept only when recovery, rebalancing or cancellation
    // consumes its checkpoints (`validate()` guarantees one exists when
    // rebalancing is on).
    let interval =
        cadence.filter(|_| recovery.is_some() || rb_mode.is_enabled() || cancel.is_some());
    let m = a.len();
    let n = b.len();
    let mut slabs = make_slabs(n, config.block_w, platform, &config.policy.partition);
    let prune_mode = effective_prune_mode(config, semantics);
    if m == 0 || slabs.is_empty() {
        return Ok(empty_report(
            m,
            n,
            platform,
            &slabs,
            prune_mode,
            recovery.map(|_| RecoveryReport::default()),
            rb_mode.is_enabled().then(RebalanceReport::default),
            selection,
        ));
    }

    let rows = m.div_ceil(config.block_h);
    let block_h = config.block_h;
    // Cells in rows < `row` over the full width — the work a checkpoint at
    // wave `row` preserves.
    let cells_at = |row: usize| ((row * block_h).min(m) as u128) * n as u128;
    // Segment length in block-rows: a multiple of the checkpoint interval,
    // so every boundary wave is deposited by the regular cadence check.
    let seg_rows = match (rb_mode, interval) {
        (RebalanceMode::On { window_waves, .. }, Some(iv)) => iv * window_waves,
        (RebalanceMode::Off, Some(iv)) if cancel.is_some() => iv,
        _ => rows,
    }
    .min(rows);

    let store = interval.map(|_| CheckpointStore::new(n));
    let mut totals = vec![DeviceTotals::default(); platform.len()];
    let mut blacklist: Vec<usize> = Vec::new();
    let mut start_row = 0usize;
    let mut resume: Option<Checkpoint> = None;
    let mut recovery_report = RecoveryReport::default();
    let mut rebalance_report = RebalanceReport::default();
    let mut failures = 0usize;
    // Cells of failed attempts' rows that a checkpoint preserved: together
    // with the completed attempts they tile the matrix exactly.
    let mut preserved_cells: u128 = 0;
    // Calibrated per-device weights for `Proportional` repartitioning:
    // probed at most once per run, then reused by every recovery
    // (re-probing on each attempt was measurable overhead on fault-dense
    // schedules).
    let mut calibrated: Option<Vec<f64>> = None;
    // Recoveries and rebalances reach the sinks through this probe.
    let mut coordinator = Probe::coordinator(sinks);
    // All stall accounting is relative to this instant, on the recorder's
    // clock, so spans and the stall envelope share one timebase.
    let run_start_ns = coordinator.now_ns();

    loop {
        // Cooperative cancellation point: every iteration of this loop is
        // a checkpoint boundary (segment hand-off or recovery rewind), so
        // checking here is exactly "cancellation at checkpoint
        // boundaries". No wave is ever torn mid-flight.
        if cancelled(cancel) {
            return Err(PipelineError::Cancelled);
        }
        // Smallest segment boundary strictly past `start_row` (a resumed
        // attempt may start mid-segment after a fault rewind), clamped to
        // the matrix.
        let stop_row = ((start_row / seg_rows + 1) * seg_rows).min(rows);
        let base_best = resume.as_ref().map_or(BestCell::ZERO, |c| c.best);
        let ckpt = store.as_ref().zip(interval).map(|(store, interval)| {
            let geoms: Vec<(usize, usize)> = slabs.iter().map(|s| (s.j0, s.width)).collect();
            CkptCtx {
                store,
                attempt: store.begin_attempt(start_row, base_best, &geoms),
                interval,
            }
        });
        let outcome = run_attempt(AttemptParams {
            a,
            b,
            slabs: &slabs,
            rows,
            start_row,
            stop_row,
            config,
            kernel,
            faults,
            semantics,
            sinks,
            resume: resume.as_ref(),
            ckpt,
        });
        let partials = match collect_attempt(outcome.results) {
            Ok(partials) => partials,
            Err(failure) => {
                // Only device faults are recoverable, and only when a
                // recovery policy is attached.
                let (Some(policy), &PipelineError::DeviceFault { device, block_row }) =
                    (recovery, &failure.error)
                else {
                    return Err(failure.error);
                };
                failures += 1;
                let rec_start_ns = coordinator.now_ns();
                blacklist.push(device);
                let measured = match &config.policy.partition {
                    crate::config::PartitionPolicy::Proportional => Some(
                        calibrated
                            .get_or_insert_with(|| crate::balance::default_weights(platform))
                            .as_slice(),
                    ),
                    _ => None,
                };
                let survivors = make_slabs_excluding_with_weights(
                    n,
                    config.block_w,
                    platform,
                    &config.policy.partition,
                    &blacklist,
                    measured,
                );
                if failures > policy.max_device_failures || survivors.is_empty() {
                    return Err(failure.error);
                }
                let ck = store.as_ref().and_then(CheckpointStore::newest_complete);
                let new_start = ck.as_ref().map_or(0, |c| c.wave);
                // Work lost to the rewind: everything this attempt computed
                // beyond what the checkpoint wave preserves.
                let preserved = cells_at(new_start).saturating_sub(cells_at(start_row));
                preserved_cells += preserved;
                recovery_report.rewound_cells += failure.cells.saturating_sub(preserved);
                recovery_report.recoveries += 1;
                recovery_report.failed_devices.push(device);
                recovery_report.resumed_from_rows.push(new_start);
                coordinator.emit(
                    Event::Recovery { device },
                    block_row,
                    rec_start_ns,
                    coordinator.now_ns(),
                );
                slabs = survivors;
                start_row = new_start;
                resume = ck;
                continue;
            }
        };
        for (s_idx, (slab, p)) in slabs.iter().zip(&partials).enumerate() {
            let mut attempt = p.totals;
            attempt.ring_out = outcome.ring_stats.get(s_idx).copied();
            totals[slab.device].add(&attempt);
        }

        if stop_row >= rows {
            let wall_ns = coordinator.now_ns().saturating_sub(run_start_ns);
            debug_assert_eq!(
                totals.iter().map(|t| t.cells).sum::<u128>() + preserved_cells,
                m as u128 * n as u128,
                "completed attempts plus the checkpointed rows of failed ones must cover the matrix exactly"
            );
            recovery_report.checkpoints_taken =
                store.as_ref().map_or(0, CheckpointStore::checkpoints_taken);
            return Ok(assemble_report(
                m,
                n,
                platform,
                &slabs,
                &partials,
                &totals,
                wall_ns,
                run_start_ns,
                base_best,
                prune_mode,
                recovery.map(|_| recovery_report),
                rb_mode.is_enabled().then_some(rebalance_report),
                selection,
            ));
        }

        // Segment boundary: every worker deposited wave `stop_row` (a
        // cadence multiple below `rows`) and then joined, so the newest
        // complete checkpoint *is* the boundary — resuming from it
        // recomputes nothing.
        if let RebalanceMode::On { threshold, .. } = rb_mode {
            let rb_start_ns = coordinator.now_ns();
            let rates: Vec<f64> = partials
                .iter()
                .map(|p| p.totals.cells as f64 / p.totals.busy_ns.max(1) as f64)
                .collect();
            if let Some(new_slabs) = rebalance(
                &mut rebalance_report,
                stop_row,
                &slabs,
                &rates,
                n,
                config.block_w,
                threshold,
            ) {
                slabs = new_slabs;
                // Workers have joined, so the coordinator is the sole
                // writer on every flight lane here.
                let t = coordinator.now_ns();
                for slab in &slabs {
                    let (device, width) = (slab.device, slab.width as u64);
                    coordinator.emit(Event::Migrate { device, width }, stop_row, t, t);
                }
            }
            let rb_end_ns = coordinator.now_ns();
            coordinator.emit(Event::Rebalance, stop_row, rb_start_ns, rb_end_ns);
        }
        let ck = store
            .as_ref()
            .and_then(CheckpointStore::newest_complete)
            .expect("completed segment deposited its boundary wave");
        debug_assert_eq!(ck.wave, stop_row, "segment hand-off must be rewind-free");
        start_row = stop_row;
        resume = Some(ck);
    }
}

/// `true` once a cancellation token is present and set.
fn cancelled(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|c| c.load(Ordering::Relaxed))
}

/// Everything one attempt needs.
struct AttemptParams<'e> {
    a: &'e [u8],
    b: &'e [u8],
    slabs: &'e [Slab],
    rows: usize,
    start_row: usize,
    /// Block-row to stop before: `rows` for a run-to-completion attempt, a
    /// checkpoint-cadence multiple for a rebalance segment.
    stop_row: usize,
    config: &'e RunConfig,
    /// The DP engine resolved from `config.policy.dispatch`, once, up
    /// front — workers never probe CPU features themselves.
    kernel: &'static dyn Kernel,
    faults: &'e FaultSchedule,
    semantics: Semantics,
    sinks: &'e Sinks,
    /// Checkpoint to resume from (tops are sliced out of its lanes).
    resume: Option<&'e Checkpoint>,
    /// Where workers deposit checkpoints, when the run keeps a store.
    ckpt: Option<CkptCtx<'e>>,
}

#[derive(Clone, Copy)]
struct CkptCtx<'e> {
    store: &'e CheckpointStore,
    attempt: usize,
    interval: usize,
}

/// A failure and the cells computed before it — by the dying worker, or,
/// for an attempt, by all its workers, finished or not — so the rewind
/// accounting stays exact.
struct Failure {
    error: PipelineError,
    cells: u128,
}

struct AttemptOutcome {
    results: Vec<Result<DevicePartial, Failure>>,
    ring_stats: Vec<RingStats>,
}

/// Spawn one worker per slab and run block-rows `start_row..rows` over the
/// given slab set. Rings are per-attempt; a failed worker poisons its
/// neighbours' rings so the failure propagates instead of deadlocking.
fn run_attempt(p: AttemptParams<'_>) -> AttemptOutcome {
    let rings: Vec<CircularBuffer<BorderMsg>> = (0..p.slabs.len().saturating_sub(1))
        .map(|_| CircularBuffer::with_capacity(p.config.buffer_capacity))
        .collect();

    // The low-frequency side channel of distributed pruning: every worker
    // publishes its watermark here once per block-row and folds it back in
    // once per block-row, carrying best scores between *non-adjacent*
    // devices (ring piggybacking only reaches the right-hand neighbour).
    // Seeded from the resume checkpoint so pruning composes with recovery.
    let global_watermark = AtomicI32::new(p.resume.map_or(0, |ck| ck.watermark));

    // Each ring's occupancy gauge sits on the lane of the device feeding it.
    if let Some(live) = &p.sinks.live {
        for (ring, slab) in rings.iter().zip(p.slabs) {
            if let Some(gauge) = live.ring_gauge(slab.device) {
                ring.attach_occupancy_gauge(gauge);
            }
        }
    }

    let results: Vec<Result<DevicePartial, Failure>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p.slabs.len());
        for s_idx in 0..p.slabs.len() {
            let ring_in = s_idx.checked_sub(1).map(|i| &rings[i]);
            let ring_out = rings.get(s_idx);
            let p = &p;
            let global_watermark = &global_watermark;
            handles.push(scope.spawn(move || {
                let result = device_worker(p, s_idx, ring_in, ring_out, global_watermark);
                if result.is_err() {
                    // Wake neighbours so the failure propagates instead of
                    // deadlocking the chain.
                    if let Some(r) = ring_in {
                        r.poison();
                    }
                    if let Some(r) = ring_out {
                        r.poison();
                    }
                }
                result
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    AttemptOutcome {
        results,
        ring_stats: rings.iter().map(|r| r.stats()).collect(),
    }
}

/// Split an attempt's worker results into success or a root-cause failure.
/// The root surfaces a `DeviceFault` (in chain order) ahead of secondary
/// `RingPoisoned` observations; the failure carries the attempt's total
/// computed cells for the rewind accounting.
fn collect_attempt(
    results: Vec<Result<DevicePartial, Failure>>,
) -> Result<Vec<DevicePartial>, Failure> {
    let mut cells: u128 = 0;
    let mut fault: Option<PipelineError> = None;
    let mut poison: Option<PipelineError> = None;
    let mut partials = Vec::with_capacity(results.len());
    let mut failed = false;
    for r in results {
        match r {
            Ok(part) => {
                cells += part.totals.cells;
                partials.push(part);
            }
            Err(w) => {
                failed = true;
                cells += w.cells;
                match w.error {
                    e @ PipelineError::DeviceFault { .. } => {
                        fault.get_or_insert(e);
                    }
                    e => {
                        poison.get_or_insert(e);
                    }
                }
            }
        }
    }
    if !failed {
        return Ok(partials);
    }
    Err(Failure {
        error: fault.or(poison).expect("failed attempt carries an error"),
        cells,
    })
}

/// Build the final [`RunReport`]. Device rows, pruning counters and rescue
/// counts come from `totals`, summed over every completed attempt; the
/// best cell and watermark lag from the final attempt's `partials`, on top
/// of `base_best`, which its resume checkpoint established.
#[allow(clippy::too_many_arguments)]
fn assemble_report(
    m: usize,
    n: usize,
    platform: &Platform,
    slabs: &[Slab],
    partials: &[DevicePartial],
    totals: &[DeviceTotals],
    wall_ns: u64,
    run_start_ns: u64,
    base_best: BestCell,
    prune_mode: PruneMode,
    recovery: Option<RecoveryReport>,
    rebalance: Option<RebalanceReport>,
    kernel: KernelSelection,
) -> RunReport {
    let best = partials.iter().fold(base_best, |acc, p| acc.merge(p.best));
    let total_cells = m as u128 * n as u128;
    let pruning = prune_mode.is_enabled().then(|| PruningReport {
        mode: prune_mode,
        tiles_pruned: totals.iter().map(|t| t.tiles_pruned).sum(),
        tiles_total: totals.iter().map(|t| t.tiles_total).sum(),
        cells_skipped: totals.iter().map(|t| t.cells_skipped).sum(),
        // Worst final watermark lag across workers: how far the slowest
        // watermark trailed the run's true best. Always ≥ 0 — a watermark
        // only ever folds actually-observed scores.
        watermark_lag: partials
            .iter()
            .map(|p| best.score as i64 - p.watermark as i64)
            .max()
            .unwrap_or(0),
    });
    let wall = Duration::from_nanos(wall_ns);

    // Every device's phases and stall envelope span the whole run's
    // makespan; the identity startup + input + drain == wall − busy holds
    // exactly, and time lost to failed attempts lands in `other`.
    let devices = slabs
        .iter()
        .map(|slab| {
            let t = &totals[slab.device];
            DeviceReport {
                device: slab.device,
                name: platform.devices[slab.device].name.clone(),
                slab_j0: slab.j0,
                slab_width: slab.width,
                cells: t.cells,
                bytes_sent: t.bytes_sent,
                ring_out: t.ring_out,
                wall_busy: Some(Duration::from_nanos(t.busy_ns)),
                sim_busy: None,
                sim_utilization: None,
                stall: Some(t.stall(run_start_ns, wall_ns)),
                attribution: Some(t.attribution(wall_ns)),
            }
        })
        .collect();

    let secs = wall.as_secs_f64();
    RunReport {
        best,
        total_cells,
        wall_time: Some(wall),
        gcups_wall: Some(RunReport::gcups(total_cells, secs)),
        sim_time: None,
        gcups_sim: None,
        devices,
        pruning,
        recovery,
        rebalance,
        kernel,
        simd_rescues: totals.iter().map(|t| t.simd_rescues).sum(),
    }
}

/// The per-device loop.
///
/// Per block-row the phases run in dataflow order — `RingPop` fault check,
/// pop, `Compute` fault check, kernels, checkpoint deposit, `RingPush`
/// fault check, push, `Transfer` fault check — so a scheduled fault kills
/// the device at a well-defined point regardless of ring topology.
fn device_worker(
    p: &AttemptParams<'_>,
    s_idx: usize,
    ring_in: Option<&CircularBuffer<BorderMsg>>,
    ring_out: Option<&CircularBuffer<BorderMsg>>,
    global_watermark: &AtomicI32,
) -> Result<DevicePartial, Failure> {
    let AttemptParams {
        a,
        b,
        slabs,
        rows,
        start_row,
        stop_row,
        config,
        kernel,
        faults,
        semantics,
        sinks,
        resume,
        ckpt,
    } = *p;
    let slab = slabs[s_idx];
    let m = a.len();
    let n = b.len();
    let block_h = config.block_h;
    let block_w = config.block_w;
    let prune_mode = effective_prune_mode(config, semantics);

    // Tile columns of this slab.
    let mut cols: Vec<(usize, usize)> = Vec::new(); // (j0, width)
    let mut j = slab.j0;
    while j < slab.j_end() {
        let w = block_w.min(slab.j_end() - j);
        cols.push((j, w));
        j += w;
    }

    // Top borders: analytic at the matrix edge, or sliced out of the
    // checkpoint's exact full-width H/F lanes when resuming mid-matrix.
    let mut tops: Vec<RowBorder> = match resume {
        None => cols
            .iter()
            .map(|&(jc0, w)| match semantics {
                Semantics::Local => RowBorder::zero(w),
                Semantics::Anchored => RowBorder::anchored(w, jc0, &config.scheme),
            })
            .collect(),
        Some(ck) => cols
            .iter()
            .map(|&(jc0, w)| RowBorder {
                h: ck.h[jc0 - 1..=jc0 - 1 + w].to_vec(),
                f: ck.f[jc0 - 1..=jc0 - 1 + w].to_vec(),
            })
            .collect(),
    };
    let mut best = BestCell::ZERO;
    // Every step below is reported once, to this probe; it keeps the
    // attempt's cells, phase clocks and kernel envelope.
    let mut probe = Probe::device(sinks, slab.device, rows);

    // The pruning watermark: the highest score this worker *knows about*.
    // It only ever grows (fold is max) and only ever folds scores that some
    // worker actually observed in a DP cell, so it never exceeds the true
    // global best — the strict bound comparison below therefore preserves
    // the unpruned run's best cell bit-for-bit. Seeded from the resume
    // checkpoint so a recovered attempt keeps the failed attempt's
    // knowledge.
    let mut watermark: Score = match prune_mode {
        PruneMode::Off => 0,
        PruneMode::Local | PruneMode::Distributed => resume.map_or(0, |ck| ck.watermark),
    };

    // Die at a fault point — an injected fault, or a `poisoned` ring left
    // by a dead neighbour — with the cells computed so far, which the
    // rewind accounting needs.
    let fail = |probe: &mut Probe<'_>, r: usize, poisoned: bool| {
        probe.mark(Event::Fault { poisoned }, r);
        let device = slab.device;
        Failure {
            error: if poisoned {
                PipelineError::RingPoisoned { device }
            } else {
                PipelineError::DeviceFault {
                    device,
                    block_row: r,
                }
            },
            cells: probe.cells(),
        }
    };

    // Per-lane checkpoint scratch: the H/F lanes are assembled here and
    // handed to the store as slices, so deposits reuse one allocation
    // across every block-row instead of building a fresh Vec pair each
    // time (the churn showed up as other/wait_input in the attribution).
    let mut ck_h: Vec<Score> = Vec::new();
    let mut ck_f: Vec<Score> = Vec::new();

    for r in start_row..stop_row {
        let i0 = r * block_h + 1;
        let i1 = ((r + 1) * block_h).min(m) + 1;
        let height = i1 - i0;
        probe.mark(Event::RowStart, r);

        if faults.fires(slab.device, r, FaultPhase::RingPop) {
            return Err(fail(&mut probe, r, false));
        }

        // Under distributed pruning, fold the shared global watermark once
        // per block-row — a low-frequency side channel that lets knowledge
        // from non-adjacent devices tighten this worker's bound.
        if prune_mode == PruneMode::Distributed {
            watermark = watermark.max(global_watermark.load(Ordering::Relaxed));
        }

        let mut left: ColBorder = match ring_in {
            None => match semantics {
                Semantics::Local => ColBorder::zero(height),
                Semantics::Anchored => ColBorder::anchored(height, i0, &config.scheme),
            },
            Some(ring) => {
                let wait_start = probe.now_ns();
                let popped = ring.pop();
                probe.emit(Event::WaitInput, r, wait_start, probe.now_ns());
                match popped {
                    Ok(Some(msg)) => {
                        let BorderMsg {
                            border,
                            watermark: their_mark,
                        } = msg;
                        debug_assert_eq!(border.height(), height, "border height mismatch");
                        // Fold the left neighbour's piggybacked watermark:
                        // free knowledge riding the border hand-off.
                        if prune_mode == PruneMode::Distributed {
                            watermark = watermark.max(their_mark);
                        }
                        border
                    }
                    // Closed-early and poisoned both mean a neighbour died.
                    Ok(None) | Err(RingError::Closed) | Err(RingError::Poisoned) => {
                        return Err(fail(&mut probe, r, true));
                    }
                }
            }
        };

        if faults.fires(slab.device, r, FaultPhase::Compute) {
            return Err(fail(&mut probe, r, false));
        }

        let kernel_start = probe.now_ns();
        for (c, &(jc0, wc)) in cols.iter().enumerate() {
            if prune_mode.is_enabled() {
                let incoming_max = tops[c].max_h().max(left.max_h());
                let bound = prune_bound(incoming_max, m, n, i0, jc0, &config.scheme);
                if tile_is_prunable(bound, watermark) {
                    // Skip the tile: emit the substitute zero/−∞ borders
                    // sw::prune defines. Downstream DP over those borders
                    // can only underestimate — safe under local semantics.
                    // The skip happens inside the kernel timing window, so
                    // its clock is carved out of busy_ns by the
                    // attribution, not added on top.
                    let skip_start = probe.now_ns();
                    let out = skip_block(height, wc);
                    let skip = Event::PruneSkip {
                        col: jc0 as u64,
                        tiles: 1,
                        cells: height as u64 * wc as u64,
                    };
                    probe.emit(skip, r, skip_start, probe.now_ns());
                    tops[c] = out.bottom;
                    left = out.right;
                    continue;
                }
                // Borders from pruned neighbours may disagree at the shared
                // corner; restore it to the max (exact when either path
                // survived) before handing both to the kernel.
                restore_corner(&mut tops[c], &mut left);
            }
            let input = BlockInput {
                a_rows: &a[i0 - 1..i1 - 1],
                b_cols: &b[jc0 - 1..jc0 - 1 + wc],
                top: &tops[c],
                left: &left,
                row_offset: i0,
                col_offset: jc0,
            };
            let out = match semantics {
                Semantics::Local => kernel.block(input, &config.scheme),
                Semantics::Anchored => kernel.block_anchored(input, &config.scheme),
            };
            best = best.merge(out.best);
            tops[c] = out.bottom;
            left = out.right;
        }
        if prune_mode.is_enabled() {
            watermark = watermark.max(best.score);
        }
        // The row covers its whole slab width, computed or skipped.
        let row = Event::Compute {
            cells: height as u64 * slab.width as u64,
            tiles: cols.len() as u64,
            watermark: prune_mode.is_enabled().then_some(watermark),
        };
        probe.emit(row, r, kernel_start, probe.now_ns());

        // Publish this worker's watermark for non-adjacent devices.
        if prune_mode == PruneMode::Distributed {
            global_watermark.fetch_max(watermark, Ordering::Relaxed);
        }

        // Deposit a checkpoint as soon as the wave's kernels are done, so
        // a later push/transfer fault on this very row still benefits.
        if let Some(ck) = ckpt {
            let wave = r + 1;
            if wave % ck.interval == 0 && wave < rows {
                let ckpt_start = probe.now_ns();
                ck_h.clear();
                ck_f.clear();
                ck_h.push(tops[0].h[0]);
                ck_f.push(tops[0].f[0]);
                for t in &tops {
                    ck_h.extend_from_slice(&t.h[1..]);
                    ck_f.extend_from_slice(&t.f[1..]);
                }
                ck.store
                    .record(ck.attempt, wave, s_idx, &ck_h, &ck_f, best, watermark);
                let deposit = Event::Checkpoint { wave: wave as u64 };
                probe.emit(deposit, r, ckpt_start, probe.now_ns());
            }
        }

        if faults.fires(slab.device, r, FaultPhase::RingPush) {
            return Err(fail(&mut probe, r, false));
        }

        if let Some(ring) = ring_out {
            let bytes = left.transfer_bytes() as u64;
            let push_start = probe.now_ns();
            // The watermark piggybacks on the border hand-off: zero extra
            // messages, and the right neighbour folds it before its next row.
            let pushed = ring.push(BorderMsg {
                border: left,
                watermark,
            });
            probe.emit(Event::WaitOutput { bytes }, r, push_start, probe.now_ns());
            if pushed.is_err() {
                return Err(fail(&mut probe, r, true));
            }
        }

        if faults.fires(slab.device, r, FaultPhase::Transfer) {
            return Err(fail(&mut probe, r, false));
        }
    }

    if let Some(ring) = ring_out {
        ring.close();
    }

    Ok(DevicePartial {
        best,
        watermark,
        totals: probe.finish(),
    })
}

#[allow(clippy::too_many_arguments)]
fn empty_report(
    m: usize,
    n: usize,
    platform: &Platform,
    slabs: &[Slab],
    prune_mode: PruneMode,
    recovery: Option<RecoveryReport>,
    rebalance: Option<RebalanceReport>,
    kernel: KernelSelection,
) -> RunReport {
    RunReport {
        best: BestCell::ZERO,
        total_cells: m as u128 * n as u128,
        wall_time: Some(std::time::Duration::ZERO),
        gcups_wall: Some(0.0),
        sim_time: None,
        gcups_sim: None,
        devices: slabs
            .iter()
            .map(|slab| DeviceReport {
                device: slab.device,
                name: platform.devices[slab.device].name.clone(),
                slab_j0: slab.j0,
                slab_width: slab.width,
                cells: 0,
                bytes_sent: 0,
                ring_out: None,
                wall_busy: None,
                sim_busy: None,
                sim_utilization: None,
                stall: None,
                attribution: None,
            })
            .collect(),
        pruning: prune_mode.is_enabled().then_some(PruningReport {
            mode: prune_mode,
            tiles_pruned: 0,
            tiles_total: 0,
            cells_skipped: 0,
            watermark_lag: 0,
        }),
        recovery,
        rebalance,
        kernel,
        simd_rescues: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CheckpointCadence, PruneMode};
    use megasw_gpusim::{catalog, Platform};
    use megasw_obs::{ObsKind, ObsLevel};
    use megasw_seq::{ChromosomeGenerator, DivergenceModel, GenerateConfig};
    /// Scalar whole-sequence oracle via the kernel trait (the deprecated
    /// `gotoh_best` free function is being phased out).
    fn rolling_best(a: &[u8], b: &[u8], scheme: &megasw_sw::ScoreScheme) -> BestCell {
        megasw_sw::kernel::scalar().best(a, b, scheme)
    }

    fn pair(len: usize, seed: u64) -> (megasw_seq::DnaSeq, megasw_seq::DnaSeq) {
        let a = ChromosomeGenerator::new(GenerateConfig::uniform(len, seed)).generate();
        let (b, _) = DivergenceModel::test_scale(seed + 1000).apply(&a);
        (a, b)
    }

    /// A 99%-identity pair (substitutions only): the regime where block
    /// pruning pays — the diagonal score grows steadily and prunes the
    /// off-diagonal bulk.
    fn similar_pair(len: usize, seed: u64) -> (megasw_seq::DnaSeq, megasw_seq::DnaSeq) {
        let a = ChromosomeGenerator::new(GenerateConfig::uniform(len, seed)).generate();
        let (b, _) = DivergenceModel::snp_only(seed + 1000, 0.01).apply(&a);
        (a, b)
    }

    fn run_local(a: &[u8], b: &[u8], platform: &Platform, cfg: RunConfig) -> RunReport {
        PipelineRun::new(a, b, platform).config(cfg).run().unwrap()
    }

    #[test]
    fn two_gpu_run_matches_reference() {
        let (a, b) = pair(2_000, 1);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::env1(),
            RunConfig::test_default(),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        assert_eq!(report.devices.len(), 2);
        assert!(report.gcups_wall.unwrap() > 0.0);
        assert!(report.total_bytes_transferred() > 0);
    }

    #[test]
    fn three_heterogeneous_gpus_match_reference() {
        let (a, b) = pair(3_000, 2);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::env2(),
            RunConfig::test_default(),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        // Proportional split: Titan slab wider than K20 slab.
        assert!(report.devices[0].slab_width > report.devices[2].slab_width);
    }

    #[test]
    fn single_device_platform_works() {
        let (a, b) = pair(1_000, 3);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::single(catalog::gtx680()),
            RunConfig::test_default(),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        assert_eq!(report.devices.len(), 1);
        assert_eq!(report.total_bytes_transferred(), 0);
    }

    #[test]
    fn capacity_one_ring_still_correct() {
        let (a, b) = pair(1_500, 4);
        let cfg = RunConfig::test_default().with_buffer_capacity(1);
        let report = run_local(a.codes(), b.codes(), &Platform::env2(), cfg.clone());
        assert_eq!(report.best, rolling_best(a.codes(), b.codes(), &cfg.scheme));
    }

    #[test]
    fn many_devices_on_small_matrix() {
        // 8 devices, matrix narrower than 8 block columns: devices dropped.
        let (a, b) = pair(200, 5);
        let p = Platform::homogeneous(catalog::m2090(), 8);
        let cfg = RunConfig::test_default(); // 32-wide blocks → ≤ 7 bcols
        let report = run_local(a.codes(), b.codes(), &p, cfg.clone());
        assert_eq!(report.best, rolling_best(a.codes(), b.codes(), &cfg.scheme));
        let bcols = b.len().div_ceil(cfg.block_w);
        assert_eq!(report.devices.len(), bcols.min(8));
    }

    #[test]
    fn empty_sequences() {
        let p = Platform::env1();
        let cfg = RunConfig::test_default();
        let r1 = run_local(&[], &[], &p, cfg.clone());
        assert_eq!(r1.best, BestCell::ZERO);
        let (a, _) = pair(100, 6);
        let r2 = run_local(a.codes(), &[], &p, cfg.clone());
        assert_eq!(r2.best, BestCell::ZERO);
        let r3 = run_local(&[], a.codes(), &p, cfg);
        assert_eq!(r3.best, BestCell::ZERO);
    }

    #[test]
    fn builder_rejects_invalid_config_with_megasw_error() {
        let (a, b) = pair(100, 7);
        let bad = RunConfig::test_default().with_buffer_capacity(0);
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(bad)
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::InvalidConfig(_))
        ));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn fault_in_middle_device_propagates_cleanly() {
        let (a, b) = pair(2_000, 8);
        let fault = FaultPlan {
            device: 1,
            fail_at_block_row: 5,
        };
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default())
            .faults(fault)
            .run()
            .unwrap_err();
        assert_eq!(
            err.as_pipeline(),
            Some(&PipelineError::DeviceFault {
                device: 1,
                block_row: 5
            })
        );
    }

    #[test]
    fn fault_in_first_device_at_row_zero() {
        let (a, b) = pair(1_000, 9);
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .faults(FaultPlan {
                device: 0,
                fail_at_block_row: 0,
            })
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::DeviceFault { device: 0, .. })
        ));
    }

    #[test]
    fn ring_stats_show_flow() {
        let (a, b) = pair(2_000, 10);
        let cfg = RunConfig::test_default().with_buffer_capacity(2);
        let report = run_local(a.codes(), b.codes(), &Platform::env1(), cfg.clone());
        let ring = report.devices[0].ring_out.as_ref().unwrap();
        let rows = 2_000usize.div_ceil(cfg.block_h) as u64;
        assert_eq!(ring.pushed, rows);
        assert_eq!(ring.popped, rows);
        assert!(ring.max_occupancy <= 2);
    }

    #[test]
    fn pruning_is_bit_identical_across_geometries() {
        // The heart of the pruning contract: skipping tiles with substitute
        // borders must not perturb the best cell — on every platform shape,
        // at every pruning level, against the sequential reference.
        let (a, b) = similar_pair(1_500, 11);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        for platform in [
            Platform::single(catalog::gtx680()),
            Platform::env1(),
            Platform::env2(),
            Platform::homogeneous(catalog::m2090(), 4),
        ] {
            let off = run_local(
                a.codes(),
                b.codes(),
                &platform,
                RunConfig::test_default().with_pruning(PruneMode::Off),
            );
            assert_eq!(off.best, truth);
            assert!(off.pruning.is_none(), "Off emits no pruning report");
            for mode in [PruneMode::Local, PruneMode::Distributed] {
                let pruned = run_local(
                    a.codes(),
                    b.codes(),
                    &platform,
                    RunConfig::test_default().with_pruning(mode),
                );
                assert_eq!(pruned.best, truth, "{mode} on {platform:?}");
                assert_eq!(pruned.total_cells, off.total_cells);
                let pr = pruned.pruning.expect("enabled modes report pruning");
                assert_eq!(pr.mode, mode);
                assert!(pr.tiles_total > 0);
                assert!(pr.watermark_lag >= 0, "watermark never exceeds true best");
            }
        }
    }

    #[test]
    fn distributed_pruning_skips_cells_on_high_identity_pairs() {
        // Acceptance check: on a 99%-identity pair the distributed watermark
        // prunes a substantial share of the off-diagonal matrix.
        let (a, b) = similar_pair(4_000, 30);
        let report = run_local(
            a.codes(),
            b.codes(),
            &Platform::env2(),
            RunConfig::test_default().with_pruning(PruneMode::Distributed),
        );
        assert_eq!(
            report.best,
            rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign())
        );
        let pr = report.pruning.unwrap();
        assert!(pr.tiles_pruned > 0, "high-identity run must prune tiles");
        assert!(
            pr.cells_skipped * 5 >= report.total_cells,
            "expected ≥ 20% of cells skipped, got {} of {}",
            pr.cells_skipped,
            report.total_cells
        );
        // Covered-cell accounting holds even with skips.
        let covered: u128 = report.devices.iter().map(|d| d.cells).sum();
        assert_eq!(covered, report.total_cells);
    }

    #[test]
    fn anchored_semantics_force_pruning_off() {
        // Score underestimation is only safe under Local semantics; anchored
        // runs must silently disable pruning rather than corrupt stage 2.
        let (a, b) = similar_pair(1_000, 31);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_pruning(PruneMode::Distributed))
            .semantics(Semantics::Anchored)
            .run()
            .unwrap();
        assert!(report.pruning.is_none());
    }

    #[test]
    fn pruning_composes_with_recovery_bit_identically() {
        let (a, b) = similar_pair(2_000, 32);
        let cfg = RunConfig::test_default()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(4));
        let clean = run_local(a.codes(), b.codes(), &Platform::env2(), cfg.clone());
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 10,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(recovered.best, clean.best);
        assert_eq!(recovered.total_cells, clean.total_cells);
        assert_eq!(recovered.recovery.unwrap().recoveries, 1);
        let pr = recovered
            .pruning
            .expect("pruned recovery run reports pruning");
        assert!(pr.watermark_lag >= 0);
    }

    #[test]
    fn threaded_stall_breakdown_sums_to_wall_minus_busy() {
        let (a, b) = pair(3_000, 12);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default())
            .run()
            .unwrap();
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        assert_eq!(report.devices.len(), 3);
        for d in &report.devices {
            let bd = d.stall.expect("threaded runs report stalls");
            let busy_ns = d.wall_busy.unwrap().as_nanos() as u64;
            assert_eq!(
                bd.total().as_nanos(),
                wall_ns - busy_ns,
                "device {}: {bd}",
                d.device
            );
        }
    }

    #[test]
    fn threaded_attribution_sums_to_makespan_and_matches_live() {
        let (a, b) = pair(3_000, 12);
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(3, total);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default())
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        assert_eq!(report.devices.len(), 3);
        let s = live.snapshot();
        for (i, d) in report.devices.iter().enumerate() {
            let attr = d.attribution.expect("threaded runs attribute phases");
            // The defining identity: phases sum to the makespan exactly.
            assert_eq!(attr.total_ns(), wall_ns, "device {}: {attr}", d.device);
            assert!(attr.compute_ns > 0, "device {} computed", d.device);
            // No checkpointing, no pruning, scalar-or-clean dispatch in
            // this config: those phases stay zero.
            assert_eq!(attr.checkpoint_ns, 0);
            assert_eq!(attr.prune_skip_ns, 0);
            // The live handle saw the same phase clocks the report did.
            assert_eq!(s.devices[i].wait_input_ns, attr.wait_input_ns);
            assert_eq!(s.devices[i].wait_output_ns, attr.wait_output_ns);
        }
        // Chain consumers pop borders; some wait time must have been
        // attributed somewhere downstream of device 0.
        assert!(report.devices[1..].iter().all(
            |d| d.attribution.unwrap().wait_input_ns > 0 || d.attribution.unwrap().other_ns > 0
        ));
    }

    #[test]
    fn attribution_covers_checkpoint_and_prune_phases() {
        // A recovered, pruned run exercises the checkpoint and prune-skip
        // clocks; the sum-to-makespan identity must survive both.
        let (a, b) = pair(3_000, 77);
        let cfg = RunConfig::test_default()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(4));
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 12,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(report.recovery.as_ref().unwrap().recoveries, 1);
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        let mut checkpointed = 0u64;
        for d in &report.devices {
            let attr = d.attribution.unwrap();
            assert_eq!(attr.total_ns(), wall_ns, "device {}: {attr}", d.device);
            checkpointed += attr.checkpoint_ns;
        }
        assert!(checkpointed > 0, "checkpoint deposits take measurable time");
        assert!(
            report.pruning.unwrap().tiles_pruned == 0
                || report
                    .devices
                    .iter()
                    .any(|d| d.attribution.unwrap().prune_skip_ns > 0
                        || d.attribution.unwrap().compute_ns > 0)
        );
    }

    #[test]
    fn flight_recorder_black_boxes_a_fault() {
        let (a, b) = pair(2_000, 21);
        let flight = megasw_obs::FlightRecorder::new(2, 64);
        let dir = std::env::temp_dir().join(format!("megasw-flight-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let dump = dir.join("fault.jsonl");
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .faults(FaultPlan {
                device: 0,
                fail_at_block_row: 3,
            })
            .flight(Arc::clone(&flight))
            .flight_dump_path(&dump)
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::DeviceFault { device: 0, .. })
        ));
        // Lane 0's ring replays the last moments and ends at the fault.
        let events = flight.events(0);
        let last = events.last().expect("lane 0 recorded events");
        assert_eq!(last.kind, megasw_obs::FlightKind::Fault);
        assert_eq!(last.row, 3);
        assert!(events
            .iter()
            .any(|e| e.kind == megasw_obs::FlightKind::Compute));
        // Lane 1 observed the poisoned ring (fault with aux 1).
        assert!(flight
            .events(1)
            .iter()
            .any(|e| e.kind == megasw_obs::FlightKind::Fault && e.aux == 1));
        // The builder dumped the black box as JSONL automatically.
        let text = std::fs::read_to_string(&dump).expect("dump file written on fault");
        assert!(text.contains("\"fault\""), "{text}");
        for line in text.lines() {
            megasw_obs::json::parse(line).expect("dump lines are valid JSON");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flight_recorder_wraps_and_survives_a_clean_run() {
        let (a, b) = pair(2_000, 22);
        let flight = megasw_obs::FlightRecorder::new(2, 8);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .flight(Arc::clone(&flight))
            .run()
            .unwrap();
        assert!(report.best.score > 0);
        // Capacity 8: the ring holds only the tail of the run, and every
        // retained event is well-formed.
        for lane in 0..2 {
            let events = flight.events(lane);
            assert!(!events.is_empty() && events.len() <= 8, "lane {lane}");
            assert!(events
                .iter()
                .all(|e| e.kind != megasw_obs::FlightKind::Fault));
        }
    }

    #[test]
    fn observer_collects_kernel_and_ring_spans() {
        let (a, b) = pair(2_000, 13);
        let obs = Recorder::new(ObsLevel::Full);
        let cfg = RunConfig::test_default();
        let rows = 2_000usize.div_ceil(cfg.block_h);
        PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .observer(obs.clone())
            .run()
            .unwrap();
        let spans = obs.spans();
        let kernels = spans.iter().filter(|s| s.kind == ObsKind::Kernel).count();
        // Two devices, one kernel span per device per block-row.
        assert_eq!(kernels, 2 * rows);
        assert!(spans.iter().any(|s| s.kind == ObsKind::RingPush));
        assert!(spans.iter().any(|s| s.kind == ObsKind::RingPopWait));
        // Device attribution covers both lanes.
        assert!(spans.iter().any(|s| s.device == Some(0)));
        assert!(spans.iter().any(|s| s.device == Some(1)));
        // Kernel spans on the consumer lane carry block-row attribution.
        assert!(spans
            .iter()
            .filter(|s| s.device == Some(1) && s.kind == ObsKind::Kernel)
            .all(|s| s.block_row.is_some()));
    }

    #[test]
    fn live_telemetry_reports_exact_totals() {
        let (a, b) = pair(2_000, 15);
        let cfg = RunConfig::test_default();
        let rows = 2_000usize.div_ceil(cfg.block_h) as u64;
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(2, total);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        let s = live.snapshot();
        assert_eq!(s.cells_done() as u128, report.total_cells);
        assert!((s.fraction_done() - 1.0).abs() < 1e-12);
        for d in &s.devices {
            assert_eq!(d.rows_total, rows);
            assert_eq!(d.rows_done, rows);
            assert_eq!(d.ring_occupancy, 0, "rings drain by the end");
            assert!(d.busy_ns > 0);
        }
    }

    #[test]
    fn live_handle_sized_for_platform_tolerates_dropped_slabs() {
        // 8-device platform, matrix too narrow for 8 slabs: the extra live
        // slots just stay at zero.
        let (a, b) = pair(200, 16);
        let p = Platform::homogeneous(catalog::m2090(), 8);
        let cfg = RunConfig::test_default();
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(8, total);
        PipelineRun::new(a.codes(), b.codes(), &p)
            .config(cfg)
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        let s = live.snapshot();
        assert_eq!(s.cells_done(), total);
        assert!(s.devices.iter().any(|d| d.rows_total == 0));
        assert!((s.fraction_done() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_schedule_parses_and_round_trips() {
        let s: FaultSchedule = "1:5,2:9:ring-push".parse().unwrap();
        assert_eq!(
            s.faults,
            vec![
                ScheduledFault {
                    device: 1,
                    block_row: 5,
                    phase: FaultPhase::Compute,
                },
                ScheduledFault {
                    device: 2,
                    block_row: 9,
                    phase: FaultPhase::RingPush,
                },
            ]
        );
        // Display always writes the explicit three-part form.
        assert_eq!(s.to_string(), "1:5:compute,2:9:ring-push");
        assert_eq!(s.to_string().parse::<FaultSchedule>().unwrap(), s);
        // Legacy FaultPlan converts to a compute-phase fault.
        let from_plan = FaultSchedule::from(FaultPlan {
            device: 1,
            fail_at_block_row: 5,
        });
        assert_eq!(from_plan.faults[0].phase, FaultPhase::Compute);
        assert!("x:1".parse::<FaultSchedule>().is_err());
        assert!("1:2:warp".parse::<FaultSchedule>().is_err());
        assert!("".parse::<FaultSchedule>().is_err());
        assert!("1:2:compute:extra".parse::<FaultSchedule>().is_err());
    }

    #[test]
    fn recovery_is_bit_identical_to_fault_free_run() {
        let (a, b) = pair(2_000, 20);
        let cfg = RunConfig::test_default();
        let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg.clone())
            .run()
            .unwrap();
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 5,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(recovered.best, clean.best);
        assert_eq!(recovered.total_cells, clean.total_cells);
        let rec = recovered.recovery.expect("recovering runs report recovery");
        assert_eq!(rec.recoveries, 1);
        assert_eq!(rec.failed_devices, vec![1]);
        assert!(rec.checkpoints_taken > 0);
        assert!(rec.rewound_cells > 0);
        assert!(rec.rewound_cells <= recovered.total_cells);
        // The failed device holds no slab in the final report.
        assert!(recovered.devices.iter().all(|d| d.device != 1));
        // Fault-free runs don't grow a recovery report unless asked.
        assert!(clean.recovery.is_none());
    }

    #[test]
    fn recovery_is_bit_identical_in_every_fault_phase() {
        let (a, b) = pair(1_500, 21);
        let cfg = RunConfig::test_default();
        let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg.clone())
            .run()
            .unwrap();
        for phase in [
            FaultPhase::RingPop,
            FaultPhase::Compute,
            FaultPhase::RingPush,
            FaultPhase::Transfer,
        ] {
            let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .faults(ScheduledFault {
                    device: 1,
                    block_row: 7,
                    phase,
                })
                .recover(RecoveryPolicy::default())
                .run()
                .unwrap();
            assert_eq!(recovered.best, clean.best, "phase {phase}");
            assert_eq!(recovered.recovery.unwrap().recoveries, 1, "phase {phase}");
        }
    }

    #[test]
    fn recovery_survives_multiple_faults_and_anchored_semantics() {
        let (a, b) = pair(2_000, 22);
        let cfg = RunConfig::test_default();
        for semantics in [Semantics::Local, Semantics::Anchored] {
            let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone())
                .semantics(semantics)
                .run()
                .unwrap();
            let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
                .config(cfg.clone().with_checkpoint(CheckpointCadence::EveryRows(4)))
                .semantics(semantics)
                .faults("1:5,2:20:transfer".parse::<FaultSchedule>().unwrap())
                .recover(RecoveryPolicy {
                    max_device_failures: 2,
                })
                .run()
                .unwrap();
            assert_eq!(recovered.best, clean.best, "{semantics:?}");
            let rec = recovered.recovery.unwrap();
            assert_eq!(rec.recoveries, 2);
            assert_eq!(rec.failed_devices, vec![1, 2]);
            // Only device 0 survives.
            assert_eq!(recovered.devices.len(), 1);
            assert_eq!(recovered.devices[0].device, 0);
        }
    }

    #[test]
    fn recovery_from_fault_at_row_zero_restarts_from_scratch() {
        let (a, b) = pair(1_000, 23);
        let clean = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .run()
            .unwrap();
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .faults(FaultPlan {
                device: 0,
                fail_at_block_row: 0,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(recovered.best, clean.best);
        let rec = recovered.recovery.unwrap();
        assert_eq!(rec.resumed_from_rows, vec![0]);
    }

    #[test]
    fn recovery_budget_exhaustion_surfaces_the_fault() {
        let (a, b) = pair(1_500, 24);
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(8)))
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 5,
            })
            .recover(RecoveryPolicy {
                max_device_failures: 0,
            })
            .run()
            .unwrap_err();
        assert_eq!(
            err.as_pipeline(),
            Some(&PipelineError::DeviceFault {
                device: 1,
                block_row: 5
            })
        );
    }

    #[test]
    fn recovery_rejects_bad_checkpoint_cadence() {
        let (a, b) = pair(500, 25);
        // A zero-row interval never validates, recovery or not.
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(0)))
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::InvalidConfig(_))
        ));
        // Recovery needs checkpoints: a disabled cadence is rejected.
        let err = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::Disabled))
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap_err();
        assert!(matches!(
            err.as_pipeline(),
            Some(PipelineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn recovery_rewind_accounting_matches_checkpoint_interval() {
        // Fault at block-row 10 with interval 4: every slab checkpointed
        // wave 8 before row 10 started (the wavefront skew is ≤ chain
        // depth, but the store only serves *complete* waves — so we assert
        // the resume row is a multiple of 4 no later than the fault row).
        let (a, b) = pair(2_000, 26);
        let recovered = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(4)))
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 10,
            })
            .recover(RecoveryPolicy {
                max_device_failures: 1,
            })
            .run()
            .unwrap();
        let rec = recovered.recovery.unwrap();
        let resumed = rec.resumed_from_rows[0];
        assert_eq!(resumed % 4, 0);
        assert!(resumed <= 10, "resume row {resumed} past the fault row");
        assert!(resumed > 0, "a wave before row 10 must be complete");
    }

    #[test]
    fn rebalance_stays_bit_identical_and_reports_evaluations() {
        use crate::config::RebalanceMode;
        let (a, b) = pair(3_000, 40);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        let cfg = RunConfig::test_default()
            .with_checkpoint(CheckpointCadence::EveryRows(2))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let report = run_local(a.codes(), b.codes(), &Platform::env2(), cfg);
        assert_eq!(report.best, truth, "rebalance must not perturb the score");
        let rb = report.rebalance.expect("enabled rebalance reports");
        assert!(rb.evaluations > 0, "segment boundaries were evaluated");
        assert_eq!(rb.migrations as usize, rb.applied_at_rows.len());
        // The report covers the whole matrix, not only the last segment.
        assert_eq!(report.total_cells, 3_000u128 * b.len() as u128);
        // Off runs don't grow a rebalance report.
        let off = run_local(
            a.codes(),
            b.codes(),
            &Platform::env2(),
            RunConfig::test_default(),
        );
        assert!(off.rebalance.is_none());
    }

    #[test]
    fn rebalance_composes_with_pruning_and_recovery_bit_identically() {
        use crate::config::RebalanceMode;
        let (a, b) = similar_pair(2_000, 41);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        let cfg = RunConfig::test_default()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(2))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 9,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(report.best, truth);
        assert_eq!(report.recovery.as_ref().unwrap().recoveries, 1);
        let rb = report.rebalance.expect("rebalance report present");
        assert!(rb.evaluations > 0);
        // The failed device holds no slab after recovery, and later
        // rebalances never resurrect it.
        assert!(report.devices.iter().all(|d| d.device != 1));
    }

    #[test]
    fn rebalance_migration_shifts_columns_and_records_flight_events() {
        use crate::config::{PartitionPolicy, RebalanceMode};
        let (a, b) = pair(3_000, 42);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        // Start from a deliberately lopsided split on a homogeneous pair of
        // devices: measured throughput is ~equal, so the first boundary
        // must migrate columns toward the starved device.
        let cfg = RunConfig::test_default()
            .with_partition(PartitionPolicy::Explicit(vec![9.0, 1.0]))
            .with_checkpoint(CheckpointCadence::EveryRows(2))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let flight = megasw_obs::FlightRecorder::new(2, 256);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(cfg)
            .flight(Arc::clone(&flight))
            .run()
            .unwrap();
        assert_eq!(report.best, truth);
        let rb = report.rebalance.expect("rebalance report present");
        assert!(rb.migrations > 0, "lopsided split must trigger a migration");
        assert!(rb.moved_columns > 0);
        assert!(rb.applied_at_rows.iter().all(|&r| r % 2 == 0));
        // Every migration logged a flight event carrying the new width.
        let rebalances: Vec<_> = (0..2)
            .flat_map(|lane| flight.events(lane))
            .filter(|e| e.kind == megasw_obs::FlightKind::Rebalance)
            .collect();
        assert!(!rebalances.is_empty());
        assert!(rebalances.iter().all(|e| e.aux > 0 && e.dur_ns == 0));
    }

    /// The whole-run identities: device cells tile the matrix, and every
    /// device's phases and stall envelope span the run's makespan.
    fn assert_whole_run_accounting(report: &RunReport) {
        let covered: u128 = report.devices.iter().map(|d| d.cells).sum();
        assert_eq!(
            covered, report.total_cells,
            "device cells must tile the matrix"
        );
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        for d in &report.devices {
            let attr = d.attribution.unwrap();
            assert_eq!(attr.total_ns(), wall_ns, "device {}: {attr}", d.device);
            let busy_ns = d.wall_busy.unwrap().as_nanos() as u64;
            assert_eq!(d.stall.unwrap().total().as_nanos(), wall_ns - busy_ns);
        }
    }

    #[test]
    fn segmented_runs_account_for_every_segment() {
        use crate::config::RebalanceMode;
        let (a, b) = pair(3_000, 43);
        let truth = rolling_best(a.codes(), b.codes(), &megasw_sw::ScoreScheme::cudalign());
        let cadence = RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(2));
        let rows = 3_000usize.div_ceil(cadence.block_h);

        // A rebalanced run: several segments, columns migrating between them.
        let rebalanced = run_local(
            a.codes(),
            b.codes(),
            &Platform::env2(),
            cadence.clone().with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            }),
        );
        assert_eq!(rebalanced.best, truth);
        assert!(rebalanced.rebalance.as_ref().unwrap().evaluations >= 2);
        assert_whole_run_accounting(&rebalanced);

        // A cancel token with a cadence (the service's path): one segment
        // per checkpoint interval, every border still handed over.
        let cancellable = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cadence)
            .cancel(Arc::new(AtomicBool::new(false)))
            .run()
            .unwrap();
        assert_eq!(cancellable.best, truth);
        assert_whole_run_accounting(&cancellable);
        let ring = cancellable.devices[0].ring_out.unwrap();
        assert_eq!(ring.pushed, rows as u64, "ring stats span every segment");
    }

    #[test]
    fn recovered_survivors_keep_their_completed_segments() {
        // Segments of two rows; device 1 dies inside the fifth segment, so
        // the survivors completed rows 0..8 on the original split and the
        // rest on the repartitioned one.
        let (a, b) = pair(3_000, 44);
        let cfg = RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(2));
        let block_h = cfg.block_h;
        let original = run_local(a.codes(), b.codes(), &Platform::env2(), cfg.clone());
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .cancel(Arc::new(AtomicBool::new(false)))
            .faults(FaultPlan {
                device: 1,
                fail_at_block_row: 9,
            })
            .recover(RecoveryPolicy::default())
            .run()
            .unwrap();
        assert_eq!(report.best, original.best);
        let resumed = report.recovery.as_ref().unwrap().resumed_from_rows[0];
        assert_eq!(resumed, 8, "the fault's own segment starts at row 8");
        let split = (resumed * block_h) as u128;
        let wall_ns = report.wall_time.unwrap().as_nanos() as u64;
        for d in &report.devices {
            let before = original
                .devices
                .iter()
                .find(|o| o.device == d.device)
                .unwrap();
            assert_eq!(
                d.cells,
                split * before.slab_width as u128 + (3_000 - split) * d.slab_width as u128,
                "device {}",
                d.device
            );
            assert_eq!(d.attribution.unwrap().total_ns(), wall_ns);
        }
    }

    #[test]
    fn disabled_observer_records_nothing_but_stalls_still_computed() {
        let (a, b) = pair(1_000, 14);
        let obs = Recorder::disabled();
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env1())
            .config(RunConfig::test_default())
            .observer(obs.clone())
            .run()
            .unwrap();
        assert!(obs.is_empty());
        assert!(report.devices.iter().all(|d| d.stall.is_some()));
    }

    #[test]
    fn live_and_flight_lanes_are_device_indices_after_a_recovery() {
        // Device 0 dies before computing a row, so the survivors run the
        // whole matrix from chain positions 0 and 1: lanes must still name
        // devices 1 and 2.
        let (a, b) = pair(3_000, 45);
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(3, total);
        let flight = megasw_obs::FlightRecorder::new(3, 4096);
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(RunConfig::test_default().with_checkpoint(CheckpointCadence::EveryRows(4)))
            .faults(ScheduledFault {
                device: 0,
                block_row: 0,
                phase: FaultPhase::RingPop,
            })
            .recover(RecoveryPolicy::default())
            .live(Arc::clone(&live))
            .flight(Arc::clone(&flight))
            .run()
            .unwrap();
        assert_eq!(report.recovery.as_ref().unwrap().failed_devices, vec![0]);
        let s = live.snapshot();
        assert_eq!(s.devices[0].cells, 0, "device 0 computed nothing");
        for d in &report.devices {
            assert!(
                u128::from(s.devices[d.device].cells) >= d.cells,
                "device {}: live {} < reported {}",
                d.device,
                s.devices[d.device].cells,
                d.cells
            );
        }
        for lane in 0..3 {
            assert!(flight
                .events(lane)
                .iter()
                .all(|e| e.device as usize == lane));
        }
        assert!(flight
            .events(0)
            .iter()
            .any(|e| e.kind == megasw_obs::FlightKind::Fault && e.aux == 0));
    }

    #[test]
    fn live_pruning_counters_cover_every_segment() {
        use crate::config::RebalanceMode;
        let (a, b) = similar_pair(3_000, 46);
        let total = (a.codes().len() * b.codes().len()) as u64;
        let live = LiveTelemetry::new(3, total);
        let cfg = RunConfig::test_default()
            .with_pruning(PruneMode::Distributed)
            .with_checkpoint(CheckpointCadence::EveryRows(2))
            .with_rebalance(RebalanceMode::On {
                threshold: 0.0,
                window_waves: 2,
            });
        let report = PipelineRun::new(a.codes(), b.codes(), &Platform::env2())
            .config(cfg)
            .live(Arc::clone(&live))
            .run()
            .unwrap();
        assert!(report.rebalance.as_ref().unwrap().evaluations >= 2);
        let pr = report.pruning.expect("pruned run reports pruning");
        assert!(pr.tiles_pruned > 0, "the similar pair prunes tiles");
        let s = live.snapshot();
        assert_eq!(s.tiles_pruned(), pr.tiles_pruned);
        assert_eq!(u128::from(s.cells_skipped()), pr.cells_skipped);
    }
}
