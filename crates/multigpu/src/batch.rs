//! Many-pair batch engine: inter-task parallelism over a device work-queue.
//!
//! Every layer below this one aligns exactly one pair per run. Database
//! search traffic looks different: thousands of pairs, most of them far too
//! small to keep a multi-GPU chain busy — a 4k×4k matrix spends most of its
//! pipeline life in fill/drain and kernel-launch overhead. SWAPHI's
//! *inter-task* mode and SaLoBa's length-sorted workload-balance argument
//! give the scheduling shape this module implements (DESIGN.md §14):
//!
//! * **Small pairs** (below [`BatchConfig::large_threshold_cells`]) are
//!   dispatched *whole* to a single device: one OS worker per device drains
//!   a shared queue, each pair executed as an ordinary single-device
//!   [`PipelineRun`]. Devices never cooperate on a small matrix, so every
//!   device runs at full efficiency and N devices align N pairs at once.
//! * **Large pairs** route through the existing fine-grain slab pipeline on
//!   the whole platform, serially, exactly like a solo run — megabase
//!   matrices are where intra-task parallelism pays.
//!
//! The queue is **length-sorted into bins**: small pairs are ordered by
//! descending cell count and split into [`BatchConfig::bins`] contiguous
//! bins, so the queue drains largest-first (LPT scheduling) and the last
//! pair a device picks up is among the smallest in the batch — tail
//! imbalance is bounded by one smallest-bin pair per device. The plan tiles
//! the job list exactly: every pair appears in the large list or in exactly
//! one bin (property-tested under adversarial size mixes).
//!
//! Because the whole stack is bit-exact, a pair's batch score is
//! **bit-identical** to its solo [`PipelineRun`] score no matter which
//! device or route executed it; the differential batch-conformance suite
//! (`tests/batch_conformance.rs`) holds that line across kernel-dispatch ×
//! pruning × recovery combos.
//!
//! **Fault tolerance** composes with the existing checkpoint layer. A large
//! pair recovers *in-run* via checkpoint rewind on the surviving devices;
//! the batch then blacklists the dead device for the rest of the run. A
//! small pair that dies with its device is requeued at the front of the
//! queue (never dropped, never double-reported) and the worker exits; a
//! batch-level [`RecoveryPolicy`] bounds total device failures.
//!
//! The DES twin ([`BatchSim`]) models the same queue in simulated time and
//! reports the **packing speedup**: packed batch makespan versus aligning
//! every pair one-at-a-time on the full platform. On small-pair-heavy
//! manifests the packed schedule wins ≥2× (the `batch.env2.3gpu` bench
//! anchor pins this).

use crate::checkpoint::RecoveryPolicy;
use crate::config::RunConfig;
use crate::desrun::DesSim;
use crate::error::MegaswError;
use crate::job::{outcome_len, outcome_recoveries, JobOutcome};
use crate::pipeline::{FaultSchedule, PipelineError, PipelineRun, ScheduledFault};
use megasw_gpusim::Platform;
use megasw_obs::{LiveTelemetry, MetricsRegistry};
use megasw_seq::fasta::{read_fasta_path, read_single_fasta_path};
use megasw_sw::BestCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One alignment task in a batch: an id, the two coded sequences, and an
/// optional per-pair [`RunConfig`] (block geometry + [`KernelPolicy`]
/// (crate::config::KernelPolicy)) overriding the batch-wide base config.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Caller-facing identifier (FASTA record ids for manifest-loaded
    /// batches). Shared, not copied, with the pair's [`JobOutcome`].
    pub id: Arc<str>,
    /// Query sequence, coded (see `megasw_seq::DnaSeq::codes`).
    pub a: Vec<u8>,
    /// Subject sequence, coded.
    pub b: Vec<u8>,
    /// Per-pair config override; `None` uses [`BatchConfig::base`].
    pub config: Option<RunConfig>,
}

impl BatchJob {
    pub fn new(id: impl Into<Arc<str>>, a: Vec<u8>, b: Vec<u8>) -> BatchJob {
        BatchJob {
            id: id.into(),
            a,
            b,
            config: None,
        }
    }

    /// Attach a per-pair config (its [`KernelPolicy`]
    /// (crate::config::KernelPolicy) included).
    pub fn with_config(mut self, config: RunConfig) -> BatchJob {
        self.config = Some(config);
        self
    }

    /// DP matrix size of this pair.
    pub fn cells(&self) -> u128 {
        self.a.len() as u128 * self.b.len() as u128
    }
}

/// Batch-wide knobs: the base per-pair config, the small/large routing
/// threshold, and the bin count for length-sorted queue ordering.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Config for pairs without a per-pair override.
    pub base: RunConfig,
    /// Pairs with `cells >= large_threshold_cells` route through the
    /// full-platform slab pipeline; smaller pairs are dispatched whole to
    /// one device. The default (16 Mcells ≈ 4k×4k) sits where the chain's
    /// fill/drain overhead stops paying for itself.
    pub large_threshold_cells: u128,
    /// Number of length-sorted bins the small pairs are split into
    /// (clamped to at least 1; more bins than pairs collapses to one pair
    /// per bin).
    pub bins: usize,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            base: RunConfig::paper_default(),
            large_threshold_cells: 1 << 24,
            bins: 8,
        }
    }
}

impl BatchConfig {
    /// A small-geometry config for tests, mirroring
    /// [`RunConfig::test_default`].
    pub fn test_default() -> BatchConfig {
        BatchConfig {
            base: RunConfig::test_default(),
            large_threshold_cells: 1 << 24,
            bins: 4,
        }
    }

    pub fn with_base(mut self, base: RunConfig) -> BatchConfig {
        self.base = base;
        self
    }

    pub fn with_large_threshold_cells(mut self, cells: u128) -> BatchConfig {
        self.large_threshold_cells = cells;
        self
    }

    pub fn with_bins(mut self, bins: usize) -> BatchConfig {
        self.bins = bins;
        self
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.bins == 0 {
            return Err("batch bin count must be at least 1".into());
        }
        self.base.validate()
    }
}

/// One length-sorted bin of small-pair indices (descending cell count
/// within the bin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchBin {
    pub pairs: Vec<usize>,
}

/// The deterministic schedule a batch executes: which pairs route large,
/// and the length-sorted bin order the small-pair queue drains in.
///
/// Invariant (property-tested): `large` plus the bins tile `0..jobs.len()`
/// exactly — every pair scheduled exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Indices of pairs routed through the full-platform slab pipeline,
    /// descending by cell count (ties by index).
    pub large: Vec<usize>,
    /// Small-pair bins; bin 0 holds the largest small pairs. Queue order is
    /// bin 0 first.
    pub bins: Vec<BatchBin>,
}

impl BatchPlan {
    /// Build the plan for `jobs` under `config`. Pure and deterministic:
    /// same jobs + config → same plan.
    pub fn build(jobs: &[BatchJob], config: &BatchConfig) -> BatchPlan {
        let cells: Vec<u128> = jobs.iter().map(BatchJob::cells).collect();
        Self::build_from_cells(&cells, config)
    }

    /// Plan from raw cell counts (shared with the size-only DES twin).
    pub fn build_from_cells(cells: &[u128], config: &BatchConfig) -> BatchPlan {
        let mut large: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i] >= config.large_threshold_cells)
            .collect();
        let mut small: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i] < config.large_threshold_cells)
            .collect();
        // Descending size, index as the deterministic tiebreak.
        large.sort_by(|&x, &y| cells[y].cmp(&cells[x]).then(x.cmp(&y)));
        small.sort_by(|&x, &y| cells[y].cmp(&cells[x]).then(x.cmp(&y)));

        let nb = config.bins.max(1).min(small.len().max(1));
        let base = small.len() / nb;
        let extra = small.len() % nb;
        let mut bins = Vec::with_capacity(nb);
        let mut at = 0usize;
        for k in 0..nb {
            let take = base + usize::from(k < extra);
            bins.push(BatchBin {
                pairs: small[at..at + take].to_vec(),
            });
            at += take;
        }
        debug_assert_eq!(at, small.len());
        BatchPlan { large, bins }
    }

    /// Small-pair queue order: bins front to back (largest pairs first —
    /// LPT order, which bounds tail imbalance).
    pub fn queue_order(&self) -> Vec<usize> {
        self.bins
            .iter()
            .flat_map(|b| b.pairs.iter().copied())
            .collect()
    }

    /// Every scheduled index, large first then queue order. The exact-tiling
    /// property test checks this is a permutation of `0..jobs.len()`.
    pub fn scheduled(&self) -> Vec<usize> {
        let mut all = self.large.clone();
        all.extend(self.queue_order());
        all
    }
}

/// One scheduled device failure inside a batch: when pair `pair` executes,
/// the underlying [`ScheduledFault`] is injected into its run. For a large
/// pair the fault's device indexes the (surviving) platform chain; for a
/// small pair the fault kills whichever device picked the pair up (the
/// device field is ignored — a single-device run has only device 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFault {
    pub pair: usize,
    pub fault: ScheduledFault,
}

impl FromStr for BatchFault {
    type Err = String;

    /// Parse `PAIR@DEV:ROW[:PHASE]` (the part after `@` is the
    /// [`ScheduledFault`] syntax).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (pair, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("batch fault `{s}` needs PAIR@DEV:ROW[:PHASE]"))?;
        let pair = pair
            .parse::<usize>()
            .map_err(|e| format!("bad pair in batch fault `{s}`: {e}"))?;
        let fault = rest.parse::<ScheduledFault>()?;
        Ok(BatchFault { pair, fault })
    }
}

impl std::fmt::Display for BatchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.pair, self.fault)
    }
}

/// Aggregate result of a batch run: per-pair outcomes in submission order
/// plus throughput and latency accounting.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One outcome per submitted pair, in submission order.
    pub pairs: Vec<JobOutcome>,
    pub total_cells: u128,
    pub wall_time: Duration,
    pub gcups_wall: f64,
    pub small_pairs: usize,
    pub large_pairs: usize,
    /// Bin count the plan actually used (after clamping).
    pub bins: usize,
    /// Small pairs requeued after losing their device mid-run.
    pub requeued: u64,
    /// Device losses survived (in-run large-pair recoveries + small-pair
    /// requeues).
    pub recoveries: u64,
    /// Platform indices blacklisted during the run.
    pub failed_devices: Vec<usize>,
    pub latency_p50: Duration,
    pub latency_p90: Duration,
    pub latency_p99: Duration,
}

impl BatchReport {
    /// Highest score across the batch.
    pub fn best_score(&self) -> i32 {
        self.pairs.iter().map(|p| p.best.score).max().unwrap_or(0)
    }

    /// Batch accounting as named metrics (`batch.*`), merge-friendly with
    /// the per-run registries.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.describe("batch.pairs_total", "Pairs aligned by the batch run");
        m.describe(
            "batch.pairs_small",
            "Pairs dispatched whole to a single device (inter-task route)",
        );
        m.describe(
            "batch.pairs_large",
            "Pairs routed through the full-platform slab pipeline",
        );
        m.describe("batch.bins", "Length-sorted bins the queue drained in");
        m.describe(
            "batch.requeued_total",
            "Small pairs requeued after a device loss",
        );
        m.describe(
            "batch.recoveries_total",
            "Device losses the batch survived (recoveries + requeues)",
        );
        m.incr("batch.pairs_total", self.pairs.len() as u64);
        m.incr("batch.pairs_small", self.small_pairs as u64);
        m.incr("batch.pairs_large", self.large_pairs as u64);
        m.incr("batch.bins", self.bins as u64);
        m.incr("batch.requeued_total", self.requeued);
        m.incr("batch.recoveries_total", self.recoveries);
        m.incr("batch.latency_p50_ns", self.latency_p50.as_nanos() as u64);
        m.incr("batch.latency_p90_ns", self.latency_p90.as_nanos() as u64);
        m.incr("batch.latency_p99_ns", self.latency_p99.as_nanos() as u64);
        m.observe("batch.gcups_wall", self.gcups_wall);
        m
    }
}

impl std::fmt::Display for BatchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "batch: {} pairs ({} small over {} bins, {} large) · {:.3e} cells",
            self.pairs.len(),
            self.small_pairs,
            self.bins,
            self.large_pairs,
            self.total_cells as f64,
        )?;
        writeln!(
            f,
            "  wall {:.3}s · {:.3} GCUPS · latency p50 {:.1}ms p90 {:.1}ms p99 {:.1}ms",
            self.wall_time.as_secs_f64(),
            self.gcups_wall,
            self.latency_p50.as_secs_f64() * 1e3,
            self.latency_p90.as_secs_f64() * 1e3,
            self.latency_p99.as_secs_f64() * 1e3,
        )?;
        if self.recoveries > 0 || !self.failed_devices.is_empty() {
            writeln!(
                f,
                "  recoveries {} · requeued {} · failed devices {:?}",
                self.recoveries, self.requeued, self.failed_devices,
            )?;
        }
        write!(f, "  best score {}", self.best_score())
    }
}

/// Nearest-rank percentile over an ascending-sorted latency list. Shared
/// with the service's per-job latency SLOs.
pub(crate) fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How one pair finished; [`BatchRun::run`] turns these into
/// [`JobOutcome`]s once every pair is done.
#[derive(Debug, Clone, Copy)]
struct PairDone {
    best: BestCell,
    /// The device that ran the pair whole; `None` for the slab route.
    device: Option<u16>,
    latency: Duration,
    recoveries: u16,
}

/// Shared state the per-device workers drain.
struct WorkQueue<'j> {
    jobs: &'j [BatchJob],
    queue: Mutex<VecDeque<usize>>,
    outcomes: Mutex<Vec<Option<PairDone>>>,
    /// One flag per batch fault: a fault fires at most once, so a requeued
    /// pair does not die again on the next device.
    fired: Mutex<Vec<bool>>,
    /// Device failures so far (batch-wide, large + small routes).
    failures: Mutex<usize>,
    /// Platform indices that died while running small pairs.
    failed: Mutex<Vec<usize>>,
    requeued: Mutex<u64>,
    fatal: Mutex<Option<MegaswError>>,
}

/// Builder for one batch run — the many-pair analogue of [`PipelineRun`].
///
/// ```
/// use megasw_multigpu::batch::{BatchConfig, BatchJob, BatchRun};
/// use megasw_gpusim::Platform;
///
/// let jobs = vec![
///     BatchJob::new("p0", vec![0, 1, 2, 3], vec![0, 1, 2, 3]),
///     BatchJob::new("p1", vec![3, 2, 1, 0], vec![0, 1, 2, 3]),
/// ];
/// let report = BatchRun::new(&jobs, &Platform::env1())
///     .config(BatchConfig::test_default())
///     .run()
///     .unwrap();
/// assert_eq!(report.pairs.len(), 2);
/// ```
pub struct BatchRun<'a> {
    jobs: &'a [BatchJob],
    platform: &'a Platform,
    config: BatchConfig,
    faults: Vec<BatchFault>,
    recovery: Option<RecoveryPolicy>,
    live: Option<Arc<LiveTelemetry>>,
    cancel: Option<Arc<AtomicBool>>,
}

impl<'a> BatchRun<'a> {
    pub fn new(jobs: &'a [BatchJob], platform: &'a Platform) -> BatchRun<'a> {
        BatchRun {
            jobs,
            platform,
            config: BatchConfig::default(),
            faults: Vec::new(),
            recovery: None,
            live: None,
            cancel: None,
        }
    }

    pub fn config(mut self, config: BatchConfig) -> Self {
        self.config = config;
        self
    }

    /// Inject deterministic per-pair device faults.
    pub fn faults(mut self, faults: Vec<BatchFault>) -> Self {
        self.faults = faults;
        self
    }

    /// Survive device losses: large pairs recover in-run via the checkpoint
    /// path, small pairs are requeued on the survivors. The policy bounds
    /// total device failures across the whole batch.
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Attach live telemetry (one lane per platform device; pair + cell
    /// progress update as pairs finish).
    pub fn live(mut self, live: Arc<LiveTelemetry>) -> Self {
        self.live = Some(live);
        self
    }

    /// Attach a cooperative cancellation token: the batch stops between
    /// pairs (and inside a large pair at its checkpoint boundaries, via
    /// [`PipelineRun::cancel`]) and returns [`PipelineError::Cancelled`]
    /// once the token is set. Already-finished pairs are simply dropped
    /// with the report — cancellation never corrupts the platform.
    pub fn cancel(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    fn job_config(&self, idx: usize) -> RunConfig {
        self.jobs[idx]
            .config
            .clone()
            .unwrap_or_else(|| self.config.base.clone())
    }

    /// Execute the batch. Errors on the first unrecovered device fault or
    /// invalid configuration; on success every submitted pair has exactly
    /// one outcome.
    pub fn run(self) -> Result<BatchReport, MegaswError> {
        self.config.validate().map_err(|msg| {
            MegaswError::Pipeline(PipelineError::InvalidConfig(format!("batch: {msg}")))
        })?;
        if self.platform.is_empty() {
            return Err(MegaswError::Pipeline(PipelineError::InvalidConfig(
                "batch: platform has no devices".into(),
            )));
        }
        // `JobOutcome` holds device indices in 16 bits, lengths in 32.
        if self.platform.len() > usize::from(u16::MAX) {
            return Err(MegaswError::Pipeline(PipelineError::InvalidConfig(
                "batch: platform has more than 65535 devices".into(),
            )));
        }
        for job in self.jobs {
            outcome_len(job.a.len())?;
            outcome_len(job.b.len())?;
        }
        let plan = BatchPlan::build(self.jobs, &self.config);
        let total_cells: u128 = self.jobs.iter().map(BatchJob::cells).sum();
        if let Some(live) = &self.live {
            live.set_pairs_total(self.jobs.len() as u64);
        }
        let max_failures = self.recovery.map_or(0, |p| p.max_device_failures);
        let t0 = Instant::now();

        let mut outcomes: Vec<Option<PairDone>> = vec![None; self.jobs.len()];
        let mut blacklist = vec![false; self.platform.len()];
        let mut failures = 0usize;
        let mut recoveries_total = 0u64;
        let mut fired = vec![false; self.faults.len()];

        // ── Large pairs: serial, full surviving platform, in-run recovery.
        for &idx in &plan.large {
            // Between-pairs cancellation point (a large pair also polls the
            // token at its own checkpoint boundaries below).
            if self.is_cancelled() {
                return Err(MegaswError::Pipeline(PipelineError::Cancelled));
            }
            let job = &self.jobs[idx];
            // Survivor chain, remembering each position's original index.
            let survivors: Vec<usize> = (0..self.platform.len())
                .filter(|&d| !blacklist[d])
                .collect();
            let plat = Platform::custom(
                format!("{} [batch survivors]", self.platform.name),
                survivors
                    .iter()
                    .map(|&d| self.platform.devices[d].clone())
                    .collect(),
            );
            let mut run = PipelineRun::new(&job.a, &job.b, &plat).config(self.job_config(idx));
            if let Some(token) = &self.cancel {
                run = run.cancel(Arc::clone(token));
            }
            if let Some(pol) = self.recovery {
                // Hand the inner run the *remaining* batch-wide budget.
                let remaining = pol.max_device_failures.saturating_sub(failures);
                if remaining > 0 {
                    run = run.recover(RecoveryPolicy {
                        max_device_failures: remaining,
                    });
                }
            }
            let mut pair_faults: Vec<ScheduledFault> = Vec::new();
            for (fi, bf) in self.faults.iter().enumerate() {
                if bf.pair != idx || fired[fi] {
                    continue;
                }
                // Remap the fault's original device index onto its survivor
                // position; a fault aimed at an already-dead device is moot.
                if let Some(pos) = survivors.iter().position(|&d| d == bf.fault.device) {
                    pair_faults.push(ScheduledFault {
                        device: pos,
                        ..bf.fault
                    });
                }
                fired[fi] = true;
            }
            if !pair_faults.is_empty() {
                run = run.faults(FaultSchedule::from(pair_faults));
            }
            let t = Instant::now();
            let report = run.run()?;
            if let Some(rec) = &report.recovery {
                recoveries_total += rec.recoveries;
                failures += rec.failed_devices.len();
                for &pos in &rec.failed_devices {
                    if let Some(&orig) = survivors.get(pos) {
                        blacklist[orig] = true;
                    }
                }
                if let Some(live) = &self.live {
                    for _ in 0..rec.recoveries {
                        live.on_recovery();
                    }
                }
            }
            if let Some(live) = &self.live {
                for (pos, dev) in report.devices.iter().enumerate() {
                    if let Some(&orig) = survivors.get(pos) {
                        live.on_row_done(orig, u64::try_from(dev.cells).unwrap_or(u64::MAX), 0);
                    }
                }
                live.on_pair_done();
            }
            outcomes[idx] = Some(PairDone {
                best: report.best,
                device: None,
                latency: t.elapsed(),
                recoveries: report
                    .recovery
                    .as_ref()
                    .map_or(0, |r| outcome_recoveries(r.recoveries)),
            });
        }

        // ── Small pairs: one worker per surviving device drains the queue.
        //
        // A worker that loses its device requeues its in-flight pair and
        // exits — but its peers may already have drained out on a briefly
        // empty queue, orphaning the requeue. Each round therefore restarts
        // workers on the surviving devices while work remains; a new round
        // only happens after at least one fresh device loss, so the loop
        // terminates within `platform.len()` rounds.
        let mut queue: VecDeque<usize> = plan.queue_order().into();
        let mut requeued = 0u64;
        while !queue.is_empty() && blacklist.iter().any(|&b| !b) && !self.is_cancelled() {
            let wq = WorkQueue {
                jobs: self.jobs,
                queue: Mutex::new(std::mem::take(&mut queue)),
                outcomes: Mutex::new(outcomes),
                fired: Mutex::new(fired),
                failures: Mutex::new(failures),
                failed: Mutex::new(Vec::new()),
                requeued: Mutex::new(0),
                fatal: Mutex::new(None),
            };
            std::thread::scope(|s| {
                for (d, dev) in self.platform.devices.iter().enumerate() {
                    if blacklist[d] {
                        continue;
                    }
                    let wq = &wq;
                    let faults = &self.faults;
                    let live = self.live.clone();
                    let base = &self.config.base;
                    let recovery = self.recovery;
                    let cancel = self.cancel.clone();
                    let dev = dev.clone();
                    s.spawn(move || {
                        let single = Platform::single(dev);
                        loop {
                            if wq.fatal.lock().unwrap().is_some() {
                                break;
                            }
                            // Between-pairs cancellation point: leave the
                            // rest of the queue untouched and exit.
                            if cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)) {
                                break;
                            }
                            let Some(idx) = wq.queue.lock().unwrap().pop_front() else {
                                break;
                            };
                            let job = &wq.jobs[idx];
                            let cfg = job.config.clone().unwrap_or_else(|| base.clone());
                            let mut run = PipelineRun::new(&job.a, &job.b, &single).config(cfg);
                            {
                                let mut fired = wq.fired.lock().unwrap();
                                let mut pair_faults: Vec<ScheduledFault> = Vec::new();
                                for (fi, bf) in faults.iter().enumerate() {
                                    if bf.pair == idx && !fired[fi] {
                                        // Whole-pair dispatch: the single-device
                                        // chain has only device 0.
                                        pair_faults.push(ScheduledFault {
                                            device: 0,
                                            ..bf.fault
                                        });
                                        fired[fi] = true;
                                    }
                                }
                                if !pair_faults.is_empty() {
                                    run = run.faults(FaultSchedule::from(pair_faults));
                                }
                            }
                            let t = Instant::now();
                            match run.run() {
                                Ok(report) => {
                                    if let Some(live) = &live {
                                        live.on_row_done(
                                            d,
                                            u64::try_from(job.cells()).unwrap_or(u64::MAX),
                                            0,
                                        );
                                        live.on_pair_done();
                                    }
                                    let slot = &mut wq.outcomes.lock().unwrap()[idx];
                                    debug_assert!(slot.is_none(), "pair {idx} reported twice");
                                    *slot = Some(PairDone {
                                        best: report.best,
                                        device: Some(
                                            u16::try_from(d).expect("checked platform size"),
                                        ),
                                        latency: t.elapsed(),
                                        recoveries: 0,
                                    });
                                }
                                Err(e) => {
                                    let is_device_loss = matches!(
                                        e.as_pipeline(),
                                        Some(
                                            PipelineError::DeviceFault { .. }
                                                | PipelineError::RingPoisoned { .. }
                                        )
                                    );
                                    if is_device_loss && recovery.is_some() {
                                        let mut failures = wq.failures.lock().unwrap();
                                        *failures += 1;
                                        if *failures <= max_failures {
                                            // Device is gone; the pair goes back
                                            // to the front of the queue for a
                                            // survivor. This worker exits.
                                            wq.queue.lock().unwrap().push_front(idx);
                                            wq.failed.lock().unwrap().push(d);
                                            *wq.requeued.lock().unwrap() += 1;
                                            if let Some(live) = &live {
                                                live.on_recovery();
                                            }
                                            break;
                                        }
                                    }
                                    *wq.fatal.lock().unwrap() = Some(e);
                                    break;
                                }
                            }
                        }
                    });
                }
            });

            if let Some(e) = wq.fatal.into_inner().unwrap() {
                return Err(e);
            }
            queue = wq.queue.into_inner().unwrap();
            outcomes = wq.outcomes.into_inner().unwrap();
            fired = wq.fired.into_inner().unwrap();
            failures = wq.failures.into_inner().unwrap();
            requeued += wq.requeued.into_inner().unwrap();
            for d in wq.failed.into_inner().unwrap() {
                blacklist[d] = true;
            }
        }
        let _ = (failures, fired); // the shared state already bounded the run
        if let Some(missing) = outcomes.iter().position(Option::is_none) {
            if self.is_cancelled() {
                return Err(MegaswError::Pipeline(PipelineError::Cancelled));
            }
            // Every worker died with work still queued (budget allowed it).
            return Err(MegaswError::Pipeline(PipelineError::DeviceFault {
                device: self.platform.len().saturating_sub(1),
                block_row: missing,
            }));
        }
        // Both routes record only what they measured; the outcomes are
        // built here, once, in submission order.
        let pairs: Vec<JobOutcome> = outcomes
            .iter()
            .zip(self.jobs)
            .enumerate()
            .map(|(idx, (done, job))| {
                let done = done.expect("every pair finished (checked above)");
                JobOutcome {
                    pair: idx,
                    id: Arc::clone(&job.id),
                    m: outcome_len(job.a.len()).expect("checked at the start of the run"),
                    n: outcome_len(job.b.len()).expect("checked at the start of the run"),
                    cells: job.cells(),
                    best: done.best,
                    device: done.device,
                    large: done.device.is_none(),
                    latency: done.latency,
                    recoveries: done.recoveries,
                }
            })
            .collect();

        let wall_time = t0.elapsed();
        let mut latencies: Vec<Duration> = pairs.iter().map(|p| p.latency).collect();
        latencies.sort_unstable();
        let failed_devices: Vec<usize> =
            (0..self.platform.len()).filter(|&d| blacklist[d]).collect();
        recoveries_total += requeued;

        Ok(BatchReport {
            small_pairs: pairs.iter().filter(|p| !p.large).count(),
            large_pairs: plan.large.len(),
            bins: plan.bins.len(),
            total_cells,
            gcups_wall: if wall_time.as_secs_f64() > 0.0 {
                total_cells as f64 / wall_time.as_secs_f64() / 1e9
            } else {
                0.0
            },
            wall_time,
            requeued,
            recoveries: recoveries_total,
            failed_devices,
            latency_p50: percentile(&latencies, 50.0),
            latency_p90: percentile(&latencies, 90.0),
            latency_p99: percentile(&latencies, 99.0),
            pairs,
        })
    }
}

// ───────────────────────────── DES twin ─────────────────────────────

/// A size-only batch job for the DES twin: timing needs dimensions, not
/// bases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchSpec {
    pub m: usize,
    pub n: usize,
}

impl BatchSpec {
    pub fn cells(&self) -> u128 {
        self.m as u128 * self.n as u128
    }
}

/// Simulated batch accounting: the packed queue's makespan versus the
/// serial one-pair-at-a-time baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSimReport {
    /// Simulated makespan of the batch schedule (large pairs serial on the
    /// full platform, then small pairs packed across devices).
    pub packed: Duration,
    /// Simulated time to align every pair one-at-a-time on the full
    /// platform — what the pre-batch stack would do.
    pub serial: Duration,
    pub small_pairs: usize,
    pub large_pairs: usize,
    pub bins: usize,
    /// Small pairs each device executed in the packed schedule.
    pub per_device_pairs: Vec<usize>,
    pub total_cells: u128,
    /// Simulated GCUPS of the packed schedule.
    pub gcups_sim: f64,
}

impl BatchSimReport {
    /// How much faster the packed batch finishes than the serial baseline
    /// (>1 means packing wins; ≥2 on small-pair-heavy manifests).
    pub fn packing_speedup(&self) -> f64 {
        let packed = self.packed.as_secs_f64();
        if packed > 0.0 {
            self.serial.as_secs_f64() / packed
        } else {
            1.0
        }
    }
}

impl std::fmt::Display for BatchSimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch sim: packed {:.4}s vs serial {:.4}s ({:.2}x packing speedup) · {:.3} GCUPS sim · {} small / {} large",
            self.packed.as_secs_f64(),
            self.serial.as_secs_f64(),
            self.packing_speedup(),
            self.gcups_sim,
            self.small_pairs,
            self.large_pairs,
        )
    }
}

/// The DES mirror of [`BatchRun`]: models the same length-sorted queue in
/// simulated time. Fully deterministic — same specs, platform and config
/// produce bit-identical durations, so bench anchors can pin the packing
/// speedup.
///
/// Small pairs are packed greedily: the next queued pair goes to the device
/// that frees up earliest (ties to the lowest index), mirroring the
/// threaded engine's "idle worker pops next" behaviour without its timing
/// races.
pub struct BatchSim<'a> {
    specs: &'a [BatchSpec],
    platform: &'a Platform,
    config: BatchConfig,
}

impl<'a> BatchSim<'a> {
    pub fn new(specs: &'a [BatchSpec], platform: &'a Platform) -> BatchSim<'a> {
        BatchSim {
            specs,
            platform,
            config: BatchConfig::default(),
        }
    }

    pub fn config(mut self, config: BatchConfig) -> Self {
        self.config = config;
        self
    }

    /// Simulated pipeline time of one pair on `platform` (memoised by the
    /// caller). Degenerate pairs cost zero.
    fn sim_one(&self, m: usize, n: usize, platform: &Platform) -> Duration {
        if m == 0 || n == 0 {
            return Duration::ZERO;
        }
        let run = DesSim::new(m, n, platform)
            .config(self.config.base.clone())
            .run();
        Duration::from_nanos(run.report.sim_time.map_or(0, |t| t.as_nanos()))
    }

    pub fn run(&self) -> BatchSimReport {
        let cells: Vec<u128> = self.specs.iter().map(BatchSpec::cells).collect();
        let plan = BatchPlan::build_from_cells(&cells, &self.config);
        let total_cells: u128 = cells.iter().sum();
        let ndev = self.platform.len().max(1);

        // Memoise per unique (m, n) — length-sorted batches repeat sizes.
        let mut full_cache: BTreeMap<(usize, usize), Duration> = BTreeMap::new();
        let mut single_cache: BTreeMap<(usize, usize, usize), Duration> = BTreeMap::new();
        let singles: Vec<Platform> = self
            .platform
            .devices
            .iter()
            .map(|d| Platform::single(d.clone()))
            .collect();

        let mut serial = Duration::ZERO;
        for spec in self.specs {
            let t = *full_cache
                .entry((spec.m, spec.n))
                .or_insert_with(|| self.sim_one(spec.m, spec.n, self.platform));
            serial += t;
        }

        let mut packed = Duration::ZERO;
        for &idx in &plan.large {
            let spec = self.specs[idx];
            packed += full_cache[&(spec.m, spec.n)];
        }
        let mut finish = vec![Duration::ZERO; ndev];
        let mut per_device_pairs = vec![0usize; ndev];
        for idx in plan.queue_order() {
            let spec = self.specs[idx];
            // Earliest-free device, lowest index on ties.
            let d = (0..ndev).min_by_key(|&d| (finish[d], d)).unwrap();
            let t = *single_cache
                .entry((spec.m, spec.n, d))
                .or_insert_with(|| self.sim_one(spec.m, spec.n, &singles[d]));
            finish[d] += t;
            per_device_pairs[d] += 1;
        }
        packed += finish.iter().copied().max().unwrap_or(Duration::ZERO);

        let gcups_sim = if packed.as_secs_f64() > 0.0 {
            total_cells as f64 / packed.as_secs_f64() / 1e9
        } else {
            0.0
        };
        BatchSimReport {
            packed,
            serial,
            small_pairs: plan.bins.iter().map(|b| b.pairs.len()).sum(),
            large_pairs: plan.large.len(),
            bins: plan.bins.len(),
            per_device_pairs,
            total_cells,
            gcups_sim,
        }
    }
}

// ─────────────────────── manifest / FASTA loading ───────────────────────

/// Load a batch by zipping two many-record FASTA files record-by-record:
/// record `i` of `a_path` aligns against record `i` of `b_path`. Errors if
/// the files hold different record counts.
pub fn jobs_from_fasta_pair(
    a_path: impl AsRef<Path>,
    b_path: impl AsRef<Path>,
) -> Result<Vec<BatchJob>, String> {
    let a_path = a_path.as_ref();
    let b_path = b_path.as_ref();
    let ra = read_fasta_path(a_path).map_err(|e| format!("reading {}: {e}", a_path.display()))?;
    let rb = read_fasta_path(b_path).map_err(|e| format!("reading {}: {e}", b_path.display()))?;
    if ra.len() != rb.len() {
        return Err(format!(
            "record count mismatch: {} has {} records, {} has {}",
            a_path.display(),
            ra.len(),
            b_path.display(),
            rb.len()
        ));
    }
    Ok(ra
        .into_iter()
        .zip(rb)
        .map(|(a, b)| {
            BatchJob::new(
                format!("{}|{}", a.id(), b.id()),
                a.seq.codes().to_vec(),
                b.seq.codes().to_vec(),
            )
        })
        .collect())
}

/// Load a batch from a manifest: one pair per line, two whitespace-separated
/// FASTA paths (first record of each file). Blank lines and `#` comments are
/// skipped; relative paths resolve against the manifest's directory.
pub fn jobs_from_manifest(path: impl AsRef<Path>) -> Result<Vec<BatchJob>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading manifest {}: {e}", path.display()))?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let mut jobs = Vec::new();
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(pa), Some(pb), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "manifest {} line {}: expected two FASTA paths, got `{line}`",
                path.display(),
                line_no + 1
            ));
        };
        let resolve = |p: &str| {
            let pb = Path::new(p);
            if pb.is_absolute() {
                pb.to_path_buf()
            } else {
                dir.join(pb)
            }
        };
        let (fa, fb) = (resolve(pa), resolve(pb));
        let a =
            read_single_fasta_path(&fa).map_err(|e| format!("reading {}: {e}", fa.display()))?;
        let b =
            read_single_fasta_path(&fb).map_err(|e| format!("reading {}: {e}", fb.display()))?;
        jobs.push(BatchJob::new(
            format!("{}|{}", a.id(), b.id()),
            a.seq.codes().to_vec(),
            b.seq.codes().to_vec(),
        ));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PruneMode;

    fn sized_jobs(sizes: &[(usize, usize)]) -> Vec<BatchJob> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| {
                BatchJob::new(
                    format!("p{i}"),
                    (0..m).map(|k| (k % 4) as u8).collect(),
                    (0..n).map(|k| ((k + 1) % 4) as u8).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn plan_tiles_jobs_exactly() {
        let jobs = sized_jobs(&[(10, 10), (500, 500), (3, 7), (0, 9), (80, 80)]);
        let cfg = BatchConfig::test_default()
            .with_large_threshold_cells(100_000)
            .with_bins(3);
        let plan = BatchPlan::build(&jobs, &cfg);
        let mut all = plan.scheduled();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(plan.large, vec![1]);
    }

    #[test]
    fn plan_orders_bins_by_descending_size() {
        let jobs = sized_jobs(&[(10, 10), (40, 40), (20, 20), (30, 30)]);
        let cfg = BatchConfig::test_default().with_bins(2);
        let plan = BatchPlan::build(&jobs, &cfg);
        assert_eq!(plan.queue_order(), vec![1, 3, 2, 0]);
        assert_eq!(plan.bins.len(), 2);
        assert_eq!(plan.bins[0].pairs, vec![1, 3]);
    }

    #[test]
    fn bins_clamp_to_pair_count() {
        let jobs = sized_jobs(&[(5, 5), (6, 6)]);
        let cfg = BatchConfig::test_default().with_bins(16);
        let plan = BatchPlan::build(&jobs, &cfg);
        assert_eq!(plan.bins.len(), 2);
    }

    #[test]
    fn batch_fault_parse_roundtrip() {
        let bf: BatchFault = "3@1:10:ring-push".parse().unwrap();
        assert_eq!(bf.pair, 3);
        assert_eq!(bf.fault.device, 1);
        assert_eq!(bf.to_string(), "3@1:10:ring-push");
        assert!("3:1:10".parse::<BatchFault>().is_err());
    }

    #[test]
    fn small_batch_runs_and_reports_every_pair() {
        let jobs = sized_jobs(&[(64, 64), (33, 57), (0, 12), (7, 7)]);
        let report = BatchRun::new(&jobs, &Platform::env1())
            .config(BatchConfig::test_default())
            .run()
            .unwrap();
        assert_eq!(report.pairs.len(), 4);
        for (i, p) in report.pairs.iter().enumerate() {
            assert_eq!(p.pair, i);
            assert!(!p.large);
        }
        assert_eq!(report.pairs[2].best.score, 0);
        assert_eq!(report.small_pairs, 4);
        assert_eq!(report.large_pairs, 0);
    }

    #[test]
    fn per_pair_config_override_is_honoured() {
        let mut jobs = sized_jobs(&[(96, 96), (96, 96)]);
        jobs[1].config = Some(RunConfig::test_default().with_pruning(PruneMode::Distributed));
        let report = BatchRun::new(&jobs, &Platform::env1())
            .config(BatchConfig::test_default())
            .run()
            .unwrap();
        // Pruning is score-transparent: both identical pairs score equally.
        assert_eq!(report.pairs[0].best, report.pairs[1].best);
    }

    #[test]
    fn metrics_carry_batch_counters() {
        let jobs = sized_jobs(&[(32, 32), (16, 16)]);
        let report = BatchRun::new(&jobs, &Platform::env1())
            .config(BatchConfig::test_default())
            .run()
            .unwrap();
        let m = report.metrics();
        assert_eq!(m.counter("batch.pairs_total"), Some(2));
        assert_eq!(m.counter("batch.pairs_small"), Some(2));
        assert_eq!(m.counter("batch.requeued_total"), Some(0));
    }

    #[test]
    fn des_twin_is_deterministic_and_packing_wins_on_small_pairs() {
        let specs: Vec<BatchSpec> = (0..24)
            .map(|i| BatchSpec {
                m: 3_000 + 37 * i,
                n: 3_000 + 53 * i,
            })
            .collect();
        let env2 = Platform::env2();
        let r1 = BatchSim::new(&specs, &env2)
            .config(BatchConfig::default())
            .run();
        let r2 = BatchSim::new(&specs, &env2)
            .config(BatchConfig::default())
            .run();
        assert_eq!(r1, r2);
        assert!(
            r1.packing_speedup() >= 2.0,
            "packing speedup {} < 2",
            r1.packing_speedup()
        );
        assert_eq!(r1.per_device_pairs.iter().sum::<usize>(), 24);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let lat: Vec<Duration> = (1..=10).map(Duration::from_millis).collect();
        assert_eq!(percentile(&lat, 50.0), Duration::from_millis(5));
        assert_eq!(percentile(&lat, 90.0), Duration::from_millis(9));
        assert_eq!(percentile(&lat, 99.0), Duration::from_millis(10));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }
}
