//! The unified job abstraction: one spec type, one report type, every
//! execution surface.
//!
//! Before this module, the workspace had two parallel result surfaces —
//! [`PipelineRun`](crate::pipeline::PipelineRun) → `RunReport` for one
//! pair and [`BatchRun`](crate::batch::BatchRun) → `BatchReport` for many
//! — and each caller (CLI subcommand, bench harness, test) re-derived
//! scores and latency from whichever shape it happened to hold. The
//! resident alignment service needs to queue, execute, cancel and report
//! *either* workload through one pipe, so this module introduces:
//!
//! * [`JobSpec`] — what to run: a single pair or a batch, each carrying
//!   its own config/fault overrides. A future `SeedFilterExtend` variant
//!   (seed-and-extend screening, ROADMAP item 3) is reserved here; it
//!   will slot in without touching the queue or the HTTP surface.
//! * [`JobOutcome`] — how one pair fared, regardless of route.
//! * [`JobReport`] — the common aggregate: outcomes, total cells, wall
//!   time, throughput, recovery accounting and latency percentiles. A
//!   single-pair report is simply a one-outcome aggregate, so
//!   `GET /jobs/:id`, `megasw submit` and the chaos harness can treat
//!   every finished job identically.
//!
//! [`JobSpec::execute`] is the one evaluator: it routes to the existing
//! engines (which keep their bit-exactness and recovery guarantees — a
//! job's scores are bit-identical to solo runs) and adapts the result.
//! Device blacklists live inside the engines, so they are scoped to one
//! job: a device lost during job N is offered again to job N+1, and a
//! genuinely dead device simply fails fast again and recovery re-routes
//! around it.

use crate::batch::{percentile, BatchConfig, BatchFault, BatchJob, BatchReport, BatchRun};
use crate::checkpoint::RecoveryPolicy;
use crate::config::RunConfig;
use crate::error::MegaswError;
use crate::pipeline::{FaultSchedule, PipelineError, PipelineRun};
use crate::stats::RunReport;
use megasw_gpusim::Platform;
use megasw_obs::LiveTelemetry;
use megasw_sw::BestCell;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which workload a job carries. Serialized names (`single-pair`,
/// `batch`) are the `kind` strings of the service's JSON protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    SinglePair,
    Batch,
}

impl JobKind {
    pub fn name(self) -> &'static str {
        match self {
            JobKind::SinglePair => "single-pair",
            JobKind::Batch => "batch",
        }
    }
}

impl std::fmt::Display for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What to run: the one submission type every surface speaks — CLI
/// subcommands build it from flags, the HTTP endpoint decodes it from a
/// JSON body, tests construct it directly.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// One pair through the fine-grain slab pipeline (the paper's
    /// workload).
    SinglePair {
        /// Caller-facing identifier, echoed in the report.
        id: Arc<str>,
        /// Coded query sequence (see `megasw_seq::DnaSeq::codes`).
        a: Vec<u8>,
        /// Coded subject sequence.
        b: Vec<u8>,
        /// Per-job config override; `None` uses the executor's base.
        config: Option<RunConfig>,
        /// Deterministic fault injection (chaos tests).
        faults: FaultSchedule,
    },
    /// Many pairs through the inter-task batch engine.
    Batch {
        jobs: Vec<BatchJob>,
        /// Per-job batch config override; `None` wraps the executor's
        /// base [`RunConfig`] in a default [`BatchConfig`].
        config: Option<BatchConfig>,
        faults: Vec<BatchFault>,
    },
    // A `SeedFilterExtend` variant is deliberately reserved for the
    // seed-and-extend screening engine (ROADMAP item 3): it will carry a
    // query set plus filter thresholds and reuse this enum unchanged.
}

impl JobSpec {
    /// A one-pair job with no overrides.
    pub fn single(id: impl Into<Arc<str>>, a: Vec<u8>, b: Vec<u8>) -> JobSpec {
        JobSpec::SinglePair {
            id: id.into(),
            a,
            b,
            config: None,
            faults: FaultSchedule::default(),
        }
    }

    /// A batch job with no overrides.
    pub fn batch(jobs: Vec<BatchJob>) -> JobSpec {
        JobSpec::Batch {
            jobs,
            config: None,
            faults: Vec::new(),
        }
    }

    pub fn kind(&self) -> JobKind {
        match self {
            JobSpec::SinglePair { .. } => JobKind::SinglePair,
            JobSpec::Batch { .. } => JobKind::Batch,
        }
    }

    /// Display name: the pair id, or `batch(N)`.
    pub fn name(&self) -> String {
        match self {
            JobSpec::SinglePair { id, .. } => id.to_string(),
            JobSpec::Batch { jobs, .. } => format!("batch({})", jobs.len()),
        }
    }

    /// Total DP cells this job will compute.
    pub fn total_cells(&self) -> u128 {
        match self {
            JobSpec::SinglePair { a, b, .. } => a.len() as u128 * b.len() as u128,
            JobSpec::Batch { jobs, .. } => jobs.iter().map(BatchJob::cells).sum(),
        }
    }

    /// Number of pairs (outcomes) this job will report.
    pub fn pairs(&self) -> usize {
        match self {
            JobSpec::SinglePair { .. } => 1,
            JobSpec::Batch { jobs, .. } => jobs.len(),
        }
    }

    /// Execute on `platform` with the executor-level defaults: `base` for
    /// jobs without a config override, `recovery` for device-loss
    /// survival, optional live telemetry and an optional cooperative
    /// cancellation token (polled at checkpoint boundaries / between
    /// pairs). Scores are bit-identical to solo runs of the same pairs.
    pub fn execute(
        &self,
        platform: &Platform,
        base: &RunConfig,
        recovery: Option<RecoveryPolicy>,
        live: Option<Arc<LiveTelemetry>>,
        cancel: Option<Arc<AtomicBool>>,
    ) -> Result<JobReport, MegaswError> {
        match self {
            JobSpec::SinglePair {
                id,
                a,
                b,
                config,
                faults,
            } => {
                let (m, n) = (outcome_len(a.len())?, outcome_len(b.len())?);
                let cfg = config.clone().unwrap_or_else(|| base.clone());
                let mut run = PipelineRun::new(a, b, platform)
                    .config(cfg)
                    .faults(faults.clone());
                if let Some(policy) = recovery {
                    run = run.recover(policy);
                }
                if let Some(live) = live {
                    run = run.live(live);
                }
                if let Some(token) = cancel {
                    run = run.cancel(token);
                }
                let t = Instant::now();
                let report = run.run()?;
                Ok(JobReport::from_single(id, m, n, &report, t.elapsed()))
            }
            JobSpec::Batch {
                jobs,
                config,
                faults,
            } => {
                let cfg = config
                    .clone()
                    .unwrap_or_else(|| BatchConfig::default().with_base(base.clone()));
                let mut run = BatchRun::new(jobs, platform)
                    .config(cfg)
                    .faults(faults.clone());
                if let Some(policy) = recovery {
                    run = run.recover(policy);
                }
                if let Some(live) = live {
                    run = run.live(live);
                }
                if let Some(token) = cancel {
                    run = run.cancel(token);
                }
                let report = run.run()?;
                Ok(JobReport::from(&report))
            }
        }
    }
}

/// How one pair fared, whatever route executed it. For batch jobs this is
/// the per-pair record (formerly `batch::PairOutcome`); a single-pair job
/// reports exactly one. A finished report lives as long as its holder
/// keeps it, so the record is kept small (96 bytes) and building one
/// allocates nothing: the id is shared with the submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Index into the submitted pair list (0 for single-pair jobs).
    pub pair: usize,
    pub id: Arc<str>,
    /// Pair side lengths. Both routes refuse a side beyond `u32::MAX`
    /// before running it.
    pub m: u32,
    pub n: u32,
    pub cells: u128,
    /// Best cell — bit-identical to a solo
    /// [`PipelineRun`](crate::pipeline::PipelineRun) of this pair.
    pub best: BestCell,
    /// Device that ran the pair whole, or `None` for the full-platform
    /// slab-pipeline route.
    pub device: Option<u16>,
    /// True when the pair routed through the full-platform pipeline.
    pub large: bool,
    pub latency: Duration,
    /// In-run checkpoint recoveries (full-platform routes only; dispatched
    /// small-pair device losses surface as batch-level requeues instead).
    /// At most one per device.
    pub recoveries: u16,
}

/// A pair side as a [`JobOutcome`] length, or the error that refuses the
/// pair before it runs.
pub(crate) fn outcome_len(len: usize) -> Result<u32, MegaswError> {
    u32::try_from(len).map_err(|_| {
        MegaswError::Pipeline(PipelineError::InvalidConfig(format!(
            "a pair side of {len} bases exceeds the {} supported",
            u32::MAX
        )))
    })
}

/// A run's recovery count as a [`JobOutcome`] field. One recovery retires
/// one device, so the count never approaches `u16::MAX`.
pub(crate) fn outcome_recoveries(recoveries: u64) -> u16 {
    u16::try_from(recoveries).unwrap_or(u16::MAX)
}

/// The common aggregate every finished job produces — single-pair and
/// batch collapse into one shape, so every consumer (CLI, HTTP, bench,
/// chaos tests) reads the same fields.
#[derive(Debug, Clone)]
pub struct JobReport {
    pub kind: JobKind,
    /// One outcome per submitted pair, in submission order.
    pub outcomes: Vec<JobOutcome>,
    pub total_cells: u128,
    pub wall_time: Duration,
    pub gcups_wall: f64,
    /// Device losses survived (in-run recoveries + requeues).
    pub recoveries: u64,
    /// Pairs requeued after losing their device (batch route only).
    pub requeued: u64,
    /// Platform indices blacklisted while this job ran. Scoped to the
    /// job: the next job starts with the full platform again.
    pub failed_devices: Vec<usize>,
    pub latency_p50: Duration,
    pub latency_p90: Duration,
    pub latency_p99: Duration,
}

impl JobReport {
    /// Highest score across the job's pairs.
    pub fn best_score(&self) -> i32 {
        self.outcomes
            .iter()
            .map(|o| o.best.score)
            .max()
            .unwrap_or(0)
    }

    /// Adapt a single-pair `RunReport`. The one outcome's latency is the
    /// measured wall time, so all three percentiles collapse onto it.
    pub fn from_single(
        id: &Arc<str>,
        m: u32,
        n: u32,
        report: &RunReport,
        latency: Duration,
    ) -> JobReport {
        let recovery = report.recovery.as_ref();
        let outcome = JobOutcome {
            pair: 0,
            id: Arc::clone(id),
            m,
            n,
            cells: report.total_cells,
            best: report.best,
            device: None,
            large: true,
            latency,
            recoveries: recovery.map_or(0, |r| outcome_recoveries(r.recoveries)),
        };
        JobReport {
            kind: JobKind::SinglePair,
            total_cells: report.total_cells,
            wall_time: report.wall_time.unwrap_or(latency),
            gcups_wall: report.gcups_wall.unwrap_or(0.0),
            recoveries: recovery.map_or(0, |r| r.recoveries),
            requeued: 0,
            failed_devices: recovery.map_or_else(Vec::new, |r| r.failed_devices.clone()),
            latency_p50: latency,
            latency_p90: latency,
            latency_p99: latency,
            outcomes: vec![outcome],
        }
    }
}

impl From<&BatchReport> for JobReport {
    fn from(report: &BatchReport) -> JobReport {
        JobReport {
            kind: JobKind::Batch,
            outcomes: report.pairs.clone(),
            total_cells: report.total_cells,
            wall_time: report.wall_time,
            gcups_wall: report.gcups_wall,
            recoveries: report.recoveries,
            requeued: report.requeued,
            failed_devices: report.failed_devices.clone(),
            latency_p50: report.latency_p50,
            latency_p90: report.latency_p90,
            latency_p99: report.latency_p99,
        }
    }
}

impl std::fmt::Display for JobReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "job[{}]: {} pair(s) · {:.3e} cells · wall {:.3}s · {:.3} GCUPS",
            self.kind,
            self.outcomes.len(),
            self.total_cells as f64,
            self.wall_time.as_secs_f64(),
            self.gcups_wall,
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

/// Re-derive latency percentiles from a set of job latencies (the
/// service's stream-level SLOs, as opposed to the per-pair percentiles a
/// batch report carries).
pub fn latency_percentiles(latencies: &mut [Duration]) -> (Duration, Duration, Duration) {
    latencies.sort_unstable();
    (
        percentile(latencies, 50.0),
        percentile(latencies, 90.0),
        percentile(latencies, 99.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(m: usize, n: usize) -> (Vec<u8>, Vec<u8>) {
        (
            (0..m).map(|k| (k % 4) as u8).collect(),
            (0..n).map(|k| ((k + 1) % 4) as u8).collect(),
        )
    }

    #[test]
    fn single_pair_job_matches_solo_run() {
        let (a, b) = seqs(96, 120);
        let platform = Platform::env1();
        let base = RunConfig::test_default();
        let job = JobSpec::single("one", a.clone(), b.clone());
        let report = job.execute(&platform, &base, None, None, None).unwrap();
        let solo = PipelineRun::new(&a, &b, &platform)
            .config(base.clone())
            .run()
            .unwrap();
        assert_eq!(report.kind, JobKind::SinglePair);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].best, solo.best);
        assert_eq!(report.best_score(), solo.best.score);
        assert_eq!(report.total_cells, solo.total_cells);
    }

    #[test]
    fn batch_job_reports_every_pair_through_the_common_type() {
        let pairs: Vec<BatchJob> = (0..5)
            .map(|i| {
                let (a, b) = seqs(40 + 8 * i, 52 + 4 * i);
                BatchJob::new(format!("p{i}"), a, b)
            })
            .collect();
        let platform = Platform::env1();
        let base = RunConfig::test_default();
        let job = JobSpec::Batch {
            jobs: pairs.clone(),
            config: Some(BatchConfig::test_default()),
            faults: Vec::new(),
        };
        assert_eq!(job.pairs(), 5);
        let report = job.execute(&platform, &base, None, None, None).unwrap();
        assert_eq!(report.kind, JobKind::Batch);
        assert_eq!(report.outcomes.len(), 5);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.pair, i);
            let solo = PipelineRun::new(&pairs[i].a, &pairs[i].b, &platform)
                .config(RunConfig::test_default())
                .run()
                .unwrap();
            assert_eq!(o.best, solo.best, "pair {i} diverged from its solo run");
        }
    }

    #[test]
    fn outcomes_are_compact() {
        // A finished report is held for as long as its caller (or the
        // resident service's job table) keeps it, so its per-pair cost is
        // the outcome itself: the id is shared with the job, not copied.
        assert!(
            std::mem::size_of::<JobOutcome>() <= 96,
            "JobOutcome grew to {} bytes",
            std::mem::size_of::<JobOutcome>()
        );
        let jobs: Vec<BatchJob> = (0..3)
            .map(|i| {
                let (a, b) = seqs(30 + 5 * i, 40);
                BatchJob::new(format!("pair{i}"), a, b)
            })
            .collect();
        let report = JobSpec::batch(jobs.clone())
            .execute(
                &Platform::env1(),
                &RunConfig::test_default(),
                None,
                None,
                None,
            )
            .unwrap();
        for (o, job) in report.outcomes.iter().zip(&jobs) {
            assert!(Arc::ptr_eq(&o.id, &job.id), "pair {} copied its id", o.pair);
            assert_eq!((o.m as usize, o.n as usize), (job.a.len(), job.b.len()));
            assert_eq!(o.cells, job.cells());
            assert_eq!(o.large, o.device.is_none());
        }
    }

    #[test]
    fn spec_accessors_describe_the_workload() {
        let (a, b) = seqs(10, 20);
        let single = JobSpec::single("s", a.clone(), b.clone());
        assert_eq!(single.kind(), JobKind::SinglePair);
        assert_eq!(single.name(), "s");
        assert_eq!(single.total_cells(), 200);
        let batch = JobSpec::batch(vec![BatchJob::new("x", a, b)]);
        assert_eq!(batch.kind(), JobKind::Batch);
        assert_eq!(batch.name(), "batch(1)");
        assert_eq!(batch.total_cells(), 200);
        assert_eq!(JobKind::Batch.to_string(), "batch");
    }

    #[test]
    fn pre_set_cancellation_token_stops_both_routes() {
        use std::sync::atomic::Ordering;
        let token = Arc::new(AtomicBool::new(false));
        token.store(true, Ordering::Relaxed);
        let (a, b) = seqs(64, 64);
        let platform = Platform::env1();
        let base = RunConfig::test_default();
        for job in [
            JobSpec::single("c", a.clone(), b.clone()),
            JobSpec::batch(vec![BatchJob::new("c", a.clone(), b.clone())]),
        ] {
            let err = job
                .execute(&platform, &base, None, None, Some(Arc::clone(&token)))
                .unwrap_err();
            assert!(
                matches!(
                    err.as_pipeline(),
                    Some(crate::pipeline::PipelineError::Cancelled)
                ),
                "expected Cancelled, got {err}"
            );
        }
    }
}
