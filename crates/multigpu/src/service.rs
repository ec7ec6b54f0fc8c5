//! The resident alignment service: a long-lived engine that owns the
//! device platform and drains a prioritized queue of [`JobSpec`]s.
//!
//! Every prior layer lives and dies with one CLI invocation. This module
//! is ROADMAP item 2's answer — the shape FutureSDR's runtime/ctrl-port
//! split suggests: a resident runtime that accepts work, streams
//! progress, and exposes remote control, keeping the batch packer and
//! calibrated device weights hot under a continuous job stream instead
//! of paying startup per invocation.
//!
//! Architecture (DESIGN.md §15):
//!
//! * [`AlignService::start`] spawns **one executor thread** that owns the
//!   platform. Jobs execute strictly one at a time — the platform is one
//!   set of devices; running two slab pipelines at once would just
//!   timeslice them — popped in priority order (higher first), FIFO
//!   within a priority.
//! * Submission ([`AlignService::submit`]) assigns a monotonically
//!   increasing id, parks the spec in the queue, and returns immediately.
//!   Each job gets its own [`LiveTelemetry`] handle at submit time, so
//!   progress is streamable from the moment it starts running.
//! * **Cancellation** is cooperative: [`AlignService::cancel`] removes a
//!   still-queued job outright; a running job has its token set and stops
//!   at its next checkpoint boundary (single-pair) or pair boundary
//!   (batch) — see [`PipelineError::Cancelled`]. Terminal jobs are
//!   untouched.
//! * **Device loss is scoped to the job.** Blacklists live inside
//!   [`PipelineRun`](crate::pipeline::PipelineRun) /
//!   [`BatchRun`](crate::batch::BatchRun), so a loss during job N
//!   recovers in-run (bit-identical score) and the queue survives: job
//!   N+1 starts with the full platform again and simply re-routes if the
//!   device is still dead. No queued job is dropped or reordered.
//! * **SLOs**: the service republishes a `service.*` metrics registry to
//!   its [`MetricsHub`] on every transition and every publisher tick —
//!   job counters, queue depth/peak gauges, and per-job p50/p90/p99
//!   latency (submission → completion, in ms, as explicit counters
//!   because the Prometheus exposition carries no quantile lines).
//! * [`AlignService::handler`] mounts the HTTP surface onto
//!   [`MetricsServer::bind_routed`](megasw_obs::MetricsServer):
//!   `POST /jobs`, `GET /jobs`, `GET /jobs/:id`, `GET /jobs/:id/events`
//!   (NDJSON progress), `DELETE /jobs/:id`; `/metrics`, `/health` and
//!   `/flight` stay on the built-in routes.

use crate::batch::{percentile, BatchConfig, BatchFault, BatchJob};
use crate::checkpoint::RecoveryPolicy;
use crate::config::{CheckpointCadence, PartitionPolicy, PruneMode, RebalanceMode, RunConfig};
use crate::job::{JobKind, JobReport, JobSpec};
use crate::pipeline::{FaultSchedule, PipelineError};
use megasw_gpusim::Platform;
use megasw_obs::json::{self, escape, Value};
use megasw_obs::{LiveTelemetry, MetricsHub, MetricsRegistry, Request, Response};
use megasw_seq::fasta::read_single_fasta_str;
use megasw_seq::DnaSeq;
use megasw_sw::kernel::KernelDispatch;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle of one job. The only transitions are
/// `Queued → Running → {Done, Failed, Cancelled}` and
/// `Queued → Cancelled` (cancelled before execution started).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobState {
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Service-wide execution defaults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Config for jobs without a per-job override.
    pub base: RunConfig,
    /// Recovery policy applied to every job (device-loss survival).
    pub recovery: Option<RecoveryPolicy>,
    /// Sampling interval of `GET /jobs/:id/events` streams.
    pub events_interval: Duration,
}

impl ServiceConfig {
    pub fn new(base: RunConfig) -> ServiceConfig {
        ServiceConfig {
            base,
            recovery: None,
            events_interval: Duration::from_millis(50),
        }
    }

    /// Small-geometry defaults for tests.
    pub fn test_default() -> ServiceConfig {
        ServiceConfig {
            base: RunConfig::test_default(),
            recovery: None,
            events_interval: Duration::from_millis(5),
        }
    }

    pub fn with_recovery(mut self, policy: RecoveryPolicy) -> ServiceConfig {
        self.recovery = Some(policy);
        self
    }
}

/// Public snapshot of one job, whatever its state.
#[derive(Debug, Clone)]
pub struct JobStatus {
    pub id: u64,
    pub name: String,
    pub kind: JobKind,
    pub priority: i64,
    pub state: JobState,
    /// Present once the job is `Done`.
    pub report: Option<JobReport>,
    /// Present once the job is `Failed`.
    pub error: Option<String>,
    /// Submission → completion, present once terminal (except jobs
    /// cancelled while still queued, which never ran).
    pub latency: Option<Duration>,
}

struct JobEntry {
    id: u64,
    name: String,
    kind: JobKind,
    priority: i64,
    state: JobState,
    /// Taken by the executor when the job starts running.
    spec: Option<JobSpec>,
    cancel: Arc<AtomicBool>,
    live: Arc<LiveTelemetry>,
    report: Option<JobReport>,
    error: Option<String>,
    submitted: Instant,
    latency: Option<Duration>,
}

impl JobEntry {
    fn status(&self) -> JobStatus {
        JobStatus {
            id: self.id,
            name: self.name.clone(),
            kind: self.kind,
            priority: self.priority,
            state: self.state,
            report: self.report.clone(),
            error: self.error.clone(),
            latency: self.latency,
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    recoveries: u64,
}

struct State {
    next_id: u64,
    /// Job ids in execution order: higher priority first, FIFO within a
    /// priority (maintained at insert).
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    running: Option<u64>,
    queue_peak: u64,
    counters: Counters,
    /// Latencies of `Done` jobs, for the stream-level SLO percentiles.
    latencies: Vec<Duration>,
    /// Ids in the order their execution finished (chaos tests assert
    /// device loss never reorders the stream).
    completed_order: Vec<u64>,
}

struct Inner {
    platform: Platform,
    cfg: ServiceConfig,
    hub: Arc<MetricsHub>,
    state: Mutex<State>,
    cv: Condvar,
    stop: AtomicBool,
}

/// The resident engine. Dropping it (or calling
/// [`AlignService::shutdown`]) stops the executor: the running job is
/// cancelled cooperatively and queued jobs stay unexecuted.
pub struct AlignService {
    inner: Arc<Inner>,
    exec: Option<std::thread::JoinHandle<()>>,
    publisher: Option<std::thread::JoinHandle<()>>,
}

impl AlignService {
    /// Spawn the executor (and the metrics publisher) for `platform`,
    /// publishing SLOs into `hub`.
    pub fn start(platform: Platform, cfg: ServiceConfig, hub: Arc<MetricsHub>) -> AlignService {
        let inner = Arc::new(Inner {
            platform,
            cfg,
            hub,
            state: Mutex::new(State {
                next_id: 1,
                queue: VecDeque::new(),
                jobs: BTreeMap::new(),
                running: None,
                queue_peak: 0,
                counters: Counters::default(),
                latencies: Vec::new(),
                completed_order: Vec::new(),
            }),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        inner.publish();
        let exec = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("megasw-service-exec".into())
                .spawn(move || executor(inner))
                .expect("spawn service executor")
        };
        let publisher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("megasw-service-pub".into())
                .spawn(move || {
                    while !inner.stop.load(Ordering::Relaxed) {
                        inner.publish();
                        std::thread::sleep(Duration::from_millis(200));
                    }
                })
                .expect("spawn service publisher")
        };
        AlignService {
            inner,
            exec: Some(exec),
            publisher: Some(publisher),
        }
    }

    /// The hub this service publishes into (serve it with
    /// [`MetricsServer`](megasw_obs::MetricsServer)).
    pub fn hub(&self) -> Arc<MetricsHub> {
        Arc::clone(&self.inner.hub)
    }

    /// Enqueue a job at default priority 0. Returns its id immediately.
    pub fn submit(&self, spec: JobSpec) -> u64 {
        self.submit_with_priority(spec, 0)
    }

    /// Enqueue a job; higher `priority` runs sooner, FIFO within equal
    /// priorities.
    pub fn submit_with_priority(&self, spec: JobSpec, priority: i64) -> u64 {
        let id = self.inner.enqueue(spec, priority);
        self.inner.cv.notify_all();
        self.inner.publish();
        id
    }

    /// Snapshot of one job, `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.inner
            .state
            .lock()
            .unwrap()
            .jobs
            .get(&id)
            .map(JobEntry::status)
    }

    /// Snapshot of every job the service has seen, by ascending id.
    pub fn jobs(&self) -> Vec<JobStatus> {
        self.inner
            .state
            .lock()
            .unwrap()
            .jobs
            .values()
            .map(JobEntry::status)
            .collect()
    }

    /// Cooperatively cancel a job; returns its state after the request
    /// (`Cancelled` immediately for queued jobs, `Running` for a job that
    /// will stop at its next checkpoint, unchanged for terminal jobs),
    /// `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let state = self.inner.cancel(id);
        self.inner.publish();
        state
    }

    /// Jobs whose execution has finished, in completion order.
    pub fn completed_order(&self) -> Vec<u64> {
        self.inner.state.lock().unwrap().completed_order.clone()
    }

    /// Jobs currently waiting to run.
    pub fn queue_depth(&self) -> usize {
        self.inner.state.lock().unwrap().queue.len()
    }

    /// Block until job `id` reaches a terminal state (polling) or
    /// `timeout` elapses; returns the final status, `None` on timeout or
    /// unknown id.
    pub fn wait(&self, id: u64, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(id)?;
            if status.state.is_terminal() {
                return Some(status);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The HTTP route hook for
    /// [`MetricsServer::bind_routed`](megasw_obs::MetricsServer): the
    /// `/jobs` surface; `None` (fall-through to the built-in routes) for
    /// everything else.
    pub fn handler(&self) -> megasw_obs::Handler {
        let inner = Arc::clone(&self.inner);
        Arc::new(move |req: &Request| route(&inner, req))
    }

    /// Stop the executor: the running job (if any) is cancelled
    /// cooperatively, queued jobs stay `Queued` forever. Idempotent.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        {
            let st = self.inner.state.lock().unwrap();
            if let Some(id) = st.running {
                if let Some(job) = st.jobs.get(&id) {
                    job.cancel.store(true, Ordering::Relaxed);
                }
            }
        }
        self.inner.cv.notify_all();
        if let Some(h) = self.exec.take() {
            let _ = h.join();
        }
        if let Some(h) = self.publisher.take() {
            let _ = h.join();
        }
    }
}

impl Drop for AlignService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn executor(inner: Arc<Inner>) {
    loop {
        let (id, spec, cancel, live) = {
            let mut st = inner.state.lock().unwrap();
            'pick: loop {
                if inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                while let Some(id) = st.queue.pop_front() {
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    if job.state != JobState::Queued {
                        continue; // cancelled while queued
                    }
                    job.state = JobState::Running;
                    let spec = job.spec.take().expect("queued job carries its spec");
                    let cancel = Arc::clone(&job.cancel);
                    let live = Arc::clone(&job.live);
                    st.running = Some(id);
                    break 'pick (id, spec, cancel, live);
                }
                st = inner.cv.wait(st).unwrap();
            }
        };
        inner.publish();

        let result = spec.execute(
            &inner.platform,
            &inner.cfg.base,
            inner.cfg.recovery,
            Some(live),
            Some(cancel),
        );

        {
            let mut st = inner.state.lock().unwrap();
            let latency = {
                let job = st.jobs.get_mut(&id).expect("running job exists");
                let latency = job.submitted.elapsed();
                job.latency = Some(latency);
                match result {
                    Ok(report) => {
                        job.state = JobState::Done;
                        job.report = Some(report);
                    }
                    Err(e) => {
                        if matches!(e.as_pipeline(), Some(PipelineError::Cancelled)) {
                            job.state = JobState::Cancelled;
                        } else {
                            job.state = JobState::Failed;
                            job.error = Some(e.to_string());
                        }
                    }
                }
                latency
            };
            let job_state = st.jobs[&id].state;
            let job_recoveries = st.jobs[&id].report.as_ref().map_or(0, |r| r.recoveries);
            match job_state {
                JobState::Done => {
                    st.counters.completed += 1;
                    st.counters.recoveries += job_recoveries;
                    st.latencies.push(latency);
                }
                JobState::Cancelled => st.counters.cancelled += 1,
                _ => st.counters.failed += 1,
            }
            st.completed_order.push(id);
            st.running = None;
        }
        inner.publish();
    }
}

impl Inner {
    fn enqueue(&self, spec: JobSpec, priority: i64) -> u64 {
        let mut st = self.state.lock().unwrap();
        let id = st.next_id;
        st.next_id += 1;
        let live = LiveTelemetry::new(
            self.platform.len(),
            u64::try_from(spec.total_cells()).unwrap_or(u64::MAX),
        );
        let entry = JobEntry {
            id,
            name: spec.name(),
            kind: spec.kind(),
            priority,
            state: JobState::Queued,
            spec: Some(spec),
            cancel: Arc::new(AtomicBool::new(false)),
            live,
            report: None,
            error: None,
            submitted: Instant::now(),
            latency: None,
        };
        // Insert before the first queued job with a strictly lower
        // priority: higher priority first, FIFO within a priority.
        let pos = st
            .queue
            .iter()
            .position(|qid| st.jobs[qid].priority < priority)
            .unwrap_or(st.queue.len());
        st.queue.insert(pos, id);
        st.jobs.insert(id, entry);
        st.counters.submitted += 1;
        st.queue_peak = st.queue_peak.max(st.queue.len() as u64);
        id
    }

    fn cancel(&self, id: u64) -> Option<JobState> {
        let mut st = self.state.lock().unwrap();
        let job = st.jobs.get_mut(&id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.cancel.store(true, Ordering::Relaxed);
                st.counters.cancelled += 1;
                st.queue.retain(|&q| q != id);
            }
            JobState::Running => job.cancel.store(true, Ordering::Relaxed),
            _ => {}
        }
        Some(st.jobs[&id].state)
    }

    /// Rebuild and publish the `service.*` registry plus `/health`.
    fn publish(&self) {
        let st = self.state.lock().unwrap();
        let mut m = MetricsRegistry::new();
        m.describe("service.jobs_submitted", "Jobs accepted into the queue");
        m.describe("service.jobs_completed", "Jobs finished successfully");
        m.describe("service.jobs_failed", "Jobs that errored");
        m.describe(
            "service.jobs_cancelled",
            "Jobs cancelled before or during execution",
        );
        m.describe(
            "service.recoveries_total",
            "Device losses survived across all jobs",
        );
        m.describe("service.queue_depth", "Jobs currently waiting to run");
        m.describe("service.queue_peak", "Highest queue depth observed");
        m.describe("service.jobs_running", "Jobs currently executing (0 or 1)");
        m.describe(
            "service.job_latency_p50_ms",
            "Median submission-to-completion latency of completed jobs (ms)",
        );
        m.describe(
            "service.job_latency_p90_ms",
            "p90 submission-to-completion latency of completed jobs (ms)",
        );
        m.describe(
            "service.job_latency_p99_ms",
            "p99 submission-to-completion latency of completed jobs (ms)",
        );
        m.incr("service.jobs_submitted", st.counters.submitted);
        m.incr("service.jobs_completed", st.counters.completed);
        m.incr("service.jobs_failed", st.counters.failed);
        m.incr("service.jobs_cancelled", st.counters.cancelled);
        m.incr("service.recoveries_total", st.counters.recoveries);
        m.incr("service.queue_depth", st.queue.len() as u64);
        m.incr("service.queue_peak", st.queue_peak);
        m.incr("service.jobs_running", u64::from(st.running.is_some()));
        if !st.latencies.is_empty() {
            let mut lats = st.latencies.clone();
            lats.sort_unstable();
            // Explicit counters, not histogram buckets: the Prometheus
            // text exposition renders no quantile lines, and the SLO is
            // exactly "p50/p99 over completed jobs".
            m.incr(
                "service.job_latency_p50_ms",
                percentile(&lats, 50.0).as_millis() as u64,
            );
            m.incr(
                "service.job_latency_p90_ms",
                percentile(&lats, 90.0).as_millis() as u64,
            );
            m.incr(
                "service.job_latency_p99_ms",
                percentile(&lats, 99.0).as_millis() as u64,
            );
            for l in &lats {
                m.observe("service.job_latency_ms", l.as_secs_f64() * 1e3);
            }
        }
        let health = if st.running.is_some() {
            "running"
        } else if st.queue.is_empty() {
            "idle"
        } else {
            "queued"
        };
        drop(st);
        self.hub.publish(m);
        self.hub.set_health(true, health);
    }
}

// ───────────────────────────── HTTP surface ─────────────────────────────

fn route(inner: &Arc<Inner>, req: &Request) -> Option<Response> {
    let path = req.path.as_str();
    if path == "/jobs" {
        return match req.method.as_str() {
            "POST" => Some(match submit_from_json(inner, &req.body_str()) {
                Ok(id) => {
                    inner.cv.notify_all();
                    inner.publish();
                    Response::json(
                        "202 Accepted",
                        format!("{{\"job\": {id}, \"state\": \"queued\"}}\n"),
                    )
                }
                Err(msg) => bad_request(&msg),
            }),
            "GET" => {
                let st = inner.state.lock().unwrap();
                let jobs: Vec<String> = st.jobs.values().map(|j| job_json(j, false)).collect();
                Some(Response::ok_json(format!(
                    "{{\"jobs\": [{}]}}\n",
                    jobs.join(", ")
                )))
            }
            _ => None, // fall through to the built-in 405
        };
    }
    let rest = path.strip_prefix("/jobs/")?;
    let (id_str, events) = match rest.strip_suffix("/events") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    let id: u64 = match id_str.parse() {
        Ok(id) => id,
        Err(_) => return Some(bad_request("job id must be an integer")),
    };
    match (req.method.as_str(), events) {
        ("GET", false) => Some({
            let st = inner.state.lock().unwrap();
            match st.jobs.get(&id) {
                Some(job) => Response::ok_json(format!("{}\n", job_json(job, true))),
                None => not_found(id),
            }
        }),
        ("GET", true) => Some(events_stream(inner, id)),
        ("DELETE", false) => Some(match inner.cancel(id) {
            Some(state) => {
                inner.publish();
                Response::ok_json(format!(
                    "{{\"job\": {id}, \"state\": \"{}\"}}\n",
                    state.name()
                ))
            }
            None => not_found(id),
        }),
        _ => None,
    }
}

fn bad_request(msg: &str) -> Response {
    Response::json(
        "400 Bad Request",
        format!("{{\"error\": \"{}\"}}\n", escape(msg)),
    )
}

fn not_found(id: u64) -> Response {
    Response::json("404 Not Found", format!("{{\"error\": \"no job {id}\"}}\n"))
}

/// NDJSON progress stream: one line per sampling tick (plus a final line
/// at the terminal state), fed from the job's [`LiveTelemetry`].
fn events_stream(inner: &Arc<Inner>, id: u64) -> Response {
    {
        let st = inner.state.lock().unwrap();
        if !st.jobs.contains_key(&id) {
            return not_found(id);
        }
    }
    let inner = Arc::clone(inner);
    let (tx, rx) = mpsc::sync_channel::<String>(64);
    std::thread::Builder::new()
        .name("megasw-service-events".into())
        .spawn(move || {
            loop {
                let (state, line) = {
                    let st = inner.state.lock().unwrap();
                    let Some(job) = st.jobs.get(&id) else { return };
                    (job.state, event_line(job))
                };
                if tx.send(line).is_err() {
                    return; // client hung up
                }
                if state.is_terminal() || inner.stop.load(Ordering::Relaxed) {
                    return;
                }
                std::thread::sleep(inner.cfg.events_interval);
            }
        })
        .expect("spawn events sampler");
    Response::ndjson_stream(rx)
}

fn event_line(job: &JobEntry) -> String {
    let snap = job.live.snapshot();
    let mut line = format!(
        "{{\"job\": {}, \"state\": \"{}\", \"fraction_done\": {:.4}, \"cells_done\": {}, \"gcups\": {:.3}, \"recoveries\": {}",
        job.id,
        job.state.name(),
        snap.fraction_done(),
        snap.cells_done(),
        snap.gcups_cumulative(),
        snap.recoveries,
    );
    if snap.pairs_total > 0 {
        line.push_str(&format!(
            ", \"pairs_done\": {}, \"pairs_total\": {}",
            snap.pairs_done, snap.pairs_total
        ));
    }
    if let Some(report) = &job.report {
        line.push_str(&format!(", \"best_score\": {}", report.best_score()));
    }
    line.push_str("}\n");
    line
}

/// One job as a JSON object; `full` adds the report (outcome list).
fn job_json(job: &JobEntry, full: bool) -> String {
    let mut s = format!(
        "{{\"job\": {}, \"name\": \"{}\", \"kind\": \"{}\", \"state\": \"{}\", \"priority\": {}",
        job.id,
        escape(&job.name),
        job.kind.name(),
        job.state.name(),
        job.priority,
    );
    if let Some(latency) = job.latency {
        s.push_str(&format!(
            ", \"latency_ms\": {:.3}",
            latency.as_secs_f64() * 1e3
        ));
    }
    if let Some(err) = &job.error {
        s.push_str(&format!(", \"error\": \"{}\"", escape(err)));
    }
    if let Some(report) = &job.report {
        s.push_str(&format!(", \"best_score\": {}", report.best_score()));
        if full {
            s.push_str(&format!(", \"report\": {}", report_json(report)));
        }
    }
    s.push('}');
    s
}

fn report_json(report: &JobReport) -> String {
    let outcomes: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| {
            let device = o
                .device
                .map_or_else(|| "null".to_string(), |d| d.to_string());
            format!(
                "{{\"pair\": {}, \"id\": \"{}\", \"m\": {}, \"n\": {}, \"score\": {}, \"i\": {}, \"j\": {}, \"device\": {}, \"large\": {}, \"latency_ms\": {:.3}, \"recoveries\": {}}}",
                o.pair,
                escape(&o.id),
                o.m,
                o.n,
                o.best.score,
                o.best.i,
                o.best.j,
                device,
                o.large,
                o.latency.as_secs_f64() * 1e3,
                o.recoveries,
            )
        })
        .collect();
    let failed: Vec<String> = report.failed_devices.iter().map(usize::to_string).collect();
    format!(
        "{{\"kind\": \"{}\", \"best_score\": {}, \"total_cells\": {}, \"wall_ms\": {:.3}, \"gcups\": {:.3}, \"recoveries\": {}, \"requeued\": {}, \"failed_devices\": [{}], \"latency_p50_ms\": {:.3}, \"latency_p90_ms\": {:.3}, \"latency_p99_ms\": {:.3}, \"outcomes\": [{}]}}",
        report.kind.name(),
        report.best_score(),
        report.total_cells,
        report.wall_time.as_secs_f64() * 1e3,
        report.gcups_wall,
        report.recoveries,
        report.requeued,
        failed.join(", "),
        report.latency_p50.as_secs_f64() * 1e3,
        report.latency_p90.as_secs_f64() * 1e3,
        report.latency_p99.as_secs_f64() * 1e3,
        outcomes.join(", "),
    )
}

// ─────────────────────────── request decoding ───────────────────────────

/// Decode a `POST /jobs` body into a [`JobSpec`] and enqueue it.
///
/// Body shape (`kind` may be omitted — `pairs` implies `batch`):
///
/// ```json
/// {"kind": "single-pair", "id": "chr1-vs-chr1", "a": "ACGT…", "b": ">hdr\nACGT…",
///  "priority": 0, "policy": {"kernel": "avx2", "prune": "distributed",
///  "rebalance": "on:0.1", "checkpoint_rows": 8, "equal": true, "block": 256},
///  "fault": "0:4:compute"}
/// {"kind": "batch", "pairs": [{"id": "p0", "a": "…", "b": "…"}, …],
///  "threshold_cells": 16777216, "bins": 8, "faults": ["2@0:1"]}
/// ```
///
/// Sequences are raw bases or FASTA text (anything containing `>`).
fn submit_from_json(inner: &Arc<Inner>, body: &str) -> Result<u64, String> {
    let v = json::parse(body).map_err(|e| format!("invalid JSON body: {e}"))?;
    let priority = v.get("priority").and_then(Value::as_f64).unwrap_or(0.0) as i64;
    let config = match v.get("policy") {
        Some(p) => Some(config_from_policy(&inner.cfg.base, p)?),
        None => None,
    };
    let is_batch = match v.get("kind").and_then(Value::as_str) {
        Some("batch") => true,
        Some("single-pair") => false,
        Some(other) => return Err(format!("unknown job kind `{other}`")),
        None => v.get("pairs").is_some(),
    };
    let spec = if is_batch {
        let pairs = v
            .get("pairs")
            .and_then(Value::as_array)
            .ok_or("batch job needs a `pairs` array")?;
        if pairs.is_empty() {
            return Err("batch job needs at least one pair".into());
        }
        let mut jobs = Vec::with_capacity(pairs.len());
        for (i, p) in pairs.iter().enumerate() {
            let id = p
                .get("id")
                .and_then(Value::as_str)
                .map_or_else(|| format!("pair{i}"), str::to_string);
            let a = codes_from_text(require_str(p, "a", &id)?)?;
            let b = codes_from_text(require_str(p, "b", &id)?)?;
            jobs.push(BatchJob::new(id, a, b));
        }
        let mut batch_cfg = BatchConfig::default();
        if let Some(base) = config {
            batch_cfg = batch_cfg.with_base(base);
        } else {
            batch_cfg = batch_cfg.with_base(inner.cfg.base.clone());
        }
        if let Some(t) = v.get("threshold_cells").and_then(Value::as_f64) {
            batch_cfg = batch_cfg.with_large_threshold_cells(t as u128);
        }
        if let Some(bins) = v.get("bins").and_then(Value::as_f64) {
            batch_cfg = batch_cfg.with_bins(bins as usize);
        }
        let mut faults: Vec<BatchFault> = Vec::new();
        if let Some(list) = v.get("faults").and_then(Value::as_array) {
            for f in list {
                let s = f.as_str().ok_or("batch `faults` entries must be strings")?;
                faults.push(s.parse::<BatchFault>()?);
            }
        }
        JobSpec::Batch {
            jobs,
            config: Some(batch_cfg),
            faults,
        }
    } else {
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or("pair")
            .to_string();
        let a = codes_from_text(require_str(&v, "a", &id)?)?;
        let b = codes_from_text(require_str(&v, "b", &id)?)?;
        let faults = match v.get("fault").and_then(Value::as_str) {
            Some(s) => s.parse::<FaultSchedule>()?,
            None => FaultSchedule::default(),
        };
        JobSpec::SinglePair {
            id: id.into(),
            a,
            b,
            config,
            faults,
        }
    };
    Ok(inner.enqueue(spec, priority))
}

fn require_str<'v>(v: &'v Value, key: &str, id: &str) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("pair `{id}` needs a string `{key}` field"))
}

/// Decode a sequence field: FASTA text (first record) when it contains a
/// `>` header, raw bases otherwise.
fn codes_from_text(text: &str) -> Result<Vec<u8>, String> {
    if text.contains('>') {
        read_single_fasta_str(text)
            .map(|r| r.seq.codes().to_vec())
            .map_err(|e| format!("bad FASTA sequence: {e}"))
    } else {
        DnaSeq::from_ascii(text.trim().as_bytes())
            .map(|s| s.codes().to_vec())
            .map_err(|pos| format!("invalid base at position {pos}"))
    }
}

/// Apply a JSON `policy` object onto a base [`RunConfig`] — the same
/// knobs the CLI's `cli_policy` flags expose, so `megasw submit` can
/// forward `--kernel`/`--prune`/`--rebalance`/… verbatim.
fn config_from_policy(base: &RunConfig, policy: &Value) -> Result<RunConfig, String> {
    let mut cfg = base.clone();
    if let Some(k) = policy.get("kernel").and_then(Value::as_str) {
        cfg = cfg.with_dispatch(KernelDispatch::parse(k)?);
    }
    if let Some(p) = policy.get("prune").and_then(Value::as_str) {
        cfg = cfg.with_pruning(PruneMode::parse(p)?);
    }
    if let Some(r) = policy.get("rebalance").and_then(Value::as_str) {
        cfg = cfg.with_rebalance(RebalanceMode::parse(r)?);
    }
    if let Some(rows) = policy.get("checkpoint_rows").and_then(Value::as_f64) {
        let rows = rows as usize;
        if rows == 0 {
            return Err("checkpoint_rows must be positive".into());
        }
        cfg = cfg.with_checkpoint(CheckpointCadence::EveryRows(rows));
    }
    if policy.get("equal").and_then(as_bool) == Some(true) {
        cfg = cfg.with_partition(PartitionPolicy::Equal);
    }
    if let Some(side) = policy.get("block").and_then(Value::as_f64) {
        cfg = cfg.with_block(side as usize);
    }
    Ok(cfg)
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
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

    fn service() -> AlignService {
        AlignService::start(
            Platform::env1(),
            ServiceConfig::test_default(),
            MetricsHub::new(),
        )
    }

    #[test]
    fn jobs_complete_in_fifo_order_within_a_priority() {
        let svc = service();
        let (a, b) = seqs(64, 64);
        let ids: Vec<u64> = (0..4)
            .map(|i| svc.submit(JobSpec::single(format!("j{i}"), a.clone(), b.clone())))
            .collect();
        for &id in &ids {
            let status = svc.wait(id, Duration::from_secs(30)).expect("job finished");
            assert_eq!(status.state, JobState::Done, "{status:?}");
            assert_eq!(status.report.as_ref().unwrap().outcomes.len(), 1);
        }
        assert_eq!(svc.completed_order(), ids);
        let reg = svc.hub().registry();
        assert_eq!(reg.counter("service.jobs_completed"), Some(4));
        assert_eq!(reg.counter("service.jobs_failed"), Some(0));
    }

    #[test]
    fn higher_priority_jumps_the_queue() {
        let svc = service();
        // A long-enough first job keeps the queue stable while we stack
        // priorities behind it.
        let (big_a, big_b) = seqs(1200, 1200);
        let (a, b) = seqs(48, 48);
        let first = svc.submit(JobSpec::single("first", big_a, big_b));
        let low = svc.submit_with_priority(JobSpec::single("low", a.clone(), b.clone()), 0);
        let high = svc.submit_with_priority(JobSpec::single("high", a.clone(), b.clone()), 5);
        for id in [first, low, high] {
            assert!(svc.wait(id, Duration::from_secs(30)).is_some());
        }
        let order = svc.completed_order();
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(
            pos(high) < pos(low),
            "priority 5 must run before priority 0: {order:?}"
        );
    }

    #[test]
    fn queued_job_cancels_immediately_and_unknown_ids_are_none() {
        let svc = service();
        let (big_a, big_b) = seqs(1200, 1200);
        let (a, b) = seqs(32, 32);
        let running = svc.submit(JobSpec::single("run", big_a, big_b));
        let queued = svc.submit(JobSpec::single("parked", a, b));
        assert_eq!(svc.cancel(queued), Some(JobState::Cancelled));
        assert_eq!(svc.cancel(999), None);
        let status = svc.status(queued).unwrap();
        assert_eq!(status.state, JobState::Cancelled);
        assert!(status.report.is_none());
        // The running job is unaffected and the cancelled one never runs.
        assert_eq!(
            svc.wait(running, Duration::from_secs(30)).unwrap().state,
            JobState::Done
        );
        assert_eq!(svc.completed_order(), vec![running]);
        let reg = svc.hub().registry();
        assert_eq!(reg.counter("service.jobs_cancelled"), Some(1));
    }

    #[test]
    fn http_submit_decodes_policy_faults_and_sequences() {
        let hub = MetricsHub::new();
        let svc = AlignService::start(Platform::env1(), ServiceConfig::test_default(), hub);
        let inner = &svc.inner;
        let id = submit_from_json(
            inner,
            r#"{"id": "x", "a": "ACGTACGT", "b": ">hdr desc\nACGT\nACGT", "policy": {"kernel": "scalar", "prune": "local", "equal": true}}"#,
        )
        .unwrap();
        let st = inner.state.lock().unwrap();
        let job = &st.jobs[&id];
        assert_eq!(job.kind, JobKind::SinglePair);
        let Some(JobSpec::SinglePair { a, b, config, .. }) = &job.spec else {
            panic!("expected single-pair spec");
        };
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
        let cfg = config.as_ref().unwrap();
        assert_eq!(cfg.policy.dispatch, KernelDispatch::ForceScalar);
        assert_eq!(cfg.policy.pruning, PruneMode::Local);
        assert_eq!(cfg.policy.partition, PartitionPolicy::Equal);
        drop(st);

        let batch_id = submit_from_json(
            inner,
            r#"{"pairs": [{"a": "ACG", "b": "ACG"}, {"id": "q", "a": "TT", "b": "TT"}],
                "bins": 2, "faults": ["1@0:0"]}"#,
        )
        .unwrap();
        let st = inner.state.lock().unwrap();
        let Some(JobSpec::Batch { jobs, faults, .. }) = &st.jobs[&batch_id].spec else {
            panic!("expected batch spec");
        };
        assert_eq!(jobs.len(), 2);
        assert_eq!(&*jobs[0].id, "pair0");
        assert_eq!(&*jobs[1].id, "q");
        assert_eq!(faults.len(), 1);
        drop(st);

        assert!(submit_from_json(inner, "not json").is_err());
        assert!(submit_from_json(inner, r#"{"kind": "warp"}"#).is_err());
        assert!(submit_from_json(inner, r#"{"a": "ACGT"}"#).is_err());
        assert!(
            submit_from_json(inner, r#"{"a": "AXGT", "b": "ACGT"}"#).is_err(),
            "invalid base must be rejected"
        );
    }

    #[test]
    fn status_json_is_parseable_and_carries_the_report() {
        let svc = service();
        let (a, b) = seqs(72, 72);
        let id = svc.submit(JobSpec::single("jsonable", a, b));
        svc.wait(id, Duration::from_secs(30)).unwrap();
        let st = svc.inner.state.lock().unwrap();
        let text = job_json(&st.jobs[&id], true);
        let v = json::parse(&text).expect("job JSON must parse");
        assert_eq!(v.get("state").unwrap().as_str(), Some("done"));
        let report = v.get("report").unwrap();
        assert_eq!(report.get("outcomes").unwrap().as_array().unwrap().len(), 1);
        let listing = format!(
            "{{\"jobs\": [{}]}}",
            st.jobs
                .values()
                .map(|j| job_json(j, false))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert!(json::parse(&listing).is_ok(), "{listing}");
    }
}
