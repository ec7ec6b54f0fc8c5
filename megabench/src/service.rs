//! The service probe: the real `megasw serve --env1` process, driven
//! open-loop over loopback HTTP.
//!
//! One sender thread posts jobs at their Poisson due times and one
//! watcher thread reads beside it (`GET /jobs`, `GET /jobs/ID`,
//! `/metrics`), so at most two connections are open. A job's latency is
//! timed from its due send time: (due → 202 received) plus the server's
//! own submit → terminal `latency_ms`.
//!
//! Two phases share one server: `light` and `heavy` offer Poisson
//! arrivals at 30 % and 75 % of an assumed executor capacity.

use crate::gen::{self, JobInput};
use crate::http::{self, Json};
use crate::library::{codes, cross_engine};
use crate::metrics::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{SpanId, Tracer};
use crate::Ctx;
use megasw_sw::{BestCell, ScoreScheme};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `light` and `heavy` offered loads, as shares of [`CAPACITY`].
const LIGHT_LOAD: f64 = 0.3;
const HEAVY_LOAD: f64 = 0.75;
/// Executor capacity the probe assumes, jobs/s: what `megasw serve --env1`
/// sustained on this mix on a 2-vCPU AVX2 host.
const CAPACITY: f64 = 25.0;

/// A running `megasw serve` child; killed and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawn the server on an ephemeral port; returns once `/health`
    /// answers 200.
    pub fn spawn(megasw: &Path) -> Result<Server, String> {
        let mut child = Command::new(megasw)
            .args(["serve", "--env1", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", megasw.display()))?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let first = lines.next().and_then(Result::ok).unwrap_or_default();
        // "serving jobs on http://127.0.0.1:PORT/ (…)"
        let addr = first
            .split("http://")
            .nth(1)
            .and_then(|r| r.split('/').next())
            .map(str::to_string);
        // Keep reading so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines.by_ref() {});
        let mut server = Server {
            child,
            addr: addr.unwrap_or_default(),
            drain: Some(drain),
        };
        if server.addr.is_empty() {
            return Err(format!(
                "unexpected first line from megasw serve: {first:?}"
            ));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok((200, _)) = http::request(&server.addr, "GET", "/health", "") {
                return Ok(server);
            }
            if Instant::now() > deadline {
                server.stop();
                return Err("megasw serve never answered /health".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One job's journey, as the client saw it.
#[derive(Debug, Clone)]
struct JobRecord {
    k: usize,
    id: Option<u64>,
    due: Instant,
    sent: Instant,
    accepted: Instant,
    post_ms: f64,
    /// Terminal state and the server's submit → terminal latency.
    state: Option<String>,
    latency_ms: f64,
    wall_ms: f64,
    /// `(score, i, j)` per outcome, in pair order.
    outcomes: Vec<BestCell>,
}

impl JobRecord {
    fn done(&self) -> bool {
        self.state.as_deref() == Some("done")
    }

    /// Due send time → completion.
    fn latency(&self) -> f64 {
        (self.accepted - self.due).as_secs_f64() * 1e3 + self.latency_ms
    }
}

struct Phase {
    jobs: Vec<JobRecord>,
    inputs: Vec<JobInput>,
    lateness_ms: Vec<f64>,
    get_ms: Vec<f64>,
    errors: u64,
    /// Jobs accepted but not finished when the last job was sent.
    backlog_end: usize,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.done())
            .map(JobRecord::latency)
            .collect()
    }
}

/// Run one open-loop phase of `n` jobs at `rate`; returns when every
/// job is terminal (or after a generous deadline).
fn run_phase(addr: &str, ctx: &Ctx, stream: &str, n: usize, rate: f64) -> Phase {
    let inputs = gen::service_jobs(ctx.seed, stream, n);
    let offsets = gen::poisson_offsets(ctx.seed, stream, n, rate);
    let bodies: Vec<String> = inputs.iter().map(JobInput::body).collect();
    let records: Mutex<Vec<JobRecord>> = Mutex::new(Vec::with_capacity(n));
    let sending_done: Mutex<Option<Instant>> = Mutex::new(None);
    let tracer = &ctx.on;
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(offsets.last().copied().unwrap_or(0.0) + 60.0);
    let mut lateness_ms = Vec::with_capacity(n);
    let mut get_ms = Vec::new();
    let mut errors = 0u64;

    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late = Vec::with_capacity(n);
            let mut errs = 0u64;
            for (k, body) in bodies.iter().enumerate() {
                let due = start + Duration::from_secs_f64(offsets[k]);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                late.push((sent - due).as_secs_f64() * 1e3);
                let reply = http::request(addr, "POST", "/jobs", body);
                let accepted = Instant::now();
                let id = match &reply {
                    Ok((202, b)) => http::parse(b)
                        .ok()
                        .and_then(|v| v.num("job"))
                        .map(|x| x as u64),
                    _ => None,
                };
                if id.is_none() {
                    errs += 1;
                }
                records.lock().expect("records lock").push(JobRecord {
                    k,
                    id,
                    due,
                    sent,
                    accepted,
                    post_ms: (accepted - sent).as_secs_f64() * 1e3,
                    state: None,
                    latency_ms: 0.0,
                    wall_ms: 0.0,
                    outcomes: Vec::new(),
                });
            }
            *sending_done.lock().expect("sending lock") = Some(Instant::now());
            (late, errs)
        });

        // Watcher: poll the job list every 50 ms, fetch each job once it
        // is terminal, scrape /metrics every half second. The pace is
        // fixed, so a faster server does not draw more reads.
        let mut last_scrape = Instant::now();
        let mut next_poll = Instant::now();
        loop {
            if let Some(wait) = next_poll.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            next_poll = Instant::now() + Duration::from_millis(50);
            let sent_all = sending_done.lock().expect("sending lock").is_some();
            let pending: Vec<u64> = {
                let recs = records.lock().expect("records lock");
                recs.iter()
                    .filter(|r| r.state.is_none())
                    .filter_map(|r| r.id)
                    .collect()
            };
            if (sent_all && pending.is_empty()) || Instant::now() > deadline {
                break;
            }
            if last_scrape.elapsed() > Duration::from_millis(500) {
                last_scrape = Instant::now();
                let t = Instant::now();
                match http::request(addr, "GET", "/metrics", "") {
                    Ok((200, _)) => {
                        tracer.record("http.get_metrics", SpanId::NONE, 0, t, Instant::now());
                    }
                    _ => errors += 1,
                }
            }
            if pending.is_empty() {
                continue;
            }
            let t = Instant::now();
            let list = match http::request(addr, "GET", "/jobs", "") {
                Ok((200, b)) => http::parse(&b).ok(),
                _ => None,
            };
            tracer.record("http.get_jobs", SpanId::NONE, 0, t, Instant::now());
            let Some(list) = list else {
                errors += 1;
                continue;
            };
            let terminal: Vec<u64> = list
                .arr("jobs")
                .unwrap_or(&[])
                .iter()
                .filter(|j| matches!(j.str("state"), Some("done" | "failed" | "cancelled")))
                .filter_map(|j| j.num("job").map(|x| x as u64))
                .filter(|id| pending.contains(id))
                .collect();
            for id in terminal {
                let t = Instant::now();
                let reply = http::request(addr, "GET", &format!("/jobs/{id}"), "");
                let rtt = (Instant::now() - t).as_secs_f64() * 1e3;
                get_ms.push(rtt);
                tracer.record("http.get_job", SpanId::NONE, id, t, Instant::now());
                let Ok((200, body)) = reply else {
                    errors += 1;
                    continue;
                };
                let Ok(v) = http::parse(&body) else {
                    errors += 1;
                    continue;
                };
                let mut recs = records.lock().expect("records lock");
                if let Some(r) = recs.iter_mut().find(|r| r.id == Some(id)) {
                    fill(r, &v);
                }
            }
        }
        let (late, errs) = sender.join().expect("sender thread never panics");
        lateness_ms = late;
        errors += errs;
    });

    let mut jobs = records.into_inner().expect("records lock");
    jobs.sort_by_key(|r| r.k);
    let sent_end = sending_done
        .into_inner()
        .expect("sending lock")
        .unwrap_or(start);
    let backlog_end = jobs
        .iter()
        .filter(|j| {
            j.accepted <= sent_end
                && j.accepted + Duration::from_secs_f64(j.latency_ms / 1e3) > sent_end
        })
        .count()
        + jobs.iter().filter(|j| j.state.is_none()).count();
    for j in &jobs {
        spans(tracer, j);
    }
    Phase {
        jobs,
        inputs,
        lateness_ms,
        get_ms,
        errors,
        backlog_end,
    }
}

fn fill(r: &mut JobRecord, v: &Json) {
    r.state = v.str("state").map(str::to_string);
    r.latency_ms = v.num("latency_ms").unwrap_or(f64::NAN);
    if let Some(report) = v.get("report") {
        r.wall_ms = report.num("wall_ms").unwrap_or(f64::NAN);
        r.outcomes = report
            .arr("outcomes")
            .unwrap_or(&[])
            .iter()
            .map(|o| BestCell {
                score: o.num("score").unwrap_or(-1.0) as i32,
                i: o.num("i").unwrap_or(0.0) as usize,
                j: o.num("j").unwrap_or(0.0) as usize,
            })
            .collect();
    }
}

/// Client-side spans of one job: due → completion, split into the
/// generator's lateness, the POST, the queue wait and the execution.
fn spans(tr: &Tracer, j: &JobRecord) {
    let req = j.id.unwrap_or(u64::MAX);
    let ms = |x: f64| Duration::from_secs_f64((x / 1e3).max(0.0));
    let end = j.due + ms(j.latency());
    let root = tr.record("service.job", SpanId::NONE, req, j.due, end);
    tr.record("gen.lateness", root, req, j.due, j.sent);
    tr.record("http.post", root, req, j.sent, j.accepted);
    let queued_end = j.accepted + ms(j.latency_ms - j.wall_ms);
    tr.record("service.queue_wait", root, req, j.accepted, queued_end);
    tr.record(
        "service.exec",
        root,
        req,
        queued_end,
        queued_end + ms(j.wall_ms),
    );
}

/// Median RTT of sequential `GET /health` calls.
fn health_rtt_ms(addr: &str, n: usize) -> (f64, u64) {
    let mut errors = 0;
    let rtts: Vec<f64> = (0..n)
        .filter_map(|_| {
            let t = Instant::now();
            match http::request(addr, "GET", "/health", "") {
                Ok((200, _)) => Some(t.elapsed().as_secs_f64() * 1e3),
                _ => {
                    errors += 1;
                    None
                }
            }
        })
        .collect();
    (median(&rtts), errors)
}

/// `service_queue_peak` from the Prometheus exposition.
fn queue_peak(addr: &str) -> f64 {
    http::request(addr, "GET", "/metrics", "")
        .ok()
        .and_then(|(_, text)| {
            text.lines()
                .find(|l| l.starts_with("megasw_service_queue_peak "))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

/// Jobs whose scores are checked: every batch, every single of at most
/// 16 M cells, and every fourth larger one.
fn check_jobs(out: &mut Outcome, phases: &[&Phase]) {
    let scheme = ScoreScheme::cudalign();
    let cross = cross_engine();
    for phase in phases {
        for (k, input) in phase.inputs.iter().enumerate() {
            let Some(rec) = phase.jobs.iter().find(|j| j.k == k) else {
                out.check(Err(format!("job {k} was never sent")));
                continue;
            };
            let result = (|| {
                if !rec.done() {
                    return Err(format!("job {k} (id {:?}) ended {:?}", rec.id, rec.state));
                }
                let pairs = input.pairs();
                if rec.outcomes.len() != pairs.len() {
                    return Err(format!(
                        "job {k}: {} outcomes for {} pairs",
                        rec.outcomes.len(),
                        pairs.len()
                    ));
                }
                let sampled = matches!(input, JobInput::Batch { .. })
                    || input.cells() <= 1 << 24
                    || k % 4 == 0;
                if sampled {
                    for (p, got) in pairs.iter().zip(&rec.outcomes) {
                        let want = cross.best(&codes(&p.a), &codes(&p.b), &scheme);
                        if *got != want {
                            return Err(format!(
                                "job {k} pair {}: got {got:?}, independent engine says {want:?}",
                                p.id
                            ));
                        }
                    }
                }
                Ok(())
            })();
            out.check(result);
        }
    }
}

fn pooled(phases: &[&Phase], f: impl Fn(&JobRecord) -> f64) -> Vec<f64> {
    phases
        .iter()
        .flat_map(|p| p.jobs.iter().filter(|j| j.done()).map(&f))
        .collect()
}

/// Per-layer `service.*`, `http.*` and `gen.*` from the fixed-rate phases.
fn layer_metrics(out: &mut Outcome, addr: &str, light: &Phase, heavy: &Phase) {
    let both = [light, heavy];
    let queue = pooled(&both, |j| j.latency_ms - j.wall_ms);
    let exec = pooled(&both, |j| j.wall_ms);
    out.set("service.queue_wait_ms.p50", median(&queue));
    out.set("service.queue_wait_ms.p99", percentile(&queue, 99.0));
    out.set("service.exec_ms.p50", median(&exec));
    out.set("service.exec_ms.p99", percentile(&exec, 99.0));
    let (mut cells, mut wall) = (0.0, 0.0);
    for p in both {
        for j in p.jobs.iter().filter(|j| j.done()) {
            if let JobInput::Single { pair, .. } = &p.inputs[j.k] {
                cells += pair.cells() as f64;
                wall += j.wall_ms / 1e3;
            }
        }
    }
    out.set("service.exec_gcups.single", cells / wall / 1e9);
    out.set("service.queue_peak", queue_peak(addr));
    out.set("service.job_p50_ms.light", median(&light.latencies()));
    out.set(
        "service.job_p99_ms.light",
        percentile(&light.latencies(), 99.0),
    );
    out.set("service.job_p50_ms.heavy", median(&heavy.latencies()));
    out.set(
        "service.job_p99_ms.heavy",
        percentile(&heavy.latencies(), 99.0),
    );
    let (health, health_errors) = health_rtt_ms(addr, 15);
    out.set("http.health_rtt_ms", health);
    out.set("http.post_ms", median(&pooled(&both, |j| j.post_ms)));
    let gets: Vec<f64> = both.iter().flat_map(|p| p.get_ms.iter().copied()).collect();
    out.set("http.get_ms", median(&gets));
    out.set(
        "http.errors",
        (light.errors + heavy.errors + health_errors) as f64,
    );
    out.set("gen.lateness_ms.p99", percentile(&heavy.lateness_ms, 99.0));
    out.set("gen.backlog_end", heavy.backlog_end as f64);
}

/// The service layers for a traced run: a fresh server and two short
/// phases at the loads of the assumed capacity; every job is checked.
pub fn probe(ctx: &Ctx, out: &mut Outcome) {
    let Ok(server) = Server::spawn(&ctx.megasw) else {
        eprintln!("megabench: service probe could not start megasw serve");
        std::process::exit(2);
    };
    let light = run_phase(&server.addr, ctx, "probe.light", 16, LIGHT_LOAD * CAPACITY);
    let heavy = run_phase(&server.addr, ctx, "probe.heavy", 30, HEAVY_LOAD * CAPACITY);
    layer_metrics(out, &server.addr, &light, &heavy);
    drop(server);
    check_jobs(out, &[&light, &heavy]);
}
