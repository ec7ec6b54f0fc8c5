//! End-to-end contract of the resident alignment service over HTTP.
//!
//! These tests exercise ISSUE 10's acceptance bar through the real wire:
//! an [`AlignService`] behind a [`MetricsServer`] on a loopback port, jobs
//! submitted as `POST /jobs` JSON bodies, progress via `GET
//! /jobs/:id/events`, cancellation via `DELETE /jobs/:id`, and SLOs
//! scraped from `/metrics` — with every score checked bit-identically
//! against the scalar whole-sequence oracle.

use megasw::obs::json::{self, Value};
use megasw::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[path = "util/deadline.rs"]
mod deadline;
use deadline::with_deadline;

fn pair(len: usize, seed: u64) -> (DnaSeq, DnaSeq) {
    let a = ChromosomeGenerator::new(GenerateConfig::uniform(len, seed)).generate();
    let (b, _) = DivergenceModel::test_scale(seed + 7).apply(&a);
    (a, b)
}

fn oracle(a: &DnaSeq, b: &DnaSeq) -> Score {
    kernel::scalar()
        .best(a.codes(), b.codes(), &ScoreScheme::cudalign())
        .score
}

/// A service on a loopback port with small-geometry defaults, recovery
/// enabled (the mixed-stream test injects a device loss) and a checkpoint
/// cadence so both recovery and cancellation have boundaries to act on.
fn serve() -> (AlignService, MetricsServer, String) {
    let base = RunConfig::test_default()
        .with_policy(KernelPolicy::default().with_checkpoint(CheckpointCadence::EveryRows(2)));
    let cfg = ServiceConfig {
        base,
        recovery: Some(RecoveryPolicy {
            max_device_failures: 1,
        }),
        events_interval: Duration::from_millis(5),
    };
    let service = AlignService::start(Platform::env2(), cfg, MetricsHub::new());
    let server = MetricsServer::bind_routed("127.0.0.1:0", service.hub(), Some(service.handler()))
        .expect("bind loopback");
    let addr = server.local_addr().to_string();
    (service, server, addr)
}

fn post_job(addr: &str, body: &str) -> u64 {
    let (head, resp) = http_post(addr, "/jobs", body).expect("POST /jobs");
    assert!(head.starts_with("HTTP/1.1 202"), "{head}: {resp}");
    let v = json::parse(&resp).expect("submit response is JSON");
    v.get("job").and_then(Value::as_f64).expect("job id") as u64
}

fn get_job(addr: &str, id: u64) -> Value {
    let (head, body) = http_get(addr, &format!("/jobs/{id}")).expect("GET /jobs/:id");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");
    json::parse(&body).expect("status response is JSON")
}

fn poll_terminal(addr: &str, id: u64) -> Value {
    loop {
        let v = get_job(addr, id);
        match v.get("state").and_then(Value::as_str).unwrap() {
            "queued" | "running" => std::thread::sleep(Duration::from_millis(5)),
            _ => return v,
        }
    }
}

/// The acceptance bar: a mixed stream of 20+ HTTP-submitted jobs —
/// single pairs (raw bases and FASTA text), a batch, one job with an
/// injected device loss — all complete with bit-identical scores, nothing
/// dropped, and the SLO counters land on `/metrics`.
#[test]
fn mixed_stream_of_twenty_http_jobs_is_bit_identical() {
    with_deadline(
        "service_api::mixed_stream",
        Duration::from_secs(300),
        || {
            let (service, server, addr) = serve();

            // 18 single-pair jobs + 1 faulted job + 1 six-pair batch = 20
            // HTTP submissions, 25 alignments.
            let mut singles: Vec<(u64, Score)> = Vec::new();
            for i in 0..18u64 {
                let (a, b) = pair(220 + 13 * i as usize, 100 + i);
                let body = if i % 3 == 0 {
                    // FASTA text bodies exercise the in-request parser.
                    format!(
                        "{{\"id\": \"s{i}\", \"a\": \">a{i}\\n{}\", \"b\": \">b{i}\\n{}\"}}",
                        a.to_ascii_string(),
                        b.to_ascii_string()
                    )
                } else {
                    format!(
                        "{{\"id\": \"s{i}\", \"a\": \"{}\", \"b\": \"{}\"}}",
                        a.to_ascii_string(),
                        b.to_ascii_string()
                    )
                };
                singles.push((post_job(&addr, &body), oracle(&a, &b)));
            }

            // One job loses device 1 mid-run; the service-level recovery
            // policy must bring it home bit-identically.
            let (fa, fb) = pair(700, 555);
            let faulted = post_job(
                &addr,
                &format!(
                    "{{\"id\": \"faulted\", \"a\": \"{}\", \"b\": \"{}\", \"fault\": \"1:2\"}}",
                    fa.to_ascii_string(),
                    fb.to_ascii_string()
                ),
            );

            let batch_pairs: Vec<(DnaSeq, DnaSeq)> = (0..6u64)
                .map(|i| pair(150 + 31 * i as usize, 400 + i))
                .collect();
            let rendered: Vec<String> = batch_pairs
                .iter()
                .enumerate()
                .map(|(i, (a, b))| {
                    format!(
                        "{{\"id\": \"b{i}\", \"a\": \"{}\", \"b\": \"{}\"}}",
                        a.to_ascii_string(),
                        b.to_ascii_string()
                    )
                })
                .collect();
            let batch = post_job(
                &addr,
                &format!("{{\"pairs\": [{}], \"bins\": 2}}", rendered.join(", ")),
            );

            for (id, want) in &singles {
                let v = poll_terminal(&addr, *id);
                assert_eq!(
                    v.get("state").and_then(Value::as_str),
                    Some("done"),
                    "{v:?}"
                );
                assert_eq!(
                    v.get("best_score").and_then(Value::as_f64),
                    Some(f64::from(*want)),
                    "job {id} must be bit-identical to the scalar oracle"
                );
            }

            let v = poll_terminal(&addr, faulted);
            assert_eq!(v.get("state").and_then(Value::as_str), Some("done"));
            assert_eq!(
                v.get("best_score").and_then(Value::as_f64),
                Some(f64::from(oracle(&fa, &fb))),
                "the faulted job must recover bit-identically"
            );
            let report = v.get("report").expect("done job has a report");
            assert!(
                report.get("recoveries").and_then(Value::as_f64).unwrap() >= 1.0,
                "{report:?}"
            );

            let v = poll_terminal(&addr, batch);
            assert_eq!(v.get("state").and_then(Value::as_str), Some("done"));
            let report = v.get("report").expect("batch report");
            let outcomes = report
                .get("outcomes")
                .and_then(Value::as_array)
                .expect("outcomes");
            assert_eq!(outcomes.len(), batch_pairs.len(), "no pair dropped");
            for (o, (a, b)) in outcomes.iter().zip(&batch_pairs) {
                assert_eq!(
                    o.get("score").and_then(Value::as_f64),
                    Some(f64::from(oracle(a, b))),
                    "batch pair must be bit-identical: {o:?}"
                );
            }

            // 20 jobs were submitted over HTTP and all completed.
            assert_eq!(service.completed_order().len(), 20);

            // The SLOs are scraped from /metrics in Prometheus text form.
            let (_, metrics) = http_get(&addr, "/metrics").expect("GET /metrics");
            assert!(
                metrics.contains("megasw_service_jobs_completed 20"),
                "{metrics}"
            );
            assert!(
                metrics.contains("megasw_service_jobs_failed 0"),
                "{metrics}"
            );
            assert!(
                metrics.contains("megasw_service_job_latency_p50_ms"),
                "{metrics}"
            );
            assert!(
                metrics.contains("megasw_service_job_latency_p99_ms"),
                "{metrics}"
            );
            assert!(metrics.contains("megasw_service_queue_peak"), "{metrics}");

            server.shutdown();
            drop(service);
        },
    )
}

/// `DELETE /jobs/:id` mid-run stops the job at a checkpoint boundary and
/// later jobs still complete — the queue survives a cancellation.
#[test]
fn delete_cancels_a_running_job_and_the_queue_survives() {
    with_deadline(
        "service_api::mid_run_delete",
        Duration::from_secs(300),
        || {
            let (service, server, addr) = serve();

            // A deliberately heavy job (forced scalar, tiny checkpointed
            // blocks) so the DELETE lands while it is running.
            let (a, b) = pair(6_000, 77);
            let heavy = post_job(
                &addr,
                &format!(
                    "{{\"id\": \"heavy\", \"a\": \"{}\", \"b\": \"{}\", \"policy\": {{\"kernel\": \"scalar\"}}}}",
                    a.to_ascii_string(),
                    b.to_ascii_string()
                ),
            );
            let (sa, sb) = pair(200, 88);
            let queued = post_job(
                &addr,
                &format!(
                    "{{\"id\": \"after\", \"a\": \"{}\", \"b\": \"{}\"}}",
                    sa.to_ascii_string(),
                    sb.to_ascii_string()
                ),
            );

            // Wait for the heavy job to actually start…
            loop {
                let v = get_job(&addr, heavy);
                match v.get("state").and_then(Value::as_str).unwrap() {
                    "queued" => std::thread::sleep(Duration::from_millis(1)),
                    _ => break,
                }
            }
            // …then cancel it mid-run.
            let (head, body) =
                http_delete(&addr, &format!("/jobs/{heavy}")).expect("DELETE /jobs/:id");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");

            let v = poll_terminal(&addr, heavy);
            assert_eq!(
                v.get("state").and_then(Value::as_str),
                Some("cancelled"),
                "mid-run DELETE must be honoured: {v:?}"
            );
            assert!(v.get("report").is_none(), "a cancelled job has no report");

            // The queued job is untouched by the cancellation.
            let v = poll_terminal(&addr, queued);
            assert_eq!(v.get("state").and_then(Value::as_str), Some("done"));
            assert_eq!(
                v.get("best_score").and_then(Value::as_f64),
                Some(f64::from(oracle(&sa, &sb)))
            );

            // DELETE on a terminal job reports its state; unknown is 404.
            let (head, body) = http_delete(&addr, &format!("/jobs/{queued}")).unwrap();
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(body.contains("done"), "{body}");
            let (head, _) = http_delete(&addr, "/jobs/9999").unwrap();
            assert!(head.starts_with("HTTP/1.1 404"), "{head}");

            let (_, metrics) = http_get(&addr, "/metrics").unwrap();
            assert!(
                metrics.contains("megasw_service_jobs_cancelled 1"),
                "{metrics}"
            );

            server.shutdown();
            drop(service);
        },
    )
}

/// `GET /jobs/:id/events` streams NDJSON progress lines until the job is
/// terminal; every line parses and the last one reports the final state.
#[test]
fn events_endpoint_streams_parseable_ndjson_to_completion() {
    with_deadline("service_api::events", Duration::from_secs(300), || {
        let (service, server, addr) = serve();
        let (a, b) = pair(1_500, 31);
        let id = post_job(
            &addr,
            &format!(
                "{{\"id\": \"streamed\", \"a\": \"{}\", \"b\": \"{}\", \"policy\": {{\"kernel\": \"scalar\"}}}}",
                a.to_ascii_string(),
                b.to_ascii_string()
            ),
        );
        // The events request blocks until the job finishes, so read it on
        // this thread — the executor runs the job concurrently.
        let (head, body) =
            http_get(&addr, &format!("/jobs/{id}/events")).expect("GET /jobs/:id/events");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/x-ndjson"), "{head}");
        let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(!lines.is_empty(), "at least one progress line");
        for line in &lines {
            let v = json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON {line:?}: {e}"));
            assert_eq!(v.get("job").and_then(Value::as_f64), Some(id as f64));
            assert!(v.get("state").is_some(), "{line}");
        }
        let last = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("state").and_then(Value::as_str), Some("done"));
        assert_eq!(
            last.get("best_score").and_then(Value::as_f64),
            Some(f64::from(oracle(&a, &b)))
        );

        // Unknown job ids 404 instead of hanging the stream.
        let (head, _) = http_get(&addr, "/jobs/424242/events").unwrap();
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
        drop(service);
    })
}

/// A deeply nested body is a client error, not a crash: `POST /jobs`
/// with 100 000 `[` answers 400 and the service keeps serving.
#[test]
fn deeply_nested_json_body_is_rejected_and_the_service_survives() {
    with_deadline("service_api::nested_json", Duration::from_secs(300), || {
        let (service, server, addr) = serve();
        let (head, body) = http_post(&addr, "/jobs", &"[".repeat(100_000)).expect("POST /jobs");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}: {body}");
        let (head, _) = http_get(&addr, "/health").expect("GET /health");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");

        server.shutdown();
        drop(service);
    })
}

/// Priorities submitted over HTTP reorder the queue: while one job runs,
/// a later high-priority submission overtakes an earlier low-priority one.
#[test]
fn http_priorities_reorder_the_queue() {
    with_deadline("service_api::priorities", Duration::from_secs(300), || {
        let (service, server, addr) = serve();
        let (big_a, big_b) = pair(4_000, 61);
        let first = post_job(
            &addr,
            &format!(
                "{{\"id\": \"first\", \"a\": \"{}\", \"b\": \"{}\", \"policy\": {{\"kernel\": \"scalar\"}}}}",
                big_a.to_ascii_string(),
                big_b.to_ascii_string()
            ),
        );
        let (a, b) = pair(160, 62);
        let low = post_job(
            &addr,
            &format!(
                "{{\"id\": \"low\", \"a\": \"{}\", \"b\": \"{}\"}}",
                a.to_ascii_string(),
                b.to_ascii_string()
            ),
        );
        let high = post_job(
            &addr,
            &format!(
                "{{\"id\": \"high\", \"a\": \"{}\", \"b\": \"{}\", \"priority\": 9}}",
                a.to_ascii_string(),
                b.to_ascii_string()
            ),
        );
        for id in [first, low, high] {
            poll_terminal(&addr, id);
        }
        let order = service.completed_order();
        let pos = |id: u64| order.iter().position(|&x| x == id).unwrap();
        assert!(
            pos(high) < pos(low),
            "priority 9 must overtake priority 0: {order:?}"
        );

        // GET /jobs lists all three.
        let (_, body) = http_get(&addr, "/jobs").unwrap();
        let v = json::parse(&body).expect("job listing is JSON");
        assert_eq!(
            v.get("jobs")
                .and_then(Value::as_array)
                .map(|jobs| jobs.len()),
            Some(3)
        );

        server.shutdown();
        drop(service);
    })
}

/// The wire client helpers (`Arc` hub ownership ends with the service) —
/// shutting the service down mid-queue leaves queued jobs queued and the
/// listener answering.
#[test]
fn shutdown_cancels_the_running_job_and_parks_the_queue() {
    with_deadline("service_api::shutdown", Duration::from_secs(300), || {
        let (mut service, server, addr) = serve();
        let (a, b) = pair(6_000, 91);
        let running = post_job(
            &addr,
            &format!(
                "{{\"id\": \"doomed\", \"a\": \"{}\", \"b\": \"{}\", \"policy\": {{\"kernel\": \"scalar\"}}}}",
                a.to_ascii_string(),
                b.to_ascii_string()
            ),
        );
        let (sa, sb) = pair(150, 92);
        let parked = post_job(
            &addr,
            &format!(
                "{{\"id\": \"parked\", \"a\": \"{}\", \"b\": \"{}\"}}",
                sa.to_ascii_string(),
                sb.to_ascii_string()
            ),
        );
        loop {
            let v = get_job(&addr, running);
            if v.get("state").and_then(Value::as_str) != Some("queued") {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        service.shutdown();
        let v = get_job(&addr, running);
        assert_eq!(
            v.get("state").and_then(Value::as_str),
            Some("cancelled"),
            "{v:?}"
        );
        let v = get_job(&addr, parked);
        assert_eq!(v.get("state").and_then(Value::as_str), Some("queued"));

        server.shutdown();
        let _ = Arc::strong_count(&service.hub());
    })
}
