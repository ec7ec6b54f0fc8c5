//! `megabench`: the megasw benchmark.
//!
//! ```text
//! megabench --workload megapair|dbsearch --seed N \
//!           --seconds S --trace 0|1 [--megasw PATH] [--out DIR]
//! ```
//!
//! Prints a host-context line and, last, one JSON result line with
//! `correct`, `attempted`, `failed` and the metrics: every end-to-end
//! metric with `--trace 0`, every per-layer metric with `--trace 1`.
//! See `README.md` beside this crate for the workloads and metrics.

mod gen;
mod host;
mod http;
mod library;
mod metrics;
mod service;
mod stats;
mod trace;

use host::HostContext;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use trace::Tracer;

/// The workloads `BENCHMARK.json` runs.
pub const WORKLOADS: [&str; 2] = ["megapair", "dbsearch"];

/// One run's settings and shared instruments.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub host: HostContext,
    pub megasw: PathBuf,
    /// Records spans (traced runs only).
    pub on: Tracer,
    /// Records nothing: the untraced half of a traced run's operations.
    pub off: Tracer,
    /// DP cells computed in this process (for rescues per tile).
    cells: AtomicU64,
}

impl Ctx {
    /// The tracer for operation `k`: a traced run traces every other
    /// operation, so the two halves give the tracing overhead.
    pub fn tracer_for(&self, k: usize) -> &Tracer {
        if self.traced && k.is_multiple_of(2) {
            &self.on
        } else {
            &self.off
        }
    }

    pub fn count_cells(&self, cells: u128) {
        self.cells.fetch_add(cells as u64, Ordering::Relaxed);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    megasw: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut megasw = PathBuf::from("target/release/megasw");
    let mut out = PathBuf::from("target/megabench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--megasw" => megasw = PathBuf::from(value),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected {})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        megasw,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("megabench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        host: HostContext::probe(),
        megasw: args.megasw,
        on: Tracer::new(args.trace, origin),
        off: Tracer::new(false, origin),
        cells: AtomicU64::new(0),
    };
    eprintln!(
        "megabench: {} seed {} for {}s, trace {}, host {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.traced,
        ctx.host.json()
    );

    let rescues0 = (
        megasw_sw::kernel::simd_rescues(),
        megasw_sw::kernel::simd_rescue_ns(),
    );
    let mut out = Outcome::default();
    if ctx.traced {
        library::probe_sw(&ctx, &mut out);
    }
    let steal0 = host::steal_ticks();
    if ctx.workload == "megapair" {
        library::megapair(&ctx, &mut out);
    } else {
        library::dbsearch(&ctx, &mut out);
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal0, host::steal_ticks()) {
        out.set(
            "host.steal_frac",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        );
    }
    if ctx.traced {
        if let Some(overhead) = overhead_against_record(&ctx, &args.out, &out) {
            out.set("trace.overhead_frac", overhead);
        }
        layer_probes(&ctx, &mut out, rescues0);
    }
    finish(&ctx, &args.out, out);
}

/// Record file of a run: `<workload>-seed<N>-trace<0|1>`.
fn record_tag(ctx: &Ctx, traced: bool) -> String {
    format!(
        "{}-seed{}-trace{}",
        ctx.workload,
        ctx.seed,
        u8::from(traced)
    )
}

/// Tracing overhead as the difference in `job_p50_ms` between this
/// traced run and the untraced record of the same workload and seed,
/// when one exists. Without it, the workload's own estimate (traced
/// against untraced jobs of this run) stands.
fn overhead_against_record(ctx: &Ctx, dir: &std::path::Path, out: &Outcome) -> Option<f64> {
    let text =
        std::fs::read_to_string(dir.join(format!("{}.json", record_tag(ctx, false)))).ok()?;
    let record = http::parse(&text).ok()?;
    if record.str("build")? != build_id() || record.num("seconds")? != ctx.seconds {
        return None; // another build of the benchmark, or another run length
    }
    let untraced = record.get("values")?.num("job_p50_ms")?;
    Some(out.values.get("job_p50_ms")? / untraced - 1.0)
}

/// Identifies this build of the benchmark: its executable's mtime.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or_else(String::new, |d| d.as_nanos().to_string())
}

/// Measure the layers the workload did not drive itself, plus host and
/// run-wide counters.
fn layer_probes(ctx: &Ctx, out: &mut Outcome, rescues0: (u64, u64)) {
    if ctx.workload == "megapair" {
        library::probe_batch(ctx, out);
    } else {
        library::probe_pipeline(ctx, out);
    }
    library::probe_stages(ctx, out);
    library::probe_small_pairs(ctx, out);
    service::probe(ctx, out);
    let rescues = megasw_sw::kernel::simd_rescues() - rescues0.0;
    out.set("sw.simd_rescues", rescues as f64);
    out.set(
        "sw.simd_rescue_s",
        (megasw_sw::kernel::simd_rescue_ns() - rescues0.1) as f64 / 1e9,
    );
    let tiles = ctx.cells.load(Ordering::Relaxed) as f64 / (512.0 * 512.0);
    out.set("sw.simd_rescues_per_tile", rescues as f64 / tiles.max(1.0));
    out.set("host.nproc", ctx.host.nproc as f64);
    out.set("host.parallelism", ctx.host.parallelism);
    out.set("host.avx2", f64::from(u8::from(ctx.host.avx2)));
    out.set("host.engine_lanes", ctx.host.engine_lanes());
    out.set("trace.spans", ctx.on.len() as f64);
}

fn finish(ctx: &Ctx, out_dir: &std::path::Path, mut out: Outcome) {
    out.set(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    for e in &out.errors {
        eprintln!("megabench: CHECK FAILED: {e}");
    }
    let catalogue = if ctx.traced { PER_LAYER } else { END_TO_END };
    let line = match out.result_json(catalogue) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("megabench: {e}");
            std::process::exit(3);
        }
    };
    // Everything measured, for the record: both catalogues' values that
    // exist, the host context, and (traced) the spans and self times.
    let tag = record_tag(ctx, ctx.traced);
    let all: Vec<String> = out
        .values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"build\": \"{}\", \"seed\": {}, \"seconds\": {}, \"host\": {}, \"attempted\": {}, \"failed\": {}, \"values\": {{{}}}}}\n",
        ctx.workload,
        build_id(),
        ctx.seed,
        ctx.seconds,
        ctx.host.json(),
        out.attempted,
        out.failed,
        all.join(", ")
    );
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{tag}.json")), record))
        .and_then(|()| {
            if ctx.traced {
                std::fs::write(
                    out_dir.join(format!("{tag}.trace.json")),
                    ctx.on.chrome_json(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "megabench: cannot write records under {}: {e}",
            out_dir.display()
        );
    }
    if ctx.traced {
        eprintln!("megabench: self time by span (count, total s, self s)");
        for (name, st) in ctx.on.self_times() {
            eprintln!(
                "  {name:<32} {:>6} {:>10.4} {:>10.4}",
                st.count, st.total_s, st.self_s
            );
        }
    }
    for (name, v) in &out.values {
        eprintln!("  {name:<28} {v:.6}");
    }
    println!("{{\"host\": {}}}", ctx.host.json());
    println!("{line}");
    if out.failed > 0 {
        std::process::exit(1);
    }
}
