//! The workloads (`megapair`, `dbsearch`) and the in-process layer
//! probes every traced run adds.
//!
//! Each operation starts from FASTA text, the way a user hands the
//! program its input, and calls the layer's public entry point:
//! `PipelineRun::run`, `multigpu_local_align` or `BatchRun::run`.

use crate::gen::{self, PairText};
use crate::host::{cpu_s, peak_rss_mb};
use crate::metrics::Outcome;
use crate::stats::{median, median_of_means, percentile};
use crate::trace::SpanId;
use crate::Ctx;
use megasw_gpusim::Platform;
use megasw_multigpu::stages::StageTimes;
use megasw_multigpu::{
    multigpu_local_align, BatchConfig, BatchJob, BatchReport, BatchRun, PipelineRun, RunConfig,
    RunReport,
};
use megasw_seq::fasta::read_single_fasta_str;
use megasw_seq::DnaSeq;
use megasw_sw::kernel::{self, Kernel, KernelDispatch};
use megasw_sw::traceback::{myers_miller, score_of_ops};
use megasw_sw::{BestCell, BlockInput, ColBorder, RowBorder, ScoreScheme};
use std::hint::black_box;
use std::time::Instant;

/// Length of one block of back-to-back set-ups. One block runs before
/// each timed operation.
const SETUP_BLOCK_S: f64 = 0.025;
/// Groups of the median-of-means estimate of one set-up's time.
const SETUP_GROUPS: usize = 5;

/// Forced-scalar results for seed 1, computed once by the ignored
/// `pin_seed1` test and checked on every seed-1 run: `(score, i, j)`.
const PINNED_MEGAPAIR: (i32, usize, usize) = (56408, 60000, 60009);
/// Seed 1 `dbsearch`: sum of scores and of end coordinates over pairs.
const PINNED_DBSEARCH: (i64, u64) = (255959, 765514);

/// Base codes of raw generated bases, through the program's decoder.
pub fn codes(seq: &[u8]) -> Vec<u8> {
    DnaSeq::from_ascii(seq)
        .expect("generated bases are valid")
        .codes()
        .to_vec()
}

impl PairText {
    pub fn a_codes(&self) -> Vec<u8> {
        codes(&self.a)
    }

    pub fn b_codes(&self) -> Vec<u8> {
        codes(&self.b)
    }
}

pub fn parse(text: &str) -> Result<Vec<u8>, String> {
    read_single_fasta_str(text)
        .map(|r| r.seq.codes().to_vec())
        .map_err(|e| format!("FASTA: {e}"))
}

/// Everything an operation needs before its first cell.
struct Prepared {
    platform: Platform,
    config: RunConfig,
}

fn prepare() -> Prepared {
    black_box(kernel::select(KernelDispatch::Auto).expect("Auto always resolves"));
    Prepared {
        platform: Platform::env1(),
        config: RunConfig::paper_default(),
    }
}

/// Set-up: FASTA parse plus platform and kernel selection, timed in
/// blocks spread over the whole run.
struct Setup<'a> {
    texts: Vec<&'a str>,
    /// Seconds of each set-up.
    samples: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// One untimed pass first lets the allocator settle.
    fn new(texts: Vec<&'a str>) -> Setup<'a> {
        let mut setup = Setup {
            texts,
            samples: Vec::new(),
        };
        setup.once();
        setup.samples.clear();
        setup
    }

    fn once(&mut self) {
        let t = Instant::now();
        for text in &self.texts {
            black_box(parse(text).ok());
        }
        black_box(prepare());
        self.samples.push(t.elapsed().as_secs_f64());
    }

    fn block(&mut self) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < SETUP_BLOCK_S {
            self.once();
        }
    }

    /// Median of means (see [`median_of_means`]). One set-up's time
    /// depends on the vCPU it lands on, and a shared host's vCPUs can
    /// differ by 1.7×; a plain median then jumps from one speed to the
    /// other between runs. A group's mean weighs both, and the median
    /// over groups drops outliers.
    fn seconds(&self) -> f64 {
        median_of_means(&self.samples, SETUP_GROUPS)
    }
}

/// Run `op` back to back for `seconds` — as long as another operation
/// of the last one's length still ends in time — and at least `min`
/// times, with a block of set-ups before each (not in its wall time);
/// returns each operation's wall time and result.
fn timed<T>(
    seconds: f64,
    min: usize,
    setup: &mut Setup,
    mut op: impl FnMut(usize) -> T,
) -> (Vec<f64>, Vec<T>) {
    let start = Instant::now();
    let (mut walls, mut results) = (Vec::new(), Vec::<T>::new());
    while walls.len() < min
        || start.elapsed().as_secs_f64() + walls.last().copied().unwrap_or(0.0) <= seconds
    {
        setup.block();
        let t = Instant::now();
        results.push(op(walls.len()));
        walls.push(t.elapsed().as_secs_f64());
    }
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!(
        "megabench: {} operations, wall s: {}",
        walls.len(),
        shown.join(" ")
    );
    (walls, results)
}

/// An engine other than the one `Auto` resolves to, for independent
/// score checks (scalar when the host has no second engine).
pub fn cross_engine() -> &'static dyn Kernel {
    let auto = kernel::select(KernelDispatch::Auto).map(|k| k.id()).ok();
    [KernelDispatch::ForceSse41, KernelDispatch::ForceAvx2]
        .into_iter()
        .filter_map(|d| kernel::select(d).ok())
        .find(|k| Some(k.id()) != auto)
        .unwrap_or_else(kernel::scalar)
}

fn same_cell(what: &str, got: BestCell, want: BestCell) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {got:?}, independent engine says {want:?}"
        ))
    }
}

fn check_pinned(
    ctx: &Ctx,
    what: &str,
    got: BestCell,
    pinned: (i32, usize, usize),
) -> Result<(), String> {
    if ctx.seed != 1 {
        return Ok(());
    }
    let want = BestCell {
        score: pinned.0,
        i: pinned.1,
        j: pinned.2,
    };
    same_cell(&format!("{what} (pinned scalar, seed 1)"), got, want)
}

/// Trace overhead: median of the traced operations over the median of
/// the untraced ones, minus one (operations alternate when tracing).
fn overhead(walls: &[f64]) -> f64 {
    let traced: Vec<f64> = walls.iter().step_by(2).copied().collect();
    let plain: Vec<f64> = walls.iter().skip(1).step_by(2).copied().collect();
    if plain.is_empty() {
        return 0.0;
    }
    median(&traced) / median(&plain) - 1.0
}

/// The end-to-end figures both workloads share. `job_p50_ms` goes to the
/// run record only (tracing overhead is measured on it): it is `gcups`
/// seen from the other side.
fn job_metrics(out: &mut Outcome, cells: u128, walls: &[f64]) {
    let job_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.set("gcups", cells as f64 / median(walls) / 1e9);
    out.set("job_p50_ms", median(&job_ms));
    out.set("job_p90_ms", percentile(&job_ms, 90.0));
    out.set(
        "peak_rss_mb",
        peak_rss_mb(std::process::id()).unwrap_or(f64::NAN),
    );
}

fn proc_metrics(out: &mut Outcome, ctx: &Ctx, cpu0: f64, wall: f64) {
    let cpu = cpu_s(std::process::id()).unwrap_or(f64::NAN) - cpu0;
    out.set("proc.cpu_s", cpu);
    out.set("proc.cpu_frac", cpu / (wall * ctx.host.nproc as f64));
}

fn pipeline_run(a: &[u8], b: &[u8], p: &Prepared) -> Result<RunReport, String> {
    PipelineRun::new(a, b, &p.platform)
        .config(p.config.clone())
        .run()
        .map_err(|e| format!("pipeline: {e}"))
}

// ───────────────────────────── megapair ─────────────────────────────

pub fn megapair(ctx: &Ctx, out: &mut Outcome) {
    let pair = gen::megapair(ctx.seed);
    let (fa, fb) = (pair.fasta_a(), pair.fasta_b());
    let mut setup = Setup::new(vec![&fa, &fb]);
    let p = prepare();
    // Warm-up: thread spawn, page faults and code on a small corner.
    let _ = pipeline_run(&pair.a_codes()[..8000], &pair.b_codes()[..8000], &p);

    let cpu0 = cpu_s(std::process::id()).unwrap_or(0.0);
    let t_run = Instant::now();
    let (walls, reports) = timed(ctx.seconds, 2, &mut setup, |k| {
        let tr = ctx.tracer_for(k);
        let req = k as u64;
        let root = tr.open("megapair.job", SpanId::NONE, req);
        let (a, b) = tr.time("fasta.parse", root, req, || (parse(&fa), parse(&fb)));
        let report = match (a, b) {
            (Ok(a), Ok(b)) => tr.time("pipeline.run", root, req, || pipeline_run(&a, &b, &p)),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        tr.close(root);
        report
    });
    let wall = t_run.elapsed().as_secs_f64();
    ctx.count_cells(pair.cells() * walls.len() as u128);
    out.set("setup_s", setup.seconds());
    job_metrics(out, pair.cells(), &walls);

    if ctx.traced {
        proc_metrics(out, ctx, cpu0, wall);
        out.set("trace.overhead_frac", overhead(&walls));
        let ok: Vec<&RunReport> = reports.iter().filter_map(|r| r.as_ref().ok()).collect();
        pipeline_metrics(out, &ok);
    }

    // Checks, outside the timed region.
    let want = cross_engine().best(&pair.a_codes(), &pair.b_codes(), &ScoreScheme::cudalign());
    for r in &reports {
        out.check(r.clone().and_then(|r| {
            same_cell("megapair best", r.best, want)?;
            check_pinned(ctx, "megapair best", r.best, PINNED_MEGAPAIR)
        }));
    }
}

/// `pipeline.*` from the workload's own reports.
fn pipeline_metrics(out: &mut Outcome, reports: &[&RunReport]) {
    let walls: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.wall_time.map(|w| w.as_secs_f64()))
        .collect();
    out.set("pipeline.wall_s", median(&walls));
    let (mut compute, mut win, mut wout, mut other, mut total, mut blocked) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for r in reports {
        for d in &r.devices {
            if let Some(a) = &d.attribution {
                compute += a.compute_ns;
                win += a.wait_input_ns;
                wout += a.wait_output_ns;
                other += a.other_ns;
                total += a.total_ns();
            }
            if let Some(ring) = &d.ring_out {
                blocked += ring.producer_blocks + ring.consumer_blocks;
            }
        }
    }
    let total = total.max(1) as f64;
    out.set("pipeline.compute_frac", compute as f64 / total);
    out.set("pipeline.wait_input_frac", win as f64 / total);
    out.set("pipeline.wait_output_frac", wout as f64 / total);
    out.set("pipeline.other_frac", other as f64 / total);
    out.set(
        "pipeline.ring_blocked",
        blocked as f64 / reports.len().max(1) as f64,
    );
    let cells = reports.first().map_or(0, |r| r.total_cells) as f64;
    let best = out.values.get("sw.best_gcups").copied().unwrap_or(f64::NAN);
    out.set("pipeline.speedup", cells / median(&walls) / 1e9 / best);
}

// ─────────────────────────────── align ───────────────────────────────

struct Aligned {
    best: BestCell,
    cigar_len: usize,
    times: StageTimes,
    segment: (usize, usize, usize, usize),
}

/// FASTA text → verified CIGAR: stages 1–3, then the CIGAR is rescored
/// over its segment and must reproduce the stage-1 score.
fn align_op(
    fa: &str,
    fb: &str,
    p: &Prepared,
    tr: &crate::trace::Tracer,
    req: u64,
) -> Result<Aligned, String> {
    let root = tr.open("align.job", SpanId::NONE, req);
    let (a, b) = tr.time("fasta.parse", root, req, || (parse(fa), parse(fb)));
    let (a, b) = (a?, b?);
    let (aln, times) = tr
        .time("stages.multigpu_local_align", root, req, || {
            multigpu_local_align(&a, &b, &p.platform, &p.config)
        })
        .map_err(|e| format!("align: {e}"))?;
    let seg_a = &a[aln.start_i - 1..aln.end_i];
    let seg_b = &b[aln.start_j - 1..aln.end_j];
    let rescored = tr.time("traceback.score_of_ops", root, req, || {
        score_of_ops(seg_a, seg_b, &aln.ops, &p.config.scheme)
    })?;
    let cigar = tr.time("traceback.cigar", root, req, || aln.cigar());
    tr.close(root);
    if rescored != aln.score {
        return Err(format!(
            "CIGAR rescores to {rescored}, stage 1 said {}",
            aln.score
        ));
    }
    Ok(Aligned {
        best: BestCell {
            score: aln.score,
            i: aln.end_i,
            j: aln.end_j,
        },
        cigar_len: cigar.len(),
        times,
        segment: (aln.start_i, aln.end_i, aln.start_j, aln.end_j),
    })
}

// ───────────────────────────── dbsearch ─────────────────────────────

fn batch_op(
    texts: &[(String, String)],
    p: &Prepared,
    tr: &crate::trace::Tracer,
    req: u64,
) -> Result<BatchReport, String> {
    let root = tr.open("dbsearch.job", SpanId::NONE, req);
    let jobs = tr.time("fasta.parse", root, req, || {
        texts
            .iter()
            .enumerate()
            .map(|(k, (fa, fb))| Ok(BatchJob::new(format!("db{k}"), parse(fa)?, parse(fb)?)))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let report = tr.time("batch.run", root, req, || {
        BatchRun::new(&jobs, &p.platform)
            .config(BatchConfig::default().with_base(p.config.clone()))
            .run()
    });
    tr.close(root);
    report.map_err(|e| format!("batch: {e}"))
}

fn fasta_pairs(pairs: &[PairText]) -> Vec<(String, String)> {
    pairs.iter().map(|p| (p.fasta_a(), p.fasta_b())).collect()
}

pub fn dbsearch(ctx: &Ctx, out: &mut Outcome) {
    let pairs = gen::dbsearch(ctx.seed, gen::DBSEARCH_PAIRS);
    let texts = fasta_pairs(&pairs);
    let flat: Vec<&str> = texts
        .iter()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    let mut setup = Setup::new(flat);
    let p = prepare();
    let _ = batch_op(&texts[..40], &p, &ctx.off, 0);

    let cells: u128 = pairs.iter().map(PairText::cells).sum();
    let cpu0 = cpu_s(std::process::id()).unwrap_or(0.0);
    let t_run = Instant::now();
    let (walls, reports) = timed(ctx.seconds, 3, &mut setup, |k| {
        batch_op(&texts, &p, ctx.tracer_for(k), k as u64)
    });
    let wall = t_run.elapsed().as_secs_f64();
    ctx.count_cells(cells * walls.len() as u128);
    // A job is the whole search: `BatchRun::run` hands back every score
    // at once. Per-pair latencies are the per-layer `batch.pair_*`.
    out.set("setup_s", setup.seconds());
    job_metrics(out, cells, &walls);

    if ctx.traced {
        proc_metrics(out, ctx, cpu0, wall);
        out.set("trace.overhead_frac", overhead(&walls));
        let ok: Vec<&BatchReport> = reports.iter().filter_map(|r| r.as_ref().ok()).collect();
        batch_metrics(out, &ok, p.platform.len());
    }

    // Every pair against the independent engine; pairs of at most 1 M
    // cells also pit that engine against forced scalar, so a fault shared
    // by both SIMD engines still shows.
    let scheme = ScoreScheme::cudalign();
    let cross = cross_engine();
    let want: Vec<BestCell> = pairs
        .iter()
        .map(|pr| cross.best(&pr.a_codes(), &pr.b_codes(), &scheme))
        .collect();
    for (pr, w) in pairs
        .iter()
        .zip(&want)
        .filter(|(pr, _)| pr.cells() <= 1 << 20)
    {
        let scalar = kernel::scalar().best(&pr.a_codes(), &pr.b_codes(), &scheme);
        out.check(same_cell(&format!("scalar on {}", pr.id), scalar, *w));
    }
    if ctx.seed == 1 {
        let sum: i64 = want.iter().map(|b| i64::from(b.score)).sum();
        let ij: u64 = want.iter().map(|b| (b.i + b.j) as u64).sum();
        out.check(if (sum, ij) == PINNED_DBSEARCH {
            Ok(())
        } else {
            Err(format!(
                "dbsearch seed-1 checksum {:?} != pinned {:?}",
                (sum, ij),
                PINNED_DBSEARCH
            ))
        });
    }
    check_batches(out, &reports, &want);
}

/// Every pair of every batch against the independent engine's `want`.
fn check_batches(out: &mut Outcome, reports: &[Result<BatchReport, String>], want: &[BestCell]) {
    for r in reports {
        match r {
            Ok(r) if r.pairs.len() == want.len() => {
                for o in &r.pairs {
                    out.check(same_cell(
                        &format!("batch pair {}", o.pair),
                        o.best,
                        want[o.pair],
                    ));
                }
            }
            Ok(r) => out.check(Err(format!(
                "batch returned {} of {} pairs",
                r.pairs.len(),
                want.len()
            ))),
            Err(e) => out.check(Err(e.clone())),
        }
    }
}

fn batch_metrics(out: &mut Outcome, reports: &[&BatchReport], devices: usize) {
    let med =
        |f: &dyn Fn(&BatchReport) -> f64| median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>());
    out.set("batch.wall_s", med(&|r| r.wall_time.as_secs_f64()));
    out.set(
        "batch.pair_p50_ms",
        med(&|r| r.latency_p50.as_secs_f64() * 1e3),
    );
    out.set(
        "batch.pair_p99_ms",
        med(&|r| r.latency_p99.as_secs_f64() * 1e3),
    );
    out.set(
        "batch.device_busy_frac",
        med(&|r| {
            let busy: f64 = r
                .pairs
                .iter()
                .map(|o| o.latency.as_secs_f64() * if o.large { devices as f64 } else { 1.0 })
                .sum();
            busy / (r.wall_time.as_secs_f64() * devices as f64)
        }),
    );
    out.set(
        "batch.large_cell_frac",
        med(&|r| {
            let large: u128 = r.pairs.iter().filter(|o| o.large).map(|o| o.cells).sum();
            large as f64 / r.total_cells.max(1) as f64
        }),
    );
    out.set(
        "batch.requeued",
        reports.iter().map(|r| r.requeued as f64).sum(),
    );
}

// ─────────────────────────────── probes ───────────────────────────────
//
// A traced run measures every layer. Layers the workload does not drive
// itself are measured here, on inputs cut from the workloads' own
// generators for the same seed.

/// `sw.*`: 512² tiles and single-thread `Kernel::best` on a `megapair`
/// window, and ≤128² tiles from the `dbsearch` short pairs.
pub fn probe_sw(ctx: &Ctx, out: &mut Outcome) {
    let scheme = ScoreScheme::cudalign();
    let engine = kernel::select(KernelDispatch::Auto).expect("Auto always resolves");
    let mega = gen::megapair(ctx.seed);
    let (a, b) = (mega.a_codes(), mega.b_codes());

    // 4 × 8 tiles of 512², borders carried as in the pipeline.
    let tiles = |a: &[u8], b: &[u8]| {
        let mut tops: Vec<RowBorder> = (0..b.len() / 512).map(|_| RowBorder::zero(512)).collect();
        let mut best = BestCell::ZERO;
        for r in 0..a.len() / 512 {
            let mut left = ColBorder::zero(512);
            for (c, top) in tops.iter_mut().enumerate() {
                let o = engine.block(
                    BlockInput {
                        a_rows: &a[r * 512..(r + 1) * 512],
                        b_cols: &b[c * 512..(c + 1) * 512],
                        top,
                        left: &left,
                        row_offset: r * 512 + 1,
                        col_offset: c * 512 + 1,
                    },
                    &scheme,
                );
                best = best.merge(o.best);
                *top = o.bottom;
                left = o.right;
            }
        }
        best
    };
    let (wa, wb) = (&a[..2048], &b[..4096]);
    let rate = |cells: u128, reps: usize, f: &dyn Fn()| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                cells as f64 / t.elapsed().as_secs_f64() / 1e9
            })
            .collect();
        ctx.count_cells(cells * reps as u128);
        median(&samples)
    };
    out.set(
        "sw.tile_gcups",
        rate(2048 * 4096, 41, &|| {
            black_box(tiles(wa, wb));
        }),
    );

    let db = gen::dbsearch(ctx.seed, gen::DBSEARCH_PAIRS);
    let edge: Vec<(Vec<u8>, Vec<u8>)> = db
        .iter()
        .filter(|p| p.a.len() <= 128 && p.b.len() <= 128)
        .map(|p| (p.a_codes(), p.b_codes()))
        .collect();
    let edge_cells: u128 = edge
        .iter()
        .map(|(a, b)| a.len() as u128 * b.len() as u128)
        .sum();
    out.set(
        "sw.tile_gcups.edge",
        rate(edge_cells * 200, 9, &|| {
            for _ in 0..200 {
                for (a, b) in &edge {
                    let (top, left) = (RowBorder::zero(b.len()), ColBorder::zero(a.len()));
                    black_box(engine.block(
                        BlockInput {
                            a_rows: a,
                            b_cols: b,
                            top: &top,
                            left: &left,
                            row_offset: 1,
                            col_offset: 1,
                        },
                        &scheme,
                    ));
                }
            }
        }),
    );

    let (ba, bb) = (&a[..12_000], &b[..12_000]);
    out.set(
        "sw.best_gcups",
        rate(12_000 * 12_000, 5, &|| {
            black_box(engine.best(ba, bb, &scheme));
        }),
    );
}

/// `traceback.mm_gcups`: Myers–Miller over a segment (`m·n` cells per
/// call), median of `reps` calls.
pub fn probe_traceback(ctx: &Ctx, out: &mut Outcome, a: &[u8], b: &[u8], reps: usize) {
    let scheme = ScoreScheme::cudalign();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(myers_miller(a, b, &scheme));
            a.len() as f64 * b.len() as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    ctx.count_cells(a.len() as u128 * b.len() as u128 * reps as u128);
    out.set("traceback.mm_gcups", median(&samples));
}

/// `pipeline.*` on a 20 kbp corner of the `megapair` pair.
pub fn probe_pipeline(ctx: &Ctx, out: &mut Outcome) {
    let mega = gen::megapair(ctx.seed);
    let (a, b) = (&mega.a_codes()[..20_000], &mega.b_codes()[..20_000]);
    let p = prepare();
    let results: Vec<Result<RunReport, String>> = (0..3).map(|_| pipeline_run(a, b, &p)).collect();
    ctx.count_cells(20_000 * 20_000 * 3);
    let ok: Vec<&RunReport> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    pipeline_metrics(out, &ok);
    let want = cross_engine().best(a, b, &ScoreScheme::cudalign());
    for r in results {
        out.check(r.and_then(|r| same_cell("pipeline probe best", r.best, want)));
    }
}

/// `stages.*` and `traceback.mm_gcups` on the 8 kbp `align` pair, each
/// job FASTA text → CIGAR rescored by `score_of_ops`.
pub fn probe_stages(ctx: &Ctx, out: &mut Outcome) {
    let pair = gen::align(ctx.seed);
    let (fa, fb) = (pair.fasta_a(), pair.fasta_b());
    let p = prepare();
    let results: Vec<Result<Aligned, String>> =
        (0..3).map(|k| align_op(&fa, &fb, &p, &ctx.on, k)).collect();
    ctx.count_cells(pair.cells() * 3);
    let ok: Vec<&Aligned> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let stage =
        |f: fn(&StageTimes) -> f64| median(&ok.iter().map(|r| f(&r.times)).collect::<Vec<_>>());
    out.set("stages.stage1_s", stage(|t| t.stage1.as_secs_f64()));
    out.set("stages.stage2_s", stage(|t| t.stage2.as_secs_f64()));
    out.set("stages.stage3_s", stage(|t| t.stage3.as_secs_f64()));
    let (a, b) = (pair.a_codes(), pair.b_codes());
    if let Some(r) = ok.first() {
        let (si, ei, sj, ej) = r.segment;
        probe_traceback(ctx, out, &a[si - 1..ei], &b[sj - 1..ej], 3);
    }
    let want = cross_engine().best(&a, &b, &ScoreScheme::cudalign());
    for r in results {
        out.check(r.and_then(|r| {
            if r.cigar_len == 0 {
                return Err("empty CIGAR for a homologous pair".into());
            }
            same_cell("align probe end cell", r.best, want)
        }));
    }
}

/// `batch.*` on the first 60 `dbsearch` pairs.
pub fn probe_batch(ctx: &Ctx, out: &mut Outcome) {
    let pairs = &gen::dbsearch(ctx.seed, gen::DBSEARCH_PAIRS)[..60];
    let texts = fasta_pairs(pairs);
    let p = prepare();
    let reports: Vec<Result<BatchReport, String>> =
        (0..3).map(|k| batch_op(&texts, &p, &ctx.on, k)).collect();
    ctx.count_cells(pairs.iter().map(PairText::cells).sum::<u128>() * 3);
    let ok: Vec<&BatchReport> = reports.iter().filter_map(|r| r.as_ref().ok()).collect();
    batch_metrics(out, &ok, p.platform.len());
    let scheme = ScoreScheme::cudalign();
    let cross = cross_engine();
    let want: Vec<BestCell> = pairs
        .iter()
        .map(|pr| cross.best(&pr.a_codes(), &pr.b_codes(), &scheme))
        .collect();
    check_batches(out, &reports, &want);
}

/// One-pair `BatchRun`s: a ≤128 bp `dbsearch` pair and a 1 kbp pair —
/// the per-pair fixed cost against a pair big enough to amortise it.
/// The last run of each is checked against the independent engine.
pub fn probe_small_pairs(ctx: &Ctx, out: &mut Outcome) {
    let p = prepare();
    let cfg = BatchConfig::default().with_base(p.config.clone());
    let scheme = ScoreScheme::cudalign();
    let mut one = |pair: &PairText, reps: usize| {
        let (a, b) = (pair.a_codes(), pair.b_codes());
        let job = [BatchJob::new("one", a.clone(), b.clone())];
        let mut last = Err("no run".to_string());
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                last = black_box(BatchRun::new(&job, &p.platform).config(cfg.clone()).run())
                    .map_err(|e| format!("one-pair batch: {e}"));
                t.elapsed().as_secs_f64()
            })
            .collect();
        ctx.count_cells(pair.cells() * reps as u128);
        let want = cross_engine().best(&a, &b, &scheme);
        out.check(last.and_then(|r| match r.pairs.first() {
            Some(o) => same_cell(&format!("one-pair batch {}", pair.id), o.best, want),
            None => Err("one-pair batch returned no pair".into()),
        }));
        median(&samples)
    };
    let db = gen::dbsearch(ctx.seed, gen::DBSEARCH_PAIRS);
    let tiny = db
        .iter()
        .filter(|p| p.a.len() <= 128 && p.b.len() <= 128)
        .max_by_key(|p| p.cells())
        .expect("the dbsearch mix has pairs within one 128² tile");
    let t_tiny = one(tiny, 201);
    let mut rng = gen::Rng::new(ctx.seed, "probe.kbp");
    let (a, b) = gen::homologous_pair(&mut rng, 1000);
    let kbp = PairText {
        id: "kbp".into(),
        a,
        b,
    };
    let t_kbp = one(&kbp, 31);
    out.set("batch.tiny_pair_us", t_tiny * 1e6);
    out.set("batch.tiny_pair_gcups", tiny.cells() as f64 / t_tiny / 1e9);
    out.set("batch.kbp_pair_gcups", kbp.cells() as f64 / t_kbp / 1e9);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recomputes the seed-1 pins with forced scalar (about a minute):
    /// `cargo test --release -- --ignored --nocapture pin_seed1`.
    #[test]
    #[ignore]
    fn pin_seed1() {
        let scheme = ScoreScheme::cudalign();
        let scalar = kernel::scalar();
        let cell = |p: &PairText| scalar.best(&p.a_codes(), &p.b_codes(), &scheme);
        let m = cell(&gen::megapair(1));
        let db: Vec<BestCell> = gen::dbsearch(1, gen::DBSEARCH_PAIRS)
            .iter()
            .map(cell)
            .collect();
        let sum: i64 = db.iter().map(|b| i64::from(b.score)).sum();
        let ij: u64 = db.iter().map(|b| (b.i + b.j) as u64).sum();
        println!("PINNED_MEGAPAIR = ({}, {}, {})", m.score, m.i, m.j);
        println!("PINNED_DBSEARCH = ({sum}, {ij})");
        assert_eq!((m.score, m.i, m.j), PINNED_MEGAPAIR);
        assert_eq!((sum, ij), PINNED_DBSEARCH);
    }
}
