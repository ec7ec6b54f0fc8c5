//! Differential batch-conformance suite.
//!
//! The batch engine's core promise is that batching is **score-transparent**:
//! a pair's score out of `megasw batch` is bit-identical to what a solo
//! [`PipelineRun`] of the same pair produces, no matter which device or
//! route (whole-pair dispatch vs full-platform slab pipeline) executed it,
//! and no matter which kernel-dispatch × pruning × recovery combination is
//! in force. This suite holds that line differentially:
//!
//! * a ≥100-pair mixed-size batch (degenerate, small and large-route pairs)
//!   checked pair-by-pair against solo runs on the full platform;
//! * sampled dispatch × pruning × recovery combos, with and without
//!   injected device faults, on the threaded backend — plus the DES twin's
//!   determinism on the same shapes (`ci.sh` reruns the headline test under
//!   `MEGASW_KERNEL=scalar` for the forced-scalar leg);
//! * the length-sorted binning plan property-tested under seeded shuffles
//!   and adversarial size mixes: every pair scheduled exactly once;
//! * the FASTA/manifest loaders fed real-world edge cases (empty records,
//!   lowercase bases, CRLF endings, trailing record without newline);
//! * the DES packing anchor: ≥2× speedup over one-pair-at-a-time on a
//!   small-pair-heavy manifest, bit-deterministically.

use megasw::prelude::*;
use megasw::seq::rng::ChaCha8Rng;

#[path = "util/deadline.rs"]
mod deadline;
use deadline::with_deadline;

/// Deterministic mixed-size job list: `count` homologous pairs with lengths
/// sampled from `min_len..max_len`.
fn mixed_jobs(count: usize, seed: u64, min_len: usize, max_len: usize) -> Vec<BatchJob> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let len = min_len + rng.gen_range(0usize..(max_len - min_len).max(1));
            let a =
                ChromosomeGenerator::new(GenerateConfig::sized(len, seed + i as u64)).generate();
            let (b, _) = DivergenceModel::test_scale(seed + 1_000 + i as u64).apply(&a);
            BatchJob::new(format!("pair{i}"), a.codes().to_vec(), b.codes().to_vec())
        })
        .collect()
}

/// Solo reference for one job: a fault-free [`PipelineRun`] of the same
/// pair on the same full platform with the same config.
fn solo_best(job: &BatchJob, platform: &Platform, cfg: &RunConfig) -> BestCell {
    PipelineRun::new(&job.a, &job.b, platform)
        .config(cfg.clone())
        .run()
        .unwrap_or_else(|e| panic!("solo run of {} failed: {e}", job.id))
        .best
}

/// Every dispatch mode the host supports (mirrors the conformance matrix).
fn available_dispatches() -> Vec<KernelDispatch> {
    [
        KernelDispatch::ForceScalar,
        KernelDispatch::ForceSse41,
        KernelDispatch::ForceAvx2,
    ]
    .into_iter()
    .filter(|&d| kernel::select(d).is_ok())
    .collect()
}

#[test]
fn batch_of_100_mixed_pairs_is_bit_identical_to_solo_runs() {
    // The acceptance batch: ≥100 pairs spanning degenerate (empty), small
    // (whole-pair dispatch) and large (slab-pipeline route) sizes.
    let mut jobs = mixed_jobs(100, 0xBA7C_0001, 64, 240);
    jobs.extend(mixed_jobs(4, 0xBA7C_0002, 280, 320)); // large route
    jobs.push(BatchJob::new("emptyA", Vec::new(), vec![0, 1, 2, 3]));
    jobs.push(BatchJob::new("emptyB", vec![1, 2, 3], Vec::new()));
    assert!(jobs.len() >= 100);

    let platform = Platform::env2();
    let cfg = BatchConfig::test_default()
        .with_large_threshold_cells(60_000)
        .with_bins(5);
    let base = cfg.base.clone();
    let n_large = jobs
        .iter()
        .filter(|j| j.cells() >= cfg.large_threshold_cells)
        .count();
    assert!(n_large >= 2, "want large-route coverage, got {n_large}");

    let report = {
        let (jobs, platform, cfg) = (jobs.clone(), platform.clone(), cfg.clone());
        with_deadline(
            "mixed batch",
            std::time::Duration::from_secs(300),
            move || BatchRun::new(&jobs, &platform).config(cfg).run(),
        )
    }
    .expect("batch run failed");

    // Exactly one outcome per submitted pair, in submission order.
    assert_eq!(report.pairs.len(), jobs.len());
    for (i, p) in report.pairs.iter().enumerate() {
        assert_eq!(p.pair, i, "outcome order broken at {i}");
        assert_eq!(p.id, jobs[i].id);
        assert_eq!(
            p.large,
            jobs[i].cells() >= cfg.large_threshold_cells,
            "pair {i} took the wrong route"
        );
    }
    assert_eq!(report.large_pairs, n_large);
    assert_eq!(report.small_pairs + report.large_pairs, jobs.len());
    assert!(report.latency_p50 <= report.latency_p90);
    assert!(report.latency_p90 <= report.latency_p99);
    assert!(report.gcups_wall > 0.0);

    // The differential core: every batch score equals its solo score.
    for (i, job) in jobs.iter().enumerate() {
        let want = solo_best(job, &platform, &base);
        assert_eq!(
            report.pairs[i].best, want,
            "pair {i} ({}) diverged from its solo run",
            job.id
        );
    }
    // Degenerate pairs score zero on both paths.
    assert_eq!(report.pairs[jobs.len() - 2].best, BestCell::ZERO);
    assert_eq!(report.pairs[jobs.len() - 1].best, BestCell::ZERO);
}

#[test]
fn sampled_dispatch_pruning_recovery_combos_stay_bit_identical() {
    // Dispatch × pruning × recovery sampling. Each combo runs the same
    // mixed batch twice — fault-free, then with one small-pair and one
    // large-pair device fault under a batch-level recovery budget — and
    // every score must match the fault-free solo reference both times.
    let platform = Platform::env2();
    for (ci, dispatch) in available_dispatches().into_iter().enumerate() {
        for prune in [PruneMode::Off, PruneMode::Distributed] {
            let base = RunConfig::test_default()
                .with_dispatch(dispatch)
                .with_pruning(prune)
                .with_checkpoint(CheckpointCadence::EveryRows(4));
            let cfg = BatchConfig::test_default()
                .with_base(base.clone())
                .with_large_threshold_cells(60_000)
                .with_bins(3);
            let mut jobs = mixed_jobs(8, 0xC0_4B0 + ci as u64, 96, 224);
            jobs.extend(mixed_jobs(1, 0xC0_4F0 + ci as u64, 300, 320));
            let large_idx = jobs.len() - 1;
            let want: Vec<BestCell> = jobs
                .iter()
                .map(|j| solo_best(j, &platform, &base))
                .collect();

            let clean = BatchRun::new(&jobs, &platform)
                .config(cfg.clone())
                .run()
                .unwrap_or_else(|e| panic!("{dispatch:?}/{prune:?}: clean batch failed: {e}"));
            for (i, p) in clean.pairs.iter().enumerate() {
                assert_eq!(p.best, want[i], "{dispatch:?}/{prune:?}: clean pair {i}");
            }

            // Recovery leg: the large pair loses device 1 mid-run (in-run
            // checkpoint recovery), then a small pair loses its device
            // (requeue on a survivor).
            let faults = vec![
                BatchFault {
                    pair: large_idx,
                    fault: ScheduledFault {
                        device: 1,
                        block_row: 2,
                        phase: FaultPhase::Compute,
                    },
                },
                BatchFault {
                    pair: 3,
                    fault: ScheduledFault {
                        device: 0,
                        block_row: 1,
                        phase: FaultPhase::Compute,
                    },
                },
            ];
            let faulted = {
                let (jobs, platform, cfg) = (jobs.clone(), platform.clone(), cfg.clone());
                with_deadline(
                    "faulted combo batch",
                    std::time::Duration::from_secs(120),
                    move || {
                        BatchRun::new(&jobs, &platform)
                            .config(cfg)
                            .faults(faults)
                            .recover(RecoveryPolicy {
                                max_device_failures: 2,
                            })
                            .run()
                    },
                )
            }
            .unwrap_or_else(|e| panic!("{dispatch:?}/{prune:?}: faulted batch failed: {e}"));
            assert_eq!(faulted.pairs.len(), jobs.len());
            for (i, p) in faulted.pairs.iter().enumerate() {
                assert_eq!(p.best, want[i], "{dispatch:?}/{prune:?}: faulted pair {i}");
            }
            assert!(
                faulted.recoveries >= 2,
                "{dispatch:?}/{prune:?}: expected both faults survived, got {}",
                faulted.recoveries
            );
            assert!(
                faulted.pairs[large_idx].recoveries >= 1,
                "{dispatch:?}/{prune:?}: large pair did not recover in-run"
            );
            assert!(faulted.requeued >= 1, "{dispatch:?}/{prune:?}: no requeue");
        }
    }
}

#[test]
fn des_twin_is_deterministic_on_conformance_shapes() {
    // The other backend: the DES twin of the same mixed shape must be
    // bit-deterministic and structurally consistent with the plan.
    let specs: Vec<BatchSpec> = (0..30)
        .map(|i| BatchSpec {
            m: 1_500 + 111 * (i % 7),
            n: 1_700 + 97 * (i % 5),
        })
        .chain(std::iter::once(BatchSpec { m: 6_000, n: 6_000 }))
        .collect();
    let env2 = Platform::env2();
    let cfg = BatchConfig::default().with_large_threshold_cells(30_000_000);
    let r1 = BatchSim::new(&specs, &env2).config(cfg.clone()).run();
    let r2 = BatchSim::new(&specs, &env2).config(cfg).run();
    assert_eq!(r1, r2, "DES twin is not deterministic");
    assert_eq!(r1.small_pairs + r1.large_pairs, specs.len());
    assert_eq!(r1.large_pairs, 1);
    assert_eq!(
        r1.per_device_pairs.iter().sum::<usize>(),
        r1.small_pairs,
        "packed schedule lost or duplicated a pair"
    );
    assert!(r1.packed > std::time::Duration::ZERO);
    assert!(r1.gcups_sim > 0.0);
}

#[test]
fn binning_tiles_every_manifest_exactly_under_seeded_shuffles() {
    // Property: for any size mix, bin count and threshold, the plan is a
    // permutation of the job list — every pair scheduled exactly once —
    // with correct routing and LPT (descending) queue order.
    let mut rng = ChaCha8Rng::seed_from_u64(0xB1_7715);
    let threshold = 40_000u128;
    for case in 0..300 {
        let n = rng.gen_range(0usize..48);
        let mut cells: Vec<u128> = (0..n)
            .map(|_| match rng.gen_range(0usize..6) {
                0 => 0,                                             // degenerate
                1 => rng.gen_range(1usize..100) as u128,            // tiny
                2 => threshold,                                     // boundary
                3 => rng.gen_range(39_990usize..40_010) as u128,    // near-boundary
                4 => rng.gen_range(40_001usize..5_000_000) as u128, // large
                _ => rng.gen_range(0usize..1_000_000) as u128,      // anything
            })
            .collect();
        // Adversarial mixes on a rotating subset of cases.
        match case % 5 {
            1 => cells.iter_mut().for_each(|c| *c = 777), // all equal
            2 => cells.sort_unstable(),                   // ascending
            3 => {
                cells.sort_unstable();
                cells.reverse(); // descending
            }
            4 if !cells.is_empty() => {
                cells[0] = u64::MAX as u128; // one huge + rest tiny
                cells[1..].iter_mut().for_each(|c| *c %= 50);
            }
            _ => {}
        }
        let bins = 1 + rng.gen_range(0usize..9);
        let cfg = BatchConfig::test_default()
            .with_large_threshold_cells(threshold)
            .with_bins(bins);
        let plan = BatchPlan::build_from_cells(&cells, &cfg);

        // Exact tiling: scheduled() is a permutation of 0..n.
        let mut sched = plan.scheduled();
        sched.sort_unstable();
        assert_eq!(
            sched,
            (0..n).collect::<Vec<_>>(),
            "case {case}: not a tiling"
        );

        // Routing respects the threshold.
        for &i in &plan.large {
            assert!(
                cells[i] >= threshold,
                "case {case}: pair {i} misrouted large"
            );
        }
        for b in &plan.bins {
            for &i in &b.pairs {
                assert!(
                    cells[i] < threshold,
                    "case {case}: pair {i} misrouted small"
                );
            }
        }

        // Queue order is LPT: non-increasing cell counts front to back.
        let q = plan.queue_order();
        for w in q.windows(2) {
            assert!(
                cells[w[0]] >= cells[w[1]],
                "case {case}: queue not length-sorted"
            );
        }

        // Bins are balanced: sizes differ by at most one, larger bins first.
        let sizes: Vec<usize> = plan.bins.iter().map(|b| b.pairs.len()).collect();
        if let (Some(&max), Some(&min)) = (sizes.iter().max(), sizes.iter().min()) {
            assert!(max - min <= 1, "case {case}: unbalanced bins {sizes:?}");
        }
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "case {case}: bin sizes not front-loaded");
        }

        // Determinism: the same inputs produce the same plan.
        assert_eq!(
            plan,
            BatchPlan::build_from_cells(&cells, &cfg),
            "case {case}"
        );
    }
}

/// A scratch directory unique to this process.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("megasw-batchconf-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn fasta_pair_loader_tolerates_real_world_edge_cases() {
    // One file exercises every quirk the loaders must survive: CRLF line
    // endings, lowercase bases, an empty record, and a trailing record
    // without a final newline.
    let dir = scratch("fasta");
    let a_path = dir.join("a.fa");
    let b_path = dir.join("b.fa");
    std::fs::write(
        &a_path,
        ">r0 first\r\nACGTacgt\r\nACGT\r\n>r1 empty\r\n>r2 lower\nacgt\nacgt\n>r3 trailing\nACGTACG",
    )
    .unwrap();
    std::fs::write(
        &b_path,
        ">s0\nACGTACGTACGT\n>s1\nTTTT\n>s2\r\nACGTACGT\r\n>s3\ngattaca",
    )
    .unwrap();

    let jobs = jobs_from_fasta_pair(&a_path, &b_path).unwrap();
    assert_eq!(jobs.len(), 4);
    assert_eq!(&*jobs[0].id, "r0|s0");
    assert_eq!(&*jobs[1].id, "r1|s1");
    assert_eq!(jobs[0].a.len(), 12); // CRLF + lowercase decoded
    assert!(jobs[1].a.is_empty()); // empty record preserved as empty pair
    assert_eq!(jobs[2].a.len(), 8); // lowercase-only record
    assert_eq!(jobs[3].a.len(), 7); // trailing record without newline
    assert_eq!(jobs[3].b.len(), 7);

    // The loaded batch runs, and every score matches the scalar oracle.
    let cfg = BatchConfig::test_default();
    let report = BatchRun::new(&jobs, &Platform::env1())
        .config(cfg.clone())
        .run()
        .unwrap();
    for (i, p) in report.pairs.iter().enumerate() {
        let want = kernel::scalar().best(&jobs[i].a, &jobs[i].b, &cfg.base.scheme);
        assert_eq!(p.best, want, "pair {i}");
    }
    assert_eq!(report.pairs[1].best, BestCell::ZERO); // empty record → 0

    // Record-count mismatch is a loud error, not a silent zip-truncate.
    let c_path = dir.join("c.fa");
    std::fs::write(&c_path, ">only\nACGT\n").unwrap();
    let err = jobs_from_fasta_pair(&a_path, &c_path).unwrap_err();
    assert!(err.contains("record count mismatch"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifest_loader_resolves_paths_and_rejects_malformed_lines() {
    let dir = scratch("manifest");
    for (name, text) in [
        ("p0a.fa", ">p0a\nACGTACGTACGT\n"),
        ("p0b.fa", ">p0b\r\nacgtacgt\r\n"), // CRLF + lowercase
        ("p1a.fa", ">p1a\nGATTACA"),        // no trailing newline
        ("p1b.fa", ">p1b\nTTTTTTTT\n"),
    ] {
        std::fs::write(dir.join(name), text).unwrap();
    }
    let manifest = dir.join("batch.manifest");
    // Comments, blank lines, relative and absolute paths all in one file.
    std::fs::write(
        &manifest,
        format!(
            "# batch manifest\n\np0a.fa p0b.fa\n{} p1b.fa\n",
            dir.join("p1a.fa").display()
        ),
    )
    .unwrap();

    let jobs = jobs_from_manifest(&manifest).unwrap();
    assert_eq!(jobs.len(), 2);
    assert_eq!(&*jobs[0].id, "p0a|p0b");
    assert_eq!(&*jobs[1].id, "p1a|p1b");
    assert_eq!(jobs[0].b.len(), 8);
    assert_eq!(jobs[1].a.len(), 7);

    let cfg = BatchConfig::test_default();
    let report = BatchRun::new(&jobs, &Platform::env1())
        .config(cfg.clone())
        .run()
        .unwrap();
    for (i, p) in report.pairs.iter().enumerate() {
        let want = kernel::scalar().best(&jobs[i].a, &jobs[i].b, &cfg.base.scheme);
        assert_eq!(p.best, want, "pair {i}");
    }

    // A line with three tokens is malformed, with the line number named.
    std::fs::write(&manifest, "p0a.fa p0b.fa extra.fa\n").unwrap();
    let err = jobs_from_manifest(&manifest).unwrap_err();
    assert!(err.contains("line 1"), "{err}");
    // A missing file is a loud error naming the resolved path.
    std::fs::write(&manifest, "p0a.fa nothere.fa\n").unwrap();
    let err = jobs_from_manifest(&manifest).unwrap_err();
    assert!(err.contains("nothere.fa"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn live_telemetry_tracks_pair_progress_through_a_batch() {
    let jobs = mixed_jobs(6, 0x11_7E, 64, 160);
    let live = std::sync::Arc::new(LiveTelemetry::new(Platform::env1().len(), 0));
    let report = BatchRun::new(&jobs, &Platform::env1())
        .config(BatchConfig::test_default())
        .live(std::sync::Arc::clone(&live))
        .run()
        .unwrap();
    assert_eq!(report.pairs.len(), 6);
    let snap = live.snapshot();
    assert_eq!(snap.pairs_total, 6);
    assert_eq!(snap.pairs_done, 6);
    let line = render_progress_line(&snap, None);
    assert!(line.contains("pairs 6/6"), "{line}");
}

#[test]
fn des_packing_beats_serial_by_2x_on_small_pair_heavy_specs() {
    // The inter-task acceptance anchor: a ≥100-pair small-pair-heavy
    // manifest packs onto env2's three devices at least 2× faster than the
    // serial one-pair-at-a-time baseline, bit-deterministically.
    let specs: Vec<BatchSpec> = (0..120)
        .map(|i| BatchSpec {
            m: 2_000 + 29 * (i % 17),
            n: 2_200 + 41 * (i % 13),
        })
        .collect();
    let env2 = Platform::env2();
    let sim = BatchSim::new(&specs, &env2)
        .config(BatchConfig::default())
        .run();
    assert_eq!(sim.small_pairs, 120);
    assert_eq!(sim.large_pairs, 0);
    assert_eq!(sim.per_device_pairs.iter().sum::<usize>(), 120);
    assert!(
        sim.packing_speedup() >= 2.0,
        "packing speedup {:.2} < 2 (packed {:?} vs serial {:?})",
        sim.packing_speedup(),
        sim.packed,
        sim.serial
    );
    // Deterministic twice over — the bench anchor depends on it.
    let again = BatchSim::new(&specs, &env2)
        .config(BatchConfig::default())
        .run();
    assert_eq!(sim, again);
}
