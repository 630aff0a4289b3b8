//! Distributed-operation equivalence and failure-injection tests.

use artificial_scientist::cluster::comm::CommWorld;
use artificial_scientist::pic::domain::DistributedSim;
use artificial_scientist::pic::gather::gather_eb;
use artificial_scientist::pic::grid::GridSpec;
use artificial_scientist::pic::khi::KhiSetup;
use artificial_scientist::radiation::detector::Detector;
use artificial_scientist::radiation::lienard::{ParticleState, RadiationAccumulator};
use artificial_scientist::staging::engine::{open_stream, StreamConfig};

/// Radiation accumulated per-rank and merged (amplitude superposition over
/// the communicator) must equal the single-rank accumulation — the
/// distributed radiation diagnostic of the paper's in-situ plugin.
#[test]
fn distributed_radiation_merge_matches_single_rank() {
    let g = GridSpec::cubic(8, 8, 4, 0.5, 0.5);
    let setup = KhiSetup {
        ppc: 2,
        ..KhiSetup::default()
    };
    let det = Detector::along_x(0.2, 10.0, 12);
    let steps = 5usize;

    // Helper: accumulate LW amplitudes for the electrons of a local sim.
    let accumulate = |acc: &mut RadiationAccumulator,
                      det: &Detector,
                      sim: &artificial_scientist::pic::sim::Simulation,
                      origin: f64| {
        let sp = &sim.species[0];
        let qm = sp.charge / sp.mass;
        let mut states = Vec::with_capacity(sp.len());
        for i in 0..sp.len() {
            let gamma = sp.gamma(i);
            let beta = [sp.ux[i] / gamma, sp.uy[i] / gamma, sp.uz[i] / gamma];
            let (ex, ey, ez, bx, by, bz) =
                gather_eb(&sim.e, &sim.b, &sim.spec, sp.x[i], sp.y[i], sp.z[i], origin);
            let f = [
                qm * (ex + beta[1] * bz - beta[2] * by),
                qm * (ey + beta[2] * bx - beta[0] * bz),
                qm * (ez + beta[0] * by - beta[1] * bx),
            ];
            let bf = beta[0] * f[0] + beta[1] * f[1] + beta[2] * f[2];
            states.push(ParticleState {
                r: [sp.x[i], sp.y[i], sp.z[i]],
                beta,
                beta_dot: [
                    (f[0] - beta[0] * bf) / gamma,
                    (f[1] - beta[1] * bf) / gamma,
                    (f[2] - beta[2] * bf) / gamma,
                ],
                weight: sp.w[i],
            });
        }
        acc.accumulate(det, &states, sim.time, sim.spec.dt);
    };

    // Reference: single-rank.
    let comm1 = CommWorld::new(1).into_endpoints().remove(0);
    let mut single = DistributedSim::new(comm1, g, setup.all_species(&g));
    let mut ref_acc = RadiationAccumulator::new(&det);
    for _ in 0..steps {
        single.step();
        single.refresh_ghosts();
        accumulate(&mut ref_acc, &det, &single.local, 0.0);
    }
    let ref_intensity = ref_acc.intensity();

    // Distributed: 2 ranks, merge amplitudes across the communicator.
    let endpoints = CommWorld::new(2).into_endpoints();
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|comm| {
            let det = det.clone();
            std::thread::spawn(move || {
                let mut d = DistributedSim::new(comm, g, setup.all_species(&g));
                let mut acc = RadiationAccumulator::new(&det);
                for _ in 0..steps {
                    d.step();
                    d.refresh_ghosts();
                    accumulate(&mut acc, &det, &d.local, d.offset_cells as f64);
                }
                // Amplitude superposition across ranks = allreduce sum.
                d.comm().allreduce_sum_f64(acc.amplitudes_mut());
                acc.intensity()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // Both ranks hold the same merged spectrum; compare to the reference.
    for (a, b) in results[0].iter().flatten().zip(results[1].iter().flatten()) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1e-12));
    }
    for (got, want) in results[0]
        .iter()
        .flatten()
        .zip(ref_intensity.iter().flatten())
    {
        let scale = want.abs().max(1e-20);
        assert!(
            (got - want).abs() / scale < 1e-6,
            "distributed radiation diverged: {got:.6e} vs {want:.6e}"
        );
    }
}

/// Four-rank distributed KHI conserves global energy bookkeeping across
/// migrations and halo exchanges over a longer run.
#[test]
fn four_rank_khi_long_run_stays_consistent() {
    let g = GridSpec::cubic(16, 8, 4, 0.5, 0.5);
    let setup = KhiSetup {
        ppc: 2,
        ..KhiSetup::default()
    };
    let endpoints = CommWorld::new(4).into_endpoints();
    let handles: Vec<_> = endpoints
        .into_iter()
        .map(|comm| {
            std::thread::spawn(move || {
                let mut d = DistributedSim::new(comm, g, setup.all_species(&g));
                let n0 = d.global_particle_count();
                for _ in 0..40 {
                    d.step();
                }
                let n1 = d.global_particle_count();
                let (e2, b2) = d.global_field_energy();
                (n0, n1, e2, b2)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let (n0, n1, e2, b2) = results[0];
    assert_eq!(n0, n1, "no particles lost across 40 steps of migration");
    assert!(e2.is_finite() && b2.is_finite());
    for r in &results {
        assert_eq!(r.0, n0);
        assert_eq!(r.1, n1);
    }
}

/// Failure injection: a writer dropped mid-stream (producer crash) must
/// not wedge the reader — Drop closes the stream and the reader sees a
/// clean end after the published steps.
#[test]
fn dropped_writer_terminates_reader_cleanly() {
    let (mut writers, mut readers) = open_stream(StreamConfig::default());
    let mut w = writers.remove(0);
    let producer = std::thread::spawn(move || {
        w.begin_step();
        w.put_f64("x", 2, 0, &[1.0, 2.0]);
        w.end_step();
        // Simulated crash: drop without close() and without the second
        // promised step.
        drop(w);
    });
    let mut r = readers.remove(0);
    let mut steps = 0;
    while let Some(step) = r.begin_step() {
        steps += 1;
        r.end_step(step);
    }
    assert_eq!(steps, 1, "reader drains what was published, then stops");
    producer.join().unwrap();
}

/// Failure injection: a reader that abandons a stream (drops its endpoint)
/// must not deadlock the producer beyond the queue limit semantics —
/// steps the reader never closes stay queued, and the producer notices by
/// blocking, not crashing. Here the queue is large enough to finish.
#[test]
fn abandoned_reader_does_not_poison_the_stream() {
    let cfg = StreamConfig {
        queue_limit: 8,
        ..StreamConfig::default()
    };
    let (mut writers, mut readers) = open_stream(cfg);
    let mut w = writers.remove(0);
    // Reader reads one step then abandons.
    let r = readers.remove(0);
    let reader = std::thread::spawn(move || {
        let mut r = r;
        let step = r.begin_step().expect("first step");
        r.end_step(step);
        drop(r);
    });
    for s in 0..4 {
        w.begin_step();
        w.put_f64("x", 1, 0, &[s as f64]);
        w.end_step();
    }
    w.close();
    reader.join().unwrap();
}

/// Failure injection: a producer dying between the particle and
/// radiation emissions of a window leaves the two streams ending out of
/// sync. The consumer must not panic: it drains the longer stream
/// (releasing the queue) and surfaces the mismatch in its report.
#[test]
fn consumer_survives_streams_ending_out_of_sync() {
    use artificial_scientist::cluster::comm::Communicator;
    use artificial_scientist::core::config::WorkflowConfig;
    use artificial_scientist::core::consumer::run_consumer;
    use artificial_scientist::openpmd::attribute::UnitDimension;
    use artificial_scientist::openpmd::writer::OpenPmdWriter;

    let mut cfg = WorkflowConfig::small();
    cfg.n_rep = 1;
    let n_f = cfg.detector.n_freqs();
    let (_, ly, _) = cfg.grid.extents();

    let (mut pw, mut pr) = open_stream(StreamConfig::default());
    let (mut rw, mut rr) = open_stream(StreamConfig::default());
    let (pw, rw) = (pw.remove(0), rw.remove(0));
    let producer = std::thread::spawn(move || {
        let mut pw = OpenPmdWriter::new(pw);
        let mut rw = OpenPmdWriter::new(rw);
        let n = 32u64;
        for it in 0..3u64 {
            // Particle window `it`.
            pw.begin_iteration(it * 4, it as f64, 0.1);
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
            let ys: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64 * ly).collect();
            let zs = vec![0.5; n as usize];
            let us: Vec<f64> = (0..n).map(|i| 0.01 * (i as f64 - 16.0)).collect();
            for (comp, data) in [("x", &xs), ("y", &ys), ("z", &zs)] {
                pw.write_particles(
                    "e",
                    "position",
                    comp,
                    UnitDimension::length(),
                    1.0,
                    n,
                    0,
                    data,
                );
            }
            for comp in ["x", "y", "z"] {
                pw.write_particles(
                    "e",
                    "momentum",
                    comp,
                    UnitDimension::momentum(),
                    1.0,
                    n,
                    0,
                    &us,
                );
            }
            pw.end_iteration();
            // Radiation window `it` — except the last: the producer
            // "dies" after publishing particles but before the spectra.
            if it < 2 {
                rw.begin_iteration(it * 4, it as f64, 0.1);
                for r in 0..3 {
                    rw.write_f32_array(
                        &format!("radiation/region{r}/intensity"),
                        n_f as u64,
                        0,
                        &vec![1.0f32; n_f],
                    );
                }
                rw.end_iteration();
            }
        }
        pw.close();
        rw.close();
    });

    let comm = CommWorld::new(1).into_endpoints().remove(0);
    let report = run_consumer(
        &cfg,
        comm,
        None::<Communicator>,
        pr.remove(0),
        rr.remove(0),
        None,
    );
    producer.join().unwrap();
    assert_eq!(report.windows, 2, "only complete window pairs count");
    assert_eq!(
        report.orphaned_windows, 1,
        "the stranded particle window is surfaced, not fatal"
    );
    assert!(report.samples > 0);
    assert!(report.losses.iter().all(|l| l.total.is_finite()));
}

/// Failure injection: the socket budget gates a DDP bring-up exactly as
/// §IV-D describes — below the limit training runs, above it bring-up
/// fails before any gradient is exchanged.
#[test]
fn socket_budget_gates_ddp_bringup() {
    use artificial_scientist::cluster::sockets::SocketBudget;
    let budget = SocketBudget::frontier_nccl_default();
    // A "96-node" bring-up is fine, "128-node" refuses.
    assert!(budget.try_bootstrap(96).is_ok());
    let err = budget.try_bootstrap(128).unwrap_err();
    assert!(err.needed > err.limit);
    // The error is actionable: it names the node count that failed.
    assert!(format!("{err}").contains("128"));
}

// ---------------------------------------------------------------------------
// Chaos-hardened workflow: deterministic fault injection, checkpoint/restart
// and graceful rank-failure degradation (the `WorkflowConfig::faults` plan).
// ---------------------------------------------------------------------------

use artificial_scientist::core::config::{CommBackend, ConsumerPolicy, WorkflowConfig};
use artificial_scientist::core::faults::{FaultEvent, FaultPlan, KillMode};
use artificial_scientist::core::workflow::{run_workflow, RankGroup, WorkflowReport};

/// A small fault-armed topology: 1 producer, `consumers` learner ranks,
/// 4 windows. The detection budget is generous because injected deaths
/// self-mark on the shared world (detection is instant); the silence
/// timeout is only a backstop and must never fire on a slow window.
fn ft_cfg(consumers: usize, drop_policy: bool, netsim: bool) -> WorkflowConfig {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 16;
    cfg.steps_per_sample = 4;
    cfg.n_rep = 2;
    cfg.consumers = consumers;
    if drop_policy {
        cfg.policy = ConsumerPolicy::DropSteps {
            max_queue: 4,
            min_queue: 0,
        };
    }
    if netsim {
        cfg.backend = CommBackend::netsim_frontier();
    }
    cfg.faults = FaultPlan {
        op_timeout_ms: 1000,
        tick_ms: 2,
        retry_budget: 5,
        ..FaultPlan::default()
    };
    cfg
}

/// The extended per-rank stream-accounting identity: every published
/// window is consumed, dropped, orphaned, or lost — nothing vanishes.
fn assert_accounting(report: &WorkflowReport) {
    for s in &report.consumer_summaries {
        assert_eq!(
            s.windows + s.dropped_windows + s.orphaned_windows + s.lost_windows,
            s.published_windows,
            "rank {} window accounting must balance",
            s.rank
        );
    }
}

/// Seeded fault matrix: crash site × consumer policy × comm backend.
/// Every combination must terminate (no hang, no orchestrator panic)
/// with balanced window accounting on every surviving rank.
#[test]
fn seeded_fault_matrix_keeps_window_accounting() {
    for netsim in [false, true] {
        for drop_policy in [false, true] {
            for site in ["producer", "consumer_rank0", "consumer_rank1"] {
                let mut cfg = ft_cfg(2, drop_policy, netsim);
                let event = match site {
                    "producer" => FaultEvent::ProducerCrash { at_window: 2 },
                    "consumer_rank0" => FaultEvent::ConsumerKill {
                        rank: 0,
                        at_window: 2,
                        mode: KillMode::Die,
                    },
                    _ => FaultEvent::ConsumerKill {
                        rank: 1,
                        at_window: 2,
                        mode: KillMode::Die,
                    },
                };
                cfg.faults.events.push(event);
                let report = run_workflow(&cfg);
                let ctx = format!("site={site} drop_policy={drop_policy} netsim={netsim}");
                assert_accounting(&report);
                if site == "producer" {
                    // Stream truncation is a clean EOF, not a panic: both
                    // ranks drain the two published windows and finish.
                    assert!(report.failures.is_empty(), "{ctx}: truncation never panics");
                    assert_eq!(report.producer.windows, 2, "{ctx}");
                    assert_eq!(report.consumer_summaries.len(), 2, "{ctx}");
                    for s in &report.consumer_summaries {
                        assert_eq!(s.published_windows, 2, "{ctx}");
                    }
                } else {
                    // The killed rank surfaces as a captured failure; the
                    // survivor re-forms a 1-rank world and finishes.
                    assert_eq!(report.failures.len(), 1, "{ctx}");
                    assert!(report.failures[0].injected, "{ctx}");
                    assert_eq!(report.failures[0].group, RankGroup::Consumer, "{ctx}");
                    assert!(report.degradations >= 1, "{ctx}");
                    assert_eq!(report.consumer_summaries.len(), 1, "{ctx}");
                    assert_eq!(report.consumer_summaries[0].world_after, 1, "{ctx}");
                    if !drop_policy {
                        // Blocking order is deterministic: the dead rank
                        // had consumed exactly 2 of 4 windows, so its
                        // departed readers strand the other 2.
                        assert_eq!(report.lost_windows, 2, "{ctx}");
                    }
                }
            }
        }
    }
}

/// Kill-and-restart bit-identity (single-rank learner): a consumer
/// killed at window 5 and restarted from the window-4 checkpoint must
/// produce the same per-iteration `param_hash` sequence as an unfaulted
/// reference that skips the same rolled-back window.
#[test]
fn kill_restart_matches_unfaulted_reference_bitwise() {
    let mut base = WorkflowConfig::small();
    base.total_steps = 24;
    base.steps_per_sample = 4; // 6 windows
    base.n_rep = 2;

    let mut faulted = base.clone();
    faulted.faults = FaultPlan {
        checkpoint_every: 2,
        events: vec![FaultEvent::ConsumerKill {
            rank: 0,
            at_window: 5,
            mode: KillMode::Restart,
        }],
        ..FaultPlan::default()
    };
    let f = run_workflow(&faulted);

    // Reference: no kill, but the window consumed between the last
    // checkpoint (arrival 4) and the kill (arrival 5) is skipped — the
    // stream-side effect a rollback cannot undo.
    let mut reference = base.clone();
    reference.faults = FaultPlan {
        events: vec![FaultEvent::SkipWindows { from: 4, to: 4 }],
        ..FaultPlan::default()
    };
    let r = run_workflow(&reference);

    assert_eq!(f.consumer.restarts, 1);
    assert_eq!(
        f.consumer.lost_windows, 1,
        "one window rolled back past the checkpoint"
    );
    assert_eq!(r.consumer.lost_windows, 1, "one window skipped by schedule");
    assert_eq!(f.consumer.windows, 5);
    assert_eq!(r.consumer.windows, 5);
    assert!(f.consumer.recovery_seconds >= 0.0);
    assert!(!f.consumer.param_hashes.is_empty());
    assert_eq!(
        f.consumer.param_hashes, r.consumer.param_hashes,
        "post-restart training must be bit-identical to the reference"
    );
    assert_eq!(f.consumer.param_hash, r.consumer.param_hash);
    assert_accounting(&f);
    assert_accounting(&r);
    assert_eq!(f.lost_windows, 1);
}

/// Multi-rank kill-restart on a checkpoint boundary is a state no-op:
/// the restarted rank rejoins the collective schedule exactly where it
/// left, so the whole group's hash trajectory matches both a kill-free
/// fault-tolerant run and the legacy (inert-plan) DDP path, bit for bit
/// — on both comm backends.
#[test]
fn multi_rank_boundary_restart_is_bitwise_no_op() {
    for netsim in [false, true] {
        let ctx = format!("netsim={netsim}");
        let mut faulted = ft_cfg(2, false, netsim);
        faulted.faults.checkpoint_every = 2;
        faulted.faults.events.push(FaultEvent::ConsumerKill {
            rank: 1,
            at_window: 2,
            mode: KillMode::Restart,
        });
        let f = run_workflow(&faulted);

        let mut clean_ft = ft_cfg(2, false, netsim);
        clean_ft.faults.checkpoint_every = 2; // plan active, no events
        let c = run_workflow(&clean_ft);

        let mut legacy = ft_cfg(2, false, netsim);
        legacy.faults = FaultPlan::default(); // inert: legacy DDP path
        let l = run_workflow(&legacy);

        assert_eq!(f.consumer_summaries.len(), 2, "{ctx}");
        assert!(f.failures.is_empty(), "{ctx}: a restart is not a failure");
        let rank1 = &f.consumer_summaries[1];
        assert_eq!(rank1.restarts, 1, "{ctx}");
        assert_eq!(
            rank1.lost_windows, 0,
            "{ctx}: boundary restart loses nothing"
        );
        assert_eq!(
            f.consumer.param_hashes, c.consumer.param_hashes,
            "{ctx}: boundary restart must not perturb the trajectory"
        );
        assert_eq!(
            f.consumer.param_hashes, l.consumer.param_hashes,
            "{ctx}: fault-tolerant collectives must match legacy DDP bitwise"
        );
        let h0 = f.consumer_summaries[0].param_hash;
        assert!(
            f.consumer_summaries.iter().all(|s| s.param_hash == h0),
            "{ctx}"
        );
        assert_accounting(&f);
    }
}

/// Death of the `DropSteps` window-target root (rank 0) in a 3-rank
/// group: the survivors re-elect rank 1 as root, re-form a 2-rank world
/// and keep training to a consistent final state — on both backends.
#[test]
fn drop_steps_root_death_re_elects_and_degrades() {
    for netsim in [false, true] {
        let ctx = format!("netsim={netsim}");
        let mut cfg = ft_cfg(3, true, netsim);
        cfg.faults.events.push(FaultEvent::ConsumerKill {
            rank: 0,
            at_window: 1,
            mode: KillMode::Die,
        });
        let report = run_workflow(&cfg);
        assert_eq!(report.failures.len(), 1, "{ctx}");
        assert!(report.failures[0].injected, "{ctx}");
        assert_eq!(report.failures[0].rank, 0, "{ctx}");
        assert!(report.degradations >= 1, "{ctx}");
        assert_eq!(report.consumer_summaries.len(), 2, "{ctx}");
        for s in &report.consumer_summaries {
            assert_eq!(
                s.world_after, 2,
                "{ctx}: survivors agree on the shrunk world"
            );
        }
        let h = report.consumer_summaries[0].param_hash;
        assert!(
            report.consumer_summaries.iter().all(|s| s.param_hash == h),
            "{ctx}: surviving ranks stay bit-identical"
        );
        assert_accounting(&report);
    }
}

/// Deterministic message chaos only *delays* traffic: a chaos-armed run
/// completes with zero failures, repeats bit-identically under the same
/// seed, and matches the chaos-free legacy run's parameter trajectory.
#[test]
fn message_chaos_is_deterministic_and_numerically_invisible() {
    let chaos_run = || {
        let mut cfg = ft_cfg(2, false, false);
        cfg.faults.seed = 11;
        cfg.faults.msg_drop_rate = 0.25;
        cfg.faults.msg_delay_rate = 0.25;
        cfg.faults.msg_dup_rate = 0.25;
        cfg.faults.msg_delay_ms = 1;
        run_workflow(&cfg)
    };
    let a = chaos_run();
    let b = chaos_run();
    assert!(a.failures.is_empty(), "chaos delays, it never kills");
    assert_eq!(a.degradations, 0);
    assert!(!a.consumer.param_hashes.is_empty());
    assert_eq!(
        a.consumer.param_hashes, b.consumer.param_hashes,
        "same seed, same fault schedule, same trajectory"
    );
    let clean = run_workflow(&ft_cfg(2, false, false));
    assert_eq!(
        a.consumer.param_hashes, clean.consumer.param_hashes,
        "chaos must not change numerics"
    );
    assert_accounting(&a);
}

// ---------------------------------------------------------------------------
// Fault matrix × serving tier: learner death must degrade the surrogate
// gracefully, never tear it.
// ---------------------------------------------------------------------------

use artificial_scientist::core::config::ServingConfig;
use artificial_scientist::serve::{run_workflow_serving, InferenceEngine};

/// `ConsumerKill` while the learner is publishing snapshots: the
/// lowest-rank survivor takes over publishing (the FT root is
/// `members[0]`), the engine keeps serving the last published snapshot,
/// and `ServeReport::stale_snapshot_seconds` records how old it is. The
/// injected kill shows up in the failure ledger; window accounting
/// stays balanced; no torn or regressed version is ever served.
#[test]
fn consumer_kill_during_serving_degrades_gracefully() {
    let mut cfg = ft_cfg(2, true, false);
    cfg.serving = Some(ServingConfig {
        publish_every: 2,
        posterior_samples: 2,
        ..ServingConfig::default()
    });
    cfg.faults.events.push(FaultEvent::ConsumerKill {
        rank: 0,
        at_window: 1,
        mode: KillMode::Die,
    });
    let engine = InferenceEngine::start(cfg.serving.clone().unwrap());
    let report = run_workflow_serving(&cfg, &engine);

    // The kill is recorded and the group degraded, as in the non-serving
    // matrix.
    assert_eq!(report.failures.len(), 1);
    assert!(report.failures[0].injected);
    assert_eq!(report.failures[0].rank, 0);
    assert!(report.degradations >= 1);
    assert_accounting(&report);

    // The publisher failed over: snapshots kept landing (root death
    // included), versions dense and monotone in the archive.
    let serve = engine.report();
    assert!(
        serve.swaps >= 1,
        "the surviving learner must keep publishing"
    );
    assert_eq!(serve.current_version, serve.swaps);
    for v in 1..=serve.current_version {
        assert!(engine.archived(v).is_some(), "version {v} missing");
    }

    // The engine still answers — serving the last published snapshot —
    // and reports how stale it has become since the learner stopped.
    let dim = artificial_scientist::nn::model::ModelConfig::small().spectrum_dim;
    let spectrum: Vec<f32> = artificial_scientist::tensor::TensorRng::seeded(0xFA11)
        .standard_normal([1, dim])
        .data()
        .to_vec();
    let resp = engine.query(spectrum);
    assert_eq!(resp.version, serve.current_version);
    assert!(resp.outputs.iter().all(|v| v.is_finite()));
    let after = engine.report();
    assert!(
        after.stale_snapshot_seconds > 0.0,
        "staleness of the last snapshot must be recorded"
    );
    engine.shutdown();
}
