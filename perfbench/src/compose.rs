//! The traced run: the workflow assembled by the benchmark from each
//! layer's public API, with a span around every call.
//!
//! `as_core::workflow::run_workflow_with_sink` runs the producer and
//! learner loops inside the program, where no span can reach without
//! instrumenting it. This module performs the same sequence of layer
//! calls — PIC step, radiation gather, openPMD/SST publish, fetch,
//! encode, replay draw, forward/backward, gradient all-reduce, Adam,
//! snapshot capture — in the same order and with the same seeds, so the
//! run is bit-identical to `run_workflow_with_sink`'s. The benchmark checks
//! that: the
//! deterministic counts (windows, iterations, bytes, messages, modelled
//! seconds, loss and parameter hash) of the traced run must equal the
//! untraced one's. Only the blocking policy, fault-free configs without
//! sample broadcast or overlapped gradient sync are supported, which is
//! what every workload runs.

use crate::trace::{Tracer, ROOT};
use as_cluster::collective::{Collective, NetModel, SimNetComm};
use as_cluster::comm::CommWorld;
use as_core::config::{CommBackend, ConsumerPolicy, Placement, WorkflowConfig};
use as_core::consumer::bounding_box_view;
use as_core::encode::{batch_to_tensors, Sample};
use as_core::snapshot::{SnapshotPublisher, SnapshotSink};
use as_nn::ddp::{param_hash, sync_gradients_bucketed};
use as_nn::model::{ArtificialScientistModel, LossReport, ModelOptimizer};
use as_openpmd::attribute::{UnitDimension, Value};
use as_openpmd::reader::{IterationData, OpenPmdReader};
use as_openpmd::writer::OpenPmdWriter;
use as_pic::diag::FlowRegion;
use as_pic::domain::DistributedSim;
use as_pic::plugin::Plugin;
use as_pic::sim::Simulation;
use as_radiation::plugin::{RadiationPlugin, RegionMode};
use as_radiation::spectrum::Spectrum;
use as_replay::buffer::TrainingBuffer;
use as_replay::scheduler::{ReplaySchedule, StallPolicy};
use as_staging::engine::{open_stream, SstReader, SstWriter, StreamConfig};
use as_tensor::TensorRng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// What one producer rank published.
#[derive(Debug, Clone, Default)]
pub struct ProducerOut {
    pub windows: u64,
    pub bytes: u64,
    pub wire_bytes: u64,
    pub model_s: f64,
    pub stall_s: f64,
    pub comm_bytes: u64,
    pub comm_messages: u64,
    pub comm_model_s: f64,
}

/// The state of a learner rank, kept for the isolated step probes.
pub struct Learner {
    pub model: ArtificialScientistModel,
    pub opt: ModelOptimizer,
    pub buffer: TrainingBuffer<Sample>,
    pub train_rng: TensorRng,
}

/// What one learner rank consumed and trained.
pub struct ConsumerOut {
    pub windows: u64,
    pub published: u64,
    pub orphaned: u64,
    pub samples: u64,
    pub loss_totals: Vec<f64>,
    pub wire_bytes: u64,
    pub model_s: f64,
    pub comm_bytes: u64,
    pub comm_messages: u64,
    pub comm_model_s: f64,
    pub param_hash: u64,
    pub learner: Learner,
}

/// A finished composed run.
pub struct ComposedOut {
    pub producers: Vec<ProducerOut>,
    pub consumers: Vec<ConsumerOut>,
}

/// Run `cfg` through the composed pipeline, recording spans in `tr`.
pub fn run_composed(
    cfg: &WorkflowConfig,
    sink: Option<Arc<dyn SnapshotSink>>,
    tr: &Tracer,
) -> ComposedOut {
    assert_eq!(cfg.policy, ConsumerPolicy::BlockingEveryStep);
    assert!(!cfg.faults.active() && !cfg.sample_broadcast && !cfg.overlap_grad_sync);
    let algo = cfg.collective_algo;
    match cfg.backend {
        CommBackend::InProcess => run_on(cfg, sink, tr, |n| {
            CommWorld::with_algo(n, algo).into_endpoints()
        }),
        CommBackend::NetSim {
            machine,
            time_scale,
        } => {
            // The intra-node placement `run_workflow_with_sink` uses: each group
            // packs half a node's GPUs per node, from node 0.
            assert_eq!(cfg.placement, Placement::IntraNode);
            let gpus = machine.gpus_per_node.max(1);
            run_on(cfg, sink, tr, move |n| {
                let model = NetModel::from_machine_placed(
                    &machine,
                    n,
                    (gpus / 2).max(1),
                    gpus,
                    0,
                    time_scale,
                );
                SimNetComm::world_with_algo(n, model, algo)
            })
        }
    }
}

fn run_on<C, F>(
    cfg: &WorkflowConfig,
    sink: Option<Arc<dyn SnapshotSink>>,
    tr: &Tracer,
    make_world: F,
) -> ComposedOut
where
    C: Collective,
    F: Fn(usize) -> Vec<C>,
{
    cfg.validate_topology();
    let (m, k) = (cfg.producers, cfg.consumers);
    let stream_cfg = StreamConfig {
        writers: m,
        readers: k,
        queue_limit: cfg.effective_queue_limit(),
        plane: cfg.data_plane,
        codec: cfg.wire_codec,
    };
    let (pw, pr) = open_stream(stream_cfg);
    let (rw, rr) = open_stream(stream_cfg);
    // One producer or learner rank runs the legacy single-domain path,
    // which has no collective endpoint.
    let worlds = |n: usize| -> Vec<Option<C>> {
        if n == 1 {
            vec![None]
        } else {
            make_world(n).into_iter().map(Some).collect()
        }
    };
    let (producer_comms, consumer_comms) = (worlds(m), worlds(k));

    let (producers, consumers) = std::thread::scope(|s| {
        let producer_handles: Vec<_> = producer_comms
            .into_iter()
            .zip(pw.into_iter().zip(rw))
            .map(|(comm, (pw_i, rw_i))| {
                s.spawn(move || run_producer_rank(cfg, comm, pw_i, rw_i, tr))
            })
            .collect();
        let consumer_handles: Vec<_> = consumer_comms
            .into_iter()
            .zip(pr.into_iter().zip(rr))
            .map(|(comm, (pr_i, rr_i))| {
                let sink_i = sink.clone();
                s.spawn(move || run_consumer_rank(cfg, comm, pr_i, rr_i, sink_i, tr))
            })
            .collect();
        let consumers: Vec<ConsumerOut> = consumer_handles
            .into_iter()
            .map(|h| h.join().expect("a composed learner rank panicked"))
            .collect();
        let producers: Vec<ProducerOut> = producer_handles
            .into_iter()
            .map(|h| h.join().expect("a composed producer rank panicked"))
            .collect();
        (producers, consumers)
    });
    ComposedOut {
        producers,
        consumers,
    }
}

/// The simulation a producer rank advances: the whole box, or one slab.
enum Domain<C: Collective> {
    Whole(Simulation),
    Slab(DistributedSim<C>),
}

fn run_producer_rank<C: Collective>(
    cfg: &WorkflowConfig,
    comm: Option<C>,
    particle_stream: SstWriter,
    radiation_stream: SstWriter,
    tr: &Tracer,
) -> ProducerOut {
    let mut domain = match comm {
        None => Domain::Whole(cfg.khi.build(cfg.grid)),
        Some(c) => Domain::Slab(DistributedSim::new(
            c,
            cfg.grid,
            cfg.khi.all_species(&cfg.grid),
        )),
    };
    let mut radiation = RadiationPlugin::new(
        cfg.detector.clone(),
        RegionMode::FlowRegions {
            shear_width: cfg.shear_width,
        },
        0,
    );
    let mut pw = OpenPmdWriter::new(particle_stream);
    let mut rw = OpenPmdWriter::new(radiation_stream);
    let mut out = ProducerOut::default();
    let (mut dp_wire, mut dp_secs) = (0u64, 0.0f64);

    for step in 0..cfg.total_steps {
        let key = step as u64 + 1;
        match &mut domain {
            Domain::Whole(sim) => {
                tr.span(ROOT, "pic.step", key, || sim.step());
                tr.span(ROOT, "radiation.step", key, || radiation.after_step(sim));
            }
            Domain::Slab(d) => {
                tr.span(ROOT, "pic.step", key, || {
                    d.step();
                    // The radiation gather needs fresh halos.
                    d.refresh_ghosts();
                });
                tr.span(ROOT, "radiation.step", key, || {
                    radiation.accumulate_for(&d.local, d.offset_cells as f64)
                });
            }
        }
        if (step + 1) % cfg.steps_per_sample != 0 {
            continue;
        }
        let (sim, global_n, offset) = match &domain {
            Domain::Whole(sim) => (sim, sim.species[0].len() as u64, 0),
            Domain::Slab(d) => tr.span(ROOT, "pic.window_merge", key, || {
                let counts: Vec<u64> = d.comm().allgather(d.local.species[0].len() as u64);
                let offset: u64 = counts[..d.rank()].iter().sum();
                for acc in radiation.accumulators_mut() {
                    d.comm().allreduce_sum_f64(acc.amplitudes_mut());
                }
                (&d.local, counts.iter().sum(), offset)
            }),
        };
        let stall_before = pw.stall_seconds() + rw.stall_seconds();
        tr.span(ROOT, "staging.publish", key, || {
            emit_window(cfg, sim, &mut radiation, &mut pw, &mut rw, global_n, offset)
        });
        tr.add(
            "staging.stall_s",
            pw.stall_seconds() + rw.stall_seconds() - stall_before,
        );
        if let Domain::Slab(d) = &domain {
            let wire = pw.wire_bytes_published() + rw.wire_bytes_published();
            let secs = pw.model_seconds() + rw.model_seconds();
            d.comm().account_dataplane(wire - dp_wire, secs - dp_secs);
            (dp_wire, dp_secs) = (wire, secs);
        }
        out.windows += 1;
    }
    pw.close();
    rw.close();
    out.bytes = pw.bytes_published() + rw.bytes_published();
    out.wire_bytes = pw.wire_bytes_published() + rw.wire_bytes_published();
    out.model_s = pw.model_seconds() + rw.model_seconds();
    out.stall_s = pw.stall_seconds() + rw.stall_seconds();
    if let Domain::Slab(d) = &domain {
        out.comm_bytes = d.comm().world_bytes_sent();
        out.comm_messages = d.comm().world_messages_sent();
        out.comm_model_s = d.comm().modelled_comm_seconds();
    }
    out
}

/// One emission window on both streams, in `run_producer`'s order:
/// the electron phase space, then the per-region radiation spectra from
/// writer rank 0.
fn emit_window(
    cfg: &WorkflowConfig,
    sim: &Simulation,
    radiation: &mut RadiationPlugin,
    pw: &mut OpenPmdWriter,
    rw: &mut OpenPmdWriter,
    n: u64,
    offset: u64,
) {
    let sp = &sim.species[0];
    pw.begin_iteration(sim.step_index, sim.time, sim.spec.dt);
    pw.set_attribute("beta", Value::F64(cfg.khi.beta));
    let length = as_pic::units::UnitSystem::paper().skin_depth;
    let momentum = as_pic::units::M_E * as_pic::units::C;
    let components: [(&str, &str, UnitDimension, f64, &[f64]); 7] = [
        ("position", "x", UnitDimension::length(), length, &sp.x),
        ("position", "y", UnitDimension::length(), length, &sp.y),
        ("position", "z", UnitDimension::length(), length, &sp.z),
        ("momentum", "x", UnitDimension::momentum(), momentum, &sp.ux),
        ("momentum", "y", UnitDimension::momentum(), momentum, &sp.uy),
        ("momentum", "z", UnitDimension::momentum(), momentum, &sp.uz),
        ("weighting", "w", UnitDimension::none(), 1.0, &sp.w),
    ];
    for (record, component, unit, si, data) in components {
        pw.write_particles("e", record, component, unit, si, n, offset, data);
    }
    pw.end_iteration();

    rw.begin_iteration(sim.step_index, sim.time, sim.spec.dt);
    if rw.rank() == 0 {
        let spectra = radiation.spectra();
        for (r, region) in spectra.iter().enumerate() {
            let flat: Vec<f32> = region
                .iter()
                .flat_map(|dir| dir.intensity.iter().map(|&v| v as f32))
                .collect();
            rw.write_f32_array(
                &format!("radiation/region{r}/intensity"),
                flat.len() as u64,
                0,
                &flat,
            );
        }
        rw.set_attribute("n_regions", Value::I64(spectra.len() as i64));
        rw.set_attribute("window_steps", Value::I64(radiation.window_len() as i64));
    }
    rw.end_iteration();
    let _ = radiation.take_window();
}

fn run_consumer_rank<C: Collective>(
    cfg: &WorkflowConfig,
    comm: Option<C>,
    particle_stream: SstReader,
    radiation_stream: SstReader,
    sink: Option<Arc<dyn SnapshotSink>>,
    tr: &Tracer,
) -> ConsumerOut {
    let (rank, world) = comm.as_ref().map_or((0, 1), |c| (c.rank(), c.size()));
    // The learners' seeding (`run_consumer`, `run_ddp_consumer`): DDP
    // ranks mix their rank into every
    // stream, the single learner does not.
    let rank_mix = match comm {
        Some(_) => 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1),
        None => 0,
    };
    let mut publisher = match (&cfg.serving, sink) {
        (Some(serving), Some(sink)) => Some(SnapshotPublisher::new(sink, serving, cfg.encode)),
        _ => None,
    };
    let mut p_reader = OpenPmdReader::new(particle_stream);
    let mut r_reader = OpenPmdReader::new(radiation_stream);
    let mut model = ArtificialScientistModel::new(cfg.model.clone(), cfg.seed);
    let mut opt = ModelOptimizer::new(cfg.adam, cfg.m_vae);
    let mut buffer: TrainingBuffer<Sample> =
        TrainingBuffer::new(cfg.buffer, cfg.seed ^ 0xEB ^ rank_mix);
    let mut schedule = ReplaySchedule::new(cfg.n_rep, StallPolicy::StallProducer);
    let mut enc_rng = StdRng::seed_from_u64(cfg.seed ^ 0xE0C0DE ^ rank_mix);
    let mut train_rng = TensorRng::seeded(cfg.seed ^ 0x7241 ^ rank_mix);

    let (mut windows, mut samples, mut orphaned) = (0u64, 0u64, 0u64);
    let mut loss_totals = Vec::new();

    loop {
        let wait = tr.open();
        let (p_it, r_it) = (p_reader.next_iteration(), r_reader.next_iteration());
        let (mut p_it, mut r_it) = match (p_it, r_it) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => break,
            (Some(a), None) => {
                p_reader.close_iteration(a);
                orphaned += 1 + drain(&mut p_reader);
                break;
            }
            (None, Some(b)) => {
                r_reader.close_iteration(b);
                orphaned += 1 + drain(&mut r_reader);
                break;
            }
        };
        let key = p_it.iteration;
        tr.close(wait, ROOT, "staging.fetch_wait", key);
        let owner = (windows % world as u64) as usize;
        windows += 1;
        if rank == owner {
            let fresh = encode_window(cfg, &mut p_it, &mut r_it, &mut enc_rng, tr);
            samples += fresh.len() as u64;
            for s in fresh {
                buffer.push(s);
            }
        }
        if let Some(c) = &comm {
            c.account_dataplane(
                p_it.wire_bytes_fetched() + r_it.wire_bytes_fetched(),
                p_it.simulated_seconds() + r_it.simulated_seconds(),
            );
        }
        p_reader.close_iteration(p_it);
        r_reader.close_iteration(r_it);

        schedule.on_step();
        while schedule.should_train() {
            // Every rank must be able to draw a batch (a collective
            // go/no-go under DDP).
            let ready = match &comm {
                None => buffer.ready(),
                Some(c) => {
                    let n = c.allreduce_scalar_f64(if buffer.ready() { 1.0 } else { 0.0 });
                    n.round() as usize >= world
                }
            };
            if !ready {
                break;
            }
            let (points, spectra) = tr.span(ROOT, "replay.sample", key, || {
                batch_to_tensors(&buffer.sample_batch(), &cfg.model)
            });
            let step = tr.open();
            model.zero_grad();
            let local = tr.span(step.0, "nn.fwd_bwd", key, || {
                model.accumulate_gradients(&points, &spectra, &mut train_rng)
            });
            let loss = match &comm {
                None => local,
                Some(c) => tr.span(step.0, "ddp.sync", key, || {
                    sync_gradients_bucketed(c, &mut model, cfg.grad_bucket);
                    mean_loss(c, &local, world)
                }),
            };
            tr.span(step.0, "nn.adam", key, || opt.step(&mut model));
            tr.close(step, ROOT, "nn.train_step", key);
            loss_totals.push(loss.total);
            schedule.on_iteration();
            let hash = comm.as_ref().map(|c| {
                tr.span(ROOT, "ddp.hash_check", key, || {
                    let h = param_hash(&mut model);
                    let hashes = c.allgather(h);
                    assert!(hashes.iter().all(|&x| x == h), "DDP ranks diverged");
                    h
                })
            });
            let Some(pb) = publisher.as_mut() else {
                continue;
            };
            let iters = loss_totals.len() as u64;
            if !pb.due(iters) {
                continue;
            }
            if rank == 0 {
                let snap = tr.span(ROOT, "snapshot.capture", key, || {
                    pb.capture(&mut model, iters)
                });
                if let Some(c) = &comm {
                    c.account_broadcast_payload(0, snap.payload_bytes());
                    c.broadcast(0, Some((snap.version, snap.param_hash)));
                }
                pb.send(snap);
            } else if let (Some(c), Some(h)) = (&comm, hash) {
                let (_version, root_hash) = c.broadcast::<(u64, u64)>(0, None);
                assert_eq!(root_hash, h, "published snapshot hash diverged");
                pb.skip();
            }
        }
    }

    let stats = |r: &OpenPmdReader| (r.stats().wire_bytes(), r.stats().simulated_seconds());
    let ((pw_bytes, p_secs), (rw_bytes, r_secs)) = (stats(&p_reader), stats(&r_reader));
    let published = p_reader.published_steps().max(r_reader.published_steps());
    let (comm_bytes, comm_messages, comm_model_s) = comm.as_ref().map_or((0, 0, 0.0), |c| {
        (
            c.world_bytes_sent(),
            c.world_messages_sent(),
            c.modelled_comm_seconds(),
        )
    });
    ConsumerOut {
        windows,
        published,
        orphaned,
        samples,
        loss_totals,
        wire_bytes: pw_bytes + rw_bytes,
        model_s: p_secs + r_secs,
        comm_bytes,
        comm_messages,
        comm_model_s,
        param_hash: param_hash(&mut model),
        learner: Learner {
            model,
            opt,
            buffer,
            train_rng,
        },
    }
}

fn drain(reader: &mut OpenPmdReader) -> u64 {
    let mut n = 0;
    while let Some(it) = reader.next_iteration() {
        reader.close_iteration(it);
        n += 1;
    }
    n
}

/// Rank mean of every loss component, reduced as one six-value
/// all-reduce like `run_ddp_consumer`'s.
fn mean_loss<C: Collective>(comm: &C, l: &LossReport, world: usize) -> LossReport {
    let mut buf = [l.cd, l.kl, l.mse, l.mmd_z, l.mmd_n, l.total];
    comm.allreduce_sum_f64(&mut buf);
    let inv = 1.0 / world as f64;
    LossReport {
        cd: buf[0] * inv,
        kl: buf[1] * inv,
        mse: buf[2] * inv,
        mmd_z: buf[3] * inv,
        mmd_n: buf[4] * inv,
        total: buf[5] * inv,
    }
}

/// One sample per non-empty flow region, read through zero-copy staging
/// views. `staging.fetch` spans cover the view reads (particle views up
/// front, each region's radiation view inside the region loop, as the
/// learner loop orders them); `encode.window` is the enclosing span,
/// so its self time is the encoding alone.
fn encode_window(
    cfg: &WorkflowConfig,
    p_it: &mut IterationData,
    r_it: &mut IterationData,
    enc_rng: &mut StdRng,
    tr: &Tracer,
) -> Vec<Sample> {
    let key = p_it.iteration;
    let window = tr.open();
    let [xs, ys, zs, uxs, uys, uzs] = tr.span(window.0, "staging.fetch", key, || {
        [
            ("position", "x"),
            ("position", "y"),
            ("position", "z"),
            ("momentum", "x"),
            ("momentum", "y"),
            ("momentum", "z"),
        ]
        .map(|(record, component)| p_it.particles_view("e", record, component))
    });
    let (_, ly, _) = cfg.grid.extents();
    let n_f = cfg.detector.n_freqs();
    let mut samples = Vec::new();
    for (region_idx, _) in FlowRegion::all().iter().enumerate() {
        let idx: Vec<usize> = (0..xs.len())
            .filter(|&i| region_index(ys.get_f64(i), ly, cfg.shear_width) == region_idx)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let (center, half) = bounding_box_view(&xs, &ys, &zs, &idx);
        let points = cfg
            .encode
            .encode_points_view(&xs, &ys, &zs, &uxs, &uys, &uzs, &idx, center, half, enc_rng);
        let flat = tr.span(window.0, "staging.fetch", key, || {
            r_it.f32_array_view(&format!("radiation/region{region_idx}/intensity"))
        });
        let intensity: Vec<f64> = (0..n_f).map(|i| flat.get_f32(i) as f64).collect();
        let spec = Spectrum::new(cfg.detector.frequencies.clone(), intensity);
        samples.push(Sample {
            points,
            spectrum: cfg.encode.encode_spectrum(&spec, cfg.model.spectrum_dim),
            region: region_idx,
            step: key,
        });
    }
    tr.close(window, ROOT, "encode.window", key);
    samples
}

/// The learner loop's region numbering.
fn region_index(y: f64, ly: f64, shear_width: f64) -> usize {
    match FlowRegion::classify(y, ly, shear_width) {
        FlowRegion::Approaching => 0,
        FlowRegion::Receding => 1,
        FlowRegion::Vortex => 2,
    }
}
