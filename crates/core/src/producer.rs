//! The producer: PIC simulation + in-situ radiation, streaming openPMD.
//!
//! Mirrors PIConGPU's role in the paper: per emission window it publishes
//! the full particle phase space on one stream and the windowed per-region
//! radiation amplitudes on a second stream ("two parallel data streams"),
//! then drops its local copies — the filesystem is never touched. If the
//! consumer falls behind, the bounded staging queue stalls the simulation
//! (measured and reported as [`ProducerReport::stall_seconds`] — only the
//! time actually blocked on the full queue, not the emit wall time).
//!
//! [`run_producer`] runs one rank of an M-way slab decomposition
//! ([`as_pic::domain::DistributedSim`]), for every M. Each rank publishes
//! its local particles as one block of the global multi-writer SST step
//! (offsets allgathered per window, since migration moves particles
//! between slabs), and the per-region radiation amplitudes are merged
//! across ranks by superposition (allreduce) before rank 0 emits the
//! spectra. M = 1 is a 1-rank world: its slab is the whole box, its
//! halo exchanges are periodic wraps, and its collectives move nothing.

use crate::config::WorkflowConfig;
use crate::faults::StreamId;
use as_cluster::collective::Collective;
use as_openpmd::attribute::{UnitDimension, Value};
use as_openpmd::writer::OpenPmdWriter;
use as_pic::domain::DistributedSim;
use as_pic::sim::Simulation;
use as_radiation::plugin::{RadiationPlugin, RegionMode};
use as_staging::engine::SstWriter;
use std::time::Instant;

/// Producer-side outcome (one rank).
#[derive(Debug, Clone)]
pub struct ProducerReport {
    /// PIC steps completed (global step count, not summed over ranks).
    pub steps: u64,
    /// Emission windows published.
    pub windows: u64,
    /// Payload bytes this rank published across both streams.
    pub bytes: u64,
    /// Wall seconds in the PIC step loop.
    pub sim_seconds: f64,
    /// Wall seconds in window emission (serialisation + publish + stall).
    pub emit_seconds: f64,
    /// Wall seconds blocked on staging back-pressure (the bounded SST
    /// queue at its limit) — a strict subset of `emit_seconds`.
    pub stall_seconds: f64,
    /// Inter-rank payload bytes the producer group's collective backend
    /// moved (world-wide counter observed at this rank's exit; halo
    /// exchanges, particle migration, offset allgathers, radiation
    /// merges). Zero for a 1-rank producer world, which has no peers.
    pub comm_bytes: u64,
    /// Modelled fabric seconds charged by the collective backend
    /// (world-wide; nonzero only under `CommBackend::NetSim`).
    pub comm_model_seconds: f64,
    /// Point-to-point messages the producer group's collectives sent
    /// (world-wide counter observed at this rank's exit) — the α-term
    /// driver the log-depth schedules shrink per rank.
    pub comm_messages: u64,
    /// Wire bytes this rank actually put on the staging data plane —
    /// equals [`ProducerReport::bytes`] under `WireCodec::None`, smaller
    /// under a compressing codec.
    pub staging_wire_bytes: u64,
    /// Modelled data-plane seconds the configured
    /// [`as_staging::dataplane::DataPlane`] charged this rank's window
    /// publishes (backend-independent pure model time; under the netsim
    /// backend the same charge also accrues on the collective world's
    /// data-plane clock).
    pub staging_model_seconds: f64,
}

impl ProducerReport {
    pub(crate) fn zero() -> Self {
        Self {
            steps: 0,
            windows: 0,
            bytes: 0,
            sim_seconds: 0.0,
            emit_seconds: 0.0,
            stall_seconds: 0.0,
            comm_bytes: 0,
            comm_model_seconds: 0.0,
            comm_messages: 0,
            staging_wire_bytes: 0,
            staging_model_seconds: 0.0,
        }
    }

    /// Fraction of producer wall time (sim + emit) lost to back-pressure.
    pub fn stall_fraction(&self) -> f64 {
        let wall = self.sim_seconds + self.emit_seconds;
        if wall > 0.0 {
            self.stall_seconds / wall
        } else {
            0.0
        }
    }
}

/// Arm the plan's producer-side faults on the stream writers. A
/// [`crate::faults::FaultEvent::ProducerCrash`] truncates *both* streams
/// at the same window (a clean, synchronized EOF); a
/// [`crate::faults::FaultEvent::TruncateStream`] truncates one stream
/// only (the out-of-sync EOF that produces orphaned windows on the
/// consumer side). Windows and SST steps coincide: the producers emit
/// exactly one stream step per window, in order.
fn arm_faults(cfg: &WorkflowConfig, pw: &mut OpenPmdWriter, rw: &mut OpenPmdWriter) {
    if let Some(w) = cfg.faults.producer_crash_window() {
        pw.arm_truncate(w);
        rw.arm_truncate(w);
    }
    if let Some(s) = cfg.faults.stream_truncation(StreamId::Particle) {
        pw.arm_truncate(s);
    }
    if let Some(s) = cfg.faults.stream_truncation(StreamId::Radiation) {
        rw.arm_truncate(s);
    }
}

/// Run one rank of an M-way sharded producer to completion.
///
/// `comm` spans the producer ranks (world size M); the global KHI box is
/// slab-decomposed along x via [`DistributedSim`]. Every rank contributes
/// its particle shard to the shared multi-writer particle stream; the
/// radiation stream carries the rank-merged spectra, written by rank 0.
/// A 1-rank `comm` runs the whole box as one slab.
pub fn run_producer<C: Collective>(
    cfg: &WorkflowConfig,
    comm: C,
    particle_stream: SstWriter,
    radiation_stream: SstWriter,
) -> ProducerReport {
    let mut d = DistributedSim::new(comm, cfg.grid, cfg.khi.all_species(&cfg.grid));
    let mut radiation = RadiationPlugin::new(
        cfg.detector.clone(),
        RegionMode::FlowRegions {
            shear_width: cfg.shear_width,
        },
        0,
    );
    let mut pw = OpenPmdWriter::new(particle_stream);
    let mut rw = OpenPmdWriter::new(radiation_stream);
    arm_faults(cfg, &mut pw, &mut rw);

    let mut report = ProducerReport::zero();
    // Snapshots of the writer-side staging stats, so each window's wire
    // bytes and modelled publish time can be charged to the collective
    // world's data-plane clock as a per-window delta.
    let (mut dp_wire, mut dp_secs) = (0u64, 0.0f64);

    for step in 0..cfg.total_steps {
        let t0 = Instant::now();
        d.step();
        // The final half-B update leaves ghosts one half-step stale; the
        // radiation gather needs fresh halos.
        d.refresh_ghosts();
        radiation.accumulate_for(&d.local, d.offset_cells as f64);
        report.sim_seconds += t0.elapsed().as_secs_f64();
        report.steps += 1;

        if (step + 1) % cfg.steps_per_sample == 0 {
            let t1 = Instant::now();
            // Particle ownership moves between slabs via migration, so
            // the block layout of the global array is re-agreed on every
            // window: rank r writes [Σ counts[..r], Σ counts[..r+1]).
            let local_n = d.local.species[0].len() as u64;
            let counts: Vec<u64> = d.comm().allgather(local_n);
            let offset: u64 = counts[..d.rank()].iter().sum();
            let global_n: u64 = counts.iter().sum();
            // Radiation superposition: amplitudes (not intensities) sum
            // linearly across ranks; after the allreduce every rank holds
            // the global window and rank 0 emits it.
            for acc in radiation.accumulators_mut() {
                d.comm().allreduce_sum_f64(acc.amplitudes_mut());
            }
            emit_window(
                cfg,
                &d.local,
                &mut radiation,
                &mut pw,
                &mut rw,
                global_n,
                offset,
            );
            // Route this window's staging traffic through the collective
            // backend's data-plane accounting: the netsim backend folds
            // the modelled publish time into the run's data-plane
            // critical path (and sleeps its time_scale share); the
            // in-process backend ignores the charge, staying bit-exact.
            let wire = pw.wire_bytes_published() + rw.wire_bytes_published();
            let secs = pw.model_seconds() + rw.model_seconds();
            d.comm().account_dataplane(wire - dp_wire, secs - dp_secs);
            (dp_wire, dp_secs) = (wire, secs);
            report.emit_seconds += t1.elapsed().as_secs_f64();
            // Every rank armed the same truncation step, so all shards
            // take this break on the same window — the group "crashes"
            // together and the DistributedSim collectives stay aligned.
            if pw.is_truncated() || rw.is_truncated() {
                break;
            }
            report.windows += 1;
        }
    }
    pw.close();
    rw.close();
    // Real published bytes and real queue-blocked time, from the
    // writer-side stream stats.
    report.bytes = pw.bytes_published() + rw.bytes_published();
    report.stall_seconds = pw.stall_seconds() + rw.stall_seconds();
    report.staging_wire_bytes = pw.wire_bytes_published() + rw.wire_bytes_published();
    report.staging_model_seconds = pw.model_seconds() + rw.model_seconds();
    report.comm_bytes = d.comm().world_bytes_sent();
    report.comm_model_seconds = d.comm().modelled_comm_seconds();
    report.comm_messages = d.comm().world_messages_sent();
    report
}

/// Publish one emission window on both streams. `global_n` and `offset`
/// describe this rank's block of the global particle array (the whole
/// array in a 1-rank world); the radiation spectra are
/// written by writer rank 0 only, from the (already rank-merged)
/// accumulators.
fn emit_window(
    cfg: &WorkflowConfig,
    sim: &Simulation,
    radiation: &mut RadiationPlugin,
    pw: &mut OpenPmdWriter,
    rw: &mut OpenPmdWriter,
    global_n: u64,
    offset: u64,
) {
    let it = sim.step_index;
    let sp = &sim.species[0];
    let n = global_n;

    // Particle stream: full phase space of the electrons.
    pw.begin_iteration(it, sim.time, sim.spec.dt);
    pw.set_attribute("beta", Value::F64(cfg.khi.beta));
    let u = as_pic::units::UnitSystem::paper();
    pw.write_particles(
        "e",
        "position",
        "x",
        UnitDimension::length(),
        u.skin_depth,
        n,
        offset,
        &sp.x,
    );
    pw.write_particles(
        "e",
        "position",
        "y",
        UnitDimension::length(),
        u.skin_depth,
        n,
        offset,
        &sp.y,
    );
    pw.write_particles(
        "e",
        "position",
        "z",
        UnitDimension::length(),
        u.skin_depth,
        n,
        offset,
        &sp.z,
    );
    let p_si = as_pic::units::M_E * as_pic::units::C;
    pw.write_particles(
        "e",
        "momentum",
        "x",
        UnitDimension::momentum(),
        p_si,
        n,
        offset,
        &sp.ux,
    );
    pw.write_particles(
        "e",
        "momentum",
        "y",
        UnitDimension::momentum(),
        p_si,
        n,
        offset,
        &sp.uy,
    );
    pw.write_particles(
        "e",
        "momentum",
        "z",
        UnitDimension::momentum(),
        p_si,
        n,
        offset,
        &sp.uz,
    );
    pw.write_particles(
        "e",
        "weighting",
        "w",
        UnitDimension::none(),
        1.0,
        n,
        offset,
        &sp.w,
    );
    pw.end_iteration();

    // Radiation stream: windowed per-region intensity spectra
    // (dirs × freqs, flattened). Writer rank 0 holds the rank-merged
    // window and publishes it whole; other ranks just join the collective
    // step commit.
    rw.begin_iteration(it, sim.time, sim.spec.dt);
    if rw.rank() == 0 {
        let spectra = radiation.spectra();
        for (r, region) in spectra.iter().enumerate() {
            let mut flat: Vec<f64> = Vec::with_capacity(region.len() * cfg.detector.n_freqs());
            for dir in region {
                flat.extend_from_slice(&dir.intensity);
            }
            let name = format!("radiation/region{r}/intensity");
            let len = flat.len() as u64;
            rw.write_f32_array(
                &name,
                len,
                0,
                &flat.iter().map(|&v| v as f32).collect::<Vec<f32>>(),
            );
        }
        rw.set_attribute("n_regions", Value::I64(spectra.len() as i64));
        rw.set_attribute("window_steps", Value::I64(radiation.window_len() as i64));
    }
    rw.end_iteration();
    let _ = radiation.take_window();
}

#[cfg(test)]
mod tests {
    use super::*;
    use as_cluster::comm::CommWorld;
    use as_staging::engine::{open_stream, StreamConfig};

    /// One drained window: the particle array length and every
    /// `radiation/region*/intensity` array, by name.
    type Window = (usize, Vec<(String, Vec<f32>)>);

    /// Run an `m`-rank producer world for two windows and drain both
    /// streams.
    fn run_world(m: usize) -> (WorkflowConfig, Vec<Window>, Vec<ProducerReport>) {
        let mut cfg = WorkflowConfig::small();
        cfg.total_steps = 8;
        cfg.steps_per_sample = 4;
        cfg.producers = m;
        let stream_cfg = StreamConfig {
            writers: m,
            ..StreamConfig::default()
        };
        let (pw, mut pr) = open_stream(stream_cfg);
        let (rw, mut rr) = open_stream(stream_cfg);
        let handles: Vec<_> = CommWorld::new(m)
            .into_endpoints()
            .into_iter()
            .zip(pw.into_iter().zip(rw))
            .map(|(comm, (p, r))| {
                let cfg = cfg.clone();
                std::thread::spawn(move || run_producer(&cfg, comm, p, r))
            })
            .collect();
        let (mut p_reader, mut r_reader) = (pr.remove(0), rr.remove(0));
        let mut windows = Vec::new();
        loop {
            match (p_reader.begin_step(), r_reader.begin_step()) {
                (Some(mut a), Some(mut b)) => {
                    let n = a.get_f64("particles/e/position/x").len();
                    let mut names: Vec<String> = b
                        .variable_names()
                        .into_iter()
                        .filter(|n| n.starts_with("radiation/region") && n.ends_with("/intensity"))
                        .collect();
                    names.sort();
                    let spectra = names
                        .into_iter()
                        .map(|name| {
                            let v = b.get_f32(&name);
                            (name, v)
                        })
                        .collect();
                    windows.push((n, spectra));
                    p_reader.end_step(a);
                    r_reader.end_step(b);
                }
                (None, None) => break,
                _ => panic!("streams out of sync"),
            }
        }
        let reports = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (cfg, windows, reports)
    }

    #[test]
    fn producer_publishes_the_global_particle_array() {
        for m in [1, 2] {
            let (cfg, windows, reports) = run_world(m);
            let electrons = cfg.grid.cells() * cfg.khi.ppc;
            assert_eq!(windows.len(), 2);
            for (n, spectra) in &windows {
                // Blocks from every writer rank tile the full array.
                assert_eq!(*n, electrons, "shards must tile the box");
                assert_eq!(spectra[0].1.len(), cfg.detector.n_freqs());
            }
            for report in &reports {
                assert_eq!((report.steps, report.windows), (8, 2));
                assert!(report.bytes > 0, "every shard publishes payload");
                assert!(report.sim_seconds > 0.0);
                assert!(report.stall_seconds <= report.emit_seconds);
            }
            // 7 particle arrays × N × 8 B per window, plus the radiation
            // stream: the reports carry the real published volume.
            let bytes: u64 = reports.iter().map(|r| r.bytes).sum();
            assert!(bytes >= 2 * electrons as u64 * 7 * 8);
            // A 1-rank world has no peers to talk to.
            if m == 1 {
                assert_eq!((reports[0].comm_bytes, reports[0].comm_messages), (0, 0));
            }
        }
    }

    /// Consumers see one global stream whatever M is: the 1-slab and
    /// 2-slab producers publish the same spectra. The radiation gather
    /// reads B ghost cells, so this pins that both decompositions hand
    /// it fresh halos.
    #[test]
    fn radiation_stream_does_not_depend_on_producer_count() {
        let (_, one, _) = run_world(1);
        let (_, two, _) = run_world(2);
        assert_eq!(one.len(), two.len());
        for ((_, w1), (_, w2)) in one.iter().zip(&two) {
            assert!(!w1.is_empty());
            assert_eq!(w1.len(), w2.len());
            let peak = w1
                .iter()
                .flat_map(|(_, v)| v.iter())
                .fold(0.0f64, |p, &x| p.max(f64::from(x).abs()));
            assert!(peak > 0.0, "a window must radiate");
            for ((name, a), (name2, b)) in w1.iter().zip(w2) {
                assert_eq!((name, a.len()), (name2, b.len()));
                for (x, y) in a.iter().zip(b) {
                    let rel = (f64::from(*x) - f64::from(*y)).abs() / peak;
                    assert!(rel <= 1e-6, "{name}: {x} vs {y} ({rel:.3e} of peak)");
                }
            }
        }
    }
}
