//! End-to-end workflow driver: M producer ranks ∥ K consumer ranks,
//! loosely coupled through two in-memory SST streams.
//!
//! The topology generalises the paper's Fig. 3 coupling (§IV-B–D):
//!
//! - **M producers** (`WorkflowConfig::producers`): the KHI box is
//!   slab-decomposed along x via [`as_pic::domain::DistributedSim`]; each
//!   slab runs on its own thread and publishes its particle shard as one
//!   block of a shared multi-writer SST step. The per-window radiation
//!   amplitudes are merged across producer ranks by superposition before
//!   rank 0 emits the spectra — so consumers see *one* coherent global
//!   stream regardless of M.
//! - **K consumers** (`WorkflowConfig::consumers`): each learner rank has
//!   its own [`as_staging::engine::SstReader`] pair and a collective
//!   endpoint ([`as_cluster::collective::Collective`]) and runs the one
//!   learner loop, [`crate::consumer::run_consumer`]. SST delivers
//!   every step to every reader; the round-robin owner (`window % K`)
//!   fetches the payload into its rank-local replay buffer, and training
//!   is synchronous DDP: gradients averaged every iteration through
//!   [`as_nn::ddp::sync_gradients_bucketed`] (or its non-blocking
//!   comm-worker twin under [`WorkflowConfig::overlap_grad_sync`]),
//!   parameters bit-identical across ranks (asserted every iteration).
//!   K = 1 is a 1-rank learner world, whose collectives move nothing.
//!
//! The transport behind every endpoint is the
//! [`crate::config::CommBackend`] knob: in-process channels, or the
//! netsim-delayed fabric model that charges Frontier/Summit collective
//! costs while keeping numerics bit-identical (see
//! `tests/comm_backends.rs`).
//!
//! M = 1 is a 1-rank producer world: one slab spanning the whole box,
//! whose collectives move nothing.
//!
//! Consumer pacing follows [`crate::config::ConsumerPolicy`]: blocking
//! every-step (back-pressure throttles the producers) or `DropSteps`
//! (consumers always take the freshest window, skipped windows are
//! counted, and the staging queue depth bounds producer stall). Under
//! `DropSteps`, [`WorkflowReport::consumed_windows`] lists only the
//! windows that were actually trained on; the per-rank
//! [`ConsumerSummary::dropped_windows`] accounts for the rest
//! (`windows + dropped + orphaned = published` on every rank).
//!
//! Fault tolerance is opt-in via [`WorkflowConfig::faults`] (a
//! [`crate::faults::FaultPlan`]). With an **active** plan the driver:
//! arms every collective world with the plan's deterministic message
//! chaos (seeded drop/delay/duplicate — chaos only *delays* traffic);
//! the learner loop switches to its fault-tolerant membership (learner
//! checkpoint/restart, membership-aware collectives that condemn a
//! silent rank within a bounded budget and re-form the shrunk group);
//! opens **monitored** streams so windows stranded behind a dead rank's
//! departed readers are counted into [`WorkflowReport::lost_windows`];
//! and captures rank panics (injected kills included) as
//! [`RankFailure`] entries instead of tearing down the orchestrator.
//! With the default inert plan the worlds carry no chaos and the fault
//! hooks are no-ops.

use crate::config::{CommBackend, Placement, WorkflowConfig};
use crate::consumer::{run_consumer, ConsumerReport};
use crate::faults::InjectedFault;
use crate::producer::{run_producer, ProducerReport};
use crate::snapshot::SnapshotSink;
use as_cluster::collective::{Collective, NetModel, SimNetComm};
use as_cluster::comm::CommWorld;
use as_staging::engine::{open_stream_monitored, StreamConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Which side of the coupled workflow a collective world serves — the
/// netsim backend places the two groups on modelled nodes according to
/// [`Placement`], so producer and consumer worlds may get different
/// node maps (and, inter-node, provably disjoint node sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankGroup {
    /// The M simulation slab ranks.
    Producer,
    /// The K DDP learner ranks (the dedicated gradient world of the
    /// overlap mode counts as this group too — same ranks, same nodes).
    Consumer,
}

/// A rank that terminated by panic instead of returning its report. The
/// driver captures the unwind at the join point (or around the inline
/// rank 0), so one dead rank never tears down the whole workflow.
#[derive(Debug, Clone)]
pub struct RankFailure {
    /// Which side of the coupled workflow the rank belonged to.
    pub group: RankGroup,
    /// The rank within its group.
    pub rank: usize,
    /// True when the panic payload was an [`InjectedFault`] — a
    /// scheduled [`crate::faults::KillMode::Die`] rather than a bug.
    pub injected: bool,
    /// Human-readable panic message.
    pub message: String,
}

/// Classify a join-point panic payload into a [`RankFailure`].
fn failure_of(
    group: RankGroup,
    rank: usize,
    payload: Box<dyn std::any::Any + Send>,
) -> RankFailure {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        return RankFailure {
            group,
            rank: f.rank,
            injected: true,
            message: format!("injected kill at window {}", f.at_window),
        };
    }
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked (non-string payload)".to_string()
    };
    RankFailure {
        group,
        rank,
        injected: false,
        message,
    }
}

/// Per-consumer-rank digest (the full [`ConsumerReport`] of rank 0 is
/// kept in [`WorkflowReport::consumer`]; peers keep their bookkeeping
/// here and drop their — bit-identical — model copies).
#[derive(Debug, Clone)]
pub struct ConsumerSummary {
    /// Learner rank.
    pub rank: usize,
    /// Windows received (every rank sees every window).
    pub windows: u64,
    /// PIC iteration indices of the windows this rank owned.
    pub owned_windows: Vec<u64>,
    /// Samples pushed into this rank's replay buffer.
    pub samples: u64,
    /// Total loss per training iteration (rank-mean in DDP mode).
    pub losses: Vec<f64>,
    /// Hash of the final parameter bits (equal across ranks under DDP).
    pub param_hash: u64,
    /// Wall seconds in training iterations.
    pub train_seconds: f64,
    /// Bytes fetched from the particle stream by this rank.
    pub particle_bytes: u64,
    /// Windows stranded on one stream after the other ended early.
    pub orphaned_windows: u64,
    /// Windows this rank skipped unread under
    /// [`crate::config::ConsumerPolicy::DropSteps`].
    pub dropped_windows: u64,
    /// Windows the producer published on this rank's streams; equals
    /// `windows + dropped_windows + orphaned_windows + lost_windows`.
    pub published_windows: u64,
    /// Learner-group collective payload bytes observed at this rank's
    /// exit (world-wide counter; equal-ish across ranks — take the max).
    pub comm_bytes: u64,
    /// Modelled fabric seconds charged by the learner group's backend.
    pub comm_model_seconds: f64,
    /// Point-to-point messages the learner group's collectives sent
    /// (world-wide counter, like `comm_bytes` — take the max).
    pub comm_messages: u64,
    /// Windows lost to faults at this rank (rolled back past a restart
    /// or skipped by a scheduled [`crate::faults::FaultEvent`]).
    pub lost_windows: u64,
    /// Checkpoint restores performed after an injected kill.
    pub restarts: u64,
    /// Wall seconds spent in recovery: checkpoint restores plus waiting
    /// out death budgets on peers that were then condemned.
    pub recovery_seconds: f64,
    /// Learner-group shrink events this rank witnessed.
    pub degradations: u64,
    /// Live member count when this rank exited (equals the starting
    /// world size in an unfaulted run).
    pub world_after: usize,
    /// Wire bytes this rank fetched from the two staging streams
    /// (post-codec; equals the logical bytes under the lossless codec).
    pub staging_wire_bytes: u64,
    /// Modelled data-plane seconds charged to this rank's staging reads.
    pub staging_model_seconds: f64,
}

impl ConsumerSummary {
    fn of(report: &ConsumerReport) -> Self {
        Self {
            rank: report.rank,
            windows: report.windows,
            owned_windows: report.owned_windows.clone(),
            samples: report.samples,
            losses: report.losses.iter().map(|l| l.total).collect(),
            param_hash: report.param_hash,
            train_seconds: report.train_seconds,
            particle_bytes: report.particle_bytes,
            orphaned_windows: report.orphaned_windows,
            dropped_windows: report.dropped_windows,
            published_windows: report.published_windows,
            comm_bytes: report.comm_bytes,
            comm_model_seconds: report.comm_model_seconds,
            comm_messages: report.comm_messages,
            lost_windows: report.lost_windows,
            restarts: report.restarts,
            recovery_seconds: report.recovery_seconds,
            degradations: report.degradations,
            world_after: report.world_after,
            staging_wire_bytes: report.staging_wire_bytes,
            staging_model_seconds: report.staging_model_seconds,
        }
    }
}

/// Combined outcome of one workflow run.
pub struct WorkflowReport {
    /// Producer-side aggregate: `steps`/`windows` are the global counts
    /// (identical on every rank), `bytes` sums over ranks, and the time
    /// fields take the per-rank maximum (the critical path).
    pub producer: ProducerReport,
    /// Per-rank producer measurements, in rank order.
    pub producers: Vec<ProducerReport>,
    /// Consumer rank 0's measurements (includes the trained model; under
    /// DDP every rank's model is bit-identical to this one).
    pub consumer: ConsumerReport,
    /// Per-rank consumer digests, in rank order — only ranks that
    /// returned a report (a rank that died past its retry budget shows
    /// up in [`WorkflowReport::failures`] instead).
    pub consumer_summaries: Vec<ConsumerSummary>,
    /// Wall seconds for the whole coupled run.
    pub wall_seconds: f64,
    /// Ranks that terminated by panic instead of returning a report
    /// (injected kills included), in discovery order.
    pub failures: Vec<RankFailure>,
    /// Learner-group shrink events (max over surviving ranks — every
    /// survivor witnesses the same membership transitions).
    pub degradations: u64,
    /// Windows lost to faults across the learner group: rolled back
    /// past a restart, skipped by schedule, or stranded unread behind a
    /// dead rank's departed stream readers.
    pub lost_windows: u64,
}

impl WorkflowReport {
    /// Mean total loss over the last `k` training iterations.
    pub fn tail_loss(&self, k: usize) -> f64 {
        let n = self.consumer.losses.len();
        if n == 0 {
            return f64::NAN;
        }
        let k = k.min(n);
        self.consumer.losses[n - k..]
            .iter()
            .map(|l| l.total)
            .sum::<f64>()
            / k as f64
    }

    /// Streamed windows per wall second — the coupled-loop throughput.
    pub fn windows_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.producer.windows as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Every owned window across consumer ranks, sorted. Exactly-once
    /// consumption means this equals the emitted iteration list with no
    /// duplicates.
    pub fn consumed_windows(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .consumer_summaries
            .iter()
            .flat_map(|s| s.owned_windows.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Inter-rank payload bytes moved by the producer group's collective
    /// backend (halo exchange, particle migration, window merges). The
    /// counter is world-wide, so the per-rank maximum is the final total.
    pub fn producer_comm_bytes(&self) -> u64 {
        self.producers
            .iter()
            .map(|p| p.comm_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Inter-rank payload bytes moved by the learner group's collective
    /// backend (gradient buckets, loss means, go/no-go, hash checks).
    pub fn consumer_comm_bytes(&self) -> u64 {
        self.consumer_summaries
            .iter()
            .map(|s| s.comm_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Point-to-point messages sent by the producer group's collectives —
    /// the latency-term driver the log-depth algorithms shrink on the
    /// critical path. World-wide monotone counter: per-rank max is the
    /// total.
    pub fn producer_comm_messages(&self) -> u64 {
        self.producers
            .iter()
            .map(|p| p.comm_messages)
            .max()
            .unwrap_or(0)
    }

    /// Point-to-point messages sent by the learner group's collectives.
    pub fn consumer_comm_messages(&self) -> u64 {
        self.consumer_summaries
            .iter()
            .map(|s| s.comm_messages)
            .max()
            .unwrap_or(0)
    }

    /// Modelled fabric seconds across both groups (nonzero only under
    /// [`crate::config::CommBackend::NetSim`]).
    pub fn comm_model_seconds(&self) -> f64 {
        let p = self
            .producers
            .iter()
            .map(|r| r.comm_model_seconds)
            .fold(0.0, f64::max);
        let c = self
            .consumer_summaries
            .iter()
            .map(|s| s.comm_model_seconds)
            .fold(0.0, f64::max);
        p + c
    }

    /// Wire bytes the staging data plane carried — every producer rank's
    /// published window payload, **post-codec** (equals
    /// [`ProducerReport::bytes`] under [`as_staging::codec::WireCodec::None`],
    /// smaller under a compressing codec). With producer + consumer
    /// collective bytes this completes the whole-run traffic sum.
    pub fn staging_wire_bytes(&self) -> u64 {
        self.producer.staging_wire_bytes
    }

    /// Consumer-side staging wire bytes actually fetched, summed over
    /// learner ranks (each rank fetches only its owned windows; under
    /// `DropSteps`, skipped windows are never fetched, so this can be
    /// below [`Self::staging_wire_bytes`]).
    pub fn consumer_staging_wire_bytes(&self) -> u64 {
        self.consumer_summaries
            .iter()
            .map(|s| s.staging_wire_bytes)
            .sum()
    }

    /// Modelled staging data-plane seconds on the critical path: the
    /// slowest producer rank's publish charge plus the slowest learner
    /// rank's fetch charge (the two phases pipeline across windows, but
    /// per window they serialize writer → queue → reader).
    pub fn staging_model_seconds(&self) -> f64 {
        let p = self.producer.staging_model_seconds;
        let c = self
            .consumer_summaries
            .iter()
            .map(|s| s.staging_model_seconds)
            .fold(0.0, f64::max);
        p + c
    }
}

fn aggregate_producer(reports: &[ProducerReport]) -> ProducerReport {
    let mut agg = reports[0].clone();
    agg.bytes = reports.iter().map(|r| r.bytes).sum();
    agg.sim_seconds = reports.iter().map(|r| r.sim_seconds).fold(0.0, f64::max);
    agg.emit_seconds = reports.iter().map(|r| r.emit_seconds).fold(0.0, f64::max);
    agg.stall_seconds = reports.iter().map(|r| r.stall_seconds).fold(0.0, f64::max);
    // The collective byte/model-time counters are world-wide and
    // monotone: the last rank out observed the final totals.
    agg.comm_bytes = reports.iter().map(|r| r.comm_bytes).max().unwrap_or(0);
    agg.comm_messages = reports.iter().map(|r| r.comm_messages).max().unwrap_or(0);
    agg.comm_model_seconds = reports
        .iter()
        .map(|r| r.comm_model_seconds)
        .fold(0.0, f64::max);
    // Wire bytes sum over ranks (each rank published its own blocks);
    // modelled data-plane time is a critical path, like the wall times.
    agg.staging_wire_bytes = reports.iter().map(|r| r.staging_wire_bytes).sum();
    agg.staging_model_seconds = reports
        .iter()
        .map(|r| r.staging_model_seconds)
        .fold(0.0, f64::max);
    agg
}

/// Run the full in-transit workflow (blocking; spawns M producer threads
/// and K−1 consumer threads, consumer rank 0 runs on the caller).
///
/// This is the **only** place concrete collective backends are
/// constructed: [`CommBackend`] picks the transport, and one world is
/// built per rank group (producers; consumers; plus a second consumer
/// world for the comm-worker when
/// [`WorkflowConfig::overlap_grad_sync`] is on). Everything downstream
/// is generic over [`Collective`].
pub fn run_workflow(cfg: &WorkflowConfig) -> WorkflowReport {
    run_workflow_with_sink(cfg, None)
}

/// [`run_workflow`] with an optional [`SnapshotSink`] — the serving-tier
/// entry point. With [`WorkflowConfig::serving`] set and a sink given,
/// the learner publishes immutable versioned
/// [`crate::snapshot::ModelSnapshot`]s to it every `publish_every`
/// training iterations (the `as-serve` inference engine hot-swaps them
/// in mid-traffic). Publishing never changes the training trajectory.
pub fn run_workflow_with_sink(
    cfg: &WorkflowConfig,
    sink: Option<Arc<dyn SnapshotSink>>,
) -> WorkflowReport {
    let algo = cfg.collective_algo;
    // An active fault plan arms every world with tolerant endpoints and
    // the plan's deterministic message chaos; an inert plan keeps the
    // legacy zero-overhead transport.
    let faults = if cfg.faults.active() {
        Some(cfg.faults.comm_faults())
    } else {
        None
    };
    match cfg.backend {
        CommBackend::InProcess => {
            run_workflow_on(cfg, sink, move |n, _group| match faults.clone() {
                Some(f) => CommWorld::with_faults(n, algo, f).into_endpoints(),
                None => CommWorld::with_algo(n, algo).into_endpoints(),
            })
        }
        CommBackend::NetSim {
            machine,
            time_scale,
        } => {
            let placement = cfg.placement;
            let producers = cfg.producers;
            run_workflow_on(cfg, sink, move |n, group| {
                let gpus = machine.gpus_per_node.max(1);
                // Placement decides how this group's ranks map onto
                // modelled nodes. Intra-node splits each node between the
                // two groups (the paper's 4 sim + 4 train GCDs per node):
                // a group packs gpus/2 ranks per node, every NIC is still
                // shared by the node's full GCD complement, and both
                // groups start at node 0 — so cross-group neighbours are
                // co-resident and intra-group hops often stay on-node.
                // Inter-node gives whole nodes to one side: full density,
                // and the consumer group's nodes start after the last
                // producer node, making the node sets disjoint.
                let (group_ranks_per_node, node_offset) = match placement {
                    Placement::IntraNode => ((gpus / 2).max(1), 0),
                    Placement::InterNode => (
                        gpus,
                        match group {
                            RankGroup::Producer => 0,
                            RankGroup::Consumer => producers.div_ceil(gpus),
                        },
                    ),
                };
                let model = NetModel::from_machine_placed(
                    &machine,
                    n,
                    group_ranks_per_node,
                    gpus,
                    node_offset,
                    time_scale,
                );
                match faults.clone() {
                    Some(f) => SimNetComm::wrap_world(
                        CommWorld::with_faults(n, algo, f).into_endpoints(),
                        model,
                    ),
                    None => SimNetComm::world_with_algo(n, model, algo),
                }
            })
        }
    }
}

/// The generic workflow driver: `make_world(n, group)` supplies a fresh
/// `n`-rank collective world of the chosen backend for each rank group.
fn run_workflow_on<C, F>(
    cfg: &WorkflowConfig,
    sink: Option<Arc<dyn SnapshotSink>>,
    make_world: F,
) -> WorkflowReport
where
    C: Collective,
    F: Fn(usize, RankGroup) -> Vec<C>,
{
    cfg.validate_topology();
    let m = cfg.producers;
    let k = cfg.consumers;
    let stream_cfg = StreamConfig {
        writers: m,
        readers: k,
        queue_limit: cfg.effective_queue_limit(),
        plane: cfg.data_plane,
        codec: cfg.wire_codec,
    };
    // Monitored streams: the monitors survive the run and report the
    // windows a dead rank's departed readers left unconsumed.
    let (pw, mut pr, p_monitor) = open_stream_monitored(stream_cfg);
    let (rw, mut rr, _r_monitor) = open_stream_monitored(stream_cfg);

    let t0 = std::time::Instant::now();

    // Producer side: one slab rank per thread, one producer world for
    // every M (M = 1 is a 1-rank world).
    let producer_handles: Vec<std::thread::JoinHandle<ProducerReport>> =
        make_world(m, RankGroup::Producer)
            .into_iter()
            .zip(pw.into_iter().zip(rw))
            .map(|(comm, (pw_i, rw_i))| {
                let producer_cfg = cfg.clone();
                std::thread::spawn(move || run_producer(&producer_cfg, comm, pw_i, rw_i))
            })
            .collect();

    // Consumer side: rank 0 inline, ranks 1..K on threads, one learner
    // world for every K (K = 1 is a 1-rank world). The overlap mode gets
    // a second, dedicated world for the gradient comm-worker threads (one
    // endpoint per rank, mirroring the main world); the fault-tolerant
    // membership syncs gradients on the main world and needs none.
    let mut failures: Vec<RankFailure> = Vec::new();
    let mut endpoints = make_world(k, RankGroup::Consumer);
    let mut grad_endpoints: Vec<Option<C>> = if cfg.overlap_grad_sync && !cfg.faults.active() {
        make_world(k, RankGroup::Consumer)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        (0..k).map(|_| None).collect()
    };
    let comm0 = endpoints.remove(0);
    let grad0 = grad_endpoints.remove(0);
    let (pr0, rr0) = (pr.remove(0), rr.remove(0));
    let peer_handles: Vec<_> = endpoints
        .into_iter()
        .zip(grad_endpoints)
        .zip(pr.into_iter().zip(rr))
        .map(|((comm, grad), (pr_i, rr_i))| {
            let consumer_cfg = cfg.clone();
            let sink_i = sink.clone();
            std::thread::spawn(move || run_consumer(&consumer_cfg, comm, grad, pr_i, rr_i, sink_i))
        })
        .collect();
    let rank0_result = catch_unwind(AssertUnwindSafe(|| {
        run_consumer(cfg, comm0, grad0, pr0, rr0, sink)
    }));
    let peer_results: Vec<_> = peer_handles.into_iter().map(|h| h.join()).collect();

    let mut peer_reports: Vec<ConsumerReport> = Vec::new();
    for (i, res) in peer_results.into_iter().enumerate() {
        match res {
            Ok(r) => peer_reports.push(r),
            Err(p) => failures.push(failure_of(RankGroup::Consumer, i + 1, p)),
        }
    }
    let (rank0, rank0_alive) = match rank0_result {
        Ok(r) => (r, true),
        Err(p) => {
            failures.push(failure_of(RankGroup::Consumer, 0, p));
            (placeholder_consumer_report(cfg, k), false)
        }
    };

    let mut producers: Vec<ProducerReport> = Vec::new();
    for (i, h) in producer_handles.into_iter().enumerate() {
        match h.join() {
            Ok(r) => producers.push(r),
            Err(p) => failures.push(failure_of(RankGroup::Producer, i, p)),
        }
    }
    if producers.is_empty() {
        producers.push(ProducerReport::zero());
    }
    let wall_seconds = t0.elapsed().as_secs_f64();

    let mut consumer_summaries: Vec<ConsumerSummary> = Vec::new();
    if rank0_alive {
        consumer_summaries.push(ConsumerSummary::of(&rank0));
    }
    consumer_summaries.extend(peer_reports.iter().map(ConsumerSummary::of));
    peer_reports.clear(); // peers' models are bit-identical to rank 0's
    consumer_summaries.sort_by_key(|s| s.rank);

    let degradations = consumer_summaries
        .iter()
        .map(|s| s.degradations)
        .max()
        .unwrap_or(0);
    // Lost windows: what survivors rolled back or skipped, plus what a
    // dead rank's departed readers left unconsumed on its streams.
    let lost_windows = consumer_summaries
        .iter()
        .map(|s| s.lost_windows)
        .sum::<u64>()
        + p_monitor.departed_lost();

    WorkflowReport {
        producer: aggregate_producer(&producers),
        producers,
        consumer: rank0,
        consumer_summaries,
        wall_seconds,
        failures,
        degradations,
        lost_windows,
    }
}

/// Stand-in report for a consumer rank 0 that died and never returned:
/// a fresh (untrained) model and all-zero counters, so the report shape
/// survives while [`WorkflowReport::failures`] records the death.
fn placeholder_consumer_report(cfg: &WorkflowConfig, world: usize) -> ConsumerReport {
    ConsumerReport {
        model: as_nn::model::ArtificialScientistModel::new(cfg.model.clone(), cfg.seed),
        losses: Vec::new(),
        windows: 0,
        samples: 0,
        train_seconds: 0.0,
        particle_bytes: 0,
        rank: 0,
        world,
        owned_windows: Vec::new(),
        orphaned_windows: 0,
        dropped_windows: 0,
        published_windows: 0,
        param_hash: 0,
        param_hashes: Vec::new(),
        comm_bytes: 0,
        comm_model_seconds: 0.0,
        comm_messages: 0,
        lost_windows: 0,
        restarts: 0,
        recovery_seconds: 0.0,
        degradations: 0,
        world_after: 0,
        staging_wire_bytes: 0,
        staging_model_seconds: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline integration check: the full pipeline runs, trains,
    /// and the loss goes down.
    #[test]
    fn end_to_end_workflow_learns() {
        let mut cfg = WorkflowConfig::small();
        cfg.total_steps = 24;
        cfg.steps_per_sample = 4;
        cfg.n_rep = 6;
        let report = run_workflow(&cfg);
        assert_eq!(report.producer.steps, 24);
        assert_eq!(report.producer.windows, 6);
        assert_eq!(report.consumer.windows, 6);
        assert!(report.consumer.samples >= 12, "≥2 regions per window");
        assert!(!report.consumer.losses.is_empty());
        assert!(report.consumer.losses.iter().all(|l| l.total.is_finite()));
        // Learning signal: tail loss below the first iterations' mean.
        let head: f64 = report.consumer.losses[..4]
            .iter()
            .map(|l| l.total)
            .sum::<f64>()
            / 4.0;
        let tail = report.tail_loss(4);
        assert!(
            tail < head,
            "in-transit training should reduce the loss: {head} → {tail}"
        );
        assert!(report.consumer.particle_bytes > 0);
        // Honest telemetry: the producer reports its real published
        // volume, not the placeholder zero.
        assert!(report.producer.bytes > 0, "published bytes must be real");
        assert_eq!(report.consumer.orphaned_windows, 0);
    }

    /// With a queue limit of 1, the producer must observe back-pressure
    /// stalls when the consumer trains slowly.
    #[test]
    fn backpressure_is_visible_to_producer() {
        let mut cfg = WorkflowConfig::small();
        cfg.total_steps = 12;
        cfg.steps_per_sample = 2;
        cfg.queue_limit = 1;
        cfg.n_rep = 8;
        let report = run_workflow(&cfg);
        assert_eq!(report.producer.windows, 6);
        // stall_seconds counts only time blocked on the full SST queue:
        // with queue_limit 1 and a consumer doing 8 training iterations
        // per window it must be strictly positive, and it can never
        // exceed the emit wall time that contains it.
        assert!(
            report.producer.stall_seconds > 0.0,
            "a rate-limiting consumer must register real stall time"
        );
        assert!(report.producer.stall_seconds <= report.producer.emit_seconds);
        assert!(report.wall_seconds > 0.0);
    }

    /// A 2×2 topology must behave like a sharded version of the same
    /// physics: same windows, exactly-once consumption, synced ranks.
    #[test]
    fn two_by_two_topology_runs_and_stays_synced() {
        let mut cfg = WorkflowConfig::small();
        cfg.total_steps = 16;
        cfg.steps_per_sample = 4;
        cfg.n_rep = 3;
        cfg.producers = 2;
        cfg.consumers = 2;
        let report = run_workflow(&cfg);
        assert_eq!(report.producers.len(), 2);
        assert_eq!(report.consumer_summaries.len(), 2);
        assert_eq!(report.producer.windows, 4);
        // Every rank saw every window; ownership partitioned them.
        for s in &report.consumer_summaries {
            assert_eq!(s.windows, 4);
            assert_eq!(s.owned_windows.len(), 2, "round-robin share");
        }
        assert_eq!(report.consumed_windows(), vec![4, 8, 12, 16]);
        // Bit-identical parameters across the learner group.
        let h0 = report.consumer_summaries[0].param_hash;
        assert!(report.consumer_summaries.iter().all(|s| s.param_hash == h0));
        assert!(report.producer.bytes > 0);
    }
}
