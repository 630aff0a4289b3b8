//! The consumer: the MLapp side of the pipeline.
//!
//! Receives particle and radiation iterations, encodes per-region
//! training samples, feeds the experience-replay buffer and trains the
//! VAE+INN `n_rep` iterations per streamed window (§IV-C).
//!
//! One learner loop, [`run_consumer`], runs every topology: it is one
//! rank of a K-way data-parallel learner group, and K = 1 is the
//! 1-rank world, whose collectives return at once without moving a
//! byte. Every rank sees every streamed step (SST semantics) but only
//! the round-robin owner (`window % K` over the live members) fetches
//! the payload and feeds its rank-local replay buffer (unless
//! `WorkflowConfig::sample_broadcast` shares the owner's encoded
//! samples with every rank). Training is synchronous: gradients are
//! averaged every iteration, which keeps parameters bit-identical
//! across ranks (asserted each iteration via [`as_nn::ddp::param_hash`]).
//!
//! What differs between a healthy group and a fault-tolerant one is
//! how the group talks to itself, a private two-variant membership:
//! **static** (the plain collectives of the world, every rank alive
//! throughout) or **tolerant** (an [`FtComm`] over an active
//! [`crate::faults::FaultPlan`]: membership rounds, an elected root,
//! and a group that shrinks when a rank dies). While every rank is
//! alive the two are bitwise equal. Checkpoint capture, kill/restart
//! and skip events run on every path; an inert plan makes them no-ops.
//!
//! # Streaming policy
//!
//! The loop honours [`WorkflowConfig::policy`]:
//! - `BlockingEveryStep` consumes windows in order, letting the bounded
//!   SST queue stall the producer when training falls behind;
//! - [`ConsumerPolicy::DropSteps`] jumps to the **newest** published
//!   window — but only once at least `min_queue` unseen windows are
//!   pending (`0` = always jump); older pending windows are closed
//!   unread. Skipped windows are counted in
//!   [`ConsumerReport::dropped_windows`] and their queue slots free
//!   immediately, so producer stall stays bounded by the queue depth.
//!   The group's root picks the target window and broadcasts its
//!   stream-step index so every rank skips the *same* window set — the
//!   collective schedule (go/no-go, gradient all-reduce, hash check)
//!   stays identical on all ranks.
//!
//! Every published window is accounted for exactly once:
//! `windows + dropped_windows + orphaned_windows + lost_windows ==`
//! [`ConsumerReport::published_windows`].
//!
//! If the two streams end out of sync (a producer dying between the
//! particle and radiation emission of a window), the consumer drains the
//! longer stream and reports the mismatch in
//! [`ConsumerReport::orphaned_windows`] instead of panicking.

use crate::checkpoint::{LearnerCheckpoint, LearnerProgress};
use crate::config::{ConsumerPolicy, WorkflowConfig};
use crate::encode::{batch_to_tensors, Sample};
use crate::faults::{InjectedFault, KillMode};
use crate::ft::FtComm;
use crate::snapshot::{SnapshotPublisher, SnapshotSink};
use as_cluster::collective::Collective;
use as_nn::ddp::{param_hash, sync_gradients_bucketed, sync_gradients_with, OverlappedGradSync};
use as_nn::model::{ArtificialScientistModel, LossReport, ModelOptimizer};
use as_openpmd::reader::{IterationData, OpenPmdReader};
use as_pic::diag::FlowRegion;
use as_radiation::spectrum::Spectrum;
use as_replay::buffer::TrainingBuffer;
use as_replay::scheduler::{ReplaySchedule, StallPolicy};
use as_staging::engine::SstReader;
use as_tensor::TensorRng;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Consumer-side outcome (one rank).
pub struct ConsumerReport {
    /// The trained model.
    pub model: ArtificialScientistModel,
    /// Loss after every training iteration (mean over the group's
    /// contributing ranks; the rank's own loss when K = 1).
    pub losses: Vec<LossReport>,
    /// Windows received from the stream (every rank sees every window).
    pub windows: u64,
    /// Samples pushed into this rank's training buffer.
    pub samples: u64,
    /// Wall seconds spent in training iterations.
    pub train_seconds: f64,
    /// Bytes fetched from the particle stream by this rank.
    pub particle_bytes: u64,
    /// This rank's index in the learner group.
    pub rank: usize,
    /// Learner group size K.
    pub world: usize,
    /// PIC iteration indices of the windows this rank owned (fetched and
    /// encoded). Across ranks these partition the stream exactly once.
    pub owned_windows: Vec<u64>,
    /// Windows left on one stream after the other ended — nonzero only
    /// when the producer died between the two emissions of a window.
    pub orphaned_windows: u64,
    /// Windows this rank skipped unread under
    /// [`ConsumerPolicy::DropSteps`] (always 0 when blocking).
    pub dropped_windows: u64,
    /// Total windows the producer published (the larger of the two
    /// streams' step counts). Always equals
    /// `windows + dropped_windows + orphaned_windows + lost_windows` —
    /// every published window is consumed, dropped, orphaned or lost,
    /// never lost silently.
    pub published_windows: u64,
    /// FNV-1a hash of the final parameter bits (DDP sync witness).
    pub param_hash: u64,
    /// Parameter hash after **every** training iteration, in order, for
    /// every run (K = 1 included) — the cross-backend determinism
    /// witness: two runs of the same seeded config under different
    /// [`crate::config::CommBackend`]s must produce identical sequences
    /// (delays may not change numerics). A kill-restart rolls it back
    /// with the rest of the learner state.
    pub param_hashes: Vec<u64>,
    /// Inter-rank payload bytes the learner group's collectives moved
    /// (world-wide counters observed at this rank's exit: gradient
    /// buckets, loss means, go/no-go, hash checks, broadcast samples and
    /// snapshot payloads, summed over the main world and, in overlap
    /// mode, the dedicated gradient world). Zero for K = 1, whose
    /// collectives move nothing.
    pub comm_bytes: u64,
    /// Modelled fabric seconds charged by the collective backend
    /// (world-wide; nonzero only under `CommBackend::NetSim` with K > 1).
    pub comm_model_seconds: f64,
    /// Point-to-point messages the learner group's collectives sent
    /// (world-wide counter, over the same worlds as `comm_bytes`). Zero
    /// for K = 1.
    pub comm_messages: u64,
    /// Windows destroyed by injected faults on this rank: checkpoint
    /// rollback after a kill-restart plus scheduled skip events. Zero on
    /// a healthy run.
    pub lost_windows: u64,
    /// Kill-restart cycles this rank survived.
    pub restarts: u64,
    /// Wall seconds spent recovering: checkpoint restores plus time
    /// waiting out death budgets on condemned peers.
    pub recovery_seconds: f64,
    /// Times this rank watched the learner group shrink (a peer declared
    /// dead and excluded from the collective schedule).
    pub degradations: u64,
    /// Live learner ranks at exit (`world` minus condemned peers).
    pub world_after: usize,
    /// Wire bytes this rank fetched from the two staging streams
    /// (particles + radiation) — equal to the logical payload bytes
    /// under the lossless codec, smaller under a compressing
    /// [`as_staging::codec::WireCodec`].
    pub staging_wire_bytes: u64,
    /// Modelled data-plane seconds the configured
    /// [`as_staging::dataplane::DataPlane`] charged this rank's staging
    /// reads (both streams).
    pub staging_model_seconds: f64,
}

/// Build the snapshot publisher when both the config knob and a sink
/// are present; otherwise the loop only trains.
fn make_publisher(
    cfg: &WorkflowConfig,
    sink: Option<std::sync::Arc<dyn SnapshotSink>>,
) -> Option<SnapshotPublisher> {
    match (&cfg.serving, sink) {
        (Some(serving), Some(sink)) => Some(SnapshotPublisher::new(sink, serving, cfg.encode)),
        _ => None,
    }
}

/// How the learner group talks to itself: one `match` per collective
/// operation the loop needs.
enum Membership<'a, C: Collective> {
    /// Every rank stays alive: the plain collectives of the world, with
    /// the bucket all-reduces optionally on a comm-worker thread over a
    /// dedicated gradient world.
    Static {
        comm: &'a C,
        overlap: Option<OverlappedGradSync<C>>,
    },
    /// An active fault plan: every round is membership-aware and the
    /// group shrinks when a rank dies.
    Tolerant(FtComm<'a, C>),
}

impl<C: Collective> Membership<'_, C> {
    /// The ranks taking part in this window, ascending. The tolerant
    /// group runs a membership round so the survivors agree on who is
    /// alive before any value-bearing collective of the window.
    fn members(&self) -> Vec<usize> {
        match self {
            Self::Static { comm, .. } => (0..comm.size()).collect(),
            Self::Tolerant(ft) => ft.members(),
        }
    }

    /// The `DropSteps` read: the root takes the freshest window (or the
    /// next in order while fewer than `min_queue` are pending) and
    /// broadcasts its stream step; every other rank skips to exactly
    /// that step. The static root is rank 0; the tolerant root is the
    /// lowest live rank, re-elected if it dies this round.
    fn drop_steps_read(
        &self,
        reader: &mut OpenPmdReader,
        min_queue: u64,
    ) -> (u64, Option<IterationData>) {
        let mut root_read = None;
        let mut read_freshest = || {
            let (skip, opt) = reader.next_iteration_latest_min(min_queue);
            let target = opt.as_ref().map(|it| it.stream_step());
            root_read = Some((skip, opt));
            target
        };
        let target: Option<u64> = match self {
            Self::Static { comm, .. } if comm.rank() == 0 => {
                let target = read_freshest();
                comm.broadcast(0, Some(target))
            }
            Self::Static { comm, .. } => comm.broadcast(0, None),
            Self::Tolerant(ft) => ft.elect_broadcast(read_freshest).1,
        };
        match (root_read, target) {
            (Some(read), _) => read,
            (None, Some(step)) => reader.next_iteration_at_least(step),
            (None, None) => (0, None),
        }
    }

    /// Broadcast `value` from `owner` (who passes `Some`). `None` only
    /// where a tolerant member could not hear a dying owner.
    fn broadcast_from<T: Clone + Send + 'static>(
        &self,
        owner: usize,
        value: Option<T>,
    ) -> Option<T> {
        match self {
            Self::Static { comm, .. } => Some(comm.broadcast(owner, value)),
            Self::Tolerant(ft) => ft.broadcast_from(owner, value),
        }
    }

    /// Collective go/no-go: true once every member can draw a batch.
    fn all_ready(&self, ready: bool) -> bool {
        let vote = if ready { 1.0f64 } else { 0.0 };
        let (yes, members) = match self {
            Self::Static { comm, .. } => (comm.allreduce_scalar_f64(vote), comm.size()),
            Self::Tolerant(ft) => {
                let mut buf = [vote];
                let n = ft.allreduce_sum(&mut buf);
                (buf[0], n)
            }
        };
        yes.round() as usize >= members
    }

    /// Element-wise sum over the members, returning how many contributed.
    fn allreduce_sum(&self, buf: &mut [f64]) -> usize {
        match self {
            Self::Static { comm, .. } => {
                comm.allreduce_sum_f64(buf);
                comm.size()
            }
            Self::Tolerant(ft) => ft.allreduce_sum(buf),
        }
    }

    /// Start averaging the gradients: the same buckets on every path,
    /// reduced in place, on the comm worker, or over the live members
    /// in canonical ring order. [`Self::finish_grad_sync`] completes it.
    fn begin_grad_sync(&mut self, model: &mut ArtificialScientistModel, bucket: usize) {
        match self {
            Self::Static {
                overlap: Some(sync),
                ..
            } => sync.begin(model, bucket),
            Self::Static {
                comm,
                overlap: None,
            } => sync_gradients_bucketed(*comm, model, bucket),
            Self::Tolerant(ft) => sync_gradients_with(model, bucket, |b| ft.allreduce_sum(b)),
        }
    }

    /// Wait for an overlapped gradient sync (no-op otherwise). Anything
    /// run between begin and finish overlaps the bucket all-reduces.
    fn finish_grad_sync(&mut self, model: &mut ArtificialScientistModel) {
        if let Self::Static {
            overlap: Some(sync),
            ..
        } = self
        {
            sync.wait_all(model);
        }
    }

    /// Assert every member holds the parameters hashing to `h`.
    fn check_hash(&self, h: u64, iteration: usize) {
        let hashes: Vec<u64> = match self {
            Self::Static { comm, .. } => comm.allgather(h),
            Self::Tolerant(ft) => ft.exchange(h).into_values().collect(),
        };
        assert!(
            hashes.iter().all(|&x| x == h),
            "learner ranks diverged after iteration {iteration}: {hashes:?}"
        );
    }

    /// Snapshot metadata `(version, param_hash)` from the publishing
    /// root. The static group broadcasts it, so peers can check it
    /// against their own parameters; the tolerant group sends nothing —
    /// its membership round already aligns the group, and every member
    /// derives the same due/root decision locally.
    fn announce_snapshot(&self, root: usize, meta: Option<(u64, u64)>) -> Option<(u64, u64)> {
        match self {
            Self::Static { comm, .. } => Some(comm.broadcast(root, meta)),
            Self::Tolerant(_) => None,
        }
    }

    /// Wall seconds spent waiting out budgets on peers then condemned.
    fn condemned_wait_seconds(&self) -> f64 {
        match self {
            Self::Static { .. } => 0.0,
            Self::Tolerant(ft) => ft.condemned_wait_seconds(),
        }
    }

    /// Traffic on the dedicated gradient world, if any:
    /// `(bytes, modelled seconds, messages)`.
    fn grad_world_traffic(&self) -> (u64, f64, u64) {
        match self {
            Self::Static {
                overlap: Some(sync),
                ..
            } => (
                sync.world_bytes_sent(),
                sync.modelled_comm_seconds(),
                sync.world_messages_sent(),
            ),
            _ => (0, 0.0, 0),
        }
    }
}

/// Run one rank of the learner group until the streams end.
///
/// `comm` spans the K learner ranks (any [`Collective`] backend; K = 1
/// is a 1-rank world). Window ownership is round-robin in stream order
/// over the live members; training is synchronous and gradient-averaged
/// every iteration in buckets of `cfg.grad_bucket` elements, so every
/// rank holds bit-identical parameters throughout (asserted).
/// Iterations only run once *every* member can draw a batch — the
/// go/no-go is collective, keeping the all-reduce schedule identical on
/// all ranks.
///
/// With [`WorkflowConfig::overlap_grad_sync`] the bucket reduction runs
/// non-blocking on a comm-worker thread over `grad_comm` — a **second**
/// collective world spanning the same ranks (its own endpoint per rank,
/// like a NCCL gradient stream), so bucket all-reduces overlap the
/// per-iteration loss mean on `comm` without the two schedules ever
/// sharing an endpoint. The reduction itself is bit-identical to the
/// blocking path ([`as_nn::ddp::OverlappedGradSync`]). It is not
/// supported under an active fault plan.
///
/// Under an **active** [`WorkflowConfig::faults`] plan every collective
/// goes through [`FtComm`], and the loop adds, keyed on the *arrival
/// counter* (windows taken off the stream):
///
/// - **checkpoint capture** every
///   [`crate::faults::FaultPlan::checkpoint_every`] arrivals, taken at
///   the loop top *before* the kill hook, so a kill landing on a
///   boundary restores the state captured a moment earlier;
/// - **kill events**: [`KillMode::Restart`] rolls back to the latest
///   [`LearnerCheckpoint`] (arrivals consumed since then are counted in
///   [`ConsumerReport::lost_windows`] — stream steps cannot be re-read)
///   and continues; with K > 1 the kill must land on a checkpoint
///   boundary, so the rollback is a state no-op and the collective
///   schedule never diverges (asserted). [`KillMode::Die`] marks the
///   rank dead on the shared world — survivors fast-fail their waits
///   instead of burning the full death budget — and panics with an
///   [`InjectedFault`] payload (the orchestrator captures it as a rank
///   failure);
/// - **skip events** ([`crate::faults::FaultEvent::SkipWindows`]): the
///   window is read and closed unprocessed, counted as lost — the
///   reference-run twin of a rollback, for bit-identity comparisons.
///
/// With [`WorkflowConfig::serving`] set and a `sink` given, the group's
/// root (the lowest live rank) captures a
/// [`crate::snapshot::ModelSnapshot`] every `publish_every` training
/// iterations (the counter is bit-identical across ranks, so every rank
/// agrees on the schedule) and prices the payload along the group's
/// broadcast schedule (`account_broadcast_payload`). A static group
/// also broadcasts the `(version, param_hash)` metadata, and peers
/// assert it against their own parameters — a cross-rank torn-weights
/// check. When the tolerant root dies, publication fails over to the
/// next survivor. The publisher's version counter is not checkpointed:
/// a rollback may republish the same iteration range, but versions stay
/// strictly monotone — the engine's hot-swap invariant.
pub fn run_consumer<C: Collective>(
    cfg: &WorkflowConfig,
    comm: C,
    grad_comm: Option<C>,
    particle_stream: SstReader,
    radiation_stream: SstReader,
    sink: Option<std::sync::Arc<dyn SnapshotSink>>,
) -> ConsumerReport {
    let mut publisher = make_publisher(cfg, sink);
    let plan = &cfg.faults;
    let rank = comm.rank();
    let world = comm.size();
    let mut group = if plan.active() {
        assert!(
            !cfg.overlap_grad_sync,
            "overlap_grad_sync is not supported under an active fault plan"
        );
        Membership::Tolerant(FtComm::new(&comm, plan))
    } else {
        let overlap = cfg.overlap_grad_sync.then(|| {
            let g = grad_comm
                .unwrap_or_else(|| panic!("overlap_grad_sync needs a dedicated gradient world"));
            assert_eq!(g.rank(), rank, "gradient world must mirror the main world");
            assert_eq!(g.size(), world, "gradient world must mirror the main world");
            OverlappedGradSync::new(std::sync::Arc::new(g))
        });
        Membership::Static {
            comm: &comm,
            overlap,
        }
    };
    // Different data/noise streams per rank, identical weights — the
    // seeding discipline of `as_nn::ddp::train_ddp`. A lone learner
    // mixes nothing in.
    let rank_mix = if world == 1 {
        0
    } else {
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1)
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

    let mut report_losses: Vec<LossReport> = Vec::new();
    let mut windows = 0u64;
    let mut samples = 0u64;
    let mut train_seconds = 0.0;
    let mut owned_windows: Vec<u64> = Vec::new();
    let mut orphaned_windows = 0u64;
    let mut dropped_windows = 0u64;
    let mut param_hashes: Vec<u64> = Vec::new();

    let kill = plan.consumer_kill(rank);
    let skips = plan.skip_ranges();
    let mut seen = 0u64;
    let mut kill_fired = false;
    let mut ckpt: Option<LearnerCheckpoint> = None;
    let mut last_capture: Option<u64> = None;
    let mut lost_windows = 0u64;
    let mut restarts = 0u64;
    let mut recovery_seconds = 0.0;
    let mut degradations = 0u64;
    let mut members: Vec<usize> = (0..world).collect();

    'stream: loop {
        if plan.checkpoint_every > 0
            && seen.is_multiple_of(plan.checkpoint_every)
            && last_capture != Some(seen)
        {
            let progress = LearnerProgress {
                windows,
                samples,
                owned_windows: owned_windows.clone(),
                losses: report_losses.clone(),
                param_hashes: param_hashes.clone(),
            };
            ckpt = Some(LearnerCheckpoint::capture(
                &mut model, &opt, &buffer, &schedule, &enc_rng, &train_rng, &progress,
            ));
            last_capture = Some(seen);
        }
        if let Some((at, mode)) = kill {
            if !kill_fired && seen == at {
                kill_fired = true;
                match mode {
                    KillMode::Die => {
                        // Self-mark before unwinding: the health board is
                        // shared, so survivors fast-fail their pending
                        // waits instead of burning the full budget.
                        comm.mark_dead(rank);
                        std::panic::panic_any(InjectedFault {
                            rank,
                            at_window: seen,
                        });
                    }
                    KillMode::Restart => {
                        let t0 = std::time::Instant::now();
                        let c = ckpt.as_ref().unwrap_or_else(|| {
                            panic!("ConsumerKill restart needs checkpoint_every > 0")
                        });
                        let live = windows;
                        let progress = c.restore(
                            &mut model,
                            &mut opt,
                            &mut buffer,
                            &mut schedule,
                            &mut enc_rng,
                            &mut train_rng,
                        );
                        assert!(
                            world == 1 || progress.windows == live,
                            "multi-rank kill-restart must land on a checkpoint boundary \
                             (checkpoint_every must divide the kill window)"
                        );
                        lost_windows += live - progress.windows;
                        windows = progress.windows;
                        samples = progress.samples;
                        owned_windows = progress.owned_windows;
                        report_losses = progress.losses;
                        param_hashes = progress.param_hashes;
                        restarts += 1;
                        recovery_seconds += t0.elapsed().as_secs_f64();
                    }
                }
            }
        }
        // A shrink is a degradation event — ownership, go/no-go
        // threshold and loss divisor all re-derive from the member list.
        let now_alive = group.members();
        if now_alive.len() < members.len() {
            degradations += 1;
        }
        members = now_alive;

        let (mut p_it, mut r_it) = match cfg.policy {
            ConsumerPolicy::BlockingEveryStep => {
                let p_it = p_reader.next_iteration();
                let r_it = r_reader.next_iteration();
                match (p_it, r_it) {
                    (Some(a), Some(b)) => (a, b),
                    (None, None) => break,
                    (Some(a), None) => {
                        p_reader.close_iteration(a);
                        orphaned_windows += 1 + drain_stream(&mut p_reader);
                        break;
                    }
                    (None, Some(b)) => {
                        r_reader.close_iteration(b);
                        orphaned_windows += 1 + drain_stream(&mut r_reader);
                        break;
                    }
                }
            }
            ConsumerPolicy::DropSteps { min_queue, .. } => {
                let (p_skip, p_opt) = group.drop_steps_read(&mut p_reader, min_queue as u64);
                // The pairing/accounting outcome is a function of global
                // stream state and the shared target, so every rank takes
                // the same branch on the same window — on end-of-stream no
                // collective runs below and all ranks exit together.
                match pair_drop_steps_window(
                    p_skip,
                    p_opt,
                    &mut p_reader,
                    &mut r_reader,
                    &mut dropped_windows,
                    &mut orphaned_windows,
                ) {
                    Some(pair) => pair,
                    None => break 'stream,
                }
            }
        };
        let arrival = seen;
        seen += 1;
        if skips.iter().any(|&(f, t)| arrival >= f && arrival <= t) {
            p_reader.close_iteration(p_it);
            r_reader.close_iteration(r_it);
            lost_windows += 1;
            continue 'stream;
        }
        let slot = windows;
        windows += 1;
        let owner = members[(slot % members.len() as u64) as usize];
        if cfg.sample_broadcast {
            // Owner-computed broadcast: one rank pays the fetch+encode,
            // every rank's buffer receives the encoded samples (a few KiB
            // per window vs the full phase-space fetch).
            let fresh = if rank == owner {
                owned_windows.push(p_it.iteration);
                let fresh = encode_window(cfg, &mut p_it, &mut r_it, &mut enc_rng);
                // The broadcast payload is opaque to the transport;
                // declare its per-copy serialized size so the backend can
                // price it along the broadcast schedule.
                let per_copy: u64 = fresh
                    .iter()
                    .map(|s| ((s.points.len() + s.spectrum.len()) * 4 + 16) as u64)
                    .sum();
                comm.account_broadcast_payload(owner, per_copy);
                Some(fresh)
            } else {
                None
            };
            let shared = group.broadcast_from(owner, fresh).unwrap_or_default();
            samples += shared.len() as u64;
            for s in shared {
                buffer.push(s);
            }
        } else if rank == owner {
            owned_windows.push(p_it.iteration);
            let fresh = encode_window(cfg, &mut p_it, &mut r_it, &mut enc_rng);
            samples += fresh.len() as u64;
            for s in fresh {
                buffer.push(s);
            }
        }
        // Price this rank's staging fetches for the window on the
        // collective's data plane (zero for non-owners, who fetched no
        // payload; the netsim backend sleeps the modelled cost, the
        // channel backend ignores it).
        comm.account_dataplane(
            p_it.wire_bytes_fetched() + r_it.wire_bytes_fetched(),
            p_it.simulated_seconds() + r_it.simulated_seconds(),
        );
        p_reader.close_iteration(p_it);
        r_reader.close_iteration(r_it);

        schedule.on_step();
        while schedule.should_train() {
            // Until the last member owns its first window this skips,
            // and the owed iterations are recovered on later windows.
            if !group.all_ready(buffer.ready()) {
                break;
            }
            let t0 = std::time::Instant::now();
            let batch = buffer.sample_batch();
            let (points, spectra) = batch_to_tensors(&batch, &cfg.model);
            model.zero_grad();
            let local = model.accumulate_gradients(&points, &spectra, &mut train_rng);
            // In overlap mode the loss mean on the main world runs while
            // the comm worker reduces buckets; same buckets, same
            // all-reduce order ⇒ bit-identical to the blocking path.
            group.begin_grad_sync(&mut model, cfg.grad_bucket);
            let loss = mean_loss(&local, |buf| group.allreduce_sum(buf));
            group.finish_grad_sync(&mut model);
            opt.step(&mut model);
            train_seconds += t0.elapsed().as_secs_f64();
            report_losses.push(loss);
            schedule.on_iteration();
            // DDP invariant: identical averaged gradients applied to
            // identical optimizer state ⇒ bit-identical parameters. The
            // hash history doubles as the rollback witness.
            let h = param_hash(&mut model);
            group.check_hash(h, report_losses.len());
            param_hashes.push(h);
            let Some(pb) = publisher.as_mut() else {
                continue;
            };
            let iters = report_losses.len() as u64;
            if !pb.due(iters) {
                continue;
            }
            let root = members[0];
            if rank == root {
                let snap = pb.capture(&mut model, iters);
                comm.account_broadcast_payload(root, snap.payload_bytes());
                group.announce_snapshot(root, Some((snap.version, snap.param_hash)));
                pb.send(snap);
            } else {
                if let Some((_version, root_hash)) = group.announce_snapshot(root, None) {
                    assert_eq!(
                        root_hash, h,
                        "published snapshot hash diverged from rank {rank}'s parameters"
                    );
                }
                pb.skip();
            }
        }
    }

    recovery_seconds += group.condemned_wait_seconds();
    let (grad_bytes, grad_seconds, grad_messages) = group.grad_world_traffic();
    let published_windows = p_reader.published_steps().max(r_reader.published_steps());
    ConsumerReport {
        param_hash: param_hash(&mut model),
        model,
        losses: report_losses,
        windows,
        samples,
        train_seconds,
        particle_bytes: p_reader.stats().total_bytes(),
        rank,
        world,
        owned_windows,
        orphaned_windows,
        dropped_windows,
        published_windows,
        param_hashes,
        comm_bytes: comm.world_bytes_sent() + grad_bytes,
        comm_model_seconds: comm.modelled_comm_seconds() + grad_seconds,
        comm_messages: comm.world_messages_sent() + grad_messages,
        lost_windows,
        restarts,
        recovery_seconds,
        degradations,
        world_after: members.len(),
        staging_wire_bytes: p_reader.stats().wire_bytes() + r_reader.stats().wire_bytes(),
        staging_model_seconds: p_reader.stats().simulated_seconds()
            + r_reader.stats().simulated_seconds(),
    }
}

/// Mean of every loss component over the contributing ranks; `reduce`
/// sums the buffer across them and returns how many contributed.
fn mean_loss(local: &LossReport, reduce: impl FnOnce(&mut [f64]) -> usize) -> LossReport {
    let mut buf = [
        local.cd,
        local.kl,
        local.mse,
        local.mmd_z,
        local.mmd_n,
        local.total,
    ];
    let inv = 1.0 / reduce(&mut buf) as f64;
    LossReport {
        cd: buf[0] * inv,
        kl: buf[1] * inv,
        mse: buf[2] * inv,
        mmd_z: buf[3] * inv,
        mmd_n: buf[4] * inv,
        total: buf[5] * inv,
    }
}

/// Pair a `DropSteps` particle read (already taken, with `p_skip`
/// windows skipped) with its radiation step, keeping both streams in
/// lockstep and settling the drop/orphan accounting. Returns the paired
/// iterations, or `None` when the stream is over — in which case both
/// streams are fully drained and every remaining window is already
/// counted (dropped where both halves existed, orphaned where only one
/// did).
fn pair_drop_steps_window(
    p_skip: u64,
    p_opt: Option<IterationData>,
    p_reader: &mut OpenPmdReader,
    r_reader: &mut OpenPmdReader,
    dropped_windows: &mut u64,
    orphaned_windows: &mut u64,
) -> Option<(IterationData, IterationData)> {
    let Some(p_it) = p_opt else {
        // Particle stream ended with nothing pending; any radiation
        // leftovers lost their particle halves.
        let (p_left, _) = p_reader.next_iteration_at_least(u64::MAX);
        let (r_left, _) = r_reader.next_iteration_at_least(u64::MAX);
        *orphaned_windows += p_left + r_left;
        return None;
    };
    // Keep the radiation stream in lockstep: skip to the same stream
    // step the particle read jumped to.
    let (r_skip, r_opt) = r_reader.next_iteration_at_least(p_it.stream_step());
    match r_opt {
        Some(r_it) => {
            debug_assert_eq!(r_skip, p_skip, "streams skip the same window set");
            *dropped_windows += p_skip;
            Some((p_it, r_it))
        }
        None => {
            // Radiation ended early (producer death): windows present on
            // both streams were dropped; the particle-only tail
            // (including this window) is orphaned.
            *dropped_windows += r_skip;
            *orphaned_windows += (p_skip - r_skip) + 1;
            p_reader.close_iteration(p_it);
            let (left, _) = p_reader.next_iteration_at_least(u64::MAX);
            *orphaned_windows += left;
            None
        }
    }
}

/// Close every remaining iteration of a stream whose partner ended early,
/// returning how many were discarded. Closing (rather than abandoning)
/// lets the surviving writer finish instead of wedging on the queue.
fn drain_stream(reader: &mut OpenPmdReader) -> u64 {
    let mut n = 0;
    while let Some(it) = reader.next_iteration() {
        reader.close_iteration(it);
        n += 1;
    }
    n
}

/// Fetch one window's phase space and spectra and encode one sample per
/// non-empty flow region; the caller feeds its buffer (or broadcasts the
/// encoded samples to peers — the owner-computed path).
///
/// The fetch is zero-copy: every particle component comes back as a
/// [`as_staging::view::VarView`] reading straight out of the published
/// block buffers, and the region filter / bounding box / point encoder
/// all index through the view — no per-window gather of the six
/// phase-space arrays. Under the lossless wire codec this path consumes
/// the RNG and performs arithmetic identically to the historical
/// gather-then-encode path, so training trajectories are bit-identical.
fn encode_window(
    cfg: &WorkflowConfig,
    p_it: &mut IterationData,
    r_it: &mut IterationData,
    enc_rng: &mut StdRng,
) -> Vec<Sample> {
    // Phase-space views (no payload copy).
    let xs = p_it.particles_view("e", "position", "x");
    let ys = p_it.particles_view("e", "position", "y");
    let zs = p_it.particles_view("e", "position", "z");
    let uxs = p_it.particles_view("e", "momentum", "x");
    let uys = p_it.particles_view("e", "momentum", "y");
    let uzs = p_it.particles_view("e", "momentum", "z");
    let step = p_it.iteration;
    let mut samples = Vec::new();

    // Build one sample per flow region.
    let (_, ly, _) = cfg.grid.extents();
    for (region_idx, _region) in FlowRegion::all().iter().enumerate() {
        let idx: Vec<usize> = (0..xs.len())
            .filter(|&i| region_of(ys.get_f64(i), ly, cfg.shear_width) == region_idx)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let (center, half) = bounding_box_view(&xs, &ys, &zs, &idx);
        let points = cfg
            .encode
            .encode_points_view(&xs, &ys, &zs, &uxs, &uys, &uzs, &idx, center, half, enc_rng);
        let flat = r_it.f32_array_view(&format!("radiation/region{region_idx}/intensity"));
        // First direction's spectrum conditions the INN.
        let n_f = cfg.detector.n_freqs();
        let intensity: Vec<f64> = (0..n_f).map(|i| flat.get_f32(i) as f64).collect();
        let spec = Spectrum::new(cfg.detector.frequencies.clone(), intensity);
        let spectrum = cfg.encode.encode_spectrum(&spec, cfg.model.spectrum_dim);
        samples.push(Sample {
            points,
            spectrum,
            region: region_idx,
            step,
        });
    }
    samples
}

fn region_of(y: f64, ly: f64, shear_width: f64) -> usize {
    match FlowRegion::classify(y, ly, shear_width) {
        FlowRegion::Approaching => 0,
        FlowRegion::Receding => 1,
        FlowRegion::Vortex => 2,
    }
}

/// Zero-copy twin of [`bounding_box`]: the axis-aligned bounding box of
/// an indexed subset of three staging views. Folds min/max in `idx`
/// order — the same sequence the gather path folded — so the result is
/// bit-identical under the lossless codec.
pub fn bounding_box_view(
    xs: &as_staging::view::VarView,
    ys: &as_staging::view::VarView,
    zs: &as_staging::view::VarView,
    idx: &[usize],
) -> ([f64; 3], [f64; 3]) {
    let minmax = |v: &as_staging::view::VarView| {
        let lo = idx
            .iter()
            .map(|&i| v.get_f64(i))
            .fold(f64::INFINITY, f64::min);
        let hi = idx
            .iter()
            .map(|&i| v.get_f64(i))
            .fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let (x0, x1) = minmax(xs);
    let (y0, y1) = minmax(ys);
    let (z0, z1) = minmax(zs);
    let center = [(x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0];
    let half = [
        ((x1 - x0) / 2.0).max(1e-6),
        ((y1 - y0) / 2.0).max(1e-6),
        ((z1 - z0) / 2.0).max(1e-6),
    ];
    (center, half)
}

/// Axis-aligned bounding box of a point set: `(center, half_extents)`.
pub fn bounding_box(xs: &[f64], ys: &[f64], zs: &[f64]) -> ([f64; 3], [f64; 3]) {
    let minmax = |v: &[f64]| {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let (x0, x1) = minmax(xs);
    let (y0, y1) = minmax(ys);
    let (z0, z1) = minmax(zs);
    let center = [(x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0];
    let half = [
        ((x1 - x0) / 2.0).max(1e-6),
        ((y1 - y0) / 2.0).max(1e-6),
        ((z1 - z0) / 2.0).max(1e-6),
    ];
    (center, half)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_box_of_unit_cube() {
        let xs = [0.0, 1.0];
        let ys = [2.0, 4.0];
        let zs = [1.0, 1.0];
        let (c, h) = bounding_box(&xs, &ys, &zs);
        assert_eq!(c, [0.5, 3.0, 1.0]);
        assert!((h[0] - 0.5).abs() < 1e-12);
        assert!((h[1] - 1.0).abs() < 1e-12);
        assert!(h[2] >= 1e-6, "degenerate axis gets a floor");
    }

    #[test]
    fn region_indexing_matches_flow_region_order() {
        let ly = 8.0;
        assert_eq!(region_of(4.0, ly, 0.05), 0);
        assert_eq!(region_of(0.4, ly, 0.05), 1);
        assert_eq!(region_of(2.0, ly, 0.05), 2);
    }
}
