//! Workload inputs and the untraced (end-to-end) runs.
//!
//! Every input is derived from the `--seed` argument: the KHI particle
//! placement, i.e. the plasma every streamed window is cut from, and for
//! `serve_swap` also the query pool and the clients' choice streams. The
//! program sees only these inputs. The workflow's own master seed (model
//! initialisation, replay and training streams) keeps its default, so
//! the loss figure varies only with the data.

use crate::compose::ComposedOut;
use crate::resources::{timed, Timing};
use crate::trace::{Tracer, ROOT};
use as_core::config::{CommBackend, ServingConfig, WorkflowConfig};
use as_core::snapshot::{ModelSnapshot, SnapshotSink};
use as_core::workflow::{run_workflow_with_sink, WorkflowReport};
use as_pic::grid::GridSpec;
use as_serve::{posterior_batch, run_loadgen, InferenceEngine, LoadGenConfig, LoadReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Learn1x1,
    Stream2x2,
    ServeSwap,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "learn_1x1" => Some(Self::Learn1x1),
            "stream_2x2" => Some(Self::Stream2x2),
            "serve_swap" => Some(Self::ServeSwap),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Learn1x1 => "learn_1x1",
            Self::Stream2x2 => "stream_2x2",
            Self::ServeSwap => "serve_swap",
        }
    }
}

/// Loss figures average the last this many training iterations, a third
/// of a `learn_1x1` run: over the last 8 alone the figure moves by ~10%
/// from seed to seed, which would hide a real regression.
pub const TAIL_ITERS: usize = 48;
/// Warm-up runs in the set-up phase of the learning workloads, and
/// snapshot-collecting learner runs in that of `serve_swap`.
pub const SETUP_REPEATS: usize = 3;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn seeded(mut cfg: WorkflowConfig, seed: u64) -> WorkflowConfig {
    cfg.khi.seed = splitmix64(seed);
    cfg
}

/// `learn_1x1`: the small KHI box, one producer and one learner,
/// blocking, n_rep 6, publishing snapshots at the default cadence into
/// an engine nobody queries. The learner is the critical path.
pub fn learn_config(seed: u64) -> WorkflowConfig {
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 96;
    cfg.n_rep = 6;
    cfg.serving = Some(ServingConfig::default());
    seeded(cfg, seed)
}

/// `stream_2x2`: a 24×24×8 box at 8 particles per cell, two slab
/// producers and two DDP learners over the modelled Frontier fabric, a
/// window every 2 steps and one training iteration per window. PIC,
/// radiation, staging and encode dominate; it is the only workload with
/// collectives.
pub fn stream_config(seed: u64) -> WorkflowConfig {
    let mut cfg = WorkflowConfig::small();
    cfg.grid = GridSpec::cubic(24, 24, 8, 0.5, 0.5);
    cfg.khi.ppc = 8;
    cfg.steps_per_sample = 2;
    cfg.total_steps = 48;
    cfg.n_rep = 1;
    cfg.producers = 2;
    cfg.consumers = 2;
    cfg.backend = CommBackend::netsim_frontier();
    cfg.serving = Some(ServingConfig {
        publish_every: 2,
        ..ServingConfig::default()
    });
    seeded(cfg, seed)
}

/// The engine `serve_swap` queries: default batching, a 64-entry cache.
pub fn serve_engine_config() -> ServingConfig {
    ServingConfig::default()
}

/// `serve_swap` set-up: the `learn_1x1` learner, publishing a snapshot
/// every 4 iterations (publishing does not change training, so its loss
/// equals `learn_1x1`'s for the same seed).
pub fn serve_learner_config(seed: u64) -> WorkflowConfig {
    let mut cfg = learn_config(seed);
    cfg.serving = Some(ServingConfig {
        publish_every: 4,
        ..serve_engine_config()
    });
    cfg
}

/// The closed-loop client shape of `serve_swap`: one client thread per
/// CPU, a query pool twice the cache capacity, every response verified.
pub fn loadgen_config(seed: u64, dim: usize) -> LoadGenConfig {
    LoadGenConfig {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        clients_per_thread: 64,
        spectrum_pool: 2 * serve_engine_config().cache_capacity,
        spectrum_dim: dim,
        min_queries_per_thread: 1,
        verify: true,
        seed: splitmix64(seed ^ 0x5E4E),
    }
}

/// Hot-swap cadence of the `serve_swap` timed phase. The clients verify every answer against a reference forward memoised
/// per (spectrum, version), so each swap costs them a pool's worth of
/// reference passes; a slower cadence keeps that fixed cost from
/// dominating the throughput figure.
pub const INSTALL_EVERY: Duration = Duration::from_millis(2000);
/// Length of one load segment (one `run_loadgen` call).
pub const SEGMENT: Duration = Duration::from_millis(4000);

/// The benchmark's snapshot sink: installs into an engine (timing each
/// install as a `serve.install` span) or keeps the snapshots.
pub struct BenchSink {
    engine: Option<Arc<InferenceEngine>>,
    tracer: Arc<Tracer>,
    log: Mutex<SinkLog>,
}

#[derive(Default)]
pub struct SinkLog {
    pub published_at: Vec<Instant>,
    pub payload_bytes: u64,
    pub kept: Vec<ModelSnapshot>,
}

impl BenchSink {
    pub fn new(engine: Option<Arc<InferenceEngine>>, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(Self {
            engine,
            tracer,
            log: Mutex::new(SinkLog::default()),
        })
    }

    pub fn take_log(&self) -> SinkLog {
        std::mem::take(&mut *self.log.lock().expect("sink lock poisoned"))
    }
}

impl SnapshotSink for BenchSink {
    fn publish(&self, snapshot: ModelSnapshot) {
        let at = Instant::now();
        if let Some(engine) = &self.engine {
            self.tracer
                .span(ROOT, "serve.install", snapshot.version, || {
                    engine.install(&snapshot)
                });
        }
        let mut log = self.log.lock().expect("sink lock poisoned");
        log.published_at.push(at);
        log.payload_bytes += snapshot.payload_bytes();
        if self.engine.is_none() {
            log.kept.push(snapshot);
        }
    }
}

/// Work that must repeat exactly across runs of one commit and between
/// the traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Counts {
    pub windows_published: u64,
    pub windows_trained: u64,
    pub iterations: u64,
    pub samples: u64,
    pub staging_bytes: u64,
    pub staging_wire_bytes: u64,
    pub staging_model_s: f64,
    pub pic_comm_bytes: u64,
    pub pic_comm_messages: u64,
    pub pic_comm_model_s: f64,
    pub ddp_comm_bytes: u64,
    pub ddp_comm_messages: u64,
    pub ddp_comm_model_s: f64,
    pub snapshots: u64,
    pub snapshot_payload_bytes: u64,
    pub tail_loss: f64,
    pub param_hash: u64,
}

fn tail_mean(totals: &[f64]) -> f64 {
    let k = TAIL_ITERS.min(totals.len());
    totals[totals.len() - k..].iter().sum::<f64>() / k as f64
}

/// One workflow run, by the program's workflow function or the composed
/// pipeline.
pub struct WorkflowRun {
    pub timing: Timing,
    pub counts: Counts,
    /// `windows + dropped + orphaned + lost == published` on every rank
    /// and no rank failed.
    pub accounting_ok: bool,
    /// Wall-clock gaps between consecutive snapshots reaching the
    /// engine, in ms.
    pub refresh_ms: Vec<f64>,
    pub kept: Vec<ModelSnapshot>,
    /// The program's own report fields (zero for composed runs).
    pub sim_s: f64,
    pub emit_s: f64,
    pub train_s: f64,
}

impl WorkflowRun {
    pub fn windows_per_s(&self) -> f64 {
        self.counts.windows_trained as f64 / self.timing.wall_s
    }

    pub fn windows_per_avail_s(&self) -> f64 {
        self.counts.windows_trained as f64 / self.timing.avail_s()
    }

    pub fn failed_windows(&self) -> u64 {
        self.counts
            .windows_published
            .saturating_sub(self.counts.windows_trained)
            + u64::from(!self.accounting_ok)
    }
}

fn refresh_ms(at: &[Instant]) -> Vec<f64> {
    at.windows(2)
        .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// Run `cfg` through `run_workflow_with_sink`. With `install` the
/// learner publishes into a fresh engine; otherwise the snapshots are
/// kept.
pub fn run_program(cfg: &WorkflowConfig, install: bool) -> WorkflowRun {
    let engine = install.then(|| InferenceEngine::start(serve_engine_config()));
    let sink = BenchSink::new(engine.clone(), Arc::new(Tracer::new(false)));
    let (report, timing) = timed(|| run_workflow_with_sink(cfg, Some(sink.clone())));
    if let Some(e) = &engine {
        e.shutdown();
    }
    program_run(&report, timing, sink.take_log())
}

fn program_run(r: &WorkflowReport, timing: Timing, log: SinkLog) -> WorkflowRun {
    let s = &r.consumer_summaries;
    let accounting_ok = r.failures.is_empty()
        && s.len() == r.consumer.world
        && s.iter().all(|c| {
            c.windows + c.dropped_windows + c.orphaned_windows + c.lost_windows
                == c.published_windows
        });
    let totals: Vec<f64> = r.consumer.losses.iter().map(|l| l.total).collect();
    let max_u = |it: &mut dyn Iterator<Item = u64>| it.max().unwrap_or(0);
    let max_f = |it: &mut dyn Iterator<Item = f64>| it.fold(0.0, f64::max);
    let counts = Counts {
        windows_published: r.producer.windows,
        windows_trained: r.consumer.windows,
        iterations: totals.len() as u64,
        samples: s.iter().map(|c| c.samples).sum(),
        staging_bytes: r.producer.bytes,
        staging_wire_bytes: r
            .producers
            .iter()
            .map(|p| p.staging_wire_bytes)
            .sum::<u64>()
            + s.iter().map(|c| c.staging_wire_bytes).sum::<u64>(),
        staging_model_s: r
            .producers
            .iter()
            .map(|p| p.staging_model_seconds)
            .chain(s.iter().map(|c| c.staging_model_seconds))
            .sum(),
        pic_comm_bytes: max_u(&mut r.producers.iter().map(|p| p.comm_bytes)),
        pic_comm_messages: max_u(&mut r.producers.iter().map(|p| p.comm_messages)),
        pic_comm_model_s: max_f(&mut r.producers.iter().map(|p| p.comm_model_seconds)),
        ddp_comm_bytes: max_u(&mut s.iter().map(|c| c.comm_bytes)),
        ddp_comm_messages: max_u(&mut s.iter().map(|c| c.comm_messages)),
        ddp_comm_model_s: max_f(&mut s.iter().map(|c| c.comm_model_seconds)),
        snapshots: log.published_at.len() as u64,
        snapshot_payload_bytes: log.payload_bytes,
        tail_loss: tail_mean(&totals),
        param_hash: r.consumer.param_hash,
    };
    WorkflowRun {
        timing,
        counts,
        accounting_ok,
        refresh_ms: refresh_ms(&log.published_at),
        kept: log.kept,
        sim_s: r.producer.sim_seconds,
        emit_s: r.producer.emit_seconds,
        train_s: r.consumer.train_seconds,
    }
}

/// The same bookkeeping for a composed (traced) run.
pub fn composed_run(out: &ComposedOut, timing: Timing, log: SinkLog) -> WorkflowRun {
    let (p, c) = (&out.producers, &out.consumers);
    let accounting_ok = c.iter().all(|r| r.windows + r.orphaned == r.published);
    let max_u = |it: &mut dyn Iterator<Item = u64>| it.max().unwrap_or(0);
    let max_f = |it: &mut dyn Iterator<Item = f64>| it.fold(0.0, f64::max);
    let counts = Counts {
        windows_published: p[0].windows,
        windows_trained: c[0].windows,
        iterations: c[0].loss_totals.len() as u64,
        samples: c.iter().map(|r| r.samples).sum(),
        staging_bytes: p.iter().map(|r| r.bytes).sum(),
        staging_wire_bytes: p.iter().map(|r| r.wire_bytes).sum::<u64>()
            + c.iter().map(|r| r.wire_bytes).sum::<u64>(),
        staging_model_s: p
            .iter()
            .map(|r| r.model_s)
            .chain(c.iter().map(|r| r.model_s))
            .sum(),
        pic_comm_bytes: max_u(&mut p.iter().map(|r| r.comm_bytes)),
        pic_comm_messages: max_u(&mut p.iter().map(|r| r.comm_messages)),
        pic_comm_model_s: max_f(&mut p.iter().map(|r| r.comm_model_s)),
        ddp_comm_bytes: max_u(&mut c.iter().map(|r| r.comm_bytes)),
        ddp_comm_messages: max_u(&mut c.iter().map(|r| r.comm_messages)),
        ddp_comm_model_s: max_f(&mut c.iter().map(|r| r.comm_model_s)),
        snapshots: log.published_at.len() as u64,
        snapshot_payload_bytes: log.payload_bytes,
        tail_loss: tail_mean(&c[0].loss_totals),
        param_hash: c[0].param_hash,
    };
    WorkflowRun {
        timing,
        counts,
        accounting_ok,
        refresh_ms: refresh_ms(&log.published_at),
        kept: log.kept,
        sim_s: 0.0,
        emit_s: 0.0,
        train_s: 0.0,
    }
}

/// What a `serve_swap` timed phase observed.
pub struct ServeRun {
    /// Verified answers per wall second, per segment.
    pub segment_qps: Vec<f64>,
    /// Verified answers per available second (see [`Timing::avail_s`]),
    /// per segment.
    pub segment_per_avail_s: Vec<f64>,
    /// Verified answers over the whole phase, and its timing.
    pub verified: u64,
    pub timing: Timing,
    pub latencies_ms: Vec<f64>,
    pub queries: u64,
    pub failed: u64,
    pub versions_seen: Vec<u64>,
    /// Installs made while clients were querying.
    pub mid_traffic_swaps: u64,
    pub cache_hit_rate: f64,
    pub mean_batch: f64,
    pub queue_full_waits: u64,
    pub engine: Arc<InferenceEngine>,
}

/// The `serve_swap` timed phase: a fresh engine serving `snaps[0]`,
/// a closed loop of client threads for `seconds`, and a hot-swap every
/// [`INSTALL_EVERY`] cycling through the collected snapshots under
/// fresh, increasing versions.
pub fn serve_phase(
    snaps: &[ModelSnapshot],
    lg: &LoadGenConfig,
    seconds: f64,
    tr: &Tracer,
) -> ServeRun {
    let engine = InferenceEngine::start(serve_engine_config());
    let versioned = |v: u64| ModelSnapshot {
        version: v,
        ..snaps[(v as usize - 1) % snaps.len()].clone()
    };
    engine.install(&versioned(1));
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (reports, installs) = std::thread::scope(|s| {
        // Sleeps until each install is due, so it adds no wake-ups of its
        // own to the two-CPU host between swaps.
        let installer = s.spawn(|| {
            let mut version = 1;
            let mut next = start + INSTALL_EVERY;
            while next < deadline {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                version += 1;
                let snap = versioned(version);
                tr.span(ROOT, "serve.install", version, || engine.install(&snap));
                next += INSTALL_EVERY;
            }
            version - 1
        });
        let mut reports: Vec<(Option<LoadReport>, Timing)> = Vec::new();
        while reports.is_empty() || Instant::now() < deadline {
            let stop = Arc::new(AtomicBool::new(false));
            let timer = {
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    std::thread::sleep(SEGMENT);
                    stop.store(true, Ordering::SeqCst);
                })
            };
            reports.push(timed(|| {
                catch_unwind(AssertUnwindSafe(|| run_loadgen(&engine, lg, &stop))).ok()
            }));
            timer.join().expect("segment timer panicked");
        }
        (reports, installer.join().expect("installer panicked"))
    });
    let mut run = ServeRun {
        segment_qps: Vec::new(),
        segment_per_avail_s: Vec::new(),
        verified: 0,
        timing: Timing::default(),
        latencies_ms: Vec::new(),
        queries: 0,
        failed: 0,
        versions_seen: Vec::new(),
        mid_traffic_swaps: installs,
        cache_hit_rate: 0.0,
        mean_batch: 0.0,
        queue_full_waits: 0,
        engine: Arc::clone(&engine),
    };
    for (r, timing) in reports {
        // A panicking segment is a torn or regressed response.
        let Some(r) = r else {
            run.failed += 1;
            continue;
        };
        run.segment_qps
            .push(r.verified_responses as f64 / r.elapsed_seconds);
        run.segment_per_avail_s
            .push(r.verified_responses as f64 / timing.avail_s());
        run.verified += r.verified_responses;
        run.timing.add(timing);
        run.latencies_ms.extend(r.latencies.iter().map(|s| s * 1e3));
        run.queries += r.queries;
        run.failed +=
            r.mismatched_responses + r.monotonicity_violations + (r.queries - r.verified_responses);
        run.versions_seen.extend(r.versions_seen);
    }
    run.versions_seen.sort_unstable();
    run.versions_seen.dedup();
    let rep = engine.report();
    run.cache_hit_rate = rep.cache_hit_rate();
    run.mean_batch = rep.mean_batch();
    run.queue_full_waits = rep.queue_full_waits;
    engine.shutdown();
    run
}

/// Time `calls` forward-only inference passes of two rows each (the
/// batch a two-client closed loop forms) on the engine's current model,
/// as `serve.forward` spans.
pub fn forward_probe(engine: &InferenceEngine, lg: &LoadGenConfig, calls: usize, tr: &Tracer) {
    let served = engine.current().expect("a snapshot is installed");
    let pool = as_serve::make_spectrum_pool(lg);
    let samples = engine.config().posterior_samples;
    for i in 0..calls {
        let rows: [&[f32]; 2] = [&pool[i % pool.len()], &pool[(i + 1) % pool.len()]];
        let out = tr.span(ROOT, "serve.forward", i as u64, || {
            posterior_batch(&served.model, &rows, served.version, samples)
        });
        std::hint::black_box(out);
    }
}
