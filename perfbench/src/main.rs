//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learn_1x1|stream_2x2|serve_swap --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures a workload's end-to-end metrics through
//! the program's own workflow functions; with `--trace 1` it runs the workload both
//! untraced and through the benchmark's traced composition of the
//! layers (`compose.rs`), checks that both did the same work, and
//! reports the per-layer metrics. Every output check runs in both modes.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/METRICS.md` defines every metric.

mod compose;
mod host;
mod resources;
mod stats;
mod trace;
mod workloads;

use compose::{run_composed, Learner};
use resources::{timed, Timing};
use stats::{median, percentile, spread};
use std::sync::Arc;
use std::time::Instant;
use trace::{SpanSummary, Tracer};
use workloads::*;

#[global_allocator]
static ALLOC: resources::CountingAlloc = resources::CountingAlloc;

const USAGE: &str = "usage: perfbench --workload learn_1x1|stream_2x2|serve_swap \
                     --seed N --seconds S --trace 0|1";

/// Isolated learner steps the allocation probe counts.
const ALLOC_PROBE_STEPS: usize = 4;
/// Forward-only inference calls the serve probe times.
const FORWARD_PROBE_CALLS: usize = 200;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Collects checks and metrics, then prints the final JSON line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn check(&mut self, ok: bool, what: &str) {
        println!("check {} {what}", if ok { "ok  " } else { "FAIL" });
        self.correct &= ok;
    }

    /// An end-to-end metric, printed with its sample count, median and
    /// spread; `json` names it in the final line (wall-clock figures are
    /// printed only, see METRICS.md).
    fn e2e(
        &mut self,
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        json: Option<&'static str>,
    ) {
        self.e2e_value(name, unit, median(samples), samples, json);
    }

    /// [`Report::e2e`] for a figure that is not the median of its samples
    /// (a ratio of totals over the timed phase).
    fn e2e_value(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: &[f64],
        json: Option<&'static str>,
    ) {
        let shown: Vec<String> = samples.iter().take(40).map(|v| format!("{v:.4}")).collect();
        println!(
            "e2e   {name:<18} {value:>14.6} {unit:<8} n={:<3} spread {:.4} {} [{}]",
            samples.len(),
            spread(samples),
            json.map_or("(printed only)".to_string(), |j| format!("(json {j})")),
            shown.join(" ")
        );
        if let Some(j) = json {
            self.metrics.push((j, value, unit));
        }
    }

    /// A percentile of pooled samples, printed only.
    fn pooled(&self, name: &str, samples: &[f64], p: f64) {
        println!(
            "e2e   {name:<18} {:>14.6} ms       n={} pooled samples (printed only)",
            percentile(samples, p),
            samples.len()
        );
    }

    /// A per-layer metric; `json` false keeps it in the printout only.
    fn layer(&mut self, name: &'static str, unit: &'static str, value: f64, json: bool) {
        let moves = METRIC_MAP
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, m)| *m);
        println!("layer {name:<24} {value:>14.6} {unit:<6} -> {moves}");
        if json {
            self.metrics.push((name, value, unit));
        }
    }

    fn finish(self) {
        let mut correct = self.correct;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                // JSON has no NaN or infinity; such a figure is a failure.
                let v = if v.is_finite() {
                    *v
                } else {
                    correct = false;
                    -1.0
                };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload (see METRICS.md).
const METRIC_MAP: &[(&str, &str)] = &[
    (
        "pic.step_ms",
        "windows_per_s on stream_2x2; nothing on learn_1x1",
    ),
    (
        "radiation.step_ms",
        "windows_per_s on stream_2x2; nothing on learn_1x1",
    ),
    ("pic.comm_bytes", "deterministic; stream_2x2"),
    ("pic.comm_messages", "deterministic; stream_2x2"),
    ("pic.comm_model_s", "deterministic; stream_2x2"),
    ("staging.publish_ms", "windows_per_s on stream_2x2"),
    (
        "staging.stall_s",
        "falls when the learner speeds up on learn_1x1",
    ),
    (
        "staging.stall_pct",
        "falls when the learner speeds up on learn_1x1",
    ),
    ("staging.fetch_ms", "windows_per_s on stream_2x2"),
    ("staging.fetch_wait_ms", "windows_per_s on stream_2x2"),
    ("staging.wire_bytes", "deterministic; stream_2x2"),
    ("staging.model_s", "deterministic; stream_2x2"),
    ("encode.window_ms", "windows_per_s on stream_2x2"),
    ("encode.samples", "deterministic; stream_2x2"),
    ("replay.sample_ms", "windows_per_s on learn_1x1"),
    (
        "nn.train_step_ms",
        "windows_per_s on learn_1x1; nothing on serve_swap",
    ),
    (
        "nn.fwd_bwd_ms",
        "windows_per_s on learn_1x1; nothing on serve_swap",
    ),
    (
        "nn.adam_ms",
        "windows_per_s on learn_1x1; nothing on serve_swap",
    ),
    (
        "nn.allocs_per_step",
        "windows_per_s on learn_1x1 (deterministic)",
    ),
    (
        "nn.alloc_mib_per_step",
        "windows_per_s on learn_1x1 (deterministic)",
    ),
    ("ddp.sync_ms", "windows_per_s on stream_2x2"),
    ("ddp.comm_bytes", "deterministic; stream_2x2"),
    ("ddp.comm_messages", "deterministic; stream_2x2"),
    ("ddp.comm_model_s", "deterministic; stream_2x2"),
    ("snapshot.capture_ms", "windows_per_s on learn_1x1"),
    ("snapshot.payload_bytes", "deterministic; learn_1x1"),
    (
        "serve.install_ms",
        "windows_per_s on learn_1x1; serve p99/p90 on serve_swap",
    ),
    (
        "serve.forward_ms",
        "serve_qps and serve_p50_ms on serve_swap",
    ),
    (
        "serve.cache_hit_rate",
        "serve_qps and serve_p50_ms on serve_swap",
    ),
    (
        "serve.mean_batch",
        "serve_qps and serve_p50_ms on serve_swap",
    ),
    (
        "serve.queue_full_waits",
        "serve_qps and serve_p50_ms on serve_swap",
    ),
    (
        "producer.sim_s",
        "cross-check of pic/radiation spans (program report)",
    ),
    (
        "producer.emit_s",
        "cross-check of staging.publish spans (program report)",
    ),
    (
        "consumer.train_s",
        "cross-check of nn spans (program report)",
    ),
    (
        "trace.overhead_pct",
        "traced minus untraced end-to-end, as a share",
    ),
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    resources::reset_peak_rss();
    resources::reset_peak_heap();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host::facts_json(args.seed));
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    match args.workload {
        Workload::Learn1x1 | Workload::Stream2x2 => learning(&args, &mut report),
        Workload::ServeSwap => serving(&args, &mut report),
    }
    report.finish();
}

/// Run `f` until `seconds` have passed and at least `min` times.
fn repeat<T>(seconds: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// Checks every workflow run must pass, and that all runs did the same
/// work.
fn check_runs(report: &mut Report, label: &str, runs: &[WorkflowRun]) {
    let first = &runs[0].counts;
    report.check(
        runs.iter().all(|r| r.accounting_ok),
        &format!(
            "{label}: windows+dropped+orphaned+lost == published on every rank, no rank failures"
        ),
    );
    report.check(
        runs.iter()
            .all(|r| r.counts.windows_trained == r.counts.windows_published),
        &format!("{label}: every published window trained (blocking policy)"),
    );
    report.check(
        first.tail_loss.is_finite() && first.snapshots >= 2,
        &format!("{label}: finite loss, at least two snapshots published"),
    );
    report.check(
        runs.iter().all(|r| &r.counts == first),
        &format!(
            "{label}: deterministic counts repeat exactly across {} runs",
            runs.len()
        ),
    );
    if runs.iter().any(|r| &r.counts != first) {
        for r in runs {
            println!("  counts {:?}", r.counts);
        }
    }
}

/// Peak memory of the whole workload: live heap (gated) and resident set.
fn report_memory(report: &mut Report) {
    report.e2e(
        "peak_heap_mib",
        "MiB",
        &[resources::peak_heap_mib()],
        Some("peak_heap_mib"),
    );
    report.e2e("peak_rss_mib", "MiB", &[resources::peak_rss_mib()], None);
}

/// Set-up time: `setup_s` is the median steal-adjusted wall time of the
/// set-up repeats; wall and CPU times are printed beside it.
fn report_setup(report: &mut Report, setup: &[Timing]) {
    let each = |f: fn(&Timing) -> f64| setup.iter().map(f).collect::<Vec<f64>>();
    report.e2e("setup_wall_s", "s", &each(|t| t.wall_s), None);
    report.e2e("setup_cpu_s", "s", &each(|t| t.cpu_s), None);
    report.e2e("setup_s", "s", &each(Timing::avail_s), Some("setup_s"));
}

/// The gated throughput, `work` per available second over `timing`,
/// with the wall-clock and CPU figures and the host's steal printed.
fn report_throughput(
    report: &mut Report,
    name: &'static str,
    work: f64,
    timing: &Timing,
    per_run: &[f64],
) {
    report.e2e_value(
        name,
        "1/s",
        work / timing.avail_s(),
        per_run,
        Some("work_per_s"),
    );
    println!(
        "      over {:.2} s wall: {:.4}/s wall-clock, {:.4}/cpu_s, host steal {:.1}%",
        timing.wall_s,
        work / timing.wall_s,
        work / timing.cpu_s,
        timing.steal * 100.0
    );
}

fn learning(args: &Args, report: &mut Report) {
    let cfg = match args.workload {
        Workload::Learn1x1 => learn_config(args.seed),
        _ => stream_config(args.seed),
    };
    // Set-up: short warm-up runs of the same workflow (thread start-up,
    // allocator and page-cache warm-up, lazy initialisation).
    let mut warm = cfg.clone();
    warm.total_steps = 8 * cfg.steps_per_sample;
    let setup: Vec<Timing> = (0..SETUP_REPEATS)
        .map(|_| {
            let (run, timing) = timed(|| run_program(&warm, true));
            report.check(
                run.accounting_ok,
                "set-up: warm-up run accounted for every window",
            );
            timing
        })
        .collect();

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let runs = repeat(untraced_seconds, if args.trace { 1 } else { 3 }, || {
        run_program(&cfg, true)
    });
    check_runs(report, "untraced", &runs);
    println!("counts {:?}", runs[0].counts);
    report.attempted = runs.iter().map(|r| r.counts.windows_published).sum();
    report.failed = runs.iter().map(WorkflowRun::failed_windows).sum();
    let (windows, timing) = totals(&runs);

    if !args.trace {
        let per_run: Vec<f64> = runs.iter().map(WorkflowRun::windows_per_avail_s).collect();
        let rates: Vec<f64> = runs.iter().map(WorkflowRun::windows_per_s).collect();
        let intervals: Vec<f64> = runs.iter().flat_map(|r| r.refresh_ms.clone()).collect();
        let tail: Vec<f64> = runs.iter().map(|r| r.counts.tail_loss).collect();
        report_throughput(report, "windows_per_avail_s", windows, &timing, &per_run);
        report.e2e("windows_per_s", "1/s", &rates, None);
        report.pooled("refresh_p50_ms", &intervals, 50.0);
        report.pooled("refresh_p90_ms", &intervals, 90.0);
        report.e2e("tail_loss", "loss", &tail, Some("tail_loss"));
        report_setup(report, &setup);
        report_memory(report);
        return;
    }

    // Traced: the composed pipeline, spans on.
    let tracer = Arc::new(Tracer::new(true));
    let mut last: Option<(Learner, Arc<as_serve::InferenceEngine>)> = None;
    let traced: Vec<WorkflowRun> = repeat(args.seconds / 2.0, 1, || {
        let engine = as_serve::InferenceEngine::start(serve_engine_config());
        let sink = BenchSink::new(Some(Arc::clone(&engine)), Arc::clone(&tracer));
        let (mut out, timing) = timed(|| run_composed(&cfg, Some(sink.clone()), &tracer));
        let run = composed_run(&out, timing, sink.take_log());
        engine.shutdown();
        last = Some((out.consumers.swap_remove(0).learner, engine));
        run
    });
    check_runs(report, "traced", &traced);
    report.check(
        traced.iter().all(|r| r.counts == runs[0].counts),
        "traced and untraced runs did the same work (equal deterministic counts, loss and parameter hash)",
    );
    if traced[0].counts != runs[0].counts {
        println!("counts {:?}", traced[0].counts);
    }
    let (mut learner, engine) = last.expect("at least one traced run");
    alloc_probe(report, &cfg, &mut learner);
    let lg = loadgen_config(args.seed, cfg.model.spectrum_dim);
    forward_probe(&engine, &lg, FORWARD_PROBE_CALLS, &tracer);
    let summary = SpanSummary::new(tracer.spans());
    pipeline_layers(report, &summary, &tracer, &cfg, &runs, &traced);
    let serve = engine.report();
    serve_layers(
        report,
        &summary,
        serve.cache_hit_rate(),
        serve.mean_batch(),
        serve.queue_full_waits,
    );
    let (traced_windows, traced_timing) = totals(&traced);
    report.layer(
        "trace.overhead_pct",
        "%",
        overhead_pct(
            windows / timing.avail_s(),
            traced_windows / traced_timing.avail_s(),
        ),
        true,
    );
    write_trace(args, &summary);
}

/// Windows trained and the summed timing of `runs`.
fn totals(runs: &[WorkflowRun]) -> (f64, Timing) {
    let mut timing = Timing::default();
    for r in runs {
        timing.add(r.timing);
    }
    let windows: u64 = runs.iter().map(|r| r.counts.windows_trained).sum();
    (windows as f64, timing)
}

/// Tracing overhead: how much longer the traced run took per unit of
/// work than the untraced one, in percent.
fn overhead_pct(untraced_rate: f64, traced_rate: f64) -> f64 {
    (untraced_rate / traced_rate - 1.0) * 100.0
}

/// Allocations of isolated learner steps (zero_grad, forward/backward,
/// Adam) on the trained learner, with nothing else running.
fn alloc_probe(report: &mut Report, cfg: &as_core::config::WorkflowConfig, l: &mut Learner) {
    if !l.buffer.ready() {
        report.check(false, "allocation probe: learner buffer ready");
        return;
    }
    let batches: Vec<_> = (0..ALLOC_PROBE_STEPS)
        .map(|_| as_core::encode::batch_to_tensors(&l.buffer.sample_batch(), &cfg.model))
        .collect();
    let ((), n, bytes) = resources::counted(|| {
        for (points, spectra) in &batches {
            l.model.zero_grad();
            l.model
                .accumulate_gradients(points, spectra, &mut l.train_rng);
            l.opt.step(&mut l.model);
        }
    });
    let steps = ALLOC_PROBE_STEPS as f64;
    report.layer("nn.allocs_per_step", "count", n as f64 / steps, true);
    report.layer(
        "nn.alloc_mib_per_step",
        "MiB",
        bytes as f64 / steps / (1024.0 * 1024.0),
        true,
    );
}

/// Per-layer metrics of the producer → staging → learner pipeline.
fn pipeline_layers(
    report: &mut Report,
    s: &SpanSummary,
    tr: &Tracer,
    cfg: &as_core::config::WorkflowConfig,
    untraced: &[WorkflowRun],
    traced: &[WorkflowRun],
) {
    let c = &traced[0].counts;
    let n_traced = traced.len() as f64;
    let stall_s = tr.counter("staging.stall_s");
    let producer_wall: f64 =
        traced.iter().map(|r| r.timing.wall_s).sum::<f64>() * cfg.producers as f64;
    let publishes = s.count("staging.publish") as f64;
    report.layer("pic.step_ms", "ms", s.mean_ms("pic.step"), true);
    report.layer("radiation.step_ms", "ms", s.mean_ms("radiation.step"), true);
    report.layer("pic.comm_bytes", "B", c.pic_comm_bytes as f64, true);
    report.layer(
        "pic.comm_messages",
        "count",
        c.pic_comm_messages as f64,
        true,
    );
    report.layer("pic.comm_model_s", "s", c.pic_comm_model_s, false);
    report.layer(
        "staging.publish_ms",
        "ms",
        (s.total_ms("staging.publish") - stall_s * 1e3) / publishes,
        true,
    );
    report.layer("staging.stall_s", "s", stall_s / n_traced, false);
    report.layer(
        "staging.stall_pct",
        "%",
        100.0 * stall_s / producer_wall,
        true,
    );
    report.layer(
        "staging.fetch_ms",
        "ms",
        s.total_ms("staging.fetch") / s.count("encode.window") as f64,
        true,
    );
    report.layer(
        "staging.fetch_wait_ms",
        "ms",
        s.mean_ms("staging.fetch_wait"),
        true,
    );
    report.layer("staging.wire_bytes", "B", c.staging_wire_bytes as f64, true);
    report.layer("staging.model_s", "s", c.staging_model_s, false);
    report.layer(
        "encode.window_ms",
        "ms",
        s.mean_self_ms("encode.window"),
        true,
    );
    report.layer("encode.samples", "count", c.samples as f64, true);
    report.layer("replay.sample_ms", "ms", s.mean_ms("replay.sample"), true);
    report.layer("nn.train_step_ms", "ms", s.mean_ms("nn.train_step"), true);
    report.layer("nn.fwd_bwd_ms", "ms", s.mean_ms("nn.fwd_bwd"), true);
    report.layer("nn.adam_ms", "ms", s.mean_ms("nn.adam"), true);
    report.layer("ddp.sync_ms", "ms", s.mean_ms("ddp.sync"), false);
    report.layer("ddp.comm_bytes", "B", c.ddp_comm_bytes as f64, true);
    report.layer(
        "ddp.comm_messages",
        "count",
        c.ddp_comm_messages as f64,
        true,
    );
    report.layer("ddp.comm_model_s", "s", c.ddp_comm_model_s, false);
    report.layer(
        "snapshot.capture_ms",
        "ms",
        s.mean_ms("snapshot.capture"),
        true,
    );
    report.layer(
        "snapshot.payload_bytes",
        "B",
        c.snapshot_payload_bytes as f64,
        true,
    );
    let field = |f: fn(&WorkflowRun) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    report.layer("producer.sim_s", "s", field(|r| r.sim_s), true);
    report.layer("producer.emit_s", "s", field(|r| r.emit_s), true);
    report.layer("consumer.train_s", "s", field(|r| r.train_s), true);
}

fn serve_layers(report: &mut Report, s: &SpanSummary, hit_rate: f64, mean_batch: f64, waits: u64) {
    report.layer("serve.install_ms", "ms", s.mean_ms("serve.install"), true);
    report.layer("serve.forward_ms", "ms", s.mean_ms("serve.forward"), true);
    report.layer("serve.cache_hit_rate", "ratio", hit_rate, true);
    report.layer("serve.mean_batch", "rows", mean_batch, true);
    report.layer("serve.queue_full_waits", "count", waits as f64, true);
}

/// Keep the spans: one TSV per traced run under the build directory.
fn write_trace(args: &Args, s: &SpanSummary) {
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
    )
    .join("perfbench-traces");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, s.to_tsv())) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => println!("trace not written ({e})"),
    }
}

fn serving(args: &Args, report: &mut Report) {
    let lcfg = serve_learner_config(args.seed);
    let mut setup = Vec::new();
    let learner_runs: Vec<WorkflowRun> = (0..SETUP_REPEATS)
        .map(|_| {
            let (run, timing) = timed(|| run_program(&lcfg, false));
            setup.push(timing);
            run
        })
        .collect();
    check_runs(report, "set-up learner", &learner_runs);
    println!("counts {:?}", learner_runs[0].counts);
    let snaps = &learner_runs[0].kept;
    let lg = loadgen_config(args.seed, lcfg.model.spectrum_dim);

    let serve_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let run = serve_phase(snaps, &lg, serve_seconds, &Tracer::new(false));
    check_serve(report, "untraced", &run);
    report.attempted = run.queries;
    report.failed = run.failed;

    if !args.trace {
        let tail = learner_runs[0].counts.tail_loss;
        report_throughput(
            report,
            "answers_per_avail_s",
            run.verified as f64,
            &run.timing,
            &run.segment_per_avail_s,
        );
        report.e2e("serve_qps", "1/s", &run.segment_qps, None);
        for (name, p) in [
            ("serve_p50_ms", 50.0),
            ("serve_p90_ms", 90.0),
            ("serve_p99_ms", 99.0),
        ] {
            report.pooled(name, &run.latencies_ms, p);
        }
        println!(
            "      mean batch {:.3} rows, cache hit rate {:.3}",
            run.mean_batch, run.cache_hit_rate
        );
        report.e2e("tail_loss", "loss", &[tail], Some("tail_loss"));
        report_setup(report, &setup);
        report_memory(report);
        return;
    }

    // Traced: the set-up learner once more through the composed pipeline,
    // then a traced serve phase.
    let tracer = Arc::new(Tracer::new(true));
    let sink = BenchSink::new(None, Arc::clone(&tracer));
    let (mut out, timing) = timed(|| run_composed(&lcfg, Some(sink.clone()), &tracer));
    let composed = composed_run(&out, timing, sink.take_log());
    report.check(
        composed.counts == learner_runs[0].counts && composed.accounting_ok,
        "traced and untraced set-up learners did the same work (equal deterministic counts, loss and parameter hash)",
    );
    if composed.counts != learner_runs[0].counts {
        println!("counts {:?}", composed.counts);
    }
    let mut learner = out.consumers.swap_remove(0).learner;
    alloc_probe(report, &lcfg, &mut learner);
    let traced = serve_phase(snaps, &lg, args.seconds / 2.0, &tracer);
    check_serve(report, "traced", &traced);
    report.attempted += traced.queries;
    report.failed += traced.failed;
    forward_probe(&traced.engine, &lg, FORWARD_PROBE_CALLS, &tracer);
    let summary = SpanSummary::new(tracer.spans());
    pipeline_layers(report, &summary, &tracer, &lcfg, &learner_runs, &[composed]);
    serve_layers(
        report,
        &summary,
        traced.cache_hit_rate,
        traced.mean_batch,
        traced.queue_full_waits,
    );
    let rate = |r: &ServeRun| r.verified as f64 / r.timing.avail_s();
    report.layer(
        "trace.overhead_pct",
        "%",
        overhead_pct(rate(&run), rate(&traced)),
        true,
    );
    write_trace(args, &summary);
}

fn check_serve(report: &mut Report, label: &str, run: &ServeRun) {
    report.check(
        run.failed == 0,
        &format!(
            "{label}: {} queries, zero mismatches against posterior_reference, monotone versions per client",
            run.queries
        ),
    );
    report.check(
        run.mid_traffic_swaps >= 2 && run.versions_seen.len() >= 3,
        &format!(
            "{label}: at least 2 mid-traffic swaps ({} installs, {} versions answered)",
            run.mid_traffic_swaps,
            run.versions_seen.len()
        ),
    );
}
