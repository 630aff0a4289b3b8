//! Fig. 6 — parallel streaming throughput at full scale, by data plane.
//!
//! Part 1 runs the *real* staging engine: a KHI producer streams particle
//! data into the no-op consumer of §IV-B over in-memory SST, measuring
//! actual throughput on this machine (5 steps, like the paper's runs).
//!
//! Part 2 evaluates the calibrated data-plane models at the paper's node
//! counts (4096 → 9126), printing the per-node and aggregate boxplot rows
//! of Fig. 6(a) (libfabric) and 6(b) (MPI). The libfabric enqueue-all
//! variant stops at 4096 nodes — it did not scale further in the paper.

use as_bench::{fig6_per_node_samples, format_box_row};
use as_cluster::comm::CommWorld;
use as_core::config::WorkflowConfig;
use as_core::noop::run_noop_consumer;
use as_core::producer::run_producer;
use as_staging::dataplane::{DataPlane, ReadStrategy};
use as_staging::engine::{open_stream, StreamConfig};

fn real_engine_run() {
    println!("-- measured: real SST engine, KHI producer → no-op consumer --");
    let mut cfg = WorkflowConfig::small();
    cfg.total_steps = 10;
    cfg.steps_per_sample = 2; // five emission windows, like the paper
    let stream_cfg = StreamConfig {
        queue_limit: 2,
        ..StreamConfig::default()
    };
    let (mut pw, mut pr) = open_stream(stream_cfg);
    let (mut rw, mut rr) = open_stream(stream_cfg);
    let (pw, rw) = (pw.remove(0), rw.remove(0));
    let cfg2 = cfg.clone();
    let comm = CommWorld::new(1).into_endpoints().remove(0);
    let producer = crossbeam::thread::spawn(move || run_producer(&cfg2, comm, pw, rw));
    let radiation_drain = {
        let rr = rr.remove(0);
        crossbeam::thread::spawn(move || run_noop_consumer(rr))
    };
    let report = run_noop_consumer(pr.remove(0));
    let rad_report = radiation_drain.join().unwrap();
    let prod = producer.join().unwrap();
    println!(
        "  particle stream: {} steps, {:.2} MB total, {:.1} MB/s measured in-process",
        report.steps,
        report.bytes as f64 / 1e6,
        report.mean_throughput() / 1e6
    );
    println!(
        "  radiation stream: {} steps, {:.3} MB total",
        rad_report.steps,
        rad_report.bytes as f64 / 1e6
    );
    println!(
        "  producer: {} PIC steps, {:.2}s simulation, {:.2}s emit ({:.2}s queue stall)",
        prod.steps, prod.sim_seconds, prod.emit_seconds, prod.stall_seconds
    );
}

fn modelled_scaling() {
    println!();
    println!("-- modelled: Fig. 6 boxplots (5.86 GB/node/step, Frontier NICs) --");
    let gb = 5.86e9;
    let trials = 40; // measurements per configuration
    let planes = [
        DataPlane::Libfabric(ReadStrategy::EnqueueAll),
        DataPlane::Libfabric(ReadStrategy::Batched(10)),
        DataPlane::Mpi,
    ];
    for nodes in [4096usize, 8192, 9126] {
        println!("  {nodes} compute nodes:");
        for plane in planes {
            match fig6_per_node_samples(plane, nodes, gb, trials, 42) {
                Some(samples) => {
                    println!(
                        "    {}",
                        format_box_row(&plane.label(), &samples, 1e9, "GB/s/node")
                    );
                    let agg: Vec<f64> = samples.iter().map(|s| s * nodes as f64).collect();
                    println!(
                        "    {}",
                        format_box_row("  └ aggregate", &agg, 1e12, "TB/s ")
                    );
                }
                None => println!(
                    "    {:<28} did not scale to this size (paper: outlier removed / no result)",
                    plane.label()
                ),
            }
        }
    }
    println!();
    println!("  reference bandwidths: Orion PFS 10 TB/s, node-local SSDs 35 TB/s aggregate");
    println!("  paper: max parallel throughput 20-30 TB/s, exceeding the filesystem");
}

fn main() {
    println!("=== Fig. 6: full-scale streaming throughput ===");
    real_engine_run();
    modelled_scaling();
}
