//! Criterion micro-benchmarks of the building blocks composed by the
//! figure harnesses: PIC kernels, the radiation kernel, the point-cloud
//! losses (the CD-vs-EMD cost claim), tensor contractions, INN coupling
//! blocks, the staging engine and the ring all-reduce.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use as_cluster::comm::CommWorld;
use as_nn::inn::Inn;
use as_nn::loss::{chamfer, mmd_imq, sinkhorn_emd};
use as_pic::grid::GridSpec;
use as_pic::khi::KhiSetup;
use as_pic::tweac::TweacSetup;
use as_radiation::detector::Detector;
use as_radiation::lienard::{ParticleState, RadiationAccumulator};
use as_staging::engine::{open_stream, StreamConfig};
use as_tensor::{matmul, matmul_a_bt, matmul_at_b, TensorRng};

fn bench_pic_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("pic_step");
    g.sample_size(10);
    for ppc in [4usize, 12] {
        let grid = GridSpec::cubic(8, 8, 4, 0.5, 0.5);
        let mut sim = TweacSetup {
            ppc,
            ..TweacSetup::default()
        }
        .build(grid);
        g.bench_with_input(BenchmarkId::new("tweac_8x8x4", ppc), &ppc, |b, _| {
            b.iter(|| {
                sim.step();
                black_box(sim.step_index);
            })
        });
    }
    let grid = GridSpec::cubic(8, 16, 4, 0.5, 0.5);
    let mut sim = KhiSetup {
        ppc: 4,
        ..KhiSetup::default()
    }
    .build(grid);
    g.bench_function("khi_8x16x4_ppc4", |b| {
        b.iter(|| {
            sim.step();
            black_box(sim.step_index);
        })
    });
    g.finish();
}

/// Fused supercell-tiled step vs the seed's push-then-serial-deposit
/// reference, same warm plasma — the microbenchmark behind
/// `fig_step_throughput`.
fn bench_fused_vs_reference(c: &mut Criterion) {
    let mut g = c.benchmark_group("pic_step_pipeline");
    g.sample_size(10);
    let grid = GridSpec::cubic(16, 16, 8, 0.5, 0.5);
    let mut fused = KhiSetup {
        ppc: 8,
        ..KhiSetup::default()
    }
    .build(grid);
    g.bench_function("fused_16x16x8_ppc8", |b| {
        b.iter(|| {
            fused.step();
            black_box(fused.step_index);
        })
    });
    let mut reference = KhiSetup {
        ppc: 8,
        ..KhiSetup::default()
    }
    .build(grid);
    g.bench_function("reference_16x16x8_ppc8", |b| {
        b.iter(|| {
            reference.step_reference();
            black_box(reference.step_index);
        })
    });
    g.finish();
}

fn bench_radiation(c: &mut Criterion) {
    let mut g = c.benchmark_group("radiation_kernel");
    g.sample_size(10);
    let det = Detector::along_x(0.1, 10.0, 32);
    let particles: Vec<ParticleState> = (0..512)
        .map(|i| ParticleState {
            r: [i as f64 * 0.01, 0.0, 0.0],
            beta: [0.2, 0.01, 0.0],
            beta_dot: [0.0, 0.05, 0.0],
            weight: 1.0,
        })
        .collect();
    g.bench_function("accumulate_512p_32f", |b| {
        let mut acc = RadiationAccumulator::new(&det);
        b.iter(|| {
            acc.accumulate(&det, &particles, 1.0, 0.1);
            black_box(acc.n_freqs());
        })
    });
    g.finish();
}

fn bench_losses(c: &mut Criterion) {
    let mut g = c.benchmark_group("losses");
    g.sample_size(10);
    let mut rng = TensorRng::seeded(0);
    let pred = rng.uniform([8, 256, 6], -1.0, 1.0);
    let target = rng.uniform([8, 256, 6], -1.0, 1.0);
    // Footnote 1 of the paper: EMD ≈ 4× CD batch time.
    g.bench_function("chamfer_8x256", |b| {
        b.iter(|| black_box(chamfer(&pred, &target).0))
    });
    g.bench_function("sinkhorn_emd_8x256", |b| {
        b.iter(|| black_box(sinkhorn_emd(&pred, &target, 0.05, 15).0))
    });
    let x = rng.standard_normal([64, 32]);
    let y = rng.standard_normal([64, 32]);
    g.bench_function("mmd_imq_64x32", |b| {
        b.iter(|| black_box(mmd_imq(&x, &y, 1.0).0))
    });
    g.finish();
}

fn bench_tensor(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor");
    g.sample_size(10);
    let mut rng = TensorRng::seeded(1);
    let a = rng.standard_normal([256, 256]);
    let b2 = rng.standard_normal([256, 256]);
    g.bench_function("matmul_256", |b| b.iter(|| black_box(matmul(&a, &b2))));
    // The PointNet encoder's widest 1×1 convolution (32→64 channels over
    // 8×256 points, `ModelConfig::small()`): forward, input gradient and
    // weight gradient.
    let x = rng.standard_normal([2048, 32]);
    let w = rng.standard_normal([32, 64]);
    let dy = rng.standard_normal([2048, 64]);
    g.bench_function("matmul_2048x32x64", |b| {
        b.iter(|| black_box(matmul(&x, &w)))
    });
    g.bench_function("matmul_a_bt_2048x64x32", |b| {
        b.iter(|| black_box(matmul_a_bt(&dy, &w)))
    });
    g.bench_function("matmul_at_b_32x2048x64", |b| {
        b.iter(|| black_box(matmul_at_b(&x, &dy)))
    });
    g.finish();
}

fn bench_inn(c: &mut Criterion) {
    let mut g = c.benchmark_group("inn");
    g.sample_size(10);
    let mut rng = TensorRng::seeded(2);
    let inn = Inn::new(&mut rng, 64, 4, &[48, 48]);
    let x = rng.standard_normal([8, 64]);
    g.bench_function("forward_4blocks_d64", |b| {
        b.iter(|| black_box(inn.forward(&x).0))
    });
    g.bench_function("inverse_4blocks_d64", |b| {
        b.iter(|| black_box(inn.inverse(&x).0))
    });
    g.finish();
}

fn bench_staging(c: &mut Criterion) {
    let mut g = c.benchmark_group("staging");
    g.sample_size(10);
    g.bench_function("step_roundtrip_1mb", |b| {
        b.iter(|| {
            let (mut writers, mut readers) = open_stream(StreamConfig::default());
            let mut w = writers.remove(0);
            let mut r = readers.remove(0);
            let data = vec![1.0f64; 128 * 1024];
            let producer = std::thread::spawn(move || {
                w.begin_step();
                w.put_f64("x", 128 * 1024, 0, &data);
                w.end_step();
                w.close();
            });
            let mut step = r.begin_step().expect("step");
            let v = step.get_f64("x");
            black_box(v.len());
            r.end_step(step);
            producer.join().unwrap();
        })
    });
    g.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce");
    g.sample_size(10);
    for ranks in [2usize, 4] {
        g.bench_with_input(BenchmarkId::new("ring_1m_f32", ranks), &ranks, |b, &n| {
            b.iter(|| {
                let endpoints = CommWorld::new(n).into_endpoints();
                let handles: Vec<_> = endpoints
                    .into_iter()
                    .map(|comm| {
                        std::thread::spawn(move || {
                            let mut buf = vec![comm.rank() as f32; 1 << 20];
                            comm.allreduce_sum_f32(&mut buf);
                            buf[0]
                        })
                    })
                    .collect();
                for h in handles {
                    black_box(h.join().unwrap());
                }
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_pic_step,
    bench_fused_vs_reference,
    bench_radiation,
    bench_losses,
    bench_tensor,
    bench_inn,
    bench_staging,
    bench_allreduce
);
criterion_main!(benches);
