//! The three matmul variants against a naive reference, bit for bit.
//!
//! The reference computes each output element on its own: `0.0` plus the
//! products `a·b` added in increasing `p` order. The kernels tile the
//! output but keep that per-element order, so they must match it exactly
//! (`to_bits` equality) for every tile remainder, with exact zeros of
//! both signs in the inputs, and at the serve- and encoder-sized shapes.

use as_tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor, TensorRng};

/// `C[i][j] = Σ_p a(i, p)·b(p, j)`, each sum from `0.0` in increasing `p`.
fn reference(
    (m, n, k): (usize, usize, usize),
    a: impl Fn(usize, usize) -> f32,
    b: impl Fn(usize, usize) -> f32,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a(i, p) * b(p, j);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Normal draws with about one value in four replaced by `+0.0` or `-0.0`.
fn operand(rng: &mut TensorRng, rows: usize, cols: usize) -> Tensor {
    let mut t = rng.standard_normal([rows, cols]);
    for v in t.data_mut() {
        match rng.index(8) {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    t
}

fn assert_bits_eq(got: &Tensor, want: &[f32], what: &str) {
    assert_eq!(got.numel(), want.len(), "{what}: size");
    for (idx, (g, w)) in got.data().iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {idx} is {g:e}, reference {w:e}"
        );
    }
}

/// All three variants on one `(m, n, k)` product.
fn check(rng: &mut TensorRng, m: usize, n: usize, k: usize) {
    let a = operand(rng, m, k);
    let b = operand(rng, k, n);
    let (ad, bd) = (a.data(), b.data());
    let want = reference((m, n, k), |i, p| ad[i * k + p], |p, j| bd[p * n + j]);
    let shape = format!("m={m} n={n} k={k}");
    assert_bits_eq(&matmul(&a, &b), &want, &format!("matmul {shape}"));
    assert_bits_eq(
        &matmul_a_bt(&a, &b.transpose2()),
        &want,
        &format!("matmul_a_bt {shape}"),
    );
    assert_bits_eq(
        &matmul_at_b(&a.transpose2(), &b),
        &want,
        &format!("matmul_at_b {shape}"),
    );
}

#[test]
fn every_tile_remainder_matches_the_reference() {
    let mut rng = TensorRng::seeded(11);
    for m in 1..=9 {
        for n in 1..=17 {
            for k in 0..=5 {
                check(&mut rng, m, n, k);
            }
        }
    }
}

#[test]
fn serve_sized_rows_match_the_reference() {
    // One- and two-row batches through the small model's layer shapes.
    let mut rng = TensorRng::seeded(12);
    for m in 1..=2 {
        for (n, k) in [(32, 64), (32, 32), (48, 24), (32, 16), (64, 32), (6, 16)] {
            check(&mut rng, m, n, k);
        }
    }
}

#[test]
fn encoder_shapes_match_the_reference() {
    // The 32→64 convolution over 8×256 points: forward (2048×32·32×64),
    // input gradient (2048×64·64×32) and weight gradient (32×2048·2048×64).
    let mut rng = TensorRng::seeded(13);
    check(&mut rng, 2048, 64, 32);
    check(&mut rng, 2048, 32, 64);
    check(&mut rng, 32, 64, 2048);
}
