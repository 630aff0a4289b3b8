//! Matrix multiplication kernels.
//!
//! Three variants cover every contraction the model's forward and backward
//! passes need:
//! - [`matmul`]       — `C = A·B`    for `A:[m,k] B:[k,n]`
//! - [`matmul_a_bt`]  — `C = A·Bᵀ`   for `A:[m,k] B:[n,k]`
//! - [`matmul_at_b`]  — `C = Aᵀ·B`   for `A:[k,m] B:[k,n]`
//!
//! All three run one register-blocked kernel. The output is cut into tiles
//! of `MR` = 4 rows × `NR` = 8 columns; a tile's accumulators stay in
//! registers while the `p` loop walks the inner dimension, reading `MR`
//! values of `A` and one contiguous `NR`-wide row of `B` per step. `A` is addressed
//! through strides, so `Aᵀ·B` reads its transposed operand in place;
//! `A·Bᵀ` transposes `B` (a weight matrix in every caller) once per call.
//!
//! Every output element is `0.0` plus the products `a·b` added in
//! increasing `p` order, the order of a naive dot product. Rust never
//! contracts these into fused multiply-adds, so the result does not
//! depend on the tiling and is reproducible bit for bit.
//!
//! The kernels are serial. The largest products of a training step (the
//! PointNet encoder's 2048×32×64) take about 0.4 ms each, and splitting
//! the tile rows across the rayon shim's per-call threads did not pay:
//! the row-parallel kernel won 1 of 5 paired learn_1x1 benchmark runs
//! against this one (2 vCPU host).

use crate::tensor::Tensor;

/// Rows of an output tile.
const MR: usize = 4;
/// Columns of an output tile.
const NR: usize = 8;

/// `C = A·B` with `A:[m,k]`, `B:[k,n]` → `C:[m,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (kb, n) = mat_dims(b, "B");
    assert_eq!(k, kb, "matmul inner dimensions differ: {k} vs {kb}");
    gemm(m, n, k, Lhs::rows(a.data(), k), b.data())
}

/// `C = A·Bᵀ` with `A:[m,k]`, `B:[n,k]` → `C:[m,n]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (n, kb) = mat_dims(b, "B");
    assert_eq!(k, kb, "matmul_a_bt inner dimensions differ: {k} vs {kb}");
    let bt = b.transpose2();
    gemm(m, n, k, Lhs::rows(a.data(), k), bt.data())
}

/// `C = Aᵀ·B` with `A:[k,m]`, `B:[k,n]` → `C:[m,n]` (this is the
/// weight-gradient contraction `dW = Xᵀ·dY`).
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = mat_dims(a, "A");
    let (kb, n) = mat_dims(b, "B");
    assert_eq!(k, kb, "matmul_at_b inner dimensions differ: {k} vs {kb}");
    gemm(m, n, k, Lhs::columns(a.data(), m), b.data())
}

/// The left operand: element `(i, p)` is `data[i·row + p·col]`.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row: usize,
    col: usize,
}

impl<'a> Lhs<'a> {
    /// Row-major `[m, k]`.
    fn rows(data: &'a [f32], k: usize) -> Self {
        Self {
            data,
            row: k,
            col: 1,
        }
    }

    /// The transpose of a row-major `[k, m]`.
    fn columns(data: &'a [f32], m: usize) -> Self {
        Self {
            data,
            row: 1,
            col: m,
        }
    }
}

/// `C[m,n] = A[m,k]·B[k,n]` with `B` row-major.
fn gemm(m: usize, n: usize, k: usize, a: Lhs, b: &[f32]) -> Tensor {
    let mut out = Tensor::zeros([m, n]);
    if k == 0 {
        return out;
    }
    let full = n - n % NR;
    // The columns past the last full tile, zero-padded to one `NR` panel.
    let tail: Vec<f32> = if full < n {
        let mut panel = vec![0.0f32; k * NR];
        for (dst, src) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
            dst[..n - full].copy_from_slice(&src[full..]);
        }
        panel
    } else {
        Vec::new()
    };
    let c = out.data_mut();
    let mut i = 0;
    while i < m {
        let rows = (m - i).min(MR);
        let block = &mut c[i * n..(i + rows) * n];
        match rows {
            MR => row_block::<MR>(block, n, k, a, i, b, &tail),
            3 => row_block::<3>(block, n, k, a, i, b, &tail),
            2 => row_block::<2>(block, n, k, a, i, b, &tail),
            _ => row_block::<1>(block, n, k, a, i, b, &tail),
        }
        i += rows;
    }
    out
}

/// Rows `i0..i0+R` of `C` (`block`, `R×n`), tile by tile.
fn row_block<const R: usize>(
    block: &mut [f32],
    n: usize,
    k: usize,
    a: Lhs,
    i0: usize,
    b: &[f32],
    tail: &[f32],
) {
    let full = n - n % NR;
    for j in (0..full).step_by(NR) {
        let acc = tile::<R>(a, i0, k, &b[j..], n);
        for (row, acc) in block.chunks_exact_mut(n).zip(&acc) {
            row[j..j + NR].copy_from_slice(acc);
        }
    }
    if full < n {
        let acc = tile::<R>(a, i0, k, tail, NR);
        for (row, acc) in block.chunks_exact_mut(n).zip(&acc) {
            row[full..].copy_from_slice(&acc[..n - full]);
        }
    }
}

/// One `R×NR` tile: `acc[r][c] = Σ_p A(i0+r, p)·b[p·ldb + c]`, summed in
/// increasing `p` from `0.0`.
#[inline(always)]
fn tile<const R: usize>(a: Lhs, i0: usize, k: usize, b: &[f32], ldb: usize) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for p in 0..k {
        let brow: &[f32; NR] = b[p * ldb..p * ldb + NR].try_into().expect("an NR-wide row");
        let av: [f32; R] = std::array::from_fn(|r| a.data[(i0 + r) * a.row + p * a.col]);
        for (acc, &av) in acc.iter_mut().zip(&av) {
            for (o, &bv) in acc.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    acc
}

fn mat_dims(t: &Tensor, name: &str) -> (usize, usize) {
    assert_eq!(
        t.shape().rank(),
        2,
        "{name} must be a matrix, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TensorRng;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::zeros([m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *c.at_mut(&[i, j]) = acc;
            }
        }
        c
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 2], vec![5., 6., 7., 8.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn identity_is_neutral() {
        let mut eye = Tensor::zeros([3, 3]);
        for i in 0..3 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        let a = Tensor::from_vec([3, 3], (0..9).map(|v| v as f32).collect());
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn variants_agree_with_naive_on_random_input() {
        let mut rng = TensorRng::seeded(42);
        for (m, k, n) in [(3, 4, 5), (7, 1, 2), (16, 16, 16)] {
            let a = rng.standard_normal([m, k]);
            let b = rng.standard_normal([k, n]);
            let c = matmul(&a, &b);
            let cn = naive(&a, &b);
            for (x, y) in c.data().iter().zip(cn.data()) {
                assert!((x - y).abs() < 1e-4);
            }
            // A·Bᵀ against naive on transposed B.
            let bt = b.transpose2();
            let c2 = matmul_a_bt(&a, &bt);
            for (x, y) in c2.data().iter().zip(cn.data()) {
                assert!((x - y).abs() < 1e-4);
            }
            // Aᵀ·B against naive on transposed A.
            let at = a.transpose2();
            let c3 = matmul_at_b(&at, &b);
            for (x, y) in c3.data().iter().zip(cn.data()) {
                assert!((x - y).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn large_product_matches_naive() {
        let mut rng = TensorRng::seeded(7);
        let a = rng.standard_normal([256, 64]);
        let b = rng.standard_normal([64, 256]);
        let big = matmul(&a, &b);
        let small = naive(&a, &b);
        for (x, y) in big.data().iter().zip(small.data()) {
            assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        let _ = matmul(&a, &b);
    }
}
