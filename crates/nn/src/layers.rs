//! Neural-network layers with exact manual backward passes.
//!
//! Every layer follows the same contract:
//! `forward(&self, x) -> (y, Ctx)` is pure w.r.t. the layer (parameters are
//! read-only), and `backward(&mut self, dy, &Ctx) -> dx` **accumulates**
//! parameter gradients (`g* += …`). Accumulation (rather than overwrite) is
//! what lets the INN call its subnets once in the forward direction and once
//! in the inverse direction per training step.
//!
//! A context holds what the backward pass reads by move, never by copy:
//! [`Linear::forward`] takes its input by value and keeps it in the
//! [`LinearCtx`]. Activations have no context. They run in place on the
//! tensor they are given, and their backward reads the activation's
//! *output*, which the caller already holds, usually as the next layer's
//! input.

use crate::init;
use crate::optim::ParamVisitor;
use as_tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor, TensorRng};

/// Fully-connected layer `y = x·W + b` with `W:[in,out]`, acting on
/// row-batches `x:[n,in]`.
pub struct Linear {
    /// Weights, `[fan_in, fan_out]`.
    pub w: Tensor,
    /// Bias, `[fan_out]`.
    pub b: Tensor,
    /// Weight gradient accumulator.
    pub gw: Tensor,
    /// Bias gradient accumulator.
    pub gb: Tensor,
}

/// Backward context of a [`Linear`]: the input batch, moved in.
pub struct LinearCtx {
    x: Tensor,
}

impl LinearCtx {
    /// The input the layer was applied to.
    pub(crate) fn input(&self) -> &Tensor {
        &self.x
    }
}

/// How to initialise a [`Linear`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitKind {
    /// He uniform (for ReLU-family nets).
    Kaiming,
    /// Glorot uniform (for linear/tanh outputs).
    Xavier,
    /// Near-zero (identity-like flows).
    NearZero,
}

impl Linear {
    /// New layer with the given fan-in/out and initialisation.
    pub fn new(rng: &mut TensorRng, fan_in: usize, fan_out: usize, kind: InitKind) -> Self {
        let w = match kind {
            InitKind::Kaiming => init::kaiming_uniform(rng, fan_in, fan_out),
            InitKind::Xavier => init::xavier_uniform(rng, fan_in, fan_out),
            InitKind::NearZero => init::near_zero(rng, fan_in, fan_out),
        };
        Self {
            gw: Tensor::zeros([fan_in, fan_out]),
            gb: Tensor::zeros([fan_out]),
            b: Tensor::zeros([fan_out]),
            w,
        }
    }

    /// Input feature count.
    pub fn fan_in(&self) -> usize {
        self.w.dims()[0]
    }

    /// Output feature count.
    pub fn fan_out(&self) -> usize {
        self.w.dims()[1]
    }

    /// `y = x·W + b` for `x:[n,in]`; `x` moves into the context.
    pub fn forward(&self, x: Tensor) -> (Tensor, LinearCtx) {
        assert_eq!(x.dims().len(), 2, "Linear expects [n, fan_in]");
        assert_eq!(x.dims()[1], self.fan_in(), "Linear fan_in mismatch");
        let mut y = matmul(&x, &self.w);
        let out = self.fan_out();
        for row in y.data_mut().chunks_exact_mut(out) {
            for (v, &bv) in row.iter_mut().zip(self.b.data()) {
                *v += bv;
            }
        }
        (y, LinearCtx { x })
    }

    /// Accumulate `gw += xᵀ·dy`, `gb += Σ dy`, return `dx = dy·Wᵀ`.
    pub fn backward(&mut self, dy: &Tensor, ctx: &LinearCtx) -> Tensor {
        assert_eq!(dy.dims()[1], self.fan_out(), "Linear dy mismatch");
        let gw = matmul_at_b(&ctx.x, dy);
        self.gw.add_assign(&gw);
        let out = self.fan_out();
        for row in dy.data().chunks_exact(out) {
            for (g, &d) in self.gb.data_mut().iter_mut().zip(row) {
                *g += d;
            }
        }
        matmul_a_bt(dy, &self.w)
    }

    /// Visit `(param, grad)` pairs.
    pub fn visit(&mut self, v: &mut dyn ParamVisitor) {
        v.visit(&mut self.w, &mut self.gw);
        v.visit(&mut self.b, &mut self.gb);
    }

    /// Zero the gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.gw.data_mut().fill(0.0);
        self.gb.data_mut().fill(0.0);
    }
}

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// `max(x, αx)` with slope `0 ≤ α < 1`.
    LeakyRelu(f32),
    /// Hyperbolic tangent.
    Tanh,
    /// `ln(1 + eˣ)` (used for strictly-positive σ heads).
    Softplus,
    /// Identity (keeps MLP code uniform).
    Identity,
}

impl Activation {
    /// Apply elementwise, in place on `x`.
    pub fn forward(self, mut x: Tensor) -> Tensor {
        match self {
            Activation::LeakyRelu(a) => x.map_inplace(|v| if v > 0.0 { v } else { a * v }),
            Activation::Tanh => x.map_inplace(f32::tanh),
            Activation::Softplus => x.map_inplace(softplus),
            Activation::Identity => {}
        }
        x
    }

    /// Chain rule through the activation, in place on `dy`, given the
    /// activation's output `y` (what [`Activation::forward`] returned).
    pub fn backward(self, mut dy: Tensor, y: &[f32]) -> Tensor {
        assert_eq!(dy.numel(), y.len(), "activation gradient/output mismatch");
        let d = dy.data_mut();
        match self {
            // For α ≥ 0, `y > 0` exactly where `x > 0`.
            Activation::LeakyRelu(a) => {
                for (d, &y) in d.iter_mut().zip(y) {
                    *d = if y > 0.0 { *d } else { *d * a };
                }
            }
            // `1 − y²` is bitwise the `1 − tanh(x)²` computed from `x`.
            Activation::Tanh => {
                for (d, &y) in d.iter_mut().zip(y) {
                    *d *= 1.0 - y * y;
                }
            }
            // σ(x) = 1 − e^(−y) for y = ln(1 + eˣ).
            Activation::Softplus => {
                for (d, &y) in d.iter_mut().zip(y) {
                    *d *= -(-y).exp_m1();
                }
            }
            Activation::Identity => {}
        }
        dy
    }
}

fn softplus(x: f32) -> f32 {
    // Overflow-safe: ln(1+e^x) = max(x,0) + ln(1+e^-|x|).
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// Multi-layer perceptron: Linear → act → … → Linear (+ optional final act).
pub struct Mlp {
    layers: Vec<Linear>,
    act: Activation,
    final_act: Activation,
}

/// Backward context of an [`Mlp`]. A hidden activation's output is the
/// next layer's input, so only a non-identity final activation keeps its
/// own copy of the output.
pub struct MlpCtx {
    lin: Vec<LinearCtx>,
    fin: Option<Tensor>,
}

impl Mlp {
    /// Build from a width list `[in, h1, …, out]`.
    pub fn new(
        rng: &mut TensorRng,
        widths: &[usize],
        act: Activation,
        final_act: Activation,
        last_init: InitKind,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let n = widths.len() - 1;
        let layers = (0..n)
            .map(|i| {
                let kind = if i + 1 == n {
                    last_init
                } else {
                    InitKind::Kaiming
                };
                Linear::new(rng, widths[i], widths[i + 1], kind)
            })
            .collect();
        Self {
            layers,
            act,
            final_act,
        }
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.layers.last().expect("nonempty").fan_out()
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.layers.first().expect("nonempty").fan_in()
    }

    /// Forward through all layers.
    pub fn forward(&self, x: &Tensor) -> (Tensor, MlpCtx) {
        let mut cur = x.clone();
        let mut lin = Vec::with_capacity(self.layers.len());
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let (y, c) = layer.forward(cur);
            lin.push(c);
            cur = if i + 1 < n { self.act.forward(y) } else { y };
        }
        let fin = if self.final_act != Activation::Identity {
            cur = self.final_act.forward(cur);
            Some(cur.clone())
        } else {
            None
        };
        (cur, MlpCtx { lin, fin })
    }

    /// Backward through all layers, accumulating gradients.
    pub fn backward(&mut self, dy: &Tensor, ctx: &MlpCtx) -> Tensor {
        let mut cur = dy.clone();
        if let Some(y) = &ctx.fin {
            cur = self.final_act.backward(cur, y.data());
        }
        let n = self.layers.len();
        for i in (0..n).rev() {
            if i + 1 < n {
                cur = self.act.backward(cur, ctx.lin[i + 1].input().data());
            }
            cur = self.layers[i].backward(&cur, &ctx.lin[i]);
        }
        cur
    }

    /// Visit all `(param, grad)` pairs.
    pub fn visit(&mut self, v: &mut dyn ParamVisitor) {
        for l in &mut self.layers {
            l.visit(v);
        }
    }

    /// Zero all gradient accumulators.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }
}

/// Max-pool over the point dimension: `[b, p, c] → [b, c]`, keeping the
/// winning point index per (batch, channel) for routing gradients back.
/// This is the transposition-invariance step of PointNet.
pub fn max_pool_points(x: &Tensor) -> (Tensor, Vec<usize>) {
    let d = x.dims();
    assert_eq!(d.len(), 3, "max_pool_points expects [b, p, c]");
    let (b, p, c) = (d[0], d[1], d[2]);
    assert!(p > 0, "cannot pool over zero points");
    let mut out = Tensor::full([b, c], f32::NEG_INFINITY);
    let mut arg = vec![0usize; b * c];
    let xd = x.data();
    for bi in 0..b {
        for pi in 0..p {
            let base = (bi * p + pi) * c;
            for ci in 0..c {
                let v = xd[base + ci];
                let o = bi * c + ci;
                if v > out.data()[o] {
                    out.data_mut()[o] = v;
                    arg[o] = pi;
                }
            }
        }
    }
    (out, arg)
}

/// Backward of [`max_pool_points`]: route `dy:[b,c]` to the argmax points of
/// an input of shape `[b, p, c]`.
pub fn max_pool_points_backward(dy: &Tensor, arg: &[usize], p: usize) -> Tensor {
    let d = dy.dims();
    assert_eq!(d.len(), 2, "dy must be [b, c]");
    let (b, c) = (d[0], d[1]);
    let mut dx = Tensor::zeros([b, p, c]);
    for bi in 0..b {
        for ci in 0..c {
            let pi = arg[bi * c + ci];
            dx.data_mut()[(bi * p + pi) * c + ci] += dy.data()[bi * c + ci];
        }
    }
    dx
}

/// Central-difference gradient check of a scalar function of a tensor.
/// Exposed crate-wide for the gradient tests of higher-level modules.
#[cfg(test)]
pub(crate) fn finite_diff_check(
    f: &mut dyn FnMut(&Tensor) -> f64,
    x: &Tensor,
    analytic: &Tensor,
    eps: f32,
    tol: f64,
) {
    for i in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let num = (f(&xp) - f(&xm)) / (2.0 * eps as f64);
        let ana = analytic.data()[i] as f64;
        let scale = num.abs().max(ana.abs()).max(1e-4);
        assert!(
            (num - ana).abs() / scale < tol,
            "grad mismatch at {i}: numeric {num}, analytic {ana}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = TensorRng::seeded(0);
        let mut l = Linear::new(&mut rng, 2, 2, InitKind::Xavier);
        l.w = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]);
        l.b = Tensor::from_slice(&[10., 20.]);
        let x = Tensor::from_vec([1, 2], vec![1., 1.]);
        let (y, _) = l.forward(x);
        assert_eq!(y.data(), &[14., 26.]);
    }

    #[test]
    fn linear_input_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(1);
        let l = Linear::new(&mut rng, 3, 4, InitKind::Xavier);
        let x = rng.standard_normal([2, 3]);
        // Loss = sum(y²)/2 so dL/dy = y.
        let (y, ctx) = l.forward(x.clone());
        let mut l2 = Linear {
            w: l.w.clone(),
            b: l.b.clone(),
            gw: Tensor::zeros([3, 4]),
            gb: Tensor::zeros([4]),
        };
        let dx = l2.backward(&y, &ctx);
        let mut f = |xt: &Tensor| {
            let (y, _) = l.forward(xt.clone());
            0.5 * y.sq_norm()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-2, 2e-2);
    }

    #[test]
    fn linear_weight_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(2);
        let mut l = Linear::new(&mut rng, 3, 2, InitKind::Xavier);
        let x = rng.standard_normal([4, 3]);
        let (y, ctx) = l.forward(x.clone());
        l.zero_grad();
        let _ = l.backward(&y, &ctx);
        let w0 = l.w.clone();
        let gw = l.gw.clone();
        let mut f = |wt: &Tensor| {
            let probe = Linear {
                w: wt.clone(),
                b: l.b.clone(),
                gw: Tensor::zeros([3, 2]),
                gb: Tensor::zeros([2]),
            };
            let (y, _) = probe.forward(x.clone());
            0.5 * y.sq_norm()
        };
        finite_diff_check(&mut f, &w0, &gw, 1e-2, 2e-2);
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = TensorRng::seeded(3);
        let mut l = Linear::new(&mut rng, 2, 2, InitKind::Xavier);
        let x = rng.standard_normal([1, 2]);
        let (y, ctx) = l.forward(x);
        l.zero_grad();
        let _ = l.backward(&y, &ctx);
        let once = l.gw.clone();
        let _ = l.backward(&y, &ctx);
        let twice = l.gw.clone();
        for (a, b) in once.data().iter().zip(twice.data()) {
            assert!((2.0 * a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn activations_match_finite_difference() {
        let mut rng = TensorRng::seeded(4);
        let x = rng.standard_normal([10]).reshape([2, 5]);
        for act in [
            Activation::LeakyRelu(0.01),
            Activation::Tanh,
            Activation::Softplus,
            Activation::Identity,
        ] {
            let y = act.forward(x.clone());
            let dx = act.backward(y.clone(), y.data());
            let mut f = |xt: &Tensor| {
                let y = act.forward(xt.clone());
                0.5 * y.sq_norm()
            };
            finite_diff_check(&mut f, &x, &dx, 1e-3, 5e-2);
        }
    }

    #[test]
    fn softplus_is_overflow_safe() {
        let x = Tensor::from_slice(&[-100.0, 0.0, 100.0]);
        let y = Activation::Softplus.forward(x);
        assert!(y.all_finite());
        assert!((y.data()[2] - 100.0).abs() < 1e-3);
        assert!(y.data()[0] >= 0.0 && y.data()[0] < 1e-6);
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let mut rng = TensorRng::seeded(5);
        let mlp = Mlp::new(
            &mut rng,
            &[3, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            InitKind::Xavier,
        );
        let x = rng.standard_normal([4, 3]);
        let (y, ctx) = mlp.forward(&x);
        let mut probe = Mlp::new(
            &mut TensorRng::seeded(5),
            &[3, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            InitKind::Xavier,
        );
        let dx = probe.backward(&y, &ctx);
        let mut f = |xt: &Tensor| {
            let (y, _) = mlp.forward(xt);
            0.5 * y.sq_norm()
        };
        finite_diff_check(&mut f, &x, &dx, 1e-2, 3e-2);
    }

    #[test]
    fn max_pool_selects_max_and_routes_gradient() {
        // [1 batch, 3 points, 2 channels]
        let x = Tensor::from_vec([1, 3, 2], vec![1., 9., 5., 2., 3., 4.]);
        let (y, arg) = max_pool_points(&x);
        assert_eq!(y.data(), &[5., 9.]);
        assert_eq!(arg, vec![1, 0]);
        let dy = Tensor::from_vec([1, 2], vec![10., 20.]);
        let dx = max_pool_points_backward(&dy, &arg, 3);
        assert_eq!(dx.data(), &[0., 20., 10., 0., 0., 0.]);
    }

    #[test]
    fn max_pool_is_transposition_invariant() {
        let mut rng = TensorRng::seeded(6);
        let x = rng.standard_normal([2, 5, 3]);
        let (y, _) = max_pool_points(&x);
        // Reverse the point order.
        let mut rev = Tensor::zeros([2, 5, 3]);
        for b in 0..2 {
            for p in 0..5 {
                for c in 0..3 {
                    *rev.at_mut(&[b, 4 - p, c]) = x.at(&[b, p, c]);
                }
            }
        }
        let (y2, _) = max_pool_points(&rev);
        assert_eq!(y, y2);
    }
}
