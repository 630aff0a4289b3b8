//! One steady-state learner step must stay within its allocation budget.
//!
//! A counting global allocator sums the bytes requested while armed (a
//! `realloc` counts its new size). One step is `zero_grad` +
//! `accumulate_gradients` + `ModelOptimizer::step` on `ModelConfig::small()`
//! with a batch of 8 clouds × 256 points, the step perfbench's
//! `nn.alloc_mib_per_step` probe measures on `learn_1x1`. Warm-up steps
//! first let Adam allocate its moment buffers.
//!
//! The budget is what the step allocates today, rounded up to a tenth of a
//! MiB. A layer that goes back to copying its input into its backward
//! context, or a kernel that materialises an extra encoder-sized buffer
//! (the 2048×64 activations are 0.5 MiB), breaks it. The CI job
//! `bench-bit-identity` holds perfbench's probe to the same figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use as_nn::model::{ArtificialScientistModel, ModelConfig, ModelOptimizer};
use as_nn::optim::AdamConfig;
use as_tensor::TensorRng;

/// Bytes one steady-state step may allocate.
const BUDGET_MIB: f64 = 2.6;

static ARMED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping is a relaxed statistics counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_step_stays_within_the_allocation_budget() {
    let cfg = ModelConfig::small();
    let mut rng = TensorRng::seeded(4);
    let points = rng.uniform([8, 256, cfg.vae.point_dim], -1.0, 1.0);
    let spectra = rng.uniform([8, cfg.spectrum_dim], 0.0, 1.0);
    let mut model = ArtificialScientistModel::new(cfg, 9);
    let mut opt = ModelOptimizer::new(AdamConfig::default(), 4.0);
    let mut step = |model: &mut ArtificialScientistModel, rng: &mut TensorRng| {
        model.zero_grad();
        let loss = model.accumulate_gradients(&points, &spectra, rng);
        opt.step(model);
        loss
    };
    for _ in 0..2 {
        step(&mut model, &mut rng);
    }

    ARMED.store(true, Ordering::SeqCst);
    let loss = step(&mut model, &mut rng);
    ARMED.store(false, Ordering::SeqCst);

    assert!(loss.total.is_finite());
    let mib = BYTES.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0);
    println!("one learner step allocated {mib:.4} MiB");
    assert!(
        mib <= BUDGET_MIB,
        "one steady-state learner step allocated {mib:.4} MiB, over the \
         {BUDGET_MIB} MiB budget — a per-step buffer is back in the learner"
    );
}
