//! Process-level resource probes: a global allocator that tracks live
//! heap bytes and their peak (always) and counts allocations (armed only
//! around the isolated learner-step probe), plus peak resident set size,
//! CPU time and hypervisor steal from `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// Forwards to the system allocator, keeping the counters above.
pub struct CountingAlloc;

fn grow(by: i64) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn count(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping is relaxed statistics counters that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Restart the live-heap peak from the current live bytes.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// Peak live heap bytes since the last reset, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0)
}

/// Run `f` with the allocation counter armed; returns its result and
/// the (allocations, bytes) made by every thread meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNT.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (
        out,
        COUNT.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    )
}

/// Reset the kernel's peak-RSS watermark (`VmHWM`) so the next reading
/// covers only the workload. Ignored where `/proc` does not allow it,
/// leaving the process-lifetime peak, which includes this program's own
/// small start-up footprint only.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in MiB since the last reset.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads, exited ones included) the
/// process has used, from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 14th and 15th fields; the command name in
    // parentheses before them may contain spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// CPU time the hypervisor stole from this virtual machine (all CPUs),
/// in seconds; 0 on a host that does not report it.
fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|x| x.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Wall time, process CPU time and stolen share of one measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
}

impl Timing {
    /// Wall seconds the machine actually ran: the wall time less the
    /// stolen share. Equals the wall time on a host without steal.
    pub fn avail_s(&self) -> f64 {
        self.wall_s * (1.0 - self.steal)
    }

    /// Sum of phases; the steal share is weighted by wall time.
    pub fn add(&mut self, other: Timing) {
        let wall = self.wall_s + other.wall_s;
        self.steal = (self.steal * self.wall_s + other.steal * other.wall_s) / wall;
        self.wall_s = wall;
        self.cpu_s += other.cpu_s;
    }
}

/// Run `f` and measure it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Timing) {
    let (t0, cpu0, steal0) = (std::time::Instant::now(), cpu_seconds(), steal_seconds());
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let timing = Timing {
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
        steal: ((steal_seconds() - steal0) / (wall_s * cpus)).clamp(0.0, 1.0),
    };
    (out, timing)
}
