//! Timing helpers for the per-layer figures, shared by the workloads.

use std::hint::black_box;
use std::time::Instant;

use rtpool_core::TaskSet;

/// Runs `f` once and returns its wall time in microseconds with its
/// result (passed through `black_box` so the work is not optimised out).
pub fn time_us<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = black_box(f());
    (start.elapsed().as_secs_f64() * 1e6, out)
}

/// Time of the first `reachability`, `delay_profile` and
/// `max_blocking_antichain` calls on every graph of a freshly built set:
/// the derived-cache fill.
#[must_use]
pub fn derive_us(set: &TaskSet) -> f64 {
    time_us(|| {
        for (_, task) in set.iter() {
            let dag = task.dag();
            black_box(dag.reachability());
            black_box(dag.delay_profile());
            black_box(dag.max_blocking_antichain());
        }
    })
    .0
}
