//! The sensor pipeline of `workloads/pipeline.rtp`, run through the
//! **compile-time certification** path: `build.rs` linted the workload
//! with `rtlint --deny warnings --m 6` and emitted the typed module
//! included below — the const task tables plus a zero-sized
//! `DeadlockFree<6, 1>` proof token whose `const` evaluation checked the
//! paper's Lemma 1 floor `m ≥ b̄ + 1`. `ThreadPool::new_static` accepts
//! only such configs, so this binary *cannot* express the Figure 1
//! deadlock: lowering the `m` in build.rs to 1 (or breaking the workload)
//! fails `cargo build`, not the nightly run.
//!
//! ```text
//! cargo run --example certified_pipeline
//! ```

use std::time::Duration;

use rtpool_exec::ThreadPool;

#[allow(dead_code)]
mod certified_pipeline {
    include!(concat!(env!("OUT_DIR"), "/certified_pipeline.rs"));
}
use certified_pipeline as wl;

fn main() {
    println!("== Compile-time certificate ==");
    println!("  source : {}", wl::SOURCE);
    println!(
        "  pool   : m = {} workers (b\u{304} = {}, guaranteed floor l\u{304} = {})",
        wl::M,
        wl::B_BAR,
        wl::L_BAR
    );
    println!(
        "  proof  : DeadlockFree<{}, {}> — checked during `cargo build`",
        wl::PROOF.m(),
        wl::PROOF.b_bar()
    );

    // Infallible by construction: no `m` to get wrong, no lint to re-run.
    let mut pool = ThreadPool::new_static_with(&wl::CONFIG, |c| {
        c.with_time_scale(Duration::from_micros(100))
    });

    println!(
        "\n== Executing the certified tasks on {} real threads ==",
        pool.workers()
    );
    for (i, dag) in wl::CONFIG.dags().iter().enumerate() {
        let report = pool
            .run(dag)
            .expect("a certified workload cannot stall on its certified pool");
        println!(
            "  \u{3c4}{i}: {} nodes, makespan {:?}, min available workers {} (certified \u{2265} {})",
            report.executed_nodes,
            report.makespan,
            report.min_available_workers,
            wl::L_BAR
        );
        assert!(report.min_available_workers >= wl::L_BAR);
    }

    // The typed node handles let application code refer to pipeline
    // stages without stringly-typed lookups.
    println!(
        "\n  capture stage: node `{}` (wcet {}) forks into {} DMA branches",
        wl::task0::NODES[wl::task0::FORK as usize].name,
        wl::task0::NODES[wl::task0::FORK as usize].wcet,
        wl::task0::EDGES
            .iter()
            .filter(|(from, _)| *from == wl::task0::FORK)
            .count()
    );
    println!("\nCertified pipeline ran to completion.");
}
