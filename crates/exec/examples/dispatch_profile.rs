//! Dispatch profiling harness: runs a flat fork-join (source → 256 ×
//! wcet-1 → sink at time-scale zero) back to back so the pool's dispatch
//! path can be profiled in isolation, e.g.
//!
//! ```text
//! strace -c -f target/release/examples/dispatch_profile 32 200
//! /usr/bin/time -v target/release/examples/dispatch_profile 32 200 ws
//! ```
//!
//! Usage: `dispatch_profile <m> <jobs> [global|ws]`.

use std::time::Duration;

use rtpool_exec::{PoolConfig, QueueDiscipline, ThreadPool};

fn main() {
    let mut args = std::env::args().skip(1);
    let m: usize = args.next().expect("m").parse().expect("m: usize");
    let jobs: usize = args.next().expect("jobs").parse().expect("jobs: usize");
    let discipline = match args.next().as_deref() {
        None | Some("global") => QueueDiscipline::GlobalFifo,
        Some("ws") => QueueDiscipline::WorkStealing { seed: 7 },
        Some(other) => panic!("expected global|ws, got {other}"),
    };

    let mut b = rtpool_graph::DagBuilder::new();
    b.fork_join(1, &[1u64; 256], 1, false)
        .expect("flat fork-join");
    let dag = b.build().expect("valid dag");

    let mut pool = ThreadPool::new(
        PoolConfig::new(m, discipline)
            .with_time_scale(Duration::ZERO)
            .with_watchdog(Duration::from_secs(30)),
    );
    // Warm-up.
    for _ in 0..4 {
        pool.run(&dag).expect("warm-up run");
    }
    let start = std::time::Instant::now();
    for _ in 0..jobs {
        let report = pool.run(&dag).expect("profiled run");
        assert_eq!(report.executed_nodes, dag.node_count());
    }
    let elapsed = start.elapsed();
    let per_job = elapsed.as_nanos() / jobs as u128;
    let nodes_per_sec = dag.node_count() as f64 * jobs as f64 / elapsed.as_secs_f64();
    println!("m={m} jobs={jobs}: {per_job} ns/job, {nodes_per_sec:.0} nodes/s");
}
