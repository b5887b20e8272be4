//! The certified construction path, end to end:
//!
//! * a golden test blessing the exact module `rtpool-codegen` emits for
//!   `workloads/figure1.rtp` at the smallest deadlock-free pool (m = 3) —
//!   re-bless with `UPDATE_GOLDEN=1 cargo test --test certified`;
//! * differential tests asserting the statically-generated tables are
//!   *behaviorally identical* to parsing the workload at runtime: same
//!   graphs (content hashes), bit-identical discrete-event simulation
//!   outcomes and traces, and equivalent executor runs between
//!   `ThreadPool::new_static` and the dynamic `ThreadPool::try_new`.

use std::fs;

use rtpool::core::textfmt::parse_task_set;
use rtpool::exec::ThreadPool;
use rtpool::sim::{SchedulingPolicy, SimConfig};
use rtpool_codegen::Codegen;

#[allow(dead_code)]
mod certified_figure1 {
    include!(concat!(env!("OUT_DIR"), "/certified_figure1.rs"));
}

const GOLDEN: &str = "tests/goldens/certified_figure1.rs";

#[test]
fn generated_module_matches_golden() {
    let module = Codegen::new("workloads/figure1.rtp", 3)
        .generate_string()
        .expect("figure1 certifies at m = 3");
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        fs::create_dir_all("tests/goldens").unwrap();
        fs::write(GOLDEN, &module).unwrap();
        return;
    }
    let golden = fs::read_to_string(GOLDEN)
        .expect("golden missing: bless with UPDATE_GOLDEN=1 cargo test --test certified");
    assert_eq!(
        module, golden,
        "generated module drifted from {GOLDEN}; re-bless if intended"
    );
}

#[test]
fn static_tables_reproduce_the_parsed_graphs() {
    let parsed = parse_task_set(&fs::read_to_string("workloads/figure1.rtp").unwrap()).unwrap();
    let statics = certified_figure1::CONFIG.task_set();
    assert_eq!(parsed.len(), statics.len());
    for ((_, a), (_, b)) in parsed.iter().zip(statics.iter()) {
        assert_eq!(a.period(), b.period());
        assert_eq!(a.deadline(), b.deadline());
        // Content hash covers node WCETs, edges, and blocking pairs.
        assert_eq!(a.dag().content_hash(), b.dag().content_hash());
    }
    assert!(certified_figure1::CONFIG.verify_tables().is_ok());
}

#[test]
fn static_and_parsed_sets_simulate_identically() {
    let parsed = parse_task_set(&fs::read_to_string("workloads/figure1.rtp").unwrap()).unwrap();
    let statics = certified_figure1::CONFIG.task_set();
    for m in [certified_figure1::M, certified_figure1::M + 2] {
        let sim = SimConfig::single_job(SchedulingPolicy::Global, m).with_event_trace();
        let a = sim.run(&parsed).unwrap();
        let b = sim.run(&statics).unwrap();
        // The simulator is deterministic, so "same workload" means
        // bit-identical outcomes including the full event traces.
        assert_eq!(a, b, "simulation diverged at m = {m}");
    }
}

#[test]
fn new_static_matches_dynamic_try_new() {
    let wl = &certified_figure1::CONFIG;
    let mut static_pool =
        ThreadPool::new_static_with(wl, |c| c.with_time_scale(std::time::Duration::ZERO));
    let mut dynamic_pool =
        ThreadPool::try_new(wl.pool_config().with_time_scale(std::time::Duration::ZERO))
            .expect("the certified config is valid for the dynamic path too");
    assert_eq!(static_pool.workers(), dynamic_pool.workers());

    for dag in wl.dags() {
        let a = static_pool.run(&dag).expect("certified run");
        let b = dynamic_pool.run(&dag).expect("dynamic run");
        // Real threads are not bit-deterministic; compare every
        // schedule-independent field of the reports.
        assert_eq!(a.executed_nodes, b.executed_nodes);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.completion_order.len(), b.completion_order.len());
        {
            let mut x = a.completion_order.clone();
            let mut y = b.completion_order.clone();
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "pools executed different node sets");
        }
        assert_eq!(a.recovery_events, b.recovery_events);
        // Both runs respect the certified concurrency floor.
        assert!(a.min_available_workers >= certified_figure1::L_BAR);
        assert!(b.min_available_workers >= certified_figure1::L_BAR);
    }
}

#[test]
fn out_dir_module_agrees_with_generate_string() {
    // The module included above (written by build.rs) and a fresh
    // library-level generation must agree — build.rs adds nothing.
    let fresh = Codegen::new("workloads/figure1.rtp", 3)
        .generate_string()
        .unwrap();
    let built = fs::read_to_string(concat!(env!("OUT_DIR"), "/certified_figure1.rs")).unwrap();
    assert_eq!(fresh, built);
}
