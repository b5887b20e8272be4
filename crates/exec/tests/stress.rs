//! Stress tests: random generated workloads through every queue
//! discipline, checking precedence, completeness, and stall verdicts
//! against the static analysis.

use std::time::Duration;

use rand::SeedableRng;
use rtpool_core::partition::algorithm1;
use rtpool_core::{deadlock, sizing};
use rtpool_exec::{ExecError, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool_gen::{ConcurrencyWindow, DagGenConfig, TaskSetConfig};
use rtpool_graph::Dag;

fn random_dag(seed: u64) -> Dag {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    DagGenConfig::default().generate(&mut rng)
}

fn fast_pool(workers: usize, discipline: QueueDiscipline) -> ThreadPool {
    ThreadPool::new(
        PoolConfig::new(workers, discipline)
            .with_time_scale(Duration::ZERO)
            .with_watchdog(Duration::from_secs(20)),
    )
}

fn assert_valid_run(dag: &Dag, report: &rtpool_exec::JobReport) {
    assert_eq!(report.executed_nodes, dag.node_count());
    // Completion order respects precedence.
    let mut pos = vec![usize::MAX; dag.node_count()];
    for (i, &n) in report.completion_order.iter().enumerate() {
        pos[n] = i;
    }
    for v in dag.node_ids() {
        for &s in dag.successors(v) {
            assert!(
                pos[v.index()] < pos[s.index()],
                "{v} completed after its successor {s}"
            );
        }
    }
    // Spans cover every node exactly once with sane timestamps.
    assert_eq!(report.spans.len(), dag.node_count());
    for span in &report.spans {
        assert!(span.start <= span.end);
        assert!(span.end <= report.makespan + Duration::from_millis(50));
    }
}

#[test]
fn global_fifo_random_workloads() {
    for seed in 0..25 {
        let dag = random_dag(seed);
        let workers = sizing::min_threads_deadlock_free(&dag);
        let mut pool = fast_pool(workers, QueueDiscipline::GlobalFifo);
        let report = pool
            .run(&dag)
            .unwrap_or_else(|e| panic!("seed {seed}: safe pool size {workers} stalled: {e}"));
        assert_valid_run(&dag, &report);
    }
}

#[test]
fn work_stealing_random_workloads() {
    for seed in 100..120 {
        let dag = random_dag(seed);
        let workers = sizing::min_threads_deadlock_free(&dag);
        let mut pool = fast_pool(workers, QueueDiscipline::WorkStealing { seed });
        let report = pool.run(&dag).unwrap();
        assert_valid_run(&dag, &report);
    }
}

#[test]
fn partitioned_random_workloads_with_algorithm1() {
    let mut ran = 0;
    for seed in 200..240 {
        let dag = random_dag(seed);
        let workers = sizing::min_threads_deadlock_free(&dag) + 1;
        let Ok(mapping) = algorithm1(&dag, workers) else {
            continue;
        };
        let mut pool = fast_pool(workers, QueueDiscipline::Partitioned(mapping));
        let report = pool.run(&dag).unwrap();
        assert_valid_run(&dag, &report);
        ran += 1;
    }
    assert!(ran > 10, "too few partitionable samples: {ran}");

    // The executor benchmark's partitioned inputs: DAGs generated with
    // l̄ = m − b̄ ∈ [1, 2] on m = 2, one pool per DAG with its Algorithm 1
    // mapping, run back to back with free node bodies. Short jobs on a
    // tight pool are where a stall check racing an owner's pop shows.
    let window = TaskSetConfig::new(1, 1.0, DagGenConfig::default()).with_concurrency_window(
        ConcurrencyWindow {
            m: 2,
            l_min: 1,
            l_max: 2,
            max_attempts: 20_000,
        },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE1EC);
    let mut jobs = Vec::new();
    while jobs.len() < 32 {
        let dag = window.generate_dag(&mut rng).unwrap();
        if let Ok(mapping) = algorithm1(&dag, 2) {
            jobs.push((fast_pool(2, QueueDiscipline::Partitioned(mapping)), dag));
        }
    }
    for round in 0..3_000 {
        let (pool, dag) = &mut jobs[round % 32];
        let report = pool
            .run(dag)
            .unwrap_or_else(|e| panic!("back-to-back job {round}: {e}"));
        assert_valid_run(dag, &report);
    }
}

#[test]
fn under_provisioned_pools_stall_only_when_predicted() {
    // Run every workload on a 1..=safe range of pool sizes; the pool
    // must stall exactly when the analysis says deadlock is possible.
    for seed in 300..315 {
        let dag = random_dag(seed);
        let safe = sizing::min_threads_deadlock_free(&dag);
        for workers in 1..=safe {
            let verdict = deadlock::check_global(&dag, workers);
            let mut pool = fast_pool(workers, QueueDiscipline::GlobalFifo);
            match pool.run(&dag) {
                Ok(report) => {
                    assert_valid_run(&dag, &report);
                    // Completion with a "possible deadlock" verdict is
                    // fine: the verdict is about the *existence* of a bad
                    // interleaving, not this particular one.
                }
                Err(ExecError::Stalled { .. }) => {
                    assert!(
                        !verdict.is_deadlock_free(),
                        "seed {seed}: stalled at {workers} workers despite deadlock-free verdict"
                    );
                }
                Err(e) => panic!("seed {seed}: unexpected error {e}"),
            }
        }
    }
}

#[test]
fn pool_survives_a_batch_of_mixed_jobs() {
    let mut pool = fast_pool(3, QueueDiscipline::GlobalFifo);
    let mut stalls = 0;
    let mut completions = 0;
    for seed in 400..430 {
        let dag = random_dag(seed);
        match pool.run(&dag) {
            Ok(report) => {
                assert_valid_run(&dag, &report);
                completions += 1;
            }
            Err(ExecError::Stalled { .. }) => stalls += 1,
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
    assert_eq!(stalls + completions, 30);
    assert!(completions > 0, "some jobs must fit 3 workers");
}

/// A deliberately oversubscribed m = 32 pool (far more workers than
/// cores) churning many tiny-WCET wide jobs back to back. Every
/// completion wakeup is a *targeted* unpark; a lost wakeup would strand
/// a parked worker and surface as a watchdog abort or a spurious stall.
/// Seeded and deterministic in workload.
#[test]
fn no_lost_wakeups_at_m32_oversubscribed() {
    use rand::Rng;
    let mut pool = ThreadPool::new(
        PoolConfig::new(32, QueueDiscipline::GlobalFifo)
            .with_time_scale(Duration::ZERO)
            .with_watchdog(Duration::from_secs(20)),
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA11CE);
    for round in 0..40 {
        // Wide, shallow, all-tiny-WCET fork-joins: maximal enqueue /
        // park churn per unit of body work.
        let width = rng.gen_range(8..=64);
        let blocking = round % 3 == 0;
        let mut b = rtpool_graph::DagBuilder::new();
        let wcets = vec![1u64; width];
        b.fork_join(1, &wcets, 1, blocking).unwrap();
        let dag = b.build().unwrap();
        let report = pool
            .run(&dag)
            .unwrap_or_else(|e| panic!("round {round}: lost wakeup suspected: {e}"));
        assert_eq!(report.executed_nodes, width + 2, "round {round}");
    }
}
