//! `exec_jobs`: `ThreadPool::run` in a closed loop, in process.
//!
//! One caller runs generated DAGs back to back on 2-worker pools built
//! by `PoolConfig::new` (the default engine) with `time_scale` 0, so node
//! bodies are free and dispatch, barrier suspend/wake and park/unpark are
//! the whole cost. Jobs alternate between one global-FIFO pool and a
//! partitioned pool per DAG whose mapping is the paper's Algorithm 1.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtpool_core::partition::{algorithm1, NodeMapping};
use rtpool_core::ConcurrencyAnalysis;
use rtpool_exec::{JobReport, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool_gen::{ConcurrencyWindow, DagGenConfig, TaskSetConfig};
use rtpool_graph::{Dag, NodeId};
use rtpool_trace::EventKind;

use crate::child::{kb_to_mb, RssPoller};
use crate::report::{Report, DISCIPLINES};
use crate::stats::{median, Reservoir, Samples, WindowedTail};
use crate::Ctx;

/// Workers per pool: the host's two cores.
const M: usize = 2;
/// Every `GAP_STRIDE`-th job contributes its dispatch gaps (bounds memory).
const GAP_STRIDE: usize = 8;
/// Latency samples kept per discipline; longer runs keep a uniform
/// sample, so the benchmark's own memory does not grow with the job count.
const KEPT_SAMPLES: usize = 200_000;

/// Generates `count` DAGs with `l̄ = m − b̄ ∈ [1, 2]` on `m = 2` (so
/// `b̄ ≤ 1`), each with its Algorithm 1 mapping. DAGs Algorithm 1 cannot
/// map are skipped.
///
/// # Errors
///
/// Returns the generator's error.
pub fn generate_dags(seed: u64, count: usize) -> Result<Vec<(Dag, NodeMapping)>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = TaskSetConfig::new(1, 1.0, DagGenConfig::default()).with_concurrency_window(
        ConcurrencyWindow {
            m: M,
            l_min: 1,
            l_max: 2,
            max_attempts: 20_000,
        },
    );
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let dag = cfg.generate_dag(&mut rng).map_err(|e| e.to_string())?;
        if let Ok(mapping) = algorithm1(&dag, M) {
            out.push((dag, mapping));
        }
    }
    Ok(out)
}

fn config(discipline: QueueDiscipline, traced: bool) -> PoolConfig {
    let config = PoolConfig::new(M, discipline).with_time_scale(Duration::ZERO);
    if traced {
        config.with_trace()
    } else {
        config
    }
}

/// One global-FIFO pool and one partitioned pool per DAG.
struct Pools {
    global: ThreadPool,
    partitioned: Vec<ThreadPool>,
}

fn build_pools(dags: &[(Dag, NodeMapping)], traced: bool) -> Pools {
    Pools {
        global: ThreadPool::new(config(QueueDiscipline::GlobalFifo, traced)),
        partitioned: dags
            .iter()
            .map(|(_, mapping)| {
                ThreadPool::new(config(
                    QueueDiscipline::Partitioned(mapping.clone()),
                    traced,
                ))
            })
            .collect(),
    }
}

/// Checks one job's report: every node ran, completions respect every
/// edge, and the pool never had fewer than `m − b̄` workers available.
#[must_use]
pub fn job_is_correct(dag: &Dag, report: &JobReport, workers: usize) -> bool {
    let n = dag.node_count();
    if report.executed_nodes != n || report.completion_order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in report.completion_order.iter().enumerate() {
        if v >= n || pos[v] != usize::MAX {
            return false;
        }
        pos[v] = i;
    }
    let edges_ok = dag.node_ids().all(|v| {
        dag.successors(v)
            .iter()
            .all(|s| pos[v.index()] < pos[s.index()])
    });
    let floor = ConcurrencyAnalysis::new(dag).concurrency_lower_bound(workers);
    edges_ok && i64::try_from(report.min_available_workers).is_ok_and(|l| l >= floor)
}

/// Per-discipline accumulators.
#[derive(Debug)]
struct Acc {
    latency_us: Reservoir,
    failed: usize,
    gaps_us: Vec<f64>,
    tail_us: Vec<f64>,
    barrier_wait_us: f64,
    parks: usize,
    unparks: usize,
    steals: usize,
    queue_depth_max: u32,
    traced_jobs: usize,
    min_available: Option<usize>,
}

impl Acc {
    fn new() -> Self {
        Acc {
            latency_us: Reservoir::new(KEPT_SAMPLES),
            failed: 0,
            gaps_us: Vec::new(),
            tail_us: Vec::new(),
            barrier_wait_us: 0.0,
            parks: 0,
            unparks: 0,
            steals: 0,
            queue_depth_max: 0,
            traced_jobs: 0,
            min_available: None,
        }
    }

    #[allow(clippy::cast_precision_loss)]
    fn absorb(&mut self, dag: &Dag, wall: Duration, report: &JobReport, job: usize, layers: bool) {
        self.latency_us.push(wall.as_secs_f64() * 1e6);
        self.min_available = Some(
            self.min_available
                .map_or(report.min_available_workers, |m| {
                    m.min(report.min_available_workers)
                }),
        );
        if layers && job.is_multiple_of(GAP_STRIDE) {
            self.tail_us
                .push(wall.saturating_sub(report.makespan).as_secs_f64() * 1e6);
            let mut end = vec![Duration::ZERO; dag.node_count()];
            for span in &report.spans {
                end[span.node] = span.end;
            }
            for span in &report.spans {
                let preds = dag.predecessors(NodeId::from_index(span.node));
                if let Some(latest) = preds.iter().map(|p| end[p.index()]).max() {
                    self.gaps_us
                        .push(span.start.saturating_sub(latest).as_secs_f64() * 1e6);
                }
            }
        }
        if let Some(trace) = &report.trace {
            self.traced_jobs += 1;
            let mut suspended_at = [None; M + 1];
            for ev in &trace.events {
                match &ev.kind {
                    EventKind::BarrierSuspend { thread, .. } => {
                        if let Some(slot) = suspended_at.get_mut(*thread as usize) {
                            *slot = Some(ev.time);
                        }
                    }
                    EventKind::BarrierWake { thread, .. } => {
                        if let Some(Some(t)) =
                            suspended_at.get_mut(*thread as usize).map(Option::take)
                        {
                            self.barrier_wait_us += ev.time.saturating_sub(t) as f64 / 1e3;
                        }
                    }
                    EventKind::ThreadPark { .. } => self.parks += 1,
                    EventKind::ThreadUnpark { .. } => self.unparks += 1,
                    EventKind::StealBatch { .. } => self.steals += 1,
                    EventKind::QueueDepth { depth, .. } => {
                        self.queue_depth_max = self.queue_depth_max.max(*depth);
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Runs jobs for `secs` (at least `min_jobs`), alternating disciplines;
/// `layers` also collects the per-layer samples. Returns the
/// per-discipline accumulators and the windowed tail of all jobs in order.
fn closed_loop(
    pools: &mut Pools,
    dags: &[(Dag, NodeMapping)],
    secs: f64,
    min_jobs: usize,
    layers: bool,
) -> ([Acc; 2], WindowedTail) {
    let mut acc = [Acc::new(), Acc::new()];
    let mut tail = WindowedTail::default();
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let mut job = 0;
    while job < min_jobs || Instant::now() < end {
        let d = (job / 2) % dags.len();
        let discipline = job % 2;
        let pool = if discipline == 0 {
            &mut pools.global
        } else {
            &mut pools.partitioned[d]
        };
        let dag = &dags[d].0;
        let start = Instant::now();
        let result = pool.run(dag);
        let wall = start.elapsed();
        let a = &mut acc[discipline];
        match result {
            Ok(report) if job_is_correct(dag, &report, M) => {
                a.absorb(dag, wall, &report, job / 2, layers);
                tail.push(wall.as_secs_f64() * 1e6);
            }
            Ok(_) => {
                eprintln!("exec_jobs: job {job} failed its output checks");
                a.failed += 1;
            }
            Err(e) => {
                eprintln!("exec_jobs: job {job} returned an error: {e}");
                a.failed += 1;
            }
        }
        job += 1;
    }
    (acc, tail)
}

struct Plan {
    dags: usize,
    setup_reps: usize,
    new_reps: usize,
    min_jobs: usize,
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a description when DAG generation fails or no job succeeds.
#[allow(clippy::cast_precision_loss)]
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let plan = if ctx.smoke {
        Plan {
            dags: 2,
            setup_reps: 1,
            new_reps: 2,
            min_jobs: 1_000,
        }
    } else {
        Plan {
            dags: 128,
            setup_reps: 51,
            new_reps: 30,
            min_jobs: 2_000,
        }
    };
    let secs = if ctx.smoke { 0.3 } else { ctx.seconds as f64 };

    // Set-up: DAG generation, Algorithm 1 mappings and pool construction,
    // repeated; the last repetition's pools are kept.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..plan.setup_reps {
        let start = Instant::now();
        let dags = generate_dags(ctx.seed, plan.dags)?;
        let pools = build_pools(&dags, false);
        setup_times.push(start.elapsed().as_secs_f64());
        kept = Some((dags, pools));
    }
    let (dags, mut pools) = kept.expect("at least one set-up repetition");
    let mut report = Report::new(ctx.traced);

    let untraced_secs = if ctx.traced { secs / 2.0 } else { secs };
    let rss = RssPoller::start(std::process::id());
    let (acc, tail) = closed_loop(&mut pools, &dags, untraced_secs, plan.min_jobs, ctx.traced);
    let rss_kb = rss.finish();
    drop(pools);
    let traced_acc = if ctx.traced {
        let mut pools = build_pools(&dags, true);
        Some(closed_loop(&mut pools, &dags, secs / 2.0, plan.min_jobs, false).0)
    } else {
        None
    };

    let all = |acc: &[Acc; 2]| -> Vec<f64> {
        acc.iter()
            .flat_map(|a| a.latency_us.kept().iter().copied())
            .collect()
    };
    let latency = Samples::new(all(&acc));
    if latency.is_empty() {
        return Err("no job succeeded".to_string());
    }
    let failed: usize = acc
        .iter()
        .chain(traced_acc.iter().flatten())
        .map(|a| a.failed)
        .sum();
    let ok: usize = acc
        .iter()
        .chain(traced_acc.iter().flatten())
        .map(|a| a.latency_us.seen())
        .sum();
    report.attempted = (ok + failed) as u64;
    report.failed = failed as u64;
    report.correct = failed == 0;
    println!(
        "{{\"detail\": {{\"jobs\": {}, \"kept_samples\": {}, \"job_tail_pct\": {}, \"dags\": {}, \"nodes\": [{}]}}}}",
        ok + failed,
        latency.len(),
        latency.tail().map_or(0.0, |(p, _)| p),
        dags.len(),
        dags.iter()
            .map(|(d, _)| d.node_count().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    if !ctx.smoke && !crate::stats::supported(latency.len(), 99.0) {
        return Err(format!("too few jobs for a p99: {}", latency.len()));
    }

    if !ctx.traced {
        report.set("setup_s", median(&setup_times));
        report.set(
            "rss_mb",
            kb_to_mb(rss_kb.ok_or("cannot read this process's VmRSS")?),
        );
        report.set("latency_p50_us", latency.median());
        return Ok(report);
    }

    let traced = traced_acc.expect("traced run has a traced phase");
    let traced_p50 = Samples::new(all(&traced)).median();
    report.set(
        "trace.overhead_share.exec_jobs",
        traced_p50 / latency.median() - 1.0,
    );
    report.set(
        "exec.job_p99_us",
        tail.p99().ok_or("too few jobs for a p99 window")?,
    );
    for (i, discipline) in DISCIPLINES.iter().enumerate() {
        let (a, t) = (&acc[i], &traced[i]);
        let per_job = |count: usize| count as f64 / t.traced_jobs.max(1) as f64;
        let gaps = Samples::new(a.gaps_us.clone());
        let mut set =
            |name: &str, value: f64| report.set(&format!("exec.pool.{name}.{discipline}"), value);
        set("new_us", pool_new_us(&dags, i, plan.new_reps));
        set("dispatch_gap_p50_us", gaps.median());
        set("dispatch_gap_p99_us", gaps.percentile(99.0));
        set("job_tail_us", Samples::new(a.tail_us.clone()).median());
        set(
            "barrier_wait_us",
            t.barrier_wait_us / t.traced_jobs.max(1) as f64,
        );
        set("parks_per_job", per_job(t.parks));
        set("unparks_per_job", per_job(t.unparks));
        set("steal_batches_per_job", per_job(t.steals));
        set("queue_depth_max", f64::from(t.queue_depth_max));
        let min_available = a.min_available.into_iter().chain(t.min_available).min();
        set("min_available_workers", min_available.unwrap_or(0) as f64);
    }
    Ok(report)
}

/// Median time of `ThreadPool::new` for discipline `i` (0 = global FIFO,
/// 1 = partitioned with the first DAG's mapping); pools are dropped
/// outside the timed region.
fn pool_new_us(dags: &[(Dag, NodeMapping)], i: usize, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let discipline = if i == 0 {
                QueueDiscipline::GlobalFifo
            } else {
                QueueDiscipline::Partitioned(dags[0].1.clone())
            };
            let config = config(discipline, false);
            let start = Instant::now();
            let pool = ThreadPool::new(config);
            let t = start.elapsed().as_secs_f64() * 1e6;
            drop(pool);
            t
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_jobs_run_and_pass_the_checks() {
        let dags = generate_dags(7, 2).unwrap();
        let hashes =
            |d: &[(Dag, NodeMapping)]| d.iter().map(|(g, _)| g.content_hash()).collect::<Vec<_>>();
        assert_eq!(hashes(&dags), hashes(&generate_dags(7, 2).unwrap()));
        let (acc, _) = closed_loop(&mut build_pools(&dags, true), &dags, 0.0, 8, true);
        for a in &acc {
            assert_eq!(a.failed, 0);
            assert_eq!(a.latency_us.seen(), 4);
            assert_eq!(a.traced_jobs, 4);
            assert!(a.min_available.is_some_and(|l| l >= 1));
        }
    }

    #[test]
    fn a_reordered_completion_fails_the_check() {
        let (dag, _) = generate_dags(3, 1).unwrap().pop().unwrap();
        let mut pool = ThreadPool::new(config(QueueDiscipline::GlobalFifo, false));
        let mut report = pool.run(&dag).unwrap();
        assert!(job_is_correct(&dag, &report, M));
        report.completion_order.reverse();
        assert!(!job_is_correct(&dag, &report, M));
        report.completion_order.reverse();
        report.executed_nodes -= 1;
        assert!(!job_is_correct(&dag, &report, M));
    }
}
