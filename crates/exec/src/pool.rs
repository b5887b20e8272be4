//! The public pool facade: construction, the per-job retry loop of the
//! [`RecoveryPolicy`](crate::RecoveryPolicy), and the trace slots of
//! failed attempts. Dispatch itself lives in the `engine` module.

use std::sync::Arc;
use std::thread;

use rtpool_graph::Dag;
use rtpool_trace::Trace;

use crate::config::{PoolConfig, QueueDiscipline};
use crate::engine::{Dispatcher, MAX_NODES};
use crate::error::ExecError;
use crate::recovery::{RecoveryEvent, RetryCause};
use crate::report::JobReport;

/// A pool of native worker threads executing DAG jobs with blocking
/// fork/join semantics.
///
/// Workers are spawned on construction and live until the pool is
/// dropped. Jobs are executed one at a time with [`ThreadPool::run`].
///
/// Failure handling is governed by the configured
/// [`RecoveryPolicy`](crate::RecoveryPolicy):
///
/// * a stalled (deadlocked) job is detected *exactly* and either aborted
///   as [`ExecError::Stalled`] (the pool remains usable), retried with
///   backoff, or resolved by growing the pool with reserve workers;
/// * a panicking node body is isolated with [`std::panic::catch_unwind`]
///   and reported as [`ExecError::NodePanicked`] — pool invariants (the
///   job epoch and the `executing`/`suspended` accounting) stay
///   consistent and subsequent jobs run normally.
///
/// Fault injection for chaos testing is available through
/// [`FaultPlan`](crate::FaultPlan) (see [`PoolConfig::with_faults`]).
///
/// Ready nodes reach workers through lock-free queues; a condvar is
/// kept only for the Listing-1 blocking-join suspension (see the crate
/// docs).
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct ThreadPool {
    dispatcher: Dispatcher,
    /// Event trace of the most recent *failed* attempt (stall, panic, or
    /// watchdog), kept because the failing `run` returns only an error.
    last_trace: Option<Trace>,
    /// Traces of every failed attempt of the current `run` (in attempt
    /// order), retained so retries don't overwrite earlier attempts.
    attempt_traces: Vec<Trace>,
}

/// Outcome of one failed execution attempt: the error plus the attempt's
/// event trace (when recording was on). Returned by the dispatcher so the
/// retry loop can retain *every* attempt's trace instead of only
/// the last one.
pub(crate) struct FailedAttempt {
    pub(crate) error: ExecError,
    pub(crate) trace: Option<Trace>,
}

impl ThreadPool {
    /// Spawns `config.workers` worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] if `config.workers == 0`, if
    /// a [`QueueDiscipline::Partitioned`] mapping's pool size differs
    /// from the worker count, or if the workers plus the
    /// [`RecoveryPolicy::GrowPool`](crate::RecoveryPolicy::GrowPool)
    /// reserve exceed 255.
    pub fn try_new(config: PoolConfig) -> Result<Self, ExecError> {
        config.validate()?;
        Ok(ThreadPool {
            dispatcher: Dispatcher::new(config),
            last_trace: None,
            attempt_traces: Vec::new(),
        })
    }

    /// Spawns `config.workers` worker threads.
    ///
    /// # Panics
    ///
    /// Panics on the configurations [`ThreadPool::try_new`] rejects.
    #[must_use]
    pub fn new(config: PoolConfig) -> Self {
        ThreadPool::try_new(config).expect("invalid pool configuration")
    }

    fn config(&self) -> &PoolConfig {
        self.dispatcher.config()
    }

    /// Number of permanent workers (`m`). Rescue workers added by
    /// [`RecoveryPolicy::GrowPool`] are job-scoped and not counted.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.config().workers
    }

    /// Takes the event trace of the most recent *failed* attempt (stall,
    /// panic, or watchdog timeout), when
    /// [`PoolConfig::record_trace`](crate::PoolConfig::record_trace) is
    /// set. Successful jobs return their trace in
    /// [`JobReport::trace`](crate::JobReport::trace) instead; each call
    /// to [`ThreadPool::run`] clears this slot first.
    #[must_use]
    pub fn take_last_trace(&mut self) -> Option<Trace> {
        self.last_trace.take()
    }

    /// Takes the traces of every *failed* attempt of the most recent
    /// [`ThreadPool::run`], in attempt order, when
    /// [`PoolConfig::record_trace`](crate::PoolConfig::record_trace) is
    /// set. A successful retried run reports the same traces in
    /// [`JobReport::attempt_traces`](crate::JobReport::attempt_traces);
    /// this accessor additionally covers runs whose final attempt failed
    /// (the final attempt's trace is then both the last element here and
    /// in [`ThreadPool::take_last_trace`]). Each call to
    /// [`ThreadPool::run`] clears the backlog first.
    #[must_use]
    pub fn take_attempt_traces(&mut self) -> Vec<Trace> {
        std::mem::take(&mut self.attempt_traces)
    }

    /// Executes one job (one instance of `dag`) to completion, applying
    /// the configured [`RecoveryPolicy`](crate::RecoveryPolicy) when the
    /// job stalls or a node
    /// body panics.
    ///
    /// # Errors
    ///
    /// * [`ExecError::IncompatibleJob`] if a partitioned mapping does not
    ///   cover `dag`, or if `dag` has more than 65,535 nodes;
    /// * [`ExecError::Stalled`] when the job deadlocks (exact detection)
    ///   and the policy cannot (or may not) recover it;
    /// * [`ExecError::NodePanicked`] when a node body panics and the
    ///   retry budget (if any) is exhausted;
    /// * [`ExecError::WatchdogTimeout`] if the watchdog fires (runtime
    ///   bug guard, e.g. a lost wakeup).
    pub fn run(&mut self, dag: &Dag) -> Result<JobReport, ExecError> {
        if dag.node_count() > MAX_NODES {
            return Err(ExecError::IncompatibleJob {
                message: format!(
                    "the pool supports graphs up to {MAX_NODES} nodes, got {}",
                    dag.node_count()
                ),
            });
        }
        if let QueueDiscipline::Partitioned(mapping) = &self.config().discipline {
            if mapping.node_count() != dag.node_count() {
                return Err(ExecError::IncompatibleJob {
                    message: format!(
                        "mapping covers {} nodes, graph has {}",
                        mapping.node_count(),
                        dag.node_count()
                    ),
                });
            }
        }
        let dag = Arc::new(dag.clone());
        let policy = self.config().recovery.clone();
        self.last_trace = None;
        self.attempt_traces.clear();
        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut attempt = 0usize;
        loop {
            match self.dispatcher.run_attempt(&dag, attempt, &mut events) {
                Ok(mut report) => {
                    report.attempt_traces = std::mem::take(&mut self.attempt_traces);
                    return Ok(report);
                }
                Err(FailedAttempt { error, trace }) => {
                    let cause = match &error {
                        ExecError::Stalled { .. } => RetryCause::Stalled,
                        ExecError::NodePanicked { node, .. } => RetryCause::NodePanicked(*node),
                        ExecError::WatchdogTimeout => RetryCause::WatchdogTimeout,
                        _ => return Err(error),
                    };
                    if attempt >= policy.max_retries() {
                        if let Some(t) = trace {
                            self.attempt_traces.push(t.clone());
                            self.last_trace = Some(t);
                        }
                        return Err(error);
                    }
                    if let Some(t) = trace {
                        self.attempt_traces.push(t);
                    }
                    let delay = policy.backoff_delay(attempt);
                    events.push(RecoveryEvent::Retried {
                        attempt,
                        cause,
                        delay,
                    });
                    thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::recovery::RecoveryPolicy;
    use rtpool_core::partition::{algorithm1, worst_fit};
    use rtpool_graph::DagBuilder;
    use rtpool_trace::EventKind;
    use std::time::Duration;

    fn fast(workers: usize, discipline: QueueDiscipline) -> ThreadPool {
        ThreadPool::new(
            PoolConfig::new(workers, discipline)
                .with_time_scale(Duration::from_micros(50))
                .with_watchdog(Duration::from_secs(10)),
        )
    }

    fn fork_join(blocking: bool) -> Dag {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[2, 2, 2], 1, blocking).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn executes_all_nodes_global() {
        let mut pool = fast(3, QueueDiscipline::GlobalFifo);
        let report = pool.run(&fork_join(true)).unwrap();
        assert_eq!(report.executed_nodes, 5);
        assert_eq!(report.completion_order.len(), 5);
        assert!(report.min_available_workers <= 2);
        assert_eq!(report.attempts, 1);
        assert!(report.recovery_events.is_empty());
    }

    #[test]
    fn completion_order_respects_precedence() {
        let mut pool = fast(4, QueueDiscipline::GlobalFifo);
        let dag = fork_join(false);
        let report = pool.run(&dag).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; dag.node_count()];
            for (i, &n) in report.completion_order.iter().enumerate() {
                p[n] = i;
            }
            p
        };
        for v in dag.node_ids() {
            for &s in dag.successors(v) {
                assert!(pos[v.index()] < pos[s.index()]);
            }
        }
    }

    #[test]
    fn figure_1c_deadlock_on_real_condvars() {
        // Two blocking replicas on a 2-worker pool: both workers fetch
        // the forks (they are the only queued nodes), suspend on their
        // barriers, and the pool stalls — detected without timeouts.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let dag = b.build().unwrap();
        let mut pool = fast(2, QueueDiscipline::GlobalFifo);
        match pool.run(&dag) {
            Err(ExecError::Stalled {
                suspended_workers, ..
            }) => assert_eq!(suspended_workers, 2),
            other => panic!("expected stall, got {other:?}"),
        }
        // The pool survives the stall and completes the job with a third
        // worker.
        let mut pool3 = fast(3, QueueDiscipline::GlobalFifo);
        let report = pool3.run(&dag).unwrap();
        assert_eq!(report.executed_nodes, dag.node_count());
    }

    #[test]
    fn pool_reusable_after_stall() {
        let mut b = DagBuilder::new();
        b.fork_join(1, &[1], 1, true).unwrap();
        let dag = b.build().unwrap();
        let mut pool = fast(1, QueueDiscipline::GlobalFifo);
        assert!(matches!(pool.run(&dag), Err(ExecError::Stalled { .. })));
        // A non-blocking job still completes on the same pool.
        let plain = {
            let mut b = DagBuilder::new();
            b.fork_join(1, &[1], 1, false).unwrap();
            b.build().unwrap()
        };
        let report = pool.run(&plain).unwrap();
        assert_eq!(report.executed_nodes, 3);
    }

    #[test]
    fn workers_recover_after_aborted_stall() {
        // Regression test for the job-epoch guard: a stalled job leaves
        // workers asleep on its barriers; when the next job is installed
        // before they wake, they must abandon the stale barrier and serve
        // the new job — otherwise the pool silently loses workers.
        let mut deadlocker = DagBuilder::new();
        let src = deadlocker.add_node(1);
        let snk = deadlocker.add_node(1);
        for _ in 0..2 {
            let (f, j) = deadlocker.fork_join(1, &[1], 1, true).unwrap();
            deadlocker.add_edge(src, f).unwrap();
            deadlocker.add_edge(j, snk).unwrap();
        }
        let deadlocker = deadlocker.build().unwrap();
        // The follow-up job needs both workers to finish (one blocking
        // fork: the children can only run on the second worker).
        let needs_both = fork_join(true);
        let mut pool = fast(2, QueueDiscipline::GlobalFifo);
        for round in 0..10 {
            assert!(
                matches!(pool.run(&deadlocker), Err(ExecError::Stalled { .. })),
                "round {round}: expected stall"
            );
            let report = pool
                .run(&needs_both)
                .unwrap_or_else(|e| panic!("round {round}: follow-up job failed: {e}"));
            assert_eq!(report.executed_nodes, needs_both.node_count());
        }
    }

    #[test]
    fn partitioned_discipline_follows_mapping() {
        let dag = fork_join(true);
        let mapping = algorithm1(&dag, 2).unwrap();
        let mut pool = fast(2, QueueDiscipline::Partitioned(mapping));
        let report = pool.run(&dag).unwrap();
        assert_eq!(report.executed_nodes, 5);
    }

    #[test]
    fn partitioned_unsafe_mapping_stalls() {
        let dag = fork_join(true);
        // Everything on worker 0: children behind the suspended fork.
        let mapping = worst_fit(&dag, 1);
        // Single worker, single queue.
        let mut pool = fast(1, QueueDiscipline::Partitioned(mapping));
        assert!(matches!(pool.run(&dag), Err(ExecError::Stalled { .. })));
    }

    #[test]
    fn partitioned_rejects_mismatched_graph() {
        let dag = fork_join(true);
        let mapping = worst_fit(&dag, 2);
        let mut pool = fast(2, QueueDiscipline::Partitioned(mapping));
        let mut b = DagBuilder::new();
        b.add_node(1);
        let tiny = b.build().unwrap();
        assert!(matches!(
            pool.run(&tiny),
            Err(ExecError::IncompatibleJob { .. })
        ));
    }

    #[test]
    fn try_new_rejects_zero_workers() {
        match ThreadPool::try_new(PoolConfig::new(0, QueueDiscipline::GlobalFifo)) {
            Err(ExecError::InvalidConfig { message }) => {
                assert!(message.contains("at least one worker"));
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn try_new_rejects_mismatched_mapping() {
        let dag = fork_join(true);
        let mapping = worst_fit(&dag, 2);
        assert!(matches!(
            ThreadPool::try_new(PoolConfig::new(3, QueueDiscipline::Partitioned(mapping))),
            Err(ExecError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn try_new_rejects_more_than_255_workers_with_reserve() {
        // The counter fields are 8 bits wide: permanent workers plus the
        // growth reserve may reach 255 and no more. Only the permanent
        // worker is spawned, so the accepted case stays cheap.
        let grow = |reserve| RecoveryPolicy::GrowPool { reserve };
        assert!(ThreadPool::try_new(
            PoolConfig::new(1, QueueDiscipline::GlobalFifo).with_recovery(grow(254))
        )
        .is_ok());
        match ThreadPool::try_new(
            PoolConfig::new(1, QueueDiscipline::GlobalFifo).with_recovery(grow(255)),
        ) {
            Err(ExecError::InvalidConfig { message }) => {
                assert!(message.contains("255"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
        assert!(matches!(
            ThreadPool::try_new(PoolConfig::new(256, QueueDiscipline::GlobalFifo)),
            Err(ExecError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn run_rejects_graphs_over_65535_nodes() {
        // The ready-join counter field is 16 bits wide. A chain of
        // 65,536 nodes is refused before any worker sees it; one node
        // less runs.
        let chain = |n: usize| {
            let mut b = DagBuilder::new();
            let mut prev = b.add_node(0);
            for _ in 1..n {
                let v = b.add_node(0);
                b.add_edge(prev, v).unwrap();
                prev = v;
            }
            b.build().unwrap()
        };
        let mut pool = ThreadPool::new(
            PoolConfig::new(1, QueueDiscipline::GlobalFifo).with_time_scale(Duration::ZERO),
        );
        match pool.run(&chain(65_536)) {
            Err(ExecError::IncompatibleJob { message }) => {
                assert!(message.contains("65535"), "{message}");
            }
            other => panic!("expected IncompatibleJob, got {:?}", other.map(|_| ())),
        }
        let report = pool.run(&chain(65_535)).unwrap();
        assert_eq!(report.executed_nodes, 65_535);
    }

    #[test]
    fn work_stealing_completes_blocking_jobs() {
        let mut pool = fast(3, QueueDiscipline::WorkStealing { seed: 42 });
        let report = pool.run(&fork_join(true)).unwrap();
        assert_eq!(report.executed_nodes, 5);
    }

    #[test]
    fn zero_time_scale_is_instant() {
        let mut pool = ThreadPool::new(
            PoolConfig::new(2, QueueDiscipline::GlobalFifo).with_time_scale(Duration::ZERO),
        );
        let report = pool.run(&fork_join(false)).unwrap();
        assert_eq!(report.executed_nodes, 5);
    }

    #[test]
    fn sequential_jobs_on_same_pool() {
        let mut pool = fast(2, QueueDiscipline::GlobalFifo);
        for _ in 0..5 {
            let report = pool.run(&fork_join(true)).unwrap();
            assert_eq!(report.executed_nodes, 5);
        }
    }

    #[test]
    fn spans_cover_every_node_and_respect_workers() {
        let dag = fork_join(true);
        let mapping = algorithm1(&dag, 2).unwrap();
        let fork_thread = mapping.thread_of(dag.blocking_forks()[0]);
        let mut pool = fast(2, QueueDiscipline::Partitioned(mapping.clone()));
        let report = pool.run(&dag).unwrap();
        assert_eq!(report.spans.len(), dag.node_count());
        // Under the partitioned discipline every node ran on its mapped
        // worker.
        for span in &report.spans {
            let node = rtpool_graph::NodeId::from_index(span.node);
            assert_eq!(span.worker, mapping.thread_of(node).index());
            assert!(span.start <= span.end);
        }
        // The join ran on the fork's worker (the continuation).
        let join = dag.blocking_regions()[0].join();
        assert_eq!(
            report.span_of(join.index()).unwrap().worker,
            fork_thread.index()
        );
    }

    #[test]
    fn workers_accessor() {
        let pool = fast(4, QueueDiscipline::GlobalFifo);
        assert_eq!(pool.workers(), 4);
    }

    fn fast_traced(workers: usize, discipline: QueueDiscipline) -> ThreadPool {
        ThreadPool::new(
            PoolConfig::new(workers, discipline)
                .with_time_scale(Duration::from_micros(50))
                .with_watchdog(Duration::from_secs(10))
                .with_trace(),
        )
    }

    #[test]
    fn traced_run_produces_valid_trace() {
        let mut pool = fast_traced(3, QueueDiscipline::GlobalFifo);
        let report = pool.run(&fork_join(true)).unwrap();
        let trace = report.trace.expect("tracing was enabled");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        assert_eq!(trace.engine, rtpool_trace::EngineKind::Exec);
        assert_eq!(trace.cores, 3);
        assert_eq!(trace.tasks, 1);
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        for required in [
            "JobReleased",
            "ThreadUnpark",
            "NodeStart",
            "CoreAssign",
            "BarrierSuspend",
            "BarrierWake",
            "NodeEnd",
            "JobCompleted",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        let obs = ana.task(0);
        assert_eq!(obs.released, 1);
        assert_eq!(obs.completed, 1);
        assert_eq!(obs.nodes_executed, 5);
        assert_eq!(obs.max_simultaneous_blocking, 1);
        assert_eq!(obs.min_available, report.min_available_workers);
        // A successful run leaves no failure trace behind.
        assert!(pool.take_last_trace().is_none());
    }

    #[test]
    fn spin_backend_runs_and_traces_spin() {
        let mut pool = ThreadPool::new(
            PoolConfig::new(3, QueueDiscipline::GlobalFifo)
                .with_backend(crate::SyncBackend::Spin)
                .with_time_scale(Duration::from_micros(50))
                .with_watchdog(Duration::from_secs(10))
                .with_trace(),
        );
        let report = pool.run(&fork_join(true)).unwrap();
        assert_eq!(report.executed_nodes, 5);
        let trace = report.trace.expect("trace recorded");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"SpinStart"));
        assert!(names.contains(&"SpinEnd"));
        assert!(!names.contains(&"BarrierSuspend"));
        assert!(!names.contains(&"BarrierWake"));
        // The spinner counts as blocking, exactly like a suspension.
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        assert_eq!(ana.task(0).max_simultaneous_blocking, 1);
    }

    #[test]
    fn spin_backend_stall_detected() {
        // Figure 1(c): two blocking replicas wedge two workers — under
        // spin they busy-wait, but the exact detector still fires.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let dag = b.build().unwrap();
        let mut pool = ThreadPool::new(
            PoolConfig::new(2, QueueDiscipline::GlobalFifo)
                .with_backend(crate::SyncBackend::Spin)
                .with_time_scale(Duration::from_micros(50))
                .with_watchdog(Duration::from_secs(10))
                .with_trace(),
        );
        assert!(matches!(
            pool.run(&dag),
            Err(ExecError::Stalled {
                suspended_workers: 2,
                ..
            })
        ));
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let names: Vec<&str> = trace.events.iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"SpinStart"));
        assert!(names.contains(&"StallDetected"));
    }

    #[test]
    fn stalled_run_trace_is_kept_on_the_pool() {
        // Figure 1(c): two blocking replicas deadlock two workers.
        let mut b = DagBuilder::new();
        let src = b.add_node(1);
        let snk = b.add_node(1);
        for _ in 0..2 {
            let (f, j) = b.fork_join(1, &[1, 1, 1], 1, true).unwrap();
            b.add_edge(src, f).unwrap();
            b.add_edge(j, snk).unwrap();
        }
        let dag = b.build().unwrap();
        let mut pool = fast_traced(2, QueueDiscipline::GlobalFifo);
        assert!(matches!(pool.run(&dag), Err(ExecError::Stalled { .. })));
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        assert!(ana.any_stall());
        assert_eq!(ana.task(0).min_available, 0);
        assert_eq!(ana.task(0).completed, 0);
        // The slot is consumed by the take.
        assert!(pool.take_last_trace().is_none());
    }

    #[test]
    fn panicked_run_trace_records_recovery() {
        let mut pool = ThreadPool::new(
            PoolConfig::new(2, QueueDiscipline::GlobalFifo)
                .with_time_scale(Duration::ZERO)
                .with_watchdog(Duration::from_secs(10))
                .with_faults(FaultPlan::seeded(7).panic_on(1))
                .with_trace(),
        );
        assert!(matches!(
            pool.run(&fork_join(false)),
            Err(ExecError::NodePanicked { node: 1, .. })
        ));
        let trace = pool.take_last_trace().expect("trace of the failed attempt");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let labels: Vec<&str> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Recovery { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&"panic_body"));
        assert!(labels.contains(&"node_panicked"));
    }

    #[test]
    fn traced_partitioned_run_is_schema_clean() {
        let dag = fork_join(true);
        let mapping = algorithm1(&dag, 2).unwrap();
        let mut pool = fast_traced(2, QueueDiscipline::Partitioned(mapping));
        let report = pool.run(&dag).unwrap();
        let trace = report.trace.expect("tracing was enabled");
        assert!(
            trace.validate().is_empty(),
            "defects: {:?}",
            trace.validate()
        );
        let ana = rtpool_trace::TraceAnalysis::new(&trace);
        assert_eq!(ana.task(0).nodes_executed, dag.node_count());
        assert_eq!(ana.task(0).min_available, report.min_available_workers);
    }

    #[test]
    fn untraced_run_reports_no_trace() {
        let mut pool = fast(2, QueueDiscipline::GlobalFifo);
        let report = pool.run(&fork_join(true)).unwrap();
        assert!(report.trace.is_none());
        assert!(pool.take_last_trace().is_none());
    }
}
