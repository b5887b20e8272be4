//! Compile-time-certified pool construction.
//!
//! This module is the *runtime half* of the `rtpool-codegen` build gate:
//! the codegen pass parses an `.rtp` workload in `build.rs`, runs the
//! full `rtlint` analysis (Lemma 1 deadlock, schedulability,
//! configuration rules), and — only for passing workloads — emits a
//! typed Rust module whose items are the types below:
//!
//! * [`DeadlockFree`] — a zero-sized proof token parameterized by the
//!   pool size `M` and the workload's maximum simultaneously-suspended
//!   blocking-fork antichain `B_BAR`. Its only constructor is the
//!   associated constant [`DeadlockFree::CERTIFIED`], whose `const`
//!   evaluation asserts `M ≥ B_BAR + 1` (Lemma 1, `l̄ = m − b̄ ≥ 1`):
//!   naming it for an undersized pool is a *compile error*.
//! * [`StaticNode`] / [`StaticTask`] — `'static` const tables describing
//!   the certified task graphs (names, WCETs, edges, blocking pairs,
//!   periods, deadlines).
//! * [`CertifiedConfig`] — the tables plus the proof token;
//!   [`ThreadPool::new_static`] only accepts this type, so a program
//!   whose pool could express the paper's Figure 1 deadlock does not
//!   compile.
//!
//! ## What the token does and does not prove
//!
//! `DeadlockFree<M, B_BAR>` proves — at compile time — that `M` workers
//! exceed the *declared* antichain bound `B_BAR`. The declaration itself
//! is trusted to come from codegen, which computed it from the graphs it
//! also emitted; since the tables and the token travel together in one
//! generated module, the pair is sound by construction. A hand-forged
//! `CertifiedConfig` that pairs real tables with a lying `B_BAR` is
//! caught at runtime: [`ThreadPool::new_static`] recomputes the
//! antichain from the tables and panics on a mismatch (cheap, once per
//! pool). The token does *not* prove schedulability — codegen separately
//! enforces the RT2xx rules at build time under its deny policy.

use rtpool_core::{sizing, Task, TaskSet};
use rtpool_graph::{Dag, DagBuilder, NodeId};

use crate::config::{PoolConfig, QueueDiscipline};
use crate::pool::ThreadPool;

/// Zero-sized compile-time proof that a pool of `M` workers cannot
/// deadlock on a workload whose blocking-fork antichain is at most
/// `B_BAR` (Lemma 1: `l̄ = M − B_BAR ≥ 1`).
///
/// ```
/// use rtpool_exec::certified::DeadlockFree;
/// // Figure 1(c): two suspended forks need at least three workers.
/// const PROOF: DeadlockFree<3, 2> = DeadlockFree::CERTIFIED;
/// assert_eq!(PROOF.floor(), 1);
/// ```
///
/// ```compile_fail
/// use rtpool_exec::certified::DeadlockFree;
/// // m = 2 ≤ b̄ = 2: the const assertion fails the build.
/// const PROOF: DeadlockFree<2, 2> = DeadlockFree::CERTIFIED;
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DeadlockFree<const M: usize, const B_BAR: usize> {
    _proof: (),
}

impl<const M: usize, const B_BAR: usize> DeadlockFree<M, B_BAR> {
    /// The proof token. Evaluating this constant asserts
    /// `M ≥ B_BAR + 1`; an undersized `M` fails `cargo build` with the
    /// assertion message below.
    pub const CERTIFIED: Self = {
        assert!(
            sizing::deadlock_free_floor(M, B_BAR),
            "Lemma 1 violated: the pool needs at least B_BAR + 1 workers \
             (concurrency floor l\u{304} = m \u{2212} b\u{304} must stay >= 1)"
        );
        DeadlockFree { _proof: () }
    };

    /// The certified pool size `m`.
    #[must_use]
    pub const fn m(&self) -> usize {
        M
    }

    /// The certified blocking bound `b̄`.
    #[must_use]
    pub const fn b_bar(&self) -> usize {
        B_BAR
    }

    /// The guaranteed concurrency floor `l̄ = m − b̄` (≥ 1 by
    /// construction).
    #[must_use]
    pub const fn floor(&self) -> usize {
        M - B_BAR
    }
}

/// One node of a certified task graph.
#[derive(Clone, Copy, Debug)]
pub struct StaticNode {
    /// The node's declared name in the `.rtp` source.
    pub name: &'static str,
    /// Worst-case execution time.
    pub wcet: u64,
}

/// One task of a certified workload: const tables in `.rtp` declaration
/// order (node indices are positions in `nodes`).
#[derive(Clone, Copy, Debug)]
pub struct StaticTask {
    /// Period `T`.
    pub period: u64,
    /// Relative deadline `D`.
    pub deadline: u64,
    /// Node table, in declaration order.
    pub nodes: &'static [StaticNode],
    /// `(from, to)` precedence edges over node indices.
    pub edges: &'static [(u32, u32)],
    /// `(fork, join)` blocking pairs over node indices.
    pub blocking: &'static [(u32, u32)],
}

impl StaticTask {
    /// Rebuilds the task's [`Dag`] from the const tables.
    ///
    /// # Panics
    ///
    /// Panics if the tables do not describe a valid model graph. Codegen
    /// only emits tables it has already built and linted, so this fires
    /// only on hand-forged tables.
    #[must_use]
    pub fn dag(&self) -> Dag {
        let mut b = DagBuilder::with_capacities(self.nodes.len(), self.edges.len());
        for node in self.nodes {
            b.add_node(node.wcet);
        }
        for &(from, to) in self.edges {
            b.add_edge(
                NodeId::from_index(from as usize),
                NodeId::from_index(to as usize),
            )
            .expect("certified edge table is valid");
        }
        for &(fork, join) in self.blocking {
            b.blocking_pair(
                NodeId::from_index(fork as usize),
                NodeId::from_index(join as usize),
            )
            .expect("certified blocking table is valid");
        }
        b.build().expect("certified task graph is valid")
    }

    /// Rebuilds the [`Task`] (graph plus timing parameters).
    ///
    /// # Panics
    ///
    /// Like [`StaticTask::dag`], only on hand-forged tables.
    #[must_use]
    pub fn task(&self) -> Task {
        Task::new(self.dag(), self.period, self.deadline).expect("certified timing is valid")
    }
}

/// A codegen-certified workload: the const task tables plus the
/// [`DeadlockFree`] proof token that ties them to the pool size.
#[derive(Clone, Copy, Debug)]
pub struct CertifiedConfig<const M: usize, const B_BAR: usize> {
    /// The compile-time proof (its `const` evaluation is the gate).
    pub proof: DeadlockFree<M, B_BAR>,
    /// The certified tasks, in `.rtp` declaration (= priority) order.
    pub tasks: &'static [StaticTask],
    /// Provenance: the `.rtp` path the module was generated from.
    pub source: &'static str,
}

impl<const M: usize, const B_BAR: usize> CertifiedConfig<M, B_BAR> {
    /// The certified pool size.
    #[must_use]
    pub const fn workers(&self) -> usize {
        M
    }

    /// Rebuilds every task graph from the tables.
    #[must_use]
    pub fn dags(&self) -> Vec<Dag> {
        self.tasks.iter().map(StaticTask::dag).collect()
    }

    /// Rebuilds the full [`TaskSet`].
    #[must_use]
    pub fn task_set(&self) -> TaskSet {
        TaskSet::new(self.tasks.iter().map(StaticTask::task).collect())
    }

    /// The equivalent dynamic [`PoolConfig`]: `M` workers, global FIFO
    /// queue. [`ThreadPool::new_static`] uses exactly this
    /// configuration, so the static and dynamic construction paths are
    /// behaviorally identical (the differential suite at the workspace
    /// root asserts it).
    #[must_use]
    pub fn pool_config(&self) -> PoolConfig {
        PoolConfig::new(M, QueueDiscipline::GlobalFifo)
    }

    /// Recomputes the blocking bound from the tables and checks it
    /// against the const parameter. `Ok` for every codegen-emitted
    /// module; `Err` with the real bound for hand-forged tables.
    ///
    /// # Panics
    ///
    /// Panics (via [`StaticTask::dag`]) if the tables are not a valid
    /// model graph at all.
    pub fn verify_tables(&self) -> Result<(), usize> {
        let recomputed = self
            .tasks
            .iter()
            .map(|t| t.dag().max_blocking_antichain().len())
            .max()
            .unwrap_or(0);
        if recomputed == B_BAR {
            Ok(())
        } else {
            Err(recomputed)
        }
    }
}

impl ThreadPool {
    /// Constructs a pool from a codegen-certified configuration.
    ///
    /// Infallible by design: the deny-policy lint gate already ran at
    /// build time, and `M ≥ B_BAR + 1` was asserted during `const`
    /// evaluation of the proof token — configurations that could express
    /// the Figure 1 deadlock do not compile. Compare
    /// [`ThreadPool::try_new`], where the same defects surface as
    /// runtime errors (or as RT3xx findings of `lint_config`).
    ///
    /// # Panics
    ///
    /// Panics only on hand-forged tables whose recomputed blocking bound
    /// contradicts the declared `B_BAR` (see
    /// [`CertifiedConfig::verify_tables`]).
    #[must_use]
    pub fn new_static<const M: usize, const B_BAR: usize>(
        config: &CertifiedConfig<M, B_BAR>,
    ) -> ThreadPool {
        ThreadPool::new_static_with(config, |c| c)
    }

    /// Like [`ThreadPool::new_static`], customizing the underlying
    /// [`PoolConfig`] (time scale, tracing, fault injection, recovery,
    /// barrier backend) before the workers spawn.
    ///
    /// # Panics
    ///
    /// Panics on forged tables, and if `customize` changes the worker
    /// count or queue discipline — those two fields are what the
    /// certificate is *about*, so the certified path refuses to run with
    /// either altered.
    #[must_use]
    pub fn new_static_with<const M: usize, const B_BAR: usize>(
        config: &CertifiedConfig<M, B_BAR>,
        customize: impl FnOnce(PoolConfig) -> PoolConfig,
    ) -> ThreadPool {
        if let Err(real) = config.verify_tables() {
            panic!(
                "certified tables for {} declare b\u{304} = {B_BAR} but recompute to {real}: \
                 the config was not produced by rtpool-codegen",
                config.source
            );
        }
        let pool_config = customize(config.pool_config());
        assert!(
            pool_config.workers == M,
            "certified pool size is {M}; customize() must not change it"
        );
        assert!(
            matches!(pool_config.discipline, QueueDiscipline::GlobalFifo),
            "the certificate covers global FIFO scheduling; customize() must not change it"
        );
        ThreadPool::new(pool_config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-rolled tables standing in for codegen output: one blocking
    // fork-join (b̄ = 1) — Figure 1(a) shrunk to three branches of one.
    const NODES: &[StaticNode] = &[
        StaticNode { name: "f", wcet: 1 },
        StaticNode { name: "j", wcet: 1 },
        StaticNode { name: "a", wcet: 2 },
        StaticNode { name: "b", wcet: 2 },
    ];
    const EDGES: &[(u32, u32)] = &[(0, 2), (0, 3), (2, 1), (3, 1)];
    const BLOCKING: &[(u32, u32)] = &[(0, 1)];
    const TASKS: &[StaticTask] = &[StaticTask {
        period: 100,
        deadline: 100,
        nodes: NODES,
        edges: EDGES,
        blocking: BLOCKING,
    }];
    const CONFIG: CertifiedConfig<2, 1> = CertifiedConfig {
        proof: DeadlockFree::CERTIFIED,
        tasks: TASKS,
        source: "tests/inline",
    };

    #[test]
    fn token_exposes_certified_quantities() {
        assert_eq!(CONFIG.proof.m(), 2);
        assert_eq!(CONFIG.proof.b_bar(), 1);
        assert_eq!(CONFIG.proof.floor(), 1);
        assert_eq!(CONFIG.workers(), 2);
    }

    #[test]
    fn tables_rebuild_the_graph() {
        let dags = CONFIG.dags();
        assert_eq!(dags.len(), 1);
        assert_eq!(dags[0].node_count(), 4);
        assert_eq!(dags[0].blocking_regions().len(), 1);
        assert_eq!(dags[0].max_blocking_antichain().len(), 1);
        let set = CONFIG.task_set();
        assert_eq!(set.task(rtpool_core::TaskId(0)).period(), 100);
        assert!(CONFIG.verify_tables().is_ok());
    }

    #[test]
    fn new_static_runs_the_certified_workload() {
        let mut pool =
            ThreadPool::new_static_with(&CONFIG, |c| c.with_time_scale(std::time::Duration::ZERO));
        assert_eq!(pool.workers(), 2);
        for dag in CONFIG.dags() {
            let report = pool.run(&dag).expect("certified workload cannot stall");
            assert_eq!(report.executed_nodes, dag.node_count());
            // l(t) never drops below the certified floor l̄ = m − b̄.
            assert!(report.min_available_workers >= CONFIG.proof.floor());
        }
    }

    #[test]
    #[should_panic(expected = "not produced by rtpool-codegen")]
    fn forged_b_bar_is_caught_at_construction() {
        // Same tables, but declaring b̄ = 0 (and thus accepting m = 1,
        // which would deadlock on the real graph).
        const FORGED: CertifiedConfig<1, 0> = CertifiedConfig {
            proof: DeadlockFree::CERTIFIED,
            tasks: TASKS,
            source: "tests/forged",
        };
        let _ = ThreadPool::new_static(&FORGED);
    }

    #[test]
    #[should_panic(expected = "must not change it")]
    fn customize_cannot_shrink_the_pool() {
        let _ = ThreadPool::new_static_with(&CONFIG, |mut c| {
            c.workers = 1;
            c
        });
    }
}
