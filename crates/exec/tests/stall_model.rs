//! Exhaustive interleaving model of the partitioned dispatch protocol and
//! its stall check.
//!
//! The pool's stall check (`maybe_stall_locked` in `src/engine.rs`) loads
//! the packed dispatch counter, scans the per-owner queues, and declares
//! a stall when nothing is fetchable. Fetches and publishes are
//! lock-free, so the scan can interleave with an owner's pop. This file
//! models the protocol as atomic steps, one per shared-memory access of
//! the engine, except that a completer's pending-count updates, the
//! scan's read of one owner's flag and queue, and the marking of a ready
//! join under `ctl` are single steps. It explores every interleaving of
//! up to three workers with a depth-first search over visited states:
//!
//! * fetch: pre-increment `executing`, pop the own queue, then settle
//!   `queued` or back the increment out;
//! * complete: advance `ticket`, resolve successors (a ready join under
//!   `ctl`), publish `queued`, push, wake owners, then chain into the next
//!   own node or leave `executing`;
//! * blocking fork: suspend under `ctl`, run the check, wait on the
//!   condvar, and wake into the join;
//! * park: publish `PARKED`, re-check the own queue, run the check when
//!   the counter allows a stall, sleep until notified;
//! * the check itself, in a single-load order (ticket, counter, then the
//!   scan) and in the engine's order (ticket and counter read again after
//!   the scan, bail if either moved).
//!
//! Two properties are checked on every reachable state. **No false
//! stall:** when the check declares a stall, no worker holds a node, no
//! join is ready and no queued node sits at an owner that is not
//! suspended. **No missed stall:** no state is left in which every
//! worker is blocked and the job neither finished nor was declared
//! stalled. The single-load order violates the first property; the
//! engine's order satisfies both.

use std::collections::HashSet;

use rtpool_core::partition::{algorithm1, NodeMapping};
use rtpool_core::{deadlock, ConcurrencyAnalysis};
use rtpool_graph::{Dag, DagBuilder, NodeId, NodeKind};

/// Step order of the stall check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Order {
    /// One ticket and one counter load before the scan.
    SingleLoad,
    /// The engine's order: ticket and counter re-read after the scan.
    Revalidated,
}

/// The graph and mapping under test, flattened for the model.
struct Model {
    order: Order,
    workers: usize,
    nodes: usize,
    succ: Vec<Vec<usize>>,
    kind: Vec<NodeKind>,
    /// `join[v]`: the paired join of a blocking fork `v`.
    join: Vec<usize>,
    owner: Vec<usize>,
    sink: usize,
    preds: Vec<u8>,
    source: usize,
}

impl Model {
    fn new(dag: &Dag, mapping: &NodeMapping, order: Order) -> Self {
        assert!(dag.node_count() <= 8 && mapping.pool_size() <= 3);
        let ids: Vec<NodeId> = dag.node_ids().collect();
        Model {
            order,
            workers: mapping.pool_size(),
            nodes: dag.node_count(),
            succ: ids
                .iter()
                .map(|&v| dag.successors(v).iter().map(|s| s.index()).collect())
                .collect(),
            kind: ids.iter().map(|&v| dag.kind(v)).collect(),
            join: ids
                .iter()
                .map(|&v| dag.blocking_join_of(v).map_or(usize::MAX, NodeId::index))
                .collect(),
            owner: ids.iter().map(|&v| mapping.thread_of(v).index()).collect(),
            sink: dag.sink().index(),
            preds: ids
                .iter()
                .map(|&v| u8::try_from(dag.predecessors(v).len()).unwrap())
                .collect(),
            source: dag.source().index(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Park {
    Active,
    Parked,
    Notified,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Status {
    Running,
    Finished,
    Stalled,
}

/// Program counter of one worker. Each variant is the next atomic step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// Serve-loop head: exit if done, else pre-increment `executing`.
    Head,
    /// Pop the own queue.
    Pop,
    /// Popped `node`: `queued -= 1`.
    Settle,
    /// Failed pop: `executing -= 1`.
    BackOut,
    /// Publish `PARKED`.
    PublishPark,
    /// Dekker re-check of the own queue (and `done`).
    Recheck,
    /// Load the counter: go on when nobody executes and no join is ready.
    PreCheck,
    /// Load the ticket: run the check when nodes remain.
    PreCheckTicket,
    /// After the park-path check: exit if done, else sleep.
    PostCheck,
    /// Sleep until notified or done.
    Sleep,
    /// Acquire `ctl` for the park-path check.
    Lock,
    CheckTicket,
    CheckCtr,
    /// Scan queue `scan` (and its owner's suspension flag).
    Scan,
    RereadCtr,
    RereadTicket,
    Decide,
    /// Run `node`'s body and advance `ticket`.
    Complete,
    /// Resolve successors: pending counts, ready set, join readiness.
    Resolve,
    /// Mark the opened join ready under `ctl`.
    JoinReady,
    /// `queued += |ready|`.
    Publish,
    /// Push one ready node to its owner's queue.
    Push,
    /// Wake one ready node's owner.
    Wake,
    /// Chain: exit if done, else pop the own queue.
    ChainPop,
    /// Chained pop succeeded: `queued -= 1`.
    ChainSettle,
    /// Leave `executing`.
    Leave,
    /// The sink completed: leave `executing`...
    SinkLeave,
    /// ...and finish the job under `ctl`.
    SinkFinish,
    /// Blocking fork: swap `executing` for `suspended` under `ctl`.
    Suspend,
    /// Barrier loop head (holding `ctl`).
    BarrierLoop,
    /// After the barrier-path check (holding `ctl`): wait or abandon.
    BarrierAfterCheck,
    /// Condvar wait: re-acquire `ctl` once the join is ready or done.
    BarrierWait,
    /// Join ready: `suspended -= 1` (holding `ctl`).
    BarrierUnsuspend,
    /// `executing += 1`, release `ctl`, run the join.
    BarrierExec,
    /// Job ended while suspended: `suspended -= 1`, release `ctl`.
    BarrierAbandon,
    Exit,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Worker {
    pc: Pc,
    /// Node being executed (the fork while on a barrier).
    node: u8,
    /// Ready successors still to push (node mask).
    to_push: u8,
    /// Ready successors whose owner is still to wake (node mask).
    to_wake: u8,
    /// The check runs from the barrier loop (else from the park path).
    in_barrier: bool,
    snap_ticket: u8,
    snap_ctr: u32,
    scan: u8,
    fetchable: bool,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct State {
    queued: u8,
    executing: u8,
    suspended: u8,
    ready_joins: u8,
    ticket: u8,
    pending: Vec<u8>,
    queues: Vec<Vec<u8>>,
    join_ready: u8,
    /// Worker mask of suspension flags.
    worker_suspended: u8,
    parking: Vec<Park>,
    status: Status,
    ctl: Option<u8>,
    workers: Vec<Worker>,
}

impl State {
    fn initial(model: &Model) -> Self {
        let mut queues = vec![Vec::new(); model.workers];
        queues[model.owner[model.source]].push(model.source as u8);
        let idle = Worker {
            pc: Pc::Head,
            node: 0,
            to_push: 0,
            to_wake: 0,
            in_barrier: false,
            snap_ticket: 0,
            snap_ctr: 0,
            scan: 0,
            fetchable: false,
        };
        State {
            queued: 1,
            executing: 0,
            suspended: 0,
            ready_joins: 0,
            ticket: 0,
            pending: model.preds.clone(),
            queues,
            join_ready: 0,
            worker_suspended: 0,
            parking: vec![Park::Active; model.workers],
            status: Status::Running,
            ctl: None,
            workers: vec![idle; model.workers],
        }
    }

    fn ctr(&self) -> u32 {
        u32::from_le_bytes([
            self.queued,
            self.executing,
            self.suspended,
            self.ready_joins,
        ])
    }

    fn done(&self) -> bool {
        self.status != Status::Running
    }

    fn suspended_flag(&self, w: usize) -> bool {
        self.worker_suspended & (1 << w) != 0
    }

    /// Ground truth: no node can ever run again.
    fn truly_stalled(&self) -> bool {
        let holding = self.workers.iter().any(|w| {
            matches!(
                w.pc,
                Pc::Settle
                    | Pc::ChainSettle
                    | Pc::Complete
                    | Pc::Resolve
                    | Pc::JoinReady
                    | Pc::Publish
                    | Pc::Push
                    | Pc::Wake
                    | Pc::SinkLeave
                    | Pc::SinkFinish
                    | Pc::BarrierUnsuspend
                    | Pc::BarrierExec
            )
        });
        let fetchable =
            (0..self.queues.len()).any(|o| !self.suspended_flag(o) && !self.queues[o].is_empty());
        !holding && !fetchable && self.ready_joins == 0
    }
}

/// What one step did, beyond moving to the next state.
enum Event {
    None,
    /// The check declared a stall; `false` when it was not a real one.
    Stall {
        genuine: bool,
    },
}

/// Runs worker `w`'s next step, or returns `None` while it is blocked.
#[allow(clippy::too_many_lines)]
fn step(model: &Model, s: &State, w: usize) -> Option<(State, Event)> {
    let mut t = s.clone();
    let me = w as u8;
    let mut ev = Event::None;
    let cur = s.workers[w];
    let mut next = cur;
    let lock_free = s.ctl.is_none();
    // Ends the check: park-path checks release `ctl`, barrier-path
    // checks keep it (the barrier loop holds it throughout).
    let end_check = |t: &mut State, next: &mut Worker| {
        next.snap_ticket = 0;
        next.snap_ctr = 0;
        next.scan = 0;
        next.fetchable = false;
        if next.in_barrier {
            next.pc = Pc::BarrierAfterCheck;
        } else {
            t.ctl = None;
            next.pc = Pc::PostCheck;
        }
    };
    match cur.pc {
        Pc::Exit => return None,
        Pc::Head => {
            if s.done() {
                next.pc = Pc::Exit;
            } else {
                t.executing += 1;
                next.pc = Pc::Pop;
            }
        }
        Pc::Pop => {
            if t.queues[w].is_empty() {
                next.pc = Pc::BackOut;
            } else {
                next.node = t.queues[w].remove(0);
                next.pc = Pc::Settle;
            }
        }
        Pc::Settle => {
            t.queued -= 1;
            next.pc = Pc::Complete;
        }
        Pc::BackOut => {
            t.executing -= 1;
            next.pc = Pc::PublishPark;
        }
        Pc::PublishPark => {
            t.parking[w] = Park::Parked;
            next.pc = Pc::Recheck;
        }
        Pc::Recheck => {
            if s.done() || !s.queues[w].is_empty() {
                t.parking[w] = Park::Active;
                next.pc = Pc::Head;
            } else {
                next.pc = Pc::PreCheck;
            }
        }
        Pc::PreCheck => {
            next.pc = if s.executing == 0 && s.ready_joins == 0 {
                Pc::PreCheckTicket
            } else {
                Pc::PostCheck
            };
        }
        Pc::PreCheckTicket => {
            next.in_barrier = false;
            next.pc = if usize::from(s.ticket) < model.nodes {
                Pc::Lock
            } else {
                Pc::PostCheck
            };
        }
        Pc::PostCheck => {
            if s.done() {
                t.parking[w] = Park::Active;
                next.pc = Pc::Exit;
            } else {
                next.pc = Pc::Sleep;
            }
        }
        Pc::Sleep => {
            if s.parking[w] != Park::Notified && !s.done() {
                return None;
            }
            t.parking[w] = Park::Active;
            next.pc = Pc::Head;
        }
        Pc::Lock => {
            if !lock_free {
                return None;
            }
            t.ctl = Some(me);
            next.pc = Pc::CheckTicket;
        }
        Pc::CheckTicket => {
            if s.done() || usize::from(s.ticket) >= model.nodes {
                end_check(&mut t, &mut next);
            } else {
                next.snap_ticket = s.ticket;
                next.pc = Pc::CheckCtr;
            }
        }
        Pc::CheckCtr => {
            if s.executing > 0 || s.ready_joins > 0 {
                end_check(&mut t, &mut next);
            } else {
                next.snap_ctr = s.ctr();
                next.scan = 0;
                next.fetchable = false;
                next.pc = Pc::Scan;
            }
        }
        Pc::Scan => {
            let o = usize::from(cur.scan);
            next.fetchable |= !s.suspended_flag(o) && !s.queues[o].is_empty();
            next.scan += 1;
            if usize::from(next.scan) == model.workers {
                next.pc = match model.order {
                    Order::SingleLoad => Pc::Decide,
                    Order::Revalidated => Pc::RereadCtr,
                };
            }
        }
        Pc::RereadCtr => {
            if cur.fetchable || s.ctr() != cur.snap_ctr {
                end_check(&mut t, &mut next);
            } else {
                next.pc = Pc::RereadTicket;
            }
        }
        Pc::RereadTicket => {
            if s.ticket == cur.snap_ticket {
                next.pc = Pc::Decide;
            } else {
                end_check(&mut t, &mut next);
            }
        }
        Pc::Decide => {
            if !cur.fetchable {
                ev = Event::Stall {
                    genuine: s.truly_stalled(),
                };
                t.status = Status::Stalled;
                for p in &mut t.parking {
                    *p = Park::Notified;
                }
            }
            end_check(&mut t, &mut next);
        }
        Pc::Complete => {
            t.ticket += 1;
            next.pc = Pc::Resolve;
        }
        Pc::Resolve => {
            let v = usize::from(cur.node);
            next.to_push = 0;
            let mut opened = false;
            for &x in &model.succ[v] {
                t.pending[x] -= 1;
                if t.pending[x] == 0 {
                    if model.kind[x] == NodeKind::BlockingJoin {
                        opened = true;
                    } else {
                        next.to_push |= 1 << x;
                    }
                }
            }
            next.to_wake = next.to_push;
            next.pc = if v == model.sink {
                Pc::SinkLeave
            } else if opened {
                Pc::JoinReady
            } else {
                Pc::Publish
            };
        }
        Pc::JoinReady => {
            if !lock_free {
                return None;
            }
            // Lock, mark, count, unlock: one step for every other worker.
            let v = usize::from(cur.node);
            let join = model.succ[v]
                .iter()
                .copied()
                .find(|&x| model.kind[x] == NodeKind::BlockingJoin && t.pending[x] == 0)
                .expect("an opened join");
            t.join_ready |= 1 << join;
            t.ready_joins += 1;
            next.pc = Pc::Publish;
        }
        Pc::Publish => {
            t.queued += cur.to_push.count_ones() as u8;
            next.pc = Pc::Push;
        }
        Pc::Push => {
            if cur.to_push == 0 {
                next.pc = Pc::Wake;
            } else {
                let x = cur.to_push.trailing_zeros() as usize;
                t.queues[model.owner[x]].push(x as u8);
                next.to_push &= !(1 << x);
            }
        }
        Pc::Wake => {
            if cur.to_wake == 0 {
                let v = usize::from(cur.node);
                next.pc = if model.kind[v] == NodeKind::BlockingFork {
                    Pc::Suspend
                } else {
                    Pc::ChainPop
                };
            } else {
                let x = cur.to_wake.trailing_zeros() as usize;
                let o = model.owner[x];
                if t.parking[o] == Park::Parked {
                    t.parking[o] = Park::Notified;
                }
                next.to_wake &= !(1 << x);
            }
        }
        Pc::ChainPop => {
            if s.done() || t.queues[w].is_empty() {
                next.pc = Pc::Leave;
            } else {
                next.node = t.queues[w].remove(0);
                next.pc = Pc::ChainSettle;
            }
        }
        Pc::ChainSettle => {
            t.queued -= 1;
            next.pc = Pc::Complete;
        }
        Pc::Leave => {
            t.executing -= 1;
            next.pc = Pc::Head;
        }
        Pc::SinkLeave => {
            t.executing -= 1;
            next.pc = Pc::SinkFinish;
        }
        Pc::SinkFinish => {
            if !lock_free {
                return None;
            }
            t.status = Status::Finished;
            for p in &mut t.parking {
                *p = Park::Notified;
            }
            next.pc = Pc::Exit;
        }
        Pc::Suspend => {
            if !lock_free {
                return None;
            }
            t.ctl = Some(me);
            t.executing -= 1;
            t.suspended += 1;
            t.worker_suspended |= 1 << w;
            next.pc = Pc::BarrierLoop;
        }
        Pc::BarrierLoop => {
            let join = model.join[usize::from(cur.node)];
            if s.done() {
                next.pc = Pc::BarrierAbandon;
            } else if s.join_ready & (1 << join) != 0 {
                t.join_ready &= !(1 << join);
                t.ready_joins -= 1;
                next.pc = Pc::BarrierUnsuspend;
            } else {
                next.in_barrier = true;
                next.pc = Pc::CheckTicket;
            }
        }
        Pc::BarrierAfterCheck => {
            if s.done() {
                next.pc = Pc::BarrierAbandon;
            } else {
                t.ctl = None;
                next.pc = Pc::BarrierWait;
            }
        }
        Pc::BarrierWait => {
            let join = model.join[usize::from(cur.node)];
            if !lock_free || (s.join_ready & (1 << join) == 0 && !s.done()) {
                return None;
            }
            t.ctl = Some(me);
            next.pc = Pc::BarrierLoop;
        }
        Pc::BarrierUnsuspend => {
            t.suspended -= 1;
            t.worker_suspended &= !(1 << w);
            next.pc = Pc::BarrierExec;
        }
        Pc::BarrierExec => {
            t.executing += 1;
            t.ctl = None;
            next.node = model.join[usize::from(cur.node)] as u8;
            next.pc = Pc::Complete;
        }
        Pc::BarrierAbandon => {
            t.suspended -= 1;
            t.worker_suspended &= !(1 << w);
            t.ctl = None;
            next.pc = Pc::Head;
        }
    }
    if next.pc == Pc::Head {
        next.node = 0;
        next.in_barrier = false;
    }
    t.workers[w] = next;
    Some((t, ev))
}

/// What the search found.
#[derive(Debug, Default)]
struct Outcome {
    states: usize,
    finished: usize,
    stalled: usize,
    /// Terminal states in which the job neither finished nor stalled.
    hung: usize,
    /// Steps back to a state already on the search path.
    cycles: usize,
    /// Every false stall found, each as the schedule that reached it:
    /// `(worker, step)` pairs, the last one the verdict.
    false_stalls: Vec<Vec<(usize, Pc)>>,
}

fn explore(model: &Model) -> Outcome {
    let mut out = Outcome::default();
    let mut seen = HashSet::new();
    let mut on_path = HashSet::new();
    let mut path = Vec::new();
    dfs(
        model,
        State::initial(model),
        &mut seen,
        &mut on_path,
        &mut path,
        &mut out,
    );
    out.states = seen.len();
    out
}

fn dfs(
    model: &Model,
    s: State,
    seen: &mut HashSet<State>,
    on_path: &mut HashSet<State>,
    path: &mut Vec<(usize, Pc)>,
    out: &mut Outcome,
) {
    if !seen.insert(s.clone()) {
        if on_path.contains(&s) {
            out.cycles += 1;
        }
        return;
    }
    on_path.insert(s.clone());
    let mut moved = false;
    for w in 0..model.workers {
        let Some((t, ev)) = step(model, &s, w) else {
            continue;
        };
        moved = true;
        path.push((w, s.workers[w].pc));
        if let Event::Stall { genuine: false } = ev {
            out.false_stalls.push(path.clone());
        }
        dfs(model, t, seen, on_path, path, out);
        path.pop();
    }
    if !moved {
        match s.status {
            Status::Finished => out.finished += 1,
            Status::Stalled => out.stalled += 1,
            Status::Running => out.hung += 1,
        }
    }
    on_path.remove(&s);
}

/// A graph with the mapping Algorithm 1 certifies for `m` workers.
fn certified(dag: &Dag, m: usize) -> NodeMapping {
    let mapping = algorithm1(dag, m).expect("Algorithm 1 maps the graph");
    let ca = ConcurrencyAnalysis::new(dag);
    assert!(deadlock::check_partitioned(&ca, m, &mapping).is_deadlock_free());
    mapping
}

/// A two-node chain whose source and sink are mapped to different
/// workers: the smallest hand-off across owners.
fn handoff() -> (Dag, NodeMapping) {
    let mut b = DagBuilder::new();
    let a = b.add_node(1);
    let z = b.add_node(1);
    b.add_edge(a, z).unwrap();
    let dag = b.build().unwrap();
    let mapping = NodeMapping::from_threads(&dag, 2, vec![1, 0]).unwrap();
    (dag, mapping)
}

fn fork_join(children: usize) -> Dag {
    let mut b = DagBuilder::new();
    b.fork_join(1, &vec![1; children], 1, true).unwrap();
    b.build().unwrap()
}

/// Figure 1(c) in miniature: two blocking replicas of one child each
/// between a source and a sink.
fn two_replicas() -> Dag {
    let mut b = DagBuilder::new();
    let src = b.add_node(1);
    let snk = b.add_node(1);
    for _ in 0..2 {
        let (f, j) = b.fork_join(1, &[1], 1, true).unwrap();
        b.add_edge(src, f).unwrap();
        b.add_edge(j, snk).unwrap();
    }
    b.build().unwrap()
}

/// Certified graph/mapping pairs for two and three workers.
fn certified_cases() -> Vec<(&'static str, Dag, NodeMapping)> {
    let (chain, chain_map) = handoff();
    let fj2 = fork_join(2);
    let fj2_map = certified(&fj2, 2);
    let fj3 = fork_join(2);
    let fj3_map = certified(&fj3, 3);
    let reps = two_replicas();
    let reps_map = certified(&reps, 3);
    vec![
        ("hand-off, m = 2", chain, chain_map),
        ("blocking fork-join, m = 2", fj2, fj2_map),
        ("blocking fork-join, m = 3", fj3, fj3_map),
        ("two blocking replicas, m = 3", reps, reps_map),
    ]
}

/// Whether some other worker took `step` after the checker's `load` step
/// and before its verdict (the last step of `schedule`).
fn inside_check(schedule: &[(usize, Pc)], load: Pc, step: Pc) -> bool {
    let Some(&(checker, Pc::Decide)) = schedule.last() else {
        return false;
    };
    let load = schedule
        .iter()
        .rposition(|&s| s == (checker, load))
        .expect("the verdict follows the check's loads");
    schedule[load..]
        .iter()
        .any(|&(w, pc)| w != checker && pc == step)
}

#[test]
fn single_load_check_declares_false_stalls() {
    let (dag, mapping) = handoff();
    let out = explore(&Model::new(&dag, &mapping, Order::SingleLoad));
    // The race: the checker loads `executing = 0, queued = 1`, the owner
    // pre-increments and pops, and the scan finds no queue with work.
    assert!(
        out.false_stalls
            .iter()
            .any(|s| inside_check(s, Pc::CheckCtr, Pc::Pop)),
        "the single-load order must admit the pop race: {:?}",
        out.false_stalls
    );
    // A second one: the checker loads `ticket` before the sink completes
    // and the counter after the sink's worker left `executing`, so the
    // finished job is reported stalled.
    assert!(
        out.false_stalls
            .iter()
            .any(|s| inside_check(s, Pc::CheckTicket, Pc::SinkLeave)),
        "{:?}",
        out.false_stalls
    );
}

#[test]
fn revalidated_check_never_declares_a_false_stall_and_never_misses_one() {
    for (name, dag, mapping) in certified_cases() {
        let out = explore(&Model::new(&dag, &mapping, Order::Revalidated));
        assert!(
            out.false_stalls.is_empty(),
            "{name}: false stall via {:?}",
            out.false_stalls
        );
        assert_eq!(out.hung, 0, "{name}: a blocked job was never declared");
        assert_eq!(out.cycles, 0, "{name}: livelock");
        assert_eq!(out.stalled, 0, "{name}: certified mapping stalled");
        assert!(out.finished > 0 && out.states > 50, "{name}: {out:?}");
    }
}

#[test]
fn revalidated_check_declares_every_genuine_stall() {
    // Mappings that put a blocking fork's children behind the fork on
    // the same worker: the partitioned stall of Lemma 3. Every
    // interleaving must end in a declared stall, never in a hang.
    let fj = fork_join(2);
    let one_worker = NodeMapping::from_threads(&fj, 1, vec![0; 4]).unwrap();
    let reps = two_replicas();
    // Each fork shares a worker with its own child.
    let behind = {
        let mut threads = vec![0; reps.node_count()];
        for (f, t) in reps.blocking_forks().iter().zip([0, 1]) {
            threads[f.index()] = t;
            for &c in reps.successors(*f) {
                threads[c.index()] = t;
            }
        }
        NodeMapping::from_threads(&reps, 2, threads).unwrap()
    };
    for (name, dag, mapping) in [
        ("blocking fork-join, m = 1", fj, one_worker),
        (
            "two blocking replicas behind their forks, m = 2",
            reps,
            behind,
        ),
    ] {
        let ca = ConcurrencyAnalysis::new(&dag);
        let m = mapping.pool_size();
        assert!(!deadlock::check_partitioned(&ca, m, &mapping).is_deadlock_free());
        let out = explore(&Model::new(&dag, &mapping, Order::Revalidated));
        assert!(
            out.false_stalls.is_empty(),
            "{name}: {:?}",
            out.false_stalls
        );
        assert_eq!(out.hung, 0, "{name}: a genuine stall was missed");
        assert_eq!(out.cycles, 0, "{name}: livelock");
        assert!(out.stalled > 0, "{name}: {out:?}");
        assert_eq!(out.finished, 0, "{name}: {out:?}");
    }
}
