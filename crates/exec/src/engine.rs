//! The dispatch engine behind [`ThreadPool`](crate::ThreadPool):
//! lock-free injector/stealer queues with atomic parking.
//!
//! * ready nodes travel through **lock-free queues** (a bounded MPMC
//!   injector for the global discipline, Chase-Lev deques plus an
//!   injector for work stealing, per-worker injectors for partitioned);
//! * all bookkeeping the exact stall detector needs lives in **one packed
//!   `AtomicU64`** (`queued | executing | suspended | fake | ready_joins`)
//!   so a single load yields a consistent snapshot of the counts;
//! * idle workers sleep via **atomic parking** (`thread::park`) and are
//!   woken *individually*: a completion that readies one node unparks
//!   exactly one worker instead of broadcasting to all `m`.
//!
//! A condvar (per-job `ctl`) survives in exactly one place: the
//! Listing-1 **blocking-join suspension**. The paper's model *requires*
//! the worker that completed a `BF` node to suspend until the barrier
//! opens and then run the `BJ` continuation itself; that is a
//! wait-for-predicate, not a wait-for-work, and a condvar is the honest
//! primitive for it. Artificial (fault-injected) suspensions and the
//! submitter's watchdog wait share the same condvar — none of them are on
//! the dispatch path.
//!
//! ## Memory ordering
//!
//! Every atomic here uses `SeqCst`, so all reasoning can be done in one
//! total order. The lost-wakeup-freedom argument is Dekker-style:
//!
//! * a producer *pushes* the node (and increments `queued`) **before**
//!   scanning for a parked worker to unpark;
//! * a consumer *publishes* `PARKED` **before** re-checking the queues
//!   one final time and calling `thread::park`.
//!
//! In the `SeqCst` total order either the consumer's publish precedes the
//! producer's scan (the scan sees `PARKED` and unparks — `unpark` before
//! `park` leaves a token, so the park returns immediately) or the
//! producer's push precedes the consumer's re-check (the re-check sees
//! the node and the consumer un-parks itself). There is no interleaving
//! in which the node is pushed, the worker sleeps, and nobody is woken.
//!
//! ## The counter protocol
//!
//! The stall detector's soundness relies on one invariant: at every
//! instant of a node hand-off, the counter shows the node in `queued`
//! or its worker in `executing` (or both) — never neither. The fetch
//! protocol maintains it per discipline:
//!
//! * **Partitioned** pre-increments — the worker enters `executing`
//!   *before* popping its injector and backs the increment out on
//!   failure (targeted wakes mean a pop can race its own owner);
//! * **Global / work stealing** post-swaps — a successful pop is
//!   followed by one `fetch_add(EXEC_ONE − QUEUED_ONE)`, atomically
//!   moving the node from `queued` to `executing`;
//! * a **completer** advances `ticket`, then publishes all ready
//!   successors with a single folded `fetch_add(n × QUEUED_ONE)` while
//!   still counted `executing`, then either *chains* — pops its next
//!   node physically and converts with `fetch_sub(QUEUED_ONE)`, staying
//!   in `executing` throughout (the steady state costs one counter RMW
//!   per node) — or leaves `executing` once nothing is fetchable.
//!
//! Any in-flight transfer therefore shows `queued ≥ 1` or
//! `executing ≥ 1` to the detector, so "no worker executing, nothing
//! fetchable" can never be observed mid-handoff.
//!
//! ## The stall check
//!
//! [`maybe_stall_locked`] declares a stall when nobody executes, no join
//! is ready, and no queued node is fetchable by a worker that is not
//! suspended. It runs under `ctl`, which every suspension, wake and
//! growth step also takes, so suspension flags and the active worker
//! count hold still while it runs. The queues do not: fetches and
//! publishes are lock-free.
//!
//! For the global and work-stealing disciplines fetchability follows
//! from the counter alone. The partitioned check must also scan the
//! per-owner injectors, and a scan is not atomic with a counter load.
//! Reading `ctr` once and then scanning lets an owner pre-increment and
//! pop between the two: the load says `executing = 0, queued = 1`, the
//! scan finds every queue empty, and a running job is declared stalled.
//! Likewise the sink can complete between the `ticket` load and the
//! `ctr` load, and a finished job is declared stalled. So the check
//! reads `ticket` and `ctr` before the scan and again after it, and
//! decides only if both are unchanged. Equal values prove the scan saw
//! the queues of one instant:
//!
//! * no pop succeeded in between — a pop pre-increments `executing`
//!   (the first load saw 0) and lowers `queued`, and `queued` rises again
//!   only by a completer's publish, which follows its `ticket` advance;
//! * no push landed in between — a completer stays `executing` from its
//!   `ticket` advance until its pushes are done, so its pushes either
//!   finished before the first load or move `ticket` after it.
//!
//! **Liveness.** A bail-out leaves the verdict to the worker whose action
//! changed `ctr` or `ticket`, because every action that can lead to a
//! stall ends in a check by its actor: a worker that leaves `executing`
//! without a next node re-reads `ctr` before it parks and runs the check
//! when it sees `executing = 0` and no ready join (if it sees another
//! executor, that one re-checks when it leaves); a worker that suspends
//! on a barrier, or by an injected suspension, runs the check under
//! `ctl` before it waits; a completer stays `executing` and ends in one
//! of these paths. Since `ctl` serializes checks, the actor's check runs
//! after the bailed-out one. In a genuine stall (Figure 1(c)) nothing
//! moves after the last such action, so that actor's two reads agree
//! and the stall is declared. `tests/stall_model.rs` explores every
//! interleaving of this protocol for up to three workers and checks
//! both directions: no false stall, no missed stall.
//!
//! ## Wake-ups
//!
//! Wake-ups are **ramped, not broadcast**: a completion unparks at most
//! one worker however many successors it readied, and each worker that
//! subsequently fetches a node while the queues are still non-empty
//! recruits one more. Throughput-neutral for chains (width 1), and for
//! wide fan-outs the recruitment doubles the active set per dispatch
//! round while saving the per-job `m`-wide futex storm that broadcast
//! wakes cost at every fork.
//!
//! ## Freeing job state
//!
//! Workers never drop their handle on a job's [`JobCore`]: they push it
//! onto the pool slot's `retired` list, which the submitting thread
//! empties. The last handle, and with it every per-job allocation (the
//! graph copy, queues, counters, spans), is therefore freed on the thread
//! that allocated it. Frees on worker threads would be kept in each
//! worker's allocator cache instead — one cache per worker of every
//! pool, which a process holding many pools pays in resident memory.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crossbeam_deque::{Injector, Steal, Stealer, Worker as CbWorker};
use parking_lot::{Condvar, Mutex, MutexGuard};
use rtpool_graph::{Dag, NodeId, NodeKind};
use rtpool_trace::{assemble, EngineKind, EventKind, LaneRecorder, SeqClock, TimeUnit, Trace};

use crate::config::{PoolConfig, QueueDiscipline};
use crate::error::ExecError;
use crate::pool::FailedAttempt;
use crate::recovery::{RecoveryEvent, RecoveryPolicy};
use crate::report::{JobReport, NodeSpan};

/// Saturating index conversion for trace events.
fn u32c(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// Saturating nanosecond conversion for trace timestamps.
fn dur_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Simulates `wcet` units of sequential work.
fn busy_work(wcet: u64, time_scale: Duration) {
    if time_scale.is_zero() || wcet == 0 {
        return;
    }
    thread::sleep(time_scale.saturating_mul(u32::try_from(wcet).unwrap_or(u32::MAX)));
}

// ---------------------------------------------------------------------
// Packed dispatch counter: queued:24 | executing:8 | suspended:8 |
// fake:8 | ready_joins:16. One fetch_add updates any combination; one
// load yields a consistent snapshot for the stall detector.
// ---------------------------------------------------------------------

const QUEUED_ONE: u64 = 1;
const QUEUED_MASK: u64 = (1 << 24) - 1;
const EXEC_ONE: u64 = 1 << 24;
const SUSP_ONE: u64 = 1 << 32;
const FAKE_ONE: u64 = 1 << 40;
const RJ_ONE: u64 = 1 << 48;

/// Decoded snapshot of the packed dispatch counter.
#[derive(Clone, Copy)]
struct Counts {
    queued: usize,
    executing: usize,
    suspended: usize,
    fake: usize,
    ready_joins: usize,
}

fn unpack(v: u64) -> Counts {
    Counts {
        queued: (v & QUEUED_MASK) as usize,
        executing: ((v >> 24) & 0xFF) as usize,
        suspended: ((v >> 32) & 0xFF) as usize,
        fake: ((v >> 40) & 0xFF) as usize,
        ready_joins: (v >> 48) as usize,
    }
}

// Parking protocol states (one AtomicU32 per worker slot).
const ACTIVE: u32 = 0;
const PARKED: u32 = 1;
const NOTIFIED: u32 = 2;

/// The 8-bit `executing`/`suspended` counter fields bound the worker
/// count (permanent plus growth reserve).
pub(crate) const MAX_WORKERS: usize = 255;

/// Spin-loop hint iterations between control-lock re-acquisitions of a
/// busy-waiting worker ([`crate::SyncBackend::Spin`]). Large enough that
/// `ctl` is not hammered, small enough that a barrier opening is
/// observed promptly (the whole point of spinning).
const SPIN_BATCH: u32 = 64;

/// Largest graph the 16-bit `ready_joins` field can serve.
pub(crate) const MAX_NODES: usize = (1 << 16) - 1;

// ---------------------------------------------------------------------
// Pool shell: permanent workers + a job slot they watch.
// ---------------------------------------------------------------------

/// The engine behind the [`ThreadPool`](crate::ThreadPool) facade.
pub(crate) struct Dispatcher {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Epoch-bound rescue workers spawned by `GrowPool` recovery; they
    /// retire when their job ends and are joined on drop.
    rescue_handles: Vec<thread::JoinHandle<()>>,
    next_epoch: u64,
}

struct Shared {
    config: PoolConfig,
    slot: Mutex<JobSlot>,
    /// Wakes idle permanent workers when a job is installed (or the pool
    /// shuts down). Not on the dispatch path.
    cv: Condvar,
}

struct JobSlot {
    shutdown: bool,
    job: Option<Arc<JobCore>>,
    /// Job handles workers have finished with, dropped by the submitter
    /// (see "Freeing job state" in the module docs).
    retired: Vec<Arc<JobCore>>,
}

/// Terminal/liveness state of one job, guarded by `JobCore::ctl`.
enum Status {
    Running,
    Finished(Duration),
    Stalled { suspended: usize, executed: usize },
    Panicked { node: usize, message: String },
}

/// Rarely-touched job state: barrier predicates, recovery bookkeeping,
/// and the terminal status. Never locked on the dispatch hot path.
struct Ctl {
    status: Status,
    join_ready: Vec<bool>,
    min_available: usize,
    grow_pending: bool,
    growth_budget: usize,
    events: Vec<RecoveryEvent>,
}

/// Per-job event-trace state: per-worker lanes (lane 0 = control plane)
/// each behind its own mutex, sharing one sequence clock. Timestamps are
/// taken inside the lane lock so every lane stays monotone.
struct TraceCore {
    clock: SeqClock,
    lanes: Vec<Mutex<LaneRecorder>>,
}

/// The ready-node queues of one job.
enum Queues {
    /// One shared MPMC injector (global FIFO discipline).
    Global(Injector<usize>),
    /// One injector per worker slot, fed by the node-to-thread mapping.
    Partitioned(Vec<Injector<usize>>),
    /// Chase-Lev deque per worker slot (local LIFO pop, FIFO steals)
    /// plus a shared injector for externally submitted nodes.
    WorkStealing {
        injector: Injector<usize>,
        /// Slot `w` holds worker `w`'s deque until that worker attaches
        /// and takes it (the `Worker` endpoint is single-owner).
        deques: Vec<Mutex<Option<CbWorker<usize>>>>,
        stealers: Vec<Stealer<usize>>,
    },
}

/// All state of one job attempt, shared by the submitter and every
/// serving worker through an `Arc`.
struct JobCore {
    attempt: usize,
    dag: Arc<Dag>,
    started: Instant,
    /// Permanent workers; indices at or above this are rescue slots.
    base_workers: usize,
    /// Worker slots currently in service (base + attached rescuers).
    active: AtomicUsize,
    /// The packed dispatch counter (see module docs).
    ctr: AtomicU64,
    /// Terminal flag: set (after `ctl.status` leaves `Running`) on
    /// finish, stall, panic, and watchdog abort. Workers poll it.
    done: AtomicBool,
    pending: Vec<AtomicU32>,
    queues: Queues,
    parking: Vec<AtomicU32>,
    threads: Vec<Mutex<Option<Thread>>>,
    worker_suspended: Vec<AtomicBool>,
    /// Completion tickets: `spans[ticket]` records the node, worker and
    /// timing of the `ticket`-th completion.
    ticket: AtomicUsize,
    spans: Vec<OnceLock<NodeSpan>>,
    ctl: Mutex<Ctl>,
    /// Waits: blocking-join barriers, injected suspensions, watchdog.
    cv: Condvar,
    grow_policy: bool,
    /// Barrier waits busy-wait instead of sleeping on `cv`
    /// ([`crate::SyncBackend::Spin`]). A spinning worker never enters
    /// the parked set and is traced with `SpinStart`/`SpinEnd`.
    spin: bool,
    trace: Option<TraceCore>,
}

impl JobCore {
    /// Whether any node has not completed yet (`ticket` counts
    /// completions, so nothing remains once it reaches the node count).
    fn work_remains(&self) -> bool {
        self.ticket.load(SeqCst) < self.dag.node_count()
    }

    fn new(attempt: usize, dag: Arc<Dag>, config: &PoolConfig, events: Vec<RecoveryEvent>) -> Self {
        let n = dag.node_count();
        let workers = config.workers;
        let capacity = workers + config.recovery.growth_reserve();
        let pending = dag
            .node_ids()
            .map(|v| {
                AtomicU32::new(
                    u32::try_from(dag.predecessors(v).len()).expect("in-degree fits u32"),
                )
            })
            .collect();
        let queue_cap = n + capacity + 2;
        let queues = match &config.discipline {
            QueueDiscipline::GlobalFifo => Queues::Global(Injector::new(queue_cap)),
            QueueDiscipline::Partitioned(_) => {
                Queues::Partitioned((0..capacity).map(|_| Injector::new(queue_cap)).collect())
            }
            QueueDiscipline::WorkStealing { .. } => {
                let owned: Vec<CbWorker<usize>> =
                    (0..capacity).map(|_| CbWorker::new_lifo(n + 2)).collect();
                let stealers = owned.iter().map(CbWorker::stealer).collect();
                Queues::WorkStealing {
                    injector: Injector::new(queue_cap),
                    deques: owned.into_iter().map(|d| Mutex::new(Some(d))).collect(),
                    stealers,
                }
            }
        };
        let trace = config.record_trace.then(|| {
            let clock = SeqClock::new();
            let lanes = (0..=capacity)
                .map(|_| Mutex::new(LaneRecorder::new(&clock)))
                .collect();
            TraceCore { clock, lanes }
        });
        // Every per-slot array is preallocated to `capacity`
        // (base + growth reserve), so growth never reallocates shared state.
        let core = JobCore {
            attempt,
            dag,
            started: Instant::now(),
            base_workers: workers,
            active: AtomicUsize::new(workers),
            ctr: AtomicU64::new(0),
            done: AtomicBool::new(false),
            pending,
            queues,
            parking: (0..capacity).map(|_| AtomicU32::new(ACTIVE)).collect(),
            threads: (0..capacity).map(|_| Mutex::new(None)).collect(),
            worker_suspended: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            ticket: AtomicUsize::new(0),
            spans: (0..n).map(|_| OnceLock::new()).collect(),
            ctl: Mutex::new(Ctl {
                status: Status::Running,
                join_ready: vec![false; n],
                min_available: workers,
                grow_pending: false,
                growth_budget: config.recovery.growth_reserve(),
                events,
            }),
            cv: Condvar::new(),
            grow_policy: matches!(config.recovery, RecoveryPolicy::GrowPool { .. }),
            spin: config.backend.is_spin(),
            trace,
        };
        if core.trace.is_some() {
            core.rec_ctl(EventKind::JobReleased { task: 0, job: 0 });
            for w in 0..workers {
                core.rec_ctl(EventKind::ThreadPark {
                    task: 0,
                    thread: u32c(w),
                });
            }
        }
        core
    }

    /// Records `kind` on `lane`. The timestamp is taken *inside* the lane
    /// lock so concurrent writers cannot invert a lane's time order.
    fn rec_lane(&self, lane: usize, kind: EventKind) {
        if let Some(tr) = &self.trace {
            let mut rec = tr.lanes[lane].lock();
            rec.record(dur_nanos(self.started.elapsed()), kind);
        }
    }

    /// Records a control-plane event (lane 0).
    fn rec_ctl(&self, kind: EventKind) {
        self.rec_lane(0, kind);
    }

    /// Records an event on `worker`'s lane.
    fn rec_worker(&self, worker: usize, kind: EventKind) {
        self.rec_lane(worker + 1, kind);
    }

    /// Assembles the trace from lanes `0..=active` (unused rescue-slot
    /// lanes are left out so `trace.cores` reflects the served pool).
    fn take_trace(&self) -> Option<Trace> {
        let tr = self.trace.as_ref()?;
        let end = dur_nanos(self.started.elapsed());
        let active = self.active.load(SeqCst);
        let lanes: Vec<LaneRecorder> = (0..=active)
            .map(|i| std::mem::replace(&mut *tr.lanes[i].lock(), LaneRecorder::new(&tr.clock)))
            .collect();
        Some(assemble(
            EngineKind::Exec,
            TimeUnit::Nanos,
            u32c(active),
            1,
            end,
            lanes,
        ))
    }
}

impl Dispatcher {
    /// Spawns the permanent workers. The configuration was validated by
    /// [`ThreadPool::try_new`](crate::ThreadPool::try_new).
    pub(crate) fn new(config: PoolConfig) -> Self {
        let capacity = config.workers + config.recovery.growth_reserve();
        let workers = config.workers;
        let shared = Arc::new(Shared {
            config,
            slot: Mutex::new(JobSlot {
                shutdown: false,
                job: None,
                // One handle per worker slot and job; room for two jobs
                // keeps pushes on worker threads from reallocating.
                retired: Vec::with_capacity(2 * capacity),
            }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|id| {
                let s = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("rtpool-worker-{id}"))
                    .spawn(move || worker_loop(&s, id))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Dispatcher {
            shared,
            handles,
            rescue_handles: Vec::new(),
            next_epoch: 0,
        }
    }

    pub(crate) fn config(&self) -> &PoolConfig {
        &self.shared.config
    }

    /// Empties the job slot and drops the job handles workers have
    /// handed back, on this (the submitting) thread.
    fn clear_slot(&self) {
        let mut slot = self.shared.slot.lock();
        slot.job = None;
        slot.retired.clear();
    }

    /// One execution attempt: installs the job, then serves growth
    /// requests, collects the terminal state, and runs the watchdog.
    pub(crate) fn run_attempt(
        &mut self,
        dag: &Arc<Dag>,
        attempt: usize,
        events: &mut Vec<RecoveryEvent>,
    ) -> Result<JobReport, FailedAttempt> {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let core = Arc::new(JobCore::new(
            attempt,
            Arc::clone(dag),
            &self.shared.config,
            std::mem::take(events),
        ));
        enqueue(&self.shared, &core, dag.source(), None);
        {
            let mut slot = self.shared.slot.lock();
            debug_assert!(slot.job.is_none(), "runs are serialized by &mut self");
            slot.job = Some(Arc::clone(&core));
        }
        // Lazy attachment: global/stealing jobs start with ONE worker and
        // recruit more from the slot pool as fetches observe leftover
        // depth (see [`serve`] and [`deliver_wakes`]), so a short job on
        // a wide pool never pays an m-wide wake broadcast. Partitioned
        // jobs need every mapped owner attached for targeted wakes, so
        // they keep the broadcast.
        if matches!(
            self.shared.config.discipline,
            QueueDiscipline::Partitioned(_)
        ) {
            self.shared.cv.notify_all();
        } else {
            self.shared.cv.notify_one();
        }

        let watchdog = self.shared.config.watchdog;
        let mut last_progress = 0usize;
        let mut ctl = core.ctl.lock();
        loop {
            if ctl.grow_pending {
                ctl.grow_pending = false;
                // Re-validate under ctl: the stall may have resolved (an
                // injected suspension expired) before we got here.
                let c = unpack(core.ctr.load(SeqCst));
                if matches!(ctl.status, Status::Running)
                    && c.executing == 0
                    && c.ready_joins == 0
                    && core.work_remains()
                    && ctl.growth_budget > 0
                {
                    let active = core.active.load(SeqCst);
                    let add = (c.suspended + 1)
                        .saturating_sub(active)
                        .max(1)
                        .min(ctl.growth_budget);
                    ctl.growth_budget -= add;
                    let new_total = active + add;
                    ctl.events.push(RecoveryEvent::PoolGrown {
                        attempt,
                        added: add,
                        total_workers: new_total,
                    });
                    core.rec_ctl(EventKind::Recovery {
                        task: 0,
                        label: "pool_grown".to_string(),
                        node: None,
                    });
                    core.active.store(new_total, SeqCst);
                    drop(ctl);
                    for id in active..new_total {
                        let s = Arc::clone(&self.shared);
                        let c2 = Arc::clone(&core);
                        let handle = thread::Builder::new()
                            .name(format!("rtpool-rescuer-{id}-e{epoch}"))
                            .spawn(move || {
                                serve(&s, &c2, id);
                                s.slot.lock().retired.push(c2);
                            })
                            .expect("failed to spawn rescue worker thread");
                        self.rescue_handles.push(handle);
                    }
                    ctl = core.ctl.lock();
                    core.cv.notify_all();
                }
                continue;
            }
            match &ctl.status {
                Status::Finished(elapsed) => {
                    let elapsed = *elapsed;
                    let recovery_events = std::mem::take(&mut ctl.events);
                    let min_available = ctl.min_available;
                    drop(ctl);
                    let trace = core.take_trace();
                    self.clear_slot();
                    let executed = core.ticket.load(SeqCst);
                    let (completion_order, spans) = collect_completions(&core, executed);
                    return Ok(JobReport {
                        makespan: elapsed,
                        executed_nodes: executed,
                        completion_order,
                        spans,
                        min_available_workers: min_available,
                        attempts: attempt + 1,
                        recovery_events,
                        trace,
                        attempt_traces: Vec::new(),
                    });
                }
                Status::Panicked { node, message } => {
                    let (node, message) = (*node, message.clone());
                    // Let siblings that are mid-body record their terminal
                    // trace events before assembly.
                    drain_executing(&core, &mut ctl, watchdog);
                    *events = std::mem::take(&mut ctl.events);
                    drop(ctl);
                    let trace = core.take_trace();
                    self.clear_slot();
                    return Err(FailedAttempt {
                        error: ExecError::NodePanicked { node, message },
                        trace,
                    });
                }
                Status::Stalled {
                    suspended,
                    executed,
                } => {
                    let (suspended, executed) = (*suspended, *executed);
                    *events = std::mem::take(&mut ctl.events);
                    drop(ctl);
                    let trace = core.take_trace();
                    self.clear_slot();
                    return Err(FailedAttempt {
                        error: ExecError::Stalled {
                            suspended_workers: suspended,
                            executed_nodes: executed,
                        },
                        trace,
                    });
                }
                Status::Running => {}
            }
            let progress = core.ticket.load(SeqCst);
            let timed_out = core.cv.wait_for(&mut ctl, watchdog).timed_out();
            if timed_out
                && core.ticket.load(SeqCst) == last_progress
                && matches!(ctl.status, Status::Running)
                && !ctl.grow_pending
                && unpack(core.ctr.load(SeqCst)).fake == 0
            {
                drain_executing(&core, &mut ctl, watchdog);
                if matches!(ctl.status, Status::Running)
                    && !ctl.grow_pending
                    && core.ticket.load(SeqCst) == last_progress
                {
                    core.done.store(true, SeqCst);
                    core.cv.notify_all();
                    unpark_all(&core);
                    *events = std::mem::take(&mut ctl.events);
                    drop(ctl);
                    let trace = core.take_trace();
                    self.clear_slot();
                    return Err(FailedAttempt {
                        error: ExecError::WatchdogTimeout,
                        trace,
                    });
                }
            }
            last_progress = progress;
        }
    }
}

impl Drop for Dispatcher {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock();
            slot.shutdown = true;
        }
        self.shared.cv.notify_all();
        for h in self.handles.drain(..).chain(self.rescue_handles.drain(..)) {
            let _ = h.join();
        }
    }
}

/// Builds `completion_order`/`spans` from the lock-free ticket array.
/// Every collection path first ensures `executing == 0`, so all tickets
/// below `executed` are fully written; the guard is defensive.
fn collect_completions(core: &JobCore, executed: usize) -> (Vec<usize>, Vec<NodeSpan>) {
    let mut order = Vec::with_capacity(executed);
    let mut spans = Vec::with_capacity(executed);
    for i in 0..executed {
        let Some(s) = core.spans[i].get() else {
            continue;
        };
        order.push(s.node);
        spans.push(*s);
    }
    (order, spans)
}

/// Waits — bounded by one watchdog budget — for mid-body workers to
/// record their terminal events. Polls (5 ms steps) because a
/// fault-injected lost wakeup must not turn this into a full sleep.
fn drain_executing(core: &JobCore, ctl: &mut MutexGuard<'_, Ctl>, watchdog: Duration) {
    let deadline = Instant::now() + watchdog;
    while unpack(core.ctr.load(SeqCst)).executing > 0 {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let step = (deadline - now).min(Duration::from_millis(5));
        let _ = core.cv.wait_for(ctl, step);
    }
}

// ---------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------

/// Permanent-worker body: watch the job slot, serve each installed job
/// to its end, repeat until shutdown.
fn worker_loop(shared: &Arc<Shared>, id: usize) {
    let mut slot = shared.slot.lock();
    loop {
        if slot.shutdown {
            return;
        }
        let job = slot.job.as_ref().filter(|c| !c.done.load(SeqCst)).cloned();
        match job {
            Some(core) => {
                drop(slot);
                serve(shared, &core, id);
                slot = shared.slot.lock();
                slot.retired.push(core);
            }
            None => shared.cv.wait(&mut slot),
        }
    }
}

/// Serves one job on worker slot `worker` until the job reaches a
/// terminal state. Also the rescue-worker body (rescuers serve exactly
/// one job and retire).
fn serve(shared: &Shared, core: &Arc<JobCore>, worker: usize) {
    *core.threads[worker].lock() = Some(thread::current());
    let local = match &core.queues {
        Queues::WorkStealing { deques, .. } => deques[worker].lock().take(),
        _ => None,
    };
    // Base workers start "parked" in the trace (the job-release events
    // park them); rescuers are born active.
    let mut parked = worker < core.base_workers;
    loop {
        if core.done.load(SeqCst) {
            break;
        }
        if let Some(f) = try_fetch(core, worker, local.as_ref()) {
            // Wake ramp-up: completions wake at most ONE worker (see
            // [`deliver_wakes`]); a fetcher that leaves work behind
            // recruits the next worker here. Awake workers thus grow
            // with observed demand instead of a thundering O(m) futex
            // storm per wide fan-out. The partitioned discipline keeps
            // exact per-owner wakes instead.
            if f.depth > 0 && !matches!(core.queues, Queues::Partitioned(_)) && !unpark_one(core) {
                shared.cv.notify_one();
            }
            if parked {
                parked = false;
                core.rec_worker(
                    worker,
                    EventKind::ThreadUnpark {
                        task: 0,
                        thread: u32c(worker),
                    },
                );
            }
            if let Some((victim, count)) = f.steal {
                core.rec_worker(
                    worker,
                    EventKind::StealBatch {
                        task: 0,
                        thread: u32c(worker),
                        victim,
                        count,
                    },
                );
            }
            core.rec_worker(
                worker,
                EventKind::QueueDepth {
                    task: 0,
                    thread: u32c(worker),
                    depth: f.depth,
                },
            );
            execute_chain(shared, core, worker, f.node, local.as_ref());
            continue;
        }
        // Idle: publish the intent to sleep, then re-check once — the
        // Dekker handshake with the producer's push-then-scan order (see
        // module docs).
        core.parking[worker].store(PARKED, SeqCst);
        if core.done.load(SeqCst) || has_visible_work(core, worker, local.as_ref()) {
            core.parking[worker].store(ACTIVE, SeqCst);
            continue;
        }
        // Exact stall detection before sleeping: if this park completes a
        // "nobody can make progress" state, declare it now. The lock is
        // skipped while the counter proves a stall impossible (someone is
        // executing or a join is ready): that worker re-evaluates when it
        // goes idle itself, so the last one to park always takes the lock.
        let c = unpack(core.ctr.load(SeqCst));
        if c.executing == 0 && c.ready_joins == 0 && core.work_remains() {
            let mut ctl = core.ctl.lock();
            maybe_stall_locked(core, &mut ctl);
        }
        if core.done.load(SeqCst) {
            core.parking[worker].store(ACTIVE, SeqCst);
            break;
        }
        if !parked {
            parked = true;
            core.rec_worker(
                worker,
                EventKind::ThreadPark {
                    task: 0,
                    thread: u32c(worker),
                },
            );
        }
        while core.parking[worker].load(SeqCst) == PARKED && !core.done.load(SeqCst) {
            thread::park();
        }
        core.parking[worker].store(ACTIVE, SeqCst);
    }
}

/// A fetched node plus dispatch metadata for the trace.
struct Fetched {
    node: NodeId,
    /// Depth of the source queue right after this fetch.
    depth: u32,
    /// `Some((victim, count))` when stolen: `victim = None` is the shared
    /// injector, `Some(w)` worker `w`'s queue; `count` the nodes taken.
    steal: Option<(Option<u32>, u32)>,
}

/// Fetches one node, keeping the counter protocol the stall detector
/// needs. The protocol differs by discipline:
///
/// * **Partitioned** fetchability is judged from the *physical* queues
///   ([`maybe_stall_locked`] inspects per-owner injectors), so an
///   in-flight pop must be visible as `executing` before the queue is
///   touched — the pre-increment protocol, backed out on failure.
/// * **Global / work stealing** fetchability is judged from the `queued`
///   counter, which stays ≥ 1 until the post-pop settle below (producers
///   count before pushing, consumers decrement only here), so a single
///   combined RMW after a successful pop suffices and a failed fetch
///   costs no atomic write at all.
fn try_fetch(core: &JobCore, worker: usize, local: Option<&CbWorker<usize>>) -> Option<Fetched> {
    if matches!(core.queues, Queues::Partitioned(_)) {
        core.ctr.fetch_add(EXEC_ONE, SeqCst);
        match pop_physical(core, worker, local) {
            Some(f) => {
                core.ctr.fetch_sub(QUEUED_ONE, SeqCst);
                Some(f)
            }
            None => {
                core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                None
            }
        }
    } else {
        let f = pop_physical(core, worker, local)?;
        core.ctr.fetch_add(EXEC_ONE - QUEUED_ONE, SeqCst);
        Some(f)
    }
}

/// Canonical lock-free fetch: local pop → injector steal → steal-half
/// from the richest peer (work stealing), or the discipline's queue.
fn pop_physical(core: &JobCore, worker: usize, local: Option<&CbWorker<usize>>) -> Option<Fetched> {
    match &core.queues {
        Queues::Global(inj) => loop {
            match inj.steal() {
                Steal::Success(v) => {
                    return Some(Fetched {
                        node: NodeId::from_index(v),
                        depth: u32c(inj.len()),
                        steal: None,
                    })
                }
                Steal::Empty => return None,
                Steal::Retry => std::hint::spin_loop(),
            }
        },
        Queues::Partitioned(qs) => {
            if worker < core.base_workers {
                loop {
                    match qs[worker].steal() {
                        Steal::Success(v) => {
                            return Some(Fetched {
                                node: NodeId::from_index(v),
                                depth: u32c(qs[worker].len()),
                                steal: None,
                            })
                        }
                        Steal::Empty => return None,
                        Steal::Retry => std::hint::spin_loop(),
                    }
                }
            } else {
                // Rescue workers serve the queues of *suspended* owners —
                // exactly the nodes that could otherwise strand.
                loop {
                    let mut retry = false;
                    for (w, q) in qs.iter().enumerate().take(core.base_workers) {
                        if !core.worker_suspended[w].load(SeqCst) {
                            continue;
                        }
                        match q.steal() {
                            Steal::Success(v) => {
                                return Some(Fetched {
                                    node: NodeId::from_index(v),
                                    depth: u32c(q.len()),
                                    steal: Some((Some(u32c(w)), 1)),
                                })
                            }
                            Steal::Retry => retry = true,
                            Steal::Empty => {}
                        }
                    }
                    if !retry {
                        return None;
                    }
                    std::hint::spin_loop();
                }
            }
        }
        Queues::WorkStealing {
            injector, stealers, ..
        } => {
            let local = local.expect("work-stealing workers hold their deque");
            if let Some(v) = local.pop() {
                return Some(Fetched {
                    node: NodeId::from_index(v),
                    depth: u32c(local.len()),
                    steal: None,
                });
            }
            loop {
                match injector.steal_batch_and_pop(local) {
                    Steal::Success(v) => {
                        return Some(Fetched {
                            node: NodeId::from_index(v),
                            depth: u32c(injector.len()),
                            steal: Some((None, u32c(local.len() + 1))),
                        })
                    }
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
            loop {
                let mut best: Option<(usize, usize)> = None;
                for (w, s) in stealers.iter().enumerate() {
                    if w == worker {
                        continue;
                    }
                    let len = s.len();
                    if len > 0 && best.is_none_or(|(_, b)| len > b) {
                        best = Some((w, len));
                    }
                }
                let (victim, _) = best?;
                match stealers[victim].steal_batch_and_pop(local) {
                    Steal::Success(v) => {
                        return Some(Fetched {
                            node: NodeId::from_index(v),
                            depth: u32c(stealers[victim].len()),
                            steal: Some((Some(u32c(victim)), u32c(local.len() + 1))),
                        })
                    }
                    // Empty or Retry: the victim drained (or a steal
                    // collided) — rescan for the new richest victim.
                    _ => std::hint::spin_loop(),
                }
            }
        }
    }
}

/// The consumer-side re-check of the parking handshake: is any node this
/// worker could fetch physically visible?
fn has_visible_work(core: &JobCore, worker: usize, local: Option<&CbWorker<usize>>) -> bool {
    match &core.queues {
        Queues::Global(inj) => !inj.is_empty(),
        Queues::Partitioned(qs) => {
            if worker < core.base_workers {
                !qs[worker].is_empty()
            } else {
                (0..core.base_workers)
                    .any(|w| core.worker_suspended[w].load(SeqCst) && !qs[w].is_empty())
            }
        }
        Queues::WorkStealing {
            injector, stealers, ..
        } => {
            local.is_some_and(|l| !l.is_empty())
                || !injector.is_empty()
                || stealers
                    .iter()
                    .enumerate()
                    .any(|(w, s)| w != worker && !s.is_empty())
        }
    }
}

// ---------------------------------------------------------------------
// Enqueue + targeted wakeups.
// ---------------------------------------------------------------------

/// Makes `node` ready: counts it queued *before* the physical push (the
/// stall detector and the fetch protocol rely on that order). Returns
/// the owning worker under the partitioned discipline so the caller can
/// wake the right thread. Does not wake anyone itself.
fn enqueue(
    shared: &Shared,
    core: &JobCore,
    node: NodeId,
    local: Option<&CbWorker<usize>>,
) -> Option<usize> {
    core.ctr.fetch_add(QUEUED_ONE, SeqCst);
    push_ready(shared, core, node, local)
}

/// Physically pushes a node already counted queued by the caller (either
/// [`enqueue`] or the folded completion update in [`execute_chain`]).
/// Returns the owning worker under the partitioned discipline.
fn push_ready(
    shared: &Shared,
    core: &JobCore,
    node: NodeId,
    local: Option<&CbWorker<usize>>,
) -> Option<usize> {
    match &core.queues {
        Queues::Global(inj) => {
            inj.push(node.index());
            None
        }
        Queues::Partitioned(qs) => {
            let QueueDiscipline::Partitioned(mapping) = &shared.config.discipline else {
                unreachable!("partitioned queues imply a partitioned discipline");
            };
            let owner = mapping.thread_of(node).index();
            qs[owner].push(node.index());
            Some(owner)
        }
        Queues::WorkStealing { injector, .. } => {
            match local {
                // A worker pushes the nodes it spawns onto its own deque
                // (LIFO pop, Eigen-style); the submitter seeds the
                // injector.
                Some(l) => l.push(node.index()),
                None => injector.push(node.index()),
            }
            None
        }
    }
}

/// Wakes worker `w` iff it is parked. Returns whether a wake was issued.
fn try_unpark(core: &JobCore, w: usize) -> bool {
    if core.parking[w].load(SeqCst) == PARKED
        && core.parking[w]
            .compare_exchange(PARKED, NOTIFIED, SeqCst, SeqCst)
            .is_ok()
    {
        let t = core.threads[w].lock().clone();
        if let Some(t) = t {
            t.unpark();
        }
        return true;
    }
    false
}

/// Wakes one parked worker — the targeted replacement for a broadcast
/// `notify_all`. Returns `false` when nobody was parked: by
/// the Dekker handshake, any worker parking *after* this scan re-checks
/// the queues (whose items were pushed before the scan) and stays awake,
/// so the caller may stop issuing wakes for already-pushed work.
fn unpark_one(core: &JobCore) -> bool {
    let active = core.active.load(SeqCst);
    for w in 0..active {
        if try_unpark(core, w) {
            return true;
        }
    }
    false
}

/// Partitioned wake: the queue owner, or — when the owner is suspended —
/// a parked rescue worker that can steal on its behalf.
fn unpark_target(core: &JobCore, target: usize) {
    if try_unpark(core, target) {
        return;
    }
    if core.worker_suspended[target].load(SeqCst) {
        let active = core.active.load(SeqCst);
        for w in core.base_workers..active {
            if try_unpark(core, w) {
                return;
            }
        }
    }
}

/// Delivers a completion's wakeups. Global/stealing wakes ramp up
/// instead of broadcasting: a completion wakes at most ONE parked
/// worker no matter how many nodes it readied, and every worker whose
/// fetch observes leftover depth recruits the next one (see [`serve`]).
/// A wide fan-out therefore costs one futex wake, not `min(ready, m)`,
/// and workers the demand never reaches are never scheduled. Safety is
/// untouched: any worker parking *after* the push re-checks the queues
/// (Dekker), so the single wake can never be the lost one. Partitioned
/// wakes stay exact — one targeted unpark per ready node's owner.
fn deliver_wakes(shared: &Shared, core: &JobCore, unparks: usize, owner_wakes: &[usize]) {
    if unparks > 0 && !unpark_one(core) {
        // Nobody attached to the job is parked: recruit a worker still
        // waiting on the job slot (no-op once all are attached).
        shared.cv.notify_one();
    }
    for &t in owner_wakes {
        unpark_target(core, t);
    }
}

/// Wakes every active worker slot (terminal states only).
fn unpark_all(core: &JobCore) {
    let active = core.active.load(SeqCst);
    for w in 0..active {
        core.parking[w].store(NOTIFIED, SeqCst);
        let t = core.threads[w].lock().clone();
        if let Some(t) = t {
            t.unpark();
        }
    }
}

// ---------------------------------------------------------------------
// Stall detection (exact; see "The stall check" in the module docs).
// ---------------------------------------------------------------------

/// Declares a stall, requests growth, or returns. Must hold `ctl` (all
/// suspension transitions happen under it). The verdict is taken only
/// if `ticket` and `ctr` read the same before and after the queue scan,
/// which proves the scan consistent; otherwise the worker that moved
/// them re-runs the check (see "The stall check" in the module docs).
fn maybe_stall_locked(core: &JobCore, ctl: &mut Ctl) {
    if !matches!(ctl.status, Status::Running) || ctl.grow_pending {
        return;
    }
    let ticket = core.ticket.load(SeqCst);
    if ticket >= core.dag.node_count() {
        return;
    }
    let raw = core.ctr.load(SeqCst);
    let c = unpack(raw);
    if c.executing > 0 || c.ready_joins > 0 {
        return;
    }
    let active = core.active.load(SeqCst);
    let queued_work = c.queued > 0;
    let fetchable = match &core.queues {
        Queues::Global(_) | Queues::WorkStealing { .. } => queued_work && c.suspended < active,
        Queues::Partitioned(qs) => {
            let owner_can = (0..core.base_workers)
                .any(|w| !core.worker_suspended[w].load(SeqCst) && !qs[w].is_empty());
            let rescuer_can = (core.base_workers..active)
                .any(|w| !core.worker_suspended[w].load(SeqCst))
                && (0..core.base_workers)
                    .any(|w| core.worker_suspended[w].load(SeqCst) && !qs[w].is_empty());
            owner_can || rescuer_can
        }
    };
    if fetchable || core.ctr.load(SeqCst) != raw || core.ticket.load(SeqCst) != ticket {
        return;
    }
    if ctl.growth_budget > 0 && queued_work {
        // A rescue worker can serve the queued work: request growth.
        ctl.grow_pending = true;
        core.cv.notify_all();
        return;
    }
    if core.grow_policy && c.fake > 0 {
        // An injected suspension is in flight under a GrowPool policy:
        // its deadline is guaranteed to expire and re-evaluate.
        return;
    }
    ctl.status = Status::Stalled {
        suspended: c.suspended,
        executed: ticket,
    };
    core.rec_ctl(EventKind::StallDetected {
        task: 0,
        job: 0,
        suspended: u32c(c.suspended),
    });
    core.done.store(true, SeqCst);
    core.cv.notify_all();
    unpark_all(core);
}

/// Updates the minimum observed available concurrency `l(t)`; call under
/// `ctl` right after a suspension is counted.
fn note_suspension(core: &JobCore, ctl: &mut Ctl) {
    let c = unpack(core.ctr.load(SeqCst));
    let active = core.active.load(SeqCst);
    ctl.min_available = ctl.min_available.min(active.saturating_sub(c.suspended));
}

// ---------------------------------------------------------------------
// Execution chain: body → completion → (blocking-fork barrier → join)*.
// ---------------------------------------------------------------------

/// Executes `node` and every continuation it chains into (the Listing-1
/// pattern: a completed `BF` suspends this worker until the barrier
/// opens, then the `BJ` runs here). Returns when the chain ends or the
/// job reaches a terminal state.
fn execute_chain(
    shared: &Shared,
    core: &Arc<JobCore>,
    worker: usize,
    mut node: NodeId,
    local: Option<&CbWorker<usize>>,
) {
    let faults = shared.config.faults.as_ref();
    let time_scale = shared.config.time_scale;
    let attempt = core.attempt;
    loop {
        let before = faults
            .map(|p| p.before_body(attempt, node.index()))
            .unwrap_or_default();

        if let Some(d) = before.suspend {
            {
                let mut ctl = core.ctl.lock();
                ctl.events.push(RecoveryEvent::FaultInjected {
                    attempt,
                    node: node.index(),
                    fault: "suspend_worker",
                });
                core.rec_ctl(EventKind::Recovery {
                    task: 0,
                    label: "suspend_worker".to_string(),
                    node: Some(u32c(node.index())),
                });
            }
            if !fake_suspend(core, worker, d, node) {
                return;
            }
        }
        if before.panic_body || before.extra_wcet > 0 {
            let mut ctl = core.ctl.lock();
            if before.panic_body {
                ctl.events.push(RecoveryEvent::FaultInjected {
                    attempt,
                    node: node.index(),
                    fault: "panic_body",
                });
                core.rec_ctl(EventKind::Recovery {
                    task: 0,
                    label: "panic_body".to_string(),
                    node: Some(u32c(node.index())),
                });
            }
            if before.extra_wcet > 0 {
                ctl.events.push(RecoveryEvent::FaultInjected {
                    attempt,
                    node: node.index(),
                    fault: "jitter_wcet",
                });
                core.rec_ctl(EventKind::Recovery {
                    task: 0,
                    label: "jitter_wcet".to_string(),
                    node: Some(u32c(node.index())),
                });
            }
        }

        core.rec_worker(
            worker,
            EventKind::NodeStart {
                task: 0,
                job: 0,
                node: u32c(node.index()),
                thread: u32c(worker),
            },
        );
        core.rec_worker(
            worker,
            EventKind::CoreAssign {
                core: u32c(worker),
                occupant: Some((0, u32c(worker))),
            },
        );
        let start = core.started.elapsed();
        let wcet = core.dag.wcet(node) + before.extra_wcet;
        let body = panic::catch_unwind(AssertUnwindSafe(|| {
            busy_work(wcet, time_scale);
            if before.panic_body {
                panic!("injected fault: node body panic at v{}", node.index());
            }
        }));
        core.rec_worker(
            worker,
            EventKind::NodeEnd {
                task: 0,
                job: 0,
                node: u32c(node.index()),
                thread: u32c(worker),
            },
        );
        core.rec_worker(
            worker,
            EventKind::CoreAssign {
                core: u32c(worker),
                occupant: None,
            },
        );
        if let Err(payload) = body {
            // Panic isolation: report the poisoned node, keep the
            // accounting consistent, stay usable.
            let mut ctl = core.ctl.lock();
            core.ctr.fetch_sub(EXEC_ONE, SeqCst);
            core.rec_ctl(EventKind::Recovery {
                task: 0,
                label: "node_panicked".to_string(),
                node: Some(u32c(node.index())),
            });
            if matches!(ctl.status, Status::Running) {
                ctl.status = Status::Panicked {
                    node: node.index(),
                    message: panic_message(payload.as_ref()),
                };
            }
            core.done.store(true, SeqCst);
            core.cv.notify_all();
            drop(ctl);
            unpark_all(core);
            return;
        }
        let end = core.started.elapsed();

        // Completion: ticket, then successors — all while still counted
        // executing, so the stall detector never sees a half-completed
        // node.
        let ticket = core.ticket.fetch_add(1, SeqCst);
        let _ = core.spans[ticket].set(NodeSpan {
            node: node.index(),
            worker,
            start,
            end,
        });
        let mut unparks = 0usize;
        let mut owner_wakes: Vec<usize> = Vec::new();
        let mut join_opened = false;
        // The common completion resolves at most one successor; keep it
        // off the heap and spill only wide fan-outs into the vector.
        let mut first_ready: Option<NodeId> = None;
        let mut more_ready: Vec<NodeId> = Vec::new();
        for &s in core.dag.successors(node) {
            if core.pending[s.index()].fetch_sub(1, SeqCst) != 1 {
                continue;
            }
            if core.dag.kind(s) == NodeKind::BlockingJoin {
                let mut ctl = core.ctl.lock();
                ctl.join_ready[s.index()] = true;
                core.ctr.fetch_add(RJ_ONE, SeqCst);
                join_opened = true;
            } else if first_ready.is_none() {
                first_ready = Some(s);
            } else {
                more_ready.push(s);
            }
        }
        if node == core.dag.sink() {
            debug_assert_eq!(ticket + 1, core.dag.node_count(), "sink completes last");
            core.ctr.fetch_sub(EXEC_ONE, SeqCst);
            {
                let mut ctl = core.ctl.lock();
                if matches!(ctl.status, Status::Running) {
                    ctl.status = Status::Finished(core.started.elapsed());
                    core.rec_ctl(EventKind::JobCompleted { task: 0, job: 0 });
                }
            }
            core.done.store(true, SeqCst);
            core.cv.notify_all();
            unpark_all(core);
            return;
        }
        // Publish every ready successor with ONE folded counter update
        // (one RMW instead of `ready` on the hottest cache line), counted
        // *before* the physical pushes as the fetch protocol requires.
        // Our own executing slot stays held: the worker remains counted
        // `executing` until it either chains into the next node below,
        // suspends on a blocking barrier, or leaves the loop — so the
        // stall predicate never sees a half-completed dispatch.
        let nready = usize::from(first_ready.is_some()) + more_ready.len();
        if nready > 0 {
            core.ctr.fetch_add(nready as u64 * QUEUED_ONE, SeqCst);
        }
        for s in first_ready.into_iter().chain(more_ready) {
            match push_ready(shared, core, s, local) {
                Some(owner) => owner_wakes.push(owner),
                None => unparks += 1,
            }
        }

        let after = faults
            .map(|p| p.after_body(attempt, node.index()))
            .unwrap_or_default();
        if after.swallow_wakeup {
            // Lost-wakeup bug model: successors were resolved but nobody
            // is told. The exact stall detector (rightly) does not cover
            // this; the watchdog must.
            let mut ctl = core.ctl.lock();
            ctl.events.push(RecoveryEvent::FaultInjected {
                attempt,
                node: node.index(),
                fault: "swallow_wakeup",
            });
            core.rec_ctl(EventKind::Recovery {
                task: 0,
                label: "swallow_wakeup".to_string(),
                node: Some(u32c(node.index())),
            });
        } else if let Some(d) = after.delay_wakeup {
            {
                let mut ctl = core.ctl.lock();
                ctl.events.push(RecoveryEvent::FaultInjected {
                    attempt,
                    node: node.index(),
                    fault: "delay_wakeup",
                });
                core.rec_ctl(EventKind::Recovery {
                    task: 0,
                    label: "delay_wakeup".to_string(),
                    node: Some(u32c(node.index())),
                });
            }
            thread::sleep(d);
            deliver_wakes(shared, core, unparks, &owner_wakes);
            core.cv.notify_all();
            if core.done.load(SeqCst) {
                core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                return;
            }
        } else {
            deliver_wakes(shared, core, unparks, &owner_wakes);
            if join_opened {
                core.cv.notify_all();
            }
        }

        if core.dag.kind(node) != NodeKind::BlockingFork {
            // Chain straight into the next ready node while still counted
            // executing: the settle + re-fetch RMW pair of the serve loop
            // collapses into a single `−queued` whenever the pop
            // succeeds. Fault plans and tracing fall back to the serve
            // loop — chaining would mask an injected lost wakeup (the
            // swallowing worker would quietly pick its orphan back up)
            // and skip the per-fetch queue-depth events.
            if faults.is_some() || core.trace.is_some() || core.done.load(SeqCst) {
                core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                return;
            }
            match pop_physical(core, worker, local) {
                Some(f) => {
                    core.ctr.fetch_sub(QUEUED_ONE, SeqCst);
                    node = f.node;
                    continue;
                }
                None => {
                    core.ctr.fetch_sub(EXEC_ONE, SeqCst);
                    return;
                }
            }
        }
        // Blocking fork: wait on the barrier — the condvar wait of
        // Listing 1, or a busy-wait under the spin backend — then run
        // the join as our continuation. The packed-counter accounting is
        // backend-independent; only the wait primitive differs.
        let join = core
            .dag
            .blocking_join_of(node)
            .expect("validated BF has a paired BJ");
        let mut ctl = core.ctl.lock();
        // One update swaps our (still-held) executing slot for a
        // suspended one, so the counter never shows the worker
        // unaccounted in between.
        core.ctr.fetch_add(SUSP_ONE.wrapping_sub(EXEC_ONE), SeqCst);
        core.worker_suspended[worker].store(true, SeqCst);
        note_suspension(core, &mut ctl);
        let ev = if core.spin {
            EventKind::SpinStart {
                task: 0,
                job: 0,
                fork: u32c(node.index()),
                thread: u32c(worker),
            }
        } else {
            EventKind::BarrierSuspend {
                task: 0,
                job: 0,
                fork: u32c(node.index()),
                thread: u32c(worker),
            }
        };
        core.rec_worker(worker, ev);
        let woke = loop {
            if core.done.load(SeqCst) {
                break false;
            }
            if ctl.join_ready[join.index()] {
                ctl.join_ready[join.index()] = false;
                core.ctr.fetch_sub(RJ_ONE, SeqCst);
                break true;
            }
            maybe_stall_locked(core, &mut ctl);
            if core.done.load(SeqCst) {
                break false;
            }
            if core.spin {
                // Busy-wait: release the control lock, burn a bounded
                // batch of cycles, re-acquire, re-check. The worker
                // stays out of the parked set the whole time.
                drop(ctl);
                for _ in 0..SPIN_BATCH {
                    std::hint::spin_loop();
                }
                ctl = core.ctl.lock();
            } else {
                core.cv.wait(&mut ctl);
            }
        };
        core.ctr.fetch_sub(SUSP_ONE, SeqCst);
        core.worker_suspended[worker].store(false, SeqCst);
        if !woke {
            if core.spin {
                // Abandoned busy-wait (stall or abort): the spinner
                // observed the terminal state and stops burning its
                // core; close the spin window in the trace.
                core.rec_worker(
                    worker,
                    EventKind::SpinEnd {
                        task: 0,
                        job: 0,
                        join: u32c(join.index()),
                        thread: u32c(worker),
                    },
                );
            }
            return;
        }
        core.ctr.fetch_add(EXEC_ONE, SeqCst);
        let ev = if core.spin {
            EventKind::SpinEnd {
                task: 0,
                job: 0,
                join: u32c(join.index()),
                thread: u32c(worker),
            }
        } else {
            EventKind::BarrierWake {
                task: 0,
                job: 0,
                join: u32c(join.index()),
                thread: u32c(worker),
            }
        };
        core.rec_worker(worker, ev);
        drop(ctl);
        node = join; // execute the continuation
    }
}

/// Artificially suspends `worker` for `dur`, accounted exactly like a
/// barrier suspension so the stall detector and recovery reason about
/// it. Returns `false` if the job reached a terminal state meanwhile.
fn fake_suspend(core: &JobCore, worker: usize, dur: Duration, node: NodeId) -> bool {
    let mut ctl = core.ctl.lock();
    core.ctr.fetch_add(SUSP_ONE + FAKE_ONE, SeqCst);
    core.ctr.fetch_sub(EXEC_ONE, SeqCst);
    core.worker_suspended[worker].store(true, SeqCst);
    note_suspension(core, &mut ctl);
    core.rec_worker(
        worker,
        EventKind::BarrierSuspend {
            task: 0,
            job: 0,
            fork: u32c(node.index()),
            thread: u32c(worker),
        },
    );
    let deadline = Instant::now() + dur;
    loop {
        if core.done.load(SeqCst) {
            core.ctr.fetch_sub(SUSP_ONE + FAKE_ONE, SeqCst);
            core.worker_suspended[worker].store(false, SeqCst);
            return false;
        }
        maybe_stall_locked(core, &mut ctl);
        if core.done.load(SeqCst) {
            continue; // the loop head undoes the accounting and bails
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let _ = core.cv.wait_for(&mut ctl, deadline - now);
    }
    core.ctr.fetch_add(EXEC_ONE, SeqCst);
    core.ctr.fetch_sub(SUSP_ONE + FAKE_ONE, SeqCst);
    core.worker_suspended[worker].store(false, SeqCst);
    core.rec_worker(
        worker,
        EventKind::BarrierWake {
            task: 0,
            job: 0,
            join: u32c(node.index()),
            thread: u32c(worker),
        },
    );
    core.cv.notify_all();
    true
}
