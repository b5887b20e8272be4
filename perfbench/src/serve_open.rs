//! `serve_open`: the shipped `rtpool-serve` binary under an open loop.
//!
//! One writer thread sends request lines to the child's stdin on a fixed
//! schedule (request `k` of a phase is due `k / rate` seconds after the
//! phase starts) whether or not earlier requests were answered; one
//! reader thread stamps each response line as it arrives. Latency runs
//! from a request's *due* time, so a stalled writer or a full pipe shows
//! up as latency of the requests it delayed, and the writer's own
//! lateness is reported beside it.
//!
//! A run is a base phase at [`BASE_RATE`] followed by a rising rate
//! search for the highest offered rate that meets the latency limit.
//! Every phase gets a fresh child, so no breaker or interner state leaks
//! from an overloaded probe into the next one.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtpool_bench::serve::loadgen::{gen_request_lines, LoadConfig};
use rtpool_bench::serve::protocol::{encode_response, parse_request, parse_response};
use rtpool_bench::serve::{
    run_ladder, run_ladder_capped, Interner, LadderLevel, RequestBody, Response, ServeConfig,
    VerdictKind,
};
use rtpool_core::analysis::global::{analyze_many, ConcurrencyModel};
use rtpool_core::textfmt::parse_task_set;
use rtpool_core::{CancelToken, TaskSet};

use crate::child::{kb_to_mb, wait_bounded, RssPoller};
use crate::layers::{derive_us, time_us};
use crate::report::Report;
use crate::stats::{median, Samples, WindowedTail};
use crate::Ctx;

/// The fixed base rate, requests per second: about a third of the rate
/// `rtpool-loadgen --workers 2` calibrates on a 2-core host.
pub const BASE_RATE: f64 = 400.0;
/// The latency limit on the p99, microseconds: the server's own default
/// breaker SLO.
pub const SLO_P99_US: f64 = 50_000.0;
/// Largest share of failed requests a passing rate may have.
pub const MAX_FAILED_SHARE: f64 = 0.01;
/// The search stops once the passing and failing rates are this close.
const RESOLUTION: f64 = 1.03;
/// Requests in flight during the closed-loop calibration: enough to keep
/// the server busy, far below its 256-entry queue.
const CALIBRATION_WINDOW: usize = 32;
/// Core count every request asks to be admitted on (the loadgen mix).
const M: usize = 8;
/// Analysis workers of the child: the host's two cores.
const WORKERS: &str = "2";

/// Sizes of one run, derived from `--seconds`.
#[derive(Clone, Copy, Debug)]
struct Plan {
    /// Request lines generated at set-up; phases cycle through them.
    pool_lines: usize,
    setup_reps: usize,
    base_secs: f64,
    search_secs: f64,
    /// Requests of the closed-loop calibration that opens the search.
    calibration_requests: usize,
    /// A search probe sends at least this many requests (so its p99 has
    /// ten samples beyond it) and lasts at least `probe_secs`.
    probe_requests: usize,
    probe_secs: f64,
    drain_timeout: Duration,
}

impl Plan {
    #[allow(clippy::cast_precision_loss)]
    fn new(ctx: &Ctx) -> Plan {
        if ctx.smoke {
            return Plan {
                pool_lines: 64,
                setup_reps: 1,
                // One full p99 window.
                base_secs: 2.5,
                search_secs: 1.0,
                calibration_requests: 200,
                probe_requests: 100,
                probe_secs: 0.2,
                drain_timeout: Duration::from_secs(20),
            };
        }
        // The untraced run spends the whole window at the base rate; the
        // traced run splits it between an untraced and a traced base
        // phase and the rate search.
        let secs = ctx.seconds as f64;
        Plan {
            pool_lines: 4096,
            setup_reps: 5,
            base_secs: if ctx.traced { 0.25 * secs } else { secs },
            search_secs: 0.5 * secs,
            calibration_requests: 3000,
            probe_requests: 1000,
            probe_secs: 1.5,
            drain_timeout: Duration::from_secs(20),
        }
    }

    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    fn probe_len(&self, rate: f64) -> usize {
        self.probe_requests
            .max((rate * self.probe_secs).ceil() as usize)
    }
}

/// The generated request lines, stored without their `{"id":N` prefix so
/// any line can be sent under any id.
pub struct LinePool {
    tails: Vec<String>,
}

const ID_PREFIX: &str = "{\"id\":";

impl LinePool {
    /// Generates `lines` requests of the `LoadConfig` mix from `seed`, as
    /// independent streams as long as the server's default interner
    /// capacity. A stream's verbatim repeats point back at most one
    /// stream, which the interner holds, so about a quarter of requests
    /// hit it as in the loadgen mix; the
    /// pool as a whole is much larger than the interner, so cycling
    /// through it adds no further hits.
    ///
    /// # Panics
    ///
    /// Panics if the generator's line layout changes (a request line
    /// must start with its id).
    #[must_use]
    pub fn generate(seed: u64, lines: usize) -> LinePool {
        let stream = ServeConfig::default().interner_cap;
        let mut tails = Vec::with_capacity(lines);
        for chunk in 0..lines.div_ceil(stream) {
            let cfg = LoadConfig {
                requests: stream.min(lines - tails.len()),
                seed: seed.wrapping_add((chunk as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                ..LoadConfig::default()
            };
            tails.extend(gen_request_lines(&cfg).into_iter().map(|line| {
                let rest = line
                    .strip_prefix(ID_PREFIX)
                    .expect("request lines start with their id");
                let digits = rest.find(',').expect("the id is followed by more fields");
                rest[digits..].to_string()
            }));
        }
        LinePool { tails }
    }

    /// Number of distinct lines.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tails.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tails.is_empty()
    }

    /// Appends pool line `index` (cyclic) under request id `id`, with a
    /// trailing newline, to `out`.
    pub fn write_line(&self, index: usize, id: u64, out: &mut Vec<u8>) {
        out.extend_from_slice(ID_PREFIX.as_bytes());
        out.extend_from_slice(id.to_string().as_bytes());
        out.extend_from_slice(self.tails[index % self.tails.len()].as_bytes());
        out.push(b'\n');
    }

    /// Pool line `index` under id 0, without newline.
    #[must_use]
    pub fn line(&self, index: usize) -> String {
        let mut out = Vec::new();
        self.write_line(index, 0, &mut out);
        out.pop();
        String::from_utf8(out).expect("generated lines are UTF-8")
    }
}

/// How the writer paces a phase.
#[derive(Clone, Copy, Debug)]
enum Pace {
    /// Open loop: request `k` is due `k / rate` seconds after the start.
    Rate(f64),
    /// Closed loop: send whenever fewer than this many are unanswered.
    Window(usize),
}

impl Pace {
    /// The offered rate; a closed loop has no schedule, so every request
    /// is due at the start and its latency is its arrival offset.
    fn rate(self) -> f64 {
        match self {
            Pace::Rate(r) => r,
            Pace::Window(_) => f64::INFINITY,
        }
    }
}

/// Offset of request `k`'s due time from the start of its phase.
#[must_use]
pub fn due_offset(k: usize, rate: f64) -> Duration {
    #[allow(clippy::cast_precision_loss)]
    Duration::from_secs_f64(k as f64 / rate)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A running `rtpool-serve` child whose banner line has been read.
struct ServeChild {
    child: Child,
    stdin: ChildStdin,
    stdout: ChildStdout,
    stderr: JoinHandle<Vec<String>>,
}

fn spawn_serve(bin: &Path, trace: Option<&Path>) -> Result<ServeChild, String> {
    let mut cmd = Command::new(bin);
    cmd.args(["--workers", WORKERS, "--summary"]);
    if let Some(path) = trace {
        cmd.arg("--trace").arg(path);
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdin = child.stdin.take().expect("stdin is piped");
    let stdout = child.stdout.take().expect("stdout is piped");
    let stderr = child.stderr.take().expect("stderr is piped");
    let (ready_tx, ready_rx) = mpsc::channel();
    let stderr = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if lines.is_empty() {
                let _ = ready_tx.send(());
            }
            lines.push(line);
        }
        lines
    });
    if ready_rx.recv_timeout(Duration::from_secs(10)).is_err() {
        let _ = child.kill();
        let _ = child.wait();
        let _ = stderr.join();
        return Err(format!("{} printed no start-up banner", bin.display()));
    }
    Ok(ServeChild {
        child,
        stdin,
        stdout,
        stderr,
    })
}

impl ServeChild {
    /// Closes stdin and waits for a clean exit.
    fn close(self) -> Result<(), String> {
        let ServeChild {
            mut child,
            stdin,
            stdout,
            stderr,
        } = self;
        drop(stdin);
        drop(stdout);
        let status = wait_bounded(&mut child, Duration::from_secs(30))?;
        let _ = stderr.join();
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("rtpool-serve exited with {status}"))
    }
}

/// Everything observed while driving one phase.
struct PhaseRun {
    rate: f64,
    /// Pool index of request 0.
    first: usize,
    n: usize,
    /// Response lines with their arrival offset from the phase start.
    answers: Vec<(Duration, String)>,
    /// How late the writer sent each request.
    late: Vec<Duration>,
    /// Child exit problem, if any.
    exit_error: Option<String>,
    /// The child's `--summary` JSON.
    summary: Option<String>,
    /// Median resident set of the child while the phase ran.
    rss_kb: Option<u64>,
}

/// Sends `n` requests to `sc` paced by `pace`, starting at pool line
/// `first`.
fn drive(
    sc: ServeChild,
    pool: &LinePool,
    first: usize,
    n: usize,
    pace: Pace,
    drain: Duration,
) -> PhaseRun {
    let rate = pace.rate();
    let ServeChild {
        mut child,
        mut stdin,
        stdout,
        stderr,
    } = sc;
    let pid = child.id();
    let received = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let rss = RssPoller::start(pid);
    let (answers, late, exit_error) = std::thread::scope(|s| {
        let received = &received;
        let reader = s.spawn(move || {
            let mut answers = Vec::with_capacity(n);
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        let at = Instant::now().saturating_duration_since(t0);
                        answers.push((at, line.trim_end().to_string()));
                        // Release: pairs with the writer's Acquire load.
                        received.fetch_add(1, Ordering::Release);
                    }
                }
            }
            answers
        });
        let writer = s.spawn(move || {
            let mut late = Vec::with_capacity(n);
            let mut buf = Vec::with_capacity(8192);
            for k in 0..n {
                if let Pace::Window(w) = pace {
                    while k >= w + received.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(20));
                    }
                }
                let due = t0 + due_offset(k, rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                buf.clear();
                pool.write_line(first + k, k as u64, &mut buf);
                late.push(Instant::now().saturating_duration_since(due));
                if stdin.write_all(&buf).is_err() {
                    break;
                }
            }
            let deadline = Instant::now() + drain;
            while received.load(Ordering::Acquire) < n && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(stdin);
            late
        });
        let late = writer.join().expect("writer thread does not panic");
        let exit_error = match wait_bounded(&mut child, Duration::from_secs(30)) {
            Ok(status) if status.success() => None,
            Ok(status) => Some(format!("rtpool-serve exited with {status}")),
            Err(e) => Some(e),
        };
        let answers = reader.join().expect("reader thread does not panic");
        (answers, late, exit_error)
    });
    let rss_kb = rss.finish();
    let summary = stderr
        .join()
        .ok()
        .and_then(|lines| lines.into_iter().rev().find(|l| l.starts_with('{')));
    PhaseRun {
        rate,
        first,
        n,
        answers,
        late,
        exit_error,
        summary,
        rss_kb,
    }
}

/// One phase, checked against the reference verdicts.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency of every request from its due time, microseconds; a
    /// failed request reads `f64::MAX` so it misses any limit.
    pub latency_us: Vec<f64>,
    /// Requests that failed: lost, busy, shed, error or wrong verdict.
    pub failed: usize,
    /// Failures that are wrong outputs rather than refusals under load:
    /// lost, duplicated, unknown-id or error responses and wrong verdicts.
    pub wrong: usize,
    /// Admit/reject answers per ladder rung.
    pub levels: [usize; 4],
    /// Server-reported service latency of admit/reject answers.
    pub service_us: Vec<f64>,
    /// The parsed answers to admit/reject requests.
    pub responses: Vec<Response>,
}

/// Accounts one phase of `n` requests sent at `rate`: `answers` are the
/// response lines with their arrival offsets from the phase start, and
/// `expected_admit(k)` is the reference verdict of request `k`.
#[must_use]
pub fn tally(
    n: usize,
    rate: f64,
    answers: &[(Duration, String)],
    expected_admit: impl Fn(usize) -> bool,
) -> Tally {
    let mut t = Tally {
        latency_us: vec![f64::MAX; n],
        ..Tally::default()
    };
    let mut seen = vec![false; n];
    for (at, line) in answers {
        let Ok(resp) = parse_response(line) else {
            t.wrong += 1;
            continue;
        };
        let Some(k) = usize::try_from(resp.id).ok().filter(|&k| k < n) else {
            t.wrong += 1;
            continue;
        };
        if std::mem::replace(&mut seen[k], true) {
            t.wrong += 1; // answered twice
            t.latency_us[k] = f64::MAX;
            continue;
        }
        let admit = match resp.verdict {
            VerdictKind::Admit => true,
            VerdictKind::Reject => false,
            VerdictKind::Busy | VerdictKind::Shed => continue,
            VerdictKind::Error => {
                t.wrong += 1;
                continue;
            }
        };
        if admit != expected_admit(k) {
            t.wrong += 1;
            continue;
        }
        t.latency_us[k] = us(at.saturating_sub(due_offset(k, rate)));
        if let Some(level) = resp.level {
            t.levels[level as usize] += 1;
        }
        #[allow(clippy::cast_precision_loss)]
        t.service_us.push(resp.latency_us as f64);
        t.responses.push(resp);
    }
    t.failed = t.latency_us.iter().filter(|&&l| l == f64::MAX).count();
    // Lost requests are wrong outputs too.
    t.wrong += seen.iter().filter(|&&s| !s).count();
    t
}

impl Tally {
    #[allow(clippy::cast_precision_loss)]
    fn failed_share(&self) -> f64 {
        self.failed as f64 / self.latency_us.len().max(1) as f64
    }

    /// Whether the median latency of the last quarter of requests exceeds
    /// that of the first quarter by more than a fifth of the SLO: a queue
    /// that keeps growing through the phase.
    #[must_use]
    pub fn backlog_grows(&self) -> bool {
        let q = self.latency_us.len() / 4;
        if q == 0 {
            return false;
        }
        let first = median(&self.latency_us[..q]);
        let last = median(&self.latency_us[self.latency_us.len() - q..]);
        last - first > SLO_P99_US / 5.0
    }

    /// The figures [`Tally::meets_limit`] judges, as JSON fields.
    #[must_use]
    pub fn describe(&self) -> String {
        let p99 = Samples::new(self.latency_us.clone()).percentile(99.0);
        format!(
            "\"p99_us\": {}, \"failed_share\": {:.4}, \"backlog_grows\": {}",
            if p99 == f64::MAX { -1.0 } else { p99.round() },
            self.failed_share(),
            self.backlog_grows()
        )
    }

    /// Whether the phase meets the limit: p99 within the SLO (failures
    /// count as misses), at most 1 % failed, and no growing backlog.
    #[must_use]
    pub fn meets_limit(&self) -> bool {
        !self.latency_us.is_empty()
            && Samples::new(self.latency_us.clone()).percentile(99.0) <= SLO_P99_US
            && self.failed_share() <= MAX_FAILED_SHARE
            && !self.backlog_grows()
    }
}

/// Reads the first number after `"key":` in a flat JSON text.
#[must_use]
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Server counters summed over phases (`queue_peak` is the maximum).
#[derive(Debug, Default)]
struct Counters {
    queue_peak: f64,
    busy: f64,
    shed: f64,
    breaker_opens: f64,
}

impl Counters {
    /// Adds one child's `--summary`; a child that printed none did not
    /// exit cleanly, which the caller counts as a failure.
    fn add(&mut self, summary: Option<&str>) -> Result<(), String> {
        let Some(s) = summary else { return Ok(()) };
        let get = |k: &str| json_number(s, k).ok_or(format!("--summary JSON lacks `{k}`"));
        self.queue_peak = self.queue_peak.max(get("queue_peak")?);
        self.busy += get("busy")?;
        self.shed += get("shed")?;
        self.breaker_opens += get("opens")?;
        Ok(())
    }
}

/// Decodes every pool line with the server's own decoder, returning the
/// sources and the per-line decode time in microseconds.
fn decode_pool(pool: &LinePool) -> (Vec<String>, Vec<f64>, usize) {
    let mut sources = Vec::with_capacity(pool.len());
    let mut times = Vec::with_capacity(pool.len());
    let mut bytes = 0;
    for i in 0..pool.len() {
        let line = pool.line(i);
        bytes += line.len();
        let (t, req) = time_us(|| parse_request(&line));
        times.push(t);
        match req.expect("generated lines decode").body {
            RequestBody::Source(s) => sources.push(s),
            _ => unreachable!("the loadgen mix sends inline sources"),
        }
    }
    (sources, times, bytes)
}

/// The reference verdict of every pool line: the full ladder, no budget.
fn reference_verdicts(sources: &[String]) -> Vec<bool> {
    let mut memo: HashMap<&str, bool> = HashMap::new();
    sources
        .iter()
        .map(|src| {
            *memo.entry(src.as_str()).or_insert_with(|| {
                let set = parse_task_set(src).expect("generated sources parse");
                run_ladder(&set, M, &CancelToken::never()).admit
            })
        })
        .collect()
}

struct Setup {
    pool: LinePool,
    child: ServeChild,
    setup_s: f64,
}

/// Line generation plus child start-up, repeated; the median is reported
/// and the last repetition's pool and child are kept.
fn setup(ctx: &Ctx, plan: &Plan) -> Result<Setup, String> {
    let bin = ctx.bin("rtpool-serve");
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..plan.setup_reps {
        let start = Instant::now();
        let pool = LinePool::generate(ctx.seed, plan.pool_lines);
        let child = spawn_serve(&bin, None)?;
        times.push(start.elapsed().as_secs_f64());
        if rep + 1 < plan.setup_reps {
            child.close()?;
        } else {
            kept = Some((pool, child));
        }
    }
    let (pool, child) = kept.expect("at least one set-up repetition");
    Ok(Setup {
        pool,
        child,
        setup_s: median(&times),
    })
}

struct Search {
    /// Verdicts per second of the closed-loop calibration.
    capacity: f64,
    max_rate: f64,
    /// `(rate, requests, pass, JSON fields describing the probe)`.
    probes: Vec<(f64, usize, bool, String)>,
    runs: Vec<PhaseRun>,
}

/// The rate search. A closed-loop calibration first measures the
/// server's verdicts per second `G`. Open-loop probes then start at
/// `0.85·G` and step down by 0.82 until one passes, and bisect
/// (geometrically) between the highest passing rate and the lowest
/// failing one (initially `1.05·G`) until [`RESOLUTION`] or the time
/// budget. A rate fails only when two probes at it fail, so one host
/// hiccup in a probe does not decide the search. The result is always a
/// rate some probe (or the base phase) passed.
fn search(
    ctx: &Ctx,
    plan: &Plan,
    pool: &LinePool,
    cursor: &mut usize,
    base_ok: bool,
    judge: &dyn Fn(&PhaseRun) -> (bool, String),
) -> Result<Search, String> {
    let bin = ctx.bin("rtpool-serve");
    let end = Instant::now() + Duration::from_secs_f64(plan.search_secs);
    let n = plan.calibration_requests;
    let calibration = drive(
        spawn_serve(&bin, None)?,
        pool,
        *cursor,
        n,
        Pace::Window(CALIBRATION_WINDOW),
        plan.drain_timeout,
    );
    *cursor += n;
    #[allow(clippy::cast_precision_loss)]
    let capacity = calibration.answers.len() as f64
        / calibration
            .answers
            .last()
            .map_or(f64::INFINITY, |(at, _)| at.as_secs_f64());
    let mut out = Search {
        capacity,
        max_rate: 0.0,
        probes: Vec::new(),
        runs: vec![calibration],
    };
    let mut lo = base_ok.then_some(BASE_RATE);
    let mut hi = (1.05 * capacity).max(BASE_RATE * 1.5);
    let mut rate = 0.85 * capacity;
    let mut descending = true;
    loop {
        if let Some(l) = lo.filter(|&l| rate <= l) {
            descending = false;
            rate = (l * hi).sqrt();
        }
        let n = plan.probe_len(rate);
        #[allow(clippy::cast_precision_loss)]
        let expected = Duration::from_secs_f64(n as f64 / rate);
        if !out.probes.is_empty() && Instant::now() + expected > end {
            break;
        }
        let mut pass = false;
        for _attempt in 0..2 {
            let child = spawn_serve(&bin, None)?;
            let run = drive(
                child,
                pool,
                *cursor,
                n,
                Pace::Rate(rate),
                plan.drain_timeout,
            );
            *cursor += n;
            let (ok, note) = judge(&run);
            out.probes.push((rate, n, ok, note));
            out.runs.push(run);
            pass = ok;
            if ok {
                break;
            }
        }
        if pass {
            lo = Some(rate);
            descending = false;
        } else {
            hi = rate;
        }
        match lo {
            Some(l) if hi / l < RESOLUTION => break,
            Some(l) if !descending => rate = (l * hi).sqrt(),
            _ => rate *= 0.82,
        }
    }
    out.max_rate = lo.unwrap_or(0.0);
    Ok(out)
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a description when the child cannot be started or driven.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let plan = Plan::new(ctx);
    let mut report = Report::new(ctx.traced);
    let Setup {
        pool,
        child,
        setup_s,
    } = setup(ctx, &plan)?;

    // ---- Timed window: base phase (traced run: then a traced base phase
    // and the rate search). ----
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let base_n = (BASE_RATE * plan.base_secs).round() as usize;
    let base = drive(
        child,
        &pool,
        0,
        base_n,
        Pace::Rate(BASE_RATE),
        plan.drain_timeout,
    );
    let mut cursor = base_n;
    let traced_base = if ctx.traced {
        let path = ctx.work_dir.join("serve-trace.json");
        let child = spawn_serve(&ctx.bin("rtpool-serve"), Some(&path))?;
        let run = drive(
            child,
            &pool,
            cursor,
            base_n,
            Pace::Rate(BASE_RATE),
            plan.drain_timeout,
        );
        cursor += base_n;
        let _ = std::fs::remove_file(&path);
        Some(run)
    } else {
        None
    };

    // The reference is needed to judge probes; computing it before the
    // search keeps the search's own time budget for probes only.
    let (sources, decode_times, decode_bytes) = decode_pool(&pool);
    let reference = reference_verdicts(&sources);
    let check = |run: &PhaseRun| {
        tally(run.n, run.rate, &run.answers, |k| {
            reference[(run.first + k) % pool.len()]
        })
    };
    let base_tally = check(&base);
    let judge = |run: &PhaseRun| {
        let t = check(run);
        (run.exit_error.is_none() && t.meets_limit(), t.describe())
    };
    let search = if ctx.traced {
        Some(search(
            ctx,
            &plan,
            &pool,
            &mut cursor,
            judge(&base).0,
            &judge,
        )?)
    } else {
        None
    };
    let search_runs = search.iter().flat_map(|s| &s.runs);

    // ---- Checks. ----
    // Refusals count as failures only at the base rate; wrong outputs and
    // unclean exits count in every phase.
    let mut failed = 0;
    let mut wrong = 0;
    let mut attempted = 0;
    let mut counters = Counters::default();
    let base_phases = std::iter::once(&base).chain(&traced_base);
    for (run, at_base_rate) in base_phases
        .map(|r| (r, true))
        .chain(search_runs.map(|r| (r, false)))
    {
        let t = check(run);
        let exit = usize::from(run.exit_error.is_some());
        if let Some(e) = &run.exit_error {
            eprintln!("serve_open: {e}");
        }
        failed += exit + if at_base_rate { t.failed } else { t.wrong };
        wrong += exit + t.wrong;
        attempted += run.n;
        counters.add(run.summary.as_deref())?;
    }
    let latency = Samples::new(base_tally.latency_us.clone());
    let late = Samples::new(base.late.iter().map(|&d| us(d)).collect());
    let mut tail = WindowedTail::default();
    base_tally.latency_us.iter().for_each(|&l| tail.push(l));
    let p99 = tail
        .p99()
        .ok_or("too few base-phase requests for a p99 window")?;
    report.attempted = attempted as u64;
    report.failed = failed as u64;
    report.correct = wrong == 0;

    println!(
        "{{\"detail\": {{\"pool_lines\": {}, \"pool_mean_bytes\": {:.0}, \"pool_decode_mean_us\": {:.1}, \
         \"base_requests\": {}, \"verdict_tail_pct\": {}, \"verdict_p99_us\": {p99:.1}, \
         \"verdict_whole_p99_us\": {:.1}, \
         \"writer_late_p50_us\": {:.1}, \
         \"writer_late_max_us\": {:.1}, \"base_failed\": {}, \"wrong\": {wrong}, \
         \"calibrated_verdicts_per_s\": {:.1}, \"probes\": [{}]}}}}",
        pool.len(),
        decode_bytes as f64 / pool.len() as f64,
        Samples::new(decode_times.clone()).mean(),
        latency.len(),
        latency.tail().map_or(0.0, |(p, _)| p),
        latency.percentile(99.0),
        late.median(),
        late.max(),
        base_tally.failed,
        search.as_ref().map_or(0.0, |s| s.capacity),
        search
            .iter()
            .flat_map(|s| &s.probes)
            .map(|(r, n, pass, note)| format!(
                "{{\"rate\": {r:.1}, \"requests\": {n}, \"pass\": {pass}, {note}}}"
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if !ctx.smoke && !crate::stats::supported(latency.len(), 99.0) {
        return Err(format!(
            "too few base-phase samples for a p99: {}",
            latency.len()
        ));
    }

    if !ctx.traced {
        report.set("setup_s", setup_s);
        let rss = base.rss_kb.ok_or("cannot read the server's VmRSS")?;
        report.set("rss_mb", kb_to_mb(rss));
        report.set("latency_p50_us", latency.median());
        return Ok(report);
    }

    // ---- Traced run: per-layer figures. ----
    let traced_tally = check(
        traced_base
            .as_ref()
            .expect("traced run drives a traced phase"),
    );
    let traced_p50 = Samples::new(traced_tally.latency_us).median();
    let search = search.expect("the traced run searches");
    report.set("serve.max_verdicts_per_s", search.max_rate);
    report.set(
        "trace.overhead_share.serve_open",
        traced_p50 / latency.median() - 1.0,
    );
    report.set("serve.verdict_p50_us", latency.median());
    report.set("serve.verdict_p99_us", p99);
    #[allow(clippy::cast_precision_loss)]
    {
        let answered = base_tally.levels.iter().sum::<usize>().max(1) as f64;
        for (i, rung) in ["prefilter", "deadlock", "limited", "exact"]
            .iter()
            .enumerate()
        {
            report.set(
                &format!("serve.ladder.answered_{rung}_share"),
                base_tally.levels[i] as f64 / answered,
            );
        }
    }
    report.set(
        "serve.server.service_p50_us",
        Samples::new(base_tally.service_us.clone()).median(),
    );
    report.set("loadgen.late_p99_us", late.percentile(99.0));
    report.set("serve.server.queue_peak", counters.queue_peak);
    report.set("serve.server.busy", counters.busy);
    report.set("serve.server.shed", counters.shed);
    report.set("serve.server.breaker_opens", counters.breaker_opens);

    let layers = serve_layers(&sources, &decode_times, decode_bytes, &base_tally.responses);
    for (name, value) in &layers {
        report.set(name, *value);
    }
    Ok(report)
}

/// Times each serve layer's public entry point over the run's own lines.
fn serve_layers(
    sources: &[String],
    decode_times: &[f64],
    decode_bytes: usize,
    responses: &[Response],
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let decode_us = Samples::new(decode_times.to_vec()).median();
    out.push(("serve.protocol.decode_us".to_string(), decode_us));
    #[allow(clippy::cast_precision_loss)]
    out.push((
        "serve.protocol.decode_ns_per_byte".to_string(),
        decode_times.iter().sum::<f64>() * 1e3 / decode_bytes as f64,
    ));
    let encode_us = Samples::new(
        responses
            .iter()
            .map(|r| time_us(|| encode_response(r)).0)
            .collect(),
    )
    .median();
    out.push(("serve.protocol.encode_us".to_string(), encode_us));

    // Interner: every first sight of a source in an unbounded interner is
    // a miss; the hit share replays the mix through the server's default
    // capacity.
    let unbounded = Interner::new(sources.len() + 1);
    let mut miss_times = Vec::new();
    for src in sources {
        let misses = unbounded.stats().misses;
        let (t, r) = time_us(|| unbounded.intern(src));
        r.expect("generated sources intern");
        if unbounded.stats().misses > misses {
            miss_times.push(t);
        }
    }
    let intern_miss_us = Samples::new(miss_times).median();
    out.push(("serve.interner.intern_miss_us".to_string(), intern_miss_us));
    let bounded = Interner::new(ServeConfig::default().interner_cap);
    for src in sources {
        bounded.intern(src).expect("generated sources intern");
    }
    let stats = bounded.stats();
    #[allow(clippy::cast_precision_loss)]
    out.push((
        "serve.interner.hit_share".to_string(),
        stats.hits as f64 / (stats.hits + stats.misses) as f64,
    ));

    let mut distinct: Vec<&String> = sources.iter().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let fresh = || {
        distinct
            .iter()
            .map(|s| parse_task_set(s).expect("generated sources parse"))
    };
    let derive = Samples::new(fresh().map(|set| derive_us(&set)).collect()).median();
    out.push(("graph.cache.derive_us.serve_open".to_string(), derive));

    // Ladder rungs: best-of-three time of each capped climb on a warm
    // cache, averaged over the distinct sets; a rung's cost is the
    // difference between consecutive caps.
    let caps = [
        LadderLevel::Prefilter,
        LadderLevel::Deadlock,
        LadderLevel::Limited,
        LadderLevel::Exact,
    ];
    let sets: Vec<TaskSet> = fresh().collect();
    let token = CancelToken::never();
    let mut totals = [0.0f64; 4];
    for set in &sets {
        let _ = run_ladder(set, M, &token);
        for (i, &cap) in caps.iter().enumerate() {
            totals[i] += (0..3)
                .map(|_| time_us(|| run_ladder_capped(set, M, &token, cap)).0)
                .fold(f64::MAX, f64::min);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let per_set = totals.map(|t| t / sets.len() as f64);
    for (i, rung) in ["prefilter", "deadlock", "limited", "exact"]
        .iter()
        .enumerate()
    {
        let cost = if i == 0 {
            per_set[0]
        } else {
            per_set[i] - per_set[i - 1]
        };
        out.push((format!("serve.ladder.{rung}_us"), cost));
    }
    let rta = Samples::new(
        sets.iter()
            .map(|set| {
                time_us(|| {
                    analyze_many(set, M, &[ConcurrencyModel::Full, ConcurrencyModel::Limited])
                })
                .0
            })
            .collect(),
    )
    .median();
    out.push(("core.global_rta_us.serve_open".to_string(), rta));
    out.push((
        "serve.layer_sum_us".to_string(),
        decode_us + intern_miss_us + derive + per_set[3] + encode_us,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtpool_bench::serve::protocol::encode_response;

    fn answer(k: u64, verdict: VerdictKind, at_ms: u64) -> (Duration, String) {
        let resp = Response {
            id: k,
            verdict,
            level: matches!(verdict, VerdictKind::Admit | VerdictKind::Reject)
                .then_some(LadderLevel::Limited),
            degraded: false,
            latency_us: 7,
            hash: None,
            detail: String::new(),
        };
        (Duration::from_millis(at_ms), encode_response(&resp))
    }

    #[test]
    fn due_times_follow_the_schedule() {
        assert_eq!(due_offset(0, 400.0), Duration::ZERO);
        assert_eq!(due_offset(4, 400.0), Duration::from_millis(10));
        assert_eq!(due_offset(3, 1000.0), Duration::from_millis(3));
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send() {
        // At 100 req/s request k is due at 10·k ms. Request 1 answered at
        // 35 ms took 25 ms from its due time, however late it was sent.
        let answers = vec![
            answer(0, VerdictKind::Admit, 4),
            answer(1, VerdictKind::Reject, 35),
        ];
        let t = tally(2, 100.0, &answers, |k| k == 0);
        assert_eq!(t.latency_us, vec![4000.0, 25000.0]);
        assert_eq!((t.failed, t.wrong), (0, 0));
        assert_eq!(t.levels, [0, 0, 2, 0]);
        assert_eq!(t.service_us, vec![7.0, 7.0]);
    }

    #[test]
    fn refusals_fail_and_wrong_outputs_are_wrong() {
        let answers = vec![
            answer(0, VerdictKind::Busy, 1),
            answer(1, VerdictKind::Shed, 1),
            answer(2, VerdictKind::Admit, 30), // reference says reject
            answer(3, VerdictKind::Error, 40),
            answer(4, VerdictKind::Reject, 41),
            answer(4, VerdictKind::Reject, 42), // duplicate
            answer(99, VerdictKind::Reject, 43), // unknown id
                                                // request 5 is never answered
        ];
        let t = tally(6, 100.0, &answers, |_| false);
        assert_eq!(t.failed, 6);
        assert_eq!(t.wrong, 5); // wrong verdict, error, duplicate, unknown, lost
        assert!(t.latency_us.iter().all(|&l| l == f64::MAX));
        assert!(!t.meets_limit());
    }

    #[test]
    fn the_limit_needs_a_steady_queue() {
        let steady = Tally {
            latency_us: vec![2000.0; 400],
            ..Tally::default()
        };
        assert!(steady.meets_limit());
        let growing = Tally {
            latency_us: (0..400).map(|k| 1000.0 + 100.0 * f64::from(k)).collect(),
            ..Tally::default()
        };
        assert!(growing.backlog_grows());
        assert!(!growing.meets_limit());
        let mut slow = steady;
        slow.latency_us[..10].fill(SLO_P99_US + 1.0);
        assert!(!slow.meets_limit());
    }

    #[test]
    fn summary_numbers_are_read_by_key() {
        let s = "{ \"busy\": 3, \"queue_peak\": 17, \"breaker\": { \"opens\": 2, \"shed\": 9 } }";
        assert_eq!(json_number(s, "queue_peak"), Some(17.0));
        assert_eq!(json_number(s, "opens"), Some(2.0));
        assert_eq!(json_number(s, "missing"), None);
    }

    #[test]
    fn pool_lines_take_any_id() {
        let pool = LinePool::generate(3, 4);
        let mut buf = Vec::new();
        pool.write_line(5, 42, &mut buf);
        let line = String::from_utf8(buf).unwrap();
        assert!(line.ends_with('\n'));
        let req = parse_request(line.trim_end()).unwrap();
        assert_eq!(req.id, 42);
        assert_eq!(parse_request(&pool.line(1)).unwrap().body, req.body);
    }

    #[test]
    fn a_quarter_of_the_pool_hits_the_default_interner() {
        let pool = LinePool::generate(9, 768);
        let (sources, _, _) = decode_pool(&pool);
        let interner = Interner::new(ServeConfig::default().interner_cap);
        for src in &sources {
            interner.intern(src).unwrap();
        }
        let stats = interner.stats();
        let share = stats.hits as f64 / (stats.hits + stats.misses) as f64;
        assert!((0.15..0.35).contains(&share), "hit share {share}");
    }
}
