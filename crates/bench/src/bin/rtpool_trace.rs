//! Unified trace tooling: runs a `.rtp` workload under the simulator or
//! the native thread pool with event tracing enabled, then summarizes,
//! renders, or exports the trace; also validates exported traces.
//!
//! ```text
//! rtpool-trace run <workload.rtp> [--engine sim|exec]
//!              [--policy global|partitioned] [--m N]
//!              [--horizon H] [--format summary|ascii|chrome|csv]
//!              [--out PATH] [--time-scale-us U] [--timeout-ms T]
//! rtpool-trace validate <trace.json>
//! ```
//!
//! `run` defaults: simulator, global policy, `m = 4`, one synchronous
//! job per task, summary on stdout. `--horizon H` (sim only) switches to
//! periodic releases up to `H`. Under `--engine exec` each task's DAG
//! runs as one job on its own pool and yields one trace per task (with
//! `--out`, files are suffixed `.task<i>`); `--time-scale-us` sets the
//! wall-clock length of one WCET unit (default 100 µs), and
//! `--timeout-ms` bounds each task's wall-clock run via the pool
//! watchdog (default 10 000 ms) — a workload that deadlocks is reported
//! as a stall with its partial trace instead of hanging the tool.
//!
//! `validate` parses a Chrome trace-event JSON exported by this tool and
//! checks the schema invariants ([`Trace::validate`]): exit code 0 when
//! clean, 1 when defects are found, 2 on parse/IO errors.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rtpool_core::partition::{algorithm1, NodeMapping};
use rtpool_core::textfmt::parse_task_set;
use rtpool_core::TaskSet;
use rtpool_exec::{ExecError, PoolConfig, QueueDiscipline, ThreadPool};
use rtpool_sim::{SchedulingPolicy, SimConfig};
use rtpool_trace::{from_chrome_json, to_chrome_json, to_csv, Trace, TraceAnalysis};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Sim,
    Exec,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Global,
    Partitioned,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Summary,
    Ascii,
    Chrome,
    Csv,
}

struct RunArgs {
    workload: PathBuf,
    engine: Engine,
    policy: Policy,
    m: usize,
    horizon: Option<u64>,
    format: Format,
    out: Option<PathBuf>,
    time_scale: Duration,
    timeout: Duration,
}

fn usage() -> &'static str {
    "usage: rtpool-trace run <workload.rtp> [--engine sim|exec] \
     [--policy global|partitioned] [--m N] [--horizon H] \
     [--format summary|ascii|chrome|csv] [--out PATH] [--time-scale-us U] \
     [--timeout-ms T]\n\
     \x20      rtpool-trace validate <trace.json>"
}

fn parse_run_args(mut it: std::env::Args) -> Result<RunArgs, String> {
    let workload = it.next().ok_or("missing workload path")?;
    let mut args = RunArgs {
        workload: PathBuf::from(workload),
        engine: Engine::Sim,
        policy: Policy::Global,
        m: 4,
        horizon: None,
        format: Format::Summary,
        out: None,
        time_scale: Duration::from_micros(100),
        timeout: Duration::from_secs(10),
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--engine" => {
                args.engine = match value("--engine")?.as_str() {
                    "sim" => Engine::Sim,
                    "exec" => Engine::Exec,
                    other => return Err(format!("unknown engine `{other}`")),
                };
            }
            "--policy" => {
                args.policy = match value("--policy")?.as_str() {
                    "global" => Policy::Global,
                    "partitioned" => Policy::Partitioned,
                    other => return Err(format!("unknown policy `{other}`")),
                };
            }
            "--m" => {
                args.m = value("--m")?
                    .parse()
                    .map_err(|e| format!("invalid --m: {e}"))?;
            }
            "--horizon" => {
                args.horizon = Some(
                    value("--horizon")?
                        .parse()
                        .map_err(|e| format!("invalid --horizon: {e}"))?,
                );
            }
            "--format" => {
                args.format = match value("--format")?.as_str() {
                    "summary" => Format::Summary,
                    "ascii" => Format::Ascii,
                    "chrome" => Format::Chrome,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--time-scale-us" => {
                args.time_scale = Duration::from_micros(
                    value("--time-scale-us")?
                        .parse()
                        .map_err(|e| format!("invalid --time-scale-us: {e}"))?,
                );
            }
            "--timeout-ms" => {
                args.timeout = Duration::from_millis(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|e| format!("invalid --timeout-ms: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.m == 0 {
        return Err("--m must be positive".into());
    }
    if args.timeout.is_zero() {
        return Err("--timeout-ms must be positive".into());
    }
    Ok(args)
}

fn load_set(path: &PathBuf) -> Result<TaskSet, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_task_set(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Algorithm 1 mappings for every task, required by the partitioned
/// policy at both levels.
fn mappings_for(set: &TaskSet, m: usize) -> Result<Vec<NodeMapping>, String> {
    set.iter()
        .map(|(i, t)| {
            algorithm1(t.dag(), m)
                .map_err(|e| format!("task {i}: Algorithm 1 found no safe mapping: {e}"))
        })
        .collect()
}

fn render(trace: &Trace, format: Format) -> String {
    match format {
        Format::Summary => {
            let defects = trace.validate();
            let mut out = TraceAnalysis::new(trace).summary();
            if defects.is_empty() {
                out.push_str(&format!("events: {} (schema valid)\n", trace.events.len()));
            } else {
                out.push_str(&format!("schema defects: {defects:?}\n"));
            }
            out
        }
        Format::Ascii => rtpool_trace::gantt::render(trace, 120),
        Format::Chrome => to_chrome_json(trace),
        Format::Csv => to_csv(trace),
    }
}

fn emit(rendered: &str, out: Option<&PathBuf>) -> Result<(), String> {
    match out {
        None => {
            print!("{rendered}");
            Ok(())
        }
        Some(path) => {
            std::fs::write(path, rendered)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }
    }
}

fn run_sim(args: &RunArgs, set: &TaskSet) -> Result<(), String> {
    let policy = match args.policy {
        Policy::Global => SchedulingPolicy::Global,
        Policy::Partitioned => SchedulingPolicy::Partitioned,
    };
    let mut config = match args.horizon {
        None => SimConfig::single_job(policy, args.m),
        Some(h) => SimConfig::periodic(policy, args.m, h),
    }
    .with_event_trace();
    if args.policy == Policy::Partitioned {
        config = config.with_mappings(mappings_for(set, args.m)?);
    }
    let mut outcome = config.run(set).map_err(|e| e.to_string())?;
    let trace = outcome
        .take_event_trace()
        .expect("event tracing was enabled");
    if outcome.any_stall() {
        eprintln!("note: the simulation stalled (deadlock); the trace covers the stalled prefix");
    }
    emit(&render(&trace, args.format), args.out.as_ref())
}

/// Suffixes `--out` per task (`trace.json` → `trace.task1.json`) so an
/// exec run of an n-task workload yields n files.
fn task_out(out: Option<&PathBuf>, task: usize, tasks: usize) -> Option<PathBuf> {
    let out = out?;
    if tasks == 1 {
        return Some(out.clone());
    }
    let ext = out.extension().map(|e| e.to_string_lossy().into_owned());
    let stem = out.with_extension("");
    let mut name = format!("{}.task{task}", stem.display());
    if let Some(ext) = ext {
        name.push('.');
        name.push_str(&ext);
    }
    Some(PathBuf::from(name))
}

/// Runs task `i` of the set once on the pool, returning its trace
/// (re-indexed to position `i`). The pool waits on barriers with the
/// workload's own sync backend (the `.rtp` `backend` directive), so a
/// spin workload exports `SpinStart`/`SpinEnd` windows.
fn run_task_trace(
    args: &RunArgs,
    i: usize,
    task: &rtpool_core::Task,
    backend: rtpool_core::SyncBackend,
) -> Result<Trace, String> {
    let discipline = match args.policy {
        Policy::Global => QueueDiscipline::GlobalFifo,
        Policy::Partitioned => QueueDiscipline::Partitioned(
            algorithm1(task.dag(), args.m)
                .map_err(|e| format!("task {i}: Algorithm 1 found no safe mapping: {e}"))?,
        ),
    };
    let config = PoolConfig::new(args.m, discipline)
        .with_backend(backend)
        .with_time_scale(args.time_scale)
        .with_watchdog(args.timeout)
        .with_trace();
    let mut pool = ThreadPool::try_new(config).map_err(|e| e.to_string())?;
    let trace = match pool.run(task.dag()) {
        Ok(report) => report.trace.expect("tracing was enabled"),
        Err(e @ (ExecError::Stalled { .. } | ExecError::NodePanicked { .. })) => {
            eprintln!("note: task {i} failed ({e}); exporting the failed attempt's trace");
            pool.take_last_trace().expect("tracing was enabled")
        }
        Err(e) => return Err(format!("task {i}: {e}")),
    };
    Ok(trace.with_task_index(u32::try_from(i).unwrap_or(u32::MAX)))
}

fn run_exec(args: &RunArgs, set: &TaskSet) -> Result<(), String> {
    if args.horizon.is_some() {
        return Err("--horizon applies to the simulator only".into());
    }
    let tasks = set.iter().count();
    for (id, task) in set.iter() {
        let i = id.index();
        let trace = run_task_trace(args, i, task, set.backend())?;
        if args.format == Format::Summary && args.out.is_none() && tasks > 1 {
            println!("--- task {i} ---");
        }
        emit(
            &render(&trace, args.format),
            task_out(args.out.as_ref(), i, tasks).as_ref(),
        )?;
    }
    Ok(())
}

fn validate(path: &PathBuf) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let trace = match from_chrome_json(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let defects = trace.validate();
    if defects.is_empty() {
        println!(
            "{}: valid {} trace ({} events, {} cores, {} tasks, end_time {})",
            path.display(),
            trace.engine.as_str(),
            trace.events.len(),
            trace.cores,
            trace.tasks,
            trace.end_time
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("{}: {} schema defect(s):", path.display(), defects.len());
        for d in &defects {
            eprintln!("  {d}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut it = std::env::args();
    let _argv0 = it.next();
    let command = it.next();
    match command.as_deref() {
        Some("run") => {
            let args = match parse_run_args(it) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: {e}\n{}", usage());
                    return ExitCode::from(2);
                }
            };
            let set = match load_set(&args.workload) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let result = match args.engine {
                Engine::Sim => run_sim(&args, &set),
                Engine::Exec => run_exec(&args, &set),
            };
            match result {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("validate") => match it.next() {
            Some(path) => validate(&PathBuf::from(path)),
            None => {
                eprintln!("error: missing trace path\n{}", usage());
                ExitCode::from(2)
            }
        },
        Some("--help" | "-h") | None => {
            println!("{}", usage());
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command `{other}`\n{}", usage());
            ExitCode::from(2)
        }
    }
}
