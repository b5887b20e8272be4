//! `fig2_sweep`: the shipped `fig2` binary over the paper's whole grid.
//!
//! Each timed run is `fig2 --inset all --sets 500 --threads 2` as a child
//! process, writing its six CSVs into the benchmark's work directory.
//! The outputs are checked point by point: at seed `0x5eedf00d` against
//! the committed `results/fig2*.csv`, at any other seed against a
//! `--threads 1` run of the same seed.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtpool_bench::fig2::{sample_for_trace, Inset};
use rtpool_core::analysis::global::{analyze_many, ConcurrencyModel};
use rtpool_core::analysis::partitioned::{partition_and_analyze, PartitionStrategy};
use rtpool_core::textfmt::{parse_task_set, write_task_set};
use rtpool_core::TaskSet;
use rtpool_gen::{BlockingPolicy, ConcurrencyWindow, DagGenConfig, TaskSetConfig};

use crate::child::{kb_to_mb, median_kb, wait_bounded, RssPoller};
use crate::layers::{derive_us, time_us};
use crate::report::Report;
use crate::stats::{median, Samples};
use crate::Ctx;

/// The seed whose outputs are committed under `results/`.
pub const RESULTS_SEED: u64 = 0x5eed_f00d;
/// Task sets per grid point: the paper's count.
const SETS: usize = 500;

/// Sweep cells (`inset × x × sample`) of one run.
#[must_use]
pub fn cells(sets: usize) -> usize {
    Inset::ALL.iter().map(|i| i.x_values().len()).sum::<usize>() * sets
}

/// One finished `fig2` child.
struct Fig2Run {
    wall_s: f64,
    /// `VmRSS` samples of the child, KiB.
    rss_kb: Vec<u64>,
    csv_dir: PathBuf,
}

fn run_fig2(
    ctx: &Ctx,
    tag: &str,
    sets: usize,
    threads: usize,
    trace_dir: Option<&Path>,
) -> Result<Fig2Run, String> {
    let csv_dir = ctx.work_dir.join(tag);
    let mut cmd = Command::new(ctx.bin("fig2"));
    cmd.args(["--inset", "all"])
        .args(["--sets", &sets.to_string()])
        .args(["--threads", &threads.to_string()])
        .args(["--seed", &ctx.seed.to_string()])
        .arg("--csv")
        .arg(&csv_dir);
    if let Some(dir) = trace_dir {
        cmd.arg("--trace").arg(dir);
    }
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start fig2: {e}"))?;
    let poller = RssPoller::start(child.id());
    let status = wait_bounded(&mut child, Duration::from_secs(170));
    let wall_s = start.elapsed().as_secs_f64();
    let rss_kb = poller.samples();
    let status = status?;
    if !status.success() {
        return Err(format!("fig2 exited with {status}"));
    }
    Ok(Fig2Run {
        wall_s,
        rss_kb,
        csv_dir,
    })
}

/// The six CSVs of a run, in inset order.
fn read_csvs(dir: &Path) -> Result<Vec<String>, String> {
    Inset::ALL
        .iter()
        .map(|inset| {
            let path = dir.join(format!("fig2{}.csv", inset.letter()));
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        })
        .collect()
}

/// Grid points of `reference` and how many of them `run` does not
/// reproduce byte for byte (a missing, extra or differing row each
/// count once; headers must match too).
#[must_use]
pub fn compare(reference: &[String], run: &[String]) -> (usize, usize) {
    let mut points = 0;
    let mut mismatched = 0;
    for (want, got) in reference.iter().zip(run) {
        let want: Vec<&str> = want.lines().collect();
        let got: Vec<&str> = got.lines().collect();
        points += want.len().saturating_sub(1);
        mismatched += want.len().abs_diff(got.len());
        mismatched += want.iter().zip(&got).filter(|(a, b)| a != b).count();
    }
    mismatched += reference.len().abs_diff(run.len());
    (points, mismatched)
}

/// Share of samples skipped by the discard/window budgets, from the CSV
/// `samples` and `skipped` columns.
#[must_use]
pub fn skipped_share(csvs: &[String]) -> f64 {
    let (mut samples, mut skipped) = (0.0, 0.0);
    for csv in csvs {
        for row in csv.lines().skip(1) {
            let cols: Vec<&str> = row.split(',').collect();
            if let [.., s, k, _errors] = cols.as_slice() {
                samples += s.parse::<f64>().unwrap_or(0.0);
                skipped += k.parse::<f64>().unwrap_or(0.0);
            }
        }
    }
    if samples + skipped > 0.0 {
        skipped / (samples + skipped)
    } else {
        0.0
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Returns a description when a `fig2` child fails or its CSVs are
/// unreadable.
#[allow(clippy::cast_precision_loss)]
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let sets = if ctx.smoke { 2 } else { SETS };
    let setup_reps = if ctx.smoke { 1 } else { 15 };
    let cells = cells(sets) as f64;

    // Set-up: the fixed cost of a `fig2` invocation (process start, pool
    // construction, CSV output) on a one-set grid, repeated.
    let mut setup_times = Vec::new();
    for rep in 0..setup_reps {
        setup_times.push(run_fig2(ctx, &format!("warm{rep}"), 1, 2, None)?.wall_s);
    }

    let mut runs = Vec::new();
    let mut traced_run = None;
    let start = Instant::now();
    if ctx.traced {
        runs.push(run_fig2(ctx, "run0", sets, 2, None)?);
        let trace_dir = ctx.work_dir.join("traces");
        traced_run = Some(run_fig2(ctx, "traced", sets, 2, Some(&trace_dir))?);
    } else {
        // As many runs as fit in the window, at least one.
        loop {
            runs.push(run_fig2(ctx, &format!("run{}", runs.len()), sets, 2, None)?);
            let per_run = start.elapsed().as_secs_f64() / runs.len() as f64;
            if ctx.smoke || start.elapsed().as_secs_f64() + per_run > ctx.seconds as f64 {
                break;
            }
        }
    }

    // Reference: the committed results at their seed and size, otherwise
    // a single-threaded run of the same grid (which the traced run needs
    // anyway, for the parallel efficiency).
    let committed = ctx.seed == RESULTS_SEED && sets == SETS;
    let single = if committed && !ctx.traced {
        None
    } else {
        Some(run_fig2(ctx, "threads1", sets, 1, None)?)
    };
    let reference = match (&single, committed) {
        (Some(run), false) => read_csvs(&run.csv_dir)?,
        _ => read_csvs(&ctx.root.join("results"))?,
    };
    let mut points = 0;
    let mut mismatched = 0;
    let checked_single = single.iter().filter(|_| committed);
    for run in runs.iter().chain(&traced_run).chain(checked_single) {
        let (p, m) = compare(&reference, &read_csvs(&run.csv_dir)?);
        points += p;
        mismatched += m;
    }
    if mismatched > 0 {
        eprintln!("fig2_sweep: {mismatched} of {points} grid points differ from the reference");
    }
    let mut report = Report::new(ctx.traced);
    report.attempted = points as u64;
    report.failed = mismatched.min(points) as u64;
    report.correct = mismatched == 0;
    if points == 0 {
        return Err("fig2 wrote no grid points".to_string());
    }

    let rates: Vec<f64> = runs.iter().map(|r| cells / r.wall_s).collect();
    println!(
        "{{\"detail\": {{\"runs\": {}, \"cells_per_run\": {cells}, \"wall_s\": [{}]}}}}",
        runs.len(),
        runs.iter()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if !ctx.traced {
        report.set("setup_s", median(&setup_times));
        let rss = median_kb(runs.iter().flat_map(|r| r.rss_kb.iter().copied()).collect());
        report.set("rss_mb", kb_to_mb(rss.ok_or("cannot read fig2's VmRSS")?));
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s * 1e6).collect();
        report.set("latency_p50_us", median(&walls));
        return Ok(report);
    }

    let untraced = rates[0];
    let traced = cells / traced_run.as_ref().expect("traced run").wall_s;
    let single = cells
        / single
            .as_ref()
            .expect("traced runs make a threads-1 run")
            .wall_s;
    report.set("trace.overhead_share.fig2_sweep", untraced / traced - 1.0);
    report.set("sweep.parallel_efficiency", untraced / (2.0 * single));
    report.set(
        "gen.skipped_share",
        skipped_share(&read_csvs(&runs[0].csv_dir)?),
    );
    for (name, value) in sweep_layers(ctx) {
        report.set(name, value);
    }
    Ok(report)
}

/// Times the generation and analysis layers the sweep runs per cell.
fn sweep_layers(ctx: &Ctx) -> Vec<(&'static str, f64)> {
    let per_x = if ctx.smoke { 1 } else { 4 };
    // Sample 0 of every grid cell at `per_x` derived seeds: the sets the
    // sweep itself evaluates, rebuilt from text so their caches are cold.
    let mut sets: Vec<(TaskSet, usize)> = Vec::new();
    for inset in Inset::ALL {
        for x in inset.x_values() {
            for k in 0..per_x {
                if let Ok((set, m)) = sample_for_trace(inset, x, ctx.seed.wrapping_add(k)) {
                    let fresh = parse_task_set(&write_task_set(&set)).expect("written sets parse");
                    sets.push((fresh, m));
                }
            }
        }
    }
    let median_of = |f: &dyn Fn(&TaskSet, usize) -> f64| {
        Samples::new(sets.iter().map(|(s, m)| f(s, *m)).collect()).median()
    };
    // The first call fills the cache; the analyses below then run warm.
    let derive = median_of(&|s, _| derive_us(s));
    let global = median_of(&|s, m| {
        time_us(|| analyze_many(s, m, &[ConcurrencyModel::Full, ConcurrencyModel::Limited])).0
    });
    let worst_fit =
        median_of(&|s, m| time_us(|| partition_and_analyze(s, m, PartitionStrategy::WorstFit)).0);
    let algorithm1 =
        median_of(&|s, m| time_us(|| partition_and_analyze(s, m, PartitionStrategy::Algorithm1)).0);

    // Generation with inset (a)'s concurrency windows on m = 8.
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let mut gen_times = Vec::new();
    for x in Inset::A.x_values() {
        for _ in 0..per_x * 8 {
            let dag = DagGenConfig {
                blocking: BlockingPolicy::Fixed(rng.gen()),
                ..DagGenConfig::default()
            };
            let cfg = TaskSetConfig::new(4, 4.0, dag).with_concurrency_window(ConcurrencyWindow {
                m: 8,
                l_min: (x - 1).max(1),
                l_max: x,
                max_attempts: 60,
            });
            gen_times.push(time_us(|| cfg.generate(&mut rng)).0);
        }
    }
    vec![
        ("graph.cache.derive_us.fig2_sweep", derive),
        ("core.global_rta_us.fig2_sweep", global),
        ("core.partitioned_rta_us", worst_fit),
        ("core.algorithm1_us", algorithm1),
        ("gen.generate_us", Samples::new(gen_times).median()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_the_papers_cells() {
        // Insets a/b: l_max 1..=8; c/d: 7 core counts; e/f: 8 task counts.
        assert_eq!(cells(1), 46);
        assert_eq!(cells(500), 23_000);
    }

    #[test]
    fn every_differing_missing_or_extra_row_counts() {
        let reference = vec!["h\n1\n2\n3\n".to_string(), "h\n4\n".to_string()];
        assert_eq!(compare(&reference, &reference), (4, 0));
        let run = vec!["h\n1\nX\n".to_string(), "h\n4\n5\n".to_string()];
        assert_eq!(compare(&reference, &run), (4, 3));
        assert_eq!(compare(&reference, &reference[..1]), (3, 1));
    }

    #[test]
    fn skipped_share_reads_the_csv_columns() {
        let csv = "inset,l_max,proposed_ratio,baseline_ratio,samples,skipped,errors\n\
                   a,1,0.5,1.0,300,100,0\na,2,0.5,1.0,100,0,0\n"
            .to_string();
        assert!((skipped_share(&[csv]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn committed_results_are_the_reference_grid() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let csvs = read_csvs(&root.join("results")).unwrap();
        let (points, mismatched) = compare(&csvs, &csvs);
        assert_eq!(mismatched, 0);
        assert!(points > 0 && points <= cells(1));
    }
}
