//! Emits `BENCH_spin.json`: the suspend-vs-spin head-to-head study.
//!
//! ```text
//! spin_study [--backend suspend|spin|both] [--inset a|c|e|all]
//!            [--sets N] [--seed S] [--threads T] [--reps R]
//!            [--quick] [--out PATH]
//! ```
//!
//! The schedulability half re-runs the fig2 sweep over the global
//! insets with every sampled set analyzed under both barrier backends
//! (see `rtpool_bench::spin_study`); the execution half times short-
//! and long-wait fork-join jobs on the real pool under both backends.
//! The artifact carries two determinism/correctness
//! gates CI greps for:
//!
//! * `"verdicts_match": true` — the suspend series is bit-identical to
//!   the `fig2` pipeline (same RNG streams, same tallies, same ratios);
//! * `"spin_never_beats_suspend": true` — no sampled set was
//!   schedulable under spin but not under suspend.
//!
//! `--quick` (the CI smoke configuration) drops to 40 sets per point on
//! insets (a) and (c) with 5 timing reps.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rtpool_bench::fig2::{Fig2Params, Inset};
use rtpool_bench::spin_study::{run_exec_study, run_study, BackendChoice, StudyReport};
use rtpool_bench::sweep::SweepPool;

struct Args {
    insets: Vec<Inset>,
    params: Fig2Params,
    choice: BackendChoice,
    reps: usize,
    out: String,
}

const GLOBAL_INSETS: [Inset; 3] = [Inset::A, Inset::C, Inset::E];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        insets: vec![Inset::A, Inset::C],
        params: Fig2Params {
            sets_per_point: 150,
            ..Fig2Params::default()
        },
        choice: BackendChoice::Both,
        reps: 15,
        out: "BENCH_spin.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--backend" => {
                let v = value("--backend")?;
                args.choice = BackendChoice::parse(&v)
                    .ok_or_else(|| format!("unknown backend `{v}` (suspend|spin|both)"))?;
            }
            "--inset" => {
                let v = value("--inset")?;
                if v.eq_ignore_ascii_case("all") {
                    args.insets = GLOBAL_INSETS.to_vec();
                } else {
                    let inset = Inset::parse(&v).ok_or_else(|| format!("unknown inset `{v}`"))?;
                    if !GLOBAL_INSETS.contains(&inset) {
                        return Err(format!(
                            "inset ({v}) is partitioned; the spin study covers a, c, e"
                        ));
                    }
                    args.insets = vec![inset];
                }
            }
            "--sets" => {
                args.params.sets_per_point = value("--sets")?
                    .parse()
                    .map_err(|e| format!("invalid --sets: {e}"))?;
            }
            "--seed" => {
                args.params.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?;
            }
            "--threads" => {
                args.params.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?;
            }
            "--reps" => {
                args.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("invalid --reps: {e}"))?;
            }
            "--quick" => {
                args.params.sets_per_point = 40;
                args.insets = vec![Inset::A, Inset::C];
                args.reps = 5;
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                println!(
                    "usage: spin_study [--backend suspend|spin|both] [--inset a|c|e|all] \
                     [--sets N] [--seed S] [--threads T] [--reps R] [--quick] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn render_json(
    args: &Args,
    report: &StudyReport,
    exec: &[rtpool_bench::spin_study::ExecScenario],
) -> String {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"rtpool-bench/spin-study@2\",");
    let _ = writeln!(
        json,
        "  \"what\": \"suspend-vs-spin barrier backends: fig2-style schedulability sweep + exec wall-clock head-to-head\","
    );
    let _ = writeln!(json, "  \"seed\": {},", args.params.seed);
    let _ = writeln!(
        json,
        "  \"sets_per_point\": {},",
        args.params.sets_per_point
    );
    let backends = match args.choice {
        BackendChoice::Suspend => "[\"suspend\"]",
        BackendChoice::Spin => "[\"spin\"]",
        BackendChoice::Both => "[\"suspend\", \"spin\"]",
    };
    let _ = writeln!(json, "  \"backends\": {backends},");
    json.push_str("  \"insets\": [\n");
    for (i, (inset, points)) in report.series.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"inset\": \"{}\", \"x_label\": \"{}\", \"description\": \"{}\", \"series\": [",
            inset.letter(),
            inset.x_label(),
            inset.description()
        );
        for (j, p) in points.iter().enumerate() {
            let mut line = format!("      {{ \"x\": {}", p.x);
            if args.choice.runs_suspend() {
                let _ = write!(line, ", \"suspend\": {:.6}", p.suspend);
            }
            if args.choice.runs_spin() {
                let _ = write!(line, ", \"spin\": {:.6}", p.spin);
            }
            let _ = write!(
                line,
                ", \"baseline\": {:.6}, \"samples\": {}, \"skipped\": {}, \"errors\": {} }}",
                p.baseline, p.samples, p.skipped, p.errors
            );
            let _ = writeln!(
                json,
                "{line}{}",
                if j + 1 < points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "    ] }}{}",
            if i + 1 < report.series.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"exec_wall_clock\": [\n");
    for (i, s) in exec.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{ \"scenario\": \"{}\", \"suspend_ns\": {}, \"spin_ns\": {}, \"spin_speedup\": {:.3} }}{}",
            s.name,
            s.suspend.as_nanos(),
            s.spin.as_nanos(),
            s.spin_speedup(),
            if i + 1 < exec.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"verdicts_match\": {},", report.verdicts_match);
    let _ = writeln!(
        json,
        "  \"spin_never_beats_suspend\": {}",
        report.spin_never_beats_suspend()
    );
    json.push_str("}\n");
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pool = SweepPool::new(args.params.threads);
    let start = Instant::now();
    let report = run_study(&pool, &args.insets, &args.params, args.choice);
    let sweep_elapsed = start.elapsed();
    let exec = run_exec_study(args.reps);

    for (inset, points) in &report.series {
        println!(
            "inset ({}) — {} (proposed-test ratio per backend)",
            inset.letter(),
            inset.description()
        );
        println!(
            "  {:>6}  {:>8}  {:>8}  {:>8}",
            inset.x_label(),
            "suspend",
            "spin",
            "samples"
        );
        for p in points {
            println!(
                "  {:>6}  {:>8.3}  {:>8.3}  {:>8}",
                p.x, p.suspend, p.spin, p.samples
            );
        }
        println!();
    }
    for s in &exec {
        println!(
            "exec {}: suspend {:?}, spin {:?} (spin speedup {:.2}x)",
            s.name,
            s.suspend,
            s.spin,
            s.spin_speedup()
        );
    }

    assert!(
        report.verdicts_match,
        "suspend series diverged from the fig2 pipeline"
    );
    assert!(
        report.spin_never_beats_suspend(),
        "a set was schedulable under spin but not under suspend"
    );

    let json = render_json(&args, &report, &exec);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} sets/point, seed {:#x}, sweep {:.1}s)",
        args.out,
        args.params.sets_per_point,
        args.params.seed,
        sweep_elapsed.as_secs_f64()
    );
    ExitCode::SUCCESS
}
