//! Command line of the rtpool benchmark.
//!
//! ```text
//! perfbench --workload serve_open|exec_jobs|fig2_sweep --seed N
//!           --seconds S --trace 0|1 --bin-dir DIR [--smoke]
//! ```
//!
//! Prints a provenance line, a detail line per workload run and, last,
//! the result object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 without a result when a workload cannot run, 2 on a usage
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::provenance::{self, RunId};
use perfbench::report::Workload;
use perfbench::Ctx;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    bin_dir: PathBuf,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("invalid --seed `{s}`: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut bin_dir) =
        (None, None, None, None, None);
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(parse_seed(&value()?)?),
            "--seconds" => {
                let v = value()?;
                let s: u64 = v
                    .parse()
                    .map_err(|e| format!("invalid --seconds `{v}`: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace `{other}` (0|1)")),
                });
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        smoke,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory exists");
    let work_dir = args.bin_dir.join("perfbench-work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        bin_dir: args.bin_dir,
        work_dir,
        root,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
    };
    println!(
        "{}",
        provenance::record(
            &ctx.root,
            RunId {
                workload: args.workload.name(),
                seed: ctx.seed,
                seconds: ctx.seconds,
                traced: ctx.traced,
                smoke: ctx.smoke,
            }
        )
    );
    let result = perfbench::run(args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    match result {
        Ok(report) => {
            let missing = report.missing();
            if !missing.is_empty() {
                eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
                return ExitCode::FAILURE;
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
