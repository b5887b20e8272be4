//! The rtpool benchmark: open-loop admission latency (`serve_open`),
//! executor job latency (`exec_jobs`) and Figure 2 sweep throughput
//! (`fig2_sweep`), with a traced run that splits the time by layer.
//!
//! `README.md` in this directory describes the workloads, the metrics
//! and which layer metric should move which end-to-end metric.

pub mod child;
pub mod exec_jobs;
pub mod fig2_sweep;
pub mod layers;
pub mod provenance;
pub mod report;
pub mod serve_open;
pub mod stats;

use std::path::PathBuf;

use report::{Report, Workload};

/// Settings shared by every workload.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Directory holding the shipped `rtpool-serve` and `fig2` binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory for child outputs, removed after the run.
    pub work_dir: PathBuf,
    /// Repository root (for `results/`).
    pub root: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// A reduced run for tests: tiny inputs, same checks and metric names.
    pub smoke: bool,
}

impl Ctx {
    /// Path of a shipped binary.
    #[must_use]
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// Runs one workload and returns its report.
///
/// An untraced run measures `workload` alone. A traced run profiles the
/// layers of every workload, `workload` first, so that it prints every
/// per-layer metric whichever workload it is named after.
///
/// # Errors
///
/// Returns a description of what kept a workload from running.
pub fn run(workload: Workload, ctx: &Ctx) -> Result<Report, String> {
    let run_one = |w: Workload| match w {
        Workload::ServeOpen => serve_open::run(ctx),
        Workload::ExecJobs => exec_jobs::run(ctx),
        Workload::Fig2Sweep => fig2_sweep::run(ctx),
    };
    let mut report = run_one(workload)?;
    if ctx.traced {
        for other in Workload::ALL.into_iter().filter(|&w| w != workload) {
            report.merge(run_one(other)?);
        }
    }
    Ok(report)
}
