//! The suspend-vs-spin head-to-head study behind `BENCH_spin.json`.
//!
//! Two halves, mirroring what the [`SyncBackend`] knob changes:
//!
//! * **Schedulability** — a fig2-style sweep over the global insets: the
//!   same seeded task sets as [`crate::fig2`] (identical RNG streams,
//!   identical discard rules), each analyzed under the suspend backend
//!   *and* re-analyzed with its backend flipped to spin. The suspend
//!   series is bit-identical to the `fig2` pipeline by construction —
//!   [`StudyReport::verdicts_match`] re-runs `fig2` and checks — while
//!   the spin series shows the schedulability cliff the busy-wait model
//!   pays at high blocking (low `l_max`): spinning forks inflate every
//!   interfering task's volume and harden the sizing floor to the delay
//!   count, so the spin ratio can only fall below the suspend ratio
//!   ([`StudyReport::spin_never_beats_suspend`] pins the dominance).
//!
//! * **Execution wall-clock** — the flip side: tiny fork-join jobs on
//!   the real pool under both backends. With short
//!   critical sections a spinning fork resumes its continuation with no
//!   wake-up latency, which is exactly where spin wins; the measured
//!   medians land in the artifact so the crossover is documented with
//!   numbers rather than folklore.

use std::time::{Duration, Instant};

use rand::SeedableRng;
use rtpool_core::SyncBackend;
use rtpool_exec::{PoolConfig, QueueDiscipline, ThreadPool};
use rtpool_gen::DagScratch;
use rtpool_graph::{Dag, DagBuilder};

use crate::fig2::{self, Fig2Params, Inset};
use crate::sweep::SweepPool;

/// Which backend series the study runs (`--backend suspend|spin|both`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    /// Only the suspend series (the `fig2` numbers, re-labeled).
    Suspend,
    /// Only the spin series.
    Spin,
    /// Both series plus the cross-backend gates (the default).
    Both,
}

impl BackendChoice {
    /// Parses the `--backend` operand.
    #[must_use]
    pub fn parse(s: &str) -> Option<BackendChoice> {
        match s.to_ascii_lowercase().as_str() {
            "suspend" => Some(BackendChoice::Suspend),
            "spin" => Some(BackendChoice::Spin),
            "both" => Some(BackendChoice::Both),
            _ => None,
        }
    }

    /// `true` when the suspend series is part of the study.
    #[must_use]
    pub fn runs_suspend(self) -> bool {
        matches!(self, BackendChoice::Suspend | BackendChoice::Both)
    }

    /// `true` when the spin series is part of the study.
    #[must_use]
    pub fn runs_spin(self) -> bool {
        matches!(self, BackendChoice::Spin | BackendChoice::Both)
    }
}

/// One x-point of the head-to-head sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendPoint {
    /// The swept parameter's value.
    pub x: i64,
    /// Proposed-test schedulability ratio under the suspend backend
    /// (exactly `fig2`'s `proposed`).
    pub suspend: f64,
    /// The same ratio with every set's backend flipped to spin.
    pub spin: f64,
    /// Backend-oblivious baseline ratio (identical under both backends).
    pub baseline: f64,
    /// Sets evaluated / skipped / errored, as in [`fig2::SeriesPoint`].
    pub samples: usize,
    /// Samples the discard/window budget dropped.
    pub skipped: usize,
    /// Samples dropped by a generation error.
    pub errors: usize,
    /// Samples where spin accepted a set suspend rejected — must stay 0
    /// (spin analysis only adds interference and hardens the floor).
    pub dominance_violations: usize,
}

/// The schedulability half of the study.
#[derive(Clone, Debug)]
pub struct StudyReport {
    /// Per-inset series, in request order.
    pub series: Vec<(Inset, Vec<BackendPoint>)>,
    /// `true` when the suspend side reproduced the `fig2` pipeline
    /// bit-identically (always `true` when only spin was requested —
    /// there is nothing to compare).
    pub verdicts_match: bool,
}

impl StudyReport {
    /// `true` when no sample anywhere was schedulable under spin but not
    /// under suspend.
    #[must_use]
    pub fn spin_never_beats_suspend(&self) -> bool {
        self.series
            .iter()
            .flat_map(|(_, points)| points)
            .all(|p| p.dominance_violations == 0)
    }
}

/// Outcome of one `(inset, x, sample)` cell under both backends.
enum CellOutcome {
    Evaluated {
        suspend: bool,
        spin: bool,
        baseline: bool,
    },
    Skipped,
    Error,
}

/// Runs the head-to-head sweep over the given (global) insets.
///
/// Every cell regenerates its set through the exact `fig2` sample
/// driver — same derived seed, same scratch fast path, same discard
/// rule — so the suspend verdicts are the `fig2` verdicts, then flips
/// the set's backend in place and re-runs the same analysis battery.
///
/// # Panics
///
/// Panics when a partitioned inset (b/d/f) is requested: the
/// partitioned analyses are backend-oblivious, so a spin series over
/// them would be vacuously equal to suspend.
#[must_use]
pub fn run_study(
    pool: &SweepPool,
    insets: &[Inset],
    params: &Fig2Params,
    choice: BackendChoice,
) -> StudyReport {
    for &inset in insets {
        assert!(
            fig2::is_global(inset),
            "inset ({}) is partitioned: the spin study covers the global analyses only",
            inset.letter()
        );
    }
    let coords: Vec<(Inset, i64)> = insets
        .iter()
        .flat_map(|&inset| inset.x_values().into_iter().map(move |x| (inset, x)))
        .collect();
    let spp = params.sets_per_point;
    let seed = params.seed;
    let run_spin = choice.runs_spin();
    let cell_coords = coords.clone();
    let outcomes = pool.run(coords.len() * spp, "spin-study", move |i| {
        let (inset, x) = cell_coords[i / spp];
        let sample = i % spp;
        let mut rng = rand::rngs::StdRng::seed_from_u64(fig2::derive_seed(seed, inset, x, sample));
        let mut scratch = DagScratch::new();
        match fig2::sample_with_verdicts(inset, x, &mut rng, Some(&mut scratch)) {
            Ok(Some((set, m, suspend, baseline))) => {
                let spin = if run_spin {
                    let mut spin_set = set;
                    spin_set.set_backend(SyncBackend::Spin);
                    fig2::evaluate_set(inset, &spin_set, m).0
                } else {
                    false
                };
                CellOutcome::Evaluated {
                    suspend,
                    spin,
                    baseline,
                }
            }
            Ok(None) => CellOutcome::Skipped,
            Err(_) => CellOutcome::Error,
        }
    });

    let mut series: Vec<(Inset, Vec<BackendPoint>)> =
        insets.iter().map(|&inset| (inset, Vec::new())).collect();
    for (p, &(inset, x)) in coords.iter().enumerate() {
        let point = fold_cell(x, &outcomes[p * spp..(p + 1) * spp]);
        series
            .iter_mut()
            .find(|(i, _)| *i == inset)
            .expect("coordinate instigated by an entry of `insets`")
            .1
            .push(point);
    }

    // Bit-identity gate: the suspend half of the study must reproduce
    // the fig2 pipeline exactly (ratios, tallies, everything).
    let verdicts_match = if choice.runs_suspend() {
        fig2::run_insets(pool, insets, params)
            .iter()
            .zip(&series)
            .all(|((fi, fig2_points), (si, study_points))| {
                fi == si
                    && fig2_points.len() == study_points.len()
                    && fig2_points.iter().zip(study_points).all(|(f, s)| {
                        f.x == s.x
                            && f.proposed.to_bits() == s.suspend.to_bits()
                            && f.baseline.to_bits() == s.baseline.to_bits()
                            && f.samples == s.samples
                            && f.skipped == s.skipped
                            && f.errors == s.errors
                    })
            })
    } else {
        true
    };

    StudyReport {
        series,
        verdicts_match,
    }
}

fn fold_cell(x: i64, outcomes: &[CellOutcome]) -> BackendPoint {
    let mut evaluated = 0usize;
    let mut suspend_ok = 0usize;
    let mut spin_ok = 0usize;
    let mut baseline_ok = 0usize;
    let mut skipped = 0usize;
    let mut errors = 0usize;
    let mut dominance_violations = 0usize;
    for outcome in outcomes {
        match outcome {
            CellOutcome::Evaluated {
                suspend,
                spin,
                baseline,
            } => {
                evaluated += 1;
                suspend_ok += usize::from(*suspend);
                spin_ok += usize::from(*spin);
                baseline_ok += usize::from(*baseline);
                dominance_violations += usize::from(*spin && !*suspend);
            }
            CellOutcome::Skipped => skipped += 1,
            CellOutcome::Error => errors += 1,
        }
    }
    let ratio = |count: usize| {
        if evaluated == 0 {
            0.0
        } else {
            count as f64 / evaluated as f64
        }
    };
    BackendPoint {
        x,
        suspend: ratio(suspend_ok),
        spin: ratio(spin_ok),
        baseline: ratio(baseline_ok),
        samples: evaluated,
        skipped,
        errors,
        dominance_violations,
    }
}

/// One execution-side scenario: a fork-join job timed on the real pool
/// under both backends.
#[derive(Clone, Debug)]
pub struct ExecScenario {
    /// Scenario name (artifact key).
    pub name: &'static str,
    /// Median wall-clock of one job under the suspend backend.
    pub suspend: Duration,
    /// Median wall-clock of one job under the spin backend.
    pub spin: Duration,
}

impl ExecScenario {
    /// `suspend / spin` — above 1.0 means spin won the scenario.
    #[must_use]
    pub fn spin_speedup(&self) -> f64 {
        let spin = self.spin.as_secs_f64();
        if spin <= 0.0 {
            0.0
        } else {
            self.suspend.as_secs_f64() / spin
        }
    }
}

/// The fork-join job of an execution scenario: one blocking fork, two
/// children of `child_wcet` units each, on three workers.
fn scenario_dag(child_wcet: u64) -> Dag {
    let mut b = DagBuilder::new();
    b.fork_join(1, &[child_wcet, child_wcet], 1, true)
        .expect("fork-join shape");
    b.build().expect("valid dag")
}

/// Times the median job wall-clock for one `(dag, backend)` combination:
/// `reps` jobs on a persistent pool, one warm-up job discarded.
fn median_job(dag: &Dag, backend: SyncBackend, reps: usize) -> Duration {
    let config = PoolConfig::new(3, QueueDiscipline::GlobalFifo)
        .with_backend(backend)
        .with_time_scale(Duration::from_micros(50));
    let mut pool = ThreadPool::new(config);
    pool.run(dag).expect("scenario job runs");
    let mut times: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            pool.run(dag).expect("scenario job runs");
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Runs the execution half of the study: short- and long-wait fork-join
/// jobs, each timed under both backends.
///
/// The short-wait scenario (`child_wcet = 1`) is where spin is expected
/// to win — the barrier opens almost immediately, so the suspend
/// backend's park/wake round trip dominates the wait itself. The
/// long-wait scenario (`child_wcet = 20`) shows the price evaporating:
/// the wait dwarfs the wake-up latency, and the spinning core's burned
/// cycles buy nothing.
#[must_use]
pub fn run_exec_study(reps: usize) -> Vec<ExecScenario> {
    let short = scenario_dag(1);
    let long = scenario_dag(20);
    [
        ("short-critical-section", &short),
        ("long-critical-section", &long),
    ]
    .into_iter()
    .map(|(name, dag)| ExecScenario {
        name,
        suspend: median_job(dag, SyncBackend::Suspend, reps),
        spin: median_job(dag, SyncBackend::Spin, reps),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> Fig2Params {
        Fig2Params {
            sets_per_point: 10,
            seed: 3,
            threads: 4,
        }
    }

    #[test]
    fn backend_choice_parses() {
        assert_eq!(BackendChoice::parse("both"), Some(BackendChoice::Both));
        assert_eq!(BackendChoice::parse("SPIN"), Some(BackendChoice::Spin));
        assert_eq!(
            BackendChoice::parse("suspend"),
            Some(BackendChoice::Suspend)
        );
        assert_eq!(BackendChoice::parse("futex"), None);
        assert!(BackendChoice::Both.runs_suspend() && BackendChoice::Both.runs_spin());
        assert!(!BackendChoice::Spin.runs_suspend());
        assert!(!BackendChoice::Suspend.runs_spin());
    }

    #[test]
    fn study_suspend_side_is_bit_identical_to_fig2() {
        let pool = SweepPool::new(4);
        let report = run_study(&pool, &[Inset::C], &tiny_params(), BackendChoice::Both);
        assert!(report.verdicts_match);
        assert!(report.spin_never_beats_suspend());
        let series = &report.series[0].1;
        assert_eq!(series.len(), Inset::C.x_values().len());
        for p in series {
            assert!(
                p.spin <= p.suspend + 1e-12,
                "spin beat suspend at x={}",
                p.x
            );
        }
    }

    #[test]
    fn study_is_deterministic() {
        let pool = SweepPool::new(4);
        let a = run_study(&pool, &[Inset::C], &tiny_params(), BackendChoice::Both);
        let b = run_study(&pool, &[Inset::C], &tiny_params(), BackendChoice::Both);
        assert_eq!(a.series, b.series);
    }

    #[test]
    #[should_panic(expected = "partitioned")]
    fn partitioned_insets_are_rejected() {
        let pool = SweepPool::new(2);
        let _ = run_study(&pool, &[Inset::B], &tiny_params(), BackendChoice::Both);
    }

    #[test]
    fn exec_study_times_all_scenarios() {
        let scenarios = run_exec_study(3);
        assert_eq!(scenarios.len(), 2);
        for s in &scenarios {
            assert!(s.suspend > Duration::ZERO && s.spin > Duration::ZERO);
            assert!(s.spin_speedup() > 0.0);
        }
    }
}
