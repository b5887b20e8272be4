//! The metric catalog and the result line.
//!
//! [`catalog`] is the single list of metric names and units;
//! `BENCHMARK.json` must describe exactly these (checked by this crate's
//! tests). Every untraced run prints every end-to-end entry, whatever its
//! workload, and every traced run prints every per-layer entry.

use std::fmt::Write as _;
use std::sync::OnceLock;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop admission requests against the `rtpool-serve` binary.
    ServeOpen,
    /// Closed-loop `ThreadPool::run` calls in process.
    ExecJobs,
    /// Batch runs of the `fig2` binary.
    Fig2Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ServeOpen, Workload::ExecJobs, Workload::Fig2Sweep];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeOpen => "serve_open",
            Workload::ExecJobs => "exec_jobs",
            Workload::Fig2Sweep => "fig2_sweep",
        }
    }

    /// Inverse of [`Workload::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalog entry.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    pub name: String,
    /// Unit, `[A-Za-z0-9_/%.-]`, at most 16 characters.
    pub unit: &'static str,
    /// Which way the metric improves.
    pub better: Better,
    /// `false` for end-to-end metrics (untraced runs), `true` for
    /// per-layer metrics (traced runs).
    pub per_layer: bool,
}

/// Suffixes of the executor metrics, one per queue discipline.
pub const DISCIPLINES: [&str; 2] = ["global_fifo", "partitioned"];

/// The full metric catalog.
pub fn catalog() -> &'static [MetricDef] {
    static CATALOG: OnceLock<Vec<MetricDef>> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> Vec<MetricDef> {
    use Better::{Higher, Lower};

    // Each workload gives these names its own process and operation: a
    // verdict, a job, or one run of `fig2` over the whole grid (README.md).
    let end_to_end: &[(&str, &str, Better)] = &[
        ("setup_s", "s", Lower),
        ("rss_mb", "MB", Lower),
        ("latency_p50_us", "us", Lower),
    ];
    let per_layer: &[(&str, &str, Better)] = &[
        ("serve.verdict_p50_us", "us", Lower),
        ("serve.verdict_p99_us", "us", Lower),
        ("serve.layer_sum_us", "us", Lower),
        ("serve.max_verdicts_per_s", "1/s", Higher),
        ("serve.protocol.decode_us", "us", Lower),
        ("serve.protocol.decode_ns_per_byte", "ns/B", Lower),
        ("serve.protocol.encode_us", "us", Lower),
        ("serve.interner.intern_miss_us", "us", Lower),
        ("serve.interner.hit_share", "share", Higher),
        ("graph.cache.derive_us.serve_open", "us", Lower),
        ("serve.ladder.prefilter_us", "us", Lower),
        ("serve.ladder.deadlock_us", "us", Lower),
        ("serve.ladder.limited_us", "us", Lower),
        ("serve.ladder.exact_us", "us", Lower),
        ("serve.ladder.answered_prefilter_share", "share", Higher),
        ("serve.ladder.answered_deadlock_share", "share", Higher),
        ("serve.ladder.answered_limited_share", "share", Lower),
        ("serve.ladder.answered_exact_share", "share", Lower),
        ("serve.server.service_p50_us", "us", Lower),
        ("serve.server.queue_peak", "count", Lower),
        ("serve.server.busy", "count", Lower),
        ("serve.server.shed", "count", Lower),
        ("serve.server.breaker_opens", "count", Lower),
        ("loadgen.late_p99_us", "us", Lower),
        ("core.global_rta_us.serve_open", "us", Lower),
        ("exec.job_p99_us", "us", Lower),
        ("graph.cache.derive_us.fig2_sweep", "us", Lower),
        ("core.global_rta_us.fig2_sweep", "us", Lower),
        ("gen.generate_us", "us", Lower),
        ("gen.skipped_share", "share", Lower),
        ("core.partitioned_rta_us", "us", Lower),
        ("core.algorithm1_us", "us", Lower),
        ("sweep.parallel_efficiency", "share", Higher),
        ("trace.overhead_share.serve_open", "share", Lower),
        ("trace.overhead_share.exec_jobs", "share", Lower),
        ("trace.overhead_share.fig2_sweep", "share", Lower),
    ];
    let exec_layers: &[(&str, &str, Better)] = &[
        ("exec.pool.new_us", "us", Lower),
        ("exec.pool.dispatch_gap_p50_us", "us", Lower),
        ("exec.pool.dispatch_gap_p99_us", "us", Lower),
        ("exec.pool.job_tail_us", "us", Lower),
        ("exec.pool.barrier_wait_us", "us", Lower),
        ("exec.pool.parks_per_job", "1/job", Lower),
        ("exec.pool.unparks_per_job", "1/job", Lower),
        ("exec.pool.steal_batches_per_job", "1/job", Lower),
        ("exec.pool.queue_depth_max", "count", Lower),
        ("exec.pool.min_available_workers", "count", Higher),
    ];

    let mut out = Vec::new();
    for (entries, per_layer) in [(end_to_end, false), (per_layer, true)] {
        for &(name, unit, better) in entries {
            out.push(MetricDef {
                name: name.to_string(),
                unit,
                better,
                per_layer,
            });
        }
    }
    for &(base, unit, better) in exec_layers {
        for discipline in DISCIPLINES {
            out.push(MetricDef {
                name: format!("{base}.{discipline}"),
                unit,
                better,
                per_layer: true,
            });
        }
    }
    out
}

/// The catalog entries a run prints: every per-layer entry when traced,
/// every end-to-end entry otherwise.
#[must_use]
pub fn expected(traced: bool) -> Vec<&'static MetricDef> {
    catalog().iter().filter(|m| m.per_layer == traced).collect()
}

/// Whether `name` is a valid metric or workload name.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Escapes `s` as the body of a JSON string.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// The result of one run: metrics plus the correctness tally.
#[derive(Debug)]
pub struct Report {
    traced: bool,
    metrics: Vec<(&'static MetricDef, f64)>,
    /// Operations attempted (requests, jobs or grid points).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
}

impl Report {
    /// An empty report for one run.
    #[must_use]
    pub fn new(traced: bool) -> Self {
        Report {
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }

    /// Records metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a catalog entry of this run's mode, was
    /// already recorded, or `value` is not finite — each a bug in the
    /// benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = expected(self.traced)
            .into_iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not printed by this run"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(m, _)| m.name != name),
            "metric `{name}` recorded twice"
        );
        self.metrics.push((def, value));
    }

    /// Adds the metrics and tallies of `other`, a report of the same
    /// mode from another part of the run.
    ///
    /// # Panics
    ///
    /// Panics if both reports recorded the same metric.
    pub fn merge(&mut self, other: Report) {
        for (def, value) in other.metrics {
            self.set(&def.name, value);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.correct &= other.correct;
    }

    /// Names the catalog expects from this run but that were not set.
    #[must_use]
    pub fn missing(&self) -> Vec<&'static str> {
        expected(self.traced)
            .into_iter()
            .filter(|m| self.metrics.iter().all(|(s, _)| s.name != m.name))
            .map(|m| m.name.as_str())
            .collect()
    }

    /// The result line: one JSON object with exactly the keys
    /// `correct`, `attempted`, `failed` and `metrics`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let mut names: Vec<&str> = catalog().iter().map(|m| m.name.as_str()).collect();
        for m in catalog() {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for w in Workload::ALL {
            assert!(valid_name(w.name()));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert!(expected(false).iter().any(|m| m.name == "setup_s"));
        assert!(!expected(true).is_empty());
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("serve.protocol.decode_us"));
        assert!(valid_name("0a-b_c.d"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("ns/B") && valid_unit("%"));
        assert!(!valid_unit("µs") && !valid_unit("") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::new(false);
        r.attempted = 3;
        for m in expected(false) {
            r.set(&m.name, 1.5);
        }
        assert!(r.missing().is_empty());
        let line = r.to_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"latency_p50_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    #[should_panic(expected = "not printed by this run")]
    fn per_layer_metric_in_an_untraced_run_is_a_bug() {
        Report::new(false).set("gen.generate_us", 1.0);
    }

    #[test]
    fn merged_parts_add_their_tallies() {
        let mut a = Report::new(true);
        a.attempted = 2;
        a.set("gen.generate_us", 1.0);
        let mut b = Report::new(true);
        b.attempted = 3;
        b.failed = 1;
        b.correct = false;
        b.set("exec.job_p99_us", 2.0);
        a.merge(b);
        assert_eq!((a.attempted, a.failed, a.correct), (5, 1, false));
        assert!(!a.missing().contains(&"exec.job_p99_us"));
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn merging_a_metric_twice_is_a_bug() {
        let mut a = Report::new(true);
        a.set("gen.generate_us", 1.0);
        let mut b = Report::new(true);
        b.set("gen.generate_us", 2.0);
        a.merge(b);
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
