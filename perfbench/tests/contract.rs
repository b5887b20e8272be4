//! The benchmark against its description: `BENCHMARK.json` lists exactly
//! the catalog's metrics, and a smoke run of every workload prints every
//! metric of its mode's section, with its unit, as the last line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use perfbench::report::{catalog, valid_name, valid_unit, Workload};

/// A JSON value: just enough to read `BENCHMARK.json` and result lines.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key `{key}`")),
            _ => panic!("not an object"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing input");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected `{}` at {}", c as char, self.i);
        self.i += 1;
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("key")
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => {
                            let start = self.i - 1;
                            let len = match c {
                                0..=0x7f => 1,
                                0xc0..=0xdf => 2,
                                0xe0..=0xef => 3,
                                _ => 4,
                            };
                            out.push_str(std::str::from_utf8(&self.s[start..start + len]).unwrap());
                            self.i = start + len;
                        }
                    }
                }
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                Json::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Json {
    parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"))
}

/// `(name, unit, better)` of one `BENCHMARK.json` metric section.
fn section(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_describes_exactly_the_catalog() {
    let doc = benchmark_json();
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    for (key, per_layer) in [("end_to_end", false), ("per_layer", true)] {
        let listed = section(&doc, key);
        let want: Vec<(String, String, String)> = catalog()
            .iter()
            .filter(|m| m.per_layer == per_layer)
            .map(|m| {
                (
                    m.name.clone(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, want, "{key} differs from the catalog");
        for (name, unit, _) in &listed {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        }
    }
    // Bounds: at most 0.25, and set-up time has the largest.
    let bounds: BTreeMap<String, f64> = doc
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| (m.get("name").str().to_string(), m.get("bound").num()))
        .collect();
    let setup = bounds["setup_s"];
    assert!(bounds.values().all(|&b| b > 0.0 && b <= setup && b <= 0.25));
    let seconds = doc.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

/// Builds the shipped binaries the child-process workloads drive, into
/// a target directory of their own (the running `cargo test` holds the
/// lock on this one), and returns where they are.
fn shipped_binaries() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
    let profile_dir = exe.parent().expect("binary directory");
    let release = profile_dir.file_name().is_some_and(|n| n == "release");
    let target = profile_dir.join("perfbench-smoke");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(repo_root())
        .args(["build", "--offline", "--quiet", "-p", "rtpool-bench"])
        .args(["--bin", "rtpool-serve", "--bin", "fig2"])
        .env("CARGO_TARGET_DIR", &target);
    if release {
        cmd.arg("--release");
    }
    assert!(
        cmd.status().expect("cargo runs").success(),
        "building the shipped binaries failed"
    );
    target.join(if release { "release" } else { "debug" })
}

#[test]
fn smoke_runs_print_every_catalog_metric_with_its_unit() {
    let bin_dir = shipped_binaries();
    let doc = benchmark_json();
    let units = |key: &str| -> BTreeMap<String, String> {
        section(&doc, key)
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    };
    for workload in Workload::ALL {
        for traced in [false, true] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .current_dir(repo_root())
                .args([
                    "--workload",
                    workload.name(),
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", if traced { "1" } else { "0" }, "--smoke"])
                .arg("--bin-dir")
                .arg(&bin_dir)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{} trace={traced} failed: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            assert!(
                parse(lines[0])
                    .get("provenance")
                    .get("host")
                    .get("cores")
                    .num()
                    >= 1.0
            );
            let result = parse(lines.last().expect("a result line"));
            assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            // Every metric of the mode's section, whatever the workload.
            let want = units(if traced { "per_layer" } else { "end_to_end" });
            let metrics = result.get("metrics");
            let mut printed: Vec<&str> = metrics.keys();
            printed.sort_unstable();
            assert_eq!(
                printed,
                want.keys().map(String::as_str).collect::<Vec<_>>(),
                "{} trace={traced}",
                workload.name()
            );
            for (name, unit) in &want {
                let m = metrics.get(name);
                assert_eq!(m.get("unit").str(), unit, "unit of {name}");
                assert!(m.get("value").num().is_finite());
            }
        }
    }
}
