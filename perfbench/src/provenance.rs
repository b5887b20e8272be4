//! What every result is tied to: host, toolchain, code and run settings.

use std::path::Path;
use std::process::Command;

use crate::report::json_escape;

/// Run settings echoed into the provenance record.
#[derive(Clone, Copy, Debug)]
pub struct RunId<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// Whether this is a reduced smoke run.
    pub smoke: bool,
}

/// One JSON line describing the host, toolchain, code revision and run.
///
/// The git revision is `null` outside a git checkout; the source digest
/// (a hash of the repository's Rust sources and manifests) identifies
/// the code either way.
#[must_use]
pub fn record(root: &Path, run: RunId<'_>) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let os_release = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_default();
    let rustc = command_line("rustc", &["--version"], root);
    let git_rev = command_line("git", &["rev-parse", "HEAD"], root);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let opt = |v: Option<String>| {
        v.map_or_else(
            || "null".to_string(),
            |s| format!("\"{}\"", json_escape(&s)),
        )
    };
    format!(
        "{{\"provenance\": {{\"host\": {{\"cores\": {cores}, \"os\": \"{} {}\", \"rustc\": {}, \
         \"profile\": \"{profile}\"}}, \"git_rev\": {}, \"source_digest\": \"{:016x}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"smoke\": {}}}}}",
        std::env::consts::OS,
        json_escape(&os_release),
        opt(rustc),
        opt(git_rev),
        source_digest(root),
        run.workload,
        run.seed,
        run.seconds,
        run.traced,
        run.smoke,
    )
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// FNV-1a over the paths and contents of every `.rs` and `Cargo.toml`
/// file under `root/crates`, `root/src` and `root/perfbench/src`, plus
/// the root manifest and lock file, visited in sorted order.
#[must_use]
pub fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "src", "perfbench/src"] {
        collect(&root.join(dir), &mut files);
    }
    for file in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(file));
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            let rel = file.strip_prefix(root).unwrap_or(&file);
            feed(rel.to_string_lossy().as_bytes());
            feed(&bytes);
        }
    }
    hash
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            // Build output never belongs to the digest.
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
