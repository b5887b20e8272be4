//! Child-process plumbing: resident-memory samples and bounded waits.

use std::process::{Child, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The KiB figure on the `key` line (`VmRSS:`, `VmHWM:`) of a
/// `/proc/<pid>/status` file.
fn status_kb(status_path: &str, key: &str) -> Option<u64> {
    parse_status_kb(&std::fs::read_to_string(status_path).ok()?, key)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// KiB to MB (10⁶ bytes).
#[must_use]
pub fn kb_to_mb(kb: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let bytes = (kb * 1024) as f64;
    bytes / 1e6
}

/// Samples a process's `VmRSS` every few milliseconds until stopped.
pub struct RssPoller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<u64>>,
}

/// Interval between two `VmRSS` samples.
const RSS_EVERY: Duration = Duration::from_millis(20);

impl RssPoller {
    /// Starts polling `pid`.
    #[must_use]
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let path = format!("/proc/{pid}/status");
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            // Relaxed: the flag publishes no other data.
            while !flag.load(Ordering::Relaxed) {
                if let Some(kb) = status_kb(&path, "VmRSS:") {
                    samples.push(kb);
                }
                std::thread::sleep(RSS_EVERY);
            }
            samples
        });
        RssPoller { stop, handle }
    }

    /// Stops polling and returns every sample, in KiB.
    #[must_use]
    pub fn samples(self) -> Vec<u64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("memory poller does not panic")
    }

    /// Stops polling and returns the median sample, in KiB.
    #[must_use]
    pub fn finish(self) -> Option<u64> {
        median_kb(self.samples())
    }
}

/// Median (upper middle) of `samples`.
#[must_use]
pub fn median_kb(mut samples: Vec<u64>) -> Option<u64> {
    samples.sort_unstable();
    samples.get(samples.len() / 2).copied()
}

/// Waits for `child` up to `timeout`, killing it when the time runs out.
///
/// # Errors
///
/// Returns a description when the child had to be killed or could not
/// be waited for.
pub fn wait_bounded(child: &mut Child, timeout: Duration) -> Result<ExitStatus, String> {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if start.elapsed() < timeout => std::thread::sleep(Duration::from_millis(2)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child did not exit within {timeout:?}; killed"));
            }
            Err(e) => return Err(format!("cannot wait for child: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_status_lines() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(1234));
        assert_eq!(parse_status_kb(status, "VmRSS:"), Some(1000));
        assert_eq!(parse_status_kb("Name:\tx\n", "VmRSS:"), None);
        assert!((kb_to_mb(1000) - 1.024).abs() < 1e-12);
    }

    #[test]
    fn samples_this_process() {
        let poller = RssPoller::start(std::process::id());
        std::thread::sleep(RSS_EVERY * 3);
        let samples = poller.samples();
        assert!(!samples.is_empty() && samples.iter().all(|&kb| kb > 0));
        assert_eq!(median_kb(vec![5, 1, 3]), Some(3));
        assert_eq!(median_kb(Vec::new()), None);
    }
}
