//! Percentiles over raw samples.
//!
//! Every latency is kept as a raw sample and summarised by the
//! nearest-rank rule: the `p`-th percentile of `n` sorted samples is the
//! sample at rank `⌈p·n/100⌉`. A percentile is *supported* only when at
//! least [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never
//! read off a handful of points.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles tried, highest first, when looking for the supported tail.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
#[must_use]
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    // The tolerance keeps products such as 99.9 % of 10 000 from rounding
    // up past an exact integer rank.
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
#[must_use]
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Raw samples, sorted once for repeated percentile queries.
#[derive(Clone, Debug)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values`; non-finite values are a bug in the caller.
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile `p`. Panics on an empty sample.
    #[must_use]
    pub fn percentile(&self, p: f64) -> f64 {
        self.sorted[rank(self.sorted.len(), p) - 1]
    }

    /// The median.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Arithmetic mean. Panics on an empty sample.
    #[must_use]
    pub fn mean(&self) -> f64 {
        assert!(!self.sorted.is_empty(), "mean of an empty sample");
        #[allow(clippy::cast_precision_loss)]
        let n = self.sorted.len() as f64;
        self.sorted.iter().sum::<f64>() / n
    }

    /// Largest sample. Panics on an empty sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("max of an empty sample")
    }

    /// The highest percentile of [`TAIL_LADDER`] that is supported, as
    /// `(percentile, value)`; `None` below `MIN_BEYOND + 1` samples.
    #[must_use]
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        TAIL_LADDER
            .iter()
            .find(|&&p| supported(n, p))
            .map(|&p| (p, self.percentile(p)))
    }
}

/// A fixed-size uniform sample of an unbounded stream (Algorithm R).
///
/// The buffer is allocated and touched up front, so the memory a run
/// uses does not grow with the number of operations it completes.
#[derive(Clone, Debug)]
pub struct Reservoir {
    buf: Vec<f64>,
    seen: usize,
    state: u64,
}

impl Reservoir {
    /// A reservoir of `capacity` samples.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "empty reservoir");
        Reservoir {
            // A non-zero fill: zeroed memory may be mapped lazily, and
            // the pages must be resident from the start.
            buf: vec![-1.0; capacity],
            seen: 0,
            state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Offers one value.
    pub fn push(&mut self, value: f64) {
        let slot = if self.seen < self.buf.len() {
            Some(self.seen)
        } else {
            // xorshift64*: a fixed-seed generator keeps runs repeatable.
            self.state ^= self.state >> 12;
            self.state ^= self.state << 25;
            self.state ^= self.state >> 27;
            let r = self.state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            #[allow(clippy::cast_possible_truncation)]
            let j = (r % (self.seen as u64 + 1)) as usize;
            (j < self.buf.len()).then_some(j)
        };
        if let Some(j) = slot {
            self.buf[j] = value;
        }
        self.seen += 1;
    }

    /// Values offered so far.
    #[must_use]
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The kept values.
    #[must_use]
    pub fn kept(&self) -> &[f64] {
        &self.buf[..self.seen.min(self.buf.len())]
    }
}

/// The p99 of each full window of [`TAIL_WINDOW`] consecutive samples,
/// kept as the samples stream in; [`WindowedTail::p99`] is the median
/// over windows. One stalled stretch of a run moves one window's figure,
/// not the whole tail.
#[derive(Clone, Debug, Default)]
pub struct WindowedTail {
    window: Vec<f64>,
    p99s: Vec<f64>,
}

/// Samples per window of [`WindowedTail`]: the fewest that leave ten
/// samples beyond a window's p99.
pub const TAIL_WINDOW: usize = 1000;

impl WindowedTail {
    /// Adds the next sample in time order.
    pub fn push(&mut self, value: f64) {
        self.window.push(value);
        if self.window.len() == TAIL_WINDOW {
            self.p99s
                .push(Samples::new(std::mem::take(&mut self.window)).percentile(99.0));
        }
    }

    /// Median of the full windows' p99s; `None` before the first full
    /// window.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        (!self.p99s.is_empty()).then(|| median(&self.p99s))
    }
}

/// Median of a few values (for per-run repetitions such as set-up).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        #[allow(clippy::cast_precision_loss)]
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(ramp(1).median(), 1.0);
        // Odd count: the middle sample.
        assert_eq!(ramp(5).median(), 3.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(10_000, 99.9));
        assert!(!supported(9_999, 99.9));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(ramp(10_000).tail(), Some((99.9, 9990.0)));
        assert_eq!(ramp(5_000).tail(), Some((99.0, 4950.0)));
        assert_eq!(ramp(999).tail(), Some((90.0, 900.0)));
        assert_eq!(ramp(20).tail(), Some((50.0, 10.0)));
        assert_eq!(ramp(19).tail(), None);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(100);
        for v in 0..50 {
            r.push(f64::from(v));
        }
        assert_eq!(r.kept().len(), 50);
        for v in 50..100_000 {
            r.push(f64::from(v));
        }
        assert_eq!((r.seen(), r.kept().len()), (100_000, 100));
        // A uniform sample of 0..100 000 has its median near 50 000.
        let m = Samples::new(r.kept().to_vec()).median();
        assert!((30_000.0..70_000.0).contains(&m), "median {m}");
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        // Three windows; the middle one holds a stall.
        let mut tail = WindowedTail::default();
        for k in 0..3 * TAIL_WINDOW {
            let stalled = (TAIL_WINDOW..TAIL_WINDOW + 20).contains(&k);
            tail.push(if stalled {
                1e6
            } else {
                (k % TAIL_WINDOW) as f64
            });
        }
        assert_eq!(tail.p99(), Some(989.0));
        // A partial window does not count; no full window, no figure.
        tail.push(1e9);
        assert_eq!(tail.p99(), Some(989.0));
        assert_eq!(WindowedTail::default().p99(), None);
    }

    #[test]
    fn mean_max_and_small_medians() {
        let s = ramp(4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.max(), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
