//! Small statistics and host helpers.

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Nearest-rank percentile of sorted `xs` (`p` in `[0, 1]`), matching
/// `metrics::LatencyStats`; the default value when empty.
pub fn percentile_sorted<T: Copy + Default>(xs: &[T], p: f64) -> T {
    if xs.is_empty() {
        return T::default();
    }
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Simulated request latencies of one workload run, in nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimLatency {
    /// Every completed request's latency, sorted ascending.
    pub sorted_ns: Vec<u64>,
}

impl SimLatency {
    /// Builds the summary from unsorted samples.
    pub fn new(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        SimLatency { sorted_ns: ns }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted_ns.len()
    }

    /// Mean latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.sorted_ns.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.sorted_ns.iter().map(|&x| x as u128).sum();
        sum as f64 / self.sorted_ns.len() as f64 / 1e6
    }

    /// Nearest-rank percentile in milliseconds.
    pub fn pct_ms(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted_ns, p) as f64 / 1e6
    }

    /// Samples strictly beyond the p99 rank.
    pub fn beyond_p99(&self) -> usize {
        let n = self.sorted_ns.len();
        n - ((0.99 * n as f64).ceil() as usize).min(n)
    }
}

/// Threads the host offers (`std::thread::available_parallelism`).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&xs, 0.99), 198);
        let lat = SimLatency::new(xs);
        assert_eq!(lat.beyond_p99(), 2);
    }
}
