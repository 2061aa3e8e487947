//! Numeric helpers: nearest-rank percentiles, quartiles that match
//! Python's `statistics.quantiles(data, n=4)`, medians, a fixed-memory
//! latency reservoir, median-window figures, the outcome fingerprint fold,
//! and the process high-water RSS.

/// SplitMix64 finalizer: seeds, tenant rotations and fingerprints.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one decision (its sample count and estimate bits) into a
/// tenant's determinism fingerprint.
pub fn fold(fp: &mut u64, samples: usize, estimate_bits: u64) {
    *fp = mix(mix(*fp ^ samples as u64) ^ estimate_bits);
}

/// Nearest-rank index (1-based) of the `p` percentile among `n` values.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted`: the smallest value with
/// at least a `p` share of the data at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no data");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` values lie beyond the `p` percentile's rank (the
/// "at least ten samples beyond p99" rule).
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The three cut points of `statistics.quantiles(values, n=4)` (Python's
/// default "exclusive" method).
///
/// # Panics
///
/// Panics with fewer than two values, as Python raises.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let ld = x.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // May be negative after the clamp, exactly as in Python.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0;
    }
    out
}

/// Median as Python's `statistics.median` (mean of the middle pair).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no data");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n % 2 == 1 {
        x[n / 2]
    } else {
        (x[n / 2 - 1] + x[n / 2]) / 2.0
    }
}

/// Median of integer observations as `f64` (0.0 for no data).
pub fn median_u64(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// A uniform random sample of at most `capacity` observations (Vitter's
/// algorithm R with a seeded generator). The buffer is written in full at
/// construction, so the process footprint does not grow with throughput.
pub struct Reservoir {
    buf: Vec<u64>,
    seen: u64,
    state: u64,
}

impl Reservoir {
    /// A reservoir holding up to `capacity` values.
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: vec![u64::MAX; capacity],
            seen: 0,
            state: 0x5EED,
        }
    }

    /// Offers one observation.
    pub fn push(&mut self, v: u64) {
        let cap = self.buf.len() as u64;
        if self.seen < cap {
            self.buf[self.seen as usize] = v;
        } else {
            self.state = mix(self.state);
            let j = self.state % (self.seen + 1);
            if j < cap {
                self.buf[j as usize] = v;
            }
        }
        self.seen += 1;
    }

    /// The retained observations, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let kept = (self.seen as usize).min(self.buf.len());
        let mut v = self.buf[..kept].to_vec();
        v.sort_unstable();
        v
    }
}

/// Completed queries cut into windows of a fixed number of queries, each
/// summarised as it closes, so memory does not grow with the run. Each of
/// the run's figures is the median of its per-window values: other tenants
/// of a shared host slow it in bursts, and a burst moves a median only as
/// far as the middle window, where it moves a pooled percentile by all the
/// queries it slowed.
pub struct Windows {
    per: usize,
    buf: Vec<u64>,
    len: usize,
    start_ns: u64,
    /// Pauses in the load since the open window started.
    paused_ns: u64,
    closed: Vec<Window>,
}

/// One closed window.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub qps: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
}

/// The median window's figures.
pub struct WindowStats {
    pub qps: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Windows closed.
    pub windows: usize,
    /// Queries per window, and how many lie beyond each window's p99.
    pub per_window: usize,
    pub beyond_p99: usize,
    /// Every closed window, in order.
    pub all: Vec<Window>,
}

impl Windows {
    /// Windows of `per` queries, the first starting at `start_ns`.
    pub fn new(per: usize, start_ns: u64) -> Self {
        Self {
            per,
            buf: vec![u64::MAX; per],
            len: 0,
            start_ns,
            paused_ns: 0,
            closed: Vec::new(),
        }
    }

    /// Records a query that completed at `done_ns` after `latency_ns`.
    pub fn push(&mut self, done_ns: u64, latency_ns: u64) {
        self.buf[self.len] = latency_ns;
        self.len += 1;
        if self.len == self.per {
            let lat = &mut self.buf[..];
            lat.sort_unstable();
            let secs = done_ns
                .saturating_sub(self.start_ns + self.paused_ns)
                .max(1) as f64
                / 1e9;
            self.closed.push(Window {
                qps: self.per as f64 / secs,
                p50_ns: percentile(lat, 0.50),
                p99_ns: percentile(lat, 0.99),
            });
            self.len = 0;
            self.start_ns = done_ns;
            self.paused_ns = 0;
        }
    }

    /// Leaves a pause of `ns` in the load out of the open window.
    pub fn pause(&mut self, ns: u64) {
        self.paused_ns += ns;
    }

    /// The median of each figure over the closed windows (the last,
    /// partial window is dropped; it holds the drain).
    ///
    /// # Panics
    ///
    /// Panics if no window closed.
    pub fn stats(&self) -> WindowStats {
        assert!(
            !self.closed.is_empty(),
            "no window of {} queries closed",
            self.per
        );
        let over = |f: fn(&Window) -> f64| median(&self.closed.iter().map(f).collect::<Vec<_>>());
        WindowStats {
            qps: over(|w| w.qps),
            p50_ns: over(|w| w.p50_ns as f64),
            p99_ns: over(|w| w.p99_ns as f64),
            windows: self.closed.len(),
            per_window: self.per,
            beyond_p99: beyond(self.per, 0.99),
            all: self.closed.clone(),
        }
    }
}

/// High-water resident set size of this process in MiB (`VmHWM`), or 0.0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
    }

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_u64(&[]), 0.0);
    }

    #[test]
    fn reservoir_keeps_everything_under_capacity_and_bounds_memory_over_it() {
        let mut r = Reservoir::new(8);
        for v in [5, 3, 9] {
            r.push(v);
        }
        assert_eq!(r.sorted(), vec![3, 5, 9]);
        for v in 0..1000 {
            r.push(v);
        }
        assert_eq!(r.seen, 1003);
        assert_eq!(r.sorted().len(), 8);
    }

    #[test]
    fn windows_close_every_n_queries_and_take_the_median_window() {
        // Four windows of 1000 queries, one per second, whose queries take
        // 1, 10, 2 and 3 ms, then a window that never closes (the drain).
        let mut w = Windows::new(1000, 0);
        for (i, ms) in [1u64, 10, 2, 3].into_iter().enumerate() {
            for k in 1..=1000u64 {
                w.push(i as u64 * 1_000_000_000 + k * 1_000_000, ms * 1_000_000);
            }
        }
        w.push(9_000_000_000, 1);
        let s = w.stats();
        assert_eq!((s.windows, s.per_window, s.beyond_p99), (4, 1000, 10));
        assert_eq!(
            s.p50_ns, 2_500_000.0,
            "median of the 1, 10, 2 and 3 ms windows"
        );
        assert_eq!(s.p99_ns, 2_500_000.0);
        assert!((s.qps - 1000.0).abs() < 1e-6);
        assert_eq!(s.all.len(), 4);
    }

    #[test]
    fn a_pause_is_left_out_of_its_window() {
        let mut w = Windows::new(2, 0);
        w.push(1_000, 10);
        w.pause(8_000);
        w.push(10_000, 10);
        w.push(11_000, 10);
        w.push(12_000, 10);
        let s = w.stats();
        assert_eq!((s.all[0].qps, s.all[1].qps), (1e6, 1e6));
    }

    #[test]
    fn fold_is_order_sensitive() {
        let (mut a, mut b) = (0, 0);
        fold(&mut a, 10, 1);
        fold(&mut a, 20, 2);
        fold(&mut b, 20, 2);
        fold(&mut b, 10, 1);
        assert_ne!(a, b);
    }
}
