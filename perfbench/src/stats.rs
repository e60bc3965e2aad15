//! Order statistics and process memory.

/// The `q`-quantile, interpolating linearly between closest ranks; 0 when
/// empty. Sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median; 0 when empty. Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest of p99, p95, p90, p75 and p50 (nearest rank) with at least
/// ten samples beyond it: `(percentile, value, samples beyond)`. Sorts `v`.
pub fn tail(v: &mut [f64]) -> (f64, f64, usize) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in [99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        if rank >= 1 && beyond >= 10 {
            return (p, v[rank - 1], beyond);
        }
    }
    (100.0, v.last().copied().unwrap_or(0.0), 0)
}

/// Width of a [`Hist`] bucket: each is 1% wider than the one below it.
const HIST_STEP: f64 = 1.01;

/// Buckets of a [`Hist`]: from 1 ns up to `1.01^2560` ns, about 110 s.
const HIST_BUCKETS: usize = 2560;

/// A latency histogram of fixed size, so memory does not grow with the
/// number of samples: logarithmic buckets 1% wide.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    /// Records a latency in ms.
    pub fn add(&mut self, ms: f64) {
        let i = ((ms * 1e6).max(1.0).ln() / HIST_STEP.ln()) as usize;
        self.counts[i.min(HIST_BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// The `q`-quantile (nearest rank) in ms, to within 1%; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return HIST_STEP.powf(i as f64 + 0.5) / 1e6;
            }
        }
        0.0
    }
}

/// `VmHWM` (peak resident set) of this process in MB; 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&mut [5.0, 1.0, 2.0, 3.0, 4.0], 0.25), 2.0);
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&mut v), (99.0, 990.0, 10));
        let mut few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut few), (90.0, 90.0, 10));
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn hist_quantiles_within_one_percent() {
        let mut h = Hist::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for us in 1..=1000 {
            h.add(f64::from(us) / 1e3);
        }
        for (q, want) in [(0.5, 0.5), (0.99, 0.99), (1.0, 1.0)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 0.01, "q{q}: {got} vs {want}");
        }
    }
}
