//! Exact sample statistics and seeded load schedules.
//!
//! Latencies are kept as one sample per request and summarized by
//! nearest rank over the sorted samples — never by histogram buckets,
//! whose bounds (powers of two) say nothing about where a sample fell.

use std::time::Duration;

use gpu_sim::SplitMix64;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps decimal percentiles such as 99.9 from rounding up a
/// whole rank through binary representation error.
fn rank(p: f64, n: usize) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// Median by nearest rank.
pub fn median(sorted: &[f64]) -> f64 {
    nearest_rank(sorted, 50.0)
}

/// The highest of p50, p90, p99, p99.9, ... that has at least ten samples
/// beyond its rank among `n` samples, or `None` when not even the median
/// has (fewer than 20 samples). A tail percentile with fewer samples
/// beyond it is the noise of one or two requests, not a property of the
/// system.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let mut best = None;
    let mut p = 50.0;
    let mut gap = 50.0;
    while gap >= 1e-4 {
        if n < rank(p, n) + 10 {
            break;
        }
        best = Some(p);
        gap = if p == 50.0 { 10.0 } else { gap / 10.0 };
        p = 100.0 - gap;
    }
    best
}

/// The three cut points dividing `sorted` into quartiles, computed exactly
/// as Python's `statistics.quantiles(data, n=4)` (the default "exclusive"
/// method), so spreads reported here match that module's.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: Python extrapolates then.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Sorts samples in place and returns them.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Due times of an open-loop Poisson arrival process at `rate` requests
/// per second over `window`, as offsets from the start. Bit-identical for
/// a given seed: the exponential gaps come from a seeded SplitMix64
/// stream and nothing else.
pub fn poisson_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut rng = SplitMix64::new(seed);
    let end = window.as_secs_f64();
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.gen_f64()).ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// `n` key indices drawn uniformly from `0..keys` in shuffled rounds: each
/// run of `keys` consecutive requests visits every key exactly once, in a
/// seeded order. Every key gets the same share of every window, so seeds
/// differ in order only, not in which keys happened to be popular.
pub fn shuffled_rounds(seed: u64, keys: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n + keys);
    while out.len() < n {
        let mut round: Vec<usize> = (0..keys).collect();
        for i in (1..keys).rev() {
            round.swap(i, rng.gen_range_usize(0, i + 1));
        }
        out.extend(round);
    }
    out.truncate(n);
    out
}

/// Microseconds of a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_real_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 50.0);
        assert_eq!(nearest_rank(&v, 99.0), 99.0);
        assert_eq!(nearest_rank(&v, 99.5), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 100.0), 100.0);
        // Small samples: the rank rounds up, never interpolates.
        assert_eq!(nearest_rank(&[3.0, 7.0], 50.0), 3.0);
        assert_eq!(nearest_rank(&[3.0, 7.0], 51.0), 7.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn ten_beyond_rule_picks_the_supported_tail() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(5000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The chosen percentile really leaves ten samples beyond its rank.
        for n in [20, 57, 100, 333, 1000, 4321, 10_000, 123_456] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Values checked against statistics.quantiles(data, n=4).
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(q, [2.75, 5.5, 8.25]);
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!(q, [0.75, 1.5, 2.25]);
        let q = quartiles(&[1.0, 3.0, 4.0, 8.0, 9.0]);
        assert_eq!(q, [2.0, 4.0, 8.5]);
    }

    #[test]
    fn poisson_schedule_is_bit_identical_per_seed() {
        let a = poisson_schedule(7, 1000.0, Duration::from_secs(2));
        let b = poisson_schedule(7, 1000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 1000.0, Duration::from_secs(2)));
        // About rate x window arrivals, increasing, inside the window.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(2));
        // Mean gap close to 1/rate.
        let mean = a.last().unwrap().as_secs_f64() / a.len() as f64;
        assert!((mean - 1e-3).abs() < 1e-4, "{mean}");
    }

    #[test]
    fn shuffled_rounds_cover_every_key_per_round() {
        let v = shuffled_rounds(3, 8, 20);
        assert_eq!(v.len(), 20);
        for round in v.chunks(8).filter(|c| c.len() == 8) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..8).collect::<Vec<_>>());
        }
        assert_eq!(v, shuffled_rounds(3, 8, 20));
        assert_ne!(v, shuffled_rounds(4, 8, 20));
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
