//! Order statistics, the tail-percentile rule, and metric-name checks.

use ibis_simcore::metrics::Histogram;

/// Median of `xs` (mean of the middle pair for an even count). `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in percent) of `xs`: the smallest value
/// with at least `p`% of the samples at or below it. `NaN` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64 / 100.0).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail percentiles a report may name, highest last.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `n` samples strictly beyond it, or `None` when even the median does
/// not (fewer than 20 samples). With 100 samples that is p90.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().rev().find(|p| beyond(n, *p) >= 10)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
fn beyond(n: usize, p: f64) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// Quantile `q` of a log-bucketed histogram, interpolated linearly inside
/// the bucket that holds it. `Histogram::quantile` returns the bucket's
/// upper bound, which moves in quarter-octave steps; interpolating by rank
/// gives a figure that moves with the distribution. The bucket's lower
/// edge is recovered by rank search, so only the public API is used.
pub fn hist_quantile(h: &Histogram, q: f64) -> Option<f64> {
    let total = h.count();
    if total == 0 {
        return None;
    }
    let at = |rank: u64| {
        h.quantile((rank as f64 - 0.5) / total as f64)
            .expect("non-empty")
    };
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let upper = at(rank);
    // First and last rank that fall in the same bucket as `rank`.
    let first = partition_point(1, rank, |r| at(r) < upper);
    let last = partition_point(rank, total + 1, |r| at(r) <= upper) - 1;
    let lower = if first > 1 {
        at(first - 1) as f64
    } else {
        h.min().expect("non-empty") as f64
    };
    let frac = (rank - first + 1) as f64 / (last - first + 1) as f64;
    Some(lower + (upper as f64 - lower) * frac)
}

/// The first `r` in `[lo, hi)` for which `pred` is false, assuming `pred`
/// is true on a prefix of the range; `hi` when it never turns false.
fn partition_point(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// True when `name` is a valid metric name: a letter or digit first, then
/// at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 64-bit FNV-1a, for the outcome digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0, 9.0], 90.0), 9.0);
    }

    #[test]
    fn tail_rule_keeps_ten_beyond() {
        assert_eq!(tail_percentile(2), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(256), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(2_000_000), Some(99.9));
        for n in [20usize, 100, 256, 1000, 12_345] {
            let p = tail_percentile(n).expect("enough samples");
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn histogram_quantile_interpolates_inside_bucket() {
        let mut h = Histogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let p50 = hist_quantile(&h, 0.5).unwrap();
        let p99 = hist_quantile(&h, 0.99).unwrap();
        assert!((p50 - 1500.0).abs() < 80.0, "p50 {p50}");
        assert!((p99 - 1990.0).abs() < 80.0, "p99 {p99}");
        assert!(p50 < p99);
        // Never above the bucket bound the histogram itself reports.
        assert!(p99 <= h.quantile(0.99).unwrap() as f64);
        let mut one = Histogram::new();
        one.record(42);
        assert_eq!(hist_quantile(&one, 0.99), Some(42.0));
        assert_eq!(hist_quantile(&Histogram::new(), 0.5), None);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "run_s",
            "core.broker_reports",
            "obs.audit_violations.dsfq-delay-identity",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".x",
            "a b",
            "a/b",
            "naïve",
            "x:y",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
