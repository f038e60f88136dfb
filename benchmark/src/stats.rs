//! Order statistics used for every reported number.

/// Median of `v` (mean of the two middle values for an even count).
/// An empty slice gives 0, so a layer a workload never touches reads 0.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method)
/// computes them — the driver judges spreads with that function, so the
/// A/A table must use the same one. Needs at least two values.
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * (ld + 1) / n).clamp(1, ld - 1);
        // Signed: at the clamped ends Python extrapolates past the
        // sample, so `delta` may be negative or exceed `n`.
        let delta = (i * (ld + 1)) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the driver holds against a metric's bound.
pub fn spread(v: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(v)?;
    let m = median(v);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile `p` (0..=100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile of the usual ladder that still has at least
/// ten samples beyond it in a sample of `n` — the only tail a sample of
/// that size can support. `None` below 20 samples (even p50 fails).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In basis points, so that "ten beyond" is exact integer arithmetic.
    const LADDER: [usize; 6] = [5000, 9000, 9500, 9900, 9990, 9999];
    LADDER
        .iter()
        .rev()
        .find(|&&bp| n * (10_000 - bp) >= 10 * 10_000)
        .map(|&bp| bp as f64 / 100.0)
}

/// FNV-1a over `bytes`: the digest two runs' outputs are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }
}
