//! Small statistics and comparison helpers the workloads share: order
//! statistics, percentile support, geometric means, seed mixing and the
//! SimStats golden-line comparison.

use std::collections::BTreeMap;

/// Samples needed past a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered, highest first, when choosing the tail to show.
pub const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding of p/100 (99.9 is not exact) from
    // pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when there are too few samples for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `p` of `samples` (sorted internally).
///
/// # Panics
/// Panics on an empty sample set: callers size their runs first.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// Percentile `p` of `samples`, refused unless at least [`MIN_BEYOND`]
/// samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, p) < MIN_BEYOND {
        return Err(format!(
            "{n} sample(s) leave {} beyond p{p}: run longer",
            beyond(n, p)
        ));
    }
    Ok(percentile(samples, p))
}

/// Median (lower middle for an even count, like nearest rank at 50).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean of positive values; `None` for an empty set or a
/// non-positive value.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    Some((logs / values.len() as f64).exp())
}

/// A percentile with the evidence behind it, for the human report.
pub fn describe(label: &str, samples_ms: &[f64]) -> String {
    if samples_ms.is_empty() {
        return format!("{label}: no samples");
    }
    let p50 = percentile(samples_ms, 50.0);
    match highest_supported(samples_ms.len()) {
        Some(p) if p > 50.0 => format!(
            "{label}: n={} p50={p50:.3} ms p{p}={:.3} ms ({} beyond)",
            samples_ms.len(),
            percentile(samples_ms, p),
            beyond(samples_ms.len(), p)
        ),
        _ => format!("{label}: n={} p50={p50:.3} ms", samples_ms.len()),
    }
}

/// SplitMix64 step: derives independent generator seeds from the
/// benchmark seed and a stream index.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Splits golden-format text into `figure|workload|who` → full line.
fn keyed(text: &str) -> BTreeMap<&str, &str> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let key_end = l.match_indices('|').nth(2).map_or(l.len(), |(i, _)| i);
            (&l[..key_end], l)
        })
        .collect()
}

/// Keys whose line differs between `golden` and `actual`, including keys
/// present on only one side. Every field of a line takes part.
pub fn golden_diff(golden: &str, actual: &str) -> Vec<String> {
    let want = keyed(golden);
    let got = keyed(actual);
    let mut bad: Vec<String> = want
        .iter()
        .filter(|(k, line)| got.get(*k) != Some(line))
        .map(|(k, _)| (*k).to_string())
        .collect();
    bad.extend(
        got.keys()
            .filter(|k| !want.contains_key(*k))
            .map(|k| (*k).to_string()),
    );
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000), Some(99.0));
        // 999 samples leave only 9 past p99, so p95 is the highest.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert!(tail(&vec![1.0; 999], 99.0).is_err());
        assert_eq!(tail(&vec![1.0; 1000], 99.0), Ok(1.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let report = describe("x", &v);
        assert!(
            report.contains("n=100") && report.contains("p90=90.000"),
            "{report}"
        );
    }

    #[test]
    fn geomean_of_speedups() {
        let g = geomean(&[2.0, 8.0]).expect("positive values");
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[1.5, 1.5, 1.5]).expect("positive values");
        assert!((g - 1.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn golden_lines_catch_a_one_field_change() {
        let golden = "Fig|li|baseline|cycles=10 insts=5 ret=1\n\
                      Fig|li|fullpred|cycles=7 insts=6 ret=1\n";
        assert!(golden_diff(golden, golden).is_empty());
        let changed = golden.replace("insts=6", "insts=7");
        assert_eq!(
            golden_diff(golden, &changed),
            vec!["Fig|li|fullpred".to_string()]
        );
        let missing = "Fig|li|baseline|cycles=10 insts=5 ret=1\n";
        assert_eq!(
            golden_diff(golden, missing),
            vec!["Fig|li|fullpred".to_string()]
        );
        let extra = format!("{golden}Fig|wc|baseline|cycles=1 insts=1 ret=0\n");
        assert_eq!(
            golden_diff(golden, &extra),
            vec!["Fig|wc|baseline".to_string()]
        );
    }

    #[test]
    fn seed_streams_differ() {
        assert_ne!(mix(1, 0, 0), mix(2, 0, 0));
        assert_ne!(mix(1, 0, 0), mix(1, 1, 0));
        assert_ne!(mix(1, 0, 0), mix(1, 0, 1));
        assert_eq!(mix(7, 3, 9), mix(7, 3, 9));
    }
}
