//! Percentiles and small summaries.

/// Percentiles the tail report may use, highest first, in hundredths of
/// a percent so the sample arithmetic stays exact.
const TAIL_LADDER_BP: [usize; 5] = [9999, 9990, 9900, 9500, 9000];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending); NaN when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    // The small offset keeps exact products (p99 of 1000 samples is rank
    // 990) from rounding up to the next rank.
    let rank = ((p * sorted.len() as f64) / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER_BP`] with at least
/// [`TAIL_SAMPLES`] of `n` samples beyond its nearest rank, or `None`
/// when even p90 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER_BP
        .into_iter()
        .find(|&bp| n * (10_000 - bp) / 10_000 >= TAIL_SAMPLES)
        .map(|bp| bp as f64 / 100.0)
}

/// Sort a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`: the middle value, or the mean of the two middle
/// values (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples per block of [`block_percentile`]: enough that ten lie
/// beyond a block's p99.
pub const BLOCK: usize = 1000;

/// Percentile `p` of `samples` (in time order) as the median, over
/// consecutive blocks of at least [`BLOCK`] samples, of each block's
/// percentile — so a stall confined to one block of a run does not set
/// the result. Fewer than two blocks' worth is one block.
pub fn block_percentile(samples: &[f64], p: f64) -> f64 {
    median(&block_percentiles(samples, p))
}

/// Percentile `p` of each block of [`block_percentile`], in time order.
pub fn block_percentiles(samples: &[f64], p: f64) -> Vec<f64> {
    blocks(samples.len())
        .into_iter()
        .map(|r| percentile(&sorted(&samples[r]), p))
        .collect()
}

/// `len` samples cut into consecutive blocks of at least [`BLOCK`]
/// (one block below two blocks' worth).
pub fn blocks(len: usize) -> Vec<std::ops::Range<usize>> {
    let n = (len / BLOCK).max(1);
    let size = len / n;
    (0..n)
        .map(|b| b * size..if b + 1 == n { len } else { (b + 1) * size })
        .collect()
}

/// The lowest of `values` with its index (`None` when empty).
pub fn lowest(values: &[f64]) -> Option<(usize, f64)> {
    values
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// Per kind of the `(kind, value)` samples in `tagged`, in order of
/// first appearance: the kind, its median value and its sample count.
pub fn kind_medians<K: PartialEq + Copy>(tagged: &[(K, f64)]) -> Vec<(K, f64, usize)> {
    let mut by_kind: Vec<(K, Vec<f64>)> = Vec::new();
    for &(kind, value) in tagged {
        match by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, values)) => values.push(value),
            None => by_kind.push((kind, vec![value])),
        }
    }
    by_kind
        .into_iter()
        .map(|(kind, values)| (kind, median(&values), values.len()))
        .collect()
}

/// The mean of each kind's median value, weighted by the kind's share of
/// `tagged`. When the kinds take different times, the plain median of
/// the pooled samples falls between them and jumps with the share of
/// each; each kind's own median does not.
pub fn kind_median<K: PartialEq + Copy>(tagged: &[(K, f64)]) -> f64 {
    let weighted: f64 = kind_medians(tagged)
        .iter()
        .map(|&(_, m, n)| n as f64 * m)
        .sum();
    weighted / tagged.len() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(99_999), Some(99.9));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
        // Exactly ten samples lie beyond the chosen rank.
        let n = 1_000;
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let p = tail_percentile(n).unwrap();
        let cut = percentile(&v, p);
        assert_eq!(v.iter().filter(|&&x| x > cut).count(), TAIL_SAMPLES);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn block_percentiles_ignore_a_stall_in_one_block() {
        // Three blocks of 1000; the middle one holds a burst of stalls.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 100) as f64).collect();
        for x in &mut v[1000..1100] {
            *x = 1e6;
        }
        assert_eq!(block_percentile(&v, 99.0), 98.0);
        assert_eq!(percentile(&sorted(&v), 99.0), 1e6);
        // Under two blocks' worth, it is the plain percentile.
        assert_eq!(block_percentile(&v[2000..], 50.0), 49.0);
        assert_eq!(block_percentile(&v[..1500], 99.0), 1e6);
    }

    #[test]
    fn kind_medians_do_not_jump_between_kinds() {
        // Half the samples near 1.0 and half near 2.0: the pooled median
        // sits on whichever side holds one sample more.
        let tagged = |fast: usize, slow: usize| -> Vec<(usize, f64)> {
            let f = (0..fast).map(|i| (0, 1.0 + i as f64 * 1e-3));
            let s = (0..slow).map(|i| (1, 2.0 + i as f64 * 1e-3));
            f.chain(s).collect()
        };
        let pooled = |t: &[(usize, f64)]| {
            percentile(&sorted(&t.iter().map(|s| s.1).collect::<Vec<_>>()), 50.0)
        };
        assert!(pooled(&tagged(51, 50)) < 1.1);
        assert!(pooled(&tagged(50, 51)) > 1.9);
        let a = kind_median(&tagged(51, 50));
        let b = kind_median(&tagged(50, 51));
        assert!((a - b).abs() < 0.02, "{a} vs {b}");
        // Weighted by share: 1.0245 and 2.0245 over 50 and 50 samples.
        let even = kind_median(&tagged(50, 50));
        assert!((even - (1.0245 + 2.0245) / 2.0).abs() < 1e-12, "{even}");
        // One kind is the plain median.
        let one: Vec<((), f64)> = [3.0, 1.0, 2.0].iter().map(|&v| ((), v)).collect();
        assert_eq!(kind_median(&one), 2.0);
    }
}
