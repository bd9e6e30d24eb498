//! Distribution statistics used throughout the paper's evaluation:
//! quantiles, histograms, geometric means, and error metrics.

/// Summary statistics of a tile-occupancy distribution (Fig. 1's callouts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancySummary {
    /// Number of tiles.
    pub count: usize,
    /// Maximum occupancy.
    pub max: u64,
    /// Mean occupancy.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: u64,
    /// 90th-percentile occupancy (90 % of tiles are at or below this).
    pub p90: u64,
    /// 99th-percentile occupancy.
    pub p99: u64,
}

/// Computes an [`OccupancySummary`] over tile occupancies.
///
/// Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// use tailors_tensor::stats::summarize;
///
/// let s = summarize(&[1, 2, 3, 4, 100]).unwrap();
/// assert_eq!(s.max, 100);
/// assert_eq!(s.median, 3);
/// ```
pub fn summarize(occupancies: &[u64]) -> Option<OccupancySummary> {
    if occupancies.is_empty() {
        return None;
    }
    let mut sorted = occupancies.to_vec();
    sorted.sort_unstable();
    let count = sorted.len();
    let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
    Some(OccupancySummary {
        count,
        max: *sorted.last().expect("non-empty"),
        mean: sum as f64 / count as f64,
        median: quantile_sorted(&sorted, 0.5),
        p90: quantile_sorted(&sorted, 0.9),
        p99: quantile_sorted(&sorted, 0.99),
    })
}

/// The `q`-quantile (`0.0 ..= 1.0`) of a **sorted** slice, using the
/// nearest-rank method: the smallest value such that at least `q` of the
/// data is at or below it.
///
/// # Panics
///
/// Panics if the slice is empty or `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "slice must be sorted"
    );
    if q == 0.0 {
        return sorted[0];
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of an unsorted slice (sorts a copy).
///
/// # Panics
///
/// Panics if the slice is empty or `q` is outside `[0, 1]`.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    quantile_sorted(&sorted, q)
}

/// The occupancy value that exactly `y` (a fraction) of tiles *exceed*:
/// the paper's `Q_y` (§4.2.3), i.e. the `(1 - y)` quantile.
///
/// # Panics
///
/// Panics if the slice is empty or `y` is outside `[0, 1]`.
pub fn overbooking_quantile(values: &[u64], y: f64) -> u64 {
    assert!((0.0..=1.0).contains(&y), "y must be in [0, 1]");
    quantile(values, 1.0 - y)
}

/// A fixed-width histogram over `u64` samples (Fig. 1 / Fig. 13a).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: u64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `n_bins` equal-width bins spanning
    /// `[0, max(samples)]`. The final bin is inclusive of the maximum.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins == 0`.
    pub fn new(samples: &[u64], n_bins: usize) -> Self {
        assert!(n_bins > 0, "histogram needs at least one bin");
        let max = samples.iter().copied().max().unwrap_or(0);
        let bin_width = (max / n_bins as u64 + 1).max(1);
        let mut counts = vec![0u64; n_bins];
        for &s in samples {
            let bin = ((s / bin_width) as usize).min(n_bins - 1);
            counts[bin] += 1;
        }
        Histogram {
            bin_width,
            counts,
            total: samples.len() as u64,
        }
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Raw per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Per-bin fraction of all samples (a PDF; sums to 1 when non-empty).
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Iterates over `(bin_start, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as u64 * self.bin_width, c))
    }
}

/// Geometric mean of strictly positive values — the paper's summary metric
/// for per-workload speedups (Figs. 7, 8, 10).
///
/// Returns `None` if the slice is empty or any value is non-positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Mean absolute error against a scalar target.
///
/// # Panics
///
/// Panics if `observed` is empty.
pub fn mae_to_target(observed: &[f64], target: f64) -> f64 {
    assert!(!observed.is_empty(), "MAE of empty slice");
    observed.iter().map(|o| (o - target).abs()).sum::<f64>() / observed.len() as f64
}

/// Pearson correlation coefficient of paired samples (Fig. 9b's
/// reuse-vs-bumped correlation).
///
/// Returns `None` when fewer than two points or either variance is zero.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx).powi(2);
        vy += (y - my).powi(2);
    }
    if vx == 0.0 || vy == 0.0 {
        return None;
    }
    Some(cov / (vx * vy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_basic() {
        let s = summarize(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 1000]).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, 1000);
        assert_eq!(s.median, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p99, 1000);
        assert!((s.mean - 145.0).abs() < 1e-9);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&v, 0.1), 1);
        assert_eq!(quantile(&v, 0.5), 5);
        assert_eq!(quantile(&v, 0.9), 9);
        assert_eq!(quantile(&v, 1.0), 10);
    }

    #[test]
    fn overbooking_quantile_is_upper_tail() {
        let v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        // 10% of tiles exceed the 90th percentile value 9.
        assert_eq!(overbooking_quantile(&v, 0.1), 9);
        assert_eq!(overbooking_quantile(&v, 0.0), 10);
        assert_eq!(overbooking_quantile(&v, 1.0), 1);
    }

    #[test]
    fn histogram_covers_all_samples() {
        let samples = [0, 1, 5, 9, 10, 10];
        let h = Histogram::new(&samples, 4);
        assert_eq!(h.counts().iter().sum::<u64>(), samples.len() as u64);
        let f = h.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_and_single_bin() {
        let h = Histogram::new(&[], 3);
        assert_eq!(h.counts(), &[0, 0, 0]);
        assert_eq!(h.fractions(), vec![0.0; 3]);
        let h1 = Histogram::new(&[7, 7, 7], 1);
        assert_eq!(h1.counts(), &[3]);
    }

    #[test]
    fn geomean_of_speedups() {
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn mae_metrics() {
        assert!((mae_to_target(&[8.0, 12.0], 10.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_degenerate() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let inv = [3.0, 2.0, 1.0];
        assert!((pearson(&xs, &inv).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0]), None);
        assert_eq!(pearson(&[1.0], &[1.0]), None);
    }
}
