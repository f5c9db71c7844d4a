//! Streaming histograms over activation values.
//!
//! [`Histogram`] — a fixed-bin histogram used to regenerate Figure 1 (the
//! log-scale distribution of post-ReLU activations) and to estimate
//! percentiles in O(bins) memory while streaming an entire dataset.

use serde::{Deserialize, Serialize};

/// A fixed-range, uniform-bin histogram of non-negative activation values.
///
/// Values above the range accumulate in an overflow bin so that total mass
/// is conserved (a property-tested invariant) and the true maximum is
/// tracked separately.
///
/// # Examples
///
/// ```
/// use tcl_tensor::Histogram;
///
/// let mut h = Histogram::new(10, 1.0);
/// h.record_all(&[0.05, 0.15, 0.25, 0.95, 2.0]);
/// assert_eq!(h.total_count(), 5);
/// assert_eq!(h.overflow_count(), 1);
/// assert_eq!(h.max_value(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    overflow: u64,
    upper: f32,
    max_value: f32,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins spanning `[0, upper)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `upper <= 0`.
    pub fn new(bins: usize, upper: f32) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(upper > 0.0, "histogram upper bound must be positive");
        Histogram {
            counts: vec![0; bins],
            overflow: 0,
            upper,
            max_value: 0.0,
            total: 0,
        }
    }

    /// Records one value. Negative values clamp into the first bin (post-ReLU
    /// activations are non-negative, so this is only a safety net).
    pub fn record(&mut self, value: f32) {
        let v = value.max(0.0);
        if v > self.max_value {
            self.max_value = v;
        }
        self.total += 1;
        if v >= self.upper {
            self.overflow += 1;
        } else {
            let bin = ((v / self.upper) * self.counts.len() as f32) as usize;
            let bin = bin.min(self.counts.len() - 1);
            self.counts[bin] += 1;
        }
    }

    /// Records every value in a slice.
    pub fn record_all(&mut self, values: &[f32]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Merges another histogram with identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bin counts or upper bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        assert_eq!(self.upper, other.upper, "upper bound mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.max_value = self.max_value.max(other.max_value);
    }

    /// Per-bin counts (excluding overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Count of values at or above the upper bound.
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded values.
    pub fn total_count(&self) -> u64 {
        self.total
    }

    /// Largest value seen.
    pub fn max_value(&self) -> f32 {
        self.max_value
    }

    /// Upper bound of the binned range.
    pub fn upper(&self) -> f32 {
        self.upper
    }

    /// Width of one bin.
    pub fn bin_width(&self) -> f32 {
        self.upper / self.counts.len() as f32
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_center(&self, i: usize) -> f32 {
        assert!(i < self.counts.len());
        (i as f32 + 0.5) * self.bin_width()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the winning bin. If the quantile falls in the overflow region
    /// the recorded maximum is returned.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f32) -> f32 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return 0.0;
        }
        let target = q as f64 * self.total as f64;
        let mut cum = 0f64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                let frac = if c == 0 {
                    0.0
                } else {
                    ((target - cum) / c as f64).clamp(0.0, 1.0)
                };
                return (i as f32 + frac as f32) * self.bin_width();
            }
            cum = next;
        }
        self.max_value
    }

    /// Fraction of recorded values that lie at or above `threshold`.
    pub fn tail_fraction(&self, threshold: f32) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let mut above = self.overflow;
        let start_bin = ((threshold / self.upper) * self.counts.len() as f32).ceil() as usize;
        for &c in self.counts.iter().skip(start_bin.min(self.counts.len())) {
            above += c;
        }
        above as f32 / self.total as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_is_conserved() {
        let mut h = Histogram::new(8, 4.0);
        h.record_all(&[0.0, 0.5, 1.0, 3.9, 4.0, 100.0]);
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(binned + h.overflow_count(), h.total_count());
        assert_eq!(h.total_count(), 6);
    }

    #[test]
    fn overflow_tracks_out_of_range_values() {
        let mut h = Histogram::new(4, 1.0);
        h.record_all(&[0.2, 1.5, 2.5]);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.max_value(), 2.5);
    }

    #[test]
    fn quantile_on_uniform_data_is_linear() {
        let mut h = Histogram::new(100, 1.0);
        for i in 0..10_000 {
            h.record(i as f32 / 10_000.0);
        }
        for q in [0.1f32, 0.25, 0.5, 0.9, 0.999] {
            assert!(
                (h.quantile(q) - q).abs() < 0.02,
                "q={q} got {}",
                h.quantile(q)
            );
        }
    }

    #[test]
    fn quantile_in_overflow_region_returns_max() {
        let mut h = Histogram::new(4, 1.0);
        h.record_all(&[5.0, 6.0, 7.0]);
        assert_eq!(h.quantile(0.9), 7.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(4, 1.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(4, 2.0);
        let mut b = Histogram::new(4, 2.0);
        a.record_all(&[0.1, 1.9]);
        b.record_all(&[0.1, 3.0]);
        a.merge(&b);
        assert_eq!(a.total_count(), 4);
        assert_eq!(a.overflow_count(), 1);
        assert_eq!(a.max_value(), 3.0);
    }

    #[test]
    fn tail_fraction_counts_upper_tail() {
        let mut h = Histogram::new(10, 1.0);
        for i in 0..100 {
            h.record(i as f32 / 100.0);
        }
        let f = h.tail_fraction(0.9);
        assert!((f - 0.1).abs() < 0.02, "{f}");
    }

    #[test]
    fn bin_center_is_midpoint() {
        let h = Histogram::new(4, 2.0);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-6);
        assert!((h.bin_center(3) - 1.75).abs() < 1e-6);
    }
}
