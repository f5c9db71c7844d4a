//! Activation statistics over calibration data.
//!
//! Norm-factor strategies other than TCL need to *observe* the trained
//! ANN's activations: Diehl et al. 2015 takes each layer's maximum,
//! Rueckauer et al. 2017 the 99.9th percentile (Section 3.2). This module
//! walks a network over a calibration set and records, per **activation
//! site**, the running maximum and a reservoir sample for percentile
//! queries; it also produces the full per-site histograms behind the
//! paper's Figure 1.
//!
//! An *activation site* is the output of a ReLU(+Clip) group:
//!
//! * every top-level `ReLU [→ Clip]` pair is one site;
//! * a residual block contributes two sites (after `relu1[+clip1]` and after
//!   `relu_out[+clip_out]`, i.e. the NS and OS rates of Figure 3);
//! * the final classifier output is one extra site, recorded through
//!   `max(0, ·)` because only positive logits can drive spikes.
//!
//! Site order is identical to the conversion walk in [`crate::Converter`].

use crate::error::{ConvertError, Result};
use tcl_nn::layers::Shortcut;
use tcl_nn::{Layer, Mode, Network};
use tcl_tensor::{Histogram, SeededRng, Shape, Tensor};

/// Streaming per-site statistics: exact maximum plus a uniform reservoir
/// sample for percentile estimation.
#[derive(Debug, Clone)]
pub struct SiteStats {
    max: f32,
    reservoir: Vec<f32>,
    cap: usize,
    seen: u64,
    rng: SeededRng,
    sorted: bool,
}

impl SiteStats {
    /// Creates empty statistics with the given reservoir capacity.
    pub fn new(cap: usize, seed: u64) -> Self {
        SiteStats {
            max: 0.0,
            reservoir: Vec::with_capacity(cap.min(4096)),
            cap: cap.max(1),
            seen: 0,
            rng: SeededRng::new(seed),
            sorted: false,
        }
    }

    /// Records one activation value (negative values are clamped to zero —
    /// sites are post-ReLU).
    pub fn record(&mut self, value: f32) {
        let v = value.max(0.0);
        if v > self.max {
            self.max = v;
        }
        self.seen += 1;
        if self.reservoir.len() < self.cap {
            self.reservoir.push(v);
            self.sorted = false;
        } else {
            // Vitter's algorithm R: keep each seen value with prob cap/seen.
            // The index must be drawn in integer space: deriving it from a
            // `f32` uniform sample quantizes `j` to a ~2^24-point grid, so
            // once `seen` exceeds 2^24 most reservoir slots become
            // unreachable and the sample over-weights the early stream.
            let j = self.rng.below_u64(self.seen);
            if (j as usize) < self.cap {
                self.reservoir[j as usize] = v;
                self.sorted = false;
            }
        }
    }

    /// Records every value in a slice.
    pub fn record_all(&mut self, values: &[f32]) {
        for &v in values {
            self.record(v);
        }
    }

    /// Pretends `seen` values have already streamed past (test hook for
    /// exercising large-stream replacement behaviour without feeding
    /// billions of records).
    #[cfg(test)]
    fn force_seen(&mut self, seen: u64) {
        assert!(self.reservoir.len() >= self.cap, "reservoir must be full");
        self.seen = seen.max(self.seen);
    }

    /// Largest value seen.
    pub fn max(&self) -> f32 {
        self.max
    }

    /// Number of values seen.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Approximate `q`-quantile from the reservoir (exact when fewer than
    /// `cap` values were seen). Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f32) -> f32 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.reservoir.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            // total_cmp gives a deterministic order even if a NaN ever
            // sneaks in (it sorts to the top instead of aborting the run).
            self.reservoir.sort_by(f32::total_cmp);
            self.sorted = true;
        }
        let pos = q as f64 * (self.reservoir.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = (pos - lo as f64) as f32;
        self.reservoir[lo] * (1.0 - frac) + self.reservoir[hi] * frac
    }
}

/// Applies a `ReLU [→ Clip]` group functionally (evaluation semantics).
fn apply_activation(x: &Tensor, lambda: Option<f32>) -> Tensor {
    match lambda {
        Some(lam) => x.map(|v| v.max(0.0).min(lam)),
        None => x.map(|v| v.max(0.0)),
    }
}

/// Walks one batch through the network, calling `sink(site_index, values)`
/// at every activation site. Returns the final logits.
///
/// The walk must mirror [`crate::Converter`]'s traversal exactly — both are
/// driven by the same layer sequence, with sites after every activation
/// group and two sites inside each residual block.
pub(crate) fn walk_sites<F>(net: &mut Network, input: &Tensor, sink: &mut F) -> Result<Tensor>
where
    F: FnMut(usize, &Tensor),
{
    let mut site = 0usize;
    let mut x = input.clone();
    let layers = net.layers_mut();
    let mut i = 0usize;
    while i < layers.len() {
        match &mut layers[i] {
            Layer::Relu(_) => {
                // Merge with a following clip, if any.
                let lambda = match layers.get(i + 1) {
                    Some(Layer::Clip(c)) => {
                        i += 1;
                        Some(c.lambda_value())
                    }
                    _ => None,
                };
                x = apply_activation(&x, lambda);
                sink(site, &x);
                site += 1;
            }
            Layer::Clip(c) => {
                // A clip without a preceding ReLU still bounds activations;
                // treat it as its own site for robustness.
                let lam = c.lambda_value();
                x = x.map(|v| v.min(lam));
                sink(site, &x);
                site += 1;
            }
            Layer::Residual(block) => {
                let mut h = block.conv1.forward(&x, Mode::Eval)?;
                if let Some(bn) = &mut block.bn1 {
                    h = bn.forward(&h, Mode::Eval)?;
                }
                h = apply_activation(&h, block.clip1.as_ref().map(|c| c.lambda_value()));
                sink(site, &h);
                site += 1;
                let mut h2 = block.conv2.forward(&h, Mode::Eval)?;
                if let Some(bn) = &mut block.bn2 {
                    h2 = bn.forward(&h2, Mode::Eval)?;
                }
                let s = match &mut block.shortcut {
                    Shortcut::Identity => x.clone(),
                    Shortcut::Projection { conv, bn } => {
                        let mut s = conv.forward(&x, Mode::Eval)?;
                        if let Some(bn) = bn {
                            s = bn.forward(&s, Mode::Eval)?;
                        }
                        s
                    }
                };
                let y = h2.add(&s)?;
                x = apply_activation(&y, block.clip_out.as_ref().map(|c| c.lambda_value()));
                sink(site, &x);
                site += 1;
            }
            other => {
                x = other.forward(&x, Mode::Eval)?;
            }
        }
        i += 1;
    }
    // Output site: positive part of the logits.
    let positive = x.map(|v| v.max(0.0));
    sink(site, &positive);
    Ok(x)
}

/// The clip bound of every hidden activation site, in walk order: `Some(λ)`
/// where the site's group ends in a clipping layer, `None` for a bare ReLU.
/// This is the site grammar [`walk_sites`] follows, read off the layers
/// without running them.
pub(crate) fn site_clips(net: &Network) -> Vec<Option<f32>> {
    let mut out = Vec::new();
    let layers = net.layers();
    let mut i = 0usize;
    while i < layers.len() {
        match &layers[i] {
            Layer::Relu(_) => {
                if let Some(Layer::Clip(c)) = layers.get(i + 1) {
                    out.push(Some(c.lambda_value()));
                    i += 1;
                } else {
                    out.push(None);
                }
            }
            Layer::Clip(c) => out.push(Some(c.lambda_value())),
            Layer::Residual(r) => {
                out.push(r.clip1.as_ref().map(|c| c.lambda_value()));
                out.push(r.clip_out.as_ref().map(|c| c.lambda_value()));
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// Number of activation sites the walker will report for `net` (hidden
/// sites plus the final output site).
pub fn count_sites(net: &Network) -> usize {
    site_clips(net).len() + 1
}

/// Runs `net` (evaluation mode) over `images` in batches and returns one
/// [`SiteStats`] per activation site, in walk order.
///
/// # Errors
///
/// Returns a calibration error for empty input or zero batch size, and
/// propagates network shape errors.
pub fn collect_activation_stats(
    net: &mut Network,
    images: &Tensor,
    batch_size: usize,
) -> Result<Vec<SiteStats>> {
    let n = images.dims().first().copied().unwrap_or(0);
    if n == 0 {
        return Err(ConvertError::Calibration {
            detail: "calibration set is empty".into(),
        });
    }
    if batch_size == 0 {
        return Err(ConvertError::Calibration {
            detail: "batch size must be nonzero".into(),
        });
    }
    let sites = count_sites(net);
    // Reservoir capacity: enough for stable 99.9th-percentile estimates
    // without holding the whole activation stream.
    let mut stats: Vec<SiteStats> = (0..sites)
        .map(|i| SiteStats::new(100_000, 0xC0FFEE + i as u64))
        .collect();
    let row = images.len() / n;
    let dims = images.dims().to_vec();
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size).min(n);
        let mut bdims = dims.clone();
        bdims[0] = end - start;
        let batch = Tensor::from_vec(
            Shape::new(bdims),
            images.data()[start * row..end * row].to_vec(),
        )?;
        walk_sites(net, &batch, &mut |site, values| {
            stats[site].record_all(values.data());
        })?;
        start = end;
    }
    Ok(stats)
}

/// Builds the full activation histogram of one site over `images` — the
/// data behind the paper's Figure 1.
///
/// Two passes: the first finds the site maximum, the second fills a
/// `bins`-bin histogram over `[0, max]`.
///
/// # Errors
///
/// Returns a calibration error if `site` is out of range or the input is
/// empty.
pub fn collect_site_histogram(
    net: &mut Network,
    images: &Tensor,
    batch_size: usize,
    site: usize,
    bins: usize,
) -> Result<Histogram> {
    let sites = count_sites(net);
    if site >= sites {
        return Err(ConvertError::Calibration {
            detail: format!("site {site} out of range ({sites} sites)"),
        });
    }
    let stats = collect_activation_stats(net, images, batch_size)?;
    let upper = (stats[site].max() * 1.0001).max(1e-6);
    let mut hist = Histogram::new(bins, upper);
    let n = images.dims()[0];
    let row = images.len() / n;
    let dims = images.dims().to_vec();
    let mut start = 0usize;
    while start < n {
        let end = (start + batch_size).min(n);
        let mut bdims = dims.clone();
        bdims[0] = end - start;
        let batch = Tensor::from_vec(
            Shape::new(bdims),
            images.data()[start * row..end * row].to_vec(),
        )?;
        walk_sites(net, &batch, &mut |s, values| {
            if s == site {
                hist.record_all(values.data());
            }
        })?;
        start = end;
    }
    Ok(hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcl_models::{Architecture, ModelConfig};
    use tcl_tensor::SeededRng;

    fn small_net(clip: Option<f32>) -> Network {
        let mut rng = SeededRng::new(3);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_clip_lambda(clip);
        Architecture::Cnn6.build(&cfg, &mut rng).unwrap()
    }

    #[test]
    fn site_count_matches_activation_groups() {
        // cnn6: 4 conv activations + 1 hidden linear activation + output.
        assert_eq!(count_sites(&small_net(Some(2.0))), 6);
        assert_eq!(count_sites(&small_net(None)), 6);
    }

    #[test]
    fn residual_networks_have_two_sites_per_block() {
        let mut rng = SeededRng::new(4);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_clip_lambda(Some(2.0));
        let net = Architecture::ResNet20.build(&cfg, &mut rng).unwrap();
        // Stem activation + 9 blocks × 2 + output.
        assert_eq!(count_sites(&net), 1 + 18 + 1);
    }

    #[test]
    fn stats_cover_every_site_and_respect_clip_bounds() {
        let mut net = small_net(Some(2.0));
        let mut rng = SeededRng::new(5);
        let images = rng.uniform_tensor([16, 3, 8, 8], -1.0, 1.0);
        let mut stats = collect_activation_stats(&mut net, &images, 4).unwrap();
        assert_eq!(stats.len(), 6);
        for (i, s) in stats.iter_mut().enumerate() {
            assert!(s.count() > 0, "site {i} saw no data");
            // Hidden sites are clipped at λ = 2.
            if i < 5 {
                assert!(s.max() <= 2.0 + 1e-5, "site {i} max {}", s.max());
            }
            assert!(s.quantile(1.0) <= s.max() + 1e-5);
        }
    }

    #[test]
    fn walker_matches_plain_forward() {
        let mut net = small_net(Some(2.0));
        let mut rng = SeededRng::new(6);
        let x = rng.uniform_tensor([2, 3, 8, 8], -1.0, 1.0);
        let via_walk = walk_sites(&mut net, &x, &mut |_, _| {}).unwrap();
        let plain = net.forward(&x, Mode::Eval).unwrap();
        assert!(via_walk.max_abs_diff(&plain).unwrap() < 1e-5);
    }

    #[test]
    fn walker_matches_plain_forward_on_resnet() {
        let mut rng = SeededRng::new(7);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_clip_lambda(Some(2.0));
        let mut net = Architecture::ResNet18.build(&cfg, &mut rng).unwrap();
        let x = rng.uniform_tensor([2, 3, 8, 8], -1.0, 1.0);
        let via_walk = walk_sites(&mut net, &x, &mut |_, _| {}).unwrap();
        let plain = net.forward(&x, Mode::Eval).unwrap();
        assert!(via_walk.max_abs_diff(&plain).unwrap() < 1e-4);
    }

    #[test]
    fn reservoir_quantiles_are_plausible() {
        let mut s = SiteStats::new(1000, 1);
        for i in 0..100_000 {
            s.record((i % 1000) as f32 / 1000.0);
        }
        let q = s.quantile(0.5);
        assert!((q - 0.5).abs() < 0.05, "median {q}");
        assert!(s.max() >= 0.999);
        assert_eq!(s.count(), 100_000);
    }

    #[test]
    fn reservoir_replacement_reaches_all_slots_at_large_seen() {
        // Regression for the biased algorithm-R index: with the index drawn
        // as `(uniform(0,1) * seen as f32) as u64`, a stream position past
        // 2^24 quantizes `j` to a coarse grid (spacing seen/2^24 ≈ 16 at
        // seen = 2^28), so odd-indexed reservoir slots can never be
        // replaced again and the sample permanently over-weights the early
        // stream. The u64 draw must keep every slot reachable.
        let cap = 4096usize;
        let mut s = SiteStats::new(cap, 42);
        for _ in 0..cap {
            s.record(0.0);
        }
        s.force_seen(1 << 28);
        for _ in 0..2_000_000u32 {
            s.record(1.0);
        }
        let odd_replaced = s
            .reservoir
            .iter()
            .enumerate()
            .filter(|(i, &v)| i % 2 == 1 && v == 1.0)
            .count();
        let total_replaced = s.reservoir.iter().filter(|&&v| v == 1.0).count();
        // ~cap·ln((2^28+2M)/2^28) ≈ 30 replacements expected; the exact
        // count is seed-dependent, but roughly half must land on odd slots.
        assert!(
            total_replaced > 5,
            "replacement starved: {total_replaced} slots touched"
        );
        assert!(
            odd_replaced > 0,
            "no odd-indexed slot was ever replaced ({total_replaced} total): \
             the index draw has lost integer precision"
        );
    }

    #[test]
    fn reservoir_replacement_rate_matches_algorithm_r() {
        // P(replace) = cap/seen per record; over k records starting at seen₀
        // the expected number of replacements is ≈ cap·ln((seen₀+k)/seen₀).
        let cap = 1024usize;
        let mut s = SiteStats::new(cap, 7);
        for _ in 0..cap {
            s.record(0.0);
        }
        s.force_seen(1 << 26);
        let k = 4_000_000u64;
        for _ in 0..k {
            s.record(1.0);
        }
        let replaced = s.reservoir.iter().filter(|&&v| v == 1.0).count() as f64;
        let seen0 = (1u64 << 26) as f64;
        let expected = cap as f64 * ((seen0 + k as f64) / seen0).ln();
        assert!(
            (replaced - expected).abs() < expected * 0.5 + 10.0,
            "replacements {replaced} vs expected {expected:.1}"
        );
    }

    #[test]
    fn histogram_covers_site_distribution() {
        let mut net = small_net(None);
        let mut rng = SeededRng::new(8);
        let images = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
        let hist = collect_site_histogram(&mut net, &images, 4, 1, 64).unwrap();
        assert!(hist.total_count() > 0);
        // All mass is inside the two-pass range.
        assert_eq!(hist.overflow_count(), 0);
    }

    #[test]
    fn histogram_site_out_of_range_errors() {
        let mut net = small_net(None);
        let images = Tensor::zeros([2, 3, 8, 8]);
        assert!(collect_site_histogram(&mut net, &images, 2, 99, 8).is_err());
    }

    #[test]
    fn empty_calibration_is_rejected() {
        let mut net = small_net(None);
        let images = Tensor::zeros([0, 3, 8, 8]);
        assert!(collect_activation_stats(&mut net, &images, 4).is_err());
    }
}
