//! Process-wide metrics registry: counters, gauges, fixed-bucket
//! histograms.
//!
//! All update functions are gated on [`crate::metrics_enabled`]; the
//! disabled path is one relaxed atomic load. The registry is a
//! `Mutex<BTreeMap>` keyed by metric name — updates happen at coarse
//! granularity (per kernel call, per timestep, per epoch), never per
//! element, so a mutex is ample. Updates look an existing name up by
//! `&str`; only the first update of a name allocates its key.
//!
//! [`FixedHistogram`] is also exported as a standalone value type so other
//! crates (e.g. `tcl_snn::trace`) can aggregate distributions with the same
//! representation the registry uses.

use crate::json;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// A histogram over `[0, upper)` with `bins` equal-width buckets.
///
/// Values below zero clamp into the first bucket; values at or above
/// `upper` clamp into the last, so every recorded sample is counted. The
/// exact mean and max are tracked alongside the bucketed counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedHistogram {
    upper: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl FixedHistogram {
    /// Creates an empty histogram over `[0, upper)` with `bins` buckets.
    ///
    /// `upper` must be positive and finite; `bins` must be nonzero.
    pub fn new(upper: f64, bins: usize) -> Self {
        assert!(upper > 0.0 && upper.is_finite(), "upper must be positive");
        assert!(bins > 0, "bins must be nonzero");
        Self {
            upper,
            counts: vec![0; bins],
            total: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let bins = self.counts.len();
        let idx = if value <= 0.0 {
            0
        } else {
            (((value / self.upper) * bins as f64) as usize).min(bins - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest recorded sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all recorded samples (0.0 when empty).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of the recorded distribution, at
    /// bucket resolution: the rank-`⌈q·n⌉` sample is located in its bucket
    /// and its value estimated by linear interpolation across that bucket,
    /// then clamped to the exact recorded maximum (so `quantile(1.0) ==
    /// max()` exactly, and a p99 never reports a value no sample reached).
    ///
    /// Returns 0.0 when empty. `q` outside `[0, 1]` is clamped.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let width = self.upper / self.counts.len() as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate within bucket i: the (rank - seen)-th of its
                // c samples, assuming uniform spread across the bucket.
                let frac = (rank - seen) as f64 / c as f64;
                let value = (i as f64 + frac) * width;
                return value.min(self.max());
            }
            seen += c;
        }
        self.max()
    }

    /// Median ([`FixedHistogram::quantile`] at 0.5).
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th percentile ([`FixedHistogram::quantile`] at 0.99).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Upper bound of the bucketed range.
    pub fn upper(&self) -> f64 {
        self.upper
    }

    /// Per-bucket counts (bucket `i` covers `[i, i+1) * upper / bins`).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merges another histogram with identical geometry into this one.
    pub fn merge(&mut self, other: &FixedHistogram) {
        assert_eq!(self.upper, other.upper, "histogram geometry mismatch");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram geometry mismatch"
        );
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    fn body_json(&self, out: &mut String) {
        out.push_str("\"total\":");
        out.push_str(&self.total.to_string());
        out.push_str(",\"mean\":");
        json::number_into(self.mean(), out);
        out.push_str(",\"max\":");
        json::number_into(self.max(), out);
        out.push_str(",\"upper\":");
        json::number_into(self.upper, out);
        out.push_str(",\"counts\":[");
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&c.to_string());
        }
        out.push(']');
    }
}

enum Metric {
    Counter(u64),
    Gauge { last: f64, min: f64, max: f64 },
    Hist(FixedHistogram),
}

static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();

fn registry() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Applies `update` to the metric `name`, first inserting `init()` when the
/// name is new.
///
/// The lookup borrows `name`, so the key is allocated only on the first
/// insert; later updates of a hot metric cost a mutex and a map lookup.
/// Kept out of line, so the public updaters' disabled path is the gate
/// alone and does not pay for this body's stack frame.
#[inline(never)]
fn update_metric(name: &str, init: impl FnOnce() -> Metric, update: impl FnOnce(&mut Metric)) {
    let mut reg = registry();
    match reg.get_mut(name) {
        Some(metric) => update(metric),
        None => {
            let mut metric = init();
            update(&mut metric);
            reg.insert(name.to_string(), metric);
        }
    }
}

/// Adds `delta` to the counter `name` (creating it at zero).
///
/// No-op unless `TCL_METRICS` is set. Mixed-kind reuse of a name keeps the
/// first kind and ignores later updates of other kinds.
pub fn counter_add(name: &str, delta: u64) {
    if !crate::metrics_enabled() {
        return;
    }
    update_metric(
        name,
        || Metric::Counter(0),
        |metric| {
            if let Metric::Counter(v) = metric {
                *v += delta;
            }
        },
    );
}

/// Sets the gauge `name`, tracking last/min/max across the run.
pub fn gauge_set(name: &str, value: f64) {
    if !crate::metrics_enabled() {
        return;
    }
    update_metric(
        name,
        || Metric::Gauge {
            last: value,
            min: value,
            max: value,
        },
        |metric| {
            if let Metric::Gauge { last, min, max } = metric {
                *last = value;
                if value < *min {
                    *min = value;
                }
                if value > *max {
                    *max = value;
                }
            }
        },
    );
}

/// Sets the indexed gauge `name[idx]` — e.g. per-layer λ as
/// `convert.lambda[3]`.
pub fn gauge_set_indexed(name: &str, idx: usize, value: f64) {
    if !crate::metrics_enabled() {
        return;
    }
    gauge_set(&format!("{name}[{idx}]"), value);
}

/// Records `value` into the histogram `name`.
///
/// The geometry (`upper`, `bins`) is fixed by the first record for a given
/// name; later calls reuse it regardless of the arguments passed.
pub fn hist_record(name: &str, value: f64, upper: f64, bins: usize) {
    if !crate::metrics_enabled() {
        return;
    }
    update_metric(
        name,
        || Metric::Hist(FixedHistogram::new(upper, bins)),
        |metric| {
            if let Metric::Hist(h) = metric {
                h.record(value);
            }
        },
    );
}

/// Current value of the counter `name`, if metrics are enabled and the name
/// is registered as a counter.
///
/// Counters are process-global and monotonic; callers measuring one phase
/// (e.g. the engine bench comparing fixed-T vs early-exit synops) snapshot
/// the value before and after and take the difference.
pub fn counter_value(name: &str) -> Option<u64> {
    if !crate::metrics_enabled() {
        return None;
    }
    match registry().get(name) {
        Some(Metric::Counter(v)) => Some(*v),
        _ => None,
    }
}

/// One metric's point-in-time state, as captured by [`metrics_snapshot`].
///
/// This is the read surface the `tcl-obs` HTTP exporter serves `/metrics`
/// and `/summary` from; it is deliberately a plain value (no registry
/// references) so rendering happens outside the registry lock.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// A monotonic counter.
    Counter {
        /// Metric name (indexed gauges carry their `[i]` suffix).
        name: String,
        /// Current value.
        value: u64,
    },
    /// A last/min/max gauge.
    Gauge {
        /// Metric name.
        name: String,
        /// Most recently set value.
        last: f64,
        /// Smallest value seen this run.
        min: f64,
        /// Largest value seen this run.
        max: f64,
    },
    /// A fixed-bucket histogram (cloned, so quantiles can be computed
    /// without holding the registry lock).
    Hist {
        /// Metric name.
        name: String,
        /// The histogram contents.
        hist: FixedHistogram,
    },
}

impl MetricSnapshot {
    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Hist { name, .. } => name,
        }
    }
}

/// Captures the current state of every registered metric, in name order.
///
/// Unlike the update functions this is **not** gated on
/// [`crate::metrics_enabled`]: it reads whatever the registry holds (an
/// empty `Vec` when metrics were never enabled), because the exporter must
/// be able to answer scrapes deterministically regardless of gating.
pub fn metrics_snapshot() -> Vec<MetricSnapshot> {
    let reg = registry();
    reg.iter()
        .map(|(name, metric)| match metric {
            Metric::Counter(v) => MetricSnapshot::Counter {
                name: name.clone(),
                value: *v,
            },
            Metric::Gauge { last, min, max } => MetricSnapshot::Gauge {
                name: name.clone(),
                last: *last,
                min: *min,
                max: *max,
            },
            Metric::Hist(h) => MetricSnapshot::Hist {
                name: name.clone(),
                hist: h.clone(),
            },
        })
        .collect()
}

/// Renders the registry as a human-readable end-of-run table.
///
/// Returns an empty string when nothing was recorded.
pub fn render_summary() -> String {
    let reg = registry();
    if reg.is_empty() {
        return String::new();
    }
    let mut out = String::from("== telemetry summary ==\n");
    for (name, metric) in reg.iter() {
        match metric {
            Metric::Counter(v) => {
                out.push_str(&format!("  counter {name:<32} {v}\n"));
            }
            Metric::Gauge { last, min, max } => {
                out.push_str(&format!(
                    "  gauge   {name:<32} last={last:.6} min={min:.6} max={max:.6}\n"
                ));
            }
            Metric::Hist(h) => {
                out.push_str(&format!(
                    "  hist    {name:<32} n={} mean={:.6} p50={:.6} p99={:.6} max={:.6}\n",
                    h.total(),
                    h.mean(),
                    h.p50(),
                    h.p99(),
                    h.max(),
                ));
            }
        }
    }
    out.pop(); // trailing newline
    out
}

/// Mirrors the registry into the JSONL trace stream (one event per metric).
///
/// Only meaningful when tracing is enabled; [`crate::emit_summary`] calls
/// this before flushing.
pub fn write_metrics_snapshot() {
    if !crate::trace_enabled() {
        return;
    }
    // Serialize under the lock, emit after releasing it (emit_line takes the
    // sink lock; keeping lock scopes disjoint avoids ordering hazards).
    let lines: Vec<String> = {
        let reg = registry();
        reg.iter()
            .map(|(name, metric)| {
                let mut line = String::with_capacity(96);
                match metric {
                    Metric::Counter(v) => {
                        line.push_str("{\"type\":\"counter\",\"name\":\"");
                        json::escape_into(name, &mut line);
                        line.push_str("\",\"value\":");
                        line.push_str(&v.to_string());
                        line.push('}');
                    }
                    Metric::Gauge { last, min, max } => {
                        line.push_str("{\"type\":\"gauge\",\"name\":\"");
                        json::escape_into(name, &mut line);
                        line.push_str("\",\"last\":");
                        json::number_into(*last, &mut line);
                        line.push_str(",\"min\":");
                        json::number_into(*min, &mut line);
                        line.push_str(",\"max\":");
                        json::number_into(*max, &mut line);
                        line.push('}');
                    }
                    Metric::Hist(h) => {
                        line.push_str("{\"type\":\"hist\",\"name\":\"");
                        json::escape_into(name, &mut line);
                        line.push_str("\",");
                        h.body_json(&mut line);
                        line.push('}');
                    }
                }
                line
            })
            .collect()
    };
    for line in lines {
        crate::sink::emit_line(line);
    }
}

/// Clears the registry (test support).
pub(crate) fn reset() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{reset_metrics, with_captured, with_disabled};

    #[test]
    fn histogram_buckets_clamp_and_merge() {
        let mut h = FixedHistogram::new(1.0, 4);
        for v in [-0.5, 0.1, 0.3, 0.6, 0.99, 1.7] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1, 2]);
        assert_eq!(h.total(), 6);
        assert!((h.max() - 1.7).abs() < 1e-12);
        let mut other = FixedHistogram::new(1.0, 4);
        other.record(0.4);
        h.merge(&other);
        assert_eq!(h.counts(), &[2, 2, 1, 2]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn quantiles_interpolate_and_clamp_to_max() {
        let mut h = FixedHistogram::new(10.0, 10);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        for v in [1.5, 2.5, 3.5, 4.5] {
            h.record(v);
        }
        // Rank 2 of 4 at q=0.5 lands in bucket [2,3): one sample there.
        assert!((h.p50() - 3.0).abs() < 1e-9, "p50 = {}", h.p50());
        // p99 → rank 4, bucket [4,5), clamped to the exact max 4.5.
        assert!((h.p99() - 4.5).abs() < 1e-9, "p99 = {}", h.p99());
        assert_eq!(h.quantile(1.0), h.max());
        assert!((h.sum() - 12.0).abs() < 1e-9);
        // A heavy single bucket interpolates within it.
        let mut u = FixedHistogram::new(1.0, 1);
        for _ in 0..100 {
            u.record(0.9);
        }
        assert!(u.p50() <= 0.9 && u.p50() > 0.0);
        assert_eq!(u.quantile(-1.0), u.quantile(0.0), "q clamps");
    }

    #[test]
    fn snapshot_mirrors_registry_without_gating() {
        let (snaps, _lines) = with_captured(|| {
            reset_metrics();
            counter_add("t.snap_counter", 7);
            gauge_set("t.snap_gauge", 2.0);
            gauge_set("t.snap_gauge", -1.0);
            hist_record("t.snap_hist", 0.5, 1.0, 4);
            metrics_snapshot()
        });
        assert!(snaps.iter().any(|s| matches!(
            s,
            MetricSnapshot::Counter { name, value: 7 } if name == "t.snap_counter"
        )));
        assert!(snaps.iter().any(|s| matches!(
            s,
            MetricSnapshot::Gauge { name, last, min, max }
                if name == "t.snap_gauge" && *last == -1.0 && *min == -1.0 && *max == 2.0
        )));
        assert!(snaps.iter().any(
            |s| matches!(s, MetricSnapshot::Hist { name, hist } if name == "t.snap_hist" && hist.total() == 1)
        ));
        // Name order (BTreeMap order) is deterministic.
        let names: Vec<&str> = snaps.iter().map(MetricSnapshot::name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let (_, emitted) = with_disabled(|| {
            reset_metrics();
            counter_add("t.counter", 3);
            gauge_set("t.gauge", 1.0);
            hist_record("t.hist", 0.5, 1.0, 8);
            assert_eq!(render_summary(), "");
        });
        assert_eq!(emitted, 0);
    }

    #[test]
    fn counter_value_reads_back_counters_only() {
        let (_, _lines) = with_captured(|| {
            reset_metrics();
            assert_eq!(counter_value("t.readback"), None);
            counter_add("t.readback", 4);
            counter_add("t.readback", 2);
            assert_eq!(counter_value("t.readback"), Some(6));
            gauge_set("t.not_a_counter", 1.0);
            assert_eq!(counter_value("t.not_a_counter"), None);
        });
        let (_, emitted) = with_disabled(|| {
            assert_eq!(counter_value("t.readback"), None);
        });
        assert_eq!(emitted, 0);
    }

    #[test]
    fn mixed_kind_reuse_keeps_the_first_kind() {
        let (snaps, _lines) = with_captured(|| {
            reset_metrics();
            counter_add("t.mixed_c", 2);
            gauge_set("t.mixed_c", 9.0);
            hist_record("t.mixed_c", 0.5, 1.0, 4);
            counter_add("t.mixed_c", 3);
            gauge_set("t.mixed_g", 1.5);
            counter_add("t.mixed_g", 4);
            hist_record("t.mixed_g", 0.5, 1.0, 4);
            gauge_set("t.mixed_g", -2.0);
            hist_record("t.mixed_h", 0.25, 1.0, 4);
            counter_add("t.mixed_h", 1);
            gauge_set("t.mixed_h", 3.0);
            hist_record("t.mixed_h", 0.75, 8.0, 2);
            metrics_snapshot()
        });
        let mut want_hist = FixedHistogram::new(1.0, 4);
        want_hist.record(0.25);
        want_hist.record(0.75);
        assert_eq!(
            snaps,
            vec![
                MetricSnapshot::Counter {
                    name: "t.mixed_c".to_string(),
                    value: 5,
                },
                MetricSnapshot::Gauge {
                    name: "t.mixed_g".to_string(),
                    last: -2.0,
                    min: -2.0,
                    max: 1.5,
                },
                MetricSnapshot::Hist {
                    name: "t.mixed_h".to_string(),
                    hist: want_hist,
                },
            ]
        );
    }

    #[test]
    fn registry_updates_summarize_and_snapshot() {
        let (_, lines) = with_captured(|| {
            reset_metrics();
            counter_add("t.spikes", 2);
            counter_add("t.spikes", 3);
            gauge_set("t.lambda", 2.0);
            gauge_set("t.lambda", 0.5);
            gauge_set_indexed("t.lambda_site", 1, 4.0);
            hist_record("t.rate", 0.25, 1.0, 4);
            let summary = render_summary();
            assert!(summary.contains("t.spikes"));
            assert!(summary.contains("5"));
            assert!(summary.contains("t.lambda_site[1]"));
            write_metrics_snapshot();
        });
        assert_eq!(lines.len(), 4);
        for line in &lines {
            crate::json::validate_line(line).expect("snapshot line must be valid JSON");
        }
        assert!(lines.iter().any(|l| l.contains("\"type\":\"counter\"")
            && l.contains("\"t.spikes\"")
            && l.contains("\"value\":5")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"gauge\"") && l.contains("\"min\":0.5")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"hist\"") && l.contains("\"counts\":[0,1,0,0]")));
    }
}
