//! Clock-free helpers of the TCL benchmark: the order statistics every
//! metric is reduced with, success accounting, the result line, the pinned
//! quality values, and the span recorder that writes `tcl-trace` JSONL.
//!
//! Everything here is pure so the benchmark's own math is unit-tested; the
//! wall clocks, sockets and workloads live in `src/bin/perfbench/`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

use tcl_tensor::SeededRng;

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle samples for an even count),
/// as Python's `statistics.median` gives it. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Clamping can push delta outside 0..4; Python extrapolates then too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread a run-to-run
/// comparison is judged by. `None` below two samples or at a zero median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank tail percentile `q` (in `[0.5, 1]`) of `values`, capped at
/// the highest percentile that still has [`TAIL_SAMPLES`] samples beyond
/// it, and never below the median rank: with too few samples to resolve
/// any tail, the median is reported.
///
/// Returns the value and the percentile actually reported.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let capped = rank(n, q).min(n.saturating_sub(1 + TAIL_SAMPLES));
    let rank = capped.max(rank(n, 0.5));
    Some((sorted[rank], (rank + 1) as f64 / n as f64))
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `values`, uncapped: the
/// reading for central percentiles such as p50. `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(values);
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), q)])
}

/// Zero-based nearest-rank index of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Operation accounting of one run: every attempted operation either
/// succeeds or counts as failed, never both, never neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (wrong, malformed or missing result).
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records `missing` operations that never produced a result.
    pub fn record_missing(&mut self, missing: u64) {
        self.attempted += missing;
        self.failed += missing;
    }

    /// Share of attempted operations that succeeded; 0 when none ran.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// Named metrics of one run, each with its unit, in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// The value of metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// Copies every metric of `other` in, replacing same-named ones.
    pub fn absorb(&mut self, other: &Metrics) {
        self.values
            .extend(other.values.iter().map(|(k, v)| (k.clone(), *v)));
    }

    /// Whether every value is a finite number (JSON has no NaN).
    pub fn all_finite(&self) -> bool {
        self.values.values().all(|(v, _)| v.is_finite())
    }

    /// Human-readable `name value unit` lines.
    pub fn table(&self) -> String {
        let width = self.values.keys().map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (name, (value, unit)) in &self.values {
            let _ = writeln!(out, "  {name:<width$}  {value:>14.4}  {unit}");
        }
        out
    }
}

/// The one-line JSON result the benchmark prints last:
/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
/// Values print with every digit Rust's shortest round-trip form gives.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    for (i, (name, (value, unit))) in metrics.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["table1_cnn6", "early_exit_cnn6", "serve_cnn6"];

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("images_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("accuracy", "share"),
    ("steps_per_image", "steps"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Node layout of the converted cnn6: `(node index, kind)`.
pub const CNN6_NODES: [(usize, &str); 9] = [
    (0, "spiking"),
    (1, "spiking"),
    (2, "avgpool"),
    (3, "spiking"),
    (4, "spiking"),
    (5, "avgpool"),
    (6, "flatten"),
    (7, "spiking"),
    (8, "spiking"),
];

/// Per-layer metrics every traced run prints, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("data.generate_ms", "ms"),
        ("nn.train_s", "s"),
        ("nn.train_images_per_s", "1/s"),
        ("core.convert_ms", "ms"),
        ("engine.us_per_sample_step", "us"),
        ("engine.batch_occupancy", "samples"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for (i, kind) in CNN6_NODES {
        if kind == "spiking" {
            out.push((format!("snn.node{i}.{kind}.synop_us"), "us"));
            out.push((format!("snn.node{i}.{kind}.if_us"), "us"));
            out.push((format!("snn.node{i}.synops"), "count"));
            out.push((format!("snn.node{i}.spike_rate"), "share"));
        } else {
            out.push((format!("snn.node{i}.{kind}.us"), "us"));
        }
    }
    for (n, u) in [
        ("snn.step_us", "us"),
        ("snn.step_overhead_us", "us"),
        ("snn.replay_batch", "samples"),
        ("lanes.step_p50_us", "us"),
        ("lanes.step_p99_us", "us"),
        ("lanes.submit_us", "us"),
        ("lanes.active_mean", "lanes"),
        ("lanes.us_per_lane_step", "us"),
        ("serve.tick_p50_ms", "ms"),
        ("serve.tick_p99_ms", "ms"),
        ("serve.tick_self_us", "us"),
        ("serve.steps_per_tick", "steps"),
        ("serve.service_p50_ms", "ms"),
        ("serve.service_p99_ms", "ms"),
        ("serve.queue_peak", "requests"),
        ("io.read_us", "us"),
        ("io.write_us", "us"),
        ("gen.late_p99_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("host.cal_ms", "ms"),
    ] {
        out.push((n.to_string(), u));
    }
    out
}

/// Accuracy and mean steps per image one workload must reproduce exactly,
/// keyed by workload and the SIMD level kernels dispatched to. Training
/// and conversion are deterministic per level, and every level is bitwise
/// identical across `TCL_THREADS`, so a difference means the numerics
/// changed. `None` for a level that was never pinned.
pub fn pinned(workload: &str, simd: &str) -> Option<(f64, f64)> {
    PINNED
        .iter()
        .find(|p| p.0 == workload && p.1 == simd)
        .map(|p| (p.2, p.3))
}

/// `(workload, simd level, accuracy, steps per image)`. Scalar and Wide
/// agree bitwise; AVX2's fused multiply-adds train a slightly different
/// model.
const PINNED: &[(&str, &str, f64, f64)] = &[
    ("table1_cnn6", "avx2", 0.8, 250.0),
    (
        "early_exit_cnn6",
        "avx2",
        0.7916666666666666,
        41.583333333333336,
    ),
    ("serve_cnn6", "avx2", 0.7916666666666666, 47.375),
    ("table1_cnn6", "wide", 0.7833333333333333, 250.0),
    ("early_exit_cnn6", "wide", 0.7833333333333333, 43.0),
    ("serve_cnn6", "wide", 0.7833333333333333, 46.975),
    ("table1_cnn6", "scalar", 0.7833333333333333, 250.0),
    ("early_exit_cnn6", "scalar", 0.7833333333333333, 43.0),
    ("serve_cnn6", "scalar", 0.7833333333333333, 46.975),
];

/// One recorded span, in the shape `tcl-trace` loads.
#[derive(Debug, Clone, PartialEq)]
struct Span {
    name: String,
    id: u64,
    parent: Option<u64>,
    start_us: u64,
    dur_us: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// In-memory span recorder. Callers pass timestamps (microseconds since
/// the recorder's epoch), so it never reads a clock itself; spans nest by
/// open order and are written as the JSONL span lines of `TCL_TRACE`.
#[derive(Debug, Default)]
pub struct Recorder {
    done: Vec<Span>,
    open: Vec<Span>,
    next_id: u64,
}

impl Recorder {
    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>, now_us: u64) -> u64 {
        self.next_id += 1;
        let span = Span {
            name: name.into(),
            id: self.next_id,
            parent: self.open.last().map(|s| s.id),
            start_us: now_us,
            dur_us: 0,
            attrs: Vec::new(),
        };
        self.open.push(span);
        self.next_id
    }

    /// Attaches a numeric attribute to the innermost open span.
    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(span) = self.open.last_mut() {
            span.attrs.push((key, value));
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, now_us: u64) {
        if let Some(mut span) = self.open.pop() {
            span.dur_us = now_us.saturating_sub(span.start_us);
            self.done.push(span);
        }
    }

    /// Records an already-timed leaf span under the innermost open span.
    pub fn leaf(&mut self, name: impl Into<String>, start_us: u64, dur_us: u64) {
        self.open(name, start_us);
        self.close(start_us + dur_us);
    }

    /// Closed spans recorded so far.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no span has closed yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Closed spans as JSONL, children before parents (close order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.done {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"name\":\"{}\",\"id\":{},\"parent\":{parent},\
                 \"thread\":0,\"start_us\":{},\"dur_us\":{}",
                s.name, s.id, s.start_us, s.dur_us
            );
            if !s.attrs.is_empty() {
                out.push_str(",\"attrs\":{");
                for (i, (k, v)) in s.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let v = if v.is_finite() { *v } else { 0.0 };
                    let _ = write!(out, "\"{k}\":{v:?}");
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }
}

/// A seeded order of `0..n` that keeps batch membership: the full
/// `batch`-sized chunks of `0..n` are visited in a seeded order, each
/// shuffled within, and the short remainder chunk, if any, stays last.
/// The engine cuts positional batches (`k * batch..`), so each of them
/// holds exactly one natural batch. Early exit runs every batch until its
/// slowest sample retires, so mixing samples across batches would change
/// the work; this order does not.
pub fn batch_preserving_order(rng: &mut SeededRng, n: usize, batch: usize) -> Vec<usize> {
    let batch = batch.max(1);
    let full = n / batch;
    let mut chunks: Vec<(usize, usize)> = rng
        .permutation(full)
        .into_iter()
        .map(|c| (c * batch, (c + 1) * batch))
        .collect();
    chunks.push((full * batch, n));
    let mut out = Vec::with_capacity(n);
    for (lo, hi) in chunks {
        out.extend(rng.permutation(hi - lo).into_iter().map(|i| lo + i));
    }
    out
}

/// Arrival times (µs, ascending) of `n` requests sent in bursts of
/// `burst` (the last one shorter). Every request of a burst is due at the
/// same instant. Burst `k` of `m` falls at a seeded point in the first half
/// of its slot `[k, k + 1) * duration_us / m`, so bursts are at least half
/// a slot apart and one burst's queue never delays the next. Fixing `n`
/// keeps every test image sent equally often, so served accuracy and steps
/// per image do not depend on the seed.
pub fn burst_schedule(rng: &mut SeededRng, n: usize, burst: usize, duration_us: u64) -> Vec<u64> {
    let burst = burst.max(1);
    let bursts = n.div_ceil(burst);
    let slot = duration_us / bursts.max(1) as u64;
    (0..n)
        .collect::<Vec<_>>()
        .chunks(burst)
        .enumerate()
        .flat_map(|(k, members)| {
            let at = k as u64 * slot + rng.below_u64((slot / 2).max(1));
            std::iter::repeat_n(at, members.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = tcl_telemetry::json::parse_line(&text.replace('\n', " ")).unwrap();
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layer);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = relative_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990 (value 990), ten samples beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, q) = tail_percentile(&v, 0.99).unwrap();
        assert_eq!(value, 990.0);
        assert!((q - 0.99).abs() < 1e-12);
        // 500 samples: p99 would leave five beyond; cap at rank 489 (p97.8).
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let (value, q) = tail_percentile(&v, 0.99).unwrap();
        assert_eq!(value, 490.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_SAMPLES);
        assert!((q - 0.98).abs() < 1e-12);
        // Too few for any tail: the median rank.
        let (value, _) = tail_percentile(&[5.0, 1.0, 3.0], 0.99).unwrap();
        assert_eq!(value, 3.0);
        // 25 samples: ten beyond rank 14 (p60), above the median rank 12.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        let (value, q) = tail_percentile(&v, 0.99).unwrap();
        assert_eq!(value, 15.0);
        assert!((q - 0.6).abs() < 1e-12);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn p50_is_nearest_rank_and_uncapped() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(tail_percentile(&v, 0.5).unwrap().0, 50.0);
        // 12 samples: no tail has ten beyond it; p99 falls back to p50.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(6.0));
        assert_eq!(tail_percentile(&v, 0.99).unwrap().0, 6.0);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tally_counts_every_operation_once() {
        let mut t = Tally::default();
        assert_eq!(t.ok_share(), 0.0);
        t.record(true);
        t.record(true);
        t.record(false);
        t.record_missing(1);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.ok_share(), 0.5);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127, "s");
        m.set("latency_ms", 1.2034, "ms");
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        let parsed = tcl_telemetry::json::parse_line(&line).unwrap();
        assert!(parsed.get("metrics").is_some());
    }

    #[test]
    fn recorder_writes_trace_lines_tcl_trace_parses() {
        let mut r = Recorder::default();
        r.open("run", 0);
        r.attr("reps", 2.0);
        r.leaf("rep", 10, 5);
        r.close(40);
        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let rep = tcl_telemetry::json::parse_line(lines[0]).unwrap();
        assert_eq!(rep.get("parent").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(rep.get("dur_us").and_then(|p| p.as_u64()), Some(5));
        let run = tcl_telemetry::json::parse_line(lines[1]).unwrap();
        assert_eq!(
            run.get("parent"),
            Some(&tcl_telemetry::json::JsonValue::Null)
        );
        assert_eq!(run.get("dur_us").and_then(|p| p.as_u64()), Some(40));
    }

    #[test]
    fn bursts_are_seeded_sized_and_half_a_slot_apart() {
        let a = burst_schedule(&mut SeededRng::new(7), 100, 12, 9_000_000);
        let b = burst_schedule(&mut SeededRng::new(7), 100, 12, 9_000_000);
        let c = burst_schedule(&mut SeededRng::new(8), 100, 12, 9_000_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&t| t < 9_000_000));
        // Nine bursts of 12, 12, ..., 4 in slots of 1 s, each in the first
        // half of its slot.
        let bursts: Vec<&[u64]> = a.chunk_by(|x, y| x == y).collect();
        let sizes: Vec<usize> = bursts.iter().map(|b| b.len()).collect();
        assert_eq!(sizes, [12, 12, 12, 12, 12, 12, 12, 12, 4]);
        for (k, b) in bursts.iter().enumerate() {
            let slot = k as u64 * 1_000_000;
            assert!(
                (slot..slot + 500_000).contains(&b[0]),
                "burst {k} at {}",
                b[0]
            );
        }
    }

    #[test]
    fn every_engine_batch_holds_one_natural_batch() {
        for seed in 0..16 {
            let order = batch_preserving_order(&mut SeededRng::new(seed), 120, 32);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..120).collect::<Vec<_>>());
            // The engine's batches are positions k*32.., the last one short.
            for engine_batch in order.chunks(32) {
                let first = engine_batch[0] / 32;
                let mut members = engine_batch.to_vec();
                members.sort_unstable();
                let natural: Vec<usize> = (first * 32..((first + 1) * 32).min(120)).collect();
                assert_eq!(members, natural, "seed {seed}");
            }
        }
        let a = batch_preserving_order(&mut SeededRng::new(5), 120, 32);
        assert_ne!(a, batch_preserving_order(&mut SeededRng::new(6), 120, 32));
    }
}
