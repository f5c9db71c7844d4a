//! # tcl-telemetry
//!
//! Structured, near-zero-cost-when-disabled telemetry for the TCL
//! ANN-to-SNN stack: hierarchical spans around the compute hot paths,
//! a process-wide metrics registry, and a JSONL event sink.
//!
//! The paper's whole argument is about *where* conversion error comes from
//! — per-layer norm-factors λ, clipping rates, and IF firing rates that
//! should track the clipped ANN activation. This crate makes those
//! quantities first-class observables instead of ad-hoc `println!`s.
//!
//! ## Gating
//!
//! Everything is off by default and gated by two environment variables,
//! each read **once** per process:
//!
//! * `TCL_TRACE` — span/log/event emission. `1`/`true` streams JSONL to
//!   stderr; any other non-empty value is treated as a file path to append
//!   JSONL lines to.
//! * `TCL_METRICS` — metrics registry updates (counters, gauges,
//!   histograms) and the end-of-run summary. Same value convention; the
//!   summary itself is human-readable text on stderr.
//!
//! A third variable bounds file-sink growth: `TCL_TRACE_MAX_MB=<MiB>`
//! stops appending once the cap is reached and surfaces the number of
//! dropped events through [`events_dropped`] and [`emit_summary`].
//!
//! When a variable is unset the corresponding fast path is a single relaxed
//! atomic load and a branch: no allocation, no locking, no clock reads, and
//! — critically for the kernels — no change to any computed float. The
//! determinism proptests in `tcl-tensor` assert the bitwise-identity half
//! of that contract; [`events_emitted`] exposes the zero-events half.
//!
//! ## Spans
//!
//! [`span`] returns an RAII guard; dropping it emits one JSONL record with
//! the span's name, id, parent id, thread, start offset, and wall time.
//! Parent linkage is a thread-local stack, and [`propagate_parent`] carries
//! the current span across `std::thread::scope` fan-outs so worker spans
//! nest under the kernel that spawned them (see `tcl_tensor::par`).
//!
//! ## Metrics
//!
//! [`counter_add`], [`gauge_set`] / [`gauge_set_indexed`], and
//! [`hist_record`] update a global registry keyed by static names
//! (indexed gauges append `[i]`, e.g. per-layer λ as `convert.lambda[3]`).
//! [`render_summary`] produces the human-readable end-of-run table;
//! [`write_metrics_snapshot`] mirrors the registry into the JSONL stream.
//!
//! ## JSONL schema
//!
//! One object per line, discriminated by `"type"`:
//!
//! ```json
//! {"type":"span","name":"matmul","id":7,"parent":6,"thread":2,"start_us":120,"dur_us":340,"attrs":{"m":64,"k":128,"n":64}}
//! {"type":"log","component":"trainer","message":"epoch 0 ..."}
//! {"type":"counter","name":"snn.spikes","value":10231}
//! {"type":"gauge","name":"convert.lambda[0]","last":2.0,"min":2.0,"max":2.0}
//! {"type":"hist","name":"snn.firing_rate","total":512,"mean":0.31,"max":0.9,"upper":1.0,"counts":[...]}
//! ```
//!
//! [`json::validate_line`] is a minimal JSON parser used by tests and the
//! CI smoke binary to check well-formedness without external crates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod json;
mod metrics;
mod sink;
mod span;

pub use metrics::{
    counter_add, counter_value, gauge_set, gauge_set_indexed, hist_record, metrics_snapshot,
    render_summary, write_metrics_snapshot, FixedHistogram, MetricSnapshot,
};
pub use sink::{events_dropped, events_emitted, flush, log};
pub use span::{current_span_id, propagate_parent, span, span_with, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Tracing flag, initialized once from `TCL_TRACE`.
static TRACE: OnceLock<AtomicBool> = OnceLock::new();
/// Metrics flag, initialized once from `TCL_METRICS`.
static METRICS: OnceLock<AtomicBool> = OnceLock::new();

fn env_flag(var: &str) -> bool {
    match std::env::var(var) {
        Ok(v) => !v.is_empty() && v != "0" && v != "false" && v != "off",
        Err(_) => false,
    }
}

fn trace_flag() -> &'static AtomicBool {
    TRACE.get_or_init(|| AtomicBool::new(env_flag("TCL_TRACE")))
}

fn metrics_flag() -> &'static AtomicBool {
    METRICS.get_or_init(|| AtomicBool::new(env_flag("TCL_METRICS")))
}

/// Whether span/log/event tracing is enabled (`TCL_TRACE`).
///
/// One relaxed atomic load; this is the instrumented kernels' fast path.
#[inline]
pub fn trace_enabled() -> bool {
    // ordering: Relaxed — a monotonic on/off hint; no data is published
    // through this flag, and a stale read only delays the first event.
    trace_flag().load(Ordering::Relaxed)
}

/// Whether metrics recording is enabled (`TCL_METRICS`).
#[inline]
pub fn metrics_enabled() -> bool {
    // ordering: Relaxed — same as trace_enabled: a pure gating hint.
    metrics_flag().load(Ordering::Relaxed)
}

/// Prints the end-of-run metrics summary to stderr when metrics are
/// enabled, and mirrors the registry into the trace stream when tracing is
/// enabled. Call once at the end of a run (the bench bins do).
///
/// When the `TCL_TRACE_MAX_MB` file-sink cap suppressed events, the count
/// is surfaced both on stderr and as a final `{"type":"dropped",...}`
/// JSONL marker (written past the cap, so readers always learn the trace
/// is a prefix of the run rather than the whole of it).
pub fn emit_summary() {
    if trace_enabled() {
        write_metrics_snapshot();
        let dropped = events_dropped();
        if dropped > 0 {
            sink::emit_line_unbounded(format!(
                "{{\"type\":\"dropped\",\"count\":{dropped},\"reason\":\"TCL_TRACE_MAX_MB\"}}"
            ));
        }
        flush();
    }
    let dropped = events_dropped();
    if dropped > 0 {
        eprintln!("[telemetry] {dropped} trace event(s) dropped by the TCL_TRACE_MAX_MB cap");
    }
    if metrics_enabled() {
        let summary = render_summary();
        if !summary.is_empty() {
            eprintln!("{summary}");
        }
    }
}

/// Test-only control over the gating flags and the sink.
///
/// Hidden from docs: production code must gate on the environment
/// variables. Tests use these helpers to exercise both sides of the
/// disabled-path guarantee inside one process.
#[doc(hidden)]
pub mod test_support {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes tests that toggle the global flags or capture the sink.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with tracing + metrics force-enabled and the sink captured
    /// in memory; returns `f`'s result and the captured JSONL lines.
    ///
    /// The flags are process-wide: while `f` runs, every thread of the test
    /// binary records metrics, including tests that do not hold the lock.
    /// An assertion on a global counter (`snn.spikes`, `snn.synops`, ...)
    /// is therefore sound only in a test binary where every test that
    /// steps neurons or synapses runs under `with_captured` or
    /// [`with_disabled`].
    pub fn with_captured<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
        let _guard = lock();
        // ordering: SeqCst — test-only toggles; total order keeps the
        // flag flips observable before/after the captured section without
        // reasoning about pairings, and the cost is irrelevant off the
        // hot path.
        let trace_was = trace_flag().swap(true, Ordering::SeqCst);
        let metrics_was = metrics_flag().swap(true, Ordering::SeqCst); // ordering: SeqCst, as above
        sink::begin_capture();
        let result = f();
        let lines = sink::end_capture();
        // ordering: SeqCst — see the swap above; restores must not be
        // reordered into the captured section.
        trace_flag().store(trace_was, Ordering::SeqCst);
        metrics_flag().store(metrics_was, Ordering::SeqCst); // ordering: SeqCst, as above
        (result, lines)
    }

    /// Runs `f` with tracing + metrics force-disabled (the default state in
    /// test processes) while holding the same lock as [`with_captured`], and
    /// returns `f`'s result plus the number of events emitted during `f`
    /// (which the disabled-path guarantee requires to be zero).
    pub fn with_disabled<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let _guard = lock();
        // ordering: SeqCst — test-only toggles, same rationale as
        // with_captured: total order around the measured section.
        let trace_was = trace_flag().swap(false, Ordering::SeqCst);
        let metrics_was = metrics_flag().swap(false, Ordering::SeqCst); // ordering: SeqCst, as above
        let before = events_emitted();
        let result = f();
        let emitted = events_emitted() - before;
        // ordering: SeqCst — restores stay outside the measured section.
        trace_flag().store(trace_was, Ordering::SeqCst);
        metrics_flag().store(metrics_was, Ordering::SeqCst); // ordering: SeqCst, as above
        (result, emitted)
    }

    /// Clears the metrics registry (capture tests want a clean slate).
    pub fn reset_metrics() {
        super::metrics::reset();
    }
}
