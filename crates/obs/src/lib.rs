//! # tcl-obs
//!
//! The read side of the TCL telemetry stack. `tcl-telemetry` (PR 2) made
//! the pipeline *emit* spans, metrics, and JSONL events; this crate makes
//! them *legible*, in two halves:
//!
//! **Post-hoc trace analysis.** [`load`] parses a JSONL trace back into
//! typed events (reusing `tcl_telemetry::json`, so the emitter and parser
//! are the same grammar), [`tree`] reconstructs the per-thread span forest
//! across `thread::scope` parent propagation, and on top of that sit
//! [`summary`] (per-span-name count / total / self time / p50 / p99),
//! [`flame`] (folded stacks and a self-contained SVG flamegraph),
//! [`critical`] (the longest self-time chain through a run), and [`diff`]
//! (two runs → per-span-name deltas with a regression threshold). The
//! `tcl-trace` binary exposes all of it as subcommands, so "where do the
//! timesteps and synops actually go" — the latency/energy tradeoff that is
//! TCL's whole pitch — is one command against a trace file instead of an
//! evening with raw JSONL.
//!
//! **Live export.** [`export`] is a hand-rolled, zero-dependency TCP/HTTP
//! exporter (opt-in via `TCL_OBS_ADDR=host:port`): a single accept thread
//! serving `/metrics` in Prometheus text format straight from the
//! `tcl-telemetry` registry snapshot, `/healthz`, and `/summary` JSON.
//! It is strictly off the compute path — scrapes read a snapshot under the
//! registry mutex and never touch engine or trainer state. [`http`] is the
//! workspace's one HTTP/1.1 dialect (incremental request parser, response
//! builder): the exporter reads its requests through it, and the
//! `tcl-serve` inference service speaks it on every connection and answers
//! its own `/metrics` with [`export::render_prometheus`].
//!
//! Everything here is deterministic for a given trace: analysis output is
//! a pure function of the input JSONL, so flamegraphs and critical paths
//! are golden-testable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod critical;
pub mod diff;
pub mod export;
pub mod flame;
pub mod http;
pub mod load;
pub mod summary;
pub mod tree;

pub use critical::{critical_path, CriticalPath, CriticalStep};
pub use diff::{diff_summaries, DiffReport, DiffRow};
pub use export::{serve, serve_from_env, Exporter};
pub use flame::{folded, svg};
pub use load::{SpanEvent, Trace, TraceEvent};
pub use summary::{summarize, NameStats};
pub use tree::{SpanNode, SpanTree};

/// Errors from trace loading, analysis, and the exporter.
#[derive(Debug)]
pub enum ObsError {
    /// A JSONL line failed to parse or was missing a required field.
    Parse {
        /// 1-based line number in the trace file.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// The trace parsed but cannot be analyzed as requested.
    Trace(String),
    /// Filesystem or socket failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Parse { line, detail } => {
                write!(f, "trace line {line}: {detail}")
            }
            ObsError::Trace(detail) => write!(f, "trace: {detail}"),
            ObsError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ObsError {
    fn from(e: std::io::Error) -> Self {
        ObsError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ObsError>;
