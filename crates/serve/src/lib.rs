//! # tcl-serve
//!
//! A long-running inference service over the TCL spiking-network stack:
//! HTTP requests in, continuous-batched SNN inference out.
//!
//! The centerpiece is the marriage of two loops. The lane engine
//! ([`tcl_snn::LaneEngine`]) runs an *open* timestep loop whose batch rows
//! ("lanes") retire individually the moment their early-exit margin
//! stabilizes; the [`Server`] runs a request loop that feeds freed lanes
//! from a bounded admission queue. A new request does not wait for the
//! batch to drain — it joins the running loop in a lane an early-exited
//! request just vacated (admission is bitwise-exact: a freshly grown lane
//! simulates as if presented alone). Per-request deadlines are mapped onto
//! the exit policy's step budgets, overload sheds with `429` +
//! `Retry-After`, and a drain finishes in-flight work before shutdown.
//!
//! The crate is **deterministic by construction**: time comes from a
//! [`Clock`] capability (the library ships only the hand-advanced
//! [`VirtualClock`]), bytes come from a [`Transport`] capability (the
//! library ships only the scripted [`sim`] network), and the server core
//! never touches wall clocks, sockets, or threads. Real `Instant`s and
//! `TcpListener`s bind exclusively at the `main()` edge in the
//! `tcl_serve` binary — lint rule D1 enforces the boundary. The same
//! scenario script therefore produces byte-identical responses, shed
//! decisions, and completion orders on every run and every `TCL_THREADS`
//! setting.
//!
//! ## Wire protocol
//!
//! HTTP/1.1 with keep-alive, parsed and framed by [`tcl_obs::http`] (the
//! dialect the `tcl-obs` metrics exporter reads through too): connections
//! are reused across requests (bounded by `max_requests_per_conn` and an
//! idle timeout), pipelined requests are answered strictly in arrival
//! order, and any non-200 response closes the connection. Endpoints:
//!
//! * `POST /infer` with body `{"sample":[...], "deadline_us": 50000}` →
//!   `{"pred":…,"steps":…,"early":…,"margin":…,"latency_us":…}`
//! * `GET /healthz` → `ok`
//! * `GET /stats` → serving counters as JSON
//! * `GET /metrics` → the telemetry registry in Prometheus text format,
//!   rendered by [`tcl_obs::export::render_prometheus`] (empty but for
//!   `tcl_trace_events_dropped` unless `TCL_METRICS` is set)
//!
//! See the repository README's "Serving" section for deadline and
//! shedding semantics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod clock;
mod server;
pub mod sim;
mod transport;

pub use backend::{Backend, Completion, LaneBackend};
pub use clock::{Clock, VirtualClock};
pub use server::{BackendFactory, ServeConfig, ServeStats, Server, TickReport};
pub use transport::{Connection, Io, Transport};
