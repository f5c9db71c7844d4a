//! Live HTTP metrics exporter: a zero-dependency TCP server publishing
//! the `tcl-telemetry` registry.
//!
//! Opt-in via `TCL_OBS_ADDR=host:port` (see [`serve_from_env`]); when the
//! variable is unset nothing binds and the process is byte-for-byte
//! identical to a build without the exporter. One accept thread serves
//! requests sequentially — scrape traffic is one Prometheus poll every few
//! seconds, not a web workload — and every scrape reads a point-in-time
//! [`tcl_telemetry::metrics_snapshot`], so rendering happens outside the
//! registry lock and never touches engine or trainer state.
//!
//! Endpoints:
//!
//! * `GET /metrics` — Prometheus text format ([`render_prometheus`]; the
//!   `tcl_serve` service answers its own `/metrics` with the same
//!   renderer, see DESIGN.md §13).
//! * `GET /healthz` — `ok`, for liveness probes.
//! * `GET /summary` — the same snapshot as JSON.
//!
//! Requests are read through [`crate::http::RequestParser`], the dialect
//! and limits the inference service speaks: an oversized head gets 431, a
//! GET with a body or a repeated `Content-Length` 400, a POST 405 (411
//! without a `Content-Length`). Each connection carries one request and
//! is closed after the answer (`Connection: close`); no TLS. Bind to
//! loopback unless you know the network.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::http::{self, Method, Parse, Request, RequestParser};
use tcl_telemetry::{events_dropped, json, metrics_snapshot, MetricSnapshot};

/// Environment variable naming the exporter bind address.
pub const ADDR_ENV: &str = "TCL_OBS_ADDR";

/// A running exporter. Dropping it (or calling [`Exporter::shutdown`])
/// stops the accept thread and closes the listener.
pub struct Exporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Exporter {
    /// The bound address (useful with port 0: the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // ordering: Release pairs with the Acquire load in the accept
        // loop; the self-connect below guarantees the loop observes it.
        self.stop.store(true, Ordering::Release);
        // accept() has no timeout; a throwaway connection unblocks it so
        // the loop can re-check the stop flag.
        if let Ok(conn) = TcpStream::connect(self.addr) {
            drop(conn);
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9464`, or port 0 for OS-assigned) and
/// starts the accept thread.
///
/// # Errors
///
/// Fails if the address cannot be bound or the thread cannot spawn.
pub fn serve(addr: &str) -> crate::Result<Exporter> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("tcl-obs-export".to_string())
        .spawn(move || accept_loop(&listener, &thread_stop))?;
    Ok(Exporter {
        addr,
        stop,
        handle: Some(handle),
    })
}

/// Starts the exporter if `TCL_OBS_ADDR` is set (and non-empty).
///
/// A bind failure is reported on stderr and returns `None` rather than
/// propagating: observability must never take down a training run.
pub fn serve_from_env() -> Option<Exporter> {
    let addr = std::env::var(ADDR_ENV).ok()?;
    if addr.trim().is_empty() {
        return None;
    }
    match serve(addr.trim()) {
        Ok(exporter) => {
            eprintln!(
                "[tcl-obs] metrics exporter listening on http://{}/metrics",
                exporter.addr()
            );
            Some(exporter)
        }
        Err(e) => {
            eprintln!("[tcl-obs] {ADDR_ENV}={addr}: exporter disabled: {e}");
            None
        }
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    loop {
        // ordering: Acquire pairs with the Release store in stop_and_join.
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        // ordering: Acquire pairs with the Release store in stop_and_join;
        // re-check so the shutdown self-connect is not served.
        if stop.load(Ordering::Acquire) {
            break;
        }
        // Errors on individual connections (slow clients, disconnects) are
        // the client's problem; the exporter just moves on.
        let _ = handle_connection(stream);
    }
}

fn handle_connection(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    // No endpoint takes a body: any POST body is over the limit.
    let mut parser = RequestParser::new(0);
    let mut chunk = [0u8; 512];
    let (status, content_type, body) = loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(());
        }
        match parser.feed(&chunk[..n]) {
            Parse::NeedMore => {}
            Parse::Ready(request) => break route(&request),
            Parse::Reject { status, reason } => break (status, http::TEXT, format!("{reason}\n")),
        }
    };
    stream.write_all(&http::response(status, content_type, &body, None, false))?;
    stream.flush()
}

/// Status, content type and body answering one parsed request.
fn route(request: &Request) -> (u16, &'static str, String) {
    match (request.method, request.path.as_str()) {
        (Method::Post, _) => (405, http::TEXT, "method not allowed\n".to_string()),
        (Method::Get, "/metrics") => (
            200,
            http::PROMETHEUS,
            render_prometheus(&metrics_snapshot()),
        ),
        (Method::Get, "/healthz") => (200, http::TEXT, "ok\n".to_string()),
        (Method::Get, "/summary") => (200, http::JSON, render_summary_json(&metrics_snapshot())),
        _ => (404, http::TEXT, "not found\n".to_string()),
    }
}

/// Sanitizes a telemetry metric name into a Prometheus family name plus an
/// optional `index` label (from the `name[i]` indexed-gauge convention):
/// `convert.lambda[3]` → (`tcl_convert_lambda`, `Some("3")`).
fn family_of(name: &str) -> (String, Option<String>) {
    let (base, index) = match (name.strip_suffix(']'), name.find('[')) {
        (Some(stripped), Some(open)) if open < stripped.len() => {
            (&name[..open], Some(stripped[open + 1..].to_string()))
        }
        _ => (name, None),
    };
    let mut family = String::with_capacity(base.len() + 4);
    family.push_str("tcl_");
    for c in base.chars() {
        if c.is_ascii_alphanumeric() {
            family.push(c);
        } else {
            family.push('_');
        }
    }
    (family, index)
}

fn sample(family: &str, suffix: &str, labels: &[(&str, &str)], value: &str, out: &mut String) {
    out.push_str(family);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Formats an f64 for the Prometheus exposition format.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a metrics snapshot in Prometheus text exposition format
/// (version 0.0.4).
///
/// Conventions: every family is prefixed `tcl_`, non-alphanumeric name
/// characters become `_`, indexed gauges (`name[i]`) become an
/// `{index="i"}` label on one family, gauges additionally export their
/// run min/max as `<family>_min` / `<family>_max`, and histograms export
/// cumulative `le` buckets plus `_sum` and `_count`. Output is sorted by
/// family name — deterministic for a given snapshot.
pub fn render_prometheus(snaps: &[MetricSnapshot]) -> String {
    use std::collections::BTreeMap;
    // family -> (TYPE, sample lines). Collecting first keeps each family's
    // samples contiguous even when indexed gauges interleave with their
    // min/max companion families in snapshot order.
    let mut families: BTreeMap<String, (&'static str, String)> = BTreeMap::new();
    let mut push = |family: &str, kind: &'static str, line_fn: &dyn Fn(&mut String)| {
        let entry = families
            .entry(family.to_string())
            .or_insert((kind, String::new()));
        line_fn(&mut entry.1);
    };
    for snap in snaps {
        let (family, index) = family_of(snap.name());
        let labels: Vec<(&str, &str)> = match &index {
            Some(i) => vec![("index", i.as_str())],
            None => Vec::new(),
        };
        match snap {
            MetricSnapshot::Counter { value, .. } => {
                let value = value.to_string();
                push(&family, "counter", &|out| {
                    sample(&family, "", &labels, &value, out)
                });
            }
            MetricSnapshot::Gauge { last, min, max, .. } => {
                let (last, min, max) = (prom_f64(*last), prom_f64(*min), prom_f64(*max));
                push(&family, "gauge", &|out| {
                    sample(&family, "", &labels, &last, out)
                });
                let min_family = format!("{family}_min");
                push(&min_family, "gauge", &|out| {
                    sample(&family, "_min", &labels, &min, out)
                });
                let max_family = format!("{family}_max");
                push(&max_family, "gauge", &|out| {
                    sample(&family, "_max", &labels, &max, out)
                });
            }
            MetricSnapshot::Hist { hist, .. } => {
                push(&family, "histogram", &|out| {
                    let width = hist.upper() / hist.counts().len() as f64;
                    let mut cumulative = 0u64;
                    for (i, c) in hist.counts().iter().enumerate() {
                        cumulative += c;
                        let le = prom_f64(width * (i + 1) as f64);
                        sample(
                            &family,
                            "_bucket",
                            &[("le", &le)],
                            &cumulative.to_string(),
                            out,
                        );
                    }
                    sample(
                        &family,
                        "_bucket",
                        &[("le", "+Inf")],
                        &hist.total().to_string(),
                        out,
                    );
                    sample(&family, "_sum", &labels, &prom_f64(hist.sum()), out);
                    sample(&family, "_count", &labels, &hist.total().to_string(), out);
                });
            }
        }
    }
    let dropped = events_dropped();
    push("tcl_trace_events_dropped", "counter", &|out| {
        sample(
            "tcl_trace_events_dropped",
            "",
            &[],
            &dropped.to_string(),
            out,
        );
    });
    let mut out = String::new();
    for (family, (kind, lines)) in &families {
        out.push_str(&format!("# TYPE {family} {kind}\n"));
        out.push_str(lines);
    }
    out
}

/// Renders a metrics snapshot as one JSON object (the `/summary` body).
pub fn render_summary_json(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::from("{\"metrics\":[");
    for (i, snap) in snaps.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match snap {
            MetricSnapshot::Counter { name, value } => {
                out.push_str("{\"kind\":\"counter\",\"name\":\"");
                json::escape_into(name, &mut out);
                out.push_str("\",\"value\":");
                out.push_str(&value.to_string());
                out.push('}');
            }
            MetricSnapshot::Gauge {
                name,
                last,
                min,
                max,
            } => {
                out.push_str("{\"kind\":\"gauge\",\"name\":\"");
                json::escape_into(name, &mut out);
                out.push_str("\",\"last\":");
                json::number_into(*last, &mut out);
                out.push_str(",\"min\":");
                json::number_into(*min, &mut out);
                out.push_str(",\"max\":");
                json::number_into(*max, &mut out);
                out.push('}');
            }
            MetricSnapshot::Hist { name, hist } => {
                out.push_str("{\"kind\":\"hist\",\"name\":\"");
                json::escape_into(name, &mut out);
                out.push_str("\",\"total\":");
                out.push_str(&hist.total().to_string());
                out.push_str(",\"mean\":");
                json::number_into(hist.mean(), &mut out);
                out.push_str(",\"p50\":");
                json::number_into(hist.p50(), &mut out);
                out.push_str(",\"p99\":");
                json::number_into(hist.p99(), &mut out);
                out.push_str(",\"max\":");
                json::number_into(hist.max(), &mut out);
                out.push('}');
            }
        }
    }
    out.push_str("],\"trace_events_dropped\":");
    out.push_str(&events_dropped().to_string());
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcl_telemetry::FixedHistogram;

    fn gauge(name: &str, last: f64, min: f64, max: f64) -> MetricSnapshot {
        MetricSnapshot::Gauge {
            name: name.to_string(),
            last,
            min,
            max,
        }
    }

    #[test]
    fn prometheus_rendering_sanitizes_and_groups_families() {
        let mut h = FixedHistogram::new(1.0, 2);
        h.record(0.2);
        h.record(0.9);
        h.record(7.0); // clamps into the last bucket
        let snaps = vec![
            MetricSnapshot::Counter {
                name: "snn.spikes".to_string(),
                value: 42,
            },
            gauge("convert.lambda[0]", 2.0, 1.0, 3.0),
            gauge("convert.lambda[1]", 4.0, 4.0, 4.0),
            MetricSnapshot::Hist {
                name: "snn.firing_rate".to_string(),
                hist: h,
            },
        ];
        let text = render_prometheus(&snaps);
        assert!(text.contains("# TYPE tcl_snn_spikes counter\ntcl_snn_spikes 42\n"));
        // Indexed gauges fold into one family with index labels, grouped
        // under a single TYPE header.
        assert!(text.contains(
            "# TYPE tcl_convert_lambda gauge\ntcl_convert_lambda{index=\"0\"} 2\ntcl_convert_lambda{index=\"1\"} 4\n"
        ));
        assert!(text.contains("tcl_convert_lambda_min{index=\"0\"} 1\n"));
        assert!(text.contains("tcl_convert_lambda_max{index=\"1\"} 4\n"));
        // Histogram: cumulative buckets, +Inf, sum, count.
        assert!(text.contains("# TYPE tcl_snn_firing_rate histogram"));
        assert!(text.contains("tcl_snn_firing_rate_bucket{le=\"0.5\"} 1\n"));
        assert!(text.contains("tcl_snn_firing_rate_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("tcl_snn_firing_rate_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("tcl_snn_firing_rate_count 3\n"));
        assert!(text.contains("tcl_snn_firing_rate_sum 8.1"));
        // The cap counter is always present.
        assert!(text.contains("# TYPE tcl_trace_events_dropped counter"));
        // Every TYPE header appears exactly once.
        let type_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE")).collect();
        let mut unique = type_lines.clone();
        unique.dedup();
        assert_eq!(type_lines.len(), unique.len());
    }

    #[test]
    fn summary_json_is_parseable() {
        let snaps = vec![
            MetricSnapshot::Counter {
                name: "engine.samples".to_string(),
                value: 7,
            },
            gauge("engine.steps_per_sec", 123.5, 100.0, 130.0),
        ];
        let body = render_summary_json(&snaps);
        let value = json::parse_line(body.trim()).expect("valid json");
        let metrics = value
            .get("metrics")
            .and_then(|m| m.as_array())
            .expect("metrics array");
        assert_eq!(metrics.len(), 2);
        assert_eq!(
            metrics[1].get("name").and_then(|v| v.as_str()),
            Some("engine.steps_per_sec")
        );
        assert!(value.get("trace_events_dropped").is_some());
    }

    #[test]
    fn exporter_serves_and_shuts_down() {
        let exporter = serve("127.0.0.1:0").expect("bind loopback");
        let addr = exporter.addr();
        // Writes each chunk with its own write and reads the answer to EOF.
        let exchange = |chunks: &[&[u8]]| -> String {
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_nodelay(true).expect("nodelay");
            for chunk in chunks {
                conn.write_all(chunk).expect("write");
            }
            let mut body = String::new();
            conn.read_to_string(&mut body).expect("read");
            body
        };
        let fetch = |path: &str| -> String {
            exchange(&[format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes()])
        };
        let health = fetch("/healthz");
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.ends_with("ok\n"));
        let metrics = fetch("/metrics");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        assert!(metrics.contains("tcl_trace_events_dropped"));
        let missing = fetch("/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        // POST is rejected: 405 for a well-formed one, and 411 (the shared
        // parser's answer) when it carries no Content-Length.
        let post = exchange(&[b"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n"]);
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        let bare = exchange(&[b"POST /metrics HTTP/1.1\r\n\r\n"]);
        assert!(bare.starts_with("HTTP/1.1 411"), "{bare}");
        // The service's hardening holds here too: a head over MAX_HEAD, a
        // GET announcing a body, and a repeated Content-Length.
        let mut huge = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        huge.resize(http::MAX_HEAD + 1, b'a');
        let oversized = exchange(&[&huge]);
        assert!(oversized.starts_with("HTTP/1.1 431"), "{oversized}");
        let with_body = exchange(&[b"GET /metrics HTTP/1.1\r\nContent-Length: 5\r\n\r\n"]);
        assert!(with_body.starts_with("HTTP/1.1 400"), "{with_body}");
        let duplicate =
            exchange(&[b"GET /metrics HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n"]);
        assert!(duplicate.starts_with("HTTP/1.1 400"), "{duplicate}");
        // A request dripped one byte per write is still answered.
        let raw = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let dripped = exchange(&raw.chunks(1).collect::<Vec<_>>());
        assert!(dripped.starts_with("HTTP/1.1 200"), "{dripped}");
        assert!(dripped.contains("tcl_trace_events_dropped"));
        exporter.shutdown();
        // The port is released: rebinding the same address succeeds.
        let again = TcpListener::bind(addr);
        assert!(again.is_ok());
    }
}
