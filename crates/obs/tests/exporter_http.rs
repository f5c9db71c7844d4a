//! Live-exporter integration: run a real SNN engine evaluation with
//! metrics enabled, scrape the exporter over raw TCP, and check that the
//! engine heartbeat gauges come back as valid Prometheus text.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use tcl_snn::{
    Engine, ExitPolicy, IfNeurons, Readout, ResetMode, SimConfig, SpikingLayer, SpikingNetwork,
    SpikingNode, SynapticOp,
};
use tcl_telemetry::test_support::{reset_metrics, with_captured};
use tcl_tensor::SeededRng;

/// A small random two-layer spiking MLP: 12 inputs -> 16 hidden -> 4 out.
fn toy_snn(rng: &mut SeededRng) -> SpikingNetwork {
    let layer = |w: tcl_tensor::Tensor| {
        SpikingNode::Spiking(SpikingLayer::new(
            SynapticOp::linear(w, None).unwrap(),
            IfNeurons::new(1.0, ResetMode::Subtract),
        ))
    };
    SpikingNetwork::new(vec![
        layer(rng.uniform_tensor([16, 12], -0.4, 0.6)),
        layer(rng.uniform_tensor([4, 16], -0.4, 0.6)),
    ])
}

fn fetch(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect exporter");
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("well-formed response");
    (head.to_string(), body.to_string())
}

/// Minimal structural validation of Prometheus text exposition: every
/// non-comment line is `name[{labels}] value`, every family has exactly
/// one `# TYPE`, and every sample's family is declared before use.
fn assert_valid_prometheus(body: &str) {
    let mut declared: Vec<String> = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind in {line:?}"
            );
            assert!(
                !declared.contains(&family.to_string()),
                "family {family} declared twice"
            );
            declared.push(family.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (name_part, value) = line.rsplit_once(' ').expect("sample has value");
        let name = name_part.split('{').next().expect("sample name");
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "unsanitized name {name:?}"
        );
        assert!(name.starts_with("tcl_"), "missing prefix on {name:?}");
        assert!(
            declared.iter().any(|f| name == *f
                || name.strip_prefix(f.as_str()).is_some_and(|suffix| matches!(
                    suffix,
                    "_bucket" | "_sum" | "_count" | "_min" | "_max"
                ))),
            "sample {name} has no TYPE declaration"
        );
        assert!(
            value == "NaN" || value == "+Inf" || value == "-Inf" || value.parse::<f64>().is_ok(),
            "bad sample value {value:?}"
        );
    }
    assert!(!declared.is_empty(), "no metric families in scrape");
}

#[test]
fn live_engine_run_is_scrapable() {
    // Capture context enables metrics; the registry is process-global, so
    // the exporter sees what the engine writes.
    let ((), _lines) = with_captured(|| {
        reset_metrics();
        let mut rng = SeededRng::new(7);
        let net = toy_snn(&mut rng);
        let images = rng.uniform_tensor([24, 12], 0.0, 1.0);
        let labels: Vec<usize> = (0..24).map(|i| i % 4).collect();
        let sim = SimConfig::new(vec![8, 16], 8, Readout::SpikeCount).expect("valid config");
        let mut engine = Engine::with_threads(2);
        let exporter = tcl_obs::serve("127.0.0.1:0").expect("bind exporter");
        let addr = exporter.addr();

        engine
            .evaluate_shared(
                &Arc::new(net),
                &images,
                &labels,
                &sim,
                ExitPolicy::Adaptive {
                    patience: 2,
                    min_margin: 0.0,
                    min_steps: 2,
                },
            )
            .expect("engine evaluation");

        // /metrics: valid Prometheus carrying the engine heartbeats.
        let (head, body) = fetch(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert_valid_prometheus(&body);
        for gauge in [
            "tcl_engine_steps_per_sec",
            "tcl_engine_early_exit_rate",
            "tcl_engine_active_lanes",
        ] {
            assert!(
                body.contains(&format!("# TYPE {gauge} gauge")),
                "missing {gauge} in:\n{body}"
            );
        }
        assert!(body.contains("tcl_engine_samples 24"));
        assert!(body.contains("# TYPE tcl_snn_firing_rate histogram"));

        // The early-exit rate gauge is a real rate in [0, 1].
        let rate_line = body
            .lines()
            .find(|l| l.starts_with("tcl_engine_early_exit_rate "))
            .expect("rate sample");
        let rate: f64 = rate_line
            .rsplit_once(' ')
            .and_then(|(_, v)| v.parse().ok())
            .expect("numeric rate");
        assert!((0.0..=1.0).contains(&rate), "rate {rate}");

        // /healthz and /summary.
        let (head, body) = fetch(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        let (head, body) = fetch(addr, "/summary");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"));
        let value = tcl_telemetry::json::parse_line(body.trim()).expect("summary is valid JSON");
        let metrics = value
            .get("metrics")
            .and_then(|m| m.as_array())
            .expect("metrics array");
        assert!(metrics
            .iter()
            .any(|m| m.get("name").and_then(|n| n.as_str()) == Some("engine.steps_per_sec")));

        // Unknown path 404s without tearing the server down.
        let (head, _) = fetch(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));
        let (head, _) = fetch(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"));

        exporter.shutdown();
    });
}
