//! Golden continuous-batching trace: a committed capture of one serving
//! tick in which a confident request (B) retires, a queued request (C) is
//! admitted into B's freed lane, and the engine keeps stepping with the
//! long-running request (A) still in flight — lane reuse interleaving two
//! requests within one engine scheduling quantum.
//!
//! Two layers of protection:
//!
//! * **Structural** — the scenario is re-captured live on every run and the
//!   retire→admit→step interleaving is asserted on the span tree, so the
//!   serving loop cannot silently regress to drain-then-refill batching.
//! * **Golden** — the committed fixture's `tcl-obs` summary and critical
//!   path are pinned byte-for-byte, locking the span vocabulary
//!   (`serve.tick` / `serve.admit` / `serve.step` / `serve.retire`) the
//!   trace tooling and dashboards key on. Regenerate with
//!   `TCL_BLESS=1 cargo test -p tcl-serve --test golden_serve`.

mod common;

use std::path::PathBuf;

use common::{diagonal_net, drive, lane_factory, serve_cfg};
use tcl_obs::{critical, summary, SpanNode, SpanTree, Trace};
use tcl_serve::sim::{infer_request, SimNet};
use tcl_serve::{Server, VirtualClock};
use tcl_snn::Readout;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(name)
}

/// One tick of continuous batching: A (ambiguous, rides its budget) and B
/// (confident, exits early) admitted together, C queued behind them and
/// admitted mid-tick into B's freed lane. Returns the captured JSONL.
fn capture_scenario() -> Vec<String> {
    let ((), lines) = tcl_telemetry::test_support::with_captured(|| {
        let net = diagonal_net(4);
        let mut cfg = serve_cfg(4, 2);
        // One tick is enough engine budget to play the whole scenario out.
        cfg.steps_per_tick = 256;
        let clock = VirtualClock::new();
        let sim = SimNet::new(&clock);
        let a = sim.request_at(0, infer_request(&[0.5, 0.5, 0.1, 0.1], None));
        let b = sim.request_at(0, infer_request(&[0.1, 0.85, 0.1, 0.05], None));
        let c = sim.request_at(0, infer_request(&[0.05, 0.1, 0.8, 0.1], None));

        let factory = lane_factory(&net, &cfg, Readout::SpikeCount);
        let mut server =
            Server::new(cfg, clock.clone(), Box::new(sim.clone()), factory).expect("server builds");
        drive(&mut server, &clock, &sim, 100, 50);
        for (name, client) in [("A", &a), ("B", &b), ("C", &c)] {
            assert_eq!(client.status(), Some(200), "request {name}");
        }
    });
    lines
}

fn attr(node: &SpanNode, key: &str) -> Option<f64> {
    node.span
        .attrs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
}

/// Asserts the continuous-batching interleaving on a span tree: within one
/// `serve.tick`, request 1 retires, request 2 is admitted, and the engine
/// steps again at full occupancy — all before the tick ends.
fn assert_interleaving(tree: &SpanTree) {
    let tick = tree
        .nodes
        .iter()
        .find(|n| {
            n.span.name == "serve.tick"
                && n.children
                    .iter()
                    .any(|&c| tree.nodes[c].span.name == "serve.retire")
        })
        .expect("a tick with retirements");
    // Children are ordered by start time: find retire(req=1), then an
    // admit(req=2) after it, then a step at active=2 after that.
    let children: Vec<&SpanNode> = tick.children.iter().map(|&c| &tree.nodes[c]).collect();
    let retire_b = children
        .iter()
        .position(|n| n.span.name == "serve.retire" && attr(n, "req") == Some(1.0))
        .expect("request 1 (confident) retires inside the tick");
    let admit_c = children
        .iter()
        .skip(retire_b + 1)
        .position(|n| n.span.name == "serve.admit" && attr(n, "req") == Some(2.0))
        .map(|p| retire_b + 1 + p)
        .expect("request 2 admitted after request 1 retired, same tick");
    let resumed = children
        .iter()
        .skip(admit_c + 1)
        .any(|n| n.span.name == "serve.step" && attr(n, "active") == Some(2.0));
    assert!(
        resumed,
        "engine must keep stepping at full occupancy after the mid-tick admit"
    );
    // And the long request (0) is still in flight at that point: its
    // retirement comes after the admit of request 2.
    let retire_a = children
        .iter()
        .position(|n| n.span.name == "serve.retire" && attr(n, "req") == Some(0.0))
        .expect("request 0 retires inside the same tick");
    assert!(
        retire_a > admit_c,
        "request 0 (budget rider) must still be running when request 2 joins"
    );
}

/// The live capture proves lane reuse interleaves two requests within one
/// engine scheduling quantum — on every run, not just in the fixture.
#[test]
fn live_trace_shows_lane_reuse_interleaving() {
    let lines = capture_scenario();
    let trace = Trace::parse(&lines.join("\n")).expect("captured trace parses");
    let tree = SpanTree::build(&trace);
    assert_interleaving(&tree);
}

/// The committed fixture renders to byte-identical summary and critical
/// path, pinning the serving span vocabulary for the trace tooling.
#[test]
fn golden_serve_fixture_renders_stably() {
    if std::env::var("TCL_BLESS").is_ok() {
        let lines = capture_scenario();
        let mut text = lines.join("\n");
        text.push('\n');
        std::fs::write(fixture("fixtures/serve_trace.jsonl"), &text).expect("write fixture");
        let trace = Trace::parse(&text).expect("fresh fixture parses");
        let tree = SpanTree::build(&trace);
        let stats = summary::summarize(&tree);
        std::fs::write(
            fixture("golden/serve_trace.summary"),
            summary::render_table(&stats),
        )
        .expect("write summary golden");
        std::fs::write(
            fixture("golden/serve_trace.critical"),
            critical::render(&critical::critical_path(&tree)),
        )
        .expect("write critical golden");
    }

    let trace = Trace::load(&fixture("fixtures/serve_trace.jsonl")).expect("fixture parses");
    let tree = SpanTree::build(&trace);
    // The fixture itself is a real interleaving capture.
    assert_interleaving(&tree);

    let stats = summary::summarize(&tree);
    let expected_summary =
        std::fs::read_to_string(fixture("golden/serve_trace.summary")).expect("summary golden");
    assert_eq!(summary::render_table(&stats), expected_summary);

    let expected_critical =
        std::fs::read_to_string(fixture("golden/serve_trace.critical")).expect("critical golden");
    assert_eq!(
        critical::render(&critical::critical_path(&tree)),
        expected_critical
    );

    // The span vocabulary the dashboards key on is present.
    for name in ["serve.tick", "serve.admit", "serve.step", "serve.retire"] {
        assert!(
            stats.iter().any(|s| s.name == name),
            "span {name} missing from the fixture summary"
        );
    }
}
