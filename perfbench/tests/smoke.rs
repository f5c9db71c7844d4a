//! A short run of every workload, untraced and traced: each must pass its
//! own correctness checks and print the metrics `BENCHMARK.json` declares.

use std::process::Command;

use tcl_perfbench::{per_layer, END_TO_END, WORKLOADS};
use tcl_telemetry::json::parse_line;

fn run(workload: &str, trace: bool) -> tcl_telemetry::json::JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse_line(last).expect("result line is JSON")
}

fn metric_names(result: &tcl_telemetry::json::JsonValue) -> Vec<String> {
    let tcl_telemetry::json::JsonValue::Object(members) =
        result.get("metrics").expect("metrics object")
    else {
        panic!("metrics is not an object");
    };
    let mut names: Vec<String> = members.iter().map(|(k, _)| k.clone()).collect();
    names.sort();
    names
}

#[test]
fn every_workload_passes_and_prints_its_metrics() {
    let mut e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    e2e.sort();
    let mut layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    layer.sort();
    for workload in WORKLOADS {
        let r = run(workload, false);
        assert_eq!(
            r.get("correct"),
            Some(&tcl_telemetry::json::JsonValue::Bool(true))
        );
        assert_eq!(r.get("failed").and_then(|v| v.as_u64()), Some(0));
        assert!(r.get("attempted").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
        assert_eq!(metric_names(&r), e2e, "{workload}");
        let traced = run(workload, true);
        assert_eq!(metric_names(&traced), layer, "{workload} traced");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
