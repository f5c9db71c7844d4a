//! Per-rule unit tests: each rule fires on a minimal positive case, stays
//! quiet on the equivalent clean code, and is silenced by a reasoned
//! `// lint: allow(RULE) …` pragma.

use tcl_lint::{check_crate_root, check_file, explain, Finding};

/// Lints `text` as `crates/<krate>/src/demo.rs`.
fn lint(krate: &str, text: &str) -> Vec<Finding> {
    check_file(&format!("crates/{krate}/src/demo.rs"), text, krate)
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- D-series

#[test]
fn d1_flags_wall_clock_in_deterministic_crates() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    assert_eq!(rules(&lint("tensor", src)), ["D1"]);
    let src = "fn f() { let t = SystemTime::now(); }";
    assert_eq!(rules(&lint("core", src)), ["D1"]);
    // telemetry owns timing: out of D scope.
    assert!(lint("telemetry", src).is_empty());
}

#[test]
fn d1_covers_the_serving_crate_and_blocking_sleeps() {
    // The serving library must take time through an injected Clock; both a
    // wall-clock read and a pacing sleep are determinism leaks there.
    let src = "fn f() { let t = std::time::Instant::now(); }";
    assert_eq!(rules(&lint("serve", src)), ["D1"]);
    let src = "fn f() { std::thread::sleep(Duration::from_millis(1)); }";
    assert_eq!(rules(&lint("serve", src)), ["D1"]);
    let src = "fn f() { thread::sleep(Duration::from_millis(1)); }";
    assert_eq!(rules(&lint("snn", src)), ["D1"]);
    // `sleep` without the `thread::` path (e.g. a method named sleep) and
    // unrelated `thread` idents stay clean.
    assert!(lint("serve", "fn f(s: &Sim) { s.sleep(3); }").is_empty());
    assert!(lint("serve", "fn f() { let thread = 1; }").is_empty());
    // The obs exporter legitimately sleeps between scrapes: out of scope.
    let src = "fn f() { std::thread::sleep(Duration::from_millis(1)); }";
    assert!(lint("obs", src).is_empty());
}

#[test]
fn d1_pragma_with_reason_suppresses() {
    let src =
        "fn f() {\n    // lint: allow(D1) feeds only a gated gauge\n    let t = Instant::now();\n}";
    assert!(lint("tensor", src).is_empty());
    // Reason is mandatory.
    let src = "fn f() {\n    // lint: allow(D1)\n    let t = Instant::now();\n}";
    assert_eq!(rules(&lint("tensor", src)), ["D1"]);
}

#[test]
fn d2_flags_ambient_rng() {
    assert_eq!(
        rules(&lint("nn", "fn f() { let mut r = thread_rng(); }")),
        ["D2"]
    );
    assert_eq!(
        rules(&lint("snn", "fn f() { let x: f32 = rand::random(); }")),
        ["D2"]
    );
    assert_eq!(
        rules(&lint(
            "data",
            "fn f() { let r = SmallRng::from_entropy(); }"
        )),
        ["D2"]
    );
    // SeededRng is the sanctioned path.
    assert!(lint("nn", "fn f() { let mut r = SeededRng::new(7); }").is_empty());
}

#[test]
fn d3_flags_hash_order_containers() {
    let src =
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
    let found = lint("models", src);
    assert!(
        found.iter().all(|f| f.rule == "D3") && found.len() == 3,
        "{found:?}"
    );
    assert!(lint("models", "use std::collections::BTreeMap;").is_empty());
}

#[test]
fn d_series_ignores_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); let m = HashSet::new(); }\n}";
    assert!(lint("tensor", src).is_empty());
}

// ---------------------------------------------------------------- P-series

#[test]
fn p1_flags_unwrap_and_expect_calls() {
    assert_eq!(
        rules(&lint("core", "fn f(x: Option<u32>) -> u32 { x.unwrap() }")),
        ["P1"]
    );
    assert_eq!(
        rules(&lint(
            "core",
            "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }"
        )),
        ["P1"]
    );
    // Not a method call: different identifiers, or idents in strings.
    assert!(lint("core", "fn f(t: &Tensor) { t.expect_same_shape(u).ok(); }").is_empty());
    assert!(lint("core", "fn f() -> &'static str { \".unwrap()\" }").is_empty());
    // unwrap_or and friends are fine.
    assert!(lint("core", "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }").is_empty());
}

#[test]
fn p1_exempts_tests_and_bench() {
    let src = "#[test]\nfn t() { Some(1).unwrap(); }";
    assert!(lint("core", src).is_empty());
    let src = "#[cfg(test)]\nmod tests {\n    fn helper() { Some(1).unwrap(); }\n}";
    assert!(lint("core", src).is_empty());
    // The bench crate's binaries may unwrap CLI args.
    assert!(lint("bench", "fn main() { args().next().unwrap(); }").is_empty());
}

#[test]
fn p1_pragma_names_the_invariant() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(P1) set on the line above\n    x.unwrap()\n}";
    assert!(lint("core", src).is_empty());
}

#[test]
fn p2_flags_panic_macros() {
    assert_eq!(rules(&lint("nn", "fn f() { panic!(\"boom\"); }")), ["P2"]);
    assert_eq!(rules(&lint("nn", "fn f() { todo!() }")), ["P2"]);
    assert_eq!(rules(&lint("nn", "fn f() { unimplemented!() }")), ["P2"]);
    // assert! carries documented contracts and is allowed.
    assert!(lint(
        "nn",
        "fn f(x: u32) { assert!(x > 0, \"x must be positive\"); }"
    )
    .is_empty());
    // Mentioning panic! in comments or strings is not a use.
    assert!(lint(
        "nn",
        "// panic! lives here\nfn f() -> &'static str { \"panic!\" }"
    )
    .is_empty());
}

// ---------------------------------------------------------------- C-series

#[test]
fn c1_requires_ordering_justification() {
    let src = "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }";
    assert_eq!(rules(&lint("snn", src)), ["C1"]);
    // Same-line justification.
    let src = "fn f(a: &AtomicUsize) { a.load(Ordering::Acquire); // ordering: pairs with the Release store in g\n}";
    assert!(lint("snn", src).is_empty());
    // Preceding-line justification.
    let src = "fn f(a: &AtomicUsize) {\n    // ordering: counter, only the total matters\n    a.fetch_add(1, Ordering::Relaxed);\n}";
    assert!(lint("snn", src).is_empty());
}

#[test]
fn c1_applies_inside_test_code_too() {
    let src =
        "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.store(1, Ordering::SeqCst); }\n}";
    assert_eq!(rules(&lint("tensor", src)), ["C1"]);
}

#[test]
fn c1_ignores_cmp_ordering() {
    let src = "fn f(a: u32, b: u32) -> Ordering { a.cmp(&b).then(Ordering::Equal) }";
    assert!(lint("core", src).is_empty());
}

#[test]
fn c2_forbids_static_mut() {
    assert_eq!(
        rules(&lint("telemetry", "static mut COUNTER: u64 = 0;")),
        ["C2"]
    );
    assert!(lint(
        "telemetry",
        "static COUNTER: AtomicU64 = AtomicU64::new(0);"
    )
    .is_empty());
}

#[test]
fn c3_requires_forbid_unsafe_in_crate_root() {
    assert!(check_crate_root(
        "crates/x/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}"
    )
    .is_none());
    let found = check_crate_root("crates/x/src/lib.rs", "pub fn f() {}");
    assert_eq!(found.map(|f| f.rule), Some("C3"));
    // Mentions in comments don't count: the attribute must be real code.
    let found = check_crate_root(
        "crates/x/src/lib.rs",
        "// #![forbid(unsafe_code)]\npub fn f() {}",
    );
    assert_eq!(found.map(|f| f.rule), Some("C3"));
}

#[test]
fn c3_simd_crate_root_requires_deny_unsafe_op_in_unsafe_fn() {
    // The unsafe island cannot forbid unsafe_code; it must deny
    // unsafe_op_in_unsafe_fn instead.
    assert!(check_crate_root(
        "crates/simd/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}"
    )
    .is_none());
    // forbid(unsafe_code) alone does not satisfy the simd-root requirement
    // (the crate could not compile with it anyway).
    let found = check_crate_root(
        "crates/simd/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}",
    );
    assert_eq!(found.as_ref().map(|f| f.rule), Some("C3"));
    assert!(
        found.is_some_and(|f| f.message.contains("unsafe_op_in_unsafe_fn")),
        "message should name the required attribute"
    );
    // Other crates do not get the simd exemption.
    let found = check_crate_root(
        "crates/tensor/src/lib.rs",
        "#![deny(unsafe_op_in_unsafe_fn)]\npub fn f() {}",
    );
    assert_eq!(found.map(|f| f.rule), Some("C3"));
}

// ---------------------------------------------------------------- S-series

#[test]
fn s1_flags_intrinsics_outside_simd() {
    // One import line trips both the arch-path and the _mm-ident probes.
    let src = "use core::arch::x86_64::_mm256_add_ps;";
    assert_eq!(rules(&lint("tensor", src)), ["S1", "S1"]);
    let src = "use std::arch::x86_64::_mm256_setzero_ps;";
    assert_eq!(rules(&lint("snn", src)), ["S1", "S1"]);
    // Unrelated `arch` identifiers (e.g. a model architecture) stay quiet.
    assert!(lint("models", "fn f(arch: Architecture) { arch.build(); }").is_empty());
    assert!(lint("models", "use crate::arch::Cnn6;").is_empty());
}

#[test]
fn s1_flags_unsafe_and_feature_detection_outside_simd() {
    let src = "fn f(p: *const f32) -> f32 { unsafe { *p } }";
    assert_eq!(rules(&lint("tensor", src)), ["S1"]);
    let src = "fn f() -> bool { is_x86_feature_detected!(\"avx2\") }";
    assert_eq!(rules(&lint("core", src)), ["S1"]);
    // Mentions in strings and comments are not uses.
    let src = "// unsafe is confined to crates/simd\nfn f() -> &'static str { \"unsafe\" }";
    assert!(lint("tensor", src).is_empty());
}

#[test]
fn s1_applies_inside_test_code_too() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(p: *const f32) -> f32 { unsafe { *p } }\n}";
    assert_eq!(rules(&lint("tensor", src)), ["S1"]);
}

#[test]
fn s1_exempts_the_simd_crate_itself() {
    let src = "use core::arch::x86_64::_mm256_add_ps;\n\
               fn f() -> bool { is_x86_feature_detected!(\"avx2\") }\n\
               fn g(p: *const f32) -> f32 { unsafe { *p } }";
    assert!(lint("simd", src).is_empty());
}

#[test]
fn s1_pragma_with_reason_suppresses() {
    let src = "fn f(p: *const f32) -> f32 {\n    // lint: allow(S1) demo of the escape hatch\n    unsafe { *p }\n}";
    assert!(lint("tensor", src).is_empty());
}

// ---------------------------------------------------------------- G-series

/// Lints `text` as the par.rs hot file.
fn lint_hot(text: &str) -> Vec<Finding> {
    check_file("crates/tensor/src/par.rs", text, "tensor")
}

#[test]
fn g1_requires_gated_emission_on_hot_paths() {
    let src = "fn worker() { telemetry::counter_add(\"par.items\", 1); }";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
    let src = "fn worker() { if telemetry::metrics_enabled() { telemetry::counter_add(\"par.items\", 1); } }";
    assert!(lint_hot(src).is_empty());
    // A negated check does not dominate the emission.
    let src = "fn worker() { if !telemetry::metrics_enabled() { telemetry::hist_record(\"x\", 1.0, 1.0, 2); } }";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
}

#[test]
fn g1_exempts_self_gating_spans_and_cold_files() {
    // span_with defers attrs to a closure and gates internally.
    let src = "fn worker() { let _s = telemetry::span_with(\"par.worker\", || vec![]); }";
    assert!(lint_hot(src).is_empty());
    // Same emission in a non-hot file is not G1's business.
    let src = "fn report() { telemetry::counter_add(\"convert.sites\", 1); }";
    assert!(lint("core", src).is_empty());
}

#[test]
fn g1_dominator_rejects_disjunctive_and_negated_gates() {
    // `||` means the then-branch can run with telemetry disabled — the
    // flat v1 matcher accepted any gate call on the if-line (the
    // false-negative class this PR closes).
    let src = "fn worker(x: bool) { if x || !telemetry::metrics_enabled() { telemetry::counter_add(\"n\", 1); } }";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
    let src = "fn worker(x: bool) { if x || telemetry::metrics_enabled() { telemetry::counter_add(\"n\", 1); } }";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
    // Conjunction still guarantees the gate held.
    let src = "fn worker(x: bool) { if x && telemetry::metrics_enabled() { telemetry::counter_add(\"n\", 1); } }";
    assert!(lint_hot(src).is_empty());
}

#[test]
fn g1_dominator_accepts_early_return_guards() {
    // The early-return idiom dominates everything after it.
    let src = "fn worker() {\n    if !telemetry::metrics_enabled() {\n        return;\n    }\n    telemetry::counter_add(\"n\", 1);\n}";
    assert!(lint_hot(src).is_empty());
    // `continue` and `break` terminate loop bodies the same way.
    let src = "fn worker(xs: &[u32]) {\n    for _x in xs {\n        if !telemetry::trace_enabled() {\n            continue;\n        }\n        telemetry::counter_add(\"n\", 1);\n    }\n}";
    assert!(lint_hot(src).is_empty());
    // A guard that does not diverge guards nothing.
    let src = "fn worker() {\n    if !telemetry::metrics_enabled() {\n        let _x = 1;\n    }\n    telemetry::counter_add(\"n\", 1);\n}";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
    // A guard weakened by `&&` can fall through with telemetry off.
    let src = "fn worker(x: bool) {\n    if !telemetry::metrics_enabled() && x {\n        return;\n    }\n    telemetry::counter_add(\"n\", 1);\n}";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
}

#[test]
fn g1_does_not_follow_a_gate_held_in_a_local() {
    // The gate must be visible at the emit site: a bool computed earlier
    // is just an identifier to the dominator check, whatever it holds.
    let src = "fn apply() {\n    let metrics = telemetry::metrics_enabled();\n    if metrics {\n        telemetry::counter_add(\"n\", 1);\n    }\n}";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
    let src = "fn apply() {\n    if telemetry::metrics_enabled() {\n        telemetry::counter_add(\"n\", 1);\n    }\n}";
    assert!(lint_hot(src).is_empty());
}

#[test]
fn g1_dominator_tracks_block_structure_not_lines() {
    // A sibling gate that already closed does not dominate what follows —
    // the v1 line matcher could be fooled by this shape.
    let src = "fn worker() {\n    if telemetry::metrics_enabled() {\n        let _x = 1;\n    }\n    telemetry::counter_add(\"n\", 1);\n}";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
    // An outer gate dominates arbitrarily nested emission.
    let src = "fn worker(xs: &[u32]) {\n    if telemetry::metrics_enabled() {\n        for _x in xs {\n            if true {\n                telemetry::counter_add(\"n\", 1);\n            }\n        }\n    }\n}";
    assert!(lint_hot(src).is_empty());
    // The else-branch runs exactly when the gate is false.
    let src = "fn worker() {\n    if telemetry::metrics_enabled() {\n        let _x = 1;\n    } else {\n        telemetry::counter_add(\"n\", 1);\n    }\n}";
    assert_eq!(rules(&lint_hot(src)), ["G1"]);
}

// ---------------------------------------------------------------- A-series

#[test]
fn a1_flags_use_of_crates_outside_the_dag() {
    // tensor sits near the bottom of the layering DAG: reaching up to
    // tcl-core is a layering violation even if someone edits Cargo.toml.
    let src = "use tcl_core::Pipeline;";
    assert_eq!(rules(&lint("tensor", src)), ["A1"]);
    // Allowed edge (tensor -> simd) and self-imports stay quiet.
    assert!(lint("tensor", "use tcl_simd::gebp_4x16;").is_empty());
    assert!(lint("tensor", "use tcl_tensor::Tensor;").is_empty());
    // Non-workspace heads are cargo's problem, not A1's.
    assert!(lint("tensor", "use std::fmt;\nuse serde::ser::Map;").is_empty());
}

#[test]
fn a1_allows_dev_reach_down_only_in_test_code() {
    // obs may see snn from tests (dev-dependency) but not from library code.
    let src = "#[cfg(test)]\nmod tests {\n    use tcl_snn::SpikingNetwork;\n}";
    assert!(lint("obs", src).is_empty());
    let src = "use tcl_snn::SpikingNetwork;";
    assert_eq!(rules(&lint("obs", src)), ["A1"]);
}

#[test]
fn a3_confines_ambient_capabilities_to_bin_edges() {
    // Network types, thread spawning, and subprocesses in library code.
    let src = "fn f(a: &str) { let l = TcpListener::bind(a); }";
    assert_eq!(rules(&lint("serve", src)), ["A3"]);
    let src = "fn f() { std::thread::spawn(|| {}); }";
    assert_eq!(rules(&lint("core", src)), ["A3"]);
    let src = "fn f() { let c = std::process::Command::new(\"ls\"); }";
    assert_eq!(rules(&lint("data", src)), ["A3"]);
    // The same code at a main()-edge file is the program's business.
    let src = "fn main() { let l = TcpListener::bind(\"0:0\"); std::thread::spawn(|| {}); }";
    assert!(check_file("crates/serve/src/bin/tcl_serve.rs", src, "serve").is_empty());
    assert!(check_file("crates/lint/src/main.rs", src, "lint").is_empty());
}

#[test]
fn a3_exempts_granted_islands_scoped_spawns_and_tests() {
    // Granted capability islands (DESIGN.md §11).
    let src = "fn serve_loop(a: &str) { let l = TcpListener::bind(a); }";
    assert!(check_file("crates/obs/src/export.rs", src, "obs").is_empty());
    let src = "fn pool() { std::thread::Builder::new().spawn(|| {}); }";
    assert!(check_file("crates/snn/src/engine.rs", src, "snn").is_empty());
    // Scoped fan-out joins deterministically: `scope.spawn` is sanctioned.
    let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }";
    assert!(lint("tensor", src).is_empty());
    // Tests may bind loopback sockets freely.
    let src =
        "#[cfg(test)]\nmod tests {\n    fn t() { let l = TcpListener::bind(\"127.0.0.1:0\"); }\n}";
    assert!(lint("serve", src).is_empty());
}

// ---------------------------------------------------------------- F-series

#[test]
fn f1_flags_partial_cmp_everywhere_including_bench() {
    let src = "fn f(a: f32, b: f32) -> Ordering { a.partial_cmp(&b).unwrap() }";
    let found = lint("bench", src);
    assert_eq!(rules(&found), ["F1"], "bench is F1 scope (P-exempt only)");
    let src = "fn f(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
    assert!(rules(&lint("tensor", src)).contains(&"F1"));
    // total_cmp is the sanctioned comparator.
    let src = "fn f(v: &mut [f32]) { v.sort_by(|a, b| a.total_cmp(b)); }";
    assert!(lint("tensor", src).is_empty());
    // Test code is exempt.
    let src = "#[test]\nfn t() { assert!(1.0f32.partial_cmp(&2.0).is_some()); }";
    assert!(lint("tensor", src).is_empty());
}

#[test]
fn f2_confines_transcendentals_to_the_vecmath_module() {
    let src = "fn f(x: f32) -> f32 { x.exp() }";
    assert_eq!(rules(&lint("nn", src)), ["F2"]);
    let src = "fn f(x: f32) -> f32 { f32::tanh(x) }";
    assert_eq!(rules(&lint("snn", src)), ["F2"]);
    // IEEE-exact operations are fine anywhere.
    assert!(lint(
        "nn",
        "fn f(x: f32) -> f32 { x.sqrt() + x.mul_add(2.0, 1.0) }"
    )
    .is_empty());
    // The sanctioned vec-math module and bench are exempt.
    let src = "pub fn vexp(x: f32) -> f32 { x.exp() }";
    assert!(check_file("crates/simd/src/vecmath.rs", src, "simd").is_empty());
    assert!(lint("bench", "fn f(x: f64) -> f64 { x.exp() }").is_empty());
    // telemetry::log is a logging call, not a logarithm.
    assert!(lint("snn", "fn f() { telemetry::log(\"x\", \"y\"); }").is_empty());
    // A reasoned pragma keeps a frozen-reference site.
    let src = "fn f(x: f32) -> f32 {\n    // lint: allow(F2) goldens pin this site\n    x.exp()\n}";
    assert!(lint("nn", src).is_empty());
}

#[test]
fn f3_flags_unexplained_narrowing_casts_in_kernel_code() {
    let src = "fn f(x: usize) -> f32 { x as f32 }";
    assert_eq!(rules(&lint("simd", src)), ["F3"]);
    let src = "fn f(x: u64) -> u32 { x as u32 }";
    assert_eq!(rules(&lint("simd", src)), ["F3"]);
    // Widening and usize casts are not narrowing.
    assert!(lint("simd", "fn f(x: u8) -> usize { x as usize }").is_empty());
    // Kernel-only: other crates cast with ordinary judgement.
    assert!(lint("tensor", "fn f(x: usize) -> f32 { x as f32 }").is_empty());
    // Test code and reasoned pragmas are exempt.
    let src = "#[cfg(test)]\nmod tests {\n    fn t(x: usize) -> f32 { x as f32 }\n}";
    assert!(lint("simd", src).is_empty());
    let src = "fn f(x: usize) -> f32 {\n    // lint: allow(F3) lane count <= 64 fits exactly\n    x as f32\n}";
    assert!(lint("simd", src).is_empty());
}

// ---------------------------------------------------------------- U-series

#[test]
fn u1_flags_dead_suppressions() {
    // The code under this pragma panics no more; the allow is dead weight.
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(P1) was an unwrap once\n    x.unwrap_or(0)\n}";
    assert_eq!(rules(&lint("core", src)), ["U1"]);
    // A live pragma is not flagged.
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(P1) protected by the Some above\n    x.unwrap()\n}";
    assert!(lint("core", src).is_empty());
    // Unknown rule ids are not audited (doc placeholders, future rules).
    let src = "fn f() {}\n// lint: allow(RULE) placeholder in prose\n";
    assert!(lint("core", src).is_empty());
}

#[test]
fn u1_is_not_suppressible() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(U1) trying to silence the auditor\n    // lint: allow(P1) was an unwrap once\n    x.unwrap_or(0)\n}";
    let found = lint("core", src);
    // The dead P1 pragma is still reported, and the U1 pragma itself is
    // dead too (U1 never consults pragmas).
    assert_eq!(rules(&found), ["U1", "U1"]);
}

// ------------------------------------------------------------ infrastructure

#[test]
fn findings_carry_position_and_render_stably() {
    let src = "fn f() {\n    let t = Instant::now();\n}";
    let found = lint("tensor", src);
    assert_eq!(found.len(), 1);
    assert_eq!((found[0].line, found[0].col), (2, 13));
    assert_eq!(found[0].path, "crates/tensor/src/demo.rs");
    assert!(found[0]
        .render()
        .starts_with("crates/tensor/src/demo.rs:2:13 [D1] "));
}

#[test]
fn one_pragma_can_allow_multiple_rules() {
    let src = "fn f() {\n    // lint: allow(D1, P1) demo of a shared justification\n    let t = Instant::now().elapsed().as_secs().checked_sub(1).unwrap();\n}";
    assert!(lint("tensor", src).is_empty());
}

#[test]
fn pragma_for_a_different_rule_does_not_leak() {
    // The P1 pragma neither suppresses the D1 finding nor counts as used —
    // the suppression auditor flags it as dead in the same pass.
    let src =
        "fn f() {\n    // lint: allow(P1) wrong series entirely\n    let t = Instant::now();\n}";
    let found = lint("tensor", src);
    assert_eq!(rules(&found), ["U1", "D1"]);
}

#[test]
fn raw_strings_and_nested_comments_do_not_confuse_the_matcher() {
    let src = r##"fn f() -> String {
    /* outer /* nested panic!() */ still comment */
    let s = r#"Instant::now() and .unwrap() and Ordering::Relaxed"#;
    s.to_string()
}"##;
    assert!(lint("tensor", src).is_empty());
}

#[test]
fn every_rule_id_has_an_explanation() {
    for rule in [
        "A1", "A2", "A3", "D1", "D2", "D3", "F1", "F2", "F3", "P1", "P2", "C1", "C2", "C3", "G1",
        "S1", "U1",
    ] {
        let text = explain(rule).unwrap_or_else(|| panic!("missing --explain {rule}"));
        assert!(text.len() > 40, "{rule} explanation too thin");
    }
}
