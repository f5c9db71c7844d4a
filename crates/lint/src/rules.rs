//! The rule engine: repo-specific invariants expressed over the token
//! stream produced by [`crate::lexer`] and the block/item structure from
//! [`crate::tree`].
//!
//! Eight rule series (see `--explain` or `DESIGN.md` §11):
//!
//! * **A — architecture/layering.** The 12-crate workspace follows an
//!   explicit allowed-edges DAG ([`crate::workspace`]): manifest edges
//!   outside it (A1), dependency cycles (A2), and ambient capabilities —
//!   `std::net` types, `thread::spawn`/`Builder`, `process::Command` —
//!   outside `main()`-edge files or granted capability islands (A3).
//! * **D — determinism.** Wall-clock reads, ambient RNG, and hash-order
//!   containers are banned from the numeric crates; a single stray source
//!   of nondeterminism silently invalidates every golden snapshot and the
//!   bitwise parallel==serial contract.
//! * **F — float determinism.** Raw float comparators (`partial_cmp`
//!   instead of `total_cmp`, F1), libm-backed transcendentals whose last
//!   bit varies across libm versions (F2), and unexplained `as` narrowing
//!   in kernel code (F3) are exactly the operations that break bit-exact
//!   replay across toolchains.
//! * **P — panic policy.** Library non-test code must not `unwrap`/
//!   `expect`/`panic!`/`todo!`/`unimplemented!`; recoverable failures flow
//!   through `Error` returns, and genuinely unreachable states carry a
//!   pragma explaining the invariant that protects them.
//! * **C — concurrency audit.** Every atomic `Ordering::…` use carries an
//!   adjacent `// ordering:` justification; `static mut` is forbidden; each
//!   crate root declares `#![forbid(unsafe_code)]`.
//! * **G — telemetry gating.** Eager metric emission inside the hot-path
//!   files must be *dominated* by a `metrics_enabled()`/`trace_enabled()`
//!   fast-path check — an enclosing non-negated `if`, or an earlier
//!   early-return guard — so disabled telemetry stays at one relaxed
//!   atomic load. Checked on the block tree, not by line adjacency.
//! * **S — SIMD confinement.** CPU intrinsics (`core::arch`/`std::arch`,
//!   `_mm*`, `is_x86_feature_detected!`) and the `unsafe` keyword live only
//!   in `crates/simd` — the one sanctioned unsafe island. Its crate root
//!   must carry `#![deny(unsafe_op_in_unsafe_fn)]`; every other crate root
//!   keeps `#![forbid(unsafe_code)]`.
//! * **U — suppression audit.** A `// lint: allow(RULE) reason` pragma that
//!   no longer suppresses anything is itself a finding (U1): dead pragmas
//!   silently widen the allowed surface when code moves underneath them.
//!
//! Suppression is per-site: `// lint: allow(RULE) reason` on the same line
//! or the directly preceding comment lines, with a mandatory reason. U1 is
//! not suppressible.

use crate::lexer::{lex, Tok, TokKind};
use crate::tree::{self, BlockKind, Tree};
use crate::workspace;

/// One diagnostic: where, which rule, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    /// The human-readable `file:line:col [RULE] message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Crates whose non-test, non-`main()`-edge code must not read wall clocks
/// (D1). Timing belongs to `telemetry`/`obs`/`bench`; the serving library
/// takes time through an injected Clock.
const D1_SCOPE: &[&str] = &[
    "tensor", "nn", "snn", "core", "data", "models", "serve", "simd", "lint",
];

/// Crates exempt from the ambient-RNG and hash-order rules (D2/D3):
/// `bench` harnesses may shuffle however they like — their output is
/// human-read tables, not golden snapshots.
const D23_EXEMPT: &[&str] = &["bench"];

/// Crates exempt from the panic policy (P-series): `bench` binaries may
/// unwrap CLI arguments and I/O at top level.
const P_EXEMPT: &[&str] = &["bench"];

/// Crates exempt from the transcendental confinement (F2): bench
/// harnesses compute display statistics, not replayed numerics.
const F2_EXEMPT: &[&str] = &["bench"];

/// Files where libm-backed transcendentals are sanctioned: the (future)
/// tcl-simd vector-math module that will own polynomial replacements.
const F2_SANCTIONED: &[&str] = &["crates/simd/src/vecmath.rs"];

/// Hot-path files where eager telemetry emission must be gated (G-series).
const HOT_FILES: &[&str] = &[
    "crates/tensor/src/par.rs",
    "crates/tensor/src/ops/conv.rs",
    "crates/snn/src/neuron.rs",
    "crates/snn/src/engine.rs",
    "crates/snn/src/synop.rs",
    "crates/snn/src/node.rs",
    "crates/snn/src/network.rs",
    "crates/snn/src/lanes.rs",
];

/// Capability islands exempt from A3: files that legitimately own sockets
/// or spawn threads, each backed by a stated invariant.
const A3_GRANTS: &[(&str, &str)] = &[
    (
        "crates/obs/src/export.rs",
        "the metrics exporter owns the workspace's one listener socket and serving thread",
    ),
    (
        "crates/snn/src/engine.rs",
        "the engine worker pool spawns named threads that are deterministically joined \
         before results are read",
    ),
];

/// Telemetry functions that emit eagerly (pay allocation/formatting cost
/// even when sinks are off unless the caller gates them). `span`/`span_with`
/// are exempt: they gate internally and defer attribute construction to a
/// closure that never runs when tracing is off.
const EAGER_EMITTERS: &[&str] = &[
    "counter_add",
    "gauge_set",
    "gauge_set_indexed",
    "hist_record",
    "log",
];

/// Telemetry fast-path checks a G1 gate may test.
const GATE_CHECKS: &[&str] = &["metrics_enabled", "trace_enabled"];

/// Atomic memory-ordering variants audited by C1.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "SeqCst", "AcqRel"];

/// libm-backed `f32`/`f64` methods whose last bit varies across libm
/// versions and platforms (F2). IEEE-exact operations (`sqrt`, `powi`,
/// `recip`, `mul_add`, `abs`, rounding) are deliberately absent.
const TRANSCENDENTALS: &[&str] = &[
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt", "cos", "cosh", "exp",
    "exp2", "exp_m1", "hypot", "ln", "ln_1p", "log10", "log2", "powf", "sin", "sinh", "tan",
    "tanh",
];

/// Narrowing `as` targets F3 audits in kernel code.
const NARROW_TARGETS: &[&str] = &["u8", "i8", "u16", "i16", "u32", "i32", "f32"];

/// `std::net` capability types A3 confines to `main()`-edge files.
const NET_TYPES: &[&str] = &["TcpListener", "TcpStream", "UdpSocket"];

/// Is `path` a `main()`-edge file — a binary entry point where wall clocks,
/// sockets, and thread spawning are the program's business?
pub fn is_bin_edge(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("src/main.rs")
}

/// A lexed + tree-parsed source file with the per-line indexes rules query.
pub struct SourceFile {
    pub path: String,
    pub text: String,
    /// Non-comment tokens, in order (indices here == tree token indices).
    ctoks: Vec<Tok>,
    /// Comment tokens, in order.
    comments: Vec<Tok>,
    /// Block/item structure over `ctoks`.
    pub tree: Tree,
    /// Per 1-based line: does any non-comment token start on it?
    line_has_code: Vec<bool>,
    /// Per 1-based line: comment byte spans starting on it.
    line_comments: Vec<Vec<(usize, usize)>>,
    /// Byte ranges of `#[test]` / `#[cfg(test)]`-guarded items.
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    pub fn parse(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let text = text.into();
        let toks = lex(&text);
        let (mut ctoks, mut comments) = (Vec::new(), Vec::new());
        for t in toks {
            if t.is_comment() {
                comments.push(t);
            } else {
                ctoks.push(t);
            }
        }
        let tree = tree::build(&text, &ctoks);
        let max_line = ctoks
            .last()
            .map_or(0, |t| t.line as usize)
            .max(comments.last().map_or(0, |t| t.line as usize));
        let mut line_has_code = vec![false; max_line + 2];
        let mut line_comments: Vec<Vec<(usize, usize)>> = vec![Vec::new(); max_line + 2];
        for t in &ctoks {
            line_has_code[t.line as usize] = true;
        }
        for t in &comments {
            line_comments[t.line as usize].push((t.start, t.end));
        }
        // Test regions: byte spans of items carrying a test attribute.
        let mut test_regions = Vec::new();
        for it in &tree.items {
            if !it.has_test_attr {
                continue;
            }
            let (Some(first), Some(last)) =
                (ctoks.get(it.start), ctoks.get(it.end.wrapping_sub(1)))
            else {
                continue;
            };
            if first.start < last.end {
                test_regions.push((first.start, last.end));
            }
        }
        SourceFile {
            path: path.into(),
            text,
            ctoks,
            comments,
            tree,
            line_has_code,
            line_comments,
            test_regions,
        }
    }

    /// The `c`-th code (non-comment) token, if any.
    fn ct(&self, c: usize) -> Option<&Tok> {
        self.ctoks.get(c)
    }

    /// Text of the `c`-th code token.
    fn ctext(&self, c: usize) -> &str {
        self.ct(c).map_or("", |t| t.text(&self.text))
    }

    fn is_ident(&self, c: usize, name: &str) -> bool {
        self.ct(c)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text(&self.text) == name)
    }

    fn is_punct(&self, c: usize, p: u8) -> bool {
        self.ct(c).is_some_and(|t| t.kind == TokKind::Punct(p))
    }

    /// `::` at code positions `c`, `c+1`.
    fn is_path_sep(&self, c: usize) -> bool {
        self.is_punct(c, b':') && self.is_punct(c + 1, b':')
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(s, e)| (s..e).contains(&offset))
    }

    /// Comment byte spans attached to `line`: on the line itself, or on a
    /// run of directly preceding comment-only lines.
    fn adjacent_comment_spans(&self, line: u32) -> Vec<(usize, usize)> {
        let mut lines = vec![line as usize];
        let mut l = line as usize;
        while l > 1 {
            l -= 1;
            let comment_only = !self.line_has_code.get(l).copied().unwrap_or(false)
                && !self.line_comments.get(l).is_none_or(Vec::is_empty);
            if !comment_only {
                break;
            }
            lines.push(l);
        }
        lines
            .into_iter()
            .flat_map(|l| {
                self.line_comments
                    .get(l)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    .iter()
                    .copied()
            })
            .collect()
    }

    /// Does `line` carry (or directly follow) a comment containing `marker`?
    fn has_adjacent_marker(&self, marker: &str, line: u32) -> bool {
        self.adjacent_comment_spans(line)
            .into_iter()
            .any(|(s, e)| self.text.get(s..e).unwrap_or("").contains(marker))
    }
}

/// One `// lint: allow(R1, R2) reason` pragma instance, with per-rule
/// used-flags maintained by the suppression check so U1 can report the
/// rules that never fired.
struct Pragma {
    line: u32,
    col: u32,
    /// Byte span of the carrying comment.
    span: (usize, usize),
    /// `(rule id, fired at least once)`.
    rules: Vec<(String, bool)>,
}

/// Parses one comment for `lint: allow(R1, R2) reason`; the reason is
/// mandatory — an allow without a stated justification does not count.
fn parse_pragma(comment: &str) -> Option<Vec<String>> {
    let at = comment.find("lint:")?;
    let after = comment[at + 5..].trim_start();
    let rest = after.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    if rest[close + 1..].trim().is_empty() {
        return None;
    }
    Some(
        rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

fn collect_pragmas(file: &SourceFile) -> Vec<Pragma> {
    let mut out = Vec::new();
    for t in &file.comments {
        let Some(rules) = parse_pragma(t.text(&file.text)) else {
            continue;
        };
        out.push(Pragma {
            line: t.line,
            col: t.col,
            span: (t.start, t.end),
            rules: rules.into_iter().map(|r| (r, false)).collect(),
        });
    }
    out
}

/// Is the finding `rule` at `line` suppressed by an adjacent pragma?
/// Marks every matching pragma rule as used (so U1 stays quiet about it).
fn pragma_allows(file: &SourceFile, pragmas: &mut [Pragma], rule: &str, line: u32) -> bool {
    let spans = file.adjacent_comment_spans(line);
    let mut allowed = false;
    for p in pragmas.iter_mut() {
        if !spans.contains(&p.span) {
            continue;
        }
        for (r, used) in p.rules.iter_mut() {
            if r == rule {
                *used = true;
                allowed = true;
            }
        }
    }
    allowed
}

/// Is the G1 gate identifier at `g` (a `GATE_CHECKS` member) negated?
/// Walks back across `path::segments` to the head, then looks for `!`.
/// (`a != enabled()` is safe: `!=` lexes as `!` `=`, so the token directly
/// before the path head is `=`.)
fn gate_negated(file: &SourceFile, lo: usize, g: usize) -> bool {
    let mut j = g;
    while j >= lo + 3
        && file.is_path_sep(j - 2)
        && file.ct(j - 3).is_some_and(|t| t.kind == TokKind::Ident)
    {
        j -= 3;
    }
    j > lo && file.is_punct(j - 1, b'!')
}

/// Scans the condition range for a gate check; returns `(index, negated)`
/// of the first one found.
fn find_gate(file: &SourceFile, cond: (usize, usize)) -> Option<(usize, bool)> {
    for g in cond.0..cond.1 {
        if GATE_CHECKS.iter().any(|c| file.is_ident(g, c)) {
            return Some((g, gate_negated(file, cond.0, g)));
        }
    }
    None
}

/// Is the binary operator `op op` (`||` or `&&`) present at paren depth 0
/// within the range? Closure pipes inside call parens sit at depth > 0.
fn has_toplevel_op(file: &SourceFile, cond: (usize, usize), op: u8) -> bool {
    let mut depth = 0usize;
    for k in cond.0..cond.1 {
        match file.ct(k).map(|t| t.kind) {
            Some(TokKind::Punct(b'(')) | Some(TokKind::Punct(b'[')) => depth += 1,
            Some(TokKind::Punct(b')')) | Some(TokKind::Punct(b']')) => {
                depth = depth.saturating_sub(1)
            }
            Some(TokKind::Punct(p))
                if p == op && depth == 0 && file.is_punct(k + 1, op) && k + 1 < cond.1 =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// A *positive gate*: the `if` condition contains a non-negated
/// `metrics_enabled()`/`trace_enabled()` and no top-level `||` (which
/// would open a path into the block with telemetry disabled).
fn is_positive_gate(file: &SourceFile, cond: (usize, usize)) -> bool {
    matches!(find_gate(file, cond), Some((_, false))) && !has_toplevel_op(file, cond, b'|')
}

/// An *early-return guard*: `if !enabled() { return/continue/break; }`.
/// The condition must contain a negated gate and no top-level `&&` (which
/// would let the disabled case fall through); the then-block must
/// terminate at its own level.
fn is_guard_block(file: &SourceFile, t: &Tree, block: usize) -> bool {
    let Some(b) = t.blocks.get(block) else {
        return false;
    };
    if b.kind != BlockKind::IfThen
        || !matches!(find_gate(file, b.cond), Some((_, true)))
        || has_toplevel_op(file, b.cond, b'&')
    {
        return false;
    }
    let (lo, hi) = (b.open.saturating_add(1), b.close.min(file.ctoks.len()));
    (lo..hi).any(|k| {
        t.innermost(k) == block
            && ["return", "continue", "break"]
                .iter()
                .any(|kw| file.is_ident(k, kw))
    })
}

/// Dominator analysis for G1: is the emitter at code token `ci` dominated
/// by a telemetry gate — an enclosing positive `if`, or an early-return
/// guard that completed before `ci` in some enclosing block?
fn dominated_by_gate(file: &SourceFile, t: &Tree, ci: usize) -> bool {
    for &b in &t.ancestor_chain(t.innermost(ci)) {
        let Some(blk) = t.blocks.get(b) else { continue };
        if blk.kind == BlockKind::IfThen && is_positive_gate(file, blk.cond) {
            return true;
        }
        for &ch in &blk.children {
            let Some(c) = t.blocks.get(ch) else { continue };
            if c.close < ci && is_guard_block(file, t, ch) {
                return true;
            }
        }
    }
    false
}

/// Lints one file belonging to crate `krate` (the directory name under
/// `crates/`). `path` must be workspace-relative with `/` separators.
pub fn check_file(path: &str, text: &str, krate: &str) -> Vec<Finding> {
    let file = SourceFile::parse(path, text);
    let mut pragmas = collect_pragmas(&file);
    let mut out = Vec::new();
    let bin_edge = is_bin_edge(path);
    let d1_applies = D1_SCOPE.contains(&krate) && !bin_edge;
    let d23_applies = !D23_EXEMPT.contains(&krate);
    let p_applies = !P_EXEMPT.contains(&krate);
    let s_applies = krate != "simd";
    let f2_applies =
        !F2_EXEMPT.contains(&krate) && !F2_SANCTIONED.iter().any(|s| path.ends_with(s));
    let a3_applies = !bin_edge && !A3_GRANTS.iter().any(|(f, _)| path.ends_with(f));
    let hot = HOT_FILES.iter().any(|h| file.path.ends_with(h));

    let emit = |file: &SourceFile,
                pragmas: &mut [Pragma],
                t: &Tok,
                rule: &'static str,
                msg: String,
                out: &mut Vec<Finding>| {
        if !pragma_allows(file, pragmas, rule, t.line) {
            out.push(Finding {
                path: file.path.clone(),
                line: t.line,
                col: t.col,
                rule,
                message: msg,
            });
        }
    };

    // ---- A1 (file half): `use tcl_*` heads must be allowed DAG edges ----
    let own_package = format!("tcl-{krate}");
    for it in &file.tree.items {
        if file.ctext(it.kw) != "use" {
            continue;
        }
        let Some(head_tok) = file.ct(it.kw + 1) else {
            continue;
        };
        let head = head_tok.text(&file.text);
        let Some(rest) = head.strip_prefix("tcl_") else {
            continue;
        };
        let package = format!("tcl-{}", rest.replace('_', "-"));
        let dev = file.in_test_region(head_tok.start);
        if package != own_package && !workspace::allowed_dep(krate, &package, dev) {
            let t = *head_tok;
            emit(
                &file,
                &mut pragmas,
                &t,
                "A1",
                format!(
                    "`use {head}` reaches outside crate `{own_package}`'s allowed \
                     dependencies; the layering DAG (DESIGN.md §11) has no \
                     {own_package} -> {package} edge"
                ),
                &mut out,
            );
        }
    }

    for c in 0..file.ctoks.len() {
        let Some(&t) = file.ct(c) else { break };
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text(&file.text);
        let in_test = file.in_test_region(t.start);

        // ---- A3: ambient capabilities confined to main()-edge files ----
        if a3_applies && !in_test {
            let is_net_type = NET_TYPES.contains(&name);
            let after_path =
                |head: &str| c >= 3 && file.is_path_sep(c - 2) && file.is_ident(c - 3, head);
            let is_spawn = (name == "spawn" || name == "Builder") && after_path("thread");
            let is_cmd = name == "Command" && after_path("process");
            if is_net_type || is_spawn || is_cmd {
                let what = if is_net_type {
                    format!("network type `{name}`")
                } else if is_cmd {
                    "`process::Command`".to_string()
                } else {
                    format!("`thread::{name}`")
                };
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "A3",
                    format!(
                        "{what} outside a main()-edge file; ambient capabilities live \
                         at binary entry points or in granted islands (DESIGN.md §11)"
                    ),
                    &mut out,
                );
            }
        }

        // ---- D-series: determinism ----
        if d1_applies && !in_test {
            if (name == "SystemTime" || name == "Instant")
                && file.is_path_sep(c + 1)
                && file.is_ident(c + 3, "now")
            {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "D1",
                    format!(
                        "wall-clock read `{name}::now` in deterministic crate `{krate}`; \
                         timing belongs to telemetry/bench or an injected Clock"
                    ),
                    &mut out,
                );
            }
            if name == "thread" && file.is_path_sep(c + 1) && file.is_ident(c + 3, "sleep") {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "D1",
                    format!(
                        "blocking `thread::sleep` in deterministic crate `{krate}`; \
                         time must flow through an injected Clock (main()-edge only)"
                    ),
                    &mut out,
                );
            }
        }
        if d23_applies && !in_test {
            if name == "thread_rng" || name == "from_entropy" {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "D2",
                    format!(
                        "ambient RNG `{name}` in deterministic crate `{krate}`; \
                         randomness must flow through SeededRng/SmallRng"
                    ),
                    &mut out,
                );
            }
            if name == "rand" && file.is_path_sep(c + 1) && file.is_ident(c + 3, "random") {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "D2",
                    format!("ambient RNG `rand::random` in deterministic crate `{krate}`"),
                    &mut out,
                );
            }
            if name == "HashMap" || name == "HashSet" {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "D3",
                    format!(
                        "hash-order container `{name}` in deterministic crate `{krate}`; \
                         iteration order is nondeterministic — use BTreeMap/BTreeSet/Vec"
                    ),
                    &mut out,
                );
            }
        }

        // ---- F-series: float determinism ----
        if !in_test {
            if name == "partial_cmp"
                && (c > 0 && file.is_punct(c - 1, b'.') || c >= 2 && file.is_path_sep(c - 2))
            {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "F1",
                    "raw float comparator `partial_cmp`; use `total_cmp` — it is total \
                     over NaN and bit-stable across platforms"
                        .to_string(),
                    &mut out,
                );
            }
            if f2_applies
                && TRANSCENDENTALS.contains(&name)
                && file.is_punct(c + 1, b'(')
                && (c > 0 && file.is_punct(c - 1, b'.') || c >= 2 && file.is_path_sep(c - 2))
            {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "F2",
                    format!(
                        "libm transcendental `.{name}()` outside the sanctioned vec-math \
                         module; its last bit varies across libm versions, breaking \
                         bit-exact replay — confine it or carry a reasoned pragma"
                    ),
                    &mut out,
                );
            }
            if krate == "simd"
                && name == "as"
                && file
                    .ct(c + 1)
                    .is_some_and(|n| NARROW_TARGETS.contains(&n.text(&file.text)))
            {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "F3",
                    format!(
                        "narrowing cast `as {}` in kernel code without a reasoned pragma; \
                         silent truncation/rounding in kernels is how bit-exactness dies",
                        file.ctext(c + 1)
                    ),
                    &mut out,
                );
            }
        }

        // ---- P-series: panic policy ----
        if p_applies && !in_test {
            if (name == "unwrap" || name == "expect")
                && c > 0
                && file.is_punct(c - 1, b'.')
                && file.is_punct(c + 1, b'(')
            {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "P1",
                    format!(
                        "`.{name}()` in library non-test code; return an Error or carry \
                         a `// lint: allow(P1) reason` pragma naming the invariant"
                    ),
                    &mut out,
                );
            }
            if (name == "panic" || name == "todo" || name == "unimplemented")
                && file.is_punct(c + 1, b'!')
            {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "P2",
                    format!("`{name}!` in library non-test code; library failures are Errors"),
                    &mut out,
                );
            }
        }

        // ---- C-series: concurrency audit (test code included) ----
        if name == "Ordering"
            && file.is_path_sep(c + 1)
            && file
                .ct(c + 3)
                .is_some_and(|v| ORDERINGS.contains(&v.text(&file.text)))
            && !file.has_adjacent_marker("ordering:", t.line)
        {
            emit(
                &file,
                &mut pragmas,
                &t,
                "C1",
                format!(
                    "atomic `Ordering::{}` without an adjacent `// ordering:` \
                     justification comment",
                    file.ctext(c + 3)
                ),
                &mut out,
            );
        }
        if name == "static" && file.is_ident(c + 1, "mut") {
            emit(
                &file,
                &mut pragmas,
                &t,
                "C2",
                "`static mut` is forbidden; use atomics, OnceLock, or thread_local".to_string(),
                &mut out,
            );
        }

        // ---- S-series: SIMD/unsafe confinement (test code included) ----
        if s_applies {
            if name == "arch" && c >= 3 && file.is_path_sep(c - 2) {
                let root = file.ctext(c - 3);
                if root == "core" || root == "std" {
                    emit(
                        &file,
                        &mut pragmas,
                        &t,
                        "S1",
                        format!(
                            "CPU intrinsics module `{root}::arch` outside `crates/simd`; \
                             all intrinsics live behind the tcl-simd dispatch layer"
                        ),
                        &mut out,
                    );
                }
            }
            if name.starts_with("_mm") {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "S1",
                    format!(
                        "SIMD intrinsic `{name}` outside `crates/simd`; call a \
                         tcl-simd kernel instead"
                    ),
                    &mut out,
                );
            }
            if name == "is_x86_feature_detected" {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "S1",
                    "ISA feature detection outside `crates/simd`; dispatch decisions \
                     are tcl-simd's alone (`tcl_simd::current()`)"
                        .to_string(),
                    &mut out,
                );
            }
            if name == "unsafe" {
                emit(
                    &file,
                    &mut pragmas,
                    &t,
                    "S1",
                    format!(
                        "`unsafe` outside `crates/simd` (crate `{krate}`); the rest of \
                         the workspace stays `#![forbid(unsafe_code)]`"
                    ),
                    &mut out,
                );
            }
        }

        // ---- G-series: telemetry gating on hot paths ----
        if hot
            && !in_test
            && EAGER_EMITTERS.contains(&name)
            && file.is_punct(c + 1, b'(')
            && !dominated_by_gate(&file, &file.tree, c)
        {
            emit(
                &file,
                &mut pragmas,
                &t,
                "G1",
                format!(
                    "eager telemetry emission `{name}(…)` on a hot path is not dominated \
                     by a metrics_enabled()/trace_enabled() fast-path check (enclosing \
                     non-negated `if`, or an earlier `if !enabled() {{ return; }}` guard)"
                ),
                &mut out,
            );
        }
    }

    // ---- U1: dead suppressions (never themselves suppressible) ----
    for p in &pragmas {
        for (rule, used) in &p.rules {
            let known = RULES.iter().any(|(r, _)| r == rule);
            if known && !used {
                out.push(Finding {
                    path: file.path.clone(),
                    line: p.line,
                    col: p.col,
                    rule: "U1",
                    message: format!(
                        "suppression `lint: allow({rule})` no longer fires — the code it \
                         excused has moved or the rule no longer applies here; delete \
                         the dead pragma"
                    ),
                });
            }
        }
    }
    // Deterministic per-file order (U1 findings are appended post-scan).
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// C3 check for a crate root: `lib.rs` must carry `#![forbid(unsafe_code)]`.
///
/// Exception: `crates/simd` is the workspace's one sanctioned unsafe island
/// (CPU intrinsics require it), so it cannot forbid `unsafe_code`; its root
/// must instead carry `#![deny(unsafe_op_in_unsafe_fn)]`, which forces every
/// pointer dereference inside an `unsafe fn` to be re-justified in an inner
/// `unsafe {}` block.
pub fn check_crate_root(path: &str, text: &str) -> Option<Finding> {
    let file = SourceFile::parse(path, text);
    let (attr, lint_name) = if path.ends_with("crates/simd/src/lib.rs") {
        ("deny", "unsafe_op_in_unsafe_fn")
    } else {
        ("forbid", "unsafe_code")
    };
    let mut c = 0usize;
    while file.ct(c).is_some() {
        if file.is_punct(c, b'#')
            && file.is_punct(c + 1, b'!')
            && file.is_punct(c + 2, b'[')
            && file.is_ident(c + 3, attr)
            && file.is_punct(c + 4, b'(')
            && file.is_ident(c + 5, lint_name)
        {
            return None;
        }
        c += 1;
    }
    Some(Finding {
        path: path.to_string(),
        line: 1,
        col: 1,
        rule: "C3",
        message: format!("crate root is missing `#![{attr}({lint_name})]`"),
    })
}

/// Rule identifiers with their `--explain` texts.
pub const RULES: &[(&str, &str)] = &[
    (
        "A1",
        "The 12-crate workspace follows an explicit allowed-edges DAG (tcl_lint::\
         workspace::ALLOWED_DEPS; rendered by `tcl-lint --deps`). Every Cargo.toml \
         dependency edge and every top-level `use tcl_*` import must be listed. \
         Adding an edge is a deliberate architectural act: extend the table in the \
         same PR and justify it in DESIGN.md §11. Dev-dependency reach-down for \
         tests is separately allowed (ALLOWED_DEV_EXTRAS).",
    ),
    (
        "A2",
        "The realized crate graph must be acyclic (dev edges included — a dev cycle \
         still wedges `cargo build --tests`). Reported on the manifest line that \
         closes the cycle.",
    ),
    (
        "A3",
        "Ambient capabilities — std::net types (TcpListener/TcpStream/UdpSocket), \
         thread::spawn / thread::Builder, process::Command — are confined to \
         main()-edge files (src/bin/*, src/main.rs) and explicitly granted \
         capability islands (obs::export's listener thread, snn::engine's joined \
         worker pool). Library code must take I/O and concurrency through injected \
         traits (Clock, Transport) or the sanctioned pools, so the deterministic \
         simulation story (virtual clocks, loopback transports) holds everywhere. \
         Scoped `std::thread::scope` fan-out is allowed: it joins deterministically \
         before results are read.",
    ),
    (
        "D1",
        "Wall-clock reads (SystemTime::now, Instant::now) and blocking sleeps \
         (thread::sleep) are banned from the deterministic crates (tensor, nn, snn, \
         core, data, models, serve, simd, lint) outside test code and main()-edge \
         files (src/bin/*, src/main.rs — inferred from the path, not a hardcoded \
         list). Results must be a pure function of inputs + seeds so golden \
         snapshots, the bitwise parallel==serial contract, and the virtual-clock \
         serving simulations hold; timing lives in telemetry/obs/bench, and the \
         serving library takes time through an injected Clock. Timing that only \
         feeds gated telemetry may carry a `// lint: allow(D1) reason` pragma.",
    ),
    (
        "D2",
        "Ambient randomness (thread_rng, rand::random, from_entropy) is banned from \
         every crate except bench. All randomness flows through SeededRng/SmallRng \
         so every run replays bit-exactly from its seed — the property the \
         checkpoint/resume and engine-equivalence suites assert.",
    ),
    (
        "D3",
        "std::collections::HashMap/HashSet are banned from every crate except bench: \
         their iteration order varies run to run (RandomState), which silently breaks \
         golden snapshots when anything numeric is derived from iteration. Use \
         BTreeMap/BTreeSet or a Vec.",
    ),
    (
        "F1",
        "partial_cmp (and float comparators built on it) is forbidden: it is partial \
         over NaN, so sorts panic or silently reorder depending on data. f32::total_cmp \
         implements the IEEE 754 totalOrder predicate — total, deterministic, and \
         bit-stable across platforms. Applies everywhere, bench included: leaderboard \
         sorts feed the paper's tables.",
    ),
    (
        "F2",
        "libm-backed transcendentals (exp, ln, sin, cos, tanh, powf, …) are confined \
         to the sanctioned vec-math module (crates/simd/src/vecmath.rs): their last \
         bit varies across libm versions and platforms, which breaks bit-exact replay \
         of checkpoints and golden outputs. IEEE-exact ops (sqrt, powi, mul_add) are \
         fine anywhere. Sites with a frozen-reference story (e.g. the Box–Muller \
         normal sampler behind a fixed seed) carry a `// lint: allow(F2) reason` \
         pragma. bench is exempt (display statistics, not replayed numerics).",
    ),
    (
        "F3",
        "`as` narrowing casts (to u8/i8/u16/i16/u32/i32/f32) in crates/simd kernel \
         code must carry a reasoned pragma: silent truncation or rounding inside a \
         kernel is invisible at the API boundary and is exactly how bit-exactness \
         between scalar and SIMD paths dies. Use try_from / explicit rounding, or \
         state why the value fits.",
    ),
    (
        "P1",
        ".unwrap()/.expect() are forbidden in library non-test code. Recoverable \
         failures return Errors; genuinely unreachable states carry \
         `// lint: allow(P1) <invariant>` naming the invariant that protects them, so \
         every residual panic site is enumerable and justified.",
    ),
    (
        "P2",
        "panic!/todo!/unimplemented! are forbidden in library non-test code; library \
         failures are Errors. assert!/debug_assert! remain available for documented \
         programmer-error contracts.",
    ),
    (
        "C1",
        "Every atomic Ordering::{Relaxed,Acquire,Release,SeqCst,AcqRel} use must carry \
         an adjacent `// ordering:` comment justifying why that ordering is sufficient \
         (what the atomic synchronizes, or why no synchronization is needed). Applies \
         to test code too — the audit is about every ordering decision being written \
         down.",
    ),
    (
        "C2",
        "`static mut` is forbidden everywhere: it is wildly unsafe under threads and \
         unnecessary given atomics, OnceLock, and thread_local.",
    ),
    (
        "C3",
        "Every crate root must declare #![forbid(unsafe_code)]. forbid (not deny) means \
         no inner allow can sneak unsafe back in; the whole workspace stays safe Rust. \
         Sole exception: crates/simd — the sanctioned unsafe island — whose root must \
         instead declare #![deny(unsafe_op_in_unsafe_fn)].",
    ),
    (
        "S1",
        "CPU intrinsics (core::arch/std::arch paths, _mm* identifiers, \
         is_x86_feature_detected!) and the `unsafe` keyword are confined to \
         crates/simd, the one crate allowed to hold them. Everything else reaches \
         vector code through the safe tcl-simd kernel API (gebp_4x16, axpy, if_step, \
         gather_rows) under runtime dispatch, so the unsafe audit surface stays one \
         small crate. Applies to test code too.",
    ),
    (
        "G1",
        "On hot-path files (tcl_tensor::par workers, IfNeurons::step, the SNN engine), \
         eager telemetry emission (counter_add, gauge_set, gauge_set_indexed, \
         hist_record, log) must be *dominated* by a metrics_enabled()/trace_enabled() \
         fast-path check, judged on the block tree: an enclosing `if` whose condition \
         tests the gate non-negated with no top-level `||`, or an earlier \
         `if !enabled() { return; }` guard in an enclosing block. A gate in a sibling \
         block does not count — that was the false-negative class of the old \
         line-adjacency heuristic. span/span_with are exempt: they gate internally.",
    ),
    (
        "U1",
        "A `// lint: allow(RULE) reason` pragma whose rule never fires on the lines it \
         covers is dead: the code it excused moved or the rule's scope changed, and a \
         stale allow silently widens the permitted surface for whatever lands there \
         next. Delete it (or move it to the site it was meant for). U1 itself cannot \
         be suppressed.",
    ),
];

/// The explanation for `rule`, if it exists.
pub fn explain(rule: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|(r, _)| *r == rule)
        .map(|&(_, text)| text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pragma_requires_reason_and_lists_rules() {
        assert_eq!(
            parse_pragma("// lint: allow(P1) batch validated above"),
            Some(vec!["P1".to_string()])
        );
        assert_eq!(
            parse_pragma("// lint: allow(P1, D1) shared reason"),
            Some(vec!["P1".to_string(), "D1".to_string()])
        );
        assert_eq!(parse_pragma("// lint: allow(P1)"), None, "reason required");
        assert_eq!(parse_pragma("// allow(P1) reason"), None);
    }

    #[test]
    fn explain_covers_every_rule() {
        for (rule, _) in RULES {
            assert!(explain(rule).is_some());
        }
        assert!(explain("Z9").is_none());
    }

    #[test]
    fn bin_edge_paths_are_detected() {
        assert!(is_bin_edge("crates/serve/src/bin/tcl_serve.rs"));
        assert!(is_bin_edge("crates/lint/src/main.rs"));
        assert!(!is_bin_edge("crates/serve/src/server.rs"));
        assert!(!is_bin_edge("crates/obs/src/binary.rs"));
    }
}
