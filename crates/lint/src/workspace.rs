//! Workspace model: the crate-dependency graph and the layering policy.
//!
//! Parses every `crates/*/Cargo.toml` (line-oriented — the workspace pins
//! all manifests to the simple `name = { workspace = true }` form, and the
//! parser tolerates anything line-shaped beyond that) into a crate graph,
//! then checks it against the explicit allowed-edges DAG below: every
//! manifest edge must be listed (rule **A1**) and the realized graph must
//! be acyclic (rule **A2**). `tcl-lint --deps` renders the same graph as
//! text or Graphviz DOT for CI artifacts.
//!
//! The DAG is the architecture: leaves (`tcl-telemetry`, `tcl-simd`,
//! `tcl-lint`) depend on nothing, the numerics stack layers
//! tensor → nn/snn/data → models → core, the service layer (`tcl-obs`,
//! `tcl-serve`) sits beside it, and only `tcl-bench` may see everything.
//! Adding an edge is a deliberate act: extend [`ALLOWED_DEPS`] in the same
//! PR and justify it in DESIGN.md §11.

use std::fs;
use std::path::Path;

use crate::rules::Finding;
use crate::{io_err, workspace_crates, LintError};

/// Allowed `[dependencies]` edges, keyed by crate *directory* name; values
/// are dependency *package* names (workspace crates and vendored externals
/// alike). Order: leaves first, integration layers last.
pub const ALLOWED_DEPS: &[(&str, &[&str])] = &[
    ("telemetry", &[]),
    ("simd", &[]),
    ("lint", &[]),
    ("tensor", &["tcl-simd", "tcl-telemetry", "rand", "serde"]),
    ("nn", &["tcl-tensor", "tcl-telemetry", "serde"]),
    ("data", &["tcl-tensor", "serde"]),
    ("snn", &["tcl-tensor", "tcl-telemetry", "serde"]),
    ("models", &["tcl-tensor", "tcl-nn", "serde"]),
    (
        "core",
        &[
            "tcl-tensor",
            "tcl-telemetry",
            "tcl-nn",
            "tcl-snn",
            "tcl-data",
            "serde",
        ],
    ),
    ("obs", &["tcl-telemetry"]),
    (
        "serve",
        &[
            "tcl-tensor",
            "tcl-snn",
            "tcl-core",
            "tcl-telemetry",
            "tcl-obs",
        ],
    ),
    (
        "bench",
        &[
            "tcl-tensor",
            "tcl-telemetry",
            "tcl-nn",
            "tcl-data",
            "tcl-models",
            "tcl-snn",
            "tcl-core",
            "tcl-obs",
            "tcl-serve",
            "serde",
        ],
    ),
];

/// Extra `[dev-dependencies]` edges beyond [`ALLOWED_DEPS`], keyed by crate
/// directory. Test-only reach-down (e.g. `tcl-obs` replaying real engine
/// traces) is fine; it never ships in the library graph.
pub const ALLOWED_DEV_EXTRAS: &[(&str, &[&str])] = &[
    ("core", &["tcl-models"]),
    ("obs", &["tcl-tensor", "tcl-snn"]),
];

/// Dev-only externals every crate may use (vendored test/bench harnesses).
pub const GLOBAL_DEV_DEPS: &[&str] = &["proptest", "criterion"];

/// Is `package` an allowed dependency of the crate in directory `dir`?
/// `dev` widens the check to the dev-dependency allowances.
pub fn allowed_dep(dir: &str, package: &str, dev: bool) -> bool {
    let in_table = |table: &[(&str, &[&str])]| {
        table
            .iter()
            .find(|(d, _)| *d == dir)
            .is_some_and(|(_, deps)| deps.contains(&package))
    };
    in_table(ALLOWED_DEPS)
        || (dev && (in_table(ALLOWED_DEV_EXTRAS) || GLOBAL_DEV_DEPS.contains(&package)))
}

/// The crate-directory names the DAG covers.
pub fn known_dirs() -> Vec<&'static str> {
    ALLOWED_DEPS.iter().map(|(d, _)| *d).collect()
}

/// One `[dependencies]` / `[dev-dependencies]` entry.
#[derive(Debug, Clone)]
pub struct DepEdge {
    /// Dependency package name as written in the manifest.
    pub name: String,
    /// 1-based manifest line of the entry.
    pub line: u32,
    /// From `[dev-dependencies]`.
    pub dev: bool,
}

/// One parsed crate manifest.
#[derive(Debug, Clone)]
pub struct CrateManifest {
    /// Directory name under `crates/`.
    pub dir: String,
    /// `[package] name`.
    pub package: String,
    /// Workspace-relative manifest path for diagnostics.
    pub manifest_path: String,
    pub deps: Vec<DepEdge>,
}

/// Parses one manifest. Line-oriented: tracks `[section]` headers, reads
/// `name = …` entries in `[package]`, `[dependencies]`, and
/// `[dev-dependencies]`. Never fails on malformed input — unknown shapes
/// are skipped (the A-rules then flag whatever edges *were* readable).
pub fn parse_manifest(dir: &str, manifest_path: &str, text: &str) -> CrateManifest {
    #[derive(PartialEq)]
    enum Section {
        Package,
        Deps,
        DevDeps,
        Other,
    }
    let mut section = Section::Other;
    let mut package = String::new();
    let mut deps = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = match line {
                "[package]" => Section::Package,
                "[dependencies]" => Section::Deps,
                "[dev-dependencies]" => Section::DevDeps,
                _ => Section::Other,
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        match section {
            Section::Package if key == "name" => {
                package = value.trim().trim_matches('"').to_string();
            }
            Section::Deps | Section::DevDeps if !key.is_empty() && !key.starts_with('#') => {
                // `rand = { workspace = true }` or `rand.workspace = true`.
                let name = key.split('.').next().unwrap_or(key).trim();
                deps.push(DepEdge {
                    name: name.to_string(),
                    line: (i + 1) as u32,
                    dev: section == Section::DevDeps,
                });
            }
            _ => {}
        }
    }
    CrateManifest {
        dir: dir.to_string(),
        package: if package.is_empty() {
            dir.to_string()
        } else {
            package
        },
        manifest_path: manifest_path.to_string(),
        deps,
    }
}

/// Loads every workspace crate's manifest, sorted by directory name.
pub fn load(root: &Path) -> Result<Vec<CrateManifest>, LintError> {
    let mut out = Vec::new();
    for (dir, path) in workspace_crates(root)? {
        let manifest = path.join("Cargo.toml");
        let text = fs::read_to_string(&manifest).map_err(io_err(&manifest))?;
        let rel = format!("crates/{dir}/Cargo.toml");
        out.push(parse_manifest(&dir, &rel, &text));
    }
    Ok(out)
}

/// Checks the manifest graph: A1 (every edge must be in the allowed-edges
/// tables) and A2 (the realized workspace graph must be acyclic).
pub fn check(manifests: &[CrateManifest]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for m in manifests {
        for d in &m.deps {
            if !allowed_dep(&m.dir, &d.name, d.dev) {
                let kind = if d.dev {
                    "dev-dependency"
                } else {
                    "dependency"
                };
                findings.push(Finding {
                    path: m.manifest_path.clone(),
                    line: d.line,
                    col: 1,
                    rule: "A1",
                    message: format!(
                        "{kind} `{}` of crate `{}` is not in the allowed-edges \
                         DAG (DESIGN.md §11); extend ALLOWED_DEPS deliberately \
                         or remove the edge",
                        d.name, m.package
                    ),
                });
            }
        }
    }

    // A2: cycle detection over workspace-internal edges (dev edges
    // included — a dev cycle still deadlocks `cargo build --tests`).
    let idx_of = |pkg: &str| manifests.iter().position(|m| m.package == pkg);
    // 0 = unvisited, 1 = on stack, 2 = done.
    let mut state = vec![0u8; manifests.len()];
    for start in 0..manifests.len() {
        if state[start] != 0 {
            continue;
        }
        // Iterative DFS: (node, next-edge cursor) stack.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        state[start] = 1;
        while let Some(&(node, cursor)) = stack.last() {
            let edges = &manifests[node].deps;
            if cursor >= edges.len() {
                state[node] = 2;
                stack.pop();
                continue;
            }
            if let Some(top) = stack.last_mut() {
                top.1 += 1;
            }
            let e = &edges[cursor];
            let Some(next) = idx_of(&e.name) else {
                continue; // external (vendored) dep
            };
            if state[next] == 1 {
                // Back edge: report the cycle at this manifest line.
                let cycle: Vec<&str> = stack
                    .iter()
                    .skip_while(|(n, _)| *n != next)
                    .map(|(n, _)| manifests[*n].package.as_str())
                    .collect();
                findings.push(Finding {
                    path: manifests[node].manifest_path.clone(),
                    line: e.line,
                    col: 1,
                    rule: "A2",
                    message: format!("dependency cycle: {} -> {}", cycle.join(" -> "), e.name),
                });
            } else if state[next] == 0 {
                state[next] = 1;
                stack.push((next, 0));
            }
        }
    }
    findings
}

/// Renders the crate graph as Graphviz DOT (dev edges dashed). Stable
/// output: nodes and edges follow manifest order.
pub fn render_dot(manifests: &[CrateManifest]) -> String {
    let mut out = String::from(
        "digraph tcl_workspace {\n    rankdir=BT;\n    node [shape=box, fontname=\"monospace\"];\n",
    );
    for m in manifests {
        out.push_str(&format!("    \"{}\";\n", m.package));
    }
    for m in manifests {
        for d in &m.deps {
            let style = if d.dev { " [style=dashed]" } else { "" };
            out.push_str(&format!(
                "    \"{}\" -> \"{}\"{};\n",
                m.package, d.name, style
            ));
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the crate graph as indented text, one crate per stanza.
pub fn render_text(manifests: &[CrateManifest]) -> String {
    let mut out = String::new();
    for m in manifests {
        out.push_str(&format!("{} ({})\n", m.package, m.dir));
        for d in &m.deps {
            let marker = if d.dev { "dev -> " } else { "-> " };
            out.push_str(&format!("    {marker}{}\n", d.name));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(dir: &str, pkg: &str, deps: &[(&str, bool)]) -> CrateManifest {
        CrateManifest {
            dir: dir.to_string(),
            package: pkg.to_string(),
            manifest_path: format!("crates/{dir}/Cargo.toml"),
            deps: deps
                .iter()
                .enumerate()
                .map(|(i, (n, dev))| DepEdge {
                    name: n.to_string(),
                    line: (i + 1) as u32,
                    dev: *dev,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_workspace_style_manifest() {
        let text = "[package]\nname = \"tcl-tensor\"\n\n[dependencies]\nrand = { workspace = true }\ntcl-simd = { workspace = true }\n\n[dev-dependencies]\nproptest = { workspace = true }\n";
        let m = parse_manifest("tensor", "crates/tensor/Cargo.toml", text);
        assert_eq!(m.package, "tcl-tensor");
        let names: Vec<(&str, bool)> = m.deps.iter().map(|d| (d.name.as_str(), d.dev)).collect();
        assert_eq!(
            names,
            vec![("rand", false), ("tcl-simd", false), ("proptest", true)]
        );
        assert_eq!(m.deps[0].line, 5);
    }

    #[test]
    fn allowed_edges_pass_and_rogue_edges_fail() {
        let good = manifest("nn", "tcl-nn", &[("tcl-tensor", false), ("proptest", true)]);
        assert!(check(&[good]).is_empty());
        let bad = manifest("tensor", "tcl-tensor", &[("tcl-core", false)]);
        let f = check(&[bad]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "A1");
        assert!(f[0].message.contains("tcl-core"));
    }

    #[test]
    fn dev_reach_down_is_allowed_but_library_reach_down_is_not() {
        let dev = manifest("obs", "tcl-obs", &[("tcl-snn", true)]);
        assert!(check(&[dev]).is_empty());
        let lib = manifest("obs", "tcl-obs", &[("tcl-snn", false)]);
        assert_eq!(check(&[lib]).len(), 1);
    }

    #[test]
    fn detects_cycles() {
        let a = manifest("telemetry", "tcl-telemetry", &[("tcl-tensor", false)]);
        let b = manifest("tensor", "tcl-tensor", &[("tcl-telemetry", false)]);
        let f = check(&[a, b]);
        assert!(
            f.iter().any(|f| f.rule == "A2"),
            "cycle not detected: {f:?}"
        );
    }

    #[test]
    fn dot_output_contains_edges_and_dev_style() {
        let m = vec![
            manifest(
                "tensor",
                "tcl-tensor",
                &[("tcl-simd", false), ("proptest", true)],
            ),
            manifest("simd", "tcl-simd", &[]),
        ];
        let dot = render_dot(&m);
        assert!(dot.contains("\"tcl-tensor\" -> \"tcl-simd\";"));
        assert!(dot.contains("\"tcl-tensor\" -> \"proptest\" [style=dashed];"));
    }

    #[test]
    fn real_workspace_graph_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(|p| p.to_path_buf());
        let Some(root) = root else {
            return;
        };
        let manifests = match load(&root) {
            Ok(m) => m,
            Err(_) => return,
        };
        assert_eq!(manifests.len(), known_dirs().len());
        let findings = check(&manifests);
        assert!(
            findings.is_empty(),
            "workspace graph violations: {findings:?}"
        );
    }
}
