//! Shared experiment harness for the table/figure regeneration binaries.
//!
//! Every binary in this crate reproduces one table or figure of the paper
//! (see `DESIGN.md`'s per-experiment index). They share:
//!
//! * a [`Scale`] knob (`TCL_SCALE=quick|standard|full`) that trades runtime
//!   for fidelity without changing the experiment's structure;
//! * the two dataset presets standing in for CIFAR-10 and ImageNet;
//! * a trained-model cache (`TCL_MODEL_DIR`, default `target/tcl-models`)
//!   so Table 1, Figure 1, and the ablations reuse the same trained
//!   networks: each model's training checkpoint store is its cache entry;
//! * plain-text table formatting and CSV output under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fs;
use std::path::PathBuf;
use tcl_data::{SynthSpec, SynthVision};
use tcl_models::{Architecture, ModelConfig};
use tcl_nn::{Network, TrainConfig};
use tcl_tensor::SeededRng;

/// Master seed shared by every harness so experiments are reproducible and
/// mutually consistent.
pub const MASTER_SEED: u64 = 0x0DAC_2021;

/// Experiment size: trades wall-clock for fidelity. The experiment
/// *structure* (architectures, strategies, latency grids) never changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale smoke run.
    Quick,
    /// The default; tens of minutes on one core.
    Standard,
    /// Larger datasets and longer training.
    Full,
}

impl Scale {
    /// Reads `TCL_SCALE` (`quick`/`standard`/`full`), defaulting to
    /// [`Scale::Standard`].
    pub fn from_env() -> Self {
        match std::env::var("TCL_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Standard,
        }
    }

    /// Dataset size multiplier.
    pub fn data_factor(&self) -> f32 {
        match self {
            Scale::Quick => 0.3,
            Scale::Standard => 1.0,
            Scale::Full => 2.0,
        }
    }

    /// Training epochs.
    pub fn epochs(&self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Standard => 30,
            Scale::Full => 60,
        }
    }

    /// Learning-rate milestones (paper-style step schedule scaled down).
    pub fn milestones(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![7],
            Scale::Standard => vec![18, 25],
            Scale::Full => vec![35, 50],
        }
    }

    /// Latency checkpoints for Table-1-style sweeps.
    pub fn checkpoints(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![10, 25, 50, 100],
            _ => vec![50, 100, 150, 200, 250],
        }
    }

    /// Number of test images used for SNN latency sweeps. Sweeps cost
    /// `O(test × T × forward)`, so — exactly like the paper's Rueckauer
    /// baseline rows, which report ImageNet numbers "on a subset of 2570
    /// samples" — the harness evaluates SNNs on a test subset at the lower
    /// scales. ANN accuracies are reported on the same subset for a fair
    /// gap comparison.
    pub fn eval_subset(&self) -> usize {
        match self {
            Scale::Quick => 100,
            Scale::Standard => 200,
            Scale::Full => usize::MAX,
        }
    }

    /// Lowercase name (used in cache keys).
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Standard => "standard",
            Scale::Full => "full",
        }
    }
}

/// The two evaluation datasets of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// CIFAR-10 stand-in.
    Cifar,
    /// ImageNet stand-in (wider activation distributions).
    Imagenet,
}

impl DatasetKind {
    /// Paper's Table 1 heading for this dataset.
    pub fn title(&self) -> &'static str {
        match self {
            DatasetKind::Cifar => "Cifar-10 (synthetic stand-in)",
            DatasetKind::Imagenet => "Imagenet (synthetic stand-in)",
        }
    }

    /// Short name for cache keys and CSV files.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Cifar => "cifar",
            DatasetKind::Imagenet => "imagenet",
        }
    }

    /// The spec at a given scale.
    pub fn spec(&self, scale: Scale) -> SynthSpec {
        let base = match self {
            DatasetKind::Cifar => SynthSpec::cifar10_like(),
            DatasetKind::Imagenet => SynthSpec::imagenet_like(),
        };
        base.scaled(scale.data_factor())
    }

    /// The paper's initial clipping bound λ₀ (Section 6: 2.0 for Cifar-10,
    /// 4.0 for Imagenet).
    pub fn lambda0(&self) -> f32 {
        match self {
            DatasetKind::Cifar => 2.0,
            DatasetKind::Imagenet => 4.0,
        }
    }

    /// Architectures the paper evaluates on this dataset ("ours" rows).
    pub fn architectures(&self) -> Vec<Architecture> {
        match self {
            DatasetKind::Cifar => vec![
                Architecture::Cnn6,
                Architecture::Vgg16,
                Architecture::ResNet18,
            ],
            DatasetKind::Imagenet => vec![Architecture::Vgg16, Architecture::ResNet34],
        }
    }

    /// Generates the dataset deterministically.
    pub fn generate(&self, scale: Scale) -> SynthVision {
        let seed = match self {
            DatasetKind::Cifar => MASTER_SEED,
            DatasetKind::Imagenet => MASTER_SEED ^ 0x1111_2222,
        };
        SynthVision::generate(&self.spec(scale), seed).expect("valid preset spec")
    }
}

/// Directory for cached trained models.
pub fn model_cache_dir() -> PathBuf {
    std::env::var("TCL_MODEL_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/tcl-models"))
}

/// Directory for experiment outputs (CSV files).
pub fn results_dir() -> PathBuf {
    std::env::var("TCL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Trains (or loads from cache) one model.
///
/// The cache key encodes everything that affects the trained weights,
/// including the training-config fingerprint (and with it the SIMD
/// trajectory class); rerun with a fresh `TCL_MODEL_DIR` to retrain from
/// scratch.
///
/// The cache entry is the model's training checkpoint store,
/// `<cache>/<key>.ckpt/`: full state (parameters, momentum, RNG streams)
/// is snapshotted every `TCL_CKPT_EVERY` epochs (default 5) and at the end
/// of training. A killed run resumes bit-exactly from the newest valid
/// snapshot on the next invocation, and a finished one resumes at its last
/// epoch, so it trains nothing and returns the stored network.
///
/// # Panics
///
/// Panics on unrecoverable harness errors (invalid presets, I/O failures) —
/// these binaries are experiment drivers, not library code.
pub fn train_or_load(
    arch: Architecture,
    dataset: DatasetKind,
    data: &SynthVision,
    clip_lambda: Option<f32>,
    scale: Scale,
) -> Network {
    let key = format!(
        "{}-{}-{}-{}-w8-s{}",
        dataset.name(),
        arch.name().to_lowercase().replace([',', ' '], ""),
        match clip_lambda {
            Some(l) => format!("tcl{l}"),
            None => "base".to_string(),
        },
        scale.name(),
        MASTER_SEED,
    );
    let (c, h, w) = data.train.image_shape();
    let cfg = ModelConfig::new((c, h, w), data.train.classes())
        .with_base_width(8)
        .with_clip_lambda(clip_lambda);
    let mut rng = SeededRng::new(MASTER_SEED ^ arch.name().len() as u64);
    let mut net = arch
        .build(&cfg, &mut rng)
        .expect("preset architectures build");
    let train_cfg = TrainConfig {
        verbose: true,
        ..TrainConfig::standard(scale.epochs(), 32, 0.05, &scale.milestones())
            .expect("valid schedule")
    };
    // The training fingerprint includes the SIMD trajectory class, which
    // the store refuses to resume across: each class gets its own entry.
    let store = model_cache_dir().join(format!(
        "{key}-{:016x}.ckpt",
        tcl_nn::config_fingerprint(&train_cfg)
    ));
    tcl_core::train_resumable(
        &mut net,
        data.train.images(),
        data.train.labels(),
        Some((data.test.images(), data.test.labels())),
        &train_cfg,
        Some(&store),
    )
    .expect("training succeeds on preset data");
    net
}

/// The `--help` text shared by every bench binary.
pub fn help_text(bin: &str, about: &str) -> String {
    format!(
        "{bin} — {about}\n\
         \n\
         usage: {bin} [--resume] [--help]\n\
         \n\
         flags:\n\
         \x20 --resume                       continue an interrupted training run from its\n\
         \x20                                newest valid checkpoint; resume is automatic,\n\
         \x20                                the flag only states the intent explicitly\n\
         \n\
         environment:\n\
         \x20 TCL_SCALE=quick|standard|full  experiment size (default standard)\n\
         \x20 TCL_MODEL_DIR=DIR              trained-model cache (default target/tcl-models)\n\
         \x20 TCL_CKPT_EVERY=N               training checkpoint interval in epochs (default 5)\n\
         \x20 TCL_RESULTS_DIR=DIR            output directory (default results)\n\
         \x20 TCL_TRACE=1|PATH               stream JSONL telemetry to stderr or PATH\n\
         \x20 TCL_METRICS=1                  metrics registry + end-of-run summary\n\
         \x20 TCL_THREADS=N                  worker threads for the compute kernels\n"
    )
}

/// Prints [`help_text`] and returns `true` when the process arguments ask
/// for help (`--help`/`-h`); the binary should then return immediately.
/// Other arguments pass through untouched — some binaries take flags of
/// their own (e.g. `table1 --dataset cifar`).
pub fn help_requested(bin: &str, about: &str) -> bool {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        // Ignore write errors: `--help | grep -q ...` closes the pipe as
        // soon as it matches, and a broken pipe must not become a panic.
        use std::io::Write;
        let _ = writeln!(std::io::stdout(), "{}", help_text(bin, about));
        return true;
    }
    false
}

/// Writes a per-layer conversion diagnostics report under `results/` as
/// `diagnostics_<name>.jsonl` and returns the path.
///
/// # Panics
///
/// Panics on I/O failure (harness context).
pub fn write_diagnostics(name: &str, diag: &tcl_core::ConversionDiagnostics) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("diagnostics_{name}.jsonl"));
    diag.write_jsonl(&path).expect("write diagnostics jsonl");
    path
}

/// Renders an aligned text table: `header` then `rows`.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:<width$}", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Writes rows as CSV under `results/` and returns the path.
///
/// # Panics
///
/// Panics on I/O failure (harness context).
pub fn write_csv(name: &str, header: &[String], rows: &[Vec<String>]) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.csv"));
    let mut text = String::new();
    text.push_str(&header.join(","));
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    fs::write(&path, text).expect("write csv");
    path
}

/// Formats an accuracy as the paper prints them (`92.76%`).
pub fn pct(x: f32) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_knobs_are_ordered() {
        assert!(Scale::Quick.epochs() < Scale::Standard.epochs());
        assert!(Scale::Standard.epochs() < Scale::Full.epochs());
        assert!(Scale::Quick.data_factor() < Scale::Full.data_factor());
    }

    #[test]
    fn dataset_presets_match_paper_settings() {
        assert_eq!(DatasetKind::Cifar.lambda0(), 2.0);
        assert_eq!(DatasetKind::Imagenet.lambda0(), 4.0);
        assert_eq!(DatasetKind::Cifar.architectures().len(), 3);
        assert_eq!(DatasetKind::Imagenet.architectures().len(), 2);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let header = vec!["a".to_string(), "bbbb".to_string()];
        let rows = vec![
            vec!["xxx".to_string(), "y".to_string()],
            vec!["z".to_string(), "wwwww".to_string()],
        ];
        let table = render_table(&header, &rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a    bbbb"));
        assert!(lines[2].starts_with("xxx  y"));
    }

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.9276), "92.76%");
        assert_eq!(pct(1.0), "100.00%");
    }

    #[test]
    fn standard_checkpoints_match_table1() {
        assert_eq!(Scale::Standard.checkpoints(), vec![50, 100, 150, 200, 250]);
    }

    #[test]
    fn help_text_names_the_binary_and_knobs() {
        let text = help_text("table1", "regenerates Table 1");
        assert!(text.starts_with("table1 — regenerates Table 1"));
        for knob in [
            "TCL_SCALE",
            "TCL_CKPT_EVERY",
            "TCL_TRACE",
            "TCL_METRICS",
            "TCL_THREADS",
            "--resume",
        ] {
            assert!(text.contains(knob), "missing {knob}");
        }
    }
}
