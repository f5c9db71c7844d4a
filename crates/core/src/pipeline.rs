//! End-to-end convenience pipeline: ANN accuracy + conversion + latency
//! sweep, packaged for the examples and the benchmark harnesses.

use crate::convert::{Conversion, Converter};
use crate::error::Result;
use serde::{Deserialize, Serialize};
use std::path::Path;
use tcl_nn::{
    evaluate as ann_evaluate, CheckpointConfig, Network, TrainConfig, TrainReport, Trainer,
};
use tcl_snn::{Engine, EngineResult, ExitPolicy, SimConfig, SweepResult};
use tcl_tensor::Tensor;

/// Outcome of converting one trained ANN and sweeping its SNN over a
/// latency grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConversionReport {
    /// Test accuracy of the source ANN (evaluation mode).
    pub ann_accuracy: f32,
    /// SNN accuracy at each latency checkpoint plus spike activity.
    pub sweep: SweepResult,
    /// Resolved norm-factors (one per activation site; last is the output
    /// site).
    pub lambdas: Vec<f32>,
    /// Human-readable name of the norm strategy used.
    pub strategy_name: String,
}

impl ConversionReport {
    /// The SNN-vs-ANN accuracy gap at latency `t` (positive = SNN worse),
    /// if `t` was a checkpoint.
    pub fn gap_at(&self, t: usize) -> Option<f32> {
        self.sweep.accuracy_at(t).map(|a| self.ann_accuracy - a)
    }
}

/// Trains the ANN leg of the pipeline with crash-safe checkpointing.
///
/// Training is by far the most expensive stage of train → convert →
/// simulate, so this is the stage that must survive interruption. When
/// `checkpoint_dir` is given, full training state (parameters, momentum,
/// RNG streams, epoch cursor) is snapshotted every `TCL_CKPT_EVERY` epochs
/// (default 5) and an interrupted run transparently resumes **bit-exactly**
/// from the newest valid snapshot — a corrupted newest snapshot falls back
/// to the previous one. With `checkpoint_dir = None` this is plain
/// [`tcl_nn::train`].
///
/// # Errors
///
/// Propagates training and checkpoint errors (including a refusal to
/// resume when the snapshot was written with different hyper-parameters).
pub fn train_resumable(
    net: &mut Network,
    inputs: &Tensor,
    labels: &[usize],
    eval: Option<(&Tensor, &[usize])>,
    config: &TrainConfig,
    checkpoint_dir: Option<&Path>,
) -> Result<TrainReport> {
    let _span =
        tcl_telemetry::span_with("pipeline.train", || vec![("epochs", config.epochs as f64)]);
    let mut trainer = Trainer::new(config.clone());
    if let Some(dir) = checkpoint_dir {
        trainer = trainer.with_checkpoints(CheckpointConfig::new(dir));
    }
    Ok(trainer.run_resumable(net, inputs, labels, eval)?)
}

/// Converts `net` with `converter` and evaluates both the ANN and the SNN
/// on `(test_images, test_labels)`, using `calibration` for activation
/// statistics: [`convert_and_evaluate_with`] on a fresh [`Engine`] with
/// early exit off.
///
/// # Errors
///
/// Propagates conversion, evaluation, and shape errors.
///
/// # Examples
///
/// ```
/// use tcl_core::{convert_and_evaluate, Converter, NormStrategy};
/// use tcl_models::{Architecture, ModelConfig};
/// use tcl_snn::{Readout, SimConfig};
/// use tcl_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(0);
/// let cfg = ModelConfig::new((3, 8, 8), 4)
///     .with_base_width(2)
///     .with_clip_lambda(Some(2.0));
/// let mut net = Architecture::Cnn6.build(&cfg, &mut rng)?;
/// let images = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
/// let labels = vec![0, 1, 2, 3, 0, 1, 2, 3];
/// let sim = SimConfig::new(vec![10], 4, Readout::SpikeCount)?;
/// let report = convert_and_evaluate(
///     &mut net,
///     &images,
///     &images,
///     &labels,
///     &Converter::new(NormStrategy::TrainedClip),
///     &sim,
/// )?;
/// assert_eq!(report.sweep.accuracies.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn convert_and_evaluate(
    net: &mut Network,
    calibration: &Tensor,
    test_images: &Tensor,
    test_labels: &[usize],
    converter: &Converter,
    sim: &SimConfig,
) -> Result<ConversionReport> {
    let report = convert_and_evaluate_with(
        &mut Engine::new(),
        net,
        calibration,
        test_images,
        test_labels,
        converter,
        sim,
        ExitPolicy::Off,
    )?;
    Ok(ConversionReport {
        ann_accuracy: report.ann_accuracy,
        sweep: report.result.sweep,
        lambdas: report.lambdas,
        strategy_name: report.strategy_name,
    })
}

/// Like [`ConversionReport`], but produced by the persistent inference
/// engine, so it additionally carries the per-sample early-exit diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineReport {
    /// Test accuracy of the source ANN (evaluation mode).
    pub ann_accuracy: f32,
    /// Engine evaluation: checkpoint sweep plus exit steps, anytime
    /// accuracy, and the margin trajectory.
    pub result: EngineResult,
    /// Resolved norm-factors (one per activation site; last is the output
    /// site).
    pub lambdas: Vec<f32>,
    /// Human-readable name of the norm strategy used.
    pub strategy_name: String,
}

/// Converts `net` with `converter` and evaluates the ANN and, on a
/// caller-provided [`Engine`] under an explicit [`ExitPolicy`], the SNN.
/// The engine's worker pool and cached replicas survive across calls, which
/// is what the benchmark drivers want when they sweep many strategies over
/// the same data; `ExitPolicy::Adaptive` turns on per-sample early exit.
///
/// # Errors
///
/// Propagates conversion, evaluation, and shape errors.
#[allow(clippy::too_many_arguments)] // one argument per pipeline stage
pub fn convert_and_evaluate_with(
    engine: &mut Engine,
    net: &mut Network,
    calibration: &Tensor,
    test_images: &Tensor,
    test_labels: &[usize],
    converter: &Converter,
    sim: &SimConfig,
    policy: ExitPolicy,
) -> Result<EngineReport> {
    let _span = tcl_telemetry::span_with("pipeline.convert_eval", || {
        vec![("samples", test_labels.len() as f64)]
    });
    let ann_accuracy = ann_evaluate(net, test_images, test_labels, sim.batch_size)?;
    let Conversion { snn, lambdas, .. } = converter.convert(net, calibration)?;
    let result = engine.evaluate(&snn, test_images, test_labels, sim, policy)?;
    if tcl_telemetry::metrics_enabled() {
        tcl_telemetry::gauge_set("pipeline.ann_accuracy", f64::from(ann_accuracy));
        if let Some(&(_, acc)) = result.sweep.accuracies.last() {
            tcl_telemetry::gauge_set("pipeline.snn_accuracy", f64::from(acc));
        }
    }
    Ok(EngineReport {
        ann_accuracy,
        result,
        lambdas,
        strategy_name: converter.strategy.name(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::NormStrategy;
    use tcl_models::{Architecture, ModelConfig};
    use tcl_snn::Readout;
    use tcl_tensor::SeededRng;

    #[test]
    fn report_exposes_gap() {
        let mut rng = SeededRng::new(0);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_clip_lambda(Some(2.0));
        let mut net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
        let images = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let sim = SimConfig::new(vec![5, 20], 4, Readout::SpikeCount).unwrap();
        let report = convert_and_evaluate(
            &mut net,
            &images,
            &images,
            &labels,
            &Converter::new(NormStrategy::TrainedClip),
            &sim,
        )
        .unwrap();
        assert!(report.gap_at(5).is_some());
        assert!(report.gap_at(7).is_none());
        assert_eq!(report.strategy_name, "tcl");
        assert_eq!(report.lambdas.len(), 6);
    }

    #[test]
    fn engine_pipeline_matches_one_shot_pipeline_with_exit_off() {
        let mut rng = SeededRng::new(0);
        let cfg = ModelConfig::new((3, 8, 8), 4)
            .with_base_width(2)
            .with_clip_lambda(Some(2.0));
        let mut net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
        let images = rng.uniform_tensor([8, 3, 8, 8], -1.0, 1.0);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let sim = SimConfig::new(vec![5, 20], 4, Readout::SpikeCount).unwrap();
        let converter = Converter::new(NormStrategy::TrainedClip);
        let reference =
            convert_and_evaluate(&mut net, &images, &images, &labels, &converter, &sim).unwrap();
        let mut engine = Engine::with_threads(2);
        let report = convert_and_evaluate_with(
            &mut engine,
            &mut net,
            &images,
            &images,
            &labels,
            &converter,
            &sim,
            ExitPolicy::Off,
        )
        .unwrap();
        assert_eq!(report.ann_accuracy, reference.ann_accuracy);
        assert_eq!(report.result.sweep.accuracies, reference.sweep.accuracies);
        assert_eq!(
            report.result.sweep.total_spikes,
            reference.sweep.total_spikes
        );
        assert_eq!(report.lambdas, reference.lambdas);
        assert_eq!(report.result.saved_steps, 0);
    }
}
