//! The model every workload shares: a TCL-trained cnn6 on the cifar-like
//! synthetic set at quick scale, converted with trained clipping bounds.

use std::sync::Arc;
use std::time::Instant;

use tcl_core::{Converter, NormStrategy};
use tcl_data::{SynthSpec, SynthVision};
use tcl_models::{Architecture, ModelConfig};
use tcl_nn::{Network, TrainConfig};
use tcl_snn::SpikingNetwork;
use tcl_tensor::{SeededRng, Tensor};

use crate::trace::Tracer;

/// Data and weights seed, shared with the repo's experiment harnesses.
const MASTER_SEED: u64 = 0x0DAC_2021;
/// Quick-scale dataset factor: 600 train and 120 test images.
const DATA_FACTOR: f32 = 0.3;
/// Quick-scale training schedule.
const EPOCHS: usize = 10;
const MILESTONES: [usize; 1] = [7];
/// The paper's initial clipping bound for Cifar-10.
const LAMBDA0: f32 = 2.0;
/// Training images used to calibrate the conversion.
const CALIBRATION: usize = 200;

/// The converted model and what built it.
pub struct Model {
    pub data: SynthVision,
    pub ann: Network,
    pub calibration: Tensor,
    pub snn: Arc<SpikingNetwork>,
}

/// Phase times of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub data_ms: f64,
    pub train_s: f64,
}

/// Generates the data, trains and converts the model. Nothing is read
/// from or written to disk: every set-up repeats the same work.
pub fn build(tracer: &mut Tracer) -> (Model, SetupTimes) {
    tracer.open("setup.data");
    let t = Instant::now();
    let spec = SynthSpec::cifar10_like().scaled(DATA_FACTOR);
    let data = SynthVision::generate(&spec, MASTER_SEED).expect("valid preset spec");
    let data_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close();

    tracer.open("setup.train");
    let t = Instant::now();
    let (c, h, w) = data.train.image_shape();
    let cfg = ModelConfig::new((c, h, w), data.train.classes())
        .with_base_width(8)
        .with_clip_lambda(Some(LAMBDA0));
    let arch = Architecture::Cnn6;
    let mut rng = SeededRng::new(MASTER_SEED ^ arch.name().len() as u64);
    let mut ann = arch.build(&cfg, &mut rng).expect("cnn6 builds");
    let train_cfg = TrainConfig::standard(EPOCHS, 32, 0.05, &MILESTONES).expect("valid schedule");
    tcl_core::train_resumable(
        &mut ann,
        data.train.images(),
        data.train.labels(),
        None,
        &train_cfg,
        None,
    )
    .expect("training succeeds on preset data");
    let train_s = t.elapsed().as_secs_f64();
    tracer.close();

    tracer.open("setup.convert");
    let calibration = data.train.take(CALIBRATION).images().clone();
    let snn = convert(&ann, &calibration);
    tracer.close();
    let model = Model {
        data,
        ann,
        calibration,
        snn: Arc::new(snn),
    };
    (model, SetupTimes { data_ms, train_s })
}

/// One TCL conversion of the trained network.
pub fn convert(ann: &Network, calibration: &Tensor) -> SpikingNetwork {
    Converter::new(NormStrategy::TrainedClip)
        .convert(ann, calibration)
        .expect("tcl conversion")
        .snn
}

/// Training images processed per second of training.
pub fn train_images_per_s(model: &Model, train_s: f64) -> f64 {
    (EPOCHS * model.data.train.len()) as f64 / train_s
}
