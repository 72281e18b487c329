//! The two benchmark models, their seeded input pools and the functional
//! oracle every measured output is checked against.

use snn_accel::config::AcceleratorConfig;
use snn_data::digits::SyntheticDigits;
use snn_data::objects::SyntheticObjects;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::{zoo, NetworkSpec};
use snn_tensor::Tensor;

/// Spike-train length of every workload.
pub const TIME_STEPS: usize = 4;
/// Weight precision of every workload (the paper's 3 bits).
pub const WEIGHT_BITS: u8 = 3;
/// Seed of `Parameters::he_init` and of the calibration images.  Fixed, so
/// every run serves the same model; the CLI seed picks the inputs only.
const MODEL_SEED: u64 = 7;
const CALIBRATION_IMAGES: usize = 4;

/// Which of the two networks a workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// LeNet-5 on `AcceleratorConfig::lenet_table3()`, sparse digit inputs.
    Lenet,
    /// VGG-11 (CIFAR-10 shape) on `AcceleratorConfig::vgg11_tiled()`,
    /// dense object inputs.
    Vgg,
}

impl Net {
    pub fn spec(self) -> NetworkSpec {
        match self {
            Net::Lenet => zoo::lenet5(),
            Net::Vgg => zoo::vgg11_cifar10(),
        }
    }

    pub fn config(self) -> AcceleratorConfig {
        match self {
            Net::Lenet => AcceleratorConfig::lenet_table3(),
            Net::Vgg => AcceleratorConfig::vgg11_tiled(),
        }
    }

    /// Modelled cycles of one inference.  The schedule is static, so every
    /// `RunReport` and SCORES reply must carry exactly this count; a host
    /// change that moves it changed the modelled chip.
    pub fn pinned_cycles(self) -> u64 {
        match self {
            Net::Lenet => 31_392,
            Net::Vgg => 7_154_803,
        }
    }

    /// `count` distinct images drawn from the net's synthetic dataset.
    pub fn images(self, count: usize, seed: u64) -> Vec<Tensor<f32>> {
        let dataset = match self {
            Net::Lenet => SyntheticDigits::new(32).generate(count, seed),
            Net::Vgg => SyntheticObjects::new(32, 10).generate(count, seed),
        };
        dataset.iter().map(|(image, _)| image.clone()).collect()
    }

    /// Converts `Parameters::he_init(MODEL_SEED)` into a T = 4, 3-bit SNN,
    /// calibrated on a fixed image set.
    pub fn convert(self) -> SnnModel {
        let net = self.spec();
        let params = Parameters::he_init(&net, MODEL_SEED).expect("he_init parameters");
        let calibration = self.images(CALIBRATION_IMAGES, MODEL_SEED);
        let stats =
            CalibrationStats::collect(&net, &params, calibration.iter()).expect("calibration");
        convert(
            &net,
            &params,
            &stats,
            ConversionConfig {
                weight_bits: WEIGHT_BITS,
                time_steps: TIME_STEPS,
            },
        )
        .expect("ANN-to-SNN conversion")
    }
}

/// A seeded pool of distinct inputs with their expected logits from the
/// functional model `SnnModel::forward`, computed before any timing.
pub struct Pool {
    pub images: Vec<Tensor<f32>>,
    pub logits: Vec<Vec<i64>>,
    pub cycles: u64,
}

impl Pool {
    pub fn new(net: Net, model: &SnnModel, count: usize, seed: u64) -> Self {
        let images = net.images(count, seed);
        let logits = images
            .iter()
            .map(|image| {
                model
                    .forward(image)
                    .expect("functional oracle")
                    .logits()
                    .as_slice()
                    .to_vec()
            })
            .collect();
        Pool {
            images,
            logits,
            cycles: net.pinned_cycles(),
        }
    }

    /// The input served as request `id`.
    pub fn image(&self, id: u64) -> &Tensor<f32> {
        &self.images[id as usize % self.images.len()]
    }

    /// Whether a reply to request `id` is the oracle's answer.
    pub fn is_correct(&self, id: u64, logits: &[i64], cycles: u64) -> bool {
        cycles == self.cycles && self.logits[id as usize % self.logits.len()] == logits
    }
}
