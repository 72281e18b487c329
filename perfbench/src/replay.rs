//! Layer-by-layer replay of one inference through the public processing
//! units — `ConvolutionUnit`, `PoolingUnit`, `LinearUnit` — band by band
//! where `memory::plan_network_tiles` splits a layer, each layer timed as a
//! span.  The replay's counters and logits are checked against the engine's
//! `RunReport`, so the per-layer table cannot drift from the engine.

use crate::spans::SpanLog;
use snn_accel::config::AcceleratorConfig;
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::memory::{LayerTiling, RowBand, TilePlan};
use snn_accel::pool::PoolingUnit;
use snn_accel::report::RunReport;
use snn_accel::units::UnitStats;
use snn_model::snn::{requantize, SnnLayer, SnnModel};
use snn_tensor::bitplane::BitPlanes;
use snn_tensor::Tensor;

/// One replayed layer (Flatten is not replayed).
pub struct LayerReplay {
    pub index: usize,
    /// The span timing the layer's unit calls, requantisation included.
    pub span: usize,
    pub stats: UnitStats,
    /// Share of input levels that spike at least once.
    pub input_density: f64,
    /// Packed input plane words, and how many of them are all zero
    /// (conv and linear inputs only; zero for pooling).
    pub words: u64,
    pub silent_words: u64,
}

pub struct Replay {
    pub layers: Vec<LayerReplay>,
    pub logits: Vec<i64>,
}

struct Units {
    conv: ConvolutionUnit,
    pool: PoolingUnit,
    linear: LinearUnit,
}

fn requant(acc: &Tensor<i64>, scale: Option<f32>, max_level: i64) -> Tensor<i64> {
    match scale {
        Some(r) => acc.map(|&v| requantize(v, r, max_level)),
        None => acc.clone(),
    }
}

/// Rows `band.in_lo..band.in_hi` of a `[C, H, W]` map.
fn band_rows(levels: &Tensor<i64>, band: &RowBand) -> Tensor<i64> {
    let dims = levels.shape().dims();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let src = levels.as_slice();
    let mut data = Vec::with_capacity(c * band.in_rows() * w);
    for ch in 0..c {
        data.extend_from_slice(&src[ch * h * w + band.in_lo * w..ch * h * w + band.in_hi * w]);
    }
    Tensor::from_vec(vec![c, band.in_rows(), w], data).expect("band shape")
}

/// Writes a `[C, rows, W]` band into `dst` at output row `out_lo`.
fn put_rows(dst: &mut Tensor<i64>, band: &Tensor<i64>, out_lo: usize) {
    let dims = dst.shape().dims().to_vec();
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let rows = band.shape().dims()[1];
    let src = band.as_slice();
    let out = dst.as_mut_slice();
    for ch in 0..c {
        out[ch * h * w + out_lo * w..ch * h * w + (out_lo + rows) * w]
            .copy_from_slice(&src[ch * rows * w..(ch + 1) * rows * w]);
    }
}

fn plane_words(levels: &Tensor<i64>, time_steps: usize) -> (u64, u64) {
    let dims = levels.shape().dims();
    let width = *dims.last().expect("non-scalar activations");
    let rows = levels.len() / width;
    let planes = BitPlanes::pack(levels.as_slice(), rows, width, time_steps);
    let mut silent = 0;
    for t in 0..time_steps {
        for row in 0..rows {
            silent += planes.row(t, row).iter().filter(|&&w| w == 0).count() as u64;
        }
    }
    ((time_steps * rows * planes.words_per_row()) as u64, silent)
}

/// Replays `input` through `model` on `config`'s units under `plan`.
/// `parent`/`request` label the spans.
pub fn replay(
    model: &SnnModel,
    config: &AcceleratorConfig,
    plan: &TilePlan,
    input: &Tensor<f32>,
    spans: &mut SpanLog,
    parent: usize,
    request: u64,
) -> Replay {
    let units = Units {
        conv: ConvolutionUnit::with_options(
            config.conv_geometry,
            config.dense_gather_threshold,
            config.product_sparsity,
        ),
        pool: PoolingUnit::new(config.pool_geometry),
        linear: LinearUnit::with_threshold(config.linear_lanes, config.dense_gather_threshold),
    };
    let t = model.time_steps();
    let max_level = model.max_level();
    let spec = model.spec();
    let mut current = model.encode_input(input).expect("encode input");
    let mut layers = Vec::new();
    for (index, layer) in model.layers().iter().enumerate() {
        if let SnnLayer::Flatten = layer {
            let volume = current.len();
            current = current.reshape(vec![volume]).expect("flatten");
            continue;
        }
        let nonzero = current.iter().filter(|&&v| v != 0).count();
        let input_density = nonzero as f64 / current.len() as f64;
        let (words, silent_words) = match layer {
            SnnLayer::Pool { .. } => (0, 0),
            _ => plane_words(&current, t),
        };
        let span = spans.open(format!("layer.{index:02}"), Some(parent), Some(request));
        let tiling = plan.layers[index].as_ref();
        let out_shape = spec.layer_output_shape(index).to_vec();
        let mut stats = UnitStats::default();
        let next = match (layer, tiling) {
            (
                SnnLayer::Conv {
                    weight_codes,
                    bias_acc,
                    stride,
                    padding,
                    requant: scale,
                },
                Some(LayerTiling::RowBands { bands, .. }),
            ) => {
                let mut out = Tensor::filled(out_shape, 0i64);
                for band in bands {
                    let (result, _) = spans.time("band", Some(span), Some(request), || {
                        let r = units
                            .conv
                            .run_layer_band(
                                &band_rows(&current, band),
                                weight_codes,
                                bias_acc,
                                t,
                                *stride,
                                *padding,
                                band,
                            )
                            .expect("conv band");
                        put_rows(
                            &mut out,
                            &requant(&r.accumulators, *scale, max_level),
                            band.out_lo,
                        );
                        r.stats
                    });
                    stats += result;
                }
                out
            }
            (
                SnnLayer::Conv {
                    weight_codes,
                    bias_acc,
                    stride,
                    padding,
                    requant: scale,
                },
                _,
            ) => {
                let r = units
                    .conv
                    .run_layer(&current, weight_codes, bias_acc, t, *stride, *padding)
                    .expect("conv layer");
                stats = r.stats;
                requant(&r.accumulators, *scale, max_level)
            }
            (SnnLayer::Pool { kind, window }, Some(LayerTiling::RowBands { bands, .. })) => {
                let mut out = Tensor::filled(out_shape, 0i64);
                for band in bands {
                    let (result, _) = spans.time("band", Some(span), Some(request), || {
                        let r = units
                            .pool
                            .run_layer_band(&band_rows(&current, band), *kind, *window, t, band)
                            .expect("pool band");
                        put_rows(&mut out, &r.levels, band.out_lo);
                        r.stats
                    });
                    stats += result;
                }
                out
            }
            (SnnLayer::Pool { kind, window }, _) => {
                let r = units
                    .pool
                    .run_layer(&current, *kind, *window, t)
                    .expect("pool layer");
                stats = r.stats;
                r.levels
            }
            (
                SnnLayer::Linear {
                    weight_codes,
                    bias_acc,
                    requant: scale,
                },
                tiling,
            ) => {
                let r =
                    match tiling {
                        Some(LayerTiling::OutputChunks { chunk }) => units
                            .linear
                            .run_layer_chunked(&current, weight_codes, bias_acc, t, *chunk),
                        _ => units.linear.run_layer(&current, weight_codes, bias_acc, t),
                    }
                    .expect("linear layer");
                stats = r.stats;
                requant(&r.accumulators, *scale, max_level)
            }
            (SnnLayer::Flatten, _) => unreachable!("flatten is skipped above"),
        };
        spans.close(span);
        layers.push(LayerReplay {
            index,
            span,
            stats,
            input_density,
            words,
            silent_words,
        });
        current = next;
    }
    Replay {
        layers,
        logits: current.into_vec(),
    }
}

/// Whether the replay reproduces the engine: every replayed layer's
/// counters (summed over bands) equal the report's layer `work`, and the
/// logits agree.
pub fn matches_report(replay: &Replay, report: &RunReport) -> bool {
    replay.logits == report.logits
        && replay.layers.iter().all(|layer| {
            report
                .layers
                .iter()
                .find(|l| l.index == layer.index)
                .is_some_and(|l| l.work == layer.stats)
        })
}
