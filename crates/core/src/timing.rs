//! Analytical latency model derived from the loop hierarchy of Alg. 1.
//!
//! The processing units in [`crate::conv`], [`crate::pool`] and
//! [`crate::linear`] derive their cycle counters from the same closed-form
//! expressions this module evaluates (the schedule is static, so counting
//! and predicting coincide exactly — a property the unit tests pin down);
//! this module adds the system-level effects the units cannot see: the
//! division of output channels across multiple
//! convolution units, the packing of several narrow output channels into
//! one unit, the flatten transfer between the 2-D and 1-D buffers, and the
//! DRAM weight-fetch time for models that do not fit on chip.
//!
//! The model reproduces the latency *trends* of the paper:
//!
//! * latency scales linearly with the spike-train length `T` (Table I),
//! * duplicating convolution units reduces latency sub-linearly because the
//!   pooling and linear stages are not duplicated (Table II).

use crate::config::{AcceleratorConfig, MemoryOption};
use crate::conv::ConvolutionUnit;
use crate::linear::LinearUnit;
use crate::memory::DramModel;
use crate::pool::PoolingUnit;
use crate::{AccelError, Result};
use serde::{Deserialize, Serialize};
use snn_model::{LayerSpec, NetworkSpec};

/// The kind of processing stage a layer maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageKind {
    /// Executed on the convolution units.
    Convolution,
    /// Executed on the pooling unit.
    Pooling,
    /// Buffer transfer from the 2-D to the 1-D ping-pong memory.
    Flatten,
    /// Executed on the linear unit.
    Linear,
}

/// Predicted timing of a single layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Index of the layer in the network.
    pub layer: usize,
    /// Which processing stage executes it.
    pub kind: StageKind,
    /// Cycles spent computing.
    pub compute_cycles: u64,
    /// Cycles spent fetching weights from DRAM before the layer starts
    /// (zero for on-chip weight storage).
    pub weight_fetch_cycles: u64,
}

impl LayerTiming {
    /// Total cycles contributed by this layer.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.weight_fetch_cycles
    }
}

/// Predicted timing of a whole network execution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingReport {
    /// Per-layer breakdown.
    pub layers: Vec<LayerTiming>,
    /// Spike-train length the prediction was made for.
    pub time_steps: usize,
}

impl TimingReport {
    /// Total cycles for one inference.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.total_cycles()).sum()
    }

    /// Total cycles spent on convolution layers only.
    pub fn convolution_cycles(&self) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.kind == StageKind::Convolution)
            .map(|l| l.total_cycles())
            .sum()
    }

    /// Latency in microseconds at the configured clock.
    pub fn latency_us(&self, config: &AcceleratorConfig) -> f64 {
        config.cycles_to_us(self.total_cycles())
    }

    /// Throughput in frames per second assuming back-to-back inferences.
    pub fn throughput_fps(&self, config: &AcceleratorConfig) -> f64 {
        1.0e6 / self.latency_us(config)
    }
}

/// How many output channels one convolution unit can process concurrently
/// for an output row of `w_out` values: multiple output channels share a
/// unit if their rows fit side by side in the X adder columns.
pub fn channels_per_conv_unit(config: &AcceleratorConfig, w_out: usize) -> usize {
    if w_out == 0 {
        return 1;
    }
    (config.conv_geometry.columns / w_out).max(1)
}

/// How a convolution layer's output channels are scheduled across the
/// convolution units, including the **straggler group** that arises when
/// `c_out` is not a multiple of `units * channels_per_unit`.
///
/// Every group costs the same `per_group_cycles` regardless of how many
/// channels it carries (a pass streams all input rows through the adder
/// array whether one channel or all of them are mapped), so the layer
/// *makespan* is exactly `groups * per_group_cycles` — the straggler does
/// not stretch it.  What the perfectly-balanced assumption got wrong is
/// the **unit occupancy**: during the straggler pass only
/// `ceil(straggler_channels / channels_per_unit)` units compute and the
/// rest idle, which [`ConvGroupPlan::busy_unit_cycles`] and
/// [`ConvGroupPlan::unit_utilisation`] now model.  This is what makes the
/// execution engine's per-unit utilisation reports honest at uneven
/// splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvGroupPlan {
    /// Number of convolution units instantiated.
    pub conv_units: usize,
    /// Output channels that share one unit (rows packed side by side).
    pub channels_per_unit: usize,
    /// Sequential channel groups (passes), including the straggler.
    pub groups: usize,
    /// Channels in the final group when it is not full (`0` when the split
    /// is perfectly balanced).
    pub straggler_channels: usize,
    /// Cycles of one group pass (independent of the group's occupancy).
    pub per_group_cycles: u64,
}

impl ConvGroupPlan {
    /// Builds the schedule for one convolution layer on `config`.
    pub fn plan(
        config: &AcceleratorConfig,
        c_in: usize,
        c_out: usize,
        h_out: usize,
        w_out: usize,
        kernel: usize,
        time_steps: usize,
    ) -> Self {
        let unit = ConvolutionUnit::new(config.conv_geometry);
        // Work for a single output channel on a single unit.
        let per_group_cycles = unit.layer_cycles(c_in, 1, h_out, w_out, kernel, time_steps);
        let channels_per_unit = channels_per_conv_unit(config, w_out);
        Self::for_schedule(
            config.conv_units,
            channels_per_unit,
            c_out,
            per_group_cycles,
        )
    }

    /// Builds the schedule from already-computed quantities (used by the
    /// execution engine, which reads them off a compiled program step).
    pub fn for_schedule(
        conv_units: usize,
        channels_per_unit: usize,
        c_out: usize,
        per_group_cycles: u64,
    ) -> Self {
        let conv_units = conv_units.max(1);
        let channels_per_unit = channels_per_unit.max(1);
        let parallel = conv_units * channels_per_unit;
        ConvGroupPlan {
            conv_units,
            channels_per_unit,
            groups: c_out.div_ceil(parallel).max(1),
            straggler_channels: c_out % parallel,
            per_group_cycles,
        }
    }

    /// Units that compute during the straggler pass (`conv_units` when the
    /// split is balanced).
    pub fn active_units_in_straggler(&self) -> usize {
        if self.straggler_channels == 0 {
            self.conv_units
        } else {
            self.straggler_channels
                .div_ceil(self.channels_per_unit)
                .min(self.conv_units)
        }
    }

    /// Wall-clock cycles of the layer: every pass costs the same whether
    /// full or straggling.
    pub fn latency_cycles(&self) -> u64 {
        self.groups as u64 * self.per_group_cycles
    }

    /// Unit-cycles actually spent computing, counting only the active
    /// units of the straggler pass.
    pub fn busy_unit_cycles(&self) -> u64 {
        let full_groups = if self.straggler_channels == 0 {
            self.groups
        } else {
            self.groups - 1
        };
        let active = full_groups * self.conv_units
            + if self.straggler_channels == 0 {
                0
            } else {
                self.active_units_in_straggler()
            };
        active as u64 * self.per_group_cycles
    }

    /// Fraction of the available unit-cycles spent computing over the
    /// layer (`1.0` for a perfectly balanced split).
    pub fn unit_utilisation(&self) -> f64 {
        let available = (self.groups * self.conv_units) as u64 * self.per_group_cycles;
        if available == 0 {
            return 0.0;
        }
        self.busy_unit_cycles() as f64 / available as f64
    }
}

/// Latency in cycles of one convolution layer on the configured accelerator.
pub fn conv_layer_latency(
    config: &AcceleratorConfig,
    c_in: usize,
    c_out: usize,
    h_out: usize,
    w_out: usize,
    kernel: usize,
    time_steps: usize,
) -> u64 {
    ConvGroupPlan::plan(config, c_in, c_out, h_out, w_out, kernel, time_steps).latency_cycles()
}

/// Latency in cycles of one pooling layer (the pooling unit is not
/// duplicated).
pub fn pool_layer_latency(
    config: &AcceleratorConfig,
    channels: usize,
    h_out: usize,
    w_out: usize,
    window: usize,
    time_steps: usize,
) -> u64 {
    PoolingUnit::new(config.pool_geometry).layer_cycles(channels, h_out, w_out, window, time_steps)
}

/// Latency in cycles of one fully-connected layer.
pub fn linear_layer_latency(
    config: &AcceleratorConfig,
    inputs: usize,
    outputs: usize,
    time_steps: usize,
) -> u64 {
    LinearUnit::new(config.linear_lanes).layer_cycles(inputs, outputs, time_steps)
}

/// Latency in cycles of the flatten step: the feature maps are read out of
/// the 2-D buffer and written into the 1-D buffer one value per cycle.
pub fn flatten_latency(volume: usize) -> u64 {
    volume as u64
}

/// Predicts the per-layer and total latency of a network on the configured
/// accelerator.
///
/// # Errors
///
/// Returns [`AccelError::UnsupportedLayer`] when a convolution kernel has
/// more rows than the configured adder array.
pub fn network_timing(
    config: &AcceleratorConfig,
    net: &NetworkSpec,
    time_steps: usize,
) -> Result<TimingReport> {
    config.validate()?;
    let dram = DramModel::from_config(config);
    let mut layers = Vec::with_capacity(net.layers().len());
    for (i, layer) in net.layers().iter().enumerate() {
        let out_shape = net.layer_output_shape(i);
        let in_shape = net.layer_input_shape(i);
        let weight_bits = layer.parameter_count() as u64 * config.weight_bits as u64;
        let weight_fetch_cycles = match config.memory {
            MemoryOption::OnChip => 0,
            MemoryOption::Dram => dram.transfer_cycles(weight_bits),
        };
        let timing = match *layer {
            LayerSpec::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => {
                if kernel > config.conv_geometry.rows {
                    return Err(AccelError::UnsupportedLayer {
                        layer: i,
                        context: format!(
                            "kernel of {kernel} rows exceeds the {}-row adder array",
                            config.conv_geometry.rows
                        ),
                    });
                }
                LayerTiming {
                    layer: i,
                    kind: StageKind::Convolution,
                    compute_cycles: conv_layer_latency(
                        config,
                        in_channels,
                        out_channels,
                        out_shape[1],
                        out_shape[2],
                        kernel,
                        time_steps,
                    ),
                    weight_fetch_cycles,
                }
            }
            LayerSpec::Pool { window, .. } => LayerTiming {
                layer: i,
                kind: StageKind::Pooling,
                compute_cycles: pool_layer_latency(
                    config,
                    out_shape[0],
                    out_shape[1],
                    out_shape[2],
                    window,
                    time_steps,
                ),
                weight_fetch_cycles: 0,
            },
            LayerSpec::Flatten => LayerTiming {
                layer: i,
                kind: StageKind::Flatten,
                compute_cycles: flatten_latency(in_shape.iter().product()),
                weight_fetch_cycles: 0,
            },
            LayerSpec::Linear {
                in_features,
                out_features,
            } => LayerTiming {
                layer: i,
                kind: StageKind::Linear,
                compute_cycles: linear_layer_latency(config, in_features, out_features, time_steps),
                weight_fetch_cycles,
            },
        };
        layers.push(timing);
    }
    Ok(TimingReport { layers, time_steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use snn_model::zoo;

    #[test]
    fn lenet_latency_scales_linearly_with_time_steps() {
        let cfg = AcceleratorConfig::lenet_experiment(2);
        let net = zoo::lenet5();
        let t3 = network_timing(&cfg, &net, 3).unwrap().total_cycles();
        let t6 = network_timing(&cfg, &net, 6).unwrap().total_cycles();
        // Almost all computation is replicated per time step; only the
        // flatten transfer is independent of T.
        let ratio = t6 as f64 / t3 as f64;
        assert!(
            (1.8..2.1).contains(&ratio),
            "T=6 / T=3 latency ratio was {ratio}"
        );
    }

    #[test]
    fn doubling_conv_units_gives_sublinear_speedup() {
        let net = zoo::lenet5();
        let lat = |units: usize| {
            network_timing(&AcceleratorConfig::lenet_experiment(units), &net, 3)
                .unwrap()
                .total_cycles()
        };
        let l1 = lat(1);
        let l2 = lat(2);
        let l4 = lat(4);
        let l8 = lat(8);
        // More units is never slower...
        assert!(l2 < l1 && l4 < l2 && l8 <= l4);
        // ...but the speedup saturates because pooling and linear stages are
        // not duplicated (Table II's observation).
        assert!((l1 as f64 / l2 as f64) < 2.0);
        assert!((l4 as f64 / l8 as f64) < (l1 as f64 / l2 as f64));
    }

    #[test]
    fn conv_dominates_lenet_runtime_at_one_unit() {
        let cfg = AcceleratorConfig::lenet_experiment(1);
        let net = zoo::lenet5();
        let report = network_timing(&cfg, &net, 3).unwrap();
        assert!(report.convolution_cycles() * 2 > report.total_cycles());
    }

    #[test]
    fn channels_per_unit_matches_paper_intent() {
        // Default geometry has X = 30.
        let cfg = AcceleratorConfig::default();
        // A 28-wide output row fills the unit: one channel at a time.
        assert_eq!(channels_per_conv_unit(&cfg, 28), 1);
        // A 10-wide row lets three channels share the unit.
        assert_eq!(channels_per_conv_unit(&cfg, 10), 3);
        // A 1x1 output (LeNet's third conv) packs 30 channels.
        assert_eq!(channels_per_conv_unit(&cfg, 1), 30);
    }

    #[test]
    fn straggler_group_is_modelled_at_uneven_splits() {
        // 7 output channels over 2 units x 3 channels each: two passes, the
        // second carrying a single channel on a single unit.
        let plan = ConvGroupPlan::for_schedule(2, 3, 7, 100);
        assert_eq!(plan.groups, 2);
        assert_eq!(plan.straggler_channels, 1);
        assert_eq!(plan.active_units_in_straggler(), 1);
        // The makespan is unchanged — a straggling pass costs a full pass —
        // but only 3 of the 4 (unit, pass) slots compute.
        assert_eq!(plan.latency_cycles(), 200);
        assert_eq!(plan.busy_unit_cycles(), 300);
        assert!((plan.unit_utilisation() - 0.75).abs() < 1e-12);

        // 4 straggler channels over 2 units x 3: both units stay active.
        let plan = ConvGroupPlan::for_schedule(2, 3, 10, 100);
        assert_eq!(plan.groups, 2);
        assert_eq!(plan.straggler_channels, 4);
        assert_eq!(plan.active_units_in_straggler(), 2);
        assert_eq!(plan.busy_unit_cycles(), 400);
        assert!((plan.unit_utilisation() - 1.0).abs() < 1e-12);

        // A perfectly balanced split reports full utilisation.
        let plan = ConvGroupPlan::for_schedule(2, 3, 12, 100);
        assert_eq!(plan.straggler_channels, 0);
        assert_eq!(plan.active_units_in_straggler(), 2);
        assert!((plan.unit_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn group_plan_latency_matches_conv_layer_latency() {
        let cfg = AcceleratorConfig::lenet_experiment(4);
        // LeNet conv2: 6 -> 16 channels, 10x10 output, 5x5 kernel.
        let plan = ConvGroupPlan::plan(&cfg, 6, 16, 10, 10, 5, 4);
        assert_eq!(
            plan.latency_cycles(),
            conv_layer_latency(&cfg, 6, 16, 10, 10, 5, 4)
        );
        // X = 30 packs three 10-wide channels per unit; 4 units give
        // parallel = 12, so 16 channels split 12 + 4: the straggler pass
        // occupies only ceil(4 / 3) = 2 of the 4 units.
        assert_eq!(plan.channels_per_unit, 3);
        assert_eq!(plan.groups, 2);
        assert_eq!(plan.straggler_channels, 4);
        assert_eq!(plan.active_units_in_straggler(), 2);
        assert!(plan.unit_utilisation() < 1.0);
    }

    #[test]
    fn dram_memory_option_adds_weight_fetch_time() {
        let net = zoo::lenet5();
        let mut on_chip = AcceleratorConfig::lenet_experiment(2);
        on_chip.memory = MemoryOption::OnChip;
        let mut dram = AcceleratorConfig::lenet_experiment(2);
        dram.memory = MemoryOption::Dram;
        let t_on = network_timing(&on_chip, &net, 3).unwrap().total_cycles();
        let t_dram = network_timing(&dram, &net, 3).unwrap().total_cycles();
        assert!(t_dram > t_on);
    }

    #[test]
    fn oversized_kernel_is_reported_with_layer_index() {
        let mut cfg = AcceleratorConfig::default();
        cfg.conv_geometry.rows = 3; // LeNet needs 5 rows
        let err = network_timing(&cfg, &zoo::lenet5(), 3).unwrap_err();
        match err {
            AccelError::UnsupportedLayer { layer, .. } => assert_eq!(layer, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lenet_latency_is_in_the_paper_ballpark() {
        // Table I: T=5, two convolution units, 100 MHz -> 1063 us.
        // The analytical model is not expected to match exactly, but it
        // should land within a factor of two.
        let cfg = AcceleratorConfig::lenet_experiment(2);
        let report = network_timing(&cfg, &zoo::lenet5(), 5).unwrap();
        let us = report.latency_us(&cfg);
        assert!(
            (400.0..2200.0).contains(&us),
            "LeNet-5 latency prediction {us} us is out of the expected range"
        );
    }

    #[test]
    fn throughput_is_inverse_latency() {
        let cfg = AcceleratorConfig::lenet_table3();
        let report = network_timing(&cfg, &zoo::lenet5(), 4).unwrap();
        let fps = report.throughput_fps(&cfg);
        let us = report.latency_us(&cfg);
        assert!((fps * us / 1e6 - 1.0).abs() < 1e-9);
    }
}
