//! Run and design reports: the quantities the paper's evaluation tables are
//! built from.

use crate::config::AcceleratorConfig;
use crate::cost::{self, PowerEstimate, ResourceEstimate};
use crate::memory::{ActivationBufferPlan, MemoryTraffic, WeightMemoryPlan};
use crate::timing::{StageKind, TimingReport};
use crate::units::UnitStats;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Execution record of one layer during a simulated inference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerExecution {
    /// Layer index in the network.
    pub index: usize,
    /// Layer notation (`6C5`, `P2`, ...).
    pub notation: String,
    /// Which stage executed it.
    pub kind: StageKind,
    /// Wall-clock cycles the layer occupied the accelerator
    /// (work divided over the parallel units, plus weight fetches).
    pub latency_cycles: u64,
    /// Total work performed by the processing units (cycles summed over all
    /// units, adder activations, memory accesses).
    pub work: UnitStats,
}

/// Modelled busy/idle occupancy of one kind of processing unit over an
/// inference, derived from the static schedule (so it is identical for
/// every inference of one compiled program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UnitUtilisation {
    /// Which processing stage the figure describes.
    pub kind: StageKind,
    /// Number of physical units of this kind.
    pub units: usize,
    /// Unit-cycles spent computing (straggler channel groups count only
    /// their active units — see [`crate::timing::ConvGroupPlan`]).
    pub busy_cycles: u64,
    /// Unit-cycles available while the network ran (makespan × `units`).
    pub total_cycles: u64,
}

impl UnitUtilisation {
    /// Busy fraction in `0.0..=1.0` (`0.0` for an empty schedule).
    pub fn utilisation(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / self.total_cycles as f64
    }

    /// Idle unit-cycles.
    pub fn idle_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(self.busy_cycles)
    }
}

/// Result of simulating one inference on the accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Predicted class (argmax of the integer logits).
    pub prediction: usize,
    /// Raw integer logits of the classifier layer.
    pub logits: Vec<i64>,
    /// Per-layer execution records.
    pub layers: Vec<LayerExecution>,
    /// Spike-train length used.
    pub time_steps: usize,
    /// Aggregate memory traffic.
    pub traffic: MemoryTraffic,
    /// Effective host thread budget the execution drew from (the global
    /// [`snn_parallel::ThreadBudget`], shared by batch workers and channel
    /// parallelism) — **not** a per-call thread
    /// count, so oversubscription regressions show up in bench output.
    pub thread_budget: usize,
    /// Modelled per-unit busy/idle occupancy over this inference.
    pub utilisation: Vec<UnitUtilisation>,
}

impl RunReport {
    /// Total wall-clock cycles of the inference.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.latency_cycles).sum()
    }

    /// Total work performed by all processing units.
    pub fn total_work(&self) -> UnitStats {
        self.layers
            .iter()
            .fold(UnitStats::new(), |acc, l| acc + l.work)
    }

    /// Latency of one inference in microseconds at the configured clock.
    pub fn latency_us(&self, config: &AcceleratorConfig) -> f64 {
        config.cycles_to_us(self.total_cycles())
    }

    /// Throughput in frames per second assuming back-to-back inferences.
    pub fn throughput_fps(&self, config: &AcceleratorConfig) -> f64 {
        1.0e6 / self.latency_us(config)
    }

    /// Energy of one inference in microjoules using the calibrated power
    /// model.
    pub fn energy_uj(&self, config: &AcceleratorConfig) -> f64 {
        let power = cost::estimate_power(config);
        cost::inference_energy_uj(&power, self.latency_us(config))
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "prediction: {}  (T = {}, {} layers, {} cycles)",
            self.prediction,
            self.time_steps,
            self.layers.len(),
            self.total_cycles()
        )?;
        writeln!(
            f,
            "{:<4} {:<10} {:>14} {:>14} {:>14}",
            "#", "layer", "latency [cyc]", "adder ops", "mem accesses"
        )?;
        for layer in &self.layers {
            writeln!(
                f,
                "{:<4} {:<10} {:>14} {:>14} {:>14}",
                layer.index,
                layer.notation,
                layer.latency_cycles,
                layer.work.adder_ops,
                layer.work.total_memory_accesses()
            )?;
        }
        if !self.utilisation.is_empty() {
            let parts: Vec<String> = self
                .utilisation
                .iter()
                .map(|u| format!("{:?} {:.1}%", u.kind, 100.0 * u.utilisation()))
                .collect();
            writeln!(
                f,
                "unit utilisation: {}  (thread budget {})",
                parts.join(", "),
                self.thread_budget
            )?;
        }
        Ok(())
    }
}

/// Static design-time report: resources, power and predicted timing for a
/// model/configuration pair, without running any data through the
/// simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// FPGA resource estimate.
    pub resources: ResourceEstimate,
    /// Power estimate.
    pub power: PowerEstimate,
    /// Activation-buffer sizing.
    pub activation_plan: ActivationBufferPlan,
    /// Weight-memory sizing.
    pub weight_plan: WeightMemoryPlan,
    /// Predicted per-layer timing.
    pub timing: TimingReport,
}

impl DesignReport {
    /// Predicted latency in microseconds.
    pub fn latency_us(&self, config: &AcceleratorConfig) -> f64 {
        self.timing.latency_us(config)
    }

    /// Predicted throughput in frames per second.
    pub fn throughput_fps(&self, config: &AcceleratorConfig) -> f64 {
        self.timing.throughput_fps(config)
    }

    /// Predicted energy per inference in microjoules.
    pub fn energy_uj(&self, config: &AcceleratorConfig) -> f64 {
        cost::inference_energy_uj(&self.power, self.latency_us(config))
    }
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "resources: {} LUTs, {} FFs, {} BRAM36, {} DSPs",
            self.resources.luts,
            self.resources.flip_flops,
            self.resources.bram36,
            self.resources.dsp
        )?;
        writeln!(
            f,
            "power: {:.2} W (static {:.2} + dynamic {:.2} + dram {:.2})",
            self.power.total_w(),
            self.power.static_w,
            self.power.dynamic_w,
            self.power.dram_w
        )?;
        writeln!(
            f,
            "activation buffers: {} + {} bits (2-D + 1-D, per half), weights: {} bits",
            self.activation_plan.buffer_2d_bits,
            self.activation_plan.buffer_1d_bits,
            self.weight_plan.total_weight_bits
        )?;
        writeln!(f, "predicted cycles: {}", self.timing.total_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::LayerTiming;

    fn dummy_run_report() -> RunReport {
        RunReport {
            prediction: 3,
            logits: vec![0, 1, 2, 10],
            layers: vec![
                LayerExecution {
                    index: 0,
                    notation: "4C3".to_string(),
                    kind: StageKind::Convolution,
                    latency_cycles: 100,
                    work: UnitStats {
                        cycles: 400,
                        adder_ops: 50,
                        activation_reads: 10,
                        kernel_reads: 20,
                        output_writes: 5,
                        ..UnitStats::default()
                    },
                },
                LayerExecution {
                    index: 1,
                    notation: "10".to_string(),
                    kind: StageKind::Linear,
                    latency_cycles: 50,
                    work: UnitStats {
                        cycles: 50,
                        adder_ops: 25,
                        activation_reads: 5,
                        kernel_reads: 10,
                        output_writes: 10,
                        ..UnitStats::default()
                    },
                },
            ],
            time_steps: 3,
            traffic: MemoryTraffic::default(),
            thread_budget: 4,
            utilisation: vec![UnitUtilisation {
                kind: StageKind::Convolution,
                units: 2,
                busy_cycles: 225,
                total_cycles: 300,
            }],
        }
    }

    #[test]
    fn totals_aggregate_layers() {
        let report = dummy_run_report();
        assert_eq!(report.total_cycles(), 150);
        let work = report.total_work();
        assert_eq!(work.cycles, 450);
        assert_eq!(work.adder_ops, 75);
    }

    #[test]
    fn latency_and_throughput_use_the_clock() {
        let report = dummy_run_report();
        let cfg = AcceleratorConfig::default(); // 100 MHz
        assert!((report.latency_us(&cfg) - 1.5).abs() < 1e-9);
        assert!((report.throughput_fps(&cfg) - 1.0e6 / 1.5).abs() < 1e-3);
        assert!(report.energy_uj(&cfg) > 0.0);
    }

    #[test]
    fn display_contains_layer_rows() {
        let report = dummy_run_report();
        let text = report.to_string();
        assert!(text.contains("4C3"));
        assert!(text.contains("prediction: 3"));
        assert!(text.contains("utilisation"));
        assert!(text.contains("thread budget 4"));
    }

    #[test]
    fn utilisation_fractions_are_sane() {
        let u = UnitUtilisation {
            kind: StageKind::Pooling,
            units: 1,
            busy_cycles: 30,
            total_cycles: 120,
        };
        assert!((u.utilisation() - 0.25).abs() < 1e-12);
        assert_eq!(u.idle_cycles(), 90);
        let empty = UnitUtilisation {
            kind: StageKind::Linear,
            units: 1,
            busy_cycles: 0,
            total_cycles: 0,
        };
        assert_eq!(empty.utilisation(), 0.0);
    }

    #[test]
    fn design_report_display_mentions_resources() {
        let cfg = AcceleratorConfig::default();
        let report = DesignReport {
            resources: cost::estimate_resources(&cfg, &snn_model::zoo::tiny_cnn(), 3),
            power: cost::estimate_power(&cfg),
            activation_plan: ActivationBufferPlan::for_network(&snn_model::zoo::tiny_cnn(), 3),
            weight_plan: WeightMemoryPlan::for_network(
                &snn_model::zoo::tiny_cnn(),
                3,
                crate::config::MemoryOption::OnChip,
            ),
            timing: TimingReport {
                layers: vec![LayerTiming {
                    layer: 0,
                    kind: StageKind::Convolution,
                    compute_cycles: 10,
                    weight_fetch_cycles: 0,
                }],
                time_steps: 3,
            },
        };
        let text = report.to_string();
        assert!(text.contains("LUTs"));
        assert!(text.contains("power"));
        assert!(report.latency_us(&cfg) > 0.0);
        assert!(report.throughput_fps(&cfg) > 0.0);
        assert!(report.energy_uj(&cfg) > 0.0);
    }
}
