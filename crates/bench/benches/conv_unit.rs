//! Criterion micro-benchmarks for the processing-unit simulators.
//!
//! These benches measure the *simulator's* throughput (host-side), which is
//! what matters when sweeping design points: the bit-plane sparse
//! convolution engine versus the retained counter-stepped scalar reference
//! and the functional integer reference, plus the pooling and linear units
//! on LeNet-5-shaped layers.
//!
//! Besides the usual console output, the harness writes a machine-readable
//! `BENCH_conv.json` summary to the workspace root with the
//! sparse-vs-scalar speedup on the LeNet conv2 workload and the row-band
//! tiling overhead on a VGG-11-shaped layer (the cost of running a layer
//! under the 8 KiB tiled activation-buffer budget instead of untiled), so
//! the perf trajectory of the hot path is tracked PR over PR.

use criterion::{criterion_group, BenchmarkId, Criterion};
use snn_accel::config::{AcceleratorConfig, ArrayGeometry, DEFAULT_DENSE_GATHER_THRESHOLD};
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::memory::RowBand;
use snn_accel::pool::PoolingUnit;
use snn_accel::reference::ReferenceConvolutionUnit;
use snn_model::layer::PoolKind;
use snn_tensor::simd::{self, scalar};
use snn_tensor::{bitplane, ops, Tensor};
use std::hint::black_box;

fn lenet_conv2_inputs() -> (Tensor<i64>, Tensor<i64>, Tensor<i64>) {
    // LeNet-5 second convolution: 6 -> 16 channels, 5x5 kernel, 14x14 input.
    let input = Tensor::from_vec(
        vec![6, 14, 14],
        (0..6 * 14 * 14).map(|v| (v % 8) as i64).collect(),
    )
    .expect("input tensor");
    let kernel = Tensor::from_vec(
        vec![16, 6, 5, 5],
        (0..16 * 6 * 25).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("kernel tensor");
    let bias = Tensor::filled(vec![16], 0i64);
    (input, kernel, bias)
}

const LENET_GEOMETRY: ArrayGeometry = ArrayGeometry {
    columns: 30,
    rows: 5,
};

fn bench_conv_unit(c: &mut Criterion) {
    let (input, kernel, bias) = lenet_conv2_inputs();
    let mut group = c.benchmark_group("conv_unit");
    for &time_steps in &[3usize, 6] {
        group.bench_with_input(
            BenchmarkId::new("bitplane_sparse", time_steps),
            &time_steps,
            |b, &t| {
                let unit = ConvolutionUnit::new(LENET_GEOMETRY);
                b.iter(|| {
                    unit.run_layer(
                        black_box(&input),
                        black_box(&kernel),
                        black_box(&bias),
                        t,
                        1,
                        0,
                    )
                    .expect("conv unit run")
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("bitplane_sparse_ps", time_steps),
            &time_steps,
            |b, &t| {
                let unit = ConvolutionUnit::with_options(
                    LENET_GEOMETRY,
                    DEFAULT_DENSE_GATHER_THRESHOLD,
                    true,
                );
                b.iter(|| {
                    unit.run_layer(
                        black_box(&input),
                        black_box(&kernel),
                        black_box(&bias),
                        t,
                        1,
                        0,
                    )
                    .expect("product-sparsity conv unit run")
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("scalar_reference", time_steps),
            &time_steps,
            |b, &t| {
                let unit = ReferenceConvolutionUnit::new(LENET_GEOMETRY);
                b.iter(|| {
                    unit.run_layer(
                        black_box(&input),
                        black_box(&kernel),
                        black_box(&bias),
                        t,
                        1,
                        0,
                    )
                    .expect("reference conv unit run")
                });
            },
        );
    }
    group.bench_function("functional_reference", |b| {
        b.iter(|| {
            ops::conv2d(black_box(&input), black_box(&kernel), Some(&bias), 1, 0)
                .expect("reference conv")
        });
    });
    group.finish();
}

/// VGG-11 conv2 (64 -> 128 channels, 16x16 maps, 3x3 kernel, padding 1):
/// the whole layer versus the 4-row bands the tiling planner produces for
/// it under the paper-scale 8 KiB activation-buffer budget.  The banded
/// run includes the per-band input gather, i.e. it measures exactly the
/// work the tiled executor performs.
fn bench_tiled_conv(c: &mut Criterion) {
    let (ci, h, w, co, k, t) = (64usize, 16usize, 16usize, 128usize, 3usize, 4usize);
    let input = Tensor::from_vec(
        vec![ci, h, w],
        (0..ci * h * w).map(|v| ((v * 5) % 16) as i64).collect(),
    )
    .expect("input tensor");
    let kernel = Tensor::from_vec(
        vec![co, ci, k, k],
        (0..co * ci * k * k).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("kernel tensor");
    let bias = Tensor::filled(vec![co], 0i64);
    let unit = ConvolutionUnit::new(ArrayGeometry {
        columns: 32,
        rows: 3,
    });
    let mut group = c.benchmark_group("conv_unit_tiled");
    group.bench_function("vgg_conv2_untiled", |b| {
        b.iter(|| {
            unit.run_layer(black_box(&input), black_box(&kernel), &bias, t, 1, 1)
                .expect("untiled run")
        });
    });
    group.bench_function("vgg_conv2_banded_4rows", |b| {
        b.iter(|| {
            let mut adder_ops = 0u64;
            for lo in (0..h).step_by(4) {
                let hi = (lo + 4).min(h);
                let band = RowBand {
                    out_lo: lo,
                    out_hi: hi,
                    in_lo: lo.saturating_sub(1),
                    in_hi: (hi + 1).min(h),
                };
                let mut data = Vec::with_capacity(ci * band.in_rows() * w);
                for ch in 0..ci {
                    data.extend_from_slice(
                        &input.as_slice()[ch * h * w + band.in_lo * w..ch * h * w + band.in_hi * w],
                    );
                }
                let band_input =
                    Tensor::from_vec(vec![ci, band.in_rows(), w], data).expect("band tensor");
                let result = unit
                    .run_layer_band(black_box(&band_input), &kernel, &bias, t, 1, 1, &band)
                    .expect("banded run");
                adder_ops += result.stats.adder_ops;
            }
            adder_ops
        });
    });
    group.finish();
}

/// The four word-level kernels the bit-plane engine dispatches through
/// `snn_tensor::simd`, each measured on its dispatched path (AVX2/SSE2 on
/// this host unless `SNN_SIMD` lowers it) and on the always-compiled
/// scalar oracle — so `BENCH_conv.json` records the simd-on vs simd-off
/// ratio per kernel, not just the end-to-end layer effect.
fn bench_simd_kernels(c: &mut Criterion) {
    const WORDS: usize = 1024; // one 65 536-pixel plane row
    let planes: Vec<Vec<u64>> = (0..4)
        .map(|p| {
            (0..WORDS as u64)
                .map(|i| {
                    let x = i
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(p * 0x5851_f42d_4c95_7f2d);
                    x & x >> 5 // ~25% density, typical post-conversion
                })
                .collect()
        })
        .collect();
    let levels: Vec<i64> = (0..WORDS * 64)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 16) as i64)
        .collect();
    let row: Vec<i64> = (0..4096).map(|i| ((i * 37) % 256) as i64 - 128).collect();
    let mask = bitplane::level_mask(4);

    let mut group = c.benchmark_group("simd_kernels");
    group.bench_function(
        &format!("occupancy_or/{}", simd::active_level().name()),
        |b| {
            let mut acc = vec![0u64; WORDS];
            b.iter(|| {
                acc.fill(0);
                for plane in &planes {
                    simd::or_accumulate(&mut acc, black_box(plane));
                }
                acc[0]
            });
        },
    );
    group.bench_function("occupancy_or/scalar", |b| {
        let mut acc = vec![0u64; WORDS];
        b.iter(|| {
            acc.fill(0);
            for plane in &planes {
                scalar::or_accumulate(&mut acc, black_box(plane));
            }
            acc[0]
        });
    });
    group.bench_function(&format!("popcount/{}", simd::active_level().name()), |b| {
        b.iter(|| simd::popcount(black_box(&planes[0])));
    });
    group.bench_function("popcount/scalar", |b| {
        b.iter(|| scalar::popcount(black_box(&planes[0])));
    });
    // The sparse gather has no vector path: the dispatched expansion is
    // the scalar per-bit walk.
    group.bench_function("sparse_gather/bit_walk", |b| {
        let mut out = Vec::with_capacity(WORDS * 64);
        b.iter(|| {
            out.clear();
            simd::collect_set_bits(black_box(&planes[0]), 0, &mut out);
            out.len()
        });
    });
    group.bench_function(
        &format!("dense_gather/{}", simd::active_level().name()),
        |b| {
            let mut out = vec![0i64; row.len()];
            b.iter(|| {
                simd::axpy_i64(&mut out, black_box(&row), black_box(3));
                out[0]
            });
        },
    );
    group.bench_function("dense_gather/scalar", |b| {
        let mut out = vec![0i64; row.len()];
        b.iter(|| {
            scalar::axpy_i64(&mut out, black_box(&row), black_box(3));
            out[0]
        });
    });
    group.bench_function(
        &format!("pack_occupancy/{}", simd::active_level().name()),
        |b| {
            let mut out = vec![0u64; WORDS];
            b.iter(|| {
                out.fill(0);
                simd::pack_occupancy_row(black_box(&levels), black_box(mask), &mut out);
                out[0]
            });
        },
    );
    group.bench_function("pack_occupancy/scalar", |b| {
        let mut out = vec![0u64; WORDS];
        b.iter(|| {
            out.fill(0);
            scalar::pack_occupancy_row(black_box(&levels), black_box(mask), &mut out);
            out[0]
        });
    });
    group.finish();
}

fn bench_pool_unit(c: &mut Criterion) {
    let input = Tensor::from_vec(
        vec![6, 28, 28],
        (0..6 * 28 * 28).map(|v| (v % 16) as i64).collect(),
    )
    .expect("input tensor");
    let unit = PoolingUnit::new(ArrayGeometry {
        columns: 14,
        rows: 2,
    });
    c.bench_function("pool_unit/avg_2x2_6x28x28", |b| {
        b.iter(|| {
            unit.run_layer(black_box(&input), PoolKind::Average, 2, 4)
                .expect("pool unit run")
        });
    });
}

fn bench_linear_unit(c: &mut Criterion) {
    // LeNet-5 first fully-connected layer: 120 -> 120.
    let input = Tensor::from_vec(vec![120], (0..120).map(|v| (v % 16) as i64).collect())
        .expect("input tensor");
    let weight = Tensor::from_vec(
        vec![120, 120],
        (0..120 * 120).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("weight tensor");
    let bias = Tensor::filled(vec![120], 0i64);
    let config = AcceleratorConfig::default();
    let unit = LinearUnit::new(config.linear_lanes);
    c.bench_function("linear_unit/120x120_T4", |b| {
        b.iter(|| {
            unit.run_layer(black_box(&input), black_box(&weight), black_box(&bias), 4)
                .expect("linear unit run")
        });
    });
}

criterion_group!(
    benches,
    bench_conv_unit,
    bench_tiled_conv,
    bench_simd_kernels,
    bench_pool_unit,
    bench_linear_unit
);

/// Runs the groups, then writes the `BENCH_conv.json` summary with the
/// sparse-vs-scalar speedup per spike-train length, the product-sparsity
/// ratio, and the per-kernel simd-vs-scalar speedups.
fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();

    let mut speedups = String::new();
    let mut ps_ratios = String::new();
    let (ps_input, ps_kernel, ps_bias) = lenet_conv2_inputs();
    for t in [3usize, 6] {
        let sparse = criterion
            .result(&format!("conv_unit/bitplane_sparse/{t}"))
            .expect("sparse result");
        let scalar_ref = criterion
            .result(&format!("conv_unit/scalar_reference/{t}"))
            .expect("scalar result");
        let speedup = scalar_ref.median_ns / sparse.median_ns;
        // Product sparsity optimises the *modelled* adder activations (the
        // paper-facing quantity), not host wall-clock — record the adder-op
        // reduction it achieves on the same workload.  The wall-clock cost
        // of the prepass is visible in the `bitplane_sparse_ps` entries.
        let ps_ops =
            ConvolutionUnit::with_options(LENET_GEOMETRY, DEFAULT_DENSE_GATHER_THRESHOLD, true)
                .run_layer(&ps_input, &ps_kernel, &ps_bias, t, 1, 0)
                .expect("ps stats run")
                .stats
                .adder_ops;
        let plain_ops = ConvolutionUnit::new(LENET_GEOMETRY)
            .run_layer(&ps_input, &ps_kernel, &ps_bias, t, 1, 0)
            .expect("plain stats run")
            .stats
            .adder_ops;
        let ps_ratio = plain_ops as f64 / ps_ops as f64;
        println!("conv_unit T={t}: bitplane_sparse is {speedup:.2}x faster than scalar_reference");
        println!("conv_unit T={t}: product sparsity cuts modelled adder ops {ps_ratio:.2}x");
        if !speedups.is_empty() {
            speedups.push_str(", ");
            ps_ratios.push_str(", ");
        }
        speedups.push_str(&format!("\"T{t}\": {speedup:.3}"));
        ps_ratios.push_str(&format!("\"T{t}\": {ps_ratio:.3}"));
    }
    let untiled = criterion
        .result("conv_unit_tiled/vgg_conv2_untiled")
        .expect("untiled result");
    let banded = criterion
        .result("conv_unit_tiled/vgg_conv2_banded_4rows")
        .expect("banded result");
    let overhead = banded.median_ns / untiled.median_ns;
    println!("conv_unit_tiled: 8 KiB row-band execution costs {overhead:.3}x the untiled layer");

    // Per-kernel simd-on vs simd-off ratios: dispatched path over the
    // always-compiled fallback it is pinned against.
    let level = simd::active_level().name();
    let mut kernel_speedups = String::new();
    for (kernel, fast_id, slow_id) in [
        ("occupancy_or", level.to_string(), "scalar".to_string()),
        ("popcount", level.to_string(), "scalar".to_string()),
        ("dense_gather", level.to_string(), "scalar".to_string()),
        ("pack_occupancy", level.to_string(), "scalar".to_string()),
    ] {
        let fast = criterion
            .result(&format!("simd_kernels/{kernel}/{fast_id}"))
            .expect("dispatched kernel result");
        let slow = criterion
            .result(&format!("simd_kernels/{kernel}/{slow_id}"))
            .expect("fallback kernel result");
        let ratio = slow.median_ns / fast.median_ns;
        println!("simd_kernels/{kernel}: {fast_id} is {ratio:.2}x the {slow_id} fallback");
        if !kernel_speedups.is_empty() {
            kernel_speedups.push_str(", ");
        }
        kernel_speedups.push_str(&format!("\"{kernel}\": {ratio:.3}"));
    }

    let json = format!(
        "{{\n\"workload\": \"lenet_conv2_6x14x14_to_16ch_5x5\",\n\
         \"simd_level\": \"{level}\",\n\
         \"speedup_sparse_vs_scalar\": {{{speedups}}},\n\
         \"product_sparsity_speedup_vs_plain\": {{{ps_ratios}}},\n\
         \"simd_kernel_speedup_vs_scalar\": {{{kernel_speedups}}},\n\
         \"tiling_overhead_vgg_conv2_8KiB\": {overhead:.3},\n\
         \"results\": {}\n}}\n",
        criterion.summary_json()
    );
    let path = snn_bench::bench_output_path("BENCH_conv.json");
    std::fs::write(&path, &json).expect("write BENCH_conv.json");
    println!("wrote {}", path.display());
}
