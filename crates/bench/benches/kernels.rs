//! Criterion micro-benchmarks for the numeric substrate: the convolution
//! and matmul kernels that dominate ANN training, the SNN timestep that
//! dominates Table-1 sweeps, and the conversion pass itself.
//!
//! The JSON summary carries a `meta` block (SIMD dispatch level, thread
//! budget, git revision) so recorded numbers state the environment they
//! were measured under; the `*_simd_<level>` rows pin each dispatch level
//! explicitly so per-ISA speedups are visible side by side.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use tcl_core::{Converter, NormStrategy};
use tcl_models::{Architecture, ModelConfig};
use tcl_nn::Mode;
use tcl_snn::{IfNeurons, Readout, ResetMode, SimConfig, SynapticOp};
use tcl_tensor::{ops, ops::ConvGeometry, par, simd, Histogram, Parallelism, SeededRng, Tensor};

/// Records the measurement environment into the JSON `meta` block: the
/// dispatch level every non-pinned bench runs at, the thread budget, and
/// the revision the numbers belong to.
fn bench_meta(c: &mut Criterion) {
    c.meta("simd", simd::current().name());
    c.meta("threads", &Parallelism::from_env().threads().to_string());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    c.meta("git_rev", &rev);
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let a = rng.uniform_tensor([128, 128], -1.0, 1.0);
    let b = rng.uniform_tensor([128, 128], -1.0, 1.0);
    c.bench_function("matmul_128x128", |bench| {
        bench.iter(|| ops::matmul(&a, &b).unwrap())
    });
}

/// Blocked-vs-naive and serial-vs-parallel at 256³ — the acceptance shape
/// for the cache-blocked kernel rewrite.
fn bench_matmul_kernels(c: &mut Criterion) {
    const N: usize = 256;
    let mut rng = SeededRng::new(9);
    let a: Vec<f32> = (0..N * N).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..N * N).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let mut out = vec![0.0f32; N * N];
    c.bench_function("matmul_256_naive", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            ops::matmul_into_naive(black_box(&a), black_box(&b), &mut out, N, N, N);
            black_box(out[0])
        })
    });
    let mut out = vec![0.0f32; N * N];
    c.bench_function("matmul_256_sparse_skip", |bench| {
        // The seed's original kernel shape: zero-skip test on every A
        // element with a fully dense A, so the branch only costs. The
        // density gate in `synop` routes this case to the blocked kernel;
        // the row documents why.
        bench.iter(|| {
            out.fill(0.0);
            ops::matmul_into_sparse(black_box(&a), black_box(&b), &mut out, N, N, N);
            black_box(out[0])
        })
    });
    // The sparse kernel in its element: a 10%-density spike raster, below
    // the 1-in-8 routing gate. Compare against matmul_256_blocked_serial
    // (density-independent) to read the win.
    let spikes: Vec<f32> = {
        let mut r = SeededRng::new(11);
        (0..N * N)
            .map(|_| if r.uniform(0.0, 1.0) < 0.1 { 1.0 } else { 0.0 })
            .collect()
    };
    let mut out = vec![0.0f32; N * N];
    c.bench_function("matmul_256_sparse_10pct", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            ops::matmul_into_sparse(black_box(&spikes), black_box(&b), &mut out, N, N, N);
            black_box(out[0])
        })
    });
    let mut out = vec![0.0f32; N * N];
    c.bench_function("matmul_256_blocked_serial", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            ops::matmul_into_with(
                Parallelism::serial(),
                black_box(&a),
                black_box(&b),
                &mut out,
                N,
                N,
                N,
            );
            black_box(out[0])
        })
    });
    let mut out = vec![0.0f32; N * N];
    c.bench_function("matmul_256_blocked_parallel", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            ops::matmul_into_with(
                Parallelism::from_env(),
                black_box(&a),
                black_box(&b),
                &mut out,
                N,
                N,
                N,
            );
            black_box(out[0])
        })
    });
    // One serial row per dispatch level the host offers, so the per-ISA
    // speedup is visible in a single run regardless of TCL_SIMD.
    for level in simd::Level::available() {
        let mut out = vec![0.0f32; N * N];
        c.bench_function(&format!("matmul_256_simd_{}", level.name()), |bench| {
            bench.iter(|| {
                simd::with_level(level, || {
                    out.fill(0.0);
                    ops::matmul_into_with(
                        Parallelism::serial(),
                        black_box(&a),
                        black_box(&b),
                        &mut out,
                        N,
                        N,
                        N,
                    );
                    black_box(out[0])
                })
            })
        });
    }
}

/// The IF membrane update in isolation, per dispatch level: one step over
/// a CNN-6-sized activation bank (batch 4 × 24k neurons).
fn bench_if_step(c: &mut Criterion) {
    let mut rng = SeededRng::new(10);
    let z = rng.uniform_tensor([4, 24_576], -0.3, 1.2);
    for level in simd::Level::available() {
        let mut bank = IfNeurons::new(1.0, ResetMode::Subtract);
        // Prime the membrane state once so every timed step is steady-state.
        bank.step(&z).unwrap();
        c.bench_function(&format!("if_step_98k_simd_{}", level.name()), |bench| {
            bench.iter(|| {
                simd::with_level(level, || {
                    par::with_serial(|| black_box(bank.step(black_box(&z)).unwrap()))
                })
            })
        });
    }
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let x = rng.uniform_tensor([8, 8, 16, 16], -1.0, 1.0);
    let w = rng.uniform_tensor([16, 8, 3, 3], -1.0, 1.0);
    let bias = rng.uniform_tensor([16], -0.1, 0.1);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    c.bench_function("conv2d_im2col_8x8x16x16", |bench| {
        bench.iter(|| ops::conv2d(&x, &w, Some(&bias), geom).unwrap())
    });
    c.bench_function("conv2d_naive_8x8x16x16", |bench| {
        bench.iter(|| ops::conv2d_naive(&x, &w, Some(&bias), geom).unwrap())
    });
    let gout = rng.uniform_tensor([8, 16, 16, 16], -1.0, 1.0);
    c.bench_function("conv2d_backward_8x8x16x16", |bench| {
        bench.iter(|| ops::conv2d_backward(&x, &w, &gout, geom).unwrap())
    });
}

/// CNN-6's IF-fed convolutions at batch 5, padded 3×3, on binary rasters:
/// node 1 (8 channels of 16×16 spikes into 8 outputs) at 15% (the IF
/// banks' firing rate) and 50% density, and node 4 (16 channels of 8×8
/// into 16 outputs) at 15%. The accumulate-only event path runs against
/// the im2col + GEMM path it replaces, so the crossover is on record. Each
/// iteration takes the next of 8 rasters: on one fixed raster the branch
/// predictor learns the spike pattern and flatters the event path.
fn bench_conv_spikes(c: &mut Criterion) {
    let mut rng = SeededRng::new(11);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    for (shape, in_c, hw, out_c, label, density) in [
        ("8x16x16_o8", 8, 16, 8, "p15", 0.15),
        ("8x16x16_o8", 8, 16, 8, "p50", 0.5),
        ("16x8x8_o16", 16, 8, 16, "p15", 0.15),
    ] {
        let w = rng.uniform_tensor([out_c, in_c, 3, 3], -0.5, 0.5);
        let bias = rng.uniform_tensor([out_c], -0.1, 0.1);
        let taps = ops::ConvTaps::new(&w).unwrap();
        let dims = [5, in_c, hw, hw];
        let rasters: Vec<Tensor> = (0..8)
            .map(|_| {
                let x = (0..dims.iter().product())
                    .map(|_| f32::from(u8::from(rng.uniform(0.0, 1.0) < density)))
                    .collect();
                Tensor::from_vec(dims, x).unwrap()
            })
            .collect();
        let mut next = 0;
        c.bench_function(&format!("conv_spikes_{shape}_batch5_{label}"), |bench| {
            bench.iter(|| {
                next = (next + 1) % rasters.len();
                ops::conv2d_spikes(black_box(&rasters[next]), &taps, Some(&bias), geom).unwrap()
            })
        });
        c.bench_function(&format!("conv_gemm_{shape}_batch5_{label}"), |bench| {
            bench.iter(|| {
                next = (next + 1) % rasters.len();
                ops::conv2d(black_box(&rasters[next]), &w, Some(&bias), geom).unwrap()
            })
        });
    }
}

/// CNN-6's pooled-input convolution (node 3) at batch 5: 8 channels of
/// 8×8 pooled spikes, each nonzero entry a multiple of 1/4, into 16
/// outputs through a padded 3×3 kernel, at 25%, 50% and 75% nonzero
/// entries. The weighted event path runs against the im2col + GEMM, which
/// locates the crossover `ops::WEIGHTED_EVENT_DENSITY` gates on. Inputs
/// cycle through 8 rasters, as in `bench_conv_spikes`.
fn bench_conv_weighted(c: &mut Criterion) {
    let mut rng = SeededRng::new(12);
    let geom = ConvGeometry::square(3, 1, 1).unwrap();
    let w = rng.uniform_tensor([16, 8, 3, 3], -0.5, 0.5);
    let bias = rng.uniform_tensor([16], -0.1, 0.1);
    let taps = ops::ConvTaps::new(&w).unwrap();
    let dims = [5, 8, 8, 8];
    for (label, density) in [("q25", 0.25), ("q50", 0.5), ("q75", 0.75)] {
        let rasters: Vec<Tensor> = (0..8)
            .map(|_| {
                let x = (0..dims.iter().product())
                    .map(|_| {
                        if rng.uniform(0.0, 1.0) < density {
                            (1 + rng.below(4)) as f32 * 0.25
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Tensor::from_vec(dims, x).unwrap()
            })
            .collect();
        let mut next = 0;
        c.bench_function(&format!("conv_events_8x8x8_o16_batch5_{label}"), |bench| {
            bench.iter(|| {
                next = (next + 1) % rasters.len();
                ops::conv2d_weighted_events(black_box(&rasters[next]), &taps, Some(&bias), geom)
                    .unwrap()
            })
        });
        c.bench_function(&format!("conv_gemm_8x8x8_o16_batch5_{label}"), |bench| {
            bench.iter(|| {
                next = (next + 1) % rasters.len();
                ops::conv2d(black_box(&rasters[next]), &w, Some(&bias), geom).unwrap()
            })
        });
    }
}

/// CNN-6's first pool (node 2): 2×2, stride 2 over a batch of 5 `[8, 16,
/// 16]` inputs, the per-timestep call the 2×2 loop in `ops::avg_pool2d`
/// exists for.
fn bench_avg_pool(c: &mut Criterion) {
    let mut rng = SeededRng::new(11);
    let x = rng.uniform_tensor([5, 8, 16, 16], 0.0, 1.0);
    c.bench_function("avg_pool2d_2x2_8x16x16_batch5", |bench| {
        bench.iter(|| ops::avg_pool2d(black_box(&x), 2, 2).unwrap())
    });
}

/// CNN-6's `256→128` fully connected synapse on a batch of 5 pooled-spike
/// rows (multiples of 1/4, half of them nonzero, so the dense branch runs):
/// the per-timestep call the stored, prepacked weight panel exists for.
fn bench_linear_synop(c: &mut Criterion) {
    let mut rng = SeededRng::new(10);
    let op = SynapticOp::linear(
        rng.uniform_tensor([128, 256], -0.2, 0.2),
        Some(rng.uniform_tensor([128], -0.1, 0.1)),
    )
    .unwrap();
    let x: Vec<f32> = (0..5 * 256)
        .map(|_| {
            if rng.uniform(0.0, 1.0) < 0.5 {
                (1 + rng.below(4)) as f32 * 0.25
            } else {
                0.0
            }
        })
        .collect();
    let x = Tensor::from_vec([5, 256], x).unwrap();
    c.bench_function("linear_256x128_batch5", |bench| {
        bench.iter(|| op.apply(black_box(&x)).unwrap())
    });
}

fn bench_ann_forward(c: &mut Criterion) {
    let mut rng = SeededRng::new(3);
    let cfg = ModelConfig::new((3, 16, 16), 10)
        .with_base_width(8)
        .with_clip_lambda(Some(2.0));
    let mut net = Architecture::Vgg16.build(&cfg, &mut rng).unwrap();
    let x = rng.uniform_tensor([4, 3, 16, 16], -1.0, 1.0);
    c.bench_function("vgg16_forward_batch4", |bench| {
        bench.iter(|| net.forward(&x, Mode::Eval).unwrap())
    });
}

fn bench_snn_step(c: &mut Criterion) {
    // Fan-out guard: a batch-4 CNN-6 step (each conv item ≈55k mult-adds)
    // must engage ≥2 workers under a 4-thread budget. This is the geometry
    // whose parallel row once regressed to serial because the per-worker
    // work floor was set too high; fail loudly if the floor creeps back up.
    let min_items = par::min_items_per_worker(55_296);
    assert!(
        Parallelism::new(4).workers_for(4, min_items) >= 2,
        "batch-4 CNN-6 geometry no longer engages multiple workers \
         (min_items_per_worker(55_296) = {min_items}); the par work floor regressed"
    );
    let mut rng = SeededRng::new(4);
    let cfg = ModelConfig::new((3, 16, 16), 10)
        .with_base_width(8)
        .with_clip_lambda(Some(2.0));
    let net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
    let calibration = rng.uniform_tensor([16, 3, 16, 16], -1.0, 1.0);
    let conversion = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &calibration)
        .unwrap();
    let x = rng.uniform_tensor([4, 3, 16, 16], -1.0, 1.0);
    c.bench_function("snn_step_cnn6_batch4", |bench| {
        bench.iter_batched(
            || conversion.snn.clone(),
            |mut snn| {
                for _ in 0..10 {
                    snn.step(&x).unwrap();
                }
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("snn_step_cnn6_batch4_serial", |bench| {
        bench.iter_batched(
            || conversion.snn.clone(),
            |mut snn| {
                par::with_serial(|| {
                    for _ in 0..10 {
                        snn.step(&x).unwrap();
                    }
                })
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_conversion(c: &mut Criterion) {
    let mut rng = SeededRng::new(5);
    let cfg = ModelConfig::new((3, 16, 16), 10)
        .with_base_width(8)
        .with_clip_lambda(Some(2.0));
    let net = Architecture::Vgg16.build(&cfg, &mut rng).unwrap();
    let calibration = rng.uniform_tensor([32, 3, 16, 16], -1.0, 1.0);
    c.bench_function("convert_vgg16_tcl", |bench| {
        bench.iter(|| {
            Converter::new(NormStrategy::TrainedClip)
                .convert(&net, &calibration)
                .unwrap()
        })
    });
}

fn bench_sweep(c: &mut Criterion) {
    let mut rng = SeededRng::new(6);
    let cfg = ModelConfig::new((3, 16, 16), 10)
        .with_base_width(8)
        .with_clip_lambda(Some(2.0));
    let net = Architecture::Cnn6.build(&cfg, &mut rng).unwrap();
    let calibration = rng.uniform_tensor([16, 3, 16, 16], -1.0, 1.0);
    let conversion = Converter::new(NormStrategy::TrainedClip)
        .convert(&net, &calibration)
        .unwrap();
    let images = rng.uniform_tensor([8, 3, 16, 16], -1.0, 1.0);
    let labels: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let sim = SimConfig::new(vec![25], 8, Readout::SpikeCount).unwrap();
    c.bench_function("snn_sweep_t25_8imgs", |bench| {
        bench.iter_batched(
            || conversion.snn.clone(),
            |snn| tcl_snn::evaluate(&snn, &images, &labels, &sim).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut rng = SeededRng::new(7);
    let values: Vec<f32> = (0..65_536).map(|_| rng.uniform(0.0, 4.0)).collect();
    c.bench_function("histogram_record_64k", |bench| {
        bench.iter(|| {
            let mut h = Histogram::new(128, 3.0);
            h.record_all(&values);
            h.quantile(0.999)
        })
    });
}

fn bench_batchnorm_fold(c: &mut Criterion) {
    let mut rng = SeededRng::new(8);
    let cfg = ModelConfig::new((3, 16, 16), 10)
        .with_base_width(8)
        .with_clip_lambda(Some(2.0));
    let mut net = Architecture::ResNet18.build(&cfg, &mut rng).unwrap();
    let x = rng.uniform_tensor([8, 3, 16, 16], -1.0, 1.0);
    net.forward(&x, Mode::Train).unwrap();
    c.bench_function("fold_batch_norm_resnet18", |bench| {
        bench.iter(|| tcl_core::fold_batch_norm(&net).unwrap())
    });
    let _ = Tensor::zeros([1]);
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_meta,
        bench_matmul,
        bench_matmul_kernels,
        bench_if_step,
        bench_conv2d,
        bench_conv_spikes,
        bench_conv_weighted,
        bench_avg_pool,
        bench_linear_synop,
        bench_ann_forward,
        bench_snn_step,
        bench_conversion,
        bench_sweep,
        bench_histogram,
        bench_batchnorm_fold
);
criterion_main!(kernels);
