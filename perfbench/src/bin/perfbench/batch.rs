//! The two batch workloads: the Table-1 fixed-T sweep and early exit, both
//! through `Engine::evaluate_shared`, timed as many short fixed-work reps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tcl_data::Dataset;
use tcl_perfbench::{batch_preserving_order, median, relative_spread, Metrics, Tally};
use tcl_snn::{Engine, EngineResult, ExitPolicy, Readout, SimConfig, SpikingNetwork};
use tcl_tensor::{SeededRng, Shape, Tensor};

use crate::host::Host;
use crate::trace::Tracer;
use crate::Outcome;

/// Distinct seeded test-set orders the reps cycle through.
const ORDERS: usize = 8;
/// Reps measured even when `--seconds` ran out first.
const MIN_REPS: usize = 5;
/// Calibration samples taken after every rep.
const CAL_PER_REP: usize = 8;

/// One batch workload's engine settings.
pub struct BatchSpec {
    pub sim: SimConfig,
    pub policy: ExitPolicy,
    /// Whole-test-set `evaluate_shared` calls per timed rep, so a rep
    /// takes ~1.5 s in either workload. With fewer than 21 reps in a run no
    /// tail percentile has ten reps beyond it, and `p99_ms` reports the
    /// median; at 0.5 s reps it read p79, which swung with every few slow
    /// reps (run-to-run spread 0.18–0.33).
    pub calls: usize,
}

impl BatchSpec {
    /// Table 1: fixed T over the paper's checkpoint grid, one call over
    /// the test set (four batches, two per engine thread) per rep.
    pub fn table1() -> Self {
        BatchSpec {
            sim: SimConfig::table1(32).expect("valid table1 grid"),
            policy: ExitPolicy::Off,
            calls: 1,
        }
    }

    /// Early exit at the "aggressive" operating point, three calls over
    /// the test set per rep.
    pub fn early_exit() -> Self {
        BatchSpec {
            sim: SimConfig::new(vec![32, 64, 128, 256], 32, Readout::SpikeCount)
                .expect("valid grid"),
            policy: ExitPolicy::Adaptive {
                patience: 4,
                min_margin: 2.0,
                min_steps: 16,
            },
            calls: 3,
        }
    }

    fn max_t(&self) -> usize {
        self.sim.checkpoints.last().copied().unwrap_or(0)
    }
}

/// Rows `idx` of `data`, in that order.
pub fn gather(data: &Tensor, idx: &[usize]) -> Tensor {
    let n = data.dims()[0];
    let row = data.len() / n;
    let mut out = Vec::with_capacity(idx.len() * row);
    for &i in idx {
        out.extend_from_slice(&data.data()[i * row..(i + 1) * row]);
    }
    let mut dims = data.dims().to_vec();
    dims[0] = idx.len();
    Tensor::from_vec(Shape::new(dims), out).expect("gathered shape")
}

/// Spins up the engine's worker pool and per-worker replicas with a short
/// sweep over the test set.
pub fn warm(engine: &mut Engine, snn: &Arc<SpikingNetwork>, images: &Tensor, spec: &BatchSpec) {
    let labels = vec![0; images.dims()[0]];
    let sim = SimConfig::new(vec![4], spec.sim.batch_size, Readout::SpikeCount)
        .expect("valid warm-up grid");
    engine
        .evaluate_shared(snn, images, &labels, &sim, ExitPolicy::Off)
        .expect("warm-up sweep");
}

/// Share of images predicted correctly, at exit or at the final checkpoint.
fn accuracy(r: &EngineResult, labels: &[usize]) -> f64 {
    let hits = r
        .predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / labels.len() as f64
}

/// Mean live samples per simulated batch-step: Σ exit steps over Σ of each
/// batch's longest-running sample.
fn occupancy(exit_steps: &[usize], batch: usize) -> f64 {
    let live: usize = exit_steps.iter().sum();
    let stepped: usize = exit_steps
        .chunks(batch)
        .map(|b| b.iter().copied().max().unwrap_or(0))
        .sum();
    live as f64 / stepped.max(1) as f64
}

/// Runs reps of whole-test-set calls, in seeded batch-preserving orders,
/// until `seconds` elapsed, with calibration samples between reps; every
/// rep's predictions and exit steps must equal the untimed reference
/// sweep's, image by image. Rep times are reported in reference time.
pub fn run(
    engine: &mut Engine,
    snn: &Arc<SpikingNetwork>,
    test: &Dataset,
    spec: &BatchSpec,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let (images, labels) = (test.images(), test.labels());
    let n = labels.len();
    let reference = engine
        .evaluate_shared(snn, images, labels, &spec.sim, spec.policy)
        .expect("reference sweep");
    let mut rng = SeededRng::new(seed);
    let orders: Vec<(Vec<usize>, Tensor, Vec<usize>)> = (0..ORDERS)
        .map(|_| {
            let idx = batch_preserving_order(&mut rng, n, spec.sim.batch_size);
            let x = gather(images, &idx);
            let y = idx.iter().map(|&i| labels[i]).collect();
            (idx, x, y)
        })
        .collect();

    let mut tally = Tally::default();
    let mut rep_s = Vec::new();
    // A traced run records spans on every other rep only, so the cost of
    // recording shows against interleaved untraced reps.
    let mut untraced_s = Vec::new();
    let mut us_per_step = Vec::new();
    let mut occ = Vec::new();
    let mut host = Host::default();
    let budget = Duration::from_secs_f64(seconds);
    tracer.open("measure");
    let start = Instant::now();
    while rep_s.len() < MIN_REPS || start.elapsed() < budget {
        let rep = rep_s.len() + untraced_s.len();
        let traced = rep % 2 == 1 || !tracer.enabled();
        let mut rep_time = 0.0;
        for call in 0..spec.calls {
            let (idx, x, y) = &orders[(rep * spec.calls + call) % ORDERS];
            if traced {
                tracer.open("engine.evaluate");
            }
            let t = Instant::now();
            let result = engine.evaluate_shared(snn, x, y, &spec.sim, spec.policy);
            let dt = t.elapsed().as_secs_f64();
            if traced {
                tracer.close();
            }
            rep_time += dt;
            let Ok(r) = result else {
                tally.record_missing(idx.len() as u64);
                continue;
            };
            for (k, &i) in idx.iter().enumerate() {
                let same = r.predictions.get(k) == reference.predictions.get(i)
                    && r.exit_steps.get(k) == reference.exit_steps.get(i);
                tally.record(same);
            }
            let steps: usize = r.exit_steps.iter().sum();
            us_per_step.push(dt * 1e6 / steps.max(1) as f64);
            occ.push(occupancy(&r.exit_steps, spec.sim.batch_size));
        }
        if traced {
            rep_s.push(rep_time);
        } else {
            untraced_s.push(rep_time);
        }
        host.samples(CAL_PER_REP);
    }
    tracer.attr("reps", rep_s.len() as f64);
    tracer.close();

    // Mean rep time, in wall and in reference time: the mean pairs with
    // the mean calibration sample, so host slowdowns cancel.
    let mean_s = rep_s.iter().sum::<f64>() / rep_s.len().max(1) as f64;
    let ref_ms = mean_s * host.scale() * 1e3;
    let steps_total: usize = reference.exit_steps.iter().sum();
    let images_per_rep = (n * spec.calls) as f64;
    let mut e2e = Metrics::default();
    e2e.set("images_per_s", images_per_rep * 1e3 / ref_ms, "1/s");
    // A batch workload has one latency, the rep's; with fewer than 21
    // reps no tail percentile has ten reps beyond it.
    e2e.set("p50_ms", ref_ms, "ms");
    e2e.set("p99_ms", ref_ms, "ms");
    e2e.set("accuracy", accuracy(&reference, labels), "share");
    e2e.set("steps_per_image", steps_total as f64 / n as f64, "steps");
    let mut layer = Metrics::default();
    layer.set("host.cal_ms", host.mean_ms(), "ms");
    if let Some(untraced) = median(&untraced_s) {
        let med_s = median(&rep_s).unwrap_or(f64::NAN);
        layer.set("trace.overhead_pct", (med_s / untraced - 1.0) * 100.0, "%");
    }
    layer.set(
        "engine.us_per_sample_step",
        median(&us_per_step).unwrap_or(f64::NAN),
        "us",
    );
    layer.set(
        "engine.batch_occupancy",
        median(&occ).unwrap_or(0.0),
        "samples",
    );
    let exits = reference.exited.iter().filter(|&&e| e).count();
    eprintln!(
        "[perfbench] {} reps of {} x {n} images (IQR/median {:.3}), T<={}, \
         {} reference samples exited early; wall {:.2} images/s, \
         calibration {:.3} ms over {} samples (scale {:.3})",
        rep_s.len(),
        spec.calls,
        relative_spread(&rep_s).unwrap_or(0.0),
        spec.max_t(),
        exits,
        images_per_rep / mean_s,
        host.mean_ms(),
        host.count(),
        host.scale()
    );
    Outcome {
        tally,
        checks: Vec::new(),
        e2e,
        layer,
        replay: gather(images, &orders[0].0[..occ_batch(&occ, spec.sim.batch_size)]),
    }
}

/// The replay batch: the measured mean occupancy, rounded, within 1..=batch.
fn occ_batch(occ: &[f64], batch: usize) -> usize {
    (median(occ).unwrap_or(batch as f64).round() as usize).clamp(1, batch)
}
