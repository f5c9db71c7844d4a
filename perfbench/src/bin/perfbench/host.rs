//! Host-speed calibration. A fixed compute kernel, written here rather
//! than taken from the repo so no change to the program moves it, runs
//! interleaved with the timed work. Timed work is reported in reference
//! time: wall time times `REF_MS / mean calibration time`. A host
//! slowdown that hits the work and the kernel alike cancels, and a change
//! to the program still moves the reported time in proportion.

use std::hint::black_box;
use std::time::Instant;

/// Median time of one calibration sample on an idle 2-vCPU Xeon host
/// (AVX2), in ms: the reference speed every timing metric is scaled to.
pub const REF_MS: f64 = 3.2;
/// Side of the square matrices the kernel multiplies (L1-resident).
const N: usize = 48;
/// Multiplications per sample.
const ROUNDS: usize = 40;

/// Calibration samples taken so far.
#[derive(Default)]
pub struct Host {
    samples_ms: Vec<f64>,
}

impl Host {
    /// Runs one calibration sample (a few ms) and records its time.
    pub fn sample(&mut self) {
        self.samples_ms.push(kernel_ms());
    }

    /// Runs `n` samples.
    pub fn samples(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Mean sample time, in ms; `REF_MS` before any sample.
    pub fn mean_ms(&self) -> f64 {
        if self.samples_ms.is_empty() {
            return REF_MS;
        }
        self.samples_ms.iter().sum::<f64>() / self.samples_ms.len() as f64
    }

    /// Factor that turns wall time measured alongside these samples into
    /// reference time.
    pub fn scale(&self) -> f64 {
        REF_MS / self.mean_ms()
    }

    /// Samples taken.
    pub fn count(&self) -> usize {
        self.samples_ms.len()
    }
}

/// One run of the calibration kernel, in ms.
// The indexed loops are the kernel `REF_MS` was measured on; another loop
// shape would compile to another speed.
#[allow(clippy::needless_range_loop)]
fn kernel_ms() -> f64 {
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.25).collect();
    let mut c = vec![0f32; N * N];
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(a[i * N + k]);
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    t.elapsed().as_secs_f64() * 1e3
}
