//! Outside-in span recording for the traced run. The program's own
//! `TCL_TRACE` stays off (its per-timestep spans would distort the times);
//! the benchmark opens spans around the public calls it makes instead.

use std::path::Path;
use std::time::{Duration, Instant};

use tcl_perfbench::Recorder;

/// A span recorder bound to a wall-clock epoch; a no-op when disabled.
pub struct Tracer {
    epoch: Instant,
    rec: Option<Recorder>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            rec: enabled.then(Recorder::default),
        }
    }

    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    fn us(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &str) {
        let now = self.us(Instant::now());
        if let Some(r) = &mut self.rec {
            r.open(name, now);
        }
    }

    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(r) = &mut self.rec {
            r.attr(key, value);
        }
    }

    pub fn close(&mut self) {
        let now = self.us(Instant::now());
        if let Some(r) = &mut self.rec {
            r.close(now);
        }
    }

    /// Records a span that already ran from `start` for `dur`.
    pub fn leaf(&mut self, name: &str, start: Instant, dur: Duration) {
        let start_us = self.us(start);
        if let Some(r) = &mut self.rec {
            r.leaf(
                name,
                start_us,
                u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
            );
        }
    }

    /// Writes the closed spans as JSONL; returns how many.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        let Some(r) = &self.rec else { return Ok(0) };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, r.to_jsonl())?;
        Ok(r.len())
    }
}
