//! Host-speed reference for a shared machine.
//!
//! A fixed kernel, independent of the code under test, is timed every
//! few milliseconds on each thread that runs the workload. Its time
//! against a nominal constant gives the host's speed around each moment
//! of the run. Every measured time is scaled by the speed around when
//! it was taken, so the same program reads the same whether the host's
//! other tenants were busy or idle.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference kernel time (ns) this benchmark calls speed 1.0: about
/// its time on a 2-vCPU Xeon virtual machine with busy neighbours.
pub const NOMINAL_NS: f64 = 32_000.0;
/// Minimum wall time between two reference samples on one thread.
const EVERY: Duration = Duration::from_millis(10);
/// Reference samples within this distance of a moment describe the
/// host's speed at that moment.
const SPAN: Duration = Duration::from_millis(50);
/// Bytes of the reference's streaming buffer: past the private caches,
/// like the weight panels a decode step streams.
const STREAM_BYTES: usize = 4 << 20;
/// Bytes streamed per sample (a rotating slice of the buffer).
const STREAM_SLICE: usize = 64 << 10;

/// The reference kernel, written here so that no change to the program
/// can move it. Three parts mirror the workloads' hot loops: integer
/// multiply-accumulate over L1-resident buffers (the INT8 kernels), a
/// slice of a buffer larger than the private caches (weight streaming),
/// and a dependent scalar chain with data-dependent branches (the
/// cycle-by-cycle simulator and the event loop).
fn reference_ns(a: &[i8], b: &[i8], stream: &[i8], at: usize) -> f64 {
    let t0 = Instant::now();
    let mut acc = 0i32;
    for r in 0..8 {
        let a = black_box(a);
        let s: i32 = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        acc = acc.wrapping_add(s ^ r);
    }
    let slice = &black_box(stream)[at..at + STREAM_SLICE];
    acc = acc.wrapping_add(slice.iter().map(|&x| i32::from(x)).sum::<i32>());
    let mut h = black_box(acc as u32) | 1;
    for _ in 0..4096 {
        h = if h & 1 == 0 {
            h >> 1
        } else {
            h.wrapping_mul(3).wrapping_add(1)
        };
        h ^= h.rotate_left(7);
    }
    black_box(h);
    t0.elapsed().as_nanos() as f64
}

/// Reference samples taken during one run.
pub struct HostSpeed {
    a: Vec<i8>,
    b: Vec<i8>,
    stream: Vec<i8>,
    at: usize,
    last: Option<Instant>,
    /// `(when, reference ns)`, in time order.
    samples: Vec<(Instant, f64)>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self {
            a: (0..8192).map(|i| (i * 7 % 251) as i8).collect(),
            b: (0..8192).map(|i| (i * 13 % 241) as i8).collect(),
            stream: (0..STREAM_BYTES).map(|i| (i % 127) as i8).collect(),
            at: 0,
            last: None,
            samples: Vec::new(),
        }
    }
}

impl HostSpeed {
    /// Samples the reference if [`EVERY`] has passed since the last
    /// sample.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < EVERY) {
            return;
        }
        self.sample();
    }

    /// Samples the reference now (around a long call that cannot tick).
    pub fn sample(&mut self) {
        let ns = reference_ns(&self.a, &self.b, &self.stream, self.at);
        self.at = (self.at + STREAM_SLICE) % STREAM_BYTES;
        let now = Instant::now();
        self.samples.push((now, ns));
        self.last = Some(now);
    }

    /// Merges another thread's samples.
    pub fn absorb(&mut self, other: HostSpeed) {
        self.samples.extend(other.samples);
        self.samples.sort_by_key(|&(t, _)| t);
    }

    /// The host's speed relative to nominal (above 1 when faster) over
    /// `from..=to` widened by [`SPAN`] on each side: nominal time over
    /// the mean reference time there, or over the nearest sample if
    /// none falls inside.
    ///
    /// # Panics
    ///
    /// Panics if no sample was taken.
    pub fn over(&self, from: Instant, to: Instant) -> f64 {
        assert!(!self.samples.is_empty(), "no reference sample taken");
        let lo = self.samples.partition_point(|&(t, _)| t + SPAN < from);
        let hi = self.samples.partition_point(|&(t, _)| t <= to + SPAN);
        let mean = if lo < hi {
            let inside = &self.samples[lo..hi];
            inside.iter().map(|&(_, ns)| ns).sum::<f64>() / inside.len() as f64
        } else {
            // Between samples: the closer neighbour.
            let near = lo.min(self.samples.len() - 1);
            let before = near.saturating_sub(1);
            let gap = |i: usize| {
                let t = self.samples[i].0;
                if t > from {
                    t - from
                } else {
                    from - t
                }
            };
            self.samples[if gap(before) < gap(near) {
                before
            } else {
                near
            }]
            .1
        };
        NOMINAL_NS / mean
    }

    /// The host's speed around one moment.
    pub fn at(&self, t: Instant) -> f64 {
        self.over(t, t)
    }

    /// The host's speed over the whole run.
    pub fn overall(&self) -> f64 {
        let n = self.samples.len() as f64;
        NOMINAL_NS / (self.samples.iter().map(|&(_, ns)| ns).sum::<f64>() / n)
    }

    /// Rates measured over the given intervals, each divided by the
    /// host's speed over its interval.
    pub fn scale_rates(&self, units: &[(Instant, Instant, f64)]) -> Vec<f64> {
        units.iter().map(|&(a, b, r)| r / self.over(a, b)).collect()
    }

    /// Latency samples taken at the given moments, each multiplied by
    /// the host's speed around it.
    pub fn scale_latencies(&self, samples: &[(Instant, f64)]) -> Vec<f64> {
        samples.iter().map(|&(t, v)| v * self.at(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_follows_the_samples_around_a_moment() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        let mut h = HostSpeed::default();
        // Nominal speed for the first second, half speed after.
        for i in 0..100u64 {
            let ns = if i < 50 { NOMINAL_NS } else { 2.0 * NOMINAL_NS };
            h.samples.push((ms(20 * i), ns));
        }
        assert_eq!(h.at(ms(300)), 1.0);
        assert_eq!(h.at(ms(1800)), 0.5);
        assert_eq!(h.over(ms(100), ms(800)), 1.0);
        // Past the last sample: the nearest one.
        assert_eq!(h.at(ms(60_000)), 0.5);
        let scaled = h.scale_latencies(&[(ms(300), 4.0), (ms(1800), 4.0)]);
        assert_eq!(scaled, vec![4.0, 2.0]);
    }
}
