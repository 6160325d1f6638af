//! The programs under test, built the way a deployment builds them:
//! FP32 weights from a fixed seed, INT8 calibration, quantization and
//! weight prepacking. Model weights are part of the program, not of the
//! workload, so they never depend on `--seed`.

use crate::host::HostSpeed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen};

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Set-ups repeat until together they took this long, so that a cheap
/// set-up's median rests on many samples.
const SETUP_MIN_TOTAL_S: f64 = 2.0;
/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 32;

/// Paper-shape decoder: Transformer-base ResBlocks (`d_model` 512,
/// `d_ff` 2048, `h` 8), two layers, small vocabulary.
pub fn paper_config(max_len: usize) -> ModelConfig {
    ModelConfig {
        name: "Transformer-base-2L".into(),
        d_model: 512,
        d_ff: 2048,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len,
    }
}

/// The small serving model of the front-door workload (`d_model` 64).
pub fn small_config() -> ModelConfig {
    ModelConfig {
        name: "Transformer-2L-d64".into(),
        d_model: 64,
        d_ff: 256,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len: 64,
    }
}

/// Builds, calibrates and quantizes (prepacking every weight) a model.
pub fn build(cfg: &ModelConfig) -> quantized::QuantSeq2Seq {
    let fp32 = Seq2SeqTransformer::new(cfg, &mut StdRng::seed_from_u64(0x5EED_0001));
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
    let calib = gen.corpus(4, &mut StdRng::seed_from_u64(0x5EED_0002));
    quantized::QuantSeq2Seq::from_trained(&fp32, &calib, quantized::SoftmaxMode::Hardware)
}

/// The set-ups of one run: each one's interval and wall time, and the
/// host's speed sampled just before and after each.
pub struct Setups {
    /// `(start, end, seconds)` of each set-up.
    pub runs: Vec<(Instant, Instant, f64)>,
    /// Reference samples around the set-ups.
    pub host: HostSpeed,
}

impl Setups {
    /// Each set-up's wall time multiplied by the host's speed over it,
    /// as every other timing of the benchmark is (see [`crate::host`]).
    pub fn scaled(&self) -> Vec<f64> {
        self.runs
            .iter()
            .map(|&(a, b, s)| s * self.host.over(a, b))
            .collect()
    }

    /// Unscaled wall times.
    pub fn raw(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.2).collect()
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times, and more (up to
/// [`SETUP_MAX_REPS`]) until the set-ups took [`SETUP_MIN_TOTAL_S`]
/// together; keeps the last result and returns it with the set-ups'
/// timings.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (T, Setups) {
    let mut done = Setups {
        runs: Vec::with_capacity(SETUP_REPS),
        host: HostSpeed::default(),
    };
    let mut last = None;
    while done.runs.len() < SETUP_REPS
        || done.raw().iter().sum::<f64>() < SETUP_MIN_TOTAL_S && done.runs.len() < SETUP_MAX_REPS
    {
        // Drop the previous instance first so peak memory holds one.
        drop(last.take());
        done.host.sample();
        let t0 = Instant::now();
        let built = setup();
        let t1 = Instant::now();
        done.host.sample();
        done.runs
            .push((t0, t1, t1.duration_since(t0).as_secs_f64()));
        last = Some(built);
    }
    (last.expect("SETUP_REPS > 0"), done)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
