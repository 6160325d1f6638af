//! Workload inputs, generated from the `--seed` argument alone before
//! any timing starts. The same seed always yields byte-identical
//! inputs; the programs under test only ever see the generated values.
//!
//! Where a property sets how much work an input carries (output length,
//! preamble popularity, suffix length, simulated sequence length) every
//! block of inputs holds the same fixed mix in a seeded order, so
//! different seeds vary token values and order but not the amount of
//! work a run measures.

use frontdoor::{Arrival, Timed, Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transformer::tasks::FIRST_CONTENT;

/// Requests per `decode-batch` wave (all submitted at once).
pub const DECODE_WAVE: usize = 48;
/// Inclusive source-length range for `decode-batch`.
pub const DECODE_SRC_LEN: (usize, usize) = (3, 6);
/// Inclusive output-length range for `decode-batch`.
pub const DECODE_NEW: (usize, usize) = (16, 48);

/// Distinct (source, preamble) pairs in `prefix-prefill`.
pub const PREFIX_PREAMBLES: usize = 16;
/// Tokens per preamble (all equal, so popularity does not change the
/// amount of prefill work between seeds).
pub const PREFIX_PREAMBLE_LEN: usize = 128;
/// Inclusive unique-suffix length range.
pub const PREFIX_SUFFIX_LEN: (usize, usize) = (8, 24);
/// Inclusive output-length range.
pub const PREFIX_NEW: (usize, usize) = (8, 16);
/// Requests per block of the `prefix-prefill` stream; each block holds
/// the Zipf popularity mix exactly (every preamble at least once).
pub const PREFIX_BLOCK: usize = 128;
/// Zipf exponent of preamble popularity: skewed enough that about two
/// thirds of requests hit the cache, so the TTFT median lies inside the
/// hit mode rather than on the edge between hits and misses.
pub const PREFIX_ZIPF_S: f64 = 1.6;

/// Lowest simulated sequence length in `accel-sim`, and the step
/// between the lengths of one pass.
pub const ACCEL_S_MIN: usize = 8;
/// Highest simulated sequence length (the paper's `s`).
pub const ACCEL_S_MAX: usize = 64;
/// Jobs per `accel-sim` pass: one per length `8, 16, …, 64`.
pub const ACCEL_PASS: usize = ACCEL_S_MAX / ACCEL_S_MIN;
/// Passes of distinct inputs generated per run (the run cycles them).
pub const ACCEL_PASSES: usize = 8;

/// Mean offered load of `door-open`, requests per second: a fixed
/// absolute rate, never derived from a capacity probe.
pub const DOOR_RATE_RPS: f64 = 200.0;
/// Requests per arrival train in `door-open`.
pub const DOOR_BURST: usize = 4;

/// Derives an independent stream for one workload from the run seed.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn tokens(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<usize> {
    (0..n)
        .map(|_| rng.random_range(FIRST_CONTENT..vocab))
        .collect()
}

/// Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// `n` values evenly spread over `lo..=hi` (both ends included), in a
/// seeded order.
fn spread(rng: &mut StdRng, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n)
        .map(|i| lo + (i * (hi - lo) + (n - 1) / 2) / (n - 1).max(1))
        .collect();
    shuffle(rng, &mut v);
    v
}

/// One `decode-batch` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeReq {
    /// Source sentence.
    pub src: Vec<usize>,
    /// Tokens to generate (EOS is ignored).
    pub max_new: usize,
}

/// `waves` waves of [`DECODE_WAVE`] requests. Every wave holds the same
/// output lengths, spread evenly over [`DECODE_NEW`], in seeded order.
pub fn decode_waves(seed: u64, waves: usize, vocab: usize) -> Vec<Vec<DecodeReq>> {
    let mut r = rng(seed, 1);
    (0..waves)
        .map(|_| {
            spread(&mut r, DECODE_WAVE, DECODE_NEW)
                .into_iter()
                .map(|max_new| {
                    let n = r.random_range(DECODE_SRC_LEN.0..=DECODE_SRC_LEN.1);
                    DecodeReq {
                        src: tokens(&mut r, n, vocab),
                        max_new,
                    }
                })
                .collect()
        })
        .collect()
}

/// The `prefix-prefill` inputs: a preamble set and a request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixInputs {
    /// `(source, preamble)` pairs; the prefix cache keys on both.
    pub preambles: Vec<(Vec<usize>, Vec<usize>)>,
    /// The request stream, consumed in order by the virtual clients.
    pub requests: Vec<PrefixReq>,
}

/// One `prefix-prefill` request: a preamble plus a unique suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixReq {
    /// Index into [`PrefixInputs::preambles`].
    pub preamble: usize,
    /// Unique prompt suffix after the preamble.
    pub suffix: Vec<usize>,
    /// Tokens to generate (EOS is ignored).
    pub max_new: usize,
}

impl PrefixInputs {
    /// The full prompt of request `i`: its preamble then its suffix.
    pub fn prompt(&self, req: &PrefixReq) -> Vec<usize> {
        let mut p = self.preambles[req.preamble].1.clone();
        p.extend_from_slice(&req.suffix);
        p
    }
}

/// How many of `total` requests go to each of `n` ranks under
/// Zipf(`s`) popularity: `total · p_k` rounded by largest remainder, so
/// the counts sum to `total` exactly.
fn zipf_counts(n: usize, s: f64, total: usize) -> Vec<usize> {
    let w: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let sum: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_rem: Vec<usize> = (0..n).collect();
    by_rem
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &k in by_rem.iter().take(short) {
        counts[k] += 1;
    }
    counts
}

/// `n` requests over [`PREFIX_PREAMBLES`] preambles, in blocks of
/// [`PREFIX_BLOCK`] that each hold the Zipf popularity mix, the suffix
/// lengths and the output lengths exactly, shuffled by the seed.
pub fn prefix_inputs(seed: u64, n: usize, vocab: usize) -> PrefixInputs {
    let mut r = rng(seed, 2);
    let preambles: Vec<(Vec<usize>, Vec<usize>)> = (0..PREFIX_PREAMBLES)
        .map(|_| {
            let src_n = r.random_range(3..=6);
            (
                tokens(&mut r, src_n, vocab),
                tokens(&mut r, PREFIX_PREAMBLE_LEN, vocab),
            )
        })
        .collect();
    let counts = zipf_counts(PREFIX_PREAMBLES, PREFIX_ZIPF_S, PREFIX_BLOCK);
    let mut requests = Vec::with_capacity(n);
    while requests.len() < n {
        let mut block: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect();
        shuffle(&mut r, &mut block);
        let suffix = spread(&mut r, PREFIX_BLOCK, PREFIX_SUFFIX_LEN);
        let new = spread(&mut r, PREFIX_BLOCK, PREFIX_NEW);
        for ((preamble, suffix_n), max_new) in block.into_iter().zip(suffix).zip(new) {
            requests.push(PrefixReq {
                preamble,
                suffix: tokens(&mut r, suffix_n, vocab),
                max_new,
            });
        }
    }
    requests.truncate(n);
    PrefixInputs {
        preambles,
        requests,
    }
}

/// One `accel-sim` job: an encoder layer's input at sequence length
/// `s`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelJob {
    /// Sequence length.
    pub s: usize,
    /// FP32 layer input, `s × d_model`.
    pub x: tensor::Mat<f32>,
}

/// [`ACCEL_PASSES`] passes of [`ACCEL_PASS`] jobs, one per sequence
/// length `8, 16, …, 64` in seeded order, except that the run opens
/// with `s = 64`.
pub fn accel_jobs(seed: u64, d_model: usize) -> Vec<AccelJob> {
    let mut r = rng(seed, 4);
    let mut jobs = Vec::with_capacity(ACCEL_PASSES * ACCEL_PASS);
    for pass in 0..ACCEL_PASSES {
        let mut lens: Vec<usize> = (1..=ACCEL_PASS).map(|k| k * ACCEL_S_MIN).collect();
        shuffle(&mut r, &mut lens);
        if pass == 0 {
            let at = lens
                .iter()
                .position(|&s| s == ACCEL_S_MAX)
                .expect("64 is a length");
            lens.swap(0, at);
        }
        jobs.extend(lens.into_iter().map(|s| AccelJob {
            s,
            x: tensor::init::normal(&mut r, s, d_model, 1.0),
        }));
    }
    jobs
}

/// The `door-open` traffic mix: bursty arrivals at [`DOOR_RATE_RPS`],
/// three tenants, three priority classes, Zipf-ranked lengths, and a
/// quarter of the requests carrying a deadline long enough to be met
/// at this load.
pub fn door_workload_config() -> WorkloadConfig {
    WorkloadConfig {
        arrival: Arrival::Bursty {
            rate_per_sec: DOOR_RATE_RPS,
            burst: DOOR_BURST,
        },
        zipf_s: 1.0,
        src_len: (3, 8),
        prompt_len: (0, 8),
        max_new: (4, 16),
        tenants: vec![(0, 0.5), (1, 0.3), (2, 0.2)],
        priorities: [0.2, 0.5, 0.3],
        deadline_frac: 0.25,
        deadline_ms: (2_000, 5_000),
    }
}

/// `n` timed `door-open` requests. The generated arrival times are
/// scaled so the whole schedule spans exactly `n / DOOR_RATE_RPS`
/// seconds: the bursts stay random, the offered load does not.
pub fn door_trace(seed: u64, n: usize, vocab: usize) -> Vec<Timed> {
    let stream_seed = seed ^ 3u64.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut trace = Workload::new(door_workload_config(), vocab, vocab, stream_seed).trace(n);
    let span_ms = n as f64 / DOOR_RATE_RPS * 1e3;
    let last = trace.last().map_or(0, |t| t.at_ms).max(1) as f64;
    for t in &mut trace {
        t.at_ms = (t.at_ms as f64 * span_ms / last).round() as u64;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-level rendering of generated inputs.
    fn bytes<T: std::fmt::Debug>(v: &T) -> Vec<u8> {
        format!("{v:?}").into_bytes()
    }

    #[test]
    fn decode_inputs_repeat_per_seed() {
        assert_eq!(
            bytes(&decode_waves(7, 3, 64)),
            bytes(&decode_waves(7, 3, 64))
        );
        assert_ne!(
            bytes(&decode_waves(7, 3, 64)),
            bytes(&decode_waves(8, 3, 64))
        );
        let w = decode_waves(7, 2, 64);
        assert!(w
            .iter()
            .flatten()
            .all(|r| r.src.iter().all(|&t| (FIRST_CONTENT..64).contains(&t))));
        // Every wave carries the same output lengths, ends included.
        let lens = |wave: &[DecodeReq]| {
            let mut l: Vec<usize> = wave.iter().map(|r| r.max_new).collect();
            l.sort_unstable();
            l
        };
        assert_eq!(lens(&w[0]), lens(&w[1]));
        assert_eq!(lens(&w[0])[0], DECODE_NEW.0);
        assert_eq!(lens(&w[0])[DECODE_WAVE - 1], DECODE_NEW.1);
    }

    #[test]
    fn prefix_inputs_repeat_per_seed() {
        assert_eq!(
            bytes(&prefix_inputs(3, 200, 64)),
            bytes(&prefix_inputs(3, 200, 64))
        );
        assert_ne!(
            bytes(&prefix_inputs(3, 200, 64)),
            bytes(&prefix_inputs(4, 200, 64))
        );
        let p = prefix_inputs(3, 2 * PREFIX_BLOCK, 64);
        // Zipf popularity, exact per block: preamble 0 is the most
        // requested and every preamble appears.
        let count = |i| p.requests.iter().filter(|r| r.preamble == i).count();
        assert!((1..PREFIX_PREAMBLES).all(|i| count(i) < count(0) && count(i) > 0));
        assert!(zipf_counts(PREFIX_PREAMBLES, PREFIX_ZIPF_S, PREFIX_BLOCK)
            .iter()
            .all(|&c| c > 0));
        let block_mix = |b: &[PrefixReq]| {
            let mut m: Vec<(usize, usize, usize)> = b
                .iter()
                .map(|r| (r.preamble, r.suffix.len(), r.max_new))
                .collect();
            m.sort_unstable();
            m.iter().map(|x| x.0).sum::<usize>()
                + m.iter().map(|x| x.1).sum::<usize>()
                + m.iter().map(|x| x.2).sum::<usize>()
        };
        let (b0, b1) = p.requests.split_at(PREFIX_BLOCK);
        assert_eq!(block_mix(b0), block_mix(b1));
        assert!(p
            .preambles
            .iter()
            .all(|(_, pre)| pre.len() == PREFIX_PREAMBLE_LEN));
    }

    #[test]
    fn zipf_counts_sum_exactly_and_decrease() {
        let c = zipf_counts(PREFIX_PREAMBLES, 1.0, PREFIX_BLOCK);
        assert_eq!(c.iter().sum::<usize>(), PREFIX_BLOCK);
        assert!(c.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(
            spread(&mut rng(1, 9), 5, (8, 24)).iter().sum::<usize>(),
            8 + 12 + 16 + 20 + 24
        );
    }

    #[test]
    fn door_trace_repeats_per_seed() {
        assert_eq!(
            bytes(&door_trace(5, 300, 64)),
            bytes(&door_trace(5, 300, 64))
        );
        assert_ne!(
            bytes(&door_trace(5, 300, 64)),
            bytes(&door_trace(6, 300, 64))
        );
        let t = door_trace(5, 3000, 64);
        let rate = t.len() as f64 * 1000.0 / t.last().expect("non-empty").at_ms as f64;
        assert!((rate / DOOR_RATE_RPS - 1.0).abs() < 1e-3, "rate {rate}");
        // Still bursty: trains of requests share a due time.
        assert!(t.windows(2).filter(|w| w[0].at_ms == w[1].at_ms).count() > t.len() / 2);
    }

    #[test]
    fn accel_jobs_repeat_per_seed_and_cover_every_length() {
        let a = accel_jobs(11, 16);
        assert_eq!(bytes(&a), bytes(&accel_jobs(11, 16)));
        assert_ne!(bytes(&a), bytes(&accel_jobs(12, 16)));
        assert_eq!(a[0].s, ACCEL_S_MAX);
        for pass in a.chunks(ACCEL_PASS) {
            let mut lens: Vec<usize> = pass.iter().map(|j| j.s).collect();
            lens.sort_unstable();
            assert_eq!(
                lens,
                (1..=ACCEL_PASS)
                    .map(|k| k * ACCEL_S_MIN)
                    .collect::<Vec<_>>()
            );
        }
        assert!(a.iter().all(|j| j.x.shape() == (j.s, 16)));
    }
}
