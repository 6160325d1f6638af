//! E20 — shared-prefix KV cache: TTFT and KV residency under prefix
//! reuse.
//!
//! Serving fleets front most requests with a common preamble (system
//! prompt, few-shot examples, retrieval header). The serving layer's
//! radix prefix index snapshots every prompt's page-aligned prefix at
//! the prefill→decode transition; a later request whose prompt extends a
//! cached prefix **forks** the snapshot — sharing its KV pages
//! copy-on-write — and prefills only the suffix.
//!
//! Two sections:
//!
//! * **TTFT sweep** — sequential requests (`max_batch = 1`) over a
//!   paper-shape 2-layer decoder at 0% / 50% / 90% prompt share (the
//!   leading fraction of every prompt that is a common prefix), each
//!   level run with the cache disabled and enabled in the same process.
//!   Time-to-first-token is each request's own prefill window (engine
//!   wall time from its admission to its `first_token_step`). Asserted:
//!   ≥ 3× TTFT p50 at 90% share.
//! * **KV residency** — `N` *concurrent* requests with a fully shared
//!   prompt against a warmed cache: copy-on-write page sharing must make
//!   the fleet's peak KV cost approximately **one** prompt's pages plus
//!   per-request decode tails (asserted ≤ 2× one session's bytes), where
//!   the cold engine pays the prompt `N` times — which is exactly the
//!   sessions-per-KV-budget multiplier reported.
//!
//! Bit-identity of hit-path decode is pinned separately
//! (`tests/prefix_identity.rs`); this binary measures what the reuse
//! buys. Results land in `results/BENCH_prefix.json`; run with
//! `cargo run --release --bin prefix`.

use std::time::Instant;

use bench_harness::stats::percentile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use serving::{ContinuousBatcher, EngineConfig, Request, Response};
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen};

/// Prompt length per request (tokens, before the implicit `BOS` row).
const PROMPT_LEN: usize = 256;
/// Tokens decoded per request.
const MAX_NEW: usize = 8;
/// Requests per share level in the sequential TTFT sweep.
const N_REQUESTS: usize = 8;
/// Concurrent requests in the KV-residency section.
const N_CONCURRENT: usize = 8;
/// Prompt rows a prefilling request may consume per engine step.
const PREFILL_CHUNK: usize = 64;
/// Fixed KV memory budget for the sessions-per-budget comparison.
const KV_BUDGET: usize = 256 << 20;

/// One share level of the sequential TTFT sweep, cold (cache disabled)
/// vs warm (cache enabled) on the identical request stream.
#[derive(Serialize)]
struct SharePoint {
    /// Fraction of every prompt that is the common leading prefix.
    share: f64,
    shared_tokens: usize,
    /// Cold-engine TTFT percentiles (ms).
    cold_ttft_ms_p50: f64,
    cold_ttft_ms_p99: f64,
    /// Warm-engine TTFT percentiles (ms).
    warm_ttft_ms_p50: f64,
    warm_ttft_ms_p99: f64,
    /// Cold-over-warm TTFT p50 — the headline reuse win.
    ttft_speedup_p50: f64,
    /// Prefill rows each engine actually ingested.
    cold_prefill_rows: usize,
    warm_prefill_rows: usize,
    prefix_hits: usize,
    prefix_misses: usize,
    /// Prompt rows admissions reattached instead of re-prefilling.
    prefix_rows_reused: usize,
}

/// The concurrent fully-shared-prompt residency comparison.
#[derive(Serialize)]
struct KvSharing {
    requests: usize,
    prompt_tokens: usize,
    /// Peak resident KV bytes, cold engine (every session pays its whole
    /// prompt).
    cold_kv_bytes_peak: usize,
    /// Peak resident KV bytes, warm engine (prompt pages shared
    /// copy-on-write across all sessions and the cache entry; shared
    /// pages counted once).
    warm_kv_bytes_peak: usize,
    /// `warm_peak / (cold_peak / N)` — what one *additional* fully
    /// shared session costs relative to a cold session. ~1 means the
    /// whole fleet rides one copy of the prompt (asserted ≤ 2).
    shared_session_cost_ratio: f64,
    kv_budget_bytes: usize,
    cold_sessions_in_budget: usize,
    warm_sessions_in_budget: usize,
    /// Concurrent-session gain at the fixed budget.
    session_gain: f64,
}

#[derive(Serialize)]
struct PrefixBench {
    model: String,
    d_model: usize,
    n_layers: usize,
    prompt_tokens: usize,
    new_tokens: usize,
    requests_per_level: usize,
    prefill_chunk: usize,
    page_rows: usize,
    points: Vec<SharePoint>,
    kv: KvSharing,
}

fn engine_config(prefix_cache_bytes: usize, max_batch: usize) -> EngineConfig {
    EngineConfig {
        max_batch,
        bucket_max_waste: usize::MAX,
        prefill_chunk: PREFILL_CHUNK,
        max_prefill_rows: PREFILL_CHUNK * 4,
        ignore_eos: true,
        prefix_cache_bytes,
        ..EngineConfig::default()
    }
}

/// Runs `reqs` sequentially (`max_batch = 1`) and returns each
/// request's TTFT in milliseconds (id order) plus the engine stats.
///
/// With one slot, request `i` is admitted on the step after request
/// `i-1`'s retirement, so its TTFT window is the cumulative wall time
/// from that step through its `first_token_step`.
fn sequential_ttfts(
    q: &quantized::QuantSeq2Seq,
    reqs: Vec<Request>,
    prefix_cache_bytes: usize,
) -> (Vec<f64>, serving::ServingStats) {
    let n = reqs.len();
    let mut engine =
        ContinuousBatcher::new(q, engine_config(prefix_cache_bytes, 1)).expect("nonzero max_batch");
    for r in reqs {
        engine.submit(r).expect("valid request");
    }
    let mut cum_ms: Vec<f64> = Vec::new();
    let mut total_ms = 0.0;
    loop {
        let t0 = Instant::now();
        if !engine.step() {
            break;
        }
        total_ms += t0.elapsed().as_secs_f64() * 1e3;
        cum_ms.push(total_ms);
    }
    let mut responses: Vec<Response> = engine.run_to_completion();
    assert_eq!(responses.len(), n);
    assert!(responses.iter().all(|r| r.tokens.len() == MAX_NEW));
    responses.sort_by_key(|r| r.id);
    let ttfts = responses
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let first = r.first_token_step.expect("every request generated");
            // Admission is the step after the previous request's last
            // decode step (requests run one at a time in id order).
            let admitted_after = if i == 0 {
                None
            } else {
                let prev = responses[i - 1]
                    .first_token_step
                    .expect("every request generated");
                Some(prev + MAX_NEW - 1)
            };
            match admitted_after {
                None => cum_ms[first],
                Some(p) => cum_ms[first] - cum_ms[p],
            }
        })
        .collect();
    (ttfts, engine.stats())
}

fn share_level(
    q: &quantized::QuantSeq2Seq,
    src: &[usize],
    share: f64,
    rng: &mut StdRng,
    vocab: usize,
) -> SharePoint {
    let shared_tokens = ((PROMPT_LEN as f64) * share).round() as usize;
    let common: Vec<usize> = (0..shared_tokens)
        .map(|_| rng.random_range(3..vocab))
        .collect();
    let reqs = || -> Vec<Request> {
        let mut tail_rng = StdRng::seed_from_u64(0x0E20_7A11 + shared_tokens as u64);
        (0..N_REQUESTS)
            .map(|id| {
                let mut prompt = common.clone();
                prompt.extend(
                    (0..PROMPT_LEN - shared_tokens).map(|_| tail_rng.random_range(3..vocab)),
                );
                Request::new(id as u64, src.to_vec(), MAX_NEW).with_prompt(prompt)
            })
            .collect()
    };
    let (mut cold, cold_stats) = sequential_ttfts(q, reqs(), 0);
    let (mut warm, warm_stats) = sequential_ttfts(q, reqs(), usize::MAX);
    let point = SharePoint {
        share,
        shared_tokens,
        cold_ttft_ms_p50: percentile(&mut cold, 50.0),
        cold_ttft_ms_p99: percentile(&mut cold, 99.0),
        warm_ttft_ms_p50: percentile(&mut warm, 50.0),
        warm_ttft_ms_p99: percentile(&mut warm, 99.0),
        ttft_speedup_p50: percentile(&mut cold, 50.0) / percentile(&mut warm, 50.0),
        cold_prefill_rows: cold_stats.prefill_rows,
        warm_prefill_rows: warm_stats.prefill_rows,
        prefix_hits: warm_stats.prefix_hits,
        prefix_misses: warm_stats.prefix_misses,
        prefix_rows_reused: warm_stats.prefix_rows_reused,
    };
    assert_eq!(cold_stats.prefix_hits, 0, "disabled cache must never hit");
    assert_eq!(
        point.cold_prefill_rows - point.warm_prefill_rows,
        point.prefix_rows_reused,
        "every reused row is a prefill row the warm engine skipped"
    );
    println!(
        "share {share:>4.0}%: TTFT p50 {:>7.1} ms -> {:>7.1} ms ({:.2}x)  p99 {:>7.1} -> {:>7.1} ms  \
         hits {}/{}  rows reused {}",
        point.cold_ttft_ms_p50,
        point.warm_ttft_ms_p50,
        point.ttft_speedup_p50,
        point.cold_ttft_ms_p99,
        point.warm_ttft_ms_p99,
        point.prefix_hits,
        point.prefix_hits + point.prefix_misses,
        point.prefix_rows_reused,
        share = share * 100.0,
    );
    point
}

/// `N` concurrent requests with a *fully* shared prompt: with the cache
/// warm, every admission forks the same snapshot and the prompt's pages
/// exist once; cold, each session materializes its own copy.
fn kv_sharing(q: &quantized::QuantSeq2Seq, src: &[usize], vocab: usize) -> KvSharing {
    let mut rng = StdRng::seed_from_u64(0xE20C0);
    let prompt: Vec<usize> = (0..PROMPT_LEN)
        .map(|_| rng.random_range(3..vocab))
        .collect();
    let run = |budget: usize| {
        let mut engine = ContinuousBatcher::new(q, engine_config(budget, N_CONCURRENT))
            .expect("nonzero max_batch");
        if budget > 0 {
            // Prime the cache with one solo request, so the concurrent
            // wave below hits on admission.
            engine
                .submit(Request::new(u64::MAX, src.to_vec(), MAX_NEW).with_prompt(prompt.clone()))
                .expect("valid request");
            engine.run_to_completion();
        }
        for id in 0..N_CONCURRENT {
            engine
                .submit(Request::new(id as u64, src.to_vec(), MAX_NEW).with_prompt(prompt.clone()))
                .expect("valid request");
        }
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), N_CONCURRENT);
        engine.stats()
    };
    let cold = run(0);
    let warm = run(usize::MAX);
    assert_eq!(warm.prefix_hits, N_CONCURRENT, "every admission must hit");
    let cold_per_session = cold.kv_bytes_peak / N_CONCURRENT;
    let cost_ratio = warm.kv_bytes_peak as f64 / cold_per_session as f64;
    let kv = KvSharing {
        requests: N_CONCURRENT,
        prompt_tokens: PROMPT_LEN,
        cold_kv_bytes_peak: cold.kv_bytes_peak,
        warm_kv_bytes_peak: warm.kv_bytes_peak,
        shared_session_cost_ratio: cost_ratio,
        kv_budget_bytes: KV_BUDGET,
        cold_sessions_in_budget: KV_BUDGET / cold_per_session,
        warm_sessions_in_budget: KV_BUDGET / (warm.kv_bytes_peak / N_CONCURRENT),
        session_gain: cold.kv_bytes_peak as f64 / warm.kv_bytes_peak as f64,
    };
    println!(
        "\nkv ({N_CONCURRENT} fully shared sessions): cold peak {:.2} MB -> warm peak {:.2} MB  \
         whole fleet costs {cost_ratio:.2}x one cold session  \
         sessions in {} MB budget: {} -> {}",
        kv.cold_kv_bytes_peak as f64 / (1 << 20) as f64,
        kv.warm_kv_bytes_peak as f64 / (1 << 20) as f64,
        KV_BUDGET >> 20,
        kv.cold_sessions_in_budget,
        kv.warm_sessions_in_budget,
    );
    assert!(
        cost_ratio <= 2.0,
        "{N_CONCURRENT} fully shared sessions must cost ~1x one session's KV \
         (copy-on-write pages; got {cost_ratio:.2}x)"
    );
    kv
}

fn main() {
    // Paper-shape ResBlocks, shallow and small-vocab so calibration is
    // cheap; prefill cost is dominated by the 512/2048 GEMMs either way.
    let cfg = ModelConfig {
        name: "Transformer-base-2L-prefix".into(),
        d_model: 512,
        d_ff: 2048,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len: PROMPT_LEN + 4 * MAX_NEW,
    };
    println!(
        "building {} (d_model={}, {} layers, max_len={})...",
        cfg.name, cfg.d_model, cfg.n_layers, cfg.max_len
    );
    let mut rng = StdRng::seed_from_u64(0xE20_5EED);
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
    let calib = gen.corpus(4, &mut StdRng::seed_from_u64(0xE20_CA11));
    let q = quantized::QuantSeq2Seq::from_trained(&fp32, &calib, quantized::SoftmaxMode::Hardware);
    // Every request shares one source: prefix reuse requires identical
    // encoder memory (the cross-attention K/V belong to the source).
    let src = calib[0].0.clone();

    let mut prompt_rng = StdRng::seed_from_u64(0xE20_0123);
    let points: Vec<SharePoint> = [0.0, 0.5, 0.9]
        .iter()
        .map(|&share| share_level(&q, &src, share, &mut prompt_rng, cfg.vocab))
        .collect();
    let at90 = points.last().expect("three share levels");
    assert!(
        at90.ttft_speedup_p50 >= 3.0,
        "prefix cache must cut TTFT p50 by >= 3x at 90% share (got {:.2}x)",
        at90.ttft_speedup_p50
    );

    let kv = kv_sharing(&q, &src, cfg.vocab);

    let report = PrefixBench {
        model: cfg.name.clone(),
        d_model: cfg.d_model,
        n_layers: cfg.n_layers,
        prompt_tokens: PROMPT_LEN,
        new_tokens: MAX_NEW,
        requests_per_level: N_REQUESTS,
        prefill_chunk: PREFILL_CHUNK,
        page_rows: tensor::kvpool::page_rows_from_env(tensor::kvpool::DEFAULT_PAGE_ROWS),
        points,
        kv,
    };
    bench_harness::write_json("BENCH_prefix", &report);
}
