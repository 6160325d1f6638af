//! E17 — continuous-batching decode throughput.
//!
//! Runs the serving layer's [`ContinuousBatcher`] over a paper-shape
//! decoder (Transformer-base ResBlock dimensions: `d_model = 512`,
//! `d_ff = 2048`, `h = 8`) at batch sizes 1..64 and reports:
//!
//! * measured **tokens/sec** (wall clock, this host's CPU kernels) and
//!   the speedup over `max_batch = 1` — the continuous-batching win on
//!   the software side comes from amortizing each layer's weight-panel
//!   streaming across all in-flight rows;
//! * **per-token latency p50/p95** (milliseconds): each generated token
//!   is attributed the wall time of the engine step that produced it, so
//!   the tail shows what batching costs individual requests while the
//!   throughput column shows what it buys the fleet;
//! * modeled **array utilization** of the same decode step on the
//!   paper's `64 × 64` systolic array ([`accel::EngineStats`], analytic
//!   wavefront timing): a 1-row decode GEMM leaves almost the entire PE
//!   grid idle, which is exactly the idle capacity continuous batching
//!   reclaims.
//!
//! Every request decodes a fixed token budget (`ignore_eos`), so each
//! batch size does identical work. Results land in
//! `results/BENCH_decode.json`; run with `cargo run --release --bin
//! throughput`.

use std::time::Instant;

use accel::EngineStats;
use bench_harness::stats::percentile;
use hwsim::cycles::Cycle;
use quantized::incremental::KvArena;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use serving::{ContinuousBatcher, EngineConfig, Request};
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS};

/// The accelerator's array height (and the paper's max sequence length).
const S_MAX: usize = 64;
/// Weight-panel width / array column count.
const PANEL: usize = 64;

/// Requests per batch-size configuration.
const N_REQUESTS: usize = 48;
/// Tokens decoded per request (every request decodes exactly this
/// many). Long enough that the steady-state decode loop — not the
/// per-request encoder prefill — dominates the wall clock.
const MAX_NEW: usize = 24;

#[derive(Serialize)]
struct BatchPoint {
    max_batch: usize,
    tokens: usize,
    elapsed_s: f64,
    tokens_per_sec: f64,
    speedup_vs_b1: f64,
    /// Median per-token latency in milliseconds (each generated token's
    /// latency is the wall time of the engine step that produced it).
    token_latency_ms_p50: f64,
    /// 95th-percentile per-token latency in milliseconds — the tail that
    /// batching trades against throughput.
    token_latency_ms_p95: f64,
    /// Mean fraction of occupied decode slots across all steps.
    slot_occupancy: f64,
    /// Modeled fraction of the `64 × 64` array's MAC capacity used by
    /// one decode step at this batch size.
    array_utilization: f64,
}

/// The long-prompt/short-answer workload: chunked prefill through the
/// serving engine versus token-at-a-time prompt ingestion.
#[derive(Serialize)]
struct PrefillBench {
    /// Prompt length per request (plus one `BOS` row each).
    prompt_tokens: usize,
    new_tokens: usize,
    requests: usize,
    prefill_chunk: usize,
    max_prefill_rows: usize,
    /// Token-at-a-time ingestion rate (rows/s through `step_session`).
    sequential_prefill_tok_s: f64,
    /// Chunked ingestion rate through the engine (prefill rows divided
    /// by the wall time of the steps that consumed them — conservative,
    /// since those steps also carry decode rows).
    chunked_prefill_tok_s: f64,
    prefill_speedup: f64,
    /// Sequential time-to-first-token: wall time to ingest `[BOS]` +
    /// prompt one row per step (the first generated token is the argmax
    /// of the final ingestion step's logits).
    sequential_ttft_ms: f64,
    /// Chunked-prefill TTFT percentiles across requests: cumulative
    /// engine wall time up to each request's `first_token_step`.
    ttft_ms_p50: f64,
    ttft_ms_p99: f64,
}

/// Paged INT8 KV residency versus the flat `max_len`-row reservation
/// the pre-paging session caches made.
#[derive(Serialize)]
struct KvBench {
    page_rows: usize,
    max_len: usize,
    /// Mean resident KV bytes per session at the concurrency peak.
    paged_int8_bytes_per_session: usize,
    /// What a flat INT8 cache reserved per session: `layers × {K,V} ×
    /// max_len × d_model` codes, regardless of tokens actually held.
    flat_int8_bytes_per_session: usize,
    /// The FP32 serving-cache equivalent of the same reservation.
    flat_fp32_bytes_per_session: usize,
    kv_budget_bytes: usize,
    flat_fp32_sessions_in_budget: usize,
    flat_int8_sessions_in_budget: usize,
    paged_int8_sessions_in_budget: usize,
    /// Concurrent-session gain at a fixed KV budget: flat FP32
    /// reservation over measured paged INT8 residency.
    session_gain_vs_flat_fp32: f64,
    session_gain_vs_flat_int8: f64,
}

/// Graph-fusion differential at the batch-16 operating point: the same
/// workload with the rewrite pass on (default) and off (`ACCEL_NO_FUSE`
/// semantics, i.e. the pre-fusion engine). Both runs happen in the same
/// process on the same warmed pool, so the ratio isolates the fusion
/// win from machine noise — the recorded pre-fusion number from the
/// unfused engine's own bench run is kept alongside for reference.
#[derive(Serialize)]
struct FusionBench {
    max_batch: usize,
    fused_tok_s: f64,
    unfused_tok_s: f64,
    /// Same-run fused-over-unfused throughput ratio (asserted >= 1.15).
    fusion_speedup: f64,
    /// Batch-16 tokens/sec recorded by the unfused engine's bench run
    /// (the committed pre-fusion `BENCH_decode.json`).
    recorded_unfused_tok_s: f64,
    speedup_vs_recorded: f64,
    /// Fused drains per engine step per decoder layer (>= 2: both MHA
    /// output projections always fuse; the FFN adds two more).
    fused_ops_per_step_per_layer: f64,
    /// Intermediate tensors' bytes never materialized, whole run.
    intermediates_elided_mb: f64,
}

#[derive(Serialize)]
struct DecodeBench {
    model: String,
    d_model: usize,
    d_ff: usize,
    heads: usize,
    n_layers: usize,
    requests: usize,
    tokens_per_request: usize,
    pe_count: u64,
    points: Vec<BatchPoint>,
    fusion: FusionBench,
    prefill: PrefillBench,
    kv: KvBench,
}

/// One modeled GEMM pass through the `S_MAX × 64` array: `m × k` times
/// `k × n`, analytic wavefront timing (`compute = k + m + n − 2`,
/// `drain = n` — the same closed form as
/// `accel::systolic::SystolicArray::simulate_analytic`).
fn pass(m: usize, k: usize, n: usize) -> EngineStats {
    EngineStats {
        gemm_passes: 1,
        macs: (m * k * n) as u64,
        isolated_cycles: Cycle((k + m + n - 2 + n) as u64),
        ..EngineStats::default()
    }
}

/// Models one batched decode step at batch size `b` on the paper array:
/// the per-layer weight GEMMs run once over all `b` stacked rows, while
/// the per-request attention passes stay single-row (their cache
/// lengths differ). `ctx` is the mean self-attention cache length and
/// `src` the source length the cross-attention attends over.
fn model_decode_step(cfg: &ModelConfig, b: usize, ctx: usize, src: usize) -> EngineStats {
    let d = cfg.d_model;
    let panels = d / PANEL;
    let mut step = EngineStats::default();
    for _ in 0..cfg.n_layers {
        // Self-attention: W_Q, W_K, W_V, W_G batched over all rows.
        for _ in 0..4 * panels {
            step.merge(&pass(b, d, PANEL));
        }
        // Cross-attention: only W_Q and W_G run per step (the source-side
        // K/V projections are computed once at admission).
        for _ in 0..2 * panels {
            step.merge(&pass(b, d, PANEL));
        }
        // Per-request, per-head attention (single query row).
        for _ in 0..b {
            for _ in 0..cfg.h {
                // QK^T score tiles (64-row K tiles), then P·V.
                for t0 in (0..ctx).step_by(PANEL) {
                    step.merge(&pass(1, cfg.d_k(), PANEL.min(ctx - t0)));
                }
                step.merge(&pass(1, ctx, cfg.d_k()));
                for t0 in (0..src).step_by(PANEL) {
                    step.merge(&pass(1, cfg.d_k(), PANEL.min(src - t0)));
                }
                step.merge(&pass(1, src, cfg.d_k()));
            }
        }
        // FFN: both sublayers batched.
        for _ in 0..cfg.d_ff / PANEL {
            step.merge(&pass(b, d, PANEL));
        }
        for _ in 0..panels {
            step.merge(&pass(b, cfg.d_ff, PANEL));
        }
    }
    step
}

/// Batch-16 tokens/sec from the unfused engine's committed bench run —
/// the pre-fusion `BENCH_decode.json` this change was measured against.
const RECORDED_UNFUSED_B16_TOK_S: f64 = 6084.0;

/// One decode run (no per-token latency attribution): submit every
/// source, drain the engine, return throughput and the engine stats.
fn decode_run(
    q: &quantized::QuantSeq2Seq,
    srcs: &[Vec<usize>],
    max_batch: usize,
) -> (f64, serving::ServingStats) {
    let mut engine = ContinuousBatcher::new(
        q,
        EngineConfig {
            max_batch,
            bucket_max_waste: usize::MAX,
            ignore_eos: true,
            ..EngineConfig::default()
        },
    )
    .expect("nonzero max_batch");
    for (id, src) in srcs.iter().enumerate() {
        engine
            .submit(Request::new(id as u64, src.clone(), MAX_NEW))
            .expect("valid request");
    }
    let t0 = Instant::now();
    let responses = engine.run_to_completion();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(responses.len(), srcs.len());
    let stats = engine.stats();
    (stats.tokens_generated as f64 / elapsed, stats)
}

/// The fused-vs-unfused differential at `max_batch = 16`. Flips the
/// process-wide fusion gate (`tensor::envcfg`) around two back-to-back
/// runs of the identical workload; results are bit-identical either way
/// (`tests/fusion_identity.rs`), so this measures speed alone.
fn bench_fusion(q: &quantized::QuantSeq2Seq, srcs: &[Vec<usize>], n_layers: usize) -> FusionBench {
    const B: usize = 16;
    // Interleave two runs per side and keep each side's best: the
    // differential is what the assert below pins, and best-of-N against
    // best-of-N cancels the scheduler noise a shared box injects into
    // any single pass.
    let mut unfused_tok_s = f64::MIN;
    let mut fused_tok_s = f64::MIN;
    let mut stats = serving::ServingStats::default();
    for _ in 0..2 {
        tensor::envcfg::set_fuse_override(Some(false));
        let (u, _) = decode_run(q, srcs, B);
        unfused_tok_s = unfused_tok_s.max(u);
        tensor::envcfg::set_fuse_override(Some(true));
        let (f, s) = decode_run(q, srcs, B);
        if f > fused_tok_s {
            fused_tok_s = f;
            stats = s;
        }
    }
    tensor::envcfg::set_fuse_override(None);

    let fusion_speedup = fused_tok_s / unfused_tok_s;
    let per_step_layer = stats.ops_fused as f64 / (stats.steps * n_layers) as f64;
    println!(
        "fusion (batch {B}): unfused {unfused_tok_s:>7.1} tok/s -> fused {fused_tok_s:>7.1} \
         tok/s ({fusion_speedup:.2}x)  {per_step_layer:.1} fused drains/step/layer  \
         {:.1} MB of intermediates elided",
        stats.intermediates_elided_bytes as f64 / (1 << 20) as f64
    );
    assert!(
        fusion_speedup >= 1.15,
        "fused decode must clear 1.15x the unfused engine at batch {B} (got {fusion_speedup:.2}x)"
    );
    assert!(
        per_step_layer >= 2.0,
        "expected >= 2 elided intermediates per decoder layer per step (got {per_step_layer:.2})"
    );
    FusionBench {
        max_batch: B,
        fused_tok_s,
        unfused_tok_s,
        fusion_speedup,
        recorded_unfused_tok_s: RECORDED_UNFUSED_B16_TOK_S,
        speedup_vs_recorded: fused_tok_s / RECORDED_UNFUSED_B16_TOK_S,
        fused_ops_per_step_per_layer: per_step_layer,
        intermediates_elided_mb: stats.intermediates_elided_bytes as f64 / (1 << 20) as f64,
    }
}

fn main() {
    // Paper-shape ResBlocks (Transformer-base row of Table I) with a
    // small vocabulary and depth so the FP32 calibration stays cheap;
    // per-step cost is dominated by the 512/2048 weight GEMMs either way.
    let cfg = ModelConfig {
        name: "Transformer-base-2L".into(),
        d_model: 512,
        d_ff: 2048,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len: S_MAX,
    };
    println!(
        "building {} (d_model={}, d_ff={}, h={}, {} layers)...",
        cfg.name, cfg.d_model, cfg.d_ff, cfg.h, cfg.n_layers
    );
    let mut rng = StdRng::seed_from_u64(0xD0_0DE);
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
    let calib = gen.corpus(4, &mut StdRng::seed_from_u64(0xCA11B));
    let q = quantized::QuantSeq2Seq::from_trained(&fp32, &calib, quantized::SoftmaxMode::Hardware);

    let srcs: Vec<Vec<usize>> = gen
        .corpus(N_REQUESTS, &mut StdRng::seed_from_u64(0xF00D))
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    let mean_src = srcs.iter().map(Vec::len).sum::<usize>() / srcs.len();
    let pe_count = (S_MAX * PANEL) as u64;

    let mut points: Vec<BatchPoint> = Vec::new();
    for &max_batch in &[1usize, 2, 4, 8, 16, 32, 64] {
        let mut engine = ContinuousBatcher::new(
            &q,
            EngineConfig {
                max_batch,
                bucket_max_waste: usize::MAX,
                ignore_eos: true,
                ..EngineConfig::default()
            },
        )
        .expect("nonzero max_batch");
        for (id, src) in srcs.iter().enumerate() {
            engine
                .submit(Request::new(id as u64, src.clone(), MAX_NEW))
                .expect("valid request");
        }
        // Drive the engine step by step so each generated token can be
        // attributed the wall time of the batched step that produced it
        // (every active request yields exactly one token per step).
        let mut latencies_ms: Vec<f64> = Vec::new();
        let t0 = Instant::now();
        loop {
            let tokens_before = engine.stats().tokens_generated;
            let ts = Instant::now();
            if !engine.step() {
                break;
            }
            let step_ms = ts.elapsed().as_secs_f64() * 1e3;
            let produced = engine.stats().tokens_generated - tokens_before;
            latencies_ms.extend(std::iter::repeat_n(step_ms, produced));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), N_REQUESTS);
        assert!(responses.iter().all(|r| r.tokens.len() == MAX_NEW));
        let stats = engine.stats();
        let tokens = stats.tokens_generated;
        assert_eq!(latencies_ms.len(), tokens, "one latency sample per token");
        let p50 = percentile(&mut latencies_ms, 50.0);
        let p95 = percentile(&mut latencies_ms, 95.0);
        let tokens_per_sec = tokens as f64 / elapsed;
        let speedup = points
            .first()
            .map_or(1.0, |p0: &BatchPoint| tokens_per_sec / p0.tokens_per_sec);
        // Model the array at this batch size's *typical* step: mean
        // occupied rows, mid-decode self-attention context.
        let rows = ((stats.rows as f64 / stats.steps as f64).round() as usize).max(1);
        let modeled = model_decode_step(&cfg, rows, MAX_NEW / 2 + 1, mean_src);
        let utilization = modeled.array_utilization(pe_count);
        println!(
            "max_batch {max_batch:>2}: {tokens_per_sec:>7.1} tok/s  ({speedup:>4.2}x vs b=1)  \
             latency p50 {p50:.2} ms / p95 {p95:.2} ms  occupancy {:.2}  \
             modeled array utilization {:.1}%",
            stats.occupancy(max_batch),
            utilization * 100.0
        );
        points.push(BatchPoint {
            max_batch,
            tokens,
            elapsed_s: elapsed,
            tokens_per_sec,
            speedup_vs_b1: speedup,
            token_latency_ms_p50: p50,
            token_latency_ms_p95: p95,
            slot_occupancy: stats.occupancy(max_batch),
            array_utilization: utilization,
        });
    }

    let b16 = points
        .iter()
        .find(|p| p.max_batch == 16)
        .expect("batch 16 measured");
    // The prepacked weight cache removed the per-call pack cost that the
    // original 4x threshold was largely amortizing (batch 1 sped up ~3x,
    // far more than the batched sizes), so the relative batching win now
    // reflects pure row amortization of the weight GEMMs.
    assert!(
        b16.speedup_vs_b1 >= 1.5,
        "continuous batching must reach 1.5x throughput at batch 16 (got {:.2}x)",
        b16.speedup_vs_b1
    );

    let fusion = bench_fusion(&q, &srcs, cfg.n_layers);
    let (prefill, kv) = bench_long_context();

    let report = DecodeBench {
        model: cfg.name.clone(),
        d_model: cfg.d_model,
        d_ff: cfg.d_ff,
        heads: cfg.h,
        n_layers: cfg.n_layers,
        requests: N_REQUESTS,
        tokens_per_request: MAX_NEW,
        pe_count,
        points,
        fusion,
        prefill,
        kv,
    };
    bench_harness::write_json("BENCH_decode", &report);
}

/// Prompt length for the long-context workload.
const PROMPT_LEN: usize = 512;
/// Short answer decoded after the prompt.
const PREFILL_NEW: usize = 24;
/// Concurrent long-context requests through the engine.
const PREFILL_REQS: usize = 8;
/// Requests measured on the (slow) token-at-a-time baseline — it is a
/// rate, so a couple of 513-row ingestions give a stable number.
const SEQ_SAMPLES: usize = 2;
/// Prompt rows a prefilling request may consume per engine step.
const PREFILL_CHUNK: usize = 64;
/// Per-step prefill-row budget shared by all prefilling slots.
const MAX_PREFILL_ROWS: usize = 256;
/// Fixed KV memory budget for the concurrent-sessions comparison.
const KV_BUDGET: usize = 256 << 20;

/// E18 — chunked prefill + paged INT8 KV on a long-prompt/short-answer
/// workload: 512-token prompts into a `max_len = 640` paper-shape
/// decoder, 24 generated tokens each. Returns the prefill-throughput /
/// TTFT section and the KV-residency section of the report.
fn bench_long_context() -> (PrefillBench, KvBench) {
    let cfg = ModelConfig {
        name: "Transformer-base-2L-long".into(),
        d_model: 512,
        d_ff: 2048,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len: PROMPT_LEN + 2 * S_MAX, // 640: prompt + answer headroom
    };
    println!(
        "\nbuilding {} (max_len={}) for the long-context workload...",
        cfg.name, cfg.max_len
    );
    let mut rng = StdRng::seed_from_u64(0x10AD);
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
    let calib = gen.corpus(4, &mut StdRng::seed_from_u64(0x10AE));
    let q = quantized::QuantSeq2Seq::from_trained(&fp32, &calib, quantized::SoftmaxMode::Hardware);

    let srcs: Vec<Vec<usize>> = gen
        .corpus(PREFILL_REQS, &mut StdRng::seed_from_u64(0x10AF))
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    let mut prng = StdRng::seed_from_u64(0x10B0);
    let prompts: Vec<Vec<usize>> = (0..PREFILL_REQS)
        .map(|_| {
            (0..PROMPT_LEN)
                .map(|_| prng.random_range(3..cfg.vocab))
                .collect()
        })
        .collect();

    // Token-at-a-time baseline: the pre-chunking way to ingest a prompt
    // is one `step_session` per row.
    let mut seq_ingest_s = 0.0;
    for r in 0..SEQ_SAMPLES {
        let mut arena = KvArena::for_model(&q);
        let mut session = q.start_session(&mut arena, &srcs[r]);
        let t0 = Instant::now();
        let mut logits = q.step_session(&mut arena, &mut session, BOS);
        for &t in &prompts[r] {
            logits = q.step_session(&mut arena, &mut session, t);
        }
        std::hint::black_box(&logits);
        seq_ingest_s += t0.elapsed().as_secs_f64();
    }
    let sequential_ttft_ms = seq_ingest_s / SEQ_SAMPLES as f64 * 1e3;
    let sequential_tok_s = (SEQ_SAMPLES * (1 + PROMPT_LEN)) as f64 / seq_ingest_s;

    // Chunked prefill through the engine, all requests concurrent.
    let mut engine = ContinuousBatcher::new(
        &q,
        EngineConfig {
            max_batch: PREFILL_REQS,
            bucket_max_waste: usize::MAX,
            prefill_chunk: PREFILL_CHUNK,
            max_prefill_rows: MAX_PREFILL_ROWS,
            ignore_eos: true,
            ..EngineConfig::default()
        },
    )
    .expect("nonzero max_batch");
    for (id, (src, prompt)) in srcs.iter().zip(&prompts).enumerate() {
        engine
            .submit(Request::new(id as u64, src.clone(), PREFILL_NEW).with_prompt(prompt.clone()))
            .expect("valid request");
    }
    let mut cum_ms_by_step: Vec<f64> = Vec::new();
    let mut cum_ms = 0.0;
    let mut prefill_s = 0.0;
    let mut prev_prefill_rows = 0;
    loop {
        let ts = Instant::now();
        if !engine.step() {
            break;
        }
        let dt = ts.elapsed().as_secs_f64();
        cum_ms += dt * 1e3;
        cum_ms_by_step.push(cum_ms);
        let s = engine.stats();
        if s.prefill_rows > prev_prefill_rows {
            prefill_s += dt;
            prev_prefill_rows = s.prefill_rows;
        }
    }
    let responses = engine.run_to_completion();
    assert_eq!(responses.len(), PREFILL_REQS);
    assert!(responses.iter().all(|r| r.tokens.len() == PREFILL_NEW));
    let stats = engine.stats();
    assert_eq!(stats.prefill_rows, PREFILL_REQS * (1 + PROMPT_LEN));
    let chunked_tok_s = stats.prefill_rows as f64 / prefill_s;

    let mut ttfts_ms: Vec<f64> = responses
        .iter()
        .map(|r| {
            let step = r.first_token_step.expect("every request generated");
            cum_ms_by_step[step]
        })
        .collect();
    let ttft_p50 = percentile(&mut ttfts_ms, 50.0);
    let ttft_p99 = percentile(&mut ttfts_ms, 99.0);
    let speedup = chunked_tok_s / sequential_tok_s;
    println!(
        "prefill ({PROMPT_LEN}-token prompts, chunk {PREFILL_CHUNK}): sequential \
         {sequential_tok_s:>7.1} tok/s -> chunked {chunked_tok_s:>8.1} tok/s ({speedup:.2}x)  \
         TTFT p50 {ttft_p50:.1} ms / p99 {ttft_p99:.1} ms (sequential {sequential_ttft_ms:.1} ms)"
    );
    // The token-at-a-time baseline feeds one-row chunks, which now take
    // the fused decode-attention drain — the sequential side got faster,
    // so the chunked advantage tightened from >= 5x to >= 4x.
    assert!(
        speedup >= 4.0,
        "chunked prefill must be >= 4x token-at-a-time on a {PROMPT_LEN}-token prompt \
         (got {speedup:.2}x)"
    );

    // KV residency: what the flat max_len-row per-session reservation
    // cost versus the pages actually held at the concurrency peak.
    let paged_per_session = stats.kv_bytes_peak / PREFILL_REQS;
    let flat_int8 = cfg.n_layers * 2 * cfg.max_len * cfg.d_model;
    let flat_fp32 = flat_int8 * std::mem::size_of::<f32>();
    let gain_fp32 = flat_fp32 as f64 / paged_per_session as f64;
    let gain_int8 = flat_int8 as f64 / paged_per_session as f64;
    println!(
        "kv per session: flat fp32 {:.2} MB / flat int8 {:.2} MB -> paged int8 {:.2} MB \
         ({gain_fp32:.2}x sessions vs flat fp32, {gain_int8:.2}x vs flat int8 at a fixed budget)",
        flat_fp32 as f64 / (1 << 20) as f64,
        flat_int8 as f64 / (1 << 20) as f64,
        paged_per_session as f64 / (1 << 20) as f64,
    );
    assert!(
        gain_fp32 >= 4.0,
        "paged INT8 KV must fit >= 4x the sessions of the flat FP32 reservation \
         (got {gain_fp32:.2}x)"
    );

    (
        PrefillBench {
            prompt_tokens: PROMPT_LEN,
            new_tokens: PREFILL_NEW,
            requests: PREFILL_REQS,
            prefill_chunk: PREFILL_CHUNK,
            max_prefill_rows: MAX_PREFILL_ROWS,
            sequential_prefill_tok_s: sequential_tok_s,
            chunked_prefill_tok_s: chunked_tok_s,
            prefill_speedup: speedup,
            sequential_ttft_ms,
            ttft_ms_p50: ttft_p50,
            ttft_ms_p99: ttft_p99,
        },
        KvBench {
            page_rows: tensor::kvpool::page_rows_from_env(tensor::kvpool::DEFAULT_PAGE_ROWS),
            max_len: cfg.max_len,
            paged_int8_bytes_per_session: paged_per_session,
            flat_int8_bytes_per_session: flat_int8,
            flat_fp32_bytes_per_session: flat_fp32,
            kv_budget_bytes: KV_BUDGET,
            flat_fp32_sessions_in_budget: KV_BUDGET / flat_fp32,
            flat_int8_sessions_in_budget: KV_BUDGET / flat_int8,
            paged_int8_sessions_in_budget: KV_BUDGET / paged_per_session,
            session_gain_vs_flat_fp32: gain_fp32,
            session_gain_vs_flat_int8: gain_int8,
        },
    )
}
