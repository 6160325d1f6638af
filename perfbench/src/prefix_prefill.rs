//! `prefix-prefill`: closed loop of 8 virtual clients driven from one
//! thread. Each prompt is a Zipf-chosen preamble plus a unique suffix,
//! served with chunked prefill and the shared-prefix KV cache, whose
//! budget holds about half of the preamble set's KV.

use crate::decode_batch::check_greedy;
use crate::host::HostSpeed;
use crate::inputs::{self, PrefixInputs, PrefixReq};
use crate::serve::{self, EngineClient, StepRec};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{models, Args, Report};
use quantized::QuantSeq2Seq;
use serving::{ContinuousBatcher, EngineConfig, FinishReason, Request, ServingStats};
use std::time::{Duration, Instant};

/// Virtual clients, one request outstanding each; also the slot count.
const CLIENTS: usize = 8;
/// Requests generated per run (the stream is cycled if a run is longer).
const STREAM: usize = 6000;
/// Completed requests whose outputs are re-derived with the cache off.
const CHECKED: usize = 4;
/// Wall-time slice over which each throughput sample is taken.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Model positions: `BOS`, preamble, longest suffix, longest output.
const MAX_LEN: usize =
    1 + inputs::PREFIX_PREAMBLE_LEN + inputs::PREFIX_SUFFIX_LEN.1 + inputs::PREFIX_NEW.1;
/// KV bytes per cached row: two layers of INT8 K and V at `d_model` 512.
const KV_BYTES_PER_ROW: usize = 2 * 2 * 512;
/// Prefix-cache budget: half the KV of the whole preamble set, so the
/// working set exceeds the cache and LRU eviction runs.
const CACHE_BYTES: usize =
    inputs::PREFIX_PREAMBLES * (1 + inputs::PREFIX_PREAMBLE_LEN) * KV_BYTES_PER_ROW / 2;

fn engine_config(prefix_cache_bytes: usize) -> EngineConfig {
    EngineConfig {
        bucket_max_waste: usize::MAX,
        prefill_chunk: 64,
        max_prefill_rows: 256,
        ignore_eos: true,
        prefix_cache_bytes,
        max_queue: 0,
        ..EngineConfig::with_max_batch(CLIENTS)
    }
}

/// One measured phase.
struct Phase {
    tokens: usize,
    /// Generated tokens per second in each whole [`RATE_WINDOW`] of the
    /// submission period.
    window_tok_s: Vec<(Instant, Instant, f64)>,
    wall_s: f64,
    ttft_ms: Vec<(Instant, f64)>,
    itl_ms: Vec<(Instant, f64)>,
    steps: Vec<StepRec>,
    stats: ServingStats,
    requests: u64,
    prompt_rows: usize,
    /// Warm-cache outputs kept for the cache-off comparison.
    checked: Vec<(PrefixReq, Vec<usize>)>,
    host: HostSpeed,
}

fn request(inp: &PrefixInputs, id: u64) -> (Request, &PrefixReq) {
    let r = &inp.requests[id as usize % inp.requests.len()];
    let src = inp.preambles[r.preamble].0.clone();
    (
        Request::new(id, src, r.max_new).with_prompt(inp.prompt(r)),
        r,
    )
}

fn measure(
    q: &QuantSeq2Seq,
    inp: &PrefixInputs,
    window: Duration,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Phase {
    let engine = ContinuousBatcher::new(q, engine_config(CACHE_BYTES)).expect("nonzero max_batch");
    let mut d = EngineClient::new(engine);
    let (mut next_id, mut requests, mut prompt_rows) = (0u64, 0u64, 0usize);
    let mut checked = Vec::new();
    let run = tracer.open("client.run", None, None);
    let t0 = Instant::now();
    let mut window_tokens =
        vec![0usize; (window.as_secs_f64() / RATE_WINDOW.as_secs_f64()) as usize];
    let mut submit = |d: &mut EngineClient, tracer: &mut Tracer, id: u64| {
        let (req, r) = request(inp, id);
        prompt_rows += 1 + req.prompt.len();
        d.submit(tracer, run, req)
            .expect("prefix-prefill requests are valid");
        r
    };
    for _ in 0..CLIENTS {
        submit(&mut d, tracer, next_id);
        next_id += 1;
    }
    let mut tokens = 0;
    let mut host = HostSpeed::default();
    while let Some(done) = d.step(tracer, run) {
        host.tick();
        let slot = (t0.elapsed().as_secs_f64() / RATE_WINDOW.as_secs_f64()) as usize;
        if let Some(n) = window_tokens.get_mut(slot) {
            *n += d.log.tokens - tokens;
        }
        tokens = d.log.tokens;
        for resp in done {
            requests += 1;
            let r = &inp.requests[resp.id as usize % inp.requests.len()];
            if resp.finish != FinishReason::Budget || resp.tokens.len() != r.max_new {
                rep.fail(format!(
                    "request {} finished {:?} with {} of {} tokens",
                    resp.id,
                    resp.finish,
                    resp.tokens.len(),
                    r.max_new
                ));
            }
            // Late requests for the most popular preambles: served from
            // a warm cache.
            if resp.id >= 64 && r.preamble < 2 && checked.len() < CHECKED {
                checked.push((r.clone(), resp.tokens));
            }
            if t0.elapsed() < window {
                submit(&mut d, tracer, next_id);
                next_id += 1;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    tracer.close(run);
    let stats = d.engine.stats();
    d.engine.clear_prefix_cache();
    if d.engine.kv_bytes_in_use() != 0 {
        rep.fail(format!(
            "{} KV bytes still in use after the run",
            d.engine.kv_bytes_in_use()
        ));
    }
    Phase {
        tokens: d.log.tokens,
        window_tok_s: window_tokens
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let from = t0 + RATE_WINDOW * k as u32;
                (
                    from,
                    from + RATE_WINDOW,
                    n as f64 / RATE_WINDOW.as_secs_f64(),
                )
            })
            .collect(),
        wall_s,
        ttft_ms: std::mem::take(&mut d.log.ttft_ms),
        itl_ms: std::mem::take(&mut d.log.itl_ms),
        steps: std::mem::take(&mut d.steps),
        stats,
        requests,
        prompt_rows,
        checked,
        host,
    }
}

/// Re-runs the sampled requests on a cache-off engine and counts every
/// output that differs from the warm-cache one.
fn check_cache_off(q: &QuantSeq2Seq, inp: &PrefixInputs, phase: &Phase, rep: &mut Report) {
    let mut cold = ContinuousBatcher::new(q, engine_config(0)).expect("nonzero max_batch");
    for (i, (r, _)) in phase.checked.iter().enumerate() {
        let src = inp.preambles[r.preamble].0.clone();
        cold.submit(Request::new(i as u64, src, r.max_new).with_prompt(inp.prompt(r)))
            .expect("valid request");
    }
    for resp in cold.run_to_completion() {
        let (r, warm) = &phase.checked[resp.id as usize];
        if resp.tokens != *warm {
            rep.fail(format!(
                "warm-cache output for preamble {} differs from the cache-off engine",
                r.preamble
            ));
        }
    }
    // One greedy reference as well, tying the engine to the
    // token-at-a-time decoder.
    if let Some((r, warm)) = phase.checked.first() {
        let src = &inp.preambles[r.preamble].0;
        if !check_greedy(q, src, &inp.prompt(r), warm, r.max_new) {
            rep.fail("warm-cache output differs from greedy decoding".into());
        }
    }
}

/// Builds, calibrates and prepacks the model, then warms the engine
/// through one cached prefix.
fn setup() -> QuantSeq2Seq {
    let q = models::build(&models::paper_config(MAX_LEN));
    let mut engine = ContinuousBatcher::new(&q, engine_config(CACHE_BYTES)).expect("slots");
    let prompt: Vec<usize> = (0..40).map(|i| 3 + i % 50).collect();
    for id in 0..2 {
        engine
            .submit(Request::new(id, vec![4, 5, 6], 2).with_prompt(prompt.clone()))
            .expect("valid warm-up request");
    }
    engine.run_to_completion();
    drop(engine);
    q
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) {
    let (q, setups) = models::timed_setups(setup);
    let inp = inputs::prefix_inputs(args.seed, STREAM, q.tgt_vocab());
    let phase = if args.trace {
        let plain = measure(&q, &inp, args.baseline(), &mut Tracer::new(false), rep);
        let mut tracer = Tracer::new(true);
        let traced = measure(&q, &inp, args.seconds, &mut tracer, rep);
        rep.put(
            "trace.overhead_pct",
            (median(&plain.host.scale_rates(&plain.window_tok_s))
                / median(&traced.host.scale_rates(&traced.window_tok_s))
                - 1.0)
                * 100.0,
            "%",
        );
        rep.put(
            "trace.serving_coverage",
            tracer.covered_ns("serving.") as f64 / (traced.wall_s * 1e9),
            "frac",
        );
        serve::layer_metrics(
            rep,
            &traced.steps,
            &traced.stats,
            CLIENTS,
            traced.prompt_rows,
        );
        rep.put_client(&traced.ttft_ms, &traced.itl_ms, &traced.host);
        crate::save_trace(args, &tracer, rep);
        rep.attempted += plain.requests;
        traced
    } else {
        let p = measure(&q, &inp, args.seconds, &mut Tracer::new(false), rep);
        // Throughput is generated tokens per second; latency is time to
        // first token, which prefill and the prefix cache set.
        rep.put_setup(&setups);
        rep.put_rate("throughput_per_s", &p.window_tok_s, &p.host, "1/s");
        rep.put_latency("latency_p50_ms", &p.ttft_ms, &p.host, 50.0, "ms");
        rep.note(format!("host speed {} x nominal", p.host.overall()));
        p
    };
    let s = &phase.stats;
    rep.note(format!(
        "samples: {} requests, {} tokens, {} TTFTs, {} inter-token gaps, {} set-ups; \
         prefix hits {} misses {} rows reused {}",
        phase.requests,
        phase.tokens,
        phase.ttft_ms.len(),
        phase.itl_ms.len(),
        setups.runs.len(),
        s.prefix_hits,
        s.prefix_misses,
        s.prefix_rows_reused
    ));
    rep.attempted += phase.requests;
    check_cache_off(&q, &inp, &phase, rep);
}
