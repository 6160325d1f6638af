//! `decode-batch`: closed loop, every request of a wave submitted at
//! once, into an in-process `ContinuousBatcher` (16 slots) over the
//! paper-shape decoder. Output lengths are spread by the seed, so
//! retirements stagger and admissions land inside decode steps.

use crate::host::HostSpeed;
use crate::inputs::{self, DecodeReq};
use crate::serve::{self, EngineClient, StepRec};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{models, Args, Report};
use quantized::QuantSeq2Seq;
use serving::{ContinuousBatcher, EngineConfig, FinishReason, Request, ServingStats};
use std::time::{Duration, Instant};
use transformer::tasks::EOS;

/// Decode slots.
const MAX_BATCH: usize = 16;
/// Distinct input waves; the run cycles through them.
const WAVES: usize = 16;
/// Requests of the first wave whose outputs are checked against
/// token-at-a-time greedy decoding.
const CHECKED: [usize; 4] = [0, 13, 29, 47];
/// Model positions: `BOS` plus the longest output.
pub const MAX_LEN: usize = 64;
/// Waves the serving probe runs: about 1200 steps, enough for a p99.
const PROBE_WAVES: usize = 10;

fn engine_config() -> EngineConfig {
    EngineConfig {
        bucket_max_waste: usize::MAX,
        ignore_eos: true,
        prefix_cache_bytes: 0,
        max_queue: 0,
        ..EngineConfig::with_max_batch(MAX_BATCH)
    }
}

/// One measured phase.
struct Phase {
    tokens: usize,
    /// Generated tokens per second of each wave, with its interval.
    wave_tok_s: Vec<(Instant, Instant, f64)>,
    wall_s: f64,
    ttft_ms: Vec<(Instant, f64)>,
    itl_ms: Vec<(Instant, f64)>,
    steps: Vec<StepRec>,
    stats: ServingStats,
    requests: u64,
    checked: Vec<(DecodeReq, Vec<usize>)>,
    host: HostSpeed,
}

/// Runs waves until `window` has passed, at most `max_waves` of them.
fn measure(
    q: &QuantSeq2Seq,
    waves: &[Vec<DecodeReq>],
    window: Duration,
    max_waves: usize,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Phase {
    let engine = ContinuousBatcher::new(q, engine_config()).expect("nonzero max_batch");
    let mut d = EngineClient::new(engine);
    let (mut next_id, mut wall_s, mut requests) = (0u64, 0.0, 0u64);
    let (mut checked, mut wave_tok_s) = (Vec::new(), Vec::new());
    let mut host = HostSpeed::default();
    let start = Instant::now();
    for (w, wave) in waves.iter().cycle().take(max_waves).enumerate() {
        if w > 0 && start.elapsed() >= window {
            break;
        }
        let span = tracer.open("client.wave", None, None);
        let tokens0 = d.log.tokens;
        let t0 = Instant::now();
        let base = next_id;
        for r in wave {
            d.submit(
                tracer,
                span,
                Request::new(next_id, r.src.clone(), r.max_new),
            )
            .expect("decode-batch requests are valid");
            next_id += 1;
        }
        while let Some(done) = d.step(tracer, span) {
            host.tick();
            for resp in done {
                let idx = (resp.id - base) as usize;
                let req = &wave[idx];
                requests += 1;
                if resp.finish != FinishReason::Budget || resp.tokens.len() != req.max_new {
                    rep.fail(format!(
                        "request {} finished {:?} with {} of {} tokens",
                        resp.id,
                        resp.finish,
                        resp.tokens.len(),
                        req.max_new
                    ));
                }
                if w == 0 && CHECKED.contains(&idx) {
                    checked.push((req.clone(), resp.tokens));
                }
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        wall_s += dt;
        wave_tok_s.push((t0, Instant::now(), (d.log.tokens - tokens0) as f64 / dt));
        tracer.close(span);
    }
    if d.engine.kv_bytes_in_use() != 0 {
        rep.fail(format!(
            "{} KV bytes still in use after the run",
            d.engine.kv_bytes_in_use()
        ));
    }
    Phase {
        tokens: d.log.tokens,
        wave_tok_s,
        wall_s,
        ttft_ms: std::mem::take(&mut d.log.ttft_ms),
        itl_ms: std::mem::take(&mut d.log.itl_ms),
        steps: std::mem::take(&mut d.steps),
        stats: d.engine.stats(),
        requests,
        checked,
        host,
    }
}

/// Checks sampled outputs against token-at-a-time greedy decoding: the
/// engine ignores `EOS`, so its output must start with the greedy
/// output and continue with `EOS` wherever greedy decoding stopped.
pub fn check_greedy(
    q: &QuantSeq2Seq,
    src: &[usize],
    prompt: &[usize],
    got: &[usize],
    max_new: usize,
) -> bool {
    let want = if prompt.is_empty() {
        q.greedy_decode_incremental(src, max_new)
    } else {
        q.greedy_decode_with_prompt(src, prompt, max_new)
    };
    got.len() >= want.len()
        && got[..want.len()] == want[..]
        && (want.len() == max_new || got.get(want.len()) == Some(&EOS))
}

/// Builds, calibrates and prepacks the model, then warms the engine.
fn setup() -> QuantSeq2Seq {
    let q = models::build(&models::paper_config(MAX_LEN));
    let mut engine = ContinuousBatcher::new(&q, engine_config()).expect("nonzero max_batch");
    for id in 0..4 {
        engine
            .submit(Request::new(id, vec![3 + id as usize, 7, 9], 4))
            .expect("valid warm-up request");
    }
    engine.run_to_completion();
    drop(engine);
    q
}

/// The traced run's `serving.*`, `client.*` and coverage metrics.
fn layer_metrics(rep: &mut Report, traced: &Phase, tracer: &Tracer) {
    rep.put(
        "trace.serving_coverage",
        tracer.covered_ns("serving.") as f64 / (traced.wall_s * 1e9),
        "frac",
    );
    serve::layer_metrics(
        rep,
        &traced.steps,
        &traced.stats,
        MAX_BATCH,
        traced.stats.admitted,
    );
    rep.put_client(&traced.ttft_ms, &traced.itl_ms, &traced.host);
}

/// Checks the run's sampled outputs and counts its requests.
fn settle(q: &QuantSeq2Seq, phase: &Phase, rep: &mut Report) {
    rep.attempted += phase.requests;
    for (req, got) in &phase.checked {
        if !check_greedy(q, &req.src, &[], got, req.max_new) {
            rep.fail(format!(
                "output for src {:?} differs from greedy decoding",
                req.src
            ));
        }
    }
}

/// The serving layer's probe for workloads that do not drive a
/// `ContinuousBatcher` themselves: [`PROBE_WAVES`] traced waves of this
/// workload's inputs at a fixed seed, on model `q` (the paper-shape
/// decoder with [`MAX_LEN`] positions).
pub fn serving_probe(q: &QuantSeq2Seq, rep: &mut Report) {
    let waves = inputs::decode_waves(crate::PROBE_SEED, PROBE_WAVES, q.tgt_vocab());
    let mut tracer = Tracer::new(true);
    let p = measure(q, &waves, Duration::MAX, PROBE_WAVES, &mut tracer, rep);
    layer_metrics(rep, &p, &tracer);
    rep.note(format!(
        "serving probe: {} requests in {} waves, {} steps",
        p.requests,
        p.wave_tok_s.len(),
        p.steps.len()
    ));
    settle(q, &p, rep);
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) {
    let (q, setups) = models::timed_setups(setup);
    let waves = inputs::decode_waves(args.seed, WAVES, q.tgt_vocab());
    let phase = if args.trace {
        let plain = measure(
            &q,
            &waves,
            args.baseline(),
            usize::MAX,
            &mut Tracer::new(false),
            rep,
        );
        let mut tracer = Tracer::new(true);
        let traced = measure(&q, &waves, args.seconds, usize::MAX, &mut tracer, rep);
        rep.put(
            "trace.overhead_pct",
            (median(&plain.host.scale_rates(&plain.wave_tok_s))
                / median(&traced.host.scale_rates(&traced.wave_tok_s))
                - 1.0)
                * 100.0,
            "%",
        );
        layer_metrics(rep, &traced, &tracer);
        crate::save_trace(args, &tracer, rep);
        settle(&q, &plain, rep);
        traced
    } else {
        let p = measure(
            &q,
            &waves,
            args.seconds,
            usize::MAX,
            &mut Tracer::new(false),
            rep,
        );
        // Throughput is generated tokens per second; latency is the gap
        // between consecutive tokens of one request. Its tail is only a
        // per-layer metric (`client.itl_p99_ms`): on a shared host the
        // upper percentiles follow the host's own stalls (one set of ten
        // runs read p99 gaps from 6 to 15.7 ms).
        rep.put_setup(&setups);
        rep.put_rate("throughput_per_s", &p.wave_tok_s, &p.host, "1/s");
        rep.put_latency("latency_p50_ms", &p.itl_ms, &p.host, 50.0, "ms");
        rep.note(format!("host speed {} x nominal", p.host.overall()));
        p
    };
    rep.note(format!(
        "samples: {} requests in {} waves, {} tokens, {} inter-token gaps, {} set-ups",
        phase.requests,
        phase.wave_tok_s.len(),
        phase.tokens,
        phase.itl_ms.len(),
        setups.runs.len()
    ));
    settle(&q, &phase, rep);
}
