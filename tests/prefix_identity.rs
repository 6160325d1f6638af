//! Differential suite for the shared-prefix KV cache: decode from a
//! forked, page-aligned prefix snapshot must be **byte-identical** to a
//! cold start that prefilled every row itself — across the FP32 and
//! INT8 row executors, through the serving engine's admission path, and
//! through an ABFT fault-rollback that lands on a shared page boundary
//! (the rollback must copy-on-write, never mutate a page the cache
//! still holds).

use quantized::{QuantSeq2Seq, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serving::{ContinuousBatcher, EngineConfig, Request, Response};
use transformer::config::ModelConfig;
use transformer::incremental::{FpKvArena, IncrementalSession};
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen, BOS};

fn fp32_model() -> (Seq2SeqTransformer, ModelConfig, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(0x9EF1);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let srcs = gen
        .corpus(4, &mut StdRng::seed_from_u64(0x9EF2))
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    (model, cfg, srcs)
}

fn quant_model() -> (QuantSeq2Seq, Vec<Vec<usize>>) {
    let (model, cfg, srcs) = fp32_model();
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(8, &mut StdRng::seed_from_u64(0x9EF3));
    (
        QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware),
        srcs,
    )
}

/// Ingests `target` rows into a fresh FP32 session (logits discarded —
/// prefill), then greedily decodes `n` tokens, returning every decode
/// step's logits as raw bits plus the chosen tokens.
fn fp32_cold_decode(
    model: &Seq2SeqTransformer,
    arena: &mut FpKvArena,
    src: &[usize],
    target: &[usize],
    n: usize,
) -> (Vec<Vec<u32>>, Vec<usize>) {
    let mut s = IncrementalSession::new(model, arena, src);
    let mut logits = Vec::new();
    for &t in target {
        logits = s.step(model, arena, t);
    }
    let (bits, tokens) = fp32_greedy(model, arena, &mut s, logits, n);
    s.release(arena);
    (bits, tokens)
}

/// Greedy continuation shared by the cold and forked paths: `logits`
/// are the frontier row the first token is sampled from.
fn fp32_greedy(
    model: &Seq2SeqTransformer,
    arena: &mut FpKvArena,
    s: &mut IncrementalSession,
    mut logits: Vec<f32>,
    n: usize,
) -> (Vec<Vec<u32>>, Vec<usize>) {
    let mut bits = vec![logits.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()];
    let mut tokens = Vec::new();
    for _ in 0..n {
        let next = tensor::ops::argmax(&logits);
        tokens.push(next);
        logits = s.step(model, arena, next);
        bits.push(logits.iter().map(|x| x.to_bits()).collect());
    }
    (bits, tokens)
}

#[test]
fn fp32_decode_from_forked_prefix_is_byte_identical_to_cold_start() {
    let (model, cfg, srcs) = fp32_model();
    let src = &srcs[0];
    let prompt: Vec<usize> = src.iter().cycle().take(13).copied().collect();
    let mut target = vec![BOS];
    target.extend_from_slice(&prompt);
    let mut arena = FpKvArena::with_page_rows(cfg.d_model, 4);
    let (want_bits, want_tokens) = fp32_cold_decode(&model, &mut arena, src, &target, 6);

    // Build the cache entry the way the engine does: full prefill,
    // fork, roll the fork back to a page boundary.
    let mut live = IncrementalSession::new(&model, &mut arena, src);
    for &t in &target {
        let _ = live.step(&model, &mut arena, t);
    }
    let aligned = (target.len() / 4) * 4;
    let mut entry = live.fork(&mut arena);
    entry.rollback_rows(&mut arena, target.len() - aligned);
    live.release(&mut arena);

    // Hit: fork the entry, replay only the suffix, decode. Every
    // logits row must match the cold run bit for bit.
    let mut hit = entry.fork(&mut arena);
    let mut logits = Vec::new();
    for &t in &target[aligned..] {
        logits = hit.step(&model, &mut arena, t);
    }
    let (bits, tokens) = fp32_greedy(&model, &mut arena, &mut hit, logits, 6);
    assert_eq!(tokens, want_tokens);
    assert_eq!(bits, want_bits, "logits must be byte-identical");

    // Roll the hit session back *into* the shared region (mid page)
    // and replay: the re-pushed rows must copy-on-write, and the
    // replayed continuation stays byte-identical.
    let back_to = aligned - 2;
    hit.rollback_rows(&mut arena, hit.pos() - back_to);
    let mut logits = Vec::new();
    for &t in &target[back_to..] {
        logits = hit.step(&model, &mut arena, t);
    }
    let (bits, tokens) = fp32_greedy(&model, &mut arena, &mut hit, logits, 6);
    assert_eq!(tokens, want_tokens, "after mid-page rollback");
    assert_eq!(bits, want_bits, "after mid-page rollback");
    hit.release(&mut arena);

    // The entry was never mutated by any of that: a fresh fork
    // still reproduces the cold run.
    let mut again = entry.fork(&mut arena);
    let mut logits = Vec::new();
    for &t in &target[aligned..] {
        logits = again.step(&model, &mut arena, t);
    }
    let (bits, _) = fp32_greedy(&model, &mut arena, &mut again, logits, 6);
    assert_eq!(bits, want_bits, "entry must be immutable");
    again.release(&mut arena);
    entry.release(&mut arena);
    assert_eq!(arena.kv_bytes_in_use(), 0, "no page leaked");
}

fn decoded(responses: &[Response]) -> Vec<(u64, Vec<usize>, bool)> {
    responses
        .iter()
        .map(|r| (r.id, r.tokens.clone(), r.hit_eos()))
        .collect()
}

#[test]
fn int8_engine_shared_prefix_serving_is_bit_identical_to_cold() {
    let (q, srcs) = quant_model();
    let base: Vec<usize> = srcs[0].iter().cycle().take(35).copied().collect();
    let mut extended = base.clone();
    extended.extend(srcs[0].iter().cycle().take(10));
    // Shares base's first 20 tokens, then a tail base never had: served
    // by forking base's snapshot and rolling back to the divergence.
    let mut diverged: Vec<usize> = base[..20].to_vec();
    diverged.extend(srcs[1].iter().cycle().take(15));
    // Exact repeats, a prompt *extending* a cached prefix, the same
    // prompt under a different source (which must never reuse: the
    // cross-attention K/V belong to the source), and a diverged tail.
    let reqs = || -> Vec<Request> {
        vec![
            Request::new(0, srcs[0].clone(), 6).with_prompt(base.clone()),
            Request::new(1, srcs[0].clone(), 6).with_prompt(base.clone()),
            Request::new(2, srcs[0].clone(), 6).with_prompt(extended.clone()),
            Request::new(3, srcs[1].clone(), 6).with_prompt(base.clone()),
            Request::new(4, srcs[0].clone(), 6).with_prompt(diverged.clone()),
        ]
    };
    let run = |budget: usize| {
        let mut cfg = EngineConfig::with_max_batch(1);
        cfg.prefix_cache_bytes = budget;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();
        for r in reqs() {
            engine.submit(r).unwrap();
        }
        let responses = engine.run_to_completion();
        // Cached prefix snapshots still hold pages here: every refcount
        // must match the block tables of the cache entries.
        engine.check_invariants();
        (decoded(&responses), engine.stats())
    };
    let (cold_tokens, cold) = run(0);
    let (warm_tokens, warm) = run(usize::MAX);
    assert_eq!(
        warm_tokens, cold_tokens,
        "prefix reuse must not change any token"
    );
    // Request 1 reuses request 0's full aligned prefix; request 2 finds
    // the same entry as a *proper prefix* of its longer prompt; request
    // 3 must miss despite an identical prompt; request 4 reuses only
    // the 20 shared tokens (plus BOS) via rollback of a deeper fork.
    assert_eq!(warm.prefix_hits, 3);
    assert!(warm.prefix_misses >= 2);
    assert_eq!(
        cold.prefill_rows - warm.prefill_rows,
        warm.prefix_rows_reused,
        "every reused row is a prefill row the warm engine skipped"
    );
    assert!(warm.prefix_rows_reused > 0);
    // The sequential references pin absolute correctness of both runs.
    for (resp, (s, p)) in warm_tokens.iter().zip([
        (&srcs[0], &base),
        (&srcs[0], &base),
        (&srcs[0], &extended),
        (&srcs[1], &base),
        (&srcs[0], &diverged),
    ]) {
        assert_eq!(resp.1, q.greedy_decode_with_prompt(s, p, 6));
    }
}

#[test]
fn fault_rollback_on_shared_page_boundary_heals_without_mutating_the_cache() {
    use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};

    // Serialize on the process-wide fault state and pin the worker
    // count so GEMM-pass numbering is deterministic.
    let _g = faults::exclusive();
    tensor::par::set_thread_override(Some(1));
    faults::clear();
    faults::set_checker(Some(false));
    faults::reset_counters();
    let result = std::panic::catch_unwind(|| {
        let (q, srcs) = quant_model();
        let prompt: Vec<usize> = srcs[0].iter().cycle().take(35).copied().collect();
        let want = q.greedy_decode_with_prompt(&srcs[0], &prompt, 6);

        let mut cfg = EngineConfig::with_max_batch(1);
        cfg.prefix_cache_bytes = usize::MAX;
        let mut engine = ContinuousBatcher::new(&q, cfg).unwrap();

        // Request 0 warms the cache fault-free.
        engine
            .submit(Request::new(0, srcs[0].clone(), 6).with_prompt(prompt.clone()))
            .unwrap();
        let r0 = engine.run_to_completion();
        assert_eq!(r0[0].tokens, want);
        assert!(
            engine.prefix_cache_entries() >= 1,
            "prefill was snapshotted"
        );

        // Request 1 hits the cache: its session forks the snapshot at a
        // page boundary and prefills only the suffix. Corrupt an
        // accumulator early in that first post-hit step — the detected
        // fault rolls the session back to the *shared* boundary and
        // replays. A rollback that freed or wrote a shared page would
        // corrupt the cache entry (caught below) or the replay (caught
        // here).
        faults::install(FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::Accumulator {
                pass: 3,
                row: 0,
                col: 2,
            },
            kind: FaultKind::BitFlip { bit: 20 },
        }]));
        faults::set_checker(Some(true));
        engine
            .submit(Request::new(1, srcs[0].clone(), 6).with_prompt(prompt.clone()))
            .unwrap();
        let r1 = engine.run_to_completion();
        let stats = engine.stats();
        let c = faults::counters();
        assert_eq!(c.injected, 1, "the scheduled flip must fire");
        assert!(c.detected >= 1, "the checker must flag it");
        assert!(stats.retries >= 1, "the flagged step must be replayed");
        assert_eq!(stats.prefix_hits, 1);
        assert_eq!(
            r1[0].tokens, want,
            "retry from the shared boundary must heal"
        );

        // Request 2 hits the same entry with faults cleared: identical
        // output proves the faulty attempt's rows never reached the
        // shared pages.
        faults::clear();
        faults::set_checker(Some(false));
        engine
            .submit(Request::new(2, srcs[0].clone(), 6).with_prompt(prompt.clone()))
            .unwrap();
        let r2 = engine.run_to_completion();
        assert_eq!(engine.stats().prefix_hits, 2);
        assert_eq!(
            r2[0].tokens, want,
            "cache entry must survive the rollback intact"
        );
    });
    faults::clear();
    faults::set_checker(None);
    faults::reset_counters();
    tensor::par::set_thread_override(None);
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}
