//! Differential tests for the long-context serving path: chunked
//! prefill through the paged INT8 KV cache versus the sequential
//! token-at-a-time reference, and the FP32 model's paged KV cache
//! versus the never-paged full-recompute decode.
//!
//! Both decoders' pages store exactly the rows a flat cache held (i8
//! codes and f32 rows), so chunked prefill + paging must be
//! **bit-identical** to `greedy_decode_with_prompt` at every chunk size
//! and page size, and the FP32 paged decode to `greedy_decode`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::quantized::{QuantSeq2Seq, SoftmaxMode};
use transformer_accel::serving::{ContinuousBatcher, EngineConfig, Request};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::incremental::{
    greedy_decode_incremental, FpKvArena, IncrementalSession,
};
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen, BOS, EOS};

fn setup(seed: u64) -> (Seq2SeqTransformer, QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(6, &mut StdRng::seed_from_u64(seed ^ 0xABCD));
    let quant = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
    let srcs = corpus.into_iter().map(|(s, _)| s).collect();
    (model, quant, srcs)
}

/// Long target-side prompts built from valid vocabulary tokens.
fn prompts(srcs: &[Vec<usize>], len: usize) -> Vec<Vec<usize>> {
    srcs.iter()
        .map(|s| s.iter().cycle().take(len).copied().collect())
        .collect()
}

#[test]
fn chunked_prefill_paged_int8_matches_sequential_reference() {
    // The serving engine (chunked prefill, paged INT8 KV, mixed
    // prefill/decode batches) against the single-session token-at-a-time
    // golden path, across chunk sizes and prefill budgets. Page size
    // follows ACCEL_KV_PAGE here, so the CI page-stress matrix also
    // exercises 1-row pages through this test.
    let (_, quant, srcs) = setup(0xC0FFEE);
    let prompts = prompts(&srcs, 19);
    let want: Vec<Vec<usize>> = srcs
        .iter()
        .zip(&prompts)
        .map(|(s, p)| quant.greedy_decode_with_prompt(s, p, 8))
        .collect();
    for (chunk, budget) in [(1usize, 64usize), (3, 64), (16, 64), (8, 6), (64, 64)] {
        let mut cfg = EngineConfig::with_max_batch(4);
        cfg.prefill_chunk = chunk;
        cfg.max_prefill_rows = budget;
        let mut engine = ContinuousBatcher::new(&quant, cfg).unwrap();
        for (i, (s, p)) in srcs.iter().zip(&prompts).enumerate() {
            engine
                .submit(Request::new(i as u64, s.clone(), 8).with_prompt(p.clone()))
                .unwrap();
        }
        let responses = engine.run_to_completion();
        assert_eq!(responses.len(), srcs.len());
        for (resp, want) in responses.iter().zip(&want) {
            assert_eq!(
                &resp.tokens, want,
                "chunk {chunk} budget {budget} id {} diverged from sequential",
                resp.id
            );
        }
        // Retired sessions hand every page back.
        assert_eq!(engine.stats().kv_bytes_in_use, 0);
        assert!(engine.stats().kv_bytes_peak > 0);
    }
}

#[test]
fn fp32_page_mode_is_bit_identical_to_pre_paging_decode() {
    // Fp32 pages reproduce the exact bytes a flat cache held: the paged
    // incremental decode must equal the full-prefix recompute (the
    // pre-paging reference) at every page size, and the per-step logits
    // must not differ by a single bit between page sizes.
    let (mut model, _, srcs) = setup(0xF00D);
    for src in &srcs {
        let full = model.greedy_decode(src, BOS, EOS, 8);
        let paged = greedy_decode_incremental(&model, src, BOS, EOS, 8);
        assert_eq!(full, paged, "src {src:?}");
    }
    let d_model = model.config().d_model;
    let prefix = [1usize, 5, 8, 6, 2, 9, 4, 3];
    for src in &srcs {
        let mut logits_by_page: Vec<Vec<Vec<u32>>> = Vec::new();
        for page_rows in [1usize, 3, 64] {
            let mut arena = FpKvArena::with_page_rows(d_model, page_rows);
            let mut session = IncrementalSession::new(&model, &mut arena, src);
            let steps: Vec<Vec<u32>> = prefix
                .iter()
                .map(|&t| {
                    session
                        .step(&model, &mut arena, t)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect();
            logits_by_page.push(steps);
        }
        assert_eq!(logits_by_page[0], logits_by_page[1], "page 1 vs 3");
        assert_eq!(logits_by_page[0], logits_by_page[2], "page 1 vs 64");
    }
}
