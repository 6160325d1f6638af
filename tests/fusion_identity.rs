//! Differential tests for the graph fusion pass: every executor must
//! produce **exactly the same bits** with fusion on and off.
//!
//! The pass rewrites `Linear→Relu` / `Linear→Add` pairs into fused
//! nodes whose epilogues run inside the GEMM drain
//! (`tensor::prepack::matmul_prepacked_epilogue` and the INT8
//! equivalent). Because the fused drains apply the identical per-element
//! operations in the identical order, fused and unfused paths are
//! bit-identical — these tests pin that across all five executors
//! (`FloatExec`, `RowExec`, `QuantExec`, `QuantRowExec`, `AccelExec`),
//! the serving engine's chunked prefill, and the rollback-after-fault
//! decode path, plus the `ACCEL_NO_FUSE=1` escape hatch restoring the
//! unfused graph byte-for-byte.
//!
//! The fuse switch is process-wide (`tensor::envcfg`), so every test
//! here serializes on one mutex.

use std::sync::{Mutex, MutexGuard, OnceLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::{AccelBlock, AccelConfig, AccelExec};
use transformer_accel::faults::{FaultPlan, FaultSpace, SiteClass};
use transformer_accel::graph::{self, Executor};
use transformer_accel::quantized::{QuantSeq2Seq, SoftmaxMode};
use transformer_accel::serving::{ContinuousBatcher, EngineConfig, Request, Response};
use transformer_accel::tensor::{envcfg, Mat};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::incremental::greedy_decode_incremental;
use transformer_accel::transformer::mha::MhaResBlock;
use transformer_accel::transformer::model::Seq2SeqTransformer;
use transformer_accel::transformer::tasks::{Task, TaskGen, BOS, EOS};

/// Serializes tests on the process-wide fuse override and restores the
/// env default on drop (even when a test panics).
struct FuseLock(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FuseLock {
    fn acquire() -> Self {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let g = match LOCK.get_or_init(|| Mutex::new(())).lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        FuseLock(g)
    }
}

impl Drop for FuseLock {
    fn drop(&mut self) {
        envcfg::set_fuse_override(None);
    }
}

/// Runs `f` twice — fusion forced on, then forced off — and returns
/// both results for comparison. Callers hold the [`FuseLock`].
fn both_ways<R>(mut f: impl FnMut() -> R) -> (R, R) {
    envcfg::set_fuse_override(Some(true));
    let fused = f();
    envcfg::set_fuse_override(Some(false));
    let unfused = f();
    envcfg::set_fuse_override(None);
    (fused, unfused)
}

fn models(seed: u64) -> (Seq2SeqTransformer, QuantSeq2Seq, Vec<Vec<usize>>) {
    let mut cfg = ModelConfig::tiny_for_tests();
    cfg.n_layers = 2;
    let mut rng = StdRng::seed_from_u64(seed);
    let model = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 7);
    let corpus = gen.corpus(6, &mut StdRng::seed_from_u64(seed ^ 0x5EED));
    let quant = QuantSeq2Seq::from_trained(&model, &corpus, SoftmaxMode::Hardware);
    let srcs = corpus.into_iter().map(|(s, _)| s).collect();
    (model, quant, srcs)
}

fn bits(m: &Mat<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn float_exec_fused_is_bit_identical() {
    let _l = FuseLock::acquire();
    let cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(0xF05E);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let x = transformer_accel::tensor::init::normal(&mut rng, 5, cfg.d_model, 1.0);
    let mask = Mat::from_fn(5, 5, |r, c| c > r);

    let (f, u) = both_ways(|| bits(&mha.forward_inference(&x, &x, &x, Some(&mask))));
    assert_eq!(f, u, "FloatExec MHA diverged under fusion");
    let (f, u) = both_ways(|| bits(&ffn.forward_inference(&x)));
    assert_eq!(f, u, "FloatExec FFN diverged under fusion");
}

#[test]
fn row_exec_incremental_decode_is_bit_identical() {
    let _l = FuseLock::acquire();
    let (mut model, _, srcs) = models(0xF10A);
    for src in srcs.iter().take(3) {
        let (f, u) = both_ways(|| greedy_decode_incremental(&model, src, BOS, EOS, 8));
        assert_eq!(f, u, "RowExec decode diverged under fusion, src {src:?}");
        // And against the full-prefix recompute, so the fused cached
        // path stays anchored to the reference, not just to itself.
        assert_eq!(f, model.greedy_decode(src, BOS, EOS, 8));
    }
}

#[test]
fn quant_exec_fused_is_bit_identical() {
    let _l = FuseLock::acquire();
    let (_, quant, srcs) = models(0xF1A7);
    let layer = &quant.decoder_layers()[0];
    let mut rng = StdRng::seed_from_u64(0xF1A8);
    let cfg = ModelConfig::tiny_for_tests();
    let x = transformer_accel::tensor::init::normal(&mut rng, 6, cfg.d_model, 1.0);
    let xq = layer.self_mha.quantize_input_q(&x);
    let mask = transformer_accel::tensor::ops::causal_mask(xq.rows());

    let (f, u) = both_ways(|| layer.self_mha.forward(&xq, &xq, Some(&mask)));
    assert_eq!(f, u, "QuantExec MHA diverged under fusion");
    let xf = layer.ffn.quantize_input(&x);
    let (f, u) = both_ways(|| layer.ffn.forward(&xf));
    assert_eq!(f, u, "QuantExec FFN diverged under fusion");
    // Full greedy decode across both quantized ResBlock kinds.
    for src in srcs.iter().take(2) {
        let (f, u) = both_ways(|| quant.greedy_decode(src, BOS, EOS, 8));
        assert_eq!(f, u, "quantized greedy decode diverged, src {src:?}");
    }
}

#[test]
fn serving_decode_and_chunked_prefill_are_bit_identical() {
    // QuantRowExec end to end: single-token decode, batched decode, and
    // chunked prefill through the paged KV arena, fused vs unfused.
    let _l = FuseLock::acquire();
    let (_, quant, srcs) = models(0xF5E2);
    let prompts: Vec<Vec<usize>> = srcs
        .iter()
        .map(|s| s.iter().cycle().take(11).copied().collect())
        .collect();
    let run = || -> (Vec<Response>, transformer_accel::serving::ServingStats) {
        let mut cfg = EngineConfig::with_max_batch(3);
        cfg.prefill_chunk = 3;
        let mut engine = ContinuousBatcher::new(&quant, cfg).unwrap();
        for (i, (s, p)) in srcs.iter().zip(&prompts).enumerate() {
            engine
                .submit(Request::new(i as u64, s.clone(), 6).with_prompt(p.clone()))
                .unwrap();
        }
        (engine.run_to_completion(), engine.stats())
    };
    let ((f_resp, f_stats), (u_resp, u_stats)) = both_ways(run);
    assert_eq!(f_resp.len(), u_resp.len());
    for (f, u) in f_resp.iter().zip(&u_resp) {
        assert_eq!(f.tokens, u.tokens, "request {} diverged under fusion", f.id);
    }
    // The counters tell fused from unfused even though the bits agree.
    assert!(f_stats.ops_fused > 0, "fused run must count fused drains");
    assert!(f_stats.intermediates_elided_bytes > 0);
    assert_eq!(u_stats.ops_fused, 0, "escape hatch must disable fusion");
    assert_eq!(u_stats.intermediates_elided_bytes, 0);
}

#[test]
fn accel_exec_runs_fused_graphs_identically() {
    // The accelerator lowering is fusion-transparent: the fused graph
    // must execute to the same codes AND the same cycle count.
    let _l = FuseLock::acquire();
    let cfg = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(0xACCE);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| transformer_accel::tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
        .collect();
    let qmha = transformer_accel::quantized::QuantMhaResBlock::from_f32(
        &mha,
        &calib,
        &calib,
        SoftmaxMode::Hardware,
    );
    let qffn = transformer_accel::quantized::QuantFfnResBlock::from_f32(&ffn, &calib);
    let acfg = AccelConfig::paper_default();
    let gcfg = graph::GraphConfig {
        d_model: cfg.d_model,
        d_ff: cfg.d_ff,
        h: cfg.h,
    };
    let xq = qmha.quantize_input_q(&calib[0]);

    let g = graph::mha_graph(&gcfg);
    let run_mha = |g: &graph::Graph| {
        let mut exec = AccelExec::new(AccelBlock::Mha(&qmha), &acfg);
        let mut env = exec.run(
            g,
            vec![
                ("x_q", xq.clone()),
                ("x_k", xq.clone()),
                ("x_v", xq.clone()),
            ],
            None,
        );
        (env.take("y"), exec.stats().cycles)
    };
    assert_eq!(run_mha(&graph::fuse(&g)), run_mha(&g));

    let g = graph::ffn_graph(&gcfg);
    let x = qffn.quantize_input(&calib[1]);
    let run_ffn = |g: &graph::Graph| {
        let mut exec = AccelExec::new(AccelBlock::Ffn(&qffn), &acfg);
        let mut env = exec.run(g, vec![("x", x.clone())], None);
        (env.take("y"), exec.stats().cycles)
    };
    assert_eq!(run_ffn(&graph::fuse(&g)), run_ffn(&g));
}

#[test]
fn rollback_after_fault_decode_is_fusion_invariant() {
    // A detected accumulator upset rolls the step back and replays it.
    // The fused QLinear drains defer to the unfused path while fault
    // hooks are live (the ABFT check needs the pre-bias accumulators),
    // so the heal must be bit-identical with fusion on and off — and
    // identical to the fault-free decode.
    let _l = FuseLock::acquire();
    let _g = transformer_accel::faults::exclusive();
    transformer_accel::tensor::par::set_thread_override(Some(1));
    transformer_accel::faults::clear();
    transformer_accel::faults::set_checker(Some(false));
    transformer_accel::faults::reset_counters();

    let (_, quant, srcs) = models(0xFA57);
    let decode = |n: usize| -> (Vec<Response>, transformer_accel::serving::ServingStats) {
        let mut engine = ContinuousBatcher::new(&quant, EngineConfig::with_max_batch(2)).unwrap();
        for (id, src) in srcs.iter().take(n).enumerate() {
            engine
                .submit(Request::new(id as u64, src.clone(), 6).with_prompt(vec![1, 2, 3]))
                .unwrap();
        }
        (engine.run_to_completion(), engine.stats())
    };
    let want = decode(2).0;

    // Count the GEMM passes prefill consumes, then schedule one
    // accumulator flip inside the first batched decode step's window.
    transformer_accel::faults::install(FaultPlan::empty());
    {
        let mut arena = transformer_accel::quantized::incremental::KvArena::for_model(&quant);
        for src in srcs.iter().take(2) {
            let _ = quant.start_session(&mut arena, src);
        }
    }
    let p0 = transformer_accel::faults::with_injector(|i| i.passes_seen()).unwrap();
    transformer_accel::faults::clear();
    let plan = FaultPlan::seeded(
        7,
        1,
        &FaultSpace {
            index_lo: p0 + 1,
            index_hi: p0 + 15,
            rows: 2,
            cols: 8,
            classes: vec![SiteClass::Accumulator],
        },
    );

    let run_faulted = |fuse: bool| {
        envcfg::set_fuse_override(Some(fuse));
        transformer_accel::faults::install(plan.clone());
        transformer_accel::faults::set_checker(Some(true));
        transformer_accel::faults::reset_counters();
        let (resp, stats) = decode(2);
        let c = transformer_accel::faults::counters();
        transformer_accel::faults::clear();
        transformer_accel::faults::set_checker(Some(false));
        envcfg::set_fuse_override(None);
        (resp, stats, c)
    };
    for fuse in [true, false] {
        let (resp, stats, c) = run_faulted(fuse);
        assert_eq!(c.injected, 1, "fuse={fuse}: the scheduled flip must fire");
        assert!(c.detected >= 1, "fuse={fuse}: flip must be detected");
        assert!(stats.retries >= 1, "fuse={fuse}: step must be retried");
        assert_eq!(
            resp.iter().map(|r| &r.tokens).collect::<Vec<_>>(),
            want.iter().map(|r| &r.tokens).collect::<Vec<_>>(),
            "fuse={fuse}: healed decode must match the fault-free decode"
        );
    }

    transformer_accel::faults::set_checker(None);
    transformer_accel::faults::reset_counters();
    transformer_accel::tensor::par::set_thread_override(None);
}

#[test]
fn no_fuse_escape_hatch_restores_unfused_graphs_byte_for_byte() {
    let _l = FuseLock::acquire();
    let gcfg = graph::GraphConfig {
        d_model: 128,
        d_ff: 512,
        h: 4,
    };
    envcfg::set_fuse_override(Some(false));
    for g in [
        graph::mha_graph(&gcfg),
        graph::mha_cached_graph(&gcfg),
        graph::ffn_graph(&gcfg),
    ] {
        let gated = graph::fuse_if(g.clone(), envcfg::fuse_enabled());
        assert_eq!(gated, g, "ACCEL_NO_FUSE must return the input graph");
    }
    envcfg::set_fuse_override(Some(true));
    let fused = graph::fuse_if(graph::ffn_graph(&gcfg), envcfg::fuse_enabled());
    assert_ne!(
        fused,
        graph::ffn_graph(&gcfg),
        "fusion must rewrite when on"
    );
    envcfg::set_fuse_override(None);
}
