//! Cross-validation of the array-level execution engine (what the PE
//! grid actually does, pass by pass) against the Algorithm-1 program it
//! executes, the analytic MAC counts and the scheduled timing.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::engine::ArrayEngine;
use transformer_accel::accel::isa::{ffn_program, mha_program, Command};
use transformer_accel::accel::{scheduler, AccelConfig};
use transformer_accel::quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::mha::MhaResBlock;

fn table1_mini() -> ModelConfig {
    // 64h-patterned mini model: h = 2 so panels are exactly 64 wide and
    // the Algorithm-1 structure matches the paper's counting.
    ModelConfig {
        name: "mini-64h".into(),
        d_model: 128,
        d_ff: 512,
        h: 2,
        n_layers: 1,
        vocab: 16,
        max_len: 16,
    }
}

fn quantized_blocks(s: usize) -> (QuantMhaResBlock, QuantFfnResBlock, tensor::Mat<i8>) {
    let cfg = table1_mini();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
    let codes = qmha.quantize_input_q(&calib[0]);
    (qmha, qffn, codes)
}

fn accel_cfg(s: usize) -> AccelConfig {
    AccelConfig {
        model: table1_mini(),
        s,
        ..AccelConfig::paper_default()
    }
}

/// Commands that issue systolic-array passes: everything but the
/// softmax and LayerNorm modules.
fn sa_commands(program: &[Command]) -> usize {
    program
        .iter()
        .filter(|c| !matches!(c, Command::Softmax { .. } | Command::LayerNorm))
        .count()
}

#[test]
fn mha_gemm_pass_counts_agree() {
    // d_k = 64 (one weight panel per head) and d_k = 8 (tiny: four
    // heads share one 64-column panel, each still its own pass).
    let s = 16;
    let (qmha, _, codes) = quantized_blocks(s);
    let run = ArrayEngine::new(s).execute_mha(&qmha, &codes, &codes, None);
    assert_eq!(run.stats.gemm_passes, sa_commands(&mha_program(2, s)));
    assert_eq!(run.stats.gemm_passes, 12);

    let tiny = ModelConfig::tiny_for_tests();
    let mut rng = StdRng::seed_from_u64(0xC0DF);
    let calib = vec![tensor::init::normal(&mut rng, 8, tiny.d_model, 1.0)];
    let mha = MhaResBlock::new(&tiny, &mut rng);
    let q = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let x = q.quantize_input_q(&calib[0]);
    let run = ArrayEngine::new(8).execute_mha(&q, &x, &x, None);
    assert_eq!(run.stats.gemm_passes, sa_commands(&mha_program(tiny.h, 8)));
    assert_eq!(run.stats.gemm_passes, 24);
}

#[test]
fn ffn_gemm_pass_counts_agree() {
    let s = 16;
    let (_, qffn, _) = quantized_blocks(s);
    let mut rng = StdRng::seed_from_u64(0xFEED);
    let x = qffn.quantize_input(&tensor::init::normal(&mut rng, s, 128, 1.0));
    let run = ArrayEngine::new(s).execute_ffn(&qffn, &x);
    assert_eq!(run.stats.gemm_passes, sa_commands(&ffn_program(128, 512)));
    assert_eq!(run.stats.gemm_passes, 10);

    let tiny = ModelConfig::tiny_for_tests();
    let calib = vec![tensor::init::normal(&mut rng, 8, tiny.d_model, 1.0)];
    let q = QuantFfnResBlock::from_f32(&FfnResBlock::new(&tiny, &mut rng), &calib);
    let x = q.quantize_input(&calib[0]);
    let run = ArrayEngine::new(8).execute_ffn(&q, &x);
    let program = ffn_program(tiny.d_model, tiny.d_ff);
    assert_eq!(run.stats.gemm_passes, sa_commands(&program));
    assert_eq!(run.stats.gemm_passes, 2);
}

#[test]
fn engine_macs_match_analysis_counts() {
    let s = 16;
    let (qmha, qffn, codes) = quantized_blocks(s);
    let cfg = table1_mini();
    let mut engine = ArrayEngine::new(s);

    let run = engine.execute_mha(&qmha, &codes, &codes, None);
    let analytic = transformer_accel::accel::analysis::mha_macs(&cfg, s);
    // the engine pads K to 64 rows for the QK^T pass, so its MAC count
    // includes the zero-padding work: qk/av terms count 64 columns
    // instead of s
    let padded_qk_extra = (64 - s) as u64 * s as u64 * cfg.d_k() as u64 * cfg.h as u64;
    assert_eq!(run.stats.macs, analytic.total() + padded_qk_extra);

    let run = engine.execute_ffn(&qffn, &codes);
    assert_eq!(
        run.stats.macs,
        transformer_accel::accel::analysis::ffn_macs(&cfg, s)
    );
}

#[test]
fn scheduler_streams_at_least_the_engine_work() {
    // The scheduler's SA busy time (streams + blocking drains) must be
    // at least the work the array provably performs (stream cycles =
    // reduction depths), and no more than the engine's fully isolated
    // per-pass total.
    let s = 16;
    let (qmha, _, codes) = quantized_blocks(s);
    let mut engine = ArrayEngine::new(s);
    let run = engine.execute_mha(&qmha, &codes, &codes, None);
    let rep = scheduler::schedule_mha_cross(&accel_cfg(s), s, s);
    assert!(rep.sa_busy <= run.stats.isolated_cycles);
    assert!(rep.cycles <= run.stats.isolated_cycles + hwsim::cycles::Cycle(2048));
}
