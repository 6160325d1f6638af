//! Three-way consistency: the same ResBlock computed by (1) the
//! quantized datapath, (2) the ISA interpreter on its fast
//! resident-panel datapath, and (3) the same interpreter on the
//! register-true PE grid must agree bit for bit. The replay of the
//! lowered programs is pinned to the scheduled cycle counts for every
//! policy and sequence length.

use rand::rngs::StdRng;
use rand::SeedableRng;
use transformer_accel::accel::engine::ArrayEngine;
use transformer_accel::accel::isa::{
    execute_ffn, execute_mha, ffn_program, mha_program, replay, schedule_program, Command,
};
use transformer_accel::accel::{scheduler, AccelConfig, SchedPolicy};
use transformer_accel::quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use transformer_accel::transformer::config::ModelConfig;
use transformer_accel::transformer::ffn::FfnResBlock;
use transformer_accel::transformer::mha::MhaResBlock;

fn mini_cfg() -> ModelConfig {
    ModelConfig {
        name: "mini64h".into(),
        d_model: 128,
        d_ff: 512,
        h: 2,
        n_layers: 1,
        vocab: 16,
        max_len: 16,
    }
}

#[test]
fn three_way_mha_bit_identity() {
    let cfg = mini_cfg();
    let s = 16;
    let mut rng = StdRng::seed_from_u64(0x3A7);
    let mha = MhaResBlock::new(&cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let q = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
    let xq = q.quantize_input_q(&calib[0]);

    let (datapath, _) = q.forward(&xq, &xq, None);
    let engine_out = ArrayEngine::register_true(s)
        .execute_mha(&q, &xq, &xq, None)
        .out;
    let isa_out = execute_mha(&mha_program(cfg.h, s), &q, &xq, &xq, None);

    assert_eq!(datapath, engine_out, "datapath vs PE-grid engine");
    assert_eq!(datapath, isa_out, "datapath vs command stream");
}

#[test]
fn three_way_ffn_bit_identity() {
    let cfg = mini_cfg();
    let s = 12;
    let mut rng = StdRng::seed_from_u64(0x3A8);
    let ffn = FfnResBlock::new(&cfg, &mut rng);
    let calib: Vec<_> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
        .collect();
    let q = QuantFfnResBlock::from_f32(&ffn, &calib);
    let x = q.quantize_input(&calib[1]);

    let (datapath, _) = q.forward(&x);
    let engine_out = ArrayEngine::register_true(s).execute_ffn(&q, &x).out;
    let isa_out = execute_ffn(&ffn_program(cfg.d_model, cfg.d_ff), &q, &x);

    assert_eq!(datapath, engine_out);
    assert_eq!(datapath, isa_out);
}

/// Paper model (Transformer-base) cycle counts and SA occupancy, pinned
/// per policy. MHA grows with `s` (softmax latency and the `s_kv`-deep
/// context GEMM, two score tiles at 128); the FFN streams `k = d_model`
/// / `d_ff` regardless of `s`.
#[test]
fn mha_and_ffn_cycles_are_pinned_across_policies_and_lengths() {
    for (pol, mha_cycles, ffn_cycles, sa_busy_s64) in [
        (
            SchedPolicy::naive(),
            [21_926, 23_078, 25_638],
            36_870,
            (20_480, 35_328),
        ),
        (
            SchedPolicy::paper(),
            [20_614, 20_998, 22_534],
            35_846,
            (20_480, 35_328),
        ),
        (
            SchedPolicy::aggressive(),
            [18_694, 19_078, 20_102],
            33_414,
            (17_408, 32_768),
        ),
    ] {
        for (s, want_mha) in [16usize, 64, 128].into_iter().zip(mha_cycles) {
            let mut cfg = AccelConfig::paper_default();
            cfg.sched = pol;
            cfg.s = s;
            let mha = scheduler::schedule_mha(&cfg);
            let ffn = scheduler::schedule_ffn(&cfg);
            assert_eq!(mha.cycles.get(), want_mha, "MHA {pol:?} s={s}");
            assert_eq!(ffn.cycles.get(), ffn_cycles, "FFN {pol:?} s={s}");
            let program = mha_program(cfg.model.h, s);
            assert_eq!(schedule_program(&cfg, &program, s), mha.cycles);
            if s == 64 {
                assert_eq!(
                    (mha.sa_busy.get(), ffn.sa_busy.get()),
                    sa_busy_s64,
                    "SA busy {pol:?}"
                );
            }
        }
    }
}

#[test]
fn isa_timing_matches_for_long_sequences_with_tiling() {
    let mut cfg = AccelConfig::paper_default();
    cfg.s = 128;
    let prog = mha_program(cfg.model.h, 128);
    // two score tiles per head appear in the program and on the timeline
    let tiles = prog
        .iter()
        .filter(|c| matches!(c, Command::ScoreTile { .. }))
        .count();
    assert_eq!(tiles, 16);
    let rep = replay(&cfg, &prog, 128);
    let qk_events = rep
        .timeline
        .events()
        .iter()
        .filter(|e| e.label.contains("QK^T"))
        .count();
    assert_eq!(qk_events, 16);
    assert_eq!(rep.cycles.get(), 22_534);
}
