//! Golden ISA programs and paper cycle counts.
//!
//! `mha_program` / `ffn_program` are now *lowered from the operator
//! graph* (`accel::exec::lower_mha` / `lower_ffn`); this test freezes
//! the pre-refactor hand-written Algorithm-1 loops and asserts the
//! lowering reproduces them command for command, and that the timing
//! interpretation of the lowered programs still lands exactly on the
//! reproduction's paper-configuration cycle counts (MHA 20 998, FFN
//! 35 846; the paper reports 21 344 / 42 099 — see DESIGN.md
//! §Fidelity).

use transformer_accel::accel::exec::{lower_ffn, lower_mha};
use transformer_accel::accel::isa::{ffn_program, mha_program, schedule_program, Command};
use transformer_accel::accel::partition::{qk_plan, PANEL_COLS};
use transformer_accel::accel::AccelConfig;
use transformer_accel::graph::{ffn_graph, mha_graph, GraphConfig};
use transformer_accel::hwsim::cycles::Cycle;

/// The hand-written Algorithm-1 MHA command loop, as it existed before
/// programs were derived from the graph.
fn handwritten_mha(h: usize, s_kv: usize) -> Vec<Command> {
    let mut prog = Vec::new();
    let tiles = qk_plan(s_kv).tiles;
    for head in 0..h {
        prog.push(Command::ProjectQ { head });
        prog.push(Command::ProjectK { head });
        for tile in 0..tiles {
            prog.push(Command::ScoreTile { head, tile });
        }
        prog.push(Command::Softmax { head });
        prog.push(Command::ProjectV { head });
        prog.push(Command::Context { head });
    }
    for panel in 0..h {
        prog.push(Command::OutputPanel { panel });
    }
    prog.push(Command::LayerNorm);
    prog
}

/// The hand-written Algorithm-1 FFN command loop.
fn handwritten_ffn(d_model: usize, d_ff: usize) -> Vec<Command> {
    let mut prog = Vec::new();
    for panel in 0..d_ff.div_ceil(PANEL_COLS) {
        prog.push(Command::FfnHidden { panel });
    }
    for panel in 0..d_model.div_ceil(PANEL_COLS) {
        prog.push(Command::FfnOutput { panel });
    }
    prog.push(Command::LayerNorm);
    prog
}

#[test]
fn lowered_programs_match_handwritten_loops() {
    let cfg = AccelConfig::paper_default();
    let (h, s) = (cfg.model.h, cfg.s);
    assert_eq!(mha_program(h, s), handwritten_mha(h, s));
    assert_eq!(
        ffn_program(cfg.model.d_model, cfg.model.d_ff),
        handwritten_ffn(cfg.model.d_model, cfg.model.d_ff)
    );
    // and off the paper point, including a non-multiple-of-64 width
    for (h, s) in [(2, 8), (4, 128), (4, 200)] {
        assert_eq!(mha_program(h, s), handwritten_mha(h, s));
    }
    for (d_model, d_ff) in [(64, 256), (100, 300)] {
        assert_eq!(ffn_program(d_model, d_ff), handwritten_ffn(d_model, d_ff));
    }
}

#[test]
fn graph_lowering_is_the_program_source() {
    let cfg = AccelConfig::paper_default();
    let g = mha_graph(&GraphConfig {
        d_model: cfg.model.d_model,
        d_ff: 0,
        h: cfg.model.h,
    });
    assert_eq!(lower_mha(&g, cfg.s), mha_program(cfg.model.h, cfg.s));
    let g = ffn_graph(&GraphConfig {
        d_model: cfg.model.d_model,
        d_ff: cfg.model.d_ff,
        h: 1,
    });
    assert_eq!(
        lower_ffn(&g),
        ffn_program(cfg.model.d_model, cfg.model.d_ff)
    );
}

#[test]
fn lowered_programs_hit_paper_cycle_counts() {
    let cfg = AccelConfig::paper_default();
    let mha = mha_program(cfg.model.h, cfg.s);
    assert_eq!(schedule_program(&cfg, &mha, cfg.s), Cycle(20_998));
    let ffn = ffn_program(cfg.model.d_model, cfg.model.d_ff);
    assert_eq!(schedule_program(&cfg, &ffn, cfg.s), Cycle(35_846));
}
