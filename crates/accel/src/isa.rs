//! The accelerator's command stream: Algorithm 1 as an explicit
//! instruction sequence, and the one encoding of it in this crate.
//!
//! A real implementation of the paper's design has a small control unit
//! stepping through a static schedule; this module makes that program
//! first-class, and everything else reads it:
//!
//! * [`mha_program`] / [`ffn_program`] — the instruction list for one
//!   ResBlock, lowered from the operator graph by [`crate::exec`];
//! * [`execute_mha_with`] / [`execute_ffn_with`] — the **numerics**: a
//!   bit-exact interpreter that hands every GEMM command to a
//!   [`Datapath`]. [`execute_mha`] / [`execute_ffn`] use
//!   [`ResidentPanels`], the fast path: as in the paper's partition,
//!   every projection, `W_G`, `W_1` and `W_2` command streams its
//!   `s`-row activations against one weight panel that stays resident —
//!   [`quantized::QLinear::forward_cols`] reads the panel's columns
//!   straight out of the layer's prepacked weights and fuses bias and
//!   requantization into the drain, so no command copies a weight.
//!   [`crate::engine::ArrayEngine`] is the other [`Datapath`]: it clocks
//!   each pass through the PE grid. Both equal
//!   [`quantized::QuantMhaResBlock::forward`] /
//!   [`quantized::QuantFfnResBlock::forward`] exactly;
//! * [`replay`] — the **timing**: the same commands on the unit
//!   timeline, giving the makespan, SA occupancy and a labelled Gantt
//!   trace. [`crate::scheduler`]'s `schedule_*` functions wrap it.
//!
//! One program, two semantics — the strongest form of the workspace's
//! "numerics and timing never diverge" rule.

use hwsim::cycles::Cycle;
use hwsim::timeline::{EventId, Timeline};
use quantized::softmax::scaled_masked_softmax;
use quantized::{QLinear, QuantFfnResBlock, QuantMhaResBlock};
use serde::Serialize;
use std::ops::Range;
use tensor::{gemm, Mat};

use crate::config::AccelConfig;
use crate::layernorm_module;
use crate::partition::{qk_plan, qk_tile, PANEL_COLS};
use crate::scheduler::ScheduleReport;
use crate::softmax_module;

/// One command of the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Command {
    /// `Temp1 = Q · W_Q[head] + bias` (Algorithm 1 line 3).
    ProjectQ {
        /// Head index.
        head: usize,
    },
    /// `Temp2 = K · W_K[head] + bias` (line 4).
    ProjectK {
        /// Head index.
        head: usize,
    },
    /// One output tile of `Temp1 × Temp2ᵀ` (line 5 / Section III).
    ScoreTile {
        /// Head index.
        head: usize,
        /// Output-column tile index.
        tile: usize,
    },
    /// The softmax module over this head's score matrix (line 6, the
    /// overlapped nonlinearity).
    Softmax {
        /// Head index.
        head: usize,
    },
    /// `Temp2 = V · W_V[head] + bias` (line 6).
    ProjectV {
        /// Head index.
        head: usize,
    },
    /// `P[head] = softmax_output × Temp2` (line 7).
    Context {
        /// Head index.
        head: usize,
    },
    /// `G[panel] = P · W_G[panel] + bias + residual` (line 10).
    OutputPanel {
        /// Output panel index.
        panel: usize,
    },
    /// `P[panel] = ReLU(X · W_1[panel] + b)` (line 16).
    FfnHidden {
        /// Hidden panel index.
        panel: usize,
    },
    /// `G[panel] = P · W_2[panel] + b + X[panel]` (line 19).
    FfnOutput {
        /// Output panel index.
        panel: usize,
    },
    /// The LayerNorm module (lines 12/21).
    LayerNorm,
}

/// The Algorithm-1 command stream for the MHA ResBlock at key/value
/// length `s_kv` — lowered from the [`graph::mha_graph`] dataflow by
/// [`crate::exec::lower_mha`], so the schedule and every software
/// backend share one operator-graph description. The lowering only
/// reads the graph's *shape* (`h` and the node order), so `d_model` is
/// pinned to `h` panels of 64.
pub fn mha_program(h: usize, s_kv: usize) -> Vec<Command> {
    let g = graph::mha_graph(&graph::GraphConfig {
        d_model: h * PANEL_COLS,
        d_ff: 0,
        h,
    });
    crate::exec::lower_mha(&g, s_kv)
}

/// The Algorithm-1 command stream for the FFN ResBlock — lowered from
/// the [`graph::ffn_graph`] dataflow by [`crate::exec::lower_ffn`].
pub fn ffn_program(d_model: usize, d_ff: usize) -> Vec<Command> {
    let g = graph::ffn_graph(&graph::GraphConfig {
        d_model,
        d_ff,
        h: 1,
    });
    crate::exec::lower_ffn(&g)
}

/// A structural defect found in a command stream — the control unit's
/// detection vocabulary for faults injected into the ISA program store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramFault {
    /// A command's head/tile/panel index exceeds the block's geometry.
    IndexOutOfRange {
        /// Offending command slot.
        slot: usize,
    },
    /// A command ran before its data dependencies (e.g. `ScoreTile`
    /// before both projections), or after the terminating `LayerNorm`,
    /// or belongs to the other ResBlock's program.
    OrderViolation {
        /// Offending command slot.
        slot: usize,
    },
    /// The program does not visit every required site exactly once
    /// (a duplicated command always shadows a missing one).
    CoverageViolation {
        /// Which command family is mis-covered.
        what: &'static str,
    },
    /// The program does not end with a `LayerNorm`.
    MissingLayerNorm,
}

impl std::fmt::Display for ProgramFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramFault::IndexOutOfRange { slot } => {
                write!(f, "command {slot}: index out of range")
            }
            ProgramFault::OrderViolation { slot } => {
                write!(f, "command {slot}: dependency order violated")
            }
            ProgramFault::CoverageViolation { what } => {
                write!(f, "{what} commands do not cover every site exactly once")
            }
            ProgramFault::MissingLayerNorm => write!(f, "program does not end with LayerNorm"),
        }
    }
}

impl std::error::Error for ProgramFault {}

/// Structurally validates an MHA command stream against the block
/// geometry `(h, s_kv)`: every index in range, every dependency
/// satisfied in order, every projection/score-tile/softmax/context/
/// output-panel site covered exactly once, `LayerNorm` terminal.
///
/// The Algorithm-1 schedule is a *static* program, so the checker can
/// demand exact coverage — which is what makes single bit flips in the
/// command store detectable: flipping an index bit either leaves the
/// valid range (range check), runs a command before its operands exist
/// (order check), or duplicates one site while starving another
/// (coverage check).
pub fn validate_mha_program(
    program: &[Command],
    h: usize,
    s_kv: usize,
) -> Result<(), ProgramFault> {
    let tiles = qk_plan(s_kv).tiles;
    let mut pq = vec![0usize; h];
    let mut pk = vec![0usize; h];
    let mut pv = vec![0usize; h];
    let mut sm = vec![0usize; h];
    let mut ctx = vec![0usize; h];
    let mut score = vec![vec![0usize; tiles]; h];
    let mut out = vec![0usize; h];
    let mut ln = 0usize;
    for (slot, cmd) in program.iter().enumerate() {
        if ln > 0 {
            return Err(ProgramFault::OrderViolation { slot });
        }
        match *cmd {
            Command::ProjectQ { head } if head < h => pq[head] += 1,
            Command::ProjectK { head } if head < h => pk[head] += 1,
            Command::ProjectV { head } if head < h => pv[head] += 1,
            Command::ScoreTile { head, tile } if head < h && tile < tiles => {
                if pq[head] == 0 || pk[head] == 0 {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                score[head][tile] += 1;
            }
            Command::Softmax { head } if head < h => {
                if score[head].contains(&0) {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                sm[head] += 1;
            }
            Command::Context { head } if head < h => {
                if sm[head] == 0 || pv[head] == 0 {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                ctx[head] += 1;
            }
            Command::OutputPanel { panel } if panel < h => {
                if ctx.contains(&0) {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                out[panel] += 1;
            }
            Command::LayerNorm => ln += 1,
            Command::ProjectQ { .. }
            | Command::ProjectK { .. }
            | Command::ProjectV { .. }
            | Command::ScoreTile { .. }
            | Command::Softmax { .. }
            | Command::Context { .. }
            | Command::OutputPanel { .. } => {
                return Err(ProgramFault::IndexOutOfRange { slot });
            }
            Command::FfnHidden { .. } | Command::FfnOutput { .. } => {
                return Err(ProgramFault::OrderViolation { slot });
            }
        }
    }
    if ln == 0 {
        return Err(ProgramFault::MissingLayerNorm);
    }
    for head in 0..h {
        if pq[head] != 1 || pk[head] != 1 || pv[head] != 1 {
            return Err(ProgramFault::CoverageViolation { what: "projection" });
        }
        if score[head].iter().any(|&n| n != 1) {
            return Err(ProgramFault::CoverageViolation { what: "score-tile" });
        }
        if sm[head] != 1 {
            return Err(ProgramFault::CoverageViolation { what: "softmax" });
        }
        if ctx[head] != 1 {
            return Err(ProgramFault::CoverageViolation { what: "context" });
        }
        if out[head] != 1 {
            return Err(ProgramFault::CoverageViolation {
                what: "output-panel",
            });
        }
    }
    Ok(())
}

/// Structurally validates an FFN command stream against `(d_model,
/// d_ff)`: every hidden panel written exactly once before any output
/// panel reads the hidden matrix, every output panel written exactly
/// once, `LayerNorm` terminal.
pub fn validate_ffn_program(
    program: &[Command],
    d_model: usize,
    d_ff: usize,
) -> Result<(), ProgramFault> {
    let hidden_panels = d_ff.div_ceil(PANEL_COLS);
    let out_panels = d_model.div_ceil(PANEL_COLS);
    let mut hidden = vec![0usize; hidden_panels];
    let mut out = vec![0usize; out_panels];
    let mut ln = 0usize;
    for (slot, cmd) in program.iter().enumerate() {
        if ln > 0 {
            return Err(ProgramFault::OrderViolation { slot });
        }
        match *cmd {
            Command::FfnHidden { panel } if panel < hidden_panels => hidden[panel] += 1,
            Command::FfnOutput { panel } if panel < out_panels => {
                if hidden.contains(&0) {
                    return Err(ProgramFault::OrderViolation { slot });
                }
                out[panel] += 1;
            }
            Command::LayerNorm => ln += 1,
            Command::FfnHidden { .. } | Command::FfnOutput { .. } => {
                return Err(ProgramFault::IndexOutOfRange { slot });
            }
            _ => return Err(ProgramFault::OrderViolation { slot }),
        }
    }
    if ln == 0 {
        return Err(ProgramFault::MissingLayerNorm);
    }
    if hidden.iter().any(|&n| n != 1) {
        return Err(ProgramFault::CoverageViolation { what: "ffn-hidden" });
    }
    if out.iter().any(|&n| n != 1) {
        return Err(ProgramFault::CoverageViolation { what: "ffn-output" });
    }
    Ok(())
}

/// Output columns of weight panel `panel` in a `width`-column matrix:
/// `PANEL_COLS` wide, the last panel ragged.
fn panel_cols(panel: usize, width: usize) -> Range<usize> {
    let c0 = panel * PANEL_COLS;
    c0..width.min(c0 + PANEL_COLS)
}

/// The `s` residual adders: `g[:, cols] = panel + x[:, cols]`, widened to
/// the LayerNorm's `i32` input.
fn residual_into(g: &mut Mat<i32>, cols: Range<usize>, panel: &Mat<i8>, x: &Mat<i8>) {
    for r in 0..g.rows() {
        let dst = &mut g.row_mut(r)[cols.clone()];
        for ((d, &p), &xv) in dst
            .iter_mut()
            .zip(panel.row(r))
            .zip(&x.row(r)[cols.clone()])
        {
            *d = p as i32 + xv as i32;
        }
    }
}

/// What computes a program's GEMM commands: the seam between the one
/// Algorithm-1 interpreter and a model of the processing elements.
/// Softmax, residual adds and LayerNorm run in the interpreter; the two
/// hooks let a datapath corrupt their operands (fault injection).
pub trait Datapath {
    /// A weight-panel command: columns `cols` of `x · W + bias`,
    /// requantized on the drain.
    fn linear(&mut self, lin: &QLinear, x: &Mat<i8>, cols: Range<usize>) -> Mat<i8>;

    /// One score tile: `q · k_tileᵀ` for a [`qk_tile`], raw accumulators
    /// (padding columns included).
    fn score_tile(&mut self, q: &Mat<i8>, k_tile: &Mat<i8>) -> Mat<i32>;

    /// The context GEMM `probs · v`, raw accumulators.
    fn context(&mut self, probs: &Mat<i8>, v: &Mat<i8>) -> Mat<i32>;

    /// Sees each head's softmax output before the context GEMM.
    fn softmax_out(&mut self, _probs: &mut Mat<i8>) {}

    /// Sees the LayerNorm module's input (`G` plus the residual).
    fn layernorm_in(&mut self, _g: &mut Mat<i32>) {}
}

/// The fast [`Datapath`]: every weight command reads its columns from the
/// layer's resident prepacked panels ([`QLinear::forward_cols`]); no
/// bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResidentPanels;

impl Datapath for ResidentPanels {
    fn linear(&mut self, lin: &QLinear, x: &Mat<i8>, cols: Range<usize>) -> Mat<i8> {
        lin.forward_cols(x, cols)
    }

    fn score_tile(&mut self, q: &Mat<i8>, k_tile: &Mat<i8>) -> Mat<i32> {
        gemm::matmul_i8_nt(q, k_tile).expect("shapes")
    }

    fn context(&mut self, probs: &Mat<i8>, v: &Mat<i8>) -> Mat<i32> {
        gemm::matmul_i8(probs, v).expect("shapes")
    }
}

/// Bit-exact execution of [`mha_program`] against a quantized block on
/// the [`ResidentPanels`] datapath.
///
/// # Panics
///
/// Panics on malformed programs (commands out of Algorithm-1 order).
pub fn execute_mha(
    program: &[Command],
    block: &QuantMhaResBlock,
    xq: &Mat<i8>,
    xkv: &Mat<i8>,
    mask: Option<&Mat<bool>>,
) -> Mat<i8> {
    execute_mha_with(&mut ResidentPanels, program, block, xq, xkv, mask)
}

/// Executes [`mha_program`] against a quantized block, every GEMM
/// command on `dp`.
///
/// # Panics
///
/// Panics on malformed programs (commands out of Algorithm-1 order).
pub fn execute_mha_with(
    dp: &mut impl Datapath,
    program: &[Command],
    block: &QuantMhaResBlock,
    xq: &Mat<i8>,
    xkv: &Mat<i8>,
    mask: Option<&Mat<bool>>,
) -> Mat<i8> {
    let d_k = block.d_k();
    let h = block.heads();
    let s_kv = xkv.rows();
    let (wq, wk, wv, wo) = block.projections();
    let head_cols = |head: usize| head * d_k..(head + 1) * d_k;
    let mut q: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut k: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut v: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut scores: Vec<Vec<Mat<i32>>> = vec![Vec::new(); h];
    let mut probs: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut p_panels: Vec<Option<Mat<i8>>> = vec![None; h];
    let mut p_cat: Option<Mat<i8>> = None;
    let mut g: Mat<i32> = Mat::zeros(xq.rows(), wq.weight_q().cols());
    let mut ln_out: Option<Mat<i8>> = None;

    for cmd in program {
        match *cmd {
            Command::ProjectQ { head } => q[head] = Some(dp.linear(wq, xq, head_cols(head))),
            Command::ProjectK { head } => k[head] = Some(dp.linear(wk, xkv, head_cols(head))),
            Command::ProjectV { head } => v[head] = Some(dp.linear(wv, xkv, head_cols(head))),
            Command::ScoreTile { head, tile } => {
                let qi = q[head].as_ref().expect("ProjectQ before ScoreTile");
                let ki = k[head].as_ref().expect("ProjectK before ScoreTile");
                scores[head].push(dp.score_tile(qi, &qk_tile(ki, tile)));
            }
            Command::Softmax { head } => {
                let tiles = Mat::hconcat(&std::mem::take(&mut scores[head]))
                    .expect("ScoreTile before Softmax");
                // Columns past s_kv are products with zero-padded keys.
                let d = tiles.submatrix(0, 0, tiles.rows(), s_kv).expect("crop");
                let mut pr =
                    scaled_masked_softmax(&d, block.d_scale(), d_k, mask, block.softmax_mode());
                dp.softmax_out(&mut pr);
                probs[head] = Some(pr);
            }
            Command::Context { head } => {
                let pr = probs[head].as_ref().expect("Softmax before Context");
                let vi = v[head].as_ref().expect("ProjectV before Context");
                let acc = dp.context(pr, vi);
                p_panels[head] = Some(acc.map(|&a| block.requantize_p(a)));
            }
            Command::OutputPanel { panel } => {
                // `P` is concatenated once, on the first output panel:
                // every context panel exists by then.
                let p = p_cat.get_or_insert_with(|| {
                    let heads: Vec<Mat<i8>> = p_panels
                        .iter_mut()
                        .map(|m| m.take().expect("all Contexts before OutputPanel"))
                        .collect();
                    Mat::hconcat(&heads).expect("heads share rows")
                });
                let cols = head_cols(panel);
                let g_cols = dp.linear(wo, p, cols.clone());
                residual_into(&mut g, cols, &g_cols, xq);
            }
            Command::LayerNorm => {
                dp.layernorm_in(&mut g);
                ln_out = Some(block.layernorm().forward(&g));
            }
            other => panic!("command {other:?} is not part of an MHA program"),
        }
    }
    ln_out.expect("program must end with LayerNorm")
}

/// Bit-exact execution of [`ffn_program`] against a quantized block on
/// the [`ResidentPanels`] datapath.
///
/// # Panics
///
/// Panics on malformed programs.
pub fn execute_ffn(program: &[Command], block: &QuantFfnResBlock, x: &Mat<i8>) -> Mat<i8> {
    execute_ffn_with(&mut ResidentPanels, program, block, x)
}

/// Executes [`ffn_program`] against a quantized block, every GEMM command
/// on `dp`.
///
/// # Panics
///
/// Panics on malformed programs.
pub fn execute_ffn_with(
    dp: &mut impl Datapath,
    program: &[Command],
    block: &QuantFfnResBlock,
    x: &Mat<i8>,
) -> Mat<i8> {
    let (w1, w2) = block.sublayers();
    let d_ff = w1.weight_q().cols();
    let d_model = w2.weight_q().cols();
    let mut hidden = Mat::<i8>::zeros(x.rows(), d_ff);
    let mut g = Mat::<i32>::zeros(x.rows(), d_model);
    let mut ln_out: Option<Mat<i8>> = None;
    for cmd in program {
        match *cmd {
            Command::FfnHidden { panel } => {
                let cols = panel_cols(panel, d_ff);
                let h_cols = dp.linear(w1, x, cols.clone());
                for r in 0..hidden.rows() {
                    let dst = &mut hidden.row_mut(r)[cols.clone()];
                    for (d, &v) in dst.iter_mut().zip(h_cols.row(r)) {
                        *d = v.max(0); // fused ReLU
                    }
                }
            }
            Command::FfnOutput { panel } => {
                let cols = panel_cols(panel, d_model);
                let g_cols = dp.linear(w2, &hidden, cols.clone());
                residual_into(&mut g, cols, &g_cols, x);
            }
            Command::LayerNorm => {
                dp.layernorm_in(&mut g);
                ln_out = Some(block.layernorm().forward(&g));
            }
            other => panic!("command {other:?} is not part of an FFN program"),
        }
    }
    ln_out.expect("program must end with LayerNorm")
}

/// Replays a program on the unit timeline under the configuration's
/// scheduling policy, at key/value length `s_kv`.
///
/// Every GEMM command is a `k`-cycle stream through the `s × 64` array
/// followed by a 64-cycle column-serial drain; the policy decides
/// whether the drain blocks the array
/// ([`crate::config::SchedPolicy::overlap_drain`]) and whether the
/// softmax hides behind the `V·W_Vi` projection
/// ([`crate::config::SchedPolicy::overlap_softmax`], Algorithm 1 line
/// 6). Events carry the Algorithm-1 labels (`h{i}:QWq`, `h{i}:QK^T.{t}`,
/// `h{i}:softmax`, `G{i}`, `P{i}`, `layernorm`, ...).
///
/// # Panics
///
/// Panics on commands out of Algorithm-1 order.
pub fn replay(cfg: &AccelConfig, program: &[Command], s_kv: usize) -> ScheduleReport {
    let d_model = cfg.model.d_model;
    let d_ff = cfg.model.d_ff;
    let d_k = cfg.model.d_k();
    let pol = cfg.sched;
    let mut tl = Timeline::new();
    let sa = tl.add_unit("systolic_array");
    let drain_u = tl.add_unit("output_drain");
    let sm_u = tl.add_unit("softmax");
    let ln_u = tl.add_unit("layernorm");

    // Returns the event whose end marks the *drained* result (what
    // downstream consumers wait for).
    let drain_cycles = Cycle(PANEL_COLS as u64);
    let gemm = |tl: &mut Timeline, label: String, k: usize, deps: &[EventId]| -> EventId {
        if pol.overlap_drain {
            let stream = tl.schedule(sa, format!("{label}:stream"), Cycle(k as u64), deps);
            tl.schedule(drain_u, format!("{label}:drain"), drain_cycles, &[stream])
        } else {
            tl.schedule(sa, label, Cycle(k as u64) + drain_cycles, deps)
        }
    };

    let h = cfg.model.h;
    let mut proj_q: Vec<Option<EventId>> = vec![None; h];
    let mut proj_k: Vec<Option<EventId>> = vec![None; h];
    let mut last_score: Vec<Option<EventId>> = vec![None; h];
    let mut softmax_ev: Vec<Option<EventId>> = vec![None; h];
    let mut proj_v: Vec<Option<EventId>> = vec![None; h];
    // Context (MHA) or hidden (FFN) panels: every output panel needs all.
    let mut panels: Vec<EventId> = Vec::new();
    let mut last_out: Option<EventId> = None;

    for cmd in program {
        match *cmd {
            Command::ProjectQ { head } => {
                proj_q[head] = Some(gemm(&mut tl, format!("h{head}:QWq"), d_model, &[]));
            }
            Command::ProjectK { head } => {
                proj_k[head] = Some(gemm(&mut tl, format!("h{head}:KWk"), d_model, &[]));
            }
            Command::ScoreTile { head, tile } => {
                let deps = [proj_q[head].expect("order"), proj_k[head].expect("order")];
                let label = format!("h{head}:QK^T.{tile}");
                last_score[head] = Some(gemm(&mut tl, label, d_k, &deps));
            }
            Command::Softmax { head } => {
                softmax_ev[head] = Some(tl.schedule(
                    sm_u,
                    format!("h{head}:softmax"),
                    softmax_module::latency_after_last_input(s_kv),
                    &[last_score[head].expect("order")],
                ));
            }
            Command::ProjectV { head } => {
                let deps: Vec<EventId> = if pol.overlap_softmax {
                    vec![]
                } else {
                    vec![softmax_ev[head].expect("order")]
                };
                proj_v[head] = Some(gemm(&mut tl, format!("h{head}:VWv"), d_model, &deps));
            }
            Command::Context { head } => {
                let deps = [
                    softmax_ev[head].expect("order"),
                    proj_v[head].expect("order"),
                ];
                panels.push(gemm(&mut tl, format!("h{head}:PV"), s_kv, &deps));
            }
            Command::OutputPanel { panel } => {
                last_out = Some(gemm(&mut tl, format!("G{panel}"), d_model, &panels));
            }
            Command::FfnHidden { panel } => {
                panels.push(gemm(&mut tl, format!("P{panel}"), d_model, &[]));
            }
            Command::FfnOutput { panel } => {
                last_out = Some(gemm(&mut tl, format!("G{panel}"), d_ff, &panels));
            }
            Command::LayerNorm => {
                tl.schedule(
                    ln_u,
                    "layernorm",
                    layernorm_module::total_tail(pol.layernorm, d_model),
                    &[last_out.expect("order")],
                );
            }
        }
    }
    let cycles = tl.makespan();
    let sa_busy = tl.busy(sa);
    ScheduleReport {
        cycles,
        latency_us: cfg.clock.cycles_to_us(cycles),
        sa_busy,
        sa_utilization: sa_busy.get() as f64 / cycles.get().max(1) as f64,
        timeline: tl,
    }
}

/// The makespan of [`replay`].
pub fn schedule_program(cfg: &AccelConfig, program: &[Command], s_kv: usize) -> Cycle {
    replay(cfg, program, s_kv).cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use quantized::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;

    fn blocks(cfg: &ModelConfig, s: usize) -> (QuantMhaResBlock, QuantFfnResBlock, Mat<i8>) {
        let mut rng = StdRng::seed_from_u64(0x15A);
        let mha = MhaResBlock::new(cfg, &mut rng);
        let ffn = FfnResBlock::new(cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..3)
            .map(|_| tensor::init::normal(&mut rng, s, cfg.d_model, 1.0))
            .collect();
        let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
        let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
        let xq = qmha.quantize_input_q(&calib[0]);
        (qmha, qffn, xq)
    }

    #[test]
    fn program_shapes_match_algorithm1() {
        let p = mha_program(8, 64);
        // per head: PQ, PK, 1 score tile, softmax, PV, context = 6
        assert_eq!(p.len(), 8 * 6 + 8 + 1);
        assert_eq!(*p.last().unwrap(), Command::LayerNorm);
        let p = ffn_program(512, 2048);
        assert_eq!(p.len(), 32 + 8 + 1);
    }

    #[test]
    fn mha_execution_is_bit_identical_to_the_datapath() {
        for cfg in [
            ModelConfig::tiny_for_tests(),
            ModelConfig {
                name: "mini64h".into(),
                d_model: 128,
                d_ff: 512,
                h: 2,
                n_layers: 1,
                vocab: 16,
                max_len: 8,
            },
        ] {
            let (qmha, _, xq) = blocks(&cfg, 8);
            let program = mha_program(cfg.h, 8);
            let got = execute_mha(&program, &qmha, &xq, &xq, None);
            let (want, _) = qmha.forward(&xq, &xq, None);
            assert_eq!(got, want, "{}", cfg.name);
        }
    }

    #[test]
    fn masked_mha_execution_matches() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let mask = tensor::ops::causal_mask(8);
        let program = mha_program(cfg.h, 8);
        let got = execute_mha(&program, &qmha, &xq, &xq, Some(&mask));
        let (want, _) = qmha.forward(&xq, &xq, Some(&mask));
        assert_eq!(got, want);
    }

    #[test]
    fn ffn_execution_is_bit_identical_to_the_datapath() {
        let cfg = ModelConfig::tiny_for_tests();
        let (_, qffn, _) = blocks(&cfg, 8);
        let mut rng = StdRng::seed_from_u64(0xF0);
        let x = qffn.quantize_input(&tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0));
        let program = ffn_program(cfg.d_model, cfg.d_ff);
        let got = execute_ffn(&program, &qffn, &x);
        let (want, _) = qffn.forward(&x);
        assert_eq!(got, want);
    }

    /// The paper's shape (`d_model` 512, `h` 8, `d_ff` 2048): every
    /// command streams a 64-column panel of the resident weights, at one
    /// row (the GEMV path), eight rows and the full 64-row array, with
    /// and without the causal mask.
    #[test]
    fn paper_shape_execution_is_bit_identical_to_the_datapath() {
        let cfg = ModelConfig::transformer_base();
        let (qmha, qffn, _) = blocks(&cfg, 64);
        let mut rng = StdRng::seed_from_u64(0x512);
        let ffn_prog = ffn_program(cfg.d_model, cfg.d_ff);
        for s in [1usize, 8, 64] {
            let xf = tensor::init::normal(&mut rng, s, cfg.d_model, 1.0);
            let xq = qmha.quantize_input_q(&xf);
            let program = mha_program(cfg.h, s);
            let mask = tensor::ops::causal_mask(s);
            for mask in [None, Some(&mask)] {
                let got = execute_mha(&program, &qmha, &xq, &xq, mask);
                let (want, _) = qmha.forward(&xq, &xq, mask);
                assert_eq!(got, want, "MHA s = {s}, masked = {}", mask.is_some());
            }
            let x = qffn.quantize_input(&xf);
            let (want, _) = qffn.forward(&x);
            assert_eq!(execute_ffn(&ffn_prog, &qffn, &x), want, "FFN s = {s}");
        }
    }

    /// `d_model` 100 and `d_ff` 300 are not multiples of the 64-column
    /// panel: the last hidden and output panels are ragged, and every
    /// panel after the first starts off the 16-lane tile grid of a
    /// narrower pack.
    #[test]
    fn ragged_ffn_panels_execute_bit_identically() {
        let cfg = ModelConfig {
            name: "ragged".into(),
            d_model: 100,
            d_ff: 300,
            h: 4,
            n_layers: 1,
            vocab: 16,
            max_len: 8,
        };
        let mut rng = StdRng::seed_from_u64(0x100);
        let ffn = FfnResBlock::new(&cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..3)
            .map(|_| tensor::init::normal(&mut rng, 8, cfg.d_model, 1.0))
            .collect();
        let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
        let program = ffn_program(cfg.d_model, cfg.d_ff);
        for s in [1usize, 7] {
            let x = qffn.quantize_input(&tensor::init::normal(&mut rng, s, cfg.d_model, 1.0));
            let (want, _) = qffn.forward(&x);
            assert_eq!(execute_ffn(&program, &qffn, &x), want, "s = {s}");
        }
    }

    #[test]
    fn lowered_programs_validate_clean() {
        for (h, s_kv) in [(8, 64), (2, 8), (4, 128)] {
            validate_mha_program(&mha_program(h, s_kv), h, s_kv).expect("lowered MHA is valid");
        }
        for (d_model, d_ff) in [(512, 2048), (64, 256), (100, 300)] {
            validate_ffn_program(&ffn_program(d_model, d_ff), d_model, d_ff)
                .expect("lowered FFN is valid");
        }
    }

    #[test]
    fn validator_catches_any_single_index_corruption() {
        // Flip every index field of every command of the canonical MHA
        // program in turn: exact-coverage validation must flag each one
        // (a corrupted index either leaves the range, runs before its
        // operands, or double-covers one site while starving another).
        let (h, s_kv) = (4usize, 64usize);
        let prog = mha_program(h, s_kv);
        for slot in 0..prog.len() {
            for bit in 0..8u32 {
                let mut bad = prog.clone();
                let corrupted = match bad[slot] {
                    Command::ProjectQ { head } => Command::ProjectQ {
                        head: head ^ (1 << bit),
                    },
                    Command::ProjectK { head } => Command::ProjectK {
                        head: head ^ (1 << bit),
                    },
                    Command::ProjectV { head } => Command::ProjectV {
                        head: head ^ (1 << bit),
                    },
                    Command::ScoreTile { head, tile } => Command::ScoreTile {
                        head: head ^ (1 << bit),
                        tile,
                    },
                    Command::Softmax { head } => Command::Softmax {
                        head: head ^ (1 << bit),
                    },
                    Command::Context { head } => Command::Context {
                        head: head ^ (1 << bit),
                    },
                    Command::OutputPanel { panel } => Command::OutputPanel {
                        panel: panel ^ (1 << bit),
                    },
                    Command::LayerNorm => continue, // no index field to corrupt
                    _ => unreachable!("MHA program"),
                };
                bad[slot] = corrupted;
                assert!(
                    validate_mha_program(&bad, h, s_kv).is_err(),
                    "slot {slot} bit {bit} escaped validation"
                );
            }
        }
        let prog = ffn_program(128, 256);
        for slot in 0..prog.len() {
            let mut bad = prog.clone();
            let corrupted = match bad[slot] {
                Command::FfnHidden { panel } => Command::FfnHidden { panel: panel ^ 1 },
                Command::FfnOutput { panel } => Command::FfnOutput { panel: panel ^ 1 },
                Command::LayerNorm => continue,
                _ => unreachable!("FFN program"),
            };
            bad[slot] = corrupted;
            assert!(
                validate_ffn_program(&bad, 128, 256).is_err(),
                "slot {slot} escaped validation"
            );
        }
    }

    #[test]
    fn validator_rejects_truncated_and_cross_block_programs() {
        let mut prog = mha_program(2, 8);
        assert!(validate_mha_program(&prog[..prog.len() - 1], 2, 8).is_err());
        prog.insert(0, Command::FfnHidden { panel: 0 });
        assert!(validate_mha_program(&prog, 2, 8).is_err());
        let ffn = ffn_program(64, 256);
        assert!(validate_ffn_program(&ffn[..ffn.len() - 1], 64, 256).is_err());
        let mut ffn_bad = ffn.clone();
        ffn_bad.insert(0, Command::Softmax { head: 0 });
        assert!(validate_ffn_program(&ffn_bad, 64, 256).is_err());
        // Hidden panels must all land before the first output panel.
        let mut swapped = ffn.clone();
        let first_out = swapped
            .iter()
            .position(|c| matches!(c, Command::FfnOutput { .. }))
            .unwrap();
        swapped.swap(0, first_out);
        assert!(validate_ffn_program(&swapped, 64, 256).is_err());
    }

    #[test]
    #[should_panic(expected = "not part of an MHA program")]
    fn ffn_commands_rejected_in_mha_execution() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let _ = execute_mha(&[Command::FfnHidden { panel: 0 }], &qmha, &xq, &xq, None);
    }
}
