//! Lowering from the ResBlock operator graphs to the accelerator ISA,
//! plus an [`Executor`] that runs a graph on the command-stream
//! interpreter.
//!
//! [`lower_mha`] / [`lower_ffn`] walk a [`Graph`] in plan order and emit
//! [`Command`]s; [`crate::isa::mha_program`] and
//! [`crate::isa::ffn_program`] are thin wrappers over this lowering, so
//! the one Algorithm-1 program — which the interpreter, the PE-grid
//! engine and the timing replay all read — is *derived from the same
//! dataflow description* every software backend executes. Nodes the
//! hardware fuses into a neighbouring unit (ReLU into the bias adders,
//! the residual add into the output drain) lower to no command at all —
//! the convention documented on [`Op`].
//!
//! [`AccelExec`] closes the loop: `run` lowers the graph, drives the
//! bit-exact ISA interpreter ([`crate::isa::execute_mha`] /
//! [`crate::isa::execute_ffn`]), and accumulates the cycle count of the
//! very same program's replay into its [`ExecStats`].

use faults::{FaultKind, FaultPlan, Injector};
use graph::{Env, ExecStats, Executor, Graph, GraphKind, Node, Op, WeightId};
use quantized::{QuantFfnResBlock, QuantMhaResBlock};
use tensor::Mat;

use crate::config::AccelConfig;
use crate::isa::{
    execute_ffn, execute_mha, schedule_program, validate_ffn_program, validate_mha_program, Command,
};
use crate::partition::{qk_plan, PANEL_COLS};

fn producer<'g>(g: &'g Graph, name: &str) -> Option<&'g Node> {
    g.nodes.iter().find(|n| n.output == name)
}

/// Lowers the [`GraphKind::Mha`] graph to the Algorithm-1 command
/// stream at key/value length `s_kv`.
///
/// The per-head projections run inside the hardware's head loop, so
/// each `SplitHeads` node — not the full-width `Linear` that feeds it —
/// lowers to the `Project{Q,K,V}` command of its producer's weight.
/// `Concat` and the residual `Add` are free (panel writeback and the
/// output drain); `Linear(W_G)` lowers to one `OutputPanel` per head.
///
/// # Panics
///
/// Panics if the graph is not an MHA graph or a `SplitHeads` input is
/// not produced by a projection (e.g. the cached-KV graph, whose K/V
/// live in a cache the accelerator model does not stream).
pub fn lower_mha(g: &Graph, s_kv: usize) -> Vec<Command> {
    assert_eq!(g.kind, GraphKind::Mha, "lower_mha lowers the MHA graph");
    let tiles = qk_plan(s_kv).tiles;
    let mut prog = Vec::new();
    for node in &g.nodes {
        match node.op {
            // Full-width projections are realised per head (below).
            Op::Linear(WeightId::Wq | WeightId::Wk | WeightId::Wv) => {}
            Op::SplitHeads => {
                let head = node.head.expect("SplitHeads carries a head index");
                let src = producer(g, &node.inputs[0]).unwrap_or_else(|| {
                    panic!(
                        "SplitHeads input {:?} has no producer; cached graphs are not lowerable",
                        node.inputs[0]
                    )
                });
                match src.op {
                    Op::Linear(WeightId::Wq) => prog.push(Command::ProjectQ { head }),
                    Op::Linear(WeightId::Wk) => prog.push(Command::ProjectK { head }),
                    Op::Linear(WeightId::Wv) => prog.push(Command::ProjectV { head }),
                    ref other => panic!("SplitHeads fed by {other:?}, not a projection"),
                }
            }
            Op::HeadMatmul {
                transpose_rhs: true,
            } => {
                let head = node.head.expect("score matmul is per head");
                for tile in 0..tiles {
                    prog.push(Command::ScoreTile { head, tile });
                }
            }
            Op::ScaledMaskedSoftmax => {
                let head = node.head.expect("softmax is per head");
                prog.push(Command::Softmax { head });
            }
            Op::HeadMatmul {
                transpose_rhs: false,
            } => {
                let head = node.head.expect("context matmul is per head");
                prog.push(Command::Context { head });
            }
            // Panel writeback into data memory; no command.
            Op::Concat => {}
            // The hardware's output drain already performs the residual
            // add, so the fused `LinearAdd(Wo)` node lowers to exactly
            // the commands the unfused `Linear(Wo)` + `Add` pair did —
            // graph fusion is timing-transparent here.
            Op::Linear(WeightId::Wo) | Op::LinearAdd(WeightId::Wo) => {
                for panel in 0..g.cfg.h {
                    prog.push(Command::OutputPanel { panel });
                }
            }
            // Residual add is fused into the output drain; no command.
            Op::Add => {}
            Op::LayerNorm => prog.push(Command::LayerNorm),
            ref other => panic!("{other:?} is not part of the MHA dataflow"),
        }
    }
    prog
}

/// Lowers the [`GraphKind::Ffn`] graph to the Algorithm-1 command
/// stream (lines 14–22): one `FfnHidden` per 64-column hidden panel,
/// one `FfnOutput` per output panel, then `LayerNorm`. ReLU and the
/// residual add are fused into neighbouring units and lower to nothing.
///
/// # Panics
///
/// Panics if the graph is not an FFN graph.
pub fn lower_ffn(g: &Graph) -> Vec<Command> {
    assert_eq!(g.kind, GraphKind::Ffn, "lower_ffn lowers the FFN graph");
    let mut prog = Vec::new();
    for node in &g.nodes {
        match node.op {
            // ReLU runs on the bias adders and the residual add on the
            // output drain (Fig. 5), so the fused nodes lower to the
            // same panel commands as their unfused `Linear` producers —
            // same program, same cycle count.
            Op::Linear(WeightId::W1) | Op::LinearRelu(WeightId::W1) => {
                for panel in 0..g.cfg.d_ff.div_ceil(PANEL_COLS) {
                    prog.push(Command::FfnHidden { panel });
                }
            }
            // Fused into the bias adders (Fig. 5); no command.
            Op::Relu => {}
            Op::Linear(WeightId::W2) | Op::LinearAdd(WeightId::W2) => {
                for panel in 0..g.cfg.d_model.div_ceil(PANEL_COLS) {
                    prog.push(Command::FfnOutput { panel });
                }
            }
            // Residual add is fused into the output drain; no command.
            Op::Add => {}
            Op::LayerNorm => prog.push(Command::LayerNorm),
            ref other => panic!("{other:?} is not part of the FFN dataflow"),
        }
    }
    prog
}

/// Which quantized ResBlock an [`AccelExec`] runs against.
#[derive(Debug, Clone, Copy)]
pub enum AccelBlock<'a> {
    /// The MHA ResBlock (Algorithm 1, lines 1–13).
    Mha(&'a QuantMhaResBlock),
    /// The FFN ResBlock (lines 14–22).
    Ffn(&'a QuantFfnResBlock),
}

/// Graph executor backed by the accelerator's ISA interpreter: lowers
/// the graph to a command stream, executes it bit-exactly, and
/// accumulates the program's cycle count (under the configuration's
/// scheduling policy) into [`ExecStats::cycles`].
#[derive(Debug)]
pub struct AccelExec<'a> {
    block: AccelBlock<'a>,
    cfg: &'a AccelConfig,
    stats: ExecStats,
    injector: Option<Injector>,
}

impl<'a> AccelExec<'a> {
    /// Executor over a quantized block under a timing configuration.
    pub fn new(block: AccelBlock<'a>, cfg: &'a AccelConfig) -> Self {
        Self {
            block,
            cfg,
            stats: ExecStats::default(),
            injector: None,
        }
    }

    /// Installs a fault plan whose `IsaCommand` events corrupt the
    /// lowered command streams (program index = `run` call order).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.injector = Some(Injector::new(plan));
        self
    }

    /// Faults landed in the command store so far.
    pub fn injected_faults(&self) -> u64 {
        self.injector.as_ref().map_or(0, Injector::injected)
    }

    /// Applies this run's scheduled command-store faults to `prog`,
    /// then puts it through the control unit's structural validator —
    /// the hardware analogue of an instruction-store parity + ordering
    /// check. A program that fails validation is discarded and
    /// re-lowered from the graph (recompute-from-source recovery), with
    /// the detection tallied in [`ExecStats::faults_detected`].
    fn harden_program(
        &mut self,
        mut prog: Vec<Command>,
        validate: impl Fn(&[Command]) -> Result<(), crate::isa::ProgramFault>,
        relower: impl Fn() -> Vec<Command>,
    ) -> Vec<Command> {
        let Some(inj) = self.injector.as_mut() else {
            return prog;
        };
        let mut hit = 0usize;
        for (slot, kind) in inj.isa_faults() {
            if slot < prog.len() {
                prog[slot] = corrupt_command(prog[slot], kind);
                hit += 1;
            }
        }
        inj.note_injected(hit);
        if hit > 0 && validate(&prog).is_err() {
            self.stats.faults_detected += 1;
            return relower();
        }
        prog
    }
}

/// Applies a fault to a command's index field (the bits a program-store
/// upset would corrupt). `LayerNorm` carries no operand bits and is
/// returned unchanged.
fn corrupt_command(cmd: Command, kind: FaultKind) -> Command {
    let flip = |v: usize| kind.apply_word(v as u32, 32) as usize;
    match cmd {
        Command::ProjectQ { head } => Command::ProjectQ { head: flip(head) },
        Command::ProjectK { head } => Command::ProjectK { head: flip(head) },
        Command::ProjectV { head } => Command::ProjectV { head: flip(head) },
        Command::ScoreTile { head, tile } => Command::ScoreTile {
            head: flip(head),
            tile,
        },
        Command::Softmax { head } => Command::Softmax { head: flip(head) },
        Command::Context { head } => Command::Context { head: flip(head) },
        Command::OutputPanel { panel } => Command::OutputPanel { panel: flip(panel) },
        Command::FfnHidden { panel } => Command::FfnHidden { panel: flip(panel) },
        Command::FfnOutput { panel } => Command::FfnOutput { panel: flip(panel) },
        Command::LayerNorm => Command::LayerNorm,
    }
}

impl Executor for AccelExec<'_> {
    type Value = Mat<i8>;

    fn run(
        &mut self,
        graph: &Graph,
        inputs: Vec<(&str, Mat<i8>)>,
        mask: Option<&Mat<bool>>,
    ) -> Env<Mat<i8>> {
        let mut env = Env::new(graph.plan().slot_names);
        for (name, value) in inputs {
            let slot = env.slot(name);
            env.set(slot, value);
        }
        let (y, prog, s_kv) = match (graph.kind, self.block) {
            (GraphKind::Mha, AccelBlock::Mha(block)) => {
                let xq = env.take("x_q");
                let xk = env.take("x_k");
                let xv = env.take("x_v");
                // The hardware streams one KV operand; self-attention
                // feeds the same codes to both projections.
                assert_eq!(
                    xk, xv,
                    "the accelerator streams a single KV input: x_k and x_v must be equal"
                );
                let s_kv = xk.rows();
                let h = block.heads();
                let prog = self.harden_program(
                    lower_mha(graph, s_kv),
                    |p| validate_mha_program(p, h, s_kv),
                    || lower_mha(graph, s_kv),
                );
                let y = execute_mha(&prog, block, &xq, &xk, mask);
                (y, prog, s_kv)
            }
            (GraphKind::Ffn, AccelBlock::Ffn(block)) => {
                let x = env.take("x");
                let s_kv = x.rows();
                let (w1, w2) = block.sublayers();
                let (d_ff, d_model) = (w1.weight_q().cols(), w2.weight_q().cols());
                let prog = self.harden_program(
                    lower_ffn(graph),
                    |p| validate_ffn_program(p, d_model, d_ff),
                    || lower_ffn(graph),
                );
                let y = execute_ffn(&prog, block, &x);
                (y, prog, s_kv)
            }
            (GraphKind::MhaCached, _) => {
                panic!("the accelerator model has no cached-KV schedule")
            }
            (kind, _) => panic!("graph kind {kind:?} does not match the bound block"),
        };
        let cycles = schedule_program(self.cfg, &prog, s_kv);
        self.stats.nodes += graph.nodes.len();
        self.stats.cycles = Some(self.stats.cycles.unwrap_or(0) + cycles.0);
        let out = env.slot("y");
        env.set(out, y);
        env
    }

    fn stats(&self) -> ExecStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph::{ffn_graph, mha_graph, GraphConfig};
    use quantized::SoftmaxMode;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use transformer::config::ModelConfig;
    use transformer::ffn::FfnResBlock;
    use transformer::mha::MhaResBlock;

    fn blocks(cfg: &ModelConfig, s: usize) -> (QuantMhaResBlock, QuantFfnResBlock, Mat<i8>) {
        let mut rng = StdRng::seed_from_u64(0xACCE);
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
    fn fused_graphs_lower_to_identical_programs() {
        // Fusion must be invisible to the accelerator: the fused graph
        // lowers to the exact command stream of the unfused graph, so
        // every pinned cycle count (MHA 20998 / FFN 35846 at the paper
        // point) is preserved by construction.
        for (h, s_kv) in [(8, 64), (2, 8), (4, 128)] {
            let g = mha_graph(&GraphConfig {
                d_model: h * PANEL_COLS,
                d_ff: 0,
                h,
            });
            assert_eq!(lower_mha(&graph::fuse(&g), s_kv), lower_mha(&g, s_kv));
        }
        for (d_model, d_ff) in [(512, 2048), (64, 256), (100, 300)] {
            let g = ffn_graph(&GraphConfig {
                d_model,
                d_ff,
                h: 1,
            });
            assert_eq!(lower_ffn(&graph::fuse(&g)), lower_ffn(&g));
        }
    }

    #[test]
    fn accel_exec_is_bit_identical_and_counts_cycles() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, qffn, xq) = blocks(&cfg, 8);
        let acfg = AccelConfig::paper_default();
        let gcfg = GraphConfig {
            d_model: cfg.d_model,
            d_ff: cfg.d_ff,
            h: cfg.h,
        };

        let g = mha_graph(&gcfg);
        let mut exec = AccelExec::new(AccelBlock::Mha(&qmha), &acfg);
        let mut env = exec.run(
            &g,
            vec![
                ("x_q", xq.clone()),
                ("x_k", xq.clone()),
                ("x_v", xq.clone()),
            ],
            None,
        );
        let (want, _) = qmha.forward(&xq, &xq, None);
        assert_eq!(env.take("y"), want);
        let mha_cycles = schedule_program(&acfg, &lower_mha(&g, 8), 8);
        assert_eq!(exec.stats().cycles, Some(mha_cycles.0));

        let g = ffn_graph(&gcfg);
        let x = qffn.quantize_input(&tensor::init::normal(
            &mut StdRng::seed_from_u64(9),
            8,
            cfg.d_model,
            1.0,
        ));
        let mut exec = AccelExec::new(AccelBlock::Ffn(&qffn), &acfg);
        let mut env = exec.run(&g, vec![("x", x.clone())], None);
        let (want, _) = qffn.forward(&x);
        assert_eq!(env.take("y"), want);
        assert!(exec.stats().cycles.is_some());
    }

    #[test]
    fn isa_command_fault_is_detected_and_recovered_by_relowering() {
        use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let acfg = AccelConfig::paper_default();
        let g = mha_graph(&GraphConfig {
            d_model: cfg.d_model,
            d_ff: cfg.d_ff,
            h: cfg.h,
        });
        let inputs = || {
            vec![
                ("x_q", xq.clone()),
                ("x_k", xq.clone()),
                ("x_v", xq.clone()),
            ]
        };
        let mut pristine = AccelExec::new(AccelBlock::Mha(&qmha), &acfg);
        let want = pristine.run(&g, inputs(), None).take("y");
        // Slot 2 is head 0's ScoreTile; flipping its head index makes
        // the program reference an unprojected head — the structural
        // validator flags it and the executor re-lowers from the graph.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::IsaCommand {
                program: 0,
                slot: 2,
            },
            kind: FaultKind::BitFlip { bit: 0 },
        }]);
        let mut exec = AccelExec::new(AccelBlock::Mha(&qmha), &acfg).with_fault_plan(plan);
        let got = exec.run(&g, inputs(), None).take("y");
        assert_eq!(got, want, "re-lowered program must compute correctly");
        assert_eq!(exec.injected_faults(), 1);
        assert_eq!(exec.stats().faults_detected, 1);
        // The next program index carries no events: clean, no detection.
        let again = exec.run(&g, inputs(), None).take("y");
        assert_eq!(again, want);
        assert_eq!(exec.stats().faults_detected, 1);
    }

    #[test]
    fn out_of_range_isa_fault_is_inert() {
        use faults::{FaultEvent, FaultKind, FaultPlan, FaultSite};
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let acfg = AccelConfig::paper_default();
        let g = mha_graph(&GraphConfig {
            d_model: cfg.d_model,
            d_ff: cfg.d_ff,
            h: cfg.h,
        });
        let plan = FaultPlan::from_events(vec![FaultEvent {
            site: FaultSite::IsaCommand {
                program: 0,
                slot: 10_000,
            },
            kind: FaultKind::BitFlip { bit: 0 },
        }]);
        let mut exec = AccelExec::new(AccelBlock::Mha(&qmha), &acfg).with_fault_plan(plan);
        let mut pristine = AccelExec::new(AccelBlock::Mha(&qmha), &acfg);
        let inputs = vec![
            ("x_q", xq.clone()),
            ("x_k", xq.clone()),
            ("x_v", xq.clone()),
        ];
        let got = exec.run(&g, inputs.clone(), None).take("y");
        let want = pristine.run(&g, inputs, None).take("y");
        assert_eq!(got, want);
        assert_eq!(exec.injected_faults(), 0);
        assert_eq!(exec.stats().faults_detected, 0);
    }

    #[test]
    #[should_panic(expected = "x_k and x_v must be equal")]
    fn distinct_key_and_value_inputs_are_rejected() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let acfg = AccelConfig::paper_default();
        let g = mha_graph(&GraphConfig {
            d_model: cfg.d_model,
            d_ff: cfg.d_ff,
            h: cfg.h,
        });
        let xv = xq.map(|&c| c.wrapping_add(1));
        let mut exec = AccelExec::new(AccelBlock::Mha(&qmha), &acfg);
        let _ = exec.run(
            &g,
            vec![("x_q", xq.clone()), ("x_k", xq), ("x_v", xv)],
            None,
        );
    }

    #[test]
    #[should_panic(expected = "no cached-KV schedule")]
    fn cached_graph_is_rejected() {
        let cfg = ModelConfig::tiny_for_tests();
        let (qmha, _, xq) = blocks(&cfg, 8);
        let acfg = AccelConfig::paper_default();
        let g = graph::mha_cached_graph(&GraphConfig {
            d_model: cfg.d_model,
            d_ff: 0,
            h: cfg.h,
        });
        let mut exec = AccelExec::new(AccelBlock::Mha(&qmha), &acfg);
        let _ = exec.run(&g, vec![("x", xq)], None);
    }
}
