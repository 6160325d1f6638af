//! The top-level [`Accelerator`] facade (Fig. 5): quantized weights
//! loaded into the weight memory, inputs streamed through the SA /
//! Softmax / LayerNorm pipeline, outputs plus a cycle-accurate execution
//! report. A run lowers its ResBlock to the Algorithm-1 program
//! ([`crate::isa`]), executes it on the bit-exact interpreter and
//! replays the same program for the timing.

use std::error::Error;
use std::fmt;

use quantized::{QuantFfnResBlock, QuantMhaResBlock};
use tensor::Mat;

use crate::area::{estimate_power, AreaModel, PowerEstimate};
use crate::config::AccelConfig;
use crate::isa;
use crate::scheduler::{self, ScheduleReport};

/// Errors of the accelerator facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// A run was requested before weights were loaded.
    WeightsNotLoaded(&'static str),
    /// The input sequence exceeds the array's row count.
    SequenceTooLong {
        /// Requested length.
        s: usize,
        /// Provisioned maximum.
        max: usize,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::WeightsNotLoaded(which) => {
                write!(f, "{which} weights not loaded into the weight memory")
            }
            AccelError::SequenceTooLong { s, max } => {
                write!(f, "sequence length {s} exceeds the array's {max} rows")
            }
        }
    }
}

impl Error for AccelError {}

/// Result of executing one ResBlock on the accelerator.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Timing of the run (cycles, µs, utilization, Gantt).
    pub schedule: ScheduleReport,
}

/// The accelerator: configuration + loaded quantized weights.
///
/// Numerics and timing both come from one Algorithm-1 program: the ISA
/// interpreter computes the outputs (bit-identical to the [`quantized`]
/// datapath) and the replay of the same commands gives the cycle count,
/// so a run's outputs are exactly what the RTL would produce and its
/// timing is what the control flow of Algorithm 1 implies.
#[derive(Debug, Clone)]
pub struct Accelerator {
    cfg: AccelConfig,
    mha: Option<QuantMhaResBlock>,
    ffn: Option<QuantFfnResBlock>,
}

impl Accelerator {
    /// Creates an accelerator with empty weight memory.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: AccelConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            mha: None,
            ffn: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Loads quantized MHA ResBlock weights into the weight memory.
    pub fn load_mha(&mut self, block: QuantMhaResBlock) {
        self.mha = Some(block);
    }

    /// Loads quantized FFN ResBlock weights into the weight memory.
    pub fn load_ffn(&mut self, block: QuantFfnResBlock) {
        self.ffn = Some(block);
    }

    /// The loaded MHA block, if any.
    pub fn mha_block(&self) -> Option<&QuantMhaResBlock> {
        self.mha.as_ref()
    }

    /// The loaded FFN block, if any.
    pub fn ffn_block(&self) -> Option<&QuantFfnResBlock> {
        self.ffn.as_ref()
    }

    /// Timing-only schedule of the MHA ResBlock at `s = cfg.s` (no
    /// weights required).
    pub fn schedule_mha(&self) -> ScheduleReport {
        scheduler::schedule_mha(&self.cfg)
    }

    /// Timing-only schedule of the FFN ResBlock at `s = cfg.s`.
    pub fn schedule_ffn(&self) -> ScheduleReport {
        scheduler::schedule_ffn(&self.cfg)
    }

    /// Executes the MHA ResBlock: INT8 inputs in the calibrated input
    /// scales, INT8 output, plus the cycle-accurate report for this
    /// sequence length.
    ///
    /// # Errors
    ///
    /// [`AccelError::WeightsNotLoaded`] without a loaded block;
    /// [`AccelError::SequenceTooLong`] if the input exceeds `cfg.s` rows.
    pub fn run_mha(
        &self,
        xq: &Mat<i8>,
        xkv: &Mat<i8>,
        mask: Option<&Mat<bool>>,
    ) -> Result<(Mat<i8>, RunReport), AccelError> {
        let block = self
            .mha
            .as_ref()
            .ok_or(AccelError::WeightsNotLoaded("MHA"))?;
        self.check_len(xq.rows())?;
        self.check_len(xkv.rows())?;
        let program = isa::mha_program(block.heads(), xkv.rows());
        let out = isa::execute_mha(&program, block, xq, xkv, mask);
        let schedule = isa::replay(&self.cfg, &program, xkv.rows());
        Ok((out, RunReport { schedule }))
    }

    /// Executes the FFN ResBlock.
    ///
    /// # Errors
    ///
    /// [`AccelError::WeightsNotLoaded`] without a loaded block;
    /// [`AccelError::SequenceTooLong`] if the input exceeds `cfg.s` rows.
    pub fn run_ffn(&self, x: &Mat<i8>) -> Result<(Mat<i8>, RunReport), AccelError> {
        let block = self
            .ffn
            .as_ref()
            .ok_or(AccelError::WeightsNotLoaded("FFN"))?;
        self.check_len(x.rows())?;
        let (w1, w2) = block.sublayers();
        let program = isa::ffn_program(w2.weight_q().cols(), w1.weight_q().cols());
        let out = isa::execute_ffn(&program, block, x);
        let schedule = isa::replay(&self.cfg, &program, x.rows());
        Ok((out, RunReport { schedule }))
    }

    fn check_len(&self, s: usize) -> Result<(), AccelError> {
        if s == 0 || s > self.cfg.s {
            return Err(AccelError::SequenceTooLong { s, max: self.cfg.s });
        }
        Ok(())
    }

    /// The calibrated area model for this configuration.
    pub fn area(&self) -> AreaModel {
        AreaModel::new(self.cfg.clone())
    }

    /// Estimated on-chip power at the configured clock.
    pub fn power(&self) -> PowerEstimate {
        estimate_power(&self.area(), &self.cfg)
    }

    /// Renders a self-contained markdown report of this configuration:
    /// timing of both ResBlocks, resource table, data-memory plan and
    /// the power/energy operating point.
    pub fn full_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let cfg = &self.cfg;
        let _ = writeln!(
            out,
            "# Accelerator report: {} (s = {}, {:.0} MHz)\n",
            cfg.model.name,
            cfg.s,
            cfg.clock.as_mhz()
        );

        let mha = self.schedule_mha();
        let ffn = self.schedule_ffn();
        let _ = writeln!(out, "## Timing\n");
        let _ = writeln!(out, "| block | cycles | latency | SA utilization |");
        let _ = writeln!(out, "|---|---|---|---|");
        let _ = writeln!(
            out,
            "| MHA ResBlock | {} | {:.1} us | {:.1}% |",
            mha.cycles.get(),
            mha.latency_us,
            100.0 * mha.sa_utilization
        );
        let _ = writeln!(
            out,
            "| FFN ResBlock | {} | {:.1} us | {:.1}% |",
            ffn.cycles.get(),
            ffn.latency_us,
            100.0 * ffn.sa_utilization
        );

        let area = self.area();
        let _ = writeln!(out, "\n## Resources (Table-II model)\n");
        let _ = writeln!(out, "| module | LUT | FF | BRAM | DSP |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for m in area.table2() {
            let _ = writeln!(
                out,
                "| {} | {:.0} | {:.0} | {:.1} | {:.0} |",
                m.name, m.resources.lut, m.resources.ff, m.resources.bram, m.resources.dsp
            );
        }

        let dm = crate::datamem::plan(cfg);
        let _ = writeln!(
            out,
            "\n## Data memory (URAM)\n\n{} blocks of {} ({:.2} Mbit across {} buffers)",
            dm.total_uram,
            crate::datamem::VU13P_URAM,
            dm.total_bits as f64 / 1e6,
            dm.buffers.len()
        );

        let p = self.power();
        let _ = writeln!(
            out,
            "\n## Power & energy\n\n{:.1} W total ({:.1} dynamic + {:.1} static); \
             MHA {:.2} mJ, FFN {:.2} mJ per inference",
            p.total_w(),
            p.dynamic_w,
            p.static_w,
            crate::area::energy_uj(p.total_w(), mha.latency_us) / 1000.0,
            crate::area::energy_uj(p.total_w(), ffn.latency_us) / 1000.0,
        );
        out
    }
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

    fn tiny_accel() -> (Accelerator, Vec<Mat<f32>>) {
        let model_cfg = ModelConfig::tiny_for_tests();
        let mut rng = StdRng::seed_from_u64(5);
        let mha = MhaResBlock::new(&model_cfg, &mut rng);
        let ffn = FfnResBlock::new(&model_cfg, &mut rng);
        let calib: Vec<Mat<f32>> = (0..4)
            .map(|_| tensor::init::normal(&mut rng, 8, model_cfg.d_model, 1.0))
            .collect();
        let qmha = QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware);
        let qffn = QuantFfnResBlock::from_f32(&ffn, &calib);
        let cfg = AccelConfig {
            model: model_cfg,
            s: 16,
            ..AccelConfig::paper_default()
        };
        let mut accel = Accelerator::new(cfg);
        accel.load_mha(qmha);
        accel.load_ffn(qffn);
        (accel, calib)
    }

    #[test]
    fn run_mha_is_bit_identical_to_datapath() {
        let (accel, calib) = tiny_accel();
        let block = accel.mha_block().unwrap();
        let xq = block.quantize_input_q(&calib[0]);
        let (want, _) = block.forward(&xq, &xq, None);
        let (got, report) = accel.run_mha(&xq, &xq, None).unwrap();
        assert_eq!(got, want);
        assert!(report.schedule.cycles.get() > 0);
    }

    #[test]
    fn run_ffn_is_bit_identical_to_datapath() {
        let (accel, calib) = tiny_accel();
        let block = accel.ffn_block().unwrap();
        let x = block.quantize_input(&calib[1]);
        let (want, _) = block.forward(&x);
        let (got, report) = accel.run_ffn(&x).unwrap();
        assert_eq!(got, want);
        assert!(report.schedule.latency_us > 0.0);
    }

    #[test]
    fn missing_weights_error() {
        let accel = Accelerator::new(AccelConfig::paper_default());
        let x = Mat::<i8>::zeros(4, 512);
        match accel.run_ffn(&x) {
            Err(AccelError::WeightsNotLoaded("FFN")) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(accel.run_mha(&x, &x, None).is_err());
    }

    #[test]
    fn oversized_sequence_error() {
        let (accel, _) = tiny_accel();
        let x = Mat::<i8>::zeros(17, accel.config().model.d_model);
        match accel.run_ffn(&x) {
            Err(AccelError::SequenceTooLong { s: 17, max: 16 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_messages_are_meaningful() {
        let e = AccelError::SequenceTooLong { s: 100, max: 64 };
        assert!(e.to_string().contains("100"));
        let e = AccelError::WeightsNotLoaded("MHA");
        assert!(e.to_string().contains("MHA"));
    }

    #[test]
    fn full_report_contains_every_section() {
        let accel = Accelerator::new(AccelConfig::paper_default());
        let rep = accel.full_report();
        for needle in [
            "# Accelerator report: Transformer-base",
            "## Timing",
            "20998",
            "## Resources",
            "471563",
            "## Data memory",
            "## Power & energy",
            "16.7 W total",
        ] {
            assert!(rep.contains(needle), "missing '{needle}' in report");
        }
    }

    #[test]
    fn paper_schedules_are_available_without_weights() {
        let accel = Accelerator::new(AccelConfig::paper_default());
        assert_eq!(accel.schedule_mha().cycles.get(), 20_998);
        assert_eq!(accel.schedule_ffn().cycles.get(), 35_846);
        let p = accel.power();
        assert!((p.total_w() - 16.7).abs() < 0.1);
    }
}
