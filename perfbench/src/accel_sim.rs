//! `accel-sim`: closed loop of encoder-layer jobs on the paper's
//! accelerator model (`AccelConfig::paper_default()`, `s × 64` array).
//! Each job lowers, schedules and runs the Algorithm-1 ISA for the MHA
//! and FFN ResBlocks. A fixed subset also runs through the register-true
//! PE-grid simulation: the first `s = 64` job, and the `s = 8` job of
//! every pass (one job per length `8, 16, …, 64`).

use crate::host::HostSpeed;
use crate::inputs::{self, AccelJob};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{models, Args, Report};
use accel::engine::{ArrayEngine, EngineStats};
use accel::{Backend, PaperBackend};
use graph::{ffn_graph, mha_graph, Graph, GraphConfig};
use quantized::{QuantFfnResBlock, QuantMhaResBlock, SoftmaxMode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};
use tensor::Mat;
use transformer::ffn::FfnResBlock;
use transformer::mha::MhaResBlock;

/// Sequence length whose job runs register-true in every pass; its
/// runs give `accel.regtrue_cycles_per_s`.
const REGISTER_TRUE_S: usize = inputs::ACCEL_S_MIN;
/// Simulated cycles of the MHA and FFN ResBlocks at `s = 64` on the
/// paper's design point (Algorithm 1); any other count is a failure.
const PAPER_CYCLES_S64: (u64, u64) = (20998, 35846);
/// Jobs the accelerator probe runs: two passes.
const PROBE_JOBS: usize = 2 * inputs::ACCEL_PASS;

/// The paper design point with its quantized ResBlocks and graphs.
struct Sim {
    backend: PaperBackend,
    mha: QuantMhaResBlock,
    ffn: QuantFfnResBlock,
    mha_graph: Graph,
    ffn_graph: Graph,
}

/// Builds FP32 ResBlocks at the paper's shape, calibrates and quantizes
/// them, and warms the lowering and ISA interpreter on a short job.
fn setup() -> Sim {
    let backend = PaperBackend::paper_default();
    let model = backend.config().model.clone();
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    let mha = MhaResBlock::new(&model, &mut rng);
    let ffn = FfnResBlock::new(&model, &mut rng);
    let calib: Vec<Mat<f32>> = (0..3)
        .map(|_| tensor::init::normal(&mut rng, inputs::ACCEL_S_MAX, model.d_model, 1.0))
        .collect();
    let gcfg = GraphConfig {
        d_model: model.d_model,
        d_ff: model.d_ff,
        h: model.h,
    };
    let sim = Sim {
        mha: QuantMhaResBlock::from_f32(&mha, &calib, &calib, SoftmaxMode::Hardware),
        ffn: QuantFfnResBlock::from_f32(&ffn, &calib),
        mha_graph: mha_graph(&gcfg),
        ffn_graph: ffn_graph(&gcfg),
        backend,
    };
    let warm = tensor::init::normal(&mut rng, inputs::ACCEL_S_MIN, model.d_model, 1.0);
    run_job(
        &sim,
        &warm,
        &mut Tracer::new(false),
        None,
        &mut Timings::default(),
    );
    sim
}

/// Host times of the simulator's parts, one sample per call.
#[derive(Default)]
struct Timings {
    lower_us: Vec<f64>,
    schedule_us: Vec<f64>,
    isa_mha_ms: Vec<f64>,
    isa_ffn_ms: Vec<f64>,
    /// Host seconds on the ISA path (lower + schedule + run) in the
    /// current pass over the job set.
    isa_s: f64,
    /// ResBlocks run in the current pass.
    blocks: usize,
}

impl Timings {
    /// Records one ResBlock's lowering, scheduling and run times
    /// (seconds); the caller files the run time under its block kind.
    fn record(&mut self, lower: f64, sched: f64, run: f64) {
        self.lower_us.push(lower * 1e6);
        self.schedule_us.push(sched * 1e6);
        self.isa_s += lower + sched + run;
        self.blocks += 1;
    }
}

/// What one job produced.
struct JobOut {
    xq: Mat<i8>,
    xf: Mat<i8>,
    mha_out: Mat<i8>,
    ffn_out: Mat<i8>,
    mha_cycles: u64,
    ffn_cycles: u64,
}

/// Runs `f` inside a span and returns its result with the elapsed
/// host seconds.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let r = tracer.span(name, parent, None, f);
    (r, t0.elapsed().as_secs_f64())
}

/// One encoder layer through the ISA path: lower, schedule and run the
/// MHA ResBlock, then the FFN ResBlock on its output.
fn run_job(
    sim: &Sim,
    x: &Mat<f32>,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    t: &mut Timings,
) -> JobOut {
    let s = x.rows();
    let be = &sim.backend;
    let xq = sim.mha.quantize_input_q(x);
    let (mha_prog, lower) = timed(tracer, "accel.lower_mha", parent, || {
        be.lower_mha(&sim.mha_graph, s)
    });
    let (mha_cycles, sched) = timed(tracer, "accel.cycles", parent, || be.cycles(&mha_prog, s));
    let (mha_out, run) = timed(tracer, "accel.run_mha", parent, || {
        be.run_mha(&mha_prog, &sim.mha, &xq, &xq, None)
    });
    t.record(lower, sched, run);
    t.isa_mha_ms.push(run * 1e3);

    let xf = sim.ffn.quantize_input(&sim.mha.dequantize_output(&mha_out));
    let (ffn_prog, lower) = timed(tracer, "accel.lower_ffn", parent, || {
        be.lower_ffn(&sim.ffn_graph)
    });
    let (ffn_cycles, sched) = timed(tracer, "accel.cycles", parent, || be.cycles(&ffn_prog, s));
    let (ffn_out, run) = timed(tracer, "accel.run_ffn", parent, || {
        be.run_ffn(&ffn_prog, &sim.ffn, &xf)
    });
    t.record(lower, sched, run);
    t.isa_ffn_ms.push(run * 1e3);
    JobOut {
        xq,
        xf,
        mha_out,
        ffn_out,
        mha_cycles,
        ffn_cycles,
    }
}

/// Register-true results of one job.
struct RegisterTrue {
    mha_ms: f64,
    ffn_ms: f64,
    stats: EngineStats,
}

/// Runs a job's ResBlocks through the cycle-by-cycle PE-grid simulation
/// and checks both outputs against the ISA outputs.
fn register_true(
    sim: &Sim,
    job: &JobOut,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    rep: &mut Report,
) -> RegisterTrue {
    let mut engine = ArrayEngine::register_true(inputs::ACCEL_S_MAX);
    let (mha, mha_s) = timed(tracer, "accel.regtrue_mha", parent, || {
        engine.execute_mha(&sim.mha, &job.xq, &job.xq, None)
    });
    let (ffn, ffn_s) = timed(tracer, "accel.regtrue_ffn", parent, || {
        engine.execute_ffn(&sim.ffn, &job.xf)
    });
    if mha.out != job.mha_out || ffn.out != job.ffn_out {
        rep.fail(format!(
            "register-true output differs from the ISA output at s = {}",
            job.xq.rows()
        ));
    }
    let mut stats = mha.stats;
    stats.merge(&ffn.stats);
    RegisterTrue {
        mha_ms: mha_s * 1e3,
        ffn_ms: ffn_s * 1e3,
        stats,
    }
}

/// One measured phase.
struct Phase {
    t: Timings,
    jobs: u64,
    /// ResBlocks per ISA-path host second of each whole pass, with the
    /// pass's interval.
    pass_blocks_per_s: Vec<(Instant, Instant, f64)>,
    /// Host time of each job on the ISA path (lower, schedule and run
    /// of both ResBlocks, in ms), with when it ended.
    job_ms: Vec<(Instant, f64)>,
    cycles_s64: Option<(u64, u64)>,
    /// The register-true run of the `s = 64` job.
    register_true_s64: Option<RegisterTrue>,
    /// Simulated cycles per host second of each register-true run at
    /// [`REGISTER_TRUE_S`], with its interval.
    register_true_cycles_per_s: Vec<(Instant, Instant, f64)>,
    host: HostSpeed,
}

/// Runs jobs until `window` has passed, at most `max_jobs` of them.
fn measure(
    sim: &Sim,
    jobs: &[AccelJob],
    window: Duration,
    max_jobs: usize,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Phase {
    let mut t = Timings::default();
    let (mut n, mut cycles_s64, mut s64) = (0u64, None, None);
    let (mut pass_blocks_per_s, mut regtrue_rate) = (Vec::new(), Vec::new());
    let mut job_ms = Vec::new();
    let mut host = HostSpeed::default();
    let start = Instant::now();
    let mut pass_start = start;
    for (i, job) in jobs.iter().cycle().take(max_jobs).enumerate() {
        if i > 0 && start.elapsed() >= window {
            break;
        }
        host.tick();
        let span = tracer.open("client.job", None, Some(i as u64));
        let isa_s = t.isa_s;
        let out = run_job(sim, &job.x, tracer, span, &mut t);
        job_ms.push((Instant::now(), (t.isa_s - isa_s) * 1e3));
        n += 1;
        let (want_mha, _) = sim.mha.forward(&out.xq, &out.xq, None);
        let (want_ffn, _) = sim.ffn.forward(&out.xf);
        if out.mha_out != want_mha || out.ffn_out != want_ffn {
            rep.fail(format!(
                "ISA output differs from the reference at s = {}",
                job.s
            ));
        }
        if job.s == inputs::ACCEL_S_MAX {
            cycles_s64 = Some((out.mha_cycles, out.ffn_cycles));
            if cycles_s64 != Some(PAPER_CYCLES_S64) {
                rep.fail(format!(
                    "s = 64 takes {} MHA and {} FFN cycles, not {} and {}",
                    out.mha_cycles, out.ffn_cycles, PAPER_CYCLES_S64.0, PAPER_CYCLES_S64.1
                ));
            }
            if s64.is_none() {
                s64 = Some(register_true(sim, &out, tracer, span, rep));
            }
        }
        if job.s == REGISTER_TRUE_S {
            host.sample();
            let from = Instant::now();
            let r = register_true(sim, &out, tracer, span, rep);
            let rate = r.stats.isolated_cycles.get() as f64 / ((r.mha_ms + r.ffn_ms) / 1e3);
            regtrue_rate.push((from, Instant::now(), rate));
            host.sample();
        }
        tracer.close(span);
        if (i + 1) % inputs::ACCEL_PASS == 0
            || pass_blocks_per_s.is_empty() && start.elapsed() >= window
        {
            let now = Instant::now();
            pass_blocks_per_s.push((pass_start, now, t.blocks as f64 / t.isa_s));
            (t.blocks, t.isa_s, pass_start) = (0, 0.0, now);
        }
    }
    Phase {
        t,
        jobs: n,
        pass_blocks_per_s,
        job_ms,
        cycles_s64,
        register_true_s64: s64,
        register_true_cycles_per_s: regtrue_rate,
        host,
    }
}

/// The traced run's `accel.*` metrics.
fn layer_metrics(rep: &mut Report, traced: &Phase) {
    rep.put("accel.lower_us", median(&traced.t.lower_us), "us");
    rep.put("accel.schedule_us", median(&traced.t.schedule_us), "us");
    rep.put("accel.isa_mha_ms", median(&traced.t.isa_mha_ms), "ms");
    rep.put("accel.isa_ffn_ms", median(&traced.t.isa_ffn_ms), "ms");
    if let Some(r) = &traced.register_true_s64 {
        rep.put("accel.regtrue_mha_ms", r.mha_ms, "ms");
        rep.put("accel.regtrue_ffn_ms", r.ffn_ms, "ms");
        rep.put("accel.gemm_passes", r.stats.gemm_passes as f64, "count");
        rep.put("accel.macs", r.stats.macs as f64, "count");
        let pes = (inputs::ACCEL_S_MAX * accel::config::AccelConfig::SA_COLS) as u64;
        rep.put(
            "accel.sa_utilization",
            r.stats.array_utilization(pes),
            "frac",
        );
    }
    if let Some((mha, ffn)) = traced.cycles_s64 {
        rep.put("accel.cycles_mha_s64", mha as f64, "count");
        rep.put("accel.cycles_ffn_s64", ffn as f64, "count");
    }
    if !traced.register_true_cycles_per_s.is_empty() {
        rep.put_rate(
            "accel.regtrue_cycles_per_s",
            &traced.register_true_cycles_per_s,
            &traced.host,
            "1/s",
        );
    }
}

/// The accelerator's probe for workloads that do not drive it: two
/// traced passes of this workload's jobs at a fixed seed.
pub fn accel_probe(rep: &mut Report) {
    let sim = setup();
    let jobs = inputs::accel_jobs(crate::PROBE_SEED, sim.backend.config().model.d_model);
    let p = measure(
        &sim,
        &jobs,
        Duration::MAX,
        PROBE_JOBS,
        &mut Tracer::new(true),
        rep,
    );
    layer_metrics(rep, &p);
    rep.note(format!("accel probe: {} jobs", p.jobs));
    rep.attempted += p.jobs;
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) {
    let (sim, setups) = models::timed_setups(setup);
    let jobs = inputs::accel_jobs(args.seed, sim.backend.config().model.d_model);
    let blocks_per_s = |p: &Phase| median(&p.host.scale_rates(&p.pass_blocks_per_s));
    let phase = if args.trace {
        let plain = measure(
            &sim,
            &jobs,
            args.baseline(),
            usize::MAX,
            &mut Tracer::new(false),
            rep,
        );
        let mut tracer = Tracer::new(true);
        let traced = measure(&sim, &jobs, args.seconds, usize::MAX, &mut tracer, rep);
        rep.put(
            "trace.overhead_pct",
            (blocks_per_s(&plain) / blocks_per_s(&traced) - 1.0) * 100.0,
            "%",
        );
        layer_metrics(rep, &traced);
        crate::save_trace(args, &tracer, rep);
        rep.attempted += plain.jobs;
        traced
    } else {
        let p = measure(
            &sim,
            &jobs,
            args.seconds,
            usize::MAX,
            &mut Tracer::new(false),
            rep,
        );
        // Throughput is bit-exact ResBlocks per host second on the ISA
        // path; latency is one job's host time on that path. Jobs come
        // in eight sizes, so an upper percentile falls on the edge
        // between two sizes and jumps between them; only the median is
        // reported.
        rep.put_setup(&setups);
        rep.put_rate("throughput_per_s", &p.pass_blocks_per_s, &p.host, "1/s");
        rep.put_latency("latency_p50_ms", &p.job_ms, &p.host, 50.0, "ms");
        if let Some((mha, ffn)) = p.cycles_s64 {
            rep.note(format!("cycles at s = 64: MHA {mha}, FFN {ffn}"));
        }
        p
    };
    rep.note(format!(
        "samples: {} jobs in {} whole passes, {} register-true runs at s = {REGISTER_TRUE_S} \
         (+1 at s = 64), {} set-ups",
        phase.jobs,
        phase.pass_blocks_per_s.len(),
        phase.register_true_cycles_per_s.len(),
        setups.runs.len()
    ));
    rep.attempted += phase.jobs;
}
