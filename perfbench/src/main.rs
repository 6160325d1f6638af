//! Seeded end-to-end and per-layer benchmark of the transformer-accel
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decode-batch|prefix-prefill|door-open|accel-sim> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks the program's outputs, and prints as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end metrics
//! of `BENCHMARK.json`; with `--trace 1` they are its per-layer
//! metrics, taken from spans the benchmark records around its calls
//! into each layer (written to `perfbench/traces/`) and from the layer
//! probes. Every workload prints every metric the manifest lists for
//! the mode, and a run that cannot exits with an error instead. See
//! `perfbench/README.md` for the metric definitions and the per-layer
//! to end-to-end map.

mod accel_sim;
mod decode_batch;
mod door_open;
mod host;
mod inputs;
mod latency;
mod manifest;
mod models;
mod prefix_prefill;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", self.workload, self.seed))
    }

    /// The traced run first measures an untraced phase of a quarter of
    /// the window, then the traced phase over the whole window; the
    /// difference between the two is the tracing overhead.
    pub fn baseline(&self) -> Duration {
        self.seconds / 4
    }
}

/// Writes the traced run's spans (with a header naming the workload,
/// seed and thread count) and notes where they went.
pub fn save_trace(args: &Args, tracer: &trace::Tracer, rep: &mut Report) {
    let path = args.trace_path();
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"accel_threads\":{},\"spans\":{}}}",
        args.workload,
        args.seed,
        tensor::par::threads(),
        tracer.spans().len()
    );
    match tracer.write_jsonl(&path, &header) {
        Ok(()) => rep.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => rep.note(format!("trace not written to {}: {e}", path.display())),
    }
}

/// Seed of the inputs of every layer probe (see [`probes`]): fixed, so
/// that probe metrics compare across workloads and seeds.
pub const PROBE_SEED: u64 = 0x9E0B;

/// Kernel worker threads (the in-process equivalent of
/// `ACCEL_THREADS=1`).
const WORKER_THREADS: usize = 1;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["decode-batch", "prefix-prefill", "door-open", "accel-sim"];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // One kernel worker thread in every workload: on a small shared host
    // a second worker gains nothing for these shapes and exposes every
    // parallel section to the other vCPU's stolen time.
    tensor::par::set_thread_override(Some(WORKER_THREADS));
    let mut rep = Report::default();
    match args.workload.as_str() {
        "decode-batch" => decode_batch::run(&args, &mut rep),
        "prefix-prefill" => prefix_prefill::run(&args, &mut rep),
        "door-open" => door_open::run(&args, &mut rep),
        "accel-sim" => accel_sim::run(&args, &mut rep),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (one of {})",
                WORKLOADS.join(", ")
            );
            return ExitCode::from(2);
        }
    }
    if args.trace {
        probes::fill(&args.workload, &mut rep);
    } else {
        match models::peak_rss_mb() {
            Some(mb) => rep.put("peak_rss_mb", mb, "MB"),
            None => rep.note("peak_rss_mb omitted: /proc/self/status unreadable".into()),
        }
    }
    if let Err(e) = manifest::metrics(args.trace).and_then(|want| rep.conform(&want)) {
        for note in &rep.notes {
            eprintln!("# {note}");
        }
        eprintln!("perfbench: the result does not match BENCHMARK.json: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} accel_threads={} ACCEL_THREADS={} \
         available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        tensor::par::threads(),
        std::env::var("ACCEL_THREADS").unwrap_or_else(|_| "unset".into()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &rep.notes {
        println!("# {note}");
    }
    println!("{}", rep.json());
    ExitCode::SUCCESS
}
