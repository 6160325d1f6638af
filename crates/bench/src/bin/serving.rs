//! E21 — overload behaviour of the TCP front door.
//!
//! Drives the real network stack (TCP loopback, framed protocol,
//! admission control, continuous batching engine) with an open-loop
//! Poisson workload at a sweep of offered loads around the measured
//! capacity knee, and records what a serving system is judged on:
//!
//! * TTFT (submit → first streamed token) p50/p99 per offered load,
//! * per-token latency p50/p99 per offered load,
//! * goodput (completed requests/s) and shed rate per offered load,
//! * the overload guarantee: goodput at 2× the knee must hold at
//!   ≥ 70% of peak goodput — load shedding, not collapse.
//!
//! Writes `results/BENCH_serving.json`.

use bench_harness::stats::percentile;
use bench_harness::{render_table, write_json};
use frontdoor::{
    AdmissionConfig, Arrival, Client, DoorConfig, FrontDoor, ServerFrame, Workload, WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use serving::EngineConfig;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use transformer::config::ModelConfig;
use transformer::model::Seq2SeqTransformer;
use transformer::tasks::{Task, TaskGen};

const MAX_NEW: u32 = 8;
const SWEEP_REQUESTS: usize = 120;
const PROBE_REQUESTS: usize = 96;
const MAX_BATCH: usize = 8;

#[derive(Serialize)]
struct LoadPoint {
    offered_rps: f64,
    offered_over_knee: f64,
    submitted: usize,
    completed: usize,
    shed: usize,
    goodput_rps: f64,
    ttft_p50_ms: f64,
    ttft_p99_ms: f64,
    per_token_p50_ms: f64,
    per_token_p99_ms: f64,
}

#[derive(Serialize)]
struct ServingBench {
    model: String,
    d_model: usize,
    n_layers: usize,
    max_batch: usize,
    max_new: u32,
    requests_per_point: usize,
    knee_rps: f64,
    peak_goodput_rps: f64,
    goodput_at_2x_knee_rps: f64,
    goodput_retention_at_2x: f64,
    points: Vec<LoadPoint>,
}

fn build_model() -> (quantized::QuantSeq2Seq, ModelConfig) {
    let cfg = ModelConfig {
        name: "Transformer-base-2L-serving".into(),
        d_model: 64,
        d_ff: 256,
        h: 8,
        n_layers: 2,
        vocab: 64,
        max_len: 64,
    };
    let mut rng = StdRng::seed_from_u64(0xE21_5EED);
    let fp32 = Seq2SeqTransformer::new(&cfg, &mut rng);
    let gen = TaskGen::new(Task::Reverse, cfg.vocab, 3, 6);
    let calib = gen.corpus(4, &mut StdRng::seed_from_u64(0xE21_CA11));
    let q = quantized::QuantSeq2Seq::from_trained(&fp32, &calib, quantized::SoftmaxMode::Hardware);
    (q, cfg)
}

fn door_config() -> DoorConfig {
    DoorConfig {
        engine: EngineConfig {
            ignore_eos: true, // constant work per request
            ..EngineConfig::with_max_batch(MAX_BATCH)
        },
        admission: AdmissionConfig {
            max_buffered: 2 * MAX_BATCH,
            // Quotas out of the way: this experiment studies the
            // bounded buffer, not tenant contracts.
            bucket_capacity: 1e12,
            bucket_refill_per_sec: 1e12,
            ..AdmissionConfig::default()
        },
        idle_timeout: Duration::from_secs(30),
        ..DoorConfig::default()
    }
}

/// Runs `body` against a fresh door; returns the door's final state.
fn with_door<R>(
    model: &quantized::QuantSeq2Seq,
    body: impl FnOnce(SocketAddr) -> R,
) -> (FrontDoor<'_>, R) {
    let mut door = FrontDoor::new(model, door_config()).expect("bind");
    let addr = door.local_addr().expect("addr");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handle = s.spawn(|| {
            door.run(&stop).expect("event loop");
            door
        });
        let out = body(addr);
        stop.store(true, Ordering::Relaxed);
        (handle.join().expect("door thread"), out)
    })
}

/// Closed-loop capacity probe: saturate the engine with a standing
/// backlog and measure drain throughput — the knee of the system.
fn probe_knee(model: &quantized::QuantSeq2Seq, vocab: usize) -> f64 {
    let (_door, rps) = with_door(model, |addr| {
        let mut wl = Workload::new(
            WorkloadConfig {
                arrival: Arrival::Poisson { rate_per_sec: 1e9 }, // all at t=0
                max_new: (MAX_NEW, MAX_NEW),
                ..WorkloadConfig::default()
            },
            vocab,
            vocab,
            0xE21_0001,
        );
        let mut client = Client::connect(addr).expect("connect");
        let t0 = Instant::now();
        let mut settled = 0usize;
        let mut in_flight = 0usize;
        let mut trace = wl.trace(PROBE_REQUESTS).into_iter();
        // Keep the admission buffer full without tripping the shed
        // policy: a closed loop with a window the size of the buffer.
        let window = 2 * MAX_BATCH;
        loop {
            while in_flight < window {
                let Some(t) = trace.next() else { break };
                client.submit(t.submit).expect("submit");
                in_flight += 1;
            }
            if settled == PROBE_REQUESTS {
                break;
            }
            match client
                .recv(Duration::from_secs(60))
                .expect("recv")
                .expect("probe timeout")
            {
                ServerFrame::Done { .. } => {
                    settled += 1;
                    in_flight -= 1;
                }
                ServerFrame::Reject { code, .. } => {
                    panic!("probe shed a windowed request: {code:?}")
                }
                ServerFrame::Token { .. } => {}
            }
        }
        PROBE_REQUESTS as f64 / t0.elapsed().as_secs_f64()
    });
    rps
}

/// One open-loop point: Poisson arrivals at `rate` req/s, measured at
/// the client.
fn run_point(model: &quantized::QuantSeq2Seq, vocab: usize, rate: f64, knee: f64) -> LoadPoint {
    let (_door, point) = with_door(model, |addr| {
        let mut wl = Workload::new(
            WorkloadConfig {
                arrival: Arrival::Poisson { rate_per_sec: rate },
                max_new: (MAX_NEW, MAX_NEW),
                ..WorkloadConfig::default()
            },
            vocab,
            vocab,
            0xE21_0000 ^ rate.to_bits(),
        );
        let trace = wl.trace(SWEEP_REQUESTS);
        let mut client = Client::connect(addr).expect("connect");
        let t0 = Instant::now();

        // Open loop: a sender thread honours the trace timestamps no
        // matter how the server is doing; the receiver records TTFT
        // and completion times.
        let n = trace.len();
        let (mut submit_at, mut first_tok, mut done_at) =
            (vec![None; n], vec![None::<Instant>; n], vec![None; n]);
        let mut tokens_of = vec![0u32; n];
        let mut shed = 0usize;
        std::thread::scope(|s| {
            let sender = {
                let stream = client.try_clone_stream().expect("clone stream");
                s.spawn(move || {
                    let mut stream = stream;
                    let mut sent = Vec::with_capacity(n);
                    for t in &trace {
                        let due = t0 + Duration::from_millis(t.at_ms);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let idx = t.submit.id as usize;
                        use std::io::Write;
                        let frame = frontdoor::frame::encode_client(
                            &frontdoor::ClientFrame::Submit(t.submit.clone()),
                        );
                        sent.push((idx, Instant::now()));
                        stream.write_all(&frame).expect("send");
                    }
                    sent
                })
            };
            let mut settled = 0usize;
            while settled < n {
                match client
                    .recv(Duration::from_secs(60))
                    .expect("recv")
                    .expect("sweep timeout")
                {
                    ServerFrame::Token { id, .. } => {
                        let idx = id as usize;
                        if first_tok[idx].is_none() {
                            first_tok[idx] = Some(Instant::now());
                        }
                        tokens_of[idx] += 1;
                    }
                    ServerFrame::Done { id, .. } => {
                        done_at[id as usize] = Some(Instant::now());
                        settled += 1;
                    }
                    ServerFrame::Reject { .. } => {
                        shed += 1;
                        settled += 1;
                    }
                }
            }
            for (idx, at) in sender.join().expect("sender") {
                submit_at[idx] = Some(at);
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();

        let mut ttft: Vec<f64> = (0..n)
            .filter_map(|i| {
                Some(
                    first_tok[i]?
                        .saturating_duration_since(submit_at[i]?)
                        .as_secs_f64()
                        * 1e3,
                )
            })
            .collect();
        let mut per_token: Vec<f64> = (0..n)
            .filter_map(|i| {
                if tokens_of[i] < 2 {
                    return None;
                }
                let span = done_at[i]?.saturating_duration_since(first_tok[i]?);
                Some(span.as_secs_f64() * 1e3 / (tokens_of[i] - 1) as f64)
            })
            .collect();
        let completed = n - shed;
        LoadPoint {
            offered_rps: rate,
            offered_over_knee: rate / knee,
            submitted: n,
            completed,
            shed,
            goodput_rps: completed as f64 / elapsed,
            ttft_p50_ms: percentile(&mut ttft, 50.0),
            ttft_p99_ms: percentile(&mut ttft, 99.0),
            per_token_p50_ms: percentile(&mut per_token, 50.0),
            per_token_p99_ms: percentile(&mut per_token, 99.0),
        }
    });
    point
}

fn main() {
    let (q, cfg) = build_model();
    println!(
        "E21: serving front door ({}; d_model={}, {} layers, max_batch={MAX_BATCH})",
        cfg.name, cfg.d_model, cfg.n_layers
    );

    let knee = probe_knee(&q, cfg.vocab);
    println!("capacity knee (closed-loop drain): {knee:.1} req/s");

    let multipliers = [0.3, 0.6, 0.9, 1.2, 2.0, 3.0];
    let points: Vec<LoadPoint> = multipliers
        .iter()
        .map(|&m| {
            let p = run_point(&q, cfg.vocab, m * knee, knee);
            println!(
                "  {:>5.2}x knee: goodput {:>7.1}/s, shed {:>3}, ttft p50 {:>7.2} ms p99 {:>8.2} ms",
                p.offered_over_knee, p.goodput_rps, p.shed, p.ttft_p50_ms, p.ttft_p99_ms
            );
            p
        })
        .collect();

    let peak_goodput = points.iter().map(|p| p.goodput_rps).fold(0.0, f64::max);
    let at_2x = points
        .iter()
        .filter(|p| p.offered_over_knee >= 2.0)
        .map(|p| p.goodput_rps)
        .fold(0.0, f64::max);
    let retention = at_2x / peak_goodput;

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.offered_over_knee),
                format!("{:.1}", p.offered_rps),
                format!("{}", p.completed),
                format!("{}", p.shed),
                format!("{:.1}", p.goodput_rps),
                format!("{:.2}", p.ttft_p50_ms),
                format!("{:.2}", p.ttft_p99_ms),
                format!("{:.3}", p.per_token_p50_ms),
                format!("{:.3}", p.per_token_p99_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "load/knee",
                "offered/s",
                "done",
                "shed",
                "goodput/s",
                "ttft p50 ms",
                "ttft p99 ms",
                "tok p50 ms",
                "tok p99 ms",
            ],
            &rows,
        )
    );
    println!(
        "goodput retention at >=2x knee: {:.0}% of peak ({:.1}/{:.1} req/s)",
        retention * 100.0,
        at_2x,
        peak_goodput
    );

    // The overload guarantee this whole subsystem exists for: past
    // saturation the door sheds load and keeps serving, it does not
    // collapse.
    assert!(
        retention >= 0.70,
        "goodput at 2x knee must hold >= 70% of peak (got {:.0}%)",
        retention * 100.0
    );

    let report = ServingBench {
        model: cfg.name.clone(),
        d_model: cfg.d_model,
        n_layers: cfg.n_layers,
        max_batch: MAX_BATCH,
        max_new: MAX_NEW,
        requests_per_point: SWEEP_REQUESTS,
        knee_rps: knee,
        peak_goodput_rps: peak_goodput,
        goodput_at_2x_knee_rps: at_2x,
        goodput_retention_at_2x: retention,
        points,
    };
    write_json("BENCH_serving", &report);
    println!("wrote results/BENCH_serving.json");
}
