//! The layer probes of the traced run. Every traced run reports every
//! per-layer metric of `BENCHMARK.json`:
//!
//! * direct calls into single layers, the same in every workload: the
//!   INT8 GEMM kernels, the quantized decoder's session entry points,
//!   and the front door's framing and admission, each the median of
//!   many timed calls;
//! * for a layer the workload itself does not drive (`serving` outside
//!   `decode-batch` and `prefix-prefill`, the front door outside
//!   `door-open`, the accelerator outside `accel-sim`), a short traced
//!   run, at a fixed seed, of the workload that does drive it.
//!
//! A probe never replaces a metric the workload measured itself.

use crate::report::Report;
use crate::stats::median;
use crate::{accel_sim, decode_batch, door_open, inputs, models};
use frontdoor::{Admission, AdmissionConfig, ClientFrame, Decoder, Submit};
use quantized::incremental::KvArena;
use quantized::QuantSeq2Seq;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tensor::prepack::{matmul_i8_prepacked, PackedI8};

/// Requests in the front door's framing and admission probe.
const DOOR_PROBE_REQUESTS: usize = 2000;

/// Runs every probe `workload`'s traced run needs and adds the metrics
/// it did not measure itself.
pub fn fill(workload: &str, rep: &mut Report) {
    let q = models::build(&models::paper_config(decode_batch::MAX_LEN));
    let mut probe = Report::default();
    let src: Vec<usize> = (0..5).map(|i| 3 + i).collect();
    model_layers(&q, &src, &mut probe);
    let door = inputs::door_trace(crate::PROBE_SEED, DOOR_PROBE_REQUESTS, q.tgt_vocab());
    let submits: Vec<Submit> = door.into_iter().map(|t| t.submit).collect();
    door_layers(&submits, &door_open::admission_config(), &mut probe);
    if !matches!(workload, "decode-batch" | "prefix-prefill") {
        decode_batch::serving_probe(&q, &mut probe);
    }
    drop(q);
    if workload != "door-open" {
        door_open::door_probe(&mut probe);
    }
    if workload != "accel-sim" {
        accel_sim::accel_probe(&mut probe);
    }
    rep.merge_missing(probe);
}

/// Wall time (ns) of each of `n` calls of `f`.
fn time_calls(n: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect()
}

/// One prepacked INT8 GEMM shape: its median time, its operation count
/// and the bytes its operands and result occupy (computed from the
/// shapes, not measured).
fn gemm_probe(rep: &mut Report, label: &str, m: usize, k: usize, n: usize, calls: usize) {
    let mut rng = StdRng::seed_from_u64(0x6E77 ^ (m * k * n) as u64);
    let a = tensor::init::uniform_i8(&mut rng, m, k);
    let b = PackedI8::from_i8(&tensor::init::uniform_i8(&mut rng, k, n));
    let ns = time_calls(calls, || {
        black_box(matmul_i8_prepacked(black_box(&a), black_box(&b)).expect("shapes agree"));
    });
    rep.put(&format!("tensor.{label}_us"), median(&ns) / 1e3, "us");
    rep.put(
        &format!("tensor.{label}_ops"),
        (2 * m * k * n) as f64,
        "ops",
    );
    rep.put(
        &format!("tensor.{label}_bytes"),
        (m * k + k * n + 4 * m * n) as f64,
        "B_computed",
    );
}

/// `tensor.*` and `quantized.*` per-layer metrics on model `q`.
pub fn model_layers(q: &QuantSeq2Seq, src: &[usize], rep: &mut Report) {
    gemm_probe(rep, "gemv_i8", 1, 512, 512, 2000);
    gemm_probe(rep, "gemm_i8_16x512x2048", 16, 512, 2048, 200);
    gemm_probe(rep, "gemm_i8_64x512x512", 64, 512, 512, 200);

    let mut arena = KvArena::for_model(q);
    let ns = time_calls(30, || {
        let mut s = q.start_session(&mut arena, src);
        s.release(&mut arena);
    });
    rep.put("quantized.start_session_ms", median(&ns) / 1e6, "ms");

    // Sixteen sessions 16 tokens deep, each advanced by one token and
    // rolled back, so every timed call sees the same cache lengths.
    let tokens: Vec<usize> = (0..16).map(|i| 3 + i % 60).collect();
    let mut sessions: Vec<_> = (0..16).map(|_| q.start_session(&mut arena, src)).collect();
    {
        let mut refs: Vec<&mut _> = sessions.iter_mut().collect();
        let chunks: Vec<&[usize]> = (0..16).map(|_| &tokens[..]).collect();
        q.prefill_sessions(&mut arena, &mut refs, &chunks);
    }
    let ns = time_calls(40, || {
        let mut refs: Vec<&mut _> = sessions.iter_mut().collect();
        black_box(q.step_sessions(&mut arena, &mut refs, &tokens));
        for s in refs {
            s.rollback_step(&mut arena);
        }
    });
    rep.put("quantized.step_sessions_ms_b16", median(&ns) / 1e6, "ms");
    for mut s in sessions {
        s.release(&mut arena);
    }

    // One 64-row prefill chunk from position 0, rolled back each time.
    let chunk: Vec<usize> = (0..64).map(|i| 3 + (i * 7) % 60).collect();
    let mut s = q.start_session(&mut arena, src);
    let ns = time_calls(20, || {
        black_box(q.prefill_sessions(&mut arena, &mut [&mut s], &[&chunk[..]]));
        s.rollback_rows(&mut arena, chunk.len());
    });
    rep.put(
        "quantized.prefill_sessions_us_per_row",
        median(&ns) / 1e3 / chunk.len() as f64,
        "us",
    );
    s.release(&mut arena);
}

/// `door.frame_*` and `door.admission_offer_ns` over a request trace.
pub fn door_layers(trace: &[Submit], admission: &AdmissionConfig, rep: &mut Report) {
    let msgs: Vec<ClientFrame> = trace.iter().cloned().map(ClientFrame::Submit).collect();
    let mut i = 0;
    let ns = time_calls(msgs.len(), || {
        black_box(frontdoor::frame::encode_client(black_box(&msgs[i])));
        i += 1;
    });
    rep.put("door.frame_encode_ns", median(&ns), "ns");

    let frames: Vec<Vec<u8>> = msgs.iter().map(frontdoor::frame::encode_client).collect();
    let mut dec = Decoder::new();
    let mut i = 0;
    let ns = time_calls(frames.len(), || {
        dec.feed(&frames[i]);
        black_box(dec.next_client().expect("well-formed frame"));
        i += 1;
    });
    rep.put("door.frame_decode_ns", median(&ns), "ns");

    // Offers against a fresh controller, popping after each so staging
    // never fills: the accept path the door takes at steady load.
    let mut adm = Admission::new(admission.clone());
    let mut ns = Vec::with_capacity(trace.len());
    for s in trace.iter().cloned() {
        let t0 = Instant::now();
        let accepted = adm.offer(s, Instant::now()).is_ok();
        ns.push(t0.elapsed().as_nanos() as f64);
        black_box(accepted);
        adm.pop();
    }
    rep.put("door.admission_offer_ns", median(&ns), "ns");
}
