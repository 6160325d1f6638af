//! `door-open`: open loop over TCP loopback into the `FrontDoor` on a
//! small model. One client thread sends a seeded bursty schedule at a
//! fixed absolute mean rate over one connection and times every request
//! from when it was due; the door runs its event loop on a second
//! thread with one worker (`ACCEL_THREADS=1`).

use crate::decode_batch::check_greedy;
use crate::host::HostSpeed;
use crate::inputs;
use crate::latency::TokenLog;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{models, Args, Report};
use frontdoor::frame::encode_client;
use frontdoor::poll::Poller;
use frontdoor::{
    AdmissionConfig, Client, ClientFrame, DoorConfig, DoorStats, FrontDoor, ServerFrame, Timed,
};
use quantized::QuantSeq2Seq;
use serving::{EngineConfig, FinishReason, ServingStats};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Engine slots behind the door.
const MAX_BATCH: usize = 8;
/// Time-to-first-token limit of the service-level objective (ms), on
/// the client's clock.
pub const TTFT_SLO_MS: f64 = 20.0;
/// Limit on the largest gap between two tokens of a request (ms).
pub const ITL_SLO_MS: f64 = 10.0;
/// Every this-many-th request is a canary checked against offline
/// greedy decoding.
const CANARY_EVERY: u64 = 16;
/// Longest the client waits for stragglers after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

/// The door under test. Quotas and the staging buffer are large enough
/// that no request is refused at this load, even when a burst meets a
/// stalled event loop.
fn door_config() -> DoorConfig {
    DoorConfig {
        engine: EngineConfig {
            ignore_eos: true,
            prefix_cache_bytes: 0,
            max_queue: 0,
            ..EngineConfig::with_max_batch(MAX_BATCH)
        },
        admission: admission_config(),
        idle_timeout: Duration::from_secs(60),
        ..DoorConfig::default()
    }
}

pub fn admission_config() -> AdmissionConfig {
    AdmissionConfig {
        max_buffered: 16 * MAX_BATCH,
        bucket_capacity: 4096.0,
        bucket_refill_per_sec: 8192.0,
        tenant_buckets: vec![(2, 2048.0, 4096.0)],
    }
}

/// One measured phase.
struct Phase {
    wall_s: f64,
    log: TokenLog,
    slo_ok: usize,
    sent: usize,
    send_lag_ms: Vec<f64>,
    busy_frac: f64,
    door: DoorStats,
    engine: ServingStats,
    host: HostSpeed,
}

/// Runs the door's event loop until `stop`, timing the calls made while
/// it had work.
fn serve_door(
    door: &mut FrontDoor<'_>,
    stop: &AtomicBool,
    tracer: &mut Tracer,
    host: &mut HostSpeed,
) -> Duration {
    let mut busy = Duration::ZERO;
    while !stop.load(Ordering::Relaxed) {
        host.tick();
        let working = !door.idle();
        let t0 = Instant::now();
        if working {
            tracer.span("door.poll_once", None, None, || door.poll_once())
        } else {
            door.poll_once()
        }
        .expect("door event loop");
        if working {
            busy += t0.elapsed();
        }
    }
    busy
}

fn measure(q: &QuantSeq2Seq, trace: &[Timed], tracer: &mut Tracer, rep: &mut Report) -> Phase {
    let mut door = FrontDoor::new(q, door_config()).expect("bind a loopback port");
    let addr = door.local_addr().expect("bound address");
    let stop = AtomicBool::new(false);
    let mut door_tracer = tracer.fork();
    let mut door_host = HostSpeed::default();
    let by_id: HashMap<u64, &Timed> = trace.iter().map(|t| (t.submit.id, t)).collect();
    let (busy, mut phase) = std::thread::scope(|s| {
        let door_thread =
            s.spawn(|| serve_door(&mut door, &stop, &mut door_tracer, &mut door_host));
        let phase = drive(addr, trace, &by_id, q, tracer, rep);
        stop.store(true, Ordering::Relaxed);
        (door_thread.join().expect("door thread"), phase)
    });
    tracer.join(door_tracer);
    phase.host.absorb(door_host);
    if door.kv_bytes_in_use() != 0 {
        rep.fail(format!(
            "{} KV bytes still in use after the run",
            door.kv_bytes_in_use()
        ));
    }
    Phase {
        busy_frac: busy.as_secs_f64() / phase.wall_s,
        door: door.stats,
        engine: door.engine_stats(),
        ..phase
    }
}

/// Writes all of `buf` to a non-blocking socket.
fn send_all(tx: &mut TcpStream, buf: &[u8]) -> io::Result<()> {
    let mut off = 0;
    while off < buf.len() {
        match tx.write(&buf[off..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => off += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                std::hint::spin_loop()
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The client: sends each request when due, reads frames in between,
/// and judges every completion. The socket is non-blocking and waits go
/// through epoll, whose wake-up on arrival is immediate, so neither a
/// send nor a token's arrival time waits on a socket-timeout tick.
fn drive(
    addr: std::net::SocketAddr,
    trace: &[Timed],
    by_id: &HashMap<u64, &Timed>,
    q: &QuantSeq2Seq,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> Phase {
    let mut client = Client::connect(addr).expect("connect to the door");
    let mut tx = client.try_clone_stream().expect("clone the client socket");
    tx.set_nonblocking(true)
        .expect("non-blocking client socket");
    let mut poller = Poller::new().expect("epoll instance");
    poller
        .register(tx.as_raw_fd(), 0)
        .expect("watch the client socket");
    let mut events = Vec::new();
    let mut host = HostSpeed::default();
    let mut log = TokenLog::default();
    let mut canary_tokens: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut send_lag_ms = Vec::with_capacity(trace.len());
    let (mut next, mut settled, mut slo_ok) = (0usize, 0usize, 0usize);
    let t0 = Instant::now();
    let due = |t: &Timed| t0 + Duration::from_millis(t.at_ms);
    let last_due = trace.last().map_or(t0, due);
    while settled < trace.len() {
        let now = Instant::now();
        while next < trace.len() && due(&trace[next]) <= now {
            let t = &trace[next];
            log.due(t.submit.id, due(t));
            send_lag_ms.push(now.saturating_duration_since(due(t)).as_secs_f64() * 1e3);
            let frame = encode_client(&ClientFrame::Submit(t.submit.clone()));
            tracer
                .span("client.send", None, Some(t.submit.id), || {
                    send_all(&mut tx, &frame)
                })
                .expect("send to the door");
            next += 1;
        }
        if now > last_due + DRAIN_LIMIT {
            for _ in settled..trace.len() {
                rep.fail("request never settled".into());
            }
            break;
        }
        host.tick();
        let mut got_any = false;
        while let Some(frame) = client
            .recv(Duration::from_millis(1))
            .expect("read from the door")
        {
            got_any = true;
            let at = Instant::now();
            match frame {
                ServerFrame::Token { id, token } => {
                    log.token(id, at);
                    if id % CANARY_EVERY == 0 {
                        canary_tokens.entry(id).or_default().push(token as usize);
                    }
                }
                ServerFrame::Done {
                    id,
                    reason,
                    n_tokens,
                } => {
                    settled += 1;
                    let f = log.finish(id);
                    let want = by_id[&id].submit.max_new;
                    if reason != FinishReason::Budget || n_tokens != want {
                        rep.fail(format!(
                            "request {id} finished {reason:?} with {n_tokens} of {want} tokens"
                        ));
                    } else if f.ttft_ms.is_some_and(|t| t <= TTFT_SLO_MS)
                        && f.worst_gap_ms <= ITL_SLO_MS
                    {
                        slo_ok += 1;
                    }
                }
                ServerFrame::Reject { id, code } => {
                    settled += 1;
                    log.finish(id);
                    rep.fail(format!("request {id} rejected: {code:?}"));
                }
            }
        }
        if got_any {
            continue;
        }
        // Nothing to read: sleep in epoll until data or the next send,
        // spinning through the last sub-millisecond.
        let until = trace.get(next).map_or(Duration::from_millis(100), |t| {
            due(t).saturating_duration_since(Instant::now())
        });
        let ms = until.as_millis().min(100) as i32;
        if ms > 0 {
            poller.wait(ms, &mut events).expect("epoll wait");
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    for (id, got) in &canary_tokens {
        let s = &by_id[id].submit;
        let src: Vec<usize> = s.src.iter().map(|&t| t as usize).collect();
        let prompt: Vec<usize> = s.prompt.iter().map(|&t| t as usize).collect();
        if !check_greedy(q, &src, &prompt, got, s.max_new as usize) {
            rep.fail(format!("canary {id} differs from offline greedy decoding"));
        }
    }
    Phase {
        wall_s,
        log,
        slo_ok,
        sent: next,
        send_lag_ms,
        busy_frac: 0.0,
        door: DoorStats::default(),
        engine: ServingStats::default(),
        host,
    }
}

/// Builds the small model and warms a door with two requests.
fn setup() -> QuantSeq2Seq {
    let q = models::build(&models::small_config());
    let warm = inputs::door_trace(u64::MAX, 2, q.tgt_vocab());
    measure(&q, &warm, &mut Tracer::new(false), &mut Report::default());
    q
}

/// The traced run's `door.*` and `client.*` metrics.
fn layer_metrics(rep: &mut Report, traced: &Phase) {
    rep.put("door.busy_frac", traced.busy_frac, "frac");
    let d = &traced.door;
    let a = &d.admission;
    for (name, v) in [
        ("door.admitted", a.admitted),
        ("door.shed", a.shed),
        ("door.evicted", a.evicted),
        ("door.quota_rejected", a.quota_rejected),
        ("door.expired_staged", d.expired_staged),
        ("door.tokens_streamed", d.tokens_streamed),
    ] {
        rep.put(name, v as f64, "count");
    }
    rep.put_client(&traced.log.ttft_ms, &traced.log.itl_ms, &traced.host);
    // How late the generator sent: a validity check of the open loop.
    if let Some(lag) = tail(&traced.send_lag_ms, 99.0) {
        rep.note(format!("client send lag p99 {lag} ms"));
    }
    let e = &traced.engine;
    rep.note(format!(
        "door engine: {} retries, {} shed, {} expired in queue, {} past deadline",
        e.retries, e.shed, e.expired_in_queue, e.deadline_expired
    ));
}

/// The front door's probe for workloads that do not drive one: one
/// traced second of this workload's schedule at a fixed seed.
pub fn door_probe(rep: &mut Report) {
    let q = setup();
    let n = inputs::DOOR_RATE_RPS as usize;
    let trace = inputs::door_trace(crate::PROBE_SEED, n, q.tgt_vocab());
    let p = measure(&q, &trace, &mut Tracer::new(true), rep);
    layer_metrics(rep, &p);
    rep.note(format!("door probe: {} requests sent", p.sent));
    rep.attempted += p.sent as u64;
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) {
    let (q, setups) = models::timed_setups(setup);
    let n = (inputs::DOOR_RATE_RPS * args.seconds.as_secs_f64()).ceil() as usize;
    let trace = inputs::door_trace(args.seed, n, q.tgt_vocab());
    let phase = if args.trace {
        let plain = measure(&q, &trace[..n / 4], &mut Tracer::new(false), rep);
        let mut tracer = Tracer::new(true);
        let traced = measure(&q, &trace, &mut tracer, rep);
        let ttft_p50 = |p: &Phase| median(&p.host.scale_latencies(&p.log.ttft_ms));
        rep.put(
            "trace.overhead_pct",
            (ttft_p50(&traced) / ttft_p50(&plain) - 1.0) * 100.0,
            "%",
        );
        layer_metrics(rep, &traced);
        crate::save_trace(args, &tracer, rep);
        rep.attempted += plain.sent as u64;
        traced
    } else {
        let p = measure(&q, &trace, &mut Tracer::new(false), rep);
        // Throughput is goodput: requests completed within both SLO
        // limits per second. Latency is the gap between consecutive
        // tokens, timed by the client. TTFT and the gap's tail are only
        // per-layer `client.*` metrics: in the open loop they follow the
        // host's vCPU wake-up latency more than the program (TTFT medians
        // moved by 28-175% between a calm and a loaded hour; the gap p90
        // by up to 60% between runs).
        rep.put_setup(&setups);
        rep.put("throughput_per_s", p.slo_ok as f64 / p.wall_s, "1/s");
        rep.put_latency("latency_p50_ms", &p.log.itl_ms, &p.host, 50.0, "ms");
        rep.note(format!("host speed {} x nominal", p.host.overall()));
        rep.note(format!(
            "slo_ok_frac {}",
            p.slo_ok as f64 / p.sent.max(1) as f64
        ));
        p
    };
    rep.note(format!(
        "samples: {} sent at {} req/s, {} TTFTs, {} inter-token gaps, {} within SLO \
         (TTFT <= {TTFT_SLO_MS} ms, gap <= {ITL_SLO_MS} ms), send lag p50 {:.3} ms, {} set-ups",
        phase.sent,
        inputs::DOOR_RATE_RPS,
        phase.log.ttft_ms.len(),
        phase.log.itl_ms.len(),
        phase.slo_ok,
        median(&phase.send_lag_ms),
        setups.runs.len()
    ));
    rep.attempted += phase.sent as u64;
}
