//! The in-process engine client shared by `decode-batch` and
//! `prefix-prefill`: it calls the `serving` layer's public API, times
//! every token as the caller receives it, and (when tracing) records a
//! span and a counter delta around each call.

use crate::latency::TokenLog;
use crate::report::Report;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use serving::{ContinuousBatcher, Request, Response, ServingError, ServingStats};
use std::time::Instant;

/// What one traced `step()` did, from the engine's counter deltas.
#[derive(Debug, Clone, Copy)]
pub struct StepRec {
    /// Wall time of the call (ms).
    pub ms: f64,
    /// Requests admitted into slots during the step.
    pub admitted: usize,
    /// Prompt rows prefilled during the step.
    pub prefill_rows: usize,
}

/// Drives one engine; the caller owns the request stream.
pub struct EngineClient<'m> {
    /// The engine under test.
    pub engine: ContinuousBatcher<'m>,
    /// Client-side token timing.
    pub log: TokenLog,
    /// One record per traced step (empty when tracing is off).
    pub steps: Vec<StepRec>,
}

impl<'m> EngineClient<'m> {
    /// Wraps an engine.
    pub fn new(engine: ContinuousBatcher<'m>) -> Self {
        Self {
            engine,
            log: TokenLog::default(),
            steps: Vec::new(),
        }
    }

    /// Submits `req`, due now.
    pub fn submit(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<SpanId>,
        req: Request,
    ) -> Result<(), ServingError> {
        let id = req.id;
        self.log.due(id, Instant::now());
        let engine = &mut self.engine;
        tracer.span("serving.submit", parent, Some(id), || engine.submit(req))
    }

    /// One engine step, then the streamed tokens and finished
    /// responses it produced. `None` once the engine has nothing left.
    pub fn step(&mut self, tracer: &mut Tracer, parent: Option<SpanId>) -> Option<Vec<Response>> {
        let before = tracer.enabled().then(|| self.engine.stats());
        let t0 = Instant::now();
        let engine = &mut self.engine;
        let more = tracer.span("serving.step", parent, None, || engine.step());
        let at = Instant::now();
        if let Some(b) = before {
            let a = self.engine.stats();
            self.steps.push(StepRec {
                ms: at.duration_since(t0).as_secs_f64() * 1e3,
                admitted: a.admitted - b.admitted,
                prefill_rows: a.prefill_rows - b.prefill_rows,
            });
        }
        if !more {
            return None;
        }
        let engine = &mut self.engine;
        for (id, _) in tracer.span("serving.drain_emitted", parent, None, || {
            engine.drain_emitted()
        }) {
            self.log.token(id, at);
        }
        let engine = &mut self.engine;
        let done = tracer.span("serving.drain_finished", parent, None, || {
            engine.drain_finished()
        });
        for r in &done {
            self.log.finish(r.id);
        }
        Some(done)
    }
}

/// Reports the `serving.*` per-layer metrics of a traced run.
/// `prompt_rows` counts every request's target-side rows (`BOS` plus
/// prompt) admitted during the run.
pub fn layer_metrics(
    rep: &mut Report,
    steps: &[StepRec],
    stats: &ServingStats,
    max_batch: usize,
    prompt_rows: usize,
) {
    let all: Vec<f64> = steps.iter().map(|s| s.ms).collect();
    if all.is_empty() {
        rep.note("no traced serving steps".into());
        return;
    }
    rep.put("serving.step_ms_p50", median(&all), "ms");
    rep.put_tail("serving.step_ms_p99", &all, 99.0, "ms");
    let pick = |f: &dyn Fn(&StepRec) -> bool| -> Vec<f64> {
        steps.iter().filter(|s| f(s)).map(|s| s.ms).collect()
    };
    let decode = pick(&|s| s.admitted == 0 && s.prefill_rows == 0);
    let admit = pick(&|s| s.admitted > 0);
    let counts = format!(
        "serving samples: {} steps, {} pure-decode, {} admitting",
        all.len(),
        decode.len(),
        admit.len()
    );
    rep.note(counts);
    if !decode.is_empty() {
        rep.put("serving.decode_step_ms_p50", median(&decode), "ms");
    }
    if !admit.is_empty() {
        rep.put("serving.admit_step_ms_p50", median(&admit), "ms");
    }
    let prefill_ms: f64 = steps
        .iter()
        .filter(|s| s.prefill_rows > 0)
        .map(|s| s.ms)
        .sum();
    let prefill_rows: usize = steps.iter().map(|s| s.prefill_rows).sum();
    if prefill_ms > 0.0 {
        rep.put(
            "serving.prefill_rows_per_s",
            prefill_rows as f64 / (prefill_ms / 1e3),
            "1/s",
        );
    }
    let per_step = |x: usize| x as f64 / stats.steps.max(1) as f64;
    rep.put("serving.rows_per_step", per_step(stats.rows), "rows");
    rep.put("serving.occupancy", stats.occupancy(max_batch), "frac");
    let lookups = stats.prefix_hits + stats.prefix_misses;
    let ratio = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    rep.put(
        "serving.prefix_hit_ratio",
        ratio(stats.prefix_hits, lookups),
        "frac",
    );
    rep.put(
        "serving.prefix_rows_reused_frac",
        ratio(stats.prefix_rows_reused, prompt_rows),
        "frac",
    );
    const MB: f64 = (1 << 20) as f64;
    rep.put("serving.kv_peak_mb", stats.kv_bytes_peak as f64 / MB, "MB");
    rep.put(
        "serving.ops_fused_per_step",
        per_step(stats.ops_fused),
        "count",
    );
    rep.put(
        "serving.elided_mb",
        per_step(stats.intermediates_elided_bytes) / MB,
        "MB/step",
    );
    counter_metrics(rep, stats);
}

/// The serving layer's failure counters.
fn counter_metrics(rep: &mut Report, stats: &ServingStats) {
    rep.put("serving.retries", stats.retries as f64, "count");
    rep.put("serving.shed", stats.shed as f64, "count");
    rep.put(
        "serving.expired_in_queue",
        stats.expired_in_queue as f64,
        "count",
    );
    rep.put(
        "serving.deadline_expired",
        stats.deadline_expired as f64,
        "count",
    );
}
