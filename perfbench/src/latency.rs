//! Per-request token timing as a client sees it: time to first token
//! from the moment a request was due, and the gaps between consecutive
//! tokens of one request. Each sample keeps the moment it was taken, so
//! it can be scaled by the host's speed at that moment.

use std::collections::HashMap;
use std::time::Instant;

/// Timing state of one request still in flight.
#[derive(Debug)]
struct Live {
    due: Instant,
    last: Option<Instant>,
    ttft_ms: Option<f64>,
    worst_gap_ms: f64,
}

/// What one finished request looked like to its client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Finished {
    /// Time to first token (ms); `None` if no token arrived.
    pub ttft_ms: Option<f64>,
    /// Largest gap between consecutive tokens (ms; 0 with fewer than
    /// two tokens).
    pub worst_gap_ms: f64,
}

/// Collects TTFT and inter-token-latency samples.
#[derive(Debug, Default)]
pub struct TokenLog {
    live: HashMap<u64, Live>,
    /// TTFT samples (ms), one per request that produced a token.
    pub ttft_ms: Vec<(Instant, f64)>,
    /// Inter-token gaps (ms).
    pub itl_ms: Vec<(Instant, f64)>,
    /// Tokens observed.
    pub tokens: usize,
}

fn ms(later: Instant, earlier: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

impl TokenLog {
    /// Request `id` became due (submitted, or scheduled to be sent).
    pub fn due(&mut self, id: u64, at: Instant) {
        self.live.insert(
            id,
            Live {
                due: at,
                last: None,
                ttft_ms: None,
                worst_gap_ms: 0.0,
            },
        );
    }

    /// A token of request `id` arrived at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never marked due.
    pub fn token(&mut self, id: u64, at: Instant) {
        let r = self
            .live
            .get_mut(&id)
            .expect("token for a request never due");
        self.tokens += 1;
        match r.last.replace(at) {
            Some(prev) => {
                let gap = ms(at, prev);
                self.itl_ms.push((at, gap));
                r.worst_gap_ms = r.worst_gap_ms.max(gap);
            }
            None => {
                let t = ms(at, r.due);
                self.ttft_ms.push((at, t));
                r.ttft_ms = Some(t);
            }
        }
    }

    /// Request `id` finished; forgets it and returns its summary.
    pub fn finish(&mut self, id: u64) -> Finished {
        let r = self.live.remove(&id);
        Finished {
            ttft_ms: r.as_ref().and_then(|r| r.ttft_ms),
            worst_gap_ms: r.map_or(0.0, |r| r.worst_gap_ms),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ttft_runs_from_due_and_gaps_from_previous_token() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = TokenLog::default();
        log.due(7, at(0));
        log.token(7, at(5));
        log.token(7, at(8));
        log.token(7, at(15));
        let f = log.finish(7);
        assert_eq!(log.tokens, 3);
        assert_eq!(log.ttft_ms, vec![(at(5), 5.0)]);
        assert_eq!(log.itl_ms, vec![(at(8), 3.0), (at(15), 7.0)]);
        assert_eq!(f.ttft_ms, Some(5.0));
        assert_eq!(f.worst_gap_ms, 7.0);
        assert_eq!(log.finish(7).ttft_ms, None);
    }
}
