//! The open-loop generator's arithmetic: a seeded arrival schedule, and
//! the accounting that times every request from when it was *due*.
//!
//! Timing from the due time, not the send time, avoids coordinated
//! omission: when the sender stalls, every request queued behind the
//! stall is charged the wait. How late the sender itself ran is
//! reported separately as lag, so a slow generator cannot pass for a
//! fast server.

/// SplitMix64 step: the benchmark's only random source, so one seed
/// gives the same inputs on every host.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Poisson arrivals at `rate` per second over `duration_s` seconds, as
/// due offsets in nanoseconds from the start of the rung. The same
/// `(rate, duration_s, seed)` always gives the same schedule.
pub fn poisson_schedule(rate: f64, duration_s: f64, seed: u64) -> Vec<u64> {
    assert!(
        rate > 0.0 && duration_s > 0.0,
        "rate and duration must be positive"
    );
    let mut state = seed;
    let horizon = duration_s * 1e9;
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * duration_s * 1.2) as usize + 16);
    loop {
        // Inverse-CDF exponential gap; `1 - u` is in (0, 1].
        t += -(1.0 - unit(&mut state)).ln() / rate * 1e9;
        if t >= horizon {
            return due;
        }
        due.push(t as u64);
    }
}

/// What happened to one scheduled request. Times are nanoseconds on the
/// rung's clock (the same origin as the schedule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// When the request was due to be sent.
    pub due: u64,
    /// When the sender actually wrote it.
    pub sent: u64,
    /// When its response arrived; `None` when none arrived.
    pub received: Option<u64>,
    /// Whether the response was a refusal (queue full, quota) rather
    /// than an answer.
    pub refused: bool,
}

impl RequestRecord {
    /// Latency from the due time in milliseconds; `+inf` for a refused
    /// or unanswered request, which therefore misses any limit.
    pub fn latency_ms(&self) -> f64 {
        match self.received {
            Some(r) if !self.refused => r.saturating_sub(self.due) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due) as f64 / 1e6
    }
}

/// The verdict on one offered rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungVerdict {
    /// Requests scheduled.
    pub n: usize,
    /// Median latency from due time (ms).
    pub p50_ms: f64,
    /// Latency at the tail percentile (ms; `+inf` when refusals reach
    /// into the tail).
    pub tail_ms: f64,
    /// Generator lag at the tail percentile (ms).
    pub lag_tail_ms: f64,
    /// Refused or unanswered requests.
    pub missed: usize,
    /// Whether the backlog grew over the rung: the last quarter's
    /// median latency exceeds twice the first quarter's plus
    /// [`BACKLOG_SLACK_MS`].
    pub backlog_growing: bool,
}

/// Absolute slack of the growing-backlog test, so a sub-millisecond
/// first quarter does not make scheduler noise look like a backlog.
pub const BACKLOG_SLACK_MS: f64 = 1.0;

impl RungVerdict {
    /// Whether the rate is sustained: tail latency under `limit_ms`, no
    /// refusal, and no growing backlog.
    pub fn sustained(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && self.missed == 0 && !self.backlog_growing
    }
}

/// Judges one rung from its records (in schedule order) with the tail
/// at percentile `tail_p`. `None` when the rung is too short for that
/// percentile.
pub fn judge(records: &[RequestRecord], tail_p: f64) -> Option<RungVerdict> {
    let latencies: Vec<f64> = records.iter().map(RequestRecord::latency_ms).collect();
    let lags: Vec<f64> = records.iter().map(RequestRecord::lag_ms).collect();
    let lat = crate::stats::summarize(&latencies, tail_p)?;
    let lag = crate::stats::summarize(&lags, tail_p)?;
    let quarter = records.len() / 4;
    let first = crate::stats::median(&latencies[..quarter]);
    let last = crate::stats::median(&latencies[records.len() - quarter..]);
    Some(RungVerdict {
        n: records.len(),
        p50_ms: lat.p50,
        tail_ms: lat.tail,
        lag_tail_ms: lag.tail,
        missed: records
            .iter()
            .filter(|r| r.refused || r.received.is_none())
            .count(),
        backlog_growing: last > 2.0 * first + BACKLOG_SLACK_MS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_hits_the_rate() {
        let a = poisson_schedule(2000.0, 2.0, 7);
        assert_eq!(a, poisson_schedule(2000.0, 2.0, 7));
        assert_ne!(a, poisson_schedule(2000.0, 2.0, 8));
        // 4000 expected arrivals; Poisson sd is ~63.
        assert!((3700..4300).contains(&a.len()), "got {}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
    }

    fn record(due: u64, sent: u64, received: u64) -> RequestRecord {
        RequestRecord {
            due,
            sent,
            received: Some(received),
            refused: false,
        }
    }

    #[test]
    fn latency_counts_from_due_time_through_a_sender_stall() {
        // A 5 ms stall: the request due at 1 ms goes out at 6 ms and is
        // answered at 6.2 ms. Timed from the send it would look like
        // 0.2 ms; timed from its due time it took 5.2 ms.
        let r = record(1_000_000, 6_000_000, 6_200_000);
        assert_eq!(r.latency_ms(), 5.2);
        assert_eq!(r.lag_ms(), 5.0);
        // A request sent on time carries no lag.
        assert_eq!(record(10, 10, 20).lag_ms(), 0.0);
    }

    #[test]
    fn refusals_and_losses_miss_the_limit() {
        let refused = RequestRecord {
            refused: true,
            ..record(0, 0, 100)
        };
        let lost = RequestRecord {
            received: None,
            ..record(0, 0, 0)
        };
        assert_eq!(refused.latency_ms(), f64::INFINITY);
        assert_eq!(lost.latency_ms(), f64::INFINITY);
        let mut records: Vec<RequestRecord> = (0..1000)
            .map(|i| record(i * 1000, i * 1000, i * 1000 + 500_000))
            .collect();
        let ok = judge(&records, 99.0).expect("1000 records support p99");
        assert!(ok.sustained(1.0));
        assert_eq!(ok.p50_ms, 0.5);
        records[3].refused = true;
        let one_refusal = judge(&records, 99.0).expect("p99");
        assert_eq!(one_refusal.missed, 1);
        assert!(!one_refusal.sustained(1.0));
    }

    #[test]
    fn a_growing_backlog_fails_the_rung_even_under_the_limit() {
        // Latency climbs steadily from 0.1 ms to ~5 ms: every request is
        // under a 10 ms limit, but the queue is growing.
        let records: Vec<RequestRecord> = (0..1000u64)
            .map(|i| record(i * 1000, i * 1000, i * 1000 + 100_000 + i * 5_000))
            .collect();
        let v = judge(&records, 99.0).expect("p99");
        assert!(v.tail_ms < 10.0);
        assert!(v.backlog_growing);
        assert!(!v.sustained(10.0));
    }

    #[test]
    fn generator_lag_is_reported_at_the_tail() {
        // Every 50th request is sent 3 ms late: 20 late ones in 1000.
        let records: Vec<RequestRecord> = (0..1000u64)
            .map(|i| {
                let late = if i % 50 == 0 { 3_000_000 } else { 0 };
                record(i * 1000, i * 1000 + late, i * 1000 + late + 100_000)
            })
            .collect();
        let v = judge(&records, 99.0).expect("p99");
        assert_eq!(v.lag_tail_ms, 3.0);
        assert_eq!(v.missed, 0);
    }

    #[test]
    fn a_rung_too_short_for_its_tail_is_not_judged() {
        let records: Vec<RequestRecord> = (0..500u64).map(|i| record(i, i, i + 1)).collect();
        assert!(judge(&records, 99.0).is_none());
        assert!(judge(&records, 90.0).is_some());
    }
}
