//! Deterministic fault injection for robustness testing.
//!
//! [`ChaosDistance`] wraps any [`Distance`] and injects failures —
//! panics, non-finite return values, or artificial delays — on a
//! deterministic call schedule. The fault-tolerant cell runner in
//! `tsdist-eval` is tested against these wrappers: a study whose registry
//! includes chaos entrants must isolate their failures while every
//! healthy entrant produces bit-identical results to a chaos-free run.
//!
//! This module is test support. It lives in the library (rather than
//! `#[cfg(test)]`) so downstream crates' fault-injection suites can use
//! it, but it has no place in production measure registries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::measure::Distance;
use crate::workspace::Workspace;

/// The failure a [`ChaosDistance`] injects when its schedule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Panic with a recognizable message.
    Panic,
    /// Return this value instead of the real distance (use `f64::NAN` or
    /// `f64::INFINITY` to simulate a poisoned measure).
    Value(f64),
    /// Sleep for this long, then return the real distance (simulates a
    /// stalling kernel; long enough schedules trip cell deadlines).
    Delay(Duration),
}

/// When the fault fires, as a function of the 0-based call counter. The
/// counter is shared across threads (one atomic per wrapper), so the
/// *number* of faults is deterministic even under a parallel matrix
/// engine, though which pair observes them may vary with thread timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Every call faults.
    Always,
    /// Only the first `n` calls fault (with `n = 1` and a retrying
    /// runner, the first attempt fails and the retry runs clean).
    FirstN(usize),
    /// Every `n`-th call faults (calls `n-1`, `2n-1`, ...).
    EveryNth(usize),
}

impl Schedule {
    /// Whether the fault fires on 0-based call `index`.
    pub fn fires(&self, index: usize) -> bool {
        match *self {
            Schedule::Always => true,
            Schedule::FirstN(n) => index < n,
            Schedule::EveryNth(n) => n > 0 && (index + 1).is_multiple_of(n),
        }
    }
}

/// A [`Distance`] wrapper that injects faults on a deterministic
/// schedule. See the [module docs](self) for intent.
pub struct ChaosDistance<D> {
    inner: D,
    fault: Fault,
    schedule: Schedule,
    calls: AtomicUsize,
}

impl<D: Distance> ChaosDistance<D> {
    /// Wraps `inner`, injecting `fault` whenever `schedule` fires.
    pub fn new(inner: D, fault: Fault, schedule: Schedule) -> Self {
        ChaosDistance {
            inner,
            fault,
            schedule,
            calls: AtomicUsize::new(0),
        }
    }

    /// Number of distance calls made so far (fired or not).
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    /// Claims the next call slot; returns the injected value when the
    /// schedule fires on it (panicking / sleeping as configured).
    fn inject(&self) -> Option<f64> {
        let index = self.calls.fetch_add(1, Ordering::SeqCst);
        if !self.schedule.fires(index) {
            return None;
        }
        match self.fault {
            // tsdist-lint: allow(no-unwrap-in-lib, reason = "chaos fault injector: the scheduled panic is the fault being injected")
            Fault::Panic => panic!("chaos: injected panic at call {index}"),
            Fault::Value(v) => Some(v),
            Fault::Delay(d) => {
                std::thread::sleep(d);
                None
            }
        }
    }
}

impl<D: Distance> Distance for ChaosDistance<D> {
    fn name(&self) -> String {
        format!("Chaos({})", self.inner.name())
    }

    fn lanes_hint(&self) -> usize {
        self.inner.lanes_hint()
    }

    fn distance_ws(&self, x: &[f64], y: &[f64], ws: &mut Workspace) -> f64 {
        match self.inject() {
            Some(v) => v,
            None => self.inner.distance_ws(x, y, ws),
        }
    }

    fn distance_upto(&self, x: &[f64], y: &[f64], ws: &mut Workspace, cutoff: f64) -> f64 {
        match self.inject() {
            Some(v) => v,
            None => self.inner.distance_upto(x, y, ws, cutoff),
        }
    }

    fn is_symmetric(&self) -> bool {
        // Force the full matrix (no mirror reuse) so the schedule sees
        // every pair; a mirrored triangle would halve the call count.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::Euclidean;

    #[test]
    fn schedule_semantics() {
        assert!(Schedule::Always.fires(0) && Schedule::Always.fires(99));
        assert!(Schedule::FirstN(2).fires(1) && !Schedule::FirstN(2).fires(2));
        let every3 = Schedule::EveryNth(3);
        let fired: Vec<usize> = (0..9).filter(|i| every3.fires(*i)).collect();
        assert_eq!(fired, vec![2, 5, 8]);
        assert!(!Schedule::EveryNth(0).fires(0));
    }

    #[test]
    fn value_fault_replaces_then_passes_through() {
        let d = ChaosDistance::new(Euclidean, Fault::Value(f64::NAN), Schedule::FirstN(1));
        let x = [1.0, 2.0];
        let y = [2.0, 4.0];
        assert!(d.distance(&x, &y).is_nan());
        let clean = d.distance(&x, &y);
        assert_eq!(clean, Euclidean.distance(&x, &y));
        assert_eq!(d.calls(), 2);
    }

    #[test]
    #[should_panic(expected = "chaos: injected panic")]
    fn panic_fault_panics() {
        let d = ChaosDistance::new(Euclidean, Fault::Panic, Schedule::Always);
        let _ = d.distance(&[0.0], &[1.0]);
    }

    #[test]
    fn delay_fault_still_returns_the_real_value() {
        let d = ChaosDistance::new(
            Euclidean,
            Fault::Delay(Duration::from_millis(1)),
            Schedule::Always,
        );
        let x = [3.0, 1.0];
        let y = [0.0, 2.0];
        assert_eq!(d.distance(&x, &y), Euclidean.distance(&x, &y));
    }

    #[test]
    fn workspace_path_shares_the_counter() {
        let d = ChaosDistance::new(Euclidean, Fault::Value(-1.0), Schedule::FirstN(1));
        let mut ws = Workspace::new();
        assert_eq!(d.distance_ws(&[0.0], &[1.0], &mut ws), -1.0);
        assert_eq!(d.distance(&[0.0], &[1.0]), 1.0);
    }
}
