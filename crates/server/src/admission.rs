//! Admission control: a bounded in-flight query budget.
//!
//! The server admits at most `limit` queries at once. A query arriving at a
//! full server parks on a condition variable for up to the admission
//! timeout; if no slot frees up in time it is rejected with
//! [`ServerError::Overloaded`](crate::ServerError::Overloaded) *before* any
//! planning or execution work is spent on it. Permits release their slot on
//! drop, so a panicking query can never leak capacity.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Bounded counting semaphore guarding query admission.
#[derive(Debug)]
pub struct AdmissionGate {
    in_flight: Mutex<usize>,
    freed: Condvar,
    limit: usize,
}

/// Outcome of a failed admission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionRejected {
    /// The in-flight budget that was full.
    pub limit: usize,
    /// How long the query waited before giving up.
    pub waited: Duration,
}

impl AdmissionGate {
    /// A gate admitting at most `limit` concurrent holders (clamped to at
    /// least 1 — a zero-capacity server could never serve anything).
    pub fn new(limit: usize) -> Self {
        AdmissionGate {
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
            limit: limit.max(1),
        }
    }

    /// The in-flight budget.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The admitted-holder count, locked. A query that panicked while
    /// holding the lock left the count whole (it is one integer), so the
    /// poison is cleared rather than failing every later admission.
    fn held(&self) -> MutexGuard<'_, usize> {
        self.in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Currently admitted holders.
    pub fn in_flight(&self) -> usize {
        *self.held()
    }

    /// Waits up to `timeout` for a slot. `Ok` holds a permit whose drop
    /// frees the slot; `Err` reports the rejection.
    pub fn admit(&self, timeout: Duration) -> Result<AdmissionPermit<'_>, AdmissionRejected> {
        let started = Instant::now();
        let mut in_flight = self.held();
        loop {
            if *in_flight < self.limit {
                *in_flight += 1;
                return Ok(AdmissionPermit { gate: self });
            }
            let remaining = match timeout.checked_sub(started.elapsed()) {
                Some(remaining) if !remaining.is_zero() => remaining,
                _ => {
                    return Err(AdmissionRejected {
                        limit: self.limit,
                        waited: started.elapsed(),
                    })
                }
            };
            let (guard, wait) = self
                .freed
                .wait_timeout(in_flight, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            in_flight = guard;
            if wait.timed_out() && *in_flight >= self.limit {
                return Err(AdmissionRejected {
                    limit: self.limit,
                    waited: started.elapsed(),
                });
            }
        }
    }
}

/// An admitted slot; dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut in_flight = self.gate.held();
        *in_flight = in_flight.saturating_sub(1);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_the_limit_and_rejects_past_it() {
        let gate = AdmissionGate::new(2);
        let a = gate.admit(Duration::ZERO).expect("slot 1");
        let _b = gate.admit(Duration::ZERO).expect("slot 2");
        assert_eq!(gate.in_flight(), 2);
        let rejected = gate.admit(Duration::ZERO).expect_err("full");
        assert_eq!(rejected.limit, 2);
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        let _c = gate.admit(Duration::ZERO).expect("slot freed by drop");
    }

    #[test]
    fn waiter_is_woken_by_a_released_permit() {
        use std::sync::Arc;
        let gate = Arc::new(AdmissionGate::new(1));
        let permit = gate.admit(Duration::ZERO).expect("slot");
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.admit(Duration::from_secs(30)).map(drop).is_ok())
        };
        // Give the waiter a moment to park, then free the slot.
        std::thread::sleep(Duration::from_millis(20));
        drop(permit);
        assert!(waiter.join().unwrap());
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn a_poisoned_lock_does_not_take_admission_down() {
        let gate = AdmissionGate::new(1);
        // A session panics while it holds the gate's lock.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = gate.in_flight.lock();
            panic!("session panics holding the admission lock");
        }));
        assert!(panicked.is_err());
        assert!(gate.in_flight.is_poisoned());

        let permit = gate.admit(Duration::ZERO).expect("slot");
        assert_eq!(gate.in_flight(), 1);
        gate.admit(Duration::ZERO).expect_err("full");
        drop(permit);
        assert_eq!(gate.in_flight(), 0);
        let _again = gate.admit(Duration::ZERO).expect("slot freed by drop");
    }

    #[test]
    fn zero_limit_is_clamped_to_one() {
        let gate = AdmissionGate::new(0);
        assert_eq!(gate.limit(), 1);
        let _permit = gate.admit(Duration::ZERO).expect("one slot");
    }
}
