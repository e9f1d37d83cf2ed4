//! High-watermark backpressure for bounded-queue submission.
//!
//! A [`Gate`] counts *outstanding weight* (for `gp-serve`: segments
//! dispatched to the executor whose result is not published yet).
//! Producers [`Gate::acquire`] weight before submitting work and the
//! weight is released when the work completes; once the outstanding
//! weight reaches the high watermark, `acquire` blocks the producer
//! until enough work drains. That converts an unbounded queue into
//! backpressure on whoever is pushing too fast.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A weighted high-watermark counter.
#[derive(Debug)]
pub struct Gate {
    high: usize,
    count: Mutex<usize>,
    /// Notified on every release: wakes blocked producers and
    /// [`Gate::wait_empty`] callers alike.
    released: Condvar,
}

impl Gate {
    /// Creates a gate admitting up to `high` outstanding weight
    /// (`high` is clamped to at least 1).
    pub fn new(high: usize) -> Gate {
        Gate {
            high: high.max(1),
            count: Mutex::new(0),
            released: Condvar::new(),
        }
    }

    /// Currently outstanding weight.
    pub fn outstanding(&self) -> usize {
        *lock(&self.count)
    }

    /// Whether `weight` more fits below the high watermark. A weight
    /// larger than the watermark fits once the gate is empty (so one
    /// oversized batch cannot deadlock the producer).
    fn fits(&self, count: usize, weight: usize) -> bool {
        count == 0 || count + weight <= self.high
    }

    /// Whether [`Gate::acquire`] of `weight` would proceed without
    /// blocking right now. Read-only: it acquires nothing, so probing
    /// never wakes or blocks anyone — the shedding policy's building
    /// block.
    pub fn has_room(&self, weight: usize) -> bool {
        self.fits(*lock(&self.count), weight)
    }

    /// Acquires `weight`, blocking while it would push the outstanding
    /// total past the high watermark (see [`Gate::has_room`]).
    pub fn acquire(&self, weight: usize) {
        let mut count = lock(&self.count);
        while !self.fits(*count, weight) {
            count = self
                .released
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *count += weight;
    }

    /// Releases `weight` and wakes blocked producers and waiters.
    pub fn release(&self, weight: usize) {
        let mut count = lock(&self.count);
        *count = count.saturating_sub(weight);
        self.released.notify_all();
    }

    /// Blocks until every acquired weight has been released.
    pub fn wait_empty(&self) {
        let mut count = lock(&self.count);
        while *count > 0 {
            count = self
                .released
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn acquire_release_roundtrip() {
        let gate = Gate::new(4);
        gate.acquire(3);
        assert_eq!(gate.outstanding(), 3);
        gate.release(3);
        assert_eq!(gate.outstanding(), 0);
    }

    #[test]
    fn has_room_rejects_at_watermark_without_acquiring() {
        let gate = Gate::new(2);
        assert!(gate.has_room(2));
        assert_eq!(gate.outstanding(), 0, "a probe acquires nothing");
        gate.acquire(2);
        assert!(!gate.has_room(1));
        gate.release(1);
        assert!(gate.has_room(1));
        assert!(!gate.has_room(2));
    }

    #[test]
    fn oversized_weight_admitted_when_empty() {
        let gate = Gate::new(2);
        assert!(gate.has_room(10));
        gate.acquire(10); // must not deadlock
        assert_eq!(gate.outstanding(), 10);
        assert!(!gate.has_room(1), "full gate rejects more weight");
        gate.release(10);
    }

    #[test]
    fn acquire_blocks_until_release() {
        let gate = Arc::new(Gate::new(1));
        gate.acquire(1);
        let gate2 = gate.clone();
        let waiter = std::thread::spawn(move || {
            gate2.acquire(1); // blocks until the main thread releases
            gate2.release(1);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "acquire should still be blocked");
        gate.release(1);
        waiter.join().unwrap();
        assert_eq!(gate.outstanding(), 0);
    }

    #[test]
    fn wait_empty_blocks_until_the_last_release() {
        let gate = Arc::new(Gate::new(4));
        gate.wait_empty(); // an empty gate returns at once
        gate.acquire(2);
        let gate2 = gate.clone();
        let waiter = std::thread::spawn(move || gate2.wait_empty());
        gate.release(1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "one weight is still outstanding");
        gate.release(1);
        waiter.join().unwrap();
    }

    #[test]
    fn watermark_clamped_to_one() {
        let gate = Gate::new(0);
        assert!(gate.has_room(1));
        gate.acquire(1);
        assert!(gate.has_room(0), "a clamped watermark holds one weight");
        assert!(!gate.has_room(1));
    }
}
