//! The discrete-event core: a time-ordered event queue.
//!
//! Deliberately minimal — a binary heap keyed by `(time, sequence)` so that
//! simultaneous events fire in insertion order, which keeps whole runs
//! bit-reproducible for a fixed seed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulation time in seconds.
pub type SimTime = f64;

/// An event scheduled in the queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled<E> {
    /// Firing time.
    pub time: SimTime,
    /// Monotone tie-breaker assigned by the queue.
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> Eq for Scheduled<E> where E: PartialEq {}

impl<E: PartialEq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E: PartialEq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need earliest-first.
        // total_cmp keeps the ordering well defined (and panic-free) even
        // if a pathological distribution ever produced a NaN time.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list.
#[derive(Debug)]
pub struct EventQueue<E: PartialEq> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: PartialEq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: PartialEq> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// Panics if `time` is in the past or NaN — scheduling backwards is
    /// always a simulator bug, never a data condition.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time.is_finite() && time >= self.now,
            "cannot schedule at {time} (now = {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Schedule `event` after a relative delay.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pop the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| {
            self.now = s.time;
            (s.time, s.event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "c");
        q.schedule(1.0, "a");
        q.schedule(3.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((3.0, "b")));
        assert_eq!(q.now, 3.0);
        assert_eq!(q.pop(), Some((5.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 1);
        q.schedule(2.0, 2);
        q.schedule(2.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn relative_scheduling_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(4.0, "first");
        q.pop();
        q.schedule_in(1.5, "second");
        assert_eq!(q.pop(), Some((5.5, "second")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10.0, ());
        q.pop();
        q.schedule(1.0, ());
    }
}
