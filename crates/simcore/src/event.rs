//! Deterministic event queue.
//!
//! A thin wrapper over a binary heap keyed by `(SimTime, rank, sequence)`.
//! The monotonically increasing sequence number guarantees FIFO order among
//! events scheduled for the same instant, which is what makes whole-system
//! runs bit-for-bit reproducible. The rank is an optional coarse tie-break
//! *above* the sequence number: same-time events pop in ascending rank
//! first, FIFO within a rank. Ranks let a simulation give certain event
//! kinds a stable relative order at an instant that does not depend on
//! *when* each event happened to be scheduled — the property the OS layer
//! relies on to keep its coalesced and per-quantum execution modes
//! bit-identical.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event with its due time and tie-breaking rank and sequence number.
#[derive(Debug, Clone)]
struct ScheduledEvent<E> {
    /// When the event fires.
    time: SimTime,
    /// Coarse tie-break among same-time events (lower pops first).
    rank: u8,
    /// Global insertion order; breaks ties among same-time, same-rank
    /// events.
    seq: u64,
    /// The payload.
    event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Counters describing an [`EventQueue`]'s lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Events whose requested time lay in the past and were clamped to
    /// the queue's "now". Always 0 in a healthy simulation: a nonzero
    /// count means a component model produced a broken causal chain that
    /// debug builds would have caught with a panic.
    pub clamped: u64,
}

/// The scheduling surface shared by [`EventQueue`] and
/// [`RadixQueue`](crate::calendar::RadixQueue): events pop in
/// `(time, schedule order)` order, and a time before the last pop is
/// clamped to it (debug builds panic, release builds count it). The
/// clamp keeps every pending time at or after the last pop, the
/// monotonicity the radix heap's bucketing relies on. A simulation
/// written against this trait can swap the binary heap for the radix
/// heap without observing any difference in pop order.
pub trait EventScheduler<E> {
    /// Schedule `event` at absolute `time`.
    fn schedule(&mut self, time: SimTime, event: E);

    /// Remove and return the earliest event, advancing "now".
    fn pop(&mut self) -> Option<(SimTime, E)>;
}

/// A deterministic future-event list.
///
/// Events pop in `(time, rank, insertion order)` order. Scheduling in the
/// past is a logic error and panics in debug builds (it indicates a
/// broken causal chain in a component model); in release builds the
/// event is clamped to "now" as tracked by the last pop.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    last_popped: SimTime,
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
            clamped: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time` with rank 0.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        self.schedule_ranked(time, 0, event)
    }

    /// Schedule `event` at `time` with an explicit same-instant rank:
    /// among events due at the same time, lower ranks pop first, FIFO
    /// within a rank.
    pub fn schedule_ranked(&mut self, time: SimTime, rank: u8, event: E) {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled in the past: {} < {}",
            time,
            self.last_popped
        );
        if time < self.last_popped {
            self.clamped += 1;
        }
        let time = time.max(self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent {
            time,
            rank,
            seq,
            event,
        });
    }

    /// Lifetime counters: how many events were scheduled, and how many of
    /// those had to be clamped forward from the past (release builds
    /// only; debug builds panic instead).
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            scheduled: self.next_seq,
            clamped: self.clamped,
        }
    }

    /// Remove and return the earliest event, advancing the queue's notion
    /// of "now".
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.last_popped, "event queue went backwards");
        self.last_popped = ev.time;
        Some((ev.time, ev.event))
    }

    /// The due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }
}

impl<E> EventScheduler<E> for EventQueue<E> {
    fn schedule(&mut self, time: SimTime, event: E) {
        EventQueue::schedule(self, time, event)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(3), "c");
        q.schedule(SimTime::from_millis(1), "a");
        q.schedule(SimTime::from_millis(2), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let (now, ev) = q.pop().unwrap();
        assert_eq!((now, ev), (SimTime::from_secs(1), 1));
        // Scheduling relative to "now" keeps working.
        q.schedule(now + SimDuration::from_secs(1), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(2), 2));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(5), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_is_counted_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.stats().clamped, 1);
        // The clamped event fires at the queue's "now".
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(10));
    }

    #[test]
    fn stats_count_scheduled_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), EventQueueStats::default());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.stats().scheduled, 2);
        assert_eq!(q.stats().clamped, 0);
    }

    #[test]
    fn ranks_order_same_instant_events() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_ranked(t, 2, "slice-core1");
        q.schedule_ranked(t, 0, "wake");
        q.schedule_ranked(t, 1, "slice-core0");
        q.schedule(t, "disk"); // rank 0, after "wake" by FIFO
        assert_eq!(q.pop().unwrap().1, "wake");
        assert_eq!(q.pop().unwrap().1, "disk");
        assert_eq!(q.pop().unwrap().1, "slice-core0");
        assert_eq!(q.pop().unwrap().1, "slice-core1");
    }

    #[test]
    fn trait_object_matches_inherent_behavior() {
        let q: &mut dyn EventScheduler<&str> = &mut EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "wake");
        q.schedule(SimTime::ZERO, "boot");
        q.schedule(t, "slice");
        assert_eq!(q.pop(), Some((SimTime::ZERO, "boot")));
        assert_eq!(q.pop(), Some((t, "wake")));
        assert_eq!(q.pop(), Some((t, "slice")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn rank_does_not_override_time() {
        let mut q = EventQueue::new();
        q.schedule_ranked(SimTime::from_secs(2), 0, "later");
        q.schedule_ranked(SimTime::from_secs(1), 9, "sooner");
        assert_eq!(q.pop().unwrap().1, "sooner");
        assert_eq!(q.pop().unwrap().1, "later");
    }
}
