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

use crate::detmap::DetSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event with its due time and tie-breaking rank and sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Coarse tie-break among same-time events (lower pops first).
    pub rank: u8,
    /// Global insertion order; breaks ties among same-time, same-rank
    /// events.
    pub seq: u64,
    /// The payload.
    pub event: E,
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
/// [`RadixQueue`](crate::calendar::RadixQueue): deterministic
/// `(time, rank, seq)` pop order, lazy cancellation by sequence number
/// (cancelled entries never count in `len` or `peek_time`), and
/// identical past-scheduling clamp semantics. The clamp also keeps every
/// pending time at or after [`now`](Self::now), the monotonicity the
/// radix heap's bucketing relies on. A simulation written against this
/// trait can swap the binary heap for the radix heap without observing
/// any difference in pop order or stats.
pub trait EventScheduler<E> {
    /// Schedule `event` at absolute `time` with rank 0; returns the
    /// assigned sequence number.
    fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        self.schedule_ranked(time, 0, event)
    }

    /// Schedule with an explicit same-instant rank: among events due at
    /// the same time, lower ranks pop first, FIFO within a rank.
    fn schedule_ranked(&mut self, time: SimTime, rank: u8, event: E) -> u64;

    /// Cancel a pending event by the seq its schedule call returned.
    /// Returns `true` when a tombstone was newly recorded. Cancelling a
    /// seq that is no longer pending is a caller logic error: seqs that
    /// were never issued or already cancelled return `false`, but an
    /// already-popped seq cannot be detected and would leave a stale
    /// tombstone skewing [`len`](Self::len).
    fn cancel(&mut self, seq: u64) -> bool;

    /// Remove and return the earliest live event, advancing "now".
    fn pop(&mut self) -> Option<(SimTime, E)>;

    /// The due time of the earliest live event, if any.
    fn peek_time(&self) -> Option<SimTime>;

    /// Number of pending (non-cancelled) events.
    fn len(&self) -> usize;

    /// True when no live events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (the queue's "now").
    fn now(&self) -> SimTime;

    /// Lifetime schedule/clamp counters.
    fn stats(&self) -> EventQueueStats;
}

/// A deterministic future-event list.
///
/// Events pop in `(time, insertion order)` order. Scheduling in the past is
/// a logic error and panics in debug builds (it indicates a broken causal
/// chain in a component model); in release builds the event is clamped to
/// "now" as tracked by the last pop.
///
/// Cancellation is lazy: [`EventQueue::cancel`] records a tombstone and
/// the queue drains dead heads eagerly, so `peek_time`/`pop` never
/// observe a cancelled event.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    last_popped: SimTime,
    cancelled: DetSet<u64>,
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
            cancelled: DetSet::new(),
            clamped: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time` with rank 0.
    ///
    /// Returns the sequence number assigned to the event, which can be used
    /// by callers implementing cancellation via generation counters.
    pub fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        self.schedule_ranked(time, 0, event)
    }

    /// Schedule `event` at `time` with an explicit same-instant rank:
    /// among events due at the same time, lower ranks pop first, FIFO
    /// within a rank.
    pub fn schedule_ranked(&mut self, time: SimTime, rank: u8, event: E) -> u64 {
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
        seq
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

    /// Cancel a pending event by seq (see [`EventScheduler::cancel`] for
    /// the contract). The head is drained eagerly so `peek_time` stays
    /// accurate.
    pub fn cancel(&mut self, seq: u64) -> bool {
        if seq >= self.next_seq || !self.cancelled.insert(seq) {
            return false;
        }
        self.drain_cancelled_head();
        true
    }

    /// Drop cancelled events sitting at the head so peek/pop only ever
    /// see live events. Does not advance "now".
    fn drain_cancelled_head(&mut self) {
        while let Some(head) = self.heap.peek() {
            if !self.cancelled.contains(&head.seq) {
                break;
            }
            let dead = self.heap.pop().expect("peeked head exists");
            self.cancelled.remove(&dead.seq);
        }
    }

    /// Remove and return the earliest event, advancing the queue's notion
    /// of "now".
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // The head is never cancelled (cancel() and pop() both drain
        // dead heads), but stay defensive.
        let ev = loop {
            let ev = self.heap.pop()?;
            if !self.cancelled.remove(&ev.seq) {
                break ev;
            }
        };
        debug_assert!(ev.time >= self.last_popped, "event queue went backwards");
        self.last_popped = ev.time;
        self.drain_cancelled_head();
        Some((ev.time, ev.event))
    }

    /// The due time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently popped event (the queue's "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Drop all pending events, keeping the current time.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }
}

impl<E> EventScheduler<E> for EventQueue<E> {
    fn schedule_ranked(&mut self, time: SimTime, rank: u8, event: E) -> u64 {
        EventQueue::schedule_ranked(self, time, rank, event)
    }

    fn cancel(&mut self, seq: u64) -> bool {
        EventQueue::cancel(self, seq)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        EventQueue::pop(self)
    }

    fn peek_time(&self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn now(&self) -> SimTime {
        EventQueue::now(self)
    }

    fn stats(&self) -> EventQueueStats {
        EventQueue::stats(self)
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
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(1), 1));
        // Scheduling relative to "now" keeps working.
        q.schedule(q.now() + SimDuration::from_secs(1), 2);
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
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
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
    fn cancel_skips_events_and_keeps_peek_accurate() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(2), "b");
        let c = q.schedule(SimTime::from_secs(3), "c");
        assert_eq!(q.len(), 3);
        // Cancelling the head drains it immediately.
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        // Cancelling mid-queue is lazy but never observable.
        assert!(q.cancel(c));
        // Double-cancel of a still-pending tombstone and never-issued
        // seqs report false.
        assert!(!q.cancel(c));
        assert!(!q.cancel(999));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        let _ = b;
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_head_does_not_advance_now() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(5), "a");
        q.schedule(SimTime::from_secs(9), "b");
        q.cancel(a);
        assert_eq!(q.now(), SimTime::ZERO);
        // Scheduling before the cancelled event's time is still legal.
        q.schedule(SimTime::from_secs(1), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn trait_object_matches_inherent_behavior() {
        let q: &mut dyn EventScheduler<&str> = &mut EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_ranked(t, 1, "slice");
        q.schedule(t, "wake");
        let dead = q.schedule(t, "dead");
        assert!(q.cancel(dead));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "wake");
        assert_eq!(q.pop().unwrap().1, "slice");
        assert_eq!(q.now(), t);
        assert_eq!(q.stats().scheduled, 3);
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
