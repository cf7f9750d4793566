//! A monotone radix-heap future-event calendar.
//!
//! [`RadixQueue`] is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
//! 1990) over picosecond times. It relies on the property every queue
//! here already has: nothing is ever scheduled before the last popped
//! time (the past clamp enforces it in release builds). In exchange an
//! event moves between buckets at most 64 times over its life, however
//! widely the pending times spread, and no two events are ever
//! compared. Pops come in `(time, schedule order)` order, the order
//! [`EventQueue`](crate::EventQueue) gives events of one rank, which is
//! what lets the grid layer swap scheduling substrates without moving a
//! single bit (DESIGN.md §12).
//!
//! ## Ordering argument
//!
//! There are 65 buckets. Bucket 0 holds the events due exactly at
//! `last`, the last popped time. An event due at `t > last` sits in
//! bucket `k + 1`, where `k` is the highest bit in which `t` and `last`
//! differ. Such an event agrees with `last` above bit `k` and has bit
//! `k` set where `last` has it clear, so it is later than every event
//! in a lower bucket. A pop therefore takes bucket 0's head or, when
//! bucket 0 is empty, the earliest event of the lowest non-empty
//! bucket. That time becomes the new `last`, and the bucket's events
//! move to buckets strictly below it (they agree with the new `last`
//! on every bit the old bucket index covered). An event only ever moves
//! down, so it moves at most 64 times over its life.
//!
//! Every bucket holds its events in the order they were scheduled. A
//! schedule appends to one bucket, and a bucket receives events
//! otherwise only while it is empty: the redistribution fills buckets
//! below the lowest non-empty one, in that bucket's order. Bucket 0
//! holds a single time, so popping its head is popping in schedule
//! order among same-instant events: bucket 0 is a FIFO.

use crate::event::{EventQueueStats, EventScheduler};
use crate::time::SimTime;
use std::collections::VecDeque;

/// A deterministic future-event list for monotone schedules: at most 64
/// bucket moves per event over its life.
///
/// Drop-in replacement for [`EventQueue`](crate::EventQueue) behind
/// [`EventScheduler`] for callers that use no ranks: identical pop
/// order, identical past-scheduling clamp semantics (debug panic,
/// release clamp-and-count), identical stats.
#[derive(Debug)]
pub struct RadixQueue<E> {
    /// Bucket 0: the events due exactly at `last`, in schedule order.
    due: VecDeque<E>,
    /// Buckets 1-64: `buckets[k]` holds the events whose highest bit
    /// differing from `last` is bit `k`, in schedule order.
    buckets: [Vec<(SimTime, E)>; 64],
    /// Bit `k` set iff `buckets[k]` is non-empty.
    occupied: u64,
    last: SimTime,
    scheduled: u64,
    clamped: u64,
}

impl<E> Default for RadixQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> RadixQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        RadixQueue {
            due: VecDeque::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: SimTime::ZERO,
            scheduled: 0,
            clamped: 0,
        }
    }

    /// Lifetime schedule/clamp counters.
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            scheduled: self.scheduled,
            clamped: self.clamped,
        }
    }

    /// Append `event` to its bucket relative to `last`.
    fn insert(&mut self, time: SimTime, event: E) {
        let diff = time.as_picos() ^ self.last.as_picos();
        if diff == 0 {
            self.due.push_back(event);
        } else {
            let k = 63 - diff.leading_zeros() as usize;
            self.buckets[k].push((time, event));
            self.occupied |= 1 << k;
        }
    }

    /// Move `last` to the earliest event of the lowest non-empty bucket
    /// and redistribute that bucket below it; a no-op when no event is
    /// pending. Only called with bucket 0 empty.
    fn advance(&mut self) {
        if self.occupied == 0 {
            return;
        }
        let k = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << k);
        let mut bucket = std::mem::take(&mut self.buckets[k]);
        self.last = bucket
            .iter()
            .map(|&(time, _)| time)
            .min()
            .expect("an occupied bucket holds an event");
        for (time, event) in bucket.drain(..) {
            self.insert(time, event);
        }
        // Every event landed strictly below `k`, so bucket `k` is
        // still empty: hand its allocation back for the next use.
        debug_assert!(self.buckets[k].is_empty(), "radix bucket {k} refilled");
        self.buckets[k] = bucket;
    }
}

impl<E> EventScheduler<E> for RadixQueue<E> {
    fn schedule(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.last,
            "event scheduled in the past: {} < {}",
            time,
            self.last
        );
        if time < self.last {
            self.clamped += 1;
        }
        self.scheduled += 1;
        self.insert(time.max(self.last), event);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() {
            self.advance();
        }
        self.due.pop_front().map(|event| (self.last, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = RadixQueue::new();
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
        let mut q = RadixQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        // Events joining a half-popped burst go behind it.
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        for i in 100..150 {
            q.schedule(t, i);
        }
        for i in 50..150 {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        let (now, ev) = q.pop().unwrap();
        assert_eq!((now, ev), (SimTime::from_secs(1), 1));
        q.schedule(now + SimDuration::from_secs(1), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(2), 2));
    }

    #[test]
    fn far_future_jumps() {
        let mut q = RadixQueue::new();
        // Gaps from one picosecond to the end of time land in the
        // lowest and the highest buckets and everything between.
        let times = [
            SimTime::from_picos(1),
            SimTime::from_secs(1),
            SimTime::from_secs(3601),
            SimTime::from_secs(7201),
            SimTime::from_secs(30 * 24 * 3600 + 1),
            SimTime::MAX,
        ];
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn redistribution_preserves_order_and_stability() {
        let mut q = RadixQueue::new();
        // A same-instant burst in one upper bucket, interleaved with
        // earlier events that pull it down level by level; FIFO must
        // survive every move.
        let t = SimTime::from_secs(5);
        for i in 0..2000u32 {
            q.schedule(t, i);
            q.schedule(SimTime::from_millis(u64::from(i) + 1), u32::MAX);
        }
        for _ in 0..2000u32 {
            assert_eq!(q.pop().unwrap().1, u32::MAX);
        }
        for i in 0..2000u32 {
            assert_eq!(q.pop().unwrap(), (t, i));
        }
    }

    #[test]
    fn hundred_thousand_event_burst_is_fifo() {
        // One burst due at "now" (straight into bucket 0) and one due
        // later (moved into bucket 0 at once): neither may cost a scan
        // per pop, and both must pop in schedule order.
        let mut q = RadixQueue::new();
        let later = SimTime::from_secs(1);
        for i in 0..100_000u32 {
            q.schedule(SimTime::ZERO, i);
            q.schedule(later, i);
        }
        for t in [SimTime::ZERO, later] {
            for i in 0..100_000u32 {
                assert_eq!(q.pop().unwrap(), (t, i));
            }
        }
        assert!(q.pop().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_scheduling_is_counted_in_release() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.stats().clamped, 1);
        assert_eq!(q.pop().unwrap().0, SimTime::from_secs(10));
    }

    /// Randomized end-to-end mirror: interleaved schedules, same-instant
    /// bursts and pops against the flat queue must agree exactly. (The
    /// proptest in `tests/props.rs` explores this space further.)
    #[test]
    fn mirrors_flat_queue_under_random_interleaving() {
        let mut rng = SimRng::new(0xca1e_4da2);
        let mut radix = RadixQueue::new();
        let mut flat = EventQueue::new();
        let mut now = SimTime::ZERO;
        for step in 0..5000u64 {
            match rng.next_below(10) {
                0..=4 => {
                    // Gaps of 0 to 2^62 ps: every bucket level.
                    let bits = rng.next_below(63);
                    let t = now.saturating_add(SimDuration::from_picos(rng.next_below(1 << bits)));
                    radix.schedule(t, step);
                    flat.schedule(t, step);
                }
                5 => {
                    // A burst at now or the end of time.
                    let t = if rng.chance(0.5) { now } else { SimTime::MAX };
                    for i in 0..rng.next_below(8) {
                        radix.schedule(t, (step << 8) | i);
                        flat.schedule(t, (step << 8) | i);
                    }
                }
                _ => {
                    let a = radix.pop();
                    assert_eq!(a, flat.pop());
                    if let Some((t, _)) = a {
                        now = t;
                    }
                }
            }
        }
        loop {
            let a = radix.pop();
            assert_eq!(a, flat.pop());
            if a.is_none() {
                break;
            }
        }
        assert_eq!(radix.stats(), flat.stats());
    }

    /// Draining the queue in pop order and re-scheduling the rest into a
    /// fresh queue keeps the remaining pop sequence, also under later
    /// schedules: a trajectory resume relies on it.
    #[test]
    fn drained_events_rescheduled_into_a_fresh_queue_pop_identically() {
        let mut rng = SimRng::new(0x5e5_0de);
        let mut live = RadixQueue::new();
        let mut drained = RadixQueue::new();
        for q in [&mut live, &mut drained] {
            for i in 0..400u64 {
                q.schedule(SimTime::from_picos(1 + i % 37 * 1_000_003), i);
            }
            // One same-instant burst, and events past the time range.
            for i in 400..500u64 {
                q.schedule(SimTime::from_secs(1), i);
            }
            for i in 500..510u64 {
                q.schedule(SimTime::MAX, i);
            }
        }
        // Pop partway: through the early events and half the burst.
        let mut now = SimTime::ZERO;
        for _ in 0..450 {
            let a = live.pop().unwrap();
            assert_eq!(drained.pop().unwrap(), a);
            now = a.0;
        }
        assert_eq!(now, SimTime::from_secs(1));
        let mut pending = Vec::new();
        while let Some(entry) = drained.pop() {
            pending.push(entry);
        }
        assert_eq!(pending.len(), 60);
        let mut resumed = RadixQueue::new();
        for (t, ev) in pending {
            resumed.schedule(t, ev);
        }
        // Both go on with the same schedules, ties at "now" included.
        for i in 510..1000u64 {
            if rng.chance(0.5) {
                let t = now.saturating_add(SimDuration::from_picos(rng.next_below(4)));
                live.schedule(t, i);
                resumed.schedule(t, i);
            } else {
                let a = live.pop();
                assert_eq!(a, resumed.pop());
                if let Some((t, _)) = a {
                    now = t;
                }
            }
        }
        loop {
            let a = live.pop();
            assert_eq!(a, resumed.pop());
            if a.is_none() {
                break;
            }
        }
    }
}
