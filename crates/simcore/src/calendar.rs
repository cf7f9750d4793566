//! A monotone radix-heap future-event calendar.
//!
//! [`RadixQueue`] is a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
//! 1990) over picosecond times. It relies on the property every queue
//! here already has: nothing is ever scheduled before the last popped
//! time (the past clamp enforces it in release builds). In exchange an
//! event moves between buckets at most 64 times over its life, however
//! widely the pending times spread, and only events due at the same
//! instant are ever compared by a heap. Pops reproduce
//! [`EventQueue`](crate::EventQueue)'s `(time, rank, seq)` order
//! *exactly*, including same-instant rank ordering and FIFO stability,
//! which is what lets the grid layer swap scheduling substrates without
//! moving a single bit (DESIGN.md §12).
//!
//! ## Ordering argument
//!
//! There are 65 buckets. Bucket 0 holds the events due exactly at
//! `last`, the last popped time. An event due at `t > last` sits in
//! bucket `k + 1`, where `k` is the highest bit in which `t` and `last`
//! differ. Such an event agrees with `last` above bit `k` and has bit
//! `k` set where `last` has it clear, so it is later than every event
//! in a lower bucket. A pop therefore takes bucket 0's head or, when
//! bucket 0 is empty, the earliest live event of the lowest non-empty
//! bucket. That time becomes the new `last`, and the bucket's events
//! move to buckets strictly below it (they agree with the new `last`
//! on every bit the old bucket index covered). An event only ever moves
//! down, so it moves at most 64 times over its life.
//!
//! Bucket 0 is a binary heap on `(rank, seq)`: a burst of events at one
//! instant pops in rank-then-FIFO order at O(log n) a pop. Cancellation
//! is lazy: tombstones are dropped when a pop or a bucket move reaches
//! them, and [`EventScheduler::len`] and [`EventScheduler::peek_time`]
//! never count them.

use crate::detmap::DetSet;
use crate::event::{EventQueueStats, EventScheduler, ScheduledEvent};
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A deterministic future-event list for monotone schedules: at most 64
/// bucket moves per event over its life.
///
/// Drop-in replacement for [`EventQueue`](crate::EventQueue) behind
/// [`EventScheduler`]: identical pop order, identical past-scheduling
/// clamp semantics (debug panic, release clamp-and-count), identical
/// stats.
#[derive(Debug)]
pub struct RadixQueue<E> {
    /// Bucket 0: events due exactly at `last`, ordered by `(rank, seq)`.
    due: BinaryHeap<ScheduledEvent<E>>,
    /// Buckets 1-64: `buckets[k]` holds the events whose highest bit
    /// differing from `last` is bit `k`.
    buckets: [Vec<ScheduledEvent<E>>; 64],
    /// Bit `k` set iff `buckets[k]` is non-empty.
    occupied: u64,
    last: SimTime,
    next_seq: u64,
    /// Pending non-cancelled events.
    live: usize,
    cancelled: DetSet<u64>,
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
            due: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: SimTime::ZERO,
            next_seq: 0,
            live: 0,
            cancelled: DetSet::new(),
            clamped: 0,
        }
    }

    /// Drop all pending events, keeping the current time.
    pub fn clear(&mut self) {
        self.due.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
        self.cancelled.clear();
        self.live = 0;
    }

    /// Put `ev` in its bucket relative to `last`.
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let diff = ev.time.as_picos() ^ self.last.as_picos();
        if diff == 0 {
            self.due.push(ev);
        } else {
            let k = 63 - diff.leading_zeros() as usize;
            self.buckets[k].push(ev);
            self.occupied |= 1 << k;
        }
    }

    /// Move `last` to the earliest live event of the lowest non-empty
    /// bucket and redistribute that bucket below it. Returns `false`
    /// when no live event is pending. Only called with bucket 0 empty.
    fn advance(&mut self) -> bool {
        while self.occupied != 0 {
            let k = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << k);
            let mut bucket = std::mem::take(&mut self.buckets[k]);
            if !self.cancelled.is_empty() {
                bucket.retain(|ev| !self.cancelled.remove(&ev.seq));
            }
            let Some(last) = bucket.iter().map(|ev| ev.time).min() else {
                continue;
            };
            self.last = last;
            for ev in bucket.drain(..) {
                self.insert(ev);
            }
            // Every event landed strictly below `k`, so bucket `k` is
            // still empty: hand its allocation back for the next use.
            debug_assert!(self.buckets[k].is_empty(), "radix bucket {k} refilled");
            self.buckets[k] = bucket;
            return true;
        }
        false
    }
}

impl<E> EventScheduler<E> for RadixQueue<E> {
    fn schedule_ranked(&mut self, time: SimTime, rank: u8, event: E) -> u64 {
        debug_assert!(
            time >= self.last,
            "event scheduled in the past: {} < {}",
            time,
            self.last
        );
        if time < self.last {
            self.clamped += 1;
        }
        let time = time.max(self.last);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.insert(ScheduledEvent {
            time,
            rank,
            seq,
            event,
        });
        seq
    }

    fn cancel(&mut self, seq: u64) -> bool {
        if seq >= self.next_seq || !self.cancelled.insert(seq) {
            return false;
        }
        self.live = self.live.saturating_sub(1);
        true
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            while let Some(ev) = self.due.pop() {
                if self.cancelled.is_empty() || !self.cancelled.remove(&ev.seq) {
                    self.live = self.live.saturating_sub(1);
                    return Some((ev.time, ev.event));
                }
            }
            if !self.advance() {
                // Anything still tombstoned names an event that is gone.
                self.cancelled.clear();
                return None;
            }
        }
    }

    /// Read-only, so it scans the lowest bucket holding a live event —
    /// hot loops should pop instead.
    fn peek_time(&self) -> Option<SimTime> {
        let live = |ev: &&ScheduledEvent<E>| !self.cancelled.contains(&ev.seq);
        if self.due.iter().any(|ev| live(&ev)) {
            return Some(self.last);
        }
        let mut bits = self.occupied;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if let Some(t) = self.buckets[k].iter().filter(live).map(|ev| ev.time).min() {
                return Some(t);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.live
    }

    fn now(&self) -> SimTime {
        self.last
    }

    fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            scheduled: self.next_seq,
            clamped: self.clamped,
        }
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
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_schedule_pop() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(1), 1));
        q.schedule(q.now() + SimDuration::from_secs(1), 2);
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(2), 2));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = RadixQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(5), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(2)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(2));
    }

    #[test]
    fn ranks_order_same_instant_events() {
        let mut q = RadixQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule_ranked(t, 2, "slice-core1");
        q.schedule_ranked(t, 0, "wake");
        q.schedule_ranked(t, 1, "slice-core0");
        q.schedule(t, "disk");
        assert_eq!(q.pop().unwrap().1, "wake");
        assert_eq!(q.pop().unwrap().1, "disk");
        assert_eq!(q.pop().unwrap().1, "slice-core0");
        assert_eq!(q.pop().unwrap().1, "slice-core1");
    }

    #[test]
    fn rank_does_not_override_time() {
        let mut q = RadixQueue::new();
        q.schedule_ranked(SimTime::from_secs(2), 0, "later");
        q.schedule_ranked(SimTime::from_secs(1), 9, "sooner");
        assert_eq!(q.pop().unwrap().1, "sooner");
        assert_eq!(q.pop().unwrap().1, "later");
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
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_skips_events_and_keeps_peek_accurate() {
        let mut q = RadixQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(2), "b");
        let c = q.schedule(SimTime::from_secs(3), "c");
        assert_eq!(q.len(), 3);
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert!(q.cancel(c));
        assert!(!q.cancel(c));
        assert!(!q.cancel(999));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        let _ = b;
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn len_and_clear() {
        let mut q = RadixQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
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

    /// Randomized end-to-end mirror: interleaved schedules, pops, and
    /// cancellations against the flat queue must agree exactly. (The
    /// proptest in `tests/props.rs` explores this space further.)
    #[test]
    fn mirrors_flat_queue_under_random_interleaving() {
        let mut rng = SimRng::new(0xca1e_4da2);
        let mut radix = RadixQueue::new();
        let mut flat = EventQueue::new();
        // Live seqs with their payloads, so cancellation only ever
        // targets genuinely pending events (the documented contract).
        let mut pending: Vec<(u64, u64)> = Vec::new();
        for step in 0..5000u64 {
            match rng.next_below(10) {
                0..=5 => {
                    // Gaps of 0 to 2^62 ps: every bucket level.
                    let bits = rng.next_below(63);
                    let dt = SimDuration::from_picos(rng.next_below(1 << bits));
                    let t = radix.now().saturating_add(dt);
                    let rank = rng.next_below(3) as u8;
                    let a = radix.schedule_ranked(t, rank, step);
                    let b = flat.schedule_ranked(t, rank, step);
                    assert_eq!(a, b);
                    pending.push((a, step));
                }
                6..=7 => {
                    assert_eq!(radix.peek_time(), flat.peek_time());
                    let a = radix.pop();
                    let b = flat.pop();
                    assert_eq!(a, b);
                    if let Some((_, payload)) = a {
                        pending.retain(|&(_, p)| p != payload);
                    }
                }
                _ => {
                    if !pending.is_empty() {
                        let i = rng.next_below(pending.len() as u64) as usize;
                        let (seq, _) = pending.swap_remove(i);
                        assert_eq!(radix.cancel(seq), flat.cancel(seq));
                        assert_eq!(radix.peek_time(), flat.peek_time());
                    }
                }
            }
            assert_eq!(radix.len(), flat.len());
            assert_eq!(radix.now(), flat.now());
        }
        loop {
            let a = radix.pop();
            let b = flat.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(radix.stats(), flat.stats());
    }
}
