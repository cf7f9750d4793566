//! Property-based tests of the DES core's invariants.

use proptest::prelude::*;
use vgrid_simcore::{EventQueue, EventScheduler, RadixQueue, SimDuration, SimRng, SimTime};

/// One step of an interleaved schedule/pop/cancel workload, applied
/// identically to both queue implementations.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at `now + dt` picoseconds (saturating at
    /// `SimTime::MAX`) with a same-instant rank.
    Schedule { dt: u64, rank: u8 },
    /// Schedule `n` events at one instant `now + dt`, ranks drawn from
    /// `ranks` two bits at a time.
    Burst { dt: u64, n: u8, ranks: u64 },
    /// Pop the earliest live event (after comparing peeks).
    Pop,
    /// Cancel the pending event at this index into the live list (mod
    /// its length), then compare peeks; no-op when nothing is pending.
    Cancel(usize),
}

/// A gap in picoseconds: zero, or below `2^k` for a uniform `k` in
/// `0..=62` so every bucket level of the radix heap is hit, or the
/// whole range (saturating the sum at `SimTime::MAX`).
fn gap(bits: u64, wide: u64) -> u64 {
    match bits % 16 {
        0..=1 => 0,
        2 => u64::MAX,
        _ => wide % (1 << ((bits >> 4) % 63)),
    }
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // Decoded from two u64s so the in-tree shim's uniform generators
    // suffice: four in ten single schedules, one in ten a same-instant
    // burst, the rest pops and cancellations.
    any::<[u64; 2]>().prop_map(|[bits, wide]| match bits % 10 {
        0..=3 => QueueOp::Schedule {
            dt: gap(bits >> 8, wide),
            rank: ((bits >> 4) % 3) as u8,
        },
        4 => QueueOp::Burst {
            dt: gap(bits >> 8, wide),
            n: (1 + (bits >> 32) % 16) as u8,
            ranks: wide.rotate_left(17),
        },
        5..=7 => QueueOp::Pop,
        _ => QueueOp::Cancel((bits >> 8) as usize),
    })
}

proptest! {
    /// Events always pop in nondecreasing time order, FIFO within ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(
        times in proptest::collection::vec(0u64..1000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO within a tie");
            }
        }
    }

    /// Duration scaling is monotone in the factor and exact at 0 and 1.
    #[test]
    fn duration_scale_monotone(ps in 0u64..u64::MAX / 4, a in 0.0f64..2.0, b in 0.0f64..2.0) {
        let d = SimDuration::from_picos(ps);
        prop_assert_eq!(d.scale(1.0), d);
        prop_assert_eq!(d.scale(0.0), SimDuration::ZERO);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.scale(lo) <= d.scale(hi));
    }

    /// The radix heap is observationally identical to the flat queue:
    /// arbitrary interleaved schedules, bursts, pops, and cancellations
    /// produce the same seqs, the same peeks, the same pop order
    /// (same-instant rank/FIFO stability included), and the same stats.
    #[test]
    fn radix_queue_mirrors_flat_queue(
        ops in proptest::collection::vec(queue_op(), 1..120)
    ) {
        let mut radix: RadixQueue<u64> = RadixQueue::new();
        let mut flat: EventQueue<u64> = EventQueue::new();
        // Seqs still pending in both queues (cancellation may only
        // target pending events — the documented contract).
        let mut pending: Vec<(u64, u64)> = Vec::new();
        let mut payload = 0u64;
        for op in &ops {
            match *op {
                QueueOp::Schedule { dt, rank } => {
                    let t = radix.now().saturating_add(SimDuration::from_picos(dt));
                    let a = radix.schedule_ranked(t, rank, payload);
                    let b = flat.schedule_ranked(t, rank, payload);
                    prop_assert_eq!(a, b);
                    pending.push((a, payload));
                    payload += 1;
                }
                QueueOp::Burst { dt, n, ranks } => {
                    let t = radix.now().saturating_add(SimDuration::from_picos(dt));
                    for i in 0..n {
                        let rank = ((ranks >> (2 * i)) % 4) as u8;
                        let a = radix.schedule_ranked(t, rank, payload);
                        let b = flat.schedule_ranked(t, rank, payload);
                        prop_assert_eq!(a, b);
                        pending.push((a, payload));
                        payload += 1;
                    }
                }
                QueueOp::Pop => {
                    prop_assert_eq!(radix.peek_time(), flat.peek_time());
                    let a = radix.pop();
                    let b = flat.pop();
                    prop_assert_eq!(a, b);
                    if let Some((_, p)) = a {
                        pending.retain(|&(_, q)| q != p);
                    }
                }
                QueueOp::Cancel(i) => {
                    if !pending.is_empty() {
                        let (seq, _) = pending.swap_remove(i % pending.len());
                        prop_assert_eq!(radix.cancel(seq), flat.cancel(seq));
                        prop_assert_eq!(radix.peek_time(), flat.peek_time());
                    }
                }
            }
            prop_assert_eq!(radix.len(), flat.len());
            prop_assert_eq!(radix.is_empty(), flat.is_empty());
            prop_assert_eq!(radix.now(), flat.now());
        }
        // Drain: the full residual pop order must agree.
        loop {
            prop_assert_eq!(radix.peek_time(), flat.peek_time());
            let a = radix.pop();
            let b = flat.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(radix.stats(), flat.stats());
    }

    /// exponential() deviates are positive; chance() respects extremes.
    #[test]
    fn rng_distribution_sanity(seed in any::<u64>(), mean in 0.001f64..1e6) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert!(rng.exponential(mean) >= 0.0);
        }
        prop_assert!(!rng.chance(0.0));
        prop_assert!(rng.chance(1.0));
    }
}
