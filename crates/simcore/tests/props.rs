//! Property-based tests of the DES core's invariants.

use proptest::prelude::*;
use vgrid_simcore::{EventQueue, EventScheduler, RadixQueue, SimDuration, SimRng, SimTime};

/// One step of an interleaved schedule/pop workload, applied
/// identically to both queue implementations.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at `now + dt` picoseconds (saturating at
    /// `SimTime::MAX`).
    Schedule(u64),
    /// Schedule `n` events at one instant `now + dt`.
    Burst { dt: u64, n: u8 },
    /// Pop the earliest event.
    Pop,
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
    // burst, the rest pops. One schedule in eight has gap 0, so
    // schedules often join a half-popped burst at "now".
    any::<[u64; 2]>().prop_map(|[bits, wide]| match bits % 10 {
        0..=3 => QueueOp::Schedule(gap(bits >> 8, wide)),
        4 => QueueOp::Burst {
            dt: gap(bits >> 8, wide),
            n: (1 + (bits >> 32) % 16) as u8,
        },
        _ => QueueOp::Pop,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The radix heap is observationally identical to the flat queue:
    /// arbitrary interleaved schedules, same-instant bursts (joined by
    /// gap-0 schedules between their pops), saturating times and pops
    /// produce the same pop order (same-instant FIFO included) and the
    /// same stats.
    #[test]
    fn radix_queue_mirrors_flat_queue(
        ops in proptest::collection::vec(queue_op(), 1..120)
    ) {
        let mut radix: RadixQueue<u64> = RadixQueue::new();
        let mut flat: EventQueue<u64> = EventQueue::new();
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        for op in &ops {
            let (dt, n) = match *op {
                QueueOp::Schedule(dt) => (dt, 1),
                QueueOp::Burst { dt, n } => (dt, n),
                QueueOp::Pop => {
                    let a = radix.pop();
                    prop_assert_eq!(a, flat.pop());
                    if let Some((t, _)) = a {
                        now = t;
                    }
                    continue;
                }
            };
            let t = now.saturating_add(SimDuration::from_picos(dt));
            for _ in 0..n {
                radix.schedule(t, payload);
                flat.schedule(t, payload);
                payload += 1;
            }
        }
        // Drain: the full residual pop order must agree.
        loop {
            let a = radix.pop();
            prop_assert_eq!(a, flat.pop());
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(radix.stats(), flat.stats());
    }
}
