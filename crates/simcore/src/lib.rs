//! # vgrid-simcore
//!
//! Deterministic discrete-event simulation (DES) core for the `vgrid`
//! desktop-grid virtualization testbed.
//!
//! This crate provides the time base, event queue, deterministic random
//! number generation and statistics toolkit that every other `vgrid` crate
//! builds on. Nothing in here knows about CPUs, operating systems or
//! virtual machines; it is a general-purpose, allocation-light DES kernel.
//!
//! ## Determinism contract
//!
//! Every simulation built on this crate is a pure function of its
//! configuration and its seed:
//!
//! * [`SimTime`] is an integer picosecond counter — no floating point drift
//!   in the time base itself.
//! * [`EventQueue`] breaks ties by insertion sequence number, so two events
//!   scheduled for the same instant always pop in the order they were
//!   pushed (after an optional same-instant rank). [`RadixQueue`], the
//!   monotone radix heap the grid campaign loop runs on, has no ranks
//!   and pops in `(time, schedule order)`, the flat queue's order for
//!   rank-0 events; both implement [`EventScheduler`].
//! * [`rng::SimRng`] is a seedable xoshiro256++ generator with SplitMix64
//!   seeding; streams can be forked deterministically per component.
//!
//! ## Example
//!
//! ```
//! use vgrid_simcore::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_millis(5), "later");
//! q.schedule(SimTime::from_millis(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::from_millis(1));
//! ```

#![forbid(unsafe_code)]

pub mod calendar;
pub mod detmap;
pub mod event;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use calendar::RadixQueue;
pub use detmap::{DetMap, DetSet};
pub use event::{EventQueue, EventQueueStats, EventScheduler};
pub use parallel::parallel_map;
pub use rng::SimRng;
pub use stats::{
    geometric_mean, repetition_seed, ConfidenceInterval, EventLoopStats, OnlineStats,
    RepetitionRunner, Summary, DEFAULT_BASE_SEED,
};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceCategory, TraceEvent, TraceSink};
