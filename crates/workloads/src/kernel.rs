//! The benchmark-kernel abstraction.
//!
//! A [`Kernel`] is a real, runnable algorithm that counts its abstract
//! operations while it executes. [`characterize`] turns one run of a
//! kernel into the [`OpBlock`] the simulated machine executes — the
//! bridge between "we really implemented the benchmark" and "the
//! simulator times it mechanistically".
//!
//! A characterization is a pure function of the kernel's parameters, so
//! [`characterize`] runs each distinct kernel once per process and
//! serves later calls from a process-wide memo; [`characterize_uncached`]
//! always runs the kernel.

use crate::counter::OpCounter;
use std::sync::Mutex;
use vgrid_machine::ops::OpBlock;
use vgrid_simcore::DetMap;

/// A real benchmark kernel.
///
/// The `Debug` rendering must show every parameter that affects
/// [`Kernel::run`], [`Kernel::working_set`] or [`Kernel::locality`]: it
/// is the kernel's identity in the [`characterize`] memo.
pub trait Kernel: std::fmt::Debug {
    /// Short name ("numeric-sort", "fourier", ...).
    fn name(&self) -> &'static str;

    /// Execute the real algorithm once, counting work into `ops`.
    /// Returns a checksum so the compiler cannot elide the computation
    /// and tests can assert determinism.
    fn run(&self, ops: &mut OpCounter) -> u64;

    /// Bytes of data the kernel touches repeatedly.
    fn working_set(&self) -> u64;

    /// Fraction of accesses that hit L1 regardless of working-set size
    /// (see `vgrid-machine`'s cache model).
    fn locality(&self) -> f64;
}

/// Characterization of one kernel run: its op block plus the checksum.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// The machine-model block equivalent to one `run()`.
    pub block: OpBlock,
    /// The checksum returned by the run.
    pub checksum: u64,
}

/// Characterizations by the kernel's full `Debug` rendering (type name
/// and every parameter). Holds one entry per distinct kernel a process
/// characterizes — about fifteen for the whole paper report.
static CHARACTERIZATION_MEMO: Mutex<Option<DetMap<String, Characterization>>> = Mutex::new(None);

/// Run the kernel once and package the measured work as an [`OpBlock`],
/// memoized process-wide: later calls with an equal kernel return a
/// clone of the first result, bit-identical to a fresh run.
pub fn characterize(kernel: &dyn Kernel) -> Characterization {
    let key = format!("{kernel:?}");
    {
        let guard = CHARACTERIZATION_MEMO
            .lock()
            .expect("workloads::kernel::CHARACTERIZATION_MEMO poisoned");
        if let Some(c) = guard.as_ref().and_then(|memo| memo.get(&key)) {
            return c.clone();
        }
    }
    // Run outside the lock: kernels take up to a few hundred ms, and
    // threads characterizing other kernels must not wait on this one.
    // Threads racing on the same cold key each compute the same value.
    let fresh = characterize_uncached(kernel);
    let mut guard = CHARACTERIZATION_MEMO
        .lock()
        .expect("workloads::kernel::CHARACTERIZATION_MEMO poisoned");
    guard
        .get_or_insert_with(DetMap::new)
        .or_insert_with(key, || fresh)
        .clone()
}

/// Run the kernel once and package the measured work as an [`OpBlock`],
/// bypassing the memo (the reference [`characterize`] is checked
/// against).
pub fn characterize_uncached(kernel: &dyn Kernel) -> Characterization {
    let mut ops = OpCounter::new();
    let checksum = kernel.run(&mut ops);
    let block = OpBlock {
        label: kernel.name().to_string(),
        counts: ops.to_counts(),
        working_set: kernel.working_set(),
        locality: kernel.locality(),
    };
    Characterization { block, checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Toy;
    impl Kernel for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn run(&self, ops: &mut OpCounter) -> u64 {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            ops.int(2000);
            acc
        }
        fn working_set(&self) -> u64 {
            64
        }
        fn locality(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn characterize_captures_run() {
        let c = characterize_uncached(&Toy);
        assert_eq!(c.block.label, "toy");
        assert_eq!(c.block.counts.int_ops, 2000);
        assert_eq!(c.block.working_set, 64);
        // Deterministic checksum.
        assert_eq!(c.checksum, characterize_uncached(&Toy).checksum);
    }
}
