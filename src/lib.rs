//! # vgrid — a desktop-grid virtualization testbed
//!
//! A deterministic, full-system reproduction of *"Evaluating the
//! Performance and Intrusiveness of Virtual Machines for Desktop Grid
//! Computing"* (Domingues, Araujo & Silva, 2009) as a Rust workspace.
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`simcore`] — discrete-event core: time, events, RNG, statistics.
//! * [`simobs`] — deterministic observability: metrics registry,
//!   Chrome-trace export, run manifests.
//! * [`machine`] — the Core 2 Duo testbed hardware models.
//! * [`os`] — the Windows-XP-like host kernel simulator.
//! * [`vmm`] — the four calibrated monitors and the nested guest kernel.
//! * [`workloads`] — real benchmark kernels (LZMA, matmul, NBench, ...).
//! * [`timeref`] — guest-clock imprecision + the UDP time reference.
//! * [`grid`] — the BOINC-like volunteer-computing substrate.
//! * [`core`] — the experiment harness reproducing every figure.
//!
//! ```
//! use vgrid::core::{experiments, Fidelity};
//! let fig = experiments::memfoot::run();
//! assert_eq!(fig.rows.len(), 4); // four monitors, 300 MB each
//! let _ = Fidelity::Fast;
//! ```

#![forbid(unsafe_code)]

pub mod args;
pub mod out;

pub use vgrid_core as core;
pub use vgrid_grid as grid;
pub use vgrid_machine as machine;
pub use vgrid_os as os;
pub use vgrid_serve as serve;
pub use vgrid_simcore as simcore;
pub use vgrid_simobs as simobs;
pub use vgrid_timeref as timeref;
pub use vgrid_vmm as vmm;
pub use vgrid_workloads as workloads;
