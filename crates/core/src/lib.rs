//! # vgrid-core
//!
//! The `vgrid` testbed: a deterministic, full-system reproduction of
//! *"Evaluating the Performance and Intrusiveness of Virtual Machines
//! for Desktop Grid Computing"* (Domingues, Araujo & Silva, 2009).
//!
//! This crate is the experiment harness: it composes the hardware models
//! (`vgrid-machine`), the host OS (`vgrid-os`), the four calibrated
//! monitors (`vgrid-vmm`), the real benchmark kernels
//! (`vgrid-workloads`), the timing methodology (`vgrid-timeref`) and the
//! volunteer-grid substrate (`vgrid-grid`) into the paper's experiments,
//! figure by figure.
//!
//! ## Quick start
//!
//! ```
//! use vgrid_core::{experiments, Fidelity};
//!
//! // Reproduce Figure 1 (7z guest slowdown) at test fidelity.
//! let fig1 = experiments::fig1::run(Fidelity::Fast);
//! println!("{}", fig1.render());
//! assert!(fig1.value_of("QEMU").unwrap() > fig1.value_of("VMwarePlayer").unwrap());
//! ```
//!
//! ## Layout
//!
//! * [`experiments`] — one module per paper artifact (fig1..fig8,
//!   tab-mem), plus ablations of the paper's prose claims and extension
//!   experiments (grid deployment, guest-clock methodology).
//! * [`engine`] — the unified experiment engine: declarative trial
//!   specs, one parallel repetition path, cached shared baselines.
//! * [`obs`] — observability capture: merged metric snapshots,
//!   Chrome-trace export and run manifests for `vgrid run/trace`.
//! * [`testbed`] — fidelity levels and native/guest run helpers.
//! * [`figures`] — result containers, ASCII rendering, JSON.
//! * [`calibration`] — the paper-vs-measured comparison table.

#![forbid(unsafe_code)]

pub mod calibration;
pub mod engine;
pub mod experiments;
pub mod figures;
pub mod obs;
pub mod testbed;

pub use engine::{loop_totals, Engine, Environment, KernelSpec, TrialResult, TrialSpec};
pub use figures::{FigureResult, FigureRow};
pub use testbed::Fidelity;
