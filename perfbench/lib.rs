//! # vgrid-perfbench
//!
//! The repository's end-to-end benchmark. Each workload runs as a series
//! of sessions, each in a fresh process so the process-global caches
//! start cold as in a user's own call; the benchmark times each layer
//! from outside by wrapping the public calls the CLIs make. See
//! `README.md` beside this crate for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod compare;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod spec;
pub mod stats;
pub mod trace;

use std::time::Instant;

/// The FNV-1a digest every output check uses: the same function the
/// wire layer's `report_digest` and the manifests hash with.
pub use vgrid_simobs::fnv1a64;

/// The benchmark's one wall-clock read.
pub fn now() -> Instant {
    Instant::now() // simlint: allow(wall-clock) -- the benchmark measures host time
}

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperReport,
    GridMonth,
    GridChurn,
    GridMigrate,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperReport,
        Workload::GridMonth,
        Workload::GridChurn,
        Workload::GridMigrate,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperReport => "paper_report",
            Workload::GridMonth => "grid_month",
            Workload::GridChurn => "grid_churn",
            Workload::GridMigrate => "grid_migrate",
            Workload::ServeMix => "serve_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
