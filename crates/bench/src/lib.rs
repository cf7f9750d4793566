//! # vgrid-bench
//!
//! Criterion benchmarks of the simulator itself, driven by
//! `scripts/bench.sh`:
//!
//! - `benches/substrate.rs` microbenchmarks the hot layers (event loop,
//!   slice coalescing, contention solver, LZMA and FFT kernels);
//! - `benches/grid_scale.rs` times the grid substrate from 10k hosts up
//!   to the million-host month;
//! - `benches/fastforward.rs` times the grid-churn sweep with the
//!   trajectory cache off and on;
//! - `benches/grid_tradeoff.rs` prints the volunteer-project throughput
//!   figure and times regenerating it.
//!
//! `vgrid-report --paper` regenerates every paper figure; the
//! simulation outputs these benches once pinned live in
//! `tests/sim_output_pins.rs`.

#![forbid(unsafe_code)]

use criterion::Criterion;
use vgrid_core::FigureResult;

/// Print a figure once, then benchmark regenerating it.
pub fn bench_figure<F>(c: &mut Criterion, name: &str, f: F)
where
    F: Fn() -> FigureResult,
{
    let fig = f();
    println!("\n{}", fig.render());
    let mut group = c.benchmark_group("reproduce");
    group.sample_size(10);
    group.bench_function(name, |b| b.iter(&f));
    group.finish();
}
