//! Extension: volunteer-project throughput.
//!
//! Prints the reproduced figure, then benchmarks the simulator's
//! wall-clock cost of regenerating it. The migration-policy rows this
//! target once recorded are pinned in `tests/sim_output_pins.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use vgrid_bench::bench_figure;
use vgrid_core::{experiments, Fidelity};

fn bench(c: &mut Criterion) {
    bench_figure(c, "grid_tradeoff", || {
        experiments::gridx::run(Fidelity::Fast)
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
