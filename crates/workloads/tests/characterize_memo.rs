//! The process-wide characterization memo returns, for every kernel
//! family the experiments use, exactly what a fresh run of the kernel
//! measures — including to threads racing on a cold key.

use std::sync::Barrier;
use vgrid_machine::ops::OpBlock;
use vgrid_workloads::corpus;
use vgrid_workloads::counter::OpCounter;
use vgrid_workloads::einstein::{EinsteinBody, EinsteinKernel};
use vgrid_workloads::kernel::{characterize, characterize_uncached, Characterization, Kernel};
use vgrid_workloads::lzma::{self, LzmaConfig};
use vgrid_workloads::nbench::NBenchSuite;
use vgrid_workloads::sevenz::{LzmaRoundTrip, SevenZConfig, SevenZKernel};

fn assert_same_block(memo: &OpBlock, fresh: &OpBlock, what: &str) {
    assert_eq!(memo.label, fresh.label, "{what}: label");
    assert_eq!(memo.counts, fresh.counts, "{what}: counts");
    assert_eq!(memo.working_set, fresh.working_set, "{what}: working set");
    assert_eq!(
        memo.locality.to_bits(),
        fresh.locality.to_bits(),
        "{what}: locality"
    );
}

fn assert_same(memo: &Characterization, fresh: &Characterization, what: &str) {
    assert_same_block(&memo.block, &fresh.block, what);
    assert_eq!(memo.checksum, fresh.checksum, "{what}: checksum");
}

/// A cold lookup and a warm hit both equal a fresh run.
fn assert_memo_matches(kernel: &dyn Kernel) -> Characterization {
    let what = format!("{kernel:?}");
    let fresh = characterize_uncached(kernel);
    assert_same(&characterize(kernel), &fresh, &what);
    assert_same(&characterize(kernel), &fresh, &what);
    fresh
}

#[test]
fn memoized_characterizations_match_fresh_runs() {
    // NBench, standard (fig5/6 and the ablations at paper fidelity) and
    // small (fast fidelity), through the suite's own call site.
    for (small, suite) in [
        (false, NBenchSuite::standard()),
        (true, NBenchSuite::small()),
    ] {
        for ((_, kernel), test) in NBenchSuite::kernels(small).iter().zip(&suite.tests) {
            let fresh = assert_memo_matches(kernel.as_ref());
            assert_same_block(&test.block, &fresh.block, test.name);
        }
    }

    // Einstein: the host-under-VM guest at fast and paper fidelity, then
    // the grid's science block.
    let einstein = [
        (4_096, 4, 0xe5e5),
        (262_144, 16, 0xe5e5),
        (4_096, 4, 0x617d),
    ];
    for (fft_len, templates, seed) in einstein {
        let kernel = EinsteinKernel {
            fft_len,
            templates,
            seed,
        };
        let fresh = assert_memo_matches(&kernel);
        let (body, _) = EinsteinBody::new(&kernel, None);
        let relabelled = fresh.block.with_label("einstein-chunk");
        assert_same_block(body.block(), &relabelled, "einstein chunk");
    }

    // 7z: fig1/abl-bt (one thread) and fig78/abl-lzma (host runs), each
    // at fast and paper fidelity. `ops_per_iter` and `packed_len` must
    // equal what the compressor itself reports.
    for (threads, corpus_len, depth) in [
        (1, 48 * 1024, 8),
        (1, 256 * 1024, 32),
        (2, 32 * 1024, 8),
        (2, 128 * 1024, 16),
    ] {
        let cfg = SevenZConfig {
            threads,
            corpus_len,
            depth,
            ..Default::default()
        };
        let fresh = assert_memo_matches(&LzmaRoundTrip::of(&cfg));
        let kernel = SevenZKernel::characterize(&cfg);
        assert_same_block(&kernel.block, &fresh.block, "7z");

        let data = corpus::seven_zip_bench(cfg.corpus_len, cfg.seed);
        let mut ops = OpCounter::new();
        let packed = lzma::compress(
            &data,
            LzmaConfig {
                depth: cfg.depth,
                ..Default::default()
            },
            &mut ops,
        );
        lzma::decompress(&packed, data.len(), &mut ops);
        assert_eq!(kernel.ops_per_iter, ops.total(), "7z ops per iteration");
        assert_eq!(kernel.packed_len, packed.len(), "7z packed length");
    }
}

#[test]
fn racing_threads_get_identical_characterizations() {
    // A key no other test touches, so every thread starts cold.
    let kernel = EinsteinKernel {
        fft_len: 2048,
        templates: 3,
        seed: 0x7ace,
    };
    let threads = 4;
    let start = Barrier::new(threads);
    let results: Vec<Characterization> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    characterize(&kernel)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("characterizing thread panicked"))
            .collect()
    });
    let fresh = characterize_uncached(&kernel);
    for c in &results {
        assert_same(c, &fresh, "raced einstein");
    }
}
