//! The 7z benchmark (`7z b`), the paper's integer-CPU benchmark.
//!
//! 7-Zip's benchmark mode repeatedly compresses and decompresses a
//! generated in-memory corpus with LZMA and reports a MIPS rating and the
//! percentage of CPU that was available to the program; `-mmt N` sets the
//! number of worker threads (the knob the paper uses in Section 4.2.3 to
//! probe host intrusiveness with 1 and 2 threads).
//!
//! Here the kernel is our real LZMA implementation (`crate::lzma`),
//! characterized once per process for each corpus and match-finder
//! depth ([`LzmaRoundTrip`]); the [`SevenZBody`] then drives
//! the simulated machine with the measured instruction mix and computes
//! the same two metrics from simulated time.

use crate::corpus;
use crate::counter::OpCounter;
use crate::kernel::{characterize, Kernel};
use crate::lzma::{self, LzmaConfig};
use std::cell::RefCell;
use std::rc::Rc;
use vgrid_machine::ops::OpBlock;
use vgrid_os::{Action, ActionResult, Priority, ThreadBody, ThreadCtx, ThreadId};
use vgrid_simcore::{SimDuration, SimTime};

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct SevenZConfig {
    /// Worker threads (`-mmt`).
    pub threads: u32,
    /// Corpus size compressed per iteration.
    pub corpus_len: usize,
    /// Match-finder depth.
    pub depth: u32,
    /// How long each worker iterates, in simulated time.
    pub duration: SimDuration,
    /// Corpus seed.
    pub seed: u64,
}

impl Default for SevenZConfig {
    fn default() -> Self {
        SevenZConfig {
            threads: 1,
            corpus_len: 256 * 1024,
            depth: 32,
            duration: SimDuration::from_secs(5),
            seed: 0x7a7a,
        }
    }
}

/// One benchmark iteration as a [`Kernel`]: LZMA-compress the generated
/// corpus, decompress it and check the bytes come back. Only the
/// parameters that shape this work are fields, so configurations that
/// differ in threads or duration share one characterization.
#[derive(Debug, Clone)]
pub struct LzmaRoundTrip {
    /// Corpus size compressed per iteration.
    pub corpus_len: usize,
    /// Match-finder depth.
    pub depth: u32,
    /// Corpus seed.
    pub seed: u64,
}

impl LzmaRoundTrip {
    /// The round trip one iteration of `cfg` performs.
    pub fn of(cfg: &SevenZConfig) -> Self {
        LzmaRoundTrip {
            corpus_len: cfg.corpus_len,
            depth: cfg.depth,
            seed: cfg.seed,
        }
    }
}

impl Kernel for LzmaRoundTrip {
    fn name(&self) -> &'static str {
        "7z-bench"
    }

    /// Returns the compressed length.
    fn run(&self, ops: &mut OpCounter) -> u64 {
        let data = corpus::seven_zip_bench(self.corpus_len, self.seed);
        let packed = lzma::compress(
            &data,
            LzmaConfig {
                depth: self.depth,
                ..Default::default()
            },
            ops,
        );
        let restored = lzma::decompress(&packed, data.len(), ops);
        assert_eq!(restored, data, "compressor kernel must roundtrip");
        packed.len() as u64
    }

    fn working_set(&self) -> u64 {
        // LZMA benchmark working set: corpus + hash chains (~8 bytes per
        // position) + head table.
        (self.corpus_len * 9 + (1 << 18)) as u64
    }

    fn locality(&self) -> f64 {
        // The head table and the recent window are very hot, so most
        // accesses are L1 hits; the chain walks provide the cold tail.
        0.9
    }
}

/// One characterized compress+decompress iteration.
#[derive(Debug, Clone)]
pub struct SevenZKernel {
    /// The machine block for one iteration.
    pub block: OpBlock,
    /// Abstract operations per iteration (the "instructions" MIPS counts).
    pub ops_per_iter: u64,
    /// Compressed size achieved (sanity/reporting).
    pub packed_len: usize,
    /// Solo duration of one iteration on the reference testbed core.
    pub nominal_solo: SimDuration,
}

impl SevenZKernel {
    /// Characterize one iteration of `cfg` (the real compressor runs once
    /// per distinct [`LzmaRoundTrip`] per process; see [`characterize`]).
    pub fn characterize(cfg: &SevenZConfig) -> SevenZKernel {
        let c = characterize(&LzmaRoundTrip::of(cfg));
        let nominal_solo = vgrid_machine::MachineSpec::core2_duo_6600()
            .cpu_model()
            .solo_estimate(&c.block)
            .duration;
        SevenZKernel {
            // Round-trip blocks carry no kernel-mode ops, so the block
            // total is the counter's total.
            ops_per_iter: c.block.counts.total(),
            packed_len: c.checksum as usize,
            block: c.block,
            nominal_solo,
        }
    }
}

/// Results of a benchmark run.
#[derive(Debug, Clone, Default)]
pub struct SevenZReport {
    /// Aggregate MIPS: abstract mega-ops per wall second across threads.
    pub mips: f64,
    /// CPU usage percentage (100 per fully-used core, as 7z reports).
    pub cpu_usage_pct: f64,
    /// Iterations completed across all threads.
    pub iterations: u64,
    /// Wall time of the measured window.
    pub wall: SimDuration,
    /// True once the run finished.
    pub complete: bool,
}

/// Shared accumulation between worker bodies and the coordinator.
#[derive(Debug, Default)]
struct Shared {
    iterations: u64,
    cpu_time: SimDuration,
    workers_done: u32,
}

/// Fraction of each iteration's nominal time a multithreaded worker
/// spends blocked on the coder pipeline's synchronization. 7z's
/// multithreaded LZMA splits match finding and coding across threads
/// with bounded queues between them; the resulting stalls are why the
/// paper's 2-thread no-VM run reports 180 % CPU rather than 200 %
/// (Section 4.2.3 attributes the missing 20 % to "the limitations and
/// overhead of the hardware ... OS and of the multithreading
/// subsystem").
const MT_SYNC_FRACTION: f64 = 0.105;

/// Worker: loops the kernel block until its deadline, then reports.
#[derive(Debug)]
struct SevenZWorker {
    block: Rc<OpBlock>,
    deadline: SimTime,
    shared: Rc<RefCell<Shared>>,
    started: bool,
    iters: u64,
    /// Pipeline-sync stall after each iteration (zero for 1 thread).
    sync_stall: SimDuration,
    stall_pending: bool,
}

impl ThreadBody for SevenZWorker {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.stall_pending {
            self.stall_pending = false;
            return Action::Sleep(self.sync_stall);
        }
        if self.started {
            self.iters += 1;
        }
        self.started = true;
        if ctx.now >= self.deadline {
            let mut sh = self.shared.borrow_mut();
            sh.iterations += self.iters;
            sh.cpu_time += ctx.cpu_time;
            sh.workers_done += 1;
            return Action::Exit;
        }
        if !self.sync_stall.is_zero() {
            self.stall_pending = true;
        }
        Action::Compute(self.block.clone())
    }
}

/// Coordinator: spawns workers, joins them, computes the report.
#[derive(Debug)]
pub struct SevenZBody {
    cfg: SevenZConfig,
    kernel: SevenZKernel,
    shared: Rc<RefCell<Shared>>,
    report: Rc<RefCell<SevenZReport>>,
    worker_prio: Priority,
    phase: u8,
    spawned: Vec<ThreadId>,
    joined: usize,
    t_start: Option<SimTime>,
}

impl SevenZBody {
    /// Create the coordinator body and its shared report. `worker_prio`
    /// is the scheduling class of the worker threads.
    pub fn new(cfg: SevenZConfig, worker_prio: Priority) -> (Self, Rc<RefCell<SevenZReport>>) {
        let kernel = SevenZKernel::characterize(&cfg);
        let report = Rc::new(RefCell::new(SevenZReport::default()));
        (
            SevenZBody {
                cfg,
                kernel,
                shared: Rc::new(RefCell::new(Shared::default())),
                report: report.clone(),
                worker_prio,
                phase: 0,
                spawned: Vec::new(),
                joined: 0,
                t_start: None,
            },
            report,
        )
    }

    /// The characterized kernel (for tests and calibration).
    pub fn kernel(&self) -> &SevenZKernel {
        &self.kernel
    }
}

impl ThreadBody for SevenZBody {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        match self.phase {
            0 => {
                // Spawn workers one by one.
                if self.t_start.is_none() {
                    self.t_start = Some(ctx.now);
                }
                if let ActionResult::Spawned(tid) = ctx.result {
                    self.spawned.push(tid);
                }
                if self.spawned.len() < self.cfg.threads as usize {
                    let deadline = self.t_start.expect("set above") + self.cfg.duration;
                    let sync_stall = if self.cfg.threads > 1 {
                        self.kernel
                            .nominal_solo
                            .scale(MT_SYNC_FRACTION / (1.0 - MT_SYNC_FRACTION))
                    } else {
                        SimDuration::ZERO
                    };
                    return Action::Spawn {
                        name: format!("7z-w{}", self.spawned.len()),
                        prio: self.worker_prio,
                        body: Box::new(SevenZWorker {
                            block: Rc::new(self.kernel.block.clone()),
                            deadline,
                            shared: self.shared.clone(),
                            started: false,
                            iters: 0,
                            sync_stall,
                            stall_pending: false,
                        }),
                    };
                }
                self.phase = 1;
                Action::Join {
                    thread: self.spawned[0],
                }
            }
            1 => {
                self.joined += 1;
                if self.joined < self.spawned.len() {
                    return Action::Join {
                        thread: self.spawned[self.joined],
                    };
                }
                // All workers done: compute the report.
                let sh = self.shared.borrow();
                let wall = ctx.now.since(self.t_start.expect("started"));
                let wall_s = wall.as_secs_f64().max(1e-9);
                let mut rep = self.report.borrow_mut();
                rep.iterations = sh.iterations;
                rep.wall = wall;
                rep.mips = sh.iterations as f64 * self.kernel.ops_per_iter as f64 / wall_s / 1e6;
                rep.cpu_usage_pct = 100.0 * sh.cpu_time.as_secs_f64() / wall_s;
                rep.complete = true;
                self.phase = 2;
                Action::Exit
            }
            _ => Action::Exit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_os::{System, SystemConfig};

    fn quick_cfg(threads: u32) -> SevenZConfig {
        SevenZConfig {
            threads,
            corpus_len: 24 * 1024,
            depth: 8,
            duration: SimDuration::from_millis(500),
            seed: 1,
        }
    }

    fn run(threads: u32) -> SevenZReport {
        let mut sys = System::new(SystemConfig::testbed(7));
        let (body, report) = SevenZBody::new(quick_cfg(threads), Priority::Normal);
        sys.spawn("7z", Priority::Normal, Box::new(body));
        assert!(sys.run_to_completion(SimTime::from_secs(30)));
        let r = report.borrow().clone();
        assert!(r.complete);
        r
    }

    #[test]
    fn kernel_characterization_is_real_and_deterministic() {
        let k1 = SevenZKernel::characterize(&quick_cfg(1));
        let k2 = SevenZKernel::characterize(&quick_cfg(1));
        assert_eq!(k1.ops_per_iter, k2.ops_per_iter);
        assert!(k1.packed_len > 0 && k1.packed_len < 24 * 1024);
        assert!(k1.ops_per_iter > 1_000_000, "compression is real work");
    }

    #[test]
    fn single_thread_uses_one_core() {
        let r = run(1);
        assert!(
            (90.0..=101.0).contains(&r.cpu_usage_pct),
            "usage {}",
            r.cpu_usage_pct
        );
        assert!(r.mips > 0.0);
    }

    #[test]
    fn two_threads_report_the_papers_180_percent() {
        // Pipeline synchronization caps 2-thread usage near the paper's
        // observed 180 % (Figure 7's no-VM control).
        let r = run(2);
        assert!(r.cpu_usage_pct > 165.0, "usage {}", r.cpu_usage_pct);
        assert!(r.cpu_usage_pct < 192.0, "usage {}", r.cpu_usage_pct);
    }

    #[test]
    fn dual_thread_mips_does_not_double() {
        // Shared L2/bus contention: 2-thread MIPS < 2x 1-thread MIPS.
        let r1 = run(1);
        let r2 = run(2);
        let speedup = r2.mips / r1.mips;
        assert!(speedup > 1.3, "speedup {speedup}");
        assert!(speedup < 1.95, "speedup {speedup}");
    }
}
