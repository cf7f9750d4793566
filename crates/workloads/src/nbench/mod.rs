//! The NBench/ByteMark suite.
//!
//! Ten real kernels grouped into the three indexes the Linux port of
//! BYTEmark reports — exactly the tool the paper runs on the host OS
//! (Section 4.2.2, Figures 5-6):
//!
//! * **MEMORY index**: string sort, bitfield, assignment
//! * **INTEGER index**: numeric sort, FP emulation, IDEA, Huffman
//! * **FLOATING-POINT index**: Fourier, neural net, LU decomposition
//!
//! Each index is the geometric mean of per-test iteration rates
//! normalized against a baseline run — in the paper, against the
//! AMD K6/233 reference machine; here (as in the paper's own relative
//! plots) against a solo run on the same simulated machine, so an index
//! of 1.0 means "no interference".

pub mod assignment;
pub mod bitfield;
pub mod emfloat;
pub mod fourier;
pub mod huffman;
pub mod idea;
pub mod lu;
pub mod neural;
pub mod numsort;
pub mod strsort;

use crate::kernel::{characterize, Kernel};
use std::cell::RefCell;
use std::rc::Rc;
use vgrid_machine::ops::OpBlock;
use vgrid_os::{Action, ThreadBody, ThreadCtx};
use vgrid_simcore::{geometric_mean, SimDuration, SimTime};

/// Which index a test belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexGroup {
    /// MEMORY index.
    Memory,
    /// INTEGER index.
    Integer,
    /// FLOATING-POINT index.
    Float,
}

/// One characterized test ready for simulation.
#[derive(Debug, Clone)]
pub struct NBenchTest {
    /// Kernel name.
    pub name: &'static str,
    /// Index group.
    pub group: IndexGroup,
    /// Machine-model block for one iteration.
    pub block: OpBlock,
}

/// The characterized suite (cheap to clone; [`characterize`] runs each
/// real kernel once per process).
#[derive(Debug, Clone)]
pub struct NBenchSuite {
    /// All ten tests, in canonical order.
    pub tests: Vec<NBenchTest>,
}

impl NBenchSuite {
    /// Characterize the standard suite at default sizes.
    pub fn standard() -> Self {
        Self::build(false)
    }

    /// A reduced-size suite for fast unit tests.
    pub fn small() -> Self {
        Self::build(true)
    }

    /// The ten kernels with their index groups, in canonical order, at
    /// default sizes or (`small`) the reduced unit-test sizes.
    pub fn kernels(small: bool) -> Vec<(IndexGroup, Box<dyn Kernel>)> {
        let scale = |full: usize, tiny: usize| if small { tiny } else { full };
        vec![
            (
                IndexGroup::Memory,
                Box::new(strsort::StringSort {
                    count: scale(51_000, 800),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Memory,
                Box::new(bitfield::Bitfield {
                    operations: scale(200_000, 2_000),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Memory,
                Box::new(assignment::Assignment {
                    n: scale(160, 24),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Integer,
                Box::new(numsort::NumericSort {
                    arrays: scale(4, 1),
                    len: scale(8111, 500),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Integer,
                Box::new(emfloat::EmFloat {
                    values: scale(2_000, 100),
                    loops: scale(30, 2),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Integer,
                Box::new(idea::Idea {
                    blocks: scale(60_000, 500),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Integer,
                Box::new(huffman::Huffman {
                    // A large coding buffer (~3.8 MB with the decode
                    // copy): INT-class compute that still brushes the
                    // shared L2, giving the paper's small-but-nonzero
                    // INT-index interference (Figure 6, ~2 %).
                    input_len: scale(1_900_000, 2_000),
                    passes: scale(2, 1),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Float,
                Box::new(fourier::Fourier {
                    terms: scale(40, 4),
                    steps: scale(200, 40),
                }),
            ),
            (
                IndexGroup::Float,
                Box::new(neural::NeuralNet {
                    epochs: scale(120, 5),
                    ..Default::default()
                }),
            ),
            (
                IndexGroup::Float,
                Box::new(lu::LuDecomp {
                    n: scale(101, 20),
                    systems: scale(4, 1),
                    ..Default::default()
                }),
            ),
        ]
    }

    fn build(small: bool) -> Self {
        let tests = Self::kernels(small)
            .into_iter()
            .map(|(group, k)| {
                let c = characterize(k.as_ref());
                NBenchTest {
                    name: match c.block.label.as_str() {
                        "string-sort" => "string-sort",
                        "bitfield" => "bitfield",
                        "assignment" => "assignment",
                        "numeric-sort" => "numeric-sort",
                        "fp-emulation" => "fp-emulation",
                        "idea" => "idea",
                        "huffman" => "huffman",
                        "fourier" => "fourier",
                        "neural-net" => "neural-net",
                        _ => "lu-decomposition",
                    },
                    group,
                    block: c.block,
                }
            })
            .collect();
        NBenchSuite { tests }
    }
}

/// Measured iteration rates, one per test.
#[derive(Debug, Clone, Default)]
pub struct NBenchReport {
    /// (test name, group, iterations per simulated second).
    pub rates: Vec<(&'static str, IndexGroup, f64)>,
    /// True once every test has run.
    pub complete: bool,
}

impl NBenchReport {
    /// Geometric-mean rate of a group.
    pub fn group_rate(&self, group: IndexGroup) -> f64 {
        let rates: Vec<f64> = self
            .rates
            .iter()
            .filter(|(_, g, _)| *g == group)
            .map(|&(_, _, r)| r)
            .collect();
        geometric_mean(&rates)
    }

    /// Index of this run relative to a baseline run (1.0 = identical).
    pub fn index_vs(&self, baseline: &NBenchReport, group: IndexGroup) -> f64 {
        let base = baseline.group_rate(group);
        assert!(base > 0.0, "baseline has no rates for {group:?}");
        self.group_rate(group) / base
    }
}

/// ThreadBody that runs the suite: each test loops its block until the
/// per-test target duration elapses, recording the iteration rate.
#[derive(Debug)]
pub struct NBenchBody {
    suite: NBenchSuite,
    /// Shared per-test blocks, cloned as handles each iteration.
    blocks: Vec<Rc<OpBlock>>,
    per_test: SimDuration,
    report: Rc<RefCell<NBenchReport>>,
    test_idx: usize,
    started_at: Option<SimTime>,
    iters: u64,
}

impl NBenchBody {
    /// Create a body and the shared report it will fill.
    pub fn new(suite: NBenchSuite, per_test: SimDuration) -> (Self, Rc<RefCell<NBenchReport>>) {
        let report = Rc::new(RefCell::new(NBenchReport::default()));
        let blocks = suite
            .tests
            .iter()
            .map(|t| Rc::new(t.block.clone()))
            .collect();
        (
            NBenchBody {
                suite,
                blocks,
                per_test,
                report: report.clone(),
                test_idx: 0,
                started_at: None,
                iters: 0,
            },
            report,
        )
    }
}

impl ThreadBody for NBenchBody {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        loop {
            let Some(test) = self.suite.tests.get(self.test_idx) else {
                self.report.borrow_mut().complete = true;
                return Action::Exit;
            };
            match self.started_at {
                None => {
                    self.started_at = Some(ctx.now);
                    self.iters = 0;
                    return Action::Compute(self.blocks[self.test_idx].clone());
                }
                Some(start) => {
                    self.iters += 1;
                    let elapsed = ctx.now.since(start);
                    if elapsed >= self.per_test {
                        let rate = self.iters as f64 / elapsed.as_secs_f64();
                        self.report
                            .borrow_mut()
                            .rates
                            .push((test.name, test.group, rate));
                        self.test_idx += 1;
                        self.started_at = None;
                        continue; // next test
                    }
                    return Action::Compute(self.blocks[self.test_idx].clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_os::{Priority, System, SystemConfig};

    #[test]
    fn suite_has_ten_tests_in_three_groups() {
        let s = NBenchSuite::small();
        assert_eq!(s.tests.len(), 10);
        let count = |g| s.tests.iter().filter(|t| t.group == g).count();
        assert_eq!(count(IndexGroup::Memory), 3);
        assert_eq!(count(IndexGroup::Integer), 4);
        assert_eq!(count(IndexGroup::Float), 3);
    }

    #[test]
    fn float_tests_are_fp_heavy_memory_tests_are_not() {
        let s = NBenchSuite::small();
        for t in &s.tests {
            match t.group {
                IndexGroup::Float => {
                    assert!(
                        t.block.counts.fp_ops > t.block.counts.int_ops / 4,
                        "{} should be fp-heavy",
                        t.name
                    );
                }
                IndexGroup::Memory => {
                    assert!(
                        t.block.counts.mem_accesses() > t.block.counts.fp_ops,
                        "{} should be memory-heavy",
                        t.name
                    );
                }
                IndexGroup::Integer => {
                    assert_eq!(t.block.counts.fp_ops, 0, "{} must be integer-only", t.name);
                }
            }
        }
    }

    #[test]
    fn body_completes_and_reports_rates() {
        let mut sys = System::new(SystemConfig::testbed(1));
        let (body, report) = NBenchBody::new(NBenchSuite::small(), SimDuration::from_millis(20));
        sys.spawn("nbench", Priority::Normal, Box::new(body));
        assert!(sys.run_to_completion(SimTime::from_secs(600)));
        let r = report.borrow();
        assert!(r.complete);
        assert_eq!(r.rates.len(), 10);
        assert!(r.rates.iter().all(|&(_, _, rate)| rate > 0.0));
    }

    #[test]
    fn solo_index_vs_self_is_one() {
        let run = || {
            let mut sys = System::new(SystemConfig::testbed(1));
            let (body, report) =
                NBenchBody::new(NBenchSuite::small(), SimDuration::from_millis(20));
            sys.spawn("nbench", Priority::Normal, Box::new(body));
            assert!(sys.run_to_completion(SimTime::from_secs(600)));
            let r = report.borrow().clone();
            r
        };
        let a = run();
        let b = run();
        for g in [IndexGroup::Memory, IndexGroup::Integer, IndexGroup::Float] {
            let idx = a.index_vs(&b, g);
            assert!((idx - 1.0).abs() < 1e-9, "{g:?} index {idx}");
        }
    }
}
