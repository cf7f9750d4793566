//! The Matrix benchmark: naive dense matrix multiplication of doubles
//! (the paper's custom floating-point benchmark, Section 2: "multiplies
//! two squared matrices of doubles, using a linear (non-optimized)
//! algorithm", at 512x512 and 1024x1024).
//!
//! The kernel really multiplies matrices. Large sizes are characterized
//! by running the real kernel at a smaller size and scaling the measured
//! counts by the exact (n/m)^3 operation ratio of the naive algorithm —
//! an exact extrapolation for this kernel, verified by test.

use crate::counter::OpCounter;
use crate::kernel::Kernel;
use std::cell::RefCell;
use std::rc::Rc;
use vgrid_machine::ops::OpBlock;
use vgrid_os::{Action, ThreadBody, ThreadCtx};
use vgrid_simcore::{SimRng, SimTime};

/// Multiply two n x n row-major matrices naively (i-j-k loop order, as a
/// straightforward port of the paper's benchmark would do).
pub fn multiply(n: usize, a: &[f64], b: &[f64], ops: &mut OpCounter) -> Vec<f64> {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
        // Per (i,j) pair: n fma-pairs (2 fp), 2n reads, loop ints.
        ops.fp(2 * (n * n) as u64);
        ops.read(2 * (n * n) as u64);
        ops.int((n * n) as u64);
        ops.branch((n * n / 4) as u64);
        ops.write(n as u64);
    }
    c
}

/// The Matrix kernel at dimension `n`.
#[derive(Debug, Clone)]
pub struct MatrixKernel {
    /// Matrix dimension.
    pub n: usize,
    /// Seed for the operand matrices.
    pub seed: u64,
}

impl MatrixKernel {
    /// Characterize at full size by running the real kernel at a reduced
    /// size and scaling counts cubically (exact for the naive algorithm).
    pub fn characterize_scaled(&self) -> OpBlock {
        let probe_n = self.n.min(96);
        let probe = MatrixKernel {
            n: probe_n,
            seed: self.seed,
        };
        let mut ops = OpCounter::new();
        probe.run(&mut ops);
        let factor = (self.n as f64 / probe_n as f64).powi(3);
        OpBlock {
            label: format!("matrix-{}", self.n),
            counts: ops.scaled(factor).to_counts(),
            working_set: (3 * self.n * self.n * 8) as u64,
            // The naive j-inner access pattern reuses a row of A heavily
            // but strides through B; moderate locality.
            locality: 0.6,
        }
    }
}

impl Kernel for MatrixKernel {
    fn name(&self) -> &'static str {
        "matrix"
    }

    fn run(&self, ops: &mut OpCounter) -> u64 {
        let mut rng = SimRng::new(self.seed);
        let a: Vec<f64> = (0..self.n * self.n)
            .map(|_| rng.range_f64(-1.0, 1.0))
            .collect();
        let b: Vec<f64> = (0..self.n * self.n)
            .map(|_| rng.range_f64(-1.0, 1.0))
            .collect();
        let c = multiply(self.n, &a, &b, ops);
        (c[self.n / 2] * 1e6) as i64 as u64
    }

    fn working_set(&self) -> u64 {
        (3 * self.n * self.n * 8) as u64
    }

    fn locality(&self) -> f64 {
        0.6
    }
}

/// Result of a Matrix benchmark run.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Wall time of the multiplication.
    pub wall_secs: f64,
    /// True when finished.
    pub complete: bool,
}

/// ThreadBody running one scaled multiplication.
#[derive(Debug)]
pub struct MatrixBody {
    block: Rc<OpBlock>,
    report: Rc<RefCell<MatrixReport>>,
    started: Option<SimTime>,
}

impl MatrixBody {
    /// Build from a kernel spec; returns the body and its report cell.
    pub fn new(kernel: &MatrixKernel) -> (Self, Rc<RefCell<MatrixReport>>) {
        let report = Rc::new(RefCell::new(MatrixReport::default()));
        (
            MatrixBody {
                block: Rc::new(kernel.characterize_scaled()),
                report: report.clone(),
                started: None,
            },
            report,
        )
    }
}

impl ThreadBody for MatrixBody {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        match self.started {
            None => {
                self.started = Some(ctx.now);
                Action::Compute(self.block.clone())
            }
            Some(t0) => {
                let mut rep = self.report.borrow_mut();
                rep.wall_secs = ctx.now.since(t0).as_secs_f64();
                rep.complete = true;
                Action::Exit
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_os::{Priority, System, SystemConfig};

    #[test]
    fn multiply_matches_identity() {
        let mut ops = OpCounter::new();
        let n = 4;
        let a: Vec<f64> = (0..16).map(|x| x as f64).collect();
        let mut id = vec![0.0; 16];
        for i in 0..n {
            id[i * n + i] = 1.0;
        }
        let c = multiply(n, &a, &id, &mut ops);
        assert_eq!(c, a);
        let c2 = multiply(n, &id, &a, &mut ops);
        assert_eq!(c2, a);
    }

    #[test]
    fn multiply_known_product() {
        let mut ops = OpCounter::new();
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let c = multiply(2, &[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], &mut ops);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn cubic_scaling_is_exact() {
        let mut o1 = OpCounter::new();
        let mut o2 = OpCounter::new();
        MatrixKernel { n: 32, seed: 1 }.run(&mut o1);
        MatrixKernel { n: 64, seed: 1 }.run(&mut o2);
        let ratio = o2.fp_ops as f64 / o1.fp_ops as f64;
        assert!((ratio - 8.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn scaled_characterization_matches_direct_counts() {
        // The scaled block for n=96-from-probe must equal a direct run
        // (probe cap is 96, so n=96 characterizes directly)...
        let direct = {
            let mut ops = OpCounter::new();
            MatrixKernel { n: 96, seed: 1 }.run(&mut ops);
            ops.to_counts()
        };
        let scaled = MatrixKernel { n: 96, seed: 1 }.characterize_scaled().counts;
        assert_eq!(direct.fp_ops, scaled.fp_ops);
        // ...and the 192 extrapolation is exactly 8x.
        let big = MatrixKernel { n: 192, seed: 1 }
            .characterize_scaled()
            .counts;
        assert_eq!(big.fp_ops, direct.fp_ops * 8);
    }

    #[test]
    fn body_reports_duration_on_testbed() {
        let mut sys = System::new(SystemConfig::testbed(1));
        let (body, report) = MatrixBody::new(&MatrixKernel { n: 256, seed: 1 });
        sys.spawn("matrix", Priority::Normal, Box::new(body));
        assert!(sys.run_to_completion(SimTime::from_secs(60)));
        let r = report.borrow();
        assert!(r.complete);
        // 256^3 * 2 = 33.5 MF; at ~1-2 GF/s effective this is tens of ms.
        assert!(
            r.wall_secs > 0.005 && r.wall_secs < 1.0,
            "wall {}",
            r.wall_secs
        );
    }
}
