//! Volunteer churn and fault-injection models.
//!
//! The seed simulator draws exponential uptime/downtime spans — the
//! memoryless baseline of desktop-grid availability studies. Measured
//! desktop traces are burstier: availability spans fit Weibull shapes
//! below 1 (many short spans, a heavy tail of long ones), owners
//! reclaim their machines interactively, and volunteer VMs get killed
//! outright by reboots or task managers. [`ChurnConfig`] layers those
//! behaviours on the baseline as a *pure function of (config, seed)*:
//!
//! * **Availability shape** — up/down spans drawn from a Weibull with
//!   configurable shape `k`; `k == 1` reproduces the legacy exponential
//!   draws *bit for bit* (same RNG call, same stream position).
//! * **Owner activity** — a Poisson process of owner sessions per
//!   up-span. While the owner is present the task is preempted (VM
//!   suspend or native app preemption); with some probability the
//!   arrival kills the sandbox instead of pausing it.
//! * **Hard VM kills** — a Poisson process of sandbox deaths while the
//!   host computes; work rolls back to the last durable checkpoint.
//!
//! Every draw comes from a per-host *fault stream* forked off the host
//! RNG (`fork` derives a child without advancing the parent), so a
//! fully disabled `ChurnConfig` leaves the legacy draw sequence — and
//! therefore every existing report — byte-identical.
//!
//! The Weibull mean-matching divisor Γ(1 + 1/k) depends on the shape
//! alone, so a campaign computes it once ([`span_gamma`]) and hands the
//! same f64 to every span draw and to the migration hazard
//! ([`crate::migration::interruption_hazard`]): dividing by the hoisted
//! value is the per-call expression bit for bit. Shapes below
//! [`MIN_AVAILABILITY_SHAPE`] are rejected: the Weibull's mass
//! collapses onto spans that round to 0 ps and a campaign stops
//! advancing time.

use crate::error::Error;
use vgrid_simcore::SimRng;

/// Per-campaign churn / fault-injection knobs. `Default` disables every
/// layer and reproduces the pre-churn simulator exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnConfig {
    /// Weibull shape `k` for uptime/downtime spans. `1.0` is the legacy
    /// exponential; `< 1.0` is burstier (desktop-trace-like).
    pub availability_shape: f64,
    /// Multiplier on the pool's mean uptime (`1.0` = unchanged). Churn
    /// sweeps shrink this to shorten availability spans.
    pub uptime_factor: f64,
    /// Mean seconds between owner arrivals while a host is up
    /// (exponential gaps). `0.0` disables owner activity entirely.
    pub owner_arrival_mean_secs: f64,
    /// Mean length of an owner session, seconds (exponential).
    pub owner_session_mean_secs: f64,
    /// Probability that an owner arrival kills the sandbox (task
    /// manager, reboot) instead of merely preempting it.
    pub preempt_kill_prob: f64,
    /// Mean seconds between spontaneous VM/app kills while computing
    /// (exponential). `0.0` disables spontaneous kills.
    pub vm_kill_mean_secs: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            availability_shape: 1.0,
            uptime_factor: 1.0,
            owner_arrival_mean_secs: 0.0,
            owner_session_mean_secs: 1800.0,
            preempt_kill_prob: 0.0,
            vm_kill_mean_secs: 0.0,
        }
    }
}

impl ChurnConfig {
    /// The disabled configuration (alias for `Default`).
    pub fn off() -> Self {
        ChurnConfig::default()
    }

    /// True when every fault layer is inert and the simulator must
    /// reproduce the legacy behaviour byte-for-byte.
    pub fn is_off(&self) -> bool {
        self.availability_shape == 1.0
            && self.uptime_factor == 1.0
            && self.owner_arrival_mean_secs == 0.0
            && self.vm_kill_mean_secs == 0.0
    }

    /// A one-knob churn family for sweeps: `level <= 0` is off; rising
    /// levels shorten uptimes, bring owners back more often, and kill
    /// sandboxes more aggressively — every knob worsens monotonically.
    pub fn intensity(level: f64) -> Self {
        if level <= 0.0 {
            return ChurnConfig::off();
        }
        ChurnConfig {
            availability_shape: 0.7,
            uptime_factor: 1.0 / (1.0 + level),
            owner_arrival_mean_secs: 4.0 * 3600.0 / level,
            owner_session_mean_secs: 1800.0,
            preempt_kill_prob: (0.1 * level).min(0.5),
            vm_kill_mean_secs: 48.0 * 3600.0 / level,
        }
    }

    /// Validate the knobs; used by `CampaignSpec::build`.
    pub fn validate(&self) -> Result<(), Error> {
        if !(MIN_AVAILABILITY_SHAPE..=10.0).contains(&self.availability_shape) {
            return Err(Error::InvalidConfig(format!(
                "availability_shape {} must be in [{MIN_AVAILABILITY_SHAPE}, 10]",
                self.availability_shape
            )));
        }
        if !self.uptime_factor.is_finite() || self.uptime_factor <= 0.0 || self.uptime_factor > 1e3
        {
            return Err(Error::InvalidConfig(format!(
                "uptime_factor {} must be in (0, 1000]",
                self.uptime_factor
            )));
        }
        for (name, v) in [
            ("owner_arrival_mean_secs", self.owner_arrival_mean_secs),
            ("owner_session_mean_secs", self.owner_session_mean_secs),
            ("vm_kill_mean_secs", self.vm_kill_mean_secs),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(Error::InvalidConfig(format!(
                    "{name} {v} must be finite and >= 0"
                )));
            }
        }
        if self.owner_arrival_mean_secs > 0.0 && self.owner_session_mean_secs <= 0.0 {
            return Err(Error::InvalidConfig(
                "owner_session_mean_secs must be > 0 when owner arrivals are enabled".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.preempt_kill_prob) {
            return Err(Error::InvalidConfig(format!(
                "preempt_kill_prob {} must be in [0, 1]",
                self.preempt_kill_prob
            )));
        }
        Ok(())
    }
}

/// The smallest accepted Weibull availability shape. Below it most
/// spans round to 0 ps and a campaign's event count explodes: a
/// 1,000-host, 14-day campaign takes about 30 times as long at shape
/// 0.05 as at 0.1, and a 4-host, one-day campaign at 0.02 runs for
/// more than 10 s. Below about 0.0058, Γ(1 + 1/k) overflows, so every
/// span is exactly 0 ps and the interruption hazard is NaN. The
/// intensity family uses 0.7.
pub const MIN_AVAILABILITY_SHAPE: f64 = 0.1;

/// The Weibull mean-matching divisor Γ(1 + 1/k) of `shape`: a span with
/// scale `mean / span_gamma(shape)` has mean `mean`. Computed once per
/// campaign and passed to [`sample_span`] and the migration hazard.
pub(crate) fn span_gamma(shape: f64) -> f64 {
    gamma(1.0 + 1.0 / shape)
}

/// Draw one availability span with the configured shape and the given
/// mean; `span_gamma` is [`span_gamma`]`(shape)`. The scale must stay
/// the division `mean / span_gamma`, which is bit-identical to dividing
/// by a freshly computed Γ; multiplying by a precomputed reciprocal
/// would change bits. `shape == 1.0` takes the exact legacy
/// `exponential` path — the same single RNG call — so disabled churn
/// cannot perturb streams.
pub(crate) fn sample_span(rng: &mut SimRng, shape: f64, span_gamma: f64, mean: f64) -> f64 {
    if shape == 1.0 {
        return rng.exponential(mean);
    }
    weibull(rng, shape, mean / span_gamma)
}

/// Inverse-CDF Weibull draw: `scale * (-ln u)^(1/k)`, `u` in `(0, 1]`.
pub(crate) fn weibull(rng: &mut SimRng, shape: f64, scale: f64) -> f64 {
    let mut u = rng.next_f64();
    while u <= 0.0 {
        u = rng.next_f64();
    }
    scale * (-u.ln()).powf(1.0 / shape)
}

/// Gamma function via the Lanczos approximation of `ln Γ` (g = 7, 9
/// coefficients) — plenty for Weibull mean-matching.
pub(crate) fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the small-argument range accurate.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_valid() {
        let c = ChurnConfig::default();
        assert!(c.is_off());
        c.validate().unwrap();
        assert_eq!(c, ChurnConfig::off());
        assert!(ChurnConfig::intensity(0.0).is_off());
    }

    #[test]
    fn intensity_worsens_monotonically() {
        let (a, b) = (ChurnConfig::intensity(1.0), ChurnConfig::intensity(3.0));
        a.validate().unwrap();
        b.validate().unwrap();
        assert!(!a.is_off() && !b.is_off());
        assert!(b.uptime_factor < a.uptime_factor);
        assert!(b.owner_arrival_mean_secs < a.owner_arrival_mean_secs);
        assert!(b.preempt_kill_prob >= a.preempt_kill_prob);
        assert!(b.vm_kill_mean_secs < a.vm_kill_mean_secs);
    }

    #[test]
    fn validate_rejects_nonsense() {
        for shape in [0.0, -1.0, f64::NAN, f64::INFINITY, 10.5] {
            let bad = ChurnConfig {
                availability_shape: shape,
                ..ChurnConfig::default()
            };
            assert!(bad.validate().is_err(), "{shape}");
        }
        let bad = ChurnConfig {
            preempt_kill_prob: 1.5,
            ..ChurnConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = ChurnConfig {
            owner_arrival_mean_secs: 3600.0,
            owner_session_mean_secs: 0.0,
            ..ChurnConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn degenerate_shapes_are_rejected_at_the_floor() {
        // Shape 0.05 rounds most spans to 0 ps (and far smaller shapes
        // overflow Γ), so a campaign stops advancing time; the floor is
        // 0.1, and the floor itself is a valid shape.
        let with_shape = |availability_shape| ChurnConfig {
            availability_shape,
            ..ChurnConfig::intensity(1.0)
        };
        assert!(with_shape(0.05).validate().is_err());
        assert!(with_shape(0.099).validate().is_err());
        with_shape(MIN_AVAILABILITY_SHAPE).validate().unwrap();
        with_shape(10.0).validate().unwrap();
        assert!(gamma(1.0 + 1.0 / 0.005).is_infinite());
        assert!(span_gamma(MIN_AVAILABILITY_SHAPE).is_finite());
    }

    #[test]
    fn hoisted_gamma_draws_equal_the_per_call_expression() {
        // A campaign computes Γ(1 + 1/k) once; every draw must still be
        // the per-call `mean / gamma(..)` division bit for bit (a
        // precomputed reciprocal and a multiply would change bits).
        let mut shapes = vec![0.1, 0.25, 0.5, 0.7, 1.5, 2.0, 3.0, 7.3, 10.0];
        shapes.extend((1..100).map(|i| 0.1 + i as f64 * 0.099));
        for shape in shapes {
            let g = span_gamma(shape);
            let mut a = SimRng::new(shape.to_bits());
            let mut b = SimRng::new(shape.to_bits());
            for i in 0..200 {
                let mean = 1e-3 * 1.37f64.powi(i % 60);
                let hoisted = sample_span(&mut a, shape, g, mean);
                let per_call = weibull(&mut b, shape, mean / gamma(1.0 + 1.0 / shape));
                assert_eq!(hoisted.to_bits(), per_call.to_bits(), "shape {shape}");
            }
        }
    }

    #[test]
    fn gamma_matches_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        // Γ(1 + 1/0.7) for the intensity family's shape.
        assert!((gamma(1.0 + 1.0 / 0.7) - 1.265_821_9).abs() < 1e-5);
    }

    #[test]
    fn shape_one_is_bitwise_the_legacy_exponential() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            let x = sample_span(&mut a, 1.0, span_gamma(1.0), 1234.5);
            let y = b.exponential(1234.5);
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn weibull_mean_matches_request() {
        for shape in [0.7, 1.5, 3.0] {
            let mut rng = SimRng::new(7);
            let mean = 5_000.0;
            let n = 20_000;
            let g = span_gamma(shape);
            let sum: f64 = (0..n).map(|_| sample_span(&mut rng, shape, g, mean)).sum(); // simlint: allow(float-fold-order) -- test statistic over a fixed sample order
            let got = sum / n as f64;
            assert!(
                (got - mean).abs() / mean < 0.05,
                "shape {shape}: mean {got} vs {mean}"
            );
        }
    }

    #[test]
    fn small_shape_is_burstier() {
        // Same mean, higher variance for k < 1: compare squared CVs.
        let cv2 = |shape: f64| {
            let mut rng = SimRng::new(11);
            let xs: Vec<f64> = (0..20_000)
                .map(|_| sample_span(&mut rng, shape, span_gamma(shape), 1000.0))
                .collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64; // simlint: allow(float-fold-order) -- test statistic over a fixed sample order
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64; // simlint: allow(float-fold-order) -- test statistic over a fixed sample order
            v / (m * m)
        };
        assert!(cv2(0.7) > cv2(1.0) + 0.3);
    }
}
