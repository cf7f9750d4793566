//! Live migration of checkpointed task state (ROADMAP item 4).
//!
//! The paper's Section 1 motivation for VM-based volunteers is that
//! checkpointing "mak\[es\] possible the exportation of a virtual
//! environment to another physical machine". PR 4 built the durable
//! checkpoints and an instant, free `migrate_on_churn` re-queue; this
//! module adds the two pieces a real deployment pays for and decides:
//!
//! 1. **Transfer cost.** An exported checkpoint crosses the project
//!    server's modeled 100 Mbps NIC (the same [`vgrid_machine`] link
//!    model the paper's iperf runs calibrate: 97.60 Mbps effective).
//!    State is shipped in 64 KiB chunks, so the priced payload is the
//!    checkpoint size quantized up to the chunk boundary; concurrent
//!    exports contend for the one server link, scaling each transfer by
//!    `1 + inflight`. Every export prices its payload directly on the
//!    link model, on both substrates. V-BOINC (McGilvary et al.,
//!    PAPERS.md) measures exactly this network-bound VM-checkpoint
//!    distribution.
//! 2. **Policy.** [`MigrationPolicy`] decides *when* the scheduler pays
//!    that cost: deadline-driven straggler rescue (re-home a lagging
//!    copy's checkpoint to an idle faster host at a slack fraction of
//!    its deadline) and preemptive evacuation on predicted interruption
//!    (a Weibull/owner-arrival hazard over the remaining compute
//!    window, from the PR 4 fault-stream parameters — pure math, no
//!    RNG draws, so enabling a policy never perturbs fault streams).
//!
//! The policy rides [`crate::model::DeployConfig`], making it part of
//! the spec identity (wire `spec_digest`, engine `TrialKey`, trajectory
//! keys all partition on it automatically). `MigrationPolicy::off()` is
//! the hard baseline contract: no events scheduled, no counters moved,
//! bit-for-bit the PR 4 simulator.
//!
//! **Audit cost.** The hazard takes the campaign's Weibull divisor
//! Γ(1 + 1/k) as an argument instead of recomputing it per call. The
//! evacuation audit in `grid::sim` asks whether *any* idle host is a
//! safe home, so it walks the idle hosts fastest first and stops early:
//! at the first host slower than the holder, or at the first whose
//! owner-arrival term alone ([`owner_arrival_prob`]) clears the
//! threshold by [`OWNER_STOP_MARGIN`]. Every later host is no faster,
//! so its window and owner term are no smaller, and its hazard is at
//! least its owner term while the availability survival stays at or
//! below 1. [`owner_stop_is_sound`] checks the bound under which f64
//! rounding keeps that true (DESIGN.md §16 has the argument); outside
//! it the walk runs to the speed stop. Each visited host's hazard is
//! the same f64 expression either way, so the walk answers exactly
//! what a scan of every idle host answers.

use crate::faults::ChurnConfig;
use vgrid_machine::MachineSpec;

/// Scheduler-side migration policy: when to export a checkpoint through
/// the server instead of waiting for the original host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPolicy {
    /// Deadline-driven straggler rescue: audit each fresh copy at
    /// `rescue_slack` of its deadline and re-home its checkpoint if the
    /// holder is gone or projected to miss.
    pub rescue: bool,
    /// Preemptive evacuation: while computing, periodically estimate
    /// the probability the host is interrupted before finishing and
    /// export the checkpoint once it crosses `hazard_threshold`.
    pub evacuate: bool,
    /// Fraction of the reissue deadline at which the rescue audit
    /// fires, in `(0, 1]`.
    pub rescue_slack: f64,
    /// Predicted-interruption probability above which a computing host
    /// is evacuated, in `(0, 1]`.
    pub hazard_threshold: f64,
}

impl MigrationPolicy {
    /// Checkpoint-only baseline: no exports, bit-identical to the
    /// pre-migration simulator.
    pub fn off() -> Self {
        MigrationPolicy {
            rescue: false,
            evacuate: false,
            rescue_slack: 0.35,
            hazard_threshold: 0.55,
        }
    }

    /// Straggler rescue only.
    pub fn rescue_only() -> Self {
        MigrationPolicy {
            rescue: true,
            ..Self::off()
        }
    }

    /// Preemptive evacuation only.
    pub fn evacuate_only() -> Self {
        MigrationPolicy {
            evacuate: true,
            ..Self::off()
        }
    }

    /// Both policies.
    pub fn full() -> Self {
        MigrationPolicy {
            rescue: true,
            evacuate: true,
            ..Self::off()
        }
    }

    /// No policy is active: the simulator must take exactly the legacy
    /// code paths (and the wire layer omits the policy entirely).
    pub fn is_off(&self) -> bool {
        !self.rescue && !self.evacuate
    }

    /// Validate the knobs (called from `CampaignSpec::build`).
    pub(crate) fn validate(&self) -> Result<(), crate::error::Error> {
        if !self.rescue_slack.is_finite()
            || !(0.0..=1.0).contains(&self.rescue_slack)
            || self.rescue_slack == 0.0
        {
            return Err(crate::error::Error::InvalidConfig(format!(
                "migration rescue_slack {} must be in (0, 1]",
                self.rescue_slack
            )));
        }
        if !self.hazard_threshold.is_finite()
            || !(0.0..=1.0).contains(&self.hazard_threshold)
            || self.hazard_threshold == 0.0
        {
            return Err(crate::error::Error::InvalidConfig(format!(
                "migration hazard_threshold {} must be in (0, 1]",
                self.hazard_threshold
            )));
        }
        Ok(())
    }
}

impl Default for MigrationPolicy {
    fn default() -> Self {
        Self::off()
    }
}

/// Checkpoint state ships in chunks of this size; the priced payload is
/// quantized up to the chunk boundary.
pub(crate) const TRANSFER_QUANTUM_BYTES: u64 = 64 << 10;

/// Quantize a checkpoint size to whole transfer chunks (at least one).
/// Saturates at `u64::MAX` instead of overflowing on hostile sizes.
pub(crate) fn quantize_state_bytes(bytes: u64) -> u64 {
    bytes
        .div_ceil(TRANSFER_QUANTUM_BYTES)
        .max(1)
        .saturating_mul(TRANSFER_QUANTUM_BYTES)
}

/// Base (uncontended) transfer seconds for a checkpoint of
/// `state_bytes` on the server's NIC — the testbed machine's
/// calibrated 100 Mbps link, priced on the quantized payload.
pub(crate) fn transfer_wire_secs(state_bytes: u64) -> f64 {
    MachineSpec::core2_duo_6600()
        .nic_model()
        .link
        .wire_time(quantize_state_bytes(state_bytes))
        .as_secs_f64()
}

/// Probability that a host computing for another `window_secs` is
/// interrupted before finishing, from the PR 4 fault-stream parameters:
///
/// * owner arrival — [`owner_arrival_prob`];
/// * availability — Weibull uptime spans with shape `k` and the scale
///   chosen so the mean is `mean_uptime_secs * uptime_factor` (exactly
///   how `faults::sample_span` draws them; `span_gamma` is the
///   campaign's [`crate::faults::span_gamma`]). Conditioned on the
///   uptime already survived: `P = 1 - S(u + w) / S(u)` with
///   `S(t) = exp(-(t / λ)^k)`.
///
/// Pure math over already-drawn state — evaluating it never advances
/// any RNG stream.
pub(crate) fn interruption_hazard(
    churn: &ChurnConfig,
    span_gamma: f64,
    mean_uptime_secs: f64,
    uptime_so_far: f64,
    window_secs: f64,
) -> f64 {
    let p_owner = owner_arrival_prob(churn, window_secs);
    hazard_given_owner(
        churn,
        span_gamma,
        mean_uptime_secs,
        uptime_so_far,
        window_secs,
        p_owner,
    )
}

/// Probability that the owner arrives within `window_secs`: exponential
/// gaps with mean `owner_arrival_mean_secs`, so `P = 1 - exp(-w / mean)`
/// (`0.0` with owner arrivals off). Non-decreasing in the window.
pub(crate) fn owner_arrival_prob(churn: &ChurnConfig, window_secs: f64) -> f64 {
    if churn.owner_arrival_mean_secs > 0.0 {
        1.0 - (-window_secs / churn.owner_arrival_mean_secs).exp()
    } else {
        0.0
    }
}

/// [`interruption_hazard`] with its owner term `p_owner` already
/// computed by [`owner_arrival_prob`] for the same window: the one
/// expression both the audit walk and the reference scan evaluate.
pub(crate) fn hazard_given_owner(
    churn: &ChurnConfig,
    span_gamma: f64,
    mean_uptime_secs: f64,
    uptime_so_far: f64,
    window_secs: f64,
    p_owner: f64,
) -> f64 {
    if window_secs <= 0.0 {
        return 0.0;
    }
    let mean_up = mean_uptime_secs * churn.uptime_factor;
    let survive_up = if mean_up <= 0.0 {
        0.0
    } else if churn.availability_shape == 1.0 {
        // Exponential spans are memoryless: the survived uptime drops
        // out exactly.
        (-window_secs / mean_up).exp()
    } else {
        let k = churn.availability_shape;
        let lambda = mean_up / span_gamma;
        let u = uptime_so_far.max(0.0);
        (-(((u + window_secs) / lambda).powf(k) - (u / lambda).powf(k))).exp()
    };
    1.0 - (1.0 - p_owner) * survive_up
}

/// How far a host's owner term must clear the hazard threshold before
/// the evacuation audit's fastest-first walk stops on it: 2^-30. While
/// [`owner_stop_is_sound`] holds, that host and every host after it
/// has a computed hazard above the host's owner term minus
/// (2^-31 + 2^-47), assuming IEEE arithmetic and `exp`/`powf` within
/// one ulp (DESIGN.md §16); this margin covers that loss.
pub(crate) const OWNER_STOP_MARGIN: f64 = 1.0 / (1u64 << 30) as f64;

/// The largest `(u / λ)^k` for which the owner stop is sound: 2^20.
/// Below it the two `powf` terms of the Weibull survival can round
/// across each other by at most 2^-51 · 2^20 = 2^-31, so the computed
/// survival stays at most 1 + 2^-31 + 2^-51.
const MAX_SURVIVED_TERM: f64 = (1u64 << 20) as f64;

/// True when an owner-term stop is sound for every host whose survived
/// uptime is at most `max_uptime_secs` (the audit passes the current
/// time, which bounds every host's uptime). Exponential spans and a
/// zero mean uptime keep the survival at or below 1 outright; Weibull
/// spans need `(max_uptime / λ)^k <= 2^20`. With owner arrivals off the
/// owner term is 0 and never stops a walk anyway.
pub(crate) fn owner_stop_is_sound(
    churn: &ChurnConfig,
    span_gamma: f64,
    mean_uptime_secs: f64,
    max_uptime_secs: f64,
) -> bool {
    if churn.owner_arrival_mean_secs <= 0.0 {
        return false;
    }
    let mean_up = mean_uptime_secs * churn.uptime_factor;
    if mean_up <= 0.0 || churn.availability_shape == 1.0 {
        return true;
    }
    let lambda = mean_up / span_gamma;
    // NaN (a λ of 0 or ∞ against an uptime of 0 or ∞) fails the test.
    (max_uptime_secs.max(0.0) / lambda).powf(churn.availability_shape) <= MAX_SURVIVED_TERM
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::span_gamma;

    #[test]
    fn policy_presets() {
        assert!(MigrationPolicy::off().is_off());
        assert!(MigrationPolicy::default().is_off());
        assert!(!MigrationPolicy::rescue_only().is_off());
        assert!(!MigrationPolicy::evacuate_only().is_off());
        let full = MigrationPolicy::full();
        assert!(full.rescue && full.evacuate);
        assert!(full.validate().is_ok());
    }

    #[test]
    fn policy_knobs_are_validated() {
        let mut p = MigrationPolicy::full();
        p.rescue_slack = 0.0;
        assert!(p.validate().is_err());
        let mut p = MigrationPolicy::full();
        p.hazard_threshold = 1.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn quantization_rounds_up_to_chunks() {
        assert_eq!(quantize_state_bytes(0), TRANSFER_QUANTUM_BYTES);
        assert_eq!(quantize_state_bytes(1), TRANSFER_QUANTUM_BYTES);
        assert_eq!(
            quantize_state_bytes(TRANSFER_QUANTUM_BYTES),
            TRANSFER_QUANTUM_BYTES
        );
        assert_eq!(
            quantize_state_bytes(TRANSFER_QUANTUM_BYTES + 1),
            2 * TRANSFER_QUANTUM_BYTES
        );
    }

    #[test]
    fn transfer_matches_calibrated_link() {
        // 256 MB of guest RAM over the ~97.6 Mbps effective link lands
        // in the tens of seconds; the paper-calibrated NIC is the
        // source of truth, so pin only the bracket.
        let secs = transfer_wire_secs(256 << 20);
        assert!((10.0..60.0).contains(&secs), "{secs}");
    }

    #[test]
    fn hazard_is_a_probability_and_monotone_in_window() {
        let churn = ChurnConfig::intensity(2.0);
        let g = span_gamma(churn.availability_shape);
        let up = 8.0 * 3600.0;
        let short = interruption_hazard(&churn, g, up, 1800.0, 600.0);
        let long = interruption_hazard(&churn, g, up, 1800.0, 6.0 * 3600.0);
        assert!((0.0..=1.0).contains(&short));
        assert!((0.0..=1.0).contains(&long));
        assert!(long > short);
        assert_eq!(interruption_hazard(&churn, g, up, 0.0, 0.0), 0.0);
        assert!(owner_arrival_prob(&churn, 600.0) <= short);
    }

    #[test]
    fn zero_churn_hazard_comes_from_availability_only() {
        let churn = ChurnConfig::off();
        // No owner process; exponential availability still interrupts.
        let h = interruption_hazard(&churn, span_gamma(1.0), 8.0 * 3600.0, 0.0, 8.0 * 3600.0);
        assert!((h - (1.0 - (-1.0f64).exp())).abs() < 1e-12, "{h}");
        assert_eq!(owner_arrival_prob(&churn, 8.0 * 3600.0), 0.0);
        assert!(!owner_stop_is_sound(
            &churn,
            span_gamma(1.0),
            8.0 * 3600.0,
            1e6
        ));
    }

    #[test]
    fn owner_stop_bound_tracks_the_survived_uptime_term() {
        let churn = ChurnConfig::intensity(1.0);
        let g = span_gamma(churn.availability_shape);
        let up = 8.0 * 3600.0;
        let lambda = up * churn.uptime_factor / g;
        let age_at = |term: f64| lambda * term.powf(1.0 / churn.availability_shape);
        assert!(owner_stop_is_sound(&churn, g, up, 0.0));
        assert!(owner_stop_is_sound(&churn, g, up, age_at(1e6)));
        assert!(!owner_stop_is_sound(&churn, g, up, age_at(1.1e6)));
        assert!(!owner_stop_is_sound(&churn, g, up, f64::INFINITY));
        // Exponential spans never round above survival 1.
        let exp = ChurnConfig {
            availability_shape: 1.0,
            ..churn
        };
        assert!(owner_stop_is_sound(&exp, span_gamma(1.0), up, 1e300));
    }
}
