//! Host archetypes and the per-archetype segment solver.
//!
//! A campaign's hosts fall into a small number of **archetypes** —
//! machine config × deploy mode × churn class, refined by the pool's
//! speed band and RAM eligibility. Between external events every host
//! of an archetype advances analytically at the same reference rate per
//! host-second (scaled only by its own speed draw), so the segment
//! solve — dilating the Einstein instruction mix through the machine
//! model — runs once per campaign, not once per host. The kernel
//! characterization underneath is memoized process-wide by
//! `workloads::kernel`, which leaves two solo estimates per solve: too
//! cheap for a grid-level memo to pay for its lookup. [`solver_key`]
//! names a deploy mode by its full `Debug` form (calibrated profile
//! fields included), so two profiles sharing a display name but
//! differing in any parameter never share a hydration probe.
//!
//! **Bit-identity rule** (DESIGN.md §12): the per-host rate is always
//! evaluated in the exact operation order of the pre-archetype
//! simulator — `speed / vm_factor * (1.0 - ckpt_frac).max(0.05)` — on
//! both substrates, and `CampaignSpec::build`'s deadline check uses the
//! same expression through [`SegmentSolution::rate`].

use crate::checkpoint::write_overhead_frac;
use crate::faults::ChurnConfig;
use crate::model::{DeployConfig, ExecutionMode};

/// The reference volunteer machine the pool's speed multipliers are
/// relative to (the paper's testbed desktop).
pub const REFERENCE_MACHINE: &str = "core2duo-6600";

/// Width of one speed band: hosts are grouped by quarter-multiplier
/// steps of their speed draw.
const SPEED_BAND_STEP: f64 = 0.25;

/// Canonical identity of a host archetype. Ordered (derived `Ord`, no
/// floats) so archetype tables iterate deterministically and reports
/// list counts in one canonical order on every substrate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ArchetypeKey {
    /// Reference machine of the campaign (currently always
    /// [`REFERENCE_MACHINE`]).
    pub machine: &'static str,
    /// Deploy-mode display name (`native`, `vm-QEMU`, ...).
    pub mode: &'static str,
    /// Churn class, derived from which fault layers the campaign's
    /// [`ChurnConfig`] arms (see [`churn_class`]).
    pub churn_class: String,
    /// Quantized speed multiplier: `floor(speed / 0.25)`.
    pub speed_band: u16,
    /// Whether the host's RAM admits the deployment (VM campaigns
    /// exclude small-RAM hosts).
    pub ram_eligible: bool,
}

impl ArchetypeKey {
    /// Build a key for one host population slice of a campaign. The
    /// churn class is passed in precomputed so million-host pools don't
    /// re-derive it per host.
    pub fn new(
        deploy: &DeployConfig,
        churn_class: &str,
        speed_band: u16,
        ram_eligible: bool,
    ) -> Self {
        ArchetypeKey {
            machine: REFERENCE_MACHINE,
            mode: deploy.mode.name(),
            churn_class: churn_class.to_string(),
            speed_band,
            ram_eligible,
        }
    }

    /// Stable human-readable label, used as the metric-name component
    /// for per-archetype host counts.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/s{}/{}",
            self.machine,
            self.mode,
            self.churn_class,
            self.speed_band,
            if self.ram_eligible {
                "ok"
            } else {
                "ram-excluded"
            },
        )
    }
}

/// Quantize a host's speed multiplier into its archetype band.
pub fn speed_band(speed: f64) -> u16 {
    (speed / SPEED_BAND_STEP).floor() as u16
}

/// Classify a churn configuration into a small label set: `steady` for
/// the fully inert config (the byte-identical legacy path), otherwise
/// `churn-` plus the armed fault layers.
pub fn churn_class(churn: &ChurnConfig) -> String {
    if churn.is_off() {
        return "steady".to_string();
    }
    let mut layers: Vec<&str> = Vec::new();
    if churn.availability_shape != 1.0 || churn.uptime_factor != 1.0 {
        layers.push("avail");
    }
    if churn.owner_arrival_mean_secs > 0.0 {
        layers.push("owner");
    }
    if churn.vm_kill_mean_secs > 0.0 {
        layers.push("kill");
    }
    if layers.is_empty() {
        layers.push("other");
    }
    format!("churn-{}", layers.join("+"))
}

/// Per-archetype analytic segment solution: the constants that advance
/// a quietly crunching host between external events without a `System`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSolution {
    /// CPU dilation of VM execution for the science kernel (1.0 native).
    pub vm_factor: f64,
    /// Fraction of host time consumed by checkpoint writes.
    pub ckpt_frac: f64,
}

impl SegmentSolution {
    /// Reference seconds of science per host-second for a host with the
    /// given speed multiplier, in the exact operation order of the
    /// pre-archetype simulator.
    pub fn rate(&self, speed: f64) -> f64 {
        speed / self.vm_factor * (1.0 - self.ckpt_frac).max(0.05)
    }
}

/// The state bytes whose write cost the checkpoint model charges per
/// interval: the VM's committed RAM, or the small app-level checkpoint
/// when native.
pub fn checkpoint_state_bytes(deploy: &DeployConfig) -> u64 {
    match &deploy.mode {
        ExecutionMode::Native => deploy.native_checkpoint_bytes,
        ExecutionMode::Vm(p) => p.guest_ram,
    }
}

/// Canonical solver key for a deploy mode: the full `Debug` form, so
/// every calibrated profile field participates in the identity.
pub fn solver_key(mode: &ExecutionMode) -> String {
    format!("{mode:?}")
}

/// Solve a deploy config's segment constants from scratch: the machine-
/// model dilation of the science kernel and the checkpoint duty cycle.
/// Both substrates call this once per campaign.
pub fn solve(deploy: &DeployConfig) -> SegmentSolution {
    SegmentSolution {
        vm_factor: crate::sim::vm_cpu_factor(&deploy.mode),
        ckpt_frac: write_overhead_frac(checkpoint_state_bytes(deploy), deploy.checkpoint_interval),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_vmm::VmmProfile;

    #[test]
    fn solver_key_distinguishes_profile_fields() {
        let mut small = VmmProfile::qemu();
        small.guest_ram = 64 << 20;
        let a = solver_key(&ExecutionMode::Vm(VmmProfile::qemu()));
        let b = solver_key(&ExecutionMode::Vm(small));
        assert_ne!(a, b, "guest_ram must participate in the solver key");
    }

    #[test]
    fn speed_bands_quantize_quarters() {
        assert_eq!(speed_band(0.5), 2);
        assert_eq!(speed_band(0.99), 3);
        assert_eq!(speed_band(1.0), 4);
        assert_eq!(speed_band(1.999), 7);
    }

    #[test]
    fn churn_classes_label_armed_layers() {
        assert_eq!(churn_class(&ChurnConfig::off()), "steady");
        let full = ChurnConfig::intensity(1.0);
        let label = churn_class(&full);
        assert!(label.starts_with("churn-"), "{label}");
    }

    #[test]
    fn keys_order_deterministically() {
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        let a = ArchetypeKey::new(&deploy, "steady", 2, true);
        let b = ArchetypeKey::new(&deploy, "steady", 3, true);
        let c = ArchetypeKey::new(&deploy, "steady", 3, false);
        assert!(a < b);
        assert!(c < b, "ineligible sorts before eligible within a band");
        assert_eq!(a.label(), "core2duo-6600/vm-QEMU/steady/s2/ok");
    }

    #[test]
    fn segment_rate_matches_simulator_expression() {
        let s = SegmentSolution {
            vm_factor: 1.17,
            ckpt_frac: 0.02,
        };
        let speed = 1.3f64;
        let expected = speed / 1.17 * (1.0 - 0.02f64).max(0.05);
        assert_eq!(s.rate(speed).to_bits(), expected.to_bits());
    }
}
