//! Typed per-run execution options.
//!
//! [`RunOptions`] is the one way to choose an execution mode. It
//! carries three switches as a value: the scheduler reference, the
//! grid host substrate and the fast-forward kill switch. Campaigns take
//! it per call ([`crate::Campaign::run_with`]); the core engine owns
//! one for its lifetime (`Engine::with_options`); the wire format and
//! the `vgrid` CLI flags both build one. There is no ambient mode
//! state, so every run is a pure function of `(spec, seed, options)`
//! and two concurrent requests may run different modes side by side.

use crate::sim::SubstrateMode;

/// Scheduler execution mode for `vgrid_os::System`-backed trials; the
/// engine maps it onto `vgrid_os::SystemConfig::coalesce`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchedulerMode {
    /// Slice-coalescing fast path (the default).
    Coalesced,
    /// Materialize every quantum boundary as a real event
    /// (`--per-quantum-reference`). Bit-identical by contract.
    PerQuantumReference,
}

impl SchedulerMode {
    /// The mode's name on the wire and in run manifests.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerMode::Coalesced => "coalesced",
            SchedulerMode::PerQuantumReference => "per-quantum-reference",
        }
    }
}

/// Execution options for one campaign or trial run. Defaults reproduce
/// the production configuration: coalesced scheduler, batched host
/// substrate, fast-forward caches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Scheduler execution mode (engine trials; grid campaigns run on
    /// the desktop-grid simulator and ignore this switch).
    pub scheduler: SchedulerMode,
    /// Grid host substrate (`--hydrated-reference` selects the
    /// reference substrate).
    pub substrate: SubstrateMode,
    /// Whether the analytic fast-forward caches are consulted
    /// (`--no-fastforward` disables them). Results are bit-identical
    /// either way; the switch exists for A/B cache pricing.
    pub fastforward: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scheduler: SchedulerMode::Coalesced,
            substrate: SubstrateMode::Batched,
            fastforward: true,
        }
    }
}

impl RunOptions {
    /// Set the scheduler mode.
    pub fn scheduler(mut self, scheduler: SchedulerMode) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Set the grid host substrate.
    pub fn substrate(mut self, substrate: SubstrateMode) -> Self {
        self.substrate = substrate;
        self
    }

    /// Enable or disable the fast-forward caches.
    pub fn fastforward(mut self, on: bool) -> Self {
        self.fastforward = on;
        self
    }

    /// True when the per-quantum scheduler reference is selected.
    pub fn per_quantum_reference(&self) -> bool {
        self.scheduler == SchedulerMode::PerQuantumReference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_production() {
        let o = RunOptions::default();
        assert_eq!(o.scheduler, SchedulerMode::Coalesced);
        assert_eq!(o.substrate, SubstrateMode::Batched);
        assert!(o.fastforward);
        assert!(!o.per_quantum_reference());
    }

    #[test]
    fn builders_compose() {
        let o = RunOptions::default()
            .scheduler(SchedulerMode::PerQuantumReference)
            .substrate(SubstrateMode::HydratedReference)
            .fastforward(false);
        assert!(o.per_quantum_reference());
        assert_eq!(o.substrate, SubstrateMode::HydratedReference);
        assert!(!o.fastforward);
    }
}
