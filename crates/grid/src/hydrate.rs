//! Lazy hydration of full-fidelity `vgrid-os` systems around
//! interesting campaign events.
//!
//! The batched substrate advances hosts analytically between events
//! (see [`crate::archetype`]). Hydration is the fidelity backstop: in a
//! window around an interesting event (a mid-compute failure, an owner
//! preemption, a sandbox kill, a task completion, a quorum decision),
//! the pool materializes a real [`System`] pair for the host's
//! archetype, replays the science kernel through the cycle-level
//! machine model under both the native and the dilated instruction mix,
//! and asserts the measured dilation agrees with the analytic
//! [`SegmentSolution`] the ledger used. Probes are *observers*: they
//! draw no host randomness and never feed back into the ledger, so the
//! hydration layer is bit-transparent to every campaign metric —
//! [`HydrationStats`] is a pure function of the event stream and is
//! identical on the batched and `--hydrated-reference` substrates.
//!
//! The pool bounds concurrent systems ([`DEFAULT_HYDRATION_CAP`]):
//! least-recently-hydrated probes retire first, and a per-archetype
//! measurement memo keeps million-host campaigns from re-running the
//! machine model for every window.

use crate::archetype::SegmentSolution;
use crate::model::ExecutionMode;
use vgrid_machine::ops::OpBlock;
use vgrid_os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
use vgrid_simcore::{DetMap, SimTime};

/// Default bound on concurrently resident probe `System`s.
pub const DEFAULT_HYDRATION_CAP: usize = 4;

/// Fixed seed for probe systems: probes must not consume host
/// randomness, and the measurement is deterministic regardless.
const PROBE_SEED: u64 = 0x4f5d_0b0e;

/// Compute iterations per probe thread — enough to amortize spawn/exit
/// scheduling edges out of the measured ratio.
const PROBE_ITERS: u32 = 8;

/// Relative tolerance between a probe's measured dilation and the
/// analytic factor. The analytic solver uses solo estimates; the
/// hydrated system adds quantum-grained scheduling, so agreement is
/// approximate by design.
const PROBE_TOLERANCE: f64 = 0.10;

/// Counters describing the pool's lifecycle over one campaign. All
/// fields are pure functions of the (substrate-independent) event
/// stream, so reports carrying these stay bit-identical across
/// substrates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HydrationStats {
    /// Interesting-event windows observed.
    pub windows: u64,
    /// Windows that materialized a fresh probe `System` pair.
    pub hydrations: u64,
    /// Probes retired to keep the pool under its capacity bound.
    pub retirements: u64,
    /// Peak concurrently resident probes.
    pub peak_resident: u64,
    /// Peak modeled working-set bytes of the resident probe pairs
    /// (native + dilated science-block footprints per probe).
    pub peak_resident_bytes: u64,
    /// Windows satisfied by the per-archetype measurement memo.
    pub memo_hits: u64,
}

/// What a window needs to know to hydrate: the archetype's solver key,
/// its deploy mode, and the analytic solution to validate against.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// Canonical per-mode key (see [`crate::archetype::solver_key`]).
    pub key: String,
    /// Deploy mode the probe dilates the kernel through.
    pub mode: ExecutionMode,
    /// The analytic segment solution the ledger advanced hosts with.
    pub solution: SegmentSolution,
}

/// Minimal compute-only workload body: issue the science block a fixed
/// number of times, then exit.
#[derive(Debug)]
struct ProbeBody {
    block: OpBlock,
    iters: u32,
}

impl ThreadBody for ProbeBody {
    fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        if self.iters == 0 {
            return Action::Exit;
        }
        self.iters -= 1;
        Action::compute(self.block.clone())
    }
}

/// Bounded pool of full-fidelity probe systems hydrated around
/// interesting events.
#[derive(Debug, Clone)]
pub struct HydrationPool {
    capacity: usize,
    /// Resident probes, oldest first:
    /// (archetype|band key, measured factor, modeled footprint bytes).
    resident: Vec<(String, f64, u64)>,
    /// Per-(archetype, speed-band) measurement memo — one probe
    /// residency per band per campaign, however many windows fire.
    measured: DetMap<String, (f64, u64)>,
    /// Route the expensive machine-model replay through the
    /// process-wide memo in [`crate::fastforward`]. Affects only the
    /// cost of obtaining the (deterministic) measurement — every
    /// counter in [`HydrationStats`] is identical either way.
    use_global: bool,
    stats: HydrationStats,
}

impl HydrationPool {
    /// A pool bounded at [`DEFAULT_HYDRATION_CAP`] resident systems.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_HYDRATION_CAP)
    }

    /// A pool bounded at `capacity` resident systems (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        HydrationPool {
            capacity: capacity.max(1),
            resident: Vec::new(),
            measured: DetMap::new(),
            use_global: false,
            stats: HydrationStats::default(),
        }
    }

    /// Toggle the process-wide measurement memo (used by the batched
    /// substrate when fast-forward is enabled).
    pub(crate) fn with_global_memo(mut self, on: bool) -> Self {
        self.use_global = on;
        self
    }

    /// Observe one interesting-event window for an archetype at a host
    /// speed band: hydrate a probe pair (or hit the memo) and check
    /// the measured dilation against the analytic ledger. Windows are
    /// keyed per (archetype, band) so a heterogeneous pool genuinely
    /// exercises the residency bound; the machine-model replay itself
    /// is band-invariant and measured once per mode.
    pub fn window(&mut self, spec: &ProbeSpec, band: u16) {
        self.stats.windows += 1;
        let key = format!("{}|s{band}", spec.key);
        if let Some(&(factor, _)) = self.measured.get(&key) {
            self.stats.memo_hits += 1;
            Self::check(&key, factor, spec.solution.vm_factor);
            return;
        }
        let factor = if self.use_global {
            crate::fastforward::measured_dilation(&spec.mode)
        } else {
            measure_dilation_direct(&spec.mode)
        };
        let bytes = probe_footprint_bytes(&spec.mode);
        Self::check(&key, factor, spec.solution.vm_factor);
        self.measured.insert(key.clone(), (factor, bytes));
        // Make room first: the bound is on *concurrently* resident
        // systems, so the pool never exceeds its capacity.
        while self.resident.len() >= self.capacity {
            self.resident.remove(0);
            self.stats.retirements += 1;
        }
        self.resident.push((key, factor, bytes));
        self.stats.hydrations += 1;
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident.len() as u64);
        let resident_bytes: u64 = self.resident.iter().map(|(_, _, b)| *b).sum();
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(resident_bytes);
    }

    /// Retire every resident probe and return the final counters.
    pub fn finish(mut self) -> HydrationStats {
        self.stats.retirements += self.resident.len() as u64;
        self.resident.clear();
        self.stats
    }

    /// Counters so far (peak gauge included).
    pub fn stats(&self) -> HydrationStats {
        self.stats
    }

    /// Probes validate only the CPU dilation: checkpoint overhead is a
    /// bandwidth model with no `System`-level analogue, so `ckpt_frac`
    /// is excluded from the hydrated cross-check by design.
    fn check(key: &str, measured: f64, analytic: f64) {
        let rel = (measured - analytic).abs() / analytic;
        assert!(
            rel <= PROBE_TOLERANCE,
            "hydrated probe diverged from analytic ledger for {key}: \
             measured {measured:.4} vs analytic {analytic:.4} (rel {rel:.4})",
        );
    }
}

/// Materialize the probe pair: run the science block on a testbed
/// system under the native and the dilated instruction mix, and
/// return the measured wall-time dilation. This is the single
/// ground-truth measurement; the process-wide memo in
/// [`crate::fastforward`] only caches its (deterministic) result.
pub(crate) fn measure_dilation_direct(mode: &ExecutionMode) -> f64 {
    let block = crate::sim::science_block();
    let native = run_probe(block.clone());
    let dilated = match mode {
        ExecutionMode::Native => native,
        ExecutionMode::Vm(profile) => run_probe(profile.dilate(&block)),
    };
    dilated / native
}

/// Modeled working-set footprint of one resident probe pair: the
/// native science block plus its dilated twin. Deterministic — a pure
/// function of the deploy mode's instruction mix.
pub(crate) fn probe_footprint_bytes(mode: &ExecutionMode) -> u64 {
    let block = crate::sim::science_block();
    match mode {
        ExecutionMode::Native => 2 * block.working_set,
        ExecutionMode::Vm(profile) => block.working_set + profile.dilate(&block).working_set,
    }
}

fn run_probe(block: OpBlock) -> f64 {
    let mut sys = System::new(SystemConfig::testbed(PROBE_SEED));
    sys.spawn(
        "hydration-probe",
        Priority::BelowNormal,
        Box::new(ProbeBody {
            block,
            iters: PROBE_ITERS,
        }),
    );
    let done = sys.run_to_completion(SimTime::from_secs(3600));
    assert!(done, "hydration probe did not complete within its window");
    sys.now().as_secs_f64()
}

impl Default for HydrationPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::{solve_direct, solver_key};
    use crate::model::DeployConfig;
    use vgrid_vmm::VmmProfile;

    fn spec_for(deploy: &DeployConfig) -> ProbeSpec {
        ProbeSpec {
            key: solver_key(&deploy.mode),
            mode: deploy.mode.clone(),
            solution: solve_direct(deploy),
        }
    }

    #[test]
    fn native_probe_measures_unity() {
        let mut pool = HydrationPool::new();
        pool.window(&spec_for(&DeployConfig::native()), 0);
        let stats = pool.finish();
        assert_eq!(stats.windows, 1);
        assert_eq!(stats.hydrations, 1);
        assert_eq!(stats.retirements, 1);
        assert_eq!(stats.peak_resident, 1);
        assert!(stats.peak_resident_bytes > 0);
    }

    #[test]
    fn vm_probe_agrees_with_analytic_factor() {
        let mut pool = HydrationPool::new();
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        pool.window(&spec_for(&deploy), 3);
        // Window() itself asserts agreement; here we check the memo path.
        pool.window(&spec_for(&deploy), 3);
        let stats = pool.stats();
        assert_eq!(stats.windows, 2);
        assert_eq!(stats.hydrations, 1);
        assert_eq!(stats.memo_hits, 1);
    }

    #[test]
    fn bands_occupy_distinct_residencies() {
        let mut pool = HydrationPool::new();
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        pool.window(&spec_for(&deploy), 1);
        pool.window(&spec_for(&deploy), 2);
        let stats = pool.stats();
        assert_eq!(stats.hydrations, 2, "bands key distinct residencies");
        assert_eq!(stats.peak_resident, 2);
        assert!(stats.peak_resident_bytes > 0);
    }

    #[test]
    fn global_memo_is_bit_identical_to_direct() {
        let deploy = DeployConfig::vm(VmmProfile::qemu(), 300 << 20);
        let mut direct = HydrationPool::new();
        direct.window(&spec_for(&deploy), 2);
        let mut global = HydrationPool::new().with_global_memo(true);
        global.window(&spec_for(&deploy), 2);
        assert_eq!(direct.stats(), global.stats());
        assert_eq!(direct.resident, global.resident);
    }

    #[test]
    fn capacity_bound_retires_oldest() {
        let mut pool = HydrationPool::with_capacity(1);
        pool.window(&spec_for(&DeployConfig::native()), 0);
        pool.window(
            &spec_for(&DeployConfig::vm(VmmProfile::qemu(), 300 << 20)),
            0,
        );
        let stats = pool.stats();
        assert_eq!(stats.hydrations, 2);
        assert_eq!(stats.peak_resident, 1, "pool never exceeds its bound");
        assert_eq!(stats.retirements, 1);
        let final_stats = pool.finish();
        assert_eq!(final_stats.retirements, 2);
    }
}
