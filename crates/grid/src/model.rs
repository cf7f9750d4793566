//! Desktop-grid domain model: projects, work units, volunteers.
//!
//! The paper's motivation is running public-resource projects
//! (SETI@home, Einstein@home, ...) inside VMs for sandboxing and
//! homogeneity. This module models the BOINC-style entities; `sim`
//! runs campaigns over a volunteer pool and measures what VM-based
//! deployment costs end to end — CPU dilation, the "initialization
//! workunit" image download (Gonzalez et al., cited by the paper, report
//! a 1.4 GB image), VM checkpoint overhead, and the paper's committed-
//! memory constraint.

use vgrid_simcore::SimDuration;
use vgrid_vmm::VmmProfile;

/// How tasks are executed on volunteers.
#[derive(Debug, Clone)]
pub enum ExecutionMode {
    /// The science app runs directly on the volunteer host.
    Native,
    /// The science app runs inside a VM of the given profile
    /// (vm-wrapper deployment).
    Vm(VmmProfile),
}

impl ExecutionMode {
    /// Name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ExecutionMode::Native => "native",
            // The calibrated profiles all carry static names; resolve
            // them to static composites so callers get `&'static str`.
            ExecutionMode::Vm(p) => match p.name {
                "VMwarePlayer" => "vm-VMwarePlayer",
                "QEMU" => "vm-QEMU",
                "VirtualBox" => "vm-VirtualBox",
                "VirtualPC" => "vm-VirtualPC",
                _ => "vm-custom",
            },
        }
    }
}

impl std::fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A project's work-generation parameters.
#[derive(Debug, Clone)]
pub struct ProjectConfig {
    /// Work units to produce (the campaign size).
    pub workunits: u32,
    /// Reference CPU seconds per work unit (time on the testbed's core,
    /// native). Einstein@home-era tasks ran for hours.
    pub wu_ref_secs: f64,
    /// Input download per work unit, bytes.
    pub wu_input_bytes: u64,
    /// Output upload per work unit, bytes.
    pub wu_output_bytes: u64,
    /// Copies of each work unit issued (replication).
    pub replication: u32,
    /// Matching results required to validate a work unit.
    pub quorum: u32,
    /// Reissue a copy if no result arrives within this deadline.
    pub deadline: SimDuration,
    /// Probability a volunteer returns a wrong result (why replication
    /// exists).
    pub error_rate: f64,
}

impl Default for ProjectConfig {
    fn default() -> Self {
        ProjectConfig {
            workunits: 200,
            wu_ref_secs: 4.0 * 3600.0,
            wu_input_bytes: 4 << 20,
            wu_output_bytes: 64 << 10,
            replication: 2,
            quorum: 2,
            deadline: SimDuration::from_secs(7 * 24 * 3600),
            error_rate: 0.02,
        }
    }
}

/// Volunteer-pool parameters.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of volunteer hosts.
    pub volunteers: u32,
    /// Mean continuous-uptime span, seconds (exponential).
    pub mean_uptime_secs: f64,
    /// Mean offline span, seconds (exponential).
    pub mean_downtime_secs: f64,
    /// Volunteer CPU speed multipliers relative to the testbed core,
    /// drawn uniformly from this range.
    pub speed_range: (f64, f64),
    /// Download bandwidth per volunteer, bytes/sec.
    pub down_bw: f64,
    /// Upload bandwidth per volunteer, bytes/sec.
    pub up_bw: f64,
    /// Volunteer RAM, bytes: hosts with less than the VM's committed
    /// memory plus OS headroom cannot take VM tasks at all (Section
    /// 4.2.1's constraint, applied pool-wide).
    pub ram_range: (u64, u64),
    /// Probability that a host going offline never returns (volunteer
    /// attrition). The server's deadline reissue is what keeps such
    /// losses from stranding work units.
    pub permanent_failure_prob: f64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            volunteers: 100,
            mean_uptime_secs: 8.0 * 3600.0,
            mean_downtime_secs: 16.0 * 3600.0,
            speed_range: (0.5, 2.0),
            down_bw: 1.5e6 / 8.0 * 4.0, // ~6 Mbit/s ADSL-era but generous
            up_bw: 0.5e6,
            ram_range: (256 << 20, 2 << 30),
            permanent_failure_prob: 0.0,
        }
    }
}

/// Deployment-mechanics parameters.
#[derive(Debug, Clone)]
pub struct DeployConfig {
    /// How tasks execute.
    pub mode: ExecutionMode,
    /// VM image ("initialization workunit") size; Gonzalez et al. used
    /// 1.4 GB, the paper suggests small distributions can halve RAM use.
    /// A native deploy fetches no image: `CampaignSpec::build` rejects
    /// any value but 0 there.
    pub image_bytes: u64,
    /// Checkpoint interval (host time).
    pub checkpoint_interval: SimDuration,
    /// App-level checkpoint size when running natively.
    pub native_checkpoint_bytes: u64,
    /// RAM headroom the host OS needs beyond the VM's commit.
    pub host_headroom_bytes: u64,
    /// Migrate interrupted tasks to another volunteer by shipping the
    /// checkpointed state through the server (the paper's Section 1:
    /// checkpointing "mak\[es\] possible the exportation of a virtual
    /// environment to another physical machine"). Without migration an
    /// interrupted task waits for its original host to return.
    pub migrate_on_churn: bool,
    /// Scheduler-side migration policy: deadline-driven straggler
    /// rescue and hazard-driven preemptive evacuation, each paying the
    /// modeled checkpoint-transfer cost (unlike `migrate_on_churn`,
    /// PR 4's instant free re-queue). Default: off.
    pub migration: crate::migration::MigrationPolicy,
}

impl DeployConfig {
    /// Native deployment (no image, small checkpoints).
    pub fn native() -> Self {
        DeployConfig {
            mode: ExecutionMode::Native,
            image_bytes: 0,
            checkpoint_interval: SimDuration::from_secs(600),
            native_checkpoint_bytes: 1 << 20,
            host_headroom_bytes: 256 << 20,
            migrate_on_churn: false,
            migration: crate::migration::MigrationPolicy::off(),
        }
    }

    /// VM deployment with the given monitor and image size.
    pub fn vm(profile: VmmProfile, image_bytes: u64) -> Self {
        DeployConfig {
            mode: ExecutionMode::Vm(profile),
            image_bytes,
            checkpoint_interval: SimDuration::from_secs(600),
            native_checkpoint_bytes: 1 << 20,
            host_headroom_bytes: 256 << 20,
            migrate_on_churn: false,
            migration: crate::migration::MigrationPolicy::off(),
        }
    }

    /// Enable churn migration (ship checkpointed state to another host).
    pub fn with_migration(mut self) -> Self {
        self.migrate_on_churn = true;
        self
    }

    /// Set the scheduler-side migration policy.
    pub fn with_policy(mut self, policy: crate::migration::MigrationPolicy) -> Self {
        self.migration = policy;
        self
    }
}

/// Campaign outcome statistics.
///
/// `Debug` is implemented by hand (not derived) because the derived
/// output is load-bearing: the wire layer's `report_digest` and the
/// pinned bench digests hash the `Debug` string. The three
/// migration-policy fields at the end print only when non-zero, so
/// policy-off campaigns — including every committed golden — format
/// exactly as the pre-migration derive did.
#[derive(Clone, Default, PartialEq)]
pub struct GridReport {
    /// Execution-mode name.
    pub mode: String,
    /// Work units validated by quorum.
    pub validated_wus: u32,
    /// Individual task results returned.
    pub results_returned: u64,
    /// Of which failed validation.
    pub bad_results: u64,
    /// Simulated seconds until the campaign validated all work units
    /// (or the horizon, if it did not finish).
    pub makespan_secs: f64,
    /// True when every work unit validated within the horizon.
    pub finished: bool,
    /// Total volunteer CPU seconds spent computing (including work that
    /// was later lost or invalidated).
    pub cpu_secs_spent: f64,
    /// CPU seconds of computation lost to churn (rolled back to the last
    /// checkpoint).
    pub cpu_secs_lost: f64,
    /// Seconds volunteers spent downloading VM images.
    pub image_transfer_secs: f64,
    /// Volunteers excluded because their RAM cannot hold the VM.
    pub hosts_excluded_ram: u32,
    /// Interrupted tasks migrated to another volunteer.
    pub migrations: u64,
    /// Valid scientific throughput: reference CPU seconds of validated
    /// work per volunteer-uptime second.
    pub efficiency: f64,
    /// Validated reference CPU seconds delivered per wall-clock second
    /// of the campaign (unique science, replication excluded).
    pub goodput: f64,
    /// CPU seconds spent that produced no validated science: churn
    /// losses, bad results, and redundant returns past quorum.
    pub wasted_cpu_secs: f64,
    /// Copies reissued because a deadline expired without a result.
    pub reissues: u64,
    /// Makespan relative to a fully-available, perfectly-scheduled
    /// pool of the RAM-eligible hosts (>= 1 for finished campaigns;
    /// 0 when no host is eligible).
    pub makespan_inflation: f64,
    /// Owner sessions that preempted (or tried to preempt) a host.
    pub owner_preemptions: u64,
    /// Sandbox kills applied to in-flight activities (owner escalations
    /// plus spontaneous kills).
    pub vm_kills: u64,
    /// Volunteer availability/fault transitions the campaign processed:
    /// hosts coming up, going down, owner sessions starting and ending,
    /// and sandbox kills.
    pub fault_transitions: u64,
    /// Checkpoints written by volunteers while computing (the checkpoint
    /// model charges a fractional write overhead per interval; this
    /// counts the intervals it covered).
    pub checkpoint_writes: u64,
    /// Host census per archetype (canonical label order): how the pool
    /// decomposed into machine × mode × churn-class × speed-band
    /// population slices.
    pub archetype_hosts: Vec<(String, u32)>,
    /// Hydration-pool lifecycle counters (windows, hydrations,
    /// retirements, peak resident probes, memo hits). Identical across
    /// substrates: a pure function of the event stream.
    pub hydration: crate::hydrate::HydrationStats,
    /// Computing hosts evacuated preemptively on a predicted-
    /// interruption hazard (migration policy only).
    pub evacuations: u64,
    /// Work units validated by a copy that had been re-homed by the
    /// straggler-rescue policy.
    pub rescue_wins: u64,
    /// Server-NIC seconds spent shipping exported checkpoints
    /// (contention-scaled; migration policy only).
    pub transfer_secs: f64,
}

impl std::fmt::Debug for GridReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("GridReport");
        s.field("mode", &self.mode)
            .field("validated_wus", &self.validated_wus)
            .field("results_returned", &self.results_returned)
            .field("bad_results", &self.bad_results)
            .field("makespan_secs", &self.makespan_secs)
            .field("finished", &self.finished)
            .field("cpu_secs_spent", &self.cpu_secs_spent)
            .field("cpu_secs_lost", &self.cpu_secs_lost)
            .field("image_transfer_secs", &self.image_transfer_secs)
            .field("hosts_excluded_ram", &self.hosts_excluded_ram)
            .field("migrations", &self.migrations)
            .field("efficiency", &self.efficiency)
            .field("goodput", &self.goodput)
            .field("wasted_cpu_secs", &self.wasted_cpu_secs)
            .field("reissues", &self.reissues)
            .field("makespan_inflation", &self.makespan_inflation)
            .field("owner_preemptions", &self.owner_preemptions)
            .field("vm_kills", &self.vm_kills)
            .field("fault_transitions", &self.fault_transitions)
            .field("checkpoint_writes", &self.checkpoint_writes)
            .field("archetype_hosts", &self.archetype_hosts)
            .field("hydration", &self.hydration);
        // Policy-off campaigns never move these; omitting the zeros
        // keeps every pre-migration Debug digest byte-identical.
        if self.evacuations != 0 {
            s.field("evacuations", &self.evacuations);
        }
        if self.rescue_wins != 0 {
            s.field("rescue_wins", &self.rescue_wins);
        }
        if self.transfer_secs != 0.0 {
            s.field("transfer_secs", &self.transfer_secs);
        }
        s.finish()
    }
}

impl GridReport {
    /// Publish the campaign's outcome counters into an observability
    /// registry. Pure function of simulation state.
    pub fn publish_metrics(&self, m: &mut vgrid_simobs::MetricsRegistry) {
        m.counter_add("grid.validated_wus", self.validated_wus as u64);
        m.counter_add("grid.results_returned", self.results_returned);
        m.counter_add("grid.bad_results", self.bad_results);
        m.counter_add("grid.hosts_excluded_ram", self.hosts_excluded_ram as u64);
        m.counter_add("grid.migrations", self.migrations);
        m.counter_add("grid.reissues", self.reissues);
        m.counter_add("grid.owner_preemptions", self.owner_preemptions);
        m.counter_add("grid.vm_kills", self.vm_kills);
        m.counter_add("grid.fault_transitions", self.fault_transitions);
        m.counter_add("grid.checkpoint_writes", self.checkpoint_writes);
        m.counter_add("grid.evacuations", self.evacuations);
        m.counter_add("grid.rescue_wins", self.rescue_wins);
        m.gauge_add("grid.transfer_secs", self.transfer_secs);
        m.gauge_add("grid.cpu_secs_spent", self.cpu_secs_spent);
        m.gauge_add("grid.cpu_secs_lost", self.cpu_secs_lost);
        m.gauge_add("grid.image_transfer_secs", self.image_transfer_secs);
        m.gauge_add("grid.wasted_cpu_secs", self.wasted_cpu_secs);
        for (label, count) in &self.archetype_hosts {
            m.counter_add(&format!("grid.archetype.{label}.hosts"), *count as u64);
        }
        m.counter_add("grid.pool.windows", self.hydration.windows);
        m.counter_add("grid.pool.hydrations", self.hydration.hydrations);
        m.counter_add("grid.pool.retirements", self.hydration.retirements);
        m.counter_add("grid.pool.memo_hits", self.hydration.memo_hits);
        m.gauge_add(
            "grid.pool.peak_resident",
            self.hydration.peak_resident as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = ProjectConfig::default();
        assert!(p.quorum <= p.replication);
        assert!(p.error_rate < 0.5);
        let pool = PoolConfig::default();
        assert!(pool.speed_range.0 < pool.speed_range.1);
        assert!(pool.ram_range.0 < pool.ram_range.1);
    }

    #[test]
    fn mode_names() {
        assert_eq!(ExecutionMode::Native.name(), "native");
        assert_eq!(
            ExecutionMode::Vm(VmmProfile::vmplayer()).name(),
            "vm-VMwarePlayer"
        );
        // Display mirrors `name` and allocates only at the call site.
        assert_eq!(ExecutionMode::Native.to_string(), "native");
        assert_eq!(ExecutionMode::Vm(VmmProfile::qemu()).to_string(), "vm-QEMU");
    }

    #[test]
    fn deploy_presets() {
        let n = DeployConfig::native();
        assert_eq!(n.image_bytes, 0);
        let v = DeployConfig::vm(VmmProfile::qemu(), 1_400 << 20);
        assert_eq!(v.image_bytes, 1_400 << 20);
        assert!(matches!(v.mode, ExecutionMode::Vm(_)));
    }
}
