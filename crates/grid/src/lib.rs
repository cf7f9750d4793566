//! # vgrid-grid
//!
//! Desktop-grid (BOINC-like) volunteer-computing substrate for the
//! `vgrid` testbed — the deployment context that motivates the paper.
//!
//! The paper measures *one machine's* VM overhead; this crate answers the
//! question that measurement exists to inform: **what does VM-based
//! sandboxing cost a whole volunteer project?** A campaign simulator
//! models a pool of churning volunteers running work units either
//! natively or inside a VM, where VM execution pays:
//!
//! * the CPU dilation **derived from the calibrated monitor profiles**
//!   (the quantitative bridge from the paper's Figures 1-2);
//! * the one-time VM-image "initialization workunit" download
//!   (Gonzalez et al., 1.4 GB, cited in the paper's related work);
//! * VM checkpoint traffic (300 MB of guest RAM vs kilobytes of
//!   app-level state);
//! * the committed-memory exclusion of small-RAM hosts (Section 4.2.1).
//!
//! On top of the availability baseline, [`faults::ChurnConfig`] injects
//! owner preemptions, hard sandbox kills and Weibull-shaped spans, and
//! [`checkpoint`] provides the robustness layer (durable checkpoints,
//! backoff refetch, quorum validation) that absorbs them.
//!
//! Campaigns are described with the [`CampaignSpec`] builder — the grid
//! twin of `vgrid-core`'s `TrialSpec` — validated by
//! [`CampaignSpec::build`] into a [`Campaign`], and run (sequentially
//! or with bit-identical parallel repetitions) into a
//! [`CampaignResult`]:
//!
//! ```
//! use vgrid_grid::{CampaignSpec, ChurnConfig, DeployConfig, PoolConfig, ProjectConfig};
//! use vgrid_simcore::SimTime;
//! use vgrid_vmm::VmmProfile;
//!
//! let project = ProjectConfig { workunits: 10, wu_ref_secs: 600.0, ..Default::default() };
//! let pool = PoolConfig { volunteers: 20, ..Default::default() };
//! let base = CampaignSpec::new("native")
//!     .project(project)
//!     .pool(pool)
//!     .horizon(SimTime::from_secs(14 * 24 * 3600))
//!     .seed(1);
//! let native = base.clone().build().unwrap().run();
//! let vm = base
//!     .deploy(DeployConfig::vm(VmmProfile::vmplayer(), 700 << 20))
//!     .churn(ChurnConfig::intensity(1.0))
//!     .build()
//!     .unwrap()
//!     .run();
//! assert!(native.metric("validated_wus").mean >= vm.metric("validated_wus").mean);
//! ```

#![forbid(unsafe_code)]

pub mod archetype;
pub mod campaign;
pub mod checkpoint;
pub mod client;
pub mod error;
pub mod fastforward;
pub mod faults;
pub mod hydrate;
pub mod migration;
pub mod model;
pub mod options;
pub mod sim;
pub mod wire;

pub use archetype::{ArchetypeKey, SegmentSolution};
pub use campaign::{Campaign, CampaignResult, CampaignSpec};
pub use checkpoint::{BackoffPolicy, BackoffState, QuorumValidator, RecordOutcome};
pub use client::{BoincClientBody, ClientStats, ClientWorkSpec};
pub use error::Error;
pub use fastforward::{reset_all, FastForwardStats};
pub use faults::ChurnConfig;
pub use hydrate::{HydrationPool, HydrationStats};
pub use migration::MigrationPolicy;
pub use model::{DeployConfig, ExecutionMode, GridReport, PoolConfig, ProjectConfig};
pub use options::{RunOptions, SchedulerMode};
pub use sim::{vm_cpu_factor, SubstrateMode};
pub use wire::{WireError, WireErrorKind, WireRequest};
