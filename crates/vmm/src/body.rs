//! Host-side anatomy of a running virtual machine.
//!
//! Installing a VM into a host [`System`] spawns two host threads, which
//! is how the paper's VMs actually intrude on the host:
//!
//! * the **vCPU thread** (at the user-chosen priority class — the paper
//!   tests `Normal` and `Idle`) executes the guest's dilated instruction
//!   stream and performs the host-side halves of device operations
//!   (image-file I/O, host socket I/O, NAT translation CPU);
//! * the **service thread** (at `High`, regardless of the VM's priority)
//!   models the monitor's unconditional emulation activity — timer/APIC
//!   emulation at the guest's 1000 Hz tick rate, BT cache maintenance,
//!   host-side device threads. Its duty cycle is the profile's
//!   `service_duty`, the single knob behind the paper's Figures 7-8
//!   (and the reason an *idle-priority* VM still costs the host CPU).
//!
//! The facade also implements VM **checkpointing** (Section 1 motivates
//! it: "saving the state of the guest OS to persistent storage ... allows
//! simultaneously for fault tolerance and migration"): on request the
//! vCPU pauses the guest and streams the committed guest RAM to a host
//! file.

use crate::guest::{GuestStep, GuestVm};
use crate::profiles::{VmmProfile, VnicMode};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use vgrid_machine::ops::{OpBlock, OpClassCounts};
use vgrid_machine::DiskRequestKind;
use vgrid_os::{Action, ActionResult, FileId, Priority, System, ThreadBody, ThreadCtx, ThreadId};
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_simobs::MetricsRegistry;

/// Checkpoint write chunk.
const CKPT_CHUNK: u64 = 16 * 1024 * 1024;
/// Poll period for an idle guest with no scheduled wake-up.
const IDLE_POLL: SimDuration = SimDuration::from_millis(10);

/// Shared control/status block between the harness and the VM threads.
#[derive(Debug, Default)]
pub struct VmControl {
    /// Set by the harness to request a checkpoint to the given host path.
    pub checkpoint_request: Option<String>,
    /// Set by the vCPU when the checkpoint finishes.
    pub checkpoint_done_at: Option<SimTime>,
    /// Set when every guest thread has exited.
    pub halted: bool,
    /// Ask the VM to power off (vCPU and service threads exit).
    pub power_off: bool,
    /// Set once the VM was hard-killed ([`VmHandle::kill`]); guards the
    /// one-shot release of the committed guest RAM.
    pub killed: bool,
    /// Live guest-clock lag behind host time, seconds (updated by the
    /// vCPU; the paper's timing-imprecision phenomenon, observable from
    /// outside the VM).
    pub guest_clock_lag_secs: f64,
    /// Number of tick-loss events the guest clock has suffered.
    pub guest_clock_loss_events: u64,
    /// VMM exits taken for virtual-disk device emulation.
    pub exits_disk: u64,
    /// VMM exits taken for virtual-NIC operations.
    pub exits_net: u64,
    /// VMM exits taken because every guest thread was idle.
    pub exits_idle: u64,
    /// Ethernet frames the NAT vNIC translated (0 in bridged mode).
    pub nat_frames: u64,
    /// Host file writes issued by the checkpoint machinery
    /// ([`CKPT_CHUNK`]-sized streaming of the guest RAM).
    pub ckpt_chunk_writes: u64,
}

/// VM installation parameters.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// VM name (thread names derive from it).
    pub name: String,
    /// Host scheduling class of the vCPU thread (the paper tests Normal
    /// and Idle).
    pub vcpu_priority: Priority,
    /// Host path of the disk image backing the virtual disk.
    pub image_path: String,
}

impl VmConfig {
    /// Conventional config for a named VM at the given priority.
    pub fn new(name: impl Into<String>, vcpu_priority: Priority) -> Self {
        let name = name.into();
        VmConfig {
            image_path: format!("/vm/{name}.img"),
            name,
            vcpu_priority,
        }
    }
}

/// Handle to an installed VM.
#[derive(Debug)]
pub struct VmHandle {
    /// The vCPU host thread.
    pub vcpu: ThreadId,
    /// The service host thread.
    pub service: ThreadId,
    /// Shared control block.
    pub control: Rc<RefCell<VmControl>>,
    /// Memory the monitor committed at power-on (Section 4.2.1: fixed,
    /// known in advance — 300 MB in the paper's setup).
    pub committed_memory: u64,
}

impl VmHandle {
    /// Request a checkpoint of the guest RAM to `path`.
    pub fn request_checkpoint(&self, path: impl Into<String>) {
        self.control.borrow_mut().checkpoint_request = Some(path.into());
    }

    /// When the last requested checkpoint completed, if it has.
    pub fn checkpoint_done_at(&self) -> Option<SimTime> {
        self.control.borrow().checkpoint_done_at
    }

    /// Power the VM off (threads exit at their next scheduling point).
    pub fn power_off(&self) {
        self.control.borrow_mut().power_off = true;
    }

    /// True once the guest has halted (all guest threads exited).
    pub fn halted(&self) -> bool {
        self.control.borrow().halted
    }

    /// Publish the monitor's device-emulation counters into an
    /// observability registry. Pure function of simulation state.
    pub fn publish_metrics(&self, m: &mut MetricsRegistry) {
        let c = self.control.borrow();
        m.counter_add("vmm.exits.disk", c.exits_disk);
        m.counter_add("vmm.exits.net", c.exits_net);
        m.counter_add("vmm.exits.idle", c.exits_idle);
        m.counter_add("vmm.nat.frames", c.nat_frames);
        m.counter_add("vmm.ckpt.chunk_writes", c.ckpt_chunk_writes);
        m.counter_add("vmm.clock.loss_events", c.guest_clock_loss_events);
        m.gauge_add("vmm.clock.lag_secs", c.guest_clock_lag_secs);
    }

    /// Run `sys` until the guest halts or `deadline` passes, waking at
    /// event resolution rather than polling a wall-clock grid. Returns
    /// true if the guest halted in time.
    pub fn run_until_halted(&self, sys: &mut System, deadline: SimTime) -> bool {
        let control = self.control.clone();
        sys.run_until_event(deadline, || control.borrow().halted)
    }

    /// Freeze the whole VM (owner-preemption fault: the monitor is
    /// paused, not destroyed). The vCPU and the service thread stop
    /// consuming host CPU; guest state — RAM commitment included — is
    /// retained, so [`VmHandle::resume`] continues without loss. This is
    /// the paper's argued VM advantage over a native science process,
    /// which would have to roll back to its last checkpoint instead.
    pub fn suspend(&self, sys: &mut System) {
        sys.suspend_thread(self.vcpu);
        sys.suspend_thread(self.service);
    }

    /// Undo [`VmHandle::suspend`]: the VM's threads rejoin the ready
    /// queues and the guest picks up exactly where it stopped.
    pub fn resume(&self, sys: &mut System) {
        sys.resume_thread(self.vcpu);
        sys.resume_thread(self.service);
    }

    /// Hard-kill the VM (the owner reclaimed the machine): all VM
    /// threads die at the current instant without any guest-side
    /// shutdown, and the committed guest RAM is released back to the
    /// host. Unsaved guest state is lost; only on-disk state (the image
    /// file, any written checkpoints) survives. Idempotent.
    pub fn kill(&self, sys: &mut System) {
        {
            let mut c = self.control.borrow_mut();
            if c.killed {
                return;
            }
            c.killed = true;
            c.power_off = true;
        }
        sys.kill_thread(self.vcpu);
        sys.kill_thread(self.service);
        sys.release_memory(self.committed_memory);
    }
}

/// The VM facade.
pub struct Vm;

impl Vm {
    /// Install a VM: spawns the vCPU host thread and the service
    /// thread in `sys`. Panics if the host cannot commit the guest RAM;
    /// use [`Vm::try_install`] to handle that case.
    pub fn install(sys: &mut System, cfg: VmConfig, guest: GuestVm) -> VmHandle {
        let committed = guest.profile().guest_ram;
        let name = cfg.name.clone();
        match Vm::try_install(sys, cfg, guest) {
            Ok(vm) => vm,
            Err(available) => panic!(
                "cannot power on {}: needs {} MB committed but only {} MB of RAM remain",
                name,
                committed >> 20,
                available >> 20
            ),
        }
    }

    /// Install a VM, refusing (with the remaining RAM budget in bytes)
    /// when the host cannot hold the guest's committed memory alongside
    /// the OS working set — the practical limit the paper's
    /// Section 4.2.1 discusses.
    pub fn try_install(sys: &mut System, cfg: VmConfig, guest: GuestVm) -> Result<VmHandle, u64> {
        let control = Rc::new(RefCell::new(VmControl::default()));
        let profile = guest.profile().clone();
        let committed = profile.guest_ram;
        // The monitor commits the configured guest RAM up front.
        sys.commit_memory(committed)?;
        let ops_per_sec = sys.machine().cpu.freq_hz as f64 * sys.machine().cpu.int_ops_per_cycle;
        let vcpu = sys.spawn(
            format!("{}-vcpu0", cfg.name),
            cfg.vcpu_priority,
            Box::new(VcpuBody::new(guest, &cfg, control.clone())),
        );
        let service = sys.spawn(
            format!("{}-svc", cfg.name),
            Priority::High,
            Box::new(ServiceBody::new(&profile, ops_per_sec, control.clone())),
        );
        // The monitor's service activity (timer/APIC emulation, DPC-level
        // device work) executes on the CPU holding the VM's hot state:
        // steer it toward the vCPU's core so an otherwise-idle core is
        // not needlessly disturbed (Figure 5/6 behaviour).
        sys.set_buddy(service, vcpu);
        Ok(VmHandle {
            vcpu,
            service,
            control,
            committed_memory: committed,
        })
    }
}

#[derive(Debug)]
enum VPhase {
    OpenImage,
    Drive,
    Computing,
    /// A guest device operation escaped to the host: after the
    /// device-model overhead, issue these host actions in order, then
    /// hand the last result to the guest.
    Escape(VecDeque<Action>),
    CkptOpen {
        path: String,
    },
    CkptWrite {
        remaining: u64,
    },
    CkptSync,
    CkptClose,
}

/// The vCPU host thread body; it owns the nested guest kernel.
#[derive(Debug)]
pub struct VcpuBody {
    guest: GuestVm,
    image_path: String,
    image: Option<FileId>,
    ckpt_file: Option<FileId>,
    control: Rc<RefCell<VmControl>>,
    phase: VPhase,
    /// CPU time observed at the previous activation (for the serviced-
    /// span calculation feeding the guest clock).
    last_cpu: SimDuration,
}

impl VcpuBody {
    fn new(guest: GuestVm, cfg: &VmConfig, control: Rc<RefCell<VmControl>>) -> Self {
        VcpuBody {
            guest,
            image_path: cfg.image_path.clone(),
            image: None,
            ckpt_file: None,
            control,
            phase: VPhase::OpenImage,
            last_cpu: SimDuration::ZERO,
        }
    }
}

impl ThreadBody for VcpuBody {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let serviced = ctx.cpu_time.saturating_sub(self.last_cpu);
        self.last_cpu = ctx.cpu_time;
        loop {
            if let ActionResult::Err(e) = ctx.result {
                panic!("vcpu: host operation failed: {e:?} in {:?}", self.phase);
            }
            match &mut self.phase {
                VPhase::OpenImage => {
                    if let ActionResult::Opened(id) = ctx.result {
                        self.image = Some(id);
                        self.phase = VPhase::Drive;
                        ctx.result = ActionResult::None;
                        continue;
                    }
                    return Action::FileOpen {
                        path: self.image_path.clone(),
                        create: true,
                        truncate: false,
                        direct: true,
                    };
                }
                VPhase::Drive => {
                    {
                        let mut c = self.control.borrow_mut();
                        c.guest_clock_lag_secs = self.guest.clock.total_lag().as_secs_f64();
                        c.guest_clock_loss_events = self.guest.clock.loss_events;
                        if c.power_off {
                            return Action::Exit;
                        }
                        if let Some(path) = c.checkpoint_request.take() {
                            self.phase = VPhase::CkptOpen { path };
                            continue;
                        }
                    }
                    let step = self.guest.step(ctx.now);
                    match step {
                        GuestStep::Compute(block) => {
                            self.phase = VPhase::Computing;
                            return Action::compute(block);
                        }
                        GuestStep::DiskIo {
                            kind,
                            offset,
                            bytes,
                            overhead,
                        } => {
                            self.control.borrow_mut().exits_disk += 1;
                            let file = self.image.expect("image opened");
                            let io = match kind {
                                DiskRequestKind::Read => Action::FileRead { file, bytes },
                                DiskRequestKind::Write => Action::FileWrite { file, bytes },
                            };
                            let seek = Action::FileSeek { file, pos: offset };
                            self.phase = VPhase::Escape(VecDeque::from([seek, io]));
                            return Action::compute(overhead);
                        }
                        GuestStep::Net { action, overhead } => {
                            let mut c = self.control.borrow_mut();
                            c.exits_net += 1;
                            // Per-frame NAT translation work is what the
                            // profiles charge for; count the frames it
                            // covered (bridged vNICs translate nothing).
                            if let Action::NetSend { bytes, .. } | Action::NetRecv { bytes, .. } =
                                action
                            {
                                if self.guest.vnic_mode() == VnicMode::Nat {
                                    c.nat_frames += self.guest.frames_for(bytes);
                                }
                            }
                            self.phase = VPhase::Escape(VecDeque::from([action]));
                            return Action::compute(overhead);
                        }
                        GuestStep::Idle { until } => {
                            self.control.borrow_mut().exits_idle += 1;
                            let dt = match until {
                                Some(t) if t > ctx.now => t.since(ctx.now),
                                Some(_) => SimDuration::from_micros(100),
                                None => IDLE_POLL,
                            };
                            return Action::Sleep(dt);
                        }
                        GuestStep::Halted => {
                            self.control.borrow_mut().halted = true;
                            return Action::Exit;
                        }
                    }
                }
                VPhase::Computing => {
                    self.guest.complete_compute(ctx.now, serviced);
                    self.phase = VPhase::Drive;
                    ctx.result = ActionResult::None;
                    continue;
                }
                VPhase::Escape(actions) => {
                    if let Some(action) = actions.pop_front() {
                        return action;
                    }
                    let result = std::mem::replace(&mut ctx.result, ActionResult::None);
                    self.guest.complete_io(ctx.now, result);
                    self.phase = VPhase::Drive;
                    continue;
                }
                VPhase::CkptOpen { path } => {
                    if let ActionResult::Opened(id) = ctx.result {
                        self.ckpt_file = Some(id);
                        self.phase = VPhase::CkptWrite {
                            remaining: self.guest.profile().guest_ram,
                        };
                        ctx.result = ActionResult::None;
                        continue;
                    }
                    return Action::FileOpen {
                        path: path.clone(),
                        create: true,
                        truncate: true,
                        direct: false,
                    };
                }
                VPhase::CkptWrite { remaining } => {
                    let remaining = *remaining;
                    if remaining == 0 {
                        self.phase = VPhase::CkptSync;
                        continue;
                    }
                    let n = CKPT_CHUNK.min(remaining);
                    self.phase = VPhase::CkptWrite {
                        remaining: remaining - n,
                    };
                    self.control.borrow_mut().ckpt_chunk_writes += 1;
                    return Action::FileWrite {
                        file: self.ckpt_file.expect("opened"),
                        bytes: n,
                    };
                }
                VPhase::CkptSync => {
                    if ctx.result == ActionResult::Synced {
                        self.phase = VPhase::CkptClose;
                        continue;
                    }
                    return Action::FileSync {
                        file: self.ckpt_file.expect("opened"),
                    };
                }
                VPhase::CkptClose => {
                    if ctx.result == ActionResult::Closed {
                        self.ckpt_file = None;
                        self.control.borrow_mut().checkpoint_done_at = Some(ctx.now);
                        self.phase = VPhase::Drive;
                        ctx.result = ActionResult::None;
                        continue;
                    }
                    return Action::FileClose {
                        file: self.ckpt_file.expect("opened"),
                    };
                }
            }
        }
    }
}

/// The monitor's service thread: a fixed duty cycle of emulation work.
#[derive(Debug)]
pub struct ServiceBody {
    duty_block: std::rc::Rc<OpBlock>,
    sleep: SimDuration,
    control: Rc<RefCell<VmControl>>,
    busy_phase: bool,
}

impl ServiceBody {
    fn new(profile: &VmmProfile, ops_per_sec: f64, control: Rc<RefCell<VmControl>>) -> Self {
        // 1 ms service period (the guest's 1000 Hz tick drives it).
        let period = SimDuration::from_millis(1);
        let busy = period.scale(profile.service_duty);
        let sleep = period.saturating_sub(busy);
        let duty_block = OpBlock {
            label: format!("{}:service", profile.name),
            counts: OpClassCounts {
                int_ops: (busy.as_secs_f64() * ops_per_sec) as u64,
                ..Default::default()
            },
            working_set: 256 * 1024, // BT caches / device state
            locality: 0.7,
        };
        ServiceBody {
            duty_block: std::rc::Rc::new(duty_block),
            sleep,
            control,
            busy_phase: true,
        }
    }
}

impl ThreadBody for ServiceBody {
    fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        if self.control.borrow().power_off || self.control.borrow().halted {
            return Action::Exit;
        }
        self.busy_phase = !self.busy_phase;
        if self.busy_phase {
            if self.sleep.is_zero() {
                return Action::Compute(self.duty_block.clone());
            }
            Action::Sleep(self.sleep)
        } else {
            Action::Compute(self.duty_block.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::GuestConfig;
    use vgrid_machine::ops::OpBlock as OB;
    use vgrid_os::SystemConfig;

    #[derive(Debug)]
    struct GuestBurn {
        iters: u32,
    }
    impl ThreadBody for GuestBurn {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            if self.iters == 0 {
                return Action::Exit;
            }
            self.iters -= 1;
            Action::compute(OB::int_alu(60_000_000)) // 10 ms guest
        }
    }

    fn testbed() -> System {
        System::new(SystemConfig::testbed(11))
    }

    #[test]
    fn vm_executes_guest_work_with_dilation() {
        let mut sys = testbed();
        // 100 x 10 ms = 1 s of guest work under VmPlayer.
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: 100 }));
        let vm = Vm::install(&mut sys, VmConfig::new("vm0", Priority::Normal), guest);
        sys.run_until(SimTime::from_secs(10));
        assert!(vm.halted(), "guest should have finished");
        let vcpu_cpu = sys.thread_stats(vm.vcpu).cpu_time.as_secs_f64();
        // VmPlayer int dilation 1.16: ~1.16 s of host CPU for 1 s of
        // guest work.
        assert!((1.10..1.25).contains(&vcpu_cpu), "vcpu cpu {vcpu_cpu}");
    }

    #[test]
    fn qemu_dilation_roughly_doubles_host_cost() {
        let mut sys = testbed();
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::qemu()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: 50 }));
        let vm = Vm::install(&mut sys, VmConfig::new("vmq", Priority::Normal), guest);
        sys.run_until(SimTime::from_secs(10));
        assert!(vm.halted());
        let vcpu_cpu = sys.thread_stats(vm.vcpu).cpu_time.as_secs_f64();
        // QEMU int dilation 2.95: 0.5 s of guest int work costs ~1.5 s.
        assert!(
            (1.3..1.7).contains(&vcpu_cpu),
            "vcpu cpu {vcpu_cpu} for 0.5 s guest"
        );
    }

    #[test]
    fn service_thread_burns_its_duty() {
        let mut sys = testbed();
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: u32::MAX }));
        let vm = Vm::install(&mut sys, VmConfig::new("vm0", Priority::Normal), guest);
        sys.run_until(SimTime::from_secs(4));
        let svc = sys.thread_stats(vm.service).cpu_time.as_secs_f64();
        // duty 0.8 over 4 s = ~3.2 s.
        assert!((3.0..3.4).contains(&svc), "service cpu {svc}");
    }

    #[test]
    fn committed_memory_is_the_configured_300mb() {
        let mut sys = testbed();
        let guest = GuestVm::new(GuestConfig::new(VmmProfile::virtualbox()), sys.machine());
        let vm = Vm::install(&mut sys, VmConfig::new("vmb", Priority::Normal), guest);
        assert_eq!(vm.committed_memory, 300 * 1024 * 1024);
    }

    #[test]
    fn checkpoint_writes_guest_ram_and_takes_disk_time() {
        let mut sys = testbed();
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: u32::MAX }));
        let vm = Vm::install(&mut sys, VmConfig::new("vm0", Priority::Normal), guest);
        sys.run_until(SimTime::from_millis(100));
        vm.request_checkpoint("/ckpt/vm0.sav");
        sys.run_until(SimTime::from_secs(30));
        let done = vm.checkpoint_done_at().expect("checkpoint finished");
        // 300 MB at ~55 MB/s write: >= ~5 s after the request.
        let elapsed = done.as_secs_f64() - 0.1;
        assert!((4.0..9.0).contains(&elapsed), "checkpoint took {elapsed}");
        assert_eq!(sys.fs.size_of("/ckpt/vm0.sav"), Some(300 * 1024 * 1024));
    }

    #[test]
    #[should_panic(expected = "cannot power on")]
    fn host_refuses_vms_beyond_its_ram() {
        // 1 GB host, 25% OS headroom -> 768 MB budget: two 300 MB VMs
        // fit, the third does not.
        let mut sys = testbed();
        for i in 0..3 {
            let guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
            Vm::install(
                &mut sys,
                VmConfig::new(format!("vm{i}"), Priority::Normal),
                guest,
            );
        }
    }

    #[test]
    fn power_off_stops_both_threads() {
        let mut sys = testbed();
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::virtualpc()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: u32::MAX }));
        let vm = Vm::install(&mut sys, VmConfig::new("vmp", Priority::Normal), guest);
        sys.run_until(SimTime::from_millis(500));
        vm.power_off();
        sys.run_until(SimTime::from_secs(2));
        assert!(sys.is_exited(vm.vcpu));
        assert!(sys.is_exited(vm.service));
    }

    #[test]
    fn suspend_freezes_guest_and_resume_continues_without_loss() {
        let mut sys = testbed();
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: u32::MAX }));
        let vm = Vm::install(&mut sys, VmConfig::new("vms", Priority::Normal), guest);
        sys.run_until(SimTime::from_secs(1));
        let before = sys.thread_stats(vm.vcpu).cpu_time;
        vm.suspend(&mut sys);
        sys.run_until(SimTime::from_secs(3));
        let frozen = sys.thread_stats(vm.vcpu).cpu_time;
        // A suspended VM consumes no host CPU at all (vCPU or service).
        assert_eq!(before, frozen, "suspended vCPU kept running");
        assert_eq!(sys.committed_memory(), vm.committed_memory);
        vm.resume(&mut sys);
        sys.run_until(SimTime::from_secs(4));
        let resumed = sys.thread_stats(vm.vcpu).cpu_time;
        assert!(resumed > frozen, "resumed vCPU must make progress");
    }

    #[test]
    fn kill_stops_threads_and_releases_committed_ram() {
        let mut sys = testbed();
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::qemu()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: u32::MAX }));
        let vm = Vm::install(&mut sys, VmConfig::new("vmk", Priority::Normal), guest);
        sys.run_until(SimTime::from_millis(500));
        assert_eq!(sys.committed_memory(), vm.committed_memory);
        vm.kill(&mut sys);
        vm.kill(&mut sys); // idempotent: releases RAM once
        assert!(sys.is_exited(vm.vcpu));
        assert!(sys.is_exited(vm.service));
        assert_eq!(sys.committed_memory(), 0);
        sys.run_until(SimTime::from_secs(2));
        let vcpu = sys.thread_stats(vm.vcpu).cpu_time;
        sys.run_until(SimTime::from_secs(3));
        assert_eq!(sys.thread_stats(vm.vcpu).cpu_time, vcpu);
    }

    #[test]
    fn try_install_reports_remaining_budget_instead_of_panicking() {
        let mut sys = testbed();
        for i in 0..2 {
            let guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
            let r = Vm::try_install(
                &mut sys,
                VmConfig::new(format!("vm{i}"), Priority::Normal),
                guest,
            );
            assert!(r.is_ok());
        }
        let guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
        let err = Vm::try_install(&mut sys, VmConfig::new("vm2", Priority::Normal), guest)
            .expect_err("third VM must not fit");
        // 768 MB budget minus two 300 MB commitments = 168 MB left.
        assert_eq!(err, 168 * 1024 * 1024);
    }

    #[test]
    fn idle_priority_vcpu_yields_to_host_load() {
        let mut sys = System::new(SystemConfig {
            boost_interval: None,
            ..SystemConfig::testbed(11)
        });
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::virtualbox()), sys.machine());
        guest.spawn("burn", Box::new(GuestBurn { iters: u32::MAX }));
        let vm = Vm::install(&mut sys, VmConfig::new("vmi", Priority::Idle), guest);
        // Two host hogs occupy both cores.
        #[derive(Debug)]
        struct Hog;
        impl ThreadBody for Hog {
            fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
                Action::compute(OB::int_alu(10_000_000))
            }
        }
        sys.spawn("hog1", Priority::Normal, Box::new(Hog));
        sys.spawn("hog2", Priority::Normal, Box::new(Hog));
        sys.run_until(SimTime::from_secs(3));
        let vcpu = sys.thread_stats(vm.vcpu).cpu_time.as_secs_f64();
        let svc = sys.thread_stats(vm.service).cpu_time.as_secs_f64();
        assert!(vcpu < 0.1, "idle vcpu starved: {vcpu}");
        // But the service thread keeps burning at High priority — the
        // mechanism behind Figure 7.
        assert!(svc > 1.0, "service kept running: {svc}");
    }
}
