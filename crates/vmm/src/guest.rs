//! The guest virtual machine: a nested single-vCPU kernel.
//!
//! [`GuestVm`] is a complete guest operating system instance — its own
//! scheduler (round-robin over one virtual CPU, like the paper's
//! single-CPU 300 MB Ubuntu guests), its own filesystem with its own page
//! cache, its own network stack, and its own (distortable) clock. Its
//! file and network syscalls go through the host's own syscall table,
//! [`Action::plan_io`]. It is *externally clocked*: it makes progress
//! only when the host schedules its vCPU thread, which drives it through
//! a step/complete protocol:
//!
//! 1. the vCPU body calls [`GuestVm::step`], receiving either a
//!    [`GuestStep::Compute`] block (guest instructions, already dilated
//!    into host work by the VMM profile), a device operation that must
//!    escape to the host ([`GuestStep::DiskIo`], [`GuestStep::Net`]), or
//!    an idle report;
//! 2. the body performs the host-side work and calls
//!    [`GuestVm::complete_compute`] / [`GuestVm::complete_io`];
//! 3. repeat.
//!
//! This double traversal — guest syscall + guest FS + guest stack, then
//! world switch, then host file/net I/O — is exactly the structure that
//! makes guest I/O expensive in the paper's Figure 3/4, and it emerges
//! here from composition rather than from a fitted curve.

use crate::profiles::{VmmProfile, VnicMode};
use std::collections::VecDeque;
use vgrid_machine::ops::OpBlock;
use vgrid_machine::{CpuModel, DiskRequest, DiskRequestKind, MachineSpec};
use vgrid_os::fs::{FileSystem, FsConfig};
use vgrid_os::net::{NetConfig, NetPlan, NetStack};
use vgrid_os::{Action, ActionResult, ConnId, IoCall, IoPlan, ThreadBody, ThreadCtx, ThreadId};
use vgrid_simcore::{DetMap, SimDuration, SimRng, SimTime};
use vgrid_timeref::{GuestClock, GuestClockConfig};

/// Guest scheduler quantum.
const QUANTUM: SimDuration = SimDuration::from_millis(20);

/// Maximum guest compute chunk surfaced per step (bounds how long the
/// guest runs between clock/scheduler bookkeeping points).
const CHUNK: SimDuration = SimDuration::from_millis(5);

/// Seed for guest-side randomness.
const SEED: u64 = 0x6e57;

/// Guest construction parameters.
#[derive(Debug, Clone)]
pub struct GuestConfig {
    /// The monitor hosting this guest.
    pub profile: VmmProfile,
    /// vNIC attachment mode.
    pub vnic_mode: VnicMode,
}

impl GuestConfig {
    /// Defaults for a given profile (paper setup: 300 MB single-vCPU
    /// Ubuntu guest, default vNIC mode of the product).
    pub fn new(profile: VmmProfile) -> Self {
        let vnic_mode = profile.default_vnic;
        GuestConfig { profile, vnic_mode }
    }

    /// Override the vNIC mode (the paper measures VmPlayer both bridged
    /// and NAT).
    pub fn with_vnic(mut self, mode: VnicMode) -> Self {
        self.vnic_mode = mode;
        self
    }
}

/// What the vCPU must do next on the host.
#[derive(Debug)]
pub enum GuestStep {
    /// Execute this block (already dilated to host work), then call
    /// [`GuestVm::complete_compute`].
    Compute(OpBlock),
    /// Perform a virtual-disk request: run `overhead` (device-model CPU),
    /// then the host image I/O, then hand its result to
    /// [`GuestVm::complete_io`].
    DiskIo {
        /// Read or write the image.
        kind: DiskRequestKind,
        /// Byte offset within the image file.
        offset: u64,
        /// Transfer size.
        bytes: u64,
        /// Host CPU cost of the device emulation.
        overhead: OpBlock,
    },
    /// Perform a virtual-NIC operation: run `overhead`, then `action` on
    /// the host, then hand its result to [`GuestVm::complete_io`].
    Net {
        /// The guest thread's network action, on host connection ids.
        action: Action,
        /// Host CPU cost of the vNIC path (per-frame translation).
        overhead: OpBlock,
    },
    /// No guest thread is runnable; the vCPU may halt until the given
    /// host time (if any wake is pending) or indefinitely.
    Idle {
        /// Earliest pending guest wake-up, in host time.
        until: Option<SimTime>,
    },
    /// Every guest thread has exited.
    Halted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    Ready,
    Running,
    Blocked,
    Exited,
}

/// What follows a guest thread's compute block.
#[derive(Debug)]
enum GCont {
    Resume,
    Deliver(ActionResult),
    /// Escape these requests to the virtual disk one at a time, then
    /// deliver the result.
    Disk {
        reqs: VecDeque<DiskRequest>,
        result: ActionResult,
    },
    /// Escape the thread's own network action to the vNIC, then deliver
    /// the guest stack's result.
    Net {
        action: Action,
        result: ActionResult,
    },
}

#[derive(Debug)]
struct GExec {
    /// Guest-side remaining work.
    block: OpBlock,
    /// Guest-side piece currently executing on the host.
    in_flight: Option<OpBlock>,
    cont: GCont,
}

#[derive(Debug)]
struct GThread {
    name: String,
    body: Option<Box<dyn ThreadBody>>,
    pending: ActionResult,
    exec: Option<GExec>,
    state: GState,
    rng: SimRng,
    quantum_left: SimDuration,
    /// Guest work executed (undilated guest-seconds).
    cpu_time: SimDuration,
    wake_at: Option<SimTime>,
    joiners: Vec<usize>,
}

/// The nested guest kernel.
#[derive(Debug)]
pub struct GuestVm {
    cfg: GuestConfig,
    cpu: CpuModel,
    ops_per_sec: f64,
    /// Guest filesystem (public for experiment setup inside the guest).
    pub fs: FileSystem,
    net: NetStack,
    /// The guest's distortable clock.
    pub clock: GuestClock,
    threads: Vec<GThread>,
    ready: VecDeque<usize>,
    /// Guest thread currently bound to the vCPU.
    current: Option<usize>,
    /// The device operation the vCPU has escaped to, if any, with the
    /// guest thread blocked on it.
    escape: Option<(usize, GCont)>,
    /// The vNIC's translation table: the host connection behind each
    /// open guest connection.
    host_conn: DetMap<ConnId, ConnId>,
    rng: SimRng,
}

const ACTIVATION_FUSE: u32 = 10_000;

impl GuestVm {
    /// Build a guest over the host machine's CPU model.
    pub fn new(cfg: GuestConfig, host: &MachineSpec) -> Self {
        let cpu = host.cpu_model();
        let ops_per_sec = host.cpu.freq_hz as f64 * host.cpu.int_ops_per_cycle;
        let fs = FileSystem::new(FsConfig::for_ram(cfg.profile.guest_ram));
        // The guest's NIC driver/stack cost per frame: kept small here
        // because the expensive half of the virtual network path (the
        // monitor-side translation) is charged by the profile's vNIC
        // overhead blocks — this avoids double counting.
        let net = NetStack::new(
            NetConfig {
                syscall_kernel_ops: 4,
                kernel_ops_per_frame: 4,
            },
            host.nic_model(),
        );
        let clock = GuestClock::new(GuestClockConfig {
            loss_fraction: cfg.profile.tick_loss,
            ..Default::default()
        });
        let rng = SimRng::new(SEED);
        GuestVm {
            cfg,
            cpu,
            ops_per_sec,
            fs,
            net,
            clock,
            threads: Vec::new(),
            ready: VecDeque::new(),
            current: None,
            escape: None,
            host_conn: DetMap::new(),
            rng,
        }
    }

    /// The profile of the hosting monitor.
    pub fn profile(&self) -> &VmmProfile {
        &self.cfg.profile
    }

    /// The vNIC mode in use.
    pub fn vnic_mode(&self) -> VnicMode {
        self.cfg.vnic_mode
    }

    /// Ethernet frames the virtual link needs for a `bytes`-sized
    /// transfer (what the NAT vNIC translates per frame).
    pub fn frames_for(&self, bytes: u64) -> u64 {
        self.net.nic().link.frames_for(bytes)
    }

    /// Spawn a guest thread.
    pub fn spawn(&mut self, name: impl Into<String>, body: Box<dyn ThreadBody>) -> ThreadId {
        let idx = self.threads.len();
        let rng = self.rng.fork(0x9000 + idx as u64);
        self.threads.push(GThread {
            name: name.into(),
            body: Some(body),
            pending: ActionResult::None,
            exec: None,
            state: GState::Ready,
            rng,
            quantum_left: QUANTUM,
            cpu_time: SimDuration::ZERO,
            wake_at: None,
            joiners: Vec::new(),
        });
        self.ready.push_back(idx);
        ThreadId(idx as u32)
    }

    /// Guest-side CPU time of a guest thread (undilated guest work).
    pub fn guest_cpu_time(&self, tid: ThreadId) -> SimDuration {
        self.threads[tid.0 as usize].cpu_time
    }

    /// True when every guest thread exited.
    pub fn halted(&self) -> bool {
        !self.threads.is_empty() && self.threads.iter().all(|t| t.state == GState::Exited)
    }

    /// Ask the guest what the vCPU should do next. Must not be called
    /// while a compute piece is outstanding; a pending escape is
    /// surfaced again until [`GuestVm::complete_io`].
    pub fn step(&mut self, host_now: SimTime) -> GuestStep {
        // A vNIC escape surfaces before the clock observes `host_now`, a
        // disk escape after. The two orders differ when host time passes
        // between `complete_compute` and this call (a checkpoint).
        if let Some((_, GCont::Net { action, .. })) = &self.escape {
            return self.net_escape(action);
        }
        self.clock.observe(host_now);
        // Outstanding disk requests first (multi-request FS plans).
        if let Some((_, GCont::Disk { reqs, .. })) = &self.escape {
            let req = reqs.front().expect("a disk escape has a request left");
            return GuestStep::DiskIo {
                kind: req.kind,
                offset: req.offset,
                bytes: req.bytes,
                overhead: self
                    .cfg
                    .profile
                    .disk_overhead_block(req.bytes, self.ops_per_sec),
            };
        }
        // Wake sleepers.
        for idx in 0..self.threads.len() {
            let th = &mut self.threads[idx];
            if th.state == GState::Blocked {
                if let Some(w) = th.wake_at {
                    if w <= host_now {
                        th.wake_at = None;
                        th.state = GState::Ready;
                        self.ready.push_back(idx);
                    }
                }
            }
        }
        // Ensure a current thread on the vCPU.
        if self.current.is_none() {
            self.current = self.ready.pop_front();
            if let Some(idx) = self.current {
                let th = &mut self.threads[idx];
                th.state = GState::Running;
                if th.quantum_left <= SimDuration::from_nanos(1) {
                    th.quantum_left = QUANTUM;
                }
            }
        }
        let Some(idx) = self.current else {
            if self.halted() {
                return GuestStep::Halted;
            }
            let until = self
                .threads
                .iter()
                .filter(|t| t.state == GState::Blocked)
                .filter_map(|t| t.wake_at)
                .min();
            return GuestStep::Idle { until };
        };
        // Activation loop: pull actions until a timed one.
        if self.threads[idx].exec.is_none() {
            self.activate(idx, host_now);
            // The thread computes now, or it blocked, exited or yielded:
            // step again (bounded by thread count, not unbounded: each
            // recursion retires at least one activation).
            return self.step(host_now);
        }
        // Slice off the next chunk of the current exec.
        let th = &mut self.threads[idx];
        let exec = th.exec.as_mut().expect("checked above");
        assert!(exec.in_flight.is_none(), "step() with piece outstanding");
        let est = self.cpu.solo_estimate(&exec.block);
        let budget = CHUNK.min(th.quantum_left.max(SimDuration::from_millis(1)));
        let piece = if est.duration <= budget {
            std::mem::replace(&mut exec.block, OpBlock::int_alu(0))
        } else {
            let frac = budget.as_secs_f64() / est.duration.as_secs_f64();
            exec.block.split_off(frac)
        };
        let host_block = self.cfg.profile.dilate(&piece);
        exec.in_flight = Some(piece);
        GuestStep::Compute(host_block)
    }

    /// The vNIC escape of a guest network action: the action on host
    /// connection ids, and the monitor's cost of forwarding its frames.
    fn net_escape(&self, action: &Action) -> GuestStep {
        let host = |conn: ConnId| self.host_conn[&conn];
        let (action, frames) = match *action {
            Action::NetConnect { remote } => (Action::NetConnect { remote }, 2),
            Action::NetSend { conn, bytes } => {
                let conn = host(conn);
                (Action::NetSend { conn, bytes }, self.frames_for(bytes))
            }
            Action::NetRecv { conn, bytes } => {
                let conn = host(conn);
                (Action::NetRecv { conn, bytes }, self.frames_for(bytes))
            }
            Action::NetClose { conn } => (Action::NetClose { conn: host(conn) }, 1),
            _ => unreachable!("only network actions escape to the vNIC"),
        };
        let profile = &self.cfg.profile;
        let overhead = profile.net_overhead_block(frames, self.cfg.vnic_mode, self.ops_per_sec);
        GuestStep::Net { action, overhead }
    }

    /// Drive guest thread `idx` through zero-time actions until it has a
    /// block to compute, blocks, yields or exits.
    fn activate(&mut self, idx: usize, host_now: SimTime) {
        let mut fuse = 0;
        loop {
            fuse += 1;
            assert!(
                fuse < ACTIVATION_FUSE,
                "guest thread '{}' spinning on zero-time actions",
                self.threads[idx].name
            );
            let mut body = self.threads[idx].body.take().expect("body present");
            let result = std::mem::replace(&mut self.threads[idx].pending, ActionResult::None);
            let cpu_time = self.threads[idx].cpu_time;
            let action = {
                let th = &mut self.threads[idx];
                let mut ctx = ThreadCtx {
                    // Guest code sees the *guest* clock.
                    now: self.clock.now(),
                    result,
                    cpu_time,
                    me: ThreadId(idx as u32),
                    rng: &mut th.rng,
                };
                body.next(&mut ctx)
            };
            self.threads[idx].body = Some(body);
            if let Some(call) = action.plan_io(&mut self.fs, &mut self.net) {
                // The guest kernel's own syscall work runs on the vCPU
                // first; device work then escapes to the host.
                let (block, cont) = match call {
                    IoCall::File(IoPlan { cpu, disk, result }) if disk.is_empty() => {
                        (cpu, GCont::Deliver(result))
                    }
                    IoCall::File(IoPlan { cpu, disk, result }) => {
                        let reqs = disk.into();
                        (cpu, GCont::Disk { reqs, result })
                    }
                    // A call the guest stack fails never reaches the
                    // vNIC: the thread gets the error, as on the host.
                    IoCall::Net(NetPlan {
                        cpu,
                        result: result @ ActionResult::Err(_),
                        ..
                    }) => (cpu, GCont::Deliver(result)),
                    IoCall::Net(NetPlan { cpu, result, .. }) => {
                        (cpu, GCont::Net { action, result })
                    }
                };
                self.threads[idx].exec = Some(GExec {
                    block,
                    in_flight: None,
                    cont,
                });
                return;
            }
            match action {
                Action::Compute(block) => {
                    if self.cpu.solo_estimate(&block).duration.is_zero() {
                        self.threads[idx].pending = ActionResult::None;
                        continue;
                    }
                    // The guest mutates its copy as it slices work off,
                    // so unshare the body's handle here.
                    let block = std::rc::Rc::unwrap_or_clone(block);
                    self.threads[idx].exec = Some(GExec {
                        block,
                        in_flight: None,
                        cont: GCont::Resume,
                    });
                    return;
                }
                Action::Sleep(d) => {
                    let th = &mut self.threads[idx];
                    th.pending = ActionResult::None;
                    th.state = GState::Blocked;
                    th.wake_at = Some(host_now + d);
                    self.current = None;
                    return;
                }
                Action::YieldCpu => {
                    let th = &mut self.threads[idx];
                    th.pending = ActionResult::None;
                    th.state = GState::Ready;
                    th.quantum_left = QUANTUM;
                    self.ready.push_back(idx);
                    self.current = None;
                    return;
                }
                Action::Spawn { name, body, .. } => {
                    // Guest priorities are ignored: single-vCPU RR.
                    let tid = self.spawn(name, body);
                    self.threads[idx].pending = ActionResult::Spawned(tid);
                    continue;
                }
                Action::Join { thread } => {
                    let target = thread.0 as usize;
                    if self.threads[target].state == GState::Exited {
                        self.threads[idx].pending = ActionResult::Joined;
                        continue;
                    }
                    self.threads[target].joiners.push(idx);
                    self.threads[idx].state = GState::Blocked;
                    self.current = None;
                    return;
                }
                Action::Exit => {
                    self.threads[idx].state = GState::Exited;
                    for j in std::mem::take(&mut self.threads[idx].joiners) {
                        self.deliver(j, ActionResult::Joined);
                    }
                    self.current = None;
                    return;
                }
                _ => unreachable!("file and network actions are planned above"),
            }
        }
    }

    /// The compute piece returned by the last [`GuestVm::step`] finished
    /// on the host at `host_now`. `serviced` is how much of the elapsed
    /// host time the vCPU thread actually executed (its CPU-time delta);
    /// the remainder was starvation, which costs guest timer ticks.
    pub fn complete_compute(&mut self, host_now: SimTime, serviced: SimDuration) {
        self.clock.observe_with_service(host_now, serviced);
        let idx = self.current.expect("a guest thread was computing");
        let quantum;
        let finished;
        {
            let th = &mut self.threads[idx];
            let exec = th.exec.as_mut().expect("exec present");
            let piece = exec.in_flight.take().expect("piece outstanding");
            let guest_secs = self.cpu.solo_estimate(&piece).duration;
            th.cpu_time += guest_secs;
            th.quantum_left = th.quantum_left.saturating_sub(guest_secs);
            quantum = th.quantum_left;
            finished = exec.block.is_empty();
        }
        if finished {
            let exec = self.threads[idx].exec.take().expect("present");
            match exec.cont {
                GCont::Resume => {
                    self.threads[idx].pending = ActionResult::None;
                }
                GCont::Deliver(r) => {
                    self.threads[idx].pending = r;
                }
                device => {
                    self.threads[idx].state = GState::Blocked;
                    self.current = None;
                    self.escape = Some((idx, device));
                }
            }
        } else if quantum <= SimDuration::from_nanos(1) && !self.ready.is_empty() {
            // Guest quantum rotation.
            let th = &mut self.threads[idx];
            th.state = GState::Ready;
            th.quantum_left = QUANTUM;
            self.ready.push_back(idx);
            self.current = None;
        }
    }

    /// The host side of the escaped device operation finished at
    /// `host_now` with `host_result`. I/O service gaps are fully
    /// serviced (the monitor keeps delivering ticks while the guest
    /// waits for its own devices). A vNIC connect records the host
    /// connection behind the guest's; a close forgets it.
    pub fn complete_io(&mut self, host_now: SimTime, host_result: ActionResult) {
        self.clock.observe_with_service(host_now, SimDuration::MAX);
        let escape = self.escape.take();
        match escape.expect("complete_io with no pending host operation") {
            (tid, GCont::Disk { mut reqs, result }) => {
                reqs.pop_front().expect("a request was outstanding");
                if reqs.is_empty() {
                    self.deliver(tid, result);
                } else {
                    self.escape = Some((tid, GCont::Disk { reqs, result }));
                }
            }
            (tid, GCont::Net { action, result }) => {
                if let (ActionResult::Connected(guest), ActionResult::Connected(host)) =
                    (&result, host_result)
                {
                    self.host_conn.insert(*guest, host);
                }
                if let Action::NetClose { conn } = action {
                    self.host_conn.remove(&conn);
                }
                self.deliver(tid, result);
            }
            (_, GCont::Resume | GCont::Deliver(_)) => unreachable!("only device work escapes"),
        }
    }

    fn deliver(&mut self, tid: usize, result: ActionResult) {
        let th = &mut self.threads[tid];
        th.pending = result;
        if th.state == GState::Blocked {
            th.state = GState::Ready;
            self.ready.push_back(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_machine::ops::OpBlock as OB;
    use vgrid_os::RemoteHost;

    #[derive(Debug)]
    struct Burn {
        iters: u32,
    }
    impl ThreadBody for Burn {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            if self.iters == 0 {
                return Action::Exit;
            }
            self.iters -= 1;
            Action::compute(OB::int_alu(24_000_000)) // 4 ms guest
        }
    }

    fn guest(profile: VmmProfile) -> GuestVm {
        GuestVm::new(GuestConfig::new(profile), &MachineSpec::core2_duo_6600())
    }

    #[test]
    fn compute_steps_are_dilated() {
        let mut g = guest(VmmProfile::qemu());
        g.spawn("burn", Box::new(Burn { iters: 1 }));
        let step = g.step(SimTime::ZERO);
        let GuestStep::Compute(block) = step else {
            panic!("expected compute, got {step:?}")
        };
        // QEMU int dilation 2.95: 24M guest ops -> 70.8M host ops.
        assert_eq!(block.counts.int_ops, 70_800_000);
        g.complete_compute(SimTime::from_millis(10), SimDuration::MAX);
        let step = g.step(SimTime::from_millis(10));
        assert!(matches!(step, GuestStep::Halted), "{step:?}");
    }

    #[test]
    fn long_blocks_are_chunked() {
        let mut g = guest(VmmProfile::vmplayer());
        // 100 ms of guest work must surface in <= 5 ms chunks.
        #[derive(Debug)]
        struct Big;
        impl ThreadBody for Big {
            fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
                if ctx.cpu_time.is_zero() {
                    Action::compute(OB::int_alu(600_000_000)) // 100 ms guest
                } else {
                    Action::Exit
                }
            }
        }
        g.spawn("big", Box::new(Big));
        let mut host = SimTime::ZERO;
        let mut chunks = 0;
        loop {
            match g.step(host) {
                GuestStep::Compute(b) => {
                    chunks += 1;
                    // <= 5 ms guest at 6e9 ops/s = 30M guest ops; dilated
                    // by 1.16 -> <= ~35M.
                    assert!(b.counts.int_ops <= 36_000_000, "chunk {}", b.counts.int_ops);
                    host += SimDuration::from_millis(6);
                    g.complete_compute(host, SimDuration::MAX);
                }
                GuestStep::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
            assert!(chunks < 100, "too many chunks");
        }
        assert!(chunks >= 20, "expected ~20 chunks, got {chunks}");
    }

    #[test]
    fn guest_cpu_time_tracks_undilated_work() {
        let mut g = guest(VmmProfile::qemu());
        let tid = g.spawn("burn", Box::new(Burn { iters: 2 }));
        let mut host = SimTime::ZERO;
        loop {
            match g.step(host) {
                GuestStep::Compute(_) => {
                    host += SimDuration::from_millis(20);
                    g.complete_compute(host, SimDuration::MAX);
                }
                GuestStep::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // 2 x 24M int ops at 6e9 ops/s = 8 ms guest work, regardless of
        // QEMU's dilation.
        let t = g.guest_cpu_time(tid).as_millis_f64();
        assert!((t - 8.0).abs() < 0.5, "guest cpu {t} ms");
    }

    #[derive(Debug)]
    struct GuestWriter {
        phase: u8,
        file: Option<vgrid_os::FileId>,
    }
    impl ThreadBody for GuestWriter {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Action::FileOpen {
                        path: "/guest-data".into(),
                        create: true,
                        truncate: true,
                        direct: false,
                    }
                }
                1 => {
                    let ActionResult::Opened(id) = ctx.result else {
                        panic!("{:?}", ctx.result)
                    };
                    self.file = Some(id);
                    self.phase = 2;
                    Action::FileWrite {
                        file: id,
                        bytes: 1 << 20,
                    }
                }
                2 => {
                    self.phase = 3;
                    Action::FileSync {
                        file: self.file.expect("opened"),
                    }
                }
                _ => Action::Exit,
            }
        }
    }

    #[test]
    fn guest_file_sync_escapes_to_host_disk_io() {
        let mut g = guest(VmmProfile::vmplayer());
        g.spawn(
            "writer",
            Box::new(GuestWriter {
                phase: 0,
                file: None,
            }),
        );
        let mut host = SimTime::ZERO;
        let mut saw_disk_io = false;
        for _ in 0..200 {
            match g.step(host) {
                GuestStep::Compute(_) => {
                    host += SimDuration::from_millis(2);
                    g.complete_compute(host, SimDuration::MAX);
                }
                GuestStep::DiskIo {
                    kind,
                    bytes,
                    overhead,
                    ..
                } => {
                    saw_disk_io = true;
                    assert_eq!(kind, DiskRequestKind::Write);
                    assert_eq!(bytes, 1 << 20);
                    assert!(overhead.counts.int_ops > 0, "emulation costs CPU");
                    host += SimDuration::from_millis(20);
                    g.complete_io(host, ActionResult::Wrote { bytes });
                }
                GuestStep::Halted => break,
                GuestStep::Idle { .. } => {
                    host += SimDuration::from_millis(1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_disk_io, "sync must reach the virtual disk");
        assert!(g.halted());
    }

    #[test]
    fn idle_guest_reports_wakeup() {
        #[derive(Debug)]
        struct Sleeper {
            done: bool,
        }
        impl ThreadBody for Sleeper {
            fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
                if self.done {
                    return Action::Exit;
                }
                self.done = true;
                Action::Sleep(SimDuration::from_millis(50))
            }
        }
        let mut g = guest(VmmProfile::virtualbox());
        g.spawn("sleeper", Box::new(Sleeper { done: false }));
        let step = g.step(SimTime::ZERO);
        let GuestStep::Idle { until } = step else {
            panic!("{step:?}")
        };
        assert_eq!(until, Some(SimTime::from_millis(50)));
        // After the wake time the thread exits.
        let step = g.step(SimTime::from_millis(60));
        assert!(matches!(step, GuestStep::Halted), "{step:?}");
    }

    #[test]
    fn guest_clock_lags_when_vcpu_starved() {
        let mut g = guest(VmmProfile::vmplayer());
        g.spawn("burn", Box::new(Burn { iters: 100 }));
        let mut host = SimTime::ZERO;
        for _ in 0..10 {
            match g.step(host) {
                GuestStep::Compute(_) => {
                    // Host starves the vCPU: each 4 ms chunk takes 500 ms,
                    // of which only ~5 ms was actual execution.
                    host += SimDuration::from_millis(500);
                    g.complete_compute(host, SimDuration::from_millis(5));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            g.clock.total_lag() > SimDuration::from_millis(500),
            "lag {}",
            g.clock.total_lag()
        );
    }

    /// Opens two connections to a LAN source, receives and sends on
    /// each, closes both, and logs every result it is handed.
    #[derive(Debug)]
    struct TwoConns {
        log: std::rc::Rc<std::cell::RefCell<Vec<ActionResult>>>,
        conns: Vec<ConnId>,
        step: usize,
    }
    impl ThreadBody for TwoConns {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            if let ActionResult::Connected(c) = ctx.result {
                self.conns.push(c);
            }
            self.log.borrow_mut().push(ctx.result.clone());
            self.step += 1;
            let remote = RemoteHost::lan_source();
            match self.step {
                1 | 2 => Action::NetConnect { remote },
                3 => Action::NetRecv {
                    conn: self.conns[0],
                    bytes: 64 << 10,
                },
                4 => Action::NetSend {
                    conn: self.conns[0],
                    bytes: 8 << 10,
                },
                5 => Action::NetRecv {
                    conn: self.conns[1],
                    bytes: 1 << 20,
                },
                6 => Action::NetSend {
                    conn: self.conns[1],
                    bytes: 256 << 10,
                },
                7 => Action::NetClose {
                    conn: self.conns[0],
                },
                8 => Action::NetClose {
                    conn: self.conns[1],
                },
                _ => Action::Exit,
            }
        }
    }

    /// Drive [`TwoConns`] by hand on a VmPlayer guest in `mode`, acting
    /// as the host: its connects are answered with host ids 7 and 3,
    /// unlike the guest's own 1 and 2. Returns every escaped action with
    /// its vNIC overhead, and the results the thread saw.
    fn drive_two_conns(mode: VnicMode) -> (Vec<(Action, OpBlock)>, Vec<ActionResult>) {
        let mut g = GuestVm::new(
            GuestConfig::new(VmmProfile::vmplayer()).with_vnic(mode),
            &MachineSpec::core2_duo_6600(),
        );
        let log = std::rc::Rc::default();
        let body = TwoConns {
            log: std::rc::Rc::clone(&log),
            conns: Vec::new(),
            step: 0,
        };
        g.spawn("net", Box::new(body));
        let mut host_ids = vec![ConnId(3), ConnId(7)];
        let mut escaped = Vec::new();
        let mut host = SimTime::ZERO;
        loop {
            host += SimDuration::from_millis(1);
            match g.step(host) {
                GuestStep::Compute(_) => g.complete_compute(host, SimDuration::MAX),
                GuestStep::Net { action, overhead } => {
                    let result = match action {
                        Action::NetConnect { .. } => {
                            ActionResult::Connected(host_ids.pop().expect("two connects"))
                        }
                        Action::NetSend { bytes, .. } => ActionResult::Sent { bytes },
                        Action::NetRecv { bytes, .. } => ActionResult::Received { bytes },
                        Action::NetClose { .. } => ActionResult::NetClosed,
                        ref other => panic!("not a network action: {other:?}"),
                    };
                    escaped.push((action, overhead));
                    g.complete_io(host, result);
                }
                GuestStep::Halted => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        let results = log.borrow().clone();
        (escaped, results)
    }

    #[test]
    fn vnic_escapes_carry_host_connection_ids() {
        let (nat, results) = drive_two_conns(VnicMode::Nat);
        let host_conns: Vec<_> = nat
            .iter()
            .filter_map(|(a, _)| match *a {
                Action::NetSend { conn, .. }
                | Action::NetRecv { conn, .. }
                | Action::NetClose { conn } => Some(conn.0),
                _ => None,
            })
            .collect();
        // recv/send on the first connection, then on the second, then
        // close both: each on its own connection's host id.
        assert_eq!(host_conns, [7, 7, 3, 3, 7, 3]);
        // The vNIC charges per frame moved: 2 for a connect, 1 for a
        // close, one per MSS of payload.
        let ops = |escapes: &[(Action, OpBlock)]| -> Vec<u64> {
            escapes.iter().map(|(_, o)| o.counts.int_ops).collect()
        };
        let n = ops(&nat);
        assert_eq!(n.len(), 8);
        assert!(n[7] < n[0], "close (1 frame) vs connect (2): {n:?}");
        assert!(n[0] < n[3], "connect vs an 8 KiB send: {n:?}");
        assert!(n[3] < n[2] && n[2] < n[5] && n[5] < n[4], "{n:?}");
        // NAT translation costs more than bridging for the same bytes.
        let (bridged, bridged_results) = drive_two_conns(VnicMode::Bridged);
        assert_eq!(bridged_results, results);
        let b = ops(&bridged);
        assert!(
            n.iter().zip(&b).all(|(n, b)| n > b),
            "NAT {n:?}, bridged {b:?}"
        );
        // The thread sees its guest-side results, on guest ids, in order.
        let (g1, g2) = (ConnId(1), ConnId(2));
        assert_eq!(
            results,
            [
                ActionResult::None,
                ActionResult::Connected(g1),
                ActionResult::Connected(g2),
                ActionResult::Received { bytes: 64 << 10 },
                ActionResult::Sent { bytes: 8 << 10 },
                ActionResult::Received { bytes: 1 << 20 },
                ActionResult::Sent { bytes: 256 << 10 },
                ActionResult::NetClosed,
                ActionResult::NetClosed,
            ]
        );
    }

    /// Connects to a LAN sink, receives from it, closes it twice, and
    /// logs every result it is handed.
    #[derive(Debug)]
    struct FailingNetCalls {
        log: std::rc::Rc<std::cell::RefCell<Vec<ActionResult>>>,
        conn: ConnId,
        step: usize,
    }
    impl ThreadBody for FailingNetCalls {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            if let ActionResult::Connected(c) = ctx.result {
                self.conn = c;
            }
            self.log.borrow_mut().push(ctx.result.clone());
            self.step += 1;
            let conn = self.conn;
            match self.step {
                1 => Action::NetConnect {
                    remote: RemoteHost::lan_sink(),
                },
                2 => Action::NetRecv {
                    conn,
                    bytes: 64 << 10,
                },
                3 | 4 => Action::NetClose { conn },
                _ => Action::Exit,
            }
        }
    }

    #[test]
    fn failed_guest_network_calls_reach_the_guest_thread() {
        use crate::body::{Vm, VmConfig};
        use vgrid_os::{OsError, Priority, System, SystemConfig};
        let body = |log: &std::rc::Rc<_>| {
            Box::new(FailingNetCalls {
                log: std::rc::Rc::clone(log),
                conn: ConnId(0),
                step: 0,
            })
        };
        let native = std::rc::Rc::default();
        let mut sys = System::new(SystemConfig::testbed(11));
        sys.spawn("net", Priority::Normal, body(&native));
        sys.run_until(SimTime::from_secs(1));
        let guest_log = std::rc::Rc::default();
        let mut sys = System::new(SystemConfig::testbed(11));
        let mut g = GuestVm::new(
            GuestConfig::new(VmmProfile::vmplayer()).with_vnic(VnicMode::Nat),
            sys.machine(),
        );
        g.spawn("net", body(&guest_log));
        let vm = Vm::install(&mut sys, VmConfig::new("vm0", Priority::Normal), g);
        assert!(vm.run_until_halted(&mut sys, SimTime::from_secs(10)));
        // The receive from a sink and the second close fail in the guest
        // stack, as natively, and reach the guest thread.
        let expected = [
            ActionResult::None,
            ActionResult::Connected(ConnId(1)),
            ActionResult::Err(OsError::Invalid),
            ActionResult::NetClosed,
            ActionResult::Err(OsError::BadHandle),
        ];
        assert_eq!(native.borrow()[..], expected);
        assert_eq!(guest_log.borrow()[..], expected);
        // Only the connect and the first close escaped to the vNIC; the
        // failed receive translated no NAT frames.
        let c = vm.control.borrow();
        assert_eq!((c.exits_net, c.nat_frames), (2, 0));
    }
}
