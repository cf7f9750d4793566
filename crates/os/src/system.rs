//! The host operating system simulator.
//!
//! [`System`] owns simulated time, the hardware models, the scheduler and
//! every thread. It is a discrete-event loop with *rate re-evaluation*:
//! whenever the set of blocks running on the cores changes, the
//! contention model is re-consulted and every in-flight compute slice is
//! re-timed. That is how a memory-hungry thread starting on core 1 slows
//! a thread already mid-slice on core 0 — the mechanism behind the
//! paper's host-intrusiveness measurements.
//!
//! ## Scheduling semantics (Windows XP-like)
//!
//! * Six strict priority classes; round-robin with a fixed quantum within
//!   a class; higher classes preempt immediately.
//! * `Idle`-class threads run only on otherwise-idle cores — this is the
//!   class the paper assigns to VMs to "minimize impact" (Section 4.2.3).
//! * A balance-set-manager-style anti-starvation boost periodically gives
//!   long-starved low-priority threads one quantum at `Normal`, so an
//!   idle-priority VM is slowed to a crawl by host load but never fully
//!   frozen (as on real XP).
//!
//! ## Slice-coalescing fast path
//!
//! A naive implementation fires one `SliceEnd` event per 20 ms quantum,
//! so a minutes-long compute burst costs thousands of events in which
//! nothing observable changes. This system instead splits slice
//! accounting in two:
//!
//! * **Integer accounting** (`cpu_time`, `quantum_left`, the `boosted`
//!   flag) accrues 1:1 with wall time and crosses quantum boundaries
//!   *analytically* in [`System::account_all`] — it can be brought
//!   current at any instant with identical results regardless of how
//!   often it runs.
//! * **Floating-point work folding** (`remaining -= elapsed * rate`) is
//!   rounding-sensitive to *where* it is evaluated, so it is folded only
//!   at points that exist in every execution mode: rate changes,
//!   finishes, rotations and preemptions.
//!
//! When a core's running thread cannot be rotated (no same-or-higher
//! priority thread is ready), consecutive quanta are coalesced into a
//! single `SliceEnd` at the block's projected finish time; otherwise the
//! next quantum boundary is materialized as a real event. Because both
//! decisions are re-evaluated after every handled event, and because
//! same-instant events pop in a mode-independent order (externals first,
//! then slice ends in core order — see `EventQueue::schedule_ranked`),
//! the coalesced schedule is bit-identical to the per-quantum reference
//! schedule (`SystemConfig { coalesce: false, .. }`).

use crate::action::{Action, ActionResult, IoCall, Priority, ThreadBody, ThreadCtx, ThreadId};
use crate::fs::{FileSystem, FsConfig, IoPlan};
use crate::net::{NetConfig, NetPlan, NetStack};
use crate::sched::ReadyQueues;
use std::collections::VecDeque;
use std::rc::Rc;
use vgrid_machine::ops::OpBlock;
use vgrid_machine::{
    ContentionCache, ContentionModel, CpuModel, DiskModel, DiskRequest, MachineSpec,
};
use vgrid_simcore::{
    EventLoopStats, EventQueue, EventQueueStats, SimDuration, SimRng, SimTime, TraceCategory,
    TraceSink,
};
use vgrid_simobs::{Histogram, MetricsRegistry};

/// Residual solo work below which a compute block counts as finished.
const WORK_EPS: f64 = 1e-10;
/// Residual quantum below which the quantum counts as expired.
const QUANTUM_EPS: SimDuration = SimDuration::from_nanos(1);
/// Maximum zero-time actions per activation before we declare the body
/// broken.
const ACTIVATION_FUSE: u32 = 10_000;

/// System construction parameters.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Hardware description.
    pub machine: MachineSpec,
    /// Scheduler quantum.
    pub quantum: SimDuration,
    /// Anti-starvation boost period (`None` disables boosting).
    pub boost_interval: Option<SimDuration>,
    /// Base seed for all per-thread random streams.
    pub seed: u64,
    /// Enable the slice-coalescing fast path (default). `false` forces
    /// the per-quantum reference mode, which materializes every quantum
    /// boundary as a real event and must produce bit-identical results.
    /// This field is the only scheduler mode switch: the engine sets it
    /// from `RunOptions::scheduler`, tests set it directly.
    pub coalesce: bool,
}

impl SystemConfig {
    /// Default configuration on the paper's testbed machine, with the
    /// coalescing fast path on.
    pub fn testbed(seed: u64) -> Self {
        SystemConfig {
            machine: MachineSpec::core2_duo_6600(),
            quantum: SimDuration::from_millis(20),
            boost_interval: Some(SimDuration::from_secs(3)),
            seed,
            coalesce: true,
        }
    }
}

/// Per-thread lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Waiting in a ready queue.
    Ready,
    /// Executing on the core given.
    Running(usize),
    /// Waiting for I/O, a timer, or a join.
    Blocked,
    /// Administratively frozen ([`System::suspend_thread`]); holds no
    /// core and competes for nothing until resumed.
    Suspended,
    /// Finished.
    Exited,
}

#[derive(Debug)]
enum Cont {
    /// Ask the body for the next action.
    Resume,
    /// Deliver this result, then ask for the next action.
    Deliver(ActionResult),
    /// Issue these device requests, deliver the result when they finish.
    Disk {
        reqs: VecDeque<DiskRequest>,
        result: ActionResult,
    },
    /// Occupy the NIC for `wire`, deliver after `extra` more delay.
    Net {
        wire: SimDuration,
        extra: SimDuration,
        result: ActionResult,
    },
}

#[derive(Debug)]
struct ExecState {
    block: std::rc::Rc<OpBlock>,
    /// Solo-execution seconds of work remaining in the block.
    remaining: f64,
    cont: Cont,
}

#[derive(Debug)]
struct Thread {
    name: String,
    prio: Priority,
    boosted: bool,
    state: ThreadState,
    body: Option<Box<dyn ThreadBody>>,
    pending: ActionResult,
    exec: Option<ExecState>,
    quantum_left: SimDuration,
    cpu_time: SimDuration,
    last_ran: SimTime,
    /// Core this thread last executed on (Windows-style last-processor
    /// affinity used by the dispatcher).
    last_core: Option<usize>,
    /// Affinity hint: when preempting, prefer the core currently running
    /// this buddy thread (models interrupt/DPC work steered to the CPU
    /// holding the related device state — a VMM's service activity lands
    /// on its vCPU's core, not the benchmark's).
    buddy: Option<ThreadId>,
    rng: SimRng,
    joiners: Vec<ThreadId>,
    spawned_at: SimTime,
    exited_at: Option<SimTime>,
    /// Administrative freeze requested. A `Blocked` thread keeps this
    /// flag until its I/O completes, at which point it parks at
    /// `Suspended` (result retained in `pending`) instead of re-entering
    /// the ready queues.
    suspended: bool,
}

impl Thread {
    fn eff_prio(&self) -> Priority {
        if self.boosted && self.prio < Priority::Normal {
            Priority::Normal
        } else {
            self.prio
        }
    }
}

/// What a core's pending `SliceEnd` event means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceKind {
    /// The running block's projected completion.
    Finish,
    /// A materialized quantum boundary (rotation check point).
    Quantum,
}

#[derive(Debug, Clone)]
struct Core {
    running: Option<ThreadId>,
    /// Integer-accounting anchor: `cpu_time`/`quantum_left` are current
    /// up to this instant.
    slice_start: SimTime,
    /// Floating-point work anchor: `exec.remaining` is current up to
    /// this instant. Advanced only at mode-shared fold points.
    work_anchor: SimTime,
    /// Solo-work seconds accrued per wall second (1/slowdown).
    rate: f64,
    /// Absolute projected completion of the running block (valid while
    /// `running` is some and `dirty` is false).
    finish_at: SimTime,
    /// Load changed since the last retime; contention must be re-solved.
    dirty: bool,
    /// Generation of the currently valid `SliceEnd` event; events
    /// carrying an older generation are stale and ignored.
    gen: u64,
    /// The in-flight `SliceEnd` for this core, if any.
    sched: Option<(SimTime, SliceKind)>,
}

impl Core {
    fn idle() -> Self {
        Core {
            running: None,
            slice_start: SimTime::ZERO,
            work_anchor: SimTime::ZERO,
            rate: 1.0,
            finish_at: SimTime::ZERO,
            dirty: false,
            gen: 0,
            sched: None,
        }
    }
}

#[derive(Debug)]
struct DiskJob {
    tid: ThreadId,
    reqs: VecDeque<DiskRequest>,
    result: ActionResult,
}

#[derive(Debug)]
struct NicJob {
    tid: ThreadId,
    wire: SimDuration,
    extra: SimDuration,
    result: ActionResult,
}

#[derive(Debug, Clone)]
enum Ev {
    SliceEnd { core: usize, gen: u64 },
    DiskDone,
    NicFree,
    Wake { tid: ThreadId },
    Boost,
}

/// Public per-thread statistics snapshot.
#[derive(Debug, Clone)]
pub struct ThreadStats {
    /// Thread debug name.
    pub name: String,
    /// Lifecycle state.
    pub state: ThreadState,
    /// CPU time consumed (including the in-flight slice).
    pub cpu_time: SimDuration,
    /// When the thread was spawned.
    pub spawned_at: SimTime,
    /// When it exited, if it has.
    pub exited_at: Option<SimTime>,
}

/// The operating system + machine simulator.
pub struct System {
    cfg: SystemConfig,
    cpu: CpuModel,
    cm: ContentionModel,
    /// Filesystem (public for experiment setup, e.g. pre-creating VM
    /// image files).
    pub fs: FileSystem,
    net: NetStack,
    disk: DiskModel,
    disk_q: VecDeque<DiskJob>,
    disk_busy: Option<DiskJob>,
    nic_q: VecDeque<NicJob>,
    nic_busy: Option<NicJob>,
    queue: EventQueue<Ev>,
    now: SimTime,
    ready: ReadyQueues,
    threads: Vec<Thread>,
    cores: Vec<Core>,
    /// Memoized contention solutions keyed on the per-core block set.
    cm_cache: ContentionCache,
    /// Scratch: per-core running-block key for the contention cache.
    load_key: Vec<Option<Rc<OpBlock>>>,
    /// Scratch: per-core slowdowns copied out of the cache.
    slow_scratch: Vec<f64>,
    /// Scratch: starving-thread collection for the boost scan.
    boost_scratch: Vec<ThreadId>,
    /// Events popped and handled.
    events_handled: u64,
    /// Quantum boundaries crossed (analytically or via events).
    quanta_crossed: u64,
    /// Quantum boundaries materialized as real events.
    quantum_events: u64,
    /// Always-on observability byte counter (a plain integer add on a
    /// path that already exists — no events, no allocation, so bench
    /// event counts are untouched). The filesystem and the stack count
    /// their own call bytes.
    disk_device_bytes: u64,
    /// Device-transfer size distribution (fixed byte-size buckets).
    disk_req_sizes: Histogram,
    /// Bytes of RAM committed by long-lived reservations (VM guests).
    committed: u64,
    rng: SimRng,
    /// Trace sink (enable categories to observe mechanisms in tests).
    pub trace: TraceSink,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("cores", &self.cores.len())
            .finish()
    }
}

impl System {
    /// Build a system from a config.
    pub fn new(cfg: SystemConfig) -> Self {
        let cpu = cfg.machine.cpu_model();
        let cm = cfg.machine.contention_model();
        let fs = FileSystem::new(FsConfig::for_ram(cfg.machine.mem.total_bytes));
        // Convert the NIC's per-frame CPU seconds into kernel ops so the
        // cost flows through the same CPU model as everything else.
        let kernel_ops_per_frame = (cfg.machine.nic.per_frame_cpu * cfg.machine.cpu.freq_hz as f64
            / cfg.machine.cpu.kernel_op_cycles)
            .round()
            .max(1.0) as u64;
        let net = NetStack::new(
            NetConfig {
                syscall_kernel_ops: 4,
                kernel_ops_per_frame,
            },
            cfg.machine.nic_model(),
        );
        let disk = cfg.machine.disk_model();
        let n_cores = cfg.machine.cpu.cores as usize;
        let cores = vec![Core::idle(); n_cores];
        let rng = SimRng::new(cfg.seed);
        let mut queue = EventQueue::new();
        if let Some(bi) = cfg.boost_interval {
            queue.schedule(SimTime::ZERO + bi, Ev::Boost);
        }
        System {
            cpu,
            cm,
            fs,
            net,
            disk,
            disk_q: VecDeque::new(),
            disk_busy: None,
            nic_q: VecDeque::new(),
            nic_busy: None,
            queue,
            now: SimTime::ZERO,
            ready: ReadyQueues::new(),
            threads: Vec::new(),
            cores,
            cm_cache: ContentionCache::new(),
            load_key: Vec::with_capacity(n_cores),
            slow_scratch: Vec::with_capacity(n_cores),
            boost_scratch: Vec::new(),
            events_handled: 0,
            quanta_crossed: 0,
            quantum_events: 0,
            disk_device_bytes: 0,
            disk_req_sizes: Histogram::byte_sizes(),
            committed: 0,
            rng,
            trace: TraceSink::default(),
            cfg,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine spec in use.
    pub fn machine(&self) -> &MachineSpec {
        &self.cfg.machine
    }

    /// Spawn a thread; it becomes ready immediately.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        prio: Priority,
        body: Box<dyn ThreadBody>,
    ) -> ThreadId {
        let tid = ThreadId(self.threads.len() as u32);
        let rng = self.rng.fork(0x7000 + tid.0 as u64);
        self.threads.push(Thread {
            name: name.into(),
            prio,
            boosted: false,
            state: ThreadState::Ready,
            body: Some(body),
            pending: ActionResult::None,
            exec: None,
            quantum_left: self.cfg.quantum,
            cpu_time: SimDuration::ZERO,
            last_ran: self.now,
            last_core: None,
            buddy: None,
            rng,
            joiners: Vec::new(),
            spawned_at: self.now,
            exited_at: None,
            suspended: false,
        });
        self.ready
            .push_back(tid, self.threads[tid.0 as usize].eff_prio());
        tid
    }

    /// Declare `buddy` as the affinity buddy of `tid`: when `tid` must
    /// preempt, it prefers the core its buddy currently occupies.
    pub fn set_buddy(&mut self, tid: ThreadId, buddy: ThreadId) {
        self.threads[tid.0 as usize].buddy = Some(buddy);
    }

    /// Reserve `bytes` of RAM for a long-lived consumer (a VM commits all
    /// its configured guest memory at power-on, Section 4.2.1 of the
    /// paper). Fails if the host cannot hold the reservation alongside
    /// the OS working set (a fixed 25 % headroom).
    pub fn commit_memory(&mut self, bytes: u64) -> Result<(), u64> {
        let budget = self.cfg.machine.mem.total_bytes * 3 / 4;
        let available = budget.saturating_sub(self.committed);
        if bytes > available {
            return Err(available);
        }
        self.committed += bytes;
        Ok(())
    }

    /// Release a previous [`System::commit_memory`] reservation.
    pub fn release_memory(&mut self, bytes: u64) {
        self.committed = self.committed.saturating_sub(bytes);
    }

    /// Administratively freeze `tid` (fault injection: owner preemption,
    /// VM pause). A running thread is folded off its core at the current
    /// instant — a mode-shared fold point, since the caller invokes this
    /// between `run_until` calls where both execution modes sit at the
    /// same `now` — a ready thread leaves the ready queues, and a
    /// blocked thread finishes its in-flight I/O but parks at
    /// [`ThreadState::Suspended`] instead of waking. No work is lost;
    /// [`System::resume_thread`] continues exactly where it stopped.
    pub fn suspend_thread(&mut self, tid: ThreadId) {
        let idx = tid.0 as usize;
        match self.threads[idx].state {
            ThreadState::Exited | ThreadState::Suspended => return,
            ThreadState::Running(core) => {
                self.account_all();
                self.fold_work(core);
                self.threads[idx].state = ThreadState::Suspended;
                self.clear_core(core);
            }
            ThreadState::Ready => {
                self.ready.remove(tid);
                self.threads[idx].state = ThreadState::Suspended;
            }
            ThreadState::Blocked => {
                // Park when the wait ends (see `unblock`); only the
                // flag is set here.
            }
        }
        self.threads[idx].suspended = true;
        if self.trace.is_enabled(TraceCategory::Fault) {
            self.trace.emit(
                self.now,
                TraceCategory::Fault,
                format!("suspend t{}", tid.0),
            );
        }
    }

    /// Undo [`System::suspend_thread`]: a parked thread re-enters the
    /// ready queues (any retained I/O result is delivered when it next
    /// runs); a still-blocked thread simply loses the parking flag.
    pub fn resume_thread(&mut self, tid: ThreadId) {
        let idx = tid.0 as usize;
        if !self.threads[idx].suspended {
            return;
        }
        self.threads[idx].suspended = false;
        if self.threads[idx].state == ThreadState::Suspended {
            let th = &mut self.threads[idx];
            th.state = ThreadState::Ready;
            let p = th.eff_prio();
            self.ready.push_back(tid, p);
        }
        if self.trace.is_enabled(TraceCategory::Fault) {
            self.trace
                .emit(self.now, TraceCategory::Fault, format!("resume t{}", tid.0));
        }
    }

    /// Kill `tid` outright (fault injection: hard VM kill, process
    /// termination). Equivalent to the thread issuing `Action::Exit` at
    /// the current instant: its core is released, joiners wake, and any
    /// in-flight device work completes into the void. Idempotent.
    pub fn kill_thread(&mut self, tid: ThreadId) {
        let idx = tid.0 as usize;
        match self.threads[idx].state {
            ThreadState::Exited => return,
            ThreadState::Running(core) => {
                self.account_all();
                self.fold_work(core);
                self.clear_core(core);
            }
            ThreadState::Ready => {
                self.ready.remove(tid);
            }
            ThreadState::Blocked | ThreadState::Suspended => {}
        }
        self.exit(tid);
        if self.trace.is_enabled(TraceCategory::Fault) {
            self.trace
                .emit(self.now, TraceCategory::Fault, format!("kill t{}", tid.0));
        }
    }

    /// The exit rule, for `Action::Exit` and [`System::kill_thread`]
    /// alike: `tid`, already off any core, retires at `now`, and every
    /// thread joining it wakes with `Joined`.
    fn exit(&mut self, tid: ThreadId) {
        let th = &mut self.threads[tid.0 as usize];
        th.state = ThreadState::Exited;
        th.exited_at = Some(self.now);
        th.exec = None;
        th.pending = ActionResult::None;
        th.suspended = false;
        for j in std::mem::take(&mut th.joiners) {
            self.threads[j.0 as usize].pending = ActionResult::Joined;
            self.unblock(j);
        }
    }

    /// The wake-up rule: a blocked thread whose wait is over parks at
    /// [`ThreadState::Suspended`] if a freeze is pending, else rejoins
    /// the ready queues. A thread killed while it waited stays exited.
    fn unblock(&mut self, tid: ThreadId) {
        let th = &mut self.threads[tid.0 as usize];
        if th.state != ThreadState::Blocked {
            return;
        }
        if th.suspended {
            th.state = ThreadState::Suspended;
        } else {
            th.state = ThreadState::Ready;
            let p = th.eff_prio();
            self.ready.push_back(tid, p);
        }
    }

    /// Bytes currently committed by reservations.
    pub fn committed_memory(&self) -> u64 {
        self.committed
    }

    /// Stats snapshot for a thread (CPU time includes the in-flight
    /// slice).
    pub fn thread_stats(&self, tid: ThreadId) -> ThreadStats {
        let th = &self.threads[tid.0 as usize];
        let mut cpu = th.cpu_time;
        if let ThreadState::Running(core) = th.state {
            if th.exec.is_some() {
                cpu += self.now.since(self.cores[core].slice_start);
            }
        }
        ThreadStats {
            name: th.name.clone(),
            state: th.state,
            cpu_time: cpu,
            spawned_at: th.spawned_at,
            exited_at: th.exited_at,
        }
    }

    /// True when the thread has exited.
    pub fn is_exited(&self, tid: ThreadId) -> bool {
        self.threads[tid.0 as usize].state == ThreadState::Exited
    }

    /// True when every spawned thread has exited.
    pub fn all_exited(&self) -> bool {
        self.threads.iter().all(|t| t.state == ThreadState::Exited)
    }

    /// Event-loop counters for this system's run so far.
    pub fn loop_stats(&self) -> EventLoopStats {
        EventLoopStats {
            events_handled: self.events_handled,
            quanta_crossed: self.quanta_crossed,
            quantum_events: self.quantum_events,
            clamped_events: self.queue.stats().clamped,
            memo_hits: self.cm_cache.hits(),
            memo_misses: self.cm_cache.misses(),
            sim_seconds: self.now.as_secs_f64(),
        }
    }

    /// Raw event-queue counters (total scheduled, past-time clamps).
    pub fn queue_stats(&self) -> EventQueueStats {
        self.queue.stats()
    }

    /// Publish this system's telemetry into an observability registry:
    /// the event-loop counters plus the always-on byte counters. Every
    /// value is a pure function of simulation state, so same-seed runs
    /// publish identical registries.
    pub fn publish_metrics(&self, m: &mut MetricsRegistry) {
        let ls = self.loop_stats();
        m.counter_add("os.loop.events_handled", ls.events_handled);
        m.counter_add("os.loop.quanta_crossed", ls.quanta_crossed);
        m.counter_add("os.loop.quantum_events", ls.quantum_events);
        m.counter_add("os.loop.quanta_coalesced", ls.events_coalesced());
        m.counter_add("os.loop.clamped_events", ls.clamped_events);
        m.counter_add("os.cache.contention_hits", ls.memo_hits);
        m.counter_add("os.cache.contention_misses", ls.memo_misses);
        m.gauge_add("os.loop.sim_seconds", ls.sim_seconds);
        m.counter_add("os.fs.read_bytes", self.fs.read_bytes);
        m.counter_add("os.fs.write_bytes", self.fs.write_bytes);
        m.counter_add("os.net.tx_bytes", self.net.tx_bytes);
        m.counter_add("os.net.rx_bytes", self.net.rx_bytes);
        m.counter_add("os.disk.device_bytes", self.disk_device_bytes);
        if self.disk_req_sizes.total() > 0 {
            m.histogram_merge("os.disk.request_bytes", &self.disk_req_sizes);
        }
    }

    /// Bring the whole system to a consistent state at `now`: integer
    /// accounting, core assignment, contention re-timing, and slice-event
    /// horizons, in that order.
    fn settle(&mut self) {
        self.account_all();
        self.dispatch();
        self.retime_dirty();
        self.refresh_horizons();
    }

    /// Emit a one-line loop summary through the trace sink (Sched
    /// category), if enabled.
    fn emit_loop_summary(&mut self) {
        if self.trace.is_enabled(TraceCategory::Sched) {
            let line = self.loop_stats().render();
            self.trace.emit(self.now, TraceCategory::Sched, line);
        }
    }

    /// Run the simulation until `deadline` (inclusive); time advances to
    /// exactly `deadline` even if the system goes idle earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.settle();
        while let Some(te) = self.queue.peek_time() {
            if te > deadline {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.now = t;
            self.handle(ev);
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.emit_loop_summary();
    }

    /// Run until `done()` holds or `deadline` passes, checking the
    /// predicate after every handled event instead of polling on a wall
    /// clock grid. Returns true if the predicate became true. Time is
    /// left at the event that satisfied the predicate (or at `deadline`
    /// on timeout), so callers observe completion at event resolution.
    pub fn run_until_event(&mut self, deadline: SimTime, mut done: impl FnMut() -> bool) -> bool {
        self.settle();
        if done() {
            return true;
        }
        while let Some(te) = self.queue.peek_time() {
            if te > deadline {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.now = t;
            self.handle(ev);
            if done() {
                self.emit_loop_summary();
                return true;
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.emit_loop_summary();
        done()
    }

    /// Run until every thread has exited or `deadline` passes. Returns
    /// true if all threads exited.
    pub fn run_to_completion(&mut self, deadline: SimTime) -> bool {
        self.settle();
        while !self.all_exited() {
            let Some(te) = self.queue.peek_time() else {
                break; // deadlocked: blocked threads with no pending events
            };
            if te > deadline {
                break;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.now = t;
            self.handle(ev);
        }
        self.emit_loop_summary();
        self.all_exited()
    }

    // ----- event handling -----

    fn handle(&mut self, ev: Ev) {
        self.events_handled += 1;
        match ev {
            Ev::SliceEnd { core, gen } => self.on_slice_end(core, gen),
            Ev::DiskDone => self.on_disk_done(),
            Ev::NicFree => self.on_nic_free(),
            Ev::Wake { tid } => self.unblock(tid),
            Ev::Boost => self.on_boost(),
        }
        self.settle();
    }

    fn on_slice_end(&mut self, core: usize, gen: u64) {
        if gen != self.cores[core].gen {
            return; // stale
        }
        let Some((due, kind)) = self.cores[core].sched.take() else {
            return;
        };
        debug_assert_eq!(due, self.now, "slice event fired off schedule");
        // Bring integer accounting current; for this core that crosses
        // the quantum boundary (Quantum) or the residue up to the finish
        // instant (Finish).
        self.account_all();
        let Some(tid) = self.cores[core].running else {
            return;
        };
        match kind {
            SliceKind::Finish => {
                // Shared fold point: materialize the (≈ zero) remaining
                // work exactly as the reference schedule would.
                self.fold_work(core);
                let th = &mut self.threads[tid.0 as usize];
                debug_assert!(
                    th.exec
                        .as_ref()
                        .map(|e| e.remaining <= WORK_EPS)
                        .unwrap_or(false),
                    "finish event fired with work left"
                );
                let exec = th.exec.take().expect("running thread has exec");
                match exec.cont {
                    Cont::Resume => {
                        th.pending = ActionResult::None;
                        self.activate(core);
                    }
                    Cont::Deliver(r) => {
                        th.pending = r;
                        self.activate(core);
                    }
                    Cont::Disk { reqs, result } => {
                        th.state = ThreadState::Blocked;
                        self.clear_core(core);
                        self.disk_q.push_back(DiskJob { tid, reqs, result });
                        self.disk_start_next();
                    }
                    Cont::Net {
                        wire,
                        extra,
                        result,
                    } => {
                        th.state = ThreadState::Blocked;
                        self.clear_core(core);
                        if wire.is_zero() {
                            self.threads[tid.0 as usize].pending = result;
                            self.queue.schedule(self.now + extra, Ev::Wake { tid });
                        } else {
                            self.nic_q.push_back(NicJob {
                                tid,
                                wire,
                                extra,
                                result,
                            });
                            self.nic_start_next();
                        }
                    }
                }
            }
            SliceKind::Quantum => {
                self.quantum_events += 1;
                // account_all() parked `quantum_left` at exactly zero
                // (on-boundary is not an analytic crossing); this event
                // IS the boundary: refresh the quantum, consume any
                // boost, then rotate if a peer (same or higher class)
                // waits; otherwise the thread keeps the core.
                let th = &mut self.threads[tid.0 as usize];
                debug_assert!(
                    th.quantum_left.is_zero(),
                    "quantum event fired off its boundary"
                );
                th.quantum_left = self.cfg.quantum;
                th.boosted = false;
                self.quanta_crossed += 1;
                let th = &self.threads[tid.0 as usize];
                let should_rotate = self
                    .ready
                    .best_priority()
                    .map(|p| p >= th.eff_prio())
                    .unwrap_or(false);
                if should_rotate {
                    self.fold_work(core);
                    let th = &mut self.threads[tid.0 as usize];
                    th.state = ThreadState::Ready;
                    let p = th.eff_prio();
                    self.ready.push_back(tid, p);
                    self.clear_core(core);
                    if self.trace.is_enabled(TraceCategory::Sched) {
                        self.trace.emit(
                            self.now,
                            TraceCategory::Sched,
                            format!("rotate t{}", tid.0),
                        );
                    }
                }
            }
        }
        // dispatch() in handle() retimes and reassigns.
    }

    fn on_disk_done(&mut self) {
        let Some(mut job) = self.disk_busy.take() else {
            return;
        };
        if let Some(req) = job.reqs.pop_front() {
            self.disk_device_bytes += req.bytes;
            self.disk_req_sizes.observe(req.bytes);
            let dur = self.disk.service(req);
            self.queue.schedule(self.now + dur, Ev::DiskDone);
            self.disk_busy = Some(job);
            return;
        }
        // Job complete: deliver.
        self.threads[job.tid.0 as usize].pending = job.result;
        self.unblock(job.tid);
        if self.trace.is_enabled(TraceCategory::Io) {
            self.trace.emit(
                self.now,
                TraceCategory::Io,
                format!("io done t{}", job.tid.0),
            );
        }
        self.disk_start_next();
    }

    fn disk_start_next(&mut self) {
        if self.disk_busy.is_some() {
            return;
        }
        let Some(mut job) = self.disk_q.pop_front() else {
            return;
        };
        match job.reqs.pop_front() {
            Some(req) => {
                self.disk_device_bytes += req.bytes;
                self.disk_req_sizes.observe(req.bytes);
                let dur = self.disk.service(req);
                self.queue.schedule(self.now + dur, Ev::DiskDone);
                self.disk_busy = Some(job);
            }
            None => {
                // No device work (pure cache op routed here): deliver now.
                self.disk_busy = Some(job);
                self.queue.schedule(self.now, Ev::DiskDone);
            }
        }
    }

    fn on_nic_free(&mut self) {
        let Some(job) = self.nic_busy.take() else {
            return;
        };
        let th = &mut self.threads[job.tid.0 as usize];
        th.pending = job.result;
        self.queue
            .schedule(self.now + job.extra, Ev::Wake { tid: job.tid });
        if self.trace.is_enabled(TraceCategory::Net) {
            self.trace.emit(
                self.now,
                TraceCategory::Net,
                format!("nic free t{}", job.tid.0),
            );
        }
        self.nic_start_next();
    }

    fn nic_start_next(&mut self) {
        if self.nic_busy.is_some() {
            return;
        }
        let Some(job) = self.nic_q.pop_front() else {
            return;
        };
        self.queue.schedule(self.now + job.wire, Ev::NicFree);
        self.nic_busy = Some(job);
    }

    fn on_boost(&mut self) {
        let Some(bi) = self.cfg.boost_interval else {
            return;
        };
        let mut starving = std::mem::take(&mut self.boost_scratch);
        starving.clear();
        starving.extend(self.ready.iter().filter(|&tid| {
            let th = &self.threads[tid.0 as usize];
            !th.boosted && th.prio < Priority::Normal && self.now.since(th.last_ran) > bi
        }));
        for &tid in &starving {
            self.ready.remove(tid);
            let th = &mut self.threads[tid.0 as usize];
            th.boosted = true;
            // One quantum at Normal, like the XP balance-set manager.
            th.quantum_left = self.cfg.quantum;
            self.ready.push_back(tid, th.eff_prio());
            if self.trace.is_enabled(TraceCategory::Sched) {
                self.trace
                    .emit(self.now, TraceCategory::Sched, format!("boost t{}", tid.0));
            }
        }
        self.boost_scratch = starving;
        self.queue.schedule(self.now + bi, Ev::Boost);
    }

    // ----- scheduling core -----

    /// Bring the integer slice accounting (`cpu_time`, `quantum_left`,
    /// `boosted`, `last_ran`) of every running core current, crossing any
    /// quantum boundaries analytically. These quantities accrue 1:1 with
    /// wall time, so this is exact no matter how many boundaries were
    /// coalesced away — and calling it at every settle keeps dispatch
    /// decisions (which consult `eff_prio`) mode-independent.
    fn account_all(&mut self) {
        let q = self.cfg.quantum;
        for core in &mut self.cores {
            let Some(tid) = core.running else { continue };
            let elapsed = self.now.since(core.slice_start);
            if elapsed.is_zero() {
                continue;
            }
            core.slice_start = self.now;
            let th = &mut self.threads[tid.0 as usize];
            th.cpu_time += elapsed;
            th.last_ran = self.now;
            if elapsed > th.quantum_left {
                // Moved *strictly past* one or more quantum boundaries:
                // at each the quantum refreshes and any boost is
                // consumed, exactly as a materialized boundary event
                // would have done. Landing exactly ON a boundary is NOT
                // a crossing: `quantum_left` parks at zero and the
                // boundary resolves at this instant — through the
                // materialized `Quantum` event on an ineligible core
                // (which must still run its rotation check even when
                // unrelated events share the instant), or analytically
                // at the next settle on a coalescing core.
                let over = elapsed.saturating_sub(th.quantum_left);
                let crossed = over.0.div_ceil(q.0);
                th.quantum_left = SimDuration(crossed * q.0 - over.0);
                th.boosted = false;
                self.quanta_crossed += crossed;
            } else {
                th.quantum_left = th.quantum_left.saturating_sub(elapsed);
            }
        }
    }

    /// Fold the floating-point work progress of `core`'s running block up
    /// to `now`. Unlike the integer accounting, the result of this fold
    /// depends on *where* it is evaluated (f64 rounding), so it must only
    /// be called at points shared by the coalesced and per-quantum
    /// schedules: rate changes, finishes, rotations and preemptions.
    fn fold_work(&mut self, core: usize) {
        let c = &mut self.cores[core];
        let Some(tid) = c.running else { return };
        let elapsed = self.now.since(c.work_anchor);
        c.work_anchor = self.now;
        if elapsed.is_zero() {
            return;
        }
        if let Some(exec) = self.threads[tid.0 as usize].exec.as_mut() {
            exec.remaining = (exec.remaining - elapsed.as_secs_f64() * c.rate).max(0.0);
        }
    }

    /// Unassign whatever runs on `core`, invalidating its in-flight slice
    /// event and marking contention for re-evaluation.
    fn clear_core(&mut self, core: usize) {
        let c = &mut self.cores[core];
        c.running = None;
        c.dirty = true;
        c.gen += 1;
        c.sched = None;
    }

    /// If any core's load changed, re-solve contention (through the memo
    /// cache) and re-time exactly the cores whose slowdown actually
    /// changed. Cores with an unchanged rate keep their fold anchor and
    /// projected finish — their f64 trajectory is untouched.
    fn retime_dirty(&mut self) {
        if !self.cores.iter().any(|c| c.dirty) {
            return;
        }
        self.load_key.clear();
        for c in &self.cores {
            self.load_key.push(c.running.and_then(|tid| {
                self.threads[tid.0 as usize]
                    .exec
                    .as_ref()
                    .map(|e| e.block.clone())
            }));
        }
        let mut slow = std::mem::take(&mut self.slow_scratch);
        slow.clear();
        slow.extend_from_slice(self.cm_cache.slowdowns(&self.cm, &self.load_key));
        for (i, &raw) in slow.iter().enumerate() {
            let slowdown = raw.max(1.0);
            let rate = 1.0 / slowdown;
            let needs = {
                let c = &self.cores[i];
                c.running.is_some() && (c.dirty || rate != c.rate)
            };
            if needs {
                self.fold_work(i);
                let tid = self.cores[i].running.expect("checked");
                let remaining = self.threads[tid.0 as usize]
                    .exec
                    .as_ref()
                    .map(|e| e.remaining)
                    .unwrap_or(0.0);
                let wall = SimDuration::from_secs_f64(remaining * slowdown)
                    .max(SimDuration::from_picos(1));
                let c = &mut self.cores[i];
                c.rate = rate;
                c.finish_at = self.now + wall;
            }
            self.cores[i].dirty = false;
        }
        self.slow_scratch = slow;
    }

    /// Ensure every busy core has the right `SliceEnd` in flight: the
    /// projected finish when the core may coalesce (no same-or-higher
    /// priority thread is ready to force a rotation), otherwise
    /// `min(finish, next quantum boundary)`. Re-evaluated after every
    /// event; only a *changed* horizon costs a new queue entry.
    fn refresh_horizons(&mut self) {
        let best = self.ready.best_priority();
        for i in 0..self.cores.len() {
            let Some(tid) = self.cores[i].running else {
                continue;
            };
            let th = &self.threads[tid.0 as usize];
            debug_assert!(th.exec.is_some(), "running thread without exec");
            // Base (not boosted) priority: once the running thread's
            // boost quantum expires its class reverts, so coalescing is
            // only safe against threads strictly below the base class.
            let eligible = self.cfg.coalesce && best.map(|p| p < th.prio).unwrap_or(true);
            let c = &self.cores[i];
            let boundary = c.slice_start + th.quantum_left;
            // A finish exactly ON the quantum boundary owes the rotation
            // check first (the timer interrupt fires either way), so a
            // tie always materializes the boundary — in *both* modes,
            // which keeps the slice event stable when ready-queue churn
            // flips `eligible` back and forth. The check is
            // self-guarding: on a coalescing-eligible core nothing in
            // the ready set can force a rotation, so the finish simply
            // fires at the same instant.
            let desired = if c.finish_at < boundary || (eligible && c.finish_at > boundary) {
                (c.finish_at, SliceKind::Finish)
            } else {
                (boundary, SliceKind::Quantum)
            };
            if c.sched != Some(desired) {
                // Lazy downgrade: when coalescing merely *became*
                // allowed, keep the pending boundary event instead of
                // rescheduling — churn-prone ready queues (a periodic
                // high-priority waker) would otherwise flip the horizon
                // on every event. The boundary fires, its rotation
                // check no-ops (nothing ready can rotate an eligible
                // core's thread), and the next refresh coalesces from
                // there. Upgrades (finish → boundary) always
                // reschedule: a due rotation check must materialize.
                if let Some((due, SliceKind::Quantum)) = c.sched {
                    if desired.1 == SliceKind::Finish && desired.0 > due {
                        continue;
                    }
                }
                let c = &mut self.cores[i];
                c.gen += 1;
                c.sched = Some(desired);
                let gen = c.gen;
                // Rank 1+core: at any instant, external events (rank 0)
                // resolve before slice ends, and slice ends resolve in
                // core order — the same order in every execution mode.
                self.queue.schedule_ranked(
                    desired.0,
                    (i as u8).saturating_add(1),
                    Ev::SliceEnd { core: i, gen },
                );
            }
        }
    }

    /// Assign ready threads to cores (with preemption), then retime.
    ///
    /// Placement policy, in order:
    /// 1. Idle cores are filled first, with last-processor affinity
    ///    (a ready thread whose own core is busy yields to a same-class
    ///    candidate affine to the idle core).
    /// 2. If no core is idle, the front of the best ready class may
    ///    preempt: preferentially the core running its buddy thread
    ///    (if that core's class is lower), else the lowest-priority core.
    fn dispatch(&mut self) {
        // Integer accounting is already current (settle() runs
        // account_all() first), and `now` does not advance inside this
        // loop, so no further accrual is needed between assignments.
        loop {
            // Phase 1: fill idle cores with affinity preference.
            if let Some(core) = self.cores.iter().position(|c| c.running.is_none()) {
                let threads = &self.threads;
                let cores = &self.cores;
                let picked = self.ready.pop_for_core(
                    core,
                    |tid| threads[tid.0 as usize].last_core,
                    |c| cores[c].running.is_some(),
                );
                let Some((tid, _)) = picked else { break };
                self.assign(core, tid);
                continue;
            }
            // Phase 2: preemption by the best ready thread.
            let Some((tid, best)) = self.ready.peek_best() else {
                break;
            };
            let target = {
                let buddy_core = self.threads[tid.0 as usize]
                    .buddy
                    .and_then(|b| self.cores.iter().position(|c| c.running == Some(b)));
                let preemptible = |i: usize| {
                    self.cores[i]
                        .running
                        .map(|v| self.threads[v.0 as usize].eff_prio() < best)
                        .unwrap_or(false)
                };
                match buddy_core {
                    Some(b) if preemptible(b) => Some(b),
                    _ => self
                        .cores
                        .iter()
                        .enumerate()
                        .filter_map(|(i, c)| {
                            c.running
                                .map(|v| (i, self.threads[v.0 as usize].eff_prio()))
                        })
                        .filter(|&(_, p)| p < best)
                        .min_by_key(|&(i, p)| (p, i))
                        .map(|(i, _)| i),
                }
            };
            let Some(core) = target else { break };
            // Shared fold point: the victim's in-flight work must be
            // materialized at the preemption instant.
            self.fold_work(core);
            let victim = self.cores[core].running.expect("busy core");
            self.clear_core(core);
            {
                let th = &mut self.threads[victim.0 as usize];
                th.state = ThreadState::Ready;
                let p = th.eff_prio();
                // Preempted mid-quantum: run next among its class.
                self.ready.push_front(victim, p);
            }
            if self.trace.is_enabled(TraceCategory::Sched) {
                self.trace.emit(
                    self.now,
                    TraceCategory::Sched,
                    format!("preempt t{}", victim.0),
                );
            }
            assert!(
                self.ready.pop_exact(tid, best),
                "peeked thread must be poppable"
            );
            self.assign(core, tid);
        }
    }

    /// Put `tid` on `core` and activate it.
    fn assign(&mut self, core: usize, tid: ThreadId) {
        let th = &mut self.threads[tid.0 as usize];
        th.state = ThreadState::Running(core);
        th.last_ran = self.now;
        th.last_core = Some(core);
        if th.quantum_left <= QUANTUM_EPS {
            th.quantum_left = self.cfg.quantum;
        }
        let c = &mut self.cores[core];
        c.running = Some(tid);
        c.slice_start = self.now;
        c.work_anchor = self.now;
        c.rate = 1.0;
        c.dirty = true;
        c.gen += 1;
        c.sched = None;
        self.activate(core);
    }

    /// Drive the thread on `core` through zero-time actions until it has
    /// a compute block to execute, blocks, or exits.
    fn activate(&mut self, core: usize) {
        let mut fuse = 0u32;
        loop {
            let Some(tid) = self.cores[core].running else {
                return;
            };
            let idx = tid.0 as usize;
            if self.threads[idx].exec.is_some() {
                return;
            }
            fuse += 1;
            assert!(
                fuse < ACTIVATION_FUSE,
                "thread '{}' issued {} zero-time actions in a row",
                self.threads[idx].name,
                ACTIVATION_FUSE
            );
            // Take the body out to call it without aliasing the system.
            let mut body = self.threads[idx].body.take().expect("body present");
            let result = std::mem::replace(&mut self.threads[idx].pending, ActionResult::None);
            let cpu_time = self.threads[idx].cpu_time;
            let action = {
                let th = &mut self.threads[idx];
                let mut ctx = ThreadCtx {
                    now: self.now,
                    result,
                    cpu_time,
                    me: tid,
                    rng: &mut th.rng,
                };
                body.next(&mut ctx)
            };
            self.threads[idx].body = Some(body);
            if let Some(call) = action.plan_io(&mut self.fs, &mut self.net) {
                self.install_io(core, tid, call);
                return;
            }
            match action {
                Action::Compute(block) => {
                    let est = self.cpu.solo_estimate(&block);
                    if est.duration.is_zero() {
                        // Empty block: complete immediately.
                        self.threads[idx].pending = ActionResult::None;
                        continue;
                    }
                    self.threads[idx].exec = Some(ExecState {
                        block,
                        remaining: est.duration.as_secs_f64(),
                        cont: Cont::Resume,
                    });
                    self.begin_exec(core);
                    return;
                }
                Action::Sleep(d) => {
                    let th = &mut self.threads[idx];
                    th.pending = ActionResult::None;
                    th.state = ThreadState::Blocked;
                    self.clear_core(core);
                    self.queue.schedule(self.now + d, Ev::Wake { tid });
                    return;
                }
                Action::YieldCpu => {
                    let th = &mut self.threads[idx];
                    th.pending = ActionResult::None;
                    th.state = ThreadState::Ready;
                    th.quantum_left = self.cfg.quantum;
                    th.boosted = false;
                    let p = th.eff_prio();
                    self.ready.push_back(tid, p);
                    self.clear_core(core);
                    return;
                }
                Action::Spawn { name, prio, body } => {
                    let child = self.spawn(name, prio, body);
                    self.threads[idx].pending = ActionResult::Spawned(child);
                    continue;
                }
                Action::Join { thread } => {
                    if self.threads[thread.0 as usize].state == ThreadState::Exited {
                        self.threads[idx].pending = ActionResult::Joined;
                        continue;
                    }
                    self.threads[thread.0 as usize].joiners.push(tid);
                    let th = &mut self.threads[idx];
                    th.state = ThreadState::Blocked;
                    self.clear_core(core);
                    return;
                }
                Action::Exit => {
                    self.clear_core(core);
                    self.exit(tid);
                    if self.trace.is_enabled(TraceCategory::Sched) {
                        self.trace
                            .emit(self.now, TraceCategory::Sched, format!("exit t{}", tid.0));
                    }
                    return;
                }
                _ => unreachable!("file and network actions are planned above"),
            }
        }
    }

    /// A new block just started executing on `core`: reset its work
    /// anchor and mark contention for re-evaluation.
    fn begin_exec(&mut self, core: usize) {
        let c = &mut self.cores[core];
        c.work_anchor = self.now;
        c.dirty = true;
    }

    /// Install a syscall plan as the thread's execution state: its CPU
    /// work first, then the device or NIC wait, if any.
    fn install_io(&mut self, core: usize, tid: ThreadId, call: IoCall) {
        let (cpu, cont) = match call {
            IoCall::File(IoPlan { cpu, disk, result }) => {
                let cont = if disk.is_empty() {
                    Cont::Deliver(result)
                } else {
                    let reqs = disk.into();
                    Cont::Disk { reqs, result }
                };
                (cpu, cont)
            }
            IoCall::Net(NetPlan {
                cpu,
                wire,
                extra_delay: extra,
                result,
            }) => {
                let cont = if wire.is_zero() && extra.is_zero() {
                    Cont::Deliver(result)
                } else {
                    Cont::Net {
                        wire,
                        extra,
                        result,
                    }
                };
                (cpu, cont)
            }
        };
        let est = self.cpu.solo_estimate(&cpu);
        self.threads[tid.0 as usize].exec = Some(ExecState {
            block: Rc::new(cpu),
            remaining: est.duration.as_secs_f64().max(1e-12),
            cont,
        });
        self.begin_exec(core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{OsError, RemoteHost};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Body that runs a scripted list of actions, then exits.
    #[derive(Debug)]
    struct Script {
        actions: VecDeque<Action>,
        results: Rc<RefCell<Vec<ActionResult>>>,
    }

    impl Script {
        fn new(actions: Vec<Action>) -> (Self, Rc<RefCell<Vec<ActionResult>>>) {
            let results = Rc::new(RefCell::new(Vec::new()));
            (
                Script {
                    actions: actions.into(),
                    results: results.clone(),
                },
                results,
            )
        }
    }

    impl ThreadBody for Script {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            self.results.borrow_mut().push(ctx.result.clone());
            self.actions.pop_front().unwrap_or(Action::Exit)
        }
    }

    /// Body that computes `iters` blocks of `ops` int ops each.
    #[derive(Debug)]
    struct Burner {
        ops: u64,
        iters: u64,
    }

    impl ThreadBody for Burner {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            if self.iters == 0 {
                return Action::Exit;
            }
            self.iters -= 1;
            Action::compute(OpBlock::int_alu(self.ops))
        }
    }

    /// Infinite memory-hungry loop (for contention/priority tests).
    #[derive(Debug)]
    struct MemHog;
    impl ThreadBody for MemHog {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            Action::compute(OpBlock::mem_stream(10_000_000, 32 << 20))
        }
    }

    fn sys() -> System {
        System::new(SystemConfig::testbed(42))
    }

    #[test]
    fn single_compute_thread_takes_expected_time() {
        let mut s = sys();
        // 2.4e9 int ops at 2.5/cycle = 0.4 s.
        let tid = s.spawn(
            "burn",
            Priority::Normal,
            Box::new(Burner {
                ops: 2_400_000_000,
                iters: 1,
            }),
        );
        assert!(s.run_to_completion(SimTime::from_secs(10)));
        let st = s.thread_stats(tid);
        let cpu = st.cpu_time.as_secs_f64();
        assert!((cpu - 0.4).abs() < 0.02, "cpu {cpu}");
        assert!((st.exited_at.unwrap().as_secs_f64() - 0.4).abs() < 0.02);
    }

    #[test]
    fn two_threads_two_cores_run_in_parallel() {
        let mut s = sys();
        let a = s.spawn(
            "a",
            Priority::Normal,
            Box::new(Burner {
                ops: 2_400_000_000,
                iters: 1,
            }),
        );
        let b = s.spawn(
            "b",
            Priority::Normal,
            Box::new(Burner {
                ops: 2_400_000_000,
                iters: 1,
            }),
        );
        assert!(s.run_to_completion(SimTime::from_secs(10)));
        // Both finish around 0.4 s wall: true parallelism, no contention
        // for L1-resident int work.
        for tid in [a, b] {
            let end = s.thread_stats(tid).exited_at.unwrap().as_secs_f64();
            assert!((end - 0.4).abs() < 0.05, "end {end}");
        }
    }

    #[test]
    fn three_equal_threads_share_two_cores_fairly() {
        let mut s = sys();
        let tids: Vec<_> = (0..3)
            .map(|i| {
                s.spawn(
                    format!("t{i}"),
                    Priority::Normal,
                    Box::new(Burner {
                        ops: 2_400_000_000,
                        iters: 1,
                    }),
                )
            })
            .collect();
        assert!(s.run_to_completion(SimTime::from_secs(10)));
        // 3 x 0.4 s of work on 2 cores: last finisher at ~0.6 s, and each
        // thread's CPU time is still ~0.4 s.
        let mut ends: Vec<f64> = tids
            .iter()
            .map(|&t| s.thread_stats(t).exited_at.unwrap().as_secs_f64())
            .collect();
        ends.sort_by(f64::total_cmp);
        assert!(ends[2] > 0.55 && ends[2] < 0.68, "last end {}", ends[2]);
        for &t in &tids {
            let cpu = s.thread_stats(t).cpu_time.as_secs_f64();
            assert!((cpu - 0.4).abs() < 0.02, "cpu {cpu}");
        }
    }

    #[test]
    fn high_priority_preempts_normal() {
        let mut s = sys();
        // Two normal hogs occupy both cores...
        s.spawn("hog1", Priority::Normal, Box::new(MemHog));
        s.spawn("hog2", Priority::Normal, Box::new(MemHog));
        s.run_until(SimTime::from_millis(100));
        // ...then a High burner arrives and must start immediately.
        let hi = s.spawn(
            "hi",
            Priority::High,
            Box::new(Burner {
                ops: 240_000_000, // 0.04 s
                iters: 1,
            }),
        );
        s.run_until(SimTime::from_millis(200));
        assert!(s.is_exited(hi));
        let end = s.thread_stats(hi).exited_at.unwrap().as_millis_f64();
        assert!(end < 145.0, "high-prio thread finished at {end} ms");
    }

    #[test]
    fn idle_priority_starves_under_normal_load() {
        let mut s = System::new(SystemConfig {
            boost_interval: None, // isolate the starvation behaviour
            ..SystemConfig::testbed(42)
        });
        s.spawn("hog1", Priority::Normal, Box::new(MemHog));
        s.spawn("hog2", Priority::Normal, Box::new(MemHog));
        let idle = s.spawn("idle", Priority::Idle, Box::new(MemHog));
        s.run_until(SimTime::from_secs(2));
        let cpu = s.thread_stats(idle).cpu_time.as_secs_f64();
        assert!(cpu < 0.001, "idle thread got {cpu} s");
    }

    #[test]
    fn boost_prevents_total_starvation() {
        let mut s = System::new(SystemConfig {
            boost_interval: Some(SimDuration::from_millis(500)),
            ..SystemConfig::testbed(42)
        });
        s.spawn("hog1", Priority::Normal, Box::new(MemHog));
        s.spawn("hog2", Priority::Normal, Box::new(MemHog));
        let idle = s.spawn("idle", Priority::Idle, Box::new(MemHog));
        s.run_until(SimTime::from_secs(10));
        let cpu = s.thread_stats(idle).cpu_time.as_secs_f64();
        assert!(cpu > 0.01, "boosted idle thread got only {cpu} s");
        // But still a tiny share.
        assert!(cpu < 1.0, "idle thread got too much: {cpu} s");
    }

    #[test]
    fn idle_thread_runs_free_on_spare_core() {
        let mut s = sys();
        s.spawn("hog", Priority::Normal, Box::new(MemHog));
        let idle = s.spawn(
            "idle",
            Priority::Idle,
            Box::new(Burner {
                ops: 2_400_000_000,
                iters: 1,
            }),
        );
        s.run_until(SimTime::from_secs(2));
        // One core is free, so the idle-class thread runs continuously.
        assert!(s.is_exited(idle));
        let cpu = s.thread_stats(idle).cpu_time.as_secs_f64();
        assert!((cpu - 0.4).abs() < 0.05, "cpu {cpu}");
    }

    #[test]
    fn file_roundtrip_through_system() {
        let mut s = sys();
        let (script, results) = Script::new(vec![
            Action::FileOpen {
                path: "/data".into(),
                create: true,
                truncate: true,
                direct: false,
            },
            Action::FileWrite {
                file: FileIdProbe::ID,
                bytes: 1 << 20,
            },
        ]);
        // We don't know the FileId ahead of time; use a smarter body below
        // instead. This script intentionally passes a bogus id to check
        // error delivery.
        let _ = s.spawn("io", Priority::Normal, Box::new(script));
        assert!(s.run_to_completion(SimTime::from_secs(10)));
        let r = results.borrow();
        assert!(matches!(r[1], ActionResult::Opened(_)));
        assert_eq!(r[2], ActionResult::Err(OsError::BadHandle));
    }

    /// Placeholder id for scripted tests that intentionally use a stale
    /// handle.
    struct FileIdProbe;
    impl FileIdProbe {
        const ID: crate::action::FileId = crate::action::FileId(9999);
    }

    /// Body that writes then syncs a file, recording the wall time.
    #[derive(Debug)]
    struct WriteSync {
        phase: u8,
        file: Option<crate::action::FileId>,
        bytes: u64,
        done_at: Rc<RefCell<Option<SimTime>>>,
    }

    impl ThreadBody for WriteSync {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Action::FileOpen {
                        path: "/ws".into(),
                        create: true,
                        truncate: true,
                        direct: false,
                    }
                }
                1 => {
                    let ActionResult::Opened(id) = ctx.result else {
                        panic!("open failed: {:?}", ctx.result)
                    };
                    self.file = Some(id);
                    self.phase = 2;
                    Action::FileWrite {
                        file: id,
                        bytes: self.bytes,
                    }
                }
                2 => {
                    assert!(matches!(ctx.result, ActionResult::Wrote { .. }));
                    self.phase = 3;
                    Action::FileSync {
                        file: self.file.expect("opened"),
                    }
                }
                _ => {
                    *self.done_at.borrow_mut() = Some(ctx.now);
                    Action::Exit
                }
            }
        }
    }

    #[test]
    fn synced_write_takes_disk_time() {
        let mut s = sys();
        let done = Rc::new(RefCell::new(None));
        s.spawn(
            "ws",
            Priority::Normal,
            Box::new(WriteSync {
                phase: 0,
                file: None,
                bytes: 55_000_000, // 55 MB at 55 MB/s write = ~1 s
                done_at: done.clone(),
            }),
        );
        assert!(s.run_to_completion(SimTime::from_secs(30)));
        let t = done.borrow().expect("completed").as_secs_f64();
        assert!(t > 0.9 && t < 1.5, "write+sync took {t}");
    }

    /// Body that sends one bulk payload to a LAN sink.
    #[derive(Debug)]
    struct Sender {
        phase: u8,
        conn: Option<crate::action::ConnId>,
        bytes: u64,
        done_at: Rc<RefCell<Option<SimTime>>>,
    }

    impl ThreadBody for Sender {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Action::NetConnect {
                        remote: RemoteHost::lan_sink(),
                    }
                }
                1 => {
                    let ActionResult::Connected(c) = ctx.result else {
                        panic!("connect failed: {:?}", ctx.result)
                    };
                    self.conn = Some(c);
                    self.phase = 2;
                    Action::NetSend {
                        conn: c,
                        bytes: self.bytes,
                    }
                }
                _ => {
                    assert!(matches!(ctx.result, ActionResult::Sent { .. }));
                    *self.done_at.borrow_mut() = Some(ctx.now);
                    Action::Exit
                }
            }
        }
    }

    #[test]
    fn bulk_send_runs_at_line_rate() {
        let mut s = sys();
        let done = Rc::new(RefCell::new(None));
        s.spawn(
            "tx",
            Priority::Normal,
            Box::new(Sender {
                phase: 0,
                conn: None,
                bytes: 10 * 1024 * 1024,
                done_at: done.clone(),
            }),
        );
        assert!(s.run_to_completion(SimTime::from_secs(10)));
        let t = done.borrow().expect("completed").as_secs_f64();
        // 10 MB at 97.6 Mbps is ~0.86 s (plus sub-ms CPU and latency).
        assert!((0.82..0.95).contains(&t), "send took {t}");
    }

    /// Parent that spawns a child burner and joins it.
    #[derive(Debug)]
    struct Parent {
        phase: u8,
        child: Option<ThreadId>,
        done_at: Rc<RefCell<Option<SimTime>>>,
    }

    impl ThreadBody for Parent {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            match self.phase {
                0 => {
                    self.phase = 1;
                    Action::Spawn {
                        name: "child".into(),
                        prio: Priority::Normal,
                        body: Box::new(Burner {
                            ops: 2_400_000_000,
                            iters: 1,
                        }),
                    }
                }
                1 => {
                    let ActionResult::Spawned(c) = ctx.result else {
                        panic!("spawn failed")
                    };
                    self.child = Some(c);
                    self.phase = 2;
                    Action::Join { thread: c }
                }
                _ => {
                    assert_eq!(ctx.result, ActionResult::Joined);
                    *self.done_at.borrow_mut() = Some(ctx.now);
                    Action::Exit
                }
            }
        }
    }

    #[test]
    fn spawn_and_join() {
        let mut s = sys();
        let done = Rc::new(RefCell::new(None));
        s.spawn(
            "parent",
            Priority::Normal,
            Box::new(Parent {
                phase: 0,
                child: None,
                done_at: done.clone(),
            }),
        );
        assert!(s.run_to_completion(SimTime::from_secs(10)));
        let t = done.borrow().expect("joined").as_secs_f64();
        assert!((t - 0.4).abs() < 0.05, "join at {t}");
    }

    #[test]
    fn sleep_blocks_for_duration() {
        let mut s = sys();
        let (script, _results) = Script::new(vec![Action::Sleep(SimDuration::from_millis(250))]);
        let tid = s.spawn("sleeper", Priority::Normal, Box::new(script));
        assert!(s.run_to_completion(SimTime::from_secs(1)));
        let st = s.thread_stats(tid);
        let end = st.exited_at.unwrap().as_millis_f64();
        assert!((end - 250.0).abs() < 1.0, "end {end}");
        assert!(st.cpu_time.as_millis_f64() < 1.0);
    }

    #[test]
    fn run_until_advances_time_when_idle() {
        let mut s = sys();
        s.run_until(SimTime::from_secs(5));
        assert_eq!(s.now(), SimTime::from_secs(5));
    }

    #[test]
    fn contention_slows_corunning_mem_hogs() {
        // Two identical memory-bound burners finish slower together than
        // one does alone.
        let solo_end = {
            let mut s = sys();
            let t = s.spawn("solo", Priority::Normal, Box::new(Burner2 { iters: 20 }));
            assert!(s.run_to_completion(SimTime::from_secs(60)));
            s.thread_stats(t).exited_at.unwrap().as_secs_f64()
        };
        let (end_a, end_b) = {
            let mut s = sys();
            let a = s.spawn("a", Priority::Normal, Box::new(Burner2 { iters: 20 }));
            let b = s.spawn("b", Priority::Normal, Box::new(Burner2 { iters: 20 }));
            assert!(s.run_to_completion(SimTime::from_secs(60)));
            (
                s.thread_stats(a).exited_at.unwrap().as_secs_f64(),
                s.thread_stats(b).exited_at.unwrap().as_secs_f64(),
            )
        };
        assert!(end_a > 1.05 * solo_end, "a {end_a} vs solo {solo_end}");
        assert!(end_b > 1.05 * solo_end);
    }

    /// Memory-heavy burner with a fixed iteration count.
    #[derive(Debug)]
    struct Burner2 {
        iters: u64,
    }
    impl ThreadBody for Burner2 {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            if self.iters == 0 {
                return Action::Exit;
            }
            self.iters -= 1;
            Action::compute(OpBlock::mem_stream(5_000_000, 32 << 20))
        }
    }

    #[test]
    fn memory_commitment_accounting() {
        let mut s = sys(); // 1 GB machine -> 768 MB commit budget
        assert_eq!(s.committed_memory(), 0);
        assert!(s.commit_memory(300 << 20).is_ok());
        assert!(s.commit_memory(300 << 20).is_ok());
        let err = s.commit_memory(300 << 20).unwrap_err();
        assert!(err < 300 << 20, "remaining {err}");
        s.release_memory(300 << 20);
        assert!(s.commit_memory(300 << 20).is_ok());
        assert_eq!(s.committed_memory(), 600 << 20);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = sys();
            let a = s.spawn("a", Priority::Normal, Box::new(Burner2 { iters: 10 }));
            let b = s.spawn("b", Priority::Normal, Box::new(Burner2 { iters: 7 }));
            s.spawn("c", Priority::Idle, Box::new(Burner2 { iters: 3 }));
            s.run_until(SimTime::from_secs(30));
            (
                s.thread_stats(a).cpu_time,
                s.thread_stats(b).cpu_time,
                s.now(),
            )
        };
        assert_eq!(run(), run());
    }

    /// One long compute block on an otherwise idle machine: the fast path
    /// must collapse every interior quantum boundary into the single
    /// finish event, while the per-quantum reference materializes each.
    #[test]
    fn coalescing_cuts_slice_events() {
        let run = |coalesce: bool| {
            let mut s = System::new(SystemConfig {
                coalesce,
                ..SystemConfig::testbed(42)
            });
            // 4.8 G int ops: 0.8 s of work, i.e. 40 quanta.
            let t = s.spawn(
                "solo",
                Priority::Normal,
                Box::new(Burner {
                    ops: 4_800_000_000,
                    iters: 1,
                }),
            );
            assert!(s.run_to_completion(SimTime::from_secs(5)));
            (s.thread_stats(t).clone(), s.now(), s.loop_stats())
        };
        let (fast_th, fast_now, fast_ls) = run(true);
        let (ref_th, ref_now, ref_ls) = run(false);
        assert_eq!(fast_th.cpu_time, ref_th.cpu_time);
        assert_eq!(fast_th.exited_at, ref_th.exited_at);
        assert_eq!(fast_now, ref_now);
        // The final boundary coincides with the finish; whether that tie
        // registers as a crossing is a counter nuance, not a behavior.
        assert!(fast_ls.quanta_crossed.abs_diff(ref_ls.quanta_crossed) <= 1);
        assert!(
            fast_ls.events_coalesced() >= 35,
            "only {} boundaries coalesced",
            fast_ls.events_coalesced()
        );
        assert!(
            fast_ls.events_handled * 3 <= ref_ls.events_handled,
            "fast {} vs reference {} events",
            fast_ls.events_handled,
            ref_ls.events_handled
        );
    }

    /// A contended mix (rotations, boosts, an Idle straggler) must give
    /// bit-identical thread statistics in both execution modes.
    #[test]
    fn fast_path_matches_reference_exactly() {
        let run = |coalesce: bool| {
            let mut s = System::new(SystemConfig {
                coalesce,
                ..SystemConfig::testbed(7)
            });
            let a = s.spawn("a", Priority::Normal, Box::new(Burner2 { iters: 12 }));
            let b = s.spawn("b", Priority::Normal, Box::new(Burner2 { iters: 9 }));
            let c = s.spawn("c", Priority::BelowNormal, Box::new(Burner2 { iters: 5 }));
            let d = s.spawn("d", Priority::Idle, Box::new(Burner2 { iters: 2 }));
            s.run_until(SimTime::from_secs(30));
            let snap = |t: ThreadId| {
                let st = s.thread_stats(t);
                (st.cpu_time, st.exited_at)
            };
            (snap(a), snap(b), snap(c), snap(d), s.now())
        };
        assert_eq!(run(true), run(false));
    }

    /// The event-loop counters are visible through the public surface.
    #[test]
    fn loop_stats_are_exposed() {
        let mut s = sys();
        s.spawn(
            "t",
            Priority::Normal,
            Box::new(Burner {
                ops: 2_400_000_000,
                iters: 2,
            }),
        );
        assert!(s.run_to_completion(SimTime::from_secs(5)));
        let ls = s.loop_stats();
        assert!(ls.events_handled > 0);
        assert!(ls.sim_seconds > 0.0);
        assert!(ls.events_per_sim_second() > 0.0);
        assert_eq!(s.queue_stats().clamped, ls.clamped_events);
        let text = ls.render();
        assert!(text.contains("events=") && text.contains("coalesced="));
    }
}
