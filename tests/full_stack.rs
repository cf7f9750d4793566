//! Cross-crate mechanism tests: exercise the full stack (workload ->
//! guest kernel -> monitor -> host kernel -> hardware models) and
//! assert on *how* results arise, not only on the numbers.

use vgrid::machine::ops::OpBlock;
use vgrid::os::{Action, Priority, System, SystemConfig, ThreadBody, ThreadCtx};
use vgrid::simcore::{SimDuration, SimTime, TraceCategory};
use vgrid::vmm::{GuestConfig, GuestVm, Vm, VmConfig, VmmProfile, VnicMode};
use vgrid::workloads::iobench::{IoBenchBody, IoBenchConfig};
use vgrid::workloads::nbench::{NBenchBody, NBenchSuite};
use vgrid::workloads::netbench::{NetBenchBody, NetBenchConfig};

#[derive(Debug)]
struct Hog;
impl ThreadBody for Hog {
    fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        Action::compute(OpBlock::int_alu(10_000_000))
    }
}

/// Guest disk I/O must leave tracks on the *host*: image-file disk
/// traffic and vCPU time spent in device emulation.
#[test]
fn guest_io_reaches_the_host_disk_through_the_image_file() {
    let mut sys = System::new(SystemConfig::testbed(1));
    sys.trace.enable(TraceCategory::Io);
    let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
    let (body, report) = IoBenchBody::new(IoBenchConfig {
        max_size: 1 << 20,
        ..Default::default()
    });
    guest.spawn("iobench", Box::new(body));
    let vm = Vm::install(&mut sys, VmConfig::new("io", Priority::Normal), guest);
    assert!(vm.run_until_halted(&mut sys, SimTime::from_secs(300)));
    assert!(report.borrow().complete);
    // The host image file exists and grew to hold the guest's writes.
    let image = sys.fs.size_of("/vm/io.img").expect("image file exists");
    assert!(image >= 1 << 20, "image holds guest data: {image} bytes");
    // Host-side disk completions were traced (the vCPU thread's I/O).
    let io_events = sys.trace.events_in(TraceCategory::Io).count();
    assert!(io_events > 10, "host disk activity: {io_events} events");
}

/// The same NetBench body, run under two vNIC modes of the same
/// monitor, must differ only through the network path.
#[test]
fn vnic_mode_alone_explains_the_nat_cliff() {
    let run = |mode: VnicMode| {
        let mut sys = System::new(SystemConfig::testbed(2));
        let mut guest = GuestVm::new(
            GuestConfig::new(VmmProfile::vmplayer()).with_vnic(mode),
            sys.machine(),
        );
        let (body, report) = NetBenchBody::new(NetBenchConfig {
            total_bytes: 1 << 20,
            ..Default::default()
        });
        guest.spawn("netbench", Box::new(body));
        let vm = Vm::install(&mut sys, VmConfig::new("net", Priority::Normal), guest);
        assert!(vm.run_until_halted(&mut sys, SimTime::from_secs(600)));
        let mbps = report.borrow().mbps;
        let vcpu_cpu = sys.thread_stats(vm.vcpu).cpu_time.as_secs_f64();
        (mbps, vcpu_cpu)
    };
    let (bridged_mbps, bridged_cpu) = run(VnicMode::Bridged);
    let (nat_mbps, nat_cpu) = run(VnicMode::Nat);
    assert!(
        bridged_mbps > 20.0 * nat_mbps,
        "bridged {bridged_mbps} vs NAT {nat_mbps}"
    );
    // The NAT cliff is a CPU phenomenon: the vCPU burned far more host
    // CPU per byte doing userspace translation.
    assert!(
        nat_cpu > 5.0 * bridged_cpu,
        "NAT cpu {nat_cpu} vs bridged {bridged_cpu}"
    );
}

/// Checkpointing a VM while the host is busy: the checkpoint still
/// completes, writes the full RAM image, and the host benchmark thread
/// keeps its core.
#[test]
fn checkpoint_under_host_load() {
    let mut sys = System::new(SystemConfig::testbed(3));
    let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::virtualpc()), sys.machine());
    #[derive(Debug)]
    struct Busy;
    impl ThreadBody for Busy {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            Action::compute(OpBlock::fp_alu(10_000_000))
        }
    }
    guest.spawn("science", Box::new(Busy));
    let vm = Vm::install(&mut sys, VmConfig::new("ck", Priority::Idle), guest);
    let host = sys.spawn("hostwork", Priority::Normal, Box::new(Hog));
    sys.run_until(SimTime::from_secs(1));
    vm.request_checkpoint("/ckpt/ck.sav");
    sys.run_until(SimTime::from_secs(60));
    assert!(vm.checkpoint_done_at().is_some(), "checkpoint finished");
    assert_eq!(
        sys.fs.size_of("/ckpt/ck.sav"),
        Some(vm.committed_memory),
        "checkpoint holds the committed RAM"
    );
    // Host thread ran essentially continuously (one core was always
    // available to it).
    let host_cpu = sys.thread_stats(host).cpu_time.as_secs_f64();
    assert!(host_cpu > 55.0, "host work starved: {host_cpu}");
}

/// NBench on the host while *two* VMs run: intrusion compounds but the
/// host still schedules the benchmark (stress composition beyond the
/// paper's single-VM setup).
#[test]
fn two_vms_compound_host_intrusion() {
    let suite = NBenchSuite::small();
    let run = |vms: usize| {
        let mut sys = System::new(SystemConfig::testbed(4));
        for i in 0..vms {
            let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::virtualbox()), sys.machine());
            #[derive(Debug)]
            struct Busy;
            impl ThreadBody for Busy {
                fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
                    Action::compute(OpBlock::fp_alu(10_000_000))
                }
            }
            guest.spawn("science", Box::new(Busy));
            Vm::install(
                &mut sys,
                VmConfig::new(format!("vm{i}"), Priority::Idle),
                guest,
            );
        }
        let (body, report) = NBenchBody::new(suite.clone(), SimDuration::from_millis(20));
        sys.spawn("nbench", Priority::Normal, Box::new(body));
        assert!(
            sys.run_until_event(SimTime::from_secs(600), || report.borrow().complete),
            "nbench finished with {vms} VMs"
        );
        let total: f64 = report.borrow().rates.iter().map(|&(_, _, r)| r).sum();
        total
    };
    let zero = run(0);
    let one = run(1);
    let two = run(2);
    assert!(one <= zero * 1.001);
    assert!(two < one, "second VM must cost more: {two} vs {one}");
    // Even with two VMs the benchmark completes with usable throughput.
    assert!(two > 0.3 * zero, "host collapsed: {two} vs {zero}");
}

/// The guest's own page cache works: a guest re-reading a small cached
/// file does no host I/O at all.
#[test]
fn guest_page_cache_absorbs_rereads() {
    #[derive(Debug)]
    struct ReRead {
        phase: u8,
        file: Option<vgrid::os::FileId>,
    }
    impl ThreadBody for ReRead {
        fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
            use vgrid::os::ActionResult;
            match self.phase {
                0 => {
                    self.phase = 1;
                    Action::FileOpen {
                        path: "/hot".into(),
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
                        bytes: 256 * 1024,
                    }
                }
                2..=11 => {
                    self.phase += 1;
                    let file = self.file.expect("opened");
                    // Seek + read loop, all from the guest cache.
                    if self.phase % 2 == 1 {
                        Action::FileSeek { file, pos: 0 }
                    } else {
                        Action::FileRead {
                            file,
                            bytes: 256 * 1024,
                        }
                    }
                }
                _ => Action::Exit,
            }
        }
    }
    let mut sys = System::new(SystemConfig::testbed(5));
    let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::qemu()), sys.machine());
    guest.spawn(
        "reread",
        Box::new(ReRead {
            phase: 0,
            file: None,
        }),
    );
    let vm = Vm::install(&mut sys, VmConfig::new("cache", Priority::Normal), guest);
    assert!(vm.run_until_halted(&mut sys, SimTime::from_secs(60)));
    // The dirty data was never synced and never re-read from the device:
    // the host image file never materialized any bytes.
    assert_eq!(sys.fs.size_of("/vm/cache.img"), Some(0));
}

/// The paper's actual deployment, end to end: a BOINC-style client runs
/// *inside* a guest (the vm-wrapper), downloading inputs and uploading
/// results through the virtual NIC and paying the monitor's CPU
/// dilation. The identical client body run natively must be faster.
#[test]
fn boinc_client_runs_inside_the_guest() {
    use vgrid::grid::{BoincClientBody, ClientWorkSpec};

    let spec = ClientWorkSpec {
        input_bytes: 512 * 1024,
        output_bytes: 64 * 1024,
        chunk: OpBlock::fp_alu(24_000_000),
        chunks_per_wu: 4,
    };
    // Native deployment.
    let native_done = {
        let mut sys = System::new(SystemConfig::testbed(6));
        let (body, stats) = BoincClientBody::new(spec.clone(), Some(5));
        sys.spawn("boinc", Priority::Normal, Box::new(body));
        assert!(sys.run_to_completion(SimTime::from_secs(600)));
        assert_eq!(stats.borrow().wus_completed, 5);
        sys.now()
    };
    // vm-wrapper deployment under QEMU (worst dilation + NAT networking).
    let guest_done = {
        let mut sys = System::new(SystemConfig::testbed(6));
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::qemu()), sys.machine());
        let (body, stats) = BoincClientBody::new(spec, Some(5));
        guest.spawn("boinc", Box::new(body));
        let vm = Vm::install(&mut sys, VmConfig::new("wrap", Priority::Normal), guest);
        assert!(
            vm.run_until_halted(&mut sys, SimTime::from_secs(3600)),
            "guest client finished"
        );
        assert_eq!(stats.borrow().wus_completed, 5);
        assert_eq!(stats.borrow().bytes_down, 5 * 512 * 1024);
        sys.now()
    };
    let ratio = guest_done.as_secs_f64() / native_done.as_secs_f64();
    assert!(
        ratio > 1.2,
        "vm-wrapper must cost CPU dilation + vNIC overhead: {ratio}"
    );
    assert!(ratio < 30.0, "but the deployment still works: {ratio}");
}

/// A multithreaded 7z benchmark inside a single-vCPU guest gains nothing
/// over one thread — guest SMP is serialized by the single virtual CPU
/// (why the paper benchmarks guests single-threaded).
#[test]
fn guest_multithreading_is_serialized_by_the_single_vcpu() {
    use vgrid::workloads::sevenz::{SevenZBody, SevenZConfig};
    let run = |threads: u32| {
        let mut sys = System::new(SystemConfig::testbed(8));
        let mut guest = GuestVm::new(GuestConfig::new(VmmProfile::vmplayer()), sys.machine());
        let cfg = SevenZConfig {
            threads,
            corpus_len: 24 * 1024,
            depth: 8,
            duration: SimDuration::from_millis(400),
            ..Default::default()
        };
        let (body, report) = SevenZBody::new(cfg, Priority::Normal);
        guest.spawn("7z", Box::new(body));
        let vm = Vm::install(&mut sys, VmConfig::new("mt", Priority::Normal), guest);
        assert!(vm.run_until_halted(&mut sys, SimTime::from_secs(120)));
        let r = report.borrow().clone();
        assert!(r.complete);
        r.mips
    };
    let one = run(1);
    let two = run(2);
    // On the host two threads speed 7z up ~1.8x; in a 1-vCPU guest the
    // second thread cannot add throughput (sync stalls may even cost).
    let speedup = two / one;
    assert!(
        speedup < 1.15,
        "single vCPU cannot parallelize: speedup {speedup}"
    );
}
