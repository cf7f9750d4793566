//! The thread/kernel interaction protocol.
//!
//! Simulated programs are [`ThreadBody`] state machines. The kernel calls
//! [`ThreadBody::next`] whenever the thread is ready to issue its next
//! action, passing a [`ThreadCtx`] that carries the result of the previous
//! action. The body returns an [`Action`] — compute, file I/O, network
//! I/O, sleeping, thread management or exit — and the kernel simulates it.
//! File and network actions are planned by [`Action::plan_io`], the one
//! syscall table both the host and the guest kernels call.
//!
//! This is a coroutine protocol by explicit state machine: Rust has no
//! stable generators, and explicit states keep each workload's phase
//! structure visible and testable.

use crate::fs::{FileSystem, IoPlan};
use crate::net::{NetPlan, NetStack};
use vgrid_machine::ops::OpBlock;
use vgrid_simcore::{SimDuration, SimRng, SimTime};

/// Scheduling priority classes, modeled on Windows XP's priority classes
/// (the paper runs VMs at both `Normal` and `Idle`, Section 4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Lowest: runs only when nothing else is runnable.
    Idle = 0,
    /// Below normal.
    BelowNormal = 1,
    /// Default class.
    Normal = 2,
    /// Above normal.
    AboveNormal = 3,
    /// High: preempts all lower classes (device-emulation service threads).
    High = 4,
    /// Realtime: reserved for kernel-critical activity.
    Realtime = 5,
}

/// Identifies a thread within one `System` (or one guest kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// Identifies an open file within one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Identifies a network connection within one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u32);

/// Errors surfaced to thread bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OsError {
    /// Path not found.
    NotFound,
    /// File/connection id is stale or foreign.
    BadHandle,
    /// Out of simulated storage or memory.
    NoSpace,
    /// The action is not valid in this state.
    Invalid,
}

/// A simulated remote peer, used by network actions. The peer is modeled,
/// not simulated: it responds ideally at its link's speed (the paper's
/// iperf server on the LAN is exactly such a peer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteHost {
    /// One-way propagation delay to the peer.
    pub one_way_delay: SimDuration,
    /// How the peer behaves.
    pub kind: RemoteKind,
}

/// Behaviour of a remote peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteKind {
    /// Discards everything it receives (iperf server).
    Sink,
    /// Produces data on demand at line rate (download server).
    Source,
}

impl RemoteHost {
    /// An iperf-style discard server one LAN hop away (~0.2 ms).
    pub fn lan_sink() -> Self {
        RemoteHost {
            one_way_delay: SimDuration::from_micros(200),
            kind: RemoteKind::Sink,
        }
    }
    /// A LAN data source.
    pub fn lan_source() -> Self {
        RemoteHost {
            one_way_delay: SimDuration::from_micros(200),
            kind: RemoteKind::Source,
        }
    }
}

/// What a thread asks the kernel to do next.
#[derive(Debug)]
pub enum Action {
    /// Execute CPU work described by the block. Reference-counted so
    /// bodies that re-issue the same block every quantum (kernel loops,
    /// service duty cycles) share it instead of deep-copying per step.
    Compute(std::rc::Rc<OpBlock>),
    /// Open (and possibly create/truncate) a file by path.
    FileOpen {
        /// Path within the kernel's single namespace.
        path: String,
        /// Create the file if missing.
        create: bool,
        /// Truncate to zero length on open.
        truncate: bool,
        /// Bypass the page cache (device-image files, O_DIRECT-style).
        direct: bool,
    },
    /// Read `bytes` from the file at the current position.
    FileRead {
        /// Open file handle.
        file: FileId,
        /// Bytes to read.
        bytes: u64,
    },
    /// Write `bytes` to the file at the current position.
    FileWrite {
        /// Open file handle.
        file: FileId,
        /// Bytes to write.
        bytes: u64,
    },
    /// Flush all dirty data of the file to the device.
    FileSync {
        /// Open file handle.
        file: FileId,
    },
    /// Seek the file position (absolute).
    FileSeek {
        /// Open file handle.
        file: FileId,
        /// New absolute position.
        pos: u64,
    },
    /// Close the handle.
    FileClose {
        /// Open file handle.
        file: FileId,
    },
    /// Remove a file by path.
    FileDelete {
        /// Path to remove.
        path: String,
    },
    /// Drop the file's cached pages (benchmark cache control; mirrors
    /// `echo 3 > /proc/sys/vm/drop_caches` narrowed to one file).
    FileDropCache {
        /// Open file handle.
        file: FileId,
    },
    /// Open a transport connection to a modeled remote peer.
    NetConnect {
        /// The peer model.
        remote: RemoteHost,
    },
    /// Send `bytes` on the connection (blocking until accepted by the NIC).
    NetSend {
        /// Connection handle.
        conn: ConnId,
        /// Payload bytes.
        bytes: u64,
    },
    /// Receive exactly `bytes` from the connection (peer must be a source).
    NetRecv {
        /// Connection handle.
        conn: ConnId,
        /// Payload bytes to receive.
        bytes: u64,
    },
    /// Close the connection.
    NetClose {
        /// Connection handle.
        conn: ConnId,
    },
    /// Block for a simulated duration.
    Sleep(SimDuration),
    /// Give up the CPU, stay ready.
    YieldCpu,
    /// Spawn a new thread.
    Spawn {
        /// Debug name of the new thread.
        name: String,
        /// Scheduling class of the new thread.
        prio: Priority,
        /// Its program.
        body: Box<dyn ThreadBody>,
    },
    /// Block until the given thread exits.
    Join {
        /// Thread to wait for.
        thread: ThreadId,
    },
    /// Terminate this thread.
    Exit,
}

/// The plan of one file or network syscall.
#[derive(Debug)]
pub enum IoCall {
    /// A filesystem call: kernel CPU work, then device requests.
    File(IoPlan),
    /// A socket call: stack CPU work, then NIC occupancy and latency.
    Net(NetPlan),
}

impl Action {
    /// Wrap a freshly-built block as a compute action. Bodies that
    /// re-issue one block repeatedly should instead hold an
    /// `Rc<OpBlock>` and clone the handle.
    pub fn compute(block: OpBlock) -> Self {
        Action::Compute(std::rc::Rc::new(block))
    }

    /// The syscall layer shared by the host and guest kernels: plan a
    /// file or network action against the calling kernel's filesystem
    /// and stack. `None` for compute, sleep and thread actions, which
    /// each kernel schedules itself.
    pub fn plan_io(&self, fs: &mut FileSystem, net: &mut NetStack) -> Option<IoCall> {
        Some(match *self {
            Action::FileOpen {
                ref path,
                create,
                truncate,
                direct,
            } => IoCall::File(fs.open(path, create, truncate, direct)),
            Action::FileRead { file, bytes } => IoCall::File(fs.read(file, bytes)),
            Action::FileWrite { file, bytes } => IoCall::File(fs.write(file, bytes)),
            Action::FileSync { file } => IoCall::File(fs.sync(file)),
            Action::FileSeek { file, pos } => IoCall::File(fs.seek(file, pos)),
            Action::FileClose { file } => IoCall::File(fs.close(file)),
            Action::FileDelete { ref path } => IoCall::File(fs.delete(path)),
            Action::FileDropCache { file } => IoCall::File(fs.drop_cache(file)),
            Action::NetConnect { remote } => IoCall::Net(net.connect(remote)),
            Action::NetSend { conn, bytes } => IoCall::Net(net.send(conn, bytes)),
            Action::NetRecv { conn, bytes } => IoCall::Net(net.recv(conn, bytes)),
            Action::NetClose { conn } => IoCall::Net(net.close(conn)),
            Action::Compute(_)
            | Action::Sleep(_)
            | Action::YieldCpu
            | Action::Spawn { .. }
            | Action::Join { .. }
            | Action::Exit => return None,
        })
    }
}

/// Result of the previous action, delivered with the next `next()` call.
#[derive(Debug, Clone, PartialEq)]
pub enum ActionResult {
    /// First activation, or the previous action has no payload
    /// (Compute/Sleep/Yield completed).
    None,
    /// FileOpen succeeded.
    Opened(FileId),
    /// FileRead moved this many bytes.
    Read {
        /// Bytes actually read (may be short at EOF).
        bytes: u64,
    },
    /// FileWrite accepted this many bytes.
    Wrote {
        /// Bytes written.
        bytes: u64,
    },
    /// FileSync finished.
    Synced,
    /// FileClose finished.
    Closed,
    /// FileDelete finished.
    Deleted,
    /// FileSeek finished.
    Sought,
    /// FileDropCache finished.
    CacheDropped,
    /// NetConnect succeeded.
    Connected(ConnId),
    /// NetSend finished.
    Sent {
        /// Bytes sent.
        bytes: u64,
    },
    /// NetRecv finished.
    Received {
        /// Bytes received.
        bytes: u64,
    },
    /// NetClose finished.
    NetClosed,
    /// Spawn succeeded.
    Spawned(ThreadId),
    /// Join target exited.
    Joined,
    /// The action failed.
    Err(OsError),
}

/// Per-activation context handed to `ThreadBody::next`.
pub struct ThreadCtx<'a> {
    /// Current simulated time (the kernel's clock; for guests this is the
    /// *virtual* clock, which may be distorted — see `vgrid-timeref`).
    pub now: SimTime,
    /// Result of the thread's previous action.
    pub result: ActionResult,
    /// CPU time this thread has consumed so far.
    pub cpu_time: SimDuration,
    /// This thread's id.
    pub me: ThreadId,
    /// Deterministic per-thread random stream.
    pub rng: &'a mut SimRng,
}

/// A simulated program: a resumable state machine of [`Action`]s.
pub trait ThreadBody: std::fmt::Debug {
    /// Produce the next action. `ctx.result` carries the previous action's
    /// outcome ([`ActionResult::None`] on first activation).
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering_matches_classes() {
        assert!(Priority::Idle < Priority::BelowNormal);
        assert!(Priority::BelowNormal < Priority::Normal);
        assert!(Priority::Normal < Priority::AboveNormal);
        assert!(Priority::AboveNormal < Priority::High);
        assert!(Priority::High < Priority::Realtime);
    }

    #[test]
    fn remote_presets() {
        assert_eq!(RemoteHost::lan_sink().kind, RemoteKind::Sink);
        assert_eq!(RemoteHost::lan_source().kind, RemoteKind::Source);
        assert!(RemoteHost::lan_sink().one_way_delay > SimDuration::ZERO);
    }

    #[test]
    fn action_result_equality() {
        assert_eq!(ActionResult::None, ActionResult::None);
        assert_ne!(
            ActionResult::Read { bytes: 1 },
            ActionResult::Read { bytes: 2 }
        );
        assert_eq!(
            ActionResult::Err(OsError::NotFound),
            ActionResult::Err(OsError::NotFound)
        );
    }
}
