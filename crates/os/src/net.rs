//! Transport/network stack model.
//!
//! Like the filesystem, the stack is a *planner*: each operation returns a
//! [`NetPlan`] with the CPU work the calling thread performs in the stack
//! (per-segment processing — this is what virtual NIC paths multiply) and
//! the wire occupancy of the NIC. The owning kernel times both parts.
//!
//! The transport model is deliberately simple: bulk transfers over an
//! otherwise idle 100 Mbps LAN are wire-serialization plus a propagation
//! delay, which reproduces iperf's measured behaviour on the paper's
//! testbed to within its reporting precision. Loss, congestion control
//! and cross-traffic are out of scope (the paper's LAN had none).

use crate::action::{ActionResult, ConnId, OsError, RemoteHost, RemoteKind};
use vgrid_machine::ops::{OpBlock, OpClassCounts};
use vgrid_machine::NicModel;
use vgrid_simcore::{DetMap, SimDuration};

/// Stack tuning parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Kernel ops per socket syscall.
    pub syscall_kernel_ops: u64,
    /// Kernel ops to process one segment through the native stack
    /// (header construction, checksum, driver handoff). Derived from the
    /// NIC spec's per-frame CPU cost at `System` build time.
    pub kernel_ops_per_frame: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            syscall_kernel_ops: 4,
            kernel_ops_per_frame: 16,
        }
    }
}

/// What must happen for one network call.
#[derive(Debug, Clone)]
pub struct NetPlan {
    /// CPU work performed by the calling thread.
    pub cpu: OpBlock,
    /// Time the NIC is occupied serializing this call's frames.
    pub wire: SimDuration,
    /// Extra latency after wire completion before the call returns
    /// (propagation / final ACK).
    pub extra_delay: SimDuration,
    /// Result to deliver afterwards.
    pub result: ActionResult,
}

impl NetPlan {
    fn err(e: OsError) -> NetPlan {
        NetPlan {
            cpu: OpBlock::kernel(2).with_label("net/err"),
            wire: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            result: ActionResult::Err(e),
        }
    }
}

#[derive(Debug, Clone)]
struct Conn {
    remote: RemoteHost,
    /// Bytes sent over the connection (statistics).
    sent: u64,
    /// Bytes received (statistics).
    received: u64,
}

/// The transport stack planner.
#[derive(Debug)]
pub struct NetStack {
    cfg: NetConfig,
    nic: NicModel,
    conns: DetMap<ConnId, Conn>,
    next_conn: u32,
    /// Bytes requested by every `send` call, failed calls included.
    pub(crate) tx_bytes: u64,
    /// Bytes requested by every `recv` call, failed calls included.
    pub(crate) rx_bytes: u64,
}

impl NetStack {
    /// Build a stack over the given NIC model.
    pub fn new(cfg: NetConfig, nic: NicModel) -> Self {
        NetStack {
            cfg,
            nic,
            conns: DetMap::new(),
            next_conn: 1,
            tx_bytes: 0,
            rx_bytes: 0,
        }
    }

    /// The NIC model in use.
    pub fn nic(&self) -> &NicModel {
        &self.nic
    }

    /// CPU block for moving `payload` bytes through the stack.
    fn stack_block(&self, payload: u64, label: &str) -> OpBlock {
        let frames = self.nic.link.frames_for(payload);
        let words = payload / 8;
        OpBlock {
            label: label.to_string(),
            counts: OpClassCounts {
                mem_reads: words,
                mem_writes: words,
                int_ops: words / 2,
                kernel_ops: self.cfg.syscall_kernel_ops + frames * self.cfg.kernel_ops_per_frame,
                ..Default::default()
            },
            // Sequential buffer traversal: same-line hits plus prefetch.
            working_set: payload.max(4096),
            locality: 0.9,
        }
    }

    /// Open a connection (three-way handshake: ~1.5 RTT of latency, small
    /// CPU).
    pub fn connect(&mut self, remote: RemoteHost) -> NetPlan {
        let id = ConnId(self.next_conn);
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                remote,
                sent: 0,
                received: 0,
            },
        );
        NetPlan {
            cpu: OpBlock::kernel(self.cfg.syscall_kernel_ops * 4).with_label("net/connect"),
            wire: SimDuration::ZERO,
            extra_delay: remote.one_way_delay * 3,
            result: ActionResult::Connected(id),
        }
    }

    /// Send `bytes` to the peer.
    pub fn send(&mut self, conn: ConnId, bytes: u64) -> NetPlan {
        self.tx_bytes += bytes;
        let Some(c) = self.conns.get_mut(&conn) else {
            return NetPlan::err(OsError::BadHandle);
        };
        c.sent += bytes;
        NetPlan {
            cpu: self.stack_block(bytes, "net/send"),
            wire: self.nic.link.wire_time(bytes),
            // Socket-buffer semantics: send() returns once the NIC has
            // accepted the data. ACK latency is pipelined away by the
            // window and does not serialize per call.
            extra_delay: SimDuration::ZERO,
            result: ActionResult::Sent { bytes },
        }
    }

    /// Receive exactly `bytes` from a source peer.
    pub fn recv(&mut self, conn: ConnId, bytes: u64) -> NetPlan {
        self.rx_bytes += bytes;
        let Some(c) = self.conns.get_mut(&conn) else {
            return NetPlan::err(OsError::BadHandle);
        };
        if c.remote.kind != RemoteKind::Source {
            return NetPlan::err(OsError::Invalid);
        }
        c.received += bytes;
        let delay = c.remote.one_way_delay;
        NetPlan {
            cpu: self.stack_block(bytes, "net/recv"),
            wire: self.nic.link.wire_time(bytes),
            extra_delay: delay,
            result: ActionResult::Received { bytes },
        }
    }

    /// Close the connection.
    pub fn close(&mut self, conn: ConnId) -> NetPlan {
        if self.conns.remove(&conn).is_none() {
            return NetPlan::err(OsError::BadHandle);
        }
        NetPlan {
            cpu: OpBlock::kernel(self.cfg.syscall_kernel_ops).with_label("net/close"),
            wire: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            result: ActionResult::NetClosed,
        }
    }

    /// Bytes sent so far on a connection.
    pub fn sent_on(&self, conn: ConnId) -> Option<u64> {
        self.conns.get(&conn).map(|c| c.sent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgrid_machine::MachineSpec;

    fn stack() -> NetStack {
        NetStack::new(
            NetConfig::default(),
            MachineSpec::core2_duo_6600().nic_model(),
        )
    }

    fn connect(s: &mut NetStack) -> ConnId {
        match s.connect(RemoteHost::lan_sink()).result {
            ActionResult::Connected(id) => id,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn connect_costs_latency_not_wire() {
        let mut s = stack();
        let plan = s.connect(RemoteHost::lan_sink());
        assert_eq!(plan.wire, SimDuration::ZERO);
        assert!(plan.extra_delay > SimDuration::ZERO);
        assert!(matches!(plan.result, ActionResult::Connected(_)));
    }

    #[test]
    fn bulk_send_is_wire_dominated() {
        let mut s = stack();
        let c = connect(&mut s);
        let plan = s.send(c, 10 * 1024 * 1024);
        // 10 MB at ~97.6 Mbps -> ~0.86 s of wire time.
        let w = plan.wire.as_secs_f64();
        assert!((0.8..0.9).contains(&w), "wire {w}");
        assert_eq!(
            plan.result,
            ActionResult::Sent {
                bytes: 10 * 1024 * 1024
            }
        );
    }

    #[test]
    fn send_cpu_scales_with_frames() {
        let mut s = stack();
        let c = connect(&mut s);
        let one = s.send(c, 1460);
        let many = s.send(c, 1460 * 100);
        assert!(many.cpu.counts.kernel_ops > 50 * one.cpu.counts.kernel_ops);
    }

    #[test]
    fn recv_requires_source_peer() {
        let mut s = stack();
        let sink = connect(&mut s);
        assert_eq!(
            s.recv(sink, 100).result,
            ActionResult::Err(OsError::Invalid)
        );
        let src = match s.connect(RemoteHost::lan_source()).result {
            ActionResult::Connected(id) => id,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            s.recv(src, 100).result,
            ActionResult::Received { bytes: 100 }
        );
    }

    #[test]
    fn stale_conn_errors() {
        let mut s = stack();
        assert_eq!(
            s.send(ConnId(42), 1).result,
            ActionResult::Err(OsError::BadHandle)
        );
        assert_eq!(
            s.close(ConnId(42)).result,
            ActionResult::Err(OsError::BadHandle)
        );
    }

    #[test]
    fn close_forgets_connection() {
        let mut s = stack();
        let c = connect(&mut s);
        assert_eq!(s.close(c).result, ActionResult::NetClosed);
        assert_eq!(s.send(c, 1).result, ActionResult::Err(OsError::BadHandle));
    }

    #[test]
    fn sent_accounting() {
        let mut s = stack();
        let c = connect(&mut s);
        s.send(c, 100);
        s.send(c, 200);
        assert_eq!(s.sent_on(c), Some(300));
    }
}
