//! Network interface and link models.
//!
//! [`LinkModel`] serializes transport segments onto a fixed-rate link
//! (100 Mbps Fast Ethernet on the paper's testbed) with a calibrated
//! per-frame overhead such that a saturated TCP bulk stream reports the
//! paper's native iperf goodput of 97.60 Mbps. [`NicModel`] adds the host
//! CPU cost of pushing frames through the native stack — which matters
//! because virtualized NIC paths (especially NAT) multiply that CPU cost
//! until it, not the wire, becomes the bottleneck (Figure 4).

use crate::spec::NicSpec;
use vgrid_simcore::SimDuration;

/// Pure link-serialization model.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// Link rate, bits/second.
    pub rate_bps: f64,
    /// Max transport payload per frame, bytes.
    pub mss: u32,
    /// On-wire overhead per frame beyond payload, bytes.
    pub per_frame_overhead: u32,
}

impl LinkModel {
    /// Number of frames needed for `payload` bytes.
    pub fn frames_for(&self, payload: u64) -> u64 {
        payload.div_ceil(self.mss as u64).max(1)
    }

    /// Wire time to carry `payload` bytes (all frames, back to back).
    /// The on-wire byte count saturates at `u64::MAX` for hostile sizes.
    pub fn wire_time(&self, payload: u64) -> SimDuration {
        let frames = self.frames_for(payload);
        let wire_bytes =
            payload.saturating_add(frames.saturating_mul(self.per_frame_overhead as u64));
        SimDuration::from_secs_f64(wire_bytes as f64 * 8.0 / self.rate_bps)
    }

    /// Steady-state goodput of a saturated stream, bits/second of payload.
    pub fn goodput_bps(&self) -> f64 {
        self.rate_bps * self.mss as f64 / (self.mss + self.per_frame_overhead) as f64
    }
}

/// NIC model: link plus per-frame host CPU cost.
#[derive(Debug, Clone, PartialEq)]
pub struct NicModel {
    /// The link behind the NIC.
    pub link: LinkModel,
    /// Host CPU seconds to process one frame natively.
    pub per_frame_cpu: f64,
}

impl NicModel {
    /// Build from a NIC spec.
    pub fn new(spec: NicSpec) -> Self {
        NicModel {
            link: LinkModel {
                rate_bps: spec.link_rate_bps,
                mss: spec.mss,
                per_frame_overhead: spec.per_frame_overhead,
            },
            per_frame_cpu: spec.per_frame_cpu,
        }
    }

    /// Host CPU time to process `payload` bytes worth of frames with a
    /// per-frame cost multiplier (1.0 = native stack; virtual NIC paths
    /// pass larger multipliers).
    pub fn cpu_time(&self, payload: u64, per_frame_multiplier: f64) -> SimDuration {
        let frames = self.link.frames_for(payload);
        SimDuration::from_secs_f64(frames as f64 * self.per_frame_cpu * per_frame_multiplier)
    }

    /// Achievable throughput (payload bits/second) of a bulk stream whose
    /// per-frame CPU cost is multiplied by `per_frame_multiplier` and whose
    /// sender can devote `cpu_share` of one core to the stack.
    ///
    /// The stream is wire-limited when frame processing keeps up, CPU-
    /// limited otherwise — the crossover that separates bridged (wire-
    /// limited, ~97 Mbps) from NAT (CPU-limited, down to ~1-4 Mbps) modes.
    pub fn bulk_throughput_bps(&self, per_frame_multiplier: f64, cpu_share: f64) -> f64 {
        debug_assert!(cpu_share > 0.0 && cpu_share <= 1.0);
        let wire = self.link.goodput_bps();
        let frame_cpu = self.per_frame_cpu * per_frame_multiplier;
        if frame_cpu <= 0.0 {
            return wire;
        }
        let frames_per_sec = cpu_share / frame_cpu;
        let cpu_limited = frames_per_sec * self.link.mss as f64 * 8.0;
        wire.min(cpu_limited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MachineSpec;

    fn nic() -> NicModel {
        MachineSpec::core2_duo_6600().nic_model()
    }

    #[test]
    fn goodput_matches_paper_native() {
        let g = nic().link.goodput_bps() / 1e6;
        assert!((g - 97.60).abs() < 0.05, "goodput {g}");
    }

    #[test]
    fn wire_time_for_10mb() {
        // The paper's NetBench: 10 MB stream. At 97.6 Mbps -> ~0.82 s.
        let t = nic().link.wire_time(10 * 1024 * 1024).as_secs_f64();
        assert!((0.8..0.9).contains(&t), "t {t}");
    }

    #[test]
    fn frames_round_up() {
        let l = nic().link;
        assert_eq!(l.frames_for(1), 1);
        assert_eq!(l.frames_for(1460), 1);
        assert_eq!(l.frames_for(1461), 2);
        assert_eq!(l.frames_for(0), 1);
    }

    #[test]
    fn native_stream_is_wire_limited() {
        let n = nic();
        let t = n.bulk_throughput_bps(1.0, 1.0);
        assert!((t - n.link.goodput_bps()).abs() < 1.0);
    }

    #[test]
    fn heavy_per_frame_cost_becomes_cpu_limited() {
        let n = nic();
        // 800x per-frame cost: 400 us/frame -> 2500 frames/s -> ~29 Mbps.
        let t = n.bulk_throughput_bps(800.0, 1.0) / 1e6;
        assert!(t < 35.0, "t {t}");
        assert!(t > 20.0, "t {t}");
    }

    #[test]
    fn throughput_monotone_in_multiplier() {
        let n = nic();
        let mut last = f64::INFINITY;
        for m in [1.0, 10.0, 100.0, 1000.0] {
            let t = n.bulk_throughput_bps(m, 1.0);
            assert!(t <= last);
            last = t;
        }
    }

    #[test]
    fn cpu_share_scales_cpu_limited_throughput() {
        let n = nic();
        let full = n.bulk_throughput_bps(1600.0, 1.0);
        let half = n.bulk_throughput_bps(1600.0, 0.5);
        assert!((half - full / 2.0).abs() / full < 0.01);
    }

    #[test]
    fn cpu_time_scales_with_multiplier() {
        let n = nic();
        let base = n.cpu_time(1_000_000, 1.0);
        let x10 = n.cpu_time(1_000_000, 10.0);
        let ratio = x10.as_secs_f64() / base.as_secs_f64();
        assert!((ratio - 10.0).abs() < 0.01);
    }
}
