//! Network timing parameters.

use failmpi_sim::SimDuration;

/// Timing model for the simulated cluster interconnect.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// One-way switch latency between two distinct hosts.
    pub latency: SimDuration,
    /// NIC bandwidth in bytes per second (applied on both the send and the
    /// receive side of every remote transfer).
    pub bandwidth_bytes_per_sec: u64,
    /// Latency of a local (same-host, unix-socket-like) delivery; local
    /// transfers do not occupy the NIC.
    pub local_latency: SimDuration,
    /// TCP keep-alive probe interval (modelled for completeness; the default
    /// failure model kills tasks, which breaks connections immediately).
    pub keepalive_interval: SimDuration,
    /// Number of consecutive missed probes before a peer is declared dead.
    pub keepalive_probes: u32,
    /// Extra delay before peers observe the closure of a killed process'
    /// streams. Zero models the paper's setup ("we emulated failures by
    /// killing the task, not the operating system, so failure detection was
    /// immediate"); set it to [`NetConfig::keepalive_detection_time`] to
    /// model a hard machine crash detected only through keep-alive probes.
    pub kill_detect_extra: SimDuration,
}

impl Default for NetConfig {
    /// Grid-Explorer-like defaults: GigE (125 MB/s), 100 µs switch latency,
    /// 5 µs local pipes, Linux default keep-alive (75 s × 9).
    fn default() -> Self {
        NetConfig {
            latency: SimDuration::from_micros(100),
            bandwidth_bytes_per_sec: 125_000_000,
            local_latency: SimDuration::from_micros(5),
            keepalive_interval: SimDuration::from_secs(75),
            keepalive_probes: 9,
            kill_detect_extra: SimDuration::ZERO,
        }
    }
}

impl NetConfig {
    /// Time a `bytes`-sized message occupies one NIC.
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        debug_assert!(self.bandwidth_bytes_per_sec > 0);
        let bw = self.bandwidth_bytes_per_sec;
        let us = wire_micros_u64(bytes, bw).unwrap_or_else(|| wire_micros_u128(bytes, bw));
        SimDuration::from_micros(us)
    }

    /// Worst-case failure-detection delay through keep-alive alone.
    pub fn keepalive_detection_time(&self) -> SimDuration {
        self.keepalive_interval * self.keepalive_probes as u64
    }
}

/// Ceil division in microseconds, `bytes * 1e6 / bw`, in native `u64`
/// arithmetic; `None` when `bytes * 1e6` does not fit (any real message
/// fits: the bound is about 18 TB).
fn wire_micros_u64(bytes: u64, bw: u64) -> Option<u64> {
    Some(bytes.checked_mul(1_000_000)?.div_ceil(bw))
}

/// The same ceil division widened to `u128`, saturating at `u64::MAX`.
fn wire_micros_u128(bytes: u64, bw: u64) -> u64 {
    let us = (bytes as u128 * 1_000_000).div_ceil(bw as u128);
    us.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_fast_path_matches_wide_form() {
        let edge = u64::MAX / 1_000_000;
        for bw in [1, 3, 125_000_000, 1_000_000_007, u64::MAX] {
            let mut sizes = vec![0, 1, bw, edge, edge + 1, u64::MAX];
            // A spread of message sizes: powers of two and their neighbours.
            for shift in 0..64 {
                let p = 1u64 << shift;
                sizes.extend([p - 1, p, p.saturating_add(1)]);
            }
            for bytes in sizes {
                let wide = wire_micros_u128(bytes, bw);
                if let Some(narrow) = wire_micros_u64(bytes, bw) {
                    assert_eq!(narrow, wide, "{bytes} B at {bw} B/s");
                } else {
                    assert!(bytes > edge, "{bytes} B fits but took the wide path");
                }
                let cfg = NetConfig {
                    bandwidth_bytes_per_sec: bw,
                    ..NetConfig::default()
                };
                assert_eq!(cfg.wire_time(bytes), SimDuration::from_micros(wide));
            }
            assert!(wire_micros_u64(edge, bw).is_some());
            assert!(wire_micros_u64(edge + 1, bw).is_none());
        }
    }

    #[test]
    fn wire_time_scales_with_size() {
        let cfg = NetConfig::default();
        // 125 MB at 125 MB/s = 1 s.
        assert_eq!(cfg.wire_time(125_000_000), SimDuration::from_secs(1));
        assert_eq!(cfg.wire_time(0), SimDuration::ZERO);
        // 1 byte still costs at least a microsecond tick.
        assert_eq!(cfg.wire_time(1), SimDuration::from_micros(1));
    }

    #[test]
    fn keepalive_matches_linux_defaults() {
        let cfg = NetConfig::default();
        assert_eq!(
            cfg.keepalive_detection_time(),
            SimDuration::from_secs(75 * 9)
        );
    }
}
