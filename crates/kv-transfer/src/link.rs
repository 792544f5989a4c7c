//! Point-to-point link model. Every replica pair of a fleet uses one link.

use sim_core::SimDuration;

/// A directed point-to-point link between two replicas.
///
/// Transfer time follows the classic latency/bandwidth model
/// `t = latency + bytes / bandwidth`, rounded *up* to the next nanosecond so
/// a non-empty transfer over a finite link never completes instantaneously.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation plus software latency of the link.
    pub latency: SimDuration,
    /// Sustained bandwidth in bytes per second. `f64::INFINITY` models an
    /// idealized link whose transfers cost only `latency`.
    pub bytes_per_s: f64,
}

impl LinkSpec {
    /// A link with the given latency and bandwidth (bytes per second).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_s` is not positive.
    pub fn new(latency: SimDuration, bytes_per_s: f64) -> Self {
        assert!(bytes_per_s > 0.0, "link bandwidth must be positive");
        LinkSpec {
            latency,
            bytes_per_s,
        }
    }

    /// An idealized zero-latency, infinite-bandwidth link. Any transfer over
    /// it completes in zero simulated time — migration over this link is
    /// equivalent to a free warm cache at the destination.
    pub fn instant() -> Self {
        LinkSpec {
            latency: SimDuration::ZERO,
            bytes_per_s: f64::INFINITY,
        }
    }

    /// A 200 Gbit/s RDMA NIC (25 GB/s) with 10 µs latency — the intra-rack
    /// default for GPU fleets.
    pub fn rdma_200g() -> Self {
        LinkSpec::new(SimDuration::from_ns(10_000), 25e9)
    }

    /// A 25 Gbit/s datacenter Ethernet link (3.125 GB/s) with 50 µs latency
    /// — a cross-rack worst case.
    pub fn ethernet_25g() -> Self {
        LinkSpec::new(SimDuration::from_ns(50_000), 3.125e9)
    }

    /// Time to move `bytes` over this link: `latency + bytes / bandwidth`,
    /// ceiling-rounded to integer nanoseconds.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        let wire_ns = bytes as f64 / self.bytes_per_s * 1e9;
        self.latency + SimDuration::from_ns_f64_ceil(wire_ns)
    }
}

/// `FleetTopology::uniform(n, link)` is `link`: a fleet's topology is the one
/// [`LinkSpec`] every replica pair uses. Kept because the benchmark harness
/// in `perfbench/` still spells a fleet's link this way; everything else
/// passes the [`LinkSpec`] directly.
#[derive(Debug)]
pub struct FleetTopology;

impl FleetTopology {
    /// Returns `link`; the replica count is not needed.
    pub fn uniform(_num_replicas: usize, link: LinkSpec) -> LinkSpec {
        link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_wire_time() {
        let link = LinkSpec::new(SimDuration::from_ns(10_000), 1e9);
        // 1 GB/s → 1 byte per ns: 5000 bytes = 5000 ns wire time.
        assert_eq!(
            link.transfer_time(5_000),
            SimDuration::from_ns(10_000 + 5_000)
        );
    }

    #[test]
    fn wire_time_rounds_up() {
        let link = LinkSpec::new(SimDuration::ZERO, 3e9);
        // 10 bytes at 3 GB/s is 3.33 ns → ceil to 4.
        assert_eq!(link.transfer_time(10), SimDuration::from_ns(4));
    }

    #[test]
    fn instant_link_is_free() {
        let link = LinkSpec::instant();
        assert_eq!(link.transfer_time(u64::MAX), SimDuration::ZERO);
    }
}
