//! The transfer plane: in-flight transfers serialized on per-replica NICs.

use crate::link::LinkSpec;
use serde::Serialize;
use sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Why a transfer was started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TransferKind {
    /// Warm-prefix migration of cached blocks to a failover target.
    PrefixMigration,
    /// Speculative prefix push to a replica that just (re)joined the fleet.
    Prewarm,
    /// Prefill→decode KV handoff in disaggregated serving.
    DisaggHandoff,
}

/// One KV transfer between two replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Plane-unique transfer id.
    pub id: u64,
    /// Donor replica index (transmit side).
    pub src: usize,
    /// Destination replica index (receive side).
    pub dst: usize,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Number of prompt tokens the payload covers.
    pub tokens: usize,
    /// Why the transfer was started.
    pub kind: TransferKind,
    /// When the transfer was requested.
    pub requested: SimTime,
    /// When the wire actually started moving bytes (≥ `requested`; later
    /// when either NIC was still busy with an earlier transfer).
    pub started: SimTime,
    /// When the last byte arrives at `dst`.
    pub finish: SimTime,
}

impl Transfer {
    /// How long the transfer waited for a free NIC before starting.
    pub fn nic_wait(&self) -> SimDuration {
        self.started.saturating_sub(self.requested)
    }
}

/// Aggregate transfer accounting, suitable for bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TransferStats {
    /// Completed transfers.
    pub transfers: u64,
    /// Total bytes moved by completed transfers.
    pub bytes: u64,
    /// Total prompt tokens covered by completed transfers.
    pub tokens: u64,
    /// Total time completed transfers spent queued behind busy NICs, ns.
    pub nic_wait_ns: u64,
    /// Total wire occupancy of completed transfers (start→finish), ns.
    pub wire_ns: u64,
}

/// Tracks in-flight transfers and serializes them on per-replica NIC budgets.
///
/// Each replica has one transmit and one receive NIC; a transfer occupies the
/// donor's TX NIC and the destination's RX NIC from its start until its
/// finish. A transfer requested while either NIC is busy starts when both are
/// free — concurrent transfers through the same replica serialize
/// deterministically in request order.
///
/// The plane computes finish times; the caller owns the event loop and is
/// expected to schedule a completion event at [`Transfer::finish`] and call
/// [`TransferPlane::complete`] when it fires.
#[derive(Debug, Clone)]
pub struct TransferPlane {
    link: LinkSpec,
    next_id: u64,
    tx_free: BTreeMap<usize, SimTime>,
    rx_free: BTreeMap<usize, SimTime>,
    in_flight: BTreeMap<u64, Transfer>,
    stats: TransferStats,
}

impl TransferPlane {
    /// A plane whose transfers all cross `link`, with all NICs idle.
    pub fn new(link: LinkSpec) -> Self {
        TransferPlane {
            link,
            next_id: 0,
            tx_free: BTreeMap::new(),
            rx_free: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            stats: TransferStats::default(),
        }
    }

    fn earliest_start(&self, now: SimTime, src: usize, dst: usize) -> SimTime {
        let tx = self.tx_free.get(&src).copied().unwrap_or(SimTime::ZERO);
        let rx = self.rx_free.get(&dst).copied().unwrap_or(SimTime::ZERO);
        now.max(tx).max(rx)
    }

    /// When a transfer of `bytes` from `src` to `dst` requested at `now`
    /// would finish, accounting for NIC queueing — without reserving
    /// anything. Used by the migrate-vs-recompute decision.
    pub fn estimate_finish(&self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        let start = self.earliest_start(now, src, dst);
        start + self.link.transfer_time(bytes)
    }

    /// Starts a transfer, reserving both NICs until its finish time, and
    /// returns the in-flight record (schedule its completion at `finish`).
    pub fn begin(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
        tokens: usize,
        kind: TransferKind,
    ) -> Transfer {
        let started = self.earliest_start(now, src, dst);
        let finish = started + self.link.transfer_time(bytes);
        let id = self.next_id;
        self.next_id += 1;
        let transfer = Transfer {
            id,
            src,
            dst,
            bytes,
            tokens,
            kind,
            requested: now,
            started,
            finish,
        };
        self.tx_free.insert(src, finish);
        self.rx_free.insert(dst, finish);
        self.in_flight.insert(id, transfer.clone());
        transfer
    }

    /// Marks transfer `id` complete, folds it into [`TransferPlane::stats`],
    /// and returns its record. Returns `None` for unknown ids.
    pub fn complete(&mut self, id: u64) -> Option<Transfer> {
        let transfer = self.in_flight.remove(&id)?;
        self.stats.transfers += 1;
        self.stats.bytes += transfer.bytes;
        self.stats.tokens += transfer.tokens as u64;
        self.stats.nic_wait_ns += transfer.nic_wait().as_ns();
        self.stats.wire_ns += transfer.finish.saturating_sub(transfer.started).as_ns();
        Some(transfer)
    }

    /// Number of transfers begun but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Accounting over completed transfers.
    pub fn stats(&self) -> &TransferStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_1gbs() -> TransferPlane {
        // 1 GB/s, zero latency: 1 byte per ns makes arithmetic readable.
        TransferPlane::new(LinkSpec::new(SimDuration::ZERO, 1e9))
    }

    #[test]
    fn transfers_on_disjoint_pairs_overlap() {
        let mut plane = plane_1gbs();
        let a = plane.begin(SimTime::ZERO, 0, 1, 1000, 64, TransferKind::PrefixMigration);
        let b = plane.begin(SimTime::ZERO, 2, 3, 1000, 64, TransferKind::PrefixMigration);
        assert_eq!(a.finish, SimTime::from_ns(1000));
        assert_eq!(b.finish, SimTime::from_ns(1000));
        assert_eq!(plane.in_flight(), 2);
    }

    #[test]
    fn shared_tx_nic_serializes_in_request_order() {
        let mut plane = plane_1gbs();
        let a = plane.begin(SimTime::ZERO, 0, 1, 1000, 64, TransferKind::PrefixMigration);
        let b = plane.begin(SimTime::ZERO, 0, 2, 500, 32, TransferKind::Prewarm);
        assert_eq!(a.started, SimTime::ZERO);
        assert_eq!(b.started, a.finish, "second transfer waits for the TX NIC");
        assert_eq!(b.finish, SimTime::from_ns(1500));
        assert_eq!(b.nic_wait(), SimDuration::from_ns(1000));
    }

    #[test]
    fn shared_rx_nic_serializes_too() {
        let mut plane = plane_1gbs();
        let a = plane.begin(SimTime::ZERO, 0, 3, 1000, 64, TransferKind::DisaggHandoff);
        let b = plane.begin(SimTime::ZERO, 1, 3, 1000, 64, TransferKind::DisaggHandoff);
        assert_eq!(b.started, a.finish, "destination RX NIC is shared");
    }

    #[test]
    fn estimate_matches_begin_and_reserves_nothing() {
        let mut plane = plane_1gbs();
        plane.begin(SimTime::ZERO, 0, 1, 1000, 64, TransferKind::PrefixMigration);
        let est = plane.estimate_finish(SimTime::ZERO, 0, 2, 500);
        let actual = plane.begin(SimTime::ZERO, 0, 2, 500, 32, TransferKind::Prewarm);
        assert_eq!(est, actual.finish);
    }

    #[test]
    fn complete_accumulates_stats() {
        let mut plane = plane_1gbs();
        let a = plane.begin(SimTime::ZERO, 0, 1, 1000, 64, TransferKind::PrefixMigration);
        let b = plane.begin(SimTime::ZERO, 0, 2, 500, 32, TransferKind::Prewarm);
        plane.complete(a.id);
        plane.complete(b.id);
        assert_eq!(plane.in_flight(), 0);
        let s = *plane.stats();
        assert_eq!(s.transfers, 2);
        assert_eq!(s.bytes, 1500);
        assert_eq!(s.tokens, 96);
        assert_eq!(s.nic_wait_ns, 1000);
        assert_eq!(s.wire_ns, 1500);
        assert_eq!(plane.complete(999), None);
    }

    #[test]
    fn instant_link_finishes_at_request_time() {
        let mut plane = TransferPlane::new(LinkSpec::instant());
        let t = plane.begin(
            SimTime::from_ns(77),
            0,
            1,
            u64::MAX,
            1 << 20,
            TransferKind::PrefixMigration,
        );
        assert_eq!(t.finish, SimTime::from_ns(77));
        let u = plane.begin(SimTime::from_ns(77), 0, 1, 12, 3, TransferKind::Prewarm);
        assert_eq!(u.finish, SimTime::from_ns(77), "instant link never queues");
    }
}
