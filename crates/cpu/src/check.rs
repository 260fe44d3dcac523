//! The check-stage interface between a core and its pairing logic.

use reunion_fingerprint::Fingerprint;
use reunion_isa::{Addr, AtomicOp};
use reunion_kernel::Cycle;

/// A fingerprint emitted by a core's check stage at an interval boundary.
///
/// The pair driver collects events from both cores, compares the two
/// fingerprints for equality (interval id, instruction count and hash),
/// and answers with a [`ReleaseGrant`] on a match or begins recovery on a
/// mismatch.
///
/// No message outlives a rollback, so neither carries a stamp to tell a
/// stale one apart: [`Core::rollback`](crate::Core::rollback) clears the
/// core's unsent events and its grants, the pair driver rolls both cores
/// back in the same call that clears both comparison queues, and a grant
/// is issued only in the tick its two events matched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckEvent {
    /// The interval fingerprint (id, instruction count, hash).
    pub fingerprint: Fingerprint,
    /// Cycle at which this core's fingerprint is ready to send — the
    /// in-order check time of the interval's last instruction.
    pub ready_at: Cycle,
    /// Whether the interval ends in a serializing instruction. Such an
    /// interval drains the pipeline and, in Reunion, stalls retirement for
    /// the full check round trip.
    pub serializing: bool,
}

/// Permission from the pair driver for an interval to retire — the answer
/// to a matched pair of [`CheckEvent`]s. An interval is granted at most
/// once between two rollbacks; grants may arrive in any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReleaseGrant {
    /// The interval fingerprint id being released.
    pub interval_id: u64,
    /// Cycle at which the partner's fingerprint has arrived and compared:
    /// `max(own_ready, partner_sent + check_latency)` for the receiving
    /// core, `partner_sent` being the partner's check-bus departure.
    /// Serializing intervals also wait out the grant's return trip
    /// ([`CoreConfig::check_latency`](crate::CoreConfig::check_latency)).
    pub at: Cycle,
}

/// A synchronizing-request demand raised by a core in single-step
/// re-execution mode when it reaches the first load or atomic (Definition
/// 11). The driver waits for both halves, performs one coherent
/// [`sync_access`](reunion_mem::MemorySystem::sync_access), and fulfills
/// both cores with the same value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncRequest {
    /// Word-aligned effective address of the memory operation.
    pub addr: Addr,
    /// Read-modify-write semantics, if the instruction is an atomic.
    pub rmw: Option<(AtomicOp, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_and_grant_round_trip() {
        let fp = Fingerprint {
            interval_id: 4,
            count: 1,
            hash: 0x1234,
        };
        let ev = CheckEvent {
            fingerprint: fp,
            ready_at: Cycle::new(10),
            serializing: false,
        };
        let grant = ReleaseGrant {
            interval_id: ev.fingerprint.interval_id,
            at: Cycle::new(20),
        };
        assert_eq!(grant.interval_id, 4);
        assert!(grant.at > ev.ready_at);
    }

    #[test]
    fn sync_request_carries_rmw() {
        let req = SyncRequest {
            addr: Addr::new(0x40),
            rmw: Some((AtomicOp::Swap, 1)),
        };
        assert!(req.rmw.is_some());
    }
}
