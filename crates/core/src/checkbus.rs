//! The shared fingerprint check bus.
//!
//! The paper's CMP gives every vocal/mute pair a private comparison channel:
//! fingerprints cross in a fixed one-way latency — the cores'
//! [`check_latency`](reunion_cpu::Core::check_latency) — and never contend.
//! That is faithful at 2–4 pairs, but the many-core scaling study asks what
//! happens when 8 or 16 pairs funnel their fingerprint traffic — two
//! messages per compared interval, plus a return grant for serializing
//! instructions — over one shared interconnect.
//!
//! [`CheckBus`] models that interconnect as a single pipelined channel with
//! a per-message *occupancy* (reciprocal bandwidth: the number of bus
//! cycles each message holds the channel). Propagation time stays in the
//! check latency; the bus only adds queueing delay, which is zero until two
//! messages want the same bus cycles.
//!
//! Every pair sends every message through [`CheckBus::grant`]. At occupancy
//! `0` it returns its argument and mutates nothing, restoring the paper's
//! private channels exactly — that is what keeps every paper-scale
//! artifact byte-identical.
//!
//! Determinism: the bus is only touched from [`PairDriver::tick`], pairs
//! tick in logical-processor order, and comparisons happen on the same
//! ticked cycles under the dense and skip engines, so grant order — and
//! therefore every timestamp — is engine- and thread-count-invariant.
//!
//! [`PairDriver::tick`]: crate::PairDriver::tick

use reunion_kernel::Cycle;

/// A shared, pipelined check-message channel with bounded bandwidth.
///
/// Owned by the CMP; every pair's comparator requests transmission slots
/// through [`grant`](Self::grant).
#[derive(Clone, Debug)]
pub struct CheckBus {
    /// Bus cycles each message occupies the channel; `0` = unmodeled
    /// (private per-pair channels, the paper's model).
    occupancy: u64,
    /// Cycle the channel next becomes free.
    free_at: u64,
    /// Total cycles messages waited behind the channel (contention only;
    /// zero at occupancy `0` or without contention).
    wait_cycles: u64,
    /// Messages granted a slot.
    messages: u64,
}

impl CheckBus {
    /// A bus with the given per-message occupancy (`0` = unmodeled).
    pub fn new(occupancy: u64) -> Self {
        CheckBus {
            occupancy,
            free_at: 0,
            wait_cycles: 0,
            messages: 0,
        }
    }

    /// Grants a transmission slot to a message that is ready to depart at
    /// `ready_at`, returning its departure cycle. With occupancy `0` this
    /// is the identity and records nothing.
    pub fn grant(&mut self, ready_at: Cycle) -> Cycle {
        if self.occupancy == 0 {
            return ready_at;
        }
        let depart = self.free_at.max(ready_at.as_u64());
        self.wait_cycles += depart - ready_at.as_u64();
        self.free_at = depart + self.occupancy;
        self.messages += 1;
        Cycle::new(depart)
    }

    /// Total cycles messages spent queued behind the shared channel over
    /// the whole run: [`begin_window`](crate::CmpSystem::begin_window)
    /// does not reset it.
    pub fn wait_cycles(&self) -> u64 {
        self.wait_cycles
    }

    /// Total messages granted slots over the whole run (not reset between
    /// windows either; `0` at occupancy `0`).
    pub fn messages(&self) -> u64 {
        self.messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmodeled_bus_is_the_identity() {
        let mut bus = CheckBus::new(0);
        for t in [0u64, 5, 3, 100, 7] {
            assert_eq!(bus.grant(Cycle::new(t)), Cycle::new(t));
        }
        assert_eq!(bus.wait_cycles(), 0);
        assert_eq!(bus.messages(), 0);
    }

    #[test]
    fn contended_messages_queue_in_grant_order() {
        let mut bus = CheckBus::new(2);
        assert_eq!(bus.grant(Cycle::new(10)), Cycle::new(10));
        // Same-ready message waits for the channel.
        assert_eq!(bus.grant(Cycle::new(10)), Cycle::new(12));
        assert_eq!(bus.grant(Cycle::new(10)), Cycle::new(14));
        // A late arrival after the queue drains departs immediately.
        assert_eq!(bus.grant(Cycle::new(50)), Cycle::new(50));
        assert_eq!(bus.wait_cycles(), 2 + 4);
        assert_eq!(bus.messages(), 4);
    }
}
