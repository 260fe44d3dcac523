//! The *event horizon* of a time-skipping engine.

use crate::Cycle;

/// Accumulates "earliest cycle anything can happen" candidates from the
/// components of a simulated system.
///
/// A time-skipping engine asks every component for the earliest future
/// cycle at which it could make forward progress (retire, dispatch, deliver
/// a message, fire a timeout, …), folds the answers into an `EventHorizon`,
/// and fast-forwards simulated time to [`next_ready`](Self::next_ready)
/// instead of ticking through the intervening quiescent cycles.
///
/// Two rules make the fold safe for byte-identical dense↔skip execution:
///
/// * **Candidates are lower bounds.** A component may report a cycle at
///   which nothing happens after all (the engine just ticks a no-op), but
///   it must never report a cycle *later* than its first state change.
/// * **`None` means "never (without external input)".** A component with no
///   self-generated future activity stays silent; if every component is
///   silent the engine may fast-forward to the end of its budget.
///
/// # Examples
///
/// ```
/// use reunion_kernel::{Cycle, EventHorizon};
///
/// let mut h = EventHorizon::new();
/// h.note(Cycle::new(40));       // a memory reply
/// h.note_opt(None);             // an idle component
/// h.note_opt(Some(Cycle::new(25))); // a check-stage release
/// assert_eq!(h.next_ready(), Some(Cycle::new(25)));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventHorizon {
    earliest: Option<Cycle>,
}

impl EventHorizon {
    /// An empty horizon (no candidates yet).
    pub fn new() -> Self {
        EventHorizon::default()
    }

    /// Notes a candidate activity cycle, keeping the earliest seen.
    pub fn note(&mut self, at: Cycle) {
        self.earliest = Some(match self.earliest {
            Some(t) if t <= at => t,
            _ => at,
        });
    }

    /// Notes an optional candidate; `None` (no self-activity) is ignored.
    pub fn note_opt(&mut self, at: Option<Cycle>) {
        if let Some(at) = at {
            self.note(at);
        }
    }

    /// The earliest noted candidate, or `None` if every component was
    /// silent.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.earliest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_the_minimum() {
        let mut h = EventHorizon::new();
        assert_eq!(h.next_ready(), None);
        h.note(Cycle::new(30));
        h.note(Cycle::new(10));
        h.note(Cycle::new(20));
        assert_eq!(h.next_ready(), Some(Cycle::new(10)));
    }

    #[test]
    fn none_candidates_are_silent() {
        let mut h = EventHorizon::new();
        h.note_opt(None);
        assert_eq!(h.next_ready(), None);
        h.note_opt(Some(Cycle::new(7)));
        h.note_opt(None);
        assert_eq!(h.next_ready(), Some(Cycle::new(7)));
    }
}
