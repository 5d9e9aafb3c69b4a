//! The two modes of the chip engine's timing loop, selected by
//! [`BackendKind`] and passed to [`crate::gpu::Gpu::run`].
//!
//! * **Event** — SMs advance to their *next event* (warp wakeup, reply
//!   delivery, dispatch boundary), skipping provably idle cycles in bulk;
//!   idle SMs park and an idle chip sleeps through whole epoch boundaries.
//! * **Epoch** — the same loop with every SM stepping every cycle: nothing
//!   is skipped, parked or slept through. It is the reference the event
//!   mode's skips are tested against, and it produces bit-identical results.

use serde::{Deserialize, Serialize};

/// Which mode of the timing loop advances the chip. Serialises as the
/// lowercase label also used on the command line (`epoch` / `event`).
///
/// `Event` is the default: it is bit-identical to stepping every cycle and
/// much faster on memory-bound workloads. `Epoch` stays selectable
/// (`--backend epoch`) as the per-cycle reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// Every SM steps every cycle — the bit-exact reference.
    Epoch,
    /// Next-event advancement with idle-cycle skipping.
    #[default]
    Event,
}

impl BackendKind {
    /// Every selectable mode, in preference order for sweeps.
    pub const ALL: [BackendKind; 2] = [BackendKind::Epoch, BackendKind::Event];

    /// The stable lowercase label (`"epoch"` / `"event"`) used in CLI flags
    /// and recorded in [`crate::SimResult::backend`].
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Epoch => "epoch",
            BackendKind::Event => "event",
        }
    }

    /// Parses a [`BackendKind::label`] back into the kind.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "epoch" => Some(BackendKind::Epoch),
            "event" => Some(BackendKind::Event),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_label(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(BackendKind::from_label("cycle"), None);
    }

    #[test]
    fn event_is_the_default() {
        assert_eq!(BackendKind::default(), BackendKind::Event);
    }
}
