//! The run fingerprint ([`crate::Sim::set_fingerprint`]): one digest folded
//! over every executed event in order, so each event's fold covers all the
//! events before it (linked timestamping, turned on the simulator). The
//! hash is FNV-1a 64 over little-endian fields, written out here because
//! `std`'s `DefaultHasher` may change between Rust releases and a locked
//! fingerprint must not.

/// Encodes a message's bytes for the fingerprint (typically the wire
/// codec's `encode`).
pub type MsgEncoder<M> = Box<dyn Fn(&M, &mut Vec<u8>)>;

/// What an executed event was; the first field of its fold. The
/// discriminants are written out because `kind as u64` is hashed: a
/// renumbering would move every locked fingerprint that holds the event.
#[derive(Clone, Copy)]
pub(crate) enum Event {
    Delivered = 0,
    ToDead = 1,
    TimerFired = 2,
    /// A timer of a node that is down, or of an earlier incarnation.
    TimerStale = 4,
    Crash = 5,
    Restart = 6,
    Departure = 7,
    FaultCut = 8,
    FaultDrop = 9,
    /// Extra delay or a duplicate. A verdict that leaves the message as it
    /// was folds nothing, so an inert fault plan reads as no plan.
    FaultDelay = 10,
}

/// The running digest and the encoder that feeds it message bytes.
pub(crate) struct Fingerprint<M> {
    encode: MsgEncoder<M>,
    hash: u64,
    /// Reused encoding buffer.
    buf: Vec<u8>,
}

impl<M> Fingerprint<M> {
    pub(crate) fn new(encode: MsgEncoder<M>) -> Self {
        let hash = 0xcbf2_9ce4_8422_2325; // the FNV-1a 64 offset basis
        Fingerprint {
            encode,
            hash,
            buf: Vec::new(),
        }
    }

    pub(crate) fn value(&self) -> u64 {
        self.hash
    }

    /// Fold one event: its kind, the time in microseconds, then `fields`.
    pub(crate) fn event(&mut self, kind: Event, micros: u64, fields: &[u64]) {
        for f in [kind as u64, micros].iter().chain(fields) {
            self.hash = fnv1a(self.hash, &f.to_le_bytes());
        }
    }

    /// [`Fingerprint::event`], then `msg`'s encoded length and bytes.
    pub(crate) fn message(&mut self, kind: Event, micros: u64, fields: &[u64], msg: &M) {
        self.buf.clear();
        (self.encode)(msg, &mut self.buf);
        self.event(kind, micros, fields);
        self.hash = fnv1a(self.hash, &(self.buf.len() as u64).to_le_bytes());
        self.hash = fnv1a(self.hash, &self.buf);
    }
}

/// FNV-1a 64 over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::Event;

    /// Each kind's number is part of every locked fingerprint that holds
    /// it (3 was timer cancellation, removed). The match is exhaustive, so
    /// a new kind does not compile until it is pinned here too.
    #[test]
    fn event_discriminants_are_pinned() {
        let pinned = |kind| match kind {
            Event::Delivered => 0,
            Event::ToDead => 1,
            Event::TimerFired => 2,
            Event::TimerStale => 4,
            Event::Crash => 5,
            Event::Restart => 6,
            Event::Departure => 7,
            Event::FaultCut => 8,
            Event::FaultDrop => 9,
            Event::FaultDelay => 10,
        };
        let kinds = [
            ("Delivered", Event::Delivered),
            ("ToDead", Event::ToDead),
            ("TimerFired", Event::TimerFired),
            ("TimerStale", Event::TimerStale),
            ("Crash", Event::Crash),
            ("Restart", Event::Restart),
            ("Departure", Event::Departure),
            ("FaultCut", Event::FaultCut),
            ("FaultDrop", Event::FaultDrop),
            ("FaultDelay", Event::FaultDelay),
        ];
        for (name, kind) in kinds {
            assert_eq!(kind as u64, pinned(kind), "Event::{name} was renumbered");
        }
    }

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let offset = 0xcbf2_9ce4_8422_2325;
        assert_eq!(super::fnv1a(offset, b""), offset);
        assert_eq!(super::fnv1a(offset, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(offset, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
