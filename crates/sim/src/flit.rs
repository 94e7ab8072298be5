//! Flits — the flow-control units of wormhole switching.

use std::fmt;

/// Identifier of a message within one simulation run.
///
/// The identifier packs a **slot index** (low 32 bits) and a **generation
/// tag** (high 32 bits). The slot indexes the simulator's message table
/// ([`crate::message::MessageSlab`]); the generation distinguishes successive
/// messages that reuse the same reclaimed slot, so a stale identifier can
/// never silently alias a newer message. Identifiers produced by an
/// append-only table (generation 0) are plain sequential integers, which
/// keeps `MessageId(n)` literals in tests meaningful.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId(pub u64);

impl MessageId {
    const SLOT_BITS: u32 = 32;
    const SLOT_MASK: u64 = (1 << Self::SLOT_BITS) - 1;

    /// Builds an identifier from a table slot index and a generation tag.
    #[inline]
    pub(crate) fn from_parts(slot: u32, generation: u32) -> Self {
        MessageId(((generation as u64) << Self::SLOT_BITS) | slot as u64)
    }

    /// The message-table slot this identifier points at.
    #[inline]
    pub fn slot(self) -> usize {
        (self.0 & Self::SLOT_MASK) as usize
    }

    /// The generation tag of the slot at the time the message was created.
    #[inline]
    pub fn generation(self) -> u32 {
        (self.0 >> Self::SLOT_BITS) as u32
    }
}

impl fmt::Debug for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.generation() == 0 {
            write!(f, "m{}", self.slot())
        } else {
            write!(f, "m{}g{}", self.slot(), self.generation())
        }
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Kind of a flit within its message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlitKind {
    /// Header flit: carries the routing information and allocates channels.
    Head,
    /// Data (body) flit.
    Body,
    /// Tail flit: releases the channels the message holds as it passes.
    Tail,
    /// A single-flit message is simultaneously head and tail.
    HeadTail,
}

impl FlitKind {
    /// True for flits that carry the header (and therefore trigger routing).
    #[inline]
    pub(crate) fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for flits that terminate the message (and release resources).
    #[inline]
    pub(crate) fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit travelling through the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit {
    /// The message this flit belongs to.
    pub msg: MessageId,
    /// Position of the flit within its message (0 = header).
    pub seq: u32,
    /// Kind of the flit.
    pub kind: FlitKind,
}

impl Flit {
    /// Builds the `seq`-th flit of a message of `length` flits.
    #[cfg(test)]
    pub(crate) fn nth_of(msg: MessageId, seq: u32, length: u32) -> Self {
        debug_assert!(length >= 1 && seq < length);
        let kind = match (seq, length) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (s, l) if s + 1 == l => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Flit { msg, seq, kind }
    }
}

/// The flits an input virtual channel holds: consecutive flits of one worm,
/// front first. Fixed-size and heap-free — a message id, the front flit's
/// sequence number, the flit count and whether the worm's tail is among them.
///
/// The kinds are derived, not stored: the front flit is a head iff its
/// sequence number is 0, and a tail iff it is the last flit held and the tail
/// has arrived. That a buffer only ever holds one worm's run is an engine
/// invariant (see [`crate::router`]); [`WormRun::push`] debug-asserts it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WormRun {
    msg: MessageId,
    front: u32,
    len: u32,
    tail_in: bool,
}

impl Default for WormRun {
    fn default() -> Self {
        WormRun {
            msg: MessageId(0),
            front: 0,
            len: 0,
            tail_in: false,
        }
    }
}

impl From<Flit> for WormRun {
    /// The run holding `flit` alone.
    #[inline]
    fn from(flit: Flit) -> Self {
        WormRun {
            msg: flit.msg,
            front: flit.seq,
            len: 1,
            tail_in: flit.kind.is_tail(),
        }
    }
}

impl WormRun {
    /// Every flit of a message of `length` flits, header first (a length of
    /// 0 counts as 1).
    pub fn whole(msg: MessageId, length: u32) -> Self {
        WormRun {
            msg,
            front: 0,
            len: length.max(1),
            tail_in: true,
        }
    }

    /// Number of flits held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no flit is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The message the held flits belong to, or `None` when empty.
    #[inline]
    pub fn msg(&self) -> Option<MessageId> {
        (self.len > 0).then_some(self.msg)
    }

    /// The front flit, or `None` when empty.
    #[inline]
    pub fn front(&self) -> Option<Flit> {
        (self.len > 0).then(|| self.flit(self.front))
    }

    /// The held flits, front first.
    pub fn iter(&self) -> impl Iterator<Item = Flit> {
        let run = *self;
        (run.front..run.front + run.len).map(move |seq| run.flit(seq))
    }

    /// Appends the flits of `run`, which must continue this one: the same
    /// worm, the next sequence number, and no flit after the tail.
    #[inline]
    pub fn extend(&mut self, run: WormRun) {
        if self.len == 0 {
            *self = run;
            return;
        }
        debug_assert!(
            run.len == 0
                || (run.msg == self.msg && run.front == self.front + self.len && !self.tail_in),
            "flits {run:?} do not continue the buffered run {self:?}"
        );
        self.len += run.len;
        self.tail_in |= run.tail_in;
    }

    /// Appends `flit`, which must continue the run.
    #[inline]
    pub fn push(&mut self, flit: Flit) {
        self.extend(flit.into());
    }

    /// Takes the front flit.
    #[inline]
    pub fn pop(&mut self) -> Option<Flit> {
        let flit = self.front()?;
        self.front += 1;
        self.len -= 1;
        Some(flit)
    }

    /// Drops every flit.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The held flit with sequence number `seq`.
    #[inline]
    fn flit(&self, seq: u32) -> Flit {
        let is_tail = self.tail_in && seq + 1 == self.front + self.len;
        let kind = match (seq == 0, is_tail) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        };
        Flit {
            msg: self.msg,
            seq,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flit of a worm of `length` flits, header first.
    fn all_of(msg: MessageId, length: u32) -> Vec<Flit> {
        WormRun::whole(msg, length).iter().collect()
    }

    #[test]
    fn flit_kinds_by_position() {
        let flits = all_of(MessageId(3), 4);
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits[0].kind.is_head());
        assert!(!flits[0].kind.is_tail());
        assert!(flits[3].kind.is_tail());
        assert!(flits.iter().all(|f| f.msg == MessageId(3)));
        assert_eq!(flits[2].seq, 2);
    }

    #[test]
    fn single_flit_message_is_head_and_tail() {
        let flits = all_of(MessageId(0), 1);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn zero_length_clamps_to_one() {
        assert_eq!(all_of(MessageId(0), 0), all_of(MessageId(0), 1));
    }

    #[test]
    fn two_flit_message() {
        let flits = all_of(MessageId(7), 2);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn worm_runs_derive_the_kinds_nth_of_assigns() {
        for length in [1u32, 2, 32] {
            let msg = MessageId(4);
            let expected: Vec<Flit> = (0..length).map(|s| Flit::nth_of(msg, s, length)).collect();
            // Whole-worm injection, read front first and popped to empty.
            let mut run = WormRun::whole(msg, length);
            assert_eq!(run.len(), length as usize);
            assert_eq!(run.msg(), Some(msg));
            assert_eq!(run.iter().collect::<Vec<_>>(), expected);
            let mut popped = Vec::new();
            while let Some(front) = run.front() {
                assert_eq!(run.pop(), Some(front));
                popped.push(front);
                // What is left still yields consecutive sequence numbers.
                let seqs: Vec<u32> = run.iter().map(|f| f.seq).collect();
                assert_eq!(seqs, (front.seq + 1..length).collect::<Vec<_>>());
            }
            assert_eq!(popped, expected);
            assert!(run.is_empty() && run.msg().is_none() && run.pop().is_none());
            // Flit by flit, as a link delivers them, the front kind follows
            // what has arrived: a head or body flit is a tail only once the
            // tail is behind nothing.
            let mut run = WormRun::default();
            for (i, &flit) in expected.iter().enumerate() {
                run.push(flit);
                assert_eq!(run.front(), Some(expected[0]), "{length} flits, {i} pushed");
                assert_eq!(run.iter().last(), Some(flit));
            }
            assert_eq!(run, WormRun::whole(msg, length));
            // The emptied run takes the next worm.
            run.clear();
            let next = Flit::nth_of(MessageId(5), 0, 3);
            run.push(next);
            assert_eq!(run.front(), Some(next));
            assert_eq!(run.front().unwrap().kind, FlitKind::Head);
        }
        // A run whose tail has not arrived never shows a tail.
        let mut run = WormRun::from(Flit::nth_of(MessageId(6), 1, 32));
        run.push(Flit::nth_of(MessageId(6), 2, 32));
        assert_eq!(run.front().unwrap().kind, FlitKind::Body);
        run.pop();
        assert_eq!(run.front().unwrap().kind, FlitKind::Body);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "do not continue the buffered run")]
    fn pushing_a_flit_that_does_not_continue_the_run_panics() {
        let mut run = WormRun::whole(MessageId(1), 4);
        run.pop();
        run.push(Flit::nth_of(MessageId(2), 0, 4));
    }

    #[test]
    fn message_id_display() {
        assert_eq!(format!("{}", MessageId(12)), "12");
        assert_eq!(format!("{:?}", MessageId(12)), "m12");
        assert_eq!(MessageId(5).slot(), 5);
        assert_eq!(MessageId(5).generation(), 0);
    }

    #[test]
    fn message_id_packs_slot_and_generation() {
        let id = MessageId::from_parts(7, 3);
        assert_eq!(id.slot(), 7);
        assert_eq!(id.generation(), 3);
        assert_eq!(format!("{id:?}"), "m7g3");
        assert_ne!(
            id,
            MessageId::from_parts(7, 2),
            "generations disambiguate reuse"
        );
        assert_eq!(
            MessageId::from_parts(9, 0),
            MessageId(9),
            "generation 0 is the plain index"
        );
        let max = MessageId::from_parts(u32::MAX, u32::MAX);
        assert_eq!(max.slot(), u32::MAX as usize);
        assert_eq!(max.generation(), u32::MAX);
    }
}
