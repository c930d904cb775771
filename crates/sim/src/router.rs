//! Round-delivery types shared by the executors.
//!
//! The round core enforces lock-step synchrony under every executor (see
//! [`Runner`](crate::Runner)); this module holds the vocabulary it uses:
//! party identifiers, the [`Received`] envelope a delivery produces, the
//! per-round [`RoundProfile`], and the deterministic [`Inbox`] every
//! machine reads at a round boundary. A message sent in round `r` is visible exactly at
//! round `r + 1`, sorted by `(sender, send order)`.

use std::sync::Arc;

/// A party identifier, 1-based to match the paper's `P_1 … P_n`.
pub type PartyId = usize;

/// A message as delivered to a recipient.
///
/// The payload is shared: every copy of one `send_to_all` or broadcast
/// points at a single allocation (the cost model still charges each copy,
/// see [`Outbox`](crate::Outbox)). Because copies cross worker threads
/// under [`ParRunner`](crate::ParRunner), a wire type run there must be
/// `Send + Sync`; plain data always is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received<M> {
    /// The sending party.
    pub from: PartyId,
    /// Whether it arrived via the ideal broadcast channel (§3 model) as
    /// opposed to a private point-to-point channel.
    pub broadcast: bool,
    /// Send-order sequence number within the sender's round (used for
    /// deterministic inbox ordering).
    pub seq: u32,
    /// The payload, shared with every other copy of the same send.
    pub msg: Arc<M>,
}

/// Per-round delivery statistics, recorded at each round flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundProfile {
    /// Messages delivered at this round boundary (unicast copies and
    /// broadcast copies each count once per recipient here — this is the
    /// delivery view, not the cost model's send view).
    pub deliveries: usize,
    /// Parties still live when the round completed.
    pub live_parties: usize,
}

/// The messages a party receives at the start of a round, sorted by
/// (sender, send order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inbox<M> {
    msgs: Vec<Received<M>>,
}

impl<M> Inbox<M> {
    /// An inbox with nothing in it (what a machine's first round sees).
    pub fn empty() -> Self {
        Inbox { msgs: Vec::new() }
    }

    /// Build an inbox from a batch of deliveries, establishing the
    /// canonical `(from, seq)` order. This is the one place that order is
    /// established: the round flip builds every delivered inbox through
    /// it, and so do adapters that narrow or translate another inbox
    /// (committee subnets, multiplexed sub-protocols).
    pub fn from_messages(mut msgs: Vec<Received<M>>) -> Self {
        msgs.sort_by_key(|r| (r.from, r.seq));
        Inbox { msgs }
    }

    /// All messages, in deterministic order.
    pub fn iter(&self) -> std::slice::Iter<'_, Received<M>> {
        self.msgs.iter()
    }

    /// Number of messages delivered.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Messages from one particular sender.
    pub fn from(&self, sender: PartyId) -> impl Iterator<Item = &Received<M>> {
        self.msgs.iter().filter(move |r| r.from == sender)
    }

    /// The first (and usually only) message from `sender`, if any.
    pub fn first_from(&self, sender: PartyId) -> Option<&Received<M>> {
        self.msgs.iter().find(|r| r.from == sender)
    }

    /// Only the messages that arrived over the ideal broadcast channel.
    pub fn broadcasts(&self) -> impl Iterator<Item = &Received<M>> {
        self.msgs.iter().filter(|r| r.broadcast)
    }

    /// Consume the inbox into its message vector.
    pub fn into_vec(self) -> Vec<Received<M>> {
        self.msgs
    }
}

impl<'a, M> IntoIterator for &'a Inbox<M> {
    type Item = &'a Received<M>;
    type IntoIter = std::slice::Iter<'a, Received<M>>;
    fn into_iter(self) -> Self::IntoIter {
        self.msgs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_ordering_is_deterministic() {
        let inbox = Inbox::from_messages(vec![
            Received { from: 2, broadcast: false, seq: 1, msg: Arc::new(20) },
            Received { from: 1, broadcast: false, seq: 0, msg: Arc::new(10) },
            Received { from: 2, broadcast: false, seq: 0, msg: Arc::new(19) },
        ]);
        let vals: Vec<u32> = inbox.iter().map(|r| *r.msg).collect();
        assert_eq!(vals, vec![10, 19, 20]);
        assert_eq!(*inbox.first_from(2).unwrap().msg, 19);
        assert_eq!(inbox.from(2).count(), 2);
    }

    #[test]
    fn broadcast_flag_preserved() {
        let inbox = Inbox::from_messages(vec![
            Received { from: 1, broadcast: true, seq: 0, msg: Arc::new(1) },
            Received { from: 1, broadcast: false, seq: 1, msg: Arc::new(2) },
        ]);
        assert_eq!(inbox.broadcasts().count(), 1);
        assert_eq!(inbox.len(), 2);
    }

    #[test]
    fn empty_inbox_shape() {
        let inbox = Inbox::<u8>::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
        assert!(inbox.first_from(1).is_none());
    }
}
