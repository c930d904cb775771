//! Grade-Cast (Feldman–Micali [14]).
//!
//! "Grade-Cast is the three level-outcome primitive … [the sender sends]
//! his/her value to the rest of the players. In the next round everybody
//! echoes, and this is followed by another round of echos. Each player
//! outputs a value ν … and a confidence value conf ∈ {0, 1, 2} … A
//! confidence of 2 indicates that all other honest players have seen the
//! value ν." (§4 of the paper.)
//!
//! Guarantees for `n ≥ 3t + 1`:
//!
//! 1. **Honest sender** ⇒ every honest party outputs the sender's value
//!    with confidence 2.
//! 2. **Soft agreement** — if any honest party outputs confidence 2 for
//!    `v`, every honest party outputs `v` with confidence ≥ 1.
//! 3. **No two honest parties output confidence ≥ 1 for different
//!    values.**
//!
//! All `n` instances (one per sender) run in parallel in three rounds —
//! exactly how Coin-Gen step 7 uses them.

use std::marker::PhantomData;

use dprbg_metrics::WireSize;
use dprbg_sim::{Embeds, Inbox, PartyId, RoundMachine, RoundView, Step};

/// Wire messages of the parallel grade-cast instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcMsg<V> {
    /// Round 1: instance sender's value.
    Value(V),
    /// Round 2: echo of what was received from `instance`'s sender.
    Echo {
        /// The instance (sender id) being echoed.
        instance: PartyId,
        /// The echoed value.
        value: V,
    },
    /// Round 3: vote that ≥ n−t echoes supported `value` in `instance`.
    Vote {
        /// The instance (sender id) being voted on.
        instance: PartyId,
        /// The supported value.
        value: V,
    },
}

impl<V: WireSize> WireSize for GcMsg<V> {
    fn wire_bytes(&self) -> usize {
        match self {
            GcMsg::Value(v) => v.wire_bytes(),
            // Instance tags are log n bits; charge one byte.
            GcMsg::Echo { value, .. } | GcMsg::Vote { value, .. } => 1 + value.wire_bytes(),
        }
    }
}

/// One party's output for one grade-cast instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradeOutput<V> {
    /// The received value, if any support materialized.
    pub value: Option<V>,
    /// Confidence ∈ {0, 1, 2}.
    pub confidence: u8,
}

impl<V> GradeOutput<V> {
    fn none() -> Self {
        GradeOutput { value: None, confidence: 0 }
    }
}

/// Count, among `(party, value)` pairs borrowed from the inbox, the
/// support for each distinct value, counting at most one entry per party;
/// return the best value with its count.
///
/// Values are compared by address first: the copies of one `send_to_all`
/// share an allocation, so they match without a deep comparison, while
/// distinct allocations (equivocations included) still fall back to `==`.
/// Ties go to the value first seen last, as `max_by_key` breaks them.
fn best_supported<'a, V: Eq>(entries: &[(PartyId, &'a V)]) -> Option<(&'a V, usize)> {
    let mut tally: Vec<(&'a V, usize)> = Vec::new();
    let mut seen: Vec<PartyId> = Vec::new();
    for &(p, v) in entries {
        if seen.contains(&p) {
            continue; // a party only gets one voice per instance
        }
        seen.push(p);
        match tally.iter_mut().find(|(tv, _)| std::ptr::eq(*tv, v) || *tv == v) {
            Some((_, c)) => *c += 1,
            None => tally.push((v, 1)),
        }
    }
    tally.into_iter().max_by_key(|(_, c)| *c)
}

/// The inbox's `(sender, value)` pairs of one message kind, grouped by
/// instance (index `j − 1` is instance `j`), each value borrowed from its
/// delivered copy. `pick` selects the kind and reads its instance tag;
/// out-of-range tags (Byzantine garbage) are dropped.
fn by_instance<'a, M, V>(
    inbox: &'a Inbox<M>,
    n: usize,
    pick: impl Fn(&'a GcMsg<V>) -> Option<(PartyId, &'a V)>,
) -> Vec<Vec<(PartyId, &'a V)>>
where
    M: Embeds<GcMsg<V>>,
{
    let mut groups = vec![Vec::new(); n];
    for r in inbox {
        if let Some((instance, value)) = <M as Embeds<GcMsg<V>>>::peek(&r.msg).and_then(&pick) {
            if (1..=n).contains(&instance) {
                groups[instance - 1].push((r.from, value));
            }
        }
    }
    groups
}

/// The `n` parallel grade-cast instances as a sans-IO round machine —
/// party `j` is the sender of instance `j`; the output is this party's
/// `n` [`GradeOutput`]s (index `j − 1` is instance `j`).
///
/// Each round call consumes the previous round's inbox and emits the next
/// round's sends, so no cross-round message storage is needed beyond the
/// phase tag. Exactly 3 rounds (`Continue`s); the `Done` call only tallies
/// votes. Requires `n ≥ 3t + 1` for the guarantees above; the threshold
/// `t` is `⌊(n − 1) / 3⌋`.
pub struct GradecastMachine<M, V> {
    my_value: Option<V>,
    phase: GcPhase,
    _wire: PhantomData<fn() -> M>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GcPhase {
    /// Round 1: senders distribute values.
    Send,
    /// Round 2: echo what each instance's sender said.
    Echo,
    /// Round 3: vote for values with ≥ n − t echo support.
    Vote,
    /// Tally votes into grades.
    Decide,
}

impl<M, V> GradecastMachine<M, V> {
    /// A machine grade-casting `my_value` in this party's own instance
    /// (`None` = originate nothing; the party still echoes and votes for
    /// the other instances).
    pub fn new(my_value: impl Into<Option<V>>) -> Self {
        GradecastMachine { my_value: my_value.into(), phase: GcPhase::Send, _wire: PhantomData }
    }
}

impl<M, V> RoundMachine<M> for GradecastMachine<M, V>
where
    M: WireSize + Embeds<GcMsg<V>>,
    V: Clone + Eq + WireSize,
{
    type Output = Vec<GradeOutput<V>>;

    fn round(&mut self, view: RoundView<'_, M>) -> Step<M, Self::Output> {
        let n = view.n;
        let t = (n - 1) / 3;
        match self.phase {
            GcPhase::Send => {
                let mut out = view.outbox();
                if let Some(v) = self.my_value.take() {
                    out.send_to_all(M::wrap(GcMsg::Value(v)));
                }
                self.phase = GcPhase::Echo;
                Step::Continue(out)
            }
            GcPhase::Echo => {
                // received[j-1] = what instance j's sender told us.
                let mut received: Vec<Option<&V>> = vec![None; n];
                for r in view.inbox.iter() {
                    if let Some(GcMsg::Value(v)) = <M as Embeds<GcMsg<V>>>::peek(&r.msg) {
                        received[r.from - 1].get_or_insert(v);
                    }
                }
                let mut out = view.outbox();
                for (j, v) in (1..=n).zip(received) {
                    if let Some(v) = v {
                        out.send_to_all(M::wrap(GcMsg::Echo { instance: j, value: v.clone() }));
                    }
                }
                self.phase = GcPhase::Vote;
                Step::Continue(out)
            }
            GcPhase::Vote => {
                let echoes = by_instance(view.inbox, n, |msg| match msg {
                    GcMsg::Echo { instance, value } => Some((*instance, value)),
                    _ => None,
                });
                let mut out = view.outbox();
                for (j, echoes) in (1..=n).zip(&echoes) {
                    if let Some((v, c)) = best_supported(echoes) {
                        if c >= n - t {
                            out.send_to_all(M::wrap(GcMsg::Vote { instance: j, value: v.clone() }));
                        }
                    }
                }
                self.phase = GcPhase::Decide;
                Step::Continue(out)
            }
            GcPhase::Decide => {
                let votes = by_instance(view.inbox, n, |msg| match msg {
                    GcMsg::Vote { instance, value } => Some((*instance, value)),
                    _ => None,
                });
                Step::Done(
                    votes
                        .iter()
                        .map(|votes| match best_supported(votes) {
                            // n − t > t, so confidence 2 implies 1.
                            Some((v, c)) if c > t => GradeOutput {
                                value: Some(v.clone()),
                                confidence: if c >= n - t { 2 } else { 1 },
                            },
                            _ => GradeOutput::none(),
                        })
                        .collect(),
                )
            }
        }
    }

    fn phase_name(&self) -> &'static str {
        match self.phase {
            GcPhase::Send => "gradecast/send",
            GcPhase::Echo => "gradecast/echo",
            GcPhase::Vote => "gradecast/vote",
            GcPhase::Decide => "gradecast/decide",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprbg_rng::prelude::*;
    use dprbg_sim::{from_fn, BoxedMachine, FaultPlan, StepRunner};

    type V = u64;
    type M = GcMsg<V>;

    fn honest(value: V) -> BoxedMachine<M, Vec<GradeOutput<V>>> {
        Box::new(GradecastMachine::new(value))
    }

    #[test]
    fn all_honest_full_confidence() {
        let n = 4;
        let fleet: Vec<_> = (1..=n).map(|id| honest(id as u64 * 100)).collect();
        let res = StepRunner::new(n, 1).run(fleet);
        for outputs in res.unwrap_all() {
            for (j, out) in outputs.iter().enumerate() {
                assert_eq!(out.confidence, 2);
                assert_eq!(out.value, Some((j as u64 + 1) * 100));
            }
        }
    }

    #[test]
    fn equivocating_sender_cannot_split_high_confidence() {
        // Parties 1–2 send different values to different parties in round
        // 0 and echo inconsistently; honest parties must never end with
        // confidence >= 1 on different values for instance 1.
        let n = 7;
        let plan = FaultPlan::first_t(n, 2);
        let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
            |_| honest(5),
            |_| {
                Box::new(from_fn(|view: RoundView<'_, M>| match view.round {
                    0 => {
                        // Equivocate: half get 111, half get 222.
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            let v = if to <= view.n / 2 { 111 } else { 222 };
                            out.send(to, GcMsg::Value(v));
                        }
                        Step::Continue(out)
                    }
                    1 => {
                        // Echo garbage for our own instance, split again.
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            let v = if to % 2 == 0 { 111 } else { 222 };
                            out.send(to, GcMsg::Echo { instance: 1, value: v });
                        }
                        Step::Continue(out)
                    }
                    2 => Step::Continue(view.outbox()),
                    _ => Step::Done(vec![]),
                }))
            },
        );
        let res = StepRunner::new(n, 2).run(machines);
        let mut graded: Vec<(Option<V>, u8)> = Vec::new();
        for id in plan.honest() {
            let outs = res.outputs[id - 1].as_ref().unwrap();
            graded.push((outs[0].value, outs[0].confidence));
        }
        // Property 3: all confidence >= 1 values agree.
        let confident: Vec<V> = graded
            .iter()
            .filter(|(_, c)| *c >= 1)
            .map(|(v, _)| v.unwrap())
            .collect();
        assert!(
            confident.windows(2).all(|w| w[0] == w[1]),
            "honest parties graded different values: {graded:?}"
        );
    }

    #[test]
    fn confidence_two_implies_all_honest_see_value() {
        // Faulty parties echo/vote selectively; whenever an honest party
        // reaches confidence 2 on an honest instance, everyone honest has
        // confidence >= 1 with the same value.
        let n = 7;
        let plan = FaultPlan::first_t(n, 2);
        let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
            |id| honest(id as u64),
            |_| {
                Box::new(from_fn(|view: RoundView<'_, M>| match view.round {
                    // Silent in rounds 0-1, vote garbage in round 2.
                    0 | 1 => Step::Continue(view.outbox()),
                    2 => {
                        let mut out = view.outbox();
                        for to in 1..=view.n {
                            out.send(to, GcMsg::Vote { instance: 3, value: 999 });
                        }
                        Step::Continue(out)
                    }
                    _ => Step::Done(vec![]),
                }))
            },
        );
        let res = StepRunner::new(n, 3).run(machines);
        for j in plan.honest() {
            // Instance j had an honest sender: everyone must grade (j, 2).
            for id in plan.honest() {
                let outs = res.outputs[id - 1].as_ref().unwrap();
                assert_eq!(outs[j - 1].confidence, 2, "instance {j} at party {id}");
                assert_eq!(outs[j - 1].value, Some(j as u64));
            }
        }
    }

    #[test]
    fn silent_sender_gets_zero_confidence() {
        let n = 4;
        let plan = FaultPlan::explicit(n, vec![2]);
        let machines = plan.machines::<M, Vec<GradeOutput<V>>>(
            |id| honest(id as u64),
            |_| {
                Box::new(from_fn(|view: RoundView<'_, M>| {
                    if view.round < 3 {
                        Step::Continue(view.outbox())
                    } else {
                        Step::Done(vec![])
                    }
                }))
            },
        );
        let res = StepRunner::new(n, 4).run(machines);
        for id in plan.honest() {
            let outs = res.outputs[id - 1].as_ref().unwrap();
            assert_eq!(outs[1].confidence, 0, "silent instance at party {id}");
            assert_eq!(outs[1].value, None);
        }
    }

    #[test]
    fn duplicate_voices_counted_once() {
        let (seven, nine) = (7u64, 9u64);
        let entries = [(1, &seven), (1, &seven), (1, &7), (2, &7), (3, &nine)];
        let (v, c) = best_supported(&entries).unwrap();
        assert_eq!((*v, c), (7, 2));
        assert_eq!(best_supported::<u64>(&[]), None);
    }

    /// The deep-equality tally the borrowed one must agree with: owned
    /// values, compared with `==` only.
    fn reference_best(entries: &[(PartyId, u64)]) -> Option<(u64, usize)> {
        let mut tally: Vec<(u64, usize)> = Vec::new();
        let mut seen: Vec<PartyId> = Vec::new();
        for &(p, v) in entries {
            if !seen.contains(&p) {
                seen.push(p);
                match tally.iter_mut().find(|(tv, _)| *tv == v) {
                    Some((_, c)) => *c += 1,
                    None => tally.push((v, 1)),
                }
            }
        }
        tally.into_iter().max_by_key(|(_, c)| *c)
    }

    proptest! {
        #[test]
        fn borrowed_tally_matches_deep_equality(
            codes in vec_of(0u64..60, 0..24),
            share: u64,
        ) {
            // Each code is one voice: party `code % 5 + 1` (so parties
            // repeat) voting for `code / 5 % 3` (so values repeat and
            // differ). Every value starts in its own allocation; where
            // `share` has the entry's bit set it borrows an earlier equal
            // value's allocation instead, as copies of one send do.
            let values: Vec<Box<u64>> = codes.iter().map(|&c| Box::new(c / 5 % 3)).collect();
            let entries: Vec<(PartyId, &u64)> = codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let own: &u64 = &values[i];
                    let shared = (share >> (i % 64)) & 1 == 1;
                    let v = match values[..i].iter().find(|w| ***w == *own) {
                        Some(w) if shared => &**w,
                        _ => own,
                    };
                    (c as usize % 5 + 1, v)
                })
                .collect();
            let owned: Vec<(PartyId, u64)> = entries.iter().map(|&(p, v)| (p, *v)).collect();
            let borrowed = best_supported(&entries).map(|(v, c)| (*v, c));
            prop_assert_eq!(borrowed, reference_best(&owned));
        }
    }

    #[test]
    fn takes_exactly_three_rounds() {
        let n = 4;
        let fleet: Vec<_> = (1..=n).map(|id| honest(id as u64)).collect();
        let res = StepRunner::new(n, 5).run(fleet);
        assert_eq!(res.report.comm.rounds, 3);
    }
}
