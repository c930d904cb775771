//! The round core both executors drive.
//!
//! The paper's network (§2) is one synchronous model: a message sent in
//! round `r` arrives at round `r + 1`. [`RoundCore`] is that model,
//! written once. It owns everything on the coordinating side of a run:
//!
//! * per-party sequence numbers, cost totals and tracers;
//! * the message hop — [`MsgTap`] fates, including the delayed queue;
//! * the round flip, which builds every inbox in `(sender, send order)`
//!   order and records a [`RoundProfile`];
//! * the `max_rounds` backstop and the final [`RunResult`].
//!
//! An executor only decides how one generation's `machine.round` calls
//! are scheduled ([`Fleet::generation`]): in-line on the calling thread
//! ([`crate::step`]), or on the work-stealing pool ([`crate::par`]).
//! Either way each [`Outcome`] is handed to [`RoundCore::settle`] in
//! party-id order on the coordinating thread, so every non-commutative
//! effect — sequence numbers, message charges, tap calls — happens in the
//! same order under every schedule.
//!
//! # Cost attribution
//!
//! The thread-local cost counters are windowed twice per party round: the
//! machine window around `machine.round()` ([`Party::step`], on whichever
//! thread ran it) and the settle window around the outbox flush (on the
//! coordinator). The counters are monotone thread-locals, so the two
//! disjoint windows sum to the party's cost for the round regardless of
//! which thread hosted either.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dprbg_metrics::{comm, CostReport, CostSnapshot, WireSize};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;
use dprbg_trace::{PartyTracer, Trace, TraceConfig};

use crate::adversary::{MsgFate, MsgHop, MsgTap};
use crate::machine::{BoxedMachine, RoundView, RunResult, Step};
use crate::router::{Inbox, PartyId, Received, RoundProfile};

/// Machine-side state of one party: what a `machine.round` call reads
/// and writes, and all a worker thread ever touches.
pub(crate) struct Party<M, Out> {
    machine: BoxedMachine<M, Out>,
    rng: StdRng,
    round: u64,
    pub(crate) inbox: Inbox<M>,
    pub(crate) done: bool,
}

/// What one `machine.round` call produced.
pub(crate) struct Outcome<M, Out> {
    /// `Err(())` if the machine panicked; the panic is contained.
    step: Result<Step<M, Out>, ()>,
    /// Cost delta of the machine window.
    delta: CostSnapshot,
    /// Phase label captured immediately before the round ran.
    phase: &'static str,
}

impl<M, Out> Party<M, Out> {
    /// Party `id`'s state, with its RNG derived from the run's master
    /// seed as `seed ^ (id · 0x9E37_79B9_7F4A_7C15)`.
    fn new(id: PartyId, seed: u64, machine: BoxedMachine<M, Out>) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Party { machine, rng, round: 0, inbox: Inbox::empty(), done: false }
    }

    /// Run this party's machine for one round on its current inbox,
    /// inside the machine cost window. A panicking machine unwinds only
    /// to here.
    pub(crate) fn step(&mut self, id: PartyId, n: usize) -> Outcome<M, Out> {
        let inbox = std::mem::replace(&mut self.inbox, Inbox::empty());
        let phase = self.machine.phase_name();
        let (machine, rng, round) = (&mut self.machine, &mut self.rng, self.round);
        let before = CostSnapshot::capture();
        let step = catch_unwind(AssertUnwindSafe(|| {
            machine.round(RoundView { id, n, round, inbox: &inbox, rng })
        }))
        .map_err(drop);
        let delta = CostSnapshot::capture().since(&before);
        Outcome { step, delta, phase }
    }
}

/// How an executor steps the live parties of one generation.
pub(crate) trait Fleet<M, Out> {
    /// Call every live party's machine once and hand each outcome to
    /// [`RoundCore::settle`] in party-id order.
    fn generation(&mut self, core: &mut RoundCore<M, Out>);
    /// Install party `id`'s inbox for the next generation.
    fn deliver(&mut self, id: PartyId, inbox: Inbox<M>);
}

/// What a run is configured with, independent of its schedule.
pub(crate) struct Setup<M> {
    pub(crate) n: usize,
    pub(crate) seed: u64,
    pub(crate) tap: Option<Box<dyn MsgTap<M>>>,
    pub(crate) max_rounds: u64,
    pub(crate) trace: Option<TraceConfig>,
}

/// The coordinator side of a run (see module docs).
pub(crate) struct RoundCore<M, Out> {
    n: usize,
    tap: Option<Box<dyn MsgTap<M>>>,
    max_rounds: u64,
    tracers: Option<Vec<PartyTracer>>,
    seqs: Vec<u32>,
    costs: Vec<CostSnapshot>,
    outputs: Vec<Option<Out>>,
    pending: Vec<Vec<Received<M>>>,
    /// Copies a tap delayed: `(due generation, recipient, copy)`.
    delayed: Vec<(u64, PartyId, Received<M>)>,
    profile: Vec<RoundProfile>,
    active: usize,
    generation: u64,
}

impl<M: WireSize, Out> RoundCore<M, Out> {
    /// The core for `setup` plus each party's machine-side state.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs from `n`.
    pub(crate) fn start(
        setup: Setup<M>,
        machines: Vec<BoxedMachine<M, Out>>,
    ) -> (Self, Vec<Party<M, Out>>) {
        let Setup { n, seed, tap, max_rounds, trace } = setup;
        assert_eq!(machines.len(), n, "need exactly one machine per party");
        let parties =
            machines.into_iter().enumerate().map(|(idx, m)| Party::new(idx + 1, seed, m)).collect();
        let core = RoundCore {
            n,
            tap,
            max_rounds,
            tracers: trace.map(|cfg| (1..=n).map(|id| PartyTracer::new(id, cfg)).collect()),
            seqs: vec![0; n],
            costs: vec![CostSnapshot::default(); n],
            outputs: (0..n).map(|_| None).collect(),
            pending: (0..n).map(|_| Vec::new()).collect(),
            delayed: Vec::new(),
            profile: Vec::new(),
            active: n,
            generation: 0,
        };
        (core, parties)
    }

    /// Drive `fleet` generation by generation until every party is done.
    ///
    /// # Panics
    ///
    /// Panics if any machine is still running after `max_rounds`
    /// generations.
    pub(crate) fn run(mut self, fleet: &mut impl Fleet<M, Out>) -> RunResult<Out> {
        while self.active > 0 {
            assert!(
                self.generation < self.max_rounds,
                "runner exceeded {} rounds without terminating",
                self.max_rounds
            );
            fleet.generation(&mut self);
            if self.active == 0 {
                // Nobody is left to observe the next round: the last
                // pending sends never flip and no profile entry is
                // recorded for them.
                break;
            }
            self.flip(fleet);
        }
        RunResult {
            outputs: self.outputs,
            report: CostReport::from_snapshots(self.costs),
            rounds: self.profile,
            trace: self
                .tracers
                .map(|ts| Trace::from_parties(ts.into_iter().map(PartyTracer::into_events))),
        }
    }

    /// The network size.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Apply party `id`'s round outcome: flush its outbox through the
    /// message hop, record its output or death, and close its trace span
    /// with the machine window plus this settle window.
    pub(crate) fn settle(
        &mut self,
        id: PartyId,
        party: &mut Party<M, Out>,
        outcome: Outcome<M, Out>,
    ) {
        let round_now = party.round;
        if let Some(tracers) = self.tracers.as_mut() {
            tracers[id - 1].begin(round_now, outcome.phase);
        }
        let before = CostSnapshot::capture();
        match outcome.step {
            Ok(Step::Continue(outbox)) => {
                assert_eq!(outbox.n(), self.n, "outbox built for a different network size");
                comm::count_rounds(1);
                let generation = self.generation;
                let (tap, pending, delayed) = (&mut self.tap, &mut self.pending, &mut self.delayed);
                let stats = outbox.flush(id, &mut self.seqs[id - 1], |to, rcv| {
                    let rcv = match tap.as_deref_mut() {
                        None => rcv,
                        Some(tap) => {
                            let hop = MsgHop {
                                from: rcv.from,
                                to,
                                round: generation,
                                broadcast: rcv.broadcast,
                                msg: &*rcv.msg,
                            };
                            match tap.intercept(hop) {
                                MsgFate::Deliver => rcv,
                                MsgFate::Drop => return,
                                MsgFate::Delay(extra) => {
                                    let due = (generation + 1).saturating_add(extra);
                                    delayed.push((due, to, rcv));
                                    return;
                                }
                                MsgFate::Tamper(msg) => Received { msg: Arc::new(msg), ..rcv },
                            }
                        }
                    };
                    pending[to - 1].push(rcv);
                });
                if let Some(tracers) = self.tracers.as_mut() {
                    tracers[id - 1].flush(round_now, stats.messages, stats.bytes);
                }
                party.round += 1;
            }
            Ok(Step::Done(out)) => {
                self.outputs[id - 1] = Some(out);
                party.done = true;
                self.active -= 1;
            }
            Err(()) => {
                party.done = true;
                self.active -= 1;
            }
        }
        let delta = outcome.delta.plus(&CostSnapshot::capture().since(&before));
        self.costs[id - 1] = self.costs[id - 1].plus(&delta);
        if let Some(tracers) = self.tracers.as_mut() {
            tracers[id - 1].end(round_now, delta);
        }
    }

    /// The round flip: advance the generation, merge every recipient's
    /// pending copies with its matured delayed ones into its next inbox,
    /// and record the round's profile.
    fn flip(&mut self, fleet: &mut impl Fleet<M, Out>) {
        self.generation += 1;
        let mut deliveries = 0;
        for (to0, queue) in self.pending.iter_mut().enumerate() {
            let mut msgs = std::mem::take(queue);
            let mut i = 0;
            while i < self.delayed.len() {
                if self.delayed[i].0 <= self.generation && self.delayed[i].1 == to0 + 1 {
                    let (_, _, rcv) = self.delayed.swap_remove(i);
                    msgs.push(rcv);
                } else {
                    i += 1;
                }
            }
            deliveries += msgs.len();
            fleet.deliver(to0 + 1, Inbox::from_messages(msgs));
        }
        self.profile.push(RoundProfile { deliveries, live_parties: self.active });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::adversary::{MsgFate, MsgHop};
    use crate::machine::{BoxedMachine, RoundMachine, RoundView, Step};
    use crate::router::PartyId;
    use crate::ExecutorKind;

    /// One delivered copy as a recipient kept it: `(round, from,
    /// broadcast, payload)`, with the payload's `Arc` itself so tests can
    /// compare allocations across recipients.
    type Kept = (u64, PartyId, bool, Arc<u64>);

    /// Round 0: `send_to_all(10·id)` and `broadcast(10·id + 1)`; then
    /// keep every delivered copy for two more rounds.
    struct Keeper(Vec<Kept>);

    impl RoundMachine<u64> for Keeper {
        type Output = Vec<Kept>;
        fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Vec<Kept>> {
            let round = view.round;
            self.0.extend(view.inbox.iter().map(|r| (round, r.from, r.broadcast, r.msg.clone())));
            let mut out = view.outbox();
            match round {
                0 => {
                    out.send_to_all(10 * view.id as u64);
                    out.broadcast(10 * view.id as u64 + 1);
                }
                3 => return Step::Done(std::mem::take(&mut self.0)),
                _ => {}
            }
            Step::Continue(out)
        }
    }

    /// Party 1's copies as each recipient kept them, indexed by recipient.
    fn from_party_1(outputs: &[Vec<Kept>], broadcast: bool) -> Vec<&Kept> {
        outputs
            .iter()
            .map(|kept| kept.iter().find(|k| k.1 == 1 && k.2 == broadcast).expect("copy arrived"))
            .collect()
    }

    /// Party 1's private copy to 2 is tampered and its copy to 3 delayed
    /// one round; everything else is delivered.
    fn tapped_run(kind: ExecutorKind) -> Vec<Vec<Kept>> {
        let tap = |hop: MsgHop<'_, u64>| match (hop.from, hop.to, hop.broadcast) {
            (1, 2, false) => MsgFate::Tamper(999),
            (1, 3, false) => MsgFate::Delay(1),
            _ => MsgFate::Deliver,
        };
        let fleet = (0..4).map(|_| Box::new(Keeper(Vec::new())) as BoxedMachine<_, _>).collect();
        kind.runner(4, 3).with_tap(tap).run(fleet).unwrap_all()
    }

    const KINDS: [ExecutorKind; 3] =
        [ExecutorKind::Step, ExecutorKind::ParThreads(1), ExecutorKind::ParThreads(4)];

    #[test]
    fn broadcast_copies_share_one_allocation_end_to_end() {
        for kind in KINDS {
            let outputs = tapped_run(kind);
            let copies = from_party_1(&outputs, true);
            let shared = copies.iter().all(|k| *k.3 == 11 && Arc::ptr_eq(&k.3, &copies[0].3));
            assert!(shared, "{kind:?}");
        }
    }

    #[test]
    fn tampered_copy_is_a_fresh_allocation_and_siblings_are_untouched() {
        for kind in KINDS {
            let outputs = tapped_run(kind);
            let copies = from_party_1(&outputs, false);
            let (to1, to2, to4) = (&copies[0].3, &copies[1].3, &copies[3].3);
            assert_eq!((**to1, **to2, **to4), (10, 999, 10), "{kind:?}");
            assert!(Arc::ptr_eq(to1, to4), "{kind:?}: untampered siblings share");
            assert!(!Arc::ptr_eq(to1, to2), "{kind:?}: tampered copy is its own");
        }
    }

    #[test]
    fn delayed_copy_keeps_its_payload() {
        for kind in KINDS {
            let outputs = tapped_run(kind);
            let copies = from_party_1(&outputs, false);
            let (on_time, delayed) = (copies[0], copies[2]);
            assert_eq!((on_time.0, delayed.0), (1, 2), "{kind:?}: delayed one round");
            assert_eq!(*delayed.3, 10, "{kind:?}");
            assert!(Arc::ptr_eq(&delayed.3, &on_time.3), "{kind:?}: same allocation as siblings");
        }
    }
}
