//! The work-stealing pool schedule behind [`ParRunner`].
//!
//! Within one generation, party machines are *independent*: a machine
//! observes only its own state, its own per-party RNG, and the inbox
//! frozen at the previous round boundary. Nothing a machine does
//! mid-round can influence another machine's round — messages only
//! travel at round flips. So the `machine.round()` calls commute, and
//! running them on worker threads in any interleaving is observationally
//! equal to the in-line schedule's id-order loop. Everything that is
//! *not* commutative stays in the round core on the coordinating thread:
//! after the workers finish a generation, the coordinator settles every
//! outcome in party-id order, exactly as the in-line schedule does.
//!
//! Each generation's live parties are dealt round-robin onto per-worker
//! deques; a worker pops from the front of its own deque and steals from
//! the back of others when it runs dry, so an unbalanced round (one party
//! interpolating while the rest idle) still keeps every core busy. Two
//! barriers bracket the compute phase of each generation; the coordinator
//! settles between them. The pool is hermetic: scoped `std::thread`s, no
//! global state, nothing outlives one run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use dprbg_metrics::WireSize;

use crate::machine::{BoxedMachine, RunResult};
use crate::round::{Fleet, Outcome, Party, RoundCore};
use crate::router::{Inbox, PartyId};
use crate::runner::Runner;

/// The work-stealing pool schedule of [`ParRunner`], with its worker
/// count.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

/// The deterministic work-stealing parallel executor.
pub type ParRunner<M> = Runner<M, Pool>;

impl Pool {
    /// `min(available cores, n)` workers.
    pub(crate) fn for_parties(n: usize) -> Self {
        Pool::of(std::thread::available_parallelism().map_or(1, usize::from).min(n))
    }

    /// `threads` workers, clamped to at least one.
    pub(crate) fn of(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }
}

impl<M: WireSize + Send + Sync> Runner<M, Pool> {
    /// A pooled runner for `n` parties, all randomness derived from
    /// `seed`. The pool defaults to `min(available cores, n)` workers;
    /// see [`with_threads`](Self::with_threads).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_schedule(n, seed, Pool::for_parties(n))
    }

    /// Override the worker-thread count (clamped to at least 1). Thread
    /// count never affects results, only wall-clock; a one-thread pool
    /// is a useful determinism control.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.schedule = Pool::of(threads);
        self
    }

    /// The worker-thread count this runner will use.
    pub fn threads(&self) -> usize {
        self.schedule.threads
    }

    /// Drive every machine to completion. A machine that panics is
    /// contained (`None` output) and the rest keep running.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs from `n`, or if any machine is
    /// still running after the `max_rounds` backstop.
    pub fn run<Out: Send>(self, machines: Vec<BoxedMachine<M, Out>>) -> RunResult<Out> {
        let threads = self.schedule.threads.min(self.setup.n);
        let (core, parties) = RoundCore::start(self.setup, machines);
        run(core, parties, threads)
    }
}

/// One party as the pool shares it: its machine-side state, plus the
/// outcome a worker parks for the coordinator to settle.
struct Slot<M, Out> {
    party: Party<M, Out>,
    outcome: Option<Outcome<M, Out>>,
}

/// Shared pool state: per-worker deques plus the two per-generation
/// barriers (`start` releases workers into a generation, `finish` hands
/// control back to the coordinator to settle).
struct Shared {
    deques: Vec<Mutex<VecDeque<PartyId>>>,
    start: Barrier,
    finish: Barrier,
    shutdown: AtomicBool,
}

impl Shared {
    fn new(threads: usize) -> Self {
        Shared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            start: Barrier::new(threads + 1),
            finish: Barrier::new(threads + 1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Claim the next task for worker `w`: own deque front first, then
    /// steal from the back of the others.
    fn claim(&self, w: usize) -> Option<PartyId> {
        if let Some(id) = self.deques[w].lock().expect("deque lock").pop_front() {
            return Some(id);
        }
        let k = self.deques.len();
        (1..k).find_map(|off| self.deques[(w + off) % k].lock().expect("deque lock").pop_back())
    }
}

/// Releases the parked workers for exit when the coordinator leaves the
/// round loop — normally or by panic (`max_rounds` backstop, outbox-size
/// assert). Without this, a coordinator panic would deadlock the scope
/// join on the start barrier.
struct ShutdownGuard<'a>(&'a Shared);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown.store(true, Ordering::Release);
        self.0.start.wait();
    }
}

fn worker_loop<M, Out>(w: usize, shared: &Shared, slots: &[Mutex<Slot<M, Out>>], n: usize) {
    loop {
        shared.start.wait();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        while let Some(id) = shared.claim(w) {
            // A panicking machine unwinds only to `Party::step`, so the
            // slot lock is released normally and never poisoned.
            let mut slot = slots[id - 1].lock().expect("work slot lock");
            slot.outcome = Some(slot.party.step(id, n));
        }
        shared.finish.wait();
    }
}

/// The coordinator's view of the pool during one run.
struct Pooled<'a, M, Out> {
    shared: &'a Shared,
    slots: &'a [Mutex<Slot<M, Out>>],
}

impl<M: WireSize, Out> Fleet<M, Out> for Pooled<'_, M, Out> {
    fn generation(&mut self, core: &mut RoundCore<M, Out>) {
        // Deal the live parties onto the worker deques (workers are parked
        // at the start barrier), let the workers step them, then settle.
        let threads = self.shared.deques.len();
        let live = (1..=self.slots.len())
            .filter(|&id| !self.slots[id - 1].lock().expect("work slot lock").party.done);
        for (dealt, id) in live.enumerate() {
            self.shared.deques[dealt % threads].lock().expect("deque lock").push_back(id);
        }
        self.shared.start.wait();
        self.shared.finish.wait();
        for (idx, slot) in self.slots.iter().enumerate() {
            let slot = &mut *slot.lock().expect("work slot lock");
            if let Some(outcome) = slot.outcome.take() {
                core.settle(idx + 1, &mut slot.party, outcome);
            }
        }
    }

    fn deliver(&mut self, id: PartyId, inbox: Inbox<M>) {
        self.slots[id - 1].lock().expect("work slot lock").party.inbox = inbox;
    }
}

/// Run `core` over `parties` on a pool of `threads` workers.
fn run<M, Out>(
    core: RoundCore<M, Out>,
    parties: Vec<Party<M, Out>>,
    threads: usize,
) -> RunResult<Out>
where
    M: WireSize + Send + Sync,
    Out: Send,
{
    let n = core.n();
    let slots: Vec<Mutex<Slot<M, Out>>> =
        parties.into_iter().map(|party| Mutex::new(Slot { party, outcome: None })).collect();
    let shared = Shared::new(threads);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let (shared, slots) = (&shared, &slots);
            scope.spawn(move || worker_loop(w, shared, slots, n));
        }
        // Dropped when `run` returns or unwinds, before the scope joins.
        let _guard = ShutdownGuard(&shared);
        core.run(&mut Pooled { shared: &shared, slots: &slots })
    })
}

#[cfg(test)]
mod tests {
    use crate::adversary::{MsgFate, MsgHop, MsgTap};
    use crate::runner::checks::{self, gossip_fleet, slow_gossip_fleet};
    use crate::{ExecutorKind, ParRunner, StepRunner};

    /// The pool at one and at several workers; the shared checks in
    /// `runner::checks` run on each, as `step::tests` runs them in-line.
    const POOLS: [ExecutorKind; 2] = [ExecutorKind::ParThreads(1), ExecutorKind::ParThreads(4)];

    #[test]
    fn parallel_round_trip() {
        POOLS.into_iter().for_each(checks::round_trip);
    }

    #[test]
    fn matches_step_runner_exactly() {
        POOLS.into_iter().for_each(checks::matches_step_runner);
    }

    #[test]
    fn thread_count_never_changes_results() {
        let baseline = ParRunner::new(6, 123).with_threads(1).run(gossip_fleet(6));
        for threads in [2, 3, 8, 32] {
            let res = ParRunner::new(6, 123).with_threads(threads).run(gossip_fleet(6));
            assert_eq!(res.outputs, baseline.outputs, "threads = {threads}");
            assert_eq!(res.report, baseline.report, "threads = {threads}");
            assert_eq!(res.rounds, baseline.rounds, "threads = {threads}");
        }
    }

    #[test]
    fn panicking_machine_is_contained() {
        POOLS.into_iter().for_each(checks::panicking_machine_is_contained);
    }

    #[test]
    fn per_party_rng_matches_other_executors() {
        POOLS.into_iter().for_each(checks::per_party_rng_is_pinned);
    }

    #[test]
    #[should_panic(expected = "exceeded 8 rounds")]
    fn max_rounds_backstop_fires() {
        checks::panics_on_each(&POOLS, "exceeded 8 rounds", checks::run_forever);
    }

    #[test]
    #[should_panic(expected = "one machine per party")]
    fn machine_count_must_match() {
        checks::panics_on_each(&POOLS, "one machine per party", checks::run_short_fleet);
    }

    #[test]
    fn stateful_tap_folds_identically_across_executors() {
        /// Drops every third hop it sees — order-sensitive on purpose.
        struct EveryThird(u64);
        impl MsgTap<u64> for EveryThird {
            fn intercept(&mut self, _hop: MsgHop<'_, u64>) -> MsgFate<u64> {
                self.0 += 1;
                if self.0.is_multiple_of(3) {
                    MsgFate::Drop
                } else {
                    MsgFate::Deliver
                }
            }
        }
        let stepped = StepRunner::new(5, 7).with_tap(EveryThird(0)).run(gossip_fleet(5));
        assert_eq!(stepped.rounds[0].deliveries, 25 - 8);
        for kind in POOLS {
            let res = kind.runner(5, 7).with_tap(EveryThird(0)).run(gossip_fleet(5));
            assert_eq!(res.outputs, stepped.outputs, "{kind:?}");
            assert_eq!(res.report, stepped.report, "{kind:?}");
            assert_eq!(res.rounds, stepped.rounds, "{kind:?}");
        }
    }

    #[test]
    fn delaying_tap_matches_step_runner() {
        let delay_odd = |hop: MsgHop<'_, u64>| {
            if hop.from % 2 == 1 {
                MsgFate::Delay(1)
            } else {
                MsgFate::Deliver
            }
        };
        let stepped = StepRunner::new(4, 11).with_tap(delay_odd).run(slow_gossip_fleet(4));
        for kind in POOLS {
            let res = kind.runner(4, 11).with_tap(delay_odd).run(slow_gossip_fleet(4));
            assert_eq!(res.outputs, stepped.outputs, "{kind:?}");
            assert_eq!(res.report, stepped.report, "{kind:?}");
            assert_eq!(res.rounds, stepped.rounds, "{kind:?}");
        }
    }

    #[test]
    fn delay_past_the_run_never_matures() {
        POOLS.into_iter().for_each(checks::delay_past_the_run_never_matures);
    }
}
