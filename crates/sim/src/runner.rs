//! The executor front end: one [`Runner`] configuration, three schedules.
//!
//! A [`Runner`] carries what a run is configured with — network size,
//! master seed, message tap, trace collector, round backstop — and a
//! schedule that decides how one generation's `machine.round` calls are
//! made:
//!
//! * [`StepRunner`](crate::StepRunner) (`Runner<M, Inline>`) calls them
//!   in id order on the calling thread (see [`crate::step`]);
//! * [`ParRunner`](crate::ParRunner) (`Runner<M, Pool>`) runs them on a
//!   work-stealing thread pool (see [`crate::par`]);
//! * `Runner<M, ExecutorKind>` picks one of the two at run time, for
//!   callers that take the executor as a parameter.
//!
//! Everything else — RNG derivation, the message hop, the round flip,
//! cost attribution and tracing — is the crate's one round core, so the
//! same seed yields byte-identical transcripts, [`RunResult`]s and traces
//! under every schedule and thread count.

use dprbg_metrics::WireSize;
use dprbg_trace::TraceConfig;

use crate::adversary::MsgTap;
use crate::machine::{BoxedMachine, RunResult};
use crate::par::Pool;
use crate::round::Setup;
use crate::step::Inline;

/// Default cap on rounds before a run declares non-termination.
const DEFAULT_MAX_ROUNDS: u64 = 1 << 20;

/// A configured machine-fleet executor, generic over its schedule `S`
/// (see module docs). Build one with
/// [`StepRunner::new`](crate::StepRunner::new),
/// [`ParRunner::new`](crate::ParRunner::new) or [`ExecutorKind::runner`].
pub struct Runner<M, S> {
    pub(crate) setup: Setup<M>,
    pub(crate) schedule: S,
}

/// Which executor drives a fleet. Every choice is byte-identical per
/// seed, so this is a performance knob only — and determinism tests
/// exploit that by mixing them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKind {
    /// The single-threaded [`StepRunner`](crate::StepRunner).
    Step,
    /// The work-stealing [`ParRunner`](crate::ParRunner) with its default
    /// worker pool.
    Par,
    /// The [`ParRunner`](crate::ParRunner) pinned to an explicit worker count.
    ParThreads(usize),
}

impl<M, S> Runner<M, S> {
    pub(crate) fn with_schedule(n: usize, seed: u64, schedule: S) -> Self {
        assert!(n >= 1, "need at least one party");
        let setup = Setup { n, seed, tap: None, max_rounds: DEFAULT_MAX_ROUNDS, trace: None };
        Runner { setup, schedule }
    }

    fn reschedule<T>(self, schedule: T) -> Runner<M, T> {
        Runner { setup: self.setup, schedule }
    }

    /// Install a per-message adversary at the message hop. The tap runs
    /// on the coordinating thread in id-major, send-order-minor hop
    /// order under every schedule, so stateful adversaries fold
    /// identically.
    pub fn with_tap(mut self, tap: impl MsgTap<M> + 'static) -> Self {
        self.setup.tap = Some(Box::new(tap));
        self
    }

    /// Record a logical-time trace of the run (see `dprbg_trace`): one
    /// span per (party, round) carrying the phase name, flush totals,
    /// and the round's cost delta. Spans are keyed by logical round,
    /// never by wall clock or thread, so the trace is identical under
    /// every schedule. The merged result lands in [`RunResult::trace`];
    /// without this call tracing is a no-op.
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        self.setup.trace = Some(cfg);
        self
    }

    /// Override the non-termination backstop (default 2²⁰ rounds).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.setup.max_rounds = max_rounds;
        self
    }
}

impl ExecutorKind {
    /// A runner for `n` parties seeded with `seed` on this executor;
    /// configure it like any other [`Runner`], then
    /// [`run`](Runner::run) it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn runner<M>(self, n: usize, seed: u64) -> Runner<M, ExecutorKind> {
        Runner::with_schedule(n, seed, self)
    }
}

impl<M: WireSize + Send + Sync> Runner<M, ExecutorKind> {
    /// Drive every machine to completion on the chosen executor.
    ///
    /// # Panics
    ///
    /// As [`StepRunner::run`](crate::StepRunner::run) and
    /// [`ParRunner::run`](crate::ParRunner::run).
    pub fn run<Out: Send>(self, machines: Vec<BoxedMachine<M, Out>>) -> RunResult<Out> {
        let pool = match self.schedule {
            ExecutorKind::Step => return self.reschedule(Inline).run(machines),
            ExecutorKind::Par => Pool::for_parties(self.setup.n),
            ExecutorKind::ParThreads(threads) => Pool::of(threads),
        };
        self.reschedule(pool).run(machines)
    }
}

/// Executor checks written once and run on each schedule by the
/// `step::tests` and `par::tests` tables. Both schedules share the round
/// core, so each check holds a run to a fixed expectation, not only to
/// the other schedule.
#[cfg(test)]
pub(crate) mod checks {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use dprbg_rng::rngs::StdRng;
    use dprbg_rng::{RngExt, SeedableRng};

    use crate::adversary::{MsgFate, MsgHop};
    use crate::machine::{BoxedMachine, RoundMachine, RoundView, Step};
    use crate::router::RoundProfile;
    use crate::{ExecutorKind, StepRunner};

    /// Sends `id` to everyone in round 0, outputs the senders seen in
    /// round 1.
    struct Gossip;

    impl RoundMachine<u64> for Gossip {
        type Output = Vec<u64>;
        fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Vec<u64>> {
            if view.round == 0 {
                let mut out = view.outbox();
                out.send_to_all(view.id as u64);
                Step::Continue(out)
            } else {
                Step::Done(view.inbox.iter().map(|r| *r.msg).collect())
            }
        }
    }

    pub(crate) fn gossip_fleet(n: usize) -> Vec<BoxedMachine<u64, Vec<u64>>> {
        (0..n).map(|_| Box::new(Gossip) as BoxedMachine<u64, Vec<u64>>).collect()
    }

    /// Gossips for three rounds so delayed messages can mature.
    struct SlowGossip;

    impl RoundMachine<u64> for SlowGossip {
        type Output = Vec<u64>;
        fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Vec<u64>> {
            if view.round < 3 {
                let mut out = view.outbox();
                out.send_to_all(view.round * 100 + view.id as u64);
                Step::Continue(out)
            } else {
                Step::Done(view.inbox.iter().map(|r| *r.msg).collect())
            }
        }
    }

    pub(crate) fn slow_gossip_fleet(n: usize) -> Vec<BoxedMachine<u64, Vec<u64>>> {
        (0..n).map(|_| Box::new(SlowGossip) as BoxedMachine<u64, Vec<u64>>).collect()
    }

    pub(crate) fn round_trip(kind: ExecutorKind) {
        let res = kind.runner(4, 9).run(gossip_fleet(4));
        assert_eq!(res.report.comm.rounds, 1, "{kind:?}");
        assert_eq!(res.report.comm.messages, 16, "{kind:?}");
        assert_eq!(res.rounds, vec![RoundProfile { deliveries: 16, live_parties: 4 }]);
        assert_eq!(res.unwrap_all(), vec![vec![1, 2, 3, 4]; 4], "{kind:?}");
    }

    pub(crate) fn matches_step_runner(kind: ExecutorKind) {
        let stepped = StepRunner::new(5, 77).run(gossip_fleet(5));
        let res = kind.runner(5, 77).run(gossip_fleet(5));
        assert_eq!(res.outputs, stepped.outputs, "{kind:?}");
        assert_eq!(res.report, stepped.report, "{kind:?}");
        assert_eq!(res.rounds, stepped.rounds, "{kind:?}");
    }

    pub(crate) fn panicking_machine_is_contained(kind: ExecutorKind) {
        struct Bomb;
        impl RoundMachine<u64> for Bomb {
            type Output = Vec<u64>;
            fn round(&mut self, _view: RoundView<'_, u64>) -> Step<u64, Vec<u64>> {
                panic!("byzantine meltdown");
            }
        }
        let mut machines = gossip_fleet(3);
        machines[1] = Box::new(Bomb);
        let res = kind.runner(3, 1).run(machines);
        assert!(res.outputs[1].is_none(), "{kind:?}");
        // The survivors see only each other (and themselves).
        assert_eq!(res.outputs[0], Some(vec![1, 3]), "{kind:?}");
        assert_eq!(res.outputs[2], Some(vec![1, 3]), "{kind:?}");
    }

    pub(crate) fn per_party_rng_is_pinned(kind: ExecutorKind) {
        struct Draw;
        impl RoundMachine<u64> for Draw {
            type Output = u64;
            fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, u64> {
                Step::Done(view.rng.random::<u64>())
            }
        }
        // The exact derivation: seed ^ (id * golden-ratio constant).
        let expect: Vec<u64> = (1..=3u64)
            .map(|id| {
                StdRng::seed_from_u64(99 ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)).random::<u64>()
            })
            .collect();
        assert_ne!(expect[0], expect[1]);
        let fleet = (0..3).map(|_| Box::new(Draw) as BoxedMachine<u64, u64>).collect();
        assert_eq!(kind.runner(3, 99).run(fleet).unwrap_all(), expect, "{kind:?}");
    }

    /// Runs a machine that never finishes under an 8-round backstop;
    /// panics with "exceeded 8 rounds".
    pub(crate) fn run_forever(kind: ExecutorKind) {
        struct Forever;
        impl RoundMachine<u64> for Forever {
            type Output = ();
            fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, ()> {
                Step::Continue(view.outbox())
            }
        }
        let machines = vec![Box::new(Forever) as BoxedMachine<u64, ()>];
        kind.runner(1, 0).with_max_rounds(8).run(machines);
    }

    /// Runs two machines on a three-party runner; panics with "one
    /// machine per party".
    pub(crate) fn run_short_fleet(kind: ExecutorKind) {
        kind.runner(3, 0).run(gossip_fleet(2));
    }

    /// Runs `run` on every executor in `kinds`; each must panic with a
    /// message containing `expected`. Every panic but the last is caught
    /// and checked here; the last one propagates, for the caller's
    /// `#[should_panic(expected = ..)]`.
    pub(crate) fn panics_on_each(kinds: &[ExecutorKind], expected: &str, run: fn(ExecutorKind)) {
        let (&last, rest) = kinds.split_last().expect("at least one executor");
        for &kind in rest {
            let payload = catch_unwind(AssertUnwindSafe(|| run(kind))).expect_err("run must panic");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains(expected), "{kind:?}: {msg}");
        }
        run(last);
    }

    pub(crate) fn delay_past_the_run_never_matures(kind: ExecutorKind) {
        // `Delay(u64::MAX)` must saturate, not overflow (a debug panic on
        // the coordinator) or wrap (a release-mode next-round delivery).
        let forever = |_hop: MsgHop<'_, u64>| MsgFate::Delay(u64::MAX);
        let res = kind.runner(3, 5).with_tap(forever).run(slow_gossip_fleet(3));
        let deliveries: Vec<usize> = res.rounds.iter().map(|p| p.deliveries).collect();
        assert_eq!(deliveries, vec![0, 0, 0], "{kind:?}");
        assert_eq!(res.unwrap_all(), vec![Vec::<u64>::new(); 3], "{kind:?}");
    }
}
