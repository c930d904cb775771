//! The in-line schedule behind [`StepRunner`].
//!
//! Every live party is stepped and settled in id order on the calling
//! thread: no threads, no barriers, no locks, which is what makes big-n
//! sweeps a loop rather than hundreds of stacks. Everything else is the
//! round core in [`crate::round`].

use dprbg_metrics::WireSize;

use crate::machine::{BoxedMachine, RunResult};
use crate::round::{Fleet, Party, RoundCore};
use crate::router::{Inbox, PartyId};
use crate::runner::Runner;

/// The in-line schedule of [`StepRunner`]: every party is stepped in id
/// order on the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct Inline;

/// The deterministic single-threaded executor.
pub type StepRunner<M> = Runner<M, Inline>;

impl<M: WireSize, Out> Fleet<M, Out> for Vec<Party<M, Out>> {
    fn generation(&mut self, core: &mut RoundCore<M, Out>) {
        for (idx, party) in self.iter_mut().enumerate() {
            if !party.done {
                let outcome = party.step(idx + 1, core.n());
                core.settle(idx + 1, party, outcome);
            }
        }
    }

    fn deliver(&mut self, id: PartyId, inbox: Inbox<M>) {
        self[id - 1].inbox = inbox;
    }
}

impl<M: WireSize> Runner<M, Inline> {
    /// A single-threaded runner for `n` parties, all randomness derived
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_schedule(n, seed, Inline)
    }

    /// Drive every machine to completion. A machine that panics is
    /// contained (`None` output) and the rest keep running.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs from `n`, or if any machine is
    /// still running after the `max_rounds` backstop.
    pub fn run<Out>(self, machines: Vec<BoxedMachine<M, Out>>) -> RunResult<Out> {
        let (core, mut parties) = RoundCore::start(self.setup, machines);
        core.run(&mut parties)
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::checks;
    use crate::ExecutorKind::Step;

    #[test]
    fn single_threaded_round_trip() {
        checks::round_trip(Step);
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        checks::matches_step_runner(Step);
    }

    #[test]
    fn panicking_machine_is_contained() {
        checks::panicking_machine_is_contained(Step);
    }

    #[test]
    fn per_party_rng_derivation_is_stable() {
        checks::per_party_rng_is_pinned(Step);
    }

    #[test]
    #[should_panic(expected = "exceeded 8 rounds")]
    fn max_rounds_backstop_fires() {
        checks::run_forever(Step);
    }

    #[test]
    #[should_panic(expected = "one machine per party")]
    fn machine_count_must_match() {
        checks::run_short_fleet(Step);
    }

    #[test]
    fn delay_past_the_run_never_matures() {
        checks::delay_past_the_run_never_matures(Step);
    }
}
