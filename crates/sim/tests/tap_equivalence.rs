//! Executor-equivalence property: any *pure* [`MsgTap`] — a tap whose
//! fate is a function of the [`MsgHop`] alone — emitting `Drop`, `Delay`
//! and `Tamper` preserves byte-identical transcripts across both
//! executors:
//!
//! * [`StepRunner::with_tap`] — the single-threaded stepper;
//! * [`ParRunner::with_tap`] — the deterministic work-stealing pool, at
//!   several thread counts.
//!
//! Purity keeps the property maximally strong (a hop-determined fate
//! cannot smuggle ordering information between parties), though both
//! executors in fact consult the tap on the coordinating thread in the
//! same id-major order, so even stateful taps agree. The property is
//! exercised over randomly drawn fleet shapes and fate tables via the
//! in-tree `proptest!` harness; failures replay with
//! `DPRBG_PROPTEST_SEED`.

use dprbg_rng::prelude::*;
use dprbg_sim::{
    BoxedMachine, MsgFate, MsgHop, ParRunner, RoundMachine, RoundView, RunResult, Step, StepRunner,
};

/// A gossip fleet: every party broadcasts and unicasts a round-tagged
/// payload each round, and records every inbox it ever sees. The output
/// is the party's full receive transcript `(round, from, broadcast,
/// msg)` — byte-identical transcripts means equal outputs here, plus
/// equal cost reports and round profiles.
struct Gossip {
    rounds: u64,
    transcript: Vec<(u64, usize, bool, u64)>,
}

impl RoundMachine<u64> for Gossip {
    type Output = Vec<(u64, usize, bool, u64)>;

    fn round(&mut self, view: RoundView<'_, u64>) -> Step<u64, Self::Output> {
        self.transcript
            .extend(view.inbox.iter().map(|r| (view.round, r.from, r.broadcast, *r.msg)));
        if view.round < self.rounds {
            let mut out = view.outbox();
            out.broadcast(view.id as u64 * 1000 + view.round);
            out.send_to_all(view.id as u64 * 100 + view.round);
            Step::Continue(out)
        } else {
            Step::Done(std::mem::take(&mut self.transcript))
        }
    }
}

fn fleet(n: usize, rounds: u64) -> Vec<BoxedMachine<u64, Vec<(u64, usize, bool, u64)>>> {
    (0..n).map(|_| Box::new(Gossip { rounds, transcript: Vec::new() }) as _).collect()
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fate-table shape the property draws: percentage weights for each
/// adversarial fate, with the remainder delivered untouched.
#[derive(Clone, Copy)]
struct TapParams {
    seed: u64,
    drop_pct: u64,
    delay_pct: u64,
    tamper_pct: u64,
    max_delay: u64,
}

/// A pure fate table: hash the full hop coordinate (sender, recipient,
/// round, channel, payload) and carve the hash into fate buckets. No
/// state, no ordering sensitivity — the contract [`MsgTap`] documents.
fn pure_fate(p: TapParams, hop: &MsgHop<'_, u64>) -> MsgFate<u64> {
    let h = splitmix64(
        p.seed
            ^ splitmix64(hop.from as u64)
            ^ splitmix64((hop.to as u64).rotate_left(16))
            ^ splitmix64(hop.round.rotate_left(32))
            ^ splitmix64(*hop.msg ^ u64::from(hop.broadcast)),
    );
    let bucket = h % 100;
    if bucket < p.drop_pct {
        MsgFate::Drop
    } else if bucket < p.drop_pct + p.delay_pct {
        MsgFate::Delay(1 + (h >> 32) % p.max_delay)
    } else if bucket < p.drop_pct + p.delay_pct + p.tamper_pct {
        MsgFate::Tamper(hop.msg ^ (h | 1))
    } else {
        MsgFate::Deliver
    }
}

fn tap(p: TapParams) -> impl FnMut(MsgHop<'_, u64>) -> MsgFate<u64> + Send + 'static {
    move |hop| pure_fate(p, &hop)
}

type Transcripts = RunResult<Vec<(u64, usize, bool, u64)>>;

/// Run the same tapped fleet under both executors (the pool twice, at one
/// and four workers).
fn run_all(n: usize, rounds: u64, seed: u64, p: TapParams) -> [Transcripts; 3] {
    let stepped = StepRunner::new(n, seed).with_tap(tap(p)).run(fleet(n, rounds));
    let narrow = ParRunner::new(n, seed).with_threads(1).with_tap(tap(p)).run(fleet(n, rounds));
    let wide = ParRunner::new(n, seed).with_threads(4).with_tap(tap(p)).run(fleet(n, rounds));
    [stepped, narrow, wide]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pure_taps_preserve_transcripts_across_executors(
        seed: u64,
        n in 3usize..6,
        rounds in 1u64..4,
        drop_pct in 0u64..40,
        delay_pct in 0u64..40,
        tamper_pct in 0u64..20,
        max_delay in 1u64..3,
    ) {
        let p = TapParams { seed, drop_pct, delay_pct, tamper_pct, max_delay };
        let [stepped, narrow, wide] = run_all(n, rounds, seed, p);
        prop_assert_eq!(&stepped.outputs, &narrow.outputs);
        prop_assert_eq!(&stepped.outputs, &wide.outputs);
        prop_assert_eq!(&stepped.report, &narrow.report);
        prop_assert_eq!(&stepped.report, &wide.report);
        prop_assert_eq!(&stepped.rounds, &narrow.rounds);
        prop_assert_eq!(&stepped.rounds, &wide.rounds);
    }
}

/// A fixed-seed spot check that the adversarial fates actually fire:
/// with every fate weighted on, the tapped transcript must differ from
/// an untapped run of the same fleet — equivalence above is not vacuous.
#[test]
fn tapped_transcript_differs_from_untapped() {
    let (n, rounds, seed) = (4, 3, 0xE0_11AB);
    let p = TapParams { seed, drop_pct: 25, delay_pct: 25, tamper_pct: 25, max_delay: 2 };
    let [stepped, narrow, wide] = run_all(n, rounds, seed, p);
    assert_eq!(stepped.outputs, narrow.outputs);
    assert_eq!(stepped.outputs, wide.outputs);
    let clean = StepRunner::new(n, seed).run(fleet(n, rounds));
    assert_ne!(clean.outputs, stepped.outputs, "the tap never fired");
}
