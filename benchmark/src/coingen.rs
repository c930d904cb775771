//! The Coin-Gen workloads: one Coin-Gen at a fixed shape, run on the
//! single-threaded `StepRunner` and on the `ParRunner`, with the two
//! transcripts compared before any time is reported.

use std::collections::BTreeMap;
use std::time::Instant;

use dprbg_core::{
    CoinBatch, CoinGenConfig, CoinGenError, CoinGenMachine, CoinGenMsg, CoinWallet, Params,
    SealedShare,
};
use dprbg_field::Field;
use dprbg_metrics::CostReport;
use dprbg_poly::share_polynomial;
use dprbg_rng::rngs::StdRng;
use dprbg_rng::SeedableRng;
use dprbg_sim::{BoxedMachine, ParRunner, RoundProfile, RunResult, StepRunner};

use crate::spans::{self, RoundSpan, Tracer};
use crate::{kernels, median, nproc, percentile, repeat_within, sample_setup, secs, Args, Outcome};

/// A Coin-Gen shape: `n` parties, threshold `t`, `m` coins per run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub t: usize,
    pub m: usize,
}

type Msg<F> = CoinGenMsg<F>;
type Out<F> = (CoinWallet<F>, Result<CoinBatch<F>, CoinGenError>);
type Fleet<F> = Vec<BoxedMachine<Msg<F>, Out<F>>>;

/// Phase labels reported by name (`phase_name()` with `/` mapped to
/// `-`); every other label is charged to `other`.
pub const PHASES: [&str; 9] = [
    "coin-gen-start",
    "bit-gen-challenge",
    "bit-gen-record",
    "bit-gen-combine",
    "gradecast-echo",
    "gradecast-vote",
    "gradecast-decide",
    "expose-decode",
    "ba-adopt",
];

/// The label a phase's metrics are reported under.
pub fn phase_label(phase: &str) -> String {
    let label = phase.replace('/', "-");
    if PHASES.contains(&label.as_str()) {
        label
    } else {
        "other".into()
    }
}

/// Deal the wallets and build one fleet: the workload's only inputs,
/// all drawn from `seed`. Each wallet holds `4 + t` sealed seed coins,
/// enough for the challenge and the BA attempts (as in E13).
fn fleet<F: Field>(shape: Shape, seed: u64) -> Fleet<F> {
    let Shape { n, t, m } = shape;
    let params = Params::p2p_model(n, t).expect("workload shapes satisfy n > 6t");
    let cfg = CoinGenConfig {
        params,
        batch_size: m,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wallets: Vec<CoinWallet<F>> = (0..n).map(|_| CoinWallet::new()).collect();
    for _ in 0..4 + t {
        let poly = share_polynomial(F::random(&mut rng), t, &mut rng);
        for (i, w) in wallets.iter_mut().enumerate() {
            w.push(SealedShare::of(poly.eval(F::element(i as u64 + 1))));
        }
    }
    wallets
        .into_iter()
        .map(|w| Box::new(CoinGenMachine::new(cfg, w)) as _)
        .collect()
}

/// Everything observable about a run that may not depend on the
/// executor or on the repetition: the cost ledger, the round profile and
/// every party's output.
#[derive(Debug, Clone, PartialEq)]
struct Transcript<F: Field> {
    report: CostReport,
    rounds: Vec<RoundProfile>,
    outputs: Vec<Option<Out<F>>>,
}

impl<F: Field> Transcript<F> {
    fn of(res: RunResult<Out<F>>) -> Self {
        Transcript {
            report: res.report,
            rounds: res.rounds,
            outputs: res.outputs,
        }
    }

    /// `None` when every party sealed `m` coins, else the first lack.
    fn lack(&self, m: usize) -> Option<String> {
        self.outputs
            .iter()
            .enumerate()
            .find_map(|(i, out)| match out {
                Some((_, Ok(batch))) if batch.len() == m => None,
                Some((_, Ok(batch))) => Some(format!(
                    "party {} sealed {} coins, not {m}",
                    i + 1,
                    batch.len()
                )),
                Some((_, Err(e))) => Some(format!("party {} failed: {e:?}", i + 1)),
                None => Some(format!("party {} panicked", i + 1)),
            })
    }
}

/// Check one run: every party holds `m` coins, and the transcript
/// matches the reference (the other executor, or the first repetition).
fn check_run<F: Field>(
    out: &mut Outcome,
    what: &str,
    run: &Transcript<F>,
    reference: &Transcript<F>,
    m: usize,
) {
    out.attempted += 1;
    if let Some(lack) = run.lack(m) {
        out.check(false, || format!("{what}: {lack}"));
    } else {
        out.check(run == reference, || {
            format!("{what}: transcript differs from the reference run")
        });
    }
}

pub fn run<F: Field>(args: &Args, shape: Shape, tracer: Option<&mut Tracer>) -> Outcome {
    match tracer {
        None => untraced::<F>(args, shape),
        Some(tr) => traced::<F>(args, shape, tr),
    }
}

fn step_runner<F: Field>(shape: Shape, seed: u64) -> StepRunner<Msg<F>> {
    StepRunner::new(shape.n, seed)
}

fn par_runner<F: Field>(shape: Shape, seed: u64) -> ParRunner<Msg<F>> {
    ParRunner::new(shape.n, seed).with_threads(nproc())
}

/// The end-to-end run: Coin-Gen on both executors, repeated on the same
/// seed while the time budget lasts.
fn untraced<F: Field>(args: &Args, shape: Shape) -> Outcome {
    let mut out = Outcome::default();
    let seed = args.seed;
    let mut setup = Vec::new();
    sample_setup(&mut setup, || fleet::<F>(shape, seed));

    // An untimed warm-up pair lets caches and the allocator settle; its
    // StepRunner transcript is the reference every timed run must match.
    let reference = Transcript::of(step_runner::<F>(shape, seed).run(fleet::<F>(shape, seed)));
    let warm_par = args
        .pin
        .unpinned(|| par_runner::<F>(shape, seed).run(fleet::<F>(shape, seed)));
    let warm_par = Transcript::of(warm_par);
    check_run(
        &mut out,
        "warm-up StepRunner",
        &reference,
        &reference,
        shape.m,
    );
    check_run(
        &mut out,
        "warm-up ParRunner",
        &warm_par,
        &reference,
        shape.m,
    );
    drop(warm_par);

    let (mut step_s, mut par_s) = (Vec::new(), Vec::new());
    repeat_within(args.seconds, || {
        sample_setup(&mut setup, || fleet::<F>(shape, seed));
        let machines = fleet::<F>(shape, seed);
        let t0 = Instant::now();
        let stepped = step_runner::<F>(shape, seed).run(machines);
        step_s.push(secs(t0));

        let machines = fleet::<F>(shape, seed);
        let t0 = Instant::now();
        let parallel = args
            .pin
            .unpinned(|| par_runner::<F>(shape, seed).run(machines));
        par_s.push(secs(t0));

        let stepped = Transcript::of(stepped);
        check_run(&mut out, "StepRunner", &stepped, &reference, shape.m);
        check_run(
            &mut out,
            "ParRunner",
            &Transcript::of(parallel),
            &stepped,
            shape.m,
        );
        sample_setup(&mut setup, || fleet::<F>(shape, seed));
    });

    let coin_gen_s = median(&mut step_s);
    out.metric("setup_s", median(&mut setup), "s");
    out.metric("coin_gen_s", coin_gen_s, "s");
    out.metric("coin_gen_par_s", median(&mut par_s), "s");
    out.metric("coins_served_per_s", shape.m as f64 / coin_gen_s, "1/s");
    // One Coin-Gen is one epoch of a beacon's gen plane: its latency
    // percentiles are those of the StepRunner runs.
    out.metric("epoch_p50_ms", coin_gen_s * 1e3, "ms");
    out.metric("epoch_p99_ms", percentile(&mut step_s, 99.0) * 1e3, "ms");
    out
}

/// Busy time, calls and consumed inbox messages of one phase label.
#[derive(Debug, Default, Clone, Copy)]
struct PhaseStat {
    busy_s: f64,
    calls: u64,
    inbox_msgs: u64,
}

fn phase_stats(parties: &[Vec<RoundSpan>]) -> BTreeMap<String, PhaseStat> {
    let mut stats: BTreeMap<String, PhaseStat> = BTreeMap::new();
    for s in parties.iter().flatten() {
        let e = stats.entry(phase_label(s.phase)).or_default();
        e.busy_s += (s.end - s.start).as_secs_f64();
        e.calls += 1;
        e.inbox_msgs += s.inbox as u64;
    }
    stats
}

/// One traced run: every machine wrapped in a round timer, the executor
/// call recorded as a `sim` span and each `round()` call as a `phase`
/// span beneath it. Returns the transcript, per-party spans and wall time.
fn traced_run<F: Field>(
    tr: &mut Tracer,
    name: &str,
    shape: Shape,
    seed: u64,
    run: impl FnOnce(Fleet<F>) -> RunResult<Out<F>>,
) -> (Transcript<F>, Vec<Vec<RoundSpan>>, f64) {
    let (machines, sinks): (Fleet<F>, Vec<_>) = fleet::<F>(shape, seed)
        .into_iter()
        .map(spans::timed)
        .unzip();
    let start = Instant::now();
    let res = run(machines);
    let end = Instant::now();
    let id = tr.record("sim", name, Tracer::ROOT, start, end);
    let parties: Vec<Vec<RoundSpan>> = sinks.iter().map(spans::drain).collect();
    for (p, rounds) in parties.iter().enumerate() {
        for s in rounds {
            tr.record(
                "phase",
                format!("{}#p{}", s.phase, p + 1),
                id,
                s.start,
                s.end,
            );
        }
    }
    (Transcript::of(res), parties, (end - start).as_secs_f64())
}

/// The per-layer run: kernel timings at this shape, then one untraced and
/// one traced Coin-Gen on each executor.
fn traced<F: Field>(args: &Args, shape: Shape, tr: &mut Tracer) -> Outcome {
    let seed = args.seed;
    let mut out = kernels::run::<F>(shape.n, shape.t, seed, tr);

    // A warm-up run, then the untraced baseline the traced run is
    // compared with: neither measured run pays first-touch costs.
    let mut plain_s = 0.0;
    let mut plain = None;
    for name in ["warm-up", "step-run-untraced"] {
        let machines = fleet::<F>(shape, seed);
        let t0 = Instant::now();
        let res = step_runner::<F>(shape, seed).run(machines);
        let end = Instant::now();
        tr.record("baseline", name, Tracer::ROOT, t0, end);
        plain_s = (end - t0).as_secs_f64();
        plain = Some(Transcript::of(res));
    }
    let plain = plain.expect("the baseline loop runs");

    let (stepped, step_spans, step_wall) = traced_run::<F>(tr, "step-run", shape, seed, |f| {
        step_runner::<F>(shape, seed).run(f)
    });
    let (parallel, par_spans, _) = traced_run::<F>(tr, "par-run", shape, seed, |f| {
        args.pin.unpinned(|| par_runner::<F>(shape, seed).run(f))
    });
    check_run(&mut out, "traced StepRunner", &stepped, &plain, shape.m);
    check_run(&mut out, "traced ParRunner", &parallel, &plain, shape.m);

    let phases = phase_stats(&step_spans);
    let par_phases = phase_stats(&par_spans);
    let counts = |p: &BTreeMap<String, PhaseStat>| -> Vec<(String, u64, u64)> {
        p.iter()
            .map(|(k, s)| (k.clone(), s.calls, s.inbox_msgs))
            .collect()
    };
    out.check(counts(&phases) == counts(&par_phases), || {
        "phase call/inbox counts differ between StepRunner and ParRunner".into()
    });

    let machine_s: f64 = phases.values().map(|s| s.busy_s).sum();
    out.check(machine_s <= step_wall, || {
        "round() time exceeds the run's wall time".into()
    });
    for label in PHASES {
        let s = phases.get(label).copied().unwrap_or_default();
        out.metric(format!("phase.{label}.busy_s"), s.busy_s, "s");
        out.metric(format!("phase.{label}.calls"), s.calls as f64, "count");
        out.metric(
            format!("phase.{label}.inbox_msgs"),
            s.inbox_msgs as f64,
            "count",
        );
    }
    out.metric(
        "phase.other.busy_s",
        phases.get("other").map_or(0.0, |s| s.busy_s),
        "s",
    );
    out.metric("sim.machine_s", machine_s, "s");
    out.metric("sim.executor_s", step_wall - machine_s, "s");
    out.metric(
        "sim.executor_frac",
        (step_wall - machine_s) / step_wall,
        "ratio",
    );

    let total = plain.report.total();
    let comm = plain.report.comm;
    out.metric("field.adds", total.field_adds as f64, "count");
    out.metric("field.muls", total.field_muls as f64, "count");
    out.metric("field.invs", total.field_invs as f64, "count");
    out.metric("poly.interpolations", total.interpolations as f64, "count");
    out.metric("sim.messages", comm.messages as f64, "count");
    out.metric("sim.bytes", comm.bytes as f64, "count");
    out.metric("sim.rounds", comm.rounds as f64, "count");
    out.metric(
        "bench.trace_overhead_frac",
        step_wall / plain_s - 1.0,
        "ratio",
    );
    out
}
