//! The beacon soak: the E15 first leg — a `BeaconService` driven for
//! 1000 epochs under the composite fault plan (crashes restored from
//! boundary snapshots, consumer stampedes, adversary epochs), with a
//! snapshot at every epoch boundary and one caller in a closed loop.

use std::time::Instant;

use dprbg_beacon::{BeaconConfig, BeaconService, BeaconStats, ExecutorKind, ReservoirConfig};
use dprbg_core::{CoinGenConfig, Params, RetryPolicy};
use dprbg_field::Gf2k;
use dprbg_metrics::CostReport;
use dprbg_sim::{EpochFault, SoakPlan};

use crate::spans::Tracer;
use crate::{kernels, median, nproc, percentile, repeat_within, sample_setup, secs, Args, Outcome};

/// Mean of the middle half of a sample (sorts it); 0 for an empty one.
fn interquartile_mean(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let q = xs.len() / 4;
    let mid = &xs[q..xs.len() - q];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

type F32 = Gf2k<32>;

const EPOCHS: u64 = 1000;
const FAULT_PERIOD: u64 = 7;
/// Fault plans soaked per run (see [`plan_seeds`]).
const PLANS: u64 = 4;
/// Sealed coins dealt to the wallets before epoch 0.
const INITIAL_COINS: usize = 12;

/// E15's working point: n = 7, t = 1, M = 8 over GF(2^32).
fn config() -> BeaconConfig {
    BeaconConfig {
        coin_gen: CoinGenConfig {
            params: Params::p2p_model(7, 1).expect("7 > 6t for t = 1"),
            batch_size: 8,
        },
        reservoir: ReservoirConfig {
            capacity: 16,
            low_water: 4,
        },
        wallet_low_water: 6,
        retry: RetryPolicy {
            max_attempts: 3,
            seed_budget: 12,
        },
        max_backoff_exp: 3,
        max_rounds_per_epoch: 4096,
    }
}

/// E15's demand schedule: two steady consumers, a pure function of the
/// epoch number.
fn base_demands(epoch: u64) -> Vec<(u32, u32)> {
    vec![(1, 1), (2, 1 + (epoch % 2) as u32)]
}

/// What one soak measured and left behind.
struct Soak {
    /// Service creation to the end of the last epoch.
    wall_s: f64,
    /// `run_epoch` latency per epoch, tagged `true` for gen epochs (a
    /// Coin-Gen refill ran) and `false` for serve-only ones.
    epochs: Vec<(bool, f64)>,
    snapshot_s: Vec<f64>,
    restore_s: Vec<f64>,
    stats: BeaconStats,
    ledger: CostReport,
    final_snapshot: Vec<u8>,
    /// Epochs that returned `BeaconError::Unsound` (the soak stops).
    unsound: u64,
    /// Epochs after which `coins_exposed != coins_served + stock`.
    conservation_breaks: u64,
    /// Whether snapshot → restore → snapshot gave identical bytes at the end.
    round_trip_ok: bool,
    /// A restore that failed, if any (the soak stops).
    restore_error: Option<String>,
}

impl Soak {
    fn draws(&self) -> u64 {
        self.stats.coins_served + self.stats.would_block + self.stats.starved
    }

    fn latencies(&self, gen: Option<bool>) -> Vec<f64> {
        self.epochs
            .iter()
            .filter(|(g, _)| gen.is_none_or(|want| *g == want))
            .map(|e| e.1)
            .collect()
    }
}

/// Drive one service through the soak on `executor`; with a tracer,
/// record an `epoch/gen` or `epoch/serve` span per epoch with its
/// boundary snapshot (and crash restore) as children.
fn soak(seed: u64, executor: ExecutorKind, mut tracer: Option<&mut Tracer>) -> Soak {
    let cfg = config();
    let plan = SoakPlan::composite(seed, EPOCHS, FAULT_PERIOD);
    let started = Instant::now();
    let mut svc = BeaconService::<F32>::new(cfg, seed, INITIAL_COINS);
    let mut s = Soak {
        wall_s: 0.0,
        epochs: Vec::with_capacity(EPOCHS as usize),
        snapshot_s: Vec::with_capacity(EPOCHS as usize),
        restore_s: Vec::new(),
        stats: BeaconStats::default(),
        ledger: CostReport::default(),
        final_snapshot: Vec::new(),
        unsound: 0,
        conservation_breaks: 0,
        round_trip_ok: false,
        restore_error: None,
    };
    for e in 0..EPOCHS {
        let epoch_start = Instant::now();
        let boundary = svc.snapshot();
        let snap_end = Instant::now();
        s.snapshot_s.push((snap_end - epoch_start).as_secs_f64());

        let fault = plan.fault_at(e);
        let mut restore = None;
        if let Some(EpochFault::Crash { down_epochs }) = fault {
            drop(svc);
            let t0 = Instant::now();
            svc = match BeaconService::<F32>::restore(cfg, &boundary) {
                Ok(svc) => svc,
                Err(err) => {
                    s.restore_error = Some(format!("epoch {e}: {err:?}"));
                    return s;
                }
            };
            let t1 = Instant::now();
            s.restore_s.push((t1 - t0).as_secs_f64());
            restore = Some((t0, t1));
            svc.note_recovery(down_epochs);
        }
        let mut demands = base_demands(e);
        let mut adversary = None;
        match fault {
            Some(EpochFault::Stampede { demand }) => demands.push((9, demand)),
            Some(EpochFault::Adversary { attack, f }) => adversary = Some((attack, f)),
            _ => {}
        }

        let t0 = Instant::now();
        let result = svc.run_epoch(executor, &demands, adversary);
        let end = Instant::now();
        let Ok(report) = result else {
            s.unsound += 1;
            break;
        };
        let gen = report.refill.is_some();
        s.epochs.push((gen, (end - t0).as_secs_f64()));
        let st = svc.stats();
        if st.coins_exposed != st.coins_served + svc.reservoir().level() as u64 {
            s.conservation_breaks += 1;
        }
        if let Some(tr) = tracer.as_deref_mut() {
            let id = tr.record(
                "beacon",
                if gen { "epoch/gen" } else { "epoch/serve" },
                Tracer::ROOT,
                epoch_start,
                end,
            );
            tr.record("beacon.snapshot", "snapshot", id, epoch_start, snap_end);
            if let Some((a, b)) = restore {
                tr.record("beacon.restore", "restore", id, a, b);
            }
        }
    }
    s.wall_s = secs(started);
    s.stats = svc.stats();
    s.ledger = svc.ledger().clone();
    s.final_snapshot = svc.snapshot();
    let t0 = Instant::now();
    match BeaconService::<F32>::restore(cfg, &s.final_snapshot) {
        Ok(restored) => {
            s.restore_s.push(secs(t0));
            s.round_trip_ok = restored.snapshot() == s.final_snapshot;
        }
        Err(err) => s.restore_error = Some(format!("final snapshot: {err:?}")),
    }
    s
}

/// Check one soak: no unsound epoch, no starved draw, conservation after
/// every epoch, a byte-identical snapshot round trip, and the same final
/// state as the reference soak (the other executor, or the first
/// repetition).
fn check_soak(out: &mut Outcome, what: &str, s: &Soak, reference: &Soak) {
    out.attempted += s.draws();
    out.check(s.unsound == 0, || format!("{what}: unsound epoch"));
    out.check(s.restore_error.is_none(), || {
        format!("{what}: restore failed: {:?}", s.restore_error)
    });
    out.check(s.conservation_breaks == 0, || {
        format!(
            "{what}: coins_exposed != coins_served + reservoir level after {} epochs",
            s.conservation_breaks
        )
    });
    out.check(s.round_trip_ok, || {
        format!("{what}: snapshot -> restore -> snapshot changed the bytes")
    });
    out.check(s.stats.epochs == EPOCHS, || {
        format!("{what}: soak ended after {} epochs", s.stats.epochs)
    });
    out.check(
        s.final_snapshot == reference.final_snapshot
            && s.stats == reference.stats
            && s.ledger == reference.ledger,
        || format!("{what}: final state differs from the reference soak"),
    );
    if s.stats.starved > 0 {
        // Every starved draw is a failed operation.
        out.failed += s.stats.starved;
        out.problems
            .push(format!("{what}: {} draws starved", s.stats.starved));
    }
}

pub fn run(args: &Args, tracer: Option<&mut Tracer>) -> Outcome {
    match tracer {
        None => untraced(args),
        Some(tr) => traced(args, tr),
    }
}

/// The fault plans of one run: `PLANS` soaks seeded `seed * PLANS + i`.
/// Plans differ in their fault mix and gen-epoch count, so one run
/// covers several to keep its figures from hinging on one plan.
fn plan_seeds(seed: u64) -> Vec<u64> {
    (0..PLANS)
        .map(|i| seed.wrapping_mul(PLANS).wrapping_add(i))
        .collect()
}

/// The end-to-end run: the plans soaked in turn on the StepRunner (every
/// soak metric) and again on the ParRunner (gen-epoch latency and
/// parity) while the time budget lasts.
fn untraced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let new_service = || BeaconService::<F32>::new(config(), args.seed, INITIAL_COINS);
    let mut setup = Vec::new();
    sample_setup(&mut setup, new_service);

    // An untimed warm-up soak lets caches and the allocator settle. It,
    // or else the first timed Step soak of a plan, is the reference every
    // later soak of that plan must match.
    let seeds = plan_seeds(args.seed);
    let warm = soak(seeds[0], ExecutorKind::Step, None);
    check_soak(&mut out, "warm-up soak", &warm, &warm);
    let mut references: Vec<Option<Soak>> = seeds.iter().map(|_| None).collect();
    references[0] = Some(warm);

    // The plans take turns, one Step and one Par soak per iteration, so
    // the budget is filled at the grain of one plan.
    let par = ExecutorKind::ParThreads(nproc());
    let (mut step_gen, mut par_gen, mut all) = (vec![], vec![], vec![]);
    let (mut served, mut wall) = (0u64, 0.0f64);
    let mut turn = 0;
    repeat_within(args.seconds, || {
        let plan = turn % seeds.len();
        turn += 1;
        sample_setup(&mut setup, new_service);
        let stepped = soak(seeds[plan], ExecutorKind::Step, None);
        let parallel = args.pin.unpinned(|| soak(seeds[plan], par, None));
        let reference = references[plan].as_ref().unwrap_or(&stepped);
        check_soak(&mut out, "Step soak", &stepped, reference);
        check_soak(&mut out, "Par soak", &parallel, &stepped);
        step_gen.extend(stepped.latencies(Some(true)));
        par_gen.extend(parallel.latencies(Some(true)));
        all.extend(stepped.latencies(None));
        served += stepped.stats.coins_served;
        wall += stepped.wall_s;
        references[plan].get_or_insert(stepped);
    });

    // Gen-epoch latency has two modes, so its median can jump between
    // them from run to run. The interquartile mean moves smoothly with
    // the mix and ignores the scheduling outliers of the parallel
    // executor's tiny fleets.
    out.metric("setup_s", median(&mut setup), "s");
    out.metric("coin_gen_s", interquartile_mean(&mut step_gen), "s");
    out.metric("coin_gen_par_s", interquartile_mean(&mut par_gen), "s");
    out.metric("coins_served_per_s", served as f64 / wall, "1/s");
    out.metric("epoch_p50_ms", percentile(&mut all, 50.0) * 1e3, "ms");
    out.metric("epoch_p99_ms", percentile(&mut all, 99.0) * 1e3, "ms");
    out
}

/// The per-layer run, on the run's first fault plan: kernel timings at
/// the soak's (n, t, K), an untraced soak for the overhead baseline,
/// then the traced soak.
fn traced(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = kernels::run::<F32>(7, 1, args.seed, tr);
    let seed = plan_seeds(args.seed)[0];
    // A warm-up soak, then the untraced baseline the traced soak is
    // compared with: neither measured soak pays first-touch costs.
    let mut plain = None;
    for name in ["warm-up", "soak-untraced"] {
        let t0 = Instant::now();
        plain = Some(soak(seed, ExecutorKind::Step, None));
        tr.record("baseline", name, Tracer::ROOT, t0, Instant::now());
    }
    let plain = plain.expect("the baseline loop runs");
    let traced = soak(seed, ExecutorKind::Step, Some(tr));
    check_soak(&mut out, "untraced soak", &plain, &plain);
    check_soak(&mut out, "traced soak", &traced, &plain);

    let st = traced.stats;
    let exposed = st.coins_exposed.max(1) as f64;
    let total = traced.ledger.total();
    let mut gen = traced.latencies(Some(true));
    let mut serve = traced.latencies(Some(false));
    out.metric("beacon.gen_epoch_ms", median(&mut gen) * 1e3, "ms");
    out.metric("beacon.serve_epoch_us", median(&mut serve) * 1e6, "us");
    out.metric("beacon.gen_epochs", gen.len() as f64, "count");
    out.metric("beacon.serve_epochs", serve.len() as f64, "count");
    out.metric(
        "beacon.snapshot_us",
        median(&mut traced.snapshot_s.clone()) * 1e6,
        "us",
    );
    out.metric(
        "beacon.restore_us",
        median(&mut traced.restore_s.clone()) * 1e6,
        "us",
    );
    out.metric(
        "beacon.snapshot_bytes",
        traced.final_snapshot.len() as f64,
        "bytes",
    );
    out.metric("beacon.refills", st.refills as f64, "count");
    out.metric("beacon.refill_failures", st.refill_failures as f64, "count");
    out.metric("beacon.would_block", st.would_block as f64, "count");
    out.metric("beacon.starved", st.starved as f64, "count");
    out.metric("beacon.rollbacks", st.rollbacks as f64, "count");
    out.metric("beacon.rounds", st.rounds as f64, "count");
    out.metric(
        "beacon.seeds_per_coin",
        st.seeds_spent as f64 / exposed,
        "ratio",
    );
    out.metric(
        "rng.prg_per_coin",
        total.prg_invocations as f64 / exposed,
        "ratio",
    );
    out.metric("field.adds", total.field_adds as f64, "count");
    out.metric("field.muls", total.field_muls as f64, "count");
    out.metric("field.invs", total.field_invs as f64, "count");
    out.metric("poly.interpolations", total.interpolations as f64, "count");
    out.metric("sim.messages", traced.ledger.comm.messages as f64, "count");
    out.metric("sim.bytes", traced.ledger.comm.bytes as f64, "count");
    out.metric("sim.rounds", traced.ledger.comm.rounds as f64, "count");
    out.metric(
        "bench.trace_overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
        "ratio",
    );
    out
}
