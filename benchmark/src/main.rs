//! The dprbg benchmark: seeded workloads that time the shared-coin stack
//! from outside, through the workspace crates' public APIs.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <coingen-wide|coingen-batch|beacon-soak> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! records wall-clock spans around every layer call and reports the
//! per-layer metrics instead. Either way the run checks its outputs and
//! prints, as the last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed check makes the exit code non-zero. Workload rationale,
//! metric definitions and seeds are in `benchmark/README.md`.

mod affinity;
mod coingen;
mod kernels;
mod soak;
mod spans;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::sync::OnceLock;
use std::time::Instant;

use dprbg_field::Gf2k;

/// Where traced runs write their span files, relative to the working
/// directory.
const SPAN_DIR: &str = ".bench_out";

/// One benchmark workload (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CoinGenWide,
    CoinGenBatch,
    BeaconSoak,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "coingen-wide" => Some(Workload::CoinGenWide),
            "coingen-batch" => Some(Workload::CoinGenBatch),
            "beacon-soak" => Some(Workload::BeaconSoak),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CoinGenWide => "coingen-wide",
            Workload::CoinGenBatch => "coingen-batch",
            Workload::BeaconSoak => "beacon-soak",
        }
    }
}

/// The parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    workload: Workload,
    /// The workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement budget: iterations repeat until it is spent.
    pub seconds: f64,
    trace: bool,
    /// The CPU single-threaded work is pinned to.
    pub pin: affinity::Pin,
}

fn parse_args(pin: affinity::Pin) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        pin,
    })
}

/// The end-to-end metrics, printed with `--trace 0` on every workload.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "coin_gen_s",
    "coin_gen_par_s",
    "coins_served_per_s",
    "epoch_p50_ms",
    "epoch_p99_ms",
    "peak_rss_mb",
];

/// The per-layer metrics other than the protocol phases, printed with
/// `--trace 1` on every workload. A layer a workload does not reach from
/// outside reads 0 there (the beacon on a Coin-Gen workload; the phases
/// and machine time inside the beacon's own fleets).
const PER_LAYER: [(&str, &str); 32] = [
    ("field.mul_ns", "ns"),
    ("field.clmul_ns", "ns"),
    ("field.inv_ns", "ns"),
    ("field.adds", "count"),
    ("field.muls", "count"),
    ("field.invs", "count"),
    ("poly.eval_ns", "ns"),
    ("poly.interpolate_us", "us"),
    ("poly.decode_word_ns", "ns"),
    ("poly.interpolations", "count"),
    ("sim.machine_s", "s"),
    ("sim.executor_s", "s"),
    ("sim.executor_frac", "ratio"),
    ("sim.messages", "count"),
    ("sim.bytes", "count"),
    ("sim.rounds", "count"),
    ("beacon.gen_epoch_ms", "ms"),
    ("beacon.serve_epoch_us", "us"),
    ("beacon.gen_epochs", "count"),
    ("beacon.serve_epochs", "count"),
    ("beacon.snapshot_us", "us"),
    ("beacon.restore_us", "us"),
    ("beacon.snapshot_bytes", "bytes"),
    ("beacon.refills", "count"),
    ("beacon.refill_failures", "count"),
    ("beacon.would_block", "count"),
    ("beacon.starved", "count"),
    ("beacon.rollbacks", "count"),
    ("beacon.rounds", "count"),
    ("beacon.seeds_per_coin", "ratio"),
    ("rng.prg_per_coin", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Every per-layer metric with its unit, in report order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for label in coingen::PHASES {
        all.push((format!("phase.{label}.busy_s"), "s"));
        all.push((format!("phase.{label}.calls"), "count"));
        all.push((format!("phase.{label}.inbox_msgs"), "count"));
    }
    all.push(("phase.other.busy_s".into(), "s"));
    all
}

/// Put the metrics in report order, filling a per-layer metric the
/// workload does not reach with 0, and flag any name outside the list.
fn complete(outcome: &mut Outcome, trace: bool) {
    let wanted: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|n| (n.to_string(), "")).collect()
    };
    let mut got = std::mem::take(&mut outcome.metrics);
    for m in &got {
        if !wanted.iter().any(|(n, _)| *n == m.name) {
            outcome
                .problems
                .push(format!("metric {} is not in the benchmark's list", m.name));
        }
    }
    for (name, unit) in wanted {
        match got.iter().position(|m| m.name == name) {
            Some(i) => outcome.metrics.push(got.swap_remove(i)),
            None if trace => outcome.metrics.push(Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => outcome
                .problems
                .push(format!("end-to-end metric {name} was not measured")),
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: its checks and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (Coin-Gen runs, or soak draws).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// A line per failed check, printed to standard error.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a check: a false `ok` counts one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Median of a sample (sorts it); 0 for an empty one.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of a sample (sorts it); 0 for an empty one.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-ups timed at each sampling point of a run.
const SETUP_REPS: usize = 51;

/// Time [`SETUP_REPS`] set-ups one by one (each dropped after its timer
/// stops) and append the seconds each took. A set-up takes microseconds,
/// and on a shared machine one instant can run a third slower than the
/// next, so workloads sample at several points spread over the run and
/// report the median of all samples.
pub fn sample_setup<T>(samples: &mut Vec<f64>, mut build: impl FnMut() -> T) {
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = build();
        samples.push(secs(t0));
        drop(built);
    }
}

/// Run `iteration` once, then again while one more iteration as long
/// as the last one still fits in `seconds` since the start.
pub fn repeat_within(seconds: f64, mut iteration: impl FnMut()) {
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        iteration();
        if secs(started) + secs(t0) > seconds {
            break;
        }
    }
}

/// The process's peak resident set, in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The worker count the parallel executor is given: the CPUs the process
/// may use, read once before the main thread is pinned to one of them.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// First line of a command's standard output, or `unknown`. The child is
/// waited for by `output()`.
fn first_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the working directory, which must be the root of
/// a checkout: git may not search above it, so a copy of the sources that
/// is not a repository reads `unknown`, not an enclosing repository's
/// revision.
fn git_revision() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    first_line(&mut git)
}

/// The environment every result is stamped with.
fn env_stamp(pin: &affinity::Pin) -> String {
    format!(
        "nproc={} pinned_cpu={} git={} rustc=\"{}\" clmul={} profile={}",
        nproc(),
        pin.cpu().map_or("none".to_string(), |c| c.to_string()),
        git_revision(),
        first_line(Command::new("rustc").arg("-V")),
        dprbg_field::clmul::backend_name(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

fn result_json(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed,
    )
}

fn main() -> ExitCode {
    nproc();
    let args = match parse_args(affinity::Pin::highest()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <coingen-wide|coingen-batch|beacon-soak> --seed <u64> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to benchmark a debug build; build with --release");
        return ExitCode::from(3);
    }
    let stamp = env_stamp(&args.pin);
    println!(
        "# env {stamp} workload={} seed={}",
        args.workload.name(),
        args.seed
    );

    let mut tracer = args.trace.then(|| spans::Tracer::new(args.workload.name()));
    let mut outcome = match args.workload {
        Workload::CoinGenWide => coingen::run::<Gf2k<8>>(
            &args,
            coingen::Shape { n: 61, t: 10, m: 4 },
            tracer.as_mut(),
        ),
        Workload::CoinGenBatch => coingen::run::<Gf2k<32>>(
            &args,
            coingen::Shape {
                n: 13,
                t: 2,
                m: 16384,
            },
            tracer.as_mut(),
        ),
        Workload::BeaconSoak => soak::run(&args, tracer.as_mut()),
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => outcome.metric("peak_rss_mb", mb, "MiB"),
            None => outcome.check(false, || "cannot read VmHWM from /proc/self/status".into()),
        }
    }
    if let Some(mut tracer) = tracer {
        tracer.print_self_times();
        let path = format!(
            "{SPAN_DIR}/{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        if let Err(e) = tracer.write_jsonl(&path, &stamp) {
            outcome.check(false, || format!("writing spans to {path}: {e}"));
        } else {
            eprintln!("spans written to {path}");
        }
    }
    complete(&mut outcome, args.trace);
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome
                .problems
                .push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }
    for p in &outcome.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 && outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
