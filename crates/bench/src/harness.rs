//! The in-tree wall-clock timing harness: a criterion-compatible surface
//! over a warmup + median-of-K measurement loop.
//!
//! The workspace's primary reproduction evidence is the *model-cost*
//! experiment suite (`experiments::*`, counted in the paper's own units);
//! the `benches/` targets supply supplementary wall-clock shape evidence.
//! For that, a dependency-free harness is enough — and unlike criterion it
//! is hermetic (no registry access) and emits line-oriented JSON that
//! `bin/report.rs --timing` renders back into the workspace's table format.
//!
//! Measurement protocol, per benchmark:
//!
//! 1. **Calibrate**: run the closure until it has consumed ~1 ms to pick an
//!    iteration count putting each sample in the target window.
//! 2. **Warm up** for a fixed budget (caches, branch predictors, allocator).
//! 3. **Sample** K batches (default 20, `sample_size(n)` to override), each
//!    timing `iters` closure runs; the per-iteration nanosecond figure of a
//!    batch is `elapsed / iters`.
//! 4. **Report** the median across batches (robust to scheduler noise),
//!    plus mean/min/max and optional [`Throughput`]-derived rates.
//!
//! `DPRBG_BENCH_QUICK=1` shrinks every budget (CI smoke runs);
//! `DPRBG_BENCH_JSON=<path>` appends each record as a JSON line.

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Declared work per iteration, for rate reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many logical elements (coins, shares, …).
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

/// A benchmark identifier, optionally parameterized (`name/param`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id with an explicit function name and parameter.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId { name: format!("{name}/{param}") }
    }

    /// An id that is just the parameter (criterion's group-local form).
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId { name: param.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { name: s.to_string() }
    }
}

impl From<&String> for BenchmarkId {
    fn from(s: &String) -> Self {
        BenchmarkId { name: s.clone() }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { name }
    }
}

/// One measured benchmark, as serialized to the JSON report.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Owning group name: the [`BenchmarkGroup`] name, or the
    /// `criterion_group!` label for a top-level `bench_function` call.
    pub group: String,
    /// Benchmark name within the group.
    pub name: String,
    /// Median per-iteration time across samples.
    pub median_ns: u128,
    /// Mean per-iteration time across samples.
    pub mean_ns: u128,
    /// Fastest sample's per-iteration time.
    pub min_ns: u128,
    /// Slowest sample's per-iteration time.
    pub max_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
    /// Closure invocations per sample.
    pub iters_per_sample: u64,
    /// Declared per-iteration work, if any.
    pub throughput: Option<Throughput>,
}

impl BenchRecord {
    /// Elements (or bytes) processed per second at the median, if a
    /// throughput was declared.
    pub fn rate_per_sec(&self) -> Option<f64> {
        let units = match self.throughput? {
            Throughput::Elements(n) | Throughput::Bytes(n) => n,
        };
        if self.median_ns == 0 {
            return None;
        }
        Some(units as f64 * 1e9 / self.median_ns as f64)
    }

    /// Serialize as one JSON object on one line.
    pub fn to_json_line(&self) -> String {
        let (te, tb) = match self.throughput {
            Some(Throughput::Elements(n)) => (n.to_string(), "null".into()),
            Some(Throughput::Bytes(n)) => ("null".into(), n.to_string()),
            None => ("null".into(), "null".to_string()),
        };
        format!(
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"median_ns\":{},\"mean_ns\":{},\
             \"min_ns\":{},\"max_ns\":{},\"samples\":{},\"iters_per_sample\":{},\
             \"throughput_elems\":{},\"throughput_bytes\":{}}}",
            escape_json(&self.group),
            escape_json(&self.name),
            self.median_ns,
            self.mean_ns,
            self.min_ns,
            self.max_ns,
            self.samples,
            self.iters_per_sample,
            te,
            tb,
        )
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Measurement budgets, scaled down under `DPRBG_BENCH_QUICK`.
#[derive(Debug, Clone, Copy)]
struct Budget {
    warmup: Duration,
    sample_target: Duration,
    samples: usize,
}

impl Budget {
    fn new(quick: bool) -> Self {
        if quick {
            Budget {
                warmup: Duration::from_millis(5),
                sample_target: Duration::from_micros(500),
                samples: 10,
            }
        } else {
            Budget {
                warmup: Duration::from_millis(60),
                sample_target: Duration::from_millis(4),
                samples: 20,
            }
        }
    }
}

/// The per-benchmark measurement driver passed to `b.iter(..)` closures.
pub struct Bencher {
    budget: Budget,
    /// Filled by [`Bencher::iter`]: (median, mean, min, max, iters).
    result: Option<(u128, u128, u128, u128, u64)>,
}

impl Bencher {
    /// Time `f`, storing median-of-samples statistics in the bencher.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: how many iterations fit the per-sample target?
        let calib_start = Instant::now();
        let mut calib_iters: u64 = 0;
        while calib_start.elapsed() < Duration::from_millis(1) {
            std::hint::black_box(f());
            calib_iters += 1;
        }
        let per_iter = calib_start.elapsed().as_nanos() / calib_iters.max(1) as u128;
        let iters = (self.budget.sample_target.as_nanos() / per_iter.max(1)).clamp(1, 1_000_000) as u64;

        // Warm up.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.budget.warmup {
            std::hint::black_box(f());
        }

        // Sample.
        let mut per_iter_ns: Vec<u128> = Vec::with_capacity(self.budget.samples);
        for _ in 0..self.budget.samples {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() / iters as u128);
        }
        per_iter_ns.sort_unstable();
        let median = per_iter_ns[per_iter_ns.len() / 2];
        // The mean is computed after IQR outlier rejection: a single
        // scheduler hiccup in one sample should not move the reported
        // center. Median/min/max stay raw (the spread is information).
        let kept = iqr_filter(&per_iter_ns);
        let mean = kept.iter().sum::<u128>() / kept.len() as u128;
        let (min, max) = (per_iter_ns[0], per_iter_ns[per_iter_ns.len() - 1]);
        self.result = Some((median, mean, min, max, iters));
    }
}

/// Tukey-fence outlier rejection: keep samples within
/// `[Q1 − 1.5·IQR, Q3 + 1.5·IQR]`. Returns all samples when fewer than 4
/// exist (quartiles are meaningless) or when the IQR is zero.
///
/// The input need not be sorted; the kept samples are returned in sorted
/// order. Never returns an empty vector for non-empty input (the
/// quartiles themselves always survive their own fences).
pub fn iqr_filter(samples: &[u128]) -> Vec<u128> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    if sorted.len() < 4 {
        return sorted;
    }
    let q1 = sorted[sorted.len() / 4];
    let q3 = sorted[(3 * sorted.len()) / 4];
    let iqr = q3 - q1;
    // Chain the saturations: `iqr + iqr / 2` itself overflows u128 when
    // the spread is extreme, panicking before `saturating_sub/add` can
    // clamp anything.
    let lo = q1.saturating_sub(iqr).saturating_sub(iqr / 2);
    let hi = q3.saturating_add(iqr).saturating_add(iqr / 2);
    sorted.retain(|&s| (lo..=hi).contains(&s));
    sorted
}

/// The mean of the middle `1 − 2·trim_frac` of the samples (e.g.
/// `trim_frac = 0.1` discards the fastest and slowest 10%). An
/// alternative robust center to [`iqr_filter`]-then-mean; `trim_frac`
/// is clamped so at least one sample always remains.
pub fn trimmed_mean(samples: &[u128], trim_frac: f64) -> u128 {
    assert!(!samples.is_empty(), "trimmed mean of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let cut = ((sorted.len() as f64 * trim_frac.clamp(0.0, 0.5)) as usize)
        .min((sorted.len() - 1) / 2);
    let mid = &sorted[cut..sorted.len() - cut];
    mid.iter().sum::<u128>() / mid.len() as u128
}

/// The Wilson score interval: a `(lo, hi)` confidence interval for a
/// binomial proportion after observing `successes` out of `trials`, at
/// critical value `z` (1.96 ≈ 95%, 2.58 ≈ 99%).
///
/// Unlike the naive normal interval, Wilson stays inside `[0, 1]` and
/// gives a non-degenerate bound at 0 observed successes — exactly the
/// regime E12's soundness-error rates live in (the interesting claim is
/// the *upper* bound on an empirically-zero failure rate). `(0.0, 1.0)`
/// when `trials` is zero.
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    assert!(successes <= trials, "more successes than trials");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The top-level harness handle (mirrors `criterion::Criterion`).
pub struct Criterion {
    label: String,
    quick: bool,
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// A harness for one bench binary; `label` names the
    /// `criterion_group!` it runs, and is the group recorded for
    /// [`bench_function`](Self::bench_function).
    pub fn new(label: &str) -> Self {
        let quick = std::env::var("DPRBG_BENCH_QUICK").is_ok_and(|v| v != "0");
        eprintln!("# dprbg bench harness: group `{label}`{}", if quick { " (quick)" } else { "" });
        Criterion { label: label.to_string(), quick, records: Vec::new() }
    }

    /// Benchmark `f` directly under the harness root, recorded under the
    /// `criterion_group!` label.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run_one(self.label.clone(), id.name, None, f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            sample_size: None,
        }
    }

    fn run_one<F>(&mut self, group: String, name: String, cfg: Option<(Option<Throughput>, Option<usize>)>, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let (throughput, sample_size) = cfg.unwrap_or((None, None));
        let mut budget = Budget::new(self.quick);
        if let Some(k) = sample_size {
            budget.samples = k.max(2);
        }
        let mut bencher = Bencher { budget, result: None };
        f(&mut bencher);
        let Some((median_ns, mean_ns, min_ns, max_ns, iters_per_sample)) = bencher.result else {
            eprintln!("warning: benchmark `{name}` never called Bencher::iter");
            return;
        };
        let record = BenchRecord {
            group,
            name,
            median_ns,
            mean_ns,
            min_ns,
            max_ns,
            samples: budget.samples,
            iters_per_sample,
            throughput,
        };
        let path = if record.group.is_empty() {
            record.name.clone()
        } else {
            format!("{}/{}", record.group, record.name)
        };
        let rate = record
            .rate_per_sec()
            .map(|r| format!("  ({r:.0}/s)"))
            .unwrap_or_default();
        println!("{path:<44} median {}{}", format_ns(record.median_ns), rate);
        println!("{}", record.to_json_line());
        self.records.push(record);
    }

    /// Flush the JSON report (called by `criterion_main!`).
    pub fn finalize(&self) {
        let Ok(path) = std::env::var("DPRBG_BENCH_JSON") else {
            return;
        };
        let mut file = match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("warning: cannot open DPRBG_BENCH_JSON={path}: {e}");
                return;
            }
        };
        for r in &self.records {
            let _ = writeln!(file, "{}", r.to_json_line());
        }
        eprintln!("# group `{}`: {} records appended to {path}", self.label, self.records.len());
    }
}

/// Human-readable nanoseconds.
fn format_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// A group of related benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Declare per-iteration work for subsequent benchmarks in the group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark `f` under this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.criterion.run_one(
            self.name.clone(),
            id.name,
            Some((self.throughput, self.sample_size)),
            f,
        );
        self
    }

    /// Benchmark `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        self.criterion.run_one(
            self.name.clone(),
            id.name,
            Some((self.throughput, self.sample_size)),
            |b| f(b, input),
        );
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Parse one [`BenchRecord::to_json_line`] back into a record.
///
/// Only the flat schema emitted by this harness is understood; returns
/// `None` for anything else (blank lines, human-readable output).
pub fn parse_json_line(line: &str) -> Option<BenchRecord> {
    let line = line.trim();
    if !line.starts_with('{') || !line.contains("\"median_ns\"") {
        return None;
    }
    let field_str = |key: &str| -> Option<String> {
        let pat = format!("\"{key}\":\"");
        let start = line.find(&pat)? + pat.len();
        let end = start + line[start..].find('"')?;
        Some(line[start..end].to_string())
    };
    let field_num = |key: &str| -> Option<u128> {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat)? + pat.len();
        let digits: String = line[start..].chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    };
    let throughput = if let Some(n) = field_num("throughput_elems") {
        Some(Throughput::Elements(n as u64))
    } else {
        field_num("throughput_bytes").map(|n| Throughput::Bytes(n as u64))
    };
    Some(BenchRecord {
        group: field_str("group")?,
        name: field_str("bench")?,
        median_ns: field_num("median_ns")?,
        mean_ns: field_num("mean_ns")?,
        min_ns: field_num("min_ns")?,
        max_ns: field_num("max_ns")?,
        samples: field_num("samples")? as usize,
        iters_per_sample: field_num("iters_per_sample")? as u64,
        throughput,
    })
}

/// Define a bench-group function runnable by
/// [`criterion_main!`](crate::criterion_main).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::harness::Criterion::new(stringify!($group));
            $( $target(&mut criterion); )+
            criterion.finalize();
        }
    };
}

/// Define `main()` for a bench binary from its [`criterion_group!`]s.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let rec = BenchRecord {
            group: "vss_single_n7_t2".into(),
            name: "ours".into(),
            median_ns: 123_456,
            mean_ns: 130_000,
            min_ns: 120_000,
            max_ns: 150_000,
            samples: 20,
            iters_per_sample: 40,
            throughput: Some(Throughput::Elements(64)),
        };
        let line = rec.to_json_line();
        let back = parse_json_line(&line).expect("parses");
        assert_eq!(back.group, rec.group);
        assert_eq!(back.name, rec.name);
        assert_eq!(back.median_ns, rec.median_ns);
        assert_eq!(back.samples, rec.samples);
        assert_eq!(back.throughput, rec.throughput);
    }

    #[test]
    fn json_roundtrip_no_throughput() {
        let rec = BenchRecord {
            group: String::new(),
            name: "gf2k_mul/k=32".into(),
            median_ns: 17,
            mean_ns: 18,
            min_ns: 15,
            max_ns: 30,
            samples: 10,
            iters_per_sample: 100_000,
            throughput: None,
        };
        let back = parse_json_line(&rec.to_json_line()).expect("parses");
        assert_eq!(back.throughput, None);
        assert_eq!(back.name, rec.name);
    }

    #[test]
    fn parse_rejects_non_records() {
        assert!(parse_json_line("").is_none());
        assert!(parse_json_line("vss/ours   median 1.2 ms").is_none());
        assert!(parse_json_line("{\"unrelated\":1}").is_none());
    }

    #[test]
    fn rate_uses_median() {
        let rec = BenchRecord {
            group: "g".into(),
            name: "b".into(),
            median_ns: 1_000,
            mean_ns: 1_000,
            min_ns: 1_000,
            max_ns: 1_000,
            samples: 2,
            iters_per_sample: 1,
            throughput: Some(Throughput::Elements(5)),
        };
        assert_eq!(rec.rate_per_sec(), Some(5e6));
    }

    #[test]
    fn bencher_measures_something() {
        std::env::set_var("DPRBG_BENCH_QUICK", "1");
        let mut c = Criterion::new("harness_selftest");
        c.bench_function("noop_sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>())
        });
        assert_eq!(c.records.len(), 1);
        assert!(c.records[0].median_ns > 0 || c.records[0].iters_per_sample > 0);
    }

    #[test]
    fn top_level_benches_record_the_group_label() {
        std::env::set_var("DPRBG_BENCH_QUICK", "1");
        let mut c = Criterion::new("e8");
        c.bench_function("gf2k_mul/k=8", |b| b.iter(|| 3u8.wrapping_mul(5)));
        c.benchmark_group("named").bench_function("inner", |b| b.iter(|| 1u8));
        let groups: Vec<&str> = c.records.iter().map(|r| r.group.as_str()).collect();
        assert_eq!(groups, ["e8", "named"]);
        let back = parse_json_line(&c.records[0].to_json_line()).expect("parses");
        assert_eq!((back.group.as_str(), back.name.as_str()), ("e8", "gf2k_mul/k=8"));
    }

    #[test]
    fn quick_escape_handles_specials() {
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn iqr_filter_rejects_the_scheduler_hiccup() {
        // 19 well-behaved samples and one 100× outlier.
        let mut samples: Vec<u128> = (100..119).collect();
        samples.push(10_000);
        let kept = iqr_filter(&samples);
        assert_eq!(kept.len(), 19);
        assert!(!kept.contains(&10_000));
        // Tiny inputs come back whole.
        assert_eq!(iqr_filter(&[5, 1_000_000]), vec![5, 1_000_000]);
        // Uniform inputs survive intact (zero IQR keeps the value itself).
        assert_eq!(iqr_filter(&[7; 8]), vec![7; 8]);
    }

    #[test]
    fn iqr_filter_survives_extreme_spread() {
        // Regression: `q1.saturating_sub(iqr + iqr / 2)` computed the
        // fence offset *before* saturating, so a near-u128::MAX spread
        // overflowed in the addition and panicked in debug builds.
        let samples = [0u128, 1, u128::MAX - 1, u128::MAX];
        let kept = iqr_filter(&samples);
        assert!(!kept.is_empty());
        assert!(kept.iter().all(|s| samples.contains(s)));
        // Empty input comes back empty rather than panicking.
        assert_eq!(iqr_filter(&[]), Vec::<u128>::new());
    }

    #[test]
    fn trimmed_mean_is_robust() {
        let mut samples: Vec<u128> = vec![10; 18];
        samples.push(1);
        samples.push(1_000_000);
        let tm = trimmed_mean(&samples, 0.1);
        assert_eq!(tm, 10);
        // Zero trim is the plain mean.
        assert_eq!(trimmed_mean(&[1, 2, 3], 0.0), 2);
        // A single sample survives any trim fraction.
        assert_eq!(trimmed_mean(&[42], 0.5), 42);
    }

    #[test]
    fn wilson_interval_brackets_sensibly() {
        // 0 failures in 200 trials at 95%: lower bound 0, upper ≈ 1.9%.
        let (lo, hi) = wilson_interval(0, 200, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.015 && hi < 0.025, "upper bound {hi}");
        // Symmetric case contains the point estimate.
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(lo > 0.39 && hi < 0.61);
        // All successes at high confidence still below 1.
        let (_, hi) = wilson_interval(100, 100, 2.58);
        assert!(hi <= 1.0);
        // Degenerate trials.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn bencher_mean_survives_iqr_rejection() {
        // The mean stored by iter() is computed over IQR-kept samples, so
        // it stays within the raw min/max envelope.
        std::env::set_var("DPRBG_BENCH_QUICK", "1");
        let mut c = Criterion::new("harness_stats_selftest");
        c.bench_function("sum1k", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        let r = &c.records[0];
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
    }
}
