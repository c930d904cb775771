//! Field and polynomial kernel timings at a workload's (n, t, K), each
//! cross-checked against its reference implementation.

use std::hint::black_box;
use std::time::Instant;

use dprbg_field::{clmul, Field};
use dprbg_poly::{bw_decode, interpolate, BatchDecoder, Poly};
use dprbg_rng::rngs::StdRng;
use dprbg_rng::{RngExt, SeedableRng};

use crate::spans::Tracer;
use crate::{median, Outcome};

/// Each kernel is timed this many times and the median kept.
const REPS: usize = 7;

/// Median over [`REPS`] timings of `body`, divided by `per` operations.
fn per_op(per: usize, mut body: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_secs_f64() / per as f64
        })
        .collect();
    median(&mut samples)
}

fn nonzero<F: Field>(rng: &mut StdRng) -> F {
    loop {
        let x = F::random(rng);
        if !x.is_zero() {
            return x;
        }
    }
}

/// Time the kernels for an `n`-party, threshold-`t` code over `F`, and
/// record one `kernels` span under the workload root.
pub fn run<F: Field>(n: usize, t: usize, seed: u64, tr: &mut Tracer) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B45_524E);

    // Field multiply through the operator (ledger counting included): a
    // dependent chain, so this is latency per op.
    const MULS: usize = 1 << 20;
    let (a0, b) = (nonzero::<F>(&mut rng), nonzero::<F>(&mut rng));
    let mul_s = per_op(MULS, || {
        let mut a = a0;
        for _ in 0..MULS {
            a = black_box(a * b);
        }
        black_box(a);
    });
    out.metric("field.mul_ns", mul_s * 1e9, "ns");

    // The raw carry-less multiply under the same dependent chain.
    let (c0, d) = (rng.random::<u64>(), rng.random::<u64>() | 1);
    let clmul_s = per_op(MULS, || {
        let mut c = c0;
        for _ in 0..MULS {
            let p = clmul::clmul(black_box(c), d);
            c = (p as u64) ^ ((p >> 64) as u64) ^ 1;
        }
        black_box(c);
    });
    out.metric("field.clmul_ns", clmul_s * 1e9, "ns");
    let clmul_ok = (0..4096).all(|_| {
        let (x, y) = (rng.random::<u64>(), rng.random::<u64>());
        clmul::clmul(x, y) == clmul::clmul_portable(x, y)
    });
    out.attempted += 1;
    out.check(clmul_ok, || {
        format!(
            "clmul ({}) disagrees with clmul_portable",
            clmul::backend_name()
        )
    });

    // Inversion over a fixed set of nonzero elements.
    let elems: Vec<F> = (0..1024).map(|_| nonzero(&mut rng)).collect();
    const INV_ROUNDS: usize = 16;
    let mut inv_ok = true;
    let inv_s = per_op(INV_ROUNDS * elems.len(), || {
        for _ in 0..INV_ROUNDS {
            for &x in &elems {
                inv_ok &= black_box(x).inv().is_some_and(|y| y * x == F::one());
            }
        }
    });
    out.metric("field.inv_ns", inv_s * 1e9, "ns");
    out.attempted += 1;
    out.check(inv_ok, || "a field inverse failed x * inv(x) == 1".into());

    // Polynomial kernels over the workload's abscissas 1..=n.
    let xs: Vec<F> = (1..=n as u64).map(F::element).collect();
    let poly = Poly::random(t, &mut rng);
    const EVAL_ROUNDS: usize = 4096;
    let eval_s = per_op(EVAL_ROUNDS * n, || {
        let mut acc = F::zero();
        for _ in 0..EVAL_ROUNDS {
            for &x in &xs {
                acc += poly.eval(black_box(x));
            }
        }
        black_box(acc);
    });
    out.metric("poly.eval_ns", eval_s * 1e9, "ns");

    let points: Vec<(F, F)> = xs[..=t].iter().map(|&x| (x, poly.eval(x))).collect();
    const INTERPOLATIONS: usize = 1024;
    let mut interp_ok = true;
    let interp_s = per_op(INTERPOLATIONS, || {
        for _ in 0..INTERPOLATIONS {
            interp_ok &= interpolate(black_box(&points)).is_ok_and(|p| p == poly);
        }
    });
    out.metric("poly.interpolate_us", interp_s * 1e6, "us");
    out.attempted += 1;
    out.check(interp_ok, || {
        "interpolate did not recover the sampled polynomial".into()
    });

    // Batch decoding: half the words carry the most errors the code
    // corrects, so both the fast path and the full decode are timed.
    let e_max = (n - t - 1) / 2;
    const WORDS: usize = 128;
    let mut polys = Vec::with_capacity(WORDS);
    let words: Vec<Vec<F>> = (0..WORDS)
        .map(|w| {
            let p = Poly::random(t, &mut rng);
            let mut ys: Vec<F> = xs.iter().map(|&x| p.eval(x)).collect();
            if w % 2 == 1 {
                for _ in 0..e_max {
                    let i = rng.random_range(0..n);
                    ys[i] += nonzero::<F>(&mut rng);
                }
            }
            polys.push(p);
            ys
        })
        .collect();
    let decoder = BatchDecoder::new(&xs, t, e_max).expect("distinct abscissas, n > t");
    let mut decoded = Vec::new();
    let decode_s = per_op(WORDS, || decoded = decoder.decode_many(black_box(&words)));
    out.metric("poly.decode_word_ns", decode_s * 1e9, "ns");
    let reference: Vec<_> = words
        .iter()
        .map(|ys| {
            let pts: Vec<(F, F)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            bw_decode(&pts, t, e_max)
        })
        .collect();
    out.attempted += 1;
    out.check(decoded == reference, || {
        "BatchDecoder disagrees with bw_decode".into()
    });
    out.attempted += 1;
    out.check(
        decoded
            .iter()
            .zip(&polys)
            .all(|(d, p)| d.as_ref().is_ok_and(|d| d == p)),
        || "BatchDecoder did not recover every word".into(),
    );

    tr.record("kernels", "kernels", Tracer::ROOT, start, Instant::now());
    out
}
