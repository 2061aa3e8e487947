//! Columnar (SoA) sampling substrate: deterministic transcendental
//! kernels and the unrolled column passes behind
//! [`Distribution::fill_column`](crate::Distribution::fill_column), and the
//! dispatch that [`trig`](crate::trig)'s column passes (`sin`, `cos`,
//! `asin`, `atan`, `atan2`) share.
//!
//! # Why the math lives here and not in libm
//!
//! The `Uncertain<T>` runtime promises that every execution path — tree
//! walk, columnar kernel, any thread count — draws **bitwise identical**
//! sample streams. A vectorized leaf fill can only
//! keep that promise if the scalar path and the column path perform the
//! *same IEEE-754 operations in the same order per element*. `f64::ln` and
//! `f64::cos` are opaque libm calls: they cannot be inlined into a column
//! loop the autovectorizer can work on, and their exact bit patterns vary
//! across libm implementations. So the sampling transforms use the
//! polynomial kernels below — [`fast_ln`] and [`fast_cos_2pi`] — from
//! *both* the scalar `sample` path and the batched `fill_column` path.
//! They are straight-line `f64` arithmetic (plus exact bit manipulation),
//! which makes the streams portable across platforms and lets the column
//! passes vectorize.
//!
//! # The lane/tail rule
//!
//! Column passes process elements in lanes with a scalar tail: the leaf
//! transforms in explicit 4-lane unrolled groups, the trig passes as plain
//! loops the compiler unrolls itself. Every lane applies exactly the
//! per-element operation sequence of the scalar path — unrolling changes
//! *scheduling*, never the per-element dataflow — so results are bitwise
//! identical for any batch length, including lengths that are not a
//! multiple of the lane width.
//!
//! A pass may leave some elements to a *rare path*. Then a pure function
//! of the element's input decides whether it is rare, the vector pass
//! marks it, and a scalar loop afterwards recomputes each marked element.
//! Its scalar twin is `if rare(x) { slow(x) } else { fast(x) }`, so the
//! rule still holds element by element (see [`trig`](crate::trig)).
//!
//! # The per-index RNG contract
//!
//! `fill_column` draws each element's uniforms from that element's own
//! RNG, in exactly the call order of repeated scalar `sample` calls, and
//! leaves each RNG in the same state. Draws stay serial per index; only
//! the *transform* of the drawn uniforms is batched.
//!
//! # SIMD dispatch
//!
//! On `x86_64` the column passes are compiled twice: once for the baseline
//! target and once under `#[target_feature(enable = "avx2")]`, selected at
//! runtime. Both compilations execute identical IEEE-754 operations (Rust
//! never contracts `a * b + c` into a fused multiply-add on its own), so
//! the selected path never changes results — only throughput. One macro
//! writes both clones of every pass and keeps the baseline body callable,
//! so tests on an AVX2 host run it directly.

use rand::rngs::SmallRng;
use rand::Rng;

// ---------------------------------------------------------------------------
// Deterministic transcendental kernels
// ---------------------------------------------------------------------------

// Written out past f64 precision so the hi/lo split documents the exact
// decomposition; the compiler rounds each to the intended nearest f64.
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_164_90e-1;
#[allow(clippy::excessive_precision)]
const LN2_LO: f64 = 1.908_214_929_270_587_700_02e-10;
/// 2^52: the magic constant for exact small-integer ↔ f64 bit tricks.
const EXP_MAGIC: f64 = 4_503_599_627_370_496.0;

/// Natural log of a **positive, normal** `f64`, accurate to < 5e-16
/// relative error over the sampling domain `(0, 1]`.
///
/// Decomposes `x = 2^e · m` with `m ∈ [√½, √2)`, then evaluates
/// `ln m = 2 atanh(z)` with `z = (m−1)/(m+1)` by its odd series. Every
/// step is either exact bit manipulation or straight-line `f64`
/// arithmetic, so the function is deterministic across platforms and
/// vectorizes when inlined into a column pass. Callers feed it uniforms
/// in `(0, 1]`; subnormal, zero, negative, and non-finite inputs are
/// outside its contract.
#[inline(always)]
pub fn fast_ln(x: f64) -> f64 {
    let bits = x.to_bits();
    // Biased exponent via the 2^52 magic-number trick: stays in the SIMD
    // integer/float domain (no u64 → f64 value conversion, which would
    // block AVX2 vectorization).
    let eb = bits >> 52;
    let ef = f64::from_bits(0x4330_0000_0000_0000 | eb) - (EXP_MAGIC + 1023.0);
    let m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | 0x3FF0_0000_0000_0000);
    let big = m > std::f64::consts::SQRT_2;
    let m = if big { 0.5 * m } else { m };
    let ef = if big { ef + 1.0 } else { ef };
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    // atanh series: z·(1 + z²/3 + z⁴/5 + …); |z| ≤ √2−1 ≈ 0.172 so the
    // truncated tail is ≪ 1 ulp.
    let p = 1.0 / 23.0;
    let p = p * z2 + 1.0 / 21.0;
    let p = p * z2 + 1.0 / 19.0;
    let p = p * z2 + 1.0 / 17.0;
    let p = p * z2 + 1.0 / 15.0;
    let p = p * z2 + 1.0 / 13.0;
    let p = p * z2 + 1.0 / 11.0;
    let p = p * z2 + 1.0 / 9.0;
    let p = p * z2 + 1.0 / 7.0;
    let p = p * z2 + 1.0 / 5.0;
    let p = p * z2 + 1.0 / 3.0;
    let p = p * z2 + 1.0;
    ef * LN2_HI + (2.0 * z * p + ef * LN2_LO)
}

/// `cos(2π·u)` for `u ∈ [0, 1)`, accurate to < 1e-15 absolute error.
///
/// Because `u` is a 53-bit binary fraction, range reduction is **exact**:
/// `q = round(2u) ∈ {0, 1, 2}` and `r = u − q/2` lose no bits, leaving
/// `|2πr| ≤ π/2` for a single even polynomial with the sign `(−1)^q`.
/// The sign is selected with float arithmetic (`1 − 2·(q mod 2)`), again
/// to stay vectorizable; multiplying by `±1.0` is exact.
#[inline(always)]
pub fn fast_cos_2pi(u: f64) -> f64 {
    let q = (2.0 * u + 0.5).floor();
    let r = u - 0.5 * q;
    let y = (2.0 * std::f64::consts::PI) * r;
    let x = y * y;
    // cos(y) Taylor coefficients 1/(2k)!; |y| ≤ π/2 so the x^10 tail is
    // below 1e-15.
    #[allow(clippy::excessive_precision)]
    const C: [f64; 11] = [
        1.0,
        -0.5,
        4.166_666_666_666_666_4e-2,
        -1.388_888_888_888_888_9e-3,
        2.480_158_730_158_730_2e-5,
        -2.755_731_922_398_589_3e-7,
        2.087_675_698_786_81e-9,
        -1.147_074_559_772_972_5e-11,
        4.779_477_332_387_385e-14,
        -1.561_920_696_858_622_5e-16,
        4.110_317_623_312_165e-19,
    ];
    let mut cp = C[10];
    let mut k = 9i32;
    while k >= 0 {
        cp = cp * x + C[k as usize];
        k -= 1;
    }
    let qm = q - 2.0 * (0.5 * q).floor();
    let sign = 1.0 - 2.0 * qm;
    cp * sign
}

// ---------------------------------------------------------------------------
// Column passes (runtime-dispatched SIMD)
// ---------------------------------------------------------------------------

/// Defines a column pass twice over one body: `$base`, the body itself,
/// which a test can call to run the baseline compilation on any host, and
/// `$name`, which runs the body under `#[target_feature(enable = "avx2")]`
/// when the CPU has AVX2 and as `$base` otherwise. The AVX2 clone forces
/// the *same* Rust body inline, so it performs identical IEEE-754
/// operations and stays bitwise-equal to the baseline; the target feature
/// only licenses wider registers for the autovectorizer.
macro_rules! column_pass {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident / $base:ident ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
        $body:block
    ) => {
        #[inline(always)]
        fn $base($($arg: $ty),*) $(-> $ret)? $body

        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $base($($arg),*)
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: calling a `target_feature` function needs
                    // only that the CPU has the feature, just checked.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $base($($arg),*)
        }
    };
}
pub(crate) use column_pass;

column_pass! {
    /// In place: `u1[i] ← mean + sd · √(−2 ln u1[i]) · cos(2π u2[i])` — the
    /// Box–Muller transform over already-drawn uniform columns.
    pub(crate) fn gaussian_transform / gaussian_transform_base(
        u1: &mut [f64],
        u2: &[f64],
        mean: f64,
        sd: f64,
    ) {
        let n = u1.len().min(u2.len());
        let (u1, u2) = (&mut u1[..n], &u2[..n]);
        #[inline(always)]
        fn one(a: f64, b: f64, mean: f64, sd: f64) -> f64 {
            mean + sd * ((-2.0 * fast_ln(a)).sqrt() * fast_cos_2pi(b))
        }
        let mut i = 0;
        while i + 4 <= n {
            let z0 = one(u1[i], u2[i], mean, sd);
            let z1 = one(u1[i + 1], u2[i + 1], mean, sd);
            let z2 = one(u1[i + 2], u2[i + 2], mean, sd);
            let z3 = one(u1[i + 3], u2[i + 3], mean, sd);
            u1[i] = z0;
            u1[i + 1] = z1;
            u1[i + 2] = z2;
            u1[i + 3] = z3;
            i += 4;
        }
        while i < n {
            u1[i] = one(u1[i], u2[i], mean, sd);
            i += 1;
        }
    }
}

column_pass! {
    /// In place: `u[i] ← −ln(u[i]) / rate` — inverse-CDF exponential over a
    /// drawn uniform column.
    pub(crate) fn exponential_transform / exponential_transform_base(u: &mut [f64], rate: f64) {
        let n = u.len();
        let mut i = 0;
        while i + 4 <= n {
            let z0 = -fast_ln(u[i]) / rate;
            let z1 = -fast_ln(u[i + 1]) / rate;
            let z2 = -fast_ln(u[i + 2]) / rate;
            let z3 = -fast_ln(u[i + 3]) / rate;
            u[i] = z0;
            u[i + 1] = z1;
            u[i + 2] = z2;
            u[i + 3] = z3;
            i += 4;
        }
        while i < n {
            u[i] = -fast_ln(u[i]) / rate;
            i += 1;
        }
    }
}

column_pass! {
    /// In place: `u[i] ← scale · √(−2 ln u[i])` — inverse-CDF Rayleigh over a
    /// drawn uniform column.
    pub(crate) fn rayleigh_transform / rayleigh_transform_base(u: &mut [f64], scale: f64) {
        let n = u.len();
        let mut i = 0;
        while i + 4 <= n {
            let z0 = scale * (-2.0 * fast_ln(u[i])).sqrt();
            let z1 = scale * (-2.0 * fast_ln(u[i + 1])).sqrt();
            let z2 = scale * (-2.0 * fast_ln(u[i + 2])).sqrt();
            let z3 = scale * (-2.0 * fast_ln(u[i + 3])).sqrt();
            u[i] = z0;
            u[i + 1] = z1;
            u[i + 2] = z2;
            u[i + 3] = z3;
            i += 4;
        }
        while i < n {
            u[i] = scale * (-2.0 * fast_ln(u[i])).sqrt();
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Draw helpers + scratch
// ---------------------------------------------------------------------------

/// Fills `out` with one `(0, 1]` uniform per RNG — the `1 − gen()` draw
/// shared by the log-based inverse-CDF samplers. Monomorphic over
/// [`SmallRng`], so the whole draw loop inlines (the scalar `sample`
/// path pays a virtual `next_u64` per draw here).
pub(crate) fn draw_open01(rngs: &mut [SmallRng], out: &mut Vec<f64>) {
    out.clear();
    out.extend(rngs.iter_mut().map(|rng| 1.0 - rng.gen::<f64>()));
}

/// Per-call scratch column, thread-local so steady-state batch loops do
/// not allocate.
pub(crate) fn with_scratch<R>(n: usize, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        // `fill_column` implementations never nest, but fall back to a
        // fresh buffer rather than panicking if one ever does.
        match cell.try_borrow_mut() {
            Ok(mut buf) => {
                buf.clear();
                buf.reserve(n);
                f(&mut buf)
            }
            Err(_) => f(&mut Vec::with_capacity(n)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fast_ln_matches_libm_closely() {
        let mut worst = 0.0f64;
        for i in 1..=200_000u64 {
            let u = i as f64 / 200_000.0;
            let rel = ((fast_ln(u) - u.ln()) / u.ln().abs().max(1e-300)).abs();
            worst = worst.max(rel);
        }
        // extreme corners of the sampling domain
        for &u in &[
            f64::MIN_POSITIVE,
            2f64.powi(-53),
            1e-30,
            1.0 - f64::EPSILON,
            1.0,
        ] {
            let rel = (fast_ln(u) - u.ln()).abs() / u.ln().abs().max(1e-16);
            worst = worst.max(rel);
        }
        assert!(worst < 5e-15, "fast_ln max relative error {worst:e}");
    }

    #[test]
    fn fast_cos_2pi_matches_libm_closely() {
        let mut worst = 0.0f64;
        for i in 0..200_000u64 {
            let u = i as f64 / 200_000.0;
            let err = (fast_cos_2pi(u) - (2.0 * std::f64::consts::PI * u).cos()).abs();
            worst = worst.max(err);
        }
        assert!(worst < 5e-15, "fast_cos_2pi max absolute error {worst:e}");
    }

    #[test]
    fn transforms_match_scalar_formula_bitwise_any_length() {
        // Unrolled + dispatched passes, and the baseline bodies an AVX2
        // host otherwise never runs, must equal the scalar per-element
        // formula for lengths around the 4-lane width.
        for n in (0usize..=9).chain([31, 64, 100]) {
            let mut rng = SmallRng::seed_from_u64(n as u64);
            let u1: Vec<f64> = (0..n).map(|_| 1.0 - rng.gen::<f64>()).collect();
            let u2: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();

            let mut g = u1.clone();
            gaussian_transform(&mut g, &u2, 1.5, 2.5);
            let mut gb = u1.clone();
            gaussian_transform_base(&mut gb, &u2, 1.5, 2.5);
            for i in 0..n {
                let want = 1.5 + 2.5 * ((-2.0 * fast_ln(u1[i])).sqrt() * fast_cos_2pi(u2[i]));
                assert_eq!(g[i].to_bits(), want.to_bits(), "gaussian n={n} i={i}");
                assert_eq!(gb[i].to_bits(), want.to_bits(), "gaussian base n={n} i={i}");
            }

            let mut e = u1.clone();
            exponential_transform(&mut e, 0.7);
            let mut eb = u1.clone();
            exponential_transform_base(&mut eb, 0.7);
            for i in 0..n {
                let want = -fast_ln(u1[i]) / 0.7;
                assert_eq!(e[i].to_bits(), want.to_bits(), "exponential n={n} i={i}");
                assert_eq!(
                    eb[i].to_bits(),
                    want.to_bits(),
                    "exponential base n={n} i={i}"
                );
            }

            let mut r = u1.clone();
            rayleigh_transform(&mut r, 3.0);
            let mut rb = u1.clone();
            rayleigh_transform_base(&mut rb, 3.0);
            for i in 0..n {
                let want = 3.0 * (-2.0 * fast_ln(u1[i])).sqrt();
                assert_eq!(r[i].to_bits(), want.to_bits(), "rayleigh n={n} i={i}");
                assert_eq!(rb[i].to_bits(), want.to_bits(), "rayleigh base n={n} i={i}");
            }
        }
    }
}
