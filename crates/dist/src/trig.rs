//! Portable, vectorisable `sin`, `cos`, `asin`, `atan` and `atan2`: the
//! elementary functions of the columnar kernel's trigonometry and of the
//! tagged lifts that the tree-walk runs.
//!
//! Each is a port of fdlibm as musl libc carries it, written in plain
//! `f64` arithmetic and bit manipulation, so its bits are the same on
//! every host and it vectorises when inlined into a column loop. Every
//! result is within 1 ulp of the exact value (fdlibm's bound, which the
//! tests check against the host libm on millions of points). They are not
//! libm: a few percent of results differ from glibc's, each by 1 ulp.
//!
//! Each function comes twice: a scalar function (`sin`) and a column pass
//! (`sin_column`) under [`column`](crate::column)'s lane/tail rule and AVX2
//! dispatch, which writes `out[i] = sin(x[i])` bit for bit.
//!
//! # The rare-path rule
//!
//! Branches become selects: `asin` and `atan` compute every interval's
//! formula, or its operands, and keep one. `sin`, `cos` and `atan2` have
//! inputs that need more work than a select can afford. For those, a pure
//! function of the input decides whether an element takes the *rare path*:
//!
//! * `sin`/`cos`: |x| ≥ 2^20·π/2, which needs Payne–Hanek reduction, or
//!   musl's own condition for a second Cody–Waite round, cancellation near a
//!   multiple of π/2; also ±∞ and NaN.
//! * `atan2`: either operand ±0, ±∞ or NaN, or |y/x| > 2^64. These follow
//!   C99 Annex F exactly.
//!
//! The scalar function is `if rare(x) { slow(x) } else { fast(x) }`. The
//! column pass computes the common path over the whole column, marks rare
//! elements and ORs their flags; only when the OR is set does a scalar loop
//! recompute the marked elements. So each element's result is a pure
//! function of its input, and neither unrolling nor dispatch changes it.

use crate::column::column_pass;

/// 1.5·2^52: adding and subtracting it rounds to the nearest integer, and
/// the sum keeps that integer's low bits in its own low mantissa bits.
const TOINT: f64 = 1.5 / f64::EPSILON;
/// 2/π to 53 bits.
const INVPIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883);
/// π/2 as three 33-bit parts and their tails (Cody–Waite).
const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
const PIO2_1T: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);
const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
const PIO2_2T: f64 = f64::from_bits(0x3BA3_198A_2E03_7073);
const PIO2_3: f64 = f64::from_bits(0x3BA3_198A_2E00_0000);
const PIO2_3T: f64 = f64::from_bits(0x397B_839A_2520_49C1);
/// π/2 split into a double and its tail.
const PIO2_HI: f64 = f64::from_bits(0x3FF9_21FB_5444_2D18);
const PIO2_LO: f64 = f64::from_bits(0x3C91_A626_3314_5C07);
/// π split into a double and its tail.
const PI: f64 = f64::from_bits(0x4009_21FB_5444_2D18);
const PI_LO: f64 = f64::from_bits(0x3CA1_A626_3314_5C07);

/// High word (sign cleared) at and above which `sin`/`cos` reduce by
/// Payne–Hanek: |x| ≥ 2^20·π/2.
const MEDIUM_LIMIT: u64 = 0x4139_21fb;
const SIGN: u64 = 1 << 63;

/// The high 32 bits of `|x|`, which fdlibm compares against its
/// thresholds.
#[inline(always)]
fn high_word(x: f64) -> u64 {
    (x.to_bits() >> 32) & 0x7fff_ffff
}

/// `x` with its sign flipped when `flip` has bit 63 set.
#[inline(always)]
fn flip_sign(x: f64, flip: u64) -> f64 {
    f64::from_bits(x.to_bits() ^ (flip & SIGN))
}

// ---------------------------------------------------------------------------
// sin and cos
// ---------------------------------------------------------------------------

/// sin on [−π/4, π/4] for the double-double `x + y` (musl `__sin`).
/// `unreduced` selects musl's form for an argument that skipped reduction
/// (`y` is 0 then).
#[inline(always)]
fn sin_kernel(x: f64, y: f64, unreduced: bool) -> f64 {
    const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6);
    const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5);
    const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D);
    const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB);
    const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C);
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    let plain = x + v * (S1 + z * r);
    let tail = x - ((z * (0.5 * y - v * r) - y) - v * S1);
    if unreduced {
        plain
    } else {
        tail
    }
}

/// cos on [−π/4, π/4] for the double-double `x + y` (musl `__cos`).
#[inline(always)]
fn cos_kernel(x: f64, y: f64) -> f64 {
    const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C);
    const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177);
    const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590);
    const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD);
    const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4);
    const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4);
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// `x − q·π/2 = y0 + y1` with `q mod 4`: the argument the kernels take.
#[derive(Clone, Copy)]
struct Reduced {
    y0: f64,
    y1: f64,
    q: u64,
}

impl Reduced {
    /// sin x from the reduced argument: ±sin or ±cos by quadrant.
    #[inline(always)]
    fn sin(self, unreduced: bool) -> f64 {
        let s = sin_kernel(self.y0, self.y1, unreduced);
        let c = cos_kernel(self.y0, self.y1);
        let r = if self.q & 1 == 0 { s } else { c };
        flip_sign(r, self.q << 62)
    }

    /// cos x from the reduced argument.
    #[inline(always)]
    fn cos(self) -> f64 {
        let s = sin_kernel(self.y0, self.y1, false);
        let c = cos_kernel(self.y0, self.y1);
        let r = if self.q & 1 == 0 { c } else { s };
        flip_sign(r, (self.q + 1) << 62)
    }
}

/// The common path of the reduction: |x| ≲ π/4 is left as it is, and the
/// rest takes one Cody–Waite round of musl's medium path (good to 85
/// bits). Returns the reduction, whether it was skipped, and whether the
/// element needs the rare path: |x| ≥ 2^20·π/2 (with ±∞ and NaN), or a
/// result more than 16 binades below `x`, where musl runs a second round.
#[inline(always)]
fn reduce_fast(x: f64) -> (Reduced, bool, bool) {
    let ix = high_word(x);
    let unreduced = ix <= 0x3fe9_21fb;
    let t = x * INVPIO2 + TOINT;
    let t = if unreduced { TOINT } else { t };
    let k = t - TOINT;
    let r = x - k * PIO2_1;
    let w = k * PIO2_1T;
    let y0 = r - w;
    let y1 = (r - y0) - w;
    let ex = (ix >> 20) as i64;
    let ey = ((y0.to_bits() >> 52) & 0x7ff) as i64;
    let rare = ix >= MEDIUM_LIMIT || ex - ey > 16;
    let q = t.to_bits() & 3;
    (Reduced { y0, y1, q }, unreduced, rare)
}

/// The rare path of the reduction, for finite `x` the common path flagged:
/// musl's medium path with its second and, when needed, third round (good
/// to 118 and 151 bits), or Payne–Hanek for |x| ≥ 2^20·π/2.
fn reduce_slow(x: f64) -> Reduced {
    let ix = high_word(x);
    if ix >= MEDIUM_LIMIT {
        return reduce_large(x);
    }
    let t = x * INVPIO2 + TOINT;
    let k = t - TOINT;
    let mut r = x - k * PIO2_1;
    let mut w = k * PIO2_1T;
    let mut y0 = r - w;
    let ex = (ix >> 20) as i64;
    let ey = |y: f64| ((y.to_bits() >> 52) & 0x7ff) as i64;
    if ex - ey(y0) > 16 {
        let t = r;
        w = k * PIO2_2;
        r = t - w;
        w = k * PIO2_2T - ((t - r) - w);
        y0 = r - w;
        if ex - ey(y0) > 49 {
            let t = r;
            w = k * PIO2_3;
            r = t - w;
            w = k * PIO2_3T - ((t - r) - w);
            y0 = r - w;
        }
    }
    Reduced {
        y0,
        y1: (r - y0) - w,
        q: t.to_bits() & 3,
    }
}

/// The bits of 2/π after the binary point, 64 to a word, most significant
/// first, behind one zero word: bit `k` of 2/π (weight 2^−k) is bit
/// `k + 63` of the table, counting from the top of word 0. Generated with
/// Machin's formula in big-integer arithmetic; 1 280 bits cover every
/// finite `f64`.
const TWO_OVER_PI: [u64; 21] = [
    0,
    0xa2f9_836e_4e44_1529,
    0xfc27_57d1_f534_ddc0,
    0xdb62_9599_3c43_9041,
    0xfe51_63ab_debb_c561,
    0xb724_6e3a_424d_d2e0,
    0x0649_2eea_09d1_921c,
    0xfe1d_eb1c_b129_a73e,
    0xe882_35f5_2ebb_4484,
    0xe99c_7026_b45f_7e41,
    0x3991_d639_8353_39f4,
    0x9c84_5f8b_bdf9_283b,
    0x1ff8_97ff_de05_980f,
    0xef2f_118b_5a0a_6d1f,
    0x6d36_7ecf_27cb_09b7,
    0x4f46_3f66_9e5f_ea2d,
    0x7527_bac7_ebe5_f17b,
    0x3d07_39f7_8a52_92ea,
    0x6bfb_5fb1_1f8d_5d08,
    0x5603_3046_fc7b_6bab,
    0xf0cf_bc20_9af4_361d,
];

/// π/2 · 2^127, rounded to 128 bits.
const PIO2_FIXED: u128 = 0xc90f_daa2_2168_c234_c4c6_628b_80dc_1cd1;

/// 2^e for a normal result.
#[inline]
fn pow2(e: i64) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Payne–Hanek reduction of a finite |x| ≥ 2^20·π/2, in integer
/// arithmetic.
///
/// With `x = m·2^e`, `x·2/π mod 4` needs only the bits of 2/π from weight
/// 2^−(e−1) on: earlier bits add multiples of 4. 192 of them times the
/// 53-bit `m` give that product with 190 bits after the point, accurate to
/// 2^−137, while no `f64` lies closer than about 2^−62 to a multiple of
/// π/2. The fraction, rounded to the nearest quadrant and normalised, is
/// multiplied by π/2 in 128-bit fixed point and split into two doubles.
fn reduce_large(x: f64) -> Reduced {
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1075;
    let m = ((bits & ((1 << 52) - 1)) | (1 << 52)) as u128;
    // Bit 2^−(e−1) of 2/π sits at table bit e + 62 (≥ 30 here).
    let p = (e + 62) as usize;
    let (w, sh) = (p / 64, p % 64);
    let window = |i: usize| {
        let hi = TWO_OVER_PI[w + i] << sh;
        if sh == 0 {
            hi
        } else {
            hi | (TWO_OVER_PI[w + i + 1] >> (64 - sh))
        }
    };
    // P = m · window, 245 bits; x·2/π ≡ P·2^−190 (mod 4).
    let a2 = m * window(2) as u128;
    let a1 = m * window(1) as u128 + (a2 >> 64);
    let a0 = m * window(0) as u128 + (a1 >> 64);
    let (a0, a1, a2) = (a0 as u64, a1 as u64, a2 as u64);
    let mut q = a0 >> 62;
    let mut f = [(a0 << 2) | (a1 >> 62), (a1 << 2) | (a2 >> 62), a2 << 2];
    // Round to the nearest quadrant: a fraction ≥ ½ becomes 1 − fraction
    // below the next one.
    let negative = f[0] >> 63 == 1;
    if negative {
        q += 1;
        let (lo, c) = (!f[2]).overflowing_add(1);
        let (mid, c) = (!f[1]).overflowing_add(c as u64);
        f = [(!f[0]).wrapping_add(c as u64), mid, lo];
    }
    let lz = if f[0] != 0 {
        f[0].leading_zeros()
    } else if f[1] != 0 {
        64 + f[1].leading_zeros()
    } else {
        128 + f[2].leading_zeros()
    };
    let (y0, y1) = if lz >= 192 {
        (0.0, 0.0)
    } else {
        // The fraction's top 128 bits: value h·2^−(128+lz).
        let word = |i: usize| f.get(i).copied().unwrap_or(0);
        let (ws, bs) = ((lz / 64) as usize, lz % 64);
        let shifted = |i: usize| {
            if bs == 0 {
                word(ws + i)
            } else {
                (word(ws + i) << bs) | (word(ws + i + 1) >> (64 - bs))
            }
        };
        let h = ((shifted(0) as u128) << 64) | shifted(1) as u128;
        // r ≈ h·π/2·2^−128 (the product's top half): value r·2^−(127+lz).
        let (h1, h0) = (h >> 64, h & u64::MAX as u128);
        let (q1, q0) = (PIO2_FIXED >> 64, PIO2_FIXED & u64::MAX as u128);
        let (hi_lo, lo_hi) = (h1 * q0, h0 * q1);
        let carry = (hi_lo & u64::MAX as u128) + (lo_hi & u64::MAX as u128) + ((h0 * q0) >> 64);
        let r = h1 * q1 + (hi_lo >> 64) + (lo_hi >> 64) + (carry >> 64);
        let lzr = r.leading_zeros();
        let r = r << lzr;
        let scale = -(lz as i64) - lzr as i64;
        let hi = ((r >> 75) as u64) as f64 * pow2(scale - 52);
        let lo = (((r >> 22) as u64) & ((1 << 53) - 1)) as f64 * pow2(scale - 105);
        let s = hi + lo;
        (s, lo - (s - hi))
    };
    let flip = (if negative { SIGN } else { 0 }) ^ (bits & SIGN);
    let q = if bits & SIGN != 0 {
        q.wrapping_neg()
    } else {
        q
    };
    Reduced {
        y0: flip_sign(y0, flip),
        y1: flip_sign(y1, flip),
        q: q & 3,
    }
}

/// The common path of [`sin`] and whether `x` needs the rare path.
#[inline(always)]
fn sin_fast(x: f64) -> (f64, bool) {
    let (red, unreduced, rare) = reduce_fast(x);
    // |x| < 2^−26: sin x rounds to x, which keeps ±0 and subnormals.
    let r = if high_word(x) < 0x3e50_0000 {
        x
    } else {
        red.sin(unreduced)
    };
    (r, rare)
}

#[inline(never)]
#[allow(clippy::eq_op)] // musl's `x − x`: NaN for ±∞ and NaN.
fn sin_slow(x: f64) -> f64 {
    if !x.is_finite() {
        return x - x;
    }
    reduce_slow(x).sin(false)
}

/// The common path of [`cos`] and whether `x` needs the rare path.
#[inline(always)]
fn cos_fast(x: f64) -> (f64, bool) {
    let (red, _, rare) = reduce_fast(x);
    (red.cos(), rare)
}

#[inline(never)]
#[allow(clippy::eq_op)] // musl's `x − x`: NaN for ±∞ and NaN.
fn cos_slow(x: f64) -> f64 {
    if !x.is_finite() {
        return x - x;
    }
    reduce_slow(x).cos()
}

/// Sine (radians), within 1 ulp; NaN for ±∞ and NaN, and `x` itself for
/// |x| < 2^−26. The scalar twin of [`sin_column`].
#[inline]
pub fn sin(x: f64) -> f64 {
    match sin_fast(x) {
        (_, true) => sin_slow(x),
        (r, false) => r,
    }
}

/// Cosine (radians), within 1 ulp; NaN for ±∞ and NaN, and 1 at ±0. The
/// scalar twin of [`cos_column`].
#[inline]
pub fn cos(x: f64) -> f64 {
    match cos_fast(x) {
        (_, true) => cos_slow(x),
        (r, false) => r,
    }
}

// ---------------------------------------------------------------------------
// asin and atan
// ---------------------------------------------------------------------------

/// musl's rational approximation `R(z)` of `(asin √z − √z)/√z³`.
#[inline(always)]
fn asin_r(z: f64) -> f64 {
    const PS0: f64 = f64::from_bits(0x3FC5_5555_5555_5555);
    const PS1: f64 = f64::from_bits(0xBFD4_D612_03EB_6F7D);
    const PS2: f64 = f64::from_bits(0x3FC9_C155_0E88_4455);
    const PS3: f64 = f64::from_bits(0xBFA4_8228_B568_8F3B);
    const PS4: f64 = f64::from_bits(0x3F49_EFE0_7501_B288);
    const PS5: f64 = f64::from_bits(0x3F02_3DE1_0DFD_F709);
    const QS1: f64 = f64::from_bits(0xC003_3A27_1C8A_2D4B);
    const QS2: f64 = f64::from_bits(0x4000_2AE5_9C59_8AC8);
    const QS3: f64 = f64::from_bits(0xBFE6_066C_1B8D_0159);
    const QS4: f64 = f64::from_bits(0x3FB3_B8C5_B12E_9282);
    let p = z * (PS0 + z * (PS1 + z * (PS2 + z * (PS3 + z * (PS4 + z * PS5)))));
    let q = 1.0 + z * (QS1 + z * (QS2 + z * (QS3 + z * QS4)));
    p / q
}

/// Arcsine, within 1 ulp; NaN outside [−1, 1], ±π/2 at ±1, and `x` itself
/// for ±0 and subnormals. The scalar twin of [`asin_column`].
///
/// musl's `asin` with its branches as selects: one `R`, of `x²` below ½
/// and of `(1 − |x|)/2` above.
#[inline(always)]
#[allow(clippy::eq_op)] // musl's `0 / (x − x)`: NaN outside [−1, 1].
pub fn asin(x: f64) -> f64 {
    let ax = x.abs();
    let small = ax < 0.5;
    let z = if small { x * x } else { (1.0 - ax) * 0.5 };
    let r = asin_r(z);
    let s = z.sqrt();
    // |x| < ½: asin x = x + x·R(x²), which is x itself for tiny x.
    let below_half = x + x * r;
    // |x| > 0.975: π/2 − 2(s + s·R).
    let near_one = PIO2_HI - (2.0 * (s + s * r) - PIO2_LO);
    // ½ ≤ |x| ≤ 0.975: s split as f + c so 2f is exact.
    let f = f64::from_bits(s.to_bits() & 0xffff_ffff_0000_0000);
    let c = (z - f * f) / (s + f);
    let middle = 0.5 * PIO2_HI - (2.0 * s * r - (PIO2_LO - 2.0 * c) - (0.5 * PIO2_HI - 2.0 * f));
    let above_half = if ax >= f64::from_bits(0x3fef_3333_0000_0000) {
        near_one
    } else {
        middle
    };
    let r = if small {
        below_half
    } else {
        flip_sign(above_half, x.to_bits())
    };
    // |x| > 1 and NaN: NaN.
    if ax <= 1.0 {
        r
    } else {
        0.0 / (x - x)
    }
}

/// Arctangent, within 1 ulp; ±π/2 at ±∞, `x` itself for ±0, subnormals
/// and NaN. The scalar twin of [`atan_column`].
///
/// musl's `atan` with its four-interval reduction as selects and one
/// division.
#[inline(always)]
pub fn atan(x: f64) -> f64 {
    const AT: [f64; 11] = [
        f64::from_bits(0x3FD5_5555_5555_550D),
        f64::from_bits(0xBFC9_9999_9998_EBC4),
        f64::from_bits(0x3FC2_4924_9200_83FF),
        f64::from_bits(0xBFBC_71C6_FE23_1671),
        f64::from_bits(0x3FB7_45CD_C54C_206E),
        f64::from_bits(0xBFB3_B0F2_AF74_9A6D),
        f64::from_bits(0x3FB1_0D66_A0D0_3D51),
        f64::from_bits(0xBFAD_DE2D_52DE_FD9A),
        f64::from_bits(0x3FA9_7B4B_2476_0DEB),
        f64::from_bits(0xBFA2_B444_2C6A_6C2F),
        f64::from_bits(0x3F90_AD3A_E322_DA11),
    ];
    let ax = x.abs();
    // atan(|x|) = atan(c) + atan(t) with t = num/den, for c = 0, ½, 1, 3/2
    // and ∞ on [0, 7/16), [7/16, 11/16), [11/16, 19/16), [19/16, 39/16)
    // and beyond; (hi, lo) is atan(c) as a double-double.
    let (num, den, hi, lo) = if ax >= 2.4375 {
        (-1.0, ax, PIO2_HI, PIO2_LO)
    } else if ax >= 1.1875 {
        (
            ax - 1.5,
            1.0 + 1.5 * ax,
            f64::from_bits(0x3FEF_730B_D281_F69B),
            f64::from_bits(0x3C70_0788_7AF0_CBBD),
        )
    } else if ax >= 0.6875 {
        (
            ax - 1.0,
            ax + 1.0,
            f64::from_bits(0x3FE9_21FB_5444_2D18),
            f64::from_bits(0x3C81_A626_3314_5C07),
        )
    } else if ax >= 0.4375 {
        (
            2.0 * ax - 1.0,
            2.0 + ax,
            f64::from_bits(0x3FDD_AC67_0561_BB4F),
            f64::from_bits(0x3C7A_2B7F_222F_65E2),
        )
    } else {
        (ax, 1.0, 0.0, 0.0)
    };
    let t = num / den;
    let z = t * t;
    let w = z * z;
    let s1 = z * (AT[0] + w * (AT[2] + w * (AT[4] + w * (AT[6] + w * (AT[8] + w * AT[10])))));
    let s2 = w * (AT[1] + w * (AT[3] + w * (AT[5] + w * (AT[7] + w * AT[9]))));
    // For c = 0 this is −((t·s − 0) − t), musl's t − t·s bit for bit.
    let r = flip_sign(hi - ((t * (s1 + s2) - lo) - t), x.to_bits());
    // |x| < 2^−27: atan x rounds to x, which keeps ±0 and subnormals.
    let r = if ax < f64::from_bits(0x3e40_0000_0000_0000) {
        x
    } else {
        r
    };
    if x.is_nan() {
        x
    } else {
        r
    }
}

// ---------------------------------------------------------------------------
// atan2
// ---------------------------------------------------------------------------

/// The common path of [`atan2`]: atan |y/x| and the quadrant fix-up as
/// selects, and whether the pair needs the rare path (either operand ±0,
/// ±∞ or NaN, or |y/x| > 2^64).
#[inline(always)]
fn atan2_fast(y: f64, x: f64) -> (f64, bool) {
    let z = atan((y / x).abs());
    let toward_pi = if x.to_bits() & SIGN == 0 {
        z
    } else {
        PI - (z - PI_LO)
    };
    let r = flip_sign(toward_pi, y.to_bits());
    let (ix, iy) = (high_word(x), high_word(y));
    let rare = y == 0.0 || x == 0.0 || !x.is_finite() || !y.is_finite() || ix + (64 << 20) < iy;
    (r, rare)
}

/// The cases C99 Annex F fixes, in musl's order, for the pairs
/// [`atan2_fast`] flags.
#[inline(never)]
fn atan2_slow(y: f64, x: f64) -> f64 {
    if x.is_nan() || y.is_nan() {
        let nan = if x.is_nan() { x } else { y };
        return nan + nan;
    }
    let y_neg = y.to_bits() & SIGN != 0;
    let x_neg = x.to_bits() & SIGN != 0;
    let signed = |v: f64| if y_neg { -v } else { v };
    if y == 0.0 {
        return if x_neg { signed(PI) } else { y };
    }
    if x == 0.0 {
        return signed(PI / 2.0);
    }
    if x.is_infinite() {
        return signed(match (y.is_infinite(), x_neg) {
            (true, false) => PI / 4.0,
            (true, true) => 3.0 * PI / 4.0,
            (false, false) => 0.0,
            (false, true) => PI,
        });
    }
    // y is ±∞ or |y/x| > 2^64.
    signed(PI / 2.0)
}

/// Four-quadrant arctangent of `y/x`, within 1 ulp, with C99 Annex F's
/// values at ±0, ±∞ and NaN. `atan2(y, x)` is `y.atan2(x)` in `f64`'s
/// method form. The scalar twin of [`atan2_column`].
#[inline]
pub fn atan2(y: f64, x: f64) -> f64 {
    match atan2_fast(y, x) {
        (_, true) => atan2_slow(y, x),
        (r, false) => r,
    }
}

// ---------------------------------------------------------------------------
// Column passes
// ---------------------------------------------------------------------------

column_pass! {
    /// The common path of [`sin_column`]: marks rare elements NaN (no
    /// common-path result is) and returns whether it marked any.
    fn sin_pass / sin_pass_base(x: &[f64], out: &mut [f64]) -> bool {
        let mut any = false;
        for (o, &v) in out.iter_mut().zip(x) {
            let (r, rare) = sin_fast(v);
            *o = if rare { f64::NAN } else { r };
            any |= rare;
        }
        any
    }
}

column_pass! {
    /// The common path of [`cos_column`] (see [`sin_pass`]).
    fn cos_pass / cos_pass_base(x: &[f64], out: &mut [f64]) -> bool {
        let mut any = false;
        for (o, &v) in out.iter_mut().zip(x) {
            let (r, rare) = cos_fast(v);
            *o = if rare { f64::NAN } else { r };
            any |= rare;
        }
        any
    }
}

column_pass! {
    /// `out[i] ← asin(x[i])` bit for bit, over the common prefix of the two
    /// slices.
    pub fn asin_column / asin_column_base(x: &[f64], out: &mut [f64]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = asin(v);
        }
    }
}

column_pass! {
    /// `out[i] ← atan(x[i])` bit for bit, over the common prefix of the two
    /// slices.
    pub fn atan_column / atan_column_base(x: &[f64], out: &mut [f64]) {
        for (o, &v) in out.iter_mut().zip(x) {
            *o = atan(v);
        }
    }
}

column_pass! {
    /// The common path of [`atan2_column`] (see [`sin_pass`]).
    fn atan2_pass / atan2_pass_base(y: &[f64], x: &[f64], out: &mut [f64]) -> bool {
        let mut any = false;
        for ((o, &a), &b) in out.iter_mut().zip(y).zip(x) {
            let (r, rare) = atan2_fast(a, b);
            *o = if rare { f64::NAN } else { r };
            any |= rare;
        }
        any
    }
}

/// The rare pass: recomputes each element the common pass marked NaN.
fn redo_marked(x: &[f64], out: &mut [f64], slow: fn(f64) -> f64) {
    for (o, &v) in out.iter_mut().zip(x) {
        if o.is_nan() {
            *o = slow(v);
        }
    }
}

/// `out[i] ← sin(x[i])` bit for bit, over the common prefix of the two
/// slices.
pub fn sin_column(x: &[f64], out: &mut [f64]) {
    if sin_pass(x, out) {
        redo_marked(x, out, sin_slow);
    }
}

/// `out[i] ← cos(x[i])` bit for bit, over the common prefix of the two
/// slices.
pub fn cos_column(x: &[f64], out: &mut [f64]) {
    if cos_pass(x, out) {
        redo_marked(x, out, cos_slow);
    }
}

/// `out[i] ← atan2(y[i], x[i])` bit for bit, over the common prefix of the
/// three slices.
pub fn atan2_column(y: &[f64], x: &[f64], out: &mut [f64]) {
    if atan2_pass(y, x, out) {
        for ((o, &a), &b) in out.iter_mut().zip(y).zip(x) {
            if o.is_nan() {
                *o = atan2_slow(a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::hint::black_box;

    /// Distance in units in the last place, with ±0 equal and NaN equal to
    /// NaN.
    fn ulps(a: f64, b: f64) -> u64 {
        if a.is_nan() || b.is_nan() {
            return if a.is_nan() && b.is_nan() {
                0
            } else {
                u64::MAX
            };
        }
        let key = |v: f64| {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        };
        key(a).abs_diff(key(b))
    }

    /// Worst ulp distance from the host libm over `xs`, with the share of
    /// results that differ at all.
    fn worst(name: &str, xs: &[f64], ours: fn(f64) -> f64, libm: fn(f64) -> f64) -> (u64, f64) {
        let mut worst = (0, 0.0);
        let mut differ = 0usize;
        for &x in xs {
            let d = ulps(ours(x), libm(x));
            differ += (d > 0) as usize;
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(
            worst.0 <= 1,
            "{name}: {} ulp at x = {:e} ({:?}), ours {:e}, libm {:e}",
            worst.0,
            worst.1,
            worst.1.to_bits(),
            ours(worst.1),
            libm(worst.1)
        );
        (worst.0, differ as f64 / xs.len() as f64)
    }

    fn log_uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
        let (a, b) = (lo.ln(), hi.ln());
        let v = (a + (b - a) * rng.gen::<f64>()).exp().clamp(lo, hi);
        if rng.gen::<bool>() {
            -v
        } else {
            v
        }
    }

    fn sin_cos_points() -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(1);
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut xs: Vec<f64> = (0..1_000_000)
            .map(|i| -two_pi + 2.0 * two_pi * (i as f64 / 1_000_000.0))
            .collect();
        xs.extend((0..500_000).map(|_| rng.gen_range(-1e6..1e6)));
        xs.extend((0..500_000).map(|_| rng.gen_range(-1e-3..1e-3)));
        xs.extend((-100_000..100_000).map(|k| k as f64 * std::f64::consts::FRAC_PI_2));
        xs
    }

    #[test]
    fn sin_and_cos_are_within_one_ulp_of_libm() {
        let xs = sin_cos_points();
        let (_, s) = worst("sin", &xs, sin, f64::sin);
        let (_, c) = worst("cos", &xs, cos, f64::cos);
        assert!(s < 0.1 && c < 0.1, "differ: sin {s}, cos {c}");
    }

    #[test]
    fn large_arguments_reduce_by_payne_hanek_within_one_ulp() {
        let mut rng = SmallRng::seed_from_u64(2);
        let lo = f64::from_bits(0x4139_21fb_5444_2d18);
        let mut xs: Vec<f64> = (0..100_000)
            .map(|_| log_uniform(&mut rng, lo, 1e300))
            .collect();
        // The largest finite double, the threshold itself and 2^1023.
        xs.extend([f64::MAX, -f64::MAX, lo, -lo, 2f64.powi(1023), 1e22]);
        worst("sin", &xs, sin, f64::sin);
        worst("cos", &xs, cos, f64::cos);
        // The double closest to a multiple of π/2, 2^−61 away, against its
        // correctly rounded values from a 2 000-bit reduction (glibc 2.36's
        // cos is 8 ulp off here).
        let x = black_box(6381956970095103.0 * 2f64.powi(797));
        assert_eq!(sin(x), 1.0);
        assert_eq!(cos(x).to_bits(), 0xbc21_4ae7_2e6b_a22f);
        assert_eq!(cos(-x).to_bits(), 0xbc21_4ae7_2e6b_a22f);
    }

    #[test]
    fn asin_is_within_one_ulp_of_libm() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut xs: Vec<f64> = (0..=2_000_000)
            .map(|i| -1.0 + 2.0 * (i as f64 / 2_000_000.0))
            .collect();
        for k in 1..100_000u64 {
            let near = f64::from_bits(1.0f64.to_bits() - k);
            xs.extend([near, -near]);
        }
        xs.extend((0..200_000).map(|_| log_uniform(&mut rng, 1e-300, 1e-3)));
        worst("asin", &xs, asin, f64::asin);
    }

    #[test]
    fn atan_is_within_one_ulp_of_libm() {
        let mut rng = SmallRng::seed_from_u64(4);
        let xs: Vec<f64> = (0..3_000_000)
            .map(|_| log_uniform(&mut rng, 1e-300, 1e300))
            .collect();
        worst("atan", &xs, atan, f64::atan);
    }

    #[test]
    fn atan2_is_within_one_ulp_of_libm() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut worst = (0, 0.0, 0.0);
        for i in 0..2_000_000 {
            let (y, x) = if i % 2 == 0 {
                (rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0))
            } else {
                (
                    log_uniform(&mut rng, 1e-300, 1e300),
                    log_uniform(&mut rng, 1e-300, 1e300),
                )
            };
            let d = ulps(atan2(y, x), y.atan2(x));
            if d > worst.0 {
                worst = (d, y, x);
            }
        }
        assert!(
            worst.0 <= 1,
            "atan2: {} ulp at ({:e}, {:e})",
            worst.0,
            worst.1,
            worst.2
        );
    }

    #[test]
    fn exact_and_defined_values_match_libm_bitwise() {
        let sub = f64::from_bits(1);
        let big_sub = f64::from_bits(0x000f_ffff_ffff_ffff);
        let specials = [0.0, -0.0, sub, -sub, big_sub, -big_sub, f64::INFINITY];
        for &x in &specials {
            let x = black_box(x);
            for (name, ours, libm) in [
                ("sin", sin as fn(f64) -> f64, f64::sin as fn(f64) -> f64),
                ("asin", asin, f64::asin),
                ("atan", atan, f64::atan),
            ] {
                if x.is_finite() {
                    // ±0 keeps its sign and a subnormal returns itself.
                    assert_eq!(ours(x).to_bits(), x.to_bits(), "{name}({x:e})");
                    assert_eq!(ours(x).to_bits(), libm(x).to_bits(), "{name}({x:e})");
                }
            }
        }
        for x in [0.0, -0.0] {
            assert_eq!(cos(black_box(x)), 1.0);
        }
        for x in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN] {
            let x = black_box(x);
            assert!(sin(x).is_nan() && cos(x).is_nan() && asin(x).is_nan());
        }
        for x in [1.0 + f64::EPSILON, -2.0, 1e300] {
            assert!(asin(black_box(x)).is_nan(), "asin({x})");
        }
        assert!(atan(black_box(f64::NAN)).is_nan());
        let pio2 = std::f64::consts::FRAC_PI_2;
        assert_eq!(asin(black_box(1.0)), pio2);
        assert_eq!(asin(black_box(-1.0)), -pio2);
        assert_eq!(atan(black_box(f64::INFINITY)), pio2);
        assert_eq!(atan(black_box(f64::NEG_INFINITY)), -pio2);
    }

    #[test]
    fn atan2_follows_annex_f_on_zeros_ones_infinities_and_nan() {
        let vals = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &y in &vals {
            for &x in &vals {
                let (y, x) = (black_box(y), black_box(x));
                let (ours, libm) = (atan2(y, x), y.atan2(x));
                if libm.is_nan() {
                    assert!(ours.is_nan(), "atan2({y}, {x}) = {ours}");
                } else {
                    assert_eq!(ours.to_bits(), libm.to_bits(), "atan2({y}, {x})");
                }
            }
        }
    }

    /// Common inputs with the rare path's among them: values nearest π/2,
    /// π and 710·π/2 (cancellation), large and huge arguments, subnormals,
    /// signed zeros, infinities and NaN.
    fn mixed_column(n: usize, seed: u64) -> Vec<f64> {
        let rare = [
            std::f64::consts::FRAC_PI_2,
            std::f64::consts::PI,
            710.0 * std::f64::consts::FRAC_PI_2,
            -std::f64::consts::PI,
            1e6,
            2e6,
            1e22,
            5e-324,
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            2.5,
        ];
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                if i % 3 == 1 {
                    rare[rng.gen_range(0..rare.len())]
                } else {
                    rng.gen_range(-4.0..4.0)
                }
            })
            .collect()
    }

    #[test]
    fn column_passes_equal_their_baseline_bodies_and_scalar_twins_bitwise() {
        type Pass = fn(&[f64], &mut [f64]);
        type Case = (&'static str, Pass, Pass, fn(f64) -> f64);
        let unary: [Case; 4] = [
            (
                "sin",
                sin_column,
                |x, o| {
                    if sin_pass_base(x, o) {
                        redo_marked(x, o, sin_slow)
                    }
                },
                sin,
            ),
            (
                "cos",
                cos_column,
                |x, o| {
                    if cos_pass_base(x, o) {
                        redo_marked(x, o, cos_slow)
                    }
                },
                cos,
            ),
            ("asin", asin_column, asin_column_base, asin),
            ("atan", atan_column, atan_column_base, atan),
        ];
        for n in (0..=9).chain([31, 64, 100]) {
            let x = mixed_column(n, n as u64);
            let x2 = mixed_column(n, 1000 + n as u64);
            for (name, dispatched, baseline, scalar) in unary {
                let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
                dispatched(&x, &mut a);
                baseline(&x, &mut b);
                for i in 0..n {
                    let want = black_box(scalar)(black_box(x[i])).to_bits();
                    assert_eq!(a[i].to_bits(), want, "{name} dispatched n={n} x={}", x[i]);
                    assert_eq!(b[i].to_bits(), want, "{name} baseline n={n} x={}", x[i]);
                }
            }
            let (mut a, mut b) = (vec![0.0; n], vec![0.0; n]);
            atan2_column(&x, &x2, &mut a);
            if atan2_pass_base(&x, &x2, &mut b) {
                for ((o, &y), &x) in b.iter_mut().zip(&x).zip(&x2) {
                    if o.is_nan() {
                        *o = atan2_slow(y, x);
                    }
                }
            }
            for i in 0..n {
                let want = atan2(black_box(x[i]), black_box(x2[i])).to_bits();
                assert_eq!(a[i].to_bits(), want, "atan2 dispatched n={n} i={i}");
                assert_eq!(b[i].to_bits(), want, "atan2 baseline n={n} i={i}");
            }
        }
    }
}
