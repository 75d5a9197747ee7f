//! The one number writer: every float and integer a trace line, a metric
//! exposition or a report prints goes through [`write_f64`] /
//! [`write_u64`], which append to a caller-owned buffer without the
//! `core::fmt` machinery.
//!
//! A float's bytes are those of `format!("{x}")`, for every `f64`:
//!
//! * **Digits.** Ryu (Adams, PLDI 2018): the shortest digit string that
//!   reads back as `x`, and of those the one nearest to `x`. The search
//!   scales the interval of decimals that round to `x` by a power of ten
//!   with one 64 × 128-bit multiply per bound, against the two tables
//!   below, then drops digits while the bounds still differ.
//! * **Ties.** When `x` lies exactly halfway between the two nearest
//!   shortest candidates, std (Grisu with a Dragon fallback) takes the
//!   upper one, and so does this writer: a removed digit of 5 or more
//!   rounds up. Ryu's reference rounds such a tie to even;
//!   `1658206780088562.25` is the first double where the two disagree
//!   (`…562.3` here and in std, `…562.2` there).
//! * **Layout.** `{}`'s: never an exponent. A decimal point appears only
//!   when there are digits after it (`0.001`, `12.5`, `3`, `1e21` as 22
//!   digits), zeros pad out to the point on either side, `-0` keeps its
//!   sign, and the non-finite values are `NaN`, `inf` and `-inf`.
//!
//! The tables are not pasted: [`Tables::derive`] computes them at compile
//! time from one 1024-bit integer. The differential test below holds the
//! writer to `format!("{x}")` over drawn bit patterns and fixed families;
//! an `#[ignore]`d sweep runs 30 M more.

/// Bits of an `f64`'s stored mantissa.
const MANTISSA_BITS: u32 = 52;
/// The exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Every table entry is scaled to this many significant bits.
const POW5_BITS: i32 = 125;
/// Entries of [`Tables::pow5`]: 5^i for every `i` a negative binary
/// exponent needs.
const POW5_LEN: usize = 326;
/// Entries of [`Tables::inv`]: 1/5^i for every `i` a positive one needs.
const INV_LEN: usize = 342;
/// Limbs of the compile-time integer. 5^341 has 792 bits, and the largest
/// inverse is taken 916 bits below 2^1023.
const LIMBS: usize = 16;

/// Ryu's two multiplier tables, each entry scaled to 125 significant bits.
struct Tables {
    /// The top [`POW5_BITS`] bits of 5^i (truncated; 5^i shifted up while
    /// it is shorter).
    pow5: [u128; POW5_LEN],
    /// ⌊2^(b - 1 + [`POW5_BITS`]) / 5^i⌋ + 1, with `b` the bit length of 5^i.
    inv: [u128; INV_LEN],
}

static TABLES: Tables = Tables::derive();

/// A little-endian integer of [`LIMBS`] 64-bit limbs.
type Wide = [u64; LIMBS];

impl Tables {
    /// Both tables from one walk over `i`: 5^i is the previous power times
    /// 5, and ⌊2^1023 / 5^i⌋ is the previous quotient divided by 5 (a
    /// floor of floors is the floor), shifted down to the entry's scale.
    const fn derive() -> Tables {
        const TOP: i32 = (LIMBS * 64 - 1) as i32;
        let mut pow: Wide = [0; LIMBS];
        pow[0] = 1;
        let mut quot: Wide = [0; LIMBS];
        quot[LIMBS - 1] = 1 << 63;
        let mut t = Tables { pow5: [0; POW5_LEN], inv: [0; INV_LEN] };
        let mut i = 0;
        while i < INV_LEN {
            let b = bit_len(&pow);
            if i < POW5_LEN {
                t.pow5[i] = if b <= POW5_BITS {
                    shr(&pow, 0) << (POW5_BITS - b)
                } else {
                    shr(&pow, b - POW5_BITS)
                };
            }
            t.inv[i] = shr(&quot, TOP - (b - 1 + POW5_BITS)) + 1;
            // pow *= 5
            let mut carry = 0u128;
            let mut k = 0;
            while k < LIMBS {
                let v = pow[k] as u128 * 5 + carry;
                pow[k] = v as u64;
                carry = v >> 64;
                k += 1;
            }
            // quot /= 5
            let mut rem = 0u128;
            let mut k = LIMBS;
            while k > 0 {
                k -= 1;
                let v = (rem << 64) | quot[k] as u128;
                quot[k] = (v / 5) as u64;
                rem = v % 5;
            }
            i += 1;
        }
        t
    }
}

/// Bit length of `x` (0 for zero).
const fn bit_len(x: &Wide) -> i32 {
    let mut k = LIMBS;
    while k > 0 {
        k -= 1;
        if x[k] != 0 {
            return k as i32 * 64 + 64 - x[k].leading_zeros() as i32;
        }
    }
    0
}

/// Limb `k` of `x`, zero beyond the top.
const fn limb(x: &Wide, k: usize) -> u128 {
    if k < LIMBS {
        x[k] as u128
    } else {
        0
    }
}

/// The low 128 bits of `x >> s`.
const fn shr(x: &Wide, s: i32) -> u128 {
    let (at, bit) = ((s / 64) as usize, s % 64);
    let low = limb(x, at) | limb(x, at + 1) << 64;
    if bit == 0 {
        low
    } else {
        low >> bit | limb(x, at + 2) << (128 - bit)
    }
}

/// ⌈log2 5^e⌉, and 1 for `e = 0`: the bit length of 5^e (0 ≤ e ≤ 3528).
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// ⌊log10 2^e⌋ (0 ≤ e ≤ 1650).
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// ⌊log10 5^e⌋ (0 ≤ e ≤ 2620).
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether 5^p divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// ⌊m · mul / 2^j⌋ for a 125-bit `mul` and `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul & u128::from(u64::MAX));
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `(digits, exponent)`: `digits × 10^exponent` is the shortest decimal
/// that reads back as the positive, finite, non-zero double with these
/// `bits`, nearest to it, an exact tie taking the larger.
fn shortest(bits: u64) -> (u64, i32) {
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = (bits >> MANTISSA_BITS) as i32;
    let (e2, m2) = if exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, mantissa)
    } else {
        (exponent - BIAS - MANTISSA_BITS as i32 - 2, (1 << MANTISSA_BITS) | mantissa)
    };
    // An even mantissa rounds to nearest-even on the way back in, so the
    // interval's bounds themselves read back as `x`.
    let accept_bounds = m2.is_multiple_of(2);
    // The interval is [mv - 1 - mm_shift, mv + 2] in quarter units; its
    // lower half is narrower when `x` is a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);
    let scaled = |mul: u128, j: i32| {
        let j = j as u32;
        (mul_shift(mv, mul, j), mul_shift(mv + 2, mul, j), mul_shift(mv - 1 - mm_shift, mul, j))
    };

    // Scale the interval to `vm < vr < vp`, integers in units of 10^e10.
    // `vm_exact`: the scaled lower bound lost no nonzero digit.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q as i32) - 1;
        (vr, vp, vm) = scaled(TABLES.inv[q as usize], -e2 + q as i32 + k);
        // At most one of mv, mp and mm is a multiple of 5; when it is mv,
        // both bounds lost digits.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        (vr, vp, vm) = scaled(TABLES.pow5[i as usize], q as i32 - k);
        // mm has a trailing zero bit iff mm_shift is 1; mp always has one.
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the bounds still differ, two at a time first; a
    // dropped part of at least half rounds `vr` up, so a tie goes up.
    let mut removed = 0;
    let mut round_up = false;
    if vp / 100 > vm / 100 {
        vm_exact &= vm.is_multiple_of(100);
        round_up = vr % 100 >= 50;
        (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
        removed = 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm.is_multiple_of(10);
        round_up = vr % 10 >= 5;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    // An exact lower bound is a candidate itself, and sheds its trailing
    // zeros past the point where the bounds met.
    if vm_exact {
        while vm.is_multiple_of(10) {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // `vr` on an excluded lower bound steps inside the interval.
    let outside = vr == vm && !vm_exact;
    (vr + u64::from(outside || round_up), e10 + removed)
}

/// Write the decimal digits of `n` right-aligned into `buf`; returns
/// where they start. One 64-bit division per eight digits, whose four
/// pairs come from independent 32-bit ones; two digits per step after.
fn digits_of(buf: &mut [u8], mut n: u64) -> usize {
    let mut at = buf.len();
    while n >= 100_000_000 {
        let low = (n % 100_000_000) as u32;
        n /= 100_000_000;
        at -= 8;
        put_pair(buf, at, low / 1_000_000);
        put_pair(buf, at + 2, low / 10_000 % 100);
        put_pair(buf, at + 4, low / 100 % 100);
        put_pair(buf, at + 6, low % 100);
    }
    let mut n = n as u32;
    loop {
        at -= 2;
        put_pair(buf, at, n % 100);
        n /= 100;
        if n == 0 {
            break;
        }
    }
    // An odd digit count leaves one leading zero; a lone "0" keeps it.
    at + usize::from(buf[at] == b'0' && at + 1 < buf.len())
}

fn put_pair(buf: &mut [u8], at: usize, pair: u32) {
    buf[at] = b'0' + (pair / 10) as u8;
    buf[at + 1] = b'0' + (pair % 10) as u8;
}

/// Append `n` in decimal: the bytes of `format!("{n}")`. Pushed a char at
/// a time: most integers a trace line carries are one to three digits.
pub fn write_u64(out: &mut String, n: u64) {
    let mut buf = [0; 20];
    let start = digits_of(&mut buf, n);
    out.extend(buf[start..].iter().map(|&b| char::from(b)));
}

/// Append `x` exactly as `format!("{x}")` would write it, for every
/// `f64` (see the module doc). Answers whether a decimal point was
/// written, so a caller that needs one (a JSON float) need not scan for
/// it.
pub fn write_f64(out: &mut String, x: f64) -> bool {
    if x.is_nan() {
        out.push_str("NaN");
        return false;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    let bits = x.abs().to_bits();
    if x.is_infinite() {
        out.push_str("inf");
        return false;
    }
    if bits == 0 {
        out.push('0');
        return false;
    }
    let (mantissa, exp) = shortest(bits);
    // The digits right-aligned in a window of zeros: the `0.000` before
    // a small value and the slot a point moves into are already in place,
    // so one push writes the number.
    let mut window = [b'0'; 32];
    let start = digits_of(&mut window, mantissa);
    let len = window.len() - start;
    // Where the decimal point falls, counted from the first digit.
    let point = len as i32 + exp;
    if point <= 0 {
        let zeros = point.unsigned_abs() as usize;
        if zeros + 2 <= start {
            window[start - zeros - 1] = b'.';
            push(out, &window[start - zeros - 2..]);
        } else {
            out.push_str("0.");
            push_zeros(out, zeros);
            push(out, &window[start..]);
        }
        true
    } else if (point as usize) < len {
        let point = point as usize;
        window.copy_within(start..start + point, start - 1);
        window[start - 1 + point] = b'.';
        push(out, &window[start - 1..]);
        true
    } else {
        push(out, &window[start..]);
        push_zeros(out, point as usize - len);
        false
    }
}

/// Append ASCII digits (one validation and one copy: cheaper, for a
/// float's ~18 bytes, than a push per char).
fn push(out: &mut String, ascii: &[u8]) {
    out.push_str(std::str::from_utf8(ascii).unwrap_or_default());
}

fn push_zeros(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n('0', n));
}

/// `x` as a new `String`, through [`write_f64`]: for messages that are
/// built with `format!`.
pub fn f64_string(x: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, x);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpas_tsmath::prop_assert;
    use rpas_tsmath::propcheck::forall;

    /// The oracle: `x` through `core::fmt`, against [`write_f64`] appending
    /// to a non-empty buffer.
    fn agrees(x: f64) -> Result<(), String> {
        let mut out = String::from("kept|");
        let point = write_f64(&mut out, x);
        let want = format!("{x}");
        prop_assert!(out[5..] == want, "{:#018x}: wrote {:?}, std {want:?}", x.to_bits(), &out[5..]);
        prop_assert!(out.starts_with("kept|") && point == want.contains('.'), "{x:e}: point {point}");
        Ok(())
    }

    /// The fixed families: integers and thousandths (short digit strings,
    /// many digits dropped), every binade's edges ±2 ulp (the narrower
    /// interval at a power of two, exact bounds), powers of ten ±1 ulp,
    /// subnormals and the top of the range.
    fn families() -> impl Iterator<Item = f64> {
        let ints = (0..20_000u64).map(|n| n as f64).chain((0..20_000u64).map(|n| n as f64 / 1000.0));
        let binades = (-1074..1024i32).flat_map(|e| {
            let p = if e < -1022 { 1u64 << (e + 1074) } else { ((e + 1023) as u64) << 52 };
            [p.wrapping_sub(2), p - 1, p, p + 1, p + 2].map(f64::from_bits)
        });
        let tens = (-323..309).flat_map(|e| {
            let p = format!("1e{e}").parse::<f64>().unwrap_or(0.0).to_bits();
            [p - 1, p, p + 1].map(f64::from_bits)
        });
        let ends = (0..2_000u64).flat_map(|k| {
            [k, k << 40, 0x7fef_ffff_ffff_ffff - k].map(f64::from_bits)
        });
        ints.chain(binades).chain(tens).chain(ends).filter(|x| x.is_finite())
    }

    #[test]
    fn writes_the_bytes_of_std_display() {
        for x in [0.0, -0.0, 1.0, -1.5, 0.1, 0.3, 1e21, 1e22, 123456789.0, f64::MAX, f64::MIN_POSITIVE] {
            agrees(x).unwrap();
        }
        // The first double whose shortest digits are an exact tie: std
        // rounds it up, Ryu's reference to even (…562.2).
        agrees(f64::from_bits(0x4317_9085_685d_83c9)).unwrap();
        assert_eq!(f64_string(f64::from_bits(0x4317_9085_685d_83c9)), "1658206780088562.3");
        // Long zero runs, on both sides of the point.
        for x in [1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308] {
            agrees(x).unwrap();
        }
        assert_eq!(f64_string(5e-324).len(), 2 + 323 + 1);
        for x in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            agrees(x).unwrap();
        }
        for x in families() {
            agrees(x).unwrap();
        }
        forall("write_f64_vs_std", 200_000, |g| {
            agrees(f64::from_bits(g.u64()))?;
            agrees(g.f64_in(0.0, 900.0))
        });
    }

    #[test]
    fn writes_the_bytes_of_std_display_for_integers() {
        for n in [0, 1, 9, 10, 99, 100, 101, 12345, u64::from(u32::MAX), u64::MAX - 1, u64::MAX] {
            let mut out = String::from("kept|");
            write_u64(&mut out, n);
            assert_eq!(out, format!("kept|{n}"));
        }
        forall("write_u64_vs_std", 2_000, |g| {
            let n = g.u64() >> g.usize_in(0, 64);
            let mut out = String::new();
            write_u64(&mut out, n);
            prop_assert!(out == n.to_string(), "{n}");
            Ok(())
        });
    }

    /// 30 M more doubles: 20 M bit patterns, 5 M uniform on [0, 900) and
    /// 5 M integers divided by 1000, the shapes trace fields take. About
    /// 10 s in release; `scripts/verify.sh` runs it.
    #[test]
    #[ignore = "30 M-value sweep; run in release"]
    fn sweep_agrees_with_std_display() {
        let mut buf = String::new();
        forall("write_f64_sweep", 1, |g| {
            for i in 0..30_000_000u64 {
                let x = match i % 6 {
                    0..=3 => f64::from_bits(g.u64()),
                    4 => g.f64_in(0.0, 900.0),
                    _ => (g.u64() >> 24) as f64 / 1000.0,
                };
                if !x.is_finite() {
                    continue;
                }
                buf.clear();
                write_f64(&mut buf, x);
                prop_assert!(buf == format!("{x}"), "{:#018x}: wrote {buf:?}", x.to_bits());
            }
            Ok(())
        });
    }
}
