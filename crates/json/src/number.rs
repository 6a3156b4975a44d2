//! Shortest round-trip `f64` printing, byte-identical to `format!("{}", x)`,
//! straight into a byte buffer.
//!
//! The digits come from Dragonbox (Junekey Jeon, "Dragonbox: A New
//! Floating-Point Binary-to-Decimal Conversion Algorithm", 2020). Scaled
//! by `10^k`, the interval of reals that round to `x` is `δ` units wide,
//! `100 ≤ δ < 1000`. One 128-bit product scales its upper bound, and `δ`
//! is the same multiplier shifted. A multiple of 1000 units within `δ`
//! below the upper bound is the shortest decimal; otherwise the multiple
//! of 100 units closest to `x` is. A cold path decides near the bounds
//! and at whole hundreds. Trailing zeros are read off the digit bytes.
//!
//! The multipliers are `10^e`'s top 128 bits rounded up ([`POW10`]),
//! built at compile time by a small bignum. The layout is std's `Display`:
//! plain decimal with no exponent, `0.000…` below one, `-0` for negative
//! zero and no `.0` on integers. Sixteen digits are four groups of four,
//! each a quotient of the upper bound, split into digit bytes by SWAR
//! arithmetic, and stored 16 bytes at a time into a window past the text.
//!
//! One departure from the paper: when `x` lies exactly halfway between the
//! two closest candidates, std rounds up and Dragonbox rounds to even, so
//! this printer rounds up (`1800059038860668.25` prints as
//! `1800059038860668.3`).

use std::hint::select_unpredictable;

/// The smallest exponent `e` of [`POW10`]; the largest is 326.
pub const POW10_MIN_EXP: i32 = -292;

/// `⌈10^e · 2^(127 − ⌊log2 10^e⌋)⌉`, the top 128 bits of `10^e` rounded
/// up, for `e` in `-292..=326`: entry `e − POW10_MIN_EXP`.
pub static POW10: [u128; 619] = pow10_table();

/// Limbs of the table builder's bignum: `2^832` fits, and so does `5^326`.
const LIMBS: usize = 14;

/// `big`'s limb `i − down`, or 0 below the first.
const fn limb(big: &[u64; LIMBS], i: usize, down: usize) -> u64 {
    if i >= down {
        big[i - down]
    } else {
        0
    }
}

/// `big`'s top 128 bits and whether any bit below them is set.
const fn top_bits(big: &[u64; LIMBS]) -> (u128, bool) {
    let mut top = LIMBS - 1;
    while big[top] == 0 {
        top -= 1;
    }
    // The top three limbs, shifted so the leading one is the window's.
    let shift = big[top].leading_zeros();
    let high = (big[top] as u128) << 64 | limb(big, top, 1) as u128;
    let low = limb(big, top, 2);
    let value = if shift == 0 {
        high
    } else {
        high << shift | (low >> (64 - shift)) as u128
    };
    let mut inexact = low << shift != 0;
    let mut i = 0;
    while i + 2 < top {
        inexact |= big[i] != 0;
        i += 1;
    }
    (value, inexact)
}

const fn pow10_table() -> [u128; 619] {
    let mut table = [0u128; 619];
    let zero = -POW10_MIN_EXP as usize;
    // 10^e and 5^e share their significand: 5^e for e ≥ 0, rounded up.
    let mut big = [0u64; LIMBS];
    big[0] = 1;
    let mut e = 0;
    while e < table.len() - zero {
        let (value, inexact) = top_bits(&big);
        table[zero + e] = value + inexact as u128;
        let mut carry = 0u128;
        let mut i = 0;
        while i < LIMBS {
            let product = big[i] as u128 * 5 + carry;
            big[i] = product as u64;
            carry = product >> 64;
            i += 1;
        }
        e += 1;
    }
    // ⌊2^832 / 5^j⌋ by repeated exact division; 2^832 / 5^j is never an
    // integer, so rounding its top bits up adds one.
    let mut big = [0u64; LIMBS];
    big[LIMBS - 1] = 1;
    let mut j = 1;
    while j <= zero {
        let mut remainder = 0u128;
        let mut i = LIMBS;
        while i > 0 {
            i -= 1;
            let current = remainder << 64 | big[i] as u128;
            big[i] = (current / 5) as u64;
            remainder = current % 5;
        }
        table[zero - j] = top_bits(&big).0 + 1;
        j += 1;
    }
    table
}

/// `u · g`: its top 128 bits and its low 64.
fn mul(u: u64, g: u128) -> (u128, u64) {
    let (u, low) = (u128::from(u), (g as u64 as u128) * u128::from(u));
    ((g >> 64) * u + (low >> 64), low as u64)
}

/// For the binary exponent `q`: `k = 2 − ⌊log10 2^q⌋`, which puts the
/// interval's width `δ = 2^q · 10^k` in `[100, 1000)`; `β`, for which
/// `u · g · 2^(β − 128)` is `u · 2^(q − 1) · 10^k`; `g`, `10^k`'s
/// [`POW10`] entry; and `δ`, the top of `g` shifted.
#[inline(always)]
fn scale(q: i32) -> (i32, i32, u128, u32) {
    let k = 2 - ((q * 315_653) >> 20);
    let beta = q + ((k * 1_741_647) >> 19);
    let g = POW10[(k - POW10_MIN_EXP) as usize];
    (k, beta, g, ((g >> 64) as u64 >> (63 - beta)) as u32)
}

/// The shortest decimal in the round-trip interval of `c · 2^q`, and of
/// those the closest, for every `c` but a normal power of two's (see
/// [`narrow`]): `Ok((s, last, exponent))` for `(10 · s + last) ·
/// 10^exponent`, `s` of 15 or 16 digits for a normal `c`, or, near the
/// interval's bounds, `Err((digits, exponent))`. Either may end in zeros.
#[inline(always)]
fn shortest(c: u64, q: i32) -> Result<(u64, u64, i32), (u64, i32)> {
    let (k, beta, g, delta) = scale(q);
    let upper = (mul((2 * c + 1) << beta, g).0 >> 64) as u64;
    // The closest multiple of 100 units is `dist / 100` hundreds above
    // `1000 · s`. A select, not a branch: either case is about as likely.
    let (s, r) = (upper / 1000, (upper % 1000) as u32);
    let dist = r.wrapping_sub(delta / 2).wrapping_add(50);
    if r == 0 || r == delta || dist % 100 == 0 {
        return Err((edge(c, q), 2 - k));
    }
    let last = select_unpredictable(r < delta, 0, dist / 100);
    Ok((s, u64::from(last), 2 - k))
}

/// [`shortest`]'s rare cases, which its select can get wrong: an
/// excluded upper bound, a candidate at the lower bound, and a rounding
/// that may be a unit high. Returns the digits at `10^(2 − k)`.
#[cold]
fn edge(c: u64, q: i32) -> u64 {
    let (_, beta, g, delta) = scale(q);
    // The parity of `u · 2^(q − 1)`'s scaled floor, and whether it is exact.
    let floor = |u: u64| {
        let (top, low) = mul(u, g);
        let fraction = (top as u64) << beta | low >> (64 - beta);
        ((top >> (64 - beta)) & 1 == 1, fraction == 0)
    };
    let (top, _) = mul((2 * c + 1) << beta, g);
    let upper = (top >> 64) as u64;
    // Round-half-even parsing lets an even significand own its bounds.
    let even = c & 1 == 0;
    let (s, r) = match (upper / 1000, (upper % 1000) as u32) {
        (s, 0) if top as u64 == 0 && !even => (s - 1, 1000),
        found => found,
    };
    // At r = δ the candidate is the lower bound's floor: compare fractions.
    let (odd, exact) = floor(2 * c - 1);
    if r < delta || (r == delta && (odd || (exact && even))) {
        return 10 * s;
    }
    // At a whole hundred the rounding may be a unit high; the value's
    // parity settles it. An exact tie stays up, as std rounds.
    let dist = r - delta / 2 + 50;
    let high = dist % 100 == 0 && floor(2 * c).0 != ((dist ^ 50) & 1 == 1);
    10 * s + u64::from(dist / 100) - u64::from(high)
}

/// The shortest decimal `digits · 10^exponent` for the significand
/// `2^52` at `q`, whose lower neighbour is half as far away as its upper.
#[cold]
fn narrow(q: i32) -> (u64, i32) {
    // k = −⌊log10(3/4 · 2^q)⌋ puts the bounds near 10^16.
    let k = -((q * 315_653 - 131_237) >> 20);
    let beta = q + ((k * 1_741_647) >> 19);
    let high = (POW10[(k - POW10_MIN_EXP) as usize] >> 64) as u64;
    // (2^52 − 1/4) and (2^52 + 1/2) times 2^q · 10^k; the lower bound is
    // whole only at q = 2 and 3.
    let lower = ((high - (high >> 54)) >> (11 - beta)) + u64::from(!(2..=3).contains(&q));
    let upper = (high + (high >> 53)) >> (11 - beta);
    if upper / 10 * 10 >= lower {
        return (upper / 10, 1 - k);
    }
    // The value rounded half up, nudged into the interval.
    let digits = (high >> (10 - beta)).div_ceil(2);
    (digits + u64::from(digits < lower), -k)
}

/// `10^0 ..= 10^19`.
static POW10_U64: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// Bytes past a number's start that its layout may store to: a sign, at
/// most 33 bytes of text and the overhang of its 16-byte stores.
pub(crate) const WINDOW: usize = 48;

/// Appends `x` exactly as `format!("{}", x)` renders it: the shortest
/// decimal that parses back to the same bits, in plain positional
/// notation. Non-finite values print as std prints them (`NaN`, `inf`,
/// `-inf`); JSON callers reject those before they get here.
pub fn write_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        let text = ["inf", "-inf", "NaN"][usize::from(x < 0.0) + 2 * usize::from(x.is_nan())];
        return out.extend_from_slice(text.as_bytes());
    }
    let start = out.len();
    out.extend_from_slice(&[0; WINDOW]);
    let len = print(out, start, x);
    out.truncate(start + len);
}

/// Prints finite `x` at `out[at..]` and returns the text's length. `out`
/// must hold `at + WINDOW` bytes; a text that does not fit them grows it.
/// Bytes past the text are left with whatever the stores put there.
#[inline(always)]
pub(crate) fn print(out: &mut Vec<u8>, at: usize, x: f64) -> usize {
    let bits = x.to_bits();
    // The sign is stored either way; a positive number overwrites it.
    out[at] = b'-';
    let sign = (bits >> 63) as usize;
    let (fraction, biased) = (bits & ((1 << 52) - 1), (bits >> 52) as i32 & 0x7ff);
    let at = at + sign;
    let (c, q) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, biased - 1075),
    };
    sign + if bits << 1 == 0 {
        out[at] = b'0';
        1
    } else if q <= 0 && c.trailing_zeros() as i32 >= -q {
        // Integers below 2^53 print as their own digits.
        print_digits(out, at, c >> -q, 0)
    } else if fraction == 0 && biased > 1 {
        let (digits, exponent) = narrow(q);
        print_digits(out, at, digits, exponent)
    } else {
        match shortest(c, q) {
            Ok((s, last, exponent)) if biased > 0 => layout(out, at, s, last, exponent),
            Ok((s, last, exponent)) => print_digits(out, at, 10 * s + last, exponent),
            Err((digits, exponent)) => print_digits(out, at, digits, exponent),
        }
    }
}

/// Lays out `digits · 10^exponent`, `0 < digits < 10^17`: the decimals
/// of integers, subnormals, powers of two and [`shortest`]'s rare cases.
#[inline(never)]
fn print_digits(out: &mut Vec<u8>, at: usize, digits: u64, exponent: i32) -> usize {
    // Padded to 17 digits: ⌊log10 digits⌋ is `guess` or `guess − 1`.
    let guess = (((64 - digits.leading_zeros()) * 1233) >> 12) as usize;
    let len = guess + usize::from(digits >= POW10_U64[guess]);
    let (digits, exponent) = (digits * POW10_U64[17 - len], len as i32 + exponent - 17);
    layout(out, at, digits / 10, digits % 10, exponent)
}

/// Lays out `(10 · s + last) · 10^exponent`, `10^14 ≤ s < 10^16`, as
/// std's `Display` does at `out[at..]`, which must hold `WINDOW` bytes,
/// and returns the text's length.
#[inline(always)]
fn layout(out: &mut Vec<u8>, at: usize, s: u64, last: u64, exponent: i32) -> usize {
    // Sixteen digit bytes, the first lowest, and a 17th digit: a 15-digit
    // `s` moves down a byte and takes `last` in as its 16th. Trailing
    // zeros are zero bytes at the top, and the text leaves them out.
    let short = s < POW10_U64[15];
    let values = digit_values(s);
    let zeros = select_unpredictable(last == 0, 1 + values.leading_zeros() as usize / 8, 0);
    let significant = 17 - zeros - usize::from(short);
    let values = select_unpredictable(short, values >> 8 | u128::from(last) << 120, values);
    let last = b'0' + select_unpredictable(short, 0, last as u8);
    // The decimal point sits `point` digits from the left.
    let point = 17 + exponent - i32::from(short);
    let text: &mut [u8; 40] = (&mut out[at..at + 40]).try_into().expect("40 bytes");
    if (1..=17).contains(&point) {
        let point = point as usize;
        text[..16].copy_from_slice(&ascii(values));
        if point >= significant {
            // An integer whose zeros, up to the point, are digit bytes.
            text[16] = last;
            return point;
        }
        // d.ddd: the digits after the point move up a byte. A point after
        // the sixteenth digit leaves one digit behind it, the last store's.
        text[point] = b'.';
        text[point + 1..point + 17].copy_from_slice(&ascii(values.wrapping_shr(8 * point as u32)));
        text[17] = last;
        significant + 1
    } else if (-14..=0).contains(&point) {
        // 0.000ddd: the zeros are one 16-byte store.
        let start = (2 - point) as usize;
        text[..16].copy_from_slice(b"0.00000000000000");
        text[start..start + 16].copy_from_slice(&ascii(values));
        text[start + 16] = last;
        start + significant
    } else {
        // From 10^17 up and below 10^-15 the zeros run past the window.
        let mut digits = [last; 17];
        digits[..16].copy_from_slice(&ascii(values));
        long(out, at, point, &digits[..significant])
    }
}

/// [`layout`]'s texts past its window, with their zeros written out.
#[cold]
fn long(out: &mut Vec<u8>, at: usize, point: i32, digits: &[u8]) -> usize {
    out.truncate(at);
    if point <= 0 {
        out.extend_from_slice(b"0.");
        out.resize(at + 2 + point.unsigned_abs() as usize, b'0');
    }
    out.extend_from_slice(digits);
    out.resize(out.len().max(at + point.max(0) as usize), b'0');
    out.len() - at
}

/// 16 digit bytes as ASCII, little-endian: the first digit first.
fn ascii(values: u128) -> [u8; 16] {
    (values + 0x3030_3030_3030_3030_3030_3030_3030_3030).to_le_bytes()
}

/// The sixteen decimal digits of `n < 10^16`, zero-padded, one per byte
/// with the first digit in the lowest byte.
fn digit_values(n: u64) -> u128 {
    // Four groups, each from its own quotient of `n`; `(a << 32) − b ·
    // (10^4 · 2^32 − 1)` is `b | (a − 10^4 · b) << 32`, two side by side.
    let (q12, q8, q4) = (n / 1_000_000_000_000, n / 100_000_000, n / 10_000);
    const SPLIT: u64 = (10_000 << 32) - 1;
    let high = (q8 << 32) - q12 * SPLIT;
    let low = (n << 32).wrapping_sub(q4.wrapping_mul(SPLIT)) - (q8 * 10_000);
    u128::from(group_values(high)) | u128::from(group_values(low)) << 64
}

/// Two four-digit groups, one per 32-bit lane, to their eight digits, one
/// per byte with the first lowest: the thousands, hundreds and tens are
/// quotients in every lane at once, and each digit is a quotient less ten
/// times the one before it.
fn group_values(x: u64) -> u64 {
    let thousands = ((x * 8_389) >> 23) & 0x0000_000f_0000_000f;
    let hundreds = ((x * 5_243) >> 19) & 0x0000_007f_0000_007f;
    let tens = ((x * 6_554) >> 16) & 0x0000_03ff_0000_03ff;
    // The arithmetic wraps; the result does not.
    let quotients = thousands + (hundreds << 8) + (tens << 16);
    (x << 24)
        .wrapping_add(quotients)
        .wrapping_sub((quotients << 8).wrapping_mul(10))
}
