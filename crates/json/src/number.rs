//! Shortest round-trip `f64` printing, byte-identical to `format!("{}", x)`,
//! straight into a byte buffer.
//!
//! The digits come from Schubfach (Raffaello Giulietti, "The Schubfach way
//! to render doubles", 2020). Scaled by `10^-k`, the interval of reals that
//! round to `x` is between 1 and 10 units wide, so it holds at most one
//! multiple of ten units and at least one whole unit. Three 128-bit
//! multiplies bound it; one check for a multiple of ten, then one pick
//! between the two units around `x`, give the shortest decimal and, of
//! those, the closest. There is no digit-removal loop: trailing zeros are
//! read off the digit bytes.
//!
//! The multipliers are `10^e`'s top 128 bits rounded up ([`POW10`]),
//! built at compile time by a small bignum. The layout is std's `Display`:
//! plain decimal with no exponent, `0.000…` below one, `-0` for negative
//! zero and no `.0` on integers. The digits come out as four groups of
//! four, each from its own quotient, which SWAR arithmetic splits into
//! digit bytes two groups at a time; they are stored straight into the
//! caller's buffer, 16 bytes per store, and nothing is staged or
//! re-validated.
//!
//! One departure from the paper: when `x` lies exactly halfway between the
//! two closest candidates, std rounds up and Schubfach rounds to even, so
//! this printer rounds up (`1800059038860668.25` prints as
//! `1800059038860668.3`).

/// The smallest exponent `e` of [`POW10`]; the largest is 324.
pub const POW10_MIN_EXP: i32 = -292;

/// `⌈10^e · 2^(127 − ⌊log2 10^e⌋)⌉`, the top 128 bits of `10^e` rounded
/// up, for `e` in `-292..=324`: entry `e − POW10_MIN_EXP`.
pub static POW10: [u128; 617] = pow10_table();

/// Limbs of the table builder's bignum: `2^832` fits, and so does `5^324`.
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

const fn pow10_table() -> [u128; 617] {
    let mut table = [0u128; 617];
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

/// `⌊g · cp / 2^128⌋`, with its lowest bit set when the discarded part
/// is above the error of the rounded-up `g` (round to odd).
fn round_to_odd(g: u128, cp: u64) -> u64 {
    let cp = u128::from(cp);
    let low = (g as u64 as u128) * cp;
    let high = (g >> 64) * cp + (low >> 64);
    (high >> 64) as u64 | u64::from(high as u64 > 1)
}

/// The shortest decimal `digits · 10^exponent` inside the round-trip
/// interval of `c · 2^q`, and of those the closest to it; `digits` may
/// end in zeros, which the layout drops. `lower_closer` marks a power of
/// two whose lower neighbour is half as far away as its upper one.
fn shortest(c: u64, q: i32, lower_closer: bool) -> (u64, i32) {
    // k = ⌊log10(2^q)⌋, or ⌊log10(3/4 · 2^q)⌋ for the narrower interval.
    let k = (q * 315_653 - if lower_closer { 131_237 } else { 0 }) >> 20;
    // h = q + ⌊log2 10^-k⌋ + 1 leaves the products scaled by 10^-k · 2^q.
    let h = q + ((-k * 1_741_647) >> 19) + 1;
    let g = POW10[(-k - POW10_MIN_EXP) as usize];
    // Four times the value and its bounds, scaled; round-half-even
    // parsing lets an even significand own its bounds.
    let vb = round_to_odd(g, c << (h + 2));
    let lower = round_to_odd(g, (4 * c - 2 + u64::from(lower_closer)) << h) + (c & 1);
    let upper = round_to_odd(g, (4 * c + 2) << h) - (c & 1);
    let s = vb / 4;
    // At most one multiple of ten units fits in the interval: if it does,
    // it is the answer. Otherwise pick between the two units around the
    // value: the one inside, or the closer one, and the upper on a tie.
    // Selects, not branches: either case is about as likely.
    let ten = s / 10 * 40;
    let (down, up) = (lower <= ten, ten + 40 <= upper);
    let short = down != up;
    let (down_unit, up_unit) = (lower <= 4 * s, 4 * s + 4 <= upper);
    let up_unit = if down_unit == up_unit {
        vb >= 4 * s + 2
    } else {
        up_unit
    };
    let digits = if short {
        s / 10 + u64::from(up)
    } else {
        s + u64::from(up_unit)
    };
    (digits, k + i32::from(short))
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

/// The number of decimal digits of `n > 0`.
fn decimal_len(n: u64) -> usize {
    // ⌊log10 n⌋ is `guess` or `guess − 1`.
    let guess = (((64 - n.leading_zeros()) * 1233) >> 12) as usize;
    guess + usize::from(n >= POW10_U64[guess])
}

/// Appends `x` exactly as `format!("{}", x)` renders it: the shortest
/// decimal that parses back to the same bits, in plain positional
/// notation. Non-finite values print as std prints them (`NaN`, `inf`,
/// `-inf`); JSON callers reject those before they get here.
pub fn write_f64(out: &mut Vec<u8>, x: f64) {
    if !x.is_finite() {
        out.extend_from_slice(if x.is_nan() {
            b"NaN"
        } else if x > 0.0 {
            b"inf"
        } else {
            b"-inf"
        });
        return;
    }
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let fraction = bits & ((1u64 << 52) - 1);
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 && fraction == 0 {
        out.push(b'0');
        return;
    }
    let (c, q) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    // Integers below 2^53 print as their own digits.
    let (digits, exponent) = if (-52..=0).contains(&q) && c & ((1u64 << -q) - 1) == 0 {
        (c >> -q, 0)
    } else {
        shortest(c, q, fraction == 0 && biased > 1)
    };
    // From 10^14 up, which every normal number's Schubfach digits are, two
    // comparisons give the length.
    let len = if digits >= POW10_U64[14] {
        15 + usize::from(digits >= POW10_U64[15]) + usize::from(digits >= POW10_U64[16])
    } else {
        decimal_len(digits)
    };
    // The last digit, and the rest as sixteen digit bytes with the first
    // in the lowest byte: trailing zeros are zero bytes at the top, and
    // the text leaves them out.
    let (values, last) = (digit_values(digits), (digits % 10) as u8);
    let zeros = if last == 0 {
        1 + values.leading_zeros() as usize / 8
    } else {
        0
    };
    let (len, exponent, full) = (len - zeros, exponent + zeros as i32, len);
    // The decimal point sits `point` digits from the left.
    let point = len as i32 + exponent;
    let text = if point <= 0 {
        2 + (-point) as usize + len
    } else {
        len.max(point as usize) + usize::from((point as usize) < len)
    };
    // Lay the text out over a run of '0's, which already holds every
    // leading and trailing zero, with whole 16-byte stores that may run
    // past the text; then cut the run back to the text. Up to 24 bytes of
    // text (every 17-digit fraction) the run has a fixed size.
    let start = out.len();
    if text <= 24 {
        out.extend_from_slice(&[b'0'; 40]);
    } else {
        out.resize(start + text + 16, b'0');
    }
    let body = &mut out[start..];
    // All digits but the last, left-aligned in 16 bytes; the last is
    // stored on its own, where a stripped trailing zero is cut off again.
    let lead = shift_out(values, 17 - full);
    let last = b'0' + last;
    if point <= 0 {
        let first = text - len;
        body[1] = b'.';
        body[first..first + 16].copy_from_slice(&ascii(lead));
        body[first + full - 1] = last;
    } else {
        body[..16].copy_from_slice(&ascii(lead));
        if (point as usize) < len {
            let point = point as usize;
            body[point] = b'.';
            body[point + 1..point + 17].copy_from_slice(&ascii(shift_out(lead, point)));
            body[full] = last;
        } else {
            body[full - 1] = last;
        }
    }
    out.truncate(start + text);
}

/// `values` without its first `n` digit bytes, for `n < 16`. At `n = 16`
/// the shift wraps and `values` comes back whole; that is harmless here:
/// the lead of a one-digit number is all zero bytes, and a fraction of
/// one digit has its bytes overwritten by the last digit or cut off.
fn shift_out(values: u128, n: usize) -> u128 {
    values.wrapping_shr(8 * n as u32)
}

/// 16 digit bytes as ASCII, little-endian: the first digit first.
fn ascii(values: u128) -> [u8; 16] {
    (values + 0x3030_3030_3030_3030_3030_3030_3030_3030).to_le_bytes()
}

/// The first sixteen of `n < 10^17`'s seventeen decimal digits,
/// zero-padded, one per byte with the first digit in the lowest byte.
fn digit_values(n: u64) -> u128 {
    // Four groups of four digits, each from its own quotient of `n`, so
    // no split waits on another.
    let (q13, q9, q5, q1) = (
        n / 10_000_000_000_000,
        n / 1_000_000_000,
        n / 100_000,
        n / 10,
    );
    let high = q13 | (q9 - q13 * 10_000) << 32;
    let low = (q5 - q9 * 10_000) | (q1 - q5 * 10_000) << 32;
    u128::from(group_values(high)) | u128::from(group_values(low)) << 64
}

/// Two four-digit groups, one per 32-bit lane, to their eight digits, one
/// per byte with the first in the lowest, by SWAR arithmetic: pairs, then
/// digits, each split in every lane at once.
fn group_values(x: u64) -> u64 {
    let hundreds = ((x * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let x = hundreds | (x - hundreds * 100) << 16;
    let tens = ((x * 103) >> 10) & 0x000f_000f_000f_000f;
    tens | (x - tens * 10) << 8
}
