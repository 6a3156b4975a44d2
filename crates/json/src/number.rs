//! Shortest round-trip `f64` printing, byte-identical to `format!("{}", x)`.
//!
//! The digits come from Ryu's `d2d` search (Ulf Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018): the shortest decimal inside the
//! interval of reals that round to `x`, and of those the closest to `x`.
//! The power-of-5 multipliers use Ryu's small-table variant: every 26th
//! power is a constant below, and the rest are one 64×128-bit product away,
//! plus a two-bit correction from the offset tables. The layout is std's
//! `Display`: plain decimal with no exponent, `0.000…` below one, `-0` for
//! negative zero and no `.0` on integers.
//!
//! One departure from Ryu: when `x` lies exactly halfway between the two
//! closest shortest candidates, std rounds up and Ryu rounds to even, so
//! this printer rounds up (`1800059038860668.25` prints as
//! `1800059038860668.3`).

/// Bits of each 128-bit power-of-5 multiplier.
const POW5_BITCOUNT: i32 = 125;
/// Bits of each 128-bit inverse power-of-5 multiplier.
const POW5_INV_BITCOUNT: i32 = 125;
/// Stride of the stored powers: 5^(26k) and 5^-(26k) are stored, and
/// `5^offset` for `offset < 26` fits in a `u64`.
const POW5_STRIDE: u32 = 26;

/// `5^0 ..= 5^25`.
pub const POW5_TABLE: [u64; POW5_STRIDE as usize] = {
    let mut table = [1u64; POW5_STRIDE as usize];
    let mut i = 1;
    while i < table.len() {
        table[i] = table[i - 1] * 5;
        i += 1;
    }
    table
};

/// `5^(26k)` normalized to its top 125 bits, for `k = 0..13`.
pub const POW5_SPLIT2: [u128; 13] = [
    0x10000000_00000000_00000000_00000000,
    0x14adf4b7_320334b9_00000000_00000000,
    0x1aba4714_957d300d_0e549208_b31adb10,
    0x1145b7e2_85bf98f5_6dc6ad26_4d8f0866,
    0x1652efdc_6018a1fc_eb1dbd92_3d8596ca,
    0x1cda6205_5b2d9d83_b4c1b80b_22ae923c,
    0x12a5568b_9f52f416_5bb28b4e_8f7e4c30,
    0x18196515_31f9e78f_f08aed43_7682d4fb,
    0x1f25c186_a6f04c28_b4ee134a_d99bf150,
    0x1420eb44_9c8842e6_16499ecb_70c25f03,
    0x1a03fde2_14caf085_85a56ead_360865b0,
    0x10cfeb35_3a97dad8_093db1d5_7999890b,
    0x15baaf44_fa52673e_cf38bb73_5e3f36ac,
];

/// `⌊2^(bits(5^(26k)) − 1 + 125) / 5^(26k)⌋ + 1`, for `k = 0..13`.
pub const POW5_INV_SPLIT2: [u128; 13] = [
    0x20000000_00000000_00000000_00000001,
    0x18c240c4_aecb13bb_52a6c95f_c0655034,
    0x1327fc58_da0f6ff5_7ca8d500_71dfc806,
    0x1da48ce4_68e7c702_6520247d_3556476e,
    0x16ef5b40_c2fc7779_6139cdd7_6802e6e9,
    0x11bebdf5_78b2f391_f951a7ff_43de8c79,
    0x1b758d84_8fac54b0_7be8bee8_d6e957e8,
    0x153eda61_4071a3b7_8bd3f9e9_99a423ea,
    0x10701bd5_27b4978c_0848f973_cb3ee3ce,
    0x196fbb9b_b44db44d_153285eb_b9efbfa2,
    0x13ae3591_f5b4d936_adeee7f8_6c07b696,
    0x1e74404f_3daada91_4d686a4e_af182222,
    0x17900ea4_fda7c257_98c0a106_e09ebd9f,
];

/// Two-bit corrections of [`pow5`], sixteen per word, for `i = 0..326`.
pub const POW5_OFFSETS: [u32; 21] = [
    0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x40000000, 0x59695995, 0x55545555, 0x56555515,
    0x41150504, 0x40555410, 0x44555145, 0x44504540, 0x45555550, 0x40004000, 0x96440440, 0x55565565,
    0x54454045, 0x40154151, 0x55559155, 0x51405555, 0x00000105,
];

/// Two-bit corrections of [`inv_pow5`], sixteen per word, for `i = 0..292`.
pub const POW5_INV_OFFSETS: [u32; 19] = [
    0x54544554, 0x04055545, 0x10041000, 0x00400414, 0x40010000, 0x41155555, 0x00000454, 0x00010044,
    0x40000000, 0x44000041, 0x50454450, 0x55550054, 0x51655554, 0x40004000, 0x01000001, 0x00010500,
    0x51515411, 0x05555554, 0x00000000,
];

/// `⌈log2(5^e)⌉` (1 for `e = 0`), exact for `0 ≤ e ≤ 3528`.
const fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊log10(2^e)⌋`, exact for `0 ≤ e ≤ 1650`.
const fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `⌊log10(5^e)⌋`, exact for `0 ≤ e ≤ 2620`.
const fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

fn correction(offsets: &[u32], i: u32) -> u128 {
    u128::from((offsets[(i / 16) as usize] >> ((i % 16) * 2)) & 3)
}

/// `5^i` normalized to its top 125 bits, for `i < 326`.
pub fn pow5(i: u32) -> u128 {
    if i < POW5_STRIDE {
        // Exact: 5^i < 2^59 shifts up into the top 125 bits.
        return u128::from(POW5_TABLE[i as usize]) << (125 - pow5bits(i));
    }
    let base = i / POW5_STRIDE;
    let base2 = base * POW5_STRIDE;
    let mul = POW5_SPLIT2[base as usize];
    let offset = i - base2;
    if offset == 0 {
        return mul;
    }
    let shift = pow5bits(i) - pow5bits(base2);
    shift_product(POW5_TABLE[offset as usize], mul, shift) + correction(&POW5_OFFSETS, i)
}

/// `⌊2^(bits(5^i) − 1 + 125) / 5^i⌋ + 1`, for `i < 292`.
pub fn inv_pow5(i: u32) -> u128 {
    let base = i.div_ceil(POW5_STRIDE);
    let base2 = base * POW5_STRIDE;
    let mul = POW5_INV_SPLIT2[base as usize];
    let offset = base2 - i;
    if offset == 0 {
        return mul;
    }
    let shift = pow5bits(base2) - pow5bits(i);
    shift_product(POW5_TABLE[offset as usize], mul - 1, shift)
        + 1
        + correction(&POW5_INV_OFFSETS, i)
}

/// `⌊m · mul / 2^shift⌋` for `shift < 64`, truncated to 128 bits.
fn shift_product(m: u64, mul: u128, shift: u32) -> u128 {
    let m = u128::from(m);
    let low = m * (mul as u64 as u128);
    let high = m * (mul >> 64);
    (high << (64 - shift)).wrapping_add(low >> shift)
}

/// `⌊m · mul / 2^j⌋` for `j ≥ 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

fn pow5_factor(mut value: u64) -> u32 {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count
}

fn multiple_of_power_of_5(value: u64, p: u32) -> bool {
    pow5_factor(value) >= p
}

/// The shortest decimal `(digits, exponent)` with `digits · 10^exponent`
/// inside the round-trip interval of the positive finite double with the
/// given IEEE fields.
fn d2d(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits so the interval bounds stay integral.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - 1023 - 52 - 2,
            (1u64 << 52) | ieee_mantissa,
        )
    };
    // Round-half-even parsing: an even mantissa owns its interval bounds.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // A power of two above the smallest normal has its lower neighbour
    // half as far away, so its lower bound is closer (mm_shift 0).
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    let (mut vr, mut vp, mut vm, e10);
    // Whether the exact lower bound ends in the digits removed so far.
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5bits(q) as i32 - 1;
        let j = (-e2 + q as i32 + k) as u32;
        let mul = inv_pow5(q);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        // At most one of mv, mp and mm is a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_power_of_5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5((-e2) as u32) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = (-e2) as u32 - q;
        let k = pow5bits(i) as i32 - POW5_BITCOUNT;
        let j = (q as i32 - k) as u32;
        let mul = pow5(i);
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            if accept_bounds {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate, then
    // round vr by the last digit dropped. Ryu also tracks whether the
    // dropped digits of vr are exactly 50…0, to round that tie to even;
    // std rounds it up, so the last dropped digit alone decides here.
    let mut removed = 0;
    let output = if vm_trailing_zeros {
        // Rare: the exact lower bound may itself be the shortest candidate.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && (!accept_bounds || !vm_trailing_zeros)) || last_removed >= 5)
    } else {
        let mut round_up = false;
        // Two digits at a time first: most values drop at least two.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        // Step up when vr falls outside the interval or rounds up.
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes `n`'s decimal digits right-aligned into `buf`, returning the
/// index of the first digit.
fn write_digits(mut n: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("digits are ASCII"));
}

fn push_zeros(out: &mut String, count: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    let mut left = count;
    while left > 0 {
        let run = left.min(ZEROS.len());
        out.push_str(&ZEROS[..run]);
        left -= run;
    }
}

/// Appends `x` exactly as `format!("{}", x)` renders it: the shortest
/// decimal that parses back to the same bits, in plain positional
/// notation. Non-finite values print as std prints them (`NaN`, `inf`,
/// `-inf`); JSON callers reject those before they get here.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str(if x.is_nan() {
            "NaN"
        } else if x > 0.0 {
            "inf"
        } else {
            "-inf"
        });
        return;
    }
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let ieee_mantissa = bits & ((1u64 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as u32;
    let mut digits = [0u8; 20];

    // Integers below 2^53 print as their own digits.
    let e2 = ieee_exponent as i32 - 1023 - 52;
    if (-52..=0).contains(&e2) {
        let m2 = (1u64 << 52) | ieee_mantissa;
        if m2 & ((1u64 << -e2) - 1) == 0 {
            let first = write_digits(m2 >> -e2, &mut digits);
            push_ascii(out, &digits[first..]);
            return;
        }
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out.push('0');
        return;
    }

    let (mut mantissa, mut exponent) = d2d(ieee_mantissa, ieee_exponent);
    while mantissa.is_multiple_of(10) {
        mantissa /= 10;
        exponent += 1;
    }
    let first = write_digits(mantissa, &mut digits);
    let digits = &digits[first..];
    let len = digits.len();
    // The decimal point sits `point` digits from the left.
    let point = len as i32 + exponent;
    // Lay the text out on the stack when it fits, as one push.
    let mut text = [b'0'; 48];
    if point <= 0 {
        let zeros = (-point) as usize;
        if 2 + zeros + len <= text.len() {
            text[1] = b'.';
            text[2 + zeros..2 + zeros + len].copy_from_slice(digits);
            push_ascii(out, &text[..2 + zeros + len]);
        } else {
            out.push_str("0.");
            push_zeros(out, zeros);
            push_ascii(out, digits);
        }
    } else if (point as usize) < len {
        let (int, frac) = digits.split_at(point as usize);
        text[..int.len()].copy_from_slice(int);
        text[int.len()] = b'.';
        text[int.len() + 1..=len].copy_from_slice(frac);
        push_ascii(out, &text[..=len]);
    } else {
        push_ascii(out, digits);
        push_zeros(out, point as usize - len);
    }
}
