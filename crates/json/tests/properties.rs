//! Property-based tests for the JSON subsystem.
//!
//! Written as deterministic sampling loops over [`gf_support::SplitMix64`]
//! (the offline build cannot fetch proptest): random value trees round-trip
//! through the writer and parser, random `f64` bit patterns round-trip
//! bit-for-bit, random mutations of valid documents never panic the
//! parser, and the shortest `f64` printer matches `format!("{}")` byte for
//! byte, at random and at its edges (powers of two, powers of ten,
//! `2^53`). `cargo test --release -p gf-json -- --ignored` runs the long
//! differential sample (over 50M values) and every value within 1,024
//! ulps of a power of two.

use gf_json::number::{POW10, POW10_MIN_EXP};
use gf_json::{parse, parse_with, write_f64, JsonError, JsonWriter, ParseLimits, Value};
use gf_support::SplitMix64;

const CASES: usize = 256;

fn rng(test_id: u64) -> SplitMix64 {
    SplitMix64::new(0x5EED_0000_0000_0000 ^ test_id)
}

/// Draws a random value tree of bounded depth: scalars at the leaves,
/// arrays/objects (with occasionally exotic keys) in between.
fn gen_value(rng: &mut SplitMix64, depth: usize) -> Value {
    let choice = if depth == 0 {
        rng.gen_index(5)
    } else {
        rng.gen_index(7)
    };
    match choice {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool()),
        2 => Value::Number(gen_finite_f64(rng)),
        3 => Value::String(gen_string(rng)),
        4 => Value::Number(rng.gen_range_u64(0, 1 << 53) as f64),
        5 => {
            let n = rng.gen_index(5);
            Value::Array((0..n).map(|_| gen_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_index(5);
            Value::Object(
                (0..n)
                    .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// A finite f64 drawn from raw bit patterns, spanning the full exponent
/// range including subnormals and signed zero.
fn gen_finite_f64(rng: &mut SplitMix64) -> f64 {
    loop {
        let candidate = f64::from_bits(rng.next_u64());
        if candidate.is_finite() {
            return candidate;
        }
    }
}

fn gen_string(rng: &mut SplitMix64) -> String {
    let exotic = [
        '"',
        '\\',
        '\n',
        '\t',
        '\u{0}',
        '\u{7}',
        '\u{1f}',
        'é',
        '→',
        '\u{1f600}',
        '\u{fffd}',
    ];
    let len = rng.gen_index(12);
    (0..len)
        .map(|_| {
            if rng.gen_bool() {
                exotic[rng.gen_index(exotic.len())]
            } else {
                (b'a' + rng.gen_index(26) as u8) as char
            }
        })
        .collect()
}

/// Bitwise equality on trees: `Value`'s derived `PartialEq` compares f64 by
/// value (so `-0.0 == 0.0` and NaN never equals itself); round-trip checks
/// need bits.
fn bit_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_equal(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && bit_equal(va, vb))
        }
        _ => a == b,
    }
}

/// `text` without the whitespace between its tokens (string contents
/// kept).
fn strip_insignificant_whitespace(text: &str) -> String {
    let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
    for c in text.chars() {
        if in_string {
            (in_string, escaped) = (escaped || c != '"', !escaped && c == '\\');
        } else if c.is_ascii_whitespace() {
            continue;
        } else {
            in_string = c == '"';
        }
        out.push(c);
    }
    out
}

#[test]
fn random_trees_round_trip_compact_and_pretty() {
    let mut rng = rng(1);
    for case in 0..CASES {
        let value = gen_value(&mut rng, 4);
        let compact = value.to_json_string().unwrap();
        let parsed = parse(&compact).unwrap();
        assert!(bit_equal(&parsed, &value), "case {case}: {compact}");
        // The reindenter only adds whitespace between tokens.
        let pretty = gf_json::pretty(&compact);
        assert_eq!(
            strip_insignificant_whitespace(&pretty),
            compact,
            "case {case}"
        );
        assert!(pretty.ends_with('\n'), "case {case}");
        let parsed = parse(&pretty).unwrap();
        assert!(bit_equal(&parsed, &value), "case {case} (pretty)");
    }
}

#[test]
fn random_f64_bit_patterns_round_trip_exactly() {
    let mut rng = rng(2);
    for _ in 0..4 * CASES {
        let n = gen_finite_f64(&mut rng);
        let text = Value::Number(n).to_json_string().unwrap();
        let back = parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), n.to_bits(), "{n:?} -> {text}");
    }
}

#[test]
fn f64_edge_cases_round_trip_or_reject() {
    // Signed zero survives the trip with its sign bit.
    let neg_zero = parse(&Value::Number(-0.0).to_json_string().unwrap())
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
    // 1e-9-scale precision is exact, not approximate.
    let tiny = 1e-9;
    let back = parse(&Value::Number(tiny).to_json_string().unwrap())
        .unwrap()
        .as_f64()
        .unwrap();
    assert_eq!(back.to_bits(), tiny.to_bits());
    // Non-finite numbers are rejected by the writer...
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(
            Value::Number(bad).to_json_string().unwrap_err(),
            JsonError::NonFinite
        );
    }
    // ...and by the parser, as literals and as overflow.
    for bad in [
        "NaN",
        "nan",
        "Infinity",
        "-Infinity",
        "inf",
        "1e999",
        "-1e999",
    ] {
        assert!(parse(bad).is_err(), "accepted {bad}");
    }
}

#[test]
fn mutated_documents_never_panic_the_parser() {
    let mut rng = rng(3);
    for _ in 0..CASES {
        let value = gen_value(&mut rng, 3);
        let mut text = value.to_json_string().unwrap().into_bytes();
        // Apply a few random byte mutations (overwrite, truncate, extend).
        for _ in 0..1 + rng.gen_index(3) {
            if text.is_empty() {
                break;
            }
            match rng.gen_index(3) {
                0 => {
                    let i = rng.gen_index(text.len());
                    text[i] = (rng.next_u64() & 0x7f) as u8;
                }
                1 => {
                    text.truncate(rng.gen_index(text.len()));
                }
                _ => {
                    text.push(b"{}[],:\"0"[rng.gen_index(8)]);
                }
            }
        }
        // Mutations may produce invalid UTF-8; the parser takes &str, so
        // only check the lossy re-decoding — the point is "no panic".
        let text = String::from_utf8_lossy(&text);
        let _ = parse(&text);
    }
}

#[test]
fn depth_limit_is_enforced_at_every_level() {
    let mut rng = rng(4);
    for _ in 0..32 {
        let limit = 1 + rng.gen_index(12);
        let limits = ParseLimits {
            max_depth: limit,
            max_bytes: 1 << 20,
        };
        // Alternate array/object nesting to the exact limit: accepted.
        let mut doc = String::from("0");
        for level in 0..limit {
            doc = if level % 2 == 0 {
                format!("[{doc}]")
            } else {
                format!("{{\"k\":{doc}}}")
            };
        }
        assert!(parse_with(&doc, limits).is_ok(), "depth {limit}");
        // One level deeper: rejected with DepthLimit, not a stack overflow.
        let deeper = format!("[{doc}]");
        assert_eq!(
            parse_with(&deeper, limits).unwrap_err(),
            JsonError::DepthLimit { limit },
        );
    }
}

#[test]
fn nested_round_trip_preserves_structure_through_reserialization() {
    // Serialize → parse → serialize must be a fixed point (the writer is
    // deterministic and the parser preserves order).
    let mut rng = rng(5);
    for _ in 0..CASES {
        let value = gen_value(&mut rng, 4);
        let first = value.to_json_string().unwrap();
        let second = parse(&first).unwrap().to_json_string().unwrap();
        assert_eq!(first, second);
    }
}

fn assert_prints_like_std(x: f64) {
    let mut ours = Vec::new();
    write_f64(&mut ours, x);
    let std = format!("{x}");
    assert_eq!(ours, std.as_bytes(), "bits {:#018x}: {std}", x.to_bits());
}

/// `per_binade` random mantissas (either sign) in each of the 2047 finite
/// binades, subnormals included, then `raw` random bit patterns.
fn differential_sample(seed: u64, per_binade: usize, raw: usize) {
    let mut rng = rng(seed);
    for exponent in 0..2047u64 {
        for _ in 0..per_binade {
            let bits = (rng.next_u64() & 0x800f_ffff_ffff_ffff) | exponent << 52;
            assert_prints_like_std(f64::from_bits(bits));
        }
    }
    for _ in 0..raw {
        assert_prints_like_std(gen_finite_f64(&mut rng));
    }
}

/// Values `N + j/2^k` whose last representable bits make the shortest
/// decimal an exact tie between two candidates, for `N` drawn from each
/// binade 2^44…2^52 and every `j`, scaled by 1, −1, 1e−10, 1e10 and 1/1024
/// (1/1024 keeps the tie, the decimal scales probe its neighbours).
fn tie_sweep(seed: u64, per_binade: usize) {
    let mut rng = rng(seed);
    for e in 44..=52u32 {
        let k = 52 - e;
        for _ in 0..per_binade {
            let n = (1u64 << e) + rng.gen_range_u64(0, (1u64 << e) - 1);
            for j in 0..1u64 << k {
                let x = n as f64 + j as f64 / (1u64 << k) as f64;
                for scale in [1.0, -1.0, 1e-10, 1e10, 1.0 / 1024.0] {
                    assert_prints_like_std(x * scale);
                }
            }
        }
    }
}

/// The finite bit patterns within `ulps` of `center`, either sign.
fn around(center: u64, ulps: u64) -> impl Iterator<Item = f64> {
    let finite = f64::MAX.to_bits();
    (center.saturating_sub(ulps)..=(center + ulps).min(finite))
        .flat_map(|bits| [f64::from_bits(bits), -f64::from_bits(bits)])
}

/// The printer's edges, either sign: within `pow2_ulps` of every power of
/// two (a normal one's lower neighbour is half as far away as its upper,
/// the narrower interval), within `pow10_ulps` of every `1e{k}` (where
/// the length and the point move), and `2^53` give or take 1–4, where the
/// integer fast path ends.
fn edge_sweep(pow2_ulps: u64, pow10_ulps: u64) {
    let powers_of_two = (0..52).map(|i| 1u64 << i).chain((1..2047).map(|e| e << 52));
    for bits in powers_of_two {
        around(bits, pow2_ulps).for_each(assert_prints_like_std);
    }
    for k in -323..=308 {
        let x: f64 = format!("1e{k}").parse().unwrap();
        around(x.to_bits(), pow10_ulps).for_each(assert_prints_like_std);
    }
    let two_53 = 1u64 << 53;
    around((two_53 as f64).to_bits(), 4).for_each(assert_prints_like_std);
    for n in (two_53 - 4..=two_53 + 4).map(|n| n as f64) {
        assert_prints_like_std(n);
        assert_prints_like_std(-n);
    }
}

#[test]
fn shortest_printer_matches_std_display() {
    let mut sample = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
    ];
    for bits in (1..=64u64).chain([0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000]) {
        sample.push(f64::from_bits(bits)); // subnormals
    }
    for k in -323..=308 {
        let x: f64 = format!("1e{k}").parse().unwrap();
        sample.extend([x, -x]);
    }
    for n in 1..=100u64 {
        sample.extend([n as f64, -(n as f64), (n << 40) as f64]);
    }
    for &x in &sample {
        assert_prints_like_std(x);
    }
    edge_sweep(2, 3);
    // The writer's number memo copies earlier text for repeated numbers;
    // the body must still read like std, fresh or appending to a prefix.
    let mut rng = rng(10);
    assert_writer_prints_like_std("", &sample, &mut rng);
    assert_writer_prints_like_std(
        r#"{"région":"Île-de-France ⚡","cells":"#,
        &sample,
        &mut rng,
    );
    // About a million values in all.
    differential_sample(6, 256, 200_000);
    tie_sweep(7, 100);
}

/// Strings a body carries between its numbers: escapes, control bytes
/// and multi-byte characters.
const TEXTS: [&str; 6] = [
    "plain",
    "tab\t quote\" back\\ nl\n",
    "é→\u{1f600} ünï",
    "nul\u{0} bell\u{7} us\u{1f}",
    "日本語\r\u{8}\u{c}",
    "",
];

/// `s` as a JSON string, escaped one character at a time.
fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `values` through one [`JsonWriter`] the ways a result body
/// repeats numbers, and compares the text with the same document built
/// from std's `Display` of each. Each value comes back at once, after a
/// short gap and after a random longer one; then the first 64 values cycle
/// four times, more distinct numbers than the memo has slots, so they
/// collide and evict each other. Strings and objects with escaped or
/// multi-byte keys sit between the numbers, with the number before each
/// repeated after it (a memo hit across it), and the body passes 64 KiB.
fn assert_writer_prints_like_std(prefix: &str, values: &[f64], rng: &mut SplitMix64) {
    let mut sequence = Vec::with_capacity(4 * values.len() + 256);
    for (i, &x) in values.iter().enumerate() {
        sequence.extend([x, x, values[i / 2], values[rng.gen_index(i + 1)]]);
    }
    for _ in 0..4 {
        sequence.extend_from_slice(&values[..64]);
    }
    let mut w = JsonWriter::appending(prefix.to_string());
    let mut std = Vec::with_capacity(2 * sequence.len());
    w.begin_array();
    for (i, &x) in sequence.iter().enumerate() {
        let text = TEXTS[i / 8 % TEXTS.len()];
        match i % 8 {
            3 => {
                w.string(text);
                std.push(json_string(text));
            }
            6 => {
                w.begin_object();
                w.member(text, &x);
                w.end_object();
                std.push(format!("{{{}:{x}}}", json_string(text)));
            }
            _ => {}
        }
        w.number(x);
        std.push(format!("{x}"));
    }
    w.end_array();
    let text = w.finish().unwrap();
    assert!(text.len() > 64 << 10, "a {} byte body", text.len());
    assert_eq!(text, format!("{prefix}[{}]", std.join(",")));
}

#[test]
fn exact_ties_round_up_like_std() {
    // …668.25 sits halfway between …668.2 and …668.3: std rounds up,
    // Dragonbox's round-half-even would print …668.2.
    let x = f64::from_bits(0x4319_9493_9e58_15f1);
    let mut out = Vec::new();
    write_f64(&mut out, x);
    assert_eq!(out, b"1800059038860668.3");
}

#[test]
#[ignore = "long differential run (over 50M values); run in release"]
fn shortest_printer_matches_std_display_long() {
    differential_sample(8, 16_384, 16_000_000);
    tie_sweep(9, 10_000);
    // Every value within 1,024 ulps of a power of two: about 8.5M more.
    edge_sweep(1_024, 3);
}

/// Little-endian base-2³² natural number: just enough arithmetic to
/// rebuild the printer's power-of-5 tables from first principles.
struct Big(Vec<u32>);

impl Big {
    fn pow2(exponent: u32) -> Big {
        let mut limbs = vec![0; exponent as usize / 32 + 1];
        limbs[exponent as usize / 32] = 1 << (exponent % 32);
        Big(limbs)
    }

    fn pow5(exponent: u32) -> Big {
        let mut big = Big(vec![1]);
        for _ in 0..exponent {
            let mut carry = 0u64;
            for limb in &mut big.0 {
                let product = u64::from(*limb) * 5 + carry;
                *limb = product as u32;
                carry = product >> 32;
            }
            if carry > 0 {
                big.0.push(carry as u32);
            }
        }
        big
    }

    fn div5(&mut self) {
        let mut remainder = 0u64;
        for limb in self.0.iter_mut().rev() {
            let current = remainder << 32 | u64::from(*limb);
            *limb = (current / 5) as u32;
            remainder = current % 5;
        }
    }

    fn bits(&self) -> u32 {
        let top = self.0.iter().rposition(|&limb| limb != 0).unwrap();
        top as u32 * 32 + (32 - self.0[top].leading_zeros())
    }

    /// Whether any of the lowest `n` bits is set.
    fn any_below(&self, n: u32) -> bool {
        (0..n).any(|bit| self.0[bit as usize / 32] >> (bit % 32) & 1 == 1)
    }

    /// The value shifted so exactly `n ≤ 128` significant bits remain
    /// (the value itself when `n` is its bit length).
    fn top_bits(&self, n: u32) -> u128 {
        let bits = self.bits();
        let shift = bits.saturating_sub(n);
        let value = (shift..bits).rev().fold(0u128, |acc, bit| {
            acc << 1 | u128::from(self.0[bit as usize / 32] >> (bit % 32) & 1)
        });
        value << n.saturating_sub(bits)
    }
}

/// `10^e`'s top 128 bits, rounded up: `5^e`'s for `e ≥ 0`, and
/// `⌊2^(bits(5^j) + 127) / 5^j⌋ + 1` for `e = −j < 0` (never exact).
fn exact_pow10(e: i32) -> u128 {
    let j = e.unsigned_abs();
    let power = Big::pow5(j);
    if e >= 0 {
        let dropped = power.bits().saturating_sub(128);
        return power.top_bits(128) + u128::from(power.any_below(dropped));
    }
    let mut quotient = Big::pow2(power.bits() + 127);
    for _ in 0..j {
        quotient.div5();
    }
    quotient.top_bits(128) + 1
}

#[test]
fn power_of_5_tables_match_a_bignum_rebuild() {
    // The multipliers are 10^e's, so 5^e's, significands: every one the
    // printer can reach, from the smallest subnormal to f64::MAX.
    for (i, &stored) in POW10.iter().enumerate() {
        let e = i as i32 + POW10_MIN_EXP;
        assert_eq!(stored, exact_pow10(e), "10^{e}");
    }
    assert_eq!(POW10_MIN_EXP + POW10.len() as i32 - 1, 326);
    assert_eq!(POW10[(-POW10_MIN_EXP) as usize], 1 << 127, "10^0 is exact");
}
