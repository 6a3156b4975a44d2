//! Tests of the token tape: the number fast paths against
//! `str::parse::<f64>` bit for bit, the node-count bound, and bodies at
//! the size and depth extremes. `cargo test --release -p gf-json --
//! --ignored` runs the long number differential.

use gf_json::{parse, Document, JsonError, ParseLimits, Value};
use gf_support::SplitMix64;

/// A random digit string of `len` digits (the first nonzero when
/// `lead` is set).
fn digits(rng: &mut SplitMix64, len: usize, lead: bool) -> String {
    (0..len)
        .map(|i| {
            let low = u64::from(lead && i == 0 && len > 1);
            char::from(b'0' + rng.gen_range_u64(low, 9) as u8)
        })
        .collect()
}

/// A random number lexeme: an integer or a decimal of 1–20 digits, with
/// an optional sign and an occasional exponent, so both the fast paths
/// and the `str::parse` fallback are exercised.
fn lexeme(rng: &mut SplitMix64) -> String {
    let mut text = String::new();
    if rng.gen_bool() {
        text.push('-');
    }
    let int_len = 1 + rng.gen_index(17);
    text += &if rng.gen_index(4) == 0 {
        "0".to_string()
    } else {
        digits(rng, int_len, true)
    };
    if rng.gen_bool() {
        let frac_len = 1 + rng.gen_index(18);
        text.push('.');
        text += &digits(rng, frac_len, false);
    }
    if rng.gen_index(8) == 0 {
        text.push(if rng.gen_bool() { 'e' } else { 'E' });
        text += ["", "+", "-"][rng.gen_index(3)];
        text += &rng.gen_index(330).to_string();
    }
    text
}

/// Checks one lexeme through both entries against `str::parse`.
fn check(text: &str) {
    let want: f64 = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
    let doc = Document::parse(text, ParseLimits::default());
    if !want.is_finite() {
        assert_eq!(doc.unwrap_err(), JsonError::NonFinite, "{text}");
        return;
    }
    let got = doc.unwrap().root().as_f64().unwrap();
    assert_eq!(got.to_bits(), want.to_bits(), "{text}: {got} != {want}");
    let Ok(Value::Number(value)) = parse(text) else {
        panic!("{text} is not a number");
    };
    assert_eq!(value.to_bits(), want.to_bits(), "{text} as a Value");
}

const EDGES: [&str; 24] = [
    "0",
    "-0",
    "0.0",
    "-0.0",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "123456789012345",
    "1234567890123456",
    "12345678901234567",
    "999999999999999",
    "0.1",
    "0.2",
    "0.3",
    "-0.1",
    "1.000000000000001",
    "0.000000000000001",
    "0.00000000000000001",
    "12345678.9012345",
    "1.7976931348623157e308",
    "5e-324",
    "2.2250738585072014e-308",
    "1e999",
];

#[test]
fn number_fast_paths_match_std_on_edges_and_seeded_lexemes() {
    for text in EDGES {
        check(text);
    }
    let mut rng = SplitMix64::new(0x7A9E_0000_0000_0001);
    for _ in 0..200_000 {
        check(&lexeme(&mut rng));
    }
}

#[test]
#[ignore = "long run; CI runs it in release with --ignored"]
fn number_fast_paths_match_std_long_run() {
    let mut rng = SplitMix64::new(0x7A9E_0000_0000_0002);
    for _ in 0..20_000_000 {
        check(&lexeme(&mut rng));
    }
}

/// A random compact or spaced document: the densest ones are what the
/// node bound is about.
fn document(rng: &mut SplitMix64, depth: usize, out: &mut String) {
    let space = |rng: &mut SplitMix64, out: &mut String| {
        if rng.gen_index(4) == 0 {
            out.push(' ');
        }
    };
    match rng.gen_index(if depth == 0 { 4 } else { 6 }) {
        0 => out.push('0'),
        1 => out.push_str("\"\""),
        2 => out.push_str(["null", "true", "7.5"][rng.gen_index(3)]),
        3 => out.push_str("\"k\\n\""),
        close => {
            let object = close == 5;
            out.push(if object { '{' } else { '[' });
            for i in 0..rng.gen_index(6) {
                if i > 0 {
                    out.push(',');
                }
                space(rng, out);
                if object {
                    out.push_str("\"\":");
                }
                document(rng, depth - 1, out);
            }
            out.push(if object { '}' } else { ']' });
        }
    }
}

#[test]
fn a_tape_holds_at_most_one_node_per_two_bytes() {
    let mut rng = SplitMix64::new(0x7A9E_0000_0000_0003);
    let mut texts: Vec<String> = [
        "0", "[]", "\"\"", "[0,0,0]", "[[],[]]", "{\"\":0}", "[[[0]]]",
    ]
    .map(String::from)
    .into();
    for _ in 0..2_000 {
        let mut text = String::new();
        document(&mut rng, 5, &mut text);
        texts.push(text);
    }
    for text in &texts {
        let doc = Document::parse(text, ParseLimits::default()).unwrap();
        assert!(doc.node_count() <= text.len().div_ceil(2), "{text}");
    }
}

#[test]
fn a_4_mib_array_parses_and_depth_65_is_rejected() {
    let zeros = format!("[{}]", vec!["0"; 2 << 20].join(","));
    assert_eq!(zeros.len(), (4 << 20) + 1);
    let doc = Document::parse(&zeros, ParseLimits::default()).unwrap();
    assert_eq!(doc.node_count(), (2 << 20) + 1, "one node per value");
    assert_eq!(doc.root().items().unwrap().len(), 2 << 20);
    let Ok(Value::Array(items)) = parse(&zeros) else {
        panic!("the array parses");
    };
    assert!(items.len() == 2 << 20 && items.iter().all(|v| v.as_f64() == Some(0.0)));
    let limits = ParseLimits {
        max_bytes: 4 << 20,
        ..ParseLimits::default()
    };
    let error = Document::parse(&zeros, limits).unwrap_err();
    assert_eq!(error, JsonError::SizeLimit { limit: 4 << 20 });

    let nested = |depth: usize| format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
    assert!(Document::parse(&nested(64), ParseLimits::default()).is_ok());
    let error = Document::parse(&nested(65), ParseLimits::default()).unwrap_err();
    assert_eq!(
        error.to_string(),
        "JSON nesting exceeds the depth limit of 64"
    );
}
