//! Declarative wire structs: one field list generates both [`ToJson`] and
//! [`FromJson`] (see [`wire_struct!`](crate::wire_struct)), plus the
//! member helpers the generated and the hand-written codecs share.
//!
//! [`ToJson`]: crate::ToJson
//! [`FromJson`]: crate::FromJson

use crate::{FromJson, JsonError, Value};

/// Reads and decodes a required object member, naming `key` in errors.
///
/// # Errors
///
/// [`JsonError::Schema`] when the member is missing or does not decode.
pub fn decode_member<T: FromJson>(value: &Value, key: &'static str) -> Result<T, JsonError> {
    let member = value
        .get(key)
        .ok_or_else(|| JsonError::schema(key, "missing required field"))?;
    T::from_json(member).map_err(|e| prefix_schema(key, e))
}

/// Decodes an optional object member, falling back to `fallback()` when it
/// is absent or `null`.
///
/// # Errors
///
/// [`JsonError::Schema`] when a present member does not decode.
pub fn decode_member_or<T: FromJson>(
    value: &Value,
    key: &'static str,
    fallback: impl FnOnce() -> T,
) -> Result<T, JsonError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(fallback()),
        Some(member) => T::from_json(member).map_err(|e| prefix_schema(key, e)),
    }
}

/// Prefixes the field path of a nested schema error, so `lifetime_years`
/// inside `point` reports as `point.lifetime_years` and element `[3]` of
/// `points` as `points[3]`. Errors raised by a primitive decoder (`at` is
/// empty or names the primitive) report `key` alone.
pub fn prefix_schema(key: &str, error: JsonError) -> JsonError {
    match error {
        JsonError::Schema { at, message } => JsonError::Schema {
            at: if at.is_empty()
                || (at == key && !key.starts_with('['))
                || matches!(at.as_str(), "number" | "string" | "bool" | "array")
            {
                key.to_string()
            } else if at.starts_with('[') {
                format!("{key}{at}")
            } else {
                format!("{key}.{at}")
            },
            message,
        },
        other => other,
    }
}

/// Fails unless `value` is an object — the first check of every generated
/// decoder, so a member-less wire struct still rejects `7` or `[]`.
///
/// # Errors
///
/// [`JsonError::Schema`] for a non-object.
pub fn expect_object(value: &Value) -> Result<(), JsonError> {
    match value {
        Value::Object(_) => Ok(()),
        _ => Err(JsonError::schema("", "expected an object")),
    }
}

/// Declares a wire struct: one field list generates the struct, its
/// [`ToJson`](crate::ToJson) and its [`FromJson`](crate::FromJson).
///
/// Members are encoded in field order. Each field is
/// `name: Type [as key] [[mode]]`:
///
/// | Field | Encodes | Decodes |
/// |---|---|---|
/// | `f: T` | always, under `"f"` | required |
/// | `f: T [default d]` | always | `d` when absent or `null` |
/// | `f: T [omit d]` | only when `f != d` | `d` when absent or `null` |
/// | `f: T [flatten]` | `f`'s object members, spliced in place | from the whole object |
/// | `f: T [with m]` | `m::write_json(&f, w)` | `m::from_json(member)` (`member: Option<&Value>`) |
/// | `f: (A, B) as ("lo", "hi")` | two members | two members (`[default (a, b)]` allowed) |
///
/// `as "key"` renames the wire member. An `Option<T>` field encodes `null`
/// for `None`; give it `[default None]` to accept absence, or
/// `[omit None]` to leave it off the wire too. A trailing `check path`
/// runs `path(&decoded)?` after decoding, for shape rules that span
/// fields.
///
/// Two more forms generate codecs for structs declared elsewhere:
/// `wire_struct! { impl Name { fields } }` generates both traits, and
/// `wire_struct! { impl FromJson for Name { fields } }` only the decoder,
/// for types whose encoder adds computed members by hand.
///
/// ```
/// use gf_json::{parse, wire_struct, FromJson, ToJson};
///
/// wire_struct! {
///     /// A request.
///     #[derive(Debug, PartialEq)]
///     pub struct Probe {
///         /// Required.
///         pub name: String,
///         /// Renamed and defaulted.
///         pub size: u64 as "bytes" [default 64],
///         /// Left off the wire while false.
///         pub verbose: bool [omit false],
///         /// Two members.
///         pub range: (f64, f64) as ("from", "to"),
///     }
/// }
///
/// let probe = Probe::from_json(&parse(r#"{"name": "a", "from": 1, "to": 2}"#)?)?;
/// assert_eq!(probe.size, 64);
/// assert_eq!(
///     probe.to_json().to_json_string()?,
///     r#"{"name":"a","bytes":64,"from":1,"to":2}"#
/// );
/// # Ok::<(), gf_json::JsonError>(())
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(as $key:tt)? $([$($mode:tt)*])?),* $(,)?
        }
        $(check $check:path)?
    ) => {
        $(#[$meta])*
        $vis struct $name { $($(#[$fmeta])* $fvis $field: $ty,)* }
        $crate::wire_struct! {
            impl $name { $($field: $ty $(as $key)? $([$($mode)*])?),* } $(check $check)?
        }
    };
    ($(#[$meta:meta])* impl FromJson for $name:ident {
        $($field:ident : $ty:ty $(as $key:tt)? $([$($mode:tt)*])?),* $(,)?
    } $(check $check:path)?) => {
        $(#[$meta])*
        impl $crate::FromJson for $name {
            fn from_json(value: &$crate::Value) -> Result<$name, $crate::JsonError> {
                $crate::expect_object(value)?;
                let decoded = $name {
                    $($field: $crate::__wire_decode!(value, $ty, $field $($key)?; $($($mode)*)?),)*
                };
                $($check(&decoded)?;)?
                Ok(decoded)
            }
        }
    };
    ($(#[$meta:meta])* impl $name:ident {
        $($field:ident : $ty:ty $(as $key:tt)? $([$($mode:tt)*])?),* $(,)?
    } $(check $check:path)?) => {
        $(#[$meta])*
        impl $crate::ToJson for $name {
            fn write_json(&self, w: &mut $crate::JsonWriter) {
                w.begin_object();
                $($crate::__wire_encode!(w, &self.$field, $field $($key)?; $($($mode)*)?);)*
                w.end_object();
            }
        }
        $crate::wire_struct! {
            impl FromJson for $name { $($field: $ty $(as $key)? $([$($mode)*])?),* } $(check $check)?
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_key {
    ($field:ident) => {
        stringify!($field)
    };
    ($field:ident $key:literal) => {
        $key
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_encode {
    ($w:ident, $value:expr, $field:ident; flatten) => {
        $w.splice($value)
    };
    ($w:ident, $value:expr, $field:ident ($lo:literal, $hi:literal); $($mode:tt)*) => {{
        let (lo, hi) = $value;
        $w.member($lo, lo);
        $w.member($hi, hi);
    }};
    ($w:ident, $value:expr, $field:ident $($key:literal)?; omit $default:expr) => {
        if *$value != $default {
            $w.member($crate::__wire_key!($field $($key)?), $value);
        }
    };
    ($w:ident, $value:expr, $field:ident $($key:literal)?; with $codec:ident) => {{
        $w.key($crate::__wire_key!($field $($key)?));
        $codec::write_json($value, $w);
    }};
    ($w:ident, $value:expr, $field:ident $($key:literal)?; $(default $default:expr)?) => {
        $w.member($crate::__wire_key!($field $($key)?), $value)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_decode {
    ($value:ident, $ty:ty, $field:ident; flatten) => {
        <$ty as $crate::FromJson>::from_json($value)?
    };
    ($value:ident, $ty:ty, $field:ident ($lo:literal, $hi:literal); default $default:expr) => {
        (
            $crate::decode_member_or($value, $lo, || $default.0)?,
            $crate::decode_member_or($value, $hi, || $default.1)?,
        )
    };
    ($value:ident, $ty:ty, $field:ident ($lo:literal, $hi:literal);) => {
        (
            $crate::decode_member($value, $lo)?,
            $crate::decode_member($value, $hi)?,
        )
    };
    ($value:ident, $ty:ty, $field:ident $($key:literal)?; with $codec:ident) => {{
        let key = $crate::__wire_key!($field $($key)?);
        $codec::from_json($value.get(key)).map_err(|e| $crate::prefix_schema(key, e))?
    }};
    // `default d` and `omit d` decode alike.
    ($value:ident, $ty:ty, $field:ident $($key:literal)?; $mode:ident $default:expr) => {
        $crate::decode_member_or($value, $crate::__wire_key!($field $($key)?), || $default)?
    };
    ($value:ident, $ty:ty, $field:ident $($key:literal)?;) => {
        $crate::decode_member($value, $crate::__wire_key!($field $($key)?))?
    };
}
