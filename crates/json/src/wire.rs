//! Declarative wire structs: one field list generates a [`ToJson`] and,
//! where the type is read as well as written, a [`FromJson`] (see
//! [`wire_struct!`](crate::wire_struct)), plus the member helpers the
//! generated and the hand-written decoders share.
//!
//! [`ToJson`]: crate::ToJson
//! [`FromJson`]: crate::FromJson

use crate::{FromJson, JsonError, Node};

/// Reads and decodes a required object member, naming `key` in errors.
///
/// # Errors
///
/// [`JsonError::Schema`] when the member is missing or does not decode.
pub fn decode_member<T: FromJson>(value: Node<'_>, key: &'static str) -> Result<T, JsonError> {
    decode_found(value.get(key), key)
}

/// [`decode_member`] of a member already looked up.
#[doc(hidden)]
pub fn decode_found<T: FromJson>(member: Option<Node<'_>>, key: &str) -> Result<T, JsonError> {
    let member = member.ok_or_else(|| JsonError::schema(key, "missing required field"))?;
    T::from_node(member).map_err(|e| prefix_schema(key, e))
}

/// Decodes an optional object member, falling back to `fallback()` when it
/// is absent or `null`.
///
/// # Errors
///
/// [`JsonError::Schema`] when a present member does not decode.
pub fn decode_member_or<T: FromJson>(
    value: Node<'_>,
    key: &'static str,
    fallback: impl FnOnce() -> T,
) -> Result<T, JsonError> {
    decode_found_or(value.get(key), key, fallback)
}

/// [`decode_member_or`] of a member already looked up.
#[doc(hidden)]
pub fn decode_found_or<T: FromJson>(
    member: Option<Node<'_>>,
    key: &str,
    fallback: impl FnOnce() -> T,
) -> Result<T, JsonError> {
    match member.filter(|member| !member.is_null()) {
        Some(member) => T::from_node(member).map_err(|e| prefix_schema(key, e)),
        None => Ok(fallback()),
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
pub fn expect_object(value: Node<'_>) -> Result<(), JsonError> {
    if value.members().is_some() {
        Ok(())
    } else {
        Err(JsonError::schema("", "expected an object"))
    }
}

/// Declares a wire struct: one field list generates the struct, its
/// [`ToJson`](crate::ToJson) and, for what the service reads, its
/// [`FromJson`](crate::FromJson).
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
/// | `f: T [with m]` | `m::write_json(&f, w)` | `m::from_node(member)` (`member: Option<Node>`) |
/// | `f: (A, B) as ("lo", "hi")` | two members | two members (`[default (a, b)]` allowed) |
///
/// The decoder reads a [`Node`](crate::Node) of the body's tape
/// ([`FromJson::from_node`](crate::FromJson::from_node)). `as "key"`
/// renames the wire member. An `Option<T>` field encodes `null`
/// for `None`; give it `[default None]` to accept absence, or
/// `[omit None]` to leave it off the wire too. A trailing `check path`
/// runs `path(&decoded)?` after decoding, for shape rules that span
/// fields.
///
/// The forms, by what they generate:
///
/// | Form | `ToJson` | `FromJson` |
/// |---|---|---|
/// | `struct Name { fields }` | yes | yes |
/// | `struct Name: ToJson { fields }` | yes | no |
/// | `impl Name { fields }` | yes | yes |
/// | `impl ToJson for Name { fields }` | yes | no |
/// | `impl FromJson for Name { fields }` | no | yes |
///
/// A `struct` form also declares the struct; an `impl` form is for a
/// struct declared elsewhere. Requests decode and encode; results only
/// leave the process, so they take an encode-only form (`: ToJson` or
/// `impl ToJson for`), and their `[with m]` codecs need no `from_node`.
/// `impl FromJson for` is for types whose encoder adds computed members by
/// hand.
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
/// wire_struct! {
///     /// A result: encoded, never decoded.
///     pub struct Echo: ToJson {
///         /// The probe's name.
///         pub name: String,
///     }
/// }
///
/// let probe = Probe::from_json(&parse(r#"{"name": "a", "from": 1, "to": 2}"#)?)?;
/// assert_eq!(probe.size, 64);
/// assert_eq!(
///     probe.to_json_string()?,
///     r#"{"name":"a","bytes":64,"from":1,"to":2}"#
/// );
/// assert_eq!(Echo { name: probe.name }.to_json_string()?, r#"{"name":"a"}"#);
/// # Ok::<(), gf_json::JsonError>(())
/// ```
#[macro_export]
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(: $only:ident)? {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(as $key:tt)? $([$($mode:tt)*])?),* $(,)?
        }
        $(check $check:path)?
    ) => {
        $(#[$meta])*
        $vis struct $name { $($(#[$fmeta])* $fvis $field: $ty,)* }
        $crate::wire_struct! {
            impl $($only for)? $name { $($field: $ty $(as $key)? $([$($mode)*])?),* } $(check $check)?
        }
    };
    ($(#[$meta:meta])* impl FromJson for $name:ident {
        $($field:ident : $ty:ty $(as $key:tt)? $([$($mode:tt)*])?),* $(,)?
    } $(check $check:path)?) => {
        $(#[$meta])*
        impl $crate::FromJson for $name {
            #[allow(unused_mut, unused_variables)]
            fn from_node(value: $crate::Node<'_>) -> Result<$name, $crate::JsonError> {
                $crate::expect_object(value)?;
                // One pass over the members; each field keeps the last of
                // its own (a `flatten` field reads the whole object).
                $(let mut $field = $crate::__wire_find!($field $($key)?; $($($mode)*)?);)*
                for (key, member) in value.members().into_iter().flatten() {
                    $($crate::__wire_find!(key, member, $field $($key)?; $($($mode)*)?);)*
                }
                let decoded = $name {
                    $($field: $crate::__wire_decode!(value, $field, $ty, $field $($key)?; $($($mode)*)?),)*
                };
                $($check(&decoded)?;)?
                Ok(decoded)
            }
        }
    };
    ($(#[$meta:meta])* impl ToJson for $name:ident {
        $($field:ident : $ty:ty $(as $key:tt)? $([$($mode:tt)*])?),* $(,)?
    }) => {
        $(#[$meta])*
        impl $crate::ToJson for $name {
            fn write_json(&self, w: &mut $crate::JsonWriter) {
                w.begin_object();
                $($crate::__wire_encode!(w, &self.$field, $field $($key)?; $($($mode)*)?);)*
                w.end_object();
            }
        }
    };
    ($(#[$meta:meta])* impl $name:ident {
        $($field:ident : $ty:ty $(as $key:tt)? $([$($mode:tt)*])?),* $(,)?
    } $(check $check:path)?) => {
        $crate::wire_struct! {
            $(#[$meta])* impl ToJson for $name { $($field: $ty $(as $key)? $([$($mode)*])?),* }
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

/// The member slot of a field (one arm set), and the step of the member
/// pass that fills it (the other).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_find {
    ($field:ident; flatten) => {
        ()
    };
    ($field:ident ($lo:literal, $hi:literal); $($mode:tt)*) => {
        (None, None)
    };
    ($field:ident $($key:literal)?; $($mode:tt)*) => {
        None
    };
    ($k:ident, $member:ident, $field:ident; flatten) => {};
    ($k:ident, $member:ident, $field:ident ($lo:literal, $hi:literal); $($mode:tt)*) => {
        if $k.is_str($lo) {
            $field.0 = Some($member);
            continue;
        } else if $k.is_str($hi) {
            $field.1 = Some($member);
            continue;
        }
    };
    ($k:ident, $member:ident, $field:ident $($key:literal)?; $($mode:tt)*) => {
        if $k.is_str($crate::__wire_key!($field $($key)?)) {
            $field = Some($member);
            continue;
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_decode {
    ($value:ident, $slot:ident, $ty:ty, $field:ident; flatten) => {
        <$ty as $crate::FromJson>::from_node($value)?
    };
    ($value:ident, $slot:ident, $ty:ty, $field:ident ($lo:literal, $hi:literal); default $default:expr) => {
        (
            $crate::decode_found_or($slot.0, $lo, || $default.0)?,
            $crate::decode_found_or($slot.1, $hi, || $default.1)?,
        )
    };
    ($value:ident, $slot:ident, $ty:ty, $field:ident ($lo:literal, $hi:literal);) => {
        (
            $crate::decode_found($slot.0, $lo)?,
            $crate::decode_found($slot.1, $hi)?,
        )
    };
    ($value:ident, $slot:ident, $ty:ty, $field:ident $($key:literal)?; with $codec:ident) => {{
        let key = $crate::__wire_key!($field $($key)?);
        $codec::from_node($slot).map_err(|e| $crate::prefix_schema(key, e))?
    }};
    // `default d` and `omit d` decode alike.
    ($value:ident, $slot:ident, $ty:ty, $field:ident $($key:literal)?; $mode:ident $default:expr) => {
        $crate::decode_found_or($slot, $crate::__wire_key!($field $($key)?), || $default)?
    };
    ($value:ident, $slot:ident, $ty:ty, $field:ident $($key:literal)?;) => {
        $crate::decode_found($slot, $crate::__wire_key!($field $($key)?))?
    };
}
