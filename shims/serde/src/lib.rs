//! Offline shim for the subset of `serde` this workspace uses.
//!
//! Instead of the full serde data model and a proc-macro derive, this
//! shim serializes through an explicit [`Value`] tree: [`Serialize`]
//! lowers a type into a [`Value`], [`Deserialize`] reconstructs it. The
//! companion `serde_json` shim renders and parses `Value` as JSON.
//!
//! Structs opt in with [`impl_serde_struct!`]; transparent newtypes with
//! [`impl_serde_newtype!`]. Both produce impls equivalent to
//! `#[derive(Serialize, Deserialize)]` for the types this workspace
//! persists (maps, sequences, integers, strings, booleans).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;

/// A serialized value tree (the JSON data model, with exact integers).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (serialized exactly).
    U64(u64),
    /// Signed integer (serialized exactly).
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Sequence.
    Seq(Vec<Value>),
    /// Key-ordered map (JSON object).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in a [`Value::Map`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// Builds an error from anything displayable.
    pub fn msg(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Lowers a value into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self`.
    fn to_value(&self) -> Value;
}

/// Reconstructs a value from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes from `value`.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

macro_rules! impl_serde_uint {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $ty {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::U64(v) => <$ty>::try_from(*v)
                        .map_err(|_| Error::msg(concat!("out of range for ", stringify!($ty)))),
                    Value::I64(v) => <$ty>::try_from(*v)
                        .map_err(|_| Error::msg(concat!("out of range for ", stringify!($ty)))),
                    other => Err(Error::msg(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $ty {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::I64(v) => <$ty>::try_from(*v)
                        .map_err(|_| Error::msg(concat!("out of range for ", stringify!($ty)))),
                    Value::U64(v) => <$ty>::try_from(*v)
                        .map_err(|_| Error::msg(concat!("out of range for ", stringify!($ty)))),
                    other => Err(Error::msg(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::msg(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::F64(v) => Ok(*v),
            Value::U64(v) => Ok(*v as f64),
            Value::I64(v) => Ok(*v as f64),
            other => Err(Error::msg(format!("expected number, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::msg(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::msg(format!("expected sequence, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Default + Copy, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items = <Vec<T>>::from_value(value)?;
        if items.len() != N {
            return Err(Error::msg(format!("expected array of length {N}, got {}", items.len())));
        }
        let mut out = [T::default(); N];
        out.copy_from_slice(&items);
        Ok(out)
    }
}

/// Map keys must render to (and parse from) strings — the JSON object
/// key model. Implemented for `String` and the unsigned integers.
pub trait MapKey: Ord {
    /// Renders the key.
    fn to_key(&self) -> String;
    /// Parses the key.
    fn from_key(key: &str) -> Result<Self, Error>
    where
        Self: Sized;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

macro_rules! impl_map_key_uint {
    ($($ty:ty),*) => {$(
        impl MapKey for $ty {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, Error> {
                key.parse().map_err(|_| Error::msg(format!("bad integer key {key:?}")))
            }
        }
    )*};
}

impl_map_key_uint!(u8, u16, u32, u64, usize);

impl<K: MapKey, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(self.iter().map(|(k, v)| (k.to_key(), v.to_value())).collect())
    }
}

impl<K: MapKey, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Map(entries) => {
                entries.iter().map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?))).collect()
            }
            other => Err(Error::msg(format!("expected map, found {other:?}"))),
        }
    }
}

/// Implements [`Serialize`]/[`Deserialize`] for a struct with named
/// fields, equivalent to `#[derive(Serialize, Deserialize)]`. Fields
/// listed after `skip` behave as under `#[serde(skip)]`: they are not
/// written, and read back as `Default::default()`.
///
/// ```
/// #[derive(Default, PartialEq, Debug)]
/// struct Counts { hits: u64, label: String }
/// serde::impl_serde_struct!(Counts { hits, label });
///
/// let v = serde::Serialize::to_value(&Counts { hits: 3, label: "x".into() });
/// let back: Counts = serde::Deserialize::from_value(&v).unwrap();
/// assert_eq!(back, Counts { hits: 3, label: "x".into() });
/// ```
#[macro_export]
macro_rules! impl_serde_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        $crate::impl_serde_struct!($ty { $($field),+ } skip {});
    };
    ($ty:ident { $($field:ident),+ $(,)? } skip { $($skip:ident),* $(,)? }) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Value::Map(vec![
                    $( (stringify!($field).to_string(), $crate::Serialize::to_value(&self.$field)) ),+
                ])
            }
        }
        impl $crate::Deserialize for $ty {
            fn from_value(value: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                Ok($ty {
                    $(
                        $field: $crate::Deserialize::from_value(
                            value.get(stringify!($field)).ok_or_else(|| {
                                $crate::Error::msg(concat!(
                                    "missing field `", stringify!($field), "` in ", stringify!($ty)
                                ))
                            })?,
                        )?,
                    )+
                    $( $skip: ::std::default::Default::default(), )*
                })
            }
        }
    };
}

/// Implements transparent [`Serialize`]/[`Deserialize`] for a tuple
/// newtype (`struct Id(pub u32)`), matching serde's newtype handling.
///
/// ```
/// #[derive(PartialEq, Debug)]
/// struct Id(pub u32);
/// serde::impl_serde_newtype!(Id);
///
/// let v = serde::Serialize::to_value(&Id(7));
/// assert_eq!(v, serde::Value::U64(7));
/// let back: Id = serde::Deserialize::from_value(&v).unwrap();
/// assert_eq!(back, Id(7));
/// ```
#[macro_export]
macro_rules! impl_serde_newtype {
    ($ty:ident) => {
        impl $crate::Serialize for $ty {
            fn to_value(&self) -> $crate::Value {
                $crate::Serialize::to_value(&self.0)
            }
        }
        impl $crate::Deserialize for $ty {
            fn from_value(value: &$crate::Value) -> ::std::result::Result<Self, $crate::Error> {
                Ok($ty($crate::Deserialize::from_value(value)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Default)]
    struct Inner {
        a: u32,
        b: bool,
    }
    impl_serde_struct!(Inner { a, b });

    #[derive(Debug, PartialEq, Default)]
    struct Outer {
        inner: Inner,
        tags: Vec<String>,
        by_id: BTreeMap<u32, u64>,
    }
    impl_serde_struct!(Outer { inner, tags, by_id });

    #[test]
    fn struct_round_trip() {
        let outer = Outer {
            inner: Inner { a: 7, b: true },
            tags: vec!["x".into(), "y".into()],
            by_id: [(3u32, 30u64), (1, 10)].into_iter().collect(),
        };
        let v = outer.to_value();
        assert_eq!(v.get("inner").and_then(|i| i.get("a")), Some(&Value::U64(7)));
        let back = Outer::from_value(&v).unwrap();
        assert_eq!(back, outer);
    }

    #[derive(Debug, PartialEq, Default)]
    struct Partial {
        kept: u64,
        ledger: Vec<u64>,
    }
    impl_serde_struct!(Partial { kept } skip { ledger });

    #[test]
    fn skipped_fields_are_not_written_and_read_back_as_default() {
        let v = Partial { kept: 3, ledger: vec![1, 2] }.to_value();
        assert_eq!(v, Value::Map(vec![("kept".into(), Value::U64(3))]));
        assert_eq!(Partial::from_value(&v).unwrap(), Partial { kept: 3, ledger: vec![] });
    }

    #[test]
    fn missing_field_is_an_error() {
        let v = Value::Map(vec![("a".into(), Value::U64(1))]);
        let err = Inner::from_value(&v).unwrap_err();
        assert!(err.0.contains("missing field `b`"), "{err}");
    }

    #[test]
    fn option_null_round_trip() {
        assert_eq!(None::<u64>.to_value(), Value::Null);
        assert_eq!(<Option<u64>>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(<Option<u64>>::from_value(&Value::U64(4)).unwrap(), Some(4));
    }

    #[test]
    fn integer_range_checked() {
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert_eq!(u8::from_value(&Value::U64(255)).unwrap(), 255);
        assert!(u32::from_value(&Value::Str("no".into())).is_err());
    }
}
