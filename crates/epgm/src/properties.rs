//! Typed property values and property maps (the `K`, `A`, `κ` components of
//! Definition 2.1).
//!
//! Properties are schema-free key-value pairs set at the instance level.
//! [`PropertyValue`] supports the types the paper's queries touch (booleans,
//! 32/64-bit integers, doubles, strings, lists) plus `Null`, and provides the
//! byte (de)serialization used by the embedding `propData` array
//! (paper Section 3.3).

use std::cmp::Ordering;

use gradoop_dataflow::Data;

/// A typed property value.
#[derive(Debug, Clone)]
pub enum PropertyValue {
    /// Absent / explicit null (the `ε` of Definition 2.1).
    Null,
    /// Boolean.
    Boolean(bool),
    /// 32-bit signed integer.
    Int(i32),
    /// 64-bit signed integer.
    Long(i64),
    /// 32-bit float.
    Float(f32),
    /// 64-bit float.
    Double(f64),
    /// UTF-8 string.
    String(String),
    /// Homogeneous or heterogeneous list.
    List(Vec<PropertyValue>),
}

/// Type tags used in the serialized form.
mod tag {
    pub const NULL: u8 = 0;
    pub const BOOLEAN: u8 = 1;
    pub const INT: u8 = 2;
    pub const LONG: u8 = 3;
    pub const DOUBLE: u8 = 4;
    pub const STRING: u8 = 5;
    pub const LIST: u8 = 6;
    pub const FLOAT: u8 = 7;
}

/// Exact three-way comparison of an `i64` against an `f64`; `None` when
/// `y` is NaN. The row value order (`gradoop_core::cmp_values`) uses it
/// too, so both value domains share one numeric comparison.
///
/// Both `x as f64` and `y as i64` lose precision beyond 2^53, which is how
/// `Long(2^53 + 1)` used to compare `Equal` to `Long(2^53)`. Instead we
/// compare against `floor(y)`, which is exactly representable as `i64`
/// whenever `y` is within the `i64` range, and break ties on the fractional
/// part.
pub fn cmp_i64_f64(x: i64, y: f64) -> Option<Ordering> {
    if y.is_nan() {
        return None;
    }
    // `i64::MAX as f64` rounds up to 2^63, so `y >= 2^63` here: y exceeds
    // every i64. Symmetrically `i64::MIN as f64` is exactly -2^63.
    if y >= i64::MAX as f64 {
        return Some(Ordering::Less);
    }
    if y < i64::MIN as f64 {
        return Some(Ordering::Greater);
    }
    let floor = y.floor();
    let ifloor = floor as i64; // exact: -2^63 <= floor < 2^63
    Some(x.cmp(&ifloor).then(if y > floor {
        Ordering::Less
    } else {
        Ordering::Equal
    }))
}

/// Error raised when deserializing malformed property bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyDecodeError(pub String);

impl std::fmt::Display for PropertyDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed property bytes: {}", self.0)
    }
}

impl std::error::Error for PropertyDecodeError {}

impl PropertyValue {
    /// `true` for [`PropertyValue::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, PropertyValue::Null)
    }

    /// The value as a numeric `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            PropertyValue::Int(v) => Some(*v as f64),
            PropertyValue::Long(v) => Some(*v as f64),
            PropertyValue::Float(v) => Some(*v as f64),
            PropertyValue::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropertyValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64` if it is an integer type.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            PropertyValue::Int(v) => Some(*v as i64),
            PropertyValue::Long(v) => Some(*v),
            _ => None,
        }
    }

    /// Three-way comparison with Cypher semantics: numbers compare across
    /// numeric types by value (`Int`/`Long`/`Float`/`Double`, e.g.
    /// `2015 < 2015.5`), strings/booleans compare within their type, anything
    /// else (including any comparison involving `Null`) is incomparable.
    ///
    /// Integer comparisons are exact: a pair of integers never rounds
    /// through `f64`, and integer-vs-float pairs go through [`cmp_i64_f64`]
    /// so 64-bit values beyond 2^53 keep their full precision.
    pub fn compare(&self, other: &PropertyValue) -> Option<Ordering> {
        use PropertyValue::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (String(a), String(b)) => Some(a.cmp(b)),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.compare(y)? {
                        Ordering::Equal => continue,
                        ord => return Some(ord),
                    }
                }
                Some(a.len().cmp(&b.len()))
            }
            _ => match (self.as_i64(), other.as_i64()) {
                (Some(a), Some(b)) => Some(a.cmp(&b)),
                (Some(a), None) => cmp_i64_f64(a, other.as_f64()?),
                (None, Some(b)) => cmp_i64_f64(b, self.as_f64()?).map(Ordering::reverse),
                (None, None) => {
                    let (a, b) = (self.as_f64()?, other.as_f64()?);
                    a.partial_cmp(&b)
                }
            },
        }
    }

    /// Serializes the value as `tag` byte + payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_bytes(&mut out);
        out
    }

    /// Appends the serialized form to `out`.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        match self {
            PropertyValue::Null => out.push(tag::NULL),
            PropertyValue::Boolean(b) => {
                out.push(tag::BOOLEAN);
                out.push(u8::from(*b));
            }
            PropertyValue::Int(v) => {
                out.push(tag::INT);
                out.extend_from_slice(&v.to_le_bytes());
            }
            PropertyValue::Long(v) => {
                out.push(tag::LONG);
                out.extend_from_slice(&v.to_le_bytes());
            }
            PropertyValue::Float(v) => {
                out.push(tag::FLOAT);
                out.extend_from_slice(&v.to_le_bytes());
            }
            PropertyValue::Double(v) => {
                out.push(tag::DOUBLE);
                out.extend_from_slice(&v.to_le_bytes());
            }
            PropertyValue::String(s) => {
                out.push(tag::STRING);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            PropertyValue::List(items) => {
                out.push(tag::LIST);
                out.extend_from_slice(&(items.len() as u32).to_le_bytes());
                for item in items {
                    item.write_bytes(out);
                }
            }
        }
    }

    /// Deserializes a value from the front of `bytes`, returning the value
    /// and the number of consumed bytes.
    pub fn read_bytes(bytes: &[u8]) -> Result<(PropertyValue, usize), PropertyDecodeError> {
        fn need(bytes: &[u8], n: usize) -> Result<(), PropertyDecodeError> {
            if bytes.len() < n {
                Err(PropertyDecodeError(format!(
                    "need {n} bytes, have {}",
                    bytes.len()
                )))
            } else {
                Ok(())
            }
        }
        need(bytes, 1)?;
        let (tag_byte, rest) = (bytes[0], &bytes[1..]);
        match tag_byte {
            tag::NULL => Ok((PropertyValue::Null, 1)),
            tag::BOOLEAN => {
                need(rest, 1)?;
                Ok((PropertyValue::Boolean(rest[0] != 0), 2))
            }
            tag::INT => {
                need(rest, 4)?;
                let v = i32::from_le_bytes(rest[..4].try_into().unwrap());
                Ok((PropertyValue::Int(v), 5))
            }
            tag::LONG => {
                need(rest, 8)?;
                let v = i64::from_le_bytes(rest[..8].try_into().unwrap());
                Ok((PropertyValue::Long(v), 9))
            }
            tag::FLOAT => {
                need(rest, 4)?;
                let v = f32::from_le_bytes(rest[..4].try_into().unwrap());
                Ok((PropertyValue::Float(v), 5))
            }
            tag::DOUBLE => {
                need(rest, 8)?;
                let v = f64::from_le_bytes(rest[..8].try_into().unwrap());
                Ok((PropertyValue::Double(v), 9))
            }
            tag::STRING => {
                need(rest, 4)?;
                let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                need(&rest[4..], len)?;
                let s = std::str::from_utf8(&rest[4..4 + len])
                    .map_err(|e| PropertyDecodeError(e.to_string()))?;
                Ok((PropertyValue::String(s.to_string()), 5 + len))
            }
            tag::LIST => {
                need(rest, 4)?;
                let count = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                let mut items = Vec::with_capacity(count);
                let mut offset = 5;
                for _ in 0..count {
                    let (item, used) = PropertyValue::read_bytes(&bytes[offset..])?;
                    items.push(item);
                    offset += used;
                }
                Ok((PropertyValue::List(items), offset))
            }
            other => Err(PropertyDecodeError(format!("unknown type tag {other}"))),
        }
    }

    /// Deserializes a value that must occupy the whole slice.
    pub fn from_bytes(bytes: &[u8]) -> Result<PropertyValue, PropertyDecodeError> {
        let (value, used) = PropertyValue::read_bytes(bytes)?;
        if used != bytes.len() {
            return Err(PropertyDecodeError(format!(
                "{} trailing bytes",
                bytes.len() - used
            )));
        }
        Ok(value)
    }
}

impl PartialEq for PropertyValue {
    fn eq(&self, other: &Self) -> bool {
        use PropertyValue::*;
        match (self, other) {
            (Null, Null) => true,
            (Boolean(a), Boolean(b)) => a == b,
            (String(a), String(b)) => a == b,
            (List(a), List(b)) => a == b,
            // Numbers compare across numeric types, like Cypher's `=`.
            // NaN equals NaN here so Eq/Hash stay consistent for `distinct`.
            (Int(_) | Long(_) | Float(_) | Double(_), Int(_) | Long(_) | Float(_) | Double(_)) => {
                match (self.as_i64(), other.as_i64()) {
                    // Integer pairs and integer-vs-float pairs compare exactly;
                    // rounding through f64 would equate Long(2^53+1) with 2^53.
                    (Some(a), Some(b)) => a == b,
                    (Some(a), None) => {
                        cmp_i64_f64(a, other.as_f64().expect("numeric")) == Some(Ordering::Equal)
                    }
                    (None, Some(b)) => {
                        cmp_i64_f64(b, self.as_f64().expect("numeric")) == Some(Ordering::Equal)
                    }
                    (None, None) => {
                        let (a, b) = (
                            self.as_f64().expect("numeric"),
                            other.as_f64().expect("numeric"),
                        );
                        a.to_bits() == b.to_bits() || a == b
                    }
                }
            }
            _ => false,
        }
    }
}

impl Eq for PropertyValue {}

impl std::hash::Hash for PropertyValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use PropertyValue::*;
        match self {
            Null => state.write_u8(0),
            Boolean(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // All numeric values hash through their f64 image so that
            // Int(1), Long(1), Float(1.0) and Double(1.0) — which compare
            // equal — hash equally too. (Equal values always have equal f64
            // images: exact cross-type equality implies the integer side is
            // f64-representable.)
            Int(_) | Long(_) | Float(_) | Double(_) => {
                state.write_u8(2);
                let v = self.as_f64().expect("numeric");
                if v == v.trunc() && v.abs() < 9.0e15 {
                    state.write_i64(v as i64);
                } else {
                    state.write_u64(v.to_bits());
                }
            }
            String(s) => {
                state.write_u8(5);
                s.hash(state);
            }
            List(items) => {
                state.write_u8(6);
                for item in items {
                    item.hash(state);
                }
            }
        }
    }
}

impl std::fmt::Display for PropertyValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PropertyValue::Null => write!(f, "NULL"),
            PropertyValue::Boolean(b) => write!(f, "{b}"),
            PropertyValue::Int(v) => write!(f, "{v}"),
            PropertyValue::Long(v) => write!(f, "{v}"),
            PropertyValue::Float(v) => write!(f, "{v}"),
            PropertyValue::Double(v) => write!(f, "{v}"),
            PropertyValue::String(s) => write!(f, "{s}"),
            PropertyValue::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl Data for PropertyValue {
    fn byte_size(&self) -> usize {
        match self {
            PropertyValue::Null => 1,
            PropertyValue::Boolean(_) => 2,
            PropertyValue::Int(_) | PropertyValue::Float(_) => 5,
            PropertyValue::Long(_) | PropertyValue::Double(_) => 9,
            PropertyValue::String(s) => 5 + s.len(),
            PropertyValue::List(items) => 5 + items.iter().map(Data::byte_size).sum::<usize>(),
        }
    }
}

impl From<bool> for PropertyValue {
    fn from(v: bool) -> Self {
        PropertyValue::Boolean(v)
    }
}
impl From<i32> for PropertyValue {
    fn from(v: i32) -> Self {
        PropertyValue::Int(v)
    }
}
impl From<i64> for PropertyValue {
    fn from(v: i64) -> Self {
        PropertyValue::Long(v)
    }
}
impl From<f32> for PropertyValue {
    fn from(v: f32) -> Self {
        PropertyValue::Float(v)
    }
}
impl From<f64> for PropertyValue {
    fn from(v: f64) -> Self {
        PropertyValue::Double(v)
    }
}
impl From<&str> for PropertyValue {
    fn from(v: &str) -> Self {
        PropertyValue::String(v.to_string())
    }
}
impl From<String> for PropertyValue {
    fn from(v: String) -> Self {
        PropertyValue::String(v)
    }
}

/// An element's property map. Keys keep insertion order; lookups are linear,
/// which is faster than hashing for the handful of properties real elements
/// carry.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Properties {
    entries: Vec<(String, PropertyValue)>,
}

impl Properties {
    /// The empty property map.
    pub fn new() -> Self {
        Properties::default()
    }

    /// Returns the value bound to `key`, or `None` (the paper's `ε`).
    pub fn get(&self, key: &str) -> Option<&PropertyValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Sets `key` to `value`, replacing any previous binding.
    pub fn set<V: Into<PropertyValue>>(&mut self, key: &str, value: V) {
        let value = value.into();
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => self.entries.push((key.to_string(), value)),
        }
    }

    /// Removes the binding for `key`, returning the removed value.
    pub fn remove(&mut self, key: &str) -> Option<PropertyValue> {
        let index = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(index).1)
    }

    /// `true` if `key` has a binding.
    pub fn contains_key(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates bindings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropertyValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Keeps only the bindings whose keys are in `keys` (projection).
    pub fn project(&self, keys: &[&str]) -> Properties {
        Properties {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| keys.contains(&k.as_str()))
                .cloned()
                .collect(),
        }
    }
}

impl FromIterator<(String, PropertyValue)> for Properties {
    fn from_iter<I: IntoIterator<Item = (String, PropertyValue)>>(iter: I) -> Self {
        let mut props = Properties::new();
        for (k, v) in iter {
            props.set(&k, v);
        }
        props
    }
}

impl Data for Properties {
    fn byte_size(&self) -> usize {
        4 + self
            .entries
            .iter()
            .map(|(k, v)| 4 + k.len() + v.byte_size())
            .sum::<usize>()
    }
}

/// Convenience macro building a [`Properties`] map:
/// `properties! { "name" => "Alice", "age" => 42i64 }`.
#[macro_export]
macro_rules! properties {
    () => { $crate::properties::Properties::new() };
    ($($key:expr => $value:expr),+ $(,)?) => {{
        let mut props = $crate::properties::Properties::new();
        $(props.set($key, $value);)+
        props
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: PropertyValue) {
        let bytes = value.to_bytes();
        assert_eq!(PropertyValue::from_bytes(&bytes).unwrap(), value);
    }

    #[test]
    fn serialization_roundtrips() {
        roundtrip(PropertyValue::Null);
        roundtrip(PropertyValue::Boolean(true));
        roundtrip(PropertyValue::Int(-5));
        roundtrip(PropertyValue::Long(1 << 40));
        roundtrip(PropertyValue::Double(3.25));
        roundtrip(PropertyValue::String("Uni Leipzig".into()));
        roundtrip(PropertyValue::List(vec![
            PropertyValue::Int(1),
            PropertyValue::String("x".into()),
            PropertyValue::List(vec![PropertyValue::Null]),
        ]));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(PropertyValue::from_bytes(&[]).is_err());
        assert!(PropertyValue::from_bytes(&[99]).is_err());
        assert!(PropertyValue::from_bytes(&[tag::INT, 1, 2]).is_err());
        // Trailing bytes are an error for from_bytes.
        let mut bytes = PropertyValue::Boolean(true).to_bytes();
        bytes.push(0);
        assert!(PropertyValue::from_bytes(&bytes).is_err());
    }

    #[test]
    fn numeric_comparison_crosses_types() {
        use std::cmp::Ordering::*;
        let int = PropertyValue::Int(5);
        let long = PropertyValue::Long(5);
        let double = PropertyValue::Double(5.5);
        assert_eq!(int.compare(&long), Some(Equal));
        assert_eq!(int.compare(&double), Some(Less));
        assert_eq!(double.compare(&int), Some(Greater));
    }

    #[test]
    fn float_values_roundtrip_and_compare() {
        use std::cmp::Ordering::*;
        roundtrip(PropertyValue::Float(2015.5));
        assert_eq!(
            PropertyValue::Int(2015).compare(&PropertyValue::Float(2015.5)),
            Some(Less)
        );
        assert_eq!(
            PropertyValue::Float(2.5).compare(&PropertyValue::Double(2.5)),
            Some(Equal)
        );
        assert_eq!(PropertyValue::Float(1.5), PropertyValue::Double(1.5));
        assert_eq!(PropertyValue::Float(7.0), PropertyValue::Long(7));
        assert_eq!(PropertyValue::from(1.5f32).byte_size(), 5);
    }

    /// Minimal repro from the conformance fuzzer: comparing 64-bit integers
    /// through `f64` loses precision beyond 2^53, so `2^53 + 1 > 2^53`
    /// evaluated to false (and the two values compared `Equal`).
    #[test]
    fn long_comparison_is_exact_beyond_f64_precision() {
        use std::cmp::Ordering::*;
        let big = (1i64 << 53) + 1;
        let base = 1i64 << 53;
        assert_eq!(
            PropertyValue::Long(big).compare(&PropertyValue::Long(base)),
            Some(Greater)
        );
        assert_ne!(PropertyValue::Long(big), PropertyValue::Long(base));
        // Integer-vs-float pairs are exact too: 2^53 + 1 is strictly greater
        // than the f64 2^53 even though `(2^53 + 1) as f64 == 2^53`.
        assert_eq!(
            PropertyValue::Long(big).compare(&PropertyValue::Double(base as f64)),
            Some(Greater)
        );
        assert_ne!(PropertyValue::Long(big), PropertyValue::Double(base as f64));
        // Floats beyond the i64 range sort outside every integer.
        assert_eq!(
            PropertyValue::Long(i64::MAX).compare(&PropertyValue::Double(1e19)),
            Some(Less)
        );
        assert_eq!(
            PropertyValue::Long(i64::MIN).compare(&PropertyValue::Double(-1e19)),
            Some(Greater)
        );
        assert_eq!(
            PropertyValue::Long(3).compare(&PropertyValue::Double(f64::NAN)),
            None
        );
    }

    #[test]
    fn incompatible_types_are_incomparable() {
        let s = PropertyValue::String("5".into());
        let i = PropertyValue::Int(5);
        assert_eq!(s.compare(&i), None);
        assert_eq!(PropertyValue::Null.compare(&i), None);
        assert_eq!(PropertyValue::Null.compare(&PropertyValue::Null), None);
    }

    #[test]
    fn string_comparison_is_lexicographic() {
        let a = PropertyValue::String("Alice".into());
        let b = PropertyValue::String("Bob".into());
        assert_eq!(a.compare(&b), Some(std::cmp::Ordering::Less));
        assert_eq!(a.compare(&a), Some(std::cmp::Ordering::Equal));
    }

    #[test]
    fn equality_crosses_numeric_types_and_hash_agrees() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn hash(v: &PropertyValue) -> u64 {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        }
        let int = PropertyValue::Int(7);
        let long = PropertyValue::Long(7);
        let double = PropertyValue::Double(7.0);
        assert_eq!(int, long);
        assert_eq!(int, double);
        assert_eq!(hash(&int), hash(&long));
        assert_eq!(hash(&int), hash(&double));
        assert_ne!(PropertyValue::Int(7), PropertyValue::String("7".into()));
    }

    #[test]
    fn properties_set_get_remove() {
        let mut props = Properties::new();
        props.set("name", "Alice");
        props.set("age", 42i64);
        props.set("name", "Eve"); // overwrite
        assert_eq!(props.len(), 2);
        assert_eq!(
            props.get("name"),
            Some(&PropertyValue::String("Eve".into()))
        );
        assert_eq!(props.remove("age"), Some(PropertyValue::Long(42)));
        assert!(!props.contains_key("age"));
        assert_eq!(props.get("missing"), None);
    }

    #[test]
    fn properties_projection() {
        let props = properties! { "a" => 1i64, "b" => 2i64, "c" => 3i64 };
        let projected = props.project(&["a", "c"]);
        assert_eq!(projected.len(), 2);
        assert!(projected.contains_key("a"));
        assert!(!projected.contains_key("b"));
    }

    #[test]
    fn properties_macro_builds_map() {
        let props = properties! { "gender" => "female", "yob" => 1984i64 };
        assert_eq!(props.get("gender").unwrap().as_str(), Some("female"));
        assert_eq!(props.get("yob").unwrap().as_i64(), Some(1984));
    }

    #[test]
    fn byte_size_matches_serialized_length() {
        for value in [
            PropertyValue::Null,
            PropertyValue::Boolean(false),
            PropertyValue::Int(1),
            PropertyValue::Long(1),
            PropertyValue::Double(1.0),
            PropertyValue::String("hello".into()),
            PropertyValue::List(vec![PropertyValue::Int(1), PropertyValue::Null]),
        ] {
            assert_eq!(value.byte_size(), value.to_bytes().len(), "{value:?}");
        }
    }
}
