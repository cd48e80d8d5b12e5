//! The dynamic attribute value type.
//!
//! A data-stream tuple in Icewafl is a vector of [`Value`]s described by a
//! [`Schema`](crate::Schema). Error functions transform values (add noise,
//! null them out, swap categories, …), so `Value` carries the coercion and
//! comparison logic the pollution model and the DQ engine both rely on.

use crate::error::{Error, Result};
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A single attribute value inside a tuple.
///
/// `Null` is a first-class member because *missing value* is one of the
/// paper's static error types (Fig. 3).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(untagged)]
pub enum Value {
    /// A missing value (SQL NULL). The default value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string (also used for categorical attributes).
    Str(String),
    /// An event timestamp (epoch milliseconds).
    Timestamp(Timestamp),
}

impl Value {
    /// `true` iff this value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short static name of the runtime type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::Timestamp(_) => "Timestamp",
        }
    }

    /// Numeric view: `Int` and `Float` (and `Bool` as 0/1) coerce to `f64`.
    ///
    /// `Timestamp` intentionally does *not* coerce — treating event time as
    /// a plain number is almost always a bug in a polluter configuration,
    /// so it surfaces as `None` here and as a type error upstream.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Integer view of `Int` (exact) and `Bool`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Borrowed string view of `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view of `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Timestamp view of `Timestamp`.
    pub fn as_timestamp(&self) -> Option<Timestamp> {
        match self {
            Value::Timestamp(t) => Some(*t),
            _ => None,
        }
    }

    /// Like [`Value::as_f64`] but returns a typed error, for call sites
    /// that must fail loudly (error functions bound to a numeric
    /// attribute).
    pub fn expect_f64(&self) -> Result<f64> {
        self.as_f64().ok_or(Error::TypeMismatch {
            expected: "numeric",
            found: self.type_name(),
        })
    }

    /// Like [`Value::as_timestamp`] but returns a typed error.
    pub fn expect_timestamp(&self) -> Result<Timestamp> {
        self.as_timestamp().ok_or(Error::TypeMismatch {
            expected: "Timestamp",
            found: self.type_name(),
        })
    }

    /// Rebuilds a numeric value of the *same family* as `self` from an
    /// `f64` result.
    ///
    /// Error functions compute on `f64`; this keeps an `Int` attribute an
    /// `Int` (rounding to nearest) so pollution does not silently change
    /// the schema. Non-numeric receivers return a type error.
    pub fn with_numeric(&self, x: f64) -> Result<Value> {
        match self {
            Value::Int(_) => Ok(Value::Int(round_to_i64(x))),
            Value::Float(_) => Ok(Value::Float(x)),
            Value::Bool(_) => Ok(Value::Bool(x != 0.0)),
            other => Err(Error::TypeMismatch {
                expected: "numeric",
                found: other.type_name(),
            }),
        }
    }

    /// Total comparison used by conditions and expectations.
    ///
    /// Numeric values compare numerically across `Int`/`Float`/`Bool`;
    /// strings compare lexicographically; timestamps chronologically.
    /// `Null` and cross-family comparisons are undefined (`None`) — this
    /// matches SQL three-valued logic, where `NULL > 5` is neither true
    /// nor false.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Timestamp(a), Value::Timestamp(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => {
                let (a, b) = (self.as_f64()?, other.as_f64()?);
                a.partial_cmp(&b)
            }
        }
    }

    /// Whether `s` is one of the textual NULL spellings [`Value::parse`]
    /// accepts: the empty string, `NA`, `null`, `NULL` or `NaN`.
    pub fn is_null_token(s: &str) -> bool {
        matches!(s, "" | "NA" | "null" | "NULL" | "NaN")
    }

    /// Parses a textual field into a value of the given
    /// [`DataType`](crate::DataType). Empty strings and the literals
    /// `NA`/`null`/`NULL`/`NaN` parse as `Null` (the conventions of the
    /// paper's two CSV datasets).
    pub fn parse(s: &str, dtype: crate::DataType) -> Result<Value> {
        use crate::DataType;
        let s = s.trim();
        if Value::is_null_token(s) {
            return Ok(Value::Null);
        }
        match dtype {
            DataType::Bool => match s {
                "true" | "True" | "TRUE" | "1" => Ok(Value::Bool(true)),
                "false" | "False" | "FALSE" | "0" => Ok(Value::Bool(false)),
                _ => Err(Error::parse(s, "Bool")),
            },
            DataType::Int => s
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::parse(s, "Int")),
            DataType::Float => s
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::parse(s, "Float")),
            DataType::Str => Ok(Value::Str(s.to_string())),
            DataType::Timestamp => crate::time::parse_timestamp(s).map(Value::Timestamp),
        }
    }
}

/// Rounds to nearest, ties away from zero, saturating at the `i64` range.
/// Shared with the column kernels so an `Int` column and an `Int` value
/// quantize numeric results identically.
pub(crate) fn round_to_i64(x: f64) -> i64 {
    if x.is_nan() {
        0
    } else if x >= i64::MAX as f64 {
        i64::MAX
    } else if x <= i64::MIN as f64 {
        i64::MIN
    } else {
        x.round() as i64
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Timestamp(t) => write!(f, "{t}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Self {
        Value::Timestamp(t)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Self {
        o.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    #[test]
    fn null_checks() {
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("3".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Timestamp(Timestamp(5)).as_f64(), None);
    }

    #[test]
    fn with_numeric_preserves_family() {
        assert_eq!(Value::Int(10).with_numeric(3.6).unwrap(), Value::Int(4));
        assert_eq!(
            Value::Float(10.0).with_numeric(3.6).unwrap(),
            Value::Float(3.6)
        );
        assert_eq!(
            Value::Bool(false).with_numeric(2.0).unwrap(),
            Value::Bool(true)
        );
        assert!(Value::Str("x".into()).with_numeric(1.0).is_err());
        assert!(Value::Null.with_numeric(1.0).is_err());
    }

    #[test]
    fn with_numeric_saturates() {
        assert_eq!(
            Value::Int(0).with_numeric(1e300).unwrap(),
            Value::Int(i64::MAX)
        );
        assert_eq!(
            Value::Int(0).with_numeric(-1e300).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(Value::Int(0).with_numeric(f64::NAN).unwrap(), Value::Int(0));
    }

    #[test]
    fn compare_numeric_cross_family() {
        assert_eq!(
            Value::Int(3).compare(&Value::Float(3.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).compare(&Value::Float(3.0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(4.0).compare(&Value::Int(3)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn compare_null_is_undefined() {
        assert_eq!(Value::Null.compare(&Value::Int(3)), None);
        assert_eq!(Value::Int(3).compare(&Value::Null), None);
        assert_eq!(Value::Null.compare(&Value::Null), None);
    }

    #[test]
    fn compare_strings_and_timestamps() {
        assert_eq!(
            Value::Str("abc".into()).compare(&Value::Str("abd".into())),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Timestamp(Timestamp(10)).compare(&Value::Timestamp(Timestamp(5))),
            Some(Ordering::Greater)
        );
        // Cross-family: undefined.
        assert_eq!(Value::Str("3".into()).compare(&Value::Int(3)), None);
        assert_eq!(Value::Timestamp(Timestamp(3)).compare(&Value::Int(3)), None);
    }

    #[test]
    fn compare_nan_is_undefined() {
        assert_eq!(Value::Float(f64::NAN).compare(&Value::Float(1.0)), None);
    }

    #[test]
    fn parse_by_dtype() {
        assert_eq!(Value::parse("42", DataType::Int).unwrap(), Value::Int(42));
        assert_eq!(
            Value::parse("4.5", DataType::Float).unwrap(),
            Value::Float(4.5)
        );
        assert_eq!(
            Value::parse("true", DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::parse("hi", DataType::Str).unwrap(),
            Value::Str("hi".into())
        );
        assert_eq!(
            Value::parse("2016-02-27 00:00:00", DataType::Timestamp).unwrap(),
            Value::Timestamp(Timestamp::from_ymd(2016, 2, 27).unwrap())
        );
    }

    #[test]
    fn parse_null_conventions() {
        for s in ["", "NA", "null", "NULL", "NaN", "  "] {
            assert_eq!(
                Value::parse(s, DataType::Float).unwrap(),
                Value::Null,
                "{s:?}"
            );
        }
    }

    #[test]
    fn parse_errors() {
        assert!(Value::parse("4.5", DataType::Int).is_err());
        assert!(Value::parse("abc", DataType::Float).is_err());
        assert!(Value::parse("maybe", DataType::Bool).is_err());
    }

    #[test]
    fn display_matches_csv_conventions() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Float(2.5).to_string(), "2.5");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Float(2.5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(1i64)), Value::Int(1));
    }

    #[test]
    fn serde_untagged_round_trip() {
        let v = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(3),
            Value::Float(2.5),
            Value::Str("hi".into()),
        ];
        let json = serde_json::to_string(&v).unwrap();
        assert_eq!(json, r#"[null,true,3,2.5,"hi"]"#);
        let back: Vec<Value> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn expect_helpers() {
        assert!(Value::Str("x".into()).expect_f64().is_err());
        assert_eq!(Value::Int(2).expect_f64().unwrap(), 2.0);
        assert!(Value::Int(2).expect_timestamp().is_err());
        assert_eq!(
            Value::Timestamp(Timestamp(7)).expect_timestamp().unwrap(),
            Timestamp(7)
        );
    }
}
