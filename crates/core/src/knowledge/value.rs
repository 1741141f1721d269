//! Typed knowgget values with the paper's string-backed representation.

use core::fmt;

use serde::{Deserialize, Serialize};

/// The value of a knowgget.
///
/// The paper's implementation stores every value as a string and lets
/// modules "specify what is the data type they expect in return for a
/// given key" (§V, Knowledge Representation). `KnowValue` keeps the typed
/// view while [`KnowValue::to_wire`] / [`KnowValue::from_wire`] provide
/// the string form used for storage, display, and synchronization.
///
/// # Examples
///
/// ```
/// use kalis_core::KnowValue;
///
/// let v = KnowValue::Float(-67.0);
/// assert_eq!(v.to_wire(), "-67");
/// assert_eq!(KnowValue::from_wire("true"), KnowValue::Bool(true));
/// assert_eq!(KnowValue::from_wire("8"), KnowValue::Int(8));
/// assert_eq!(KnowValue::from_wire("hello"), KnowValue::Text("hello".into()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KnowValue {
    /// A boolean feature (e.g. `Multihop = true`).
    Bool(bool),
    /// An integer (e.g. `MonitoredNodes = 8`).
    Int(i64),
    /// A float (e.g. `SignalStrength@SensorA = -67.0`).
    Float(f64),
    /// Free-form text.
    Text(String),
}

impl KnowValue {
    /// The canonical string form (what the paper stores).
    pub fn to_wire(&self) -> String {
        if let KnowValue::Text(s) = self {
            return s.clone();
        }
        let mut wire = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_wire(&mut wire);
        wire
    }

    /// Stream the wire form into `out`: the one definition of the
    /// string form, shared by [`KnowValue::to_wire`] and the
    /// allocation-free comparisons the Knowledge Base makes on every
    /// write.
    pub(crate) fn write_wire(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            KnowValue::Bool(b) => write!(out, "{b}"),
            KnowValue::Int(i) => write!(out, "{i}"),
            KnowValue::Float(x) => match short_integral(*x) {
                // Integral floats print without a trailing `.0` so the
                // wire form is stable across type reinterpretation.
                Some(i) => write!(out, "{i}"),
                None => write!(out, "{x}"),
            },
            KnowValue::Text(s) => out.write_str(s),
        }
    }

    /// Whether the wire form is exactly `wire`, without building it.
    pub(crate) fn wire_eq_str(&self, wire: &str) -> bool {
        if let KnowValue::Text(s) = self {
            return s == wire;
        }
        let mut rest = WireMatch(wire);
        self.write_wire(&mut rest).is_ok() && rest.0.is_empty()
    }

    /// Whether two values have the same wire form (`Float(3.0)` and
    /// `Int(3)` do; two `NaN`s do; `Text("1.50")` and `Float(1.5)` do
    /// not), without building either.
    pub(crate) fn wire_eq(&self, other: &KnowValue) -> bool {
        use KnowValue::{Bool, Float, Int, Text};
        match (self, other) {
            (Text(s), v) | (v, Text(s)) => v.wire_eq_str(s),
            (Bool(a), Bool(b)) => a == b,
            (Bool(_), _) | (_, Bool(_)) => false,
            (Int(a), Int(b)) => a == b,
            // A float prints the shortest text that parses back to it,
            // so two floats print alike only when equal (`-0` and `0`
            // both print `0`) or both `NaN`.
            (Float(a), Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Int(i), Float(x)) | (Float(x), Int(i)) => match short_integral(*x) {
                Some(j) => *i == j,
                // A whole float past the short form prints its own
                // digits, which may still be an integer's text.
                None if x.fract() == 0.0 => Float(*x).wire_eq_str(&i.to_string()),
                None => false,
            },
        }
    }

    /// Length of the wire form in bytes, without building it.
    pub(crate) fn wire_len(&self) -> usize {
        if let KnowValue::Text(s) = self {
            return s.len();
        }
        let mut len = WireLen(0);
        let _ = self.write_wire(&mut len);
        len.0
    }

    /// Parse a wire string into the most specific type that fits
    /// (bool, then integer, then float, then text).
    pub fn from_wire(text: &str) -> KnowValue {
        if let Ok(b) = text.parse::<bool>() {
            return KnowValue::Bool(b);
        }
        if let Ok(i) = text.parse::<i64>() {
            return KnowValue::Int(i);
        }
        if let Ok(x) = text.parse::<f64>() {
            return KnowValue::Float(x);
        }
        KnowValue::Text(text.to_owned())
    }

    /// The boolean view, if this value is (or parses as) a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            KnowValue::Bool(b) => Some(*b),
            KnowValue::Text(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The integer view, accepting exact floats.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            KnowValue::Int(i) => Some(*i),
            KnowValue::Float(x) if x.fract() == 0.0 => Some(*x as i64),
            KnowValue::Text(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The float view, accepting integers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            KnowValue::Float(x) => Some(*x),
            KnowValue::Int(i) => Some(*i as f64),
            KnowValue::Text(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The text view (always available, via the wire form).
    pub fn as_text(&self) -> String {
        self.to_wire()
    }
}

impl fmt::Display for KnowValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_wire(f)
    }
}

/// The integer an integral float prints as on the wire: finite, whole
/// and below 1e15 in magnitude (larger floats keep their own form).
fn short_integral(x: f64) -> Option<i64> {
    (x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15).then_some(x as i64)
}

/// A `fmt::Write` sink that consumes a target string as long as the
/// written text matches it, and fails at the first difference.
struct WireMatch<'a>(&'a str);

impl fmt::Write for WireMatch<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = self.0.strip_prefix(s).ok_or(fmt::Error)?;
        Ok(())
    }
}

/// A `fmt::Write` sink that only counts bytes.
struct WireLen(usize);

impl fmt::Write for WireLen {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl From<bool> for KnowValue {
    fn from(value: bool) -> Self {
        KnowValue::Bool(value)
    }
}

impl From<i64> for KnowValue {
    fn from(value: i64) -> Self {
        KnowValue::Int(value)
    }
}

impl From<f64> for KnowValue {
    fn from(value: f64) -> Self {
        KnowValue::Float(value)
    }
}

impl From<&str> for KnowValue {
    fn from(value: &str) -> Self {
        KnowValue::Text(value.to_owned())
    }
}

impl From<String> for KnowValue {
    fn from(value: String) -> Self {
        KnowValue::Text(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_recovers_type() {
        for v in [
            KnowValue::Bool(true),
            KnowValue::Bool(false),
            KnowValue::Int(-42),
            KnowValue::Float(0.037),
            KnowValue::Text("RPL".into()),
        ] {
            assert_eq!(KnowValue::from_wire(&v.to_wire()), v);
        }
    }

    #[test]
    fn integral_float_roundtrips_as_int() {
        // -67.0 goes to the wire as "-67" and comes back as Int — the
        // typed accessors keep both views working.
        let v = KnowValue::Float(-67.0);
        let back = KnowValue::from_wire(&v.to_wire());
        assert_eq!(back, KnowValue::Int(-67));
        assert_eq!(back.as_f64(), Some(-67.0));
    }

    #[test]
    fn typed_views_coerce_sensibly() {
        assert_eq!(KnowValue::Int(3).as_f64(), Some(3.0));
        assert_eq!(KnowValue::Float(3.0).as_int(), Some(3));
        assert_eq!(KnowValue::Float(3.5).as_int(), None);
        assert_eq!(KnowValue::Text("true".into()).as_bool(), Some(true));
        assert_eq!(KnowValue::Text("0.5".into()).as_f64(), Some(0.5));
        assert_eq!(KnowValue::Bool(true).as_int(), None);
    }

    #[test]
    fn text_never_fails() {
        assert_eq!(KnowValue::Bool(true).as_text(), "true");
        assert_eq!(KnowValue::Text("x y".into()).as_text(), "x y");
    }

    #[test]
    fn wire_equality_is_text_equality() {
        assert!(KnowValue::Float(3.0).wire_eq(&KnowValue::Int(3)));
        assert!(KnowValue::Float(f64::NAN).wire_eq(&KnowValue::Float(f64::NAN)));
        assert!(KnowValue::Float(-0.0).wire_eq(&KnowValue::Int(0)));
        assert!(!KnowValue::Text("1.50".into()).wire_eq(&KnowValue::Float(1.5)));
        assert!(KnowValue::Text("1.5".into()).wire_eq(&KnowValue::Float(1.5)));
        assert!(KnowValue::Float(1e15).wire_eq(&KnowValue::Int(1_000_000_000_000_000)));
        assert!(KnowValue::Float(1e300).wire_eq(&KnowValue::Float(1e300)));
        assert!(!KnowValue::Float(f64::INFINITY).wire_eq(&KnowValue::Int(0)));
        // A whole float past the short form prints its shortest digits.
        let big = KnowValue::Float(2f64.powi(60));
        let digits: i64 = big.to_wire().parse().expect("integer digits");
        assert!(big.wire_eq(&KnowValue::Int(digits)));
        assert_eq!(
            big.wire_eq(&KnowValue::Int(1 << 60)),
            big.to_wire() == (1i64 << 60).to_string()
        );
    }

    fn value() -> impl proptest::strategy::Strategy<Value = KnowValue> {
        use proptest::prelude::*;
        let special = prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-0.0),
            Just(0.0),
            Just(1e15),
            Just(1e300),
            Just(1.5),
        ];
        prop_oneof![
            any::<bool>().prop_map(KnowValue::Bool),
            (-3i64..3).prop_map(KnowValue::Int),
            any::<i64>().prop_map(KnowValue::Int),
            (-3i64..3).prop_map(|i| KnowValue::Float(i as f64)),
            special.prop_map(KnowValue::Float),
            any::<f64>().prop_map(KnowValue::Float),
            prop_oneof![
                Just("1.50"),
                Just("1.5"),
                Just("007"),
                Just("7"),
                Just("true"),
                Just("NaN"),
                Just("0"),
                Just(""),
                Just("x,y"),
            ]
            .prop_map(|s| KnowValue::Text(s.to_owned())),
        ]
    }

    proptest::proptest! {
        /// The allocation-free comparisons and length agree with the
        /// built wire text for every pair of values.
        #[test]
        fn wire_helpers_agree_with_to_wire(a in value(), b in value()) {
            let (wa, wb) = (a.to_wire(), b.to_wire());
            proptest::prop_assert_eq!(a.wire_eq(&b), wa == wb);
            proptest::prop_assert_eq!(b.wire_eq(&a), wa == wb);
            proptest::prop_assert_eq!(a.wire_eq_str(&wb), wa == wb);
            proptest::prop_assert_eq!(a.wire_len(), wa.len());
            proptest::prop_assert_eq!(a.to_string(), wa);
        }
    }
}
