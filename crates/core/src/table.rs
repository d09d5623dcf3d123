//! The *common tabular format* (paper §V).
//!
//! Every data source in the framework (task transitions, task completions,
//! communications, I/O traces, warnings, job metadata) can project itself
//! into rows of typed cells under a named schema. A [`Tabular`] type is a
//! *cell visitor*: [`Tabular::cells`] hands one row's cells, borrowed and
//! in schema order, to a [`CellSink`], and that is the type's only
//! projection. What the cells become is the sink's business — the CSV
//! writer of `dtf-perfrecup` prints them as they arrive (the archival
//! export never builds a row), a `Vec<Value>` boxes them into the row
//! [`Tabular::row`] returns, and DataFrames are built from those rows for
//! the analyses that compute on columns.

use serde::Serialize;
use std::fmt;

/// A dynamically typed cell value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
}

impl Value {
    /// Numeric view: any numeric variant as f64, `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::U64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Borrowed key form of a [`Value`]: `Hash + Eq + Ord` over the typed
/// variants, so join indexes and group tables can hash rows without
/// rendering each cell to a fresh `String` (the old per-row `to_string()`
/// allocation in `group_by`).
///
/// Equality semantics match what display-form hashing gave the identifier
/// columns the analyses join on: `U64` and non-negative `I64` canonicalize
/// to one integer variant (both rendered `"1"`), floats keep their own
/// identity (rendered `"1.000000"`, never equal to an integer cell), and
/// `-0.0`/`NaN` are folded to canonical bit patterns so equal-displaying
/// floats hash together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKey<'a> {
    Null,
    Bool(bool),
    /// Strictly negative `I64`.
    NegInt(i64),
    /// `U64`, and `I64 >= 0` canonicalized onto it.
    UInt(u64),
    /// `F64` by canonical bits (`-0.0` → `0.0`, any NaN → one quiet NaN).
    F64(u64),
    Str(&'a str),
}

const CANON_NAN_BITS: u64 = 0x7ff8_0000_0000_0000;

fn canon_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        CANON_NAN_BITS
    } else if v == 0.0 {
        0 // folds -0.0 onto +0.0
    } else {
        v.to_bits()
    }
}

impl<'a> ValueKey<'a> {
    fn rank(&self) -> u8 {
        match self {
            ValueKey::Null => 0,
            ValueKey::Bool(_) => 1,
            ValueKey::NegInt(_) | ValueKey::UInt(_) | ValueKey::F64(_) => 2,
            ValueKey::Str(_) => 3,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            ValueKey::NegInt(v) => Some(*v as f64),
            ValueKey::UInt(v) => Some(*v as f64),
            ValueKey::F64(bits) => Some(f64::from_bits(*bits)),
            _ => None,
        }
    }

    /// Total ordering for sorting mixed columns: Null < Bool < numbers <
    /// Str, numbers by value with NaN last. Numerically equal cells of
    /// different variants compare Equal, so a stable sort keeps their
    /// input order.
    pub fn cmp_sort(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        match (self, other) {
            (ValueKey::Null, ValueKey::Null) => Equal,
            (ValueKey::Bool(a), ValueKey::Bool(b)) => a.cmp(b),
            (ValueKey::Str(a), ValueKey::Str(b)) => a.cmp(b),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                // NaN is the only value `partial_cmp` leaves unordered
                (Some(x), Some(y)) => {
                    x.partial_cmp(&y).unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
                }
                _ => a.rank().cmp(&b.rank()),
            },
        }
    }

    /// Exact-payload tiebreak used to make [`Ord`] agree with [`Eq`] where
    /// `cmp_sort` reports Equal for distinct keys (cross-variant numeric
    /// ties, and integers beyond f64 precision).
    fn tiebreak(&self, other: &Self) -> std::cmp::Ordering {
        fn sub(v: &ValueKey<'_>) -> u8 {
            match v {
                ValueKey::NegInt(_) => 0,
                ValueKey::UInt(_) => 1,
                ValueKey::F64(_) => 2,
                _ => 3,
            }
        }
        sub(self).cmp(&sub(other)).then_with(|| match (self, other) {
            (ValueKey::NegInt(a), ValueKey::NegInt(b)) => a.cmp(b),
            (ValueKey::UInt(a), ValueKey::UInt(b)) => a.cmp(b),
            (ValueKey::F64(a), ValueKey::F64(b)) => a.cmp(b),
            _ => std::cmp::Ordering::Equal,
        })
    }
}

impl Ord for ValueKey<'_> {
    /// Total order consistent with `Eq`: `cmp_sort`'s verdict, with exact
    /// payloads breaking its cross-variant numeric ties.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.cmp_sort(other).then_with(|| self.tiebreak(other))
    }
}

impl PartialOrd for ValueKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Value {
    /// The borrowed key form of this cell (see [`ValueKey`]).
    pub fn key(&self) -> ValueKey<'_> {
        match self {
            Value::Null => ValueKey::Null,
            Value::Bool(b) => ValueKey::Bool(*b),
            Value::I64(v) if *v < 0 => ValueKey::NegInt(*v),
            Value::I64(v) => ValueKey::UInt(*v as u64),
            Value::U64(v) => ValueKey::UInt(*v),
            Value::F64(v) => ValueKey::F64(canon_f64_bits(*v)),
            Value::Str(s) => ValueKey::Str(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.6}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A value with one spelling, written as `write_str` pieces into any
/// [`fmt::Write`] sink — no `fmt::Arguments`, no `Formatter`.
///
/// The identifiers the tabular format joins on (task keys, group names,
/// hosts, worker addresses, clients) implement it, and each one's
/// `Display` is a call to [`Spell::spell`], so the spelling exists once.
/// A sink that prints into a `String` gets it monomorphized.
pub trait Spell {
    fn spell<W: fmt::Write>(&self, out: &mut W) -> fmt::Result;
}

/// ASCII assembled right to left in a stack buffer and handed to a sink
/// in one `write_str`: the digit helper behind every integer spelling.
/// The buffer holds the longest text built with it (a worker address, at
/// most 28 bytes) with room to spare.
pub(crate) struct Digits {
    buf: [u8; 48],
    at: usize,
}

impl Digits {
    #[inline]
    pub(crate) fn new() -> Self {
        Self { buf: [0; 48], at: 48 }
    }

    /// Prepend `text`.
    #[inline]
    pub(crate) fn text(&mut self, text: &str) -> &mut Self {
        let start = self.at - text.len();
        self.buf[start..self.at].copy_from_slice(text.as_bytes());
        self.at = start;
        self
    }

    /// Prepend `v` in decimal, zero-padded to at least `width` digits:
    /// `{v:0width$}`. Two digits per division, so the chain of dependent
    /// multiplies is half as long.
    #[inline]
    pub(crate) fn dec(&mut self, mut v: u64, width: usize) -> &mut Self {
        const PAIRS: &[u8; 200] = b"\
            0001020304050607080910111213141516171819\
            2021222324252627282930313233343536373839\
            4041424344454647484950515253545556575859\
            6061626364656667686970717273747576777879\
            8081828384858687888990919293949596979899";
        let end = self.at;
        while v >= 10 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            self.at -= 2;
            self.buf[self.at..self.at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
        }
        if v > 0 || self.at == end {
            self.at -= 1;
            self.buf[self.at] = b'0' + v as u8;
        }
        self.pad(end, width)
    }

    /// Prepend `v` in lowercase hex, zero-padded to at least `width`
    /// digits: `{v:0width$x}`.
    #[inline]
    pub(crate) fn hex(&mut self, mut v: u64, width: usize) -> &mut Self {
        let end = self.at;
        loop {
            self.at -= 1;
            self.buf[self.at] = b"0123456789abcdef"[(v & 0xf) as usize];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        self.pad(end, width)
    }

    /// Zero-pad the number that ends at `end` to `width` digits.
    #[inline]
    fn pad(&mut self, end: usize, width: usize) -> &mut Self {
        while end - self.at < width {
            self.at -= 1;
            self.buf[self.at] = b'0';
        }
        self
    }

    /// Hand the assembled text to `out`.
    #[inline]
    pub(crate) fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        // every byte was copied from a `&str` or is an ASCII digit, so the
        // check cannot fail
        out.write_str(std::str::from_utf8(&self.buf[self.at..]).map_err(|_| fmt::Error)?)
    }
}

/// Write `v` in decimal: the bytes of `v.to_string()`.
#[inline]
pub fn write_u64<W: fmt::Write>(out: &mut W, v: u64) -> fmt::Result {
    Digits::new().dec(v, 1).write(out)
}

/// Write `v` in decimal: the bytes of `v.to_string()`.
#[inline]
pub fn write_i64<W: fmt::Write>(out: &mut W, v: i64) -> fmt::Result {
    let mut digits = Digits::new();
    digits.dec(v.unsigned_abs(), 1);
    if v < 0 {
        digits.text("-");
    }
    digits.write(out)
}

/// Receiver of one row's cells, in schema order. String cells are
/// borrowed and identifiers are handed over as values that [`Spell`]
/// themselves, so a sink that only prints them allocates nothing per cell.
pub trait CellSink {
    fn str(&mut self, v: &str);
    fn u64(&mut self, v: u64);
    fn i64(&mut self, v: i64);
    fn f64(&mut self, v: f64);
    /// A time cell, in seconds, given as the integer nanoseconds a
    /// [`Time`](crate::time::Time) or [`Dur`](crate::time::Dur) holds: the
    /// value is `ns as f64 / 1e9`, and a printing sink can spell it from the
    /// integer ([`write_secs`](crate::time::write_secs)).
    fn secs(&mut self, ns: u64);
    fn bool(&mut self, v: bool);
    fn null(&mut self);
    /// A string cell given by its spelling (a task key, a worker address)
    /// rather than by a `&str` the row would have to allocate.
    fn display<V: Spell>(&mut self, v: V);
}

/// The boxing sink: each cell becomes the [`Value`] of its type.
impl CellSink for Vec<Value> {
    fn str(&mut self, v: &str) {
        self.push(Value::Str(v.to_string()));
    }
    fn u64(&mut self, v: u64) {
        self.push(Value::U64(v));
    }
    fn i64(&mut self, v: i64) {
        self.push(Value::I64(v));
    }
    fn f64(&mut self, v: f64) {
        self.push(Value::F64(v));
    }
    fn secs(&mut self, ns: u64) {
        self.push(Value::F64(ns as f64 / 1e9));
    }
    fn bool(&mut self, v: bool) {
        self.push(Value::Bool(v));
    }
    fn null(&mut self) {
        self.push(Value::Null);
    }
    fn display<V: Spell>(&mut self, v: V) {
        let mut text = String::new();
        // a `String` sink never fails
        let _ = v.spell(&mut text);
        self.push(Value::Str(text));
    }
}

impl Value {
    /// Hand this cell to `out` as the cell of its type — the inverse of
    /// the boxing sink, so a frame of `Value`s prints through the same
    /// sink a [`Tabular`] row does.
    pub fn cell(&self, out: &mut impl CellSink) {
        match self {
            Value::Null => out.null(),
            Value::Bool(v) => out.bool(*v),
            Value::I64(v) => out.i64(*v),
            Value::U64(v) => out.u64(*v),
            Value::F64(v) => out.f64(*v),
            Value::Str(v) => out.str(v),
        }
    }
}

/// Types that project into the common tabular format.
pub trait Tabular {
    /// Column names, fixed per type.
    fn schema() -> Vec<&'static str>;
    /// One row's cells, in schema order: exactly `schema().len()` calls on
    /// `out`. This is the type's one projection.
    fn cells(&self, out: &mut impl CellSink);
    /// One row as boxed values — [`Tabular::cells`] into a `Vec<Value>`.
    fn row(&self) -> Vec<Value> {
        let mut row = Vec::new();
        self.cells(&mut row);
        row
    }
}

impl<T: Tabular> Tabular for &T {
    fn schema() -> Vec<&'static str> {
        T::schema()
    }
    fn cells(&self, out: &mut impl CellSink) {
        (**self).cells(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn ord(a: &Value, b: &Value) -> Ordering {
        a.key().cmp_sort(&b.key())
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::I64(-3).as_f64(), Some(-3.0));
        assert_eq!(Value::U64(7).as_f64(), Some(7.0));
        assert_eq!(Value::F64(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::I64(5).as_u64(), Some(5));
        assert_eq!(Value::I64(-5).as_u64(), None);
    }

    #[test]
    fn cross_type_numeric_ordering() {
        assert_eq!(ord(&Value::I64(2), &Value::F64(2.5)), Ordering::Less);
        assert_eq!(ord(&Value::U64(3), &Value::I64(3)), Ordering::Equal);
    }

    #[test]
    fn rank_ordering() {
        assert_eq!(ord(&Value::Null, &Value::Bool(false)), Ordering::Less);
        assert_eq!(ord(&Value::F64(1e9), &Value::Str("a".into())), Ordering::Less);
        assert_eq!(ord(&Value::Str("a".into()), &Value::Str("b".into())), Ordering::Less);
    }

    #[test]
    fn nan_sorts_last_among_numbers() {
        assert_eq!(ord(&Value::F64(f64::NAN), &Value::F64(1.0)), Ordering::Greater);
        assert_eq!(ord(&Value::F64(1.0), &Value::F64(f64::NAN)), Ordering::Less);
        assert_eq!(ord(&Value::F64(f64::NAN), &Value::F64(f64::NAN)), Ordering::Equal);
    }

    // Pinned behaviour for the ValueKey kernels: cmp_sort across every
    // pair of variants, including the Equal verdicts the stable sorts in
    // the analysis layer rely on.
    #[test]
    fn cmp_sort_pins_mixed_variant_ordering() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::I64(-2),
            Value::U64(1),
            Value::F64(1.5),
            Value::Str("a".into()),
        ];
        // strictly ascending as listed
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                let expect = i.cmp(&j);
                assert_eq!(ord(&vals[i], &vals[j]), expect, "{:?} vs {:?}", vals[i], vals[j]);
            }
        }
        // cross-variant numeric ties are Equal, not variant-ordered
        assert_eq!(ord(&Value::I64(1), &Value::U64(1)), Ordering::Equal);
        assert_eq!(ord(&Value::U64(2), &Value::F64(2.0)), Ordering::Equal);
        assert_eq!(ord(&Value::I64(-1), &Value::F64(-1.0)), Ordering::Equal);
    }

    #[test]
    fn value_key_matches_display_equality() {
        // hashing equality matches the display forms of identifier columns
        assert_eq!(Value::I64(3).key(), Value::U64(3).key(), "both render \"3\"");
        assert_ne!(Value::F64(3.0).key(), Value::U64(3).key(), "\"3.000000\" != \"3\"");
        assert_ne!(Value::Str("3".into()).key(), Value::U64(3).key(), "typed, unlike display");
        assert_eq!(Value::F64(0.0).key(), Value::F64(-0.0).key());
        assert_eq!(Value::F64(f64::NAN).key(), Value::F64(-f64::NAN).key());
        // Ord is total and consistent with Eq (ties broken by payload)
        assert_ne!(Value::U64(3).key().cmp(&Value::F64(3.0).key()), Ordering::Equal);
        assert_eq!(Value::U64(3).key().cmp(&Value::U64(3).key()), Ordering::Equal);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::U64(5).to_string(), "5");
        assert_eq!(Value::Str("hi".into()).to_string(), "hi");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1i64), Value::I64(1));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }
}
