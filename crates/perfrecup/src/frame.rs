//! A small typed columnar DataFrame — the pandas substitute underneath the
//! analysis views — and the CSV writer of the common tabular format.
//!
//! The frame supports projection, filtering, sorting and grouped
//! aggregation: the operations the paper's analyses compute on columns.
//! (The paper's one join, task↔I/O, is `ExecIndex::owner`, not a frame
//! operation.) [`CsvWriter`] is the only CSV renderer: it is a
//! [`CellSink`], so [`Tabular`] rows stream into it cell by cell without a
//! frame in between (`export_run`) — one quoting rule, one spelling of
//! seconds. It prints every cell from the integer or the spelling the row
//! hands it; the frame's own non-time floats still print as `{:.6}`.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use dtf_core::error::{DtfError, Result};
use dtf_core::table::{write_i64, write_u64, CellSink, Spell, Tabular, Value, ValueKey};
use dtf_core::time::write_secs;

/// Column-major table with string column names.
///
/// ```
/// use dtf_perfrecup::frame::{Agg, DataFrame};
/// use dtf_core::table::Value;
///
/// let mut df = DataFrame::new(vec!["worker".into(), "duration".into()]);
/// df.push_row(vec![Value::Str("w0".into()), Value::F64(1.5)]).unwrap();
/// df.push_row(vec![Value::Str("w0".into()), Value::F64(2.5)]).unwrap();
/// df.push_row(vec![Value::Str("w1".into()), Value::F64(4.0)]).unwrap();
///
/// let by_worker = df.group_by("worker", "duration", Agg::Mean).unwrap();
/// assert_eq!(by_worker.col_f64("duration_mean").unwrap(), vec![2.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Vec<Value>>,
}

/// Aggregations for [`DataFrame::group_by`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    Count,
    Sum,
    Mean,
    Min,
    Max,
}

impl DataFrame {
    pub fn new(names: Vec<String>) -> Self {
        let columns = names.iter().map(|_| Vec::new()).collect();
        Self { names, columns }
    }

    /// Build from any sequence of records in the common tabular format
    /// (a slice of events, or an iterator of borrowed rows).
    pub fn from_tabular<T: Tabular>(records: impl IntoIterator<Item = T>) -> Self {
        let names: Vec<String> = T::schema().into_iter().map(str::to_string).collect();
        let mut df = DataFrame::new(names);
        let records = records.into_iter();
        df.reserve(records.size_hint().0);
        // one row buffer for the whole frame: cells are boxed into it and
        // moved out to their columns
        let mut row = Vec::with_capacity(df.n_cols());
        for r in records {
            r.cells(&mut row);
            assert_eq!(row.len(), df.n_cols(), "schema-conforming row");
            for (col, v) in df.columns.iter_mut().zip(row.drain(..)) {
                col.push(v);
            }
        }
        df
    }

    /// Reserve capacity for `additional` more rows in every column.
    pub fn reserve(&mut self, additional: usize) {
        for col in &mut self.columns {
            col.reserve(additional);
        }
    }

    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    pub fn n_cols(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.names.len() {
            return Err(DtfError::Config(format!(
                "row width {} != {} columns",
                row.len(),
                self.names.len()
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        Ok(())
    }

    fn col_index(&self, name: &str) -> Result<usize> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| DtfError::NotFound(format!("column {name}")))
    }

    /// A column by name.
    pub fn col(&self, name: &str) -> Result<&[Value]> {
        Ok(&self.columns[self.col_index(name)?])
    }

    /// Numeric view of a column (non-numeric cells skipped).
    pub fn col_f64(&self, name: &str) -> Result<Vec<f64>> {
        Ok(self.col(name)?.iter().filter_map(Value::as_f64).collect())
    }

    /// One row by index.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[i].clone()).collect()
    }

    /// Keep only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out = DataFrame::new(names.iter().map(|s| s.to_string()).collect());
        let idx: Vec<usize> = names.iter().map(|n| self.col_index(n)).collect::<Result<_>>()?;
        out.columns = idx.iter().map(|&i| self.columns[i].clone()).collect();
        Ok(out)
    }

    /// Rows where `pred(row_value_of(col))` holds.
    pub fn filter<F: Fn(&Value) -> bool>(&self, col: &str, pred: F) -> Result<DataFrame> {
        let ci = self.col_index(col)?;
        let keep: Vec<usize> =
            self.columns[ci].iter().enumerate().filter(|(_, v)| pred(v)).map(|(i, _)| i).collect();
        Ok(self.take(&keep))
    }

    fn take(&self, rows: &[usize]) -> DataFrame {
        DataFrame {
            names: self.names.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| rows.iter().map(|&i| c[i].clone()).collect())
                .collect(),
        }
    }

    /// Stable sort by a column, ascending ([`ValueKey::cmp_sort`] order).
    pub fn sort_by(&self, col: &str) -> Result<DataFrame> {
        let ci = self.col_index(col)?;
        // extract each cell's typed key once instead of re-matching the
        // Value variants on every comparison
        let keys: Vec<ValueKey<'_>> = self.columns[ci].iter().map(Value::key).collect();
        let mut order: Vec<usize> = (0..self.n_rows()).collect();
        order.sort_by(|&a, &b| keys[a].cmp_sort(&keys[b]));
        Ok(self.take(&order))
    }

    /// Group by a key column and aggregate a value column.
    /// Returns a frame with columns `[key, agg]`, ordered by key
    /// ([`ValueKey::cmp_sort`] order; string keys sort exactly as before,
    /// numeric keys sort numerically rather than by their rendered digits).
    pub fn group_by(&self, key: &str, value: &str, agg: Agg) -> Result<DataFrame> {
        let ki = self.col_index(key)?;
        let vi = self.col_index(value)?;
        // keyed by the borrowed typed key; the first-seen row index stands
        // in for the cloned key Value the old String-keyed table carried
        let mut groups: HashMap<ValueKey<'_>, (usize, Vec<f64>)> = HashMap::new();
        for i in 0..self.n_rows() {
            let entry = groups.entry(self.columns[ki][i].key()).or_insert_with(|| (i, Vec::new()));
            if let Some(x) = self.columns[vi][i].as_f64() {
                entry.1.push(x);
            } else if agg == Agg::Count {
                entry.1.push(0.0); // counting non-numeric rows still counts
            }
        }
        let mut keys: Vec<&ValueKey<'_>> = groups.keys().collect();
        keys.sort(); // Ord: cmp_sort order with exact-payload tiebreak
        let agg_name = match agg {
            Agg::Count => "count",
            Agg::Sum => "sum",
            Agg::Mean => "mean",
            Agg::Min => "min",
            Agg::Max => "max",
        };
        let mut out = DataFrame::new(vec![key.to_string(), format!("{value}_{agg_name}")]);
        out.reserve(keys.len());
        for k in keys {
            let (first_row, vals) = &groups[k];
            let kv = &self.columns[ki][*first_row];
            let v = match agg {
                Agg::Count => Value::U64(vals.len() as u64),
                Agg::Sum => Value::F64(vals.iter().sum()),
                Agg::Mean => Value::F64(if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }),
                Agg::Min => Value::F64(vals.iter().copied().fold(f64::INFINITY, f64::min)),
                Agg::Max => Value::F64(vals.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            };
            out.push_row(vec![kv.clone(), v])?;
        }
        Ok(out)
    }

    /// Append another frame with the same schema.
    pub fn concat(&mut self, other: &DataFrame) -> Result<()> {
        if self.names != other.names {
            return Err(DtfError::Config("concat schema mismatch".into()));
        }
        for (a, b) in self.columns.iter_mut().zip(&other.columns) {
            a.extend(b.iter().cloned());
        }
        Ok(())
    }
}

/// The CSV renderer of the common tabular format: a [`CellSink`] that
/// appends each cell to one text buffer. It owns the rules the exported
/// bytes depend on:
///
/// - a text field is quoted (RFC 4180: wrapped in `"`, inner `"` doubled)
///   exactly when it contains `,` `"` `\n` or `\r`;
/// - a time cell prints as seconds with six decimals, from its integer
///   nanoseconds ([`write_secs`]), and any other float as `{:.6}`;
/// - integers print their decimal digits, booleans `true`/`false`, and a
///   null prints nothing.
///
/// No cell goes through `core::fmt`'s formatter but a non-time float and
/// the rare seconds [`write_secs`] hands to the float path: identifiers
/// [`Spell`] themselves into the buffer, and integers are printed by
/// `dtf-core`'s digit helper ([`write_u64`], [`write_i64`]). Numbers,
/// booleans and nulls cannot contain a quotable byte and are never
/// scanned for one.
///
/// [`CsvWriter::clear`] keeps the buffer, so one writer renders any
/// number of files, and a caller that streams a file writes the buffer
/// out and clears it at a row boundary (`export_run`).
#[derive(Debug, Default)]
pub struct CsvWriter {
    out: String,
    /// Cells written so far in the current row.
    col: usize,
}

impl CsvWriter {
    /// The header row: column names are text fields like any other.
    pub fn header<S: AsRef<str>>(&mut self, names: &[S]) {
        for n in names {
            self.str(n.as_ref());
        }
        self.end_row();
    }

    /// One record, streamed cell by cell.
    pub fn row(&mut self, record: &impl Tabular) {
        record.cells(self);
        self.end_row();
    }

    /// Terminate a row whose cells were fed through the [`CellSink`] methods.
    pub fn end_row(&mut self) {
        self.out.push('\n');
        self.col = 0;
    }

    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Forget the rendered text, keeping the allocation.
    pub fn clear(&mut self) {
        self.out.clear();
        self.col = 0;
    }

    /// Open the next field; returns where its text starts.
    fn field(&mut self) -> usize {
        if self.col > 0 {
            self.out.push(',');
        }
        self.col += 1;
        self.out.len()
    }

    /// Print into the buffer. A `String` is a `fmt::Write` that never
    /// fails, so there is no error to pass on.
    fn print(&mut self, spell: impl FnOnce(&mut String) -> fmt::Result) {
        let _ = spell(&mut self.out);
    }

    /// Quote the text field written from `start` on, if it needs it. Every
    /// task key does (`('prefix-token', index)` holds a comma), so wrapping
    /// is done in place; only doubling an inner `"` allocates. Fields are
    /// short, so the scan tests every byte without an early exit, which
    /// lets the compiler test many at a time.
    fn quote(&mut self, start: usize) {
        let raw = &self.out.as_bytes()[start..];
        if !raw.iter().fold(false, |hit, b| hit | matches!(b, b',' | b'"' | b'\n' | b'\r')) {
            return;
        }
        if raw.contains(&b'"') {
            let doubled = self.out[start..].replace('"', "\"\"");
            self.out.truncate(start);
            self.out.push_str(&doubled);
        }
        self.out.insert(start, '"');
        self.out.push('"');
    }
}

impl CellSink for CsvWriter {
    fn str(&mut self, v: &str) {
        let start = self.field();
        self.out.push_str(v);
        self.quote(start);
    }
    fn u64(&mut self, v: u64) {
        self.field();
        self.print(|out| write_u64(out, v));
    }
    fn i64(&mut self, v: i64) {
        self.field();
        self.print(|out| write_i64(out, v));
    }
    fn f64(&mut self, v: f64) {
        self.field();
        self.print(|out| write!(out, "{v:.6}"));
    }
    fn secs(&mut self, ns: u64) {
        self.field();
        self.print(|out| write_secs(out, ns));
    }
    fn bool(&mut self, v: bool) {
        self.field();
        self.out.push_str(if v { "true" } else { "false" });
    }
    fn null(&mut self) {
        self.field();
    }
    fn display<V: Spell>(&mut self, v: V) {
        let start = self.field();
        self.print(|out| v.spell(out));
        self.quote(start);
    }
}

impl fmt::Display for DataFrame {
    /// Render the first 20 rows as an aligned text table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows = self.n_rows().min(20);
        let mut widths: Vec<usize> = self.names.iter().map(|n| n.len()).collect();
        let mut cells: Vec<Vec<String>> = Vec::new();
        for i in 0..rows {
            let row: Vec<String> = self.row(i).iter().map(|v| v.to_string()).collect();
            for (w, c) in widths.iter_mut().zip(&row) {
                *w = (*w).max(c.len());
            }
            cells.push(row);
        }
        for (n, w) in self.names.iter().zip(&widths) {
            write!(f, "{n:>w$}  ")?;
        }
        writeln!(f)?;
        for row in cells {
            for (c, w) in row.iter().zip(&widths) {
                write!(f, "{c:>w$}  ")?;
            }
            writeln!(f)?;
        }
        if self.n_rows() > rows {
            writeln!(f, "... ({} rows total)", self.n_rows())?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A frame's boxed cells through [`CsvWriter`].
    pub(crate) fn csv(d: &DataFrame) -> String {
        let mut csv = CsvWriter::default();
        csv.header(d.names());
        for i in 0..d.n_rows() {
            for cell in d.row(i) {
                cell.cell(&mut csv);
            }
            csv.end_row();
        }
        csv.as_str().to_string()
    }

    fn df() -> DataFrame {
        let mut d = DataFrame::new(vec!["k".into(), "x".into(), "tag".into()]);
        d.push_row(vec![Value::U64(1), Value::F64(10.0), Value::Str("a".into())]).unwrap();
        d.push_row(vec![Value::U64(2), Value::F64(20.0), Value::Str("b".into())]).unwrap();
        d.push_row(vec![Value::U64(3), Value::F64(30.0), Value::Str("a".into())]).unwrap();
        d
    }

    #[test]
    fn push_and_shape() {
        let d = df();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_cols(), 3);
        assert!(!d.is_empty());
    }

    #[test]
    fn wrong_width_rejected() {
        let mut d = df();
        assert!(d.push_row(vec![Value::U64(1)]).is_err());
    }

    #[test]
    fn select_and_col() {
        let d = df().select(&["x", "k"]).unwrap();
        assert_eq!(d.names(), &["x".to_string(), "k".to_string()]);
        assert_eq!(d.col_f64("x").unwrap(), vec![10.0, 20.0, 30.0]);
        assert!(d.col("tag").is_err());
    }

    #[test]
    fn filter_rows() {
        let d = df().filter("tag", |v| v.as_str() == Some("a")).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.col_f64("x").unwrap(), vec![10.0, 30.0]);
    }

    #[test]
    fn sort_descending_input() {
        let mut d = DataFrame::new(vec!["x".into()]);
        for v in [3.0, 1.0, 2.0] {
            d.push_row(vec![Value::F64(v)]).unwrap();
        }
        let s = d.sort_by("x").unwrap();
        assert_eq!(s.col_f64("x").unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn group_by_aggregations() {
        let d = df();
        let g = d.group_by("tag", "x", Agg::Sum).unwrap();
        assert_eq!(g.n_rows(), 2);
        // keys ordered: a, b
        assert_eq!(g.col("tag").unwrap()[0].to_string(), "a");
        assert_eq!(g.col_f64("x_sum").unwrap(), vec![40.0, 20.0]);
        let g = d.group_by("tag", "x", Agg::Count).unwrap();
        assert_eq!(g.col("x_count").unwrap()[0].as_u64(), Some(2));
        let g = d.group_by("tag", "x", Agg::Mean).unwrap();
        assert_eq!(g.col_f64("x_mean").unwrap()[0], 20.0);
        let g = d.group_by("tag", "x", Agg::Max).unwrap();
        assert_eq!(g.col_f64("x_max").unwrap(), vec![30.0, 20.0]);
    }

    // Pinned behaviour: `Agg::Count` counts *every* row of the group,
    // numeric or not — a non-numeric value column still contributes to the
    // count (pandas' `size` semantics, which the warnings views rely on).
    #[test]
    fn count_includes_non_numeric_rows() {
        let mut d = DataFrame::new(vec!["k".into(), "v".into()]);
        d.push_row(vec![Value::Str("a".into()), Value::Str("x".into())]).unwrap();
        d.push_row(vec![Value::Str("a".into()), Value::F64(1.0)]).unwrap();
        d.push_row(vec![Value::Str("a".into()), Value::Null]).unwrap();
        d.push_row(vec![Value::Str("b".into()), Value::Bool(true)]).unwrap();
        let g = d.group_by("k", "v", Agg::Count).unwrap();
        assert_eq!(g.col("v_count").unwrap()[0].as_u64(), Some(3), "a: str+f64+null all count");
        assert_eq!(g.col("v_count").unwrap()[1].as_u64(), Some(1), "b: bool counts");
        // ...while numeric aggregations keep skipping non-numeric cells
        let g = d.group_by("k", "v", Agg::Sum).unwrap();
        assert_eq!(g.col_f64("v_sum").unwrap()[0], 1.0);
    }

    // Pinned behaviour: grouping keys of mixed *numeric* variants collapse
    // when their values coincide (U64(1) and I64(1) are one group), floats
    // keep their own identity, and strings never merge with numbers.
    #[test]
    fn group_keys_unify_cross_typed_integers() {
        let mut d = DataFrame::new(vec!["k".into(), "x".into()]);
        d.push_row(vec![Value::U64(1), Value::F64(10.0)]).unwrap();
        d.push_row(vec![Value::I64(1), Value::F64(20.0)]).unwrap();
        d.push_row(vec![Value::F64(1.0), Value::F64(40.0)]).unwrap();
        let g = d.group_by("k", "x", Agg::Sum).unwrap();
        assert_eq!(g.n_rows(), 2, "U64(1)+I64(1) merge; F64(1.0) stays separate");
        let sums: Vec<f64> = g.col_f64("x_sum").unwrap();
        assert!(sums.contains(&30.0) && sums.contains(&40.0));
    }

    #[test]
    fn sort_by_is_stable_across_mixed_variants() {
        // mixed column: cmp_sort ranks Null < Bool < numbers < Str and the
        // sort must be stable for equal-comparing cells
        let mut d = DataFrame::new(vec!["v".into(), "i".into()]);
        let cells = [
            Value::Str("z".into()),
            Value::F64(2.0),
            Value::U64(2), // compares Equal to F64(2.0): stability matters
            Value::Null,
            Value::Bool(true),
            Value::I64(-1),
        ];
        for (i, c) in cells.iter().enumerate() {
            d.push_row(vec![c.clone(), Value::U64(i as u64)]).unwrap();
        }
        let s = d.sort_by("v").unwrap();
        let order: Vec<u64> = s.col("i").unwrap().iter().map(|v| v.as_u64().unwrap()).collect();
        // Null(3), Bool(4), -1(5), then 2.0(1) before 2(2) by stability, Str(0)
        assert_eq!(order, vec![3, 4, 5, 1, 2, 0]);
    }

    #[test]
    fn concat_same_schema() {
        let mut a = df();
        let b = df();
        a.concat(&b).unwrap();
        assert_eq!(a.n_rows(), 6);
        let bad = DataFrame::new(vec!["z".into()]);
        assert!(a.concat(&bad).is_err());
    }

    #[test]
    fn from_tabular_uses_schema() {
        use dtf_core::events::{IoOp, IoRecord};
        use dtf_core::ids::{FileId, NodeId, ThreadId, WorkerId};
        use dtf_core::time::Time;
        let recs = vec![IoRecord {
            host: NodeId(0),
            worker: WorkerId::new(NodeId(0), 0),
            thread: ThreadId(7),
            file: FileId(0),
            op: IoOp::Read,
            offset: 0,
            size: 4096,
            start: Time(0),
            stop: Time(100),
        }];
        let d = DataFrame::from_tabular(&recs);
        assert_eq!(d.n_rows(), 1);
        assert!(d.names().contains(&"thread".to_string()));
        assert_eq!(d.col("op").unwrap()[0].as_str(), Some("read"));
    }

    #[test]
    fn display_renders_header() {
        let s = df().to_string();
        assert!(s.contains('k'));
        assert!(s.contains("20.0"));
    }

    #[test]
    fn csv_export_quotes_and_rows() {
        let mut d = DataFrame::new(vec!["name".into(), "x".into()]);
        d.push_row(vec![Value::Str("plain".into()), Value::U64(1)]).unwrap();
        d.push_row(vec![Value::Str("with,comma".into()), Value::U64(2)]).unwrap();
        d.push_row(vec![Value::Str("with\"quote".into()), Value::U64(3)]).unwrap();
        let csv = csv(&d);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "name,x");
        assert_eq!(lines[2], "\"with,comma\",2");
        assert_eq!(lines[3], "\"with\"\"quote\",3");
    }

    // RFC 4180: a bare CR or LF inside a field would split the row for a
    // CRLF-aware reader, so either one quotes the field; numbers, floats
    // (`{:.6}`), booleans and nulls print bare.
    #[test]
    fn csv_quotes_line_breaks_and_prints_numbers_bare() {
        let mut d = DataFrame::new(vec!["a,b".into(), "v".into()]);
        d.push_row(vec![Value::Str("cr\rhere".into()), Value::F64(1.5)]).unwrap();
        d.push_row(vec![Value::Str("lf\nhere".into()), Value::I64(-7)]).unwrap();
        d.push_row(vec![Value::Null, Value::Bool(true)]).unwrap();
        assert_eq!(csv(&d), "\"a,b\",v\n\"cr\rhere\",1.500000\n\"lf\nhere\",-7\n,true\n");
    }
}
