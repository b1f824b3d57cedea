//! The [`Table`] type: a named collection of equal-length columns.

use crate::column::Column;
use crate::error::TabularError;
use crate::predicate::Predicate;
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;
use crate::Result;

/// A named, in-memory columnar table.
///
/// Invariant: every column has the same number of rows, and column names are unique.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Create an empty table with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            schema: Schema::new(),
            columns: Vec::new(),
            num_rows: 0,
        }
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.schema.names()
    }

    /// Add a column. The first column fixes the row count; subsequent columns must match it.
    pub fn add_column(&mut self, name: impl Into<String>, column: Column) -> Result<()> {
        let name = name.into();
        if self.schema.index_of(&name).is_some() {
            return Err(TabularError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && column.len() != self.num_rows {
            return Err(TabularError::LengthMismatch {
                expected: self.num_rows,
                actual: column.len(),
                column: name,
            });
        }
        if self.columns.is_empty() {
            self.num_rows = column.len();
        }
        self.schema.push(Field::new(name, column.dtype()));
        self.columns.push(column);
        Ok(())
    }

    /// Builder-style [`Table::add_column`].
    pub fn with_column(mut self, name: impl Into<String>, column: Column) -> Result<Self> {
        self.add_column(name, column)?;
        Ok(self)
    }

    /// Replace an existing column (same length required), or add it if absent.
    pub fn set_column(&mut self, name: &str, column: Column) -> Result<()> {
        match self.schema.index_of(name) {
            Some(idx) => {
                if column.len() != self.num_rows {
                    return Err(TabularError::LengthMismatch {
                        expected: self.num_rows,
                        actual: column.len(),
                        column: name.to_string(),
                    });
                }
                self.schema.remove(name);
                self.columns.remove(idx);
                self.schema.push(Field::new(name, column.dtype()));
                self.columns.push(column);
                Ok(())
            }
            None => self.add_column(name, column),
        }
    }

    /// Remove a column by name, returning it.
    pub fn drop_column(&mut self, name: &str) -> Result<Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TabularError::ColumnNotFound(name.to_string()))?;
        self.schema.remove(name);
        Ok(self.columns.remove(idx))
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| TabularError::ColumnNotFound(name.to_string()))?;
        Ok(&self.columns[idx])
    }

    /// Column by positional index.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// The [`DataType`] of a named column.
    pub fn dtype(&self, name: &str) -> Result<DataType> {
        Ok(self.column(name)?.dtype())
    }

    /// Cell value at (`row`, `column name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        Ok(self.column(name)?.get(row))
    }

    /// Materialise a new table containing only the rows at `indices` (order and duplicates
    /// preserved).
    pub fn take(&self, indices: &[usize]) -> Table {
        let mut out = Table::new(self.name.clone());
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            out.add_column(field.name.clone(), col.take(indices))
                .expect("take preserves schema invariants");
        }
        if self.columns.is_empty() {
            out.num_rows = 0;
        }
        out
    }

    /// Like [`Table::take`], but categorical columns keep their full dictionary and code
    /// assignment (see [`crate::column::CatColumn::take_with_dict`]). Partitioned engines use
    /// this so every partition of a table agrees with the whole table on categorical codes.
    pub fn take_with_dict(&self, indices: &[usize]) -> Table {
        let mut out = Table::new(self.name.clone());
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            out.add_column(field.name.clone(), col.take_with_dict(indices))
                .expect("take preserves schema invariants");
        }
        if self.columns.is_empty() {
            out.num_rows = 0;
        }
        out
    }

    /// Materialise a new table containing only the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let mut out = Table::new(self.name.clone());
        for &n in names {
            out.add_column(n, self.column(n)?.clone())?;
        }
        Ok(out)
    }

    /// Filter rows by a [`Predicate`]. Rows where the predicate evaluates to NULL (e.g. a NULL
    /// operand) are dropped, matching SQL `WHERE` semantics.
    pub fn filter(&self, predicate: &Predicate) -> Result<Table> {
        let mut mask = crate::selection::SelectionMask::new();
        crate::selection::select_into(self, predicate, &mut mask)?;
        Ok(self.take(&mask.to_indices()))
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> Table {
        let n = n.min(self.num_rows);
        let indices: Vec<usize> = (0..n).collect();
        self.take(&indices)
    }

    /// Vertically stack another table with an identical schema under this one.
    ///
    /// Each result column is allocated once, at exactly `self.num_rows() + other.num_rows()`
    /// rows, and filled by appending this table's rows and then `other`'s: no column is
    /// copied twice and the result holds no spare capacity.
    pub fn concat(&self, other: &Table) -> Result<Table> {
        self.concat_with(other, false)
    }

    /// Like [`Table::concat`], but categorical columns absorb `other`'s *entire* dictionary
    /// (in `other`'s dictionary order) before any row is appended — see
    /// [`crate::column::CatColumn::extend_absorbing_dict`]. Allocates exactly like
    /// [`Table::concat`].
    ///
    /// For batches whose dictionary order equals row first-appearance order (anything built by
    /// pushes or a plain `take`) this is bit-identical to [`Table::concat`]. Partitioned
    /// ingestion relies on the difference: sub-batches cut with [`Table::take_with_dict`]
    /// carry the full batch dictionary, so every partition interns the batch's novel values
    /// in the same global order regardless of which rows it owns.
    pub fn concat_absorbing(&self, other: &Table) -> Result<Table> {
        self.concat_with(other, true)
    }

    /// The shared body of [`Table::concat`] and [`Table::concat_absorbing`].
    fn concat_with(&self, other: &Table, absorb_dicts: bool) -> Result<Table> {
        if self.schema != *other.schema() {
            return Err(TabularError::InvalidArgument(
                "concat requires identical schemas".to_string(),
            ));
        }
        let mut columns = Vec::with_capacity(self.columns.len());
        for (field, col) in self.schema.fields().iter().zip(&self.columns) {
            columns.push(col.stacked(other.column(&field.name)?, absorb_dicts)?);
        }
        Ok(Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            columns,
            num_rows: self.num_rows + other.num_rows(),
        })
    }

    /// A human-readable preview of the first `n` rows (used by examples and debugging).
    pub fn preview(&self, n: usize) -> String {
        let mut s = String::new();
        s.push_str(&self.column_names().join(","));
        s.push('\n');
        for row in 0..n.min(self.num_rows) {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.get(row).to_string())
                .collect();
            s.push_str(&cells.join(","));
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t");
        t.add_column("id", Column::from_i64s(&[1, 2, 3, 4]))
            .unwrap();
        t.add_column("grp", Column::from_strs(&["a", "a", "b", "b"]))
            .unwrap();
        t.add_column("x", Column::from_f64s(&[1.0, 2.0, 3.0, 4.0]))
            .unwrap();
        t
    }

    #[test]
    fn add_column_enforces_lengths_and_uniqueness() {
        let mut t = sample();
        assert!(matches!(
            t.add_column("id", Column::from_i64s(&[9, 9, 9, 9])),
            Err(TabularError::DuplicateColumn(_))
        ));
        assert!(matches!(
            t.add_column("bad", Column::from_i64s(&[1, 2])),
            Err(TabularError::LengthMismatch { .. })
        ));
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
    }

    #[test]
    fn column_lookup_and_values() {
        let t = sample();
        assert_eq!(t.value(2, "grp").unwrap(), Value::Str("b".into()));
        assert_eq!(t.dtype("x").unwrap(), DataType::Float);
        assert!(t.column("nope").is_err());
        assert_eq!(t.column_names(), vec!["id", "grp", "x"]);
    }

    #[test]
    fn take_and_head() {
        let t = sample();
        let sub = t.take(&[3, 1]);
        assert_eq!(sub.num_rows(), 2);
        assert_eq!(sub.value(0, "id").unwrap(), Value::Int(4));
        assert_eq!(sub.value(1, "id").unwrap(), Value::Int(2));

        let h = t.head(2);
        assert_eq!(h.num_rows(), 2);
        let h_big = t.head(100);
        assert_eq!(h_big.num_rows(), 4);
    }

    #[test]
    fn select_projects_columns() {
        let t = sample();
        let s = t.select(&["x", "id"]).unwrap();
        assert_eq!(s.column_names(), vec!["x", "id"]);
        assert!(t.select(&["missing"]).is_err());
    }

    #[test]
    fn set_and_drop_column() {
        let mut t = sample();
        t.set_column("x", Column::from_f64s(&[9.0, 9.0, 9.0, 9.0]))
            .unwrap();
        assert_eq!(t.value(0, "x").unwrap(), Value::Float(9.0));
        t.set_column("new", Column::from_i64s(&[7, 7, 7, 7]))
            .unwrap();
        assert_eq!(t.num_columns(), 4);
        let dropped = t.drop_column("new").unwrap();
        assert_eq!(dropped.len(), 4);
        assert!(t.drop_column("new").is_err());
    }

    #[test]
    fn filter_by_predicate() {
        let t = sample();
        let f = t.filter(&Predicate::eq("grp", "a")).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(0, "id").unwrap(), Value::Int(1));
    }

    #[test]
    fn concat_stacks_rows() {
        let t = sample();
        let c = t.concat(&t).unwrap();
        assert_eq!(c.num_rows(), 8);
        assert_eq!(c.value(4, "id").unwrap(), Value::Int(1));

        let other = Table::new("other")
            .with_column("id", Column::from_i64s(&[1]))
            .unwrap();
        assert!(t.concat(&other).is_err());
    }

    #[test]
    fn take_with_dict_keeps_global_categorical_codes() {
        let t = sample();
        let part = t.take_with_dict(&[2, 3]); // only "b" rows survive
        assert_eq!(part.num_rows(), 2);
        match part.column("grp").unwrap() {
            Column::Cat(c) => {
                assert_eq!(c.dictionary(), &["a".to_string(), "b".to_string()]);
                assert_eq!(c.codes(), &[Some(1), Some(1)]);
            }
            other => panic!("expected categorical, got {other:?}"),
        }
        // Non-categorical columns match plain take.
        assert_eq!(
            part.column("id").unwrap(),
            t.take(&[2, 3]).column("id").unwrap()
        );
    }

    #[test]
    fn concat_absorbing_matches_concat_and_absorbs_rowless_dict_entries() {
        let t = sample();
        // Push-built other: bit-identical to plain concat.
        let absorbed = t.concat_absorbing(&t).unwrap();
        assert_eq!(absorbed, t.concat(&t).unwrap());

        // A sub-batch cut with take_with_dict carries the full batch dictionary; absorbing
        // interns the row-less novel value too.
        let mut batch = Table::new("t");
        batch.add_column("id", Column::from_i64s(&[9, 10])).unwrap();
        batch
            .add_column("grp", Column::from_strs(&["z", "q"]))
            .unwrap();
        batch
            .add_column("x", Column::from_f64s(&[9.0, 10.0]))
            .unwrap();
        let sub = batch.take_with_dict(&[1]); // only the "q" row, dict still [z, q]
        let merged = t.concat_absorbing(&sub).unwrap();
        match merged.column("grp").unwrap() {
            Column::Cat(c) => {
                assert_eq!(
                    c.dictionary(),
                    &["a", "b", "z", "q"].map(String::from),
                    "row-less 'z' interned before 'q', matching the unpartitioned order"
                );
                assert_eq!(c.codes().last().copied().flatten(), Some(3));
            }
            other => panic!("expected categorical, got {other:?}"),
        }
        assert!(t.concat_absorbing(&Table::new("empty")).is_err());
    }

    /// One column of every type, NULLs included.
    fn all_types(
        ids: &[Option<i64>],
        xs: &[Option<f64>],
        flags: &[Option<bool>],
        grps: &[Option<&str>],
    ) -> Table {
        Table::new("t")
            .with_column("id", Column::from_opt_i64s(ids))
            .unwrap()
            .with_column("x", Column::from_opt_f64s(xs))
            .unwrap()
            .with_column("flag", Column::Bool(flags.to_vec()))
            .unwrap()
            .with_column(
                "ts",
                Column::DateTime(ids.iter().map(|i| i.map(|i| i * 60)).collect()),
            )
            .unwrap()
            .with_column("grp", Column::from_opt_strs(grps))
            .unwrap()
    }

    /// Float cells compared by bits, so NaN and -0.0 count.
    fn assert_same_columns(got: &Table, want: &Table) {
        assert_eq!(got.num_rows(), want.num_rows());
        assert_eq!(got.schema(), want.schema());
        for (g, w) in got.columns.iter().zip(&want.columns) {
            match (g, w) {
                (Column::Float(g), Column::Float(w)) => assert_eq!(
                    g.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>(),
                    w.iter().map(|v| v.map(f64::to_bits)).collect::<Vec<_>>()
                ),
                _ => assert_eq!(g, w),
            }
        }
    }

    #[test]
    fn concat_matches_row_pushes_at_exact_capacity_for_every_type() {
        let a = all_types(
            &[Some(1), None, Some(3)],
            &[Some(1.5), None, Some(-0.0)],
            &[Some(true), None, Some(false)],
            &[Some("a"), None, Some("b")],
        );
        let b = all_types(
            &[None, Some(5), Some(6)],
            &[Some(f64::NAN), Some(0.0), None],
            &[Some(false), None, Some(true)],
            &[Some("c"), Some("a"), None],
        );
        let empty = a.head(0);
        for other in [&b, &a, &empty] {
            let mut pushed = a.clone();
            for (idx, field) in a.schema.fields().iter().enumerate() {
                let src = other.column(&field.name).unwrap();
                for row in 0..other.num_rows() {
                    pushed.columns[idx].push(src.get(row)).unwrap();
                }
            }
            pushed.num_rows += other.num_rows();
            for out in [a.concat(other).unwrap(), a.concat_absorbing(other).unwrap()] {
                assert_same_columns(&out, &pushed);
                for (field, col) in out.schema.fields().iter().zip(&out.columns) {
                    assert_eq!(col.len(), out.num_rows(), "{}", field.name);
                    assert_eq!(col.capacity(), col.len(), "{} over-allocated", field.name);
                }
            }
        }
    }

    #[test]
    fn preview_contains_header_and_rows() {
        let t = sample();
        let p = t.preview(2);
        assert!(p.starts_with("id,grp,x\n"));
        assert_eq!(p.lines().count(), 3);
    }
}
