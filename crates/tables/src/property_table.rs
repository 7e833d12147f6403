//! Property Tables: `[id, value]` with dense ids, stored columnar.

use crate::value::{TableError, Value, ValueType};

/// Typed columnar storage backing a [`PropertyTable`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Boolean column.
    Bools(Vec<bool>),
    /// Integer column.
    Longs(Vec<i64>),
    /// Float column.
    Doubles(Vec<f64>),
    /// String column.
    Texts(Vec<String>),
    /// Date column (epoch days).
    Dates(Vec<i64>),
}

impl Column {
    fn new(t: ValueType) -> Self {
        match t {
            ValueType::Bool => Column::Bools(Vec::new()),
            ValueType::Long => Column::Longs(Vec::new()),
            ValueType::Double => Column::Doubles(Vec::new()),
            ValueType::Text => Column::Texts(Vec::new()),
            ValueType::Date => Column::Dates(Vec::new()),
        }
    }

    fn with_capacity(t: ValueType, cap: usize) -> Self {
        match t {
            ValueType::Bool => Column::Bools(Vec::with_capacity(cap)),
            ValueType::Long => Column::Longs(Vec::with_capacity(cap)),
            ValueType::Double => Column::Doubles(Vec::with_capacity(cap)),
            ValueType::Text => Column::Texts(Vec::with_capacity(cap)),
            ValueType::Date => Column::Dates(Vec::with_capacity(cap)),
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Bools(v) => v.len(),
            Column::Longs(v) => v.len(),
            Column::Doubles(v) => v.len(),
            Column::Texts(v) => v.len(),
            Column::Dates(v) => v.len(),
        }
    }

    fn value_type(&self) -> ValueType {
        match self {
            Column::Bools(_) => ValueType::Bool,
            Column::Longs(_) => ValueType::Long,
            Column::Doubles(_) => ValueType::Double,
            Column::Texts(_) => ValueType::Text,
            Column::Dates(_) => ValueType::Date,
        }
    }
}

/// A Property Table: the value of one property for every instance of one
/// node or edge type. Row `i` holds the value for instance id `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyTable {
    name: String,
    column: Column,
}

impl PropertyTable {
    /// Create an empty table named `name` (conventionally
    /// `"Type.property"`) with the given column type.
    pub fn new(name: impl Into<String>, value_type: ValueType) -> Self {
        Self {
            name: name.into(),
            column: Column::new(value_type),
        }
    }

    /// Create with pre-allocated capacity.
    pub fn with_capacity(name: impl Into<String>, value_type: ValueType, cap: usize) -> Self {
        Self {
            name: name.into(),
            column: Column::with_capacity(value_type, cap),
        }
    }

    /// Build from an iterator of values, checking each against the type.
    pub fn from_values<I>(
        name: impl Into<String>,
        value_type: ValueType,
        values: I,
    ) -> Result<Self, TableError>
    where
        I: IntoIterator<Item = Value>,
    {
        let iter = values.into_iter();
        let mut pt = Self::with_capacity(name, value_type, iter.size_hint().0);
        for v in iter {
            pt.push(v)?;
        }
        Ok(pt)
    }

    /// Table name (`"Type.property"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column type.
    pub fn value_type(&self) -> ValueType {
        self.column.value_type()
    }

    /// Number of rows.
    pub fn len(&self) -> u64 {
        self.column.len() as u64
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.column.len() == 0
    }

    /// Append a value; the id is implicitly the previous length.
    pub fn push(&mut self, v: Value) -> Result<(), TableError> {
        let expected = self.column.value_type();
        match (&mut self.column, v) {
            (Column::Bools(col), Value::Bool(b)) => col.push(b),
            (Column::Longs(col), Value::Long(x)) => col.push(x),
            (Column::Doubles(col), Value::Double(x)) => col.push(x),
            (Column::Texts(col), Value::Text(mut s)) => {
                // The string is moved in, not copied; drop what growth slack
                // its builder left, which a column would hold a million times.
                s.shrink_to_fit();
                col.push(s);
            }
            (Column::Dates(col), Value::Date(d)) => col.push(d),
            (_, v) => {
                return Err(TableError::TypeMismatch {
                    expected,
                    got: v.value_type(),
                })
            }
        }
        Ok(())
    }

    /// The value for instance `id`.
    pub fn value(&self, id: u64) -> Result<Value, TableError> {
        let i = id as usize;
        if i >= self.column.len() {
            return Err(TableError::OutOfBounds {
                id,
                len: self.len(),
            });
        }
        Ok(match &self.column {
            Column::Bools(v) => Value::Bool(v[i]),
            Column::Longs(v) => Value::Long(v[i]),
            Column::Doubles(v) => Value::Double(v[i]),
            Column::Texts(v) => Value::Text(v[i].clone()),
            Column::Dates(v) => Value::Date(v[i]),
        })
    }

    /// Iterate over all values in id order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i).expect("in range"))
    }

    /// Copy the contiguous row window `rows` into a new table (same name
    /// and type). Row `i` of the slice is row `rows.start + i` of `self`.
    /// Used by sharded generation to commit one shard's window of a table
    /// that had to be computed in full.
    ///
    /// # Panics
    ///
    /// Panics when `rows` does not lie within `0..len()`.
    pub fn slice_rows(&self, rows: std::ops::Range<u64>) -> PropertyTable {
        assert!(
            rows.start <= rows.end && rows.end <= self.len(),
            "slice {rows:?} out of bounds for {} rows",
            self.len()
        );
        let (lo, hi) = (rows.start as usize, rows.end as usize);
        let column = match &self.column {
            Column::Bools(v) => Column::Bools(v[lo..hi].to_vec()),
            Column::Longs(v) => Column::Longs(v[lo..hi].to_vec()),
            Column::Doubles(v) => Column::Doubles(v[lo..hi].to_vec()),
            Column::Texts(v) => Column::Texts(v[lo..hi].to_vec()),
            Column::Dates(v) => Column::Dates(v[lo..hi].to_vec()),
        };
        PropertyTable {
            name: self.name.clone(),
            column,
        }
    }

    /// Direct access to the underlying column.
    pub fn column(&self) -> &Column {
        &self.column
    }

    /// Integer slice view for `Long` columns (hot paths).
    pub fn longs(&self) -> Option<&[i64]> {
        match &self.column {
            Column::Longs(v) => Some(v),
            _ => None,
        }
    }

    /// String slice view for `Text` columns.
    pub fn texts(&self) -> Option<&[String]> {
        match &self.column {
            Column::Texts(v) => Some(v),
            _ => None,
        }
    }

    /// Frequency of each distinct value, as `(value, count)` sorted by
    /// first occurrence. Used to derive the group sizes `Q` for matching.
    pub fn value_frequencies(&self) -> Vec<(Value, u64)> {
        let mut order: Vec<Value> = Vec::new();
        let mut counts: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
        for v in self.iter() {
            let key = v.render();
            if let Some(c) = counts.get_mut(&key) {
                *c += 1;
            } else {
                counts.insert(key, 1);
                order.push(v);
            }
        }
        order
            .into_iter()
            .map(|v| {
                let c = counts[&v.render()];
                (v, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut pt = PropertyTable::new("Person.age", ValueType::Long);
        pt.push(Value::Long(30)).unwrap();
        pt.push(Value::Long(40)).unwrap();
        assert_eq!(pt.len(), 2);
        assert_eq!(pt.value(0).unwrap(), Value::Long(30));
        assert_eq!(pt.value(1).unwrap(), Value::Long(40));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut pt = PropertyTable::new("Person.name", ValueType::Text);
        let err = pt.push(Value::Long(1)).unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
        assert_eq!(pt.len(), 0, "failed push must not mutate");
    }

    #[test]
    fn null_is_rejected() {
        let mut pt = PropertyTable::new("x", ValueType::Double);
        assert!(pt.push(Value::Null).is_err());
    }

    #[test]
    fn out_of_bounds_read() {
        let pt = PropertyTable::new("x", ValueType::Bool);
        assert!(matches!(
            pt.value(0),
            Err(TableError::OutOfBounds { id: 0, len: 0 })
        ));
    }

    #[test]
    fn from_values_roundtrip() {
        let pt = PropertyTable::from_values(
            "Person.country",
            ValueType::Text,
            ["ES", "FR", "ES"].map(Value::from),
        )
        .unwrap();
        assert_eq!(pt.len(), 3);
        let collected: Vec<Value> = pt.iter().collect();
        assert_eq!(collected[2], Value::Text("ES".into()));
    }

    #[test]
    fn value_frequencies_counts_in_first_seen_order() {
        let pt =
            PropertyTable::from_values("p", ValueType::Text, ["b", "a", "b", "b"].map(Value::from))
                .unwrap();
        let freq = pt.value_frequencies();
        assert_eq!(
            freq,
            vec![
                (Value::Text("b".into()), 3),
                (Value::Text("a".into()), 2 - 1)
            ]
        );
    }

    #[test]
    fn typed_slice_views() {
        let pt = PropertyTable::from_values("x", ValueType::Long, [1i64, 2, 3].map(Value::from))
            .unwrap();
        assert_eq!(pt.longs(), Some(&[1i64, 2, 3][..]));
        assert_eq!(pt.texts(), None);
    }

    #[test]
    fn date_column() {
        let mut pt = PropertyTable::new("knows.creationDate", ValueType::Date);
        pt.push(Value::Date(17_259)).unwrap();
        assert_eq!(pt.value(0).unwrap().render(), "2017-04-03");
    }
}
