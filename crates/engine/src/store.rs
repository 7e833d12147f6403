//! The in-memory property-graph store: typed columns plus the access
//! paths queries need — row-aware CSR adjacency, per-property hash and
//! sorted-range indexes, and `_ts` columns for temporally annotated
//! types.
//!
//! The store is a *view over* a generated [`PropertyGraph`] rather than a
//! copy of it: node ids are type-local and dense (`0..n`, the generator's
//! invariant, revalidated by the directory reader), so the id→row mapping
//! is the identity and columns are indexed directly. What `build`
//! constructs on top are the derived structures generation never needed:
//! adjacency with edge-row provenance (so per-edge timestamps can be
//! consulted mid-traversal), equality and range indexes over node
//! properties, and materialized insert/delete timestamps replayed from
//! the schema's [`TypeClock`]s under the generation seed.

use std::collections::{BTreeMap, HashMap};

use datasynth_schema::Schema;
use datasynth_tables::{Csr, PropertyGraph, PropertyTable, Value};
use datasynth_temporal::TypeClock;

use crate::error::EngineError;

/// Compressed sparse rows with edge-row provenance: `neighbors(v)` yields
/// `(neighbor id, edge row)` pairs, so traversals can consult per-edge
/// columns (properties, `_ts`) without a second lookup structure.
pub type RowCsr = Csr<(u64, u64)>;

/// Equality + range access paths over one property column.
///
/// The hash side maps a value (by its canonical rendering — collision-free
/// within one typed column) to the ascending rows holding it; the sorted
/// side, present for integer-representable columns (`long`, `date`,
/// `bool`), supports counting rows in an inclusive range.
#[derive(Debug, Default)]
pub struct PropertyIndex {
    by_value: HashMap<String, Vec<u64>>,
    sorted: Option<Vec<(i64, u64)>>,
}

impl PropertyIndex {
    /// Index one column.
    pub fn build(table: &PropertyTable) -> Self {
        let mut by_value: HashMap<String, Vec<u64>> = HashMap::new();
        let mut sorted: Option<Vec<(i64, u64)>> = Some(Vec::new());
        for (row, v) in table.iter().enumerate() {
            match (&v, &mut sorted) {
                (Value::Long(x), Some(s)) => s.push((*x, row as u64)),
                (Value::Date(x), Some(s)) => s.push((*x, row as u64)),
                (Value::Bool(x), Some(s)) => s.push((i64::from(*x), row as u64)),
                _ => sorted = None,
            }
            by_value.entry(v.render()).or_default().push(row as u64);
        }
        if let Some(s) = &mut sorted {
            s.sort_unstable();
        }
        PropertyIndex { by_value, sorted }
    }

    /// Rows holding exactly `value`, ascending.
    pub fn rows_eq(&self, value: &Value) -> &[u64] {
        self.by_value
            .get(&value.render())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of rows with values in `[lo, hi]`; `None` when the column
    /// type has no sorted index (text, double).
    pub fn rows_in_range(&self, lo: i64, hi: i64) -> Option<u64> {
        let s = self.sorted.as_ref()?;
        let from = s.partition_point(|&(v, _)| v < lo);
        let to = s.partition_point(|&(v, _)| v <= hi);
        Some((to - from) as u64)
    }

    /// Distinct values indexed.
    pub fn distinct(&self) -> u64 {
        self.by_value.len() as u64
    }

    fn bytes(&self) -> u64 {
        let hash: usize = self
            .by_value
            .iter()
            .map(|(k, v)| k.len() + 24 + v.len() * 8)
            .sum();
        let sorted = self.sorted.as_ref().map_or(0, |s| s.len() * 16);
        (hash + sorted) as u64
    }
}

/// The `_ts` columns of one temporally annotated type: per-row insert
/// days, and per-row delete days when the type has a lifetime clause
/// (each delete strictly after its insert, the [`TypeClock`] guarantee).
#[derive(Debug)]
pub struct TsColumns {
    /// Insert timestamp per row, days since epoch.
    pub insert: Vec<i64>,
    /// Delete timestamp per row, when the type has a lifetime clause.
    pub delete: Option<Vec<i64>>,
}

impl TsColumns {
    fn build(clock: &TypeClock, rows: u64) -> Result<Self, EngineError> {
        let err = |e: datasynth_core::SinkError| EngineError::Temporal(e.to_string());
        let mut insert = Vec::with_capacity(rows as usize);
        let mut delete = clock
            .has_lifetime()
            .then(|| Vec::with_capacity(rows as usize));
        for row in 0..rows {
            insert.push(clock.insert_ts(row).map_err(err)?);
            if let Some(d) = &mut delete {
                let ts = clock.delete_ts(row).map_err(err)?.ok_or_else(|| {
                    EngineError::Temporal("lifetime clock yielded no delete".into())
                })?;
                d.push(ts);
            }
        }
        Ok(TsColumns { insert, delete })
    }

    /// Whether row `row` exists as of day `ts`: inserted on or before
    /// `ts`, and (when deletes are scheduled) not yet deleted — the
    /// delete day itself no longer observes the row.
    pub fn alive_at(&self, row: u64, ts: i64) -> bool {
        self.insert[row as usize] <= ts && self.delete.as_ref().is_none_or(|d| ts < d[row as usize])
    }

    fn bytes(&self) -> u64 {
        ((self.insert.len() + self.delete.as_ref().map_or(0, Vec::len)) * 8) as u64
    }
}

/// Both adjacency views of one edge type. `out` lists tail-side entries
/// in row order; `both` (built only for undirected same-type edges, where
/// head ids share the source id space) additionally lists the head-side
/// view.
#[derive(Debug)]
struct EdgeAdjacency {
    out: RowCsr,
    both: Option<RowCsr>,
}

/// The embedded store: generated columns plus query access paths.
#[derive(Debug)]
pub struct GraphStore {
    graph: PropertyGraph,
    seed: u64,
    adjacency: BTreeMap<String, EdgeAdjacency>,
    node_index: BTreeMap<(String, String), PropertyIndex>,
    node_ts: BTreeMap<String, TsColumns>,
    edge_ts: BTreeMap<String, TsColumns>,
    /// Sorted insert timestamps per temporal edge type — the range index
    /// whole-graph window aggregates count against.
    edge_ts_sorted: BTreeMap<String, Vec<i64>>,
}

impl GraphStore {
    /// Build the store over a fully generated graph. `schema` supplies
    /// the temporal annotations and `seed` must be the generation seed,
    /// so the replayed `_ts` columns are exactly the timestamps the
    /// op-log sink would emit (and the workload curator binds against).
    pub fn build(schema: &Schema, seed: u64, graph: PropertyGraph) -> Result<Self, EngineError> {
        let mut adjacency = BTreeMap::new();
        let mut node_index = BTreeMap::new();
        let mut node_ts = BTreeMap::new();
        let mut edge_ts = BTreeMap::new();
        let mut edge_ts_sorted = BTreeMap::new();

        for (edge, meta, table) in graph.edge_types() {
            let n = graph
                .node_count(&meta.source)
                .ok_or_else(|| EngineError::MissingNodeType(meta.source.clone()))?;
            // `both` is the undirected same-type view, the one the curator
            // counts with.
            let view =
                |both| Csr::build(n, table.tails(), table.heads(), both, |nbr, row| (nbr, row));
            let out = view(false);
            let both = (meta.source == meta.target).then(|| view(true));
            adjacency.insert(edge.to_owned(), EdgeAdjacency { out, both });
        }
        for (node_type, _) in graph.node_types() {
            for (prop, table) in graph.node_properties_of(node_type) {
                node_index.insert(
                    (node_type.to_owned(), prop.to_owned()),
                    PropertyIndex::build(table),
                );
            }
        }
        let clock_err = |e: datasynth_core::SinkError| EngineError::Temporal(e.to_string());
        for node in &schema.nodes {
            let Some(def) = &node.temporal else { continue };
            let Some(count) = graph.node_count(&node.name) else {
                continue;
            };
            let clock = TypeClock::new(seed, &node.name, def).map_err(clock_err)?;
            node_ts.insert(node.name.clone(), TsColumns::build(&clock, count)?);
        }
        for edge in &schema.edges {
            let Some(def) = &edge.temporal else { continue };
            let Some(table) = graph.edges(&edge.name) else {
                continue;
            };
            let clock = TypeClock::new(seed, &edge.name, def).map_err(clock_err)?;
            let ts = TsColumns::build(&clock, table.len())?;
            let mut sorted = ts.insert.clone();
            sorted.sort_unstable();
            edge_ts_sorted.insert(edge.name.clone(), sorted);
            edge_ts.insert(edge.name.clone(), ts);
        }

        Ok(GraphStore {
            graph,
            seed,
            adjacency,
            node_index,
            node_ts,
            edge_ts,
            edge_ts_sorted,
        })
    }

    /// The generation seed the store (and its `_ts` columns) replay.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The underlying column store.
    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    /// Instance count of a node type.
    pub fn node_count(&self, node_type: &str) -> Result<u64, EngineError> {
        self.graph
            .node_count(node_type)
            .ok_or_else(|| EngineError::MissingNodeType(node_type.to_owned()))
    }

    /// The adjacency view matching a template's direction, under the same
    /// rules the curator counts with: undirected same-type edges traverse
    /// both endpoints; directed edges — and undirected edges across two
    /// types, where head ids live in the target type's id space — traverse
    /// the tail side only.
    pub fn adjacency(&self, edge: &str, directed: bool) -> Result<&RowCsr, EngineError> {
        let adj = self
            .adjacency
            .get(edge)
            .ok_or_else(|| EngineError::MissingEdgeType(edge.to_owned()))?;
        Ok(match (&adj.both, directed) {
            (Some(both), false) => both,
            _ => &adj.out,
        })
    }

    /// Equality/range index over a node property.
    pub fn node_index(&self, node_type: &str, prop: &str) -> Result<&PropertyIndex, EngineError> {
        self.node_index
            .get(&(node_type.to_owned(), prop.to_owned()))
            .ok_or_else(|| EngineError::MissingProperty(node_type.to_owned(), prop.to_owned()))
    }

    /// `_ts` columns of a temporal node type.
    pub fn node_ts(&self, node_type: &str) -> Result<&TsColumns, EngineError> {
        self.node_ts
            .get(node_type)
            .ok_or_else(|| EngineError::NotTemporal(node_type.to_owned()))
    }

    /// `_ts` columns of a temporal edge type.
    pub fn edge_ts(&self, edge: &str) -> Result<&TsColumns, EngineError> {
        self.edge_ts
            .get(edge)
            .ok_or_else(|| EngineError::NotTemporal(edge.to_owned()))
    }

    /// Sorted insert timestamps of a temporal edge type.
    pub fn edge_ts_sorted(&self, edge: &str) -> Result<&[i64], EngineError> {
        self.edge_ts_sorted
            .get(edge)
            .map(Vec::as_slice)
            .ok_or_else(|| EngineError::NotTemporal(edge.to_owned()))
    }

    /// Total nodes across all types.
    pub fn total_nodes(&self) -> u64 {
        self.graph.total_nodes()
    }

    /// Total edges across all types.
    pub fn total_edges(&self) -> u64 {
        self.graph.total_edges()
    }

    /// Deterministic estimate of resident bytes: column payloads plus
    /// every derived structure (adjacency, indexes, `_ts`). Logical
    /// sizes, not allocator-dependent capacities, so two identical builds
    /// report the same number.
    pub fn memory_bytes(&self) -> u64 {
        let mut total = 0u64;
        for (node_type, _) in self.graph.node_types() {
            for (_, table) in self.graph.node_properties_of(node_type) {
                total += column_bytes(table);
            }
        }
        for (edge_type, _, table) in self.graph.edge_types() {
            total += table.len() * 16;
            for (_, ptable) in self.graph.edge_properties_of(edge_type) {
                total += column_bytes(ptable);
            }
        }
        for adj in self.adjacency.values() {
            total += adj.out.bytes() + adj.both.as_ref().map_or(0, RowCsr::bytes);
        }
        for idx in self.node_index.values() {
            total += idx.bytes();
        }
        for ts in self.node_ts.values().chain(self.edge_ts.values()) {
            total += ts.bytes();
        }
        for s in self.edge_ts_sorted.values() {
            total += (s.len() * 8) as u64;
        }
        total
    }
}

/// Logical payload bytes of one column.
fn column_bytes(table: &PropertyTable) -> u64 {
    table
        .iter()
        .map(|v| match v {
            Value::Null => 0u64,
            Value::Bool(_) => 1,
            Value::Long(_) | Value::Double(_) | Value::Date(_) => 8,
            Value::Text(s) => (s.len() + 24) as u64,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_tables::{EdgeTable, ValueType};

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_node_type("Person", 4);
        g.insert_node_property(
            "Person",
            "age",
            PropertyTable::from_values(
                "Person.age",
                ValueType::Long,
                [30i64, 40, 30, 50].map(Value::from),
            )
            .unwrap(),
        );
        g.insert_edge_table(
            "knows",
            "Person",
            "Person",
            EdgeTable::from_pairs("knows", [(0u64, 1u64), (0, 2), (1, 2), (3, 3)]),
        );
        g
    }

    fn schema() -> Schema {
        datasynth_schema::parse_schema(
            "graph g { node Person [count = 4] { age: long = uniform(20, 60); } }",
        )
        .unwrap()
    }

    #[test]
    fn csr_views_follow_direction_rules() {
        let store = GraphStore::build(&schema(), 1, graph()).unwrap();
        let out = store.adjacency("knows", true).unwrap();
        assert_eq!(out.neighbors(0), &[(1, 0), (2, 1)]);
        assert_eq!(out.degree(3), 1, "self loop, tail view");
        let both = store.adjacency("knows", false).unwrap();
        assert_eq!(both.degree(0), 2);
        assert_eq!(both.degree(2), 2, "in-edges count in the both view");
        assert_eq!(both.degree(3), 2, "self loop counts twice undirected");
        assert_eq!(both.entry_count(), 8);
    }

    #[test]
    fn property_index_supports_eq_and_range() {
        let store = GraphStore::build(&schema(), 1, graph()).unwrap();
        let idx = store.node_index("Person", "age").unwrap();
        assert_eq!(idx.rows_eq(&Value::Long(30)), &[0, 2]);
        assert_eq!(idx.rows_eq(&Value::Long(99)), &[0u64; 0]);
        assert_eq!(idx.rows_in_range(30, 40), Some(3));
        assert_eq!(idx.distinct(), 3);
    }

    #[test]
    fn missing_pieces_are_reported() {
        let store = GraphStore::build(&schema(), 1, graph()).unwrap();
        assert!(store.node_count("Ghost").is_err());
        assert!(store.adjacency("ghost", true).is_err());
        assert!(store.node_index("Person", "ghost").is_err());
        assert!(matches!(
            store.node_ts("Person"),
            Err(EngineError::NotTemporal(_))
        ));
    }

    #[test]
    fn memory_estimate_is_deterministic_and_positive() {
        let a = GraphStore::build(&schema(), 1, graph()).unwrap();
        let b = GraphStore::build(&schema(), 1, graph()).unwrap();
        assert_eq!(a.memory_bytes(), b.memory_bytes());
        assert!(a.memory_bytes() > 0);
    }

    #[test]
    fn temporal_types_get_ts_columns() {
        let schema = datasynth_schema::parse_schema(
            r#"graph g {
                node Person [count = 4] {
                    age: long = uniform(20, 60);
                    temporal { arrival = date_between("2010-01-01", "2011-01-01"); }
                }
                edge knows: Person -> Person {
                    structure = erdos_renyi(p = 0.5);
                    temporal {
                        arrival = date_between("2012-01-01", "2013-01-01");
                        lifetime = uniform(10, 50);
                    }
                }
            }"#,
        )
        .unwrap();
        let store = GraphStore::build(&schema, 7, graph()).unwrap();
        let ts = store.node_ts("Person").unwrap();
        assert_eq!(ts.insert.len(), 4);
        assert!(ts.delete.is_none(), "no lifetime on Person");
        assert!(ts.alive_at(0, ts.insert[0]));
        assert!(!ts.alive_at(0, ts.insert[0] - 1));
        let ets = store.edge_ts("knows").unwrap();
        let deletes = ets.delete.as_ref().expect("knows has a lifetime");
        for (i, d) in deletes.iter().enumerate() {
            assert!(*d > ets.insert[i], "delete strictly after insert");
            assert!(!ets.alive_at(i as u64, *d), "gone on the delete day");
        }
        let sorted = store.edge_ts_sorted("knows").unwrap();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }
}
