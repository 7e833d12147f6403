//! Streaming consumption of generation output: the [`GraphSink`] trait and
//! the stock sinks.
//!
//! The pipeline (structure → matching → properties) is incremental: each
//! task of the [`ExecutionPlan`](crate::ExecutionPlan) finishes one typed
//! artifact — a resolved node count, a node-property column, a finalized
//! edge table, an edge-property column. A [`GraphSink`] receives those
//! artifacts as soon as no downstream task needs them anymore, so consumers
//! that do not need the whole graph in memory (exporters, statistics,
//! workload curation) can process and discard tables while generation is
//! still running.
//!
//! Stock sinks:
//!
//! * [`InMemorySink`] — assembles a full
//!   [`PropertyGraph`](datasynth_tables::PropertyGraph);
//!   [`DataSynth::generate`](crate::DataSynth::generate) is sugar over it,
//! * [`CsvSink`] / [`JsonlSink`] — streaming exporters that write each
//!   table's file the moment its last column arrives, then free it,
//! * [`TableSink`] — the same for one table into any `Write` (what the
//!   HTTP service streams through),
//! * [`MultiSink`] — fans every event out to several sinks so export,
//!   statistics and workload curation share a single generation pass.
//!
//! The streaming sinks and the whole-graph exporters share one write path:
//! all of them hand complete tables to
//! [`TableSlice`](datasynth_tables::export::TableSlice), so their bytes
//! are identical by construction — see `datasynth_tables::export`.
//!
//! # Writing a custom sink
//!
//! Implement the event methods you care about — every method defaults to a
//! no-op that drops its table. Tables arrive **by value**: keep them, or
//! drop them after extracting what you need — nothing is retained for you.
//! This sink counts edges without ever holding more than one table:
//!
//! ```
//! use datasynth_core::{DataSynth, GraphSink, SinkError};
//! use datasynth_tables::EdgeTable;
//!
//! #[derive(Default)]
//! struct EdgeCounter {
//!     edges: u64,
//! }
//!
//! impl GraphSink for EdgeCounter {
//!     fn edges(&mut self, _: &str, _: &str, _: &str, t: EdgeTable) -> Result<(), SinkError> {
//!         self.edges += t.len();
//!         Ok(())
//!     }
//! }
//!
//! let dsl = r#"graph g {
//!     node A [count = 100] { x: long = counter(); }
//!     edge e: A -- A { structure = erdos_renyi(p = 0.05); }
//! }"#;
//! let mut counter = EdgeCounter::default();
//! DataSynth::from_dsl(dsl)
//!     .unwrap()
//!     .session()
//!     .unwrap()
//!     .run_into(&mut counter)
//!     .unwrap();
//! assert!(counter.edges > 0);
//! ```

mod manifest;
mod stream;

use std::fmt;
use std::io;
use std::ops::Range;

use datasynth_tables::{EdgeTable, PropertyGraph, PropertyTable};

pub(crate) use manifest::{hash_edge_rows, hash_id_rows, hash_property_rows};
pub use manifest::{
    EdgeTableInfo, NodeTableInfo, PropertyInfo, ShardSpec, SinkManifest, TableRows, MANIFEST_FILE,
};
pub use stream::{CsvSink, DirSink, JsonlSink, TableSink};
// The format enum lives with the writer; re-exported where it always was.
pub use datasynth_tables::export::TableFormat;

/// Anything a sink can fail with.
#[derive(Debug)]
pub enum SinkError {
    /// An I/O failure while persisting.
    Io(io::Error),
    /// A protocol or consistency violation (with context).
    Invalid(String),
    /// The sink cannot operate under the announced run shape (for
    /// example, a whole-graph consumer driven by one shard of a
    /// partitioned run). The message says what to do instead.
    Unsupported(String),
}

impl SinkError {
    /// Shorthand for [`SinkError::Invalid`].
    pub fn invalid(msg: impl fmt::Display) -> Self {
        SinkError::Invalid(msg.to_string())
    }

    /// Shorthand for [`SinkError::Unsupported`].
    pub fn unsupported(msg: impl fmt::Display) -> Self {
        SinkError::Unsupported(msg.to_string())
    }
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkError::Io(e) => write!(f, "io: {e}"),
            SinkError::Invalid(msg) => write!(f, "{msg}"),
            SinkError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for SinkError {}

impl From<io::Error> for SinkError {
    fn from(e: io::Error) -> Self {
        SinkError::Io(e)
    }
}

/// A consumer of generation output, fed by
/// [`Session::run_into`](crate::Session::run_into).
///
/// Event order guarantees:
///
/// * [`begin`](Self::begin) first, [`finish`](Self::finish) last, each once;
/// * [`table_rows`](Self::table_rows) for a table precedes every other
///   event of that table except `begin`;
/// * [`node_count`](Self::node_count) for a type precedes every
///   [`node_property`](Self::node_property) of that type;
/// * [`edges`](Self::edges) for a type precedes every
///   [`edge_property`](Self::edge_property) of that type **is not**
///   guaranteed — property columns whose last pipeline use comes earlier
///   can arrive before their edge table. Buffer per type (the manifest says
///   what to expect) if you need complete tables;
/// * every table named in the manifest is emitted exactly once.
///
/// In a sharded run (`manifest.shard.count > 1`) every table event carries
/// only the shard's row slice: row `i` of a delivered table is global row
/// `rows.start + i` of the announced window. [`node_count`](Self::node_count)
/// still reports the **full** instance count.
///
/// See the module-level documentation for a minimal custom sink.
pub trait GraphSink {
    /// Announce the run: called once, before any task executes.
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        let _ = manifest;
        Ok(())
    }

    /// Announce the global row window of `table` (a node or edge type)
    /// this run will deliver: the tables handed to later events for
    /// `table` hold rows `rows` of a `total`-row table. A full run
    /// announces `0..total`. Default: ignore.
    fn table_rows(&mut self, table: &str, rows: Range<u64>, total: u64) -> Result<(), SinkError> {
        let _ = (table, rows, total);
        Ok(())
    }

    /// A node type's instance count has been resolved. Default: ignore.
    fn node_count(&mut self, node_type: &str, count: u64) -> Result<(), SinkError> {
        let _ = (node_type, count);
        Ok(())
    }

    /// A node property column is final (no downstream task reads it).
    /// Default: drop the table.
    fn node_property(
        &mut self,
        node_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        let _ = (node_type, property, table);
        Ok(())
    }

    /// An edge table is final: matched into node-id space and no longer
    /// needed by the pipeline. Default: drop the table.
    fn edges(
        &mut self,
        edge_type: &str,
        source: &str,
        target: &str,
        table: EdgeTable,
    ) -> Result<(), SinkError> {
        let _ = (edge_type, source, target, table);
        Ok(())
    }

    /// An edge property column is final. Default: drop the table.
    fn edge_property(
        &mut self,
        edge_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        let _ = (edge_type, property, table);
        Ok(())
    }

    /// The run completed; flush and release resources.
    fn finish(&mut self) -> Result<(), SinkError> {
        Ok(())
    }

    /// Tables this sink *itself* produced beyond the schema's node/edge
    /// tables (e.g. an op log), reported after [`finish`](Self::finish) so
    /// the run manifest can carry their row windows and content hashes.
    /// Keys must not collide with schema type names — derived tables use a
    /// `$`-prefixed name (`"$ops"`), which no DSL identifier can spell.
    /// Default: none.
    fn contributed_tables(&mut self) -> Vec<(String, TableRows)> {
        Vec::new()
    }
}

/// Collects every event into a [`PropertyGraph`] — the sink behind
/// [`DataSynth::generate`](crate::DataSynth::generate).
#[derive(Debug, Default)]
pub struct InMemorySink {
    graph: PropertyGraph,
}

impl InMemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The graph assembled so far.
    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    /// Consume the sink, yielding the assembled graph.
    pub fn into_graph(self) -> PropertyGraph {
        self.graph
    }
}

impl GraphSink for InMemorySink {
    /// A `PropertyGraph` is a whole-graph artifact: assembling it from one
    /// shard's slices would pair full node counts with windowed columns
    /// (silently wrong reads), so partitioned runs are rejected up front —
    /// stream shards into export sinks instead.
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        if !manifest.shard.is_full() {
            return Err(SinkError::unsupported(format!(
                "InMemorySink assembles the full graph, not shard {}; \
                 use streaming sinks (CsvSink/JsonlSink or a custom GraphSink) \
                 for sharded runs",
                manifest.shard
            )));
        }
        if manifest.ops {
            return Err(SinkError::unsupported(
                "InMemorySink has no representation for operation logs; \
                 route op-log runs through a TemporalSink (datasynth-temporal) \
                 instead of silently dropping the update stream",
            ));
        }
        Ok(())
    }

    fn node_count(&mut self, node_type: &str, count: u64) -> Result<(), SinkError> {
        self.graph.add_node_type(node_type, count);
        Ok(())
    }

    fn node_property(
        &mut self,
        node_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.graph.insert_node_property(node_type, property, table);
        Ok(())
    }

    fn edges(
        &mut self,
        edge_type: &str,
        source: &str,
        target: &str,
        table: EdgeTable,
    ) -> Result<(), SinkError> {
        self.graph
            .insert_edge_table(edge_type, source, target, table);
        Ok(())
    }

    fn edge_property(
        &mut self,
        edge_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.graph.insert_edge_property(edge_type, property, table);
        Ok(())
    }
}

/// Fans every event out to several sinks, so one generation pass can feed
/// export, statistics and workload curation at once. Tables are cloned for
/// all sinks but the last, so order sinks cheapest-copy-first if that
/// matters.
#[derive(Default)]
pub struct MultiSink<'a> {
    sinks: Vec<&'a mut dyn GraphSink>,
}

impl<'a> MultiSink<'a> {
    /// An empty fan-out.
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Add a sink.
    pub fn push(&mut self, sink: &'a mut dyn GraphSink) {
        self.sinks.push(sink);
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, sink: &'a mut dyn GraphSink) -> Self {
        self.push(sink);
        self
    }

    /// Number of registered sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether no sinks are registered.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl GraphSink for MultiSink<'_> {
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        for sink in &mut self.sinks {
            sink.begin(manifest)?;
        }
        Ok(())
    }

    fn table_rows(&mut self, table: &str, rows: Range<u64>, total: u64) -> Result<(), SinkError> {
        for sink in &mut self.sinks {
            sink.table_rows(table, rows.clone(), total)?;
        }
        Ok(())
    }

    fn node_count(&mut self, node_type: &str, count: u64) -> Result<(), SinkError> {
        for sink in &mut self.sinks {
            sink.node_count(node_type, count)?;
        }
        Ok(())
    }

    fn node_property(
        &mut self,
        node_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        let (last, rest) = match self.sinks.split_last_mut() {
            Some(split) => split,
            None => return Ok(()),
        };
        for sink in rest {
            sink.node_property(node_type, property, table.clone())?;
        }
        last.node_property(node_type, property, table)
    }

    fn edges(
        &mut self,
        edge_type: &str,
        source: &str,
        target: &str,
        table: EdgeTable,
    ) -> Result<(), SinkError> {
        let (last, rest) = match self.sinks.split_last_mut() {
            Some(split) => split,
            None => return Ok(()),
        };
        for sink in rest {
            sink.edges(edge_type, source, target, table.clone())?;
        }
        last.edges(edge_type, source, target, table)
    }

    fn edge_property(
        &mut self,
        edge_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        let (last, rest) = match self.sinks.split_last_mut() {
            Some(split) => split,
            None => return Ok(()),
        };
        for sink in rest {
            sink.edge_property(edge_type, property, table.clone())?;
        }
        last.edge_property(edge_type, property, table)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        for sink in &mut self.sinks {
            sink.finish()?;
        }
        Ok(())
    }

    fn contributed_tables(&mut self) -> Vec<(String, TableRows)> {
        self.sinks
            .iter_mut()
            .flat_map(|s| s.contributed_tables())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    // These tests predate the split into `manifest` and `stream` and reach
    // both through the re-exports above; they stay under `sink::tests::*`,
    // the names the committed test floor knows them by. Newer tests sit
    // beside their code.
    use super::*;
    use datasynth_schema::parse_schema;
    use datasynth_tables::{Value, ValueType};
    use std::fs;

    fn manifest() -> SinkManifest {
        let schema = parse_schema(
            r#"graph g {
                node B [count = 2] { z: long = counter(); }
                node A [count = 1] { y: long = counter(); x: long = counter(); }
                edge e: A -> B [many_to_many] {
                    structure = erdos_renyi(p = 0.5);
                    w: long = counter();
                }
            }"#,
        )
        .unwrap();
        SinkManifest::from_schema(&schema, 7)
    }

    #[test]
    fn manifest_is_sorted_by_name() {
        let m = manifest();
        assert_eq!(
            m.nodes.iter().map(|n| n.name.as_str()).collect::<Vec<_>>(),
            vec!["A", "B"]
        );
        assert_eq!(
            m.nodes[0]
                .properties
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>(),
            vec!["x", "y"]
        );
        assert_eq!(m.edges[0].source, "A");
        assert_eq!(m.edges[0].target, "B");
    }

    #[test]
    fn ops_flag_roundtrips_json_and_gates_merge() {
        let m = manifest();
        // Absent by default — pre-op-log manifests keep their byte layout
        // and parse with ops = false.
        assert!(!m.to_json().contains("\"ops\""));
        assert!(!SinkManifest::from_json(&m.to_json()).unwrap().ops);
        let with_ops = manifest().with_ops(true);
        assert!(with_ops.to_json().contains("\"ops\": true"));
        assert!(SinkManifest::from_json(&with_ops.to_json()).unwrap().ops);
        // Op-log shards and snapshot-only shards never merge.
        let a = manifest().with_shard(ShardSpec::new(0, 2).unwrap());
        let b = manifest()
            .with_shard(ShardSpec::new(1, 2).unwrap())
            .with_ops(true);
        let err = SinkManifest::merge(&[a, b]).unwrap_err();
        assert!(err.to_string().contains("op-log"), "{err}");
    }

    #[test]
    fn in_memory_sink_rejects_op_log_runs() {
        let mut sink = InMemorySink::new();
        let err = sink.begin(&manifest().with_ops(true)).unwrap_err();
        assert!(
            matches!(err, SinkError::Unsupported(_)),
            "expected Unsupported, got {err}"
        );
        assert!(err.to_string().contains("TemporalSink"), "{err}");
    }

    #[test]
    fn multi_sink_fans_out_to_all() {
        let mut a = InMemorySink::new();
        let mut b = InMemorySink::new();
        {
            let mut multi = MultiSink::new().with(&mut a).with(&mut b);
            multi.node_count("T", 3).unwrap();
            multi
                .node_property(
                    "T",
                    "p",
                    PropertyTable::from_values(
                        "T.p",
                        ValueType::Long,
                        [1i64, 2, 3].map(Value::from),
                    )
                    .unwrap(),
                )
                .unwrap();
            multi.finish().unwrap();
        }
        assert_eq!(a.graph().node_count("T"), Some(3));
        assert_eq!(
            a.graph().node_property("T", "p"),
            b.graph().node_property("T", "p")
        );
    }

    #[test]
    fn streaming_sink_rejects_events_before_begin() {
        let mut sink = CsvSink::new(std::env::temp_dir().join("ds-sink-nobegin"));
        let err = sink.node_count("A", 1).unwrap_err();
        assert!(err.to_string().contains("begin"), "{err}");
    }

    #[test]
    fn streaming_sink_flushes_per_table_and_detects_incomplete() {
        let dir = std::env::temp_dir().join(format!("ds-sink-flush-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut sink = CsvSink::new(&dir);
        sink.begin(&manifest()).unwrap();
        sink.node_count("B", 2).unwrap();
        sink.node_property(
            "B",
            "z",
            PropertyTable::from_values("B.z", ValueType::Long, [0i64, 1].map(Value::from)).unwrap(),
        )
        .unwrap();
        // B is complete: its file must already exist, before any A event.
        assert!(dir.join("B.csv").exists());
        assert!(!dir.join("A.csv").exists());
        // A and e never complete: finish must fail and name them.
        let err = sink.finish().unwrap_err();
        assert!(
            err.to_string().contains('A') && err.to_string().contains('e'),
            "{err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
