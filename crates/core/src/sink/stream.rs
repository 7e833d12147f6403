//! The sinks that write bytes: [`CsvSink`] / [`JsonlSink`] (one file per
//! table in a directory) and [`TableSink`] (one table into any `Write`).
//!
//! Both are bookkeeping around one [`PendingTable`] per table: collect the
//! pieces the run delivers, and the moment the last one arrives hand the
//! complete table to a [`TableSlice`] and free it. Peak memory is the
//! largest set of concurrently-incomplete tables, not the whole graph.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

use datasynth_tables::export::{Endpoints, TableFormat, TableSlice};
use datasynth_tables::{EdgeTable, PropertyTable};
use datasynth_telemetry::{CountingWrite, MetricsRegistry};

use super::{GraphSink, PropertyInfo, ShardSpec, SinkError, SinkManifest};

/// One delivery to a [`PendingTable`].
enum Piece {
    /// A node table's instance count — what its `id` column is made of.
    Count(u64),
    /// An edge table's endpoint pairs — its `tail,head` columns.
    Edges(EdgeTable),
    /// A property column.
    Column(PropertyTable),
}

/// One table between `begin` and its flush: what the manifest says to
/// expect, and what has arrived so far.
#[derive(Debug)]
struct PendingTable {
    name: String,
    /// `(source, target)` type names of an edge table; `None` for a node
    /// table.
    edge_of: Option<(String, String)>,
    /// Names of the property columns, in output order.
    expected: Vec<String>,
    /// Global row window announced via `table_rows`.
    window: Option<Range<u64>>,
    /// Rows the delivered count / edge table spans: the window of drivers
    /// that never announce one (a full run through a hand-rolled driver).
    len: Option<u64>,
    edges: Option<EdgeTable>,
    /// The column of each `expected` name, once delivered.
    props: Vec<Option<PropertyTable>>,
    /// Rows written; `Some` once the table has been flushed.
    flushed: Option<u64>,
}

impl PendingTable {
    fn new(name: &str, edge_of: Option<(&str, &str)>, properties: &[PropertyInfo]) -> Self {
        PendingTable {
            name: name.to_owned(),
            edge_of: edge_of.map(|(s, t)| (s.to_owned(), t.to_owned())),
            expected: properties.iter().map(|p| p.name.clone()).collect(),
            window: None,
            len: None,
            edges: None,
            props: properties.iter().map(|_| None).collect(),
            flushed: None,
        }
    }

    /// Every table `manifest` announces: node tables, then edge tables.
    fn all(manifest: &SinkManifest) -> impl Iterator<Item = PendingTable> + '_ {
        let nodes = manifest
            .nodes
            .iter()
            .map(|n| PendingTable::new(&n.name, None, &n.properties));
        let edges = manifest
            .edges
            .iter()
            .map(|e| PendingTable::new(&e.name, Some((&e.source, &e.target)), &e.properties));
        nodes.chain(edges)
    }

    fn is_edge(&self) -> bool {
        self.edge_of.is_some()
    }

    /// Take delivery of `column` (`id` for the count, `tail,head` for the
    /// edge table, else the property name). Each column is due exactly
    /// once, before the flush: a repeat would otherwise sit in memory
    /// unwritten until the sink is dropped, with no error to show for it.
    fn offer(&mut self, column: &str, piece: Piece) -> Result<(), SinkError> {
        let name = &self.name;
        if self.flushed.is_some() {
            return Err(SinkError::invalid(format!(
                "{name}.{column} delivered after the table was flushed"
            )));
        }
        let first = match piece {
            Piece::Count(count) => self.len.replace(count).is_none(),
            Piece::Edges(table) => {
                self.len = Some(table.len());
                self.edges.replace(table).is_none()
            }
            Piece::Column(table) => {
                let Some(slot) = self.expected.iter().position(|p| p == column) else {
                    return Err(SinkError::invalid(format!(
                        "property {name}.{column} not in the manifest"
                    )));
                };
                self.props[slot].replace(table).is_none()
            }
        };
        if !first {
            return Err(SinkError::invalid(format!(
                "{name}.{column} delivered twice"
            )));
        }
        Ok(())
    }

    /// If every expected piece has arrived: open the output, write the
    /// table (header per [`ShardSpec::writes_header`]), flush, free the
    /// columns, and return the writer with the row count. `None` while
    /// the table is incomplete.
    fn flush_if_complete<W: Write>(
        &mut self,
        format: TableFormat,
        shard: ShardSpec,
        open: impl FnOnce() -> io::Result<W>,
    ) -> Result<Option<(W, u64)>, SinkError> {
        let columns = self.expected.iter().zip(&self.props);
        let props: Option<Vec<(&str, &PropertyTable)>> = columns
            .map(|(name, column)| Some((name.as_str(), column.as_ref()?)))
            .collect();
        // Complete: not yet written, count / edge table in, every column in.
        let (None, Some(len), Some(props)) = (self.flushed, self.len, props) else {
            return Ok(None);
        };
        let rows = self.window.clone().unwrap_or(0..len);
        let written = rows.end - rows.start;
        let endpoints = match (&self.edge_of, &self.edges) {
            (Some((source, target)), Some(table)) => Some(Endpoints {
                source,
                target,
                table,
            }),
            _ => None,
        };
        let table =
            TableSlice::new(&self.name, rows, endpoints, &props).map_err(SinkError::invalid)?;
        let mut w = open()?;
        table.write(&mut w, format, shard.writes_header(format))?;
        w.flush()?;
        self.flushed = Some(written);
        self.props.clear();
        self.edges = None;
        Ok(Some((w, written)))
    }
}

/// Streaming directory export: one `<type>.<ext>` per node and edge type,
/// each written the moment its last column arrives, byte-identical to the
/// whole-graph exporters of `datasynth_tables::export` on the same data.
/// `JSONL` picks the format at the type level, so that [`CsvSink`] and
/// [`JsonlSink`] — and their `new`s — are two names for one implementation.
///
/// In a sharded run each file holds only the shard's row window (global
/// ids preserved), and the CSV header is written by shard 0 alone — so
/// concatenating the shards' files in shard order is byte-identical to the
/// file a full run writes.
#[derive(Debug)]
pub struct DirSink<const JSONL: bool> {
    dir: PathBuf,
    started: bool,
    shard: ShardSpec,
    tables: BTreeMap<String, PendingTable>,
    metrics: Option<Arc<MetricsRegistry>>,
}

/// Streaming CSV export: [`DirSink`] writing `<type>.csv` files.
pub type CsvSink = DirSink<false>;

/// Streaming JSON-lines export: [`DirSink`] writing `<type>.jsonl` files.
pub type JsonlSink = DirSink<true>;

impl<const JSONL: bool> DirSink<JSONL> {
    const FORMAT: TableFormat = if JSONL {
        TableFormat::Jsonl
    } else {
        TableFormat::Csv
    };

    /// Stream files into `dir` (created on [`GraphSink::begin`]).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            started: false,
            shard: ShardSpec::default(),
            tables: BTreeMap::new(),
            metrics: None,
        }
    }

    /// Meter this sink: record per-table `datasynth_sink_bytes_total` /
    /// `datasynth_sink_rows_total` counters into `metrics` at each table
    /// flush — one counter add per *file*, nothing per row. Share the
    /// registry with [`Session::with_metrics`](crate::Session::with_metrics)
    /// and the run's [`RunReport`](crate::RunReport) reports the byte
    /// counts.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn check_started(&self) -> Result<(), SinkError> {
        if !self.started {
            return Err(SinkError::invalid(
                "streaming sink received an event before begin(); \
                 drive it through Session::run_into",
            ));
        }
        Ok(())
    }

    /// Hand `piece` to table `name` and write its file if that completed it.
    fn deliver(
        &mut self,
        name: &str,
        is_edge: bool,
        column: &str,
        piece: Piece,
    ) -> Result<(), SinkError> {
        self.check_started()?;
        let table = self
            .tables
            .get_mut(name)
            .filter(|t| t.is_edge() == is_edge)
            .ok_or_else(|| {
                let kind = if is_edge { "edge" } else { "node" };
                SinkError::invalid(format!("{kind} type {name:?} not in the manifest"))
            })?;
        table.offer(column, piece)?;
        let open = || {
            let file = format!("{name}.{}", Self::FORMAT.extension());
            Ok(BufWriter::new(CountingWrite::new(File::create(
                self.dir.join(file),
            )?)))
        };
        if let Some((w, rows)) = table.flush_if_complete(Self::FORMAT, self.shard, open)? {
            if let Some(metrics) = &self.metrics {
                metrics
                    .counter_with("datasynth_sink_bytes_total", Some(("table", name)))
                    .add(w.get_ref().bytes());
                metrics
                    .counter_with("datasynth_sink_rows_total", Some(("table", name)))
                    .add(rows);
            }
        }
        Ok(())
    }
}

impl<const JSONL: bool> GraphSink for DirSink<JSONL> {
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        fs::create_dir_all(&self.dir)?;
        self.tables = PendingTable::all(manifest)
            .map(|t| (t.name.clone(), t))
            .collect();
        self.shard = manifest.shard;
        self.started = true;
        Ok(())
    }

    fn table_rows(&mut self, table: &str, rows: Range<u64>, _total: u64) -> Result<(), SinkError> {
        self.check_started()?;
        if let Some(t) = self.tables.get_mut(table) {
            t.window = Some(rows);
        }
        Ok(())
    }

    fn node_count(&mut self, node_type: &str, count: u64) -> Result<(), SinkError> {
        self.deliver(node_type, false, "id", Piece::Count(count))
    }

    fn node_property(
        &mut self,
        node_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.deliver(node_type, false, property, Piece::Column(table))
    }

    fn edges(
        &mut self,
        edge_type: &str,
        _source: &str,
        _target: &str,
        table: EdgeTable,
    ) -> Result<(), SinkError> {
        self.deliver(edge_type, true, "tail,head", Piece::Edges(table))
    }

    fn edge_property(
        &mut self,
        edge_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.deliver(edge_type, true, property, Piece::Column(table))
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        let mut unwritten: Vec<&PendingTable> = self
            .tables
            .values()
            .filter(|t| t.flushed.is_none())
            .collect();
        if unwritten.is_empty() {
            return Ok(());
        }
        // Node tables first, as the manifest lists them.
        unwritten.sort_by_key(|t| t.is_edge());
        let names: Vec<&str> = unwritten.iter().map(|t| t.name.as_str()).collect();
        Err(SinkError::invalid(format!(
            "run finished with incomplete tables: {}",
            names.join(", ")
        )))
    }
}

/// A [`GraphSink`] that extracts **one table** of a run into any
/// [`Write`] — the bridge a network service uses to stream a single node
/// or edge file without touching disk.
///
/// Only the target table's columns are buffered; every other event is
/// dropped on arrival, so peak memory is one table regardless of graph
/// size. The table is flushed by the same routine the directory sinks use —
/// including the shard-0-only CSV header rule — so the byte stream is
/// identical to the file a [`CsvSink`] / [`JsonlSink`] run writes for that
/// table, and concatenating per-shard streams in shard order reproduces
/// the full table exactly.
///
/// `begin` rejects a table name absent from the manifest; `finish`
/// rejects a run that ended without completing the table. A write error
/// from `W` aborts the run ([`SinkError::Io`]) — how client disconnects
/// propagate back into and stop the generator.
pub struct TableSink<W: Write> {
    table: String,
    format: TableFormat,
    writer: W,
    shard: ShardSpec,
    pending: Option<PendingTable>,
}

impl<W: Write> TableSink<W> {
    /// Stream table `table` in `format` into `writer`.
    pub fn new(table: impl Into<String>, format: TableFormat, writer: W) -> Self {
        Self {
            table: table.into(),
            format,
            writer,
            shard: ShardSpec::default(),
            pending: None,
        }
    }

    /// Rows emitted for the table so far (`0` until its flush).
    pub fn rows_written(&self) -> u64 {
        self.flushed().unwrap_or(0)
    }

    /// The underlying writer, back.
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn flushed(&self) -> Option<u64> {
        self.pending.as_ref().and_then(|t| t.flushed)
    }

    /// Hand `piece` to the table if `name` is it (and of the right kind),
    /// and write it out if that completed it; drop everything else.
    fn deliver(
        &mut self,
        name: &str,
        is_edge: bool,
        column: &str,
        piece: Piece,
    ) -> Result<(), SinkError> {
        let pending = self.pending.as_mut();
        let Some(table) = pending.filter(|t| t.name == name && t.is_edge() == is_edge) else {
            return Ok(());
        };
        table.offer(column, piece)?;
        table.flush_if_complete(self.format, self.shard, || Ok(&mut self.writer))?;
        Ok(())
    }
}

impl<W: Write> GraphSink for TableSink<W> {
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        self.shard = manifest.shard;
        self.pending = PendingTable::all(manifest).find(|t| t.name == self.table);
        if self.pending.is_none() {
            return Err(SinkError::invalid(format!(
                "table {:?} is not in the manifest",
                self.table
            )));
        }
        Ok(())
    }

    fn table_rows(&mut self, table: &str, rows: Range<u64>, _total: u64) -> Result<(), SinkError> {
        if let Some(t) = self.pending.as_mut().filter(|t| t.name == table) {
            t.window = Some(rows);
        }
        Ok(())
    }

    fn node_count(&mut self, node_type: &str, count: u64) -> Result<(), SinkError> {
        self.deliver(node_type, false, "id", Piece::Count(count))
    }

    fn node_property(
        &mut self,
        node_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.deliver(node_type, false, property, Piece::Column(table))
    }

    fn edges(
        &mut self,
        edge_type: &str,
        _source: &str,
        _target: &str,
        table: EdgeTable,
    ) -> Result<(), SinkError> {
        self.deliver(edge_type, true, "tail,head", Piece::Edges(table))
    }

    fn edge_property(
        &mut self,
        edge_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.deliver(edge_type, true, property, Piece::Column(table))
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        if self.flushed().is_none() {
            return Err(SinkError::invalid(format!(
                "run finished without completing table {:?}",
                self.table
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_schema::parse_schema;
    use datasynth_tables::export::{CsvExporter, Exporter, JsonlExporter};
    use datasynth_tables::{PropertyGraph, Value, ValueType};

    fn manifest() -> SinkManifest {
        let schema = parse_schema(
            r#"graph g {
                node A [count = 2] { x: long = counter(); }
                edge e: A -> A [many_to_many] {
                    structure = erdos_renyi(p = 0.5);
                    w: long = counter();
                }
            }"#,
        )
        .unwrap();
        SinkManifest::from_schema(&schema, 7)
    }

    fn longs(name: &str, n: i64) -> PropertyTable {
        PropertyTable::from_values(name, ValueType::Long, (0..n).map(Value::from)).unwrap()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ds-stream-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    type Event<'a> = &'a dyn Fn(&mut dyn GraphSink) -> Result<(), SinkError>;

    /// `begin` the sink, replay `events`, and return the message of the
    /// `SinkError::Invalid` that stops the replay.
    fn first_error(sink: &mut dyn GraphSink, events: &[Event]) -> String {
        sink.begin(&manifest()).unwrap();
        for event in events {
            if let Err(e) = event(sink) {
                assert!(matches!(e, SinkError::Invalid(_)), "{e:?}");
                return e.to_string();
            }
        }
        panic!("no event was rejected");
    }

    #[test]
    fn double_delivery_is_rejected_before_and_after_flush() {
        let dir = scratch("twice");
        let count: Event = &|s| s.node_count("A", 2);
        let x: Event = &|s| s.node_property("A", "x", longs("A.x", 2));
        let w: Event = &|s| s.edge_property("e", "w", longs("e.w", 2));
        let pairs: Event = &|s| {
            s.edges(
                "e",
                "A",
                "A",
                EdgeTable::from_pairs("e", [(0u64, 1u64), (1, 0)]),
            )
        };
        // (table, events of which the last must be rejected, message)
        let cases: [(&str, &[Event], &str); 4] = [
            ("e", &[w, w], "e.w delivered twice"),
            (
                "A",
                &[count, x, x],
                "A.x delivered after the table was flushed",
            ),
            (
                "A",
                &[count, x, count],
                "A.id delivered after the table was flushed",
            ),
            (
                "e",
                &[w, pairs, pairs],
                "e.tail,head delivered after the table was flushed",
            ),
        ];
        for (table, events, want) in cases {
            assert_eq!(first_error(&mut CsvSink::new(&dir), events), want);
            let mut single = TableSink::new(table, TableFormat::Jsonl, Vec::new());
            assert_eq!(first_error(&mut single, events), want);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn length_mismatch_is_the_same_error_on_every_path() {
        let dir = scratch("len");
        let want = "A: x has 3 rows but the announced window 0..2 holds 2";
        let events: [Event; 3] = [
            &|s| s.table_rows("A", 0..2, 2),
            &|s| s.node_count("A", 2),
            &|s| s.node_property("A", "x", longs("A.x", 3)),
        ];
        assert_eq!(first_error(&mut CsvSink::new(&dir), &events), want);
        assert_eq!(first_error(&mut JsonlSink::new(&dir), &events), want);
        for format in [TableFormat::Csv, TableFormat::Jsonl] {
            let mut single = TableSink::new("A", format, Vec::new());
            assert_eq!(first_error(&mut single, &events), want);
        }
        // The exporters replay a graph through the same writer.
        let mut graph = PropertyGraph::new();
        graph.add_node_type("A", 2);
        graph.insert_node_property("A", "x", longs("A.x", 3));
        let exporters: [&dyn Exporter; 2] = [&CsvExporter, &JsonlExporter];
        for exporter in exporters {
            let err = exporter.export(&graph, &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), want);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
