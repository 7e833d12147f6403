//! How tables become bytes.
//!
//! The paper lists *"connectors for integrating the framework with
//! production-level technologies such as databases and cluster storages"*
//! among its requirements. We provide the two interchange formats everything
//! else can ingest — CSV directories and JSON-lines.
//!
//! There is one write path, and behind it one cell kernel. [`TableFormat`]
//! is the workspace's only csv/jsonl enum, and [`TableSlice`] is the only
//! way to turn one table — a row window of it, for sharded runs — into
//! bytes: [`TableSlice::new`] checks every column against the window,
//! [`TableSlice::write`] resolves each property column to its typed slice
//! once, picks the format once and runs that format's row loop (the
//! private `csv` / `jsonl` modules). Everything that emits a table goes
//! through it: [`export_dir`] (behind [`CsvExporter`] / [`JsonlExporter`])
//! replays an in-memory [`PropertyGraph`], and the streaming sinks in
//! `datasynth-core` (`CsvSink`, `JsonlSink`, `TableSink`) call it the
//! moment a table's last column arrives. [`ops::write_ops`] is the same
//! loop over the op log, which is not a table of columns.
//!
//! The private `cell` module is the one definition of a cell's text form:
//! integers, floats (std's `Display`), dates, CSV fields and JSON strings
//! are appended to a byte buffer, with no `Value`, no `String` and no
//! allocation per cell. What never changes from row to row — the CSV
//! header, every JSONL `"key":`, an edge table's `"source"`/`"target"` —
//! is escaped once per table. [`csv_escape`], [`json_escape`],
//! `Value::render` and `format_date` stay public as the reference the
//! tests hold the kernel to.
//!
//! Rows are formatted into one reused buffer and handed to the writer a
//! window of [`WINDOW_ROWS`] rows at a time: one `write_all` per window,
//! not per row, and memory bounded by a window, not by the table. The
//! window is a constant and not an option because it cannot reach the
//! bytes — windows are written back to back in row order — so there is
//! nothing for a caller to choose; it only has to be large enough to
//! amortise the call into the writer and small enough to stay in cache.
//! Disjoint row windows are also the unit a later change can format in
//! parallel.

mod cell;
mod csv;
mod jsonl;
pub mod ops;

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::Path;

use self::cell::Cells;
use crate::{EdgeTable, PropertyGraph, PropertyTable};

/// Rows formatted into the buffer between two hand-offs to the writer.
pub const WINDOW_ROWS: u64 = 1024;

/// The window loop behind every row writer: `push_row(buf, id)` appends
/// the bytes of row `id`; the buffer — which arrives holding the header,
/// if there is one — goes to `w` after every [`WINDOW_ROWS`] rows and is
/// reused for the next window.
fn write_windows<W: Write>(
    w: &mut W,
    mut buf: Vec<u8>,
    rows: Range<u64>,
    mut push_row: impl FnMut(&mut Vec<u8>, u64),
) -> io::Result<()> {
    let mut next = rows.start;
    loop {
        let end = rows.end.min(next.saturating_add(WINDOW_ROWS));
        for id in next..end {
            push_row(&mut buf, id);
        }
        w.write_all(&buf)?;
        buf.clear();
        next = end;
        if next >= rows.end {
            return Ok(());
        }
    }
}

/// The serialization of a table (or op log): the one csv/jsonl choice,
/// made at the edge by whoever opens the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableFormat {
    /// Comma-separated values with a header row.
    Csv,
    /// One JSON object per row; no header.
    Jsonl,
}

impl TableFormat {
    /// The file extension conventionally used for this format.
    pub fn extension(self) -> &'static str {
        match self {
            TableFormat::Csv => "csv",
            TableFormat::Jsonl => "jsonl",
        }
    }

    /// Parse a file extension or format keyword (`"csv"` / `"jsonl"`).
    pub fn from_extension(ext: &str) -> Option<Self> {
        match ext {
            "csv" => Some(TableFormat::Csv),
            "jsonl" => Some(TableFormat::Jsonl),
            _ => None,
        }
    }

    /// The MIME type a transport should label this format with.
    pub fn content_type(self) -> &'static str {
        match self {
            TableFormat::Csv => "text/csv; charset=utf-8",
            TableFormat::Jsonl => "application/x-ndjson",
        }
    }
}

/// A column whose length disagrees with its table's row window; displays
/// as a message naming the table and the column.
#[derive(Debug)]
pub struct ShapeError(String);

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ShapeError {}

impl From<ShapeError> for io::Error {
    fn from(e: ShapeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// What an edge table has and a node table lacks: the `(tail, head)`
/// pairs, and the endpoint type names JSONL rows carry.
#[derive(Debug, Clone, Copy)]
pub struct Endpoints<'a> {
    /// Source node type.
    pub source: &'a str,
    /// Target node type.
    pub target: &'a str,
    /// The endpoint pairs of the rows being written.
    pub table: &'a EdgeTable,
}

/// One table — or one shard's row window of it — checked and ready to be
/// written. [`new`](Self::new) is the only way in, so the row loops can
/// rely on every column holding exactly the window's rows.
#[derive(Debug)]
pub struct TableSlice<'a> {
    rows: Range<u64>,
    endpoints: Option<Endpoints<'a>>,
    props: &'a [(&'a str, &'a PropertyTable)],
}

impl<'a> TableSlice<'a> {
    /// The global rows `rows` of table `name`: a node table when
    /// `endpoints` is `None`, an edge table otherwise. `endpoints` and
    /// every column of `props` (in output column order) must hold exactly
    /// those rows — their row `0` is global row `rows.start`.
    pub fn new(
        name: &str,
        rows: Range<u64>,
        endpoints: Option<Endpoints<'a>>,
        props: &'a [(&'a str, &'a PropertyTable)],
    ) -> Result<Self, ShapeError> {
        let expected = rows.end - rows.start;
        let edge_len = endpoints.iter().map(|e| ("edge table", e.table.len()));
        let prop_lens = props.iter().map(|(prop, column)| (*prop, column.len()));
        for (what, len) in edge_len.chain(prop_lens) {
            if len != expected {
                return Err(ShapeError(format!(
                    "{name}: {what} has {len} rows but the announced window \
                     {}..{} holds {expected}",
                    rows.start, rows.end
                )));
            }
        }
        Ok(TableSlice {
            rows,
            endpoints,
            props,
        })
    }

    /// Write the rows into `w` in `format`. `write_header` asks for the
    /// CSV header line (JSONL has none); a sharded run passes it for shard
    /// 0 only, so the shards' outputs concatenate to the full table's.
    pub fn write<W: Write>(
        &self,
        w: &mut W,
        format: TableFormat,
        write_header: bool,
    ) -> io::Result<()> {
        let rows = self.rows.clone();
        let columns: Vec<(&str, Cells<'_>)> = self
            .props
            .iter()
            .map(|(name, table)| (*name, Cells::from(table.column())))
            .collect();
        match format {
            TableFormat::Csv => {
                let edges = self.endpoints.map(|e| e.table);
                csv::write_table(w, write_header, rows, edges, &columns)
            }
            TableFormat::Jsonl => jsonl::write_table(w, rows, self.endpoints, &columns),
        }
    }
}

/// Write every table of `graph` as `<type>.<ext>` under `dir` (created if
/// missing) by replaying it through [`TableSlice`].
pub fn export_dir(graph: &PropertyGraph, dir: &Path, format: TableFormat) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let write_file = |name: &str, table: TableSlice<'_>| {
        let path = dir.join(format!("{name}.{}", format.extension()));
        let mut w = BufWriter::new(File::create(path)?);
        table.write(&mut w, format, true)?;
        w.flush()
    };
    for (node_type, count) in graph.node_types() {
        let props: Vec<_> = graph.node_properties_of(node_type).collect();
        let slice = TableSlice::new(node_type, 0..count, None, &props)?;
        write_file(node_type, slice)?;
    }
    for (edge_type, meta, table) in graph.edge_types() {
        let props: Vec<_> = graph.edge_properties_of(edge_type).collect();
        let endpoints = Some(Endpoints {
            source: &meta.source,
            target: &meta.target,
            table,
        });
        let slice = TableSlice::new(edge_type, 0..table.len(), endpoints, &props)?;
        write_file(edge_type, slice)?;
    }
    Ok(())
}

/// A sink that persists a whole property graph.
pub trait Exporter {
    /// Write `graph` under directory `dir` (created if missing).
    fn export(&self, graph: &PropertyGraph, dir: &Path) -> io::Result<()>;
}

/// CSV directory export: one wide `<type>.csv` per node type (`id` + all
/// properties) and one per edge type (`id,tail,head` + all properties).
#[derive(Debug, Clone, Copy, Default)]
pub struct CsvExporter;

impl Exporter for CsvExporter {
    fn export(&self, graph: &PropertyGraph, dir: &Path) -> io::Result<()> {
        export_dir(graph, dir, TableFormat::Csv)
    }
}

/// JSONL export: `<type>.jsonl` per node and edge type; each line is a
/// self-contained JSON object.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonlExporter;

impl Exporter for JsonlExporter {
    fn export(&self, graph: &PropertyGraph, dir: &Path) -> io::Result<()> {
        export_dir(graph, dir, TableFormat::Jsonl)
    }
}

/// Escape a CSV field per RFC 4180 (quote when it contains separators).
/// Public so tests and custom sinks can verify round-trips against one
/// canonical implementation.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        field.to_owned()
    }
}

/// Escape a JSON string body (without surrounding quotes): the
/// workspace's one escaper, re-exported so emitters of hand-rolled JSON
/// (the workload manifest, the lint report) reach it beside `csv_escape`.
pub use datasynth_telemetry::json::escape as json_escape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escape_passthrough_and_quoting() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn json_escape_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
