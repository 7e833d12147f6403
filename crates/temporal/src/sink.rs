//! The op-log sink.

use std::io::Write;
use std::ops::Range;
use std::sync::Arc;

use datasynth_core::{GraphSink, ShardSpec, SinkError, SinkManifest, TableRows};
use datasynth_prng::{fnv1a_64, mix64};
use datasynth_schema::{Schema, TemporalDef};
use datasynth_tables::export::ops::{write_ops, OpRow};
use datasynth_tables::export::TableFormat;
use datasynth_telemetry::{CountingWrite, MetricsRegistry};

use crate::{OpKind, TypeClock};

/// Serialization format of the op log: the workspace's one csv/jsonl
/// enum. CSV logs carry an `op,ts,kind,table,row` header.
pub type OpsFormat = TableFormat;

/// The conventional op-log file name for `format` (`ops.csv` /
/// `ops.jsonl`).
pub fn ops_file_name(format: OpsFormat) -> String {
    format!("ops.{}", format.extension())
}

/// Every [`OpKind`], at the index of its [`rank`](OpKind::rank).
const KINDS_BY_RANK: [OpKind; 4] = [
    OpKind::InsertNode,
    OpKind::InsertEdge,
    OpKind::DeleteEdge,
    OpKind::DeleteNode,
];

/// One temporal table: its position in the global tie-break order, its
/// clock, and what the run reported about it.
struct TemporalTable {
    name: String,
    def: TemporalDef,
    insert_kind: OpKind,
    delete_kind: OpKind,
    total: Option<u64>,
}

/// A [`GraphSink`] that writes the run's operation log: every insert (and,
/// for types with a `lifetime` clause, every delete) of every
/// temporally-annotated row, globally ordered by `(ts, kind, table, row)`.
///
/// The log references snapshot rows by `(table, row)` — values live in the
/// snapshot. Each shard independently reconstructs the *complete* global
/// op sequence from the table totals announced via
/// [`table_rows`](GraphSink::table_rows) (totals are global even under
/// sharding) and emits only its [`ShardSpec::window`] of op indices, so
/// concatenating shard files in index order is byte-identical to a full
/// run, at any thread count.
///
/// Requires a session that opted in via `Session::with_ops(true)` — a run
/// whose manifest does not announce ops is rejected at `begin`, because a
/// snapshot-only manifest means no other sink (or merge validation) would
/// account for the log.
pub struct TemporalSink<W: Write> {
    out: W,
    format: OpsFormat,
    tables: Vec<TemporalTable>,
    seed: u64,
    shard: ShardSpec,
    began: bool,
    window: Option<TableRows>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<W: Write> TemporalSink<W> {
    /// Build the sink for `schema`, writing the log to `out`.
    ///
    /// Fails fast if the schema has no `temporal` annotations or if any
    /// annotation's generators cannot serve as a clock (wrong value type,
    /// unknown generator) — the same checks a real run would hit, but
    /// before any generation work is spent.
    pub fn new(schema: &Schema, out: W, format: OpsFormat) -> Result<Self, SinkError> {
        if !schema.has_temporal() {
            return Err(SinkError::invalid(
                "schema has no temporal annotations: add `temporal { arrival = ...; }` \
                 blocks to the node/edge types that should appear in the op log",
            ));
        }
        let mut tables = Vec::new();
        let nodes = schema
            .nodes
            .iter()
            .map(|n| (&n.name, &n.temporal, OpKind::InsertNode, OpKind::DeleteNode));
        let edges = schema
            .edges
            .iter()
            .map(|e| (&e.name, &e.temporal, OpKind::InsertEdge, OpKind::DeleteEdge));
        for (name, temporal, insert_kind, delete_kind) in nodes.chain(edges) {
            let Some(def) = temporal else { continue };
            // Probe-build the clock now so misconfigured generators fail
            // at construction, not mid-run.
            TypeClock::new(0, name, def)?;
            tables.push(TemporalTable {
                name: name.clone(),
                def: def.clone(),
                insert_kind,
                delete_kind,
                total: None,
            });
        }
        Ok(TemporalSink {
            out,
            format,
            tables,
            seed: 0,
            shard: ShardSpec::default(),
            began: false,
            window: None,
            metrics: None,
        })
    }

    /// Meter this sink: record `datasynth_ops_total{kind}` plus per-table
    /// row/byte counters for the `$ops` table into `metrics` at finish.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Recover the writer (e.g. the `Vec<u8>` holding an in-memory log).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> GraphSink for TemporalSink<W> {
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        if !manifest.ops {
            return Err(SinkError::invalid(
                "TemporalSink requires an op-log run: opt in with Session::with_ops(true) \
                 so the manifest announces the stream to every sink",
            ));
        }
        self.seed = manifest.seed;
        self.shard = manifest.shard;
        self.began = true;
        Ok(())
    }

    fn table_rows(&mut self, table: &str, _rows: Range<u64>, total: u64) -> Result<(), SinkError> {
        if let Some(t) = self.tables.iter_mut().find(|t| t.name == table) {
            t.total = Some(total);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        if !self.began {
            return Err(SinkError::invalid("TemporalSink: finish before begin"));
        }
        // Reconstruct the complete global op sequence. Sort keys only —
        // (ts, kind rank, table index, row) — so the order is a pure
        // function of (seed, schema, totals), never of sharding.
        let mut ops: Vec<(i64, u8, u32, u64)> = Vec::new();
        for (idx, t) in self.tables.iter().enumerate() {
            let total = t.total.ok_or_else(|| {
                SinkError::invalid(format!(
                    "TemporalSink: no table_rows event for temporal table {:?}",
                    t.name
                ))
            })?;
            let clock = TypeClock::new(self.seed, &t.name, &t.def)?;
            for row in 0..total {
                ops.push((clock.insert_ts(row)?, t.insert_kind.rank(), idx as u32, row));
                if let Some(ts) = clock.delete_ts(row)? {
                    ops.push((ts, t.delete_kind.rank(), idx as u32, row));
                }
            }
        }
        ops.sort_unstable();

        let total_ops = ops.len() as u64;
        let window = self.shard.window(total_ops);
        let mut content_hash = 0u64;
        let mut kind_counts = [0u64; KINDS_BY_RANK.len()];
        let mut hash_scratch = Vec::new();
        let mut out = CountingWrite::new(&mut self.out);
        let tables = &self.tables;
        let write_header = self.shard.writes_header(self.format);
        write_ops(&mut out, self.format, write_header, window.clone(), |op| {
            let (ts, rank, table_idx, row) = ops[op as usize];
            kind_counts[usize::from(rank)] += 1;
            let op = OpRow {
                op,
                ts,
                kind: KINDS_BY_RANK[usize::from(rank)].keyword(),
                table: &tables[table_idx as usize].name,
                row,
            };
            content_hash = content_hash.wrapping_add(op_hash(&mut hash_scratch, &op));
            op
        })
        .and_then(|()| out.flush())
        .map_err(SinkError::Io)?;
        let bytes = out.bytes();
        self.window = Some(TableRows {
            lo: window.start,
            hi: window.end,
            total: total_ops,
            content_hash,
        });
        if let Some(metrics) = &self.metrics {
            let counted = KINDS_BY_RANK.iter().zip(kind_counts);
            for (kind, count) in counted.filter(|(_, count)| *count > 0) {
                metrics
                    .counter_with("datasynth_ops_total", Some(("kind", kind.keyword())))
                    .add(count);
            }
            metrics
                .counter_with("datasynth_sink_rows_total", Some(("table", "$ops")))
                .add(window.end - window.start);
            metrics
                .counter_with("datasynth_sink_bytes_total", Some(("table", "$ops")))
                .add(bytes);
        }
        Ok(())
    }

    fn contributed_tables(&mut self) -> Vec<(String, TableRows)> {
        match self.window {
            Some(rows) => vec![("$ops".to_owned(), rows)],
            None => Vec::new(),
        }
    }
}

/// Order-independent commitment to one op's *logical* identity (format
/// agnostic: a CSV run and a JSONL run of the same graph hash alike).
/// Shard hashes sum (wrapping) to the full-log hash, exactly like the
/// snapshot tables' cell hashes under `SinkManifest::merge`.
fn op_hash(bytes: &mut Vec<u8>, op: &OpRow<'_>) -> u64 {
    bytes.clear();
    bytes.extend_from_slice(&op.op.to_le_bytes());
    bytes.extend_from_slice(&op.ts.to_le_bytes());
    bytes.extend_from_slice(op.kind.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(op.table.as_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&op.row.to_le_bytes());
    mix64(fnv1a_64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_schema::parse_schema;

    fn schema() -> Schema {
        parse_schema(
            r#"graph g {
                node Person [count = 40] {
                    name: text = first_names();
                    temporal { arrival = date_between("2010-01-01", "2012-01-01"); }
                }
                node Tag [count = 5] { id: long = counter(); }
                edge knows: Person -- Person {
                    structure = erdos_renyi(p = 0.1);
                    temporal {
                        arrival = date_between("2010-06-01", "2012-06-01");
                        lifetime = uniform(0, 300);
                    }
                }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn kinds_are_listed_by_rank() {
        for (rank, kind) in KINDS_BY_RANK.iter().enumerate() {
            assert_eq!(usize::from(kind.rank()), rank);
        }
    }

    #[test]
    fn sink_requires_temporal_annotations_and_ops_manifests() {
        let plain =
            parse_schema("graph g { node A [count = 1] { x: long = counter(); } }").unwrap();
        let err = TemporalSink::new(&plain, Vec::new(), OpsFormat::Csv)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("temporal"), "{err}");

        let mut sink = TemporalSink::new(&schema(), Vec::new(), OpsFormat::Csv).unwrap();
        let manifest = SinkManifest::from_schema(&schema(), 1);
        let err = sink.begin(&manifest).unwrap_err();
        assert!(err.to_string().contains("with_ops"), "{err}");
        assert!(sink.begin(&manifest.with_ops(true)).is_ok());
    }

    #[test]
    fn log_is_ordered_and_deletes_follow_inserts() {
        let mut out = Vec::new();
        {
            let mut sink = TemporalSink::new(&schema(), &mut out, OpsFormat::Csv).unwrap();
            sink.begin(&SinkManifest::from_schema(&schema(), 9).with_ops(true))
                .unwrap();
            sink.table_rows("Person", 0..40, 40).unwrap();
            sink.table_rows("Tag", 0..5, 5).unwrap();
            sink.table_rows("knows", 0..30, 30).unwrap();
            sink.finish().unwrap();
            let contributed = sink.contributed_tables();
            assert_eq!(contributed.len(), 1);
            assert_eq!(contributed[0].0, "$ops");
            // 40 Person inserts + 30 knows inserts + 30 knows deletes.
            assert_eq!(contributed[0].1.total, 100);
        }
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("op,ts,kind,table,row"));
        let mut last_ts = String::new();
        let mut inserted = std::collections::BTreeMap::new();
        for (i, line) in lines.enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields[0].parse::<usize>().unwrap(), i);
            assert!(fields[1] >= last_ts.as_str(), "ts went backwards: {line}");
            last_ts = fields[1].to_owned();
            match fields[2] {
                "INSERT_NODE" | "INSERT_EDGE" => {
                    inserted.insert(
                        (fields[3].to_owned(), fields[4].to_owned()),
                        last_ts.clone(),
                    );
                }
                "DELETE_EDGE" | "DELETE_NODE" => {
                    let at = inserted
                        .get(&(fields[3].to_owned(), fields[4].to_owned()))
                        .expect("delete before insert");
                    assert!(last_ts.as_str() > at.as_str(), "delete not after insert");
                }
                other => panic!("unknown kind {other}"),
            }
            // Tag has no temporal block: it must never appear.
            assert_ne!(fields[3], "Tag");
        }
    }

    #[test]
    fn shard_windows_tile_the_full_log() {
        let run = |index: u64, count: u64, format: OpsFormat| {
            let mut out = Vec::new();
            let mut sink = TemporalSink::new(&schema(), &mut out, format).unwrap();
            let manifest = SinkManifest::from_schema(&schema(), 5)
                .with_shard(ShardSpec::new(index, count).unwrap())
                .with_ops(true);
            sink.begin(&manifest).unwrap();
            // Totals are global regardless of the shard.
            sink.table_rows("Person", 0..0, 40).unwrap();
            sink.table_rows("knows", 0..0, 25).unwrap();
            sink.finish().unwrap();
            let rows = sink.contributed_tables().remove(0).1;
            (out, rows)
        };
        for format in [OpsFormat::Csv, OpsFormat::Jsonl] {
            let (full, full_rows) = run(0, 1, format);
            for k in [2u64, 3] {
                let mut cat = Vec::new();
                let mut hash_sum = 0u64;
                for i in 0..k {
                    let (part, rows) = run(i, k, format);
                    cat.extend_from_slice(&part);
                    hash_sum = hash_sum.wrapping_add(rows.content_hash);
                    assert_eq!(rows.total, full_rows.total);
                }
                assert_eq!(cat, full, "{format:?} k={k} concat differs");
                assert_eq!(hash_sum, full_rows.content_hash, "hashes must sum");
            }
        }
        // Format choice never changes the logical content hash.
        assert_eq!(run(0, 1, OpsFormat::Csv).1, run(0, 1, OpsFormat::Jsonl).1);
    }
}
