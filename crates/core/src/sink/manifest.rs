//! What a run announces and reports: [`ShardSpec`], the per-table
//! [`TableRows`] windows, and the [`SinkManifest`] with its JSON encoding,
//! shard [`merge`](SinkManifest::merge) and the content-hash helpers the
//! runner feeds it with.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::ops::Range;

use datasynth_prng::{fnv1a_64, mix64};
use datasynth_schema::Schema;
use datasynth_structure::shard_window;
use datasynth_tables::export::TableFormat;
use datasynth_tables::{Column, EdgeTable, PropertyTable, ValueType};
use datasynth_telemetry::json::{self, Json};

use super::SinkError;

/// One property column a sink should expect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyInfo {
    /// Property name.
    pub name: String,
    /// Column type.
    pub value_type: ValueType,
}

/// One node table a sink should expect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTableInfo {
    /// Node type name.
    pub name: String,
    /// Properties in emission (name) order.
    pub properties: Vec<PropertyInfo>,
}

/// One edge table a sink should expect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeTableInfo {
    /// Edge type name.
    pub name: String,
    /// Source node type.
    pub source: String,
    /// Target node type.
    pub target: String,
    /// Properties in emission (name) order.
    pub properties: Vec<PropertyInfo>,
}

/// Which slice of a partitioned run this is: shard `index` of `count`.
/// `ShardSpec::default()` — shard 0 of 1 — is a full, unpartitioned run;
/// every run is described this way so sharded and unsharded execution
/// share one code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based shard index, `< count`.
    pub index: u64,
    /// Total number of shards, `>= 1`.
    pub count: u64,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec { index: 0, count: 1 }
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl ShardSpec {
    /// A validated spec: rejects `count == 0` and `index >= count`.
    pub fn new(index: u64, count: u64) -> Result<Self, SinkError> {
        if count == 0 {
            return Err(SinkError::invalid("shard count must be at least 1"));
        }
        if index >= count {
            return Err(SinkError::invalid(format!(
                "shard index {index} out of range: must be < {count}"
            )));
        }
        Ok(ShardSpec { index, count })
    }

    /// Whether this spec describes a full (single-shard) run.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// This shard's global row window of an `n`-row table — the canonical
    /// partition every component derives independently
    /// (see [`shard_window`]).
    pub fn window(&self, n: u64) -> Range<u64> {
        shard_window(n, self.index, self.count)
    }

    /// Whether this shard's output in `format` starts with a header line:
    /// CSV only, and shard 0 only — so concatenating the shards' outputs
    /// in shard order is byte-identical to the full run's.
    pub fn writes_header(&self, format: TableFormat) -> bool {
        self.index == 0 && format == TableFormat::Csv
    }
}

/// Where one table's rows landed in this run, recorded in the completed
/// [`SinkManifest`] that [`Session::run_into`](crate::Session::run_into)
/// returns: this shard emitted global rows `[lo, hi)` of a `total`-row
/// table, and `content_hash` commits to their contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableRows {
    /// First global row emitted by this shard.
    pub lo: u64,
    /// One past the last global row emitted by this shard.
    pub hi: u64,
    /// Total rows of the table across all shards.
    pub total: u64,
    /// Order-independent content commitment: the wrapping sum of one
    /// 64-bit FNV-derived hash per (global row, column) cell, so shard
    /// hashes add up to exactly the full-table hash under
    /// [`SinkManifest::merge`].
    pub content_hash: u64,
}

/// Everything a run will emit, announced to sinks up front via
/// [`GraphSink::begin`](super::GraphSink::begin) so they can preallocate
/// writers and detect completion per table without waiting for the run to
/// end.
///
/// The manifest doubles as the run's **report**: `run_into` returns it
/// with [`tables`](Self::tables) filled in — per-table row windows and
/// content hashes — and [`merge`](Self::merge) fuses the reports of all
/// `k` shards of a partitioned run back into the report a single full run
/// would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkManifest {
    /// The schema's graph name.
    pub graph_name: String,
    /// The master seed of the run.
    pub seed: u64,
    /// Which shard of the row partition this run executes (0/1 = full).
    pub shard: ShardSpec,
    /// Node tables, sorted by type name.
    pub nodes: Vec<NodeTableInfo>,
    /// Edge tables, sorted by type name.
    pub edges: Vec<EdgeTableInfo>,
    /// Per-table row windows and content hashes, keyed by type name.
    /// Empty at [`GraphSink::begin`](super::GraphSink::begin); complete in
    /// the manifest returned by `run_into`.
    pub tables: BTreeMap<String, TableRows>,
    /// Whether this run emits an operation log (update stream) alongside
    /// the snapshot. Announced so sinks that cannot represent op streams
    /// can reject the run up front instead of silently dropping ops.
    pub ops: bool,
}

impl SinkManifest {
    /// Build the manifest for a schema. Types and properties are sorted by
    /// name — the same order the exporters use — so column order is
    /// independent of DSL declaration order.
    pub fn from_schema(schema: &Schema, seed: u64) -> Self {
        let prop_infos = |props: &[datasynth_schema::PropertyDef]| {
            let mut infos: Vec<PropertyInfo> = props
                .iter()
                .map(|p| PropertyInfo {
                    name: p.name.clone(),
                    value_type: p.value_type,
                })
                .collect();
            infos.sort_by(|a, b| a.name.cmp(&b.name));
            infos
        };
        let mut nodes: Vec<NodeTableInfo> = schema
            .nodes
            .iter()
            .map(|n| NodeTableInfo {
                name: n.name.clone(),
                properties: prop_infos(&n.properties),
            })
            .collect();
        nodes.sort_by(|a, b| a.name.cmp(&b.name));
        let mut edges: Vec<EdgeTableInfo> = schema
            .edges
            .iter()
            .map(|e| EdgeTableInfo {
                name: e.name.clone(),
                source: e.source.clone(),
                target: e.target.clone(),
                properties: prop_infos(&e.properties),
            })
            .collect();
        edges.sort_by(|a, b| a.name.cmp(&b.name));
        SinkManifest {
            graph_name: schema.name.clone(),
            seed,
            shard: ShardSpec::default(),
            nodes,
            edges,
            tables: BTreeMap::new(),
            ops: false,
        }
    }

    /// Builder-style shard annotation (used by sharded sessions).
    pub fn with_shard(mut self, shard: ShardSpec) -> Self {
        self.shard = shard;
        self
    }

    /// Builder-style op-log announcement (set by sessions running with
    /// `Session::with_ops`).
    pub fn with_ops(mut self, ops: bool) -> Self {
        self.ops = ops;
        self
    }

    /// One hash over the whole run: the per-table content hashes folded
    /// together with their table names. Two runs (or a merged shard set
    /// and a full run) agree on this iff they agree on every table.
    pub fn content_hash(&self) -> u64 {
        let mut h = 0u64;
        for (name, rows) in &self.tables {
            h = h.wrapping_add(fnv1a_64(name.as_bytes()) ^ rows.content_hash);
        }
        h
    }

    /// Fuse the completed manifests of all `k` shards of one partitioned
    /// run into the manifest the equivalent full run returns. Validates
    /// that the shards belong together (same graph, seed, schema, shard
    /// count), that every shard index `0..k` appears exactly once, and
    /// that each table's row windows are disjoint, ordered by shard index,
    /// and exhaustive over `0..total`. Content hashes are summed — by
    /// construction this equals the full run's per-table hash.
    pub fn merge(shards: &[SinkManifest]) -> Result<SinkManifest, SinkError> {
        let first = shards
            .first()
            .ok_or_else(|| SinkError::invalid("merge needs at least one shard manifest"))?;
        let k = first.shard.count;
        if shards.len() as u64 != k {
            return Err(SinkError::invalid(format!(
                "shard count mismatch: manifests declare {k} shards but {} were given",
                shards.len()
            )));
        }
        let mut by_index: Vec<Option<&SinkManifest>> = vec![None; k as usize];
        for m in shards {
            if m.graph_name != first.graph_name || m.seed != first.seed {
                return Err(SinkError::invalid(format!(
                    "cannot merge shards of different runs: {} (seed {}) vs {} (seed {})",
                    first.graph_name, first.seed, m.graph_name, m.seed
                )));
            }
            if m.nodes != first.nodes || m.edges != first.edges {
                return Err(SinkError::invalid(
                    "cannot merge shards generated from different schemas",
                ));
            }
            if m.shard.count != k {
                return Err(SinkError::invalid(format!(
                    "shard {} declares {} total shards, expected {k}",
                    m.shard.index, m.shard.count
                )));
            }
            if m.ops != first.ops {
                return Err(SinkError::invalid(
                    "cannot merge op-log shards with snapshot-only shards",
                ));
            }
            let slot = by_index.get_mut(m.shard.index as usize).ok_or_else(|| {
                SinkError::invalid(format!("shard index {} >= {k}", m.shard.index))
            })?;
            if slot.replace(m).is_some() {
                return Err(SinkError::invalid(format!(
                    "shard index {} appears more than once",
                    m.shard.index
                )));
            }
        }
        let ordered: Vec<&SinkManifest> = by_index
            .into_iter()
            .map(|s| s.expect("every index filled: k manifests, k distinct indices"))
            .collect();

        let mut tables: BTreeMap<String, TableRows> = BTreeMap::new();
        let table_names: Vec<&String> = first.tables.keys().collect();
        for m in &ordered {
            if m.tables.keys().collect::<Vec<_>>() != table_names {
                return Err(SinkError::invalid(format!(
                    "shard {} reports a different table set",
                    m.shard.index
                )));
            }
        }
        for &name in &table_names {
            let mut next = 0u64;
            let total = ordered[0].tables[name].total;
            let mut hash = 0u64;
            for m in &ordered {
                let rows = &m.tables[name];
                if rows.total != total {
                    return Err(SinkError::invalid(format!(
                        "table {name:?}: shard {} reports {} total rows, shard 0 reports {total}",
                        m.shard.index, rows.total
                    )));
                }
                if rows.lo != next || rows.hi < rows.lo {
                    return Err(SinkError::invalid(format!(
                        "table {name:?}: shard {} covers rows {}..{} but rows {next}.. are \
                         the next uncovered span — windows must tile the table in shard order",
                        m.shard.index, rows.lo, rows.hi
                    )));
                }
                next = rows.hi;
                hash = hash.wrapping_add(rows.content_hash);
            }
            if next != total {
                return Err(SinkError::invalid(format!(
                    "table {name:?}: shards cover rows 0..{next} of {total} — incomplete"
                )));
            }
            tables.insert(
                name.clone(),
                TableRows {
                    lo: 0,
                    hi: total,
                    total,
                    content_hash: hash,
                },
            );
        }

        Ok(SinkManifest {
            graph_name: first.graph_name.clone(),
            seed: first.seed,
            shard: ShardSpec::default(),
            nodes: first.nodes.clone(),
            edges: first.edges.clone(),
            tables,
            ops: first.ops,
        })
    }
}

// ---------------------------------------------------------------------------
// Manifest persistence: a small JSON encoding so shard manifests can
// travel between machines and be merged. The value model and parser are
// the workspace-shared `datasynth_telemetry::json` module.
// ---------------------------------------------------------------------------

/// The file name shard runs write their manifest under (`--out DIR` ⇒
/// `DIR/manifest.json`).
pub const MANIFEST_FILE: &str = "manifest.json";

impl From<json::JsonError> for SinkError {
    fn from(e: json::JsonError) -> Self {
        SinkError::invalid(format!("manifest {e}"))
    }
}

fn json_props(out: &mut String, props: &[PropertyInfo]) {
    out.push('[');
    for (i, p) in props.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(out, &p.name);
        out.push_str(",\"type\":");
        json::write_str(out, p.value_type.keyword());
        out.push('}');
    }
    out.push(']');
}

fn props_from_json(v: &Json, what: &str) -> Result<Vec<PropertyInfo>, SinkError> {
    v.arr_of(what)?
        .iter()
        .map(|p| {
            let name = p.key("name")?.str_of("property name")?.to_owned();
            let ty = p.key("type")?.str_of("property type")?;
            let value_type = ValueType::from_keyword(ty)
                .ok_or_else(|| SinkError::invalid(format!("unknown property type {ty:?}")))?;
            Ok(PropertyInfo { name, value_type })
        })
        .collect()
}

impl SinkManifest {
    /// Serialize the manifest (including row windows and content hashes)
    /// to JSON. Hashes and the seed are hex strings so the encoding has no
    /// number-precision hazards for other (double-based) JSON tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"graph\": ");
        json::write_str(&mut out, &self.graph_name);
        out.push_str(&format!(",\n  \"seed\": \"{:016x}\",\n", self.seed));
        out.push_str(&format!(
            "  \"shard\": {{\"index\": {}, \"count\": {}}},\n",
            self.shard.index, self.shard.count
        ));
        // Only announced when set, so manifests from snapshot-only runs
        // keep their pre-op-log byte layout.
        if self.ops {
            out.push_str("  \"ops\": true,\n");
        }
        out.push_str("  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_str(&mut out, &n.name);
            out.push_str(", \"properties\": ");
            json_props(&mut out, &n.properties);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_str(&mut out, &e.name);
            out.push_str(", \"source\": ");
            json::write_str(&mut out, &e.source);
            out.push_str(", \"target\": ");
            json::write_str(&mut out, &e.target);
            out.push_str(", \"properties\": ");
            json_props(&mut out, &e.properties);
            out.push('}');
        }
        out.push_str("\n  ],\n  \"tables\": [");
        for (i, (name, rows)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            json::write_str(&mut out, name);
            out.push_str(&format!(
                ", \"lo\": {}, \"hi\": {}, \"total\": {}, \"hash\": \"{:016x}\"}}",
                rows.lo, rows.hi, rows.total, rows.content_hash
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a manifest previously written by [`to_json`](Self::to_json).
    pub fn from_json(src: &str) -> Result<SinkManifest, SinkError> {
        let root = Json::parse(src)?;
        root.obj_of("manifest")?;
        let graph_name = root.key("graph")?.str_of("graph")?.to_owned();
        let seed_hex = root.key("seed")?.str_of("seed")?;
        let seed = u64::from_str_radix(seed_hex, 16)
            .map_err(|_| SinkError::invalid(format!("bad seed {seed_hex:?}")))?;
        let shard_obj = root.key("shard")?;
        let shard = ShardSpec::new(
            shard_obj.key("index")?.u64_of("shard index")?,
            shard_obj.key("count")?.u64_of("shard count")?,
        )?;
        let nodes = root
            .key("nodes")?
            .arr_of("nodes")?
            .iter()
            .map(|n| {
                n.obj_of("node table")?;
                Ok(NodeTableInfo {
                    name: n.key("name")?.str_of("node name")?.to_owned(),
                    properties: props_from_json(n.key("properties")?, "node properties")?,
                })
            })
            .collect::<Result<Vec<_>, SinkError>>()?;
        let edges = root
            .key("edges")?
            .arr_of("edges")?
            .iter()
            .map(|e| {
                e.obj_of("edge table")?;
                Ok(EdgeTableInfo {
                    name: e.key("name")?.str_of("edge name")?.to_owned(),
                    source: e.key("source")?.str_of("edge source")?.to_owned(),
                    target: e.key("target")?.str_of("edge target")?.to_owned(),
                    properties: props_from_json(e.key("properties")?, "edge properties")?,
                })
            })
            .collect::<Result<Vec<_>, SinkError>>()?;
        let mut tables = BTreeMap::new();
        for t in root.key("tables")?.arr_of("tables")? {
            t.obj_of("table rows")?;
            let name = t.key("name")?.str_of("table name")?.to_owned();
            let hash_hex = t.key("hash")?.str_of("table hash")?;
            let content_hash = u64::from_str_radix(hash_hex, 16)
                .map_err(|_| SinkError::invalid(format!("bad table hash {hash_hex:?}")))?;
            tables.insert(
                name,
                TableRows {
                    lo: t.key("lo")?.u64_of("lo")?,
                    hi: t.key("hi")?.u64_of("hi")?,
                    total: t.key("total")?.u64_of("total")?,
                    content_hash,
                },
            );
        }
        let ops = match root.get("ops") {
            Some(v) => v
                .as_bool()
                .ok_or_else(|| SinkError::invalid("ops must be a bool"))?,
            None => false,
        };
        Ok(SinkManifest {
            graph_name,
            seed,
            shard,
            nodes,
            edges,
            tables,
            ops,
        })
    }

    /// Write the manifest as [`MANIFEST_FILE`] inside `dir`.
    pub fn save(&self, dir: &std::path::Path) -> Result<(), SinkError> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(MANIFEST_FILE), self.to_json())?;
        Ok(())
    }

    /// Load a manifest from [`MANIFEST_FILE`] inside `dir`.
    pub fn load(dir: &std::path::Path) -> Result<SinkManifest, SinkError> {
        let path = dir.join(MANIFEST_FILE);
        let src = fs::read_to_string(&path)
            .map_err(|e| SinkError::invalid(format!("cannot read {}: {e}", path.display())))?;
        Self::from_json(&src)
    }
}

// ---------------------------------------------------------------------------
// Content hashing: one 64-bit commitment per (row, column) cell, summed
// with wrapping addition. Sums are associative and commutative, so any
// row partition of a table contributes exactly the full table's hash —
// coverage (no gap, no overlap) is enforced separately by the row windows.
// Cost: a few ns per cell, ~3-6% of an export run — the price of every
// `--out` directory carrying a verifiable content commitment.
// ---------------------------------------------------------------------------

/// Continue an FNV-1a chain from an existing state — the seeded
/// counterpart of [`fnv1a_64`] (which is `fnv_step` from the FNV offset
/// basis), so cell hashes can fold several fields into one chain.
fn fnv_step(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Hash contribution of the implicit id column for the global rows `rows`.
pub(crate) fn hash_id_rows(rows: Range<u64>) -> u64 {
    let mut sum = 0u64;
    for id in rows {
        sum = sum.wrapping_add(mix64(fnv_step(fnv1a_64(b"id"), &id.to_le_bytes())));
    }
    sum
}

/// Hash contribution of the `(tail, head)` columns of `table`, whose row
/// `i` is global row `lo + i`.
pub(crate) fn hash_edge_rows(table: &EdgeTable, lo: u64) -> u64 {
    let mut sum = 0u64;
    let base = fnv1a_64(b"edge");
    for (i, (t, h)) in table.iter().enumerate() {
        let mut x = fnv_step(base, &(lo + i as u64).to_le_bytes());
        x = fnv_step(x, &t.to_le_bytes());
        x = fnv_step(x, &h.to_le_bytes());
        sum = sum.wrapping_add(mix64(x));
    }
    sum
}

/// Hash contribution of one property column named `prop`, whose row `i`
/// is global row `lo + i`.
pub(crate) fn hash_property_rows(prop: &str, table: &PropertyTable, lo: u64) -> u64 {
    let base = fnv_step(fnv1a_64(b"prop:"), prop.as_bytes());
    let mut sum = 0u64;
    let mut cell = |i: usize, payload: &[u8]| {
        let mut x = fnv_step(base, &(lo + i as u64).to_le_bytes());
        x = fnv_step(x, payload);
        sum = sum.wrapping_add(mix64(x));
    };
    match table.column() {
        Column::Bools(v) => {
            for (i, b) in v.iter().enumerate() {
                cell(i, &[u8::from(*b)]);
            }
        }
        Column::Longs(v) | Column::Dates(v) => {
            for (i, x) in v.iter().enumerate() {
                cell(i, &x.to_le_bytes());
            }
        }
        Column::Doubles(v) => {
            for (i, x) in v.iter().enumerate() {
                cell(i, &x.to_bits().to_le_bytes());
            }
        }
        Column::Texts(v) => {
            for (i, s) in v.iter().enumerate() {
                cell(i, s.as_bytes());
            }
        }
    }
    sum
}
