//! What one task *is*: the inputs it reads ([`gather`]), the pure function
//! it computes ([`execute`]), where its output goes ([`commit`]) and what
//! the sink sees of it ([`emit_slot`]). Nothing here knows how tasks are
//! ordered or which thread runs them — that is `schedule`.
//!
//! Property columns — node or edge — run through the one in-place kernel
//! of the paper, [`exec_property`]: a value is a pure function of `(seed,
//! id, dependent values)`, and a node column is simply an edge column
//! with own-row dependencies only and no endpoints.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use datasynth_matching::{assignment_to_mapping_with_ids, sbm_part, MatchInput};
use datasynth_prng::{seed_from_label, CounterStream, SplitMix64, TableStream};
use datasynth_props::{PropertyGenerator, PropertyRegistry};
use datasynth_schema::{Cardinality, DepRef, EdgeType, PropertyDef, Schema};
use datasynth_structure::StructureRegistry;
use datasynth_tables::{Csr, EdgeTable, PropertyTable, Value};

use crate::convert::{build_jpd, gen_args_of, structure_generator_of};
use crate::dependency::{Artifact, CountSource, ShardMode, Task};
use crate::error::PipelineError;
use crate::parallel::parallel_chunks;
use crate::sink::{
    hash_edge_rows, hash_id_rows, hash_property_rows, GraphSink, ShardSpec, SinkManifest, TableRows,
};

/// Task kind label used in reports and metrics.
pub(super) fn task_kind(task: &Task) -> &'static str {
    match task {
        Task::NodeCount(_) => "count",
        Task::NodeProperty(..) => "node_property",
        Task::Structure(_) => "structure",
        Task::Match(_) => "match",
        Task::EdgeProperty(..) => "edge_property",
    }
}

/// Rows a task's output covers: the resolved count for count tasks, the
/// produced row window for everything else. Deterministic — derived from
/// the output tables, never from timing.
pub(super) fn output_rows(out: &TaskOutput) -> u64 {
    match out {
        TaskOutput::Count(c) => *c,
        TaskOutput::Property(held) => held.table.len(),
        TaskOutput::Structure(et) => et.len(),
        TaskOutput::Edges(held) => held.table.len(),
    }
}

/// The immutable task-execution context, shared by every worker.
#[derive(Clone, Copy)]
pub(super) struct Ctx<'a> {
    pub(super) schema: &'a Schema,
    pub(super) seed: u64,
    /// Chunk-level parallelism *within* one task (property columns,
    /// chunkable structures). Never changes output values.
    pub(super) threads: usize,
    pub(super) structures: &'a StructureRegistry,
    pub(super) properties: &'a PropertyRegistry,
    pub(super) count_sources: &'a BTreeMap<String, CountSource>,
    /// Which row slice of every table this run owns (0/1 = all of them).
    pub(super) shard: ShardSpec,
    /// Per-task shard modes, in plan order.
    pub(super) modes: &'a [ShardMode],
}

impl Ctx<'_> {
    /// The row window task `index` generates over an `n`-row output
    /// table: the shard's window when the task slices, everything when it
    /// recomputes.
    fn task_rows(&self, index: usize, n: u64) -> Range<u64> {
        match self.modes[index] {
            ShardMode::Windowed => self.shard.window(n),
            ShardMode::Scalar | ShardMode::Recompute => 0..n,
        }
    }
}

/// A committed table plus which global rows of the full table it holds:
/// `rows == 0..total` for tables computed in full, the shard's window for
/// sliced ones. [`Arc`]-shared so in-flight tasks hold cheap clones while
/// the coordinator keeps committing and emitting.
#[derive(Clone)]
pub(super) struct Held<T> {
    table: Arc<T>,
    /// The global rows `table` covers: row `i` of `table` is global row
    /// `rows.start + i`.
    rows: Range<u64>,
    /// Rows of the full table across all shards.
    total: u64,
}

impl<T> Held<T> {
    fn new(table: T, rows: Range<u64>, total: u64) -> Self {
        Held {
            table: Arc::new(table),
            rows,
            total,
        }
    }

    /// Local row index of global row `id`.
    fn local(&self, id: u64) -> u64 {
        debug_assert!(
            self.rows.contains(&id),
            "global row {id} outside held window {:?}",
            self.rows
        );
        id - self.rows.start
    }
}

/// Artifacts committed so far, owned by the coordinator.
#[derive(Default)]
pub(super) struct Tables {
    counts: BTreeMap<String, u64>,
    /// Property columns of node and edge tables alike, keyed `(table,
    /// property)` — one map because `validate_schema` rejects an edge
    /// type named like a node type.
    props: BTreeMap<(String, String), Held<PropertyTable>>,
    /// Raw (pre-matching) structures are always full: matching is global.
    raw_structures: BTreeMap<String, Arc<EdgeTable>>,
    final_edges: BTreeMap<String, Held<EdgeTable>>,
}

/// Which row of a dependency column a property row reads: its own, or —
/// edge columns only — the one at its tail / head node id.
pub(super) enum DepSlot {
    Own,
    Source,
    Target,
}

/// Everything one task reads, gathered by the coordinator at dispatch so
/// the execute phase borrows nothing mutable.
pub(super) enum TaskInput {
    CountExplicit(u64),
    CountFromEdgeCount {
        edge: Box<EdgeType>,
    },
    CountFromStructure {
        raw: Arc<EdgeTable>,
        source_count: u64,
        cardinality: Cardinality,
    },
    Property {
        /// Global rows to generate (the shard window, or everything) of a
        /// `total`-row table.
        rows: Range<u64>,
        total: u64,
        /// The matched edge table, for edge columns: covers exactly `rows`.
        edges: Option<Held<EdgeTable>>,
        deps: Vec<(DepSlot, Held<PropertyTable>)>,
    },
    Structure {
        n: u64,
    },
    Match {
        raw: Arc<EdgeTable>,
        /// Global edge rows to relabel and commit.
        rows: Range<u64>,
        n_src: u64,
        n_dst: u64,
        corr_pt: Option<Held<PropertyTable>>,
    },
}

/// What one task produces; applied to [`Tables`] by the coordinator.
pub(super) enum TaskOutput {
    Count(u64),
    Property(Held<PropertyTable>),
    Structure(EdgeTable),
    Edges(Held<EdgeTable>),
}

fn edge_def<'s>(schema: &'s Schema, name: &str) -> &'s EdgeType {
    schema.edge_type(name).expect("validated")
}

/// The definition of `table.prop`, whichever kind of table owns it.
fn property_def<'s>(schema: &'s Schema, table: &str, prop: &str) -> &'s PropertyDef {
    let props = match schema.node_type(table) {
        Some(node) => &node.properties,
        None => &edge_def(schema, table).properties,
    };
    props.iter().find(|p| p.name == prop).expect("validated")
}

/// Collect the inputs of `task` (plan slot `index`) from the committed
/// tables. Only called once every dependency of the task has committed,
/// so every lookup is guaranteed to hit.
pub(super) fn gather(ctx: &Ctx<'_>, tables: &Tables, task: &Task, index: usize) -> TaskInput {
    match task {
        Task::NodeCount(t) => match &ctx.count_sources[t] {
            CountSource::Explicit(c) => TaskInput::CountExplicit(*c),
            CountSource::FromEdgeCount(e) => TaskInput::CountFromEdgeCount {
                edge: Box::new(edge_def(ctx.schema, e).clone()),
            },
            CountSource::FromStructure(e) => {
                let edge = edge_def(ctx.schema, e);
                TaskInput::CountFromStructure {
                    raw: tables.raw_structures[e].clone(),
                    source_count: tables.counts[&edge.source],
                    cardinality: edge.cardinality,
                }
            }
        },
        Task::NodeProperty(t, p) | Task::EdgeProperty(t, p) => {
            // `Some` exactly for edge columns: names are unique across
            // node and edge types.
            let edge = ctx.schema.edge_type(t);
            let endpoint = || edge.expect("validated: node props only have own deps");
            let deps = property_def(ctx.schema, t, p)
                .dependencies
                .iter()
                .map(|d| {
                    let (slot, table, q) = match d {
                        DepRef::Own(q) => (DepSlot::Own, t, q),
                        DepRef::Source(q) => (DepSlot::Source, &endpoint().source, q),
                        DepRef::Target(q) => (DepSlot::Target, &endpoint().target, q),
                    };
                    (slot, tables.props[&(table.clone(), q.clone())].clone())
                })
                .collect();
            let edges = edge.map(|_| tables.final_edges[t].clone());
            let (rows, total) = match &edges {
                Some(held) => (held.rows.clone(), held.total),
                None => (ctx.task_rows(index, tables.counts[t]), tables.counts[t]),
            };
            TaskInput::Property {
                rows,
                total,
                edges,
                deps,
            }
        }
        Task::Structure(e) => {
            let edge = edge_def(ctx.schema, e);
            TaskInput::Structure {
                n: tables.counts[&edge.source],
            }
        }
        Task::Match(e) => {
            let edge = edge_def(ctx.schema, e);
            let corr_pt = edge
                .correlation
                .as_ref()
                .map(|corr| tables.props[&(edge.source.clone(), corr.property.clone())].clone());
            let raw = tables.raw_structures[e].clone();
            let rows = ctx.task_rows(index, raw.len());
            TaskInput::Match {
                raw,
                rows,
                n_src: tables.counts[&edge.source],
                n_dst: tables.counts[&edge.target],
                corr_pt,
            }
        }
    }
}

/// Run one task as a pure function of its gathered inputs. Every random
/// stream is derived from `(seed, label)`, so the result is independent of
/// which worker runs it, and when.
pub(super) fn execute(
    ctx: &Ctx<'_>,
    task: &Task,
    input: TaskInput,
) -> Result<TaskOutput, PipelineError> {
    match (task, input) {
        (Task::NodeCount(_), TaskInput::CountExplicit(c)) => Ok(TaskOutput::Count(c)),
        (Task::NodeCount(_), TaskInput::CountFromEdgeCount { edge }) => {
            let m = edge.count.expect("analysis guarantees a count");
            let sg = structure_generator_of(&edge, ctx.structures)?;
            Ok(TaskOutput::Count(sg.num_nodes_for_edges(m)))
        }
        (
            Task::NodeCount(_),
            TaskInput::CountFromStructure {
                raw,
                source_count,
                cardinality,
            },
        ) => Ok(TaskOutput::Count(match cardinality {
            Cardinality::OneToOne => source_count,
            _ => raw.heads().iter().max().map_or(0, |&h| h + 1),
        })),
        (
            Task::NodeProperty(t, p) | Task::EdgeProperty(t, p),
            TaskInput::Property {
                rows,
                total,
                edges,
                deps,
            },
        ) => exec_property(ctx, t, p, rows, total, edges.as_ref(), &deps),
        (Task::Structure(e), TaskInput::Structure { n }) => exec_structure(ctx, e, n),
        (
            Task::Match(e),
            TaskInput::Match {
                raw,
                rows,
                n_src,
                n_dst,
                corr_pt,
            },
        ) => exec_match(ctx, e, &raw, rows, n_src, n_dst, corr_pt.as_ref()),
        _ => unreachable!("gather pairs every input with its own task"),
    }
}

/// Store a task's output; for `Match`, also drop the raw structure (the
/// match is its last reader — any count derived from it committed earlier,
/// upstream in the dependency order).
pub(super) fn commit(tables: &mut Tables, task: &Task, out: TaskOutput) {
    match (task, out) {
        (Task::NodeCount(t), TaskOutput::Count(c)) => {
            tables.counts.insert(t.clone(), c);
        }
        (Task::NodeProperty(t, p) | Task::EdgeProperty(t, p), TaskOutput::Property(held)) => {
            tables.props.insert((t.clone(), p.clone()), held);
        }
        (Task::Structure(e), TaskOutput::Structure(et)) => {
            tables.raw_structures.insert(e.clone(), Arc::new(et));
        }
        (Task::Match(e), TaskOutput::Edges(held)) => {
            tables.raw_structures.remove(e);
            tables.final_edges.insert(e.clone(), held);
        }
        _ => unreachable!("execute returns the task's own output kind"),
    }
}

/// Reclaim a table from its `Arc` for by-value sink delivery. By the time
/// an artifact is emitted every reader has completed, so the unwrap
/// normally succeeds; a straggler clone only costs a copy, never breaks
/// correctness.
fn reclaim<T: Clone>(arc: Arc<T>) -> T {
    Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone())
}

/// Take the shard's window out of a held property table: the table itself
/// when it was generated windowed, a copy of the window rows when the
/// table was recomputed in full.
fn take_window(held: Held<PropertyTable>, want: &Range<u64>) -> PropertyTable {
    if held.rows == *want {
        reclaim(held.table)
    } else {
        debug_assert_eq!(held.rows, 0..held.total, "held tables are full or windowed");
        held.table.slice_rows(want.clone())
    }
}

/// Record `hash` into the report entry of `table` (created by the
/// `table_rows` bookkeeping before any artifact of the table is emitted).
fn add_hash(report: &mut SinkManifest, table: &str, hash: u64) {
    let entry = report
        .tables
        .get_mut(table)
        .expect("table_rows recorded before artifacts");
    entry.content_hash = entry.content_hash.wrapping_add(hash);
}

/// Record a table's row window in the report and announce it to the sink.
fn announce_rows(
    report: &mut SinkManifest,
    sink: &mut dyn GraphSink,
    table: &str,
    rows: Range<u64>,
    total: u64,
) -> Result<(), PipelineError> {
    report.tables.insert(
        table.to_owned(),
        TableRows {
            lo: rows.start,
            hi: rows.end,
            total,
            // Both exporters write an id column; commit to it up front.
            content_hash: hash_id_rows(rows.clone()),
        },
    );
    sink.table_rows(table, rows, total)
        .map_err(PipelineError::Sink)
}

/// Hand a finished artifact to the sink, removing it from working memory.
/// The emission schedule guarantees each artifact is past its last
/// pipeline use and is emitted exactly once. Sharded runs deliver only the
/// shard's row window; the report accumulates each table's content hash.
fn emit_artifact(
    ctx: &Ctx<'_>,
    tables: &mut Tables,
    artifact: &Artifact,
    sink: &mut dyn GraphSink,
    report: &mut SinkManifest,
) -> Result<(), PipelineError> {
    match artifact {
        Artifact::NodeProperty(t, p) | Artifact::EdgeProperty(t, p) => {
            let held = tables
                .props
                .remove(&(t.clone(), p.clone()))
                .expect("scheduled after production");
            let want = ctx.shard.window(held.total);
            let table = take_window(held, &want);
            add_hash(report, t, hash_property_rows(p, &table, want.start));
            match artifact {
                Artifact::NodeProperty(..) => sink.node_property(t, p, table),
                _ => sink.edge_property(t, p, table),
            }
        }
        Artifact::Edges(e) => {
            let held = tables
                .final_edges
                .remove(e)
                .expect("scheduled after production");
            debug_assert_eq!(held.rows, ctx.shard.window(held.total));
            let lo = held.rows.start;
            let table = reclaim(held.table);
            add_hash(report, e, hash_edge_rows(&table, lo));
            let def = edge_def(ctx.schema, e);
            sink.edges(e, &def.source, &def.target, table)
        }
    }
    .map_err(PipelineError::Sink)
}

/// The sink-facing tail of one plan slot: the table-window announcements
/// and `node_count` event this slot resolves, followed by `artifacts` —
/// every artifact whose last use was this slot. This is what the
/// scheduler's delivery order serializes.
pub(super) fn emit_slot(
    ctx: &Ctx<'_>,
    tables: &mut Tables,
    artifacts: &[Artifact],
    task: &Task,
    sink: &mut dyn GraphSink,
    report: &mut SinkManifest,
) -> Result<(), PipelineError> {
    match task {
        Task::NodeCount(t) => {
            // The count resolves the node table's window; announce it
            // before the count so sinks can size everything that follows.
            let count = tables.counts[t];
            announce_rows(report, sink, t, ctx.shard.window(count), count)?;
            sink.node_count(t, count).map_err(PipelineError::Sink)?;
        }
        Task::Match(e) => {
            // Matching resolves the edge table's size (and thus window);
            // every edge artifact — including property columns that may be
            // emitted before the edge table itself — comes later in plan
            // order.
            let held = &tables.final_edges[e];
            announce_rows(report, sink, e, held.rows.clone(), held.total)?;
        }
        _ => {}
    }
    for artifact in artifacts {
        emit_artifact(ctx, tables, artifact, sink, report)?;
    }
    Ok(())
}

fn build_prop_generator(
    ctx: &Ctx<'_>,
    prop: &PropertyDef,
) -> Result<Box<dyn PropertyGenerator>, PipelineError> {
    let generator = ctx.properties.build(
        &prop.generator.name,
        &gen_args_of(&prop.generator)?,
        prop.dependencies.len(),
    )?;
    if generator.value_type() != prop.value_type {
        return Err(PipelineError::Invalid(format!(
            "property {:?} is declared {} but generator {:?} produces {}",
            prop.name,
            prop.value_type,
            prop.generator.name,
            generator.value_type()
        )));
    }
    Ok(generator)
}

/// Generate the property column `table.prop_name` over the global rows
/// `rows` of a `total`-row table. Every value is a pure function of
/// `(seed, global id, dep values)`, so generating a window yields exactly
/// the full run's rows for those ids — the byte-identity the sharding API
/// rests on.
///
/// `edges` is the (possibly sliced) matched edge table when the column
/// belongs to an edge type; it covers exactly `rows`. `Own` dependencies
/// share the column's window; `source.*` / `target.*` dependencies index
/// by endpoint node id, which can fall anywhere — those columns are always
/// held in full ([`ShardMode::Recompute`]).
fn exec_property(
    ctx: &Ctx<'_>,
    table: &str,
    prop_name: &str,
    rows: Range<u64>,
    total: u64,
    edges: Option<&Held<EdgeTable>>,
    deps: &[(DepSlot, Held<PropertyTable>)],
) -> Result<TaskOutput, PipelineError> {
    let prop = property_def(ctx.schema, table, prop_name);
    let generator = build_prop_generator(ctx, prop)?;
    let stream = TableStream::derive(ctx.seed, &format!("{table}.{prop_name}"));
    // Resolved once, outside the row loop: a node column has no endpoint
    // dependencies (validated), so it never indexes the empty slices.
    let (tails, heads) = edges.map_or((&[][..], &[][..]), |e| (e.table.tails(), e.table.heads()));

    let lo = rows.start;
    let values = parallel_chunks(rows.end - rows.start, ctx.threads, |range| {
        let mut out = Vec::with_capacity((range.end - range.start) as usize);
        let mut dep_values: Vec<Value> = Vec::with_capacity(deps.len());
        for local in range {
            let id = lo + local;
            dep_values.clear();
            for (slot, held) in deps {
                let at = match slot {
                    DepSlot::Own => id,
                    DepSlot::Source => tails[local as usize],
                    DepSlot::Target => heads[local as usize],
                };
                dep_values.push(held.table.value(held.local(at))?);
            }
            let mut rng = stream.substream(id);
            out.push(generator.generate(id, &mut rng, &dep_values)?);
        }
        Ok(out)
    })?;

    let column =
        PropertyTable::from_values(format!("{table}.{prop_name}"), prop.value_type, values)?;
    Ok(TaskOutput::Property(Held::new(column, rows, total)))
}

/// Generate an edge type's raw structure. Chunkable generators are driven
/// through counter-based `run_range` slots split across workers — the
/// chunk grouping never changes the bytes (`run_chunked` is the sequential
/// reference semantics); inherently sequential generators keep the
/// single-stream `run` path.
fn exec_structure(ctx: &Ctx<'_>, edge_name: &str, n: u64) -> Result<TaskOutput, PipelineError> {
    let edge = edge_def(ctx.schema, edge_name);
    let sg = structure_generator_of(edge, ctx.structures)?;
    let mut rng = SplitMix64::new(seed_from_label(ctx.seed, &format!("structure.{edge_name}")));
    let et = if sg.chunkable() {
        // Identical key derivation to StructureGenerator::run for
        // chunkable generators: the first draw off the task rng.
        let stream = CounterStream::new(rng.next_u64());
        let slots = sg.num_slots(n);
        let parts = parallel_chunks(slots, ctx.threads, |range| {
            Ok(vec![sg.run_range(n, range, &stream)])
        })?;
        let mut merged = EdgeTable::new(sg.name());
        for part in &parts {
            merged.extend_from(part);
        }
        sg.finalize(merged)
    } else {
        sg.run(n, &mut rng)
    };
    Ok(TaskOutput::Structure(et))
}

/// The matching step: assign structure node ids to property-table ids
/// (per §4.2) and relabel the raw edge table into final node-id space.
///
/// The id assignment is global — it walks the full raw structure and (for
/// correlations) the full property column, and every shard recomputes it
/// identically from the seed — but only the edge rows in `rows` are
/// relabeled and committed: edge row order is preserved by matching, so a
/// shard's final edge window is exactly the relabeling of its raw window.
fn exec_match(
    ctx: &Ctx<'_>,
    edge_name: &str,
    raw: &EdgeTable,
    rows: Range<u64>,
    n_src: u64,
    n_dst: u64,
    corr_pt: Option<&Held<PropertyTable>>,
) -> Result<TaskOutput, PipelineError> {
    let edge = edge_def(ctx.schema, edge_name);
    let same_type = edge.source == edge.target;
    let one_sided = matches!(
        edge.cardinality,
        Cardinality::OneToMany | Cardinality::OneToOne
    );

    // Every id that indexes a node table below (the CSR, the id maps) must
    // be inside it: generators are user-extensible, so check, don't trust.
    let in_range = |ids: &[u64], end: &str, node: &str, n: u64| match ids.iter().max() {
        Some(&id) if id >= n => Err(PipelineError::Sizing(format!(
            "edge {edge_name:?}: structure produced {end} id {id} but {node} only has {n} instances"
        ))),
        _ => Ok(()),
    };
    in_range(raw.tails(), "tail", &edge.source, n_src)?;
    if !one_sided {
        // One-sided heads *define* the target instances and index nothing.
        in_range(raw.heads(), "head", &edge.target, n_dst)?;
    }

    let tail_map: Vec<u64> = if let Some(corr) = &edge.correlation {
        // SBM-Part against the correlated property (same-type edges;
        // the DSL validator enforces that). The column is always held in
        // full: correlation marks it ShardMode::Recompute.
        let pt: &PropertyTable = &corr_pt.expect("gathered with the correlation").table;
        if pt.len() != n_src {
            return Err(PipelineError::Invalid(format!(
                "property table {} has {} rows but {} has {} instances",
                pt.name(),
                pt.len(),
                edge.source,
                n_src
            )));
        }
        let freqs = pt.value_frequencies();
        let group_sizes: Vec<u64> = freqs.iter().map(|(_, c)| *c).collect();
        let mut group_index: BTreeMap<String, usize> = BTreeMap::new();
        for (g, (v, _)) in freqs.iter().enumerate() {
            group_index.insert(v.render(), g);
        }
        let mut ids_by_group: Vec<Vec<u64>> = vec![Vec::new(); freqs.len()];
        for id in 0..pt.len() {
            let g = group_index[&pt.value(id)?.render()];
            ids_by_group[g].push(id);
        }
        let jpd = build_jpd(&corr.jpd, &group_sizes)?;
        let csr = Csr::undirected(raw, n_src);
        let mut order: Vec<u64> = (0..n_src).collect();
        SplitMix64::new(seed_from_label(ctx.seed, &format!("match.{edge_name}")))
            .shuffle(&mut order);
        let input = MatchInput {
            group_sizes: &group_sizes,
            jpd: &jpd,
            csr: &csr,
            num_edges: raw.len(),
        };
        let result = sbm_part(&input, &order);
        assignment_to_mapping_with_ids(&result.group_of, &ids_by_group)
    } else {
        // Uncorrelated: "the matching is done randomly".
        random_permutation(
            n_src,
            seed_from_label(ctx.seed, &format!("match.{edge_name}.tails")),
        )
    };

    let head_map: Option<Vec<u64>> = if one_sided {
        None // heads *define* the target instances: identity
    } else if same_type {
        Some(tail_map.clone())
    } else {
        // Mixed-type many-to-many: inject raw head ids into the target
        // id space.
        Some(random_permutation(
            n_dst,
            seed_from_label(ctx.seed, &format!("match.{edge_name}.heads")),
        ))
    };

    let total = raw.len();
    let mut final_et = EdgeTable::with_capacity(edge_name, (rows.end - rows.start) as usize);
    for i in rows.clone() {
        let (t, h) = raw.edge(i);
        let nt = tail_map[t as usize];
        let nh = match &head_map {
            Some(map) => map[h as usize],
            None => h,
        };
        final_et.push(nt, nh);
    }
    Ok(TaskOutput::Edges(Held::new(final_et, rows, total)))
}

fn random_permutation(n: u64, seed: u64) -> Vec<u64> {
    let mut perm: Vec<u64> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut perm);
    perm
}
