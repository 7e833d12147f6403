//! The built-in lint rules (`DS001`–`DS008`).
//!
//! Rules are deliberately small, independent functions behind the
//! [`LintRule`] trait so downstream users can register their own checks
//! next to the shipped set. Each rule reads a [`LintContext`] — the
//! parsed schema plus (when dependency analysis succeeds) the execution
//! plan, shard modes, and emission schedule — and appends
//! [`Diagnostic`]s.

use std::collections::BTreeMap;

use datasynth_core::{
    structure_params_of, Analysis, Artifact, CountSource, PipelineError, Task, JPD_NAMES,
};
use datasynth_props::PropertyRegistry;
use datasynth_schema::{Cardinality, EdgeType, GeneratorSpec, Schema, SpecArg};
use datasynth_structure::{
    BarabasiAlbert, BoxedStructureGenerator, BuildError, DegreeDist, StructureGenerator,
};
use datasynth_tables::suggest::closest_match;
use datasynth_tables::ValueType;

use crate::diagnostic::{Diagnostic, Severity};

/// Everything a rule may look at. `analysis`/`schedule` are `None` when
/// dependency analysis itself failed (that failure is reported as a
/// `DS001` by the [`Linter`](crate::Linter), so plan-level rules can
/// simply skip).
pub struct LintContext<'a> {
    /// The validated schema under analysis.
    pub schema: &'a Schema,
    /// Dependency analysis (plan, count sources), when it succeeded.
    pub analysis: Option<&'a Analysis>,
    /// Per-task last-use artifact slots, when analysis succeeded.
    pub schedule: Option<&'a [Vec<Artifact>]>,
    /// Per edge type, what `datasynth_core::structure_generator_of` — the
    /// function the run builds through — made of it.
    pub(crate) generators: &'a BTreeMap<&'a str, Result<BoxedStructureGenerator, PipelineError>>,
}

impl LintContext<'_> {
    /// The structure generator a run would build for edge type `edge`
    /// (cardinality-driven default included); `None` when it does not
    /// build, which `DS003` reports. Every structural fact a rule needs —
    /// chunkability, capabilities, expected size — is asked of it.
    pub fn generator(&self, edge: &str) -> Option<&dyn StructureGenerator> {
        Some(self.generators.get(edge)?.as_deref().ok()?)
    }
}

/// One static check over a schema/plan.
pub trait LintRule {
    /// Stable rule name (diagnostics carry codes; this names the rule).
    fn name(&self) -> &'static str;
    /// Append findings for `ctx` to `out`.
    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

/// The shipped rule set, in registration order (output order is
/// canonicalized later, so registration order never shows).
pub fn builtin_rules() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(UnsatisfiableCardinality),
        Box::new(DistributionDomain),
        Box::new(UnknownGenerator),
        Box::new(DeadTable),
        Box::new(ShardHostileStructure),
        Box::new(TemporalOpLogExclusion),
        Box::new(PeakMemoryEstimate),
        Box::new(WorkloadCoverage),
    ]
}

/// First positional numeric argument at `idx`, if any.
fn positional_num(spec: &GeneratorSpec, idx: usize) -> Option<f64> {
    match spec.args.get(idx)? {
        SpecArg::Num(v) => Some(*v),
        SpecArg::Int(v) => Some(*v as f64),
        _ => None,
    }
}

/// `DS001`: sizing that can never be satisfied — the run is guaranteed to
/// fail (or silently violate the declared cardinality).
pub struct UnsatisfiableCardinality;

impl LintRule for UnsatisfiableCardinality {
    fn name(&self) -> &'static str {
        "unsatisfiable-cardinality"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for edge in &ctx.schema.edges {
            let source_count = ctx.schema.node_type(&edge.source).and_then(|n| n.count);
            let target_count = ctx.schema.node_type(&edge.target).and_then(|n| n.count);
            let Some(spec) = &edge.structure else {
                continue;
            };
            let error = |span, message: String, help: &str| {
                Diagnostic::new(
                    "DS001",
                    Severity::Error,
                    span,
                    format!("edge {}", edge.name),
                    message,
                )
                .with_help(help)
            };
            let generator = ctx.generator(&edge.name);
            let name = generator.map_or("", |g| g.name());

            // barabasi_albert attaches each new vertex to m existing ones:
            // impossible unless m < n.
            if let ("barabasi_albert", Some(n)) = (name, source_count) {
                let m = spec
                    .named_num("m")
                    .unwrap_or(BarabasiAlbert::DEFAULT_M as f64);
                if m >= n as f64 {
                    out.push(error(
                        spec.span,
                        format!(
                            "barabasi_albert requires m < n, but m = {m} and {} has \
                             [count = {n}]",
                            edge.source
                        ),
                        &format!("reduce m below {n} or raise the node count"),
                    ));
                }
            }

            // sbm generates exactly groups x group_size vertices, whatever
            // edge count it is sized for; an explicit source count that
            // disagrees cannot be honored.
            if let ("sbm", Some(g), Some(n)) = (name, generator, source_count) {
                let total = g.num_nodes_for_edges(0);
                if total != n {
                    out.push(error(
                        spec.span,
                        format!(
                            "sbm emits exactly groups x group_size = {total} vertices, \
                             but {} has [count = {n}]",
                            edge.source
                        ),
                        "make groups x group_size equal the node count",
                    ));
                }
            }

            // A one-to-many edge whose guaranteed minimum fan-out already
            // overflows an explicitly counted target table.
            if edge.cardinality == Cardinality::OneToMany && name == "one_to_many" {
                if let (Some(s), Some(t), Some(dist)) =
                    (source_count, target_count, degree_dist_of(spec))
                {
                    let floor = s.saturating_mul(dist.min());
                    if floor > t {
                        out.push(error(
                            spec.span,
                            format!(
                                "one_to_many fan-out from {s} {} rows is at least \
                                 {floor}, exceeding {} [count = {t}]",
                                edge.source, edge.target
                            ),
                            "lower the minimum degree, the source count, or drop the \
                             explicit target count so the structure sizes it",
                        ));
                    }
                }
            }

            // One-to-one pairs rows off exactly; differing explicit
            // endpoint counts cannot both hold.
            if edge.cardinality == Cardinality::OneToOne {
                if let (Some(s), Some(t)) = (source_count, target_count) {
                    if s != t {
                        out.push(error(
                            edge.span,
                            format!(
                                "one_to_one edge between {} [count = {s}] and {} \
                                 [count = {t}]: counts must match",
                                edge.source, edge.target
                            ),
                            "equalize the counts or drop the target's",
                        ));
                    }
                }
            }
        }
    }
}

/// The degree distribution a `dist`-taking structure call declares, read
/// by the parser the generators themselves use.
fn degree_dist_of(spec: &GeneratorSpec) -> Option<DegreeDist> {
    let params = structure_params_of(spec).ok()?;
    DegreeDist::from_params(params.reader("one_to_many")).ok()
}

/// `DS002`: a distribution whose support does not match the value domain
/// it feeds — negative days into `date` properties, negative lifetimes,
/// unbounded reals into counts. These run, but produce garbage.
pub struct DistributionDomain;

/// Can `spec` produce negative values? (`normal` always; `uniform` /
/// `uniform_double` when their lower bound is.)
fn has_negative_support(spec: &GeneratorSpec) -> bool {
    match spec.name.as_str() {
        "normal" => true,
        "uniform" | "uniform_double" => positional_num(spec, 0).is_some_and(|lo| lo < 0.0),
        _ => false,
    }
}

impl LintRule for DistributionDomain {
    fn name(&self) -> &'static str {
        "distribution-domain"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let props = ctx
            .schema
            .nodes
            .iter()
            .flat_map(|n| n.properties.iter().map(move |p| (n.name.as_str(), p)));
        let edge_props = ctx
            .schema
            .edges
            .iter()
            .flat_map(|e| e.properties.iter().map(move |p| (e.name.as_str(), p)));
        for (owner, prop) in props.chain(edge_props) {
            if prop.value_type == ValueType::Date && has_negative_support(&prop.generator) {
                out.push(
                    Diagnostic::new(
                        "DS002",
                        Severity::Warning,
                        prop.generator.span,
                        format!("{owner}.{}", prop.name),
                        format!(
                            "{} can produce negative values, which a date property \
                             interprets as days before 1970-01-01",
                            prop.generator.name
                        ),
                    )
                    .with_help("use date_between / date_after, or a non-negative distribution"),
                );
            }
        }

        let temporals = ctx
            .schema
            .nodes
            .iter()
            .map(|n| (n.name.as_str(), &n.temporal))
            .chain(
                ctx.schema
                    .edges
                    .iter()
                    .map(|e| (e.name.as_str(), &e.temporal)),
            );
        for (owner, temporal) in temporals {
            let Some(def) = temporal else { continue };
            if let Some(lifetime) = &def.lifetime {
                if has_negative_support(lifetime) {
                    out.push(
                        Diagnostic::new(
                            "DS002",
                            Severity::Warning,
                            lifetime.span,
                            format!("{owner} temporal"),
                            format!(
                                "lifetime {} can draw negative durations; deletes would \
                                 precede inserts",
                                lifetime.name
                            ),
                        )
                        .with_help("use a non-negative lower bound"),
                    );
                }
            }
        }
    }
}

/// `DS003`: a generator (structure, property, temporal, correlation,
/// degree distribution) that no registry knows. At run time this is a
/// `BuildError` deep inside the pipeline; lint surfaces it at the exact
/// declaration, with a near-miss suggestion.
pub struct UnknownGenerator;

fn suggestion_help<S: std::borrow::Borrow<str>>(suggestion: Option<String>, known: &[S]) -> String {
    match suggestion {
        Some(s) => format!("did you mean {s:?}?"),
        None => format!("known generators: {}", known.join(", ")),
    }
}

impl LintRule for UnknownGenerator {
    fn name(&self) -> &'static str {
        "unknown-generator"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let properties = PropertyRegistry::builtin();
        let mut property_names = properties.names();
        property_names.sort_unstable();

        let unknown_property = |owner: &str, spec: &GeneratorSpec, out: &mut Vec<Diagnostic>| {
            if !properties.contains(&spec.name) {
                out.push(
                    Diagnostic::new(
                        "DS003",
                        Severity::Error,
                        spec.span,
                        owner.to_string(),
                        format!("unknown property generator {:?}", spec.name),
                    )
                    .with_help(suggestion_help(
                        closest_match(&spec.name, property_names.iter().copied()),
                        &property_names,
                    )),
                );
            }
        };

        for node in &ctx.schema.nodes {
            for prop in &node.properties {
                unknown_property(
                    &format!("{}.{}", node.name, prop.name),
                    &prop.generator,
                    out,
                );
            }
            if let Some(def) = &node.temporal {
                unknown_property(&format!("{} temporal", node.name), &def.arrival, out);
                if let Some(lifetime) = &def.lifetime {
                    unknown_property(&format!("{} temporal", node.name), lifetime, out);
                }
            }
        }

        for edge in &ctx.schema.edges {
            for prop in &edge.properties {
                unknown_property(
                    &format!("{}.{}", edge.name, prop.name),
                    &prop.generator,
                    out,
                );
            }
            if let Some(def) = &edge.temporal {
                unknown_property(&format!("{} temporal", edge.name), &def.arrival, out);
                if let Some(lifetime) = &def.lifetime {
                    unknown_property(&format!("{} temporal", edge.name), lifetime, out);
                }
            }
            // A structure clause that does not build: the run's own
            // `BuildError`, reported at the declaration.
            if let (Some(spec), Some(Err(PipelineError::StructureBuild(e)))) =
                (&edge.structure, ctx.generators.get(edge.name.as_str()))
            {
                let unknown = match e {
                    BuildError::UnknownGenerator {
                        known, suggestion, ..
                    } => Some((
                        format!("unknown structure generator {:?}", spec.name),
                        suggestion_help(suggestion.clone(), known),
                    )),
                    BuildError::InvalidParam { param: "dist", .. } => {
                        let dist = spec.named_text("dist").unwrap_or_default();
                        Some((
                            format!("unknown degree distribution {dist:?} for {}", spec.name),
                            suggestion_help(
                                closest_match(dist, DegreeDist::NAMES.iter().copied()),
                                DegreeDist::NAMES,
                            ),
                        ))
                    }
                    // Other bad parameters fail the run with their own
                    // message; lint has no code for them.
                    _ => None,
                };
                if let Some((message, help)) = unknown {
                    out.push(
                        Diagnostic::new(
                            "DS003",
                            Severity::Error,
                            spec.span,
                            format!("edge {}", edge.name),
                            message,
                        )
                        .with_help(help),
                    );
                }
            }
            if let Some(corr) = &edge.correlation {
                if !JPD_NAMES.contains(&corr.jpd.name.as_str()) {
                    out.push(
                        Diagnostic::new(
                            "DS003",
                            Severity::Error,
                            corr.jpd.span,
                            format!("edge {}", edge.name),
                            format!("unknown correlation target {:?}", corr.jpd.name),
                        )
                        .with_help(suggestion_help(
                            closest_match(&corr.jpd.name, JPD_NAMES.iter().copied()),
                            JPD_NAMES,
                        )),
                    );
                }
            }
        }
    }
}

/// `DS004`: a node type that yields no artifact at all — no property
/// tables, no temporal stream, and no edge touches it. It costs a count
/// resolution and produces nothing.
pub struct DeadTable;

impl LintRule for DeadTable {
    fn name(&self) -> &'static str {
        "dead-table"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let Some(schedule) = ctx.schedule else { return };
        for node in &ctx.schema.nodes {
            let emits = schedule
                .iter()
                .flatten()
                .any(|a| matches!(a, Artifact::NodeProperty(t, _) if t == &node.name));
            let referenced = ctx
                .schema
                .edges
                .iter()
                .any(|e| e.source == node.name || e.target == node.name);
            if !emits && !referenced && node.temporal.is_none() {
                out.push(
                    Diagnostic::new(
                        "DS004",
                        Severity::Warning,
                        node.span,
                        format!("node {}", node.name),
                        format!(
                            "node type {} produces no tables: it has no properties, no \
                             temporal stream, and no edge references it",
                            node.name
                        ),
                    )
                    .with_help("give it properties or an edge, or delete it"),
                );
            }
        }
    }
}

/// `DS005`: a shard-hostile structure generator — one whose `chunkable()`
/// is false: it cannot generate an edge chunk in isolation (global
/// preferential attachment / rewiring / community state), so sharded runs
/// recompute its full edge table on every shard and cost scales with
/// shards, not down. Fine on a single machine; a scaling trap under
/// `--shard`.
pub struct ShardHostileStructure;

impl LintRule for ShardHostileStructure {
    fn name(&self) -> &'static str {
        "shard-hostile-structure"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for edge in &ctx.schema.edges {
            let (Some(spec), Some(g)) = (&edge.structure, ctx.generator(&edge.name)) else {
                continue;
            };
            // Attachment generators are exempt: no chunkable alternative
            // exists for a 1→1 / 1→* edge.
            if !g.chunkable() && !g.capabilities().cardinality_constrained {
                out.push(
                    Diagnostic::new(
                        "DS005",
                        Severity::Warning,
                        spec.span,
                        format!("edge {}", edge.name),
                        format!(
                            "{} is not chunkable: sharded runs recompute the \
                             full {} edge table on every shard",
                            g.name(),
                            edge.name
                        ),
                    )
                    .with_help(
                        "for sharded generation prefer a chunkable generator \
                         (erdos_renyi, rmat, sbm)",
                    ),
                );
            }
        }
    }
}

/// `DS006`: a temporal edge whose endpoints never enter the operation
/// log. The temporal sink only streams types that declare a `temporal`
/// block, so this edge's insert/delete ops reference node ids no
/// consumer of the log has ever seen.
pub struct TemporalOpLogExclusion;

impl LintRule for TemporalOpLogExclusion {
    fn name(&self) -> &'static str {
        "temporal-oplog-exclusion"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for edge in &ctx.schema.edges {
            let Some(def) = &edge.temporal else { continue };
            let endpoints: &[&String] = if edge.source == edge.target {
                &[&edge.source]
            } else {
                &[&edge.source, &edge.target]
            };
            for &endpoint in endpoints {
                let covered = ctx
                    .schema
                    .node_type(endpoint)
                    .is_some_and(|n| n.temporal.is_some());
                if !covered {
                    out.push(
                        Diagnostic::new(
                            "DS006",
                            Severity::Warning,
                            def.span,
                            format!("edge {}", edge.name),
                            format!(
                                "temporal edge {} references {endpoint}, which has no \
                                 temporal block: the op log will contain edge ops for \
                                 nodes it never inserts",
                                edge.name
                            ),
                        )
                        .with_help(format!("give node {endpoint} a temporal block")),
                    );
                }
            }
        }
    }
}

/// Above this many estimated live rows, `DS007` points out the peak.
const PEAK_ROWS_THRESHOLD: u64 = 10_000_000;

/// `DS007`: estimated peak working set. Walks the execution plan with
/// per-table row estimates, holding each artifact from its producing
/// task to its last-use slot (the emission schedule), plus raw
/// structures between their `Structure` and `Match` tasks.
pub struct PeakMemoryEstimate;

impl LintRule for PeakMemoryEstimate {
    fn name(&self) -> &'static str {
        "peak-memory-estimate"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let (Some(analysis), Some(schedule)) = (ctx.analysis, ctx.schedule) else {
            return;
        };
        let estimator = RowEstimator::new(ctx, analysis);
        let tasks = &analysis.plan.tasks;

        // live[i] = rows that become live at task i; drops via schedule.
        let mut live: u64 = 0;
        let mut peak: u64 = 0;
        let mut drops: Vec<u64> = vec![0; tasks.len()];
        for (i, task) in tasks.iter().enumerate() {
            let produced: u64 = match task {
                Task::NodeProperty(t, _) => estimator.node_rows(t),
                Task::Structure(e) | Task::Match(e) | Task::EdgeProperty(e, _) => {
                    estimator.edge_rows(e)
                }
                Task::NodeCount(_) => 0,
            };
            live = live.saturating_add(produced);
            peak = peak.max(live);
            // Raw structures die at their Match; everything else at its
            // emission slot.
            if let Task::Match(_) = task {
                // the raw structure this match consumed
                live = live.saturating_sub(produced);
            }
            for artifact in &schedule[i] {
                let rows = match artifact {
                    Artifact::NodeProperty(t, _) => estimator.node_rows(t),
                    Artifact::Edges(e) | Artifact::EdgeProperty(e, _) => estimator.edge_rows(e),
                };
                drops[i] = drops[i].saturating_add(rows);
            }
            live = live.saturating_sub(drops[i]);
        }

        if peak > PEAK_ROWS_THRESHOLD {
            out.push(
                Diagnostic::new(
                    "DS007",
                    Severity::Note,
                    datasynth_schema::Span::SYNTHETIC,
                    format!("graph {}", ctx.schema.name),
                    format!(
                        "estimated peak working set is ~{peak} live rows \
                         (threshold {PEAK_ROWS_THRESHOLD}); expect a high memory \
                         high-water mark"
                    ),
                )
                .with_help("consider sharded generation or smaller counts"),
            );
        }
    }
}

/// Rough per-table row estimates, memoized per node type. Estimates only
/// feed the `DS007` note; ±2x accuracy is fine.
struct RowEstimator<'a> {
    ctx: &'a LintContext<'a>,
    analysis: &'a Analysis,
    node_memo: BTreeMap<String, u64>,
}

impl<'a> RowEstimator<'a> {
    fn new(ctx: &'a LintContext<'a>, analysis: &'a Analysis) -> Self {
        let mut est = Self {
            ctx,
            analysis,
            node_memo: BTreeMap::new(),
        };
        for node in &ctx.schema.nodes {
            est.resolve_node(&node.name, 0);
        }
        est
    }

    fn node_rows(&self, name: &str) -> u64 {
        self.node_memo.get(name).copied().unwrap_or(0)
    }

    fn resolve_node(&mut self, name: &str, depth: usize) -> u64 {
        if let Some(&n) = self.node_memo.get(name) {
            return n;
        }
        let schema = self.ctx.schema;
        // Count sources are acyclic (analysis guarantees it), but cap
        // recursion anyway.
        let rows = if depth > 8 {
            0
        } else {
            match self.analysis.count_sources.get(name) {
                Some(CountSource::Explicit(n)) => *n,
                Some(CountSource::FromStructure(e)) => schema.edge_type(e).map_or(0, |edge| {
                    let n = self.resolve_node(&edge.source, depth + 2);
                    self.rows_over(edge, n)
                }),
                Some(CountSource::FromEdgeCount(e)) => {
                    schema.edge_type(e).and_then(|edge| edge.count).unwrap_or(0)
                }
                None => 0,
            }
        };
        self.node_memo.insert(name.to_string(), rows);
        rows
    }

    fn edge_rows(&self, name: &str) -> u64 {
        let edge = self.ctx.schema.edge_type(name);
        edge.map_or(0, |edge| self.rows_over(edge, self.node_rows(&edge.source)))
    }

    /// Rows of `edge` over `n` source rows: its declared count, else what
    /// the generator the run will build expects to make.
    fn rows_over(&self, edge: &EdgeType, n: u64) -> u64 {
        let expected = || self.ctx.generator(&edge.name).map(|g| g.expected_edges(n));
        edge.count.or_else(expected).unwrap_or_default()
    }
}

/// `DS008`: a schema from which zero workload templates derive —
/// `--workload` and `datasynth bench-workload` would have nothing to
/// execute, and the failure only surfaces after generation otherwise.
pub struct WorkloadCoverage;

impl LintRule for WorkloadCoverage {
    fn name(&self) -> &'static str {
        "workload-coverage"
    }

    fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        if !datasynth_workload::derive_templates(ctx.schema).is_empty() {
            return;
        }
        out.push(
            Diagnostic::new(
                "DS008",
                Severity::Note,
                datasynth_schema::Span::SYNTHETIC,
                format!("graph {}", ctx.schema.name),
                "schema derives no executable workload templates; --workload and \
                 bench-workload will have nothing to run"
                    .to_string(),
            )
            .with_help(
                "declare at least one node type (point lookups derive from nodes, \
                 scans from properties, expansions from edges, 2-hop expansions \
                 from same-type edges, temporal kinds from temporal { ... } blocks)",
            ),
        );
    }
}
