//! The DataSynth runner: executes an [`ExecutionPlan`], streaming finished
//! artifacts to a [`GraphSink`].
//!
//! Every task is a *gather* (the coordinator collects the task's inputs
//! as cheap `Arc` clones), a pure *execute* (on any worker; every random
//! draw derives from `(seed, label)`, never from execution order) and a
//! *commit* (the coordinator stores the output). **One scheduler** serves
//! every thread count: a coordinator loop puts each task whose
//! dependencies have committed into a ready set that pops the lowest plan
//! index first, and delivers completed slots to the sink strictly in plan
//! order. With one worker the coordinator runs each ready job itself —
//! plan order is topological, so that is plan-order execution on the
//! calling thread, with no thread spawned and no channel; with more, a
//! scoped pool runs the ready set concurrently and a completed slot waits
//! for every earlier one. Sinks and observers see the same sequence
//! either way, byte for byte.
//!
//! This module is the public surface; `schedule` is the coordinator loop,
//! ready set and pool; `tasks` is what a task reads, computes and emits.

mod schedule;
mod tasks;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datasynth_props::{BoxedPropertyGenerator, GenArg, PropertyRegistry, RegistryError};
use datasynth_schema::{parse_schema, validate_schema, Schema};
use datasynth_structure::{BoxedStructureGenerator, BuildError, Params, StructureRegistry};
use datasynth_tables::PropertyGraph;
use datasynth_telemetry::{fnv1a_64, MetricsRegistry};

use crate::dependency::{
    analyze, emission_schedule, shard_modes, Analysis, Artifact, ExecutionPlan, ShardPlan, Task,
};
use crate::error::PipelineError;
use crate::parallel::default_threads;
use crate::report::RunReport;
use crate::sink::{GraphSink, InMemorySink, ShardSpec, SinkManifest};
use schedule::run_plan;
use tasks::Ctx;

/// The generator builder: a schema, a seed, and the two generator
/// registries every scenario resolves through. Yields [`Session`]s that
/// stream into any [`GraphSink`]; [`generate`](DataSynth::generate)
/// remains as sugar over an [`InMemorySink`].
#[derive(Debug)]
pub struct DataSynth {
    schema: Schema,
    seed: u64,
    threads: usize,
    structures: StructureRegistry,
    properties: PropertyRegistry,
}

impl DataSynth {
    /// The primary constructor: take any [`Schema`] — built fluently with
    /// [`Schema::build`] or parsed from DSL text — validate it, and
    /// attach the builtin generator registries.
    ///
    /// ```
    /// use datasynth_core::DataSynth;
    /// use datasynth_schema::builder::{long, text};
    /// use datasynth_schema::Schema;
    ///
    /// let schema = Schema::build("tiny")
    ///     .node("Person", |n| {
    ///         n.count(100)
    ///             .property("id", long().counter())
    ///             .property("country", text().dictionary("countries"))
    ///     })
    ///     .finish()
    ///     .unwrap();
    /// let graph = DataSynth::new(schema).unwrap().with_seed(42).generate().unwrap();
    /// assert_eq!(graph.node_count("Person"), Some(100));
    /// ```
    pub fn new(schema: Schema) -> Result<Self, PipelineError> {
        validate_schema(&schema)?;
        Ok(Self {
            schema,
            seed: 0xDA7A_5717,
            threads: default_threads(),
            structures: StructureRegistry::builtin(),
            properties: PropertyRegistry::builtin(),
        })
    }

    /// The DSL frontend: parse `src` and delegate to [`DataSynth::new`].
    pub fn from_dsl(src: &str) -> Result<Self, PipelineError> {
        Self::new(parse_schema(src)?)
    }

    /// Register a user-defined structure generator under `name`, making
    /// it resolvable from `structure = name(...)` DSL clauses and from
    /// `SchemaBuilder` programs — no crate internals involved.
    pub fn register_structure<F>(mut self, name: impl Into<String>, ctor: F) -> Self
    where
        F: Fn(&Params) -> Result<BoxedStructureGenerator, BuildError> + Send + Sync + 'static,
    {
        self.structures.register(name, ctor);
        self
    }

    /// Register a user-defined property generator under `name` (the
    /// constructor receives the call's arguments and declared dependency
    /// count).
    pub fn register_property<F>(mut self, name: impl Into<String>, ctor: F) -> Self
    where
        F: Fn(&[GenArg], usize) -> Result<BoxedPropertyGenerator, RegistryError>
            + Send
            + Sync
            + 'static,
    {
        self.properties.register(name, ctor);
        self
    }

    /// The structure-generator registry this pipeline resolves through.
    pub fn structures(&self) -> &StructureRegistry {
        &self.structures
    }

    /// The property-generator registry this pipeline resolves through.
    pub fn properties(&self) -> &PropertyRegistry {
        &self.properties
    }

    /// Set the master seed (same seed ⇒ byte-identical output).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the worker thread count. This scales both the task scheduler
    /// and the per-table chunking, and **never** affects output values:
    /// every draw is a pure function of `(seed, label, id)`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The schema being generated.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dependency-analyzed execution plan (for inspection).
    pub fn plan(&self) -> Result<ExecutionPlan, PipelineError> {
        Ok(analyze(&self.schema)?.plan)
    }

    /// Analyze the schema into a runnable [`Session`].
    pub fn session(&self) -> Result<Session<'_>, PipelineError> {
        Ok(self.mint(self.planned()?))
    }

    /// The one place a [`Session`] is made: this pipeline's schema, seed,
    /// thread budget and registries around a plan of that schema.
    fn mint(&self, planned: PlannedSchema) -> Session<'_> {
        Session {
            schema: &self.schema,
            seed: self.seed,
            threads: self.threads,
            structures: &self.structures,
            properties: &self.properties,
            planned,
            shard: ShardSpec::default(),
            ops: false,
            observer: None,
            metrics: None,
        }
    }

    /// Analyze and schedule the schema once, into a reusable
    /// [`PlannedSchema`]. Dependency analysis and emission scheduling are
    /// pure functions of the schema, so a service holding many live
    /// schemas can pay for them once per schema and mint sessions from
    /// the cached plan via [`session_from`](DataSynth::session_from) —
    /// the repeat-request path performs no re-parse and no re-analysis.
    pub fn planned(&self) -> Result<PlannedSchema, PipelineError> {
        let analysis = analyze(&self.schema)?;
        let schedule = emission_schedule(&self.schema, &analysis);
        Ok(PlannedSchema {
            schema_hash: fnv1a_64(self.schema.to_dsl().as_bytes()),
            analysis,
            schedule,
        })
    }

    /// Mint a [`Session`] from a plan prepared earlier by
    /// [`planned`](DataSynth::planned), skipping analysis and scheduling.
    /// The plan is fingerprinted against the canonical DSL rendering of
    /// this pipeline's schema; a mismatch (plan cached for a different
    /// schema) is rejected rather than silently generating wrong data.
    pub fn session_from(&self, planned: &PlannedSchema) -> Result<Session<'_>, PipelineError> {
        let expect = fnv1a_64(self.schema.to_dsl().as_bytes());
        if planned.schema_hash != expect {
            return Err(PipelineError::Invalid(format!(
                "planned schema mismatch: plan is for {:016x}, pipeline schema is {expect:016x}",
                planned.schema_hash
            )));
        }
        Ok(self.mint(planned.clone()))
    }

    /// The shard-local execution plan for shard `index` of `count`:
    /// per-task modes (windowed vs full recompute) and, where statically
    /// known, row windows. Powers the CLI's `--plan --shard I/K`.
    pub fn shard_plan(&self, index: u64, count: u64) -> Result<ShardPlan, PipelineError> {
        let spec = ShardSpec::new(index, count).map_err(PipelineError::Sink)?;
        Ok(ShardPlan::for_analysis(&analyze(&self.schema)?, spec))
    }

    /// Run the full pipeline into memory: sugar over
    /// [`Session::run_into`] with an [`InMemorySink`], plus a whole-graph
    /// consistency check.
    pub fn generate(&self) -> Result<PropertyGraph, PipelineError> {
        let mut sink = InMemorySink::new();
        self.session()?.run_into(&mut sink)?;
        let graph = sink.into_graph();
        let problems = graph.validate();
        if !problems.is_empty() {
            return Err(PipelineError::Invalid(format!(
                "generated graph is inconsistent: {}",
                problems.join("; ")
            )));
        }
        Ok(graph)
    }
}

/// The schema-derived, seed-independent half of a [`Session`]: the
/// dependency [`Analysis`] and the artifact emission schedule, stamped
/// with the fnv1a fingerprint of the schema's canonical DSL rendering.
/// Produced by [`DataSynth::planned`], consumed by
/// [`DataSynth::session_from`]; cheap to clone relative to re-analysis
/// and safe to share across threads, which is what lets a long-lived
/// service cache one per registered schema.
#[derive(Debug, Clone)]
pub struct PlannedSchema {
    schema_hash: u64,
    analysis: Analysis,
    schedule: Vec<Vec<Artifact>>,
}

impl PlannedSchema {
    /// fnv1a-64 of the schema's canonical DSL rendering — the same
    /// fingerprint [`RunReport`](crate::RunReport) reports as
    /// `schema_hash`.
    pub fn schema_hash(&self) -> u64 {
        self.schema_hash
    }

    /// The execution plan this schema analyzes to.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.analysis.plan
    }
}

/// Which end of a task a [`TaskProgress`] event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskPhase {
    /// The task's slot became the head of the plan-order delivery: every
    /// earlier task has finished and been handed to the sink. With one
    /// worker that is the moment before the task runs; with more, the task
    /// may already be running or done.
    Started,
    /// The task finished and its slot was handed to the sink;
    /// [`TaskProgress::rows`] and [`TaskProgress::elapsed`] carry its row
    /// count and execute time.
    Finished,
}

/// One progress event, delivered to the observer registered with
/// [`Session::on_task`] — twice per task, started then finished.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct TaskProgress<'p> {
    /// Zero-based position of the task in the plan.
    pub index: usize,
    /// Total number of tasks in the plan.
    pub total: usize,
    /// The task itself.
    pub task: &'p Task,
    /// Started or finished.
    pub phase: TaskPhase,
    /// Rows the task produced — the shard's window size for windowed
    /// tasks. `None` until [`TaskPhase::Finished`].
    pub rows: Option<u64>,
    /// Wall-clock time of the task body alone — the slot's
    /// [`execute`](crate::TaskReport::execute) in the run report, at any
    /// thread count; gathering inputs, committing and sink delivery are
    /// not in it. `None` until [`TaskPhase::Finished`].
    pub elapsed: Option<Duration>,
}

impl<'p> TaskProgress<'p> {
    fn started(index: usize, total: usize, task: &'p Task) -> Self {
        TaskProgress {
            index,
            total,
            task,
            phase: TaskPhase::Started,
            rows: None,
            elapsed: None,
        }
    }

    fn finished(index: usize, total: usize, task: &'p Task, rows: u64, elapsed: Duration) -> Self {
        TaskProgress {
            index,
            total,
            task,
            phase: TaskPhase::Finished,
            rows: Some(rows),
            elapsed: Some(elapsed),
        }
    }
}

type Observer<'a> = Box<dyn FnMut(TaskProgress<'_>) + 'a>;

/// One prepared generation run: the analyzed plan, the artifact emission
/// schedule, and an optional progress observer. Obtain via
/// [`DataSynth::session`], consume with [`run_into`](Session::run_into).
pub struct Session<'a> {
    schema: &'a Schema,
    seed: u64,
    threads: usize,
    structures: &'a StructureRegistry,
    properties: &'a PropertyRegistry,
    planned: PlannedSchema,
    shard: ShardSpec,
    ops: bool,
    observer: Option<Observer<'a>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'a> Session<'a> {
    /// The execution plan this session will run.
    pub fn plan(&self) -> &ExecutionPlan {
        self.planned.plan()
    }

    /// Override the master seed for this run only, leaving the parent
    /// [`DataSynth`] untouched — the per-request seed knob for callers
    /// minting many sessions from one pipeline (same seed ⇒ byte-identical
    /// output, as with [`DataSynth::with_seed`]).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the worker thread count for this run only. Like
    /// [`DataSynth::with_threads`] this scales scheduling and chunking but
    /// never affects output bytes; a service can divide a fixed thread
    /// budget across concurrent runs without rebuilding pipelines.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Restrict the run to shard `index` of a `count`-way row partition —
    /// the distributed scale-out entry point. Each table's rows are split
    /// into `count` contiguous windows by the canonical partition
    /// ([`ShardSpec::window`]); this session generates and emits only
    /// window `index`, and concatenating the sink output of all `count`
    /// shards in index order is **byte-identical** to one full run, at any
    /// thread count on any shard.
    ///
    /// Row-aligned work (property columns, matched edge rows) is computed
    /// for the window only; global work — raw structures, the matching
    /// step, property columns read through endpoint lookups — is
    /// recomputed deterministically from the seed on every shard that
    /// needs it (see [`ShardMode`](crate::ShardMode)). Rejects
    /// `count == 0` and `index >= count`.
    pub fn shard(mut self, index: u64, count: u64) -> Result<Self, PipelineError> {
        self.shard = ShardSpec::new(index, count).map_err(PipelineError::Sink)?;
        Ok(self)
    }

    /// Declare that this run emits an operation log (update stream)
    /// alongside the static snapshot. The flag is announced to every sink
    /// via [`SinkManifest::ops`]: op-aware sinks (`TemporalSink` in
    /// `datasynth-temporal`) produce the log, snapshot-only streaming
    /// sinks pass it through untouched, and [`InMemorySink`] rejects the
    /// run rather than silently dropping the stream. Per-run like
    /// [`with_seed`](Session::with_seed), so `DataSynth::generate` on a
    /// temporal schema still works — the schema *annotations* only take
    /// effect when a session opts in here.
    pub fn with_ops(mut self, ops: bool) -> Self {
        self.ops = ops;
        self
    }

    /// Register a progress observer, called twice per task (started /
    /// finished). Observation is side-band: it cannot alter the run and
    /// does not affect determinism of the output. At any thread count the
    /// events arrive strictly in plan order — `Started(i)` when slot `i`
    /// becomes the next to be delivered, `Finished(i)` once its results
    /// have been handed to the sink — and `elapsed` is the task's
    /// [`execute`](crate::TaskReport::execute) time.
    pub fn on_task(mut self, observer: impl FnMut(TaskProgress<'_>) + 'a) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Attach a metrics registry: the scheduler records task counters and
    /// execute-time histograms into it as the run progresses, and metered
    /// sinks sharing the same registry (see `CsvSink::with_metrics`)
    /// contribute per-table byte/row throughput that the returned
    /// [`RunReport`] picks up. Without a registry the run records nothing
    /// — the uninstrumented hot path is unchanged.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Execute the plan, streaming each finished artifact to `sink` as
    /// soon as no later task depends on it — tables leave the runner's
    /// working memory at their last use instead of accumulating until the
    /// end of the run. With `threads > 1`, independent tasks run
    /// concurrently; the sink still observes the exact plan-order event
    /// sequence (a completed slot is held until every earlier task has
    /// delivered).
    ///
    /// Returns the run's [`RunReport`]: the completed [`SinkManifest`]
    /// (per-table row windows and content hashes — the report derefs to
    /// it) plus per-task phase timings and scheduler/sink telemetry. For
    /// a sharded session ([`shard`](Session::shard)), persist the
    /// manifest next to the shard's output and fuse the set with
    /// [`SinkManifest::merge`] to validate that the shards tile the full
    /// run.
    pub fn run_into(self, sink: &mut dyn GraphSink) -> Result<RunReport, PipelineError> {
        let run_started = Instant::now();
        let (schema, seed, threads, shard) = (self.schema, self.seed, self.threads, self.shard);
        let (planned, metrics, mut observer) = (self.planned, self.metrics, self.observer);
        let modes = shard_modes(&planned.analysis);
        let mut manifest = SinkManifest::from_schema(schema, seed)
            .with_shard(shard)
            .with_ops(self.ops);
        sink.begin(&manifest).map_err(PipelineError::Sink)?;
        let ctx = Ctx {
            schema,
            seed,
            threads,
            structures: self.structures,
            properties: self.properties,
            count_sources: &planned.analysis.count_sources,
            shard,
            modes: &modes,
        };
        // One worker means the coordinator runs every task itself.
        let workers = threads.min(planned.plan().tasks.len()).max(1);
        let (tasks, max_reorder_depth) = run_plan(
            ctx,
            &planned,
            workers,
            metrics.as_deref(),
            &mut observer,
            sink,
            &mut manifest,
        )?;
        sink.finish().map_err(PipelineError::Sink)?;
        // Sinks that synthesize their own tables (the op log) report them
        // now, so the manifest — and shard-merge validation — covers them
        // exactly like schema tables.
        for (name, rows) in sink.contributed_tables() {
            manifest.tables.insert(name, rows);
        }
        let wall = run_started.elapsed();

        let (sink_bytes, snapshot) = match &metrics {
            Some(registry) => {
                registry.gauge("datasynth_workers").set(workers as u64);
                registry
                    .gauge("datasynth_reorder_depth_max")
                    .record_max(max_reorder_depth);
                let snapshot = registry.snapshot();
                let bytes = snapshot
                    .counters_named("datasynth_sink_bytes_total")
                    .filter_map(|(label, v)| Some((label?.to_owned(), v)))
                    .collect();
                (bytes, Some(snapshot))
            }
            None => (BTreeMap::new(), None),
        };
        Ok(RunReport {
            manifest,
            schema_hash: planned.schema_hash,
            threads,
            workers,
            busy: tasks.iter().map(|t| t.execute).sum(),
            tasks,
            sink_bytes,
            wall,
            max_reorder_depth,
            metrics: snapshot,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_matching::evaluate::empirical_jpd;
    use datasynth_prng::SplitMix64;
    use datasynth_props::PropertyGenerator;
    use datasynth_structure::StructureGenerator;
    use datasynth_tables::{EdgeTable, Value};

    const RUNNING_EXAMPLE: &str = r#"
graph social {
  node Person [count = 2000] {
    country: text = dictionary("countries");
    sex: text = categorical("M": 0.5, "F": 0.5);
    name: text = first_names() given (country, sex);
    interest: text = dictionary("topics");
    creationDate: date = date_between("2010-01-01", "2013-01-01");
  }
  node Message {
    topic: text = dictionary("topics");
    text: text = sentence_about(5, 12) given (topic);
  }
  edge knows: Person -- Person [many_to_many] {
    structure = lfr(avg_degree = 10, max_degree = 30);
    correlate country with homophily(0.8);
    creationDate: date = date_after(30) given (source.creationDate, target.creationDate);
  }
  edge creates: Person -> Message [one_to_many] {
    structure = one_to_many(dist = "geometric", p = 0.4);
    creationDate: date = date_after(365) given (source.creationDate);
  }
}
"#;

    fn generate() -> PropertyGraph {
        DataSynth::from_dsl(RUNNING_EXAMPLE)
            .unwrap()
            .with_seed(7)
            .generate()
            .unwrap()
    }

    #[test]
    fn running_example_end_to_end() {
        let graph = generate();
        assert_eq!(graph.node_count("Person"), Some(2000));
        // Message count inferred from the creates structure.
        let creates = graph.edges("creates").unwrap();
        assert_eq!(graph.node_count("Message"), Some(creates.len()));
        assert!(graph.validate().is_empty());
        // All eight property tables exist.
        assert!(graph.node_property("Person", "name").is_some());
        assert!(graph.node_property("Message", "text").is_some());
        assert!(graph.edge_property("knows", "creationDate").is_some());
        assert!(graph.edge_property("creates", "creationDate").is_some());
    }

    #[test]
    fn knows_dates_exceed_endpoint_dates() {
        let graph = generate();
        let knows = graph.edges("knows").unwrap();
        let person_date = graph.node_property("Person", "creationDate").unwrap();
        let knows_date = graph.edge_property("knows", "creationDate").unwrap();
        for i in 0..knows.len().min(500) {
            let (t, h) = knows.edge(i);
            let dt = person_date.value(t).unwrap().as_long().unwrap();
            let dh = person_date.value(h).unwrap().as_long().unwrap();
            let de = knows_date.value(i).unwrap().as_long().unwrap();
            assert!(de > dt.max(dh), "edge {i}: {de} <= max({dt},{dh})");
        }
    }

    #[test]
    fn homophily_is_reproduced() {
        let graph = generate();
        let knows = graph.edges("knows").unwrap();
        let country = graph.node_property("Person", "country").unwrap();
        // Label nodes by country group.
        let freqs = country.value_frequencies();
        let index: BTreeMap<String, u32> = freqs
            .iter()
            .enumerate()
            .map(|(i, (v, _))| (v.render(), i as u32))
            .collect();
        let labels: Vec<u32> = (0..country.len())
            .map(|id| index[&country.value(id).unwrap().render()])
            .collect();
        let observed = empirical_jpd(&labels, knows, freqs.len());
        let diag = observed.diagonal_mass();
        // Independent matching yields diagonal mass Σ w_i²; SBM-Part must
        // do far better. (The full 0.8 target is not always reachable by a
        // one-pass greedy stream on an LFR graph whose communities are much
        // smaller than the biggest country group — the paper observes the
        // same structure-dependence.)
        let total: f64 = freqs.iter().map(|(_, c)| *c as f64).sum();
        let independent: f64 = freqs.iter().map(|(_, c)| (*c as f64 / total).powi(2)).sum();
        assert!(
            diag > 2.2 * independent && diag > 0.3,
            "observed diagonal {diag}, independent baseline {independent}"
        );
    }

    #[test]
    fn names_match_country_and_sex() {
        let graph = generate();
        let country = graph.node_property("Person", "country").unwrap();
        let sex = graph.node_property("Person", "sex").unwrap();
        let name = graph.node_property("Person", "name").unwrap();
        let mut checked = 0;
        for id in 0..200 {
            let c = country.value(id).unwrap().render();
            let s = sex.value(id).unwrap().render();
            let n = name.value(id).unwrap().render();
            let region = datasynth_props::data::region_of(&c);
            let pool = if s == "M" {
                datasynth_props::data::MALE_NAMES
            } else {
                datasynth_props::data::FEMALE_NAMES
            };
            let names = pool
                .iter()
                .find(|(r, _)| *r == region)
                .map(|(_, ns)| ns)
                .unwrap();
            assert!(names.contains(&n.as_str()), "{n} for {c}/{s}");
            checked += 1;
        }
        assert_eq!(checked, 200);
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let a = DataSynth::from_dsl(RUNNING_EXAMPLE)
            .unwrap()
            .with_seed(11)
            .with_threads(1)
            .generate()
            .unwrap();
        let b = DataSynth::from_dsl(RUNNING_EXAMPLE)
            .unwrap()
            .with_seed(11)
            .with_threads(7)
            .generate()
            .unwrap();
        assert_eq!(
            a.node_property("Person", "name"),
            b.node_property("Person", "name")
        );
        assert_eq!(a.edges("knows"), b.edges("knows"));
        assert_eq!(
            a.edge_property("knows", "creationDate"),
            b.edge_property("knows", "creationDate")
        );
        let c = DataSynth::from_dsl(RUNNING_EXAMPLE)
            .unwrap()
            .with_seed(12)
            .generate()
            .unwrap();
        assert_ne!(a.edges("knows"), c.edges("knows"), "seed must matter");
    }

    #[test]
    fn chunkable_structures_are_thread_count_independent() {
        // rmat is chunkable (counter-based slots split across workers);
        // barabasi_albert keeps the sequential path. Both must be
        // byte-stable across 1, 2 and 7 threads.
        let src = r#"graph g {
            node A [count = 3000] { x: long = counter(); }
            edge power: A -- A { structure = rmat(edge_factor = 8); }
            edge attach: A -- A { structure = barabasi_albert(m = 2); }
        }"#;
        let runs: Vec<PropertyGraph> = [1usize, 2, 7]
            .iter()
            .map(|&t| {
                DataSynth::from_dsl(src)
                    .unwrap()
                    .with_seed(3)
                    .with_threads(t)
                    .generate()
                    .unwrap()
            })
            .collect();
        assert_eq!(runs[0].edges("power"), runs[1].edges("power"));
        assert_eq!(runs[0].edges("power"), runs[2].edges("power"));
        assert_eq!(runs[0].edges("attach"), runs[1].edges("attach"));
        assert_eq!(runs[0].edges("attach"), runs[2].edges("attach"));
        assert!(runs[0].edges("power").unwrap().len() >= 8 * 3000);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let src = r#"graph g {
            node A [count = 10] { x: double = uniform(0, 5); }
        }"#;
        let err = DataSynth::from_dsl(src).unwrap().generate().unwrap_err();
        assert!(err.to_string().contains("declared double"), "{err}");
    }

    #[test]
    fn bad_generator_params_from_dsl_are_errors_not_panics() {
        for (src, needle) in [
            (
                r#"graph g {
                    node A [count = 10] { x: long = counter(); }
                    edge e: A -- A { structure = barabasi_albert(m = 0); }
                }"#,
                "invalid parameter m",
            ),
            (
                r#"graph g {
                    node A [count = 10] { x: long = counter(); }
                    edge e: A -- A { structure = rmat(noise = 0.9); }
                }"#,
                "invalid parameter noise",
            ),
            (
                r#"graph g {
                    node A [count = 10] { x: long = counter(); }
                    edge e: A -- A { structure = darwini(cc_spread = 0.8); }
                }"#,
                "invalid parameter cc_spread",
            ),
        ] {
            let err = DataSynth::from_dsl(src).unwrap().generate().unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn panicking_generator_is_reported_not_fatal_at_any_thread_count() {
        struct Bomb;
        impl StructureGenerator for Bomb {
            fn name(&self) -> &'static str {
                "bomb"
            }
            fn run(&self, _n: u64, _rng: &mut SplitMix64) -> EdgeTable {
                panic!("structure bomb detonated");
            }
            fn num_nodes_for_edges(&self, m: u64) -> u64 {
                m
            }
            fn capabilities(&self) -> datasynth_structure::Capabilities {
                datasynth_structure::Capabilities::default()
            }
        }
        let src = r#"graph g {
            node A [count = 64] { x: long = counter(); }
            edge e: A -- A { structure = bomb(); }
        }"#;
        for threads in [1usize, 4] {
            let err = DataSynth::from_dsl(src)
                .unwrap()
                .register_structure("bomb", |_p| Ok(Box::new(Bomb) as _))
                .with_threads(threads)
                .generate()
                .unwrap_err();
            match err {
                PipelineError::WorkerPanic(msg) => {
                    assert!(msg.contains("bomb detonated"), "{msg}")
                }
                other => panic!("expected WorkerPanic at {threads} threads, got {other:?}"),
            }
        }
    }

    #[test]
    fn one_worker_never_leaves_the_calling_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;

        /// Records which threads generate values.
        struct WhoAmI(Arc<Mutex<HashSet<ThreadId>>>);
        impl PropertyGenerator for WhoAmI {
            fn name(&self) -> &'static str {
                "who_am_i"
            }
            fn value_type(&self) -> datasynth_tables::ValueType {
                datasynth_tables::ValueType::Long
            }
            fn generate(
                &self,
                id: u64,
                _rng: &mut SplitMix64,
                _deps: &[Value],
            ) -> Result<Value, datasynth_props::GenError> {
                self.0.lock().unwrap().insert(std::thread::current().id());
                Ok(Value::Long(id as i64))
            }
        }

        // Independent columns big enough to chunk, plus an edge column:
        // every place a run can fan out.
        let src = r#"graph g {
            node A [count = 2500] { x: long = who_am_i(); y: long = who_am_i(); }
            edge e: A -- A { structure = rmat(edge_factor = 2); w: long = who_am_i(); }
        }"#;
        let threads_seen = |threads: usize| {
            let seen = Arc::new(Mutex::new(HashSet::new()));
            let probe = Arc::clone(&seen);
            DataSynth::from_dsl(src)
                .unwrap()
                .register_property("who_am_i", move |_args, _arity| {
                    Ok(Box::new(WhoAmI(Arc::clone(&probe))) as _)
                })
                .with_threads(threads)
                .generate()
                .unwrap();
            let seen = seen.lock().unwrap().clone();
            seen
        };
        let here = HashSet::from([std::thread::current().id()]);
        assert_eq!(threads_seen(1), here, "threads = 1 stays a one-thread run");
        // The probe does see a pool: its workers, never the coordinator.
        assert!(threads_seen(4).is_disjoint(&here));
    }

    #[test]
    fn edge_count_sizing() {
        let src = r#"graph g {
            node A { x: long = counter(); }
            edge e: A -- A [count = 10000] {
                structure = rmat(edge_factor = 10);
            }
        }"#;
        let graph = DataSynth::from_dsl(src).unwrap().generate().unwrap();
        assert_eq!(graph.node_count("A"), Some(1000));
        assert_eq!(graph.edges("e").unwrap().len(), 10_000);
    }

    #[test]
    fn user_registered_generators_resolve_from_the_dsl() {
        use datasynth_structure::Capabilities;
        use datasynth_tables::ValueType;

        // A structure generator the crates know nothing about: a ring.
        struct Ring;
        impl StructureGenerator for Ring {
            fn name(&self) -> &'static str {
                "ring"
            }
            fn run(&self, n: u64, _rng: &mut SplitMix64) -> EdgeTable {
                let mut et = EdgeTable::with_capacity("ring", n as usize);
                for i in 0..n {
                    et.push(i, (i + 1) % n.max(1));
                }
                et
            }
            fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
                num_edges
            }
            fn capabilities(&self) -> Capabilities {
                Capabilities::default()
            }
        }

        struct FortyTwo;
        impl PropertyGenerator for FortyTwo {
            fn name(&self) -> &'static str {
                "forty_two"
            }
            fn value_type(&self) -> ValueType {
                ValueType::Long
            }
            fn generate(
                &self,
                _id: u64,
                _rng: &mut SplitMix64,
                _deps: &[Value],
            ) -> Result<Value, datasynth_props::GenError> {
                Ok(Value::Long(42))
            }
        }

        let src = r#"graph g {
            node A [count = 16] { x: long = forty_two(); }
            edge e: A -- A [many_to_many] { structure = ring(); }
        }"#;
        let graph = DataSynth::from_dsl(src)
            .unwrap()
            .register_structure("ring", |_p| Ok(Box::new(Ring) as _))
            .register_property("forty_two", |_args, _arity| Ok(Box::new(FortyTwo) as _))
            .with_seed(5)
            .generate()
            .unwrap();
        let edges = graph.edges("e").unwrap();
        assert_eq!(edges.len(), 16, "one ring edge per node");
        assert_eq!(
            graph.node_property("A", "x").unwrap().value(3).unwrap(),
            Value::Long(42)
        );
    }

    #[test]
    fn unregistered_structure_name_reports_registry_contents() {
        let src = r#"graph g {
            node A [count = 4] { x: long = counter(); }
            edge e: A -- A { structure = rign(); }
        }"#;
        let err = DataSynth::from_dsl(src).unwrap().generate().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("rign"), "{msg}");
        assert!(msg.contains("registered:"), "{msg}");
    }

    #[test]
    fn one_to_one_bijection() {
        let src = r#"graph g {
            node A [count = 50] { x: long = counter(); }
            node B { y: long = counter(); }
            edge owns: A -> B [one_to_one] { }
        }"#;
        let graph = DataSynth::from_dsl(src).unwrap().generate().unwrap();
        assert_eq!(graph.node_count("B"), Some(50));
        let owns = graph.edges("owns").unwrap();
        let mut heads: Vec<u64> = owns.heads().to_vec();
        heads.sort_unstable();
        assert_eq!(heads, (0..50).collect::<Vec<_>>());
        let mut tails: Vec<u64> = owns.tails().to_vec();
        tails.sort_unstable();
        assert_eq!(tails, (0..50).collect::<Vec<_>>());
    }
}
