//! The DataSynth pipeline (the paper's Figure 2).
//!
//! Generation proceeds exactly as §4.2 describes: the schema is analyzed
//! into a dependency graph of tasks (*generate property*, *generate
//! structure*, *match graph*, plus count inference); tasks run in
//! topological order; node properties and graph structure are generated
//! independently and then **matched** so the requested property–structure
//! correlations hold; finally edge properties are generated, with access to
//! the (matched) endpoint property values.
//!
//! The input side is open at both ends: a schema enters either as DSL
//! text ([`DataSynth::from_dsl`]) or programmatically via
//! `Schema::build(..)` (see `datasynth_schema::builder`), and the
//! structure/property generator menus are per-pipeline registries —
//! [`DataSynth::register_structure`] / [`DataSynth::register_property`]
//! make user-defined generators resolvable from either frontend.
//!
//! The output side is sink-based: [`DataSynth`] is a builder whose
//! [`session`](DataSynth::session) yields a [`Session`] that streams typed
//! batches — resolved counts, property columns, finalized edge tables —
//! into any [`GraphSink`] as tasks complete, dropping each table from
//! working memory at its last use. [`DataSynth::generate`] remains as
//! sugar over an [`InMemorySink`] for consumers that want a whole
//! [`PropertyGraph`](datasynth_tables::PropertyGraph):
//!
//! ```no_run
//! use datasynth_core::DataSynth;
//!
//! let dsl = r#"
//! graph tiny {
//!   node Person [count = 1000] {
//!     country: text = dictionary("countries");
//!   }
//!   edge knows: Person -- Person {
//!     structure = lfr();
//!     correlate country with homophily(0.8);
//!   }
//! }"#;
//! let graph = DataSynth::from_dsl(dsl).unwrap().with_seed(42).generate().unwrap();
//! assert_eq!(graph.node_count("Person"), Some(1000));
//! ```
//!
//! The streaming path exports without materializing the graph — and a
//! [`MultiSink`] lets several consumers share the single pass. Progress
//! observers receive each task's row count and execute time at
//! [`TaskPhase::Finished`], and [`Session::run_into`] returns a
//! [`RunReport`] with the full per-task/per-table telemetry:
//!
//! ```no_run
//! use datasynth_core::{CsvSink, DataSynth, JsonlSink, MultiSink, TaskPhase};
//!
//! # let dsl = "graph g { node A [count = 10] { x: long = counter(); } }";
//! let generator = DataSynth::from_dsl(dsl).unwrap().with_seed(42);
//! let mut csv = CsvSink::new("out/csv");
//! let mut jsonl = JsonlSink::new("out/jsonl");
//! let mut sinks = MultiSink::new().with(&mut csv).with(&mut jsonl);
//! let report = generator
//!     .session()
//!     .unwrap()
//!     .on_task(|p| {
//!         if p.phase == TaskPhase::Finished {
//!             let rows = p.rows.unwrap_or(0);
//!             let elapsed = p.elapsed.unwrap_or_default();
//!             eprintln!("[{}/{}] {}: {rows} rows in {elapsed:.2?}", p.index + 1, p.total, p.task);
//!         }
//!     })
//!     .run_into(&mut sinks)
//!     .unwrap();
//! eprintln!("{} rows total in {:.2?}", report.total_rows(), report.wall);
//! ```

mod convert;
mod dependency;
mod error;
mod parallel;
mod report;
mod runner;
mod sink;

pub use convert::{build_jpd, gen_args_of, structure_generator_of, structure_params_of, JPD_NAMES};
pub use dependency::{
    analyze, emission_schedule, shard_modes, Analysis, Artifact, CountSource, ExecutionPlan,
    ShardMode, ShardPlan, ShardTaskPlan, Task,
};
pub use error::PipelineError;
pub use parallel::{default_threads, parallel_chunks};
pub use report::{RunReport, TaskReport};
pub use runner::{DataSynth, PlannedSchema, Session, TaskPhase, TaskProgress};
pub use sink::{
    CsvSink, DirSink, EdgeTableInfo, GraphSink, InMemorySink, JsonlSink, MultiSink, NodeTableInfo,
    PropertyInfo, ShardSpec, SinkError, SinkManifest, TableFormat, TableRows, TableSink,
    MANIFEST_FILE,
};

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::{
        CsvSink, DataSynth, ExecutionPlan, GraphSink, InMemorySink, JsonlSink, MultiSink,
        PipelineError, PlannedSchema, RunReport, Session, ShardMode, ShardPlan, ShardSpec,
        SinkError, SinkManifest, TableFormat, TableRows, TableSink, Task, TaskPhase, TaskProgress,
        TaskReport, MANIFEST_FILE,
    };
    pub use datasynth_prng::{CounterStream, SplitMix64};
    pub use datasynth_props::{
        BoxedPropertyGenerator, GenArg, PropertyGenerator, PropertyRegistry, RegistryError,
    };
    pub use datasynth_schema::{parse_schema, PropertySpec, Schema, SchemaBuilder};
    pub use datasynth_structure::{
        BoxedStructureGenerator, BuildError, Capabilities, Params, StructureGenerator,
        StructureRegistry,
    };
    pub use datasynth_tables::{
        export::{CsvExporter, Exporter, JsonlExporter},
        PropertyGraph, Value, ValueType,
    };
    pub use datasynth_telemetry::{CountingWrite, MetricsRegistry};
}
