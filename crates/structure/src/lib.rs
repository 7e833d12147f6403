//! Structure Generators (SGs).
//!
//! The paper treats graph structure generation as pluggable: an SG exposes
//! `initialize(...)` (here: a constructor), `run(n) -> EdgeTable`, and
//! `getNumNodes(numEdges)` so the scale can be specified in edges. This
//! crate implements the generators the paper discusses — **RMAT** and
//! **LFR** (used in its evaluation), **BTER** (highlighted as the richest
//! tunable model) — plus the classic models any benchmarking toolbox needs
//! (Erdős–Rényi, Barabási–Albert, Watts–Strogatz, planted SBM) and the
//! cardinality-constrained attachment generators used for 1→1 / 1→*
//! edge types such as the running example's `creates`.

mod attachment;
mod barabasi_albert;
mod bter;
mod capabilities;
mod chunk;
mod darwini;
mod degree_dist;
mod degree_seq;
mod erdos_renyi;
mod factory;
mod lfr;
mod params;
mod registry;
mod rmat;
mod sbm;
mod watts_strogatz;

pub use attachment::{OneToManyGenerator, OneToOneGenerator};
pub use barabasi_albert::BarabasiAlbert;
pub use bter::{BterGenerator, CcProfile};
pub use capabilities::Capabilities;
pub use chunk::{run_chunked, shard_window};
pub use darwini::DarwiniGenerator;
pub use degree_dist::DegreeDist;
pub use degree_seq::{
    chung_lu, configuration_model, even_out_degree_sum, ConfigModelOptions, DegreeSequenceGenerator,
};
pub use erdos_renyi::{Gnm, Gnp};
pub use factory::{build_generator, GENERATOR_NAMES};
pub use lfr::{LfrGenerator, LfrParams};
pub use params::{ParamReader, ParamValue, Params};
pub use registry::{BoxedStructureGenerator, BuildError, StructureRegistry};
pub use rmat::RmatGenerator;
pub use sbm::PlantedSbm;
pub use watts_strogatz::WattsStrogatz;

use std::ops::Range;

use datasynth_prng::{CounterStream, SplitMix64};
use datasynth_tables::EdgeTable;

/// A pluggable graph structure generator (the paper's SG interface).
pub trait StructureGenerator {
    /// Identifier used by the DSL and reports.
    fn name(&self) -> &'static str;

    /// Generate the edges of a graph over nodes `0..n`, drawing randomness
    /// from `rng` (the paper's SGs carry internal state; we take the stream
    /// explicitly so generation stays deterministic and replayable).
    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable;

    /// Expected number of edges [`Self::run`] produces over `n` nodes: the
    /// formula [`Self::num_nodes_for_edges`] inverts, so state the two
    /// together. Defaults to `n`.
    fn expected_edges(&self, n: u64) -> u64 {
        n
    }

    /// Number of nodes to pass to [`Self::run`] so the resulting edge table
    /// has approximately `num_edges` edges (the paper's `getNumNodes`).
    fn num_nodes_for_edges(&self, num_edges: u64) -> u64;

    /// What this generator can reproduce (drives the Table 1 report).
    fn capabilities(&self) -> Capabilities;

    /// Whether this generator supports counter-based chunked generation
    /// through [`run_range`](Self::run_range): its work divides into a
    /// fixed partition of independent slots, each a pure function of the
    /// stream key and the slot index, so slots can be generated on any
    /// worker in any grouping. Generators with inherently sequential state
    /// (preferential attachment, rewiring, community assembly) return
    /// `false` and are driven through [`run`](Self::run) alone.
    fn chunkable(&self) -> bool {
        false
    }

    /// Number of independent work slots behind [`run_range`](Self::run_range)
    /// for a graph over `n` nodes. Only meaningful when
    /// [`chunkable`](Self::chunkable) returns `true`.
    fn num_slots(&self, n: u64) -> u64 {
        let _ = n;
        0
    }

    /// Generate the edges of work slots `range` (a sub-range of
    /// `0..num_slots(n)`), sampling each slot from `stream`. The contract:
    /// concatenating the outputs over any ordered partition of the full
    /// slot range, then applying [`finalize`](Self::finalize), must be
    /// byte-identical to [`run`](Self::run) with the `rng` the stream key
    /// was drawn from — the invariant that makes structure generation
    /// independent of the worker count (see [`run_chunked`]).
    ///
    /// # Panics
    ///
    /// The default implementation panics: callers must gate on
    /// [`chunkable`](Self::chunkable).
    fn run_range(&self, n: u64, range: Range<u64>, stream: &CounterStream) -> EdgeTable {
        let _ = (n, range, stream);
        unimplemented!(
            "{}: run_range called on a non-chunkable generator",
            self.name()
        )
    }

    /// One-shot post-pass applied to the concatenated table of a chunked
    /// run (e.g. RMAT's optional simplification). Default: identity.
    fn finalize(&self, et: EdgeTable) -> EdgeTable {
        et
    }
}

/// Ground-truth-carrying generation: generators that plant a community
/// structure (LFR, SBM) can also return the labels they planted.
pub trait PlantedPartition: StructureGenerator {
    /// Generate edges together with the planted community label per node.
    fn run_with_partition(&self, n: u64, rng: &mut SplitMix64) -> (EdgeTable, Vec<u32>);
}
