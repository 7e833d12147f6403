//! Graph matching: assigning property-table rows to structure nodes while
//! preserving a target joint probability distribution `P(X,Y)` over the
//! property values at edge endpoints.
//!
//! This is the paper's central contribution (§4.2, "Graph Matching"):
//!
//! * [`Jpd`] — the joint distribution object and its conversion to the SBM
//!   target edge-count matrix `W`,
//! * [`sbm_part`] — **SBM-Part**, the streaming partitioner that places
//!   each arriving node into the group that moves the running edge counts
//!   closest to `W`, balanced by remaining capacity as in LDG,
//! * [`ldg_partition`] — the original LDG streaming partitioner
//!   (Stanton & Kliot, KDD'12), which fabricates the ground-truth groups
//!   of the paper's experiment,
//! * [`random_matching`] — the "no correlation" fallback,
//! * [`evaluate`] — expected-vs-observed CDF series (Figures 3 and 4),
//!   their distances, and the paper's experiment protocol
//!   ([`evaluate::Protocol`]): LDG ground truth over `k` geometric groups,
//!   the expected JPD it induces, SBM-Part on a random stream, compared.

pub mod evaluate;
mod jpd;
mod ldg;
mod matcher;
mod sbm_part;

pub use jpd::Jpd;
pub use ldg::ldg_partition;
pub use matcher::{
    assignment_to_mapping, assignment_to_mapping_with_ids, random_matching, MatchResult,
};
pub use sbm_part::{sbm_part, MatchInput};
