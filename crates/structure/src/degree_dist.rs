//! The degree distribution behind `one_to_many`, `degree_sequence`, `bter`
//! and `darwini`. Each question about it — how a degree is drawn, what it
//! is on average, what it is at least, how the DSL spells it — is answered
//! by the one `match` in this module.

use datasynth_prng::dist::{DiscretePowerLaw, Empirical, Geometric, Sampler, UniformU64, Zipf};
use datasynth_prng::SplitMix64;

use crate::{BuildError, ParamReader};

/// Per-node degree distribution.
#[derive(Debug, Clone)]
pub enum DegreeDist {
    /// Every source gets exactly `k` targets.
    Constant(u64),
    /// Uniform in an inclusive range.
    Uniform(UniformU64),
    /// Zipf-distributed (rank 1 = heaviest creator).
    Zipf(Zipf),
    /// Truncated discrete power law.
    PowerLaw(DiscretePowerLaw),
    /// Geometric (many sources create little, few create a lot).
    Geometric(Geometric),
    /// Learned from observed out-degrees.
    Empirical(Empirical),
}

impl DegreeDist {
    /// The `dist = "..."` spellings [`from_params`](Self::from_params)
    /// accepts (`Empirical` is built programmatically only).
    pub const NAMES: &'static [&'static str] =
        &["constant", "uniform", "zipf", "power_law", "geometric"];

    /// Read `dist` (default `power_law`) and its parameters.
    pub fn from_params(r: ParamReader<'_>) -> Result<Self, BuildError> {
        Ok(match r.str_or("dist", "power_law") {
            "constant" => DegreeDist::Constant(r.u64_or("k", 1)),
            "uniform" => {
                let lo = r.u64_or("min", 0);
                let hi = r.u64_or("max", 4);
                if lo > hi {
                    return Err(r.bad("min", "min exceeds max"));
                }
                DegreeDist::Uniform(UniformU64::new(lo, hi))
            }
            "zipf" => {
                let exponent = r.f64_or("exponent", 1.5);
                if !(exponent > 0.0 && exponent.is_finite()) {
                    return Err(r.bad("exponent", "must be positive"));
                }
                DegreeDist::Zipf(Zipf::new(exponent, r.u64_or("max", 1000).max(1)))
            }
            "power_law" => {
                let kmin = r.u64_or("min", 1).max(1);
                let kmax = r.u64_or("max", 100);
                if kmin > kmax {
                    return Err(r.bad("min", "min exceeds max"));
                }
                DegreeDist::PowerLaw(DiscretePowerLaw::new(r.f64_or("exponent", 2.0), kmin, kmax))
            }
            "geometric" => {
                let p = r.f64_or("p", 0.4);
                if !(p > 0.0 && p <= 1.0) {
                    return Err(r.bad("p", "must be in (0, 1]"));
                }
                DegreeDist::Geometric(Geometric::new(p))
            }
            other => return Err(r.bad("dist", format!("unknown distribution {other}"))),
        })
    }

    /// Expected degree — what every `expected_edges` /
    /// `num_nodes_for_edges` pair of a degree-driven generator sizes with.
    pub fn mean(&self) -> f64 {
        match self {
            DegreeDist::Constant(k) => *k as f64,
            DegreeDist::Uniform(d) => (d.lo() as f64 + d.hi() as f64) / 2.0,
            // Zipf mean has no closed form here; estimate from pmf head.
            DegreeDist::Zipf(d) => {
                let n = d.n().min(10_000);
                (1..=n).map(|k| k as f64 * d.pmf(k)).sum()
            }
            DegreeDist::PowerLaw(d) => d.mean(),
            DegreeDist::Geometric(d) => (1.0 - d.p()) / d.p(),
            DegreeDist::Empirical(d) => d.mean(),
        }
    }

    /// A degree every draw is guaranteed to reach (a floor, not
    /// necessarily the tightest one: empirical histograms report 0).
    pub fn min(&self) -> u64 {
        match self {
            DegreeDist::Constant(k) => *k,
            DegreeDist::Uniform(d) => d.lo(),
            DegreeDist::Zipf(_) => 1,
            DegreeDist::PowerLaw(d) => d.kmin(),
            DegreeDist::Geometric(_) | DegreeDist::Empirical(_) => 0,
        }
    }
}

impl Sampler for DegreeDist {
    type Output = u64;

    fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match self {
            DegreeDist::Constant(k) => *k,
            DegreeDist::Uniform(d) => d.sample(rng),
            DegreeDist::Zipf(d) => d.sample(rng),
            DegreeDist::PowerLaw(d) => d.sample(rng),
            DegreeDist::Geometric(d) => d.sample(rng),
            DegreeDist::Empirical(d) => d.sample(rng),
        }
    }
}
