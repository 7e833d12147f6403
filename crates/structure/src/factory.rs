//! The shipped structure-generator library, expressed as registry
//! entries: one constructor function per DSL name, all parameter
//! extraction going through [`ParamReader`] so errors are uniform.

use std::sync::OnceLock;

use crate::bter::CcProfile;
use crate::registry::{BoxedStructureGenerator, BuildError, StructureRegistry};
use crate::{
    BarabasiAlbert, BterGenerator, DarwiniGenerator, DegreeDist, Gnm, Gnp, LfrGenerator, LfrParams,
    OneToManyGenerator, OneToOneGenerator, Params, PlantedSbm, RmatGenerator, WattsStrogatz,
};

/// Names shipped by [`StructureRegistry::builtin`] (canonical spellings;
/// the registry also knows the aliases `gnp`, `ba`, `ws` and
/// `configuration_model`).
pub const GENERATOR_NAMES: &[&str] = &[
    "rmat",
    "lfr",
    "bter",
    "darwini",
    "erdos_renyi",
    "gnm",
    "barabasi_albert",
    "watts_strogatz",
    "sbm",
    "degree_sequence",
    "one_to_many",
    "one_to_one",
];

fn rmat(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("rmat");
    let a = r.f64_or("a", 0.57);
    let b = r.f64_or("b", 0.19);
    let c = r.f64_or("c", 0.19);
    if a + b + c > 1.0 + 1e-9 || a <= 0.0 || b < 0.0 || c < 0.0 {
        return Err(r.bad(
            "a/b/c",
            "quadrant probabilities must be nonnegative and sum <= 1",
        ));
    }
    let g = RmatGenerator::new(
        a,
        b,
        c,
        r.u64_or("edge_factor", 16).max(1),
        r.u64_or("simplify", 0) == 1,
    )
    .with_noise(r.f64_or("noise", 0.1))?;
    Ok(Box::new(g))
}

fn lfr(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("lfr");
    let p = LfrParams {
        average_degree: r.f64_or("avg_degree", 20.0),
        max_degree: r.u64_or("max_degree", 50),
        degree_exponent: r.f64_or("degree_exponent", 2.0),
        community_exponent: r.f64_or("community_exponent", 1.0),
        min_community: r.u64_or("min_community", 10),
        max_community: r.u64_or("max_community", 50),
        mixing: r.f64_in("mixing", 0.1, 0.0, 1.0)?,
    };
    // `LfrGenerator::new` asserts these; DSL input must fail as an error.
    if p.min_community < 2 || p.min_community > p.max_community {
        return Err(r.bad("min_community", "need 2 <= min_community <= max_community"));
    }
    if !(p.average_degree > 1.0 && p.average_degree < p.max_degree as f64) {
        return Err(r.bad("avg_degree", "need 1 < avg_degree < max_degree"));
    }
    Ok(Box::new(LfrGenerator::new(p)))
}

fn bter(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("bter");
    let dd = DegreeDist::from_params(r)?;
    let cc = if let Some(c) = r.get_f64("cc") {
        CcProfile::Constant(c)
    } else {
        CcProfile::ExponentialDecay {
            c0: r.f64_or("cc_max", 0.6),
            scale: r.f64_or("cc_scale", 15.0),
        }
    };
    Ok(Box::new(BterGenerator::new(dd, cc)))
}

fn darwini(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("darwini");
    let dd = DegreeDist::from_params(r)?;
    let cc = CcProfile::ExponentialDecay {
        c0: r.f64_or("cc_max", 0.6),
        scale: r.f64_or("cc_scale", 15.0),
    };
    let buckets = r.u64_or("buckets", 8);
    let buckets = u32::try_from(buckets).map_err(|_| r.bad("buckets", "exceeds u32 range"))?;
    Ok(Box::new(DarwiniGenerator::new(
        dd,
        cc,
        r.f64_or("cc_spread", 0.1),
        buckets,
    )?))
}

fn erdos_renyi(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("erdos_renyi");
    Ok(Box::new(Gnp::new(r.require_f64_in("p", 0.0, 1.0)?)))
}

fn gnm(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("gnm");
    Ok(Box::new(Gnm::new(r.require_u64("m")?)))
}

fn barabasi_albert(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("barabasi_albert");
    Ok(Box::new(BarabasiAlbert::new(
        r.u64_or("m", BarabasiAlbert::DEFAULT_M),
    )?))
}

fn watts_strogatz(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("watts_strogatz");
    let k = r.u64_or("k", 4);
    if k < 2 || k % 2 == 1 {
        return Err(r.bad("k", "must be even and >= 2"));
    }
    Ok(Box::new(WattsStrogatz::new(
        k,
        r.f64_or("beta", 0.1).clamp(0.0, 1.0),
    )))
}

fn sbm(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("sbm");
    Ok(Box::new(PlantedSbm::homophilous(
        r.u64_or("groups", 4).max(1) as usize,
        r.u64_or("group_size", 100).max(1),
        r.f64_or("p_intra", 0.1).clamp(0.0, 1.0),
        r.f64_or("p_inter", 0.01).clamp(0.0, 1.0),
    )))
}

fn degree_sequence(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    Ok(Box::new(crate::DegreeSequenceGenerator::new(
        DegreeDist::from_params(params.reader("degree_sequence"))?,
    )))
}

fn one_to_many(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    Ok(Box::new(OneToManyGenerator::new(DegreeDist::from_params(
        params.reader("one_to_many"),
    )?)))
}

fn one_to_one(_params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    Ok(Box::new(OneToOneGenerator))
}

/// Fill `registry` with the shipped generators and their DSL aliases.
pub(crate) fn register_builtins(registry: &mut StructureRegistry) {
    registry.register("rmat", rmat);
    registry.register("lfr", lfr);
    registry.register("bter", bter);
    registry.register("darwini", darwini);
    registry.register("erdos_renyi", erdos_renyi);
    registry.register("gnm", gnm);
    registry.register("barabasi_albert", barabasi_albert);
    registry.register("watts_strogatz", watts_strogatz);
    registry.register("sbm", sbm);
    registry.register("degree_sequence", degree_sequence);
    registry.register("one_to_many", one_to_many);
    registry.register("one_to_one", one_to_one);
    registry.alias("gnp", "erdos_renyi");
    registry.alias("ba", "barabasi_albert");
    registry.alias("ws", "watts_strogatz");
    registry.alias("configuration_model", "degree_sequence");
}

/// Construct a structure generator from the *builtin* registry; kept as a
/// convenience for code that needs no user extensions. The pipeline
/// resolves through the [`StructureRegistry`] carried by `DataSynth`.
pub fn build_generator(name: &str, params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    static BUILTIN: OnceLock<StructureRegistry> = OnceLock::new();
    BUILTIN
        .get_or_init(StructureRegistry::builtin)
        .build(name, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StructureGenerator;
    use datasynth_prng::SplitMix64;

    type BuildResult = Result<Box<dyn StructureGenerator + Send + Sync>, BuildError>;

    fn expect_err(r: BuildResult) -> BuildError {
        match r {
            Err(e) => e,
            Ok(g) => panic!("expected an error, built {}", g.name()),
        }
    }

    #[test]
    fn every_registered_name_builds_with_defaults() {
        for &name in GENERATOR_NAMES {
            let mut params = Params::new();
            if name == "erdos_renyi" {
                params = params.with_num("p", 0.05);
            }
            if name == "gnm" {
                params = params.with_num("m", 100.0);
            }
            let g = build_generator(name, &params).unwrap_or_else(|e| panic!("{name} failed: {e}"));
            let et = g.run(64, &mut SplitMix64::new(1));
            // SBM ignores n; everything must at least produce a table.
            assert!(!et.is_empty() || name == "one_to_many", "{name} empty");
        }
    }

    #[test]
    fn canonical_names_match_the_registry() {
        let registry = StructureRegistry::builtin();
        for &name in GENERATOR_NAMES {
            assert!(registry.contains(name), "{name} missing from builtin()");
        }
    }

    #[test]
    fn unknown_name_is_reported() {
        let err = expect_err(build_generator("nope", &Params::new()));
        assert!(matches!(err, BuildError::UnknownGenerator { .. }));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn missing_param_is_reported() {
        let err = expect_err(build_generator("erdos_renyi", &Params::new()));
        assert!(matches!(
            err,
            BuildError::MissingParam {
                generator: "erdos_renyi",
                param: "p"
            }
        ));
    }

    #[test]
    fn bad_param_is_reported() {
        let err = expect_err(build_generator(
            "watts_strogatz",
            &Params::new().with_num("k", 3.0),
        ));
        assert!(matches!(err, BuildError::InvalidParam { .. }));
        let err = expect_err(build_generator(
            "one_to_many",
            &Params::new().with_text("dist", "unheard_of"),
        ));
        assert!(err.to_string().contains("unheard_of"));
    }

    #[test]
    fn constructor_asserts_surface_as_registry_errors_not_panics() {
        // Each of these used to trip an `assert!` inside the generator
        // constructor; all are reachable from DSL/builder params.
        let err = expect_err(build_generator(
            "barabasi_albert",
            &Params::new().with_num("m", 0.0),
        ));
        assert!(
            matches!(
                err,
                BuildError::InvalidParam {
                    generator: "barabasi_albert",
                    param: "m",
                    ..
                }
            ),
            "{err:?}"
        );
        let err = expect_err(build_generator(
            "rmat",
            &Params::new().with_num("noise", 0.9),
        ));
        assert!(
            matches!(
                err,
                BuildError::InvalidParam {
                    generator: "rmat",
                    param: "noise",
                    ..
                }
            ),
            "{err:?}"
        );
        let err = expect_err(build_generator(
            "darwini",
            &Params::new().with_num("cc_spread", 0.75),
        ));
        assert!(
            matches!(
                err,
                BuildError::InvalidParam {
                    generator: "darwini",
                    param: "cc_spread",
                    ..
                }
            ),
            "{err:?}"
        );
        let err = expect_err(build_generator(
            "darwini",
            &Params::new().with_num("buckets", 0.0),
        ));
        assert!(
            matches!(
                err,
                BuildError::InvalidParam {
                    generator: "darwini",
                    param: "buckets",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn aliases_resolve() {
        assert!(build_generator("ba", &Params::new()).is_ok());
        assert!(build_generator("gnp", &Params::new().with_num("p", 0.1)).is_ok());
        assert!(build_generator("ws", &Params::new()).is_ok());
    }
}
