//! Bridges between the schema's [`GeneratorSpec`] and the concrete
//! registries (property generators, structure generators, JPDs).

use datasynth_matching::Jpd;
use datasynth_props::GenArg;
use datasynth_schema::{Cardinality, EdgeType, GeneratorSpec, SpecArg};
use datasynth_structure::{BoxedStructureGenerator, ParamValue, Params, StructureRegistry};

use crate::error::PipelineError;

/// Convert a property generator call's arguments (positional and weighted
/// only; named arguments are a structure-generator convention).
pub fn gen_args_of(spec: &GeneratorSpec) -> Result<Vec<GenArg>, PipelineError> {
    spec.args
        .iter()
        .map(|a| match a {
            SpecArg::Num(v) => Ok(GenArg::Num(*v)),
            SpecArg::Int(v) => Ok(GenArg::Int(*v)),
            SpecArg::Text(s) => Ok(GenArg::Text(s.clone())),
            SpecArg::Weighted(l, w) => Ok(GenArg::Weighted(l.clone(), *w)),
            SpecArg::Named(k, _) | SpecArg::NamedInt(k, _) | SpecArg::NamedText(k, _) => Err(PipelineError::Invalid(
                format!("property generator {:?} takes positional arguments, found named argument {k:?}", spec.name),
            )),
        })
        .collect()
}

/// Convert a structure generator call's arguments (named only).
pub fn structure_params_of(spec: &GeneratorSpec) -> Result<Params, PipelineError> {
    let mut params = Params::new();
    for a in &spec.args {
        match a {
            SpecArg::Named(k, v) => params.insert(k.clone(), ParamValue::Num(*v)),
            SpecArg::NamedInt(k, v) => params.insert(k.clone(), ParamValue::Int(*v)),
            SpecArg::NamedText(k, s) => params.insert(k.clone(), ParamValue::Text(s.clone())),
            other => {
                return Err(PipelineError::Invalid(format!(
                    "structure generator {:?} takes named arguments, found {other:?}",
                    spec.name
                )));
            }
        }
    }
    Ok(params)
}

/// The structure generator `edge` runs: its `structure = ...` clause, or
/// the cardinality-driven default when it declares none. The runner and
/// the linter both build through here, so they cannot disagree.
pub fn structure_generator_of(
    edge: &EdgeType,
    structures: &StructureRegistry,
) -> Result<BoxedStructureGenerator, PipelineError> {
    let (name, params) = match &edge.structure {
        Some(spec) => (spec.name.as_str(), structure_params_of(spec)?),
        None => match edge.cardinality {
            Cardinality::OneToOne => ("one_to_one", Params::new()),
            Cardinality::OneToMany => ("one_to_many", Params::new()),
            Cardinality::ManyToMany => ("erdos_renyi", Params::new().with_num("p", 0.01)),
        },
    };
    Ok(structures.build(name, &params)?)
}

/// The correlation targets [`build_jpd`] knows.
pub const JPD_NAMES: &[&str] = &["homophily", "uniform", "proportional"];

/// Build the target JPD for a correlation clause, given the observed value
/// frequencies of the correlated property (in group order).
pub fn build_jpd(spec: &GeneratorSpec, frequencies: &[u64]) -> Result<Jpd, PipelineError> {
    let weights: Vec<f64> = frequencies.iter().map(|&f| f as f64).collect();
    match spec.name.as_str() {
        "homophily" => {
            let diag = spec
                .args
                .iter()
                .find_map(|a| match a {
                    SpecArg::Num(v) => Some(*v),
                    SpecArg::Int(v) => Some(*v as f64),
                    SpecArg::Named(k, v) if k == "diag" => Some(*v),
                    SpecArg::NamedInt(k, v) if k == "diag" => Some(*v as f64),
                    _ => None,
                })
                .unwrap_or(0.8);
            if !(0.0..=1.0).contains(&diag) {
                return Err(PipelineError::Invalid(
                    "homophily(diag) requires diag in [0, 1]".into(),
                ));
            }
            Ok(Jpd::homophilous(&weights, diag))
        }
        "uniform" => Ok(Jpd::uniform(weights.len())),
        "proportional" => {
            // P(i,j) ∝ w_i · w_j: what independent random matching yields;
            // useful as an explicit null model.
            let total: f64 = weights.iter().sum();
            let k = weights.len();
            let rows: Vec<Vec<f64>> = (0..k)
                .map(|i| {
                    (0..k)
                        .map(|j| weights[i] / total * weights[j] / total)
                        .collect()
                })
                .collect();
            Ok(Jpd::from_matrix(&rows))
        }
        other => Err(PipelineError::Invalid(format!(
            "unknown correlation target {other:?} (expected homophily, uniform or proportional)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_schema::Span;

    #[test]
    fn gen_args_convert_positional() {
        let spec = GeneratorSpec {
            name: "categorical".into(),
            args: vec![
                SpecArg::Weighted("M".into(), 0.5),
                SpecArg::Num(3.0),
                SpecArg::Text("x".into()),
            ],
            span: Span::SYNTHETIC,
        };
        let args = gen_args_of(&spec).unwrap();
        assert_eq!(args.len(), 3);
        assert!(matches!(&args[0], GenArg::Weighted(l, w) if l == "M" && *w == 0.5));
    }

    #[test]
    fn gen_args_reject_named() {
        let spec = GeneratorSpec {
            name: "uniform".into(),
            args: vec![SpecArg::Named("lo".into(), 0.0)],
            span: Span::SYNTHETIC,
        };
        assert!(gen_args_of(&spec).is_err());
    }

    #[test]
    fn structure_params_convert_named() {
        let spec = GeneratorSpec {
            name: "lfr".into(),
            args: vec![
                SpecArg::Named("mixing".into(), 0.1),
                SpecArg::NamedInt("avg_degree".into(), 20),
                SpecArg::NamedText("dist".into(), "zipf".into()),
            ],
            span: Span::SYNTHETIC,
        };
        let p = structure_params_of(&spec).unwrap();
        assert_eq!(p.get_f64("mixing"), Some(0.1));
        assert_eq!(p.get_f64("avg_degree"), Some(20.0));
        assert_eq!(p.get_u64("avg_degree"), Some(20));
        assert_eq!(p.get_str("dist"), Some("zipf"));
    }

    #[test]
    fn gen_args_carry_integers_exactly() {
        let spec = GeneratorSpec {
            name: "uniform".into(),
            args: vec![SpecArg::Int(0), SpecArg::Int(9_007_199_254_740_993)],
            span: Span::SYNTHETIC,
        };
        let args = gen_args_of(&spec).unwrap();
        assert_eq!(args[1], GenArg::Int(9_007_199_254_740_993));
    }

    #[test]
    fn structure_params_reject_positional() {
        let spec = GeneratorSpec {
            name: "lfr".into(),
            args: vec![SpecArg::Num(5.0)],
            span: Span::SYNTHETIC,
        };
        assert!(structure_params_of(&spec).is_err());
    }

    #[test]
    fn jpd_specs() {
        let freqs = [10u64, 30, 60];
        let homo = build_jpd(
            &GeneratorSpec {
                name: "homophily".into(),
                args: vec![SpecArg::Num(0.7)],
                span: Span::SYNTHETIC,
            },
            &freqs,
        )
        .unwrap();
        assert!((homo.diagonal_mass() - 0.7).abs() < 1e-9);
        let unif = build_jpd(&GeneratorSpec::bare("uniform"), &freqs).unwrap();
        assert_eq!(unif.k(), 3);
        let prop = build_jpd(&GeneratorSpec::bare("proportional"), &freqs).unwrap();
        assert!(prop.ordered_mass(2, 2) > prop.ordered_mass(0, 0));
        assert!(build_jpd(&GeneratorSpec::bare("magic"), &freqs).is_err());
    }
}
