//! Golden-file and property-based tests for the lint engine.
//!
//! The golden files pin the exact JSON the CLI (`--format json`) and the
//! server (422 body) emit: any change to codes, ordering, or escaping
//! shows up as a byte diff here. CI re-runs this suite with
//! `DATASYNTH_TEST_THREADS=7`, so the pinned bytes also prove the output
//! is independent of thread count.

use proptest::prelude::*;

use datasynth_lint::{lint, render_text, Severity};
use datasynth_schema::{
    parse_schema, Cardinality, EdgeType, GeneratorSpec, NodeType, PropertyDef, Schema, Span,
    SpecArg,
};
use datasynth_tables::ValueType;

fn golden(name: &str) -> (String, String) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    let dsl = std::fs::read_to_string(format!("{dir}/{name}.dsl")).expect("golden .dsl");
    let json = std::fs::read_to_string(format!("{dir}/{name}.json")).expect("golden .json");
    (dsl, json)
}

fn check_golden(name: &str) {
    let (dsl, want) = golden(name);
    let schema = parse_schema(&dsl).expect("golden schema parses");
    let got = lint(&schema).to_json();
    // The files are generated by `datasynth lint --format json`, whose
    // println! appends one newline.
    assert_eq!(
        format!("{got}\n"),
        want,
        "lint JSON for {name}.dsl drifted from the golden file; if the \
         change is intentional, regenerate with \
         `datasynth lint --format json crates/lint/tests/golden/{name}.dsl`"
    );
}

#[test]
fn golden_ba_bad_pins_error_warning_and_note() {
    check_golden("ba_bad");
    // Spot-check the acceptance-critical positions survive in the bytes.
    let (_, json) = golden("ba_bad");
    assert!(json.contains("\"code\":\"DS001\""), "{json}");
    assert!(json.contains("\"line\":6,\"column\":17"), "{json}");
}

#[test]
fn golden_mixed_covers_ds002_through_ds006() {
    check_golden("mixed");
    let (_, json) = golden("mixed");
    for code in ["DS002", "DS003", "DS004", "DS005", "DS006"] {
        assert!(json.contains(code), "missing {code} in {json}");
    }
}

#[test]
fn diagnostics_are_ordered_by_code_then_span() {
    let (dsl, _) = golden("mixed");
    let report = lint(&parse_schema(&dsl).expect("parses"));
    let keys: Vec<_> = report
        .diagnostics
        .iter()
        .map(|d| (d.code, d.span.line, d.span.column))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "report not in canonical order");
}

#[test]
fn repeated_runs_are_byte_identical() {
    let (dsl, _) = golden("ba_bad");
    let schema = parse_schema(&dsl).expect("parses");
    let first = lint(&schema).to_json();
    for _ in 0..10 {
        assert_eq!(lint(&schema).to_json(), first);
    }
}

#[test]
fn text_rendering_carries_source_line_and_caret() {
    let (dsl, _) = golden("ba_bad");
    let schema = parse_schema(&dsl).expect("parses");
    let text = render_text(&lint(&schema), Some("ba_bad.dsl"), Some(&dsl));
    assert!(text.contains("--> ba_bad.dsl:6:17"), "{text}");
    assert!(
        text.contains("6 |     structure = barabasi_albert(m = 6000);"),
        "{text}"
    );
}

/// Lint holds no table of structure generators: everything it says about
/// one, it asks the generator the registry builds. Walks every registered
/// name, so a generator added to the factory is covered with no edit here
/// or anywhere under `crates/lint`.
#[test]
fn structure_rules_follow_the_registry() {
    use datasynth_structure::{BuildError, DegreeDist, Params, StructureRegistry};

    // A superset of every builtin's required parameters; generators
    // ignore the names they do not read.
    const ARGS: &str = "p = 0.01, m = 3";
    let registry = StructureRegistry::builtin();
    let params = Params::new().with_num("p", 0.01).with_long("m", 3);
    let report_for = |call: String| {
        let dsl = format!(
            "graph g {{ node A [count = 400] {{ x: long = uniform(0, 9); }}
               edge e: A -- A {{ structure = {call}; }} }}"
        );
        lint(&parse_schema(&dsl).unwrap_or_else(|e| panic!("{dsl}: {e}")))
    };
    let ds005 = |name: &str| {
        report_for(format!("{name}({ARGS})"))
            .diagnostics
            .into_iter()
            .find(|d| d.code == "DS005")
    };

    let mut sequential = std::collections::BTreeSet::new();
    let mut dist_users = 0;
    for name in registry.names() {
        let g = registry.build(name, &params).expect(name);
        let canonical = registry.canonical(name).expect(name);
        assert_eq!(
            g.name(),
            canonical,
            "{name} builds under its canonical name"
        );
        if !g.chunkable() {
            sequential.insert(canonical);
        }

        // DS005 <=> neither chunkable nor an attachment generator.
        let hostile = !g.chunkable() && !g.capabilities().cardinality_constrained;
        let found = ds005(name);
        assert_eq!(found.is_some(), hostile, "{name}: {found:?}");
        if let Some(d) = found {
            // Whatever the help recommends instead must be chunkable.
            let help = d.help.expect("DS005 carries help");
            let (_, listed) = help.split_once('(').expect("alternatives in parentheses");
            for alternative in listed.trim_end_matches(')').split(", ") {
                let g = registry.build(alternative, &params).expect(alternative);
                assert!(
                    g.chunkable(),
                    "DS005 recommends non-chunkable {alternative}"
                );
            }
        }

        // An alias is linted exactly like the name it resolves to.
        assert_eq!(
            report_for(format!("{name}({ARGS})")).to_json(),
            report_for(format!("{canonical}({ARGS})")).to_json(),
            "{name} vs {canonical}"
        );

        // Wherever a `dist` is read, an unknown one is DS003 with a
        // suggestion out of `DegreeDist::NAMES`.
        let typo = params.clone().with_text("dist", "zipff");
        if let Err(BuildError::InvalidParam { param: "dist", .. }) = registry.build(name, &typo) {
            dist_users += 1;
            let report = report_for(format!("{name}({ARGS}, dist = \"zipff\")"));
            let d = report.diagnostics.iter().find(|d| d.code == "DS003");
            let help = d.and_then(|d| d.help.as_deref()).expect("DS003 with help");
            let suggested = help
                .strip_prefix("did you mean \"")
                .and_then(|h| h.strip_suffix("\"?"))
                .expect(help);
            assert!(DegreeDist::NAMES.contains(&suggested), "{name}: {help}");
        }
    }
    assert!(
        dist_users > 0,
        "no generator reads `dist`: the check is vacuous"
    );

    // README keeps the one hand-written list of sequential generators.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md");
    let row = readme
        .lines()
        .find(|l| l.starts_with("| every generator whose `chunkable()` is false"))
        .expect("the sequential row of README's \"Parallel execution\" table");
    let cell = row.split('|').nth(1).expect("first cell");
    let listed: std::collections::BTreeSet<&str> =
        cell.split('`').skip(1).step_by(2).skip(1).collect();
    assert_eq!(listed, sequential, "README's sequential-generator list");
}

// ---- property-based: lint never panics on parser-accepted schemas ----

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_filter("reserved word", |s| {
        ![
            "graph",
            "node",
            "edge",
            "structure",
            "correlate",
            "with",
            "given",
            "count",
        ]
        .contains(&s.as_str())
    })
}

/// Generator specs biased toward real registry names (so the rules run
/// their interesting paths) but with arbitrary names mixed in (so DS003
/// and the near-miss machinery are exercised too).
fn any_generator() -> impl Strategy<Value = GeneratorSpec> {
    let name = prop_oneof![
        Just("uniform".to_owned()),
        Just("normal".to_owned()),
        Just("dictionary".to_owned()),
        Just("date_between".to_owned()),
        ident(),
    ];
    let arg = prop_oneof![
        any::<i64>().prop_map(SpecArg::Int),
        (-1000.0f64..1000.0).prop_map(|v| SpecArg::num((v * 10.0).round() / 10.0)),
        "[a-z0-9 _.-]{0,10}".prop_map(SpecArg::Text),
        (ident(), -100.0f64..100.0).prop_map(|(k, v)| SpecArg::named(k, (v * 10.0).round() / 10.0)),
        (ident(), "[a-z0-9_]{0,8}").prop_map(|(k, v)| SpecArg::NamedText(k, v)),
    ];
    (name, prop::collection::vec(arg, 0..4)).prop_map(|(name, args)| GeneratorSpec {
        name,
        args,
        span: Span::SYNTHETIC,
    })
}

fn structure_spec() -> impl Strategy<Value = GeneratorSpec> {
    let name = prop_oneof![
        Just("erdos_renyi".to_owned()),
        Just("barabasi_albert".to_owned()),
        Just("one_to_many".to_owned()),
        Just("one_to_one".to_owned()),
        Just("sbm".to_owned()),
        Just("lfr".to_owned()),
        ident(),
    ];
    let arg = prop_oneof![
        (ident(), -100.0f64..100.0).prop_map(|(k, v)| SpecArg::named(k, (v * 10.0).round() / 10.0)),
        (ident(), any::<i64>()).prop_map(|(k, v)| SpecArg::NamedInt(k, v)),
        (ident(), "[a-z_]{0,10}").prop_map(|(k, v)| SpecArg::NamedText(k, v)),
        Just(SpecArg::named("m", 3.0)),
        Just(SpecArg::named("p", 0.01)),
        Just(SpecArg::NamedText("dist".into(), "constant".into())),
    ];
    (name, prop::collection::vec(arg, 0..4)).prop_map(|(name, args)| GeneratorSpec {
        name,
        args,
        span: Span::SYNTHETIC,
    })
}

fn node(name: &'static str) -> impl Strategy<Value = NodeType> {
    (
        prop::collection::vec((any_generator(), 0usize..5), 0..3),
        prop::option::of(0u64..100_000),
    )
        .prop_map(move |(gens, count)| NodeType {
            name: name.to_owned(),
            count,
            properties: gens
                .into_iter()
                .enumerate()
                .map(|(i, (generator, vt))| PropertyDef {
                    name: format!("p{i}"),
                    value_type: match vt {
                        0 => ValueType::Bool,
                        1 => ValueType::Long,
                        2 => ValueType::Double,
                        3 => ValueType::Date,
                        _ => ValueType::Text,
                    },
                    generator,
                    dependencies: Vec::new(),
                    span: Span::SYNTHETIC,
                })
                .collect(),
            temporal: None,
            span: Span::SYNTHETIC,
        })
}

fn schema() -> impl Strategy<Value = Schema> {
    (
        node("TypeA"),
        node("TypeB"),
        prop::option::of(structure_spec()),
        prop_oneof![
            Just(Cardinality::OneToOne),
            Just(Cardinality::OneToMany),
            Just(Cardinality::ManyToMany),
        ],
        any::<bool>(),
    )
        .prop_map(|(a, b, structure, cardinality, directed)| {
            let edge = EdgeType {
                name: "link".to_owned(),
                source: "TypeA".to_owned(),
                target: "TypeB".to_owned(),
                directed,
                cardinality,
                count: None,
                structure,
                correlation: None,
                properties: Vec::new(),
                temporal: None,
                span: Span::SYNTHETIC,
            };
            Schema {
                name: "generated".to_owned(),
                nodes: vec![a, b],
                edges: vec![edge],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `lint` terminates without panicking on every schema the parser
    /// accepts, and its JSON output is deterministic.
    #[test]
    fn lint_never_panics_on_parser_accepted_schemas(s in schema()) {
        // Round-trip through the DSL: only parser-accepted schemas are
        // in scope (print -> parse also re-runs validation).
        let printed = s.to_dsl();
        let Ok(parsed) = parse_schema(&printed) else {
            // Validation rejected the combination; out of scope.
            return Ok(());
        };
        let report = lint(&parsed);
        prop_assert_eq!(report.to_json(), lint(&parsed).to_json());
        // Rendering must not panic either, with or without source text.
        let _ = render_text(&report, Some("g.dsl"), Some(&printed));
        let _ = render_text(&report, None, None);
        // Severity counts are consistent with the failure predicate.
        let fails = report.count(Severity::Error) > 0;
        prop_assert_eq!(report.has_errors(), fails);
    }
}
