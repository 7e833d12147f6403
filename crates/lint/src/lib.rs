//! Static analysis over DataSynth schemas and execution plans.
//!
//! The DSL parser and validator reject malformed schemas, but plenty of
//! well-formed schemas are still wrong: a `barabasi_albert(m = 6000)`
//! over 5 000 nodes can never run, a temporal edge between non-temporal
//! nodes produces an op log referencing ids nobody inserted, an `lfr`
//! structure silently turns sharded generation into N full recomputes.
//! This crate finds those before any row is generated.
//!
//! Diagnostics carry a stable code (`DS001`…), a severity, and the
//! source [`Span`] of the offending declaration,
//! so they render rustc-style with the exact line and column:
//!
//! ```text
//! error[DS001]: barabasi_albert requires m < n, but m = 6000 and Person has [count = 5000]
//!   --> social.dsl:15:17
//!    |
//! 15 |     structure = barabasi_albert(m = 6000);
//!    |                 ^
//!   = subject: edge knows
//! ```
//!
//! # Rule layers
//!
//! | Code  | Severity | Checks |
//! |-------|----------|--------|
//! | DS001 | error    | unsatisfiable sizing (BA `m >= n`, sbm totals, 1→N fan-out vs target count, 1→1 count mismatch) |
//! | DS002 | warning  | distribution domain mismatches (negative support into dates / lifetimes) |
//! | DS003 | error    | unknown structure/property/correlation generators, with near-miss suggestions |
//! | DS004 | warning  | dead node types (no artifacts, no references) |
//! | DS005 | warning  | shard-hostile structure generators (full recompute per shard) |
//! | DS006 | warning  | temporal edges whose endpoints are excluded from the op log |
//! | DS007 | note     | estimated peak working set above 10 M live rows |
//! | DS008 | note     | schema derives zero executable workload templates (`--workload` / `bench-workload` would be empty) |
//!
//! # Use
//!
//! ```
//! use datasynth_schema::parse_schema;
//!
//! let schema = parse_schema(
//!     "graph g {
//!        node A [count = 10] { x: long = uniform(0, 9); }
//!        node B [count = 20] { y: long = uniform(0, 9); }
//!        edge e: A -- B [one_to_one] { structure = one_to_one(); }
//!      }",
//! )
//! .unwrap();
//! let report = datasynth_lint::lint(&schema);
//! assert!(report.has_errors()); // DS001: one_to_one counts differ
//! assert_eq!(report.diagnostics[0].code, "DS001");
//! ```

mod diagnostic;
mod render;
mod rules;

pub use diagnostic::{Diagnostic, LintReport, Severity};
pub use render::render_text;
pub use rules::{builtin_rules, LintContext, LintRule};

use std::collections::BTreeMap;

use datasynth_core::{analyze, emission_schedule, structure_generator_of};
use datasynth_schema::{Schema, Span};
use datasynth_structure::StructureRegistry;

/// An extensible rule registry. [`Linter::builtin`] loads the shipped
/// `DS001`–`DS008` set; [`Linter::register`] adds custom rules beside
/// them. Output order is always canonical `(code, line, column)`, so
/// registration order does not matter.
pub struct Linter {
    rules: Vec<Box<dyn LintRule>>,
}

impl Default for Linter {
    fn default() -> Self {
        Self::builtin()
    }
}

impl Linter {
    /// An empty linter (no rules).
    pub fn empty() -> Self {
        Self { rules: Vec::new() }
    }

    /// The shipped rule set.
    pub fn builtin() -> Self {
        Self {
            rules: builtin_rules(),
        }
    }

    /// Add a custom rule.
    pub fn register(&mut self, rule: Box<dyn LintRule>) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// Names of the registered rules (diagnostic codes live on the
    /// findings themselves).
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Run every rule over `schema`. Dependency analysis runs once and
    /// is shared by plan-level rules; when analysis itself fails, the
    /// failure surfaces as a `DS001` error (sizing problems are exactly
    /// what makes analysis fail) and plan-level rules are skipped. Each
    /// edge type's structure generator is built once, the way a run
    /// builds it, and shared by the rules that reason about structure.
    pub fn run(&self, schema: &Schema) -> LintReport {
        let mut diagnostics = Vec::new();
        let analysis = analyze(schema);
        let (analysis_ref, schedule) = match &analysis {
            Ok(a) => (Some(a), Some(emission_schedule(schema, a))),
            Err(e) => {
                diagnostics.push(Diagnostic::new(
                    "DS001",
                    Severity::Error,
                    Span::SYNTHETIC,
                    format!("graph {}", schema.name),
                    format!("dependency analysis failed: {e}"),
                ));
                (None, None)
            }
        };
        let structures = StructureRegistry::builtin();
        let generators: BTreeMap<_, _> = schema
            .edges
            .iter()
            .map(|e| (e.name.as_str(), structure_generator_of(e, &structures)))
            .collect();
        let ctx = LintContext {
            schema,
            analysis: analysis_ref,
            schedule: schedule.as_deref(),
            generators: &generators,
        };
        for rule in &self.rules {
            rule.check(&ctx, &mut diagnostics);
        }
        LintReport::from_diagnostics(diagnostics)
    }
}

/// Lint `schema` with the built-in rule set. The one-call entry point
/// for library users:
/// `datasynth::lint::lint(&schema).has_errors()`.
pub fn lint(schema: &Schema) -> LintReport {
    Linter::builtin().run(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_schema::parse_schema;

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_schema_is_clean() {
        let schema = parse_schema(
            "graph g {
               node Person [count = 100] {
                 age: long = uniform(0, 90);
               }
               edge knows: Person -- Person [many_to_many] {
                 structure = erdos_renyi(p = 0.05);
               }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn ds001_barabasi_albert_m_geq_n_with_position() {
        let src = "\
graph g {
  node Person [count = 5000] {
    age: long = uniform(0, 90);
  }
  edge knows: Person -- Person [many_to_many] {
    structure = barabasi_albert(m = 6000);
  }
}";
        let schema = parse_schema(src).unwrap();
        let report = lint(&schema);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "DS001")
            .expect("DS001 missing");
        assert_eq!(d.severity, Severity::Error);
        // The span is the generator call: line 6, `barabasi_albert` at
        // column 17 (1-based).
        assert_eq!((d.span.line, d.span.column), (6, 17));
        assert!(d.message.contains("m = 6000"), "{}", d.message);
        // DS005 fires too: barabasi_albert is shard-hostile.
        assert!(codes(&report).contains(&"DS005"));
    }

    #[test]
    fn ds001_one_to_one_count_mismatch() {
        let schema = parse_schema(
            "graph g {
               node A [count = 10] { x: long = uniform(0, 9); }
               node B [count = 20] { y: long = uniform(0, 9); }
               edge e: A -- B [one_to_one] { structure = one_to_one(); }
             }",
        )
        .unwrap();
        assert!(codes(&lint(&schema)).contains(&"DS001"));
    }

    #[test]
    fn ds001_fanout_overflow() {
        let schema = parse_schema(
            "graph g {
               node A [count = 100] { x: long = uniform(0, 9); }
               node B [count = 150] { y: long = uniform(0, 9); }
               edge e: A -> B [one_to_many] {
                 structure = one_to_many(dist = \"constant\", k = 2);
               }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "DS001")
            .expect("DS001 missing");
        assert!(d.message.contains("at least 200"), "{}", d.message);
    }

    #[test]
    fn ds002_negative_support_into_dates_and_lifetimes() {
        let schema = parse_schema(
            "graph g {
               node A [count = 10] {
                 when: date = normal(0, 10);
               }
               node B [count = 10] {
                 x: long = uniform(0, 9);
                 temporal {
                   arrival = date_between(\"2020-01-01\", \"2021-01-01\");
                   lifetime = uniform(-5, 10);
                 }
               }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        assert_eq!(
            codes(&report).iter().filter(|c| **c == "DS002").count(),
            2,
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn ds003_unknown_generators_suggest_near_misses() {
        let schema = parse_schema(
            "graph g {
               node Person [count = 100] {
                 country: text = dictionarry(\"countries\");
               }
               edge knows: Person -- Person [many_to_many] {
                 structure = erdos_reny(p = 0.1);
               }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        let ds003: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "DS003")
            .collect();
        assert_eq!(ds003.len(), 2, "{:?}", report.diagnostics);
        assert!(ds003
            .iter()
            .any(|d| d.help.as_deref() == Some("did you mean \"dictionary\"?")));
        assert!(ds003
            .iter()
            .any(|d| d.help.as_deref() == Some("did you mean \"erdos_renyi\"?")));
    }

    #[test]
    fn ds004_dead_node_type() {
        let schema = parse_schema(
            "graph g {
               node Used [count = 10] { x: long = uniform(0, 9); }
               node Dead [count = 10] { }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "DS004")
            .expect("DS004 missing");
        assert!(d.subject.contains("Dead"), "{:?}", d);
    }

    #[test]
    fn ds006_temporal_edge_with_untracked_endpoint() {
        let schema = parse_schema(
            "graph g {
               node Person [count = 10] { x: long = uniform(0, 9); }
               edge knows: Person -- Person [many_to_many] {
                 structure = erdos_renyi(p = 0.1);
                 temporal {
                   arrival = date_between(\"2020-01-01\", \"2021-01-01\");
                 }
               }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        // Source and target are the same untracked type: one finding, not
        // two (endpoints dedup for self-edges).
        assert_eq!(codes(&report).iter().filter(|c| **c == "DS006").count(), 1);
    }

    #[test]
    fn ds007_peak_estimate_on_large_schemas() {
        let schema = parse_schema(
            "graph g {
               node Person [count = 10000000] {
                 a: long = uniform(0, 9);
                 b: long = uniform(0, 9);
               }
               edge knows: Person -- Person [many_to_many] {
                 structure = erdos_renyi(p = 0.000002);
               }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        assert!(
            codes(&report).contains(&"DS007"),
            "{:?}",
            report.diagnostics
        );
        assert!(!report.fails(true), "notes never fail a run");
    }

    #[test]
    fn ds008_empty_schema_derives_no_workload() {
        let schema = parse_schema("graph g { }").unwrap();
        let report = lint(&schema);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.code == "DS008")
            .expect("DS008 missing");
        assert_eq!(d.severity, Severity::Note);
        assert!(d.message.contains("workload"), "{}", d.message);
        assert!(!report.fails(true), "notes never fail a run");

        // Any node type derives at least a point lookup: no DS008.
        let populated = parse_schema(
            "graph g {
               node A [count = 10] { x: long = uniform(0, 9); }
             }",
        )
        .unwrap();
        assert!(!codes(&lint(&populated)).contains(&"DS008"));
    }

    #[test]
    fn analysis_failure_surfaces_as_ds001() {
        // B's count is underdetermined: no count, no deriving edge.
        let schema = parse_schema(
            "graph g {
               node A [count = 10] { x: long = uniform(0, 9); }
               node B { y: long = uniform(0, 9); }
             }",
        )
        .unwrap();
        let report = lint(&schema);
        assert!(report.has_errors());
        assert!(codes(&report).contains(&"DS001"));
    }

    #[test]
    fn builder_schemas_lint_with_synthetic_spans() {
        use datasynth_schema::PropertySpec;
        use datasynth_tables::ValueType;
        let schema = Schema::build("g")
            .node("A", |n| {
                n.count(10)
                    .property("x", PropertySpec::of(ValueType::Long).uniform(0, 9))
            })
            .finish()
            .unwrap();
        let report = lint(&schema);
        for d in &report.diagnostics {
            assert!(!d.span.is_real(), "builder spans must be synthetic: {d:?}");
        }
    }

    #[test]
    fn custom_rules_can_be_registered() {
        struct Nag;
        impl LintRule for Nag {
            fn name(&self) -> &'static str {
                "nag"
            }
            fn check(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
                out.push(Diagnostic::new(
                    "DS099",
                    Severity::Note,
                    Span::SYNTHETIC,
                    format!("graph {}", ctx.schema.name),
                    "custom rule ran",
                ));
            }
        }
        let schema =
            parse_schema("graph g { node A [count = 1] { x: long = uniform(0, 9); } }").unwrap();
        let mut linter = Linter::builtin();
        linter.register(Box::new(Nag));
        let report = linter.run(&schema);
        assert!(report.diagnostics.iter().any(|d| d.code == "DS099"));
        assert!(linter.rule_names().contains(&"nag"));
    }
}
