//! Semantic validation: name uniqueness, dependency resolution, acyclicity
//! — everything the dependency analysis (§4.2) needs to hold before the
//! pipeline runs.

use std::collections::{HashMap, HashSet};

use crate::error::SchemaError;
use crate::model::{Cardinality, DepRef, EdgeType, NodeType, Schema, TemporalDef};

/// Validate a parsed schema. Returns the first problem found.
pub fn validate_schema(schema: &Schema) -> Result<(), SchemaError> {
    let mut node_names = HashSet::new();
    for node in &schema.nodes {
        if !node_names.insert(&node.name) {
            return Err(SchemaError::at_span(
                format!("duplicate node type {:?}", node.name),
                node.span,
            ));
        }
        validate_node_properties(node)?;
        if let Some(t) = &node.temporal {
            validate_temporal(&node.name, t)?;
        }
    }
    let mut edge_names = HashSet::new();
    for edge in &schema.edges {
        if !edge_names.insert(&edge.name) {
            return Err(SchemaError::at_span(
                format!("duplicate edge type {:?}", edge.name),
                edge.span,
            ));
        }
        if node_names.contains(&edge.name) {
            return Err(SchemaError::at_span(
                format!("edge type {:?} collides with a node type name", edge.name),
                edge.span,
            ));
        }
        validate_edge(schema, edge)?;
        if let Some(t) = &edge.temporal {
            validate_temporal(&edge.name, t)?;
        }
    }
    Ok(())
}

/// Temporal generators run standalone (no `given` clause), so generators
/// that require dependency inputs cannot serve as clocks.
fn validate_temporal(owner: &str, t: &TemporalDef) -> Result<(), SchemaError> {
    for (clause, spec) in [
        ("arrival", Some(&t.arrival)),
        ("lifetime", t.lifetime.as_ref()),
    ] {
        let Some(spec) = spec else { continue };
        if spec.name == "date_after" {
            return Err(SchemaError::at_span(
                format!(
                    "{owner}: temporal {clause} cannot use \"date_after\" — it needs dependency \
                     inputs; use date_between or another standalone generator"
                ),
                spec.span,
            ));
        }
    }
    Ok(())
}

fn validate_node_properties(node: &NodeType) -> Result<(), SchemaError> {
    let mut names = HashSet::new();
    for prop in &node.properties {
        if !names.insert(&prop.name) {
            return Err(SchemaError::at_span(
                format!("duplicate property {}.{}", node.name, prop.name),
                prop.span,
            ));
        }
        for dep in &prop.dependencies {
            match dep {
                DepRef::Own(p) => {
                    if node.property(p).is_none() {
                        return Err(SchemaError::at_span(
                            format!(
                                "{}.{} depends on unknown property {:?}",
                                node.name, prop.name, p
                            ),
                            prop.span,
                        ));
                    }
                }
                _ => {
                    return Err(SchemaError::at_span(
                        format!(
                            "{}.{} uses a source./target. dependency outside an edge",
                            node.name, prop.name
                        ),
                        prop.span,
                    ));
                }
            }
        }
    }
    detect_cycles(node)?;
    Ok(())
}

/// DFS 3-color cycle detection over a node type's own-property deps.
fn detect_cycles(node: &NodeType) -> Result<(), SchemaError> {
    let index: HashMap<&str, usize> = node
        .properties
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; node.properties.len()];
    fn visit(
        node: &NodeType,
        index: &HashMap<&str, usize>,
        color: &mut [Color],
        i: usize,
    ) -> Result<(), SchemaError> {
        color[i] = Color::Gray;
        for dep in &node.properties[i].dependencies {
            if let DepRef::Own(p) = dep {
                let j = index[p.as_str()];
                match color[j] {
                    Color::Gray => {
                        return Err(SchemaError::at_span(
                            format!(
                                "dependency cycle through {}.{}",
                                node.name, node.properties[j].name
                            ),
                            node.properties[j].span,
                        ));
                    }
                    Color::White => visit(node, index, color, j)?,
                    Color::Black => {}
                }
            }
        }
        color[i] = Color::Black;
        Ok(())
    }
    for i in 0..node.properties.len() {
        if color[i] == Color::White {
            visit(node, &index, &mut color, i)?;
        }
    }
    Ok(())
}

fn validate_edge(schema: &Schema, edge: &EdgeType) -> Result<(), SchemaError> {
    let source = schema.node_type(&edge.source).ok_or_else(|| {
        SchemaError::at_span(
            format!(
                "edge {:?} references unknown source type {:?}",
                edge.name, edge.source
            ),
            edge.span,
        )
    })?;
    let target = schema.node_type(&edge.target).ok_or_else(|| {
        SchemaError::at_span(
            format!(
                "edge {:?} references unknown target type {:?}",
                edge.name, edge.target
            ),
            edge.span,
        )
    })?;
    if edge.cardinality == Cardinality::ManyToMany
        && edge.source != edge.target
        && edge.structure.is_none()
    {
        return Err(SchemaError::at_span(
            format!(
                "edge {:?}: many-to-many edges between different types need an explicit structure",
                edge.name
            ),
            edge.span,
        ));
    }
    if let Some(corr) = &edge.correlation {
        if edge.source != edge.target {
            return Err(SchemaError::at_span(
                format!(
                    "edge {:?}: correlation needs both endpoints of one type, \
                     but it connects {} and {}",
                    edge.name, edge.source, edge.target
                ),
                corr.jpd.span,
            ));
        }
        if source.property(&corr.property).is_none() {
            return Err(SchemaError::at_span(
                format!(
                    "edge {:?} correlates on unknown property {}.{}",
                    edge.name, edge.source, corr.property
                ),
                corr.jpd.span,
            ));
        }
    }
    let mut names = HashSet::new();
    for prop in &edge.properties {
        if !names.insert(&prop.name) {
            return Err(SchemaError::at_span(
                format!("duplicate property {}.{}", edge.name, prop.name),
                prop.span,
            ));
        }
        for dep in &prop.dependencies {
            match dep {
                DepRef::Own(p) => {
                    if !edge.properties.iter().any(|q| &q.name == p) {
                        return Err(SchemaError::at_span(
                            format!(
                                "{}.{} depends on unknown edge property {:?}",
                                edge.name, prop.name, p
                            ),
                            prop.span,
                        ));
                    }
                    if p == &prop.name {
                        return Err(SchemaError::at_span(
                            format!("{}.{} depends on itself", edge.name, prop.name),
                            prop.span,
                        ));
                    }
                }
                DepRef::Source(p) => {
                    if source.property(p).is_none() {
                        return Err(SchemaError::at_span(
                            format!(
                                "{}.{} depends on unknown property {}.{}",
                                edge.name, prop.name, edge.source, p
                            ),
                            prop.span,
                        ));
                    }
                }
                DepRef::Target(p) => {
                    if target.property(p).is_none() {
                        return Err(SchemaError::at_span(
                            format!(
                                "{}.{} depends on unknown property {}.{}",
                                edge.name, prop.name, edge.target, p
                            ),
                            prop.span,
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::parse_schema;

    fn expect_error(src: &str, needle: &str) {
        let err = parse_schema(src).unwrap_err();
        assert!(
            err.message.contains(needle),
            "expected {needle:?} in {:?}",
            err.message
        );
    }

    /// Satellite pin: validation errors carry the 1-based position of the
    /// offending declaration, not line 0.
    #[test]
    fn validation_errors_carry_source_positions() {
        // Duplicate node type: points at the *second* `A` (line 3, after
        // `node ` at column 8).
        let err = parse_schema(
            "graph g {\n  node A { x: long = counter(); }\n  node A { y: long = counter(); }\n}",
        )
        .unwrap_err();
        assert_eq!((err.line, err.column), (3, 8), "{err}");

        // Unknown dependency: points at the property declaration.
        let err =
            parse_schema("graph g {\n  node A {\n    x: long = counter() given (ghost);\n  }\n}")
                .unwrap_err();
        assert_eq!((err.line, err.column), (3, 5), "{err}");

        // Unknown endpoint type: points at the edge declaration.
        let err =
            parse_schema("graph g {\n  node A { x: long = counter(); }\n  edge e: A -- B { }\n}")
                .unwrap_err();
        assert_eq!((err.line, err.column), (3, 8), "{err}");

        // Temporal clock misuse: points at the offending generator call.
        let err = parse_schema(
            "graph g {\n  node A {\n    x: long = counter();\n    temporal { arrival = date_after(3); }\n  }\n}",
        )
        .unwrap_err();
        assert_eq!((err.line, err.column), (4, 26), "{err}");

        // Display renders the position prefix.
        assert!(err.to_string().starts_with("4:26: "), "{err}");
    }

    /// Builder-made schemas have no source text: their validation errors
    /// stay position-free instead of inventing line 0-ish nonsense.
    #[test]
    fn builder_validation_errors_are_position_free() {
        let err = crate::Schema::build("g")
            .node("A", |n| {
                n.property("x", crate::builder::long().counter().given(["ghost"]))
            })
            .finish()
            .unwrap_err();
        assert_eq!((err.line, err.column), (0, 0), "{err}");
        assert!(!err.span().is_real());
    }

    #[test]
    fn duplicate_node_type() {
        expect_error(
            "graph g { node A { x: long = counter(); } node A { y: long = counter(); } }",
            "duplicate node type",
        );
    }

    #[test]
    fn duplicate_property() {
        expect_error(
            "graph g { node A { x: long = counter(); x: long = counter(); } }",
            "duplicate property",
        );
    }

    #[test]
    fn unknown_dependency() {
        expect_error(
            "graph g { node A { x: long = counter() given (ghost); } }",
            "unknown property",
        );
    }

    #[test]
    fn dependency_cycle() {
        expect_error(
            "graph g { node A { x: long = counter() given (y); y: long = counter() given (x); } }",
            "cycle",
        );
    }

    #[test]
    fn self_dependency_counts_as_cycle() {
        expect_error(
            "graph g { node A { x: long = counter() given (x); } }",
            "cycle",
        );
    }

    #[test]
    fn unknown_endpoint_type() {
        expect_error(
            "graph g { node A { x: long = counter(); } edge e: A -- B { } }",
            "unknown target type",
        );
        expect_error(
            "graph g { node A { x: long = counter(); } edge e: Z -- A { } }",
            "unknown source type",
        );
    }

    /// The mixed-type rejection names both types and points at no API the
    /// user cannot reach.
    #[test]
    fn correlation_needs_same_types() {
        let src = r#"graph g {
            node A { c: text = dictionary("countries"); }
            node B { t: text = dictionary("topics"); }
            edge e: A -> B [one_to_many] { correlate c with homophily(0.5); }
        }"#;
        let err = parse_schema(src).unwrap_err();
        assert_eq!(
            err.message,
            "edge \"e\": correlation needs both endpoints of one type, but it connects A and B"
        );
        assert!(!err.message.contains("bipartite"), "{}", err.message);
    }

    #[test]
    fn correlation_property_must_exist() {
        let src = r#"graph g {
            node A { c: text = dictionary("countries"); }
            edge e: A -- A { correlate ghost with homophily(0.5); }
        }"#;
        expect_error(src, "unknown property");
    }

    #[test]
    fn mixed_type_many_to_many_needs_structure() {
        let src = r#"graph g {
            node A { x: long = counter(); }
            node B { y: long = counter(); }
            edge e: A -- B [many_to_many] { }
        }"#;
        expect_error(src, "explicit structure");
    }

    #[test]
    fn edge_dep_on_endpoint_properties_validates() {
        let src = r#"graph g {
            node A { d: date = date_between("2020-01-01", "2021-01-01"); }
            edge e: A -- A {
                since: date = date_after(10) given (source.d, target.d);
            }
        }"#;
        assert!(parse_schema(src).is_ok());
    }

    #[test]
    fn temporal_rejects_dependent_generators() {
        let src = r#"graph g {
            node A {
                d: date = date_between("2020-01-01", "2021-01-01");
                temporal { arrival = date_after(30); }
            }
        }"#;
        expect_error(src, "date_after");
    }

    #[test]
    fn edge_self_dependency_rejected() {
        let src = r#"graph g {
            node A { x: long = counter(); }
            edge e: A -- A {
                w: long = counter() given (w);
            }
        }"#;
        expect_error(src, "depends on itself");
    }
}
