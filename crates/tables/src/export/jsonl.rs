//! JSON-lines syntax: one self-contained object per row. Called only by
//! [`TableSlice::write`](super::TableSlice::write), so every column is
//! known to hold exactly the row window.

use std::io::{self, Write};
use std::ops::Range;

use super::{json_escape, Endpoints};
use crate::{PropertyTable, Value};

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Long(x) => out.push_str(&x.to_string()),
        Value::Double(x) => {
            if x.is_finite() {
                out.push_str(&x.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Text(_) | Value::Date(_) => {
            out.push('"');
            out.push_str(&json_escape(&v.render()));
            out.push('"');
        }
    }
}

/// Write one object per global id in `rows`. The endpoint pairs and the
/// property tables hold exactly those rows (their row `0` is global id
/// `rows.start`). JSONL has no header, so a shard's output is exactly its
/// row window.
pub(super) fn write_table<W: Write>(
    w: &mut W,
    rows: Range<u64>,
    endpoints: Option<Endpoints<'_>>,
    props: &[(&str, &PropertyTable)],
) -> io::Result<()> {
    match endpoints {
        None => write_rows(w, rows, props, |line, id, _| {
            line.push_str("{\"id\":");
            line.push_str(&id.to_string());
        }),
        Some(e) => write_rows(w, rows, props, |line, id, row| {
            let (t, h) = e.table.edge(row);
            line.push_str(&format!(
                "{{\"id\":{id},\"tail\":{t},\"head\":{h},\"source\":\"{}\",\"target\":\"{}\"",
                json_escape(e.source),
                json_escape(e.target)
            ));
        }),
    }
}

/// The row loop: `lead(line, id, row)` opens the object of global id
/// `id`, which is row `row` of the columns.
fn write_rows<W: Write>(
    w: &mut W,
    rows: Range<u64>,
    props: &[(&str, &PropertyTable)],
    lead: impl Fn(&mut String, u64, u64),
) -> io::Result<()> {
    let offset = rows.start;
    let mut line = String::new();
    for id in rows {
        line.clear();
        lead(&mut line, id, id - offset);
        for (name, table) in props {
            line.push_str(",\"");
            line.push_str(&json_escape(name));
            line.push_str("\":");
            let v = table.value(id - offset).map_err(io::Error::other)?;
            write_value(&mut line, &v);
        }
        line.push('}');
        writeln!(w, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::export::{Exporter, JsonlExporter};
    use crate::{EdgeTable, PropertyGraph, PropertyTable, Value, ValueType};

    #[test]
    fn emits_valid_lines() {
        let mut g = PropertyGraph::new();
        g.add_node_type("T", 1);
        g.insert_node_property(
            "T",
            "label",
            PropertyTable::from_values("T.label", ValueType::Text, ["a\"b"].map(Value::from))
                .unwrap(),
        );
        g.insert_edge_table("e", "T", "T", EdgeTable::from_pairs("e", [(0u64, 0u64)]));
        let dir = std::env::temp_dir().join(format!("ds-jsonl-test-{}", std::process::id()));
        JsonlExporter.export(&g, &dir).unwrap();
        let nodes = std::fs::read_to_string(dir.join("T.jsonl")).unwrap();
        assert_eq!(nodes.trim(), r#"{"id":0,"label":"a\"b"}"#);
        let edges = std::fs::read_to_string(dir.join("e.jsonl")).unwrap();
        assert!(edges.contains("\"tail\":0"));
        assert!(edges.contains("\"source\":\"T\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
