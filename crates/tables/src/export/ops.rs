//! Streaming writers for operation-log rows (update streams).
//!
//! An op log is the dynamic counterpart of the static snapshot: one row
//! per graph mutation, globally ordered by timestamp. Rows reference the
//! snapshot by `(table, row)` — the payload (property values, endpoints)
//! lives in the snapshot tables, so the log stays narrow and the
//! snapshot stays the single source of truth for values.
//!
//! [`write_ops`] is the table writers' loop over op rows: the same cell
//! kernel, the same window buffer, and whole-run export and chunked HTTP
//! streaming share it, so both paths produce byte-identical files.

use std::io::{self, Write};
use std::ops::Range;

use super::cell::{push_csv_text, push_date, push_json_text, push_u64};
use super::{write_windows, TableFormat};

/// One operation-log row, ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRow<'a> {
    /// Zero-based position in the global op order (stable across shards:
    /// shard `i` emits ops `[window.lo, window.hi)` of the same global
    /// sequence).
    pub op: u64,
    /// Timestamp as days since 1970-01-01 (serialized ISO `YYYY-MM-DD`).
    pub ts: i64,
    /// Operation keyword: `INSERT_NODE`, `INSERT_EDGE`, `DELETE_EDGE`,
    /// `DELETE_NODE`.
    pub kind: &'a str,
    /// The snapshot table the op refers to.
    pub table: &'a str,
    /// Global row index within `table` that this op inserts or deletes.
    pub row: u64,
}

/// Write ops `window` of the global op sequence into `w` in `format`;
/// `op_at(i)` is op `i`. `write_header` asks for the CSV header line
/// (JSONL has none): once per full file — shard 0 only, like the
/// per-table writers, so shard concatenation yields one well-formed file.
pub fn write_ops<'a, W: Write>(
    w: &mut W,
    format: TableFormat,
    write_header: bool,
    window: Range<u64>,
    mut op_at: impl FnMut(u64) -> OpRow<'a>,
) -> io::Result<()> {
    let mut header = Vec::new();
    if write_header && format == TableFormat::Csv {
        header.extend_from_slice(b"op,ts,kind,table,row\n");
    }
    match format {
        TableFormat::Csv => write_windows(w, header, window, |buf, i| {
            let op = op_at(i);
            push_u64(buf, op.op);
            buf.push(b',');
            push_date(buf, op.ts);
            buf.push(b',');
            push_csv_text(buf, op.kind);
            buf.push(b',');
            push_csv_text(buf, op.table);
            buf.push(b',');
            push_u64(buf, op.row);
            buf.push(b'\n');
        }),
        TableFormat::Jsonl => write_windows(w, header, window, |buf, i| {
            let op = op_at(i);
            buf.extend_from_slice(b"{\"op\":");
            push_u64(buf, op.op);
            buf.extend_from_slice(b",\"ts\":\"");
            push_date(buf, op.ts);
            buf.extend_from_slice(b"\",\"kind\":\"");
            push_json_text(buf, op.kind);
            buf.extend_from_slice(b"\",\"table\":\"");
            push_json_text(buf, op.table);
            buf.extend_from_slice(b"\",\"row\":");
            push_u64(buf, op.row);
            buf.extend_from_slice(b"}\n");
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::days_from_civil;

    #[test]
    fn op_rows_serialize_to_both_formats() {
        let op = OpRow {
            op: 3,
            ts: days_from_civil(2012, 6, 15),
            kind: "INSERT_EDGE",
            table: "knows",
            row: 41,
        };
        let mut csv = Vec::new();
        write_ops(&mut csv, TableFormat::Csv, true, 3..4, |_| op.clone()).unwrap();
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            "op,ts,kind,table,row\n3,2012-06-15,INSERT_EDGE,knows,41\n"
        );
        let mut jsonl = Vec::new();
        write_ops(&mut jsonl, TableFormat::Jsonl, false, 3..4, |_| op.clone()).unwrap();
        assert_eq!(
            String::from_utf8(jsonl).unwrap(),
            "{\"op\":3,\"ts\":\"2012-06-15\",\"kind\":\"INSERT_EDGE\",\"table\":\"knows\",\"row\":41}\n"
        );
    }
}
