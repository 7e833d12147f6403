//! The cell kernel: the one definition of every cell's text form in the
//! write path. Each `push_*` appends to a caller-owned byte buffer and
//! allocates nothing beyond that buffer's growth; [`Cells`] is a property
//! column resolved to its typed slice once per table, so the row loops
//! dispatch on a slice variant instead of cloning a `Value` per cell.
//!
//! The public [`csv_escape`](super::csv_escape),
//! [`json_escape`](super::json_escape), `Value::render` and `format_date`
//! are the reference: `tests/golden_bytes.rs` holds the kernel to their
//! output byte for byte.

use std::io::Write;

use crate::date::civil_from_days;
use crate::Column;

/// Decimal digits of `v`.
pub(super) fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Decimal digits of `v`, `-` first when negative (`i64`'s `Display`).
pub(super) fn push_i64(buf: &mut Vec<u8>, v: i64) {
    if v < 0 {
        buf.push(b'-');
    }
    push_u64(buf, v.unsigned_abs());
}

/// `f64`'s `Display`, through std itself so the digits cannot differ.
pub(super) fn push_f64(buf: &mut Vec<u8>, v: f64) {
    write!(buf, "{v}").expect("writing to a Vec<u8> cannot fail");
}

/// ISO-8601 `YYYY-MM-DD` of epoch day `days`: `format_date`'s bytes, the
/// year zero-padded to four characters *including* a minus sign.
pub(super) fn push_date(buf: &mut Vec<u8>, days: i64) {
    let (y, m, d) = civil_from_days(days);
    let mut year_width = 4;
    if y < 0 {
        buf.push(b'-');
        year_width = 3;
    }
    let year = y.unsigned_abs();
    let digits = 1 + year.checked_ilog10().unwrap_or(0);
    for _ in digits..year_width {
        buf.push(b'0');
    }
    push_u64(buf, year);
    for part in [m, d] {
        buf.extend_from_slice(&[b'-', b'0' + (part / 10) as u8, b'0' + (part % 10) as u8]);
    }
}

/// `text` as an RFC 4180 field: quoted, with quotes doubled, only when it
/// contains a separator, a quote or a line break.
pub(super) fn push_csv_text(buf: &mut Vec<u8>, text: &str) {
    let bytes = text.as_bytes();
    // `|`, not `any`: without the early exit the scan vectorises.
    let special = |quote, &b| quote | matches!(b, b',' | b'"' | b'\n' | b'\r');
    if !bytes.iter().fold(false, special) {
        buf.extend_from_slice(bytes);
        return;
    }
    buf.push(b'"');
    for &b in bytes {
        if b == b'"' {
            buf.push(b'"');
        }
        buf.push(b);
    }
    buf.push(b'"');
}

/// `text` as the body of a JSON string (no surrounding quotes). Every
/// byte that needs escaping is ASCII, so the clean runs between them are
/// copied as they are, multi-byte characters included.
pub(super) fn push_json_text(buf: &mut Vec<u8>, text: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = text.as_bytes();
    // `|`, not `any`: without the early exit the scan vectorises.
    let special = |escape, &b| escape | (b < 0x20) | (b == b'"') | (b == b'\\');
    if !bytes.iter().fold(false, special) {
        buf.extend_from_slice(bytes);
        return;
    }
    let mut clean = 0;
    for (at, &b) in bytes.iter().enumerate() {
        let control;
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                let (hi, lo) = (HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]);
                control = [b'\\', b'u', b'0', b'0', hi, lo];
                &control
            }
            _ => continue,
        };
        buf.extend_from_slice(&bytes[clean..at]);
        buf.extend_from_slice(escape);
        clean = at + 1;
    }
    buf.extend_from_slice(&bytes[clean..]);
}

/// One property column as the typed slice behind it.
#[derive(Debug, Clone, Copy)]
pub(super) enum Cells<'a> {
    Bools(&'a [bool]),
    Longs(&'a [i64]),
    Doubles(&'a [f64]),
    Texts(&'a [String]),
    Dates(&'a [i64]),
}

impl<'a> From<&'a Column> for Cells<'a> {
    fn from(column: &'a Column) -> Self {
        match column {
            Column::Bools(v) => Cells::Bools(v),
            Column::Longs(v) => Cells::Longs(v),
            Column::Doubles(v) => Cells::Doubles(v),
            Column::Texts(v) => Cells::Texts(v),
            Column::Dates(v) => Cells::Dates(v),
        }
    }
}

fn bool_keyword(b: bool) -> &'static [u8] {
    if b {
        b"true"
    } else {
        b"false"
    }
}

impl Cells<'_> {
    /// Row `row` as a CSV field: `csv_escape(&value.render())`. Only text
    /// can hold a character that needs quoting.
    pub(super) fn push_csv(&self, buf: &mut Vec<u8>, row: usize) {
        match self {
            Cells::Bools(v) => buf.extend_from_slice(bool_keyword(v[row])),
            Cells::Longs(v) => push_i64(buf, v[row]),
            Cells::Doubles(v) => push_f64(buf, v[row]),
            Cells::Texts(v) => push_csv_text(buf, &v[row]),
            Cells::Dates(v) => push_date(buf, v[row]),
        }
    }

    /// Row `row` as a JSON value: numbers and booleans bare (a non-finite
    /// double is `null`), text and dates as strings.
    pub(super) fn push_json(&self, buf: &mut Vec<u8>, row: usize) {
        match self {
            Cells::Bools(v) => buf.extend_from_slice(bool_keyword(v[row])),
            Cells::Longs(v) => push_i64(buf, v[row]),
            Cells::Doubles(v) if v[row].is_finite() => push_f64(buf, v[row]),
            Cells::Doubles(_) => buf.extend_from_slice(b"null"),
            Cells::Texts(v) => {
                buf.push(b'"');
                push_json_text(buf, &v[row]);
                buf.push(b'"');
            }
            Cells::Dates(v) => {
                buf.push(b'"');
                push_date(buf, v[row]);
                buf.push(b'"');
            }
        }
    }
}
