//! Span-carrying diagnostics with stable codes.

use std::fmt;

use datasynth_schema::Span;
use datasynth_tables::export::json_escape;

/// How serious a diagnostic is.
///
/// `Error` means generation is guaranteed (or overwhelmingly likely) to
/// fail at run time; `Warning` flags schemas that run but behave worse
/// than the author probably intends (sharding, op-log coverage);
/// `Note` is advisory (capacity estimates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory only.
    Note,
    /// Suspicious but runnable.
    Warning,
    /// Will fail (or silently misbehave) at run time.
    Error,
}

impl Severity {
    /// Lowercase label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding: a stable `DS0xx` code, a severity, a message, and the
/// source [`Span`] of the declaration it is anchored to (synthetic for
/// builder/JSON schemas, which have no source text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code (`"DS001"` …).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable, single-line description.
    pub message: String,
    /// Anchor position in the schema source (1-based; synthetic = 0:0).
    pub span: Span,
    /// What the diagnostic is about, e.g. `edge knows` or `Person.country`.
    pub subject: String,
    /// Optional remediation hint.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Build a diagnostic; `help` is attached with [`Diagnostic::with_help`].
    pub fn new(
        code: &'static str,
        severity: Severity,
        span: Span,
        subject: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            severity,
            message: message.into(),
            span,
            subject: subject.into(),
            help: None,
        }
    }

    /// Attach a remediation hint.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Deterministic ordering key. [`Span`] equality is deliberately
    /// always-true (spans are metadata, not content), so ordering must
    /// compare the raw line/column fields explicitly.
    fn sort_key(&self) -> (&'static str, u32, u32, &str, &str) {
        (
            self.code,
            self.span.line,
            self.span.column,
            self.message.as_str(),
            self.subject.as_str(),
        )
    }
}

/// The outcome of linting one schema: diagnostics in a deterministic
/// order (by `(code, line, column, message)`), independent of rule
/// registration order and thread count.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Sorted findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Wrap raw findings, sorting them into the canonical order.
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        Self { diagnostics }
    }

    /// True when nothing at all was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of diagnostics at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Any error-severity findings?
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Any warning-severity findings?
    pub fn has_warnings(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Warning)
    }

    /// Would the report fail a run? With `deny_warnings`, warnings count
    /// as errors (the CLI's `--deny warnings`).
    pub fn fails(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.has_warnings())
    }

    /// Render the report as deterministic JSON. This exact byte string is
    /// shared by `datasynth lint --format json` and the server's 422
    /// response body, so tooling can diff the two directly. Strings go
    /// through the workspace's one escaper, `tables::export::json_escape`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.diagnostics.len() * 160);
        out.push_str("{\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code);
            out.push_str("\",\"severity\":\"");
            out.push_str(d.severity.label());
            out.push_str("\",\"line\":");
            out.push_str(&d.span.line.to_string());
            out.push_str(",\"column\":");
            out.push_str(&d.span.column.to_string());
            out.push_str(",\"subject\":\"");
            out.push_str(&json_escape(&d.subject));
            out.push_str("\",\"message\":\"");
            out.push_str(&json_escape(&d.message));
            out.push('"');
            if let Some(help) = &d.help {
                out.push_str(",\"help\":\"");
                out.push_str(&json_escape(help));
                out.push('"');
            }
            out.push('}');
        }
        out.push_str("],\"errors\":");
        out.push_str(&self.count(Severity::Error).to_string());
        out.push_str(",\"warnings\":");
        out.push_str(&self.count(Severity::Warning).to_string());
        out.push_str(",\"notes\":");
        out.push_str(&self.count(Severity::Note).to_string());
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_sort_by_code_then_position() {
        let d = |code, line, col| {
            Diagnostic::new(code, Severity::Warning, Span::at(line, col), "x", "m")
        };
        let report = LintReport::from_diagnostics(vec![
            d("DS005", 9, 1),
            d("DS001", 9, 1),
            d("DS001", 2, 7),
            d("DS001", 2, 3),
        ]);
        let order: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| (d.code, d.span.line, d.span.column))
            .collect();
        assert_eq!(
            order,
            vec![
                ("DS001", 2, 3),
                ("DS001", 2, 7),
                ("DS001", 9, 1),
                ("DS005", 9, 1)
            ]
        );
    }

    #[test]
    fn json_escapes_and_counts() {
        let report = LintReport::from_diagnostics(vec![Diagnostic::new(
            "DS003",
            Severity::Error,
            Span::at(4, 21),
            "Person.name",
            "unknown \"generator\"\nline two",
        )
        .with_help("did you mean `dictionary`?")]);
        let json = report.to_json();
        assert!(
            json.contains("\"unknown \\\"generator\\\"\\nline two\""),
            "{json}"
        );
        assert!(
            json.contains("\"errors\":1,\"warnings\":0,\"notes\":0"),
            "{json}"
        );
        assert!(json.contains("\"line\":4,\"column\":21"), "{json}");
    }

    #[test]
    fn deny_warnings_promotes_failure() {
        let warn_only = LintReport::from_diagnostics(vec![Diagnostic::new(
            "DS005",
            Severity::Warning,
            Span::SYNTHETIC,
            "edge knows",
            "shard-hostile",
        )]);
        assert!(!warn_only.fails(false));
        assert!(warn_only.fails(true));
        assert!(!warn_only.has_errors());
        assert!(warn_only.has_warnings());
    }
}
