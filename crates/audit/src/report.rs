//! Human, JSON, and SARIF rendering of an audit run.
//!
//! All three renderers are hand-rolled (the auditor is
//! dependency-free) and byte-deterministic: findings and stale allows
//! arrive pre-sorted from the sweep, and nothing here consults a map
//! with nondeterministic iteration order.

use crate::rules::{RuleId, Violation};

/// An `audit:allow` annotation that suppressed no taint path. Stale
/// allows silently mask future violations, so they are reported, and
/// `noiselab audit --static` fails on them as it does on violations.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct StaleAllow {
    pub file: String,
    pub line: u32,
    /// The rule name as written in the annotation.
    pub rule: String,
}

/// Result of sweeping the workspace (or a set of source strings).
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Files swept, in sweep order.
    pub files_scanned: usize,
    /// Crates swept.
    pub crates_scanned: usize,
    /// Unsuppressed violations, ordered by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Allows that matched nothing, ordered by (file, line).
    pub stale_allows: Vec<StaleAllow>,
}

impl AuditReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `file:line: rule: message` diagnostics (taint findings get their
    /// hop chain indented underneath) plus a one-line summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.file,
                v.line,
                v.rule.name(),
                v.message,
            ));
            for (i, h) in v.path.iter().enumerate() {
                let arrow = if i == 0 { "source" } else { "  then" };
                out.push_str(&format!("    {arrow}  {}:{}  {}\n", h.file, h.line, h.note));
            }
            out.push_str(&format!("    suggestion: {}\n", v.rule.suggestion()));
        }
        for s in &self.stale_allows {
            out.push_str(&format!(
                "{}:{}: stale audit:allow({}) — matched no finding\n",
                s.file, s.line, s.rule
            ));
        }
        out.push_str(&format!(
            "audit: {} crate(s), {} file(s) swept, {} violation(s), {} stale allow(s)\n",
            self.crates_scanned,
            self.files_scanned,
            self.violations.len(),
            self.stale_allows.len()
        ));
        out
    }

    /// Machine-readable JSON. Taint findings carry a `"path"` array of
    /// `{file, line, note}` hops (source first, sink last); stale
    /// allows are a separate top-level array with rule name and line.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"crates_scanned\": {},\n  \"files_scanned\": {},\n  \"clean\": {},\n",
            self.crates_scanned,
            self.files_scanned,
            self.clean()
        ));
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let mut path = String::from("[");
            for (j, h) in v.path.iter().enumerate() {
                if j > 0 {
                    path.push_str(", ");
                }
                path.push_str(&format!(
                    "{{\"file\": {}, \"line\": {}, \"note\": {}}}",
                    json_str(&h.file),
                    h.line,
                    json_str(&h.note)
                ));
            }
            path.push(']');
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}, \
                 \"path\": {}, \"suggestion\": {}}}{}\n",
                json_str(&v.file),
                v.line,
                json_str(v.rule.name()),
                json_str(&v.message),
                path,
                json_str(v.rule.suggestion()),
                if i + 1 == self.violations.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"stale_allows\": [\n");
        for (i, s) in self.stale_allows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}}}{}\n",
                json_str(&s.file),
                s.line,
                json_str(&s.rule),
                if i + 1 == self.stale_allows.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// SARIF 2.1.0, for CI artifact upload and code-scanning UIs.
    /// Taint findings render their source→sink path as a
    /// `codeFlows[].threadFlows[].locations` chain.
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"version\": \"2.1.0\",\n  \"$schema\": \
             \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \"runs\": [\n    {\n",
        );
        out.push_str("      \"tool\": {\n        \"driver\": {\n");
        out.push_str(
            "          \"name\": \"noiselab-audit\",\n          \
             \"informationUri\": \"EXPERIMENTS.md\",\n          \"rules\": [\n",
        );
        let mut rule_ids: Vec<&'static str> = RuleId::ALL.iter().map(|r| r.name()).collect();
        rule_ids.push(RuleId::BadAllow.name());
        for (i, (name, help)) in RuleId::ALL
            .iter()
            .map(|r| (r.name(), r.suggestion()))
            .chain(std::iter::once((
                RuleId::BadAllow.name(),
                RuleId::BadAllow.suggestion(),
            )))
            .enumerate()
        {
            out.push_str(&format!(
                "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
                json_str(name),
                json_str(help),
                if i + 1 == rule_ids.len() { "" } else { "," }
            ));
        }
        out.push_str("          ]\n        }\n      },\n");
        out.push_str("      \"results\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!(
                "          \"ruleId\": {},\n          \"level\": \"error\",\n          \
                 \"message\": {{\"text\": {}}},\n",
                json_str(v.rule.name()),
                json_str(&v.message)
            ));
            out.push_str(&format!(
                "          \"locations\": [{}]{}\n",
                sarif_location(&v.file, v.line, None),
                if v.path.is_empty() { "" } else { "," }
            ));
            if !v.path.is_empty() {
                out.push_str("          \"codeFlows\": [{\"threadFlows\": [{\"locations\": [\n");
                for (j, h) in v.path.iter().enumerate() {
                    out.push_str(&format!(
                        "            {{\"location\": {}}}{}\n",
                        sarif_location(&h.file, h.line, Some(&h.note)),
                        if j + 1 == v.path.len() { "" } else { "," }
                    ));
                }
                out.push_str("          ]}]}]\n");
            }
            out.push_str(&format!(
                "        }}{}\n",
                if i + 1 == self.violations.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str("      ]\n    }\n  ]\n}\n");
        out
    }
}

fn sarif_location(file: &str, line: u32, note: Option<&str>) -> String {
    let msg = note
        .map(|n| format!("\"message\": {{\"text\": {}}}, ", json_str(n)))
        .unwrap_or_default();
    format!(
        "{{{}\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
         \"region\": {{\"startLine\": {}}}}}}}",
        msg,
        json_str(file),
        line.max(1)
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleId;
    use crate::taint::Hop;

    fn sample() -> AuditReport {
        AuditReport {
            files_scanned: 1,
            crates_scanned: 1,
            violations: vec![Violation {
                file: "a \"b\".rs".into(),
                line: 3,
                rule: RuleId::TaintWallClock,
                message: "x\ny".into(),
                path: Vec::new(),
            }],
            stale_allows: vec![StaleAllow {
                file: "c.rs".into(),
                line: 9,
                rule: "taint-env".into(),
            }],
        }
    }

    #[test]
    fn json_escapes_and_renders() {
        let report = sample();
        let json = report.render_json();
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"clean\": false"));
        let human = report.render_human();
        assert!(human.contains("a \"b\".rs:3: [taint-wall-clock]"));
    }

    #[test]
    fn stale_allows_carry_rule_and_line_in_json() {
        let json = sample().render_json();
        assert!(json.contains("\"stale_allows\": ["));
        assert!(
            json.contains("{\"file\": \"c.rs\", \"line\": 9, \"rule\": \"taint-env\"}"),
            "{json}"
        );
    }

    #[test]
    fn taint_paths_render_in_all_formats() {
        let mut report = sample();
        report.stale_allows.clear();
        report.violations = vec![Violation {
            file: "b.rs".into(),
            line: 7,
            rule: RuleId::TaintWallClock,
            message: "wall-clock value reaches stream-hash sink `fnv1a`".into(),
            path: vec![
                Hop {
                    file: "a.rs".into(),
                    line: 2,
                    note: "wall-clock read `Instant::now()`".into(),
                },
                Hop {
                    file: "b.rs".into(),
                    line: 7,
                    note: "passed to `fnv1a` (stream-hash sink)".into(),
                },
            ],
        }];
        let human = report.render_human();
        assert!(human.contains("source  a.rs:2"), "{human}");
        assert!(human.contains("then  b.rs:7"), "{human}");
        let json = report.render_json();
        assert!(json.contains("\"path\": [{\"file\": \"a.rs\""), "{json}");
        let sarif = report.render_sarif();
        assert!(sarif.contains("\"codeFlows\""), "{sarif}");
        assert!(sarif.contains("\"startLine\": 2"), "{sarif}");
        assert!(sarif.contains("taint-wall-clock"), "{sarif}");
    }

    #[test]
    fn clean_report_renders_empty_array() {
        let report = AuditReport::default();
        assert!(report.clean());
        assert!(report.render_json().contains("\"violations\": [\n  ]"));
        assert!(report.render_sarif().contains("\"results\": [\n      ]"));
    }
}
