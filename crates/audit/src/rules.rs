//! The rule identities of the taint analyzer and the `audit:allow`
//! grammar that suppresses them.
//!
//! The rules themselves are produced by [`crate::taint`] /
//! [`crate::summary`]; this module names them, so that
//! `// audit:allow(<rule>): <reason>` annotations, stale-allow
//! detection and the per-crate policy table share one namespace. The
//! API bans (hash containers, wall-clock reads, entropy, host threads,
//! `static mut`, library `.unwrap()`) are clippy lints configured in
//! `crates/clippy.toml`; their old rule names are unknown here, so a
//! leftover `audit:allow(wall-clock)` is a `bad-allow`.

use crate::lexer::Comment;
use crate::taint::Hop;

/// Stable identifiers for the rules; these names are what the
/// `// audit:allow(<rule>): <reason>` grammar refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// A malformed `audit:allow` annotation (unknown rule, missing
    /// reason). Not suppressible.
    BadAllow,
    /// Taint: a wall-clock value (including one laundered through
    /// variables and function calls) reaches a determinism sink.
    TaintWallClock,
    /// Taint: a hash-container iteration-order-dependent value reaches
    /// a determinism sink.
    TaintHashOrder,
    /// Taint: an address observed as an integer (`&x as *const _ as
    /// usize`) reaches a determinism sink — ASLR makes it run-unique.
    TaintAddr,
    /// Taint: an environment-variable read reaches a determinism sink.
    TaintEnv,
    /// Taint: a `Ordering::Relaxed` atomic read reaches a determinism
    /// sink — unsynchronized interleavings make the value racy.
    TaintRelaxed,
    /// Taint: an unordered (parallel) float reduction reaches a
    /// determinism sink — float addition is not associative.
    TaintFloatOrder,
    /// Taint: a thread-identity value reaches a determinism sink.
    TaintThreadId,
}

impl RuleId {
    /// Every rule a policy can enable and an `audit:allow` can name.
    pub const ALL: [RuleId; 7] = [
        RuleId::TaintWallClock,
        RuleId::TaintHashOrder,
        RuleId::TaintAddr,
        RuleId::TaintEnv,
        RuleId::TaintRelaxed,
        RuleId::TaintFloatOrder,
        RuleId::TaintThreadId,
    ];

    pub fn name(self) -> &'static str {
        match self {
            RuleId::BadAllow => "bad-allow",
            RuleId::TaintWallClock => "taint-wall-clock",
            RuleId::TaintHashOrder => "taint-hash-order",
            RuleId::TaintAddr => "taint-addr",
            RuleId::TaintEnv => "taint-env",
            RuleId::TaintRelaxed => "taint-relaxed",
            RuleId::TaintFloatOrder => "taint-float-order",
            RuleId::TaintThreadId => "taint-thread-id",
        }
    }

    pub fn from_name(s: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == s)
    }

    pub fn suggestion(self) -> &'static str {
        match self {
            RuleId::BadAllow => {
                "write `// audit:allow(<rule>): <reason>` with a known rule \
                 name and a non-empty reason"
            }
            RuleId::TaintWallClock => {
                "cut the flow: derive the sunk value from SimTime or the run \
                 seed, or annotate the source/sink with a reasoned allow"
            }
            RuleId::TaintHashOrder => {
                "sort before folding, or switch the container to \
                 BTreeMap/BTreeSet so iteration order is canonical"
            }
            RuleId::TaintAddr => {
                "replace the address with a dense id assigned at creation; \
                 ASLR makes addresses differ across runs"
            }
            RuleId::TaintEnv => {
                "thread configuration through the typed spec/config structs \
                 instead of reading the environment near a determinism sink"
            }
            RuleId::TaintRelaxed => {
                "use a deterministic accumulator owned by one thread, or \
                 upgrade the ordering and prove the schedule is fixed"
            }
            RuleId::TaintFloatOrder => {
                "reduce floats in a canonical order (sorted keys, tree \
                 reduction with fixed shape) before hashing or merging"
            }
            RuleId::TaintThreadId => {
                "key on the simulated task id (dense, seed-stable), never \
                 the host thread identity"
            }
        }
    }
}

/// One diagnostic. `bad-allow` findings have an empty `path`; taint
/// findings carry the full source→sink hop chain (`path[0]` is the
/// source site, the last hop the sink call).
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
    pub path: Vec<Hop>,
}

impl Violation {
    pub fn new(file: &str, line: u32, rule: RuleId, message: String) -> Violation {
        Violation {
            file: file.to_string(),
            line,
            rule,
            message,
            path: Vec::new(),
        }
    }
}

/// A parsed `audit:allow` annotation. `used` is set once a taint
/// finding is suppressed by it; allows still unused at the
/// end of a sweep are reported as stale.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: u32,
    pub rule: Option<RuleId>,
    pub raw_rule: String,
    pub reason: String,
    pub used: bool,
}

impl Allow {
    /// Does this allow cover a finding of `rule` at `line` (same line
    /// or the line directly above)?
    pub fn covers(&self, rule: RuleId, line: u32) -> bool {
        self.rule == Some(rule) && (self.line == line || self.line + 1 == line)
    }
}

/// Parse every `audit:allow(<rule>): <reason>` annotation out of the
/// comment stream. Malformed annotations surface as [`RuleId::BadAllow`]
/// violations immediately.
pub fn parse_allows(comments: &[Comment], file: &str, bad: &mut Vec<Violation>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // The annotation must be the comment's content, not a prose
        // mention: strip the comment markers and require the text to
        // *start* with `audit:allow` (docs that merely talk about the
        // grammar, like this crate's own, are not annotations).
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("audit:allow") {
            continue;
        }
        let rest = &body["audit:allow".len()..];
        let Some(open) = rest.find('(') else {
            bad.push(Violation::new(
                file,
                c.line,
                RuleId::BadAllow,
                "audit:allow without a (rule) argument".into(),
            ));
            continue;
        };
        let Some(close) = rest[open..].find(')') else {
            bad.push(Violation::new(
                file,
                c.line,
                RuleId::BadAllow,
                "audit:allow with an unclosed (rule) argument".into(),
            ));
            continue;
        };
        let raw_rule = rest[open + 1..open + close].trim().to_string();
        let after = &rest[open + close + 1..];
        let reason = after
            .trim_start()
            .strip_prefix(':')
            .map(|r| r.trim().trim_end_matches("*/").trim().to_string())
            .unwrap_or_default();
        let rule = RuleId::from_name(&raw_rule);
        if rule.is_none() {
            bad.push(Violation::new(
                file,
                c.line,
                RuleId::BadAllow,
                format!("audit:allow names unknown rule '{raw_rule}'"),
            ));
        }
        if reason.is_empty() {
            bad.push(Violation::new(
                file,
                c.line,
                RuleId::BadAllow,
                format!(
                    "audit:allow({raw_rule}) carries no reason; write \
                     `audit:allow({raw_rule}): <why this is safe>`"
                ),
            ));
        }
        allows.push(Allow {
            line: c.line,
            rule,
            raw_rule,
            reason,
            used: false,
        });
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allows(src: &str) -> (Vec<Allow>, Vec<Violation>) {
        let mut bad = Vec::new();
        let allows = parse_allows(&crate::lexer::lex(src).comments, "t.rs", &mut bad);
        (allows, bad)
    }

    #[test]
    fn allow_parses_rule_reason_and_line() {
        let (a, bad) = allows("let x = 1;\n// audit:allow(taint-env): typed config, not a sink\n");
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rule, Some(RuleId::TaintEnv));
        assert_eq!(a[0].reason, "typed config, not a sink");
        assert_eq!(a[0].line, 2);
        assert!(a[0].covers(RuleId::TaintEnv, 2) && a[0].covers(RuleId::TaintEnv, 3));
        assert!(!a[0].covers(RuleId::TaintEnv, 4) && !a[0].covers(RuleId::TaintAddr, 2));
    }

    #[test]
    fn allow_without_reason_is_bad_allow() {
        let (a, bad) = allows("// audit:allow(taint-env)\n");
        assert_eq!(a.len(), 1);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, RuleId::BadAllow);
    }

    #[test]
    fn unknown_rule_in_allow_is_bad_allow() {
        let (a, bad) = allows("// audit:allow(no-such-rule): whatever\n");
        assert_eq!(a[0].rule, None);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("unknown rule 'no-such-rule'"));
    }

    #[test]
    fn prose_mentions_are_not_annotations() {
        let (a, bad) = allows("// write audit:allow(<rule>) next to the site\n");
        assert!(a.is_empty() && bad.is_empty());
    }

    #[test]
    fn rule_names_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::from_name(r.name()), Some(r));
        }
        assert_eq!(RuleId::from_name(RuleId::BadAllow.name()), None);
    }
}
