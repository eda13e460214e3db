//! The rule engine: project-specific invariants checked per file.
//!
//! Each rule protects one reproduction claim (see DESIGN.md §11):
//!
//! - `wall-clock-in-deterministic` — `Instant`/`SystemTime` are forbidden
//!   outside `rtped_core::timer` and `crates/bench/src/bin`; control
//!   decisions must use the modeled clock so `RunReport` stays
//!   byte-identical across runs/hosts/`RTPED_THREADS`.
//! - `raw-env-access` — `std::env::var` is forbidden outside
//!   `rtped_core::env`, the single typed, warn-once boundary for
//!   operational knobs.
//! - `float-in-fixed-datapath` — `f32`/`f64` tokens are forbidden in the
//!   designated fixed-point modules of `crates/hw` (`nhog_mem`, `ecc`,
//!   `macbar`, `shard`); the golden-model/lockstep modules are
//!   allowlisted by module path, not by pragma.
//! - `float-in-quant-kernel` — `f32`/`f64` tokens are forbidden in the
//!   i16 CPU scoring kernel (`crates/hog/src/quant.rs`); conversion
//!   happens only at the quantization boundaries, keeping the datapath
//!   bit-reproducible.
//! - `unsafe-without-safety-comment` — every `unsafe` must be preceded by
//!   a `// SAFETY:` comment (or a `# Safety` doc section for `unsafe fn`).
//! - `unwrap-in-library` — `unwrap()`/`expect(`/`panic!` are forbidden in
//!   non-`#[cfg(test)]` library code of `core`, `hw`, `runtime`, `svm`,
//!   `image`, and `serve`.
//! - `noncanonical-json` — string literals carrying hand-rolled JSON
//!   fragments are forbidden outside `rtped_core::json`; reports must go
//!   through the canonical serializer.
//! - `unchecked-arith-in-fixed-datapath` ([`crate::arith`]) — integer
//!   `+ - * <<` in the fixed-point modules must be explicit
//!   `wrapping_*`/`checked_*`/`saturating_*` or cite the overflow proof.
//! - `hash-iteration-nondeterminism` ([`crate::taint`]) —
//!   `HashMap`/`HashSet` are forbidden in modules reaching
//!   canonical-report code.
//! - `lock-order` ([`crate::locks`]) — mutex nesting in `serve`/`fleet`
//!   must follow the declared acquisition order, acyclically.
//! - `determinism-taint` ([`crate::taint`]) — report-producing modules
//!   must not reach wall-clock/env/thread-identity sources along the
//!   use-graph except through the sanctioned facades.
//! - `unreachable-module` ([`crate::reach`]) — every library module file
//!   must be reached, along `use`/path edges, from a bin, test, example or
//!   `perfbench/src` file.
//!
//! The per-file rules run over [`crate::lexer`] token streams; the last
//! five are cross-cutting and are orchestrated by [`crate::run_workspace`]
//! on top of the per-file [`Analysis`] this module produces.
//!
//! Suppression: a line comment holding the `rtped-lint` marker, a colon,
//! then `allow(<rule>, "<justification>")`, placed on the violating line
//! or alone on the line directly above it. A pragma without a
//! justification string is itself a violation (`suppression-pragma`), as
//! is one naming an unknown rule. (The grammar is spelled indirectly
//! here because this doc comment is itself scanned.)

use crate::lexer::{lex, LexKind, LexToken};
use crate::scan::{scan, split, FileText};

/// Rule: wall-clock reads outside the sanctioned timer boundary.
pub const WALL_CLOCK: &str = "wall-clock-in-deterministic";
/// Rule: raw environment reads outside `rtped_core::env`.
pub const RAW_ENV: &str = "raw-env-access";
/// Rule: float tokens inside the fixed-point datapath modules.
pub const FLOAT_IN_FIXED: &str = "float-in-fixed-datapath";
/// Rule: float tokens inside the i16 CPU scoring kernel.
pub const FLOAT_IN_QUANT_KERNEL: &str = "float-in-quant-kernel";
/// Rule: `unsafe` without an adjacent safety argument.
pub const UNSAFE_COMMENT: &str = "unsafe-without-safety-comment";
/// Rule: panicking calls in library (non-test) code.
pub const UNWRAP_IN_LIB: &str = "unwrap-in-library";
/// Rule: hand-rolled JSON fragments outside the canonical serializer.
pub const NONCANONICAL_JSON: &str = "noncanonical-json";
/// Rule: malformed or unjustified suppression pragmas.
pub const SUPPRESSION_PRAGMA: &str = "suppression-pragma";
/// Rule: implicit integer arithmetic in the fixed-point datapath.
pub const UNCHECKED_ARITH: &str = "unchecked-arith-in-fixed-datapath";
/// Rule: hash-ordered collections in report-reaching modules.
pub const HASH_ITER: &str = "hash-iteration-nondeterminism";
/// Rule: undeclared or cyclic mutex nesting.
pub const LOCK_ORDER: &str = "lock-order";
/// Rule: nondeterminism sources reachable from report producers.
pub const DET_TAINT: &str = "determinism-taint";
/// Rule: library module files no entry point reaches.
pub const UNREACHABLE_MODULE: &str = "unreachable-module";

/// Every suppressible rule name (the pragma parser validates against
/// this; `suppression-pragma` itself is deliberately not suppressible).
pub const RULES: &[&str] = &[
    WALL_CLOCK,
    RAW_ENV,
    FLOAT_IN_FIXED,
    FLOAT_IN_QUANT_KERNEL,
    UNSAFE_COMMENT,
    UNWRAP_IN_LIB,
    NONCANONICAL_JSON,
    UNCHECKED_ARITH,
    HASH_ITER,
    LOCK_ORDER,
    DET_TAINT,
    UNREACHABLE_MODULE,
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule name.
    pub rule: String,
    /// Human-readable diagnostic.
    pub message: String,
}

/// One suppression that actually fired (part of the audit inventory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Workspace-relative path.
    pub file: String,
    /// Line the suppressed violation was on.
    pub line: usize,
    /// Rule that was suppressed.
    pub rule: String,
    /// The pragma's justification string.
    pub justification: String,
}

/// Violations and fired suppressions for one file.
#[derive(Debug, Clone, Default)]
pub struct FileOutcome {
    /// Surviving violations.
    pub violations: Vec<Violation>,
    /// Suppressions that matched a violation.
    pub suppressions: Vec<Suppression>,
}

/// A parsed suppression pragma.
#[derive(Debug, Clone)]
struct Pragma {
    line: usize,
    rule: String,
    justification: String,
    /// Comment-only line: the pragma also covers the next line.
    standalone: bool,
}

/// Everything the workspace pass needs from one file: its token stream
/// (reused by the graph builder and the cross-cutting rules), its
/// `#[cfg(test)]` line ranges, its pragmas, and the raw per-file
/// violations awaiting suppression resolution.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Lexed tokens (attr context marked).
    pub toks: Vec<LexToken>,
    /// 1-based inclusive line ranges covered by `#[cfg(test)]` items.
    pub tests: Vec<(usize, usize)>,
    pragmas: Vec<Pragma>,
    raw: Vec<Violation>,
}

const PRAGMA_MARKER: &str = "rtped-lint:";

/// Parses every pragma in the file's comments. Malformed pragmas become
/// violations immediately.
fn parse_pragmas(rel: &str, text: &FileText, raw: &mut Vec<Violation>) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (idx, comment) in text.comments.iter().enumerate() {
        let line = idx + 1;
        let mut rest = comment.as_str();
        while let Some(pos) = rest.find(PRAGMA_MARKER) {
            rest = &rest[pos + PRAGMA_MARKER.len()..];
            let body = rest.trim_start();
            let Some(args) = body.strip_prefix("allow(") else {
                raw.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: SUPPRESSION_PRAGMA.to_string(),
                    message: "pragma must be `rtped-lint: allow(<rule>, \
                              \"<justification>\")`"
                        .to_string(),
                });
                continue;
            };
            let Some(close) = args.find(')') else {
                raw.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: SUPPRESSION_PRAGMA.to_string(),
                    message: "unterminated suppression pragma (missing `)`)".to_string(),
                });
                continue;
            };
            let inner = &args[..close];
            rest = &args[close + 1..];
            let (rule, justification) = match inner.split_once(',') {
                None => (inner.trim(), None),
                Some((r, j)) => (r.trim(), Some(j.trim())),
            };
            if !RULES.contains(&rule) {
                raw.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: SUPPRESSION_PRAGMA.to_string(),
                    message: format!("pragma names unknown rule `{rule}`"),
                });
                continue;
            }
            let justification = justification
                .and_then(|j| j.strip_prefix('"'))
                .and_then(|j| j.strip_suffix('"'))
                .map(str::trim)
                .unwrap_or("");
            if justification.is_empty() {
                raw.push(Violation {
                    file: rel.to_string(),
                    line,
                    rule: SUPPRESSION_PRAGMA.to_string(),
                    message: format!(
                        "suppression of `{rule}` carries no justification string — \
                         a pragma must say *why* the invariant holds here"
                    ),
                });
                continue;
            }
            let standalone = text
                .code
                .get(idx)
                .map(|c| c.trim().is_empty())
                .unwrap_or(true);
            pragmas.push(Pragma {
                line,
                rule: rule.to_string(),
                justification: justification.to_string(),
                standalone,
            });
        }
    }
    pragmas
}

/// Path predicates (workspace-relative, `/`-separated).
fn is_sanctioned_clock(rel: &str) -> bool {
    rel == "crates/core/src/timer.rs" || rel.starts_with("crates/bench/src/bin/")
}

fn is_sanctioned_env(rel: &str) -> bool {
    rel == "crates/core/src/env.rs"
}

/// The canonical serializer itself — and the analyzer's own sources,
/// whose punctuation-pattern literals (a quote-colon sequence opens
/// `"::"`) collide with the JSON-key needle without ever being JSON.
fn is_sanctioned_json(rel: &str) -> bool {
    rel == "crates/core/src/json.rs" || rel.starts_with("crates/lint/src/")
}

/// The fixed-point datapath modules: NHOG memory words, ECC codewords,
/// the MACBAR accumulator path, and the shard geometry/fleet state
/// machine (integer cycle model, deterministic quarantine transitions)
/// must never touch floats. The golden model (`verify`, `vectors`) and
/// lockstep comparator are allowlisted by *not* being designated — by
/// module path, not by pragma.
fn is_fixed_datapath(rel: &str) -> bool {
    matches!(
        rel,
        "crates/hw/src/nhog_mem.rs"
            | "crates/hw/src/ecc.rs"
            | "crates/hw/src/macbar.rs"
            | "crates/hw/src/shard.rs"
    )
}

/// The i16 CPU scoring kernel: quantized feature storage and the integer
/// window dot product. It is integer-only by construction — every float →
/// integer conversion happens at the designated boundaries
/// (`FeatureMap::quantize_rows_into`, `rtped_svm::QuantModel`) — and
/// that is what makes the i16 datapath bit-reproducible across hosts and
/// thread counts.
fn is_quant_kernel(rel: &str) -> bool {
    rel == "crates/hog/src/quant.rs"
}

/// Crates whose library code must not panic on recoverable inputs.
fn in_unwrap_scope(rel: &str) -> bool {
    ["core", "hw", "runtime", "svm", "image", "serve", "fleet"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")))
}

/// Any library source (for the JSON rule): crate `src/` trees and the
/// facade's own `src/`. Tests may embed expected JSON bytes; libraries
/// may not hand-roll them.
fn in_src_tree(rel: &str) -> bool {
    rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items.
#[must_use]
pub fn test_region_lines(toks: &[LexToken]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let Some((attr_end, is_test_cfg)) = parse_attr(toks, i) else {
            i += 1;
            continue;
        };
        if !is_test_cfg {
            i = attr_end;
            continue;
        }
        let start_line = toks[i].line;
        // Skip any further attributes on the same item.
        let mut j = attr_end;
        while let Some((next_end, _)) = parse_attr(toks, j) {
            j = next_end;
        }
        // The item body: everything to the matching close brace (or the
        // terminating semicolon for brace-less items).
        let mut depth = 0usize;
        let mut end_line = start_line;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    end_line = t.line;
                    j += 1;
                    break;
                }
            } else if t.is_punct(";") && depth == 0 {
                end_line = t.line;
                j += 1;
                break;
            }
            end_line = t.line;
            j += 1;
        }
        out.push((start_line, end_line));
        i = j;
    }
    out
}

/// If an attribute (`#[...]` / `#![...]`) starts at token `i`, returns
/// the index one past its closing `]` and whether it is a
/// `cfg(... test ...)` attribute (excluding `cfg(not(test))`).
fn parse_attr(toks: &[LexToken], i: usize) -> Option<(usize, bool)> {
    if !toks.get(i)?.is_punct("#") {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct("[")) {
        return None;
    }
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut saw_not = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return Some((j + 1, saw_cfg && saw_test && !saw_not));
            }
        } else if t.kind == LexKind::Ident {
            match t.text.as_str() {
                "cfg" => saw_cfg = true,
                "test" => saw_test = true,
                "not" => saw_not = true,
                _ => {}
            }
        }
        j += 1;
    }
    Some((toks.len(), false))
}

/// Whether `line` falls inside any of the given test regions.
#[must_use]
pub fn in_test_region(regions: &[(usize, usize)], line: usize) -> bool {
    regions.iter().any(|&(s, e)| s <= line && line <= e)
}

/// Whether a `// SAFETY:` (or `# Safety` doc section) comment is adjacent
/// to `line`: on the line itself or in the contiguous comment/attribute
/// block directly above it.
fn has_safety_comment(text: &FileText, line: usize) -> bool {
    let marker = |s: &str| s.contains("SAFETY:") || s.contains("# Safety");
    if text.comments.get(line - 1).is_some_and(|c| marker(c)) {
        return true;
    }
    let mut l = line - 1; // 1-based line above
    while l >= 1 {
        let comment = text.comments.get(l - 1).map(String::as_str).unwrap_or("");
        let code = text.code.get(l - 1).map(String::as_str).unwrap_or("");
        let code = code.trim();
        let is_attr_only = !code.is_empty() && code.starts_with('#');
        if !comment.is_empty() || is_attr_only {
            if marker(comment) {
                return true;
            }
            l -= 1;
            continue;
        }
        break;
    }
    false
}

/// Lexes one file and runs every per-file rule (including the
/// [`crate::arith`] overflow audit), leaving the raw violations
/// unsuppressed. The workspace pass layers the cross-cutting rules on
/// top before calling [`resolve`]; single-file callers go straight
/// through [`check_source`].
#[must_use]
pub fn analyze(rel: &str, src: &str) -> Analysis {
    let scanned = scan(src);
    let text = split(src, &scanned);
    let toks = lex(src, &scanned);
    let mut raw: Vec<Violation> = Vec::new();
    let pragmas = parse_pragmas(rel, &text, &mut raw);
    let tests = test_region_lines(&toks);

    {
        let mut push = |line: usize, rule: &str, message: String| {
            raw.push(Violation {
                file: rel.to_string(),
                line,
                rule: rule.to_string(),
                message,
            });
        };

        for (k, t) in toks.iter().enumerate() {
            // Float-suffixed literals name the type as surely as the
            // ident does (`1.5f64` in the datapath is still a float).
            if matches!(t.kind, LexKind::Int | LexKind::Float)
                && matches!(t.suffix.as_deref(), Some("f32") | Some("f64"))
            {
                if is_fixed_datapath(rel) {
                    push(
                        t.line,
                        FLOAT_IN_FIXED,
                        format!(
                            "float-suffixed literal `{}` inside the fixed-point datapath",
                            t.text
                        ),
                    );
                } else if is_quant_kernel(rel) {
                    push(
                        t.line,
                        FLOAT_IN_QUANT_KERNEL,
                        format!(
                            "float-suffixed literal `{}` inside the i16 scoring kernel",
                            t.text
                        ),
                    );
                }
                continue;
            }
            if t.kind != LexKind::Ident {
                continue;
            }
            let prev_punct =
                |offset: usize, p: &str| k.checked_sub(offset).is_some_and(|i| toks[i].is_punct(p));
            let next_punct =
                |offset: usize, p: &str| toks.get(k + offset).is_some_and(|t| t.is_punct(p));
            match t.text.as_str() {
                "Instant" | "SystemTime" if !is_sanctioned_clock(rel) => push(
                    t.line,
                    WALL_CLOCK,
                    format!(
                        "`{}` outside the sanctioned clock boundary \
                         (rtped_core::timer / bench binaries) — deterministic \
                         code must use the modeled cost clock or `timer::Stopwatch`",
                        t.text
                    ),
                ),
                "var" | "var_os"
                    if !is_sanctioned_env(rel)
                        && prev_punct(1, "::")
                        && k.checked_sub(2).is_some_and(|i| toks[i].is_ident("env")) =>
                {
                    push(
                        t.line,
                        RAW_ENV,
                        "raw `env::var` outside rtped_core::env — operational \
                         knobs must go through the typed, warn-once boundary"
                            .to_string(),
                    )
                }
                "f32" | "f64" if is_fixed_datapath(rel) => push(
                    t.line,
                    FLOAT_IN_FIXED,
                    format!(
                        "`{}` inside the fixed-point datapath — NhogMem \
                         words, ECC codewords, and MACBAR accumulators are \
                         integer-only; float comparisons belong to the golden \
                         model / lockstep modules",
                        t.text
                    ),
                ),
                "f32" | "f64" if is_quant_kernel(rel) => push(
                    t.line,
                    FLOAT_IN_QUANT_KERNEL,
                    format!(
                        "`{}` inside the i16 scoring kernel — the quantized \
                         datapath is integer-only; convert at the designated \
                         boundaries (FeatureMap::quantize_rows_into, QuantModel)",
                        t.text
                    ),
                ),
                "unsafe" if !has_safety_comment(&text, t.line) => push(
                    t.line,
                    UNSAFE_COMMENT,
                    "`unsafe` without an adjacent `// SAFETY:` comment stating \
                     the invariant it relies on"
                        .to_string(),
                ),
                "unwrap" | "expect"
                    if in_unwrap_scope(rel)
                        && !in_test_region(&tests, t.line)
                        && prev_punct(1, ".")
                        && next_punct(1, "(") =>
                {
                    push(
                        t.line,
                        UNWRAP_IN_LIB,
                        format!(
                            "`.{}(` in library code — return the crate's \
                             typed error instead, or justify unreachability \
                             with a pragma",
                            t.text
                        ),
                    )
                }
                "panic"
                    if in_unwrap_scope(rel)
                        && !in_test_region(&tests, t.line)
                        && next_punct(1, "!") =>
                {
                    push(
                        t.line,
                        UNWRAP_IN_LIB,
                        "`panic!` in library code — return the crate's typed \
                         error instead, or justify with a pragma"
                            .to_string(),
                    )
                }
                _ => {}
            }
        }
    }

    // Hand-rolled JSON fragments in library string literals. The needle
    // (a double quote followed by a colon — JSON key syntax) is built
    // from chars so this source file does not carry the pattern itself.
    if in_src_tree(rel) && !is_sanctioned_json(rel) {
        let needle: String = ['"', ':'].iter().collect();
        for (line, literal) in &text.strings {
            if literal.contains(needle.as_str()) && !in_test_region(&tests, *line) {
                raw.push(Violation {
                    file: rel.to_string(),
                    line: *line,
                    rule: NONCANONICAL_JSON.to_string(),
                    message: "string literal carries a hand-rolled JSON \
                              fragment — serialize through rtped_core::json \
                              so reports stay canonical"
                        .to_string(),
                });
            }
        }
    }

    crate::arith::check(rel, &toks, &tests, &mut raw);

    Analysis {
        toks,
        tests,
        pragmas,
        raw,
    }
}

/// Applies the file's suppression pragmas to its raw per-file violations
/// plus any `extra` cross-cutting violations anchored in it. A pragma
/// covers its own line, and the next line when it stands alone on a
/// comment-only line. Duplicate suppressions (one pragma absorbing two
/// same-line, same-rule hits) collapse to one inventory entry.
#[must_use]
pub fn resolve(analysis: &Analysis, extra: Vec<Violation>) -> FileOutcome {
    let mut out = FileOutcome::default();
    let mut raw = analysis.raw.clone();
    raw.extend(extra);
    for v in raw {
        let matching = analysis.pragmas.iter().find(|p| {
            p.rule == v.rule && (p.line == v.line || (p.standalone && p.line + 1 == v.line))
        });
        match matching {
            Some(p) => out.suppressions.push(Suppression {
                file: v.file,
                line: v.line,
                rule: v.rule,
                justification: p.justification.clone(),
            }),
            None => out.violations.push(v),
        }
    }
    out.violations
        .sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    out.suppressions
        .sort_by(|a, b| (a.line, a.rule.as_str()).cmp(&(b.line, b.rule.as_str())));
    out.suppressions.dedup();
    out
}

/// Runs every per-file rule over one file. `rel` is the workspace-relative
/// path with `/` separators.
#[must_use]
pub fn check_source(rel: &str, src: &str) -> FileOutcome {
    resolve(&analyze(rel, src), Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_var_is_flagged_outside_core_env() {
        let out = check_source(
            "crates/detect/src/lib.rs",
            "fn f() { let _ = std::env::var(\"X\"); }",
        );
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, RAW_ENV);
        let ok = check_source(
            "crates/core/src/env.rs",
            "fn f() { let _ = std::env::var(\"X\"); }",
        );
        assert!(ok.violations.is_empty());
    }

    #[test]
    fn env_var_in_comment_or_string_is_ignored() {
        let src = "// std::env::var(\"X\")\nfn f() -> &'static str { \"std::env::var\" }\n";
        assert!(check_source("crates/detect/src/lib.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn unwrap_allowed_in_tests_and_outside_scope() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let out = check_source("crates/hw/src/lib.rs", src);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].line, 1);
        // The serving daemon is in scope too — a multi-tenant server must
        // degrade, not die.
        assert_eq!(
            check_source("crates/serve/src/server.rs", src)
                .violations
                .len(),
            1
        );
        assert!(check_source("crates/eval/src/lib.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn pragma_suppresses_with_justification_and_flags_without() {
        let with = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // rtped-lint: allow(unwrap-in-library, \"len checked by caller\")\n";
        let out = check_source("crates/core/src/x.rs", with);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.suppressions.len(), 1);
        assert_eq!(out.suppressions[0].justification, "len checked by caller");

        let without = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() } // rtped-lint: allow(unwrap-in-library)\n";
        let out = check_source("crates/core/src/x.rs", without);
        assert_eq!(out.violations.len(), 2, "{:?}", out.violations);
        assert!(out.violations.iter().any(|v| v.rule == SUPPRESSION_PRAGMA));
        assert!(out.violations.iter().any(|v| v.rule == UNWRAP_IN_LIB));
    }

    #[test]
    fn standalone_pragma_covers_the_next_line() {
        let src = "// rtped-lint: allow(unwrap-in-library, \"infallible: probed above\")\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let out = check_source("crates/image/src/x.rs", src);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.suppressions.len(), 1);
    }

    #[test]
    fn unknown_rule_pragma_is_a_violation() {
        let src = "// rtped-lint: allow(no-such-rule, \"why\")\n";
        let out = check_source("crates/core/src/x.rs", src);
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].rule, SUPPRESSION_PRAGMA);
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        let bad = "pub fn f(p: *mut u8) { unsafe { *p = 1 } }\n";
        assert_eq!(
            check_source("crates/core/src/x.rs", bad).violations.len(),
            1
        );
        let good = "pub fn f(p: *mut u8) {\n    // SAFETY: caller guarantees exclusivity.\n    unsafe { *p = 1 }\n}\n";
        assert!(check_source("crates/core/src/x.rs", good)
            .violations
            .is_empty());
        let doc =
            "/// # Safety\n///\n/// Caller must uphold init-before-read.\npub unsafe fn g() {}\n";
        assert!(check_source("crates/core/src/x.rs", doc)
            .violations
            .is_empty());
    }

    #[test]
    fn floats_flagged_only_in_designated_hw_modules() {
        let src = "pub fn f(x: u32) -> f64 { x as f64 }\n";
        assert_eq!(
            check_source("crates/hw/src/nhog_mem.rs", src)
                .violations
                .len(),
            2
        );
        assert_eq!(
            check_source("crates/hw/src/shard.rs", src).violations.len(),
            2
        );
        assert!(check_source("crates/hw/src/lockstep.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn float_suffixed_literals_count_as_floats() {
        let src = "pub fn f() { let _ = 1.5f64; }\n";
        let out = check_source("crates/hw/src/ecc.rs", src);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].rule, FLOAT_IN_FIXED);
    }

    #[test]
    fn floats_flagged_in_quant_kernel_only() {
        let src = "pub fn f(x: i16) -> f32 { x as f32 }\n";
        let out = check_source("crates/hog/src/quant.rs", src);
        assert_eq!(out.violations.len(), 2, "{:?}", out.violations);
        assert!(out
            .violations
            .iter()
            .all(|v| v.rule == FLOAT_IN_QUANT_KERNEL));
        // The rest of the hog crate converts freely.
        assert!(check_source("crates/hog/src/feature_map.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn wall_clock_flagged_outside_timer_and_bench_bins() {
        let src = "fn f() { let _ = std::time::Instant::now(); }";
        assert_eq!(check_source("tests/foo.rs", src).violations.len(), 1);
        assert!(check_source("crates/core/src/timer.rs", src)
            .violations
            .is_empty());
        assert!(check_source("crates/bench/src/bin/throughput.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn handrolled_json_flagged_in_src_not_in_tests() {
        // The literal below contains `\":` in source form — JSON key syntax.
        let src = "fn f(v: u64) -> String { format!(\"{\\\"k\\\":{v}}\") }\n";
        let out = check_source("crates/runtime/src/x.rs", src);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].rule, NONCANONICAL_JSON);
        assert!(check_source("tests/x.rs", src).violations.is_empty());
        assert!(check_source("crates/core/src/json.rs", src)
            .violations
            .is_empty());
    }

    #[test]
    fn arith_audit_runs_through_check_source_and_pragmas_apply() {
        let bad = "pub fn f(a: i32, b: i32) -> i32 { let s: i32 = a * b; s }\n";
        let out = check_source("crates/hog/src/quant.rs", bad);
        assert_eq!(out.violations.len(), 1, "{:?}", out.violations);
        assert_eq!(out.violations[0].rule, UNCHECKED_ARITH);

        let suppressed = "// rtped-lint: allow(unchecked-arith-in-fixed-datapath, \"|a*b| < 2^20 by Q12 bounds\")\npub fn f(a: i32, b: i32) -> i32 { let s: i32 = a * b; s }\n";
        let out = check_source("crates/hog/src/quant.rs", suppressed);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.suppressions.len(), 1);
    }
}
