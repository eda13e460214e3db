//! `rtped-lint`: in-repo static analysis for the rtped workspace.
//!
//! Generic tooling cannot know that `NhogMem` words must never touch
//! floats, or that `rtped_core::timer` is the only sanctioned clock —
//! those are *project* invariants, and this crate is their machine
//! checker (DESIGN.md §11). The stack, bottom-up:
//!
//! - [`scan`] — the string/comment oracle: byte-region classification
//!   that never panics and degrades gracefully on malformed input;
//! - [`lexer`] — spanned Rust tokens (idents, literals with suffixes,
//!   maximal-munch punctuation, lifetimes, attribute context) lexed from
//!   the code regions;
//! - [`graph`] — the module/use-graph: which file uses which, resolved
//!   from `use`/`mod` declarations and qualified path heads;
//! - [`rules`] — the per-file rule engine with suppression pragmas,
//!   plus the [`arith`] overflow audit;
//! - [`locks`], [`taint`] and [`reach`] — the cross-cutting rules (lock
//!   ordering, determinism taint, hash-iteration, unreachable modules)
//!   that need the whole workspace;
//! - [`walk`] — the deterministic workspace file walker.
//!
//! The `rtped-lint` binary ties them into a CI gate that emits
//! `file:line` diagnostics plus a canonical `rtped_core::json` report
//! (`format: 2`, per-rule sections, full suppression inventory) and
//! exits nonzero on any violation. A committed `LINT_BASELINE.json`
//! ratchets the suppression inventory: the count may only shrink, and
//! any change to the inventory requires regenerating the baseline in the
//! same change.

pub mod arith;
pub mod graph;
pub mod lexer;
pub mod locks;
pub mod reach;
pub mod rules;
pub mod scan;
pub mod taint;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use rtped_core::json::{obj, Json};

use rules::{Suppression, Violation};

/// Aggregated result of linting a workspace root.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceOutcome {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// All surviving violations, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Every suppression that fired, with its justification — the audit
    /// inventory of accepted exceptions.
    pub suppressions: Vec<Suppression>,
}

impl WorkspaceOutcome {
    /// The canonical JSON report (`format: 2`): one section per rule, in
    /// [`rules::RULES`] order plus the pragma-integrity rule, each with
    /// its violations and fired suppressions; top-level totals for the
    /// baseline ratchet and quick CI greps.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut sections: Vec<Json> = Vec::new();
        let all_rules = rules::RULES
            .iter()
            .copied()
            .chain(std::iter::once(rules::SUPPRESSION_PRAGMA));
        for rule in all_rules {
            let violations: Vec<Json> = self
                .violations
                .iter()
                .filter(|v| v.rule == rule)
                .map(|v| {
                    obj([
                        ("file", v.file.as_str().into()),
                        ("line", v.line.into()),
                        ("message", v.message.as_str().into()),
                    ])
                })
                .collect();
            let suppressions: Vec<Json> = self
                .suppressions
                .iter()
                .filter(|s| s.rule == rule)
                .map(|s| {
                    obj([
                        ("file", s.file.as_str().into()),
                        ("line", s.line.into()),
                        ("justification", s.justification.as_str().into()),
                    ])
                })
                .collect();
            sections.push(obj([
                ("rule", rule.into()),
                ("violations", Json::Array(violations)),
                ("suppressions", Json::Array(suppressions)),
            ]));
        }
        obj([
            ("format", 2u64.into()),
            ("tool", "rtped-lint".into()),
            ("files_scanned", self.files_scanned.into()),
            ("violation_count", self.violations.len().into()),
            ("suppression_count", self.suppressions.len().into()),
            ("rules", Json::Array(sections)),
        ])
    }

    /// The committed-baseline form: just the suppression inventory and
    /// its count, so the ratchet has one canonical artifact to diff.
    #[must_use]
    pub fn baseline_json(&self) -> Json {
        let suppressions: Vec<Json> = self
            .suppressions
            .iter()
            .map(|s| {
                obj([
                    ("file", s.file.as_str().into()),
                    ("line", s.line.into()),
                    ("rule", s.rule.as_str().into()),
                    ("justification", s.justification.as_str().into()),
                ])
            })
            .collect();
        obj([
            ("format", 2u64.into()),
            ("tool", "rtped-lint-baseline".into()),
            ("suppression_count", self.suppressions.len().into()),
            ("suppressions", Json::Array(suppressions)),
        ])
    }

    /// Checks the suppression ratchet against a committed baseline:
    /// the count may never grow, and *any* inventory drift (including
    /// shrinkage) requires regenerating the committed baseline in the
    /// same change so the artifact stays an exact record.
    pub fn check_baseline(&self, baseline: &Json) -> Result<(), String> {
        let committed = baseline
            .get("suppression_count")
            .and_then(Json::as_u64)
            .ok_or_else(|| "baseline has no suppression_count field".to_string())?;
        let current = self.suppressions.len() as u64;
        if current > committed {
            return Err(format!(
                "suppression count grew: baseline {committed}, current {current} — \
                 fix the violation instead, or justify it and regenerate the \
                 baseline only alongside removing another suppression"
            ));
        }
        if self.baseline_json().to_string() != baseline.to_string() {
            return Err(format!(
                "baseline is stale (count {committed} -> {current}): the \
                 suppression inventory changed — regenerate LINT_BASELINE.json \
                 with `rtped-lint --write-baseline` in this change"
            ));
        }
        Ok(())
    }
}

/// Lints every in-scope file under `root` (a workspace root, or any
/// directory mirroring the workspace layout — the fixture corpora do).
pub fn run_workspace(root: &Path) -> std::io::Result<WorkspaceOutcome> {
    run_filtered(root, None)
}

/// [`run_workspace`] restricted to files whose workspace-relative path
/// starts with `prefix`. `--self-check` uses this to lint the lint crate
/// itself (`crates/lint/`) with the path predicates still seeing real
/// workspace-relative paths.
pub fn run_filtered(root: &Path, prefix: Option<&str>) -> std::io::Result<WorkspaceOutcome> {
    let files: Vec<_> = walk::workspace_files(root)?
        .into_iter()
        .filter(|(_, rel)| prefix.is_none_or(|p| rel.starts_with(p)))
        .collect();

    // Per-file pass: lex once, run the per-file rules, keep the token
    // streams for the graph rules.
    let mut analyses: Vec<(String, rules::Analysis)> = Vec::new();
    let mut toks_map: BTreeMap<String, Vec<lexer::LexToken>> = BTreeMap::new();
    let mut tests_map: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for (path, rel) in &files {
        let src = std::fs::read_to_string(path)?;
        let mut analysis = rules::analyze(rel, &src);
        toks_map.insert(rel.clone(), std::mem::take(&mut analysis.toks));
        tests_map.insert(rel.clone(), analysis.tests.clone());
        analyses.push((rel.clone(), analysis));
    }

    // Cross-cutting pass: module graph, lock nesting, determinism taint,
    // reachability. The benchmark's sources join the graph as entry points
    // only; no rule runs on them.
    let rels: Vec<String> = toks_map.keys().cloned().collect();
    let crate_table = graph::crate_roots(root, &rels);
    let mut entry_only: Vec<String> = Vec::new();
    for (path, rel) in walk::entry_point_files(root)? {
        if prefix.is_none_or(|p| rel.starts_with(p)) {
            let src = std::fs::read_to_string(path)?;
            toks_map.insert(rel.clone(), lexer::lex(&src, &scan::scan(&src)));
            entry_only.push(rel);
        }
    }
    let module_graph = graph::build(&crate_table, &toks_map);
    for rel in &entry_only {
        toks_map.remove(rel);
    }
    let mut cross: Vec<Violation> = Vec::new();
    let mut lock_edges: BTreeSet<(String, String)> = BTreeSet::new();
    for (rel, toks) in &toks_map {
        locks::check(rel, toks, &mut lock_edges, &mut cross);
    }
    locks::check_cycles(&lock_edges, &mut cross);
    taint::check(&module_graph, &toks_map, &tests_map, &mut cross);
    reach::check(&module_graph, &tests_map, &mut cross);

    // Resolution pass: route cross-cutting violations through their
    // anchor file's pragmas, then aggregate.
    let mut by_file: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for v in cross {
        by_file.entry(v.file.clone()).or_default().push(v);
    }
    let mut outcome = WorkspaceOutcome {
        files_scanned: files.len(),
        ..WorkspaceOutcome::default()
    };
    for (rel, analysis) in &analyses {
        let extra = by_file.remove(rel).unwrap_or_default();
        let file = rules::resolve(analysis, extra);
        outcome.violations.extend(file.violations);
        outcome.suppressions.extend(file.suppressions);
    }
    // Violations anchored outside the walked set (the declared-order
    // table during fixture runs) surface unsuppressed.
    for (_, vs) in by_file {
        outcome.violations.extend(vs);
    }
    outcome
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    outcome
        .suppressions
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    outcome.suppressions.dedup();
    Ok(outcome)
}
