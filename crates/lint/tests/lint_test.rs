//! Integration tests over the fixture corpora: `tests/fixtures/bad` holds
//! at least one known-bad file per rule (plus a pragma with no
//! justification) and must light up every rule — the per-file rules, the
//! overflow audit, and the four graph rules; `tests/fixtures/good`
//! mirrors the sanctioned layout and must lint clean with exactly one
//! justified suppression.

use std::collections::BTreeSet;
use std::path::PathBuf;

use rtped_lint::rules;
use rtped_lint::run_workspace;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

#[test]
fn bad_corpus_fires_every_rule() {
    let out = run_workspace(&fixture("bad")).expect("bad corpus readable");
    let fired: BTreeSet<&str> = out.violations.iter().map(|v| v.rule.as_str()).collect();
    for rule in [
        rules::WALL_CLOCK,
        rules::RAW_ENV,
        rules::FLOAT_IN_FIXED,
        rules::FLOAT_IN_QUANT_KERNEL,
        rules::UNSAFE_COMMENT,
        rules::UNWRAP_IN_LIB,
        rules::NONCANONICAL_JSON,
        rules::UNCHECKED_ARITH,
        rules::HASH_ITER,
        rules::LOCK_ORDER,
        rules::DET_TAINT,
        rules::UNREACHABLE_MODULE,
        rules::SUPPRESSION_PRAGMA,
    ] {
        assert!(
            fired.contains(rule),
            "rule `{rule}` did not fire on the bad corpus: {:?}",
            out.violations
        );
    }
    assert!(
        out.suppressions.is_empty(),
        "unjustified pragma must not suppress: {:?}",
        out.suppressions
    );
}

#[test]
fn bad_corpus_flags_the_expected_sites() {
    let out = run_workspace(&fixture("bad")).expect("bad corpus readable");
    let got: BTreeSet<(String, usize, String)> = out
        .violations
        .iter()
        .map(|v| (v.file.clone(), v.line, v.rule.clone()))
        .collect();
    let expected = [
        ("crates/core/src/buffer.rs", 4, rules::UNSAFE_COMMENT),
        ("crates/core/src/knobs.rs", 4, rules::RAW_ENV),
        ("crates/core/src/pragma.rs", 5, rules::SUPPRESSION_PRAGMA),
        ("crates/core/src/pragma.rs", 6, rules::UNWRAP_IN_LIB),
        // Declared by its lib.rs but reached by no entry point; its
        // sibling `roc` is reached from perfbench/src and stays silent.
        ("crates/eval/src/det.rs", 1, rules::UNREACHABLE_MODULE),
        // Nested acquisition with no declared order, then a reentrant one.
        ("crates/fleet/src/locky.rs", 7, rules::LOCK_ORDER),
        ("crates/fleet/src/locky.rs", 14, rules::LOCK_ORDER),
        // The report module is flagged at the `use` line that imports the
        // `{:p}`-tainted module; the source module itself stays silent.
        ("crates/fleet/src/summary.rs", 3, rules::DET_TAINT),
        ("crates/fleet/src/tally.rs", 6, rules::HASH_ITER),
        ("crates/fleet/src/tally.rs", 7, rules::HASH_ITER),
        ("crates/hog/src/quant.rs", 3, rules::FLOAT_IN_QUANT_KERNEL),
        ("crates/hog/src/quant.rs", 4, rules::FLOAT_IN_QUANT_KERNEL),
        // Variable-amount shift, then a bare `+` in a width-annotated
        // statement.
        ("crates/hw/src/ecc.rs", 4, rules::UNCHECKED_ARITH),
        ("crates/hw/src/ecc.rs", 8, rules::UNCHECKED_ARITH),
        ("crates/hw/src/nhog_mem.rs", 3, rules::FLOAT_IN_FIXED),
        ("crates/hw/src/nhog_mem.rs", 4, rules::FLOAT_IN_FIXED),
        // The reentrant `queue` edge makes the acquisition graph cyclic;
        // that workspace-level violation anchors at the declared table.
        ("crates/lint/src/locks.rs", 1, rules::LOCK_ORDER),
        ("crates/runtime/src/report.rs", 5, rules::NONCANONICAL_JSON),
        ("crates/runtime/src/report.rs", 9, rules::UNWRAP_IN_LIB),
        ("examples/clocky.rs", 4, rules::WALL_CLOCK),
    ];
    for (file, line, rule) in expected {
        assert!(
            got.contains(&(file.to_string(), line, rule.to_string())),
            "expected {file}:{line} {rule}; got {got:?}"
        );
    }
    assert_eq!(
        got.len(),
        expected.len(),
        "unexpected extra violations: {got:?}"
    );
}

#[test]
fn good_corpus_lints_clean_with_one_justified_suppression() {
    let out = run_workspace(&fixture("good")).expect("good corpus readable");
    assert_eq!(out.files_scanned, 7);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.suppressions.len(), 1, "{:?}", out.suppressions);
    let s = &out.suppressions[0];
    assert_eq!(s.file, "crates/core/src/par.rs");
    assert_eq!(s.rule, rules::UNWRAP_IN_LIB);
    assert_eq!(
        s.justification,
        "splitting on newline always yields at least one item"
    );
}

#[test]
fn json_report_is_canonical_and_complete() {
    let out = run_workspace(&fixture("bad")).expect("bad corpus readable");
    let report = out.to_json().to_string();
    assert!(report.starts_with("{\"format\":2"), "{report}");
    assert!(report.contains("\"tool\":\"rtped-lint\""), "{report}");
    assert!(report.contains("\"files_scanned\":15"), "{report}");
    assert!(report.contains("examples/clocky.rs"), "{report}");
    // Every rule gets its own section, present even when empty.
    for rule in rules::RULES.iter().chain([&rules::SUPPRESSION_PRAGMA]) {
        assert!(
            report.contains(&format!("{{\"rule\":\"{rule}\"")),
            "missing section for `{rule}`: {report}"
        );
    }
}

#[test]
fn baseline_ratchet_accepts_identity_and_rejects_growth() {
    let good = run_workspace(&fixture("good")).expect("good corpus readable");
    let baseline = rtped_core::json::Json::parse(&good.baseline_json().to_string())
        .expect("baseline round-trips");
    assert!(good.check_baseline(&baseline).is_ok());

    // A stricter committed baseline (no suppressions) must reject the
    // corpus's one suppression as growth.
    let empty = rtped_lint::WorkspaceOutcome::default();
    let strict = rtped_core::json::Json::parse(&empty.baseline_json().to_string())
        .expect("empty baseline round-trips");
    let err = good.check_baseline(&strict).expect_err("growth must fail");
    assert!(err.contains("grew"), "{err}");

    // Same count but different inventory is stale, not a pass.
    let mut drifted = good.clone();
    drifted.suppressions[0].line += 1;
    let err = drifted
        .check_baseline(&baseline)
        .expect_err("drift must fail");
    assert!(err.contains("stale"), "{err}");
}
