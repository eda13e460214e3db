//! `unreachable-module`: library module files no entry point reaches.
//!
//! A crate's *module files* are the files its `lib.rs` declares with
//! `mod child;`, transitively (the crate roots themselves are not module
//! files). A module file is *reached* when some entry point — a bin
//! (`src/main.rs`, `src/bin/`), a test or example (`tests/`, `examples/`,
//! at the workspace root or in a crate), or a benchmark source
//! (`perfbench/src/`) — can get to it along `use`/path edges of the
//! [`crate::graph`], `pub use` re-exports included. `mod` declarations
//! alone do not count (every module is declared by its parent), and
//! neither do edges from `#[cfg(test)]` code: a module only its own unit
//! tests call is dead weight in the library.
//!
//! The rule is file-granular: it flags a module file nothing reaches, at
//! its first line. A module kept deliberately (a public API with no
//! in-tree caller yet) carries a justified pragma there, which the
//! suppression ratchet then counts.

use std::collections::{BTreeMap, BTreeSet};

use crate::graph::{EdgeKind, ModuleGraph};
use crate::rules::{in_test_region, Violation, UNREACHABLE_MODULE};

/// Whether `rel` is an entry point the reachability walk starts from.
fn is_entry_point(rel: &str) -> bool {
    let crate_rel = rel
        .strip_prefix("crates/")
        .and_then(|rest| rest.split_once('/'))
        .map_or(rel, |(_, inner)| inner);
    crate_rel.starts_with("tests/")
        || crate_rel.starts_with("examples/")
        || crate_rel.starts_with("src/bin/")
        || crate_rel == "src/main.rs"
        || rel.starts_with("perfbench/src/")
}

/// Runs the rule over the whole graph. `tests` maps each file to its
/// `#[cfg(test)]` line ranges; edges declared inside them are ignored.
pub fn check(
    graph: &ModuleGraph,
    tests: &BTreeMap<String, Vec<(usize, usize)>>,
    out: &mut Vec<Violation>,
) {
    let crate_roots: Vec<&str> = graph
        .edges
        .keys()
        .map(String::as_str)
        .filter(|rel| rel.starts_with("crates/") && rel.ends_with("/src/lib.rs"))
        .collect();
    let modules = walk(graph, tests, crate_roots.clone(), EdgeKind::Mod);
    let entry_points: Vec<&str> = graph
        .edges
        .keys()
        .map(String::as_str)
        .filter(|rel| is_entry_point(rel))
        .collect();
    let reached = walk(graph, tests, entry_points, EdgeKind::Use);

    for rel in modules {
        if crate_roots.contains(&rel) || reached.contains(rel) {
            continue;
        }
        out.push(Violation {
            file: rel.to_string(),
            line: 1,
            rule: UNREACHABLE_MODULE.to_string(),
            message: "no bin, test, example or perfbench/src file reaches this \
                      module through `use`/path edges — delete it, or justify \
                      keeping it with a pragma"
                .to_string(),
        });
    }
}

/// Files reachable from `starts` along `kind` edges declared outside
/// `#[cfg(test)]` code, `starts` included.
fn walk<'g>(
    graph: &'g ModuleGraph,
    tests: &BTreeMap<String, Vec<(usize, usize)>>,
    starts: Vec<&'g str>,
    kind: EdgeKind,
) -> BTreeSet<&'g str> {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = starts;
    while let Some(rel) = stack.pop() {
        if !seen.insert(rel) {
            continue;
        }
        let regions = tests.get(rel).map_or(&[][..], Vec::as_slice);
        for e in graph.edges.get(rel).into_iter().flatten() {
            if e.kind == kind && !in_test_region(regions, e.line) {
                stack.push(&e.to);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn flagged(files: &[(&str, &str)]) -> Vec<String> {
        let toks: BTreeMap<String, Vec<crate::lexer::LexToken>> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), crate::lexer::lex(src, &scan(src))))
            .collect();
        let tests = toks
            .iter()
            .map(|(rel, t)| (rel.clone(), crate::rules::test_region_lines(t)))
            .collect();
        let table: BTreeMap<String, String> = [
            ("rtped".to_string(), "src".to_string()),
            ("rtped_demo".to_string(), "crates/demo/src".to_string()),
        ]
        .into_iter()
        .collect();
        let graph = crate::graph::build(&table, &toks);
        let mut out = Vec::new();
        check(&graph, &tests, &mut out);
        out.into_iter().map(|v| v.file).collect()
    }

    const LIB: &str = "pub mod live;\npub mod dead;\npub mod inner;\npub use inner::Api;\n";

    #[test]
    fn mod_declarations_alone_do_not_reach() {
        let got = flagged(&[
            ("crates/demo/src/lib.rs", LIB),
            ("crates/demo/src/live.rs", "use crate::inner::Api;\n"),
            ("crates/demo/src/dead.rs", ""),
            ("crates/demo/src/inner.rs", "pub struct Api;\n"),
            ("tests/t.rs", "use rtped_demo::live;\n"),
        ]);
        assert_eq!(got, vec!["crates/demo/src/dead.rs"]);
    }

    #[test]
    fn reexports_and_the_facade_alias_reach_module_files() {
        let got = flagged(&[
            ("src/lib.rs", "pub use rtped_demo as demo;\n"),
            ("crates/demo/src/lib.rs", LIB),
            ("crates/demo/src/live.rs", ""),
            ("crates/demo/src/dead.rs", ""),
            ("crates/demo/src/inner.rs", ""),
            // `rtped_demo::Api` reaches lib.rs, whose `pub use` reaches
            // inner.rs; the facade path reaches live.rs.
            (
                "examples/e.rs",
                "fn main() { let _ = rtped_demo::Api; rtped::demo::live::go(); }\n",
            ),
        ]);
        assert_eq!(got, vec!["crates/demo/src/dead.rs"]);
    }

    #[test]
    fn unit_test_callers_and_library_only_callers_do_not_count() {
        let got = flagged(&[
            ("crates/demo/src/lib.rs", LIB),
            (
                "crates/demo/src/live.rs",
                "#[cfg(test)]\nmod tests {\n    use crate::dead::x;\n}\n",
            ),
            ("crates/demo/src/dead.rs", ""),
            ("crates/demo/src/inner.rs", "use crate::live;\n"),
            ("perfbench/src/main.rs", "use rtped_demo::live;\n"),
        ]);
        assert_eq!(
            got,
            vec!["crates/demo/src/dead.rs", "crates/demo/src/inner.rs"]
        );
    }

    #[test]
    fn entry_points_cover_bins_tests_examples_and_perfbench() {
        for rel in [
            "tests/a.rs",
            "examples/b.rs",
            "crates/x/src/bin/c.rs",
            "crates/x/src/main.rs",
            "crates/x/tests/d.rs",
            "crates/x/examples/e.rs",
            "perfbench/src/library.rs",
        ] {
            assert!(is_entry_point(rel), "{rel}");
        }
        for rel in ["crates/x/src/lib.rs", "crates/x/src/m.rs", "src/lib.rs"] {
            assert!(!is_entry_point(rel), "{rel}");
        }
    }
}
