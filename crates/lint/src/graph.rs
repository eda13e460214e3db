//! The workspace module/use-graph: which source file uses which.
//!
//! Nodes are workspace-relative file paths (exactly the paths
//! [`crate::walk`] yields); a directed edge `A -> B` means "code in `A`
//! names module `B`" — via a `use` declaration (`pub use` re-exports
//! included), a `mod child;` declaration, or a qualified path head in code
//! (`rtped_core::env::typed`, `crate::kernel::to_f64`, `walk::files`).
//! Each edge records its [`EdgeKind`], so rules that must not count `mod`
//! declarations as uses can tell them apart. Resolution is deliberately
//! file-granular and conservative:
//!
//! - `use rtped_core::json::Json` resolves to `crates/core/src/json.rs`
//!   when that file exists, else to the crate root `lib.rs`;
//! - `use crate::scan::...` and `use super::...` resolve within the crate;
//! - a path whose head is a child module of the current file
//!   (`pub use detector::Detect;` in a `lib.rs`) resolves to that child;
//! - a facade re-export `pub use rtped_detect as detect;` in a crate root
//!   makes `rtped::detect::temporal` resolve to
//!   `crates/detect/src/temporal.rs`;
//! - `mod child;` resolves to the child file (`child.rs` or
//!   `child/mod.rs`), and inline `mod child { ... }` adds no edge;
//! - paths that resolve to nothing in the walked file set (std,
//!   unresolvable shapes) are dropped.
//!
//! Crate names come from each member's `Cargo.toml` (first `name =` after
//! `[package]`), normalised to identifier form (`rtped-core` →
//! `rtped_core`); when no manifest is readable the directory name with a
//! `rtped_` prefix is assumed, which keeps the graph usable on fixture
//! corpora that mirror the workspace layout without manifests.
//!
//! The graph is the substrate for the cross-cutting rules: determinism
//! taint propagates along reversed edges (users of a tainted module are
//! tainted), "reaches canonical-report code" is plain forward
//! reachability, and [`crate::reach`] walks `use` edges from the
//! workspace's entry points. All three only need file-level precision,
//! which is why this walker resolves a path to its module file and no
//! deeper.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::lexer::{LexKind, LexToken};

/// How an edge was declared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// A `use` declaration (re-exports included) or a qualified path.
    Use,
    /// A `mod child;` declaration.
    Mod,
}

/// One resolved use/mod edge.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Workspace-relative path of the file the edge points to.
    pub to: String,
    /// 1-based line of the declaration or path that created it.
    pub line: usize,
    /// Whether a `use`/path or a `mod` declaration created it.
    pub kind: EdgeKind,
}

/// The module graph over one walked file set.
#[derive(Debug, Clone, Default)]
pub struct ModuleGraph {
    /// Outgoing edges per file, sorted by target then line (one entry per
    /// distinct declaration site).
    pub edges: BTreeMap<String, Vec<Edge>>,
    /// Crate-name (identifier form) → crate-root source dir, e.g.
    /// `rtped_core` → `crates/core/src`.
    pub crate_roots: BTreeMap<String, String>,
}

impl ModuleGraph {
    /// Files reachable from `start` following edges forward, including
    /// `start` itself.
    #[must_use]
    pub fn reachable_from(&self, start: &str) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![start.to_string()];
        while let Some(file) = stack.pop() {
            if !seen.insert(file.clone()) {
                continue;
            }
            if let Some(edges) = self.edges.get(&file) {
                for e in edges {
                    if !seen.contains(&e.to) {
                        stack.push(e.to.clone());
                    }
                }
            }
        }
        seen
    }

    /// The first edge from `from` whose target is in `targets`, if any —
    /// used to anchor a diagnostic on the `use` line that lets taint in.
    #[must_use]
    pub fn first_edge_into<'a>(
        &'a self,
        from: &str,
        targets: &BTreeSet<String>,
    ) -> Option<&'a Edge> {
        self.edges
            .get(from)
            .and_then(|edges| edges.iter().find(|e| targets.contains(&e.to)))
    }
}

/// Reads the crate-name table for the workspace at `root`, mapping the
/// identifier form of each member's package name to its `src` dir.
/// Missing or unreadable manifests fall back to `rtped_<dir>`.
#[must_use]
pub fn crate_roots(root: &Path, files: &[String]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    // The facade crate: workspace-root `src/`.
    if files.iter().any(|f| f.starts_with("src/")) {
        let name =
            manifest_package_name(&root.join("Cargo.toml")).unwrap_or_else(|| "rtped".into());
        out.insert(name.replace('-', "_"), "src".to_string());
    }
    let mut dirs: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        if let Some(rest) = f.strip_prefix("crates/") {
            if let Some((dir, _)) = rest.split_once('/') {
                dirs.insert(dir);
            }
        }
    }
    for dir in dirs {
        let manifest = root.join("crates").join(dir).join("Cargo.toml");
        let name = manifest_package_name(&manifest).unwrap_or_else(|| format!("rtped_{dir}"));
        out.insert(name.replace('-', "_"), format!("crates/{dir}/src"));
    }
    out
}

/// Extracts `name = "..."` from the `[package]` section of a manifest.
fn manifest_package_name(path: &Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    if !v.is_empty() {
                        return Some(v.to_string());
                    }
                }
            }
        }
    }
    None
}

/// Builds the module graph from the lexed token streams of every walked
/// file. `files` maps workspace-relative path → its tokens.
#[must_use]
pub fn build(
    crate_table: &BTreeMap<String, String>,
    files: &BTreeMap<String, Vec<LexToken>>,
) -> ModuleGraph {
    let resolver = Resolver {
        crate_table,
        aliases: facade_aliases(crate_table, files),
        files: files.keys().map(String::as_str).collect(),
    };
    let mut graph = ModuleGraph {
        crate_roots: crate_table.clone(),
        ..ModuleGraph::default()
    };
    for (rel, toks) in files {
        let mut edges: Vec<Edge> = Vec::new();
        let mut push = |to: String, line: usize, kind: EdgeKind| {
            edges.push(Edge { to, line, kind });
        };
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind != LexKind::Ident || t.in_attr {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "use" => {
                    let (targets, next) = resolver.resolve_use(rel, toks, i + 1);
                    for to in targets {
                        push(to, t.line, EdgeKind::Use);
                    }
                    i = next;
                }
                "mod" => {
                    // `mod child;` declares a file edge; `mod child {`
                    // is inline and adds none.
                    let name = toks.get(i + 1).filter(|n| n.kind == LexKind::Ident);
                    let semi = toks.get(i + 2).is_some_and(|p| p.is_punct(";"));
                    if let (Some(name), true) = (name, semi) {
                        if let Some(to) = resolver.child_module(rel, &name.text) {
                            push(to, t.line, EdgeKind::Mod);
                        }
                    }
                    i += 1;
                }
                _ => {
                    // Qualified path head in code: `rtped_core::env::typed`,
                    // `crate::kernel::to_f64`, `walk::files`. Only heads
                    // count: a segment after `::` is part of a longer path.
                    let is_head = i == 0 || !toks[i - 1].is_punct("::");
                    if is_head && toks.get(i + 1).is_some_and(|p| p.is_punct("::")) {
                        let segs = path_segments(toks, i);
                        if let Some(to) = resolver.resolve(rel, &segs) {
                            push(to, t.line, EdgeKind::Use);
                        }
                    }
                    i += 1;
                }
            }
        }
        edges.sort();
        edges.dedup();
        graph.edges.insert(rel.clone(), edges);
    }
    graph
}

/// The identifiers of the `a::b::c` path starting at token `i` (up to the
/// three segments resolution can use).
fn path_segments(toks: &[LexToken], mut i: usize) -> Vec<&str> {
    let mut segs = vec![toks[i].text.as_str()];
    while segs.len() < 3
        && toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
        && toks.get(i + 2).is_some_and(|s| s.kind == LexKind::Ident)
    {
        segs.push(toks[i + 2].text.as_str());
        i += 2;
    }
    segs
}

/// Facade re-exports: `(facade crate, alias) → crate`, read from
/// `pub use rtped_detect as detect;` items in every crate root.
fn facade_aliases(
    crate_table: &BTreeMap<String, String>,
    files: &BTreeMap<String, Vec<LexToken>>,
) -> BTreeMap<(String, String), String> {
    let mut out = BTreeMap::new();
    for (facade, dir) in crate_table {
        let Some(toks) = files.get(&format!("{dir}/lib.rs")) else {
            continue;
        };
        for w in toks.windows(5) {
            if w[0].is_ident("use")
                && crate_table.contains_key(&w[1].text)
                && w[2].is_ident("as")
                && w[3].kind == LexKind::Ident
                && w[4].is_punct(";")
            {
                out.insert((facade.clone(), w[3].text.clone()), w[1].text.clone());
            }
        }
    }
    out
}

/// Path resolution against one walked file set.
struct Resolver<'a> {
    crate_table: &'a BTreeMap<String, String>,
    aliases: BTreeMap<(String, String), String>,
    files: BTreeSet<&'a str>,
}

impl Resolver<'_> {
    /// Resolves the path (or brace group of paths) after a `use` keyword.
    /// Returns the resolved targets and the token index one past the
    /// declaration's `;` (or wherever scanning stopped on malformed input).
    fn resolve_use(&self, rel: &str, toks: &[LexToken], start: usize) -> (Vec<String>, usize) {
        // Collect the declaration's tokens up to the terminating `;`.
        let mut end = start;
        let mut depth = 0usize;
        while end < toks.len() {
            if toks[end].is_punct("{") {
                depth += 1;
            } else if toks[end].is_punct("}") {
                depth = depth.saturating_sub(1);
            } else if toks[end].is_punct(";") && depth == 0 {
                break;
            }
            end += 1;
        }
        let decl = &toks[start..end.min(toks.len())];
        let mut targets = Vec::new();
        let mut i = 0;
        while i < decl.len() {
            let next = self.use_tree(rel, decl, i, &[], &mut targets);
            i = next.max(i + 1);
        }
        targets.sort();
        targets.dedup();
        (targets, end + 1)
    }

    /// Recursively walks one use-tree starting at `i` with the path
    /// segments accumulated so far, resolving every leaf path (and group
    /// prefix) against the walked file set. Returns the index one past
    /// the subtree.
    fn use_tree(
        &self,
        rel: &str,
        decl: &[LexToken],
        mut i: usize,
        prefix: &[String],
        out: &mut Vec<String>,
    ) -> usize {
        let mut segs: Vec<String> = prefix.to_vec();
        while i < decl.len() {
            let t = &decl[i];
            if t.is_punct(",") || t.is_punct("}") {
                break; // end of this subtree; the group loop consumes it
            }
            if t.is_punct("{") {
                // Group: each comma-separated child extends the current
                // prefix (`use a::{b, c::d};`).
                i += 1;
                while i < decl.len() && !decl[i].is_punct("}") {
                    if decl[i].is_punct(",") {
                        i += 1;
                        continue;
                    }
                    let next = self.use_tree(rel, decl, i, &segs, out);
                    i = next.max(i + 1);
                }
                self.push_resolved(rel, &segs, out);
                return i + 1;
            }
            if t.is_ident("as") {
                i += 2; // rename: `as alias`
                continue;
            }
            if t.kind == LexKind::Ident {
                segs.push(t.text.clone());
            }
            i += 1;
        }
        self.push_resolved(rel, &segs, out);
        i
    }

    fn push_resolved(&self, rel: &str, segs: &[String], out: &mut Vec<String>) {
        let segs: Vec<&str> = segs.iter().map(String::as_str).collect();
        if let Some(to) = self.resolve(rel, &segs) {
            out.push(to);
        }
    }

    /// Resolves a path (`head::second::third...`) used in `rel` to the
    /// module file it names: the head picks the crate (or the current
    /// crate / module), the next segment the module file.
    fn resolve(&self, rel: &str, segs: &[&str]) -> Option<String> {
        let (&head, rest) = segs.split_first()?;
        let second = rest.first().copied();
        match head {
            "crate" => self.in_dir(&own_crate_root(rel)?, second),
            "self" | "super" => {
                // Sibling module of the current file's directory (for
                // `super` in a child module this approximates to the same
                // directory, which is file-exact for the flat module trees
                // this workspace uses).
                let dir = rel.rsplit_once('/').map(|(d, _)| d.to_string())?;
                self.in_dir(&dir, second)
            }
            _ if self.crate_table.contains_key(head) => {
                let alias = second.and_then(|s| self.aliases.get(&(head.into(), s.into())));
                match alias {
                    // `rtped::detect::temporal` → the aliased crate's module.
                    Some(krate) => self.in_dir(&self.crate_table[krate], rest.get(1).copied()),
                    None => self.in_dir(&self.crate_table[head], second),
                }
            }
            // A relative path: `detector::Detect` from the crate root.
            _ => self.child_module(rel, head),
        }
    }

    /// Resolves an optional module name within a source dir: the module
    /// file when present, else the dir's `lib.rs`/`main.rs`/`mod.rs`.
    fn in_dir(&self, dir: &str, second: Option<&str>) -> Option<String> {
        if let Some(name) = second {
            let as_file = format!("{dir}/{name}.rs");
            if self.files.contains(as_file.as_str()) {
                return Some(as_file);
            }
            let as_dir = format!("{dir}/{name}/mod.rs");
            if self.files.contains(as_dir.as_str()) {
                return Some(as_dir);
            }
        }
        ["lib.rs", "main.rs", "mod.rs"]
            .iter()
            .map(|root| format!("{dir}/{root}"))
            .find(|candidate| self.files.contains(candidate.as_str()))
    }

    /// Resolves the child module `name` of `rel` (`mod name;` declared
    /// there, or a relative path through it) to its file.
    fn child_module(&self, rel: &str, name: &str) -> Option<String> {
        let (dir, file) = rel.rsplit_once('/')?;
        let base = if matches!(file, "lib.rs" | "main.rs" | "mod.rs") {
            dir.to_string()
        } else {
            // `foo.rs` declaring `mod bar;` owns `foo/bar.rs`.
            format!("{dir}/{}", file.strip_suffix(".rs").unwrap_or(file))
        };
        [format!("{base}/{name}.rs"), format!("{base}/{name}/mod.rs")]
            .into_iter()
            .find(|candidate| self.files.contains(candidate.as_str()))
    }
}

/// The `src` root of the crate `rel` belongs to, if it is library code.
fn own_crate_root(rel: &str) -> Option<String> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (dir, _) = rest.split_once('/')?;
        return Some(format!("crates/{dir}/src"));
    }
    if rel.starts_with("src/") {
        return Some("src".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn lex_map(files: &[(&str, &str)]) -> BTreeMap<String, Vec<LexToken>> {
        files
            .iter()
            .map(|(rel, src)| (rel.to_string(), crate::lexer::lex(src, &scan(src))))
            .collect()
    }

    fn table() -> BTreeMap<String, String> {
        [
            ("rtped_core".to_string(), "crates/core/src".to_string()),
            ("rtped_hw".to_string(), "crates/hw/src".to_string()),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn use_edges_resolve_to_module_files() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod json;\npub mod timer;\n"),
            ("crates/core/src/json.rs", ""),
            ("crates/core/src/timer.rs", ""),
            (
                "crates/hw/src/lib.rs",
                "use rtped_core::json::Json;\nuse rtped_core::{timer, json};\n",
            ),
        ]);
        let g = build(&table(), &files);
        let hw = &g.edges["crates/hw/src/lib.rs"];
        let targets: Vec<&str> = hw.iter().map(|e| e.to.as_str()).collect();
        assert!(targets.contains(&"crates/core/src/json.rs"));
        assert!(targets.contains(&"crates/core/src/timer.rs"));
        let core = &g.edges["crates/core/src/lib.rs"];
        assert_eq!(core.len(), 2);
    }

    #[test]
    fn crate_and_super_paths_resolve_within_the_crate() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod a;\npub mod b;\n"),
            ("crates/core/src/a.rs", "use crate::b::Thing;\n"),
            ("crates/core/src/b.rs", "use super::a;\n"),
        ]);
        let g = build(&table(), &files);
        assert_eq!(
            g.edges["crates/core/src/a.rs"][0].to,
            "crates/core/src/b.rs"
        );
        assert_eq!(
            g.edges["crates/core/src/b.rs"][0].to,
            "crates/core/src/a.rs"
        );
    }

    #[test]
    fn qualified_paths_in_expressions_create_edges() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod env;\n"),
            ("crates/core/src/env.rs", ""),
            (
                "crates/hw/src/lib.rs",
                "fn f() -> u64 { rtped_core::env::typed(\"X\", 3) }\n",
            ),
        ]);
        let g = build(&table(), &files);
        assert_eq!(
            g.edges["crates/hw/src/lib.rs"][0].to,
            "crates/core/src/env.rs"
        );
    }

    #[test]
    fn relative_and_crate_paths_in_code_create_use_edges() {
        let files = lex_map(&[
            (
                "crates/core/src/lib.rs",
                "pub mod a;\nfn f() { a::go(); }\n",
            ),
            (
                "crates/core/src/a.rs",
                "fn g() { crate::b::go(); x::y::z(); }\n",
            ),
            ("crates/core/src/b.rs", ""),
        ]);
        let g = build(&table(), &files);
        let kinds = |rel: &str| -> Vec<(String, EdgeKind)> {
            g.edges[rel]
                .iter()
                .map(|e| (e.to.clone(), e.kind))
                .collect()
        };
        let a = "crates/core/src/a.rs".to_string();
        assert_eq!(
            kinds("crates/core/src/lib.rs"),
            vec![(a.clone(), EdgeKind::Mod), (a, EdgeKind::Use)]
        );
        assert_eq!(
            kinds("crates/core/src/a.rs"),
            vec![("crates/core/src/b.rs".to_string(), EdgeKind::Use)]
        );
    }

    #[test]
    fn inline_mod_adds_no_edge_and_reachability_is_transitive() {
        let files = lex_map(&[
            ("crates/core/src/lib.rs", "pub mod a;\nmod tests { }\n"),
            ("crates/core/src/a.rs", "use crate::b;\n"),
        ]);
        let g = build(&table(), &files);
        assert_eq!(g.edges["crates/core/src/lib.rs"].len(), 1);
        let reach = g.reachable_from("crates/core/src/lib.rs");
        assert!(reach.contains("crates/core/src/a.rs"));
    }
}
