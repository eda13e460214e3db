//! Workspace walker: enumerates the `.rs` files the rule engine covers.
//!
//! The scan scope mirrors the layout the invariants protect: every crate's
//! `src/` (and `tests/`, `examples/` if present), the facade's `src/`, and
//! the workspace-level `tests/` and `examples/` trees. Directories named
//! `fixtures` are skipped — the lint crate's own fixture corpus contains
//! deliberate violations and is exercised explicitly, not swept up in the
//! workspace pass. The file list is sorted by relative path so reports
//! are deterministic across hosts and filesystems.

use std::path::{Path, PathBuf};

/// Collects the workspace's lintable `.rs` files under `root`, returned
/// as `(absolute path, root-relative path with '/' separators)`.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let mut tops: Vec<PathBuf> = vec![root.join("src"), root.join("tests"), root.join("examples")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        names.sort();
        for krate in names {
            tops.push(krate.join("src"));
            tops.push(krate.join("tests"));
            tops.push(krate.join("examples"));
        }
    }
    for top in tops {
        if top.is_dir() {
            collect(&top, &mut out)?;
        }
    }
    Ok(relative_sorted(root, out))
}

/// The benchmark's sources (`perfbench/src`, a workspace of its own):
/// entry points for the module graph only, never linted themselves.
/// Same return shape and ordering as [`workspace_files`].
pub fn entry_point_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut out = Vec::new();
    let top = root.join("perfbench").join("src");
    if top.is_dir() {
        collect(&top, &mut out)?;
    }
    Ok(relative_sorted(root, out))
}

fn relative_sorted(root: &Path, paths: Vec<PathBuf>) -> Vec<(PathBuf, String)> {
    let mut out: Vec<(PathBuf, String)> = paths
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            (p, rel)
        })
        .collect();
    out.sort_by(|a, b| a.1.cmp(&b.1));
    out
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "fixtures") {
                continue;
            }
            collect(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
