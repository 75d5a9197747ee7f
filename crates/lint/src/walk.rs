//! Deterministic workspace walker: finds every `.rs` and `Cargo.toml`
//! under the root, in sorted order, skipping build output, VCS metadata,
//! and the lint fixture corpus (which contains violations on purpose).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of file a walk entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// Rust source.
    Rust,
    /// A `Cargo.toml` manifest.
    Manifest,
}

/// One discovered file.
#[derive(Debug, Clone)]
pub(crate) struct WalkEntry {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Rust source or manifest.
    pub kind: FileKind,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "results"];

/// Path substrings that mark intentional-violation corpora.
const SKIP_PATHS: &[&str] = &["tests/fixtures"];

/// Walk `root` and return all lintable files, sorted by relative path.
pub(crate) fn walk(root: &Path) -> io::Result<Vec<WalkEntry>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(&dir)?.map(|e| e.map(|e| e.path())).collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
                continue;
            }
            let kind = if name == "Cargo.toml" {
                FileKind::Manifest
            } else if name.ends_with(".rs") {
                FileKind::Rust
            } else {
                continue;
            };
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if SKIP_PATHS.iter().any(|s| rel.contains(s)) {
                continue;
            }
            out.push(WalkEntry { abs: path, rel, kind });
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace_deterministically() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let a = walk(&root).expect("walk");
        let b = walk(&root).expect("walk");
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.rel == y.rel));
        assert!(a.iter().any(|e| e.rel == "Cargo.toml" && e.kind == FileKind::Manifest));
        assert!(a.iter().any(|e| e.rel == "crates/lint/src/walk.rs" && e.kind == FileKind::Rust));
        assert!(a.iter().all(|e| !e.rel.starts_with("target/")));
        assert!(a.iter().all(|e| !e.rel.contains("tests/fixtures")));
    }
}
