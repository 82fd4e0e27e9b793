//! `mortar-lint` — an offline, dependency-free static-analysis pass for
//! the Mortar workspace.
//!
//! Four rule families guard the properties the simulator's correctness
//! story rests on (see ARCHITECTURE.md, "Determinism discipline"):
//!
//! - **D1 — ordered iteration**: no hash-order iteration in
//!   determinism-critical crates; iteration order must not depend on the
//!   process hash seed.
//! - **D2 — clock/entropy hygiene**: no wall-clock reads, sleeps, or
//!   ad-hoc entropy in sim-deterministic code.
//! - **H1 — hot-path allocation**: `lint:hot-path`-marked functions carry
//!   no allocating tokens, complementing the runtime counting-allocator
//!   gates with static coverage of untested branches.
//! - **P1 — worker panic-freedom**: no panicking calls in the simulator's
//!   event core (`mortar-net`'s `runtime/parallel.rs`, the only event
//!   loop). Under `shards > 1` that code runs on worker threads, where a
//!   panic deadlocks the window barrier; one shard runs it on the caller's
//!   thread, but the same code must hold for both.
//!
//! The pass is a hand-rolled lexer plus token-tree matchers — no `syn`,
//! no registry dependencies — so it runs in the offline build.

mod lexer;
mod rules;

pub use rules::{lint_source, Finding};

use std::io;
use std::path::{Path, PathBuf};

/// Source roots scanned by [`lint_workspace`]: the root crate and every
/// workspace crate except the vendored third-party shims (whose code we
/// do not own) and this lint crate itself (whose sources and fixtures
/// discuss the very tokens the rules match).
fn source_roots(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut names: Vec<_> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            if name == "shims" || name == "lint" {
                continue;
            }
            let src = crates.join(&name).join("src");
            if src.is_dir() {
                roots.push(src);
            }
        }
    }
    Ok(roots)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every owned source file under `root` (a workspace checkout) and
/// returns the findings, waived ones included, in path/line order.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for src_root in source_roots(root)? {
        if src_root.is_dir() {
            collect_rs(&src_root, &mut files)?;
        }
    }
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &src));
    }
    Ok(findings)
}

/// Renders findings as the machine-readable JSON report.
pub fn render_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let unwaived = findings.iter().filter(|f| !f.waived).count();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"total\": {},\n", findings.len()));
    s.push_str(&format!("  \"unwaived\": {unwaived},\n"));
    s.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let reason = match &f.waive_reason {
            Some(r) => format!("\"{}\"", esc(r)),
            None => "null".to_string(),
        };
        s.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"waived\": {}, \
             \"reason\": {}, \"message\": \"{}\"}}{}\n",
            esc(&f.file),
            f.line,
            f.rule,
            f.waived,
            reason,
            esc(&f.message),
            if i + 1 == findings.len() { "" } else { "," },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Renders one finding as a human-readable diagnostic line.
pub fn render_line(f: &Finding) -> String {
    let status = if f.waived {
        format!(
            "waived: {}",
            f.waive_reason.as_deref().filter(|r| !r.is_empty()).unwrap_or("no reason given")
        )
    } else {
        "UNWAIVED".to_string()
    };
    format!("{}:{} [{}] {} ({})", f.file, f.line, f.rule, f.message, status)
}
