//! The four rule families and the waiver logic.
//!
//! Matching is token-tree based: the lexer strips comments and literal
//! contents, rules pattern-match over the remaining identifier/punctuation
//! stream. Code under `#[cfg(test)]` modules and `#[test]` functions is
//! excluded — the rules guard shipped simulation code, not test harnesses.

use crate::lexer::{lex, DirectiveKind, Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id: `D1`, `D2`, `H1` or `P1`.
    pub rule: &'static str,
    pub message: String,
    /// Whether a waiver directive covers this finding.
    pub waived: bool,
    /// The waiver's written reason, when waived.
    pub waive_reason: Option<String>,
}

/// Iteration methods whose order leaks the hash seed.
const ORDERED_METHODS: &[&str] =
    &["iter", "iter_mut", "keys", "values", "values_mut", "drain", "retain", "into_iter"];

/// Tokens rule H1 forbids inside a `lint:hot-path` function body.
const HOT_ALLOC_MACROS: &[&str] = &["format", "vec"];
const HOT_ALLOC_METHODS: &[&str] = &["to_string", "collect"];

/// Whether rule D1 (ordered iteration) applies to this file. The chaos
/// engine is in scope: its scenarios, drivers, and oracles must replay
/// bit-for-bit from a seed, so hash-ordered iteration is as much a
/// determinism leak there as in the reconciliation path it exercises.
/// The feed layer is in scope for the same reason: intake decisions
/// (shed, sample, spill) must be a pure function of arrival order.
fn d1_in_scope(rel: &str) -> bool {
    rel == "crates/core/src/install.rs"
        || rel == "crates/core/src/reconcile.rs"
        || rel.starts_with("crates/core/src/peer/")
        || rel.starts_with("crates/core/src/feed/")
        || rel.starts_with("crates/net/src/runtime/")
        || rel.starts_with("crates/overlay/src/")
        || rel.starts_with("crates/chaos/src/")
}

/// Whether rule D2 (clock/entropy hygiene) applies to this file.
fn d2_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/")
        || rel.starts_with("crates/net/src/")
        || rel.starts_with("crates/overlay/src/")
        || rel.starts_with("crates/chaos/src/")
}

/// Whether rule P1 (worker panic-freedom) applies to this file: the
/// simulator's event core, which runs on worker threads when
/// `shards > 1`, and the chaos driver. The chaos driver is in scope
/// because a fault schedule must report misbehaviour through oracle
/// violations, never by panicking mid-sweep (a panic would lose the
/// failing seed the soak exists to capture).
fn p1_in_scope(rel: &str) -> bool {
    rel == "crates/net/src/runtime/parallel.rs" || rel.starts_with("crates/chaos/src/")
}

/// Lints one source file. `rel` is the workspace-relative path and selects
/// which rules apply.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let excluded = excluded_ranges(toks);
    let in_test = |i: usize| excluded.iter().any(|&(lo, hi)| lo <= i && i < hi);

    let mut findings = Vec::new();
    if d1_in_scope(rel) {
        rule_d1(toks, &in_test, &mut findings);
    }
    if d2_in_scope(rel) {
        rule_d2(toks, &in_test, &mut findings);
    }
    rule_h1(&lexed, &in_test, &mut findings);
    if p1_in_scope(rel) {
        rule_p1(toks, &in_test, &mut findings);
    }

    // Apply waivers: a directive covers findings on its own line and the
    // line directly below it (so a waiver comment can precede the
    // statement it waives, or trail it on the same line).
    let mut out: Vec<Finding> = findings
        .into_iter()
        .map(|(line, rule, message)| {
            let waiver = lexed.directives.iter().find(|d| {
                (d.line == line || d.line + 1 == line)
                    && match &d.kind {
                        DirectiveKind::OrderInsensitive { .. } => rule == "D1",
                        DirectiveKind::Allow { rule: r, .. } => r.eq_ignore_ascii_case(rule),
                        DirectiveKind::HotPath => false,
                    }
            });
            let (waived, waive_reason) = match waiver.map(|d| &d.kind) {
                Some(DirectiveKind::OrderInsensitive { reason })
                | Some(DirectiveKind::Allow { reason, .. }) => (true, Some(reason.clone())),
                _ => (false, None),
            };
            Finding { file: rel.to_string(), line, rule, message, waived, waive_reason }
        })
        .collect();
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

type Raw = (u32, &'static str, String);

/// Token index ranges belonging to `#[cfg(test)]` modules or `#[test]`
/// functions (half-open, over token indices).
fn excluded_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Collect the attribute's tokens up to the matching `]`.
        let mut j = i + 2;
        let mut depth = 1;
        let attr_start = j;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('[') {
                depth += 1;
            } else if toks[j].is_punct(']') {
                depth -= 1;
            }
            j += 1;
        }
        let attr = &toks[attr_start..j.saturating_sub(1)];
        let is_test_attr = (attr.len() == 1 && attr[0].is_ident("test"))
            || (attr.first().is_some_and(|t| t.is_ident("cfg"))
                && attr.iter().any(|t| t.is_ident("test")));
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip further attributes between this one and the item.
        let mut k = j;
        while k < toks.len() && toks[k].is_punct('#') {
            let mut depth = 0;
            k += 1; // past `#`
            while k < toks.len() {
                if toks[k].is_punct('[') {
                    depth += 1;
                } else if toks[k].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        // Find the item's opening brace and exclude through its close.
        let mut brace = None;
        let mut m = k;
        while m < toks.len() {
            if toks[m].is_punct('{') {
                brace = Some(m);
                break;
            }
            if toks[m].is_punct(';') {
                break; // `mod name;` — nothing inline to exclude
            }
            m += 1;
        }
        if let Some(open) = brace {
            let end = match_brace(toks, open);
            out.push((i, end));
            i = end;
        } else {
            i = m + 1;
        }
    }
    out
}

/// Returns the index one past the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

fn is_hash_ty(name: &str) -> bool {
    name == "HashMap" || name == "HashSet"
}

/// Whether the type/expression path starting at `i` (skipping leading
/// `&`, `mut`, and lifetimes) names `HashMap`/`HashSet` in its leading
/// `a::b::C` segment run. Generic arguments are not entered, so a
/// `Vec<HashMap<…>>` annotation does not mark the name — iterating the
/// outer collection is ordered.
fn path_is_hash(toks: &[Tok], mut i: usize) -> bool {
    while i < toks.len()
        && (toks[i].is_punct('&') || toks[i].is_ident("mut") || toks[i].kind == TokKind::Lifetime)
    {
        i += 1;
    }
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident {
            if is_hash_ty(&toks[i].text) {
                return true;
            }
            i += 1;
            if toks.get(i).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            {
                i += 2;
                continue;
            }
        }
        break;
    }
    false
}

/// D1 — ordered iteration over hash-based collections.
///
/// Two passes: the first collects every name the file declares with a
/// `HashMap`/`HashSet` type (fields, params, lets, plus `self` inside
/// `impl … for HashMap/HashSet` blocks); the second flags order-leaking
/// method calls on those names and `for` loops over them.
fn rule_d1(toks: &[Tok], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Raw>) {
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    let mut self_ranges: Vec<(usize, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `name: HashMap<…>` / `name: &HashSet<…>` (field, param, let, or
        // a constructor's struct-literal field `name: HashMap::new()`).
        if toks[i].kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && path_is_hash(toks, i + 2)
        {
            hash_names.insert(toks[i].text.clone());
        }
        // `let [mut] name = HashMap::…`.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if toks.get(j).map(|t| t.kind) == Some(TokKind::Ident)
                && toks.get(j + 1).is_some_and(|t| t.is_punct('='))
                && path_is_hash(toks, j + 2)
            {
                hash_names.insert(toks[j].text.clone());
            }
        }
        // `impl … for HashMap<…> { … }` marks `self` hash-typed inside.
        if toks[i].is_ident("impl") {
            let mut j = i + 1;
            let mut saw_hash_for = false;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                if toks[j].is_ident("for") {
                    saw_hash_for = path_is_hash(toks, j + 1);
                }
                j += 1;
            }
            if saw_hash_for && j < toks.len() && toks[j].is_punct('{') {
                self_ranges.push((j, match_brace(toks, j)));
            }
        }
        i += 1;
    }
    let self_is_hash = |i: usize| self_ranges.iter().any(|&(lo, hi)| lo <= i && i < hi);
    let name_is_hash = |t: &Tok, i: usize| {
        t.kind == TokKind::Ident
            && (hash_names.contains(&t.text) || (t.text == "self" && self_is_hash(i)))
    };

    for i in 0..toks.len() {
        if in_test(i) {
            continue;
        }
        // `<recv>.iter()` and friends.
        if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && ORDERED_METHODS.contains(&t.text.as_str())
            })
            && i > 0
            && name_is_hash(&toks[i - 1], i - 1)
        {
            out.push((
                toks[i + 1].line,
                "D1",
                format!(
                    "ordered iteration (`.{}()`) over hash-based collection `{}`: iteration \
                     order depends on the process hash seed — use BTreeMap/BTreeSet, sort \
                     before sending, or waive with `lint:order-insensitive(<reason>)`",
                    toks[i + 1].text,
                    toks[i - 1].text
                ),
            ));
        }
        // `for pat in [&][mut] [self.]name { … }`.
        if toks[i].is_ident("for") {
            if let Some((line, name)) = for_loop_over_hash(toks, i, &name_is_hash) {
                out.push((
                    line,
                    "D1",
                    format!(
                        "`for` loop over hash-based collection `{name}`: iteration order \
                         depends on the process hash seed — use BTreeMap/BTreeSet or waive \
                         with `lint:order-insensitive(<reason>)`"
                    ),
                ));
            }
        }
    }
}

/// If the `for` at `fi` heads a loop whose iterated expression is a bare
/// (possibly borrowed) hash-typed name or `self.<hash field>`, returns the
/// loop line and the name.
fn for_loop_over_hash(
    toks: &[Tok],
    fi: usize,
    name_is_hash: &dyn Fn(&Tok, usize) -> bool,
) -> Option<(u32, String)> {
    // Find `in` at bracket depth 0 within a short horizon (skips
    // `impl … for T` and HRTBs, which never contain a bare `in`).
    let mut depth = 0i32;
    let mut k = fi + 1;
    let horizon = (fi + 24).min(toks.len());
    let in_at = loop {
        if k >= horizon {
            return None;
        }
        match toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') | TokKind::Punct(';') => return None,
            _ => {
                if depth == 0 && toks[k].is_ident("in") {
                    break k;
                }
            }
        }
        k += 1;
    };
    // Expression tokens up to the body `{`.
    let mut e = in_at + 1;
    while e < toks.len() && (toks[e].is_punct('&') || toks[e].is_ident("mut")) {
        e += 1;
    }
    // `self.name` or bare `name`, immediately followed by the body brace.
    if toks.get(e).is_some_and(|t| t.is_ident("self"))
        && toks.get(e + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(e + 2).is_some_and(|t| t.kind == TokKind::Ident)
        && toks.get(e + 3).is_some_and(|t| t.is_punct('{'))
        && name_is_hash(&toks[e + 2], e + 2)
    {
        return Some((toks[fi].line, toks[e + 2].text.clone()));
    }
    if toks.get(e).is_some_and(|t| t.kind == TokKind::Ident)
        && toks.get(e + 1).is_some_and(|t| t.is_punct('{'))
        && name_is_hash(&toks[e], e)
    {
        return Some((toks[fi].line, toks[e].text.clone()));
    }
    None
}

/// D2 — wall-clock, sleep and ad-hoc entropy in sim-deterministic code.
fn rule_d2(toks: &[Tok], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Raw>) {
    let path3 = |i: usize, a: &str, b: &str| {
        toks[i].is_ident(a)
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(b))
    };
    for (i, tok) in toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        let hit = if path3(i, "Instant", "now") {
            Some("`Instant::now` (wall-clock read)")
        } else if path3(i, "SystemTime", "now") {
            Some("`SystemTime::now` (wall-clock read)")
        } else if path3(i, "thread", "sleep") {
            Some("`thread::sleep` (wall-clock wait)")
        } else if tok.is_ident("RandomState") {
            Some("`RandomState` (ad-hoc entropy)")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push((
                tok.line,
                "D2",
                format!(
                    "{what} in sim-deterministic code: use sim time (`Ctx` clocks) and the \
                     per-peer RNG streams, or waive with `lint:allow(D2, <reason>)`"
                ),
            ));
        }
    }
}

/// H1 — allocation tokens inside `lint:hot-path` function bodies.
fn rule_h1(lexed: &Lexed, in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Raw>) {
    let toks = &lexed.toks;
    for d in &lexed.directives {
        if d.kind != DirectiveKind::HotPath {
            continue;
        }
        // The marked function: first `fn` token at or below the marker.
        let Some(fn_i) = toks.iter().position(|t| t.line >= d.line && t.is_ident("fn")) else {
            continue;
        };
        let Some(open) = (fn_i..toks.len()).find(|&i| toks[i].is_punct('{')) else { continue };
        let end = match_brace(toks, open);
        for i in open..end {
            if in_test(i) {
                continue;
            }
            let hit = if toks[i].kind == TokKind::Ident
                && HOT_ALLOC_MACROS.contains(&toks[i].text.as_str())
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                Some(format!("`{}!`", toks[i].text))
            } else if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| {
                    t.kind == TokKind::Ident && HOT_ALLOC_METHODS.contains(&t.text.as_str())
                })
            {
                Some(format!("`.{}()`", toks[i + 1].text))
            } else if toks[i].is_ident("Box")
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
            {
                Some("`Box::new`".to_string())
            } else {
                None
            };
            if let Some(what) = hit {
                let line = if toks[i].is_punct('.') { toks[i + 1].line } else { toks[i].line };
                out.push((
                    line,
                    "H1",
                    format!(
                        "{what} in `lint:hot-path` function body: this path is pinned \
                         allocation-free by the counting-allocator gates — hoist the \
                         allocation or waive with `lint:allow(H1, <reason>)`"
                    ),
                ));
            }
        }
    }
}

/// P1 — panics in the event core's worker paths.
fn rule_p1(toks: &[Tok], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Raw>) {
    for i in 0..toks.len() {
        if in_test(i) {
            continue;
        }
        let hit = if toks[i].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            Some(format!("`.{}()`", toks[i + 1].text))
        } else if toks[i].kind == TokKind::Ident
            && (toks[i].text == "panic" || toks[i].text == "unreachable")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            Some(format!("`{}!`", toks[i].text))
        } else {
            None
        };
        if let Some(what) = hit {
            let line = if toks[i].is_punct('.') { toks[i + 1].line } else { toks[i].line };
            out.push((
                line,
                "P1",
                format!(
                    "{what} in the event core's worker path: an `App` panic under \
                     `shards > 1` deadlocks peers parked at the window barrier — return \
                     or degrade instead, or waive with `lint:allow(P1, <reason>)`"
                ),
            ));
        }
    }
}
