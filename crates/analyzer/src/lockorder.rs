//! Interprocedural lock-order and panic-path analysis over the
//! workspace call graph.
//!
//! ROADMAP item 4 (sharded admission queues + work-stealing) will
//! multiply `llp_service`'s lock surface; this pass exists *before*
//! that refactor so cycles, blocking-while-locked, and
//! panic-while-locked patterns are caught at lint time, not in a soak
//! run. The guard model is intraprocedural and linear:
//!
//! - `let g = foo.lock()` holds `foo` until `drop(g)` or the end of the
//!   binding's block; an unbound `.lock()` (a statement temporary) is
//!   released at the next `;` at the same depth. `Condvar::wait(g)`
//!   keeps the guard held (it re-acquires before returning).
//! - Calls consult the [`CallGraph`] summaries: a call to a function
//!   whose **transitive** call tree acquires `m` counts as acquiring
//!   `m` here (the fixpoint over SCCs). The acquisition is held past
//!   the statement only when the callee's signature returns a guard
//!   type (`-> MutexGuard<…>` wrappers); otherwise the callee released
//!   it before returning and it edges as a statement temporary.
//!
//! Findings:
//!
//! - `lock-order`: acquiring B while A is held adds edge A→B; a cycle
//!   in the workspace-wide edge set (including A→A re-entry, an
//!   instant deadlock with std's non-reentrant `Mutex`) is a finding,
//!   as is reaching a blocking operation (channel `send`/`recv`,
//!   `join`, a solve) while holding — now through any call depth, with
//!   the witness chain in the message.
//! - `panic-path`: a panic-capable site (`unwrap`/`expect`/
//!   `panic!`-family/indexing) executed, or reachable through calls,
//!   while a guard is held. A panic there poisons the mutex and every
//!   later `lock().expect(…)` cascades. `.unwrap()`/`.expect()` chained
//!   directly onto `lock()`/`wait*()` is exempt: that is poison
//!   *plumbing* — it can only panic if the mutex is already poisoned,
//!   never the origin of the poisoning.

use crate::callgraph::{is_blocking_call, is_keyword, is_poison_plumbing, CallGraph};
use crate::lexer::{Tok, TokKind};
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// A lock currently held during the linear scan of a body.
#[derive(Clone, Debug)]
struct Held {
    mutex: String,
    /// Guard variable, if the acquisition was `let`-bound.
    guard: Option<String>,
    /// Brace depth at the binding; leaving it releases the guard.
    depth: i32,
    /// Statement temporary: released at the next `;` at `depth`.
    temp: bool,
}

/// Acquisition-order edges: (held, acquired) → first witness (path, line).
type Edges = BTreeMap<(String, String), (String, u32)>;

/// Runs lock-order and panic-path over the whole graph. Edges from
/// every function land in one workspace-wide set, so cycles split
/// across crates are still cycles.
pub fn analyze_graph(g: &CallGraph<'_>) -> Vec<Finding> {
    if g.mutexes.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    let mut edges: Edges = BTreeMap::new();
    for d in 0..g.defs.len() {
        scan_def(g, d, &mut edges, &mut findings);
    }
    findings.extend(find_cycles(&edges));
    findings
}

/// Scans one definition's body with the guard model.
fn scan_def(g: &CallGraph<'_>, d: usize, edges: &mut Edges, findings: &mut Vec<Finding>) {
    let def = &g.defs[d];
    let file = &g.files[def.file];
    let toks: &[Tok] = &file.lexed.toks;
    let path = file.path;
    let nested = &g.nested[d];
    let site_at: BTreeMap<usize, usize> = g.calls[d]
        .iter()
        .enumerate()
        .map(|(si, s)| (s.tok, si))
        .collect();

    let mut depth: i32 = 0;
    let mut held: Vec<Held> = Vec::new();
    let mut i = def.body.0;
    while i <= def.body.1 && i < toks.len() {
        if let Some(&(_, end)) = nested.iter().find(|(s, _)| *s == i) {
            i = end + 1;
            continue;
        }
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            (TokKind::Punct, ";") => {
                held.retain(|h| !(h.temp && h.depth == depth));
            }
            // `expr[…]` indexing while holding: panic-capable.
            (TokKind::Punct, "[") if !held.is_empty() => {
                let p = &toks[i - 1];
                let indexing = (p.kind == TokKind::Ident && !is_keyword(&p.text))
                    || p.text == ")"
                    || p.text == "]";
                if indexing {
                    findings.push(panic_finding(path, t.line, "indexing", &held));
                }
            }
            // `drop(g)` releases guard g.
            (TokKind::Ident, "drop") if toks.get(i + 1).is_some_and(|n| n.text == "(") => {
                if let Some(gv) = toks.get(i + 2) {
                    held.retain(|h| h.guard.as_deref() != Some(gv.text.as_str()));
                }
            }
            (TokKind::Ident, name) => {
                // `panic!`-family while holding.
                if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                    && toks.get(i + 1).is_some_and(|n| n.text == "!")
                {
                    if !held.is_empty() {
                        findings.push(panic_finding(path, t.line, &format!("`{name}!`"), &held));
                    }
                    i += 2;
                    continue;
                }
                let is_call = toks.get(i + 1).is_some_and(|n| n.text == "(");
                if !is_call || is_keyword(name) || (i >= 1 && toks[i - 1].text == "fn") {
                    i += 1;
                    continue;
                }
                // `cond.wait(g)` keeps g held (re-acquired on return) —
                // the canonical pattern, never a finding.
                if name == "wait" || name == "wait_while" || name == "wait_timeout" {
                    i += 1;
                    continue;
                }
                // `.unwrap()`/`.expect()` while holding — unless it is
                // poison plumbing on the `lock()`/`wait()` itself.
                if matches!(name, "unwrap" | "expect") && i >= 1 && toks[i - 1].text == "." {
                    if !held.is_empty() && !is_poison_plumbing(toks, i) {
                        findings.push(panic_finding(path, t.line, &format!(".{name}()"), &held));
                    }
                    i += 1;
                    continue;
                }
                // `recv.lock()` — a direct acquisition when the
                // receiver's last path segment is a known mutex.
                if name == "lock"
                    && i >= 2
                    && toks[i - 1].text == "."
                    && g.mutexes.contains(toks[i - 2].text.as_str())
                {
                    let mutex = toks[i - 2].text.clone();
                    acquire(
                        path, toks, def.body.0, i, depth, &mutex, true, None, &mut held, edges,
                        findings,
                    );
                    i += 1;
                    continue;
                }
                if !held.is_empty() && is_blocking_call(name) {
                    let held_names: Vec<&str> = held.iter().map(|h| h.mutex.as_str()).collect();
                    findings.push(Finding::new(
                        "lock-order",
                        path,
                        t.line,
                        format!(
                            "blocking call `{name}(…)` while holding lock(s) \
                             {held_names:?}; release the guard first (or allow \
                             with the reason the call cannot block)"
                        ),
                    ));
                }
                // Resolved call: propagate callee facts. The blocking/
                // panic checks use the held set from *before* this
                // call's own propagated acquisitions — what the callee
                // does internally under its own locks is scanned in the
                // callee; the caller is on the hook only for locks it
                // already held at the call.
                if let Some(&si) = site_at.get(&i) {
                    let site = &g.calls[d][si];
                    let held_before: Vec<String> = held.iter().map(|h| h.mutex.clone()).collect();
                    let mut acquires: BTreeSet<&str> = BTreeSet::new();
                    let mut returns_guard = false;
                    for &c in &site.callees {
                        acquires.extend(g.summaries[c].acquires.iter().map(|s| s.as_str()));
                        returns_guard |= g.defs[c].returns_guard;
                    }
                    // `let x = self.lock().field.clone();` — the guard
                    // is consumed inside the statement; the `let` binds
                    // the chained result, so the hold ends at the `;`.
                    let binds_guard = returns_guard && !call_is_chained(toks, i);
                    let held_len = held.len();
                    for m in acquires {
                        let mutex = m.to_string();
                        acquire(
                            path,
                            toks,
                            def.body.0,
                            i,
                            depth,
                            &mutex,
                            binds_guard,
                            Some(name),
                            &mut held,
                            edges,
                            findings,
                        );
                    }
                    // A callee that does not hand back a guard released
                    // every lock it took before returning: the edges and
                    // re-entry checks above are the whole story, and the
                    // caller's held set reverts to what it was.
                    if !returns_guard {
                        held.truncate(held_len);
                    }
                    if !held_before.is_empty() {
                        let held_names = &held_before;
                        if !is_blocking_call(name) {
                            if let Some(&c) = site
                                .callees
                                .iter()
                                .find(|&&c| g.summaries[c].blocks.is_some())
                            {
                                let chain = g.render_chain(c, |s| s.blocks.as_ref());
                                findings.push(Finding::new(
                                    "lock-order",
                                    path,
                                    t.line,
                                    format!(
                                        "call to `{name}(…)` reaches a blocking operation \
                                         while holding lock(s) {held_names:?} ({chain}); \
                                         release the guard first"
                                    ),
                                ));
                            }
                        }
                        if let Some(&c) = site
                            .callees
                            .iter()
                            .find(|&&c| g.summaries[c].panics.is_some())
                        {
                            let chain = g.render_chain(c, |s| s.panics.as_ref());
                            findings.push(Finding::new(
                                "panic-path",
                                path,
                                t.line,
                                format!(
                                    "call to `{name}(…)` may panic while holding lock(s) \
                                     {held_names:?} ({chain}); a panic here poisons the \
                                     mutex for every other thread"
                                ),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// One `panic-path` finding at a direct site.
fn panic_finding(path: &str, line: u32, what: &str, held: &[Held]) -> Finding {
    let held_names: Vec<&str> = held.iter().map(|h| h.mutex.as_str()).collect();
    Finding::new(
        "panic-path",
        path,
        line,
        format!(
            "{what} while holding lock(s) {held_names:?}; a panic here poisons \
             the mutex for every other thread — return an error or shed instead"
        ),
    )
}

/// Records one acquisition at token index `i`: emits hold-order edges
/// against everything currently held, then pushes the new guard.
/// Propagated acquisitions (`via` = callee name) bind to a `let` only
/// when the callee returns a guard type; otherwise the callee released
/// the lock before returning and the hold ends at the statement.
#[allow(clippy::too_many_arguments)]
fn acquire(
    path: &str,
    toks: &[Tok],
    body_start: usize,
    i: usize,
    depth: i32,
    mutex: &str,
    holds_on: bool,
    via: Option<&str>,
    held: &mut Vec<Held>,
    edges: &mut Edges,
    findings: &mut Vec<Finding>,
) {
    let line = toks[i].line;
    for h in held.iter() {
        if h.mutex == mutex {
            let how = via.map_or(String::new(), |v| format!(" (via call to `{v}(…)`)"));
            findings.push(Finding::new(
                "lock-order",
                path,
                line,
                format!(
                    "re-acquiring `{mutex}` while already held{how}: \
                     std::sync::Mutex is non-reentrant; this deadlocks"
                ),
            ));
        } else {
            edges
                .entry((h.mutex.clone(), mutex.to_string()))
                .or_insert_with(|| (path.to_string(), line));
        }
    }
    let guard = if holds_on {
        guard_binding(toks, body_start, i)
    } else {
        None
    };
    let temp = guard.is_none();
    held.push(Held {
        mutex: mutex.to_string(),
        guard,
        depth,
        temp,
    });
}

/// True when the call whose name is at token `i` has its return value
/// method-chained (`self.lock().latencies_ms…`): a returned guard is
/// then a statement temporary, not the `let` binding's value. Poison
/// plumbing (`.unwrap()` / `.expect(…)`) is transparent — it unwraps
/// the guard rather than consuming it.
fn call_is_chained(toks: &[Tok], i: usize) -> bool {
    let mut j = i + 1;
    if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
        return false;
    }
    loop {
        // Walk to the matching close paren of the call at `j`.
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            return false;
        }
        // Skip transparent `.unwrap()` / `.expect(…)` links.
        if toks.get(j + 1).map(|t| t.text.as_str()) == Some(".")
            && toks
                .get(j + 2)
                .is_some_and(|t| t.text == "unwrap" || t.text == "expect")
            && toks.get(j + 3).map(|t| t.text.as_str()) == Some("(")
        {
            j += 3;
            continue;
        }
        return toks.get(j + 1).map(|t| t.text.as_str()) == Some(".");
    }
}

/// Finds the `let [mut] g =` binding a `.lock()` at token `i` flows
/// into, scanning back to the start of the statement (never past the
/// body's opening brace).
fn guard_binding(toks: &[Tok], body_start: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > body_start {
        let t = &toks[j - 1];
        if t.text == ";" || t.text == "{" || t.text == "}" {
            return None;
        }
        if t.text == "let" {
            // `let g = …` or `let mut g = …` or `let (a, b) = …` (a
            // destructuring bind — treat the tuple as unnamed: temp).
            let g = toks.get(j).filter(|t| t.kind == TokKind::Ident)?;
            if g.text == "mut" {
                return toks.get(j + 1).map(|t| t.text.clone());
            }
            return Some(g.text.clone());
        }
        j -= 1;
    }
    None
}

/// DFS cycle detection over the acquisition-order edges; each cycle is
/// reported once, anchored at its lexicographically first node.
fn find_cycles(edges: &Edges) -> Vec<Finding> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        adj.entry(a.as_str()).or_default().push(b.as_str());
    }
    let mut findings = Vec::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        // Find a path start → … → start.
        let mut stack = vec![(start, vec![start])];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, trail)) = stack.pop() {
            for &next in adj.get(node).into_iter().flatten() {
                if next == start {
                    // Report only at the cycle's smallest node, so each
                    // cycle appears once.
                    if trail.iter().all(|n| *n >= start) {
                        let (path, line) = &edges[&(node.to_string(), next.to_string())];
                        let mut cycle = trail.clone();
                        cycle.push(start);
                        findings.push(Finding::new(
                            "lock-order",
                            path,
                            *line,
                            format!(
                                "lock-order cycle {}: some interleaving deadlocks; \
                                 impose one global acquisition order",
                                cycle.join(" -> ")
                            ),
                        ));
                    }
                } else if seen.insert(next) {
                    let mut t = trail.clone();
                    t.push(next);
                    stack.push((next, t));
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FileMeta;
    use crate::lexer::{lex, Lexed};

    fn run_files(files: &[(String, Lexed)]) -> Vec<Finding> {
        let g = CallGraph::build(
            files
                .iter()
                .map(|(p, l)| FileMeta {
                    path: p,
                    crate_key: "x",
                    lexed: l,
                })
                .collect(),
        );
        analyze_graph(&g)
    }

    fn run(src: &str) -> Vec<Finding> {
        run_files(&[("crates/x/src/lib.rs".to_string(), lex(src))])
    }

    #[test]
    fn opposite_order_is_a_cycle() {
        let src = "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            fn f(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); }
            fn g(s: &S) { let gb = s.b.lock(); let ga = s.a.lock(); }
        ";
        let f = run(src);
        assert!(
            f.iter()
                .any(|x| x.lint == "lock-order" && x.message.contains("cycle")),
            "{f:?}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            struct S { a: Mutex<u32>, b: Mutex<u32> }
            fn f(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); }
            fn g(s: &S) { let ga = s.a.lock(); let gb = s.b.lock(); }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn send_under_lock_is_flagged_and_scoped_release_is_not() {
        let src = "
            struct S { state: Mutex<u32> }
            fn bad(s: &S, tx: &Sender<u32>) { let g = s.state.lock(); tx.send(1); }
            fn good(s: &S, tx: &Sender<u32>) { { let g = s.state.lock(); } tx.send(1); }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("send"));
    }

    #[test]
    fn drop_releases_and_temp_guards_end_at_statement() {
        let src = "
            struct S { state: Mutex<u32> }
            fn f(s: &S, tx: &Sender<u32>) { let g = s.state.lock(); drop(g); tx.send(1); }
            fn h(s: &S, tx: &Sender<u32>) { s.state.lock().x = 1; tx.send(1); }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn wrapper_fn_propagates() {
        let src = "
            struct S { state: Mutex<u32> }
            fn lock_state(s: &S) -> MutexGuard<u32> { s.state.lock() }
            fn f(s: &S, tx: &Sender<u32>) { let g = lock_state(s); tx.send(1); }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("state"), "{f:?}");
    }

    #[test]
    fn solve_under_lock_is_flagged() {
        let src = "
            struct S { state: Mutex<u32> }
            fn f(s: &S) { let g = s.state.lock(); let r = solve_model(); }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("solve_model"));
    }

    #[test]
    fn sequential_reacquire_in_callee_does_not_poison_callers() {
        // The callee locks, releases (block close), and locks again —
        // that is two acquisitions in sequence, not a nested re-entry,
        // so calling it must not report a deadlock.
        let src = "
            struct S { state: Mutex<u32> }
            fn worker(s: &S) { { let g = s.state.lock(); } let g2 = s.state.lock(); }
            fn spawn_it(s: &S) { worker(s); }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn condvar_wait_keeps_guard_without_finding() {
        let src = "
            struct S { state: Mutex<u32>, cond: Condvar }
            fn f(s: &S) { let mut g = s.state.lock(); g = s.cond.wait(g); }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    /// Lock order split across three call levels and two files:
    /// `entry_left` acquires `b` under `a` only through two calls, so
    /// only the fixpoint summaries report the a→b→a cycle.
    fn deep_cycle_files() -> Vec<(String, Lexed)> {
        vec![
            (
                "crates/x/src/left.rs".to_string(),
                lex("
                    struct S { a: Mutex<u32>, b: Mutex<u32> }
                    fn entry_left(s: &S) { let ga = s.a.lock(); step1(s); }
                    fn step1(s: &S) { step2(s); }
                "),
            ),
            (
                "crates/x/src/right.rs".to_string(),
                lex("
                    fn step2(s: &S) { let gb = s.b.lock(); }
                    fn entry_right(s: &S) { let gb = s.b.lock(); let ga = s.a.lock(); }
                "),
            ),
        ]
    }

    #[test]
    fn three_deep_cross_file_cycle_is_caught_transitively() {
        let f = run_files(&deep_cycle_files());
        assert!(
            f.iter()
                .any(|x| x.lint == "lock-order" && x.message.contains("cycle")),
            "{f:?}"
        );
    }

    #[test]
    fn unwrap_under_guard_is_a_panic_path() {
        let src = "
            struct S { state: Mutex<State> }
            fn f(s: &S) { let g = s.state.lock().unwrap(); g.map.get(&1).unwrap(); }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "panic-path");
        assert!(f[0].message.contains(".unwrap()"), "{f:?}");
    }

    #[test]
    fn poison_plumbing_is_not_a_panic_path() {
        let src = "
            struct S { state: Mutex<State>, cond: Condvar }
            fn f(s: &S) { let mut g = s.state.lock().expect(\"poisoned\"); g = s.cond.wait(g).expect(\"poisoned\"); }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn callee_panic_fires_at_the_guarded_call_site_with_chain() {
        let src = "
            struct S { state: Mutex<State> }
            fn helper(v: &[u32]) -> u32 { v[0] }
            fn mid(v: &[u32]) -> u32 { helper(v) }
            fn f(s: &S, v: &[u32]) { let g = s.state.lock(); mid(v); }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].lint, "panic-path");
        assert!(f[0].message.contains("mid"), "{f:?}");
        assert!(f[0].message.contains("helper"), "{f:?}");
    }

    #[test]
    fn panic_after_release_is_clean() {
        let src = "
            struct S { state: Mutex<State> }
            fn f(s: &S, v: &[u32]) { { let g = s.state.lock(); } v.first().unwrap(); }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn transitive_blocking_fires_through_a_wrapper() {
        let src = "
            struct S { state: Mutex<u32> }
            fn notify(tx: &Sender<u32>) { tx.send(1); }
            fn f(s: &S, tx: &Sender<u32>) { let g = s.state.lock(); notify(tx); }
        ";
        let f = run(src);
        assert!(
            f.iter().any(|x| x.lint == "lock-order"
                && x.message.contains("reaches a blocking operation")
                && x.message.contains("notify")),
            "{f:?}"
        );
    }
}
