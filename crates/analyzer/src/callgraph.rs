//! Whole-workspace call-graph engine: function resolution, SCC
//! condensation, and fixpoint summaries.
//!
//! The lock-order pass originally propagated acquisitions **one**
//! call-graph level — enough for `self.lock()` wrappers, blind to a
//! deadlock two calls deep. This module gives every interprocedural
//! pass the same substrate instead:
//!
//! 1. **Definition harvest** — one linear walk per file collects every
//!    `fn`, qualified by its lexical context (file-derived module stem,
//!    inline `mod` blocks, `impl`/`trait` type), plus its signature and
//!    body token ranges. Nested `fn`s get their own defs and are carved
//!    out of the parent's scan range.
//! 2. **Call-site resolution** — call-shaped tokens (`name(…)`,
//!    `recv.name(…)`, `Path::name(…)`) resolve against the definition
//!    index. Qualified calls match when every qualifier segment (after
//!    `use … as` alias expansion and `llp_`-prefix normalization)
//!    appears in a candidate's segments; bare calls take every
//!    same-named def; method calls resolve only when the name is
//!    unambiguous workspace-wide (so `.clone()`/`.insert()` on std
//!    types cannot adopt a stranger's side effects).
//! 3. **Fixpoint summaries** — Tarjan SCCs over the call edges, then
//!    one pass in reverse topological order (callees first) computes,
//!    per function: the transitive mutex-acquisition set, may-block,
//!    may-panic, and FP-purity facts, each with a witness chain for
//!    findings (`worker_loop -> helper -> Instant::now()`).
//!
//! Consumers: `lockorder` (transitive acquisition/blocking under
//! guards, the `panic-path` lint) and `purity` (the `fp-kernel-purity`
//! lint over `policy::KERNEL_FILES`).

use crate::lexer::{matches_seq, Lexed, Tok, TokKind};
use crate::policy::ENV_OWNER;
use std::collections::{BTreeMap, BTreeSet};

/// One analyzed source file: workspace path, owning crate key, tokens.
pub struct FileMeta<'a> {
    /// Workspace-relative path (used in findings).
    pub path: &'a str,
    /// Policy key of the owning crate (`"core"`, `"llp_par"`, …).
    pub crate_key: &'a str,
    /// The lexed token stream.
    pub lexed: &'a Lexed,
}

/// Call-shaped identifiers that block (or are unboundedly expensive)
/// and must not run under a held lock. Shared with `lockorder`.
pub fn is_blocking_call(name: &str) -> bool {
    name == "send"
        || name == "recv"
        || name == "recv_timeout"
        || name == "join"
        || name == "execute"
        || name.starts_with("solve")
}

/// One function definition discovered in the workspace.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Qualification segments for call resolution: crate key, file stem
    /// (when not `lib`/`main`/`mod`), inline modules, `impl`/`trait`
    /// type, then the name itself.
    pub segments: Vec<String>,
    /// Index into the graph's file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range `[open brace, close brace]` of the body, inclusive.
    pub body: (usize, usize),
    /// True when the return type names a guard (`MutexGuard`, …): a
    /// `let`-bound call then holds the lock like a direct `.lock()`.
    pub returns_guard: bool,
}

impl FnDef {
    /// `segments` joined with `::` — the display name used in findings.
    pub fn qname(&self) -> String {
        self.segments.join("::")
    }
}

/// A resolved call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Token index (in the file's stream) of the callee name.
    pub tok: usize,
    /// 1-based source line of the call.
    pub line: u32,
    /// Callee name as written.
    pub name: String,
    /// Resolved definition indices (empty: external / ambiguous).
    pub callees: Vec<usize>,
}

/// Where a transitive fact came from, for witness chains in findings.
#[derive(Clone, Debug)]
pub enum Source {
    /// The fact is a token pattern in this function's own body.
    Direct {
        /// What fired (`"Instant::now()"`, `".unwrap()"`, …).
        what: String,
        /// 1-based line of the site.
        line: u32,
    },
    /// Inherited from a callee at the given call line.
    Via {
        /// Definition index of the callee carrying the fact.
        callee: usize,
        /// 1-based line of the call in *this* function.
        line: u32,
    },
}

/// Transitive facts of one function (fixpoint over its SCC).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Mutexes acquired anywhere in the transitive call tree. A set,
    /// not a sequence: lock/unlock/relock in a callee is one
    /// acquisition from the caller's perspective (propagated
    /// acquisitions edge against the caller's held set, never against
    /// each other).
    pub acquires: BTreeSet<String>,
    /// The call tree reaches a blocking primitive.
    pub blocks: Option<Source>,
    /// The call tree reaches a panic-capable site
    /// (`unwrap`/`expect`/`panic!`-family/indexing).
    pub panics: Option<Source>,
    /// FP-purity violations by kind (`"wall-clock"`, `"env-read"`,
    /// `"unseeded-rng"`, `"hash-collection"`).
    pub impure: BTreeMap<&'static str, Source>,
}

/// Per-function facts readable directly off the body tokens.
#[derive(Clone, Debug, Default)]
struct DirectFacts {
    acquires: BTreeSet<String>,
    blocks: Option<Source>,
    panics: Option<Source>,
    impure: BTreeMap<&'static str, Source>,
}

/// The whole-workspace call graph plus computed summaries.
pub struct CallGraph<'a> {
    /// The analyzed files, in the order defs reference them.
    pub files: Vec<FileMeta<'a>>,
    /// Every function definition.
    pub defs: Vec<FnDef>,
    /// Call sites per definition, sorted by token index.
    pub calls: Vec<Vec<CallSite>>,
    /// Mutex names discovered across all files.
    pub mutexes: BTreeSet<String>,
    /// Transitive summaries, indexed like `defs`.
    pub summaries: Vec<Summary>,
    /// Per-def token ranges of *nested* fn bodies (defining a nested fn
    /// is not executing it), for consumers re-walking body tokens.
    pub nested: Vec<Vec<(usize, usize)>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph and computes summaries for `files`.
    pub fn build(files: Vec<FileMeta<'a>>) -> Self {
        let mut mutexes = BTreeSet::new();
        for f in &files {
            discover_mutexes(&f.lexed.toks, &mut mutexes);
        }

        // Pass 1: definitions.
        let mut defs: Vec<FnDef> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            harvest_defs(fi, f, &mut defs);
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, d) in defs.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(i);
        }

        // Pass 2: call sites + direct facts, skipping nested defs'
        // token ranges (defining a nested fn is not executing it).
        let mut nested: Vec<Vec<(usize, usize)>> = vec![Vec::new(); defs.len()];
        for (i, d) in defs.iter().enumerate() {
            for (j, e) in defs.iter().enumerate() {
                if i != j && d.file == e.file && d.body.0 < e.body.0 && e.body.1 <= d.body.1 {
                    nested[i].push(e.body);
                }
            }
        }
        let aliases: Vec<BTreeMap<String, Vec<String>>> = files
            .iter()
            .map(|f| collect_aliases(&f.lexed.toks))
            .collect();
        let mut calls: Vec<Vec<CallSite>> = Vec::with_capacity(defs.len());
        let mut direct: Vec<DirectFacts> = Vec::with_capacity(defs.len());
        for (i, d) in defs.iter().enumerate() {
            let f = &files[d.file];
            let (sites, facts) = scan_def(
                f,
                d,
                &nested[i],
                &mutexes,
                &by_name,
                &defs,
                &aliases[d.file],
            );
            calls.push(sites);
            direct.push(facts);
        }

        // Pass 3: fixpoint by SCC condensation. Tarjan emits an SCC
        // only after all its successors, so walking the emission order
        // processes callees before callers and one union per SCC is the
        // fixpoint.
        let sccs = tarjan_sccs(defs.len(), &calls);
        let mut scc_of = vec![usize::MAX; defs.len()];
        for (si, scc) in sccs.iter().enumerate() {
            for &d in scc {
                scc_of[d] = si;
            }
        }
        let mut summaries: Vec<Summary> = vec![Summary::default(); defs.len()];
        let mut done = vec![false; defs.len()];
        for scc in &sccs {
            // Accumulate the SCC-wide fact set: every member's direct
            // facts plus every external callee's (already final)
            // summary.
            let mut acc = Summary::default();
            for &m in scc {
                let df = &direct[m];
                acc.acquires.extend(df.acquires.iter().cloned());
                for site in &calls[m] {
                    for &c in &site.callees {
                        if scc_of[c] != scc_of[m] {
                            debug_assert!(done[c], "callee SCC not yet summarized");
                            acc.acquires.extend(summaries[c].acquires.iter().cloned());
                        }
                    }
                }
            }
            let member_has =
                |acc_kind: &dyn Fn(&DirectFacts) -> bool| scc.iter().any(|&m| acc_kind(&direct[m]));
            let callee_fact = |m: usize, has: &dyn Fn(&Summary) -> bool| -> Option<Source> {
                calls[m].iter().find_map(|site| {
                    site.callees.iter().find_map(|&c| {
                        let external = scc_of[c] != scc_of[m];
                        let carries = if external {
                            has(&summaries[c])
                        } else {
                            // Same SCC: decided by the accumulated
                            // member facts below; conservative — the
                            // chain renderer caps cycles.
                            false
                        };
                        carries.then_some(Source::Via {
                            callee: c,
                            line: site.line,
                        })
                    })
                })
            };
            let scc_blocks = member_has(&|d| d.blocks.is_some())
                || scc
                    .iter()
                    .any(|&m| callee_fact(m, &|s| s.blocks.is_some()).is_some());
            let scc_panics = member_has(&|d| d.panics.is_some())
                || scc
                    .iter()
                    .any(|&m| callee_fact(m, &|s| s.panics.is_some()).is_some());
            let mut scc_impure: BTreeSet<&'static str> = BTreeSet::new();
            for &m in scc {
                scc_impure.extend(direct[m].impure.keys().copied());
                for site in &calls[m] {
                    for &c in &site.callees {
                        if scc_of[c] != scc_of[m] {
                            scc_impure.extend(summaries[c].impure.keys().copied());
                        }
                    }
                }
            }
            // Assign to each member, preferring its own witness so the
            // reported chain starts in the member's file. Computed
            // first, written after: `callee_fact` holds `summaries`
            // borrowed until its last call.
            let assigned: Vec<(usize, Summary)> = scc
                .iter()
                .map(|&m| {
                    let mut s = Summary {
                        acquires: acc.acquires.clone(),
                        ..Summary::default()
                    };
                    if scc_blocks {
                        s.blocks = direct[m]
                            .blocks
                            .clone()
                            .or_else(|| callee_fact(m, &|c| c.blocks.is_some()))
                            .or_else(|| in_scc_source(m, scc_of[m], &scc_of, &calls));
                    }
                    if scc_panics {
                        s.panics = direct[m]
                            .panics
                            .clone()
                            .or_else(|| callee_fact(m, &|c| c.panics.is_some()))
                            .or_else(|| in_scc_source(m, scc_of[m], &scc_of, &calls));
                    }
                    for &kind in &scc_impure {
                        let src = direct[m]
                            .impure
                            .get(kind)
                            .cloned()
                            .or_else(|| callee_fact(m, &|c| c.impure.contains_key(kind)))
                            .or_else(|| in_scc_source(m, scc_of[m], &scc_of, &calls));
                        if let Some(src) = src {
                            s.impure.insert(kind, src);
                        }
                    }
                    (m, s)
                })
                .collect();
            for (m, s) in assigned {
                summaries[m] = s;
            }
            for &m in scc {
                done[m] = true;
            }
        }

        CallGraph {
            files,
            defs,
            calls,
            mutexes,
            summaries,
            nested,
        }
    }

    /// Renders a witness chain starting at `def`'s source for `fact`,
    /// e.g. `service::worker_loop -> exec::helper: Instant::now() in
    /// crates/service/src/exec.rs`. Cycle-guarded and depth-capped; ends
    /// at the direct site. Deliberately line-number-free: chains land in
    /// finding messages, which then stay the same when an unrelated edit
    /// moves a line.
    pub fn render_chain(&self, def: usize, pick: impl Fn(&Summary) -> Option<&Source>) -> String {
        let mut names = vec![self.defs[def].qname()];
        let mut seen = BTreeSet::from([def]);
        let mut cur = def;
        for _ in 0..8 {
            match pick(&self.summaries[cur]) {
                Some(Source::Direct { what, line: _ }) => {
                    let path = self.files[self.defs[cur].file].path;
                    return format!("{}: {} in {}", names.join(" -> "), what, path);
                }
                Some(Source::Via { callee, .. }) => {
                    if !seen.insert(*callee) {
                        break; // recursion cycle in the witness chain
                    }
                    cur = *callee;
                    names.push(self.defs[cur].qname());
                }
                None => break,
            }
        }
        names.join(" -> ")
    }
}

/// Fallback witness for SCC members whose fact arrived through an
/// in-SCC edge (mutual recursion): point at the first in-SCC call.
fn in_scc_source(
    m: usize,
    scc: usize,
    scc_of: &[usize],
    calls: &[Vec<CallSite>],
) -> Option<Source> {
    calls[m].iter().find_map(|site| {
        site.callees
            .iter()
            .find(|&&c| scc_of[c] == scc && c != m)
            .map(|&c| Source::Via {
                callee: c,
                line: site.line,
            })
    })
}

/// Collects mutex names: `name : Mutex <` fields/params and
/// `let name = Mutex :: new` bindings (same shapes as the original
/// lock-order pass, now discovered workspace-wide).
pub fn discover_mutexes(toks: &[Tok], out: &mut BTreeSet<String>) {
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || toks[i].text != "Mutex" {
            continue;
        }
        if i >= 2 && toks[i - 1].text == ":" && toks[i - 2].kind == TokKind::Ident {
            out.insert(toks[i - 2].text.clone());
        }
        let mut j = i;
        while j >= 1
            && (toks[j - 1].kind == TokKind::Punct
                || toks[j - 1].text == "Arc"
                || toks[j - 1].text == "new")
            && toks[j - 1].text != ";"
            && toks[j - 1].text != "{"
        {
            j -= 1;
        }
        let plain_let = j >= 2 && toks[j - 1].kind == TokKind::Ident && toks[j - 2].text == "let";
        let mut_let = j >= 3
            && toks[j - 1].kind == TokKind::Ident
            && toks[j - 2].text == "mut"
            && toks[j - 3].text == "let";
        if plain_let || mut_let {
            out.insert(toks[j - 1].text.clone());
        }
    }
}

/// Module-stem segment of a file path: `crates/core/src/clarkson.rs`
/// contributes `clarkson`; `lib.rs`/`main.rs`/`mod.rs` contribute
/// nothing (they are the crate/module root).
fn file_stem_segment(path: &str) -> Option<String> {
    let stem = path.rsplit('/').next()?.strip_suffix(".rs")?;
    if stem == "lib" || stem == "main" || stem == "mod" {
        None
    } else {
        Some(stem.to_string())
    }
}

/// Harvests every `fn` definition in one file, qualified by the lexical
/// `mod`/`impl`/`trait` scope stack.
fn harvest_defs(file_idx: usize, f: &FileMeta<'_>, out: &mut Vec<FnDef>) {
    let toks = &f.lexed.toks;
    // Pre-pass: map each scope-opening `{` token index to its context.
    #[derive(Clone)]
    enum Scope {
        Module(String),
        Type(String),
        Plain,
    }
    let mut openers: BTreeMap<usize, Scope> = BTreeMap::new();
    let mut fn_at: BTreeMap<usize, (String, u32, bool)> = BTreeMap::new(); // body `{` -> (name, line, returns_guard)
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod"
                if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident)
                    && toks.get(i + 2).is_some_and(|b| b.text == "{") =>
            {
                openers.insert(i + 2, Scope::Module(toks[i + 1].text.clone()));
                i += 3;
                continue;
            }
            "impl" | "trait" => {
                if let Some((ty, open)) = parse_type_header(toks, i) {
                    openers.insert(open, Scope::Type(ty));
                    i += 1;
                    continue;
                }
            }
            "fn" => {
                if let Some(name_tok) = toks.get(i + 1) {
                    if name_tok.kind == TokKind::Ident {
                        if let Some(open) = find_body_open(toks, i + 2) {
                            let returns_guard = toks[i + 2..open]
                                .iter()
                                .any(|t| t.kind == TokKind::Ident && t.text.contains("Guard"));
                            fn_at.insert(open, (name_tok.text.clone(), t.line, returns_guard));
                        }
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Linear walk with a scope stack to assign qualified names and find
    // each body's closing brace.
    let mut stack: Vec<(Scope, Option<usize>)> = Vec::new(); // (scope, def idx opened here)
    let mut segments: Vec<String> = vec![f.crate_key.to_string()];
    if let Some(stem) = file_stem_segment(f.path) {
        segments.push(stem);
    }
    let base_len = segments.len();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => {
                if let Some((name, line, returns_guard)) = fn_at.get(&i) {
                    let mut segs = segments.clone();
                    segs.push(name.clone());
                    out.push(FnDef {
                        name: name.clone(),
                        segments: segs,
                        file: file_idx,
                        line: *line,
                        body: (i, i), // close patched on pop
                        returns_guard: *returns_guard,
                    });
                    stack.push((Scope::Plain, Some(out.len() - 1)));
                } else {
                    let scope = openers.get(&i).cloned().unwrap_or(Scope::Plain);
                    match &scope {
                        Scope::Module(m) => segments.push(m.clone()),
                        Scope::Type(ty) => segments.push(ty.clone()),
                        Scope::Plain => {}
                    }
                    stack.push((scope, None));
                }
            }
            "}" => {
                if let Some((scope, def)) = stack.pop() {
                    if let Some(d) = def {
                        out[d].body.1 = i;
                    }
                    match scope {
                        Scope::Module(_) | Scope::Type(_) if segments.len() > base_len => {
                            segments.pop();
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
}

/// Parses an `impl`/`trait` header at `i`, returning the subject type's
/// last path segment and the body-opening `{` index.
fn parse_type_header(toks: &[Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut subject: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle -= 1,
            (TokKind::Ident, "for") if angle == 0 => {
                // `impl Trait for Type` — the subject is after `for`.
                last_ident = None;
            }
            (TokKind::Ident, "where") if angle == 0 => {
                subject = subject.or(last_ident.take());
            }
            (TokKind::Ident, _) if angle == 0 => last_ident = Some(t.text.clone()),
            (TokKind::Punct, "{") if angle == 0 => {
                return Some((subject.or(last_ident)?, j));
            }
            (TokKind::Punct, ";") if angle == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Finds the body-opening `{` of a fn whose signature starts at `from`
/// (just past the name): the first `{` at paren/bracket depth 0; a `;`
/// first means a bodyless declaration.
fn find_body_open(toks: &[Tok], from: usize) -> Option<usize> {
    let mut j = from;
    let mut depth = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return Some(j),
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}

/// Collects `use … as alias;` mappings of one file:
/// alias → normalized target segments.
fn collect_aliases(toks: &[Tok]) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text == "use" {
            let mut j = i + 1;
            let mut segs: Vec<String> = Vec::new();
            while j < toks.len() && toks[j].text != ";" {
                if toks[j].kind == TokKind::Ident {
                    if toks[j].text == "as" {
                        if let Some(alias) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) {
                            out.insert(alias.text.clone(), normalize_segments(&segs));
                            j += 1; // don't treat the alias as a path segment
                        }
                    } else {
                        segs.push(toks[j].text.clone());
                    }
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// Normalizes qualifier/definition segments for matching: drops
/// `crate`/`self`/`super`/`Self` and the `llp_` crate-name prefix.
fn normalize_segments(segs: &[String]) -> Vec<String> {
    segs.iter()
        .filter(|s| !matches!(s.as_str(), "crate" | "self" | "super" | "Self"))
        .map(|s| s.strip_prefix("llp_").unwrap_or(s).to_string())
        .collect()
}

/// Keywords that look call-shaped when followed by `(`.
pub fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "match"
            | "return"
            | "for"
            | "loop"
            | "let"
            | "else"
            | "move"
            | "in"
            | "as"
            | "fn"
            | "impl"
            | "use"
            | "mod"
            | "where"
            | "break"
            | "continue"
            | "await"
    )
}

/// True when the `.unwrap(`/`.expect(` at token `i` chains directly
/// onto a `lock()`/`wait*()` call: poison plumbing, which can only
/// panic if the mutex is *already* poisoned — never the origin of a
/// poisoning panic itself.
pub fn is_poison_plumbing(toks: &[Tok], i: usize) -> bool {
    // Shape: … lock ( … ) . unwrap (   — walk back over the `.`, the
    // `)`, its matching `(`, to the callee name.
    if i < 2 || toks[i - 1].text != "." || toks[i - 2].text != ")" {
        return false;
    }
    let mut depth = 0i32;
    let mut j = i - 2;
    loop {
        match toks[j].text.as_str() {
            ")" => depth += 1,
            "(" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        if j == 0 {
            return false;
        }
        j -= 1;
    }
    j >= 1
        && toks[j - 1].kind == TokKind::Ident
        && matches!(
            toks[j - 1].text.as_str(),
            "lock" | "wait" | "wait_while" | "wait_timeout"
        )
}

/// Scans one definition's body (minus nested defs): resolved call
/// sites plus direct facts.
#[allow(clippy::too_many_arguments)]
fn scan_def(
    f: &FileMeta<'_>,
    d: &FnDef,
    nested: &[(usize, usize)],
    mutexes: &BTreeSet<String>,
    by_name: &BTreeMap<&str, Vec<usize>>,
    defs: &[FnDef],
    aliases: &BTreeMap<String, Vec<String>>,
) -> (Vec<CallSite>, DirectFacts) {
    let toks = &f.lexed.toks;
    let mut sites = Vec::new();
    let mut facts = DirectFacts::default();
    let env_exempt = f.crate_key == ENV_OWNER;
    let mut i = d.body.0;
    while i <= d.body.1 && i < toks.len() {
        if let Some(&(_, end)) = nested.iter().find(|(s, _)| *s == i) {
            i = end + 1; // skip the nested definition's body
            continue;
        }
        let t = &toks[i];
        // Indexing is panic-capable: `expr[…]` after an ident, `)` or
        // `]` (never `#[attr]`, array literals, or slice types).
        if t.kind == TokKind::Punct && t.text == "[" && i > d.body.0 {
            let p = &toks[i - 1];
            let indexing = (p.kind == TokKind::Ident && !is_keyword(&p.text))
                || p.text == ")"
                || p.text == "]";
            if indexing && facts.panics.is_none() {
                facts.panics = Some(Source::Direct {
                    what: "indexing".to_string(),
                    line: t.line,
                });
            }
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        // Impurity facts (same token shapes as the per-file lints).
        match name {
            "Instant" | "SystemTime" if matches_seq(toks, i + 1, &["::", "now"]) => {
                facts.impure.entry("wall-clock").or_insert(Source::Direct {
                    what: format!("{name}::now()"),
                    line: t.line,
                });
            }
            "env"
                if !env_exempt
                    && (matches_seq(toks, i + 1, &["::", "var"])
                        || matches_seq(toks, i + 1, &["::", "var_os"])
                        || matches_seq(toks, i + 1, &["::", "vars"])) =>
            {
                facts.impure.entry("env-read").or_insert(Source::Direct {
                    what: "env read".to_string(),
                    line: t.line,
                });
            }
            "ThreadRng" | "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" => {
                facts
                    .impure
                    .entry("unseeded-rng")
                    .or_insert(Source::Direct {
                        what: format!("`{name}`"),
                        line: t.line,
                    });
            }
            "HashMap" | "HashSet" => {
                facts
                    .impure
                    .entry("hash-collection")
                    .or_insert(Source::Direct {
                        what: format!("`{name}` (process-seeded iteration order)"),
                        line: t.line,
                    });
            }
            _ => {}
        }
        // Panic macros.
        if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|n| n.text == "!")
        {
            if facts.panics.is_none() {
                facts.panics = Some(Source::Direct {
                    what: format!("{name}!"),
                    line: t.line,
                });
            }
            i += 1;
            continue;
        }
        // Call shapes.
        let is_call = toks.get(i + 1).is_some_and(|n| n.text == "(");
        if !is_call || is_keyword(name) {
            i += 1;
            continue;
        }
        // `fn inner(…)` — a nested definition's signature, not a call.
        if i >= 1 && toks[i - 1].text == "fn" {
            i += 1;
            continue;
        }
        // `drop(g)` is std's mem::drop, not a workspace `Drop::drop`
        // impl — resolving it would graft e.g. a service teardown's
        // blocking `join` onto every guard release in the workspace.
        if name == "drop" {
            i += 1;
            continue;
        }
        if matches!(name, "unwrap" | "expect") && i >= 1 && toks[i - 1].text == "." {
            if !is_poison_plumbing(toks, i) && facts.panics.is_none() {
                facts.panics = Some(Source::Direct {
                    what: format!(".{name}()"),
                    line: t.line,
                });
            }
            i += 1;
            continue;
        }
        if is_blocking_call(name) && facts.blocks.is_none() {
            facts.blocks = Some(Source::Direct {
                what: format!("{name}(…)"),
                line: t.line,
            });
        }
        // `.lock()` on a known mutex: a direct acquisition.
        if name == "lock"
            && i >= 2
            && toks[i - 1].text == "."
            && mutexes.contains(toks[i - 2].text.as_str())
        {
            facts.acquires.insert(toks[i - 2].text.clone());
            i += 1;
            continue;
        }
        // Resolve the callee.
        let callees = resolve_call(toks, i, d, by_name, defs, aliases);
        sites.push(CallSite {
            tok: i,
            line: t.line,
            name: name.to_string(),
            callees,
        });
        i += 1;
    }
    (sites, facts)
}

/// Resolves the call at token `i` (an ident followed by `(`) made from
/// inside definition `caller`.
///
/// - **Qualified** (`path::name(…)`): alias-expanded qualifier
///   segments must all appear among a candidate's segments — the only
///   mode that resolves across crates (cross-crate calls are always
///   path-qualified or imported; imports of *common* names are exactly
///   the promiscuity this avoids).
/// - **Bare** (`name(…)`): candidates in the caller's file, else in
///   the caller's crate. Never cross-crate — a bare `run(…)` in a test
///   helper must not adopt the side effects of every `fn run` in the
///   workspace.
/// - **Method** (`recv.name(…)`): the receiver's type is unknown, so
///   only an *unambiguous* name resolves — unique in the caller's
///   file, else unique workspace-wide. `.clone()`/`.get()` on std
///   types thus stay external instead of adopting a stranger's facts.
fn resolve_call(
    toks: &[Tok],
    i: usize,
    caller: &FnDef,
    by_name: &BTreeMap<&str, Vec<usize>>,
    defs: &[FnDef],
    aliases: &BTreeMap<String, Vec<String>>,
) -> Vec<usize> {
    let Some(candidates) = by_name.get(toks[i].text.as_str()) else {
        return Vec::new();
    };
    // Collect the `seg :: seg :: name` qualifier, if any.
    let mut quals: Vec<String> = Vec::new();
    let mut j = i;
    while j >= 2 && toks[j - 1].text == "::" && toks[j - 2].kind == TokKind::Ident {
        quals.insert(0, toks[j - 2].text.clone());
        j -= 2;
    }
    if !quals.is_empty() {
        // Expand a leading `use … as` alias, then require every
        // qualifier segment to appear among the candidate's segments.
        let mut expanded: Vec<String> = Vec::new();
        if let Some(target) = aliases.get(&quals[0]) {
            expanded.extend(target.iter().cloned());
            expanded.extend(quals[1..].iter().cloned());
        } else {
            expanded = quals;
        }
        let want = normalize_segments(&expanded);
        // `Self::new()` / `crate::helper()` qualifiers normalize to
        // nothing; a vacuous filter would adopt every same-named def
        // in the workspace, so fall through to unqualified scoping.
        if !want.is_empty() {
            return candidates
                .iter()
                .copied()
                .filter(|&c| {
                    let have = normalize_segments(&defs[c].segments);
                    want.iter().all(|q| have.contains(q))
                })
                .collect();
        }
    }
    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| defs[c].file == caller.file)
        .collect();
    let is_method = i >= 1 && toks[i - 1].text == ".";
    if is_method {
        if same_file.len() == 1 {
            return same_file;
        }
        if same_file.is_empty() && candidates.len() == 1 {
            return candidates.clone();
        }
        return Vec::new();
    }
    if !same_file.is_empty() {
        return same_file;
    }
    candidates
        .iter()
        .copied()
        .filter(|&c| defs[c].segments.first() == caller.segments.first())
        .collect()
}

/// Iterative Tarjan SCC. Returns SCCs in emission order — each SCC
/// after all SCCs it calls into — which is exactly the fixpoint
/// processing order.
fn tarjan_sccs(n: usize, calls: &[Vec<CallSite>]) -> Vec<Vec<usize>> {
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut out: Vec<usize> = calls[i]
                .iter()
                .flat_map(|s| s.callees.iter().copied())
                .collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Work stack: (node, next child position).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut work: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = work.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ci) {
                *ci += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn graph<'a>(files: &'a [(String, Lexed)]) -> CallGraph<'a> {
        CallGraph::build(
            files
                .iter()
                .map(|(p, l)| FileMeta {
                    path: p,
                    crate_key: "x",
                    lexed: l,
                })
                .collect(),
        )
    }

    fn lexed(srcs: &[(&str, &str)]) -> Vec<(String, Lexed)> {
        srcs.iter().map(|(p, s)| (p.to_string(), lex(s))).collect()
    }

    fn def_idx(g: &CallGraph<'_>, name: &str) -> usize {
        g.defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("no def {name}"))
    }

    #[test]
    fn defs_are_qualified_by_module_and_impl() {
        let files = lexed(&[(
            "crates/x/src/cache.rs",
            "impl<V: Clone> LruCache<V> { fn get(&mut self) {} }
             mod inner { fn helper() {} }
             fn free() {}",
        )]);
        let g = graph(&files);
        let names: Vec<String> = g.defs.iter().map(|d| d.qname()).collect();
        assert!(
            names.contains(&"x::cache::LruCache::get".to_string()),
            "{names:?}"
        );
        assert!(
            names.contains(&"x::cache::inner::helper".to_string()),
            "{names:?}"
        );
        assert!(names.contains(&"x::cache::free".to_string()), "{names:?}");
    }

    #[test]
    fn transitive_acquires_cross_files_and_levels() {
        let files = lexed(&[
            (
                "crates/x/src/a.rs",
                "struct S { m: Mutex<u32> }
                 fn deep(s: &S) { let g = s.m.lock(); }
                 fn mid(s: &S) { deep(s); }",
            ),
            ("crates/x/src/b.rs", "fn top(s: &S) { mid(s); }"),
        ]);
        let g = graph(&files);
        let top = def_idx(&g, "top");
        assert!(
            g.summaries[top].acquires.contains("m"),
            "{:?}",
            g.summaries[top]
        );
    }

    #[test]
    fn recursion_reaches_a_fixpoint() {
        let files = lexed(&[(
            "crates/x/src/a.rs",
            "struct S { m: Mutex<u32> }
             fn ping(s: &S, n: u32) { if n > 0 { pong(s, n - 1) } }
             fn pong(s: &S, n: u32) { let g = s.m.lock(); ping(s, n) }",
        )]);
        let g = graph(&files);
        for f in ["ping", "pong"] {
            let d = def_idx(&g, f);
            assert!(
                g.summaries[d].acquires.contains("m"),
                "{f}: {:?}",
                g.summaries[d]
            );
        }
    }

    #[test]
    fn may_panic_propagates_with_witness_chain() {
        let files = lexed(&[(
            "crates/x/src/a.rs",
            "fn leaf(v: &[u32]) -> u32 { v.first().unwrap() }
             fn caller(v: &[u32]) -> u32 { leaf(v) }",
        )]);
        let g = graph(&files);
        let caller = def_idx(&g, "caller");
        assert!(g.summaries[caller].panics.is_some());
        let chain = g.render_chain(caller, |s| s.panics.as_ref());
        assert!(chain.contains("caller -> x::a::leaf"), "{chain}");
        assert!(chain.contains(".unwrap()"), "{chain}");
    }

    #[test]
    fn lock_unwrap_is_poison_plumbing_not_a_panic_site() {
        let files = lexed(&[(
            "crates/x/src/a.rs",
            "struct S { m: Mutex<u32> }
             fn f(s: &S) { let g = s.m.lock().unwrap(); }",
        )]);
        let g = graph(&files);
        let f = def_idx(&g, "f");
        assert!(g.summaries[f].panics.is_none(), "{:?}", g.summaries[f]);
        assert!(g.summaries[f].acquires.contains("m"));
    }

    #[test]
    fn indexing_is_a_panic_site_but_attributes_are_not() {
        let files = lexed(&[(
            "crates/x/src/a.rs",
            "fn idx(v: &[u32], i: usize) -> u32 { v[i] }
             #[inline]
             fn clean(v: &[u32]) -> usize { v.len() }",
        )]);
        let g = graph(&files);
        assert!(g.summaries[def_idx(&g, "idx")].panics.is_some());
        assert!(g.summaries[def_idx(&g, "clean")].panics.is_none());
    }

    #[test]
    fn method_calls_resolve_only_unambiguous_names() {
        let files = lexed(&[(
            "crates/x/src/a.rs",
            "impl A { fn tick(&self) { let t = Instant::now(); } }
             impl B { fn poke(&self) {} }
             fn user(a: &A) { a.tick(); }",
        )]);
        let g = graph(&files);
        let user = def_idx(&g, "user");
        assert!(
            g.summaries[user].impure.contains_key("wall-clock"),
            "{:?}",
            g.summaries[user].impure
        );
    }

    #[test]
    fn alias_imports_resolve_qualified_calls() {
        let files = lexed(&[
            (
                "crates/x/src/coordinator.rs",
                "pub fn run_round() { let t = SystemTime::now(); }",
            ),
            (
                "crates/x/src/b.rs",
                "use llp_x::coordinator as coord_impl;
                 fn drive() { coord_impl::run_round(); }",
            ),
        ]);
        let g = graph(&files);
        let drive = def_idx(&g, "drive");
        assert!(
            g.summaries[drive].impure.contains_key("wall-clock"),
            "{:?}",
            g.summaries[drive].impure
        );
    }

    #[test]
    fn unqualified_std_paths_do_not_adopt_workspace_defs() {
        // `Vec::new(…)` must not resolve to some workspace `new`.
        let files = lexed(&[(
            "crates/x/src/a.rs",
            "impl Gadget { fn new() -> Gadget { let t = Instant::now(); Gadget } }
             fn clean() { let v: Vec<u32> = Vec::new(); }",
        )]);
        let g = graph(&files);
        let clean = def_idx(&g, "clean");
        assert!(
            g.summaries[clean].impure.is_empty(),
            "{:?}",
            g.summaries[clean].impure
        );
    }

    #[test]
    fn nested_fn_facts_do_not_leak_into_parent() {
        let files = lexed(&[(
            "crates/x/src/a.rs",
            "fn outer() { fn inner() { let t = Instant::now(); } }",
        )]);
        let g = graph(&files);
        let outer = def_idx(&g, "outer");
        assert!(
            g.summaries[outer].impure.is_empty(),
            "{:?}",
            g.summaries[outer].impure
        );
        let inner = def_idx(&g, "inner");
        assert!(g.summaries[inner].impure.contains_key("wall-clock"));
    }
}
