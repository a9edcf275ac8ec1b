//! The token-level lint catalog.
//!
//! Every lint here is a scan over the flat token stream of one file (the
//! lock-order analysis, which needs a whole-crate view, lives in
//! `lockorder`). Lints fire on *identifier tokens in path-shaped
//! context*, never on strings or comments — `"HashMap"` in a help text
//! (or in this very file's pattern tables) is inert.

use crate::lexer::{matches_seq, Lexed, Tok, TokKind};
use crate::policy::{Class, ENV_OWNER, KERNEL_FILES};
use crate::report::Finding;

/// Names of every lint the analyzer knows, for allow-annotation
/// validation (`allow(typo)` is itself a finding).
pub const LINT_NAMES: &[&str] = &[
    "nondeterministic-collections",
    "wall-clock",
    "env-read",
    "unseeded-rng",
    "lock-order",
    "panic-path",
    "fp-kernel-purity",
    "hot-loop-alloc",
    "missing-forbid-unsafe",
    "unused-allow",
    "malformed-allow",
];

/// Runs every token-level lint applicable to `class` over one file.
pub fn scan_file(path: &str, lexed: &Lexed, class: Class, crate_key: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    if class == Class::VendorExempt {
        return out;
    }
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // ---- nondeterministic-collections -------------------------
            // Any mention (import, type position, constructor) counts:
            // iteration order of std's hashed containers is seeded per
            // process, so even a "read-only" use is one refactor away
            // from an order-dependent output.
            "HashMap" | "HashSet" if class == Class::Deterministic => {
                out.push(Finding::new(
                    "nondeterministic-collections",
                    path,
                    t.line,
                    format!(
                        "`{}` in a deterministic crate: iteration order is \
                         process-seeded; use BTreeMap/BTreeSet or a Vec keyed \
                         by index",
                        t.text
                    ),
                ));
            }
            // ---- wall-clock -------------------------------------------
            // `Instant::now()` / `SystemTime::now()` — the actual clock
            // reads, not the type imports. Applies to Timing crates too:
            // metering sites are legitimate there but must each carry a
            // reasoned allow, so a new clock dependency is a diff the
            // gate sees.
            "Instant" | "SystemTime" if matches_seq(toks, i + 1, &["::", "now"]) => {
                out.push(Finding::new(
                    "wall-clock",
                    path,
                    t.line,
                    format!(
                        "`{}::now()` reads the wall clock; solver results and \
                         meters must be time-independent (annotate metering \
                         sites with a reasoned allow)",
                        t.text
                    ),
                ));
            }
            // ---- env-read ---------------------------------------------
            // `env::var` / `var_os` / `vars` anywhere but the documented
            // precedence owner (vendor/llp_par): ambient configuration is
            // a hidden input that breaks replay determinism.
            "env"
                if crate_key != ENV_OWNER
                    && (matches_seq(toks, i + 1, &["::", "var"])
                        || matches_seq(toks, i + 1, &["::", "var_os"])
                        || matches_seq(toks, i + 1, &["::", "vars"])) =>
            {
                out.push(Finding::new(
                    "env-read",
                    path,
                    t.line,
                    "environment read outside vendor/llp_par: LLP_THREADS \
                     precedence (and env input generally) is owned by llp_par"
                        .to_string(),
                ));
            }
            // ---- unseeded-rng -----------------------------------------
            // RNG construction that does not flow from an explicit seed
            // argument. The workspace's own `rand` only offers these by
            // name, so naming one is constructing one.
            "ThreadRng" | "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" => {
                out.push(Finding::new(
                    "unseeded-rng",
                    path,
                    t.line,
                    format!(
                        "`{}` constructs an entropy-seeded RNG; all randomness \
                         must derive from an explicit seed argument \
                         (StdRng::seed_from_u64 / from_seed)",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
    }
    if KERNEL_FILES.contains(&path) {
        out.extend(scan_hot_loops(path, toks));
    }
    out
}

/// Checks a crate-root file for `#![forbid(unsafe_code)]`.
///
/// Token-shaped, not substring-shaped: a doc comment *describing* the
/// attribute does not satisfy the lint.
pub fn check_forbid_unsafe(path: &str, lexed: &Lexed) -> Option<Finding> {
    let toks = &lexed.toks;
    let found = (0..toks.len()).any(|i| {
        matches_seq(toks, i, &["#", "!"])
            && matches_seq(toks, i + 2, &["["])
            && matches_seq(toks, i + 3, &["forbid", "(", "unsafe_code", ")", "]"])
    });
    if found {
        None
    } else {
        Some(Finding::new(
            "missing-forbid-unsafe",
            path,
            1,
            "crate root lacks #![forbid(unsafe_code)]; the workspace is \
             unsafe-free and stays that way by construction",
        ))
    }
}

/// Allocation-shaped calls the hot-loop lint flags inside loop bodies.
const LOOP_ALLOC_METHODS: &[&str] = &["collect", "clone", "to_vec", "to_owned"];

/// Scans loop bodies in the kernel files (violation scans, weight
/// updates, LP basis solvers): each hit is a per-iteration
/// allocation. The reused buffers (`NetBuffer`, `ConstraintColumns`,
/// the solvers' level buffers) hoisted every historical hit, so any new
/// finding is a regression and fails CI. Tracks `for`/`while`/`loop`
/// bodies by brace depth (closures inside a loop body count as inside
/// the loop — a `map` callback runs per element, which is exactly the
/// allocation pressure in question).
fn scan_hot_loops(path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut depth: i32 = 0;
    // Brace depths at which a loop body opened; non-empty = in a loop.
    let mut loop_depths: Vec<i32> = Vec::new();
    // A loop keyword was seen and its body's `{` is pending.
    let mut pending_loop = false;
    for i in 0..toks.len() {
        let t = &toks[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Ident, "for" | "while" | "loop") => {
                // `for` in `impl Trait for Type` is preceded by a type
                // ident/`>`/`)`; a loop's `for` follows `{`, `;`, `}` or
                // starts a body. Cheap disambiguation: an `impl` earlier
                // on the same statement. Good enough for kernel files,
                // which contain no trait impls inside functions.
                let is_impl_for = t.text == "for"
                    && i > 0
                    && matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Punct if toks[i - 1].text != "{" && toks[i - 1].text != ";" && toks[i - 1].text != "}" && toks[i - 1].text != "(");
                if !is_impl_for {
                    pending_loop = true;
                }
            }
            (TokKind::Punct, "{") => {
                depth += 1;
                if pending_loop {
                    loop_depths.push(depth);
                    pending_loop = false;
                }
            }
            (TokKind::Punct, "}") => {
                if loop_depths.last() == Some(&depth) {
                    loop_depths.pop();
                }
                depth -= 1;
            }
            (TokKind::Ident, "new") if !loop_depths.is_empty() => {
                // `Vec::new` / `String::new` / `Box::new` in a loop body.
                let ctor = i >= 2
                    && toks[i - 1].text == "::"
                    && matches!(
                        toks[i - 2].text.as_str(),
                        "Vec" | "String" | "Box" | "VecDeque"
                    );
                if ctor {
                    out.push(Finding::new(
                        "hot-loop-alloc",
                        path,
                        t.line,
                        format!(
                            "`{}::new` inside a kernel loop body allocates per \
                             iteration; hoist into a reusable scratch buffer",
                            toks[i - 2].text
                        ),
                    ));
                }
            }
            (TokKind::Ident, "vec")
                if !loop_depths.is_empty() && matches_seq(toks, i + 1, &["!"]) =>
            {
                out.push(Finding::new(
                    "hot-loop-alloc",
                    path,
                    t.line,
                    "`vec![…]` inside a kernel loop body allocates per \
                     iteration; hoist into a reusable scratch buffer",
                ));
            }
            (TokKind::Ident, m) if !loop_depths.is_empty() && LOOP_ALLOC_METHODS.contains(&m) => {
                let method_call =
                    i >= 1 && toks[i - 1].text == "." && matches_seq(toks, i + 1, &["("]);
                if method_call {
                    out.push(Finding::new(
                        "hot-loop-alloc",
                        path,
                        t.line,
                        format!(
                            "`.{m}()` inside a kernel loop body allocates per \
                             iteration; borrow or reuse a scratch buffer"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lints_of(src: &str, class: Class, key: &str) -> Vec<String> {
        scan_file("crates/x/src/lib.rs", &lex(src), class, key)
            .into_iter()
            .map(|f| f.lint)
            .collect()
    }

    #[test]
    fn collections_fire_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            lints_of(src, Class::Deterministic, "core"),
            vec!["nondeterministic-collections"]
        );
        assert!(lints_of(src, Class::Timing, "service").is_empty());
    }

    #[test]
    fn wall_clock_fires_on_reads_not_imports() {
        assert!(lints_of("use std::time::Instant;", Class::Timing, "bench").is_empty());
        assert_eq!(
            lints_of("let t = Instant::now();", Class::Timing, "bench"),
            vec!["wall-clock"]
        );
        assert_eq!(
            lints_of(
                "let t = std::time::SystemTime::now();",
                Class::Deterministic,
                "core"
            ),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn env_read_exempts_the_owner() {
        let src = r#"let v = std::env::var("LLP_THREADS");"#;
        assert_eq!(
            lints_of(src, Class::Deterministic, "core"),
            vec!["env-read"]
        );
        assert!(lints_of(src, Class::Deterministic, "llp_par").is_empty());
    }

    #[test]
    fn strings_do_not_fire() {
        let src = r#"eprintln!("set LLP_THREADS; HashMap; Instant::now");"#;
        assert!(lints_of(src, Class::Deterministic, "core").is_empty());
    }

    #[test]
    fn unseeded_rng_fires_on_entropy_constructors() {
        assert_eq!(
            lints_of(
                "let mut r = ThreadRng::default();",
                Class::Timing,
                "service"
            ),
            vec!["unseeded-rng"]
        );
        assert!(lints_of(
            "let mut r = StdRng::seed_from_u64(7);",
            Class::Deterministic,
            "core"
        )
        .is_empty());
    }

    #[test]
    fn forbid_unsafe_is_token_shaped() {
        assert!(check_forbid_unsafe("x", &lex("#![forbid(unsafe_code)]\nfn main() {}")).is_none());
        // A comment describing it does not count.
        assert!(
            check_forbid_unsafe("x", &lex("// #![forbid(unsafe_code)]\nfn main() {}")).is_some()
        );
    }

    #[test]
    fn hot_loop_alloc_flags_loop_bodies_only() {
        let src = "fn k(xs: &[u32]) { let base = xs.to_vec(); for x in xs { let v = x.clone(); } }";
        let hits = scan_hot_loops("crates/core/src/lptype.rs", &lex(src).toks);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("clone"));
    }
}
