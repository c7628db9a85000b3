//! Source-level lints for the workspace's concurrency conventions.
//!
//! `femcam-lint` is a dependency-free static-analysis pass that runs
//! over the workspace's own sources (`crates/*/src` and
//! `crates/*/tests`) and enforces the conventions the instrumented
//! sync layer (`femcam_core::sync`) and the atomics audit rely on:
//!
//! | id    | name                  | convention                                        |
//! |-------|-----------------------|---------------------------------------------------|
//! | FL001 | `unsafe_safety`       | every `unsafe` carries a `SAFETY:` justification  |
//! | FL002 | `raw_sync`            | no raw `std::sync` locks outside the sync wrapper |
//! | FL003 | `ordering_comment`    | every atomic `Ordering::*` carries `ORDERING:`    |
//! | FL004 | `no_panic`            | no `unwrap`/`expect`/`panic!` in serve/core code  |
//! | FL005 | `instant_in_dispatch` | `fn dispatch` exists, no `Instant::now()` in it   |
//!
//! The pass works on a **lexed line model**, not an AST: a hand-rolled
//! lexer ([`lex`]) blanks string literals out of the code channel and
//! routes comment text (line, doc, and block comments) into a parallel
//! comment channel, so rules match raw tokens without being fooled by
//! `"Ordering::SeqCst"` appearing inside a string — including the rule
//! table in this very crate. `#[cfg(test)]` modules are excluded from
//! the rules that only govern production code by brace-matching the
//! blanked code channel.
//!
//! A finding is silenced by a justification comment (`SAFETY:` /
//! `ORDERING:`) or an explicit suppression of the form
//!
//! ```text
//! // femcam::allow(no_panic): reason the convention does not apply
//! ```
//!
//! on the same line as the site or anywhere in the contiguous
//! (blank-line-free) run of lines directly above it — the same span a
//! human reads as "the comment for this statement". Suppressions name
//! the rule (`no_panic`) or its id (`FL004`).

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One source line split into its code and comment channels.
///
/// `code` is the line's program text with string/char literal contents
/// replaced by spaces (delimiters removed) and comments stripped;
/// `comment` is the concatenated text of every comment overlapping the
/// line (line, doc, and block comments).
#[derive(Debug, Clone, Default)]
pub struct LexedLine {
    /// Literal-blanked, comment-stripped program text.
    pub code: String,
    /// Comment text overlapping the line.
    pub comment: String,
}

impl LexedLine {
    fn is_blank(&self) -> bool {
        self.code.trim().is_empty() && self.comment.trim().is_empty()
    }
}

/// Splits Rust source into per-line code and comment channels.
///
/// Handles nested block comments, escaped string literals, raw strings
/// (`r"…"`, `r#"…"#`, byte/raw-byte variants), char literals, and the
/// char-versus-lifetime ambiguity (`'a'` is blanked, `'static` stays
/// in the code channel). The lexer is deliberately forgiving: on input
/// it cannot classify it keeps characters in the code channel, which
/// can only ever make the lint *stricter*.
#[must_use]
pub fn lex(source: &str) -> Vec<LexedLine> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines = Vec::new();
    let mut cur = LexedLine::default();
    let mut i = 0;
    let at = |j: usize| chars.get(j).copied();
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                lines.push(std::mem::take(&mut cur));
                i += 1;
            }
            '/' if at(i + 1) == Some('/') => {
                // Line comment (incl. `///` and `//!`): to the comment
                // channel up to (not including) the newline.
                while i < chars.len() && chars[i] != '\n' {
                    cur.comment.push(chars[i]);
                    i += 1;
                }
            }
            '/' if at(i + 1) == Some('*') => {
                // Block comment, nesting like Rust's.
                let mut depth = 1usize;
                i += 2;
                cur.comment.push_str("/*");
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        lines.push(std::mem::take(&mut cur));
                        i += 1;
                    } else if chars[i] == '/' && at(i + 1) == Some('*') {
                        depth += 1;
                        cur.comment.push_str("/*");
                        i += 2;
                    } else if chars[i] == '*' && at(i + 1) == Some('/') {
                        depth -= 1;
                        cur.comment.push_str("*/");
                        i += 2;
                    } else {
                        cur.comment.push(chars[i]);
                        i += 1;
                    }
                }
            }
            '"' => {
                cur.code.push(' ');
                i = skip_string(&chars, i + 1, 0, &mut lines, &mut cur);
            }
            'r' | 'b' if !prev_is_ident(&cur.code) => {
                // Candidate raw / byte / raw-byte string prefix.
                let mut j = i + 1;
                if c == 'b' && at(j) == Some('r') {
                    j += 1;
                }
                let mut hashes = 0usize;
                while at(j) == Some('#') {
                    hashes += 1;
                    j += 1;
                }
                let raw = c == 'r' || at(i + 1) == Some('r');
                match at(j) {
                    Some('"') if raw || (c == 'b' && j == i + 1) => {
                        cur.code.push(' ');
                        if raw {
                            i = skip_raw_string(&chars, j + 1, hashes, &mut lines, &mut cur);
                        } else {
                            i = skip_string(&chars, j + 1, 0, &mut lines, &mut cur);
                        }
                    }
                    Some('\'') if c == 'b' && j == i + 1 => {
                        cur.code.push(' ');
                        i = skip_char_literal(&chars, j + 1);
                    }
                    _ => {
                        // `r#ident`, plain identifier, or stray `r`.
                        cur.code.push(c);
                        i += 1;
                    }
                }
            }
            '\'' if !prev_is_ident(&cur.code) || at(i + 1) == Some('\\') => {
                // Char literal vs lifetime. `'x'` and `'\n'` are
                // literals; `'static`, `'_`, and loop labels keep the
                // quote in the code channel. (After an identifier a
                // bare `'` can only start a literal via `b'…'`, caught
                // above, so `x'` stays code.)
                if at(i + 1) == Some('\\') || (at(i + 2) == Some('\'') && at(i + 1) != Some('\'')) {
                    cur.code.push(' ');
                    i = skip_char_literal(&chars, i + 1);
                } else {
                    cur.code.push('\'');
                    i += 1;
                }
            }
            _ => {
                cur.code.push(c);
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Consumes an escaped (cooked) string body starting at `i` (after the
/// opening quote); content is dropped, newlines still break lines.
fn skip_string(
    chars: &[char],
    mut i: usize,
    _hashes: usize,
    lines: &mut Vec<LexedLine>,
    cur: &mut LexedLine,
) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                // A `\` at end of line continues the string: the
                // escaped newline must still break the line model.
                if chars.get(i + 1) == Some(&'\n') {
                    lines.push(std::mem::take(cur));
                }
                i += 2;
            }
            '"' => return i + 1,
            '\n' => {
                lines.push(std::mem::take(cur));
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Consumes a raw string body until `"` followed by `hashes` `#`s.
fn skip_raw_string(
    chars: &[char],
    mut i: usize,
    hashes: usize,
    lines: &mut Vec<LexedLine>,
    cur: &mut LexedLine,
) -> usize {
    while i < chars.len() {
        if chars[i] == '\n' {
            lines.push(std::mem::take(cur));
            i += 1;
            continue;
        }
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        }
        i += 1;
    }
    i
}

/// Consumes a char-literal body starting after the opening quote.
fn skip_char_literal(chars: &[char], mut i: usize) -> usize {
    if chars.get(i) == Some(&'\\') {
        i += 2; // escape introducer + escaped char (covers \', \u{…} starts)
    }
    while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
        i += 1;
    }
    i + 1
}

/// A lexed file plus the per-line facts rules dispatch on.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// The lexed lines.
    pub lines: &'a [LexedLine],
    /// Per line: inside a `#[cfg(test)]` module (or a test-only file).
    pub in_test: Vec<bool>,
}

impl<'a> FileCtx<'a> {
    /// Builds the context for one file, computing test regions.
    #[must_use]
    pub fn new(path: &'a str, lines: &'a [LexedLine]) -> Self {
        let in_test = test_regions(path, lines);
        FileCtx {
            path,
            lines,
            in_test,
        }
    }

    /// True if `needle` occurs in the site's comment span: the site
    /// line itself or the contiguous non-blank run above it (capped at
    /// [`COMMENT_SPAN`] lines).
    fn span_has(&self, line: usize, needle: &str) -> bool {
        let mut scanned = 0usize;
        let mut i = line;
        loop {
            let l = &self.lines[i];
            if i != line && l.is_blank() {
                return false;
            }
            if l.comment.contains(needle) {
                return true;
            }
            if i == 0 || scanned >= COMMENT_SPAN {
                return false;
            }
            i -= 1;
            scanned += 1;
        }
    }

    /// Whether the site is suppressed for `rule` via
    /// `femcam::allow(<name-or-id>)` in its comment span.
    fn suppressed(&self, line: usize, rule: &Rule) -> bool {
        self.span_has(line, &format!("femcam::allow({})", rule.name))
            || self.span_has(line, &format!("femcam::allow({})", rule.id))
    }
}

/// How many lines above a site its comment span reaches (contiguous
/// non-blank lines only). Generous enough to cover a justification
/// written above a multi-line statement.
const COMMENT_SPAN: usize = 16;

/// Marks lines inside `#[cfg(test)] mod … { … }` regions (and whole
/// files that are test-only by convention: `proptests.rs` modules and
/// anything under a `tests/` directory).
fn test_regions(path: &str, lines: &[LexedLine]) -> Vec<bool> {
    if path.ends_with("/proptests.rs") || path.contains("/tests/") {
        return vec![true; lines.len()];
    }
    let mut flags = vec![false; lines.len()];
    let mut depth: i64 = 0;
    // Depth at which each currently-open test mod's body closes.
    let mut test_mods: Vec<i64> = Vec::new();
    let mut cfg_test_pending = false;
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        let mut starts_test_mod = cfg_test_pending && code.starts_with("mod ");
        if !code.is_empty() && !code.starts_with("#[") {
            cfg_test_pending = false;
        }
        if code.replace(' ', "").starts_with("#[cfg(test)]") {
            cfg_test_pending = true;
        }
        if !test_mods.is_empty() {
            flags[idx] = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if starts_test_mod {
                        // Only the mod's own opening brace, not later
                        // braces on the same line.
                        starts_test_mod = false;
                        test_mods.push(depth);
                        flags[idx] = true;
                    }
                }
                '}' => {
                    if test_mods.last() == Some(&depth) {
                        test_mods.pop();
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
    flags
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable rule id (`FL00x`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A lint rule: stable id, suppression name, and its check pass.
pub struct Rule {
    /// Stable id (`FL00x`) — printed in findings, accepted in
    /// suppressions, never renumbered.
    pub id: &'static str,
    /// Suppression name for `femcam::allow(<name>)`.
    pub name: &'static str,
    /// One-line description of the convention.
    pub summary: &'static str,
    check: fn(&FileCtx<'_>, &mut Vec<Finding>),
}

/// The rule table. Order is the report order for same-line findings.
pub const RULES: &[Rule] = &[
    Rule {
        id: "FL001",
        name: "unsafe_safety",
        summary: "every `unsafe` block or fn carries a `SAFETY:` justification",
        check: check_unsafe_safety,
    },
    Rule {
        id: "FL002",
        name: "raw_sync",
        summary: "no raw std::sync Mutex/RwLock/Condvar outside femcam_core::sync",
        check: check_raw_sync,
    },
    Rule {
        id: "FL003",
        name: "ordering_comment",
        summary: "every atomic Ordering::* use carries an `ORDERING:` justification",
        check: check_ordering_comment,
    },
    Rule {
        id: "FL004",
        name: "no_panic",
        summary: "no unwrap/expect/panic! in non-test serve/core code",
        check: check_no_panic,
    },
    Rule {
        id: "FL005",
        name: "instant_in_dispatch",
        summary: "`fn dispatch` exists and has no Instant::now() (use window helpers)",
        check: check_instant_in_dispatch,
    },
];

fn rule(id: &str) -> &'static Rule {
    RULES
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| unreachable!("unknown rule id {id}"))
}

/// True if `hay` contains `needle` as a whole token (not embedded in a
/// longer identifier).
fn has_token(hay: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let left_ok = start == 0
            || !hay[..start]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let right_ok = !hay[end..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

// ---------------------------------------------------------------- FL001

fn check_unsafe_safety(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let r = rule("FL001");
    for (idx, line) in ctx.lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        // Accept a `// SAFETY:` comment or a `# Safety` doc section in
        // the site's comment span.
        if ctx.span_has(idx, "SAFETY:") || ctx.span_has(idx, "# Safety") {
            continue;
        }
        if ctx.suppressed(idx, r) {
            continue;
        }
        out.push(Finding {
            rule: r.id,
            path: ctx.path.to_owned(),
            line: idx + 1,
            message: "`unsafe` without a `// SAFETY:` justification in reach".to_owned(),
        });
    }
}

// ---------------------------------------------------------------- FL002

/// Files allowed to name the raw std primitives: the wrapper itself.
const RAW_SYNC_ALLOWED: &[&str] = &["crates/core/src/sync.rs"];

const RAW_SYNC_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];

fn check_raw_sync(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let r = rule("FL002");
    if RAW_SYNC_ALLOWED.iter().any(|a| ctx.path.ends_with(a)) {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        while let Some(pos) = code[from..].find("std::sync::") {
            let after = &code[from + pos + "std::sync::".len()..];
            from += pos + "std::sync::".len();
            let hit = if after.trim_start().starts_with('{') {
                // A use-list: check the same-line list body. (The
                // workspace's imports are rustfmt'd to one line; a
                // multi-line list would still be caught at its
                // `std::sync::Type` uses.)
                RAW_SYNC_TYPES.iter().any(|t| has_token(after, t))
            } else {
                RAW_SYNC_TYPES.iter().any(|t| {
                    after.starts_with(t) && !after[t.len()..].starts_with(char::is_alphanumeric)
                })
            };
            if hit && !ctx.suppressed(idx, r) {
                out.push(Finding {
                    rule: r.id,
                    path: ctx.path.to_owned(),
                    line: idx + 1,
                    message: "raw std::sync lock primitive; use femcam_core::sync (instrumented \
                              for lock-order tracking)"
                        .to_owned(),
                });
                break;
            }
        }
    }
}

// ---------------------------------------------------------------- FL003

const ATOMIC_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn check_ordering_comment(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let r = rule("FL003");
    // Production sources only: tests assert through the public API and
    // routinely use Relaxed counters whose justification is the test
    // body itself.
    if !ctx.path.contains("/src/") {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.in_test[idx] {
            continue;
        }
        if !ATOMIC_ORDERINGS.iter().any(|o| has_token(&line.code, o)) {
            continue;
        }
        if ctx.span_has(idx, "ORDERING:") || ctx.suppressed(idx, r) {
            continue;
        }
        out.push(Finding {
            rule: r.id,
            path: ctx.path.to_owned(),
            line: idx + 1,
            message: "atomic memory ordering without an `// ORDERING:` justification in reach"
                .to_owned(),
        });
    }
}

// ---------------------------------------------------------------- FL004

/// Crates whose non-test code must not contain panic paths: the
/// serving stack and the core engine it drives.
const NO_PANIC_SCOPES: &[&str] = &["crates/serve/src/", "crates/core/src/"];

const PANIC_TOKENS: &[&str] = &[".unwrap()", ".expect(", "panic!("];

fn check_no_panic(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let r = rule("FL004");
    if !NO_PANIC_SCOPES.iter().any(|s| ctx.path.contains(s)) {
        return;
    }
    for (idx, line) in ctx.lines.iter().enumerate() {
        if ctx.in_test[idx] {
            continue;
        }
        let Some(tok) = PANIC_TOKENS.iter().find(|t| line.code.contains(*t)) else {
            continue;
        };
        if ctx.suppressed(idx, r) {
            continue;
        }
        out.push(Finding {
            rule: r.id,
            path: ctx.path.to_owned(),
            line: idx + 1,
            message: format!(
                "`{}` in non-test serve/core code; return an error or \
                 `femcam::allow(no_panic)` with a reason",
                tok.trim_start_matches('.')
            ),
        });
    }
}

// ---------------------------------------------------------------- FL005

fn check_instant_in_dispatch(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let r = rule("FL005");
    if !ctx.path.ends_with("crates/serve/src/lib.rs") {
        return;
    }
    // Locate `fn dispatch` and brace-match its body.
    let mut depth: i64 = 0;
    let mut body_closes_at: Option<i64> = None;
    let mut pending_fn = false;
    let mut found = false;
    for (idx, line) in ctx.lines.iter().enumerate() {
        if body_closes_at.is_none() && has_token(&line.code, "fn dispatch") {
            pending_fn = true;
            found = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_fn {
                        body_closes_at = Some(depth);
                        pending_fn = false;
                    }
                }
                '}' => {
                    if body_closes_at == Some(depth) {
                        body_closes_at = None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        if body_closes_at.is_some()
            && line.code.contains("Instant::now()")
            && !ctx.suppressed(idx, r)
        {
            out.push(Finding {
                rule: r.id,
                path: ctx.path.to_owned(),
                line: idx + 1,
                message: "`Instant::now()` inside the dispatcher loop; go through the Window \
                          helpers so the hot path stays clock-free"
                    .to_owned(),
            });
        }
    }
    // Fail closed: a moved or renamed dispatcher must not silently
    // switch the gate off.
    if !found {
        out.push(Finding {
            rule: r.id,
            path: ctx.path.to_owned(),
            line: 1,
            message: "no `fn dispatch` found; the dispatcher loop must stay in this file under \
                      that name so the clock-free rule can check it"
                .to_owned(),
        });
    }
}

// ----------------------------------------------------------------- driver

/// Lints one file's source under its workspace-relative `path`.
#[must_use]
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let lines = lex(source);
    let ctx = FileCtx::new(path, &lines);
    let mut out = Vec::new();
    for r in RULES {
        (r.check)(&ctx, &mut out);
    }
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

/// Directories under each crate that are scanned.
const SCANNED_SUBDIRS: &[&str] = &["src", "tests"];

/// Path fragments excluded from the workspace scan: lint fixtures are
/// deliberate rule violations, and the vendored stand-ins are external
/// code held to their upstream's conventions.
const SCAN_EXCLUDE: &[&str] = &["crates/lint/tests/fixtures", "vendor/"];

/// Lints every workspace source file under `root` (`crates/*/src` and
/// `crates/*/tests`), returning findings sorted by path and line.
///
/// # Errors
///
/// Propagates filesystem errors from walking `root`.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates)? {
        let krate = entry?.path();
        if !krate.is_dir() {
            continue;
        }
        for sub in SCANNED_SUBDIRS {
            let dir = krate.join(sub);
            if dir.is_dir() {
                collect_rs(&dir, &mut files)?;
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        if SCAN_EXCLUDE.iter().any(|e| rel.contains(e)) {
            continue;
        }
        let source = fs::read_to_string(&file)?;
        out.extend(lint_source(&rel, &source));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_blanks_strings_and_splits_comments() {
        let lines = lex("let s = \"Ordering::SeqCst\"; // ORDERING: not really\n'x';\n");
        assert!(!lines[0].code.contains("Ordering"));
        assert!(lines[0].comment.contains("ORDERING: not really"));
        assert!(!lines[1].code.contains('x'));
    }

    #[test]
    fn lexer_keeps_lifetimes_and_raw_idents() {
        let lines = lex("fn f<'a>(x: &'a str) -> r#type { 'outer: loop { break 'outer; } }\n");
        assert!(lines[0].code.contains("'a str"));
        assert!(lines[0].code.contains("r#type"));
        assert!(lines[0].code.contains("'outer"));
    }

    #[test]
    fn lexer_handles_raw_strings_and_nested_block_comments() {
        let lines =
            lex("let s = r#\"unsafe \" quote\"#; /* outer /* unsafe */ still */ let t = 1;\n");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("let t = 1;"));
        assert!(lines[0].comment.contains("still"));
    }

    #[test]
    fn token_matching_requires_word_boundaries() {
        assert!(has_token("unsafe {", "unsafe"));
        assert!(!has_token("not_unsafe_at_all()", "unsafe"));
        assert!(!has_token("unsafely()", "unsafe"));
    }

    #[test]
    fn test_mod_regions_are_excluded() {
        let src = "use x;\n#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap() }\n}\nfn g() {}\n";
        let lines = lex(src);
        let ctx = FileCtx::new("crates/core/src/a.rs", &lines);
        assert!(!ctx.in_test[0]);
        assert!(ctx.in_test[3]);
        assert!(!ctx.in_test[5]);
    }
}
