//! The determinism lint: a source-level scan over the crates whose code
//! runs *inside* the simulation, flagging constructs that make a run
//! depend on anything but its seed.
//!
//! G-DUR's analysis story (§7–§8) rests on reproducibility: the same seed
//! must yield the same history, or A/B comparisons between plug-ins
//! measure noise and the consistency oracle chases phantoms. Four
//! construct families break that property:
//!
//! * **`HASH-DECL` / `HASH-ITER`** — `HashMap`/`HashSet` declarations and
//!   iteration. `std`'s hashers are `RandomState`-seeded per process, so
//!   iteration order differs across runs; even un-iterated hash
//!   collections are one refactor away from a nondeterministic loop.
//!   Deterministic code uses `BTreeMap`/`BTreeSet`.
//! * **`UNSEEDED-RNG`** — `thread_rng()` / `from_entropy()` pull entropy
//!   from the OS instead of the deployment seed.
//! * **`WALL-CLOCK`** — `SystemTime::now()` / `Instant::now()` read the
//!   host clock; simulated code must use the virtual clock (`SimTime`).
//! * **`THREAD`** — `thread::spawn` / `thread::scope` introduce host
//!   scheduling into the run. The only sanctioned use is harness code that
//!   runs *whole simulations* concurrently, each single-threaded and
//!   seeded; the kernel itself is one sequential event loop.
//!
//! The scan is line-based and deliberately simple: false positives are
//! silenced through the `detlint.allow` file at the workspace root, never
//! by weakening a pattern. An allow entry that suppresses nothing is itself
//! a failure, so no excuse outlives the code it excused.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// One determinism finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in, relative to the scan root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule code (`HASH-DECL`, `HASH-ITER`, `UNSEEDED-RNG`,
    /// `WALL-CLOCK`, `THREAD`).
    pub code: &'static str,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.code,
            self.excerpt
        )
    }
}

/// The allowlist: `detlint.allow` lines of the form `CODE path-substring`
/// (`#` comments and blank lines ignored). A finding is suppressed when an
/// entry's code matches and its path fragment occurs in the finding's
/// path.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<(String, String)>,
}

impl Allowlist {
    /// Parses allowlist text.
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((code, path)) = line.split_once(char::is_whitespace) {
                entries.push((code.to_string(), path.trim().to_string()));
            }
        }
        Allowlist { entries }
    }

    /// Loads `detlint.allow` from `root`, tolerating its absence.
    pub fn load(root: &Path) -> Allowlist {
        match fs::read_to_string(root.join("detlint.allow")) {
            Ok(text) => Allowlist::parse(&text),
            Err(_) => Allowlist::default(),
        }
    }

    /// True when `finding` is suppressed.
    pub fn allows(&self, finding: &Finding) -> bool {
        self.entries.iter().any(|e| entry_matches(e, finding))
    }

    /// The entries, as `CODE path-substring`, that suppress none of
    /// `findings` (the unfiltered scan).
    pub fn stale(&self, findings: &[Finding]) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !findings.iter().any(|f| entry_matches(e, f)))
            .map(|(code, frag)| format!("{code} {frag}"))
            .collect()
    }
}

fn entry_matches((code, frag): &(String, String), finding: &Finding) -> bool {
    code == finding.code && finding.file.to_string_lossy().contains(frag.as_str())
}

/// Workspace members the scan skips entirely. Only *vendored* code
/// belongs here: the offline stand-ins under `vendor/` are third-party
/// API surface (the `rand` shim must mention entropy constructors to
/// mirror the real crate), not simulation code. Every first-party crate
/// is scanned — a construct that is legitimately nondeterministic (a
/// bench reading the wall clock, the linter's own pattern table) is
/// suppressed line-by-line through `detlint.allow` with a justification,
/// never by excluding the crate.
pub const DENY_ROOTS: &[&str] = &["vendor/"];

/// Discovers the source roots to scan from the workspace manifest instead
/// of a hard-coded crate list: every `[workspace] members` entry (globs
/// like `crates/*` expanded via the filesystem) that is not deny-listed
/// contributes its `src/` subtree. A crate added to the workspace is
/// scanned from its first commit — it cannot be forgotten.
pub fn discover_roots(workspace_root: &Path) -> Vec<String> {
    let manifest = fs::read_to_string(workspace_root.join("Cargo.toml")).unwrap_or_default();
    let mut roots = Vec::new();
    for member in manifest_members(&manifest) {
        let expanded: Vec<String> = match member.strip_suffix("/*") {
            Some(prefix) => {
                let mut dirs: Vec<String> = fs::read_dir(workspace_root.join(prefix))
                    .map(|entries| {
                        entries
                            .flatten()
                            .filter(|e| e.path().is_dir())
                            .map(|e| format!("{prefix}/{}", e.file_name().to_string_lossy()))
                            .collect()
                    })
                    .unwrap_or_default();
                dirs.sort();
                dirs
            }
            None => vec![member],
        };
        for m in expanded {
            if DENY_ROOTS
                .iter()
                .any(|d| m.starts_with(d.trim_end_matches('/')))
            {
                continue;
            }
            let src = format!("{m}/src");
            if workspace_root.join(&src).is_dir() {
                roots.push(src);
            }
        }
    }
    roots
}

/// Extracts the `members` array entries from workspace-manifest text.
fn manifest_members(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    manifest[start + open + 1..start + open + close]
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Scans the discovered workspace source roots under `workspace_root`,
/// returning every finding, allowlisted or not, sorted by path and line.
pub fn scan_workspace(workspace_root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for root in discover_roots(workspace_root) {
        let dir = workspace_root.join(&root);
        let files = if dir.is_file() {
            vec![dir]
        } else {
            rust_files(&dir)
        };
        for file in files {
            let Ok(text) = fs::read_to_string(&file) else {
                continue;
            };
            let rel = file
                .strip_prefix(workspace_root)
                .unwrap_or(&file)
                .to_path_buf();
            findings.extend(scan_source(&rel, &text));
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Scans one source text. Exposed for tests.
pub fn scan_source(file: &Path, text: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    // First pass: names bound to hash collections (struct fields and lets),
    // so the second pass can tell iteration *of a hash collection* apart
    // from iteration of anything else.
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    for line in text.lines() {
        let code = strip_comment(line);
        if code.contains("HashMap") || code.contains("HashSet") {
            if let Some(name) = bound_name(code) {
                hash_names.insert(name);
            }
        }
    }
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let code = strip_comment(line);
        let mut emit = |rule: &'static str| {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                code: rule,
                excerpt: line.trim().to_string(),
            })
        };
        if code.contains("thread_rng(") || code.contains("from_entropy(") {
            emit("UNSEEDED-RNG");
        }
        if code.contains("SystemTime::now") || code.contains("Instant::now") {
            emit("WALL-CLOCK");
        }
        if code.contains("thread::spawn(") || code.contains("thread::scope(") {
            emit("THREAD");
        }
        let declares_hash = (code.contains("HashMap") || code.contains("HashSet"))
            && !code.trim_start().starts_with("use ");
        if declares_hash {
            emit("HASH-DECL");
        }
        if is_iteration(code, &hash_names) {
            emit("HASH-ITER");
        }
    }
    findings
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// Extracts the identifier a hash collection is bound to: `name: HashMap<`
/// (field or typed let) or `let [mut] name = HashMap::new()`.
fn bound_name(code: &str) -> Option<String> {
    let before = if let Some(colon) = code.find(": Hash") {
        &code[..colon]
    } else if let Some(eq) = code.find("= Hash") {
        code[..eq]
            .trim_end()
            .strip_suffix(':')
            .unwrap_or(&code[..eq])
    } else {
        return None;
    };
    let name: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_numeric()) {
        None
    } else {
        Some(name)
    }
}

const ITER_CALLS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
];

/// True when the line iterates one of the known hash-collection names:
/// either an explicit iterator call on the name, or a `for _ in` loop whose
/// iterated expression has the name as a path segment.
fn is_iteration(code: &str, hash_names: &BTreeSet<String>) -> bool {
    for name in hash_names {
        for call in ITER_CALLS {
            if code.contains(&format!("{name}{call}")) {
                return true;
            }
        }
    }
    if code.trim_start().starts_with("for ") {
        if let Some(pos) = code.find(" in ") {
            let expr = code[pos + 4..].trim().trim_end_matches('{').trim();
            let expr = expr.trim_start_matches("&mut ").trim_start_matches('&');
            return expr.split('.').any(|seg| {
                let ident: String = seg
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                hash_names.contains(&ident)
            });
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<&'static str> {
        scan_source(Path::new("x.rs"), src)
            .into_iter()
            .map(|f| f.code)
            .collect()
    }

    #[test]
    fn flags_hash_declarations_and_iteration() {
        let src = "struct S {\n    pending: HashMap<u64, u32>,\n}\nfn f(s: &S) {\n    for (k, v) in &s.pending {\n        let _ = (k, v);\n    }\n}\n";
        let c = codes(src);
        assert!(c.contains(&"HASH-DECL"), "{c:?}");
        assert!(c.contains(&"HASH-ITER"), "{c:?}");
    }

    #[test]
    fn flags_iter_calls_on_hash_names() {
        let src =
            "let mut seen: HashSet<u64> = HashSet::new();\nfor x in seen.iter() { let _ = x; }\n";
        assert!(codes(src).contains(&"HASH-ITER"));
    }

    #[test]
    fn btreemap_is_clean() {
        let src = "let mut m: BTreeMap<u64, u32> = BTreeMap::new();\nfor (k, v) in &m { let _ = (k, v); }\n";
        assert!(codes(src).is_empty());
    }

    #[test]
    fn flags_entropy_and_clocks_but_not_comments() {
        let src = "let r = thread_rng();\nlet t = Instant::now();\n// SystemTime::now is banned\n";
        let c = codes(src);
        assert_eq!(c, vec!["UNSEEDED-RNG", "WALL-CLOCK"]);
    }

    #[test]
    fn flags_thread_spawns_and_scopes() {
        let src = "std::thread::spawn(move || work());
thread::scope(|s| {
";
        assert_eq!(codes(src), vec!["THREAD", "THREAD"]);
    }

    #[test]
    fn manifest_members_parses_globs_and_literals() {
        let manifest =
            "[workspace]\nmembers = [\"crates/*\", \"examples\",\n    \"vendor/rand\"]\n";
        assert_eq!(
            manifest_members(manifest),
            vec!["crates/*", "examples", "vendor/rand"]
        );
    }

    #[test]
    fn discover_roots_expands_globs_and_denies_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let roots = discover_roots(&root);
        assert!(roots.iter().any(|r| r == "crates/sim/src"), "{roots:?}");
        assert!(
            roots.iter().any(|r| r == "crates/analysis/src"),
            "{roots:?}"
        );
        assert!(
            roots.iter().all(|r| !r.starts_with("vendor/")),
            "vendored code must stay deny-listed: {roots:?}"
        );
    }

    #[test]
    fn allowlist_suppresses_by_code_and_path() {
        let f = Finding {
            file: PathBuf::from("crates/core/src/replica.rs"),
            line: 3,
            code: "HASH-DECL",
            excerpt: String::new(),
        };
        let allow = Allowlist::parse("# comment\nHASH-DECL crates/core/src/replica.rs\n");
        assert!(allow.allows(&f));
        let other = Allowlist::parse("WALL-CLOCK crates/core\n");
        assert!(!other.allows(&f));
    }

    #[test]
    fn allowlist_reports_stale_entries() {
        let f = Finding {
            file: PathBuf::from("crates/harness/src/experiment.rs"),
            line: 9,
            code: "THREAD",
            excerpt: String::new(),
        };
        let allow = Allowlist::parse(
            "THREAD crates/harness/src/experiment.rs\nTHREAD crates/sim/src/kernel/par.rs\n\
             WALL-CLOCK crates/harness/src/experiment.rs\n",
        );
        assert_eq!(
            allow.stale(std::slice::from_ref(&f)),
            vec![
                "THREAD crates/sim/src/kernel/par.rs",
                "WALL-CLOCK crates/harness/src/experiment.rs"
            ]
        );
        assert_eq!(
            allow.stale(&[]).len(),
            3,
            "no findings: every entry is stale"
        );
    }
}
