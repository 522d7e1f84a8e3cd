//! The determinism lint CLI.
//!
//! ```text
//! cargo run -p gdur-analysis --bin detlint            # static source scan
//! cargo run -p gdur-analysis --bin detlint -- --dynamic  # + same-seed runs
//! ```
//!
//! Exits non-zero when any unsuppressed finding remains (see
//! `detlint.allow` at the workspace root for the suppression format), when
//! an allow entry suppresses no finding, or when two identically-seeded
//! runs of any library protocol diverge.

use std::path::Path;

use gdur_analysis::detlint::{discover_roots, scan_workspace, Allowlist};

fn main() {
    let dynamic = std::env::args().any(|a| a == "--dynamic");
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels under the workspace root")
        .to_path_buf();

    println!("detlint: scanning {} …", discover_roots(&root).join(", "));
    let allow = Allowlist::load(&root);
    let mut findings = scan_workspace(&root);
    let stale = allow.stale(&findings);
    findings.retain(|f| !allow.allows(f));
    for f in &findings {
        println!("{f}");
    }
    for entry in &stale {
        println!("detlint.allow: `{entry}` suppresses no finding; delete it");
    }
    let mut failed = !findings.is_empty() || !stale.is_empty();
    if !findings.is_empty() {
        println!(
            "detlint: {} finding(s); convert to BTreeMap/BTreeSet, seed the RNG, \
             use virtual time — or add a justified line to detlint.allow",
            findings.len()
        );
    }
    if !failed {
        println!("detlint: sources clean");
    }

    if dynamic {
        println!("detlint: running every protocol twice per seed …");
        for seed in [7, 1042] {
            match gdur_analysis::same_seed_cross_check(seed) {
                Ok(()) => println!("detlint: seed {seed}: all protocols deterministic"),
                Err(e) => {
                    println!("detlint: DETERMINISM VIOLATION: {e}");
                    failed = true;
                }
            }
        }
        println!("detlint: running the chaos fault-schedule library twice …");
        match gdur_analysis::chaos_same_seed_check() {
            Ok(()) => println!("detlint: chaos runs deterministic (traces byte-identical)"),
            Err(e) => {
                println!("detlint: DETERMINISM VIOLATION: {e}");
                failed = true;
            }
        }
    }

    std::process::exit(if failed { 1 } else { 0 });
}
