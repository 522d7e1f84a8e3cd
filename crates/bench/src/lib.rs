//! # gdur-bench — table/figure regeneration and benchmarks
//!
//! One binary per table and figure of the paper's evaluation (§8):
//!
//! | target | regenerates |
//! |---|---|
//! | `table2_loc` | Table 2 — protocol realization size |
//! | `table3_workloads` | Table 3 — workload definitions |
//! | `fig3a` / `fig3b` | Figure 3 — protocol comparison (DP / DT) |
//! | `fig4` | Figure 4 — GMU bottleneck ablation |
//! | `fig5` | Figure 5 — locality-aware P-Store |
//! | `fig6a` / `fig6b` | Figure 6 — 2PC vs AM-Cast dependability |
//! | `all_figures` | everything above, sequentially |
//!
//! Each binary accepts `--quick` for a reduced-scale run and writes a CSV
//! under `bench_results/`. The Criterion benches (`microbench`,
//! `figures`) exercise the same code paths at a size suitable for
//! `cargo bench`.
//!
//! The CI smoke gates (`obs_smoke`, `chaos_smoke`, `mc_smoke`,
//! `trace_smoke`, `mega_smoke`) diff their deterministic output against
//! `crates/bench/golden/<gate>.txt` through [`check_golden`].

use std::path::Path;
use std::process::exit;

use gdur_harness::Scale;

/// Parses the common CLI of the figure binaries: `--quick` selects the
/// reduced scale; `--seed N` overrides the RNG seed.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = if args.iter().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::paper()
    };
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        if let Some(seed) = args.get(i + 1).and_then(|s| s.parse().ok()) {
            scale.seed = seed;
        }
    }
    scale
}

/// Compares a smoke gate's output `text` (`what` describes it, e.g.
/// "recovery counts") byte for byte with `crates/bench/golden/<name>.txt`,
/// resolved from the working directory — run the gates from the
/// repository root. With `--bless` on the command line the golden file is
/// rewritten from `text` instead. A missing golden or any difference
/// prints a line-by-line diff and exits with status 1.
pub fn check_golden(name: &str, what: &str, text: &str) {
    let path = Path::new("crates/bench/golden").join(format!("{name}.txt"));
    if std::env::args().any(|a| a == "--bless") {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden");
        println!("blessed {}", path.display());
        return;
    }
    let golden = match std::fs::read_to_string(&path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!(
                "{name}: cannot read golden file {} (relative to the working \
                 directory; run from the repository root): {e}\n\
                 run with --bless to create it",
                path.display()
            );
            exit(1);
        }
    };
    if text != golden {
        eprintln!("{name}: {what} diverged from the golden file:");
        for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
            if got != want {
                eprintln!("  line {}:\n    golden: {want}\n    got:    {got}", i + 1);
            }
        }
        if text.lines().count() != golden.lines().count() {
            eprintln!(
                "  line counts differ: got {} vs golden {}",
                text.lines().count(),
                golden.lines().count()
            );
        }
        eprintln!("(re-run with --bless after an intentional change)");
        exit(1);
    }
    println!("{name}: {what} identical to the golden file");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // Arguments of the test runner contain no --quick.
        let s = scale_from_args();
        assert_eq!(s.keys_per_partition, Scale::paper().keys_per_partition);
    }
}
