//! CI observability gate: runs a small traced sweep for two Table-2 GC
//! protocols, validates the exported JSONL trace against its schema, checks
//! the convoy-effect and abort-partition invariants, and diffs the
//! phase-breakdown table against the checked-in golden file.
//!
//! Usage: `cargo run --release -p gdur-bench --bin obs_smoke [--bless]`
//! (`--bless` regenerates `crates/bench/golden/obs_smoke.txt`).

use std::path::Path;
use std::process::exit;

use gdur_harness::{
    render_breakdown_csv, render_breakdown_text, run_point_traced, BreakdownRow, Experiment,
    PlacementKind, Scale, WorkloadKind,
};
use gdur_obs::{jsonl, Phase};
use gdur_sim::SimDuration;

/// A fixed scale, independent of `--quick`/`--seed`: the rendered table is
/// diffed byte-for-byte against the golden file.
fn smoke_scale() -> Scale {
    Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![2, 24],
        cores: 4,
        seed: 7,
        client_pooling: false,
    }
}

fn main() {
    let bless = std::env::args().any(|a| a == "--bless");
    let scale = smoke_scale();
    let mut rows: Vec<BreakdownRow> = Vec::new();

    for spec in [gdur_protocols::p_store(), gdur_protocols::s_dur()] {
        let name = spec.name;
        let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);
        for &cps in &scale.client_sweep {
            let (point, breakdown, events) = run_point_traced(&exp, &scale, cps);
            let trace = jsonl::export(&events);
            match jsonl::validate(&trace) {
                Ok(n) => println!("{name} @ {cps} clients/site: {n} trace events, schema ok"),
                Err(e) => {
                    eprintln!("obs_smoke: {name} exported an invalid trace: {e}");
                    exit(1);
                }
            }
            assert_eq!(
                breakdown.causes_sum(),
                breakdown.aborted,
                "{name} @ {cps}: abort causes must partition `aborted`"
            );
            rows.push(BreakdownRow {
                label: name.to_string(),
                clients: cps * exp.sites,
                point,
                breakdown,
            });
        }
        // The convoy effect (§6): certification-queue residence grows with
        // offered load toward the saturation knee.
        let (lo, hi) = (&rows[rows.len() - 2], &rows[rows.len() - 1]);
        let (lo_wait, hi_wait) = (
            lo.breakdown.phase(Phase::QueueWait).mean(),
            hi.breakdown.phase(Phase::QueueWait).mean(),
        );
        if hi_wait <= lo_wait {
            eprintln!(
                "obs_smoke: {name}: queue wait did not grow with load \
                 ({lo_wait:.0} ns @ {} clients vs {hi_wait:.0} ns @ {} clients)",
                lo.clients, hi.clients
            );
            exit(1);
        }
    }

    let table = render_breakdown_text(&rows);
    println!("\n{table}");
    if std::fs::create_dir_all("bench_results").is_ok() {
        let _ = std::fs::write("bench_results/obs_smoke.csv", render_breakdown_csv(&rows));
        println!("(csv written to bench_results/obs_smoke.csv)");
    }

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/obs_smoke.txt");
    if bless {
        std::fs::create_dir_all(golden_path.parent().expect("has parent"))
            .expect("create golden dir");
        std::fs::write(&golden_path, &table).expect("write golden");
        println!("blessed {}", golden_path.display());
        return;
    }
    let golden = match std::fs::read_to_string(&golden_path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!(
                "obs_smoke: cannot read golden file {}: {e}\n\
                 run with --bless to create it",
                golden_path.display()
            );
            exit(1);
        }
    };
    if table != golden {
        eprintln!("obs_smoke: breakdown table diverged from the golden file:");
        for (i, (got, want)) in table.lines().zip(golden.lines()).enumerate() {
            if got != want {
                eprintln!("  line {}:\n    golden: {want}\n    got:    {got}", i + 1);
            }
        }
        if table.lines().count() != golden.lines().count() {
            eprintln!(
                "  line counts differ: got {} vs golden {}",
                table.lines().count(),
                golden.lines().count()
            );
        }
        eprintln!("(re-run with --bless after an intentional change)");
        exit(1);
    }
    println!("obs_smoke: breakdown table matches the golden file");
}
