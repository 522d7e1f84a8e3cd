//! `gdur-trace` — causal trace explorer: span trees, critical-path latency
//! attribution, and Chrome/Perfetto export.
//!
//! Usage:
//!
//! ```text
//! gdur-trace tree --tx COORD:SEQ [PROTOCOL] [--clients N]
//! gdur-trace attribute [--csv] [PROTOCOL...] [--clients N]
//! gdur-trace export --chrome PATH [PROTOCOL] [--clients N]
//! ```
//!
//! All subcommands run one causally-traced sweep point of the standard
//! 3-site deployment (workload C, 70% read-only, disaster-prone placement,
//! seed 7) and analyse its trace:
//!
//! * `tree` prints the span tree of one transaction (`COORD:SEQ` as shown
//!   in span labels and the `tx` field of JSONL traces) plus its
//!   critical-path blame table; exits non-zero if the transaction does not
//!   exist in the trace.
//! * `attribute` prints per-protocol critical-path attribution tables over
//!   every committed transaction of the measurement window (default
//!   protocols: P-Store, S-DUR, Walter).
//! * `export` writes a Chrome trace-event JSON (`chrome://tracing` or
//!   <https://ui.perfetto.dev>) with one track per actor, handler spans,
//!   lifecycle instants, and flow arrows along message edges.

use std::process::exit;

use gdur_harness::{run_point_causal, CausalRun, Experiment, PlacementKind, Scale, WorkloadKind};
use gdur_obs::{
    critical_path, export_chrome, render_attribution_csv, render_attribution_text, tx_code,
    tx_span_tree, validate_json, Attribution, CausalIndex,
};
use gdur_sim::SimDuration;

fn scale(clients: usize) -> Scale {
    Scale {
        keys_per_partition: 1_000,
        value_size: 64,
        warmup: SimDuration::from_millis(300),
        measure: SimDuration::from_secs(1),
        client_sweep: vec![clients],
        cores: 4,
        seed: 7,
        client_pooling: false,
    }
}

fn run(name: &str, clients: usize) -> CausalRun {
    let Some(spec) = gdur_protocols::by_name(name) else {
        eprintln!("gdur-trace: unknown protocol {name:?}; known protocols:");
        for p in gdur_protocols::all_protocols() {
            eprintln!("  {}", p.name);
        }
        exit(1);
    };
    let exp = Experiment::new(spec, WorkloadKind::C, 0.7, 3, PlacementKind::Dp);
    run_point_causal(&exp, &scale(clients), clients)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_tx(s: &str) -> Option<u64> {
    let (c, q) = s.split_once(':')?;
    Some(tx_code(c.parse().ok()?, q.parse().ok()?))
}

/// Positional (non-flag) arguments, skipping the values of value-flags.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if matches!(a.as_str(), "--tx" | "--clients" | "--chrome") {
            skip = true;
        } else if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: gdur-trace tree --tx COORD:SEQ [PROTOCOL] [--clients N]\n\
         \x20      gdur-trace attribute [--csv] [PROTOCOL...] [--clients N]\n\
         \x20      gdur-trace export --chrome PATH [PROTOCOL] [--clients N]"
    );
    exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(String::as_str) else {
        usage();
    };
    let args = &argv[1..];
    let clients: usize = flag_value(args, "--clients")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    match cmd {
        "tree" => {
            let Some(tx_arg) = flag_value(args, "--tx") else {
                usage();
            };
            let Some(tx) = parse_tx(tx_arg) else {
                eprintln!("gdur-trace: --tx expects COORD:SEQ, got {tx_arg:?}");
                exit(2);
            };
            let name = positionals(args).first().copied().unwrap_or("P-Store");
            let run = run(name, clients);
            let ix = CausalIndex::build(&run.events);
            let Some(tree) = tx_span_tree(&run.events, &ix, tx) else {
                eprintln!(
                    "gdur-trace: transaction {tx_arg} not found in the {name} trace \
                     ({} transactions traced)",
                    ix.tx_points.len()
                );
                exit(1);
            };
            print!("{}", tree.render(tree.start));
            if let Some(cp) = critical_path(&run.events, &ix, &run.clients, tx) {
                println!("\ncritical path ({} ns total):", cp.latency_ns);
                for s in &cp.segments {
                    println!(
                        "  +{:>9} ns  {:>9} ns  {:<12} {}",
                        s.from.saturating_since(tree.start).as_nanos(),
                        s.duration_ns(),
                        s.blame.label(),
                        s.note
                    );
                }
                if let Some(v) = cp.last_voter {
                    println!("  last voter: p{}", v.0);
                }
            }
        }
        "attribute" => {
            let csv = args.iter().any(|a| a == "--csv");
            let mut names: Vec<&str> = positionals(args);
            if names.is_empty() {
                names = vec!["P-Store", "S-DUR", "Walter"];
            }
            let mut rows: Vec<(String, Attribution)> = Vec::new();
            for name in names {
                let run = run(name, clients);
                let ix = CausalIndex::build(&run.events);
                let a = Attribution::collect(&run.events, &ix, &run.clients, run.warm_end);
                rows.push((name.to_string(), a));
            }
            if csv {
                print!("{}", render_attribution_csv(&rows));
            } else {
                print!("{}", render_attribution_text(&rows));
            }
        }
        "export" => {
            let Some(path) = flag_value(args, "--chrome") else {
                usage();
            };
            let name = positionals(args).first().copied().unwrap_or("P-Store");
            let run = run(name, clients);
            let ix = CausalIndex::build(&run.events);
            let out = export_chrome(&run.events, &ix, &run.actor_names);
            if let Err(e) = validate_json(&out) {
                eprintln!("gdur-trace: chrome export failed self-validation: {e}");
                exit(1);
            }
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create output dir");
                }
            }
            std::fs::write(path, &out).expect("write chrome trace");
            println!(
                "{name}: {} events, {} handler spans → {path} \
                 (load in chrome://tracing or https://ui.perfetto.dev)",
                run.events.len(),
                ix.handlers.len()
            );
        }
        _ => usage(),
    }
}
