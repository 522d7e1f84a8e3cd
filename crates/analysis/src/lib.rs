//! # gdur-analysis — analyses over G-DUR protocol assemblies
//!
//! The paper's thesis is that a middleware hosting many protocols is also
//! the right place to *analyze* them (§7–§8). This crate bundles the
//! analysis passes the workspace wires into every entry point:
//!
//! 1. **Spec linter** — [`gdur_core::ProtocolSpec::validate`] checks a
//!    plug-in assembly against the paper's §4–§6 compatibility
//!    constraints under the active [`Placement`]; `Cluster::build` runs
//!    it strictly, so no misassembled protocol ever simulates.
//!    [`lint_report`] renders the diagnostics.
//! 2. **Determinism lint** — [`detlint`] scans the simulated crates for
//!    constructs whose behavior varies across identically-seeded runs
//!    (hash iteration, entropy, wall clocks), and
//!    [`same_seed_cross_check`] validates the property dynamically by
//!    running every library protocol twice per seed. Run both with
//!    `cargo run -p gdur-analysis --bin detlint`.
//! 3. **History verification** — `gdur_harness::run_point` feeds every
//!    experiment's history to the `gdur-consistency` oracle against the
//!    spec's claimed [`Criterion`] before reporting a number;
//!    [`verify_cluster`] exposes the same check for ad-hoc runs.
//! 4. **Schedule exploration** — [`mc`] drives the kernel through many
//!    delay-bounded schedules (DPOR-lite pruning, replayable minimized
//!    counterexamples) instead of the one schedule per seed the passes
//!    above examine. CLI: `cargo run -p gdur-analysis --bin gdur-mc`.

pub mod detlint;
pub mod mc;

pub use gdur_consistency::{CriterionCheck, History, Violation};
pub use gdur_core::{Criterion, Diagnostic, Severity};

use gdur_core::{Cluster, ClusterConfig, ProtocolSpec, TxnRecord};
use gdur_store::Placement;
use gdur_workload::{WorkloadSpec, YcsbSource};

/// Renders the full lint verdict of a spec under a placement, one
/// diagnostic per line, or `"ok"` when the assembly is clean.
pub fn lint_report(spec: &ProtocolSpec, placement: &Placement) -> String {
    let diags = spec.validate(placement);
    if diags.is_empty() {
        return format!("{}: ok", spec.name);
    }
    let lines: Vec<String> = diags.iter().map(|d| format!("  {d}")).collect();
    format!("{}:\n{}", spec.name, lines.join("\n"))
}

/// Checks a finished cluster's history against `spec`'s claimed criterion
/// (the always-on pass the harness runs after every experiment).
pub fn verify_cluster(spec: &ProtocolSpec, cluster: &Cluster) -> Result<(), Violation> {
    spec.criterion.check(&History::from_cluster(cluster))
}

fn run_small(spec: ProtocolSpec, seed: u64) -> (Vec<TxnRecord>, String) {
    let sites = 3;
    let mut cfg = ClusterConfig::small(spec, sites);
    cfg.keys_per_partition = 50;
    cfg.clients_per_site = 2;
    cfg.max_txns_per_client = Some(12);
    cfg.seed = seed;
    let total_keys = cfg.keys_per_partition * sites as u64;
    let mut cluster = Cluster::build(cfg, move |_, site| {
        Box::new(YcsbSource::new(
            WorkloadSpec::a(),
            total_keys,
            sites as u64,
            site.0 as u64 % sites as u64,
            0.5,
        ))
    });
    let trace = gdur_obs::TraceHandle::new();
    cluster.attach_obs(trace.sink());
    cluster.run_until_idle();
    (cluster.records(), gdur_obs::jsonl::export(&trace.take()))
}

/// The dynamic half of the determinism lint: runs every library protocol
/// twice on a small contended workload with the same seed and demands
/// bit-identical transaction records *and* trace streams. A source
/// construct the static scan missed (e.g. nondeterministic scheduling snuck
/// into the kernel) shows up here as a history or trace mismatch.
pub fn same_seed_cross_check(seed: u64) -> Result<(), String> {
    for spec in gdur_protocols::all_protocols() {
        let name = spec.name;
        let (a, trace_a) = run_small(spec.clone(), seed);
        let (b, trace_b) = run_small(spec, seed);
        if a.len() != b.len() {
            return Err(format!(
                "{name}: runs with seed {seed} decided {} vs {} transactions",
                a.len(),
                b.len()
            ));
        }
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if x != y {
                return Err(format!(
                    "{name}: record #{i} differs between identically-seeded runs \
                     ({x:?} vs {y:?})"
                ));
            }
        }
        if trace_a != trace_b {
            let first = trace_a
                .lines()
                .zip(trace_b.lines())
                .position(|(x, y)| x != y)
                .unwrap_or(trace_a.lines().count().min(trace_b.lines().count()));
            return Err(format!(
                "{name}: trace streams of identically-seeded runs diverge at \
                 event #{first} (seed {seed})"
            ));
        }
    }
    Ok(())
}

/// The chaos extension of the dynamic determinism lint: runs the seeded
/// fault-schedule library (crash → partition → heal → restart per protocol
/// family) twice per configuration and demands byte-identical traces and
/// identical recovery reports. The recovery paths — WAL replay, catch-up
/// transfer, resubmission, AB-Cast rejoin — must stay inside the same
/// deterministic envelope as the fault-free runs.
pub fn chaos_same_seed_check() -> Result<(), String> {
    for cfg in gdur_harness::chaos_library() {
        let (report_a, events_a) = gdur_harness::run_chaos(&cfg);
        let (report_b, events_b) = gdur_harness::run_chaos(&cfg);
        let (trace_a, trace_b) = (
            gdur_obs::jsonl::export(&events_a),
            gdur_obs::jsonl::export(&events_b),
        );
        if trace_a != trace_b {
            let first = trace_a
                .lines()
                .zip(trace_b.lines())
                .position(|(x, y)| x != y)
                .unwrap_or(trace_a.lines().count().min(trace_b.lines().count()));
            return Err(format!(
                "{}: chaos traces of identically-seeded runs diverge at event \
                 #{first} (seed {})",
                cfg.label, cfg.seed
            ));
        }
        if report_a.golden_line() != report_b.golden_line() {
            return Err(format!(
                "{}: chaos reports of identically-seeded runs differ:\n  {}\n  {}",
                cfg.label,
                report_a.golden_line(),
                report_b.golden_line()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_report_names_clean_specs_ok() {
        let r = lint_report(&gdur_protocols::walter(), &Placement::disaster_prone(3));
        assert!(r.contains("ok"), "{r}");
    }

    #[test]
    fn lint_report_lists_diagnostics() {
        let mut bad = gdur_protocols::walter();
        bad.certify = gdur_core::CertifyRule::AlwaysPass;
        let r = lint_report(&bad, &Placement::disaster_prone(3));
        assert!(r.contains("SI-WRITE-CERT"), "{r}");
    }

    #[test]
    fn verify_cluster_accepts_a_sound_run() {
        let spec = gdur_protocols::jessy_2pc();
        let mut cfg = ClusterConfig::small(spec.clone(), 2);
        cfg.max_txns_per_client = Some(5);
        let total = cfg.keys_per_partition * 2;
        let mut cluster = Cluster::build(cfg, move |_, site| {
            Box::new(YcsbSource::new(
                WorkloadSpec::a(),
                total,
                2,
                site.0 as u64 % 2,
                0.5,
            ))
        });
        cluster.run_until_idle();
        verify_cluster(&spec, &cluster).expect("sound protocol, sound history");
    }
}
