//! CI performance gate: runs the standard perf sweep, reports host
//! wall-clock and kernel events/sec per point, and maintains the repo's
//! perf trajectory file `BENCH_sim.json` in the working directory (run it
//! from the repo root, as `ci.sh` and the hosted workflow do).
//!
//! The file holds three run summaries:
//!
//! * `baseline` — the pre-optimisation capture (written once with
//!   `--capture-baseline`); the long-term reference the trajectory is
//!   measured against;
//! * `blessed` — the checked-in reference for the CI regression check
//!   (refreshed with `--bless` after an intentional perf change);
//! * `current` — the latest run (always rewritten).
//!
//! `--check` (the ci.sh mode) fails when the current total wall-clock
//! regresses more than 20% against `blessed`, and also when the working
//! directory holds no `BENCH_sim.json` with a `blessed` section, so a wrong
//! cwd cannot bless itself and pass. Virtual-time results are a pure
//! function of the seed, so the kernel event counts double as a
//! bit-identity check: a mismatch against `blessed` means behaviour
//! changed, not just speed.
//!
//! `--mega` runs the aggregated-pool scale sweep instead (10⁴/10⁵/10⁶
//! clients per site, one pool actor per site) and writes `BENCH_mega.json`
//! in the working directory.
//! It is informational — no regression gate — and deliberately not part of
//! ci.sh: the bounded 10⁴ rung runs there as `mega_smoke`.
//!
//! Usage: `cargo run --release -p gdur-bench --bin perf_gate
//! [--check] [--bless] [--capture-baseline] [--mega]`

use std::process::exit;
use std::time::Instant;

use gdur_harness::{
    run_mega_point, run_point_events, Experiment, MegaConfig, PlacementKind, Scale, WorkloadKind,
};
use gdur_sim::SimDuration;

/// Allowed wall-clock regression against the blessed reference.
const REGRESSION_TOLERANCE: f64 = 1.20;

/// The standard sweep: P-Store (genuine atomic multicast — the fan-out
/// path under optimisation) over the zipfian workload C, three sites,
/// disaster-prone placement. Fixed scale, independent of `--quick`.
fn perf_scale() -> Scale {
    Scale {
        keys_per_partition: 10_000,
        value_size: 128,
        warmup: SimDuration::from_millis(500),
        measure: SimDuration::from_secs(8),
        client_sweep: vec![16, 64, 192],
        cores: 4,
        seed: 11,
        client_pooling: false,
    }
}

fn perf_experiment() -> Experiment {
    Experiment::new(
        gdur_protocols::p_store(),
        WorkloadKind::C,
        0.9,
        3,
        PlacementKind::Dp,
    )
}

struct PerfPoint {
    clients_per_site: usize,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    throughput_tps: f64,
}

struct RunSummary {
    label: String,
    points: Vec<PerfPoint>,
    total_events: u64,
    total_wall_s: f64,
    total_events_per_sec: f64,
}

fn run_sweep_timed(label: &str) -> RunSummary {
    let exp = perf_experiment();
    let scale = perf_scale();
    let mut points = Vec::new();
    for &cps in &scale.client_sweep {
        // Best-of-two wall clock: the virtual-time result is identical
        // across repetitions (pure function of the seed), so the min
        // simply discards host-side scheduling noise.
        let mut wall_s = f64::MAX;
        let mut point = None;
        let mut stats = None;
        for _ in 0..2 {
            let start = Instant::now();
            let (p, s) = run_point_events(&exp, &scale, cps);
            wall_s = wall_s.min(start.elapsed().as_secs_f64());
            point = Some(p);
            stats = Some(s);
        }
        let (point, stats) = (point.expect("ran"), stats.expect("ran"));
        let events = stats.events_processed;
        let events_per_sec = events as f64 / wall_s;
        println!(
            "perf_gate: {cps:>4} clients/site: {events:>9} events in {wall_s:.3}s \
             ({events_per_sec:>10.0} events/s, {:.0} tps virtual)",
            point.throughput_tps
        );
        points.push(PerfPoint {
            clients_per_site: cps,
            events,
            wall_s,
            events_per_sec,
            throughput_tps: point.throughput_tps,
        });
    }
    let total_events: u64 = points.iter().map(|p| p.events).sum();
    let total_wall_s: f64 = points.iter().map(|p| p.wall_s).sum();
    RunSummary {
        label: label.to_string(),
        points,
        total_events,
        total_wall_s,
        total_events_per_sec: total_events as f64 / total_wall_s,
    }
}

fn render_section(s: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("    \"label\": \"{}\",\n", s.label));
    out.push_str("    \"points\": [\n");
    for (i, p) in s.points.iter().enumerate() {
        let sep = if i + 1 == s.points.len() { "" } else { "," };
        out.push_str(&format!(
            "      {{\"clients_per_site\": {}, \"events\": {}, \"wall_s\": {:.6}, \
             \"events_per_sec\": {:.1}, \"throughput_tps\": {:.1}}}{sep}\n",
            p.clients_per_site, p.events, p.wall_s, p.events_per_sec, p.throughput_tps
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!("    \"total_events\": {},\n", s.total_events));
    out.push_str(&format!("    \"total_wall_s\": {:.6},\n", s.total_wall_s));
    out.push_str(&format!(
        "    \"total_events_per_sec\": {:.1}\n",
        s.total_events_per_sec
    ));
    out.push_str("  }");
    out
}

/// Extracts the raw `{...}` text of a top-level section, brace-matched so
/// the nested points array is included. The file is always written by this
/// binary, so the format is under our control; labels never contain braces.
fn section_raw<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{");
    let start = text.find(&key)? + key.len() - 1;
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&text[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

fn field_f64(section: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = section.find(&pat)? + pat.len();
    let rest = section[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Peak resident set size of this process in MiB, from Linux's
/// `/proc/self/status` `VmHWM` line; 0 where unavailable. Monotone over the
/// process lifetime, so per-point readings report the high-water mark *so
/// far* — the sweep runs smallest point first, making the last reading the
/// figure that matters.
fn vm_hwm_mib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb / 1024)
        .unwrap_or(0)
}

/// The `--mega` mode: the ROADMAP "millions of users" axis. One pooled
/// point per rung of the client sweep, whole-run aggregates, peak-RSS
/// tracking; writes `BENCH_mega.json` in the working directory.
fn run_mega_sweep() {
    const RUNGS: [usize; 3] = [10_000, 100_000, 1_000_000];
    let exp = perf_experiment();
    let mut sections = Vec::new();
    for &cps in &RUNGS {
        let cfg = MegaConfig::standard(cps, 11);
        let start = Instant::now();
        let r = run_mega_point(&exp, &cfg);
        let wall_s = start.elapsed().as_secs_f64();
        let events_per_sec = r.events as f64 / wall_s;
        let vm_hwm_mib = vm_hwm_mib();
        println!(
            "perf_gate --mega: {cps:>7} clients/site: {} issued, {} committed, \
             {} aborted ({} timeout) | {} events in {wall_s:.1}s \
             ({events_per_sec:.0} events/s) | peak RSS {vm_hwm_mib} MiB",
            r.issued, r.committed, r.aborted, r.timeout_aborts, r.events
        );
        sections.push(format!(
            "    {{\"clients_per_site\": {cps}, \"clients_total\": {}, \"issued\": {}, \
             \"committed\": {}, \"aborted\": {}, \"timeout_aborts\": {}, \
             \"throughput_tps\": {:.1}, \"avg_latency_ms\": {:.3}, \"events\": {}, \
             \"wall_s\": {wall_s:.3}, \"events_per_sec\": {events_per_sec:.0}, \
             \"vm_hwm_mib\": {vm_hwm_mib}}}",
            r.clients_total,
            r.issued,
            r.committed,
            r.aborted,
            r.timeout_aborts,
            r.throughput_tps,
            r.avg_latency_ms,
            r.events
        ));
    }
    let path = "BENCH_mega.json";
    let file = format!(
        "{{\n  \"schema\": \"gdur-mega-sweep-v1\",\n  \"bench\": \"p_store / workload C / 3 sites DP / pooled clients, 1s think, 4s horizon\",\n  \"points\": [\n{}\n  ]\n}}\n",
        sections.join(",\n")
    );
    std::fs::write(path, &file).expect("write BENCH_mega.json");
    println!("perf_gate --mega: written to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let bless = args.iter().any(|a| a == "--bless");
    let capture_baseline = args.iter().any(|a| a == "--capture-baseline");

    if args.iter().any(|a| a == "--mega") {
        run_mega_sweep();
        return;
    }
    let path = "BENCH_sim.json";
    let previous = std::fs::read_to_string(path).unwrap_or_default();
    if check && section_raw(&previous, "blessed").is_none() {
        eprintln!(
            "perf_gate: FAIL: --check needs {path} with a `blessed` section in the \
             working directory; run from the repo root"
        );
        exit(1);
    }

    let current = run_sweep_timed("current");

    let current_text = render_section(&current);
    let baseline_text = if capture_baseline {
        current_text.clone()
    } else {
        section_raw(&previous, "baseline")
            .map(str::to_string)
            .unwrap_or_else(|| current_text.clone())
    };
    let blessed_text = if bless || capture_baseline {
        current_text.clone()
    } else {
        section_raw(&previous, "blessed")
            .map(str::to_string)
            .unwrap_or_else(|| current_text.clone())
    };

    let speedup = field_f64(&baseline_text, "total_wall_s")
        .map(|base| base / current.total_wall_s)
        .unwrap_or(1.0);

    let file = format!(
        "{{\n  \"schema\": \"gdur-perf-gate-v1\",\n  \"bench\": \"p_store / workload C / 3 sites DP / sweep 16,64,192 clients-per-site\",\n  \"baseline\": {baseline_text},\n  \"blessed\": {blessed_text},\n  \"current\": {current_text},\n  \"speedup_vs_baseline\": {speedup:.3}\n}}\n"
    );
    std::fs::write(path, &file).expect("write BENCH_sim.json");
    println!(
        "perf_gate: total {:.3}s wall, {:.0} events/s, speedup vs baseline {speedup:.3}x \
         (written to {path})",
        current.total_wall_s, current.total_events_per_sec
    );

    if check {
        let blessed_wall = field_f64(&blessed_text, "total_wall_s").expect("blessed total_wall_s");
        let blessed_events = field_f64(&blessed_text, "total_events").expect("blessed events");
        if (current.total_events as f64 - blessed_events).abs() > 0.5 {
            eprintln!(
                "perf_gate: WARNING: kernel event count changed \
                 ({} now vs {blessed_events:.0} blessed) — virtual-time behaviour \
                 differs from the blessed run; re-bless after an intentional change",
                current.total_events
            );
        }
        if current.total_wall_s > blessed_wall * REGRESSION_TOLERANCE {
            eprintln!(
                "perf_gate: FAIL: wall-clock regressed {:.1}% over the blessed reference \
                 ({:.3}s now vs {blessed_wall:.3}s blessed, tolerance {:.0}%)",
                (current.total_wall_s / blessed_wall - 1.0) * 100.0,
                current.total_wall_s,
                (REGRESSION_TOLERANCE - 1.0) * 100.0
            );
            eprintln!("(re-run with --bless after an intentional change, or set SKIP_PERF_GATE=1)");
            exit(1);
        }
        println!(
            "perf_gate: within tolerance ({:.3}s vs blessed {blessed_wall:.3}s)",
            current.total_wall_s
        );
    }
}
