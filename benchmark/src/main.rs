//! The repository's benchmark: runs one named workload of the G-DUR
//! simulator on one thread, checks every run, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload standard --seed 11 --seconds 20 --trace 0 [--out FILE]
//! ```
//!
//! `--trace 0` repeats untraced runs of the workload until `--seconds` of
//! host time have passed and reports the end-to-end metrics: medians of
//! the host timings, and the virtual metrics, which repeat exactly for a
//! seed. `--trace 1` alternates untraced and traced runs for the same time
//! and reports the per-layer metrics from the traced runs; it writes the
//! last traced run's handler spans to `--out` (default:
//! `bench-trace-<workload>.tsv` in the working directory) when it ends.
//! The last line of standard output is one JSON object; a failed
//! correctness check makes it say `"correct": false` and the exit code 1.
//! See `README.md` for what each workload and metric stands for.

mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use gdur_core::AbortCause;

use stats::median;
use trace::{HandlerTime, LayerTimes, TraceData};
use workload::{Outcome, Workload};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 11;

/// Cluster builds timed per run at least, for a steady `setup_s` median
/// when a run fits few repetitions.
const MIN_SETUPS: usize = 11;

/// Replica triggers reported by name; others fold into `other`.
const REPLICA_KEYS: [&str; 14] = [
    "vote",
    "decide",
    "client",
    "read_req",
    "read_rep",
    "gc.skeen_propose",
    "gc.skeen_proposal",
    "gc.skeen_final",
    "gc.ab_submit",
    "gc.ab_ordered",
    "gc.ab_ack",
    "gc.reliable",
    "propagate",
    "timer",
];

/// Client triggers reported by name; others fold into `other`.
const CLIENT_KEYS: [&str; 3] = ["reply", "timer", "start"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]",
        workload::NAMES.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (DEFAULT_SEED, 10, false, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {value}")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = number(),
            "--seconds" => seconds = number().max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required");
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    }
}

/// One run of every point of the workload, host numbers summed.
struct Rep {
    setup_s: f64,
    run_s: f64,
    check_s: f64,
    wall_s: f64,
    outcome: Outcome,
    violations: Vec<String>,
    /// Traced runs only.
    trace: Option<RepTrace>,
}

/// What a traced [`Rep`] adds, summed over the workload's points.
#[derive(Default)]
struct RepTrace {
    layers: LayerTimes,
    virt: workload::TracedVirtual,
    /// Point name, spans and replica flags of each point.
    spans: Vec<(String, TraceData, Vec<bool>)>,
}

fn run_rep(wl: &Workload, seed: u64, traced: bool) -> Rep {
    let mut rep = Rep {
        setup_s: 0.0,
        run_s: 0.0,
        check_s: 0.0,
        wall_s: 0.0,
        outcome: Outcome::default(),
        violations: Vec::new(),
        trace: traced.then(RepTrace::default),
    };
    for point in &wl.points {
        let r = point.run(seed, traced);
        rep.setup_s += r.setup_s;
        rep.run_s += r.run_s;
        rep.check_s += r.check_s;
        rep.wall_s += r.wall_s;
        rep.outcome.merge(&r.outcome);
        let name = point.spec.name;
        rep.violations
            .extend(r.violations.into_iter().map(|v| format!("{name}: {v}")));
        if let (Some(t), Some(acc)) = (r.traced, rep.trace.as_mut()) {
            acc.layers.add(&t.layers);
            acc.virt.merge(&t.virt);
            acc.spans.push((name.to_string(), t.data, t.is_replica));
        }
    }
    rep
}

/// Host seconds to build every point's deployment once.
fn setup_once(wl: &Workload, seed: u64) -> f64 {
    wl.points
        .iter()
        .map(|p| {
            let t = Instant::now();
            let cluster = p.build(seed);
            let s = t.elapsed().as_secs_f64();
            drop(cluster);
            s
        })
        .sum()
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Ordered `(name, value, unit)` triples.
type Metrics = Vec<(String, f64, &'static str)>;

/// Median of `f` over `reps`.
fn median_by(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn trace_of(rep: &Rep) -> &RepTrace {
    rep.trace.as_ref().expect("traced rep")
}

fn layers(rep: &Rep) -> &LayerTimes {
    &trace_of(rep).layers
}

fn end_to_end(wl: &Workload, seed: u64, reps: &[&Rep], correct: bool) -> Metrics {
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(setup_once(wl, seed));
    }
    let o = &reps[0].outcome;
    vec![
        ("setup_s".into(), median(&setups), "s"),
        ("wall_s".into(), median_by(reps, |r| r.wall_s), "s"),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
        ("committed_tps".into(), o.committed_tps(), "1/s"),
        ("latency_p50_ms".into(), o.latency_ms(50.0), "ms"),
        ("latency_p99_ms".into(), o.latency_ms(99.0), "ms"),
        ("fail_ratio".into(), o.tally.fail_ratio(correct), "ratio"),
    ]
}

/// `core.<kind>.<key>.host_s` and `.calls` for each named key and `other`.
fn handler_metrics(
    out: &mut Metrics,
    kind: &str,
    keys: &[&str],
    traced: &[&Rep],
    map: fn(&LayerTimes) -> &BTreeMap<&'static str, HandlerTime>,
) {
    let fold = |rep: &Rep, key: &str| -> HandlerTime {
        let mut h = HandlerTime::default();
        for (k, t) in map(layers(rep)) {
            if *k == key || (key == "other" && !keys.contains(k)) {
                h.host_s += t.host_s;
                h.calls += t.calls;
            }
        }
        h
    };
    for key in keys.iter().copied().chain(["other"]) {
        let host = median_by(traced, |r| fold(r, key).host_s);
        let calls = fold(traced[0], key).calls as f64;
        out.push((format!("core.{kind}.{key}.host_s"), host, "s"));
        out.push((format!("core.{kind}.{key}.calls"), calls, "count"));
    }
}

fn per_layer(untraced: &[&Rep], traced: &[&Rep]) -> Metrics {
    let o = &traced[0].outcome;
    let v = &trace_of(traced[0]).virt;
    let commits = o.tally.committed.max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out: Metrics = vec![
        (
            "sim.dispatch_s".into(),
            median_by(traced, |r| layers(r).dispatch_s),
            "s",
        ),
        (
            "sim.flush_s".into(),
            median_by(traced, |r| layers(r).flush_s),
            "s",
        ),
        ("sim.events".into(), o.events as f64, "count"),
    ];
    handler_metrics(&mut out, "replica", &REPLICA_KEYS, traced, |l| &l.replica);
    handler_metrics(&mut out, "client", &CLIENT_KEYS, traced, |l| &l.client);
    for cause in AbortCause::ALL {
        let n = o.aborts.get(cause.label()).copied().unwrap_or(0);
        out.push((format!("core.aborts.{}", cause.label()), n as f64, "count"));
    }
    let overhead = median_by(traced, |r| r.run_s) / median_by(untraced, |r| r.run_s);
    out.extend([
        (
            "core.queue_wait_p50_ms".into(),
            ms(v.queue_wait.quantile(0.5)),
            "ms",
        ),
        (
            "core.queue_wait_p99_ms".into(),
            ms(v.queue_wait.quantile(0.99)),
            "ms",
        ),
        (
            "core.queue_depth_max".into(),
            v.queue_depth.max() as f64,
            "count",
        ),
        (
            "net.msgs_per_commit".into(),
            v.msgs as f64 / commits,
            "msg/commit",
        ),
        (
            "net.wan_bytes_per_commit".into(),
            v.wan_bytes as f64 / commits,
            "B/commit",
        ),
        (
            "consistency.check_s".into(),
            median_by(traced, |r| r.check_s),
            "s",
        ),
        ("obs.trace_overhead".into(), overhead, "ratio"),
    ]);
    out
}

fn write_spans(path: &PathBuf, rep: &Rep) -> std::io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    writeln!(w, "point\tactor\tkind\tkey\tstart_ns\tbody_ns\tflush_ns")?;
    for (point, data, is_replica) in &trace_of(rep).spans {
        data.write_spans(point, is_replica, &mut w)?;
    }
    w.flush()
}

fn print_result(correct: bool, attempted: u64, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let failed = if correct { 0 } else { attempted };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = parse_args();
    let wl = &args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        if args.trace {
            // Only the last traced run's spans are written out.
            for t in reps.iter_mut().filter_map(|r| r.trace.as_mut()) {
                t.spans.clear();
            }
            reps.push(run_rep(wl, args.seed, false));
        }
        reps.push(run_rep(wl, args.seed, args.trace));
        if start.elapsed() >= budget {
            break;
        }
    }
    for (i, r) in reps.iter().enumerate() {
        eprintln!(
            "{} rep {i}{}: setup {:.4}s run {:.4}s check {:.4}s wall {:.4}s",
            wl.name,
            if r.trace.is_some() { " (traced)" } else { "" },
            r.setup_s,
            r.run_s,
            r.check_s,
            r.wall_s
        );
        for v in &r.violations {
            eprintln!("  violation: {v}");
        }
    }

    let reference = reps[0].outcome.fingerprint();
    let deterministic = reps.iter().all(|r| r.outcome.fingerprint() == reference);
    if !deterministic {
        eprintln!("{}: repeated runs of seed {} diverged", wl.name, args.seed);
    }
    let correct = deterministic && reps.iter().all(|r| r.violations.is_empty());
    let o = &reps[0].outcome;
    println!(
        "fingerprint {} seed {}: {reference:016x} (events {}, committed {}, aborted {}, undecided {}, latency samples {})",
        wl.name,
        args.seed,
        o.events,
        o.tally.committed,
        o.tally.aborted,
        o.tally.undecided,
        o.latencies_ns.len()
    );
    let attempted: u64 = reps.iter().map(|r| r.outcome.tally.attempted()).sum();
    let metrics = if args.trace {
        let (traced, untraced): (Vec<&Rep>, Vec<&Rep>) =
            reps.iter().partition(|r| r.trace.is_some());
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("bench-trace-{}.tsv", wl.name)));
        if let Err(e) = write_spans(&path, traced.last().expect("one traced rep")) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            exit(1);
        }
        for r in &traced {
            let l = layers(r);
            eprintln!(
                "{} traced: dispatch {:.4}s + flush {:.4}s + handlers {:.4}s of run {:.4}s",
                wl.name,
                l.dispatch_s,
                l.flush_s,
                l.bodies_s(),
                r.run_s
            );
        }
        per_layer(&untraced, &traced)
    } else {
        end_to_end(wl, args.seed, &reps.iter().collect::<Vec<_>>(), correct)
    };
    print_result(correct, attempted.max(1), &metrics);
    if !correct {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::tests::small_standard;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> String {
            let pat = format!("\"{key}\": \"");
            let i = obj.find(&pat).expect("field present") + pat.len();
            obj[i..i + obj[i..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn printed(m: &Metrics) -> Vec<(String, String)> {
        m.iter()
            .map(|(n, _, u)| (n.clone(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let wl = Workload {
            name: "standard",
            points: vec![small_standard()],
        };
        let plain = run_rep(&wl, 7, false);
        let traced = run_rep(&wl, 7, true);
        assert_eq!(plain.outcome.fingerprint(), traced.outcome.fingerprint());
        let e2e = end_to_end(&wl, 7, &[&plain], true);
        assert_eq!(printed(&e2e), declared("end_to_end"));
        assert!(e2e.iter().all(|(_, v, _)| *v > 0.0), "{e2e:?}");
        let layers = per_layer(&[&plain], &[&traced]);
        assert_eq!(printed(&layers), declared("per_layer"));
        assert!(layers.len() <= 128);
    }
}
