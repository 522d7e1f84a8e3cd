//! The benchmark's workloads, and one measured run of a deployment.
//!
//! Every point builds its deployment through public API only:
//! `ClusterConfig` by struct update from `ClusterConfig::small` (so fields
//! added or removed elsewhere need no edit here), `Cluster::build`,
//! `Cluster::run_for`, and the harness's invariant checks.

use std::collections::BTreeMap;
use std::time::Instant;

use gdur_core::{AbortCause, Cluster, ClusterConfig, ProtocolSpec};
use gdur_harness::{check_invariants, stores_converged, WorkloadKind};
use gdur_obs::{Histogram, Phase, PhaseBreakdown};
use gdur_sim::{SimDuration, SimTime};
use gdur_workload::YcsbSource;

use crate::stats::{nearest_rank, Fingerprint, Tally};
use crate::trace::{HostTrace, LayerTimes, TraceData};

/// Think time and per-operation timeout of aggregated client pools.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    /// Closed-loop think time between a client's transactions.
    pub think: SimDuration,
    /// Clients abandon an operation unanswered after this long.
    pub op_timeout: SimDuration,
}

/// One deployment run: a protocol under a YCSB workload.
#[derive(Debug, Clone)]
pub struct Point {
    /// Protocol under test.
    pub spec: ProtocolSpec,
    /// Table 3 workload.
    pub kind: WorkloadKind,
    /// Fraction of read-only transactions.
    pub read_only: f64,
    /// Sites, one replica each, disaster-prone placement.
    pub sites: usize,
    /// Closed-loop clients per site.
    pub clients_per_site: usize,
    /// `Some` aggregates each site's clients into one pool actor with this
    /// pacing; `None` runs one actor per client with the history oracle on.
    pub pooled: Option<Pacing>,
    /// Virtual warm-up, excluded from the measured window.
    pub warmup: SimDuration,
    /// Virtual measured window.
    pub measure: SimDuration,
    /// Objects per partition.
    pub keys_per_partition: u64,
    /// Payload size in bytes.
    pub value_size: usize,
}

/// A named workload: the points one benchmark run executes in order.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Deployments run one after another.
    pub points: Vec<Point>,
}

/// Names accepted by [`Workload::by_name`].
pub const NAMES: [&str; 4] = ["standard", "mega", "overload", "library"];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        let points = match name {
            "standard" => vec![standard_point()],
            "mega" => vec![pooled_point(10_000)],
            "overload" => vec![pooled_point(20_000)],
            "library" => gdur_protocols::comparison_set()
                .into_iter()
                .map(library_point)
                .collect(),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        Some(Workload { name, points })
    }
}

/// The perf gate's largest point: P-Store, zipfian Workload C, 90%
/// read-only, 3 sites, 192 per-client actors per site, 0.5 s + 8 s.
fn standard_point() -> Point {
    Point {
        spec: gdur_protocols::p_store(),
        kind: WorkloadKind::C,
        read_only: 0.9,
        sites: 3,
        clients_per_site: 192,
        pooled: None,
        warmup: SimDuration::from_millis(500),
        measure: SimDuration::from_secs(8),
        keys_per_partition: 10_000,
        value_size: 128,
    }
}

/// The mega sweep's pacing (1 s think, 2 s op timeout, 4 s horizon) for
/// P-Store under Workload C at `clients_per_site` pooled clients.
fn pooled_point(clients_per_site: usize) -> Point {
    Point {
        clients_per_site,
        pooled: Some(Pacing {
            think: SimDuration::from_secs(1),
            op_timeout: SimDuration::from_secs(2),
        }),
        warmup: SimDuration::ZERO,
        measure: SimDuration::from_secs(4),
        value_size: 64,
        ..standard_point()
    }
}

/// One protocol of the paper's comparison set: uniform Workload A, 70%
/// read-only, 4 sites, 64 per-client actors per site, 0.5 s + 4 s.
fn library_point(spec: ProtocolSpec) -> Point {
    Point {
        spec,
        kind: WorkloadKind::A,
        read_only: 0.7,
        sites: 4,
        clients_per_site: 64,
        measure: SimDuration::from_secs(4),
        ..standard_point()
    }
}

/// The virtual results of one window: a pure function of the seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Kernel handler invocations over the whole run.
    pub events: u64,
    /// Transaction outcomes in the measured window.
    pub tally: Tally,
    /// Aborts in the window by [`AbortCause::label`].
    pub aborts: BTreeMap<&'static str, u64>,
    /// Begin→decision latency of each committed transaction, ns, ascending.
    pub latencies_ns: Vec<u64>,
    /// Length of the measured window.
    pub window: SimDuration,
    /// Length of the whole run (warm-up included).
    pub horizon: SimDuration,
}

impl Outcome {
    /// Folds another point's outcome in (the library workload).
    pub fn merge(&mut self, other: &Outcome) {
        self.events += other.events;
        self.tally.add(other.tally);
        for (cause, n) in &other.aborts {
            *self.aborts.entry(cause).or_default() += n;
        }
        self.latencies_ns.extend_from_slice(&other.latencies_ns);
        self.latencies_ns.sort_unstable();
        self.window += other.window;
        self.horizon += other.horizon;
    }

    /// Committed transactions per virtual second of the measured window.
    pub fn committed_tps(&self) -> f64 {
        self.tally.committed as f64 / self.window.as_secs_f64()
    }

    /// Nearest-rank latency percentile in ms; the virtual horizon when
    /// nothing committed.
    pub fn latency_ms(&self, p: f64) -> f64 {
        nearest_rank(&self.latencies_ns, p, self.horizon.as_nanos()) as f64 / 1e6
    }

    /// Hash of the kernel event count, commits, aborts by cause and the
    /// latency samples: equal fingerprints mean the virtual run did not
    /// move.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint::default();
        h.add(self.events);
        h.add(self.tally.committed);
        h.add(self.tally.undecided);
        for n in self.aborts.values() {
            h.add(*n);
        }
        for l in &self.latencies_ns {
            h.add(*l);
        }
        h.value()
    }
}

/// Virtual per-layer numbers read from a traced run's events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TracedVirtual {
    /// Certification-queue residence per committed transaction, ns.
    pub queue_wait: Histogram,
    /// Certification-queue depth sampled at every enqueue.
    pub queue_depth: Histogram,
    /// Messages sent inside the window.
    pub msgs: u64,
    /// Bytes sent across sites inside the window.
    pub wan_bytes: u64,
}

impl TracedVirtual {
    fn from_breakdown(b: &PhaseBreakdown) -> Self {
        TracedVirtual {
            queue_wait: b.phase(Phase::QueueWait).clone(),
            queue_depth: b.queue_depth.clone(),
            msgs: b.total_msgs(),
            wan_bytes: b.wan_bytes(),
        }
    }

    /// Folds another point's numbers in (the library workload).
    pub fn merge(&mut self, other: &TracedVirtual) {
        self.queue_wait.merge(&other.queue_wait);
        self.queue_depth.merge(&other.queue_depth);
        self.msgs += other.msgs;
        self.wan_bytes += other.wan_bytes;
    }
}

/// Host timings and the traced data of one point run.
pub struct PointRun {
    /// Host seconds in `Cluster::build`.
    pub setup_s: f64,
    /// Host seconds in `Cluster::run_for`.
    pub run_s: f64,
    /// Host seconds in the correctness check.
    pub check_s: f64,
    /// Host seconds from the first `run_for` through the check.
    pub wall_s: f64,
    /// Virtual results.
    pub outcome: Outcome,
    /// Failed correctness checks, empty when the run is correct.
    pub violations: Vec<String>,
    /// Present on traced runs.
    pub traced: Option<Traced>,
}

/// What a traced run adds to a [`PointRun`].
pub struct Traced {
    /// Host time per layer.
    pub layers: LayerTimes,
    /// Virtual numbers from the phase breakdown.
    pub virt: TracedVirtual,
    /// The raw spans, for writing out at the end.
    pub data: TraceData,
    /// Replica flag per process index.
    pub is_replica: Vec<bool>,
}

impl Point {
    fn config(&self, seed: u64) -> ClusterConfig {
        ClusterConfig {
            keys_per_partition: self.keys_per_partition,
            value_size: self.value_size,
            clients_per_site: self.clients_per_site,
            max_txns_per_client: None,
            record_history: self.pooled.is_none(),
            client_op_timeout: self.pooled.map(|p| p.op_timeout),
            client_pooling: self.pooled.is_some(),
            client_think_time: self.pooled.map(|p| p.think),
            record_txn_metrics: true,
            // The harness's seed mix, so `--seed 11` reproduces the perf
            // gate's and the mega smoke gate's points.
            seed: seed ^ (self.clients_per_site as u64) << 32,
            ..ClusterConfig::small(self.spec.clone(), self.sites)
        }
    }

    /// Builds the deployment for `seed`.
    pub fn build(&self, seed: u64) -> Cluster {
        let cfg = self.config(seed);
        let partitions = cfg.placement.partitions() as u64;
        let total_keys = self.keys_per_partition * partitions;
        let wspec = self.kind.spec(total_keys);
        let ro = self.read_only;
        Cluster::build(cfg, |_idx, site| {
            Box::new(YcsbSource::new(
                wspec.clone(),
                total_keys,
                partitions,
                site.0 as u64 % partitions,
                ro,
            ))
        })
    }

    /// Builds, runs and checks the deployment once; `traced` attaches the
    /// benchmark's host-time sink for the run.
    pub fn run(&self, seed: u64, traced: bool) -> PointRun {
        let t = Instant::now();
        let mut cluster = self.build(seed);
        let setup_s = t.elapsed().as_secs_f64();
        let trace = traced.then(|| HostTrace::attach(&mut cluster));
        let start = Instant::now();
        cluster.run_for(self.warmup);
        let warm_end = cluster.now();
        cluster.run_for(self.measure);
        let run_s = start.elapsed().as_secs_f64();
        let data = trace.map(|t| t.finish(&mut cluster));
        let (outcome, mut violations) = self.outcome(&cluster, warm_end);
        let t = Instant::now();
        violations.extend(self.check(&cluster));
        let check_s = t.elapsed().as_secs_f64();
        let wall_s = start.elapsed().as_secs_f64();
        let traced = data.map(|mut data| {
            let mut is_replica =
                vec![false; cluster.replica_pids().len() + cluster.client_pids().len()];
            for p in cluster.replica_pids() {
                is_replica[p.index()] = true;
            }
            let events = std::mem::take(&mut data.events);
            let breakdown = PhaseBreakdown::from_events(&events, cluster.topology(), warm_end);
            Traced {
                layers: data.layer_times(&is_replica),
                virt: TracedVirtual::from_breakdown(&breakdown),
                data,
                is_replica,
            }
        });
        PointRun {
            setup_s,
            run_s,
            check_s,
            wall_s,
            outcome,
            violations,
            traced,
        }
    }

    /// Reads the window's outcomes, with the violations of the accounting
    /// identities found on the way.
    fn outcome(&self, cluster: &Cluster, warm_end: SimTime) -> (Outcome, Vec<String>) {
        let mut violations = Vec::new();
        let records = cluster.records();
        let mut out = Outcome {
            events: cluster.sim().stats().events_processed,
            window: cluster.now() - warm_end,
            horizon: cluster.now() - SimTime::ZERO,
            aborts: AbortCause::ALL.iter().map(|c| (c.label(), 0)).collect(),
            ..Outcome::default()
        };
        for r in records.iter().filter(|r| r.decided_at >= warm_end) {
            match (r.committed, r.cause) {
                (true, None) => {
                    out.tally.committed += 1;
                    out.latencies_ns.push(r.total_latency().as_nanos());
                }
                (false, Some(cause)) => {
                    out.tally.aborted += 1;
                    *out.aborts.entry(cause.label()).or_default() += 1;
                }
                _ => violations.push(format!(
                    "record {:?}: commit flag and abort cause disagree",
                    r.tx
                )),
            }
        }
        out.latencies_ns.sort_unstable();
        // Undecided = issued - decided over the whole run; a closed-loop
        // client has at most one transaction in flight.
        let issued = issued(cluster);
        let clients = (self.clients_per_site * self.sites) as u64;
        match issued.checked_sub(records.len() as u64) {
            Some(u) if u <= clients => out.tally.undecided = u,
            _ => violations.push(format!(
                "{} issued, {} decided: undecided outside [0, {clients}]",
                issued,
                records.len()
            )),
        }
        (out, violations)
    }

    /// The correctness check. Per-client points run the harness's
    /// invariant bundle: the history against the spec's criterion, replica
    /// convergence and the abort-cause partition. Pooled points record no
    /// history; they check the pool counters against the per-transaction
    /// records (issued = committed + aborted + undecided is checked in
    /// [`Point::outcome`]) and replica convergence.
    fn check(&self, cluster: &Cluster) -> Vec<String> {
        if self.pooled.is_none() {
            return check_invariants(&self.spec, cluster);
        }
        let mut out = Vec::new();
        let counts = cluster.pool_counts();
        let causes: u64 = counts.aborted_by_cause.iter().sum();
        if causes != counts.aborted {
            out.push(format!(
                "abort causes sum to {causes}, not {} aborted",
                counts.aborted
            ));
        }
        let records = cluster.records();
        let committed = records.iter().filter(|r| r.committed).count() as u64;
        if committed != counts.committed
            || records.len() as u64 != counts.committed + counts.aborted
        {
            out.push(format!(
                "pool counts {}+{} disagree with {} records ({committed} committed)",
                counts.committed,
                counts.aborted,
                records.len()
            ));
        }
        if !stores_converged(cluster) {
            out.push("replica stores diverged".to_string());
        }
        out
    }
}

/// Transactions issued by every client actor of the deployment.
fn issued(cluster: &Cluster) -> u64 {
    cluster
        .client_pids()
        .iter()
        .map(|&pid| {
            let node = cluster.sim().actor(pid);
            node.as_pool()
                .map(|p| p.issued())
                .or_else(|| node.as_client().map(|c| c.issued()))
                .unwrap_or(0)
        })
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A few-second slice of `standard`, small enough for a debug build.
    pub(crate) fn small_standard() -> Point {
        Point {
            clients_per_site: 16,
            warmup: SimDuration::from_millis(100),
            measure: SimDuration::from_millis(600),
            keys_per_partition: 1_000,
            ..standard_point()
        }
    }

    /// A pooled point whose op timeout fires inside the horizon.
    pub(crate) fn small_pooled() -> Point {
        Point {
            clients_per_site: 400,
            pooled: Some(Pacing {
                think: SimDuration::from_millis(200),
                op_timeout: SimDuration::from_millis(300),
            }),
            measure: SimDuration::from_millis(800),
            keys_per_partition: 1_000,
            ..pooled_point(400)
        }
    }

    #[test]
    fn every_workload_is_named() {
        for name in NAMES {
            let wl = Workload::by_name(name).expect("named workload");
            assert_eq!(wl.name, name);
            assert!(!wl.points.is_empty());
        }
        assert!(Workload::by_name("nope").is_none());
        assert_eq!(
            Workload::by_name("library").expect("library").points.len(),
            7
        );
    }

    #[test]
    fn tracing_leaves_virtual_results_unchanged() {
        for point in [small_standard(), small_pooled()] {
            let plain = point.run(7, false);
            let traced = point.run(7, true);
            assert!(plain.violations.is_empty(), "{:?}", plain.violations);
            assert!(traced.violations.is_empty(), "{:?}", traced.violations);
            assert!(plain.outcome.tally.committed > 0);
            assert_eq!(plain.outcome, traced.outcome);
            assert_eq!(plain.outcome.fingerprint(), traced.outcome.fingerprint());
            assert!(plain.traced.is_none());
            let t = traced.traced.expect("traced run");
            assert!(t.virt.msgs > 0);
            // Handler calls are virtual too: one span per kernel event.
            let calls: u64 = t
                .layers
                .replica
                .values()
                .chain(t.layers.client.values())
                .map(|h| h.calls)
                .sum();
            assert_eq!(calls, plain.outcome.events);
        }
    }

    #[test]
    fn another_seed_moves_the_fingerprint() {
        let p = small_standard();
        assert_ne!(
            p.run(7, false).outcome.fingerprint(),
            p.run(8, false).outcome.fingerprint()
        );
    }

    #[test]
    fn pooled_timeouts_count_as_crash_aborts() {
        let run = small_pooled().run(7, false);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        let o = &run.outcome;
        assert!(o.aborts["crash"] > 0, "{o:?}");
        assert_eq!(o.aborts.values().sum::<u64>(), o.tally.aborted);
        assert_eq!(o.window, o.horizon);
    }

    #[test]
    fn traced_layers_account_for_the_run() {
        let run = small_standard().run(7, true);
        let t = run.traced.expect("traced run");
        let l = &t.layers;
        let accounted = l.dispatch_s + l.flush_s + l.bodies_s();
        assert!((accounted - t.data.covered_s()).abs() < 1e-6);
        let share = accounted / run.run_s;
        assert!(
            (0.95..=1.0 + 1e-9).contains(&share),
            "{accounted} of {}",
            run.run_s
        );
        assert!(l.replica["gc.skeen_final"].calls > 0);
        assert!(l.client["reply"].calls > 0);
    }
}
