//! Experiment definitions and single-point runs.

use std::collections::BTreeSet;

use gdur_consistency::{CriterionCheck, History};
use gdur_core::{Cluster, ClusterConfig, CostModel, ProtocolSpec, TxnRecord};
use gdur_net::Topology;
use gdur_obs::{Histogram, ObsEvent, PhaseBreakdown, TraceHandle};
use gdur_sim::{ProcessId, SimDuration, SimTime};
use gdur_store::Placement;
use gdur_workload::{WorkloadSpec, YcsbSource};

/// Which Table 3 workload an experiment drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Uniform, 2-read queries, 1R+1U updates.
    A,
    /// Uniform, 4-read queries, 2R+2U updates.
    B,
    /// Zipfian, 2-read queries, 1R+1U updates.
    C,
}

impl WorkloadKind {
    /// Builds the concrete spec for a keyspace of `total_keys`.
    pub fn spec(self, total_keys: u64) -> WorkloadSpec {
        match self {
            WorkloadKind::A => WorkloadSpec::a(),
            WorkloadKind::B => WorkloadSpec::b(),
            WorkloadKind::C => WorkloadSpec::c(total_keys),
        }
    }
}

/// Data placement used by an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Disaster prone: one replica per object (§8.5.1).
    Dp,
    /// Disaster tolerant: two replicas per object (§8.5.2).
    Dt,
}

impl PlacementKind {
    /// Builds the placement for `sites` sites.
    pub fn placement(self, sites: usize) -> Placement {
        match self {
            PlacementKind::Dp => Placement::disaster_prone(sites),
            PlacementKind::Dt => Placement::disaster_tolerant(sites),
        }
    }
}

/// One experiment curve: a protocol under a workload and deployment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Curve label in the rendered figure.
    pub label: String,
    /// Protocol under test.
    pub spec: ProtocolSpec,
    /// Table 3 workload.
    pub workload: WorkloadKind,
    /// Fraction of read-only transactions (0.9 / 0.7 in the paper).
    pub read_only_ratio: f64,
    /// Fraction of queries kept on the coordinator's partition (Figure 5).
    pub local_query_ratio: f64,
    /// Number of sites.
    pub sites: usize,
    /// Placement.
    pub placement: PlacementKind,
}

impl Experiment {
    /// Shorthand constructor with no locality.
    pub fn new(
        spec: ProtocolSpec,
        workload: WorkloadKind,
        read_only_ratio: f64,
        sites: usize,
        placement: PlacementKind,
    ) -> Self {
        Experiment {
            label: spec.name.to_string(),
            spec,
            workload,
            read_only_ratio,
            local_query_ratio: 0.0,
            sites,
            placement,
        }
    }
}

/// Scale parameters of a run: the paper-faithful setting and a quick one
/// for CI and Criterion benches.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Objects per partition (paper: 10⁵ per replica).
    pub keys_per_partition: u64,
    /// Payload size (paper: 1 KB).
    pub value_size: usize,
    /// Warm-up interval excluded from measurement.
    pub warmup: SimDuration,
    /// Measurement interval.
    pub measure: SimDuration,
    /// Client threads per site, one sweep point per entry.
    pub client_sweep: Vec<usize>,
    /// Replica cores (paper: 4-core machines).
    pub cores: u16,
    /// Base RNG seed.
    pub seed: u64,
    /// Aggregate each site's clients into one pool actor (the opt-in
    /// scale axis; see `ClusterConfig::client_pooling`). Off by default —
    /// per-client actors remain the blessed reference configuration.
    pub client_pooling: bool,
}

impl Scale {
    /// Paper-faithful scale (minutes of CPU per figure).
    pub fn paper() -> Self {
        Scale {
            keys_per_partition: 100_000,
            value_size: 1024,
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(4),
            client_sweep: vec![8, 64, 256, 512, 1024, 1536],
            cores: 4,
            seed: 1,
            client_pooling: false,
        }
    }

    /// Reduced scale for tests and Criterion benches (seconds per figure).
    pub fn quick() -> Self {
        Scale {
            keys_per_partition: 2_000,
            value_size: 128,
            warmup: SimDuration::from_millis(500),
            measure: SimDuration::from_secs(2),
            client_sweep: vec![4, 16, 48],
            cores: 4,
            seed: 1,
            client_pooling: false,
        }
    }
}

/// The measurements of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointResult {
    /// Total client threads across all sites.
    pub clients_total: usize,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Mean termination latency of committed update transactions, ms
    /// (Figure 3's y-axis).
    pub term_latency_update_ms: f64,
    /// Mean total latency of all committed transactions, ms (Figure 4's
    /// y-axis).
    pub avg_latency_ms: f64,
    /// Aborted / decided.
    pub abort_ratio: f64,
    /// Committed transactions inside the window.
    pub committed: u64,
    /// Aborted transactions inside the window.
    pub aborted: u64,
    /// Median total latency of committed transactions, ms.
    pub p50_latency_ms: f64,
    /// 99th-percentile total latency of committed transactions, ms.
    pub p99_latency_ms: f64,
}

fn summarize(records: &[TxnRecord], window: SimDuration, clients_total: usize) -> PointResult {
    let committed: Vec<&TxnRecord> = records.iter().filter(|r| r.committed).collect();
    let aborted = records.len() as u64 - committed.len() as u64;
    let committed_updates: Vec<&&TxnRecord> = committed.iter().filter(|r| !r.read_only).collect();
    let mean_ms = |it: &[&&TxnRecord], f: &dyn Fn(&TxnRecord) -> f64| -> f64 {
        if it.is_empty() {
            0.0
        } else {
            it.iter().map(|r| f(r)).sum::<f64>() / it.len() as f64
        }
    };
    let term_latency_update_ms = mean_ms(&committed_updates, &|r| {
        r.termination_latency().as_millis_f64()
    });
    let all_refs: Vec<&&TxnRecord> = committed.iter().collect();
    let avg_latency_ms = mean_ms(&all_refs, &|r| r.total_latency().as_millis_f64());
    // Nearest-rank percentiles over the shared log-bucket histogram: the
    // old `lat[((len-1) as f64 * p) as usize]` truncated the rank downward
    // and under-reported tail latency on small samples.
    let mut lat = Histogram::new();
    for r in &committed {
        lat.record(r.total_latency().as_nanos());
    }
    let pct = |p: f64| -> f64 { lat.quantile(p) as f64 / 1e6 };
    let (p50_latency_ms, p99_latency_ms) = (pct(0.5), pct(0.99));
    PointResult {
        clients_total,
        throughput_tps: committed.len() as f64 / window.as_secs_f64(),
        term_latency_update_ms,
        avg_latency_ms,
        abort_ratio: if records.is_empty() {
            0.0
        } else {
            aborted as f64 / records.len() as f64
        },
        committed: committed.len() as u64,
        aborted,
        p50_latency_ms,
        p99_latency_ms,
    }
}

/// Runs one sweep point: a full deployment at `clients_per_site`, with a
/// warm-up excluded from the reported window.
pub fn run_point(exp: &Experiment, scale: &Scale, clients_per_site: usize) -> PointResult {
    run_point_full(exp, scale, clients_per_site, None).point
}

/// Like [`run_point`], but also returns the kernel's [`gdur_sim::SimStats`]
/// for the whole run (warm-up included). The perf gate divides
/// `events_processed` by host wall-clock to report events/sec; because the
/// stats are a pure function of the seed, they double as a cheap
/// bit-identity check across optimisation work.
pub fn run_point_events(
    exp: &Experiment,
    scale: &Scale,
    clients_per_site: usize,
) -> (PointResult, gdur_sim::SimStats) {
    let run = run_point_full(exp, scale, clients_per_site, None);
    (run.point, run.stats)
}

/// Like [`run_point`], but with an observability sink attached for the whole
/// run: returns the point result, its phase breakdown (measurement window
/// only), and the full event trace. Tracing never consumes virtual time or
/// randomness, so the [`PointResult`] is bit-identical to [`run_point`]'s.
pub fn run_point_traced(
    exp: &Experiment,
    scale: &Scale,
    clients_per_site: usize,
) -> (PointResult, PhaseBreakdown, Vec<ObsEvent>) {
    let run = run_point_full(exp, scale, clients_per_site, Some(TraceHandle::new()));
    let (breakdown, events) = run.extra.expect("traced run records a breakdown");
    (run.point, breakdown, events)
}

/// One causally-traced sweep point: everything the span-tree, critical-path
/// and Chrome-export layers need, bundled.
#[derive(Debug, Clone)]
pub struct CausalRun {
    /// The point measurements — bit-identical to an untraced [`run_point`].
    pub point: PointResult,
    /// Phase breakdown over the measurement window.
    pub breakdown: PhaseBreakdown,
    /// The full causal event trace (warm-up included).
    pub events: Vec<ObsEvent>,
    /// End of warm-up = start of the measurement window.
    pub warm_end: SimTime,
    /// The client actors (service time on them is client think time).
    pub clients: BTreeSet<ProcessId>,
    /// Display name per actor, indexed by process id.
    pub actor_names: Vec<String>,
    /// The deployment's site topology.
    pub topology: Topology,
}

/// Like [`run_point_traced`], but with a *causal* sink: the trace also
/// carries message ids, `Deliver` records and handler service brackets, so
/// it feeds [`gdur_obs::CausalIndex`] directly. Still zero-perturbation:
/// the [`PointResult`] stays bit-identical to [`run_point`]'s.
pub fn run_point_causal(exp: &Experiment, scale: &Scale, clients_per_site: usize) -> CausalRun {
    let run = run_point_full(exp, scale, clients_per_site, Some(TraceHandle::causal()));
    let (breakdown, events) = run.extra.expect("traced run records a breakdown");
    CausalRun {
        point: run.point,
        breakdown,
        events,
        warm_end: run.warm_end,
        clients: run.clients,
        actor_names: run.actor_names,
        topology: run.topology,
    }
}

struct FullRun {
    point: PointResult,
    stats: gdur_sim::SimStats,
    warm_end: SimTime,
    extra: Option<(PhaseBreakdown, Vec<ObsEvent>)>,
    clients: BTreeSet<ProcessId>,
    actor_names: Vec<String>,
    topology: Topology,
}

fn run_point_full(
    exp: &Experiment,
    scale: &Scale,
    clients_per_site: usize,
    trace: Option<TraceHandle>,
) -> FullRun {
    let placement = exp.placement.placement(exp.sites);
    let partitions = placement.partitions() as u64;
    let total_keys = scale.keys_per_partition * partitions;
    let wspec = exp.workload.spec(total_keys);
    let cfg = ClusterConfig {
        spec: exp.spec.clone(),
        placement,
        keys_per_partition: scale.keys_per_partition,
        value_size: scale.value_size,
        clients_per_site,
        max_txns_per_client: None,
        costs: CostModel::default(),
        cores_per_replica: scale.cores,
        // Always on: every experiment's history is fed to the consistency
        // oracle below, so no reported number can come from a corrupt run.
        record_history: true,
        persistence: false,
        vote_timeout: None,
        max_read_attempts: None,
        client_op_timeout: None,
        client_pooling: scale.client_pooling,
        client_think_time: None,
        record_txn_metrics: true,
        seed: scale.seed ^ (clients_per_site as u64) << 32,
        bug_unreserved_commit_clocks: false,
    };
    let ro = exp.read_only_ratio;
    let lq = exp.local_query_ratio;
    let mut cluster = Cluster::build(cfg, |_idx, site| {
        let src = YcsbSource::new(
            wspec.clone(),
            total_keys,
            partitions,
            site.0 as u64 % partitions,
            ro,
        )
        .with_local_query_ratio(lq);
        Box::new(src)
    });
    if let Some(t) = &trace {
        cluster.attach_obs(t.sink());
    }
    cluster.run_for(scale.warmup);
    let warm_end = cluster.now();
    cluster.run_for(scale.measure);
    // Always-on history verification: check the full run (warm-up
    // included) against the criterion the spec claims, and refuse to
    // report measurements from a violating execution.
    let history = History::from_cluster(&cluster);
    if let Err(v) = exp.spec.criterion.check(&history) {
        panic!(
            "experiment '{}' ({} clients/site) violated its claimed criterion {:?}: {v}",
            exp.label, clients_per_site, exp.spec.criterion
        );
    }
    let records: Vec<TxnRecord> = cluster
        .records()
        .into_iter()
        .filter(|r| r.decided_at >= warm_end)
        .collect();
    let clients_total = clients_per_site * exp.sites;
    let point = summarize(&records, cluster.now() - warm_end, clients_total);
    let stats = cluster.sim().stats();
    let extra = trace.map(|t| {
        let events = t.take();
        let breakdown = PhaseBreakdown::from_events(&events, cluster.topology(), warm_end);
        (breakdown, events)
    });
    let topology = cluster.topology().clone();
    let clients: BTreeSet<ProcessId> = cluster.client_pids().iter().copied().collect();
    let total_actors = cluster.replica_pids().len() + cluster.client_pids().len();
    let mut actor_names = vec![String::new(); total_actors];
    for &p in cluster.replica_pids() {
        actor_names[p.index()] = format!("replica p{} @ s{}", p.0, topology.site_of(p).0);
    }
    for &p in cluster.client_pids() {
        let site = topology.site_of(p);
        actor_names[p.index()] = match cluster.pool(site) {
            Some(pool) => format!("pool p{} @ s{} ({} clients)", p.0, site.0, pool.clients()),
            None => format!("client p{} @ s{}", p.0, site.0),
        };
    }
    FullRun {
        point,
        stats,
        warm_end,
        extra,
        clients,
        actor_names,
        topology,
    }
}

/// Scale parameters of one aggregated-pool mega point (the `perf_gate
/// --mega` sweep along ROADMAP's "millions of users" axis).
///
/// Unlike [`Scale`], this path is pool-only and metric-light by
/// construction: one [`gdur_core::ClientPool`] actor per site, no
/// per-client actors or mailboxes, `record_history` and per-transaction
/// records both off. Memory is bounded by the per-client state arrays
/// (a few hundred bytes per client), not by the transaction count.
#[derive(Debug, Clone)]
pub struct MegaConfig {
    /// Closed-loop clients aggregated into each site's pool.
    pub clients_per_site: usize,
    /// Objects per partition.
    pub keys_per_partition: u64,
    /// Payload size.
    pub value_size: usize,
    /// Think time between a client's transactions; with `horizon`, this
    /// bounds the event count at roughly `clients × horizon / think_time`
    /// transactions regardless of client count.
    pub think_time: SimDuration,
    /// Virtual-time horizon of the run (no warm-up split: pool counters
    /// are cumulative, and the mega sweep reports whole-run aggregates).
    pub horizon: SimDuration,
    /// Per-operation client timeout (exercises the pool's timer wheel
    /// under saturation; timed-out transactions abort as `Crash`).
    pub op_timeout: SimDuration,
    /// Deployment seed.
    pub seed: u64,
}

impl MegaConfig {
    /// The standard mega point: YCSB-ish keyspace, 1 s think time, 4 s
    /// horizon, 2 s op timeout.
    ///
    /// The horizon is deliberately short and *fixed across rungs*: beyond
    /// ~10³ clients per 4-core site the offered load exceeds replica
    /// capacity regardless of pacing, so a longer horizon only makes the
    /// saturated replicas grind through proportionally more virtual work
    /// (and hold proportionally more abandoned transaction state). Four
    /// seconds covers two think intervals *and* the first op-timeout wave:
    /// saturated rungs report timeout aborts routed through the pool's
    /// timer wheel instead of a population parked forever.
    pub fn standard(clients_per_site: usize, seed: u64) -> Self {
        MegaConfig {
            clients_per_site,
            keys_per_partition: 10_000,
            value_size: 64,
            think_time: SimDuration::from_secs(1),
            horizon: SimDuration::from_secs(4),
            op_timeout: SimDuration::from_secs(2),
            seed,
        }
    }
}

/// Whole-run aggregates of one mega point, read from the pools'
/// [`gdur_core::PoolCounts`] and the kernel stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MegaPointResult {
    /// Total clients across all sites.
    pub clients_total: usize,
    /// Transactions issued (whole run).
    pub issued: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (all causes).
    pub aborted: u64,
    /// Aborts attributed to the client op timeout (`AbortCause::Crash`).
    pub timeout_aborts: u64,
    /// Committed transactions per virtual second.
    pub throughput_tps: f64,
    /// Mean begin→decision latency of committed transactions, ms.
    pub avg_latency_ms: f64,
    /// Kernel events processed.
    pub events: u64,
}

/// Runs one aggregated-pool mega point: `exp.sites` pools of
/// `cfg.clients_per_site` clients each, think-time paced, until
/// `cfg.horizon`. History recording and per-transaction records are off,
/// so this completes in memory bounded by the client state arrays even at
/// 10⁶ clients per site.
pub fn run_mega_point(exp: &Experiment, cfg: &MegaConfig) -> MegaPointResult {
    let placement = exp.placement.placement(exp.sites);
    let partitions = placement.partitions() as u64;
    let total_keys = cfg.keys_per_partition * partitions;
    let wspec = exp.workload.spec(total_keys);
    let ccfg = ClusterConfig {
        spec: exp.spec.clone(),
        placement,
        keys_per_partition: cfg.keys_per_partition,
        value_size: cfg.value_size,
        clients_per_site: cfg.clients_per_site,
        max_txns_per_client: None,
        costs: CostModel::default(),
        cores_per_replica: 4,
        // The scale path trades the consistency oracle for bounded
        // memory: history grows with the transaction count, which at 10⁶
        // clients is exactly what must not be materialized. Correctness
        // is covered by the pool-equivalence tests at small scale.
        record_history: false,
        persistence: false,
        vote_timeout: None,
        max_read_attempts: None,
        client_op_timeout: Some(cfg.op_timeout),
        client_pooling: true,
        client_think_time: Some(cfg.think_time),
        record_txn_metrics: false,
        seed: cfg.seed ^ (cfg.clients_per_site as u64) << 32,
        bug_unreserved_commit_clocks: false,
    };
    let ro = exp.read_only_ratio;
    let lq = exp.local_query_ratio;
    let mut cluster = Cluster::build(ccfg, |_idx, site| {
        let src = YcsbSource::new(
            wspec.clone(),
            total_keys,
            partitions,
            site.0 as u64 % partitions,
            ro,
        )
        .with_local_query_ratio(lq);
        Box::new(src)
    });
    cluster.run_for(cfg.horizon);
    let counts = cluster.pool_counts();
    let stats = cluster.sim().stats();
    MegaPointResult {
        clients_total: cfg.clients_per_site * exp.sites,
        issued: counts.issued,
        committed: counts.committed,
        aborted: counts.aborted,
        timeout_aborts: counts.aborted_by_cause[gdur_obs::AbortCause::Crash.code() as usize],
        throughput_tps: counts.committed as f64 / cfg.horizon.as_secs_f64(),
        avg_latency_ms: if counts.committed == 0 {
            0.0
        } else {
            counts.total_latency_nanos as f64 / counts.committed as f64 / 1e6
        },
        events: stats.events_processed,
    }
}

/// Runs the whole client sweep of an experiment, one OS thread per point.
pub fn run_sweep(exp: &Experiment, scale: &Scale) -> Vec<PointResult> {
    let mut results: Vec<Option<PointResult>> = vec![None; scale.client_sweep.len()];
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, &cps) in scale.client_sweep.iter().enumerate() {
            handles.push((i, s.spawn(move || run_point(exp, scale, cps))));
        }
        for (i, h) in handles {
            results[i] = Some(h.join().expect("sweep point panicked"));
        }
    });
    results.into_iter().map(|r| r.expect("filled")).collect()
}

/// Maximum committed throughput over a sweep (Figure 5's metric).
pub fn max_throughput(points: &[PointResult]) -> f64 {
    points.iter().map(|p| p.throughput_tps).fold(0.0, f64::max)
}

/// Re-exported so binaries can build custom windows.
pub fn window_of(cluster: &Cluster, warm_end: SimTime) -> SimDuration {
    cluster.now() - warm_end
}
