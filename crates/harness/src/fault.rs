//! Declarative fault schedules and the chaos harness (§5.3).
//!
//! A [`FaultSchedule`] lists scheduled crashes, restarts, link partitions,
//! and heals in virtual time. [`run_chaos`] drives one protocol under one
//! schedule: it pre-registers the crash/restart events with the simulation
//! kernel, slices the run at every partition boundary to flip the link
//! state, lets the deployment drain to idle, and then subjects the run to
//! the same always-on history verification as every experiment — plus a
//! store-convergence check across the replicas of each partition.
//!
//! Everything here is deterministic: the same protocol, schedule, and seed
//! reproduce the same trace byte for byte (the dynamic determinism lint
//! and `chaos_smoke` both rely on this).

use gdur_consistency::{CriterionCheck, History};
use gdur_core::{Cluster, ClusterConfig, CostModel, ProtocolSpec};
use gdur_net::SiteId;
use gdur_obs::{labels, ObsEvent, TraceHandle};
use gdur_sim::{SimDuration, SimTime};
use gdur_store::{PartitionId, Placement};
use gdur_workload::{WorkloadSpec, YcsbSource};

/// One scheduled fault of a chaos run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash the replica at `site`: its mailbox and timers are discarded
    /// and it stops processing until restarted.
    Crash {
        /// The crashed site.
        site: SiteId,
        /// Virtual instant of the crash.
        at: SimTime,
    },
    /// Restart the replica at `site`: it rebuilds from its write-ahead log
    /// and catches up from its peers.
    Restart {
        /// The restarted site.
        site: SiteId,
        /// Virtual instant of the restart.
        at: SimTime,
    },
    /// Cut the link between two sites (messages are delayed, not lost).
    Partition {
        /// One endpoint.
        a: SiteId,
        /// The other endpoint.
        b: SiteId,
        /// Virtual instant of the cut.
        at: SimTime,
    },
    /// Heal the link between two sites.
    Heal {
        /// One endpoint.
        a: SiteId,
        /// The other endpoint.
        b: SiteId,
        /// Virtual instant of the heal.
        at: SimTime,
    },
}

impl FaultEvent {
    /// Virtual instant at which this fault takes effect.
    pub fn at(&self) -> SimTime {
        match self {
            FaultEvent::Crash { at, .. }
            | FaultEvent::Restart { at, .. }
            | FaultEvent::Partition { at, .. }
            | FaultEvent::Heal { at, .. } => *at,
        }
    }
}

/// A declarative fault schedule, built fluently:
///
/// ```
/// use gdur_harness::FaultSchedule;
/// let schedule = FaultSchedule::new()
///     .crash(1, 400)
///     .partition(0, 2, 600)
///     .heal(0, 2, 1_000)
///     .restart(1, 1_200);
/// assert_eq!(schedule.events().len(), 4);
/// ```
///
/// Times are virtual milliseconds from the start of the run. Events may be
/// declared in any order; the runner applies them chronologically (ties
/// break in declaration order).
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Crash the replica at `site` at `at_ms` virtual milliseconds.
    pub fn crash(mut self, site: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Crash {
            site: SiteId(site),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// Restart the replica at `site` at `at_ms` virtual milliseconds.
    pub fn restart(mut self, site: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Restart {
            site: SiteId(site),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// Cut the link between sites `a` and `b` at `at_ms` virtual
    /// milliseconds.
    pub fn partition(mut self, a: u16, b: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Partition {
            a: SiteId(a),
            b: SiteId(b),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// Heal the link between sites `a` and `b` at `at_ms` virtual
    /// milliseconds.
    pub fn heal(mut self, a: u16, b: u16, at_ms: u64) -> Self {
        self.events.push(FaultEvent::Heal {
            a: SiteId(a),
            b: SiteId(b),
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
        });
        self
    }

    /// The scheduled events, in declaration order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events sorted chronologically (declaration order on ties).
    pub fn chronological(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at());
        evs
    }

    /// Sites that get restarted at some point.
    pub fn restarted_sites(&self) -> Vec<SiteId> {
        let mut out = Vec::new();
        for e in &self.events {
            if let FaultEvent::Restart { site, .. } = e {
                if !out.contains(site) {
                    out.push(*site);
                }
            }
        }
        out
    }

    /// The latest restart instant, if any replica restarts.
    pub fn last_restart(&self) -> Option<SimTime> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::Restart { at, .. } => Some(*at),
                _ => None,
            })
            .max()
    }
}

/// Configuration of one chaos run. Defaults (via [`ChaosConfig::new`]) are
/// sized for CI: a 3-site disaster-tolerant deployment with a bounded
/// closed-loop workload.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Report label (defaults to the protocol name).
    pub label: String,
    /// The protocol under test.
    pub spec: ProtocolSpec,
    /// The fault schedule.
    pub schedule: FaultSchedule,
    /// Number of sites (placement is always disaster tolerant: catch-up
    /// needs a second replica per partition).
    pub sites: usize,
    /// Closed-loop clients per site.
    pub clients_per_site: usize,
    /// Transactions per client (bounded so the run drains to idle).
    pub txns_per_client: u64,
    /// Keys per partition.
    pub keys_per_partition: u64,
    /// Deployment seed.
    pub seed: u64,
    /// Drive the load through one aggregated pool actor per site instead
    /// of per-client actors (the scale configuration; see
    /// `ClusterConfig::client_pooling`).
    pub client_pooling: bool,
}

impl ChaosConfig {
    /// CI-sized defaults for `spec` under `schedule`.
    pub fn new(spec: ProtocolSpec, schedule: FaultSchedule) -> Self {
        ChaosConfig {
            label: spec.name.to_string(),
            spec,
            schedule,
            sites: 3,
            clients_per_site: 2,
            txns_per_client: 30,
            keys_per_partition: 200,
            seed: 7,
            client_pooling: false,
        }
    }
}

/// The outcome of one chaos run, summarizing client-visible results,
/// recovery activity, and the two safety verdicts.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Report label.
    pub label: String,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted (or abandoned) transactions.
    pub aborted: u64,
    /// Transactions committed by a restarted coordinator after its latest
    /// restart — the "recovered replica does useful work again" signal.
    pub post_restart_commits: u64,
    /// Kernel crash events that took effect.
    pub crashes: u64,
    /// Kernel restart events that took effect.
    pub restarts: u64,
    /// WAL replays performed (`recovery.replay` trace events).
    pub replays: u64,
    /// Resumed §5.3 retransmissions (`recovery.resubmit` trace events).
    pub resubmissions: u64,
    /// Install records adopted via catch-up, summed over replicas.
    pub catchup_installs: u64,
    /// Completed catch-up transfers (`recovery.complete` trace events).
    pub recovery_completes: u64,
    /// True if every partition's replicas ended with identical stores.
    pub converged: bool,
    /// First history violation, if the criterion check failed.
    pub violation: Option<String>,
}

impl ChaosReport {
    /// True if the run passed both safety verdicts.
    pub fn ok(&self) -> bool {
        self.converged && self.violation.is_none()
    }

    /// One stable line for golden-file diffs. Client-visible commit/abort
    /// counts are excluded on purpose: they depend on virtual-time races
    /// that legitimately shift when cost models are tuned, while the
    /// recovery-event counts below are structural.
    pub fn golden_line(&self) -> String {
        format!(
            "{}: crashes={} restarts={} replays={} resubmissions={} completes={} converged={} violation={}",
            self.label,
            self.crashes,
            self.restarts,
            self.replays,
            self.resubmissions,
            self.recovery_completes,
            self.converged,
            match &self.violation {
                Some(v) => v.as_str(),
                None => "none",
            }
        )
    }
}

fn count_label(events: &[ObsEvent], label: &str) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, ObsEvent::Point { label: l, .. } if *l == label))
        .count() as u64
}

/// True if, for every partition, all of its replicas hold the same per-key
/// latest sequence and writer.
pub fn stores_converged(cluster: &Cluster) -> bool {
    let placement = cluster.placement().clone();
    for p in 0..placement.partitions() {
        let part = PartitionId(p as u32);
        let sites = placement.replicas(part);
        let Some((first, rest)) = sites.split_first() else {
            continue;
        };
        let reference = cluster.replica(*first).store();
        for s in rest {
            let other = cluster.replica(*s).store();
            for key in reference.keys() {
                if placement.partition_of(key) != part {
                    continue;
                }
                let a = reference.latest(key).map(|r| (r.seq, r.writer));
                let b = other.latest(key).map(|r| (r.seq, r.writer));
                if a != b {
                    return false;
                }
            }
        }
    }
    true
}

/// Runs `spec` under the fault schedule and returns the report plus the
/// full deterministic event trace.
///
/// The run uses persistence (so crashed replicas recover from their WAL),
/// a vote timeout (so terminations wedged by a crash abort instead of
/// retrying forever), bounded read failover, and a client operation
/// timeout (so closed-loop clients survive a crashed coordinator) — the
/// §5.3 crash–recovery model end to end.
pub fn run_chaos(cfg: &ChaosConfig) -> (ChaosReport, Vec<ObsEvent>) {
    let placement = Placement::disaster_tolerant(cfg.sites);
    let partitions = placement.partitions() as u64;
    let total_keys = cfg.keys_per_partition * partitions;
    let ccfg = ClusterConfig {
        spec: cfg.spec.clone(),
        placement,
        keys_per_partition: cfg.keys_per_partition,
        value_size: 64,
        clients_per_site: cfg.clients_per_site,
        max_txns_per_client: Some(cfg.txns_per_client),
        costs: CostModel::default(),
        cores_per_replica: 4,
        record_history: true,
        persistence: true,
        vote_timeout: Some(SimDuration::from_millis(500)),
        max_read_attempts: Some(6),
        client_op_timeout: Some(SimDuration::from_secs(2)),
        client_pooling: cfg.client_pooling,
        client_think_time: None,
        record_txn_metrics: true,
        seed: cfg.seed,
        bug_unreserved_commit_clocks: false,
    };
    let mut cluster = Cluster::build(ccfg, |_idx, site| {
        Box::new(YcsbSource::new(
            WorkloadSpec::a(),
            total_keys,
            partitions,
            site.0 as u64 % partitions,
            0.5,
        ))
    });
    let trace = TraceHandle::new();
    cluster.attach_obs(trace.sink());
    let pc = cluster.partition_control();
    let replica_pids = cluster.replica_pids().to_vec();

    // Crashes and restarts are kernel events: register them up front so
    // they land at their exact virtual instants regardless of how the run
    // is sliced below.
    for ev in cfg.schedule.events() {
        match *ev {
            FaultEvent::Crash { site, at } => {
                cluster
                    .sim_mut()
                    .schedule_crash(replica_pids[site.index()], at);
            }
            FaultEvent::Restart { site, at } => {
                cluster
                    .sim_mut()
                    .schedule_restart(replica_pids[site.index()], at);
            }
            FaultEvent::Partition { .. } | FaultEvent::Heal { .. } => {}
        }
    }
    // Link state is latency-model state, not a kernel event: slice the run
    // at every partition boundary and flip the cut between slices.
    for ev in cfg.schedule.chronological() {
        match ev {
            FaultEvent::Partition { a, b, at } => {
                cluster.sim_mut().run_until(at);
                pc.cut(a, b);
            }
            FaultEvent::Heal { a, b, at } => {
                cluster.sim_mut().run_until(at);
                pc.heal(a, b);
            }
            FaultEvent::Crash { .. } | FaultEvent::Restart { .. } => {}
        }
    }
    cluster.run_until_idle();

    let history = History::from_cluster(&cluster);
    let violation = cfg
        .spec
        .criterion
        .check(&history)
        .err()
        .map(|v| v.to_string());
    let converged = stores_converged(&cluster);

    let records = cluster.records();
    let committed = records.iter().filter(|r| r.committed).count() as u64;
    let aborted = records.len() as u64 - committed;
    // Transaction ids carry the *client-side* pid as their coordinator
    // field. With per-client actors, the clients driving a restarted
    // site's replica are a contiguous pid block (clients are spawned site
    // by site after the replicas); with pooling, the site's single pool
    // pid covers them all.
    let client_pids = cluster.client_pids().to_vec();
    let restarted: Vec<u32> = if cfg.client_pooling {
        cfg.schedule
            .restarted_sites()
            .iter()
            .map(|s| client_pids[s.index()].0)
            .collect()
    } else {
        cfg.schedule
            .restarted_sites()
            .iter()
            .flat_map(|s| {
                let base = s.index() * cfg.clients_per_site;
                client_pids[base..base + cfg.clients_per_site]
                    .iter()
                    .map(|p| p.0)
            })
            .collect()
    };
    let post_restart_commits = match cfg.schedule.last_restart() {
        Some(at) => records
            .iter()
            .filter(|r| r.committed && r.decided_at >= at && restarted.contains(&r.tx.coord))
            .count() as u64,
        None => 0,
    };
    let stats = cluster.replica_stats();
    let events = trace.take();
    let report = ChaosReport {
        label: cfg.label.clone(),
        committed,
        aborted,
        post_restart_commits,
        crashes: count_label(&events, labels::KERNEL_CRASH),
        restarts: count_label(&events, labels::KERNEL_RESTART),
        replays: count_label(&events, labels::RECOVERY_REPLAY),
        resubmissions: stats.resubmissions,
        catchup_installs: stats.catchup_installs,
        recovery_completes: count_label(&events, labels::RECOVERY_COMPLETE),
        converged,
        violation,
    };
    (report, events)
}

/// The seeded schedule library of the chaos sweep: one deterministic
/// crash → partition → heal → restart schedule per protocol family,
/// plus the protocol under test.
///
/// Covered families: 2PC (`P-Store-2PC`), Paxos Commit (`P-Store-Paxos`),
/// and GC distributed voting (`P-Store-AB`). Serrano's `LocalDecide` is
/// excluded: a vote-free total-order protocol cannot re-join the delivery
/// sequence after losing its engine state, so its recovery is documented
/// as unsupported (DESIGN.md §3.7).
pub fn chaos_library() -> Vec<ChaosConfig> {
    // Site 1 is never the AB-Cast sequencer (the minimum process id,
    // site 0, is), so one library serves all three families.
    let schedule = || {
        FaultSchedule::new()
            .crash(1, 400)
            .partition(0, 2, 600)
            .heal(0, 2, 900)
            .restart(1, 1_200)
    };
    vec![
        ChaosConfig::new(gdur_protocols::p_store_2pc(), schedule()),
        ChaosConfig::new(gdur_protocols::p_store_paxos(), schedule()),
        ChaosConfig::new(gdur_protocols::p_store_ab(), schedule()),
    ]
}
