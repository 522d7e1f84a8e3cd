//! Deployment assembly: builds a simulated geo-replicated cluster —
//! replicas, clients, topology, placement, seeded data — from a
//! [`ProtocolSpec`] and a client-workload factory.
//!
//! This mirrors the paper's experimental setup (§8.1): one replica per
//! site, client machines colocated per site driving closed-loop load, and a
//! disaster-prone or disaster-tolerant placement.

use gdur_net::{GeoLatency, SiteId, Topology};
use gdur_sim::{Cores, ProcessId, SimDuration, SimTime, Simulation};
use gdur_store::{Key, Placement, Value};

use crate::client::{Client, TxnRecord};
use crate::node::Node;
use crate::pool::{ClientPool, PoolCounts};
use crate::replica::{Replica, ReplicaConfig, ReplicaStats};
use crate::spec::{CostModel, ProtocolSpec};
use crate::txn::TxSource;

/// Configuration of a simulated deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The realized protocol under test.
    pub spec: ProtocolSpec,
    /// Data placement (also fixes the number of sites and partitions).
    pub placement: Placement,
    /// Keys per partition (the paper uses 10⁵ objects per replica).
    pub keys_per_partition: u64,
    /// Seed/after-value payload size in bytes (the paper uses 1 KB).
    pub value_size: usize,
    /// Closed-loop client threads per site.
    pub clients_per_site: usize,
    /// Optional bound on transactions per client (for run-to-idle tests).
    pub max_txns_per_client: Option<u64>,
    /// CPU model of the replicas.
    pub costs: CostModel,
    /// Cores per replica machine (the paper uses 4-core machines).
    pub cores_per_replica: u16,
    /// Record history for consistency checking (costs memory).
    pub record_history: bool,
    /// Attach the durable write-ahead log to every replica.
    pub persistence: bool,
    /// Abort submitted transactions undecided after this bound (`None` =
    /// wait forever, the crash-free default).
    pub vote_timeout: Option<SimDuration>,
    /// Abort after this many read-failover attempts (`None` = retry
    /// forever, the default).
    pub max_read_attempts: Option<usize>,
    /// Clients abandon operations unanswered after this bound (`None` =
    /// wait forever). Keeps closed-loop clients alive across coordinator
    /// crashes in fault-injection runs.
    pub client_op_timeout: Option<SimDuration>,
    /// Aggregate each site's clients into one [`crate::ClientPool`] actor
    /// instead of one actor per client. Off by default: per-client actors
    /// remain the reference configuration (and the one all goldens are
    /// blessed against); pools are the opt-in scale axis for sweeps beyond
    /// ~10³ clients per site.
    pub client_pooling: bool,
    /// Closed-loop think time between transactions (pooled clients only;
    /// also staggers initial begins across one interval). `None` =
    /// back-to-back, matching per-client actors.
    pub client_think_time: Option<SimDuration>,
    /// Collect per-transaction [`TxnRecord`]s (on by default). Mega-scale
    /// pooled sweeps turn this off and read aggregate pool counts instead,
    /// so memory stays bounded by client state, not by transaction count.
    pub record_txn_metrics: bool,
    /// RNG seed for the whole deployment.
    pub seed: u64,
    /// **Model-checker regression knob — never set in real runs.** Plumbed
    /// to [`ReplicaConfig::bug_unreserved_commit_clocks`]: re-introduces
    /// the pre-fix Walter PSI fractured-read bug so `gdur-mc` can prove it
    /// finds it.
    #[doc(hidden)]
    pub bug_unreserved_commit_clocks: bool,
}

impl ClusterConfig {
    /// A small, fast configuration for tests and examples: `sites` sites in
    /// disaster-prone placement, 1000 keys per partition, 64-byte values.
    pub fn small(spec: ProtocolSpec, sites: usize) -> Self {
        ClusterConfig {
            spec,
            placement: Placement::disaster_prone(sites),
            keys_per_partition: 1000,
            value_size: 64,
            clients_per_site: 1,
            max_txns_per_client: Some(20),
            costs: CostModel::default(),
            cores_per_replica: 4,
            record_history: true,
            persistence: false,
            vote_timeout: None,
            max_read_attempts: None,
            client_op_timeout: None,
            client_pooling: false,
            client_think_time: None,
            record_txn_metrics: true,
            seed: 42,
            bug_unreserved_commit_clocks: false,
        }
    }
}

/// A built deployment ready to run.
pub struct Cluster {
    sim: Simulation<Node, GeoLatency>,
    replica_pids: Vec<ProcessId>,
    client_pids: Vec<ProcessId>,
    placement: Placement,
}

impl Cluster {
    /// Builds the deployment. `make_source` is invoked once per client with
    /// `(global client index, site)` and returns that client's workload.
    pub fn build(
        cfg: ClusterConfig,
        mut make_source: impl FnMut(usize, SiteId) -> Box<dyn TxSource + Send>,
    ) -> Cluster {
        let sites = cfg.placement.sites();
        assert!(sites >= 1, "need at least one site");
        assert!(
            sites <= u16::MAX as usize,
            "{sites} sites overflow the u16 SiteId space"
        );
        if cfg.client_pooling {
            assert!(
                cfg.clients_per_site <= gdur_obs::MAX_POOL_CLIENTS as usize,
                "clients_per_site={} exceeds the per-pool maximum of {} \
                 (20-bit pooled client-index space)",
                cfg.clients_per_site,
                gdur_obs::MAX_POOL_CLIENTS
            );
        }
        // Fail fast on a misassembled protocol: every deployment, whether
        // built by the harness, a test, or an example, passes the static
        // spec linter before a single message is simulated.
        cfg.spec.validate_strict(&cfg.placement);
        let mut topo = Topology::grid5000(sites);
        // Replicas first (pids 0..sites), then clients — one topology slot
        // per client actor, or one per site when pooling (the pool is the
        // site's single client process).
        for s in 0..sites {
            topo.place(SiteId(s as u16));
        }
        for s in 0..sites {
            let slots = if cfg.client_pooling {
                1
            } else {
                cfg.clients_per_site
            };
            for _ in 0..slots {
                topo.place(SiteId(s as u16));
            }
        }
        let replica_pids: Vec<ProcessId> = (0..sites).map(|s| ProcessId(s as u32)).collect();

        let geo = GeoLatency::new(topo.clone());
        let mut sim = Simulation::new(geo, cfg.seed);

        let partitions = cfg.placement.partitions();
        let total_keys = cfg.keys_per_partition * partitions as u64;
        let proto_value = Value::of_size(cfg.value_size);

        for s in 0..sites {
            let site = SiteId(s as u16);
            // Nearest replica site per partition, from this site's view.
            let read_target: Vec<SiteId> = (0..partitions)
                .map(|p| {
                    let part = gdur_store::PartitionId(p as u32);
                    *cfg.placement
                        .replicas(part)
                        .iter()
                        .min_by_key(|r| topo.base_latency(site, **r))
                        .expect("partitions have replicas")
                })
                .collect();
            let rcfg = ReplicaConfig {
                site,
                spec: cfg.spec.clone(),
                placement: cfg.placement.clone(),
                replica_pids: replica_pids.clone(),
                read_target,
                costs: cfg.costs,
                read_timeout: SimDuration::from_millis(250),
                vote_timeout: cfg.vote_timeout,
                max_read_attempts: cfg.max_read_attempts,
                persistence: cfg.persistence,
                record_history: cfg.record_history,
                bug_unreserved_commit_clocks: cfg.bug_unreserved_commit_clocks,
            };
            let seed_keys: Vec<(Key, Value)> = (0..total_keys)
                .map(Key)
                .filter(|k| cfg.placement.is_local(site, *k))
                .map(|k| (k, proto_value.clone()))
                .collect();
            let pid = sim.spawn(
                Node::Replica(Replica::new(ProcessId(s as u32), rcfg, seed_keys)),
                Cores::Fixed(cfg.cores_per_replica),
            );
            debug_assert_eq!(pid, replica_pids[s]);
        }

        let mut client_pids = Vec::new();
        let mut client_idx = 0usize;
        for (s, &coordinator) in replica_pids.iter().enumerate() {
            let site = SiteId(s as u16);
            if cfg.client_pooling {
                // One aggregated actor per site; each slot keeps the exact
                // per-client seed formula so pooled and per-client runs
                // draw identical workload streams.
                let mut pool = ClientPool::new(coordinator, cfg.value_size)
                    .with_txn_records(cfg.record_txn_metrics);
                if let Some(max) = cfg.max_txns_per_client {
                    pool = pool.with_max_txns(max);
                }
                if let Some(t) = cfg.client_op_timeout {
                    pool = pool.with_op_timeout(t);
                }
                if let Some(t) = cfg.client_think_time {
                    pool = pool.with_think_time(t);
                }
                for _ in 0..cfg.clients_per_site {
                    let source = make_source(client_idx, site);
                    pool.add_client(source, cfg.seed ^ (0x9e37_79b9 + client_idx as u64));
                    client_idx += 1;
                }
                client_pids.push(sim.spawn(Node::Pool(pool), Cores::Unlimited));
            } else {
                for _ in 0..cfg.clients_per_site {
                    let source = make_source(client_idx, site);
                    let mut client = Client::new(
                        coordinator,
                        source,
                        cfg.value_size,
                        cfg.seed ^ (0x9e37_79b9 + client_idx as u64),
                    );
                    if let Some(max) = cfg.max_txns_per_client {
                        client = client.with_max_txns(max);
                    }
                    if let Some(t) = cfg.client_op_timeout {
                        client = client.with_op_timeout(t);
                    }
                    client_pids.push(sim.spawn(Node::Client(client), Cores::Unlimited));
                    client_idx += 1;
                }
            }
        }

        Cluster {
            sim,
            replica_pids,
            client_pids,
            placement: cfg.placement,
        }
    }

    /// Runs for `dur` of virtual time.
    pub fn run_for(&mut self, dur: SimDuration) -> SimTime {
        let until = self.sim.now() + dur;
        self.sim.run_until(until)
    }

    /// Runs until no events remain (requires bounded clients).
    pub fn run_until_idle(&mut self) -> SimTime {
        self.sim.run_until_idle()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The underlying simulation (e.g. for crash injection).
    pub fn sim_mut(&mut self) -> &mut Simulation<Node, GeoLatency> {
        &mut self.sim
    }

    /// Attaches an observability sink; every subsequent event of the run is
    /// recorded through it. Tracing never consumes virtual time or
    /// randomness, so attaching a sink cannot perturb the simulation.
    pub fn attach_obs(&mut self, sink: Box<dyn gdur_sim::ObsSink>) {
        self.sim.attach_obs(sink);
    }

    /// The inter-site topology of the deployment (for WAN/LAN accounting).
    pub fn topology(&self) -> &Topology {
        self.sim.latency_model().topology()
    }

    /// Read access to the underlying simulation.
    pub fn sim(&self) -> &Simulation<Node, GeoLatency> {
        &self.sim
    }

    /// Handle for injecting and healing inter-site network partitions.
    pub fn partition_control(&self) -> gdur_net::PartitionControl {
        self.sim.latency_model().partition_control()
    }

    /// Replica process ids, indexed by site.
    pub fn replica_pids(&self) -> &[ProcessId] {
        &self.replica_pids
    }

    /// Client process ids.
    pub fn client_pids(&self) -> &[ProcessId] {
        &self.client_pids
    }

    /// The placement in effect.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The replica at `site`.
    pub fn replica(&self, site: SiteId) -> &Replica {
        self.sim
            .actor(self.replica_pids[site.index()])
            .as_replica()
            .expect("replica pid")
    }

    /// All finished-transaction records across clients — per-client actors
    /// and pooled clients alike (empty for pools built with
    /// `record_txn_metrics: false`).
    pub fn records(&self) -> Vec<TxnRecord> {
        let mut out = Vec::new();
        for pid in &self.client_pids {
            let node = self.sim.actor(*pid);
            if let Some(c) = node.as_client() {
                out.extend_from_slice(c.records());
            } else if let Some(p) = node.as_pool() {
                out.extend_from_slice(p.records());
            }
        }
        out
    }

    /// The client pool at `site`, if the deployment was built with
    /// `client_pooling`.
    pub fn pool(&self, site: SiteId) -> Option<&ClientPool> {
        self.client_pids
            .get(site.index())
            .and_then(|pid| self.sim.actor(*pid).as_pool())
    }

    /// Summed aggregate pool counters across sites (all zeros when the
    /// deployment uses per-client actors).
    pub fn pool_counts(&self) -> PoolCounts {
        let mut total = PoolCounts::default();
        for pid in &self.client_pids {
            if let Some(p) = self.sim.actor(*pid).as_pool() {
                let c = p.counts();
                total.issued += c.issued;
                total.committed += c.committed;
                total.aborted += c.aborted;
                for (t, v) in total.aborted_by_cause.iter_mut().zip(c.aborted_by_cause) {
                    *t += v;
                }
                total.total_latency_nanos = total
                    .total_latency_nanos
                    .saturating_add(c.total_latency_nanos);
            }
        }
        total
    }

    /// Summed replica statistics.
    pub fn replica_stats(&self) -> ReplicaStats {
        let mut total = ReplicaStats::default();
        for pid in &self.replica_pids {
            let s = self.sim.actor(*pid).as_replica().expect("replica").stats();
            total.coordinated += s.coordinated;
            total.committed += s.committed;
            total.aborted += s.aborted;
            total.votes_cast += s.votes_cast;
            total.preemptive_aborts += s.preemptive_aborts;
            total.certifications += s.certifications;
            total.remote_reads_served += s.remote_reads_served;
            total.applies += s.applies;
            total.propagates_sent += s.propagates_sent;
            total.aborted_cert_conflict += s.aborted_cert_conflict;
            total.aborted_vote_timeout += s.aborted_vote_timeout;
            total.aborted_read_impossible += s.aborted_read_impossible;
            total.aborted_crash += s.aborted_crash;
            total.recoveries += s.recoveries;
            total.resubmissions += s.resubmissions;
            total.catchup_installs += s.catchup_installs;
        }
        total
    }
}
