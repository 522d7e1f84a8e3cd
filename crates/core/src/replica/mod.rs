//! The G-DUR replica: one actor running the generic *execution* protocol
//! (Algorithm 1), the generic *termination* protocol (Algorithm 2), and the
//! pluggable atomic-commitment algorithms — group communication with
//! distributed voting (Algorithm 3), two-phase commit (Algorithm 4), Paxos
//! Commit (§5), and Serrano's vote-free local decision.
//!
//! All realization points are read from the [`ProtocolSpec`]. The four
//! commitment realizations are one closed enum in `commit.rs`, derived once
//! from the spec; it is the only code that reads `spec.commitment` and
//! `spec.votes`. The other modules follow the paper's split:
//!
//! * `execution.rs` — Algorithm 1: snapshots, version choice, remote reads
//!   and their failover.
//! * `termination.rs` — Algorithm 2: submit, delivery, certification,
//!   voting, decision, the termination queue `Q`, clock reservations and
//!   apply.
//! * `conflict.rs` — the conflict index over queued transactions.
//! * `recovery.rs` — §5.3 restart, catch-up and resubmission.

mod commit;
mod conflict;
mod execution;
mod recovery;
mod termination;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gdur_gc::GroupComm;
use gdur_net::SiteId;
use gdur_obs::AbortCause;
use gdur_sim::{Context, ProcessId, SimDuration, SimTime};
use gdur_store::{Key, MultiVersionStore, Placement, TxId, Value};
use gdur_versioning::{Mechanism, Stamp, VersionVec};

use crate::messages::{Msg, TermPayload};
use crate::spec::{CostModel, ProtocolSpec};
use crate::txn::{ReadEntry, Snapshot, WriteEntry};

use commit::Commit;
use conflict::ConflictIndex;
use recovery::CatchupState;

/// Static configuration of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's site.
    pub site: SiteId,
    /// The realized protocol.
    pub spec: ProtocolSpec,
    /// Data placement.
    pub placement: Placement,
    /// Process id of the replica at each site (indexed by site id).
    pub replica_pids: Vec<ProcessId>,
    /// For each partition, the preferred (nearest) site to read from.
    pub read_target: Vec<SiteId>,
    /// CPU service-time model.
    pub costs: CostModel,
    /// Remote reads unanswered for this long are re-iterated to another
    /// replica (Algorithm 1's failover, "not covered" in the paper's
    /// pseudo-code but described in §4).
    pub read_timeout: SimDuration,
    /// Abort a submitted transaction whose votes have not produced a
    /// decision within this bound (`None` = wait forever, the paper's
    /// crash-free behaviour).
    pub vote_timeout: Option<SimDuration>,
    /// Give up on a read after this many failover attempts and abort the
    /// transaction (`None` = re-iterate forever).
    pub max_read_attempts: Option<usize>,
    /// Attach the durable write-ahead log (§5.3 crash-recovery model);
    /// the paper's experiments, like our performance runs, leave it off.
    pub persistence: bool,
    /// Record install/outcome events for consistency checking.
    pub record_history: bool,
    /// **Model-checker regression knob — never set in real runs.** Forces
    /// the legacy bump-at-install commit clocks even for vote-clocked
    /// protocols, re-introducing the Walter PSI fractured-read bug (one
    /// transaction's installs stamped independently per site) that the
    /// vote-time clock-reservation fix removed. `gdur-mc` uses it to prove
    /// the explorer finds that bug; see `gdur-analysis`.
    #[doc(hidden)]
    pub bug_unreserved_commit_clocks: bool,
}

/// An after-value installation, recorded for consistency checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallEvent {
    /// Key written.
    pub key: Key,
    /// Per-key sequence of the installed version.
    pub seq: u64,
    /// Writing transaction.
    pub tx: TxId,
    /// Virtual instant of installation.
    pub at: SimTime,
}

/// A terminated transaction, recorded at its coordinator.
#[derive(Debug, Clone)]
pub struct TxnOutcomeRecord {
    /// The transaction.
    pub tx: TxId,
    /// True if it committed.
    pub committed: bool,
    /// True if it wrote nothing.
    pub read_only: bool,
    /// Read set with observed versions.
    pub rs: Vec<ReadEntry>,
    /// Written keys with base versions.
    pub ws: Vec<(Key, u64)>,
    /// Instant the transaction was submitted for termination.
    pub submitted_at: SimTime,
    /// Instant the decision was taken at the coordinator.
    pub decided_at: SimTime,
}

/// Aggregate counters exposed by a replica after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Transactions this replica coordinated to a decision.
    pub coordinated: u64,
    /// ... of which committed.
    pub committed: u64,
    /// ... of which aborted.
    pub aborted: u64,
    /// Votes this replica cast.
    pub votes_cast: u64,
    /// Negative votes cast preemptively (Algorithm 4, line 3).
    pub preemptive_aborts: u64,
    /// Certification checks run.
    pub certifications: u64,
    /// Remote read requests served.
    pub remote_reads_served: u64,
    /// After-value installations.
    pub applies: u64,
    /// Background propagation messages sent.
    pub propagates_sent: u64,
    /// Coordinated aborts caused by a negative certification vote.
    pub aborted_cert_conflict: u64,
    /// Coordinated aborts caused by the vote timeout expiring.
    pub aborted_vote_timeout: u64,
    /// Coordinated aborts caused by an unserveable read.
    pub aborted_read_impossible: u64,
    /// Coordinated aborts caused by a crash (coordinator-side).
    pub aborted_crash: u64,
    /// Crash–restart recoveries performed (§5.3 WAL replay).
    pub recoveries: u64,
    /// In-flight terminations resumed from `Submit` log records at restart.
    pub resubmissions: u64,
    /// Install records adopted from peers during catch-up state transfer.
    pub catchup_installs: u64,
}

/// Execution-phase state of a transaction at its coordinator.
#[derive(Debug)]
struct CoordTxn {
    client: ProcessId,
    snapshot: Snapshot,
    rs: Vec<ReadEntry>,
    ws: Vec<WriteEntry>,
    /// Outstanding remote read: (key, update-value if this is an RMW,
    /// attempt counter for failover re-iteration).
    pending_read: Option<(Key, Option<Value>, usize)>,
    /// Failover timer of the outstanding read: (tag, kernel timer id).
    read_timer: Option<(u64, u64)>,
    submitted_at: SimTime,
    /// Paxos Commit accept round: the pending decision and its
    /// acceptances, the coordinator's own included.
    paxos: Option<(bool, usize)>,
    /// Keys of `vote_snd_obj` (empty when no synchronization is needed).
    certifying: Vec<Key>,
    /// The termination payload, kept for crash-recovery retransmission.
    submitted_payload: Option<TermPayload>,
    decided: Option<bool>,
}

impl CoordTxn {
    fn new(client: ProcessId, snapshot: Snapshot) -> Self {
        CoordTxn {
            client,
            snapshot,
            rs: Vec::new(),
            ws: Vec::new(),
            pending_read: None,
            read_timer: None,
            submitted_at: SimTime::ZERO,
            paxos: None,
            certifying: Vec::new(),
            submitted_payload: None,
            decided: None,
        }
    }

    /// The termination payload of this transaction, coordinated by `coord`.
    fn payload(&self, tx: TxId, coord: ProcessId, dep: VersionVec) -> TermPayload {
        TermPayload::new(
            tx,
            coord,
            self.ws.is_empty(),
            std::sync::Arc::new(self.rs.clone()),
            std::sync::Arc::new(self.ws.clone()),
            std::sync::Arc::new(dep),
        )
    }
}

/// Termination-phase state of a transaction at a participant.
#[derive(Debug)]
struct PartTxn {
    payload: TermPayload,
    /// The vote this replica cast, for idempotent re-sends on retried
    /// termination (crash-recovery retransmission).
    my_vote: Option<bool>,
    /// Commit-clock slots this replica reserved at vote time for its
    /// locally hosted written partitions; resolved at termination.
    reserved: Vec<(u32, u64)>,
    /// The merged vote clocks of every participant, learned from the
    /// decision (2PC/Paxos) or from the votes themselves (GC mode).
    decided_clocks: Vec<(u32, u64)>,
    outcome: Option<bool>,
    /// Number of conflicting predecessors still in `Q` (GC mode vote
    /// deferral — the convoy effect).
    blocked_by: usize,
}

/// Votes observed for a transaction (participants and coordinators share
/// this view; in GC mode every `vote_recv` replica decides from it).
#[derive(Debug, Default)]
struct VoteState {
    /// Sites that voted yes, kept sorted. A flat vector: the set is bounded
    /// by the site count, so membership scans beat a tree node per insert.
    yes_sites: Vec<SiteId>,
    any_no: bool,
    /// Per-partition commit-clock reservations carried by yes votes,
    /// merged by maximum.
    clocks: Vec<(u32, u64)>,
}

/// What a kernel timer armed by this replica does when it fires.
#[derive(Debug)]
enum Timer {
    /// A remote `ReadReq` (requester, transaction, key, snapshot) parked
    /// until the local visibility frontier catches up with its snapshot.
    RemoteRead(ProcessId, TxId, Key, Snapshot),
    /// A local read at the coordinator (transaction, key, update value),
    /// parked likewise.
    LocalRead(TxId, Key, Option<Value>),
    /// Failover of an outstanding remote read.
    ReadFailover(TxId),
    /// 2PC/Paxos termination retransmission.
    TermRetry(TxId),
    /// Abort of a submitted transaction still undecided.
    VoteTimeout(TxId),
    /// Catch-up page retry to this peer.
    Catchup(ProcessId),
}

/// The replica actor.
#[derive(Debug)]
pub struct Replica {
    cfg: ReplicaConfig,
    me: ProcessId,
    /// The commitment realization, derived once from `cfg.spec`.
    commit: Commit,
    store: MultiVersionStore,
    /// Per-partition commit clocks; authoritative for local partitions,
    /// advanced by `Propagate` messages for remote ones. Under voting
    /// commitment with vector mechanisms this is the *visibility frontier*:
    /// it advances only over contiguously resolved reservations, so no
    /// snapshot built from it can admit a commit whose install is still in
    /// flight somewhere.
    knowledge: VersionVec,
    /// Highest commit-clock slot handed out per local partition at vote
    /// time; always ≥ the corresponding `knowledge` entry.
    reserved: VersionVec,
    /// Reservations resolved (installed or aborted) above the `knowledge`
    /// frontier, waiting for the gap below them to close.
    resolved_ahead: BTreeMap<usize, BTreeSet<u64>>,
    /// Serrano's replicated version table (per-key latest sequence for all
    /// objects), maintained only under `VoteRule::LocalDecide`.
    meta: BTreeMap<Key, u64>,
    gc: GroupComm<TermPayload>,
    coord: BTreeMap<TxId, CoordTxn>,
    part: BTreeMap<TxId, PartTxn>,
    votes: BTreeMap<TxId, VoteState>,
    /// Delivery queue `Q` of Algorithm 2.
    q: VecDeque<TxId>,
    conflicts: ConflictIndex,
    /// Decisions that raced ahead of the ordered delivery of their
    /// transaction (a coordinator can abort on the first negative vote
    /// before slower replicas deliver the payload).
    early_decide: BTreeMap<TxId, (bool, Vec<(u32, u64)>)>,
    /// Participations already terminated here; late votes and duplicate
    /// decisions for them are dropped.
    done: TerminatedSet,
    /// Armed timers by tag. A tag absent here belongs to a cancelled or
    /// pre-crash timer and is ignored when it fires.
    timers: BTreeMap<u64, Timer>,
    next_timer_tag: u64,
    /// Sites suspected crashed (eventually-perfect failure detector
    /// heuristic: suspect after a read timeout, trust again on any
    /// message). Suspected sites are skipped when picking read targets.
    suspected: BTreeSet<SiteId>,
    stats: ReplicaStats,
    installs: Vec<InstallEvent>,
    outcomes: Vec<TxnOutcomeRecord>,
    /// Durable log, when the persistence layer is attached.
    wal: Option<gdur_persist::Wal>,
    /// Initial key set, retained under persistence so a restart can rebuild
    /// the store from seeds + logged installs. Empty when persistence is
    /// off: a crashed replica without a durable log never restarts.
    seeds: std::sync::Arc<Vec<(Key, Value)>>,
    /// Durably decided outcomes, mirroring the log's `Decision` records, so
    /// a retransmitting coordinator can be answered after this replica
    /// already terminated its participation. Maintained only under
    /// persistence.
    decided_outcomes: BTreeMap<TxId, bool>,
    /// In-flight catch-up state transfer, present between a restart and the
    /// `recovery.complete` trace point.
    catchup: Option<CatchupState>,
}

/// The set of transactions that terminated at this replica, compressed per
/// coordinator.
///
/// Every message about a transaction checks this set, and it only ever
/// grows, so a flat `BTreeSet<TxId>` ends up as the deepest tree in the
/// replica. Clients run one transaction at a time, which means each
/// coordinator's sequence numbers (allocated from 1) terminate in order:
/// the set is a dense prefix `1..=watermark` per coordinator plus an
/// (almost always empty) out-of-order tail.
#[derive(Debug, Default)]
struct TerminatedSet {
    per_coord: BTreeMap<u32, CoordDone>,
}

#[derive(Debug, Default)]
struct CoordDone {
    /// Every seq in `1..=watermark` has terminated.
    watermark: u64,
    /// Terminated seqs above the watermark (plus a defensive slot for a
    /// seq-0 id, which real coordinators never allocate).
    sparse: BTreeSet<u64>,
}

impl TerminatedSet {
    fn contains(&self, tx: &TxId) -> bool {
        self.per_coord
            .get(&tx.coord)
            .is_some_and(|d| (tx.seq != 0 && tx.seq <= d.watermark) || d.sparse.contains(&tx.seq))
    }

    fn insert(&mut self, tx: TxId) {
        let d = self.per_coord.entry(tx.coord).or_default();
        if tx.seq != 0 && tx.seq <= d.watermark {
            return;
        }
        d.sparse.insert(tx.seq);
        while d.sparse.remove(&(d.watermark + 1)) {
            d.watermark += 1;
        }
    }
}

/// Emits trace point `label` for transaction `tx`.
fn trace_tx(ctx: &mut Context<'_, Msg>, label: &'static str, tx: TxId, value: u64) {
    ctx.trace(label, gdur_obs::tx_code(tx.coord, tx.seq), value);
}

/// Dimension of the versioning mechanism's vectors under `cfg`.
fn stamp_dim(cfg: &ReplicaConfig) -> usize {
    cfg.spec
        .versioning
        .dim(cfg.replica_pids.len(), cfg.placement.partitions())
}

/// A store holding the initial version of every seeded key.
fn seeded_store(
    cfg: &ReplicaConfig,
    seeds: impl IntoIterator<Item = (Key, Value)>,
) -> MultiVersionStore {
    let dim = stamp_dim(cfg);
    let mut store = MultiVersionStore::new();
    for (k, v) in seeds {
        let stamp = match cfg.spec.versioning {
            Mechanism::Ts => Stamp::Ts(0),
            _ => Stamp::Vec {
                origin: cfg.placement.partition_of(k).0,
                vec: VersionVec::zero(dim),
            },
        };
        store.seed(k, v, stamp);
    }
    store
}

impl Replica {
    /// Creates a replica; `me` must match the process id it will be spawned
    /// at, and `seed_keys` lists the keys of locally hosted partitions with
    /// their initial values.
    pub fn new(me: ProcessId, cfg: ReplicaConfig, seed_keys: Vec<(Key, Value)>) -> Self {
        let clock_dim = stamp_dim(&cfg).max(cfg.placement.partitions());
        // The seed set is the durable "initial load" a restart rebuilds
        // from; without persistence a crashed replica never restarts, so
        // the copy is skipped.
        let seeds = std::sync::Arc::new(if cfg.persistence {
            seed_keys.clone()
        } else {
            Vec::new()
        });
        let store = seeded_store(&cfg, seed_keys);
        Replica {
            commit: Commit::new(&cfg.spec),
            knowledge: VersionVec::zero(clock_dim),
            reserved: VersionVec::zero(clock_dim),
            resolved_ahead: BTreeMap::new(),
            meta: BTreeMap::new(),
            gc: GroupComm::new(me, cfg.replica_pids.clone()),
            coord: BTreeMap::new(),
            part: BTreeMap::new(),
            votes: BTreeMap::new(),
            q: VecDeque::new(),
            conflicts: ConflictIndex::default(),
            early_decide: BTreeMap::new(),
            done: TerminatedSet::default(),
            timers: BTreeMap::new(),
            next_timer_tag: 0,
            suspected: BTreeSet::new(),
            stats: ReplicaStats::default(),
            installs: Vec::new(),
            outcomes: Vec::new(),
            wal: cfg.persistence.then(gdur_persist::Wal::new),
            seeds,
            decided_outcomes: BTreeMap::new(),
            catchup: None,
            store,
            me,
            cfg,
        }
    }

    /// The durable log, if persistence is attached.
    pub fn wal(&self) -> Option<&gdur_persist::Wal> {
        self.wal.as_ref()
    }

    /// Run statistics.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Install events recorded (empty unless `record_history`).
    pub fn installs(&self) -> &[InstallEvent] {
        &self.installs
    }

    /// Coordinator-side outcome records (empty unless `record_history`).
    pub fn outcomes(&self) -> &[TxnOutcomeRecord] {
        &self.outcomes
    }

    /// Direct read access to the local store (used by tests and examples).
    pub fn store(&self) -> &MultiVersionStore {
        &self.store
    }

    /// Current length of the termination queue `Q`.
    pub fn queue_len(&self) -> usize {
        self.q.len()
    }

    fn pid_of_site(&self, s: SiteId) -> ProcessId {
        self.cfg.replica_pids[s.index()]
    }

    /// Site of a replica process, if `pid` is one.
    fn try_site_of_pid(&self, pid: ProcessId) -> Option<SiteId> {
        self.cfg
            .replica_pids
            .iter()
            .position(|p| *p == pid)
            .map(|i| SiteId(i as u16))
    }

    /// `sites` without the suspected ones, or all of them when every one
    /// is suspected (the suspicion may be wrong).
    fn unsuspected_or_all(&self, sites: &[SiteId]) -> Vec<SiteId> {
        let live: Vec<SiteId> = sites
            .iter()
            .copied()
            .filter(|s| !self.suspected.contains(s))
            .collect();
        if live.is_empty() {
            sites.to_vec()
        } else {
            live
        }
    }

    fn sites_of_keys<'a, I: IntoIterator<Item = &'a Key>>(&self, keys: I) -> BTreeSet<SiteId> {
        self.cfg
            .placement
            .replicas_of_keys(keys.into_iter().copied())
    }

    fn is_local(&self, key: Key) -> bool {
        self.cfg.placement.is_local(self.cfg.site, key)
    }

    /// Consumes the CPU cost of (de)serializing `entries` stamp entries.
    fn consume_stamp(&self, ctx: &mut Context<'_, Msg>, entries: usize) {
        ctx.consume(
            self.cfg
                .costs
                .per_stamp_entry
                .saturating_mul(entries as u64),
        );
    }

    /// Arms a kernel timer that runs `timer` after `after`; returns its
    /// (tag, kernel timer id).
    fn arm(&mut self, ctx: &mut Context<'_, Msg>, after: SimDuration, timer: Timer) -> (u64, u64) {
        let tag = self.next_timer_tag;
        self.next_timer_tag += 1;
        self.timers.insert(tag, timer);
        (tag, ctx.set_timer(after, tag))
    }

    /// Runs the timer armed under `tag`, if it is still armed.
    pub fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, tag: u64) {
        let Some(timer) = self.timers.remove(&tag) else {
            return;
        };
        match timer {
            Timer::RemoteRead(from, tx, key, snap) => {
                self.serve_remote_read(ctx, from, tx, key, snap)
            }
            Timer::LocalRead(tx, key, update) => self.start_read(ctx, tx, key, update),
            Timer::ReadFailover(tx) => self.read_failover(ctx, tx),
            Timer::TermRetry(tx) => self.retry_termination(ctx, tx),
            Timer::VoteTimeout(tx) => {
                if self.coord.get(&tx).is_some_and(|t| t.decided.is_none()) {
                    self.decide_and_announce(ctx, tx, false, Some(AbortCause::VoteTimeout));
                }
            }
            Timer::Catchup(peer) => self.retry_catchup(ctx, peer),
        }
    }

    /// Handles every message kind; the entry point wired into the actor.
    pub fn handle(&mut self, ctx: &mut Context<'_, Msg>, from: ProcessId, msg: Msg) {
        // Any message from a suspected site restores trust in it.
        if !self.suspected.is_empty() {
            if let Some(site) = self.try_site_of_pid(from) {
                self.suspected.remove(&site);
            }
        }
        // Size-dependent deserialization cost: after-values and vector
        // metadata both consume CPU proportional to their wire size.
        let kb = gdur_sim::WireSize::wire_size(&msg) as u64;
        ctx.consume(SimDuration::from_nanos(
            self.cfg.costs.per_recv_kb.as_nanos() * kb / 1024,
        ));
        match msg {
            Msg::Client { tx, op } => self.on_client_op(ctx, from, tx, op),
            Msg::Reply { .. } => unreachable!("replicas do not receive client replies"),
            Msg::ReadReq { tx, key, snap } => self.on_read_req(ctx, from, tx, key, snap),
            Msg::ReadRep {
                tx,
                key,
                value,
                seq,
                stamp: _,
                snap,
            } => self.on_read_rep(ctx, tx, key, value, seq, snap),
            Msg::Gc(m) => {
                ctx.consume(self.cfg.costs.per_message);
                let mut out = Vec::new();
                self.gc.on_message(from, m, &mut out);
                self.flush_gc(ctx, out);
            }
            Msg::Vote { tx, yes, clocks } => {
                ctx.consume(self.cfg.costs.per_message);
                let site = self
                    .try_site_of_pid(from)
                    .expect("vote from a non-replica process");
                self.record_vote(ctx, tx, site, yes, clocks);
            }
            Msg::Decide {
                tx, commit, clocks, ..
            } => {
                ctx.consume(self.cfg.costs.per_message);
                // A peer answering a resubmitted termination with the
                // already-fixed outcome: close the coordinator entry so the
                // retransmission loop stops and the client hears back.
                if self.coord.get(&tx).is_some_and(|t| t.decided.is_none()) {
                    self.finish_coord(ctx, tx, commit, None);
                }
                self.on_decide(ctx, tx, commit, clocks);
            }
            Msg::PaxosAccept { tx, commit } => {
                ctx.consume(self.cfg.costs.per_message);
                ctx.send(from, Msg::PaxosAccepted { tx, commit });
            }
            Msg::PaxosAccepted { tx, .. } => {
                ctx.consume(self.cfg.costs.per_message);
                if let Some((_, acks)) = self.coord.get_mut(&tx).and_then(|t| t.paxos.as_mut()) {
                    *acks += 1;
                }
                self.check_paxos_majority(ctx, tx);
            }
            Msg::Propagate { partition, seq } => {
                ctx.consume(self.cfg.costs.per_message);
                let p = partition as usize;
                if self.knowledge.get(p) < seq {
                    self.knowledge.set(p, seq);
                }
            }
            Msg::CatchupReq {
                partitions,
                from: start,
                max,
            } => self.on_catchup_req(ctx, from, partitions, start, max),
            Msg::CatchupRep {
                installs,
                decisions,
                next,
                frontier,
            } => self.on_catchup_rep(ctx, from, installs, decisions, next, frontier),
        }
    }
}
