//! Crash recovery (§5.3): restart from the write-ahead log, peer catch-up
//! state transfer, and resubmission of mid-commit transactions.

use std::collections::{BTreeMap, BTreeSet};

use gdur_gc::GroupComm;
use gdur_net::SiteId;
use gdur_obs::labels;
use gdur_sim::{Context, ProcessId};
use gdur_store::{Key, TxId, Value};
use gdur_versioning::VersionVec;

use super::{trace_tx, CoordTxn, Replica, TerminatedSet, Timer};
use crate::messages::{CatchupInstall, Msg};
use crate::txn::{ReadEntry, Snapshot, WriteEntry};

/// Install records per catch-up reply page.
const CATCHUP_PAGE: u32 = 256;

/// One peer's slice of an in-flight catch-up transfer.
#[derive(Debug)]
struct CatchupPeer {
    /// Locally hosted partitions this peer serves.
    partitions: Vec<u32>,
    /// Resume index into the peer's log.
    from: u64,
    /// Rotation counter over candidate serving sites.
    attempt: usize,
    /// Outstanding retry timer (tag, kernel id).
    timer: Option<(u64, u64)>,
}

/// Catch-up progress of a restarted replica (§5.3 state transfer).
#[derive(Debug)]
pub(super) struct CatchupState {
    /// Peers still owing pages, with the partitions each one serves.
    pending: BTreeMap<ProcessId, CatchupPeer>,
    /// Install records adopted so far.
    applied: u64,
}

impl Replica {
    /// True while a catch-up transfer is rebuilding the store. Reads defer,
    /// votes park, and the termination queue does not drain until the
    /// transfer completes: acting on a stale store would mint per-key
    /// sequences (and votes) that diverge from the rest of the partition.
    pub(super) fn recovering(&self) -> bool {
        self.catchup.is_some()
    }

    /// Rebuilds the replica after a scheduled kernel restart (§5.3).
    ///
    /// The durable state is the initial load plus the write-ahead log;
    /// everything else — mailbox, timers, in-memory protocol state — died
    /// with the crash. Recovery replays committed installs into a fresh
    /// store, re-derives the visibility frontier from their stamps, marks
    /// logged decisions as terminated, rebuilds the coordinator entry of
    /// every `Submit` without a matching `Decision` (a mid-commit crash),
    /// and then starts the peer catch-up transfer. Retransmission of the
    /// rebuilt terminations waits for `finish_catchup`, so the self-
    /// delivered vote certifies against a current store.
    pub fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(wal) = self.wal.take() else {
            // No persistence attached: the legacy state-retained restart
            // (tests/failures.rs) keeps the pre-crash in-memory state.
            return;
        };
        self.stats.recoveries += 1;
        // Re-open the log from its durable byte image — recovery must not
        // depend on the in-memory `Wal` value that died with the process.
        let wal = gdur_persist::Wal::from_image(wal.as_bytes());
        self.coord.clear();
        self.part.clear();
        self.votes.clear();
        self.q.clear();
        self.conflicts = Default::default();
        self.early_decide.clear();
        self.timers.clear();
        self.suspected.clear();
        self.done = TerminatedSet::default();
        self.decided_outcomes.clear();
        self.meta.clear();
        self.resolved_ahead.clear();
        self.catchup = None;
        self.gc = GroupComm::new(self.me, self.cfg.replica_pids.clone());
        // The fresh AB-Cast engine would otherwise wait forever on the
        // delivery gap that died with the crash; the skipped sequences are
        // recovered through WAL replay and peer catch-up instead.
        self.gc.rejoin();
        let mut store = super::seeded_store(&self.cfg, self.seeds.iter().cloned());
        let mut knowledge =
            VersionVec::zero(super::stamp_dim(&self.cfg).max(self.cfg.placement.partitions()));
        // Scalar-timestamp mechanisms carry no vector in their stamps; the
        // frontier there counts one bump per (partition, writer), mirroring
        // the live path's bump-once-per-transaction-per-partition.
        let mut ts_bumps: BTreeSet<(u32, TxId)> = BTreeSet::new();
        type SubmitReplay = (TxId, Vec<(Key, u64)>, Vec<(Key, u64, Value)>, Vec<u64>);
        let mut submits: Vec<SubmitReplay> = Vec::new();
        let mut replayed: u64 = 0;
        for rec in wal.scan() {
            ctx.consume(self.cfg.costs.per_log_append);
            match rec {
                gdur_persist::LogRecord::Install {
                    key,
                    seq: _,
                    stamp,
                    writer,
                    value,
                } => {
                    match stamp.as_vec() {
                        Some(vec) if vec.dim() == knowledge.dim() => knowledge.merge(vec),
                        _ => {
                            ts_bumps.insert((self.cfg.placement.partition_of(key).0, writer));
                        }
                    }
                    store.install(key, value, stamp, writer);
                    replayed += 1;
                }
                gdur_persist::LogRecord::Decision { tx, commit } => {
                    self.done.insert(tx);
                    self.decided_outcomes.insert(tx, commit);
                }
                gdur_persist::LogRecord::Submit { tx, rs, ws, dep } => {
                    submits.push((tx, rs, ws, dep));
                }
                gdur_persist::LogRecord::Checkpoint => {}
            }
        }
        for (p, _) in &ts_bumps {
            let p = *p as usize;
            knowledge.set(p, knowledge.get(p) + 1);
        }
        self.store = store;
        self.knowledge = knowledge;
        self.reserved = self.knowledge.clone();
        if !self.commit.votes() {
            // Serrano's replicated version table covers *all* objects and
            // advances on every certified commit; the local store (which
            // holds only local partitions) is the best durable
            // approximation.
            for k in self.store.keys().collect::<Vec<_>>() {
                if let Some(s) = self.store.latest_seq(k) {
                    if s > 0 {
                        self.meta.insert(k, s);
                    }
                }
            }
        }
        ctx.trace(labels::RECOVERY_REPLAY, 0, replayed);
        self.wal = Some(wal);
        // Mid-commit coordinated transactions: rebuild the coordinator
        // entry and the termination payload; the multicast itself is
        // deferred to `finish_catchup`.
        for (tx, rs, ws, dep) in submits {
            if self.decided_outcomes.contains_key(&tx) {
                continue;
            }
            let mut t = CoordTxn {
                rs: rs
                    .into_iter()
                    .map(|(key, seq)| ReadEntry { key, seq })
                    .collect(),
                ws: ws
                    .into_iter()
                    .map(|(key, base_seq, value)| WriteEntry {
                        key,
                        value,
                        base_seq,
                    })
                    .collect(),
                submitted_at: ctx.now(),
                ..CoordTxn::new(ProcessId(tx.coord), Snapshot::unconstrained())
            };
            t.certifying = self.certifying_keys(&t);
            t.submitted_payload = Some(t.payload(tx, self.me, VersionVec::from_entries(dep)));
            self.coord.insert(tx, t);
        }
        self.start_catchup(ctx);
    }

    /// Starts the peer state transfer: one request stream per peer, each
    /// covering the local partitions that peer also hosts. Partitions with
    /// no second replica cannot be caught up (their committed-but-unlogged
    /// tail is unrecoverable); the WAL replay is all they get.
    fn start_catchup(&mut self, ctx: &mut Context<'_, Msg>) {
        let mut pending: BTreeMap<ProcessId, CatchupPeer> = BTreeMap::new();
        for p in self.cfg.placement.partitions_at(self.cfg.site) {
            let Some(peer) = self
                .cfg
                .placement
                .replicas(p)
                .iter()
                .copied()
                .find(|s| *s != self.cfg.site)
            else {
                continue;
            };
            pending
                .entry(self.pid_of_site(peer))
                .or_insert_with(|| CatchupPeer {
                    partitions: Vec::new(),
                    from: 0,
                    attempt: 0,
                    timer: None,
                })
                .partitions
                .push(p.0);
        }
        let peers: Vec<ProcessId> = pending.keys().copied().collect();
        self.catchup = Some(CatchupState {
            pending,
            applied: 0,
        });
        if peers.is_empty() {
            self.finish_catchup(ctx);
            return;
        }
        for peer in peers {
            self.send_catchup_req(ctx, peer);
        }
    }

    /// Sends (or re-sends) the next catch-up page request to `peer` and
    /// arms the retry timer that rotates to another replica if the peer
    /// stays silent.
    fn send_catchup_req(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcessId) {
        let Some((partitions, from)) = self
            .catchup
            .as_ref()
            .and_then(|cu| cu.pending.get(&peer))
            .map(|p| (p.partitions.clone(), p.from))
        else {
            return;
        };
        let timer = self.arm(
            ctx,
            self.cfg.read_timeout.saturating_mul(4),
            Timer::Catchup(peer),
        );
        if let Some(p) = self
            .catchup
            .as_mut()
            .and_then(|cu| cu.pending.get_mut(&peer))
        {
            p.timer = Some(timer);
        }
        ctx.trace(labels::RECOVERY_CATCHUP_REQ, 0, partitions.len() as u64);
        ctx.send(
            peer,
            Msg::CatchupReq {
                partitions,
                from,
                max: CATCHUP_PAGE,
            },
        );
    }

    /// Catch-up retry: the peer did not answer within the timeout. Suspect
    /// it and rotate its partitions to another replica, restarting that
    /// stream from record zero (pages are idempotent, so overlap is safe).
    pub(super) fn retry_catchup(&mut self, ctx: &mut Context<'_, Msg>, peer: ProcessId) {
        let Some(mut entry) = self
            .catchup
            .as_mut()
            .and_then(|cu| cu.pending.remove(&peer))
        else {
            return;
        };
        if let Some(site) = self.try_site_of_pid(peer) {
            self.suspected.insert(site);
        }
        entry.attempt += 1;
        entry.timer = None;
        // Candidate replicas for this stream's partitions, preferring
        // unsuspected ones, before giving up.
        let mut sites: Vec<SiteId> = Vec::new();
        for p in &entry.partitions {
            for s in self.cfg.placement.replicas(gdur_store::PartitionId(*p)) {
                if *s != self.cfg.site && !sites.contains(s) {
                    sites.push(*s);
                }
            }
        }
        let pool = self.unsuspected_or_all(&sites);
        if pool.is_empty() {
            if self
                .catchup
                .as_ref()
                .is_some_and(|cu| cu.pending.is_empty())
            {
                self.finish_catchup(ctx);
            }
            return;
        }
        let target = self.pid_of_site(pool[entry.attempt % pool.len()]);
        if target != peer {
            entry.from = 0;
        }
        match self
            .catchup
            .as_mut()
            .expect("recovering")
            .pending
            .entry(target)
        {
            std::collections::btree_map::Entry::Occupied(mut o) => {
                // The target already serves another stream: merge the
                // partitions in and restart the combined stream.
                let merged = o.get_mut();
                for p in entry.partitions {
                    if !merged.partitions.contains(&p) {
                        merged.partitions.push(p);
                    }
                }
                merged.from = 0;
            }
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry);
                self.send_catchup_req(ctx, target);
            }
        }
    }

    /// Serves one page of catch-up state from this replica's own log:
    /// install records of the requested partitions plus every decision
    /// (decisions are cheap and close the requester's parked
    /// terminations).
    pub(super) fn on_catchup_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        partitions: Vec<u32>,
        start: u64,
        max: u32,
    ) {
        ctx.consume(self.cfg.costs.per_message);
        let records = self.wal.as_ref().map(|wal| wal.scan()).unwrap_or_default();
        let mut installs = Vec::new();
        let mut decisions = Vec::new();
        let mut idx = start as usize;
        while idx < records.len() && installs.len() + decisions.len() < max as usize {
            match &records[idx] {
                gdur_persist::LogRecord::Install {
                    key,
                    seq,
                    stamp,
                    writer,
                    value,
                } if partitions.contains(&self.cfg.placement.partition_of(*key).0) => {
                    installs.push(CatchupInstall {
                        key: *key,
                        seq: *seq,
                        stamp: stamp.clone(),
                        writer: *writer,
                        value: value.clone(),
                    });
                }
                gdur_persist::LogRecord::Decision { tx, commit } => {
                    decisions.push((*tx, *commit));
                }
                _ => {}
            }
            idx += 1;
        }
        ctx.consume(
            self.cfg
                .costs
                .per_log_append
                .saturating_mul((installs.len() + decisions.len()) as u64),
        );
        let next = (idx < records.len()).then_some(idx as u64);
        let frontier = if next.is_none() {
            partitions
                .iter()
                .map(|p| (*p, self.knowledge.get(*p as usize)))
                .collect()
        } else {
            Vec::new()
        };
        ctx.send(
            from,
            Msg::CatchupRep {
                installs,
                decisions,
                next,
                frontier,
            },
        );
    }

    /// Applies one page of catch-up state: installs in log order (only at
    /// the exact next per-key sequence, which makes overlapping pages
    /// idempotent), then decisions, then either requests the next page or
    /// adopts the peer's frontier and finishes this stream.
    pub(super) fn on_catchup_rep(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        installs: Vec<CatchupInstall>,
        decisions: Vec<(TxId, bool)>,
        next: Option<u64>,
        frontier: Vec<(u32, u64)>,
    ) {
        ctx.consume(self.cfg.costs.per_message);
        if !self
            .catchup
            .as_ref()
            .is_some_and(|cu| cu.pending.contains_key(&from))
        {
            // A stale page: the stream was rotated to another peer (or
            // catch-up already finished).
            return;
        }
        let mut applied: u64 = 0;
        for inst in installs {
            if !self.is_local(inst.key) {
                continue;
            }
            let expected = self.store.latest_seq(inst.key).map(|s| s + 1).unwrap_or(0);
            if inst.seq != expected {
                continue;
            }
            ctx.consume(self.cfg.costs.per_apply);
            let seq = self.store.install(
                inst.key,
                inst.value.clone(),
                inst.stamp.clone(),
                inst.writer,
            );
            self.stats.catchup_installs += 1;
            applied += 1;
            self.log_install(ctx, inst.key, seq, inst.stamp, inst.writer, inst.value);
        }
        for (tx, commit) in decisions {
            if self.wal.is_some() {
                self.decided_outcomes.entry(tx).or_insert(commit);
            }
            if self.coord.get(&tx).is_some_and(|t| t.decided.is_none()) {
                // One of our own mid-commit transactions already terminated
                // cluster-wide before the crash: close it without
                // retransmitting.
                self.finish_coord(ctx, tx, commit, None);
            } else {
                self.done.insert(tx);
            }
        }
        let cu = self.catchup.as_mut().expect("recovering");
        cu.applied += applied;
        ctx.trace(labels::RECOVERY_CATCHUP_APPLY, 0, applied);
        let peer = cu.pending.get_mut(&from).expect("checked on entry");
        if let Some((tag, id)) = peer.timer.take() {
            ctx.cancel_timer(id);
            self.timers.remove(&tag);
        }
        if let Some(nxt) = next {
            peer.from = nxt;
            self.send_catchup_req(ctx, from);
            return;
        }
        cu.pending.remove(&from);
        let finished = cu.pending.is_empty();
        // Adopt the peer's visibility frontier: the transferred installs are
        // now locally visible.
        for (p, s) in frontier {
            let p = p as usize;
            if p < self.knowledge.dim() && self.knowledge.get(p) < s {
                self.knowledge.set(p, s);
            }
            if p < self.reserved.dim() && self.reserved.get(p) < s {
                self.reserved.set(p, s);
            }
        }
        if finished {
            self.finish_catchup(ctx);
        }
    }

    /// Catch-up complete: resume §5.3 retransmission for the rebuilt
    /// mid-commit transactions, cast the votes parked during the transfer,
    /// and drain the termination queue.
    fn finish_catchup(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(cu) = self.catchup.take() else {
            return;
        };
        ctx.trace(labels::RECOVERY_COMPLETE, 0, cu.applied);
        let resume: Vec<TxId> = self
            .coord
            .iter()
            .filter(|(_, t)| t.decided.is_none() && t.submitted_payload.is_some())
            .map(|(tx, _)| *tx)
            .collect();
        for tx in resume {
            self.stats.resubmissions += 1;
            let t = self.coord.get(&tx).expect("present");
            let payload = t.submitted_payload.clone().expect("payload kept");
            let certifying = t.certifying.clone();
            trace_tx(ctx, labels::RECOVERY_RESUBMIT, tx, certifying.len() as u64);
            self.arm_vote_timeout(ctx, tx);
            // Retransmit through the protocol's own propagation primitive;
            // 2PC/Paxos keep retrying as on the live path.
            if self.commit.retransmits() {
                self.arm_term_retry(ctx, tx);
            }
            self.xcast_payload(ctx, &certifying, payload);
        }
        self.cast_deferred_votes(ctx);
        self.process_queue(ctx);
    }

    /// Votes parked while recovering, cast now against the caught-up
    /// store; parked decided 2PC/Paxos terminations complete too.
    fn cast_deferred_votes(&mut self, ctx: &mut Context<'_, Msg>) {
        let unvoted: Vec<TxId> = self
            .part
            .iter()
            .filter(|(_, p)| p.my_vote.is_none() && p.outcome.is_none() && p.blocked_by == 0)
            .map(|(tx, _)| *tx)
            .collect();
        let ordered = self.commit.ordered();
        for tx in unvoted {
            let preempt = !ordered && {
                let p = self.part.get(&tx).expect("present");
                !self
                    .conflicts
                    .conflicting(&p.payload, self.cfg.spec.commute)
                    .is_empty()
            };
            self.vote(ctx, tx, preempt);
        }
        if !ordered {
            let parked: Vec<TxId> = self
                .part
                .iter()
                .filter(|(_, p)| p.outcome.is_some())
                .map(|(tx, _)| *tx)
                .collect();
            for tx in parked {
                self.terminate(ctx, tx);
            }
        }
    }
}
