//! The termination protocol (Algorithm 2): submit, delivery into `Q`,
//! certification, voting, decision, termination, vote-time commit-clock
//! reservations and apply. Every step that differs between commitment
//! realizations asks [`Commit`](super::commit::Commit).

use std::collections::BTreeSet;
use std::sync::Arc;

use gdur_gc::GcEvent;
use gdur_net::SiteId;
use gdur_obs::{labels, vote_value, AbortCause};
use gdur_sim::{Context, ProcessId, SimDuration, SimTime};
use gdur_store::{Key, TxId, Value};
use gdur_versioning::{Mechanism, Stamp};

use super::{
    trace_tx, CoordTxn, InstallEvent, PartTxn, Replica, Timer, TxnOutcomeRecord, VoteState,
};
use crate::messages::{ClientReply, Msg, TermPayload};
use crate::spec::{CertifyRule, CertifyingObjRule, PostCommitRule};

impl Replica {
    /// `certifying_obj(T)` (Algorithm 2, line 11).
    pub(super) fn certifying_keys(&self, t: &CoordTxn) -> Vec<Key> {
        use CertifyingObjRule::*;
        let read_only = t.ws.is_empty();
        let rule = self.cfg.spec.certifying_obj;
        let none = match rule {
            Nothing => true,
            WriteSet | ReadWriteSet => false,
            WriteSetIfUpdate | ReadWriteSetIfUpdate | AllObjects => read_only,
            ReadWriteSetUnlessLocalQuery => read_only && t.rs.iter().all(|e| self.is_local(e.key)),
        };
        if none {
            return Vec::new();
        }
        if matches!(rule, WriteSet | WriteSetIfUpdate) {
            return t.ws.iter().map(|w| w.key).collect();
        }
        // Under `AllObjects` every replica participates; the key list still
        // names the accessed objects for certification.
        let mut keys: Vec<Key> = t.rs.iter().map(|e| e.key).collect();
        for w in &t.ws {
            if !keys.contains(&w.key) {
                keys.push(w.key);
            }
        }
        keys
    }

    /// The replicas a transaction certifying `certifying` is submitted to.
    /// Built as an `Arc` once: every fan-out copy shares it.
    fn certifying_pids(&self, certifying: &[Key]) -> Arc<[ProcessId]> {
        let sites: Vec<SiteId> = if self.cfg.spec.certifying_obj == CertifyingObjRule::AllObjects {
            self.cfg.placement.all_sites().collect()
        } else {
            self.sites_of_keys(certifying).into_iter().collect()
        };
        sites.iter().map(|s| self.pid_of_site(*s)).collect()
    }

    /// Propagates a termination payload to the certifying replicas through
    /// the realization's `xcast`.
    pub(super) fn xcast_payload(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        certifying: &[Key],
        payload: TermPayload,
    ) {
        let dests = self.certifying_pids(certifying);
        let mut out = Vec::new();
        self.gc.xcast(self.commit.xcast(), dests, payload, &mut out);
        self.flush_gc(ctx, out);
    }

    /// Arms the abort of a submitted transaction still undecided after
    /// `cfg.vote_timeout`, if one is configured.
    pub(super) fn arm_vote_timeout(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        if let Some(vt) = self.cfg.vote_timeout {
            self.arm(ctx, vt, Timer::VoteTimeout(tx));
        }
    }

    /// Arms the retransmission of a 2PC/Paxos termination.
    pub(super) fn arm_term_retry(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        self.arm(
            ctx,
            self.cfg.read_timeout.saturating_mul(4),
            Timer::TermRetry(tx),
        );
    }

    /// `submit(T)` (Algorithm 2, line 7): moves the transaction from
    /// `executing` to `submitted` and propagates it via `xcast`.
    pub(super) fn submit(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get_mut(&tx) else {
            return;
        };
        t.submitted_at = ctx.now();
        let certifying = self.certifying_keys(&self.coord[&tx]);
        trace_tx(ctx, labels::TXN_SUBMIT, tx, certifying.len() as u64);
        if certifying.is_empty() {
            // Commit without synchronization (wait-free queries).
            self.finish_coord(ctx, tx, true, None);
            return;
        }
        self.arm_vote_timeout(ctx, tx);
        let t = self.coord.get_mut(&tx).expect("present");
        t.certifying = certifying.clone();
        let payload = t.payload(tx, self.me, t.snapshot.dependency_vec());
        self.consume_stamp(ctx, payload.dep.dim());
        if let Some(wal) = self.wal.as_mut() {
            // §5.3 durable logging: the submitted transaction — sets,
            // after-values, and dependency vector — hits the log before any
            // termination message leaves, so a crashed coordinator can
            // resume retransmission from its log after restart.
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Submit {
                tx,
                rs: payload.rs.iter().map(|e| (e.key, e.seq)).collect(),
                ws: payload
                    .ws
                    .iter()
                    .map(|w| (w.key, w.base_seq, w.value.clone()))
                    .collect(),
                dep: payload.dep.iter().collect(),
            });
        }
        if self.commit.retransmits() {
            self.coord.get_mut(&tx).expect("present").submitted_payload = Some(payload.clone());
            self.arm_term_retry(ctx, tx);
        }
        self.xcast_payload(ctx, &certifying, payload);
    }

    pub(super) fn flush_gc(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        events: Vec<GcEvent<TermPayload>>,
    ) {
        for ev in events {
            match ev {
                GcEvent::Send { to, msg } => {
                    // Send-side marshaling: half the fixed per-message cost
                    // plus size-proportional serialization. Fan-outs (the
                    // AB-Cast sequencer, Skeen proposals) pay per copy.
                    let kb = gdur_sim::WireSize::wire_size(&msg) as u64;
                    ctx.consume(SimDuration::from_nanos(
                        self.cfg.costs.per_message.as_nanos() / 2
                            + self.cfg.costs.per_recv_kb.as_nanos() * kb / 2048,
                    ));
                    ctx.send(to, Msg::Gc(msg));
                }
                GcEvent::Deliver { payload, .. } => self.xdeliver(ctx, payload),
            }
        }
    }

    /// `xdeliver(T)` (Algorithm 2, line 16): enqueue into `Q` and run the
    /// commitment algorithm's vote step.
    fn xdeliver(&mut self, ctx: &mut Context<'_, Msg>, payload: TermPayload) {
        let tx = payload.tx;
        // Duplicate delivery (a coordinator retried termination): re-send
        // our vote if we already cast one; otherwise ignore.
        if self.done.contains(&tx) {
            // A restarted coordinator lost both our vote and the decision:
            // if the outcome is on durable record, answer it directly so
            // the retransmission loop terminates (§5.3).
            if payload.coord != self.me {
                if let Some(&commit) = self.decided_outcomes.get(&tx) {
                    ctx.send(
                        payload.coord,
                        Msg::Decide {
                            tx,
                            commit,
                            payload: None,
                            clocks: Vec::new(),
                        },
                    );
                }
            }
            return;
        }
        if let Some(p) = self.part.get(&tx) {
            if let Some(yes) = p.my_vote {
                if payload.coord != self.me {
                    // Re-send the identical vote, reservations included —
                    // voting is idempotent.
                    let clocks = p.reserved.clone();
                    ctx.send(payload.coord, Msg::Vote { tx, yes, clocks });
                }
            }
            return;
        }
        let ordered = self.commit.ordered();
        // Conflicting predecessors, before self-registration.
        let blockers = if self.commit.votes() {
            self.conflicts.conflicting(&payload, self.cfg.spec.commute)
        } else {
            Vec::new()
        };
        self.part.insert(
            tx,
            PartTxn {
                payload: payload.clone(),
                my_vote: None,
                reserved: Vec::new(),
                decided_clocks: Vec::new(),
                outcome: None,
                blocked_by: if ordered { blockers.len() } else { 0 },
            },
        );
        if ordered {
            self.q.push_back(tx);
            trace_tx(ctx, labels::CERT_ENQUEUE, tx, self.q.len() as u64);
        }
        if self.commit.votes() {
            self.conflicts.insert(&payload);
        }
        if let Some((commit, clocks)) = self.early_decide.remove(&tx) {
            // The coordinator decided before our ordered delivery arrived.
            self.on_decide(ctx, tx, commit, clocks);
            return;
        }
        self.on_delivered(ctx, tx, blockers);
    }

    /// `certify(T)` against this replica's local state, consuming its CPU
    /// cost.
    pub(super) fn certify(&mut self, ctx: &mut Context<'_, Msg>, payload: &TermPayload) -> bool {
        ctx.consume(
            self.cfg.costs.per_certify
                + self
                    .cfg
                    .costs
                    .per_certify_item
                    .saturating_mul((payload.rs.len() + payload.ws.len()) as u64),
        );
        self.stats.certifications += 1;
        match self.cfg.spec.certify {
            CertifyRule::AlwaysPass => true,
            CertifyRule::ReadSetCurrent => payload.rs.iter().all(|e| {
                !self.is_local(e.key) || self.store.latest_seq(e.key).unwrap_or(0) <= e.seq
            }),
            CertifyRule::WriteSetCurrent => {
                if !self.commit.votes() {
                    // Serrano decides alone: certify against the replicated
                    // version table covering all objects.
                    payload
                        .ws
                        .iter()
                        .all(|w| *self.meta.get(&w.key).unwrap_or(&0) <= w.base_seq)
                } else {
                    payload.ws.iter().all(|w| {
                        !self.is_local(w.key)
                            || self.store.latest_seq(w.key).unwrap_or(0) <= w.base_seq
                    })
                }
            }
        }
    }

    /// The `vote` action of Algorithms 3 and 4: certify a delivered
    /// transaction, reserve commit clocks on a yes, and send the vote to
    /// the realization's vote receivers. `preempt` votes *no* without
    /// certifying (Algorithm 4, line 3: a queued transaction conflicts).
    ///
    /// While a catch-up transfer is rebuilding the store the vote parks:
    /// certifying against a mid-rebuild store could contradict the votes of
    /// this partition's peers. `finish_catchup` sweeps unvoted entries.
    pub(super) fn vote(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, preempt: bool) {
        let Some(p) = self.part.get(&tx) else { return };
        if p.my_vote.is_some() || p.outcome.is_some() || self.recovering() {
            return;
        }
        let payload = p.payload.clone();
        let yes = if preempt {
            self.stats.preemptive_aborts += 1;
            false
        } else {
            self.certify(ctx, &payload)
        };
        let clocks = if yes {
            self.reserve_clocks(&payload)
        } else {
            Vec::new()
        };
        let p = self.part.get_mut(&tx).expect("present");
        p.my_vote = Some(yes);
        p.reserved = clocks.clone();
        self.stats.votes_cast += 1;
        trace_tx(ctx, labels::TXN_VOTE, tx, vote_value(self.me, yes));
        for to in self.commit.vote_receivers(self, &payload) {
            if to == self.me {
                self.record_vote(ctx, tx, self.cfg.site, yes, clocks.clone());
            } else {
                let clocks = clocks.clone();
                ctx.send(to, Msg::Vote { tx, yes, clocks });
            }
        }
    }

    /// Accumulates a vote; both coordinator-side and participant-side
    /// decisions key off this shared state.
    pub(super) fn record_vote(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        site: SiteId,
        yes: bool,
        clocks: Vec<(u32, u64)>,
    ) {
        if self.done.contains(&tx) && !self.coord.contains_key(&tx) {
            return;
        }
        {
            let v = self.votes.entry(tx).or_default();
            if yes {
                if let Err(i) = v.yes_sites.binary_search(&site) {
                    v.yes_sites.insert(i, site);
                }
                for (p, s) in clocks {
                    match v.clocks.iter_mut().find(|(q, _)| *q == p) {
                        Some(e) => e.1 = e.1.max(s),
                        None => v.clocks.push((p, s)),
                    }
                }
            } else {
                v.any_no = true;
            }
        }
        self.check_coord_outcome(ctx, tx);
        self.check_part_outcome(ctx, tx);
    }

    /// The outcome the votes in `v` fix for a transaction certifying
    /// `keys`: abort on any no, commit once the realization's quorum has
    /// voted yes for every key, undecided otherwise.
    fn vote_outcome(&self, keys: impl IntoIterator<Item = Key>, v: &VoteState) -> Option<bool> {
        if v.any_no {
            Some(false)
        } else {
            self.commit
                .quorum(&self.cfg.placement, keys, &v.yes_sites)
                .then_some(true)
        }
    }

    /// The `outcome(T)` predicate at the coordinator.
    fn check_coord_outcome(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get(&tx) else { return };
        if t.decided.is_some() || t.certifying.is_empty() {
            return;
        }
        let Some(v) = self.votes.get(&tx) else { return };
        let Some(commit) = self.vote_outcome(t.certifying.iter().copied(), v) else {
            return;
        };
        self.on_coord_outcome(ctx, tx, commit);
    }

    /// Participant-side outcome from received votes (GC mode: every
    /// `vote_recv` replica decides locally, Figure 2-a).
    pub(super) fn check_part_outcome(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        if !self.commit.decides_from_votes() {
            return;
        }
        let Some(p) = self.part.get(&tx) else { return };
        if p.outcome.is_some() {
            return;
        }
        let Some(v) = self.votes.get(&tx) else { return };
        // vote_snd_obj = certifying_obj: check coverage of the certifying
        // set straight off the payload under this protocol's rule
        // (duplicate keys re-check a pure predicate, so no dedup pass is
        // needed).
        let ws_only = matches!(
            self.cfg.spec.certifying_obj,
            CertifyingObjRule::WriteSet | CertifyingObjRule::WriteSetIfUpdate
        );
        let keys = p
            .payload
            .rs
            .iter()
            .filter(|_| !ws_only)
            .map(|e| e.key)
            .chain(p.payload.ws.iter().map(|w| w.key));
        let Some(commit) = self.vote_outcome(keys, v) else {
            return;
        };
        let merged_clocks = v.clocks.clone();
        let p = self.part.get_mut(&tx).expect("present");
        p.outcome = Some(commit);
        if p.decided_clocks.is_empty() {
            p.decided_clocks = merged_clocks;
        }
        // GC-mode participants terminate from votes without an explicit
        // `Decide`; logging the outcome here lets recovery and catch-up
        // see every decision, not just coordinated ones.
        self.log_decision(ctx, tx, commit);
        self.process_queue(ctx);
    }

    /// Appends a `Decision` record, when the durable log is attached.
    fn log_decision(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) {
        if let Some(wal) = self.wal.as_mut() {
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Decision { tx, commit });
            self.decided_outcomes.insert(tx, commit);
        }
    }

    /// Coordinator decision: notify the client, announce to participants
    /// that do not learn the outcome from votes.
    pub(super) fn decide_and_announce(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        cause: Option<AbortCause>,
    ) {
        let t = self.coord.get(&tx).expect("deciding an unknown txn");
        // The merged vote-clock reservations: complete commit-vector
        // entries for every written partition, shipped with the decision.
        let clocks = self
            .votes
            .get(&tx)
            .map(|v| v.clocks.clone())
            .unwrap_or_default();
        let announce_sites: BTreeSet<SiteId> = if self.commit.announces(cause) {
            self.sites_of_keys(t.certifying.iter())
        } else {
            BTreeSet::new()
        };
        for s in announce_sites {
            let pid = self.pid_of_site(s);
            if pid != self.me {
                ctx.send(
                    pid,
                    Msg::Decide {
                        tx,
                        commit,
                        payload: None,
                        clocks: clocks.clone(),
                    },
                );
            }
        }
        // Apply the local participant's copy, if any.
        self.on_decide(ctx, tx, commit, clocks);
        self.finish_coord(ctx, tx, commit, cause);
    }

    /// Final coordinator bookkeeping: reply to the client, record history.
    /// `cause` names why an abort happened (`None` means certification
    /// conflict); it partitions `stats.aborted` exactly.
    pub(super) fn finish_coord(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        cause: Option<AbortCause>,
    ) {
        let Some(t) = self.coord.get_mut(&tx) else {
            return;
        };
        if t.decided.is_some() {
            return;
        }
        t.decided = Some(commit);
        self.stats.coordinated += 1;
        let cause = (!commit).then_some(cause.unwrap_or(AbortCause::CertificationConflict));
        if commit {
            self.stats.committed += 1;
        } else {
            self.stats.aborted += 1;
            match cause.expect("set on abort") {
                AbortCause::CertificationConflict => self.stats.aborted_cert_conflict += 1,
                AbortCause::VoteTimeout => self.stats.aborted_vote_timeout += 1,
                AbortCause::ReadImpossible => self.stats.aborted_read_impossible += 1,
                AbortCause::Crash => self.stats.aborted_crash += 1,
            }
        }
        trace_tx(ctx, labels::TXN_DECIDE, tx, commit as u64);
        if let Some(c) = cause {
            trace_tx(ctx, labels::TXN_ABORT, tx, c.code());
        }
        ctx.send(
            t.client,
            Msg::Reply {
                tx,
                reply: ClientReply::Outcome {
                    committed: commit,
                    cause,
                },
            },
        );
        if self.cfg.record_history {
            let rec = TxnOutcomeRecord {
                tx,
                committed: commit,
                read_only: t.ws.is_empty(),
                rs: t.rs.clone(),
                ws: t.ws.iter().map(|w| (w.key, w.base_seq)).collect(),
                submitted_at: if t.submitted_at == SimTime::ZERO {
                    ctx.now()
                } else {
                    t.submitted_at
                },
                decided_at: ctx.now(),
            };
            self.outcomes.push(rec);
        }
        self.coord.remove(&tx);
        self.votes.remove(&tx);
    }

    /// Decision received (or taken locally).
    pub(super) fn on_decide(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        commit: bool,
        clocks: Vec<(u32, u64)>,
    ) {
        self.log_decision(ctx, tx, commit);
        let Some(p) = self.part.get_mut(&tx) else {
            if !self.done.contains(&tx) {
                self.early_decide.insert(tx, (commit, clocks));
            }
            return;
        };
        if p.outcome.is_none() {
            p.outcome = Some(commit);
        }
        if p.decided_clocks.is_empty() {
            p.decided_clocks = clocks;
        }
        if self.commit.ordered() {
            // Apply in delivery order (Algorithm 3, line 10).
            self.process_queue(ctx);
        } else if !self.recovering() {
            // Spontaneous order: apply and terminate immediately — unless a
            // catch-up transfer is rebuilding the store, in which case the
            // entry parks (outcome recorded above) until the
            // `finish_catchup` sweep.
            self.terminate(ctx, tx);
        }
    }

    /// Terminates a decided participation: applies the commit (or resolves
    /// the aborted reservations), leaves `Q` under ordered realizations,
    /// leaves the conflict index (waking the votes deferred behind it), and
    /// marks the transaction done.
    pub(super) fn terminate(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let p = self
            .part
            .get_mut(&tx)
            .expect("terminating an undelivered txn");
        let commit = p.outcome.expect("decided");
        let payload = p.payload.clone();
        // Taken, not cloned: the entry is removed below and nothing reads
        // them from the map in between.
        let decided_clocks = std::mem::take(&mut p.decided_clocks);
        let reserved = std::mem::take(&mut p.reserved);
        if commit {
            self.apply(ctx, &payload, &decided_clocks, &reserved);
        } else {
            // Aborted reservations must resolve, or the frontier stalls.
            self.resolve_reservations(&reserved);
        }
        if self.commit.ordered() {
            self.q.pop_front();
            trace_tx(ctx, labels::CERT_DEQUEUE, tx, self.q.len() as u64);
        }
        if self.commit.votes() {
            for w in self.conflicts.remove(tx, &payload) {
                let Some(p) = self.part.get_mut(&w) else {
                    continue;
                };
                p.blocked_by = p.blocked_by.saturating_sub(1);
                if p.blocked_by == 0 {
                    self.vote(ctx, w, false);
                }
            }
        }
        self.part.remove(&tx);
        self.votes.remove(&tx);
        self.done.insert(tx);
    }

    /// Pops every decided transaction at the head of `Q`, applying commits
    /// and waking deferred votes whose convoy has cleared.
    ///
    /// Orphaned queries — undecided read-only transactions whose
    /// coordinator's site is suspected crashed — are aborted locally: they
    /// install nothing, so a divergent outcome is harmless and unwedges the
    /// apply order. Orphaned *update* transactions at their write-set
    /// replicas terminate through the votes those replicas receive; crashed
    /// replicas rebuild through [`Replica::on_restart`] and the catch-up
    /// transfer instead.
    ///
    /// While a catch-up transfer is in flight this is a no-op: installing
    /// here would assign per-key sequence numbers against a stale store and
    /// diverge from the peers. `finish_catchup` drains the queue once the
    /// store is current.
    pub(super) fn process_queue(&mut self, ctx: &mut Context<'_, Msg>) {
        if self.recovering() {
            return;
        }
        while let Some(&head) = self.q.front() {
            let Some(p) = self.part.get(&head) else {
                self.q.pop_front();
                continue;
            };
            if p.outcome.is_none() {
                let orphaned = p.payload.read_only
                    && self
                        .try_site_of_pid(p.payload.coord)
                        .is_some_and(|site| self.suspected.contains(&site));
                if !orphaned {
                    break;
                }
                // An orphan discard, not a coordinated abort: kept out of
                // the coordinator-side cause partition.
                trace_tx(ctx, labels::CERT_ORPHAN, head, AbortCause::Crash.code());
                self.part.get_mut(&head).expect("present").outcome = Some(false);
            }
            self.terminate(ctx, head);
        }
    }

    /// True if commit vectors are assembled from vote-time clock
    /// reservations: voting commitment over a vector mechanism. Vote-free
    /// total-order protocols (`LocalDecide`) and scalar TS keep the legacy
    /// bump-at-install clocks.
    pub(super) fn vote_clocked(&self) -> bool {
        !self.cfg.bug_unreserved_commit_clocks
            && self.commit.votes()
            && self.cfg.spec.versioning != Mechanism::Ts
    }

    /// Reserves this replica's commit-clock slots for `payload`'s locally
    /// hosted written partitions. Called on every yes vote; the slots ride
    /// in the vote so the coordinator can assemble one complete commit
    /// vector covering every written partition.
    fn reserve_clocks(&mut self, payload: &TermPayload) -> Vec<(u32, u64)> {
        if !self.vote_clocked() {
            return Vec::new();
        }
        let mut out: Vec<(u32, u64)> = Vec::new();
        for w in payload.ws.iter() {
            if !self.is_local(w.key) {
                continue;
            }
            let p = self.cfg.placement.partition_of(w.key).index();
            if out.iter().any(|(q, _)| *q as usize == p) {
                continue;
            }
            let s = self.reserved.get(p).max(self.knowledge.get(p)) + 1;
            self.reserved.set(p, s);
            out.push((p as u32, s));
        }
        out
    }

    /// Marks reservations (partition, slot) resolved: installed or
    /// aborted. The visibility frontier advances only over contiguous
    /// resolutions, so snapshots never admit in-flight commits.
    fn resolve_reservations(&mut self, reserved: &[(u32, u64)]) {
        for &(p, s) in reserved {
            let p = p as usize;
            if s <= self.knowledge.get(p) {
                continue;
            }
            let ahead = self.resolved_ahead.entry(p).or_default();
            ahead.insert(s);
            let mut frontier = self.knowledge.get(p);
            while ahead.remove(&(frontier + 1)) {
                frontier += 1;
            }
            if ahead.is_empty() {
                self.resolved_ahead.remove(&p);
            }
            self.knowledge.set(p, frontier);
        }
    }

    /// Appends an installed version to the durable log and, when recording
    /// history, to the install history.
    pub(super) fn log_install(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        key: Key,
        seq: u64,
        stamp: Stamp,
        writer: TxId,
        value: Value,
    ) {
        if let Some(wal) = self.wal.as_mut() {
            ctx.consume(self.cfg.costs.per_log_append);
            wal.append(&gdur_persist::LogRecord::Install {
                key,
                seq,
                stamp,
                writer,
                value,
            });
        }
        if self.cfg.record_history {
            self.installs.push(InstallEvent {
                key,
                seq,
                tx: writer,
                at: ctx.now(),
            });
        }
    }

    /// Applies after-values of locally hosted partitions and runs the
    /// `post_commit` hook.
    fn apply(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        payload: &TermPayload,
        decided_clocks: &[(u32, u64)],
        reserved: &[(u32, u64)],
    ) {
        let vote_clocked = self.vote_clocked() && !decided_clocks.is_empty();
        // Resolve this replica's own reservations first: the frontier
        // advance and the installs below land in the same simulation event,
        // so they are atomic to every other process.
        if vote_clocked {
            self.resolve_reservations(reserved);
        }
        let mut bumped: Vec<(usize, u64)> = Vec::new();
        // First pass: fix the partition clock entry once per locally
        // written partition — the vote-time reservation when the decision
        // carries one, a fresh bump otherwise (legacy clocks).
        for w in payload.ws.iter() {
            let p = self.cfg.placement.partition_of(w.key).index();
            if !self.is_local(w.key) || bumped.iter().any(|(q, _)| *q == p) {
                continue;
            }
            let s = match decided_clocks.iter().find(|(q, _)| *q as usize == p) {
                Some((_, s)) if vote_clocked => *s,
                _ => self.knowledge.bump(p),
            };
            bumped.push((p, s));
        }
        // Commit vector: dependencies + this transaction's own entries. In
        // vote-clocked mode the decision's merged reservations cover every
        // written partition, local or not, so every install of the
        // transaction (at every replica) carries the same complete vector.
        let mut commit_vec = (*payload.dep).clone();
        if commit_vec.dim() == self.knowledge.dim() {
            for (p, s) in &bumped {
                if commit_vec.get(*p) < *s {
                    commit_vec.set(*p, *s);
                }
            }
            if vote_clocked {
                for (q, s) in decided_clocks {
                    let q = *q as usize;
                    if q < commit_vec.dim() && commit_vec.get(q) < *s {
                        commit_vec.set(q, *s);
                    }
                }
            }
        }
        for w in payload.ws.iter() {
            if !self.is_local(w.key) {
                continue;
            }
            if self
                .store
                .latest(w.key)
                .is_some_and(|r| r.writer == payload.tx)
            {
                // Already installed — the catch-up transfer shipped this
                // write while the transaction was parked. Re-installing
                // would mint a duplicate version with a fresh sequence.
                continue;
            }
            ctx.consume(self.cfg.costs.per_apply);
            let p = self.cfg.placement.partition_of(w.key);
            let stamp = match self.cfg.spec.versioning {
                Mechanism::Ts => {
                    Stamp::Ts(self.store.latest_seq(w.key).map(|s| s + 1).unwrap_or(0))
                }
                _ => Stamp::Vec {
                    origin: p.0,
                    vec: commit_vec.clone(),
                },
            };
            let seq = self
                .store
                .install(w.key, w.value.clone(), stamp.clone(), payload.tx);
            self.stats.applies += 1;
            self.log_install(ctx, w.key, seq, stamp, payload.tx, w.value.clone());
        }
        trace_tx(
            ctx,
            labels::TXN_INSTALL,
            payload.tx,
            payload.ws.len() as u64,
        );
        if self.cfg.spec.post_commit == PostCommitRule::PropagateStamps {
            for (p, s) in bumped {
                let part = gdur_store::PartitionId(p as u32);
                if self.cfg.placement.replicas(part)[0] == self.cfg.site {
                    // Vote-clocked mode propagates the resolved frontier,
                    // never a reservation that may still have in-flight
                    // commits below it.
                    let seq = if vote_clocked {
                        self.knowledge.get(p)
                    } else {
                        s
                    };
                    for site in self.cfg.placement.all_sites() {
                        let pid = self.pid_of_site(site);
                        if pid != self.me {
                            ctx.send(
                                pid,
                                Msg::Propagate {
                                    partition: p as u32,
                                    seq,
                                },
                            );
                            self.stats.propagates_sent += 1;
                        }
                    }
                }
            }
        }
    }
}
