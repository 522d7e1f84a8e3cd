//! The execution protocol (Algorithm 1): snapshots, version choice, local
//! and remote reads, and remote-read failover.

use gdur_net::SiteId;
use gdur_obs::{labels, AbortCause};
use gdur_sim::{Context, ProcessId, SimDuration};
use gdur_store::{Key, TxId, Value};
use gdur_versioning::Stamp;

use super::{trace_tx, CoordTxn, Replica, Timer};
use crate::messages::{ClientOp, ClientReply, Msg};
use crate::spec::ChooseRule;
use crate::txn::{ReadEntry, Snapshot, WriteEntry};

/// How long a read parked behind the visibility frontier waits before it
/// is retried.
const DEFER_POLL: SimDuration = SimDuration::from_micros(500);

impl Replica {
    fn fresh_snapshot(&self) -> Snapshot {
        let dim = super::stamp_dim(&self.cfg);
        if dim == 0 {
            return Snapshot::unconstrained();
        }
        match (
            self.cfg.spec.choose,
            self.cfg.spec.versioning.fixed_snapshot(),
        ) {
            // choose_last still ships mechanism-sized metadata (GMU*), but
            // the snapshot never constrains reads because it is never
            // pinned or observed.
            (ChooseRule::Last, _) => Snapshot::greedy(dim),
            (ChooseRule::Consistent, true) => Snapshot::fixed(&self.knowledge),
            (ChooseRule::Consistent, false) => Snapshot::greedy(dim),
        }
    }

    /// `choose` (Algorithm 1, lines 22–30): selects a version of `key` from
    /// the local store under `snap`, updating the snapshot context.
    fn choose_version(&mut self, key: Key, snap: &mut Snapshot) -> (Value, u64, Stamp) {
        let p = self.cfg.placement.partition_of(key).index();
        let rec = match self.cfg.spec.choose {
            ChooseRule::Last => self
                .store
                .latest(key)
                .unwrap_or_else(|| panic!("read of unhosted key {key} at {}", self.me)),
            ChooseRule::Consistent => {
                snap.pin(p, self.knowledge.get(p));
                self.store
                    .versions(key)
                    .unwrap_or_else(|| panic!("read of unhosted key {key} at {}", self.me))
                    .iter()
                    .rev()
                    .find(|r| snap.admits(&r.stamp))
                    .expect("the seed version is admissible in every snapshot")
            }
        };
        let out = (rec.value.clone(), rec.seq, rec.stamp.clone());
        if self.cfg.spec.choose == ChooseRule::Consistent {
            snap.observe(&out.2);
        }
        out
    }

    /// True if a read of `key` under `snap` must wait: while recovering, or
    /// when under vote-time commit clocks the local frontier lags a
    /// snapshot that already admits an install still in flight here —
    /// serving now would fracture atomic visibility.
    fn must_defer_read(&self, key: Key, snap: &Snapshot) -> bool {
        let p = self.cfg.placement.partition_of(key).index();
        self.recovering() || (self.vote_clocked() && snap.wait_bound(p) > self.knowledge.get(p))
    }

    pub(super) fn on_client_op(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        op: ClientOp,
    ) {
        ctx.consume(self.cfg.costs.per_message);
        if !matches!(op, ClientOp::Begin) && !self.coord.contains_key(&tx) {
            // The volatile execution state of this transaction is gone —
            // the coordinator crashed since `Begin` — so answer the client
            // with an abort instead of leaving it waiting forever.
            ctx.send(
                from,
                Msg::Reply {
                    tx,
                    reply: ClientReply::Outcome {
                        committed: false,
                        cause: Some(AbortCause::Crash),
                    },
                },
            );
            return;
        }
        match op {
            ClientOp::Begin => {
                trace_tx(ctx, labels::TXN_BEGIN, tx, 0);
                let snapshot = self.fresh_snapshot();
                self.coord.insert(tx, CoordTxn::new(from, snapshot));
                ctx.send(
                    from,
                    Msg::Reply {
                        tx,
                        reply: ClientReply::Began,
                    },
                );
            }
            ClientOp::Read { key } => self.start_read(ctx, tx, key, None),
            ClientOp::Update { key, value } => self.start_read(ctx, tx, key, Some(value)),
            ClientOp::Commit => self.submit(ctx, tx),
        }
    }

    /// Starts a read (or the read half of a read-modify-write).
    pub(super) fn start_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        key: Key,
        update: Option<Value>,
    ) {
        let Some(t) = self.coord.get_mut(&tx) else {
            return; // transaction already aborted/untracked
        };
        // Read-your-writes from the buffer (Algorithm 1, line 10).
        if let Some(entry) = t.ws.iter_mut().find(|w| w.key == key) {
            let reply = match update {
                Some(v) => {
                    entry.value = v;
                    ClientReply::UpdateDone { key }
                }
                None => ClientReply::ReadDone {
                    key,
                    value: entry.value.clone(),
                },
            };
            ctx.send(t.client, Msg::Reply { tx, reply });
            return;
        }
        if self.is_local(key) {
            if self.must_defer_read(key, &self.coord[&tx].snapshot) {
                self.arm(ctx, DEFER_POLL, Timer::LocalRead(tx, key, update));
                return;
            }
            let mut snap = std::mem::replace(
                &mut self.coord.get_mut(&tx).expect("present").snapshot,
                Snapshot::unconstrained(),
            );
            ctx.consume(self.cfg.costs.per_read);
            let (value, seq, _stamp) = self.choose_version(key, &mut snap);
            let t = self.coord.get_mut(&tx).expect("present");
            t.snapshot = snap;
            t.complete_read(ctx, tx, key, value, seq, update);
        } else {
            // Remote read (Algorithm 1, line 13): ask the nearest replica.
            let t = self.coord.get_mut(&tx).expect("present");
            t.pending_read = Some((key, update, 0));
            self.send_remote_read(ctx, tx, key, 0);
        }
    }

    /// Picks the read target for `key` at the given failover attempt:
    /// attempt 0 prefers the nearest unsuspected replica; later attempts
    /// rotate through the partition's unsuspected replicas, falling back to
    /// the full list if everything is suspected.
    fn read_target_site(&self, key: Key, attempt: usize) -> SiteId {
        let p = self.cfg.placement.partition_of(key);
        let pool = self.unsuspected_or_all(self.cfg.placement.replicas(p));
        let nearest = self.cfg.read_target[p.index()];
        if attempt == 0 && pool.contains(&nearest) {
            nearest
        } else {
            pool[attempt % pool.len()]
        }
    }

    /// Issues (or re-issues) a remote read for `key`, picking the replica
    /// by attempt number with failure suspicion.
    fn send_remote_read(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, key: Key, attempt: usize) {
        trace_tx(ctx, labels::TXN_READ_REMOTE, tx, attempt as u64);
        let target_site = self.read_target_site(key, attempt);
        let target = self.pid_of_site(target_site);
        let Some(t) = self.coord.get(&tx) else { return };
        let snap = t.snapshot.clone();
        self.consume_stamp(ctx, snap.meta_entries());
        ctx.send(target, Msg::ReadReq { tx, key, snap });
        let timer = self.arm(ctx, self.cfg.read_timeout, Timer::ReadFailover(tx));
        if let Some(t) = self.coord.get_mut(&tx) {
            t.read_timer = Some(timer);
        }
    }

    /// Read-failover timer: if the read is still pending, suspect the
    /// unresponsive replica and re-iterate the request to another one.
    pub(super) fn read_failover(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get_mut(&tx) else {
            return;
        };
        let Some((key, _, attempt)) = t.pending_read.as_mut() else {
            return;
        };
        let (key, prev_attempt) = (*key, *attempt);
        *attempt += 1;
        let attempt = prev_attempt + 1;
        let timed_out = self.read_target_site(key, prev_attempt);
        self.suspected.insert(timed_out);
        if self.cfg.max_read_attempts.is_some_and(|max| attempt >= max) {
            // The read cannot be served: every failover attempt is
            // exhausted, so the transaction aborts instead of re-iterating
            // forever.
            let t = self.coord.get_mut(&tx).expect("present");
            t.pending_read = None;
            t.read_timer = None;
            self.finish_coord(ctx, tx, false, Some(AbortCause::ReadImpossible));
        } else {
            self.send_remote_read(ctx, tx, key, attempt);
        }
        // New suspicion may unwedge orphaned queries at the queue head.
        self.process_queue(ctx);
    }

    pub(super) fn on_read_req(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        key: Key,
        snap: Snapshot,
    ) {
        ctx.consume(self.cfg.costs.per_message + self.cfg.costs.per_read);
        self.consume_stamp(ctx, snap.meta_entries());
        self.stats.remote_reads_served += 1;
        self.serve_remote_read(ctx, from, tx, key, snap);
    }

    /// Serves a remote read, or parks it while [`Self::must_defer_read`].
    pub(super) fn serve_remote_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        from: ProcessId,
        tx: TxId,
        key: Key,
        mut snap: Snapshot,
    ) {
        if self.must_defer_read(key, &snap) {
            self.arm(ctx, DEFER_POLL, Timer::RemoteRead(from, tx, key, snap));
            return;
        }
        let (value, seq, stamp) = self.choose_version(key, &mut snap);
        ctx.send(
            from,
            Msg::ReadRep {
                tx,
                key,
                value,
                seq,
                stamp,
                snap,
            },
        );
    }

    pub(super) fn on_read_rep(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        key: Key,
        value: Value,
        seq: u64,
        snap: Snapshot,
    ) {
        ctx.consume(self.cfg.costs.per_message);
        let Some(t) = self.coord.get_mut(&tx) else {
            return;
        };
        let Some((pending_key, update, attempt)) = t.pending_read.take() else {
            return; // duplicate reply after a failover retry
        };
        if pending_key != key {
            // Stale reply of an earlier op; restore state and ignore.
            t.pending_read = Some((pending_key, update, attempt));
            return;
        }
        if let Some((tag, id)) = t.read_timer.take() {
            ctx.cancel_timer(id);
            self.timers.remove(&tag);
        }
        t.snapshot = snap;
        t.complete_read(ctx, tx, key, value, seq, update);
    }
}

impl CoordTxn {
    /// Records a served read in the transaction's read set (and, for a
    /// read-modify-write, its write buffer), and answers the client.
    fn complete_read(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        key: Key,
        value: Value,
        seq: u64,
        update: Option<Value>,
    ) {
        self.rs.push(ReadEntry { key, seq });
        let reply = match update {
            Some(v) => {
                self.ws.push(WriteEntry {
                    key,
                    value: v,
                    base_seq: seq,
                });
                ClientReply::UpdateDone { key }
            }
            None => ClientReply::ReadDone { key, value },
        };
        ctx.send(self.client, Msg::Reply { tx, reply });
    }
}
