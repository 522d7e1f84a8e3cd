//! The atomic-commitment realizations (§5): group communication with
//! distributed voting (Algorithm 3), Serrano's vote-free local decision,
//! two-phase commit (Algorithm 4) and Paxos Commit.
//!
//! [`Commit`] is derived once from `spec.commitment` and `spec.votes`;
//! this module is the only code of the replica that reads those two
//! fields. Every step of the generic termination protocol that differs
//! between realizations asks one of its methods.

use std::collections::BTreeSet;

use gdur_gc::XcastKind;
use gdur_net::SiteId;
use gdur_obs::AbortCause;
use gdur_sim::{Context, ProcessId};
use gdur_store::{Key, Placement, TxId};

use super::Replica;
use crate::messages::{Msg, TermPayload};
use crate::spec::{CommitmentKind, ProtocolSpec, VoteRule};

/// One commitment realization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Commit {
    /// Algorithm 3: ordered delivery through this `xcast`, distributed
    /// votes, and every participant decides from the votes it receives;
    /// transactions terminate at the head of `Q`.
    Vote(XcastKind),
    /// Serrano: AB-Cast delivery to every replica, which certifies against
    /// the replicated version table and decides alone, exchanging no votes.
    /// The spec linter rejects `VoteRule::LocalDecide` without AB-Cast over
    /// all objects, so no other commitment pairs with it.
    LocalDecide,
    /// Algorithm 4: plain multicast, votes to the coordinator, preemptive
    /// abort of transactions that do not commute with a queued one.
    TwoPc,
    /// Paxos Commit: 2PC whose coordinator replicates its decision on a
    /// majority of acceptors before announcing it.
    Paxos,
}

impl Commit {
    pub(super) fn new(spec: &ProtocolSpec) -> Self {
        match (spec.commitment, spec.votes) {
            (CommitmentKind::GroupCommunication { .. }, VoteRule::LocalDecide) => {
                Commit::LocalDecide
            }
            (CommitmentKind::GroupCommunication { xcast }, VoteRule::Distributed) => {
                Commit::Vote(xcast)
            }
            (CommitmentKind::TwoPhaseCommit, _) => Commit::TwoPc,
            (CommitmentKind::PaxosCommit, _) => Commit::Paxos,
        }
    }

    /// The `xcast` primitive that submits a transaction.
    pub(super) fn xcast(self) -> XcastKind {
        match self {
            Commit::Vote(xcast) => xcast,
            Commit::LocalDecide => XcastKind::AbCast,
            Commit::TwoPc | Commit::Paxos => XcastKind::Multicast,
        }
    }

    /// True if the coordinator retransmits the termination until decided:
    /// Algorithm 4 in the crash-recovery model waits for crashed
    /// participants to come back online.
    pub(super) fn retransmits(self) -> bool {
        matches!(self, Commit::TwoPc | Commit::Paxos)
    }

    /// True if delivered transactions wait in `Q` and terminate in delivery
    /// order, a conflicting one deferring its vote until its predecessors
    /// leave `Q` (the convoy effect). Otherwise delivery order is
    /// spontaneous: a conflicting transaction is preemptively voted down
    /// and a decided one terminates at once.
    pub(super) fn ordered(self) -> bool {
        matches!(self, Commit::Vote(_) | Commit::LocalDecide)
    }

    /// True if replicas vote, which is also when they index conflicts and
    /// reserve commit clocks at vote time. Serrano's replicas, which do
    /// not, certify against the replicated version table instead of their
    /// local store.
    pub(super) fn votes(self) -> bool {
        self != Commit::LocalDecide
    }

    /// True if every participant decides from the votes it receives
    /// (Figure 2-a) rather than from the coordinator's decision.
    pub(super) fn decides_from_votes(self) -> bool {
        matches!(self, Commit::Vote(_))
    }

    /// True if the yes votes of `yes_sites` cover every key of `keys`: one
    /// affirmative replica per key under group communication, every replica
    /// of every key under 2PC and Paxos Commit.
    pub(super) fn quorum(
        self,
        placement: &Placement,
        keys: impl IntoIterator<Item = Key>,
        yes_sites: &[SiteId],
    ) -> bool {
        let all = matches!(self, Commit::TwoPc | Commit::Paxos);
        keys.into_iter().all(|k| {
            let replicas = placement.replicas_of_key(k);
            if all {
                replicas.iter().all(|s| yes_sites.contains(s))
            } else {
                replicas.iter().any(|s| yes_sites.contains(s))
            }
        })
    }

    /// True if the coordinator fans its decision out to the certifying
    /// replicas. Group-communication participants learn the outcome from
    /// the votes — except for a vote-timeout abort, which by definition has
    /// no votes to learn it from, so it must be fanned out or the
    /// participants' queues stay wedged on the undecided entry.
    pub(super) fn announces(self, cause: Option<AbortCause>) -> bool {
        match self {
            Commit::Vote(_) | Commit::LocalDecide => cause == Some(AbortCause::VoteTimeout),
            Commit::TwoPc | Commit::Paxos => true,
        }
    }

    /// The replicas a vote on `payload` is sent to by replica `r`.
    ///
    /// Under group communication that is `replicas(vote_recv_obj) ∪
    /// {coord}`, where `vote_recv_obj` is the full certifying set (the
    /// paper's "might be larger in certain cases", Figure 2-a): every
    /// participant receives every vote and decides locally, which also lets
    /// participants terminate transactions whose coordinator crashed.
    /// AB-Cast delivers to every replica, so all of them sit in `Q` and need
    /// the votes ("all replicas must receive the certification votes",
    /// §5.1). 2PC and Paxos Commit votes go to the coordinator only.
    pub(super) fn vote_receivers(self, r: &Replica, payload: &TermPayload) -> BTreeSet<ProcessId> {
        let mut to: BTreeSet<ProcessId> = match self {
            Commit::Vote(XcastKind::AbCast) => r.cfg.replica_pids.iter().copied().collect(),
            Commit::Vote(_) | Commit::LocalDecide => {
                // Duplicate keys are fine here: the site set dedups them.
                let keys = payload
                    .rs
                    .iter()
                    .map(|e| &e.key)
                    .chain(payload.ws.iter().map(|w| &w.key));
                r.sites_of_keys(keys)
                    .into_iter()
                    .map(|s| r.pid_of_site(s))
                    .collect()
            }
            Commit::TwoPc | Commit::Paxos => BTreeSet::new(),
        };
        to.insert(payload.coord);
        to
    }
}

impl Replica {
    /// The commitment step of a newly delivered transaction, once it is in
    /// `Q` and the conflict index; `blockers` are the queued transactions
    /// it does not commute with.
    pub(super) fn on_delivered(
        &mut self,
        ctx: &mut Context<'_, Msg>,
        tx: TxId,
        blockers: Vec<TxId>,
    ) {
        match self.commit {
            Commit::LocalDecide => self.local_decide(ctx, tx),
            Commit::Vote(_) => {
                if blockers.is_empty() {
                    self.vote(ctx, tx, false);
                } else {
                    // Convoy: defer the vote until every conflicting
                    // predecessor leaves Q (Algorithm 3, line 3).
                    self.conflicts.block(tx, &blockers);
                }
                // Votes may have raced ahead of the ordered delivery.
                self.check_part_outcome(ctx, tx);
            }
            Commit::TwoPc | Commit::Paxos => self.vote(ctx, tx, !blockers.is_empty()),
        }
    }

    /// Serrano's vote-free decision: certify at delivery, in total order,
    /// against the replicated version table; every replica reaches the same
    /// verdict.
    fn local_decide(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let payload = self.part.get(&tx).expect("just delivered").payload.clone();
        let commit = self.certify(ctx, &payload);
        if commit {
            for w in payload.ws.iter() {
                let e = self.meta.entry(w.key).or_insert(0);
                *e = (*e).max(w.base_seq + 1);
            }
        }
        self.part.get_mut(&tx).expect("present").outcome = Some(commit);
        self.process_queue(ctx);
        if payload.coord == self.me {
            self.finish_coord(ctx, tx, commit, None);
        }
    }

    /// The coordinator's votes fixed `commit`: Paxos Commit replicates it
    /// first, every other realization decides at once.
    pub(super) fn on_coord_outcome(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) {
        if self.commit == Commit::Paxos {
            self.start_paxos_round(ctx, tx, commit);
        } else {
            self.decide_and_announce(ctx, tx, commit, None);
        }
    }

    /// Paxos Commit: replicate the decision on a majority of acceptors
    /// before announcing it.
    fn start_paxos_round(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId, commit: bool) {
        let t = self.coord.get_mut(&tx).expect("present");
        if t.paxos.is_some() {
            return;
        }
        t.paxos = Some((commit, 1));
        for s in self.cfg.placement.all_sites() {
            let pid = self.pid_of_site(s);
            if pid != self.me {
                ctx.send(pid, Msg::PaxosAccept { tx, commit });
            }
        }
        self.check_paxos_majority(ctx, tx);
    }

    pub(super) fn check_paxos_majority(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let n = self.cfg.placement.sites();
        let Some(t) = self.coord.get(&tx) else { return };
        let Some((commit, acks)) = t.paxos else {
            return;
        };
        if t.decided.is_none() && acks > n / 2 {
            self.decide_and_announce(ctx, tx, commit, None);
        }
    }

    /// Termination-retry timer: re-sends the termination of a still
    /// undecided transaction and re-arms the retry.
    pub(super) fn retry_termination(&mut self, ctx: &mut Context<'_, Msg>, tx: TxId) {
        let Some(t) = self.coord.get(&tx).filter(|t| t.decided.is_none()) else {
            return;
        };
        let Some(payload) = t.submitted_payload.clone() else {
            return;
        };
        let certifying = t.certifying.clone();
        self.xcast_payload(ctx, &certifying, payload);
        self.arm_term_retry(ctx, tx);
    }
}
