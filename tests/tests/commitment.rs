//! How the commitment realizations treat a transaction that does not
//! commute with one still queued at a replica: 2PC votes it down at once
//! (Algorithm 4's preemptive abort), group-communication voting defers its
//! vote until the predecessor leaves `Q` (Algorithm 3's convoy).

use std::collections::BTreeMap;

use gdur_core::{Cluster, ClusterConfig, PlanOp, ProtocolSpec, ScriptSource, TxnPlan};
use gdur_obs::{labels, ObsEvent, TraceHandle};
use gdur_sim::SimTime;
use gdur_store::Key;

/// Six clients read-modify-write one hot key, with tracing attached.
fn run_hot_key(spec: ProtocolSpec) -> (Cluster, Vec<ObsEvent>) {
    let mut cfg = ClusterConfig::small(spec, 3);
    cfg.clients_per_site = 2;
    cfg.max_txns_per_client = Some(15);
    let plans = vec![TxnPlan {
        ops: vec![PlanOp::Read(Key(0)), PlanOp::Update(Key(1))],
    }];
    let mut cluster = Cluster::build(cfg, move |_, _| Box::new(ScriptSource::new(plans.clone())));
    let trace = TraceHandle::new();
    cluster.attach_obs(trace.sink());
    cluster.run_until_idle();
    (cluster, trace.events())
}

/// Votes cast in a later handler than the one that enqueued the
/// transaction at the same replica: the deferred (convoy) votes.
fn deferred_votes(events: &[ObsEvent]) -> usize {
    let mut enqueued: BTreeMap<(u32, u64), SimTime> = BTreeMap::new();
    let mut deferred = 0;
    for ev in events {
        let ObsEvent::Point {
            at,
            actor,
            label,
            tx,
            ..
        } = ev
        else {
            continue;
        };
        if *label == labels::CERT_ENQUEUE {
            enqueued.insert((actor.0, *tx), *at);
        } else if *label == labels::TXN_VOTE
            && enqueued.get(&(actor.0, *tx)).is_some_and(|e| at > e)
        {
            deferred += 1;
        }
    }
    deferred
}

#[test]
fn two_pc_votes_down_conflicting_transactions_preemptively() {
    let (cluster, _) = run_hot_key(gdur_protocols::jessy_2pc());
    let s = cluster.replica_stats();
    assert!(
        s.preemptive_aborts > 0,
        "2PC must vote no on a transaction conflicting with a queued one: {s:?}"
    );
}

#[test]
fn group_communication_defers_conflicting_votes() {
    let (cluster, events) = run_hot_key(gdur_protocols::p_store());
    let s = cluster.replica_stats();
    assert_eq!(
        s.preemptive_aborts, 0,
        "group-communication voting never votes preemptively: {s:?}"
    );
    assert!(
        deferred_votes(&events) > 0,
        "a conflicting transaction must wait in Q for its predecessor before voting"
    );
}
