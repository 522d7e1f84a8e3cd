//! The conflict index over the transactions queued at a replica: which
//! queued transactions a newly delivered one does not commute with
//! (`commute`, Algorithm 2), and which deferred votes wait on whom.

use std::collections::BTreeMap;

use gdur_store::{Key, TxId};

use crate::messages::TermPayload;
use crate::spec::CommuteRule;

/// Conflict index over queued transactions. Makes commute checks
/// O(footprint) instead of O(|Q|).
#[derive(Debug, Default)]
pub(super) struct ConflictIndex {
    /// key → (tx, read, wrote) for every indexed transaction touching it,
    /// in delivery order.
    key_index: BTreeMap<Key, Vec<(TxId, bool, bool)>>,
    /// Reverse wait edges: when the keyed transaction leaves the index,
    /// each waiter's `blocked_by` drops by one.
    waiters: BTreeMap<TxId, Vec<TxId>>,
}

/// Per-key access flags of a payload: (key, read, wrote).
fn accesses(payload: &TermPayload) -> Vec<(Key, bool, bool)> {
    let mut out: Vec<(Key, bool, bool)> = Vec::with_capacity(payload.rs.len() + payload.ws.len());
    for r in payload.rs.iter() {
        out.push((r.key, true, false));
    }
    for w in payload.ws.iter() {
        if let Some(e) = out.iter_mut().find(|(k, _, _)| *k == w.key) {
            e.2 = true;
        } else {
            out.push((w.key, false, true));
        }
    }
    out
}

/// True if accesses `mine` and `other` (read, wrote) to one key do not
/// commute under `rule`.
fn conflicts(rule: CommuteRule, mine: (bool, bool), other: (bool, bool)) -> bool {
    match rule {
        CommuteRule::Always => false,
        CommuteRule::WriteWriteDisjoint => mine.1 && other.1,
        CommuteRule::ReadWriteDisjoint => (mine.0 && other.1) || (mine.1 && other.0),
    }
}

impl ConflictIndex {
    /// Indexes `payload` under every key it reads or writes.
    pub(super) fn insert(&mut self, payload: &TermPayload) {
        for (key, read, wrote) in accesses(payload) {
            self.key_index
                .entry(key)
                .or_default()
                .push((payload.tx, read, wrote));
        }
    }

    /// Indexed transactions that do not commute with `payload` under
    /// `rule`, each at most once: key by key in payload order, each key's
    /// transactions in delivery order.
    pub(super) fn conflicting(&self, payload: &TermPayload, rule: CommuteRule) -> Vec<TxId> {
        let mut seen: Vec<TxId> = Vec::new();
        for (key, read, wrote) in accesses(payload) {
            if let Some(bucket) = self.key_index.get(&key) {
                for &(other, oread, owrote) in bucket {
                    if other != payload.tx
                        && conflicts(rule, (read, wrote), (oread, owrote))
                        && !seen.contains(&other)
                    {
                        seen.push(other);
                    }
                }
            }
        }
        seen
    }

    /// Records that `tx` waits for every transaction in `blockers` to
    /// leave the index.
    pub(super) fn block(&mut self, tx: TxId, blockers: &[TxId]) {
        for b in blockers {
            self.waiters.entry(*b).or_default().push(tx);
        }
    }

    /// Removes a terminated transaction and returns the transactions that
    /// waited on it.
    pub(super) fn remove(&mut self, tx: TxId, payload: &TermPayload) -> Vec<TxId> {
        // Keys straight off the payload: a key in both sets scrubs its
        // bucket twice, which is idempotent, so the deduplicated
        // `accesses` Vec is not worth building here.
        let keys = payload
            .rs
            .iter()
            .map(|e| e.key)
            .chain(payload.ws.iter().map(|w| w.key));
        for key in keys {
            if let Some(bucket) = self.key_index.get_mut(&key) {
                bucket.retain(|(t, _, _)| *t != tx);
                if bucket.is_empty() {
                    self.key_index.remove(&key);
                }
            }
        }
        self.waiters.remove(&tx).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gdur_sim::ProcessId;
    use gdur_versioning::VersionVec;

    use super::*;
    use crate::txn::{ReadEntry, WriteEntry};
    use gdur_store::Value;

    fn tx(seq: u64) -> TxId {
        TxId { coord: 0, seq }
    }

    /// A payload reading `reads` and read-modify-writing `writes`.
    fn payload(seq: u64, reads: &[u64], writes: &[u64]) -> TermPayload {
        let rs = reads
            .iter()
            .chain(writes)
            .map(|k| ReadEntry {
                key: Key(*k),
                seq: 0,
            })
            .collect();
        let ws = writes
            .iter()
            .map(|k| WriteEntry {
                key: Key(*k),
                value: Value::empty(),
                base_seq: 0,
            })
            .collect();
        TermPayload::new(
            tx(seq),
            ProcessId(0),
            writes.is_empty(),
            Arc::new(rs),
            Arc::new(ws),
            Arc::new(VersionVec::zero(0)),
        )
    }

    #[test]
    fn conflicting_lists_each_transaction_once_in_delivery_order_per_key() {
        let mut idx = ConflictIndex::default();
        idx.insert(&payload(1, &[], &[1, 2]));
        idx.insert(&payload(2, &[], &[2]));
        idx.insert(&payload(3, &[], &[9]));
        idx.insert(&payload(4, &[], &[1, 2]));
        let got = idx.conflicting(&payload(5, &[], &[1, 2]), CommuteRule::WriteWriteDisjoint);
        assert_eq!(got, vec![tx(1), tx(4), tx(2)]);
        let got = idx.conflicting(&payload(5, &[], &[2]), CommuteRule::WriteWriteDisjoint);
        assert_eq!(got, vec![tx(1), tx(2), tx(4)]);
        // A transaction never conflicts with itself.
        let got = idx.conflicting(&payload(2, &[], &[2]), CommuteRule::WriteWriteDisjoint);
        assert_eq!(got, vec![tx(1), tx(4)]);
    }

    #[test]
    fn every_commute_rule() {
        let mut idx = ConflictIndex::default();
        idx.insert(&payload(1, &[7], &[]));
        idx.insert(&payload(2, &[], &[8]));
        let read7 = payload(3, &[7], &[]);
        let write7 = payload(3, &[], &[7]);
        let read8 = payload(3, &[8], &[]);
        let write8 = payload(3, &[], &[8]);
        let none: Vec<TxId> = Vec::new();

        for p in [&read7, &write7, &read8, &write8] {
            assert_eq!(idx.conflicting(p, CommuteRule::Always), none);
        }

        let ww = CommuteRule::WriteWriteDisjoint;
        assert_eq!(idx.conflicting(&read7, ww), none);
        assert_eq!(idx.conflicting(&write7, ww), none);
        assert_eq!(idx.conflicting(&read8, ww), none);
        assert_eq!(idx.conflicting(&write8, ww), vec![tx(2)]);

        let rw = CommuteRule::ReadWriteDisjoint;
        assert_eq!(idx.conflicting(&read7, rw), none);
        assert_eq!(idx.conflicting(&write7, rw), vec![tx(1)]);
        assert_eq!(idx.conflicting(&read8, rw), vec![tx(2)]);
        assert_eq!(idx.conflicting(&write8, rw), vec![tx(2)]);
    }

    #[test]
    fn remove_returns_waiters_and_unindexes() {
        let mut idx = ConflictIndex::default();
        let p1 = payload(1, &[], &[1]);
        idx.insert(&p1);
        idx.insert(&payload(2, &[], &[1]));
        idx.insert(&payload(3, &[], &[1]));
        idx.block(tx(2), &[tx(1)]);
        idx.block(tx(3), &[tx(1), tx(2)]);
        assert_eq!(idx.remove(tx(1), &p1), vec![tx(2), tx(3)]);
        assert_eq!(idx.remove(tx(1), &p1), Vec::<TxId>::new());
        let got = idx.conflicting(&payload(4, &[], &[1]), CommuteRule::WriteWriteDisjoint);
        assert_eq!(got, vec![tx(2), tx(3)]);
    }

    #[test]
    fn key_in_read_and_write_set_removes_cleanly() {
        let mut idx = ConflictIndex::default();
        // `payload` puts every written key in the read set too.
        let p = payload(1, &[5], &[6]);
        assert!(p.rs.iter().any(|e| e.key == Key(6)));
        idx.insert(&p);
        assert_eq!(idx.key_index[&Key(6)], vec![(tx(1), true, true)]);
        assert_eq!(idx.remove(tx(1), &p), Vec::<TxId>::new());
        assert!(idx.key_index.is_empty());
        assert!(idx.waiters.is_empty());
    }
}
