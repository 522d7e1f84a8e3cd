//! The multi-version object store held by each replica (`ds` in the paper's
//! Algorithms 1–2).
//!
//! Every key maps to a list of committed versions in install order. The
//! three read paths of §4.2 are provided:
//!
//! * [`MultiVersionStore::latest`] — `choose_last`;
//! * [`MultiVersionStore::latest_visible`] — `choose_cons` under a fixed
//!   VTS snapshot;
//! * [`MultiVersionStore::latest_compatible`] — `choose_cons` under greedy
//!   GMV/PDV snapshot assembly.

use gdur_versioning::{Stamp, VersionVec};

use crate::types::{Key, TxId, Value};

/// Interned key handle: an index into the store's dense slot table.
///
/// Keys are interned on first [`MultiVersionStore::seed`]; every read path
/// then resolves `Key → Symbol` with one multiply-shift hash and an
/// integer-compare probe — no SipHash, no per-lookup hasher state — and
/// indexes a dense `Vec`. `u32` bounds the store at ~4 billion distinct
/// keys, far beyond the paper's workloads.
type Symbol = u32;

/// Fibonacci multiplier (golden-ratio fraction of 2⁶⁴) — spreads the
/// workload's dense integer key ids uniformly over the table.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressing `Key → Symbol` index with linear probing.
///
/// Slots hold `symbol + 1` (`0` = empty), so a fresh table is all-zeros.
/// The key list itself lives in the store (`keys[symbol]`), keeping this
/// table a flat `Vec<u32>` that rebuilds trivially on growth. Determinism:
/// probe order is a pure function of the inserted key set, and iteration
/// happens over the dense key list (insertion order), never this table.
#[derive(Debug, Clone)]
struct KeyIndex {
    table: Vec<u32>,
    /// `64 - log2(table.len())`: the multiply-shift bucket extractor.
    shift: u32,
}

impl KeyIndex {
    fn with_log2(log2: u32) -> Self {
        KeyIndex {
            table: vec![0; 1 << log2],
            shift: 64 - log2,
        }
    }

    fn new() -> Self {
        Self::with_log2(4)
    }

    /// Finds `key`'s symbol, or the empty slot where it would be inserted.
    fn probe(&self, key: Key, keys: &[Key]) -> Result<Symbol, usize> {
        let mut i = (key.0.wrapping_mul(FIB) >> self.shift) as usize;
        let mask = self.table.len() - 1;
        loop {
            match self.table[i] {
                0 => return Err(i),
                s => {
                    if keys[(s - 1) as usize] == key {
                        return Ok(s - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, key: Key, keys: &[Key]) -> Option<Symbol> {
        self.probe(key, keys).ok()
    }

    /// Inserts a key known to be absent; `keys` must not yet contain it.
    fn insert(&mut self, key: Key, sym: Symbol, keys: &[Key]) {
        // Keep load ≤ 1/2 so probe chains stay short.
        if (keys.len() + 1) * 2 > self.table.len() {
            *self = Self::with_log2(self.table.len().trailing_zeros() + 1);
            for (s, &k) in keys.iter().enumerate() {
                let slot = self.probe(k, keys).expect_err("rebuilding, key absent");
                self.table[slot] = s as u32 + 1;
            }
        }
        let slot = self.probe(key, keys).expect_err("caller checked absence");
        self.table[slot] = sym + 1;
    }
}

/// One committed version of an object.
#[derive(Debug, Clone)]
pub struct VersionRecord {
    /// The payload.
    pub value: Value,
    /// Mechanism-specific version number Θ(xᵢ).
    pub stamp: Stamp,
    /// Per-key monotone sequence: 0 is the seed version, certification
    /// compares these to detect stale reads and overwritten bases.
    pub seq: u64,
    /// Transaction that wrote this version.
    pub writer: TxId,
}

/// The transaction id used for seed (initial-load) versions.
pub const SEED_TX: TxId = TxId {
    coord: u32::MAX,
    seq: 0,
};

/// A replica-local multi-version store over the keys of the partitions the
/// replica hosts.
///
/// Keys are interned to dense `Symbol`s at seed time, so every lookup on
/// the hot read/certify/install paths is one integer hash-probe plus a
/// dense-`Vec` index. Key iteration follows seed (insertion) order —
/// deterministic, unlike the `HashMap` this replaced.
#[derive(Debug, Clone)]
pub struct MultiVersionStore {
    /// Symbol → key (the interner's reverse map, also the iteration order).
    keys: Vec<Key>,
    /// Symbol → committed versions in install order.
    slots: Vec<Vec<VersionRecord>>,
    index: KeyIndex,
    /// Cap on retained versions per key (garbage collection); the paper's
    /// `post_commit` hook is where real systems trigger this.
    max_versions: usize,
}

impl Default for MultiVersionStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MultiVersionStore {
    /// Default number of versions retained per key.
    pub const DEFAULT_MAX_VERSIONS: usize = 8;

    /// An empty store.
    pub fn new() -> Self {
        MultiVersionStore {
            keys: Vec::new(),
            slots: Vec::new(),
            index: KeyIndex::new(),
            max_versions: Self::DEFAULT_MAX_VERSIONS,
        }
    }

    /// Resolves a key to its interned symbol, if seeded.
    #[inline]
    fn sym(&self, key: Key) -> Option<usize> {
        self.index.get(key, &self.keys).map(|s| s as usize)
    }

    /// Sets the per-key version-retention cap.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn with_max_versions(mut self, max: usize) -> Self {
        assert!(max > 0, "must retain at least one version");
        self.max_versions = max;
        self
    }

    /// Loads the initial version of `key` (seq 0, seed writer), interning
    /// the key on first sight.
    pub fn seed(&mut self, key: Key, value: Value, stamp: Stamp) {
        let s = match self.index.get(key, &self.keys) {
            Some(s) => s as usize,
            None => {
                let sym = self.keys.len() as Symbol;
                self.index.insert(key, sym, &self.keys);
                self.keys.push(key);
                self.slots.push(Vec::new());
                sym as usize
            }
        };
        self.slots[s].push(VersionRecord {
            value,
            stamp,
            seq: 0,
            writer: SEED_TX,
        });
    }

    /// True if the replica holds a copy of `key`.
    pub fn contains_key(&self, key: Key) -> bool {
        self.sym(key).is_some()
    }

    /// Number of keys stored here.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The most recent committed version of `key` (`choose_last`).
    pub fn latest(&self, key: Key) -> Option<&VersionRecord> {
        self.slots[self.sym(key)?].last()
    }

    /// Per-key sequence of the latest version, or `None` if absent.
    pub fn latest_seq(&self, key: Key) -> Option<u64> {
        self.latest(key).map(|r| r.seq)
    }

    /// The most recent version of `key` visible in the fixed snapshot
    /// vector `snap` (VTS semantics: version visible iff its origin entry
    /// is covered by the snapshot).
    pub fn latest_visible(&self, key: Key, snap: &VersionVec) -> Option<&VersionRecord> {
        self.slots[self.sym(key)?]
            .iter()
            .rev()
            .find(|r| r.stamp.visible_in(snap))
    }

    /// The most recent version of `key` whose stamp is pairwise compatible
    /// (§4.2) with every stamp in `priors` — the GMV/PDV `choose_cons`.
    pub fn latest_compatible<'a>(
        &'a self,
        key: Key,
        priors: &[Stamp],
    ) -> Option<&'a VersionRecord> {
        self.slots[self.sym(key)?]
            .iter()
            .rev()
            .find(|r| priors.iter().all(|p| r.stamp.compatible(p)))
    }

    /// All retained versions of `key` in install order (oldest first), for
    /// callers that apply their own snapshot predicate.
    pub fn versions(&self, key: Key) -> Option<&[VersionRecord]> {
        Some(self.slots[self.sym(key)?].as_slice())
    }

    /// A specific historical version by per-key sequence.
    pub fn version_at(&self, key: Key, seq: u64) -> Option<&VersionRecord> {
        self.slots[self.sym(key)?].iter().find(|r| r.seq == seq)
    }

    /// Installs a new committed version of `key`, returning its per-key
    /// sequence. Old versions beyond the retention cap are garbage
    /// collected.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never seeded: replicas only apply after-values
    /// for keys of partitions they host.
    pub fn install(&mut self, key: Key, value: Value, stamp: Stamp, writer: TxId) -> u64 {
        let s = self
            .sym(key)
            .unwrap_or_else(|| panic!("install on unknown key {key}"));
        let versions = &mut self.slots[s];
        let seq = versions.last().map(|r| r.seq + 1).unwrap_or(0);
        versions.push(VersionRecord {
            value,
            stamp,
            seq,
            writer,
        });
        if versions.len() > self.max_versions {
            let excess = versions.len() - self.max_versions;
            versions.drain(..excess);
        }
        seq
    }

    /// Iterates over keys held by this replica, in seed (insertion) order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.keys.iter().copied()
    }

    /// Number of retained versions of `key`.
    pub fn version_count(&self, key: Key) -> usize {
        self.sym(key).map(|s| self.slots[s].len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(n: u64) -> Stamp {
        Stamp::Ts(n)
    }

    fn vstamp(origin: u32, entries: &[u64]) -> Stamp {
        Stamp::Vec {
            origin,
            vec: VersionVec::from_entries(entries.to_vec()),
        }
    }

    fn tx(n: u64) -> TxId {
        TxId::new(1, n)
    }

    #[test]
    fn seed_then_latest() {
        let mut s = MultiVersionStore::new();
        s.seed(Key(1), Value::from_u64(10), ts(0));
        assert_eq!(s.latest(Key(1)).unwrap().seq, 0);
        assert_eq!(s.latest(Key(1)).unwrap().writer, SEED_TX);
        assert_eq!(s.latest_seq(Key(2)), None);
        assert!(s.contains_key(Key(1)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn install_bumps_seq() {
        let mut s = MultiVersionStore::new();
        s.seed(Key(1), Value::from_u64(0), ts(0));
        assert_eq!(s.install(Key(1), Value::from_u64(1), ts(1), tx(1)), 1);
        assert_eq!(s.install(Key(1), Value::from_u64(2), ts(2), tx(2)), 2);
        assert_eq!(s.latest_seq(Key(1)), Some(2));
        assert_eq!(s.latest(Key(1)).unwrap().value.as_u64(), Some(2));
        assert_eq!(s.version_at(Key(1), 1).unwrap().value.as_u64(), Some(1));
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn install_unknown_key_panics() {
        let mut s = MultiVersionStore::new();
        s.install(Key(9), Value::empty(), ts(1), tx(1));
    }

    #[test]
    fn retention_cap_drops_oldest() {
        let mut s = MultiVersionStore::new().with_max_versions(2);
        s.seed(Key(1), Value::from_u64(0), ts(0));
        s.install(Key(1), Value::from_u64(1), ts(1), tx(1));
        s.install(Key(1), Value::from_u64(2), ts(2), tx(2));
        assert_eq!(s.version_count(Key(1)), 2);
        assert!(s.version_at(Key(1), 0).is_none(), "seed GCed");
        assert_eq!(s.latest_seq(Key(1)), Some(2));
    }

    #[test]
    fn interner_survives_growth_and_iterates_in_seed_order() {
        // Enough keys to force several KeyIndex rebuilds (initial capacity
        // 16, load ≤ 1/2), with ids spread to exercise probe collisions.
        let mut s = MultiVersionStore::new();
        let ids: Vec<u64> = (0..300u64).map(|i| i * 1_000_003 % 7919).collect();
        for &id in &ids {
            s.seed(Key(id), Value::from_u64(id), ts(0));
        }
        assert_eq!(s.len(), ids.len());
        for &id in &ids {
            assert!(s.contains_key(Key(id)), "lost key {id} across growth");
            assert_eq!(s.latest(Key(id)).unwrap().value.as_u64(), Some(id));
        }
        assert!(!s.contains_key(Key(u64::MAX)));
        assert!(s.latest(Key(u64::MAX)).is_none());
        // Iteration order is the seed order, not hash order.
        let iterated: Vec<u64> = s.keys().map(|k| k.0).collect();
        assert_eq!(iterated, ids);
    }

    #[test]
    fn visible_in_snapshot_picks_covered_version() {
        let mut s = MultiVersionStore::new();
        // Object in partition 0 with versions at partition-seq 1 and 2.
        s.seed(Key(1), Value::from_u64(0), vstamp(0, &[0, 0]));
        s.install(Key(1), Value::from_u64(1), vstamp(0, &[1, 0]), tx(1));
        s.install(Key(1), Value::from_u64(2), vstamp(0, &[2, 0]), tx(2));
        let snap = VersionVec::from_entries(vec![1, 5]);
        let r = s.latest_visible(Key(1), &snap).unwrap();
        assert_eq!(r.value.as_u64(), Some(1), "seq-2 version not yet visible");
        let fresh = VersionVec::from_entries(vec![9, 9]);
        assert_eq!(
            s.latest_visible(Key(1), &fresh).unwrap().value.as_u64(),
            Some(2)
        );
    }

    #[test]
    fn compatible_read_skips_conflicting_fresh_version() {
        let mut s = MultiVersionStore::new();
        // y lives in partition 1; its v1 was written with no deps, its v2 by
        // a txn that observed version 2 of partition 0.
        s.seed(Key(1), Value::from_u64(0), vstamp(1, &[0, 0]));
        s.install(Key(1), Value::from_u64(1), vstamp(1, &[0, 1]), tx(1));
        s.install(Key(1), Value::from_u64(2), vstamp(1, &[2, 2]), tx(2));
        // The transaction already read version 1 of partition 0:
        let prior = vstamp(0, &[1, 0]);
        let r = s.latest_compatible(Key(1), &[prior]).unwrap();
        assert_eq!(
            r.value.as_u64(),
            Some(1),
            "v2 depends on partition-0 seq 2 > 1, must fall back to v1"
        );
        // With no priors, freshest version wins.
        assert_eq!(
            s.latest_compatible(Key(1), &[]).unwrap().value.as_u64(),
            Some(2)
        );
    }
}
