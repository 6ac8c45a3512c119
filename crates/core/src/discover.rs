//! Identifier observations for sharded discovery.
//!
//! The discovery pass exists to warm the [`crate::Anonymizer`]'s mapping
//! state before the parallel rewrite pass, and for most of that state the
//! order files are scanned in does not matter: the leak record, the
//! emitted-image set, and the per-file statistics all merge
//! commutatively. The two exceptions are the v4 and v6 prefix-preserving
//! tries, whose node layout depends on the order addresses are *first*
//! inserted. Sequential discovery gets that order for free; sharded
//! discovery must reconstruct it.
//!
//! The reconstruction rests on one property of the tries (pinned by the
//! `ipanon` test suite): mappings are **sticky**. Once an address has an
//! image, re-anonymizing it returns the same image without mutating
//! state. A sequential run's trie state is therefore a function of one
//! thing only — the sequence of *first occurrences* of distinct
//! addresses, in corpus order. So each discovery shard records, for every
//! address it would have mapped, the corpus position `(file index,
//! in-file sequence)` of its first sighting; merging shards keeps the
//! minimum position per address; and replaying the merged set sorted by
//! position drives the tries through exactly the insertion sequence a
//! sequential scan would have produced. See
//! [`crate::batch::BatchPipeline`] for the surrounding machinery.

use std::collections::BTreeMap;
use std::fmt;

use confanon_netprim::{special6_kind, special_kind, Ip, Ip6};

/// Corpus position of an observation: `(file index, in-file sequence)`.
///
/// The in-file sequence is a single counter shared by v4 and v6
/// observations, incremented at each would-be trie mapping, so positions
/// are totally ordered and unique across both address families.
pub type ObsPos = (u64, u64);

/// One trie-mutated address of either family: what the anonymizer maps,
/// what its journal records, and what a discovery shard observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObservedIp {
    /// An IPv4 address that would have been mapped through the v4 trie.
    V4(Ip),
    /// An IPv6 address that would have been mapped through the v6 trie.
    V6(Ip6),
}

impl ObservedIp {
    /// Whether the address is special for its family (it passes through
    /// unmapped under rule R25).
    pub fn is_special(self) -> bool {
        match self {
            ObservedIp::V4(ip) => special_kind(ip).is_some(),
            ObservedIp::V6(ip) => special6_kind(ip).is_some(),
        }
    }
}

impl fmt::Display for ObservedIp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObservedIp::V4(ip) => ip.fmt(f),
            ObservedIp::V6(ip) => ip.fmt(f),
        }
    }
}

/// A log of first observations of trie-mutating identifiers, keyed by
/// identifier with the earliest corpus position seen.
///
/// Shards over disjoint file ranges produce logs with disjoint position
/// sets; [`ObservationLog::merge`] is nevertheless written to keep the
/// minimum position per identifier, so it is commutative and idempotent
/// regardless of how the corpus was split.
#[derive(Debug, Clone, Default)]
pub struct ObservationLog {
    cursor: ObsPos,
    first: BTreeMap<ObservedIp, ObsPos>,
}

impl ObservationLog {
    /// Positions subsequent observations at the start of file `file_idx`.
    pub fn begin_file(&mut self, file_idx: u64) {
        self.cursor = (file_idx, 0);
    }

    /// Records an address at the current cursor position, keeping the
    /// earliest position if it was already seen.
    pub fn note(&mut self, obs: ObservedIp) {
        let pos = self.cursor;
        self.cursor.1 += 1;
        self.keep_first(obs, pos);
    }

    fn keep_first(&mut self, obs: ObservedIp, pos: ObsPos) {
        self.first
            .entry(obs)
            .and_modify(|p| *p = (*p).min(pos))
            .or_insert(pos);
    }

    /// Folds another log in, keeping the earliest position per
    /// identifier. Commutative: merge order cannot change the result.
    pub fn merge(&mut self, other: ObservationLog) {
        for (obs, pos) in other.first {
            self.keep_first(obs, pos);
        }
    }

    /// Number of distinct identifiers recorded (v4 + v6).
    pub fn len(&self) -> usize {
        self.first.len()
    }

    /// `true` when no identifier has been recorded.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// The observed identifiers sorted by first corpus position — the
    /// exact order a sequential scan would have first inserted them into
    /// the tries. Ties (impossible for shards over disjoint files, since
    /// every observation consumes a unique position) break on the
    /// identifier itself so the order is total in every case.
    pub fn into_canonical_order(self) -> Vec<ObservedIp> {
        let mut all: Vec<(ObsPos, ObservedIp)> =
            self.first.into_iter().map(|(obs, pos)| (pos, obs)).collect();
        all.sort_unstable();
        all.into_iter().map(|(_, obs)| obs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(n: u32) -> ObservedIp {
        ObservedIp::V4(Ip(n))
    }

    fn v6(n: u128) -> ObservedIp {
        ObservedIp::V6(Ip6(n))
    }

    #[test]
    fn canonical_order_is_first_occurrence_order() {
        let mut log = ObservationLog::default();
        log.begin_file(0);
        log.note(v4(30));
        log.note(v4(10));
        log.note(v4(30)); // repeat: keeps the earlier position
        log.begin_file(1);
        log.note(v4(20));
        assert_eq!(log.into_canonical_order(), vec![v4(30), v4(10), v4(20)]);
    }

    #[test]
    fn merge_is_commutative_and_keeps_min_position() {
        let mut a = ObservationLog::default();
        a.begin_file(0);
        a.note(v4(7));
        a.note(v6(9));
        let mut b = ObservationLog::default();
        b.begin_file(3);
        b.note(v4(7)); // later sighting of the same address
        b.note(v4(8));

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab.into_canonical_order(), ba.into_canonical_order());
    }

    #[test]
    fn v4_and_v6_share_one_position_sequence() {
        let mut log = ObservationLog::default();
        log.begin_file(0);
        log.note(v6(1));
        log.note(v4(1));
        assert_eq!(log.into_canonical_order(), vec![v6(1), v4(1)]);
        let mut log = ObservationLog::default();
        log.begin_file(0);
        log.note(v4(1));
        log.note(v6(1));
        assert_eq!(log.into_canonical_order(), vec![v4(1), v6(1)]);
    }

    #[test]
    fn families_with_equal_bits_stay_distinct_in_one_map() {
        // `0.0.0.1` and `::1` tie on identifier bits: one map must keep
        // both, each at its own first position, through a merge too.
        let mut a = ObservationLog::default();
        a.begin_file(0);
        a.note(v4(1));
        a.note(v6(1));
        a.note(v4(1));
        let mut b = ObservationLog::default();
        b.begin_file(1);
        b.note(v6(1));
        b.note(v4(2));
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.into_canonical_order(), vec![v4(1), v6(1), v4(2)]);
    }

    #[test]
    fn empty_log_reports_empty() {
        let log = ObservationLog::default();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert!(log.into_canonical_order().is_empty());
    }
}
