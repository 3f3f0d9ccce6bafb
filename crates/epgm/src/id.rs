//! Element identifiers.
//!
//! Gradoop identifies graphs, vertices and edges with 12-byte `GradoopId`s.
//! For the scales this reproduction runs at, an 8-byte identifier is
//! sufficient; only the *fixed width* matters for the embedding layout
//! (paper Section 3.3), which [`GradoopId`] preserves.

use gradoop_dataflow::Data;

/// A fixed-width element identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GradoopId(pub u64);

impl GradoopId {
    /// Serialized width in bytes.
    pub const BYTES: usize = 8;

    /// The identifier's little-endian byte representation.
    #[inline]
    pub fn to_bytes(self) -> [u8; Self::BYTES] {
        self.0.to_le_bytes()
    }

    /// Reconstructs an identifier from its byte representation.
    #[inline]
    pub fn from_bytes(bytes: [u8; Self::BYTES]) -> Self {
        GradoopId(u64::from_le_bytes(bytes))
    }
}

impl Data for GradoopId {
    #[inline]
    fn byte_size(&self) -> usize {
        Self::BYTES
    }
}

impl From<u64> for GradoopId {
    fn from(value: u64) -> Self {
        GradoopId(value)
    }
}

impl std::fmt::Display for GradoopId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A small set of graph identifiers recording graph membership of a vertex
/// or edge (the `l(v)` / `l(e)` mapping of Definition 2.1). Kept sorted so
/// equality and hashing are order-independent.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct GradoopIdSet {
    ids: Vec<GradoopId>,
}

impl GradoopIdSet {
    /// The empty set.
    pub fn new() -> Self {
        GradoopIdSet::default()
    }

    /// Singleton set.
    pub fn of(id: GradoopId) -> Self {
        GradoopIdSet { ids: vec![id] }
    }

    /// Builds a set from arbitrary (possibly duplicated) ids.
    pub fn from_ids<I: IntoIterator<Item = GradoopId>>(ids: I) -> Self {
        let mut ids: Vec<GradoopId> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        GradoopIdSet { ids }
    }

    /// Adds an id, keeping the set sorted and duplicate-free.
    pub fn insert(&mut self, id: GradoopId) {
        if let Err(pos) = self.ids.binary_search(&id) {
            self.ids.insert(pos, id);
        }
    }

    /// Removes an id if present.
    pub fn remove(&mut self, id: GradoopId) {
        if let Ok(pos) = self.ids.binary_search(&id) {
            self.ids.remove(pos);
        }
    }

    /// Membership test.
    pub fn contains(&self, id: GradoopId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = GradoopId> + '_ {
        self.ids.iter().copied()
    }
}

impl FromIterator<GradoopId> for GradoopIdSet {
    fn from_iter<I: IntoIterator<Item = GradoopId>>(iter: I) -> Self {
        GradoopIdSet::from_ids(iter)
    }
}

impl Data for GradoopIdSet {
    #[inline]
    fn byte_size(&self) -> usize {
        4 + self.ids.len() * GradoopId::BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_byte_roundtrip() {
        for value in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let id = GradoopId(value);
            assert_eq!(GradoopId::from_bytes(id.to_bytes()), id);
        }
    }

    #[test]
    fn id_set_is_sorted_and_deduplicated() {
        let set = GradoopIdSet::from_ids([3, 1, 2, 1].map(GradoopId));
        assert_eq!(set.len(), 3);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![GradoopId(1), GradoopId(2), GradoopId(3)]
        );
    }

    #[test]
    fn id_set_insert_remove_contains() {
        let mut set = GradoopIdSet::new();
        assert!(set.is_empty());
        set.insert(GradoopId(5));
        set.insert(GradoopId(5));
        set.insert(GradoopId(1));
        assert_eq!(set.len(), 2);
        assert!(set.contains(GradoopId(5)));
        set.remove(GradoopId(5));
        assert!(!set.contains(GradoopId(5)));
        set.remove(GradoopId(99)); // no-op
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn id_set_equality_is_order_independent() {
        let a = GradoopIdSet::from_ids([1, 2].map(GradoopId));
        let b = GradoopIdSet::from_ids([2, 1].map(GradoopId));
        assert_eq!(a, b);
    }
}
