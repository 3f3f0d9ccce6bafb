//! Byte-array embedding layout.
//!
//! ```text
//! idEntry   := (ID, id)        -- 1 flag byte + 8-byte identifier
//! pathEntry := (PATH, offset)  -- 1 flag byte + 8-byte offset into pathData
//! idData    := idEntry | pathEntry, ...
//! pathData  := (path-length, ids), ...
//! propData  := (byte-length, value), ...
//! ```
//!
//! Identifier and path entries are fixed-width, so the element bound to a
//! column is read in constant time. Property access walks length prefixes
//! until the requested index — exactly the trade-off described in the paper.
//!
//! The three sections live back-to-back in **one** byte buffer
//! (`[idData][pathData][propData]`, delimited by two offsets), so copying
//! or merging an embedding is a constant number of `memcpy`s into a single
//! allocation. [`Embedding::merge_into`] — the join kernel — computes the
//! exact output size first and writes into a caller-provided scratch
//! embedding whose buffer is reused across a whole morsel; rejected join
//! pairs therefore allocate nothing, and each emitted embedding costs
//! exactly one allocation (the clone out of the scratch buffer). The leaf
//! operators have the same contract through [`Embedding::leaf`]: the row is
//! sized first and every value is encoded straight into its buffer.

use gradoop_dataflow::Data;
use gradoop_epgm::{Properties, PropertyValue};

/// Bytes per `idData` entry: flag + 64-bit payload.
pub const ID_ENTRY_SIZE: usize = 9;

const FLAG_ID: u8 = 0;
const FLAG_PATH: u8 = 1;

/// A decoded `idData` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// Direct vertex/edge identifier.
    Id(u64),
    /// A variable-length path: the ordered identifiers between the path's
    /// start and end vertex (alternating edge, vertex, edge, ...).
    Path(Vec<u64>),
}

/// An embedding: one (partial) match of the query graph.
///
/// `buf[..path_start]` is the idData section, `buf[path_start..prop_start]`
/// the pathData section and `buf[prop_start..]` the propData section.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Embedding {
    buf: Vec<u8>,
    path_start: u32,
    prop_start: u32,
}

impl Embedding {
    /// The empty embedding.
    pub fn new() -> Self {
        Embedding::default()
    }

    /// Number of `idData` entries (columns).
    pub fn columns(&self) -> usize {
        self.path_start as usize / ID_ENTRY_SIZE
    }

    fn id_section(&self) -> &[u8] {
        &self.buf[..self.path_start as usize]
    }

    fn path_section(&self) -> &[u8] {
        &self.buf[self.path_start as usize..self.prop_start as usize]
    }

    fn prop_section(&self) -> &[u8] {
        &self.buf[self.prop_start as usize..]
    }

    /// The row a leaf operator emits — `ids` as identifier columns, then the
    /// value of each of `keys` in `properties` (`NULL` for a missing key) —
    /// in one allocation of the exact final size. Byte for byte what
    /// `push_id` per id followed by `push_property` per key builds.
    pub fn leaf(ids: &[u64], properties: &Properties, keys: &[String]) -> Embedding {
        let value = |key: &String| properties.get(key).unwrap_or(&PropertyValue::Null);
        let id_bytes = ids.len() * ID_ENTRY_SIZE;
        let prop_bytes: usize = keys.iter().map(|key| 4 + value(key).byte_size()).sum();
        let mut embedding = Embedding {
            buf: Vec::with_capacity(id_bytes + prop_bytes),
            path_start: id_bytes as u32,
            prop_start: id_bytes as u32,
        };
        for id in ids {
            embedding.buf.push(FLAG_ID);
            embedding.buf.extend_from_slice(&id.to_le_bytes());
        }
        for key in keys {
            embedding.push_property(value(key));
        }
        debug_assert_eq!(embedding.buf.len(), id_bytes + prop_bytes);
        embedding
    }

    /// Appends an identifier column.
    pub fn push_id(&mut self, id: u64) {
        let mut entry = [0u8; ID_ENTRY_SIZE];
        entry[0] = FLAG_ID;
        entry[1..].copy_from_slice(&id.to_le_bytes());
        let at = self.path_start as usize;
        self.buf.splice(at..at, entry);
        self.path_start += ID_ENTRY_SIZE as u32;
        self.prop_start += ID_ENTRY_SIZE as u32;
    }

    /// Appends a path column holding `ids` (the `via` identifiers).
    pub fn push_path(&mut self, ids: &[u64]) {
        let offset = (self.prop_start - self.path_start) as u64;
        let mut entry = [0u8; ID_ENTRY_SIZE];
        entry[0] = FLAG_PATH;
        entry[1..].copy_from_slice(&offset.to_le_bytes());
        let at = self.path_start as usize;
        self.buf.splice(at..at, entry);
        self.path_start += ID_ENTRY_SIZE as u32;
        self.prop_start += ID_ENTRY_SIZE as u32;

        let mut payload = Vec::with_capacity(4 + ids.len() * 8);
        payload.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        let at = self.prop_start as usize;
        self.buf.splice(at..at, payload);
        self.prop_start += (4 + ids.len() * 8) as u32;
    }

    /// Appends a property value, encoded in place behind its length prefix.
    pub fn push_property(&mut self, value: &PropertyValue) {
        let prefix = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        value.write_bytes(&mut self.buf);
        let len = (self.buf.len() - prefix - 4) as u32;
        self.buf[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// The encoded (length-prefixed) property slots, in index order.
    fn raw_properties(&self) -> impl Iterator<Item = &[u8]> {
        raw_slots(self.prop_section())
    }

    /// The encoded (length-prefixed) bytes of the property at `index`.
    pub(crate) fn raw_property(&self, index: usize) -> &[u8] {
        self.raw_properties()
            .nth(index)
            .expect("property index within the layout")
    }

    /// Where each of the property slots `0..count` starts within propData,
    /// found in one walk over the length prefixes. For a reader of several
    /// properties of one row ([`Embedding::raw_property_at`]), which would
    /// otherwise walk from the front once per property.
    pub(crate) fn property_offsets(&self, count: usize, offsets: &mut Vec<usize>) {
        offsets.clear();
        let mut next = 0;
        offsets.extend(self.raw_properties().take(count).map(|slot| {
            let start = next;
            next += slot.len();
            start
        }));
        assert_eq!(offsets.len(), count, "property index within the layout");
    }

    /// The encoded (length-prefixed) property slot that starts at `offset`
    /// of propData, as located by [`Embedding::property_offsets`].
    pub(crate) fn raw_property_at(&self, offset: usize) -> &[u8] {
        raw_slots(&self.prop_section()[offset..])
            .next()
            .expect("offset of a property slot")
    }

    fn entry_payload(&self, column: usize) -> (u8, u64) {
        let start = column * ID_ENTRY_SIZE;
        assert!(
            start + ID_ENTRY_SIZE <= self.path_start as usize,
            "column {column} out of bounds ({} columns)",
            self.columns()
        );
        let flag = self.buf[start];
        let payload = u64::from_le_bytes(
            self.buf[start + 1..start + ID_ENTRY_SIZE]
                .try_into()
                .expect("fixed width"),
        );
        (flag, payload)
    }

    /// `true` when the column holds a path.
    pub fn is_path(&self, column: usize) -> bool {
        self.entry_payload(column).0 == FLAG_PATH
    }

    /// The identifier in `column`. Panics if the column holds a path.
    pub fn id(&self, column: usize) -> u64 {
        let (flag, payload) = self.entry_payload(column);
        assert_eq!(flag, FLAG_ID, "column {column} holds a path, not an id");
        payload
    }

    /// Byte range of `column`'s path payload (count prefix + ids) within
    /// the pathData section.
    fn path_payload_range(&self, offset: usize) -> (usize, usize) {
        let paths = self.path_section();
        let count = u32::from_le_bytes(paths[offset..offset + 4].try_into().expect("length prefix"))
            as usize;
        (count, offset + 4)
    }

    /// The path identifiers in `column`. Panics if the column holds an id.
    pub fn path(&self, column: usize) -> Vec<u64> {
        self.path_iter(column).collect()
    }

    /// Number of identifiers in `column`'s path, without decoding them.
    pub fn path_len(&self, column: usize) -> usize {
        let (flag, payload) = self.entry_payload(column);
        assert_eq!(flag, FLAG_PATH, "column {column} holds an id, not a path");
        self.path_payload_range(payload as usize).0
    }

    /// Iterates `column`'s path identifiers without allocating. Panics if
    /// the column holds an id.
    pub fn path_iter(&self, column: usize) -> impl Iterator<Item = u64> + '_ {
        let (flag, payload) = self.entry_payload(column);
        assert_eq!(flag, FLAG_PATH, "column {column} holds an id, not a path");
        let (count, ids_at) = self.path_payload_range(payload as usize);
        let paths = self.path_section();
        (0..count).map(move |i| {
            let start = ids_at + i * 8;
            u64::from_le_bytes(paths[start..start + 8].try_into().expect("id"))
        })
    }

    /// The decoded entry in `column`.
    pub fn entry(&self, column: usize) -> Entry {
        if self.is_path(column) {
            Entry::Path(self.path(column))
        } else {
            Entry::Id(self.id(column))
        }
    }

    /// Number of property slots.
    pub fn property_count(&self) -> usize {
        self.raw_properties().count()
    }

    /// The property value at `index`. Walks length prefixes (linear in the
    /// index, as in the paper).
    pub fn property(&self, index: usize) -> PropertyValue {
        let encoded = self.raw_property(index);
        PropertyValue::from_bytes(&encoded[4..]).expect("embedding property bytes are well-formed")
    }

    /// Merges `other` into `self` (the join operation): appends all of
    /// `other`'s columns except those in `skip_columns` (the join columns,
    /// already present on the left) and all its properties. Allocates the
    /// exact output size once; see [`Embedding::merge_into`] for the
    /// allocation-free kernel.
    pub fn merge(&self, other: &Embedding, skip_columns: &[usize]) -> Embedding {
        let mut out = Embedding::new();
        self.merge_into(other, skip_columns, &mut out);
        out
    }

    /// The merge kernel: writes `self ⋈ other` into `out`, reusing `out`'s
    /// buffer. Sizes every section exactly (reading only the fixed-width
    /// entries and path count prefixes of `other`), then copies each
    /// section with raw extends — kept path payloads move as single
    /// `memcpy`s and only their 8-byte offsets are rebased. No per-column
    /// or per-path allocation happens; `out` grows at most once.
    pub fn merge_into(&self, other: &Embedding, skip_columns: &[usize], out: &mut Embedding) {
        // Pass 1: exact size of the kept part of `other`.
        let mut kept_id_bytes = 0usize;
        let mut kept_path_bytes = 0usize;
        for column in 0..other.columns() {
            if skip_columns.contains(&column) {
                continue;
            }
            kept_id_bytes += ID_ENTRY_SIZE;
            let (flag, payload) = other.entry_payload(column);
            if flag == FLAG_PATH {
                let (count, _) = other.path_payload_range(payload as usize);
                kept_path_bytes += 4 + count * 8;
            }
        }
        let other_props = other.prop_section();
        let total = self.buf.len() + kept_id_bytes + kept_path_bytes + other_props.len();

        out.buf.clear();
        out.buf.reserve(total);

        // idData: left entries verbatim, kept right entries with rebased
        // path offsets.
        out.buf.extend_from_slice(self.id_section());
        let left_path_len = (self.prop_start - self.path_start) as u64;
        let mut appended_path_bytes = 0u64;
        for column in 0..other.columns() {
            if skip_columns.contains(&column) {
                continue;
            }
            let (flag, payload) = other.entry_payload(column);
            if flag == FLAG_ID {
                let start = column * ID_ENTRY_SIZE;
                out.buf
                    .extend_from_slice(&other.buf[start..start + ID_ENTRY_SIZE]);
            } else {
                out.buf.push(FLAG_PATH);
                out.buf
                    .extend_from_slice(&(left_path_len + appended_path_bytes).to_le_bytes());
                let (count, _) = other.path_payload_range(payload as usize);
                appended_path_bytes += 4 + count as u64 * 8;
            }
        }
        out.path_start = (self.path_start as usize + kept_id_bytes) as u32;

        // pathData: left payloads verbatim, kept right payloads as raw
        // ranges in column order (matching the offsets written above).
        out.buf.extend_from_slice(self.path_section());
        for column in 0..other.columns() {
            if skip_columns.contains(&column) {
                continue;
            }
            let (flag, payload) = other.entry_payload(column);
            if flag == FLAG_PATH {
                let (count, ids_at) = other.path_payload_range(payload as usize);
                let paths = other.path_section();
                out.buf
                    .extend_from_slice(&paths[ids_at - 4..ids_at + count * 8]);
            }
        }
        out.prop_start =
            (out.path_start as usize + self.path_section().len() + kept_path_bytes) as u32;

        // propData: both sides verbatim.
        out.buf.extend_from_slice(self.prop_section());
        out.buf.extend_from_slice(other_props);
        debug_assert_eq!(out.buf.len(), total);
    }

    /// Extends the embedding by one path column and (optionally) one id
    /// column — the expand step's emit — in a single exact-size allocation
    /// instead of clone + push_path + push_id.
    pub fn extend_with_path_and_id(&self, via: &[u64], end: Option<u64>) -> Embedding {
        let new_entries = ID_ENTRY_SIZE * (1 + usize::from(end.is_some()));
        let payload_bytes = 4 + via.len() * 8;
        let mut buf = Vec::with_capacity(self.buf.len() + new_entries + payload_bytes);

        buf.extend_from_slice(self.id_section());
        buf.push(FLAG_PATH);
        buf.extend_from_slice(&((self.prop_start - self.path_start) as u64).to_le_bytes());
        if let Some(end) = end {
            buf.push(FLAG_ID);
            buf.extend_from_slice(&end.to_le_bytes());
        }
        let path_start = (self.path_start as usize + new_entries) as u32;

        buf.extend_from_slice(self.path_section());
        buf.extend_from_slice(&(via.len() as u32).to_le_bytes());
        for id in via {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        let prop_start = (path_start as usize + self.path_section().len() + payload_bytes) as u32;

        buf.extend_from_slice(self.prop_section());
        Embedding {
            buf,
            path_start,
            prop_start,
        }
    }

    /// All identifiers bound by the embedding, with path contents expanded.
    /// `vertex_columns` / `edge_columns` / `path_columns` select what to
    /// visit; path entries alternate edge, vertex, edge, ... identifiers.
    /// Does not allocate beyond what `out` needs to grow.
    pub fn collect_ids(&self, columns: &[usize], out: &mut Vec<u64>) {
        for &column in columns {
            let (flag, payload) = self.entry_payload(column);
            if flag == FLAG_ID {
                out.push(payload);
            } else {
                out.extend(self.path_iter(column));
            }
        }
    }
}

/// Splits propData (or a tail of it that starts at a slot) into its
/// length-prefixed slots.
fn raw_slots(mut rest: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let prefix = rest.first_chunk::<4>()?;
        let (slot, tail) = rest.split_at(4 + u32::from_le_bytes(*prefix) as usize);
        rest = tail;
        Some(slot)
    })
}

impl Data for Embedding {
    fn byte_size(&self) -> usize {
        12 + self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_columns_roundtrip() {
        let mut e = Embedding::new();
        e.push_id(10);
        e.push_id(u64::MAX);
        assert_eq!(e.columns(), 2);
        assert_eq!(e.id(0), 10);
        assert_eq!(e.id(1), u64::MAX);
        assert!(!e.is_path(0));
    }

    #[test]
    fn paper_example_layout() {
        // Second row of Table 2b: fv(p1)=10, path via [5,20,7], fv(p2)=30,
        // properties Alice / Bob.
        let mut e = Embedding::new();
        e.push_id(10);
        e.push_path(&[5, 20, 7]);
        e.push_id(30);
        e.push_property(&PropertyValue::String("Alice".into()));
        e.push_property(&PropertyValue::String("Bob".into()));

        assert_eq!(e.columns(), 3);
        assert_eq!(e.entry(0), Entry::Id(10));
        assert_eq!(e.entry(1), Entry::Path(vec![5, 20, 7]));
        assert_eq!(e.entry(2), Entry::Id(30));
        assert_eq!(e.property_count(), 2);
        assert_eq!(e.property(0), PropertyValue::String("Alice".into()));
        assert_eq!(e.property(1), PropertyValue::String("Bob".into()));
    }

    #[test]
    fn multiple_paths_use_offsets() {
        let mut e = Embedding::new();
        e.push_path(&[1, 2, 3]);
        e.push_path(&[]);
        e.push_path(&[9]);
        assert_eq!(e.path(0), vec![1, 2, 3]);
        assert_eq!(e.path(1), Vec::<u64>::new());
        assert_eq!(e.path(2), vec![9]);
        assert_eq!(e.path_len(0), 3);
        assert_eq!(e.path_len(1), 0);
        assert_eq!(e.path_iter(2).collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn interleaved_pushes_keep_sections_consistent() {
        // Pushing ids/paths/properties in arbitrary order must keep the
        // single-buffer sections delimited correctly.
        let mut e = Embedding::new();
        e.push_property(&PropertyValue::Long(1));
        e.push_id(10);
        e.push_path(&[7, 8]);
        e.push_property(&PropertyValue::Long(2));
        e.push_id(30);
        assert_eq!(e.columns(), 3);
        assert_eq!(e.id(0), 10);
        assert_eq!(e.path(1), vec![7, 8]);
        assert_eq!(e.id(2), 30);
        assert_eq!(e.property(0), PropertyValue::Long(1));
        assert_eq!(e.property(1), PropertyValue::Long(2));
    }

    #[test]
    fn merge_appends_and_skips_join_columns() {
        let mut left = Embedding::new();
        left.push_id(1);
        left.push_id(2);
        left.push_property(&PropertyValue::Long(100));

        let mut right = Embedding::new();
        right.push_id(2); // join column — skipped
        right.push_id(3);
        right.push_property(&PropertyValue::Long(200));

        let merged = left.merge(&right, &[0]);
        assert_eq!(merged.columns(), 3);
        assert_eq!(merged.id(0), 1);
        assert_eq!(merged.id(1), 2);
        assert_eq!(merged.id(2), 3);
        assert_eq!(merged.property_count(), 2);
        assert_eq!(merged.property(1), PropertyValue::Long(200));
    }

    #[test]
    fn merge_rebases_path_offsets() {
        let mut left = Embedding::new();
        left.push_path(&[1, 2]);
        left.push_id(7);

        let mut right = Embedding::new();
        right.push_id(7);
        right.push_path(&[3, 4, 5]);

        let merged = left.merge(&right, &[0]);
        assert_eq!(merged.columns(), 3);
        assert_eq!(merged.path(0), vec![1, 2]);
        assert_eq!(merged.id(1), 7);
        assert_eq!(merged.path(2), vec![3, 4, 5]);
    }

    #[test]
    fn merge_into_reuses_scratch_and_matches_merge() {
        let mut left = Embedding::new();
        left.push_path(&[1, 2]);
        left.push_id(7);
        left.push_property(&PropertyValue::String("a".into()));

        let mut right = Embedding::new();
        right.push_id(7);
        right.push_path(&[3]);
        right.push_property(&PropertyValue::String("b".into()));

        let mut scratch = Embedding::new();
        // Pre-dirty the scratch to prove it is fully overwritten.
        left.merge_into(&left, &[], &mut scratch);
        left.merge_into(&right, &[0], &mut scratch);
        assert_eq!(scratch, left.merge(&right, &[0]));
        assert_eq!(scratch.path(0), vec![1, 2]);
        assert_eq!(scratch.path(2), vec![3]);
        assert_eq!(scratch.property(1), PropertyValue::String("b".into()));
    }

    #[test]
    fn extend_with_path_and_id_matches_pushes() {
        let mut base = Embedding::new();
        base.push_id(10);
        base.push_path(&[4, 5]);
        base.push_property(&PropertyValue::Long(9));

        let mut expected = base.clone();
        expected.push_path(&[6, 7, 8]);
        expected.push_id(42);
        assert_eq!(base.extend_with_path_and_id(&[6, 7, 8], Some(42)), expected);

        let mut open = base.clone();
        open.push_path(&[6]);
        assert_eq!(base.extend_with_path_and_id(&[6], None), open);
    }

    #[test]
    fn collect_ids_expands_paths() {
        let mut e = Embedding::new();
        e.push_id(10);
        e.push_path(&[5, 20, 7]);
        e.push_id(30);
        let mut ids = Vec::new();
        e.collect_ids(&[0, 1, 2], &mut ids);
        assert_eq!(ids, vec![10, 5, 20, 7, 30]);
        ids.clear();
        e.collect_ids(&[2], &mut ids);
        assert_eq!(ids, vec![30]);
    }

    #[test]
    fn properties_of_all_types_roundtrip() {
        let values = [
            PropertyValue::Null,
            PropertyValue::Boolean(true),
            PropertyValue::Int(-1),
            PropertyValue::Long(1 << 40),
            PropertyValue::Double(2.5),
            PropertyValue::String("Uni Leipzig".into()),
            PropertyValue::List(vec![PropertyValue::Int(1)]),
        ];
        let mut e = Embedding::new();
        for v in &values {
            e.push_property(v);
        }
        for (i, v) in values.iter().enumerate() {
            assert_eq!(&e.property(i), v, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_column_panics() {
        let e = Embedding::new();
        let _ = e.id(0);
    }

    #[test]
    #[should_panic(expected = "holds a path")]
    fn reading_path_as_id_panics() {
        let mut e = Embedding::new();
        e.push_path(&[1]);
        let _ = e.id(0);
    }

    #[test]
    fn byte_size_tracks_payload() {
        let mut e = Embedding::new();
        let empty = e.byte_size();
        e.push_id(1);
        assert_eq!(e.byte_size(), empty + ID_ENTRY_SIZE);
        e.push_path(&[1, 2]);
        assert_eq!(e.byte_size(), empty + 2 * ID_ENTRY_SIZE + 4 + 16);
    }
}
