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
//! The three sections of a row sit back-to-back (`[idData][pathData]
//! [propData]`, delimited by two offsets), and rows sit back-to-back in
//! shared append-only chunks (`chunk.rs`, 64 KiB each). A row is written
//! once, in the calling thread's scratch [`EmbeddingWriter`] — the merge
//! kernel [`Embedding::merge_into`], [`EmbeddingWriter::extend`] and the
//! leaf row [`Embedding::leaf`] write there — then checked, and only a row
//! that survives is committed to the thread's current chunk with one
//! `memcpy` ([`Embedding::write`]). A rejected row therefore costs nothing,
//! an emitted row costs no allocation of its own (one per 64 KiB of rows),
//! and an [`Embedding`] is a 24-byte handle — the chunk's `Arc`, the row's
//! range and its two section offsets — that clones with a reference-count
//! bump. Committed rows and the scratch row are read through one API,
//! [`EmbeddingRead`].

use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};

use gradoop_dataflow::Data;
use gradoop_epgm::{Properties, PropertyValue};

use super::chunk::{self, ChunkRow};

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

/// Read access to one row's layout, shared by committed rows
/// ([`Embedding`]) and the row being written ([`EmbeddingWriter`]), so a
/// morphism check or a predicate reads either the same way.
///
/// `bytes()[..path_start()]` is the idData section,
/// `bytes()[path_start()..prop_start()]` the pathData section and
/// `bytes()[prop_start()..]` the propData section.
pub trait EmbeddingRead {
    /// The row's bytes.
    fn bytes(&self) -> &[u8];
    /// Where the pathData section starts.
    fn path_start(&self) -> usize;
    /// Where the propData section starts.
    fn prop_start(&self) -> usize;

    /// The idData section.
    fn id_data(&self) -> &[u8] {
        &self.bytes()[..self.path_start()]
    }

    /// The pathData section.
    fn path_data(&self) -> &[u8] {
        &self.bytes()[self.path_start()..self.prop_start()]
    }

    /// The propData section.
    fn prop_data(&self) -> &[u8] {
        &self.bytes()[self.prop_start()..]
    }

    /// Number of `idData` entries (columns).
    fn columns(&self) -> usize {
        self.path_start() / ID_ENTRY_SIZE
    }

    /// `true` when the column holds a path.
    fn is_path(&self, column: usize) -> bool {
        entry_payload(self, column).0 == FLAG_PATH
    }

    /// The identifier in `column`. Panics if the column holds a path.
    fn id(&self, column: usize) -> u64 {
        let (flag, payload) = entry_payload(self, column);
        assert_eq!(flag, FLAG_ID, "column {column} holds a path, not an id");
        payload
    }

    /// The path identifiers in `column`. Panics if the column holds an id.
    fn path(&self, column: usize) -> Vec<u64> {
        self.path_iter(column).collect()
    }

    /// Number of identifiers in `column`'s path, without decoding them.
    fn path_len(&self, column: usize) -> usize {
        path_payload(self, column).0
    }

    /// Iterates `column`'s path identifiers without allocating. Panics if
    /// the column holds an id.
    fn path_iter(&self, column: usize) -> impl Iterator<Item = u64> + '_ {
        let (count, ids_at) = path_payload(self, column);
        let paths = self.path_data();
        (0..count).map(move |i| {
            let start = ids_at + i * 8;
            u64::from_le_bytes(paths[start..start + 8].try_into().expect("id"))
        })
    }

    /// The decoded entry in `column`.
    fn entry(&self, column: usize) -> Entry {
        if self.is_path(column) {
            Entry::Path(self.path(column))
        } else {
            Entry::Id(self.id(column))
        }
    }

    /// Number of property slots.
    fn property_count(&self) -> usize {
        raw_slots(self.prop_data()).count()
    }

    /// The property value at `index`. Walks length prefixes (linear in the
    /// index, as in the paper).
    fn property(&self, index: usize) -> PropertyValue {
        PropertyValue::from_bytes(property_bytes(self, index))
            .expect("embedding property bytes are well-formed")
    }

    /// `true` when the property at `index` is `NULL`. Reads the slot's type
    /// tag without decoding the value, so it allocates nothing.
    fn property_is_null(&self, index: usize) -> bool {
        PropertyValue::encodes_null(property_bytes(self, index))
    }

    /// Where each of the property slots `0..count` starts within propData,
    /// found in one walk over the length prefixes. For a reader of several
    /// properties of one row ([`EmbeddingRead::raw_property_at`]), which
    /// would otherwise walk from the front once per property.
    fn property_offsets(&self, count: usize, offsets: &mut Vec<usize>) {
        offsets.clear();
        let mut next = 0;
        offsets.extend(raw_slots(self.prop_data()).take(count).map(|slot| {
            let start = next;
            next += slot.len();
            start
        }));
        assert_eq!(offsets.len(), count, "property index within the layout");
    }

    /// The encoded (length-prefixed) property slot that starts at `offset`
    /// of propData, as located by [`EmbeddingRead::property_offsets`].
    fn raw_property_at(&self, offset: usize) -> &[u8] {
        raw_slots(&self.prop_data()[offset..])
            .next()
            .expect("offset of a property slot")
    }

    /// All identifiers bound by the embedding, with path contents expanded.
    /// `vertex_columns` / `edge_columns` / `path_columns` select what to
    /// visit; path entries alternate edge, vertex, edge, ... identifiers.
    /// Does not allocate beyond what `out` needs to grow.
    fn collect_ids(&self, columns: &[usize], out: &mut Vec<u64>) {
        for &column in columns {
            let (flag, payload) = entry_payload(self, column);
            if flag == FLAG_ID {
                out.push(payload);
            } else {
                out.extend(self.path_iter(column));
            }
        }
    }
}

/// The flag and the 64-bit payload of `column`'s idData entry.
fn entry_payload<R: EmbeddingRead + ?Sized>(row: &R, column: usize) -> (u8, u64) {
    let ids = row.id_data();
    let start = column * ID_ENTRY_SIZE;
    assert!(
        start + ID_ENTRY_SIZE <= ids.len(),
        "column {column} out of bounds ({} columns)",
        row.columns()
    );
    let payload = u64::from_le_bytes(
        ids[start + 1..start + ID_ENTRY_SIZE]
            .try_into()
            .expect("fixed width"),
    );
    (ids[start], payload)
}

/// `column`'s path: its id count and where its ids start within pathData.
/// Panics if the column holds an id.
fn path_payload<R: EmbeddingRead + ?Sized>(row: &R, column: usize) -> (usize, usize) {
    let (flag, offset) = entry_payload(row, column);
    assert_eq!(flag, FLAG_PATH, "column {column} holds an id, not a path");
    let offset = offset as usize;
    let prefix = &row.path_data()[offset..offset + 4];
    let count = u32::from_le_bytes(prefix.try_into().expect("length prefix")) as usize;
    (count, offset + 4)
}

/// The encoded value of property slot `index`, without its length prefix.
/// Walks the length prefixes before it.
fn property_bytes<R: EmbeddingRead + ?Sized>(row: &R, index: usize) -> &[u8] {
    let slot = raw_slots(row.prop_data())
        .nth(index)
        .expect("property index within the layout");
    &slot[4..]
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

/// An embedding: one (partial) match of the query graph, committed to a
/// shared chunk and immutable from then on.
#[derive(Clone)]
pub struct Embedding {
    row: ChunkRow,
    path_start: u32,
    prop_start: u32,
}

thread_local! {
    /// This thread's scratch row for [`Embedding::write`].
    static SCRATCH: RefCell<EmbeddingWriter> = const { RefCell::new(EmbeddingWriter::new()) };
}

impl Embedding {
    /// Writes one row in this thread's scratch writer (cleared first) and
    /// commits it if `write` returns `true` — the way every kernel produces
    /// its rows: a row `write` rejects is never committed and costs nothing.
    pub fn write(write: impl FnOnce(&mut EmbeddingWriter) -> bool) -> Option<Embedding> {
        let run = move |row: &mut EmbeddingWriter| {
            row.clear();
            write(row).then(|| row.commit())
        };
        SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut row) => run(&mut row),
            // Only reachable if `write` itself writes a row.
            Err(_) => run(&mut EmbeddingWriter::new()),
        })
    }

    /// The row a leaf operator emits — `ids` as identifier columns, then the
    /// value of each of `keys` in `properties` (`NULL` for a missing key).
    /// Byte for byte what `push_id` per id followed by `push_property` per
    /// key builds.
    pub fn leaf(ids: &[u64], properties: &Properties, keys: &[String]) -> Embedding {
        Embedding::write(|row| {
            for &id in ids {
                row.push_id(id);
            }
            for key in keys {
                row.push_property(properties.get(key).unwrap_or(&PropertyValue::Null));
            }
            true
        })
        .expect("a leaf row is always committed")
    }

    /// The same rows, partition by partition, copied into chunks of their
    /// own that no thread appends to (see `chunk::Packer`): how rows that
    /// outlive their query are kept.
    pub(crate) fn packed(partitions: &[Vec<Embedding>]) -> Vec<Vec<Embedding>> {
        let total = partitions.iter().flatten().map(|row| row.bytes().len());
        let mut packer = chunk::Packer::new(total.sum());
        partitions
            .iter()
            .map(|rows| {
                rows.iter()
                    .map(|row| Embedding {
                        row: packer.commit(row.bytes()),
                        path_start: row.path_start,
                        prop_start: row.prop_start,
                    })
                    .collect()
            })
            .collect()
    }

    /// Merges `other` into `self` (the join operation): appends all of
    /// `other`'s columns except those in `skip_columns` (the join columns,
    /// already present on the left) and all its properties, and commits the
    /// result. See [`Embedding::merge_into`] for the kernel.
    pub fn merge(&self, other: &Embedding, skip_columns: &[usize]) -> Embedding {
        let mut out = EmbeddingWriter::new();
        self.merge_into(other, skip_columns, &mut out);
        out.commit()
    }

    /// The merge kernel: writes `self ⋈ other` into `out`, reusing `out`'s
    /// buffer. Sizes every section exactly (reading only the fixed-width
    /// entries and path count prefixes of `other`), then copies each
    /// section with raw extends — kept path payloads move as single
    /// `memcpy`s and only their 8-byte offsets are rebased. No per-column
    /// or per-path allocation happens; `out` grows at most once.
    pub fn merge_into(&self, other: &Embedding, skip_columns: &[usize], out: &mut EmbeddingWriter) {
        let kept = || (0..other.columns()).filter(|column| !skip_columns.contains(column));
        // Pass 1: exact size of the kept part of `other`.
        let mut kept_id_bytes = 0usize;
        let mut kept_path_bytes = 0usize;
        for column in kept() {
            kept_id_bytes += ID_ENTRY_SIZE;
            if other.is_path(column) {
                kept_path_bytes += 4 + other.path_len(column) * 8;
            }
        }
        let total = self.bytes().len() + kept_id_bytes + kept_path_bytes + other.prop_data().len();

        let buf = &mut out.buf;
        buf.clear();
        buf.reserve(total);

        // idData: left entries verbatim, kept right entries with rebased
        // path offsets.
        buf.extend_from_slice(self.id_data());
        let mut path_offset = self.path_data().len() as u64;
        for column in kept() {
            if other.is_path(column) {
                buf.push(FLAG_PATH);
                buf.extend_from_slice(&path_offset.to_le_bytes());
                path_offset += 4 + other.path_len(column) as u64 * 8;
            } else {
                let start = column * ID_ENTRY_SIZE;
                buf.extend_from_slice(&other.id_data()[start..start + ID_ENTRY_SIZE]);
            }
        }
        out.path_start = buf.len() as u32;

        // pathData: left payloads verbatim, kept right payloads as raw
        // ranges in column order (matching the offsets written above).
        buf.extend_from_slice(self.path_data());
        for column in kept() {
            if other.is_path(column) {
                let (count, ids_at) = path_payload(other, column);
                buf.extend_from_slice(&other.path_data()[ids_at - 4..ids_at + count * 8]);
            }
        }
        out.prop_start = buf.len() as u32;

        // propData: both sides verbatim.
        buf.extend_from_slice(self.prop_data());
        buf.extend_from_slice(other.prop_data());
        debug_assert_eq!(buf.len(), total);
    }
}

impl EmbeddingRead for Embedding {
    fn bytes(&self) -> &[u8] {
        self.row.bytes()
    }

    fn path_start(&self) -> usize {
        self.path_start as usize
    }

    fn prop_start(&self) -> usize {
        self.prop_start as usize
    }
}

impl PartialEq for Embedding {
    fn eq(&self, other: &Embedding) -> bool {
        (self.path_start, self.prop_start) == (other.path_start, other.prop_start)
            && self.bytes() == other.bytes()
    }
}

impl Eq for Embedding {}

impl Hash for Embedding {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bytes().hash(state);
        self.path_start.hash(state);
        self.prop_start.hash(state);
    }
}

impl fmt::Debug for Embedding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Embedding")
            .field("bytes", &self.bytes())
            .field("path_start", &self.path_start)
            .field("prop_start", &self.prop_start)
            .finish()
    }
}

impl Data for Embedding {
    fn byte_size(&self) -> usize {
        12 + self.bytes().len()
    }
}

/// The row being written: a reusable byte buffer in the embedding layout.
/// [`EmbeddingWriter::commit`] copies it into the calling thread's current
/// chunk as an [`Embedding`]; the writer keeps its buffer for the next row.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EmbeddingWriter {
    buf: Vec<u8>,
    path_start: u32,
    prop_start: u32,
}

impl EmbeddingWriter {
    /// An empty row.
    pub const fn new() -> Self {
        EmbeddingWriter {
            buf: Vec::new(),
            path_start: 0,
            prop_start: 0,
        }
    }

    /// Empties the row, keeping the buffer's capacity.
    fn clear(&mut self) {
        self.buf.clear();
        self.path_start = 0;
        self.prop_start = 0;
    }

    /// Inserts `bytes` at `at`, shifting what follows.
    fn insert(&mut self, at: usize, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.buf[at..].rotate_right(bytes.len());
    }

    /// Appends an identifier column.
    pub fn push_id(&mut self, id: u64) {
        let mut entry = [FLAG_ID; ID_ENTRY_SIZE];
        entry[1..].copy_from_slice(&id.to_le_bytes());
        self.insert(self.path_start as usize, &entry);
        self.path_start += ID_ENTRY_SIZE as u32;
        self.prop_start += ID_ENTRY_SIZE as u32;
    }

    /// Appends a path column holding `ids` (the `via` identifiers).
    pub fn push_path(&mut self, ids: &[u64]) {
        let mut entry = [FLAG_PATH; ID_ENTRY_SIZE];
        entry[1..].copy_from_slice(&u64::from(self.prop_start - self.path_start).to_le_bytes());
        self.insert(self.path_start as usize, &entry);
        self.path_start += ID_ENTRY_SIZE as u32;
        self.prop_start += ID_ENTRY_SIZE as u32;

        let end = self.buf.len();
        self.buf
            .extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            self.buf.extend_from_slice(&id.to_le_bytes());
        }
        let payload = self.buf.len() - end;
        self.buf[self.prop_start as usize..].rotate_right(payload);
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

    /// Writes `base` extended by one path column holding `path` (if any)
    /// and then one identifier column per id of `ids`, in one pass — the
    /// expand step's emit and the intersection's closing edges plus new
    /// vertex.
    pub fn extend(
        &mut self,
        base: &Embedding,
        path: Option<&[u64]>,
        ids: impl IntoIterator<Item = u64>,
    ) {
        let buf = &mut self.buf;
        buf.clear();
        buf.extend_from_slice(base.id_data());
        if path.is_some() {
            buf.push(FLAG_PATH);
            buf.extend_from_slice(&(base.path_data().len() as u64).to_le_bytes());
        }
        for id in ids {
            buf.push(FLAG_ID);
            buf.extend_from_slice(&id.to_le_bytes());
        }
        self.path_start = buf.len() as u32;

        buf.extend_from_slice(base.path_data());
        if let Some(via) = path {
            buf.extend_from_slice(&(via.len() as u32).to_le_bytes());
            for id in via {
                buf.extend_from_slice(&id.to_le_bytes());
            }
        }
        self.prop_start = buf.len() as u32;

        buf.extend_from_slice(base.prop_data());
    }

    /// Commits the row: one `memcpy` into this thread's current chunk.
    pub fn commit(&self) -> Embedding {
        Embedding {
            row: chunk::commit(&self.buf),
            path_start: self.path_start,
            prop_start: self.prop_start,
        }
    }
}

impl EmbeddingRead for EmbeddingWriter {
    fn bytes(&self) -> &[u8] {
        &self.buf
    }

    fn path_start(&self) -> usize {
        self.path_start as usize
    }

    fn prop_start(&self) -> usize {
        self.prop_start as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_columns_roundtrip() {
        let mut e = EmbeddingWriter::new();
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
        let mut e = EmbeddingWriter::new();
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
        let mut e = EmbeddingWriter::new();
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
        let mut e = EmbeddingWriter::new();
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
        let mut left = EmbeddingWriter::new();
        left.push_id(1);
        left.push_id(2);
        left.push_property(&PropertyValue::Long(100));

        let mut right = EmbeddingWriter::new();
        right.push_id(2); // join column — skipped
        right.push_id(3);
        right.push_property(&PropertyValue::Long(200));

        let merged = left.commit().merge(&right.commit(), &[0]);
        assert_eq!(merged.columns(), 3);
        assert_eq!(merged.id(0), 1);
        assert_eq!(merged.id(1), 2);
        assert_eq!(merged.id(2), 3);
        assert_eq!(merged.property_count(), 2);
        assert_eq!(merged.property(1), PropertyValue::Long(200));
    }

    #[test]
    fn merge_rebases_path_offsets() {
        let mut left = EmbeddingWriter::new();
        left.push_path(&[1, 2]);
        left.push_id(7);

        let mut right = EmbeddingWriter::new();
        right.push_id(7);
        right.push_path(&[3, 4, 5]);

        let merged = left.commit().merge(&right.commit(), &[0]);
        assert_eq!(merged.columns(), 3);
        assert_eq!(merged.path(0), vec![1, 2]);
        assert_eq!(merged.id(1), 7);
        assert_eq!(merged.path(2), vec![3, 4, 5]);
    }

    #[test]
    fn merge_into_reuses_scratch_and_matches_merge() {
        let mut left = EmbeddingWriter::new();
        left.push_path(&[1, 2]);
        left.push_id(7);
        left.push_property(&PropertyValue::String("a".into()));

        let mut right = EmbeddingWriter::new();
        right.push_id(7);
        right.push_path(&[3]);
        right.push_property(&PropertyValue::String("b".into()));

        let (left, right) = (left.commit(), right.commit());
        let mut scratch = EmbeddingWriter::new();
        // Pre-dirty the scratch to prove it is fully overwritten.
        left.merge_into(&left, &[], &mut scratch);
        left.merge_into(&right, &[0], &mut scratch);
        assert_eq!(scratch.commit(), left.merge(&right, &[0]));
        assert_eq!(scratch.path(0), vec![1, 2]);
        assert_eq!(scratch.path(2), vec![3]);
        assert_eq!(scratch.property(1), PropertyValue::String("b".into()));
    }

    #[test]
    fn extend_matches_pushes() {
        let mut base = EmbeddingWriter::new();
        base.push_id(10);
        base.push_path(&[4, 5]);
        base.push_property(&PropertyValue::Long(9));
        let committed = base.commit();
        let mut extended = EmbeddingWriter::new();

        let mut expected = base.clone();
        expected.push_path(&[6, 7, 8]);
        expected.push_id(42);
        extended.extend(&committed, Some(&[6, 7, 8]), [42]);
        assert_eq!(extended, expected);

        let mut open = base.clone();
        open.push_path(&[6]);
        extended.extend(&committed, Some(&[6]), None);
        assert_eq!(extended, open);

        let mut closing = base.clone();
        closing.push_id(11);
        closing.push_id(3);
        extended.extend(&committed, None, [11, 3]);
        assert_eq!(extended, closing);
    }

    #[test]
    fn write_commits_only_accepted_rows_and_reads_like_the_writer() {
        let mut expected = EmbeddingWriter::new();
        expected.push_id(7);
        expected.push_path(&[1, 2, 3]);
        expected.push_property(&PropertyValue::String("Alice".into()));
        let written = Embedding::write(|row| {
            *row = expected.clone();
            true
        })
        .unwrap();
        assert_eq!(written.bytes(), expected.bytes());
        assert_eq!(
            (written.path_start(), written.prop_start()),
            (expected.path_start(), expected.prop_start())
        );
        assert_eq!(written.entry(1), expected.entry(1));
        assert_eq!(written.property(0), expected.property(0));
        assert_eq!(written.clone(), written);
        assert_eq!(Embedding::write(|row| row.columns() > 0), None);
    }

    #[test]
    fn collect_ids_expands_paths() {
        let mut e = EmbeddingWriter::new();
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
        let mut e = EmbeddingWriter::new();
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
        let e = EmbeddingWriter::new();
        let _ = e.id(0);
    }

    #[test]
    #[should_panic(expected = "holds a path")]
    fn reading_path_as_id_panics() {
        let mut e = EmbeddingWriter::new();
        e.push_path(&[1]);
        let _ = e.id(0);
    }

    #[test]
    fn byte_size_tracks_payload() {
        let mut e = EmbeddingWriter::new();
        let empty = e.commit().byte_size();
        assert_eq!(empty, 12);
        e.push_id(1);
        assert_eq!(e.commit().byte_size(), empty + ID_ENTRY_SIZE);
        e.push_path(&[1, 2]);
        assert_eq!(e.commit().byte_size(), empty + 2 * ID_ENTRY_SIZE + 4 + 16);
    }

    #[test]
    fn a_handle_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Embedding>(), 24);
    }
}
