//! Embedding meta data: the mapping between query variables/properties and
//! embedding column/property indices.
//!
//! The meta data is maintained by the query operators at *plan* time and is
//! deliberately **not** part of the embedding itself (paper Section 3.3) —
//! every embedding of a dataset shares the same layout, so shipping the
//! mapping with each row would waste network bandwidth.

use std::borrow::Cow;

use gradoop_epgm::{Label, PropertyValue};

use crate::embedding::EmbeddingRead;

/// What kind of element a column binds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryType {
    /// A vertex identifier.
    Vertex,
    /// An edge identifier.
    Edge,
    /// A variable-length path (edge, vertex, edge, ... identifiers).
    Path,
}

/// Column/property layout shared by all embeddings of a dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EmbeddingMetaData {
    /// Column index → (variable, type).
    entries: Vec<(String, EntryType)>,
    /// Property index → (variable, property key).
    properties: Vec<(String, String)>,
}

impl EmbeddingMetaData {
    /// Empty layout.
    pub fn new() -> Self {
        EmbeddingMetaData::default()
    }

    /// Appends a column for `variable`, returning its index.
    pub fn add_entry(&mut self, variable: &str, entry_type: EntryType) -> usize {
        debug_assert!(
            self.column(variable).is_none(),
            "variable {variable} already has a column"
        );
        self.entries.push((variable.to_string(), entry_type));
        self.entries.len() - 1
    }

    /// Appends a property slot for `variable.key`, returning its index.
    pub fn add_property(&mut self, variable: &str, key: &str) -> usize {
        self.properties
            .push((variable.to_string(), key.to_string()));
        self.properties.len() - 1
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.entries.len()
    }

    /// Number of property slots.
    pub fn property_count(&self) -> usize {
        self.properties.len()
    }

    /// Column index of `variable`.
    pub fn column(&self, variable: &str) -> Option<usize> {
        self.entries.iter().position(|(v, _)| v == variable)
    }

    /// Type of the column bound to `variable`.
    pub fn entry_type(&self, variable: &str) -> Option<EntryType> {
        self.entries
            .iter()
            .find(|(v, _)| v == variable)
            .map(|(_, t)| *t)
    }

    /// Property index of `variable.key`.
    pub fn property_index(&self, variable: &str, key: &str) -> Option<usize> {
        self.properties
            .iter()
            .position(|(v, k)| v == variable && k == key)
    }

    /// `true` if `variable` has a column.
    pub fn is_bound(&self, variable: &str) -> bool {
        self.column(variable).is_some()
    }

    /// Iterates (variable, type) per column.
    pub fn entries(&self) -> impl Iterator<Item = (&str, EntryType)> {
        self.entries.iter().map(|(v, t)| (v.as_str(), *t))
    }

    /// Iterates (variable, key) per property slot.
    pub fn properties(&self) -> impl Iterator<Item = (&str, &str)> {
        self.properties
            .iter()
            .map(|(v, k)| (v.as_str(), k.as_str()))
    }

    /// Columns holding vertex identifiers.
    pub fn vertex_columns(&self) -> Vec<usize> {
        self.columns_of(EntryType::Vertex)
    }

    /// Columns holding edge identifiers.
    pub fn edge_columns(&self) -> Vec<usize> {
        self.columns_of(EntryType::Edge)
    }

    /// Columns holding paths.
    pub fn path_columns(&self) -> Vec<usize> {
        self.columns_of(EntryType::Path)
    }

    fn columns_of(&self, wanted: EntryType) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, (_, t))| *t == wanted)
            .map(|(i, _)| i)
            .collect()
    }

    /// The layout resulting from merging a `right` embedding into a `left`
    /// one, skipping `skip_right_columns` (the join columns). Both result
    /// vectors are allocated at their exact final capacity up front.
    pub fn merge(&self, right: &EmbeddingMetaData, skip_right_columns: &[usize]) -> Self {
        let kept = (0..right.entries.len())
            .filter(|column| !skip_right_columns.contains(column))
            .count();
        let mut entries = Vec::with_capacity(self.entries.len() + kept);
        entries.extend(self.entries.iter().cloned());
        entries.extend(
            right
                .entries
                .iter()
                .enumerate()
                .filter(|(column, _)| !skip_right_columns.contains(column))
                .map(|(_, entry)| entry.clone()),
        );
        let mut properties = Vec::with_capacity(self.properties.len() + right.properties.len());
        properties.extend(self.properties.iter().cloned());
        properties.extend(right.properties.iter().cloned());
        EmbeddingMetaData {
            entries,
            properties,
        }
    }
}

/// [`gradoop_cypher::Bindings`] view of one embedding under a layout, used
/// to evaluate cross-variable predicates on embeddings — committed rows and
/// the row a kernel is still writing alike.
pub struct EmbeddingBindings<'a, R> {
    /// The embedding.
    pub embedding: &'a R,
    /// Its layout.
    pub meta: &'a EmbeddingMetaData,
}

impl<R: EmbeddingRead> gradoop_cypher::Bindings for EmbeddingBindings<'_, R> {
    fn property(&self, variable: &str, key: &str) -> Option<Cow<'_, PropertyValue>> {
        let index = self.meta.property_index(variable, key)?;
        let value = self.embedding.property(index);
        (!value.is_null()).then_some(Cow::Owned(value))
    }

    fn label(&self, _variable: &str) -> Option<Label> {
        // Labels are resolved by the element-centric leaf operators; they
        // are not materialized into embeddings.
        None
    }

    fn element_id(&self, variable: &str) -> Option<u64> {
        let column = self.meta.column(variable)?;
        (!self.embedding.is_path(column)).then(|| self.embedding.id(column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_meta_data_example() {
        // {p1: 0, p1.name: 0} — variable p1 at column 0, its name at
        // property 0.
        let mut meta = EmbeddingMetaData::new();
        assert_eq!(meta.add_entry("p1", EntryType::Vertex), 0);
        assert_eq!(meta.add_property("p1", "name"), 0);
        assert_eq!(meta.column("p1"), Some(0));
        assert_eq!(meta.property_index("p1", "name"), Some(0));
        assert_eq!(meta.property_index("p1", "age"), None);
        assert_eq!(meta.column("p2"), None);
    }

    #[test]
    fn column_type_queries() {
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("a", EntryType::Vertex);
        meta.add_entry("e", EntryType::Edge);
        meta.add_entry("p", EntryType::Path);
        meta.add_entry("b", EntryType::Vertex);
        assert_eq!(meta.vertex_columns(), vec![0, 3]);
        assert_eq!(meta.edge_columns(), vec![1]);
        assert_eq!(meta.path_columns(), vec![2]);
        assert_eq!(meta.entry_type("e"), Some(EntryType::Edge));
    }

    #[test]
    fn merge_mirrors_embedding_merge() {
        let mut left = EmbeddingMetaData::new();
        left.add_entry("a", EntryType::Vertex);
        left.add_entry("e", EntryType::Edge);
        left.add_property("a", "name");

        let mut right = EmbeddingMetaData::new();
        right.add_entry("a", EntryType::Vertex); // join column, skipped
        right.add_entry("b", EntryType::Vertex);
        right.add_property("b", "name");

        let merged = left.merge(&right, &[0]);
        assert_eq!(merged.columns(), 3);
        assert_eq!(merged.column("b"), Some(2));
        assert_eq!(merged.property_index("a", "name"), Some(0));
        assert_eq!(merged.property_index("b", "name"), Some(1));
    }

    #[test]
    fn embedding_bindings_resolve_via_meta() {
        use gradoop_cypher::Bindings;
        let mut meta = EmbeddingMetaData::new();
        meta.add_entry("p1", EntryType::Vertex);
        meta.add_property("p1", "name");
        let mut embedding = crate::embedding::EmbeddingWriter::new();
        embedding.push_id(42);
        embedding.push_property(&PropertyValue::String("Alice".into()));
        let bindings = EmbeddingBindings {
            embedding: &embedding,
            meta: &meta,
        };
        assert_eq!(
            bindings.property("p1", "name").as_deref(),
            Some(&PropertyValue::String("Alice".into()))
        );
        assert_eq!(bindings.property("p1", "age"), None);
        assert_eq!(bindings.element_id("p1"), Some(42));
        assert_eq!(bindings.element_id("p2"), None);
        assert_eq!(bindings.label("p1"), None);
    }
}
