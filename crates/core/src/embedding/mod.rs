//! The embedding data structure (paper Section 3.3).
//!
//! An embedding is the engine's row format for intermediate and final query
//! results: a mapping from query variables to graph element identifiers
//! (or paths), plus the property values later predicates and the RETURN
//! clause need. Embeddings are shuffled between workers constantly, so both
//! (de)serialization and read/write access must be cheap — hence the
//! compact three-byte-array layout, with rows packed back to back in shared
//! append-only chunks.

mod chunk;
mod data;
mod meta_data;

pub use chunk::{pinned_chunk_bytes, CHUNK_BYTES};
pub use data::{Embedding, EmbeddingRead, EmbeddingWriter, Entry, ID_ENTRY_SIZE};
pub use meta_data::{EmbeddingBindings, EmbeddingMetaData, EntryType};
