//! The join kernel's allocation budget: probing a pair with
//! [`Embedding::merge_into`] into a reused scratch row plus
//! [`MorphismCheck::check`] with a reused id buffer costs exactly one heap
//! allocation per accepted pair (the clone of the survivor) and none per
//! rejected pair.
//!
//! The counter is a wrapping global allocator, which is why the test has a
//! file of its own; it counts per thread, so the test runner's own thread
//! cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use gradoop_core::{Embedding, EmbeddingMetaData, EntryType, MatchingConfig, MorphismCheck};
use gradoop_epgm::PropertyValue;

struct CountingAllocator;

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// plain thread-local integer.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A two-column row `(vertex, vertex)` carrying one property.
fn row(first: u64, second: u64, property: PropertyValue) -> Embedding {
    let mut embedding = Embedding::new();
    embedding.push_id(first);
    embedding.push_id(second);
    embedding.push_property(&property);
    embedding
}

#[test]
fn fused_join_kernel_allocates_once_per_accepted_pair_and_never_per_rejected_pair() {
    let left = row(1, 2, PropertyValue::String("Alice".into()));
    let right = row(1, 3, PropertyValue::Long(1984));
    // Joined on column 0 this repeats vertex 2, which isomorphism rejects.
    let duplicate = row(1, 2, PropertyValue::Long(7));
    let mut meta = EmbeddingMetaData::new();
    meta.add_entry("a", EntryType::Vertex);
    meta.add_entry("b", EntryType::Vertex);
    meta.add_entry("c", EntryType::Vertex);
    meta.add_property("a", "name");
    meta.add_property("c", "yob");
    let check = MorphismCheck::new(&meta, &MatchingConfig::isomorphism());

    // Warm the scratch buffers so their capacity is settled.
    let mut scratch = Embedding::new();
    let mut ids = Vec::new();
    left.merge_into(&right, &[0], &mut scratch);
    assert!(check.check(&scratch, &mut ids));

    const PAIRS: u64 = 10_000;
    let before = allocations();
    for _ in 0..PAIRS {
        left.merge_into(&right, &[0], &mut scratch);
        assert!(check.check(&scratch, &mut ids));
        black_box(scratch.clone());
    }
    let accepted = allocations() - before;

    let before = allocations();
    for _ in 0..PAIRS {
        left.merge_into(&duplicate, &[0], &mut scratch);
        assert!(!check.check(&scratch, &mut ids));
    }
    let rejected = allocations() - before;

    assert_eq!(accepted, PAIRS, "one allocation per output embedding");
    assert_eq!(rejected, 0, "rejected pairs must not allocate");
}
