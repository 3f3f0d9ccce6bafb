//! Append-only chunks: where committed embedding rows live.
//!
//! A chunk is a heap buffer of [`CHUNK_BYTES`] bytes. Every thread appends
//! the rows it commits to its own *current* chunk, back to back, and starts
//! a new one when the next row does not fit; a row larger than a chunk gets
//! a chunk of its own, sized to the row. A committed row is a [`ChunkRow`]:
//! an `Arc` on its chunk plus the row's byte range. Cloning a row bumps a
//! reference count, and a chunk is freed with the last row that points into
//! it (or when its thread moves on, if no row does).
//!
//! This is the crate's one module with `unsafe` code. Why it is sound:
//!
//! * A chunk's buffer is allocated once, at its final capacity, and never
//!   moves, grows or shrinks before the chunk is dropped.
//! * Bytes are written only into the free tail `used..capacity` of the
//!   calling thread's current chunk, and only by that thread: the write
//!   cursor `used` lives in a thread-local, never in the shared chunk, and
//!   the write goes through the chunk's raw pointer, never through a
//!   reference.
//! * A written range is committed by moving `used` past it, and a committed
//!   byte is never written again.
//! * A `ChunkRow` is made only by [`commit`], over the range it has just
//!   written, and its fields are private to this module. So every slice a
//!   reader forms covers initialized, committed bytes that no thread writes
//!   any more, and it never overlaps the tail the owning thread writes to.
//! * A row reaches another thread only through an existing happens-before
//!   edge — the worker pool's batch handoff, a channel, a thread join — so
//!   the bytes it covers are visible there.

use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Capacity of a chunk, in bytes. A constant, not a knob.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Bytes of every chunk alive, current or retired.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes of the chunks that are some thread's current chunk.
static CURRENT_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A fixed-capacity byte buffer that rows are appended to.
struct Chunk {
    ptr: NonNull<u8>,
    /// The capacity rows may fill.
    capacity: usize,
    /// The capacity the allocation was made with (at least `capacity`).
    allocated: usize,
}

// SAFETY: a `Chunk` owns its buffer like a `Vec<u8>` does, so moving it to
// another thread is as safe as moving a `Vec`.
unsafe impl Send for Chunk {}
// SAFETY: shared access only reads committed ranges, which are never
// written again (module docs); the one thread that writes the free tail does
// so through the raw pointer, into bytes no reader's slice covers.
unsafe impl Sync for Chunk {}

impl Chunk {
    fn with_capacity(capacity: usize) -> Chunk {
        let mut buffer = std::mem::ManuallyDrop::new(Vec::<u8>::with_capacity(capacity));
        LIVE_BYTES.fetch_add(capacity, Ordering::Relaxed);
        Chunk {
            ptr: NonNull::new(buffer.as_mut_ptr()).expect("a Vec's pointer is never null"),
            capacity,
            allocated: buffer.capacity(),
        }
    }
}

impl Drop for Chunk {
    fn drop(&mut self) {
        LIVE_BYTES.fetch_sub(self.capacity, Ordering::Relaxed);
        // SAFETY: `ptr` and `allocated` are the pointer and capacity of the
        // `Vec<u8>` made in `with_capacity`, which was never freed; a length
        // of 0 means no element is read or dropped.
        drop(unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.allocated) });
    }
}

/// One committed row: its chunk and its byte range there.
#[derive(Clone)]
pub(crate) struct ChunkRow {
    chunk: Arc<Chunk>,
    start: u32,
    end: u32,
}

impl ChunkRow {
    /// The row's bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        let (start, len) = (self.start as usize, (self.end - self.start) as usize);
        // SAFETY: `start..end` is a committed range of the chunk, inside its
        // capacity, initialized by `commit` and never written again; the
        // chunk, and so its buffer, lives at least as long as `self`.
        unsafe { std::slice::from_raw_parts(self.chunk.ptr.as_ptr().add(start), len) }
    }
}

/// A thread's current chunk and its write cursor.
struct Current {
    chunk: Arc<Chunk>,
    used: usize,
}

impl Current {
    fn new(capacity: usize) -> Current {
        CURRENT_BYTES.fetch_add(capacity, Ordering::Relaxed);
        Current {
            chunk: Arc::new(Chunk::with_capacity(capacity)),
            used: 0,
        }
    }

    fn fits(&self, len: usize) -> bool {
        self.chunk.capacity - self.used >= len
    }

    /// Appends `bytes` at the cursor and commits them.
    fn append(&mut self, bytes: &[u8]) -> ChunkRow {
        assert!(self.fits(bytes.len()), "row fits the chunk's free tail");
        let start = self.used;
        // SAFETY: `start..start + len` lies in the free tail of this
        // thread's current chunk (asserted above), which no committed row
        // covers and no other thread writes; `bytes` is a caller's buffer,
        // so the ranges cannot overlap.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                self.chunk.ptr.as_ptr().add(start),
                bytes.len(),
            );
        }
        self.used += bytes.len();
        ChunkRow {
            chunk: Arc::clone(&self.chunk),
            start: u32::try_from(start).expect("chunk offsets fit in 32 bits"),
            end: u32::try_from(self.used).expect("chunk offsets fit in 32 bits"),
        }
    }
}

impl Drop for Current {
    fn drop(&mut self) {
        CURRENT_BYTES.fetch_sub(self.chunk.capacity, Ordering::Relaxed);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Current>> = const { RefCell::new(None) };
}

/// Commits `bytes` as one row: appended to this thread's current chunk, or
/// to a new one when they do not fit. A row larger than [`CHUNK_BYTES`] (or
/// one committed while the thread is being torn down) gets a chunk of its
/// own.
pub(crate) fn commit(bytes: &[u8]) -> ChunkRow {
    let own_chunk = |bytes: &[u8]| {
        let mut own = Current::new(bytes.len());
        let row = own.append(bytes);
        drop(own);
        row
    };
    if bytes.len() > CHUNK_BYTES {
        return own_chunk(bytes);
    }
    CURRENT
        .try_with(|current| {
            let mut current = current.borrow_mut();
            if !current.as_ref().is_some_and(|tail| tail.fits(bytes.len())) {
                *current = Some(Current::new(CHUNK_BYTES));
            }
            current.as_mut().expect("set above").append(bytes)
        })
        .unwrap_or_else(|_| own_chunk(bytes))
}

/// Commits rows into chunks of their own, which no thread appends to: rows
/// kept beyond their query (a memoized leaf) then pin only chunks of kept
/// rows, and no later query's rows land beside them. Every chunk is sized
/// to what is left to commit, so the last one is full too.
pub(crate) struct Packer {
    current: Option<Current>,
    /// Bytes still to commit.
    remaining: usize,
}

impl Packer {
    /// A packer for rows of `total` bytes.
    pub(crate) fn new(total: usize) -> Packer {
        Packer {
            current: None,
            remaining: total,
        }
    }

    /// Commits `bytes` as one row.
    pub(crate) fn commit(&mut self, bytes: &[u8]) -> ChunkRow {
        self.remaining = self.remaining.saturating_sub(bytes.len());
        let current = match self.current.take() {
            Some(current) if current.fits(bytes.len()) => current,
            _ => {
                let capacity = (self.remaining + bytes.len()).min(CHUNK_BYTES);
                Current::new(capacity.max(bytes.len()))
            }
        };
        let current = self.current.insert(current);
        current.append(bytes)
    }
}

/// Bytes of the chunks that committed rows keep alive beyond each thread's
/// current chunk. Once every row of a query is dropped this is back where
/// it was before the query: a row pins its chunk, nothing else does.
pub fn pinned_chunk_bytes() -> usize {
    let current = CURRENT_BYTES.load(Ordering::Relaxed);
    LIVE_BYTES.load(Ordering::Relaxed).saturating_sub(current)
}
