//! Heap accounting: the bytes a simulator holds, as a walk over its
//! containers' capacities (after caminos-lib's `quantify::Quantifiable`).
//! Capacity, not length, is what the allocator handed out, so the walk
//! matches a counting allocator byte for byte wherever it sees the whole
//! allocation (see `tests/alloc_footprint.rs`).

use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Heap bytes held by a container's own buffer. Heap owned by its
/// elements (the inner vectors of a `Vec<Vec<_>>`) is the caller's to add.
pub(crate) trait HeapBytes {
    fn heap_bytes(&self) -> usize;
}

impl<T> HeapBytes for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl<T> HeapBytes for VecDeque<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

impl<T> HeapBytes for BinaryHeap<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * size_of::<T>()
    }
}

/// An estimate: a hash table's buckets and control bytes are sized from
/// its capacity by rules the standard library does not expose, so this
/// counts one entry and one control byte per unit of capacity.
impl<K, V> HeapBytes for HashMap<K, V> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * (size_of::<(K, V)>() + 1)
    }
}

/// Bytes of the block an `Arc<T>` allocates: the value and its two
/// reference counts.
pub(crate) fn arc_block<T>() -> usize {
    2 * size_of::<usize>() + size_of::<T>()
}
