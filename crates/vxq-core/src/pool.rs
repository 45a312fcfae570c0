//! Reusable scan buffers.
//!
//! Every DATASCAN task used to allocate a fresh read buffer per run and a
//! fresh structural-index tape per file. The engine now owns one
//! [`ScanBufferPool`] shared by every scan task of every query it runs:
//! buffers and tapes are checked out for the duration of one file and
//! returned with their capacity intact, so steady-state scanning does not
//! allocate at all (the pool warms up to the largest file seen).
//!
//! The pool is deliberately dumb — two mutexed free lists with a bounded
//! entry count. The free lists stay structurally sound if a holder of the
//! lock panics, so poisoned locks are recovered rather than propagating
//! one task's panic into every concurrent scan sharing the pool. A file's
//! buffer and tape are held from its load until its last split finishes,
//! so the locks are touched twice per file, not per operation.

use jdm::index::TapeEntry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Maximum free-list entries kept per kind; beyond this, returned buffers
/// are dropped (bounds pool memory to the cluster's partition count in
/// practice).
const MAX_POOLED: usize = 32;

/// Shared pool of file-read buffers and structural-index tapes.
#[derive(Debug, Default)]
pub struct ScanBufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
    tapes: Mutex<Vec<Vec<TapeEntry>>>,
    reuses: AtomicU64,
}

impl ScanBufferPool {
    pub fn new() -> Self {
        ScanBufferPool::default()
    }

    /// Check out a (cleared) read buffer.
    pub fn take_buf(&self) -> Vec<u8> {
        match self.bufs.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            Some(b) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => Vec::new(),
        }
    }

    /// Return a read buffer to the pool.
    pub fn put_buf(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut bufs = self.bufs.lock().unwrap_or_else(|e| e.into_inner());
        if bufs.len() < MAX_POOLED && buf.capacity() > 0 {
            bufs.push(buf);
        }
    }

    /// Check out a (cleared) index tape.
    pub fn take_tape(&self) -> Vec<TapeEntry> {
        match self.tapes.lock().unwrap_or_else(|e| e.into_inner()).pop() {
            Some(t) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                t
            }
            None => Vec::new(),
        }
    }

    /// Return an index tape to the pool.
    pub fn put_tape(&self, mut tape: Vec<TapeEntry>) {
        tape.clear();
        let mut tapes = self.tapes.lock().unwrap_or_else(|e| e.into_inner());
        if tapes.len() < MAX_POOLED && tape.capacity() > 0 {
            tapes.push(tape);
        }
    }

    /// How many checkouts were served from the free lists (observability
    /// and tests).
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_with_capacity() {
        let pool = ScanBufferPool::new();
        let mut b = pool.take_buf();
        assert_eq!(pool.reuses(), 0);
        b.extend_from_slice(&[0u8; 4096]);
        let cap = b.capacity();
        pool.put_buf(b);
        let b2 = pool.take_buf();
        assert_eq!(pool.reuses(), 1);
        assert!(b2.is_empty());
        assert_eq!(b2.capacity(), cap, "capacity survives pooling");
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let pool = ScanBufferPool::new();
        pool.put_buf(Vec::new());
        let _ = pool.take_buf();
        assert_eq!(pool.reuses(), 0);
    }

    #[test]
    fn tapes_round_trip() {
        let pool = ScanBufferPool::new();
        let idx = jdm::index::StructuralIndex::build(b"[1, 2, 3]").unwrap();
        pool.put_tape(idx.into_tape());
        let t = pool.take_tape();
        assert!(t.is_empty());
        assert!(t.capacity() >= 5);
        assert_eq!(pool.reuses(), 1);
    }
}
