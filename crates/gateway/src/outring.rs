//! Per-connection segmented output rings, flushed with vectored writes.
//!
//! The gateway's reply path used to append every encoded frame to one
//! contiguous `Vec<u8>` per connection and `drain(..written)` it after
//! each `write` — which pays a memmove for every partially-accepted
//! write and re-touches reply bytes that were already encoded once. An
//! [`OutRing`] instead chains fixed-size segments: encoding appends into
//! the tail segment (allocating a new one only when it is full), and
//! [`OutRing::flush_to`] hands the kernel an iovec over the unsent spans
//! of every segment in one `write_vectored` (writev) call — **no
//! coalescing copy into a contiguous reply buffer**, and consuming
//! written bytes is pointer arithmetic plus segment recycling, never a
//! memmove.
//!
//! Segments are recycled through a per-worker [`SegPool`] shared by all
//! of the worker's connections, so steady-state traffic allocates
//! nothing per flush and **idle connections hold no reply buffers at
//! all** — their segments return to the pool the moment the ring
//! drains.

use std::collections::VecDeque;
use std::io::{IoSlice, Write};

/// Bytes per ring segment. Large enough that a full pipelining window of
/// admit responses (window × ≤26 bytes) usually fits one segment — the
/// iovec then has one entry and `writev` degenerates to `write` — while
/// keeping the unit a connection can retain or recycle small.
pub const SEG_CAP: usize = 8 * 1024;

/// The most segments one `write_vectored` call will reference. Spans
/// beyond this flush on the next call; `UIO_MAXIOV` is far larger.
const MAX_IOV: usize = 16;

/// One fixed-capacity output segment: `buf[sent..len]` is the unsent
/// span.
#[derive(Debug)]
struct Seg {
    buf: Box<[u8; SEG_CAP]>,
    /// Bytes encoded into the segment.
    len: usize,
    /// Bytes already accepted by the socket.
    sent: usize,
}

impl Seg {
    fn new() -> Seg {
        Seg {
            buf: Box::new([0u8; SEG_CAP]),
            len: 0,
            sent: 0,
        }
    }

    fn spare(&self) -> usize {
        SEG_CAP - self.len
    }
}

/// A bounded free list of segments shared by every connection a worker
/// owns. Recycling through the pool keeps the steady state allocation
/// free without letting a burst pin memory: segments past the cap are
/// dropped.
#[derive(Debug)]
pub struct SegPool {
    free: Vec<Seg>,
    cap: usize,
}

impl SegPool {
    /// A pool retaining at most `cap` spare segments.
    pub fn new(cap: usize) -> SegPool {
        SegPool {
            free: Vec::new(),
            cap,
        }
    }

    fn take(&mut self) -> Seg {
        self.free.pop().unwrap_or_else(Seg::new)
    }

    fn put(&mut self, mut seg: Seg) {
        if self.free.len() < self.cap {
            seg.len = 0;
            seg.sent = 0;
            self.free.push(seg);
        }
    }

    /// Spare segments currently pooled.
    pub fn spare_segments(&self) -> usize {
        self.free.len()
    }
}

impl Default for SegPool {
    /// Sized for one worker: a pipelining window or two of replies.
    fn default() -> SegPool {
        SegPool::new(32)
    }
}

/// A connection's pending reply bytes as a chain of segments.
#[derive(Debug, Default)]
pub struct OutRing {
    segs: VecDeque<Seg>,
    /// Unsent bytes across all segments.
    len: usize,
}

impl OutRing {
    /// An empty ring.
    pub fn new() -> OutRing {
        OutRing::default()
    }

    /// Unsent bytes queued in the ring.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends encoded bytes, filling the tail segment and chaining new
    /// ones from `pool` as needed. A frame may span segments — the flush
    /// iovec stitches it back together for the kernel.
    pub fn append(&mut self, mut bytes: &[u8], pool: &mut SegPool) {
        self.len += bytes.len();
        while !bytes.is_empty() {
            match self.segs.back_mut().filter(|seg| seg.spare() > 0) {
                Some(seg) => {
                    let take = bytes.len().min(seg.spare());
                    seg.buf[seg.len..seg.len + take].copy_from_slice(&bytes[..take]);
                    seg.len += take;
                    bytes = &bytes[take..];
                }
                None => self.segs.push_back(pool.take()),
            }
        }
    }

    /// Marks `n` bytes as accepted by the socket, recycling finished
    /// segments into `pool`.
    fn advance(&mut self, mut n: usize, pool: &mut SegPool) {
        self.len -= n;
        while n > 0 {
            let seg = self.segs.front_mut().expect("advance past queued bytes");
            let take = n.min(seg.len - seg.sent);
            seg.sent += take;
            n -= take;
            if seg.sent == seg.len {
                let seg = self.segs.pop_front().expect("front exists");
                pool.put(seg);
            }
        }
    }

    /// Writes as much of the ring as `sink` accepts without blocking,
    /// one vectored write (iovec over the unsent span of up to
    /// `MAX_IOV` segments) per loop turn. Returns
    /// `(bytes_written, write_calls)`; `WouldBlock` ends the flush
    /// without error, any other error propagates (the peer is gone).
    ///
    /// # Errors
    ///
    /// Propagates fatal `write_vectored` errors.
    pub fn flush_to<W: Write + ?Sized>(
        &mut self,
        sink: &mut W,
        pool: &mut SegPool,
    ) -> std::io::Result<(usize, u64)> {
        let mut written = 0usize;
        let mut calls = 0u64;
        while !self.is_empty() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let mut spans = 0;
            for seg in self.segs.iter().take(MAX_IOV) {
                if seg.len > seg.sent {
                    iov[spans] = IoSlice::new(&seg.buf[seg.sent..seg.len]);
                    spans += 1;
                }
            }
            debug_assert!(spans > 0, "non-empty ring with no unsent span");
            calls += 1;
            match sink.write_vectored(&iov[..spans]) {
                Ok(0) => break,
                Ok(n) => {
                    written += n;
                    self.advance(n, pool);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok((written, calls))
    }

    /// Returns every segment to `pool` (connection teardown).
    pub fn clear(&mut self, pool: &mut SegPool) {
        while let Some(seg) = self.segs.pop_front() {
            pool.put(seg);
        }
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that accepts at most `cap` bytes per vectored call and
    /// records how many spans each call carried.
    struct ChokedSink {
        accepted: Vec<u8>,
        cap: usize,
        spans_seen: Vec<usize>,
    }

    impl Write for ChokedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let take = buf.len().min(self.cap);
            self.accepted.extend_from_slice(&buf[..take]);
            Ok(take)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.spans_seen.push(bufs.len());
            let mut room = self.cap;
            let mut wrote = 0;
            for buf in bufs {
                let take = buf.len().min(room);
                self.accepted.extend_from_slice(&buf[..take]);
                wrote += take;
                room -= take;
                if room == 0 {
                    break;
                }
            }
            Ok(wrote)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ring_preserves_byte_order_across_segment_boundaries_and_partial_writes() {
        let mut pool = SegPool::new(8);
        let mut ring = OutRing::new();
        // Appends sized to straddle segment boundaries repeatedly.
        let mut expect = Vec::new();
        for i in 0..2_000u32 {
            let chunk = [(i % 251) as u8; 37];
            ring.append(&chunk, &mut pool);
            expect.extend_from_slice(&chunk);
        }
        assert_eq!(ring.len(), expect.len());
        assert!(ring.len() > 2 * SEG_CAP, "spans several segments");

        let mut sink = ChokedSink {
            accepted: Vec::new(),
            cap: 1_237, // prime, misaligned with segments and appends
            spans_seen: Vec::new(),
        };
        while !ring.is_empty() {
            let (n, calls) = ring.flush_to(&mut sink, &mut pool).unwrap();
            assert!(n > 0 && calls > 0);
        }
        assert_eq!(sink.accepted, expect, "bytes identical and in order");
        assert!(
            sink.spans_seen.iter().any(|&s| s > 1),
            "vectored writes actually carried multiple spans"
        );
        // Drained segments were recycled, not leaked or retained by the
        // ring.
        assert_eq!(ring.len(), 0);
        assert!(pool.spare_segments() > 0);
    }

    #[test]
    fn pool_bounds_retained_segments_and_reuses_them() {
        let mut pool = SegPool::new(1);
        let mut ring = OutRing::new();
        ring.append(&[0xAB; 4 * SEG_CAP], &mut pool);
        ring.clear(&mut pool);
        assert_eq!(pool.spare_segments(), 1, "cap enforced");
        let before = pool.spare_segments();
        ring.append(&[1, 2, 3], &mut pool);
        assert_eq!(pool.spare_segments(), before - 1, "spare reused");
        ring.clear(&mut pool);
    }
}
