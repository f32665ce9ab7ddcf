//! Buffered chunking of `std::io::Read` sources.
//!
//! The backup client reads each file or backup stream through a [`ChunkStream`],
//! which buffers just enough data to guarantee that content-defined chunk boundaries
//! are identical to those that would be produced on the fully materialised stream.

use crate::{Chunk, Chunker};
use std::io::Read;

/// How many maximum-size chunks worth of data to keep buffered.
const BUFFER_CHUNKS: usize = 8;

/// An iterator of [`Chunk`]s read from an underlying reader.
///
/// # Example
///
/// ```
/// use sigma_chunking::{ChunkerParams, stream::ChunkStream};
///
/// let data = vec![9u8; 10_000];
/// let chunker = ChunkerParams::fixed(4096).build();
/// let chunks: Vec<_> = ChunkStream::new(&data[..], chunker.as_ref(), 4096)
///     .collect::<Result<_, _>>()
///     .unwrap();
/// assert_eq!(chunks.len(), 3);
/// assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), 10_000);
/// ```
pub struct ChunkStream<'a, R: Read> {
    reader: R,
    chunker: &'a dyn Chunker,
    /// Upper bound on a single chunk's size, used to size the refill buffer.
    max_chunk_size: usize,
    buffer: Vec<u8>,
    /// Bytes at the front of `buffer` already emitted as chunks.  Emitting a
    /// chunk only advances this cursor; the old per-chunk `drain(..take)` moved
    /// the entire remaining buffer every iteration.  The buffer is compacted
    /// once per refill instead (one memmove per ~`BUFFER_CHUNKS` chunks).
    consumed: usize,
    /// Stream offset of `buffer[consumed]`.
    buffer_offset: u64,
    eof: bool,
    errored: bool,
}

impl<'a, R: Read> ChunkStream<'a, R> {
    /// Creates a chunk stream over `reader`.
    ///
    /// `max_chunk_size` must be an upper bound on the size of any chunk the chunker
    /// can emit (e.g. the fixed size for SC, the maximum threshold for CDC/TTTD).
    ///
    /// # Panics
    ///
    /// Panics if `max_chunk_size` is zero.
    pub fn new(reader: R, chunker: &'a dyn Chunker, max_chunk_size: usize) -> Self {
        assert!(max_chunk_size > 0, "maximum chunk size must be non-zero");
        ChunkStream {
            reader,
            chunker,
            max_chunk_size,
            buffer: Vec::with_capacity(max_chunk_size * BUFFER_CHUNKS),
            consumed: 0,
            buffer_offset: 0,
            eof: false,
            errored: false,
        }
    }

    /// Unconsumed bytes currently buffered.
    fn pending(&self) -> usize {
        self.buffer.len() - self.consumed
    }

    fn refill(&mut self) -> std::io::Result<()> {
        // A first boundary computed on the pending bytes is stable under future
        // refills as long as at least one maximum-size chunk is buffered, so
        // nothing needs to be read until the pending region drops below that.
        if self.eof || self.pending() >= self.max_chunk_size {
            return Ok(());
        }
        if self.consumed > 0 {
            self.buffer.drain(..self.consumed);
            self.consumed = 0;
        }
        let target = self.max_chunk_size * BUFFER_CHUNKS;
        let mut scratch = [0u8; 16 * 1024];
        while !self.eof && self.buffer.len() < target {
            let want = scratch.len().min(target - self.buffer.len());
            let n = self.reader.read(&mut scratch[..want])?;
            if n == 0 {
                self.eof = true;
            } else {
                self.buffer.extend_from_slice(&scratch[..n]);
            }
        }
        Ok(())
    }
}

impl<R: Read> Iterator for ChunkStream<'_, R> {
    type Item = std::io::Result<Chunk>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        if let Err(e) = self.refill() {
            self.errored = true;
            return Some(Err(e));
        }
        let pending = &self.buffer[self.consumed..];
        if pending.is_empty() {
            return None;
        }

        // Only the first boundary is consumed per iteration: all our chunkers scan
        // left to right, so the first boundary depends only on the buffered prefix
        // and is stable under future refills (the buffer always holds at least one
        // maximum-size chunk unless we are at EOF).
        let take = self
            .chunker
            .first_boundary(pending)
            .expect("chunker returned no boundary for non-empty input");
        debug_assert!(take > 0 && take <= pending.len());

        let chunk = Chunk::new(self.buffer_offset, pending[..take].to_vec());
        self.consumed += take;
        self.buffer_offset += take as u64;
        Some(Ok(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkerParams;

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn stream_chunks_reassemble() {
        let data = random_data(300_000, 1);
        let chunker = ChunkerParams::cdc(1024, 4096, 16 * 1024).build();
        let chunks: Vec<Chunk> = ChunkStream::new(&data[..], chunker.as_ref(), 16 * 1024)
            .collect::<Result<_, _>>()
            .unwrap();
        // Pre-reserve the known logical length: rebuilding into an uncapacitied
        // Vec both reallocates repeatedly and hides silent truncation.
        let mut rebuilt = Vec::with_capacity(data.len());
        for c in &chunks {
            assert_eq!(c.offset() as usize, rebuilt.len());
            rebuilt.extend_from_slice(c.data());
        }
        assert_eq!(
            rebuilt.len(),
            data.len(),
            "rebuilt stream length must match the logical input length"
        );
        assert_eq!(rebuilt, data);
    }

    #[test]
    fn stream_matches_in_memory_chunking_for_static() {
        let data = random_data(100_000, 2);
        let chunker = ChunkerParams::fixed(4096).build();
        let streamed: Vec<usize> = ChunkStream::new(&data[..], chunker.as_ref(), 4096)
            .map(|c| c.unwrap().len())
            .collect();
        let in_memory: Vec<usize> = chunker.split(&data).iter().map(|c| c.len()).collect();
        assert_eq!(streamed, in_memory);
    }

    #[test]
    fn stream_matches_in_memory_chunking_for_content_defined() {
        // Regression for the consumed-cursor rewrite: streamed boundaries must be
        // byte-identical to whole-buffer chunking for every chunker family.
        let data = random_data(400_000, 9);
        for params in [
            ChunkerParams::cdc(1024, 4096, 16 * 1024),
            ChunkerParams::tttd_default(),
        ] {
            let chunker = params.build();
            let max = 32 * 1024;
            let streamed: Vec<usize> = ChunkStream::new(&data[..], chunker.as_ref(), max)
                .map(|c| c.unwrap().len())
                .collect();
            let in_memory: Vec<usize> = chunker.split(&data).iter().map(|c| c.len()).collect();
            assert_eq!(streamed, in_memory, "chunker {}", chunker.name());
        }
    }

    #[test]
    fn empty_reader_yields_nothing() {
        let chunker = ChunkerParams::fixed(4096).build();
        let mut stream = ChunkStream::new(&[][..], chunker.as_ref(), 4096);
        assert!(stream.next().is_none());
    }

    #[test]
    fn propagates_read_errors() {
        struct FailingReader;
        impl Read for FailingReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("boom"))
            }
        }
        let chunker = ChunkerParams::fixed(4096).build();
        let mut stream = ChunkStream::new(FailingReader, chunker.as_ref(), 4096);
        assert!(stream.next().unwrap().is_err());
        assert!(stream.next().is_none(), "stream must fuse after an error");
    }
}
