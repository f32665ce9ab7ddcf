//! Chunk value types shared by the chunkers and the deduplication layers.

/// The position of a chunk within its source stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkSpan {
    /// Byte offset of the chunk start within the stream.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u32,
}

impl ChunkSpan {
    /// Creates a new span.
    pub fn new(offset: u64, len: u32) -> Self {
        ChunkSpan { offset, len }
    }

    /// Offset one past the last byte of the chunk.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

/// An owned data chunk produced by a [`Chunker`](crate::Chunker).
///
/// # Example
///
/// ```
/// use sigma_chunking::Chunk;
///
/// let c = Chunk::new(4096, vec![7u8; 128]);
/// assert_eq!(c.offset(), 4096);
/// assert_eq!(c.len(), 128);
/// assert!(!c.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    span: ChunkSpan,
    data: Vec<u8>,
}

impl Chunk {
    /// Creates a chunk at stream offset `offset` holding `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is longer than `u32::MAX` bytes (chunks are small by
    /// construction; the largest chunk size used anywhere in the paper is 64 KB).
    pub fn new(offset: u64, data: Vec<u8>) -> Self {
        assert!(
            data.len() <= u32::MAX as usize,
            "chunk larger than u32::MAX bytes"
        );
        Chunk {
            span: ChunkSpan::new(offset, data.len() as u32),
            data,
        }
    }

    /// The chunk's position within its stream.
    pub fn span(&self) -> ChunkSpan {
        self.span
    }

    /// Byte offset of the chunk within its stream.
    pub fn offset(&self) -> u64 {
        self.span.offset
    }

    /// Chunk payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Chunk length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the chunk holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Consumes the chunk, returning its payload.
    pub fn into_data(self) -> Vec<u8> {
        self.data
    }
}

impl AsRef<[u8]> for Chunk {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_end() {
        let s = ChunkSpan::new(100, 28);
        assert_eq!(s.end(), 128);
    }

    #[test]
    fn chunk_accessors() {
        let c = Chunk::new(10, b"abcdef".to_vec());
        assert_eq!(c.offset(), 10);
        assert_eq!(c.len(), 6);
        assert_eq!(c.span().end(), 16);
        assert_eq!(c.data(), b"abcdef");
        assert_eq!(c.clone().into_data(), b"abcdef".to_vec());
    }

    #[test]
    fn empty_chunk() {
        let c = Chunk::new(0, Vec::new());
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }
}
