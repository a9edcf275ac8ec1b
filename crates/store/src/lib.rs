//! The chunked binary constraint store (DESIGN.md §10).
//!
//! A store file is one fixed header followed by a sequence of chunk
//! frames, each carrying a [`ConstraintColumns`] block. The header pins
//! everything needed to interpret — and to *regenerate* — the file:
//! magic, format version, checksum algorithm, column dimension, total
//! row count, per-chunk row capacity, and the full seeded-generator
//! [`Provenance`] (family, n, d, seed, r, skew). The provenance rule:
//! a well-formed file is reproducible from its header alone, because
//! every workload generator is a pure function of its arguments.
//!
//! All integers and `f64` bit patterns are little-endian. The header is
//! sealed with FNV-1a-64 and every chunk frame with the chunk checksum
//! the header's algorithm byte names: 2, the four-lane word checksum
//! that [`ChunkWriter`] always emits, or 1, FNV-1a-64, which files
//! written before algorithm 2 carry. The reader verifies both, and
//! verifies each checksum *before* handing any data to the caller, so
//! corruption surfaces as a typed [`StoreError`] — never a panic, never
//! partial data. Trailing bytes after the final chunk are refused.
//! Under algorithm 2 the reader hashes and decodes in one sweep: each
//! payload word steps its lane and lands in its column, across the
//! coordinate/extra boundary at any word offset, and the decoded chunk
//! is lent only once the stored checksum matches. Algorithm 1 hashes,
//! then decodes.
//!
//! Layout (byte offsets; `L` = family-name length):
//!
//! ```text
//! header:
//!   0   8  magic  = b"LLPSTORE"
//!   8   4  format version (u32)       = 1
//!   12  1  chunk checksum algorithm (u8): 1 (FNV-1a-64) or 2 (four-lane)
//!   13  4  column dimension (u32)     >= 1
//!   17  8  total rows in file (u64)
//!   25  4  rows per chunk (u32)       >= 1; every chunk but the last is full
//!   29  1  family name length L (u8)
//!   30  L  family wire name (UTF-8)
//!   +0  8  provenance n (u64)
//!   +8  4  provenance d (u32)
//!   +12 8  provenance seed (u64)
//!   +20 4  provenance r (u32)
//!   +24 1  skew flag (u8, 0|1)
//!  [+25 8  skew (f64 bits, iff flag = 1)]
//!   ..  8  header checksum: FNV-1a-64 over all preceding header bytes
//!
//! chunk frame (repeated until `rows` rows are covered):
//!   0   4  rows in this chunk (u32)
//!   4   .. payload: dim columns of `rows` f64 each (column-major),
//!          then the extra column (`rows` f64)
//!   ..  8  chunk checksum over the rows field + payload, by the
//!          header's algorithm
//! ```

#![forbid(unsafe_code)]

use llp_core::lptype::ColumnarProblem;
use llp_geom::ConstraintColumns;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"LLPSTORE";
/// The store format version this crate reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Chunk-checksum algorithm 1: FNV-1a-64 over the frame's rows field and
/// payload, one byte per step. Files written before algorithm 2 carry
/// it; the reader still verifies it, the writer no longer emits it.
pub const CHECKSUM_FNV1A64: u8 = 1;
/// Chunk-checksum algorithm 2: the four-lane word checksum (DESIGN.md
/// §10), eight payload bytes per step in four independent lanes. The
/// writer always emits it.
pub const CHECKSUM_LANES64: u8 = 2;
/// The largest full-chunk payload, `(dim + 1) · chunk_len · 8` bytes, a
/// header may declare. The reader sizes its one reused frame buffer from
/// the header, and the header checksum is public, so anyone can re-seal
/// a header that lies: headers over the cap are refused when a file is
/// opened or created, before any frame is read — the store's
/// counterpart of the wire codec's `MAX_FRAME_LEN`. 64 MiB holds
/// 262,144-row chunks up to dim 31.
pub const MAX_CHUNK_PAYLOAD: u64 = 64 << 20;

/// FNV-1a-64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over a byte slice — the header checksum, and the chunk
/// checksum of algorithm 1.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a-64 state over more bytes.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Algorithm 2's odd multipliers (xxHash64's first two primes; the
/// checksum makes no claim of xxHash compatibility).
const LANE_P1: u64 = 0x9e37_79b1_85eb_ca87;
const LANE_P2: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// One algorithm-2 step: a bijection in `acc` for a fixed `w` and in `w`
/// for a fixed `acc`, since adding, rotating and multiplying by an odd
/// constant are all invertible mod 2^64.
#[inline(always)]
fn lane_round(acc: u64, w: u64) -> u64 {
    acc.wrapping_add(w.wrapping_mul(LANE_P2))
        .rotate_left(31)
        .wrapping_mul(LANE_P1)
}

/// Algorithm 2's lanes before the first word: lane `k` starts at
/// `(k + 1) · P1`.
const LANES_START: [u64; 4] = [
    LANE_P1,
    LANE_P1.wrapping_mul(2),
    LANE_P1.wrapping_mul(3),
    LANE_P1.wrapping_mul(4),
];

/// One 8-byte little-endian payload word.
#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Algorithm 2's last step: one accumulator starting at `P2` steps over
/// the rows field, the four lanes in order, and the word count.
fn lanes_finish(rows: u32, lanes: &[u64; 4], words: usize) -> u64 {
    let h = lane_round(LANE_P2, u64::from(rows));
    let h = lanes.iter().fold(h, |h, &lane| lane_round(h, lane));
    lane_round(h, words as u64)
}

/// Chunk-checksum algorithm 2 over one frame: payload word `i` (8 bytes,
/// little-endian) steps lane `i mod 4`, then [`lanes_finish`]. `payload`'s
/// length is a multiple of 8, as every frame's is.
fn lanes64(rows: u32, payload: &[u8]) -> u64 {
    let mut lanes = LANES_START;
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = lane_round(*lane, word(&block[8 * k..8 * k + 8]));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks_exact(8)) {
        *lane = lane_round(*lane, word(w));
    }
    lanes_finish(rows, &lanes, payload.len() / 8)
}

/// The read side of [`lanes64`], fused with decoding: steps the lanes over
/// `bytes`, whose first word is payload word `first` (so word `t` steps
/// lane `(first + t) mod 4`), and writes each word into `out` as an `f64`
/// bit pattern, in one sweep. A frame is the coordinate block from word 0
/// and then the extra column from the word the coordinates end at,
/// which may fall inside a four-word block.
fn lanes_decode(lanes: &mut [u64; 4], first: usize, bytes: &[u8], out: &mut [f64]) {
    debug_assert_eq!(bytes.len(), 8 * out.len());
    // A local copy keeps the four lanes in registers through the sweep.
    let mut l = *lanes;
    l.rotate_left(first % 4);
    let mut blocks = bytes.chunks_exact(32);
    let mut slots = out.chunks_exact_mut(4);
    for (block, slot) in (&mut blocks).zip(&mut slots) {
        let slot: &mut [f64; 4] = slot.try_into().expect("four words");
        for k in 0..4 {
            let w = word(&block[8 * k..8 * k + 8]);
            l[k] = lane_round(l[k], w);
            slot[k] = f64::from_bits(w);
        }
    }
    let tail = blocks.remainder().chunks_exact(8);
    for ((lane, w), v) in l.iter_mut().zip(tail).zip(slots.into_remainder()) {
        let w = word(w);
        *lane = lane_round(*lane, w);
        *v = f64::from_bits(w);
    }
    l.rotate_right(first % 4);
    *lanes = l;
}

/// Why a store file was refused. Every decode failure is typed; the
/// reader never panics on foreign bytes and never returns partial data.
#[derive(Clone, Debug, PartialEq)]
pub enum StoreError {
    /// An underlying I/O operation failed.
    Io(String),
    /// The first 8 bytes are not [`MAGIC`].
    BadMagic([u8; 8]),
    /// The format version is not [`FORMAT_VERSION`].
    BadVersion(u32),
    /// The checksum-algorithm byte is neither [`CHECKSUM_FNV1A64`] nor
    /// [`CHECKSUM_LANES64`].
    BadChecksumAlgo(u8),
    /// A structurally invalid header field (zero dim/chunk capacity,
    /// malformed family name, …).
    HeaderCorrupt(String),
    /// The header checksum does not match the header bytes.
    HeaderChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed from the header bytes.
        computed: u64,
    },
    /// A chunk checksum does not match its frame bytes.
    ChunkChecksumMismatch {
        /// Zero-based chunk index.
        chunk: u64,
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed from the frame bytes.
        computed: u64,
    },
    /// The file ended before the declared data did.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// Bytes remain after the final declared chunk.
    TrailingBytes {
        /// How many extra bytes were found (at least).
        extra: u64,
    },
    /// A chunk's declared row count is impossible under the header
    /// (zero, over the per-chunk capacity, or overshooting the total).
    ChunkRowsInvalid {
        /// Zero-based chunk index.
        chunk: u64,
        /// The offending row count.
        rows: u32,
    },
    /// The chunks ended with fewer rows than the header declares.
    RowCountMismatch {
        /// Rows promised by the header.
        header: u64,
        /// Rows actually decoded.
        found: u64,
    },
    /// The writer was asked to emit a chunk inconsistent with its
    /// header (wrong dim, over capacity, or overshooting the total).
    WriterMisuse(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            StoreError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (expected {FORMAT_VERSION})"
                )
            }
            StoreError::BadChecksumAlgo(a) => write!(f, "unknown checksum algorithm {a}"),
            StoreError::HeaderCorrupt(why) => write!(f, "corrupt header: {why}"),
            StoreError::HeaderChecksumMismatch { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            StoreError::ChunkChecksumMismatch {
                chunk,
                stored,
                computed,
            } => write!(
                f,
                "chunk {chunk} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            StoreError::Truncated { context } => {
                write!(f, "truncated file while reading {context}")
            }
            StoreError::TrailingBytes { extra } => {
                write!(f, "{extra}+ trailing bytes after the final chunk")
            }
            StoreError::ChunkRowsInvalid { chunk, rows } => {
                write!(f, "chunk {chunk} declares an impossible row count {rows}")
            }
            StoreError::RowCountMismatch { header, found } => {
                write!(f, "header promises {header} rows, file holds {found}")
            }
            StoreError::WriterMisuse(why) => write!(f, "writer misuse: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// Seeded-generator provenance: the exact arguments that regenerate the
/// file's instance byte-for-byte (the registry scenario's fields).
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// Generator family wire name (`Family::name()`).
    pub family: String,
    /// The scenario's `n` parameter (note: some families emit a
    /// different row count — the header's `rows` field is authoritative
    /// for the file's contents).
    pub n: u64,
    /// Ambient dimension `d` of the scenario (the *column* dimension
    /// can differ, e.g. Chebyshev lifts to `d + 1`).
    pub d: u32,
    /// Generator seed.
    pub seed: u64,
    /// Pass/round parameter `r`.
    pub r: u32,
    /// Geometric partition skew (`None` = balanced).
    pub skew: Option<f64>,
}

/// The fixed file header: layout parameters plus [`Provenance`].
#[derive(Clone, Debug, PartialEq)]
pub struct FileHeader {
    /// Number of coordinate columns per row (`>= 1`).
    pub dim: u32,
    /// Total rows in the file.
    pub rows: u64,
    /// Rows per chunk (`>= 1`); every chunk but the last is exactly
    /// this size, the last holds the remainder.
    pub chunk_len: u32,
    /// Generator provenance.
    pub provenance: Provenance,
}

impl FileHeader {
    /// Encoded size in bytes of a chunk frame holding `rows` rows:
    /// rows field + column-major payload + checksum.
    pub fn frame_bytes(&self, rows: u32) -> u64 {
        4 + u64::from(rows) * (u64::from(self.dim) + 1) * 8 + 8
    }

    /// Encoded size in bytes of the largest chunk frame.
    pub fn max_frame_bytes(&self) -> u64 {
        self.frame_bytes(self.chunk_len)
    }

    /// Total encoded file size in bytes (header + all chunk frames).
    pub fn file_bytes(&self) -> u64 {
        let full = self.rows / u64::from(self.chunk_len);
        let rem = (self.rows % u64::from(self.chunk_len)) as u32;
        let mut total = encode_header(self).len() as u64 + full * self.max_frame_bytes();
        if rem > 0 {
            total += self.frame_bytes(rem);
        }
        total
    }
}

/// Refuses a layout whose full-chunk payload `(dim + 1) · chunk_len · 8`
/// overflows or exceeds [`MAX_CHUNK_PAYLOAD`].
fn check_chunk_payload(dim: u32, chunk_len: u32) -> Result<(), String> {
    let bytes = (u64::from(dim) + 1)
        .checked_mul(u64::from(chunk_len))
        .and_then(|b| b.checked_mul(8));
    match bytes {
        Some(b) if b <= MAX_CHUNK_PAYLOAD => Ok(()),
        _ => Err(format!(
            "chunks of {chunk_len} rows x {dim}+1 columns exceed the \
             {MAX_CHUNK_PAYLOAD}-byte payload cap"
        )),
    }
}

/// Encodes a header to its byte representation (checksum included),
/// naming chunk-checksum algorithm 2.
pub fn encode_header(h: &FileHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(80);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(CHECKSUM_LANES64);
    out.extend_from_slice(&h.dim.to_le_bytes());
    out.extend_from_slice(&h.rows.to_le_bytes());
    out.extend_from_slice(&h.chunk_len.to_le_bytes());
    let fam = h.provenance.family.as_bytes();
    assert!(fam.len() <= u8::MAX as usize, "family name too long");
    out.push(fam.len() as u8);
    out.extend_from_slice(fam);
    out.extend_from_slice(&h.provenance.n.to_le_bytes());
    out.extend_from_slice(&h.provenance.d.to_le_bytes());
    out.extend_from_slice(&h.provenance.seed.to_le_bytes());
    out.extend_from_slice(&h.provenance.r.to_le_bytes());
    match h.provenance.skew {
        Some(s) => {
            out.push(1);
            out.extend_from_slice(&s.to_bits().to_le_bytes());
        }
        None => out.push(0),
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Byte-counting reader shim: tracks how many bytes passed through.
struct CountingReader<R> {
    inner: R,
    count: u64,
}

impl<R: Read> CountingReader<R> {
    fn new(inner: R) -> Self {
        CountingReader { inner, count: 0 }
    }

    /// Reads exactly `buf.len()` bytes or reports a typed error.
    fn read_exact_ctx(&mut self, buf: &mut [u8], context: &str) -> Result<(), StoreError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    self.count += filled as u64;
                    return Err(StoreError::Truncated {
                        context: context.to_string(),
                    });
                }
                Ok(k) => filled += k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.count += filled as u64;
                    return Err(e.into());
                }
            }
        }
        self.count += filled as u64;
        Ok(())
    }
}

/// Streams chunk frames to a writer, enforcing header consistency.
///
/// The writer refuses chunks that lie about the header (`dim` mismatch,
/// over-capacity, overshooting the total), and [`finish`](Self::finish)
/// refuses to close a file holding fewer rows than the header promises
/// — a `ChunkWriter` cannot produce a file its own reader would reject.
pub struct ChunkWriter<W: Write> {
    w: W,
    header: FileHeader,
    rows_written: u64,
    bytes_written: u64,
    /// The frame being encoded, reused across chunks.
    frame: Vec<u8>,
}

impl<W: Write> ChunkWriter<W> {
    /// Writes the header and returns the writer.
    pub fn create(mut w: W, header: FileHeader) -> Result<Self, StoreError> {
        if header.dim == 0 {
            return Err(StoreError::WriterMisuse("dim must be >= 1".into()));
        }
        if header.chunk_len == 0 {
            return Err(StoreError::WriterMisuse("chunk_len must be >= 1".into()));
        }
        check_chunk_payload(header.dim, header.chunk_len).map_err(StoreError::WriterMisuse)?;
        let bytes = encode_header(&header);
        w.write_all(&bytes)?;
        Ok(ChunkWriter {
            w,
            header,
            rows_written: 0,
            bytes_written: bytes.len() as u64,
            frame: Vec::new(),
        })
    }

    /// Appends one chunk. Every chunk but the last must hold exactly
    /// `chunk_len` rows; the last holds the remainder.
    pub fn write_chunk(&mut self, chunk: &ConstraintColumns) -> Result<(), StoreError> {
        if chunk.dim() != self.header.dim as usize {
            return Err(StoreError::WriterMisuse(format!(
                "chunk dim {} != header dim {}",
                chunk.dim(),
                self.header.dim
            )));
        }
        let rows = chunk.len() as u64;
        let expect = (self.header.rows - self.rows_written).min(u64::from(self.header.chunk_len));
        if rows != expect {
            return Err(StoreError::WriterMisuse(format!(
                "chunk holds {rows} rows, header schedule expects {expect}"
            )));
        }
        let rows_field = chunk.len() as u32;
        let frame = &mut self.frame;
        frame.clear();
        // Exact: growing by doubling would hold 4 MiB for a 2 MiB frame.
        frame.reserve_exact(self.header.frame_bytes(rows_field) as usize);
        frame.extend_from_slice(&rows_field.to_le_bytes());
        for &v in chunk.raw_coords().iter().chain(chunk.raw_extra()) {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        let checksum = lanes64(rows_field, &frame[4..]);
        frame.extend_from_slice(&checksum.to_le_bytes());
        self.w.write_all(frame)?;
        self.bytes_written += frame.len() as u64;
        self.rows_written += rows;
        Ok(())
    }

    /// Flushes and closes the file, returning the total bytes written.
    pub fn finish(mut self) -> Result<u64, StoreError> {
        if self.rows_written != self.header.rows {
            return Err(StoreError::WriterMisuse(format!(
                "header promises {} rows, only {} written",
                self.header.rows, self.rows_written
            )));
        }
        self.w.flush()?;
        Ok(self.bytes_written)
    }

    /// Bytes written so far (header + finished chunk frames).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// Decodes chunk frames from a reader, verifying every checksum before
/// any data reaches the caller. One payload buffer and one decoded block
/// serve every chunk, so reading allocates nothing per chunk.
pub struct ChunkReader<R: Read> {
    r: CountingReader<R>,
    header: FileHeader,
    /// The header's chunk-checksum algorithm, 1 or 2.
    algo: u8,
    rows_read: u64,
    chunks_read: u64,
    done: bool,
    /// The current frame's payload bytes.
    payload: Vec<u8>,
    /// The current frame's decoded rows, lent by `next_chunk`.
    chunk: ConstraintColumns,
}

impl<R: Read> ChunkReader<R> {
    /// Reads and validates the header.
    pub fn open(r: R) -> Result<Self, StoreError> {
        let mut cr = CountingReader::new(r);
        let mut raw = Vec::with_capacity(80);

        let mut magic = [0u8; 8];
        cr.read_exact_ctx(&mut magic, "magic")?;
        if magic != MAGIC {
            return Err(StoreError::BadMagic(magic));
        }
        raw.extend_from_slice(&magic);

        let version = read_u32(&mut cr, &mut raw, "format version")?;
        if version != FORMAT_VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let algo = read_u8(&mut cr, &mut raw, "checksum algorithm")?;
        if algo != CHECKSUM_FNV1A64 && algo != CHECKSUM_LANES64 {
            return Err(StoreError::BadChecksumAlgo(algo));
        }
        let dim = read_u32(&mut cr, &mut raw, "dim")?;
        let rows = read_u64(&mut cr, &mut raw, "rows")?;
        let chunk_len = read_u32(&mut cr, &mut raw, "chunk_len")?;
        let fam_len = read_u8(&mut cr, &mut raw, "family length")?;
        let mut fam = vec![0u8; fam_len as usize];
        cr.read_exact_ctx(&mut fam, "family name")?;
        raw.extend_from_slice(&fam);
        let family = String::from_utf8(fam)
            .map_err(|_| StoreError::HeaderCorrupt("family name is not UTF-8".into()))?;
        let n = read_u64(&mut cr, &mut raw, "provenance n")?;
        let d = read_u32(&mut cr, &mut raw, "provenance d")?;
        let seed = read_u64(&mut cr, &mut raw, "provenance seed")?;
        let r_param = read_u32(&mut cr, &mut raw, "provenance r")?;
        let skew_flag = read_u8(&mut cr, &mut raw, "skew flag")?;
        let skew = match skew_flag {
            0 => None,
            1 => Some(f64::from_bits(read_u64(&mut cr, &mut raw, "skew")?)),
            other => {
                return Err(StoreError::HeaderCorrupt(format!("skew flag byte {other}")));
            }
        };

        let computed = fnv1a64(&raw);
        let mut sum = [0u8; 8];
        cr.read_exact_ctx(&mut sum, "header checksum")?;
        let stored = u64::from_le_bytes(sum);
        if stored != computed {
            return Err(StoreError::HeaderChecksumMismatch { stored, computed });
        }
        if dim == 0 {
            return Err(StoreError::HeaderCorrupt("dim is zero".into()));
        }
        if chunk_len == 0 {
            return Err(StoreError::HeaderCorrupt("chunk_len is zero".into()));
        }
        // Every frame the schedule admits is at most this large, so the
        // payload buffer `next_chunk` sizes is bounded without a check of
        // its own.
        check_chunk_payload(dim, chunk_len).map_err(StoreError::HeaderCorrupt)?;

        Ok(ChunkReader {
            r: cr,
            header: FileHeader {
                dim,
                rows,
                chunk_len,
                provenance: Provenance {
                    family,
                    n,
                    d,
                    seed,
                    r: r_param,
                    skew,
                },
            },
            algo,
            rows_read: 0,
            chunks_read: 0,
            done: false,
            payload: Vec::new(),
            chunk: ConstraintColumns::zeroed(dim as usize, 0),
        })
    }

    /// The validated header.
    pub fn header(&self) -> &FileHeader {
        &self.header
    }

    /// Bytes consumed from the underlying reader so far.
    pub fn bytes_read(&self) -> u64 {
        self.r.count
    }

    /// Rows decoded so far.
    pub fn rows_read(&self) -> u64 {
        self.rows_read
    }

    /// Decodes the next chunk and lends it until the next call, or
    /// returns `None` after the final chunk (having verified the row
    /// total and the absence of trailing bytes).
    pub fn next_chunk(&mut self) -> Result<Option<&ConstraintColumns>, StoreError> {
        if self.done {
            return Ok(None);
        }
        if self.rows_read == self.header.rows {
            // All rows delivered: the file must end exactly here.
            let mut probe = [0u8; 1];
            loop {
                match self.r.inner.read(&mut probe) {
                    Ok(0) => {
                        self.done = true;
                        return Ok(None);
                    }
                    Ok(_) => {
                        self.r.count += 1;
                        return Err(StoreError::TrailingBytes { extra: 1 });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let chunk_idx = self.chunks_read;
        let mut rows_bytes = [0u8; 4];
        self.r.read_exact_ctx(&mut rows_bytes, "chunk row count")?;
        let rows = u32::from_le_bytes(rows_bytes);
        let expect = (self.header.rows - self.rows_read).min(u64::from(self.header.chunk_len));
        if u64::from(rows) != expect {
            return Err(StoreError::ChunkRowsInvalid {
                chunk: chunk_idx,
                rows,
            });
        }
        let dim = self.header.dim as usize;
        self.payload.resize((dim + 1) * rows as usize * 8, 0);
        self.r.read_exact_ctx(&mut self.payload, "chunk payload")?;
        let mut sum = [0u8; 8];
        self.r.read_exact_ctx(&mut sum, "chunk checksum")?;
        let stored = u64::from_le_bytes(sum);
        // The frame decodes into the reused block as it is hashed, and
        // the block is lent only once the checksum matches, so a bad
        // frame is never observable.
        let (coords, extra) = self.chunk.resize_raw(rows as usize);
        let (coord_bytes, extra_bytes) = self.payload.split_at(coords.len() * 8);
        let computed = if self.algo == CHECKSUM_FNV1A64 {
            let computed = fnv1a64_extend(fnv1a64(&rows_bytes), &self.payload);
            decode_f64s(coord_bytes, coords);
            decode_f64s(extra_bytes, extra);
            computed
        } else {
            let mut lanes = LANES_START;
            lanes_decode(&mut lanes, 0, coord_bytes, coords);
            lanes_decode(&mut lanes, coords.len(), extra_bytes, extra);
            lanes_finish(rows, &lanes, self.payload.len() / 8)
        };
        if stored != computed {
            return Err(StoreError::ChunkChecksumMismatch {
                chunk: chunk_idx,
                stored,
                computed,
            });
        }
        self.rows_read += u64::from(rows);
        self.chunks_read += 1;
        Ok(Some(&self.chunk))
    }
}

/// Decodes little-endian `f64` bit patterns into `out`, one per 8 bytes.
fn decode_f64s(bytes: &[u8], out: &mut [f64]) {
    for (v, w) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = f64::from_bits(word(w));
    }
}

fn read_u8<R: Read>(
    r: &mut CountingReader<R>,
    raw: &mut Vec<u8>,
    ctx: &str,
) -> Result<u8, StoreError> {
    let mut b = [0u8; 1];
    r.read_exact_ctx(&mut b, ctx)?;
    raw.push(b[0]);
    Ok(b[0])
}

fn read_u32<R: Read>(
    r: &mut CountingReader<R>,
    raw: &mut Vec<u8>,
    ctx: &str,
) -> Result<u32, StoreError> {
    let mut b = [0u8; 4];
    r.read_exact_ctx(&mut b, ctx)?;
    raw.extend_from_slice(&b);
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(
    r: &mut CountingReader<R>,
    raw: &mut Vec<u8>,
    ctx: &str,
) -> Result<u64, StoreError> {
    let mut b = [0u8; 8];
    r.read_exact_ctx(&mut b, ctx)?;
    raw.extend_from_slice(&b);
    Ok(u64::from_le_bytes(b))
}

/// Opens a store file for chunked reading.
pub fn open_file(path: &Path) -> Result<ChunkReader<BufReader<File>>, StoreError> {
    let f = File::open(path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
    ChunkReader::open(BufReader::new(f))
}

/// Fully scans a store file — every chunk decoded, every checksum
/// verified, row total and trailing bytes checked — and returns its
/// header plus total encoded size. This is the `--check` verification
/// primitive.
pub fn verify_file(path: &Path) -> Result<(FileHeader, u64), StoreError> {
    let mut reader = open_file(path)?;
    while reader.next_chunk()?.is_some() {}
    let bytes = reader.bytes_read();
    Ok((reader.header, bytes))
}

/// Reads a whole file back into AoS constraints via
/// [`ColumnarProblem::from_row`]. Returns the constraints, the header,
/// and the bytes read. Memory is reserved chunk by chunk as rows decode,
/// never from the header's row count.
pub fn read_all<P: ColumnarProblem>(
    path: &Path,
    problem: &P,
) -> Result<(Vec<P::Constraint>, FileHeader, u64), StoreError> {
    let mut reader = open_file(path)?;
    let mut out = Vec::new();
    let mut buf = Vec::with_capacity(reader.header().dim as usize);
    while let Some(chunk) = reader.next_chunk()? {
        out.reserve(chunk.len());
        for i in 0..chunk.len() {
            let extra = chunk.row(i, &mut buf);
            out.push(problem.from_row(&buf, extra));
        }
    }
    let bytes = reader.bytes_read();
    Ok((out, reader.header, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn demo_header(rows: u64, chunk_len: u32) -> FileHeader {
        FileHeader {
            dim: 2,
            rows,
            chunk_len,
            provenance: Provenance {
                family: "random_lp".into(),
                n: rows,
                d: 2,
                seed: 42,
                r: 3,
                skew: None,
            },
        }
    }

    pub(crate) fn demo_bytes(rows: usize, chunk_len: u32) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ChunkWriter::create(&mut out, demo_header(rows as u64, chunk_len)).unwrap();
        let mut written = 0usize;
        while written < rows {
            let take = (rows - written).min(chunk_len as usize);
            let mut chunk = ConstraintColumns::zeroed(2, take);
            for i in 0..take {
                let g = (written + i) as f64;
                chunk.set_row(i, &[g, -g * 0.5], 1.0 + g);
            }
            w.write_chunk(&chunk).unwrap();
            written += take;
        }
        w.finish().unwrap();
        out
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn lanes_vectors() {
        // The DESIGN.md §10 test vectors: an empty payload, one dim-2
        // row, and 33 words, which leave lane 0 one word ahead.
        let f64s = |vs: &[f64]| vs.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<_>>();
        let words = (0u64..33).flat_map(u64::to_le_bytes).collect::<Vec<_>>();
        assert_eq!(lanes64(0, &[]), 0x6fbb_3e56_0b51_b5cd);
        assert_eq!(lanes64(1, &f64s(&[1.0, -2.0, 3.5])), 0x3693_a47e_eea5_c9f9);
        assert_eq!(lanes64(11, &words), 0xfa89_f922_d986_8aab);
    }

    #[test]
    fn fused_sweep_matches_lanes64_then_decode_at_every_split() {
        // Any payload length and any coordinate/extra boundary, inside a
        // four-word block or on its edge: one fused sweep per part gives
        // algorithm 2's checksum and the decoded words.
        for words in 0..=19usize {
            let values: Vec<f64> = (0..words).map(|i| i as f64 * -1.25 + 0.5).collect();
            let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            for split in 0..=words {
                let mut out = vec![f64::NAN; words];
                let (head, tail) = out.split_at_mut(split);
                let mut lanes = LANES_START;
                lanes_decode(&mut lanes, 0, &payload[..8 * split], head);
                lanes_decode(&mut lanes, split, &payload[8 * split..], tail);
                let fused = lanes_finish(7, &lanes, words);
                assert_eq!(fused, lanes64(7, &payload), "{words} words, split {split}");
                let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&values), "{words} words, split {split}");
            }
        }
    }

    #[test]
    fn every_single_bit_and_every_two_sign_flips_change_the_checksum() {
        // A 16-row dim-2 frame: 48 words, 12 per lane. A lane stepping
        // `(acc ^ w) · FNV_PRIME` shifts by 2^63 on a sign flip and
        // shifts back on a second one in the same lane; the rotate in
        // `lane_round` moves the flipped bit off the top, so it cannot.
        let payload: Vec<u8> = (0..48u32)
            .flat_map(|i| (f64::from(i) * 0.75 - 9.0).to_le_bytes())
            .collect();
        let clean = lanes64(16, &payload);
        let flip = |bytes: &mut [u8], word: usize, bit: u32| {
            let at = 8 * word + (bit / 8) as usize;
            bytes[at] ^= 1 << (bit % 8);
        };
        let naive = |bytes: &[u8]| {
            let mut lanes = [FNV_OFFSET; 4];
            for (i, w) in bytes.chunks_exact(8).enumerate() {
                let w = u64::from_le_bytes(w.try_into().unwrap());
                lanes[i % 4] = (lanes[i % 4] ^ w).wrapping_mul(FNV_PRIME);
            }
            lanes
        };
        let mut same_lane = payload.clone();
        flip(&mut same_lane, 0, 63);
        flip(&mut same_lane, 4, 63);
        assert_eq!(naive(&same_lane), naive(&payload), "the naive lane cancels");
        for a in 0..48 {
            for bit in 0..64 {
                let mut bad = payload.clone();
                flip(&mut bad, a, bit);
                assert_ne!(lanes64(16, &bad), clean, "bit {bit} of word {a}");
            }
            for b in a + 1..48 {
                let mut bad = payload.clone();
                flip(&mut bad, a, 63);
                flip(&mut bad, b, 63);
                assert_ne!(lanes64(16, &bad), clean, "signs of words {a} and {b}");
            }
        }
    }

    /// Returns `Interrupted` once when the bytes run out, then EOF.
    struct InterruptAtEnd<'a> {
        bytes: &'a [u8],
        interrupted: bool,
    }

    impl Read for InterruptAtEnd<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() && !self.interrupted {
                self.interrupted = true;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn end_of_file_probe_retries_interrupted_reads() {
        let bytes = demo_bytes(5, 2);
        let mut r = ChunkReader::open(InterruptAtEnd {
            bytes: &bytes,
            interrupted: false,
        })
        .unwrap();
        let mut rows = 0;
        while let Some(chunk) = r.next_chunk().unwrap() {
            rows += chunk.len();
        }
        assert_eq!(rows, 5);
        assert!(r.r.inner.interrupted, "the probe met the interruption");
    }

    #[test]
    fn write_read_round_trip() {
        let bytes = demo_bytes(7, 3);
        let mut r = ChunkReader::open(&bytes[..]).unwrap();
        assert_eq!(r.header().rows, 7);
        let mut rows = 0usize;
        let mut sizes = Vec::new();
        while let Some(chunk) = r.next_chunk().unwrap() {
            assert_eq!(chunk.dim(), 2);
            let mut buf = Vec::new();
            for i in 0..chunk.len() {
                let g = (rows + i) as f64;
                let extra = chunk.row(i, &mut buf);
                assert_eq!(buf, vec![g, -g * 0.5]);
                assert_eq!(extra, 1.0 + g);
            }
            sizes.push(chunk.len());
            rows += chunk.len();
        }
        assert_eq!(rows, 7);
        assert_eq!(sizes, vec![3, 3, 1]);
        assert_eq!(r.bytes_read(), bytes.len() as u64);
        assert_eq!(r.next_chunk().unwrap(), None, "reader fuses after the end");
    }

    #[test]
    fn file_bytes_predicts_encoded_size() {
        for (rows, chunk_len) in [(7usize, 3u32), (6, 3), (1, 8), (16, 4)] {
            let bytes = demo_bytes(rows, chunk_len);
            assert_eq!(
                demo_header(rows as u64, chunk_len).file_bytes(),
                bytes.len() as u64,
                "rows {rows} chunk_len {chunk_len}"
            );
        }
    }

    #[test]
    fn writer_refuses_inconsistent_chunks() {
        let mut out = Vec::new();
        let mut w = ChunkWriter::create(&mut out, demo_header(5, 4)).unwrap();
        // Wrong dim.
        let bad_dim = ConstraintColumns::zeroed(3, 4);
        assert!(matches!(
            w.write_chunk(&bad_dim),
            Err(StoreError::WriterMisuse(_))
        ));
        // Wrong schedule (first chunk must be exactly chunk_len).
        let short = ConstraintColumns::zeroed(2, 3);
        assert!(matches!(
            w.write_chunk(&short),
            Err(StoreError::WriterMisuse(_))
        ));
        // Underfull file refused at finish.
        let ok = ConstraintColumns::zeroed(2, 4);
        w.write_chunk(&ok).unwrap();
        assert!(matches!(w.finish(), Err(StoreError::WriterMisuse(_))));
    }

    #[test]
    fn header_encode_decode_round_trip_with_skew() {
        let mut h = demo_header(10, 4);
        h.provenance.skew = Some(4.0);
        h.provenance.family = "lp_skewed".into();
        let mut bytes = encode_header(&h);
        // No chunks: append nothing; a reader still validates the header.
        h.rows = 0;
        bytes.splice(17..25, 0u64.to_le_bytes());
        // Row-count patch invalidates the checksum; recompute.
        let body_len = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body_len]);
        bytes.truncate(body_len);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let r = ChunkReader::open(&bytes[..]).unwrap();
        assert_eq!(r.header().provenance, h.provenance);
        assert_eq!(r.header().dim, 2);
    }
}
