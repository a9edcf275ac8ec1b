//! Out-of-core chunk sources: where the streaming model's bytes come
//! from, and the one violation certificate every model run ends with.
//!
//! Theorem 1's algorithm only ever needs the input as an ordered
//! sequence of columnar blocks per pass. A [`ChunkSource`] abstracts
//! that: [`SliceSource`] serves an in-RAM [`ConstraintColumns`] as one
//! block per pass (the classic simulator path), and [`FileSource`]
//! replays a chunked store file (`llp_store`), re-opening and
//! re-checksumming it on every pass — so a multi-pass run over a file
//! reads `passes × file_bytes` real bytes, and the meters prove it.
//! [`count_violators`] certifies a solution over any source in one
//! columnar pass, one chunk resident at a time; [`read_all`] and
//! [`read_partitioned`] load a file whole or as site partitions for the
//! models that hold their input in memory.
//!
//! Bit-identity contract: the violation kernels
//! (`ColumnarProblem::scan_columns`) use independent per-element
//! accumulators, so classifying a row never depends on which block it
//! arrived in; and `ColumnarProblem::from_row` is the exact inverse of
//! `to_columns`. A run over a `FileSource` therefore reproduces the
//! in-RAM run's samples, nets, bases, and weights bit for bit — the
//! differential suite in `tests/parallel_determinism.rs` pins this.

use crate::BigDataError;
use llp_core::lptype::ColumnarProblem;
use llp_geom::ConstraintColumns;
use llp_store::{ChunkReader, StoreError};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

// The store loaders the in-memory models ingest a file with, re-exported
// so crates that reach the store only through this one can load files.
pub use llp_store::{read_all, read_partitioned};

impl From<StoreError> for BigDataError {
    fn from(e: StoreError) -> Self {
        BigDataError::Store(e.to_string())
    }
}

/// An ordered, re-scannable sequence of columnar constraint blocks —
/// the streaming model's input tape.
pub trait ChunkSource {
    /// Total rows the source yields per pass.
    fn len(&self) -> usize;

    /// True iff the source holds no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rewinds to the start of the tape. Must be called before each
    /// sequence of [`next_chunk`](Self::next_chunk) calls.
    fn begin_pass(&mut self) -> Result<(), BigDataError>;

    /// The next block of the current pass, with the absolute row index
    /// of its first row, or `None` at end of tape. Blocks arrive in
    /// row order and partition `0..len()`.
    fn next_chunk(&mut self) -> Result<Option<(usize, &ConstraintColumns)>, BigDataError>;

    /// Bytes read from backing storage so far, accumulated across
    /// passes (0 for in-RAM sources).
    fn bytes_read(&self) -> u64 {
        0
    }
}

/// An in-RAM source: the whole instance as a single block per pass.
pub struct SliceSource {
    columns: ConstraintColumns,
    served: bool,
}

impl SliceSource {
    /// Wraps a columnar instance.
    pub fn new(columns: ConstraintColumns) -> Self {
        SliceSource {
            columns,
            served: false,
        }
    }
}

impl ChunkSource for SliceSource {
    fn len(&self) -> usize {
        self.columns.len()
    }

    fn begin_pass(&mut self) -> Result<(), BigDataError> {
        self.served = false;
        Ok(())
    }

    fn next_chunk(&mut self) -> Result<Option<(usize, &ConstraintColumns)>, BigDataError> {
        if self.served {
            return Ok(None);
        }
        self.served = true;
        Ok(Some((0, &self.columns)))
    }
}

/// A chunked-store-file source. Every pass re-opens the file and
/// re-verifies every chunk checksum on the way through; corruption
/// discovered mid-run surfaces as [`BigDataError::Store`].
pub struct FileSource {
    path: PathBuf,
    rows: usize,
    reader: Option<ChunkReader<BufReader<File>>>,
    /// The current decoded block, kept alive for the borrow returned by
    /// [`next_chunk`](ChunkSource::next_chunk).
    current: Option<ConstraintColumns>,
    base: usize,
    bytes_read: u64,
}

impl FileSource {
    /// Opens a store file, validating its header (the first pass still
    /// re-opens it — `open` only pins the row count and fails fast on a
    /// bad header).
    pub fn open(path: &Path) -> Result<Self, BigDataError> {
        let reader = llp_store::open_file(path)?;
        let rows = reader.header().rows as usize;
        let bytes_read = reader.bytes_read();
        Ok(FileSource {
            path: path.to_path_buf(),
            rows,
            reader: None,
            current: None,
            base: 0,
            bytes_read,
        })
    }

    /// The file this source replays.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl ChunkSource for FileSource {
    fn len(&self) -> usize {
        self.rows
    }

    fn begin_pass(&mut self) -> Result<(), BigDataError> {
        if let Some(reader) = self.reader.take() {
            // A prior pass abandoned mid-tape still accounts its bytes.
            self.bytes_read += reader.bytes_read();
        }
        self.reader = Some(llp_store::open_file(&self.path)?);
        self.base = 0;
        self.current = None;
        Ok(())
    }

    fn next_chunk(&mut self) -> Result<Option<(usize, &ConstraintColumns)>, BigDataError> {
        let reader = self.reader.as_mut().expect("begin_pass before next_chunk");
        self.base += self.current.take().map_or(0, |c| c.len());
        match reader.next_chunk() {
            Ok(Some(chunk)) => {
                self.current = Some(chunk);
                Ok(Some((self.base, self.current.as_ref().expect("just set"))))
            }
            Ok(None) => {
                // Tape exhausted: fold this pass's byte count into the
                // running total.
                if let Some(reader) = self.reader.take() {
                    self.bytes_read += reader.bytes_read();
                }
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn bytes_read(&self) -> u64 {
        self.bytes_read + self.reader.as_ref().map_or(0, |r| r.bytes_read())
    }
}

/// Counts the rows of `source` that violate `solution`, in one pass.
/// Each chunk is cut on the fixed `llp_par::DEFAULT_CHUNK` grid and swept
/// by the problem's column kernel, so the count is exact at any thread
/// count and a file stays out-of-core: one chunk is resident at a time.
pub fn count_violators<P: ColumnarProblem, S: ChunkSource>(
    problem: &P,
    solution: &P::Solution,
    source: &mut S,
) -> Result<u64, BigDataError> {
    source.begin_pass()?;
    let mut count = 0u64;
    while let Some((_, chunk)) = source.next_chunk()? {
        let counts = llp_par::par_ranges(chunk.len(), llp_par::DEFAULT_CHUNK, |start, end| {
            let mut violators = Vec::new();
            problem.scan_columns(solution, &chunk.view(start, end), &mut violators);
            violators.len() as u64
        });
        count += counts.iter().sum::<u64>();
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_store::{ChunkWriter, FileHeader, Provenance};
    use std::path::PathBuf;

    fn scratch_dir() -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp-ooc-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_demo(path: &Path, rows: usize, chunk_len: u32) -> u64 {
        let header = FileHeader {
            dim: 2,
            rows: rows as u64,
            chunk_len,
            provenance: Provenance {
                family: "random_lp".into(),
                n: rows as u64,
                d: 2,
                seed: 1,
                r: 3,
                skew: None,
            },
        };
        let file = std::fs::File::create(path).unwrap();
        let mut w = ChunkWriter::create(std::io::BufWriter::new(file), header).unwrap();
        let mut written = 0usize;
        while written < rows {
            let take = (rows - written).min(chunk_len as usize);
            let mut chunk = ConstraintColumns::zeroed(2, take);
            for i in 0..take {
                let g = (written + i) as f64;
                chunk.set_row(i, &[g, g + 0.25], -g);
            }
            w.write_chunk(&chunk).unwrap();
            written += take;
        }
        w.finish().unwrap()
    }

    fn drain_spans(source: &mut dyn ChunkSource) -> Vec<(usize, usize)> {
        source.begin_pass().unwrap();
        let mut spans = Vec::new();
        while let Some((base, chunk)) = source.next_chunk().unwrap() {
            spans.push((base, chunk.len()));
        }
        spans
    }

    #[test]
    fn slice_source_serves_one_block_per_pass() {
        let mut cols = ConstraintColumns::zeroed(2, 5);
        for i in 0..5 {
            cols.set_row(i, &[i as f64, 0.0], 1.0);
        }
        let mut s = SliceSource::new(cols);
        assert_eq!(s.len(), 5);
        assert_eq!(drain_spans(&mut s), vec![(0, 5)]);
        assert_eq!(drain_spans(&mut s), vec![(0, 5)], "rewind works");
        assert_eq!(s.bytes_read(), 0);
    }

    #[test]
    fn file_source_partitions_rows_and_meters_bytes_per_pass() {
        let dir = scratch_dir();
        let path = dir.join("source_demo.llps");
        let file_bytes = write_demo(&path, 10, 4);
        let mut s = FileSource::open(&path).unwrap();
        assert_eq!(s.len(), 10);

        let spans = drain_spans(&mut s);
        assert_eq!(spans, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(s.bytes_read(), file_bytes + header_bytes(&path));

        // A second pass re-reads the whole file.
        let spans = drain_spans(&mut s);
        assert_eq!(spans, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(s.bytes_read(), 2 * file_bytes + header_bytes(&path));
    }

    /// `FileSource::open` itself reads one header to validate the file.
    fn header_bytes(path: &Path) -> u64 {
        llp_store::open_file(path).unwrap().bytes_read()
    }

    #[test]
    fn file_source_rows_match_written_values() {
        let dir = scratch_dir();
        let path = dir.join("source_values.llps");
        write_demo(&path, 7, 3);
        let mut s = FileSource::open(&path).unwrap();
        s.begin_pass().unwrap();
        let mut buf = Vec::new();
        let mut seen = 0usize;
        while let Some((base, chunk)) = s.next_chunk().unwrap() {
            for i in 0..chunk.len() {
                let g = (base + i) as f64;
                let extra = chunk.row(i, &mut buf);
                assert_eq!(buf, vec![g, g + 0.25]);
                assert_eq!(extra, -g);
                seen += 1;
            }
        }
        assert_eq!(seen, 7);
    }

    #[test]
    fn corrupt_file_surfaces_as_store_error() {
        let dir = scratch_dir();
        let path = dir.join("source_corrupt.llps");
        write_demo(&path, 6, 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 12;
        bytes[at] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut s = FileSource::open(&path).unwrap();
        s.begin_pass().unwrap();
        let mut err = None;
        loop {
            match s.next_chunk() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(err, Some(BigDataError::Store(_))),
            "corruption must surface mid-run: {err:?}"
        );
    }
}
