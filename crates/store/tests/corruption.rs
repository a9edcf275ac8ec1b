//! Corruption refusal: every malformed input is rejected with a typed
//! [`StoreError`] — never a panic, never partial data. The cases mirror
//! the failure-mode table in DESIGN.md §10: truncation at every
//! structural boundary, bad magic, wrong version, unknown checksum
//! algorithm, header/chunk checksum mismatches, trailing bytes, and
//! headers that lie about dim or row counts — including re-sealed
//! headers whose sizes would make a reader allocate without bound.

use llp_core::instances::lp::LpProblem;
use llp_geom::ConstraintColumns;
use llp_store::{
    encode_header, read_all, verify_file, ChunkReader, ChunkWriter, FileHeader, Provenance,
    StoreError, FORMAT_VERSION, MAGIC, MAX_CHUNK_PAYLOAD,
};
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp-store-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn header(rows: u64, chunk_len: u32) -> FileHeader {
    FileHeader {
        dim: 2,
        rows,
        chunk_len,
        provenance: Provenance {
            family: "lp_uniform".into(),
            n: rows,
            d: 2,
            seed: 11,
            r: 3,
            skew: None,
        },
    }
}

/// A well-formed two-chunk file: 5 rows in chunks of 3.
fn good_file() -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = ChunkWriter::create(&mut out, header(5, 3)).unwrap();
    let mut row = 0usize;
    for take in [3usize, 2] {
        let mut chunk = ConstraintColumns::zeroed(2, take);
        for i in 0..take {
            let g = (row + i) as f64;
            chunk.set_row(i, &[g + 0.5, -g], 2.0 * g);
        }
        w.write_chunk(&chunk).unwrap();
        row += take;
    }
    w.finish().unwrap();
    out
}

/// Fully decodes a byte image, returning the first error.
fn scan(bytes: &[u8]) -> Result<usize, StoreError> {
    let mut r = ChunkReader::open(bytes)?;
    let mut rows = 0usize;
    while let Some(chunk) = r.next_chunk()? {
        rows += chunk.len();
    }
    Ok(rows)
}

/// Patches one byte, returning the corrupted copy.
fn flip(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at] ^= 0xff;
    out
}

#[test]
fn well_formed_file_scans_clean() {
    assert_eq!(scan(&good_file()), Ok(5));
}

#[test]
fn truncation_at_every_byte_is_a_typed_error() {
    // Cutting the file anywhere — mid-header, mid-chunk, mid-checksum —
    // yields Truncated (or an earlier structural error), never a panic
    // and never silently partial data.
    let file = good_file();
    for cut in 0..file.len() {
        match scan(&file[..cut]) {
            Ok(rows) => panic!("cut at {cut} returned {rows} rows"),
            Err(StoreError::Truncated { .. }) => {}
            Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_refused() {
    let file = flip(&good_file(), 0);
    match scan(&file) {
        Err(StoreError::BadMagic(m)) => assert_ne!(m, MAGIC),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn wrong_version_is_refused() {
    // Bump the version field and re-seal the header checksum so only
    // the version check can fire.
    let mut file = good_file();
    file[8] = (FORMAT_VERSION + 1) as u8;
    match scan(&file) {
        Err(StoreError::BadVersion(v)) => assert_eq!(v, FORMAT_VERSION + 1),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unknown_checksum_algo_is_refused() {
    let mut file = good_file();
    file[12] = 9;
    match scan(&file) {
        Err(StoreError::BadChecksumAlgo(a)) => assert_eq!(a, 9),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn header_byte_flip_fails_the_header_checksum() {
    // Any header field flip after the fixed prefix (dim, rows,
    // chunk_len, provenance) is caught by the header checksum before
    // any chunk is read — except inside the family name, where the
    // UTF-8 check can fire first; both are typed refusals.
    let file = good_file();
    for at in [13usize, 17, 25, 30, 40] {
        match scan(&flip(&file, at)) {
            Err(StoreError::HeaderChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed)
            }
            Err(StoreError::HeaderCorrupt(why)) => {
                assert!(why.contains("UTF-8"), "flip at {at}: {why}")
            }
            other => panic!("flip at {at}: unexpected {other:?}"),
        }
    }
}

#[test]
fn chunk_payload_flip_fails_that_chunks_checksum() {
    // Every bit of every payload word and checksum word of both frames.
    // Frame 0 (3 rows, 9 words) ends its coordinates at word 6, inside a
    // four-word lane block; frame 1 (2 rows, 6 words) ends them at word 4,
    // on a block edge. The reader hashes and decodes in one sweep that
    // crosses that boundary, so each flip must fail its own chunk.
    let file = good_file();
    let header_len = encode_header(&header(5, 3)).len();
    let mut frame_start = header_len;
    for (chunk, rows) in [(0u64, 3usize), (1, 2)] {
        let payload_words = rows * 3;
        for word in 0..=payload_words {
            for bit in 0..64 {
                let mut bad = file.clone();
                bad[frame_start + 4 + 8 * word + bit / 8] ^= 1 << (bit % 8);
                match scan(&bad) {
                    Err(StoreError::ChunkChecksumMismatch { chunk: got, .. }) => {
                        assert_eq!(got, chunk, "word {word} bit {bit} of chunk {chunk}")
                    }
                    other => panic!("word {word} bit {bit} of chunk {chunk}: {other:?}"),
                }
            }
        }
        frame_start += 4 + 8 * payload_words + 8;
    }
    assert_eq!(frame_start, file.len());
}

#[test]
fn trailing_bytes_are_refused() {
    let mut file = good_file();
    file.push(0);
    assert!(matches!(scan(&file), Err(StoreError::TrailingBytes { .. })));
}

#[test]
fn chunk_row_count_lies_are_refused() {
    // A chunk that declares a row count off the header's schedule
    // (over capacity, zero, or overshooting the total) is refused
    // before its payload is trusted.
    let file = good_file();
    let header_len = encode_header(&header(5, 3)).len();
    for rows in [0u32, 4, 200] {
        let mut bad = file.clone();
        bad[header_len..header_len + 4].copy_from_slice(&rows.to_le_bytes());
        match scan(&bad) {
            Err(StoreError::ChunkRowsInvalid { chunk: 0, rows: r }) => assert_eq!(r, rows),
            other => panic!("rows={rows}: unexpected {other:?}"),
        }
    }
}

#[test]
fn header_row_count_lie_is_refused() {
    // Re-seal a header that promises more rows than the file holds:
    // the reader expects a full 3-row chunk where the 2-row remainder
    // sits, so the schedule check fires.
    let mut h = header(5, 3);
    let good = good_file();
    let old_len = encode_header(&h).len();
    h.rows = 7;
    let mut bad = encode_header(&h);
    bad.extend_from_slice(&good[old_len..]);
    match scan(&bad) {
        Err(StoreError::ChunkRowsInvalid { chunk: 1, rows: 2 }) => {}
        Err(StoreError::Truncated { .. }) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn header_dim_lie_is_refused() {
    // A header claiming the wrong dim mis-sizes every payload; the
    // first chunk's checksum (or the frame structure) catches it.
    let mut h = header(5, 3);
    let good = good_file();
    let old_len = encode_header(&h).len();
    h.dim = 3;
    let mut bad = encode_header(&h);
    bad.extend_from_slice(&good[old_len..]);
    match scan(&bad) {
        Err(
            StoreError::ChunkChecksumMismatch { .. }
            | StoreError::Truncated { .. }
            | StoreError::ChunkRowsInvalid { .. },
        ) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn zero_dim_and_zero_chunk_headers_are_refused() {
    // encode_header seals whatever it is given, so the checksum passes
    // and only the structural check can fire.
    for (dim, chunk_len) in [(0u32, 3u32), (2, 0)] {
        let mut h = header(0, 3);
        h.dim = dim;
        h.chunk_len = chunk_len;
        let bytes = encode_header(&h);
        assert!(
            matches!(scan(&bytes), Err(StoreError::HeaderCorrupt(_))),
            "dim={dim} chunk_len={chunk_len}"
        );
    }
}

#[test]
fn oversized_chunk_header_is_refused_before_any_frame() {
    // A re-sealed header of dim = chunk_len = rows = 2^24 followed by the
    // first frame's row count and 64 junk bytes: 140 bytes whose first
    // frame would need a 2^51-byte payload buffer. The cap refuses the
    // header at open, and the writer refuses to produce one.
    let mut h = header(1 << 24, 1 << 24);
    h.dim = 1 << 24;
    h.provenance.family = "random_lp".into();
    let mut bytes = encode_header(&h);
    bytes.extend_from_slice(&(1u32 << 24).to_le_bytes());
    bytes.extend_from_slice(&[0xa5; 64]);
    assert_eq!(bytes.len(), 140);
    match scan(&bytes) {
        Err(StoreError::HeaderCorrupt(why)) => assert!(why.contains("cap"), "{why}"),
        other => panic!("unexpected {other:?}"),
    }
    assert!(matches!(
        ChunkWriter::create(Vec::new(), h),
        Err(StoreError::WriterMisuse(_))
    ));
    // The cap is a sharp boundary: the longest dim-2 chunk under it is
    // admitted, one row more is not.
    let rows = (MAX_CHUNK_PAYLOAD / (3 * 8)) as u32;
    assert!(ChunkWriter::create(Vec::new(), header(0, rows)).is_ok());
    assert!(ChunkWriter::create(Vec::new(), header(0, rows + 1)).is_err());
}

#[test]
fn header_row_count_never_sizes_the_loaders() {
    // A 72-byte header-only file promising 2^50 rows: the loader reserves
    // per decoded chunk, so it runs into the missing first frame
    // instead of reserving room for 2^50 constraints.
    let mut h = header(1 << 50, 4096);
    h.provenance.family = "random_lp".into();
    let bytes = encode_header(&h);
    assert_eq!(bytes.len(), 72);
    let path = scratch_dir().join("corruption_header_only.llps");
    std::fs::write(&path, &bytes).unwrap();
    let p = LpProblem::new(vec![1.0, 1.0]);
    assert!(matches!(
        read_all(&path, &p),
        Err(StoreError::Truncated { .. })
    ));
}

#[test]
fn verify_file_accepts_good_and_refuses_corrupt_on_disk() {
    let dir = scratch_dir();
    let file = good_file();

    let good_path = dir.join("corruption_good.llps");
    std::fs::write(&good_path, &file).unwrap();
    let (h, bytes) = verify_file(&good_path).unwrap();
    assert_eq!(h, header(5, 3));
    assert_eq!(bytes, file.len() as u64);
    assert_eq!(h.file_bytes(), bytes, "file_bytes predicts the real size");

    let bad_path = dir.join("corruption_bad.llps");
    std::fs::write(&bad_path, flip(&file, file.len() - 3)).unwrap();
    assert!(matches!(
        verify_file(&bad_path),
        Err(StoreError::ChunkChecksumMismatch { .. })
    ));

    let missing = dir.join("corruption_missing.llps");
    assert!(matches!(verify_file(&missing), Err(StoreError::Io(_))));
}
