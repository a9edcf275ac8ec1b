//! Golden file-format fixtures: one canonical chunked store file and
//! one skewed header, pinned byte for byte and referenced from the
//! byte-layout tables in DESIGN.md §10.
//! `tests/golden/canonical_chunks_v2.hex` is what the writer emits and
//! what the reader decodes (chunk-checksum algorithm 2).
//! `tests/golden/canonical_chunks.hex` holds the same entries under the
//! retired algorithm 1 (byte-wise FNV-1a-64 chunks), which the reader
//! refuses. If an intentional format change breaks this test, bump
//! `FORMAT_VERSION`, regenerate the fixture from the hex dumps in the
//! failure message, *and* update the §10 tables in the same commit —
//! the fixtures exist so spec and code cannot drift apart silently.

use llp_geom::ConstraintColumns;
use llp_store::{encode_header, ChunkReader, ChunkWriter, FileHeader, Provenance, StoreError};

/// Algorithm 1 (FNV-1a-64 chunks): a refusal vector.
const FIXTURE_V1: &str = include_str!("golden/canonical_chunks.hex");
/// Algorithm 2 (four-lane chunks): the writer's output.
const FIXTURE_V2: &str = include_str!("golden/canonical_chunks_v2.hex");

/// The canonical file: dim 2, three rows in chunks of two (one full
/// chunk + one remainder chunk), balanced random-LP provenance.
fn canonical_header() -> FileHeader {
    FileHeader {
        dim: 2,
        rows: 3,
        chunk_len: 2,
        provenance: Provenance {
            family: "lp_uniform".into(),
            n: 3,
            d: 2,
            seed: 7,
            r: 3,
            skew: None,
        },
    }
}

/// The canonical rows: values chosen to exercise sign, fractions, and
/// exact powers of two in the f64 bit patterns.
const ROWS: [([f64; 2], f64); 3] = [([1.0, -2.0], 3.5), ([0.5, 4.0], -1.25), ([8.0, 0.0], 2.0)];

fn canonical_file() -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = ChunkWriter::create(&mut out, canonical_header()).unwrap();
    for rows in ROWS.chunks(2) {
        let mut chunk = ConstraintColumns::zeroed(2, rows.len());
        for (i, (coords, extra)) in rows.iter().enumerate() {
            chunk.set_row(i, coords, *extra);
        }
        w.write_chunk(&chunk).unwrap();
    }
    w.finish().unwrap();
    out
}

/// A header-only file (zero rows) exercising the skew branch of the
/// provenance encoding.
fn skewed_empty_header() -> FileHeader {
    FileHeader {
        dim: 3,
        rows: 0,
        chunk_len: 4,
        provenance: Provenance {
            family: "lp_skewed_sites".into(),
            n: 0,
            d: 3,
            seed: 9,
            r: 3,
            skew: Some(4.0),
        },
    }
}

/// Parses the fixture: `name:` introduces an entry, subsequent lines
/// hold its hex bytes; `#` starts a comment.
fn fixture_entries(fixture: &str) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, String)> = Vec::new();
    for line in fixture.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_suffix(':') {
            entries.push((name.to_string(), String::new()));
        } else {
            let (_, hex) = entries
                .last_mut()
                .expect("fixture hex must follow a `name:` header");
            hex.push_str(&line.replace(' ', ""));
        }
    }
    entries
        .into_iter()
        .map(|(name, hex)| {
            assert!(hex.len() % 2 == 0, "{name}: odd hex length");
            let bytes = (0..hex.len() / 2)
                .map(|i| {
                    u8::from_str_radix(&hex[2 * i..2 * i + 2], 16)
                        .unwrap_or_else(|e| panic!("{name}: bad hex at byte {i}: {e}"))
                })
                .collect();
            (name, bytes)
        })
        .collect()
}

fn hex_dump(bytes: &[u8]) -> String {
    bytes
        .chunks(16)
        .map(|chunk| {
            chunk
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn canonical_encoding_matches_the_golden_fixture() {
    let wire = [
        ("file", canonical_file()),
        ("skewed_header", encode_header(&skewed_empty_header())),
    ];
    let golden = fixture_entries(FIXTURE_V2);
    assert_eq!(golden.len(), wire.len(), "fixture must hold both entries");
    for ((want_name, want), (name, bytes)) in golden.iter().zip(&wire) {
        assert_eq!(want_name, name, "fixture entry order");
        assert!(
            want == bytes,
            "{name} drifted from the golden fixture.\n\
             If the format change is intentional, bump FORMAT_VERSION, update \
             tests/golden/canonical_chunks_v2.hex and the DESIGN.md §10 tables.\n\
             expected:\n{}\nactual:\n{}",
            hex_dump(want),
            hex_dump(bytes),
        );
    }
}

#[test]
fn golden_fixture_bytes_decode_back() {
    // Both entries of the writer's fixture parse through the public
    // reader and reproduce the canonical structures.
    let golden = fixture_entries(FIXTURE_V2);
    let file = &golden[0].1;
    let mut r = ChunkReader::open(&file[..]).expect("golden file must decode");
    assert_eq!(*r.header(), canonical_header());
    let mut buf = Vec::new();
    let mut row = 0usize;
    let mut sizes = Vec::new();
    while let Some(chunk) = r.next_chunk().expect("golden chunks must decode") {
        for i in 0..chunk.len() {
            let extra = chunk.row(i, &mut buf);
            let (want_coords, want_extra) = ROWS[row];
            assert_eq!(buf, want_coords, "row {row} coords");
            assert_eq!(extra, want_extra, "row {row} extra");
            row += 1;
        }
        sizes.push(chunk.len());
    }
    assert_eq!(row, 3);
    assert_eq!(sizes, vec![2, 1], "full chunk then remainder");
    assert_eq!(r.bytes_read(), file.len() as u64);

    let header_only = &golden[1].1;
    let r = ChunkReader::open(&header_only[..]).expect("golden header must decode");
    assert_eq!(*r.header(), skewed_empty_header());
}

#[test]
fn algorithm_1_fixture_is_refused_at_its_algorithm_byte() {
    // Both entries carry intact header checksums; the reader refuses
    // them at byte 12, before any chunk is read.
    for (name, bytes) in fixture_entries(FIXTURE_V1) {
        match ChunkReader::open(&bytes[..]) {
            Err(StoreError::BadChecksumAlgo(1)) => {}
            Err(e) => panic!("{name}: refused with {e:?}"),
            Ok(_) => panic!("{name}: algorithm-1 header accepted"),
        }
    }
}

/// Fully decodes a byte image, returning the rows read or the first error.
fn scan(bytes: &[u8]) -> Result<usize, StoreError> {
    let mut r = ChunkReader::open(bytes)?;
    let mut rows = 0usize;
    while let Some(chunk) = r.next_chunk()? {
        rows += chunk.len();
    }
    Ok(rows)
}

#[test]
fn every_byte_flip_and_truncation_of_the_fixture_is_refused() {
    // A flipped byte anywhere — header field, header checksum, rows
    // field, payload, chunk checksum — and a cut anywhere both end in a
    // typed error, never a panic or partial data.
    for (name, bytes) in fixture_entries(FIXTURE_V2) {
        assert!(scan(&bytes).is_ok(), "{name} must decode intact");
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0xff;
            assert!(scan(&bad).is_err(), "{name}: flip at {at} accepted");
        }
        for cut in 0..bytes.len() {
            assert!(
                scan(&bytes[..cut]).is_err(),
                "{name}: cut at {cut} accepted"
            );
        }
    }
}
