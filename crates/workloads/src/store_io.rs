//! Scenario ↔ chunked-store glue: write any registry scenario to a
//! store file without materializing it — [`write_scenario`] drives the
//! scenario's emitter (`Scenario::emit`) with a sink that fills one
//! chunk at a time — and check a file's header against the scenario it
//! claims to hold. Files load back whole through `llp_store::read_all`;
//! the coordinator and MPC models cut their site ranges from the loaded
//! rows.
//!
//! The store header's [`Provenance`] records the scenario's generator
//! arguments (family, n, d, seed, r, skew), so a well-formed file is
//! reproducible from its header alone, and [`matches_scenario`] lets a
//! verifier check that a file on disk really is the scenario a report
//! cell claims.

use crate::scenario::Scenario;
use llp_geom::ConstraintColumns;
use llp_store::{ChunkWriter, FileHeader, Provenance, StoreError};
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// The provenance record for a scenario — exactly the arguments that
/// regenerate its bytes.
pub fn provenance(sc: &Scenario) -> Provenance {
    Provenance {
        family: sc.family.name().to_string(),
        n: sc.n as u64,
        d: sc.d as u32,
        seed: sc.seed,
        r: sc.r,
        skew: sc.skew,
    }
}

/// True iff a file header's provenance and shape match the scenario:
/// same generator arguments, and the row count and width the scenario
/// emits.
pub fn matches_scenario(h: &FileHeader, sc: &Scenario) -> bool {
    h.provenance == provenance(sc) && h.dim as usize == sc.dim() && h.rows as usize == sc.rows()
}

/// Streams a scenario to a chunked store file in O(`chunk_len`) memory
/// (the three permutation families build their instance first — see
/// `Scenario::emit`). A write error stops the generator and is
/// returned. Returns the written header and the total bytes written;
/// the byte count equals the file's size on disk.
pub fn write_scenario(
    sc: &Scenario,
    path: &Path,
    chunk_len: u32,
) -> Result<(FileHeader, u64), StoreError> {
    let (dim, rows) = (sc.dim(), sc.rows());
    let header = FileHeader {
        dim: dim as u32,
        rows: rows as u64,
        chunk_len,
        provenance: provenance(sc),
    };
    let file =
        File::create(path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
    let mut w = ChunkWriter::create(BufWriter::new(file), header.clone())?;
    // Rows not yet in a written chunk, and the rows of the current one.
    let mut left = rows;
    let mut chunk = ConstraintColumns::zeroed(dim, left.min(chunk_len as usize));
    let mut filled = 0;
    sc.emit(&mut |coords: &[f64], extra| {
        chunk.set_row(filled, coords, extra);
        filled += 1;
        if filled == chunk.len() {
            w.write_chunk(&chunk)?;
            left -= filled;
            filled = 0;
            if left < chunk.len() {
                chunk = ConstraintColumns::zeroed(dim, left);
            }
        }
        Ok::<(), StoreError>(())
    })?;
    let bytes = w.finish()?;
    Ok((header, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{registry, RunBudget, ScenarioData};
    use llp_store::read_all;
    use std::path::PathBuf;

    fn scratch_dir() -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp-ooc-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_read_round_trips_every_family() {
        // File-backed ingestion ≡ in-RAM generation, for every registry
        // family, at a chunk length that forces many chunks plus a
        // remainder.
        let dir = scratch_dir();
        for mut sc in registry(RunBudget::Quick) {
            sc.n = (sc.n / 16).max(64); // keep the per-family files small
            let path = dir.join(format!("roundtrip_{}.llps", sc.name));
            let (header, written) = write_scenario(&sc, &path, 1000).unwrap();
            assert_eq!(written, header.file_bytes(), "{}", sc.name);
            assert_eq!(
                written,
                std::fs::metadata(&path).unwrap().len(),
                "{}",
                sc.name
            );
            assert!(matches_scenario(&header, &sc));

            let (read_header, bytes_read) = match sc.generate() {
                ScenarioData::Lp(p, want) => {
                    let (got, h, bytes) = read_all(&path, &p).unwrap();
                    assert_eq!(got, want, "{}", sc.name);
                    (h, bytes)
                }
                ScenarioData::Svm(p, want) => {
                    let (got, h, bytes) = read_all(&path, &p).unwrap();
                    assert_eq!(got, want, "{}", sc.name);
                    (h, bytes)
                }
                ScenarioData::Meb(p, want) => {
                    let (got, h, bytes) = read_all(&path, &p).unwrap();
                    assert_eq!(got, want, "{}", sc.name);
                    (h, bytes)
                }
            };
            assert_eq!(read_header, header, "{}", sc.name);
            assert_eq!(bytes_read, written, "{}", sc.name);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_failing_device_surfaces_as_an_io_error() {
        // Each 1,000-row frame (32 KB) overflows the 8 KiB write buffer,
        // so the first chunk the sink writes, inside the generator loop,
        // hits the full device.
        let mut sc = registry(RunBudget::Quick)[0].clone();
        sc.n = 4_000;
        let err = write_scenario(&sc, Path::new("/dev/full"), 1_000).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err:?}");
    }

    #[test]
    fn mismatched_scenario_is_refused() {
        let dir = scratch_dir();
        let reg = registry(RunBudget::Quick);
        let mut sc = reg[0].clone();
        sc.n = 500;
        let path = dir.join("mismatch.llps");
        write_scenario(&sc, &path, 128).unwrap();
        let (header, _) = llp_store::verify_file(&path).unwrap();
        assert!(matches_scenario(&header, &sc));
        let mut other_seed = sc.clone();
        other_seed.seed ^= 1;
        let mut other_n = sc.clone();
        other_n.n += 1;
        for other in [other_seed, other_n] {
            assert!(!matches_scenario(&header, &other), "{other:?}");
        }
    }
}
