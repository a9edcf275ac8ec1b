//! Scenario ↔ chunked-store glue: write any registry scenario to a
//! store file without materializing it, and check a file's header
//! against the scenario it claims to hold. Files load back through
//! `llp_store::read_all` (whole) and `read_partitioned` (site
//! partitions).
//!
//! The store header's [`Provenance`] records the scenario's generator
//! arguments (family, n, d, seed, r, skew), so a well-formed file is
//! reproducible from its header alone — [`scenario_for_provenance`]
//! inverts the record, and [`matches_scenario`] lets a verifier check
//! that a file on disk really is the scenario a report cell claims.

use crate::scenario::{Family, Scenario};
use crate::stream::ScenarioStream;
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

/// Inverts a provenance record back into a scenario (named after its
/// family — registry display names are not stored). Returns `None` for
/// an unknown family name.
pub fn scenario_for_provenance(p: &Provenance) -> Option<Scenario> {
    let family = Family::parse(&p.family)?;
    Some(Scenario {
        name: family.name(),
        family,
        n: p.n as usize,
        d: p.d as usize,
        seed: p.seed,
        r: p.r,
        skew: p.skew,
    })
}

/// True iff a file header's provenance and shape match the scenario:
/// same generator arguments, and row/dim totals consistent with what
/// the scenario's stream would emit.
pub fn matches_scenario(h: &FileHeader, sc: &Scenario) -> bool {
    let stream = ScenarioStream::new(sc);
    h.provenance == provenance(sc)
        && h.dim as usize == stream.dim()
        && h.rows as usize == stream.rows()
}

/// Streams a scenario to a chunked store file in O(`chunk_len`) memory
/// (the three permutation families buffer internally — see
/// [`ScenarioStream`]). Returns the written header and the total bytes
/// written; the byte count equals the file's size on disk.
pub fn write_scenario(
    sc: &Scenario,
    path: &Path,
    chunk_len: u32,
) -> Result<(FileHeader, u64), StoreError> {
    let mut stream = ScenarioStream::new(sc);
    let header = FileHeader {
        dim: stream.dim() as u32,
        rows: stream.rows() as u64,
        chunk_len,
        provenance: provenance(sc),
    };
    let file =
        File::create(path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
    let mut w = ChunkWriter::create(BufWriter::new(file), header.clone())?;
    let mut coords = Vec::with_capacity(stream.dim());
    while stream.remaining() > 0 {
        let take = stream.remaining().min(chunk_len as usize);
        let mut chunk = ConstraintColumns::zeroed(stream.dim(), take);
        for i in 0..take {
            let extra = stream
                .next_row(&mut coords)
                .expect("stream yields `rows` rows");
            chunk.set_row(i, &coords, extra);
        }
        w.write_chunk(&chunk)?;
    }
    let bytes = w.finish()?;
    Ok((header, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{registry, RunBudget, ScenarioData};
    use llp_store::{read_all, read_partitioned};
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

    #[test]
    fn partitioned_read_matches_in_ram_partitioning() {
        use crate::partition::{partition_by_sizes, prescribed_sizes};
        let dir = scratch_dir();
        let mut sc = registry(RunBudget::Quick)
            .into_iter()
            .find(|s| s.name == "lp_skewed_sites")
            .unwrap();
        sc.n = 2_000;
        let path = dir.join("partitioned_skewed.llps");
        write_scenario(&sc, &path, 512).unwrap();
        let ScenarioData::Lp(p, cs) = sc.generate() else {
            panic!("kind drifted");
        };
        let sizes = prescribed_sizes(cs.len(), 8, sc.skew);
        let (got, header, _) = read_partitioned(&path, &p, &sizes).unwrap();
        assert!(matches_scenario(&header, &sc));
        let want = partition_by_sizes(cs, &sizes);
        assert_eq!(got, want, "skewed site layout must replay from the file");
        assert!(
            got.last().unwrap().len() > got[0].len(),
            "skew recorded in the file must survive the round trip"
        );
    }

    #[test]
    fn provenance_inverts_to_the_scenario() {
        for sc in registry(RunBudget::Quick) {
            let p = provenance(&sc);
            let back = scenario_for_provenance(&p).unwrap();
            assert_eq!(back.family, sc.family);
            assert_eq!(back.n, sc.n);
            assert_eq!(back.d, sc.d);
            assert_eq!(back.seed, sc.seed);
            assert_eq!(back.r, sc.r);
            assert_eq!(back.skew, sc.skew);
        }
        let mut p = provenance(&registry(RunBudget::Quick)[0]);
        p.family = "no_such_family".into();
        assert!(scenario_for_provenance(&p).is_none());
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
