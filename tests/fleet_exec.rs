//! Integration tests of the append-only study database: it must
//! round-trip, survive torn/corrupt records, keep its index right when
//! other handles write the file, and make an interrupted sweep
//! resumable without re-simulation.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use mwc_core::studydb::{StudyDb, StudyRecord};
use mwc_core::{Characterization, StudySpec};
use mwc_obs::metrics::Metric;
use mwc_obs::Collector;
use mwc_soc::config::SocConfig;

/// Three units per study point.
const UNITS: [&str; 3] = ["Aitutu", "Antutu CPU", "Antutu GPU"];

/// A unique throwaway directory per test (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mwc-fleet-it-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).expect("temp dir creation");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn spec_for(seed: u64) -> StudySpec {
    StudySpec::new(SocConfig::snapdragon_888(), seed, 1)
        .with_units(UNITS)
        .with_threads(2)
}

fn counter(metrics: &[(String, Metric)], name: &str) -> u64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, m)| match m {
            Metric::Counter(v) => *v,
            other => panic!("{name} must be a counter, got {other:?}"),
        })
        .unwrap_or(0)
}

#[test]
fn studydb_round_trips_and_recovers_from_corruption() {
    let tmp = TempDir::new();
    let path = tmp.0.join("studies.mwdb");
    let spec_a = spec_for(6001);
    let spec_b = spec_for(6002);
    let study_a = Characterization::try_run_spec(&spec_a).expect("study a");
    let study_b = Characterization::try_run_spec(&spec_b).expect("study b");

    let rec_a = StudyRecord::new(&spec_a, &study_a, "local", Duration::from_millis(5));
    let rec_b = StudyRecord::new(&spec_b, &study_b, "subprocess:2", Duration::from_millis(7));

    // Round-trip through a fresh handle, with append-time dedup.
    {
        let db = StudyDb::open(&path).expect("open");
        assert!(db.append(&rec_a).expect("append a"));
        assert!(
            !db.append(&rec_a).expect("dup append"),
            "identical (study_key, digest) pairs are dropped"
        );
        assert!(db.append(&rec_b).expect("append b"));
    }
    let db = StudyDb::open(&path).expect("reopen");
    assert_eq!(db.len(), 2);
    assert!(
        !db.append(&rec_b).expect("dup after reopen"),
        "reopen primes the dedup set from disk"
    );
    let found = db.find(spec_a.study_key()).expect("record for spec a");
    assert_eq!(found.digest, study_a.digest());
    assert_eq!(found.exec, "local");
    assert_eq!(found.units, UNITS.len() as u32);
    let decoded = found.study().expect("stored study decodes");
    assert_eq!(
        decoded.digest(),
        study_a.digest(),
        "the persisted characterization is bit-identical"
    );
    assert!(
        found.spec_wire.contains("seed = 6001"),
        "the wire spec rides along: {}",
        found.spec_wire
    );

    // A torn tail (partial final record) loses only that record.
    let bytes = fs::read(&path).expect("db bytes");
    let first_len = {
        let solo = tmp.0.join("solo.mwdb");
        let solo_db = StudyDb::open(&solo).expect("solo open");
        solo_db.append(&rec_a).expect("solo append");
        fs::metadata(&solo).expect("solo meta").len() as usize
    };
    assert!(first_len > 24 && first_len < bytes.len());
    let torn = tmp.0.join("torn.mwdb");
    fs::write(&torn, &bytes[..bytes.len() - 10]).expect("write torn");
    let torn_db = StudyDb::open(&torn).expect("open torn");
    assert_eq!(torn_db.len(), 1, "only the torn record is lost");
    assert_eq!(
        torn_db.records()[0].study_key,
        spec_a.study_key(),
        "the intact leading record survives"
    );

    // A corrupt byte mid-record skips that record and rescans to the
    // next magic — the later record still decodes.
    let mut corrupt = bytes.clone();
    corrupt[first_len / 2] ^= 0x40;
    let corrupt_path = tmp.0.join("corrupt.mwdb");
    fs::write(&corrupt_path, &corrupt).expect("write corrupt");
    let corrupt_db = StudyDb::open(&corrupt_path).expect("open corrupt");
    let survivors = corrupt_db.records();
    assert_eq!(survivors.len(), 1, "the corrupt record is skipped");
    assert_eq!(survivors[0].study_key, spec_b.study_key());
    assert_eq!(
        survivors[0].study().expect("survivor decodes").digest(),
        study_b.digest()
    );
}

#[test]
fn interrupted_sweep_resumes_from_the_db_without_resimulating() {
    let tmp = TempDir::new();
    let path = tmp.0.join("resume.mwdb");
    let seeds = [9001u64, 9002, 9003];

    // "Interrupted" first pass: only the first point completed before
    // the sweep died.
    {
        let db = StudyDb::open(&path).expect("open");
        let spec = spec_for(seeds[0]);
        let study = Characterization::try_run_spec(&spec).expect("first point");
        db.append(&StudyRecord::new(&spec, &study, "local", Duration::ZERO))
            .expect("append first point");
    }

    // Resume pass in a fresh handle (models a new process), collected
    // into its own scope so `soc.runs` counts exactly the simulations
    // this pass ran.
    let db = StudyDb::open(&path).expect("reopen");
    let collector = Collector::new();
    let scope = collector.install();
    let mut digests = Vec::new();
    let mut replayed = 0usize;
    for &seed in &seeds {
        let spec = spec_for(seed);
        match db.find(spec.study_key()).and_then(|r| r.study()) {
            Some(study) => {
                replayed += 1;
                digests.push(study.digest());
            }
            None => {
                let study = Characterization::try_run_spec(&spec).expect("computed point");
                db.append(&StudyRecord::new(&spec, &study, "local", Duration::ZERO))
                    .expect("append computed point");
                digests.push(study.digest());
            }
        }
    }
    drop(scope);
    let metrics = collector.metrics();

    assert_eq!(replayed, 1, "the finished point replays from the DB");
    // 2 uncomputed points × 3 units × 1 run each: the replayed point
    // contributed zero engine runs.
    assert_eq!(
        counter(&metrics, "soc.runs"),
        2 * UNITS.len() as u64,
        "resume never re-simulates finished points"
    );
    assert_eq!(db.len(), seeds.len(), "the resumed sweep completed the DB");

    // Bit-identity of the resumed sweep against from-scratch runs.
    for (&seed, digest) in seeds.iter().zip(&digests) {
        let cold = Characterization::try_run_spec(&spec_for(seed)).expect("cold point");
        assert_eq!(
            cold.digest(),
            *digest,
            "resumed point (seed {seed}) is bit-identical to a cold run"
        );
    }
}

/// Two small studies (seeds 6101, 6102) and their specs, for the
/// study-DB index tests. Records for further study keys reuse these
/// studies: the index never looks inside a study.
fn two_studies() -> [(StudySpec, Characterization); 2] {
    [6101, 6102].map(|seed| {
        let spec = spec_for(seed);
        let study = Characterization::try_run_spec(&spec).expect("study");
        (spec, study)
    })
}

/// Append `records` to a fresh DB at `path`; returns each record's
/// offset and the file length.
fn write_db(path: &std::path::Path, records: &[&StudyRecord]) -> (Vec<u64>, u64) {
    let db = StudyDb::open(path).expect("open");
    let mut offsets = Vec::new();
    for record in records {
        offsets.push(fs::metadata(path).map_or(0, |m| m.len()));
        assert!(db.append(record).expect("append"));
    }
    (offsets, fs::metadata(path).expect("db meta").len())
}

/// Overwrite `bytes.len()` bytes at `offset` in place.
fn overwrite(path: &std::path::Path, offset: u64, bytes: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut file = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for overwrite");
    file.seek(SeekFrom::Start(offset)).expect("seek");
    file.write_all(bytes).expect("overwrite");
}

#[test]
fn studydb_sees_records_another_handle_appends() {
    let tmp = TempDir::new();
    let [(spec_a, study_a), (spec_b, study_b)] = two_studies();
    let rec_a = StudyRecord::new(&spec_a, &study_a, "local", Duration::ZERO);
    let rec_b = StudyRecord::new(&spec_b, &study_b, "local", Duration::ZERO);
    let path = tmp.0.join("shared.mwdb");

    let reader = StudyDb::open(&path).expect("reader");
    let writer = StudyDb::open(&path).expect("writer");
    assert!(reader.find(spec_a.study_key()).is_none());
    assert!(writer.append(&rec_a).expect("append a"));
    let found = reader.find(spec_a.study_key()).expect("the new record");
    assert_eq!(found.study().expect("decodes").digest(), study_a.digest());
    assert!(
        !reader.append(&rec_a).expect("dup append"),
        "the dedup set learns the other handle's records"
    );

    // A record another writer has only half written is not there yet;
    // once the rest lands, the same handle finds it.
    let (_, solo_len) = write_db(&tmp.0.join("solo.mwdb"), &[&rec_b]);
    let encoded = fs::read(tmp.0.join("solo.mwdb")).expect("encoded b");
    assert_eq!(encoded.len() as u64, solo_len);
    let half = encoded.len() / 2;
    let mut file = fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("open for append");
    std::io::Write::write_all(&mut file, &encoded[..half]).expect("first half");
    assert!(reader.find(spec_b.study_key()).is_none());
    assert_eq!(reader.len(), 1);
    std::io::Write::write_all(&mut file, &encoded[half..]).expect("second half");
    let found = reader
        .find(spec_b.study_key())
        .expect("the completed record");
    assert_eq!(found.study().expect("decodes").digest(), study_b.digest());
    assert_eq!(reader.len(), 2);
    assert_eq!(writer.len(), 2);
}

#[test]
fn studydb_last_record_for_a_key_wins() {
    let tmp = TempDir::new();
    let [(spec_a, study_a), (_, study_b)] = two_studies();
    // The same spec recorded twice with different results (a rerun
    // under a changed program, say): the later record wins.
    let older = StudyRecord::new(&spec_a, &study_a, "first", Duration::ZERO);
    let newer = StudyRecord::new(&spec_a, &study_b, "second", Duration::ZERO);
    let path = tmp.0.join("rerun.mwdb");
    let db = StudyDb::open(&path).expect("open");
    assert!(db.append(&older).expect("append older"));
    assert!(db.append(&newer).expect("append newer"));
    assert_eq!(db.find(spec_a.study_key()).expect("hit").exec, "second");
    let reopened = StudyDb::open(&path).expect("reopen");
    let found = reopened.find(spec_a.study_key()).expect("hit after reopen");
    assert_eq!(found.exec, "second");
    assert_eq!(found.study().expect("decodes").digest(), study_b.digest());
    assert_eq!(reopened.len(), 2);
}

#[test]
fn studydb_corrupted_indexed_record_never_yields_a_wrong_study() {
    let tmp = TempDir::new();
    let [(spec_a, study_a), (_, study_b)] = two_studies();
    let older = StudyRecord::new(&spec_a, &study_a, "first", Duration::ZERO);
    let newer = StudyRecord::new(&spec_a, &study_b, "second", Duration::ZERO);
    let path = tmp.0.join("damaged.mwdb");
    let (offsets, len) = write_db(&path, &[&older, &newer]);

    let db = StudyDb::open(&path).expect("open");
    assert_eq!(db.find(spec_a.study_key()).expect("hit").exec, "second");
    // Damage the indexed (newer) record mid-payload, after indexing:
    // the lookup falls back to the older intact record.
    let mid = (offsets[1] + len) / 2;
    overwrite(&path, mid, &[0xA5; 16]);
    let found = db
        .find(spec_a.study_key())
        .expect("the older intact record");
    assert_eq!(found.exec, "first");
    assert_eq!(found.study().expect("decodes").digest(), study_a.digest());
    // Damage the older one too: nothing intact is left for the key.
    overwrite(&path, offsets[1] / 2, &[0xA5; 16]);
    assert!(db.find(spec_a.study_key()).is_none());
    assert!(db.is_empty());
}

#[test]
fn studydb_truncated_or_replaced_file_is_reindexed() {
    let tmp = TempDir::new();
    let [(spec_a, study_a), (spec_b, study_b)] = two_studies();
    let rec_a = StudyRecord::new(&spec_a, &study_a, "local", Duration::ZERO);
    let rec_b = StudyRecord::new(&spec_b, &study_b, "local", Duration::ZERO);
    let path = tmp.0.join("db.mwdb");
    let (offsets, _) = write_db(&path, &[&rec_a, &rec_b]);
    let db = StudyDb::open(&path).expect("open");
    assert_eq!(db.len(), 2);

    // Truncate to the first record: the second is gone.
    fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open for truncate")
        .set_len(offsets[1])
        .expect("truncate");
    assert!(db.find(spec_b.study_key()).is_none());
    assert_eq!(db.len(), 1);

    // Replace the file with a larger one holding the records in the
    // other order: every offset moved, and both are found.
    let swapped = tmp.0.join("swapped.mwdb");
    write_db(&swapped, &[&rec_b, &rec_a]);
    fs::rename(&swapped, &path).expect("replace");
    let found_a = db.find(spec_a.study_key()).expect("a after replace");
    assert_eq!(found_a.study().expect("decodes").digest(), study_a.digest());
    let found_b = db.find(spec_b.study_key()).expect("b after replace");
    assert_eq!(found_b.study().expect("decodes").digest(), study_b.digest());
    assert_eq!(
        db.entries().iter().map(|m| m.study_key).collect::<Vec<_>>(),
        [spec_b.study_key(), spec_a.study_key()]
    );

    // Truncate to nothing: an empty database.
    fs::write(&path, b"").expect("empty the file");
    assert!(db.find(spec_a.study_key()).is_none());
    assert!(db.is_empty());
}

#[test]
fn studydb_lookup_reads_only_the_indexed_record() {
    let tmp = TempDir::new();
    let [(_, study), _] = two_studies();
    let specs: Vec<StudySpec> = (7001..7005).map(spec_for).collect();
    let records: Vec<StudyRecord> = specs
        .iter()
        .map(|spec| StudyRecord::new(spec, &study, "local", Duration::ZERO))
        .collect();
    let path = tmp.0.join("points.mwdb");
    let (offsets, len) = write_db(&path, &records.iter().collect::<Vec<_>>());
    let db = StudyDb::open(&path).expect("open");
    assert_eq!(db.len(), 4);

    // Overwrite records 0 and 2 with same-length garbage. A lookup of
    // record 1 or 3 reads that record alone: it succeeds, and the index
    // still lists all four because nothing rescanned the file.
    let ends: Vec<u64> = offsets.iter().skip(1).copied().chain([len]).collect();
    for i in [0, 2] {
        overwrite(
            &path,
            offsets[i],
            &vec![0xA5; (ends[i] - offsets[i]) as usize],
        );
    }
    for i in [1, 3] {
        let found = db.find(specs[i].study_key()).expect("intact record");
        assert_eq!(found.study_key, specs[i].study_key());
        assert_eq!(found.study().expect("decodes").digest(), study.digest());
    }
    assert_eq!(db.len(), 4, "no lookup scanned the damaged records");

    // Looking up a damaged record falls back to a full rescan.
    assert!(db.find(specs[0].study_key()).is_none());
    assert_eq!(db.len(), 2);
}

/// Linux only: `/dev/full` stands in for a full disk.
#[cfg(target_os = "linux")]
#[test]
fn studydb_failed_append_can_be_retried() {
    let tmp = TempDir::new();
    let [(spec, study), _] = two_studies();
    let record = StudyRecord::new(&spec, &study, "local", Duration::ZERO);
    let path = tmp.0.join("full.mwdb");
    std::os::unix::fs::symlink("/dev/full", &path).expect("link to /dev/full");
    let db = StudyDb::open(&path).expect("open");
    assert!(db.append(&record).is_err(), "writes to /dev/full fail");
    // Room again: an empty file in the same place, which the index
    // sees as unchanged.
    fs::remove_file(&path).expect("unlink");
    fs::write(&path, b"").expect("empty db file");
    assert!(
        db.append(&record).expect("retried append"),
        "a failed append must not mark its record as already on disk"
    );
    assert_eq!(
        db.find(spec.study_key()).expect("hit").digest,
        study.digest()
    );
}
