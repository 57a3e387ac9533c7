//! # The append-only study database (`MWC_STUDY_DB`)
//!
//! Every completed study is persisted as one self-contained record:
//! the spec (wire form), timings, the executing backend, and the full
//! encoded [`Characterization`] — per-unit profiles *and* their
//! `CaptureHealth` — in the cache's digest-verified codec. That makes
//! historical runs first-class data:
//!
//! * **Resumable sweeps** — an interrupted sweep restarts, finds its
//!   finished points by [`StudySpec::study_key`] and replays them from
//!   the DB without re-simulating (the `sweep` bin; the `soc.runs`
//!   counter is the oracle that no simulation happened).
//! * **History** — the `report` bin lists records and diffs two runs
//!   by digest.
//!
//! ## Record format
//!
//! ```text
//! b"MWDB" | version:u32 | len:u64 | payload | fnv64(payload)
//! payload: study_key:u64 | digest:u64 | elapsed_ns:u64
//!        | recorded_unix:u64 | units:u32 | failed_units:u32
//!        | exec_len:u32 | exec | wire_len:u32 | wire
//!        | study_len:u64 | encode_study bytes
//! ```
//!
//! Append-only and crash-tolerant: records are only ever appended, a
//! torn or corrupt record is skipped by rescanning for the next magic
//! (counted in `studydb.corrupt_records`), and decoding a record's
//! study re-verifies the stored digest — corruption degrades to a
//! recompute, never to wrong results. Duplicate `(study_key, digest)`
//! pairs are dropped at append time.
//!
//! ## The in-memory index
//!
//! A handle keeps an index of the file, built by the scan [`StudyDb::open`]
//! does: for every record whose checksum verifies, its offset, framed
//! length, checksum and metadata (everything but the encoded study),
//! plus the latest record per `study_key` and the `(study_key, digest)`
//! dedup set. The scan streams each payload through the checksum and
//! keeps only the metadata, so opening a DB costs one read of the file
//! and memory proportional to the number of records, not their size.
//!
//! * **Lookup cost.** [`StudyDb::find`] and [`StudyDb::find_by_digest`]
//!   read exactly one record: they seek to the indexed offset and
//!   re-verify magic, version, length and checksum before decoding.
//!   [`StudyDb::entries`], [`StudyDb::len`] and the dedup check read no
//!   record at all.
//! * **Tail refresh.** Other processes may append to the same file.
//!   Every call first checks the file length and the last indexed
//!   record's stored checksum. A grown file is scanned from the first
//!   byte not yet parsed — a record another writer has only half
//!   written is left unparsed and picked up once it is complete. A file
//!   that shrank, or whose last indexed record changed, is re-indexed
//!   from the start.
//! * **Fallback.** If an indexed record fails verification when it is
//!   read (the file was damaged after it was indexed), the lookup
//!   re-indexes the whole file and retries once. Lookups therefore
//!   return what a full scan would: the most recent intact record, or
//!   `None`.
//!
//! Appends through one handle are serialised by the index lock; the
//! index learns the new record's offset from the write itself, and a
//! pair is marked seen only once its record is on disk.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::cache::{decode_study, encode_study};
use crate::codec::{unseal, Dec, Enc, HEADER_LEN as HEADER, TRAILER_LEN as TRAILER};
use crate::pipeline::{Characterization, Fnv1a};
use crate::spec::StudySpec;

/// Path of the append-only study database; unset disables persistence.
pub const STUDY_DB_ENV: &str = "MWC_STUDY_DB";

const RECORD_MAGIC: &[u8; 4] = b"MWDB";
const RECORD_VERSION: u32 = 1;
/// Upper bound on one record's payload; larger lengths are treated as
/// corruption while scanning.
const MAX_RECORD: u64 = 1 << 30;
/// Read size of the index scan.
const SCAN_CHUNK: usize = 64 * 1024;

/// Everything a record holds except the encoded study.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordMeta {
    /// Content key of the spec ([`StudySpec::study_key`]).
    pub study_key: u64,
    /// Result fingerprint ([`Characterization::digest`]).
    pub digest: u64,
    /// Wall-clock of the run that produced it, in nanoseconds.
    pub elapsed_ns: u64,
    /// Unix seconds when the record was written.
    pub recorded_unix: u64,
    /// Units profiled.
    pub units: u32,
    /// Units that failed every capture attempt.
    pub failed_units: u32,
    /// The backend that ran it: `local` for every record written now;
    /// older records may name `subprocess:N`.
    pub exec: String,
    /// The spec in wire form (empty when the platform is not a preset
    /// the wire format can name).
    pub spec_wire: String,
}

impl RecordMeta {
    fn encode_into(&self, e: &mut Enc) {
        e.u64(self.study_key);
        e.u64(self.digest);
        e.u64(self.elapsed_ns);
        e.u64(self.recorded_unix);
        e.u32(self.units);
        e.u32(self.failed_units);
        for s in [&self.exec, &self.spec_wire] {
            e.u32(s.len() as u32);
            e.raw(s.as_bytes());
        }
    }

    /// Read the metadata and the following `study_len` from the front
    /// of a payload. `None` when the bytes do not parse.
    fn read_from(r: &mut impl Read) -> Option<(RecordMeta, u64)> {
        let meta = RecordMeta {
            study_key: read_u64(r)?,
            digest: read_u64(r)?,
            elapsed_ns: read_u64(r)?,
            recorded_unix: read_u64(r)?,
            units: read_u32(r)?,
            failed_units: read_u32(r)?,
            exec: read_string(r)?,
            spec_wire: read_string(r)?,
        };
        Some((meta, read_u64(r)?))
    }
}

/// One persisted study run: its [`RecordMeta`] (reachable through
/// `Deref`) and the encoded study.
#[derive(Debug, Clone)]
pub struct StudyRecord {
    meta: RecordMeta,
    /// The encoded study (cache codec).
    payload: Vec<u8>,
}

impl Deref for StudyRecord {
    type Target = RecordMeta;

    fn deref(&self) -> &RecordMeta {
        &self.meta
    }
}

impl StudyRecord {
    /// Build a record for a completed study.
    pub fn new(
        spec: &StudySpec,
        study: &Characterization,
        exec: impl Into<String>,
        elapsed: Duration,
    ) -> Self {
        let study_key = spec.study_key();
        let digest = study.digest();
        let report = study.report();
        StudyRecord {
            meta: RecordMeta {
                study_key,
                digest,
                elapsed_ns: elapsed.as_nanos().min(u64::MAX as u128) as u64,
                recorded_unix: SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0),
                units: study.profiles().len() as u32,
                failed_units: report.failed_units.len() as u32,
                exec: exec.into(),
                spec_wire: crate::wire::to_wire(spec).unwrap_or_default(),
            },
            payload: encode_study(study_key, study, digest),
        }
    }

    /// Decode the stored study, verifying the cache codec's stored
    /// digest. `None` means the record's study bytes are corrupt.
    pub fn study(&self) -> Option<Characterization> {
        decode_study(self.study_key, &self.payload).map(|(study, _)| study)
    }

    /// A record from its parts, for tests that need fixed metadata.
    #[cfg(test)]
    pub(crate) fn from_parts(meta: RecordMeta, payload: Vec<u8>) -> Self {
        StudyRecord { meta, payload }
    }

    /// The framed on-disk bytes of this record.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut payload = Enc(Vec::with_capacity(64 + self.payload.len()));
        self.meta.encode_into(&mut payload);
        payload.u64(self.payload.len() as u64);
        payload.raw(&self.payload);

        let mut out = Enc::header(RECORD_MAGIC, RECORD_VERSION, payload.0.len() as u64);
        out.0.reserve(payload.0.len() + TRAILER);
        out.raw(&payload.0);
        out.seal(HEADER)
    }
}

/// Where one verified record lives in the file.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    /// Framed length: header, payload and checksum.
    total: u64,
    /// The payload checksum seen when the record was indexed.
    sum: u64,
}

/// The in-memory index of one database file (see the module docs).
#[derive(Debug, Default)]
struct Index {
    /// Every verified record, keyed by file offset.
    records: BTreeMap<u64, (Slot, RecordMeta)>,
    /// `study_key` → offset of that key's latest verified record.
    latest: HashMap<u64, u64>,
    /// `(study_key, digest)` pairs already on disk — the append-time
    /// dedup set.
    seen: HashSet<(u64, u64)>,
    /// First byte not yet parsed.
    scanned: u64,
    /// File length when the index last caught up with the file.
    len: u64,
}

impl Index {
    fn insert(&mut self, slot: Slot, meta: RecordMeta) {
        self.seen.insert((meta.study_key, meta.digest));
        let latest = self.latest.entry(meta.study_key).or_insert(slot.offset);
        *latest = (*latest).max(slot.offset);
        self.records.insert(slot.offset, (slot, meta));
    }

    fn latest_for(&self, study_key: u64) -> Option<Slot> {
        let offset = self.latest.get(&study_key)?;
        self.records.get(offset).map(|(slot, _)| *slot)
    }

    fn latest_with_digest(&self, digest: u64) -> Option<Slot> {
        self.records
            .values()
            .rev()
            .find(|(_, meta)| meta.digest == digest)
            .map(|(slot, _)| *slot)
    }

    /// Whether the last indexed record still carries the checksum it
    /// was indexed with — a cheap guard against the file having been
    /// rewritten in place.
    fn anchor_holds(&self, file: &mut File) -> bool {
        let Some((slot, _)) = self.records.values().next_back() else {
            return true;
        };
        let mut sum = [0u8; TRAILER];
        file.seek(SeekFrom::Start(slot.offset + slot.total - TRAILER as u64))
            .and_then(|_| file.read_exact(&mut sum))
            .is_ok_and(|()| u64::from_le_bytes(sum) == slot.sum)
    }

    /// Index records in `[self.scanned, end)`. A record that runs past
    /// `end` stays unparsed: the next scan resumes at its start.
    fn scan(&mut self, file: &mut File, end: u64) -> io::Result<()> {
        let mut at = self.scanned;
        let mut torn = None;
        while let Some(start) = next_magic(file, at, end)? {
            match read_entry(file, start, end)? {
                Scanned::Record(slot, meta) => {
                    at = start + slot.total;
                    self.insert(slot, meta);
                }
                Scanned::Torn => {
                    torn.get_or_insert(start);
                    at = start + 1;
                }
                Scanned::Corrupt => {
                    mwc_obs::metrics::counter_add("studydb.corrupt_records", 1);
                    at = start + 1;
                }
            }
        }
        // Resume before a magic that may straddle `end`.
        let tail = end.saturating_sub(RECORD_MAGIC.len() as u64 - 1);
        self.scanned = torn.unwrap_or(at.max(tail));
        self.len = end;
        Ok(())
    }
}

/// Handle on an append-only study database file.
#[derive(Debug)]
pub struct StudyDb {
    path: PathBuf,
    index: Mutex<Index>,
}

impl StudyDb {
    /// Open (creating parents as needed) the database at `path`. An
    /// existing file is scanned once to build the index; a missing file
    /// is an empty database.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<StudyDb> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let db = StudyDb {
            path,
            index: Mutex::new(Index::default()),
        };
        drop(db.refreshed());
        Ok(db)
    }

    /// The database file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The index, caught up with the file (see the module docs).
    fn refreshed(&self) -> MutexGuard<'_, Index> {
        let mut index = self.index.lock().expect("study db index poisoned");
        let Ok(mut file) = File::open(&self.path) else {
            *index = Index::default();
            return index;
        };
        let len = file.metadata().map_or(0, |m| m.len());
        if len < index.len || !index.anchor_holds(&mut file) {
            *index = Index::default();
        }
        if len > index.len && index.scan(&mut file, len).is_err() {
            // The file changed under the scan; start over next call.
            *index = Index::default();
        }
        index
    }

    /// Read and verify the record `pick` selects from the index. A
    /// record that fails verification triggers one full re-index and a
    /// second pick.
    fn lookup(&self, pick: impl Fn(&Index) -> Option<Slot>) -> Option<StudyRecord> {
        let slot = pick(&self.refreshed())?;
        if let Some(record) = read_record(&self.path, slot) {
            return Some(record);
        }
        *self.index.lock().expect("study db index poisoned") = Index::default();
        let slot = pick(&self.refreshed())?;
        read_record(&self.path, slot)
    }

    /// Every decodable record, in append order. Corrupt or torn spans
    /// are skipped (counted in `studydb.corrupt_records`). Reads every
    /// study payload; prefer [`StudyDb::entries`] for metadata.
    pub fn records(&self) -> Vec<StudyRecord> {
        let slots: Vec<Slot> = self
            .refreshed()
            .records
            .values()
            .map(|(slot, _)| *slot)
            .collect();
        slots
            .into_iter()
            .filter_map(|slot| read_record(&self.path, slot))
            .collect()
    }

    /// Metadata of every indexed record, in append order, without
    /// reading any study payload.
    pub fn entries(&self) -> Vec<RecordMeta> {
        self.refreshed()
            .records
            .values()
            .map(|(_, meta)| meta.clone())
            .collect()
    }

    /// The most recent record for `study_key`, if any. Reads one
    /// record. Counts `studydb.hits` / `studydb.misses`.
    pub fn find(&self, study_key: u64) -> Option<StudyRecord> {
        let found = self.lookup(|index| index.latest_for(study_key));
        match &found {
            Some(_) => mwc_obs::metrics::counter_add("studydb.hits", 1),
            None => mwc_obs::metrics::counter_add("studydb.misses", 1),
        }
        found
    }

    /// The most recent record whose result digest is `digest`, if any.
    /// Reads one record.
    pub fn find_by_digest(&self, digest: u64) -> Option<StudyRecord> {
        self.lookup(|index| index.latest_with_digest(digest))
    }

    /// Append `record` unless an identical `(study_key, digest)` pair
    /// is already present. Returns whether a record was written; a
    /// failed write leaves the pair unseen, so it can be retried.
    pub fn append(&self, record: &StudyRecord) -> io::Result<bool> {
        let mut index = self.refreshed();
        if index.seen.contains(&(record.study_key, record.digest)) {
            return Ok(false);
        }
        let bytes = record.encode();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(&bytes)?;
        // An append-mode write leaves the position at the end of what
        // it wrote, whatever other writers did meanwhile.
        let end = file.stream_position()?;
        let total = bytes.len() as u64;
        let offset = end - total;
        if index.scanned == offset && index.len == offset {
            index.scanned = end;
            index.len = end;
        }
        let sum = u64::from_le_bytes(bytes[bytes.len() - TRAILER..].try_into().expect("8 bytes"));
        index.insert(Slot { offset, total, sum }, record.meta.clone());
        mwc_obs::metrics::counter_add("studydb.appends", 1);
        Ok(true)
    }

    /// Number of indexed records: those that verified when the file was
    /// scanned. Reads no record.
    pub fn len(&self) -> usize {
        self.refreshed().records.len()
    }

    /// Whether the index holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide database named by [`STUDY_DB_ENV`], opened on first
/// use (later env changes are not observed). `None` when the variable
/// is unset, empty, or the file cannot be opened (counted in
/// `studydb.errors`). The first call also sets the `studydb.enabled`
/// gauge, so a server that resolves it at boot names it on `/metrics`.
pub fn global() -> Option<&'static StudyDb> {
    static GLOBAL: OnceLock<Option<StudyDb>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let db = std::env::var(STUDY_DB_ENV)
                .ok()
                .filter(|p| !p.is_empty())
                .and_then(|path| match StudyDb::open(&path) {
                    Ok(db) => Some(db),
                    Err(_) => {
                        mwc_obs::metrics::counter_add("studydb.errors", 1);
                        None
                    }
                });
            let enabled = if db.is_some() { 1.0 } else { 0.0 };
            mwc_obs::metrics::gauge_set("studydb.enabled", enabled);
            db
        })
        .as_ref()
}

/// Persist a completed study into the global database, if one is
/// configured. Called by the stage executor; never fails the study.
pub(crate) fn record_completed(spec: &StudySpec, study: &Characterization, elapsed: Duration) {
    let Some(db) = global() else {
        return;
    };
    let record = StudyRecord::new(spec, study, "local", elapsed);
    if db.append(&record).is_err() {
        mwc_obs::metrics::counter_add("studydb.errors", 1);
    }
}

fn read_u32(r: &mut impl Read) -> Option<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b).ok()?;
    Some(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> Option<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b).ok()?;
    Some(u64::from_le_bytes(b))
}

/// A `u32`-length-prefixed UTF-8 string.
fn read_string(r: &mut impl Read) -> Option<String> {
    let len = read_u32(r)? as usize;
    let mut bytes = Vec::new();
    r.take(len as u64).read_to_end(&mut bytes).ok()?;
    if bytes.len() != len {
        return None;
    }
    String::from_utf8(bytes).ok()
}

/// The payload length a record header declares, if the header is one
/// this version reads.
fn header_len(header: &[u8]) -> Option<u64> {
    Dec::new(header)
        .header(RECORD_MAGIC, RECORD_VERSION)
        .filter(|&len| len <= MAX_RECORD)
}

/// Offset of the next record magic in `[from, end)`.
fn next_magic(file: &mut File, from: u64, end: u64) -> io::Result<Option<u64>> {
    let overlap = RECORD_MAGIC.len() - 1;
    let mut buf = vec![0u8; SCAN_CHUNK];
    let mut pos = from;
    while pos + RECORD_MAGIC.len() as u64 <= end {
        let n = ((end - pos) as usize).min(SCAN_CHUNK);
        file.seek(SeekFrom::Start(pos))?;
        file.read_exact(&mut buf[..n])?;
        if let Some(i) = buf[..n]
            .windows(RECORD_MAGIC.len())
            .position(|w| w == RECORD_MAGIC)
        {
            return Ok(Some(pos + i as u64));
        }
        pos += (n - overlap) as u64;
    }
    Ok(None)
}

/// What the scan found at a magic.
enum Scanned {
    /// A record whose checksum and layout verify.
    Record(Slot, RecordMeta),
    /// A record that runs past the scanned end: not (yet) complete.
    Torn,
    /// A bad header, checksum or layout.
    Corrupt,
}

/// A reader that checksums everything read through it.
struct Checksummed<R> {
    inner: R,
    fnv: Fnv1a,
    read: u64,
}

impl<R: Read> Read for Checksummed<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.fnv.write_bytes(&buf[..n]);
        self.read += n as u64;
        Ok(n)
    }
}

/// Verify the record at `start` by streaming its payload through the
/// checksum; only the metadata is kept.
fn read_entry(file: &mut File, start: u64, end: u64) -> io::Result<Scanned> {
    if end - start < HEADER as u64 {
        return Ok(Scanned::Torn);
    }
    file.seek(SeekFrom::Start(start))?;
    let mut reader = BufReader::with_capacity(SCAN_CHUNK, file);
    let mut header = [0u8; HEADER];
    reader.read_exact(&mut header)?;
    let Some(len) = header_len(&header) else {
        return Ok(Scanned::Corrupt);
    };
    let total = (HEADER + TRAILER) as u64 + len;
    if end - start < total {
        return Ok(Scanned::Torn);
    }
    let mut payload = Checksummed {
        inner: reader.by_ref().take(len),
        fnv: Fnv1a::new(),
        read: 0,
    };
    let parsed = RecordMeta::read_from(&mut payload).map(|(meta, study_len)| {
        let fits = study_len == len - payload.read;
        (meta, fits)
    });
    io::copy(&mut payload, &mut io::sink())?;
    if payload.read != len {
        // The file shrank under the scan.
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let sum = payload.fnv.finish();
    let mut stored = [0u8; TRAILER];
    reader.read_exact(&mut stored)?;
    Ok(match parsed {
        Some((meta, true)) if u64::from_le_bytes(stored) == sum => Scanned::Record(
            Slot {
                offset: start,
                total,
                sum,
            },
            meta,
        ),
        _ => Scanned::Corrupt,
    })
}

/// Read the record at `slot`, re-verifying magic, version, length and
/// checksum (which must also match the one indexed). A failure is
/// counted in `studydb.corrupt_records`.
fn read_record(path: &Path, slot: Slot) -> Option<StudyRecord> {
    let record = read_slot(path, slot);
    if record.is_none() {
        mwc_obs::metrics::counter_add("studydb.corrupt_records", 1);
    }
    record
}

fn read_slot(path: &Path, slot: Slot) -> Option<StudyRecord> {
    let mut file = File::open(path).ok()?;
    file.seek(SeekFrom::Start(slot.offset)).ok()?;
    let mut bytes = vec![0u8; usize::try_from(slot.total).ok()?];
    file.read_exact(&mut bytes).ok()?;
    let len = header_len(bytes.get(..HEADER)?)?;
    if (HEADER + TRAILER) as u64 + len != slot.total {
        return None;
    }
    let (mut cursor, stored) = unseal(&bytes[HEADER..])?;
    if stored != slot.sum {
        return None;
    }
    let body_end = HEADER + cursor.len();
    let (meta, study_len) = RecordMeta::read_from(&mut cursor)?;
    if cursor.len() as u64 != study_len {
        return None;
    }
    let study_start = body_end - cursor.len();
    bytes.truncate(body_end);
    bytes.drain(..study_start);
    Some(StudyRecord {
        meta,
        payload: bytes,
    })
}
