//! Persistent cache snapshots: a compact, self-describing binary format for
//! [`CacheSnapshot`].
//!
//! The wire format is deliberately paranoid. A snapshot written by a previous
//! process is *advice*, never truth: any stale, truncated or corrupt file
//! must degrade to a cache miss — an honest cold start — and can never be
//! misread into a wrong hit. The layout (format version 2):
//!
//! ```text
//! magic  b"IMPCACHE"                     8 bytes
//! format version (little-endian u32)     4 bytes
//! total file length (u64)                8 bytes   distinguishes truncation
//!                                                  from corruption
//! workload digest (u128)                16 bytes   digest over the sorted
//!                                                  distinct WorkloadIds
//! section count (u32, = 8)               4 bytes
//! 8 × section:
//!   tag (u8) | payload length (u64) | payload digest (u128) | payload
//! skeleton digest (u128)                16 bytes   over the header and every
//!                                                  section's tag, length and
//!                                                  digest — not the payloads
//! ```
//!
//! Sections come in dependency order: hierarchical schedules, design points,
//! supply-search outcomes, then contexts, block schedules and the three
//! trace-statistics layers. Each section holds one cache layer's entries as
//! a count followed by `(key, value)` pairs sorted by key, so equal cache
//! contents always serialize to identical bytes (the property the
//! warm-start benches assert across processes).
//!
//! Each schedule and each point is written once:
//!
//! * a design point whose [`DesignPoint::schedule_key`] names a schedule the
//!   schedule section holds (an equal one) writes only that key; the decoder
//!   re-links it to the very `Arc` the decoded schedule layer holds. Every
//!   other point — no key, or a key the snapshot lacks (an evicted entry, a
//!   shard delta) — writes its schedule inline;
//! * a supply-search outcome whose point the points section holds (an equal
//!   one) writes only the point's supply bits; the decoder rebuilds the
//!   [`PointKey`] from the outcome's workload and design plus that supply and
//!   shares the decoded point's `Arc`.
//!
//! A reference is written only when its target is in the same snapshot, so
//! the encoding stays a pure function of the contents, and a reference the
//! decoder cannot resolve is a layout error.
//!
//! Every byte is covered by exactly one digest: each payload by its own, and
//! the header plus every section header (payload digests included) by the
//! trailing skeleton digest. So any single bit flip anywhere in a snapshot is
//! detected, each payload byte is hashed once, and the skeleton and every
//! payload digest are checked before anything is decoded into a value.
//! Rejections are classified three ways — wrong magic/version/shape or an
//! unresolvable reference ([`SnapshotRejection::Version`]), any digest
//! mismatch including wrong-workload scope ([`SnapshotRejection::Digest`]),
//! and inputs that end early ([`SnapshotRejection::Truncated`]) — and surface
//! in [`SnapshotStats`].
//!
//! Loads merge through [`CacheBackend::absorb`], the same deterministic path
//! shard merges use, so a warm-started session is bit-identical to a cold one
//! — it just skips the recomputation.
//!
//! [`CacheBackend::absorb`]: crate::CacheBackend::absorb

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::hash::Hash;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use impact_rtl::FingerprintHasher;
use impact_sched::SchedulingResult;

use crate::cache::CacheSnapshot;
use crate::evaluate::DesignPoint;
use crate::fingerprint::{PointKey, ScaledKey, ScheduleKey, WorkloadId};

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"IMPCACHE";

/// Version of the snapshot container format. Bump on any layout change —
/// readers reject every other version to a cold start.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Number of sections (one per cache layer).
const SECTION_COUNT: u32 = 8;

/// Bytes before the first section: magic, version, total length, workload
/// digest and section count.
const HEADER_LEN: usize = SNAPSHOT_MAGIC.len() + 4 + 8 + 16 + 4;

/// Bytes of one section header: tag, payload length and payload digest.
const SECTION_HEADER_LEN: usize = 1 + 8 + 16;

/// Bytes of the trailing skeleton digest.
const TRAILER_LEN: usize = 16;

/// Section tags, in file order (schedules before the points that reference
/// them, points before the supply-search outcomes that reference them), and
/// the names layout reports use.
const SECTIONS: [(u8, &str); SECTION_COUNT as usize] = [
    (SEC_SCHEDULES, "schedules"),
    (SEC_POINTS, "points"),
    (SEC_SCALED, "scaled"),
    (SEC_CONTEXTS, "contexts"),
    (SEC_BLOCKS, "blocks"),
    (SEC_FU_STATS, "fu_stats"),
    (SEC_REG_STATS, "reg_stats"),
    (SEC_MUX_STATS, "mux_stats"),
];
const SEC_POINTS: u8 = 1;
const SEC_SCALED: u8 = 2;
const SEC_CONTEXTS: u8 = 3;
const SEC_SCHEDULES: u8 = 4;
const SEC_BLOCKS: u8 = 5;
const SEC_FU_STATS: u8 = 6;
const SEC_REG_STATS: u8 = 7;
const SEC_MUX_STATS: u8 = 8;

/// Forms of one supply-search outcome in the scaled section.
const SCALED_INFEASIBLE: u8 = 0;
const SCALED_INLINE: u8 = 1;
const SCALED_REFERENCED: u8 = 2;

/// Why a snapshot was rejected at load time. Every class degrades to a cache
/// miss; the distinction only feeds the [`SnapshotStats`] counters and
/// operator-facing reports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotRejection {
    /// Wrong magic, unknown format version, or a shape the current reader
    /// does not understand (section tags, per-type version tags, references
    /// to entries the snapshot does not hold).
    Version,
    /// A content digest did not match: section payload, skeleton trailer,
    /// or the workload scope the loader required.
    Digest,
    /// The input ended before the declared structure was complete.
    Truncated,
}

impl fmt::Display for SnapshotRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotRejection::Version => write!(f, "unsupported snapshot version or layout"),
            SnapshotRejection::Digest => write!(f, "snapshot digest mismatch"),
            SnapshotRejection::Truncated => write!(f, "snapshot truncated"),
        }
    }
}

impl Error for SnapshotRejection {}

/// Which workloads a loader accepts from a snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SnapshotScope {
    /// Accept entries of any workload. Safe: every cache key embeds its
    /// [`WorkloadId`], so entries of other workloads can never answer this
    /// session's lookups — they only occupy capacity.
    #[default]
    Any,
    /// Accept only snapshots whose entries all belong to the given workload;
    /// anything else is rejected as a [`SnapshotRejection::Digest`] mismatch.
    Workload(WorkloadId),
}

/// Save/load counters of one backend, including per-reason load rejections.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SnapshotStats {
    /// Snapshots serialized by the backend.
    pub saves: u64,
    /// Snapshots decoded and absorbed successfully.
    pub loads: u64,
    /// Loads rejected for a version/layout mismatch.
    pub rejected_version: u64,
    /// Loads rejected for a digest mismatch (corruption or wrong workload).
    pub rejected_digest: u64,
    /// Loads rejected because the input ended early.
    pub rejected_truncated: u64,
}

impl SnapshotStats {
    /// Total rejected loads across every reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_version + self.rejected_digest + self.rejected_truncated
    }

    pub(crate) fn record_rejection(&mut self, rejection: SnapshotRejection) {
        match rejection {
            SnapshotRejection::Version => self.rejected_version += 1,
            SnapshotRejection::Digest => self.rejected_digest += 1,
            SnapshotRejection::Truncated => self.rejected_truncated += 1,
        }
    }
}

/// Errors of the file-level snapshot helpers: I/O problems on one side,
/// well-formed-but-rejected snapshots on the other.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The file was read but its contents were rejected.
    Rejected(SnapshotRejection),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Rejected(r) => write!(f, "snapshot rejected: {r}"),
        }
    }
}

impl Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotRejection> for SnapshotError {
    fn from(r: SnapshotRejection) -> Self {
        SnapshotError::Rejected(r)
    }
}

/// Digest of a byte string: length-prefixed, fed to the workspace hasher in
/// little-endian 64-bit words (final partial word zero-padded).
fn digest_bytes(bytes: &[u8]) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(0xC6);
    h.write_u64(bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
    }
    let remainder = chunks.remainder();
    if !remainder.is_empty() {
        let mut word = [0u8; 8];
        word[..remainder.len()].copy_from_slice(remainder);
        h.write_u64(u64::from_le_bytes(word));
    }
    h.finish().as_u128()
}

/// Digest of a set of workload ids (sorted, distinct).
fn workload_digest(workloads: &BTreeSet<u128>) -> u128 {
    let mut h = FingerprintHasher::new();
    h.write_tag(0xC5);
    h.write_u64(workloads.len() as u64);
    for &w in workloads {
        h.write_u128(w);
    }
    h.finish().as_u128()
}

/// The sorted distinct workload ids across every entry of a snapshot.
fn snapshot_workloads(snapshot: &CacheSnapshot) -> BTreeSet<u128> {
    let mut workloads = BTreeSet::new();
    workloads.extend(snapshot.points.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.scaled.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.contexts.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.schedules.keys().map(|k| k.workload.as_u128()));
    workloads.extend(
        snapshot
            .block_schedules
            .keys()
            .map(|k| k.workload.as_u128()),
    );
    workloads.extend(snapshot.fu_stats.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.reg_stats.keys().map(|k| k.workload.as_u128()));
    workloads.extend(snapshot.mux_stats.keys().map(|k| k.workload.as_u128()));
    workloads
}

/// Where a snapshot's bytes go: entries and payload bytes per section, and
/// how many entries were written by reference instead of inline.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SnapshotLayout {
    /// Total snapshot length in bytes.
    pub total_bytes: u64,
    /// One entry per section, in file order.
    pub sections: Vec<SectionLayout>,
    /// Design points whose schedule is a reference into the schedule
    /// section.
    pub points_by_reference: u64,
    /// Supply-search outcomes whose point is a reference into the points
    /// section.
    pub scaled_by_reference: u64,
}

/// Size of one snapshot section.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SectionLayout {
    /// The cache layer the section holds.
    pub name: &'static str,
    /// Entries in the section.
    pub entries: u64,
    /// Payload bytes (the section header excluded).
    pub payload_bytes: u64,
}

/// Whether `point`'s schedule can be written as a reference: its key names
/// an equal schedule in `schedules`.
fn schedule_resident(
    schedules: &HashMap<ScheduleKey, Arc<SchedulingResult>>,
    point: &DesignPoint,
) -> bool {
    point
        .schedule_key
        .as_ref()
        .and_then(|key| schedules.get(key))
        .is_some_and(|held| Arc::ptr_eq(held, &point.schedule) || **held == *point.schedule)
}

/// Whether the supply-search outcome `point` under `key` can be written as a
/// reference: the points section holds an equal point (memo key included)
/// under the point key rebuilt from the outcome.
fn point_resident(snapshot: &CacheSnapshot, key: &ScaledKey, point: &Arc<DesignPoint>) -> bool {
    snapshot
        .points
        .get(&PointKey::new(key.workload, key.design, point.vdd))
        .is_some_and(|held| {
            Arc::ptr_eq(held, point)
                || (**held == **point && held.schedule_key == point.schedule_key)
        })
}

/// One section's payload: the entry count, then every entry in key order,
/// each written by `write`.
fn encode_entries<K: Ord, V>(
    map: &HashMap<K, V>,
    mut write: impl FnMut(&mut Encoder, &K, &V),
) -> Vec<u8> {
    let mut entries: Vec<(&K, &V)> = map.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let mut payload = Encoder::new();
    payload.put_usize(entries.len());
    for (key, value) in entries {
        write(&mut payload, key, value);
    }
    payload.into_bytes()
}

/// Writes a plain `(key, value)` entry.
fn encode_plain<K: Encode, V: Encode>(w: &mut Encoder, key: &K, value: &V) {
    key.encode(w);
    value.encode(w);
}

/// Serializes a [`CacheSnapshot`] into the versioned wire format.
/// Deterministic: equal snapshot contents always produce identical bytes.
pub fn encode_snapshot(snapshot: &CacheSnapshot) -> Vec<u8> {
    let schedules = &snapshot.schedules;
    // In `SECTIONS` order.
    let payloads: [Vec<u8>; SECTION_COUNT as usize] = [
        encode_entries(schedules, encode_plain),
        encode_entries(&snapshot.points, |w, key, point| {
            key.encode(w);
            point.encode_with(w, schedule_resident(schedules, point));
        }),
        encode_entries(&snapshot.scaled, |w, key, outcome| {
            key.encode(w);
            match outcome {
                None => w.put_u8(SCALED_INFEASIBLE),
                Some(point) if point_resident(snapshot, key, point) => {
                    w.put_u8(SCALED_REFERENCED);
                    w.put_f64(point.vdd);
                }
                Some(point) => {
                    w.put_u8(SCALED_INLINE);
                    point.encode_with(w, schedule_resident(schedules, point));
                }
            }
        }),
        encode_entries(&snapshot.contexts, encode_plain),
        encode_entries(&snapshot.block_schedules, encode_plain),
        encode_entries(&snapshot.fu_stats, encode_plain),
        encode_entries(&snapshot.reg_stats, encode_plain),
        encode_entries(&snapshot.mux_stats, encode_plain),
    ];
    let total = HEADER_LEN
        + payloads
            .iter()
            .map(|payload| SECTION_HEADER_LEN + payload.len())
            .sum::<usize>()
        + TRAILER_LEN;
    let mut skeleton = Encoder::new();
    skeleton.put_raw(&SNAPSHOT_MAGIC);
    skeleton.put_u32(SNAPSHOT_VERSION);
    skeleton.put_u64(total as u64);
    skeleton.put_u128(workload_digest(&snapshot_workloads(snapshot)));
    skeleton.put_u32(SECTION_COUNT);
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(skeleton.as_bytes());
    for ((tag, _), payload) in SECTIONS.iter().zip(&payloads) {
        let mut header = Encoder::new();
        header.put_u8(*tag);
        header.put_u64(payload.len() as u64);
        header.put_u128(digest_bytes(payload));
        skeleton.put_raw(header.as_bytes());
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(payload);
    }
    out.extend_from_slice(&digest_bytes(skeleton.as_bytes()).to_le_bytes());
    debug_assert_eq!(out.len(), total);
    out
}

/// Decodes one section's entries with `read`. The payload's digest has
/// already been verified, so any decode failure — a malformed entry, a
/// dangling reference, trailing bytes — means the writer's layout differs
/// from ours under the same container version: a versioning problem, not
/// corruption.
fn decode_entries<K: Eq + Hash, V>(
    payload: &[u8],
    mut read: impl FnMut(&mut Decoder<'_>) -> Result<(K, V), DecodeError>,
) -> Result<HashMap<K, V>, SnapshotRejection> {
    let mut r = Decoder::new(payload);
    let count = r.take_len(1).map_err(|_| SnapshotRejection::Version)?;
    let mut map = HashMap::with_capacity(count);
    for _ in 0..count {
        let (key, value) = read(&mut r).map_err(|_| SnapshotRejection::Version)?;
        map.insert(key, value);
    }
    r.finish().map_err(|_| SnapshotRejection::Version)?;
    Ok(map)
}

/// Reads a plain `(key, value)` entry.
fn decode_plain<K: Decode, V: Decode>(r: &mut Decoder<'_>) -> Result<(K, V), DecodeError> {
    Ok((K::decode(r)?, V::decode(r)?))
}

/// Decodes snapshot bytes, verifying magic, version, every digest and the
/// workload scope.
///
/// # Errors
///
/// Returns the [`SnapshotRejection`] class on any mismatch; the caller treats
/// every class as a cache miss.
pub fn decode_snapshot(
    bytes: &[u8],
    scope: SnapshotScope,
) -> Result<CacheSnapshot, SnapshotRejection> {
    decode_snapshot_with_layout(bytes, scope).map(|(snapshot, _)| snapshot)
}

/// [`decode_snapshot`], also reporting where the snapshot's bytes go.
///
/// # Errors
///
/// As [`decode_snapshot`].
pub fn decode_snapshot_with_layout(
    bytes: &[u8],
    scope: SnapshotScope,
) -> Result<(CacheSnapshot, SnapshotLayout), SnapshotRejection> {
    // Fixed prelude (magic + version + declared length) and trailer.
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 + 8 + TRAILER_LEN {
        return Err(SnapshotRejection::Truncated);
    }
    if bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(SnapshotRejection::Version);
    }
    // Parse the body only: the trailing 16 bytes are the skeleton digest.
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    let mut r = Decoder::new(&body[SNAPSHOT_MAGIC.len()..]);
    let version = r.take_u32().map_err(|_| SnapshotRejection::Truncated)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotRejection::Version);
    }
    let declared_len = r.take_u64().map_err(|_| SnapshotRejection::Truncated)?;
    match u64::try_from(bytes.len()) {
        Ok(actual) if actual < declared_len => return Err(SnapshotRejection::Truncated),
        Ok(actual) if actual > declared_len => return Err(SnapshotRejection::Version),
        Ok(_) => {}
        Err(_) => return Err(SnapshotRejection::Version),
    }
    let header_workloads = r.take_u128().map_err(|_| SnapshotRejection::Truncated)?;
    let sections = r.take_u32().map_err(|_| SnapshotRejection::Truncated)?;
    if sections != SECTION_COUNT {
        return Err(SnapshotRejection::Version);
    }
    // Walk the skeleton, stepping over the payloads. (A flip in a length
    // field misclassifies as truncation or layout, but is still rejected.)
    let mut skeleton = Encoder::new();
    skeleton.put_raw(&bytes[..HEADER_LEN]);
    let mut payloads: Vec<(u8, u128, &[u8])> = Vec::with_capacity(SECTIONS.len());
    for _ in SECTIONS {
        let tag = r.take_u8().map_err(|_| SnapshotRejection::Truncated)?;
        let len = r.take_u64().map_err(|_| SnapshotRejection::Truncated)?;
        let digest = r.take_u128().map_err(|_| SnapshotRejection::Truncated)?;
        skeleton.put_u8(tag);
        skeleton.put_u64(len);
        skeleton.put_u128(digest);
        let len = usize::try_from(len).map_err(|_| SnapshotRejection::Truncated)?;
        let payload = r.take_raw(len).map_err(|_| SnapshotRejection::Truncated)?;
        payloads.push((tag, digest, payload));
    }
    if !r.is_empty() {
        return Err(SnapshotRejection::Version);
    }
    // The skeleton digest covers the header and every section header, and
    // each section header carries its payload's digest: once all of them
    // check, every byte of the file is verified — before any decoding.
    let declared_trailer = u128::from_le_bytes(trailer.try_into().expect("16-byte trailer"));
    if digest_bytes(skeleton.as_bytes()) != declared_trailer {
        return Err(SnapshotRejection::Digest);
    }
    for ((tag, digest, payload), (expected, _)) in payloads.iter().zip(SECTIONS) {
        if *tag != expected {
            return Err(SnapshotRejection::Version);
        }
        if digest_bytes(payload) != *digest {
            return Err(SnapshotRejection::Digest);
        }
    }
    // Indexed in `SECTIONS` order.
    let payload = |index: usize| payloads[index].2;

    let schedules = decode_entries::<ScheduleKey, Arc<SchedulingResult>>(payload(0), decode_plain)?;
    let mut points_by_reference = 0;
    let points = decode_entries(payload(1), |r| {
        let key = PointKey::decode(r)?;
        let point = DesignPoint::decode_with(r, |schedule| {
            points_by_reference += 1;
            schedules.get(schedule).cloned()
        })?;
        Ok((key, Arc::new(point)))
    })?;
    let mut scaled_by_reference = 0;
    let scaled = decode_entries(payload(2), |r| {
        let key = ScaledKey::decode(r)?;
        let outcome = match r.take_u8()? {
            SCALED_INFEASIBLE => None,
            SCALED_INLINE => Some(Arc::new(DesignPoint::decode_with(r, |schedule| {
                schedules.get(schedule).cloned()
            })?)),
            SCALED_REFERENCED => {
                let point_key = PointKey::new(key.workload, key.design, r.take_f64()?);
                scaled_by_reference += 1;
                Some(
                    points
                        .get(&point_key)
                        .cloned()
                        .ok_or(DecodeError::Invalid("dangling point reference"))?,
                )
            }
            _ => return Err(DecodeError::Invalid("unknown supply-search outcome form")),
        };
        Ok((key, outcome))
    })?;
    let snapshot = CacheSnapshot {
        contexts: decode_entries(payload(3), decode_plain)?,
        block_schedules: decode_entries(payload(4), decode_plain)?,
        fu_stats: decode_entries(payload(5), decode_plain)?,
        reg_stats: decode_entries(payload(6), decode_plain)?,
        mux_stats: decode_entries(payload(7), decode_plain)?,
        points,
        scaled,
        schedules,
    };
    // The header's workload digest must agree with the decoded keys, and the
    // decoded workloads must fit the requested scope.
    let workloads = snapshot_workloads(&snapshot);
    if workload_digest(&workloads) != header_workloads {
        return Err(SnapshotRejection::Digest);
    }
    if let SnapshotScope::Workload(only) = scope {
        if workloads.iter().any(|&w| w != only.as_u128()) {
            return Err(SnapshotRejection::Digest);
        }
    }
    let entries = [
        snapshot.schedules.len(),
        snapshot.points.len(),
        snapshot.scaled.len(),
        snapshot.contexts.len(),
        snapshot.block_schedules.len(),
        snapshot.fu_stats.len(),
        snapshot.reg_stats.len(),
        snapshot.mux_stats.len(),
    ];
    let layout = SnapshotLayout {
        total_bytes: bytes.len() as u64,
        sections: SECTIONS
            .iter()
            .zip(entries)
            .zip(&payloads)
            .map(|(((_, name), entries), (_, _, payload))| SectionLayout {
                name,
                entries: entries as u64,
                payload_bytes: payload.len() as u64,
            })
            .collect(),
        points_by_reference,
        scaled_by_reference,
    };
    Ok((snapshot, layout))
}

/// Writes snapshot bytes to `path` atomically: the bytes land in a sibling
/// temporary file which is then renamed over the target, so readers only ever
/// observe either the old snapshot or the complete new one. Parent
/// directories are created as needed.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on failure.
pub fn write_snapshot_bytes(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}
