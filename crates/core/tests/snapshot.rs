#![allow(clippy::unwrap_used)]

//! Persistence tests: snapshot round trips are lossless and deterministic,
//! warm-started sessions replay bit-identically with a full point-layer hit
//! rate, and stale, truncated or corrupt snapshots degrade to a cold start —
//! never a wrong hit — while leaving the session usable.

use std::collections::HashSet;
use std::sync::Arc;

use impact_behsim::simulate;
use impact_core::{
    decode_snapshot_with_layout, encode_snapshot, DesignPoint, Evaluator, Impact, SnapshotError,
    SnapshotLayout, SnapshotRejection, SnapshotScope, SweepSession, SynthesisConfig,
    SynthesisOutcome, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};

fn gcd_job() -> (
    impact_cdfg::Cdfg,
    impact_behsim::ExecutionTrace,
    SynthesisConfig,
) {
    let bench = impact_benchmarks::gcd();
    let cdfg = bench.compile().unwrap();
    let trace = simulate(&cdfg, &bench.input_sequences(10, 7)).unwrap();
    let config = SynthesisConfig::power_optimized(1.6).with_effort(2, 3);
    (cdfg, trace, config)
}

fn run(
    cdfg: &impact_cdfg::Cdfg,
    trace: &impact_behsim::ExecutionTrace,
    config: &SynthesisConfig,
    session: &SweepSession,
) -> SynthesisOutcome {
    Impact::new(config.clone())
        .synthesize_with_session(cdfg, trace, session)
        .unwrap()
}

/// A populated session plus the cold outcome and its snapshot bytes.
fn populated() -> (SynthesisOutcome, Vec<u8>) {
    let (cdfg, trace, config) = gcd_job();
    let session = SweepSession::new();
    let cold = run(&cdfg, &trace, &config, &session);
    let bytes = session.save_snapshot();
    (cold, bytes)
}

#[test]
fn snapshots_are_deterministic_and_round_trip_losslessly() {
    let (cdfg, trace, config) = gcd_job();
    let session = SweepSession::new();
    let cold = run(&cdfg, &trace, &config, &session);
    let bytes = session.save_snapshot();
    assert_eq!(bytes, session.save_snapshot(), "same contents, same bytes");
    assert_eq!(session.stats().snapshot.saves, 2);

    // Export → save → load → absorb into a fresh session: the re-encoded
    // bytes are identical, so the round trip lost nothing.
    let warm = SweepSession::new();
    let merged = warm.load_snapshot(&bytes, SnapshotScope::Any).unwrap();
    assert!(merged.absorbed > 0, "the cold run populated every layer");
    assert_eq!(merged.duplicates, 0, "the fresh session had no entries");
    assert_eq!(merged.dropped, 0, "nothing was evicted at default capacity");
    assert_eq!(warm.save_snapshot(), bytes, "decode∘encode is the identity");
    assert_eq!(warm.stats().snapshot.loads, 1);

    // The warm replay reproduces the cold run bit for bit and never
    // recomputes a design point.
    let replay = run(&cdfg, &trace, &config, &warm);
    assert_eq!(replay.report, cold.report);
    assert_eq!(replay.design, cold.design);
    assert_eq!(replay.schedule, cold.schedule);
    let stats = warm.stats();
    assert!(stats.point.hits > 0);
    assert_eq!(
        stats.point.misses, 0,
        "a warm replay answers every point lookup from the snapshot"
    );
}

#[test]
fn workload_scoped_loads_accept_their_workload_and_reject_others() {
    let (cdfg, trace, config) = gcd_job();
    let session = SweepSession::new();
    let _ = run(&cdfg, &trace, &config, &session);
    let bytes = session.save_snapshot();
    let workload = Evaluator::with_session(&cdfg, &trace, config, &session)
        .unwrap()
        .workload();

    let scoped = SweepSession::new();
    assert!(scoped
        .load_snapshot(&bytes, SnapshotScope::Workload(workload))
        .is_ok());

    // A snapshot of a different workload (same benchmark, different trace)
    // fails the scope check and leaves the session cold.
    let other_trace = simulate(&cdfg, &impact_benchmarks::gcd().input_sequences(6, 3)).unwrap();
    let other_workload = Evaluator::with_session(
        &cdfg,
        &other_trace,
        SynthesisConfig::power_optimized(1.6).with_effort(2, 3),
        &scoped,
    )
    .unwrap()
    .workload();
    assert_ne!(workload, other_workload);
    let strict = SweepSession::new();
    assert_eq!(
        strict.load_snapshot(&bytes, SnapshotScope::Workload(other_workload)),
        Err(SnapshotRejection::Digest)
    );
    assert_eq!(strict.stats().snapshot.rejected_digest, 1);
    assert_eq!(strict.save_snapshot(), SweepSession::new().save_snapshot());
}

#[test]
fn every_sampled_bit_flip_is_rejected() {
    let (_, bytes) = populated();
    let session = SweepSession::new();
    // Exhaustively flipping every bit of a multi-megabyte snapshot is too
    // slow for CI; cover the structure instead: every byte of the header and
    // trailer plus a stride through the payload.
    let mut positions: Vec<usize> = (0..64.min(bytes.len())).collect();
    positions.extend((bytes.len().saturating_sub(48)..bytes.len()).collect::<Vec<_>>());
    positions.extend((0..bytes.len()).step_by(4097));
    for pos in positions {
        for bit in [0, 3, 7] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            assert!(
                session.load_snapshot(&corrupt, SnapshotScope::Any).is_err(),
                "a flip of byte {pos} bit {bit} must be rejected"
            );
        }
    }
    assert_eq!(session.stats().snapshot.loads, 0);
    // The session survived every rejection unchanged and still loads the
    // pristine bytes.
    assert!(session.load_snapshot(&bytes, SnapshotScope::Any).is_ok());
}

#[test]
fn truncations_are_rejected_with_the_truncation_reason() {
    let (_, bytes) = populated();
    let session = SweepSession::new();
    let cuts = [0, 1, 8, 20, 35, 36, 100, bytes.len() / 2, bytes.len() - 1];
    for &cut in &cuts {
        assert_eq!(
            session.load_snapshot(&bytes[..cut], SnapshotScope::Any),
            Err(SnapshotRejection::Truncated),
            "a snapshot cut to {cut} bytes must classify as truncated"
        );
    }
    assert_eq!(
        session.stats().snapshot.rejected_truncated,
        cuts.len() as u64
    );
}

#[test]
fn foreign_versions_and_magics_are_rejected_as_version_mismatches() {
    let (_, bytes) = populated();
    let session = SweepSession::new();

    // A writer with a bumped container version.
    let mut future = bytes.clone();
    future[SNAPSHOT_MAGIC.len()] = future[SNAPSHOT_MAGIC.len()].wrapping_add(1);
    assert_eq!(
        session.load_snapshot(&future, SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );

    // A different file format altogether.
    let mut alien = bytes.clone();
    alien[..SNAPSHOT_MAGIC.len()].copy_from_slice(b"NOTCACHE");
    assert_eq!(
        session.load_snapshot(&alien, SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );

    // Trailing junk after the declared length.
    let mut padded = bytes.clone();
    padded.push(0);
    assert_eq!(
        session.load_snapshot(&padded, SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );

    assert_eq!(session.stats().snapshot.rejected_version, 3);
}

#[test]
fn snapshot_files_persist_across_sessions_and_degrade_corrupt_files_to_cold() {
    let path = std::env::temp_dir().join(format!(
        "impact_snapshot_file_test_{}.impactcache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let (cdfg, trace, config) = gcd_job();

    // A missing file is an i/o error, and the session stays a normal cold
    // one.
    let session = SweepSession::new();
    assert!(matches!(
        session.load_from_file(&path, SnapshotScope::Any),
        Err(SnapshotError::Io(_))
    ));
    assert_eq!(session.stats().snapshot.loads, 0);
    assert_eq!(session.stats().snapshot.rejected(), 0);
    let cold = run(&cdfg, &trace, &config, &session);
    session.save_to_file(&path).unwrap();

    // A fresh session hydrates from the file; the replay is bit-identical
    // with a full point-layer hit rate.
    let warm = SweepSession::new();
    warm.load_from_file(&path, SnapshotScope::Any).unwrap();
    assert_eq!(warm.stats().snapshot.loads, 1);
    let replay = run(&cdfg, &trace, &config, &warm);
    assert_eq!(replay.report, cold.report);
    assert_eq!(replay.design, cold.design);
    let stats = warm.stats();
    assert!(stats.point.hits > 0);
    assert_eq!(stats.point.misses, 0);

    // A corrupted file degrades to a counted cold start and the session
    // stays fully usable.
    let mut corrupt = std::fs::read(&path).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    std::fs::write(&path, &corrupt).unwrap();
    let recovered = SweepSession::new();
    assert!(matches!(
        recovered.load_from_file(&path, SnapshotScope::Any),
        Err(SnapshotError::Rejected(_))
    ));
    let stats = recovered.stats();
    assert_eq!(stats.snapshot.loads, 0);
    assert_eq!(stats.snapshot.rejected(), 1);
    assert_eq!(stats.points, 0, "nothing from the corrupt file is trusted");
    let redone = run(&cdfg, &trace, &config, &recovered);
    assert_eq!(
        redone.report, cold.report,
        "cold recomputation still agrees"
    );
    // Saving replaces the corrupt file wholesale.
    recovered.save_to_file(&path).unwrap();
    let healed = SweepSession::new();
    healed.load_from_file(&path, SnapshotScope::Any).unwrap();
    assert_eq!(healed.stats().snapshot.loads, 1);

    let _ = std::fs::remove_file(&path);
}

// ------------------------------------------------------------ wire format v2

/// Bytes before the first section: magic, version, total length, workload
/// digest and section count.
const HEADER_LEN: usize = 8 + 4 + 8 + 16 + 4;
/// Bytes of one section header: tag, payload length, payload digest.
const SECTION_HEADER_LEN: usize = 1 + 8 + 16;

/// The container's digest, restated from the documented layout: the
/// workspace hasher over a tag, the length and the bytes as little-endian
/// 64-bit words (final partial word zero-padded).
fn digest(bytes: &[u8]) -> u128 {
    let mut h = impact_core::FingerprintHasher::new();
    h.write_tag(0xC6);
    h.write_u64(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h.write_u64(u64::from_le_bytes(word));
    }
    h.finish().as_u128()
}

/// One section: its tag and payload.
type Section = (u8, Vec<u8>);

/// Splits snapshot bytes into the header and the sections, plus the offset
/// of every section header.
fn split(bytes: &[u8]) -> (Vec<u8>, Vec<Section>, Vec<usize>) {
    let count = u32::from_le_bytes(bytes[HEADER_LEN - 4..HEADER_LEN].try_into().unwrap());
    let mut at = HEADER_LEN;
    let mut sections = Vec::new();
    let mut offsets = Vec::new();
    for _ in 0..count {
        offsets.push(at);
        let tag = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        let start = at + SECTION_HEADER_LEN;
        sections.push((tag, bytes[start..start + len].to_vec()));
        at = start + len;
    }
    assert_eq!(at + 16, bytes.len(), "sections end at the trailer");
    (bytes[..HEADER_LEN].to_vec(), sections, offsets)
}

/// Reassembles a snapshot with fresh lengths and digests, so every digest
/// checks whatever the payloads hold.
fn reseal(header: &[u8], sections: &[Section]) -> Vec<u8> {
    let total = HEADER_LEN
        + sections
            .iter()
            .map(|(_, payload)| SECTION_HEADER_LEN + payload.len())
            .sum::<usize>()
        + 16;
    let mut skeleton = header.to_vec();
    skeleton[12..20].copy_from_slice(&(total as u64).to_le_bytes());
    let mut out = skeleton.clone();
    for (tag, payload) in sections {
        let mut section_header = vec![*tag];
        section_header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        section_header.extend_from_slice(&digest(payload).to_le_bytes());
        skeleton.extend_from_slice(&section_header);
        out.extend_from_slice(&section_header);
        out.extend_from_slice(payload);
    }
    out.extend_from_slice(&digest(&skeleton).to_le_bytes());
    out
}

/// Index of the section holding `name` in a decoded layout.
fn section(layout: &SnapshotLayout, name: &str) -> usize {
    layout
        .sections
        .iter()
        .position(|section| section.name == name)
        .unwrap()
}

#[test]
fn decoded_points_share_the_schedule_and_point_layers() {
    let (_, bytes) = populated();
    let (snapshot, layout) = decode_snapshot_with_layout(&bytes, SnapshotScope::Any).unwrap();
    assert_eq!(layout.total_bytes, bytes.len() as u64);
    assert_eq!(
        layout.points_by_reference,
        snapshot.points.len() as u64,
        "every point of a full session references its schedule"
    );
    for point in snapshot.points.values() {
        let key = point.schedule_key.expect("memoized points carry their key");
        assert!(
            Arc::ptr_eq(&point.schedule, &snapshot.schedules[&key]),
            "a decoded point re-links to the schedule layer's allocation"
        );
    }
    let points: HashSet<*const DesignPoint> = snapshot.points.values().map(Arc::as_ptr).collect();
    let feasible: Vec<_> = snapshot.scaled.values().flatten().collect();
    assert!(!feasible.is_empty());
    assert_eq!(layout.scaled_by_reference, feasible.len() as u64);
    for point in feasible {
        assert!(
            points.contains(&Arc::as_ptr(point)),
            "a by-reference outcome shares the point layer's allocation"
        );
    }
    // Every section's reported size adds up to the file.
    let payloads: u64 = layout.sections.iter().map(|s| s.payload_bytes).sum();
    assert_eq!(
        payloads + (HEADER_LEN + 8 * SECTION_HEADER_LEN + 16) as u64,
        bytes.len() as u64
    );
    // The test's own reassembly of the documented layout is the identity.
    let (header, sections, _) = split(&bytes);
    assert_eq!(reseal(&header, &sections), bytes);
}

#[test]
fn missing_reference_targets_fall_back_to_inline_and_round_trip() {
    let (cdfg, trace, config) = gcd_job();
    let session = SweepSession::new();
    let _ = run(&cdfg, &trace, &config, &session);
    let full = session.backend().export();

    // An evicted or delta export: half the schedules and half the points
    // are gone, so their dependants must carry their own copies.
    let mut partial = full.clone();
    let mut schedule_keys: Vec<_> = partial.schedules.keys().copied().collect();
    schedule_keys.sort();
    for key in schedule_keys.iter().step_by(2) {
        partial.schedules.remove(key);
    }
    let mut point_keys: Vec<_> = partial.points.keys().copied().collect();
    point_keys.sort();
    for key in point_keys.iter().step_by(2) {
        partial.points.remove(key);
    }
    let bytes = encode_snapshot(&partial);
    let (decoded, layout) = decode_snapshot_with_layout(&bytes, SnapshotScope::Any).unwrap();
    assert!(layout.points_by_reference > 0);
    assert!(layout.points_by_reference < partial.points.len() as u64);
    let scaled = partial.scaled.values().flatten().count() as u64;
    assert!(layout.scaled_by_reference < scaled);

    assert_eq!(decoded.points.len(), partial.points.len());
    for (key, point) in &partial.points {
        assert_eq!(decoded.points[key], *point);
        assert_eq!(decoded.points[key].schedule_key, point.schedule_key);
    }
    assert_eq!(decoded.scaled, partial.scaled);
    assert_eq!(decoded.schedules, partial.schedules);
    assert_eq!(encode_snapshot(&decoded), bytes, "re-encoding is stable");
    let sizes = |layout: &SnapshotLayout| layout.sections[section(layout, "points")].payload_bytes;
    let (_, full_layout) =
        decode_snapshot_with_layout(&encode_snapshot(&full), SnapshotScope::Any).unwrap();
    assert!(
        sizes(&layout) > sizes(&full_layout),
        "the inline fallback carries the schedules its references would have named"
    );
}

#[test]
fn dangling_references_under_valid_digests_are_layout_rejections() {
    let (_, bytes) = populated();
    let (header, sections, _) = split(&bytes);
    let (_, layout) = decode_snapshot_with_layout(&bytes, SnapshotScope::Any).unwrap();
    // An empty section is just a zero entry count.
    let empty = 0u64.to_le_bytes().to_vec();
    for target in ["schedules", "points"] {
        let mut forged = sections.clone();
        forged[section(&layout, target)].1 = empty.clone();
        let session = SweepSession::new();
        assert_eq!(
            session.load_snapshot(&reseal(&header, &forged), SnapshotScope::Any),
            Err(SnapshotRejection::Version),
            "references into an emptied {target} section dangle"
        );
        assert_eq!(session.stats().points, 0);
    }
}

#[test]
fn version_one_snapshots_are_rejected_as_version_mismatches() {
    assert_eq!(SNAPSHOT_VERSION, 2);
    let (_, bytes) = populated();
    let mut old = bytes.clone();
    old[SNAPSHOT_MAGIC.len()..SNAPSHOT_MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
    let session = SweepSession::new();
    assert_eq!(
        session.load_snapshot(&old, SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );
    // Even resealed with valid digests, the old version stays rejected.
    let (header, sections, _) = split(&old);
    assert_eq!(
        session.load_snapshot(&reseal(&header, &sections), SnapshotScope::Any),
        Err(SnapshotRejection::Version)
    );
}

#[test]
fn bit_flips_in_every_section_header_are_rejected() {
    let (_, bytes) = populated();
    let (_, _, offsets) = split(&bytes);
    assert_eq!(offsets.len(), 8);
    let session = SweepSession::new();
    for &offset in &offsets {
        // Every byte of the header and the first bytes of its payload.
        for pos in offset..(offset + SECTION_HEADER_LEN + 8).min(bytes.len()) {
            for bit in [0, 4, 7] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    session.load_snapshot(&corrupt, SnapshotScope::Any).is_err(),
                    "a flip of byte {pos} bit {bit} (section at {offset}) must be rejected"
                );
            }
        }
    }
    assert_eq!(session.stats().snapshot.loads, 0);
    assert!(session.load_snapshot(&bytes, SnapshotScope::Any).is_ok());
}
