//! Gated snapshot exchange: every inbound snapshot is untrusted input.
//!
//! Inbound bytes crossed a process boundary — a worker could have been
//! corrupted, the pipe garbled, or (with a snapshot-directory mailbox) a
//! stale file substituted. [`gate_and_absorb`] therefore runs the full
//! defense stack before any entry reaches the receiver's cache:
//!
//! 1. the snapshot decoder (magic, version, per-section and skeleton
//!    digests, truncation checks, reference resolution), then
//! 2. the `impact_verify` cache audit (every design point, context and
//!    schedule re-verified against its key and against the other layers).
//!
//! A rejection at either stage is *counted and skipped*: the receiver keeps
//! its cache as-is and the sender's entries are simply recomputed on demand
//! — that peer degrades to a cold start, the merge is never poisoned.

use impact_core::verify::{audit_snapshot, has_errors};
use impact_core::{
    decode_snapshot, encode_snapshot, AbsorbStats, SnapshotRejection, SnapshotScope, SweepSession,
};

use crate::delta::KnownKeys;

/// Counters of one link's snapshot traffic.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExchangeStats {
    /// Inbound snapshots that decoded, passed the audit and were absorbed.
    pub accepted: u64,
    /// Inbound snapshots rejected by the decoder (bad magic, version,
    /// digest or truncation).
    pub rejected_decode: u64,
    /// Inbound snapshots that decoded but failed the cache audit.
    pub rejected_audit: u64,
    /// Outbound deltas sent.
    pub sent: u64,
    /// Total inbound snapshot bytes offered (accepted or not).
    pub bytes_in: u64,
    /// Total outbound delta bytes sent.
    pub bytes_out: u64,
    /// Cumulative merge counters of the accepted snapshots.
    pub merge: AbsorbStats,
}

impl ExchangeStats {
    /// Total rejected inbound snapshots.
    pub fn rejected(&self) -> u64 {
        self.rejected_decode + self.rejected_audit
    }

    /// Accumulates another link's counters (for fleet-wide reporting).
    pub fn accumulate(&mut self, other: &ExchangeStats) {
        self.accepted += other.accepted;
        self.rejected_decode += other.rejected_decode;
        self.rejected_audit += other.rejected_audit;
        self.sent += other.sent;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.merge.accumulate(other.merge);
    }
}

/// What happened to one inbound snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExchangeOutcome {
    /// Verified and absorbed; the merge counters of this snapshot.
    Accepted(AbsorbStats),
    /// The decoder rejected the bytes; nothing was absorbed.
    RejectedDecode(SnapshotRejection),
    /// The bytes decoded but the cache audit found this many violations;
    /// nothing was absorbed.
    RejectedAudit(usize),
}

impl ExchangeOutcome {
    /// Whether the snapshot was absorbed.
    pub fn accepted(&self) -> bool {
        matches!(self, ExchangeOutcome::Accepted(_))
    }
}

/// Verifies inbound snapshot bytes and, if they pass, absorbs them into
/// `session` and marks their keys as known to the peer (it sent them — no
/// need to echo them back). Rejections leave the session untouched.
pub fn gate_and_absorb(
    session: &SweepSession,
    known: &mut KnownKeys,
    bytes: &[u8],
    stats: &mut ExchangeStats,
) -> ExchangeOutcome {
    stats.bytes_in += bytes.len() as u64;
    let snapshot = match decode_snapshot(bytes, SnapshotScope::Any) {
        Ok(snapshot) => snapshot,
        Err(rejection) => {
            stats.rejected_decode += 1;
            return ExchangeOutcome::RejectedDecode(rejection);
        }
    };
    let violations = audit_snapshot(&snapshot);
    if has_errors(&violations) {
        stats.rejected_audit += 1;
        return ExchangeOutcome::RejectedAudit(violations.len());
    }
    known.note(&snapshot);
    let merge = session.backend().absorb(snapshot);
    stats.accepted += 1;
    stats.merge.accumulate(merge);
    ExchangeOutcome::Accepted(merge)
}

/// Encodes the entries of `session` the peer has not seen yet, marking them
/// as known. Returns `None` when the peer is already up to date (nothing is
/// sent — an empty snapshot would still cost a frame and an audit).
pub fn export_delta(
    session: &SweepSession,
    known: &mut KnownKeys,
    stats: &mut ExchangeStats,
) -> Option<Vec<u8>> {
    let delta = known.delta_from(&session.backend().export());
    if delta.is_empty() {
        return None;
    }
    known.note(&delta);
    let bytes = encode_snapshot(&delta);
    stats.sent += 1;
    stats.bytes_out += bytes.len() as u64;
    Some(bytes)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_core::{Impact, SynthesisConfig};

    fn populated_session(laxity: f64) -> SweepSession {
        let bench = impact_benchmarks::gcd();
        let cdfg = bench.compile().unwrap();
        let trace = impact_behsim::simulate(&cdfg, &bench.input_sequences(6, 11)).unwrap();
        let session = SweepSession::new();
        Impact::new(SynthesisConfig::power_optimized(laxity).with_effort(2, 3))
            .synthesize_with_session(&cdfg, &trace, &session)
            .unwrap();
        session
    }

    #[test]
    fn clean_deltas_are_absorbed_and_not_echoed() {
        let sender = populated_session(2.0);
        let receiver = SweepSession::new();
        let mut sender_known = KnownKeys::new();
        let mut receiver_known = KnownKeys::new();
        let mut stats = ExchangeStats::default();

        let bytes = export_delta(&sender, &mut sender_known, &mut stats).unwrap();
        let outcome = gate_and_absorb(&receiver, &mut receiver_known, &bytes, &mut stats);
        assert!(outcome.accepted());
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.sent, 1);
        assert!(stats.merge.absorbed > 0);
        assert_eq!(stats.merge.duplicates, 0);

        // The receiver now knows everything it absorbed: its next delta back
        // to the sender is empty, and so is the sender's next delta forward.
        assert!(export_delta(&receiver, &mut receiver_known, &mut stats).is_none());
        assert!(export_delta(&sender, &mut sender_known, &mut stats).is_none());

        // The receiver's cache now byte-matches the sender's.
        assert_eq!(receiver.save_snapshot(), sender.save_snapshot());
    }

    #[test]
    fn corrupt_bytes_are_rejected_and_leave_the_session_cold() {
        let sender = populated_session(2.0);
        let receiver = SweepSession::new();
        let mut known = KnownKeys::new();
        let mut stats = ExchangeStats::default();

        let mut bytes = sender.save_snapshot();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let outcome = gate_and_absorb(&receiver, &mut known, &bytes, &mut stats);
        assert_eq!(
            outcome,
            ExchangeOutcome::RejectedDecode(SnapshotRejection::Digest)
        );
        assert_eq!(stats.rejected(), 1);
        assert!(known.is_empty(), "rejected keys are not marked known");
        assert_eq!(receiver.stats().points, 0, "the session stays cold");
    }

    #[test]
    fn incoherent_snapshots_fail_the_audit_gate() {
        let sender = populated_session(2.0);
        let receiver = SweepSession::new();
        let mut known = KnownKeys::new();
        let mut stats = ExchangeStats::default();

        // Swap the values of two point entries: the container re-encodes
        // with valid digests (digests cover the bytes, not the semantics)
        // but the audit catches the key ↔ content mismatch.
        let mut snapshot = sender.backend().export();
        let keys: Vec<_> = snapshot.points.keys().copied().collect();
        assert!(keys.len() >= 2, "a real run caches more than one point");
        let (a, b) = (keys[0], keys[1]);
        let value_a = snapshot.points[&a].clone();
        let value_b = snapshot.points[&b].clone();
        snapshot.points.insert(a, value_b);
        snapshot.points.insert(b, value_a);
        let bytes = encode_snapshot(&snapshot);

        let outcome = gate_and_absorb(&receiver, &mut known, &bytes, &mut stats);
        assert!(matches!(outcome, ExchangeOutcome::RejectedAudit(_)));
        assert_eq!(stats.rejected_audit, 1);
        assert_eq!(receiver.stats().points, 0, "nothing was absorbed");
    }
}
