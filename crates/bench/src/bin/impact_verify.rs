//! `impact-verify`: static invariant audit of IMPACT artifacts.
//!
//! Three modes, all exiting non-zero when any violation is found:
//!
//! * `--snapshot FILE` — decode one persistent cache snapshot and audit
//!   every cached entry against its key (fingerprints, supply levels, ENC
//!   budgets, block digests, context consistency, schedule memo keys).
//!   Also prints where the snapshot's bytes go: entries and payload bytes
//!   per section, and how many points and supply-search outcomes were
//!   written by reference.
//! * `--snapshot-dir DIR` — audit every `*.impactcache` file in a
//!   directory (the layout `sweep_bench --snapshot-dir` produces). Fails
//!   when the directory holds no snapshots at all, so a misconfigured CI
//!   path cannot pass vacuously.
//! * default (optionally `--design NAME`, repeatable) — synthesize the
//!   example designs over a shared session with the engine's inline audits
//!   at [`VerifyLevel::Full`], then re-audit the finished outcomes, the
//!   whole session cache and the snapshot round-trip as data.
//!
//! Usage: `impact-verify [--smoke] [--design NAME] [--snapshot FILE]
//! [--snapshot-dir DIR]`

use impact_bench::{fail_if, prepare, quick_laxities, BenchCli, DEFAULT_EFFORT, DEFAULT_PASSES};
use impact_core::verify::{audit_session, audit_snapshot_bytes, audit_snapshot_bytes_with_layout};
use impact_core::{
    EngineConfig, Evaluator, Impact, SnapshotLayout, SweepSession, SynthesisConfig, VerifyLevel,
};
use impact_verify::Violation;

/// Prints every violation of one audited artifact and folds it into the
/// running total.
fn report(label: &str, violations: &[Violation], total: &mut usize) {
    for violation in violations {
        println!("{label}: {violation}");
    }
    *total += violations.len();
}

/// Prints where a snapshot's bytes go: entries and payload bytes per
/// section, and how many entries were written by reference.
fn print_layout(label: &str, layout: &SnapshotLayout) {
    for section in &layout.sections {
        println!(
            "{label}:   {:<10} {:>8} entries {:>12} bytes ({:>5.1} %)",
            section.name,
            section.entries,
            section.payload_bytes,
            100.0 * section.payload_bytes as f64 / layout.total_bytes.max(1) as f64
        );
    }
    let entries = |name: &str| {
        layout
            .sections
            .iter()
            .find(|section| section.name == name)
            .map_or(0, |section| section.entries)
    };
    println!(
        "{label}:   by reference: {}/{} points' schedules, {}/{} supply-search outcomes' points",
        layout.points_by_reference,
        entries("points"),
        layout.scaled_by_reference,
        entries("scaled")
    );
}

/// Audits one snapshot file as bytes.
fn audit_file(path: &std::path::Path, total: &mut usize) {
    let label = path.display().to_string();
    match std::fs::read(path) {
        Ok(bytes) => {
            let (layout, violations) = audit_snapshot_bytes_with_layout(&bytes);
            println!(
                "{label}: {} bytes, {} violation(s)",
                bytes.len(),
                violations.len()
            );
            if let Some(layout) = &layout {
                print_layout(&label, layout);
            }
            report(&label, &violations, total);
        }
        Err(error) => {
            println!("{label}: unreadable ({error})");
            *total += 1;
        }
    }
}

/// Synthesizes `bench` across a small laxity sweep with inline engine audits
/// on, then audits the outcomes, the session and the snapshot round-trip.
fn audit_design(
    bench: &impact_benchmarks::Benchmark,
    laxities: &[f64],
    passes: usize,
    effort: (usize, usize),
    total: &mut usize,
) {
    let (cdfg, trace) = prepare(bench, passes, impact_bench::DEFAULT_SEED);
    let session = SweepSession::new();
    let mut artifacts = 0usize;
    for &laxity in laxities {
        for mode in ["area", "power"] {
            let label = format!("{}/{mode}@{laxity:.1}", bench.name);
            let base = match mode {
                "area" => SynthesisConfig::area_optimized(laxity),
                _ => SynthesisConfig::power_optimized(laxity),
            };
            let config = base
                .with_effort(effort.0, effort.1)
                .with_engine(EngineConfig::incremental().with_verify(VerifyLevel::Full));
            // The run itself audits every stored point and the session
            // (VerifyLevel::Full), so a violation surfaces here as an error.
            let outcome = match Impact::new(config.clone())
                .synthesize_with_session(&cdfg, &trace, &session)
            {
                Ok(outcome) => outcome,
                Err(error) => {
                    println!("{label}: synthesis failed: {error}");
                    *total += 1;
                    continue;
                }
            };
            // Re-audit the finished outcome as data, budget included.
            let violations = match Evaluator::with_session(&cdfg, &trace, config, &session) {
                Ok(evaluator) => evaluator.audit_outcome(&outcome),
                Err(error) => {
                    println!("{label}: evaluator failed: {error}");
                    *total += 1;
                    continue;
                }
            };
            report(&label, &violations, total);
            artifacts += 1;
        }
    }
    let session_violations = audit_session(&session);
    report(
        &format!("{}/session", bench.name),
        &session_violations,
        total,
    );
    let snapshot_violations = audit_snapshot_bytes(&session.save_snapshot());
    report(
        &format!("{}/snapshot", bench.name),
        &snapshot_violations,
        total,
    );
    println!(
        "{}: {artifacts} outcome(s), session and snapshot audited, {} violation(s)",
        bench.name,
        session_violations.len() + snapshot_violations.len()
    );
}

fn main() {
    let cli = BenchCli::parse();
    let mut total = 0usize;

    if let Some(path) = cli.value("--snapshot") {
        audit_file(std::path::Path::new(&path), &mut total);
    } else if let Some(dir) = cli.value("--snapshot-dir") {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .unwrap_or_else(|error| panic!("snapshot directory `{dir}` is readable: {error}"))
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "impactcache"))
            .collect();
        paths.sort();
        fail_if(
            paths.is_empty(),
            &format!("no *.impactcache snapshots found in `{dir}`"),
        );
        for path in &paths {
            audit_file(path, &mut total);
        }
        println!("audited {} snapshot(s) in `{dir}`", paths.len());
    } else {
        let (passes, effort, laxities) = if cli.smoke() {
            (10, (2, 3), vec![1.0, 2.0])
        } else {
            (DEFAULT_PASSES, DEFAULT_EFFORT, quick_laxities())
        };
        // `--design` is repeatable; BenchCli::value only sees the first, so
        // collect every occurrence here.
        let args: Vec<String> = std::env::args().skip(1).collect();
        let wanted: Vec<String> = args
            .windows(2)
            .filter(|pair| pair[0] == "--design")
            .map(|pair| pair[1].clone())
            .collect();
        for bench in impact_bench::example_designs() {
            if !wanted.is_empty() && !wanted.iter().any(|name| name == bench.name) {
                continue;
            }
            audit_design(&bench, &laxities, passes, effort, &mut total);
        }
    }

    fail_if(
        total > 0,
        &format!("impact-verify found {total} violation(s)"),
    );
    println!("impact-verify: no violations");
}
