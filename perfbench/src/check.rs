//! The correctness gate. Nothing here is keyed to one workload seed: every
//! check compares the program against itself (other passes, other thread
//! layouts, the brute-force engine) or against invariants (`impact_verify`
//! audits, the ENC budget).

use impact_bench::SweepJob;
use impact_core::{EngineConfig, Evaluator, Impact, SynthesisOutcome};

/// Slack of the ENC budget, equal to the engine's own (crate-private)
/// `ENC_EPS`.
pub const ENC_EPS: f64 = 1e-9;

/// A bit-exact fingerprint of what a job produced: the report, the final
/// design's structural digest and the Pareto front's metrics. `Debug` of an
/// `f64` prints the shortest string that reads back to the same bits, so
/// equal strings mean bit-identical numbers.
pub fn digest(outcome: &SynthesisOutcome) -> String {
    let mut text = format!(
        "{:?}|{:032x}",
        outcome.report,
        outcome.design.fingerprint().as_u128()
    );
    for point in &outcome.front {
        text.push_str(&format!(
            "|{:032x}:{:?}:{:?}:{:?}:{:?}",
            point.design.fingerprint().as_u128(),
            point.vdd,
            point.power,
            point.area,
            point.enc()
        ));
    }
    text
}

/// The ENC budget holds for the report and every front member.
pub fn within_budget(outcome: &SynthesisOutcome) -> bool {
    let limit = outcome.report.enc_limit + ENC_EPS;
    outcome.report.enc <= limit && outcome.front.iter().all(|point| point.enc() <= limit)
}

/// Problems with one job's outcome: `impact_verify` audit violations of the
/// outcome (and of every Pareto front member) and ENC-budget breaches.
pub fn audit(job: &SweepJob<'_>, outcome: &SynthesisOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    match Evaluator::new(job.cdfg, job.trace, job.config.clone()) {
        Ok(evaluator) => {
            problems.extend(
                evaluator
                    .audit_outcome(outcome)
                    .iter()
                    .map(ToString::to_string),
            );
            for point in &outcome.front {
                problems.extend(
                    evaluator
                        .audit_design_point(point)
                        .iter()
                        .map(ToString::to_string),
                );
            }
        }
        Err(error) => problems.push(format!("audit evaluator failed: {error}")),
    }
    if !within_budget(outcome) {
        problems.push(format!(
            "ENC {} exceeds budget {}",
            outcome.report.enc, outcome.report.enc_limit
        ));
    }
    problems
}

/// Runs `job` on the brute-force reference engine (no memoization,
/// single-threaded ranking, same search strategy) and returns its digest.
pub fn oracle_digest(job: &SweepJob<'_>) -> Result<String, String> {
    let engine = EngineConfig::sequential().with_explorer(job.config.engine.explorer);
    Impact::new(job.config.clone().with_engine(engine))
        .synthesize(job.cdfg, job.trace)
        .map(|outcome| digest(&outcome))
        .map_err(|error| error.to_string())
}

/// The gate must catch a tampered result: a one-bit change of the reported
/// power must break identity with the reference digest, and a report whose
/// ENC exceeds its budget must fail the budget check. Returns whether both
/// tampers were caught.
pub fn tamper_self_test(outcome: &SynthesisOutcome) -> bool {
    let reference = digest(outcome);

    let mut flipped = outcome.clone();
    flipped.report.power_mw = f64::from_bits(flipped.report.power_mw.to_bits() ^ 1);
    let flip_caught = digest(&flipped) != reference;

    let mut over_budget = outcome.clone();
    over_budget.report.enc = over_budget.report.enc_limit * (1.0 + 1e-6) + 1e-6;
    let budget_caught = !within_budget(&over_budget);

    flip_caught && budget_caught && within_budget(outcome)
}

/// SplitMix64: a seeded permutation of `n` indices, so the oracle sample is
/// a function of the workload seed.
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_core::SynthesisConfig;

    #[test]
    fn tampered_reports_register_as_failures() {
        let bench = impact_benchmarks::gcd();
        let (cdfg, trace) = impact_bench::prepare(&bench, 8, 3);
        let config = SynthesisConfig::power_optimized(2.0).with_effort(1, 2);
        let job = SweepJob::new("power@2.0", &cdfg, &trace, config);
        let outcome = Impact::new(job.config.clone())
            .synthesize(&cdfg, &trace)
            .expect("gcd synthesizes");
        assert!(audit(&job, &outcome).is_empty());
        assert_eq!(oracle_digest(&job), Ok(digest(&outcome)));
        assert!(tamper_self_test(&outcome));

        let mut tampered = outcome.clone();
        tampered.report.area = f64::from_bits(tampered.report.area.to_bits() ^ 1);
        assert_ne!(digest(&tampered), digest(&outcome));
        tampered.report.enc = tampered.report.enc_limit + 1e-3;
        assert!(!audit(&job, &tampered).is_empty());
    }

    #[test]
    fn seeded_order_is_a_reproducible_permutation() {
        let order = seeded_order(138, 1998);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..138).collect::<Vec<_>>());
        assert_eq!(order, seeded_order(138, 1998));
        assert_ne!(order, seeded_order(138, 1999));
    }
}
