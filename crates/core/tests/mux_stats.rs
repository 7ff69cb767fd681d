#![allow(clippy::unwrap_used)]

//! Pins the memo-fed mux-statistics path. A session evaluator draws every
//! mux source's switching activity from its memoized unit/register
//! statistics instead of re-merging the sources' event streams; on all six
//! benchmarks, along a seeded move sequence and for seed-selected candidate
//! moves off each step (patched contexts), the entry it stores for each
//! candidate site must equal a recomputation over the raw traces bit for
//! bit: tree activity, source depths and selection rate.

use impact_behsim::{simulate, ExecutionTrace};
use impact_cdfg::Cdfg;
use impact_core::{Evaluator, Move, MuxStatsKey, SweepSession, SynthesisConfig};
use impact_modlib::{ModuleLibrary, VDD_REFERENCE};
use impact_rtl::{MuxSite, MuxTree, RtlDesign};
use impact_trace::RtTraces;

/// Every move applicable to `design` across the six move families.
fn candidate_moves(cdfg: &Cdfg, library: &ModuleLibrary, design: &RtlDesign) -> Vec<Move> {
    let mut moves = Vec::new();
    for site in design.mux_sites(cdfg) {
        if site.fan_in() >= 2 && !design.is_restructured(site.sink) {
            moves.push(Move::RestructureMux { sink: site.sink });
        }
    }
    let units: Vec<_> = design
        .functional_units()
        .map(|(id, u)| (id, u.clone()))
        .collect();
    for (fu, unit) in &units {
        let fu = *fu;
        for variant in library.variants_for(unit.class) {
            if variant != unit.module {
                moves.push(Move::SubstituteModule {
                    fu,
                    module: variant,
                });
            }
        }
        let ops = design.ops_on(fu);
        if ops.len() >= 2 {
            moves.push(Move::SplitFu {
                fu,
                op: ops[ops.len() - 1],
            });
        }
    }
    for (i, (a, unit_a)) in units.iter().enumerate() {
        for (b, unit_b) in units.iter().skip(i + 1) {
            if unit_a.class == unit_b.class {
                moves.push(Move::ShareFus {
                    keep: *a,
                    remove: *b,
                });
            }
        }
    }
    let regs: Vec<_> = design.registers().map(|(id, r)| (id, r.clone())).collect();
    for (i, (a, register)) in regs.iter().enumerate() {
        for (b, _) in regs.iter().skip(i + 1) {
            moves.push(Move::ShareRegisters {
                keep: *a,
                remove: *b,
            });
        }
        if register.variables.len() >= 2 {
            moves.push(Move::SplitRegister {
                reg: *a,
                var: register.variables[register.variables.len() - 1],
            });
        }
    }
    moves
}

/// Deterministic pseudo-random successor (LCG).
fn next_seed(seed: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// The site's statistics recomputed from the raw traces alone, independent
/// of any session: `(tree activity, source depths, selections per pass)`.
fn raw_entry(rt: &RtTraces<'_>, site: &MuxSite, restructured: bool) -> (f64, Vec<usize>, f64) {
    let sources = rt.mux_source_stats(site);
    let tree = if restructured {
        MuxTree::huffman(sources)
    } else {
        MuxTree::balanced(sources)
    };
    let depths = (0..site.fan_in())
        .map(|i| tree.depth_of(i).unwrap_or(0))
        .collect();
    (
        tree.switching_activity(),
        depths,
        rt.mux_selections_per_pass(site),
    )
}

/// Checks every candidate site of `design` against the session's stored
/// entry; returns how many sites were compared.
fn check_design(
    cdfg: &Cdfg,
    trace: &ExecutionTrace,
    evaluator: &Evaluator<'_>,
    session: &SweepSession,
    design: &RtlDesign,
    label: &str,
) -> usize {
    let stored = session.backend().export().mux_stats;
    let rt = RtTraces::new(cdfg, design, trace);
    let mut compared = 0;
    for site in design.mux_sites(cdfg) {
        if site.fan_in() < 2 {
            continue;
        }
        let restructured = design.is_restructured(site.sink);
        let key = MuxStatsKey::of(evaluator.workload(), design, &site, restructured);
        let entry = stored
            .get(&key)
            .unwrap_or_else(|| panic!("{label}: site {:?} was never memoized", site.sink));
        let (activity, depths, selections) = raw_entry(&rt, &site, restructured);
        assert_eq!(
            entry.tree_activity().to_bits(),
            activity.to_bits(),
            "{label}: tree activity of {:?}",
            site.sink
        );
        assert_eq!(entry.depths(), depths, "{label}: depths of {:?}", site.sink);
        assert_eq!(
            entry.selections_per_pass().to_bits(),
            selections.to_bits(),
            "{label}: selections of {:?}",
            site.sink
        );
        compared += 1;
    }
    compared
}

#[test]
fn memo_fed_mux_entries_match_the_raw_traces_on_every_benchmark() {
    for bench in impact_benchmarks::all_benchmarks() {
        let cdfg = bench.compile().unwrap();
        let trace = simulate(&cdfg, &bench.input_sequences(8, 21)).unwrap();
        let session = SweepSession::new();
        let evaluator = Evaluator::with_session(
            &cdfg,
            &trace,
            SynthesisConfig::power_optimized(1.6),
            &session,
        )
        .unwrap();
        let library = evaluator.library();
        let mut design = RtlDesign::initial_parallel(&cdfg, library);
        let mut seed = 0x5EED ^ bench.name.len() as u64;
        let mut compared = 0;
        for step in 0..4 {
            evaluator.evaluate_at_vdd(&design, VDD_REFERENCE).unwrap();
            compared += check_design(&cdfg, &trace, &evaluator, &session, &design, bench.name);
            // Candidates off this step go through patched contexts.
            let moves = candidate_moves(&cdfg, library, &design);
            if moves.is_empty() {
                break;
            }
            for probe in 0..3 {
                let mv = &moves[(seed as usize).wrapping_add(probe) % moves.len()];
                let mut candidate = design.clone();
                if mv.apply(&cdfg, library, &mut candidate).is_err() {
                    continue;
                }
                evaluator
                    .evaluate_move_at_vdd(&design, mv, VDD_REFERENCE)
                    .unwrap();
                let label = format!("{} step {step} {}", bench.name, mv.kind());
                compared += check_design(&cdfg, &trace, &evaluator, &session, &candidate, &label);
            }
            // Advance along a seeded move that applies.
            for _ in 0..moves.len() {
                let mv = &moves[(seed as usize) % moves.len()];
                seed = next_seed(seed);
                if mv.apply(&cdfg, library, &mut design).is_ok() {
                    break;
                }
            }
        }
        assert!(compared > 0, "{}: no mux site was compared", bench.name);
    }
}
