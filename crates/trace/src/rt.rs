//! RT-level unit traces derived by trace manipulation.

use impact_behsim::{ExecutionTrace, OpEvent};
use impact_cdfg::{Cdfg, NodeId, VariableKind};
use impact_rtl::{FuId, MuxSite, MuxSource, RegId, RtlDesign, SignalKey};

use crate::activity::sequence_activity;

/// View over one behavioral [`ExecutionTrace`] through the lens of one
/// RT-level design: per-unit merged traces, register value sequences and
/// multiplexer statistics.
#[derive(Clone, Copy, Debug)]
pub struct RtTraces<'a> {
    cdfg: &'a Cdfg,
    design: &'a RtlDesign,
    trace: &'a ExecutionTrace,
}

/// Activity statistics of one functional unit, derived from a single merge of
/// its trace (cheaper than querying each metric separately, which re-merges
/// the event streams every time).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FuStats {
    /// Mean input switching activity along the merged trace.
    pub input_activity: f64,
    /// Mean output switching activity along the merged trace.
    pub output_activity: f64,
    /// Average activations per input pass.
    pub activations_per_pass: f64,
}

/// Activity statistics of one register, derived from a single reconstruction
/// of its value sequence.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RegStats {
    /// Mean per-write switching activity.
    pub activity: f64,
    /// Average writes per input pass.
    pub writes_per_pass: f64,
}

impl<'a> RtTraces<'a> {
    /// Creates the view. The trace must have been recorded on the same CDFG
    /// the design binds.
    pub fn new(cdfg: &'a Cdfg, design: &'a RtlDesign, trace: &'a ExecutionTrace) -> Self {
        Self {
            cdfg,
            design,
            trace,
        }
    }

    /// The underlying behavioral trace.
    pub fn execution(&self) -> &ExecutionTrace {
        self.trace
    }

    // ------------------------------------------------------------ functional units

    /// The merged trace of a functional unit: the events of every operation
    /// bound to it, in dynamic execution order (the paper's `TR(Du)`).
    pub fn merged_fu_events(&self, fu: FuId) -> Vec<&OpEvent> {
        let ops = self.design.ops_on(fu);
        let mut events: Vec<&OpEvent> = ops
            .iter()
            .flat_map(|&op| self.trace.events_for(op))
            .collect();
        events.sort_by_key(|e| e.sequence);
        events
    }

    /// Average number of activations of the unit per input pass.
    pub fn fu_activations_per_pass(&self, fu: FuId) -> f64 {
        self.merged_fu_events(fu).len() as f64 / f64::from(self.trace.passes().max(1))
    }

    /// Mean input switching activity of the unit: the per-bit toggle rate of
    /// each input port along the merged trace, averaged over ports.
    pub fn fu_input_activity(&self, fu: FuId) -> f64 {
        self.input_activity_of(fu, &self.merged_fu_events(fu))
    }

    /// Mean output switching activity of the unit along its merged trace.
    pub fn fu_output_activity(&self, fu: FuId) -> f64 {
        self.output_activity_of(fu, &self.merged_fu_events(fu))
    }

    /// Every per-unit statistic from one merge of the unit's event streams.
    pub fn fu_stats(&self, fu: FuId) -> FuStats {
        let events = self.merged_fu_events(fu);
        FuStats {
            input_activity: self.input_activity_of(fu, &events),
            output_activity: self.output_activity_of(fu, &events),
            activations_per_pass: events.len() as f64 / f64::from(self.trace.passes().max(1)),
        }
    }

    fn fu_width(&self, fu: FuId) -> u8 {
        self.design
            .functional_unit(fu)
            .map(|f| f.width)
            .unwrap_or(8)
    }

    fn input_activity_of(&self, fu: FuId, events: &[&OpEvent]) -> f64 {
        if events.len() < 2 {
            return 0.0;
        }
        let width = self.fu_width(fu);
        let ports = events.iter().map(|e| e.inputs.len()).max().unwrap_or(0);
        if ports == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for port in 0..ports {
            let values: Vec<i64> = events
                .iter()
                .map(|e| e.inputs.get(port).copied().unwrap_or(0))
                .collect();
            total += sequence_activity(&values, width);
        }
        total / ports as f64
    }

    fn output_activity_of(&self, fu: FuId, events: &[&OpEvent]) -> f64 {
        let values: Vec<i64> = events.iter().map(|e| e.output).collect();
        sequence_activity(&values, self.fu_width(fu))
    }

    // ------------------------------------------------------------ registers

    /// Value sequence seen by a register: every write performed by operations
    /// defining one of its variables, in dynamic order. Primary-input
    /// variables contribute their per-pass values.
    pub fn register_values(&self, reg: RegId) -> Vec<i64> {
        let Ok(register) = self.design.register(reg) else {
            return Vec::new();
        };
        // Writes carry unique global sequence numbers, so gathering them per
        // variable (through the graph's definer index) instead of scanning
        // every node leaves the sorted sequence unchanged.
        let mut writes: Vec<(u32, i64)> = Vec::new();
        for &var in &register.variables {
            for &node_id in self.cdfg.definers_of(var) {
                for event in self.trace.events_for(node_id) {
                    writes.push((event.sequence, event.output));
                }
            }
        }
        // Primary inputs are loaded at the start of each pass, before any
        // recorded event of that pass.
        let first_seqs = self.trace.first_sequences();
        for &var in &register.variables {
            if self.cdfg.variable(var).kind == VariableKind::Input {
                let values = self.trace.variable_writes(var);
                // Interleave them at the beginning of each pass by giving
                // them the sequence number of the pass's first event.
                for (pass, &value) in values.iter().enumerate() {
                    let first_seq = first_seqs.get(pass).copied().unwrap_or(0);
                    writes.push((first_seq.saturating_sub(1), value));
                }
            }
        }
        writes.sort_by_key(|&(seq, _)| seq);
        writes.into_iter().map(|(_, v)| v).collect()
    }

    /// Mean per-write switching activity of a register.
    pub fn register_activity(&self, reg: RegId) -> f64 {
        let width = self.design.register(reg).map(|r| r.width).unwrap_or(8);
        sequence_activity(&self.register_values(reg), width)
    }

    /// Average number of writes into the register per input pass.
    pub fn register_writes_per_pass(&self, reg: RegId) -> f64 {
        self.register_values(reg).len() as f64 / f64::from(self.trace.passes().max(1))
    }

    /// Every per-register statistic from one reconstruction of the register's
    /// value sequence.
    pub fn register_stats(&self, reg: RegId) -> RegStats {
        let width = self.design.register(reg).map(|r| r.width).unwrap_or(8);
        let values = self.register_values(reg);
        RegStats {
            activity: sequence_activity(&values, width),
            writes_per_pass: values.len() as f64 / f64::from(self.trace.passes().max(1)),
        }
    }

    // ------------------------------------------------------------ multiplexers

    /// Activity of a physical signal (register output, functional-unit output
    /// or constant).
    pub fn signal_activity(&self, key: SignalKey) -> f64 {
        match key {
            SignalKey::Register(reg) => self.register_activity(reg),
            SignalKey::FuOutput(fu) => self.fu_output_activity(fu),
            SignalKey::Constant(_) => 0.0,
        }
    }

    /// Per-source statistics of a multiplexer site: the transition activity
    /// `a_i` of each source signal and its probability of propagation `p_i`
    /// (the fraction of the site's traffic routed through it), ready for
    /// [`impact_rtl::MuxTree`] construction.
    pub fn mux_source_stats(&self, site: &MuxSite) -> Vec<MuxSource> {
        self.mux_source_stats_with(site, |key| self.signal_activity(key))
    }

    /// [`Self::mux_source_stats`] with each source's activity supplied by
    /// the caller, so an evaluator can serve it from memoized unit/register
    /// statistics instead of re-merging the sources' event streams. The
    /// callback must agree with [`Self::signal_activity`] for the result to
    /// match.
    pub fn mux_source_stats_with(
        &self,
        site: &MuxSite,
        mut activity: impl FnMut(SignalKey) -> f64,
    ) -> Vec<MuxSource> {
        let counts: Vec<f64> = site
            .sources
            .iter()
            .map(|src| {
                src.ops
                    .iter()
                    .map(|&op| self.trace.execution_count(op) as f64)
                    .sum::<f64>()
            })
            .collect();
        let total: f64 = counts.iter().sum();
        site.sources
            .iter()
            .zip(counts)
            .map(|(src, count)| {
                let probability = if total > 0.0 {
                    count / total
                } else {
                    1.0 / site.sources.len() as f64
                };
                MuxSource::new(&signal_label(src.key), activity(src.key), probability)
            })
            .collect()
    }

    /// Average number of times the site selects a value per input pass.
    pub fn mux_selections_per_pass(&self, site: &MuxSite) -> f64 {
        let total: usize = site
            .sources
            .iter()
            .flat_map(|s| s.ops.iter())
            .map(|&op| self.trace.execution_count(op))
            .sum();
        total as f64 / f64::from(self.trace.passes().max(1))
    }

    // ------------------------------------------------------------ re-simulation

    /// Operations that the recorded inputs never exercised.
    pub fn unexercised_nodes(&self) -> Vec<NodeId> {
        self.cdfg
            .nodes()
            .filter(|(id, node)| {
                node.operation.needs_functional_unit() && self.trace.execution_count(*id) == 0
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// Returns `true` when some operation was never exercised, in which case
    /// statistics derived for it are extrapolations and a re-simulation with
    /// richer inputs is advisable (the paper's "re-simulation is done on an
    /// as-needed basis").
    pub fn needs_resimulation(&self) -> bool {
        !self.unexercised_nodes().is_empty()
    }
}

fn signal_label(key: SignalKey) -> String {
    match key {
        SignalKey::Register(r) => r.to_string(),
        SignalKey::FuOutput(f) => f.to_string(),
        SignalKey::Constant(c) => c.to_string(),
    }
}

// ---------------------------------------------------------------- snapshot codec

use impact_codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// Version tag of [`FuStats`]'s wire layout.
const TAG_FU_STATS: u8 = 0x30;
/// Version tag of [`RegStats`]'s wire layout.
const TAG_REG_STATS: u8 = 0x31;

impl Encode for FuStats {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_FU_STATS);
        w.put_f64(self.input_activity);
        w.put_f64(self.output_activity);
        w.put_f64(self.activations_per_pass);
    }
}

impl Decode for FuStats {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_FU_STATS)?;
        Ok(Self {
            input_activity: r.take_f64()?,
            output_activity: r.take_f64()?,
            activations_per_pass: r.take_f64()?,
        })
    }
}

impl Encode for RegStats {
    fn encode(&self, w: &mut Encoder) {
        w.put_tag(TAG_REG_STATS);
        w.put_f64(self.activity);
        w.put_f64(self.writes_per_pass);
    }
}

impl Decode for RegStats {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.expect_tag(TAG_REG_STATS)?;
        Ok(Self {
            activity: r.take_f64()?,
            writes_per_pass: r.take_f64()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use impact_behsim::simulate;
    use impact_cdfg::{OpClass, Operation};
    use impact_hdl::compile;
    use impact_modlib::ModuleLibrary;

    /// The three-addition CDFG of Figure 3 of the paper:
    /// `t = b + c; if (a < 8) { out = t + d; } else { out = a + t; }`
    /// (variable names chosen so the three additions mirror +1, +3, +2).
    fn three_addition() -> (Cdfg, ExecutionTrace) {
        let cdfg = compile(
            "design fig3 { input a: 8, b: 8, c: 8, d: 8; output o: 8; var t: 8;
               t = b + c;
               if (a < 8) { o = t + d; } else { o = a + t; }
             }",
        )
        .unwrap();
        // Four passes with condition outcomes [T, T, F, T] as in the paper.
        let inputs = vec![
            vec![1, 10, 20, 3],
            vec![2, 11, 21, 4],
            vec![100, 12, 22, 5],
            vec![3, 13, 23, 6],
        ];
        let trace = simulate(&cdfg, &inputs).unwrap();
        (cdfg, trace)
    }

    #[test]
    fn merged_trace_reproduces_the_paper_sharing_example() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        // Share all three additions on one adder (the paper's single-adder
        // implementation of Figure 5).
        let adders = design.units_of_class(OpClass::AddSub);
        assert_eq!(adders.len(), 3);
        design.share_fus(adders[0], adders[1]).unwrap();
        design.share_fus(adders[0], adders[2]).unwrap();

        let rt = RtTraces::new(&cdfg, &design, &trace);
        let merged = rt.merged_fu_events(adders[0]);
        // Two additions execute per pass (the unconditional one plus the
        // taken branch's addition): 8 events over 4 passes.
        assert_eq!(merged.len(), 8);
        // Dynamic order is monotonically increasing in sequence numbers.
        assert!(merged.windows(2).all(|w| w[0].sequence < w[1].sequence));
        // Condition outcomes [T, T, F, T] select +then, +then, +else, +then
        // as the second addition of each pass.
        let then_add = cdfg
            .nodes()
            .find(|(_, n)| {
                n.operation == Operation::Add
                    && n.defines == cdfg.variable_by_name("o")
                    && n.control.polarity == impact_cdfg::Polarity::ActiveHigh
            })
            .map(|(id, _)| id)
            .unwrap();
        let else_add = cdfg
            .nodes()
            .find(|(_, n)| {
                n.operation == Operation::Add
                    && n.defines == cdfg.variable_by_name("o")
                    && n.control.polarity == impact_cdfg::Polarity::ActiveLow
            })
            .map(|(id, _)| id)
            .unwrap();
        let second_adds: Vec<NodeId> = merged.iter().skip(1).step_by(2).map(|e| e.node).collect();
        assert_eq!(second_adds, vec![then_add, then_add, else_add, then_add]);
    }

    #[test]
    fn sharing_preserves_total_event_count() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        let parallel_total: usize = adders
            .iter()
            .map(|&f| {
                RtTraces::new(&cdfg, &design, &trace)
                    .merged_fu_events(f)
                    .len()
            })
            .sum();
        design.share_fus(adders[0], adders[1]).unwrap();
        design.share_fus(adders[0], adders[2]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        assert_eq!(rt.merged_fu_events(adders[0]).len(), parallel_total);
    }

    #[test]
    fn sharing_unrelated_operations_raises_input_activity() {
        // Two adders fed with very different operand streams: merging them
        // onto one unit makes consecutive input vectors jump around, which is
        // exactly the power cost of over-sharing the paper describes.
        let cdfg = compile(
            "design d { input a: 8, b: 8; output y: 8, z: 8;
               y = a + 1; z = b + 200; }",
        )
        .unwrap();
        let inputs: Vec<Vec<i64>> = (0..16).map(|i| vec![i % 4, 190 + (i % 3)]).collect();
        let trace = simulate(&cdfg, &inputs).unwrap();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        let rt_parallel_activity = {
            let rt = RtTraces::new(&cdfg, &design, &trace);
            (rt.fu_input_activity(adders[0]) + rt.fu_input_activity(adders[1])) / 2.0
        };
        design.share_fus(adders[0], adders[1]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let shared_activity = rt.fu_input_activity(adders[0]);
        assert!(
            shared_activity > rt_parallel_activity,
            "sharing increases per-activation switching ({rt_parallel_activity:.3} -> {shared_activity:.3})"
        );
    }

    #[test]
    fn register_values_follow_program_order() {
        let cdfg = compile(
            "design d { output s: 8; var acc: 8 = 0; var i: 8;
               for (i = 0; i < 4; i = i + 1) { acc = acc + 1; }
               s = acc; }",
        )
        .unwrap();
        let trace = simulate(&cdfg, &[vec![]]).unwrap();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let acc = cdfg.variable_by_name("acc").unwrap();
        let values = rt.register_values(design.register_of(acc));
        assert_eq!(values, vec![1, 2, 3, 4]);
        assert!(rt.register_activity(design.register_of(acc)) > 0.0);
        assert!((rt.register_writes_per_pass(design.register_of(acc)) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mux_source_probabilities_follow_branch_statistics() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        design.share_fus(adders[0], adders[2]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        let sites = design.mux_sites(&cdfg);
        let site = sites
            .iter()
            .find(|s| matches!(s.sink, impact_rtl::MuxSink::FuInput { fu, port: 0 } if fu == adders[0]))
            .expect("shared adder has a mux on its first input");
        let stats = rt.mux_source_stats(site);
        assert_eq!(stats.len(), site.fan_in());
        let total_p: f64 = stats.iter().map(|s| s.probability).sum();
        assert!((total_p - 1.0).abs() < 1e-9, "probabilities sum to one");
        assert!(rt.mux_selections_per_pass(site) > 0.0);
    }

    #[test]
    fn unexercised_operations_trigger_resimulation_advice() {
        let cdfg = compile(
            "design d { input x: 8; output y: 8;
               if (x > 50) { y = x * 3; } else { y = x + 1; } }",
        )
        .unwrap();
        // Only the else path is ever exercised.
        let trace = simulate(&cdfg, &[vec![1], vec![2]]).unwrap();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        assert!(rt.needs_resimulation());
        assert_eq!(rt.unexercised_nodes().len(), 1);
        // Exercising both paths clears the flag.
        let trace2 = simulate(&cdfg, &[vec![1], vec![99]]).unwrap();
        let rt2 = RtTraces::new(&cdfg, &design, &trace2);
        assert!(!rt2.needs_resimulation());
    }

    #[test]
    fn combined_stats_match_the_individual_metrics_exactly() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let mut design = RtlDesign::initial_parallel(&cdfg, &lib);
        let adders = design.units_of_class(OpClass::AddSub);
        design.share_fus(adders[0], adders[1]).unwrap();
        let rt = RtTraces::new(&cdfg, &design, &trace);
        for (fu, _) in design.functional_units() {
            let stats = rt.fu_stats(fu);
            assert_eq!(stats.input_activity, rt.fu_input_activity(fu));
            assert_eq!(stats.output_activity, rt.fu_output_activity(fu));
            assert_eq!(stats.activations_per_pass, rt.fu_activations_per_pass(fu));
        }
        for (reg, _) in design.registers() {
            let stats = rt.register_stats(reg);
            assert_eq!(stats.activity, rt.register_activity(reg));
            assert_eq!(stats.writes_per_pass, rt.register_writes_per_pass(reg));
        }
        // Mux sources fed from the combined statistics match the raw path.
        for site in design.mux_sites(&cdfg) {
            let fed = rt.mux_source_stats_with(&site, |key| match key {
                SignalKey::Register(reg) => rt.register_stats(reg).activity,
                SignalKey::FuOutput(fu) => rt.fu_stats(fu).output_activity,
                SignalKey::Constant(_) => 0.0,
            });
            assert_eq!(fed, rt.mux_source_stats(&site));
        }
    }

    #[test]
    fn constants_have_zero_activity() {
        let (cdfg, trace) = three_addition();
        let lib = ModuleLibrary::standard();
        let design = RtlDesign::initial_parallel(&cdfg, &lib);
        let rt = RtTraces::new(&cdfg, &design, &trace);
        assert_eq!(rt.signal_activity(SignalKey::Constant(42)), 0.0);
    }
}
