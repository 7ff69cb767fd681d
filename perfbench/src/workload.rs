//! The three workloads: what one pass runs, and the set-up it runs on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use impact_behsim::ExecutionTrace;
use impact_bench::{figure13_jobs, paper_laxities, run_batch, JobResult, SweepJob};
use impact_benchmarks::Benchmark;
use impact_cdfg::Cdfg;
use impact_core::{
    CacheBackend, CacheStats, ExplorerKind, InMemoryCache, SnapshotScope, SweepSession,
    SynthesisConfig,
};

use crate::trace::{TimingBackend, Tracer};

/// Input passes per design: the behavioral trace every job evaluates against.
pub const INPUT_PASSES: usize = 48;

/// Laxities of the explorer grid.
const GRID_LAXITIES: [f64; 4] = [1.0, 1.5, 2.0, 2.5];

/// `run_batch` workers × engine ranking threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    pub workers: usize,
    pub ranking_threads: usize,
}

/// The layout every workload is timed under: two independent workers
/// sharing each design's session, so the cache lock is contended and racing
/// workers can compute one entry twice.
pub const TIMED_LAYOUT: Layout = Layout {
    workers: 2,
    ranking_threads: 1,
};

impl Layout {
    pub fn threads(self) -> usize {
        self.workers * self.ranking_threads
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    ExploreGrid,
    WarmResume,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sweep" => Some(Self::Sweep),
            "explore_grid" => Some(Self::ExploreGrid),
            "warm_resume" => Some(Self::WarmResume),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Sweep => "sweep",
            Self::ExploreGrid => "explore_grid",
            Self::WarmResume => "warm_resume",
        }
    }

    /// The layout of the untimed reference pass: reports must not depend on
    /// how the work was spread over threads. The grid's reference ranks on
    /// two threads, which exercises parallel ranking.
    pub fn check_layout(self) -> Layout {
        match self {
            Self::Sweep | Self::WarmResume => Layout {
                workers: 1,
                ranking_threads: 1,
            },
            Self::ExploreGrid => Layout {
                workers: 1,
                ranking_threads: 2,
            },
        }
    }
}

/// One design, compiled and simulated.
pub struct Design {
    pub bench: Benchmark,
    pub cdfg: Cdfg,
    pub trace: ExecutionTrace,
}

/// Compiles and simulates all six designs; returns them with the time spent
/// in the HDL front end and the behavioral simulator, in milliseconds.
pub fn prepare_designs(seed: u64) -> (Vec<Design>, f64, f64) {
    let (mut compile_ms, mut simulate_ms) = (0.0, 0.0);
    let designs = impact_benchmarks::all_benchmarks()
        .into_iter()
        .map(|bench| {
            let started = Instant::now();
            let cdfg = bench.compile().expect("built-in benchmark sources compile");
            compile_ms += started.elapsed().as_secs_f64() * 1e3;
            let inputs = bench.input_sequences(INPUT_PASSES, seed);
            let started = Instant::now();
            let trace = impact_behsim::simulate(&cdfg, &inputs).expect("generated inputs simulate");
            simulate_ms += started.elapsed().as_secs_f64() * 1e3;
            Design { bench, cdfg, trace }
        })
        .collect();
    (designs, compile_ms, simulate_ms)
}

/// The job list of one design under `workload`, with every job's ranking
/// pinned to `layout`.
pub fn design_jobs<'a>(
    workload: Workload,
    design: &'a Design,
    layout: Layout,
) -> Vec<SweepJob<'a>> {
    let effort = impact_bench::DEFAULT_EFFORT;
    let mut jobs = match workload {
        Workload::Sweep | Workload::WarmResume => {
            figure13_jobs(&design.cdfg, &design.trace, &paper_laxities(), effort)
        }
        Workload::ExploreGrid => ExplorerKind::all()
            .into_iter()
            .flat_map(|kind| {
                GRID_LAXITIES.into_iter().map(move |laxity| {
                    let config =
                        SynthesisConfig::power_optimized(laxity).with_effort(effort.0, effort.1);
                    let engine = config.engine.with_explorer(kind);
                    SweepJob::new(
                        format!("{}@{laxity:.1}", kind.name()),
                        &design.cdfg,
                        &design.trace,
                        config.with_engine(engine),
                    )
                })
            })
            .collect(),
    };
    for job in &mut jobs {
        job.config.engine = job
            .config
            .engine
            .with_ranking_threads(layout.ranking_threads);
    }
    jobs
}

/// How sessions of a pass are built: plain, or wrapped for tracing.
#[derive(Clone)]
pub enum Sessions {
    Plain,
    Traced(Arc<Tracer>),
}

impl Sessions {
    fn fresh(&self) -> SweepSession {
        self.wrap(Arc::new(InMemoryCache::new()))
    }

    fn wrap(&self, backend: Arc<dyn CacheBackend>) -> SweepSession {
        match self {
            Sessions::Plain => SweepSession::with_backend(backend),
            Sessions::Traced(tracer) => SweepSession::with_backend(Arc::new(TimingBackend::new(
                backend,
                Arc::clone(tracer),
            ))),
        }
    }
}

/// One design's batch within a pass.
pub struct DesignRun {
    /// `None` when the batch panicked (a failed job aborts `run_batch`).
    pub results: Option<Vec<JobResult>>,
    /// Wall-clock of the batch alone (the batch driver's share of the pass).
    pub batch_ms: f64,
    pub stats: CacheStats,
    /// Snapshot bytes the pass saved (warm passes asked to keep them).
    pub snapshot: Option<Vec<u8>>,
    /// Whether the snapshot loaded (warm passes only).
    pub loaded: bool,
}

pub struct PassRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub designs: Vec<DesignRun>,
}

/// Times one pass: `design` runs each design's job list in turn.
fn timed_pass(
    jobs: &[Vec<SweepJob<'_>>],
    mut design: impl FnMut(usize, &[SweepJob<'_>]) -> DesignRun,
) -> PassRun {
    let cpu = crate::proc::cpu_seconds();
    let started = Instant::now();
    let designs = jobs
        .iter()
        .enumerate()
        .map(|(index, design_jobs)| design(index, design_jobs))
        .collect();
    PassRun {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: crate::proc::cpu_seconds() - cpu,
        designs,
    }
}

/// Runs one design's job list against `session`. A failed job panics
/// `run_batch`; the panic is caught so the rest of the pass still runs.
fn run_design(
    jobs: &[SweepJob<'_>],
    session: &SweepSession,
    workers: usize,
    snapshot: Option<Vec<u8>>,
    loaded: bool,
) -> DesignRun {
    let started = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| run_batch(jobs, Some(session), workers))).ok();
    DesignRun {
        results,
        batch_ms: started.elapsed().as_secs_f64() * 1e3,
        stats: session.stats(),
        snapshot,
        loaded,
    }
}

/// One pass over every design's job list. Cold (`filled` is `None`): each
/// design starts from a fresh session. Warm: each filled session is saved,
/// loaded into a fresh session, and the job list rerun there — the user pays
/// all three steps.
pub fn pass(
    jobs: &[Vec<SweepJob<'_>>],
    filled: Option<&[SweepSession]>,
    layout: Layout,
    sessions: &Sessions,
    keep_snapshots: bool,
) -> PassRun {
    timed_pass(jobs, |index, design_jobs| match filled {
        None => run_design(design_jobs, &sessions.fresh(), layout.workers, None, true),
        Some(filled) => {
            let bytes = sessions
                .wrap(Arc::clone(filled[index].backend()))
                .save_snapshot();
            let session = sessions.fresh();
            let loaded = session.load_snapshot(&bytes, SnapshotScope::Any).is_ok();
            let snapshot = keep_snapshots.then_some(bytes);
            run_design(design_jobs, &session, layout.workers, snapshot, loaded)
        }
    })
}

/// Fills one session per design with the job list (the warm workload's
/// set-up); returns the sessions and the cold pass that filled them.
pub fn fill_sessions(jobs: &[Vec<SweepJob<'_>>], layout: Layout) -> (Vec<SweepSession>, PassRun) {
    let mut filled = Vec::new();
    let pass = timed_pass(jobs, |_, design_jobs| {
        let session = SweepSession::new();
        let run = run_design(design_jobs, &session, layout.workers, None, true);
        filled.push(session);
        run
    });
    (filled, pass)
}
