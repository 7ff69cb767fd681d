//! End-to-end benchmark of the IMPACT workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|explore_grid|warm_resume [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed-loop batch of synthesis jobs over all six
//! benchmark designs, driven through `impact_bench::run_batch` in this one
//! process. A run sets the workload up several times (reporting the median
//! set-up), runs one untimed reference pass under a second thread layout,
//! then times whole passes for `--seconds`. Every pass is checked against the
//! reference; after the timed region the reference is audited and a seeded
//! sample is replayed on the brute-force engine. The last stdout
//! line is the JSON result: end-to-end metrics with `--trace 0`, per-layer
//! metrics (from passes over a timing cache backend) with `--trace 1`.
//! `perfbench/METRICS.md` says which end-to-end metric each layer metric
//! should move.

mod check;
mod proc;
mod trace;
mod workload;

use std::time::Instant;

use impact_bench::{JobResult, SweepJob};
use impact_core::OptimizationMode;

use trace::{TraceSummary, Tracer, LAYERS};
use workload::{Design, Layout, PassRun, Sessions, Workload};

/// Set-ups per run: at least `SETUP_REPEATS`, and more (up to
/// `SETUP_MAX_REPEATS`) until `SETUP_MIN_S` of set-up has run, so a cheap
/// set-up still gets a steady median.
const SETUP_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 50;
const SETUP_MIN_S: f64 = 0.3;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Wall-clock spent replaying sampled jobs on the brute-force engine (at
/// least one job is always replayed).
const ORACLE_BUDGET_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = impact_bench::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let layout = workload::TIMED_LAYOUT;
    let check_layout = args.workload.check_layout();
    let nproc = proc::nproc();
    let needed = layout.threads().max(check_layout.threads());
    if needed > nproc {
        eprintln!(
            "perfbench: {} needs {needed} threads (workers x ranking threads) but only {nproc} CPUs are available",
            args.workload.name()
        );
        std::process::exit(3);
    }
    run(&args, layout, check_layout, nproc);
}

/// Failure accounting: every job outcome checked counts as attempted.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, failures: u64, message: String) {
        self.failed += failures;
        if self.notes.len() < 20 {
            eprintln!("perfbench: FAIL {message}");
            self.notes.push(message);
        }
    }

    /// Compares a pass with the reference digests, job by job.
    fn compare(
        &mut self,
        what: &str,
        pass: &PassRun,
        jobs: &[Vec<SweepJob<'_>>],
        names: &[&str],
        reference: &[Vec<String>],
    ) {
        for (((run, design_jobs), name), expected) in
            pass.designs.iter().zip(jobs).zip(names).zip(reference)
        {
            let count = design_jobs.len() as u64;
            self.attempted += count;
            let Some(results) = &run.results else {
                self.note(count, format!("{what}: {name} batch panicked"));
                continue;
            };
            if !run.loaded {
                self.note(count, format!("{what}: {name} snapshot rejected"));
                continue;
            }
            for ((result, job), expected) in results.iter().zip(design_jobs).zip(expected) {
                if check::digest(&result.outcome) != *expected {
                    self.note(
                        1,
                        format!("{what}: {name} {} differs from the reference", job.label),
                    );
                }
            }
        }
    }
}

fn digests(pass: &PassRun) -> Vec<Vec<String>> {
    pass.designs
        .iter()
        .map(|run| {
            run.results
                .as_ref()
                .map(|results| results.iter().map(|r| check::digest(&r.outcome)).collect())
                .unwrap_or_default()
        })
        .collect()
}

/// Arithmetic mean; 0 for no samples.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); 0 for no samples.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).exp()
    }
}

fn job_results(pass: &PassRun) -> impl Iterator<Item = &JobResult> {
    pass.designs
        .iter()
        .filter_map(|run| run.results.as_ref())
        .flatten()
}

/// Workers × batch wall minus the jobs' own wall: time the batch driver's pool sat
/// idle (queue tail, claim overhead), in ms.
fn idle_ms(pass: &PassRun, workers: usize) -> f64 {
    pass.designs
        .iter()
        .map(|run| {
            let busy: f64 = run.results.iter().flatten().map(|r| r.wall_ms).sum();
            workers as f64 * run.batch_ms - busy
        })
        .sum()
}

fn run(args: &Args, layout: Layout, check_layout: Layout, nproc: usize) {
    let workload = args.workload;
    let warm = workload == Workload::WarmResume;
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} layout={}x{} nproc={nproc} rev={} {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        layout.workers,
        layout.ranking_threads,
        proc::git_revision(),
        proc::rustc_version()
    );

    // ------------------------------------------------------------- set-up
    let mut setup = SetupSamples::default();
    // Throw-away set-ups first; the last one is kept for the passes.
    while setup.total_s.len() + 1 < SETUP_REPEATS
        || (setup.total_s.iter().sum::<f64>() < SETUP_MIN_S
            && setup.total_s.len() + 1 < SETUP_MAX_REPEATS)
    {
        setup.throwaway(workload, args.seed);
    }
    let started = Instant::now();
    let (designs, compile, simulate) = workload::prepare_designs(args.seed);
    let jobs = all_jobs(workload, &designs, layout);
    let fill = warm.then(|| workload::fill_sessions(&jobs, layout));
    setup.push(started, compile, simulate);

    // -------------------------------------------------- reference pass
    // The untimed reference pass runs under the second thread layout, so
    // comparing every timed pass with it also checks that reports do not
    // depend on the layout. The warm workload's reference is the cold fill
    // (main layout); its warm-up pass runs under the second layout and keeps
    // the snapshots for the audit.
    let mut tally = Tally::default();
    let names: Vec<&str> = designs.iter().map(|d| d.bench.name).collect();
    let filled = fill.as_ref().map(|(sessions, _)| sessions.as_slice());
    let check_jobs = all_jobs(workload, &designs, check_layout);
    let mut check_pass = workload::pass(&check_jobs, filled, check_layout, &Sessions::Plain, warm);
    // Audit the warm snapshots now and drop them, so they do not sit in
    // memory through the timed passes.
    let snapshot_audit_started = Instant::now();
    for ((run, design_jobs), name) in check_pass.designs.iter_mut().zip(&jobs).zip(&names) {
        let Some(bytes) = run.snapshot.take() else {
            continue;
        };
        if let Some(first) = impact_core::verify::audit_snapshot_bytes(&bytes).first() {
            tally.note(
                design_jobs.len() as u64,
                format!("snapshot audit of {name}: {first}"),
            );
        }
    }
    let snapshot_audit_ms = snapshot_audit_started.elapsed().as_secs_f64() * 1e3;
    let reference = fill
        .as_ref()
        .map_or(&check_pass, |(_, fill_pass)| fill_pass);
    let reference_digests = digests(reference);
    tally.compare("reference", reference, &jobs, &names, &reference_digests);
    if warm {
        tally.compare(
            &format!(
                "{}x{} warm-up pass vs cold fill",
                check_layout.workers, check_layout.ranking_threads
            ),
            &check_pass,
            &check_jobs,
            &names,
            &reference_digests,
        );
    }
    let one_pass = |sessions: &Sessions| workload::pass(&jobs, filled, layout, sessions, false);

    // ------------------------------------------------------ timed passes
    let mut plain = Vec::new();
    let mut traced: Vec<(PassRun, TraceSummary)> = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds
        || plain.len() < MIN_PASSES
        || (args.trace && traced.len() < MIN_PASSES)
    {
        let trace_next = args.trace && traced.len() < plain.len();
        if trace_next {
            let tracer = Tracer::new();
            let pass = one_pass(&Sessions::Traced(std::sync::Arc::clone(&tracer)));
            tally.compare("traced pass", &pass, &jobs, &names, &reference_digests);
            traced.push((pass, tracer.summary()));
        } else {
            let pass = one_pass(&Sessions::Plain);
            tally.compare("timed pass", &pass, &jobs, &names, &reference_digests);
            plain.push(pass);
        }
        // A cold set-up takes milliseconds, and the first ones of a fresh
        // process read up to twice as slow from run to run; sampling it
        // between passes steadies the median at no cost. The warm set-up
        // costs as much as a pass, so it is only sampled up front.
        if !warm {
            setup.throwaway(workload, args.seed);
        }
    }
    let timed_s = started.elapsed().as_secs_f64();

    // ------------------------------------------------ correctness checks
    let checks_started = Instant::now();
    let audit_started = Instant::now();
    for ((run, design_jobs), name) in reference.designs.iter().zip(&jobs).zip(&names) {
        for (result, job) in run.results.iter().flatten().zip(design_jobs) {
            let problems = check::audit(job, &result.outcome);
            if let Some(first) = problems.first() {
                tally.note(1, format!("audit of {name} {}: {first}", job.label));
            }
        }
    }
    let audit_ms = snapshot_audit_ms + audit_started.elapsed().as_secs_f64() * 1e3;
    if warm {
        for pass in std::iter::once(&check_pass)
            .chain(&plain)
            .chain(traced.iter().map(|(p, _)| p))
        {
            for ((run, design_jobs), name) in pass.designs.iter().zip(&jobs).zip(&names) {
                let point = run.stats.point;
                if point.misses != 0 || point.hits == 0 {
                    tally.note(
                        design_jobs.len() as u64,
                        format!(
                            "warm point layer of {name} hit {} / missed {}",
                            point.hits, point.misses
                        ),
                    );
                }
            }
        }
    }

    let flat: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(d, design_jobs)| (0..design_jobs.len()).map(move |j| (d, j)))
        .collect();
    let oracle_started = Instant::now();
    let mut oracle_jobs = 0;
    for index in check::seeded_order(flat.len(), args.seed ^ workload.name().len() as u64) {
        if oracle_jobs > 0 && oracle_started.elapsed().as_secs_f64() >= ORACLE_BUDGET_S {
            break;
        }
        let (d, j) = flat[index];
        let job = &jobs[d][j];
        oracle_jobs += 1;
        tally.attempted += 1;
        match check::oracle_digest(job) {
            Ok(digest) if reference_digests[d].get(j) == Some(&digest) => {}
            Ok(_) => tally.note(
                1,
                format!(
                    "{} {} differs from the brute-force engine",
                    names[d], job.label
                ),
            ),
            Err(error) => tally.note(1, format!("oracle run of {} failed: {error}", job.label)),
        }
    }

    let self_test_ok = job_results(reference)
        .next()
        .is_some_and(|result| check::tamper_self_test(&result.outcome));
    if !self_test_ok {
        tally.note(
            0,
            "tamper self-test: a tampered report went unnoticed".to_string(),
        );
    }
    let checks_s = checks_started.elapsed().as_secs_f64();

    // ------------------------------------------------------------ report
    let correct = tally.failed == 0 && self_test_ok;
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    // Each job's mean latency over the timed passes: host contention comes
    // and goes within seconds, and a mean over passes smooths it where a
    // per-pass sample (or a median that flips between fast and slow passes)
    // would not.
    let mut job_ms_samples = 0;
    let job_ms: Vec<f64> = flat
        .iter()
        .filter_map(|&(d, j)| {
            let samples: Vec<f64> = plain
                .iter()
                .filter_map(|pass| Some(pass.designs[d].results.as_ref()?.get(j)?.wall_ms))
                .collect();
            job_ms_samples += samples.len();
            (!samples.is_empty()).then(|| mean(&samples))
        })
        .collect();
    let power_jobs = || {
        reference
            .designs
            .iter()
            .zip(&jobs)
            .flat_map(|(run, design_jobs)| run.results.iter().flatten().zip(design_jobs))
            .filter(|(_, job)| job.config.mode == OptimizationMode::Power)
            .map(|(result, _)| result)
    };

    let detail = format!(
        concat!(
            "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"git_revision\": \"{}\", ",
            "\"rustc\": \"{}\", \"layout\": {{\"workers\": {}, \"ranking_threads\": {}}}, ",
            "\"check_layout\": {{\"workers\": {}, \"ranking_threads\": {}}}, \"jobs_per_pass\": {}, ",
            "\"timed_passes\": {}, \"traced_passes\": {}, \"timed_s\": {}, \"checks_s\": {}, ",
            "\"job_ms_samples\": {}, \"oracle_jobs\": {}, \"error_rate\": {}, \"self_test\": {}, ",
            "\"pass_walls_s\": {:?}, \"failures\": {:?}}}}}"
        ),
        workload.name(),
        args.seed,
        nproc,
        proc::git_revision(),
        proc::rustc_version(),
        layout.workers,
        layout.ranking_threads,
        check_layout.workers,
        check_layout.ranking_threads,
        flat.len(),
        plain.len(),
        traced.len(),
        timed_s,
        checks_s,
        job_ms_samples,
        oracle_jobs,
        error_rate,
        self_test_ok,
        walls,
        tally.notes,
    );
    println!("{detail}");

    let mut metrics = Metrics::default();
    if args.trace {
        per_layer_metrics(
            &mut metrics,
            &plain,
            &traced,
            layout,
            median(&setup.compile_ms),
            median(&setup.simulate_ms),
            audit_ms,
        );
    } else {
        metrics.push("wall_s", mean(&walls), "s");
        metrics.push("job_ms_p50", percentile(&job_ms, 0.5), "ms");
        metrics.push("job_ms_p90", percentile(&job_ms, 0.9), "ms");
        let cpu: f64 = plain.iter().map(|p| p.cpu_s).sum();
        metrics.push("cpu_s", cpu / plain.len() as f64, "s");
        metrics.push("setup_s", median(&setup.total_s), "s");
        metrics.push("peak_rss_mb", proc::peak_rss_mb(), "MiB");
        metrics.push(
            "power_mw_geomean",
            geomean(power_jobs().map(|r| r.outcome.report.power_mw)),
            "mW",
        );
        metrics.push(
            "area_geomean",
            geomean(power_jobs().map(|r| r.outcome.report.area)),
            "gates",
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.entries.join(", ")
    );
}

/// Set-up time samples: the whole set-up, and its HDL front-end and
/// behavioral-simulation parts.
#[derive(Default)]
struct SetupSamples {
    total_s: Vec<f64>,
    compile_ms: Vec<f64>,
    simulate_ms: Vec<f64>,
}

impl SetupSamples {
    fn push(&mut self, started: Instant, compile_ms: f64, simulate_ms: f64) {
        self.total_s.push(started.elapsed().as_secs_f64());
        self.compile_ms.push(compile_ms);
        self.simulate_ms.push(simulate_ms);
    }

    /// Runs one whole set-up of `workload`, records its times and drops it.
    fn throwaway(&mut self, workload: Workload, seed: u64) {
        let started = Instant::now();
        let (designs, compile_ms, simulate_ms) = workload::prepare_designs(seed);
        if workload == Workload::WarmResume {
            let jobs = all_jobs(workload, &designs, workload::TIMED_LAYOUT);
            drop(workload::fill_sessions(&jobs, workload::TIMED_LAYOUT));
        }
        self.push(started, compile_ms, simulate_ms);
    }
}

fn all_jobs<'a>(
    workload: Workload,
    designs: &'a [Design],
    layout: Layout,
) -> Vec<Vec<SweepJob<'a>>> {
    designs
        .iter()
        .map(|design| workload::design_jobs(workload, design, layout))
        .collect()
}

#[derive(Default)]
struct Metrics {
    entries: Vec<String>,
}

impl Metrics {
    fn push(&mut self, name: &str, value: f64, unit: &str) {
        // JSON has no NaN or infinity; a non-finite value is a bug upstream.
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
}

/// Per-layer metrics, per traced pass (averaged over the traced passes),
/// plus the batch driver's idle time from the untraced passes of the same run.
fn per_layer_metrics(
    metrics: &mut Metrics,
    plain: &[PassRun],
    traced: &[(PassRun, TraceSummary)],
    layout: Layout,
    compile_ms: f64,
    simulate_ms: f64,
    audit_ms: f64,
) {
    let passes = traced.len().max(1) as f64;
    let per_pass = |total: f64| total / passes;

    for (index, name) in LAYERS.iter().enumerate() {
        let sum = |field: fn(&trace::LayerTally) -> u64| -> f64 {
            traced
                .iter()
                .map(|(_, s)| field(&s.layers[index]) as f64)
                .sum()
        };
        let lookups = sum(|t| t.lookups);
        let hits = sum(|t| t.hits);
        metrics.push(&format!("{name}.lookups"), per_pass(lookups), "count");
        metrics.push(
            &format!("{name}.hit_rate"),
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        metrics.push(
            &format!("{name}.self_ms"),
            per_pass(sum(|t| t.self_ns)) / 1e6,
            "ms",
        );
        metrics.push(
            &format!("{name}.call_ms"),
            per_pass(sum(|t| t.call_ns)) / 1e6,
            "ms",
        );
        metrics.push(
            &format!("{name}.dup_stores"),
            per_pass(sum(|t| t.dup_stores)),
            "count",
        );
    }

    // Every workload is timed with one ranking thread per worker, so a job's
    // top-level intervals all lie on its worker's thread.
    let job_ms: f64 = traced
        .iter()
        .flat_map(|(pass, _)| job_results(pass).map(|r| r.wall_ms))
        .sum();
    let attributed_ms: f64 = traced
        .iter()
        .map(|(_, s)| s.top_level_ns as f64 / 1e6)
        .sum();
    metrics.push(
        "core.search.unattributed_ms",
        per_pass(job_ms - attributed_ms),
        "ms",
    );
    metrics.push(
        "bench.trace.attributed",
        if job_ms > 0.0 {
            attributed_ms / job_ms
        } else {
            0.0
        },
        "ratio",
    );
    metrics.push(
        "bench.trace.unpaired",
        per_pass(traced.iter().map(|(_, s)| s.unpaired() as f64).sum()),
        "count",
    );

    let stats: Vec<_> = traced
        .iter()
        .flat_map(|(pass, _)| pass.designs.iter().map(|run| run.stats))
        .collect();
    let explore = |field: fn(&impact_core::ExploreStats) -> u64| -> f64 {
        stats.iter().map(|s| field(&s.explore) as f64).sum()
    };
    let (probes, commits) = (explore(|e| e.probes), explore(|e| e.commits));
    metrics.push("core.explore.probes", per_pass(probes), "count");
    metrics.push(
        "core.explore.rank_probes",
        per_pass(explore(|e| e.rank_probes)),
        "count",
    );
    metrics.push("core.explore.commits", per_pass(commits), "count");
    metrics.push(
        "core.explore.commit_ratio",
        if probes > 0.0 { commits / probes } else { 0.0 },
        "ratio",
    );
    metrics.push(
        "core.cache.evictions",
        per_pass(stats.iter().map(|s| s.evictions as f64).sum()),
        "count",
    );
    metrics.push(
        "core.cache.entries",
        per_pass(
            stats
                .iter()
                .map(|s| (s.points + s.contexts + s.schedules + s.block_schedules) as f64)
                .sum(),
        ),
        "count",
    );

    let idle: Vec<f64> = plain.iter().map(|p| idle_ms(p, layout.workers)).collect();
    metrics.push("bench.driver.idle_ms", mean(&idle), "ms");
    metrics.push("hdl.compile_ms", compile_ms, "ms");
    metrics.push("behsim.simulate_ms", simulate_ms, "ms");

    let codec = |field: fn(&TraceSummary) -> u64| -> f64 {
        per_pass(traced.iter().map(|(_, s)| field(s) as f64).sum())
    };
    metrics.push(
        "core.snapshot.export_ms",
        codec(|s| s.export_ns) / 1e6,
        "ms",
    );
    metrics.push("codec.encode_ms", codec(|s| s.encode_ns) / 1e6, "ms");
    metrics.push("codec.decode_ms", codec(|s| s.decode_ns) / 1e6, "ms");
    metrics.push(
        "core.snapshot.absorb_ms",
        codec(|s| s.absorb_ns) / 1e6,
        "ms",
    );
    metrics.push("codec.snapshot_bytes", codec(|s| s.snapshot_bytes), "bytes");
    metrics.push("verify.audit_ms", audit_ms, "ms");

    let plain_wall: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|(p, _)| p.wall_s).collect();
    metrics.push(
        "bench.trace_overhead",
        mean(&traced_wall) / mean(&plain_wall).max(f64::MIN_POSITIVE),
        "ratio",
    );
}
