//! The four campaign workloads. Each has inputs drawn from the seed
//! ([`setup`]), an untraced pass that calls the entry point a CLI user
//! pays for ([`pass`]), a traced pass that makes the same public calls in
//! the same order inside spans ([`traced_pass`]), and an output check
//! against a reference computed once per run ([`reference`], [`check`]).
//!
//! A pass runs the campaign cold on fresh state (a new engine, cache and
//! chunk store), then again over the state the cold run left: the warm
//! engine and cache in process, the filled chunk store with `resume` for
//! the sharded campaign. The validation tables keep no state between
//! calls, so their second run repeats the first.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_sim::Engine;
use experiments::validation::{self, RowSpec, ValidationRow, ValidationTable};
use obs::json::Json;
use pace_core::{AllreduceParams, EvaluationReport, StencilParams, Sweep3dParams};
use sweep3d::trace::FlopModel;
use sweepsvc::shard::{self, ChunkStore};
use sweepsvc::{
    run_ordered, run_ordered_with_worker, scenario_result, CachedEngine, EvalCache, ExecPlan,
    ScenarioResult, ShardConfig, ShardStats, SweepEngine, SweepSpec, WorkerStats,
};
use wavefront_models::Backend;

use crate::trace::{SpanId, Tracer, ROOT};

/// The seed that reproduces the pinned fixtures.
pub const DEFAULT_SEED: u64 = 0;

/// Threads (or worker processes) every workload may use.
pub const WORKERS: usize = 2;

/// Golden digest of the 8000-PE rate what-if at the default seed
/// (`tests/sweep_plan.rs`). Informational: a drift is reported, not failed.
pub const WHATIF_PIN: u64 = 0xffbd_712b_1703_5c6d;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Tables 1–3 through `validation::run_table`.
    Tables,
    /// The pinned 8000-PE DES rate what-if through `run_planned`.
    Whatif8000,
    /// A PACE-only procurement grid through `run_planned`.
    AnalyticGrid,
    /// The 8000-PE what-if through `run_sharded`, then resumed.
    Sharded8000,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::Tables, Workload::Whatif8000, Workload::AnalyticGrid, Workload::Sharded8000];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tables => "tables",
            Workload::Whatif8000 => "whatif_8000pe",
            Workload::AnalyticGrid => "analytic_grid",
            Workload::Sharded8000 => "sharded_8000pe",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload '{name}' (expected one of: {})", names.join(", "))
        })
    }
}

/// Where a run reads assets and keeps its scratch files.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Repository root (machine spec files are read relative to it).
    pub root: PathBuf,
    /// The `sweep-worker` binary the sharded workload spawns.
    pub worker_bin: PathBuf,
    /// Directory for chunk stores; created and emptied by the caller.
    pub scratch: PathBuf,
}

/// One validation table's inputs.
#[derive(Debug, Clone)]
pub struct TableInput {
    /// "Table 1" …
    pub label: &'static str,
    /// The paper's rows.
    pub rows: &'static [RowSpec],
    /// The simulated machine the rows are measured on.
    pub machine: cluster_sim::MachineSpec,
}

/// A workload's inputs, built by [`setup`].
#[derive(Debug, Clone)]
pub enum Inputs {
    /// The three validation tables.
    Tables(Vec<TableInput>),
    /// An in-process planned sweep.
    Sweep(SweepSpec),
    /// A sharded sweep and the worker binary it spawns.
    Sharded {
        /// The campaign.
        spec: SweepSpec,
        /// The resolved worker binary.
        worker_bin: PathBuf,
    },
}

/// A campaign's results.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Scenario results in id order.
    Sweep(Vec<ScenarioResult>),
    /// Validation tables in table order.
    Tables(Vec<ValidationTable>),
}

/// splitmix64: the benchmark's only source of randomness.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A machine's noise seed under benchmark seed `seed`: unchanged at the
/// default seed, so the pinned fixtures reproduce. Seeds stay below 2^53,
/// the range a machine spec document (and so a shard worker) accepts.
pub fn noise_seed(base: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        base
    } else {
        (base ^ mix(seed)) & ((1 << 53) - 1)
    }
}

/// Draw `k` distinct values of `pool` (the first `fixed` are always kept),
/// returned in ascending pool order.
fn draw<T: Copy>(pool: &[T], fixed: usize, k: usize, seed: u64) -> Vec<T> {
    let mut picked: Vec<usize> = (0..fixed).collect();
    let mut state = seed;
    while picked.len() < k {
        state = mix(state);
        let i = fixed + (state % (pool.len() - fixed) as u64) as usize;
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked.into_iter().map(|i| pool[i]).collect()
}

/// Rate multipliers of the analytic grid. Every seed keeps the 1.0
/// baseline; other seeds draw the remaining nine from 0.50–4.00 in 0.05
/// steps.
pub fn grid_multipliers(seed: u64) -> Vec<f64> {
    if seed == DEFAULT_SEED {
        return vec![0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0];
    }
    let pool: Vec<f64> = std::iter::once(1.0)
        .chain((10..=80).filter(|&k| k != 20).map(|k| k as f64 * 0.05))
        .collect();
    let mut m = draw(&pool, 1, 10, seed ^ 0x6d75_6c74);
    m.sort_by(f64::total_cmp);
    m
}

/// Processor-array ladder of the analytic grid: `(i, i)` and `(i, i+1)`
/// for 30 values of `i`. The default seed takes `i = 1..=30`; other seeds
/// keep `i = 1` and draw the rest from `2..=40`.
pub fn grid_ladder(seed: u64) -> Vec<(usize, usize)> {
    let is: Vec<usize> = if seed == DEFAULT_SEED {
        (1..=30).collect()
    } else {
        let pool: Vec<usize> = (1..=40).collect();
        draw(&pool, 1, 30, seed ^ 0x6c61_6464)
    };
    is.into_iter().flat_map(|i| [(i, i), (i, i + 1)]).collect()
}

/// Machines of the analytic grid: the four built-ins plus two spec
/// files, one of them a file copy of a built-in (real dedup work).
pub const GRID_MACHINES: [&str; 6] = [
    "pentium3-myrinet",
    "opteron-gige",
    "altix-numalink",
    "opteron-myrinet",
    "assets/machines/candidate-ib.json",
    "assets/machines/opteron-myrinet.json",
];

fn whatif_spec(seed: u64, tr: &Tracer, parent: Option<SpanId>) -> Result<SweepSpec, String> {
    let mut machine =
        tr.span("registry.resolve", parent, |_| registry::resolve("opteron-myrinet"))?;
    if let Some(sim) = machine.sim.as_mut() {
        sim.seed = noise_seed(sim.seed, seed);
    }
    Ok(tr.span("spec.build", parent, |_| {
        let mut params = Sweep3dParams::speculative_20m(80, 100);
        params.nz = 20;
        params.iterations = 1;
        SweepSpec::new()
            .machine(machine)
            .rate_multipliers(vec![1.0, 1.25, 1.5])
            .problem("80x100", params)
            .backends(vec![Backend::DesSim])
            .des_fork(19_860)
    }))
}

fn grid_spec(
    ctx: &Ctx,
    seed: u64,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<SweepSpec, String> {
    let machines = tr.span("registry.resolve", parent, |_| {
        GRID_MACHINES
            .iter()
            .map(|name| {
                let path = ctx.root.join(name);
                if name.ends_with(".json") {
                    registry::resolve(&path.to_string_lossy())
                } else {
                    registry::resolve(name)
                }
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok(tr.span("spec.build", parent, |_| {
        let ladder = grid_ladder(seed);
        let mut spec =
            SweepSpec::new().rate_multipliers(grid_multipliers(seed)).backends(vec![Backend::Pace]);
        for m in machines {
            spec = spec.machine(m);
        }
        for &(px, py) in &ladder {
            spec =
                spec.problem(format!("wavefront-{px}x{py}"), Sweep3dParams::speculative_1b(px, py));
        }
        for &(px, py) in &ladder {
            spec = spec.problem(format!("stencil-{px}x{py}"), StencilParams::weak_scaling(px, py));
        }
        for &(px, py) in &ladder {
            spec =
                spec.problem(format!("allreduce-{}", px * py), AllreduceParams::cg_like(px * py));
        }
        spec
    }))
}

/// Resolve the worker binary the way a user's shard run needs it: the
/// path must name an existing file.
fn resolve_worker(bin: &Path) -> Result<PathBuf, String> {
    if bin.is_file() {
        Ok(bin.to_path_buf())
    } else {
        Err(format!("sweep-worker binary not found at {}", bin.display()))
    }
}

/// Build a workload's inputs: registry lookups, spec-file parsing, spec
/// construction and worker-binary resolution. This is what `setup_s`
/// times.
pub fn setup(
    w: Workload,
    ctx: &Ctx,
    seed: u64,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<Inputs, String> {
    Ok(match w {
        Workload::Tables => {
            let machines =
                tr.span("registry.resolve", parent, |_| registry::sim::validation_machines());
            let rows: [&'static [RowSpec]; 3] =
                [&validation::TABLE1_ROWS, &validation::TABLE2_ROWS, &validation::TABLE3_ROWS];
            Inputs::Tables(
                machines
                    .into_iter()
                    .zip(rows)
                    .map(|((label, machine), rows)| TableInput {
                        label,
                        rows,
                        machine: machine.clone().with_seed(noise_seed(machine.seed, seed)),
                    })
                    .collect(),
            )
        }
        Workload::Whatif8000 => Inputs::Sweep(whatif_spec(seed, tr, parent)?),
        Workload::AnalyticGrid => Inputs::Sweep(grid_spec(ctx, seed, tr, parent)?),
        Workload::Sharded8000 => Inputs::Sharded {
            spec: whatif_spec(seed, tr, parent)?,
            worker_bin: tr
                .span("shard.resolve_worker", parent, |_| resolve_worker(&ctx.worker_bin))?,
        },
    })
}

/// The reference a run checks every pass against, plus the figures
/// derived from it once.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Expected output of every cold and resumed run.
    pub output: Output,
    /// Largest |measured − predicted| / measured over the check cells, %.
    pub prediction_err_pct: f64,
    /// Wall time spent computing the reference.
    pub wall: Duration,
}

/// The serial naive sweep every sweep pass must match bit for bit.
fn serial(spec: &SweepSpec) -> Result<Vec<ScenarioResult>, String> {
    spec.validate()?;
    Ok(SweepEngine::with_workers(1).run(spec).results)
}

/// Largest |des − pace| / des over paired results, %.
fn max_err_pct(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    pairs.map(|(des, pace)| experiments::error_pct(des, pace).abs()).fold(0.0, f64::max)
}

/// Compute the reference outside any timed region. Sweeps: serial
/// `SweepEngine::run`. Tables: one untimed run, which later passes must
/// repeat bit for bit.
///
/// The prediction error compares the DES twin ("measured") with PACE
/// ("predicted"): every row for the tables; every what-if scenario
/// against a PACE run of the same spec; and, for the PACE-only grid,
/// every machine and template at rate 1.0 on the `(1,1)` and `(1,2)`
/// arrays, which every seed's grid contains.
pub fn reference(inputs: &Inputs) -> Result<Reference, String> {
    let t0 = Instant::now();
    let (output, prediction_err_pct) = match inputs {
        Inputs::Tables(tables) => {
            let out: Vec<ValidationTable> =
                tables.iter().map(|t| validation::run_table(t.label, t.rows, &t.machine)).collect();
            let err = out.iter().map(ValidationTable::max_abs_error).fold(0.0, f64::max);
            (Output::Tables(out), err)
        }
        Inputs::Sweep(spec) | Inputs::Sharded { spec, .. } => {
            let results = serial(spec)?;
            let err = if spec.backends == [Backend::DesSim] {
                let mut pace = spec.clone().backends(vec![Backend::Pace]);
                pace.des_fork = None;
                let pace = serial(&pace)?;
                max_err_pct(results.iter().zip(&pace).map(|(d, p)| (d.total_secs, p.total_secs)))
            } else {
                grid_check_err(spec, &results)?
            };
            (Output::Sweep(results), err)
        }
    };
    Ok(Reference { output, prediction_err_pct, wall: t0.elapsed() })
}

fn grid_check_err(spec: &SweepSpec, pace: &[ScenarioResult]) -> Result<f64, String> {
    let base = spec.rate_multipliers.iter().position(|&m| m == 1.0).ok_or("grid lacks rate 1.0")?;
    let cells: Vec<usize> = spec
        .problems
        .iter()
        .enumerate()
        .filter(|(_, p)| p.workload.pes() <= 2)
        .map(|(i, _)| i)
        .collect();
    let mut check = SweepSpec::new().backends(vec![Backend::DesSim]);
    for m in &spec.machines {
        check = check.machine(m.clone());
    }
    for &i in &cells {
        check = check
            .problem_arc(spec.problems[i].label.clone(), Arc::clone(&spec.problems[i].workload));
    }
    let des = serial(&check)?;
    let pairs = des.iter().map(|d| {
        let problem = cells[d.problem];
        let p = pace
            .iter()
            .find(|r| r.machine == d.machine && r.multiplier == base && r.problem == problem)
            .expect("every check cell is a grid cell");
        (d.total_secs, p.total_secs)
    });
    Ok(max_err_pct(pairs))
}

/// Wall times of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassTimes {
    /// The cold run.
    pub cold: Duration,
    /// The run over the cold run's state, when the pass made one.
    pub resume: Option<Duration>,
}

/// A fresh, empty directory under the run's scratch space.
fn fresh_dir(ctx: &Ctx, name: &str) -> Result<PathBuf, String> {
    let dir = ctx.scratch.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(dir)
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// A warm resume must serve every range from the store.
fn check_resume(stats: &ShardStats) -> Result<(), String> {
    if stats.completed != 0 || stats.store_hits != stats.ranges as u64 {
        return Err(format!(
            "warm resume recomputed ranges: {} completed, {} of {} served from the store",
            stats.completed, stats.store_hits, stats.ranges
        ));
    }
    Ok(())
}

/// One untraced pass through the entry points a user calls: the cold
/// run and, with `resume`, the run over its state.
pub fn pass(
    inputs: &Inputs,
    ctx: &Ctx,
    n: u32,
    resume: bool,
) -> Result<(PassTimes, Output, Option<Output>), String> {
    match inputs {
        Inputs::Tables(tables) => {
            let run = || {
                Output::Tables(
                    tables
                        .iter()
                        .map(|t| validation::run_table(t.label, t.rows, &t.machine))
                        .collect(),
                )
            };
            let t0 = Instant::now();
            let cold = run();
            let t1 = Instant::now();
            let again = resume.then(run);
            let times = PassTimes { cold: t1 - t0, resume: resume.then(|| t1.elapsed()) };
            Ok((times, cold, again))
        }
        Inputs::Sweep(spec) => {
            let t0 = Instant::now();
            let engine = SweepEngine::with_workers(WORKERS);
            let cold = Output::Sweep(engine.run_planned(spec).results);
            let t1 = Instant::now();
            let warm = resume.then(|| Output::Sweep(engine.run_planned(spec).results));
            let times = PassTimes { cold: t1 - t0, resume: resume.then(|| t1.elapsed()) };
            Ok((times, cold, warm))
        }
        Inputs::Sharded { spec, worker_bin } => {
            let store = fresh_dir(ctx, &format!("store-{n}"))?;
            let cfg = ShardConfig::new(WORKERS).store(&store).worker_bin(worker_bin);
            let t0 = Instant::now();
            let cold = shard::run_sharded(spec, &cfg);
            let t1 = Instant::now();
            let warm = match (&cold, resume) {
                (Ok(_), true) => Some(shard::run_sharded(spec, &cfg.clone().resume(true))),
                _ => None,
            };
            let times = PassTimes { cold: t1 - t0, resume: warm.as_ref().map(|_| t1.elapsed()) };
            remove_dir(&store);
            let cold = Output::Sweep(cold?.results);
            let warm = match warm {
                Some(w) => {
                    let w = w?;
                    check_resume(&w.stats)?;
                    Some(Output::Sweep(w.results))
                }
                None => None,
            };
            Ok((times, cold, warm))
        }
    }
}

/// FNV-1a over the fields `campaign_digest` in `tests/sweep_plan.rs`
/// mixes; for tables, over every row's measured and predicted bits.
pub fn digest(output: &Output) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match output {
        Output::Sweep(results) => {
            mix(results.len() as u64);
            for r in results {
                mix(r.id as u64);
                mix(r.pes as u64);
                mix(r.rate_multiplier.to_bits());
                mix(r.total_secs.to_bits());
                mix(r.report.iterations as u64);
                mix(r.report.subtasks.len() as u64);
                for s in &r.report.subtasks {
                    mix(s.secs_per_iteration.to_bits());
                }
            }
        }
        Output::Tables(tables) => {
            for t in tables {
                mix(t.calibrated_mflops.to_bits());
                mix(t.rows.len() as u64);
                for r in &t.rows {
                    mix(r.measured_secs.to_bits());
                    mix(r.predicted_secs.to_bits());
                }
            }
        }
    }
    h
}

/// Bit-for-bit comparison with the reference: field equality plus equal
/// digests (which also separate `0.0` from `-0.0`).
pub fn check(reference: &Output, got: &Output) -> Result<(), String> {
    if got != reference || digest(got) != digest(reference) {
        return Err(format!(
            "output differs from the reference (digest {:#018x}, expected {:#018x})",
            digest(got),
            digest(reference)
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

/// Record a pool run's worker counters.
fn pool_counters(tr: &Tracer, workers: &[WorkerStats], wall: Duration, configured: usize) {
    let busy: Vec<f64> = workers.iter().map(|w| w.busy.as_secs_f64()).collect();
    let total: f64 = busy.iter().sum();
    tr.shape("pool.workers", workers.len() as f64);
    tr.add("pool.busy_s", total);
    tr.add("pool.capacity_s", configured as f64 * wall.as_secs_f64());
    tr.add("pool.max_busy_s", busy.iter().copied().fold(0.0, f64::max));
    tr.add("pool.mean_busy_s", total / busy.len().max(1) as f64);
}

/// `SweepEngine::run_planned`, step by step from public functions.
fn traced_planned(
    spec: &SweepSpec,
    cache: &Arc<EvalCache>,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<ScenarioResult>, String> {
    let scenarios =
        tr.span("spec.expand", parent, |_| spec.validate().map(|()| spec.scenarios()))?;
    tr.shape("spec.scenarios", scenarios.len() as f64);
    let before = cache.stats();
    let engine = CachedEngine::with_cache(Arc::clone(cache));
    let plan = tr.span("plan.build", parent, |_| ExecPlan::build(spec, &scenarios));
    let ps = plan.stats();
    tr.shape("plan.jobs", ps.jobs as f64);
    tr.shape("plan.deduped", ps.deduped as f64);
    tr.shape("plan.groups", ps.groups as f64);
    tr.shape("plan.fork_resumes", ps.fork_resumes as f64);
    tr.shape("plan.fallbacks", ps.fallbacks as f64);

    enum Unit<'p> {
        Group(&'p sweepsvc::ForkGroup),
        Single(usize),
    }
    let units: Vec<Unit<'_>> = plan
        .groups
        .iter()
        .map(Unit::Group)
        .chain(plan.singles.iter().map(|&j| Unit::Single(j)))
        .collect();
    type UnitOut = Result<Vec<(usize, EvaluationReport)>, String>;
    let run = tr.span("pool.run", parent, |pool| {
        run_ordered_with_worker(units, WORKERS, |_, unit| -> UnitOut {
            match unit {
                Unit::Single(j) => {
                    let sc = &scenarios[plan.jobs[*j].proto];
                    let layer =
                        if sc.backend == Backend::DesSim { "des.run" } else { "analytic.eval" };
                    let report =
                        tr.span(layer, pool, |_| scenario_result(&engine, spec, sc).report);
                    if sc.backend == Backend::DesSim {
                        tr.add("des.runs", 1.0);
                    } else {
                        tr.add("analytic.evals", 1.0);
                    }
                    Ok(vec![(*j, report)])
                }
                Unit::Group(g) => {
                    let fork = plan.fork.ok_or("fork group without a fork point")?;
                    let gsc = &scenarios[plan.jobs[g.members[0]].proto];
                    let base = &spec.machines[g.machine];
                    let base_sim = base.sim_or_err()?;
                    let set =
                        tr.span("lower.program_set", pool, |_| gsc.workload.program_set(base_sim))?;
                    tr.add("lower.calls", 1.0);
                    tr.add("lower.streams", set.num_streams() as f64);
                    tr.add("lower.stored_ops", set.stored_ops() as f64);
                    let paused = tr
                        .span("des.prefix", pool, |_| {
                            Engine::from_set(base_sim, set).run_paused(fork)
                        })
                        .map_err(|e| format!("dessim fork prefix on '{}': {e}", base.id))?;
                    tr.add("des.prefix_events", paused.activations() as f64);
                    let mut out = Vec::with_capacity(g.members.len());
                    for &j in &g.members {
                        let sc = &scenarios[plan.jobs[j].proto];
                        let sim = sc.machine_spec.sim_or_err()?;
                        let fork = tr.span("des.snapshot", pool, |_| paused.snapshot());
                        let report =
                            tr.span("des.resume", pool, |_| fork.resume_with(sim)).map_err(
                                |e| format!("dessim fork resume on '{}': {e}", sc.machine_spec.id),
                            )?;
                        tr.add("des.runs", 1.0);
                        tr.add("des.events", report.total_messages() as f64);
                        let report = wavefront_models::dessim::report_from_makespan(
                            &*sc.workload,
                            &sim.name,
                            report.makespan(),
                        );
                        out.push((j, report));
                    }
                    Ok(out)
                }
            }
        })
    });
    pool_counters(tr, &run.workers, run.wall, WORKERS);
    let after = cache.stats();
    tr.add("cache.hits", (after.hits - before.hits) as f64);
    tr.add("cache.misses", (after.misses - before.misses) as f64);
    tr.add("cache.evictions", (after.evictions - before.evictions) as f64);

    tr.span("sweep.merge", parent, |_| {
        let mut job_reports: Vec<Option<EvaluationReport>> = vec![None; plan.jobs.len()];
        for unit in run.results {
            for (j, report) in unit? {
                job_reports[j] = Some(report);
            }
        }
        scenarios
            .iter()
            .map(|sc| {
                let report =
                    job_reports[plan.assignment[sc.id]].clone().ok_or("job not evaluated")?;
                Ok(ScenarioResult {
                    id: sc.id,
                    machine: sc.machine,
                    problem: sc.problem,
                    multiplier: sc.multiplier,
                    backend: sc.backend,
                    rate_multiplier: sc.rate_multiplier,
                    label: sc.label.clone(),
                    pes: sc.workload.pes(),
                    total_secs: report.total_secs,
                    report,
                })
            })
            .collect()
    })
}

/// `validation::run_table`, step by step from public functions.
fn traced_table(t: &TableInput, tr: &Tracer, parent: Option<SpanId>) -> ValidationTable {
    let reference = validation::row_config(&t.rows[0]);
    let flop_model = tr.span("kernel.calibrate", parent, |_| FlopModel::calibrate(&reference, 10));
    let hw =
        tr.span("hwbench.benchmark", parent, |_| hwbench::benchmark_machine(&t.machine, &[50], 1));
    let calibrated_mflops = hw.achieved_mflops(125_000);
    let engine = CachedEngine::new();
    let indexed: Vec<(usize, RowSpec)> = t.rows.iter().copied().enumerate().collect();
    let workers = sweepsvc::available_workers();
    let run = tr.span("pool.run", parent, |pool| {
        run_ordered(indexed, workers, |&(idx, spec)| {
            let measured = tr.span("des.run", pool, |_| {
                validation::measure_row(&spec, &t.machine, &flop_model, idx as u64 + 1)
            });
            let predicted = tr.span("analytic.eval", pool, |_| {
                validation::predict_row_cached(&spec, &hw, &engine)
            });
            ValidationRow {
                spec,
                measured_secs: measured,
                predicted_secs: predicted,
                error_pct: experiments::error_pct(measured, predicted),
            }
        })
    });
    tr.add("des.runs", t.rows.len() as f64);
    tr.add("analytic.evals", t.rows.len() as f64);
    pool_counters(tr, &run.workers, run.wall, workers);
    let stats = engine.cache().stats();
    tr.add("cache.hits", stats.hits as f64);
    tr.add("cache.misses", stats.misses as f64);
    tr.add("cache.evictions", stats.evictions as f64);
    ValidationTable {
        label: t.label.to_string(),
        machine: t.machine.name.clone(),
        calibrated_mflops,
        rows: run.results,
    }
}

/// One `run_sharded` call with the codec and store work it does inside
/// replayed beside it on the same data, so `shard.opaque_s` can subtract
/// them. Returns the outcome of the real call.
fn traced_sharded(
    spec: &SweepSpec,
    cfg: &ShardConfig,
    side: &ChunkStore,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<ScenarioResult>, String> {
    let (text, digest) = tr.span("shard.spec_encode", parent, |_| {
        Ok::<_, String>((shard::spec_to_json(spec)?, shard::spec_digest(spec)?))
    })?;
    tr.shape("shard.spec_bytes", text.len() as f64);
    let out = tr.span("shard.run_sharded", parent, |_| shard::run_sharded(spec, cfg))?;
    let s = &out.stats;
    tr.shape("shard.ranges", s.ranges as f64);
    tr.add("shard.completed", s.completed as f64);
    tr.add("shard.retried", s.retried as f64);
    tr.add("shard.store_hits", s.store_hits as f64);
    tr.add("shard.store_misses", s.store_misses as f64);
    let ranges = shard::partition(out.results.len(), cfg.workers * cfg.ranges_per_worker);
    if cfg.resume {
        check_resume(s)?;
        let store = ChunkStore::open(cfg.store.as_ref().ok_or("resume without a store")?)?;
        for &r in &ranges {
            tr.span("shard.store_load", parent, |_| store.load(digest, r))
                .ok_or("stored range failed to load")?;
        }
        return Ok(out.results);
    }
    for _ in 0..s.workers {
        tr.span("shard.spec_decode", parent, |_| shard::spec_from_json(&text))?;
    }
    for r in ranges.iter().filter(|r| !r.is_empty()) {
        let chunk = &out.results[r.start..r.end];
        let json = tr.span("shard.result_encode", parent, |_| shard::results_to_json(chunk));
        tr.add("shard.result_bytes", json.len() as f64);
        let decoded = tr.span("shard.result_decode", parent, |_| decode_results(&json))?;
        if decoded.len() != chunk.len() {
            return Err("result codec round trip lost scenarios".into());
        }
        tr.span("shard.store_save", parent, |_| side.save(digest, *r, chunk))?;
    }
    Ok(out.results)
}

/// Decode a results array the way the coordinator decodes a `done` frame.
fn decode_results(json: &str) -> Result<Vec<ScenarioResult>, String> {
    let doc = Json::parse(json)?;
    doc.as_arr().ok_or("results: expected an array")?.iter().map(shard::result_from_json).collect()
}

/// One traced pass: the same public calls as [`pass`], in the same
/// order, inside spans under a root span named [`ROOT`].
pub fn traced_pass(
    inputs: &Inputs,
    ctx: &Ctx,
    n: u32,
    tr: &Tracer,
) -> Result<(Output, Output), String> {
    match inputs {
        Inputs::Tables(tables) => tr.span(ROOT, None, |root| {
            let run = |phase: &'static str| {
                tr.span(phase, root, |p| tables.iter().map(|t| traced_table(t, tr, p)).collect())
            };
            let cold = run("campaign.cold");
            let again = run("campaign.resume");
            Ok((Output::Tables(cold), Output::Tables(again)))
        }),
        Inputs::Sweep(spec) => tr.span(ROOT, None, |root| {
            let cache = Arc::new(EvalCache::new());
            let cold = tr.span("campaign.cold", root, |p| traced_planned(spec, &cache, tr, p))?;
            let warm = tr.span("campaign.resume", root, |p| traced_planned(spec, &cache, tr, p))?;
            Ok((Output::Sweep(cold), Output::Sweep(warm)))
        }),
        Inputs::Sharded { spec, worker_bin } => {
            let store = fresh_dir(ctx, &format!("store-{n}"))?;
            let side_dir = fresh_dir(ctx, &format!("side-{n}"))?;
            let side = ChunkStore::open(&side_dir)?;
            let cfg = ShardConfig::new(WORKERS).store(&store).worker_bin(worker_bin);
            let out = tr.span(ROOT, None, |root| {
                let cold =
                    tr.span("campaign.cold", root, |p| traced_sharded(spec, &cfg, &side, tr, p))?;
                let warm = tr.span("campaign.resume", root, |p| {
                    traced_sharded(spec, &cfg.clone().resume(true), &side, tr, p)
                })?;
                Ok((Output::Sweep(cold), Output::Sweep(warm)))
            });
            remove_dir(&store);
            remove_dir(&side_dir);
            out
        }
    }
}
