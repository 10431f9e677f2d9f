//! # perfbench — the repository's campaign benchmark
//!
//! Times the four campaign paths users run — Tables 1–3, the 8000-PE DES
//! rate what-if, a PACE procurement grid and a sharded campaign — end to
//! end with tracing off, and splits a separate traced pass into per-crate
//! layers. See `README.md` beside this package for the workloads, the
//! metrics and the layer → end-to-end → workload table.

pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use trace::{Budget, Span, Tracer};
use workloads::{Ctx, Inputs, Output, Workload};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("campaign_s", "s"),
    ("campaign_s_tail", "s"),
    ("resume_s", "s"),
    ("peak_rss_mb", "MB"),
    ("prediction_err_pct", "%"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("registry.resolve_s", "s"),
    ("spec.expand_s", "s"),
    ("spec.scenarios", "count"),
    ("plan.build_s", "s"),
    ("plan.jobs", "count"),
    ("plan.deduped", "count"),
    ("plan.groups", "count"),
    ("plan.fork_resumes", "count"),
    ("plan.fallbacks", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_rate", "frac"),
    ("analytic.evals", "count"),
    ("analytic.busy_s", "s"),
    ("lower.calls", "count"),
    ("lower.busy_s", "s"),
    ("lower.streams", "count"),
    ("lower.stored_ops", "count"),
    ("des.runs", "count"),
    ("des.events", "count"),
    ("des.busy_s", "s"),
    ("des.events_per_busy_s", "1/s"),
    ("des.prefix_events", "count"),
    ("des.prefix_busy_s", "s"),
    ("kernel.calibrate_s", "s"),
    ("hwbench.benchmark_s", "s"),
    ("pool.workers", "count"),
    ("pool.busy_s", "s"),
    ("pool.utilisation", "frac"),
    ("pool.imbalance", "ratio"),
    ("sweep.merge_s", "s"),
    ("shard.spec_encode_s", "s"),
    ("shard.spec_decode_s", "s"),
    ("shard.spec_bytes", "bytes"),
    ("shard.result_encode_s", "s"),
    ("shard.result_decode_s", "s"),
    ("shard.result_bytes", "bytes"),
    ("shard.store_save_s", "s"),
    ("shard.store_load_s", "s"),
    ("shard.ranges", "count"),
    ("shard.completed", "count"),
    ("shard.retried", "count"),
    ("shard.store_hits", "count"),
    ("shard.store_misses", "count"),
    ("shard.opaque_s", "s"),
    ("trace.pass_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("failed_frac", "frac"),
];

/// Passes an untraced run makes at least, so ten samples lie beyond the
/// tail percentile.
pub const MIN_PASSES: usize = 40;

/// Percentile `campaign_s_tail` reports. It is fixed, rather than the
/// highest percentile the pass count allows, so its level does not move
/// with the number of passes a run happens to fit in.
pub const TAIL_PERCENTILE: usize = 75;

/// Untraced runs resume every this many passes (every pass in traced
/// runs): the tables' second run repeats the whole campaign, so resuming
/// every pass would halve the samples `campaign_s` gets.
pub const RESUME_EVERY: u32 = 4;

/// Traced runs make at least this many traced passes.
pub const MIN_TRACED: usize = 3;

/// Set-up is timed in this many batches before the first pass, and in
/// one more batch before every pass, so its samples span the whole run
/// as the pass samples do; `setup_s` is the median batch mean.
pub const SETUP_MIN_REPS: usize = 25;

/// Shortest set-up batch worth timing: batches double until one takes
/// this long, so the clock's own cost does not swamp set-ups of a
/// microsecond.
pub const SETUP_BATCH: Duration = Duration::from_micros(200);

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which campaign.
    pub workload: Workload,
    /// Input seed ([`workloads::DEFAULT_SEED`] reproduces the fixtures).
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fewest passes: untraced passes in an untraced run ([`MIN_PASSES`]),
    /// traced passes in a traced one ([`MIN_TRACED`]).
    pub min_passes: usize,
    /// No new pass starts after this much time since the run began.
    pub deadline: Duration,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every pass matched the reference.
    pub correct: bool,
    /// Passes attempted (timed loop only).
    pub attempted: u64,
    /// Passes that failed their check, returned an error or panicked.
    pub failed: u64,
    /// Reported metrics: name → (value, unit).
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    /// Host and run context, as JSON members.
    pub context: Vec<(&'static str, String)>,
    /// Layer budget of the median traced pass (traced runs).
    pub budget: Option<Budget>,
    /// Spans of that pass (traced runs).
    pub spans: Vec<Span>,
    /// Spans of one traced set-up.
    pub setup_spans: Vec<Span>,
    /// First failure seen, if any.
    pub first_error: Option<String>,
    /// Every pass's cold and resume wall times, s.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl RunOutcome {
    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let mut m = String::new();
        for (n, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if n == 0 { "" } else { ", " },
                json_num(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// The context as one JSON object, with the per-pass samples when
    /// `samples` is set.
    pub fn context_json(&self, samples: bool) -> String {
        let mut members: Vec<String> =
            self.context.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        if samples {
            for (name, xs) in &self.samples {
                let xs: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
                members.push(format!("\"{name}\": [{}]", xs.join(", ")));
            }
        }
        format!("{{{}}}", members.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", obs::json::escape(s))
}

/// Median of a sample (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linearly interpolated quantile `q` of a sample (0 for none).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile [`TAIL_PERCENTILE`] of a sample and the
/// number of samples beyond it ([`MIN_PASSES`] makes that at least ten
/// in a full run); `(0, 0)` for no samples.
pub fn tail(xs: &[f64]) -> (f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (TAIL_PERCENTILE * n).div_ceil(100).max(1);
    v.get(rank - 1).map_or((0.0, 0), |&x| (x, n - rank))
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Restart the peak-RSS window at the current RSS (best effort).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The checkout's commit, read from `.git` when there is one.
fn commit(root: &std::path::Path) -> String {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join(".git/packed-refs")).ok()?;
                packed.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].to_string())
            })
            .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Per-layer metrics of one traced pass. Times sum span durations over
/// the pass (cold run + resume); shape counters describe one campaign
/// run; work counters sum over the pass.
pub fn layer_metrics(
    spans: &[Span],
    counters: &BTreeMap<&'static str, f64>,
    setup_spans: &[Span],
    budget: &Budget,
) -> BTreeMap<&'static str, f64> {
    let busy =
        |names: &[&str]| -> f64 { names.iter().map(|n| secs(trace::busy_ns(spans, n))).sum() };
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = BTreeMap::new();
    m.insert("registry.resolve_s", secs(trace::busy_ns(setup_spans, "registry.resolve")));
    m.insert("spec.expand_s", busy(&["spec.expand"]));
    m.insert("plan.build_s", busy(&["plan.build"]));
    m.insert("analytic.busy_s", busy(&["analytic.eval"]));
    m.insert("lower.busy_s", busy(&["lower.program_set"]));
    let des_busy = busy(&["des.run", "des.prefix", "des.snapshot", "des.resume"]);
    m.insert("des.busy_s", des_busy);
    m.insert("des.events_per_busy_s", ratio(c("des.events"), des_busy));
    m.insert("des.prefix_busy_s", busy(&["des.prefix"]));
    m.insert("kernel.calibrate_s", busy(&["kernel.calibrate"]));
    m.insert("hwbench.benchmark_s", busy(&["hwbench.benchmark"]));
    m.insert("sweep.merge_s", busy(&["sweep.merge"]));
    m.insert("pool.utilisation", ratio(c("pool.busy_s"), c("pool.capacity_s")));
    m.insert("pool.imbalance", ratio(c("pool.max_busy_s"), c("pool.mean_busy_s")));
    let hits = c("cache.hits");
    m.insert("cache.hit_rate", ratio(hits, hits + c("cache.misses")));
    let codec = [
        "shard.spec_encode",
        "shard.spec_decode",
        "shard.result_encode",
        "shard.result_decode",
        "shard.store_save",
        "shard.store_load",
    ];
    for (name, span) in [
        ("shard.spec_encode_s", codec[0]),
        ("shard.spec_decode_s", codec[1]),
        ("shard.result_encode_s", codec[2]),
        ("shard.result_decode_s", codec[3]),
        ("shard.store_save_s", codec[4]),
        ("shard.store_load_s", codec[5]),
    ] {
        m.insert(name, busy(&[span]));
    }
    m.insert("shard.opaque_s", (busy(&["shard.run_sharded"]) - busy(&codec)).max(0.0));
    m.insert("trace.pass_s", secs(budget.wall_ns));
    m.insert("trace.unattributed_frac", budget.unattributed_frac());
    for name in [
        "spec.scenarios",
        "plan.jobs",
        "plan.deduped",
        "plan.groups",
        "plan.fork_resumes",
        "plan.fallbacks",
        "cache.hits",
        "cache.misses",
        "cache.evictions",
        "analytic.evals",
        "lower.calls",
        "lower.streams",
        "lower.stored_ops",
        "des.runs",
        "des.events",
        "des.prefix_events",
        "pool.workers",
        "pool.busy_s",
        "shard.spec_bytes",
        "shard.result_bytes",
        "shard.ranges",
        "shard.completed",
        "shard.retried",
        "shard.store_hits",
        "shard.store_misses",
    ] {
        m.insert(name, c(name));
    }
    m
}

/// Run `f` and turn a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("pass panicked: {msg}"))
    })
}

fn checked_resume(reference: &Output, resume: &Output) -> Result<(), String> {
    workloads::check(reference, resume).map_err(|e| format!("resumed run: {e}"))
}

/// Execute one run of the benchmark.
pub fn run(cfg: &Config, ctx: &Ctx) -> Result<RunOutcome, String> {
    let started = Instant::now();
    let off = Tracer::disabled();

    // Set-up: batches before the first pass; the last inputs are used.
    let mut setup_times = Vec::new();
    let mut setup_reps = 0usize;
    let mut batch = 1usize;
    let mut setup_batch = |times: &mut Vec<f64>| -> Result<Inputs, String> {
        let t0 = Instant::now();
        let mut last = None;
        for _ in 0..batch {
            last = Some(workloads::setup(cfg.workload, ctx, cfg.seed, &off, None)?);
        }
        let dt = t0.elapsed();
        times.push(dt.as_secs_f64() / batch as f64);
        setup_reps += batch;
        if dt < SETUP_BATCH {
            batch *= 2;
        }
        Ok(last.expect("a batch holds at least one set-up"))
    };
    let mut inputs = setup_batch(&mut setup_times)?;
    while setup_times.len() < SETUP_MIN_REPS {
        inputs = setup_batch(&mut setup_times)?;
    }

    let reference = workloads::reference(&inputs)?;
    // Warm-up: first spawn, page faults, allocator growth.
    let warmup = guarded(|| workloads::pass(&inputs, ctx, 0, false).map(|_| ()));
    if let Err(e) = &warmup {
        eprintln!("warm-up pass failed: {e}");
    }

    reset_peak_rss();
    let loop_start = Instant::now();
    let mut cold = Vec::new();
    let mut resume = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced: Vec<(f64, Vec<Span>, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut setup_spans = Vec::new();
    let mut attempted = 0u64;
    let mut errors: Vec<String> = Vec::new();
    let mut n = 0u32;
    let mut traced_attempts = 0usize;
    while (loop_start.elapsed().as_secs_f64() < cfg.seconds
        || if cfg.trace { traced_attempts < cfg.min_passes } else { (n as usize) < cfg.min_passes })
        && started.elapsed() < cfg.deadline
    {
        // One untimed set-up first: the pass before left the caches cold,
        // and the first set-up of a process pays that only once.
        workloads::setup(cfg.workload, ctx, cfg.seed, &off, None)?;
        setup_batch(&mut setup_times)?;
        n += 1;
        attempted += 1;
        let with_resume = cfg.trace || n.is_multiple_of(RESUME_EVERY);
        let r = guarded(|| {
            let (t, c, w) = workloads::pass(&inputs, ctx, n, with_resume)?;
            workloads::check(&reference.output, &c)?;
            match &w {
                Some(w) => checked_resume(&reference.output, w).map(|()| t),
                None => Ok(t),
            }
        });
        match r {
            Ok(t) => {
                cold.push(t.cold.as_secs_f64());
                if let Some(r) = t.resume {
                    resume.push(r.as_secs_f64());
                    untraced_walls.push((t.cold + r).as_secs_f64());
                }
            }
            Err(e) => errors.push(e),
        }
        if !cfg.trace {
            continue;
        }
        n += 1;
        attempted += 1;
        traced_attempts += 1;
        let tr = Tracer::new(started, n);
        let setup_tr = Tracer::new(started, n);
        let r = guarded(|| {
            setup_tr.span(trace::ROOT, None, |root| {
                workloads::setup(cfg.workload, ctx, cfg.seed, &setup_tr, root)
            })?;
            let t0 = Instant::now();
            let (c, w) = workloads::traced_pass(&inputs, ctx, n, &tr)?;
            let wall = t0.elapsed();
            workloads::check(&reference.output, &c)?;
            checked_resume(&reference.output, &w)?;
            Ok(wall)
        });
        match r {
            Ok(wall) => {
                let (spans, counters) = tr.finish();
                setup_spans = setup_tr.finish().0;
                traced.push((wall.as_secs_f64(), spans, counters));
            }
            Err(e) => errors.push(format!("traced pass: {e}")),
        }
    }
    for e in &errors {
        eprintln!("pass failed: {e}");
    }
    let failed = errors.len() as u64;
    let rss = peak_rss_mb();

    let mut metrics: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let tail = tail(&cold);
    let mut budget = None;
    let mut spans = Vec::new();
    if cfg.trace {
        // Per-layer values: the median over traced passes. The budget
        // table and span file come from the pass with the median wall.
        let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let mut budgets = Vec::new();
        for (_, s, c) in &traced {
            let b = trace::budget(s);
            per_pass.push(layer_metrics(s, c, &setup_spans, &b));
            budgets.push(b);
        }
        let walls: Vec<f64> = traced.iter().map(|t| t.0).collect();
        let traced_median = median(&walls);
        let untraced_median = median(&untraced_walls);
        for (name, unit) in PER_LAYER {
            let values: Vec<f64> = per_pass.iter().filter_map(|m| m.get(name).copied()).collect();
            metrics.insert(name, (median(&values), unit));
        }
        metrics.insert(
            "trace.overhead_frac",
            (
                if untraced_median > 0.0 { traced_median / untraced_median - 1.0 } else { 0.0 },
                "frac",
            ),
        );
        metrics.insert("failed_frac", (failed_frac, "frac"));
        if let Some(i) = (0..traced.len()).min_by(|&a, &b| {
            (walls[a] - traced_median).abs().total_cmp(&(walls[b] - traced_median).abs())
        }) {
            spans = std::mem::take(&mut traced[i].1);
            budget = Some(budgets.swap_remove(i));
        }
    } else {
        metrics.insert("setup_s", (median(&setup_times), "s"));
        metrics.insert("campaign_s", (median(&cold), "s"));
        metrics.insert("campaign_s_tail", (tail.0, "s"));
        metrics.insert("resume_s", (median(&resume), "s"));
        metrics.insert("peak_rss_mb", (rss, "MB"));
        metrics.insert("prediction_err_pct", (reference.prediction_err_pct, "%"));
    }

    let digest = workloads::digest(&reference.output);
    let pin = match cfg.workload {
        Workload::Whatif8000 | Workload::Sharded8000 if cfg.seed == workloads::DEFAULT_SEED => {
            json_str(&format!("{:#018x}", workloads::WHATIF_PIN))
        }
        _ => "null".to_string(),
    };
    let context = vec![
        ("workload", json_str(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", json_num(cfg.seconds)),
        ("traced", cfg.trace.to_string()),
        ("host_cores", sweepsvc::available_workers().to_string()),
        ("workers", workloads::WORKERS.to_string()),
        ("passes", cold.len().to_string()),
        ("traced_passes", traced.len().to_string()),
        ("setup_reps", setup_reps.to_string()),
        ("setup_batches", setup_times.len().to_string()),
        ("campaign_s_samples", cold.len().to_string()),
        ("campaign_s_p10", json_num(quantile(&cold, 0.10))),
        ("resume_s_samples", resume.len().to_string()),
        ("campaign_s_tail_percentile", TAIL_PERCENTILE.to_string()),
        ("campaign_s_tail_beyond", tail.1.to_string()),
        ("reference_s", json_num(reference.wall.as_secs_f64())),
        ("digest", json_str(&format!("{digest:#018x}"))),
        ("digest_pin", pin),
        ("commit", json_str(&commit(&ctx.root))),
        ("run_s", json_num(started.elapsed().as_secs_f64())),
    ];
    Ok(RunOutcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        context,
        budget,
        spans,
        setup_spans,
        first_error: errors.into_iter().next(),
        samples: vec![("campaign_s_passes", cold), ("resume_s_passes", resume)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_of_a_small_sample() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(median(&xs), 20.5);
        assert_eq!(tail(&xs), (30.0, 10), "p75 of 40 passes leaves ten beyond");
        assert_eq!(tail(&[]), (0.0, 0));
        assert_eq!(quantile(&xs, 0.25), 10.75);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
