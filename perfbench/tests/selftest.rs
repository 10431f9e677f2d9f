//! The benchmark's own checks: metric names and `BENCHMARK.json` agree,
//! every workload emits every metric it declares, layer budgets sum to
//! the pass, the default seed reproduces the pinned digest, and one smoke
//! pass per workload shows the layer split the workload was chosen for.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

use obs::json::Json;
use perfbench::trace;
use perfbench::workloads::{self, Ctx, Workload, DEFAULT_SEED};
use perfbench::{run, Config, RunOutcome, END_TO_END, PER_LAYER};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package sits in the repo").to_path_buf()
}

fn ctx(name: &str) -> Ctx {
    let root = root();
    let scratch = root.join(".bench_out").join(format!("test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    Ctx { root, worker_bin: PathBuf::from(env!("CARGO_BIN_EXE_sweep-worker")), scratch }
}

/// One smoke run: enough untraced passes for one resume sample, or a
/// single traced pass when `trace`.
fn smoke(w: Workload, trace: bool) -> RunOutcome {
    let ctx = ctx(&format!("{}-{trace}", w.name()));
    let cfg = Config {
        workload: w,
        seed: DEFAULT_SEED,
        seconds: 0.001,
        trace,
        min_passes: if trace { 1 } else { perfbench::RESUME_EVERY as usize },
        deadline: Duration::from_secs(600),
    };
    let out = run(&cfg, &ctx).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    assert!(out.correct, "{}: {:?}", w.name(), out.first_error);
    assert_eq!(out.failed, 0);
    out
}

fn names(list: &[(&'static str, &'static str)]) -> BTreeSet<&'static str> {
    list.iter().map(|(n, _)| *n).collect()
}

fn emitted(out: &RunOutcome) -> BTreeSet<&'static str> {
    out.metrics.keys().copied().collect()
}

#[test]
fn metric_names_are_well_formed_unique_and_match_benchmark_json() {
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n).collect();
    for n in &all {
        assert!(valid(n), "bad metric name {n}");
    }
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "duplicate metric name");

    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn seeds_draw_valid_reproducible_inputs() {
    assert_eq!(workloads::grid_ladder(DEFAULT_SEED).len(), 60);
    assert_eq!(workloads::grid_ladder(DEFAULT_SEED)[..2], [(1, 1), (1, 2)]);
    for seed in [1, 2, 7, 12345, u64::MAX] {
        let m = workloads::grid_multipliers(seed);
        let ladder = workloads::grid_ladder(seed);
        assert_eq!(m.len(), 10);
        assert!(m.contains(&1.0), "seed {seed}: the baseline rate is always drawn");
        assert!(m.windows(2).all(|w| w[0] < w[1]), "seed {seed}: distinct multipliers");
        assert_eq!(ladder.len(), 60);
        assert_eq!(ladder[..2], [(1, 1), (1, 2)], "seed {seed}: the check cells are always drawn");
        assert_eq!(m, workloads::grid_multipliers(seed));
        assert_eq!(ladder, workloads::grid_ladder(seed));
        assert!(workloads::noise_seed(0x5EE9_3D04, seed) < 1 << 53);
    }
    assert_eq!(workloads::noise_seed(0x5EE9_3D04, DEFAULT_SEED), 0x5EE9_3D04);
    assert_ne!(workloads::grid_ladder(1), workloads::grid_ladder(2));
}

#[test]
fn default_seed_reproduces_the_pinned_campaign_digest() {
    let ctx = ctx("digest");
    let off = trace::Tracer::disabled();
    for w in [Workload::Whatif8000, Workload::Sharded8000] {
        let inputs = workloads::setup(w, &ctx, DEFAULT_SEED, &off, None).unwrap();
        let reference = workloads::reference(&inputs).unwrap();
        assert_eq!(workloads::digest(&reference.output), workloads::WHATIF_PIN, "{}", w.name());
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);
}

#[test]
fn sharded_pass_matches_in_process_and_resume_recomputes_nothing() {
    let ctx = ctx("sharded-pass");
    let off = trace::Tracer::disabled();
    let inputs = workloads::setup(Workload::Sharded8000, &ctx, 3, &off, None).unwrap();
    let reference = workloads::reference(&inputs).unwrap();
    let (times, cold, warm) = workloads::pass(&inputs, &ctx, 1, true).unwrap();
    workloads::check(&reference.output, &cold).unwrap();
    workloads::check(&reference.output, &warm.expect("resume requested")).unwrap();
    assert!(times.resume.expect("timed") < times.cold, "a warm store serves every range");
    let _ = std::fs::remove_dir_all(&ctx.scratch);
}

#[test]
fn untraced_smoke_emits_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = smoke(w, false);
        assert_eq!(emitted(&out), names(&END_TO_END), "{}", w.name());
        for (name, (value, _)) in &out.metrics {
            assert!(*value > 0.0, "{}: {name} must never be 0", w.name());
        }
        let line = out.result_json();
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    }
}

/// Largest by-crate-layer row of a budget, ignoring the `campaign`
/// wrappers and the unattributed share.
fn largest_layer(b: &trace::Budget) -> String {
    b.by_layer()
        .rows
        .into_iter()
        .find(|r| r.layer != "campaign" && r.layer != trace::UNATTRIBUTED)
        .map(|r| r.layer)
        .unwrap_or_default()
}

#[test]
fn traced_smoke_emits_every_layer_metric_with_budgets_that_sum() {
    for w in Workload::ALL {
        let out = smoke(w, true);
        let name = w.name();
        assert_eq!(emitted(&out), names(&PER_LAYER), "{name}");
        let m = |k: &str| out.metrics[k].0;
        let b = out.budget.as_ref().expect("traced runs carry a budget");
        assert!(b.wall_ns > 0);
        assert_eq!(b.rows.iter().map(|r| r.wall_ns).sum::<u64>(), b.wall_ns, "{name}");
        assert_eq!(b.by_layer().rows.iter().map(|r| r.wall_ns).sum::<u64>(), b.wall_ns, "{name}");
        assert!(b.rows.iter().any(|r| r.layer == trace::UNATTRIBUTED), "{name}");
        assert!(!out.spans.is_empty());
        match w {
            Workload::AnalyticGrid => {
                assert_eq!(m("des.runs"), 0.0);
                assert_eq!(largest_layer(b), "plan");
                assert_eq!(m("plan.jobs"), 9000.0);
                assert_eq!(m("plan.deduped"), 1800.0);
                assert!(m("registry.resolve_s") > 0.0);
            }
            Workload::Whatif8000 => {
                assert_eq!(largest_layer(b), "des");
                assert!(m("plan.build_s") < 0.01 * m("trace.pass_s"));
                assert_eq!(m("plan.groups"), 1.0);
                assert_eq!(m("plan.fork_resumes"), 3.0);
                assert!(m("des.prefix_events") > 0.0 && m("lower.calls") > 0.0);
            }
            Workload::Tables => {
                assert_eq!(largest_layer(b), "des");
                assert!(m("kernel.calibrate_s") > 0.0 && m("hwbench.benchmark_s") > 0.0);
                assert_eq!(m("des.runs"), 2.0 * 49.0, "49 rows, cold and again");
            }
            Workload::Sharded8000 => {
                for k in [
                    "shard.spec_encode_s",
                    "shard.spec_decode_s",
                    "shard.result_encode_s",
                    "shard.result_decode_s",
                    "shard.store_save_s",
                    "shard.store_load_s",
                    "shard.opaque_s",
                ] {
                    assert!(m(k) > 0.0, "{k}");
                }
                assert_eq!(m("shard.store_hits"), m("shard.ranges"), "resume served every range");
            }
        }
    }
}
