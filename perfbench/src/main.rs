//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload from the root of a checkout and prints, as the last
//! line of standard output, `{"correct", "attempted", "failed",
//! "metrics"}`. The line before it carries the run's context. Output
//! files (context, layer budget, spans) go to `.bench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::workloads::{Ctx, Workload, DEFAULT_SEED};
use perfbench::{run, Config, MIN_PASSES, MIN_TRACED};

/// No pass starts after this long, so the run ends well within three
/// minutes.
const DEADLINE: Duration = Duration::from_secs(150);

fn parse_args() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        min_passes: if trace { MIN_TRACED } else { MIN_PASSES },
        deadline: DEADLINE,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: current dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = root.join(".bench_out");
    let worker_bin = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|d| d.join("sweep-worker")))
        .unwrap_or_else(|| PathBuf::from("sweep-worker"));
    let ctx = Ctx { root, worker_bin, scratch: out.join(format!("tmp-{}", std::process::id())) };
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("perfbench: create {}: {e}", ctx.scratch.display());
        return ExitCode::FAILURE;
    }
    let result = run(&cfg, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stem = out.join(format!(
        "{}-seed{}{}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "-traced" } else { "" }
    ));
    let context = outcome.context_json(false);
    let mut files =
        vec![(stem.with_extension("context.json"), format!("{}\n", outcome.context_json(true)))];
    if let Some(budget) = &outcome.budget {
        let title =
            format!("{} layer budget (seed {}, median traced pass)", cfg.workload.name(), cfg.seed);
        let setup = perfbench::trace::budget(&outcome.setup_spans);
        let text = format!(
            "{}\n{}\n{}",
            budget.by_layer().render(&format!("{title}, by crate layer")),
            budget.render(&format!("{title}, by span")),
            setup.render("set-up (one traced repetition)")
        );
        eprintln!("{text}");
        files.push((stem.with_extension("budget.md"), text));
        files.push((
            stem.with_extension("spans.json"),
            perfbench::trace::chrome_trace(&outcome.spans),
        ));
    }
    for (path, text) in files {
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("perfbench: write {}: {e}", path.display());
        }
    }
    println!("{{\"context\": {context}}}");
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}
