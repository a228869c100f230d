//! `campaign-bench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload sample|checkpointed|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The exit code is non-zero when the output check fails.
//! See `README.md` beside this file.

mod campaigns;
mod grid;
mod layers;
mod metrics;
mod sys;

#[cfg(test)]
mod selftest;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pgss::driver::{Segment, SimDriver, Track};
use pgss::SimContext;
use pgss_cpu::{MachineConfig, Mode};
use pgss_obs::{MetricsFrame, MetricsRecorder, Recorder};

use campaigns::{check, check_rerun, digest, iterate, parse_artifact, Iteration, Workload};
use grid::{Grid, Kind};
use metrics::{LayerInputs, Metric, Truth};
use sys::ScratchDir;

/// Where runs keep their stores, relative to the working directory.
const RUNS_DIR: &str = ".bench_runs";

/// Stand-alone set-ups timed before the iterations, on top of each
/// iteration's own: at least this many, and more until
/// [`SETUP_BUDGET_S`] has passed, up to [`SETUP_MAX_REPS`].
const SETUP_REPS: usize = 5;
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 200;

/// The benchmark's command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed the grid is generated from.
    pub seed: u64,
    /// Seconds to keep iterating for.
    pub seconds: f64,
    /// Whether to print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// The sizes a run uses: the benchmark's, or the self-tests' tiny ones.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Suite of the `sample` grid.
    pub sample_suite: Vec<&'static str>,
    /// Techniques of the `sample` grid.
    pub sample_kinds: Vec<Kind>,
    /// Suite of the `checkpointed` and `serve` grids.
    pub checkpoint_suite: Vec<&'static str>,
    /// Techniques of the `checkpointed` and `serve` grids.
    pub checkpoint_kinds: Vec<Kind>,
    /// Workloads the layer probe times calls on.
    pub probe_suite: Vec<&'static str>,
    /// Fewest iterations a run makes, whatever `--seconds` says.
    pub min_iters: usize,
}

impl Profile {
    /// The benchmark's sizes.
    pub fn bench() -> Profile {
        Profile {
            sample_suite: pgss_workloads::SUITE_NAMES.to_vec(),
            sample_kinds: grid::SAMPLE_KINDS.to_vec(),
            checkpoint_suite: grid::CHECKPOINT_SUITE.to_vec(),
            checkpoint_kinds: grid::CHECKPOINT_KINDS.to_vec(),
            probe_suite: pgss_workloads::SUITE_NAMES.to_vec(),
            min_iters: 3,
        }
    }

    /// The grid `args` asks for.
    pub fn grid(&self, args: &Args) -> Grid {
        match args.workload {
            Workload::Sample => {
                Grid::generate(args.seed, &self.sample_suite, &self.sample_kinds, true)
            }
            Workload::Checkpointed | Workload::Serve => Grid::generate(
                args.seed,
                &self.checkpoint_suite,
                &self.checkpoint_kinds,
                false,
            ),
        }
    }
}

/// A finished run: what the last output line reports.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Cells attempted, over every pass of every iteration.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Vec<Metric>,
    /// Problems the output check found.
    pub problems: Vec<String>,
    /// Digest of the first pass's canonical artifact.
    pub digest: u64,
}

impl Outcome {
    /// The result line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            pgss_obs::json_string(&mut out, &metric.name);
            out.push_str(&format!(
                ":{{\"value\":{},\"unit\":\"{}\"}}",
                metric.value, metric.unit
            ));
        }
        out.push_str("}}");
        out
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args, &Profile::bench(), Path::new(RUNS_DIR));
    match outcome {
        Ok(out) => {
            for p in &out.problems {
                eprintln!("campaign-bench: output check failed: {p}");
            }
            println!("host {}", sys::host_tag());
            println!("digest {:016x}", out.digest);
            println!("{}", out.json());
            std::process::exit(if out.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the benchmark `args` describes at `profile`'s sizes, keeping all
/// scratch state in a per-process directory under `runs` that is removed
/// before returning.
pub fn run(args: &Args, profile: &Profile, runs: &Path) -> Result<Outcome, String> {
    let scratch = ScratchDir::new(runs, &format!("run-{}", std::process::id()))
        .map_err(|e| format!("scratch dir: {e}"))?;
    let grid = profile.grid(args);
    let truth_rec = Arc::new(MetricsRecorder::new());
    let truth = ground_truth(&grid, &truth_rec);
    if args.trace {
        traced(
            args,
            profile,
            &grid,
            &truth,
            &truth_rec.frame(),
            scratch.path(),
        )
    } else {
        untraced(args, profile, &grid, &truth, scratch.path())
    }
}

/// Full detailed simulation of every grid workload, computed before and
/// outside every timed interval, two workloads at a time. Each pass is
/// `FullDetailed`'s own schedule driven through `SimDriver`, so its
/// driver counters and spans reach `rec` through `SimContext`.
fn ground_truth(grid: &Grid, rec: &Arc<MetricsRecorder>) -> BTreeMap<String, Truth> {
    let workloads = grid.workloads();
    let next = AtomicUsize::new(0);
    let results = Mutex::new(BTreeMap::new());
    std::thread::scope(|s| {
        for _ in 0..campaigns::WORKERS {
            s.spawn(|| {
                let ctx = SimContext::with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
                while let Some(w) = workloads.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let truth = full_detailed(w, &ctx);
                    results
                        .lock()
                        .expect("no truth pass panics while holding the lock")
                        .insert(w.name().to_string(), truth);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("no truth pass panics while holding the lock")
}

/// Detailed simulation of the whole program in the same bounded chunks
/// `FullDetailed` uses.
fn full_detailed(w: &pgss_workloads::Workload, ctx: &SimContext) -> Truth {
    let mut driver = SimDriver::new(w, &MachineConfig::default(), Track::None);
    ctx.bind(&mut driver);
    let (mut ops, mut cycles) = (0u64, 0u64);
    loop {
        let out = driver.execute(Segment::new(Mode::DetailedMeasured, 1 << 24));
        ops += out.ops;
        cycles += out.cycles;
        if out.halted || out.ops == 0 {
            break;
        }
    }
    Truth {
        ipc: ops as f64 / cycles as f64,
        ops,
    }
}

/// Iterations until `--seconds` have passed (and at least the profile's
/// minimum), each output-checked; a failing iteration ends the loop.
fn untraced(
    args: &Args,
    profile: &Profile,
    grid: &Grid,
    truth: &BTreeMap<String, Truth>,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let budget = Instant::now();
    while setups.len() < SETUP_REPS
        || (budget.elapsed().as_secs_f64() < SETUP_BUDGET_S && setups.len() < SETUP_MAX_REPS)
    {
        setups.push(campaigns::setup_s(args.workload, grid, scratch)?);
    }
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let mut problems = Vec::new();
    while iters.len() < profile.min_iters || start.elapsed().as_secs_f64() < args.seconds {
        let it = iterate(args.workload, grid, scratch)?;
        eprintln!(
            "iteration {}: setup {:.6} s, wall {:.3} s, cpu {:.3} s, first result {:.3} s, rerun {:.3} s",
            iters.len() + 1,
            it.setup_s,
            it.wall_s,
            it.cpu_s,
            it.first_result_s,
            it.rerun_wall_s
        );
        problems.extend(check(grid, &it));
        if let Some(first) = iters.first() {
            if let Err(e) = check_rerun(&first.canonical, &it.canonical) {
                problems.push(format!("iteration {}: {e}", iters.len() + 1));
            }
        }
        iters.push(it);
        if !problems.is_empty() {
            break;
        }
    }
    let art = parse_artifact(&iters[0].canonical)?;
    let (attempted, failed) = tally(grid, &iters)?;
    setups.extend(iters.iter().map(|i| i.setup_s));
    let metrics = metrics::end_to_end(&iters, &art, truth, sys::median(&setups), attempted, failed);
    Ok(finish(metrics, problems, attempted, failed, &iters[0]))
}

/// One untraced iteration, one traced iteration and the layer probe.
fn traced(
    args: &Args,
    profile: &Profile,
    grid: &Grid,
    truth: &BTreeMap<String, Truth>,
    truth_frame: &MetricsFrame,
    scratch: &Path,
) -> Result<Outcome, String> {
    let untraced = iterate(args.workload, grid, scratch)?;
    let traced = iterate(args.workload, grid, scratch)?;
    let mut problems = check(grid, &untraced);
    problems.extend(check(grid, &traced));
    if digest(&traced.canonical) != digest(&untraced.canonical) {
        problems.push("the traced run's digest differs from the untraced run's".to_string());
    }
    let costs = layers::probe(&profile.probe_suite, &profile.checkpoint_suite, scratch)?;
    let serve_probe = match args.workload {
        Workload::Serve => None,
        _ => {
            let tiny = Grid::generate(
                args.seed,
                &profile.checkpoint_suite[..1],
                &[Kind::Smarts],
                false,
            );
            let it = iterate(Workload::Serve, &tiny, scratch)?;
            problems.extend(check(&tiny, &it));
            Some(it)
        }
    };
    let build: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(grid.workloads());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let art = parse_artifact(&traced.canonical)?;
    let metrics = metrics::per_layer(&LayerInputs {
        grid,
        untraced: &untraced,
        traced: &traced,
        art: &art,
        costs: &costs,
        truth,
        truth_frame,
        serve_probe: serve_probe.as_ref(),
        build_s: sys::median(&build),
    });
    let iters = [untraced, traced];
    let (attempted, failed) = tally(grid, &iters)?;
    Ok(finish(metrics, problems, attempted, failed, &iters[0]))
}

/// Cells attempted and failed over both passes of every iteration.
fn tally(grid: &Grid, iters: &[Iteration]) -> Result<(u64, u64), String> {
    let mut failed = 0;
    for it in iters {
        for text in [&it.canonical, &it.rerun_canonical] {
            let a = parse_artifact(text)?;
            failed += (grid.cells() - a.cells.len().min(grid.cells())) as u64;
        }
    }
    Ok((2 * grid.cells() as u64 * iters.len() as u64, failed))
}

/// The outcome of a run: a metric that is not a finite number fails the
/// output check and is printed as 0, so the result line stays JSON.
fn finish(
    mut metrics: Vec<Metric>,
    mut problems: Vec<String>,
    attempted: u64,
    failed: u64,
    first: &Iteration,
) -> Outcome {
    for metric in &mut metrics {
        if !metric.value.is_finite() {
            problems.push(format!("metric {} is not finite", metric.name));
            metric.value = 0.0;
        }
    }
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        digest: digest(&first.canonical),
    }
}
