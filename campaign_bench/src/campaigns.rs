//! One iteration of each workload: set up, run the generated grid twice
//! through the program's public campaign entry points (the second pass
//! against whatever state the first left behind), and keep what the
//! metrics and the output check need.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pgss::{campaign, CampaignConfig, CampaignReport, Technique};
use pgss_cpu::MachineConfig;
use pgss_serve::{json, Client, Listen, ServeConfig, Server, TechSpec};

use crate::grid::Grid;
use crate::sys::{dir_bytes, Interval, ScratchDir};

/// Campaign workers in every workload: one per core of the 2-core host the
/// baseline was measured on.
pub const WORKERS: usize = 2;

/// Interval of the open-loop pinger on the `serve` workload.
pub const PING_PERIOD: Duration = Duration::from_millis(20);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The suite × seven techniques through `campaign::run_with`.
    Sample,
    /// The checkpoint grid through `campaign::run_checkpointed_with`,
    /// cold store then warm store.
    Checkpointed,
    /// The checkpoint grid submitted to an in-process `pgss-serve`.
    Serve,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sample" => Some(Workload::Sample),
            "checkpointed" => Some(Workload::Checkpointed),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }
}

/// What one iteration produced.
#[derive(Debug)]
pub struct Iteration {
    /// Set-up seconds: workload generation, store open, server start and
    /// connecting.
    pub setup_s: f64,
    /// Wall seconds of the first pass.
    pub wall_s: f64,
    /// Process CPU seconds over the first pass.
    pub cpu_s: f64,
    /// Wall seconds from the first pass's start to its first result.
    pub first_result_s: f64,
    /// Wall seconds of the second pass.
    pub rerun_wall_s: f64,
    /// Bytes in the run's store after both passes (0 without a store).
    pub store_bytes: u64,
    /// Canonical campaign artifact of the first pass.
    pub canonical: String,
    /// Canonical campaign artifact of the second pass.
    pub rerun_canonical: String,
    /// The library's first-pass report (library workloads only).
    pub report: Option<CampaignReport>,
    /// The library's second-pass report (library workloads only).
    pub rerun_report: Option<CampaignReport>,
    /// Server-side timings and counters (`serve` only).
    pub serve: Option<ServeStats>,
}

/// Client-side view of one served campaign.
#[derive(Debug, Default, Clone)]
pub struct ServeStats {
    /// Milliseconds the `submit` round trip took.
    pub submit_ms: f64,
    /// Milliseconds the `report` round trip took.
    pub report_ms: f64,
    /// Ping latencies, each from when the ping was due, in ms.
    pub ping_ms: Vec<f64>,
    /// How late the pinger sent each ping, in ms.
    pub ping_late_ms: Vec<f64>,
    /// The `metrics` verb's scope line after both passes.
    pub metrics_line: String,
}

/// The grid's techniques, built from their specs.
pub fn techniques(grid: &Grid) -> Vec<Box<dyn Technique + Send + Sync>> {
    grid.techniques.iter().map(TechSpec::build).collect()
}

/// Runs one iteration of `workload` on `grid`, keeping stores and
/// sockets under `scratch` (removed before returning, whatever the
/// outcome).
pub fn iterate(workload: Workload, grid: &Grid, scratch: &Path) -> Result<Iteration, String> {
    match workload {
        Workload::Sample => library(grid, scratch, false),
        Workload::Checkpointed => library(grid, scratch, true),
        Workload::Serve => serve(grid, scratch),
    }
}

/// Seconds of one set-up of `workload`, torn down again untimed.
pub fn setup_s(workload: Workload, grid: &Grid, scratch: &Path) -> Result<f64, String> {
    let start = Instant::now();
    match workload {
        Workload::Sample | Workload::Checkpointed => {
            let lib = LibrarySetup::new(grid, scratch, workload == Workload::Checkpointed)?;
            let secs = start.elapsed().as_secs_f64();
            drop(lib);
            Ok(secs)
        }
        Workload::Serve => {
            let srv = ServeSetup::new(grid, scratch)?;
            let secs = start.elapsed().as_secs_f64();
            srv.server.stop();
            Ok(secs)
        }
    }
}

/// What a library campaign needs before its first call: the generated
/// workloads and techniques, and a fresh store when checkpointed.
struct LibrarySetup {
    workloads: Vec<pgss_workloads::Workload>,
    techs: Vec<Box<dyn Technique + Send + Sync>>,
    store: Option<(pgss_ckpt::Store, ScratchDir)>,
}

impl LibrarySetup {
    fn new(grid: &Grid, scratch: &Path, checkpointed: bool) -> Result<LibrarySetup, String> {
        let workloads = grid.workloads();
        let techs = techniques(grid);
        let store = if checkpointed {
            let dir = ScratchDir::new(scratch, "store").map_err(|e| format!("store dir: {e}"))?;
            let store =
                pgss_ckpt::Store::open(dir.path()).map_err(|e| format!("store open: {e}"))?;
            Some((store, dir))
        } else {
            None
        };
        Ok(LibrarySetup {
            workloads,
            techs,
            store,
        })
    }
}

/// What a served campaign needs before its submit: the generated
/// workloads (the benchmark's own copy), a fresh store, a started server
/// and two connections.
struct ServeSetup {
    dir: ScratchDir,
    server: Server,
    watcher: Client,
    pinger: Client,
}

impl ServeSetup {
    fn new(grid: &Grid, scratch: &Path) -> Result<ServeSetup, String> {
        std::hint::black_box(grid.workloads());
        let dir = ScratchDir::new(scratch, "serve").map_err(|e| format!("serve dir: {e}"))?;
        let cfg = ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        };
        let server = Server::start(
            dir.path().join("store"),
            Listen::Unix(dir.path().join("s.sock")),
            cfg,
        )
        .map_err(|e| format!("server start: {e}"))?;
        let addr = server.addr().clone();
        match Client::connect(&addr).and_then(|a| Ok((a, Client::connect(&addr)?))) {
            Ok((watcher, pinger)) => Ok(ServeSetup {
                dir,
                server,
                watcher,
                pinger,
            }),
            Err(e) => {
                server.stop();
                Err(format!("connect: {e}"))
            }
        }
    }
}

fn library(grid: &Grid, scratch: &Path, checkpointed: bool) -> Result<Iteration, String> {
    let config = CampaignConfig::with_workers(WORKERS);
    let setup = Instant::now();
    let lib = LibrarySetup::new(grid, scratch, checkpointed)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let refs: Vec<&(dyn Technique + Sync)> = lib
        .techs
        .iter()
        .map(|t| &**t as &(dyn Technique + Sync))
        .collect();
    let jobs = campaign::grid(&lib.workloads, &refs, MachineConfig::default());
    let store = lib.store.as_ref().map(|(store, _)| store);

    let pass = || -> Result<CampaignReport, String> {
        let report = if checkpointed {
            campaign::run_checkpointed_with(&jobs, grid.stride, store, &config)
        } else {
            campaign::run_with(&jobs, &config)
        };
        report.map_err(|e| e.to_string())
    };
    let interval = Interval::start();
    let report = pass()?;
    let (wall_s, cpu_s) = interval.stop();
    let rerun = Instant::now();
    let second = pass()?;
    let rerun_wall_s = rerun.elapsed().as_secs_f64();
    Ok(Iteration {
        setup_s,
        wall_s,
        cpu_s,
        // A library campaign is a closed batch: every result arrives when
        // the call returns.
        first_result_s: wall_s,
        rerun_wall_s,
        store_bytes: lib.store.as_ref().map_or(0, |(_, d)| dir_bytes(d.path())),
        canonical: report.canonical_jsonl(),
        rerun_canonical: second.canonical_jsonl(),
        report: Some(report),
        rerun_report: Some(second),
        serve: None,
    })
}

fn serve(grid: &Grid, scratch: &Path) -> Result<Iteration, String> {
    let spec = grid.spec_json();
    let setup = Instant::now();
    let ServeSetup {
        dir,
        server,
        watcher,
        mut pinger,
    } = ServeSetup::new(grid, scratch)?;
    let setup_s = setup.elapsed().as_secs_f64();
    let addr = server.addr().clone();

    let stop = AtomicBool::new(false);
    let mut stats = ServeStats::default();
    let passes = std::thread::scope(|s| {
        let stop = &stop;
        let pings = s.spawn(move || ping_open_loop(&mut pinger, stop));
        let result = (|| -> Result<_, String> {
            let interval = Interval::start();
            let cold = submit_and_watch(watcher, &spec)?;
            let (wall_s, cpu_s) = interval.stop();
            let rerun = Instant::now();
            let client = Client::connect(&addr).map_err(|e| e.to_string())?;
            let warm = submit_and_watch(client, &spec)?;
            Ok((cold, wall_s, cpu_s, warm, rerun.elapsed().as_secs_f64()))
        })();
        stop.store(true, Ordering::Relaxed);
        let (ping_ms, ping_late_ms) = pings.join().expect("the pinger does not panic");
        stats.ping_ms = ping_ms;
        stats.ping_late_ms = ping_late_ms;
        result
    });
    let finish = (|| -> Result<Iteration, String> {
        let (cold, wall_s, cpu_s, warm, rerun_wall_s) = passes?;
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let lines = client.report(&cold.job).map_err(|e| e.to_string())?;
        stats.report_ms = start.elapsed().as_secs_f64() * 1e3;
        stats.submit_ms = cold.submit_ms;
        let rerun_lines = client.report(&warm.job).map_err(|e| e.to_string())?;
        stats.metrics_line = client.metrics().map_err(|e| e.to_string())?;
        Ok(Iteration {
            setup_s,
            wall_s,
            cpu_s,
            first_result_s: cold.first_result_s,
            rerun_wall_s,
            store_bytes: 0,
            canonical: joined(&lines),
            rerun_canonical: joined(&rerun_lines),
            report: None,
            rerun_report: None,
            serve: Some(stats),
        })
    })();
    server.stop();
    let mut it = finish?;
    it.store_bytes = dir_bytes(&dir.path().join("store"));
    Ok(it)
}

/// One submitted job, watched to its end.
struct Watched {
    job: String,
    submit_ms: f64,
    first_result_s: f64,
}

/// Submits `spec` on `client` and watches the job to its end.
fn submit_and_watch(mut client: Client, spec: &str) -> Result<Watched, String> {
    let start = Instant::now();
    let job = client.submit("bench", spec).map_err(|e| e.to_string())?;
    let submit_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut first = None;
    let phase = client
        .watch(&job, |_| {
            first.get_or_insert_with(|| start.elapsed().as_secs_f64());
            true
        })
        .map_err(|e| e.to_string())?;
    if phase != "done" {
        return Err(format!("job {job} ended {phase:?}"));
    }
    let first_result_s = first.ok_or_else(|| format!("job {job} streamed no cell"))?;
    Ok(Watched {
        job,
        submit_ms,
        first_result_s,
    })
}

fn joined(lines: &[String]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Pings on a fixed schedule until `stop`: an open loop, so a stalled
/// server delays later pings too, and each latency is taken from when the
/// ping was due. Returns `(latencies, lateness)` in ms.
fn ping_open_loop(client: &mut Client, stop: &AtomicBool) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let mut latency = Vec::new();
    let mut late = Vec::new();
    for k in 1u32.. {
        let due = start + PING_PERIOD * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        late.push(due.elapsed().as_secs_f64() * 1e3);
        if client.ping().is_err() {
            break;
        }
        latency.push(due.elapsed().as_secs_f64() * 1e3);
    }
    (latency, late)
}

/// Counters of one parsed canonical artifact.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Artifact {
    /// One row per successful cell.
    pub cells: Vec<CellRow>,
    /// Failure lines.
    pub failures: usize,
    /// Retry attempts, from the header line.
    pub retries: u64,
    /// Per-cell scope counters, summed over cells.
    pub counters: std::collections::BTreeMap<String, u64>,
}

/// One successful cell of a canonical artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRow {
    /// Workload name.
    pub workload: String,
    /// Technique name.
    pub technique: String,
    /// Estimated IPC.
    pub ipc: f64,
    /// Logical ops by mode: fast-forward, functional, warm, detail.
    pub ops: [u64; 4],
    /// Detailed samples taken.
    pub samples: u64,
}

impl CellRow {
    /// Logical simulated ops, ladder-skipped ops included.
    pub fn logical_ops(&self) -> u64 {
        self.ops.iter().sum()
    }
}

/// Parses a canonical campaign artifact (library or server; the formats
/// are the same bytes).
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let mut out = Artifact::default();
    for line in text.lines() {
        let v = json::parse(line).map_err(|e| format!("artifact line: {e}"))?;
        let field = |v: &json::Value, k: &str| v.get(k).and_then(json::Value::as_u64);
        match v.get("kind").and_then(json::Value::as_str) {
            Some("cell") => {
                let ops = v.get("mode_ops").ok_or("cell without mode_ops")?;
                let op = |k: &str| field(ops, k).ok_or(format!("mode_ops.{k}"));
                out.cells.push(CellRow {
                    workload: str_field(&v, "workload")?,
                    technique: str_field(&v, "technique")?,
                    ipc: v
                        .get("ipc")
                        .and_then(json::Value::as_f64)
                        .unwrap_or(f64::NAN),
                    ops: [
                        op("fast_forward")?,
                        op("functional")?,
                        op("warm")?,
                        op("detail")?,
                    ],
                    samples: field(&v, "samples").ok_or("cell without samples")?,
                });
            }
            Some("failure") => out.failures += 1,
            Some("campaign") => out.retries = field(&v, "retries").unwrap_or(0),
            Some(_) => {}
            None => {
                // A metric scope line: fold its counters.
                if let Some(json::Value::Obj(counters)) = v.get("counters") {
                    for (k, c) in counters {
                        *out.counters.entry(k.clone()).or_default() += c.as_u64().unwrap_or(0);
                    }
                }
            }
        }
    }
    Ok(out)
}

fn str_field(v: &json::Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(json::Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("cell without {key}"))
}

/// The output check of one iteration: every cell of the grid completed
/// with a finite IPC in (0, issue width], and the second pass reproduced
/// the first byte for byte. Returns the problems found.
pub fn check(grid: &Grid, it: &Iteration) -> Vec<String> {
    let mut problems = Vec::new();
    match parse_artifact(&it.canonical) {
        Ok(a) => problems.extend(check_cells(grid, &a)),
        Err(e) => problems.push(e),
    }
    if let Err(e) = check_rerun(&it.canonical, &it.rerun_canonical) {
        problems.push(e);
    }
    problems
}

/// Every cell present and plausible.
pub fn check_cells(grid: &Grid, a: &Artifact) -> Vec<String> {
    let width = f64::from(MachineConfig::default().issue_width);
    let mut problems = Vec::new();
    if a.failures > 0 || a.cells.len() != grid.cells() {
        problems.push(format!(
            "{} of {} cells completed ({} failed)",
            a.cells.len(),
            grid.cells(),
            a.failures
        ));
    }
    for c in &a.cells {
        if !(c.ipc.is_finite() && c.ipc > 0.0 && c.ipc <= width) {
            problems.push(format!(
                "{} × {}: IPC {} outside (0, {width}]",
                c.workload, c.technique, c.ipc
            ));
        }
    }
    problems
}

/// The rerun's artifact must equal the first pass's byte for byte.
pub fn check_rerun(first: &str, rerun: &str) -> Result<(), String> {
    if first == rerun {
        Ok(())
    } else {
        let line = first
            .lines()
            .zip(rerun.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| first.lines().count().min(rerun.lines().count()));
        Err(format!(
            "rerun artifact differs from the first pass (first difference at line {})",
            line + 1
        ))
    }
}

/// FNV-1a digest of an artifact, printed so runs can be compared.
pub fn digest(text: &str) -> u64 {
    pgss_ckpt::fnv1a64(text.as_bytes())
}
