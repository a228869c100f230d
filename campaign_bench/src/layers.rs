//! Per-layer costs, measured by timing the layers' public calls on every
//! workload of the paper suite: machine construction, snapshot and
//! restore, per-mode interpreter speed, BBV / MAV tracking, k-means, the
//! rung codec, store I/O and ladder capture.

use std::time::Instant;

use pgss::ckpt::{decode_machine_snapshot, encode_machine_snapshot, CheckpointLadder, LadderSpec};
use pgss_bbv::{BbvHash, HashedBbvTracker, MavTracker};
use pgss_cluster::KMeans;
use pgss_cpu::{Machine, MachineConfig, Mode, NoopSink, RetireSink};
use pgss_workloads::Workload;

use crate::grid::{SCALE, STRIDE};
use crate::sys::{median, ScratchDir};

/// Ops each standalone per-mode run executes (the shortest suite program
/// retires ~2 M ops, so three modes fit back to back).
const MODE_OPS: u64 = 500_000;
/// Ops of each tracker-overhead run.
const TRACKER_OPS: u64 = 1_000_000;
/// Interval of the k-means input vectors.
const KMEANS_INTERVAL: u64 = 100_000;
/// Timed repetitions of each per-call measurement.
const REPS: usize = 3;

/// Costs measured on one workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadCosts {
    /// Workload name.
    pub name: String,
    /// `Workload::machine` milliseconds.
    pub machine_new_ms: f64,
    /// `Machine::snapshot` milliseconds.
    pub snapshot_ms: f64,
    /// `Machine::restore` milliseconds.
    pub restore_ms: f64,
    /// `encode_machine_snapshot` milliseconds.
    pub encode_ms: f64,
    /// `decode_machine_snapshot` milliseconds.
    pub decode_ms: f64,
    /// `Store::put` milliseconds (write, fsync, rename).
    pub store_put_ms: f64,
    /// `Store::get` milliseconds.
    pub store_get_ms: f64,
    /// Encoded snapshot size in MB.
    pub rung_mb: f64,
    /// Seconds per op by mode: fast-forward, functional, detailed.
    pub s_per_op: [f64; 3],
    /// Functional seconds without a sink, with the hashed-BBV tracker,
    /// and with the MAV tracker, over [`TRACKER_OPS`].
    pub tracker_s: [f64; 3],
    /// `KMeans::run` milliseconds on the workload's interval matrix.
    pub kmeans_ms: f64,
}

impl WorkloadCosts {
    /// Decode plus restore over executing one ladder stride functionally.
    pub fn jump_cost_ratio(&self) -> f64 {
        (self.decode_ms + self.restore_ms) / 1e3 / (STRIDE as f64 * self.s_per_op[1])
    }
}

/// Costs of the whole probe.
#[derive(Debug, Clone, Default)]
pub struct Costs {
    /// One entry per suite workload, in suite order.
    pub workloads: Vec<WorkloadCosts>,
    /// Seconds of each `CheckpointLadder::capture` on the checkpoint suite.
    pub capture_s: Vec<f64>,
}

impl Costs {
    /// Median of `f` over the workloads named in `names` (all when empty).
    pub fn median_of(&self, names: &[String], f: impl Fn(&WorkloadCosts) -> f64) -> f64 {
        let v: Vec<f64> = self
            .workloads
            .iter()
            .filter(|w| names.is_empty() || names.contains(&w.name))
            .map(f)
            .collect();
        median(&v)
    }

    /// `f` on the named workload.
    pub fn of(&self, name: &str, f: impl Fn(&WorkloadCosts) -> f64) -> f64 {
        self.workloads
            .iter()
            .find(|w| w.name == name)
            .map_or(0.0, f)
    }

    /// Suite-wide Mops/s of mode `m` (0 fast-forward, 1 functional,
    /// 2 detailed): total ops over total time.
    pub fn mops_per_s(&self, m: usize) -> f64 {
        let s: f64 = self.workloads.iter().map(|w| w.s_per_op[m]).sum();
        self.workloads.len() as f64 / s / 1e6
    }

    /// Suite-wide overhead of tracker `t` (1 hashed BBV, 2 MAV) over a
    /// sink-less run, in percent.
    pub fn tracker_overhead_pct(&self, t: usize) -> f64 {
        let base: f64 = self.workloads.iter().map(|w| w.tracker_s[0]).sum();
        let with: f64 = self.workloads.iter().map(|w| w.tracker_s[t]).sum();
        (with / base - 1.0) * 100.0
    }
}

/// Measures every layer on `suite` (workload names at [`SCALE`]) and
/// ladder capture on `capture_suite`, with a probe store under `scratch`.
pub fn probe(
    suite: &[&str],
    capture_suite: &[&str],
    scratch: &std::path::Path,
) -> Result<Costs, String> {
    let dir = ScratchDir::new(scratch, "probe-store").map_err(|e| format!("probe dir: {e}"))?;
    let store = pgss_ckpt::Store::open(dir.path()).map_err(|e| format!("probe store: {e}"))?;
    let mut costs = Costs::default();
    for (i, name) in suite.iter().enumerate() {
        let w = pgss_workloads::by_name(name, SCALE).ok_or(format!("unknown workload {name}"))?;
        costs.workloads.push(probe_workload(&w, &store, i as u64)?);
    }
    let cfg = MachineConfig::default();
    for name in capture_suite {
        let w = pgss_workloads::by_name(name, SCALE).ok_or(format!("unknown workload {name}"))?;
        let start = Instant::now();
        let ladder = CheckpointLadder::capture(&w, &cfg, &LadderSpec::machine_only(STRIDE));
        costs.capture_s.push(start.elapsed().as_secs_f64());
        std::hint::black_box(ladder);
    }
    Ok(costs)
}

/// Median milliseconds of [`REPS`] calls of `f`.
fn time_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&v)
}

fn timed_run<S: RetireSink>(m: &mut Machine, mode: Mode, ops: u64, sink: &mut S) -> (u64, f64) {
    let start = Instant::now();
    let r = m.run_with(mode, ops, sink);
    (r.ops, start.elapsed().as_secs_f64())
}

fn probe_workload(
    w: &Workload,
    store: &pgss_ckpt::Store,
    index: u64,
) -> Result<WorkloadCosts, String> {
    let mut c = WorkloadCosts {
        name: w.name().to_string(),
        machine_new_ms: time_ms(|| w.machine()),
        ..WorkloadCosts::default()
    };

    // Standalone interpreter speed per mode, back to back on one machine.
    let mut m = w.machine();
    for (slot, mode) in [Mode::FastForward, Mode::Functional, Mode::DetailedMeasured]
        .into_iter()
        .enumerate()
    {
        let (ops, s) = timed_run(&mut m, mode, MODE_OPS, &mut NoopSink);
        if ops == 0 {
            return Err(format!("{}: {mode:?} run retired nothing", w.name()));
        }
        c.s_per_op[slot] = s / ops as f64;
    }

    // Snapshot, codec, restore and store on the warmed machine.
    let snap = m.snapshot();
    c.snapshot_ms = time_ms(|| m.snapshot());
    let bytes = encode_machine_snapshot(&snap);
    c.encode_ms = time_ms(|| encode_machine_snapshot(&snap));
    c.rung_mb = bytes.len() as f64 / 1e6;
    c.decode_ms = time_ms(|| decode_machine_snapshot(&bytes));
    c.restore_ms = time_ms(|| m.restore(&snap));
    let mut key = index << 8;
    let mut put_error = None;
    c.store_put_ms = time_ms(|| {
        key += 1;
        if let Err(e) = store.put(key, &bytes) {
            put_error = Some(e);
        }
    });
    if let Some(e) = put_error {
        return Err(format!("{}: probe store put: {e}", w.name()));
    }
    c.store_get_ms = time_ms(|| store.get(key));
    if store.get(key).as_deref() != Some(&bytes[..]) {
        return Err(format!("{}: probe store returned other bytes", w.name()));
    }

    // Tracker overhead: the same functional stretch from op 0 without a
    // sink, with the hashed BBV and with the MAV tracker, interleaved and
    // repeated so drift hits all three alike.
    let words = m.config().memory_words;
    let mut runs: [Vec<f64>; 3] = Default::default();
    for _ in 0..REPS {
        let mut hashed = HashedBbvTracker::new(BbvHash::from_seed(1));
        let mut mav = MavTracker::new(words);
        runs[0].push(
            timed_run(
                &mut w.machine(),
                Mode::Functional,
                TRACKER_OPS,
                &mut NoopSink,
            )
            .1,
        );
        runs[1].push(timed_run(&mut w.machine(), Mode::Functional, TRACKER_OPS, &mut hashed).1);
        runs[2].push(timed_run(&mut w.machine(), Mode::Functional, TRACKER_OPS, &mut mav).1);
    }
    c.tracker_s = runs.map(|r| median(&r));

    // k-means on the whole program's interval matrix, as SimPoint runs it.
    let mut m = w.machine();
    let mut tracker = HashedBbvTracker::new(BbvHash::from_seed(1));
    let mut data = Vec::new();
    loop {
        let r = m.run_with(Mode::Functional, KMEANS_INTERVAL, &mut tracker);
        if r.ops == KMEANS_INTERVAL {
            data.push(tracker.take().normalized().to_vec());
        }
        if r.halted || r.ops < KMEANS_INTERVAL {
            break;
        }
    }
    if data.is_empty() {
        return Err(format!("{}: no k-means intervals", w.name()));
    }
    c.kmeans_ms = time_ms(|| KMeans::new(10).run(&data));
    Ok(c)
}
