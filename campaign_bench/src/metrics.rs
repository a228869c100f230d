//! From iterations, probes and the program's own counters to the named
//! metrics the benchmark prints.

use std::collections::BTreeMap;

use pgss_obs::MetricsFrame;
use pgss_serve::json;

use crate::campaigns::{Artifact, Iteration, WORKERS};
use crate::grid::Grid;
use crate::layers::{Costs, WorkloadCosts};
use crate::sys::{median, peak_rss_mb, supported_tail};

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Ground truth of one workload: full detailed simulation's IPC and the
/// program's length.
#[derive(Debug, Clone, Copy)]
pub struct Truth {
    /// IPC under `FullDetailed`.
    pub ipc: f64,
    /// Retired ops of the whole program.
    pub ops: u64,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    iters: &[Iteration],
    art: &Artifact,
    truth: &BTreeMap<String, Truth>,
    setup_s: f64,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let med = |f: fn(&Iteration) -> f64| median(&iters.iter().map(f).collect::<Vec<_>>());
    let wall_s = med(|i| i.wall_s);
    let logical: u64 = art.cells.iter().map(|c| c.logical_ops()).sum();
    let detail: u64 = art.cells.iter().map(|c| c.ops[2] + c.ops[3]).sum();
    let errors: Vec<f64> = art
        .cells
        .iter()
        .filter_map(|c| {
            truth
                .get(&c.workload)
                .map(|t| (c.ipc - t.ipc).abs() / t.ipc)
        })
        .collect();
    let ipc_err = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    vec![
        m("wall_s", "s", wall_s),
        m("cpu_s", "s", med(|i| i.cpu_s)),
        m("sim_mops_per_s", "Mops/s", logical as f64 / wall_s / 1e6),
        m("rerun_wall_s", "s", med(|i| i.rerun_wall_s)),
        m("first_result_s", "s", med(|i| i.first_result_s)),
        m("peak_rss_mb", "MB", peak_rss_mb()),
        m("setup_s", "s", setup_s),
        m("ipc_err_pct", "%", ipc_err * 100.0),
        m(
            "detail_share_pct",
            "%",
            detail as f64 / logical.max(1) as f64 * 100.0,
        ),
        m(
            "cells_ok_frac",
            "ratio",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        ),
    ]
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// The generated grid.
    pub grid: &'a Grid,
    /// The untraced iteration run just before the traced one.
    pub untraced: &'a Iteration,
    /// The traced iteration.
    pub traced: &'a Iteration,
    /// The traced iteration's first-pass artifact.
    pub art: &'a Artifact,
    /// Per-call costs from the layer probe.
    pub costs: &'a Costs,
    /// Ground truth per workload.
    pub truth: &'a BTreeMap<String, Truth>,
    /// The frame a benchmark-side recorder collected from the ground-truth
    /// passes through `SimContext`.
    pub truth_frame: &'a MetricsFrame,
    /// A small served campaign, for the server's per-call costs on
    /// workloads that do not go through the server.
    pub serve_probe: Option<&'a Iteration>,
    /// Median seconds of generating the grid's workloads.
    pub build_s: f64,
}

const WALL_KEYS: [&str; 4] = [
    "driver.wall.fast_forward",
    "driver.wall.functional",
    "driver.wall.warm",
    "driver.wall.detail",
];

fn span_s(frame: &MetricsFrame, key: &str) -> f64 {
    frame.span(key).map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

fn rate(ops: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        ops as f64 / secs / 1e6
    } else {
        0.0
    }
}

/// Counters of a `metrics`-verb scope line.
fn line_counters(line: &str) -> BTreeMap<String, u64> {
    match json::parse(line)
        .ok()
        .and_then(|v| v.get("counters").cloned())
    {
        Some(json::Value::Obj(c)) => c
            .into_iter()
            .map(|(k, v)| (k, v.as_u64().unwrap_or(0)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// The per-layer metrics of a traced run, including the wall-time charge
/// of the traced first pass to layers and its unattributed residual.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let names = &x.grid.suite;
    let costs = x.costs;
    let all: &[String] = &[];
    let per_call = |f: &dyn Fn(&WorkloadCosts) -> f64| costs.median_of(names, f);
    let c = |k: &str| x.art.counters.get(k).copied().unwrap_or(0);
    let jumped = c("driver.ops.jumped");
    let mode_ops = [
        c("driver.ops.fast_forward"),
        c("driver.ops.functional").saturating_sub(jumped),
        c("driver.ops.warm") + c("driver.ops.detail"),
    ];

    // Cell frames carry span wall times only in the library's report; the
    // server exports span counts only, so its interpreter time is charged
    // from op counts at the probe's standalone per-mode speed.
    let cells = x.traced.report.as_ref().map(|r| {
        let mut folded = MetricsFrame::new();
        for (_, frame) in r.metrics.scopes.iter().skip(1) {
            folded.merge(frame);
        }
        folded
    });
    let s_per_op = |i: usize| per_call(&move |w| w.s_per_op[i]);
    let (mode_rates, interp_s, cell_run_s) = match &cells {
        Some(f) => {
            let wall = WALL_KEYS.map(|k| span_s(f, k));
            (
                [
                    rate(mode_ops[0], wall[0]),
                    rate(mode_ops[1], wall[1]),
                    rate(mode_ops[2], wall[2] + wall[3]),
                ],
                wall.iter().sum::<f64>(),
                Some(span_s(f, "cell.run")),
            )
        }
        None => (
            [0, 1, 2].map(|i| {
                if mode_ops[i] > 0 {
                    1.0 / s_per_op(i) / 1e6
                } else {
                    0.0
                }
            }),
            (0..3).map(|i| mode_ops[i] as f64 * s_per_op(i)).sum(),
            None,
        ),
    };

    // The charge model of the traced first pass, in worker-seconds.
    let ms = 1e-3;
    let jump_s = c("driver.jumps") as f64 * per_call(&|w| w.decode_ms + w.restore_ms) * ms;
    let turbo_samples: u64 = x
        .art
        .cells
        .iter()
        .filter(|cell| cell.technique.starts_with("TurboSMARTS"))
        .map(|cell| cell.samples)
        .sum();
    let turbo_s =
        turbo_samples as f64 * per_call(&|w| w.snapshot_ms + w.machine_new_ms + w.restore_ms) * ms;
    // A store means the first pass captured a ladder per program.
    let (capture_ops, rungs) = if x.traced.store_bytes > 0 {
        x.truth.values().fold((0u64, 0u64), |(o, r), t| {
            (o + t.ops, r + t.ops / x.grid.stride)
        })
    } else {
        (0, 0)
    };
    let ladder_s = (capture_ops as f64 * s_per_op(1)
        + rungs as f64 * per_call(&|w| w.snapshot_ms + w.encode_ms + w.store_put_ms) * ms)
        * WORKERS as f64;
    let worker_s = WORKERS as f64 * x.traced.wall_s;
    let busy_s = cell_run_s.unwrap_or(interp_s + jump_s + turbo_s);
    let idle_s = cell_run_s.map_or(0.0, |run| (worker_s - run - ladder_s).max(0.0));
    let residual_s = worker_s - interp_s - jump_s - turbo_s - ladder_s - idle_s;

    // Store counters over both passes: the server's own frame on `serve`,
    // the campaign scopes of the library's reports otherwise.
    let store = match &x.traced.serve {
        Some(own) => line_counters(&own.metrics_line),
        None => {
            let mut sum = BTreeMap::new();
            let reports = [&x.traced.report, &x.traced.rerun_report];
            for scope in reports
                .into_iter()
                .flatten()
                .filter_map(|r| r.metrics.scope("campaign"))
            {
                for (k, v) in &scope.counters {
                    *sum.entry(k.clone()).or_insert(0) += v;
                }
            }
            sum
        }
    };
    let sc = |k: &str| store.get(k).copied().unwrap_or(0) as f64;
    // Server cell counts exist only where the workload has a server; its
    // per-call times come from the probe server elsewhere.
    let own_serve = |k: &str| if x.traced.serve.is_some() { sc(k) } else { 0.0 };
    let served = x
        .traced
        .serve
        .as_ref()
        .or(x.serve_probe.and_then(|p| p.serve.as_ref()));
    let (submit_ms, report_ms, pings, late) = match served {
        Some(s) => (
            s.submit_ms,
            s.report_ms,
            s.ping_ms.as_slice(),
            s.ping_late_ms.as_slice(),
        ),
        None => (0.0, 0.0, &[][..], &[][..]),
    };
    let total_ops: u64 = mode_ops.iter().sum::<u64>() + jumped;
    let fp = |name: &str, f: fn(&WorkloadCosts) -> f64| costs.of(name, f);

    vec![
        m("cpu.ff_mops_per_s", "Mops/s", mode_rates[0]),
        m("cpu.functional_mops_per_s", "Mops/s", mode_rates[1]),
        m("cpu.detail_mops_per_s", "Mops/s", mode_rates[2]),
        m("cpu.busy_s", "s", interp_s),
        m("cpu.run_ff_mops_per_s", "Mops/s", costs.mops_per_s(0)),
        m(
            "cpu.run_functional_mops_per_s",
            "Mops/s",
            costs.mops_per_s(1),
        ),
        m("cpu.run_detail_mops_per_s", "Mops/s", costs.mops_per_s(2)),
        m(
            "cpu.full_detail_mops_per_s",
            "Mops/s",
            rate(
                x.truth_frame.counter("driver.ops.detail"),
                span_s(x.truth_frame, "driver.wall.detail"),
            ),
        ),
        m(
            "cpu.machine_new_ms",
            "ms",
            costs.median_of(all, |w| w.machine_new_ms),
        ),
        m(
            "cpu.machine_new_ms.mesa",
            "ms",
            fp("177.mesa", |w| w.machine_new_ms),
        ),
        m(
            "cpu.machine_new_ms.mcf",
            "ms",
            fp("181.mcf", |w| w.machine_new_ms),
        ),
        m(
            "cpu.snapshot_ms",
            "ms",
            costs.median_of(all, |w| w.snapshot_ms),
        ),
        m(
            "cpu.snapshot_ms.mesa",
            "ms",
            fp("177.mesa", |w| w.snapshot_ms),
        ),
        m(
            "cpu.snapshot_ms.mcf",
            "ms",
            fp("181.mcf", |w| w.snapshot_ms),
        ),
        m(
            "cpu.restore_ms",
            "ms",
            costs.median_of(all, |w| w.restore_ms),
        ),
        m(
            "cpu.restore_ms.mesa",
            "ms",
            fp("177.mesa", |w| w.restore_ms),
        ),
        m("cpu.restore_ms.mcf", "ms", fp("181.mcf", |w| w.restore_ms)),
        m(
            "bbv.hashed_overhead_pct",
            "%",
            costs.tracker_overhead_pct(1),
        ),
        m("bbv.mav_overhead_pct", "%", costs.tracker_overhead_pct(2)),
        m(
            "cluster.kmeans_ms",
            "ms",
            costs.median_of(all, |w| w.kmeans_ms),
        ),
        m(
            "ckpt.encode_ms",
            "ms",
            costs.median_of(all, |w| w.encode_ms),
        ),
        m(
            "ckpt.decode_ms",
            "ms",
            costs.median_of(all, |w| w.decode_ms),
        ),
        m(
            "ckpt.store_put_ms",
            "ms",
            costs.median_of(all, |w| w.store_put_ms),
        ),
        m(
            "ckpt.store_get_ms",
            "ms",
            costs.median_of(all, |w| w.store_get_ms),
        ),
        m("ckpt.rung_mb", "MB", costs.median_of(all, |w| w.rung_mb)),
        m("ckpt.rung_mb.mesa", "MB", fp("177.mesa", |w| w.rung_mb)),
        m("ckpt.rung_mb.mcf", "MB", fp("181.mcf", |w| w.rung_mb)),
        m("ckpt.store_mb", "MB", x.traced.store_bytes as f64 / 1e6),
        m("ckpt.store_hits", "count", sc("ckpt.store.hit")),
        m("ckpt.store_misses", "count", sc("ckpt.store.miss")),
        m("ckpt.store_puts", "count", sc("ckpt.store.put")),
        m("ladder.capture_s", "s", median(&costs.capture_s)),
        m(
            "ladder.jump_cost_ratio",
            "ratio",
            per_call(&|w| w.jump_cost_ratio()),
        ),
        m("ladder.jumps", "count", c("driver.jumps") as f64),
        m(
            "ladder.skipped_share",
            "ratio",
            jumped as f64 / total_ops.max(1) as f64,
        ),
        m("turbo.samples", "count", turbo_samples as f64),
        m("campaign.worker_util", "ratio", busy_s / worker_s),
        m("campaign.retries", "count", x.art.retries as f64),
        m("campaign.residual_pct", "%", residual_s / worker_s * 100.0),
        m("charge.interp_s", "s", interp_s),
        m("charge.jump_s", "s", jump_s),
        m("charge.turbo_s", "s", turbo_s),
        m("charge.ladder_s", "s", ladder_s),
        m("charge.idle_s", "s", idle_s),
        m("workloads.build_s", "s", x.build_s),
        m("serve.submit_ms", "ms", submit_ms),
        m("serve.report_ms", "ms", report_ms),
        m("serve.ping_ms_p50", "ms", median(pings)),
        m("serve.ping_ms_tail", "ms", supported_tail(pings)),
        m("serve.ping_count", "count", pings.len() as f64),
        m("serve.ping_late_ms", "ms", supported_tail(late)),
        m(
            "serve.cells_executed",
            "count",
            own_serve("serve.cells.executed"),
        ),
        m(
            "serve.cells_retried",
            "count",
            own_serve("serve.cells.retried"),
        ),
        m(
            "serve.lease_reaped",
            "count",
            own_serve("serve.lease.reaped"),
        ),
        m(
            "trace.overhead_pct",
            "%",
            (x.traced.wall_s / x.untraced.wall_s - 1.0) * 100.0,
        ),
    ]
}
