//! The seeded campaign grid: which workloads, in which order, under which
//! technique overrides. The seed is the benchmark's argument; the program
//! under test only ever receives the generated grid — as library jobs or
//! as a `pgss-serve` spec — never the seed.

use pgss_serve::TechSpec;
use pgss_stats::DetRng;
use pgss_workloads::Workload;

/// Workload scale of every grid. Below ~0.1 the generators floor their
/// repetition counts, so 0.05 gives the smallest programs the suite has
/// (2–12 M ops each).
pub const SCALE: f64 = 0.05;

/// Checkpoint-ladder stride of the checkpointed and served grids — the
/// value the Fig. 12/13 harnesses use.
pub const STRIDE: u64 = 1_000_000;

/// The `checkpointed` / `serve` suite: the two programs on which one
/// cold-plus-warm checkpointed pass of all eight techniques fits a few
/// seconds (TurboSMARTS takes ~70 ms per sample on a 32 MiB machine).
pub const CHECKPOINT_SUITE: [&str; 2] = ["197.parser", "300.twolf"];

/// SMARTS's sampling period, drawn by the seed: the Fig. 12 value and two
/// neighbours within ±25 %. SMARTS's cost and error move smoothly with it.
const SMARTS_PERIODS: [u64; 3] = [100_000, 80_000, 125_000];

/// Every other technique keeps its Fig. 12 value. On programs of 2–12 M
/// ops, one interval or period spans up to half a program, so a ±10 %
/// change moves SimPoint's and Online SimPoint's interval count (and with
/// it their detailed budget), and the error of PGSS, PGSS-MAV, TwoPhase
/// and RankedSet, by up to half; TurboSMARTS's cost, bound by its sample
/// count, moves by a third. Seeds would then stop being comparable runs of
/// one benchmark.
const PERIOD: u64 = 1_000_000;
const TURBO_PERIOD: u64 = 100_000;

/// The techniques of a grid, in the Fig. 12 column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Smarts,
    TurboSmarts,
    SimPoint,
    OnlineSimPoint,
    Pgss,
    TwoPhase,
    RankedSet,
    PgssMav,
}

/// The seven techniques of the `sample` grid.
pub const SAMPLE_KINDS: [Kind; 7] = [
    Kind::Smarts,
    Kind::SimPoint,
    Kind::OnlineSimPoint,
    Kind::Pgss,
    Kind::TwoPhase,
    Kind::RankedSet,
    Kind::PgssMav,
];

/// The eight techniques of the `checkpointed` and `serve` grids.
pub const CHECKPOINT_KINDS: [Kind; 8] = [
    Kind::Smarts,
    Kind::TurboSmarts,
    Kind::SimPoint,
    Kind::OnlineSimPoint,
    Kind::Pgss,
    Kind::TwoPhase,
    Kind::RankedSet,
    Kind::PgssMav,
];

/// A generated grid: suite × techniques at [`SCALE`], plus the ladder
/// stride for checkpointed runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Workload names in campaign order.
    pub suite: Vec<String>,
    /// Workload scale.
    pub scale: f64,
    /// Techniques with their overrides, in column order.
    pub techniques: Vec<TechSpec>,
    /// Checkpoint-ladder stride.
    pub stride: u64,
}

impl Grid {
    /// Draws a grid from `seed`: SMARTS's period comes from its choice set
    /// above, every other override is the Fig. 12 value, and with `shuffle`
    /// the suite order is a seeded permutation of `suite`.
    ///
    /// The two-program checkpoint suite keeps its order: there the order
    /// decides whether TurboSMARTS's longest cell starts first or last on
    /// the server, which moves `serve`'s wall time by a fifth — a coin flip
    /// per seed, not a property of the code.
    pub fn generate(seed: u64, suite: &[&str], kinds: &[Kind], shuffle: bool) -> Grid {
        let mut rng = DetRng::seed_from_u64(seed ^ 0x6361_6d70_6169_676e);
        let mut order: Vec<String> = suite.iter().map(|s| s.to_string()).collect();
        if shuffle {
            rng.shuffle(&mut order);
        }
        let techniques = kinds
            .iter()
            .map(|kind| match kind {
                Kind::Smarts => TechSpec::Smarts {
                    period_ops: Some(SMARTS_PERIODS[rng.range_usize(3)]),
                },
                Kind::TurboSmarts => TechSpec::TurboSmarts {
                    period_ops: Some(TURBO_PERIOD),
                },
                Kind::SimPoint => TechSpec::SimPoint {
                    interval_ops: Some(PERIOD),
                    k: Some(10),
                },
                Kind::OnlineSimPoint => TechSpec::OnlineSimPoint {
                    interval_ops: Some(PERIOD),
                },
                Kind::Pgss => TechSpec::Pgss {
                    ff_ops: Some(PERIOD),
                    spacing_ops: Some(PERIOD),
                },
                Kind::TwoPhase => TechSpec::TwoPhase {
                    ff_ops: Some(PERIOD),
                    budget: None,
                },
                Kind::RankedSet => TechSpec::RankedSet {
                    ff_ops: Some(PERIOD),
                    replicates: None,
                },
                Kind::PgssMav => TechSpec::PgssMav {
                    ff_ops: Some(PERIOD),
                    spacing_ops: Some(PERIOD),
                },
            })
            .collect();
        Grid {
            suite: order,
            scale: SCALE,
            techniques,
            stride: STRIDE,
        }
    }

    /// Generates the suite's workloads.
    pub fn workloads(&self) -> Vec<Workload> {
        self.suite
            .iter()
            .map(|name| {
                pgss_workloads::by_name(name, self.scale).expect("grid names come from the suite")
            })
            .collect()
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.suite.len() * self.techniques.len()
    }

    /// The grid as a `pgss-serve` submission (`CampaignSpec` JSON).
    pub fn spec_json(&self) -> String {
        let mut out = String::from("{\"suite\":[");
        for (i, name) in self.suite.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            pgss_obs::json_string(&mut out, name);
            out.push_str(&format!(",\"scale\":{}}}", self.scale));
        }
        out.push_str("],\"techniques\":[");
        for (i, t) in self.techniques.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&tech_json(t));
        }
        out.push_str(&format!("],\"stride\":{}}}", self.stride));
        out
    }
}

/// One technique as a spec object: its kind tag and every override set.
fn tech_json(t: &TechSpec) -> String {
    let (kind, fields): (&str, Vec<(&str, Option<u64>)>) = match *t {
        TechSpec::Smarts { period_ops } => ("smarts", vec![("period_ops", period_ops)]),
        TechSpec::TurboSmarts { period_ops } => ("turbo_smarts", vec![("period_ops", period_ops)]),
        TechSpec::SimPoint { interval_ops, k } => {
            ("simpoint", vec![("interval_ops", interval_ops), ("k", k)])
        }
        TechSpec::OnlineSimPoint { interval_ops } => {
            ("online_simpoint", vec![("interval_ops", interval_ops)])
        }
        TechSpec::Pgss {
            ff_ops,
            spacing_ops,
        } => (
            "pgss",
            vec![("ff_ops", ff_ops), ("spacing_ops", spacing_ops)],
        ),
        TechSpec::TwoPhase { ff_ops, budget } => {
            ("two_phase", vec![("ff_ops", ff_ops), ("budget", budget)])
        }
        TechSpec::RankedSet { ff_ops, replicates } => (
            "ranked_set",
            vec![("ff_ops", ff_ops), ("replicates", replicates)],
        ),
        TechSpec::PgssMav {
            ff_ops,
            spacing_ops,
        } => (
            "pgss_mav",
            vec![("ff_ops", ff_ops), ("spacing_ops", spacing_ops)],
        ),
        TechSpec::AdaptivePgss => ("adaptive_pgss", Vec::new()),
        TechSpec::Full => ("full", Vec::new()),
    };
    let mut out = format!("{{\"kind\":\"{kind}\"");
    for (name, value) in fields {
        if let Some(v) = value {
            out.push_str(&format!(",\"{name}\":{v}"));
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgss_serve::{json, CampaignSpec};

    #[test]
    fn same_seed_same_grid_and_seeds_differ() {
        let a = Grid::generate(1, &CHECKPOINT_SUITE, &CHECKPOINT_KINDS, false);
        assert_eq!(
            a,
            Grid::generate(1, &CHECKPOINT_SUITE, &CHECKPOINT_KINDS, false)
        );
        let suite = pgss_workloads::SUITE_NAMES;
        let distinct = (0..8u64)
            .map(|s| Grid::generate(s, &suite, &SAMPLE_KINDS, true).spec_json())
            .collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn spec_json_round_trips_through_the_server_parser() {
        for seed in 0..16 {
            let grid = Grid::generate(seed, &CHECKPOINT_SUITE, &CHECKPOINT_KINDS, false);
            let spec = CampaignSpec::from_json(&json::parse(&grid.spec_json()).expect("json"))
                .expect("valid spec");
            assert_eq!(spec.techniques, grid.techniques);
            assert_eq!(spec.stride, grid.stride);
            let names: Vec<&str> = spec.suite.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, grid.suite);
        }
    }
}
