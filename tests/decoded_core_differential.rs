//! Differential validation of the decoded superblock core.
//!
//! `pgss_cpu::Machine` executes a pre-decoded IR through a superblock
//! dispatch loop with inlined retire/BBV fast paths;
//! `pgss_cpu::ReferenceMachine` is the retained per-op interpreter it
//! replaced, kept verbatim as the semantic oracle. These tests drive both
//! cores over seeded *random* `pgss-workloads` programs — not
//! hand-written kernels — and require bit-identical results in every
//! observable dimension: run results (ops, cycles, halted), retired-pc
//! streams, architectural snapshots (registers, float registers by bit
//! pattern, memory, mode counters), microarchitectural snapshots (cache
//! tag arrays, predictor tables), hashed- and full-BBV digests, and
//! structured faults.
//!
//! Any divergence — a reordered retire, a cycle of timing drift, one
//! cache way rotated differently by an MRU fast path — fails these tests.

use pgss_bbv::{BbvHash, FullBbvTracker, HashedBbvTracker};
use pgss_cpu::{MachineConfig, Mode, RetireSink, RunResult};
use pgss_stats::DetRng;
use pgss_workloads::{Kernel, Workload, WorkloadBuilder};

/// A retire sink that fingerprints the full architectural stream: every
/// retired pc (order-sensitive checksum) and every taken branch with its
/// op count.
#[derive(Default, PartialEq, Eq, Debug)]
struct StreamDigest {
    retired: u64,
    pc_checksum: u64,
    taken: u64,
    taken_checksum: u64,
}

impl RetireSink for StreamDigest {
    fn retire(&mut self, pc: u32) {
        self.retired += 1;
        self.pc_checksum = self
            .pc_checksum
            .wrapping_mul(0x100000001b3)
            .wrapping_add(u64::from(pc));
    }
    fn taken_branch(&mut self, pc: u32, ops: u64) {
        self.taken += 1;
        self.taken_checksum = self
            .taken_checksum
            .wrapping_mul(0x100000001b3)
            .wrapping_add(u64::from(pc) ^ ops.rotate_left(32));
    }
}

const ALL_MODES: [Mode; 4] = [
    Mode::FastForward,
    Mode::Functional,
    Mode::DetailedWarming,
    Mode::DetailedMeasured,
];

/// Generates a random workload: 2–4 segments with randomized kernel
/// parameters and a randomized multi-entry schedule. Working sets are
/// kept small enough that the test suite stays fast but large enough to
/// produce real cache misses against the small test config.
fn random_workload(seed: u64) -> Workload {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut b = WorkloadBuilder::new(format!("random-{seed}"), seed ^ 0x9e3779b97f4a7c15);
    let num_segments = 2 + rng.range_usize(3);
    let mut segments = Vec::new();
    for _ in 0..num_segments {
        let kernel = match rng.range_usize(6) {
            0 => Kernel::Stream {
                region_words: 1 << (8 + rng.range_usize(6)),
                stride_words: 1 + rng.range_usize(9),
                compute_per_load: rng.range_u64(6) as u32,
            },
            1 => Kernel::Chase {
                ring_words: 1 << (6 + rng.range_usize(8)),
                chains: 1 + rng.range_u64(4) as u32,
                compute_per_step: rng.range_u64(5) as u32,
            },
            2 => Kernel::ComputeInt {
                chains: 1 + rng.range_u64(6) as u32,
                ops_per_chain: 1 + rng.range_u64(6) as u32,
            },
            3 => Kernel::ComputeFp {
                chains: 1 + rng.range_u64(4) as u32,
                ops_per_chain: 1 + rng.range_u64(4) as u32,
            },
            4 => Kernel::Branchy {
                table_words: 1 << (6 + rng.range_usize(5)),
                bias: rng.range_u64(256) as u8,
                work_per_side: rng.range_u64(6) as u32,
            },
            _ => Kernel::StoreStream {
                region_words: 1 << (8 + rng.range_usize(5)),
                stride_words: 1 + rng.range_usize(5),
            },
        };
        segments.push(b.add_segment(kernel));
    }
    let entries = 2 + rng.range_usize(5);
    for _ in 0..entries {
        let seg = segments[rng.range_usize(segments.len())];
        b.run(seg, 5_000 + rng.range_u64(40_000));
    }
    b.finish()
}

/// A small machine configuration so random working sets actually miss.
fn test_config() -> MachineConfig {
    MachineConfig {
        memory_words: 1 << 14,
        ..MachineConfig::default()
    }
}

/// Runs both cores through the same `(mode, max_ops)` schedule, asserting
/// identical run results, stream digests, and snapshots at every step.
fn assert_lockstep(w: &Workload, schedule: &[(Mode, u64)]) {
    let mut decoded = w.machine_with(test_config());
    let mut reference = w.reference_machine_with(test_config());
    let mut d_sink = StreamDigest::default();
    let mut r_sink = StreamDigest::default();
    for (step, &(mode, max_ops)) in schedule.iter().enumerate() {
        let d: RunResult = decoded.run_with(mode, max_ops, &mut d_sink);
        let r: RunResult = reference.run_with(mode, max_ops, &mut r_sink);
        assert_eq!(
            d,
            r,
            "{}: run results diverged at step {step} ({mode}, {max_ops} ops)",
            w.name()
        );
        assert_eq!(
            d_sink,
            r_sink,
            "{}: retired streams diverged at step {step} ({mode})",
            w.name()
        );
        assert_eq!(
            decoded.snapshot(),
            reference.snapshot(),
            "{}: machine state diverged at step {step} ({mode})",
            w.name()
        );
        if d.halted {
            break;
        }
    }
}

/// Ten seeded random programs, each run to completion in each of the four
/// modes independently: every observable matches the reference.
#[test]
fn random_programs_match_reference_in_every_mode() {
    for seed in 0..10 {
        let w = random_workload(seed);
        for mode in ALL_MODES {
            assert_lockstep(&w, &[(mode, u64::MAX)]);
        }
    }
}

/// Random programs under randomized mixed-mode schedules (the sampling
/// pattern real techniques drive): mode switches at arbitrary, often
/// mid-superblock boundaries must not perturb anything.
#[test]
fn random_programs_match_reference_under_mixed_mode_schedules() {
    for seed in 10..18 {
        let w = random_workload(seed);
        let mut rng = DetRng::seed_from_u64(seed * 7 + 1);
        let mut schedule = Vec::new();
        for _ in 0..400 {
            let mode = ALL_MODES[rng.range_usize(ALL_MODES.len())];
            // Tiny chunks (down to 1 op) force superblock re-entry and
            // exercise the max_ops truncation path inside straight runs.
            schedule.push((mode, 1 + rng.range_u64(3_000)));
        }
        schedule.push((Mode::Functional, u64::MAX));
        assert_lockstep(&w, &schedule);
    }
}

/// Hashed-BBV digests — the phase-detection signal the whole technique
/// stack keys on — are bit-identical between the cores, including the
/// in-flight accumulation carried across run boundaries.
#[test]
fn hashed_bbv_digests_match_reference() {
    for seed in [3, 11, 19] {
        let w = random_workload(seed);
        let mut decoded = w.machine_with(test_config());
        let mut reference = w.reference_machine_with(test_config());
        let mut d_tracker = HashedBbvTracker::new(BbvHash::from_seed(42));
        let mut r_tracker = HashedBbvTracker::new(BbvHash::from_seed(42));
        loop {
            let d = decoded.run_with(Mode::Functional, 20_000, &mut d_tracker);
            let r = reference.run_with(Mode::Functional, 20_000, &mut r_tracker);
            assert_eq!(d, r);
            let dv = d_tracker.take();
            let rv = r_tracker.take();
            assert_eq!(
                dv.counts(),
                rv.counts(),
                "{}: hashed BBV diverged",
                w.name()
            );
            if d.halted {
                break;
            }
        }
    }
}

/// Full (per-block) BBV digests match as well, across detailed mode where
/// the decoded core's inlined retire accounting batches whole runs.
#[test]
fn full_bbv_digests_match_reference() {
    for seed in [5, 23] {
        let w = random_workload(seed);
        let mut decoded = w.machine_with(test_config());
        let mut reference = w.reference_machine_with(test_config());
        let mut d_tracker = FullBbvTracker::new(w.program());
        let mut r_tracker = FullBbvTracker::new(w.program());
        loop {
            let d = decoded.run_with(Mode::DetailedMeasured, 15_000, &mut d_tracker);
            let r = reference.run_with(Mode::DetailedMeasured, 15_000, &mut r_tracker);
            assert_eq!(d, r);
            let dv = d_tracker.take();
            let rv = r_tracker.take();
            assert_eq!(dv.counts(), rv.counts(), "{}: full BBV diverged", w.name());
            if d.halted {
                break;
            }
        }
    }
}

/// The paper-suite workloads (scaled down) agree too — the programs the
/// perf harness and every experiment actually run.
#[test]
fn paper_suite_matches_reference() {
    for name in pgss_workloads::SUITE_NAMES {
        let w = pgss_workloads::by_name(name, 0.005).unwrap();
        assert_lockstep(
            &w,
            &[
                (Mode::Functional, 40_000),
                (Mode::DetailedWarming, 5_000),
                (Mode::DetailedMeasured, 20_000),
                (Mode::FastForward, 40_000),
                (Mode::DetailedMeasured, u64::MAX),
            ],
        );
    }
}

/// Structured faults agree: a poisoned dispatch table makes both cores
/// halt on the same `IndirectJumpOutOfRange` fault, at the same pc, with
/// the same retired count, without the faulting jump retiring.
#[test]
fn faults_agree_with_reference() {
    let w = {
        let mut b = WorkloadBuilder::new("poisoned", 31);
        let seg = b.add_segment(Kernel::ComputeInt {
            chains: 2,
            ops_per_chain: 3,
        });
        b.run(seg, 10_000);
        b.poison_dispatch();
        b.finish()
    };
    for mode in ALL_MODES {
        let mut decoded = w.machine_with(test_config());
        let mut reference = w.reference_machine_with(test_config());
        let mut d_sink = StreamDigest::default();
        let mut r_sink = StreamDigest::default();
        let d = decoded.run_with(mode, u64::MAX, &mut d_sink);
        let r = reference.run_with(mode, u64::MAX, &mut r_sink);
        assert_eq!(d, r);
        assert_eq!(d_sink, r_sink);
        assert!(decoded.fault().is_some(), "decoded core did not fault");
        assert_eq!(decoded.fault(), reference.fault(), "fault values differ");
        assert_eq!(decoded.snapshot(), reference.snapshot());
    }
}

/// Snapshot/restore round-trips interoperate: state captured from one
/// core restores into the other and execution continues identically —
/// decoded state really is derived, never serialized.
#[test]
fn snapshots_interoperate_between_cores() {
    let w = random_workload(29);
    let mut decoded = w.machine_with(test_config());
    let mut reference = w.reference_machine_with(test_config());
    decoded.run(Mode::Functional, 30_000);
    reference.run(Mode::Functional, 30_000);

    // Cross-restore: decoded's snapshot into the reference and vice versa.
    let d_snap = decoded.snapshot();
    let r_snap = reference.snapshot();
    assert_eq!(d_snap, r_snap);
    decoded.restore(&r_snap);
    reference.restore(&d_snap);

    let mut d_sink = StreamDigest::default();
    let mut r_sink = StreamDigest::default();
    let d = decoded.run_with(Mode::DetailedMeasured, u64::MAX, &mut d_sink);
    let r = reference.run_with(Mode::DetailedMeasured, u64::MAX, &mut r_sink);
    assert_eq!(d, r);
    assert_eq!(d_sink, r_sink);
    assert_eq!(decoded.snapshot(), reference.snapshot());
}

/// A random store-heavy workload: most segments write memory, over
/// regions from a quarter page to many pages, so snapshots and restores
/// exercise the page-granular copy-on-write paths of the decoded core.
fn store_heavy_workload(seed: u64) -> Workload {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut b = WorkloadBuilder::new(format!("stores-{seed}"), seed ^ 0x0051_07e5);
    let mut segments = Vec::new();
    for _ in 0..2 + rng.range_usize(3) {
        let kernel = match rng.range_usize(3) {
            0 | 1 => {
                // Strides up to a page; a region holds 8 strides at least.
                let region_words = 1 << (7 + rng.range_usize(7));
                Kernel::StoreStream {
                    region_words,
                    stride_words: 1 + rng.range_usize((region_words / 8 - 1).min(512)),
                }
            }
            _ => Kernel::Stream {
                region_words: 1 << (8 + rng.range_usize(5)),
                stride_words: 1 + rng.range_usize(9),
                compute_per_load: rng.range_u64(3) as u32,
            },
        };
        segments.push(b.add_segment(kernel));
    }
    for _ in 0..3 + rng.range_usize(4) {
        let seg = segments[rng.range_usize(segments.len())];
        b.run(seg, 5_000 + rng.range_u64(30_000));
    }
    b.finish()
}

/// Snapshot mid-run, run on, restore, re-run — on both cores. The re-run
/// must repeat the first run-on exactly, the cores must agree at every
/// step, and the decoded core's restores must copy only the pages that
/// changed.
#[test]
fn restores_mid_run_match_reference_on_store_heavy_programs() {
    let mut total_copied = 0;
    for seed in 0..10u64 {
        let w = store_heavy_workload(seed);
        let mut rng = DetRng::seed_from_u64(seed ^ 0xa11);
        let mut decoded = w.machine_with(test_config());
        let mut reference = w.reference_machine_with(test_config());
        let mid = 1 + rng.range_u64(50_000);
        assert_eq!(
            decoded.run(Mode::Functional, mid),
            reference.run(Mode::Functional, mid)
        );
        let d_snap = decoded.snapshot();
        let r_snap = reference.snapshot();
        assert_eq!(d_snap, r_snap, "{}: snapshots differ at {mid}", w.name());
        // Start both run-ons from a restored state, so the re-run below
        // begins from exactly the same place.
        assert_eq!(
            decoded.restore(&d_snap),
            0,
            "restoring the snapshot just taken"
        );
        reference.restore(&r_snap);

        let mode = ALL_MODES[rng.range_usize(4)];
        let ops = 1 + rng.range_u64(40_000);
        let run_on = |d: &mut pgss_cpu::Machine, r: &mut pgss_cpu::ReferenceMachine| {
            let mut d_sink = StreamDigest::default();
            let mut r_sink = StreamDigest::default();
            let dr = d.run_with(mode, ops, &mut d_sink);
            let rr = r.run_with(mode, ops, &mut r_sink);
            assert_eq!(dr, rr, "{}: run-on diverged ({mode}, {ops} ops)", w.name());
            assert_eq!(d_sink, r_sink);
            (dr, d_sink)
        };
        let first = run_on(&mut decoded, &mut reference);
        let after_first = decoded.snapshot();
        assert_eq!(after_first, reference.snapshot());

        let copied = decoded.restore(&d_snap);
        reference.restore(&r_snap);
        let changed = (0..d_snap.mem.pages().len())
            .filter(|&p| d_snap.mem.page(p) != after_first.mem.page(p))
            .count();
        assert!(
            copied >= changed && copied <= after_first.mem.pages().len(),
            "{}: restore copied {copied} pages, {changed} changed",
            w.name()
        );
        total_copied += copied;
        assert_eq!(decoded.snapshot(), d_snap);
        assert_eq!(reference.snapshot(), r_snap);

        let second = run_on(&mut decoded, &mut reference);
        assert_eq!(first, second, "{}: the re-run differs", w.name());
        assert_eq!(decoded.snapshot(), after_first);
        assert_eq!(reference.snapshot(), after_first);
    }
    assert!(total_copied > 0, "no run-on wrote memory");
}
