//! Checkpoint subsystem integration: acceleration must be invisible.
//!
//! Every technique consuming a checkpoint ladder must produce the *same
//! bits* — estimate and trace — as its unaccelerated run, while executing
//! strictly fewer instructions; the on-disk store must round-trip a
//! campaign and shrug off injected corruption; and the serialized
//! snapshot format is pinned so accidental layout changes are caught.

mod util;

use std::sync::Arc;

use pgss::ckpt::{encode_machine_snapshot, CheckpointKey};
use pgss::driver::{RunTrace, Segment, SimDriver};
use pgss::{
    campaign, AdaptivePgss, CampaignConfig, CheckpointLadder, Estimate, LadderSpec, OnlineSimPoint,
    PgssSim, SimContext, SimPointOffline, Smarts, Technique, Track, TurboSmarts,
    SNAPSHOT_FORMAT_VERSION,
};
use pgss_ckpt::{fnv1a64, STORE_FORMAT_VERSION};
use pgss_cpu::{MachineConfig, Mode, ModeOps};
use pgss_stats::{ConfidenceInterval, DetRng, Welford, Z_95};
use pgss_workloads::Workload;

fn workload() -> Workload {
    pgss_workloads::wupwise(0.02)
}

fn techniques() -> Vec<Box<dyn Technique + Sync>> {
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    vec![
        Box::new(smarts),
        Box::new(TurboSmarts {
            smarts,
            ..TurboSmarts::default()
        }),
        Box::new(SimPointOffline {
            interval_ops: 200_000,
            k: 5,
            ..Default::default()
        }),
        Box::new(OnlineSimPoint {
            interval_ops: 200_000,
            ..OnlineSimPoint::default()
        }),
        Box::new(PgssSim {
            ff_ops: 100_000,
            spacing_ops: 200_000,
            ..PgssSim::default()
        }),
        Box::new(AdaptivePgss {
            base: PgssSim {
                ff_ops: 100_000,
                spacing_ops: 200_000,
                ..PgssSim::default()
            },
            ..AdaptivePgss::default()
        }),
    ]
}

/// A ladder whose spec is the technique's declared track union — exactly
/// what the campaign derives.
fn ladder_for(
    t: &dyn Technique,
    w: &Workload,
    cfg: &MachineConfig,
    stride: u64,
) -> Arc<CheckpointLadder> {
    let mut hashed_seeds: Vec<u64> = Vec::new();
    let mut with_full = false;
    for track in t.tracks() {
        match track {
            Track::Hashed(s) if !hashed_seeds.contains(&s) => hashed_seeds.push(s),
            Track::Full => with_full = true,
            _ => {}
        }
    }
    Arc::new(CheckpointLadder::capture(
        w,
        cfg,
        &LadderSpec {
            stride,
            hashed_seeds,
            with_full,
        },
    ))
}

#[test]
fn every_technique_is_bit_exact_under_checkpoint_acceleration() {
    let w = workload();
    let cfg = MachineConfig::default();
    for t in techniques() {
        let plain = t.run_traced_ctx(&w, &cfg, &SimContext::none());
        let ladder = ladder_for(t.as_ref(), &w, &cfg, 500_000);
        let ctx = SimContext::with_ladder(Arc::clone(&ladder));
        let fast = t.run_traced_ctx(&w, &cfg, &ctx);
        assert_eq!(
            plain,
            fast,
            "{}: checkpoint acceleration changed the result",
            t.name()
        );
        let report = ladder.report();
        assert!(report.jumps > 0, "{}: never jumped", t.name());
        assert!(
            report.skipped_ops > 0,
            "{}: jumped without skipping work",
            t.name()
        );
    }
}

#[test]
fn checkpointed_campaign_round_trips_through_the_store() {
    let (tmp, store) = util::temp_store("pgss-ckpt-campaign");
    let dir = tmp.path();

    let workloads = vec![pgss_workloads::gzip(0.01), pgss_workloads::equake(0.01)];
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    let pgss = PgssSim {
        ff_ops: 100_000,
        spacing_ops: 200_000,
        ..PgssSim::default()
    };
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());

    let plain = campaign::run_with(&jobs, &CampaignConfig::default()).unwrap();
    assert!(plain.is_complete());
    let first =
        campaign::run_checkpointed_with(&jobs, 50_000, Some(&store), &CampaignConfig::default())
            .unwrap();
    assert_eq!(plain.cells, first.cells);
    assert!(first.is_complete());
    assert!(
        first.checkpoint_faults.is_empty(),
        "{:?}",
        first.checkpoint_faults
    );
    assert!(first.ladder.capture_ops > 0, "first run must capture");
    assert!(first.ladder.total_executed() < first.ladder.baseline_ops());

    // Second run: ladders come back from disk, so nothing is recaptured
    // and the cells are still identical.
    let second =
        campaign::run_checkpointed_with(&jobs, 50_000, Some(&store), &CampaignConfig::default())
            .unwrap();
    assert_eq!(plain.cells, second.cells);
    assert_eq!(second.ladder.capture_ops, 0, "second run must load");
    assert!(second.checkpoint_faults.is_empty());

    // Injected corruption: truncate every record, then run again. The
    // store serves nothing, every truncated record is quarantined (and
    // ledgered), capture kicks in, results are unchanged.
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if !path.is_file() {
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    }
    let third =
        campaign::run_checkpointed_with(&jobs, 50_000, Some(&store), &CampaignConfig::default())
            .unwrap();
    assert_eq!(plain.cells, third.cells);
    assert!(third.ladder.capture_ops > 0, "corrupt store must recapture");
    assert!(
        !third.checkpoint_faults.is_empty(),
        "wholesale corruption must be ledgered"
    );
}

#[test]
fn corrupt_rung_is_quarantined_recaptured_and_bit_exact() {
    let (tmp, store) = util::temp_store("pgss-ckpt-quarantine");
    let dir = tmp.path();

    let workloads = vec![pgss_workloads::gzip(0.01)];
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    let pgss = PgssSim {
        ff_ops: 100_000,
        spacing_ops: 200_000,
        ..PgssSim::default()
    };
    let techs: Vec<&(dyn Technique + Sync)> = vec![&smarts, &pgss];
    let jobs = campaign::grid(&workloads, &techs, MachineConfig::default());

    let plain = campaign::run_with(&jobs, &CampaignConfig::default()).unwrap();
    let first =
        campaign::run_checkpointed_with(&jobs, 50_000, Some(&store), &CampaignConfig::default())
            .unwrap();
    assert_eq!(plain.cells, first.cells);

    // Corrupt exactly one ladder rung: rung records carry a machine
    // snapshot (kilobytes) while the meta record is tens of bytes, so the
    // largest record file is a rung. Flip one payload byte.
    let victim = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .max_by_key(|p| std::fs::metadata(p).unwrap().len())
        .unwrap();
    let mut bytes = std::fs::read(&victim).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    let victim_name = victim.file_name().unwrap().to_str().unwrap().to_string();
    let victim_key = victim_name.trim_end_matches(".rec").to_string();

    // The healed run is bit-identical to the unaccelerated campaign, and
    // the report names the quarantined record.
    let healed =
        campaign::run_checkpointed_with(&jobs, 50_000, Some(&store), &CampaignConfig::default())
            .unwrap();
    assert_eq!(
        plain.cells, healed.cells,
        "healing must not change any cell"
    );
    assert!(healed.is_complete());
    assert!(
        healed
            .checkpoint_faults
            .iter()
            .any(|f| f.contains("quarantined") && f.contains(&victim_key)),
        "report must name the quarantined record {victim_key}: {:?}",
        healed.checkpoint_faults
    );
    // The corrupt record is preserved (not deleted) in the sidecar, and
    // a fresh, healthy record took its place in the store.
    assert!(dir.join("quarantine").join(&victim_name).is_file());
    assert!(victim.is_file(), "recapture must write the rung back");

    // Next run loads clean: no recapture, no faults.
    let clean =
        campaign::run_checkpointed_with(&jobs, 50_000, Some(&store), &CampaignConfig::default())
            .unwrap();
    assert_eq!(plain.cells, clean.cells);
    assert_eq!(clean.ladder.capture_ops, 0, "store must be healed");
    assert!(
        clean.checkpoint_faults.is_empty(),
        "{:?}",
        clean.checkpoint_faults
    );
}

#[test]
fn snapshot_format_is_pinned() {
    // Bump these constants deliberately when the layout changes; stale
    // records then read as absent instead of decoding wrongly.
    assert_eq!(SNAPSHOT_FORMAT_VERSION, 1);
    assert_eq!(STORE_FORMAT_VERSION, 1);

    // The serialized bytes of a deterministic machine state are pinned:
    // any accidental encoder change shows up here before it corrupts a
    // store in the field.
    let w = pgss_workloads::gzip(0.01);
    let mut machine = w.machine();
    let mut sink = pgss_cpu::NoopSink;
    machine.run_with(pgss_cpu::Mode::Functional, 10_000, &mut sink);
    let bytes = encode_machine_snapshot(&machine.snapshot());
    assert_eq!(
        fnv1a64(&bytes),
        0x82b2_8722_751c_56ca,
        "machine snapshot encoding changed; bump SNAPSHOT_FORMAT_VERSION"
    );

    // Key hashing is stable too (same inputs, same record file).
    let key = CheckpointKey::new(&w, &MachineConfig::default(), 40_000);
    assert_eq!(
        key.hash(),
        CheckpointKey::new(&w, &MachineConfig::default(), 40_000).hash()
    );
}

/// TurboSMARTS as it ran with one fresh replay driver per sample: each
/// checkpoint built its own driver, and each driver's trace merged on its
/// own. Kept as the oracle for the reused per-round replay driver.
fn turbo_with_fresh_replays(
    t: &TurboSmarts,
    w: &Workload,
    cfg: &MachineConfig,
    ctx: &SimContext,
) -> (Estimate, RunTrace) {
    let s = t.smarts;
    let mut length_pass = ctx.driver(w, cfg, Track::None);
    length_pass.execute(Segment::new(Mode::Functional, u64::MAX));
    let total = length_pass.retired();
    let mut trace = *length_pass.trace();
    let population = (total - s.warm_ops - s.unit_ops) / s.period_ops + 1;
    let mut order: Vec<usize> = (0..population as usize).collect();
    DetRng::seed_from_u64(t.seed).shuffle(&mut order);
    let mut cpis: Vec<Option<f64>> = vec![None; population as usize];
    let mut welford = Welford::new();
    let mut consumed = 0u64;
    let mut issued = 0usize;
    'rounds: while issued < order.len() {
        let want = if issued == 0 {
            (t.min_samples.max(1) as usize).min(order.len())
        } else {
            issued.min(order.len() - issued)
        };
        let round = &order[issued..issued + want];
        let mut positions = round.to_vec();
        positions.sort_unstable();
        let mut capture = ctx.driver(w, cfg, Track::None);
        for &i in &positions {
            let pos = i as u64 * s.period_ops;
            if pos > capture.retired() {
                capture.execute(Segment::new(Mode::Functional, pos - capture.retired()));
            }
            let checkpoint = capture.snapshot();
            let mut replay = SimDriver::from_snapshot(w, cfg, Track::None, &checkpoint);
            ctx.bind(&mut replay);
            replay.execute(Segment::new(Mode::DetailedWarming, s.warm_ops));
            let measured = replay.execute(Segment::new(Mode::DetailedMeasured, s.unit_ops));
            cpis[i] = Some(measured.cpi());
            trace.merge(replay.trace());
        }
        trace.merge(capture.trace());
        for &i in round {
            welford.push(cpis[i].unwrap());
            consumed += 1;
            if consumed >= t.min_samples
                && ConfidenceInterval::from_welford(&welford, t.z).meets_relative(t.target_rel)
            {
                break 'rounds;
            }
        }
        issued += want;
    }
    trace.samples_taken = consumed;
    trace.skipped_ci_met = population - consumed;
    // The CPI interval maps into IPC space by the delta method.
    let cpi_ci = ConfidenceInterval::from_welford(&welford, Z_95);
    let ipc = 1.0 / cpi_ci.mean;
    let estimate = Estimate {
        ipc: 1.0 / welford.mean(),
        mode_ops: ModeOps {
            detailed_warming: consumed * s.warm_ops,
            detailed_measured: consumed * s.unit_ops,
            ..ModeOps::default()
        },
        samples: consumed,
        phases: None,
        ci: Some(ConfidenceInterval {
            mean: ipc,
            half_width: cpi_ci.half_width * ipc * ipc,
            n: cpi_ci.n,
        }),
    };
    (estimate, trace)
}

#[test]
fn turbo_smarts_reused_replay_driver_matches_fresh_drivers() {
    let w = pgss_workloads::gzip(0.01);
    let cfg = MachineConfig::default();
    let smarts = Smarts {
        period_ops: 100_000,
        ..Smarts::default()
    };
    // The convergent default and a target no bound meets, which consumes
    // the whole population over several doubling rounds.
    for target_rel in [0.03, 0.0] {
        let t = TurboSmarts {
            smarts,
            target_rel,
            ..TurboSmarts::default()
        };
        let ladder = ladder_for(&t, &w, &cfg, 500_000);
        for ctx in [SimContext::none(), SimContext::with_ladder(ladder)] {
            let reused = t.run_traced_ctx(&w, &cfg, &ctx);
            let fresh = turbo_with_fresh_replays(&t, &w, &cfg, &ctx);
            assert_eq!(reused, fresh, "target {target_rel}");
            assert!(reused.1.segments[Mode::DetailedMeasured as usize] > 1);
        }
    }
}
