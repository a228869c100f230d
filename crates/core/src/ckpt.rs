//! Typed checkpoints on top of the [`pgss_ckpt`] byte store: snapshot
//! encoding, content-address keys, and the capture ladder that lets
//! many driver passes share one functional fast-forward of a workload.
//!
//! Layering (bottom to top):
//!
//! 1. [`pgss_ckpt::codec`] / [`pgss_ckpt::Store`] — bytes only; versioned,
//!    checksummed, crash-safe records.
//! 2. This module — encodes [`pgss_cpu::MachineSnapshot`] /
//!    [`crate::driver::DriverSnapshot`] payloads, derives content-address
//!    keys from (workload identity, machine config, op offset), and
//!    builds [`CheckpointLadder`]s: snapshots at a fixed op stride with
//!    *cumulative* BBV tracker state per rung.
//! 3. [`crate::driver::SimDriver`] — restores snapshots and, when a
//!    ladder is attached, *jumps* over functional segments by restoring
//!    the highest rung inside the segment instead of executing it.
//! 4. [`crate::campaign::run_checkpointed_with`] — builds each workload's
//!    ladder once (the campaign [`crate::campaign::Scheduler`] hands the
//!    build to one worker) and fans restores out to every technique in
//!    the grid.
//!
//! This is the paper's TurboSMARTS idea (SMARTS with live-state
//! checkpoints) generalised: any pass that functionally fast-forwards —
//! SMARTS inter-sample gaps, PGSS/Online-SimPoint classification
//! intervals, SimPoint profile and replay skips — can consume the same
//! checkpoints, because functional warming leaves the machine in exactly
//! the state any other warm-mode path would (architectural execution and
//! cache/predictor updates are mode-independent).
//!
//! # Fault tolerance
//!
//! Store reads are *self-healing*: [`CheckpointLadder::load_or_capture`]
//! reads via [`Store::get_checked`], and any record that exists but fails
//! validation is moved into the store's quarantine sidecar (never
//! deleted — the evidence survives for post-mortem) before the ladder is
//! recaptured from scratch and written back. Every such event, plus any
//! store I/O error or failed write-back, lands in the ladder's
//! [`CheckpointLadder::fault_log`], which campaigns surface in their
//! report ledger. Because recapture reproduces the exact bytes the rung
//! held before it rotted, healing is invisible to results.

// Checkpoint state feeds bit-exact simulation results; a stray unwrap on
// this path would turn a recoverable corrupt record into an abort.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicU64, Ordering};

use pgss_bbv::{BbvHash, FullBbv, FullBbvTracker, HashedBbv, HashedBbvTracker, HASHED_BBV_DIM};
use pgss_ckpt::{fnv1a64, CodecError, Decoder, Encoder, RecordError, Store};
use pgss_cpu::{
    BranchPredictorState, BtbState, CacheState, MachineConfig, MachineSnapshot, MemSystemState,
    Mode, ModeOps, PagedImage, PAGE_WORDS,
};
use pgss_workloads::Workload;

use crate::driver::{DriverSnapshot, SimDriver, Track};

/// Version of the *payload* encoding produced by this module (the store
/// has its own record-layout version,
/// [`pgss_ckpt::STORE_FORMAT_VERSION`]). Bump on any change to the
/// snapshot byte layout; decoders reject other versions, and the version
/// participates in content-address keys so stale records are simply
/// never found.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Encodes a machine snapshot. The memory image uses zero-run
/// compression, so the encoded size tracks the workload's touched
/// footprint rather than the configured memory size. The image streams
/// out page by page, shared zero pages without a scan; the bytes are
/// those of the flat image, independent of the page layout.
pub fn encode_machine_snapshot(snap: &MachineSnapshot) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(SNAPSHOT_FORMAT_VERSION);
    e.put_u32(snap.pc);
    for &r in &snap.regs {
        e.put_i64(r);
    }
    for &f in &snap.fregs {
        e.put_f64(f);
    }
    e.put_i64_pages_rle(
        snap.mem.len(),
        PAGE_WORDS,
        snap.mem.pages().iter().map(|p| p.as_deref()),
    );
    e.put_bool(snap.halted);
    put_mode_ops(&mut e, snap.mode_ops);
    e.put_u64(snap.ops_since_taken);
    for c in [&snap.memsys.l1i, &snap.memsys.l1d, &snap.memsys.l2] {
        e.put_u64_slice(&c.ways);
        e.put_u64(c.hits);
        e.put_u64(c.misses);
    }
    e.put_bytes(&snap.bpred.counters);
    e.put_u64(snap.bpred.history);
    e.put_u64(snap.bpred.predictions);
    e.put_u64(snap.bpred.mispredictions);
    e.put_u64(snap.btb.targets.len() as u64);
    for &t in &snap.btb.targets {
        e.put_u32(t);
    }
    e.into_bytes()
}

/// Decodes bytes produced by [`encode_machine_snapshot`], rejecting
/// other snapshot-format versions. The memory image decodes straight into
/// pages; zero runs become the shared zero page.
pub fn decode_machine_snapshot(bytes: &[u8]) -> Result<MachineSnapshot, CodecError> {
    let mut d = Decoder::new(bytes);
    let snap = decode_machine_snapshot_from(&mut d)?;
    d.finish()?;
    Ok(snap)
}

fn decode_machine_snapshot_from(d: &mut Decoder<'_>) -> Result<MachineSnapshot, CodecError> {
    if d.get_u32()? != SNAPSHOT_FORMAT_VERSION {
        return Err(CodecError::Malformed("snapshot format version mismatch"));
    }
    let pc = d.get_u32()?;
    let mut regs = [0i64; 32];
    for r in &mut regs {
        *r = d.get_i64()?;
    }
    let mut fregs = [0f64; 32];
    for f in &mut fregs {
        *f = d.get_f64()?;
    }
    let (len, pages) = d.get_i64_pages_rle(PAGE_WORDS)?;
    let mem = PagedImage::from_pages(len, pages);
    let halted = d.get_bool()?;
    let mode_ops = get_mode_ops(d)?;
    let ops_since_taken = d.get_u64()?;
    let l1i = get_cache_state(d)?;
    let l1d = get_cache_state(d)?;
    let l2 = get_cache_state(d)?;
    let counters = d.get_bytes()?;
    let bpred = BranchPredictorState {
        counters,
        history: d.get_u64()?,
        predictions: d.get_u64()?,
        mispredictions: d.get_u64()?,
    };
    let n = d.get_u64()?;
    let n = usize::try_from(n).map_err(|_| CodecError::Malformed("length overflow"))?;
    let mut targets = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        targets.push(d.get_u32()?);
    }
    Ok(MachineSnapshot {
        pc,
        regs,
        fregs,
        mem,
        halted,
        mode_ops,
        ops_since_taken,
        memsys: MemSystemState { l1i, l1d, l2 },
        bpred,
        btb: BtbState { targets },
    })
}

fn get_cache_state(d: &mut Decoder<'_>) -> Result<CacheState, CodecError> {
    Ok(CacheState {
        ways: d.get_u64_slice()?,
        hits: d.get_u64()?,
        misses: d.get_u64()?,
    })
}

fn put_mode_ops(e: &mut Encoder, ops: ModeOps) {
    e.put_u64(ops.fast_forward);
    e.put_u64(ops.functional);
    e.put_u64(ops.detailed_warming);
    e.put_u64(ops.detailed_measured);
}

fn get_mode_ops(d: &mut Decoder<'_>) -> Result<ModeOps, CodecError> {
    Ok(ModeOps {
        fast_forward: d.get_u64()?,
        functional: d.get_u64()?,
        detailed_warming: d.get_u64()?,
        detailed_measured: d.get_u64()?,
    })
}

fn put_hashed_bbv(e: &mut Encoder, bbv: &HashedBbv) {
    e.put_u64_slice(bbv.counts());
}

fn get_hashed_bbv(d: &mut Decoder<'_>) -> Result<HashedBbv, CodecError> {
    let counts = d.get_u64_slice()?;
    let counts: [u64; HASHED_BBV_DIM] = counts
        .try_into()
        .map_err(|_| CodecError::Malformed("hashed BBV dimension"))?;
    Ok(HashedBbv::from_counts(counts))
}

/// Encodes a full driver snapshot (machine state, retired position,
/// in-flight BBV tracker state).
pub fn encode_driver_snapshot(snap: &DriverSnapshot) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(SNAPSHOT_FORMAT_VERSION);
    e.put_u64(snap.retired);
    e.put_bytes(&encode_machine_snapshot(&snap.machine));
    e.put_bool(snap.hashed_current.is_some());
    if let Some(h) = &snap.hashed_current {
        put_hashed_bbv(&mut e, h);
    }
    e.put_bool(snap.full_current.is_some());
    if let Some(f) = &snap.full_current {
        e.put_u64_slice(f.counts());
    }
    e.into_bytes()
}

/// Decodes bytes produced by [`encode_driver_snapshot`].
pub fn decode_driver_snapshot(bytes: &[u8]) -> Result<DriverSnapshot, CodecError> {
    let mut d = Decoder::new(bytes);
    if d.get_u32()? != SNAPSHOT_FORMAT_VERSION {
        return Err(CodecError::Malformed("snapshot format version mismatch"));
    }
    let retired = d.get_u64()?;
    let machine_bytes = d.get_bytes()?;
    let machine = decode_machine_snapshot(&machine_bytes)?;
    let hashed_current = d.get_bool()?.then(|| get_hashed_bbv(&mut d)).transpose()?;
    let full_current = d
        .get_bool()?
        .then(|| d.get_u64_slice().map(FullBbv::from_counts))
        .transpose()?;
    d.finish()?;
    Ok(DriverSnapshot {
        machine,
        retired,
        hashed_current,
        full_current,
    })
}

/// The identity a checkpoint is keyed by: which workload (name, nominal
/// size, program shape — scale is baked into the nominal op count), which
/// machine configuration, and which retired-op offset. Two runs agreeing
/// on all of these see identical machine state at the offset, so records
/// are safely shareable across processes.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointKey {
    /// Workload name.
    pub workload: String,
    /// The workload's nominal op count (scale-dependent).
    pub nominal_ops: u64,
    /// Instruction count of the program (identity proxy).
    pub program_len: u64,
    /// Static basic-block count of the program (identity proxy).
    pub num_blocks: u64,
    /// Memory words the workload requires (identity proxy for its data
    /// image).
    pub init_words: u64,
    /// Digest of every [`MachineConfig`] field.
    pub config_digest: u64,
    /// Retired-op offset the snapshot was captured at.
    pub op_offset: u64,
}

impl CheckpointKey {
    /// Builds the key identifying `workload` × `config` at `op_offset`.
    pub fn new(workload: &Workload, config: &MachineConfig, op_offset: u64) -> CheckpointKey {
        CheckpointKey {
            workload: workload.name().to_string(),
            nominal_ops: workload.nominal_ops(),
            program_len: workload.program().len() as u64,
            num_blocks: workload.program().num_blocks() as u64,
            init_words: workload.required_memory_words() as u64,
            config_digest: config_digest(config),
            op_offset,
        }
    }

    /// The 64-bit content address for [`Store`] lookups. Includes the
    /// snapshot format version, so a version bump orphans (rather than
    /// misreads) old records.
    pub fn hash(&self) -> u64 {
        self.hash_with_tag(0)
    }

    fn hash_with_tag(&self, tag: u64) -> u64 {
        let mut e = Encoder::new();
        e.put_u32(SNAPSHOT_FORMAT_VERSION);
        e.put_str(&self.workload);
        e.put_u64(self.nominal_ops);
        e.put_u64(self.program_len);
        e.put_u64(self.num_blocks);
        e.put_u64(self.init_words);
        e.put_u64(self.config_digest);
        e.put_u64(self.op_offset);
        e.put_u64(tag);
        fnv1a64(&e.into_bytes())
    }
}

/// FNV digest over every field of a [`MachineConfig`].
pub fn config_digest(config: &MachineConfig) -> u64 {
    let mut e = Encoder::new();
    e.put_u32(config.issue_width);
    for c in [config.l1i, config.l1d, config.l2] {
        e.put_u64(c.size_bytes);
        e.put_u64(c.line_bytes);
        e.put_u32(c.associativity);
    }
    e.put_u32(config.bpred.history_bits);
    e.put_u32(config.bpred.btb_entries);
    let l = config.lat;
    for v in [
        l.alu,
        l.mul,
        l.div,
        l.fp_add,
        l.fp_mul,
        l.fp_div,
        l.l1_hit,
        l.l2_hit,
        l.memory,
        l.mispredict,
    ] {
        e.put_u32(v);
    }
    e.put_u64(config.memory_words as u64);
    e.put_u32(config.mshrs);
    fnv1a64(&e.into_bytes())
}

/// What a [`CheckpointLadder`] capture pass tracks alongside the
/// snapshots.
///
/// Jumping into a BBV-tracked pass requires the ladder to carry that
/// track's *cumulative* counts, so the union of every consuming
/// technique's tracks must be declared up front (the campaign derives it
/// from [`crate::Technique::tracks`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadderSpec {
    /// Distance between rungs, in retired ops.
    pub stride: u64,
    /// Hash seeds whose cumulative hashed BBVs each rung carries.
    pub hashed_seeds: Vec<u64>,
    /// Whether rungs carry the cumulative full (per-static-block) BBV.
    pub with_full: bool,
}

impl LadderSpec {
    /// A machine-state-only spec (sufficient for `Track::None` passes).
    pub fn machine_only(stride: u64) -> LadderSpec {
        LadderSpec {
            stride,
            hashed_seeds: Vec::new(),
            with_full: false,
        }
    }
}

/// One rung: the workload's complete state at `retired`, held decoded —
/// a jump is a page-granular [`pgss_cpu::Machine::restore`], never a
/// decode — plus cumulative-since-op-0 tracker counts. Rungs are encoded
/// only when written to a store.
#[derive(Debug, Clone)]
pub(crate) struct LadderRung {
    pub(crate) retired: u64,
    pub(crate) machine: MachineSnapshot,
    pub(crate) hashed_cum: Vec<HashedBbv>,
    pub(crate) full_cum: Option<FullBbv>,
}

/// Live counters a ladder accumulates while drivers consume it.
#[derive(Debug, Default)]
pub struct LadderCounters {
    jumps: AtomicU64,
    skipped_ops: AtomicU64,
    executed_ops: AtomicU64,
}

/// A point-in-time copy of a ladder's counters plus its capture cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderReport {
    /// Restores performed in place of functional execution.
    pub jumps: u64,
    /// Ops skipped via those restores (charged logically, not executed).
    pub skipped_ops: u64,
    /// Ops actually executed by drivers attached to this ladder.
    pub executed_ops: u64,
    /// Ops the capture pass itself executed (0 when the ladder was
    /// loaded from a store).
    pub capture_ops: u64,
}

impl LadderReport {
    /// Merges another report into this one.
    pub fn merge(&mut self, other: &LadderReport) {
        self.jumps += other.jumps;
        self.skipped_ops += other.skipped_ops;
        self.executed_ops += other.executed_ops;
        self.capture_ops += other.capture_ops;
    }

    /// Ops physically executed, capture included.
    pub fn total_executed(&self) -> u64 {
        self.executed_ops + self.capture_ops
    }

    /// Ops the same segment schedules would have executed without
    /// checkpoints (no capture pass, nothing skipped).
    pub fn baseline_ops(&self) -> u64 {
        self.executed_ops + self.skipped_ops
    }

    /// `total_executed / baseline_ops`: below 1.0 when checkpointing
    /// paid off.
    pub fn executed_ratio(&self) -> f64 {
        if self.baseline_ops() == 0 {
            1.0
        } else {
            self.total_executed() as f64 / self.baseline_ops() as f64
        }
    }
}

/// A ladder of checkpoints up a workload's execution: snapshots every
/// [`LadderSpec::stride`] retired ops, each carrying cumulative BBV
/// tracker state, captured by one functional pass (or loaded from a
/// [`Store`]). Attached to [`crate::driver::SimDriver`]s via
/// [`crate::SimContext`], it lets every functional fast-forward segment
/// be replaced by a restore of the highest rung the segment spans —
/// with identical observable results, because functional warming is
/// deterministic and mode-independent.
#[derive(Debug)]
pub struct CheckpointLadder {
    spec: LadderSpec,
    rungs: Vec<LadderRung>,
    capture_ops: u64,
    counters: LadderCounters,
    fault_log: Vec<String>,
}

impl CheckpointLadder {
    /// Runs the capture pass: one functional execution of `workload` to
    /// halt, snapshotting at every stride boundary.
    ///
    /// # Panics
    ///
    /// Panics if `spec.stride` is zero.
    pub fn capture(workload: &Workload, config: &MachineConfig, spec: &LadderSpec) -> Self {
        assert!(spec.stride > 0, "ladder stride must be positive");
        let mut machine = workload.machine_with(*config);
        let hashed: Vec<HashedBbvTracker> = spec
            .hashed_seeds
            .iter()
            .map(|&s| HashedBbvTracker::new(BbvHash::from_seed(s)))
            .collect();
        let full = spec
            .with_full
            .then(|| FullBbvTracker::new(workload.program()));
        let mut sink = (hashed, full);
        let mut rungs = Vec::new();
        let mut retired = 0u64;
        loop {
            let r = machine.run_with(Mode::Functional, spec.stride, &mut sink);
            retired += r.ops;
            if r.ops == spec.stride {
                rungs.push(LadderRung {
                    retired,
                    machine: machine.snapshot(),
                    hashed_cum: sink.0.iter().map(|t| *t.current()).collect(),
                    full_cum: sink.1.as_ref().map(|t| t.current().clone()),
                });
            }
            if r.halted || r.ops < spec.stride {
                break;
            }
        }
        CheckpointLadder {
            spec: spec.clone(),
            rungs,
            capture_ops: retired,
            counters: LadderCounters::default(),
            fault_log: Vec::new(),
        }
    }

    /// Like [`CheckpointLadder::capture`], but first tries to load every
    /// rung from `store` (keyed by workload identity × config × offset ×
    /// spec) and, after a capture, writes the rungs back.
    ///
    /// Store reads are tolerant *and self-healing*: a record that exists
    /// but fails validation is quarantined (moved into the store's
    /// sidecar directory, never deleted) and the whole ladder is
    /// recaptured and written back, transparently re-creating the
    /// quarantined rungs. Missing records and I/O errors also fall back
    /// to capture. Writes are best-effort (an unwritable store only costs
    /// future reuse). Every fault handled this way is described in
    /// [`CheckpointLadder::fault_log`].
    pub fn load_or_capture(
        store: &Store,
        workload: &Workload,
        config: &MachineConfig,
        spec: &LadderSpec,
    ) -> Self {
        assert!(spec.stride > 0, "ladder stride must be positive");
        let tag = Self::spec_tag(spec);
        let meta_key = CheckpointKey::new(workload, config, u64::MAX).hash_with_tag(tag);
        let mut log = Vec::new();
        if let Some(mut ladder) =
            Self::try_load(store, workload, config, spec, tag, meta_key, &mut log)
        {
            ladder.fault_log = log;
            return ladder;
        }
        let mut ladder = Self::capture(workload, config, spec);
        // Best-effort write-back; rungs first so a complete meta record
        // implies complete rungs.
        let mut ok = true;
        for rung in &ladder.rungs {
            let key = CheckpointKey::new(workload, config, rung.retired).hash_with_tag(tag);
            if let Err(e) = store.put(key, &encode_rung(rung)) {
                log.push(format!(
                    "{}: write-back of checkpoint rung @{} failed: {e}",
                    workload.name(),
                    rung.retired
                ));
                ok = false;
            }
        }
        if ok {
            let mut e = Encoder::new();
            e.put_u64(ladder.capture_ops);
            e.put_u64(ladder.rungs.len() as u64);
            if let Err(e) = store.put(meta_key, &e.into_bytes()) {
                log.push(format!(
                    "{}: write-back of ladder meta record failed: {e}",
                    workload.name()
                ));
            }
        }
        ladder.fault_log = log;
        ladder
    }

    /// One tolerated store read for `try_load`: `Ok(payload)` on a valid
    /// record, `Err(abandon_load)` otherwise — quarantining invalid
    /// records (self-healing) and logging everything except a silent
    /// first-run miss.
    fn read_healing(
        store: &Store,
        key: u64,
        what: &str,
        silent_miss: bool,
        workload: &Workload,
        log: &mut Vec<String>,
    ) -> Result<Vec<u8>, ()> {
        match store.get_checked(key) {
            Ok(payload) => Ok(payload),
            Err(RecordError::Missing) => {
                if !silent_miss {
                    log.push(format!(
                        "{}: missing {what} (key {key:016x}) despite complete meta; recapturing",
                        workload.name()
                    ));
                }
                Err(())
            }
            Err(RecordError::Invalid(fault)) => {
                let dest = match store.quarantine(key) {
                    Ok(Some(path)) => format!("quarantined to {}", path.display()),
                    Ok(None) => "already gone".to_string(),
                    Err(e) => format!("quarantine failed: {e}"),
                };
                log.push(format!(
                    "{}: corrupt {what} (key {key:016x}): {fault}; {dest}; recapturing",
                    workload.name()
                ));
                Err(())
            }
            Err(e @ RecordError::Io(..)) => {
                log.push(format!(
                    "{}: {what} (key {key:016x}) unreadable: {e}; recapturing",
                    workload.name()
                ));
                Err(())
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // internal; mirrors load_or_capture's context
    fn try_load(
        store: &Store,
        workload: &Workload,
        config: &MachineConfig,
        spec: &LadderSpec,
        tag: u64,
        meta_key: u64,
        log: &mut Vec<String>,
    ) -> Option<Self> {
        let meta =
            Self::read_healing(store, meta_key, "ladder meta record", true, workload, log).ok()?;
        let mut d = Decoder::new(&meta);
        let count = (|| {
            d.get_u64()?; // capture_ops of the original capture; unused
            let count = d.get_u64()?;
            d.finish()?;
            Ok::<u64, CodecError>(count)
        })()
        .ok()?;
        let mut rungs = Vec::with_capacity(count as usize);
        for i in 1..=count {
            let offset = i * spec.stride;
            let key = CheckpointKey::new(workload, config, offset).hash_with_tag(tag);
            let what = format!("checkpoint rung @{offset}");
            let payload = Self::read_healing(store, key, &what, false, workload, log).ok()?;
            let rung = match decode_rung(&payload, spec) {
                Ok(rung) if rung.retired == offset => rung,
                // The record checksummed clean but its payload is not the
                // rung the key promises — quarantine it like corruption.
                _ => {
                    let dest = match store.quarantine(key) {
                        Ok(Some(path)) => format!("quarantined to {}", path.display()),
                        Ok(None) => "already gone".to_string(),
                        Err(e) => format!("quarantine failed: {e}"),
                    };
                    log.push(format!(
                        "{}: undecodable {what} (key {key:016x}); {dest}; recapturing",
                        workload.name()
                    ));
                    return None;
                }
            };
            rungs.push(rung);
        }
        Some(CheckpointLadder {
            spec: spec.clone(),
            rungs,
            capture_ops: 0,
            counters: LadderCounters::default(),
            fault_log: Vec::new(),
        })
    }

    /// The content addresses a persisted ladder for `workload` × `config`
    /// × `spec` occupies in `store`: the meta record plus every rung the
    /// meta record declares. These are GC liveness roots — a
    /// [`Store::gc`] caller marks them live to keep accelerated campaigns
    /// warm across sweeps.
    ///
    /// When the meta record is missing or corrupt the ladder is already
    /// unreachable (`load_or_capture` would recapture), so only the meta
    /// key itself is reported; any orphaned rungs are legitimately
    /// collectable and will be transparently re-created on the next
    /// capture. Callers must not run a sweep concurrently with a ladder
    /// *capture*: rungs are written before their meta record, so a sweep
    /// in that window would (harmlessly but wastefully) collect them.
    pub fn live_keys(
        store: &Store,
        workload: &Workload,
        config: &MachineConfig,
        spec: &LadderSpec,
    ) -> Vec<u64> {
        let tag = Self::spec_tag(spec);
        let meta_key = CheckpointKey::new(workload, config, u64::MAX).hash_with_tag(tag);
        let mut keys = vec![meta_key];
        let Ok(meta) = store.get_checked(meta_key) else {
            return keys;
        };
        let mut d = Decoder::new(&meta);
        let count = (|| {
            d.get_u64()?; // capture_ops; irrelevant to liveness
            let count = d.get_u64()?;
            d.finish()?;
            Ok::<u64, CodecError>(count)
        })()
        .unwrap_or(0);
        for i in 1..=count {
            keys.push(CheckpointKey::new(workload, config, i * spec.stride).hash_with_tag(tag));
        }
        keys
    }

    /// A digest of the spec, mixed into keys so ladders with different
    /// tracked seeds never alias.
    fn spec_tag(spec: &LadderSpec) -> u64 {
        let mut e = Encoder::new();
        e.put_u64(spec.stride);
        e.put_u64_slice(&spec.hashed_seeds);
        e.put_bool(spec.with_full);
        fnv1a64(&e.into_bytes())
    }

    /// The spec this ladder was captured with.
    pub fn spec(&self) -> &LadderSpec {
        &self.spec
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// True when the capture found no complete stride.
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// Index of `seed` in the carried hashed tracks.
    pub(crate) fn seed_index(&self, seed: u64) -> Option<usize> {
        self.spec.hashed_seeds.iter().position(|&s| s == seed)
    }

    /// Whether rungs carry full-BBV cumulative state.
    pub(crate) fn has_full(&self) -> bool {
        self.spec.with_full
    }

    /// The highest rung strictly after `after` and at or below `upto`.
    pub(crate) fn best_rung_in(&self, after: u64, upto: u64) -> Option<&LadderRung> {
        let idx = self.rungs.partition_point(|r| r.retired <= upto);
        let candidate = self.rungs.get(idx.checked_sub(1)?)?;
        (candidate.retired > after).then_some(candidate)
    }

    pub(crate) fn record_jump(&self, skipped: u64) {
        self.counters.jumps.fetch_add(1, Ordering::Relaxed);
        self.counters
            .skipped_ops
            .fetch_add(skipped, Ordering::Relaxed);
    }

    pub(crate) fn record_executed(&self, ops: u64) {
        self.counters.executed_ops.fetch_add(ops, Ordering::Relaxed);
    }

    /// Store faults this ladder healed or tolerated while loading /
    /// writing back: quarantined corrupt records, missing rungs, I/O
    /// errors, failed write-backs — one human-readable line each, in the
    /// order encountered. Empty on a clean load or a first capture.
    pub fn fault_log(&self) -> &[String] {
        &self.fault_log
    }

    /// Point-in-time counters plus the capture cost.
    pub fn report(&self) -> LadderReport {
        LadderReport {
            jumps: self.counters.jumps.load(Ordering::Relaxed),
            skipped_ops: self.counters.skipped_ops.load(Ordering::Relaxed),
            executed_ops: self.counters.executed_ops.load(Ordering::Relaxed),
            capture_ops: self.capture_ops,
        }
    }
}

fn encode_rung(rung: &LadderRung) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(rung.retired);
    e.put_bytes(&encode_machine_snapshot(&rung.machine));
    e.put_u64(rung.hashed_cum.len() as u64);
    for h in &rung.hashed_cum {
        put_hashed_bbv(&mut e, h);
    }
    e.put_bool(rung.full_cum.is_some());
    if let Some(f) = &rung.full_cum {
        e.put_u64_slice(f.counts());
    }
    e.into_bytes()
}

fn decode_rung(bytes: &[u8], spec: &LadderSpec) -> Result<LadderRung, CodecError> {
    let mut d = Decoder::new(bytes);
    let retired = d.get_u64()?;
    // Decoding validates eagerly, so a corrupted record surfaces here
    // (tolerant fallback to capture) rather than as a panic at jump time;
    // the decoded snapshot is what jumps restore.
    let machine = decode_machine_snapshot(&d.get_bytes()?)?;
    let n = d.get_u64()?;
    if n != spec.hashed_seeds.len() as u64 {
        return Err(CodecError::Malformed("ladder seed count mismatch"));
    }
    let mut hashed_cum = Vec::with_capacity(n as usize);
    for _ in 0..n {
        hashed_cum.push(get_hashed_bbv(&mut d)?);
    }
    let full_cum = d
        .get_bool()?
        .then(|| d.get_u64_slice().map(FullBbv::from_counts))
        .transpose()?;
    if full_cum.is_some() != spec.with_full {
        return Err(CodecError::Malformed("ladder full-BBV mismatch"));
    }
    d.finish()?;
    Ok(LadderRung {
        retired,
        machine,
        hashed_cum,
        full_cum,
    })
}

/// Per-run context threaded to [`crate::Technique::run_traced_ctx`]:
/// carries the checkpoint ladder (if any), the metrics recorder and the
/// fault slot that every driver pass of the run is built with — see
/// [`SimContext::driver`].
#[derive(Debug, Clone)]
pub struct SimContext {
    /// The workload's checkpoint ladder, shared across the techniques of
    /// a checkpoint-accelerated campaign.
    pub ladder: Option<std::sync::Arc<CheckpointLadder>>,
    /// Metrics sink for the run ([`pgss_obs::NoopRecorder`] by default,
    /// which costs nothing).
    pub recorder: std::sync::Arc<dyn pgss_obs::Recorder>,
    /// Shared slot capturing the first [`pgss_cpu::MachineFault`] of any
    /// driver pass bound to this context. Campaign cells read it after a
    /// technique returns, turning structured machine aborts (e.g. an
    /// out-of-range indirect jump) into typed cell errors instead of
    /// panics.
    pub fault: std::sync::Arc<std::sync::OnceLock<pgss_cpu::MachineFault>>,
}

impl Default for SimContext {
    fn default() -> SimContext {
        SimContext {
            ladder: None,
            recorder: std::sync::Arc::new(pgss_obs::NoopRecorder),
            fault: std::sync::Arc::new(std::sync::OnceLock::new()),
        }
    }
}

impl SimContext {
    /// A context with no acceleration and no metrics.
    pub fn none() -> SimContext {
        SimContext::default()
    }

    /// A context carrying `ladder`.
    pub fn with_ladder(ladder: std::sync::Arc<CheckpointLadder>) -> SimContext {
        SimContext {
            ladder: Some(ladder),
            ..SimContext::default()
        }
    }

    /// A context carrying `recorder`.
    pub fn with_recorder(recorder: std::sync::Arc<dyn pgss_obs::Recorder>) -> SimContext {
        SimContext {
            recorder,
            ..SimContext::default()
        }
    }

    /// The first machine fault deposited by any driver pass bound to this
    /// context, if one occurred.
    pub fn first_fault(&self) -> Option<pgss_cpu::MachineFault> {
        self.fault.get().copied()
    }

    /// A fresh driver pass over `workload`, tracking `track`, with this
    /// context bound to it (see [`SimContext::bind`]). Every technique
    /// builds each of its passes here, so instrumented and accelerated
    /// campaigns see every pass.
    pub fn driver(&self, workload: &Workload, config: &MachineConfig, track: Track) -> SimDriver {
        let mut driver = SimDriver::new(workload, config, track);
        self.bind(&mut driver);
        driver
    }

    /// Attaches everything this context carries to a driver pass: the
    /// ladder (if any), the recorder and the fault slot.
    pub fn bind(&self, driver: &mut SimDriver) {
        if let Some(ladder) = &self.ladder {
            driver.attach_ladder(std::sync::Arc::clone(ladder));
        }
        driver.attach_recorder(std::sync::Arc::clone(&self.recorder));
        driver.attach_fault_sink(std::sync::Arc::clone(&self.fault));
    }
}

#[cfg(test)]
// Tests may unwrap: a panic here is a test failure, not a lost campaign.
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn workload() -> Workload {
        pgss_workloads::gzip(0.005)
    }

    #[test]
    fn machine_snapshot_codec_roundtrips() {
        let w = workload();
        let mut m = w.machine();
        m.run(Mode::Functional, 40_000);
        let snap = m.snapshot();
        let bytes = encode_machine_snapshot(&snap);
        let back = decode_machine_snapshot(&bytes).unwrap();
        assert_eq!(snap, back);
        // Compressed far below the raw 32 MiB memory image.
        assert!(
            bytes.len() < 8 * snap.mem.len() / 4,
            "encoded {} bytes for {} mem words",
            bytes.len(),
            snap.mem.len()
        );
    }

    #[test]
    fn snapshot_decoder_rejects_version_and_corruption() {
        let w = workload();
        let snap = w.machine().snapshot();
        let mut bytes = encode_machine_snapshot(&snap);
        bytes[0] ^= 0xff; // version field
        assert!(decode_machine_snapshot(&bytes).is_err());
        let good = encode_machine_snapshot(&snap);
        assert!(decode_machine_snapshot(&good[..good.len() - 3]).is_err());
    }

    #[test]
    fn keys_separate_workload_config_and_offset() {
        let w = workload();
        let cfg = MachineConfig::default();
        let base = CheckpointKey::new(&w, &cfg, 100).hash();
        assert_eq!(CheckpointKey::new(&w, &cfg, 100).hash(), base);
        assert_ne!(CheckpointKey::new(&w, &cfg, 200).hash(), base);
        let other_cfg = MachineConfig {
            issue_width: 2,
            ..cfg
        };
        assert_ne!(CheckpointKey::new(&w, &other_cfg, 100).hash(), base);
        let other_w = pgss_workloads::wupwise(0.005);
        assert_ne!(CheckpointKey::new(&other_w, &cfg, 100).hash(), base);
    }

    #[test]
    fn ladder_capture_places_rungs_on_stride_boundaries() {
        let w = workload();
        let cfg = MachineConfig::default();
        let spec = LadderSpec::machine_only(25_000);
        let ladder = CheckpointLadder::capture(&w, &cfg, &spec);
        assert!(!ladder.is_empty());
        let total = ladder.report().capture_ops;
        assert_eq!(ladder.len() as u64, total / 25_000);
        for (i, rung) in ladder.rungs.iter().enumerate() {
            assert_eq!(rung.retired, (i as u64 + 1) * 25_000);
        }
        // best_rung_in picks the highest rung in range.
        let r = ladder.best_rung_in(0, 60_000).unwrap();
        assert_eq!(r.retired, 50_000);
        assert!(ladder.best_rung_in(50_000, 50_000).is_none());
        assert!(ladder.best_rung_in(0, 10_000).is_none());
    }

    #[test]
    fn ladder_rungs_match_direct_snapshots() {
        let w = workload();
        let cfg = MachineConfig::default();
        let ladder = CheckpointLadder::capture(&w, &cfg, &LadderSpec::machine_only(30_000));
        let mut m = w.machine_with(cfg);
        m.run(Mode::Functional, 60_000);
        let direct = m.snapshot();
        let rung = ladder.best_rung_in(0, 60_000).unwrap();
        assert_eq!(rung.retired, 60_000);
        assert_eq!(rung.machine, direct);
    }

    #[test]
    fn jumping_into_a_fresh_machine_copies_only_nonzero_pages() {
        let w = workload();
        let cfg = MachineConfig::default();
        let ladder = CheckpointLadder::capture(&w, &cfg, &LadderSpec::machine_only(30_000));
        let rung = ladder.best_rung_in(0, 60_000).unwrap();
        let nonzero = rung.machine.mem.nonzero_pages();
        assert!(
            nonzero > 0 && nonzero < rung.machine.mem.pages().len(),
            "{nonzero} non-zero pages"
        );
        // The fresh machine's dirty pages are the ones its initial image
        // wrote, all of which are still non-zero in the rung.
        let mut m = w.machine_with(cfg);
        assert_eq!(m.restore(&rung.machine), nonzero);
        assert_eq!(m.snapshot(), rung.machine);
        // A decoded rung restores the same pages.
        let decoded = decode_machine_snapshot(&encode_machine_snapshot(&rung.machine)).unwrap();
        assert_eq!(decoded.mem.nonzero_pages(), nonzero);
        assert_eq!(w.machine_with(cfg).restore(&decoded), nonzero);
    }

    #[test]
    fn ladder_store_roundtrip_and_corruption_fallback() {
        // No other test's fault plan may fire on this store.
        #[cfg(feature = "fault-inject")]
        let _serial = crate::faults::serialize();
        let dir = std::env::temp_dir().join(format!("pgss-ladder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let w = workload();
        let cfg = MachineConfig::default();
        let spec = LadderSpec {
            stride: 40_000,
            hashed_seeds: vec![7],
            with_full: false,
        };
        let captured = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert!(captured.report().capture_ops > 0, "first build captures");
        let loaded = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert_eq!(loaded.report().capture_ops, 0, "second build loads");
        assert_eq!(loaded.len(), captured.len());
        for (a, b) in loaded.rungs.iter().zip(&captured.rungs) {
            assert_eq!(a.retired, b.retired);
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.hashed_cum, b.hashed_cum);
        }
        // Corrupt one rung record: the load path falls back to capture.
        let tag = CheckpointLadder::spec_tag(&spec);
        let key = CheckpointKey::new(&w, &cfg, spec.stride).hash_with_tag(tag);
        let path = store.path_for(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let refetched = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert!(
            refetched.report().capture_ops > 0,
            "corrupt rung must force recapture"
        );
        // Self-healing: the corrupt record was quarantined (not deleted),
        // the event was logged, and the recapture wrote a healthy record
        // back, so the next load is clean.
        let log = refetched.fault_log();
        assert!(
            log.iter().any(|l| l.contains("quarantined")
                && l.contains(w.name())
                && l.contains(&format!("@{}", spec.stride))),
            "fault log must name the quarantined rung: {log:?}"
        );
        assert!(store
            .quarantine_dir()
            .join(format!("{key:016x}.rec"))
            .exists());
        let healed = CheckpointLadder::load_or_capture(&store, &w, &cfg, &spec);
        assert_eq!(healed.report().capture_ops, 0, "store did not self-heal");
        assert!(healed.fault_log().is_empty());
        for (a, b) in healed.rungs.iter().zip(&captured.rungs) {
            assert_eq!(a.machine, b.machine, "healed rung differs from capture");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
