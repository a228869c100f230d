//! The shared sampling engine: [`SimDriver`] owns the machine loop every
//! technique used to hand-roll, and [`SamplingPolicy`] is the per-technique
//! brain that decides which segment to execute next from what it has
//! observed so far.
//!
//! The split mirrors live-sampling systems such as Pac-Sim: one engine
//! executes a stream of *segments* (a [`pgss_cpu::Mode`] plus an op budget),
//! handles halt and truncation uniformly, accumulates the per-mode retired
//! counts and the retired-op position, and maintains a [`RunTrace`] of what
//! happened; policies are small state machines that never touch the machine
//! directly. A technique is then "construct driver(s), run policy(ies),
//! compose an [`crate::Estimate`]" — and a campaign runner can fan many such
//! runs across threads because the engine has no global state.
//!
//! # Example
//!
//! ```no_run
//! use pgss::driver::{Directive, RunTrace, SamplingPolicy, Segment, SegmentOutcome, SimDriver, Track};
//! use pgss_cpu::Mode;
//!
//! /// Measure one 10k-op detailed sample and stop.
//! struct OneSample(Option<SegmentOutcome>);
//! impl SamplingPolicy for OneSample {
//!     fn next(&mut self, _trace: &mut RunTrace) -> Directive {
//!         if self.0.is_some() {
//!             Directive::Finish
//!         } else {
//!             Directive::Run(Segment::new(Mode::DetailedMeasured, 10_000))
//!         }
//!     }
//!     fn observe(&mut self, outcome: &SegmentOutcome, trace: &mut RunTrace) {
//!         trace.samples_taken += 1;
//!         self.0 = Some(outcome.clone());
//!     }
//! }
//!
//! let w = pgss_workloads::gzip(0.01);
//! let mut driver = SimDriver::new(&w, &pgss_cpu::MachineConfig::default(), Track::None);
//! let mut policy = OneSample(None);
//! driver.run(&mut policy);
//! println!("retired {} ops", driver.retired());
//! ```

use std::sync::{Arc, OnceLock};

use pgss_bbv::{BbvHash, FullBbv, FullBbvTracker, HashedBbv, HashedBbvTracker, MavTracker};
use pgss_cpu::{Machine, MachineConfig, MachineFault, MachineSnapshot, Mode, ModeOps};
use pgss_obs::{Recorder, Span};
use pgss_workloads::Workload;

use crate::ckpt::CheckpointLadder;

/// The `driver.ops.*` / `driver.segments.*` counter names for a mode.
fn mode_metric_keys(mode: Mode) -> (&'static str, &'static str) {
    match mode {
        Mode::FastForward => ("driver.ops.fast_forward", "driver.segments.fast_forward"),
        Mode::Functional => ("driver.ops.functional", "driver.segments.functional"),
        Mode::DetailedWarming => ("driver.ops.warm", "driver.segments.warm"),
        Mode::DetailedMeasured => ("driver.ops.detail", "driver.segments.detail"),
    }
}

/// The `driver.wall.*` span name for a mode: wall time spent inside
/// `Machine::run_with` for that mode's segments. Dividing the matching
/// `driver.ops.*` counter by this span's total yields per-mode interpreter
/// throughput (see [`pgss_obs::MetricsFrame::rate_per_sec`]). Span *counts*
/// are deterministic (one per executed segment); the wall total is real
/// time and stays out of the byte-stable export, like every span.
pub fn mode_wall_key(mode: Mode) -> &'static str {
    match mode {
        Mode::FastForward => "driver.wall.fast_forward",
        Mode::Functional => "driver.wall.functional",
        Mode::DetailedWarming => "driver.wall.warm",
        Mode::DetailedMeasured => "driver.wall.detail",
    }
}

/// What the driver's retire sink tracks alongside execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// No BBV tracking; segments never yield vectors.
    None,
    /// The paper's hashed BBV (32 registers), hash chosen by this seed.
    Hashed(u64),
    /// SimPoint-style full per-static-block BBVs.
    Full,
    /// Memory Access Vectors: per-interval counts of data accesses binned
    /// into 32 memory regions ([`pgss_bbv::MavTracker`]). The vector is
    /// [`HashedBbv`]-shaped and delivered as [`Bbv::Hashed`], so phase
    /// tables and clustering consume either signature unchanged.
    Mav,
}

/// Which phase-signature family a phase-aware technique collects —
/// selectable per technique so offline/online SimPoint and PGSS can each
/// run on either control-flow or data-access signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Signature {
    /// The technique's native basic-block-vector signature: the paper's
    /// hashed branch BBV for the online techniques, the full
    /// per-static-block BBV for offline SimPoint.
    #[default]
    Bbv,
    /// Memory Access Vector ([`Track::Mav`]): phases distinguished by
    /// which memory regions the program touches rather than which
    /// branches it takes.
    Mav,
}

impl Signature {
    /// The driver track for a hashed-BBV-native (online) technique whose
    /// hash seed is `seed`.
    pub fn hashed_track(self, seed: u64) -> Track {
        match self {
            Signature::Bbv => Track::Hashed(seed),
            Signature::Mav => Track::Mav,
        }
    }

    /// The driver track for a full-BBV-native (offline SimPoint) profile
    /// pass.
    pub fn full_track(self) -> Track {
        match self {
            Signature::Bbv => Track::Full,
            Signature::Mav => Track::Mav,
        }
    }

    /// Technique-name suffix distinguishing the MAV variant (`""` or
    /// `"-MAV"`), so default names stay byte-identical.
    pub fn name_suffix(self) -> &'static str {
        match self {
            Signature::Bbv => "",
            Signature::Mav => "-MAV",
        }
    }
}

/// One unit of execution: run up to `max_ops` retired instructions in
/// `mode`, optionally closing a BBV interval at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Simulation mode for this segment.
    pub mode: Mode,
    /// Retired-instruction budget; the segment ends early on halt.
    pub max_ops: u64,
    /// When `true`, the tracker's accumulated vector is taken at the end of
    /// the segment and delivered in [`SegmentOutcome::bbv`] — tracking
    /// itself runs continuously across segments, exactly like the paper's
    /// hardware, so warming/measured ops between intervals still land in
    /// the following interval's vector.
    pub take_bbv: bool,
}

impl Segment {
    /// A segment with no BBV interval boundary.
    pub fn new(mode: Mode, max_ops: u64) -> Segment {
        Segment {
            mode,
            max_ops,
            take_bbv: false,
        }
    }

    /// A segment that closes a BBV interval when it ends.
    pub fn with_bbv(mode: Mode, max_ops: u64) -> Segment {
        Segment {
            mode,
            max_ops,
            take_bbv: true,
        }
    }
}

/// A basic-block vector taken at a segment boundary.
// A `SegmentOutcome` is consumed immediately by the policy, never stored in
// bulk, so the inline 264-byte `HashedBbv` beats a per-segment allocation.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Bbv {
    /// A hashed 32-register vector ([`Track::Hashed`]).
    Hashed(HashedBbv),
    /// A full per-static-block vector, L2-normalised ([`Track::Full`]).
    Full(Vec<f64>),
}

impl Bbv {
    /// The hashed vector, panicking for other kinds (policy/driver
    /// tracking-mode mismatch is a programming error).
    pub fn hashed(&self) -> &HashedBbv {
        match self {
            Bbv::Hashed(v) => v,
            Bbv::Full(_) => panic!("expected a hashed BBV, driver is tracking full BBVs"),
        }
    }

    /// The normalised full vector, panicking for other kinds.
    pub fn full(&self) -> &[f64] {
        match self {
            Bbv::Full(v) => v,
            Bbv::Hashed(_) => panic!("expected a full BBV, driver is tracking hashed BBVs"),
        }
    }
}

/// What happened when a [`Segment`] executed.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentOutcome {
    /// The segment as requested.
    pub segment: Segment,
    /// Instructions retired during the segment (< `max_ops` on halt).
    pub ops: u64,
    /// Cycles elapsed (zero in functional modes).
    pub cycles: u64,
    /// Whether the program halted during (or before) the segment.
    pub halted: bool,
    /// Cumulative retired instructions across the whole run, *after* this
    /// segment — the retired-op position sampling rules key on.
    pub retired: u64,
    /// The BBV interval closed by this segment, if `take_bbv` was set.
    pub bbv: Option<Bbv>,
}

impl SegmentOutcome {
    /// CPI of this segment; panics in functional modes (no timing model).
    pub fn cpi(&self) -> f64 {
        assert!(self.ops > 0, "CPI of an empty segment");
        self.cycles as f64 / self.ops as f64
    }

    /// `true` when the segment retired its full budget.
    pub fn complete(&self) -> bool {
        self.ops == self.segment.max_ops
    }
}

/// What a policy wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Execute this segment, then call
    /// [`SamplingPolicy::observe`] with its outcome.
    Run(Segment),
    /// The run is over.
    Finish,
}

/// Counters describing one run through the driver — which segments
/// executed, which samples were taken or skipped and why, and what the
/// phase table did. Cheap plain counters, always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTrace {
    /// Segments executed per mode, indexed like [`Mode`]
    /// (fast-forward, functional, detailed-warming, detailed-measured).
    pub segments: [u64; 4],
    /// Segments that ended before their op budget (halt), excluding
    /// run-to-halt segments (`max_ops == u64::MAX`).
    pub truncated_segments: u64,
    /// Measured samples credited to the estimate (policy-maintained).
    pub samples_taken: u64,
    /// Samples skipped because the phase's confidence interval was met.
    pub skipped_ci_met: u64,
    /// Samples skipped by the sample-spacing rule.
    pub skipped_spacing: u64,
    /// Phases created in the phase table.
    pub phases_created: u64,
    /// Interval-to-interval phase transitions observed.
    pub phase_changes: u64,
}

impl RunTrace {
    /// Total segments executed across all modes.
    pub fn total_segments(&self) -> u64 {
        self.segments.iter().sum()
    }

    /// Samples skipped for any reason.
    pub fn samples_skipped(&self) -> u64 {
        self.skipped_ci_met + self.skipped_spacing
    }

    /// Accumulates another trace (for techniques that run several passes).
    pub fn merge(&mut self, other: &RunTrace) {
        for (a, b) in self.segments.iter_mut().zip(&other.segments) {
            *a += b;
        }
        self.truncated_segments += other.truncated_segments;
        self.samples_taken += other.samples_taken;
        self.skipped_ci_met += other.skipped_ci_met;
        self.skipped_spacing += other.skipped_spacing;
        self.phases_created += other.phases_created;
        self.phase_changes += other.phase_changes;
    }
}

/// A sampling technique's decision procedure, driven by [`SimDriver::run`]:
/// `next` picks the segment to execute (or finishes), `observe` digests the
/// outcome. Both receive the run's [`RunTrace`] so policies can record
/// sample/skip/phase events next to the driver's segment counters.
pub trait SamplingPolicy {
    /// The next segment to execute, or [`Directive::Finish`].
    fn next(&mut self, trace: &mut RunTrace) -> Directive;

    /// Digests the outcome of the segment most recently issued by
    /// [`SamplingPolicy::next`]. Called for every executed segment,
    /// including ones cut short by a halt.
    fn observe(&mut self, outcome: &SegmentOutcome, trace: &mut RunTrace);
}

/// The tracking sink composed into every segment execution: all trackers
/// optional, so one monomorphized `run_with` path covers all techniques.
type TrackSink = (
    Option<HashedBbvTracker>,
    Option<FullBbvTracker>,
    Option<MavTracker>,
);

/// Everything needed to resume a driver pass exactly where another left
/// off: the machine's architectural and warm state, the retired-op
/// position, and the in-flight (untaken) BBV tracker state.
///
/// Produced by [`SimDriver::snapshot`], consumed by
/// [`SimDriver::from_snapshot`]; serialised by
/// [`crate::ckpt::encode_driver_snapshot`]. The restore-then-run
/// guarantee is bit-exactness: a driver restored at position X observes
/// segment outcomes identical to one that executed to X uninterrupted.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverSnapshot {
    /// Complete machine state (architectural + warm microarchitectural).
    pub machine: MachineSnapshot,
    /// Cumulative retired instructions at the capture point.
    pub retired: u64,
    /// The hashed tracker's accumulated-but-untaken interval vector, when
    /// the capturing driver tracked [`Track::Hashed`] — or the MAV
    /// tracker's (the MAV is [`HashedBbv`]-shaped) under [`Track::Mav`].
    pub hashed_current: Option<HashedBbv>,
    /// The full tracker's accumulated-but-untaken interval vector, when
    /// the capturing driver tracked [`Track::Full`].
    pub full_current: Option<FullBbv>,
}

/// The shared execution engine. Owns the machine, the (optional) BBV
/// tracker, the cumulative retired-op position, and the [`RunTrace`].
///
/// A driver instance is one *pass* over a workload; techniques that make
/// several passes (SimPoint's profile + replay, Online SimPoint's oracle +
/// charged run) construct one driver per pass and merge the traces.
pub struct SimDriver {
    machine: Machine,
    sink: TrackSink,
    track: Track,
    retired: u64,
    trace: RunTrace,
    /// Checkpoint ladder to jump with / charge executed ops to, if any.
    ladder: Option<Arc<CheckpointLadder>>,
    /// Whether functional segments may be replaced by ladder restores:
    /// requires the ladder to cover this driver's track, and (for tracked
    /// drivers) attachment before any execution so the taken-interval
    /// cumulative below is complete.
    jumps_ok: bool,
    /// Index of this driver's hash seed in the ladder's carried tracks.
    seed_idx: Option<usize>,
    /// Sum of every hashed interval vector taken so far; a rung's
    /// cumulative minus this is exactly the tracker state a continuous
    /// run would hold at the rung.
    hashed_taken: HashedBbv,
    /// Full-BBV counterpart of `hashed_taken`.
    full_taken: Option<FullBbv>,
    /// Metrics sink for per-segment op counters; `None` (the common case)
    /// costs nothing on the hot path.
    recorder: Option<Arc<dyn Recorder>>,
    /// Shared slot where the first machine fault of the run is deposited,
    /// so campaign plumbing can surface it as a typed cell error without
    /// unwinding. `None` when no one is listening.
    fault_sink: Option<Arc<OnceLock<MachineFault>>>,
}

impl SimDriver {
    /// Builds a fresh machine for `workload` and a tracker per `track`.
    pub fn new(workload: &Workload, config: &MachineConfig, track: Track) -> SimDriver {
        let machine = workload.machine_with(*config);
        let sink = match track {
            Track::None => (None, None, None),
            Track::Hashed(seed) => (
                Some(HashedBbvTracker::new(BbvHash::from_seed(seed))),
                None,
                None,
            ),
            Track::Full => (None, Some(FullBbvTracker::new(workload.program())), None),
            Track::Mav => (None, None, Some(MavTracker::new(machine.memory().len()))),
        };
        SimDriver {
            machine,
            sink,
            track,
            retired: 0,
            trace: RunTrace::default(),
            ladder: None,
            jumps_ok: false,
            seed_idx: None,
            hashed_taken: HashedBbv::new(),
            full_taken: None,
            recorder: None,
            fault_sink: None,
        }
    }

    /// Builds a driver resuming from `snap` instead of from op 0; see
    /// [`SimDriver::restore_from`].
    ///
    /// # Panics
    ///
    /// Panics if `track` requires tracker state the snapshot does not
    /// carry (it was captured by a driver with a different track).
    pub fn from_snapshot(
        workload: &Workload,
        config: &MachineConfig,
        track: Track,
        snap: &DriverSnapshot,
    ) -> SimDriver {
        let mut d = SimDriver::new(workload, config, track);
        d.restore_from(snap);
        d
    }

    /// Resumes this driver from `snap`: machine state is restored
    /// (copying only the memory pages that differ, see
    /// [`Machine::restore`]), the position becomes `snap.retired`, and
    /// tracker state is re-seeded from the snapshot. Attachments and the
    /// [`RunTrace`] are kept, so one driver can replay many checkpoints
    /// and report one trace for all of them.
    ///
    /// A tracked driver stops jumping over ladder rungs: the
    /// taken-interval cumulative a jump needs is unknown after a restore.
    ///
    /// # Panics
    ///
    /// Panics if this driver's track requires tracker state the snapshot
    /// does not carry (it was captured by a driver with a different
    /// track).
    pub fn restore_from(&mut self, snap: &DriverSnapshot) {
        self.machine.restore(&snap.machine);
        self.retired = snap.retired;
        if let (Some(t), _, _) = &mut self.sink {
            let cur = snap
                .hashed_current
                .as_ref()
                .expect("snapshot lacks the hashed tracker state this track requires");
            t.set_current(*cur);
        }
        if let (_, Some(t), _) = &mut self.sink {
            let cur = snap
                .full_current
                .clone()
                .expect("snapshot lacks the full tracker state this track requires");
            t.set_current(cur);
        }
        if let (_, _, Some(t)) = &mut self.sink {
            let cur = snap
                .hashed_current
                .as_ref()
                .expect("snapshot lacks the MAV tracker state this track requires");
            t.set_current(*cur);
        }
        self.jumps_ok &= matches!(self.track, Track::None);
    }

    /// Captures the driver's complete resumable state; see
    /// [`DriverSnapshot`] and [`Machine::snapshot`].
    pub fn snapshot(&mut self) -> DriverSnapshot {
        DriverSnapshot {
            machine: self.machine.snapshot(),
            retired: self.retired,
            hashed_current: self
                .sink
                .0
                .as_ref()
                .map(|t| *t.current())
                .or_else(|| self.sink.2.as_ref().map(|t| *t.current())),
            full_current: self.sink.1.as_ref().map(|t| t.current().clone()),
        }
    }

    /// Attaches a checkpoint ladder. From here on, every op this driver
    /// executes is charged to the ladder's counters, and — when the
    /// ladder covers this driver's track — functional segments are
    /// *jumped*: instead of executing up to a rung inside the segment,
    /// the rung is restored, the skipped ops are charged as functional
    /// (so [`crate::Estimate`]s stay byte-identical), and only the
    /// remainder executes.
    ///
    /// Tracked drivers ([`Track::Hashed`] / [`Track::Full`]) must attach
    /// before executing anything; attached later they still charge
    /// executed ops but never jump, because the taken-interval cumulative
    /// needed to reconstruct tracker state is unknown.
    pub fn attach_ladder(&mut self, ladder: Arc<CheckpointLadder>) {
        let covers = match self.track {
            Track::None => true,
            Track::Hashed(seed) => {
                self.seed_idx = ladder.seed_index(seed);
                self.seed_idx.is_some()
            }
            Track::Full => ladder.has_full(),
            // Ladders carry no region-access cumulatives, so MAV drivers
            // charge executed ops but never jump.
            Track::Mav => false,
        };
        self.jumps_ok = covers && (self.retired == 0 || matches!(self.track, Track::None));
        if self.jumps_ok {
            self.hashed_taken = HashedBbv::new();
            self.full_taken = self
                .sink
                .1
                .as_ref()
                .map(|t| FullBbv::zeroed(t.current().dim()));
        }
        self.ladder = Some(ladder);
    }

    /// Attaches a metrics recorder. Every executed segment then reports
    /// `driver.segments.<mode>` (+1), `driver.ops.<mode>` (the segment's
    /// *logical* ops, including any distance covered by a ladder jump),
    /// and `driver.ops.jumped` / `driver.jumps` for skipped work. All
    /// values are deterministic, so recorded frames are byte-comparable
    /// across runs. A disabled recorder is not retained — the hot path
    /// stays a single `Option` check.
    pub fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder.enabled().then_some(recorder);
    }

    /// Attaches a shared fault slot. If any segment of this run aborts on
    /// a [`MachineFault`] (e.g. an out-of-range indirect jump), the first
    /// such fault is deposited into the slot; later faults — from this
    /// driver or from sibling passes sharing the slot — are dropped, so
    /// the slot always reports the run's *first* structured abort.
    pub fn attach_fault_sink(&mut self, slot: Arc<OnceLock<MachineFault>>) {
        self.fault_sink = Some(slot);
    }

    /// The fault that halted this driver's machine, if any.
    pub fn fault(&self) -> Option<MachineFault> {
        self.machine.fault()
    }

    /// Runs `policy` to completion: alternately asks it for a segment and
    /// hands back the outcome, until it answers [`Directive::Finish`].
    pub fn run<P: SamplingPolicy + ?Sized>(&mut self, policy: &mut P) {
        while let Directive::Run(segment) = policy.next(&mut self.trace) {
            let outcome = self.execute(segment);
            policy.observe(&outcome, &mut self.trace);
        }
    }

    /// Executes a single segment: one `run_with` call with the composed
    /// tracking sink, uniform halt/truncation handling, position and trace
    /// accounting.
    ///
    /// With a covering [`CheckpointLadder`] attached, a functional
    /// segment that spans a rung restores the highest such rung and
    /// executes only the remainder. The outcome — ops, halt flag,
    /// truncation, position, any taken BBV — and the machine's logical
    /// [`ModeOps`] are identical to full execution; only the physical
    /// work differs, which the ladder's counters record.
    pub fn execute(&mut self, segment: Segment) -> SegmentOutcome {
        let mut skipped = 0u64;
        if segment.mode == Mode::Functional && self.jumps_ok && !self.machine.halted() {
            if let Some(ladder) = &self.ladder {
                let upto = self.retired.saturating_add(segment.max_ops);
                if let Some(rung) = ladder.best_rung_in(self.retired, upto) {
                    skipped = rung.retired - self.retired;
                    let pre = self.machine.mode_ops();
                    self.machine.restore(&rung.machine);
                    // The restored machine carries the capture pass's op
                    // accounting; charge this run's instead, with the
                    // skipped distance as the functional ops it stands for.
                    self.machine.set_mode_ops(ModeOps {
                        functional: pre.functional + skipped,
                        ..pre
                    });
                    if let (Some(tr), _, _) = &mut self.sink {
                        let idx = self.seed_idx.expect("jumps_ok implies seed coverage");
                        tr.set_current(rung.hashed_cum[idx].diff(&self.hashed_taken));
                    }
                    if let (_, Some(tr), _) = &mut self.sink {
                        let cum = rung
                            .full_cum
                            .as_ref()
                            .expect("jumps_ok implies full-BBV coverage");
                        let taken = self
                            .full_taken
                            .as_ref()
                            .expect("full taken cumulative initialised at attach");
                        tr.set_current(cum.diff(taken));
                    }
                    self.retired = rung.retired;
                    ladder.record_jump(skipped);
                }
            }
        }
        let r = {
            // Time the interpreter call per mode (span count stays
            // deterministic: one per segment; the wall total never enters
            // the byte-stable export).
            let _wall = self
                .recorder
                .as_deref()
                .map(|rec| Span::enter(rec, mode_wall_key(segment.mode)));
            self.machine
                .run_with(segment.mode, segment.max_ops - skipped, &mut self.sink)
        };
        if let Some(fault) = self.machine.fault() {
            if let Some(slot) = &self.fault_sink {
                let _ = slot.set(fault);
            }
        }
        if let Some(ladder) = &self.ladder {
            ladder.record_executed(r.ops);
        }
        let ops = skipped + r.ops;
        self.retired += r.ops;
        self.trace.segments[segment.mode as usize] += 1;
        if ops < segment.max_ops && segment.max_ops != u64::MAX {
            self.trace.truncated_segments += 1;
        }
        if let Some(rec) = &self.recorder {
            let (ops_key, seg_key) = mode_metric_keys(segment.mode);
            rec.add(ops_key, ops);
            rec.add(seg_key, 1);
            if skipped > 0 {
                rec.add("driver.jumps", 1);
                rec.add("driver.ops.jumped", skipped);
            }
        }
        let bbv = if segment.take_bbv {
            match &mut self.sink {
                (Some(hashed), _, _) => {
                    let v = hashed.take();
                    if self.jumps_ok {
                        self.hashed_taken.merge(&v);
                    }
                    Some(Bbv::Hashed(v))
                }
                (_, Some(full), _) => {
                    let v = full.take();
                    if let Some(taken) = &mut self.full_taken {
                        taken.merge(&v);
                    }
                    Some(Bbv::Full(v.normalized()))
                }
                (_, _, Some(mav)) => Some(Bbv::Hashed(mav.take())),
                (None, None, None) => {
                    panic!("segment requested a BBV but the driver tracks nothing")
                }
            }
        } else {
            None
        };
        SegmentOutcome {
            segment,
            ops,
            cycles: r.cycles,
            halted: r.halted,
            retired: self.retired,
            bbv,
        }
    }

    /// Per-mode retired instructions accumulated by this driver's machine.
    pub fn mode_ops(&self) -> ModeOps {
        self.machine.mode_ops()
    }

    /// Cumulative retired instructions across all segments so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The run's trace counters.
    pub fn trace(&self) -> &RunTrace {
        &self.trace
    }

    /// Whether the underlying machine has halted.
    pub fn halted(&self) -> bool {
        self.machine.halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        let mut b = pgss_workloads::WorkloadBuilder::new("tiny", 11);
        let seg = b.add_segment(pgss_workloads::Kernel::ComputeInt {
            chains: 4,
            ops_per_chain: 3,
        });
        b.run(seg, 300_000);
        b.finish()
    }

    /// Runs a fixed segment plan, recording outcomes.
    struct Plan {
        segments: Vec<Segment>,
        next: usize,
        outcomes: Vec<SegmentOutcome>,
        stop_on_halt: bool,
    }

    impl Plan {
        fn new(segments: Vec<Segment>) -> Plan {
            Plan {
                segments,
                next: 0,
                outcomes: Vec::new(),
                stop_on_halt: false,
            }
        }
    }

    impl SamplingPolicy for Plan {
        fn next(&mut self, _trace: &mut RunTrace) -> Directive {
            if self.stop_on_halt && self.outcomes.last().is_some_and(|o| o.halted) {
                return Directive::Finish;
            }
            match self.segments.get(self.next) {
                Some(&s) => {
                    self.next += 1;
                    Directive::Run(s)
                }
                None => Directive::Finish,
            }
        }

        fn observe(&mut self, outcome: &SegmentOutcome, _trace: &mut RunTrace) {
            self.outcomes.push(outcome.clone());
        }
    }

    #[test]
    fn op_accounting_matches_machine() {
        let w = tiny_workload();
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::None);
        let mut p = Plan::new(vec![
            Segment::new(Mode::Functional, 50_000),
            Segment::new(Mode::DetailedWarming, 3_000),
            Segment::new(Mode::DetailedMeasured, 1_000),
            Segment::new(Mode::Functional, 50_000),
        ]);
        d.run(&mut p);
        let ops = d.mode_ops();
        assert_eq!(ops.functional, 100_000);
        assert_eq!(ops.detailed_warming, 3_000);
        assert_eq!(ops.detailed_measured, 1_000);
        assert_eq!(d.retired(), ops.total());
        // Outcomes carry the running position.
        assert_eq!(p.outcomes[0].retired, 50_000);
        assert_eq!(p.outcomes[2].retired, 54_000);
        assert_eq!(p.outcomes[3].retired, 104_000);
        assert_eq!(d.trace().segments, [0, 2, 1, 1]);
        assert_eq!(d.trace().truncated_segments, 0);
    }

    #[test]
    fn halt_mid_segment_truncates_uniformly() {
        let w = tiny_workload();
        let total = {
            let mut m = w.machine();
            m.run(Mode::Functional, u64::MAX).ops
        };
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::None);
        // Second segment's budget reaches past the halt.
        let mut p = Plan::new(vec![
            Segment::new(Mode::Functional, total - 1_000),
            Segment::new(Mode::DetailedMeasured, 50_000),
            Segment::new(Mode::DetailedMeasured, 50_000),
        ]);
        p.stop_on_halt = true;
        d.run(&mut p);
        assert_eq!(
            p.outcomes.len(),
            2,
            "policy finishes after observing the halt"
        );
        let halted = &p.outcomes[1];
        assert!(halted.halted);
        assert!(!halted.complete());
        assert_eq!(halted.ops, 1_000, "exactly the ops left before the halt");
        assert_eq!(d.retired(), total);
        assert_eq!(d.trace().truncated_segments, 1);
    }

    #[test]
    fn segments_after_halt_are_empty_not_errors() {
        let w = tiny_workload();
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::None);
        let mut p = Plan::new(vec![
            Segment::new(Mode::Functional, u64::MAX),
            Segment::new(Mode::DetailedMeasured, 1_000),
        ]);
        d.run(&mut p);
        assert!(p.outcomes[0].halted);
        let after = &p.outcomes[1];
        assert_eq!(after.ops, 0);
        assert!(after.halted);
        assert_eq!(after.retired, p.outcomes[0].retired);
    }

    #[test]
    fn run_to_halt_budget_is_not_counted_truncated() {
        let w = tiny_workload();
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::None);
        d.run(&mut Plan::new(vec![Segment::new(
            Mode::Functional,
            u64::MAX,
        )]));
        assert_eq!(d.trace().truncated_segments, 0);
    }

    #[test]
    fn hashed_tracking_spans_segments_until_taken() {
        let w = pgss_workloads::gzip(0.01);
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::Hashed(7));
        let mut p = Plan::new(vec![
            // Tracking accumulates across both segments; only the second
            // closes the interval.
            Segment::new(Mode::Functional, 20_000),
            Segment::with_bbv(Mode::Functional, 20_000),
            Segment::with_bbv(Mode::Functional, 20_000),
        ]);
        d.run(&mut p);
        assert!(p.outcomes[0].bbv.is_none());
        let first = p.outcomes[1]
            .bbv
            .as_ref()
            .expect("interval closed")
            .hashed()
            .total_ops();
        let second = p.outcomes[2].bbv.as_ref().unwrap().hashed().total_ops();
        // First vector covers ~two segments of ops, second only one.
        assert!(first > second, "first {first} vs second {second}");
    }

    #[test]
    fn full_tracking_yields_normalized_rows() {
        let w = pgss_workloads::gzip(0.01);
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::Full);
        let mut p = Plan::new(vec![Segment::with_bbv(Mode::Functional, 50_000)]);
        d.run(&mut p);
        let row = p.outcomes[0].bbv.as_ref().unwrap().full().to_vec();
        // FullBbv::normalized is L1 (block-execution fractions), as SimPoint
        // defines it.
        let sum: f64 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn mav_tracking_spans_segments_until_taken() {
        let w = pgss_workloads::gzip(0.01);
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::Mav);
        let mut p = Plan::new(vec![
            Segment::new(Mode::Functional, 20_000),
            Segment::with_bbv(Mode::Functional, 20_000),
            Segment::with_bbv(Mode::Functional, 20_000),
        ]);
        d.run(&mut p);
        assert!(p.outcomes[0].bbv.is_none());
        let first = p.outcomes[1]
            .bbv
            .as_ref()
            .expect("interval closed")
            .hashed()
            .total_ops();
        let second = p.outcomes[2].bbv.as_ref().unwrap().hashed().total_ops();
        // Accumulates across the untaken first segment, resets on take.
        assert!(first > second, "first {first} vs second {second}");
        assert!(second > 0, "gzip touches data memory every iteration");
    }

    #[test]
    fn mav_snapshot_roundtrip_restores_tracker() {
        let w = pgss_workloads::gzip(0.01);
        let cfg = MachineConfig::default();
        let mut a = SimDriver::new(&w, &cfg, Track::Mav);
        a.execute(Segment::new(Mode::Functional, 25_000));
        let snap = a.snapshot();
        let mut b = SimDriver::from_snapshot(&w, &cfg, Track::Mav, &snap);
        let oa = a.execute(Segment::with_bbv(Mode::Functional, 25_000));
        let ob = b.execute(Segment::with_bbv(Mode::Functional, 25_000));
        assert_eq!(
            oa.bbv.as_ref().unwrap().hashed(),
            ob.bbv.as_ref().unwrap().hashed(),
            "snapshot carries the mid-interval MAV accumulator"
        );
    }

    #[test]
    #[should_panic(expected = "tracks nothing")]
    fn bbv_request_without_tracker_panics() {
        let w = tiny_workload();
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::None);
        d.execute(Segment::with_bbv(Mode::Functional, 1_000));
    }

    #[test]
    fn snapshot_roundtrip_resumes_bit_exact() {
        let w = pgss_workloads::gzip(0.01);
        let cfg = MachineConfig::default();
        let plan_tail = || {
            vec![
                Segment::with_bbv(Mode::Functional, 30_000),
                Segment::new(Mode::DetailedWarming, 3_000),
                Segment::new(Mode::DetailedMeasured, 1_000),
                Segment::with_bbv(Mode::Functional, 30_000),
            ]
        };
        // Continuous run: prefix then tail.
        let mut cont = SimDriver::new(&w, &cfg, Track::Hashed(7));
        cont.execute(Segment::new(Mode::Functional, 25_000));
        cont.execute(Segment::with_bbv(Mode::Functional, 25_000));
        cont.execute(Segment::new(Mode::Functional, 10_000));
        let snap = cont.snapshot();
        assert_eq!(snap.retired, 60_000);
        let mut p_cont = Plan::new(plan_tail());
        cont.run(&mut p_cont);
        // Resumed run: restore at 60k, then the same tail.
        let mut resumed = SimDriver::from_snapshot(&w, &cfg, Track::Hashed(7), &snap);
        assert_eq!(resumed.retired(), 60_000);
        let mut p_res = Plan::new(plan_tail());
        resumed.run(&mut p_res);
        assert_eq!(p_cont.outcomes, p_res.outcomes);
        assert_eq!(cont.mode_ops().detailed_measured, 1_000);
    }

    #[test]
    #[should_panic(expected = "lacks the hashed tracker state")]
    fn restoring_untracked_snapshot_into_tracked_driver_panics() {
        let w = tiny_workload();
        let cfg = MachineConfig::default();
        let snap = SimDriver::new(&w, &cfg, Track::None).snapshot();
        let _ = SimDriver::from_snapshot(&w, &cfg, Track::Hashed(1), &snap);
    }

    #[test]
    fn ladder_jumps_preserve_outcomes_and_mode_ops() {
        use crate::ckpt::{CheckpointLadder, LadderSpec};
        let w = pgss_workloads::gzip(0.01);
        let cfg = MachineConfig::default();
        let plan = || {
            Plan::new(vec![
                Segment::with_bbv(Mode::Functional, 40_000),
                Segment::new(Mode::DetailedWarming, 3_000),
                Segment::new(Mode::DetailedMeasured, 1_000),
                Segment::with_bbv(Mode::Functional, 40_000),
                Segment::with_bbv(Mode::Functional, 40_000),
            ])
        };
        let mut plain = SimDriver::new(&w, &cfg, Track::Hashed(7));
        let mut p_plain = plan();
        plain.run(&mut p_plain);

        let spec = LadderSpec {
            stride: 25_000,
            hashed_seeds: vec![7],
            with_full: false,
        };
        let ladder = Arc::new(CheckpointLadder::capture(&w, &cfg, &spec));
        let mut fast = SimDriver::new(&w, &cfg, Track::Hashed(7));
        fast.attach_ladder(Arc::clone(&ladder));
        let mut p_fast = plan();
        fast.run(&mut p_fast);

        assert_eq!(p_plain.outcomes, p_fast.outcomes);
        assert_eq!(plain.mode_ops(), fast.mode_ops());
        assert_eq!(plain.trace(), fast.trace());
        let report = ladder.report();
        assert!(report.jumps > 0, "functional segments should jump");
        assert!(report.skipped_ops > 0);
        assert!(
            report.executed_ops < plain.mode_ops().total(),
            "jumping must execute strictly fewer ops"
        );
        assert_eq!(report.executed_ops + report.skipped_ops, fast.retired());
    }

    #[test]
    fn ladder_attached_midrun_charges_but_never_jumps_tracked_drivers() {
        use crate::ckpt::{CheckpointLadder, LadderSpec};
        let w = pgss_workloads::gzip(0.01);
        let cfg = MachineConfig::default();
        let spec = LadderSpec {
            stride: 20_000,
            hashed_seeds: vec![7],
            with_full: false,
        };
        let ladder = Arc::new(CheckpointLadder::capture(&w, &cfg, &spec));
        let mut d = SimDriver::new(&w, &cfg, Track::Hashed(7));
        d.execute(Segment::new(Mode::Functional, 5_000));
        d.attach_ladder(Arc::clone(&ladder));
        d.execute(Segment::new(Mode::Functional, 50_000));
        let report = ladder.report();
        assert_eq!(report.jumps, 0, "tracker state would be wrong; no jumps");
        assert_eq!(report.executed_ops, 50_000, "post-attach ops still charged");
    }

    #[test]
    fn ladder_jump_covers_run_to_halt_segments() {
        use crate::ckpt::{CheckpointLadder, LadderSpec};
        let w = tiny_workload();
        let cfg = MachineConfig::default();
        let total = {
            let mut m = w.machine();
            m.run(Mode::Functional, u64::MAX).ops
        };
        let ladder = Arc::new(CheckpointLadder::capture(
            &w,
            &cfg,
            &LadderSpec::machine_only(50_000),
        ));
        let mut d = SimDriver::new(&w, &cfg, Track::None);
        d.attach_ladder(Arc::clone(&ladder));
        let out = d.execute(Segment::new(Mode::Functional, u64::MAX));
        assert!(out.halted);
        assert_eq!(out.ops, total);
        assert_eq!(d.retired(), total);
        assert!(ladder.report().jumps > 0);
        assert!(ladder.report().executed_ops < total);
    }

    #[test]
    fn recorder_counts_logical_ops_including_jumped_distance() {
        use crate::ckpt::{CheckpointLadder, LadderSpec};
        use pgss_obs::MetricsRecorder;
        let w = tiny_workload();
        let cfg = MachineConfig::default();
        let ladder = Arc::new(CheckpointLadder::capture(
            &w,
            &cfg,
            &LadderSpec::machine_only(50_000),
        ));
        let rec = Arc::new(MetricsRecorder::new());
        let mut d = SimDriver::new(&w, &cfg, Track::None);
        d.attach_ladder(Arc::clone(&ladder));
        d.attach_recorder(Arc::clone(&rec) as Arc<dyn Recorder>);
        d.execute(Segment::new(Mode::Functional, 120_000));
        d.execute(Segment::new(Mode::DetailedWarming, 3_000));
        d.execute(Segment::new(Mode::DetailedMeasured, 1_000));
        let frame = rec.frame();
        // Logical functional ops include the jumped distance, matching
        // the machine's ModeOps accounting bit for bit.
        assert_eq!(frame.counter("driver.ops.functional"), 120_000);
        assert_eq!(frame.counter("driver.ops.warm"), 3_000);
        assert_eq!(frame.counter("driver.ops.detail"), 1_000);
        assert_eq!(frame.counter("driver.segments.functional"), 1);
        assert_eq!(frame.counter("driver.jumps"), 1);
        let jumped = frame.counter("driver.ops.jumped");
        assert!(jumped >= 100_000, "jumped {jumped}");
        assert_eq!(d.mode_ops().functional, 120_000);
    }

    #[test]
    fn disabled_recorder_is_not_retained() {
        use pgss_obs::NoopRecorder;
        let w = tiny_workload();
        let mut d = SimDriver::new(&w, &MachineConfig::default(), Track::None);
        d.attach_recorder(Arc::new(NoopRecorder));
        assert!(d.recorder.is_none());
    }

    #[test]
    fn trace_merge_accumulates() {
        let mut a = RunTrace {
            segments: [1, 2, 3, 4],
            truncated_segments: 1,
            samples_taken: 5,
            skipped_ci_met: 2,
            skipped_spacing: 1,
            phases_created: 3,
            phase_changes: 7,
        };
        a.merge(&a.clone());
        assert_eq!(a.segments, [2, 4, 6, 8]);
        assert_eq!(a.total_segments(), 20);
        assert_eq!(a.samples_taken, 10);
        assert_eq!(a.samples_skipped(), 6);
        assert_eq!(a.phase_changes, 14);
    }
}
