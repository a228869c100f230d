//! The cell scheduler: one campaign's state machine, shared by the
//! library runner and `pgss-serve`. It starts no threads and does no
//! I/O: workers claim work ([`Scheduler::claim_cell`],
//! [`Scheduler::claim_build`]), do it outside any lock, and
//! hand the outcome back. It owns the queue (a failed attempt goes back
//! to the end until the cell has used [`RetryPolicy::max_attempts`], then
//! lands in the ledger), optional leases on an injected [`Clock`], and one
//! [`CheckpointLadder`] slot per workload × configuration group. Builds
//! run one at a time in group order — store operations keep one sequence
//! whatever the thread timing — and a group's ladder is dropped once its
//! last cell settles.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use pgss_obs::Clock;

use super::{CellError, CellFailure, Job, RetryPolicy};
use crate::ckpt::{CheckpointLadder, LadderReport, LadderSpec};
use crate::driver::Track;

/// One claimed attempt at a cell, handed back to
/// [`Scheduler::finish_cell`]. The number tells a reaped attempt's late
/// result apart from its retry's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Attempt {
    /// Index of the cell in the campaign's job slice.
    pub cell: usize,
    /// Failed attempts at this cell before this one.
    pub number: u32,
}

/// Work handed out by [`Scheduler::claim_cell`] and
/// [`Scheduler::claim_build`].
#[derive(Debug)]
pub enum Claim {
    /// Build group `group`'s ladder to `spec` for the workload and
    /// configuration of job `cell`, then call [`Scheduler::finish_build`].
    Build {
        /// The group whose ladder to build.
        group: usize,
        /// A job of the group (its first).
        cell: usize,
        /// What the ladder must carry.
        spec: LadderSpec,
    },
    /// Run one attempt at a cell, with its group's ladder when there is
    /// one, then call [`Scheduler::finish_cell`].
    Cell {
        /// The attempt to report back.
        attempt: Attempt,
        /// The cell's group ladder.
        ladder: Option<Arc<CheckpointLadder>>,
    },
}

/// What the scheduler made of a finished attempt.
#[derive(Debug, PartialEq)]
pub enum Settle<T> {
    /// The cell succeeded: keep its result.
    Done(T),
    /// The attempt failed and the cell went back to the end of the queue.
    Retry,
    /// The cell used its last attempt; its failure is in the ledger.
    Failed,
    /// The attempt's lease was reaped before it returned: discard it.
    Late,
    /// The campaign was cancelled: discard it.
    Cancelled,
}

#[derive(Debug, Default)]
struct CellState {
    group: usize,
    attempts: u32,
    settled: bool,
    workload: String,
    technique: String,
}

#[derive(Debug)]
struct Group {
    first: usize,
    /// `None` when the campaign runs without ladders.
    spec: Option<LadderSpec>,
    unsettled: usize,
    /// `None` until built; `Some(None)` when the group runs unaccelerated
    /// (no ladders, a panicked build, or released).
    ladder: Option<Option<Arc<CheckpointLadder>>>,
}

/// The state machine for one campaign: queue, attempts, failure ledger,
/// leases and ladder slots (see the module docs).
#[derive(Debug, Default)]
pub struct Scheduler {
    max_attempts: u32,
    /// Lease length (ns) and the clock it runs on.
    lease: Option<(u64, Arc<dyn Clock>)>,
    cells: Vec<CellState>,
    groups: Vec<Group>,
    pending: VecDeque<usize>,
    running: usize,
    /// Lease per claimed attempt: its expiry (ns), or `None` once reaped.
    leases: BTreeMap<Attempt, Option<u64>>,
    failures: Vec<CellFailure>,
    retries: u64,
    next_build: usize,
    building: bool,
    cancelled: bool,
    checkpoint_faults: Vec<String>,
    ladder_report: LadderReport,
}

impl Scheduler {
    /// A scheduler for `jobs`, all pending. With a `stride`, jobs sharing
    /// a workload (by identity) and configuration share a ladder whose
    /// spec carries every BBV track their techniques declare; without
    /// one, cells run unaccelerated.
    pub fn new(jobs: &[Job<'_>], retry: RetryPolicy, stride: Option<u64>) -> Scheduler {
        let mut groups: Vec<Group> = Vec::new();
        let mut cells = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            let same = |g: &Group| {
                let first = &jobs[g.first];
                std::ptr::eq(first.workload, job.workload) && first.config == job.config
            };
            let g = groups.iter().position(same).unwrap_or_else(|| {
                groups.push(Group {
                    first: i,
                    spec: stride.map(LadderSpec::machine_only),
                    unsettled: 0,
                    ladder: stride.is_none().then_some(None),
                });
                groups.len() - 1
            });
            let group = &mut groups[g];
            group.unsettled += 1;
            if let Some(spec) = &mut group.spec {
                for track in job.technique.tracks() {
                    match track {
                        Track::Hashed(s) if !spec.hashed_seeds.contains(&s) => {
                            spec.hashed_seeds.push(s)
                        }
                        Track::Full => spec.with_full = true,
                        _ => {}
                    }
                }
            }
            cells.push(CellState {
                group: g,
                workload: job.workload.name().to_string(),
                technique: job.technique.name(),
                ..CellState::default()
            });
        }
        Scheduler {
            max_attempts: retry.max_attempts,
            cells,
            groups,
            pending: (0..jobs.len()).collect(),
            ..Scheduler::default()
        }
    }

    /// Gives every claimed cell a lease of `deadline_ns` on `clock`.
    pub fn with_lease(mut self, deadline_ns: u64, clock: Arc<dyn Clock>) -> Scheduler {
        self.lease = Some((deadline_ns, clock));
        self
    }

    /// Settles `finished` cells up front (a resumed campaign): they are
    /// never claimed, and a group with nothing left never builds.
    pub fn with_finished(mut self, finished: impl IntoIterator<Item = usize>) -> Scheduler {
        for cell in finished {
            if self.cells.get(cell).is_some_and(|c| !c.settled) {
                self.settle(cell);
            }
        }
        let cells = &self.cells;
        self.pending.retain(|&c| !cells[c].settled);
        self
    }

    /// The first pending cell whose group ladder is in.
    pub fn claim_cell(&mut self) -> Option<Claim> {
        let pos = self.pending.iter().position(|&c| self.is_ready(c))?;
        let cell = self.pending.remove(pos)?;
        let attempt = Attempt {
            cell,
            number: self.cells[cell].attempts,
        };
        if let Some((deadline_ns, clock)) = &self.lease {
            let expiry = clock.now_ns().saturating_add(*deadline_ns);
            self.leases.insert(attempt, Some(expiry));
        }
        self.running += 1;
        let ladder = self.groups[self.cells[cell].group].ladder.clone().flatten();
        Some(Claim::Cell { attempt, ladder })
    }

    /// The next group's ladder build, once no build is running and every
    /// cell of a built group has been claimed — so builds stay at most
    /// one group ahead of the cells.
    pub fn claim_build(&mut self) -> Option<Claim> {
        if self.building || self.pending.iter().any(|&c| self.is_ready(c)) {
            return None;
        }
        let group =
            (self.next_build..self.groups.len()).find(|&g| self.groups[g].ladder.is_none())?;
        self.next_build = group + 1;
        self.building = true;
        let g = &self.groups[group];
        Some(Claim::Build {
            group,
            cell: g.first,
            spec: g.spec.clone()?,
        })
    }

    /// Installs group `group`'s ladder and logs the store faults its
    /// build healed; a failed build (the panic message) runs the group
    /// unaccelerated.
    pub fn finish_build(&mut self, group: usize, built: Result<CheckpointLadder, String>) {
        self.building = false;
        let g = &mut self.groups[group];
        let ladder = match built {
            Ok(ladder) => {
                self.checkpoint_faults.extend_from_slice(ladder.fault_log());
                Some(ladder)
            }
            Err(msg) => {
                self.checkpoint_faults.push(format!(
                    "{}: checkpoint capture panicked: {msg}; group ran unaccelerated",
                    self.cells[g.first].workload
                ));
                None
            }
        };
        let keep = !self.cancelled && g.unsettled > 0;
        g.ladder = Some(ladder.filter(|_| keep).map(Arc::new));
    }

    /// Settles one attempt: success settles the cell, failure retries it
    /// or, on its last attempt, ledgers it.
    pub fn finish_cell<T>(&mut self, attempt: Attempt, outcome: Result<T, CellError>) -> Settle<T> {
        if let Some(None) = self.leases.remove(&attempt) {
            return Settle::Late;
        }
        self.running -= 1;
        if self.cancelled {
            return Settle::Cancelled;
        }
        match outcome {
            Ok(result) => {
                self.settle(attempt.cell);
                Settle::Done(result)
            }
            Err(error) => self.fail(attempt.cell, error),
        }
    }

    /// Reaps every attempt whose lease has expired on the clock: each is
    /// failed with [`CellError::DeadlineExceeded`] (retried or ledgered
    /// like any failure), and its late result will be discarded.
    pub fn reap_overdue<T>(&mut self) -> Vec<Settle<T>> {
        let Some((deadline_ns, clock)) = &self.lease else {
            return Vec::new();
        };
        let (now, deadline_ns) = (clock.now_ns(), *deadline_ns);
        let overdue: Vec<Attempt> = self
            .leases
            .iter()
            .filter(|(_, expiry)| expiry.is_some_and(|e| e <= now))
            .map(|(attempt, _)| *attempt)
            .collect();
        overdue
            .into_iter()
            .map(|attempt| {
                self.leases.insert(attempt, None);
                self.running -= 1;
                if self.cancelled {
                    Settle::Cancelled
                } else {
                    self.fail(attempt.cell, CellError::DeadlineExceeded { deadline_ns })
                }
            })
            .collect()
    }

    /// Drops every pending cell, unbuilt group and resident ladder, so
    /// nothing more is claimed; running attempts finish as
    /// [`Settle::Cancelled`].
    pub fn cancel(&mut self) {
        self.cancelled = true;
        self.pending.clear();
        for g in &mut self.groups {
            g.ladder = Some(None);
        }
    }

    /// True once every cell succeeded or failed for good.
    pub fn is_settled(&self) -> bool {
        self.groups.iter().all(|g| g.unsettled == 0)
    }

    /// True after [`Scheduler::cancel`].
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Cells claimed and not yet finished or reaped.
    pub fn running(&self) -> usize {
        self.running
    }

    /// True while a ladder build is claimed and not finished.
    pub fn building(&self) -> bool {
        self.building
    }

    /// Failed attempts that went back to the queue.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The failure ledger, in job order.
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Each group's first job and ladder spec (empty without ladders).
    pub fn ladder_specs(&self) -> impl Iterator<Item = (usize, &LadderSpec)> {
        self.groups
            .iter()
            .filter_map(|g| Some((g.first, g.spec.as_ref()?)))
    }

    /// Ladders the scheduler holds right now.
    pub fn resident_ladders(&self) -> usize {
        self.groups
            .iter()
            .filter(|g| matches!(g.ladder, Some(Some(_))))
            .count()
    }

    /// Store faults the ladder builds healed or tolerated, in build order.
    pub fn checkpoint_faults(&self) -> &[String] {
        &self.checkpoint_faults
    }

    /// Ladder accounting summed over every released ladder.
    pub fn ladder_report(&self) -> LadderReport {
        self.ladder_report
    }

    fn is_ready(&self, cell: usize) -> bool {
        self.groups[self.cells[cell].group].ladder.is_some()
    }

    fn fail<T>(&mut self, cell: usize, error: CellError) -> Settle<T> {
        let c = &mut self.cells[cell];
        c.attempts += 1;
        if c.attempts < self.max_attempts {
            self.retries += 1;
            self.pending.push_back(cell);
            return Settle::Retry;
        }
        let failure = CellFailure {
            job_index: cell,
            workload: c.workload.clone(),
            technique: c.technique.clone(),
            attempts: c.attempts,
            error,
        };
        let at = self.failures.partition_point(|f| f.job_index < cell);
        self.failures.insert(at, failure);
        self.settle(cell);
        Settle::Failed
    }

    fn settle(&mut self, cell: usize) {
        let c = &mut self.cells[cell];
        c.settled = true;
        let group = &mut self.groups[c.group];
        group.unsettled -= 1;
        if group.unsettled == 0 {
            if let Some(Some(ladder)) = group.ladder.replace(None) {
                self.ladder_report.merge(&ladder.report());
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{PgssSim, Smarts, Technique};
    use pgss_cpu::MachineConfig;
    use pgss_obs::ManualClock;
    use pgss_workloads::{Kernel, Workload, WorkloadBuilder};

    fn tiny(name: &str) -> Workload {
        let mut b = WorkloadBuilder::new(name, 7);
        let seg = b.add_segment(Kernel::ComputeInt {
            chains: 2,
            ops_per_chain: 4,
        });
        b.run(seg, 20_000);
        b.finish()
    }

    /// The workload-major grid: each workload's cells form one group.
    fn grid<'a>(
        workloads: &'a [Workload],
        techs: &'a [&'a (dyn Technique + Sync)],
    ) -> Vec<Job<'a>> {
        super::super::grid(workloads, techs, MachineConfig::default())
    }

    fn retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts }
    }

    /// Any work, cells first — the server's order.
    fn claim(sched: &mut Scheduler) -> Option<Claim> {
        sched.claim_cell().or_else(|| sched.claim_build())
    }

    fn claim_cell(sched: &mut Scheduler) -> (Attempt, Option<Arc<CheckpointLadder>>) {
        match sched.claim_cell() {
            Some(Claim::Cell { attempt, ladder }) => (attempt, ladder),
            other => panic!("expected a cell, got {other:?}"),
        }
    }

    fn panicked() -> CellError {
        CellError::Panicked("boom".to_string())
    }

    #[test]
    fn failed_cell_requeues_at_the_back_then_exhausts_its_attempts() {
        let workloads = [tiny("a")];
        let smarts = Smarts::default();
        let techs: [&(dyn Technique + Sync); 2] = [&smarts, &smarts];
        let jobs = grid(&workloads, &techs);
        let mut sched = Scheduler::new(&jobs, retry(2), None);

        let (first, ladder) = claim_cell(&mut sched);
        assert_eq!(first, Attempt { cell: 0, number: 0 });
        assert!(ladder.is_none(), "no stride, no ladder");
        assert_eq!(
            sched.finish_cell(first, Err::<(), _>(panicked())),
            Settle::Retry
        );
        // The retry queues behind cell 1.
        let (second, _) = claim_cell(&mut sched);
        assert_eq!(second.cell, 1);
        assert_eq!(sched.finish_cell(second, Ok(7)), Settle::Done(7));
        let (again, _) = claim_cell(&mut sched);
        assert_eq!(again, Attempt { cell: 0, number: 1 });
        assert!(!sched.is_settled());
        assert_eq!(
            sched.finish_cell(again, Err::<(), _>(panicked())),
            Settle::Failed
        );

        assert!(sched.is_settled());
        assert!(claim(&mut sched).is_none());
        assert_eq!(sched.retries(), 1);
        let failure = &sched.failures()[0];
        assert_eq!((failure.job_index, failure.attempts), (0, 2));
        assert_eq!(failure.workload, "a");
        assert_eq!(failure.technique, smarts.name());
        assert_eq!(failure.error, panicked());
    }

    #[test]
    fn reaped_lease_retries_the_cell_and_discards_the_late_result() {
        let workloads = [tiny("a")];
        let smarts = Smarts::default();
        let techs: [&(dyn Technique + Sync); 1] = [&smarts];
        let jobs = grid(&workloads, &techs);
        let clock = Arc::new(ManualClock::new());
        let mut sched =
            Scheduler::new(&jobs, retry(3), None).with_lease(1_000, Arc::clone(&clock) as _);

        let (zombie, _) = claim_cell(&mut sched);
        assert!(sched.reap_overdue::<()>().is_empty(), "nothing is due yet");
        clock.advance(1_000);
        assert_eq!(sched.reap_overdue::<()>(), vec![Settle::Retry]);
        assert_eq!(sched.running(), 0, "a reaped cell frees its slot");

        // The retry finishes first; the zombie's late result is dropped.
        let (retry_attempt, _) = claim_cell(&mut sched);
        assert_eq!(retry_attempt, Attempt { cell: 0, number: 1 });
        assert_eq!(sched.finish_cell(retry_attempt, Ok(1)), Settle::Done(1));
        assert_eq!(sched.finish_cell(zombie, Ok(2)), Settle::Late);
        assert!(sched.is_settled());
        assert_eq!(sched.retries(), 1);
        assert!(sched.failures().is_empty());

        // Out of attempts, a reap is a ledgered deadline failure, and the
        // zombie that returns afterwards is still discarded.
        let mut sched =
            Scheduler::new(&jobs, retry(1), None).with_lease(1_000, Arc::clone(&clock) as _);
        let (zombie, _) = claim_cell(&mut sched);
        clock.advance(5_000);
        assert_eq!(sched.reap_overdue::<()>(), vec![Settle::Failed]);
        assert_eq!(sched.finish_cell(zombie, Ok(())), Settle::Late);
        assert_eq!(
            sched.failures()[0].error,
            CellError::DeadlineExceeded { deadline_ns: 1_000 }
        );
        assert!(sched.is_settled());
    }

    #[test]
    fn ladder_builds_are_claimed_one_at_a_time_in_group_order() {
        let workloads = [tiny("a"), tiny("b")];
        let smarts = Smarts::default();
        let pgss = PgssSim::default();
        let techs: [&(dyn Technique + Sync); 2] = [&smarts, &pgss];
        let jobs = grid(&workloads, &techs);
        let mut sched = Scheduler::new(&jobs, retry(2), Some(1_000));
        assert_eq!(sched.ladder_specs().count(), 2);

        let Some(Claim::Build { group, cell, spec }) = claim(&mut sched) else {
            panic!("the first claim builds group 0");
        };
        assert_eq!((group, cell), (0, 0));
        assert_eq!(spec.stride, 1_000);
        assert_eq!(
            spec.hashed_seeds.len(),
            1,
            "the union of the group's tracks"
        );
        assert!(sched.building());
        assert!(
            claim(&mut sched).is_none(),
            "one build at a time, no cell ready"
        );

        sched.finish_build(0, Err("no ladder".to_string()));
        assert!(!sched.building());
        assert!(
            sched.claim_build().is_none(),
            "builds wait until the built group's cells are claimed"
        );
        let (a, _) = claim_cell(&mut sched);
        let (b, _) = claim_cell(&mut sched);
        assert_eq!((a.cell, b.cell), (0, 1));
        assert!(sched.claim_cell().is_none(), "group 1 is not built");
        // Group 0's cells are all out: the next claim builds group 1.
        let Some(Claim::Build {
            group: 1, cell: 2, ..
        }) = claim(&mut sched)
        else {
            panic!("group 1 builds next");
        };
        assert!(claim(&mut sched).is_none());
    }

    #[test]
    fn group_ladder_is_dropped_once_its_last_cell_settles() {
        let workloads = [tiny("a"), tiny("b")];
        let smarts = Smarts::default();
        let techs: [&(dyn Technique + Sync); 2] = [&smarts, &smarts];
        let jobs = grid(&workloads, &techs);
        let mut sched = Scheduler::new(&jobs, retry(2), Some(20_000));
        let Some(Claim::Build { group, cell, spec }) = claim(&mut sched) else {
            panic!("the first claim is a build");
        };
        let ladder = CheckpointLadder::capture(jobs[cell].workload, &jobs[cell].config, &spec);
        let capture_ops = ladder.report().capture_ops;
        sched.finish_build(group, Ok(ladder));
        assert_eq!(sched.resident_ladders(), 1);

        let (a, ladder_a) = claim_cell(&mut sched);
        let (b, ladder_b) = claim_cell(&mut sched);
        let weak = Arc::downgrade(&ladder_a.unwrap());
        drop(ladder_b);
        assert_eq!(
            sched.finish_cell(a, Err::<(), _>(panicked())),
            Settle::Retry
        );
        assert_eq!(sched.finish_cell(b, Ok(())), Settle::Done(()));
        assert!(weak.upgrade().is_some(), "a retry still needs the ladder");

        let (again, ladder) = claim_cell(&mut sched);
        drop(ladder);
        assert_eq!(sched.finish_cell(again, Ok(())), Settle::Done(()));
        assert!(
            weak.upgrade().is_none(),
            "the settled group's ladder is gone"
        );
        assert_eq!(sched.resident_ladders(), 0);
        assert_eq!(sched.ladder_report().capture_ops, capture_ops);
    }

    #[test]
    fn resumed_scheduler_skips_finished_cells_and_their_groups() {
        let workloads = [tiny("a"), tiny("b")];
        let smarts = Smarts::default();
        let techs: [&(dyn Technique + Sync); 2] = [&smarts, &smarts];
        let jobs = grid(&workloads, &techs);
        let mut sched = Scheduler::new(&jobs, retry(2), Some(1_000)).with_finished([0, 1, 3]);

        // Group 0 is done and never builds; group 1 builds for cell 2.
        let Some(Claim::Build { group: 1, .. }) = claim(&mut sched) else {
            panic!("only group 1 has work left");
        };
        sched.finish_build(1, Err("no ladder".to_string()));
        let (only, _) = claim_cell(&mut sched);
        assert_eq!(only.cell, 2);
        assert!(claim(&mut sched).is_none());
        assert_eq!(sched.finish_cell(only, Ok(())), Settle::Done(()));
        assert!(sched.is_settled());
    }

    #[test]
    fn cancel_drops_pending_cells_and_discards_running_ones() {
        let workloads = [tiny("a")];
        let smarts = Smarts::default();
        let techs: [&(dyn Technique + Sync); 2] = [&smarts, &smarts];
        let jobs = grid(&workloads, &techs);
        let mut sched = Scheduler::new(&jobs, retry(2), None);
        let (running, _) = claim_cell(&mut sched);
        sched.cancel();
        assert!(claim(&mut sched).is_none());
        assert_eq!(sched.finish_cell(running, Ok(())), Settle::Cancelled);
        assert_eq!(sched.running(), 0);
        assert!(sched.is_cancelled() && !sched.is_settled());
    }
}
