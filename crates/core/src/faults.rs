//! Deterministic campaign-level fault injection (feature `fault-inject`).
//!
//! Builds on [`pgss_ckpt::faults`] (store put/get faults) and adds the
//! campaign-layer fault: **worker panics** targeted at exact cells. A
//! [`FaultPlan`] names cells by `(workload, technique)` identity, so the
//! same cells fault no matter how the parallel claim loop interleaves —
//! plans are order-independent and runs are reproducible.
//!
//! Like the store layer, this module is test-only machinery: it compiles
//! away without the feature, and an installed plan is process-global, so
//! tests that inject faults serialize on the shared, reentrant
//! [`serialize`] lock (taken by [`install`] and held by the returned
//! guard). A test that runs a campaign or touches a store outside its
//! guard holds [`serialize`] for its whole body, so no other test's plan
//! fires on its cells or store operations.
//!
//! ```no_run
//! use pgss::faults::{self, CellPanic, FaultPlan};
//!
//! let _guard = faults::install(FaultPlan {
//!     cell_panics: vec![CellPanic {
//!         workload: "177.mesa".to_string(),
//!         technique: "SMARTS(50000/1000/3000)".to_string(),
//!         times: 1, // transient: first attempt panics, the retry heals it
//!     }],
//!     ..FaultPlan::default()
//! });
//! // run a campaign; the plan clears when _guard drops
//! ```

// Fault injection must never make fault *handling* flaky: no unwraps on
// this path either.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

pub use pgss_ckpt::faults::{injection_log, serialize, SerialGuard, StoreFaultPlan};

use crate::campaign::INJECTED_PANIC_TAG;

/// One targeted worker-panic fault: the cell for `workload` × `technique`
/// panics on its next `times` attempts, then behaves. `times: u32::MAX`
/// is effectively permanent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// Workload name ([`pgss_workloads::Workload::name`]) of the cell.
    pub workload: String,
    /// Technique name ([`crate::Technique::name`]) of the cell.
    pub technique: String,
    /// How many attempts of this cell panic before it heals.
    pub times: u32,
}

/// One targeted worker-stall fault: the cell for `workload` × `technique`
/// blocks inside its next `times` attempts until [`release_stalls`] is
/// called (or the installed plan's guard drops). An empty `workload` or
/// `technique` matches any cell. This is the deterministic stand-in for a
/// wedged worker — the cell's *identity*, not timing, decides who stalls,
/// so lease-reaping tests replay identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellStall {
    /// Workload name of the cell, or `""` to match any workload.
    pub workload: String,
    /// Technique name of the cell, or `""` to match any technique.
    pub technique: String,
    /// How many attempts of this cell stall before it heals.
    pub times: u32,
}

/// A complete campaign fault schedule: targeted worker panics and stalls
/// plus the store-layer plan (failed puts, failed / corrupted / truncated
/// gets).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Cells that panic (see [`CellPanic`]).
    pub cell_panics: Vec<CellPanic>,
    /// Cells that stall until released (see [`CellStall`]).
    pub cell_stalls: Vec<CellStall>,
    /// Store faults, forwarded to [`pgss_ckpt::faults`].
    pub store: StoreFaultPlan,
}

static CELLS: Mutex<Vec<CellPanic>> = Mutex::new(Vec::new());
static STALLS: Mutex<Vec<CellStall>> = Mutex::new(Vec::new());
/// True when stalled cells may proceed. Flipped false by [`install`]ing a
/// plan with stalls, true again by [`release_stalls`] / guard drop.
static STALL_GATE: Mutex<bool> = Mutex::new(true);
static STALL_CV: Condvar = Condvar::new();

fn cells() -> MutexGuard<'static, Vec<CellPanic>> {
    // A panic under this short lock is itself an injected fault; the
    // state remains valid, so recover the guard.
    CELLS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn stalls() -> MutexGuard<'static, Vec<CellStall>> {
    STALLS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears the installed plan (both layers) when dropped, and releases
/// the process-wide fault-injection serialization lock.
pub struct FaultGuard {
    _serial: SerialGuard,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        // Wake anything still stalled *before* clearing the schedule, so
        // a test that forgot release_stalls() cannot wedge the process.
        release_stalls();
        cells().clear();
        stalls().clear();
        pgss_ckpt::faults::clear();
    }
}

/// Installs `plan` process-wide and returns a guard that uninstalls it on
/// drop. Takes the shared [`serialize`] lock so concurrent
/// fault-injecting tests (in any crate) cannot interleave plans.
pub fn install(plan: FaultPlan) -> FaultGuard {
    crate::campaign::silence_injected_panic_reports();
    let serial = serialize();
    pgss_ckpt::faults::set_plan(plan.store);
    let stalling = !plan.cell_stalls.is_empty();
    *cells() = plan.cell_panics;
    *stalls() = plan.cell_stalls;
    *STALL_GATE.lock().unwrap_or_else(PoisonError::into_inner) = !stalling;
    FaultGuard { _serial: serial }
}

/// Releases every cell currently blocked (or about to block) in an
/// injected stall. Idempotent; also invoked by [`FaultGuard`] drop.
pub fn release_stalls() {
    *STALL_GATE.lock().unwrap_or_else(PoisonError::into_inner) = true;
    STALL_CV.notify_all();
}

/// Campaign-worker hook: panics (with [`INJECTED_PANIC_TAG`] in the
/// message) if the installed plan targets this cell and has attempts
/// left.
pub(crate) fn maybe_panic_cell(workload: &str, technique: &str) {
    let should_panic = {
        let mut cells = cells();
        match cells
            .iter_mut()
            .find(|c| c.workload == workload && c.technique == technique && c.times > 0)
        {
            Some(cell) => {
                cell.times -= 1;
                true
            }
            None => false,
        }
    };
    if should_panic {
        panic!("{INJECTED_PANIC_TAG} injected worker panic: {workload} × {technique}");
    }
}

/// Campaign-worker hook: blocks until [`release_stalls`] if the installed
/// plan stalls this cell and has attempts left. Runs inside the cell's
/// `catch_unwind`, outside any scheduler lock, so a stalled worker wedges
/// only itself — exactly what a lease watchdog must be able to reap.
pub(crate) fn maybe_stall_cell(workload: &str, technique: &str) {
    let should_stall = {
        let mut stalls = stalls();
        match stalls.iter_mut().find(|c| {
            (c.workload.is_empty() || c.workload == workload)
                && (c.technique.is_empty() || c.technique == technique)
                && c.times > 0
        }) {
            Some(cell) => {
                cell.times -= 1;
                true
            }
            None => false,
        }
    };
    if should_stall {
        let mut released = STALL_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        while !*released {
            released = STALL_CV
                .wait(released)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn plan_targets_exact_cell_and_decrements() {
        let _guard = install(FaultPlan {
            cell_panics: vec![CellPanic {
                workload: "w".to_string(),
                technique: "t".to_string(),
                times: 1,
            }],
            ..FaultPlan::default()
        });
        // Wrong cell: no panic.
        maybe_panic_cell("w", "other");
        maybe_panic_cell("other", "t");
        // Right cell: panics once, then is spent.
        let hit = std::panic::catch_unwind(|| maybe_panic_cell("w", "t"));
        assert!(hit.is_err());
        maybe_panic_cell("w", "t"); // healed
    }

    #[test]
    fn stalled_cell_blocks_until_released_and_wildcards_match() {
        let _guard = install(FaultPlan {
            cell_stalls: vec![CellStall {
                workload: String::new(), // any workload
                technique: "t".to_string(),
                times: 1,
            }],
            ..FaultPlan::default()
        });
        maybe_stall_cell("w", "other"); // wrong technique: no stall
        let worker = std::thread::spawn(|| maybe_stall_cell("anything", "t"));
        // The worker is (about to be) parked; releasing lets it finish.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!worker.is_finished(), "cell should be stalled");
        release_stalls();
        worker.join().expect("released worker exits cleanly");
        maybe_stall_cell("anything", "t"); // spent: no stall
    }

    #[test]
    fn guard_drop_clears_both_layers() {
        {
            let _guard = install(FaultPlan {
                cell_panics: vec![CellPanic {
                    workload: "w".to_string(),
                    technique: "t".to_string(),
                    times: u32::MAX,
                }],
                store: StoreFaultPlan {
                    fail_puts: vec![0],
                    ..StoreFaultPlan::default()
                },
                ..FaultPlan::default()
            });
        }
        maybe_panic_cell("w", "t"); // cleared: no panic
    }
}
