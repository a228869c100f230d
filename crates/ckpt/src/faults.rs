//! Deterministic store-level fault injection (feature `fault-inject`).
//!
//! Tests install a [`StoreFaultPlan`] naming which [`crate::Store`]
//! operations — counted from plan installation, per operation kind — must
//! misbehave. Injection is *deterministic*: faults are keyed by operation
//! index, not by time or randomness, so the same plan against the same
//! call sequence always injects at the same points and test runs are
//! reproducible bit-for-bit.
//!
//! Installation returns a [`StoreFaultGuard`] that clears the plan when
//! dropped. The plan is process-global, so it fires on *every* store
//! operation while installed — including another test's. Guards therefore
//! hold a process-wide lock (see [`serialize`]), and a test whose store
//! operations run outside its guard (a clean baseline run, a check after
//! the plan is gone) takes that lock for its whole body; the lock is
//! reentrant on the holding thread, so the test can still install plans
//! under it. Everything here is test infrastructure and compiles away
//! entirely without the `fault-inject` feature.

use std::io;
use std::marker::PhantomData;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

/// Which store operations to sabotage, each keyed by a 0-based operation
/// index counted (per kind) from plan installation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreFaultPlan {
    /// [`crate::Store::put`] calls that fail with an I/O error after a
    /// torn (half-written) temp file — the "disk filled mid-write" case.
    pub fail_puts: Vec<u64>,
    /// Record reads that fail with an I/O error despite the file existing.
    pub fail_gets: Vec<u64>,
    /// Record reads served with one payload bit flipped (the on-disk file
    /// is untouched; only the bytes handed to validation are corrupted).
    pub corrupt_gets: Vec<u64>,
    /// Record reads served truncated to half their length.
    pub truncate_gets: Vec<u64>,
    /// The disk stays full from this put index onward: every
    /// [`crate::Store::put`] at or past it fails like [`fail_puts`]
    /// (torn temp file, I/O error) until the plan clears.
    ///
    /// [`fail_puts`]: StoreFaultPlan::fail_puts
    pub full_after_puts: Option<u64>,
    /// Puts whose commit rename is *torn*: the caller sees success, but
    /// the destination file holds only the first half of the record —
    /// the non-atomic-rename filesystem a crash-consistent store must
    /// survive by detecting the tear on read.
    pub torn_renames: Vec<u64>,
    /// Drop every fsync (temp file and directory) while the plan is
    /// installed — models a power loss the write-then-rename path alone
    /// cannot survive. Tests observe the difference through the
    /// `ckpt.store.fsync` counter and the injection log.
    pub drop_fsyncs: bool,
}

impl StoreFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fail_puts.is_empty()
            && self.fail_gets.is_empty()
            && self.corrupt_gets.is_empty()
            && self.truncate_gets.is_empty()
            && self.full_after_puts.is_none()
            && self.torn_renames.is_empty()
            && !self.drop_fsyncs
    }
}

#[derive(Debug, Default)]
struct Active {
    plan: StoreFaultPlan,
    puts: u64,
    gets: u64,
    log: Vec<String>,
}

/// Owner and depth of the process-wide fault-test lock (shared with
/// `pgss::faults`, which layers cell-level faults on the same lock).
static SERIAL: Mutex<Option<(ThreadId, usize)>> = Mutex::new(None);
static SERIAL_FREED: Condvar = Condvar::new();
static ACTIVE: Mutex<Option<Active>> = Mutex::new(None);

fn active() -> MutexGuard<'static, Option<Active>> {
    ACTIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Holds the fault-test lock; releases it when the holding thread drops
/// its last guard.
#[derive(Debug)]
pub struct SerialGuard {
    /// Not `Send`: the guard must drop on the thread that holds the lock.
    _thread: PhantomData<*const ()>,
}

impl Drop for SerialGuard {
    fn drop(&mut self) {
        let mut owner = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, depth)) = owner.as_mut() {
            *depth -= 1;
            if *depth == 0 {
                *owner = None;
                SERIAL_FREED.notify_all();
            }
        }
    }
}

/// Acquires the process-wide fault-test lock without installing a plan —
/// what a test takes for its whole body when it touches a store or runs
/// a campaign outside its plan guard. Reentrant on the holding thread, so
/// [`install`] (and `pgss::faults::install`) work under it.
pub fn serialize() -> SerialGuard {
    let me = std::thread::current().id();
    let mut owner = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        match owner.as_mut() {
            None => *owner = Some((me, 1)),
            Some((holder, depth)) if *holder == me => *depth += 1,
            Some(_) => {
                owner = SERIAL_FREED
                    .wait(owner)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
        }
        return SerialGuard {
            _thread: PhantomData,
        };
    }
}

/// Installs `plan`, returning a guard that clears it (and releases the
/// test-serialization lock) on drop.
pub fn install(plan: StoreFaultPlan) -> StoreFaultGuard {
    let serial = serialize();
    set_plan(plan);
    StoreFaultGuard { _serial: serial }
}

/// Replaces the active plan, resetting operation counters. Callers other
/// than [`install`] (e.g. `pgss::faults`, which composes store faults
/// with cell faults under one guard) must hold [`serialize`] for as long
/// as the plan is set.
pub fn set_plan(plan: StoreFaultPlan) {
    *active() = Some(Active {
        plan,
        ..Active::default()
    });
}

/// Clears any installed plan (idempotent). Called by guard drops.
pub fn clear() {
    *active() = None;
}

/// What has been injected since the current plan was installed, as
/// human-readable lines — lets tests assert a fault actually fired.
pub fn injection_log() -> Vec<String> {
    active().as_ref().map(|a| a.log.clone()).unwrap_or_default()
}

/// Clears the plan on drop. See [`install`].
#[derive(Debug)]
pub struct StoreFaultGuard {
    _serial: SerialGuard,
}

impl Drop for StoreFaultGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// How an injected fault wants a [`crate::Store::put`] to misbehave.
#[derive(Debug)]
pub(crate) enum PutFault {
    /// Fail with this I/O error after leaving a torn temp file behind.
    Fail(io::Error),
    /// Report success but leave only half the record at the destination.
    TornRename,
}

/// Hook for [`crate::Store::put`]: `Some(fault)` when this put must
/// misbehave. Outright failure (indexed or disk-full) outranks a torn
/// rename when both name the same operation.
pub(crate) fn on_put() -> Option<PutFault> {
    let mut slot = active();
    let a = slot.as_mut()?;
    let n = a.puts;
    a.puts += 1;
    let full = a.plan.full_after_puts.is_some_and(|from| n >= from);
    if a.plan.fail_puts.contains(&n) || full {
        let cause = if full { "disk full" } else { "I/O error" };
        a.log.push(format!("put #{n}: injected {cause}"));
        Some(PutFault::Fail(io::Error::other(format!(
            "injected store fault: put #{n} ({cause})"
        ))))
    } else if a.plan.torn_renames.contains(&n) {
        a.log.push(format!("put #{n}: injected torn rename"));
        Some(PutFault::TornRename)
    } else {
        None
    }
}

/// Hook for the store's durability barriers: true when this fsync must be
/// silently dropped (the power-loss model).
pub(crate) fn on_fsync() -> bool {
    let mut slot = active();
    let Some(a) = slot.as_mut() else {
        return false;
    };
    if a.plan.drop_fsyncs {
        a.log.push("fsync: dropped".to_string());
        true
    } else {
        false
    }
}

/// Hook for record reads: may fail the read outright or mutate the bytes
/// handed to validation. `bytes` holds the file contents just read.
pub(crate) fn on_get(bytes: &mut Vec<u8>) -> Result<(), io::Error> {
    let mut slot = active();
    let Some(a) = slot.as_mut() else {
        return Ok(());
    };
    let n = a.gets;
    a.gets += 1;
    if a.plan.fail_gets.contains(&n) {
        a.log.push(format!("get #{n}: injected I/O error"));
        return Err(io::Error::other(format!("injected store fault: get #{n}")));
    }
    if a.plan.corrupt_gets.contains(&n) {
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x01;
        }
        a.log.push(format!("get #{n}: injected payload corruption"));
    }
    if a.plan.truncate_gets.contains(&n) {
        bytes.truncate(bytes.len() / 2);
        a.log.push(format!("get #{n}: injected truncation"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_counts_operations_per_kind() {
        let _guard = install(StoreFaultPlan {
            fail_puts: vec![1],
            fail_gets: vec![0],
            corrupt_gets: vec![1],
            truncate_gets: vec![2],
            ..StoreFaultPlan::default()
        });
        assert!(on_put().is_none(), "put #0 passes");
        assert!(matches!(on_put(), Some(PutFault::Fail(_))), "put #1 fails");
        assert!(on_put().is_none(), "put #2 passes");

        let mut bytes = vec![0u8; 8];
        assert!(on_get(&mut bytes).is_err(), "get #0 fails");
        let mut bytes = vec![0u8; 8];
        assert!(on_get(&mut bytes).is_ok());
        assert_eq!(bytes[7], 1, "get #1 corrupted");
        let mut bytes = vec![0u8; 8];
        assert!(on_get(&mut bytes).is_ok());
        assert_eq!(bytes.len(), 4, "get #2 truncated");
        assert_eq!(injection_log().len(), 4);
    }

    #[test]
    fn cleared_plan_injects_nothing() {
        {
            let _guard = install(StoreFaultPlan {
                fail_puts: vec![0],
                ..StoreFaultPlan::default()
            });
        }
        assert!(on_put().is_none(), "dropped guard must clear the plan");
        assert!(!on_fsync(), "dropped guard must restore fsyncs");
        assert!(injection_log().is_empty());
        assert!(StoreFaultPlan::default().is_empty());
    }

    #[test]
    fn disk_stays_full_from_the_named_put_onward() {
        let _guard = install(StoreFaultPlan {
            full_after_puts: Some(2),
            ..StoreFaultPlan::default()
        });
        assert!(on_put().is_none(), "put #0 passes");
        assert!(on_put().is_none(), "put #1 passes");
        for n in 2..5 {
            assert!(
                matches!(on_put(), Some(PutFault::Fail(_))),
                "put #{n} hits the full disk"
            );
        }
        assert!(!StoreFaultPlan {
            full_after_puts: Some(0),
            ..StoreFaultPlan::default()
        }
        .is_empty());
    }

    #[test]
    fn torn_rename_and_dropped_fsync_are_logged() {
        let _guard = install(StoreFaultPlan {
            torn_renames: vec![0],
            drop_fsyncs: true,
            ..StoreFaultPlan::default()
        });
        assert!(matches!(on_put(), Some(PutFault::TornRename)));
        assert!(on_put().is_none(), "only put #0 is torn");
        assert!(on_fsync() && on_fsync(), "every fsync drops");
        let log = injection_log();
        assert_eq!(log[0], "put #0: injected torn rename");
        assert!(log[1..].iter().all(|l| l == "fsync: dropped"));
    }
}
