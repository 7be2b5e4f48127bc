//! The sharded, mutex-protected lock table driving the 2PL family
//! (FIFO 2PL, priority-queue 2PL, priority inheritance) on real threads.
//!
//! Layout follows the classic `lock_table` shape: objects hash to one of
//! `SHARDS` buckets, each bucket a `Mutex<Shard>` over per-object
//! [`LockEntry`]s. The entry is the simulator's own: compatibility, queue
//! order, priority bypass, upgrade precedence, blocker sets and the grant
//! pass are all decided by `rtdb::LockEntry`, so live and simulated 2PL
//! grant exactly alike. This module adds only what real threads need: a
//! blocked requester parks on its own [`WaitSlot`] (mutex + condvar);
//! grants are handed out by whichever thread mutates the entry (a
//! releaser wakes the waiters it unblocks), so there is no separate
//! lock-manager thread.
//!
//! Deadlock detection is global and eager: a single [`Mutex`]-protected
//! [`WaitsForGraph`] (the same structure the simulator uses) is kept
//! exactly in sync with the bucket queues — every enqueue, dequeue and
//! grant pass recomputes the affected entry's wait-for edges while both
//! the bucket and the detector are held (lock order: bucket, then
//! detector; at most one bucket is ever held). Any new edge therefore
//! runs a cycle check at the instant it appears, so late-forming cycles
//! (a transaction granted here, then blocked elsewhere) are caught too.
//! The lowest-effective-priority cycle member is poisoned through its
//! wait slot and aborts itself on wakeup; until it withdraws, the entry's
//! grant pass and blocker sets skip it.
//!
//! Event stamping: every `LockRequested` / `LockGranted` / `LockBlocked`
//! / `LockUpgraded` / `LockReleased` / `DeadlockDetected` is recorded
//! *inside* the bucket critical section that performs the state change
//! (see [`crate::recorder`]), so the merged stream linearizes each
//! object's history exactly as it happened.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use monitor::SimEventKind;
use rtdb::{EntryOutcome, LockEntry, LockMode, ObjectId, QueuePolicy, TxnId, WaitsForGraph};
use starlite::{FxHashMap, FxHashSet, Priority};

use crate::recorder::{Recorder, ThreadLog};

/// Outcome of a blocking acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held; proceed.
    Granted,
    /// The caller was chosen as a deadlock victim: release everything,
    /// emit the abort, and restart the transaction.
    Deadlock,
    /// The wall-clock deadline expired while waiting (or the caller was
    /// granted the lock but is now past its deadline — the lock IS held
    /// and must be released like any other).
    Timeout,
}

/// What a parked waiter observes when it wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitState {
    Waiting,
    Granted,
    Victim,
}

/// One parked request: the waiter sleeps here, granters and the deadlock
/// detector flip the state and signal. Shared with the ceiling gate
/// (`crate::ceiling`), which parks its denied entrants the same way.
#[derive(Debug)]
pub struct WaitSlot {
    state: Mutex<WaitState>,
    cv: Condvar,
}

impl WaitSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WaitSlot {
            state: Mutex::new(WaitState::Waiting),
            cv: Condvar::new(),
        })
    }

    /// Flips to `to` and wakes the waiter. Grant/victim decisions are
    /// made under the table's bucket + detector locks (or the ceiling
    /// gate's single mutex), so the two transitions never race each
    /// other.
    pub(crate) fn wake(&self, to: WaitState) {
        let mut st = self.state.lock().unwrap();
        if *st == WaitState::Waiting {
            *st = to;
            self.cv.notify_all();
        }
    }

    /// The state the slot has settled to (racy outside the owning
    /// table/gate lock — callers re-check under it).
    pub(crate) fn settled(&self) -> WaitState {
        *self.state.lock().unwrap()
    }
}

/// Parks on `slot` until it leaves `Waiting` or `deadline` passes;
/// a `Waiting` return means the deadline expired first.
pub(crate) fn wait_until(slot: &WaitSlot, deadline: Instant) -> WaitState {
    let mut st = slot.state.lock().unwrap();
    loop {
        match *st {
            WaitState::Waiting => {
                let now = Instant::now();
                if now >= deadline {
                    return WaitState::Waiting;
                }
                let (guard, _) = slot.cv.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
            s => return s,
        }
    }
}

#[derive(Debug, Default)]
struct Shard {
    entries: FxHashMap<ObjectId, LockEntry>,
}

/// Global deadlock-detection and priority state, one mutex for all of it.
/// Always acquired *after* a bucket, never while holding two buckets.
#[derive(Debug, Default)]
struct Detector {
    wfg: WaitsForGraph,
    /// The awaited object and slot of every currently parked waiter, so a
    /// grant pass can wake it and a cycle found from one bucket can
    /// poison a victim parked in another.
    slots: FxHashMap<TxnId, (ObjectId, Arc<WaitSlot>)>,
    /// Poisoned transactions that have not yet removed themselves from
    /// their queue; skipped by grant passes and edge recomputation.
    victims: FxHashSet<TxnId>,
    /// Priority levels as `(base, effective)`; inheritance raises the
    /// effective level, a restart restores the base.
    levels: FxHashMap<TxnId, (i64, i64)>,
    deadlocks: u64,
    /// Reused blocker buffer for edge recomputation.
    scratch: Vec<TxnId>,
}

impl Detector {
    fn level_of(&self, txn: TxnId) -> i64 {
        self.levels.get(&txn).map_or(0, |&(_, effective)| effective)
    }
}

/// The live lock manager for the 2PL family.
#[derive(Debug)]
pub struct LiveTable {
    shards: Vec<Mutex<Shard>>,
    detector: Mutex<Detector>,
    queue: QueuePolicy,
    /// Raise holders' effective priority to their most urgent waiter's
    /// (the priority-inheritance protocol).
    inheritance: bool,
}

const SHARDS: usize = 64;

fn shard_of(object: ObjectId) -> usize {
    // Objects are dense small integers; a multiplicative scramble spreads
    // consecutive ids over the buckets.
    (object.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize >> (64 - 6)
}

impl LiveTable {
    /// A fresh table with the given queue discipline; `inheritance`
    /// enables the priority-inheritance rule on top of it.
    pub fn new(queue: QueuePolicy, inheritance: bool) -> Self {
        LiveTable {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            detector: Mutex::new(Detector::default()),
            queue,
            inheritance,
        }
    }

    /// Registers a transaction's base priority before its first request.
    pub fn register(&self, txn: TxnId, priority: Priority) {
        let mut det = self.detector.lock().unwrap();
        det.levels.insert(txn, (priority.level(), priority.level()));
    }

    /// Forgets a transaction entirely (after its terminal event).
    pub fn deregister(&self, txn: TxnId) {
        let mut det = self.detector.lock().unwrap();
        det.levels.remove(&txn);
        det.victims.remove(&txn);
        det.wfg.remove_txn(txn);
    }

    /// Restores a restarting victim's priority to its base level.
    pub fn reset_priority(&self, txn: TxnId) {
        let mut det = self.detector.lock().unwrap();
        if let Some((base, effective)) = det.levels.get_mut(&txn) {
            *effective = *base;
        }
        det.victims.remove(&txn);
    }

    /// Deadlock cycles detected so far.
    pub fn deadlocks(&self) -> u64 {
        self.detector.lock().unwrap().deadlocks
    }

    /// The object `txn` is currently parked on, if any — the live
    /// counterpart of `LockTable::waiting_for`. A poisoned victim counts
    /// until it withdraws.
    pub fn waiting_for(&self, txn: TxnId) -> Option<ObjectId> {
        let det = self.detector.lock().expect("detector mutex poisoned");
        det.slots.get(&txn).map(|&(object, _)| object)
    }

    /// Acquires `object` in `mode` for `txn`, blocking until granted,
    /// poisoned, or `deadline`. Returns the wall ticks spent blocked via
    /// `blocked_ticks`.
    #[allow(clippy::too_many_arguments)]
    pub fn acquire(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        object: ObjectId,
        mode: LockMode,
        deadline: Instant,
        blocked_ticks: &mut u64,
    ) -> Acquire {
        let slot;
        {
            let mut shard = self.shards[shard_of(object)].lock().unwrap();
            let entry = shard.entries.entry(object).or_default();
            log.record(rec, SimEventKind::LockRequested { txn, object, mode });

            // The entry asks for the requester's priority only when a
            // conflict makes it matter; the detector lock taken for it is
            // kept for the rest of the blocked path.
            let mut det: Option<MutexGuard<'_, Detector>> = None;
            let outcome = entry.request(self.queue, txn, mode, || {
                let d = det.insert(self.detector.lock().expect("detector mutex poisoned"));
                Priority::new(d.level_of(txn))
            });
            match outcome {
                EntryOutcome::Held | EntryOutcome::Granted => {
                    log.record(rec, SimEventKind::LockGranted { txn, object, mode });
                    return Acquire::Granted;
                }
                EntryOutcome::Upgraded => {
                    log.record(rec, SimEventKind::LockUpgraded { txn, object });
                    return Acquire::Granted;
                }
                EntryOutcome::Queued => {}
            }
            let mut det =
                det.unwrap_or_else(|| self.detector.lock().expect("detector mutex poisoned"));
            let det = &mut *det;
            entry.blockers_into(
                self.queue,
                txn,
                |t| det.victims.contains(&t),
                &mut det.scratch,
            );
            let blocker = det.scratch.first().copied();
            log.record(
                rec,
                SimEventKind::LockBlocked {
                    txn,
                    object,
                    mode,
                    blocker,
                },
            );
            if self.inheritance {
                let level = det.level_of(txn);
                self.inherit(rec, log, entry, level, det);
            }
            // Still under the bucket: sync the detector with the new
            // queue shape and check for a fresh cycle through us.
            slot = WaitSlot::new();
            det.slots.insert(txn, (object, slot.clone()));
            self.sync_entry_edges(entry, det);
            self.detect_from(rec, log, det, txn);
        }

        // Park until granted, poisoned, or the deadline.
        let wait_started = rec.now_ticks();
        let outcome = wait_until(&slot, deadline);
        *blocked_ticks += rec.now_ticks().saturating_sub(wait_started);
        match outcome {
            WaitState::Granted => Acquire::Granted,
            WaitState::Victim => {
                self.abandon_wait(rec, log, txn, object);
                Acquire::Deadlock
            }
            WaitState::Waiting => {
                // Timed out. Dequeue under the bucket — unless a racing
                // grant got there first, in which case we own the lock
                // (and the caller's deadline check will release it).
                if self.abandon_wait(rec, log, txn, object) {
                    return Acquire::Timeout;
                }
                // Not queued any more: a granter dequeued us between the
                // wakeup and the bucket lock. (Poisoning does not dequeue,
                // so the settled state can only be a grant.)
                match slot.settled() {
                    WaitState::Granted => Acquire::Granted,
                    WaitState::Victim => Acquire::Deadlock,
                    WaitState::Waiting => Acquire::Timeout,
                }
            }
        }
    }

    /// Releases every lock in `held`, waking whoever becomes grantable.
    /// `held` is the caller's own record of its grants, in acquire order;
    /// locks are released in reverse.
    pub fn release_all(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        held: &[(ObjectId, LockMode)],
    ) {
        for &(object, _) in held.iter().rev() {
            let mut shard = self.shards[shard_of(object)].lock().unwrap();
            if let Some(entry) = shard.entries.get_mut(&object) {
                if entry.release(txn) {
                    log.record(rec, SimEventKind::LockReleased { txn, object });
                }
                let mut det = self.detector.lock().unwrap();
                self.grant_pass(rec, log, entry, object, &mut det);
                if entry.is_idle() {
                    shard.entries.remove(&object);
                }
            }
        }
    }

    /// Whether every bucket is empty (no holders, no waiters) — the
    /// quiescent post-run state the stress tests assert.
    pub fn idle(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().unwrap().entries.is_empty())
    }

    /// Panics if any entry breaks `LockEntry::check_invariants` — above
    /// all, holds incompatible grants simultaneously. The live analogue
    /// of the oracle's lock-compatibility invariant, checkable at any
    /// instant from any thread.
    pub fn assert_compatible(&self) {
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for (&object, entry) in &shard.entries {
                entry.check_invariants(object);
            }
        }
    }

    // --- internals -------------------------------------------------------

    /// Raises every holder's effective priority to at least `level`
    /// (priority inheritance), recording the donations.
    fn inherit(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        entry: &LockEntry,
        level: i64,
        det: &mut Detector,
    ) {
        for &(holder, _) in entry.holders() {
            let Some((_, effective)) = det.levels.get_mut(&holder) else {
                continue;
            };
            if *effective < level {
                *effective = level;
                log.record(
                    rec,
                    SimEventKind::PriorityInherited {
                        txn: holder,
                        priority: Priority::new(level),
                    },
                );
            }
        }
    }

    /// Removes `txn` from `object`'s wait queue after a timeout or
    /// poisoning, re-syncing edges and re-running the grant pass (a
    /// departing FIFO waiter can unblock the queue behind it). Returns
    /// whether the waiter was still queued; `false` means a racing grant
    /// already dequeued it and the caller owns the lock.
    fn abandon_wait(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        object: ObjectId,
    ) -> bool {
        let mut shard = self.shards[shard_of(object)].lock().unwrap();
        let entry = shard.entries.entry(object).or_default();
        let mut det = self.detector.lock().unwrap();
        let was_queued = entry.withdraw(txn);
        det.slots.remove(&txn);
        det.victims.remove(&txn);
        det.wfg.clear_waiter(txn);
        self.grant_pass(rec, log, entry, object, &mut det);
        if entry.is_idle() {
            shard.entries.remove(&object);
        }
        was_queued
    }

    /// Runs the entry's grant pass (poisoned victims skipped), waking
    /// every waiter it serves; then recomputes the entry's wait-for edges
    /// and checks the survivors for late-forming cycles. Bucket +
    /// detector held.
    fn grant_pass(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        entry: &mut LockEntry,
        object: ObjectId,
        det: &mut Detector,
    ) {
        while let Some(g) = entry.grant_next(self.queue, |t| det.victims.contains(&t)) {
            log.record(
                rec,
                if g.upgrade {
                    SimEventKind::LockUpgraded { txn: g.txn, object }
                } else {
                    SimEventKind::LockGranted {
                        txn: g.txn,
                        object,
                        mode: g.mode,
                    }
                },
            );
            det.wfg.clear_waiter(g.txn);
            if let Some((_, slot)) = det.slots.remove(&g.txn) {
                slot.wake(WaitState::Granted);
            }
        }
        self.sync_entry_edges(entry, det);
        for t in entry.waiters() {
            if !det.victims.contains(&t) {
                self.detect_from(rec, log, det, t);
            }
        }
    }

    /// Replaces the wait-for edges of every live waiter of `entry` with
    /// its current `LockEntry::blockers_into` set. A blocked transaction
    /// waits on exactly one object, so replace-all per waiter is exact.
    fn sync_entry_edges(&self, entry: &LockEntry, det: &mut Detector) {
        let mut blockers = std::mem::take(&mut det.scratch);
        for t in entry.waiters() {
            if det.victims.contains(&t) {
                continue;
            }
            entry.blockers_into(self.queue, t, |w| det.victims.contains(&w), &mut blockers);
            det.wfg.set_edges(t, &blockers);
        }
        det.scratch = blockers;
    }

    /// Cycle check from `start`; on a hit, poisons the lowest-priority
    /// member and records `DeadlockDetected`. Bucket + detector held.
    fn detect_from(&self, rec: &Recorder, log: &mut ThreadLog, det: &mut Detector, start: TxnId) {
        let Some(cycle) = det.wfg.cycle_from(start) else {
            return;
        };
        let victim = cycle
            .iter()
            .copied()
            .min_by_key(|&t| (det.level_of(t), std::cmp::Reverse(t.0)))
            .expect("cycles are non-empty");
        det.deadlocks += 1;
        det.victims.insert(victim);
        det.wfg.clear_waiter(victim);
        log.record(rec, SimEventKind::DeadlockDetected { victim });
        if let Some((_, slot)) = det.slots.get(&victim) {
            slot.wake(WaitState::Victim);
        }
    }
}
