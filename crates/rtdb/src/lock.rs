//! A read/write lock table with FIFO or priority wait queues.
//!
//! This is the Resource Manager's synchronisation core for the two-phase
//! locking protocols ("L" and "P" in the paper). Transactions request locks
//! one at a time (growing phase), may upgrade read locks to write locks,
//! and release everything at commit or abort (shrinking phase happens in
//! one step, as the paper's transactions hold all locks to completion).
//!
//! Two queue disciplines are provided:
//!
//! * [`QueuePolicy::Fifo`] — strict arrival order; a compatible request
//!   still waits behind queued conflicting requests ("2PL without priority
//!   mode").
//! * [`QueuePolicy::Priority`] — the wait queue is served most-urgent
//!   first, and an arriving request may bypass less urgent waiters ("2PL
//!   with priority mode").
//!
//! The table reports, for every blocked request, the set of transactions it
//! waits for — the edges fed into the [waits-for graph](crate::wfg) for
//! deadlock detection.
//!
//! The per-object grant rule lives in [`LockEntry`], which the live
//! backend's sharded table (`rtlock-live`) stores too; [`LockTable`] adds
//! the object map, per-transaction indexes, counters and the journal.
//!
//! # Example
//!
//! ```
//! use rtdb::{LockTable, LockMode, LockOutcome, QueuePolicy, TxnId, ObjectId};
//! use starlite::Priority;
//!
//! let mut lt = LockTable::new(QueuePolicy::Priority);
//! let o = ObjectId(0);
//! assert_eq!(lt.request(TxnId(1), o, LockMode::Write, Priority::new(1)), LockOutcome::Granted);
//! match lt.request(TxnId(2), o, LockMode::Read, Priority::new(5)) {
//!     LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(1)]),
//!     other => panic!("expected wait, got {other:?}"),
//! }
//! let woken = lt.release_all(TxnId(1));
//! assert_eq!(woken.len(), 1);
//! assert_eq!(woken[0].txn, TxnId(2));
//! ```

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};
use starlite::{FxHashMap, FxHashSet, Priority};

use crate::ids::{ObjectId, TxnId};
use crate::small::InlineVec;

/// Lock modes with the usual compatibility: reads share, writes exclude.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockMode {
    /// Shared access.
    #[default]
    Read,
    /// Exclusive access.
    Write,
}

impl LockMode {
    /// Whether two locks may be held simultaneously by different
    /// transactions.
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Read && other == LockMode::Read
    }
}

/// Wait-queue discipline of a [`LockTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueuePolicy {
    /// Strict arrival order; no bypassing.
    Fifo,
    /// Most urgent waiter first; arrivals may bypass less urgent waiters.
    Priority,
}

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request queued; `blockers` are the transactions it waits for
    /// (conflicting holders plus conflicting waiters served earlier).
    Waiting {
        /// Transactions this request waits for, for deadlock detection.
        blockers: Vec<TxnId>,
    },
}

/// One journalled lock-table happening (see [`LockTable::set_tracing`]).
///
/// The table has no notion of simulation time, so entries are unstamped;
/// the simulation model drains the journal immediately after each table
/// call and stamps the entries with the current instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockEvent {
    /// `txn` asked for `mode` on `object`.
    Requested {
        /// Requesting transaction.
        txn: TxnId,
        /// Requested object.
        object: ObjectId,
        /// Requested mode.
        mode: LockMode,
    },
    /// The request was granted — immediately, or later by a release pass.
    Granted {
        /// Transaction now holding the lock.
        txn: TxnId,
        /// The locked object.
        object: ObjectId,
        /// The granted mode.
        mode: LockMode,
    },
    /// The request queued behind a conflict.
    Blocked {
        /// The waiting transaction.
        txn: TxnId,
        /// The contended object.
        object: ObjectId,
        /// The mode it wants.
        mode: LockMode,
        /// One representative blocker (the first reported), if any.
        blocker: Option<TxnId>,
    },
    /// `txn`'s lock on `object` was released.
    Released {
        /// The releasing transaction.
        txn: TxnId,
        /// The object released.
        object: ObjectId,
    },
    /// A read lock became a write lock (in place or via the queue).
    Upgraded {
        /// The upgrading transaction.
        txn: TxnId,
        /// The upgraded object.
        object: ObjectId,
    },
}

/// A lock granted during a release pass; the caller resumes this
/// transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantedLock {
    /// The transaction whose request was granted.
    pub txn: TxnId,
    /// The object now locked.
    pub object: ObjectId,
    /// The granted mode.
    pub mode: LockMode,
}

/// How [`LockEntry::request`] resolved a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryOutcome {
    /// A held lock already covers the request (a repeat, or read under
    /// write); nothing changed.
    Held,
    /// The requester joined the holders.
    Granted,
    /// The requester's read lock became a write lock in place.
    Upgraded,
    /// The request joined the wait queue.
    Queued,
}

/// A waiter served by [`LockEntry::grant_next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryGrant {
    /// The transaction whose request was granted.
    pub txn: TxnId,
    /// The granted mode (`Write` for an upgrade).
    pub mode: LockMode,
    /// `true` when a held read lock became a write lock.
    pub upgrade: bool,
}

#[derive(Debug, Clone)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    priority: Priority,
    seq: u64,
    /// `true` when the waiter already holds a read lock and wants write.
    upgrade: bool,
}

impl Waiter {
    /// Whether `self` is served before `other` under `policy`: FIFO by
    /// arrival, Priority most urgent first with ties by arrival.
    fn served_before(&self, other: &Waiter, policy: QueuePolicy) -> bool {
        match policy {
            QueuePolicy::Fifo => self.seq < other.seq,
            QueuePolicy::Priority => (self.priority, other.seq) > (other.priority, self.seq),
        }
    }
}

/// The grant state of one object — holders and wait queue — and the one
/// rule that decides between them: holder compatibility, queue order
/// (FIFO, or most urgent first with ties by arrival), arrival bypass
/// under [`QueuePolicy::Priority`], upgrade precedence, blocker sets and
/// the grant pass. Simulated and live 2PL both store one per locked
/// object, so they grant alike.
///
/// Blocker queries and the grant pass take a `skip` predicate naming
/// waiters to treat as absent (the live backend's poisoned deadlock
/// victims, queued until their threads withdraw); the simulator passes
/// `|_| false`.
#[derive(Debug, Default)]
pub struct LockEntry {
    /// Holders stay inline for up to four concurrent readers — the common
    /// case allocates nothing on first lock.
    holders: InlineVec<(TxnId, LockMode), 4>,
    queue: VecDeque<Waiter>,
    /// Arrival counter: orders waiters of equal priority.
    next_seq: u64,
}

impl LockEntry {
    /// Requests `mode` for `txn`.
    ///
    /// A mode already covered by a held lock is [`EntryOutcome::Held`]. A
    /// read-to-write upgrade happens in place when `txn` is the sole
    /// holder and otherwise queues at the front. Any other request is
    /// granted when it conflicts with no holder and with no waiter served
    /// before it — under FIFO every waiter, under Priority only those at
    /// least as urgent — and queues otherwise.
    ///
    /// `priority` is called at most once, and only when a conflict makes
    /// the requester's urgency matter, so a caller can defer looking it up.
    pub fn request(
        &mut self,
        policy: QueuePolicy,
        txn: TxnId,
        mode: LockMode,
        priority: impl FnOnce() -> Priority,
    ) -> EntryOutcome {
        match self.holder_mode(txn) {
            Some(LockMode::Write) => return EntryOutcome::Held,
            Some(LockMode::Read) if mode == LockMode::Read => return EntryOutcome::Held,
            Some(LockMode::Read) => {
                if !self.has_holder_conflict(txn, LockMode::Write) {
                    self.set_write(txn);
                    return EntryOutcome::Upgraded;
                }
                // Upgrades go to the very front: the transaction already
                // holds a read lock, so nothing behind it can run anyway.
                let waiter = self.waiter(txn, LockMode::Write, priority(), true);
                self.queue.push_front(waiter);
                return EntryOutcome::Queued;
            }
            None => {}
        }
        let holder_conflict = self.has_holder_conflict(txn, mode);
        if !holder_conflict && self.queue.iter().all(|w| w.mode.compatible(mode)) {
            self.holders.push((txn, mode));
            return EntryOutcome::Granted;
        }
        let priority = priority();
        let bypass = !holder_conflict
            && policy == QueuePolicy::Priority
            && self
                .queue
                .iter()
                .all(|w| w.priority < priority || w.mode.compatible(mode));
        if bypass {
            self.holders.push((txn, mode));
            return EntryOutcome::Granted;
        }
        let waiter = self.waiter(txn, mode, priority, false);
        self.queue.push_back(waiter);
        EntryOutcome::Queued
    }

    /// Writes into `out` (cleared first; sorted, deduplicated) the
    /// transactions queued `txn` waits for: its conflicting holders plus,
    /// unless it is an upgrade, the conflicting waiters served before it.
    /// An upgrade is served before any queued request, so counting queued
    /// writers for it would inject phantom waits-for edges (and spurious
    /// deadlock cycles). Empty when `txn` is not queued here.
    pub fn blockers_into(
        &self,
        policy: QueuePolicy,
        txn: TxnId,
        skip: impl Fn(TxnId) -> bool,
        out: &mut Vec<TxnId>,
    ) {
        out.clear();
        let Some(me) = self.queue.iter().find(|w| w.txn == txn) else {
            return;
        };
        out.extend(
            self.holders
                .iter()
                .filter(|&&(t, m)| t != txn && !m.compatible(me.mode))
                .map(|&(t, _)| t),
        );
        if !me.upgrade {
            out.extend(
                self.queue
                    .iter()
                    .filter(|w| {
                        w.txn != txn
                            && !skip(w.txn)
                            && !w.mode.compatible(me.mode)
                            && w.served_before(me, policy)
                    })
                    .map(|w| w.txn),
            );
        }
        out.sort_unstable();
        out.dedup();
    }

    /// One step of the grant pass: serves the next waiter if it is
    /// grantable, moving it to the holders, and returns it; `None` once
    /// the waiter due next must keep waiting (or none is left).
    ///
    /// The waiter due next is the first eligible upgrade if there is one,
    /// and otherwise the queue head under `policy`. An eligible upgrade
    /// always goes first: the upgrader already holds a read lock, so no
    /// conflicting waiter can progress before it anyway, and selecting a
    /// more urgent (but ineligible) writer instead would park the pass and
    /// strand the grantable upgrade forever — a spurious head-of-line
    /// deadlock.
    pub fn grant_next(
        &mut self,
        policy: QueuePolicy,
        skip: impl Fn(TxnId) -> bool,
    ) -> Option<EntryGrant> {
        let sole_holder = |txn: TxnId| self.holders.iter().all(|&(t, _)| t == txn);
        let mut live = self.queue.iter().enumerate().filter(|(_, w)| !skip(w.txn));
        let upgrade = live.clone().find(|(_, w)| w.upgrade && sole_holder(w.txn));
        let (idx, w) = match (upgrade, policy) {
            (Some(next), _) => next,
            (None, QueuePolicy::Fifo) => live.next()?,
            (None, QueuePolicy::Priority) => live.reduce(|best, cand| {
                if cand.1.served_before(best.1, policy) {
                    cand
                } else {
                    best
                }
            })?,
        };
        let eligible = if w.upgrade {
            sole_holder(w.txn)
        } else {
            !self.has_holder_conflict(w.txn, w.mode)
        };
        if !eligible {
            return None;
        }
        let w = self.queue.remove(idx).expect("index in range");
        if w.upgrade {
            self.set_write(w.txn);
        } else {
            self.holders.push((w.txn, w.mode));
        }
        Some(EntryGrant {
            txn: w.txn,
            mode: w.mode,
            upgrade: w.upgrade,
        })
    }

    /// Drops `txn` from the holders; returns whether it held a lock.
    pub fn release(&mut self, txn: TxnId) -> bool {
        let before = self.holders.len();
        self.holders.retain(|&(t, _)| t != txn);
        self.holders.len() != before
    }

    /// Drops `txn` from the wait queue; returns whether it was queued.
    pub fn withdraw(&mut self, txn: TxnId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|w| w.txn != txn);
        self.queue.len() != before
    }

    /// Sets the queue priority of waiter `txn` (no-op if not queued).
    pub fn set_waiter_priority(&mut self, txn: TxnId, priority: Priority) {
        if let Some(w) = self.queue.iter_mut().find(|w| w.txn == txn) {
            w.priority = priority;
        }
    }

    /// Mode held by `txn`, if any.
    pub fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    /// Current holders with their modes, in grant order.
    pub fn holders(&self) -> &[(TxnId, LockMode)] {
        self.holders.as_slice()
    }

    /// Queued transactions, front of the queue first.
    pub fn waiters(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.queue.iter().map(|w| w.txn)
    }

    /// Whether the object has neither holders nor waiters.
    pub fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.queue.is_empty()
    }

    /// Panics unless the holders are distinct and pairwise compatible, no
    /// holder is queued except as an upgrade, and every upgrade waiter
    /// holds a read lock. `object` only labels the messages.
    pub fn check_invariants(&self, object: ObjectId) {
        for (i, &(t1, m1)) in self.holders.iter().enumerate() {
            for &(t2, m2) in &self.holders[i + 1..] {
                assert!(t1 != t2, "duplicate holder {t1} on {object}");
                assert!(
                    m1.compatible(m2),
                    "incompatible holders {t1}:{m1:?} and {t2}:{m2:?} on {object}"
                );
            }
        }
        for w in &self.queue {
            let held = self.holder_mode(w.txn);
            if w.upgrade {
                assert_eq!(
                    held,
                    Some(LockMode::Read),
                    "upgrade waiter {} does not hold a read lock on {object}",
                    w.txn
                );
            } else {
                assert!(
                    held.is_none(),
                    "{} queued on {object} while holding it (non-upgrade)",
                    w.txn
                );
            }
        }
    }

    fn waiter(&mut self, txn: TxnId, mode: LockMode, priority: Priority, upgrade: bool) -> Waiter {
        let seq = self.next_seq;
        self.next_seq += 1;
        Waiter {
            txn,
            mode,
            priority,
            seq,
            upgrade,
        }
    }

    /// Allocation-free conflict test against the holders other than `txn`.
    fn has_holder_conflict(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .any(|&(t, m)| t != txn && !m.compatible(mode))
    }

    fn set_write(&mut self, txn: TxnId) {
        for h in self.holders.iter_mut() {
            if h.0 == txn {
                h.1 = LockMode::Write;
            }
        }
    }
}

/// The lock table of one site: a [`LockEntry`] per locked object plus the
/// per-transaction indexes, counters and journal around them.
///
/// See the [module documentation](self) for semantics and an example.
pub struct LockTable {
    policy: QueuePolicy,
    locks: FxHashMap<ObjectId, LockEntry>,
    held_by: FxHashMap<TxnId, FxHashSet<ObjectId>>,
    waiting_on: FxHashMap<TxnId, ObjectId>,
    grants: u64,
    waits: u64,
    upgrades: u64,
    /// Reused by [`LockTable::release_all`] for the affected-object list, so
    /// the per-commit release path stops allocating once warm.
    scratch_objs: Vec<ObjectId>,
    trace: bool,
    journal: Vec<LockEvent>,
}

impl fmt::Debug for LockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockTable")
            .field("policy", &self.policy)
            .field("locked_objects", &self.locks.len())
            .field("grants", &self.grants)
            .field("waits", &self.waits)
            .finish()
    }
}

impl LockTable {
    /// Creates an empty lock table with the given queue discipline.
    pub fn new(policy: QueuePolicy) -> Self {
        LockTable {
            policy,
            locks: FxHashMap::default(),
            held_by: FxHashMap::default(),
            waiting_on: FxHashMap::default(),
            grants: 0,
            waits: 0,
            upgrades: 0,
            scratch_objs: Vec::new(),
            trace: false,
            journal: Vec::new(),
        }
    }

    /// Turns journalling of grants, waits, upgrades and releases on or off.
    /// Off by default; with tracing off the journal stays empty and request
    /// paths pay one predictable branch.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = on;
    }

    /// Moves all journalled entries into `out` (appending), oldest first.
    /// A no-op when tracing is off.
    pub fn drain_journal(&mut self, out: &mut Vec<LockEvent>) {
        out.append(&mut self.journal);
    }

    /// Requests `mode` on `object` for `txn` at `priority`; the grant rule
    /// is [`LockEntry::request`].
    ///
    /// # Panics
    ///
    /// Panics if `txn` is already waiting for some lock — transactions
    /// request locks one at a time.
    pub fn request(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        mode: LockMode,
        priority: Priority,
    ) -> LockOutcome {
        assert!(
            !self.waiting_on.contains_key(&txn),
            "{txn} requested a lock while already waiting"
        );
        if self.trace {
            self.journal
                .push(LockEvent::Requested { txn, object, mode });
        }
        let entry = self.locks.entry(object).or_default();
        let outcome = entry.request(self.policy, txn, mode, || priority);
        match outcome {
            EntryOutcome::Held => {}
            EntryOutcome::Granted => {
                self.held_by.entry(txn).or_default().insert(object);
            }
            EntryOutcome::Upgraded => self.upgrades += 1,
            EntryOutcome::Queued => {
                let mut blockers = Vec::new();
                entry.blockers_into(self.policy, txn, |_| false, &mut blockers);
                self.waiting_on.insert(txn, object);
                self.waits += 1;
                if self.trace {
                    self.journal.push(LockEvent::Blocked {
                        txn,
                        object,
                        mode,
                        blocker: blockers.first().copied(),
                    });
                }
                return LockOutcome::Waiting { blockers };
            }
        }
        self.grants += 1;
        if self.trace {
            self.journal.push(if outcome == EntryOutcome::Upgraded {
                LockEvent::Upgraded { txn, object }
            } else {
                LockEvent::Granted { txn, object, mode }
            });
        }
        LockOutcome::Granted
    }

    /// Releases every lock held or awaited by `txn` and wakes eligible
    /// waiters. Affected objects are processed in ascending id order; per
    /// object, waiters wake as [`LockEntry::grant_next`] orders them.
    /// Returns the requests granted by this release.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<GrantedLock> {
        let mut affected = std::mem::take(&mut self.scratch_objs);
        affected.clear();
        if let Some(objs) = self.held_by.remove(&txn) {
            for obj in objs {
                if let Some(entry) = self.locks.get_mut(&obj) {
                    entry.release(txn);
                }
                affected.push(obj);
            }
        }
        if self.trace {
            // `affected` holds exactly the released objects here (the
            // awaited one is appended below); journal them in id order so
            // the hash-map iteration above cannot leak into the trace.
            let mut released = affected.clone();
            released.sort_unstable();
            for object in released {
                self.journal.push(LockEvent::Released { txn, object });
            }
        }
        if let Some(obj) = self.waiting_on.remove(&txn) {
            if let Some(entry) = self.locks.get_mut(&obj) {
                entry.withdraw(txn);
            }
            affected.push(obj);
        }
        affected.sort_unstable();
        affected.dedup();

        let mut granted = Vec::new();
        for &obj in &affected {
            self.grant_pass(obj, &mut granted);
        }
        self.scratch_objs = affected;
        granted
    }

    /// Updates the queue priority of a waiting transaction (used when a
    /// waiter inherits a higher priority through locks it holds elsewhere).
    /// No-op if `txn` is not waiting.
    pub fn update_waiter_priority(&mut self, txn: TxnId, priority: Priority) {
        if let Some(&obj) = self.waiting_on.get(&txn) {
            if let Some(entry) = self.locks.get_mut(&obj) {
                entry.set_waiter_priority(txn, priority);
            }
        }
    }

    /// The object `txn` is currently waiting for, if any.
    pub fn waiting_for(&self, txn: TxnId) -> Option<ObjectId> {
        self.waiting_on.get(&txn).copied()
    }

    /// All transactions currently waiting for some lock, sorted by id.
    pub fn waiters(&self) -> Vec<TxnId> {
        let mut v = Vec::new();
        self.waiters_into(&mut v);
        v
    }

    /// Like [`LockTable::waiters`], writing into a caller-owned buffer so
    /// periodic deadlock-detection passes can reuse one allocation.
    pub fn waiters_into(&self, out: &mut Vec<TxnId>) {
        out.clear();
        out.extend(self.waiting_on.keys().copied());
        out.sort_unstable();
    }

    /// The transactions currently blocking `txn` (empty when not waiting).
    /// This recomputes the same set [`LockTable::request`] reported, against
    /// the current table state.
    pub fn current_blockers(&self, txn: TxnId) -> Vec<TxnId> {
        let mut v = Vec::new();
        self.current_blockers_into(txn, &mut v);
        v
    }

    /// Like [`LockTable::current_blockers`], writing into a caller-owned
    /// buffer (cleared first) so waits-for-graph refreshes can reuse one.
    pub fn current_blockers_into(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        out.clear();
        if let Some(entry) = self.waiting_on.get(&txn).and_then(|o| self.locks.get(o)) {
            entry.blockers_into(self.policy, txn, |_| false, out);
        }
    }

    /// Mode held by `txn` on `object`, if any.
    pub fn held_mode(&self, txn: TxnId, object: ObjectId) -> Option<LockMode> {
        self.locks.get(&object).and_then(|s| s.holder_mode(txn))
    }

    /// All objects currently locked by `txn`.
    pub fn held_objects(&self, txn: TxnId) -> Vec<ObjectId> {
        self.held_by
            .get(&txn)
            .map(|s| {
                let mut v: Vec<ObjectId> = s.iter().copied().collect();
                v.sort_unstable();
                v
            })
            .unwrap_or_default()
    }

    /// Current holders of `object` with their modes, as a borrowed view
    /// (the hot monitoring path must not clone the holder list).
    pub fn holders(&self, object: ObjectId) -> &[(TxnId, LockMode)] {
        self.locks
            .get(&object)
            .map(LockEntry::holders)
            .unwrap_or(&[])
    }

    /// Number of requests granted so far (including re-grants and upgrades).
    pub fn grant_count(&self) -> u64 {
        self.grants
    }

    /// Number of requests that had to wait.
    pub fn wait_count(&self) -> u64 {
        self.waits
    }

    /// Number of read-to-write upgrades granted in place.
    pub fn upgrade_count(&self) -> u64 {
        self.upgrades
    }

    /// Internal invariant check for tests: every entry passes
    /// [`LockEntry::check_invariants`], every holder set is consistent
    /// with `held_by`, and every waiter with `waiting_on`.
    pub fn check_invariants(&self) {
        for (obj, entry) in &self.locks {
            entry.check_invariants(*obj);
            for &(t, _) in entry.holders() {
                assert!(
                    self.held_by.get(&t).is_some_and(|s| s.contains(obj)),
                    "holder {t} of {obj} missing from held_by"
                );
            }
            for t in entry.waiters() {
                assert_eq!(
                    self.waiting_on.get(&t),
                    Some(obj),
                    "waiting_on out of sync for {t}"
                );
            }
        }
    }

    /// Runs `object`'s grant pass to completion, recording each grant,
    /// and drops the entry once it is idle.
    fn grant_pass(&mut self, object: ObjectId, granted: &mut Vec<GrantedLock>) {
        let Some(entry) = self.locks.get_mut(&object) else {
            return;
        };
        while let Some(g) = entry.grant_next(self.policy, |_| false) {
            if g.upgrade {
                self.upgrades += 1;
            } else {
                self.held_by.entry(g.txn).or_default().insert(object);
            }
            self.waiting_on.remove(&g.txn);
            self.grants += 1;
            if self.trace {
                self.journal.push(if g.upgrade {
                    LockEvent::Upgraded { txn: g.txn, object }
                } else {
                    LockEvent::Granted {
                        txn: g.txn,
                        object,
                        mode: g.mode,
                    }
                });
            }
            granted.push(GrantedLock {
                txn: g.txn,
                object,
                mode: g.mode,
            });
        }
        if entry.is_idle() {
            self.locks.remove(&object);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(level: i64) -> Priority {
        Priority::new(level)
    }

    #[test]
    fn readers_share() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Read, p(0)),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(2), o, LockMode::Read, p(0)),
            LockOutcome::Granted
        );
        lt.check_invariants();
        assert_eq!(lt.holders(o).len(), 2);
    }

    #[test]
    fn writer_excludes_and_wakes_fifo() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        let out = lt.request(TxnId(2), o, LockMode::Write, p(9));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(1)]
            }
        );
        let out = lt.request(TxnId(3), o, LockMode::Write, p(5));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(1), TxnId(2)]
            }
        );
        lt.check_invariants();
        // FIFO: T2 first despite T3's request later with lower priority.
        let woken = lt.release_all(TxnId(1));
        assert_eq!(
            woken,
            vec![GrantedLock {
                txn: TxnId(2),
                object: o,
                mode: LockMode::Write
            }]
        );
        let woken = lt.release_all(TxnId(2));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].txn, TxnId(3));
    }

    #[test]
    fn priority_queue_serves_most_urgent() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Write, p(1));
        lt.request(TxnId(3), o, LockMode::Write, p(9));
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(3));
        lt.check_invariants();
    }

    #[test]
    fn fifo_read_waits_behind_queued_writer() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(2), o, LockMode::Write, p(0)); // queues
        let out = lt.request(TxnId(3), o, LockMode::Read, p(0));
        // T3 must wait behind the writer even though compatible w/ holder.
        match out {
            LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(2)]),
            other => panic!("unexpected {other:?}"),
        }
        // Release the reader: writer goes first, then the reader.
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].txn, TxnId(2));
        let woken = lt.release_all(TxnId(2));
        assert_eq!(woken[0].txn, TxnId(3));
    }

    #[test]
    fn priority_read_bypasses_lower_priority_writer() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(5));
        lt.request(TxnId(2), o, LockMode::Write, p(1)); // queues
        let out = lt.request(TxnId(3), o, LockMode::Read, p(9));
        assert_eq!(out, LockOutcome::Granted);
        lt.check_invariants();
    }

    #[test]
    fn priority_read_does_not_bypass_higher_priority_writer() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(5));
        lt.request(TxnId(2), o, LockMode::Write, p(8)); // queues, urgent
        let out = lt.request(TxnId(3), o, LockMode::Read, p(2));
        match out {
            LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(2)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn upgrade_in_place_when_sole_holder() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Write, p(0)),
            LockOutcome::Granted
        );
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
        assert_eq!(lt.upgrade_count(), 1);
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_wins() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(0));
        match out {
            LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(2)]),
            other => panic!("unexpected {other:?}"),
        }
        // A later writer queues behind the upgrade.
        lt.request(TxnId(3), o, LockMode::Write, p(0));
        let woken = lt.release_all(TxnId(2));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].txn, TxnId(1));
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
        lt.check_invariants();
    }

    #[test]
    fn upgrade_not_starved_by_more_urgent_queued_writer() {
        // T1 and T2 hold reads; T1 queues an upgrade; a high-priority
        // writer T3 queues behind it. When T2 releases, the upgrade is the
        // only grantable request — selecting T3 by priority and giving up
        // would strand T1 on an object only T1 holds.
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(1));
        lt.request(TxnId(2), o, LockMode::Read, p(2));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(1));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(2)]
            }
        );
        lt.request(TxnId(3), o, LockMode::Write, p(9));
        let woken = lt.release_all(TxnId(2));
        assert_eq!(
            woken,
            vec![GrantedLock {
                txn: TxnId(1),
                object: o,
                mode: LockMode::Write
            }]
        );
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
        lt.check_invariants();
        // T3 follows once the upgraded writer finishes.
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(3));
    }

    #[test]
    fn two_upgraders_report_mutual_blockers() {
        // Both readers request an upgrade: a genuine deadlock the table
        // cannot resolve itself. Each must report the other as a blocker so
        // the waits-for graph sees the cycle; aborting either victim lets
        // the survivor's upgrade through.
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(0));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(2)]
            }
        );
        let out = lt.request(TxnId(2), o, LockMode::Write, p(0));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(1)]
            }
        );
        assert_eq!(lt.current_blockers(TxnId(1)), vec![TxnId(2)]);
        assert_eq!(lt.current_blockers(TxnId(2)), vec![TxnId(1)]);
        lt.check_invariants();
        // Deadlock resolution aborts T2; T1's upgrade becomes grantable.
        let woken = lt.release_all(TxnId(2));
        assert_eq!(
            woken,
            vec![GrantedLock {
                txn: TxnId(1),
                object: o,
                mode: LockMode::Write
            }]
        );
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
        lt.check_invariants();
    }

    #[test]
    fn upgrade_blockers_exclude_queued_writers() {
        // The upgrade is served before any queued request, so its reported
        // blockers are the other holders only — no phantom edges to queued
        // writers that would fake a deadlock cycle.
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(1));
        lt.request(TxnId(2), o, LockMode::Read, p(2));
        lt.request(TxnId(3), o, LockMode::Write, p(9));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(1));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(2)]
            }
        );
        assert_eq!(lt.current_blockers(TxnId(1)), vec![TxnId(2)]);
        lt.check_invariants();
    }

    #[test]
    fn re_request_held_lock_is_granted() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Read, p(0)),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Write, p(0)),
            LockOutcome::Granted
        );
    }

    #[test]
    fn release_of_waiting_txn_removes_it_from_queue() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Write, p(0));
        lt.request(TxnId(3), o, LockMode::Write, p(0));
        // T2 aborts while waiting.
        let woken = lt.release_all(TxnId(2));
        assert!(woken.is_empty());
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(3));
        lt.check_invariants();
    }

    #[test]
    fn reader_batch_wakes_together() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        lt.request(TxnId(3), o, LockMode::Read, p(0));
        lt.request(TxnId(4), o, LockMode::Write, p(0));
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken.len(), 2);
        assert!(woken.iter().all(|g| g.mode == LockMode::Read));
        lt.check_invariants();
    }

    #[test]
    fn current_blockers_tracks_state() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(5));
        lt.request(TxnId(2), o, LockMode::Write, p(3));
        assert_eq!(lt.current_blockers(TxnId(2)), vec![TxnId(1)]);
        lt.request(TxnId(3), o, LockMode::Write, p(7));
        assert_eq!(lt.current_blockers(TxnId(2)), vec![TxnId(1), TxnId(3)]);
        assert!(lt.current_blockers(TxnId(1)).is_empty());
    }

    #[test]
    fn waiter_priority_update_changes_service_order() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(9));
        lt.request(TxnId(2), o, LockMode::Write, p(1));
        lt.request(TxnId(3), o, LockMode::Write, p(5));
        lt.update_waiter_priority(TxnId(2), p(8));
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(2));
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn double_wait_panics() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.request(TxnId(1), ObjectId(1), LockMode::Write, p(0));
        lt.request(TxnId(2), ObjectId(1), LockMode::Write, p(0));
        lt.request(TxnId(2), ObjectId(2), LockMode::Write, p(0));
    }

    #[test]
    fn journal_records_lock_lifecycle() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.set_tracing(true);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        lt.release_all(TxnId(1));
        let mut journal = Vec::new();
        lt.drain_journal(&mut journal);
        assert_eq!(
            journal,
            vec![
                LockEvent::Requested {
                    txn: TxnId(1),
                    object: o,
                    mode: LockMode::Write
                },
                LockEvent::Granted {
                    txn: TxnId(1),
                    object: o,
                    mode: LockMode::Write
                },
                LockEvent::Requested {
                    txn: TxnId(2),
                    object: o,
                    mode: LockMode::Read
                },
                LockEvent::Blocked {
                    txn: TxnId(2),
                    object: o,
                    mode: LockMode::Read,
                    blocker: Some(TxnId(1))
                },
                LockEvent::Released {
                    txn: TxnId(1),
                    object: o
                },
                LockEvent::Granted {
                    txn: TxnId(2),
                    object: o,
                    mode: LockMode::Read
                },
            ]
        );
        let mut again = Vec::new();
        lt.drain_journal(&mut again);
        assert!(again.is_empty());
    }

    #[test]
    fn journal_records_upgrades() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.set_tracing(true);
        let o = ObjectId(3);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        let mut journal = Vec::new();
        lt.drain_journal(&mut journal);
        assert_eq!(
            journal[3],
            LockEvent::Upgraded {
                txn: TxnId(1),
                object: o
            }
        );
    }

    #[test]
    fn journal_stays_empty_without_tracing() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.request(TxnId(1), ObjectId(1), LockMode::Write, p(0));
        lt.release_all(TxnId(1));
        let mut journal = Vec::new();
        lt.drain_journal(&mut journal);
        assert!(journal.is_empty());
    }

    #[test]
    fn entry_skips_waiters_and_asks_priority_only_on_conflict() {
        let fifo = QueuePolicy::Fifo;
        let mut e = LockEntry::default();
        let no_priority = || -> Priority { panic!("priority asked without a conflict") };
        assert_eq!(
            e.request(fifo, TxnId(1), LockMode::Read, no_priority),
            EntryOutcome::Granted
        );
        assert_eq!(
            e.request(fifo, TxnId(2), LockMode::Write, || p(0)),
            EntryOutcome::Queued
        );
        assert_eq!(
            e.request(fifo, TxnId(3), LockMode::Read, || p(0)),
            EntryOutcome::Queued
        );
        // With the writer T2 skipped (a poisoned victim), nothing blocks
        // the reader T3 and it is due next.
        let skip = |t: TxnId| t == TxnId(2);
        let mut blockers = Vec::new();
        e.blockers_into(fifo, TxnId(3), skip, &mut blockers);
        assert!(blockers.is_empty());
        assert_eq!(
            e.grant_next(fifo, skip),
            Some(EntryGrant {
                txn: TxnId(3),
                mode: LockMode::Read,
                upgrade: false
            })
        );
        assert_eq!(e.grant_next(fifo, skip), None);
        assert!(e.withdraw(TxnId(2)));
        e.check_invariants(ObjectId(0));
    }

    #[test]
    fn held_objects_sorted() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.request(TxnId(1), ObjectId(5), LockMode::Read, p(0));
        lt.request(TxnId(1), ObjectId(2), LockMode::Write, p(0));
        assert_eq!(lt.held_objects(TxnId(1)), vec![ObjectId(2), ObjectId(5)]);
    }
}
