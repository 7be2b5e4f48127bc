//! The priority ceiling protocol (the paper's contribution, §3.2).
//!
//! Three ceilings are defined for each data object over the set of *active*
//! transactions (arrived but not yet completed):
//!
//! * **write-priority ceiling** — the priority of the highest-priority
//!   active transaction that may *write* the object;
//! * **absolute-priority ceiling** — the priority of the highest-priority
//!   active transaction that may *read or write* it;
//! * **rw-priority ceiling** — set dynamically when the object is locked:
//!   equal to the absolute ceiling while write-locked, and to the write
//!   ceiling while read-locked.
//!
//! A transaction may lock an object only if its priority is **strictly
//! higher than the highest rw-priority ceiling of all objects currently
//! locked by other transactions**; otherwise it blocks, and the holder of
//! that highest-ceiling lock inherits the blocked transaction's priority.
//! The combination yields freedom from deadlock and blocking by at most a
//! single lower-priority transaction — both properties are asserted by the
//! integration tests.
//!
//! The [`PriorityCeilingProtocol::exclusive`] variant answers the open
//! question in the paper's conclusion (can read semantics *hurt*?): it
//! treats every lock as exclusive, making the rw-ceiling always equal to
//! the absolute ceiling.
//!
//! Releases do not re-test every waiter from scratch. Each waiter keeps
//! its gate-1 conflict set, updated as transactions enter and leave their
//! locking phases, and gate 2 is one shield shared by all waiters: only
//! entrants block, and an entrant holds no lock, so "objects locked by
//! other transactions" is every locked object. A release then wakes the
//! first waiter in wake order with no conflicts and a priority above the
//! shield.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::fmt;

use monitor::SimEventKind;
use rtdb::{InlineVec, LockMode, ObjectId, TxnId, TxnSpec};
use starlite::{FxHashMap, Priority};

use crate::protocols::inheritance::{effective_priorities, Boosts};
use crate::protocols::{
    LockProtocol, ReleaseReason, ReleaseResult, RequestOutcome, RequestResult, Wakeup,
};

/// Lock semantics of the ceiling protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CeilingSemantics {
    /// Readers share; the rw-ceiling of a read-locked object is its write
    /// ceiling (the paper's protocol "C").
    ReadWrite,
    /// Every lock is exclusive; the rw-ceiling is always the absolute
    /// ceiling (the §5 ablation).
    Exclusive,
}

/// Declared access sets of a registered transaction. Sets are short (the
/// workload sizes cap at tens of objects), so they live inline: register /
/// deregister of the per-commit system transactions in the replicated
/// architecture must not touch the heap. Both sets are kept **sorted**
/// (the declaration order is irrelevant here — `writers`/`accessors`
/// preserve it) so conflict tests run as linear merges.
#[derive(Debug)]
struct ActiveTxn {
    reads: InlineVec<ObjectId, 8>,
    writes: InlineVec<ObjectId, 8>,
    /// 64-bit membership signatures (bit `id mod 64` per object): two sets
    /// whose signatures do not intersect are provably disjoint, which
    /// short-circuits most pairwise conflict tests in admission.
    read_sig: u64,
    write_sig: u64,
    /// A request of this transaction waits in `blocked`.
    waiting: bool,
}

impl ActiveTxn {
    /// Whether the declared access sets of `self` and `other` conflict
    /// under `semantics`.
    fn conflicts_with(&self, other: &ActiveTxn, semantics: CeilingSemantics) -> bool {
        let (a, b) = (self, other);
        // Signature pre-filter: a zero intersection proves disjointness,
        // so the exact scan below runs only for plausible conflicts.
        let possible = match semantics {
            CeilingSemantics::Exclusive => {
                (a.read_sig | a.write_sig) & (b.read_sig | b.write_sig) != 0
            }
            CeilingSemantics::ReadWrite => {
                ((a.write_sig & (b.read_sig | b.write_sig)) | (a.read_sig & b.write_sig)) != 0
            }
        };
        if !possible {
            return false;
        }
        match semantics {
            CeilingSemantics::Exclusive => {
                sorted_overlap(&a.writes, &b.writes)
                    || sorted_overlap(&a.writes, &b.reads)
                    || sorted_overlap(&a.reads, &b.writes)
                    || sorted_overlap(&a.reads, &b.reads)
            }
            CeilingSemantics::ReadWrite => {
                sorted_overlap(&a.writes, &b.writes)
                    || sorted_overlap(&a.writes, &b.reads)
                    || sorted_overlap(&a.reads, &b.writes)
            }
        }
    }
}

/// Whether two ascending-sorted object lists share an element.
fn sorted_overlap(xs: &[ObjectId], ys: &[ObjectId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

fn set_signature(objs: &[ObjectId]) -> u64 {
    objs.iter().fold(0u64, |s, o| s | 1u64 << (o.0 & 63))
}

#[derive(Debug)]
struct Locked {
    mode: LockMode,
    holders: InlineVec<TxnId, 2>,
}

/// A queued entrant. Only entrants block, and an entrant holds no lock.
#[derive(Debug)]
struct BlockedReq {
    txn: TxnId,
    object: ObjectId,
    mode: LockMode,
    /// The waiter's base priority; `blocked` is kept in wake order,
    /// (priority descending, seq).
    priority: Priority,
    seq: u64,
    /// Gate 1: the in-phase transactions whose declared sets conflict
    /// with the waiter's, ascending. Kept exact as transactions enter and
    /// leave their phases.
    conflicts: InlineVec<TxnId, 4>,
    /// The transactions the waiter is charged to for inheritance: its
    /// conflicts or, with none, the shield's holders — as of the last
    /// release or its own block, whichever came later.
    blockers: Vec<TxnId>,
}

/// Gate 2: the locked object with the highest rw-ceiling, ties to the
/// lowest id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Shield {
    ceiling: Priority,
    object: ObjectId,
}

/// Which admission gate denied a request — distinguishes an ordinary lock
/// conflict (gate 1) from the paper's ceiling rule (gate 2) so the event
/// journal can tell [`SimEventKind::LockBlocked`] from
/// [`SimEventKind::CeilingBlocked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DenialGate {
    SetConflict,
    Ceiling,
}

/// The priority ceiling protocol engine for one site.
pub struct PriorityCeilingProtocol {
    semantics: CeilingSemantics,
    active: FxHashMap<TxnId, ActiveTxn>,
    /// Ceiling contributions: active transactions that may write / access
    /// each object.
    writers: FxHashMap<ObjectId, InlineVec<(TxnId, Priority), 4>>,
    accessors: FxHashMap<ObjectId, InlineVec<(TxnId, Priority), 4>>,
    locked: FxHashMap<ObjectId, Locked>,
    /// The in-phase transactions (holding at least one lock) with their
    /// locks in acquisition order.
    held_by: FxHashMap<TxnId, InlineVec<ObjectId, 8>>,
    /// Waiting entrants in wake order.
    blocked: Vec<BlockedReq>,
    /// The gate-2 shield; current while `shield_stale` is false.
    shield: Option<Shield>,
    /// A lock, registration or ceiling changed since `shield` and the
    /// waiters' `blockers` were computed. Only releases bring them up to
    /// date: the journal charges inheritance to the blockers as of the
    /// last release.
    shield_stale: bool,
    base: FxHashMap<TxnId, Priority>,
    boosts: Boosts,
    next_seq: u64,
    ceiling_blocks: u64,
    trace: bool,
    journal: Vec<SimEventKind>,
    /// Reusable buffers for [`Self::admission_check`] so the granted path
    /// allocates nothing.
    scratch_txns: Vec<TxnId>,
    scratch_blockers: Vec<TxnId>,
}

impl fmt::Debug for PriorityCeilingProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PriorityCeilingProtocol")
            .field("semantics", &self.semantics)
            .field("active", &self.active.len())
            .field("locked", &self.locked.len())
            .field("blocked", &self.blocked.len())
            .finish()
    }
}

impl PriorityCeilingProtocol {
    /// The paper's protocol "C" with read/write lock semantics.
    pub fn read_write() -> Self {
        Self::with_semantics(CeilingSemantics::ReadWrite)
    }

    /// The exclusive-semantics variant (§5 ablation).
    pub fn exclusive() -> Self {
        Self::with_semantics(CeilingSemantics::Exclusive)
    }

    /// Creates the protocol with explicit semantics.
    pub fn with_semantics(semantics: CeilingSemantics) -> Self {
        PriorityCeilingProtocol {
            semantics,
            active: FxHashMap::default(),
            writers: FxHashMap::default(),
            accessors: FxHashMap::default(),
            locked: FxHashMap::default(),
            held_by: FxHashMap::default(),
            blocked: Vec::new(),
            shield: None,
            shield_stale: false,
            base: FxHashMap::default(),
            boosts: Boosts::default(),
            next_seq: 0,
            ceiling_blocks: 0,
            trace: false,
            journal: Vec::new(),
            scratch_txns: Vec::new(),
            scratch_blockers: Vec::new(),
        }
    }

    /// The current write-priority ceiling of `obj` (over active
    /// transactions).
    pub fn write_ceiling(&self, obj: ObjectId) -> Priority {
        self.writers
            .get(&obj)
            .and_then(|v| v.iter().map(|&(_, p)| p).max())
            .unwrap_or(Priority::MIN)
    }

    /// The current absolute-priority ceiling of `obj`.
    pub fn absolute_ceiling(&self, obj: ObjectId) -> Priority {
        self.accessors
            .get(&obj)
            .and_then(|v| v.iter().map(|&(_, p)| p).max())
            .unwrap_or(Priority::MIN)
    }

    /// Whether `txn` is currently registered (active) with the protocol.
    /// Used by the distributed fault-recovery paths, where a retried
    /// registration message may arrive twice or not at all.
    pub fn is_registered(&self, txn: TxnId) -> bool {
        self.active.contains_key(&txn)
    }

    /// Whether `txn` currently has a blocked request queued. A retried
    /// lock RPC for such a transaction must not re-enter [`Self::request`]
    /// (which treats a double request as a protocol violation); the
    /// distributed manager re-acknowledges the pending state instead.
    pub fn is_blocked(&self, txn: TxnId) -> bool {
        self.active.get(&txn).is_some_and(|a| a.waiting)
    }

    /// Number of objects currently locked.
    pub fn locked_object_count(&self) -> usize {
        self.locked.len()
    }

    /// Number of requests currently blocked.
    pub fn blocked_count(&self) -> usize {
        self.blocked.len()
    }

    /// Number of registered (active) transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Asserts the protocol is completely idle: no lock held, no waiter
    /// queued, no transaction registered. A drained simulation must leave
    /// every site's protocol in this state — a leftover entry means a
    /// release was lost (the chaos tests gate on this).
    ///
    /// # Panics
    ///
    /// Panics if any lock, waiter, or registration remains.
    pub fn assert_idle(&self) {
        assert!(
            self.locked.is_empty(),
            "{} objects still locked after drain",
            self.locked.len()
        );
        assert!(
            self.blocked.is_empty(),
            "{} requests still blocked after drain",
            self.blocked.len()
        );
        assert!(
            self.active.is_empty(),
            "{} transactions still registered after drain",
            self.active.len()
        );
    }

    /// The rw-priority ceiling of `obj` under the given lock mode.
    fn rw_ceiling(&self, obj: ObjectId, locked_mode: LockMode) -> Priority {
        match (self.semantics, locked_mode) {
            (CeilingSemantics::Exclusive, _) | (_, LockMode::Write) => self.absolute_ceiling(obj),
            (CeilingSemantics::ReadWrite, LockMode::Read) => self.write_ceiling(obj),
        }
    }

    /// True once `txn` holds at least one lock: it has been admitted
    /// into its locking phase.
    fn in_phase(&self, txn: TxnId) -> bool {
        self.held_by.get(&txn).is_some_and(|v| !v.is_empty())
    }

    /// The admission test gating entry into the locking phase. A
    /// transaction may acquire its *first* lock iff
    ///
    /// 1. its declared access sets do not conflict with the declared
    ///    sets of any transaction already in its locking phase, and
    /// 2. its priority is strictly higher than every rw-ceiling of
    ///    objects locked by other transactions (the paper's ceiling
    ///    rule).
    ///
    /// On failure, returns the gate that denied admission and the
    /// transactions that block `txn` (the conflicting in-phase
    /// transactions, or the holders of the highest-ceiling lock).
    ///
    /// Access sets are predeclared, so granting a transaction its first
    /// lock conceptually grants its whole set: gate 1 keeps concurrent
    /// locking phases pairwise conflict-free, which means an admitted
    /// transaction finds every lock it will ever request free and is
    /// never re-tested mid-phase. That split is what makes the protocol
    /// deadlock-free under dynamic arrivals: transactions registering
    /// after a grant raise ceilings, so re-running the ceiling test
    /// against held locks on *every* request (which the static-ceiling
    /// proof of the paper's uniprocessor protocol never needs) can block
    /// two lock holders on each other's raised ceilings and wedge the
    /// system in a wait cycle. Here only entrants — which hold nothing —
    /// ever block, so no wait cycle can involve a lock holder, and a
    /// transaction blocks at most once, before its first lock.
    fn admission_check(&mut self, txn: TxnId) -> Result<(), DenialGate> {
        // Candidates and blockers live in reusable scratch buffers so no
        // outcome allocates; on denial the blockers are left in
        // `self.scratch_blockers` for the caller to inspect or copy.
        let mut phase_txns = std::mem::take(&mut self.scratch_txns);
        let mut blockers = std::mem::take(&mut self.scratch_blockers);
        let result = self.admission_check_into(txn, &mut phase_txns, &mut blockers);
        self.scratch_txns = phase_txns;
        self.scratch_blockers = blockers;
        result
    }

    /// [`Self::admission_check`] with caller-provided scratch, usable from
    /// `&self` contexts. It tests from scratch, which makes it the
    /// reference the consistency check holds the maintained wake state to.
    /// On denial, `blockers` holds the blocking transactions: the
    /// conflicting in-phase transactions sorted ascending (gate 1) or the
    /// holders of the highest-ceiling lock in acquisition order (gate 2).
    fn admission_check_into(
        &self,
        txn: TxnId,
        phase_txns: &mut Vec<TxnId>,
        blockers: &mut Vec<TxnId>,
    ) -> Result<(), DenialGate> {
        blockers.clear();
        if self.in_phase(txn) {
            return Ok(());
        }
        // Gate 1: set-level conflicts with in-phase transactions. The map
        // is scanned unsorted (the conflict test is order-independent);
        // the conflictor list is sorted only when it is actually returned.
        phase_txns.clear();
        let me = &self.active[&txn];
        phase_txns.extend(
            self.held_by
                .iter()
                .filter(|&(&t, objs)| {
                    t != txn
                        && !objs.is_empty()
                        && me.conflicts_with(&self.active[&t], self.semantics)
                })
                .map(|(&t, _)| t),
        );
        if !phase_txns.is_empty() {
            phase_txns.sort_unstable();
            blockers.extend_from_slice(phase_txns);
            return Err(DenialGate::SetConflict);
        }
        // Gate 2: the ceiling shield. `txn` is not in its phase, so it
        // holds no lock, and "objects locked by other transactions" is
        // every locked object.
        match self.scan_shield() {
            Some(s) if self.base_priority(txn) <= s.ceiling => {
                blockers.extend_from_slice(&self.locked[&s.object].holders);
                Err(DenialGate::Ceiling)
            }
            _ => Ok(()),
        }
    }

    /// The shield computed from scratch over every locked object: the
    /// max-ceiling lock, ties to the lowest object id — an
    /// order-independent argmax, so no sorted scan is needed.
    fn scan_shield(&self) -> Option<Shield> {
        self.locked
            .iter()
            .map(|(&obj, lock)| (self.rw_ceiling(obj, lock.mode), Reverse(obj)))
            .max()
            .map(|(ceiling, Reverse(object))| Shield { ceiling, object })
    }

    fn refresh_shield(&mut self) {
        if self.shield_stale {
            self.shield = self.scan_shield();
            self.shield_stale = false;
        }
    }

    /// `txn` took its first lock: it now keeps out every waiter whose
    /// declared sets conflict with its own.
    fn enter_phase(&mut self, txn: TxnId) {
        let me = &self.active[&txn];
        for w in &mut self.blocked {
            if self.active[&w.txn].conflicts_with(me, self.semantics) {
                let at = w.conflicts.partition_point(|&t| t < txn);
                w.conflicts.push(txn);
                w.conflicts[at..].rotate_right(1);
            }
        }
    }

    /// `txn` released its locks: it keeps no waiter out any more.
    fn leave_phase(&mut self, txn: TxnId) {
        for w in &mut self.blocked {
            w.conflicts.retain(|&t| t != txn);
        }
    }

    fn coerce_mode(&self, mode: LockMode) -> LockMode {
        match self.semantics {
            CeilingSemantics::ReadWrite => mode,
            CeilingSemantics::Exclusive => LockMode::Write,
        }
    }

    fn holds_covering(&self, txn: TxnId, obj: ObjectId, mode: LockMode) -> bool {
        self.locked.get(&obj).is_some_and(|l| {
            l.holders.contains(&txn) && (l.mode == LockMode::Write || mode == LockMode::Read)
        })
    }

    fn grant(&mut self, txn: TxnId, obj: ObjectId, mode: LockMode) {
        // Whether this grant set the object's rw-ceiling: a fresh lock
        // establishes it, an upgrade lifts it to the absolute ceiling; a
        // reader joining a read lock leaves it unchanged.
        let raised = match self.locked.get_mut(&obj) {
            None => {
                let mut holders = InlineVec::new();
                holders.push(txn);
                self.locked.insert(obj, Locked { mode, holders });
                true
            }
            Some(lock) => {
                if lock.holders.contains(&txn) {
                    let upgrade = mode == LockMode::Write && lock.mode == LockMode::Read;
                    if upgrade {
                        assert_eq!(
                            lock.holders.len(),
                            1,
                            "upgrade of a shared read lock must have been denied"
                        );
                        lock.mode = LockMode::Write;
                        self.shield_stale = true;
                    }
                    if self.trace {
                        if upgrade {
                            self.journal
                                .push(SimEventKind::LockUpgraded { txn, object: obj });
                            let ceiling = self.rw_ceiling(obj, LockMode::Write);
                            self.journal.push(SimEventKind::CeilingRaised {
                                txn,
                                object: obj,
                                ceiling,
                            });
                        } else {
                            self.journal.push(SimEventKind::LockGranted {
                                txn,
                                object: obj,
                                mode,
                            });
                        }
                    }
                    return;
                }
                assert!(
                    lock.mode == LockMode::Read && mode == LockMode::Read,
                    "ceiling admission granted a conflicting lock on {obj}"
                );
                lock.holders.push(txn);
                false
            }
        };
        self.shield_stale = true;
        match self.held_by.entry(txn) {
            Entry::Occupied(mut objs) => objs.get_mut().push(obj),
            Entry::Vacant(slot) => {
                slot.insert(InlineVec::new()).push(obj);
                self.enter_phase(txn);
            }
        }
        if self.trace {
            self.journal.push(SimEventKind::LockGranted {
                txn,
                object: obj,
                mode,
            });
            if raised {
                let ceiling = self.rw_ceiling(obj, mode);
                self.journal.push(SimEventKind::CeilingRaised {
                    txn,
                    object: obj,
                    ceiling,
                });
            }
        }
    }

    /// Recomputes inheritance from the waiters' blockers.
    fn recompute(&mut self) -> Vec<(TxnId, Priority)> {
        if self.blocked.is_empty() && self.boosts.is_empty() {
            return Vec::new();
        }
        // Empty unless the fixpoint sees an unregistered waiter, so this
        // never allocates on the hot path.
        let mut anomalies: Vec<TxnId> = Vec::new();
        let edges = self.blocked.iter().map(|w| (w.txn, w.blockers.as_slice()));
        let updates = self.boosts.update(&self.base, edges, &mut anomalies);
        if self.trace {
            self.journal.extend(
                anomalies
                    .into_iter()
                    .map(|txn| SimEventKind::ProtocolAnomaly {
                        txn: Some(txn),
                        detail: "waiter in blocked_by but not registered",
                    }),
            );
        }
        updates
    }

    /// Journals the inheritance side effects of one protocol call.
    fn journal_priority_updates(&mut self, updates: &[(TxnId, Priority)]) {
        if !self.trace {
            return;
        }
        self.journal.extend(
            updates
                .iter()
                .map(|&(txn, priority)| SimEventKind::PriorityInherited { txn, priority }),
        );
    }

    /// Wakes every blocked request that now passes admission, most urgent
    /// first; each grant can change the shield and the conflict sets, so
    /// the search restarts after it. Then brings every remaining waiter's
    /// blockers up to date.
    fn wake_pass(&mut self, wakeups: &mut Vec<Wakeup>) {
        if self.blocked.is_empty() {
            return;
        }
        loop {
            self.refresh_shield();
            // Wake order is priority descending, so once a waiter is at or
            // below the shield's ceiling every later one is too.
            let ceiling = self.shield.map(|s| s.ceiling);
            let Some(i) = self
                .blocked
                .iter()
                .take_while(|w| ceiling.is_none_or(|c| w.priority > c))
                .position(|w| w.conflicts.is_empty())
            else {
                break;
            };
            let req = self.blocked.remove(i);
            self.active
                .get_mut(&req.txn)
                .expect("waiters are registered")
                .waiting = false;
            self.grant(req.txn, req.object, req.mode);
            wakeups.push(Wakeup {
                txn: req.txn,
                object: req.object,
                mode: req.mode,
            });
        }
        let holders: &[TxnId] = match self.shield {
            Some(s) => &self.locked[&s.object].holders,
            None => &[],
        };
        for w in &mut self.blocked {
            debug_assert!(
                !self.held_by.contains_key(&w.txn),
                "waiter {} in phase",
                w.txn
            );
            let now: &[TxnId] = if w.conflicts.is_empty() {
                holders
            } else {
                &w.conflicts
            };
            w.blockers.clear();
            w.blockers.extend_from_slice(now);
        }
    }

    fn remove_ceiling_contribution(&mut self, txn: TxnId) {
        let Some(info) = self.active.remove(&txn) else {
            return;
        };
        self.shield_stale = true;
        for &obj in &info.writes {
            if let Some(v) = self.writers.get_mut(&obj) {
                v.retain(|&(t, _)| t != txn);
                if v.is_empty() {
                    self.writers.remove(&obj);
                }
            }
            if let Some(v) = self.accessors.get_mut(&obj) {
                v.retain(|&(t, _)| t != txn);
                if v.is_empty() {
                    self.accessors.remove(&obj);
                }
            }
        }
        for &obj in &info.reads {
            if let Some(v) = self.accessors.get_mut(&obj) {
                v.retain(|&(t, _)| t != txn);
                if v.is_empty() {
                    self.accessors.remove(&obj);
                }
            }
        }
    }
}

impl LockProtocol for PriorityCeilingProtocol {
    fn register(&mut self, spec: &TxnSpec) {
        let p = spec.base_priority();
        let mut reads = InlineVec::new();
        reads.extend_from_slice(&spec.read_set);
        reads.sort_unstable();
        let mut writes = InlineVec::new();
        writes.extend_from_slice(&spec.write_set);
        writes.sort_unstable();
        let read_sig = set_signature(&spec.read_set);
        let write_sig = set_signature(&spec.write_set);
        let prev = self.active.insert(
            spec.id,
            ActiveTxn {
                reads,
                writes,
                read_sig,
                write_sig,
                waiting: false,
            },
        );
        assert!(prev.is_none(), "{} registered twice", spec.id);
        self.base.insert(spec.id, p);
        for &obj in &spec.write_set {
            self.writers.entry(obj).or_default().push((spec.id, p));
            self.accessors.entry(obj).or_default().push((spec.id, p));
        }
        for &obj in &spec.read_set {
            self.accessors.entry(obj).or_default().push((spec.id, p));
        }
        self.shield_stale = true;
    }

    fn request(&mut self, txn: TxnId, object: ObjectId, mode: LockMode) -> RequestResult {
        let mode = self.coerce_mode(mode);
        if self.trace {
            self.journal
                .push(SimEventKind::LockRequested { txn, object, mode });
        }
        if self.holds_covering(txn, object, mode) {
            if self.trace {
                self.journal
                    .push(SimEventKind::LockGranted { txn, object, mode });
            }
            return RequestResult::granted();
        }
        assert!(
            !self.is_blocked(txn),
            "{txn} requested a lock while already blocked"
        );
        match self.admission_check(txn) {
            Ok(()) => {
                self.grant(txn, object, mode);
                RequestResult::granted()
            }
            Err(gate) => {
                self.ceiling_blocks += 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                let blockers = std::mem::take(&mut self.scratch_blockers);
                // Charge the block to the least urgent holder of the
                // ceiling lock — the lower-priority transaction the
                // block-at-most-once property is about.
                let blocker = blockers
                    .iter()
                    .copied()
                    .min_by_key(|t| self.base.get(t).copied().unwrap_or(Priority::MIN));
                if self.trace {
                    self.journal.push(match gate {
                        DenialGate::SetConflict => SimEventKind::LockBlocked {
                            txn,
                            object,
                            mode,
                            blocker,
                        },
                        DenialGate::Ceiling => SimEventKind::CeilingBlocked {
                            txn,
                            object,
                            blocker,
                        },
                    });
                }
                let mut conflicts = InlineVec::new();
                if gate == DenialGate::SetConflict {
                    conflicts.extend_from_slice(&blockers);
                }
                let priority = self.base_priority(txn);
                let at = self.blocked.partition_point(|b| b.priority >= priority);
                self.blocked.insert(
                    at,
                    BlockedReq {
                        txn,
                        object,
                        mode,
                        priority,
                        seq,
                        conflicts,
                        blockers,
                    },
                );
                self.active
                    .get_mut(&txn)
                    .expect("admission tested a registered transaction")
                    .waiting = true;
                let priority_updates = self.recompute();
                self.journal_priority_updates(&priority_updates);
                RequestResult {
                    outcome: RequestOutcome::Blocked { blocker },
                    priority_updates,
                }
            }
        }
    }

    fn release_all(&mut self, txn: TxnId, reason: ReleaseReason) -> ReleaseResult {
        // Drop held locks (journal in acquisition order, which is how
        // held_by accumulates — deterministic without sorting).
        if let Some(objs) = self.held_by.remove(&txn) {
            for &obj in &objs {
                if let Some(lock) = self.locked.get_mut(&obj) {
                    lock.holders.retain(|&t| t != txn);
                    if lock.holders.is_empty() {
                        self.locked.remove(&obj);
                    }
                }
                if self.trace {
                    self.journal
                        .push(SimEventKind::LockReleased { txn, object: obj });
                }
            }
            self.shield_stale = true;
            self.leave_phase(txn);
        }
        // Drop a pending blocked request (deadline abort while blocked).
        if let Some(info) = self.active.get_mut(&txn) {
            if std::mem::take(&mut info.waiting) {
                self.blocked.retain(|b| b.txn != txn);
            }
        }

        if reason == ReleaseReason::Finished {
            // Leaving the active set lowers ceilings, which can admit
            // further waiters below.
            self.remove_ceiling_contribution(txn);
            self.base.remove(&txn);
        }

        let mut wakeups = Vec::new();
        self.wake_pass(&mut wakeups);
        let priority_updates = self.recompute();
        self.journal_priority_updates(&priority_updates);
        ReleaseResult {
            wakeups,
            priority_updates,
        }
    }

    fn effective_priority(&self, txn: TxnId) -> Priority {
        self.boosts
            .effective(&self.base, txn)
            .unwrap_or_else(|| panic!("{txn} not registered"))
    }

    fn base_priority(&self, txn: TxnId) -> Priority {
        self.base
            .get(&txn)
            .copied()
            .unwrap_or_else(|| panic!("{txn} not registered"))
    }

    fn is_blocked(&self, txn: TxnId) -> bool {
        PriorityCeilingProtocol::is_blocked(self, txn)
    }

    fn name(&self) -> &'static str {
        match self.semantics {
            CeilingSemantics::ReadWrite => "priority-ceiling",
            CeilingSemantics::Exclusive => "priority-ceiling-exclusive",
        }
    }

    fn ceiling_block_count(&self) -> u64 {
        self.ceiling_blocks
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace = on;
    }

    fn drain_events(&mut self, out: &mut Vec<SimEventKind>) {
        out.append(&mut self.journal);
    }

    fn assert_consistent(&self) {
        // Besides the lock table, this holds the state releases maintain
        // to a from-scratch recomputation: each waiter's gate-1 set and
        // (while current) the shield and its blockers against
        // `admission_check_into`, the wake order, and the effective
        // priorities against `effective_priorities` over the blockers.
        for (obj, lock) in &self.locked {
            assert!(!lock.holders.is_empty(), "{obj} locked with no holders");
            if lock.mode == LockMode::Write {
                assert_eq!(lock.holders.len(), 1, "{obj} write-locked by several");
            }
            for t in &lock.holders {
                assert!(
                    self.held_by.get(t).is_some_and(|v| v.contains(obj)),
                    "holder {t} of {obj} missing from held_by"
                );
            }
        }
        let current = !self.shield_stale;
        if current {
            assert_eq!(
                self.shield,
                self.scan_shield(),
                "shield differs from a rescan"
            );
        }
        for pair in self.blocked.windows(2) {
            assert!(
                (Reverse(pair[0].priority), pair[0].seq) < (Reverse(pair[1].priority), pair[1].seq),
                "{} queued before {} out of wake order",
                pair[0].txn,
                pair[1].txn
            );
        }
        assert_eq!(
            self.active.values().filter(|a| a.waiting).count(),
            self.blocked.len(),
            "waiting flags disagree with the queue"
        );
        let mut edges: FxHashMap<TxnId, Vec<TxnId>> = FxHashMap::default();
        let mut blockers = Vec::new();
        for b in &self.blocked {
            assert!(self.is_blocked(b.txn), "blocked txn not active");
            assert_eq!(
                b.priority, self.base[&b.txn],
                "{} queued at a stale priority",
                b.txn
            );
            assert!(!self.in_phase(b.txn), "waiter {} holds a lock", b.txn);
            let gate = self
                .admission_check_into(b.txn, &mut Vec::new(), &mut blockers)
                .expect_err("blocked but admissible");
            let conflicts: &[TxnId] = match gate {
                DenialGate::SetConflict => &blockers,
                DenialGate::Ceiling => &[],
            };
            assert_eq!(
                &b.conflicts[..],
                conflicts,
                "{} gate-1 set differs from a rescan",
                b.txn
            );
            if current {
                assert_eq!(
                    b.blockers, blockers,
                    "{} blockers differ from a rescan",
                    b.txn
                );
            }
            edges.insert(b.txn, b.blockers.clone());
        }
        // Inheritance operates on registered transactions only: every
        // waiter and every blocker in the edge set must have a base
        // priority (effective_priorities relies on this).
        for (w, blockers) in &edges {
            assert!(self.base.contains_key(w), "waiter {w} unregistered");
            for b in blockers {
                assert!(self.base.contains_key(b), "blocker {b} unregistered");
            }
        }
        let reference = effective_priorities(&self.base, &edges, &mut Vec::new());
        self.boosts.assert_matches(&self.base, &reference);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::SiteId;
    use starlite::SimTime;

    fn spec(id: u64, deadline: u64, reads: Vec<u32>, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::ZERO,
            reads.into_iter().map(ObjectId).collect(),
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(deadline),
            SiteId(0),
        )
    }

    #[test]
    fn ceilings_follow_active_set() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![0], vec![1])); // high priority
        p.register(&spec(2, 900, vec![1], vec![0])); // low priority
        let p1 = Priority::earliest_deadline_first(SimTime::from_ticks(100));
        let p2 = Priority::earliest_deadline_first(SimTime::from_ticks(900));
        // O0: read by T1, written by T2.
        assert_eq!(p.write_ceiling(ObjectId(0)), p2);
        assert_eq!(p.absolute_ceiling(ObjectId(0)), p1);
        // O1: written by T1, read by T2.
        assert_eq!(p.write_ceiling(ObjectId(1)), p1);
        assert_eq!(p.absolute_ceiling(ObjectId(1)), p1);
        // Finishing T1 lowers the ceilings.
        p.release_all(TxnId(1), ReleaseReason::Finished);
        assert_eq!(p.absolute_ceiling(ObjectId(0)), p2);
    }

    #[test]
    fn lock_on_unlocked_object_denied_by_ceiling() {
        // The paper's example: T2 (medium) is denied an unlocked object
        // because T3 (low) holds a lock whose ceiling is T1's (high)
        // priority.
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![5])); // T1 high, writes O5
        p.register(&spec(2, 500, vec![], vec![7])); // T2 medium, writes O7
        p.register(&spec(3, 900, vec![], vec![5])); // T3 low, writes O5
                                                    // T3 locks O5 (nothing else is locked).
        assert_eq!(
            p.request(TxnId(3), ObjectId(5), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
        // T2 requests the *unlocked* O7: denied, because its priority is
        // not higher than O5's ceiling (= T1's priority).
        match p.request(TxnId(2), ObjectId(7), LockMode::Write).outcome {
            RequestOutcome::Blocked { blocker } => assert_eq!(blocker, Some(TxnId(3))),
            other => panic!("unexpected {other:?}"),
        }
        // T3 inherited T2's priority.
        assert_eq!(p.effective_priority(TxnId(3)), p.base_priority(TxnId(2)));
        // When T3 finishes, T2 is woken.
        let rel = p.release_all(TxnId(3), ReleaseReason::Finished);
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(2));
        p.assert_consistent();
    }

    #[test]
    fn highest_priority_transaction_is_never_ceiling_blocked() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0])); // highest priority
        p.register(&spec(2, 900, vec![], vec![1]));
        p.request(TxnId(2), ObjectId(1), LockMode::Write);
        // T1's priority exceeds every ceiling (it is the highest-priority
        // accessor anywhere), so it proceeds.
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
    }

    #[test]
    fn readers_share_under_rw_semantics() {
        let mut p = PriorityCeilingProtocol::read_write();
        // Both read O0; nobody writes it, so its write ceiling is MIN.
        p.register(&spec(1, 100, vec![0], vec![]));
        p.register(&spec(2, 200, vec![0], vec![]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        // Read-locked: rw ceiling = write ceiling = MIN < any priority.
        assert_eq!(
            p.request(TxnId(2), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        p.assert_consistent();
    }

    #[test]
    fn exclusive_semantics_serialise_readers() {
        let mut p = PriorityCeilingProtocol::exclusive();
        p.register(&spec(1, 100, vec![0], vec![]));
        p.register(&spec(2, 200, vec![0], vec![]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        assert!(matches!(
            p.request(TxnId(2), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Blocked { .. }
        ));
    }

    #[test]
    fn writer_blocked_while_read_locked_by_lower_priority_reader() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0])); // writer, high
        p.register(&spec(2, 900, vec![0], vec![])); // reader, low
        assert_eq!(
            p.request(TxnId(2), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        // Read-locked O0 has rw ceiling = write ceiling = T1's priority;
        // T1's own priority is not *higher* than that, so T1 blocks.
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        let rel = p.release_all(TxnId(2), ReleaseReason::Finished);
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(1));
    }

    #[test]
    fn deadline_abort_while_blocked_cleans_up() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 900, vec![], vec![0]));
        p.request(TxnId(2), ObjectId(0), LockMode::Write);
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        // T1's deadline expires while blocked.
        let rel = p.release_all(TxnId(1), ReleaseReason::Finished);
        assert!(rel.wakeups.is_empty());
        assert!(!p.is_blocked(TxnId(1)));
        // T2 reverts to its own priority (no one left to inherit from).
        assert_eq!(p.effective_priority(TxnId(2)), p.base_priority(TxnId(2)));
        p.assert_consistent();
    }

    #[test]
    fn wake_order_prefers_urgent_but_admits_any_passing() {
        let mut p = PriorityCeilingProtocol::read_write();
        // T1 high and T2 medium both write O0; T3 low holds it.
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 500, vec![], vec![0]));
        p.register(&spec(3, 900, vec![], vec![0]));
        p.request(TxnId(3), ObjectId(0), LockMode::Write);
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        assert!(matches!(
            p.request(TxnId(2), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        let rel = p.release_all(TxnId(3), ReleaseReason::Finished);
        // T1 (most urgent) gets the lock; T2 stays blocked: O0 is now
        // write-locked by T1 whose ceiling is T1's priority ≥ T2's.
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(1));
        assert!(p.is_blocked(TxnId(2)));
        p.assert_consistent();
    }

    #[test]
    fn self_re_request_is_granted() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![0], vec![]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        p.assert_consistent();
    }

    fn prio(deadline: u64) -> Priority {
        Priority::earliest_deadline_first(SimTime::from_ticks(deadline))
    }

    fn write(p: &mut PriorityCeilingProtocol, txn: u64, obj: u32) -> RequestOutcome {
        p.request(TxnId(txn), ObjectId(obj), LockMode::Write)
            .outcome
    }

    fn drained(p: &mut PriorityCeilingProtocol) -> Vec<SimEventKind> {
        let mut out = Vec::new();
        p.drain_events(&mut out);
        out
    }

    #[test]
    fn one_release_admits_the_most_urgent_admissible_of_many_waiters() {
        // H holds O0, whose ceiling is the idle T100's priority, so it
        // shields 24 entrants W11..W34, each after a private object. W10,
        // the most urgent waiter, is held at gate 1 instead: it shares the
        // declared O31 with X, which is in its phase on O30.
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(100, 10, vec![], vec![0]));
        p.register(&spec(1, 10_000, vec![], vec![0])); // H
        p.register(&spec(2, 20_000, vec![], vec![30, 31])); // X
        assert_eq!(write(&mut p, 2, 30), RequestOutcome::Granted);
        assert_eq!(write(&mut p, 1, 0), RequestOutcome::Granted);
        p.register(&spec(10, 100, vec![], vec![31, 101])); // W10
        for i in 1..=24u64 {
            p.register(&spec(10 + i, 100 + 10 * i, vec![], vec![100 + i as u32]));
        }
        assert_eq!(
            write(&mut p, 10, 101),
            RequestOutcome::Blocked {
                blocker: Some(TxnId(2))
            }
        );
        for i in 1..=24u64 {
            assert_eq!(
                write(&mut p, 10 + i, 100 + i as u32),
                RequestOutcome::Blocked {
                    blocker: Some(TxnId(1))
                }
            );
        }
        assert_eq!(p.effective_priority(TxnId(1)), prio(110));
        assert_eq!(p.effective_priority(TxnId(2)), prio(100));
        p.assert_consistent();

        p.set_tracing(true);
        let rel = p.release_all(TxnId(1), ReleaseReason::Finished);
        // W11 is the most urgent admissible waiter: O101 is free and X's
        // O30 shields only below X's priority. Its lock on O101 (declared
        // by W10 too) then shields every other entrant, and W10 now waits
        // for W11 as well as X, so W11 inherits W10's priority.
        assert_eq!(
            rel.wakeups,
            vec![Wakeup {
                txn: TxnId(11),
                object: ObjectId(101),
                mode: LockMode::Write,
            }]
        );
        assert_eq!(rel.priority_updates, vec![(TxnId(11), prio(100))]);
        assert_eq!(
            drained(&mut p),
            vec![
                SimEventKind::LockReleased {
                    txn: TxnId(1),
                    object: ObjectId(0),
                },
                SimEventKind::LockGranted {
                    txn: TxnId(11),
                    object: ObjectId(101),
                    mode: LockMode::Write,
                },
                SimEventKind::CeilingRaised {
                    txn: TxnId(11),
                    object: ObjectId(101),
                    ceiling: prio(100),
                },
                SimEventKind::PriorityInherited {
                    txn: TxnId(11),
                    priority: prio(100),
                },
            ]
        );
        assert!(p.is_blocked(TxnId(10)));
        for i in 2..=24u64 {
            assert!(p.is_blocked(TxnId(10 + i)), "W{}", 10 + i);
        }
        assert_eq!(p.effective_priority(TxnId(2)), prio(100));
        p.assert_consistent();

        // The next release hands O101's shield down the line: W12 is
        // admitted and nobody's inherited priority changes.
        let rel = p.release_all(TxnId(11), ReleaseReason::Finished);
        assert_eq!(
            rel.wakeups.iter().map(|w| w.txn).collect::<Vec<_>>(),
            vec![TxnId(12)]
        );
        assert!(rel.priority_updates.is_empty());
        p.assert_consistent();
    }

    #[test]
    fn registration_that_raises_the_shield_moves_the_waiters_blockers() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 1_000, vec![], vec![0])); // A
        p.register(&spec(2, 2_000, vec![], vec![1])); // B
        p.register(&spec(3, 100, vec![], vec![0])); // C: raises O0's ceiling
        p.register(&spec(4, 5_000, vec![], vec![9])); // D: idle bystander
        p.register(&spec(5, 500, vec![], vec![5])); // E: the entrant
        assert_eq!(write(&mut p, 2, 1), RequestOutcome::Granted);
        assert_eq!(write(&mut p, 1, 0), RequestOutcome::Granted);
        assert_eq!(
            write(&mut p, 5, 5),
            RequestOutcome::Blocked {
                blocker: Some(TxnId(1))
            }
        );
        assert_eq!(p.effective_priority(TxnId(1)), prio(500));
        // A release that changes nothing leaves E charged to A.
        let rel = p.release_all(TxnId(4), ReleaseReason::Restart);
        assert_eq!(rel, ReleaseResult::default());
        // N writes O1: B's lock now has the highest ceiling and shields E.
        p.register(&spec(6, 50, vec![], vec![1]));
        p.assert_consistent();
        p.set_tracing(true);
        // A release that frees no lock and lowers no ceiling still
        // refreshes E's blockers, moving the inherited priority to B.
        let rel = p.release_all(TxnId(4), ReleaseReason::Restart);
        assert!(rel.wakeups.is_empty());
        assert_eq!(
            rel.priority_updates,
            vec![(TxnId(1), prio(1_000)), (TxnId(2), prio(500))]
        );
        assert_eq!(
            drained(&mut p),
            vec![
                SimEventKind::PriorityInherited {
                    txn: TxnId(1),
                    priority: prio(1_000),
                },
                SimEventKind::PriorityInherited {
                    txn: TxnId(2),
                    priority: prio(500),
                },
            ]
        );
        assert!(p.is_blocked(TxnId(5)));
        p.assert_consistent();
    }

    #[test]
    fn restart_of_the_only_gate_one_conflictor_admits_the_waiter() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 900, vec![], vec![0, 1])); // X
        p.register(&spec(2, 100, vec![], vec![1])); // W
        assert_eq!(write(&mut p, 1, 0), RequestOutcome::Granted);
        assert_eq!(
            write(&mut p, 2, 1),
            RequestOutcome::Blocked {
                blocker: Some(TxnId(1))
            }
        );
        assert_eq!(p.effective_priority(TxnId(1)), prio(100));
        p.set_tracing(true);
        let rel = p.release_all(TxnId(1), ReleaseReason::Restart);
        assert_eq!(
            rel.wakeups,
            vec![Wakeup {
                txn: TxnId(2),
                object: ObjectId(1),
                mode: LockMode::Write,
            }]
        );
        assert_eq!(rel.priority_updates, vec![(TxnId(1), prio(900))]);
        assert_eq!(
            drained(&mut p),
            vec![
                SimEventKind::LockReleased {
                    txn: TxnId(1),
                    object: ObjectId(0),
                },
                SimEventKind::LockGranted {
                    txn: TxnId(2),
                    object: ObjectId(1),
                    mode: LockMode::Write,
                },
                SimEventKind::CeilingRaised {
                    txn: TxnId(2),
                    object: ObjectId(1),
                    ceiling: prio(100),
                },
                SimEventKind::PriorityInherited {
                    txn: TxnId(1),
                    priority: prio(900),
                },
            ]
        );
        assert!(!p.is_blocked(TxnId(2)));
        // The restarted X stays registered and is now the entrant kept
        // out by W's phase.
        assert_eq!(
            write(&mut p, 1, 0),
            RequestOutcome::Blocked {
                blocker: Some(TxnId(2))
            }
        );
        p.assert_consistent();
    }

    #[test]
    fn ceiling_block_counter() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 900, vec![], vec![0]));
        p.request(TxnId(2), ObjectId(0), LockMode::Write);
        p.request(TxnId(1), ObjectId(0), LockMode::Write);
        assert_eq!(p.ceiling_block_count(), 1);
    }
}
