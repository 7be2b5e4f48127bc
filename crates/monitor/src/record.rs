//! Per-transaction lifecycle records.

use starlite::FxHashMap;
use std::fmt;

use rtdb::{TxnId, TxnKind, TxnSpec};
use starlite::{SimDuration, SimTime};

/// Final disposition of a processed transaction.
///
/// The paper's definition: "a transaction is processed if either it
/// executes completely or it is aborted"; transactions that miss their
/// deadline are aborted and disappear from the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Still in the system when the run ended (excluded from `%missed`).
    InProgress,
    /// Completed before its deadline.
    Committed,
    /// Aborted at its deadline.
    MissedDeadline,
    /// Aborted by the fault-recovery machinery because its site (or a site
    /// it depended on) crashed.
    AbortedByFault,
}

/// Everything the monitor knows about one transaction.
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// The transaction.
    pub txn: TxnId,
    /// Arrival time.
    pub arrival: SimTime,
    /// Deadline.
    pub deadline: SimTime,
    /// Number of objects accessed.
    pub size: u32,
    /// Read-only or update.
    pub kind: TxnKind,
    /// First time the transaction got to execute.
    pub start: Option<SimTime>,
    /// Commit or abort time.
    pub finish: Option<SimTime>,
    /// Final disposition.
    pub outcome: Outcome,
    /// Total time spent blocked on locks or ceilings.
    pub blocked: SimDuration,
    /// Number of distinct blocking episodes.
    pub block_episodes: u32,
    /// Transactions that blocked this one at lower priority (distinct);
    /// the priority ceiling protocol guarantees at most one.
    pub lower_priority_blockers: Vec<TxnId>,
    /// Number of deadlock-victim restarts.
    pub restarts: u32,
    /// Block episode currently open, if any.
    blocked_since: Option<SimTime>,
}

impl TxnRecord {
    fn new(spec: &TxnSpec) -> Self {
        TxnRecord {
            txn: spec.id,
            arrival: spec.arrival,
            deadline: spec.deadline,
            size: spec.size() as u32,
            kind: spec.kind(),
            start: None,
            finish: None,
            outcome: Outcome::InProgress,
            blocked: SimDuration::ZERO,
            block_episodes: 0,
            lower_priority_blockers: Vec::new(),
            restarts: 0,
            blocked_since: None,
        }
    }

    /// Response time (finish − arrival) for finished transactions.
    pub fn response_time(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.since(self.arrival))
    }
}

/// The performance monitor: collects one [`TxnRecord`] per transaction
/// during a simulation run.
///
/// # Example
///
/// ```
/// use monitor::{Monitor, Outcome};
/// use rtdb::{TxnSpec, TxnId, ObjectId, SiteId};
/// use starlite::SimTime;
///
/// let spec = TxnSpec::new(
///     TxnId(0),
///     SimTime::from_ticks(5),
///     vec![ObjectId(1)],
///     vec![],
///     SimTime::from_ticks(500),
///     SiteId(0),
/// );
/// let mut m = Monitor::new();
/// m.register(&spec);
/// m.on_start(TxnId(0), SimTime::from_ticks(6));
/// m.on_commit(TxnId(0), SimTime::from_ticks(80));
/// assert_eq!(m.record(TxnId(0)).unwrap().outcome, Outcome::Committed);
/// ```
#[derive(Default)]
pub struct Monitor {
    records: FxHashMap<TxnId, TxnRecord>,
}

impl fmt::Debug for Monitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Monitor")
            .field("transactions", &self.records.len())
            .finish()
    }
}

impl Monitor {
    /// Creates an empty monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Registers an arriving transaction.
    ///
    /// # Panics
    ///
    /// Panics if the transaction was already registered.
    pub fn register(&mut self, spec: &TxnSpec) {
        let prev = self.records.insert(spec.id, TxnRecord::new(spec));
        assert!(prev.is_none(), "{} registered twice", spec.id);
    }

    /// Records the first dispatch of a transaction (idempotent: restarts
    /// keep the original start time).
    pub fn on_start(&mut self, txn: TxnId, now: SimTime) {
        let r = self.rec(txn);
        if r.start.is_none() {
            r.start = Some(now);
        }
    }

    /// Records the beginning of a blocking episode. `lower_priority_blocker`
    /// names the blocking transaction when it had lower base priority than
    /// the blocked one — the quantity the priority ceiling protocol bounds.
    pub fn on_block(&mut self, txn: TxnId, now: SimTime, lower_priority_blocker: Option<TxnId>) {
        let r = self.rec(txn);
        assert!(
            r.blocked_since.is_none(),
            "{txn} blocked twice without resuming"
        );
        r.blocked_since = Some(now);
        r.block_episodes += 1;
        if let Some(b) = lower_priority_blocker {
            if !r.lower_priority_blockers.contains(&b) {
                r.lower_priority_blockers.push(b);
            }
        }
    }

    /// Records the end of a blocking episode.
    pub fn on_unblock(&mut self, txn: TxnId, now: SimTime) {
        let r = self.rec(txn);
        let since = r.blocked_since.take().expect("unblock without block");
        r.blocked += now.since(since);
    }

    /// Records a deadlock-victim restart.
    pub fn on_restart(&mut self, txn: TxnId, now: SimTime) {
        let r = self.rec(txn);
        if let Some(since) = r.blocked_since.take() {
            r.blocked += now.since(since);
        }
        r.restarts += 1;
    }

    /// Records a successful commit.
    pub fn on_commit(&mut self, txn: TxnId, now: SimTime) {
        let r = self.rec(txn);
        if let Some(since) = r.blocked_since.take() {
            r.blocked += now.since(since);
        }
        assert_eq!(r.outcome, Outcome::InProgress, "{txn} finished twice");
        r.outcome = Outcome::Committed;
        r.finish = Some(now);
    }

    /// Records a deadline miss (the transaction is aborted and leaves the
    /// system).
    pub fn on_miss(&mut self, txn: TxnId, now: SimTime) {
        let r = self.rec(txn);
        if let Some(since) = r.blocked_since.take() {
            r.blocked += now.since(since);
        }
        assert_eq!(r.outcome, Outcome::InProgress, "{txn} finished twice");
        r.outcome = Outcome::MissedDeadline;
        r.finish = Some(now);
    }

    /// Records an abort forced by a site failure (the transaction leaves
    /// the system; counted separately from deadline misses).
    pub fn on_fault_abort(&mut self, txn: TxnId, now: SimTime) {
        let r = self.rec(txn);
        if let Some(since) = r.blocked_since.take() {
            r.blocked += now.since(since);
        }
        assert_eq!(r.outcome, Outcome::InProgress, "{txn} finished twice");
        r.outcome = Outcome::AbortedByFault;
        r.finish = Some(now);
    }

    /// The record of `txn`, if registered.
    pub fn record(&self, txn: TxnId) -> Option<&TxnRecord> {
        self.records.get(&txn)
    }

    /// All records, in unspecified order.
    pub fn records(&self) -> impl Iterator<Item = &TxnRecord> {
        self.records.values()
    }

    /// Number of registered transactions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no transaction was registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn rec(&mut self, txn: TxnId) -> &mut TxnRecord {
        self.records
            .get_mut(&txn)
            .unwrap_or_else(|| panic!("{txn} not registered with the monitor"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::{ObjectId, SiteId};

    fn spec(id: u64) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::from_ticks(10),
            vec![ObjectId(0), ObjectId(1)],
            vec![ObjectId(2)],
            SimTime::from_ticks(1_000),
            SiteId(0),
        )
    }

    #[test]
    fn lifecycle_accumulates_blocking() {
        let mut m = Monitor::new();
        m.register(&spec(1));
        m.on_start(TxnId(1), SimTime::from_ticks(12));
        m.on_block(TxnId(1), SimTime::from_ticks(20), Some(TxnId(9)));
        m.on_unblock(TxnId(1), SimTime::from_ticks(50));
        m.on_block(TxnId(1), SimTime::from_ticks(60), Some(TxnId(9)));
        m.on_unblock(TxnId(1), SimTime::from_ticks(65));
        m.on_commit(TxnId(1), SimTime::from_ticks(100));
        let r = m.record(TxnId(1)).unwrap();
        assert_eq!(r.blocked, SimDuration::from_ticks(35));
        assert_eq!(r.block_episodes, 2);
        assert_eq!(r.lower_priority_blockers, vec![TxnId(9)]);
        assert_eq!(r.response_time(), Some(SimDuration::from_ticks(90)));
        assert_eq!(r.outcome, Outcome::Committed);
    }

    #[test]
    fn miss_closes_open_block() {
        let mut m = Monitor::new();
        m.register(&spec(1));
        m.on_block(TxnId(1), SimTime::from_ticks(20), None);
        m.on_miss(TxnId(1), SimTime::from_ticks(70));
        let r = m.record(TxnId(1)).unwrap();
        assert_eq!(r.outcome, Outcome::MissedDeadline);
        assert_eq!(r.blocked, SimDuration::from_ticks(50));
    }

    #[test]
    fn restart_counts_and_closes_block() {
        let mut m = Monitor::new();
        m.register(&spec(1));
        m.on_block(TxnId(1), SimTime::from_ticks(20), None);
        m.on_restart(TxnId(1), SimTime::from_ticks(30));
        let r = m.record(TxnId(1)).unwrap();
        assert_eq!(r.restarts, 1);
        assert_eq!(r.blocked, SimDuration::from_ticks(10));
    }

    #[test]
    fn start_is_idempotent() {
        let mut m = Monitor::new();
        m.register(&spec(1));
        m.on_start(TxnId(1), SimTime::from_ticks(12));
        m.on_start(TxnId(1), SimTime::from_ticks(40));
        assert_eq!(
            m.record(TxnId(1)).unwrap().start,
            Some(SimTime::from_ticks(12))
        );
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut m = Monitor::new();
        m.register(&spec(1));
        m.register(&spec(1));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_txn_panics() {
        let mut m = Monitor::new();
        m.on_start(TxnId(5), SimTime::ZERO);
    }
}
