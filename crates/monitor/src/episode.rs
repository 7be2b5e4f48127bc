//! The blocking-episode rule, in one place.
//!
//! The paper's monitor records each transaction's "blocked interval".
//! Every consumer of the event stream that measures blocking — the
//! [`crate::MetricsSink`] histogram, the [`crate::ContentionProfiler`],
//! the [`crate::TimeSeriesSink`] windows, [`crate::explain_misses`] and
//! `rtlock-inspect txn` — feeds the stream through an [`EpisodeTracker`]
//! and folds the [`Episode`]s it closes, so they cannot disagree.

use rtdb::{ObjectId, TxnId};
use starlite::{FxHashMap, SimTime};

use crate::events::SimEventKind;

/// Longest blocking chain the depth walk follows; a wait cycle (which
/// cannot occur in a well-formed stream, but may in a crafted trace)
/// stops here instead of hanging.
const MAX_CHAIN_DEPTH: u32 = 64;

/// What a blocking episode waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// A lock conflict (`LockBlocked`).
    Lock,
    /// The priority-ceiling admission gate (`CeilingBlocked`).
    Ceiling,
    /// A range latch (`RangeLatchBlocked`).
    Latch,
}

impl Cause {
    /// Short human-readable name, e.g. for "via range latch on O4".
    pub fn label(self) -> &'static str {
        match self {
            Cause::Lock => "lock",
            Cause::Ceiling => "ceiling",
            Cause::Latch => "range latch",
        }
    }
}

/// One blocking episode of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// The blocked transaction.
    pub txn: TxnId,
    /// When the episode opened.
    pub since: SimTime,
    /// When it closed.
    pub until: SimTime,
    /// The object waited on; a range-latch wait records the range's
    /// first object (`lo`).
    pub object: ObjectId,
    /// One representative blocker, if the opening event named one.
    pub blocker: Option<TxnId>,
    /// What the transaction waited on.
    pub cause: Cause,
    /// Blocking-chain depth at open: 1 for a wait behind a running
    /// holder, plus one for each open episode above the blocker.
    pub depth: u32,
}

impl Episode {
    /// Blocked ticks, `until − since` (saturating: replayed traces are
    /// untrusted input and may carry non-monotonic timestamps).
    pub fn ticks(&self) -> u64 {
        self.until.saturating_since(self.since).ticks()
    }
}

/// Owner of the blocking-episode rule:
///
/// * an episode **opens** at a transaction's first `LockBlocked`,
///   `CeilingBlocked` or `RangeLatchBlocked`; while it is open, further
///   block events of that transaction are ignored (first wins, keeping
///   the original start, object, blocker and cause);
/// * it **closes** at the transaction's next `LockGranted`,
///   `LockUpgraded`, `RangeLatchAcquired` or `TxnAborted` (any reason).
///   A commit does not close an episode: a committing transaction cannot
///   be blocked;
/// * episodes still open when the stream ends are never reported.
///
/// Transactions are keyed by id alone, whatever site the event names.
#[derive(Debug, Clone, Default)]
pub struct EpisodeTracker {
    open: FxHashMap<TxnId, Episode>,
}

impl EpisodeTracker {
    /// Creates a tracker with no open episodes.
    pub fn new() -> Self {
        EpisodeTracker::default()
    }

    /// Feeds one event; returns the episode it closed, if any.
    pub fn observe(&mut self, at: SimTime, kind: &SimEventKind) -> Option<Episode> {
        match *kind {
            SimEventKind::LockBlocked {
                txn,
                object,
                blocker,
                ..
            } => self.open(at, txn, object, blocker, Cause::Lock),
            SimEventKind::CeilingBlocked {
                txn,
                object,
                blocker,
            } => self.open(at, txn, object, blocker, Cause::Ceiling),
            SimEventKind::RangeLatchBlocked {
                txn, lo, blocker, ..
            } => self.open(at, txn, lo, blocker, Cause::Latch),
            SimEventKind::LockGranted { txn, .. }
            | SimEventKind::LockUpgraded { txn, .. }
            | SimEventKind::RangeLatchAcquired { txn, .. }
            | SimEventKind::TxnAborted { txn, .. } => {
                return self.open.remove(&txn).map(|ep| Episode { until: at, ..ep });
            }
            _ => {}
        }
        None
    }

    fn open(
        &mut self,
        at: SimTime,
        txn: TxnId,
        object: ObjectId,
        blocker: Option<TxnId>,
        cause: Cause,
    ) {
        if self.open.contains_key(&txn) {
            return;
        }
        let depth = self.chain_depth(blocker);
        self.open.insert(
            txn,
            Episode {
                txn,
                since: at,
                until: at,
                object,
                blocker,
                cause,
                depth,
            },
        );
    }

    fn chain_depth(&self, blocker: Option<TxnId>) -> u32 {
        let mut depth = 1;
        let mut cursor = blocker;
        while let Some(ep) = cursor.and_then(|b| self.open.get(&b)) {
            if depth >= MAX_CHAIN_DEPTH {
                break;
            }
            depth += 1;
            cursor = ep.blocker;
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::AbortReason;
    use rtdb::LockMode;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn lock_blocked(txn: u64, object: u32, blocker: u64) -> SimEventKind {
        SimEventKind::LockBlocked {
            txn: TxnId(txn),
            object: ObjectId(object),
            mode: LockMode::Write,
            blocker: Some(TxnId(blocker)),
        }
    }

    #[test]
    fn opens_first_wins_and_closes_on_every_resume_event() {
        let mut tr = EpisodeTracker::new();
        // Latch wait: opens on the range front; a later lock block while
        // open is ignored.
        let latch = SimEventKind::RangeLatchBlocked {
            txn: TxnId(1),
            lo: ObjectId(4),
            hi: ObjectId(9),
            blocker: Some(TxnId(2)),
        };
        assert_eq!(tr.observe(t(10), &latch), None);
        assert_eq!(tr.observe(t(15), &lock_blocked(1, 7, 3)), None);
        // A commit does not close; a latch grant does.
        assert_eq!(
            tr.observe(t(20), &SimEventKind::TxnCommitted { txn: TxnId(1) }),
            None
        );
        let acquired = SimEventKind::RangeLatchAcquired {
            txn: TxnId(1),
            lo: ObjectId(4),
            hi: ObjectId(9),
            mode: LockMode::Read,
        };
        let ep = tr.observe(t(35), &acquired).expect("latch grant closes");
        assert_eq!(
            ep,
            Episode {
                txn: TxnId(1),
                since: t(10),
                until: t(35),
                object: ObjectId(4),
                blocker: Some(TxnId(2)),
                cause: Cause::Latch,
                depth: 1,
            }
        );
        assert_eq!(ep.ticks(), 25);
        // Nothing open any more: a second close is a no-op.
        assert_eq!(tr.observe(t(40), &acquired), None);

        // Ceiling blocks close on abort (any reason) and on upgrade.
        let ceiling = SimEventKind::CeilingBlocked {
            txn: TxnId(5),
            object: ObjectId(2),
            blocker: None,
        };
        tr.observe(t(50), &ceiling);
        let abort = SimEventKind::TxnAborted {
            txn: TxnId(5),
            reason: AbortReason::DeadlockVictim,
        };
        let ep = tr.observe(t(58), &abort).expect("abort closes");
        assert_eq!((ep.cause, ep.ticks()), (Cause::Ceiling, 8));
        tr.observe(t(60), &lock_blocked(5, 3, 1));
        let upgraded = SimEventKind::LockUpgraded {
            txn: TxnId(5),
            object: ObjectId(3),
        };
        let ep = tr.observe(t(61), &upgraded).expect("upgrade closes");
        assert_eq!(
            (ep.cause, ep.object, ep.ticks()),
            (Cause::Lock, ObjectId(3), 1)
        );
    }

    #[test]
    fn depth_counts_open_waiters_above_the_blocker() {
        let mut tr = EpisodeTracker::new();
        tr.observe(t(10), &lock_blocked(2, 1, 1));
        tr.observe(t(20), &lock_blocked(3, 2, 2));
        tr.observe(t(30), &lock_blocked(4, 3, 3));
        let grant = |txn: u64| SimEventKind::LockGranted {
            txn: TxnId(txn),
            object: ObjectId(0),
            mode: LockMode::Write,
        };
        let depths: Vec<u32> = [2, 3, 4]
            .iter()
            .map(|&txn| tr.observe(t(40), &grant(txn)).unwrap().depth)
            .collect();
        assert_eq!(depths, vec![1, 2, 3]);
        // A wait cycle in a crafted trace stops the walk at the bound.
        tr.observe(t(50), &lock_blocked(8, 0, 9));
        tr.observe(t(50), &lock_blocked(9, 0, 8));
        tr.observe(t(50), &lock_blocked(10, 0, 8));
        assert_eq!(
            tr.observe(t(60), &grant(10)).unwrap().depth,
            MAX_CHAIN_DEPTH
        );
    }
}
