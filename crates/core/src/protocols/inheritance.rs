//! Shared priority-inheritance computation.
//!
//! Both the basic inheritance protocol and the priority ceiling protocol
//! execute a blocking transaction "at the highest priority of all the
//! transactions blocked by" it, transitively. Only a transaction on a
//! *blocked-by* edge can run above its base priority, so [`Boosts`] keeps
//! just those transactions and recomputes them from the edges alone: a
//! recompute costs O(edges + previously boosted), not O(active).
//! [`effective_priorities`] is the whole-population definition the
//! consistency checks compare against.

use rtdb::TxnId;
use starlite::{FxHashMap, Priority};

/// Computes effective priorities: for every transaction, the maximum of
/// its own base priority and the effective priorities of all transactions
/// (transitively) blocked by it.
///
/// `blocked_by` maps each blocked transaction to the transactions it waits
/// for. Unlisted transactions run at base priority.
///
/// Every waiter key must be registered in `base`: a transaction can only
/// wait after a `request`, which requires registration, and
/// deregistration drops the transaction's edges before the next
/// recompute. A waiter missing from `base` would silently contribute no
/// inheritance (dropping the transitive boost its blockers are owed), so
/// it trips a debug assertion — and, because that assertion vanishes in
/// release builds, each offender is also pushed into `anomalies` so the
/// caller can report it through the event stream (the invariant oracle
/// turns it into a `protocol-anomaly` violation). Blockers missing from
/// `base` are merely skipped: edge refreshes already prune departed
/// holders, and a stale blocker has nobody left to boost.
pub(crate) fn effective_priorities(
    base: &FxHashMap<TxnId, Priority>,
    blocked_by: &FxHashMap<TxnId, Vec<TxnId>>,
    anomalies: &mut Vec<TxnId>,
) -> FxHashMap<TxnId, Priority> {
    let mut eff = base.clone();
    // Fixpoint: propagate waiter priorities through blockers. Chains are
    // short (the ceiling protocol bounds them at one), so this converges
    // in a couple of passes.
    let mut first_pass = true;
    loop {
        let mut changed = false;
        for (waiter, blockers) in blocked_by {
            let Some(&wp) = eff.get(waiter) else {
                if first_pass {
                    anomalies.push(*waiter);
                }
                debug_assert!(false, "waiter {waiter} in blocked_by but not registered");
                continue;
            };
            for b in blockers {
                if let Some(bp) = eff.get_mut(b) {
                    if *bp < wp {
                        *bp = wp;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return eff;
        }
        first_pass = false;
    }
}

/// The registered transactions that run above their base priority, with
/// their effective priorities — [`effective_priorities`] restricted to
/// the transactions it raises, maintained across recomputes.
#[derive(Debug, Default)]
pub(crate) struct Boosts {
    current: FxHashMap<TxnId, Priority>,
    /// The assignment being computed; swapped with `current` so both
    /// allocations are reused.
    next: FxHashMap<TxnId, Priority>,
}

impl Boosts {
    /// `txn`'s effective priority, or `None` if it is not registered.
    pub(crate) fn effective(
        &self,
        base: &FxHashMap<TxnId, Priority>,
        txn: TxnId,
    ) -> Option<Priority> {
        let &b = base.get(&txn)?;
        Some(self.current.get(&txn).copied().unwrap_or(b))
    }

    /// Whether every registered transaction runs at its base priority.
    pub(crate) fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// Recomputes the boosts from the blocked-by `edges` (each waiter with
    /// the transactions it waits for) and returns `(txn, new_priority)`
    /// for every registered transaction whose effective priority changed,
    /// sorted by id. Waiters missing from `base` are handled as in
    /// [`effective_priorities`].
    pub(crate) fn update<'e, I>(
        &mut self,
        base: &FxHashMap<TxnId, Priority>,
        edges: I,
        anomalies: &mut Vec<TxnId>,
    ) -> Vec<(TxnId, Priority)>
    where
        I: Iterator<Item = (TxnId, &'e [TxnId])> + Clone,
    {
        let next = &mut self.next;
        next.clear();
        let mut first_pass = true;
        loop {
            let mut changed = false;
            for (waiter, blockers) in edges.clone() {
                let Some(&wb) = base.get(&waiter) else {
                    if first_pass {
                        anomalies.push(waiter);
                    }
                    debug_assert!(false, "waiter {waiter} in blocked_by but not registered");
                    continue;
                };
                let wp = next.get(&waiter).copied().unwrap_or(wb);
                for &b in blockers {
                    let Some(&bb) = base.get(&b) else { continue };
                    if next.get(&b).copied().unwrap_or(bb) < wp {
                        next.insert(b, wp);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            first_pass = false;
        }
        let mut updates: Vec<(TxnId, Priority)> = next
            .iter()
            .filter(|&(t, p)| self.current.get(t) != Some(p))
            .map(|(&t, &p)| (t, p))
            .collect();
        // Boosts that lapsed revert to base; deregistered transactions
        // need no update.
        updates.extend(
            self.current
                .keys()
                .filter(|t| !next.contains_key(t))
                .filter_map(|t| base.get(t).map(|&b| (*t, b))),
        );
        updates.sort_unstable_by_key(|&(t, _)| t);
        std::mem::swap(&mut self.current, &mut self.next);
        updates
    }

    /// Asserts the boosts equal `reference` (an [`effective_priorities`]
    /// result over the same edges) on every transaction it raises.
    pub(crate) fn assert_matches(
        &self,
        base: &FxHashMap<TxnId, Priority>,
        reference: &FxHashMap<TxnId, Priority>,
    ) {
        for (&t, &p) in reference {
            assert_eq!(
                self.effective(base, t),
                Some(p),
                "{t} effective priority differs from the reference fixpoint"
            );
        }
        for t in self.current.keys() {
            assert!(base.contains_key(t), "boosted {t} is not registered");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(entries: &[(u64, i64)]) -> FxHashMap<TxnId, Priority> {
        entries
            .iter()
            .map(|&(t, p)| (TxnId(t), Priority::new(p)))
            .collect()
    }

    #[test]
    fn direct_inheritance() {
        let b = base(&[(1, 10), (2, 1)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(2)])].into_iter().collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        assert_eq!(eff[&TxnId(2)], Priority::new(10));
        assert_eq!(eff[&TxnId(1)], Priority::new(10));
    }

    #[test]
    fn transitive_chain() {
        let b = base(&[(1, 10), (2, 5), (3, 1)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(2)]), (TxnId(2), vec![TxnId(3)])]
                .into_iter()
                .collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        assert_eq!(eff[&TxnId(3)], Priority::new(10));
        assert_eq!(eff[&TxnId(2)], Priority::new(10));
    }

    #[test]
    fn no_inheritance_without_blocking() {
        let b = base(&[(1, 10), (2, 1)]);
        let eff = effective_priorities(&b, &FxHashMap::default(), &mut Vec::new());
        assert_eq!(eff, b);
    }

    fn edges(es: &[(u64, &[u64])]) -> Vec<(TxnId, Vec<TxnId>)> {
        es.iter()
            .map(|&(w, bs)| (TxnId(w), bs.iter().map(|&b| TxnId(b)).collect()))
            .collect()
    }

    fn update(
        boosts: &mut Boosts,
        base: &FxHashMap<TxnId, Priority>,
        es: &[(TxnId, Vec<TxnId>)],
    ) -> Vec<(TxnId, Priority)> {
        let it = es.iter().map(|(w, bs)| (*w, bs.as_slice()));
        boosts.update(base, it, &mut Vec::new())
    }

    #[test]
    fn boosts_report_only_changes() {
        let b = base(&[(1, 10), (2, 1), (3, 5), (4, 2)]);
        let mut boosts = Boosts::default();
        let es = edges(&[(1, &[2]), (3, &[4])]);
        assert_eq!(
            update(&mut boosts, &b, &es),
            vec![(TxnId(2), Priority::new(10)), (TxnId(4), Priority::new(5))]
        );
        // Same edges: nothing moves.
        assert!(update(&mut boosts, &b, &es).is_empty());
        // T3 stops waiting: T4 reverts to base, T2 keeps its boost.
        let es = edges(&[(1, &[2])]);
        assert_eq!(
            update(&mut boosts, &b, &es),
            vec![(TxnId(4), Priority::new(2))]
        );
        assert_eq!(boosts.effective(&b, TxnId(2)), Some(Priority::new(10)));
        assert_eq!(boosts.effective(&b, TxnId(4)), Some(Priority::new(2)));
        assert_eq!(boosts.effective(&b, TxnId(9)), None);
    }

    #[test]
    fn boosts_drop_deregistered_transactions_silently() {
        let mut b = base(&[(1, 10), (2, 1)]);
        let mut boosts = Boosts::default();
        update(&mut boosts, &b, &edges(&[(1, &[2])]));
        b.remove(&TxnId(2));
        assert!(update(&mut boosts, &b, &[]).is_empty());
        assert!(boosts.is_empty());
    }

    #[test]
    fn boosts_match_the_reference_fixpoint() {
        let b = base(&[(1, 50), (2, 40), (3, 30), (4, 20), (5, 10), (6, 60)]);
        let es = edges(&[(1, &[2]), (2, &[3, 5]), (3, &[4]), (4, &[5]), (6, &[9])]);
        let mut boosts = Boosts::default();
        update(&mut boosts, &b, &es);
        let map: FxHashMap<TxnId, Vec<TxnId>> = es.into_iter().collect();
        boosts.assert_matches(&b, &effective_priorities(&b, &map, &mut Vec::new()));
    }

    #[test]
    fn unknown_blockers_are_ignored() {
        let b = base(&[(1, 10)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(99)])].into_iter().collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        assert_eq!(eff.len(), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "not registered"))]
    fn unregistered_waiter_trips_debug_assertion() {
        // A waiter that is not in `base` cannot pass its priority on; the
        // protocols never produce this state, and the computation flags it
        // instead of silently dropping inheritance.
        let b = base(&[(2, 1)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(2)])].into_iter().collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        // Release builds skip the waiter and leave the blocker unboosted.
        assert_eq!(eff[&TxnId(2)], Priority::new(1));
    }

    #[test]
    fn long_chain_converges_regardless_of_edge_order() {
        // A four-link chain needs several fixpoint passes when the map
        // iterates the edges back to front; the result must not depend on
        // FxHashMap iteration order.
        let b = base(&[(1, 50), (2, 40), (3, 30), (4, 20), (5, 10)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> = [
            (TxnId(1), vec![TxnId(2)]),
            (TxnId(2), vec![TxnId(3)]),
            (TxnId(3), vec![TxnId(4)]),
            (TxnId(4), vec![TxnId(5)]),
        ]
        .into_iter()
        .collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        for t in 1..=5 {
            assert_eq!(eff[&TxnId(t)], Priority::new(50), "txn {t}");
        }
    }
}
