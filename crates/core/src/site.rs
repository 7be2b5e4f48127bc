//! The per-site runtime both simulators share.
//!
//! The paper's prototyping environment runs the same server modules at
//! every site, and a single-site run is one such site. This module holds
//! what the single-site model and every site of the distributed model do
//! identically:
//!
//! * **Run intake** — [`intake`] builds the spec map (rejecting duplicate
//!   ids and ids in the system range) and [`schedule_arrivals`] puts the
//!   arrivals on the event queue.
//! * **Lifecycle recording** — [`SiteRuntime`] owns the [`Monitor`] and
//!   the event sink. It has one method per lifecycle fact (arrive, start,
//!   block, unblock, restart, abort, commit); each updates the monitor and
//!   emits the matching event. It also counts the committed writes to
//!   each copy, which [`RunReport::committed_writes`] exposes.
//!   [`lower_priority_blocker`] is the one rule deciding which blockers
//!   the monitor charges as priority inversions.
//! * **Event plumbing** — one sink-gated [`SiteRuntime::emit`] and the
//!   protocol- and CPU-journal drains.
//! * **Per-site MVCC state** — version stores, snapshot pins (unpin → GC
//!   → [`SimEventKind::VersionGced`]) and the temporal counters.
//! * **The report** — [`SiteRuntime::report`] assembles the
//!   [`RunReport`] fields every run shares.
//!
//! Control flow stays with the models: the single-site pending pump,
//! restarts, latches and I/O; the distributed messages, two-phase commit,
//! faults and repair.

use monitor::{AbortReason, Monitor, RunStats, SimEvent, SimEventKind};
use rtdb::{ObjectId, ObjectStore, SiteId, TxnId, TxnSpec};
use starlite::{
    Cpu, CpuJournalEntry, CpuJournalKind, EventSink, FxHashMap, Scheduler, SimDuration, SimTime,
};

use crate::mvcc::{SnapshotId, VersionStore};
use crate::protocols::LockProtocol;
use crate::report::{RunReport, TemporalStats};

/// Builds the spec map of a run and its arrival list (in input order).
///
/// # Panics
///
/// Panics if two transactions share an id or an id lies in the system
/// range ([`rtdb::SYSTEM_TXN_BASE`] and up).
pub(crate) fn intake(txns: Vec<TxnSpec>) -> (FxHashMap<TxnId, TxnSpec>, Vec<(SimTime, TxnId)>) {
    let mut specs = FxHashMap::default();
    let mut arrivals = Vec::with_capacity(txns.len());
    for spec in txns {
        assert!(!spec.id.is_system(), "transaction id in system range");
        arrivals.push((spec.arrival, spec.id));
        let prev = specs.insert(spec.id, spec);
        assert!(prev.is_none(), "duplicate transaction id");
    }
    (specs, arrivals)
}

/// Schedules one arrival event per transaction, in input order.
pub(crate) fn schedule_arrivals<E>(
    sched: &mut Scheduler<E>,
    arrivals: Vec<(SimTime, TxnId)>,
    arrive: fn(TxnId) -> E,
) {
    for (at, txn) in arrivals {
        sched.schedule(at, arrive(txn));
    }
}

/// The blocker the monitor charges to a blocked `txn`: `blocker` when it
/// has lower base priority than `txn` (the inversion the priority ceiling
/// protocol bounds), `None` otherwise or when it is unknown.
fn lower_priority_blocker(
    specs: &FxHashMap<TxnId, TxnSpec>,
    txn: TxnId,
    blocker: Option<TxnId>,
) -> Option<TxnId> {
    blocker.filter(|b| {
        specs
            .get(b)
            .is_some_and(|s| s.base_priority() < specs[&txn].base_priority())
    })
}

/// Temporal-consistency counters of one run (versioned reads only).
#[derive(Debug, Default)]
pub(crate) struct TemporalCounters {
    pub(crate) snapshot_reads: u64,
    pub(crate) unconstructible: u64,
    lag_total: u128,
    lag_max: u64,
    replica_reads: u64,
    replica_lag_total: u128,
    replica_lag_max: u64,
    pub(crate) reader_committed: u64,
    pub(crate) reader_missed: u64,
    versions_gced: u64,
}

impl TemporalCounters {
    /// Accounts the staleness of one constructible snapshot read.
    pub(crate) fn lag(&mut self, ticks: u64) {
        self.lag_total += ticks as u128;
        self.lag_max = self.lag_max.max(ticks);
    }

    /// Accounts the replication lag of one read of a remote-primary
    /// object.
    pub(crate) fn replica_lag(&mut self, ticks: u64) {
        self.replica_reads += 1;
        self.replica_lag_total += ticks as u128;
        self.replica_lag_max = self.replica_lag_max.max(ticks);
    }

    fn stats(&self) -> TemporalStats {
        let mean = |total: u128, n: u64| if n == 0 { 0.0 } else { total as f64 / n as f64 };
        TemporalStats {
            snapshot_reads: self.snapshot_reads,
            unconstructible: self.unconstructible,
            mean_lag_ticks: mean(
                self.lag_total,
                self.snapshot_reads.saturating_sub(self.unconstructible),
            ),
            max_lag_ticks: self.lag_max,
            mean_replica_lag_ticks: mean(self.replica_lag_total, self.replica_reads),
            max_replica_lag_ticks: self.replica_lag_max,
            reader_committed: self.reader_committed,
            reader_missed: self.reader_missed,
            versions_gced: self.versions_gced,
        }
    }
}

/// One site's multiversion state.
#[derive(Debug)]
struct SiteVersions {
    store: VersionStore,
    /// Live snapshot pins: reader → (handle, pinned instant).
    pins: FxHashMap<TxnId, (SnapshotId, SimTime)>,
}

/// Lifecycle recording, event plumbing and MVCC state of a run's sites.
pub(crate) struct SiteRuntime<S> {
    monitor: Monitor,
    /// Structured event sink ([`starlite::NullSink`] in the default
    /// configuration: every emit and drain then compiles to nothing).
    sink: S,
    /// Committed writes applied per copy, indexed `[site][object]`.
    committed_writes: Vec<Vec<u64>>,
    /// Scratch for draining protocol / CPU journals without reallocating.
    scratch_events: Vec<SimEventKind>,
    scratch_cpu: Vec<CpuJournalEntry<TxnId>>,
    /// Indexed by site; empty when versioned reads are off.
    versions: Vec<SiteVersions>,
    pub(crate) temporal: TemporalCounters,
}

impl<S: EventSink<SimEvent>> SiteRuntime<S> {
    /// A runtime for `sites` sites of `objects` objects each, every site
    /// with a version store retaining `keep` versions per object when
    /// `keep` is set.
    pub(crate) fn new(sink: S, sites: usize, objects: u32, keep: Option<usize>) -> Self {
        let versions = match keep {
            Some(keep) => (0..sites)
                .map(|_| SiteVersions {
                    store: VersionStore::new(keep),
                    pins: FxHashMap::default(),
                })
                .collect(),
            None => Vec::new(),
        };
        SiteRuntime {
            monitor: Monitor::new(),
            sink,
            committed_writes: vec![vec![0; objects as usize]; sites],
            scratch_events: Vec::new(),
            scratch_cpu: Vec::new(),
            versions,
            temporal: TemporalCounters::default(),
        }
    }

    /// Whether events are being recorded. `S::ENABLED` is a
    /// monomorphisation-time constant, so with a null sink every branch
    /// on this folds away.
    pub(crate) fn tracing(&self) -> bool {
        S::ENABLED && self.sink.enabled()
    }

    /// Emits one event, stamped with the site it happened at.
    pub(crate) fn emit(&mut self, at: SimTime, site: SiteId, kind: SimEventKind) {
        if self.tracing() {
            self.sink.emit(at, SimEvent::new(site, kind));
        }
    }

    /// Forwards everything `protocol` journalled during the call that just
    /// returned, stamped with `site` and the current instant. Called right
    /// after each request/release so the stream keeps the true
    /// interleaving with lifecycle events.
    pub(crate) fn drain_protocol_journal<P: LockProtocol + ?Sized>(
        &mut self,
        protocol: &mut P,
        site: SiteId,
        now: SimTime,
    ) {
        if !self.tracing() {
            return;
        }
        protocol.drain_events(&mut self.scratch_events);
        for i in 0..self.scratch_events.len() {
            let kind = self.scratch_events[i];
            self.sink.emit(now, SimEvent::new(site, kind));
        }
        self.scratch_events.clear();
    }

    /// Forwards the dispatch/preemption events `cpu` recorded; each entry
    /// carries its own timestamp.
    pub(crate) fn drain_cpu_journal(&mut self, cpu: &mut Cpu<TxnId>, site: SiteId) {
        if !self.tracing() {
            return;
        }
        cpu.drain_journal(&mut self.scratch_cpu);
        for i in 0..self.scratch_cpu.len() {
            let entry = &self.scratch_cpu[i];
            let kind = match entry.kind {
                CpuJournalKind::Dispatched => SimEventKind::Dispatched { txn: entry.task },
                CpuJournalKind::Preempted => SimEventKind::Preempted { txn: entry.task },
            };
            let at = entry.at;
            self.sink.emit(at, SimEvent::new(site, kind));
        }
        self.scratch_cpu.clear();
    }

    // ----- lifecycle ----------------------------------------------------

    /// A transaction entered the system at `site`.
    pub(crate) fn arrive(&mut self, spec: &TxnSpec, site: SiteId, at: SimTime) {
        let (txn, priority) = (spec.id, spec.base_priority());
        self.emit(at, site, SimEventKind::TxnArrived { txn, priority });
        self.monitor.register(spec);
    }

    /// A transaction started executing.
    pub(crate) fn start(&mut self, txn: TxnId, site: SiteId, at: SimTime) {
        self.monitor.on_start(txn, at);
        self.emit(at, site, SimEventKind::TxnStarted { txn });
    }

    /// A transaction began waiting behind `blocker` (its lock-table or
    /// latch event was emitted already). System transactions are not
    /// monitored.
    pub(crate) fn block(
        &mut self,
        specs: &FxHashMap<TxnId, TxnSpec>,
        txn: TxnId,
        at: SimTime,
        blocker: Option<TxnId>,
    ) {
        if !txn.is_system() {
            let lower = lower_priority_blocker(specs, txn, blocker);
            self.monitor.on_block(txn, at, lower);
        }
    }

    /// A blocked transaction resumed. System transactions are not
    /// monitored.
    pub(crate) fn unblock(&mut self, txn: TxnId, at: SimTime) {
        if !txn.is_system() {
            self.monitor.on_unblock(txn, at);
        }
    }

    /// A deadlock victim aborted and starts over.
    pub(crate) fn restart(&mut self, txn: TxnId, site: SiteId, at: SimTime) {
        self.monitor.on_restart(txn, at);
        let reason = AbortReason::DeadlockVictim;
        self.emit(at, site, SimEventKind::TxnAborted { txn, reason });
    }

    /// A transaction left the system aborted: a fault abort for
    /// [`AbortReason::SiteFailed`], a deadline miss otherwise (a victim
    /// that does not restart counts as missed).
    pub(crate) fn abort(&mut self, txn: TxnId, site: SiteId, at: SimTime, reason: AbortReason) {
        match reason {
            AbortReason::SiteFailed => self.monitor.on_fault_abort(txn, at),
            AbortReason::DeadlineMissed | AbortReason::DeadlockVictim => {
                self.monitor.on_miss(txn, at)
            }
        }
        self.emit(at, site, SimEventKind::TxnAborted { txn, reason });
    }

    /// Counts one committed write to `object`'s copy at `site`.
    pub(crate) fn write_applied(&mut self, site: SiteId, object: ObjectId) {
        self.committed_writes[site.index()][object.0 as usize] += 1;
    }

    /// A transaction committed.
    pub(crate) fn commit(&mut self, txn: TxnId, site: SiteId, at: SimTime) {
        self.monitor.on_commit(txn, at);
        self.emit(at, site, SimEventKind::TxnCommitted { txn });
    }

    // ----- multiversion state -------------------------------------------

    /// Whether the sites keep version stores.
    pub(crate) fn versioned(&self) -> bool {
        !self.versions.is_empty()
    }

    /// The version store of `site`.
    pub(crate) fn store(&self, site: SiteId) -> &VersionStore {
        &self.versions[site.index()].store
    }

    /// Pins a snapshot for `txn` at instant `pin` in `site`'s store.
    pub(crate) fn pin(&mut self, site: SiteId, txn: TxnId, pin: SimTime, now: SimTime) {
        let v = &mut self.versions[site.index()];
        let id = v.store.pin(pin);
        v.pins.insert(txn, (id, pin));
        self.emit(now, site, SimEventKind::SnapshotPinned { txn, pin });
    }

    /// The instant `txn`'s snapshot is pinned at.
    pub(crate) fn pinned_at(&self, site: SiteId, txn: TxnId) -> SimTime {
        self.versions[site.index()].pins[&txn].1
    }

    /// Closes `txn`'s snapshot pin, if it holds one, and sweeps the
    /// version chains the released watermark now lets GC trim.
    pub(crate) fn release_pin(&mut self, site: SiteId, txn: TxnId, now: SimTime) {
        let Some(v) = self.versions.get_mut(site.index()) else {
            return;
        };
        let Some((id, _)) = v.pins.remove(&txn) else {
            return;
        };
        v.store.unpin(id);
        for (object, through) in v.store.gc() {
            self.temporal.versions_gced += 1;
            self.emit(now, site, SimEventKind::VersionGced { object, through });
        }
    }

    /// A version of `object` was committed at `site`: installs it in the
    /// site's version store (when there is one; stale versions are
    /// dropped), emits the install and counts any eviction it caused.
    pub(crate) fn install(
        &mut self,
        site: SiteId,
        object: ObjectId,
        value: u64,
        version: u64,
        writer: TxnId,
        now: SimTime,
    ) {
        let evicted = self
            .versions
            .get_mut(site.index())
            .and_then(|v| {
                v.store
                    .install_if_newer(object, value, version, writer, now)
            })
            .and_then(|i| i.evicted_through);
        self.emit(
            now,
            site,
            SimEventKind::VersionInstalled {
                object,
                version,
                writer,
            },
        );
        if let Some(through) = evicted {
            self.temporal.versions_gced += 1;
            self.emit(now, site, SimEventKind::VersionGced { object, through });
        }
    }

    // ----- report -------------------------------------------------------

    /// The report fields every run shares: headline statistics from the
    /// monitor, CPU totals over `cpus`, the final stores with their
    /// committed-write counts and the temporal measurements. Protocol and network counters are left at zero for
    /// the model to fill in.
    pub(crate) fn report(
        self,
        makespan: SimTime,
        events: u64,
        cpus: &[Cpu<TxnId>],
        stores: Vec<ObjectStore>,
    ) -> RunReport {
        RunReport {
            stats: RunStats::from_monitor(&self.monitor, makespan),
            deadlocks: 0,
            ceiling_blocks: 0,
            preemptions: cpus.iter().map(|c| c.preemption_count()).sum(),
            cpu_busy: cpus.iter().map(|c| c.busy_time()).sum::<SimDuration>(),
            remote_messages: 0,
            net: None,
            events,
            temporal: self.versioned().then(|| self.temporal.stats()),
            monitor: self.monitor,
            stores,
            committed_writes: self.committed_writes,
        }
    }
}
