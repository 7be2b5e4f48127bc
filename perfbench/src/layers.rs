//! Per-layer totals of a traced measurement, shared by the simulated and
//! the live workloads. Fields a workload does not exercise stay zero.

use std::time::Instant;

use monitor::{SimEvent, SimEventKind};
use starlite::{EventSink, FxHashSet, SimTime};

use crate::replay::ReplayTimes;
use crate::util::secs_since;
use crate::Metrics;

/// Per-layer totals, summed over a workload's arms.
#[derive(Debug, Default)]
pub struct Layers {
    pub txns: u64,
    pub generate_s: f64,
    pub generate_rss_mib: f64,
    /// Host seconds in the run call (median over untraced runs at full
    /// size), the kernel events those runs executed, and their memory.
    pub run_s: f64,
    pub run_events: u64,
    pub run_rss_growth_mib: f64,
    /// Host seconds of the traced run and of an untraced run of the same
    /// input.
    pub traced_s: f64,
    pub trace_base_s: f64,
    pub restarts: u64,
    pub events: u64,
    pub preemptions: u64,
    pub stream_events: u64,
    pub requests: u64,
    pub first_grants: u64,
    pub blocked_requests: u64,
    pub ceiling_blocks: u64,
    pub inheritances: u64,
    pub upgrades: u64,
    pub deadlocks: u64,
    pub replay: ReplayTimes,
    pub snapshot_reads: u64,
    pub unconstructible: u64,
    pub versions_gced: u64,
    pub latch_acquired: u64,
    pub latch_blocked: u64,
    pub sent: u64,
    pub delivered: u64,
    pub twopc: u64,
    pub rpc_retries: u64,
    pub check_s: f64,
    pub metrics_s: f64,
    pub profile_s: f64,
    /// Whether the workload ran on the live backend; the `live.*`
    /// metrics are zero otherwise.
    pub live: bool,
    /// Live backend only: acquire / release call percentiles, in ns.
    pub acquire_ns_p50: f64,
    pub acquire_ns_p99: f64,
    pub release_ns_p50: f64,
}

impl Layers {
    /// Counts what a recorded stream says about the lock and latch
    /// layers, and feeds it through the three monitor sinks, timing
    /// each.
    pub fn add_stream(&mut self, events: &[(SimTime, SimEvent)]) {
        // A request is granted on first asking when its grant follows
        // with no block in between.
        let mut asking = FxHashSet::default();
        for (_, e) in events {
            match e.kind {
                SimEventKind::LockRequested { txn, .. } => {
                    self.requests += 1;
                    asking.insert(txn);
                }
                SimEventKind::LockGranted { txn, .. } | SimEventKind::LockUpgraded { txn, .. } => {
                    if matches!(e.kind, SimEventKind::LockUpgraded { .. }) {
                        self.upgrades += 1;
                    }
                    self.first_grants += u64::from(asking.remove(&txn));
                }
                SimEventKind::LockBlocked { txn, .. }
                | SimEventKind::CeilingBlocked { txn, .. } => {
                    self.blocked_requests += u64::from(asking.remove(&txn));
                }
                SimEventKind::DeadlockDetected { victim } => {
                    asking.remove(&victim);
                }
                SimEventKind::PriorityInherited { .. } => self.inheritances += 1,
                SimEventKind::RangeLatchAcquired { .. } => self.latch_acquired += 1,
                SimEventKind::RangeLatchBlocked { .. } => self.latch_blocked += 1,
                SimEventKind::TwoPcStarted { .. } => self.twopc += 1,
                SimEventKind::RpcRetried { .. } => self.rpc_retries += 1,
                _ => {}
            }
        }
        self.stream_events += events.len() as u64;
        self.metrics_s += time_replay(events, &mut monitor::MetricsSink::new());
        self.profile_s += time_replay(events, &mut monitor::ContentionProfiler::new());
    }

    /// Prints every per-layer metric.
    pub fn push(&self, m: &mut Metrics) {
        let per_txn = |v: u64| ratio(v as f64, self.txns as f64);
        let ns_per_event = |s: f64| ratio(s * 1e9, self.stream_events as f64);
        m.push("workload.generate_s", self.generate_s, "s");
        m.push("workload.rss_mib", self.generate_rss_mib, "MiB");
        m.push("core.run_s", self.run_s, "s");
        m.push("core.rss_growth_mib", self.run_rss_growth_mib, "MiB");
        m.push("core.restarts_per_txn", per_txn(self.restarts), "1/txn");
        m.push("starlite.events_per_txn", per_txn(self.events), "event/txn");
        m.push(
            "starlite.ns_per_event",
            ratio(self.run_s * 1e9, self.run_events as f64),
            "ns/event",
        );
        m.push(
            "starlite.cpu.preemptions_per_txn",
            per_txn(self.preemptions),
            "1/txn",
        );
        m.push(
            "protocols.requests_per_txn",
            per_txn(self.requests),
            "req/txn",
        );
        m.push(
            "protocols.grant_ratio",
            ratio(self.first_grants as f64, self.requests as f64),
            "ratio",
        );
        m.push(
            "protocols.ceiling_blocks",
            self.ceiling_blocks as f64,
            "count",
        );
        m.push("protocols.inheritances", self.inheritances as f64, "count");
        m.push("rtdb.lock.upgrades", self.upgrades as f64, "count");
        m.push("rtdb.wfg.deadlocks", self.deadlocks as f64, "count");
        m.push(
            "protocols.request_ns",
            ratio(self.replay.request_ns, self.replay.requests as f64),
            "ns",
        );
        m.push(
            "protocols.release_ns",
            ratio(self.replay.release_ns, self.replay.releases as f64),
            "ns",
        );
        m.push("mvcc.snapshot_reads", self.snapshot_reads as f64, "count");
        m.push("mvcc.versions_gced", self.versions_gced as f64, "count");
        m.push(
            "mvcc.unconstructible_ratio",
            ratio(self.unconstructible as f64, self.snapshot_reads as f64),
            "ratio",
        );
        m.push("rtdb.latch.acquired", self.latch_acquired as f64, "count");
        m.push(
            "rtdb.latch.blocked_ratio",
            ratio(self.latch_blocked as f64, self.latch_acquired as f64),
            "ratio",
        );
        m.push("netsim.sent_per_txn", per_txn(self.sent), "msg/txn");
        m.push(
            "netsim.delivery_ratio",
            ratio(self.delivered as f64, self.sent as f64),
            "ratio",
        );
        m.push("core.dist.twopc_per_txn", per_txn(self.twopc), "1/txn");
        m.push("core.dist.rpc_retries", self.rpc_retries as f64, "count");
        m.push(
            "monitor.check_ns_per_event",
            ns_per_event(self.check_s),
            "ns/event",
        );
        m.push(
            "monitor.metrics_ns_per_event",
            ns_per_event(self.metrics_s),
            "ns/event",
        );
        m.push(
            "monitor.profile_ns_per_event",
            ns_per_event(self.profile_s),
            "ns/event",
        );
        m.push(
            "trace_overhead_pct",
            100.0 * ratio(self.traced_s - self.trace_base_s, self.trace_base_s),
            "%",
        );
        m.push("live.acquire_ns_p50", self.acquire_ns_p50, "ns");
        m.push("live.acquire_ns_p99", self.acquire_ns_p99, "ns");
        m.push("live.release_ns_p50", self.release_ns_p50, "ns");
        let live_only = |v: f64| if self.live { v } else { 0.0 };
        m.push(
            "live.wait_ratio",
            live_only(ratio(self.blocked_requests as f64, self.requests as f64)),
            "ratio",
        );
        m.push("live.deadlocks", live_only(self.deadlocks as f64), "count");
        m.push(
            "live.restarts_per_txn",
            live_only(per_txn(self.restarts)),
            "1/txn",
        );
        m.push(
            "live.ceiling_blocks",
            live_only(self.ceiling_blocks as f64),
            "count",
        );
        m.push(
            "live.events_per_txn",
            live_only(per_txn(self.stream_events)),
            "event/txn",
        );
        m.note("stream_events", self.stream_events as f64);
        m.note("replayed_requests", self.replay.requests as f64);
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Feeds `events` into `sink` and returns the host seconds it took.
pub fn time_replay<S: EventSink<SimEvent>>(events: &[(SimTime, SimEvent)], sink: &mut S) -> f64 {
    let t0 = Instant::now();
    for &(at, e) in events {
        sink.emit(at, e);
    }
    secs_since(t0)
}
