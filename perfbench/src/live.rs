//! The `live` workload: closed-loop client threads over the real-threads
//! lock managers of `rtlock-live`.
//!
//! Each arm drives one backend through its public API — `LiveTable`
//! (2PL with priority queues) or `LiveCeiling` (the priority ceiling
//! protocol) — with the transaction shape of `rtlock_live::runner`:
//! register, acquire every lock (reads first, then writes) holding each
//! object for a short busy-wait, restart when chosen as a deadlock
//! victim, abort when the wall deadline passes, and release everything at
//! the end. Every transaction and every acquire is timed.
//!
//! A run is a sequence of rounds. A round executes the arm's generated
//! transactions once on a fresh lock manager and store; the round's
//! checks are that the store's non-atomic increments match the committed
//! write sets, that the lock manager is quiescent afterwards and that
//! every transaction reached a terminal outcome.
//!
//! The backends always record their event stream into per-thread logs.
//! The untraced measurement drops the logs; the traced one merges them
//! and replays the merged stream through the oracle and the monitor
//! sinks.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use monitor::{AbortReason, CheckConfig, CheckSink, SimEventKind};
use rtdb::{Catalog, LockMode, ObjectId, Placement, TxnId, TxnSpec};
use rtlock_live::{
    Acquire, LiveCeiling, LiveProtocol, LiveQueue, LiveTable, Recorder, ThreadLog, TICK_NS,
};
use starlite::SimDuration;
use workload::{Generator, SizeDistribution, WorkloadSpec};

use crate::layers::{self, Layers};
use crate::util::{median, peak_rss_mib, percentile, repeat_setup, rss_mib, secs_since};
use crate::{Checks, Metrics, Options};

/// Client threads (the benchmark host has two cores).
const THREADS: usize = 2;
/// Objects in the live database.
const DB_SIZE: u32 = 200;
/// Objects per transaction; half of them are writes.
const TXN_SIZE: u32 = 8;
/// Busy-wait per object while its lock is held, in µs. With no hold
/// every acquire is uncontended.
const HOLD_US: u64 = 5;
/// Nominal per-object cost the deadline rule multiplies, in ticks (µs):
/// the hold time.
const PER_OBJECT_TICKS: u64 = HOLD_US;
/// Deadline slack over the busy time of a transaction: the deadline
/// falls inside the latency of transactions that wait for a lock, so the
/// miss share tracks how long conflicts block.
const SLACK: f64 = 2.0;
/// Transactions per round.
const ROUND_TXNS: u32 = 2_000;
/// Rounds per arm at the least, even past `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Rounds per arm in a traced measurement.
const TRACED_ROUNDS: usize = 5;

/// The two arms: one per backend.
const ARMS: [LiveProtocol; 2] = [LiveProtocol::TwoPhasePriority, LiveProtocol::Ceiling];

/// Generates one round's transactions.
fn generate(seed: u64, toy: bool) -> Vec<TxnSpec> {
    let txns = if toy { ROUND_TXNS / 10 } else { ROUND_TXNS };
    let catalog = Catalog::new(DB_SIZE, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(txns)
        .size(SizeDistribution::Fixed(TXN_SIZE))
        .read_only_fraction(0.0)
        .write_fraction(0.5)
        .deadline(SLACK, SimDuration::from_ticks(PER_OBJECT_TICKS))
        .build();
    Generator::new(&workload, &catalog).generate(seed)
}

/// The lock manager of one arm. The gate is boxed so the enum stays
/// small either way.
enum Backend {
    Table(LiveTable),
    Gate(Box<LiveCeiling>),
}

impl Backend {
    fn new(protocol: LiveProtocol) -> Self {
        match protocol {
            LiveProtocol::Ceiling => Backend::Gate(Box::new(LiveCeiling::new(false))),
            _ => Backend::Table(LiveTable::new(LiveQueue::Priority, false)),
        }
    }

    fn register(&self, rec: &Recorder, log: &mut ThreadLog, spec: &TxnSpec) {
        match self {
            Backend::Table(t) => t.register(spec.id, spec.base_priority()),
            Backend::Gate(g) => g.register(rec, log, spec),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn acquire(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        object: ObjectId,
        mode: LockMode,
        deadline: Instant,
        blocked_ticks: &mut u64,
    ) -> Acquire {
        match self {
            Backend::Table(t) => t.acquire(rec, log, txn, object, mode, deadline, blocked_ticks),
            Backend::Gate(g) => g.acquire(rec, log, txn, object, mode, deadline, blocked_ticks),
        }
    }

    /// Releases everything; `restart` keeps the transaction registered
    /// for a deadlock-victim restart (the gate never picks victims).
    fn release(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        held: &[(ObjectId, LockMode)],
        restart: bool,
    ) {
        match self {
            Backend::Table(t) => {
                t.release_all(rec, log, txn, held);
                if restart {
                    t.reset_priority(txn);
                } else {
                    t.deregister(txn);
                }
            }
            Backend::Gate(g) => g.finish(rec, log, txn),
        }
    }

    fn deadlocks(&self) -> u64 {
        match self {
            Backend::Table(t) => t.deadlocks(),
            Backend::Gate(_) => 0,
        }
    }

    fn ceiling_blocks(&self) -> u64 {
        match self {
            Backend::Table(_) => 0,
            Backend::Gate(g) => g.ceiling_blocks(),
        }
    }

    /// The quiescence check: no holder or waiter left, no incompatible
    /// grants. The backends assert these, so a failure is a panic.
    fn quiescent(&self) -> Result<(), String> {
        catch_unwind(AssertUnwindSafe(|| match self {
            Backend::Table(t) => {
                t.assert_compatible();
                assert!(t.idle(), "live lock table not idle after the round");
            }
            Backend::Gate(g) => g.assert_idle(),
        }))
        .map_err(|p| {
            p.downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "quiescence assertion failed".into())
        })
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientStats {
    committed: u32,
    missed: u32,
    restarts: u32,
    /// Wall µs per committed transaction, claim to commit.
    txn_us: Vec<f64>,
    acquire_ns: Vec<f64>,
    release_ns: Vec<f64>,
    /// Spec indices of committed transactions.
    committed_idx: Vec<usize>,
}

/// Spins for `us` microseconds while holding a lock.
fn busy_work(us: u64) {
    let until = Instant::now() + Duration::from_micros(us);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Runs one transaction to commit or a deadline miss.
fn run_txn(
    backend: &Backend,
    rec: &Recorder,
    log: &mut ThreadLog,
    spec: &TxnSpec,
    store: &[AtomicU64],
    stats: &mut ClientStats,
) -> bool {
    let txn = spec.id;
    let claimed = Instant::now();
    let relative = spec
        .deadline
        .ticks()
        .saturating_sub(spec.arrival.ticks())
        .max(1);
    let deadline = claimed + Duration::from_nanos(relative * TICK_NS);
    log.record(
        rec,
        SimEventKind::TxnArrived {
            txn,
            priority: spec.base_priority(),
        },
    );
    backend.register(rec, log, spec);
    log.record(rec, SimEventKind::TxnStarted { txn });

    let release = |log: &mut ThreadLog,
                   held: &[(ObjectId, LockMode)],
                   restart: bool,
                   release_ns: &mut Vec<f64>| {
        let t0 = Instant::now();
        backend.release(rec, log, txn, held, restart);
        release_ns.push(t0.elapsed().as_nanos() as f64);
    };
    let mut held: Vec<(ObjectId, LockMode)> = Vec::with_capacity(spec.size());
    let mut blocked_ticks = 0u64;
    let committed = 'attempt: loop {
        held.clear();
        for (object, mode) in spec.access_ops() {
            if Instant::now() >= deadline {
                break 'attempt false;
            }
            let t0 = Instant::now();
            let outcome =
                backend.acquire(rec, log, txn, object, mode, deadline, &mut blocked_ticks);
            stats.acquire_ns.push(t0.elapsed().as_nanos() as f64);
            match outcome {
                Acquire::Granted => {
                    held.push((object, mode));
                    busy_work(HOLD_US);
                }
                Acquire::Timeout => break 'attempt false,
                Acquire::Deadlock => {
                    release(log, &held, true, &mut stats.release_ns);
                    log.record(
                        rec,
                        SimEventKind::TxnAborted {
                            txn,
                            reason: AbortReason::DeadlockVictim,
                        },
                    );
                    stats.restarts += 1;
                    continue 'attempt;
                }
            }
        }
        if Instant::now() >= deadline {
            break 'attempt false;
        }
        // Non-atomic read-modify-write: only write-lock exclusivity keeps
        // increments from being lost, which the round's store check sees.
        for obj in &spec.write_set {
            let slot = &store[obj.0 as usize];
            let v = slot.load(Ordering::Relaxed);
            std::hint::spin_loop();
            slot.store(v + 1, Ordering::Relaxed);
        }
        break 'attempt true;
    };
    release(log, &held, false, &mut stats.release_ns);
    if committed {
        log.record(rec, SimEventKind::TxnCommitted { txn });
        stats.committed += 1;
        stats.txn_us.push(claimed.elapsed().as_nanos() as f64 / 1e3);
    } else {
        log.record(
            rec,
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlineMissed,
            },
        );
        stats.missed += 1;
    }
    committed
}

/// One round's results.
struct Round {
    wall_s: f64,
    committed: u32,
    missed: u32,
    restarts: u32,
    deadlocks: u64,
    ceiling_blocks: u64,
    txn_us: Vec<f64>,
    acquire_ns: Vec<f64>,
    release_ns: Vec<f64>,
    logs: Vec<ThreadLog>,
    failures: Vec<String>,
}

/// Executes `specs` once on a fresh lock manager and store.
fn run_round(protocol: LiveProtocol, specs: &[TxnSpec]) -> Round {
    let backend = Backend::new(protocol);
    let store: Vec<AtomicU64> = (0..DB_SIZE).map(|_| AtomicU64::new(0)).collect();
    let rec = Recorder::new();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let clients: Vec<(ThreadLog, ClientStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ThreadLog::new();
                    let mut stats = ClientStats::default();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(idx) else { break };
                        if run_txn(&backend, &rec, &mut log, spec, &store, &mut stats) {
                            stats.committed_idx.push(idx);
                        }
                    }
                    (log, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("live client thread panicked"))
            .collect()
    });
    let wall_s = secs_since(started);

    let mut round = Round {
        wall_s,
        committed: 0,
        missed: 0,
        restarts: 0,
        deadlocks: backend.deadlocks(),
        ceiling_blocks: backend.ceiling_blocks(),
        txn_us: Vec::new(),
        acquire_ns: Vec::new(),
        release_ns: Vec::new(),
        logs: Vec::new(),
        failures: backend.quiescent().err().into_iter().collect(),
    };
    let mut expected = vec![0u64; DB_SIZE as usize];
    for (log, stats) in clients {
        round.committed += stats.committed;
        round.missed += stats.missed;
        round.restarts += stats.restarts;
        round.txn_us.extend(stats.txn_us);
        round.acquire_ns.extend(stats.acquire_ns);
        round.release_ns.extend(stats.release_ns);
        round.logs.push(log);
        for idx in stats.committed_idx {
            for obj in &specs[idx].write_set {
                expected[obj.0 as usize] += 1;
            }
        }
    }
    let lost = store
        .iter()
        .zip(&expected)
        .filter(|(s, &e)| s.load(Ordering::Relaxed) != e)
        .count();
    if lost > 0 {
        round.failures.push(format!(
            "{lost} objects' store counts disagree with the committed write sets"
        ));
    }
    let processed = (round.committed + round.missed) as usize;
    if processed != specs.len() {
        round.failures.push(format!(
            "processed {processed} of {} transactions",
            specs.len()
        ));
    }
    round
}

/// Records a round's checks.
fn check_round(protocol: LiveProtocol, round: &Round, txns: usize, checks: &mut Checks) {
    checks.attempted += txns as u64;
    if !round.failures.is_empty() {
        let why = round.failures.join("; ");
        checks.fail(txns as u64, format!("live/{}: {why}", protocol.name()));
    }
}

/// Untraced measurement: the end-to-end metrics.
pub fn measure(opts: &Options, checks: &mut Checks, m: &mut Metrics) {
    let (specs, setup) = repeat_setup(|| {
        ARMS.map(|protocol| {
            std::hint::black_box(Backend::new(protocol));
            std::hint::black_box((0..DB_SIZE).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
            generate(opts.seed, opts.toy)
        })
    });

    // Per arm and round: committed per wall second, % missed, p50, p99.
    let mut per_round: Vec<[Vec<f64>; 4]> = vec![Default::default(); ARMS.len()];
    let mut samples = 0usize;
    let window = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || secs_since(window) < opts.seconds {
        for (i, &protocol) in ARMS.iter().enumerate() {
            let mut round = run_round(protocol, &specs[i]);
            check_round(protocol, &round, specs[i].len(), checks);
            let processed = (round.committed + round.missed) as f64;
            let r = &mut per_round[i];
            r[0].push(round.committed as f64 / round.wall_s);
            r[1].push(100.0 * round.missed as f64 / processed.max(1.0));
            r[2].push(percentile(&mut round.txn_us, 0.50));
            r[3].push(percentile(&mut round.txn_us, 0.99));
            samples += round.txn_us.len();
        }
        rounds += 1;
    }

    // Each arm's median over its rounds, averaged over the arms.
    let metric =
        |k: usize| per_round.iter().map(|r| median(&r[k])).sum::<f64>() / ARMS.len() as f64;
    m.push("setup_s", median(&setup), "s");
    m.push("txns_per_s", metric(0), "txn/s");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    m.push("pct_missed", metric(1), "%");
    m.push("txn_p50_us", metric(2), "us");
    m.push("txn_p99_us", metric(3), "us");
    m.note("setup_reps", setup.len() as f64);
    m.note("rounds_per_arm", rounds as f64);
    m.note("txn_samples_per_round", specs[0].len() as f64);
    m.note("txn_samples", samples as f64);
}

/// Traced measurement: rounds whose merged streams feed the oracle, the
/// monitor sinks and the per-layer counts.
pub fn measure_traced(opts: &Options, checks: &mut Checks, m: &mut Metrics) {
    let mut l = Layers {
        live: true,
        ..Layers::default()
    };
    let mut acquire_ns = Vec::new();
    let mut release_ns = Vec::new();
    for protocol in ARMS {
        let rss0 = rss_mib();
        let t0 = Instant::now();
        let specs = generate(opts.seed, opts.toy);
        l.generate_s += secs_since(t0);
        l.generate_rss_mib += (rss_mib() - rss0).max(0.0);

        let rss_before_run = rss_mib();
        let mut walls = Vec::new();
        let mut merge_s = 0.0;
        for _ in 0..TRACED_ROUNDS {
            let round = run_round(protocol, &specs);
            check_round(protocol, &round, specs.len(), checks);
            walls.push(round.wall_s);
            l.txns += specs.len() as u64;
            l.restarts += round.restarts as u64;
            l.deadlocks += round.deadlocks;
            l.ceiling_blocks += round.ceiling_blocks;
            acquire_ns.extend(round.acquire_ns);
            release_ns.extend(round.release_ns);

            let t0 = Instant::now();
            let events = Recorder::merge(round.logs);
            merge_s += secs_since(t0);
            let mut oracle = CheckSink::new(CheckConfig::live(protocol.is_ceiling()));
            l.check_s += layers::time_replay(&events, &mut oracle);
            let violations = oracle.finish();
            if !violations.is_empty() {
                checks.fail(
                    specs.len() as u64,
                    format!(
                        "live/{}: oracle found {} violations, first: {}",
                        protocol.name(),
                        violations.len(),
                        violations[0]
                    ),
                );
            }
            l.add_stream(&events);
        }
        l.run_rss_growth_mib += (peak_rss_mib() - rss_before_run).max(0.0);
        // The merge is the only tracing cost the untraced rounds do not
        // pay: the backends record into their per-thread logs always.
        let run_s = median(&walls);
        l.run_s += run_s;
        l.trace_base_s += run_s;
        l.traced_s += run_s + merge_s / TRACED_ROUNDS as f64;
    }
    l.replay.requests = acquire_ns.len() as u64;
    l.replay.request_ns = acquire_ns.iter().sum();
    l.replay.releases = release_ns.len() as u64;
    l.replay.release_ns = release_ns.iter().sum();
    l.acquire_ns_p50 = percentile(&mut acquire_ns, 0.50);
    l.acquire_ns_p99 = percentile(&mut acquire_ns, 0.99);
    l.release_ns_p50 = percentile(&mut release_ns, 0.50);
    m.note("acquire_samples", acquire_ns.len() as f64);
    m.note("release_samples", release_ns.len() as f64);
    l.push(m);
}
