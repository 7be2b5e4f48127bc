//! The four simulated workloads (`scale`, `hot`, `readers`, `dist`).
//!
//! Each workload is a list of arms — one simulator configuration each.
//! Set-up generates every arm's transactions with
//! `workload::Generator::generate(seed)` and builds its catalog and
//! config; the run passes a copy of those transactions to
//! `run_transactions_with` / `run_transactions_distributed_with`. The
//! untraced measurement runs on `NullSink`, so the program's
//! instrumentation compiles away; the traced measurement records the
//! event stream with a `VecSink` and derives the per-layer numbers from
//! it.

use std::time::Instant;

use monitor::{CheckSink, Outcome, SimEvent};
use rtdb::{Catalog, Placement, TxnSpec};
use rtlock::distributed::{
    run_transactions_distributed_with, CeilingArchitecture, DistributedConfig,
};
use rtlock::single_site::run_transactions_with;
use rtlock::{MvccConfig, ProtocolKind, ReaderMode, RunReport, SingleSiteConfig};
use rtlock_bench::harness::{DistributedSpec, SimSpec, SingleSiteSpec};
use rtlock_bench::params;
use starlite::{EventSink, NullSink, SimDuration, VecSink};
use workload::{Generator, SizeDistribution, WorkloadSpec};

use crate::layers::{self, Layers};
use crate::replay::replay_single_site;
use crate::util::{median, peak_rss_mib, percentile, repeat_setup, rss_mib, secs_since, Digest};
use crate::{Checks, Metrics, Options};

/// Timed runs per arm at the least, even past `--seconds`.
const MIN_REPS: usize = 3;

/// Transactions per traced run on the contended single-site workloads,
/// where the oracle's cost grows with the square of the run length.
const HOT_TRACE_TXNS: u32 = 4_000;

/// Untraced runs per arm in a traced measurement (the baseline of
/// `trace_overhead_pct` and the source of `core.run_s`).
const UNTRACED_REPS: usize = 3;

/// One simulator configuration of a workload.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Short name, for failure messages.
    pub label: String,
    /// The configuration, in the figure harness's vocabulary.
    pub sim: SimSpec,
    /// Transactions in the traced run.
    pub trace_txns: u32,
}

impl Arm {
    /// The configuration of the traced run: the timed one at the trace
    /// size.
    fn traced_sim(&self) -> SimSpec {
        let mut sim = self.sim.clone();
        match &mut sim {
            SimSpec::SingleSite(s) => s.txn_count = self.trace_txns,
            SimSpec::Distributed(s) => s.txn_count = self.trace_txns,
        }
        sim
    }
}

fn sim_txn_count(sim: &SimSpec) -> u32 {
    match sim {
        SimSpec::SingleSite(s) => s.txn_count,
        SimSpec::Distributed(s) => s.txn_count,
    }
}

/// The arms of a simulated workload, at full or toy size.
pub fn arms(workload: &str, toy: bool) -> Option<Vec<Arm>> {
    let n = |full: u32| if toy { (full / 100).max(50) } else { full };
    let arm = |label: String, sim: SimSpec, trace_txns: u32| Arm {
        label,
        sim,
        trace_txns: n(trace_txns),
    };
    let arms = match workload {
        // Low contention over 10⁵ objects: host time goes to the event
        // core, the CPU/I/O model and per-transaction bookkeeping.
        "scale" => vec![arm(
            "scale/C".into(),
            SimSpec::SingleSite(SingleSiteSpec {
                db_size: 100_000,
                ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, n(200_000))
            }),
            200_000,
        )],
        // The heaviest Figure 2/3 point: conflicts dominate.
        "hot" => [
            ProtocolKind::PriorityCeiling,
            ProtocolKind::TwoPhaseLockingPriority,
            ProtocolKind::TwoPhaseLocking,
        ]
        .into_iter()
        .map(|p| {
            arm(
                format!("hot/{}", p.label()),
                SimSpec::SingleSite(SingleSiteSpec::figure(p, 20, n(20_000))),
                HOT_TRACE_TXNS,
            )
        })
        .collect(),
        // The top-rate point of fig_temporal, one arm per reader class.
        "readers" => [
            MvccConfig::locking(4),
            MvccConfig::latch_scan(4),
            MvccConfig::snapshot(4, SimDuration::from_ticks(20_000)),
        ]
        .into_iter()
        .map(|mvcc| {
            let base = params::interarrival_for(8).ticks() as f64;
            arm(
                format!("readers/{}", mvcc.reader_mode.label()),
                SimSpec::SingleSite(SingleSiteSpec {
                    read_only_fraction: 0.5,
                    scan_readers: true,
                    interarrival: SimDuration::from_ticks((base / 1.2).round() as u64),
                    db_size: 50,
                    mvcc: Some(mvcc),
                    ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, n(20_000))
                }),
                HOT_TRACE_TXNS,
            )
        })
        .collect(),
        // The Figure 4/5 point: 3 replicated sites, 50 % read-only,
        // delay 4 units, no faults.
        "dist" => [
            CeilingArchitecture::GlobalManager,
            CeilingArchitecture::LocalReplicated,
        ]
        .into_iter()
        .map(|a| {
            arm(
                format!("dist/{}", a.label()),
                SimSpec::Distributed(DistributedSpec::figure(a, 0.5, 4, n(20_000))),
                20_000,
            )
        })
        .collect(),
        _ => return None,
    };
    Some(arms)
}

/// A simulator configuration, single-site or distributed.
enum Config {
    Single(SingleSiteConfig),
    Dist(DistributedConfig),
}

/// Everything set-up produces for one arm: the generated transactions
/// and what the run call needs besides them.
struct Prepared {
    txns: Vec<TxnSpec>,
    catalog: Catalog,
    config: Config,
    /// Host seconds inside `Generator::generate`.
    generate_s: f64,
}

/// Generates one arm's transactions and builds its catalog and config —
/// the same configuration `rtlock_bench::harness::execute` runs.
fn prepare(sim: &SimSpec, seed: u64) -> Prepared {
    let (catalog, workload, config) = match sim {
        SimSpec::SingleSite(s) => {
            let catalog = Catalog::new(s.db_size, 1, Placement::SingleSite);
            let workload = WorkloadSpec::builder()
                .txn_count(s.txn_count)
                .mean_interarrival(s.interarrival)
                .size(s.size)
                .read_only_fraction(s.read_only_fraction)
                .write_fraction(0.5)
                .scan_readers(s.scan_readers)
                .deadline(s.slack_factor, s.deadline_per_object)
                .build();
            let mut builder = SingleSiteConfig::builder()
                .protocol(s.protocol)
                .cpu_per_object(params::CPU_PER_OBJECT)
                .io_per_object(s.io_per_object)
                .victim_policy(s.victim_policy)
                .restart_victims(s.restart_victims)
                .lock_granularity(s.lock_granularity);
            if let Some(channels) = s.io_parallelism {
                builder = builder.io_parallelism(channels);
            }
            if let Some(m) = s.mvcc {
                builder = builder.mvcc(m);
            }
            (catalog, workload, Config::Single(builder.build()))
        }
        SimSpec::Distributed(s) => {
            let catalog = Catalog::new(
                params::DIST_DB_SIZE,
                params::DIST_SITES,
                Placement::FullyReplicated,
            );
            let workload = WorkloadSpec::builder()
                .txn_count(s.txn_count)
                .mean_interarrival(params::dist_interarrival())
                .size(SizeDistribution::Uniform {
                    min: params::DIST_SIZE_MIN,
                    max: params::DIST_SIZE_MAX,
                })
                .read_only_fraction(s.read_only_fraction)
                .write_fraction(0.5)
                .deadline(params::DIST_SLACK_FACTOR, params::CPU_PER_OBJECT)
                .build();
            let config = DistributedConfig::builder()
                .architecture(s.architecture)
                .comm_delay(SimDuration::from_ticks(
                    params::TIME_UNIT.ticks() * s.delay_units as u64,
                ))
                .cpu_per_object(params::CPU_PER_OBJECT)
                .apply_cost(params::APPLY_COST)
                .faults(s.faults.clone())
                .build();
            (catalog, workload, Config::Dist(config))
        }
    };
    let t0 = Instant::now();
    let txns = Generator::new(&workload, &catalog).generate(seed);
    let generate_s = secs_since(t0);
    Prepared {
        txns,
        catalog,
        config,
        generate_s,
    }
}

/// Runs one arm on a copy of its prepared transactions, returning the
/// report and the host seconds spent inside the run call.
fn run<S: EventSink<SimEvent>>(p: &Prepared, sink: S) -> (RunReport, f64) {
    let txns = p.txns.clone();
    let t0 = Instant::now();
    let report = match &p.config {
        Config::Single(c) => run_transactions_with(*c, &p.catalog, txns, sink),
        Config::Dist(c) => run_transactions_distributed_with(c.clone(), &p.catalog, txns, sink),
    };
    (report, secs_since(t0))
}

/// Digest of a run's simulated outcome: every transaction's fate and
/// timing plus the run-level counters.
fn outcome_digest(report: &RunReport) -> u64 {
    let mut d = Digest::default();
    for r in report.monitor.records() {
        d.add((
            r.txn.0,
            r.outcome,
            r.finish.map(|t| t.ticks()),
            r.restarts,
            r.blocked.ticks(),
        ));
    }
    let s = &report.stats;
    d.add((s.processed, s.committed, s.missed, s.faulted, s.in_progress));
    d.add((
        report.events,
        report.deadlocks,
        report.ceiling_blocks,
        report.preemptions,
    ));
    d.value()
}

/// Accounting closure of one finished run.
fn check_accounting(report: &RunReport, txn_count: usize) -> Result<(), String> {
    let s = &report.stats;
    if s.processed as usize != txn_count
        || s.committed + s.missed + s.faulted != s.processed
        || s.in_progress != 0
    {
        return Err(format!(
            "accounting does not close: {} transactions, processed {} = committed {} + missed {} + faulted {}, {} in progress",
            txn_count, s.processed, s.committed, s.missed, s.faulted, s.in_progress
        ));
    }
    Ok(())
}

/// Simulated response time of every committed transaction, arrival to
/// commit, in ticks (1 tick = 1 µs, as in the live backend).
fn response_ticks(report: &RunReport, out: &mut Vec<f64>) {
    for r in report.monitor.records() {
        if let (Outcome::Committed, Some(f)) = (r.outcome, r.finish) {
            out.push(f.ticks().saturating_sub(r.arrival.ticks()) as f64);
        }
    }
}

/// Untraced measurement: the end-to-end metrics.
pub fn measure(arms: &[Arm], opts: &Options, checks: &mut Checks, m: &mut Metrics) {
    let (prepared, setup) = repeat_setup(|| {
        arms.iter()
            .map(|a| prepare(&a.sim, opts.seed))
            .collect::<Vec<_>>()
    });

    let mut run_s = 0.0;
    let mut digests: Vec<Option<u64>> = vec![None; arms.len()];
    let (mut processed, mut missed) = (0u64, 0u64);
    let mut response = Vec::new();
    let window = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || secs_since(window) < opts.seconds {
        for (i, arm) in arms.iter().enumerate() {
            let p = &prepared[i];
            let (report, secs) = run(p, NullSink);
            run_s += secs;
            let txns = p.txns.len() as u64;
            checks.attempted += txns;
            let mut digest = outcome_digest(&report);
            if opts.corrupt_digest && reps == 1 {
                digest ^= 1;
            }
            let verdict = check_accounting(&report, p.txns.len()).and_then(|()| match digests[i] {
                None => Ok(()),
                Some(first) if first == digest => Ok(()),
                Some(first) => Err(format!(
                    "outcome digest {digest:016x} differs from the first repetition's {first:016x}"
                )),
            });
            if let Err(e) = verdict {
                checks.fail(txns, format!("{} repetition {reps}: {e}", arm.label));
            }
            if digests[i].is_none() {
                digests[i] = Some(digest);
                processed += report.stats.processed as u64;
                missed += report.stats.missed as u64;
                response_ticks(&report, &mut response);
            }
        }
        reps += 1;
    }

    // Every arm ran `reps` times: throughput over all of them.
    let txns: usize = prepared.iter().map(|p| p.txns.len() * reps).sum();
    let samples = response.len();
    m.push("setup_s", median(&setup), "s");
    m.push("txns_per_s", txns as f64 / run_s, "txn/s");
    m.push("peak_rss_mib", peak_rss_mib(), "MiB");
    m.push(
        "pct_missed",
        100.0 * missed as f64 / processed.max(1) as f64,
        "%",
    );
    m.push("txn_p50_us", percentile(&mut response, 0.50), "us");
    m.push("txn_p99_us", percentile(&mut response, 0.99), "us");
    m.note("setup_reps", setup.len() as f64);
    m.note("run_reps_per_arm", reps as f64);
    m.note("txn_percentile_samples", samples as f64);
}

/// Traced measurement, in two parts.
///
/// First the untraced runs at full size, which give the run-layer
/// timings (`core.run_s`, its memory, ns per kernel event). Then, per
/// arm, a traced run at the arm's trace size: the oracle's
/// serialisability check walks the conflict graph at every commit, so on
/// the contended workloads the traced run is smaller than the timed one.
/// Its stream feeds the oracle, the monitor sinks, the protocol replay
/// and every count; an untraced run of the same input is its baseline
/// for `trace_overhead_pct`.
pub fn measure_traced(arms: &[Arm], opts: &Options, checks: &mut Checks, m: &mut Metrics) {
    let mut l = Layers::default();

    let rss0 = rss_mib();
    let full: Vec<Prepared> = arms.iter().map(|a| prepare(&a.sim, opts.seed)).collect();
    l.generate_rss_mib = (rss_mib() - rss0).max(0.0);
    l.generate_s = full.iter().map(|p| p.generate_s).sum();
    let rss_before_run = rss_mib();
    let mut full_runs = Vec::with_capacity(arms.len());
    for (arm, p) in arms.iter().zip(&full) {
        let (secs, report) = untraced_runs(arm, p, checks);
        l.run_s += secs;
        l.run_events += report.events;
        full_runs.push((secs, outcome_digest(&report)));
    }
    l.run_rss_growth_mib = (peak_rss_mib() - rss_before_run).max(0.0);
    drop(full);

    for (arm, full_run) in arms.iter().zip(full_runs) {
        let sim = arm.traced_sim();
        let p = prepare(&sim, opts.seed);
        let txns = p.txns.len();
        l.txns += txns as u64;
        let (base_secs, untraced_digest) = if sim_txn_count(&sim) == sim_txn_count(&arm.sim) {
            full_run
        } else {
            let (secs, report) = untraced_runs(arm, &p, checks);
            (secs, outcome_digest(&report))
        };
        l.trace_base_s += base_secs;

        let mut sink = VecSink::new();
        let (report, secs) = run(&p, &mut sink);
        l.traced_s += secs;
        checks.attempted += txns as u64;
        let events = sink.into_events();
        if let Err(e) = check_accounting(&report, txns) {
            checks.fail(txns as u64, format!("{} traced: {e}", arm.label));
        }
        if untraced_digest != outcome_digest(&report) {
            checks.fail(
                txns as u64,
                format!("{}: tracing changed the simulated outcome", arm.label),
            );
        }

        let mut oracle = CheckSink::new(rtlock_bench::check::config_for(&sim));
        l.check_s += layers::time_replay(&events, &mut oracle);
        let violations = oracle.finish();
        if !violations.is_empty() {
            checks.fail(
                txns as u64,
                format!(
                    "{}: oracle found {} violations, first: {}",
                    arm.label,
                    violations.len(),
                    violations[0]
                ),
            );
        }

        if let SimSpec::SingleSite(s) = &sim {
            let lockless = |spec: &TxnSpec| {
                spec.write_set.is_empty()
                    && s.mvcc.is_some_and(|m| m.reader_mode != ReaderMode::Locking)
            };
            match replay_single_site(
                s.protocol,
                s.victim_policy,
                s.restart_victims,
                &p.txns,
                lockless,
                &events,
            ) {
                Ok(t) => l.replay.add(&t),
                Err(e) => checks.fail(txns as u64, format!("{}: {e}", arm.label)),
            }
        }

        l.add_stream(&events);
        l.restarts += report.stats.restarts as u64;
        l.events += report.events;
        l.preemptions += report.preemptions;
        l.ceiling_blocks += report.ceiling_blocks;
        l.deadlocks += report.deadlocks;
        if let Some(t) = report.temporal {
            l.snapshot_reads += t.snapshot_reads;
            l.unconstructible += t.unconstructible;
            l.versions_gced += t.versions_gced;
        }
        if let Some(n) = report.net {
            l.sent += n.sent;
            l.delivered += n.delivered;
        }
    }
    m.note("traced_txns", l.txns as f64);
    l.push(m);
}

/// Untraced runs of one arm with their accounting checks; returns the
/// median host seconds of the run call and the last report.
fn untraced_runs(arm: &Arm, p: &Prepared, checks: &mut Checks) -> (f64, RunReport) {
    let mut secs = Vec::with_capacity(UNTRACED_REPS);
    let mut last = None;
    for _ in 0..UNTRACED_REPS {
        let (report, s) = run(p, NullSink);
        secs.push(s);
        checks.attempted += p.txns.len() as u64;
        if let Err(e) = check_accounting(&report, p.txns.len()) {
            checks.fail(p.txns.len() as u64, format!("{}: {e}", arm.label));
        }
        last = Some(report);
    }
    (median(&secs), last.expect("at least one untraced run"))
}
