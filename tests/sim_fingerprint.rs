//! Whole-run fingerprints of both simulators, pinned in a committed
//! golden file.
//!
//! Every run of a fixed matrix (each protocol, the single-site options,
//! the three reader classes, both distributed architectures with and
//! without versioned reads, and a lossy crash/restart fault plan) is
//! reduced to one line: the event count and a hash of the full JSONL
//! event stream, a hash of the per-transaction monitor records, and the
//! report counters. A reordered emit or a changed blocking record
//! anywhere in the matrix changes the file.
//!
//! Hashes are FNV-1a-64, whose output is fixed by definition (unlike
//! `std`'s `DefaultHasher`). Regenerate the golden after an intentional
//! model change with `RTLOCK_BLESS=1 cargo test --test sim_fingerprint`.

use std::fmt::Write as _;

use netsim::{CrashWindow, FaultPlan, LinkFaults};
use rtdb::SiteId;
use rtlock::distributed::CeilingArchitecture;
use rtlock::{MvccConfig, ProtocolKind, RunReport};
use rtlock_bench::harness::{report_with, DistributedSpec, RunSpec, SimSpec, SingleSiteSpec};
use starlite::{NullSink, SimDuration, SimTime, VecSink};

const GOLDEN_PATH: &str = "tests/golden/sim_fingerprints.txt";

const TXNS: u32 = 150;
const SEEDS: [u64; 2] = [0, 1];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

fn lossy_crash_plan() -> FaultPlan {
    FaultPlan {
        link: LinkFaults {
            loss_ppm: 100_000,
            duplicate_ppm: 50_000,
            jitter_ticks: 3,
            seed: 42,
        },
        crashes: vec![CrashWindow {
            site: SiteId(2),
            down_at: SimTime::from_ticks(40_000),
            up_at: Some(SimTime::from_ticks(120_000)),
        }],
    }
}

/// The fingerprinted configurations, labelled.
fn matrix() -> Vec<(String, SimSpec)> {
    let mut out = Vec::new();
    for kind in ProtocolKind::all() {
        out.push((
            format!("{}/size=8", kind.label()),
            SimSpec::SingleSite(SingleSiteSpec::figure(kind, 8, TXNS)),
        ));
    }
    out.push((
        "2PL/restart-victims".into(),
        SimSpec::SingleSite(SingleSiteSpec {
            restart_victims: true,
            ..SingleSiteSpec::figure(ProtocolKind::TwoPhaseLocking, 8, TXNS)
        }),
    ));
    out.push((
        "PCP/granularity=4".into(),
        SimSpec::SingleSite(SingleSiteSpec {
            lock_granularity: 4,
            ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, TXNS)
        }),
    ));
    out.push((
        "2PL-P/io-parallelism=2".into(),
        SimSpec::SingleSite(SingleSiteSpec {
            io_parallelism: Some(2),
            ..SingleSiteSpec::figure(ProtocolKind::TwoPhaseLockingPriority, 8, TXNS)
        }),
    ));
    for (name, mvcc) in [
        ("locking", MvccConfig::locking(4)),
        ("latch-scan", MvccConfig::latch_scan(4)),
        (
            "snapshot",
            MvccConfig::snapshot(4, SimDuration::from_ticks(20_000)),
        ),
    ] {
        out.push((
            format!("readers/{name}"),
            SimSpec::SingleSite(SingleSiteSpec {
                read_only_fraction: 0.5,
                scan_readers: true,
                db_size: 50,
                mvcc: Some(mvcc),
                ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, TXNS)
            }),
        ));
    }
    let archs = [
        ("global", CeilingArchitecture::GlobalManager),
        ("local", CeilingArchitecture::LocalReplicated),
    ];
    for (name, arch) in archs {
        out.push((
            format!("dist/{name}"),
            SimSpec::Distributed(DistributedSpec::figure(arch, 0.5, 4, TXNS)),
        ));
    }
    for snapshot_readers in [false, true] {
        out.push((
            format!("dist/local/versions=4/snapshot-readers={snapshot_readers}"),
            SimSpec::Distributed(DistributedSpec {
                temporal_versions: Some(4),
                snapshot_readers,
                ..DistributedSpec::figure(CeilingArchitecture::LocalReplicated, 0.5, 4, TXNS)
            }),
        ));
    }
    for (name, arch) in archs {
        out.push((
            format!("dist/{name}/faults"),
            SimSpec::Distributed(DistributedSpec {
                temporal_versions: Some(4),
                snapshot_readers: arch == CeilingArchitecture::LocalReplicated,
                ..DistributedSpec::faulted(arch, 0.5, 4, TXNS, lossy_crash_plan())
            }),
        ));
    }
    out
}

/// Hash of every monitor record, in transaction order.
fn records_hash(report: &RunReport) -> u64 {
    let mut records: Vec<_> = report.monitor.records().collect();
    records.sort_by_key(|r| r.txn);
    let mut h = Fnv::new();
    for r in records {
        h.str(&format!(
            "{} {:?} {:?} {:?} {} {} {:?} {}\n",
            r.txn,
            r.outcome,
            r.start.map(|t| t.ticks()),
            r.finish.map(|t| t.ticks()),
            r.blocked.ticks(),
            r.block_episodes,
            r.lower_priority_blockers,
            r.restarts
        ));
    }
    h.0
}

/// The report's counters, including the temporal measurements.
fn counters(report: &RunReport) -> String {
    let s = &report.stats;
    let mut out = format!(
        "processed={} committed={} missed={} faulted={} in_progress={} restarts={} \
         mean_response={:?} mean_blocked={:?} max_lpb={} makespan={} \
         deadlocks={} ceiling_blocks={} preemptions={} cpu_busy={} remote={} kernel_events={}",
        s.processed,
        s.committed,
        s.missed,
        s.faulted,
        s.in_progress,
        s.restarts,
        s.mean_response_ticks,
        s.mean_blocked_ticks,
        s.max_lower_priority_blockers,
        s.makespan.ticks(),
        report.deadlocks,
        report.ceiling_blocks,
        report.preemptions,
        report.cpu_busy.ticks(),
        report.remote_messages,
        report.events,
    );
    if let Some(net) = report.net {
        write!(out, " net={net:?}").unwrap();
    }
    if let Some(t) = report.temporal {
        write!(out, " temporal={t:?}").unwrap();
    }
    out
}

/// One line per (configuration, seed); also asserts that the untraced
/// run matches the traced one.
fn fingerprints() -> String {
    let mut out = String::new();
    for (label, sim) in matrix() {
        for seed in SEEDS {
            let spec = RunSpec {
                label: label.clone(),
                seed,
                sim: sim.clone(),
            };
            let mut sink = VecSink::new();
            let traced = report_with(&spec, &mut sink);
            let mut stream = Fnv::new();
            stream.str(&monitor::jsonl::to_jsonl(sink.events()));
            let records = records_hash(&traced);
            let untraced = report_with(&spec, NullSink);
            assert_eq!(
                (records, &traced.committed_writes, counters(&traced)),
                (
                    records_hash(&untraced),
                    &untraced.committed_writes,
                    counters(&untraced)
                ),
                "{label} seed {seed}: the untraced run diverged from the traced run"
            );
            writeln!(
                out,
                "{label} seed={seed} events={} stream={:016x} records={records:016x} {}",
                sink.events().len(),
                stream.0,
                counters(&traced)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn simulator_fingerprints_match_golden() {
    let rendered = fingerprints();
    if std::env::var_os("RTLOCK_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "missing tests/golden/sim_fingerprints.txt — run \
         RTLOCK_BLESS=1 cargo test --test sim_fingerprint to create it",
    );
    for (got, want) in rendered.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "run fingerprint diverged from the committed golden; if the \
             change is intentional, re-bless with RTLOCK_BLESS=1"
        );
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "fingerprint matrix size changed"
    );
}
