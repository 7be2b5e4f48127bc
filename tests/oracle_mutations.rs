//! Mutation tests of the online invariant oracle.
//!
//! A zero-violation CI run only means something if the oracle would have
//! caught a broken protocol. These tests prove it: each one records the
//! structured event stream of a real simulation run, corrupts it in one
//! targeted way (a conflicting double grant, a commit over an abort vote,
//! a ceiling decrease, a swallowed release, …), and replays the stream
//! through [`CheckSink`]. The uncorrupted stream must pass; the corrupted
//! one must fire exactly the invariant class the mutation breaks, with
//! the offending event subsequence attached as evidence.

use monitor::{AbortReason, CheckConfig, CheckSink, SimEvent, SimEventKind, Violation};
use rtdb::{LockMode, SiteId, TxnId};
use rtlock::distributed::CeilingArchitecture;
use rtlock::ProtocolKind;
use rtlock_bench::check::config_for;
use rtlock_bench::harness::{execute_with, DistributedSpec, RunSpec, SimSpec, SingleSiteSpec};
use starlite::{EventSink, SimTime, VecSink};

type Stream = Vec<(SimTime, SimEvent)>;

/// Records the event stream of one run together with the oracle
/// configuration the harness would check it under.
fn record(sim: SimSpec, seed: u64) -> (Stream, CheckConfig) {
    let config = config_for(&sim);
    let spec = RunSpec {
        label: "mutation".into(),
        seed,
        sim,
    };
    let mut sink = VecSink::new();
    execute_with(&spec, &mut sink);
    let stream = sink.into_events();
    assert!(!stream.is_empty(), "the run must produce events");
    (stream, config)
}

fn replay(config: CheckConfig, stream: &Stream) -> Vec<Violation> {
    let mut sink = CheckSink::new(config);
    for &(at, ev) in stream {
        sink.emit(at, ev);
    }
    sink.finish()
}

fn assert_fires<'a>(violations: &'a [Violation], invariant: &str) -> &'a Violation {
    violations
        .iter()
        .find(|v| v.invariant == invariant)
        .unwrap_or_else(|| panic!("expected a {invariant:?} violation, got: {violations:#?}"))
}

fn ceiling_spec(seed_size: u32) -> SimSpec {
    SimSpec::SingleSite(SingleSiteSpec::figure(
        ProtocolKind::PriorityCeiling,
        seed_size,
        80,
    ))
}

fn twopl_spec() -> SimSpec {
    SimSpec::SingleSite(SingleSiteSpec::figure(ProtocolKind::TwoPhaseLocking, 8, 80))
}

/// All-update global-manager run, so every commit runs two-phase commit.
fn twopc_spec() -> SimSpec {
    SimSpec::Distributed(DistributedSpec::figure(
        CeilingArchitecture::GlobalManager,
        0.0,
        1,
        80,
    ))
}

#[test]
fn unmutated_streams_pass() {
    for (sim, seed) in [
        (ceiling_spec(8), 0),
        (twopl_spec(), 1),
        (twopc_spec(), 2),
        (
            SimSpec::Distributed(DistributedSpec::figure(
                CeilingArchitecture::LocalReplicated,
                0.5,
                2,
                80,
            )),
            3,
        ),
    ] {
        let (stream, config) = record(sim, seed);
        let violations = replay(config, &stream);
        assert!(violations.is_empty(), "clean run flagged: {violations:#?}");
    }
}

#[test]
fn conflicting_double_grant_fires_lock_compatibility() {
    let (mut stream, config) = record(twopl_spec(), 0);
    let (idx, site, object) = stream
        .iter()
        .enumerate()
        .find_map(|(i, (_, ev))| match ev.kind {
            SimEventKind::LockGranted {
                object,
                mode: LockMode::Write,
                ..
            } => Some((i, ev.site, object)),
            _ => None,
        })
        .expect("an update run grants write locks");
    let at = stream[idx].0;
    let phantom = TxnId(424_242);
    stream.insert(
        idx + 1,
        (
            at,
            SimEvent::new(
                site,
                SimEventKind::LockGranted {
                    txn: phantom,
                    object,
                    mode: LockMode::Write,
                },
            ),
        ),
    );
    let violations = replay(config, &stream);
    let v = assert_fires(&violations, "lock-compatibility");
    assert!(
        v.events
            .iter()
            .filter(|(_, e)| matches!(e.kind, SimEventKind::LockGranted { .. }))
            .count()
            >= 2,
        "the violation must carry both conflicting grants: {v}"
    );
}

#[test]
fn ceiling_decrease_fires_monotonicity() {
    let (mut stream, config) = record(ceiling_spec(8), 0);
    // A raise already at `Priority::MIN` cannot be strictly decreased, so
    // pick one that sits above the floor.
    let (idx, site, object) = stream
        .iter()
        .enumerate()
        .find_map(|(i, (_, ev))| match ev.kind {
            SimEventKind::CeilingRaised {
                object, ceiling, ..
            } if ceiling > starlite::Priority::MIN => Some((i, ev.site, object)),
            _ => None,
        })
        .expect("a ceiling run raises ceilings above the floor");
    let at = stream[idx].0;
    stream.insert(
        idx + 1,
        (
            at,
            SimEvent::new(
                site,
                SimEventKind::CeilingRaised {
                    txn: TxnId(424_242),
                    object,
                    ceiling: starlite::Priority::MIN,
                },
            ),
        ),
    );
    let violations = replay(config, &stream);
    let v = assert_fires(&violations, "ceiling-monotonic");
    assert!(
        v.message.contains(&format!("{object}")),
        "violation should name the demoted object: {v}"
    );
}

#[test]
fn commit_over_an_abort_vote_fires_two_pc() {
    let (mut stream, config) = record(twopc_spec(), 0);
    // A transaction whose 2PC both started and decided commit.
    let (txn, start_idx) = stream
        .iter()
        .enumerate()
        .find_map(|(i, (_, ev))| match ev.kind {
            SimEventKind::TwoPcStarted { txn, .. } => stream[i..]
                .iter()
                .any(|(_, e)| {
                    matches!(e.kind, SimEventKind::TwoPcDecided { txn: t, commit: true } if t == txn)
                })
                .then_some((txn, i)),
            _ => None,
        })
        .expect("an all-update run commits through 2PC");
    let at = stream[start_idx].0;
    // A no vote from a site outside the participant set: the later commit
    // decision is now non-unanimous and over an explicit abort vote.
    stream.insert(
        start_idx + 1,
        (
            at,
            SimEvent::new(SiteId(7), SimEventKind::TwoPcVoted { txn, yes: false }),
        ),
    );
    let violations = replay(config, &stream);
    let v = assert_fires(&violations, "two-pc");
    assert!(
        v.message.contains("decided commit"),
        "expected the commit-vs-votes check to fire: {v}"
    );
}

#[test]
fn swallowed_release_fires_lock_leak() {
    let (mut stream, config) = record(twopl_spec(), 0);
    // Drop the first release of a write lock; the holder then survives to
    // the end of the run.
    let idx = stream
        .iter()
        .position(|(_, ev)| matches!(ev.kind, SimEventKind::LockReleased { .. }))
        .expect("a locking run releases locks");
    let (_, removed) = stream.remove(idx);
    let SimEventKind::LockReleased { txn, object } = removed.kind else {
        unreachable!("matched above");
    };
    let violations = replay(config, &stream);
    let v = assert_fires(&violations, "lock-leak");
    assert!(
        v.message.contains(&format!("{txn}")) && v.message.contains(&format!("{object}")),
        "the leak should name the dropped release's lock: {v}"
    );
}

#[test]
fn flipped_resolution_fires_two_pc() {
    let (mut stream, config) = record(twopc_spec(), 1);
    let entry = stream
        .iter_mut()
        .find(|(_, ev)| matches!(ev.kind, SimEventKind::TwoPcResolved { commit: true, .. }))
        .expect("an all-update run resolves commits at participants");
    let SimEventKind::TwoPcResolved { txn, .. } = entry.1.kind else {
        unreachable!("matched above");
    };
    entry.1.kind = SimEventKind::TwoPcResolved { txn, commit: false };
    let violations = replay(config, &stream);
    let v = assert_fires(&violations, "two-pc");
    assert!(
        v.message.contains("against the decision"),
        "expected the resolution check to fire: {v}"
    );
}

#[test]
fn stale_version_install_fires_replica_version() {
    let (mut stream, config) = record(
        SimSpec::Distributed(DistributedSpec::figure(
            CeilingArchitecture::LocalReplicated,
            0.0,
            1,
            80,
        )),
        0,
    );
    let (idx, site, object, version, writer) = stream
        .iter()
        .enumerate()
        .find_map(|(i, (_, ev))| match ev.kind {
            SimEventKind::VersionInstalled {
                object,
                version,
                writer,
            } => Some((i, ev.site, object, version, writer)),
            _ => None,
        })
        .expect("a replicated update run installs versions");
    let at = stream[idx].0;
    // Re-install the same version at the same copy: not strictly newer.
    stream.insert(
        idx + 1,
        (
            at,
            SimEvent::new(
                site,
                SimEventKind::VersionInstalled {
                    object,
                    version,
                    writer,
                },
            ),
        ),
    );
    let violations = replay(config, &stream);
    assert_fires(&violations, "replica-version");
}

#[test]
fn decided_late_commit_in_a_cycle_fires_serializability() {
    let (mut stream, config) = record(twopc_spec(), 0);
    let committed = |txn: TxnId, stream: &Stream| {
        stream
            .iter()
            .position(|(_, e)| e.kind == SimEventKind::TxnCommitted { txn })
    };
    // A grant to T2 of an object T1 wrote before it (edge T1 -> T2), both
    // committed through two-phase commit.
    let mut last_writer = std::collections::HashMap::new();
    let (t1, t2, site, object) = stream
        .iter()
        .find_map(|(_, ev)| match ev.kind {
            SimEventKind::LockGranted { txn, object, mode } => {
                let prev = match mode {
                    LockMode::Write => last_writer.insert((ev.site, object), txn),
                    LockMode::Read => last_writer.get(&(ev.site, object)).copied(),
                };
                prev.filter(|&t1| {
                    t1 != txn
                        && committed(t1, &stream).is_some()
                        && committed(txn, &stream).is_some()
                })
                .map(|t1| (t1, txn, ev.site, object))
            }
            _ => None,
        })
        .expect("an all-update global run orders two committed writers");
    // T1's deadline passes after its commit decision: its writes stand.
    let idx = committed(t1, &stream).expect("found above");
    stream[idx].1.kind = SimEventKind::TxnAborted {
        txn: t1,
        reason: AbortReason::DeadlineMissed,
    };
    let decided_late = replay(config, &stream);
    assert!(
        decided_late.is_empty(),
        "a decided-late commit alone is legal: {decided_late:#?}"
    );
    // T2 also wrote the object before T1 touched it: T2 -> T1 closes a
    // cycle through the decided-late commit.
    let at = stream[0].0;
    stream.splice(
        0..0,
        [
            (
                at,
                SimEvent::new(
                    site,
                    SimEventKind::LockGranted {
                        txn: t2,
                        object,
                        mode: LockMode::Write,
                    },
                ),
            ),
            (
                at,
                SimEvent::new(site, SimEventKind::LockReleased { txn: t2, object }),
            ),
        ],
    );
    let violations = replay(config, &stream);
    assert_fires(&violations, "conflict-serializability");
    assert!(
        violations
            .iter()
            .all(|v| v.invariant == "conflict-serializability"),
        "{violations:#?}"
    );
}
