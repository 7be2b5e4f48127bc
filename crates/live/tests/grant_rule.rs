//! The live table grants exactly as the simulator's lock table does.
//!
//! Both store `rtdb::LockEntry` per object, so every grant, queue and
//! blocker decision should match. Two regression tests pin cases where
//! an earlier live-only copy of the rule diverged; the differential test
//! drives `LockTable` and `LiveTable` through the same seeded scripts,
//! step by step, and compares their lock events.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use monitor::SimEventKind;
use rtdb::{LockMode, LockTable, ObjectId, QueuePolicy, TxnId};
use rtlock_live::table::{Acquire, LiveTable};
use rtlock_live::{Recorder, ThreadLog};
use starlite::Priority;

mod common;
use common::Rng;

/// How long a step may take before the test declares a live hang.
const STEP_LIMIT: Duration = Duration::from_secs(10);

fn acquire(
    table: &LiveTable,
    rec: &Recorder,
    txn: TxnId,
    object: ObjectId,
    mode: LockMode,
    patience: Duration,
) -> (Acquire, u64) {
    let mut log = ThreadLog::new();
    let mut blocked = 0;
    let outcome = table.acquire(
        rec,
        &mut log,
        txn,
        object,
        mode,
        Instant::now() + patience,
        &mut blocked,
    );
    (outcome, blocked)
}

/// Waits until `txn` is parked on `object`.
fn wait_parked(table: &LiveTable, txn: TxnId, object: ObjectId) {
    let limit = Instant::now() + STEP_LIMIT;
    while table.waiting_for(txn) != Some(object) {
        assert!(Instant::now() < limit, "{txn} never parked on {object}");
        std::thread::yield_now();
    }
}

#[test]
fn upgrade_behind_a_more_urgent_queued_writer_is_not_a_deadlock() {
    // T1 and T2 read O; the urgent writer T3 queues; T1 queues an
    // upgrade. The upgrade waits on its co-holder T2 only, so there is no
    // cycle, and T2's release grants it ahead of T3.
    let table = LiveTable::new(QueuePolicy::Priority, false);
    let rec = Recorder::new();
    let (t1, t2, t3, o) = (TxnId(1), TxnId(2), TxnId(3), ObjectId(0));
    for (t, level) in [(t1, 1), (t2, 2), (t3, 9)] {
        table.register(t, Priority::new(level));
    }
    let patience = Duration::from_secs(5);
    let mut log = ThreadLog::new();
    for t in [t1, t2] {
        assert_eq!(
            acquire(&table, &rec, t, o, LockMode::Read, patience).0,
            Acquire::Granted
        );
    }
    std::thread::scope(|s| {
        let writer = s.spawn(|| acquire(&table, &rec, t3, o, LockMode::Write, patience));
        wait_parked(&table, t3, o);
        let upgrader = s.spawn(|| acquire(&table, &rec, t1, o, LockMode::Write, patience));
        wait_parked(&table, t1, o);
        table.release_all(&rec, &mut log, t2, &[(o, LockMode::Read)]);
        assert_eq!(upgrader.join().unwrap().0, Acquire::Granted);
        assert_eq!(table.deadlocks(), 0);
        table.release_all(&rec, &mut log, t1, &[(o, LockMode::Write)]);
        assert_eq!(writer.join().unwrap().0, Acquire::Granted);
        table.release_all(&rec, &mut log, t3, &[(o, LockMode::Write)]);
    });
    assert!(table.idle());
}

#[test]
fn urgent_compatible_reader_bypasses_a_less_urgent_queued_writer() {
    // T1 (level 5) reads O; T2 (level 1) queues for write; T3 (level 9)
    // reads O. Under priority mode T3 is served before T2 and shares with
    // T1, so it is granted at once instead of parking to its deadline.
    let table = LiveTable::new(QueuePolicy::Priority, false);
    let rec = Recorder::new();
    let (t1, t2, t3, o) = (TxnId(1), TxnId(2), TxnId(3), ObjectId(0));
    for (t, level) in [(t1, 5), (t2, 1), (t3, 9)] {
        table.register(t, Priority::new(level));
    }
    let mut log = ThreadLog::new();
    let long = Duration::from_secs(5);
    assert_eq!(
        acquire(&table, &rec, t1, o, LockMode::Read, long).0,
        Acquire::Granted
    );
    std::thread::scope(|s| {
        let writer = s.spawn(|| acquire(&table, &rec, t2, o, LockMode::Write, long));
        wait_parked(&table, t2, o);
        let reader = acquire(
            &table,
            &rec,
            t3,
            o,
            LockMode::Read,
            Duration::from_millis(300),
        );
        assert_eq!(reader, (Acquire::Granted, 0));
        table.release_all(&rec, &mut log, t1, &[(o, LockMode::Read)]);
        table.release_all(&rec, &mut log, t3, &[(o, LockMode::Read)]);
        assert_eq!(writer.join().unwrap().0, Acquire::Granted);
        table.release_all(&rec, &mut log, t2, &[(o, LockMode::Write)]);
    });
    assert!(table.idle());
}

/// One transaction of a script: its priority level and its requests in
/// order; it releases everything after the last one.
struct Plan {
    txn: TxnId,
    level: i64,
    requests: Vec<(ObjectId, LockMode)>,
}

/// Seeded plans that cannot deadlock: every transaction requests objects
/// in ascending id order, and an upgrade (read then write of one object)
/// comes right after its read, by at most one transaction per object.
fn plans(rng: &mut Rng, txns: u64, objects: u32) -> Vec<Plan> {
    let mut upgraded = vec![false; objects as usize];
    (1..=txns)
        .map(|id| {
            let mut requests = Vec::new();
            for o in 0..objects {
                if !rng.next().is_multiple_of(3) {
                    continue;
                }
                let object = ObjectId(o);
                if rng.next().is_multiple_of(2) {
                    requests.push((object, LockMode::Write));
                    continue;
                }
                requests.push((object, LockMode::Read));
                if !upgraded[o as usize] && rng.next().is_multiple_of(3) {
                    upgraded[o as usize] = true;
                    requests.push((object, LockMode::Write));
                }
            }
            if requests.is_empty() {
                requests.push((ObjectId((id % objects as u64) as u32), LockMode::Write));
            }
            Plan {
                txn: TxnId(id),
                level: (rng.next() % 4) as i64,
                requests,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Cmd {
    Acquire(ObjectId, LockMode),
    Release,
}

/// One script step with the simulator's account of it.
struct Step {
    txn: TxnId,
    cmd: Cmd,
    /// The lock events `LockTable` journalled for this step.
    events: Vec<SimEventKind>,
    /// A request that queued.
    parks: bool,
    /// Transactions a release granted.
    wakes: Vec<TxnId>,
}

/// Interleaves `plans` at random, running each step through a
/// `LockTable` (the reference) and recording what it did. Only
/// transactions not waiting for a lock are scheduled.
fn script(rng: &mut Rng, policy: QueuePolicy, plans: &[Plan]) -> Vec<Step> {
    let mut table = LockTable::new(policy);
    table.set_tracing(true);
    let mut next = vec![0; plans.len()];
    let mut steps = Vec::new();
    loop {
        let ready: Vec<usize> = (0..plans.len())
            .filter(|&i| next[i] <= plans[i].requests.len())
            .filter(|&i| table.waiting_for(plans[i].txn).is_none())
            .collect();
        if ready.is_empty() {
            assert!(table.waiters().is_empty(), "script deadlocked");
            return steps;
        }
        let i = ready[(rng.next() % ready.len() as u64) as usize];
        let plan = &plans[i];
        let mut step = Step {
            txn: plan.txn,
            cmd: Cmd::Release,
            events: Vec::new(),
            parks: false,
            wakes: Vec::new(),
        };
        if let Some(&(object, mode)) = plan.requests.get(next[i]) {
            step.cmd = Cmd::Acquire(object, mode);
            let outcome = table.request(plan.txn, object, mode, Priority::new(plan.level));
            step.parks = outcome != rtdb::LockOutcome::Granted;
        } else {
            step.wakes = table.release_all(plan.txn).iter().map(|g| g.txn).collect();
        }
        next[i] += 1;
        let mut journal = Vec::new();
        table.drain_journal(&mut journal);
        step.events = journal.into_iter().map(SimEventKind::from).collect();
        steps.push(step);
    }
}

fn is_lock_event(kind: &SimEventKind) -> bool {
    matches!(
        kind,
        SimEventKind::LockRequested { .. }
            | SimEventKind::LockGranted { .. }
            | SimEventKind::LockBlocked { .. }
            | SimEventKind::LockUpgraded { .. }
            | SimEventKind::LockReleased { .. }
    )
}

/// Runs `steps` on a `LiveTable`, one worker thread per transaction, and
/// returns the merged lock events. Each step completes — its request
/// granted or parked, its release and the grants it hands out done —
/// before the next starts, so the merged stream is the steps in order.
fn run_live(policy: QueuePolicy, plans: &[Plan], steps: &[Step]) -> Vec<SimEventKind> {
    let table = LiveTable::new(policy, false);
    let rec = Recorder::new();
    for p in plans {
        table.register(p.txn, Priority::new(p.level));
    }
    let (done_tx, done_rx) = mpsc::channel::<(TxnId, Option<Acquire>)>();
    let logs = std::thread::scope(|s| {
        let mut cmd_tx = Vec::new();
        let mut workers = Vec::new();
        for p in plans {
            let (tx, rx) = mpsc::channel::<Cmd>();
            cmd_tx.push(tx);
            let (table, rec, done_tx, txn) = (&table, &rec, done_tx.clone(), p.txn);
            workers.push(s.spawn(move || {
                let mut log = ThreadLog::new();
                let mut held: Vec<(ObjectId, LockMode)> = Vec::new();
                for cmd in rx {
                    match cmd {
                        Cmd::Acquire(object, mode) => {
                            let mut blocked = 0;
                            let outcome = table.acquire(
                                rec,
                                &mut log,
                                txn,
                                object,
                                mode,
                                Instant::now() + STEP_LIMIT,
                                &mut blocked,
                            );
                            match held.iter_mut().find(|(o, _)| *o == object) {
                                Some(h) => h.1 = LockMode::Write,
                                None => held.push((object, mode)),
                            }
                            done_tx.send((txn, Some(outcome))).unwrap();
                        }
                        Cmd::Release => {
                            table.release_all(rec, &mut log, txn, &held);
                            done_tx.send((txn, None)).unwrap();
                        }
                    }
                }
                log
            }));
        }
        for (n, step) in steps.iter().enumerate() {
            let worker = (step.txn.0 - 1) as usize;
            cmd_tx[worker].send(step.cmd).unwrap();
            let limit = Instant::now() + STEP_LIMIT;
            match step.cmd {
                Cmd::Acquire(object, _) => loop {
                    assert!(Instant::now() < limit, "step {n}: {} hung", step.txn);
                    match done_rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(reply) => {
                            assert_eq!(reply, (step.txn, Some(Acquire::Granted)), "step {n}");
                            assert!(!step.parks, "step {n}: live granted, simulator queued");
                            break;
                        }
                        Err(_) if table.waiting_for(step.txn) == Some(object) => {
                            assert!(step.parks, "step {n}: live queued, simulator granted");
                            break;
                        }
                        Err(_) => {}
                    }
                },
                Cmd::Release => {
                    let mut expect: Vec<_> = step
                        .wakes
                        .iter()
                        .map(|&t| (t, Some(Acquire::Granted)))
                        .collect();
                    expect.push((step.txn, None));
                    while !expect.is_empty() {
                        let reply = done_rx
                            .recv_timeout(limit.saturating_duration_since(Instant::now()))
                            .unwrap_or_else(|_| panic!("step {n}: missing replies {expect:?}"));
                        let at = expect.iter().position(|e| *e == reply);
                        let at = at.unwrap_or_else(|| panic!("step {n}: unexpected {reply:?}"));
                        expect.swap_remove(at);
                    }
                }
            }
        }
        drop(cmd_tx);
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert!(table.idle(), "live table not idle after the script");
    assert_eq!(table.deadlocks(), 0);
    Recorder::merge(logs)
        .into_iter()
        .map(|(_, e)| e.kind)
        .filter(is_lock_event)
        .collect()
}

#[test]
fn live_table_matches_lock_table_step_by_step() {
    for policy in [QueuePolicy::Fifo, QueuePolicy::Priority] {
        for seed in 0..30 {
            let mut rng = Rng(0x5EED_0000 + seed);
            let plans = plans(&mut rng, 6, 5);
            let steps = script(&mut rng, policy, &plans);
            let live = run_live(policy, &plans, &steps);
            let mut rest = live.as_slice();
            for (n, step) in steps.iter().enumerate() {
                assert!(
                    rest.len() >= step.events.len(),
                    "{policy:?} seed {seed} step {n}: live stream ended early"
                );
                let (got, tail) = rest.split_at(step.events.len());
                rest = tail;
                let (mut got, mut want) = (got.to_vec(), step.events.clone());
                if matches!(step.cmd, Cmd::Release) {
                    // A live release frees its objects one at a time, the
                    // simulator all at once: same events, other order.
                    got.sort_by_key(|e| format!("{e:?}"));
                    want.sort_by_key(|e| format!("{e:?}"));
                }
                assert_eq!(
                    got, want,
                    "{policy:?} seed {seed} step {n} ({:?})",
                    step.cmd
                );
            }
            assert!(
                rest.is_empty(),
                "{policy:?} seed {seed}: extra live events {rest:?}"
            );
        }
    }
}
