//! Protocol replay: re-drives a recorded single-site event stream's lock
//! protocol calls into a fresh protocol instance, timing every call and
//! checking that each one journals exactly what the recorded run did.
//!
//! The single-site simulator calls its protocol at four points, each
//! marked in the stream:
//!
//! * `register` just before it emits `TxnStarted` (lock-free readers
//!   never register);
//! * `request` for each `LockRequested`, which is also the first event
//!   the request journals;
//! * `release_all` right after `TxnCommitted` or `TxnAborted` —
//!   `Restart` for a deadlock victim that restarts, `Finished` otherwise.
//!
//! The simulator forwards the protocol's journal straight into the
//! stream, and nothing else emits the lock-layer kinds, so the
//! concatenated journals of the replay must equal the stream's lock-layer
//! subsequence event for event. A request's grant/block/deadlock outcome
//! and a release's wake-ups are all journalled, so that equality is the
//! differential check on every call's outcome.

use std::time::Instant;

use monitor::{AbortReason, SimEvent, SimEventKind};
use rtdb::{GranuleScratch, ObjectId, TxnId, TxnSpec};
use rtlock::protocols::{make_protocol, ReleaseReason};
use rtlock::{ProtocolKind, VictimPolicy};
use starlite::SimTime;

/// Host time and call counts of one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTimes {
    /// `request` calls replayed.
    pub requests: u64,
    /// Host nanoseconds inside those calls.
    pub request_ns: f64,
    /// `release_all` calls replayed.
    pub releases: u64,
    /// Host nanoseconds inside those calls.
    pub release_ns: f64,
}

impl ReplayTimes {
    /// Adds another replay's totals.
    pub fn add(&mut self, other: &ReplayTimes) {
        self.requests += other.requests;
        self.request_ns += other.request_ns;
        self.releases += other.releases;
        self.release_ns += other.release_ns;
    }
}

/// Whether `kind` is journalled by the lock protocol (and by nothing
/// else in a single-site run).
fn is_protocol_kind(kind: &SimEventKind) -> bool {
    matches!(
        kind,
        SimEventKind::LockRequested { .. }
            | SimEventKind::LockGranted { .. }
            | SimEventKind::LockBlocked { .. }
            | SimEventKind::LockReleased { .. }
            | SimEventKind::LockUpgraded { .. }
            | SimEventKind::CeilingRaised { .. }
            | SimEventKind::CeilingBlocked { .. }
            | SimEventKind::PriorityInherited { .. }
            | SimEventKind::DeadlockDetected { .. }
            | SimEventKind::ProtocolAnomaly { .. }
    )
}

/// Replays the protocol calls of a recorded single-site run.
///
/// `specs` is the generated input, indexed by transaction id (the
/// generator numbers transactions densely from zero); `lockless(spec)`
/// says whether the run served a transaction without the lock protocol.
///
/// Returns the call timings, or a description of the first call whose
/// replayed journal differs from the recorded one.
pub fn replay_single_site(
    kind: ProtocolKind,
    victim_policy: VictimPolicy,
    restart_victims: bool,
    specs: &[TxnSpec],
    lockless: impl Fn(&TxnSpec) -> bool,
    events: &[(SimTime, SimEvent)],
) -> Result<ReplayTimes, String> {
    let recorded: Vec<SimEventKind> = events
        .iter()
        .map(|(_, e)| e.kind)
        .filter(is_protocol_kind)
        .collect();
    let mut protocol = make_protocol(kind, victim_policy);
    protocol.set_tracing(true);
    let mut scratch = GranuleScratch::new();
    let mut granule_spec = TxnSpec::new(
        TxnId(0),
        SimTime::ZERO,
        vec![ObjectId(0)],
        Vec::new(),
        SimTime::from_ticks(1),
        rtdb::SiteId(0),
    );
    let mut lock_seq = Vec::new();
    let mut registered = vec![false; specs.len()];
    let mut journal = Vec::new();
    let mut cursor = 0usize;
    let mut times = ReplayTimes::default();

    let spec_of = |txn: TxnId| -> Result<&TxnSpec, String> {
        specs
            .get(txn.0 as usize)
            .filter(|s| s.id == txn)
            .ok_or_else(|| format!("stream names {txn}, which is not in the input"))
    };

    for (at, event) in events {
        match event.kind {
            SimEventKind::TxnStarted { txn } => {
                let spec = spec_of(txn)?;
                if lockless(spec) {
                    continue;
                }
                scratch.map(spec, 1, &mut granule_spec, &mut lock_seq);
                protocol.register(&granule_spec);
                registered[txn.0 as usize] = true;
            }
            SimEventKind::LockRequested { txn, object, mode } => {
                let t0 = Instant::now();
                let result = protocol.request(txn, object, mode);
                times.request_ns += t0.elapsed().as_nanos() as f64;
                times.requests += 1;
                std::hint::black_box(result);
            }
            SimEventKind::TxnCommitted { txn } | SimEventKind::TxnAborted { txn, .. } => {
                if !registered.get(txn.0 as usize).copied().unwrap_or(false) {
                    continue;
                }
                let restart = restart_victims
                    && matches!(
                        event.kind,
                        SimEventKind::TxnAborted {
                            reason: AbortReason::DeadlockVictim,
                            ..
                        }
                    );
                let reason = if restart {
                    ReleaseReason::Restart
                } else {
                    registered[txn.0 as usize] = false;
                    ReleaseReason::Finished
                };
                let t0 = Instant::now();
                let result = protocol.release_all(txn, reason);
                times.release_ns += t0.elapsed().as_nanos() as f64;
                times.releases += 1;
                std::hint::black_box(result);
            }
            _ => continue,
        }
        protocol.drain_events(&mut journal);
        for replayed in journal.drain(..) {
            match recorded.get(cursor) {
                Some(r) if *r == replayed => cursor += 1,
                other => {
                    return Err(format!(
                        "protocol replay diverged at t={} after {:?}: recorded {:?}, replayed {:?}",
                        at.ticks(),
                        event.kind,
                        other,
                        replayed
                    ))
                }
            }
        }
    }
    if cursor != recorded.len() {
        return Err(format!(
            "protocol replay journalled {} lock-layer events, the run recorded {}",
            cursor,
            recorded.len()
        ));
    }
    Ok(times)
}
