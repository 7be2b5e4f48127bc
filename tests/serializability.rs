//! Whole-simulation correctness: every protocol must produce conflict
//! serialisable histories (judged online by the oracle) and
//! value-consistent stores under heavy, conflicting load.

use monitor::CheckSink;
use rtlock::prelude::*;

fn heavy_workload(size: u32, read_only: f64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .txn_count(250)
        .mean_interarrival(SimDuration::from_ticks(size as u64 * 1_400))
        .size(SizeDistribution::Fixed(size))
        .read_only_fraction(read_only)
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(1_500))
        .build()
}

fn config(kind: ProtocolKind, restart: bool) -> SingleSiteConfig {
    SingleSiteConfig::builder()
        .protocol(kind)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .restart_victims(restart)
        .build()
}

#[test]
fn all_protocols_yield_serializable_histories_under_conflict() {
    let catalog = Catalog::new(60, 1, Placement::SingleSite);
    let workload = heavy_workload(12, 0.2);
    for kind in ProtocolKind::all() {
        for restart in [true, false] {
            let sim = Simulator::new(config(kind, restart), catalog.clone(), &workload);
            for seed in 0..3 {
                let mut check = CheckSink::new(config(kind, restart).check_config());
                let report = sim.run_with(seed, &mut check);
                check.assert_clean(format!("{kind} restart={restart} seed={seed}"));
                check_store_integrity(&report);
                assert_eq!(report.stats.processed, 250, "{kind} lost transactions");
            }
        }
    }
}

#[test]
fn runs_are_bit_deterministic() {
    let catalog = Catalog::new(100, 1, Placement::SingleSite);
    let workload = heavy_workload(10, 0.3);
    for kind in ProtocolKind::all() {
        let sim = Simulator::new(config(kind, true), catalog.clone(), &workload);
        let (mut stream_a, mut stream_b) = (VecSink::new(), VecSink::new());
        let a = sim.run_with(99, &mut stream_a);
        let b = sim.run_with(99, &mut stream_b);
        assert_eq!(
            a.stats, b.stats,
            "{kind} stats differ across identical runs"
        );
        assert_eq!(a.deadlocks, b.deadlocks);
        assert_eq!(a.ceiling_blocks, b.ceiling_blocks);
        assert_eq!(a.preemptions, b.preemptions);
        assert_eq!(a.stores, b.stores, "{kind} stores differ");
        assert_eq!(
            stream_a.events(),
            stream_b.events(),
            "{kind} event streams differ"
        );
    }
}

#[test]
fn different_seeds_differ() {
    let catalog = Catalog::new(100, 1, Placement::SingleSite);
    let workload = heavy_workload(10, 0.3);
    let sim = Simulator::new(
        config(ProtocolKind::PriorityCeiling, true),
        catalog,
        &workload,
    );
    let (mut a, mut b) = (VecSink::new(), VecSink::new());
    sim.run_with(1, &mut a);
    sim.run_with(2, &mut b);
    assert_ne!(
        a.events(),
        b.events(),
        "distinct seeds should explore distinct schedules"
    );
}

#[test]
fn read_only_workload_never_blocks_under_rw_ceiling() {
    let catalog = Catalog::new(60, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(150)
        .mean_interarrival(SimDuration::from_ticks(10_000)) // ~0.6 CPU load
        .size(SizeDistribution::Fixed(6))
        .read_only_fraction(1.0)
        .deadline(8.0, SimDuration::from_ticks(1_500))
        .build();
    let report = Simulator::new(
        config(ProtocolKind::PriorityCeiling, true),
        catalog,
        &workload,
    )
    .run(5);
    // No writers anywhere: write ceilings are bottom, so reads always pass.
    assert_eq!(report.ceiling_blocks, 0);
    assert_eq!(report.stats.missed, 0);
}

#[test]
fn aborted_transactions_leave_no_trace_in_store() {
    let catalog = Catalog::new(30, 1, Placement::SingleSite);
    // One transaction that cannot meet its deadline.
    let txns = vec![TxnSpec::new(
        TxnId(0),
        SimTime::ZERO,
        vec![ObjectId(1)],
        vec![ObjectId(2)],
        SimTime::from_ticks(100), // needs 2 × 1500 ticks
        SiteId(0),
    )];
    let report = run_transactions(config(ProtocolKind::PriorityCeiling, true), &catalog, txns);
    assert_eq!(report.stats.missed, 1);
    assert!(report.committed_writes[0].iter().all(|&w| w == 0));
    assert!(report.stores[0].iter().all(|(_, o)| o.version == 0));
}
