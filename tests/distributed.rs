//! Distributed-architecture integration tests: replication convergence,
//! per-copy serialisability, two-phase-commit atomicity, and the
//! paper's qualitative global-versus-local ordering.

use monitor::CheckSink;
use rtlock::distributed::{
    run_transactions_distributed, CeilingArchitecture, DistributedConfig, DistributedSimulator,
};
use rtlock::prelude::*;

fn catalog() -> Catalog {
    Catalog::new(60, 3, Placement::FullyReplicated)
}

fn config(arch: CeilingArchitecture, delay: u64) -> DistributedConfig {
    DistributedConfig::builder()
        .architecture(arch)
        .comm_delay(SimDuration::from_ticks(delay))
        .cpu_per_object(SimDuration::from_ticks(500))
        .apply_cost(SimDuration::from_ticks(100))
        .build()
}

fn workload(read_only: f64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .txn_count(200)
        .mean_interarrival(SimDuration::from_ticks(1_200))
        .size(SizeDistribution::Uniform { min: 2, max: 5 })
        .read_only_fraction(read_only)
        .write_fraction(0.5)
        .deadline(20.0, SimDuration::from_ticks(500))
        .build()
}

#[test]
fn local_architecture_converges_all_replicas() {
    let cat = catalog();
    for seed in 0..3 {
        let cfg = config(CeilingArchitecture::LocalReplicated, 400);
        let mut check = CheckSink::new(cfg.check_config(cat.site_count()));
        let report =
            DistributedSimulator::new(cfg, cat.clone(), &workload(0.4)).run_with(seed, &mut check);
        check.assert_clean(format!("seed {seed}"));
        // Once propagation drains, every replica of every object holds the
        // primary's version (single-writer ordering guarantees no splits).
        let primary_of = |o: ObjectId| cat.primary_site(o);
        for (id, obj) in report.stores[0].iter() {
            let primary_store = &report.stores[primary_of(id).index()];
            let truth = primary_store.read(id);
            for (s, store) in report.stores.iter().enumerate() {
                let replica = store.read(id);
                assert_eq!(
                    (replica.version, replica.value),
                    (truth.version, truth.value),
                    "seed {seed}: {id} diverged at site {s}"
                );
            }
            let _ = obj;
        }
    }
}

#[test]
fn local_writes_happen_only_at_primaries() {
    let cat = catalog();
    let mut stream = VecSink::new();
    let report = DistributedSimulator::new(
        config(CeilingArchitecture::LocalReplicated, 300),
        cat.clone(),
        &workload(0.0),
    )
    .run_with(9, &mut stream);
    for (_, ev) in stream.events() {
        if let SimEventKind::LockGranted {
            txn,
            object,
            mode: LockMode::Write,
        } = ev.kind
        {
            if !txn.is_system() {
                assert_eq!(
                    cat.primary_site(object),
                    ev.site,
                    "workload write to a non-primary copy"
                );
            }
        }
    }
    assert!(report.stats.committed > 0);
}

#[test]
fn global_architecture_is_serialisable_and_atomic() {
    let cat = catalog();
    for delay in [0u64, 250, 750] {
        let cfg = config(CeilingArchitecture::GlobalManager, delay);
        let mut check = CheckSink::new(cfg.check_config(cat.site_count()));
        let report =
            DistributedSimulator::new(cfg, cat.clone(), &workload(0.5)).run_with(4, &mut check);
        check.assert_clean(format!("delay {delay}"));
        // 2PC atomicity: every object's version at its primary equals
        // the writes the coordinators committed to it.
        check_store_integrity(&report);
        assert!(
            report.stats.processed == 200,
            "delay {delay} lost transactions"
        );
    }
}

#[test]
fn global_misses_more_than_local_and_gap_grows_with_delay() {
    let cat = catalog();
    let w = workload(0.5);
    let mut prev_gap = f64::MIN;
    for delay in [0u64, 500, 1_500] {
        let local = run_seeded(CeilingArchitecture::LocalReplicated, delay, &cat, &w);
        let global = run_seeded(CeilingArchitecture::GlobalManager, delay, &cat, &w);
        assert!(
            global >= local,
            "delay {delay}: global missed {global}% < local {local}%"
        );
        let gap = global - local;
        assert!(
            gap >= prev_gap - 3.0,
            "delay {delay}: miss gap shrank sharply ({prev_gap} -> {gap})"
        );
        prev_gap = gap;
    }
}

fn run_seeded(arch: CeilingArchitecture, delay: u64, cat: &Catalog, w: &WorkloadSpec) -> f64 {
    let mut total = 0.0;
    let seeds = 3;
    for seed in 0..seeds {
        let report = DistributedSimulator::new(config(arch, delay), cat.clone(), w).run(seed);
        total += report.stats.pct_missed;
    }
    total / seeds as f64
}

#[test]
fn read_only_transactions_commit_without_remote_messages_under_local() {
    let cat = catalog();
    let txns = vec![TxnSpec::new(
        TxnId(0),
        SimTime::from_ticks(10),
        vec![ObjectId(4), ObjectId(7)],
        vec![],
        SimTime::from_ticks(100_000),
        SiteId(2),
    )];
    let report = run_transactions_distributed(
        config(CeilingArchitecture::LocalReplicated, 500),
        &cat,
        txns,
    );
    assert_eq!(report.stats.committed, 1);
    assert_eq!(report.remote_messages, 0, "local reads must stay local");
}

#[test]
fn distributed_runs_are_deterministic() {
    let cat = catalog();
    let w = workload(0.5);
    for arch in [
        CeilingArchitecture::LocalReplicated,
        CeilingArchitecture::GlobalManager,
    ] {
        let sim = DistributedSimulator::new(config(arch, 300), cat.clone(), &w);
        let a = sim.run(17);
        let b = sim.run(17);
        assert_eq!(a.stats, b.stats, "{arch:?}");
        assert_eq!(a.stores, b.stores, "{arch:?}");
        assert_eq!(a.remote_messages, b.remote_messages, "{arch:?}");
    }
}
