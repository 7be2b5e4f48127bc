//! Quickstart: run one single-site real-time database simulation under
//! the priority ceiling protocol and print the paper's headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use monitor::CheckSink;
use rtlock::prelude::*;

fn main() {
    // A 200-object database at one site (the paper's §3 setting).
    let catalog = Catalog::new(200, 1, Placement::SingleSite);

    // Heavy load: 400 update transactions of 8 objects each, arriving so
    // that the CPU runs at ~70 % utilisation; deadlines are proportional
    // to transaction size and the earliest deadline gets the highest
    // priority.
    let workload = WorkloadSpec::builder()
        .txn_count(400)
        .mean_interarrival(SimDuration::from_ticks(8_000_000 / 700))
        .size(SizeDistribution::Fixed(8))
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(1_500))
        .build();

    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::PriorityCeiling)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .build();

    // The online oracle watches the run's event stream: conflict
    // serialisability, ceiling properties, lock legality, accounting.
    let mut check = CheckSink::new(config.check_config());
    let report = Simulator::new(config, catalog, &workload).run_with(42, &mut check);

    println!("protocol          : priority ceiling (the paper's `C`)");
    println!("processed         : {}", report.stats.processed);
    println!("committed         : {}", report.stats.committed);
    println!(
        "deadline missed   : {} ({:.1} %)",
        report.stats.missed, report.stats.pct_missed
    );
    println!(
        "throughput        : {:.0} objects/second",
        report.stats.throughput
    );
    println!(
        "mean response     : {:.1} ms",
        report.stats.mean_response_ticks / 1_000.0
    );
    println!(
        "mean blocked      : {:.1} ms",
        report.stats.mean_blocked_ticks / 1_000.0
    );
    println!("ceiling blocks    : {}", report.ceiling_blocks);
    println!(
        "deadlocks         : {} (the ceiling protocol never deadlocks)",
        report.deadlocks
    );

    // The run was conflict serialisable and every committed write landed
    // exactly once — verify both.
    check.assert_clean("quickstart");
    check_store_integrity(&report);
    println!("serialisability   : verified");
}
