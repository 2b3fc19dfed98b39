//! Criterion bench for the sharded campaign runner: one multi-cell grid
//! timed at several worker-pool sizes.
//!
//! On multi-core hardware the `workers2`/`workers4` lines should beat
//! `workers1` roughly linearly until the pool exceeds the core count (or
//! the unit count); on a single core they document the scheduling
//! overhead instead. Every configuration produces the bit-identical
//! report — the determinism contract is asserted once up front.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rl_bench::campaign::{Campaign, CampaignConfig};
use rl_core::baselines::CentroidLocalizer;
use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
use rl_deploy::Scenario;

/// A grid with enough independent cells (2 scenarios × 2 localizers × 3
/// seeds = 12) to keep a small pool busy, but cheap enough per cell that
/// scheduling overhead stays visible.
fn town_and_metro_grid() -> Campaign {
    Campaign::new()
        .scenario(Scenario::town(2005))
        .scenario(Scenario::metro_sized(250, 0.10, 2005))
        .localizer(Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        )))
        .localizer(Box::new(CentroidLocalizer::new(22.0)))
        .trials(2005, 3)
}

fn bench_worker_scaling(c: &mut Criterion) {
    let campaign = town_and_metro_grid();
    let reference = campaign.run_with(CampaignConfig::serial()).fingerprint();
    for workers in [1usize, 2, 4] {
        let config = CampaignConfig::default().with_workers(workers);
        assert_eq!(
            campaign.run_with(config).fingerprint(),
            reference,
            "workers={workers} must reproduce the serial report"
        );
        c.bench_function(&format!("campaign/town+metro250_workers{workers}"), |b| {
            b.iter(|| black_box(campaign.run_with(config)))
        });
    }
}

criterion_group!(benches, bench_worker_scaling);
criterion_main!(benches);
