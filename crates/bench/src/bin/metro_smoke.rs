//! Release-mode smoke test and perf gate for the metro panel; run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin metro_smoke
//! ```
//!
//! Runs **every** solver family — centralized LSS (sparse constraint
//! backend), progressive multilateration, distributed LSS (pooled local
//! solves + Gauss–Newton/CG refinement), MDS-MAP (sparse eigensolver
//! path), DV-hop, centroid — on the metro-250 *and* metro-1000 rungs,
//! then enforces, through the shared [`rl_bench::gate`] harness:
//!
//! 1. `every-cell-solves` — no family errors on either rung,
//! 2. `panel-wall-s` — the whole grid finishes inside [`WALL_BUDGET`] (a
//!    dense `O(n²)`–`O(n³)` regression costs minutes, not seconds); this
//!    is what keeps LSS and MDS-MAP metro-tractable on the sparse backend,
//! 3. `dist-1000-error-m` — distributed LSS at metro-1000 keeps its mean
//!    error at or below [`DIST_ERROR_BUDGET_M`], staying in the
//!    centralized error regime — the stitching-drift regression gate,
//! 4. `dist-1000-wall-ratio` — distributed LSS at metro-1000 finishes
//!    within [`DIST_WALL_FACTOR`] × the centralized sparse-LSS cell — the
//!    gate on its pooled local-solve phase.
//!
//! Every cell's wall time and mean error is also written to the `detail`
//! of `BENCH_metro.json` (machine-readable, uploaded as a CI artifact),
//! so the per-family perf trajectory is recorded on every run rather
//! than observed once in a PR description.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::campaign::{Campaign, CampaignConfig};
use rl_bench::experiments::metro::metro_localizers;
use rl_bench::gate::{cell_records, CellRecord, Gates};
use rl_bench::MASTER_SEED;
use rl_deploy::Scenario;
use serde::Serialize;

/// End-to-end budget for the twelve-cell metro panel: 3× the worst of
/// five runs (7.7 s) on a 2-vCPU container. A dense regression at this
/// size costs minutes.
const WALL_BUDGET: Duration = Duration::from_secs(24);

/// Mean-error ceiling for distributed LSS on the metro-1000 rung. The
/// refined pipeline lands ~0.13 m (the same regime as centralized sparse
/// LSS); before the refinement stage it degraded to ~15 m, so this gate
/// fails loudly if the stitching fix regresses.
const DIST_ERROR_BUDGET_M: f64 = 2.0;

/// Distributed LSS at metro-1000 must finish within this factor of the
/// centralized sparse-LSS cell on the same rung.
const DIST_WALL_FACTOR: f64 = 3.0;

/// The metro-1000 scenario name the budgets key on.
const METRO_1000: &str = "metro-1000-100anchors";

/// The `detail` of `BENCH_metro.json`.
#[derive(Debug, Serialize)]
struct Detail {
    seed: u64,
    workers: usize,
    cells: Vec<CellRecord>,
}

fn main() -> ExitCode {
    let mut gates = Gates::new("metro");
    let campaign = Campaign::new()
        .scenario(Scenario::metro_sized(250, 0.10, MASTER_SEED))
        .scenario(Scenario::metro_sized(1000, 0.10, MASTER_SEED))
        .localizers(metro_localizers())
        .seeds(&[MASTER_SEED]);

    // Serial campaign schedule: the wall gate below compares two cells'
    // wall times, so cells must not contend with each other for cores.
    // Distributed LSS still shards its local-solve phase on its own
    // machine-sized rl_net::pool *inside* its cell — exactly the
    // configuration the 3x budget describes.
    let started = Instant::now();
    let report = campaign.run_with(CampaignConfig::serial());
    let elapsed = started.elapsed();

    println!("{}", report.summary_table());
    println!(
        "six-family metro-250 + metro-1000 panel: {} cells in {elapsed:.1?}",
        report.runs.len(),
    );

    gates.every_cell_solves(&report);
    gates.at_most(
        "panel-wall-s",
        elapsed.as_secs_f64(),
        WALL_BUDGET.as_secs_f64(),
        "s",
        "a dense-path regression has likely crept into a metro cell",
    );

    // Perf gates for the headline pipeline: distributed LSS at the
    // metro-1000 rung must stay in the centralized error regime and
    // within a small factor of the centralized sparse-LSS wall time. A
    // missing evaluation or wall stat is NaN, which fails its gate.
    gates.at_most(
        "dist-1000-error-m",
        report
            .mean_error(METRO_1000, "distributed-lss")
            .unwrap_or(f64::NAN),
        DIST_ERROR_BUDGET_M,
        "m",
        &format!(
            "distributed-lss at {METRO_1000} (NaN: no evaluation) — stitching drift is back; \
             check the refinement stage"
        ),
    );
    let wall_of = |localizer: &str| {
        report
            .wall_stats(METRO_1000, localizer)
            .map(|(mean, _)| mean.as_secs_f64())
    };
    let ratio = match (
        wall_of("distributed-lss"),
        wall_of("lss-anchor-free+constraint"),
    ) {
        (Some(dist), Some(lss)) => dist / lss.max(1e-9),
        _ => f64::NAN,
    };
    gates.at_most(
        "dist-1000-wall-ratio",
        ratio,
        DIST_WALL_FACTOR,
        "x",
        &format!(
            "distributed-lss wall over the sparse-LSS cell at {METRO_1000} (NaN: no wall \
             stats) — the local-solve phase has regressed"
        ),
    );

    gates.finish(Detail {
        seed: MASTER_SEED,
        workers: report.workers,
        cells: cell_records(&report),
    })
}
