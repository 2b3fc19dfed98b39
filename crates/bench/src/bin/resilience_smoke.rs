//! Release-mode resilience gate for the degradation ladder; run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin resilience_smoke
//! ```
//!
//! Runs the full degradation ladder — every solver family across the
//! error-regime rungs (ideal → clean → NLOS → multipath → clock drift →
//! contamination → hostile) at town and metro-250 scale — and enforces,
//! through the shared [`rl_bench::gate`] harness:
//!
//! 1. `ladder-bit-identical` — the ladder is **bit-identical across
//!    worker counts**: the pooled and serial campaign reports must share
//!    a fingerprint,
//! 2. `every-cell-solves` — no family errors on any rung,
//! 3. `ladder-wall-s` — the whole ladder finishes inside [`WALL_BUDGET`],
//! 4. `cauchy-town-error-m` — on the contaminated rung (10% of nodes
//!    compromised), centralized LSS with the Cauchy loss keeps its town
//!    mean error at or below [`ROBUST_ERROR_BUDGET_M`] — the paper's
//!    resilience claim as a regression gate,
//! 5. `squared-town-collapses` — the same solve with the squared loss
//!    **collapses**: its error must exceed the robust budget (or the
//!    solve fail), or the contamination rung has silently gone soft and
//!    the A/B proves nothing.
//!
//! Every cell's wall time and mean error, plus the robust-loss A/B, is
//! written to the `detail` of `BENCH_degradation.json` (uploaded as a CI
//! artifact next to `BENCH_metro.json`).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::campaign::{Campaign, CampaignConfig};
use rl_bench::experiments::degradation::{contaminated_channel, degraded, regimes};
use rl_bench::experiments::metro::metro_localizers;
use rl_bench::gate::{cell_records, CellRecord, Gates};
use rl_bench::MASTER_SEED;
use rl_core::lss::{LssConfig, LssSolver};
use rl_core::problem::Localizer;
use rl_core::RobustLoss;
use rl_deploy::Scenario;
use serde::Serialize;

/// End-to-end budget for the ladder (both scales, both schedules): 3×
/// the worst of five runs (13.7 s) on a 2-vCPU container.
const WALL_BUDGET: Duration = Duration::from_secs(42);

/// Mean-error ceiling for Cauchy-loss centralized LSS on the town's
/// contaminated rung (10% of nodes compromised, `U(0, 60 m)` garbage).
const ROBUST_ERROR_BUDGET_M: f64 = 2.0;

/// The robust-loss A/B on the contaminated town rung.
#[derive(Debug, Serialize)]
struct RobustAb {
    scenario: String,
    squared_l2_error_m: Option<f64>,
    cauchy_error_m: Option<f64>,
}

/// The `detail` of `BENCH_degradation.json`.
#[derive(Debug, Serialize)]
struct Detail {
    seed: u64,
    workers: usize,
    fingerprint: u64,
    robust_ab: RobustAb,
    cells: Vec<CellRecord>,
}

/// Centralized LSS on `problem` with the given loss, evaluated against
/// ground truth.
fn lss_error(problem: &rl_core::problem::Problem, loss: RobustLoss) -> Option<f64> {
    let solver = LssSolver::new(LssConfig::metro().with_robust_loss(loss));
    let mut rng = rl_math::rng::seeded(MASTER_SEED);
    let solution = solver.localize(problem, &mut rng).ok()?;
    problem.evaluate(&solution).ok().map(|e| e.mean_error)
}

fn main() -> ExitCode {
    let mut gates = Gates::new("degradation");
    let bases = [
        Scenario::town(MASTER_SEED),
        Scenario::metro_sized(250, 0.10, MASTER_SEED),
    ];
    let mut campaign = Campaign::new()
        .localizers(metro_localizers())
        .seeds(&[MASTER_SEED]);
    for base in &bases {
        for (rung, channel) in regimes() {
            campaign = campaign.scenario(degraded(base, rung, &channel));
        }
    }

    let started = Instant::now();
    let parallel = campaign.run();
    let serial = campaign.run_with(CampaignConfig::serial());
    let elapsed = started.elapsed();

    println!("{}", parallel.summary_table());
    println!(
        "degradation ladder: {} cells x 2 schedules in {elapsed:.1?}",
        parallel.runs.len(),
    );

    gates.holds(
        "ladder-bit-identical",
        parallel.fingerprint() == serial.fingerprint(),
        &format!(
            "DETERMINISM BROKEN: pooled ladder fingerprint {:#018x} != serial {:#018x} — the \
             degradation ladder must be bit-identical for any worker count",
            parallel.fingerprint(),
            serial.fingerprint()
        ),
    );
    gates.every_cell_solves(&parallel);
    gates.at_most(
        "ladder-wall-s",
        elapsed.as_secs_f64(),
        WALL_BUDGET.as_secs_f64(),
        "s",
        "the ladder (both scales, both schedules) has slowed down",
    );

    // The headline gate: robust-loss LSS survives the contamination that
    // collapses the squared loss, on the paper's own town geometry.
    let town_contaminated = degraded(&bases[0], "contaminated-10", &contaminated_channel());
    let problem = town_contaminated.instantiate(MASTER_SEED);
    let squared = lss_error(&problem, RobustLoss::SquaredL2);
    let cauchy = lss_error(&problem, RobustLoss::Cauchy { scale_m: 1.0 });
    gates.at_most(
        "cauchy-town-error-m",
        cauchy.unwrap_or(f64::NAN),
        ROBUST_ERROR_BUDGET_M,
        "m",
        &format!(
            "cauchy-loss LSS on {} (NaN: no evaluation) — the resilience claim has regressed",
            town_contaminated.name
        ),
    );
    // A structured error under contamination is a legitimate form of
    // collapse; the robust gate above is the one that must pass.
    println!(
        "squared-loss LSS on {}: {squared:?} m",
        town_contaminated.name
    );
    gates.holds(
        "squared-town-collapses",
        squared.is_none_or(|err| err > ROBUST_ERROR_BUDGET_M),
        &format!(
            "CONTAMINATION RUNG TOO SOFT: squared-loss LSS survives at {squared:?} m <= \
             {ROBUST_ERROR_BUDGET_M} m — the A/B no longer demonstrates a collapse"
        ),
    );

    gates.finish(Detail {
        seed: MASTER_SEED,
        workers: parallel.workers,
        fingerprint: parallel.fingerprint(),
        robust_ab: RobustAb {
            scenario: town_contaminated.name.clone(),
            squared_l2_error_m: squared,
            cauchy_error_m: cauchy,
        },
        cells: cell_records(&parallel),
    })
}
