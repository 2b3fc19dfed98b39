//! Release-mode smoke test and perf gate for the sparse kernel layer;
//! run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin sparse_smoke
//! ```
//!
//! Exercises the warm-started / batched kernels end to end on the metro
//! ladder and enforces, through the shared [`rl_bench::gate`] harness:
//!
//! 1. **Warm-start gates** (`warm-start-never-worse`,
//!    `warm-start-same-stress`) — warm-started refinement
//!    ([`RefineConfig::cg_warm_start`]) at metro-1000 must spend no more
//!    cumulative CG iterations than the default zero-started path and
//!    land at the same refined stress (the never-worse contract).
//! 2. **metro-2500 wall gates** (`mds-2500-wall-ms`,
//!    `refine-2500-wall-ms`) — the 2,500-node preset rung must finish
//!    sparse MDS-MAP and drifted refinement inside their wall budgets (a
//!    dense or quadratic regression costs minutes here).
//! 3. **Stats plumbing** (`solvestats-cg-iterations`) — a distributed-LSS
//!    solve with the served [`DistributedConfig::metro`] preset must
//!    report `SolveStats::cg_iterations` (the concrete consumer of the
//!    promoted counter).
//!
//! Every gate, plus the ungated metro-1000 MDS-MAP wall, is written to
//! `BENCH_sparse.json` (machine-readable, uploaded as a CI artifact), so
//! the kernel-layer perf trajectory is recorded on every run.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::gate::Gates;
use rl_bench::MASTER_SEED;
use rl_core::distributed::refine::{refine_aligned, RefineConfig};
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::mds::mdsmap_coordinates_with;
use rl_core::problem::{Localizer, SolverBackend};
use rl_core::types::PositionMap;
use rl_deploy::presets;
use rl_geom::Point2;
use rl_net::NodeId;
use serde::Serialize;

/// Wall budget for sparse MDS-MAP on the metro-2500 rung: 3× the worst
/// of five runs (3.9 s) on a 2-vCPU container.
const MDS_2500_WALL_BUDGET: Duration = Duration::from_secs(12);

/// Wall budget for drifted Gauss–Newton refinement on the metro-2500
/// rung: 3× the worst of five runs (111 ms) on a 2-vCPU container.
const REFINE_2500_WALL_BUDGET: Duration = Duration::from_millis(340);

/// The `detail` of `BENCH_sparse.json`.
#[derive(Debug, Serialize)]
struct Detail {
    seed: u64,
    mds_1000_wall_ms: f64,
}

/// Deterministic smooth warp of the true positions: the refinement
/// starting point. Quadratic in `x` so the displacement field is
/// spatially correlated (rigid-ish near the origin, drifting with
/// distance) — the shape of real stitching drift.
fn drifted(truth: &[Point2], scale: f64) -> PositionMap {
    let span = truth.iter().map(|p| p.x.abs()).fold(1.0, f64::max);
    let mut positions = PositionMap::unlocalized(truth.len());
    for (i, p) in truth.iter().enumerate() {
        let t = p.x / span;
        positions.set(
            NodeId(i),
            Point2::new(p.x + scale * t * t, p.y + 0.5 * scale * t * t),
        );
    }
    positions
}

fn main() -> ExitCode {
    let mut gates = Gates::new("sparse");

    let problem_1000 = presets::preset("metro-1000")
        .expect("metro-1000 is a preset")
        .instantiate(MASTER_SEED);
    let truth_1000 = problem_1000.truth_required().expect("metro has truth");
    let set_1000 = problem_1000.measurements();

    // Gate 1: warm-started refinement never spends more CG iterations
    // than the default path and lands at the same refined stress.
    let run_refine = |config: &RefineConfig| {
        let mut positions = drifted(truth_1000, 12.0);
        refine_aligned(set_1000, &mut positions, config).expect("metro refines")
    };
    let plain_refine = run_refine(&RefineConfig {
        max_iterations: 30,
        ..RefineConfig::default()
    });
    let warm_refine = run_refine(&RefineConfig {
        max_iterations: 30,
        cg_warm_start: true,
        ..RefineConfig::default()
    });
    println!(
        "metro-1000 refinement: default {} CG iters (stress {:.4e}), warm-started {} CG iters \
         (stress {:.4e})",
        plain_refine.cg_iterations,
        plain_refine.final_stress,
        warm_refine.cg_iterations,
        warm_refine.final_stress,
    );
    gates.at_most(
        "warm-start-never-worse",
        warm_refine.cg_iterations as f64,
        plain_refine.cg_iterations as f64,
        "count",
        "warm-started refinement spent more CG iterations than zero-started — the \
         never-worse contract is broken",
    );
    let stress_rel = (warm_refine.final_stress - plain_refine.final_stress).abs()
        / plain_refine.final_stress.max(f64::MIN_POSITIVE);
    gates.at_most(
        "warm-start-same-stress",
        stress_rel,
        1e-2,
        "ratio",
        &format!(
            "warm-started stress {:.6e} vs default {:.6e} — the seed changed the answer, not \
             just the work",
            warm_refine.final_stress, plain_refine.final_stress
        ),
    );

    // Trajectory record: sparse MDS-MAP at metro-1000 (not gated — the
    // metro_smoke panel owns that rung's budget).
    let t = Instant::now();
    mdsmap_coordinates_with(set_1000, SolverBackend::Sparse).expect("metro-1000 MDS solves");
    let mds_1000_wall = t.elapsed();
    println!("metro-1000 sparse MDS-MAP: {mds_1000_wall:.1?}");

    // Gate 2: the metro-2500 rung. Multi-source Dijkstra + blocked
    // eigensolver keep sparse MDS-MAP in seconds; drifted refinement
    // exercises the matvec path at 2,500 nodes.
    let problem_2500 = presets::preset("metro-2500")
        .expect("metro-2500 is a preset")
        .instantiate(MASTER_SEED);
    let truth_2500 = problem_2500.truth_required().expect("metro has truth");
    let set_2500 = problem_2500.measurements();
    let t = Instant::now();
    mdsmap_coordinates_with(set_2500, SolverBackend::Sparse).expect("metro-2500 MDS solves");
    let mds_2500_wall = t.elapsed();
    gates.at_most(
        "mds-2500-wall-ms",
        mds_2500_wall.as_secs_f64() * 1e3,
        MDS_2500_WALL_BUDGET.as_secs_f64() * 1e3,
        "ms",
        "a dense or per-source-allocating path has crept into MDS-MAP",
    );
    let mut positions_2500 = drifted(truth_2500, 12.0);
    let t = Instant::now();
    let refine_2500 = refine_aligned(
        set_2500,
        &mut positions_2500,
        &RefineConfig {
            max_iterations: 30,
            cg_warm_start: true,
            ..RefineConfig::default()
        },
    )
    .expect("metro-2500 refines");
    let refine_2500_wall = t.elapsed();
    println!(
        "metro-2500 refinement: {} GN / {} CG iters in {refine_2500_wall:.1?}",
        refine_2500.iterations, refine_2500.cg_iterations
    );
    gates.at_most(
        "refine-2500-wall-ms",
        refine_2500_wall.as_secs_f64() * 1e3,
        REFINE_2500_WALL_BUDGET.as_secs_f64() * 1e3,
        "ms",
        "the Gauss–Newton/CG path has regressed",
    );

    // Gate 3: the promoted CG counter reaches SolveStats through the
    // served preset (metro-250 keeps this cell cheap).
    let problem_250 = presets::preset("metro-250")
        .expect("metro-250 is a preset")
        .instantiate(MASTER_SEED);
    let solver = DistributedSolver::new(DistributedConfig::metro());
    let mut rng = rl_math::rng::seeded(MASTER_SEED);
    let solution = solver
        .localize(&problem_250, &mut rng)
        .expect("metro-250 distributed solve");
    let dist_cg = solution.stats().cg_iterations;
    println!(
        "distributed-lss (metro) at metro-250: cg_iterations = {dist_cg:?}, {} messages",
        solution.stats().iterations
    );
    gates.at_least(
        "solvestats-cg-iterations",
        dist_cg.map_or(f64::NAN, |c| c as f64),
        1.0,
        "count",
        "distributed-lss with metro reported no cg_iterations (NaN: None) — the counter is \
         not reaching SolveStats",
    );

    gates.finish(Detail {
        seed: MASTER_SEED,
        mds_1000_wall_ms: mds_1000_wall.as_secs_f64() * 1e3,
    })
}
