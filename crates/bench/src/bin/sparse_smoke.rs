//! Release-mode smoke test and perf gate for the sparse kernel layer;
//! run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin sparse_smoke
//! ```
//!
//! Exercises the warm-started / batched kernels end to end on the metro
//! ladder and enforces three budgets:
//!
//! 1. **Warm-start gate** — warm-started refinement
//!    ([`RefineConfig::cg_warm_start`]) at metro-1000 must spend no more
//!    cumulative CG iterations than the default zero-started path and
//!    land at the same refined stress (the never-worse contract).
//! 2. **metro-2500 wall gates** — the 2,500-node preset rung must finish
//!    sparse MDS-MAP and drifted refinement inside their wall budgets (a
//!    dense or quadratic regression costs minutes here).
//! 3. **Stats plumbing** — a distributed-LSS solve with the served
//!    [`DistributedConfig::metro`] preset must report
//!    `SolveStats::cg_iterations` (the concrete consumer of the
//!    promoted counter).
//!
//! Every measurement is also written to `BENCH_sparse.json`
//! (machine-readable, uploaded as a CI artifact), so the kernel-layer
//! perf trajectory is recorded on every run.

use std::time::{Duration, Instant};

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

/// Wall budget for sparse MDS-MAP on the metro-2500 rung (~3.5 s on the
/// reference machine; the margin absorbs slow shared CI runners).
const MDS_2500_WALL_BUDGET: Duration = Duration::from_secs(120);

/// Wall budget for drifted Gauss–Newton refinement on the metro-2500
/// rung (~100 ms on the reference machine).
const REFINE_2500_WALL_BUDGET: Duration = Duration::from_secs(60);

/// One gate's record in `BENCH_sparse.json`.
#[derive(Debug, Serialize)]
struct GateRecord {
    name: String,
    value: f64,
    budget: f64,
    ok: bool,
}

/// The `BENCH_sparse.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    seed: u64,
    refine_default_cg_iterations: usize,
    refine_warm_cg_iterations: usize,
    mds_1000_wall_ms: f64,
    mds_2500_wall_ms: f64,
    refine_2500_wall_ms: f64,
    distributed_cg_iterations: Option<usize>,
    gates: Vec<GateRecord>,
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

fn main() {
    let mut failed = false;
    let mut gates: Vec<GateRecord> = Vec::new();
    let mut gate = |name: &str, value: f64, budget: f64, ok: bool| -> bool {
        gates.push(GateRecord {
            name: name.to_string(),
            value,
            budget,
            ok,
        });
        ok
    };

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
    if !gate(
        "warm-start-never-worse",
        warm_refine.cg_iterations as f64,
        plain_refine.cg_iterations as f64,
        warm_refine.cg_iterations <= plain_refine.cg_iterations,
    ) {
        eprintln!(
            "WARM-START GATE FAILED: warm-started refinement spent {} CG iterations vs {} \
             zero-started — the never-worse contract is broken",
            warm_refine.cg_iterations, plain_refine.cg_iterations
        );
        failed = true;
    }
    let stress_rel = (warm_refine.final_stress - plain_refine.final_stress).abs()
        / plain_refine.final_stress.max(f64::MIN_POSITIVE);
    if !gate(
        "warm-start-same-stress",
        stress_rel,
        1e-2,
        stress_rel <= 1e-2,
    ) {
        eprintln!(
            "WARM-START QUALITY FAILED: warm-started stress {:.6e} vs default {:.6e} — the seed \
             changed the answer, not just the work",
            warm_refine.final_stress, plain_refine.final_stress
        );
        failed = true;
    }

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
    println!("metro-2500 sparse MDS-MAP: {mds_2500_wall:.1?} (budget {MDS_2500_WALL_BUDGET:.0?})");
    if !gate(
        "mds-2500-wall-ms",
        mds_2500_wall.as_secs_f64() * 1e3,
        MDS_2500_WALL_BUDGET.as_secs_f64() * 1e3,
        mds_2500_wall <= MDS_2500_WALL_BUDGET,
    ) {
        eprintln!(
            "MDS WALL BUDGET EXCEEDED: {mds_2500_wall:.1?} > {MDS_2500_WALL_BUDGET:.0?} at \
             metro-2500 — a dense or per-source-allocating path has crept into MDS-MAP"
        );
        failed = true;
    }
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
        "metro-2500 refinement: {} GN / {} CG iters in {refine_2500_wall:.1?} (budget \
         {REFINE_2500_WALL_BUDGET:.0?})",
        refine_2500.iterations, refine_2500.cg_iterations
    );
    if !gate(
        "refine-2500-wall-ms",
        refine_2500_wall.as_secs_f64() * 1e3,
        REFINE_2500_WALL_BUDGET.as_secs_f64() * 1e3,
        refine_2500_wall <= REFINE_2500_WALL_BUDGET,
    ) {
        eprintln!(
            "REFINE WALL BUDGET EXCEEDED: {refine_2500_wall:.1?} > {REFINE_2500_WALL_BUDGET:.0?} \
             at metro-2500 — the Gauss–Newton/CG path has regressed"
        );
        failed = true;
    }

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
        "distributed-lss (metro) at metro-250: cg_iterations = {dist_cg:?}, \
         {} messages",
        solution.stats().iterations
    );
    if !gate(
        "solvestats-cg-iterations",
        dist_cg.unwrap_or(0) as f64,
        1.0,
        dist_cg.is_some_and(|c| c > 0),
    ) {
        eprintln!(
            "STATS GATE FAILED: distributed-lss with metro reported cg_iterations = \
             {dist_cg:?} — the counter is not reaching SolveStats"
        );
        failed = true;
    }

    let report = BenchReport {
        seed: MASTER_SEED,
        refine_default_cg_iterations: plain_refine.cg_iterations,
        refine_warm_cg_iterations: warm_refine.cg_iterations,
        mds_1000_wall_ms: mds_1000_wall.as_secs_f64() * 1e3,
        mds_2500_wall_ms: mds_2500_wall.as_secs_f64() * 1e3,
        refine_2500_wall_ms: refine_2500_wall.as_secs_f64() * 1e3,
        distributed_cg_iterations: dist_cg,
        gates,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    match std::fs::write("BENCH_sparse.json", &json) {
        Ok(()) => println!("wrote BENCH_sparse.json ({} bytes)", json.len()),
        Err(e) => {
            eprintln!("FAILED to write BENCH_sparse.json: {e}");
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "sparse kernel layer OK: warm starts are never worse, metro-2500 stays inside its \
         wall budgets"
    );
}
