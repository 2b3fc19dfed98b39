//! Release-mode smoke test and perf gate for the tracking layer; run by
//! CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin tracking_smoke
//! ```
//!
//! Drives the warm-started [`StreamingTracker`] and a forced-cold
//! reference over the same metro-250 mobility trace (identical per-tick
//! cold seeds), then enforces, through the shared [`rl_bench::gate`]
//! harness:
//!
//! 1. `warm-speedup` — warm-started updates run at least
//!    [`SPEEDUP_FLOOR`]× faster than the per-tick cold re-solve (mean
//!    wall over warm ticks vs mean wall over cold ticks) — the whole
//!    point of the tracking layer,
//! 2. `warm-error-ratio` — the warm stream's mean error stays within
//!    [`ERROR_FACTOR`]× of the cold stream's — speed must not be bought
//!    with drift,
//! 3. `replay-bit-identical` — tracker replay is **bit-identical across
//!    worker counts**: the distributed-LSS cold engine at 1 and 2
//!    workers produces the same per-tick solution fingerprints on a
//!    town-scale stream,
//! 4. `total-wall-s` — the whole run finishes inside [`WALL_BUDGET`].
//!
//! Per-tick wall/error trajectories are written to the `detail` of
//! `BENCH_tracking.json` (machine-readable, uploaded as a CI artifact).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::experiments::tracking::{run_stream, warm_vs_cold, StreamRun, ALWAYS_COLD};
use rl_bench::gate::Gates;
use rl_bench::MASTER_SEED;
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::tracking::{StreamingTracker, TrackerConfig};
use rl_deploy::mobility::MobilityScenario;
use serde::Serialize;

/// End-to-end budget for the whole smoke run: 3× the worst of five runs
/// (2.8 s) on a 2-vCPU container.
const WALL_BUDGET: Duration = Duration::from_millis(8400);

/// Warm ticks must be at least this many times faster than cold
/// re-solves at metro-250: the worst of five runs (82×) on a 2-vCPU
/// container, divided by 3.
const SPEEDUP_FLOOR: f64 = 27.0;

/// The warm stream's mean error may exceed the cold stream's by at most
/// this factor.
const ERROR_FACTOR: f64 = 1.25;

/// Metro-250 trace length. Long enough that the warm path dominates the
/// mean, short enough that the cold arm (a full batch LSS per tick)
/// stays inside the wall budget.
const METRO_TICKS: usize = 10;

/// Town-scale replay trace length for the worker-count gate (every tick
/// is a cold distributed solve, the expensive arm).
const REPLAY_TICKS: usize = 3;

/// One per-tick row of the `BENCH_tracking.json` detail.
#[derive(Debug, Serialize)]
struct TickRecord {
    tick: usize,
    warm: bool,
    wall_ms: f64,
    mean_error_m: f64,
    fingerprint: String,
}

/// One stream's rows plus its aggregates.
#[derive(Debug, Serialize)]
struct StreamRecord {
    stream: String,
    ticks: usize,
    warm_updates: u64,
    cold_solves: u64,
    mean_warm_tick_ms: Option<f64>,
    mean_cold_tick_ms: Option<f64>,
    mean_error_m: f64,
    per_tick: Vec<TickRecord>,
}

/// The `detail` of `BENCH_tracking.json`.
#[derive(Debug, Serialize)]
struct Detail {
    seed: u64,
    streams: Vec<StreamRecord>,
}

fn stream_record(label: &str, run: &StreamRun) -> StreamRecord {
    StreamRecord {
        stream: label.to_string(),
        ticks: run.ticks,
        warm_updates: run.warm_updates,
        cold_solves: run.cold_solves,
        mean_warm_tick_ms: run.mean_wall(true).map(|d| d.as_secs_f64() * 1e3),
        mean_cold_tick_ms: run.mean_wall(false).map(|d| d.as_secs_f64() * 1e3),
        mean_error_m: run.mean_error(),
        per_tick: (0..run.ticks)
            .map(|t| TickRecord {
                tick: t,
                warm: run.warm[t],
                wall_ms: run.wall[t].as_secs_f64() * 1e3,
                mean_error_m: run.error_m[t],
                fingerprint: format!("{:#018x}", run.fingerprints[t]),
            })
            .collect(),
    }
}

/// The worker-count replay gate: a forced-cold tracker whose cold engine
/// is distributed LSS (the solver whose internals shard across a worker
/// pool) must emit bit-identical per-tick fingerprints at 1 and 2
/// workers.
fn replay_fingerprints(workers: usize) -> Vec<u64> {
    let scenario = MobilityScenario::town(MASTER_SEED).with_ticks(REPLAY_TICKS);
    let trace = scenario.trace(MASTER_SEED);
    let cold = DistributedSolver::new(DistributedConfig::metro().with_workers(workers));
    let mut tracker = StreamingTracker::new(
        TrackerConfig::new(MASTER_SEED).with_churn_restart_fraction(ALWAYS_COLD),
        Box::new(cold),
    );
    run_stream(&mut tracker, &trace).fingerprints
}

fn main() -> ExitCode {
    let mut gates = Gates::new("tracking");
    let started = Instant::now();

    let scenario = MobilityScenario::metro_250(MASTER_SEED).with_ticks(METRO_TICKS);
    let (warm, cold) = warm_vs_cold(&scenario, MASTER_SEED);

    let warm_tick = warm
        .mean_wall(true)
        .expect("warm stream has warm ticks")
        .as_secs_f64();
    let cold_tick = cold
        .mean_wall(false)
        .expect("cold stream has cold ticks")
        .as_secs_f64();
    let speedup = cold_tick / warm_tick.max(1e-9);
    let error_ratio = warm.mean_error() / cold.mean_error().max(1e-9);

    println!(
        "metro-250 stream ({METRO_TICKS} ticks): warm {:.2} ms/tick ({} warm, {} cold), cold \
         re-solve {:.2} ms/tick => {speedup:.1}x; error warm {:.3} m vs cold {:.3} m \
         ({error_ratio:.2}x)",
        warm_tick * 1e3,
        warm.warm_updates,
        warm.cold_solves,
        cold_tick * 1e3,
        warm.mean_error(),
        cold.mean_error(),
    );
    gates.at_least(
        "warm-speedup",
        speedup,
        SPEEDUP_FLOOR,
        "x",
        "warm ticks are not enough faster than cold re-solves — the warm path is doing \
         cold-solve work",
    );
    gates.at_most(
        "warm-error-ratio",
        error_ratio,
        ERROR_FACTOR,
        "x",
        "warm mean error over the cold re-solve's — the warm seed is drifting",
    );

    let replay_1 = replay_fingerprints(1);
    let replay_2 = replay_fingerprints(2);
    gates.holds(
        "replay-bit-identical",
        replay_1 == replay_2,
        &format!(
            "REPLAY DIVERGED ACROSS WORKER COUNTS: {replay_1:#018x?} (1 worker) vs \
             {replay_2:#018x?} (2 workers) — a scheduling dependency has crept into the \
             tracking or distributed layer"
        ),
    );

    gates.at_most(
        "total-wall-s",
        started.elapsed().as_secs_f64(),
        WALL_BUDGET.as_secs_f64(),
        "s",
        "the tracking smoke run has slowed down",
    );

    gates.finish(Detail {
        seed: MASTER_SEED,
        streams: vec![
            stream_record("metro-250-warm", &warm),
            stream_record("metro-250-cold", &cold),
        ],
    })
}
