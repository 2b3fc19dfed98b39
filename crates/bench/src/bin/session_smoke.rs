//! Release-mode streaming-session gate; run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin session_smoke
//! ```
//!
//! Exercises protocol v2's `stream` namespace end to end and enforces,
//! through the shared [`rl_bench::gate`] harness:
//!
//! 1. **Replay bit-identity** (`replay-bit-identical-w1`,
//!    `replay-bit-identical-w4`) — a wire-driven session replaying the
//!    town mobility trace produces per-push solution fingerprints (and
//!    final positions, compared at the `f64::to_bits` level) identical
//!    to a directly-driven [`StreamingTracker`], for worker counts 1
//!    and 4,
//! 2. **Warm tick latency** (`warm-tick-p99-ms`) — pushing the trace
//!    tick-by-tick over the wire, every warm tick (tick 0, the cold
//!    solve, is excluded) must come back under [`WARM_P99_BUDGET`] at
//!    the 99th percentile,
//! 3. **Non-starvation** (`storm-backlog-formed`,
//!    `storm-replies-bit-identical`, `stream-before-batch-drain`,
//!    `storm-ticks-served`) — with one worker, a solve floor, and a
//!    queue full of batch jobs, interleaved stream ticks must drain
//!    *before* the batch backlog does (the weighted-fair wheel
//!    alternates classes, sharing the pool), while every batch job still
//!    completes with a bit-correct reply.
//!
//! A storm backlog that never forms fails `storm-backlog-formed` after
//! [`WAIT_DEADLINE`], and the bin finishes at once instead of hanging.
//!
//! Warm-tick p50/p99 and the non-starvation timings are written to
//! `BENCH_sessions.json` (uploaded as a CI artifact next to the other
//! `BENCH_*.json` records).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::gate::{percentile, positions_bit_identical, wait_until, Gates, WAIT_DEADLINE};
use rl_bench::MASTER_SEED as SEED;
use rl_core::tracking::{
    solution_fingerprint, StreamingTracker, TickObservation, Tracker, TrackerConfig,
};
use rl_core::types::NodeId;
use rl_deploy::mobility;
use rl_serve::protocol::stream::{StreamSource, TrackerSpec};
use rl_serve::server::solve_direct;
use rl_serve::{Client, ServeConfig, Server};
use serde::Serialize;

/// Ticks replayed from the town mobility trace.
const TICKS: usize = 48;

/// p99 budget for warm (tick ≥ 1) over-the-wire push round-trips.
const WARM_P99_BUDGET: Duration = Duration::from_millis(20);

/// Distinct batch jobs queued behind the solve floor in the
/// non-starvation phase.
const BATCH_STORM: usize = 12;

/// Stream ticks interleaved against the batch storm.
const STORM_TICKS: usize = 4;

/// Per-job solve floor in the non-starvation phase.
const STORM_FLOOR: Duration = Duration::from_millis(30);

#[derive(Debug, Serialize)]
struct LatencyRecord {
    ticks: usize,
    universe: u64,
    cold_ms: f64,
    p50_ms: f64,
}

#[derive(Debug, Serialize)]
struct StarvationRecord {
    workers: usize,
    batch_jobs: usize,
    stream_ticks: usize,
    floor_ms: f64,
    stream_done_ms: f64,
    batch_done_ms: f64,
}

/// The `detail` of `BENCH_sessions.json`; a phase the bin never reached
/// stays `None`.
#[derive(Debug, Serialize)]
struct Detail {
    seed: u64,
    replay_worker_counts: Vec<usize>,
    replay_fingerprint: u64,
    latency: LatencyRecord,
    starvation: Option<StarvationRecord>,
}

/// The deterministic observation stream both sides of the parity
/// checks consume: the town mobility preset, 59 nodes.
fn town_stream() -> Vec<TickObservation> {
    mobility::preset("town-mobile")
        .expect("registry preset")
        .with_ticks(TICKS)
        .trace(SEED)
        .observations
}

fn town_source() -> StreamSource {
    StreamSource::Preset {
        name: "town-mobile".into(),
    }
}

fn main() -> ExitCode {
    let mut gates = Gates::new("sessions");
    let observations = town_stream();

    // The in-process reference tracker, fed the same trace.
    let mut direct = StreamingTracker::with_lss(TrackerConfig::new(SEED));
    let mut direct_prints = Vec::with_capacity(observations.len());
    for obs in &observations {
        direct.observe(obs).expect("direct tick");
        direct_prints.push(solution_fingerprint(direct.latest().expect("solution")));
    }
    let final_print = *direct_prints.last().expect("non-empty trace");
    let direct_positions = direct.latest().expect("solution").positions().clone();

    // Phase 1: replay bit-identity for worker counts 1 and 4, pushing
    // tick-by-tick and checking every intermediate fingerprint.
    let replay_worker_counts = vec![1usize, 4];
    for &workers in &replay_worker_counts {
        let (addr, handle) =
            Server::spawn(ServeConfig::default().with_workers(workers)).expect("bind");
        let mut client = Client::connect(addr).expect("connect");
        let mut session = client
            .open_stream(town_source(), TrackerSpec::default(), SEED)
            .expect("open session");
        let diverged_ticks: Vec<usize> = observations
            .iter()
            .enumerate()
            .filter(|&(tick, obs)| {
                let reply = session.push(std::slice::from_ref(obs)).expect("push tick");
                reply.fingerprint != direct_prints[tick]
            })
            .map(|(tick, _)| tick)
            .collect();
        let read = session.read().expect("read solution");
        let expected: Vec<Option<(f64, f64)>> = (0..read.positions.len())
            .map(|i| direct_positions.get(NodeId(i)).map(|p| (p.x, p.y)))
            .collect();
        let positions_match = positions_bit_identical(&read.positions, &expected);
        session.close().expect("close session");
        client.shutdown().expect("shutdown");
        handle.join().expect("join").expect("serve");
        gates.holds(
            &format!("replay-bit-identical-w{workers}"),
            diverged_ticks.is_empty() && positions_match,
            &format!(
                "REPLAY DIVERGED: workers={workers}: wire fingerprints differ from the direct \
                 tracker at ticks {diverged_ticks:?}; read-back positions bit-identical: \
                 {positions_match}"
            ),
        );
    }

    // Phase 2: warm tick latency over the wire on a default server.
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(addr).expect("connect");
    let mut session = client
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .expect("open session");
    let universe = session.universe();
    let mut warm = Vec::with_capacity(observations.len() - 1);
    let mut cold = Duration::ZERO;
    for (tick, obs) in observations.iter().enumerate() {
        let t0 = Instant::now();
        session.push(std::slice::from_ref(obs)).expect("push tick");
        let elapsed = t0.elapsed();
        if tick == 0 {
            cold = elapsed;
        } else {
            warm.push(elapsed);
        }
    }
    session.close().expect("close session");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    warm.sort();
    let p50 = percentile(&warm, 0.50);
    let p99 = percentile(&warm, 0.99);
    println!(
        "latency: {} warm ticks over the wire at town scale ({universe} nodes): cold {cold:.2?}, \
         p50 {p50:.2?}, p99 {p99:.2?}",
        warm.len()
    );
    gates.at_most(
        "warm-tick-p99-ms",
        p99.as_secs_f64() * 1e3,
        WARM_P99_BUDGET.as_secs_f64() * 1e3,
        "ms",
        "WARM TICK BUDGET EXCEEDED over the wire",
    );
    let mut detail = Detail {
        seed: SEED,
        replay_worker_counts,
        replay_fingerprint: final_print,
        latency: LatencyRecord {
            ticks: observations.len(),
            universe,
            cold_ms: cold.as_secs_f64() * 1e3,
            p50_ms: p50.as_secs_f64() * 1e3,
        },
        starvation: None,
    };

    // Phase 3: non-starvation. One worker, a solve floor, and a storm
    // of distinct batch jobs; interleaved stream ticks must finish
    // while the batch backlog is still draining, and every batch job
    // must still complete bit-correct.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(STORM_FLOOR);
    let (addr, handle) = Server::spawn(config).expect("bind");
    let mut control = Client::connect(addr).expect("connect control");
    let started = Instant::now();
    let storm: Vec<_> = (0..BATCH_STORM)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect storm client");
                let seed = SEED + 1 + i as u64;
                let reply = client
                    .localize("town", "centroid", seed)
                    .expect("storm solve");
                (seed, reply, Instant::now())
            })
        })
        .collect();
    // Wait until the worker is occupied and a backlog exists, so the
    // stream ticks below genuinely compete with queued batch work.
    let backlog = wait_until(WAIT_DEADLINE, || {
        let stats = control.status().expect("status");
        stats.solves_started >= 1 && stats.batch_queued >= (BATCH_STORM as u64) / 2
    });
    if !gates.holds(
        "storm-backlog-formed",
        backlog,
        "the single worker never started the storm or no backlog queued — the server is wedged",
    ) {
        // The storm threads may never return; report without joining them.
        return gates.finish(detail);
    }
    let mut session = control
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .expect("open session");
    for obs in observations.iter().take(STORM_TICKS) {
        session.push(std::slice::from_ref(obs)).expect("storm tick");
    }
    let stream_done = started.elapsed();
    session.close().expect("close session");
    let mut bad_seeds = Vec::new();
    let mut batch_done = Duration::ZERO;
    for t in storm {
        let (seed, reply, finished) = t.join().expect("storm thread");
        if reply != solve_direct("town", "centroid", seed).expect("direct storm solve") {
            bad_seeds.push(seed);
        }
        batch_done = batch_done.max(finished.duration_since(started));
    }
    let stats = control.status().expect("status");
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    println!(
        "non-starvation: {STORM_TICKS} stream ticks drained in {stream_done:.2?} against \
         {BATCH_STORM} floored batch jobs (backlog drained in {batch_done:.2?}); \
         ticks_served={} solves={}",
        stats.ticks_served, stats.solves
    );
    gates.holds(
        "storm-replies-bit-identical",
        bad_seeds.is_empty(),
        &format!("NON-STARVATION BROKE BATCH: replies diverge from direct for seeds {bad_seeds:?}"),
    );
    gates.holds(
        "stream-before-batch-drain",
        stream_done < batch_done,
        &format!(
            "STREAM STARVED: {STORM_TICKS} interleaved ticks took {stream_done:.2?}, not less \
             than the {batch_done:.2?} batch backlog drain"
        ),
    );
    gates.at_least(
        "storm-ticks-served",
        stats.ticks_served as f64,
        STORM_TICKS as f64,
        "count",
        "TICKS LOST during the storm",
    );
    detail.starvation = Some(StarvationRecord {
        workers: 1,
        batch_jobs: BATCH_STORM,
        stream_ticks: STORM_TICKS,
        floor_ms: STORM_FLOOR.as_secs_f64() * 1e3,
        stream_done_ms: stream_done.as_secs_f64() * 1e3,
        batch_done_ms: batch_done.as_secs_f64() * 1e3,
    });

    gates.finish(detail)
}
