//! The traced run's layer panel: every layer timed from outside, by
//! calling each crate's public functions on inputs drawn from `--seed`.
//! The panel is the same on every workload; the server-side counters
//! (`Status` deltas) and the load generator's lateness come from the
//! workload's own traced pass and read 0 where the workload sends no
//! such traffic.

use std::time::Instant;

use rand::Rng;
use rl_core::distributed::{refine_aligned, run_distributed, DistributedConfig, LocalMap};
use rl_core::tracking::{
    solution_fingerprint, StreamingTracker, TickObservation, Tracker, TrackerConfig,
};
use rl_core::Problem;
use rl_deploy::presets::PRESET_SEED;
use rl_deploy::Scenario;
use rl_math::sparse::{dijkstra_multi_into, CsrMatrix};
use rl_net::{NodeId, RadioModel};
use rl_serve::protocol::stream::{self, WireObservation};
use rl_serve::protocol::{self, batch, Request, Response, ServerStats};
use rl_serve::server::{make_solver, solve_direct};
use rl_serve::{Client, ServeConfig, Server};

use crate::loadgen::{self, Span};
use crate::offline::{instance_seed, FAMILIES};
use crate::stats::{self, Kind, Sheet};
use crate::{cached, mixed};

/// The per-node stream salt of the distributed local-solve phase
/// (`rl_core::distributed`), so the replica below builds exactly the
/// maps `run_distributed` builds.
const LOCAL_STREAM: u64 = 0xA076_1D64_78BD_642F;

/// The paper's ranging cutoff, as the server's registry uses it.
const RANGE_M: f64 = 22.0;

/// Repeats of the small, fast probes (encode, decode, round trip).
const PROBE_REPEATS: usize = 200;

/// Interleaved rounds of the distributed solve and its stages.
const DISTRIBUTED_ROUNDS: usize = 3;

/// Batch-miss triples re-solved with `solve_direct` for `server.solve_ms`.
const SOLVE_REPLICAS: usize = 32;

pub struct Panel {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
}

/// Counts the panel's layer calls and their failures.
struct Recorder {
    attempted: u64,
    failed: u64,
}

impl Recorder {
    /// Counts one layer call; a failed call is reported and counted.
    fn check<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("layer panel: {what} failed: {e}");
                None
            }
        }
    }
}

/// Times `f` and returns its result with the elapsed seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, stats::secs(start))
}

/// Median seconds of `repeats` calls of `f`.
fn median_secs<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..repeats).map(|_| timed(&mut f).1).collect();
    stats::median(&times)
}

/// The in-process `StreamingTracker` replay of a trace.
pub struct Replay {
    pub fingerprints: Vec<u64>,
    pub errors_m: Vec<f64>,
    /// Wall seconds per tick, and whether the tick took the warm path.
    pub ticks: Vec<(f64, bool)>,
    pub warm_updates: u64,
    pub cold_solves: u64,
    pub cg_iterations: u64,
}

/// Replays `observations` through a tracker configured as the server
/// configures a `metro` session with `seed`.
pub fn replay(observations: &[TickObservation], seed: u64) -> Replay {
    let mut tracker = StreamingTracker::with_lss(TrackerConfig::metro(seed));
    let mut out = Replay {
        fingerprints: Vec::new(),
        errors_m: Vec::new(),
        ticks: Vec::new(),
        warm_updates: 0,
        cold_solves: 0,
        cg_iterations: 0,
    };
    for obs in observations {
        let warm_before = tracker.warm_updates();
        let start = Instant::now();
        let solved = tracker.observe(obs);
        let wall = stats::secs(start);
        let Ok(solution) = solved else {
            out.fingerprints.push(0);
            continue;
        };
        out.fingerprints.push(solution_fingerprint(solution));
        out.cg_iterations += solution.stats().cg_iterations.unwrap_or(0) as u64;
        if let Some(truth) = &obs.truth {
            if let Ok(eval) = rl_core::eval::evaluate_absolute(solution.positions(), truth) {
                out.errors_m.push(eval.mean_error);
            }
        }
        out.ticks.push((wall, tracker.warm_updates() > warm_before));
    }
    out.warm_updates = tracker.warm_updates();
    out.cold_solves = tracker.cold_solves();
    out
}

/// What a workload's traced pass saw from the client side; zeros where
/// the workload sends no such traffic.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Median wall seconds per solve, in `offline::FAMILIES` order.
    pub solve_s: [f64; 4],
    /// Batch `Localize` latency: median and tail, ms.
    pub localize_ms: (f64, f64),
    pub goodput_rps: f64,
    /// Stream `PushTicks` latency: median and tail, ms.
    pub tick_ms: (f64, f64),
    /// Median latency of batch requests that missed the cache, ms.
    pub miss_ms: f64,
}

/// Status-counter deltas (`None` for a workload that starts no server),
/// load-generator lateness and client-side latencies over a workload's
/// run.
pub fn server_counters(
    status: Option<(&ServerStats, &ServerStats)>,
    spans: &[Span],
    traffic: &Traffic,
) -> Sheet {
    let delta = |counter: fn(&ServerStats) -> u64| {
        status.map_or(0, |(before, after)| counter(after) - counter(before)) as f64
    };
    let requests = delta(|s| s.requests);
    let mut sheet = Sheet::default();
    for (k, &(suffix, _, _)) in FAMILIES.iter().enumerate() {
        sheet.measured(&format!("solve_s.{suffix}"), traffic.solve_s[k], "s", 1);
    }
    sheet.measured("localize_ms.p50", traffic.localize_ms.0, "ms", 1);
    sheet.measured("localize_ms.p99", traffic.localize_ms.1, "ms", 1);
    sheet.measured("localize_goodput_rps", traffic.goodput_rps, "1/s", 1);
    sheet.measured("tick_ms.p50", traffic.tick_ms.0, "ms", 1);
    sheet.measured("tick_ms.p99", traffic.tick_ms.1, "ms", 1);
    sheet.derived(
        "cache.hit_ratio",
        delta(|s| s.cache_hits) / requests.max(1.0),
        "ratio",
        requests as usize,
    );
    sheet.measured("server.solves", delta(|s| s.solves), "count", 1);
    sheet.measured("server.overloaded", delta(|s| s.overloaded), "count", 1);
    sheet.measured("server.errors", delta(|s| s.errors), "count", 1);
    sheet.measured(
        "session.ticks_served",
        delta(|s| s.ticks_served),
        "count",
        1,
    );
    let late = loadgen::late_ms(spans);
    sheet.measured(
        "loadgen.late_ms.p99",
        stats::tail(&late).0,
        "ms",
        late.len(),
    );
    sheet.measured("loadgen.miss_ms.p50", traffic.miss_ms, "ms", 1);
    sheet
}

/// Runs the layer panel. `miss_ms` is the workload's median batch-miss
/// latency (0 when it sent no misses).
pub fn panel(seed: u64, miss_ms: f64) -> Panel {
    let mut r = Recorder {
        attempted: 0,
        failed: 0,
    };
    let mut sheet = Sheet::default();
    let nproc = crate::nproc();
    let s = instance_seed(seed, 0);

    // rl_deploy: instantiation and mobility-trace generation.
    let scenario = Scenario::metro(PRESET_SEED);
    let instantiate_s = median_secs(3, || scenario.instantiate(s));
    sheet.measured("deploy.instantiate_s", instantiate_s, "s", 3);
    let problem: Problem = scenario.instantiate(s);
    let (observations, trace_s) = timed(|| mixed::trace(seed));
    sheet.measured("deploy.trace_s", trace_s, "s", 1);
    let set = problem.measurements();
    let truth = problem.truth().expect("scenarios carry truth").to_vec();
    let n = set.node_count();

    // rl_serve bind (every preset and its JSON digest), and the
    // transport floor: a Status round trip.
    let mut bind = Vec::new();
    let mut rtt_us = 0.0;
    for k in 0..3 {
        let (server, secs) = timed(|| Server::bind(ServeConfig::default()));
        bind.push(secs);
        let Some(server) = r.check("Server::bind", server) else {
            continue;
        };
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        if let Some(mut client) = r.check("Client::connect", Client::connect(addr)) {
            if k == 0 {
                rtt_us = median_secs(PROBE_REPEATS, || client.status()) * 1e6;
            }
            let stopped = client.shutdown();
            r.check("shutdown", stopped);
        }
        let joined = handle
            .join()
            .map_err(|_| "server thread panicked")
            .and_then(|r| r.map_err(|_| "server failed"));
        r.check("server run", joined);
    }
    sheet.measured("serve.bind_s", stats::median(&bind), "s", bind.len());
    sheet.measured("client.rtt_us", rtt_us, "us", PROBE_REPEATS);

    // rl_core::lss.
    let solve = |r: &mut Recorder, family: &str| {
        let solver = make_solver(family).expect("registry family");
        let mut rng = rl_math::rng::seeded(s);
        let (out, secs) = timed(|| solver.localize(&problem, &mut rng));
        (r.check(family, out), secs)
    };
    let (lss, lss_s) = solve(&mut r, "lss");
    sheet.measured("lss.solve_s", lss_s, "s", 1);
    sheet.measured(
        "lss.iterations",
        lss.map_or(0, |s| s.stats().iterations) as f64,
        "count",
        1,
    );

    // rl_core::distributed over rl_net::{pool, sim} and the refinement CG.
    // The whole solve and its stages run in interleaved rounds and each
    // is reported as its median, so a host stall during one call skews
    // the stage-sum check less.
    let config = DistributedConfig::metro();
    let local_seed = rl_math::rng::seeded(s).random::<u64>();
    let build = |i: usize| {
        let mut rng = rl_math::rng::seeded(local_seed ^ (i as u64 + 1).wrapping_mul(LOCAL_STREAM));
        LocalMap::build(NodeId(i), set, &config.local_lss, &mut rng).ok()
    };
    let unrefined = config.clone().with_refine(None);
    let refine_cfg = config.refine.clone().expect("metro preset refines");
    let (mut whole, mut local, mut stitched_all, mut refine) = (vec![], vec![], vec![], vec![]);
    let (mut messages, mut cg_iterations) = (0, 0);
    for _ in 0..DISTRIBUTED_ROUNDS {
        whole.push(solve(&mut r, "distributed-lss").1);
        local.push(timed(|| rl_net::pool::par_map_indexed(n, nproc, build)).1);
        let (stitched, stitched_s) = timed(|| {
            run_distributed(
                set,
                &truth,
                NodeId(0),
                &unrefined,
                &mut rl_math::rng::seeded(s),
            )
        });
        stitched_all.push(stitched_s);
        if let Some(mut outcome) = r.check("run_distributed", stitched) {
            messages = outcome.messages_delivered;
            let (refined, refine_s) =
                timed(|| refine_aligned(set, &mut outcome.positions, &refine_cfg));
            refine.push(refine_s);
            cg_iterations = refined.map_or(0, |o| o.cg_iterations);
        }
    }
    let (_, serial_s) = timed(|| rl_net::pool::par_map_indexed(n, 1, build));
    let distributed_s = stats::median(&whole);
    let local_s = stats::median(&local);
    let stitch_s = stats::median(&stitched_all) - local_s;
    let refine_s = stats::median(&refine);
    sheet.measured("distributed.solve_s", distributed_s, "s", whole.len());
    sheet.measured("distributed.local_maps_s", local_s, "s", local.len());
    sheet.measured("distributed.local_maps_s.serial", serial_s, "s", 1);
    sheet.derived("pool.speedup", serial_s / local_s.max(1e-9), "ratio", 1);
    sheet.derived("distributed.stitch_s", stitch_s, "s", stitched_all.len());
    sheet.measured("net.messages", messages as f64, "count", 1);
    sheet.derived(
        "net.us_per_message",
        stitch_s * 1e6 / (messages.max(1) as f64),
        "us",
        messages,
    );
    sheet.measured("distributed.refine_s", refine_s, "s", refine.len());
    sheet.measured(
        "sparse.cg_iterations.refine",
        cg_iterations as f64,
        "count",
        1,
    );
    sheet.derived(
        "distributed.stage_sum_ratio",
        (local_s + stitch_s + refine_s) / distributed_s.max(1e-9),
        "ratio",
        1,
    );

    // rl_core::mds over rl_math::sparse.
    let (mds, mds_s) = solve(&mut r, "mds-map");
    let (_, paths_s) = timed(|| {
        let edges: Vec<(usize, usize, f64)> = set
            .iter()
            .map(|(a, b, d)| (a.index(), b.index(), d))
            .collect();
        let adjacency =
            CsrMatrix::symmetric_from_edges(n, &edges).expect("measured edges are valid");
        let sources: Vec<usize> = (0..n).collect();
        let mut completed = vec![0.0; n * n];
        dijkstra_multi_into(&adjacency, &sources, &mut completed);
        completed
    });
    sheet.measured("mds.solve_s", mds_s, "s", 1);
    sheet.measured("mds.shortest_paths_s", paths_s, "s", 1);
    sheet.derived("mds.eigensolve_s", mds_s - paths_s, "s", 1);
    sheet.measured(
        "mds.eigen_iterations",
        mds.map_or(0, |s| s.stats().iterations) as f64,
        "count",
        1,
    );
    // The completed and the squared distance tables, n² f64 each.
    sheet.push(
        "mds.distance_table_mb",
        (2 * n * n * 8) as f64 / (1024.0 * 1024.0),
        "MB",
        Kind::Computed,
        1,
    );

    // rl_core::baselines and rl_net::flood.
    let (_, dv_s) = solve(&mut r, "dv-hop");
    let (flood, flood_s) =
        timed(|| rl_net::flood::run_flood(&truth, RadioModel::ideal(RANGE_M), NodeId(0), s));
    r.check("run_flood", flood);
    sheet.measured("dv_hop.solve_s", dv_s, "s", 1);
    sheet.measured("net.flood_s", flood_s, "s", 1);

    // rl_core::tracking: the serve-mixed trace replayed in process.
    let replayed = replay(&observations, mixed::tracker_seed(seed));
    let warm: Vec<f64> = replayed
        .ticks
        .iter()
        .filter(|t| t.1)
        .map(|t| t.0 * 1e3)
        .collect();
    let cold: Vec<f64> = replayed
        .ticks
        .iter()
        .filter(|t| !t.1)
        .map(|t| t.0 * 1e3)
        .collect();
    r.attempted += observations.len() as u64;
    r.failed += (observations.len() - replayed.ticks.len()) as u64;
    sheet.measured(
        "tracking.warm_tick_ms",
        stats::median(&warm),
        "ms",
        warm.len(),
    );
    sheet.measured(
        "tracking.cold_tick_ms",
        stats::median(&cold),
        "ms",
        cold.len(),
    );
    sheet.measured(
        "tracking.warm_updates",
        replayed.warm_updates as f64,
        "count",
        1,
    );
    sheet.measured(
        "tracking.cold_solves",
        replayed.cold_solves as f64,
        "count",
        1,
    );
    sheet.measured(
        "sparse.cg_iterations.tick",
        replayed.cg_iterations as f64,
        "count",
        replayed.ticks.len(),
    );

    // rl_serve::protocol: reply encoding per serve-cached size class,
    // observation decoding as the server does it for a push.
    let keys = cached::keys(seed);
    for (c, &(deployment, _, _, _)) in cached::CLASSES.iter().enumerate() {
        let &(_, d, solver, key_seed) = keys.iter().find(|k| k.0 == c).expect("class has keys");
        let (reply, _) = timed(|| solve_direct(d, solver, key_seed));
        let Some(reply) = r.check("solve_direct", reply) else {
            continue;
        };
        let mut bytes = 0;
        let encode_s = median_secs(PROBE_REPEATS, || {
            let response = Response::Batch(batch::Response::Localized(reply.clone()));
            let mut frame = Vec::new();
            protocol::send(&mut frame, &response, protocol::DEFAULT_MAX_FRAME)
                .expect("reply fits a frame");
            bytes = frame.len() - 4;
            frame
        });
        sheet.measured(
            &format!("protocol.encode_us.{deployment}"),
            encode_s * 1e6,
            "us",
            PROBE_REPEATS,
        );
        sheet.measured(
            &format!("protocol.reply_bytes.{deployment}"),
            bytes as f64,
            "bytes",
            1,
        );
    }
    let push = Request::Stream(stream::Request::PushTicks {
        session: 1,
        observations: vec![WireObservation::from_observation(
            &observations[observations.len().min(2) - 1],
        )],
    });
    let payload = serde_json::to_string(&push).expect("requests serialize");
    let decode_s = median_secs(PROBE_REPEATS / 4, || {
        match protocol::decode::<Request>(payload.as_bytes()) {
            Ok(Request::Stream(stream::Request::PushTicks { observations, .. })) => {
                observations.iter().all(|o| o.to_observation().is_ok())
            }
            _ => false,
        }
    });
    sheet.measured("protocol.obs_bytes", payload.len() as f64, "bytes", 1);
    sheet.measured(
        "protocol.obs_decode_us",
        decode_s * 1e6,
        "us",
        PROBE_REPEATS / 4,
    );

    // rl_serve::server: the in-process solve behind a batch miss, and
    // the queue wait the workload's misses saw beyond solve and transport.
    let mut solve_ms = Vec::new();
    for (deployment, solver, miss_seed) in mixed::miss_triples(seed, SOLVE_REPLICAS) {
        let (reply, secs) = timed(|| solve_direct(deployment, solver, miss_seed));
        if r.check("solve_direct", reply).is_some() {
            solve_ms.push(secs * 1e3);
        }
    }
    let solve_ms = stats::median(&solve_ms);
    sheet.measured("server.solve_ms", solve_ms, "ms", SOLVE_REPLICAS);
    let wait_ms = if miss_ms > 0.0 {
        miss_ms - solve_ms - rtt_us / 1e3
    } else {
        0.0
    };
    sheet.derived("server.wait_ms", wait_ms, "ms", 1);

    Panel {
        sheet,
        attempted: r.attempted,
        failed: r.failed,
    }
}
