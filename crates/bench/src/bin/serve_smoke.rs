//! Release-mode serving gate; run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin serve_smoke
//! ```
//!
//! Exercises the serving layer end to end and enforces, through the
//! shared [`rl_bench::gate`] harness:
//!
//! 1. **Determinism** (`served-bit-identical`) — a served reply is
//!    bit-identical to the in-process [`solve_direct`] for the same
//!    triple (positions compared at the `f64::to_bits` level),
//! 2. **Caching** (`cached-frame-bytes-identical`,
//!    `cache-hits-on-repeat`) — a repeated identical request is answered
//!    from the solution cache (`cache_hits` increments) and its raw
//!    response frame is **byte-identical** to the cold one,
//! 3. **Batching** (`blocker-picked-up`,
//!    `coalesced-replies-bit-identical`, `batching-solves`,
//!    `batching-coalesced`) — concurrent identical requests coalesce into
//!    one shared solve: the solve count stays strictly below the request
//!    count, and every fanned-out reply is bit-identical,
//! 4. **Throughput** (`cached-rps`, `cached-p99-ms`,
//!    `cache-hits-under-load`) — [`CLIENTS`] concurrent clients replaying
//!    a cached town query sustain at least [`RPS_FLOOR`] requests/second
//!    with p99 latency under [`P99_BUDGET`], every request a cache hit.
//!
//! A blocker the worker never picks up fails `blocker-picked-up` after
//! [`WAIT_DEADLINE`], and the bin finishes at once instead of hanging.
//!
//! Measured req/s and p50/p99 latency are written to `BENCH_serve.json`
//! (uploaded as a CI artifact next to the other `BENCH_*.json` records).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use rl_bench::gate::{percentile, positions_bit_identical, wait_until, Gates, WAIT_DEADLINE};
use rl_bench::MASTER_SEED as SEED;
use rl_serve::server::solve_direct;
use rl_serve::{Client, LocalizeReply, ServeConfig, Server};
use serde::Serialize;

/// Concurrent clients in the throughput phase.
const CLIENTS: usize = 4;

/// Requests per client in the throughput phase.
const REQUESTS_PER_CLIENT: usize = 250;

/// Minimum sustained throughput on cached town queries: the worst of
/// five runs (18.3k req/s) on a 2-vCPU container, divided by 3.
const RPS_FLOOR: f64 = 6000.0;

/// Per-request p99 latency budget for cached queries: 10× the worst of
/// five runs (0.47 ms) on a 2-vCPU container. Sub-millisecond tails on
/// a shared VM vary several-fold, hence 10× rather than 3×.
const P99_BUDGET: Duration = Duration::from_micros(4800);

/// Duplicate localize requests fired at the single-worker batching
/// server (on top of one blocker request).
const DUPLICATES: usize = 6;

#[derive(Debug, Serialize)]
struct BatchingRecord {
    requests: u64,
    solves: u64,
    coalesced: u64,
    cache_hits: u64,
}

#[derive(Debug, Serialize)]
struct ThroughputRecord {
    clients: usize,
    requests: usize,
    wall_ms: f64,
    p50_ms: f64,
}

/// The `detail` of `BENCH_serve.json`; a phase the bin never reached
/// stays `None`.
#[derive(Debug, Serialize)]
struct Detail {
    seed: u64,
    workers: u64,
    bitwise_triples_checked: usize,
    cached_frame_bytes: usize,
    batching: Option<BatchingRecord>,
    throughput: Option<ThroughputRecord>,
}

/// Whether `reply` equals `direct` with positions compared bit-for-bit.
fn bitwise(reply: &LocalizeReply, direct: &LocalizeReply) -> bool {
    positions_bit_identical(&reply.positions, &direct.positions) && reply == direct
}

fn main() -> ExitCode {
    let mut gates = Gates::new("serve");

    // Phase 1+2: determinism and caching, on a default server.
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind smoke server");
    let mut client = Client::connect(addr).expect("connect");
    let workers = client.status().expect("status").workers;

    let triples = [
        ("town", "lss"),
        ("parking-lot", "multilateration"),
        ("grass-grid", "distributed-lss"),
        ("metro-250", "centroid"),
    ];
    let diverged: Vec<String> = triples
        .iter()
        .filter(|(deployment, solver)| {
            let reply = client
                .localize(deployment, solver, SEED)
                .expect("served solve");
            let direct = solve_direct(deployment, solver, SEED).expect("direct solve");
            !bitwise(&reply, &direct)
        })
        .map(|(deployment, solver)| format!("{deployment}/{solver}"))
        .collect();
    gates.holds(
        "served-bit-identical",
        diverged.is_empty(),
        &format!("DETERMINISM BROKEN: served replies diverge from direct solves for {diverged:?}"),
    );

    // Byte-identical cached frame: issue the same raw request twice.
    let request = rl_serve::Request::localize("town", "lss", SEED);
    let before = client.status().expect("status").cache_hits;
    let cold = client.request_raw(&request).expect("first frame");
    let cached = client.request_raw(&request).expect("second frame");
    let hits = client.status().expect("status").cache_hits - before;
    gates.holds(
        "cached-frame-bytes-identical",
        cold == cached,
        &format!(
            "CACHE CONTRACT BROKEN: cached response frame differs from the cold one ({} vs {} \
             bytes)",
            cached.len(),
            cold.len()
        ),
    );
    // Both raw requests repeat the phase-1 town/lss solve, so both must
    // be cache hits.
    gates.at_least(
        "cache-hits-on-repeat",
        hits as f64,
        2.0,
        "count",
        "CACHE NOT SERVING: repeated requests missed the cache",
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    let mut detail = Detail {
        seed: SEED,
        workers,
        bitwise_triples_checked: triples.len(),
        cached_frame_bytes: cached.len(),
        batching: None,
        throughput: None,
    };

    // Phase 3: batching. One worker, a solve floor wide enough that the
    // duplicates deterministically arrive while their solve is in
    // flight, and a blocker request occupying the worker first.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(Duration::from_millis(250));
    let (addr, handle) = Server::spawn(config).expect("bind batching server");
    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect blocker");
        client
            .localize("parking-lot", "centroid", SEED)
            .expect("blocker solve");
    });
    // Wait until the worker has picked the blocker up, so every
    // duplicate below is enqueued behind it.
    let mut control = Client::connect(addr).expect("connect control");
    let picked_up = wait_until(WAIT_DEADLINE, || {
        control.status().expect("status").solves_started >= 1
    });
    if !gates.holds(
        "blocker-picked-up",
        picked_up,
        "the single worker never started the blocker solve — the server is wedged",
    ) {
        // The blocker thread may never return; report without joining it.
        return gates.finish(detail);
    }
    let duplicates: Vec<_> = (0..DUPLICATES)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect duplicate");
                client
                    .localize("town", "centroid", SEED)
                    .expect("duplicate solve")
            })
        })
        .collect();
    let replies: Vec<_> = duplicates
        .into_iter()
        .map(|t| t.join().expect("duplicate thread"))
        .collect();
    blocker.join().expect("blocker thread");
    let stats = control.status().expect("status");
    let batching = BatchingRecord {
        requests: stats.requests,
        solves: stats.solves,
        coalesced: stats.coalesced,
        cache_hits: stats.cache_hits,
    };
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");

    let direct = solve_direct("town", "centroid", SEED).expect("direct town/centroid");
    gates.holds(
        "coalesced-replies-bit-identical",
        replies.iter().all(|reply| bitwise(reply, &direct)),
        "DETERMINISM BROKEN: a coalesced town/centroid reply diverges from the direct solve",
    );
    // Blocker + one shared solve; DUPLICATES requests collapse into one.
    gates.holds(
        "batching-solves",
        batching.solves == 2 && batching.solves < batching.requests,
        &format!(
            "BATCHING BROKEN: {} requests ran {} solves (expected exactly 2: blocker + one \
             coalesced solve)",
            batching.requests, batching.solves
        ),
    );
    gates.holds(
        "batching-coalesced",
        batching.coalesced + batching.cache_hits == DUPLICATES as u64 - 1
            && batching.coalesced >= 1,
        &format!(
            "BATCHING BROKEN: {DUPLICATES} duplicates should coalesce/hit-cache {} times, got \
             coalesced={} cache_hits={}",
            DUPLICATES - 1,
            batching.coalesced,
            batching.cache_hits
        ),
    );
    detail.batching = Some(batching);

    // Phase 4: throughput on cached town queries.
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind throughput server");
    let mut control = Client::connect(addr).expect("connect control");
    control.localize("town", "lss", SEED).expect("warm cache");
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect load client");
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for _ in 0..REQUESTS_PER_CLIENT {
                    let t0 = Instant::now();
                    client.localize("town", "lss", SEED).expect("cached solve");
                    latencies.push(t0.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = clients
        .into_iter()
        .flat_map(|t| t.join().expect("load thread"))
        .collect();
    let wall = started.elapsed();
    let stats = control.status().expect("status");
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");

    latencies.sort();
    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let rps = total as f64 / wall.as_secs_f64();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    println!(
        "throughput: {CLIENTS} clients x {REQUESTS_PER_CLIENT} cached town queries in {wall:.2?} \
         -> {rps:.0} req/s, p50 {p50:.2?}, p99 {p99:.2?}"
    );
    gates.at_least(
        "cached-rps",
        rps,
        RPS_FLOOR,
        "req/s",
        "THROUGHPUT FLOOR MISSED on cached town queries",
    );
    gates.at_most(
        "cached-p99-ms",
        p99.as_secs_f64() * 1e3,
        P99_BUDGET.as_secs_f64() * 1e3,
        "ms",
        "P99 BUDGET EXCEEDED on cached town queries",
    );
    // The warm-up request solved; every load request must hit.
    gates.at_least(
        "cache-hits-under-load",
        stats.cache_hits as f64,
        total as f64,
        "count",
        "CACHE NOT SERVING UNDER LOAD: fewer hits than load requests",
    );
    detail.throughput = Some(ThroughputRecord {
        clients: CLIENTS,
        requests: total,
        wall_ms: wall.as_secs_f64() * 1e3,
        p50_ms: p50.as_secs_f64() * 1e3,
    });

    gates.finish(detail)
}
