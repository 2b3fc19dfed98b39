//! `serve-mixed`: one connection streams `metro-250-mobile` sessions,
//! one observation per push, while the other sends batch `Localize`
//! requests, each with a fresh seed on a small preset and a cheap
//! solver, so every one misses the cache. Requests are large and replies
//! small, the reverse of `serve-cached`.
//!
//! The run has two phases, both over fixed counts of ticks and misses.
//! The capacity phase runs in chunks: each chunk opens a fresh session
//! on the same trace and tracker seed, pushes its cold opening tick
//! before the clock starts, then sends the warm ticks and a batch of
//! misses back to back on both connections. It gives the throughput and
//! CPU figures, so a faster server raises them. An open loop then sends
//! both classes on a schedule, each connection at half the rate it
//! sustained in the capacity phase, and gives the latency figures.

use std::time::Instant;

use rl_core::tracking::TickObservation;
use rl_serve::protocol::stream::{StreamSource, TrackerSpec, WireObservation};
use rl_serve::protocol::{batch, LocalizeReply, Request, Response};
use rl_serve::server::solve_direct;
use rl_serve::{Client, StreamSession};

use crate::cached::Served;
use crate::layers::Traffic;
use crate::loadgen::{self, Due, Span};
use crate::stats::{self, Sheet};
use crate::RunOutput;
use crate::{derive, splitmix};

/// Warm ticks each session streams after its cold opening tick. The
/// trace is generated once in set-up and replayed by every session, so
/// its memory and set-up cost do not grow with the run length.
pub const SESSION_TICKS: usize = 400;

/// Batch misses per capacity chunk. With `SESSION_TICKS` this keeps
/// both connections busy for about the same time on a 2-core x86-64
/// host, where a tick took about 2.4 ms and a miss 2 ms with both busy.
const CHUNK_MISSES: usize = 470;

/// Capacity chunks per second of run length. A chunk takes 1.2–1.6 s on
/// a 2-core x86-64 host, its session's cold opening tick included, so
/// the capacity phase fills most of the run.
const CHUNKS_PER_S: f64 = 0.6;

/// Share of its capacity-phase rate each connection offers in the open
/// loop: half load, where replies queue behind the other class's work
/// now and then but the generator keeps up.
const OPEN_LOAD: f64 = 0.5;

/// Cheap `(deployment, solver)` pairs the batch misses cycle through.
pub const MISS_MENU: [(&str, &str); 4] = [
    ("parking-lot", "lss"),
    ("parking-lot", "multilateration"),
    ("town", "multilateration"),
    ("town", "centroid"),
];

/// Batch misses re-solved in process with `solve_direct` and compared
/// byte for byte after every run (all of them in a traced run).
const CHECKED_MISSES: usize = 64;

/// Set-ups timed for `setup_s` (the median is reported).
const SETUP_REPEATS: usize = 5;

/// Span classes.
pub const TICK: usize = 0;
pub const MISS: usize = 1;

/// The mobility preset the sessions stream.
pub const MOBILITY: &str = "metro-250-mobile";

pub fn tracker_seed(seed: u64) -> u64 {
    splitmix(seed ^ 0x7472_6163_6b00)
}

/// Capacity chunks in a run of `seconds`.
fn chunks(seconds: u64) -> usize {
    ((CHUNKS_PER_S * seconds as f64).round() as usize).max(1)
}

/// The observations every session streams: the opening cold tick, then
/// `SESSION_TICKS` warm ticks.
pub fn trace(seed: u64) -> Vec<TickObservation> {
    rl_deploy::mobility::preset(MOBILITY)
        .expect("registry mobility preset")
        .with_ticks(1 + SESSION_TICKS)
        .trace(splitmix(seed ^ 0x7472_6163_6500))
        .observations
}

/// The `count` batch-miss triples of a run: `(deployment, solver, seed)`.
pub fn miss_triples(seed: u64, count: usize) -> Vec<(&'static str, &'static str, u64)> {
    (0..count)
        .map(|j| {
            let (deployment, solver) = MISS_MENU[j % MISS_MENU.len()];
            (
                deployment,
                solver,
                derive(seed, 0x6d69_7373_0000_0000, j as u64),
            )
        })
        .collect()
}

fn spec() -> TrackerSpec {
    TrackerSpec {
        preset: "metro".to_string(),
        ..TrackerSpec::default()
    }
}

/// Span index of tick `k` of session `s`.
fn tick_index(s: usize, k: usize) -> usize {
    s * (1 + SESSION_TICKS) + k
}

/// Dues for the warm ticks of session `s` (or misses from `first`):
/// back to back (`rate` = None, all due at time 0, so `loadgen::drive`
/// sends each as soon as the previous reply is in) or at `rate` per
/// second, starting half a period in.
fn dues(class: usize, indices: impl Iterator<Item = usize>, rate: Option<f64>) -> Vec<Due> {
    indices
        .enumerate()
        .map(|(k, index)| Due {
            at: rate.map_or(0.0, |r| (k as f64 + 0.5) / r),
            class,
            index,
        })
        .collect()
}

/// When the last span of `class` ended.
fn lane_end(spans: &[Span], class: usize) -> f64 {
    spans
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.end)
        .fold(0.0, f64::max)
}

/// Everything the connections bring back, for the checks after the run.
struct Replies {
    /// Reply fingerprint per tick span index.
    fingerprints: Vec<Option<u64>>,
    /// Raw reply frame per miss.
    miss_frames: Vec<Vec<u8>>,
}

/// What the connections send: the trace every session streams and the
/// run's batch-miss triples.
struct Inputs<'a> {
    observations: &'a [TickObservation],
    misses: &'a [(&'static str, &'static str, u64)],
}

/// Runs one phase: the stream connection pushes `ticks` into `session`
/// while the batch connection sends `batch`, each in due order.
fn phase(
    t0: Instant,
    session: &mut StreamSession<'_>,
    batch_client: &mut Client,
    inputs: &Inputs<'_>,
    replies: &mut Replies,
    ticks: &[Due],
    batch: &[Due],
) -> Vec<Span> {
    let (prints, frames) = (&mut replies.fingerprints, &mut replies.miss_frames);
    let Inputs {
        observations,
        misses,
    } = *inputs;
    std::thread::scope(|scope| {
        let stream = scope.spawn(move || {
            loadgen::drive(
                t0,
                ticks,
                |d: &Due| {
                    let obs = &observations[d.index % (1 + SESSION_TICKS)];
                    session
                        .push_wire(&[WireObservation::from_observation(obs)])
                        .ok()
                },
                |d: &Due, reply| {
                    prints[d.index] = Some(reply.fingerprint);
                    reply.accepted == 1
                },
            )
        });
        let batch = scope.spawn(move || {
            loadgen::drive(
                t0,
                batch,
                |d: &Due| {
                    let (deployment, solver, seed) = misses[d.index];
                    batch_client
                        .request_raw(&Request::localize(deployment, solver, seed))
                        .ok()
                },
                |d: &Due, frame: Vec<u8>| {
                    frames[d.index] = frame;
                    true
                },
            )
        });
        let mut spans = stream.join().expect("stream thread");
        spans.extend(batch.join().expect("batch thread"));
        spans
    })
}

/// Opens session `s` and pushes its cold opening tick, outside every
/// timed window. `None` when the server refused the session.
fn open<'c>(
    client: &'c mut Client,
    seed: u64,
    s: usize,
    observations: &[TickObservation],
    replies: &mut Replies,
) -> Option<StreamSession<'c>> {
    let source = StreamSource::Preset {
        name: MOBILITY.to_string(),
    };
    let mut session = client
        .open_stream(source, spec(), tracker_seed(seed))
        .map_err(|e| eprintln!("serve-mixed: session {s} did not open: {e}"))
        .ok()?;
    let opening = session.push_wire(&[WireObservation::from_observation(&observations[0])]);
    replies.fingerprints[tick_index(s, 0)] = opening.ok().map(|r| r.fingerprint);
    Some(session)
}

pub fn run(seed: u64, seconds: u64, trace_on: bool) -> RunOutput {
    // Set-up: trace generation plus bind.
    let mut setup = Vec::new();
    let mut served: Option<Served> = None;
    let mut observations = Vec::new();
    for _ in 0..SETUP_REPEATS {
        observations.clear();
        let start = Instant::now();
        observations = trace(seed);
        let server = Served::start();
        setup.push(stats::secs(start));
        if let Some(old) = served.replace(server) {
            old.stop();
        }
    }
    let server = served.expect("at least one set-up");
    let chunks = chunks(seconds);
    // Sessions: one per capacity chunk, then the open loop's.
    let sessions = chunks + 1;
    let misses = miss_triples(seed, sessions * CHUNK_MISSES);
    let inputs = Inputs {
        observations: &observations,
        misses: &misses,
    };
    let mut replies = Replies {
        fingerprints: vec![None; sessions * (1 + SESSION_TICKS)],
        miss_frames: vec![Vec::new(); misses.len()],
    };

    let mut stream_client = Client::connect(server.addr).expect("connect");
    let mut batch_client = Client::connect(server.addr).expect("connect");
    let before = batch_client.status().expect("status round trip");
    let mut sessions_closed = 0;
    let session_ticks = |s: usize| tick_index(s, 1)..tick_index(s + 1, 0);
    let session_misses = |s: usize| s * CHUNK_MISSES..(s + 1) * CHUNK_MISSES;

    // Capacity phase, in chunks; the median chunk is reported, so a
    // burst of host contention moves one chunk, not the figure.
    let start = Instant::now();
    let mut capacity = Vec::new();
    let (mut chunk_rps, mut chunk_cpu_ms) = (Vec::new(), Vec::new());
    let (mut tick_rate, mut miss_rate) = (Vec::new(), Vec::new());
    for c in 0..chunks {
        let Some(mut session) = open(&mut stream_client, seed, c, &observations, &mut replies)
        else {
            continue;
        };
        let ticks = dues(TICK, session_ticks(c), None);
        let batch = dues(MISS, session_misses(c), None);
        let t0 = Instant::now();
        let cpu0 = stats::cpu_s();
        let spans = phase(
            t0,
            &mut session,
            &mut batch_client,
            &inputs,
            &mut replies,
            &ticks,
            &batch,
        );
        let wall = stats::secs(t0);
        chunk_cpu_ms.push((stats::cpu_s() - cpu0) * 1e3 / spans.len() as f64);
        chunk_rps.push(spans.iter().filter(|s| s.ok).count() as f64 / wall.max(1e-9));
        tick_rate.push(SESSION_TICKS as f64 / lane_end(&spans, TICK).max(1e-9));
        miss_rate.push(CHUNK_MISSES as f64 / lane_end(&spans, MISS).max(1e-9));
        capacity.extend(spans);
        sessions_closed += usize::from(session.close().is_ok());
    }
    let capacity_s = stats::secs(start);

    // Open loop: each connection at `OPEN_LOAD` of its capacity rate.
    // Without a capacity figure (no session opened) it is skipped, and
    // its ticks and misses count as failed.
    let tick_hz = OPEN_LOAD * stats::median(&tick_rate);
    let miss_hz = OPEN_LOAD * stats::median(&miss_rate);
    let mut open_spans = Vec::new();
    if let Some(mut session) = (tick_hz > 0.0 && miss_hz > 0.0)
        .then(|| {
            open(
                &mut stream_client,
                seed,
                chunks,
                &observations,
                &mut replies,
            )
        })
        .flatten()
    {
        let ticks = dues(TICK, session_ticks(chunks), Some(tick_hz));
        let batch = dues(MISS, session_misses(chunks), Some(miss_hz));
        open_spans = phase(
            Instant::now(),
            &mut session,
            &mut batch_client,
            &inputs,
            &mut replies,
            &ticks,
            &batch,
        );
        sessions_closed += usize::from(session.close().is_ok());
    }
    let measured_s = stats::secs(start);

    let after = batch_client.status().expect("status round trip");
    drop(stream_client);
    drop(batch_client);
    server.stop();

    // Output checks, outside every timed window: every session's tick
    // fingerprints against one in-process replay of the trace, batch
    // replies decoded and (a fixed sample, or all when traced) compared
    // byte for byte with `solve_direct`.
    let replay = crate::layers::replay(&observations, tracker_seed(seed));
    let mut failed = (sessions - sessions_closed) as u64;
    let mut tick_ok = vec![true; replies.fingerprints.len()];
    for (i, print) in replies.fingerprints.iter().enumerate() {
        let k = i % (1 + SESSION_TICKS);
        let matches = replay
            .fingerprints
            .get(k)
            .is_some_and(|r| Some(*r) == *print);
        if !matches {
            tick_ok[i] = false;
            eprintln!(
                "serve-mixed: session {} tick {k} fingerprint differs from the in-process replay",
                i / (1 + SESSION_TICKS)
            );
        }
    }
    let mut errors: Vec<f64> = replay.errors_m.clone();
    let mut miss_ok = vec![true; misses.len()];
    for (j, frame) in replies.miss_frames.iter().enumerate() {
        match rl_serve::protocol::decode::<Response>(frame) {
            Ok(Response::Batch(batch::Response::Localized(LocalizeReply {
                mean_error_m: Some(e),
                ..
            }))) if e.is_finite() => errors.push(e),
            _ => miss_ok[j] = false,
        }
    }
    let checked = if trace_on {
        misses.len()
    } else {
        CHECKED_MISSES.min(misses.len())
    };
    for j in 0..checked {
        let (deployment, solver, seed) = misses[j];
        let direct = solve_direct(deployment, solver, seed)
            .map(|r| serde_json::to_string(&Response::Batch(batch::Response::Localized(r))));
        if !matches!(direct, Ok(Ok(ref text)) if text.as_bytes() == replies.miss_frames[j].as_slice())
        {
            miss_ok[j] = false;
            eprintln!("serve-mixed: batch miss {j} differs from solve_direct");
        }
    }
    // A transport failure or refused push fails its tick or miss too.
    // Every tick and miss of every session counts as attempted, so a
    // session the server refused shows as failed operations.
    for s in capacity.iter().chain(&open_spans) {
        let ok = if s.class == TICK {
            &mut tick_ok[s.index]
        } else {
            &mut miss_ok[s.index]
        };
        *ok &= s.ok;
    }
    failed += tick_ok.iter().chain(&miss_ok).filter(|ok| !**ok).count() as u64;
    let attempted = (sessions + tick_ok.len() + miss_ok.len()) as u64;
    let mark = |spans: &mut [Span]| {
        for s in spans.iter_mut() {
            s.ok = if s.class == TICK {
                tick_ok[s.index]
            } else {
                miss_ok[s.index]
            };
        }
    };
    mark(&mut capacity);
    mark(&mut open_spans);

    let ticks = loadgen::latencies_ms(&open_spans, Some(TICK));
    let localizes = loadgen::latencies_ms(&open_spans, Some(MISS));

    let mut e2e = Sheet::default();
    e2e.measured("setup_s", stats::median(&setup), "s", setup.len());
    e2e.measured("mean_error_m", stats::mean(&errors), "m", errors.len());
    e2e.derived(
        "cpu_ms_per_op",
        stats::median(&chunk_cpu_ms),
        "ms",
        capacity.len(),
    );
    e2e.derived(
        "throughput_per_s",
        stats::median(&chunk_rps),
        "1/s",
        capacity.len(),
    );

    let record = vec![
        ("measured_s".to_string(), stats::json_number(measured_s)),
        ("capacity_s".to_string(), stats::json_number(capacity_s)),
        (
            "capacity_chunk".to_string(),
            format!(
                "{{\"chunks\": {chunks}, \"ticks\": {SESSION_TICKS}, \"misses\": {CHUNK_MISSES}}}"
            ),
        ),
        ("tick_hz".to_string(), stats::json_number(tick_hz)),
        ("miss_hz".to_string(), stats::json_number(miss_hz)),
        ("misses_checked".to_string(), checked.to_string()),
        ("tick_ms".to_string(), loadgen::summary(&ticks)),
        ("localize_ms".to_string(), loadgen::summary(&localizes)),
    ];
    let traffic = Traffic {
        localize_ms: (stats::median(&localizes), stats::tail(&localizes).0),
        tick_ms: (stats::median(&ticks), stats::tail(&ticks).0),
        miss_ms: stats::median(&localizes),
        ..Traffic::default()
    };
    RunOutput {
        e2e,
        attempted,
        failed,
        record,
        counters: crate::layers::server_counters(Some((&before, &after)), &open_spans, &traffic),
    }
}
