//! `serve-cached`: an open loop of full-reply batch `Localize` requests
//! for a small set of pre-warmed triples, so every measured request is a
//! cache hit. Three reply sizes in fixed shares put p50 in the small
//! class and p99 in the large one.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Instant;

use rand::Rng;
use rl_serve::protocol::{LocalizeReply, Request, Response};
use rl_serve::{Client, ServeConfig};

use crate::layers::Traffic;
use crate::loadgen::{self, Due, Span};
use crate::stats::{self, Sheet};
use crate::RunOutput;
use crate::{derive, splitmix};

/// `(deployment, solver, warmed keys, share %)` per reply-size class:
/// town ≈ 2.5 KB, metro-250 ≈ 10 KB, metro-1000 ≈ 40 KB.
pub const CLASSES: [(&str, &str, usize, u32); 3] = [
    ("town", "lss", 4, 60),
    ("metro-250", "mds-map", 2, 30),
    ("metro-1000", "mds-map", 1, 10),
];

/// Offered rate (requests/s) of the reference phase, whose latencies
/// are the reported `localize_ms` figures.
const REFERENCE_RATE: f64 = 1000.0;

/// Share of the run length spent in the reference phase.
const REFERENCE_SHARE: f64 = 0.1;

/// Share of the run length each goodput rung runs for.
const RUNG_SHARE: f64 = 0.03;

/// The goodput ladder (requests/s), run after the reference phase.
const LADDER: [f64; 3] = [2000.0, 4000.0, 8000.0];

/// Requests per second of run length sent in the closing capacity phase
/// (the count is fixed, so the work is too).
const CAPACITY_REQUESTS_PER_S: f64 = 7000.0;

/// Chunks the capacity phase is split into.
const CAPACITY_CHUNKS: usize = 40;

/// The stated limit on p99 latency for a rate to count toward goodput.
pub const P99_LIMIT_MS: f64 = 10.0;

/// Server set-ups timed for `setup_s` (the median is reported).
const SETUP_REPEATS: usize = 3;

/// Connections (and generator threads): one per core, at most two.
pub fn lanes() -> usize {
    crate::nproc().clamp(1, 2)
}

/// The warmed triples, in class order: `(class, deployment, solver, seed)`.
pub fn keys(seed: u64) -> Vec<(usize, &'static str, &'static str, u64)> {
    let mut keys = Vec::new();
    for (c, &(deployment, solver, count, _)) in CLASSES.iter().enumerate() {
        for k in 0..count {
            keys.push((
                c,
                deployment,
                solver,
                derive(seed, (c as u64) << 32, k as u64),
            ));
        }
    }
    keys
}

/// The request mix: key index of request `i`, a pure function of the
/// workload seed.
fn request_keys(seed: u64, count: usize, keys: &[(usize, &str, &str, u64)]) -> Vec<usize> {
    let mut rng = rl_math::rng::seeded(splitmix(seed ^ 0xcac4e));
    (0..count)
        .map(|_| {
            let roll = rng.random_range(0..100u32);
            let mut acc = 0;
            let class = CLASSES
                .iter()
                .position(|&(_, _, _, share)| {
                    acc += share;
                    roll < acc
                })
                .expect("shares sum to 100");
            let members: Vec<usize> = (0..keys.len()).filter(|&k| keys[k].0 == class).collect();
            members[rng.random_range(0..members.len())]
        })
        .collect()
}

fn localize(key: &(usize, &str, &str, u64)) -> Request {
    Request::localize(key.1, key.2, key.3)
}

/// A running server: address and serving thread.
pub struct Served {
    pub addr: SocketAddr,
    pub handle: JoinHandle<std::io::Result<()>>,
}

impl Served {
    pub fn start() -> Served {
        let (addr, handle) =
            rl_serve::Server::spawn(ServeConfig::default()).expect("bind on loopback");
        Served { addr, handle }
    }

    /// Shuts the server down and waits for every server thread.
    pub fn stop(self) {
        let mut client = Client::connect(self.addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown acknowledged");
        self.handle
            .join()
            .expect("server thread")
            .expect("server exits cleanly");
    }
}

pub fn run(seed: u64, seconds: u64, _trace: bool) -> RunOutput {
    let keys = keys(seed);

    // Set-up: bind, then warm every key with one cold solve. The cold
    // frames are the reference every measured frame must equal.
    let mut setup = Vec::new();
    let mut served = None;
    let mut cold: Vec<Vec<u8>> = Vec::new();
    let mut consistent = true;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let server = Served::start();
        let mut client = Client::connect(server.addr).expect("connect");
        let frames: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| client.request_raw(&localize(k)).expect("warm-up request"))
            .collect();
        setup.push(stats::secs(start));
        drop(client);
        if cold.is_empty() {
            cold = frames;
        } else if cold != frames {
            eprintln!("serve-cached: cold frames differ between two servers");
            consistent = false;
        }
        if let Some(old) = served.replace(server) {
            Served::stop(old);
        }
    }
    let server = served.expect("at least one set-up");
    let key_error: Vec<f64> = cold
        .iter()
        .map(
            |frame| match rl_serve::protocol::decode::<Response>(frame) {
                Ok(Response::Batch(rl_serve::protocol::batch::Response::Localized(
                    LocalizeReply {
                        mean_error_m: Some(e),
                        ..
                    },
                ))) => e,
                _ => f64::NAN,
            },
        )
        .collect();
    // A key without a localized warm-up reply and a finite error fails
    // its warm-up, and every request for it fails its check.
    let key_ok: Vec<bool> = key_error
        .iter()
        .map(|e| consistent && e.is_finite())
        .collect();
    let warm_failed = key_ok.iter().filter(|ok| !**ok).count() as u64;
    if warm_failed > 0 {
        eprintln!("serve-cached: {warm_failed} warm-up requests did not return a localized reply");
    }

    // Phases: the reference rate, the goodput ladder, then the capacity
    // phase, a closed loop over a fixed count of requests.
    let secs = seconds as f64;
    let mut phases = vec![(REFERENCE_RATE, secs * REFERENCE_SHARE)];
    phases.extend(LADDER.iter().map(|&r| (r, secs * RUNG_SHARE)));
    let capacity_count = (CAPACITY_REQUESTS_PER_S * secs).round() as usize;
    let scheduled: usize = phases.iter().map(|&(r, s)| (r * s).round() as usize).sum();
    let mix = request_keys(seed, scheduled + capacity_count, &keys);

    let lanes = lanes();
    let mut clients: Vec<Client> = (0..lanes)
        .map(|_| Client::connect(server.addr).expect("connect"))
        .collect();
    let before = clients[0].status().expect("status round trip");
    let t0 = Instant::now();
    let mut phase_spans: Vec<Vec<Span>> = Vec::new();
    let mut from = 0.0;
    let mut first = 0;
    let (cold, keys, mix, key_ok) = (&cold, &keys, &mix, &key_ok);
    for &(rate, len) in &phases {
        let lists = loadgen::schedule(from, len, rate, lanes, first, |i| keys[mix[i]].0);
        first += lists.iter().map(Vec::len).sum::<usize>();
        from += len;
        let spans: Vec<Span> = std::thread::scope(|scope| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(&lists)
                .map(|(client, dues)| {
                    scope.spawn(move || {
                        loadgen::drive(
                            t0,
                            dues,
                            |d: &Due| client.request_raw(&localize(&keys[mix[d.index]])).ok(),
                            |d: &Due, frame: Vec<u8>| {
                                key_ok[mix[d.index]] && frame == cold[mix[d.index]]
                            },
                        )
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("generator thread"))
                .collect()
        });
        phase_spans.push(spans);
    }
    // The capacity phase runs in chunks, each on fresh connections (so
    // fresh server connection threads), and reports the median chunk: a
    // burst of host contention or an unlucky thread placement then moves
    // one chunk, not the figure.
    drop(clients);
    let mut capacity = Vec::new();
    let mut chunk_rps = Vec::new();
    let mut chunk_cpu_ms = Vec::new();
    let per_chunk = capacity_count / CAPACITY_CHUNKS;
    for _ in 0..CAPACITY_CHUNKS {
        let mut lane_clients: Vec<Client> = (0..lanes)
            .map(|_| Client::connect(server.addr).expect("connect"))
            .collect();
        let cpu0 = stats::cpu_s();
        let spans = loadgen::closed(
            t0,
            &mut lane_clients,
            first,
            per_chunk,
            |i| keys[mix[i]].0,
            |client: &mut Client, i| client.request_raw(&localize(&keys[mix[i]])).ok(),
            |i, frame: Vec<u8>| key_ok[mix[i]] && frame == cold[mix[i]],
        );
        chunk_cpu_ms.push((stats::cpu_s() - cpu0) * 1e3 / per_chunk as f64);
        let start = spans.iter().map(|s| s.due).fold(f64::INFINITY, f64::min);
        let end = spans.iter().map(|s| s.end).fold(0.0, f64::max);
        chunk_rps.push(spans.iter().filter(|s| s.ok).count() as f64 / (end - start).max(1e-9));
        first += per_chunk;
        capacity.extend(spans);
    }
    let capacity_rps = stats::median(&chunk_rps);
    let capacity_cpu_ms = stats::median(&chunk_cpu_ms);
    let measured_s = stats::secs(t0);
    let after = Client::connect(server.addr)
        .and_then(|mut c| c.status())
        .expect("status round trip");
    server.stop();

    let all: Vec<Span> = phase_spans
        .iter()
        .flatten()
        .chain(&capacity)
        .copied()
        .collect();
    let attempted = all.len() as u64 + keys.len() as u64;
    let failed = all.iter().filter(|s| !s.ok).count() as u64 + warm_failed;
    let reference = &phase_spans[0];
    let lat = loadgen::latencies_ms(reference, None);

    // Goodput: the highest fixed rate with no failures, p99 within the
    // limit, and a generator that did not fall further behind (median
    // lateness over the phase's last tenth within the limit).
    let mut goodput = 0.0;
    let mut ladder_record = Vec::new();
    for (&(rate, _), spans) in phases.iter().zip(&phase_spans) {
        let lat = loadgen::latencies_ms(spans, None);
        let (tail, tail_stat) = stats::tail(&lat);
        let mut sent: Vec<&Span> = spans.iter().collect();
        sent.sort_by(|a, b| a.due.total_cmp(&b.due));
        let last: Vec<f64> = sent[sent.len() * 9 / 10..]
            .iter()
            .map(|s| s.late() * 1e3)
            .collect();
        let behind = stats::median(&last);
        let pass = spans.iter().all(|s| s.ok) && tail <= P99_LIMIT_MS && behind <= P99_LIMIT_MS;
        if pass && rate > goodput {
            goodput = rate;
        }
        ladder_record.push(format!(
            "{{\"rate\": {rate}, \"p50_ms\": {}, \"{tail_stat}_ms\": {}, \"late_end_ms\": {}, \"samples\": {}, \"pass\": {pass}}}",
            stats::json_number(stats::median(&lat)),
            stats::json_number(tail),
            stats::json_number(behind),
            spans.len()
        ));
    }

    // Sorted, so the sum does not depend on which connection served
    // which request and the mean repeats exactly for a seed.
    let mut errors: Vec<f64> = all
        .iter()
        .filter(|s| s.ok)
        .map(|s| key_error[mix[s.index]])
        .collect();
    errors.sort_by(f64::total_cmp);

    let mut e2e = Sheet::default();
    e2e.measured("setup_s", stats::median(&setup), "s", setup.len());
    e2e.measured("mean_error_m", stats::mean(&errors), "m", errors.len());
    e2e.derived("cpu_ms_per_op", capacity_cpu_ms, "ms", capacity.len());
    e2e.derived("throughput_per_s", capacity_rps, "1/s", capacity.len());

    let mut record = vec![
        ("measured_s".to_string(), stats::json_number(measured_s)),
        ("reference_rate".to_string(), REFERENCE_RATE.to_string()),
        ("localize_ms".to_string(), loadgen::summary(&lat)),
        ("p99_limit_ms".to_string(), P99_LIMIT_MS.to_string()),
        ("localize_goodput_rps".to_string(), goodput.to_string()),
        (
            "ladder".to_string(),
            format!("[{}]", ladder_record.join(", ")),
        ),
    ];
    for (c, &(deployment, _, _, _)) in CLASSES.iter().enumerate() {
        let lat = loadgen::latencies_ms(reference, Some(c));
        record.push((format!("localize_ms.{deployment}"), loadgen::summary(&lat)));
        record.push((
            format!("reply_bytes.{deployment}"),
            cold[keys.iter().position(|k| k.0 == c).expect("class has keys")]
                .len()
                .to_string(),
        ));
    }
    let traffic = Traffic {
        localize_ms: (stats::median(&lat), stats::tail(&lat).0),
        goodput_rps: goodput,
        ..Traffic::default()
    };
    RunOutput {
        e2e,
        attempted,
        failed,
        record,
        counters: crate::layers::server_counters(Some((&before, &after)), &all, &traffic),
    }
}
