//! The load generator.
//!
//! In the open loop ([`drive`]) each connection thread owns a list of
//! due times and sends each request when it falls due, whether or not
//! earlier replies were fast: independent users, not waiting callers. A
//! request's latency runs from its due time to its reply, so a stall
//! also charges the requests it delayed; how late the generator itself
//! sent is recorded separately. The closed loop ([`closed`]) measures
//! capacity: every connection sends its next request as soon as the
//! previous reply is in.

use std::time::{Duration, Instant};

/// One timed operation, in seconds since the run's time origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation class within the workload (reply size class, family, …).
    pub class: usize,
    /// Index of the request within the workload's request list.
    pub index: usize,
    pub due: f64,
    pub start: f64,
    pub end: f64,
    pub ok: bool,
}

impl Span {
    /// Reply time measured from the due time.
    pub fn latency(&self) -> f64 {
        self.end - self.due
    }

    /// How late the generator sent.
    pub fn late(&self) -> f64 {
        self.start - self.due
    }
}

/// One scheduled request: due time (seconds since `t0`) and class.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    pub at: f64,
    pub class: usize,
    /// Index into the caller's request list.
    pub index: usize,
}

/// Runs `dues` in order against `send`, which performs one request and
/// returns its reply; `check` then validates the reply outside the timed
/// window (after the reply time is stamped). Returns one span per
/// request.
pub fn drive<R>(
    t0: Instant,
    dues: &[Due],
    mut send: impl FnMut(&Due) -> Option<R>,
    mut check: impl FnMut(&Due, R) -> bool,
) -> Vec<Span> {
    let mut spans = Vec::with_capacity(dues.len());
    for due in dues {
        let now = t0.elapsed().as_secs_f64();
        if now < due.at {
            std::thread::sleep(Duration::from_secs_f64(due.at - now));
        }
        let start = t0.elapsed().as_secs_f64();
        let reply = send(due);
        let end = t0.elapsed().as_secs_f64();
        let ok = match reply {
            Some(reply) => check(due, reply),
            None => false,
        };
        spans.push(Span {
            class: due.class,
            index: due.index,
            due: due.at,
            start,
            end,
            ok,
        });
    }
    spans
}

/// A closed loop: each client takes the next of `count` request indices
/// (from `first`) off a shared counter and sends it as soon as its
/// previous reply is in, so every connection stays busy to the end.
/// Spans are due when sent.
pub fn closed<C: Send, R>(
    t0: Instant,
    clients: &mut [C],
    first: usize,
    count: usize,
    class_of: impl Fn(usize) -> usize + Sync,
    send: impl Fn(&mut C, usize) -> Option<R> + Sync,
    check: impl Fn(usize, R) -> bool + Sync,
) -> Vec<Span> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let lanes: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, class_of, send, check) = (&next, &class_of, &send, &check);
                scope.spawn(move || {
                    let mut spans = Vec::new();
                    loop {
                        let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if k >= count {
                            return spans;
                        }
                        let index = first + k;
                        let start = t0.elapsed().as_secs_f64();
                        let reply = send(client, index);
                        let end = t0.elapsed().as_secs_f64();
                        let ok = reply.is_some_and(|r| check(index, r));
                        spans.push(Span {
                            class: class_of(index),
                            index,
                            due: start,
                            start,
                            end,
                            ok,
                        });
                    }
                })
            })
            .collect();
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().expect("generator thread"))
            .collect()
    })
}

/// Evenly spaced due times at `rate` per second over `[from, from+secs)`,
/// dealt round-robin to `lanes` connections. Classes come from `class_of`.
pub fn schedule(
    from: f64,
    secs: f64,
    rate: f64,
    lanes: usize,
    first_index: usize,
    mut class_of: impl FnMut(usize) -> usize,
) -> Vec<Vec<Due>> {
    let count = (secs * rate).round() as usize;
    let mut out = vec![Vec::new(); lanes];
    for k in 0..count {
        let index = first_index + k;
        out[k % lanes].push(Due {
            at: from + k as f64 / rate,
            class: class_of(index),
            index,
        });
    }
    out
}

/// Latencies (ms) of the spans of `class` (`None` = all), failures
/// excluded from the distribution.
pub fn latencies_ms(spans: &[Span], class: Option<usize>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.ok && class.is_none_or(|c| s.class == c))
        .map(|s| s.latency() * 1e3)
        .collect()
}

/// `{"p50": …, "<tail stat>": …, "samples": n}` for latencies in ms.
pub fn summary(lat: &[f64]) -> String {
    let (tail, stat) = crate::stats::tail(lat);
    format!(
        "{{\"p50\": {}, \"{stat}\": {}, \"samples\": {}}}",
        crate::stats::json_number(crate::stats::median(lat)),
        crate::stats::json_number(tail),
        lat.len()
    )
}

/// Generator lateness (ms) of every span.
pub fn late_ms(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(|s| s.late() * 1e3).collect()
}
