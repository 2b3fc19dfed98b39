//! Release-mode smoke test for the parallel campaign path; run by CI.
//!
//! ```text
//! cargo run --release -p rl-bench --bin campaign_smoke
//! ```
//!
//! Executes a multi-cell (scenarios × localizers × seeds) grid three
//! ways — serial, auto-sized pool, 4 workers — and gates on all three
//! reports being **bit-identical** (`schedules-bit-identical`, the
//! determinism contract documented in `rl_bench::campaign`). Each
//! schedule's end-to-end wall time and the observed serial-vs-parallel
//! speedup go to the `detail` of `BENCH_campaign.json`.
//!
//! The speedup line is informational, not a gate: the multi-core CI
//! runner is where worker-pool scaling is actually observable (a 1-core
//! dev container reports ~1×), so CI logs double as the scaling record
//! the ROADMAP asks for.

use std::process::ExitCode;

use rl_bench::campaign::{Campaign, CampaignConfig};
use rl_bench::gate::Gates;
use rl_bench::MASTER_SEED;
use rl_core::baselines::{CentroidLocalizer, DvHopLocalizer};
use rl_core::multilateration::{MultilaterationConfig, MultilaterationSolver};
use rl_deploy::Scenario;
use rl_net::RadioModel;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ScheduleRecord {
    schedule: &'static str,
    workers: usize,
    cells: usize,
    wall_ms: f64,
    fingerprint: String,
}

/// The `detail` of `BENCH_campaign.json`.
#[derive(Debug, Serialize)]
struct Detail {
    seed: u64,
    schedules: Vec<ScheduleRecord>,
    /// Serial wall over the fastest multi-worker schedule's wall; `None`
    /// when every schedule collapsed to one worker.
    speedup: Option<f64>,
}

fn main() -> ExitCode {
    let mut gates = Gates::new("campaign");
    let campaign = Campaign::new()
        .scenario(Scenario::town(MASTER_SEED))
        .scenario(Scenario::metro_sized(250, 0.10, MASTER_SEED))
        .localizer(Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        )))
        .localizer(Box::new(DvHopLocalizer::new(RadioModel::ideal(22.0))))
        .localizer(Box::new(CentroidLocalizer::new(22.0)))
        .trials(MASTER_SEED, 2);

    let schedules = [
        ("serial", CampaignConfig::serial()),
        ("auto", CampaignConfig::default()),
        ("workers4", CampaignConfig::default().with_workers(4)),
    ];
    let mut records = Vec::new();
    for (schedule, config) in schedules {
        let report = campaign.run_with(config);
        let record = ScheduleRecord {
            schedule,
            workers: report.workers,
            cells: report.runs.len(),
            wall_ms: report.total_wall.as_secs_f64() * 1e3,
            fingerprint: format!("{:#018x}", report.fingerprint()),
        };
        println!(
            "{schedule:14} workers={} cells={} wall={:.1} ms fingerprint={}",
            record.workers, record.cells, record.wall_ms, record.fingerprint,
        );
        records.push(record);
    }
    let identical = records
        .iter()
        .all(|r| (&r.fingerprint, r.cells) == (&records[0].fingerprint, records[0].cells));
    gates.holds(
        "schedules-bit-identical",
        identical,
        "DETERMINISM VIOLATION: every schedule must reproduce the serial report's fingerprint \
         and cell count (see the schedule lines above)",
    );

    // Observed worker-pool scaling: only meaningful on a multi-core
    // runner (CI), where this line is the recorded evidence that the
    // sharded campaign actually speeds up end-to-end.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial_ms = records[0].wall_ms;
    let best_parallel = records
        .iter()
        .filter(|r| r.workers > 1)
        .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    let speedup = best_parallel.map(|p| {
        let speedup = serial_ms / p.wall_ms.max(1e-6);
        println!(
            "serial-vs-parallel speedup: {speedup:.2}x ({serial_ms:.1} ms serial vs {:.1} ms `{}` \
             with {} workers on a {cores}-core runner)",
            p.wall_ms, p.schedule, p.workers,
        );
        speedup
    });
    if speedup.is_none() {
        println!("serial-vs-parallel speedup: n/a (every schedule collapsed to one worker)");
    }

    gates.finish(Detail {
        seed: MASTER_SEED,
        schedules: records,
        speedup,
    })
}
