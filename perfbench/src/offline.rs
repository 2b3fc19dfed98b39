//! `metro-offline`: serial in-process solves of fresh metro-1000
//! instances by the four metro solver families, with the configurations
//! the server's registry builds (`rl_serve::server::make_solver`).

use std::time::Instant;

use rl_deploy::presets::PRESET_SEED;
use rl_deploy::Scenario;
use rl_serve::server::make_solver;

use crate::layers::Traffic;
use crate::loadgen;
use crate::stats::{self, Sheet};
use crate::RunOutput;

/// `(metric suffix, registry name, error ceiling in meters)`. Each
/// ceiling sits well above the family's observed error on metro-1000
/// (about 0.15, 0.15, 1.4 and 4.1 m) and far below a broken solve.
pub const FAMILIES: [(&str, &str, f64); 4] = [
    ("lss", "lss", 0.5),
    ("distributed_lss", "distributed-lss", 0.5),
    ("mds_map", "mds-map", 2.5),
    ("dv_hop", "dv-hop", 6.0),
];

/// Wall seconds one four-family panel takes on a 2-core x86-64 host;
/// sizes the fixed number of panels a run solves, so the work (and
/// `mean_error_m`) is a function of `--seed` and `--seconds` only.
const PANEL_SECONDS: f64 = 7.5;

/// Instantiations timed for `setup_s` before each panel, each on its own
/// seed: the first is the panel's instance and the rest are discarded.
/// Spread over the run like the solves, the samples follow the host's
/// speed over the whole run rather than over its first second, and the
/// median of all of them is reported.
const SETUP_PER_PANEL: usize = 7;

/// The instantiation seed of panel `k` for workload seed `seed`.
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    crate::derive(seed, 0x6d65_7472_6f00_0000, k as u64)
}

pub fn panels(seconds: u64) -> usize {
    ((seconds as f64 / PANEL_SECONDS).round() as usize).max(1)
}

pub fn run(seed: u64, seconds: u64, _trace: bool) -> RunOutput {
    let panels = panels(seconds);
    let t0 = Instant::now();

    let mut solve_s: Vec<Vec<f64>> = vec![Vec::new(); FAMILIES.len()];
    let mut cpu_s: Vec<Vec<f64>> = vec![Vec::new(); FAMILIES.len()];
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setup = Vec::new();
    for k in 0..panels {
        // Set-up: the metro map plus the panel's instantiation, then
        // further instantiations (discarded) for the median's samples.
        let mut problem = None;
        for r in 0..SETUP_PER_PANEL {
            let start = Instant::now();
            let scenario = Scenario::metro(PRESET_SEED);
            let instance = scenario.instantiate(instance_seed(seed, k * SETUP_PER_PANEL + r));
            setup.push(stats::secs(start));
            problem.get_or_insert(instance);
        }
        let problem = problem.expect("at least one instantiation per panel");
        for (f, &(_, name, ceiling)) in FAMILIES.iter().enumerate() {
            attempted += 1;
            let solver = make_solver(name).expect("registry family");
            let mut rng = rl_math::rng::seeded(instance_seed(seed, k * SETUP_PER_PANEL));
            let cpu0 = stats::cpu_s();
            let start = stats::secs(t0);
            let result = std::hint::black_box(solver.localize(&problem, &mut rng));
            let end = stats::secs(t0);
            let cpu = stats::cpu_s() - cpu0;
            let ok = match result.and_then(|s| problem.evaluate(&s)) {
                Ok(eval) if eval.mean_error.is_finite() && eval.mean_error <= ceiling => {
                    errors.push(eval.mean_error);
                    true
                }
                Ok(eval) => {
                    eprintln!(
                        "metro-offline: {name} on instance {k} erred {:.3} m (ceiling {ceiling} m)",
                        eval.mean_error
                    );
                    false
                }
                Err(e) => {
                    eprintln!("metro-offline: {name} on instance {k} failed: {e}");
                    false
                }
            };
            if ok {
                solve_s[f].push(end - start);
                cpu_s[f].push(cpu);
            } else {
                failed += 1;
            }
        }
    }

    // Each family weighs the same in the geometric means, so a change to
    // any one family moves them by a quarter of its own relative change.
    let wall: Vec<f64> = solve_s.iter().map(|v| stats::median(v)).collect();
    let cpu: Vec<f64> = cpu_s.iter().map(|v| stats::median(v)).collect();
    let solves: usize = solve_s.iter().map(Vec::len).sum();
    let busy: f64 = solve_s.iter().flatten().sum();

    let mut e2e = Sheet::default();
    e2e.measured("setup_s", stats::median(&setup), "s", setup.len());
    e2e.measured("mean_error_m", stats::mean(&errors), "m", errors.len());
    e2e.derived("cpu_ms_per_op", stats::geomean(&cpu) * 1e3, "ms", solves);
    e2e.derived(
        "throughput_per_s",
        1.0 / stats::geomean(&wall).max(1e-9),
        "1/s",
        solves,
    );

    let mut record = vec![
        ("panels".to_string(), panels.to_string()),
        ("measured_s".to_string(), stats::json_number(busy)),
    ];
    let mut traffic = Traffic::default();
    for (f, &(suffix, _, _)) in FAMILIES.iter().enumerate() {
        traffic.solve_s[f] = wall[f];
        let ms: Vec<f64> = solve_s[f].iter().map(|s| s * 1e3).collect();
        record.push((format!("solve_ms.{suffix}"), loadgen::summary(&ms)));
        record.push((format!("cpu_ms.{suffix}"), stats::json_number(cpu[f] * 1e3)));
    }
    RunOutput {
        e2e,
        attempted,
        failed,
        record,
        counters: crate::layers::server_counters(None, &[], &traffic),
    }
}
