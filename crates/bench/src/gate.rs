//! The one gate harness every release smoke bin reports through.
//!
//! A bin checks each measurement through a [`Gates`] collector —
//! [`Gates::at_most`], [`Gates::at_least`], or [`Gates::holds`] for
//! yes/no contracts — which prints one pass line or `GATE FAILED <name>:
//! <diagnosis>` per check, and runs every check even after one failed.
//! [`Gates::finish`] writes `BENCH_<bin>.json` in the shared schema
//! `{bin, nproc, gates: [{name, observed, bound, unit, ok}], detail}`
//! (`detail` is the bin's per-cell / per-tick / per-phase payload) and
//! returns a failing [`ExitCode`] if any gate or the write failed.
//!
//! A non-finite `observed` (`null` in JSON) fails, so a missing
//! measurement is recorded as `f64::NAN`. Boolean gates record
//! `observed` 1 (holds) or 0 against `bound` 1.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::campaign::CampaignReport;

/// One named check: what was observed, the bound it was held to, and
/// whether it passed.
#[derive(Debug, Serialize)]
struct Gate {
    name: String,
    observed: f64,
    bound: f64,
    unit: &'static str,
    ok: bool,
}

/// Collects a bin's gates and writes its `BENCH_<bin>.json` record.
#[derive(Debug)]
pub struct Gates {
    bin: String,
    path: PathBuf,
    gates: Vec<Gate>,
}

impl Gates {
    /// A collector for the record `BENCH_<bin>.json` in the working
    /// directory.
    pub fn new(bin: &str) -> Self {
        Gates::writing_to(bin, format!("BENCH_{bin}.json"))
    }

    fn writing_to(bin: &str, path: impl Into<PathBuf>) -> Self {
        Gates {
            bin: bin.to_string(),
            path: path.into(),
            gates: Vec::new(),
        }
    }

    /// Passes when `observed` is finite and `observed <= bound`.
    pub fn at_most(
        &mut self,
        name: &str,
        observed: f64,
        bound: f64,
        unit: &'static str,
        diagnosis: &str,
    ) -> bool {
        let ok = observed.is_finite() && observed <= bound;
        self.record(name, observed, bound, unit, ok, diagnosis)
    }

    /// Passes when `observed` is finite and `observed >= bound`.
    pub fn at_least(
        &mut self,
        name: &str,
        observed: f64,
        bound: f64,
        unit: &'static str,
        diagnosis: &str,
    ) -> bool {
        let ok = observed.is_finite() && observed >= bound;
        self.record(name, observed, bound, unit, ok, diagnosis)
    }

    /// Passes when `ok` is true.
    pub fn holds(&mut self, name: &str, ok: bool, diagnosis: &str) -> bool {
        let observed = if ok { 1.0 } else { 0.0 };
        self.record(name, observed, 1.0, "bool", ok, diagnosis)
    }

    /// The `every-cell-solves` gate: no run of `report` returned an
    /// error.
    pub fn every_cell_solves(&mut self, report: &CampaignReport) -> bool {
        let failures: Vec<String> = report
            .runs
            .iter()
            .filter_map(|run| {
                let e = run.outcome.as_ref().err()?;
                Some(format!("{} on {}: {e}", run.localizer, run.scenario))
            })
            .collect();
        let diagnosis = format!("SOLVER FAILURE: {}", failures.join("; "));
        self.holds("every-cell-solves", failures.is_empty(), &diagnosis)
    }

    fn record(
        &mut self,
        name: &str,
        observed: f64,
        bound: f64,
        unit: &'static str,
        ok: bool,
        diagnosis: &str,
    ) -> bool {
        let check = match unit {
            "bool" => String::new(),
            _ => format!(
                " ({} {unit} against bound {} {unit})",
                num(observed),
                num(bound)
            ),
        };
        if ok {
            println!("gate {name}: ok{check}");
        } else {
            eprintln!("GATE FAILED {name}: {diagnosis}{check}");
        }
        let name = name.to_string();
        self.gates.push(Gate {
            name,
            observed,
            bound,
            unit,
            ok,
        });
        ok
    }

    /// Writes `{bin, nproc, gates, detail}` to the bin's record and
    /// returns [`ExitCode::FAILURE`] if any gate failed or the write did.
    pub fn finish(self, detail: impl Serialize) -> ExitCode {
        #[derive(Serialize)]
        struct Record<D> {
            bin: String,
            nproc: usize,
            gates: Vec<Gate>,
            detail: D,
        }
        let Gates { bin, path, gates } = self;
        let record = Record {
            bin,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            gates,
            detail,
        };
        let json = serde_json::to_string(&record).expect("BENCH record serializes");
        let written = match std::fs::write(&path, &json) {
            Ok(()) => {
                println!("wrote {} ({} bytes)", path.display(), json.len());
                true
            }
            Err(e) => {
                eprintln!("FAILED to write {}: {e}", path.display());
                false
            }
        };
        let (bin, total) = (&record.bin, record.gates.len());
        let failed = record.gates.iter().filter(|g| !g.ok).count();
        if failed == 0 && written {
            println!("{bin}: all {total} gates passed");
            ExitCode::SUCCESS
        } else {
            eprintln!("{bin}: {failed} of {total} gates failed");
            ExitCode::FAILURE
        }
    }
}

/// Compact rendering of a gate value for the log lines.
fn num(x: f64) -> String {
    if x == 0.0 || (1e-3..1e6).contains(&x.abs()) {
        format!("{x:.3}")
    } else {
        format!("{x:.3e}")
    }
}

/// How long smoke bins wait on a server condition before declaring the
/// server wedged.
pub const WAIT_DEADLINE: Duration = Duration::from_secs(30);

/// Polls `probe` every 2 ms until it holds (`true`) or `deadline` has
/// passed (`false`), so a wedged server fails a gate instead of hanging
/// the bin.
pub fn wait_until(deadline: Duration, mut probe: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    loop {
        if probe() {
            return true;
        }
        if started.elapsed() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The `p`-quantile (`0.0..=1.0`, nearest rank) of ascending, non-empty
/// `sorted`.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Whether two position lists agree bit for bit (`f64::to_bits` on both
/// coordinates), including which nodes are unlocalized.
pub fn positions_bit_identical(a: &[Option<(f64, f64)>], b: &[Option<(f64, f64)>]) -> bool {
    let bits = |p: &Option<(f64, f64)>| p.map(|(x, y)| (x.to_bits(), y.to_bits()));
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| bits(p) == bits(q))
}

/// One campaign cell in a record's `detail`: its wall time and quality.
#[derive(Debug, Serialize)]
pub struct CellRecord {
    scenario: String,
    localizer: String,
    wall_ms: f64,
    mean_error_m: Option<f64>,
    localized: Option<usize>,
    nodes: Option<usize>,
    ok: bool,
}

/// Every run of `report` as a [`CellRecord`], in grid order.
pub fn cell_records(report: &CampaignReport) -> Vec<CellRecord> {
    report
        .runs
        .iter()
        .map(|run| {
            let eval = run
                .outcome
                .as_ref()
                .ok()
                .and_then(|o| o.evaluation.as_ref());
            CellRecord {
                scenario: run.scenario.clone(),
                localizer: run.localizer.clone(),
                wall_ms: run.wall_time.as_secs_f64() * 1e3,
                mean_error_m: eval.map(|e| e.mean_error),
                localized: eval.map(|e| e.localized),
                nodes: eval.map(|e| e.total),
                ok: run.outcome.is_ok(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct ReadGate {
        name: String,
        observed: Option<f64>,
        bound: f64,
        unit: String,
        ok: bool,
    }

    #[derive(Deserialize)]
    struct ReadRecord {
        bin: String,
        nproc: usize,
        gates: Vec<ReadGate>,
        detail: Option<Vec<u32>>,
    }

    /// A collector writing into a per-test file in the system temp dir.
    fn scratch(test: &str) -> (Gates, PathBuf) {
        let path =
            std::env::temp_dir().join(format!("rl-bench-gate-{test}-{}.json", std::process::id()));
        (Gates::writing_to(test, &path), path)
    }

    fn read(path: &std::path::Path) -> ReadRecord {
        let text = std::fs::read_to_string(path).expect("record written");
        std::fs::remove_file(path).expect("remove record");
        serde_json::from_str(&text).expect("record parses")
    }

    #[test]
    fn passing_gates_write_the_shared_schema_and_succeed() {
        let (mut gates, path) = scratch("pass");
        assert!(gates.at_most("wall-s", 1.5, 2.0, "s", "too slow"));
        assert!(gates.at_least("rps", 300.0, 200.0, "req/s", "too few"));
        assert!(gates.holds("bit-identical", true, "diverged"));
        assert_eq!(gates.finish(vec![7u32, 8]), ExitCode::SUCCESS);

        let record = read(&path);
        assert_eq!(record.bin, "pass");
        assert!(record.nproc >= 1);
        assert_eq!(record.detail, Some(vec![7, 8]));
        let names: Vec<&str> = record.gates.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, ["wall-s", "rps", "bit-identical"]);
        let wall = &record.gates[0];
        assert_eq!(
            (wall.observed, wall.bound, wall.unit.as_str()),
            (Some(1.5), 2.0, "s")
        );
        let holds = &record.gates[2];
        assert_eq!(
            (holds.observed, holds.bound, holds.unit.as_str()),
            (Some(1.0), 1.0, "bool")
        );
        assert!(record.gates.iter().all(|g| g.ok));
    }

    #[test]
    fn any_failed_check_fails_finish_and_records_ok_false() {
        type Check = fn(&mut Gates) -> bool;
        let checks: [(&str, Check); 3] = [
            ("at-most", |g| g.at_most("g", 2.5, 2.0, "s", "over")),
            ("at-least", |g| {
                g.at_least("g", 150.0, 200.0, "req/s", "under")
            }),
            ("holds", |g| g.holds("g", false, "broken")),
        ];
        for (label, check) in checks {
            let (mut gates, path) = scratch(label);
            assert!(gates.holds("passing", true, "unused"));
            assert!(!check(&mut gates), "{label} must fail");
            assert!(
                gates.holds("later", true, "unused"),
                "later gates still run"
            );
            assert_eq!(gates.finish(()), ExitCode::FAILURE, "{label}");
            let record = read(&path);
            let oks: Vec<bool> = record.gates.iter().map(|g| g.ok).collect();
            assert_eq!(oks, [true, false, true], "{label}");
        }
    }

    #[test]
    fn non_finite_observations_fail_both_comparisons() {
        let mut gates = Gates::writing_to("nonfinite", "unused.json");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!gates.at_most("m", x, 2.0, "m", "missing"), "{x} <= 2");
            assert!(!gates.at_least("m", x, 2.0, "m", "missing"), "{x} >= 2");
            assert!(
                !gates.at_most("m", x, f64::INFINITY, "m", "missing"),
                "{x} <= inf"
            );
            assert!(
                !gates.at_least("m", x, f64::NEG_INFINITY, "m", "missing"),
                "{x} >= -inf"
            );
        }
    }

    #[test]
    fn equality_passes_both_comparisons() {
        let mut gates = Gates::writing_to("equal", "unused.json");
        assert!(gates.at_most("m", 2.0, 2.0, "m", "over"));
        assert!(gates.at_least("x", 3.0, 3.0, "x", "under"));
    }

    #[test]
    fn non_finite_observations_serialize_as_null() {
        let (mut gates, path) = scratch("null");
        gates.at_most("missing", f64::NAN, 2.0, "m", "no evaluation");
        assert_eq!(gates.finish(()), ExitCode::FAILURE);
        let record = read(&path);
        assert_eq!(record.gates[0].observed, None);
        assert!(!record.gates[0].ok);
    }

    #[test]
    fn unwritable_record_fails_finish_even_when_every_gate_passes() {
        let dir =
            std::env::temp_dir().join(format!("rl-bench-gate-missing-{}", std::process::id()));
        let mut gates = Gates::writing_to("unwritable", dir.join("no/such/dir/BENCH.json"));
        assert!(gates.holds("fine", true, "unused"));
        assert_eq!(gates.finish(()), ExitCode::FAILURE);
    }

    #[test]
    fn wait_until_gives_up_at_its_deadline() {
        let started = Instant::now();
        assert!(!wait_until(Duration::from_millis(40), || false));
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(40), "{waited:?}");
        assert!(waited < Duration::from_secs(5), "{waited:?}");

        let mut polls = 0;
        assert!(wait_until(Duration::from_secs(5), || {
            polls += 1;
            polls == 3
        }));
    }

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&sorted, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&sorted, 0.5), Duration::from_millis(51));
        assert_eq!(percentile(&sorted, 0.99), Duration::from_millis(99));
        assert_eq!(percentile(&sorted, 1.0), Duration::from_millis(100));
    }

    #[test]
    fn positions_compare_at_the_bit_level() {
        let a = [Some((1.0, -2.0)), None];
        assert!(positions_bit_identical(&a, &a));
        assert!(!positions_bit_identical(&a, &[Some((1.0, -2.0))]));
        assert!(!positions_bit_identical(
            &a,
            &[Some((1.0, -2.0)), Some((0.0, 0.0))]
        ));
        // -0.0 == 0.0 as floats, but not bit for bit.
        assert!(!positions_bit_identical(
            &[Some((0.0, 0.0))],
            &[Some((-0.0, 0.0))]
        ));
    }
}
