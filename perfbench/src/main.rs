//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <metro-offline|serve-cached|serve-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every layer is measured from outside, by timing calls into the
//! crates' public functions and by reading `Status` counter deltas; the
//! program itself carries no instrumentation. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end sheet with `--trace 0`, the per-layer sheet
//! with `--trace 1`). The line before it is the run record: seed,
//! `nproc`, commit, run length, sample counts and the per-class figures
//! behind the end-to-end metrics. See README.md.

mod cached;
mod layers;
mod loadgen;
mod mixed;
mod offline;
mod stats;

use std::process::ExitCode;

use stats::{Kind, Sheet};

/// Everything one workload run reports.
pub struct RunOutput {
    /// End-to-end metrics (tracing off, or the traced pass of a traced run).
    pub e2e: Sheet,
    /// Operations attempted and failed (a typed error, an `Overloaded`
    /// refusal or a failed output check counts as failed).
    pub attempted: u64,
    pub failed: u64,
    /// Extra `"key": value` JSON pairs for the run record.
    pub record: Vec<(String, String)>,
    /// Status-counter deltas and load-generator figures of the run, for
    /// the per-layer sheet.
    pub counters: Sheet,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 || seconds > 120 {
        return Err("--seconds must be in 1..=120".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The commit under test: `git rev-parse HEAD` when the checkout is a
/// git repository. An exported source tree has no git metadata, so
/// there it is an FNV-1a digest of the library sources, which still
/// tells two trees apart.
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        let head = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = head {
            let head = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if out.status.success() && !head.is_empty() {
                return head;
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = rl_math::fingerprint::Fnv1a::new();
    for path in &files {
        h.write_str(&path.to_string_lossy());
        h.write_str(&std::fs::read_to_string(path).unwrap_or_default());
    }
    format!("src-{:016x}", h.finish())
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th seed of a family of inputs (`domain`) derived from the
/// workload seed. The workload seed is mixed before `k` is folded in,
/// so nearby workload seeds do not share members.
pub fn derive(seed: u64, domain: u64, k: u64) -> u64 {
    splitmix(splitmix(seed ^ domain) ^ k)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "metro-offline" => offline::run,
        "serve-cached" => cached::run,
        "serve-mixed" => mixed::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let out = run(args.seed, args.seconds, args.trace);

    let mut sheet = out.e2e;
    let rss = stats::peak_rss_mb();
    sheet.measured("peak_rss_mb", rss, "MB", 1);
    let mut attempted = out.attempted;
    let mut failed = out.failed;
    if args.trace {
        let miss_ms = out.counters.get("loadgen.miss_ms.p50").unwrap_or(0.0);
        let panel = layers::panel(args.seed, miss_ms);
        attempted += panel.attempted;
        failed += panel.failed;
        let mut per_layer = panel.sheet;
        per_layer.metrics.extend(out.counters.metrics);
        for m in &sheet.metrics {
            per_layer.push(
                &format!("traced.{}", m.name),
                m.value,
                m.unit,
                m.kind,
                m.samples,
            );
        }
        sheet = per_layer;
    }

    // A non-finite figure is a fault the output checks missed: it counts
    // as a failed operation and prints as 0 rather than aborting the run.
    for m in &mut sheet.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: {} is not finite", m.name);
            failed += 1;
            m.value = 0.0;
        }
    }
    let correct = failed == 0;
    let mut record = vec![
        ("workload".to_string(), format!("\"{}\"", args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("nproc".to_string(), nproc().to_string()),
        ("commit".to_string(), format!("\"{}\"", commit())),
        (
            "ops_failed_frac".to_string(),
            stats::json_number(failed as f64 / attempted.max(1) as f64),
        ),
    ];
    record.extend(out.record);
    let samples: Vec<String> = sheet
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.samples))
        .collect();
    record.push(("samples".to_string(), format!("{{{}}}", samples.join(", "))));
    let kinds: Vec<String> = sheet
        .metrics
        .iter()
        .filter(|m| m.kind != Kind::Measured)
        .map(|m| format!("\"{}\": \"{}\"", m.name, m.kind.label()))
        .collect();
    record.push((
        "not_measured".to_string(),
        format!("{{{}}}", kinds.join(", ")),
    ));

    print!(
        "{}",
        sheet.table(if args.trace { "layer" } else { "metric" })
    );
    let record: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"record\": {{{}}}}}", record.join(", "));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        sheet.to_json()
    );
    ExitCode::SUCCESS
}
