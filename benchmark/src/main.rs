//! The repository's benchmark.
//!
//! ```text
//! evlin-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--quick] [--scratch-dir <dir>]
//!     Measures one workload in this process and prints, as the last line of
//!     standard output, one JSON object {correct, attempted, failed, metrics}:
//!     the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
//!
//! evlin-benchmark run [--seed <n>] [--seconds <s>] [--repeat <k>] [--quick] [--trace]
//!     Runs every workload in its own child process (so peak_rss_mb is per
//!     workload), prints every metric by name with its unit, and writes
//!     benchmark/out/run-<k>.json.  With --repeat 2 the two sets are compared.
//!
//! evlin-benchmark compare <A.json> <B.json>
//!     One row per workload × metric: both values, the relative difference and
//!     the bound; exits 1 if an end-to-end metric differs by more than its bound.
//! ```

mod catalog;
mod gen;
mod json;
mod layers;
mod proc;
mod stats;
mod trace;
mod workloads;

use catalog::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Options, Outcome};

/// `benchmark/`, wherever the checkout lives.
fn home() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn out_dir() -> PathBuf {
    home().join("out")
}

/// `--flag value` pairs and bare switches, in any order.
struct Args(Vec<String>);

impl Args {
    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        let raw = self.0.remove(at + 1);
        self.0.remove(at);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot read `{raw}`"))
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("run") | Some("compare") => argv.remove(0),
        _ => "one".to_string(),
    };
    let result = match command.as_str() {
        "run" => run_all(Args(argv)),
        "compare" => match argv.as_slice() {
            [a, b] => compare_files(Path::new(a), Path::new(b)),
            _ => Err("usage: compare <A.json> <B.json>".to_string()),
        },
        _ => run_one(Args(argv)).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("evlin-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------------

/// Where the workloads keep journals and spill runs: one directory, emptied
/// and removed when the guard drops (normal exit or unwinding panic).
struct Scratch(PathBuf);

impl Scratch {
    fn create(dir: &Path) -> std::io::Result<Scratch> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        Ok(Scratch(dir.to_path_buf()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_one(mut args: Args) -> Result<(), String> {
    let workload: String = args.value("--workload")?.ok_or("--workload is required")?;
    let trace = match args.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let quick = args.switch("--quick");
    let scratch_dir = args
        .value::<PathBuf>("--scratch-dir")?
        .unwrap_or_else(|| out_dir().join(format!("scratch-{}", std::process::id())));
    let options = Options {
        workload,
        seed: args.value("--seed")?.unwrap_or(1),
        seconds: args
            .value("--seconds")?
            .unwrap_or(if quick { 0.2 } else { 10.0 }),
        trace,
        quick,
        scratch: scratch_dir.clone(),
        trace_dir: out_dir(),
    };
    args.done()?;
    // Journals and spill runs live under one scratch directory inside the
    // checkout, removed on exit and on panic.  The spill store asks the
    // standard library for a temporary directory, so point that here too.
    let scratch = Scratch::create(&scratch_dir)
        .map_err(|e| format!("cannot create {}: {e}", scratch_dir.display()))?;
    std::env::set_var("TMPDIR", &scratch.0);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = std::fs::remove_dir_all(&scratch_dir);
        default_hook(info);
    }));

    println!(
        "workload {} seed {} seconds {} trace {} quick {}",
        options.workload,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.quick,
    );
    let outcome = workloads::run(&options)?;
    drop(scratch);
    for note in &outcome.notes {
        println!("  {note}");
    }
    let specs = if options.trace { PER_LAYER } else { END_TO_END };
    for spec in specs {
        println!(
            "  {:<36} {:>16.4} {:<6} ({} is better)",
            spec.name, outcome.metrics[spec.name], spec.unit, spec.better
        );
    }
    println!("{}", result_line(&outcome, specs));
    Ok(())
}

fn result_line(outcome: &Outcome, specs: &[MetricSpec]) -> Json {
    Json::object([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted as f64)),
        ("failed", Json::from(outcome.failed as f64)),
        (
            "metrics",
            Json::object(specs.iter().map(|spec| {
                (
                    spec.name,
                    Json::object([
                        ("value", Json::from(outcome.metrics[spec.name])),
                        ("unit", Json::from(spec.unit)),
                    ]),
                )
            })),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Every workload, each in a child process
// ---------------------------------------------------------------------------

fn manifest() -> Result<Json, String> {
    let path = home().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text)
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        command.arg("--quick");
    }
    // `output` waits for the child, so no process outlives this call.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("    {line}");
    }
    if !output.status.success() {
        return Err(format!(
            "the {workload} child failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Json::parse(last).map_err(|e| format!("the {workload} child printed no result: {e}"))
}

fn run_all(mut args: Args) -> Result<bool, String> {
    let quick = args.switch("--quick");
    let trace = args.switch("--trace");
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let repeat: usize = args.value("--repeat")?.unwrap_or(1).max(1);
    let declared = manifest()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let seconds: f64 = args
        .value("--seconds")?
        .unwrap_or(if quick { 0.2 } else { declared });
    args.done()?;
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "machine: nproc {} | kernel {} | seed {seed} | {seconds} s per workload{}",
        proc::nproc(),
        kernel.trim(),
        if quick { " | QUICK (1/50 size)" } else { "" }
    );
    let mut files = Vec::new();
    let mut all_correct = true;
    for set in 1..=repeat {
        let mut results = Vec::new();
        for spec in WORKLOADS {
            println!("[set {set}/{repeat}] {} — {}", spec.name, spec.why);
            let mut result = child(spec.name, seed, seconds, false, quick)?;
            if trace {
                let layers = child(spec.name, seed, seconds, true, quick)?;
                all_correct &= layers.get("correct").and_then(Json::as_bool) == Some(true);
                if let (Json::Object(fields), Some(metrics)) = (&mut result, layers.get("metrics"))
                {
                    fields.push(("layers".to_string(), metrics.clone()));
                }
            }
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            results.push((spec.name, result));
        }
        let file = out_dir().join(format!("run-{set}.json"));
        let body = Json::object([
            ("seed", Json::from(seed as f64)),
            ("seconds", Json::from(seconds)),
            ("nproc", Json::from(proc::nproc() as f64)),
            ("kernel", Json::from(kernel.trim())),
            ("workloads", Json::object(results)),
        ]);
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&file, format!("{body}\n")))
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        println!("wrote {}", file.display());
        files.push(file);
    }
    println!(
        "reference checks: {}",
        if all_correct { "all passed" } else { "FAILED" }
    );
    let agree = match files.as_slice() {
        [.., a, b] => compare_files(a, b)?,
        _ => true,
    };
    Ok(all_correct && agree)
}

// ---------------------------------------------------------------------------
// Comparing two result files
// ---------------------------------------------------------------------------

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))
            .and_then(|text| Json::parse(&text))
    };
    let bounds: Vec<(String, f64)> = manifest()?
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let (rows, within) = compare(&read(a)?, &read(b)?, &bounds);
    println!(
        "{:<14} {:<34} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    println!(
        "{}",
        if within {
            "every end-to-end metric agrees within its bound"
        } else {
            "OUT OF BOUND: at least one end-to-end metric differs by more than its bound"
        }
    );
    Ok(within)
}

/// One row per workload × metric present in both files; the flag is false if
/// any *end-to-end* metric differs, in either direction, by more than its
/// bound.  Per-layer metrics have no bound and never fail the comparison.
fn compare(a: &Json, b: &Json, bounds: &[(String, f64)]) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut within = true;
    let empty: &[(String, Json)] = &[];
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .unwrap_or(empty);
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for section in ["metrics", "layers"] {
            let metrics = in_a.get(section).and_then(Json::as_object).unwrap_or(empty);
            for (name, value_a) in metrics {
                let value = |v: &Json| v.get("value").and_then(Json::as_f64);
                let (Some(x), Some(y)) = (
                    value(value_a),
                    in_b.get(section).and_then(|m| m.get(name)).and_then(value),
                ) else {
                    continue;
                };
                let diff = if x == y { 0.0 } else { (y - x) / x.abs() };
                let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
                let out = bound.is_some_and(|bound| diff.abs() > bound);
                within &= !out;
                rows.push(format!(
                    "{workload:<14} {name:<34} {x:>16.4} {y:>16.4} {:>+8.1}% {:>7}{}",
                    diff * 100.0,
                    bound.map_or("—".to_string(), |b| format!("{:.0}%", b * 100.0)),
                    if out { "  OUT OF BOUND" } else { "" }
                ));
            }
        }
    }
    (rows, within)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(wall: f64, frames: f64) -> Json {
        let metric = |v: f64| Json::object([("value", Json::from(v)), ("unit", Json::from("x"))]);
        Json::object([(
            "workloads",
            Json::object([(
                "svc_wide",
                Json::object([
                    ("metrics", Json::object([("rep_wall_ms", metric(wall))])),
                    ("layers", Json::object([("channel.frames", metric(frames))])),
                ]),
            )]),
        )])
    }

    #[test]
    fn compare_flags_only_bounded_metrics_in_either_direction() {
        let bounds = vec![("rep_wall_ms".to_string(), 0.10)];
        let (rows, within) = compare(&file(100.0, 10.0), &file(105.0, 99.0), &bounds);
        assert_eq!(rows.len(), 2);
        assert!(within, "5% is inside a 10% bound; layers have none");
        let (rows, within) = compare(&file(100.0, 10.0), &file(120.0, 10.0), &bounds);
        assert!(!within && rows[0].contains("OUT OF BOUND"));
        let (_, within) = compare(&file(100.0, 10.0), &file(80.0, 10.0), &bounds);
        assert!(
            !within,
            "an unexplained 20% gain between two runs is a disagreement too"
        );
    }

    #[test]
    fn args_take_flags_in_any_order_and_reject_leftovers() {
        let mut args = Args(
            ["--seed", "7", "--quick", "--workload", "x"]
                .map(String::from)
                .to_vec(),
        );
        assert!(args.switch("--quick") && !args.switch("--quick"));
        assert_eq!(args.value::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(args.value::<u64>("--seconds"), Ok(None));
        assert!(Args(vec!["--seed".into()]).value::<u64>("--seed").is_err());
        assert!(args.done().is_err(), "--workload x is left over");
    }
}
