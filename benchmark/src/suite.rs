//! The suite commands: `run` (end-to-end metrics with their noise floor),
//! `trace` (per-layer metrics and span files) and `selfcheck` (two full
//! sets fed to `compare`: the A/A gate).
//!
//! Every measurement is one child process — the same contract-mode
//! invocation the driver makes — so `VmHWM` is per workload and a repeat
//! never inherits a warm heap. Repeats are interleaved round-robin
//! `A B C D A B C D …` so machine drift spreads over all workloads.

use crate::json::{self, Json};
use crate::spec::{Kind, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, spread};
use crate::workload::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Clone)]
pub struct SuiteOpts {
    pub seed: u64,
    pub seconds: u64,
    pub repeats: usize,
    pub out_dir: PathBuf,
}

/// What one child printed: the contract's result line and the detail
/// line above it.
struct Child {
    result: Json,
    detail: Json,
}

fn child(w: Workload, opts: &SuiteOpts, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", &opts.out_dir.to_string_lossy()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let result = lines.last().ok_or_else(|| format!("{}: no output", w.name()))?;
    let result = json::parse(result).map_err(|e| format!("{}: result line: {e}", w.name()))?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or_else(|| format!("{}: no detail line", w.name()))?;
    let detail = json::parse(detail).map_err(|e| format!("{}: detail line: {e}", w.name()))?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        let failures = detail.get("check_failures").map(Json::to_line).unwrap_or_default();
        return Err(format!("{}: output checks failed: {failures}", w.name()));
    }
    Ok(Child { result, detail })
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result line lacks {name}"))
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn int(doc: &Json, key: &str) -> i64 {
    doc.get(key).and_then(Json::as_i64).unwrap_or(0)
}

/// Runs `repeats` interleaved sets, checks that every simulated statistic
/// repeated bit-for-bit, prints the table and returns the result document.
pub fn run(opts: &SuiteOpts) -> Result<Json, String> {
    let mut runs: Vec<Vec<Child>> = workload::ALL.iter().map(|_| Vec::new()).collect();
    for r in 0..opts.repeats {
        for (wi, w) in workload::ALL.into_iter().enumerate() {
            eprintln!("[run] repeat {}/{} {}", r + 1, opts.repeats, w.name());
            runs[wi].push(child(w, opts, false)?);
        }
    }
    let mut workloads = Vec::new();
    let mut broken = Vec::new();
    for (w, reps) in workload::ALL.into_iter().zip(&runs) {
        let first = &reps[0];
        let mut metrics = Vec::new();
        println!("\n{} — {} repeats, seed {}", w.name(), reps.len(), opts.seed);
        println!(
            "  {:<26} {:>8} {:>5} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "kind", "median", "min", "max", "spread"
        );
        for m in &END_TO_END {
            let values: Vec<f64> =
                reps.iter().map(|c| metric_value(&c.result, m.name)).collect::<Result<_, _>>()?;
            let s = spread(&values).expect("at least one repeat");
            let identical = values.iter().all(|v| v.to_bits() == values[0].to_bits());
            if m.kind == Kind::Sim && !identical {
                broken.push(format!("{}: {} differs between repeats", w.name(), m.name));
            }
            let kind = if m.kind == Kind::Sim { "sim" } else { "host" };
            println!(
                "  {:<26} {:>8} {:>5} {:>14.4} {:>14.4} {:>14.4} {:>7.2}%",
                m.name,
                m.unit,
                kind,
                s.median,
                s.min,
                s.max,
                100.0 * s.rel
            );
            metrics.push((
                m.name,
                Json::obj([
                    ("unit", Json::str(m.unit)),
                    ("kind", Json::str(kind)),
                    ("median", Json::Num(s.median)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("spread", Json::Num(s.rel)),
                    ("values", Json::Arr(values.into_iter().map(Json::Num).collect())),
                ]),
            ));
        }
        // Everything in the detail line's `sim` object is simulated, too.
        let sim = |c: &Child| c.detail.get("sim").map(Json::to_line).unwrap_or_default();
        if reps.iter().any(|c| sim(c) != sim(first)) {
            broken.push(format!("{}: fingerprint or counts differ between repeats", w.name()));
        }
        let (attempted, failed) = (int(&first.result, "attempted"), int(&first.result, "failed"));
        let failed_pct = 100.0 * failed as f64 / attempted.max(1) as f64;
        println!(
            "  {:<26} {:>8} {:>5} {:>14.4}   ({failed} of {attempted} operations)",
            "ops_failed_pct", "%", "sim", failed_pct
        );
        if let Some(samples) = first.detail.get("sim") {
            println!("  samples: {}", samples.to_line());
        }
        let noise = |key: &str| {
            Json::Arr(reps.iter().filter_map(|c| c.detail.get("host")?.get(key).cloned()).collect())
        };
        workloads.push((
            w.name(),
            Json::obj([
                ("attempted", Json::Int(attempted)),
                ("failed", Json::Int(failed)),
                ("ops_failed_pct", Json::Num(failed_pct)),
                ("sim", first.detail.get("sim").cloned().unwrap_or(Json::Null)),
                (
                    "noise",
                    Json::obj([
                        ("runq_wait_ms", noise("runq_wait_ms")),
                        ("timed_host_s", noise("timed_host_s")),
                    ]),
                ),
                ("metrics", Json::obj(metrics)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("kind", Json::str("mortar-benchmark-run")),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Int(opts.seconds as i64)),
        ("repeats", Json::Int(opts.repeats as i64)),
        ("cores", Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64)),
        ("workloads", Json::obj(workloads)),
    ]);
    if broken.is_empty() {
        Ok(doc)
    } else {
        Err(format!("simulated statistics must repeat bit-for-bit:\n  {}", broken.join("\n  ")))
    }
}

/// One traced child per workload; prints every per-layer metric side by
/// side and writes `trace-<seed>.json` (the children write the span files).
pub fn trace(opts: &SuiteOpts) -> Result<(), String> {
    let mut columns = Vec::new();
    for w in workload::ALL {
        eprintln!("[trace] {}", w.name());
        columns.push(child(w, opts, true)?.result);
    }
    print!("\n{:<36} {:>6}", "per-layer metric", "unit");
    for w in workload::ALL {
        print!(" {:>14}", w.name());
    }
    println!();
    let mut rows = Vec::new();
    for m in &PER_LAYER {
        print!("{:<36} {:>6}", m.name, m.unit);
        let mut row = vec![("unit", Json::str(m.unit)), ("source", Json::str(m.source))];
        for (w, col) in workload::ALL.into_iter().zip(&columns) {
            let v = metric_value(col, m.name)?;
            print!(" {v:>14.4}");
            row.push((w.name(), Json::Num(v)));
        }
        println!();
        rows.push((m.name, Json::obj(row)));
    }
    let doc = Json::obj([
        ("kind", Json::str("mortar-benchmark-trace")),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Int(opts.seconds as i64)),
        ("per_layer", Json::obj(rows)),
    ]);
    let path = opts.out_dir.join(format!("trace-{}.json", opts.seed));
    write(&path, &doc)?;
    println!("\nwrote {} and {}/trace-<workload>.json", path.display(), opts.out_dir.display());
    Ok(())
}

/// `run`, written to `<out>/<name>.json`.
pub fn run_to_file(opts: &SuiteOpts, name: &str) -> Result<PathBuf, String> {
    let doc = run(opts)?;
    let path = opts.out_dir.join(format!("{name}.json"));
    write(&path, &doc)?;
    println!("\nwrote {}", path.display());
    Ok(path)
}

/// Two full sets back to back, compared: the same code must agree with
/// itself within the benchmark's own bounds.
pub fn selfcheck(opts: &SuiteOpts) -> Result<bool, String> {
    let a = run_to_file(opts, "selfcheck-a")?;
    let b = run_to_file(opts, "selfcheck-b")?;
    crate::compare::compare_files(&a, &b)
}

/// The contract's steadiness measure: one run per workload on each of
/// `repeats` consecutive seeds, then per end-to-end metric the distance
/// between the quartiles as a share of the median, against the bound.
/// A spread under a third of the bound is `steady`, under the bound
/// `wide`, beyond it `TOO WIDE` (the driver would refuse the benchmark).
pub fn seeds(opts: &SuiteOpts) -> Result<bool, String> {
    let mut values: Vec<Vec<Vec<f64>>> =
        workload::ALL.iter().map(|_| END_TO_END.iter().map(|_| Vec::new()).collect()).collect();
    for seed in opts.seed..opts.seed + opts.repeats as u64 {
        let one = SuiteOpts { seed, ..opts.clone() };
        for (wi, w) in workload::ALL.into_iter().enumerate() {
            eprintln!("[seeds] seed {seed} {}", w.name());
            let c = child(w, &one, false)?;
            if int(&c.result, "failed") != 0 {
                return Err(format!("{} seed {seed}: operations failed", w.name()));
            }
            for (mi, m) in END_TO_END.iter().enumerate() {
                values[wi][mi].push(metric_value(&c.result, m.name)?);
            }
        }
    }
    let mut ok = true;
    for (w, per_metric) in workload::ALL.into_iter().zip(&values) {
        println!("\n{} — seeds {}..{}", w.name(), opts.seed, opts.seed + opts.repeats as u64 - 1);
        println!("  {:<26} {:>14} {:>9} {:>7}  verdict", "metric", "median", "iqr/med", "bound");
        for (m, v) in END_TO_END.iter().zip(per_metric) {
            let share = iqr_share(v).unwrap_or(0.0);
            // A driver refuses a time that reads the same on every run.
            let constant = v.len() > 1
                && ["s", "ms"].contains(&m.unit)
                && v.iter().all(|x| x.to_bits() == v[0].to_bits());
            // `setup_s` is exempt from the spread rule (not from the bound).
            let too_wide = share > m.bound && m.name != "setup_s";
            ok &= !too_wide && !constant;
            let verdict = match () {
                () if constant => "CONSTANT (reads the same on every run)",
                () if too_wide => "TOO WIDE",
                () if share > m.bound / 3.0 => "wide",
                () => "steady",
            };
            println!(
                "  {:<26} {:>14.4} {:>8.2}% {:>6.1}%  {verdict}",
                m.name,
                median(v).unwrap_or(0.0),
                100.0 * share,
                100.0 * m.bound
            );
        }
    }
    Ok(ok)
}

/// The README's tables, rendered from the same tables the program uses:
/// workloads, end-to-end metrics, per-layer metrics.
pub fn tables() -> [String; 3] {
    let mut workloads =
        String::from("| name | hosts | timed region | slice | why |\n|---|---|---|---|---|\n");
    for w in workload::ALL {
        workloads += &format!(
            "| `{}` | {} | {} sim-s | {} ms | {} |\n",
            w.name(),
            w.hosts(),
            w.reference_sim_s(),
            w.slice_ms(),
            w.why()
        );
    }
    let mut end_to_end = String::from(
        "| name | unit | kind | better | bound | definition |\n|---|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let kind = if m.kind == Kind::Sim { "sim" } else { "host" };
        let floor = if m.abs_floor > 0.0 {
            format!(" or {} {}", m.abs_floor, m.unit)
        } else {
            String::new()
        };
        end_to_end += &format!(
            "| `{}` | {} | {kind} | {} | {} %{floor} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            100.0 * m.bound,
            m.what
        );
    }
    let mut per_layer = String::from("| name | unit | better | source |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        per_layer +=
            &format!("| `{}` | {} | {} | {} |\n", m.name, m.unit, m.better.as_str(), m.source);
    }
    [workloads, end_to_end, per_layer]
}

#[cfg(test)]
mod tests {
    #[test]
    fn readme_tables_are_what_the_program_renders() {
        let readme = include_str!("../README.md");
        for table in super::tables() {
            assert!(readme.contains(&table), "paste `run.sh tables` into README.md:\n{table}");
        }
    }
}
