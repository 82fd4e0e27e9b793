//! Mortar's repo benchmark: four seeded long-run workloads driven through
//! the public `Engine` API, end-to-end and per-layer metrics, a traced
//! run, and an A/A gate. See `benchmark/README.md`.
//!
//! ```text
//! mortar-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mortar-benchmark run | trace | selfcheck | seeds  [--seed n] [--seconds s] [--repeats r] [--out dir]
//! mortar-benchmark compare <a.json> <b.json>
//! mortar-benchmark spec | tables
//! ```

mod alloc;
mod compare;
mod gen;
mod json;
mod layers;
mod micro;
mod span;
mod spec;
mod stats;
mod suite;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Pass, PassOpts, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  mortar-benchmark --workload <steady100|keyed100|fleet1000|churn100> [--seed n] [--seconds s] [--trace 0|1] [--out dir]
  mortar-benchmark run|trace|selfcheck|seeds [--seed n] [--seconds s] [--repeats r] [--out dir]
  mortar-benchmark compare <a.json> <b.json>
  mortar-benchmark spec|tables";

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Measured metrics in table order: (name, unit, value).
type Metrics = Vec<(&'static str, &'static str, f64)>;

/// The contract's result line: the last line of standard output.
fn result_line(p: &Pass, metrics: Metrics) -> Json {
    let metrics = metrics.into_iter().map(|(name, unit, value)| {
        (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(p.check_failures.is_empty())),
        ("attempted", Json::Int(p.sim.attempted as i64)),
        ("failed", Json::Int(p.sim.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// What the suite needs beyond the result line: the simulated statistics
/// that must repeat bit-for-bit, and this run's share of the noise floor.
fn detail_line(p: &Pass) -> Json {
    let s = &p.sim;
    Json::obj([
        (
            "sim",
            Json::obj([
                ("fingerprint", Json::str(format!("{:016x}", s.fingerprint))),
                ("input_digest", Json::str(format!("{:016x}", s.input_digest))),
                ("timed_sim_s", Json::Int(s.timed_sim_s as i64)),
                ("windows_expected", Json::Int(s.windows_counted as i64)),
                ("results_reported", Json::Int(s.results_reported as i64)),
                ("lag_samples", Json::Int(s.lag_samples as i64)),
                ("converge_samples", Json::Int(s.converge_samples as i64)),
                ("install_converge_ms_p50", Json::Num(s.install_converge_ms_p50)),
                ("install_converge_ms_p90", Json::Num(s.install_converge_ms_p90)),
                ("installs", Json::Int(s.installs_attempted as i64)),
                ("installs_stranded", Json::Int(s.installs_stranded as i64)),
                ("removes", Json::Int(s.removes_attempted as i64)),
                ("events", Json::Int((s.counters.delivered + s.counters.ticks) as i64)),
            ]),
        ),
        (
            "host",
            Json::obj([
                ("runq_wait_ms", Json::Num(p.host.runq_wait_ns as f64 / 1e6)),
                ("timed_host_s", Json::Num(p.host.timed_s)),
            ]),
        ),
        ("check_failures", Json::Arr(p.check_failures.iter().map(Json::str).collect())),
    ])
}

fn end_to_end(w: Workload, opts: &PassOpts) -> (Pass, Metrics) {
    // `setup_s` is the median of several set-ups; the last one's engine
    // goes on to the timed region.
    let mut setups: Vec<f64> =
        (1..w.setup_repeats()).map(|_| workload::setup_only(w, opts)).collect();
    let p = workload::run_pass(w, opts);
    setups.push(p.host.setup_s);
    let s = &p.sim;
    let values: [f64; spec::END_TO_END.len()] = [
        stats::median(&setups).expect("at least one set-up"),
        s.timed_sim_s as f64 / p.host.timed_s,
        peak_rss_mb(),
        s.completeness_pct,
        s.result_lag_ms_p50,
        s.result_lag_ms_p99,
        s.wire_bytes_per_result,
        s.wire_msgs_per_result,
    ];
    let metrics = spec::END_TO_END.iter().zip(values).map(|(m, v)| (m.name, m.unit, v)).collect();
    (p, metrics)
}

fn per_layer(w: Workload, opts: &PassOpts, out_dir: &Path) -> Result<(Pass, Metrics), String> {
    let plain = workload::run_pass(w, opts);
    alloc::set_counting(true);
    let mut traced = workload::run_pass(w, &PassOpts { trace: true, ..*opts });
    let (_, peak_live) = alloc::counted();
    alloc::set_counting(false);
    // ROADMAP item 3 evidence, never gated: the same run on two shards.
    let sharded = workload::run_pass(w, &PassOpts { shards: 2, ..*opts });
    // A speed-only switch (tracing, shard count) must leave every
    // simulated statistic identical.
    let mut failures = plain.check_failures.clone();
    for (what, other) in [("traced", &traced), ("2-shard", &sharded)] {
        if other.sim != plain.sim {
            failures.push(format!(
                "the {what} pass's simulated statistics differ from the plain pass's"
            ));
        }
        failures.extend(other.check_failures.iter().cloned());
    }
    failures.sort();
    failures.dedup();
    traced.check_failures = failures;
    let unit = micro::run(w, opts.seed, &traced.sim);
    let values = layers::per_layer(w, &plain, &traced, &sharded, &unit, peak_live);
    let path = out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, span::to_json(w.name(), &traced.spans).to_line()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: {} in {}", traced.spans.len(), path.display());
    for (name, count, total, own) in span::by_name(&traced.spans) {
        println!(
            "  {name:<20} ×{count:<6} total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    let metrics = spec::PER_LAYER.iter().zip(values).map(|(m, v)| (m.name, m.unit, v)).collect();
    Ok((traced, metrics))
}

/// One workload, one seed: what the driver (and the suite) invokes.
fn contract(w: Workload, args: &Args) -> Result<bool, String> {
    let opts = PassOpts {
        seed: args.seed,
        timed_sim_s: w.timed_sim_s(args.seconds),
        shards: 1,
        trace: false,
    };
    let (p, metrics) =
        if args.trace { per_layer(w, &opts, &args.out)? } else { end_to_end(w, &opts) };
    println!("{} seed {} — {} simulated seconds timed", w.name(), args.seed, opts.timed_sim_s);
    for (name, unit, value) in &metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "  operations: {} attempted, {} failed; samples: {} lag, {} convergence, {} windows",
        p.sim.attempted,
        p.sim.failed,
        p.sim.lag_samples,
        p.sim.converge_samples,
        p.sim.windows_counted
    );
    for f in &p.check_failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("detail {}", detail_line(&p).to_line());
    println!("{}", result_line(&p, metrics).to_line());
    Ok(p.check_failures.is_empty())
}

struct Args {
    seed: u64,
    seconds: u64,
    repeats: usize,
    trace: bool,
    out: PathBuf,
    workload: Option<String>,
    positional: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        // Seed 13 is the development seed; 14 is held back to confirm.
        seed: 13,
        seconds: spec::RUN_SECONDS,
        repeats: 5,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        workload: None,
        positional: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let number = |name: &str, v: String| {
            v.parse::<u64>().map_err(|_| format!("{name}: `{v}` is not a whole number"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = number("--seed", value("--seed")?)?,
            "--seconds" => {
                args.seconds = number("--seconds", value("--seconds")?)?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--repeats" => {
                args.repeats = number("--repeats", value("--repeats")?)? as usize;
                if !(1..=100).contains(&args.repeats) {
                    return Err("--repeats must be between 1 and 100".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn dispatch() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some(name) = &args.workload {
        let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        return contract(w, &args);
    }
    let opts = suite::SuiteOpts {
        seed: args.seed,
        seconds: args.seconds,
        repeats: args.repeats,
        out_dir: args.out.clone(),
    };
    match args.positional.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["run"] => suite::run_to_file(&opts, &format!("run-{}", args.seed)).map(|_| true),
        ["trace"] => suite::trace(&opts).map(|()| true),
        ["selfcheck"] => suite::selfcheck(&opts),
        ["seeds"] => suite::seeds(&opts),
        ["tables"] => {
            println!("{}", suite::tables().join("\n"));
            Ok(true)
        }
        ["compare", a, b] => compare::compare_files(Path::new(a), Path::new(b)),
        ["spec"] => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
