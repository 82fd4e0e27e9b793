//! `compare <a.json> <b.json>`: per workload × end-to-end metric, is `b`
//! worse than `a` by more than the metric's bound?
//!
//! A host metric whose recorded spread (max − min over repeats, on either
//! side) exceeds its bound is reported `unresolved`, not `unchanged`: the
//! runs cannot tell. Sim metrics additionally say whether they are
//! bit-`identical` or `changed`. Any regression, or any rise in
//! `ops_failed_pct`, makes the exit status non-zero.

use crate::json::{self, Json};
use crate::spec::{Better, EndToEnd, Kind, END_TO_END};
use crate::workload;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's median and relative spread.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(m: &EndToEnd, a: Side, b: Side) -> Verdict {
    let worse = worsening(m, a.median, b.median);
    let beyond_floor = (b.median - a.median).abs() > m.abs_floor;
    if m.kind == Kind::Host && beyond_floor && (a.spread > m.bound || b.spread > m.bound) {
        return Verdict::Unresolved;
    }
    if worse > m.bound && beyond_floor {
        Verdict::Regression
    } else if -worse > m.bound && beyond_floor {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<(Side, Vec<u64>)> {
    let m = doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    let values = m.get("values")?.as_arr()?.iter().filter_map(Json::as_f64).map(f64::to_bits);
    Some((
        Side { median: m.get("median")?.as_f64()?, spread: m.get("spread")?.as_f64()? },
        values.collect(),
    ))
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut ok = true;
    for w in workload::ALL {
        let w = w.name();
        println!("\n{w}");
        println!(
            "  {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "a (median)", "b (median)", "change", "bound"
        );
        for m in &END_TO_END {
            let ((sa, bits_a), (sb, bits_b)) = side(a, w, m.name)
                .zip(side(b, w, m.name))
                .ok_or_else(|| format!("{w}: {} missing from a result file", m.name))?;
            let verdict = judge(m, sa, sb);
            ok &= verdict != Verdict::Regression;
            let sim = match m.kind {
                Kind::Host => "",
                Kind::Sim if bits_a == bits_b => " identical",
                Kind::Sim => " changed",
            };
            println!(
                "  {:<26} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}{}",
                m.name,
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE),
                100.0 * m.bound,
                verdict.as_str(),
                sim
            );
        }
        let failed = |doc: &Json| {
            doc.get("workloads")
                .and_then(|d| d.get(w))
                .and_then(|d| d.get("ops_failed_pct"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{w}: ops_failed_pct missing from a result file"))
        };
        let (fa, fb) = (failed(a)?, failed(b)?);
        let rose = fb > fa;
        ok &= !rose;
        println!(
            "  {:<26} {:>14.4} {:>14.4} {:>9} {:>7}  {}",
            "ops_failed_pct",
            fa,
            fb,
            "",
            "0",
            if rose { "REGRESSION" } else { "unchanged" }
        );
    }
    println!("\n{}", if ok { "no regression" } else { "REGRESSION: see rows above" });
    Ok(ok)
}

pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    println!("a = {}\nb = {}", a.display(), b.display());
    compare(&load(a)?, &load(b)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).expect("known metric")
    }

    fn quiet(median: f64) -> Side {
        Side { median, spread: 0.01 }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let speed = metric("sim_s_per_wall_s");
        let worse = 100.0 * (1.0 - speed.bound) - 1.0;
        let better = 100.0 * (1.0 + speed.bound) + 1.0;
        assert_eq!(judge(speed, quiet(100.0), quiet(99.0)), Verdict::Unchanged);
        assert_eq!(judge(speed, quiet(100.0), quiet(worse)), Verdict::Regression);
        assert_eq!(judge(speed, quiet(100.0), quiet(better)), Verdict::Improved);
        // Lower is better for lag: the same move upward is the regression.
        let lag = metric("result_lag_ms_p50");
        assert_eq!(
            judge(lag, quiet(100.0), quiet(100.0 * (1.0 + lag.bound) + 1.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(lag, quiet(100.0), quiet(100.0 * (1.0 - lag.bound) - 1.0)),
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let speed = metric("sim_s_per_wall_s");
        let noisy = Side { median: 100.0, spread: speed.bound + 0.01 };
        assert_eq!(judge(speed, noisy, quiet(99.0)), Verdict::Unresolved);
        assert_eq!(judge(speed, quiet(100.0), Side { median: 50.0, ..noisy }), Verdict::Unresolved);
        // A sim metric has no spread to hide behind.
        let lag = metric("result_lag_ms_p50");
        let wide = Side { median: 100.0, spread: 0.9 };
        assert_eq!(judge(lag, wide, Side { median: 200.0, spread: 0.9 }), Verdict::Regression);
    }

    #[test]
    fn the_absolute_floor_protects_tiny_setups() {
        let setup = metric("setup_s");
        // 0.03 s → 0.06 s doubles, but moves less than the floor.
        assert_eq!(judge(setup, quiet(0.03), quiet(0.06)), Verdict::Unchanged);
        assert_eq!(
            judge(setup, quiet(4.0), quiet(4.0 * (1.0 + setup.bound) + 0.1)),
            Verdict::Regression
        );
    }
}
