//! `--compare A.json[,A2.json...] B.json[,B2.json...]`: judge a change
//! (B) against its parent (A), per workload and end-to-end metric, by
//! the bounds in `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use eel_telemetry::json::Json;

use crate::spec::{spec, Better};
use crate::stats::{median, quartiles, relative_iqr};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread is wider than the bound, so no change of that size
    /// can be told from noise.
    Unresolved,
}

/// The verdict on one metric. A median worse than the parent's by more
/// than `bound` (a share of the parent's median) is `Worse`; a spread
/// (interquartile range over median, either side) wider than the bound
/// is `Unresolved` unless every sample of the change beats every
/// sample of the parent.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let (a, b) = (median(parent), median(change));
    let worse_by = if a == 0.0 {
        if b == a {
            0.0
        } else {
            sign * (b - a).signum() * f64::INFINITY
        }
    } else {
        sign * (b - a) / a.abs()
    };
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = change.iter().all(|&y| parent.iter().all(|&x| beats(y, x)));
    if relative_iqr(parent).max(relative_iqr(change)) > bound && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One side's samples of `metric` on `workload`. With one run of the
/// workload among `records`, they are that run's samples (its passes);
/// with several, they are each run's value, so the spread is the
/// run-to-run spread the bounds were set against.
fn samples(records: &[Json], workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs: Vec<&Json> = records
        .iter()
        .filter_map(|r| {
            r.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)
        })
        .collect();
    match runs[..] {
        [] => None,
        [one] => match one.get("samples")? {
            Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
            _ => None,
        },
        _ => runs.iter().map(|m| m.get("value")?.as_f64()).collect(),
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Refuses to compare smoke runs with full ones: their passes differ.
fn same_kind(records: &[&Json]) -> Result<(), String> {
    let smoke: Vec<Option<&Json>> = records.iter().map(|r| r.get("smoke")).collect();
    if smoke.windows(2).all(|w| w[0] == w[1]) {
        Ok(())
    } else {
        Err("the records mix --smoke runs with full runs".into())
    }
}

/// Prints the comparison of the parent's records with the change's;
/// the exit code is 1 if any metric is worse.
pub fn main(parent: &[PathBuf], change: &[PathBuf]) -> i32 {
    let load_all = |paths: &[PathBuf]| paths.iter().map(|p| load(p)).collect::<Result<Vec<_>, _>>();
    let loaded = (|| {
        let (a, b) = (load_all(parent)?, load_all(change)?);
        same_kind(&a.iter().chain(&b).collect::<Vec<_>>())?;
        Ok::<_, String>((a, b))
    })();
    let (a, b) = match loaded {
        Ok(ab) => ab,
        Err(e) => {
            eprintln!("eel-benchmark: {e}");
            return 2;
        }
    };
    let fmt = |s: &[f64]| {
        let [q1, m, q3] = quartiles(s);
        format!("{m:>11.4} [{q1:.4}, {q3:.4}]")
    };
    println!(
        "{:<8} {:<12} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "bound"
    );
    let mut worse = 0;
    for w in &spec().workloads {
        for m in &spec().end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (Some(sa), Some(sb)) = (samples(&a, w, &m.name), samples(&b, w, &m.name)) else {
                println!("{w:<8} {:<12} missing from one side", m.name);
                continue;
            };
            if sa.is_empty() || sb.is_empty() {
                println!("{w:<8} {:<12} no samples on one side", m.name);
                continue;
            }
            let v = verdict(&sa, &sb, m.better, bound);
            worse += usize::from(v == Verdict::Worse);
            let (ma, mb) = (median(&sa), median(&sb));
            let delta = if ma == 0.0 {
                0.0
            } else {
                100.0 * (mb - ma) / ma.abs()
            };
            println!(
                "{w:<8} {:<12} {:>32} {:>32} {:>+7.2}% {:>5.1}%  {}",
                m.name,
                fmt(&sa),
                fmt(&sb),
                delta,
                100.0 * bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    i32::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_run_gives_its_samples_and_several_give_their_values() {
        let run = |value: f64| {
            Json::parse(&format!(
                r#"{{"workloads": {{"edit": {{"metrics": {{"wall_s":
                   {{"value": {value}, "samples": [1, 2, 3]}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let other = Json::parse(r#"{"workloads": {"paper": {}}}"#).unwrap();
        assert_eq!(
            samples(&[run(2.0), other.clone()], "edit", "wall_s"),
            Some(vec![1.0, 2.0, 3.0])
        );
        assert_eq!(
            samples(&[run(2.0), other, run(2.5)], "edit", "wall_s"),
            Some(vec![2.0, 2.5])
        );
        assert_eq!(samples(&[run(2.0)], "paper", "wall_s"), None);
    }

    #[test]
    fn smoke_runs_are_not_compared_with_full_runs() {
        let rec = |smoke: bool| Json::parse(&format!(r#"{{"smoke": {smoke}}}"#)).unwrap();
        let (full, smoke) = (rec(false), rec(true));
        assert!(same_kind(&[&full, &full]).is_ok());
        assert!(same_kind(&[&smoke, &smoke]).is_ok());
        assert!(same_kind(&[&full, &smoke]).is_err());
    }

    #[test]
    fn verdicts() {
        let parent = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Within the bound either way.
        assert_eq!(
            verdict(&parent, &[10.3, 10.2, 10.4], Better::Lower, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&parent, &[9.0, 9.1, 9.2], Better::Lower, 0.08),
            Verdict::Ok
        );
        // 20 % slower on a lower-is-better metric.
        assert_eq!(
            verdict(&parent, &[12.0, 12.1, 11.9], Better::Lower, 0.08),
            Verdict::Worse
        );
        // The same move is an improvement when higher is better, and a
        // drop is worse.
        assert_eq!(
            verdict(&parent, &[12.0, 12.1, 11.9], Better::Higher, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&parent, &[8.0, 8.1, 7.9], Better::Higher, 0.08),
            Verdict::Worse
        );
        // A spread wider than the bound cannot resolve a change...
        let noisy = [5.0, 10.0, 15.0, 8.0, 12.0];
        assert_eq!(
            verdict(&noisy, &[11.0, 12.0, 13.0], Better::Lower, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&parent, &noisy, Better::Lower, 0.08),
            Verdict::Unresolved
        );
        // ...unless every change sample beats every parent sample.
        assert_eq!(
            verdict(&noisy, &[1.0, 2.0, 3.0], Better::Lower, 0.08),
            Verdict::Ok
        );
        // Exact metrics: identical is ok, any loss with bound 0 is worse.
        assert_eq!(verdict(&[1.0], &[1.0], Better::Higher, 0.0), Verdict::Ok);
        assert_eq!(
            verdict(&[1.0], &[0.99], Better::Higher, 0.0),
            Verdict::Worse
        );
    }
}
