//! `--compare A.json B.json`: per workload and end-to-end metric, both
//! medians, how much worse B is, and the bound it may not exceed.

use std::fmt::Write as _;

use datasynth::telemetry::json::Json;

use crate::catalog::{Better, EndToEndDef, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The spread between repetitions is wider than the bound, so "no
    /// worse" cannot be told from "worse".
    Unresolved,
    Regression,
}

struct Side {
    median: f64,
    spread: f64,
    samples: Vec<f64>,
}

fn side(entry: &Json) -> Option<Side> {
    let f = |k: &str| entry.get(k).and_then(Json::as_f64);
    let median = f("median")?;
    let spread = if median == 0.0 {
        0.0
    } else {
        (f("q3")? - f("q1")?) / median.abs()
    };
    let samples = entry
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    Some(Side {
        median,
        spread,
        samples,
    })
}

/// Share of A's median by which B is worse (negative: better).
fn worse_by(def: &EndToEndDef, a: f64, b: f64) -> f64 {
    let delta = match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if delta == 0.0 {
        0.0
    } else if a == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / a.abs()
    }
}

fn judge(def: &EndToEndDef, a: &Side, b: &Side) -> (f64, Verdict) {
    let worse = worse_by(def, a.median, b.median);
    let every_b_better = b
        .samples
        .iter()
        .all(|y| a.samples.iter().all(|x| worse_by(def, *x, *y) < 0.0));
    let verdict = if worse > def.bound {
        Verdict::Regression
    } else if (a.spread > def.bound || b.spread > def.bound) && def.bound > 0.0 && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// The comparison table and its worst verdict.
pub fn compare(a: &Json, b: &Json) -> (String, Verdict) {
    let mut out = String::new();
    let mut worst = Verdict::Ok;
    let _ = writeln!(
        out,
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let entry = |doc: &Json, workload: &str, metric: &str| {
        side(
            doc.get("workloads")?
                .get(workload)?
                .get("end_to_end")?
                .get(metric)?,
        )
    };
    for w in &WORKLOADS {
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (entry(a, w.name, def.name), entry(b, w.name, def.name))
            else {
                continue;
            };
            let (worse, verdict) = judge(def, &sa, &sb);
            let label = match verdict {
                Verdict::Ok => "ok".to_owned(),
                Verdict::Unresolved => {
                    format!(
                        "unresolved (spread A {:.1}% B {:.1}%)",
                        sa.spread * 100.0,
                        sb.spread * 100.0
                    )
                }
                Verdict::Regression => "REGRESSION".to_owned(),
            };
            let _ = writeln!(
                out,
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%  {label}",
                w.name,
                def.name,
                sa.median,
                sb.median,
                worse * 100.0,
                def.bound * 100.0
            );
            worst = match (worst, verdict) {
                (Verdict::Regression, _) | (_, Verdict::Regression) => Verdict::Regression,
                (Verdict::Unresolved, _) | (_, Verdict::Unresolved) => Verdict::Unresolved,
                _ => Verdict::Ok,
            };
        }
    }
    (out, worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;
    use crate::stats::Summary;

    fn side_of(samples: &[f64]) -> Side {
        let s = Summary::of(samples).unwrap();
        Side {
            median: s.median,
            spread: s.spread(),
            samples: s.samples,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let wall = end_to_end("wall_s").unwrap();
        let steady = side_of(&[1.00, 1.01, 0.99, 1.00, 1.00]);
        assert_eq!(
            judge(wall, &steady, &side_of(&[1.05, 1.04, 1.06, 1.05, 1.05])).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &steady, &side_of(&[1.15, 1.14, 1.16, 1.15, 1.15])).1,
            Verdict::Regression
        );
        // Higher is better: a drop is the regression.
        let rate = end_to_end("rows_per_s").unwrap();
        assert_eq!(
            judge(rate, &steady, &side_of(&[0.85, 0.86, 0.84, 0.85, 0.85])).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(rate, &steady, &side_of(&[1.2, 1.21, 1.19, 1.2, 1.2])).1,
            Verdict::Ok
        );
        // A spread wider than the bound cannot say "no worse" ...
        let noisy = side_of(&[0.8, 1.0, 1.2, 0.9, 1.1]);
        assert_eq!(judge(wall, &steady, &noisy).1, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(wall, &steady, &side_of(&[0.5, 0.6, 0.7, 0.55, 0.65])).1,
            Verdict::Ok
        );
    }

    #[test]
    fn a_zero_bound_asks_for_equality() {
        let ks = end_to_end("match_ks").unwrap();
        assert_eq!(
            judge(ks, &side_of(&[0.12]), &side_of(&[0.12])).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(ks, &side_of(&[0.12]), &side_of(&[0.13])).1,
            Verdict::Regression
        );
        let failed = end_to_end("failed_share").unwrap();
        assert_eq!(
            judge(failed, &side_of(&[0.0]), &side_of(&[0.0])).1,
            Verdict::Ok
        );
        assert_eq!(
            judge(failed, &side_of(&[0.0]), &side_of(&[0.01])).1,
            Verdict::Regression
        );
    }
}
