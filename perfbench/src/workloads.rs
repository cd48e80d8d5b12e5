//! The four workloads: their inputs, generated from the workload seed,
//! and their plans.
//!
//! All three use the 12-station air-quality generator at the UCI
//! dataset's size (12 × 35,064 hourly tuples). The offline workloads
//! interleave the stations by time into one 420,768-tuple stream; the
//! served workload sends one station per session.

use icewafl_core::plan::LogicalPlan;
use icewafl_core::{CheckpointSectionConfig, ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_data::airquality;
use icewafl_types::Tuple;

/// Sub-streams in every plan.
pub const SUBSTREAMS: usize = 4;

/// What one set-up of a workload took.
pub struct SetupTimes {
    /// The whole set-up, seconds.
    pub setup_s: f64,
    /// `icewafl_data` generators (and interleaving), milliseconds.
    pub generate_ms: f64,
    /// `LogicalPlan::compile`, milliseconds.
    pub compile_ms: f64,
}

/// A benchmark workload.
///
/// There is no checkpointed workload: the checkpointed drive orders
/// tuples with equal arrival times differently from the plain drive, so
/// every such job fails its reference check (see `perfbench/README.md`).
/// `TemporalLogged`'s traced run times that drive as a decomposition call
/// on `checkpointed_plan` instead, and counts the reordered rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four value polluters per sub-stream, logging on: every stage
    /// lowers to column kernels.
    ValuesLogged,
    /// Four temporal polluters per sub-stream, logging on: the row
    /// pipeline, the sorter and the merge do the work.
    TemporalLogged,
    /// One open-loop binary session per station against `icewafl serve`.
    ServeBinary,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` lists it.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "values_logged" => Workload::ValuesLogged,
            "temporal_logged" => Workload::TemporalLogged,
            "serve_binary" => Workload::ServeBinary,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ValuesLogged => "values_logged",
            Workload::TemporalLogged => "temporal_logged",
            Workload::ServeBinary => "serve_binary",
        }
    }

    /// Whether the workload's plan lowers to column kernels.
    pub fn columnar(self) -> bool {
        matches!(self, Workload::ValuesLogged | Workload::ServeBinary)
    }

    /// The workload's logical plan.
    pub fn plan(self, seed: u64) -> LogicalPlan {
        match self {
            Workload::ValuesLogged | Workload::ServeBinary => {
                LogicalPlan::new(seed, vec![value_polluters(); SUBSTREAMS])
            }
            Workload::TemporalLogged => {
                LogicalPlan::new(seed, vec![temporal_polluters(); SUBSTREAMS])
            }
        }
    }
}

/// `plan` with the `--checkpoint-dir` CLI defaults: a WAL in
/// `checkpoint_dir` and a checkpoint every epoch.
pub fn checkpointed_plan(plan: &LogicalPlan, checkpoint_dir: &str) -> LogicalPlan {
    let mut plan = plan.clone();
    plan.checkpoint = Some(CheckpointSectionConfig {
        dir: Some(checkpoint_dir.to_string()),
        interval_epochs: 1,
    });
    plan
}

fn standard(
    name: &str,
    attr: &str,
    error: ErrorConfig,
    condition: ConditionConfig,
) -> PolluterConfig {
    PolluterConfig::Standard {
        name: name.into(),
        attributes: vec![attr.into()],
        error,
        condition,
        pattern: None,
    }
}

/// Gaussian noise on NO2, the §3.1.1 sinusoidal missing TEMP, a rare
/// PM25 rescale and PRES rounding during the day.
fn value_polluters() -> Vec<PolluterConfig> {
    vec![
        standard(
            "no2-noise",
            "NO2",
            ErrorConfig::GaussianNoise {
                sigma: 5.0,
                relative: false,
            },
            ConditionConfig::Probability { p: 0.3 },
        ),
        standard(
            "temp-missing",
            "TEMP",
            ErrorConfig::MissingValue,
            ConditionConfig::Sinusoidal {
                amplitude: 0.25,
                offset: 0.25,
            },
        ),
        standard(
            "pm25-scale",
            "PM25",
            ErrorConfig::Scale { factor: 0.125 },
            ConditionConfig::Probability { p: 0.05 },
        ),
        standard(
            "pres-round",
            "PRES",
            ErrorConfig::Round { precision: 0 },
            ConditionConfig::HourRange { start: 6, end: 18 },
        ),
    ]
}

/// The §3.1.3 bad-network delay, drops, duplicates and a 6 h TEMP
/// freeze.
fn temporal_polluters() -> Vec<PolluterConfig> {
    const HOUR_MS: i64 = 3_600_000;
    vec![
        PolluterConfig::Delay {
            name: "bad-network".into(),
            condition: ConditionConfig::And {
                children: vec![
                    ConditionConfig::HourRange { start: 13, end: 15 },
                    ConditionConfig::Probability { p: 0.2 },
                ],
            },
            delay_ms: HOUR_MS,
        },
        PolluterConfig::Drop {
            name: "drop".into(),
            condition: ConditionConfig::Probability { p: 0.01 },
        },
        PolluterConfig::Duplicate {
            name: "duplicate".into(),
            condition: ConditionConfig::Probability { p: 0.01 },
            copies: 1,
        },
        PolluterConfig::Freeze {
            name: "freeze-temp".into(),
            condition: ConditionConfig::Probability { p: 0.001 },
            attributes: vec!["TEMP".into()],
            duration_ms: 6 * HOUR_MS,
        },
    ]
}

/// One full-length stream per station, each seeded from `seed`.
pub fn station_streams(seed: u64) -> Vec<Vec<Tuple>> {
    airquality::STATIONS
        .iter()
        .map(|s| airquality::generate_station_seeded(s, seed, airquality::TUPLES_PER_STATION))
        .collect()
}

/// The stations interleaved by time: hour 0 of every station, then
/// hour 1, and so on.
pub fn interleaved(stations: Vec<Vec<Tuple>>) -> Vec<Tuple> {
    let total = stations.iter().map(Vec::len).sum();
    let mut iters: Vec<_> = stations.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for it in &mut iters {
            out.extend(it.next());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icewafl_types::Value;

    #[test]
    fn interleave_orders_by_hour_then_station() {
        let t = |x: i64| Tuple::new(vec![Value::Int(x)]);
        let out = interleaved(vec![vec![t(0), t(2)], vec![t(1), t(3)]]);
        let xs: Vec<_> = out.iter().map(|t| t.values()[0].clone()).collect();
        assert_eq!(xs, (0..4).map(Value::Int).collect::<Vec<_>>());
    }

    #[test]
    fn every_plan_compiles_against_the_airquality_schema() {
        let schema = airquality::schema();
        for w in ["values_logged", "temporal_logged", "serve_binary"] {
            let w = Workload::parse(w).unwrap();
            assert_eq!(Workload::parse(w.name()), Some(w));
            let physical = w.plan(1).compile(&schema).unwrap();
            let columnar = physical.repr_summary().starts_with("columnar");
            assert_eq!(
                columnar,
                w.columnar(),
                "{}: {}",
                w.name(),
                physical.repr_summary()
            );
        }
        assert_eq!(Workload::parse("nope"), None);
        let plan = Workload::TemporalLogged.plan(1);
        let ckpt = checkpointed_plan(&plan, "ckpt");
        assert!(plan.checkpoint.is_none());
        assert_eq!(ckpt.checkpoint.as_ref().map(|c| c.interval_epochs), Some(1));
        ckpt.compile(&schema).unwrap();
    }
}
