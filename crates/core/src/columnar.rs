//! Columnar kernel compilation: lowering standard polluters onto
//! [`ColumnBatch`]es.
//!
//! A plan names, at compile time, exactly which columns each polluter's
//! condition reads and its error function writes. When every polluter in
//! a sub-stream pipeline is a *schema-known, 1:1* stage whose condition
//! and error function both ship a column kernel, the pipeline lowers to
//! a [`ColumnPipeline`]: a sequence of column kernels that run directly
//! over a batch's typed attribute vectors instead of per-tuple
//! `ValueVec`s.
//!
//! **Exactness by construction.** A kernel does not reimplement the
//! polluter — it *wraps* the very same [`StandardPolluter`] the row path
//! would build (same component seed paths, so identical RNG streams,
//! stats cells, and checkpoint state documents). Output, ground-truth
//! log, and checkpoint snapshots are therefore byte-identical to row
//! execution — the property `tests/batch_determinism.rs` pins.
//!
//! **One execution mode.** Every stage runs vectorized
//! ([`StandardPolluter::process_columns`]): the condition fills a
//! branch-free byte mask over the whole batch
//! ([bulk RNG draws](crate::rng::fill_uniform) service the stochastic
//! conditions), pattern intensities are drawn for masked rows, and the
//! error function's kernel edits the attribute vectors directly —
//! combining the mask with the column validity bitmap, no tuple
//! materialisation at all. With the ground-truth log on, each stage
//! also emits its `ValueChanged` entries tagged with their row; the
//! pipeline stable-sorts them by row once the batch has crossed every
//! stage, which reproduces the row path's (row, stage, attribute)
//! order. `docs/kernels.md` derives why both orders agree.
//!
//! **Eligibility rules.** Lowering is governed by four named rules,
//! reported verbatim by `--explain` when a sub-stream falls back to
//! rows:
//!
//! - `stateless-1to1` — the polluter maps one tuple to one tuple with
//!   no cross-tuple state: native temporal polluters (delay, drop,
//!   duplicate, freeze hold tuples across watermarks), propagation,
//!   burst, keyed, and composites/one-ofs (children may be temporal)
//!   fail it.
//! - `resolved-attributes` — every attribute the polluter names exists
//!   in the schema, so reads and writes bind to column indices.
//! - `schema-typed-writes` — the error function provably writes values
//!   of its target columns' own types (or NULL), so a typed column
//!   store absorbs the output without re-deriving types per row.
//! - `column-kernels` — both the condition and the error function ship
//!   a column kernel. Pattern and composite conditions and the typo,
//!   incorrect-category, and attribute-swap errors do not, so their
//!   sub-stream runs on rows.
//!
//! [`lower_pipeline`] returns `None` when any stage breaks a rule and
//! the runner keeps `Vec<StampedTuple>` batches; [`lowering_blocker`]
//! names the polluter *and* the rule it broke.

use crate::config::{build_standard, ConditionConfig, ErrorConfig, PolluterConfig};
use crate::log::{LogEntry, PollutionLog};
use crate::polluter::{Emission, Polluter, StandardPolluter};
use crate::rng::{ComponentPath, SeedFactory};
use crate::snapshot::SlotState;
use crate::stats::PolluterStatsHandle;
use icewafl_types::{ColumnBatch, DataType, Result, Schema, StampedTuple, Timestamp};

/// Whether `error` provably writes values of its target columns' own
/// types (or NULL) — the condition for a typed column store to absorb
/// its output without falling back to rows.
///
/// The numeric family (`map_numeric`-based errors) preserves the value
/// family by construction: an `Int` stays `Int`, a `Float` stays
/// `Float`, a `Bool` stays `Bool`. `SwapAttributes` is safe because
/// `validate` already rejects mixed-domain pairs. Anything whose output
/// type depends on runtime data it might not control is rejected.
fn error_lowerable(error: &ErrorConfig, attrs: &[usize], schema: &Schema) -> bool {
    let dtype = |i: usize| schema.field(i).map(|f| f.dtype);
    match error {
        ErrorConfig::GaussianNoise { .. }
        | ErrorConfig::UniformNoise { .. }
        | ErrorConfig::Scale { .. }
        | ErrorConfig::Outlier { .. }
        | ErrorConfig::Round { .. }
        | ErrorConfig::UnitConversion { .. } => attrs
            .iter()
            .all(|&i| dtype(i).is_some_and(|d| d.is_numeric())),
        ErrorConfig::MissingValue => true,
        ErrorConfig::Constant { value } => match value.dtype() {
            None => true, // a NULL constant clears validity on any column
            Some(d) => attrs.iter().all(|&i| dtype(i) == Some(d)),
        },
        ErrorConfig::Typo { .. } | ErrorConfig::IncorrectCategory { .. } => {
            attrs.iter().all(|&i| dtype(i) == Some(DataType::Str))
        }
        // Validation enforces same-domain pairs, so swaps are
        // type-preserving once bound.
        ErrorConfig::SwapAttributes => true,
        ErrorConfig::TimestampShift { .. } => {
            attrs.iter().all(|&i| dtype(i) == Some(DataType::Timestamp))
        }
    }
}

/// Why `polluter` cannot lower to a column kernel, or `None` if it can.
/// Each message names the polluter, the eligibility rule it broke (see
/// the module docs), and what about the polluter breaks it — the string
/// `--explain` renders next to a `row` stage.
fn polluter_blocker(polluter: &PolluterConfig, schema: &Schema) -> Option<String> {
    match polluter {
        PolluterConfig::Standard {
            name,
            attributes,
            error,
            condition,
            ..
        } => {
            let attrs: Vec<usize> = match attributes
                .iter()
                .map(|a| schema.require(a))
                .collect::<Result<_>>()
            {
                Ok(v) => v,
                Err(_) => {
                    return Some(format!(
                        "`{name}` breaks rule resolved-attributes: names an attribute \
                         outside the schema"
                    ))
                }
            };
            if !error_lowerable(error, &attrs, schema) {
                Some(format!(
                    "`{name}` breaks rule schema-typed-writes: error output type not \
                     provable for its columns"
                ))
            } else if !condition_has_kernel(condition) {
                Some(format!(
                    "`{name}` breaks rule column-kernels: its condition has no column kernel"
                ))
            } else if !error_has_kernel(error) {
                Some(format!(
                    "`{name}` breaks rule column-kernels: its error function has no column \
                     kernel"
                ))
            } else {
                None
            }
        }
        PolluterConfig::Composite { name, .. } | PolluterConfig::OneOf { name, .. } => Some(
            format!("`{name}` breaks rule stateless-1to1: composite children may be temporal"),
        ),
        PolluterConfig::Delay { name, .. }
        | PolluterConfig::Drop { name, .. }
        | PolluterConfig::Duplicate { name, .. }
        | PolluterConfig::Freeze { name, .. }
        | PolluterConfig::Burst { name, .. } => Some(format!(
            "`{name}` breaks rule stateless-1to1: stateful temporal polluter holds \
             tuples across watermarks"
        )),
        PolluterConfig::Propagation { name, .. } => Some(format!(
            "`{name}` breaks rule stateless-1to1: stateful temporal polluter repeats \
             earlier values"
        )),
        PolluterConfig::Keyed { name, .. } => Some(format!(
            "`{name}` breaks rule stateless-1to1: per-key state spans tuples"
        )),
    }
}

/// Why a sub-stream pipeline stays on the row path, or `None` if every
/// stage lowers. What `--explain` renders next to a `row` stage.
pub fn lowering_blocker(polluters: &[PolluterConfig], schema: &Schema) -> Option<String> {
    polluters.iter().find_map(|p| polluter_blocker(p, schema))
}

/// Whether a sub-stream pipeline lowers fully to column kernels.
pub fn pipeline_lowerable(polluters: &[PolluterConfig], schema: &Schema) -> bool {
    lowering_blocker(polluters, schema).is_none()
}

/// Whether `condition` ships a column kernel — one half of the
/// `column-kernels` rule and the config-level mirror of
/// [`StandardPolluter::has_column_kernels`], decidable at plan time
/// without building the polluter. The agreement between the two is
/// pinned by a test; keep them in lockstep when adding kernels.
fn condition_has_kernel(condition: &ConditionConfig) -> bool {
    match condition {
        ConditionConfig::Always
        | ConditionConfig::Never
        | ConditionConfig::Probability { .. }
        | ConditionConfig::Value { .. }
        | ConditionConfig::TimeWindow { .. }
        | ConditionConfig::HourRange { .. }
        | ConditionConfig::Sinusoidal { .. }
        | ConditionConfig::LinearRamp { .. } => true,
        // Pattern interleaves two draws from one RNG per row; composites
        // would need short-circuit-exact mask combination. Neither has a
        // byte-identity proof yet.
        ConditionConfig::Pattern { .. }
        | ConditionConfig::And { .. }
        | ConditionConfig::Or { .. }
        | ConditionConfig::Not { .. } => false,
    }
}

/// Whether `error` ships a column kernel — the other half of the
/// `column-kernels` rule.
fn error_has_kernel(error: &ErrorConfig) -> bool {
    match error {
        ErrorConfig::GaussianNoise { .. }
        | ErrorConfig::UniformNoise { .. }
        | ErrorConfig::Scale { .. }
        | ErrorConfig::Outlier { .. }
        | ErrorConfig::Round { .. }
        | ErrorConfig::UnitConversion { .. }
        | ErrorConfig::MissingValue
        | ErrorConfig::Constant { .. }
        | ErrorConfig::TimestampShift { .. } => true,
        // Per-row string surgery and pairwise swaps have no kernel.
        ErrorConfig::Typo { .. }
        | ErrorConfig::IncorrectCategory { .. }
        | ErrorConfig::SwapAttributes => false,
    }
}

/// A fully lowered sub-stream pipeline: column kernels applied in stage
/// order over a [`ColumnBatch`], behaviourally identical to feeding each
/// row through the equivalent
/// [`PollutionPipeline`](crate::pipeline::PollutionPipeline).
pub struct ColumnPipeline {
    stages: Vec<StandardPolluter>,
    /// The schema batches are typed against.
    schema: Schema,
    /// Condition-mask scratch, one byte per row, reused across batches
    /// and stages.
    mask: Vec<u8>,
    /// Pattern-intensity scratch.
    intensities: Vec<f64>,
    /// Ground-truth entries of the batch in flight, each tagged with its
    /// row; appended to the log in row order once every stage has run.
    pending_log: Vec<(usize, LogEntry)>,
}

impl ColumnPipeline {
    /// Number of kernel stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` iff the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// How many stages run vectorized — every one, since the
    /// `column-kernels` rule admits no other kind; equal to
    /// [`ColumnPipeline::len`].
    pub fn vectorized_stages(&self) -> usize {
        self.stages.len()
    }

    /// Runs a batch through every stage in place, stage-major: each
    /// stage's kernels cover the whole batch before the next stage
    /// starts ([`StandardPolluter::process_columns`]). Each component's
    /// RNG sees rows in the same order as on the row path, so the
    /// output bytes match it. With logging enabled the stages push
    /// row-tagged entries, and a stable sort by row restores the row
    /// path's (row, stage, attribute) log order before the entries
    /// reach `log`.
    pub fn process_batch(&mut self, batch: &mut ColumnBatch, log: &mut PollutionLog) {
        let logging = log.is_enabled();
        for stage in &mut self.stages {
            stage.process_columns(
                batch,
                &mut self.mask,
                &mut self.intensities,
                logging.then_some(&mut self.pending_log),
            );
        }
        // Stable: within a row, entries keep stage and attribute order.
        self.pending_log.sort_by_key(|&(row, _)| row);
        for (_, entry) in self.pending_log.drain(..) {
            log.record(entry);
        }
    }

    /// Runs one loose row through every stage in place — the exact
    /// per-tuple sequence the row path executes, used for unbatched
    /// records and for rows a batch conversion handed back.
    pub fn process_row(&mut self, tuple: &mut StampedTuple, log: &mut PollutionLog) {
        for stage in &mut self.stages {
            stage.process_in_place(tuple, log);
        }
    }

    /// Runs a row batch through the kernels: columnarize, process,
    /// reconstruct. Rows that do not fit the schema's column types
    /// (foreign arity or mismatched values) make the whole batch fall
    /// back to [`ColumnPipeline::process_row`] — same output, row by
    /// row.
    pub fn process_rows(
        &mut self,
        rows: Vec<StampedTuple>,
        log: &mut PollutionLog,
    ) -> Vec<StampedTuple> {
        match ColumnBatch::from_rows(&self.schema, rows) {
            Ok(mut batch) => {
                self.process_batch(&mut batch, log);
                batch.into_rows()
            }
            Err(mut rows) => {
                for row in &mut rows {
                    self.process_row(row, log);
                }
                rows
            }
        }
    }

    /// Advances event time through every stage. Standard polluters hold
    /// no tuples, so nothing is released — this flushes staged stats and
    /// RNG draw counts exactly like the row path's watermark hook.
    pub fn on_watermark(&mut self, wm: Timestamp, log: &mut PollutionLog) {
        let mut buf = Vec::new();
        for stage in &mut self.stages {
            let mut em = Emission::new(&mut buf, log);
            Polluter::on_watermark(stage, wm, &mut em);
        }
        debug_assert!(buf.is_empty(), "standard polluters release nothing");
    }

    /// Ends the stream: every stage flushes its staged stats.
    pub fn finish(&mut self, log: &mut PollutionLog) {
        let mut buf = Vec::new();
        for stage in &mut self.stages {
            let mut em = Emission::new(&mut buf, log);
            Polluter::finish(stage, &mut em);
        }
        debug_assert!(buf.is_empty(), "standard polluters release nothing");
    }

    /// Live stat handles, in stage order (same cells the row path would
    /// expose).
    pub fn collect_stats(&self, out: &mut Vec<PolluterStatsHandle>) {
        for stage in &self.stages {
            stage.collect_stats(out);
        }
    }

    /// Every stage's checkpoint state, positionally — the *same*
    /// document a row
    /// [`PollutionPipeline`](crate::pipeline::PollutionPipeline) of
    /// this configuration produces, because the stages are the same
    /// objects. A checkpoint
    /// taken under one representation restores under the other.
    pub fn snapshot_states(&self) -> Option<String> {
        SlotState::doc(self.stages.iter().map(|s| s.snapshot_state()).collect())
    }

    /// Restores per-stage states captured by
    /// [`ColumnPipeline::snapshot_states`] — or by the row path's
    /// `PollutionPipeline::snapshot_states`, interchangeably.
    pub fn restore_states(&mut self, state: &str) -> Result<()> {
        let slots = SlotState::parse(state, self.stages.len(), "pollution pipeline")?;
        for (stage, slot) in self.stages.iter_mut().zip(slots) {
            if let Some(doc) = slot {
                stage.restore_state(&doc)?;
            }
        }
        Ok(())
    }
}

/// Compiles one sub-stream's polluter configs into a [`ColumnPipeline`],
/// or `None` when any stage cannot lower (the caller keeps the row
/// path). `pipeline_idx` must be the sub-stream's index in the plan:
/// component RNGs derive from `pipeline[<idx>][<stage>].{cond,error,pattern}`
/// — the identical paths `build_pipelines` uses — so the lowered
/// pipeline is the row pipeline, re-expressed.
pub fn lower_pipeline(
    seed: u64,
    pipeline_idx: usize,
    polluters: &[PolluterConfig],
    schema: &Schema,
) -> Result<Option<ColumnPipeline>> {
    if !pipeline_lowerable(polluters, schema) {
        return Ok(None);
    }
    let seeds = SeedFactory::new(seed);
    let path = ComponentPath::root().child("pipeline").index(pipeline_idx);
    let mut stages = Vec::with_capacity(polluters.len());
    for (j, p) in polluters.iter().enumerate() {
        let PolluterConfig::Standard {
            name,
            attributes,
            error,
            condition,
            pattern,
        } = p
        else {
            unreachable!("pipeline_lowerable admits only standard polluters");
        };
        let polluter = build_standard(
            name,
            attributes,
            error,
            condition,
            pattern,
            schema,
            &seeds,
            &path.index(j),
        )?;
        debug_assert!(
            polluter.has_column_kernels(),
            "the column-kernels rule admits only stages with kernels"
        );
        stages.push(polluter);
    }
    Ok(Some(ColumnPipeline {
        stages,
        schema: schema.clone(),
        mask: Vec::new(),
        intensities: Vec::new(),
        pending_log: Vec::new(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::build_pipelines;
    use crate::pattern::ChangePattern;
    use icewafl_types::{Tuple, Value};

    fn schema() -> Schema {
        Schema::from_pairs([
            ("Time", DataType::Timestamp),
            ("BPM", DataType::Int),
            ("Distance", DataType::Float),
            ("sensor", DataType::Str),
        ])
        .unwrap()
    }

    fn rows(n: u64) -> Vec<StampedTuple> {
        (0..n)
            .map(|i| {
                let mut t = StampedTuple::new(
                    i,
                    Timestamp(i as i64 * 60_000),
                    Tuple::new(vec![
                        Value::Timestamp(Timestamp(i as i64 * 60_000)),
                        Value::Int(60 + (i as i64 % 80)),
                        Value::Float(i as f64 * 0.25),
                        Value::Str(format!("s{}", i % 3)),
                    ]),
                );
                t.arrival = Timestamp(i as i64 * 60_000 + 3);
                t.sub_stream = 0;
                t
            })
            .collect()
    }

    fn noisy_pipeline() -> Vec<PolluterConfig> {
        vec![
            PolluterConfig::Standard {
                name: "noise".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::GaussianNoise {
                    sigma: 2.0,
                    relative: false,
                },
                condition: ConditionConfig::Probability { p: 0.5 },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "bpm-null".into(),
                attributes: vec!["BPM".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Value {
                    attribute: "BPM".into(),
                    op: crate::condition::CmpOp::Gt,
                    value: Value::Int(100),
                },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "scale-late".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::Scale { factor: 2.0 },
                condition: ConditionConfig::Probability { p: 0.3 },
                pattern: Some(ChangePattern::Gradual {
                    from: Timestamp(0),
                    to: Timestamp(3_600_000),
                }),
            },
        ]
    }

    /// Feeds `rows` through the row pipeline tuple-by-tuple, mirroring
    /// what the pollution operator does per batch.
    fn run_rows(
        polluters: &[PolluterConfig],
        seed: u64,
        input: Vec<StampedTuple>,
        logging: bool,
    ) -> (Vec<StampedTuple>, PollutionLog) {
        let mut pipeline = build_pipelines(seed, &[polluters.to_vec()], &schema())
            .unwrap()
            .pop()
            .unwrap();
        let mut out = Vec::new();
        let mut log = if logging {
            PollutionLog::new()
        } else {
            PollutionLog::disabled()
        };
        for (k, t) in input.into_iter().enumerate() {
            if k > 0 && k % 64 == 0 {
                let wm = Timestamp((k as i64 - 1) * 60_000);
                let mut em = Emission::new(&mut out, &mut log);
                pipeline.on_watermark(wm, &mut em);
            }
            let mut em = Emission::new(&mut out, &mut log);
            pipeline.process(t, &mut em);
        }
        let mut em = Emission::new(&mut out, &mut log);
        pipeline.finish(&mut em);
        (out, log)
    }

    /// Same schedule through the lowered column pipeline.
    fn run_columns(
        polluters: &[PolluterConfig],
        seed: u64,
        input: Vec<StampedTuple>,
        logging: bool,
    ) -> (Vec<StampedTuple>, PollutionLog) {
        let mut pipeline = lower_pipeline(seed, 0, polluters, &schema())
            .unwrap()
            .expect("lowerable");
        let mut log = if logging {
            PollutionLog::new()
        } else {
            PollutionLog::disabled()
        };
        let mut out = Vec::new();
        for (k, chunk) in input.chunks(64).enumerate() {
            if k > 0 {
                let wm = Timestamp((k as i64 * 64 - 1) * 60_000);
                pipeline.on_watermark(wm, &mut log);
            }
            let mut batch = ColumnBatch::from_rows(&schema(), chunk.to_vec()).unwrap();
            pipeline.process_batch(&mut batch, &mut log);
            out.extend(batch.into_rows());
        }
        pipeline.finish(&mut log);
        (out, log)
    }

    /// One polluter per vectorized kernel family: every condition kernel
    /// (always, never, probability, value, time-window, hour-range,
    /// sinusoid, ramp) and every error kernel family (scale, noise,
    /// rounding, freeze/missing, constant, outlier, uniform noise, unit
    /// conversion, timestamp shift), plus non-constant change patterns.
    fn every_kernel_family() -> Vec<PolluterConfig> {
        let std = |name: &str,
                   attr: &str,
                   error: ErrorConfig,
                   condition: ConditionConfig,
                   pattern: Option<ChangePattern>| {
            PolluterConfig::Standard {
                name: name.into(),
                attributes: vec![attr.into()],
                error,
                condition,
                pattern,
            }
        };
        vec![
            std(
                "always-round",
                "Distance",
                ErrorConfig::Round { precision: 1 },
                ConditionConfig::Always,
                None,
            ),
            std(
                "window-unit",
                "Distance",
                ErrorConfig::UnitConversion { factor: 1000.0 },
                ConditionConfig::TimeWindow {
                    from: Some("1970-01-01 01:00:00".into()),
                    to: Some("1970-01-01 05:00:00".into()),
                },
                None,
            ),
            std(
                "hours-outlier",
                "BPM",
                ErrorConfig::Outlier { magnitude: 3.0 },
                ConditionConfig::HourRange { start: 2, end: 7 },
                None,
            ),
            std(
                "sin-uniform",
                "Distance",
                ErrorConfig::UniformNoise { a: 0.0, b: 0.3 },
                ConditionConfig::Sinusoidal {
                    amplitude: 0.25,
                    offset: 0.25,
                },
                None,
            ),
            std(
                "ramp-const",
                "sensor",
                ErrorConfig::Constant {
                    value: Value::Str("fixed".into()),
                },
                ConditionConfig::LinearRamp {
                    from: "1970-01-01 00:30:00".into(),
                    to: "1970-01-01 07:00:00".into(),
                    p0: 0.1,
                    p1: 0.9,
                },
                None,
            ),
            std(
                "shift-time",
                "Time",
                ErrorConfig::TimestampShift {
                    delta_ms: -3_600_000,
                },
                ConditionConfig::Probability { p: 0.4 },
                None,
            ),
            std(
                "never-null",
                "BPM",
                ErrorConfig::MissingValue,
                ConditionConfig::Never,
                None,
            ),
            std(
                "gauss-on-big",
                "Distance",
                ErrorConfig::GaussianNoise {
                    sigma: 0.1,
                    relative: true,
                },
                ConditionConfig::Value {
                    attribute: "Distance".into(),
                    op: crate::condition::CmpOp::Gt,
                    value: Value::Float(10.0),
                },
                Some(ChangePattern::Incremental {
                    from: Timestamp(0),
                    to: Timestamp(4 * 3_600_000),
                }),
            ),
            std(
                "scale-gradual",
                "BPM",
                ErrorConfig::Scale { factor: 1.5 },
                ConditionConfig::Probability { p: 0.7 },
                Some(ChangePattern::Gradual {
                    from: Timestamp(0),
                    to: Timestamp(6 * 3_600_000),
                }),
            ),
        ]
    }

    #[test]
    fn every_vectorized_family_matches_row_path() {
        let std =
            |name: &str, attrs: &[&str], error: ErrorConfig, p: f64| PolluterConfig::Standard {
                name: name.into(),
                attributes: attrs.iter().map(|a| a.to_string()).collect(),
                error,
                condition: ConditionConfig::Probability { p },
                pattern: None,
            };
        // A two-attribute stage between single-attribute stages on the
        // same columns pins the (row, stage, attribute) log order.
        let multi_attribute = vec![
            std(
                "scale-dist",
                &["Distance"],
                ErrorConfig::Scale { factor: 3.0 },
                0.6,
            ),
            std(
                "null-both",
                &["BPM", "Distance"],
                ErrorConfig::MissingValue,
                0.3,
            ),
            std(
                "scale-bpm",
                &["BPM"],
                ErrorConfig::Scale { factor: 2.0 },
                0.5,
            ),
        ];
        // Rounding an integral column fires without changing a value:
        // only changed attributes may be logged.
        let unchanged = vec![
            std(
                "round-bpm",
                &["BPM"],
                ErrorConfig::Round { precision: 0 },
                0.8,
            ),
            std(
                "scale-bpm",
                &["BPM"],
                ErrorConfig::Scale { factor: 1.5 },
                0.4,
            ),
        ];
        for polluters in [every_kernel_family(), multi_attribute, unchanged] {
            for logging in [true, false] {
                let (rows_out, rows_log) = run_rows(&polluters, 23, rows(500), logging);
                let (cols_out, cols_log) = run_columns(&polluters, 23, rows(500), logging);
                assert_eq!(cols_out, rows_out, "tuples (logging={logging})");
                assert_eq!(
                    serde_json::to_string(cols_log.entries()).unwrap(),
                    serde_json::to_string(rows_log.entries()).unwrap(),
                    "ground-truth log (logging={logging})"
                );
                assert_eq!(rows_log.is_empty(), !logging, "the log sees changes");
                assert!(
                    rows_log
                        .entries()
                        .iter()
                        .all(|e| e.polluter() != "round-bpm"),
                    "an unchanged value is never logged"
                );
            }
        }
    }

    #[test]
    fn plan_time_kernel_rule_agrees_with_built_kernels() {
        // The config-level `column-kernels` rule and the built
        // polluter's `has_column_kernels` must never disagree: lowering
        // trusts the former, `process_columns` needs the latter.
        let mut cases = every_kernel_family();
        cases.extend(noisy_pipeline());
        cases.extend(kernel_less_stages());
        let seeds = SeedFactory::new(3);
        for p in &cases {
            let PolluterConfig::Standard {
                name,
                attributes,
                error,
                condition,
                pattern,
            } = p
            else {
                unreachable!()
            };
            let built = build_standard(
                name,
                attributes,
                error,
                condition,
                pattern,
                &schema(),
                &seeds,
                &ComponentPath::root(),
            )
            .unwrap();
            assert_eq!(
                condition_has_kernel(condition) && error_has_kernel(error),
                built.has_column_kernels(),
                "`{name}`"
            );
        }
    }

    /// Stages that type-check on their columns but have no column
    /// kernel: a typo on a string column and a pattern condition.
    fn kernel_less_stages() -> Vec<PolluterConfig> {
        vec![
            PolluterConfig::Standard {
                name: "typo".into(),
                attributes: vec!["sensor".into()],
                error: ErrorConfig::Typo {
                    kind: crate::error_fn::TypoKind::Any,
                },
                condition: ConditionConfig::Always,
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "pattern-cond".into(),
                attributes: vec!["BPM".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Pattern {
                    pattern: ChangePattern::Abrupt { at: Timestamp(0) },
                    p_min: 0.0,
                    p_max: 1.0,
                },
                pattern: None,
            },
        ]
    }

    #[test]
    fn kernel_less_stages_block_lowering() {
        let s = schema();
        for stage in kernel_less_stages() {
            // Alone or next to a kernel stage, the whole sub-stream
            // stays on rows and the blocker names the rule.
            let mut pipeline = noisy_pipeline();
            pipeline.insert(1, stage.clone());
            for polluters in [vec![stage], pipeline] {
                let blocker = lowering_blocker(&polluters, &s).unwrap();
                assert!(blocker.contains("breaks rule column-kernels"), "{blocker}");
                assert!(lower_pipeline(1, 0, &polluters, &s).unwrap().is_none());
            }
        }
    }

    #[test]
    fn blockers_name_the_broken_rule() {
        let s = schema();
        let delay = PolluterConfig::Delay {
            name: "d".into(),
            condition: ConditionConfig::Always,
            delay_ms: 1000,
        };
        assert!(lowering_blocker(&[delay], &s)
            .unwrap()
            .contains("stateless-1to1"));
        let ghost = PolluterConfig::Standard {
            name: "ghost".into(),
            attributes: vec!["Nope".into()],
            error: ErrorConfig::MissingValue,
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[ghost], &s)
            .unwrap()
            .contains("resolved-attributes"));
        let bad = PolluterConfig::Standard {
            name: "bad".into(),
            attributes: vec!["Distance".into()],
            error: ErrorConfig::Constant {
                value: Value::Str("oops".into()),
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[bad], &s)
            .unwrap()
            .contains("schema-typed-writes"));
    }

    #[test]
    fn kernels_match_row_path_byte_for_byte() {
        for logging in [true, false] {
            let (rows_out, rows_log) = run_rows(&noisy_pipeline(), 42, rows(500), logging);
            let (cols_out, cols_log) = run_columns(&noisy_pipeline(), 42, rows(500), logging);
            assert_eq!(cols_out, rows_out, "tuples (logging={logging})");
            assert_eq!(
                serde_json::to_string(cols_log.entries()).unwrap(),
                serde_json::to_string(rows_log.entries()).unwrap(),
                "ground-truth log (logging={logging})"
            );
        }
    }

    #[test]
    fn snapshots_are_interchangeable_across_representations() {
        let polluters = noisy_pipeline();
        // Run the column pipeline halfway and snapshot it.
        let mut cols = lower_pipeline(7, 0, &polluters, &schema())
            .unwrap()
            .unwrap();
        let mut log = PollutionLog::new();
        let mut batch = ColumnBatch::from_rows(&schema(), rows(100)).unwrap();
        cols.process_batch(&mut batch, &mut log);
        let snap = cols.snapshot_states().expect("stateful stages");

        // Restore it onto a fresh ROW pipeline and onto a fresh column
        // pipeline; both must continue identically.
        let mut row_pipeline = build_pipelines(7, std::slice::from_ref(&polluters), &schema())
            .unwrap()
            .pop()
            .unwrap();
        row_pipeline.restore_states(&snap).unwrap();
        let mut cols2 = lower_pipeline(7, 0, &polluters, &schema())
            .unwrap()
            .unwrap();
        cols2.restore_states(&snap).unwrap();

        let tail: Vec<StampedTuple> = rows(200).split_off(100);
        let mut row_out = Vec::new();
        let mut row_log = PollutionLog::new();
        for t in tail.clone() {
            let mut em = Emission::new(&mut row_out, &mut row_log);
            row_pipeline.process(t, &mut em);
        }
        let mut col_log = PollutionLog::new();
        let mut tail_batch = ColumnBatch::from_rows(&schema(), tail).unwrap();
        cols2.process_batch(&mut tail_batch, &mut col_log);
        assert_eq!(tail_batch.into_rows(), row_out);
        assert_eq!(
            serde_json::to_string(col_log.entries()).unwrap(),
            serde_json::to_string(row_log.entries()).unwrap()
        );
    }

    #[test]
    fn temporal_and_composite_polluters_block_lowering() {
        let s = schema();
        let delay = PolluterConfig::Delay {
            name: "d".into(),
            condition: ConditionConfig::Always,
            delay_ms: 1000,
        };
        let blocker = lowering_blocker(&[delay], &s).unwrap();
        assert!(blocker.contains("stateful temporal"), "{blocker}");
        let composite = PolluterConfig::Composite {
            name: "c".into(),
            condition: ConditionConfig::Always,
            children: vec![],
        };
        assert!(lowering_blocker(&[composite], &s).is_some());
        assert!(pipeline_lowerable(&noisy_pipeline(), &s));
        assert!(
            lower_pipeline(1, 0, &[], &s).unwrap().is_some(),
            "empty pipeline lowers to the identity"
        );
    }

    #[test]
    fn type_unsafe_constants_block_lowering() {
        let s = schema();
        let bad = PolluterConfig::Standard {
            name: "bad".into(),
            attributes: vec!["Distance".into()],
            error: ErrorConfig::Constant {
                value: Value::Str("oops".into()),
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[bad], &s).is_some());
        let good = PolluterConfig::Standard {
            name: "good".into(),
            attributes: vec!["Distance".into()],
            error: ErrorConfig::Constant {
                value: Value::Float(0.0),
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[good], &s).is_none());
        // Typos pass the typed-writes rule on Str columns only; there
        // the missing kernel blocks them instead.
        let typo = |attr: &str| PolluterConfig::Standard {
            name: "typo".into(),
            attributes: vec![attr.into()],
            error: ErrorConfig::Typo {
                kind: crate::error_fn::TypoKind::Any,
            },
            condition: ConditionConfig::Always,
            pattern: None,
        };
        assert!(lowering_blocker(&[typo("sensor")], &s)
            .unwrap()
            .contains("column-kernels"));
        assert!(lowering_blocker(&[typo("Distance")], &s)
            .unwrap()
            .contains("schema-typed-writes"));
    }

    #[test]
    fn value_condition_reads_are_materialised() {
        // A condition on a column a *previous* stage writes: the kernel
        // must see the updated value, as the row path does.
        let polluters = vec![
            PolluterConfig::Standard {
                name: "bpm-zero".into(),
                attributes: vec!["BPM".into()],
                error: ErrorConfig::Constant {
                    value: Value::Int(0),
                },
                condition: ConditionConfig::Probability { p: 0.5 },
                pattern: None,
            },
            PolluterConfig::Standard {
                name: "null-if-zero".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::MissingValue,
                condition: ConditionConfig::Value {
                    attribute: "BPM".into(),
                    op: crate::condition::CmpOp::Eq,
                    value: Value::Int(0),
                },
                pattern: None,
            },
        ];
        for logging in [true, false] {
            let (rows_out, _) = run_rows(&polluters, 11, rows(400), logging);
            let (cols_out, _) = run_columns(&polluters, 11, rows(400), logging);
            assert_eq!(cols_out, rows_out, "logging={logging}");
        }
    }
}
