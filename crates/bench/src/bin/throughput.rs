//! Machine-readable throughput harness (`cargo run -p icewafl-bench
//! --release --bin throughput`).
//!
//! Runs the §2.3 reference workload — `n` tuples through `m = 4`
//! sub-streams of pipeline length `ℓ = 4` — under every execution
//! strategy and emits a `BENCH_throughput.json` report with
//! tuples/second per configuration. Unlike the criterion benches this
//! harness is cheap enough for CI, produces a stable JSON artifact for
//! regression gating (`--check`), and needs no statistics framework:
//! it reports the best of `--reps` wall-clock runs.
//!
//! Usage:
//!   throughput [--n 10000] [--reps 5] [--out BENCH_throughput.json]
//!              [--check BASELINE.json] [--tolerance 0.30] [--relative]
//!              [--serve] [--serve-sessions 4]
//!
//! The `columnar`, `sequential_logged` and `columnar_logged` groups run
//! the sequential workload at the columnar batch sizes: on columns with
//! the ground-truth log off, then on rows and on columns with it on (as
//! the CLI runs). The two logged groups interleave their reps. Every
//! columnar run must have lowered all its stages and taken the direct
//! drive, or the harness fails: a silent fall-back would measure the
//! wrong path. In `--relative` mode the best sequential configuration
//! (the direct drive) over the best pipelined one (the channel driver)
//! is gated against `DIRECT_CHANNEL_SPEEDUP_FLOOR`.
//!
//! Every run also measures the per-kernel-family microbench: each
//! vectorized kernel family runs on a single-stage pipeline in two
//! modes — loose-row `process_row` and the vectorized kernels over
//! columnar batches — and the element/s land under a `kernels` key. In
//! `--relative` mode the geometric mean of the vectorized/row speedups
//! from the same run is gated against `KERNEL_SPEEDUP_FLOOR`, so the
//! kernels cannot silently degenerate into a per-row loop.
//!
//! With `--serve`, the harness additionally measures end-to-end network
//! throughput: it starts an in-process `icewafl-serve` server and
//! drives concurrent sessions of the same workload through it, once per
//! wire format. Serve numbers land under a separate `serve` key in the
//! JSON — absolute network rates are machine-dependent and stay outside
//! the `results` array the `--check` gate iterates — but in `--relative`
//! mode the binary serve / offline *ratio* from the same run, against an
//! offline run of the plan the sessions run, is gated against a floor
//! (see `SERVE_BINARY_RATIO_FLOOR`).
//!
//! Every run also measures checkpointed recovery: a chaos kill halfway
//! through the pipelined workload, restored from the latest
//! epoch-aligned checkpoint and byte-diffed against an undisturbed
//! run. `recovery_ms` / `replayed_tuples` land under a separate
//! `recovery` key — wall-clock cost on this machine, also outside the
//! `--check` gate.
//!
//! With `--check`, every configuration present in the baseline's
//! `results` array must reach at least `(1 - tolerance)` of its
//! baseline throughput or the process exits non-zero. `--relative`
//! normalizes both sides by their own `sequential/batch_1` throughput
//! before comparing, so the gate measures *speedup shape* (does
//! batching still pay off?) rather than absolute tuples/sec — the only
//! comparison that is stable across differently-sized machines, and
//! the mode CI uses against the committed baseline.

use std::time::Instant;

use icewafl_core::columnar::lower_pipeline;
use icewafl_core::condition::CmpOp;
use icewafl_core::config::{ConditionConfig, ErrorConfig, PolluterConfig};
use icewafl_core::log::PollutionLog;
use icewafl_core::plan::{
    AssignerSpec, LogicalPlan, PhysicalPlan, ReprHint, StrategyHint, SubstreamRepr,
};
use icewafl_core::runner::PollutionOutput;
use icewafl_types::{DataType, Schema, StampedTuple, Timestamp, Tuple, Value};

/// Pipeline length ℓ of the reference workload.
const PIPELINE_LEN: usize = 4;
/// Sub-stream count m of the reference workload.
const SUB_STREAMS: usize = 4;
/// Batch sizes swept per strategy (1 = unbatched transport).
const BATCH_SIZES: [usize; 3] = [1, 64, 256];
/// Batch sizes swept by the columnar group. Starts at 64 — a columnar
/// kernel over a 1-tuple batch only measures conversion overhead.
const COLUMNAR_BATCH_SIZES: [usize; 3] = [64, 256, 4096];
/// Strategy and batch size of the plan the serve sessions run; the
/// `--relative` gate divides served throughput by the offline run of
/// this same plan.
const SERVE_PLAN: (StrategyHint, usize) = (StrategyHint::Pipelined, 64);

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

fn tuples(n: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Timestamp(Timestamp(i * 1000)),
                Value::Float(i as f64),
            ])
        })
        .collect()
}

/// One sub-stream pipeline: ℓ gaussian-noise polluters gated at p=0.5.
fn pipeline() -> Vec<PolluterConfig> {
    (0..PIPELINE_LEN)
        .map(|i| PolluterConfig::Standard {
            name: format!("noise-{i}"),
            attributes: vec!["x".into()],
            error: ErrorConfig::GaussianNoise {
                sigma: 1.0,
                relative: false,
            },
            condition: ConditionConfig::Probability { p: 0.5 },
            pattern: None,
        })
        .collect()
}

fn plan(strategy: StrategyHint, batch_size: usize) -> LogicalPlan {
    plan_repr(strategy, batch_size, ReprHint::Row, false)
}

/// The reference workload with an explicit batch representation and
/// ground-truth log setting. The historical strategy groups pin
/// `ReprHint::Row` with the log off so their numbers keep meaning
/// across the columnar rollout; the `columnar/*` groups pin
/// `ReprHint::Columnar` so a silent fall-back to rows shows up as a
/// compile error rather than a quietly wrong measurement; the
/// `*_logged` groups turn the log on, as the CLI does by default.
fn plan_repr(
    strategy: StrategyHint,
    batch_size: usize,
    repr: ReprHint,
    logging: bool,
) -> LogicalPlan {
    let mut plan = LogicalPlan::new(42, vec![pipeline(); SUB_STREAMS]);
    plan.assigner = AssignerSpec::RoundRobin;
    plan.strategy = strategy;
    plan.logging = logging;
    plan.batch_size = batch_size;
    plan.repr = repr;
    plan
}

/// One measured configuration: strategy, transport batch size,
/// representation, ground-truth log on or off, and the result group
/// its name is filed under (`None` = the strategy's own name).
struct Scenario<'a> {
    strategy: StrategyHint,
    batch_size: usize,
    repr: ReprHint,
    logging: bool,
    group: Option<&'a str>,
}

struct Measurement {
    name: String,
    strategy: String,
    batch_size: usize,
    tuples_per_sec: f64,
    best_ms: f64,
}

fn measure(strategy: StrategyHint, batch_size: usize, n: i64, reps: u32) -> Measurement {
    let scenario = Scenario {
        strategy,
        batch_size,
        repr: ReprHint::Row,
        logging: false,
        group: None,
    };
    measure_interleaved(&[scenario], n, reps)
        .pop()
        .expect("one scenario in, one measurement out")
}

/// Measures several scenarios with their reps interleaved — rep 1 of
/// each, then rep 2 of each, and so on — so a slow stretch on a shared
/// machine hits all of them alike and their ratio stays meaningful.
fn measure_interleaved(scenarios: &[Scenario], n: i64, reps: u32) -> Vec<Measurement> {
    let schema = schema();
    let data = tuples(n);
    let physicals: Vec<_> = scenarios
        .iter()
        .map(|s| {
            let physical = plan_repr(s.strategy, s.batch_size, s.repr, s.logging)
                .compile(&schema)
                .expect("reference plan compiles");
            // One warm-up run outside the timed loop.
            let warm = physical.execute(data.clone()).expect("warm-up succeeds");
            assert_eq!(warm.polluted.len(), n as usize, "workload is lossless");
            if s.repr == ReprHint::Columnar {
                assert_columnar_direct(&physical, &warm, n);
            }
            physical
        })
        .collect();
    let mut best = vec![f64::INFINITY; scenarios.len()];
    for _ in 0..reps {
        for (physical, best) in physicals.iter().zip(&mut best) {
            let input = data.clone();
            let start = Instant::now();
            let out = physical.execute(input).expect("run succeeds");
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(out.polluted.len(), n as usize);
            *best = best.min(elapsed);
        }
    }
    scenarios
        .iter()
        .zip(best)
        .map(|(s, best)| {
            let strategy_name = s.group.unwrap_or(strategy_name(s.strategy));
            Measurement {
                name: format!("{strategy_name}/batch_{}", s.batch_size),
                strategy: strategy_name.to_string(),
                batch_size: s.batch_size,
                tuples_per_sec: n as f64 / best,
                best_ms: best * 1e3,
            }
        })
        .collect()
}

/// What a columnar scenario measures only if it holds: every stage of
/// every sub-stream lowered to column kernels, and the run took the
/// direct drive (one pivot per sub-stream, no channels). A silent
/// fall-back to rows or to the channel driver would measure the wrong
/// path, so it fails the harness outright, whatever the machine.
fn assert_columnar_direct(physical: &PhysicalPlan, out: &PollutionOutput, n: i64) {
    let lowered: usize = physical
        .substream_reprs()
        .iter()
        .map(|r| match r {
            SubstreamRepr::Columnar { stages } => *stages,
            SubstreamRepr::Row { .. } => 0,
        })
        .sum();
    assert_eq!(
        lowered,
        PIPELINE_LEN * SUB_STREAMS,
        "every stage lowers to column kernels ({})",
        physical.repr_summary()
    );
    if out.report.metrics_compiled_in {
        assert_eq!(
            out.report.metrics.counter("drive/direct/tuples_in"),
            n as u64,
            "the columnar run takes the direct drive"
        );
    }
}

/// The result group a strategy's own configurations are filed under.
fn strategy_name(strategy: StrategyHint) -> &'static str {
    match strategy {
        StrategyHint::Sequential => "sequential",
        StrategyHint::Pipelined => "pipelined",
        StrategyHint::SplitMergeParallel => "split_merge_parallel",
        _ => "other",
    }
}

/// The logged groups compare like with like only if both
/// representations write the same bytes: checks the polluted stream and
/// the ground-truth log of one run each.
fn assert_logged_reprs_agree(n: i64) {
    let run = |repr: ReprHint| {
        plan_repr(StrategyHint::Sequential, 256, repr, true)
            .compile(&schema())
            .expect("reference plan compiles")
            .execute(tuples(n))
            .expect("run succeeds")
    };
    let (row, col) = (run(ReprHint::Row), run(ReprHint::Columnar));
    assert_eq!(col.polluted, row.polluted, "logged columnar output differs");
    assert_eq!(
        col.log.entries(),
        row.log.entries(),
        "logged columnar log differs"
    );
}

/// Row-batch size the kernel microbench feeds `process_rows` — matches
/// the largest columnar transport batch so per-batch conversion cost is
/// amortized the same way in both columnar modes.
const KERNEL_CHUNK: usize = 4096;

/// Per-kernel-family throughput in two execution modes. Both run the
/// *same* single-stage [`ColumnPipeline`](icewafl_core::ColumnPipeline)
/// object, so the numbers isolate the kernel itself:
///
/// * `row` — `process_row` over loose tuples: the tuple-at-a-time path
///   every non-columnar sub-stream executes.
/// * `vectorized` — `process_batch` over pre-pivoted batches: bulk RNG
///   draws, branch-free masked selects.
struct KernelMeasurement {
    family: String,
    row_elems_per_sec: f64,
    vectorized_elems_per_sec: f64,
}

impl KernelMeasurement {
    /// The machine-independent number the `--relative` gate consumes:
    /// same pipeline, same machine, same run — only the inner loop
    /// differs.
    fn speedup(&self) -> f64 {
        self.vectorized_elems_per_sec / self.row_elems_per_sec
    }
}

/// Four-column schema exercising every column layout the kernels
/// handle: timestamps, ints, floats, and strings.
fn kernel_schema() -> Schema {
    Schema::from_pairs([
        ("Time", DataType::Timestamp),
        ("BPM", DataType::Int),
        ("Distance", DataType::Float),
        ("sensor", DataType::Str),
    ])
    .unwrap()
}

/// One row per minute (so hour-of-day conditions cycle over the run),
/// with a sprinkling of NULLs so the validity-mask intersection is on
/// every kernel's hot path.
fn kernel_rows(n: i64) -> Vec<StampedTuple> {
    (0..n)
        .map(|i| {
            let bpm = if i % 13 == 0 {
                Value::Null
            } else {
                Value::Int(60 + i % 90)
            };
            StampedTuple::new(
                i as u64,
                Timestamp(i * 60_000),
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(i * 60_000)),
                    bpm,
                    Value::Float(5.0 + (i % 1000) as f64 * 0.01),
                    Value::Str(format!("s{}", i % 8)),
                ]),
            )
        })
        .collect()
}

/// One polluter per vectorized kernel family, paired with a condition
/// kernel that fires on a substantial share of rows — a microbench over
/// an all-zero mask would measure mask evaluation, not the error
/// kernel.
fn kernel_families() -> Vec<(&'static str, PolluterConfig)> {
    let std = |name: &'static str, attr: &str, error: ErrorConfig, condition: ConditionConfig| {
        (
            name,
            PolluterConfig::Standard {
                name: name.into(),
                attributes: vec![attr.into()],
                error,
                condition,
                pattern: None,
            },
        )
    };
    vec![
        std(
            "round",
            "Distance",
            ErrorConfig::Round { precision: 1 },
            ConditionConfig::Always,
        ),
        std(
            "unit_conversion",
            "Distance",
            ErrorConfig::UnitConversion { factor: 1.60934 },
            ConditionConfig::TimeWindow {
                from: Some("1970-01-01 12:00:00".into()),
                to: None,
            },
        ),
        std(
            "outlier",
            "BPM",
            ErrorConfig::Outlier { magnitude: 3.0 },
            ConditionConfig::HourRange { start: 6, end: 18 },
        ),
        std(
            "uniform_noise",
            "Distance",
            ErrorConfig::UniformNoise { a: 0.0, b: 0.3 },
            ConditionConfig::Sinusoidal {
                amplitude: 0.25,
                offset: 0.5,
            },
        ),
        std(
            "constant",
            "sensor",
            ErrorConfig::Constant {
                value: Value::Str("fixed".into()),
            },
            ConditionConfig::LinearRamp {
                from: "1970-01-01 00:00:00".into(),
                to: "1970-01-08 00:00:00".into(),
                p0: 0.2,
                p1: 0.8,
            },
        ),
        std(
            "timestamp_shift",
            "Time",
            ErrorConfig::TimestampShift {
                delta_ms: -3_600_000,
            },
            ConditionConfig::Probability { p: 0.5 },
        ),
        std(
            "missing_value",
            "BPM",
            ErrorConfig::MissingValue,
            ConditionConfig::Probability { p: 0.3 },
        ),
        std(
            "gaussian_noise",
            "Distance",
            ErrorConfig::GaussianNoise {
                sigma: 0.1,
                relative: true,
            },
            ConditionConfig::Value {
                attribute: "Distance".into(),
                op: CmpOp::Gt,
                value: Value::Float(10.0),
            },
        ),
        std(
            "scale",
            "BPM",
            ErrorConfig::Scale { factor: 1.5 },
            ConditionConfig::Probability { p: 0.7 },
        ),
    ]
}

/// Best wall-clock of `reps` timed runs, after one untimed warm-up.
fn best_secs(reps: u32, mut run: impl FnMut() -> f64) -> f64 {
    run();
    (0..reps).map(|_| run()).fold(f64::INFINITY, f64::min)
}

/// Measures every kernel family in both modes. Element counts are rows
/// (each family targets one attribute), so the two rates are directly
/// comparable per family.
fn measure_kernels(n: i64, reps: u32) -> Vec<KernelMeasurement> {
    use icewafl_types::ColumnBatch;

    let schema = kernel_schema();
    let rows = kernel_rows(n);
    // Batches are converted ONCE, outside every timed region: the
    // microbench isolates the stage inner loop, so rows↔columns
    // conversion — measured by the `columnar/*` scenario group above —
    // must not dilute the ratio.
    let batches: Vec<ColumnBatch> = rows
        .chunks(KERNEL_CHUNK)
        .map(|chunk| {
            ColumnBatch::from_rows(&schema, chunk.to_vec()).expect("bench rows fit the schema")
        })
        .collect();
    let mut log = PollutionLog::disabled();
    let mut out = Vec::new();
    for (family, config) in kernel_families() {
        let mut pipeline = lower_pipeline(42, 0, std::slice::from_ref(&config), &schema)
            .expect("kernel family compiles")
            .expect("kernel family lowers to columns");
        // Row mode: loose tuples through `process_row`, no conversion.
        let best_row = best_secs(reps, || {
            let mut input = rows.clone();
            let start = Instant::now();
            for tuple in &mut input {
                pipeline.process_row(tuple, &mut log);
            }
            start.elapsed().as_secs_f64()
        });

        // Columnar batches, vectorized kernels.
        let best_vec = best_secs(reps, || {
            let mut input = batches.clone();
            let start = Instant::now();
            for batch in &mut input {
                pipeline.process_batch(batch, &mut log);
            }
            start.elapsed().as_secs_f64()
        });

        out.push(KernelMeasurement {
            family: family.to_string(),
            row_elems_per_sec: n as f64 / best_row,
            vectorized_elems_per_sec: n as f64 / best_vec,
        });
    }
    out
}

/// Geometric mean of the per-family vectorized/row speedups — one
/// number summarizing whether the kernels still beat the tuple-at-a-time
/// inner loop. Geometric (not arithmetic) so one huge bitmap-kernel
/// ratio cannot mask a regression in the compute-bound families.
fn kernel_speedup_geomean(kernels: &[KernelMeasurement]) -> f64 {
    if kernels.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = kernels.iter().map(|k| k.speedup().ln()).sum();
    (log_sum / kernels.len() as f64).exp()
}

/// Network throughput of one serve configuration: an in-process server
/// and `sessions` concurrent clients streaming the reference workload.
fn measure_serve(n: i64, sessions: usize, format: &str) -> Measurement {
    use icewafl_serve::{client, ClientConfig, Handshake, ServeConfig, Server};
    use std::sync::Arc;

    let server = Arc::new(
        Server::bind(ServeConfig {
            max_sessions: sessions.max(1),
            ..ServeConfig::default()
        })
        .expect("bind serve listener"),
    );
    let addr = server.local_addr().to_string();
    let shutdown = server.shutdown_handle();
    let runner = Arc::clone(&server);
    let accept_loop = std::thread::spawn(move || runner.run());

    let handshake = Handshake {
        plan_inline: Some(plan(SERVE_PLAN.0, SERVE_PLAN.1)),
        schema_inline: Some(schema()),
        format: Some(format.to_string()),
        ..Handshake::default()
    };
    let input = tuples(n);
    let start = Instant::now();
    let workers: Vec<_> = (0..sessions)
        .map(|_| {
            let config = ClientConfig::new(addr.clone(), handshake.clone());
            let input = input.clone();
            std::thread::spawn(move || client::run_session(&config, input).expect("serve session"))
        })
        .collect();
    for worker in workers {
        let outcome = worker.join().expect("session thread");
        assert!(
            outcome.completed(),
            "serve session failed: {:?}",
            outcome.error
        );
        assert_eq!(outcome.tuples.len(), n as usize, "workload is lossless");
    }
    let elapsed = start.elapsed().as_secs_f64();
    shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    accept_loop
        .join()
        .expect("accept loop")
        .expect("server run");

    Measurement {
        name: format!("serve/{format}_x{sessions}"),
        strategy: format!("serve_{format}"),
        batch_size: SERVE_PLAN.1,
        tuples_per_sec: (sessions as i64 * n) as f64 / elapsed,
        best_ms: elapsed * 1e3,
    }
}

/// Recovery cost of the reference workload: a chaos kill halfway
/// through, under epoch-aligned checkpointing and supervised retry.
/// Returns the recovered run's `RunReport` after asserting the
/// recovered output is byte-identical to an undisturbed run — the same
/// invariant `tests/checkpoint_recovery.rs` pins, exercised here on
/// the bench workload so `recovery_ms` / `replayed_tuples` land in the
/// artifact next to the throughput numbers.
fn measure_recovery(n: i64) -> icewafl_core::report::RunReport {
    use icewafl_core::config::{ChaosSectionConfig, CheckpointSectionConfig, SupervisionConfig};

    let schema = schema();
    let base = {
        let mut p = plan(StrategyHint::Pipelined, 64);
        p.logging = true;
        p.supervision = Some(SupervisionConfig {
            max_retries: 2,
            deterministic: true,
            ..SupervisionConfig::default()
        });
        p.checkpoint = Some(CheckpointSectionConfig::default());
        p
    };
    let calm = base
        .clone()
        .compile(&schema)
        .expect("calm plan compiles")
        .execute_supervised(tuples(n))
        .expect("calm run succeeds");

    let mut hurt_plan = base;
    // `kill_at_tuple` counts records *per injector*, and each of the m
    // sub-stream injectors sees ~n/m records — aim for halfway through
    // one sub-stream so the kill actually fires.
    hurt_plan.chaos = Some(ChaosSectionConfig {
        kill_at_tuple: Some((n as u64 / (SUB_STREAMS as u64 * 2)).max(1)),
        panic_budget: Some(1),
        ..ChaosSectionConfig::default()
    });
    let hurt = hurt_plan
        .compile(&schema)
        .expect("hurt plan compiles")
        .execute_supervised(tuples(n))
        .expect("supervised run recovers");

    assert_eq!(
        calm.polluted, hurt.polluted,
        "recovered output must be byte-identical to the undisturbed run"
    );
    assert!(
        hurt.report.restored_from_epoch > 0,
        "run restored from a checkpoint"
    );
    hurt.report
}

fn render(
    n: i64,
    reps: u32,
    results: &[Measurement],
    kernels: &[KernelMeasurement],
    serve: &[Measurement],
    recovery: Option<&icewafl_core::report::RunReport>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"workload\": {\n");
    out.push_str(&format!("    \"n\": {n},\n"));
    out.push_str(&format!("    \"pipeline_length\": {PIPELINE_LEN},\n"));
    out.push_str(&format!("    \"sub_streams\": {SUB_STREAMS},\n"));
    out.push_str(&format!("    \"reps\": {reps}\n"));
    out.push_str("  },\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"strategy\": \"{}\", \"batch_size\": {}, \
             \"tuples_per_sec\": {:.0}, \"best_ms\": {:.2} }}{}\n",
            m.name,
            m.strategy,
            m.batch_size,
            m.tuples_per_sec,
            m.best_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]");
    if !kernels.is_empty() {
        // Absolute element/s are machine-dependent and stay outside the
        // `results` array the `--check` gate iterates; the `--relative`
        // gate consumes only the same-run speedup ratio.
        out.push_str(",\n  \"kernels\": [\n");
        for (i, k) in kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"family\": \"{}\", \"row_elems_per_sec\": {:.0}, \
                 \"vectorized_elems_per_sec\": {:.0}, \"speedup\": {:.2} }}{}\n",
                k.family,
                k.row_elems_per_sec,
                k.vectorized_elems_per_sec,
                k.speedup(),
                if i + 1 < kernels.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
    }
    if !serve.is_empty() {
        // Outside `results` on purpose: the --check gate must not
        // compare network numbers across machines.
        out.push_str(",\n  \"serve\": [\n");
        for (i, m) in serve.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"strategy\": \"{}\", \"batch_size\": {}, \
                 \"tuples_per_sec\": {:.0}, \"best_ms\": {:.2} }}{}\n",
                m.name,
                m.strategy,
                m.batch_size,
                m.tuples_per_sec,
                m.best_ms,
                if i + 1 < serve.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]");
    }
    if let Some(report) = recovery {
        // Also outside `results`: recovery cost is wall-clock on this
        // machine, not a cross-machine comparable throughput.
        out.push_str(&format!(
            ",\n  \"recovery\": {{ \"checkpoints_taken\": {}, \"restored_from_epoch\": {}, \
             \"replayed_tuples\": {}, \"recovery_ms\": {} }}",
            report.checkpoints_taken,
            report.restored_from_epoch,
            report.replayed_tuples,
            report.recovery_ms
        ));
    }
    out.push_str("\n}\n");
    out
}

/// Name of the configuration used as the normalization reference in
/// `--relative` mode: the direct drive over rows, no channel edges, no
/// batching, so its throughput tracks raw machine speed.
const REFERENCE_CONFIG: &str = "sequential/batch_1";

/// Minimum direct-drive over channel-driver speedup the `--relative`
/// gate accepts: the best `sequential/*` configuration (the direct
/// drive) against the best `pipelined/*` one (the channel driver), both
/// row plans with the log off, from this run. The two differ only in
/// the drive, so the ratio is hardware-independent. On a 2-core x86
/// container it measured 1.9–3.0x over ten runs; when sequential
/// plans ran on the channel driver it was ~1.1x (1.73M vs 1.61M
/// tuples/s in the previous baseline). The floor sits between, so it
/// fails if sequential plans stop taking the direct drive, and far
/// enough under the measured ratio that scheduler noise cannot flake
/// CI.
const DIRECT_CHANNEL_SPEEDUP_FLOOR: f64 = 1.5;

/// Minimum binary-serve over offline throughput ratio the `--relative`
/// gate accepts when this run measured serve (`--serve`). The offline
/// side is the run of the plan the sessions run ([`SERVE_PLAN`]), from
/// this run, so the ratio prices the network path and not a difference
/// in plans; both run on the same machine in the same process, so it
/// is hardware-independent. The floor guards the event-driven serving
/// path against regressing back toward the ~0.3x the thread-per-session
/// server measured, while staying far enough under the measured ratio
/// that scheduler noise cannot flake CI.
const SERVE_BINARY_RATIO_FLOOR: f64 = 0.5;

/// Minimum geometric-mean vectorized/row kernel speedup the
/// `--relative` gate accepts. Both inner loops run on the same pipeline
/// object in the same process, so the ratio is hardware-independent.
/// The bitmap and select kernels measure well above this; the floor's
/// job is to catch the kernels silently degenerating into a per-row
/// loop (geomean ~1.0), while sitting far enough under the measured
/// geomean that the branchy stochastic families (gaussian, outlier)
/// cannot flake CI on a noisy machine.
const KERNEL_SPEEDUP_FLOOR: f64 = 1.3;

/// Compares measured throughput against a committed baseline; returns
/// the names of configurations that regressed beyond `tolerance`. In
/// relative mode both sides are divided by their own
/// [`REFERENCE_CONFIG`] throughput first, comparing speedup ratios
/// instead of machine-dependent absolute rates — and the same-run ratios
/// are gated against [`DIRECT_CHANNEL_SPEEDUP_FLOOR`],
/// [`KERNEL_SPEEDUP_FLOOR`] and, when this run measured serve,
/// [`SERVE_BINARY_RATIO_FLOOR`].
fn check(
    baseline_json: &str,
    results: &[Measurement],
    kernels: &[KernelMeasurement],
    serve: &[Measurement],
    tolerance: f64,
    relative: bool,
) -> Vec<String> {
    let baseline: serde_json::Value =
        serde_json::from_str(baseline_json).expect("baseline parses as JSON");
    let entries = baseline
        .get("results")
        .and_then(|r| r.as_array())
        .expect("baseline has a results array");
    let base_tps_of = |name: &str| {
        entries.iter().find_map(|e| {
            (e.get("name").and_then(|v| v.as_str()) == Some(name))
                .then(|| e.get("tuples_per_sec").and_then(|v| v.as_f64()))
                .flatten()
        })
    };
    let (base_ref, measured_ref) = if relative {
        let base = base_tps_of(REFERENCE_CONFIG)
            .expect("baseline contains the sequential/batch_1 reference");
        let measured = results
            .iter()
            .find(|m| m.name == REFERENCE_CONFIG)
            .expect("this run contains the sequential/batch_1 reference")
            .tuples_per_sec;
        (base, measured)
    } else {
        (1.0, 1.0)
    };
    let mut regressions = Vec::new();
    for entry in entries {
        let (Some(name), Some(base_tps)) = (
            entry.get("name").and_then(|v| v.as_str()),
            entry.get("tuples_per_sec").and_then(|v| v.as_f64()),
        ) else {
            continue;
        };
        if relative && name == REFERENCE_CONFIG {
            continue; // its ratio is 1.0 on both sides by construction
        }
        let Some(measured) = results.iter().find(|m| m.name == name) else {
            continue;
        };
        let baseline_score = base_tps / base_ref;
        let measured_score = measured.tuples_per_sec / measured_ref;
        let floor = baseline_score * (1.0 - tolerance);
        if measured_score < floor {
            let unit = if relative { "x reference" } else { " tuples/s" };
            regressions.push(format!(
                "{name}: {measured_score:.2}{unit} < floor {floor:.2} \
                 (baseline {baseline_score:.2})"
            ));
        }
    }
    if relative {
        let best_tps = |group: &str| {
            results
                .iter()
                .filter(|m| m.strategy == group)
                .map(|m| m.tuples_per_sec)
                .fold(f64::NAN, f64::max)
        };
        // The direct drive's win over the channel driver: the same row
        // plans, the drive the only difference. A sequential plan that
        // silently falls back to the channel driver brings it to ~1.1x.
        let direct_ratio = best_tps("sequential") / best_tps("pipelined");
        if direct_ratio.is_finite() {
            eprintln!(
                "direct/channel drive speedup: {direct_ratio:.2}x \
                 (floor {DIRECT_CHANNEL_SPEEDUP_FLOOR:.1}x)"
            );
            if direct_ratio < DIRECT_CHANNEL_SPEEDUP_FLOOR {
                regressions.push(format!(
                    "direct/channel speedup: {direct_ratio:.2}x < floor \
                     {DIRECT_CHANNEL_SPEEDUP_FLOOR:.1}x"
                ));
            }
        }
        // The kernel-level win gets its own gate: the sweeps above can
        // stay healthy on transport savings alone even if every kernel
        // quietly falls back to the tuple-at-a-time path, so gate the
        // inner loops directly.
        let geomean = kernel_speedup_geomean(kernels);
        if geomean.is_finite() {
            eprintln!(
                "vectorized/row kernel speedup (geomean): {geomean:.2}x \
                 (floor {KERNEL_SPEEDUP_FLOOR:.1}x)"
            );
            if geomean < KERNEL_SPEEDUP_FLOOR {
                regressions.push(format!(
                    "kernel speedup geomean: {geomean:.2}x < floor {KERNEL_SPEEDUP_FLOOR:.1}x"
                ));
            }
        }
        // The serve/offline gap: gate the best binary serve
        // configuration against the offline run of the same plan from
        // this run, so the event-driven server cannot silently regress
        // toward thread-per-session territory. Only active when this
        // run measured serve.
        let serve_binary = serve
            .iter()
            .filter(|m| m.strategy == "serve_binary")
            .map(|m| m.tuples_per_sec)
            .fold(f64::NAN, f64::max);
        let offline = results
            .iter()
            .find(|m| m.name == serve_offline_config())
            .map(|m| m.tuples_per_sec)
            .unwrap_or(f64::NAN);
        let serve_ratio = serve_binary / offline;
        if serve_ratio.is_finite() {
            eprintln!(
                "binary serve / offline {}: {serve_ratio:.2}x \
                 (floor {SERVE_BINARY_RATIO_FLOOR:.1}x)",
                serve_offline_config()
            );
            if serve_ratio < SERVE_BINARY_RATIO_FLOOR {
                regressions.push(format!(
                    "binary serve/offline ratio: {serve_ratio:.2}x < floor \
                     {SERVE_BINARY_RATIO_FLOOR:.1}x"
                ));
            }
        }
    }
    regressions
}

/// The `results` name of the offline run of [`SERVE_PLAN`].
fn serve_offline_config() -> String {
    format!("{}/batch_{}", strategy_name(SERVE_PLAN.0), SERVE_PLAN.1)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: i64 = arg_value(&args, "--n")
        .map(|v| v.parse().expect("--n takes an integer"))
        .unwrap_or(10_000);
    let reps: u32 = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps takes an integer"))
        .unwrap_or(5);
    let out_path = arg_value(&args, "--out");
    let check_path = arg_value(&args, "--check");
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a float"))
        .unwrap_or(0.30);
    let relative = args.iter().any(|a| a == "--relative");

    let strategies = [
        StrategyHint::Sequential,
        StrategyHint::Pipelined,
        StrategyHint::SplitMergeParallel,
    ];
    let mut results = Vec::new();
    for strategy in strategies {
        for batch_size in BATCH_SIZES {
            let m = measure(strategy, batch_size, n, reps);
            eprintln!(
                "{:<32} {:>12.0} tuples/s  (best {:.2} ms)",
                m.name, m.tuples_per_sec, m.best_ms
            );
            results.push(m);
        }
    }
    // Columnar scenario group: the sequential reference workload with
    // `repr = columnar`, swept over the columnar batch sizes. Lands in
    // `results` so the `--check --relative` gate compares its speedup
    // over `sequential/batch_1` across machines, the same way it gates
    // the row groups. Then the logged groups: the same sweep with the
    // ground-truth log on, as the CLI runs by default, once on rows and
    // once on columns; the `--relative` gate holds their best-vs-best
    // ratio to a floor.
    // The two logged groups interleave their reps, batch size by batch
    // size, so the gated ratio compares runs made side by side.
    assert_logged_reprs_agree(n);
    let sequential = |batch_size, repr, logging, group| Scenario {
        strategy: StrategyHint::Sequential,
        batch_size,
        repr,
        logging,
        group: Some(group),
    };
    let columnar =
        COLUMNAR_BATCH_SIZES.map(|b| vec![sequential(b, ReprHint::Columnar, false, "columnar")]);
    let logged = COLUMNAR_BATCH_SIZES.map(|b| {
        vec![
            sequential(b, ReprHint::Row, true, "sequential_logged"),
            sequential(b, ReprHint::Columnar, true, "columnar_logged"),
        ]
    });
    for scenarios in columnar.iter().chain(&logged) {
        for m in measure_interleaved(scenarios, n, reps) {
            eprintln!(
                "{:<32} {:>12.0} tuples/s  (best {:.2} ms)",
                m.name, m.tuples_per_sec, m.best_ms
            );
            results.push(m);
        }
    }

    // Kernel microbench: every vectorized kernel family, element/s in
    // row vs vectorized mode on one pipeline object.
    let kernels = measure_kernels(n, reps);
    for k in &kernels {
        eprintln!(
            "kernel/{:<24} {:>12.0} row  {:>12.0} vec elems/s  ({:.2}x)",
            k.family,
            k.row_elems_per_sec,
            k.vectorized_elems_per_sec,
            k.speedup()
        );
    }

    let mut serve_results = Vec::new();
    if args.iter().any(|a| a == "--serve") {
        let sessions: usize = arg_value(&args, "--serve-sessions")
            .map(|v| v.parse().expect("--serve-sessions takes an integer"))
            .unwrap_or(4);
        for format in ["ndjson", "binary"] {
            let m = measure_serve(n, sessions, format);
            eprintln!(
                "{:<32} {:>12.0} tuples/s  (wall {:.2} ms)",
                m.name, m.tuples_per_sec, m.best_ms
            );
            serve_results.push(m);
        }
    }

    let recovery = measure_recovery(n);
    eprintln!(
        "{:<32} restored from epoch {} (replayed {} tuples, {} ms restoring)",
        "recovery/pipelined_batch_64",
        recovery.restored_from_epoch,
        recovery.replayed_tuples,
        recovery.recovery_ms
    );

    let report = render(n, reps, &results, &kernels, &serve_results, Some(&recovery));
    match &out_path {
        Some(path) => std::fs::write(path, &report).expect("write report"),
        None => print!("{report}"),
    }

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let regressions = check(
            &baseline,
            &results,
            &kernels,
            &serve_results,
            tolerance,
            relative,
        );
        if !regressions.is_empty() {
            eprintln!("throughput regressions beyond {:.0}%:", tolerance * 100.0);
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
        eprintln!("no regressions beyond {:.0}%", tolerance * 100.0);
    }
}
