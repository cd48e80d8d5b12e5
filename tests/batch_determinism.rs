//! Transport-batching determinism acceptance tests.
//!
//! `batch_size` is a pure performance knob: channel edges coalesce
//! records into `StreamElement::Batch` frames, but every buffer is
//! flushed *before* a watermark, end marker, or failure travels the
//! edge, so event-time semantics, epoch boundaries, and the ground
//! truth log are bit-identical across batch sizes. These tests pin that
//! contract across strategies, a mid-stream reconfiguration, and
//! chaos-injected panics (poison must not strand a partial batch).

use icewafl::prelude::*;
use icewafl::types::{DataType, Error, Timestamp, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Swept batch sizes: unbatched, an odd size that never divides the
/// watermark period, the default, and one far beyond it.
const BATCH_SIZES: [usize; 4] = [1, 7, 256, 4096];

const STRATEGIES: [StrategyHint; 3] = [
    StrategyHint::Sequential,
    StrategyHint::Pipelined,
    StrategyHint::SplitMergeParallel,
];

fn schema() -> Schema {
    Schema::from_pairs([("Time", DataType::Timestamp), ("x", DataType::Float)]).unwrap()
}

/// Tuples one second apart: tuple `i` has τ = i·1000 ms and x = i.
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

fn noise(name: String) -> PolluterConfig {
    PolluterConfig::Standard {
        name,
        attributes: vec!["x".into()],
        error: ErrorConfig::GaussianNoise {
            sigma: 1.0,
            relative: false,
        },
        condition: ConditionConfig::Probability { p: 0.5 },
        pattern: None,
    }
}

fn run(plan: &LogicalPlan, n: i64) -> PollutionOutput {
    plan.compile(&schema())
        .expect("plan compiles")
        .execute(tuples(n))
        .expect("run succeeds")
}

/// Overlapping sub-streams (probabilistic assigner shares tuples via
/// the router's `Arc` fan-out) plus duplicates and delays, so batches
/// interact with every temporal mechanism: held-back tuples, watermark
/// releases, and multi-membership routing.
fn rich_plan(strategy: StrategyHint, batch_size: usize) -> LogicalPlan {
    let pipeline = |i: usize| {
        vec![
            noise(format!("noise-{i}")),
            PolluterConfig::Duplicate {
                name: format!("dup-{i}"),
                condition: ConditionConfig::Probability { p: 0.1 },
                copies: 1,
            },
            PolluterConfig::Delay {
                name: format!("lag-{i}"),
                condition: ConditionConfig::Probability { p: 0.2 },
                delay_ms: 10_000,
            },
        ]
    };
    let mut plan = LogicalPlan::new(42, (0..3).map(pipeline).collect());
    plan.assigner = AssignerSpec::Probabilistic { p: 0.6 };
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan
}

/// Disjoint round-robin sub-streams with unique arrival times, where
/// even the thread-parallel merge order is fully determined by the
/// final sort — the configuration in which all strategies must agree
/// byte-for-byte.
fn disjoint_plan(strategy: StrategyHint, batch_size: usize) -> LogicalPlan {
    let mut plan = LogicalPlan::new(
        42,
        (0..4).map(|i| vec![noise(format!("noise-{i}"))]).collect(),
    );
    plan.assigner = AssignerSpec::RoundRobin;
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan
}

#[test]
fn batching_is_invisible_within_each_strategy() {
    // Deterministic-merge strategies: polluted stream, clean stream,
    // and ground-truth log are all byte-identical across batch sizes.
    for strategy in [StrategyHint::Sequential, StrategyHint::Pipelined] {
        let base = run(&rich_plan(strategy, 1), 500);
        assert!(base.polluted.len() > 500, "duplicates fan the stream out");
        for batch_size in BATCH_SIZES {
            let out = run(&rich_plan(strategy, batch_size), 500);
            assert_eq!(
                out.polluted, base.polluted,
                "polluted stream changed ({strategy:?}, batch {batch_size})"
            );
            assert_eq!(out.clean, base.clean);
            assert_eq!(
                out.log.entries(),
                base.log.entries(),
                "ground truth changed ({strategy:?}, batch {batch_size})"
            );
        }
    }
}

#[test]
fn batching_is_invisible_under_thread_parallel_merge() {
    // With overlapping sub-streams the parallel merge order of arrival
    // ties is scheduler-dependent, so compare content: sort by the
    // stable identity (id, sub_stream) before asserting equality.
    let canon = |mut out: Vec<StampedTuple>| {
        out.sort_by_key(|t| (t.id, t.sub_stream, t.arrival));
        out
    };
    let base = canon(run(&rich_plan(StrategyHint::SplitMergeParallel, 1), 500).polluted);
    for batch_size in BATCH_SIZES {
        let out = run(
            &rich_plan(StrategyHint::SplitMergeParallel, batch_size),
            500,
        );
        assert_eq!(
            canon(out.polluted),
            base,
            "parallel pollution content changed (batch {batch_size})"
        );
    }
}

#[test]
fn all_strategies_agree_across_batch_sizes() {
    let base = run(&disjoint_plan(StrategyHint::Sequential, 1), 1000);
    assert_eq!(base.polluted.len(), 1000);
    for strategy in STRATEGIES {
        for batch_size in BATCH_SIZES {
            let out = run(&disjoint_plan(strategy, batch_size), 1000);
            assert_eq!(
                out.polluted, base.polluted,
                "output diverged ({strategy:?}, batch {batch_size})"
            );
        }
    }
}

/// The reconfiguration scale plan of `tests/reconfiguration.rs`: ×2
/// flipped to ×0.5 at T = 256 000 ms, which the watermark grain of 64
/// pins to an epoch switch exactly at tuple 320.
fn flipped_scale_run(strategy: StrategyHint, batch_size: usize) -> PollutionOutput {
    let mut plan = LogicalPlan::new(
        7,
        vec![vec![PolluterConfig::Standard {
            name: "scale".into(),
            attributes: vec!["x".into()],
            error: ErrorConfig::Scale { factor: 2.0 },
            condition: ConditionConfig::Always,
            pattern: None,
        }]],
    );
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    let physical = plan.compile(&schema()).expect("plan compiles");
    physical
        .control_handle()
        .reconfigure_at(
            Timestamp(256_000),
            &[PlanDelta::SetError {
                polluter: "scale".into(),
                error: ErrorConfig::Scale { factor: 0.5 },
            }],
        )
        .expect("delta validates");
    physical.execute(tuples(400)).expect("run succeeds")
}

#[test]
fn epoch_boundary_is_batch_size_invariant() {
    let base = flipped_scale_run(StrategyHint::Sequential, 1);
    for strategy in STRATEGIES {
        for batch_size in BATCH_SIZES {
            let out = flipped_scale_run(strategy, batch_size);
            assert_eq!(out.report.epochs_applied, 1);
            assert_eq!(
                out.polluted, base.polluted,
                "epoch split moved ({strategy:?}, batch {batch_size})"
            );
            // The switch lands exactly at tuple 320 — the first tuple
            // after the first watermark >= 256 000 — under every batch
            // size, because batches flush before watermarks broadcast.
            let first_new = out
                .polluted
                .iter()
                .find(|t| t.id > 0 && t.tuple.get(1) == Some(&Value::Float(t.id as f64 * 0.5)))
                .map(|t| t.id);
            assert_eq!(first_new, Some(320));
        }
    }
}

// ---------------------------------------------------------------------
// Columnar vs row representation
// ---------------------------------------------------------------------

/// Batch sizes for the representation sweep. 1 exercises the degenerate
/// single-row column kernels; 4096 exceeds every internal buffer.
const REPR_BATCH_SIZES: [usize; 4] = [1, 64, 256, 4096];

/// A value-only plan (noise + scale) that lowers to column kernels,
/// with the representation pinned so a silent fallback would fail the
/// compile instead of silently testing row against row.
fn repr_plan(strategy: StrategyHint, batch_size: usize, repr: ReprHint) -> LogicalPlan {
    let pipeline = |i: usize| {
        vec![
            noise(format!("noise-{i}")),
            PolluterConfig::Standard {
                name: format!("scale-{i}"),
                attributes: vec!["x".into()],
                error: ErrorConfig::Scale { factor: 1.5 },
                condition: ConditionConfig::Probability { p: 0.3 },
                pattern: None,
            },
        ]
    };
    let mut plan = LogicalPlan::new(42, (0..3).map(pipeline).collect());
    plan.assigner = AssignerSpec::RoundRobin;
    plan.strategy = strategy;
    plan.batch_size = batch_size;
    plan.repr = repr;
    plan
}

#[test]
fn columnar_output_is_byte_identical_to_row() {
    // The tentpole invariant: representation is a pure performance
    // knob. Polluted stream, clean stream, and ground-truth log are
    // byte-identical between row and columnar execution for every
    // strategy and batch size.
    // The thread-parallel merge appends log entries from concurrent
    // workers, so entry *order* is scheduler-dependent there (content
    // is not) — canonicalize by the stable identity before comparing.
    let canon_log = |out: &PollutionOutput| {
        let mut entries = out.log.entries().to_vec();
        entries.sort_by_key(|e| (e.tuple_id(), e.polluter().to_string(), e.tau()));
        entries
    };
    let base = run(&repr_plan(StrategyHint::Sequential, 1, ReprHint::Row), 500);
    for strategy in STRATEGIES {
        for batch_size in REPR_BATCH_SIZES {
            for repr in [ReprHint::Row, ReprHint::Columnar] {
                let plan = repr_plan(strategy, batch_size, repr);
                let physical = plan.compile(&schema()).expect("plan compiles");
                let expected = match repr {
                    ReprHint::Columnar => "columnar",
                    _ => "row",
                };
                assert_eq!(physical.repr_summary(), expected);
                let out = physical.execute(tuples(500)).expect("run succeeds");
                assert_eq!(
                    out.polluted, base.polluted,
                    "polluted stream changed ({strategy:?}, batch {batch_size}, {repr:?})"
                );
                assert_eq!(out.clean, base.clean);
                if matches!(strategy, StrategyHint::SplitMergeParallel) {
                    assert_eq!(
                        canon_log(&out),
                        canon_log(&base),
                        "ground truth changed ({strategy:?}, batch {batch_size}, {repr:?})"
                    );
                } else {
                    assert_eq!(
                        out.log.entries(),
                        base.log.entries(),
                        "ground truth changed ({strategy:?}, batch {batch_size}, {repr:?})"
                    );
                }
            }
        }
    }
}

/// Which offline drive ran, read from the `drive/<name>/tuples_in`
/// counter the runner registers for it; `None` with metrics compiled
/// out. A direct-drive run must also register no `split_router`
/// metric, so a silent fallback to the channel driver cannot pass.
fn drive_of(out: &PollutionOutput) -> Option<&'static str> {
    if !out.report.metrics_compiled_in {
        return None;
    }
    let counters = &out.report.metrics.counters;
    let routed = counters.keys().any(|k| k.contains("split_router"));
    match (
        counters.contains_key("drive/direct/tuples_in"),
        counters.contains_key("drive/channel/tuples_in"),
    ) {
        (true, false) if !routed => Some("direct"),
        (false, true) if routed => Some("channel"),
        other => panic!("inconsistent drive counters {other:?}, split_router metrics: {routed}"),
    }
}

/// Asserts the drive that ran, when metrics can tell.
fn assert_drive(out: &PollutionOutput, expected: &str, what: &str) {
    if let Some(drive) = drive_of(out) {
        assert_eq!(drive, expected, "wrong drive for {what}");
    }
}

/// Asserts that two runs wrote the same bytes: polluted stream, clean
/// stream and ground-truth log, and with `stats` also every polluter's
/// statistics (fires, skips, condition evaluations, RNG draws, buffer
/// peaks, log entries).
fn assert_same_run(got: &PollutionOutput, want: &PollutionOutput, stats: bool, what: &str) {
    assert_eq!(got.polluted, want.polluted, "polluted stream ({what})");
    assert_eq!(got.clean, want.clean, "clean stream ({what})");
    assert_eq!(got.log.entries(), want.log.entries(), "log ({what})");
    if stats {
        assert_eq!(
            got.report.polluters, want.report.polluters,
            "stats ({what})"
        );
    }
}

/// `(elements_in, elements_out)` of each of `m` sub-stream pollution
/// stages, whose labels start at index `first` (2 on the sequential
/// layout, 3 behind the pipelined strategy's extra channel stage).
fn pipeline_counts(out: &PollutionOutput, first: usize, m: usize) -> Vec<(u64, u64)> {
    let c = |i: usize, what: &str| {
        out.report
            .metrics
            .counter(&format!("stage/{:02}_pollution_pipeline/{what}", first + i))
    };
    (0..m)
        .map(|i| (c(i, "elements_in"), c(i, "elements_out")))
        .collect()
}

/// Asserts that a direct run's stage counters say what a real channel
/// run (pipelined strategy) measured: tuples into and out of each
/// sub-stream, drops and duplicates included, and into the sorter.
fn assert_same_stage_counts(direct: &PollutionOutput, channel: &PollutionOutput, m: usize) {
    if !direct.report.metrics_compiled_in {
        return;
    }
    assert_eq!(
        pipeline_counts(direct, 2, m),
        pipeline_counts(channel, 3, m),
        "sub-stream stage counters"
    );
    let sorted = |out: &PollutionOutput| {
        out.report
            .metrics
            .counter("stage/00_event_time_sorter/elements_in")
    };
    assert_eq!(sorted(direct), sorted(channel), "sorter input");
    assert_eq!(sorted(direct), direct.polluted.len() as u64);
}

#[test]
fn direct_columnar_drive_matches_the_channel_paths() {
    // A sequential plan takes the direct drive (route → pivot once →
    // kernels → merge by arrival, no channels or sorter heap) with the
    // log off and on, on columns and on rows alike. Both must match a
    // real channel run: the pipelined strategy keeps the channel
    // driver, on columns and on rows.
    let run_with = |strategy: StrategyHint, repr: ReprHint, logging: bool, batch_size: usize| {
        let mut plan = repr_plan(strategy, batch_size, repr);
        plan.logging = logging;
        run(&plan, 500)
    };
    for logging in [false, true] {
        for batch_size in [64usize, 4096] {
            let what = format!("logging {logging}, batch {batch_size}");
            let direct = run_with(
                StrategyHint::Sequential,
                ReprHint::Columnar,
                logging,
                batch_size,
            );
            let direct_row = run_with(StrategyHint::Sequential, ReprHint::Row, logging, batch_size);
            let channel = run_with(
                StrategyHint::Pipelined,
                ReprHint::Columnar,
                logging,
                batch_size,
            );
            let channel_row = run_with(StrategyHint::Pipelined, ReprHint::Row, logging, batch_size);
            assert_drive(&direct, "direct", &what);
            assert_drive(&direct_row, "direct", &what);
            assert_drive(&channel, "channel", &what);
            assert_drive(&channel_row, "channel", &what);
            assert_same_run(&direct, &channel, true, &format!("columnar, {what}"));
            assert_same_run(&direct_row, &channel_row, true, &format!("rows, {what}"));
            assert_same_run(
                &direct,
                &channel_row,
                false,
                &format!("columnar vs rows, {what}"),
            );
            assert_same_stage_counts(&direct, &channel, 3);
            assert_same_stage_counts(&direct_row, &channel_row, 3);
            assert_eq!(!direct.log.is_empty(), logging);
        }
    }
}

/// Twelve series interleaved on one clock: every timestamp is shared by
/// twelve consecutive tuples, so the channel driver's sorter breaks a
/// tie on every release and the direct drive's merge does too. With
/// `swap_at = Some(i)` tuple `i` trades places with the tuple a whole
/// tick later, so arrivals are no longer non-decreasing.
fn tied_tuples(ticks: i64, swap_at: Option<usize>) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = (0..ticks)
        .flat_map(|t| {
            (0..12).map(move |s| {
                Tuple::new(vec![
                    Value::Timestamp(Timestamp(t * 60_000)),
                    Value::Float((s * 1000 + t) as f64),
                ])
            })
        })
        .collect();
    if let Some(i) = swap_at {
        out.swap(i, i + 12);
    }
    out
}

#[test]
fn tied_arrivals_take_the_direct_drive_byte_identically() {
    // The paper-scale shape: interleaved stations tie on every
    // timestamp, the log is on (the CLI default), and the plan is
    // value-only. Under the sequential strategy it takes the direct
    // drive on columns and on rows; under the pipelined one it keeps
    // the channel driver. Every run must equal the row channel run byte
    // for byte: polluted stream, clean stream and ground-truth log.
    let input = tied_tuples(60, None);
    for m in [3usize, 5] {
        for batch_size in BATCH_SIZES {
            let run_with = |strategy: StrategyHint, repr: ReprHint| {
                let mut plan = repr_plan(strategy, batch_size, repr);
                plan.pipelines.truncate(1);
                let first = plan.pipelines[0].clone();
                plan.pipelines = (0..m)
                    .map(|i| {
                        first
                            .iter()
                            .map(|p| {
                                let mut p = p.clone();
                                if let PolluterConfig::Standard { name, .. } = &mut p {
                                    *name = format!("{name}-{i}");
                                }
                                p
                            })
                            .collect()
                    })
                    .collect();
                assert!(plan.logging, "the log is on by default");
                plan.compile(&schema())
                    .expect("plan compiles")
                    .execute(input.clone())
                    .expect("run succeeds")
            };
            let reference = run_with(StrategyHint::Pipelined, ReprHint::Row);
            assert_drive(&reference, "channel", "row reference");
            assert!(reference.log.len() > 100, "the plan pollutes");
            for strategy in [StrategyHint::Sequential, StrategyHint::Pipelined] {
                for repr in [ReprHint::Row, ReprHint::Columnar] {
                    let what =
                        format!("{m} sub-streams, {strategy:?}, {repr:?}, batch {batch_size}");
                    let out = run_with(strategy, repr);
                    let expected = match strategy {
                        StrategyHint::Sequential => "direct",
                        _ => "channel",
                    };
                    assert_drive(&out, expected, &what);
                    assert_same_run(&out, &reference, repr == ReprHint::Row, &what);
                }
            }
        }
    }
}

#[test]
fn out_of_order_arrivals_fall_back_to_the_channel_driver() {
    // One tuple a tick early breaks non-decreasing arrivals: the
    // sorter's watermark releases then decide the order, which only the
    // channel driver reproduces. Row and columnar plans must fall back
    // and still equal each other.
    let input = tied_tuples(40, Some(100));
    for batch_size in BATCH_SIZES {
        let run_with = |repr: ReprHint| {
            repr_plan(StrategyHint::Sequential, batch_size, repr)
                .compile(&schema())
                .expect("plan compiles")
                .execute(input.clone())
                .expect("run succeeds")
        };
        let what = format!("batch {batch_size}");
        let row = run_with(ReprHint::Row);
        let col = run_with(ReprHint::Columnar);
        assert_drive(&row, "channel", &what);
        assert_drive(&col, "channel", &what);
        assert_same_run(&col, &row, false, &what);
    }
}

/// Sub-stream `i`'s pipeline of a value-only (`values`), temporal-only
/// (`temporal`) or mixed plan: noise and scale lower to column kernels;
/// delay, drop, duplicate, freeze and burst keep a sub-stream on rows.
/// The mixed plan alternates, temporal on even sub-streams.
fn pipeline_of(kind: &str, i: usize) -> Vec<PolluterConfig> {
    let p = |p: f64| ConditionConfig::Probability { p };
    let values = vec![
        noise(format!("noise-{i}")),
        PolluterConfig::Standard {
            name: format!("scale-{i}"),
            attributes: vec!["x".into()],
            error: ErrorConfig::Scale { factor: 1.5 },
            condition: p(0.3),
            pattern: None,
        },
    ];
    let temporal = vec![
        PolluterConfig::Delay {
            name: format!("lag-{i}"),
            condition: p(0.2),
            // Two ticks of `tied_tuples`: a delayed tuple ties with the
            // tuples two ticks on, so where the watermarks release it
            // decides its place among them.
            delay_ms: 120_000,
        },
        PolluterConfig::Drop {
            name: format!("drop-{i}"),
            condition: p(0.1),
        },
        PolluterConfig::Duplicate {
            name: format!("dup-{i}"),
            condition: p(0.1),
            copies: 2,
        },
        PolluterConfig::Freeze {
            name: format!("freeze-{i}"),
            condition: p(0.05),
            attributes: vec!["x".into()],
            duration_ms: 180_000,
        },
        PolluterConfig::Burst {
            name: format!("burst-{i}"),
            condition: p(0.03),
            attributes: vec!["x".into()],
            error: ErrorConfig::Scale { factor: 0.125 },
            duration_ms: 120_000,
        },
    ];
    match kind {
        "values" => values,
        "temporal" => temporal,
        _ if i.is_multiple_of(2) => temporal,
        _ => values,
    }
}

#[test]
fn temporal_plans_take_the_direct_drive_byte_identically() {
    // The paper's temporal errors — delays, drops, duplicates, frozen
    // values, bursts — on interleaved series tied on every timestamp,
    // with the log on. Under the sequential strategy the plan takes the
    // direct drive: row sub-streams get the source's watermarks at the
    // channel driver's input positions. It must equal a real channel run
    // (pipelined) in every byte and every statistic, and its stage
    // counters must count what really left each sub-stream.
    let input = tied_tuples(40, None);
    for (kind, m) in [("temporal", 1usize), ("temporal", 4), ("mixed", 4)] {
        for period in [1u64, 7, 64] {
            for batch_size in BATCH_SIZES {
                let run_with = |strategy: StrategyHint| {
                    let mut plan =
                        LogicalPlan::new(5, (0..m).map(|i| pipeline_of(kind, i)).collect());
                    plan.assigner = AssignerSpec::RoundRobin;
                    plan.strategy = strategy;
                    plan.watermark_period = period;
                    plan.batch_size = batch_size;
                    let physical = plan.compile(&schema()).expect("plan compiles");
                    if kind == "mixed" {
                        let summary = format!("mixed({}/{m} columnar)", m / 2);
                        assert_eq!(physical.repr_summary(), summary);
                    }
                    physical.execute(input.clone()).expect("run succeeds")
                };
                let what = format!("{kind}, {m} sub-streams, period {period}, batch {batch_size}");
                let direct = run_with(StrategyHint::Sequential);
                let channel = run_with(StrategyHint::Pipelined);
                assert_drive(&direct, "direct", &what);
                assert_drive(&channel, "channel", &what);
                assert_ne!(direct.polluted.len(), input.len(), "drops, dups ({what})");
                assert!(
                    direct
                        .polluted
                        .windows(2)
                        .all(|w| w[0].arrival <= w[1].arrival),
                    "sorted by arrival ({what})"
                );
                assert_same_run(&direct, &channel, true, &what);
                assert_same_stage_counts(&direct, &channel, m);
            }
        }
    }
}

#[test]
fn multi_membership_assigners_take_the_direct_drive_identically() {
    // Broadcast (every tuple in every sub-stream) and probabilistic
    // overlap route a tuple into several sub-streams. The direct drive
    // clones it into each, as the router does, and twins sharing an
    // arrival merge by sub-stream index, as the sorter releases them.
    // Value-only, temporal-only and mixed plans must equal a real
    // channel run byte for byte at several watermark periods.
    for assigner in [
        AssignerSpec::Broadcast,
        AssignerSpec::Probabilistic { p: 0.6 },
    ] {
        for kind in ["values", "temporal", "mixed"] {
            for period in [1u64, 5, 64] {
                let run_with = |strategy: StrategyHint| {
                    let mut plan =
                        LogicalPlan::new(42, (0..3).map(|i| pipeline_of(kind, i)).collect());
                    plan.assigner = assigner;
                    plan.strategy = strategy;
                    plan.watermark_period = period;
                    run(&plan, 300)
                };
                let what = format!("{assigner:?}, {kind}, period {period}");
                let direct = run_with(StrategyHint::Sequential);
                let channel = run_with(StrategyHint::Pipelined);
                assert_drive(&direct, "direct", &what);
                assert_drive(&channel, "channel", &what);
                assert!(direct.polluted.len() > 300, "overlap fans out ({what})");
                assert_same_run(&direct, &channel, true, &what);
                assert_same_stage_counts(&direct, &channel, 3);
            }
        }
    }
}

/// Moves every `every`-th tuple's arrival `by_ms` *earlier*, which no
/// built-in polluter does (delays are non-negative).
struct Rewind {
    every: u64,
    by_ms: i64,
}

impl Polluter for Rewind {
    fn process(&mut self, mut tuple: StampedTuple, out: &mut Emission) {
        if tuple.id.is_multiple_of(self.every) {
            tuple.arrival = Timestamp(tuple.arrival.millis() - self.by_ms);
        }
        out.emit(tuple);
    }

    fn name(&self) -> &str {
        "rewind"
    }

    fn expected_probability(&self, _tuple: &StampedTuple) -> f64 {
        0.0
    }
}

/// Holds every `every`-th tuple until the next watermark and writes
/// that watermark into `x`; what `finish` releases keeps its value. Its
/// output shows which watermarks a sub-stream saw, and where.
struct Latch {
    every: u64,
    held: Vec<StampedTuple>,
}

impl Polluter for Latch {
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        if tuple.id.is_multiple_of(self.every) {
            self.held.push(tuple);
        } else {
            out.emit(tuple);
        }
    }

    fn on_watermark(&mut self, wm: Timestamp, out: &mut Emission) {
        for mut tuple in self.held.drain(..) {
            if let Some(x) = tuple.tuple.get_mut(1) {
                *x = Value::Float(wm.millis() as f64);
            }
            out.emit(tuple);
        }
    }

    fn finish(&mut self, out: &mut Emission) {
        for tuple in self.held.drain(..) {
            out.emit(tuple);
        }
    }

    fn name(&self) -> &str {
        "latch"
    }

    fn expected_probability(&self, _tuple: &StampedTuple) -> f64 {
        0.0
    }
}

#[test]
fn user_polluters_see_the_channel_call_sequence() {
    // Every sub-stream gets every watermark at the input position the
    // router broadcasts it, then `W(MAX)`, then the end — on the direct
    // drive as on the channel driver. A polluter that writes the
    // watermark releasing a held tuple into it makes each call visible.
    let m = 3;
    for period in [1u64, 7, 64] {
        let run_with = |strategy: StrategyHint| {
            let pipelines = (0..m)
                .map(|_| {
                    PollutionPipeline::new(vec![Box::new(Latch {
                        every: 4,
                        held: Vec::new(),
                    })])
                })
                .collect();
            PollutionJob::new(schema())
                .with_assigner(SubStreamAssigner::RoundRobin)
                .with_watermark_period(period)
                .with_strategy(strategy)
                .run(tuples(333), pipelines)
                .expect("run succeeds")
        };
        let what = format!("period {period}");
        let direct = run_with(StrategyHint::Sequential);
        let channel = run_with(StrategyHint::Pipelined);
        assert_drive(&direct, "direct", &what);
        assert_drive(&channel, "channel", &what);
        assert_same_run(&direct, &channel, true, &what);
        let released_at_end = direct
            .polluted
            .iter()
            .any(|t| t.tuple.get(1) == Some(&Value::Float(Timestamp::MAX.millis() as f64)));
        // Past the last source watermark some tuples are still held
        // (none with a watermark after every tuple).
        assert_eq!(
            released_at_end,
            period > 1,
            "the closing W(MAX) reaches the polluter ({what})"
        );
    }
}

/// Panics on the tuple with id `at`.
struct Explode {
    at: u64,
}

impl Polluter for Explode {
    fn process(&mut self, tuple: StampedTuple, out: &mut Emission) {
        assert_ne!(tuple.id, self.at, "polluter bug");
        out.emit(tuple);
    }

    fn name(&self) -> &str {
        "explode"
    }

    fn expected_probability(&self, _tuple: &StampedTuple) -> f64 {
        0.0
    }
}

#[test]
fn a_panicking_polluter_fails_either_drive_with_a_typed_error() {
    // Tuple 51 goes to sub-stream 1 of 2. The direct drive names the
    // stage the sequential channel layout gives that sub-stream
    // (stage/03); the pipelined layout has one more channel stage.
    for (strategy, label) in [
        (StrategyHint::Sequential, "stage/03_pollution_pipeline"),
        (StrategyHint::Pipelined, "stage/04_pollution_pipeline"),
    ] {
        let pipelines = (0..2)
            .map(|_| PollutionPipeline::new(vec![Box::new(Explode { at: 51 })]))
            .collect();
        let err = PollutionJob::new(schema())
            .with_assigner(SubStreamAssigner::RoundRobin)
            .with_strategy(strategy)
            .run(tuples(100), pipelines)
            .unwrap_err();
        match err {
            Error::Pipeline {
                stage,
                kind,
                message,
            } => {
                assert_eq!(stage, label, "{strategy:?}");
                assert_eq!(kind, "panic", "{strategy:?}");
                assert!(message.contains("polluter bug"), "{strategy:?}: {message}");
            }
            other => panic!("expected Error::Pipeline, got: {other}"),
        }
    }
}

#[test]
fn a_polluter_lowering_arrivals_keeps_the_channel_order() {
    // A user polluter that emits a record below a watermark its
    // sub-stream already passed makes the channel driver's sorter
    // release that record late, out of arrival order. The direct drive
    // detects this on the last sub-stream and replays the sorter. The
    // records of earlier sub-streams reach the sorter before any
    // watermark, so there the merge by arrival is already exact.
    let m = 3;
    for period in [1u64, 7, 64] {
        for rewinding in [vec![m - 1], vec![0], (0..m).collect()] {
            let run_with = |strategy: StrategyHint| {
                let pipelines = (0..m)
                    .map(|i| {
                        let delay = DelayPolluter::new(
                            format!("lag-{i}"),
                            Box::new(Probability::new(0.2, StdRng::seed_from_u64(i as u64))),
                            Duration::from_millis(20_000),
                        )
                        .expect("non-negative delay");
                        let mut stages: Vec<BoxPolluter> = vec![Box::new(delay)];
                        if rewinding.contains(&i) {
                            stages.push(Box::new(Rewind {
                                every: 5,
                                by_ms: 30_000,
                            }));
                        }
                        PollutionPipeline::new(stages)
                    })
                    .collect();
                PollutionJob::new(schema())
                    .with_assigner(SubStreamAssigner::RoundRobin)
                    .with_watermark_period(period)
                    .with_strategy(strategy)
                    .run(tuples(400), pipelines)
                    .expect("run succeeds")
            };
            let what = format!("period {period}, rewinding {rewinding:?}");
            let direct = run_with(StrategyHint::Sequential);
            let channel = run_with(StrategyHint::Pipelined);
            assert_drive(&direct, "direct", &what);
            assert_drive(&channel, "channel", &what);
            assert_same_run(&direct, &channel, true, &what);
            let late = direct
                .polluted
                .windows(2)
                .any(|w| w[0].arrival > w[1].arrival);
            assert_eq!(
                late,
                rewinding.contains(&(m - 1)),
                "records below a passed watermark surface late ({what})"
            );
        }
    }
}

#[test]
fn reconfiguration_is_repr_invariant() {
    // A mid-stream epoch flip lands on the same tuple under columnar
    // execution: Fries-style reconfiguration semantics are preserved
    // byte-for-byte (the epoch boundary is a watermark property, not a
    // representation property).
    let flipped = |repr: ReprHint, batch_size: usize| {
        let mut plan = LogicalPlan::new(
            7,
            vec![vec![PolluterConfig::Standard {
                name: "scale".into(),
                attributes: vec!["x".into()],
                error: ErrorConfig::Scale { factor: 2.0 },
                condition: ConditionConfig::Always,
                pattern: None,
            }]],
        );
        plan.batch_size = batch_size;
        plan.repr = repr;
        let physical = plan.compile(&schema()).expect("plan compiles");
        physical
            .control_handle()
            .reconfigure_at(
                Timestamp(256_000),
                &[PlanDelta::SetError {
                    polluter: "scale".into(),
                    error: ErrorConfig::Scale { factor: 0.5 },
                }],
            )
            .expect("delta validates");
        physical.execute(tuples(400)).expect("run succeeds")
    };
    let base = flipped(ReprHint::Row, 1);
    for batch_size in REPR_BATCH_SIZES {
        let out = flipped(ReprHint::Columnar, batch_size);
        assert_eq!(out.report.epochs_applied, 1);
        assert_eq!(
            out.polluted, base.polluted,
            "epoch split moved (columnar, batch {batch_size})"
        );
    }
}

#[test]
fn checkpoint_recovery_on_a_columnar_plan_is_byte_identical() {
    // A transient kill healed by checkpoint restore on a columnar plan
    // produces the same bytes as an undisturbed columnar run — and as
    // an undisturbed row run.
    let config = |kill: bool| {
        let chaos = if kill {
            r#""chaos": { "kill_at_tuple": 120, "panic_budget": 1 },"#
        } else {
            ""
        };
        JobConfig::from_json(&format!(
            r#"{{
                "seed": 42,
                "pipelines": [[{{
                    "type": "standard",
                    "name": "null-x",
                    "attributes": ["x"],
                    "error": {{ "type": "missing_value" }},
                    "condition": {{ "type": "probability", "p": 0.5 }}
                }}]],
                "supervision": {{ "max_retries": 2, "deterministic": true }},
                {chaos}
                "checkpoint": {{ "interval_epochs": 1 }},
                "execution": {{ "watermark_period": 16, "batch_size": 256 }}
            }}"#
        ))
        .expect("config parses")
    };
    let run_with = |kill: bool, repr: ReprHint| {
        let mut plan = config(kill).to_plan();
        plan.repr = repr;
        plan.compile(&schema())
            .expect("plan compiles")
            .execute_supervised(tuples(200))
            .expect("run succeeds")
    };
    let row_calm = run_with(false, ReprHint::Row);
    let col_calm = run_with(false, ReprHint::Columnar);
    let col_hurt = run_with(true, ReprHint::Columnar);
    assert_eq!(col_calm.polluted, row_calm.polluted, "repr changed bytes");
    assert_eq!(
        col_hurt.polluted, col_calm.polluted,
        "recovery changed bytes on the columnar plan"
    );
    assert_eq!(col_hurt.log.entries(), col_calm.log.entries());
    let r = &col_hurt.report;
    assert_eq!(r.restarts, 1, "exactly one restart");
    assert!(r.checkpoints_taken > 0, "checkpoints committed");
    assert!(r.restored_from_epoch > 0, "restored from a real epoch");
}

fn chaotic_config(max_retries: u32) -> JobConfig {
    JobConfig::from_json(&format!(
        r#"{{
            "seed": 42,
            "pipelines": [[{{
                "type": "standard",
                "name": "null-x",
                "attributes": ["x"],
                "error": {{ "type": "missing_value" }},
                "condition": {{ "type": "probability", "p": 0.5 }}
            }}]],
            "supervision": {{ "max_retries": {max_retries}, "deterministic": true }},
            "chaos": {{ "panic_rate": 1.0, "panic_budget": 1 }}
        }}"#
    ))
    .expect("config parses")
}

#[test]
fn poisoned_runs_terminate_cleanly_at_every_batch_size() {
    // A panic mid-batch must poison the edge, not strand the records
    // already staged: the run ends with a typed error naming the stage,
    // never a deadlock or a silently truncated success.
    for strategy in STRATEGIES {
        for batch_size in [1usize, 4096] {
            let mut plan = chaotic_config(0).to_plan();
            plan.strategy = strategy;
            plan.batch_size = batch_size;
            let err = plan
                .compile(&schema())
                .expect("plan compiles")
                .execute_supervised(tuples(200))
                .unwrap_err();
            match err {
                Error::Pipeline { stage, kind, .. } => {
                    assert!(
                        stage.contains("chaos"),
                        "stage `{stage}` ({strategy:?}, batch {batch_size})"
                    );
                    assert_eq!(kind, "injected");
                }
                other => panic!("expected Error::Pipeline, got: {other}"),
            }
        }
    }
}

#[test]
fn supervised_recovery_output_is_batch_size_invariant() {
    // One transient panic, then a clean retry: the recovered output
    // must match across batch sizes (the retry restarts from pristine
    // pipeline state, so no partial batch can leak into the result).
    let base = {
        let mut plan = chaotic_config(2).to_plan();
        plan.batch_size = 1;
        plan.compile(&schema())
            .unwrap()
            .execute_supervised(tuples(200))
            .expect("recovers")
    };
    assert!(base.report.restarts >= 1, "the panic actually fired");
    for batch_size in BATCH_SIZES {
        let mut plan = chaotic_config(2).to_plan();
        plan.batch_size = batch_size;
        let out = plan
            .compile(&schema())
            .unwrap()
            .execute_supervised(tuples(200))
            .expect("recovers");
        assert!(out.report.restarts >= 1);
        assert_eq!(
            out.polluted, base.polluted,
            "recovered output changed (batch {batch_size})"
        );
        assert_eq!(out.log.entries(), base.log.entries());
    }
}
