//! `perfbench`: the icewafl benchmark runner.
//!
//! ```console
//! $ perfbench --workload values_logged --seed 1 --seconds 10 --trace 0 \
//!       --icewafl-bin .bench_build/release/icewafl --scratch .bench_build/perfbench
//! ```
//!
//! Sets the workload up, runs it for `--seconds`, checks every output,
//! and prints a report whose last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, from a traced run (plus an
//! untraced one to state the tracing overhead). `perfbench/run.py`
//! builds the binaries and calls this; see `perfbench/README.md`.

mod machine;
mod offline;
mod serve;
mod spans;
mod stats;
mod workloads;

use serde_json::Value;
use spans::{self_ms_by_name, Tracer};
use stats::{median, median_by, percentile, Percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{SetupTimes, Workload};

/// Version of the result layout, bumped when a metric changes meaning.
pub const SCHEMA_VERSION: &str = "icewafl-perfbench/1";

/// Set-ups per offline run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Set-ups per serve run: each takes a fraction of a second, so more
/// of them steady the median cheaply.
const SERVE_SETUP_REPS: usize = 5;
/// Offline jobs per run at least: each is a paper-scale job of several
/// seconds, so a run's median needs a few. The first job after the
/// peak-RSS reset faults its heap in afresh and runs ~10% slower; with
/// four, the median is the mean of two warm jobs.
const MIN_JOBS: usize = 4;

/// End-to-end metrics: `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tuples_per_s", "tuples/s"),
    ("peak_rss_mb", "MB"),
    ("tuple_latency_ms_p50", "ms"),
    ("tuple_latency_ms_p99", "ms"),
    ("first_output_ms_p50", "ms"),
];

/// Per-layer metrics: `(name, unit)`, reported with `--trace 1`. A layer
/// the workload does not cross reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.generate.ms", "ms"),
    ("data.csv.read.ms", "ms"),
    ("data.csv.read.mb_per_s", "MB/s"),
    ("data.csv.write.ms", "ms"),
    ("core.plan.compile.ms", "ms"),
    ("core.plan.execute.ms", "ms"),
    ("core.prepare.ms", "ms"),
    ("types.column.pivot.ms", "ms"),
    ("types.column.unpivot.ms", "ms"),
    ("core.columnar.kernel.ms", "ms"),
    ("core.columnar.kernel_logged.ms", "ms"),
    ("core.columnar.vectorized_stages", "count"),
    ("core.pipeline.process.ms", "ms"),
    ("core.polluter.condition_evals", "count"),
    ("core.polluter.fires", "count"),
    ("core.polluter.rng_draws", "count"),
    ("core.polluter.fire_ratio", "ratio"),
    ("core.log.entries", "count"),
    ("core.log.encode.ms", "ms"),
    ("core.log.encode.bytes", "bytes"),
    ("stream.sort.buffer_max", "count"),
    ("stream.sort.watermark_lag_ms", "ms"),
    ("stream.sort.late", "count"),
    ("core.runner.router.sends", "count"),
    ("core.runner.router.send_blocks", "count"),
    ("core.runner.router.recv_waits", "count"),
    ("stream.checkpoint.execute.ms", "ms"),
    ("stream.checkpoint.taken", "count"),
    ("stream.checkpoint.wal_bytes", "bytes"),
    ("stream.checkpoint.rows_out_of_place", "count"),
    ("serve.handshake.ms", "ms"),
    ("serve.upload.ms", "ms"),
    ("serve.upload.blocked_ms", "ms"),
    ("serve.drain.ms", "ms"),
    ("serve.protocol.encode.ms", "ms"),
    ("serve.protocol.decode.ms", "ms"),
    ("serve.bytes_in", "bytes"),
    ("serve.bytes_out", "bytes"),
    ("serve.frames_out", "count"),
    ("bench.job.remainder.ms", "ms"),
    ("bench.generator.lag_ms_p99", "ms"),
    ("bench.trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    icewafl_bin: PathBuf,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        let v = get(flag)?;
        v.parse().map_err(|_| format!("bad {flag} `{v}`"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match num("--trace")? {
            0 => false,
            1 => true,
            t => return Err(format!("bad --trace `{t}` (0 or 1)")),
        },
        icewafl_bin: get("--icewafl-bin")?.into(),
        scratch: get("--scratch")?.into(),
    })
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    status_mb(status_path, "VmHWM:")
}

/// A `kB` field of a `/proc/<pid>/status` file, in MB.
fn status_mb(status_path: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Returns freed heap to the kernel and resets this process's `VmHWM`
/// to its resident set now, so a peak read later covers only the work
/// after this call and not the set-ups or reference runs before it.
fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// A JSON object with these fields, in order.
fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON string.
fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Everything one run produced.
#[derive(Default)]
struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Extra lines for the human-readable report.
    notes: Vec<String>,
    /// Sample counts behind percentiles, by metric.
    samples: BTreeMap<&'static str, Percentile>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    fn set_percentile(&mut self, name: &'static str, values: &[f64], q: f64) {
        if let Some(p) = percentile(values, q) {
            self.set(name, p.value);
            self.samples.insert(name, p);
        }
    }
}

/// Median over groups of a span name's per-group self time, ms.
fn span_median(by: &BTreeMap<&'static str, BTreeMap<u64, f64>>, name: &str, groups: &[u64]) -> f64 {
    let per: Vec<f64> = groups
        .iter()
        .filter_map(|g| by.get(name).and_then(|m| m.get(g)))
        .copied()
        .collect();
    median(&per)
}

/// Zeroes every per-layer metric (a layer the workload does not cross
/// reads 0), then sets the set-up layers.
fn set_setup_layers(out: &mut Outcome, setups: &[SetupTimes]) {
    for (name, _) in PER_LAYER {
        out.set(name, 0.0);
    }
    out.set("data.generate.ms", median_by(setups, |s| s.generate_ms));
    out.set("core.plan.compile.ms", median_by(setups, |s| s.compile_ms));
}

/// Per-layer counts read from run reports.
fn report_counts(out: &mut Outcome, reports: &[&icewafl_core::RunReport]) {
    let sum = |f: &dyn Fn(&icewafl_core::RunReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r) as f64).sum()
    };
    let max = |f: &dyn Fn(&icewafl_core::RunReport) -> u64| -> f64 {
        reports.iter().map(|r| f(r)).max().unwrap_or(0) as f64
    };
    let polluters = |f: fn(&icewafl_core::PolluterStatsSnapshot) -> u64| {
        move |r: &icewafl_core::RunReport| r.polluters.iter().map(f).sum::<u64>()
    };
    let evals = sum(&polluters(|p| p.condition_evals));
    let fires = sum(&polluters(|p| p.fires));
    out.set("core.polluter.condition_evals", evals);
    out.set("core.polluter.fires", fires);
    out.set("core.polluter.rng_draws", sum(&polluters(|p| p.rng_draws)));
    out.set(
        "core.polluter.fire_ratio",
        if evals > 0.0 { fires / evals } else { 0.0 },
    );
    out.set("core.log.entries", sum(&|r| r.log_entries));
    const SORTER: &str = "stage/00_event_time_sorter";
    const ROUTER: &str = "stage/01_split_router";
    out.set(
        "stream.sort.buffer_max",
        max(&|r| r.metrics.gauge(&format!("{SORTER}/buffer_max"))),
    );
    out.set(
        "stream.sort.watermark_lag_ms",
        max(&|r| r.metrics.gauge(&format!("{SORTER}/watermark_lag_ms"))),
    );
    out.set(
        "stream.sort.late",
        sum(&|r| r.metrics.counter(&format!("{SORTER}/late"))),
    );
    out.set(
        "core.runner.router.sends",
        sum(&|r| r.metrics.counter(&format!("{ROUTER}/sends"))),
    );
    out.set(
        "core.runner.router.send_blocks",
        sum(&|r| r.metrics.counter(&format!("{ROUTER}/send_blocks"))),
    );
    out.set(
        "core.runner.router.recv_waits",
        sum(&|r| r.metrics.counter(&format!("{ROUTER}/recv_waits"))),
    );
}

fn run_offline(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut group = 0u64;
    let (off, setups) = offline::set_up(
        args.workload,
        args.seed,
        &args.scratch,
        SETUP_REPS,
        tracer,
        &mut group,
    )?;
    let decomposition = if args.trace {
        group += 1;
        Some(off.decompose(tracer, group)?)
    } else {
        None
    };
    reset_peak_rss()?;
    let held_mb = status_mb("/proc/self/status", "VmRSS:").unwrap_or(0.0);

    // Measure: untraced jobs only, or traced and untraced jobs in turn,
    // at least `MIN_JOBS` in all and then until `--seconds` have passed.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut traced_groups = Vec::new();
    let mut off_tracer = Tracer::new(false);
    loop {
        if args.trace {
            group += 1;
            traced_groups.push(group);
            traced.push(off.run_job(tracer, group));
        }
        plain.push(off.run_job(&mut off_tracer, 0));
        if plain.len() + traced.len() >= MIN_JOBS && start.elapsed() >= budget {
            break;
        }
    }
    let jobs: Vec<&offline::Job> = plain.iter().chain(&traced).collect();
    out.attempted = jobs.len() as u64;
    for j in &jobs {
        if let Some(f) = &j.failure {
            out.failed += 1;
            out.failures.push(f.clone());
        }
    }
    // The checkpointed decomposition call is checked too, and counts as
    // one more attempt.
    if let Some(c) = decomposition.as_ref().and_then(|d| d.checkpoint.as_ref()) {
        out.attempted += 1;
        if let Some(f) = &c.failure {
            out.failed += 1;
            out.failures.push(f.clone());
        }
    }
    let n = off.tuples() as f64;
    let tps = |jobs: &[offline::Job]| n / (median_by(jobs, |j| j.wall_ms) / 1e3);

    if !args.trace {
        out.set("setup_s", median_by(&setups, |s| s.setup_s));
        out.set("tuples_per_s", tps(&plain));
        // The jobs' peak: set-up and the reference run came before the
        // reset above.
        out.set("peak_rss_mb", vm_hwm_mb("/proc/self/status").unwrap_or(0.0));
        // An offline job is one batch: every input tuple is due at job
        // start and delivered when the dirty CSV is complete, so all n
        // samples of a job are equal and its p50 and p99 are that one
        // latency. Jobs are repetitions: both are the median over jobs.
        let lat = median_by(&plain, |j| j.tuple_latency_ms());
        out.set("tuple_latency_ms_p50", lat);
        out.set("tuple_latency_ms_p99", lat);
        out.set(
            "first_output_ms_p50",
            median_by(&plain, |j| j.first_output_ms()),
        );
        out.notes.push(format!(
            "tuple latency: {} samples per job, all equal; p50 and p99 are medians over jobs",
            off.tuples()
        ));
        out.notes.push(format!(
            "peak RSS covers the jobs only: reset after set-up, when {held_mb:.1} MB were \
             resident (the clean CSV and the plan the jobs use)"
        ));
        out.notes.push(format!(
            "jobs: {} x {} tuples ({:.1} MB CSV); job wall ms: {}",
            plain.len(),
            off.tuples(),
            off.csv_bytes() as f64 / 1e6,
            plain
                .iter()
                .map(|j| format!(
                    "{:.1} (read {:.1} + execute {:.1} + collect {:.1} + write {:.1} + log {:.1})",
                    j.wall_ms, j.read_ms, j.execute_ms, j.collect_ms, j.write_ms, j.encode_ms
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        return Ok(out);
    }

    set_setup_layers(&mut out, &setups);
    let by = self_ms_by_name(tracer.spans());
    let g = &traced_groups;
    let read_ms = span_median(&by, "data.csv.read", g);
    out.set("data.csv.read.ms", read_ms);
    out.set(
        "data.csv.read.mb_per_s",
        off.csv_bytes() as f64 / 1e6 / (read_ms / 1e3),
    );
    out.set(
        "core.plan.execute.ms",
        span_median(&by, "core.plan.execute", g),
    );
    out.set("data.csv.write.ms", span_median(&by, "data.csv.write", g));
    out.set("core.log.encode.ms", span_median(&by, "core.log.encode", g));
    let remainder = span_median(&by, "bench.job", g);
    out.set("bench.job.remainder.ms", remainder);
    if let Some(d) = decomposition {
        out.set("core.prepare.ms", d.prepare_ms);
        out.set("types.column.pivot.ms", d.pivot_ms);
        out.set("types.column.unpivot.ms", d.unpivot_ms);
        out.set("core.columnar.kernel.ms", d.kernel_ms);
        out.set("core.columnar.kernel_logged.ms", d.kernel_logged_ms);
        out.set(
            "core.columnar.vectorized_stages",
            d.vectorized_stages as f64,
        );
        out.set("core.pipeline.process.ms", d.pipeline_ms);
        if let Some(c) = &d.checkpoint {
            out.set("stream.checkpoint.execute.ms", c.execute_ms);
            out.set("stream.checkpoint.taken", c.taken as f64);
            out.set("stream.checkpoint.wal_bytes", c.wal_bytes as f64);
            out.set("stream.checkpoint.rows_out_of_place", c.out_of_place as f64);
            out.notes.push(format!(
                "checkpointed drive: execute_supervised {:.1} ms, {} checkpoints, \
                 {} B WAL; {} dirty rows at another position than in the plain \
                 drive's output",
                c.execute_ms, c.taken, c.wal_bytes, c.out_of_place
            ));
        }
    }
    if let Some(j) = traced.iter().find(|j| j.report.is_some()) {
        report_counts(&mut out, &[j.report.as_ref().expect("found above")]);
        out.set("core.log.encode.bytes", j.log_bytes as f64);
    }
    let (tp, tt) = (tps(&plain), tps(&traced));
    out.set("bench.trace.overhead_pct", (tp - tt) / tp * 100.0);
    let wall = median_by(&traced, |j| j.wall_ms);
    out.notes.push(format!(
        "job wall {wall:.1} ms = data.csv.read + core.plan.execute + data.csv.write + \
         core.log.encode + remainder {remainder:.3} ms, the copy of the dirty tuples before \
         write_csv (medians over {} traced jobs); decomposition spans are reported beside \
         these, not added in",
        traced.len()
    ));
    Ok(out)
}

fn run_serve(args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut group = 0u64;
    let (served, setups) = serve::set_up(
        args.seed,
        &args.icewafl_bin,
        &args.scratch,
        SERVE_SETUP_REPS,
        tracer,
        &mut group,
    )?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sched = serve::Schedule::new(args.seconds as f64, served.sessions(), nproc);
    let plain = served.run(sched, &mut Tracer::new(false));
    let traced = args.trace.then(|| served.run(sched, tracer));
    let peak = served.server_peak_rss_mb();
    drop(served);

    let runs: Vec<&serve::ServeRun> = std::iter::once(&plain).chain(traced.as_ref()).collect();
    for run in &runs {
        out.attempted += run.sessions.len() as u64;
        let lags: Vec<f64> = run
            .sessions
            .iter()
            .flat_map(|s| s.lags_ms.iter().copied())
            .collect();
        let lag99 = percentile(&lags, 0.99).map_or(0.0, |p| p.value);
        let start_lag = run
            .sessions
            .iter()
            .map(|s| s.start_lag_ms)
            .fold(0.0, f64::max);
        let failed: Vec<&String> = run
            .sessions
            .iter()
            .filter_map(|s| s.failure.as_ref())
            .collect();
        if lag99 > serve::LAG_LIMIT_MS || start_lag > serve::LAG_LIMIT_MS {
            out.failed += run.sessions.len() as u64;
            out.failures.push(format!(
                "INVALID run: the generator fell behind its schedule (send lag p99 {lag99:.2} ms, \
                 worst session start lag {start_lag:.2} ms; limit {} ms)",
                serve::LAG_LIMIT_MS
            ));
        } else {
            out.failed += failed.len() as u64;
        }
        out.failures.extend(failed.into_iter().cloned());
        let received: usize = run.sessions.iter().map(|s| s.tuples_out).sum();
        let waited: Vec<f64> = run
            .sessions
            .iter()
            .map(|s| s.slot_wait_ms)
            .filter(|w| *w > 0.0)
            .collect();
        out.notes.push(format!(
            "{} run: offered {:.0} tuples/s, achieved {:.0} tuples/s over {:.1} ms, \
             {} sessions, at most {} in flight, {} waited for a slot (longest {:.1} ms, \
             counted as latency), send lag p99 {lag99:.3} ms",
            if std::ptr::eq(*run, &plain) {
                "untraced"
            } else {
                "traced"
            },
            run.offered_per_s,
            received as f64 / (run.wall_ms / 1e3),
            run.wall_ms,
            run.sessions.len(),
            run.max_in_flight,
            waited.len(),
            waited.iter().copied().fold(0.0, f64::max)
        ));
    }
    // Session goodput: the open-loop schedule fixes the run's wall time,
    // so the rate comes from the time sessions took, due start to report.
    let tps = |run: &serve::ServeRun| {
        let tuples: usize = run.sessions.iter().map(|s| s.tuples_out).sum();
        let seconds: f64 = run.sessions.iter().map(|s| s.session_ms / 1e3).sum();
        tuples as f64 / seconds
    };

    if !args.trace {
        out.set("setup_s", median_by(&setups, |s| s.setup_s));
        out.set("tuples_per_s", tps(&plain));
        out.set("peak_rss_mb", peak.unwrap_or(0.0));
        // Each session's percentile, then the median over sessions: a
        // pooled p99 is the tail of whichever one or two sessions ran
        // slowest, and moved by 20% between runs of the same code.
        for (name, q) in [
            ("tuple_latency_ms_p50", 0.5),
            ("tuple_latency_ms_p99", 0.99),
        ] {
            let per: Vec<Percentile> = plain
                .sessions
                .iter()
                .filter_map(|s| percentile(&s.latencies_ms, q))
                .collect();
            out.set(name, median_by(&per, |p| p.value));
            if let Some(p) = per.first() {
                out.notes.push(format!(
                    "{name}: median over {} sessions of each session's percentile \
                     ({} samples, {} beyond, per session)",
                    per.len(),
                    p.samples,
                    p.beyond
                ));
            }
        }
        let first: Vec<f64> = plain
            .sessions
            .iter()
            .filter_map(|s| s.first_output_ms)
            .collect();
        out.set_percentile("first_output_ms_p50", &first, 0.5);
        return Ok(out);
    }

    let run = traced.as_ref().expect("traced run in trace mode");
    set_setup_layers(&mut out, &setups);
    let per = |f: fn(&serve::SessionStats) -> f64| median_by(&run.sessions, f);
    out.set("serve.handshake.ms", per(|s| s.handshake_ms));
    out.set("serve.upload.ms", per(|s| s.upload_ms));
    out.set("serve.upload.blocked_ms", per(|s| s.upload_blocked_ms));
    out.set("serve.drain.ms", per(|s| s.drain_ms));
    out.set("serve.protocol.encode.ms", per(|s| s.encode_ms));
    out.set("serve.protocol.decode.ms", per(|s| s.decode_ms));
    let total = |f: fn(&serve::SessionStats) -> u64| run.sessions.iter().map(f).sum::<u64>() as f64;
    out.set("serve.bytes_in", total(|s| s.bytes_in));
    out.set("serve.bytes_out", total(|s| s.bytes_out));
    out.set("serve.frames_out", total(|s| s.frames_out));
    let reports: Vec<&icewafl_core::RunReport> = run
        .sessions
        .iter()
        .filter_map(|s| s.report.as_ref())
        .collect();
    report_counts(&mut out, &reports);
    let lags: Vec<f64> = run
        .sessions
        .iter()
        .flat_map(|s| s.lags_ms.iter().copied())
        .collect();
    out.set_percentile("bench.generator.lag_ms_p99", &lags, 0.99);
    let by = self_ms_by_name(tracer.spans());
    let groups: Vec<u64> = (0..run.sessions.len() as u64).map(|k| 1000 + k).collect();
    out.set(
        "bench.job.remainder.ms",
        span_median(&by, "serve.session", &groups),
    );
    let (tp, tt) = (tps(&plain), tps(run));
    out.set("bench.trace.overhead_pct", (tp - tt) / tp * 100.0);
    Ok(out)
}

fn write_results(args: &Args, tracer: &Tracer, doc: &Value) -> Result<PathBuf, String> {
    let dir = args.scratch.join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let path = dir.join(format!("{stem}.json"));
    let json = serde_json::to_string(doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    if tracer.enabled() {
        let spans = dir.join(format!("{stem}-spans.json"));
        let json = serde_json::to_string(&tracer.chrome_trace()).map_err(|e| e.to_string())?;
        std::fs::write(&spans, json).map_err(|e| format!("{}: {e}", spans.display()))?;
    }
    Ok(path)
}

/// `{name: {"value", "unit"}}` for each metric of `list`.
fn metrics_value(out: &Outcome, list: &[(&str, &str)]) -> Value {
    object(list.iter().map(|(name, unit)| {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        (
            *name,
            object([("value", Value::Number(v)), ("unit", text(unit))]),
        )
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                 --icewafl-bin PATH --scratch DIR"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let result = match args.workload {
        Workload::ServeBinary => run_serve(&args, &mut tracer),
        _ => run_offline(&args, &mut tracer),
    };
    let _ = std::fs::remove_dir_all(
        args.scratch
            .join(format!("checkpoint-{}", std::process::id())),
    );
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };

    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let machine = machine::Machine::probe(Path::new("."));
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "== perfbench {SCHEMA_VERSION}: {} seed {} for {} s, trace {} ==",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", machine.render());
    for note in &out.notes {
        println!("{note}");
    }
    for (name, unit) in list {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        match out.samples.get(name) {
            Some(p) => println!(
                "{name:<34} {v:>16.4} {unit:<9} ({} samples, {} beyond)",
                p.samples, p.beyond
            ),
            None => println!("{name:<34} {v:>16.4} {unit}"),
        }
    }
    println!(
        "{:<34} {:>16.4} ratio     ({} of {} failed)",
        "failed_share", failed_share, out.failed, out.attempted
    );
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let metrics = metrics_value(&out, list);
    let texts = |items: &[String]| Value::Array(items.iter().map(|s| text(s)).collect());
    let doc = object([
        ("schema", text(SCHEMA_VERSION)),
        ("workload", text(args.workload.name())),
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds as f64)),
        ("trace", Value::Number(f64::from(u8::from(args.trace)))),
        ("machine", machine.to_value()),
        ("failed_share", Value::Number(failed_share)),
        ("failures", texts(&out.failures)),
        ("notes", texts(&out.notes)),
        ("metrics", metrics.clone()),
    ]);
    match write_results(&args, &tracer, &doc) {
        Ok(path) => println!("result document -> {}", path.display()),
        Err(e) => println!("result document not written: {e}"),
    }
    let result = object([
        ("correct", Value::Bool(out.failed == 0)),
        ("attempted", Value::Number(out.attempted as f64)),
        ("failed", Value::Number(out.failed as f64)),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a JSON value serializes")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, key: &str) -> Vec<(String, String)> {
        let doc: serde_json::Value = serde_json::from_str(json).unwrap();
        doc[key]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_runner_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), owned(PER_LAYER));
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        for w in doc["workloads"].as_array().unwrap() {
            let name = w["name"].as_str().unwrap();
            assert!(Workload::parse(name).is_some(), "{name}");
        }
    }

    #[test]
    fn vm_hwm_reads_this_process() {
        assert!(vm_hwm_mb("/proc/self/status").unwrap() > 0.0);
        assert_eq!(vm_hwm_mb("/nonexistent"), None);
    }
}
