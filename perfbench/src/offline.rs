//! Offline workloads: the calls `icewafl pollute` makes, replayed on
//! in-memory buffers.
//!
//! One job is `read_csv` → `PhysicalPlan::execute_supervised` →
//! `write_csv` of the dirty stream → pretty JSON of the ground-truth
//! log, timed from the clean CSV bytes in to both outputs out. Every
//! job's outputs are checked against a reference computed once during
//! set-up with `PhysicalPlan::execute`.
//!
//! The traced run adds decomposition calls on the same input, one per
//! layer, beside the jobs. On row plans one of them runs the plan
//! through the checkpointed drive.

use crate::spans::Tracer;
use crate::workloads::{
    checkpointed_plan, interleaved, station_streams, SetupTimes, Workload, SUBSTREAMS,
};
use icewafl_core::plan::{LogicalPlan, PhysicalPlan, DEFAULT_BATCH_SIZE};
use icewafl_core::prepare::prepare_all;
use icewafl_core::{lower_pipeline, Emission, LogEntry, PollutionLog, PollutionOutput, RunReport};
use icewafl_data::{airquality, read_csv, write_csv};
use icewafl_types::{ColumnBatch, Schema, StampedTuple, Timestamp, Tuple};
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Digests of the reference run's two outputs, plus one hash per dirty
/// CSV line to describe where a diverging job differs.
struct Reference {
    dirty_csv: u64,
    log_json: u64,
    lines: Vec<u64>,
}

fn line_hashes(csv: &[u8]) -> Vec<u64> {
    csv.split(|&b| b == b'\n').map(digest).collect()
}

/// A set-up offline workload, ready to run jobs.
pub struct Offline {
    workload: Workload,
    schema: Schema,
    csv: Vec<u8>,
    n: usize,
    logical: LogicalPlan,
    physical: PhysicalPlan,
    /// Where the checkpointed decomposition call writes its WAL.
    ckpt_dir: PathBuf,
    reference: Reference,
}

/// Sets the workload up `reps` times (each from scratch, timed) and
/// keeps the last; then computes the reference outputs, which is not
/// part of any set-up time.
pub fn set_up(
    workload: Workload,
    seed: u64,
    scratch: &Path,
    reps: usize,
    tracer: &mut Tracer,
    group: &mut u64,
) -> Result<(Offline, Vec<SetupTimes>), String> {
    let schema = airquality::schema();
    let ckpt_dir = scratch.join(format!("checkpoint-{}", std::process::id()));
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Free the previous set-up before generating the next one.
        drop(last.take());
        let g = next(group);
        let t0 = Instant::now();
        let input = interleaved(station_streams(seed));
        let t1 = Instant::now();
        // Room for the whole encoding up front (the air-quality rows
        // average ~217 bytes), so set-up time does not hinge on how the
        // growing buffer reallocates.
        let mut csv = Vec::with_capacity(input.len() * 256);
        write_csv(&mut csv, &schema, &input).map_err(|e| format!("encode input: {e}"))?;
        let t2 = Instant::now();
        let logical = workload.plan(seed);
        let physical = logical
            .compile(&schema)
            .map_err(|e| format!("compile: {e}"))?;
        let t3 = Instant::now();
        let root = tracer.record("bench.setup", g, None, t0, t3);
        tracer.record("data.generate", g, Some(root), t0, t1);
        tracer.record("core.plan.compile", g, Some(root), t2, t3);
        times.push(SetupTimes {
            setup_s: (t3 - t0).as_secs_f64(),
            generate_ms: ms(t0, t1),
            compile_ms: ms(t2, t3),
        });
        last = Some((input, csv, logical, physical));
    }
    let (input, csv, logical, physical) = last.expect("at least one set-up ran");
    let n = input.len();
    // The reference runs on the generated tuples themselves; every job
    // parses them back from the CSV, so a lossy CSV round trip fails
    // the jobs' checks.
    let out = physical
        .execute(input)
        .map_err(|e| format!("reference run: {e}"))?;
    let (dirty, json) = encode_outputs(&schema, &out)?;
    let reference = Reference {
        dirty_csv: digest(&dirty),
        log_json: digest(json.as_bytes()),
        lines: line_hashes(&dirty),
    };
    let offline = Offline {
        workload,
        schema,
        csv,
        n,
        logical,
        physical,
        ckpt_dir,
        reference,
    };
    Ok((offline, times))
}

fn next(group: &mut u64) -> u64 {
    *group += 1;
    *group
}

/// The dirty CSV and the pretty ground-truth JSON, exactly as
/// `icewafl pollute` writes them.
fn encode_outputs(schema: &Schema, out: &PollutionOutput) -> Result<(Vec<u8>, String), String> {
    let dirty: Vec<Tuple> = out.polluted.iter().map(|t| t.tuple.clone()).collect();
    let mut buf = Vec::new();
    write_csv(&mut buf, schema, &dirty).map_err(|e| format!("write dirty csv: {e}"))?;
    let json = serde_json::to_string_pretty(&out.log).map_err(|e| format!("encode log: {e}"))?;
    Ok((buf, json))
}

/// What one job measured and whether its outputs checked out.
pub struct Job {
    /// CSV bytes in to both outputs out.
    pub wall_ms: f64,
    /// `read_csv`.
    pub read_ms: f64,
    /// `execute_supervised`.
    pub execute_ms: f64,
    /// Copying the dirty tuples out of the output.
    pub collect_ms: f64,
    /// `write_csv` of the dirty tuples.
    pub write_ms: f64,
    /// Pretty JSON of the ground-truth log.
    pub encode_ms: f64,
    /// Ground-truth JSON size.
    pub log_bytes: usize,
    /// The run report (`None` when the job errored).
    pub report: Option<RunReport>,
    /// The first failed check or error, `None` when the job is correct.
    pub failure: Option<String>,
}

impl Job {
    /// From job start until the polluted tuples exist (execute returns).
    pub fn first_output_ms(&self) -> f64 {
        self.read_ms + self.execute_ms
    }

    /// From job start until the dirty CSV is complete: every input
    /// tuple is due at job start, so every tuple has this latency.
    pub fn tuple_latency_ms(&self) -> f64 {
        self.read_ms + self.execute_ms + self.collect_ms + self.write_ms
    }
}

impl Offline {
    /// Input tuples per job.
    pub fn tuples(&self) -> usize {
        self.n
    }

    /// Clean CSV bytes per job.
    pub fn csv_bytes(&self) -> usize {
        self.csv.len()
    }

    /// Runs one job and checks its outputs. Spans land in `group` when
    /// the tracer is enabled.
    pub fn run_job(&self, tracer: &mut Tracer, group: u64) -> Job {
        let mut job = Job {
            wall_ms: 0.0,
            read_ms: 0.0,
            execute_ms: 0.0,
            collect_ms: 0.0,
            write_ms: 0.0,
            encode_ms: 0.0,
            log_bytes: 0,
            report: None,
            failure: None,
        };
        let t0 = Instant::now();
        let tuples = match read_csv(&mut &self.csv[..], &self.schema) {
            Ok(t) => t,
            Err(e) => {
                job.failure = Some(format!("read_csv: {e}"));
                return job;
            }
        };
        let t1 = Instant::now();
        let out = match self.physical.execute_supervised(tuples) {
            Ok(out) => out,
            Err(e) => {
                job.failure = Some(format!("execute_supervised: {e}"));
                return job;
            }
        };
        let t2 = Instant::now();
        // `icewafl pollute` copies the dirty tuples out of the output
        // before writing them; that copy is the job's remainder, outside
        // the four layer spans.
        let dirty: Vec<Tuple> = out.polluted.iter().map(|t| t.tuple.clone()).collect();
        let mut dirty_csv = Vec::with_capacity(self.csv.len());
        let w0 = Instant::now();
        let written = write_csv(&mut dirty_csv, &self.schema, &dirty);
        let t3 = Instant::now();
        let json = serde_json::to_string_pretty(&out.log);
        let t4 = Instant::now();

        let root = tracer.record("bench.job", group, None, t0, t4);
        tracer.record("data.csv.read", group, Some(root), t0, t1);
        tracer.record("core.plan.execute", group, Some(root), t1, t2);
        tracer.record("data.csv.write", group, Some(root), w0, t3);
        tracer.record("core.log.encode", group, Some(root), t3, t4);
        job.wall_ms = ms(t0, t4);
        job.read_ms = ms(t0, t1);
        job.execute_ms = ms(t1, t2);
        job.collect_ms = ms(t2, w0);
        job.write_ms = ms(w0, t3);
        job.encode_ms = ms(t3, t4);
        drop(dirty);

        job.failure = match (written, json) {
            (Err(e), _) => Some(format!("write_csv: {e}")),
            (_, Err(e)) => Some(format!("log encode: {e}")),
            (Ok(()), Ok(json)) => {
                job.log_bytes = json.len();
                self.check(&out, &dirty_csv, &json).err()
            }
        };
        job.report = Some(out.report);
        job
    }

    /// The output checks of one job.
    fn check(&self, out: &PollutionOutput, dirty_csv: &[u8], json: &str) -> Result<(), String> {
        if digest(dirty_csv) != self.reference.dirty_csv {
            return Err(csv_divergence(
                &line_hashes(dirty_csv),
                &self.reference.lines,
            ));
        }
        if digest(json.as_bytes()) != self.reference.log_json {
            return Err(
                "ground-truth JSON differs from the PhysicalPlan::execute reference".into(),
            );
        }
        match self.workload {
            Workload::TemporalLogged => check_temporal_count(out, self.n),
            _ => check_value_diff(out, self.n),
        }
    }

    /// The per-layer decomposition: calls into `prepare`, the columnar
    /// kernels (pivot, kernels with the log off and on, unpivot) or the
    /// row pipeline and the checkpointed drive, on this workload's own
    /// input. Reported beside the job's spans, never added into them.
    pub fn decompose(&self, tracer: &mut Tracer, group: u64) -> Result<Decomposition, String> {
        let mut d = Decomposition::default();
        let tuples = read_csv(&mut &self.csv[..], &self.schema).map_err(|e| e.to_string())?;
        let root = tracer.begin("bench.decompose", group, None);
        let t0 = Instant::now();
        let rows = prepare_all(&self.schema, tuples).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tracer.record("core.prepare", group, Some(root), t0, t1);
        d.prepare_ms = ms(t0, t1);

        if self.workload.columnar() {
            // Round-robin sub-streams, as the plan's default assigner
            // routes.
            let mut subs: Vec<Vec<StampedTuple>> = vec![Vec::new(); SUBSTREAMS];
            for (i, row) in rows.into_iter().enumerate() {
                subs[i % SUBSTREAMS].push(row);
            }
            for logged in [false, true] {
                self.kernels(&subs, logged, tracer, group, root, &mut d)?;
            }
        } else {
            self.row_pipelines(rows, tracer, group, root, &mut d)?;
            d.checkpoint = Some(self.checkpointed(tracer, group, root)?);
        }
        tracer.end(root, Instant::now());
        Ok(d)
    }

    /// `execute_supervised` of the plan with the `--checkpoint-dir` CLI
    /// defaults (a WAL on disk, a checkpoint every epoch): the only call
    /// that takes snapshots and writes the WAL.
    ///
    /// Its output is checked against the plain reference: the log must
    /// be identical and the dirty CSV must hold the same rows. The order
    /// is not checked: this drive orders rows with equal arrival times
    /// differently from the plain drive (`perfbench/README.md`, "Known
    /// finding"), so the rows out of place are counted instead.
    fn checkpointed(
        &self,
        tracer: &mut Tracer,
        group: u64,
        root: usize,
    ) -> Result<Checkpointed, String> {
        let plan = checkpointed_plan(&self.logical, &self.ckpt_dir.to_string_lossy());
        let physical = plan.compile(&self.schema).map_err(|e| e.to_string())?;
        let tuples = read_csv(&mut &self.csv[..], &self.schema).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let out = physical
            .execute_supervised(tuples)
            .map_err(|e| format!("checkpointed execute_supervised: {e}"))?;
        let t1 = Instant::now();
        tracer.record("stream.checkpoint.execute", group, Some(root), t0, t1);
        let wal = self.ckpt_dir.join("checkpoint.wal");
        let wal_bytes = std::fs::metadata(&wal).map_or(0, |m| m.len());
        let (dirty, json) = encode_outputs(&self.schema, &out)?;
        let lines = line_hashes(&dirty);
        let out_of_place = lines
            .iter()
            .zip(&self.reference.lines)
            .filter(|(a, b)| a != b)
            .count();
        let failure = if wal_bytes == 0 {
            Some(format!("no WAL written at {}", wal.display()))
        } else if digest(json.as_bytes()) != self.reference.log_json {
            Some("checkpointed drive: ground-truth JSON differs from the reference".into())
        } else if !same_rows(&lines, &self.reference.lines) {
            Some(format!(
                "checkpointed drive: {}",
                csv_divergence(&lines, &self.reference.lines)
            ))
        } else {
            None
        };
        Ok(Checkpointed {
            execute_ms: ms(t0, t1),
            taken: out.report.checkpoints_taken,
            wal_bytes,
            out_of_place: out_of_place as u64,
            failure,
        })
    }

    fn kernels(
        &self,
        subs: &[Vec<StampedTuple>],
        logged: bool,
        tracer: &mut Tracer,
        group: u64,
        root: usize,
        d: &mut Decomposition,
    ) -> Result<(), String> {
        let kernel_span = if logged {
            "core.columnar.kernel_logged"
        } else {
            "core.columnar.kernel"
        };
        let mut log = if logged {
            PollutionLog::new()
        } else {
            PollutionLog::disabled()
        };
        d.vectorized_stages = 0;
        for (i, rows) in subs.iter().enumerate() {
            let mut pipeline = lower_pipeline(
                self.logical.seed,
                i,
                &self.logical.pipelines[i],
                &self.schema,
            )
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("sub-stream {i} does not lower to column kernels"))?;
            d.vectorized_stages += pipeline.vectorized_stages() as u64;
            for chunk in rows.chunks(DEFAULT_BATCH_SIZE) {
                let chunk = chunk.to_vec();
                let t0 = Instant::now();
                let mut batch = ColumnBatch::from_rows(&self.schema, chunk)
                    .map_err(|_| "a transport batch does not pivot to columns".to_string())?;
                let t1 = Instant::now();
                pipeline.process_batch(&mut batch, &mut log);
                let t2 = Instant::now();
                let back = batch.into_rows();
                let t3 = Instant::now();
                std::hint::black_box(back);
                tracer.record(kernel_span, group, Some(root), t1, t2);
                if logged {
                    d.pivot_ms += ms(t0, t1);
                    d.unpivot_ms += ms(t2, t3);
                    d.kernel_logged_ms += ms(t1, t2);
                    tracer.record("types.column.pivot", group, Some(root), t0, t1);
                    tracer.record("types.column.unpivot", group, Some(root), t2, t3);
                } else {
                    d.kernel_ms += ms(t1, t2);
                }
            }
            pipeline.finish(&mut log);
        }
        std::hint::black_box(log);
        Ok(())
    }

    fn row_pipelines(
        &self,
        rows: Vec<StampedTuple>,
        tracer: &mut Tracer,
        group: u64,
        root: usize,
        d: &mut Decomposition,
    ) -> Result<(), String> {
        let mut pipelines = self
            .logical
            .build_pipelines(&self.schema)
            .map_err(|e| e.to_string())?;
        let mut log = PollutionLog::new();
        let mut out = Vec::with_capacity(rows.len());
        let period = self.logical.watermark_period.max(1) as usize;
        let mut wm = Timestamp(i64::MIN);
        let t0 = Instant::now();
        for (i, row) in rows.into_iter().enumerate() {
            wm = wm.max(row.tau);
            pipelines[i % SUBSTREAMS].process(row, &mut Emission::new(&mut out, &mut log));
            if (i + 1) % period == 0 {
                for p in &mut pipelines {
                    p.on_watermark(wm, &mut Emission::new(&mut out, &mut log));
                }
            }
        }
        for p in &mut pipelines {
            p.finish(&mut Emission::new(&mut out, &mut log));
        }
        let t1 = Instant::now();
        std::hint::black_box((out, log));
        tracer.record("core.pipeline.process", group, Some(root), t0, t1);
        d.pipeline_ms = ms(t0, t1);
        Ok(())
    }
}

/// Times from one decomposition pass, milliseconds unless named.
#[derive(Debug, Default)]
pub struct Decomposition {
    /// `prepare_all`.
    pub prepare_ms: f64,
    /// `ColumnBatch::from_rows`, summed over transport batches.
    pub pivot_ms: f64,
    /// `ColumnBatch::into_rows`, summed over transport batches.
    pub unpivot_ms: f64,
    /// `ColumnPipeline::process_batch` with the log disabled.
    pub kernel_ms: f64,
    /// `ColumnPipeline::process_batch` with the log enabled.
    pub kernel_logged_ms: f64,
    /// Stages that run vectorized kernels, over all sub-streams.
    pub vectorized_stages: u64,
    /// `PollutionPipeline::process`/`on_watermark`/`finish`.
    pub pipeline_ms: f64,
    /// The checkpointed drive (row plans only).
    pub checkpoint: Option<Checkpointed>,
}

/// One run of the plan through the checkpointed drive.
#[derive(Debug)]
pub struct Checkpointed {
    /// `execute_supervised`, milliseconds.
    pub execute_ms: f64,
    /// Checkpoints the run report counts.
    pub taken: u64,
    /// WAL size after the run.
    pub wal_bytes: u64,
    /// Dirty CSV lines that differ from the reference's line at the
    /// same position.
    pub out_of_place: u64,
    /// A failed check, `None` when log and rows match the reference.
    pub failure: Option<String>,
}

/// Whether two dirty CSVs, as per-line hashes, hold the same lines in
/// any order.
fn same_rows(got: &[u64], want: &[u64]) -> bool {
    let (mut g, mut w) = (got.to_vec(), want.to_vec());
    g.sort_unstable();
    w.sort_unstable();
    g == w
}

/// Describes how a dirty CSV differs from the reference, from per-line
/// hashes: where the first differing line is, and whether the two hold
/// the same lines in another order.
fn csv_divergence(got: &[u64], want: &[u64]) -> String {
    let first = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    format!(
        "dirty CSV differs from the PhysicalPlan::execute reference from line {} on \
         ({} vs {} lines; {})",
        first + 1,
        got.len(),
        want.len(),
        if same_rows(got, want) {
            "same rows in another order"
        } else {
            "different rows"
        }
    )
}

/// `values_logged`: value polluters keep every tuple, and the ids the
/// log names are exactly the ids whose dirty tuple differs from its
/// clean original.
fn check_value_diff(out: &PollutionOutput, n: usize) -> Result<(), String> {
    if out.polluted.len() != n {
        return Err(format!(
            "{} output tuples for {n} input",
            out.polluted.len()
        ));
    }
    let mut diff: Vec<u64> = Vec::new();
    for t in &out.polluted {
        let clean = usize::try_from(t.id)
            .ok()
            .and_then(|i| out.clean.get(i))
            .filter(|c| c.id == t.id)
            .ok_or_else(|| format!("output id {} has no clean original", t.id))?;
        if clean.tuple != t.tuple {
            diff.push(t.id);
        }
    }
    diff.sort_unstable();
    let mut logged: Vec<u64> = out.log.entries().iter().map(LogEntry::tuple_id).collect();
    logged.sort_unstable();
    logged.dedup();
    if diff != logged {
        let only_log = logged
            .iter()
            .filter(|id| diff.binary_search(id).is_err())
            .count();
        let only_diff = diff
            .iter()
            .filter(|id| logged.binary_search(id).is_err())
            .count();
        return Err(format!(
            "log names {} ids, clean/dirty diff {}: {only_log} only in the log, \
             {only_diff} only in the diff",
            logged.len(),
            diff.len()
        ));
    }
    Ok(())
}

/// Temporal workloads: |out| = n − drops + duplicates, counted from the
/// log.
fn check_temporal_count(out: &PollutionOutput, n: usize) -> Result<(), String> {
    let (mut drops, mut copies) = (0usize, 0usize);
    for e in out.log.entries() {
        match e {
            LogEntry::TupleDropped { .. } => drops += 1,
            LogEntry::TupleDuplicated { copies: c, .. } => copies += *c as usize,
            _ => {}
        }
    }
    let want = n - drops + copies;
    if out.polluted.len() != want {
        return Err(format!(
            "{} output tuples, want {n} - {drops} drops + {copies} duplicates = {want}",
            out.polluted.len()
        ));
    }
    Ok(())
}
