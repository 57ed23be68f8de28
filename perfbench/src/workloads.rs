//! The four workloads: input generation, plan construction, output checks
//! against a reference computed directly from the generated input, and the
//! per-result timings the end-to-end metrics are made of.
//!
//! Every workload builds the program's plan from the generated input only;
//! the seeds never reach the program.  Why each workload was chosen, and
//! which crates it exercises or bypasses, is in `perfbench/NOTES.md`.

use crate::probe::{self, instrument, Callback, NodeLog, Probes, Trace, Watch};
use dsms_bench::display::DisplayHandle;
use dsms_bench::experiments::{Experiment1Config, Experiment2Config, Scheme};
use dsms_bench::plans::{imputation_plan, speedmap_plan};
use dsms_engine::{
    EngineError, EngineResult, ExecutionReport, Operator, PooledExecutor, QueryPlan,
    RecoveryPolicy, Stream, StreamBuilder, SyncExecutor,
};
use dsms_operators::{
    AggregateFunction, Chaos, CollectSink, FaultSpec, GeneratorSource, Merge, Select, Shuffle,
    SinkHandle, TimedSinkHandle, TuplePredicate, VecSource, WindowAggregate,
};
use dsms_types::{
    fixed_hash, DataType, Schema, SchemaRef, StreamDuration, Timestamp, Tuple, Value,
};
use dsms_workloads::{ImputationGenerator, TrafficConfig, TrafficGenerator, ZoomSchedule};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// Names of the workloads, in the order the notes describe them.
pub const NAMES: [&str; 4] = ["speedmap", "imputation", "deep_chain", "keyed_state"];

/// The per-workload seeds, all derived from the one `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Traffic stream (speedmap, deep_chain, keyed_state).
    pub traffic: u64,
    /// Imputation stream.
    pub imputation: u64,
    /// Zoom schedule of the speed-map display.
    pub zoom: u64,
    /// Picks the tuple ordinal at which the keyed_state fault fires.
    pub chaos: u64,
}

impl Seeds {
    /// Derives the four seeds from `seed` with splitmix64.
    pub fn derive(seed: u64) -> Self {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Seeds { traffic: next(), imputation: next(), zoom: next(), chaos: next() }
    }
}

/// Input sizes: the benchmark's, or a small one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs that keep the same plan shapes, for tests.
    Test,
}

/// Which executor runs the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// `SyncExecutor`: the single-threaded, deterministic reference.
    Sync,
    /// `PooledExecutor` with this many workers.
    Pooled(usize),
}

impl Exec {
    fn run(self, plan: QueryPlan) -> EngineResult<ExecutionReport> {
        match self {
            Exec::Sync => SyncExecutor::run(plan),
            Exec::Pooled(workers) => PooledExecutor::run_with_workers(plan, workers),
        }
    }
}

/// What a checked run delivered, beyond the executor's report.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// One latency per timed result, in milliseconds (none when the run's
    /// source and sink were not probed).
    pub latencies_ms: Vec<f64>,
    /// `(results on time, results that should be on time)`.
    pub timely: (u64, u64),
    /// `(visible results shown, results visible under the viewport)`.
    pub recall: (u64, u64),
    /// Results rendered for a segment the viewport hid (speedmap only).
    pub hidden_rendered: u64,
    /// Order-independent digest of the sink's output.
    pub digest: u64,
}

/// One checked executor call.
pub struct RunResult {
    /// The executor's report.
    pub report: ExecutionReport,
    /// Spans of the probed operators.
    pub trace: Trace,
    /// What the run delivered.
    pub outcome: Outcome,
}

/// The sink handle a plan was built with.
pub enum Output {
    /// A `CollectSink`.
    Collect(SinkHandle),
    /// The speed-map display's rendered results, and the index of the zoom
    /// schedule the display followed.
    Display(DisplayHandle, usize),
    /// A `TimedSink`.
    Timed(TimedSinkHandle),
}

/// One workload: generated input plus everything needed to build, run and
/// check its plan.
pub trait Job {
    /// Tuples in the generated input.
    fn input_tuples(&self) -> u64;

    /// True for the replay-as-fast-as-possible workloads.
    fn replays(&self) -> bool {
        true
    }

    /// Number of input variants the runs cycle through (1 unless the
    /// workload has a part, like a zoom schedule, that one input would
    /// sample too coarsely).
    fn variants(&self) -> u64 {
        1
    }

    /// Builds the plan over a copy of the generated input, in input variant
    /// `variant` (taken modulo [`Job::variants`]).
    fn build(&self, variant: u64) -> EngineResult<(QueryPlan, Output)>;

    /// What the probe at plan node `index` records.
    fn watch(&self, index: usize, operator: &dyn Operator) -> Watch {
        let _ = (index, operator);
        Watch::default()
    }

    /// Checks the run's output against the reference and collects its
    /// outcome.  An `Err` is a failed run.
    fn check(
        &self,
        output: &Output,
        trace: &Trace,
        report: &ExecutionReport,
    ) -> Result<Outcome, String>;

    /// The per-layer operator group an operator belongs to.
    fn kind(&self, operator: &str) -> Option<&'static str>;

    /// Release lag of a traced run, in milliseconds: from each tuple's due
    /// time to the first downstream callback that received it.  Only paced
    /// sources have due times.
    fn release_lags_ms(&self, trace: &Trace) -> Vec<f64> {
        let _ = trace;
        Vec::new()
    }

    /// Builds, instruments, runs and checks the plan once.
    fn run(&self, exec: Exec, probes: Probes, variant: u64) -> Result<RunResult, String> {
        let (plan, output) = self.build(variant).map_err(|e| format!("plan build failed: {e}"))?;
        let mut trace = Trace::new();
        let plan = instrument(plan, probes, &mut trace, |i, op| self.watch(i, op))
            .map_err(|e| format!("instrumenting the plan failed: {e}"))?;
        let report = trace.run(|| exec.run(plan)).map_err(|e| format!("executor error: {e}"))?;
        let dropped = report.total_feedback_dropped();
        if dropped != 0 {
            return Err(format!("feedback_dropped = {dropped}"));
        }
        let outcome = self.check(&output, &trace, &report)?;
        Ok(RunResult { report, trace, outcome })
    }
}

/// Generates the named workload's input from `seeds`, returning it with the
/// time the input generation took (the reference the checks compare
/// against is computed afterwards and not counted).
pub fn generate(name: &str, seeds: &Seeds, size: Size) -> Result<(Box<dyn Job>, Duration), String> {
    fn boxed<J: Job + 'static>((job, took): (J, Duration)) -> (Box<dyn Job>, Duration) {
        (Box::new(job), took)
    }
    Ok(match name {
        "speedmap" => boxed(Speedmap::generate(seeds, size)),
        "imputation" => boxed(Imputation::generate(seeds, size)),
        "deep_chain" => boxed(DeepChain::generate(seeds, size)),
        "keyed_state" => boxed(KeyedState::generate(seeds, size)),
        other => return Err(format!("unknown workload `{other}` (expected one of {NAMES:?})")),
    })
}

/// Replaces the plan's source node (found by name) with `source`.
fn swap_source(plan: QueryPlan, name: &str, source: GeneratorSource) -> EngineResult<QueryPlan> {
    let mut source = Some(source);
    probe::rebuild(plan, |_, op| {
        if op.name() == name {
            Ok(Box::new(source.take().ok_or_else(|| EngineError::InvalidPlan {
                detail: format!("two nodes named `{name}`"),
            })?))
        } else {
            Ok(op)
        }
    })
}

/// The log of the probed operator called `name`.
fn log<'a>(trace: &'a Trace, name: &str) -> Result<MutexGuard<'a, NodeLog>, String> {
    trace.named(name).ok_or_else(|| format!("`{name}` was not probed"))
}

/// End of every `poll_source` call of the named source, in call order:
/// poll `k` released input tuples `[k·batch, (k+1)·batch)`.
fn releases(trace: &Trace, source: &str) -> Result<Vec<u64>, String> {
    let log = log(trace, source)?;
    Ok(log.spans.iter().filter(|s| s.callback == Callback::Poll).map(|s| s.end_ns).collect())
}

/// Start of the callback that delivered each tuple to the named sink, in
/// arrival order.
fn arrivals(trace: &Trace, sink: &str) -> Result<Vec<u64>, String> {
    let log = log(trace, sink)?;
    let mut out = Vec::new();
    for span in log.spans.iter().filter(|s| matches!(s.callback, Callback::Page | Callback::Tuple))
    {
        out.extend(std::iter::repeat_n(span.start_ns, span.tuples_in as usize));
    }
    Ok(out)
}

/// Latency of a result that input tuple `closing` completed and that reached
/// the sink at `arrival_ns`.
fn latency_ms(polls: &[u64], batch: usize, closing: usize, arrival_ns: u64) -> Result<f64, String> {
    let release = polls
        .get(closing / batch)
        .ok_or_else(|| format!("no poll released input tuple {closing}"))?;
    Ok(probe::ns_to_ms(arrival_ns.saturating_sub(*release)))
}

/// Order-independent digest of a multiset of tuples.
fn digest(tuples: &[Tuple]) -> (Vec<u64>, u64) {
    let mut hashes: Vec<u64> = tuples.iter().map(|t| fixed_hash(&t.values())).collect();
    hashes.sort_unstable();
    let digest = fixed_hash(&hashes);
    (hashes, digest)
}

fn float(tuple: &Tuple, index: usize) -> Option<f64> {
    match tuple.values().get(index)? {
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn int(tuple: &Tuple, index: usize) -> Option<i64> {
    match tuple.values().get(index)? {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn timestamp(tuple: &Tuple, index: usize) -> Option<Timestamp> {
    match tuple.values().get(index)? {
        Value::Timestamp(ts) => Some(*ts),
        _ => None,
    }
}

/// Traffic schema column indices.
const TS: usize = 0;
const SEGMENT: usize = 1;
const DETECTOR: usize = 2;
const SPEED: usize = 3;
const VOLUME: usize = 4;

/// Index of the first input tuple at or after `at` in a traffic stream that
/// reports `per_tick` tuples every `resolution`, clamped to the last tuple
/// (results the end of the stream completes).
fn first_index_at(at: Timestamp, resolution: StreamDuration, per_tick: usize, n: usize) -> usize {
    let tick = (at.as_millis() + resolution.as_millis() - 1) / resolution.as_millis();
    (tick.max(0) as usize).saturating_mul(per_tick).min(n - 1)
}

// ---------------------------------------------------------------------------
// speedmap: Figure 4(b), scheme F3, a zoom every 2 minutes
// ---------------------------------------------------------------------------

/// The paper's speed-map experiment at paper scale.
pub struct Speedmap {
    config: Experiment2Config,
    zoom_frequency: StreamDuration,
    tuples: Vec<Tuple>,
    /// AVG(speed) of QUALITY-passing tuples per (window start ms, segment).
    reference: BTreeMap<(i64, i64), f64>,
    /// One zoom schedule per input variant.
    schedules: Vec<ZoomSchedule>,
}

/// Zoom schedules a speedmap run cycles through.  The defect the notes
/// describe leaves only a handful of visible results per schedule, so
/// `viewport_recall` of one schedule moves in large steps; averaging over
/// many schedules makes it a steady measurement.
const ZOOM_SCHEDULES: u64 = 64;

impl Speedmap {
    /// Generates the stream and the reference averages.
    pub fn generate(seeds: &Seeds, size: Size) -> (Self, Duration) {
        let mut config = Experiment2Config::paper();
        // Time the program, not the spin loops that model validation and
        // rendering cost.
        config.validation_cost = Duration::ZERO;
        config.render_cost = Duration::ZERO;
        config.stream.seed = seeds.traffic;
        config.zoom_seed = seeds.zoom;
        if size == Size::Test {
            config.stream.duration = StreamDuration::from_minutes(40);
            config.stream.detectors_per_segment = 4;
        }
        let zoom_frequency = StreamDuration::from_minutes(2);
        let started = Instant::now();
        let tuples: Vec<Tuple> = TrafficGenerator::new(config.stream.clone()).collect();
        let took = started.elapsed();
        let mut sums: BTreeMap<(i64, i64), (f64, u64)> = BTreeMap::new();
        for t in &tuples {
            let speed = float(t, SPEED);
            // QUALITY's predicate: a non-null speed in [0, 120].
            let Some(speed) = speed.filter(|s| (0.0..=120.0).contains(s)) else { continue };
            let window = timestamp(t, TS).expect("traffic timestamp").align_down(config.window);
            let segment = int(t, SEGMENT).expect("traffic segment");
            let entry = sums.entry((window.as_millis(), segment)).or_default();
            entry.0 += speed;
            entry.1 += 1;
        }
        let reference = sums.into_iter().map(|(k, (sum, n))| (k, sum / n as f64)).collect();
        let schedules = (0..ZOOM_SCHEDULES)
            .map(|variant| {
                ZoomSchedule::new(
                    config.stream.segments,
                    config.visible_segments,
                    zoom_frequency,
                    config.stream.duration,
                    Self::zoom_seed(&config, variant),
                )
            })
            .collect();
        (Speedmap { config, zoom_frequency, tuples, reference, schedules }, took)
    }

    fn zoom_seed(config: &Experiment2Config, variant: u64) -> u64 {
        config.zoom_seed.wrapping_add(variant)
    }

    fn visible(&self, schedule: usize, window_ms: i64, segment: i64) -> bool {
        self.schedules[schedule]
            .viewport_at(Timestamp::from_millis(window_ms))
            .is_some_and(|v| v.visible.contains(&segment))
    }
}

impl Job for Speedmap {
    fn input_tuples(&self) -> u64 {
        self.tuples.len() as u64
    }

    fn variants(&self) -> u64 {
        ZOOM_SCHEDULES
    }

    fn build(&self, variant: u64) -> EngineResult<(QueryPlan, Output)> {
        let variant = variant % ZOOM_SCHEDULES;
        let mut config = self.config.clone();
        config.zoom_seed = Self::zoom_seed(&self.config, variant);
        let (plan, handles) = speedmap_plan(&config, Scheme::F3, self.zoom_frequency)?;
        let source = GeneratorSource::new("detector-source", self.tuples.clone().into_iter())
            .with_punctuation("timestamp", config.punctuation_period)
            .with_batch_size(config.source_batch);
        let output = Output::Display(handles.rendered, variant as usize);
        Ok((swap_source(plan, "detector-source", source)?, output))
    }

    fn watch(&self, _index: usize, operator: &dyn Operator) -> Watch {
        Watch {
            watermark: (operator.name() == "MAP").then(|| "window".to_string()),
            ..Watch::default()
        }
    }

    fn check(
        &self,
        output: &Output,
        trace: &Trace,
        _report: &ExecutionReport,
    ) -> Result<Outcome, String> {
        let Output::Display(rendered, schedule) = output else { return Err("wrong sink".into()) };
        let schedule = *schedule;
        let rendered = rendered.lock();
        let mut seen = HashSet::new();
        let mut outcome = Outcome::default();
        for t in rendered.iter() {
            let window = timestamp(t, 0).ok_or("rendered result without window")?.as_millis();
            let segment = int(t, 1).ok_or("rendered result without segment")?;
            let avg = float(t, 2).ok_or("rendered result without avg")?;
            let expected = self
                .reference
                .get(&(window, segment))
                .ok_or_else(|| format!("rendered ({window} ms, segment {segment}) has no input"))?;
            if avg != *expected {
                return Err(format!(
                    "rendered ({window} ms, segment {segment}) = {avg}, reference {expected}"
                ));
            }
            if !seen.insert((window, segment)) {
                return Err(format!("({window} ms, segment {segment}) rendered twice"));
            }
            if self.visible(schedule, window, segment) {
                outcome.recall.0 += 1;
            } else {
                outcome.hidden_rendered += 1;
            }
        }
        outcome.recall.1 =
            self.reference.keys().filter(|(w, s)| self.visible(schedule, *w, *s)).count() as u64;
        // Every rendered value was checked above, so every rendered result is
        // a correct one; the replay has no deadline.
        outcome.timely = (rendered.len() as u64, rendered.len() as u64);
        let (_, digest) = digest(&rendered);
        outcome.digest = digest;
        drop(rendered);

        if !trace.probed() {
            return Ok(outcome);
        }
        // Window completion latency: from the release of the input tuple that
        // closes a window to the display's receipt of the progress
        // punctuation that completes it.
        let polls = releases(trace, "detector-source")?;
        let display = log(trace, "MAP")?;
        let per_tick =
            (self.config.stream.segments * self.config.stream.detectors_per_segment) as usize;
        let n = self.tuples.len();
        let mut completed = display.watermarks.iter().peekable();
        let windows: Vec<i64> = {
            let mut w: Vec<i64> = self.reference.keys().map(|(w, _)| *w).collect();
            w.dedup();
            w
        };
        for window_ms in windows {
            let end = Timestamp::from_millis(window_ms) + self.config.window;
            let last = end - StreamDuration::from_millis(1);
            while completed.peek().is_some_and(|(w, _)| *w < last) {
                completed.next();
            }
            let Some((_, arrival)) = completed.peek() else { break };
            let closing = first_index_at(end, self.config.stream.resolution, per_tick, n);
            outcome.latencies_ms.push(latency_ms(
                &polls,
                self.config.source_batch,
                closing,
                *arrival,
            )?);
        }
        Ok(outcome)
    }

    fn kind(&self, operator: &str) -> Option<&'static str> {
        Some(match operator {
            "detector-source" => "source",
            "QUALITY" => "quality",
            "AVERAGE" => "aggregate",
            "MAP" => "display",
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// imputation: Figure 4(a), PACE + feedback, open loop
// ---------------------------------------------------------------------------

/// The paper's imputation experiment, paced at a fixed stream-time speedup.
pub struct Imputation {
    config: Experiment1Config,
    tuples: Vec<Tuple>,
}

impl Imputation {
    /// Generates the alternating clean/dirty stream.
    pub fn generate(seeds: &Seeds, size: Size) -> (Self, Duration) {
        let mut config = Experiment1Config::small();
        // Sized so that at least 1,000 tuples reach the sink on every run.
        config.stream.tuples = if size == Size::Test { 300 } else { 1_600 };
        config.stream.seed = seeds.imputation;
        let started = Instant::now();
        let tuples = ImputationGenerator::new(config.stream.clone()).collect();
        (Imputation { config, tuples }, started.elapsed())
    }

    /// Where pacing starts: the start of the source's first poll.
    fn pacing_origin(trace: &Trace) -> Option<u64> {
        let source = trace.named("sensor-source")?;
        source.spans.iter().find(|s| s.callback == Callback::Poll).map(|s| s.start_ns)
    }

    fn due_ns(&self, origin_ns: u64, ts: Timestamp) -> u64 {
        origin_ns + (ts.as_millis() as f64 / self.config.speedup * 1e6) as u64
    }
}

/// Imputation schema column indices.
const TUPLE_ID: usize = 0;
const IMP_TS: usize = 1;

impl Job for Imputation {
    fn input_tuples(&self) -> u64 {
        self.tuples.len() as u64
    }

    fn replays(&self) -> bool {
        false
    }

    fn build(&self, _variant: u64) -> EngineResult<(QueryPlan, Output)> {
        let (plan, handles) = imputation_plan(&self.config, true)?;
        let source = GeneratorSource::new("sensor-source", self.tuples.clone().into_iter())
            .with_punctuation("timestamp", self.config.punctuation_period)
            .with_batch_size(self.config.source_batch)
            .with_pacing(self.config.speedup);
        Ok((swap_source(plan, "sensor-source", source)?, Output::Timed(handles.output)))
    }

    fn watch(&self, _index: usize, operator: &dyn Operator) -> Watch {
        Watch {
            id_column: (operator.name() == "split-dirty-clean").then_some(TUPLE_ID),
            ..Watch::default()
        }
    }

    fn check(
        &self,
        output: &Output,
        trace: &Trace,
        _report: &ExecutionReport,
    ) -> Result<Outcome, String> {
        let Output::Timed(arrived) = output else { return Err("wrong sink".into()) };
        let arrived = arrived.lock();
        let mut outcome = Outcome::default();
        let mut seen = HashSet::new();
        let mut watermark: Option<Timestamp> = None;
        let mut timely_imputed = 0;
        let mut clean = Vec::new();
        for record in arrived.iter() {
            let id = int(&record.tuple, TUPLE_ID).ok_or("delivered tuple without id")?;
            let ts = timestamp(&record.tuple, IMP_TS).ok_or("delivered tuple without time")?;
            if !seen.insert(id) {
                return Err(format!("tuple {id} delivered twice"));
            }
            let w = watermark.map_or(ts, |w| w.max(ts));
            watermark = Some(w);
            if id % 2 == 1 {
                if (w - ts).as_millis() <= self.config.tolerance.as_millis() {
                    timely_imputed += 1;
                }
            } else {
                clean.push(record.tuple.clone());
            }
        }
        let clean_input = self.tuples.iter().filter(|t| !t.has_null()).count() as u64;
        if clean.len() as u64 != clean_input {
            return Err(format!("{} of {clean_input} clean tuples delivered", clean.len()));
        }
        outcome.timely = (timely_imputed, self.tuples.len() as u64 - clean_input);
        // There is no viewport: every clean tuple is meant to be seen.
        outcome.recall = (clean.len() as u64, clean_input);
        outcome.digest = digest(&clean).1;

        if !trace.probed() {
            return Ok(outcome);
        }
        // Open-loop latency: from each tuple's due time on the pacing
        // schedule (anchored at the source's first poll, where pacing
        // starts) to its arrival at the sink.
        let origin = Self::pacing_origin(trace).ok_or("source never polled")?;
        let times = arrivals(trace, "speed-map-feed")?;
        if times.len() != arrived.len() {
            return Err(format!("{} arrivals timed, {} recorded", times.len(), arrived.len()));
        }
        for (record, at) in arrived.iter().zip(times) {
            let ts = timestamp(&record.tuple, IMP_TS).expect("checked above");
            outcome.latencies_ms.push(probe::ns_to_ms(at.saturating_sub(self.due_ns(origin, ts))));
        }
        Ok(outcome)
    }

    fn kind(&self, operator: &str) -> Option<&'static str> {
        Some(match operator {
            "sensor-source" => "source",
            "split-dirty-clean" => "split",
            "IMPUTE" => "impute",
            "PACE" => "pace",
            "speed-map-feed" => "sink",
            _ => return None,
        })
    }

    fn release_lags_ms(&self, trace: &Trace) -> Vec<f64> {
        let (Some(origin), Some(split)) =
            (Self::pacing_origin(trace), trace.named("split-dirty-clean"))
        else {
            return Vec::new();
        };
        let step = self.config.stream.inter_arrival.as_millis();
        split
            .ids
            .iter()
            .map(|(id, at)| {
                let due = self.due_ns(origin, Timestamp::from_millis(id * step));
                probe::ns_to_ms(at.saturating_sub(due))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// deep_chain: 64 stateless SELECTs, no feedback, no state
// ---------------------------------------------------------------------------

/// Chain length of `deep_chain`.
pub const CHAIN: i64 = 64;
const DEEP_BATCH: usize = 64;

/// A long chain of cheap SELECTs over replayed traffic tuples.
pub struct DeepChain {
    traffic: TrafficConfig,
    tuples: Vec<Tuple>,
    expected: Vec<u64>,
}

fn deep_schema() -> SchemaRef {
    Schema::shared(&[
        ("timestamp", DataType::Timestamp),
        ("segment", DataType::Int),
        ("detector", DataType::Int),
        ("speed", DataType::Float),
        ("volume", DataType::Int),
        ("freeway", DataType::Text),
    ])
}

/// SELECT `i` drops the tuples of detectors `≡ i (mod 64)` that reported
/// volume `i mod 40`: about 1 in 2,560 tuples per SELECT.
fn keeps(i: i64, tuple: &Tuple) -> bool {
    let values = tuple.values();
    !(matches!(values[DETECTOR], Value::Int(d) if d % CHAIN == i)
        && matches!(values[VOLUME], Value::Int(v) if v == i % 40))
}

impl DeepChain {
    /// Generates the traffic stream with a text column.
    pub fn generate(seeds: &Seeds, size: Size) -> (Self, Duration) {
        let traffic = TrafficConfig {
            segments: 16,
            detectors_per_segment: 24,
            duration: if size == Size::Test {
                StreamDuration::from_minutes(20)
            } else {
                StreamDuration::from_hours(6)
            },
            seed: seeds.traffic,
            ..TrafficConfig::default()
        };
        let schema = deep_schema();
        let started = Instant::now();
        let tuples: Vec<Tuple> = TrafficGenerator::new(traffic.clone())
            .map(|t| {
                let segment = int(&t, SEGMENT).expect("traffic segment");
                let mut values = t.values().to_vec();
                values.push(Value::from(format!(
                    "Interstate-{:02} northbound near milepost {:03}",
                    5 + segment % 3,
                    segment * 7 + 1
                )));
                Tuple::new(schema.clone(), values)
            })
            .collect();
        let took = started.elapsed();
        let kept: Vec<Tuple> =
            tuples.iter().filter(|t| (0..CHAIN).all(|i| keeps(i, t))).cloned().collect();
        let (expected, _) = digest(&kept);
        (DeepChain { traffic, tuples, expected }, took)
    }
}

impl Job for DeepChain {
    fn input_tuples(&self) -> u64 {
        self.tuples.len() as u64
    }

    fn build(&self, _variant: u64) -> EngineResult<(QueryPlan, Output)> {
        let schema = deep_schema();
        let builder = StreamBuilder::new().with_page_capacity(64).with_queue_capacity(8);
        let mut stream = builder.source_as(
            VecSource::new("source", self.tuples.clone())
                .with_punctuation("timestamp", StreamDuration::from_secs(60))
                .with_batch_size(DEEP_BATCH),
            schema.clone(),
        )?;
        for i in 0..CHAIN {
            let predicate = TuplePredicate::new(format!("keep {i}"), move |t| keeps(i, t));
            stream = stream.apply(Select::new(format!("select-{i}"), schema.clone(), predicate))?;
        }
        let (sink, handle) = CollectSink::new("sink");
        stream.sink(sink)?;
        Ok((builder.build()?, Output::Collect(handle)))
    }

    fn check(
        &self,
        output: &Output,
        trace: &Trace,
        _report: &ExecutionReport,
    ) -> Result<Outcome, String> {
        let Output::Collect(collected) = output else { return Err("wrong sink".into()) };
        let collected = collected.lock();
        let (hashes, digest) = digest(&collected);
        if hashes != self.expected {
            return Err(format!(
                "sink multiset differs from the predicates applied to the input ({} vs {} tuples)",
                hashes.len(),
                self.expected.len()
            ));
        }
        let expected = self.expected.len() as u64;
        let mut outcome = Outcome {
            timely: (expected, expected),
            recall: (expected, expected),
            digest,
            ..Outcome::default()
        };
        if !trace.probed() {
            return Ok(outcome);
        }
        // Per-tuple latency: from the release of the input tuple to its
        // arrival at the sink.  Input order is tick, then detector.
        let polls = releases(trace, "source")?;
        let times = arrivals(trace, "sink")?;
        let per_tick = (self.traffic.segments * self.traffic.detectors_per_segment) as usize;
        let resolution = self.traffic.resolution.as_millis();
        for (t, at) in collected.iter().zip(times) {
            let tick = timestamp(t, TS).ok_or("result without timestamp")?.as_millis() / resolution;
            let index = tick as usize * per_tick + int(t, DETECTOR).ok_or("no detector")? as usize;
            outcome.latencies_ms.push(latency_ms(&polls, DEEP_BATCH, index, at)?);
        }
        Ok(outcome)
    }

    fn kind(&self, operator: &str) -> Option<&'static str> {
        match operator {
            "source" => Some("source"),
            "sink" => Some("sink"),
            name if name.starts_with("select-") => Some("select"),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// keyed_state: shuffle → supervised AVG replicas (one fault) → merge
// ---------------------------------------------------------------------------

const KEYED_BATCH: usize = 256;

/// Windowed AVG over many keys, replicated behind a shuffle, with supervised
/// recovery absorbing one injected panic.
pub struct KeyedState {
    traffic: TrafficConfig,
    partitions: usize,
    window: StreamDuration,
    /// Tuple ordinal (within replica 0's input) at which the panic fires.
    fault_at: u64,
    tuples: Vec<Tuple>,
    expected: Vec<u64>,
    expected_digest: u64,
    /// Index of the input tuple that closes each window, by window start ms.
    closing: HashMap<i64, usize>,
}

impl KeyedState {
    /// Generates the traffic stream and the fault-free reference.
    pub fn generate(seeds: &Seeds, size: Size) -> (Self, Duration) {
        let partitions = std::thread::available_parallelism().map_or(2, |n| n.get()).max(2);
        let traffic = TrafficConfig {
            segments: if size == Size::Test { 10 } else { 100 },
            detectors_per_segment: 200,
            duration: if size == Size::Test {
                StreamDuration::from_minutes(12)
            } else {
                StreamDuration::from_minutes(40)
            },
            seed: seeds.traffic,
            ..TrafficConfig::default()
        };
        let window = StreamDuration::from_minutes(5);
        let started = Instant::now();
        let tuples: Vec<Tuple> = TrafficGenerator::new(traffic.clone()).collect();
        let took = started.elapsed();
        let n = tuples.len();
        // Somewhere in the middle half of replica 0's share of the input.
        let share = (n / partitions) as u64;
        let fault_at = share / 4 + seeds.chaos % (share / 2).max(1);

        let mut sums: BTreeMap<(i64, i64), (f64, u64)> = BTreeMap::new();
        for t in &tuples {
            let wid = timestamp(t, TS).expect("traffic timestamp").window_id(window);
            let entry = sums.entry((wid, int(t, DETECTOR).expect("detector"))).or_default();
            if let Some(speed) = float(t, SPEED) {
                entry.0 += speed;
                entry.1 += 1;
            }
        }
        let schema = Self::output_schema(window);
        let per_tick = (traffic.segments * traffic.detectors_per_segment) as usize;
        let mut closing = HashMap::new();
        let reference: Vec<Tuple> = sums
            .into_iter()
            .map(|((wid, detector), (sum, count))| {
                let start = Timestamp::from_millis(wid * window.as_millis());
                closing.entry(start.as_millis()).or_insert_with(|| {
                    first_index_at(start + window, traffic.resolution, per_tick, n)
                });
                let avg = if count == 0 { Value::Null } else { Value::Float(sum / count as f64) };
                Tuple::new(schema.clone(), vec![Value::Timestamp(start), Value::Int(detector), avg])
            })
            .collect();
        let (expected, expected_digest) = digest(&reference);
        let job = KeyedState {
            traffic,
            partitions,
            window,
            fault_at,
            tuples,
            expected,
            expected_digest,
            closing,
        };
        (job, took)
    }

    fn aggregate(name: String, window: StreamDuration) -> WindowAggregate {
        WindowAggregate::new(
            name,
            TrafficGenerator::schema(),
            "timestamp",
            window,
            &["detector"],
            AggregateFunction::Avg("speed".into()),
        )
        .expect("valid aggregate spec")
    }

    fn output_schema(window: StreamDuration) -> SchemaRef {
        Self::aggregate("schema".into(), window).output_schema().clone()
    }
}

impl Job for KeyedState {
    fn input_tuples(&self) -> u64 {
        self.tuples.len() as u64
    }

    fn build(&self, _variant: u64) -> EngineResult<(QueryPlan, Output)> {
        let schema = TrafficGenerator::schema();
        let out_schema = Self::output_schema(self.window);
        let builder = StreamBuilder::new().with_queue_capacity(8);
        let stream = builder.source_as(
            VecSource::new("source", self.tuples.clone())
                .with_punctuation("timestamp", self.traffic.resolution)
                .with_batch_size(KEYED_BATCH),
            schema.clone(),
        )?;
        let shuffle = Shuffle::new("shuffle", schema, &["detector"], self.partitions)?;
        let restart = RecoveryPolicy::Restart { max_restarts: 1, backoff: Duration::ZERO };
        let mut replicas = Vec::with_capacity(self.partitions);
        for (i, partition) in stream.apply_multi(shuffle)?.into_iter().enumerate() {
            let aggregate = Self::aggregate(format!("AVG-{i}"), self.window);
            let replica = if i == 0 {
                let fault = FaultSpec::Panic { at_tuple: self.fault_at, times: 1 };
                partition.apply_as(Chaos::new(aggregate, fault), out_schema.clone())?
            } else {
                partition.apply_as(aggregate, out_schema.clone())?
            };
            replicas.push(replica.with_recovery(restart));
        }
        let merged = Stream::merge(replicas, Merge::new("merge", out_schema, self.partitions))?;
        let (sink, handle) = CollectSink::new("sink");
        merged.sink(sink)?;
        Ok((builder.build()?, Output::Collect(handle)))
    }

    fn check(
        &self,
        output: &Output,
        trace: &Trace,
        report: &ExecutionReport,
    ) -> Result<Outcome, String> {
        let Output::Collect(collected) = output else { return Err("wrong sink".into()) };
        let collected = collected.lock();
        let (hashes, digest) = digest(&collected);
        if digest != self.expected_digest || hashes != self.expected {
            return Err(format!(
                "sink digest differs from the fault-free reference ({} vs {} results)",
                hashes.len(),
                self.expected.len()
            ));
        }
        let restarts = report.recovery().restarts;
        if restarts != 1 {
            return Err(format!("expected the injected fault to cause 1 restart, saw {restarts}"));
        }
        let expected = self.expected.len() as u64;
        let mut outcome = Outcome {
            timely: (expected, expected),
            recall: (expected, expected),
            digest,
            ..Outcome::default()
        };
        if !trace.probed() {
            return Ok(outcome);
        }
        // Result latency: from the release of the input tuple that closes a
        // result's window to the result's arrival at the sink.
        let polls = releases(trace, "source")?;
        let times = arrivals(trace, "sink")?;
        for (t, at) in collected.iter().zip(times) {
            let window = timestamp(t, 0).ok_or("result without window")?.as_millis();
            let closing = *self.closing.get(&window).ok_or("result for an unknown window")?;
            outcome.latencies_ms.push(latency_ms(&polls, KEYED_BATCH, closing, at)?);
        }
        Ok(outcome)
    }

    fn kind(&self, operator: &str) -> Option<&'static str> {
        match operator {
            "source" => Some("source"),
            "shuffle" => Some("shuffle"),
            "merge" => Some("merge"),
            "sink" => Some("sink"),
            name if name.starts_with("AVG-") || name.starts_with("chaos:AVG-") => Some("aggregate"),
            _ => None,
        }
    }
}
