//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <speedmap|imputation|deep_chain|keyed_state> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's input from the seed, sets up several times
//! (reporting the median as `setup_s`), then for about `--seconds` runs the
//! plan on `PooledExecutor` and `SyncExecutor` in alternation, checking every
//! run's output; times over runs are trimmed means (see
//! [`perfbench::stats::trimmed_mean`]).  With `--trace 0` it reports the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` it runs traced/unprobed cycles and
//! reports the per-layer metrics, writing the spans of the last cycle under
//! `perfbench/out/`.  The last line of standard output is the result object;
//! the line before it records the machine, the seeds and the sample counts.

use perfbench::layers::{self, Cycle};
use perfbench::probe::Probes;
use perfbench::stats::{
    json_number, json_string, median, percentile, ratio, trimmed_mean, Metrics,
};
use perfbench::workloads::{self, Exec, Job, RunResult, Seeds, Size};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(4);
/// Share of runs dropped at each end before averaging run times.
const TRIM: f64 = 0.1;
const SETUP_MAX_REPS: usize = 10_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {:?})", workloads::NAMES));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, label: &str, result: Result<RunResult, String>) -> Option<RunResult> {
        self.attempted += 1;
        match result {
            Ok(run) => Some(run),
            Err(error) => {
                self.failed += 1;
                eprintln!("perfbench: {label} run failed: {error}");
                None
            }
        }
    }
}

struct Setup {
    job: Box<dyn Job>,
    generate_s: Vec<f64>,
    build_s: Vec<f64>,
}

impl Setup {
    /// Input generation plus plan build, one entry per repetition.
    fn setup_s(&self) -> Vec<f64> {
        self.generate_s.iter().zip(&self.build_s).map(|(g, b)| g + b).collect()
    }
}

/// Generates the input and builds the plan repeatedly (see `SETUP_REPS`).
fn set_up(args: &Args, seeds: &Seeds) -> Result<Setup, String> {
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let mut job = None;
    let started = Instant::now();
    // At least `SETUP_REPS`, and more while they stay cheap, so a set-up of
    // a fraction of a millisecond still gives a steady median.
    while generate_s.len() < SETUP_REPS
        || (started.elapsed() < SETUP_MIN_TIME && generate_s.len() < SETUP_MAX_REPS)
    {
        // Drop the previous input first so only one copy is resident.
        drop(job.take());
        let (fresh, took) = workloads::generate(&args.workload, seeds, Size::Full)?;
        let started = Instant::now();
        let built = fresh.build(0).map_err(|e| format!("plan build failed: {e}"))?;
        build_s.push(started.elapsed().as_secs_f64());
        drop(built);
        generate_s.push(took.as_secs_f64());
        job = Some(fresh);
    }
    Ok(Setup { job: job.expect("at least one set-up"), generate_s, build_s })
}

fn pooled_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The untraced measurement: alternating pooled and sync runs.  The
/// open-loop workload is paced, so its sync runs give only the
/// `throughput_sync_tps` stand-in: it runs sync once and spends the rest of
/// the budget on the pooled runs that carry its latency.
fn measure(args: &Args, setup: &Setup, tally: &mut Tally) -> (Metrics, Vec<(String, f64)>) {
    let job = setup.job.as_ref();
    let workers = pooled_workers();
    let input = job.input_tuples() as f64;
    let (mut pooled_s, mut sync_s) = (Vec::new(), Vec::new());
    // Latency is timed on the pooled runs of the open-loop workload, and on
    // the sync runs of the replays, whose deterministic interleaving gives
    // the time the pipeline holds a result (their pooled latencies spread
    // too much on two shared virtual CPUs to gate on).  The open loop keeps
    // every result; a replay keeps its runs' percentiles, since a run has up
    // to 400k results.
    let (mut open_loop, mut run_p50, mut run_p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut timed_runs, mut latency_samples) = (0, 0);
    let (mut timely, mut recall) = ((0, 0), (0, 0));
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    for pair in 0.. {
        let pair_started = Instant::now();
        let run = job.run(Exec::Pooled(workers), Probes::Boundary, pair);
        if let Some(run) = tally.record("pooled", run) {
            pooled_s.push(run.report.elapsed.as_secs_f64());
            timely.0 += run.outcome.timely.0;
            timely.1 += run.outcome.timely.1;
            if !job.replays() {
                timed_runs += 1;
                latency_samples += run.outcome.latencies_ms.len();
                open_loop.extend(run.outcome.latencies_ms);
            }
        }
        if job.replays() || pair == 0 {
            let run = job.run(Exec::Sync, Probes::Boundary, pair);
            if let Some(run) = tally.record("sync", run) {
                sync_s.push(run.report.elapsed.as_secs_f64());
                recall.0 += run.outcome.recall.0;
                recall.1 += run.outcome.recall.1;
                if job.replays() {
                    let times = &run.outcome.latencies_ms;
                    timed_runs += 1;
                    latency_samples += times.len();
                    run_p50.extend(percentile(times, 0.5));
                    run_p99.extend(percentile(times, 0.99));
                }
            }
        }
        // Stop before a pair that would overrun the budget, once every input
        // variant has run.
        if pair + 1 >= job.variants() && started.elapsed() + pair_started.elapsed() > budget {
            break;
        }
    }
    // The open loop's percentiles are over all its results rather than
    // per-run percentiles: its pooled runs fall into two latency modes at
    // random (p50 about 130 ms or about 215 ms), and a median over six runs
    // flipped between them.
    let (p50, p99) = if job.replays() {
        (trimmed_mean(&run_p50, TRIM), trimmed_mean(&run_p99, TRIM))
    } else {
        (percentile(&open_loop, 0.5), percentile(&open_loop, 0.99))
    };
    let mut m = Metrics::default();
    let tps = |times: &[f64]| trimmed_mean(times, TRIM).map_or(0.0, |s| input / s);
    m.set("throughput_tps", tps(&pooled_s), "tuples/s");
    m.set("throughput_sync_tps", tps(&sync_s), "tuples/s");
    m.set("latency_p50_ms", p50.unwrap_or(0.0), "ms");
    m.set("latency_p99_ms", p99.unwrap_or(0.0), "ms");
    m.set("timely_fraction", ratio(timely.0, timely.1), "ratio");
    m.set("viewport_recall", ratio(recall.0, recall.1), "ratio");
    m.set("setup_s", median(&setup.setup_s()).unwrap_or(0.0), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    let samples = vec![
        ("pooled_runs".to_string(), pooled_s.len() as f64),
        ("sync_runs".to_string(), sync_s.len() as f64),
        ("latency_runs".to_string(), timed_runs as f64),
        ("latency_samples".to_string(), latency_samples as f64),
    ];
    (m, samples)
}

/// The traced measurement: cycles of unprobed sync, unprobed pooled, traced
/// pooled and traced sync runs.
fn measure_traced(args: &Args, setup: &Setup, tally: &mut Tally) -> (Metrics, Vec<(String, f64)>) {
    let job = setup.job.as_ref();
    let workers = pooled_workers();
    let generate_s = median(&setup.generate_s).unwrap_or(0.0);
    let build_s = median(&setup.build_s).unwrap_or(0.0);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut sets = Vec::new();
    let mut last;
    loop {
        let cycle_started = Instant::now();
        let runs = [
            tally.record("sync", job.run(Exec::Sync, Probes::None, 0)),
            tally.record("pooled", job.run(Exec::Pooled(workers), Probes::None, 0)),
            tally.record("traced pooled", job.run(Exec::Pooled(workers), Probes::All, 0)),
            tally.record("traced sync", job.run(Exec::Sync, Probes::All, 0)),
        ];
        if let [Some(sync), Some(pooled), Some(traced_pooled), Some(traced_sync)] = &runs {
            // The probes must not change what the program computes.  Pooled
            // speedmap output depends on when feedback lands, so only its
            // sync digests are compared.
            let pooled_deterministic = args.workload != "speedmap";
            if sync.outcome.digest != traced_sync.outcome.digest
                || (pooled_deterministic && pooled.outcome.digest != traced_pooled.outcome.digest)
            {
                tally.failed += 1;
                eprintln!("perfbench: traced and untraced digests differ");
            }
            let cycle = Cycle { sync, pooled, traced_pooled, traced_sync };
            sets.push(layers::metrics(job, &cycle, generate_s, build_s));
        }
        last = Some(runs);
        if started.elapsed() + cycle_started.elapsed() > budget {
            break;
        }
    }
    if let Some([_, _, Some(traced_pooled), Some(traced_sync)]) = &last {
        if let Err(error) = write_spans(&args.workload, traced_pooled, traced_sync) {
            eprintln!("perfbench: could not write spans: {error}");
        }
    }
    let samples = vec![("cycles".to_string(), sets.len() as f64)];
    (Metrics::median_of(&sets), samples)
}

/// Writes the spans of one traced pooled and one traced sync run.
fn write_spans(workload: &str, pooled: &RunResult, sync: &RunResult) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    for (label, run) in [("pooled", pooled), ("sync", sync)] {
        let path = dir.join(format!("{workload}.{label}.spans.tsv"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        run.trace.write_tsv(&mut out, &format!("{workload} {label}"))?;
        out.flush()?;
    }
    Ok(())
}

fn meta_line(args: &Args, seeds: &Seeds, input: u64, samples: &[(String, f64)]) -> String {
    let counts: Vec<String> =
        samples.iter().map(|(k, v)| format!("{}: {}", json_string(k), json_number(*v))).collect();
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seeds\": {{\"traffic\": {}, \"imputation\": {}, \"zoom\": {}, \"chaos\": {}}}, \"trace\": {}, \"seconds\": {}, \"input_tuples\": {}, \"commit\": {}, \"source_hash\": {}, \"rustc\": {}, \"nproc\": {}, \"cpu\": {}, \"samples\": {{{}}}}}}}",
        json_string(&args.workload),
        args.seed,
        seeds.traffic,
        seeds.imputation,
        seeds.zoom,
        seeds.chaos,
        u8::from(args.trace),
        args.seconds,
        input,
        json_string(env!("PERFBENCH_COMMIT")),
        json_string(env!("PERFBENCH_SOURCE_HASH")),
        json_string(env!("PERFBENCH_RUSTC")),
        pooled_workers(),
        json_string(&cpu_model()),
        counts.join(", ")
    )
}

/// Silences the panic message of the fault `keyed_state` injects on
/// purpose; every other panic is reported as usual.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
        if message != Some("chaos: injected panic") {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    quiet_injected_panics();
    let seeds = Seeds::derive(args.seed);
    let setup = match set_up(&args, &seeds) {
        Ok(setup) => setup,
        Err(error) => {
            eprintln!("perfbench: set-up failed: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    if setup.job.replays() {
        // One checked run first, so the measured runs find the allocator and
        // caches warm rather than paying first-touch page faults.
        tally.record("warm-up", setup.job.run(Exec::Pooled(pooled_workers()), Probes::Boundary, 0));
    }
    let (metrics, mut samples) = if args.trace {
        measure_traced(&args, &setup, &mut tally)
    } else {
        measure(&args, &setup, &mut tally)
    };
    samples.push(("setup_reps".to_string(), setup.generate_s.len() as f64));
    println!("{}", meta_line(&args, &seeds, setup.job.input_tuples(), &samples));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
