//! Per-layer metrics of one traced cycle.
//!
//! Counters the engine reports itself (busy time, scheduler steps, queue
//! depth, checkpoints, feedback statistics) come from the cycle's runs
//! without probes, so probing does not inflate them.  Everything measured from
//! spans comes from the traced pooled run.  The layer micro-timings re-run
//! `FeedbackRegistry::decide`/`decide_batch` and
//! `CompiledPattern::matches`/`matches_summaries` on the guards, punctuation
//! patterns and pages the traced run captured.

use crate::probe::{Callback, NodeLog, Trace};
use crate::stats::{percentile, ratio, Metrics};
use crate::workloads::{Job, RunResult};
use dsms_engine::{ExecutionReport, Page};
use dsms_feedback::FeedbackRegistry;
use dsms_punctuation::CompiledPattern;
use dsms_types::{ColumnSummary, SchemaRef, Tuple};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Operator groups timed per tuple (they run on every tuple of their
/// workload).
pub const PER_TUPLE: [&str; 5] = ["select", "quality", "aggregate", "shuffle", "merge"];
/// Operator groups reported as total busy time.
pub const BUSY: [&str; 6] = ["source", "display", "split", "impute", "pace", "sink"];

/// The runs of one traced cycle.
pub struct Cycle<'a> {
    /// Unprobed sync run.
    pub sync: &'a RunResult,
    /// Unprobed pooled run.
    pub pooled: &'a RunResult,
    /// Traced pooled run.
    pub traced_pooled: &'a RunResult,
    /// Traced sync run.
    pub traced_sync: &'a RunResult,
}

/// Every per-layer metric of one cycle; metrics a workload does not exercise
/// read 0.
pub fn metrics(job: &dyn Job, cycle: &Cycle<'_>, generate_s: f64, build_s: f64) -> Metrics {
    let mut m = Metrics::default();
    m.set("workloads.generate_s", generate_s, "s");
    m.set("engine.build_s", build_s, "s");

    let sync = &cycle.sync.report;
    let callback_s: f64 = sync.metrics.iter().map(|o| o.busy.as_secs_f64()).sum();
    let framework_s = sync.elapsed.as_secs_f64() - callback_s;
    let sync_hops: u64 = sync.metrics.iter().map(|o| o.pages_in).sum();
    m.set("engine.callback_s", callback_s, "s");
    m.set("engine.framework_s", framework_s, "s");
    m.set("engine.framework_ns_per_hop", framework_s * 1e9 / sync_hops.max(1) as f64, "ns");

    let pooled = &cycle.pooled.report;
    let sum =
        |f: fn(&dsms_engine::OperatorMetrics) -> u64| -> u64 { pooled.metrics.iter().map(f).sum() };
    let scheduler = pooled.scheduler.unwrap_or_default();
    m.set(
        "engine.tuples_per_page",
        ratio(sum(|o| o.tuples_in), sum(|o| o.pages_in)),
        "tuples/page",
    );
    let depth = pooled.metrics.iter().map(|o| o.max_queue_depth).max().unwrap_or(0);
    m.set("engine.max_queue_depth", depth as f64, "pages");
    m.set("engine.sched_steps", sum(|o| o.sched_steps) as f64, "count");
    m.set("engine.steals", scheduler.steals as f64, "count");
    m.set("engine.parks", scheduler.parks as f64, "count");
    let recovery = pooled.recovery();
    m.set("engine.checkpoints", recovery.checkpoints_taken as f64, "count");
    let traced = &cycle.traced_pooled.trace;
    m.set("engine.checkpoint_s", callback_seconds(traced, Callback::Checkpoint), "s");
    m.set("engine.restore_s", callback_seconds(traced, Callback::Restore), "s");
    m.set("engine.restarts", recovery.restarts as f64, "count");
    m.set("engine.tuples_replayed", recovery.tuples_replayed as f64, "count");

    feedback_counters(&mut m, pooled, job.input_tuples());
    let (decide_ns, decide_batch_ns, match_ns, summary_ns) = micro_timings(traced);
    m.set("feedback.decide_ns", decide_ns, "ns");
    m.set("feedback.decide_batch_ns", decide_batch_ns, "ns");
    let delivery = delivery_ms(traced);
    m.set("feedback.delivery_p50_ms", percentile(&delivery, 0.5).unwrap_or(0.0), "ms");
    m.set("feedback.delivery_p99_ms", percentile(&delivery, 0.99).unwrap_or(0.0), "ms");
    m.set("feedback.hidden_rendered", cycle.pooled.outcome.hidden_rendered as f64, "count");
    m.set("punctuation.match_ns", match_ns, "ns");
    m.set("punctuation.summary_match_ns", summary_ns, "ns");

    let groups = operator_groups(job, traced);
    for kind in PER_TUPLE {
        let (ns, tuples) = groups.get(kind).map_or((0, 0), |g| (g.data_ns, g.tuples));
        m.set(format!("operators.{kind}.ns_per_tuple"), ratio(ns, tuples), "ns");
    }
    for kind in BUSY {
        let ns = groups.get(kind).map_or(0, |g| g.busy_ns);
        m.set(format!("operators.{kind}.busy_s"), ns as f64 / 1e9, "s");
    }
    let lags = job.release_lags_ms(traced);
    m.set("operators.source.release_lag_p99_ms", percentile(&lags, 0.99).unwrap_or(0.0), "ms");

    let overhead = |traced: &RunResult, plain: &RunResult| {
        traced.report.elapsed.as_secs_f64() - plain.report.elapsed.as_secs_f64()
    };
    m.set("trace.overhead_pooled_s", overhead(cycle.traced_pooled, cycle.pooled), "s");
    m.set("trace.overhead_sync_s", overhead(cycle.traced_sync, cycle.sync), "s");
    m.set("trace.executor_self_s", cycle.traced_sync.trace.run_self_ns() as f64 / 1e9, "s");
    let spans: usize = traced.nodes().map(|(_, _, log)| log.spans.len()).sum();
    m.set("trace.spans", spans as f64, "count");
    m
}

fn callback_seconds(trace: &Trace, callback: Callback) -> f64 {
    let ns: u64 = trace
        .nodes()
        .flat_map(|(_, _, log)| {
            log.spans
                .iter()
                .filter(|s| s.callback == callback)
                .map(|s| s.duration_ns())
                .collect::<Vec<_>>()
        })
        .sum();
    ns as f64 / 1e9
}

fn feedback_counters(m: &mut Metrics, report: &ExecutionReport, input_tuples: u64) {
    let mut stats = dsms_feedback::FeedbackStats::default();
    for o in &report.metrics {
        stats.merge(&o.feedback);
    }
    m.set("feedback.issued", stats.issued.total() as f64, "count");
    m.set("feedback.relayed", stats.relayed.total() as f64, "count");
    m.set("feedback.suppressed_fraction", ratio(stats.tuples_suppressed, input_tuples), "ratio");
    m.set("feedback.state_purged", stats.state_purged as f64, "count");
    let decisions = stats.batches_summary_conclusive + stats.batches_summary_fallback;
    m.set(
        "feedback.guard_conclusive_ratio",
        ratio(stats.batches_summary_conclusive, decisions),
        "ratio",
    );
}

/// From the end of the callback that first sent a feedback id to the start
/// of the first `on_feedback` that received it, per id, in milliseconds.
fn delivery_ms(trace: &Trace) -> Vec<f64> {
    let mut sent: HashMap<u64, u64> = HashMap::new();
    let mut received: HashMap<u64, u64> = HashMap::new();
    for (_, _, log) in trace.nodes() {
        for &(id, at) in &log.feedback_sent {
            sent.entry(id).and_modify(|t| *t = (*t).min(at)).or_insert(at);
        }
        for &(id, at) in &log.feedback_received {
            received.entry(id).and_modify(|t| *t = (*t).min(at)).or_insert(at);
        }
    }
    sent.iter()
        .filter_map(|(id, s)| received.get(id).map(|r| r.saturating_sub(*s) as f64 / 1e6))
        .collect()
}

#[derive(Default)]
struct Group {
    data_ns: u64,
    tuples: u64,
    busy_ns: u64,
}

fn operator_groups(job: &dyn Job, trace: &Trace) -> HashMap<&'static str, Group> {
    let mut groups: HashMap<&'static str, Group> = HashMap::new();
    for (_, name, log) in trace.nodes() {
        let Some(kind) = job.kind(name) else { continue };
        let group = groups.entry(kind).or_default();
        for span in &log.spans {
            group.busy_ns += span.duration_ns();
            if span.callback.is_data_path() {
                group.data_ns += span.duration_ns();
                group.tuples += u64::from(span.tuples_in);
            }
        }
    }
    groups
}

/// Total time and call count of one timed loop.
#[derive(Default)]
struct Timer {
    ns: u128,
    calls: u64,
}

impl Timer {
    fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Repeats `body` (which returns its number of calls) until it has made at
/// least `MIN_CALLS` calls, adding the time to `timer`.
fn time_calls(timer: &mut Timer, mut body: impl FnMut() -> u64) {
    const MIN_CALLS: u64 = 20_000;
    let mut calls = 0;
    let started = Instant::now();
    while calls < MIN_CALLS {
        let made = body();
        if made == 0 {
            return;
        }
        calls += made;
    }
    timer.ns += started.elapsed().as_nanos();
    timer.calls += calls;
}

fn same_schema(a: &SchemaRef, b: &SchemaRef) -> bool {
    std::sync::Arc::ptr_eq(a, b) || **a == **b
}

/// A sampled page with its column summaries computed once, so the timings
/// cover the decisions, not the summary construction.
struct Sample<'a> {
    schema: SchemaRef,
    tuples: &'a [Tuple],
    summaries: Vec<Option<ColumnSummary>>,
}

fn samples<'a>(pages: &[&'a Page]) -> Vec<Sample<'a>> {
    pages
        .iter()
        .filter_map(|page| {
            let first = page.tuples().first()?;
            Some(Sample {
                schema: first.schema().clone(),
                tuples: page.tuples(),
                summaries: (0..first.arity()).map(|c| page.column_summary(c)).collect(),
            })
        })
        .collect()
}

/// `(decide ns/call, decide_batch ns/call, matches ns/call,
/// matches_summaries ns/call)` over the run's captured guards, punctuation
/// patterns and sampled pages.  A guard or pattern is only paired with
/// pages of its own schema.
fn micro_timings(trace: &Trace) -> (f64, f64, f64, f64) {
    let logs: Vec<_> = trace.nodes().map(|(_, name, log)| (name.to_string(), log)).collect();
    let pages: Vec<&Page> = logs.iter().flat_map(|(_, log)| log.pages.iter()).collect();
    let samples = samples(&pages);
    let mut patterns: Vec<(SchemaRef, CompiledPattern)> = Vec::new();
    for (_, log) in &logs {
        for guard in &log.guards {
            patterns.push((guard.schema().clone(), guard.pattern().compile()));
        }
        for page in &log.pages {
            for p in page.punctuations().take(4) {
                patterns.push((p.schema().clone(), p.pattern().compile()));
            }
        }
    }

    // Keep the pattern timings bounded: an even sample of at most 64.
    const MAX_PATTERNS: usize = 64;
    let step = patterns.len().div_ceil(MAX_PATTERNS).max(1);
    let patterns: Vec<_> = patterns.into_iter().step_by(step).collect();

    let (mut decide, mut batch) = (Timer::default(), Timer::default());
    for (schema, mut registry) in registries(&logs) {
        let mine: Vec<&Sample<'_>> = samples
            .iter()
            .filter(|s| schema.as_ref().is_none_or(|x| same_schema(x, &s.schema)))
            .collect();
        if mine.is_empty() {
            continue;
        }
        time_calls(&mut decide, || {
            let mut calls = 0;
            for sample in &mine {
                for tuple in sample.tuples {
                    black_box(registry.decide(black_box(tuple)));
                    calls += 1;
                }
            }
            calls
        });
        time_calls(&mut batch, || {
            for sample in &mine {
                black_box(registry.decide_batch(sample.tuples.len(), |c| {
                    sample.summaries.get(c).cloned().flatten()
                }));
            }
            mine.len() as u64
        });
    }

    let (mut matches, mut summaries) = (Timer::default(), Timer::default());
    for (schema, pattern) in &patterns {
        let mine: Vec<&Sample<'_>> =
            samples.iter().filter(|s| same_schema(schema, &s.schema)).collect();
        if mine.is_empty() {
            continue;
        }
        time_calls(&mut matches, || {
            let mut calls = 0;
            for sample in &mine {
                for tuple in sample.tuples {
                    black_box(pattern.matches(black_box(tuple)));
                    calls += 1;
                }
            }
            calls
        });
        time_calls(&mut summaries, || {
            for sample in &mine {
                black_box(
                    pattern.matches_summaries(|c| sample.summaries.get(c).cloned().flatten()),
                );
            }
            mine.len() as u64
        });
    }
    (decide.per_call(), batch.per_call(), matches.per_call(), summaries.per_call())
}

/// One registry per node that received feedback, holding that node's guards
/// in arrival order and keyed by their schema.  With no feedback anywhere,
/// one empty registry (matching every page) times the no-guard path.
fn registries(
    logs: &[(String, std::sync::MutexGuard<'_, NodeLog>)],
) -> Vec<(Option<SchemaRef>, FeedbackRegistry)> {
    let mut out = Vec::new();
    for (name, log) in logs {
        let Some(first) = log.guards.first() else { continue };
        let mut registry = FeedbackRegistry::new(name.clone());
        for guard in &log.guards {
            // Lenient, as the operators register: a rejected guard is counted
            // by the registry, not an error here.
            let _ = registry.register(guard.clone());
        }
        out.push((Some(first.schema().clone()), registry));
    }
    if out.is_empty() {
        out.push((None, FeedbackRegistry::new("no-guards")));
    }
    out
}
