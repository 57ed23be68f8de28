//! The tracing probe must be invisible to the program: it forwards every
//! `Operator` method, and traced runs compute exactly what untraced runs do.

use dsms_engine::{
    ElasticStats, EngineResult, Operator, OperatorContext, OperatorMetrics, Page, SourceState,
    StateEntry, StreamItem,
};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles, FeedbackStats};
use dsms_punctuation::{Pattern, Punctuation};
use dsms_types::{DataType, Schema, SchemaRef, Timestamp, Tuple, Value};
use perfbench::probe::{Callback, Probe, Probes, Trace, Watch};
use perfbench::workloads::{self, Exec, RunResult, Seeds, Size};
use std::sync::{Arc, Mutex};

fn schema() -> SchemaRef {
    Schema::shared(&[("timestamp", DataType::Timestamp), ("v", DataType::Int)])
}

fn tuple(v: i64) -> Tuple {
    Tuple::new(schema(), vec![Value::Timestamp(Timestamp::from_secs(v)), Value::Int(v)])
}

fn feedback() -> FeedbackPunctuation {
    FeedbackPunctuation::assumed(Pattern::all_wildcards(schema()), "test")
}

/// An operator that answers every method distinctively and logs each call.
struct Fake {
    calls: Arc<Mutex<Vec<&'static str>>>,
}

impl Fake {
    fn log(&self, call: &'static str) {
        self.calls.lock().unwrap().push(call);
    }
}

impl Operator for Fake {
    fn name(&self) -> &str {
        "fake"
    }
    fn inputs(&self) -> usize {
        2
    }
    fn outputs(&self) -> usize {
        3
    }
    fn must_connect_all_outputs(&self) -> bool {
        true
    }
    fn feedback_roles(&self) -> FeedbackRoles {
        FeedbackRoles::producer()
    }
    fn schema_in(&self, input: usize) -> Option<SchemaRef> {
        (input == 1).then(schema)
    }
    fn schema_out(&self, output: usize) -> Option<SchemaRef> {
        (output == 2).then(schema)
    }
    fn on_tuple(&mut self, _: usize, tuple: Tuple, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.log("on_tuple");
        ctx.emit(1, tuple);
        ctx.send_feedback(0, feedback());
        Ok(())
    }
    fn on_page(&mut self, _: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.log("on_page");
        ctx.emit_page(0, page);
        ctx.broadcast_feedback(feedback());
        Ok(())
    }
    fn on_punctuation(
        &mut self,
        _: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.log("on_punctuation");
        ctx.broadcast_punctuation(punctuation);
        Ok(())
    }
    fn on_feedback(
        &mut self,
        _: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.log("on_feedback");
        ctx.send_feedback(1, feedback);
        Ok(())
    }
    fn on_request_results(&mut self, _: usize, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.log("on_request_results");
        ctx.request_results(0);
        Ok(())
    }
    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.log("on_flush");
        ctx.emit(2, tuple(9));
        Ok(())
    }
    fn poll_source(&mut self, _: &mut OperatorContext) -> EngineResult<SourceState> {
        self.log("poll_source");
        Ok(SourceState::Exhausted)
    }
    fn feedback_stats(&self) -> Option<FeedbackStats> {
        let mut stats = FeedbackStats::default();
        stats.issued.assumed = 7;
        Some(stats)
    }
    fn export_state(&mut self) -> Vec<StateEntry> {
        self.log("export_state");
        vec![StateEntry { key: vec![Value::Int(1)], payload: Box::new(5u8) }]
    }
    fn import_state(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.log("import_state");
        assert_eq!(entries.len(), 1);
        Ok(())
    }
    fn elastic_stats(&self) -> Option<ElasticStats> {
        Some(ElasticStats { resizes: 3, ..ElasticStats::default() })
    }
    fn restartable(&self) -> bool {
        true
    }
    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        self.log("checkpoint");
        Ok(vec![StateEntry { key: Vec::new(), payload: Box::new(6u8) }])
    }
    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        self.log("restore");
        assert_eq!(entries.len(), 2);
        Ok(())
    }
    fn absorb_shutdown(&mut self, output: usize, _: &mut OperatorContext) -> bool {
        self.log("absorb_shutdown");
        output == 2
    }
    fn fingerprint(&self) -> Option<u64> {
        Some(42)
    }
    fn shared_source(&self) -> Option<&str> {
        Some("shared")
    }
}

#[test]
fn probe_forwards_every_operator_method() {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let mut trace = Trace::new();
    let mut probe =
        Probe::new(Box::new(Fake { calls: calls.clone() }), &mut trace, 0, Watch::default());
    let mut ctx = OperatorContext::new();

    assert_eq!(probe.name(), "fake");
    assert_eq!((probe.inputs(), probe.outputs()), (2, 3));
    assert!(probe.must_connect_all_outputs());
    assert_eq!(probe.feedback_roles(), FeedbackRoles::producer());
    assert!(probe.schema_in(0).is_none() && probe.schema_in(1).is_some());
    assert!(probe.schema_out(1).is_none() && probe.schema_out(2).is_some());
    assert!(probe.restartable());
    assert_eq!(probe.fingerprint(), Some(42));
    assert_eq!(probe.shared_source(), Some("shared"));
    assert_eq!(probe.feedback_stats().map(|s| s.issued.assumed), Some(7));
    assert_eq!(probe.elastic_stats().map(|s| s.resizes), Some(3));

    probe.on_tuple(0, tuple(1), &mut ctx).unwrap();
    let page = Page::from_items(vec![StreamItem::Tuple(tuple(2)), StreamItem::Tuple(tuple(3))]);
    probe.on_page(1, page, &mut ctx).unwrap();
    let punctuation = Punctuation::progress(schema(), "timestamp", Timestamp::EPOCH).unwrap();
    probe.on_punctuation(0, punctuation, &mut ctx).unwrap();
    probe.on_feedback(0, feedback(), &mut ctx).unwrap();
    probe.on_request_results(0, &mut ctx).unwrap();
    probe.on_flush(&mut ctx).unwrap();
    assert_eq!(probe.poll_source(&mut ctx).unwrap(), SourceState::Exhausted);
    assert_eq!(probe.export_state().len(), 1);
    probe.import_state(probe_entries(1)).unwrap();
    assert_eq!(probe.checkpoint().unwrap().len(), 1);
    probe.restore(probe_entries(2)).unwrap();
    assert!(probe.absorb_shutdown(2, &mut ctx));
    assert!(!probe.absorb_shutdown(0, &mut ctx));

    // Everything the operator put in the context is still there, in order.
    let emitted: Vec<usize> = ctx.take_emitted().into_iter().map(|(port, _)| port).collect();
    assert_eq!(emitted, vec![1, 0, 0, 2], "tuple, the page's two tuples, flush");
    let sent: Vec<usize> = ctx.take_feedback().into_iter().map(|(port, _)| port).collect();
    assert_eq!(sent, vec![0, 1], "on_tuple's feedback, then on_feedback's relay");
    assert_eq!(ctx.take_broadcast_feedback().len(), 1);
    assert_eq!(ctx.take_broadcast_punctuations().len(), 1);
    assert_eq!(ctx.take_result_requests(), vec![0]);

    assert_eq!(
        *calls.lock().unwrap(),
        vec![
            "on_tuple",
            "on_page",
            "on_punctuation",
            "on_feedback",
            "on_request_results",
            "on_flush",
            "poll_source",
            "export_state",
            "import_state",
            "checkpoint",
            "restore",
            "absorb_shutdown",
            "absorb_shutdown",
        ]
    );
    let log = trace.named("fake").expect("probed");
    let callbacks: Vec<Callback> = log.spans.iter().map(|s| s.callback).collect();
    assert_eq!(callbacks.len(), 13, "one span per call: {callbacks:?}");
    assert_eq!(log.spans[1].tuples_in, 2, "the page's tuples are counted");
    assert_eq!(log.feedback_sent.len(), 3, "on_tuple, on_page (broadcast), on_feedback");
    assert_eq!(log.feedback_received.len(), 1);
    assert_eq!(log.guards.len(), 1);
}

fn probe_entries(n: usize) -> Vec<StateEntry> {
    (0..n).map(|_| StateEntry { key: Vec::new(), payload: Box::new(0u8) }).collect()
}

/// Every counter of an operator's metrics except the time it was busy.
fn counts(m: &OperatorMetrics) -> impl PartialEq + std::fmt::Debug {
    (
        m.operator.clone(),
        [m.tuples_in, m.tuples_out, m.punctuations_in, m.punctuations_out, m.pages_in, m.pages_out],
        [m.feedback_in, m.feedback_out, m.feedback_dropped, m.sched_steps, m.sched_steals],
        [m.max_queue_depth, m.restarts, m.checkpoints_taken, m.tuples_replayed],
        m.failure.clone(),
        m.feedback.clone(),
        m.elastic.clone(),
    )
}

fn sync_run(workload: &str, probes: Probes) -> RunResult {
    let (job, _) = workloads::generate(workload, &Seeds::derive(7), Size::Test).unwrap();
    job.run(Exec::Sync, probes, 0).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn traced_and_untraced_sync_runs_agree() {
    for workload in ["deep_chain", "keyed_state"] {
        let plain = sync_run(workload, Probes::None);
        let traced = sync_run(workload, Probes::All);
        assert_eq!(plain.outcome.digest, traced.outcome.digest, "{workload}: sink digest");
        let plain_counts: Vec<_> = plain.report.metrics.iter().map(counts).collect();
        let traced_counts: Vec<_> = traced.report.metrics.iter().map(counts).collect();
        assert_eq!(plain_counts, traced_counts, "{workload}: operator metrics");
        let probed = traced.trace.nodes().count();
        assert_eq!(probed, traced.report.metrics.len(), "{workload}: every operator probed");
    }
}

#[test]
fn every_workload_passes_its_checks_on_both_executors() {
    for workload in workloads::NAMES {
        let (job, _) = workloads::generate(workload, &Seeds::derive(3), Size::Test).unwrap();
        for exec in [Exec::Sync, Exec::Pooled(2)] {
            for probes in [Probes::None, Probes::Boundary, Probes::All] {
                let run = job
                    .run(exec, probes, 1)
                    .unwrap_or_else(|e| panic!("{workload} on {exec:?}/{probes:?}: {e}"));
                let timed = !run.outcome.latencies_ms.is_empty();
                assert_eq!(timed, probes != Probes::None, "{workload}/{probes:?}: results timed");
            }
        }
    }
}
