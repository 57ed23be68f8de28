//! Benchmark-owned tracing around the program's operator callbacks.
//!
//! A [`Probe`] wraps one operator of a plan and forwards every [`Operator`]
//! method to it unchanged.  Around each call it records one [`Span`]
//! (callback, start, end, tuples in, items out) into the node's [`NodeLog`],
//! plus the ids of feedback punctuation the callback sent or received.
//! Nothing inside the program is traced: the spans are the benchmark's own
//! view of each call it makes into the operator crates.
//!
//! All logs of one executor call share a [`Trace`], whose run span is the
//! parent of every callback span.  Logs stay in memory and are written out
//! once the run has ended ([`Trace::write_tsv`]).

use dsms_engine::{
    EngineResult, NodeId, Operator, OperatorContext, Page, QueryPlan, SourceState, StateEntry,
};
use dsms_feedback::{FeedbackPunctuation, FeedbackRoles, FeedbackStats};
use dsms_punctuation::Punctuation;
use dsms_types::{SchemaRef, Timestamp, Tuple, Value};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The operator method a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// `poll_source`.
    Poll,
    /// `on_page`.
    Page,
    /// `on_tuple`.
    Tuple,
    /// `on_punctuation`.
    Punctuation,
    /// `on_feedback`.
    Feedback,
    /// `on_request_results`.
    Request,
    /// `on_flush`.
    Flush,
    /// `checkpoint`.
    Checkpoint,
    /// `restore`.
    Restore,
    /// `export_state`.
    Export,
    /// `import_state`.
    Import,
    /// `absorb_shutdown`.
    Absorb,
}

impl Callback {
    /// Short name used in the written trace.
    pub fn label(self) -> &'static str {
        match self {
            Callback::Poll => "poll_source",
            Callback::Page => "on_page",
            Callback::Tuple => "on_tuple",
            Callback::Punctuation => "on_punctuation",
            Callback::Feedback => "on_feedback",
            Callback::Request => "on_request_results",
            Callback::Flush => "on_flush",
            Callback::Checkpoint => "checkpoint",
            Callback::Restore => "restore",
            Callback::Export => "export_state",
            Callback::Import => "import_state",
            Callback::Absorb => "absorb_shutdown",
        }
    }

    /// True for the callbacks that move stream data through the operator.
    pub fn is_data_path(self) -> bool {
        matches!(
            self,
            Callback::Poll
                | Callback::Page
                | Callback::Tuple
                | Callback::Punctuation
                | Callback::Flush
        )
    }
}

/// One operator callback, timed in nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The method called.
    pub callback: Callback,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
    /// Tuples handed to the callback (1 for `on_tuple`, the page's tuple
    /// count for `on_page`, 0 otherwise).
    pub tuples_in: u32,
    /// Stream items the callback emitted.
    pub items_out: u32,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What a probe records beyond spans.
#[derive(Debug, Clone, Default)]
pub struct Watch {
    /// Record `(value, callback start)` for this integer column of every
    /// tuple the operator receives.
    pub id_column: Option<usize>,
    /// Record `(watermark, callback start)` for every progress punctuation on
    /// this attribute the operator receives.
    pub watermark: Option<String>,
    /// Keep a sample of received pages for the layer micro-timings.
    pub sample_pages: bool,
}

/// Everything recorded at one node during one run.
#[derive(Default)]
pub struct NodeLog {
    /// One span per callback, in call order.
    pub spans: Vec<Span>,
    /// `(feedback id, end of the callback that sent it)`.
    pub feedback_sent: Vec<(u64, u64)>,
    /// `(feedback id, start of the on_feedback call that received it)`.
    pub feedback_received: Vec<(u64, u64)>,
    /// Every feedback punctuation received, in arrival order.
    pub guards: Vec<FeedbackPunctuation>,
    /// Sampled input pages (see [`Watch::sample_pages`]).
    pub pages: Vec<Page>,
    /// `(id column value, callback start)` (see [`Watch::id_column`]).
    pub ids: Vec<(i64, u64)>,
    /// `(watermark, callback start)` (see [`Watch::watermark`]).
    pub watermarks: Vec<(Timestamp, u64)>,
    pages_seen: u64,
}

/// Every `PAGE_SAMPLE_EVERY`-th page is sampled, up to `PAGE_SAMPLE_MAX`.
const PAGE_SAMPLE_EVERY: u64 = 16;
const PAGE_SAMPLE_MAX: usize = 256;

static NEXT_RUN_ID: AtomicU64 = AtomicU64::new(1);

/// The logs of one executor call.
pub struct Trace {
    /// Shared by every span of the run.
    pub run_id: u64,
    epoch: Instant,
    nodes: Vec<(String, Arc<Mutex<NodeLog>>)>,
    run_span: Option<(u64, u64)>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// A fresh trace with its own run id; its epoch is now.
    pub fn new() -> Self {
        Trace {
            run_id: NEXT_RUN_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            nodes: Vec::new(),
            run_span: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `run` (the executor call) as the parent span of every callback.
    pub fn run<R>(&mut self, run: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let result = run();
        self.run_span = Some((start, self.now_ns()));
        result
    }

    /// The probed nodes as `(plan node index, operator name, log)`.
    pub fn nodes(&self) -> impl Iterator<Item = (usize, &str, MutexGuard<'_, NodeLog>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, (name, _))| !name.is_empty())
            .map(|(i, (name, log))| (i, name.as_str(), log.lock().expect("probe log poisoned")))
    }

    /// True when at least one node was probed.
    pub fn probed(&self) -> bool {
        self.nodes.iter().any(|(name, _)| !name.is_empty())
    }

    /// The log of the probed operator called `name`.
    pub fn named(&self, name: &str) -> Option<MutexGuard<'_, NodeLog>> {
        self.nodes().find(|(_, n, _)| *n == name).map(|(_, _, log)| log)
    }

    /// The run span's self time: its duration minus the part of it that
    /// callback spans cover (on several workers, their union).
    pub fn run_self_ns(&self) -> u64 {
        let Some((start, end)) = self.run_span else { return 0 };
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for (_, _, log) in self.nodes() {
            intervals.extend(log.spans.iter().map(|s| (s.start_ns, s.end_ns)));
        }
        intervals.sort_unstable();
        let mut covered = 0;
        let mut current: Option<(u64, u64)> = None;
        for (s, e) in intervals {
            let (s, e) = (s.clamp(start, end), e.clamp(start, end));
            match current {
                Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    current = Some((s, e));
                }
                None => current = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = current {
            covered += ce - cs;
        }
        (end - start).saturating_sub(covered)
    }

    /// Writes the run span and every callback span as tab-separated rows:
    /// `run_id span_id parent_id node operator callback start_ns end_ns
    /// tuples_in items_out`.  The run span has id 0 and no parent.
    pub fn write_tsv(&self, out: &mut impl Write, label: &str) -> std::io::Result<()> {
        writeln!(out, "# {label}")?;
        writeln!(
            out,
            "run_id\tspan_id\tparent_id\tnode\toperator\tcallback\tstart_ns\tend_ns\ttuples_in\titems_out"
        )?;
        if let Some((start, end)) = self.run_span {
            writeln!(out, "{}\t0\t-\t-\t-\texecutor\t{start}\t{end}\t0\t0", self.run_id)?;
        }
        let mut span_id = 1u64;
        for (node, name, log) in self.nodes() {
            for s in &log.spans {
                writeln!(
                    out,
                    "{}\t{span_id}\t0\t{node}\t{name}\t{}\t{}\t{}\t{}\t{}",
                    self.run_id,
                    s.callback.label(),
                    s.start_ns,
                    s.end_ns,
                    s.tuples_in,
                    s.items_out
                )?;
                span_id += 1;
            }
        }
        Ok(())
    }
}

/// A transparent operator wrapper that records a span per callback.
pub struct Probe {
    inner: Box<dyn Operator>,
    epoch: Instant,
    log: Arc<Mutex<NodeLog>>,
    watch: Watch,
}

impl Probe {
    /// Wraps `inner`, recording into a new log of `trace` at `index`.
    pub fn new(inner: Box<dyn Operator>, trace: &mut Trace, index: usize, watch: Watch) -> Self {
        let log = Arc::new(Mutex::new(NodeLog::default()));
        if trace.nodes.len() <= index {
            trace.nodes.resize_with(index + 1, || (String::new(), Arc::default()));
        }
        trace.nodes[index] = (inner.name().to_string(), log.clone());
        Probe { inner, epoch: trace.epoch, log, watch }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn log(&self) -> MutexGuard<'_, NodeLog> {
        self.log.lock().expect("probe log poisoned")
    }

    /// Runs one data-path or control callback under a span, noting the
    /// feedback it sent.  Feedback is taken out of the context around the
    /// call and put back in the same order, so routing is unchanged and
    /// feedback an earlier callback left in the context is not counted again.
    fn traced<R>(
        &mut self,
        callback: Callback,
        tuples_in: usize,
        ctx: &mut OperatorContext,
        call: impl FnOnce(&mut dyn Operator, &mut OperatorContext) -> R,
    ) -> R {
        let prior = ctx.take_feedback();
        let prior_broadcast = ctx.take_broadcast_feedback();
        let before = ctx.emitted_len();
        let start_ns = self.now_ns();
        let result = call(self.inner.as_mut(), ctx);
        let end_ns = self.now_ns();
        let items_out = ctx.emitted_len().saturating_sub(before);
        let sent = ctx.take_feedback();
        let broadcast = ctx.take_broadcast_feedback();
        let mut log = self.log();
        log.spans.push(Span {
            callback,
            start_ns,
            end_ns,
            tuples_in: tuples_in as u32,
            items_out: items_out as u32,
        });
        for (port, feedback) in prior {
            ctx.send_feedback(port, feedback);
        }
        for (port, feedback) in sent {
            log.feedback_sent.push((feedback.id(), end_ns));
            ctx.send_feedback(port, feedback);
        }
        for feedback in prior_broadcast {
            ctx.broadcast_feedback(feedback);
        }
        for feedback in broadcast {
            log.feedback_sent.push((feedback.id(), end_ns));
            ctx.broadcast_feedback(feedback);
        }
        result
    }

    /// Records the per-input observations [`Watch`] asks for.
    fn observe_input(&self, tuples: &[Tuple], punctuations: &[&Punctuation]) {
        if self.watch.id_column.is_none() && self.watch.watermark.is_none() {
            return;
        }
        let at = self.now_ns();
        let mut log = self.log();
        if let Some(column) = self.watch.id_column {
            for tuple in tuples {
                if let Some(Value::Int(id)) = tuple.values().get(column) {
                    log.ids.push((*id, at));
                }
            }
        }
        if let Some(attribute) = &self.watch.watermark {
            for punctuation in punctuations {
                if let Some(w) = punctuation.watermark_for(attribute) {
                    log.watermarks.push((w, at));
                }
            }
        }
    }
}

impl Operator for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn inputs(&self) -> usize {
        self.inner.inputs()
    }

    fn outputs(&self) -> usize {
        self.inner.outputs()
    }

    fn must_connect_all_outputs(&self) -> bool {
        self.inner.must_connect_all_outputs()
    }

    fn feedback_roles(&self) -> FeedbackRoles {
        self.inner.feedback_roles()
    }

    fn schema_in(&self, input: usize) -> Option<SchemaRef> {
        self.inner.schema_in(input)
    }

    fn schema_out(&self, output: usize) -> Option<SchemaRef> {
        self.inner.schema_out(output)
    }

    fn on_tuple(
        &mut self,
        input: usize,
        tuple: Tuple,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.observe_input(std::slice::from_ref(&tuple), &[]);
        self.traced(Callback::Tuple, 1, ctx, |op, ctx| op.on_tuple(input, tuple, ctx))
    }

    fn on_page(&mut self, input: usize, page: Page, ctx: &mut OperatorContext) -> EngineResult<()> {
        let punctuations: Vec<&Punctuation> =
            if self.watch.watermark.is_some() { page.punctuations().collect() } else { Vec::new() };
        self.observe_input(page.tuples(), &punctuations);
        drop(punctuations);
        if self.watch.sample_pages {
            let mut log = self.log();
            if log.pages_seen.is_multiple_of(PAGE_SAMPLE_EVERY) && log.pages.len() < PAGE_SAMPLE_MAX
            {
                log.pages.push(page.clone());
            }
            log.pages_seen += 1;
        }
        let tuples = page.tuple_count();
        self.traced(Callback::Page, tuples, ctx, |op, ctx| op.on_page(input, page, ctx))
    }

    fn on_punctuation(
        &mut self,
        input: usize,
        punctuation: Punctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        self.observe_input(&[], &[&punctuation]);
        self.traced(Callback::Punctuation, 0, ctx, |op, ctx| {
            op.on_punctuation(input, punctuation, ctx)
        })
    }

    fn on_feedback(
        &mut self,
        output: usize,
        feedback: FeedbackPunctuation,
        ctx: &mut OperatorContext,
    ) -> EngineResult<()> {
        let at = self.now_ns();
        {
            let mut log = self.log();
            log.feedback_received.push((feedback.id(), at));
            log.guards.push(feedback.clone());
        }
        self.traced(Callback::Feedback, 0, ctx, |op, ctx| op.on_feedback(output, feedback, ctx))
    }

    fn on_request_results(&mut self, output: usize, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.traced(Callback::Request, 0, ctx, |op, ctx| op.on_request_results(output, ctx))
    }

    fn on_flush(&mut self, ctx: &mut OperatorContext) -> EngineResult<()> {
        self.traced(Callback::Flush, 0, ctx, |op, ctx| op.on_flush(ctx))
    }

    fn poll_source(&mut self, ctx: &mut OperatorContext) -> EngineResult<SourceState> {
        self.traced(Callback::Poll, 0, ctx, |op, ctx| op.poll_source(ctx))
    }

    fn feedback_stats(&self) -> Option<FeedbackStats> {
        self.inner.feedback_stats()
    }

    fn export_state(&mut self) -> Vec<StateEntry> {
        let start_ns = self.now_ns();
        let entries = self.inner.export_state();
        self.push_span(Callback::Export, start_ns);
        entries
    }

    fn import_state(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        let start_ns = self.now_ns();
        let result = self.inner.import_state(entries);
        self.push_span(Callback::Import, start_ns);
        result
    }

    fn elastic_stats(&self) -> Option<dsms_engine::ElasticStats> {
        self.inner.elastic_stats()
    }

    fn restartable(&self) -> bool {
        self.inner.restartable()
    }

    fn checkpoint(&self) -> EngineResult<Vec<StateEntry>> {
        let start_ns = self.now_ns();
        let result = self.inner.checkpoint();
        self.push_span(Callback::Checkpoint, start_ns);
        result
    }

    fn restore(&mut self, entries: Vec<StateEntry>) -> EngineResult<()> {
        let start_ns = self.now_ns();
        let result = self.inner.restore(entries);
        self.push_span(Callback::Restore, start_ns);
        result
    }

    fn absorb_shutdown(&mut self, output: usize, ctx: &mut OperatorContext) -> bool {
        self.traced(Callback::Absorb, 0, ctx, |op, ctx| op.absorb_shutdown(output, ctx))
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }

    fn shared_source(&self) -> Option<&str> {
        self.inner.shared_source()
    }
}

impl Probe {
    fn push_span(&self, callback: Callback, start_ns: u64) {
        let end_ns = self.now_ns();
        self.log().spans.push(Span { callback, start_ns, end_ns, tuples_in: 0, items_out: 0 });
    }
}

/// Rebuilds `plan` node by node, letting `replace` swap any operator (by
/// node index and name) while keeping edges, capacities, pool size, pins,
/// recovery policies, quarantine flags and the checkpoint interval.
pub fn rebuild(
    plan: QueryPlan,
    mut replace: impl FnMut(usize, Box<dyn Operator>) -> EngineResult<Box<dyn Operator>>,
) -> EngineResult<QueryPlan> {
    let checkpoint_interval = plan.checkpoint_interval();
    let ids: Vec<NodeId> = plan.topological_order();
    let mut pins = vec![None; ids.len()];
    for id in &ids {
        pins[id.index()] = plan.worker_pin(*id);
    }
    let parts = plan.into_parts();
    let mut rebuilt = QueryPlan::new()
        .with_page_capacity(parts.page_capacity)
        .with_queue_capacity(parts.queue_capacity)
        .with_checkpoint_interval(checkpoint_interval);
    if let Some(workers) = parts.pool_size {
        rebuilt = rebuilt.with_worker_pool(workers);
    }
    let mut new_ids = Vec::with_capacity(parts.nodes.len());
    for (index, node) in parts.nodes.into_iter().enumerate() {
        new_ids.push(rebuilt.add_boxed(replace(index, node.operator)?));
    }
    for edge in &parts.edges {
        rebuilt.connect(
            new_ids[edge.from.index()],
            edge.from_port,
            new_ids[edge.to.index()],
            edge.to_port,
        )?;
    }
    for (index, id) in new_ids.iter().enumerate() {
        rebuilt.set_recovery(*id, parts.recovery[index])?;
        rebuilt.set_quarantine(*id, parts.quarantine[index])?;
        if let Some(worker) = pins[index] {
            rebuilt.pin_to_worker(*id, worker)?;
        }
    }
    Ok(rebuilt)
}

/// Which nodes of a plan get a [`Probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probes {
    /// No node: the plan runs as built.
    None,
    /// Only the sources and sinks, whose spans time end-to-end results.
    Boundary,
    /// Every operator: the traced run.
    All,
}

/// Wraps the nodes `probes` selects, choosing each probe's [`Watch`] with
/// `watch(node index, operator)`.
pub fn instrument(
    plan: QueryPlan,
    probes: Probes,
    trace: &mut Trace,
    mut watch: impl FnMut(usize, &dyn Operator) -> Watch,
) -> EngineResult<QueryPlan> {
    rebuild(plan, |index, op| {
        let boundary = op.inputs() == 0 || op.outputs() == 0;
        Ok(if probes == Probes::All || (probes == Probes::Boundary && boundary) {
            let mut w = watch(index, op.as_ref());
            w.sample_pages |= probes == Probes::All;
            Box::new(Probe::new(op, trace, index, w))
        } else {
            op
        })
    })
}

/// Converts a nanosecond count to milliseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    Duration::from_nanos(ns).as_secs_f64() * 1e3
}
