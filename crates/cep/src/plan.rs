//! Shared compiled query plans.
//!
//! The paper's engine compiles a query when it is deployed; in a
//! multi-tenant runtime thousands of sessions run the *same* gestures, so
//! compiling per session would dominate. A [`QueryPlan`] is the
//! compile-once artefact — the parsed [`Query`], its [`NfaProgram`] and
//! the resolved view-chain routes — shared via `Arc` across any number of
//! engines or server shards. [`QueryPlan::instantiate`] stamps out the
//! cheap per-session state (fresh view operators + an empty run set).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gesto_stream::{Catalog, ColumnBlock, SharedViews, StreamError, Tuple, ViewFactory};

use crate::engine::QueryStats;
use crate::error::CepError;
use crate::expr::FunctionRegistry;
use crate::nfa::{MatchScratch, Nfa, NfaProgram};
use crate::pattern::Query;

/// Plans compiled process-wide (monotone). Lets scale experiments assert
/// the compile-once invariant: deploying one gesture to N sessions must
/// bump this by 1, not N.
static COMPILED_PLANS: AtomicU64 = AtomicU64::new(0);

/// Total [`QueryPlan`]s compiled by this process so far.
pub fn compiled_plan_count() -> u64 {
    COMPILED_PLANS.load(Ordering::Relaxed)
}

/// One source of a query and how to reach it from its base stream: the
/// chain of views between them, outermost last.
pub struct RouteSpec {
    /// Source name as written in the query (stream or view).
    pub source: String,
    /// Base stream the source resolves to.
    pub base: String,
    /// View operator factories, base→source order: what a private,
    /// per-route operator chain would instantiate.
    pub factories: Vec<ViewFactory>,
    /// Names of the views in `factories`, base→source order. The data
    /// path resolves these to the session's [`SharedViews`] slots.
    pub views: Vec<String>,
}

/// A compiled, immutable, shareable query plan.
pub struct QueryPlan {
    query: Query,
    program: Arc<NfaProgram>,
    routes: Vec<RouteSpec>,
}

impl QueryPlan {
    /// Compiles `query` against `catalog`/`funcs`. This is the expensive
    /// step (schema resolution, predicate compilation, route resolution);
    /// share the returned `Arc` instead of calling this per session.
    pub fn compile(
        query: Query,
        catalog: &Catalog,
        funcs: &FunctionRegistry,
    ) -> Result<Arc<Self>, CepError> {
        let program = Arc::new(NfaProgram::compile(&query.pattern, catalog, funcs)?);
        let mut routes = Vec::new();
        for source in query.pattern.sources() {
            let (base, views) = catalog.resolve(source)?;
            routes.push(RouteSpec {
                source: source.to_owned(),
                base,
                factories: views.iter().map(|v| v.factory.clone()).collect(),
                views: views.iter().map(|v| v.name.clone()).collect(),
            });
        }
        COMPILED_PLANS.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::new(Self {
            query,
            program,
            routes,
        }))
    }

    /// Query (gesture) name.
    pub fn name(&self) -> &str {
        &self.query.name
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The compiled NFA program.
    pub fn program(&self) -> &Arc<NfaProgram> {
        &self.program
    }

    /// The resolved routes.
    pub fn routes(&self) -> &[RouteSpec] {
        &self.routes
    }

    /// Stamps out fresh per-session runtime state over this shared plan:
    /// an empty NFA run set. Cheap — no parsing, compilation or catalog
    /// lookups.
    pub fn instantiate(self: &Arc<Self>) -> PlanInstance {
        PlanInstance {
            plan: Arc::clone(self),
            bindings: None,
            nfa: Nfa::instantiate(Arc::clone(&self.program)),
            scratch: MatchScratch::new(),
            detections: 0,
        }
    }
}

/// A completed match of one deployed query: the "result tuple … which
/// can be used to trigger arbitrary actions in any listening
/// application" of the paper's §2.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Gesture (query) name.
    pub gesture: String,
    /// Completion stream time.
    pub ts: i64,
    /// Stream time of the first matched event.
    pub started_at: i64,
    /// The matched event tuples, one per pattern step. Shared: cloning a
    /// detection (e.g. fanning it out to several sinks) bumps one
    /// refcount instead of deep-copying the events; call
    /// [`Self::events_vec`] to materialise an owned copy at the facade
    /// boundary.
    pub events: Arc<[Tuple]>,
}

impl Detection {
    /// Duration of the gesture in stream milliseconds.
    pub fn duration_ms(&self) -> i64 {
        self.ts - self.started_at
    }

    /// Materialises an owned copy of the matched event tuples (the
    /// internal storage is shared).
    pub fn events_vec(&self) -> Vec<Tuple> {
        self.events.to_vec()
    }
}

/// Per-session runtime state of one deployed [`QueryPlan`]: NFA run
/// state and a detection counter. View outputs come from the session's
/// [`SharedViews`], evaluated once per batch for every plan.
pub struct PlanInstance {
    plan: Arc<QueryPlan>,
    /// Per route, the [`SharedViews`] slot of its outermost view (`None`
    /// when the route reads the base stream itself). Resolved once on
    /// the first push; slots are stable, as [`SharedViews`] only ever
    /// appends.
    bindings: Option<Vec<Option<usize>>>,
    nfa: Nfa,
    /// Reusable match output of the batched NFA core: the steady-state
    /// no-match path allocates nothing.
    scratch: MatchScratch,
    detections: u64,
}

impl PlanInstance {
    /// The shared plan this instance runs.
    pub fn plan(&self) -> &Arc<QueryPlan> {
        &self.plan
    }

    /// Query (gesture) name.
    pub fn name(&self) -> &str {
        self.plan.name()
    }

    /// Detections produced by this instance so far.
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// Drops all partial matches.
    pub fn reset(&mut self) {
        self.nfa.reset();
    }

    /// Switches the instance into draining mode: pushed tuples still
    /// advance and complete existing partial matches but never seed new
    /// ones (the retiring half of a versioned rollout).
    pub(crate) fn set_draining(&mut self) {
        self.nfa.stop_seeding();
    }

    /// Live partial matches (cheap accessor for drain polling).
    pub fn active_runs(&self) -> usize {
        self.nfa.active_runs()
    }

    /// Approximate heap footprint of this instance's run state (see
    /// [`crate::NfaRuntime::state_bytes`]). Serving admission control
    /// charges this against the per-shard memory budget.
    pub fn state_bytes(&self) -> usize {
        self.nfa.state_bytes()
    }

    /// Runtime statistics in the engine's [`QueryStats`] shape.
    pub fn stats(&self) -> QueryStats {
        QueryStats {
            name: self.plan.name().to_owned(),
            detections: self.detections,
            active_runs: self.nfa.active_runs(),
            shed_runs: self.nfa.shed_runs(),
            steps: self.nfa.step_count(),
        }
    }

    /// Pushes a whole batch of base-stream tuples, stepping the NFA
    /// **batch-at-a-time**: `views` must have been prepared with
    /// [`SharedViews::begin_batch`] over the same `tuples`, and be the
    /// same (per-session) `views` on every call. View outputs come from
    /// `views`, so N deployed plans share one transformation.
    ///
    /// Single-source plans (every learned gesture) advance their run set
    /// over the entire batch in one call — the run-set scan, source
    /// routing and time-constraint checks are hoisted out of the
    /// per-tuple loop, and a batch with no completed match allocates
    /// nothing. Multi-source plans fall back to frame-at-a-time stepping
    /// to preserve the cross-source interleaving of events.
    ///
    /// Fails with [`CepError::Stream`] if a route's view is unknown to
    /// `views`, and with the NFA's error at the first tuple a predicate
    /// fails to evaluate on (the rest of the batch is then skipped;
    /// detections completed before it are still appended).
    pub fn push_batch_shared(
        &mut self,
        stream: &str,
        tuples: &[Tuple],
        views: &SharedViews,
        out: &mut Vec<Detection>,
    ) -> Result<(), CepError> {
        let before = out.len();
        let result = if self.plan.routes.len() == 1 {
            // Whole-batch fast path: one route means every step reads
            // the same source, so batch order == interleaved order.
            self.step(stream, tuples, views, None, out)
        } else {
            (0..tuples.len()).try_for_each(|f| self.step(stream, tuples, views, Some(f), out))
        };
        self.count(out.len() - before);
        result
    }

    /// Adds `n` to the detection counter (the session runtime counts a
    /// rollout's completion wave after its select policy ran).
    pub(crate) fn count(&mut self, n: usize) {
        self.detections += n as u64;
    }

    /// Stepping core; appends detections without counting them. With
    /// `frame: None` every route consumes the whole batch (callers
    /// guarantee this is order-equivalent, i.e. a single route); with
    /// `frame: Some(f)` only frame `f`'s slice of the batch is consumed.
    pub(crate) fn step(
        &mut self,
        stream: &str,
        tuples: &[Tuple],
        views: &SharedViews,
        frame: Option<usize>,
        out: &mut Vec<Detection>,
    ) -> Result<(), CepError> {
        let Self {
            plan,
            bindings,
            nfa,
            scratch,
            ..
        } = self;
        let bindings = match bindings {
            Some(b) => b,
            None => bindings.insert(plan.bindings(views)?),
        };
        for (route, binding) in plan.routes.iter().zip(bindings.iter()) {
            if route.base != stream {
                continue;
            }
            // Whole-batch stepping reads the columnar blocks built by
            // `begin_batch` (the NFA's predicate pre-pass runs over
            // their float lanes); per-frame stepping stays scalar.
            let (batch, block) = match (binding, frame) {
                (None, None) => (tuples, views.base_block()),
                (None, Some(f)) => (&tuples[f..f + 1], None),
                (Some(slot), None) => (views.outputs(*slot), views.view_block(*slot)),
                (Some(slot), Some(f)) => (views.frame_outputs(*slot, f), None),
            };
            advance_batch(
                nfa,
                scratch,
                &plan.query.name,
                &route.source,
                batch,
                block,
                out,
            )?;
        }
        Ok(())
    }
}

impl QueryPlan {
    /// Resolves every route to the slot of its outermost view in `views`
    /// (`None` for a route over the base stream); fails if a view some
    /// route needs is not instantiated there.
    fn bindings(&self, views: &SharedViews) -> Result<Vec<Option<usize>>, CepError> {
        self.check_views(views)?;
        Ok(self
            .routes
            .iter()
            .map(|r| r.views.last().and_then(|v| views.slot_of(v)))
            .collect())
    }

    /// Fails with [`CepError::Stream`] naming the first view some route
    /// needs that `views` has not instantiated (e.g. a plan compiled
    /// against a different catalog).
    pub(crate) fn check_views(&self, views: &SharedViews) -> Result<(), CepError> {
        match self
            .routes
            .iter()
            .flat_map(|r| &r.views)
            .find(|v| views.slot_of(v).is_none())
        {
            Some(v) => Err(CepError::Stream(StreamError::UnknownStream(v.clone()))),
            None => Ok(()),
        }
    }
}

/// Declares, per deployed plan, which float columns the NFA block
/// kernels read from each shared view's block (and from the base-stream
/// block), so [`SharedViews`] materialises exactly those lanes per
/// batch instead of the full joint block. Called by the engine/server
/// deploy syncs, after `set_needed`; purely an optimisation — a lane
/// outside the declared set reads back as absent and the kernels fall
/// back to the scalar path, so a stale declaration can cost speed but
/// never correctness.
pub fn sync_block_columns<'a>(
    views: &mut SharedViews,
    plans: impl IntoIterator<Item = &'a Arc<QueryPlan>>,
) {
    views.clear_block_columns();
    for plan in plans {
        for route in plan.routes() {
            let cols = plan.program().columns_read(&route.source);
            match route.views.last() {
                None => views.add_base_block_columns(&cols),
                Some(outermost) => views.add_view_block_columns(outermost, &cols),
            }
        }
    }
}

/// Steps the NFA over a batch and converts any completed matches into
/// [`Detection`]s. Every plan-level path funnels through this one call,
/// so there is exactly one stepping implementation; the no-match steady
/// state touches the reusable `scratch` only (no allocation). `block`,
/// when present, is the columnar view of `tuples` enabling the NFA's
/// vectorized predicate pre-pass.
fn advance_batch(
    nfa: &mut Nfa,
    scratch: &mut MatchScratch,
    gesture: &str,
    source: &str,
    tuples: &[Tuple],
    block: Option<&ColumnBlock>,
    out: &mut Vec<Detection>,
) -> Result<(), CepError> {
    if tuples.is_empty() {
        return Ok(());
    }
    // Drain the scratch even when stepping errors mid-batch: matches
    // completed by earlier tuples of the batch are still delivered
    // (exactly like per-tuple stepping), and a stale scratch
    // can never leak duplicates into a later call.
    let result = nfa.advance_block_into(source, tuples, block, scratch);
    if !scratch.is_empty() {
        for m in scratch.matches() {
            out.push(Detection {
                gesture: gesture.to_owned(),
                ts: m.ts,
                started_at: m.started_at,
                events: m.events.iter().cloned().collect(),
            });
        }
        scratch.clear();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use gesto_stream::{SchemaBuilder, SchemaRef, Value};

    fn schema() -> SchemaRef {
        SchemaBuilder::new("kinect")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap()
    }

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.register_stream(schema()).unwrap();
        cat
    }

    fn tup(ts: i64, x: f64) -> Tuple {
        Tuple::new(schema(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
    }

    fn plan(cat: &Catalog, text: &str) -> Arc<QueryPlan> {
        let funcs = FunctionRegistry::with_builtins();
        QueryPlan::compile(parse_query(text).unwrap(), cat, &funcs).unwrap()
    }

    /// Pushes one tuple through `inst` on the shared data path.
    fn push(inst: &mut PlanInstance, views: &mut SharedViews, t: Tuple, out: &mut Vec<Detection>) {
        let batch = [t];
        views.begin_batch("kinect", &batch);
        inst.push_batch_shared("kinect", &batch, views, out)
            .unwrap();
    }

    #[test]
    fn one_plan_many_independent_instances() {
        let cat = catalog();
        let plan = plan(
            &cat,
            r#"SELECT "g" MATCHING kinect(x < 1) -> kinect(x > 9);"#,
        );
        let mut a = plan.instantiate();
        let mut b = plan.instantiate();
        // Instantiation shares, never recompiles: both instances point at
        // the very same plan and program allocations. (The process-global
        // compiled_plan_count() is asserted in single-threaded binaries —
        // exp_c7_throughput — where no parallel test can perturb it.)
        assert!(Arc::ptr_eq(a.plan(), &plan), "instance a shares the plan");
        assert!(Arc::ptr_eq(b.plan(), &plan), "instance b shares the plan");
        assert!(
            Arc::ptr_eq(a.plan().program(), plan.program()),
            "NFA program is shared, not recompiled"
        );

        // Session a is half-way through the pattern; session b saw nothing.
        let (mut va, mut vb) = (SharedViews::new(&cat), SharedViews::new(&cat));
        let mut out = Vec::new();
        push(&mut a, &mut va, tup(0, 0.5), &mut out);
        assert_eq!(a.stats().active_runs, 1);
        assert_eq!(b.stats().active_runs, 0, "run state is per instance");

        // Completing in a does not fire in b.
        push(&mut a, &mut va, tup(10, 10.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].gesture, "g");
        assert_eq!(a.detections(), 1);
        push(&mut b, &mut vb, tup(10, 10.0), &mut out);
        assert_eq!(b.detections(), 0, "b never saw the first step");
    }

    #[test]
    fn instance_reset_drops_runs() {
        let cat = catalog();
        let mut i = plan(
            &cat,
            r#"SELECT "g" MATCHING kinect(x < 1) -> kinect(x > 9);"#,
        )
        .instantiate();
        let mut views = SharedViews::new(&cat);
        let mut out = Vec::new();
        push(&mut i, &mut views, tup(0, 0.5), &mut out);
        assert_eq!(i.stats().active_runs, 1);
        i.reset();
        assert_eq!(i.stats().active_runs, 0);
    }

    #[test]
    fn draining_completes_but_never_seeds() {
        let cat = catalog();
        let mut i = plan(
            &cat,
            r#"SELECT "g" MATCHING kinect(x < 1) -> kinect(x > 9);"#,
        )
        .instantiate();
        let mut views = SharedViews::new(&cat);
        let mut out = Vec::new();

        // One in-flight run, then switch to draining.
        push(&mut i, &mut views, tup(0, 0.5), &mut out);
        assert_eq!(i.active_runs(), 1);
        i.set_draining();

        // A seed-step tuple no longer starts a run…
        push(&mut i, &mut views, tup(5, 0.5), &mut out);
        assert_eq!(i.active_runs(), 1, "draining must not seed new runs");

        // …but the in-flight run still completes.
        push(&mut i, &mut views, tup(10, 10.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(i.active_runs(), 0, "drained");

        // Fully inert now.
        push(&mut i, &mut views, tup(20, 0.5), &mut out);
        push(&mut i, &mut views, tup(30, 10.0), &mut out);
        assert_eq!(out.len(), 1);
    }
}
