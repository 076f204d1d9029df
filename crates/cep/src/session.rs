//! One session's runtime: shared views → deployed plans → detections.
//!
//! A [`SessionRuntime`] is the single implementation of what a session
//! does with a batch of frames. [`crate::Engine`] wraps one behind a
//! lock; a `gesto-serve` shard owns one per session on its worker
//! thread. It owns the session's [`SharedViews`] (each needed view
//! evaluated once per batch), one [`PlanInstance`] per deployed plan in
//! deployment order, and the retiring (draining) instances of replaced
//! plan versions.
//!
//! # Versioned rollout
//!
//! Deploying a name that is already deployed installs the new version
//! at the next batch boundary. The replaced version retires if it has
//! runs in flight: it keeps completing or expiring them but never seeds
//! again, and is dropped once it has none. While a gesture has retiring
//! versions, its versions step the batch frame by frame, oldest first,
//! and share one completion wave per frame: the newest version's select
//! policy picks from the matches of every version (`first` takes the
//! oldest version's match, `last` the newest's, `all` every match), and
//! under `consume all` a match clears the runs of every version. The
//! old versions hold exactly the runs seeded before the cutover, so
//! redeploying unchanged text detects exactly what not redeploying
//! does.
//!
//! # Threading
//!
//! The runtime is `Send` and has no interior mutability or locks. It
//! has one owner at a time: a shard worker thread, or whoever holds the
//! engine's mutex. Each verb states its contract where it is declared.

use std::sync::Arc;

use gesto_stream::{Catalog, SharedViews, Tuple};

use crate::engine::QueryStats;
use crate::error::CepError;
use crate::pattern::{ConsumePolicy, SelectPolicy};
use crate::plan::{sync_block_columns, Detection, PlanInstance, QueryPlan};

/// The views, plan instances and retiring plan versions of one session.
pub struct SessionRuntime {
    catalog: Arc<Catalog>,
    views: SharedViews,
    /// One slot per deployed plan name, in deployment order.
    slots: Vec<Slot>,
    /// Set by every change to the set of plans (current or retiring);
    /// [`Self::views_mut`] then re-syncs the views before the next batch.
    stale: bool,
}

/// One deployed gesture: its current version and its retiring ones.
struct Slot {
    /// The newest version; the only one that seeds new runs.
    current: PlanInstance,
    /// Replaced versions with runs still in flight, oldest first.
    retiring: Vec<PlanInstance>,
}

impl SessionRuntime {
    /// An empty session over `catalog`: every registered view
    /// instantiated, none evaluated until a deployed plan needs it.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        let views = SharedViews::new(&catalog);
        Self {
            catalog,
            views,
            slots: Vec::new(),
            stale: false,
        }
    }

    /// Deploys `plan`. A new name is installed after the deployed ones;
    /// an existing name is rolled out to `plan` (see the module docs).
    /// Redeploying the `Arc` that is already current is a no-op.
    ///
    /// Fails, changing nothing, with [`CepError::Stream`] when a view the
    /// plan reads is not registered in this session's catalog (e.g. the
    /// plan was compiled against another catalog).
    ///
    /// Threading: owner only (`&mut self`); takes effect at the next
    /// [`Self::step`].
    pub fn deploy(&mut self, plan: Arc<QueryPlan>) -> Result<(), CepError> {
        let slot = self
            .slots
            .iter()
            .position(|s| s.current.name() == plan.name());
        if let Some(i) = slot {
            if Arc::ptr_eq(self.slots[i].current.plan(), &plan) {
                return Ok(());
            }
        }
        if plan.check_views(&self.views).is_err() {
            // Views registered since the session started: instantiate
            // them (existing slots and their state are kept).
            self.views.refresh(&self.catalog);
            plan.check_views(&self.views)?;
        }
        match slot {
            Some(i) => {
                let slot = &mut self.slots[i];
                let mut old = std::mem::replace(&mut slot.current, plan.instantiate());
                if old.active_runs() > 0 {
                    old.set_draining();
                    slot.retiring.push(old);
                }
            }
            None => self.slots.push(Slot {
                current: plan.instantiate(),
                retiring: Vec::new(),
            }),
        }
        self.stale = true;
        Ok(())
    }

    /// Removes the named plan with all its versions and returns the
    /// current one; in-flight runs of every version are discarded.
    ///
    /// Threading: owner only (`&mut self`).
    pub fn undeploy(&mut self, name: &str) -> Result<Arc<QueryPlan>, CepError> {
        let i = self
            .slots
            .iter()
            .position(|s| s.current.name() == name)
            .ok_or_else(|| CepError::UnknownQuery(name.to_owned()))?;
        self.stale = true;
        Ok(self.slots.remove(i).current.plan().clone())
    }

    /// Drops every partial match and every retiring version; the plans
    /// and their detection counters stay.
    ///
    /// Threading: owner only (`&mut self`).
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            slot.current.reset();
            slot.retiring.clear();
        }
        self.stale = true;
    }

    /// The session's views, with exactly the views the deployed and
    /// retiring plans read marked needed, and their block columns
    /// declared. The caller begins every batch here, before
    /// [`Self::step`]: [`SharedViews::begin_batch`], or a prefilled base
    /// block and [`SharedViews::begin_batch_prefilled`].
    ///
    /// Threading: owner only (`&mut self`). Call no other verb between
    /// beginning a batch here and stepping it.
    pub fn views_mut(&mut self) -> &mut SharedViews {
        if self.stale {
            self.sync();
        }
        &mut self.views
    }

    /// Steps the batch begun in [`Self::views_mut`] over the same
    /// `tuples` through every plan, in deployment order, appending
    /// detections to `out`. A gesture with retiring versions steps frame
    /// by frame under the shared-wave rule of the module docs; versions
    /// left with no runs retire here.
    ///
    /// Every plan steps the batch even when one fails; the first error
    /// is returned. A failing plan skips the rest of the batch from the
    /// failing frame on, keeping the detections it completed before it.
    ///
    /// Threading: owner only (`&mut self`).
    pub fn step(
        &mut self,
        stream: &str,
        tuples: &[Tuple],
        out: &mut Vec<Detection>,
    ) -> Result<(), CepError> {
        let mut result = Ok(());
        for slot in &mut self.slots {
            let stepped = if slot.retiring.is_empty() {
                slot.current
                    .push_batch_shared(stream, tuples, &self.views, out)
            } else {
                let stepped = slot.step_versions(stream, tuples, &self.views, out);
                let before = slot.retiring.len();
                slot.retiring.retain(|v| v.active_runs() > 0);
                self.stale |= slot.retiring.len() != before;
                stepped
            };
            result = result.and(stepped);
        }
        result
    }

    /// Approximate heap bytes of the run state of every current and
    /// retiring plan instance (see [`PlanInstance::state_bytes`]).
    ///
    /// Threading: any holder of `&self`; a few loads per plan.
    pub fn state_bytes(&self) -> usize {
        self.instances().map(PlanInstance::state_bytes).sum()
    }

    /// Retiring plan versions, over all gestures.
    ///
    /// Threading: any holder of `&self`; one load per plan.
    pub fn retiring(&self) -> usize {
        self.slots.iter().map(|s| s.retiring.len()).sum()
    }

    /// Statistics of the current version of every deployed plan, in
    /// deployment order. A gesture's detections count every detection
    /// reported since its current version was deployed.
    ///
    /// Threading: any holder of `&self`.
    pub fn stats(&self) -> impl Iterator<Item = QueryStats> + '_ {
        self.slots.iter().map(|s| s.current.stats())
    }

    /// The current plan of every deployed gesture, in deployment order.
    ///
    /// Threading: any holder of `&self`.
    pub fn plans(&self) -> impl Iterator<Item = &Arc<QueryPlan>> {
        self.slots.iter().map(|s| s.current.plan())
    }

    fn instances(&self) -> impl Iterator<Item = &PlanInstance> {
        self.slots.iter().flat_map(Slot::versions)
    }

    /// Marks exactly the views some current or retiring plan reads as
    /// needed (a retiring version keeps its views alive until it is
    /// drained) and declares the float columns their predicates read, so
    /// the per-batch blocks only materialise those lanes.
    fn sync(&mut self) {
        let plans: Vec<&Arc<QueryPlan>> = self
            .slots
            .iter()
            .flat_map(Slot::versions)
            .map(PlanInstance::plan)
            .collect();
        let mut needed: Vec<&str> = Vec::new();
        for view in plans.iter().flat_map(|p| p.routes()).flat_map(|r| &r.views) {
            if !needed.contains(&view.as_str()) {
                needed.push(view);
            }
        }
        self.views.set_needed(needed);
        sync_block_columns(&mut self.views, plans);
        self.stale = false;
    }
}

impl Slot {
    /// Every version, oldest first.
    fn versions(&self) -> impl Iterator<Item = &PlanInstance> {
        self.retiring.iter().chain([&self.current])
    }

    /// Steps every version of the gesture through the batch frame by
    /// frame, oldest first, and applies the newest version's policies to
    /// each frame's wave of matches (see the module docs). Stops after
    /// the first frame on which some version fails.
    fn step_versions(
        &mut self,
        stream: &str,
        tuples: &[Tuple],
        views: &SharedViews,
        out: &mut Vec<Detection>,
    ) -> Result<(), CepError> {
        let (select, consume) = self.current.plan().program().policies();
        for f in 0..tuples.len() {
            let wave = out.len();
            let mut result = Ok(());
            for version in self.retiring.iter_mut().chain([&mut self.current]) {
                result = result.and(version.step(stream, tuples, views, Some(f), out));
            }
            if out.len() > wave {
                match select {
                    SelectPolicy::First => out.truncate(wave + 1),
                    SelectPolicy::Last => drop(out.drain(wave..out.len() - 1)),
                    SelectPolicy::All => {}
                }
                if consume == ConsumePolicy::All {
                    self.current.reset();
                    self.retiring.iter_mut().for_each(PlanInstance::reset);
                }
                self.current.count(out.len() - wave);
            }
            result?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::FunctionRegistry;
    use crate::parser::parse_query;
    use gesto_stream::{SchemaBuilder, SchemaRef, Value};

    fn schema() -> SchemaRef {
        SchemaBuilder::new("k")
            .timestamp("ts")
            .float("x")
            .build()
            .unwrap()
    }

    fn catalog() -> Arc<Catalog> {
        let cat = Arc::new(Catalog::new());
        cat.register_stream(schema()).unwrap();
        cat
    }

    fn compile(cat: &Catalog, text: &str) -> Arc<QueryPlan> {
        let funcs = FunctionRegistry::with_builtins();
        QueryPlan::compile(parse_query(text).unwrap(), cat, &funcs).unwrap()
    }

    fn tup(schema: &SchemaRef, ts: i64, x: f64) -> Tuple {
        Tuple::new(schema.clone(), vec![Value::Timestamp(ts), Value::Float(x)]).unwrap()
    }

    fn push(rt: &mut SessionRuntime, batch: &[Tuple]) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        rt.views_mut().begin_batch("k", batch);
        rt.step("k", batch, &mut out).unwrap();
        out.iter().map(|d| (d.ts, d.started_at)).collect()
    }

    #[test]
    fn redeploying_the_same_text_detects_once() {
        const Q: &str = r#"SELECT "g" MATCHING k(x < 1) -> k(x > 9) within 1 seconds
                           select first consume all;"#;
        let s = schema();
        let run = |redeploy: bool| {
            let cat = catalog();
            let mut rt = SessionRuntime::new(cat.clone());
            rt.deploy(compile(&cat, Q)).unwrap();
            let mut got = push(&mut rt, &[tup(&s, 0, 0.5)]);
            if redeploy {
                rt.deploy(compile(&cat, Q)).unwrap();
                assert_eq!(rt.retiring(), 1, "the run seeded at 0 drains");
            }
            got.extend(push(&mut rt, &[tup(&s, 5, 0.5)]));
            got.extend(push(&mut rt, &[tup(&s, 10, 10.0)]));
            assert_eq!(rt.retiring(), 0, "consume all drained every version");
            got
        };
        assert_eq!(run(false), vec![(10, 0)]);
        assert_eq!(run(true), vec![(10, 0)], "one wave, oldest version's match");
    }

    #[test]
    fn redeploying_the_same_arc_is_a_no_op() {
        let cat = catalog();
        let plan = compile(&cat, r#"SELECT "g" MATCHING k(x < 1) -> k(x > 9);"#);
        let mut rt = SessionRuntime::new(cat);
        rt.deploy(plan.clone()).unwrap();
        push(&mut rt, &[tup(&schema(), 0, 0.5)]);
        rt.deploy(plan).unwrap();
        assert_eq!(rt.retiring(), 0);
        assert_eq!(rt.stats().next().unwrap().active_runs, 1, "runs kept");
    }

    #[test]
    fn undeploy_discards_every_version() {
        let cat = catalog();
        let text = r#"SELECT "g" MATCHING k(x < 1) -> k(x > 9);"#;
        let mut rt = SessionRuntime::new(cat.clone());
        rt.deploy(compile(&cat, text)).unwrap();
        push(&mut rt, &[tup(&schema(), 0, 0.5)]);
        rt.deploy(compile(&cat, text)).unwrap();
        assert_eq!(rt.retiring(), 1);
        assert_eq!(rt.undeploy("g").unwrap().name(), "g");
        assert_eq!(rt.retiring(), 0);
        assert_eq!(rt.plans().count(), 0);
        assert!(matches!(rt.undeploy("g"), Err(CepError::UnknownQuery(_))));
    }

    /// Splitmix64, so the sweep below needs no external crate.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Redeploying unchanged text ≡ no redeploy, over every select and
    /// consume policy, random streams, batch splits and rollout points.
    #[test]
    fn redeploy_of_unchanged_text_equals_no_redeploy() {
        let s = schema();
        let mut detected = 0usize;
        let mut rolled_with_runs = 0usize;
        for seed in 0..60u64 {
            let mut rng = seed;
            let select = ["first", "last", "all"][(seed % 3) as usize];
            let consume = ["all", "none"][(seed / 3 % 2) as usize];
            let text = format!(
                r#"SELECT "g" MATCHING k(x < 30) -> k(abs(x - 50) < 20) -> k(x > 70)
                   within 2 seconds select {select} consume {consume};"#
            );
            let mut ts = 0i64;
            let tuples: Vec<Tuple> = (0..400)
                .map(|_| {
                    ts += (mix(&mut rng) % 200) as i64;
                    tup(&s, ts, (mix(&mut rng) % 100) as f64)
                })
                .collect();
            let cat = catalog();
            let (mut plain, mut rolled) = (
                SessionRuntime::new(cat.clone()),
                SessionRuntime::new(cat.clone()),
            );
            plain.deploy(compile(&cat, &text)).unwrap();
            rolled.deploy(compile(&cat, &text)).unwrap();
            let (mut expect, mut got) = (Vec::new(), Vec::new());
            let mut rest = tuples.as_slice();
            while !rest.is_empty() {
                let n = (1 + mix(&mut rng) % 40) as usize;
                let (batch, tail) = rest.split_at(n.min(rest.len()));
                if mix(&mut rng).is_multiple_of(3) {
                    rolled.deploy(compile(&cat, &text)).unwrap();
                    rolled_with_runs += usize::from(rolled.retiring() > 0);
                }
                expect.extend(push(&mut plain, batch));
                got.extend(push(&mut rolled, batch));
                rest = tail;
            }
            assert_eq!(
                got, expect,
                "seed {seed}: select {select} consume {consume}"
            );
            detected += expect.len();
        }
        assert!(detected > 200, "sweep must detect ({detected})");
        assert!(
            rolled_with_runs > 100,
            "sweep must roll out mid-run ({rolled_with_runs})"
        );
    }

    #[test]
    fn unknown_view_fails_deploy_and_push() {
        let with_view = Catalog::new();
        with_view.register_stream(schema()).unwrap();
        with_view
            .register_view(gesto_stream::ViewDef {
                name: "k_t".into(),
                input: "k".into(),
                schema: schema(),
                factory: Arc::new(|| {
                    Box::new(gesto_stream::ops::MapOp::new(
                        "id",
                        schema(),
                        |t: &Tuple| Some(t.clone()),
                    ))
                }),
            })
            .unwrap();
        let foreign = compile(&with_view, r#"SELECT "v" MATCHING k_t(x > 9);"#);
        let mut rt = SessionRuntime::new(catalog());
        let err = rt.deploy(foreign.clone()).unwrap_err();
        assert!(matches!(err, CepError::Stream(_)), "{err}");
        assert_eq!(rt.plans().count(), 0);
        // A bare instance cannot bind its route either.
        let batch = [tup(&schema(), 0, 10.0)];
        let err = foreign
            .instantiate()
            .push_batch_shared("k", &batch, rt.views_mut(), &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, CepError::Stream(_)), "{err}");
    }
}
