//! The single-threaded replay: the reference for the correctness gate
//! and, when traced, the source of the per-layer nanoseconds.
//!
//! A replayed session is stepped through the layers' public functions
//! in the same order as the shard worker's `process`:
//! `KinectSlots::tuple` → `SharedViews::fill_base_with` +
//! `KinectSlots::write_block` (when the base block is wanted) →
//! `SharedViews::begin_batch[_prefilled]` →
//! `PlanInstance::push_batch_shared`, with the shard's per-batch
//! scalar-vs-columnar choice taken from the shipped `ServerConfig`.
//! Sessions are independent, so the untraced replay spreads them over
//! threads; each session is still replayed by one thread, in order.

use std::sync::Arc;
use std::time::Instant;

use gesto_cep::{Detection, FunctionRegistry, PlanInstance, Query, QueryPlan};
use gesto_kinect::{kinect_schema, KinectSlots, KINECT_STREAM};
use gesto_serve::ServerConfig;
use gesto_stream::{BoxedOperator, Catalog, SchemaRef, SharedViews, Tuple};
use gesto_transform::{register_rpy, standard_catalog, KINECT_T};

use crate::gen::Lap;

/// One detection as the gate compares it: (gesture, ts, started_at).
pub type Det = (String, i64, i64);

/// The deployed plans, compiled against a fresh standard catalog (the
/// same catalog and function set a server starts with).
pub struct Plans {
    pub catalog: Arc<Catalog>,
    pub plans: Vec<Arc<QueryPlan>>,
    /// `QueryPlan::compile` wall time per plan, in milliseconds.
    pub compile_ms: Vec<f64>,
}

impl Plans {
    pub fn compile(queries: &[Query]) -> Plans {
        let catalog = standard_catalog();
        let funcs = FunctionRegistry::with_builtins();
        register_rpy(&funcs);
        let mut plans = Vec::with_capacity(queries.len());
        let mut compile_ms = Vec::with_capacity(queries.len());
        for q in queries {
            let t0 = Instant::now();
            let plan = QueryPlan::compile(q.clone(), &catalog, &funcs)
                .expect("learned queries compile against the standard catalog");
            compile_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            plans.push(plan);
        }
        Plans {
            catalog,
            plans,
            compile_ms,
        }
    }
}

/// Nanoseconds spent in each layer call, summed over a replay.
#[derive(Default, Clone, Debug)]
pub struct LayerNs {
    pub frames: u64,
    pub batches: u64,
    /// `KinectSlots::tuple` over the batch.
    pub tuple: u64,
    /// `fill_base_with` + `write_block` (0 when the base block is not
    /// wanted).
    pub block: u64,
    /// `begin_batch[_prefilled]` (includes the `kinect_t` view).
    pub views: u64,
    /// A separate `kinect_t` operator stepped over the same tuples.
    pub kinect_t: u64,
    /// `push_batch_shared` over every deployed plan.
    pub nfa: u64,
    /// Making the input frames (the generator's work, not a layer).
    pub input: u64,
    /// Whole replay, start to end.
    pub wall: u64,
    /// `PlanInstance::state_bytes` summed over sessions at the end.
    pub state_bytes: u64,
}

/// What a run sent on one session: the first `batches` batches of its
/// endless stream.
pub struct Sent<'a> {
    pub lap: &'a Lap,
    pub batches: u64,
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One replayed session, built like the shard's `SessionRuntime`.
struct Session<'a> {
    sent: &'a Sent<'a>,
    views: SharedViews,
    instances: Vec<PlanInstance>,
    /// The traced run's separate `kinect_t` operator.
    probe: Option<BoxedOperator>,
    dets: Vec<Det>,
}

/// What every session shares: the shipped data-path settings, the
/// ingest schema and per-batch scratch.
struct Shared {
    config: ServerConfig,
    schema: SchemaRef,
    slots: KinectSlots,
    batch: usize,
    tuples: Vec<Tuple>,
    detections: Vec<Detection>,
}

impl Shared {
    fn new(batch: usize) -> Shared {
        let schema = kinect_schema();
        let slots = KinectSlots::resolve(&schema, "");
        Shared {
            config: ServerConfig::default(),
            schema,
            slots,
            batch,
            tuples: Vec::with_capacity(batch),
            detections: Vec::new(),
        }
    }
}

impl<'a> Session<'a> {
    fn new(plans: &Plans, sent: &'a Sent<'a>, columnar: bool, traced: bool) -> Session<'a> {
        let mut views = SharedViews::new(&plans.catalog);
        views.set_columnar(columnar);
        let mut needed: Vec<&str> = Vec::new();
        for plan in &plans.plans {
            for route in plan.routes() {
                for v in &route.views {
                    if !needed.contains(&v.as_str()) {
                        needed.push(v);
                    }
                }
            }
        }
        views.set_needed(needed);
        gesto_cep::sync_block_columns(&mut views, &plans.plans);
        let probe = traced.then(|| {
            let def = plans
                .catalog
                .view(KINECT_T)
                .expect("kinect_t is registered");
            (def.factory)()
        });
        Session {
            sent,
            views,
            instances: plans.plans.iter().map(|p| p.instantiate()).collect(),
            probe,
            dets: Vec::new(),
        }
    }

    /// Steps batch `b` through the layers; with `layers`, times every
    /// layer call.
    fn step(&mut self, b: u64, sh: &mut Shared, mut layers: Option<&mut LayerNs>) {
        let t = Instant::now();
        let frames = self.sent.lap.slice(b * sh.batch as u64, sh.batch);
        if let Some(l) = layers.as_deref_mut() {
            l.input += ns(t);
        }

        let t = Instant::now();
        sh.tuples.clear();
        sh.tuples
            .extend(frames.iter().map(|f| sh.slots.tuple(f, &sh.schema)));
        if let Some(l) = layers.as_deref_mut() {
            l.tuple += ns(t);
        }

        let t = Instant::now();
        let take_columnar = sh.config.columnar && frames.len() >= sh.config.columnar_min_batch;
        self.views.set_columnar(take_columnar);
        let prefill = self.views.columnar() && self.views.base_wanted();
        if prefill {
            let (slots, schema) = (&sh.slots, &sh.schema);
            self.views
                .fill_base_with(|cols, block| slots.write_block(&frames, schema, cols, block));
        }
        if let Some(l) = layers.as_deref_mut() {
            l.block += ns(t);
        }

        let t = Instant::now();
        if prefill {
            self.views.begin_batch_prefilled(KINECT_STREAM, &sh.tuples);
        } else {
            self.views.begin_batch(KINECT_STREAM, &sh.tuples);
        }
        if let Some(l) = layers.as_deref_mut() {
            l.views += ns(t);
        }

        let t = Instant::now();
        sh.detections.clear();
        for inst in self.instances.iter_mut() {
            inst.push_batch_shared(KINECT_STREAM, &sh.tuples, &self.views, &mut sh.detections)
                .expect("replayed batch steps without error");
        }
        if let Some(l) = layers.as_deref_mut() {
            l.nfa += ns(t);
            l.frames += frames.len() as u64;
            l.batches += 1;
        }
        self.dets.extend(
            sh.detections
                .iter()
                .map(|d| (d.gesture.clone(), d.ts, d.started_at)),
        );

        if let (Some(op), Some(l)) = (self.probe.as_mut(), layers) {
            let t = Instant::now();
            for tuple in &sh.tuples {
                op.process(tuple, &mut |t| drop(std::hint::black_box(t)));
            }
            l.kinect_t += ns(t);
        }
    }
}

/// Traced replay: one thread, every layer call timed. Sessions are
/// interleaved batch by batch, as a shard serving them all would see
/// them, so per-session state is as cold in the replay as on a shard.
/// Returns the per-session detections and the layer totals.
pub fn traced(plans: &Plans, sent: &[Sent<'_>], batch: usize) -> (Vec<Vec<Det>>, LayerNs) {
    let mut layers = LayerNs::default();
    let t = Instant::now();
    let mut sh = Shared::new(batch);
    let mut sessions: Vec<Session<'_>> = sent
        .iter()
        .map(|s| Session::new(plans, s, sh.config.columnar, true))
        .collect();
    let rounds = sent.iter().map(|s| s.batches).max().unwrap_or(0);
    for b in 0..rounds {
        for s in sessions.iter_mut().filter(|s| b < s.sent.batches) {
            s.step(b, &mut sh, Some(&mut layers));
        }
    }
    layers.wall = ns(t);
    layers.state_bytes = sessions
        .iter()
        .flat_map(|s| &s.instances)
        .map(PlanInstance::state_bytes)
        .sum::<usize>() as u64;
    (sessions.into_iter().map(|s| s.dets).collect(), layers)
}

/// Untraced replay over `threads` threads (sessions are independent;
/// each is replayed by one thread, start to end).
pub fn parallel(plans: &Plans, sent: &[Sent<'_>], batch: usize, threads: usize) -> Vec<Vec<Det>> {
    let threads = threads.clamp(1, sent.len().max(1));
    let mut out: Vec<Vec<Det>> = vec![Vec::new(); sent.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut sh = Shared::new(batch);
                    (t..sent.len())
                        .step_by(threads)
                        .map(|i| {
                            let mut s = Session::new(plans, &sent[i], sh.config.columnar, false);
                            for b in 0..sent[i].batches {
                                s.step(b, &mut sh, None);
                            }
                            (i, s.dets)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, dets) in h.join().expect("replay thread panicked") {
                out[i] = dets;
            }
        }
    });
    out
}
