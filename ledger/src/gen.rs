//! Workload inputs: the learned queries and one seeded frame stream per
//! session.
//!
//! The program under test only ever sees what this module generates.
//! Every session gets a persona from the persona sweep (height,
//! position, rotation, tempo, realistic sensor noise) and performs a
//! seeded random sequence of its workload's gestures with idle gaps in
//! between. That sequence is one **lap**; a session's stream is its lap
//! repeated forever, each repetition shifted by the lap's duration so
//! timestamps keep increasing. A run sends a prefix of that endless
//! stream, and the replay regenerates exactly the same prefix.

use std::time::Instant;

use gesto_cep::Query;
use gesto_kinect::{gestures, GestureSpec, NoiseModel, Performer, Persona, SkeletonFrame};
use gesto_learn::query_gen::{generate_query, QueryStyle};
use gesto_learn::{JointSet, Learner, LearnerConfig};
use gesto_transform::{TransformConfig, Transformer};

/// Gesture performances per lap.
const GESTURES_PER_LAP: usize = 4;

/// Teaching samples per gesture (fixed seeds: the learned queries are
/// the same for every workload seed, only the traffic varies).
const SAMPLES_PER_GESTURE: u64 = 3;

/// The three workloads of the ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BulkFew,
    BulkMany,
    LiveWire,
    LiveRollout,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "bulk-few" => Some(Workload::BulkFew),
            "bulk-many" => Some(Workload::BulkMany),
            "live-wire" => Some(Workload::LiveWire),
            "live-rollout" => Some(Workload::LiveRollout),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkFew => "bulk-few",
            Workload::BulkMany => "bulk-many",
            Workload::LiveWire => "live-wire",
            Workload::LiveRollout => "live-rollout",
        }
    }

    /// The deployed gestures: four distinct one-hand gestures, or the
    /// whole standard library (never copies of one query, so identical
    /// predicates cannot flatter multi-query sharing).
    pub fn gestures(self) -> Vec<GestureSpec> {
        match self {
            Workload::BulkMany => gestures::standard_library(),
            Workload::BulkFew | Workload::LiveWire | Workload::LiveRollout => vec![
                gestures::swipe_right(),
                gestures::swipe_left(),
                gestures::push(),
                gestures::pull(),
            ],
        }
    }

    /// Frames per pushed batch.
    pub fn batch(self) -> usize {
        match self {
            Workload::BulkFew | Workload::BulkMany => 60,
            Workload::LiveWire | Workload::LiveRollout => 4,
        }
    }
}

/// splitmix64: the benchmark's only random source.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The persona sweep: heights from child to tall adult, positions
/// across the field of view, rotations and tempi, all with realistic
/// sensor noise.
fn persona_sweep() -> Vec<Persona> {
    let base = Persona::reference().with_noise(NoiseModel::realistic());
    vec![
        base.clone(),
        base.clone().with_height(1150.0),
        base.clone().with_height(1450.0),
        base.clone().with_height(2000.0),
        base.clone().at(-900.0, 2200.0),
        base.clone().at(300.0, 3400.0),
        base.clone().rotated(-0.61),
        base.clone().rotated(0.79),
        base.clone().with_tempo(0.7),
        base.clone().with_tempo(1.5),
        base.with_height(1200.0).at(700.0, 2800.0).rotated(0.5),
    ]
}

/// One session's lap: frames starting at ts 0, a multiple of the batch
/// size long, and the lap duration in stream milliseconds.
pub struct Lap {
    pub frames: Vec<SkeletonFrame>,
    pub period_ms: i64,
}

impl Lap {
    /// Frames `[start, start + len)` of the endless stream, with
    /// timestamps shifted by the lap they fall in.
    pub fn slice(&self, start: u64, len: usize) -> Vec<SkeletonFrame> {
        let n = self.frames.len() as u64;
        (start..start + len as u64)
            .map(|i| {
                let mut f = self.frames[(i % n) as usize].clone();
                f.ts += (i / n) as i64 * self.period_ms;
                f
            })
            .collect()
    }

    /// Timestamp of frame `i` of the endless stream.
    pub fn ts_at(&self, i: u64) -> i64 {
        let n = self.frames.len() as u64;
        self.frames[(i % n) as usize].ts + (i / n) as i64 * self.period_ms
    }

    /// Index in the endless stream of the frame stamped `ts`.
    pub fn index_of(&self, ts: i64) -> Option<u64> {
        let lap = ts.div_euclid(self.period_ms);
        let local = ts.rem_euclid(self.period_ms);
        let i = self.frames.binary_search_by_key(&local, |f| f.ts).ok()?;
        Some(lap as u64 * self.frames.len() as u64 + i as u64)
    }
}

/// Builds every session's lap from the workload seed.
pub fn laps(seed: u64, sessions: usize, specs: &[GestureSpec], batch: usize) -> Vec<Lap> {
    let sweep = persona_sweep();
    (0..sessions as u64)
        .map(|s| {
            let mut rng = SplitMix::new(seed ^ s.wrapping_mul(0x2545_f491_4f6c_dd1d));
            let persona = sweep[rng.range(0, sweep.len() as u64 - 1) as usize]
                .clone()
                .with_seed(rng.next_u64());
            let mut p = Performer::new(persona, 0);
            let mut frames = Vec::new();
            for _ in 0..GESTURES_PER_LAP {
                frames.extend(p.render_idle(rng.range(300, 1200) as i64));
                let spec = &specs[rng.range(0, specs.len() as u64 - 1) as usize];
                frames.extend(p.render_padded(spec, 200, 300));
            }
            // Pad with rest pose to whole batches; the lap period below
            // still covers any rendered-then-dropped tail frames.
            let target = frames.len().div_ceil(batch) * batch;
            while frames.len() < target {
                frames.extend(p.render_idle(34 * (target - frames.len()) as i64));
            }
            frames.truncate(target);
            let period_ms = p.next_ts();
            Lap { frames, period_ms }
        })
        .collect()
}

/// Learns one query per gesture from fixed teaching samples, returning
/// the queries and the wall time of `add_sample_frames` + `finalize`
/// per gesture, in milliseconds.
pub fn learn(specs: &[GestureSpec]) -> (Vec<Query>, Vec<f64>) {
    let teacher = Persona::reference().with_noise(NoiseModel::realistic());
    let mut queries = Vec::with_capacity(specs.len());
    let mut teach_ms = Vec::with_capacity(specs.len());
    for spec in specs {
        let samples: Vec<Vec<SkeletonFrame>> = (0..SAMPLES_PER_GESTURE)
            .map(|seed| {
                let raw = Performer::new(teacher.clone().with_seed(seed), 0).render(spec);
                let mut tr = Transformer::new(TransformConfig::default());
                raw.iter().filter_map(|f| tr.transform_frame(f)).collect()
            })
            .collect();
        let t0 = Instant::now();
        // Learn on the joints the gesture moves. The default joint set
        // is the right hand alone, and a left- or two-handed gesture
        // learned on it collapses to one rest-pose event that matches
        // every idle frame.
        let mut learner = Learner::new(LearnerConfig {
            joints: JointSet::new(spec.joints()),
            ..LearnerConfig::default()
        });
        for sample in &samples {
            learner
                .add_sample_frames(sample)
                .expect("simulated teaching samples are non-empty");
        }
        let def = learner
            .finalize(&spec.name)
            .expect("three clean samples always finalize");
        teach_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        queries.push(generate_query(&def, QueryStyle::TransformedView));
    }
    (queries, teach_ms)
}
