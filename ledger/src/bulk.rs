//! `bulk-few` and `bulk-many`: in-process, closed-loop load.
//!
//! Producer threads (at most `nproc`) call `ServerHandle::push_batch`
//! for every session in turn, 60 frames a batch. The loop is closed in
//! rounds: each of the 512 sessions has one batch in flight, and the
//! next round starts when the server has drained the last one (so the
//! latency of a batch is bounded by one round, and the shipped queue
//! capacity never decides it). The run is cut into phases separated by
//! a drain: a
//! warm-up, then the measured phase (untraced run), or an untraced and
//! a traced phase (traced run: spans around every `push_batch` and the
//! final `drain`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use gesto_cep::{Detection, Query};
use gesto_serve::{Server, ServerConfig, SessionId};

use crate::gate::{self, Lost};
use crate::gen::{self, Lap, Workload};
use crate::host;
use crate::layers::{self, Traced};
use crate::replay::{self, Det, Plans, Sent};
use crate::report::Report;
use crate::stats::{median, quantile, ratio, tick_rates, windowed, Scrape, Tick, WINDOW};
use crate::{Args, SESSIONS, SETUP_REPS};

/// A set-up server and what setting it up cost.
struct Setup {
    server: Server,
    queries: Vec<Query>,
    teach_ms: Vec<f64>,
    deploy_ms: Vec<f64>,
    seconds: f64,
}

/// Learn the queries, start the server with the shipped defaults,
/// deploy, open every session; done when the first frame can be sent.
fn setup(w: Workload, sessions: usize) -> Setup {
    let t0 = Instant::now();
    let (queries, teach_ms) = gen::learn(&w.gestures());
    let server = Server::start(ServerConfig::new());
    let deploy_ms = queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            server.deploy(q.clone()).expect("learned query deploys");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    for s in 0..sessions as u64 {
        server.open_session(SessionId(s)).expect("open session");
    }
    server.drain().expect("server is running");
    Setup {
        server,
        queries,
        teach_ms,
        deploy_ms,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// State at a phase boundary (taken after a drain).
struct Mark {
    at: Instant,
    cpu: f64,
    frames_in: f64,
    scrape: Scrape,
    drain_ms: f64,
}

impl Mark {
    fn take(server: &Server) -> Mark {
        let t = Instant::now();
        server.drain().expect("server is running");
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        let scrape = Scrape::take(&server.handle().registry());
        Mark {
            at: Instant::now(),
            cpu: host::cpu_seconds(),
            frames_in: scrape.get("gesto_shard_frames_total"),
            scrape,
            drain_ms,
        }
    }
}

/// Latency is sampled on every this many-th session.
const LATENCY_EVERY: usize = 8;

/// The in-process client's detection sink. It keeps what the gate and
/// the latency samples need, compactly (12 bytes a detection, 16 a
/// latency sample): its memory grows with the detections alone, not
/// with the batches pushed, so `peak_rss_mb` stays mostly the server's.
struct Sink {
    laps: Arc<Vec<Lap>>,
    batch: usize,
    names: Vec<String>,
    epoch: Instant,
    /// Per session: index and push time (ns after `epoch`) of its batch
    /// in flight. The loop is closed, so a detection's last frame is in
    /// that batch; the sink checks it all the same.
    in_flight: Vec<[AtomicU64; 2]>,
    log: Mutex<SinkLog>,
}

#[derive(Default)]
struct SinkLog {
    /// Per session: stream indices of the frames at ts and started_at,
    /// and the index into `names`.
    dets: Vec<Vec<(u32, u32, u16)>>,
    /// (push time in ns after `epoch`, ms from push to detection).
    latency: Vec<(u64, f32)>,
}

impl Sink {
    fn new(laps: Arc<Vec<Lap>>, batch: usize, queries: &[Query]) -> Sink {
        let sessions = laps.len();
        Sink {
            laps,
            batch,
            names: queries.iter().map(|q| q.name.clone()).collect(),
            epoch: Instant::now(),
            in_flight: (0..sessions).map(|_| Default::default()).collect(),
            log: Mutex::new(SinkLog {
                dets: vec![Vec::new(); sessions],
                latency: Vec::new(),
            }),
        }
    }

    fn pushed(&self, session: usize, batch: u64, at: Instant) {
        let [b, t] = &self.in_flight[session];
        b.store(batch, Ordering::Relaxed);
        t.store(
            at.duration_since(self.epoch).as_nanos() as u64,
            Ordering::Relaxed,
        );
    }

    fn record(&self, session: usize, d: &Detection) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        // A name or time the stream does not have cannot be stored; it
        // is stored out of range and shows as a mismatch.
        let g = self
            .names
            .iter()
            .position(|n| *n == d.gesture)
            .map_or(u16::MAX, |i| i as u16);
        let lap = &self.laps[session];
        let index = |ts| lap.index_of(ts).map_or(u32::MAX, |i| i as u32);
        let end = index(d.ts);
        let [b, t] = &self.in_flight[session];
        let mut log = self
            .log
            .lock()
            .expect("detection sink never panics while locked");
        log.dets[session].push((end, index(d.started_at), g));
        if session.is_multiple_of(LATENCY_EVERY)
            && u64::from(end) / self.batch as u64 == b.load(Ordering::Relaxed)
        {
            let pushed = t.load(Ordering::Relaxed);
            log.latency
                .push((pushed, now.saturating_sub(pushed) as f32 / 1e6));
        }
    }

    /// The detections per session, and the latency samples keyed by
    /// the push time of their batch.
    fn take(&self) -> (Vec<Vec<Det>>, Vec<(Instant, f64)>) {
        let log = std::mem::take(&mut *self.log.lock().expect("sink lock"));
        let name = |g: u16| self.names.get(g as usize).cloned().unwrap_or_default();
        let dets = log
            .dets
            .into_iter()
            .zip(self.laps.iter())
            .map(|(v, lap)| {
                let ts = |i: u32| {
                    if i == u32::MAX {
                        i64::MIN
                    } else {
                        lap.ts_at(i.into())
                    }
                };
                v.into_iter()
                    .map(|(end, start, g)| (name(g), ts(end), ts(start)))
                    .collect()
            })
            .collect();
        let latency = log
            .latency
            .into_iter()
            .map(|(at, ms)| (self.epoch + Duration::from_nanos(at), f64::from(ms)))
            .collect();
        (dets, latency)
    }
}

/// What one producer did.
#[derive(Default)]
struct Produced {
    /// (session, batches pushed).
    pushes: Vec<(usize, u64)>,
    /// Durations of the traced pushes, in microseconds.
    push_us: Vec<f64>,
    rejected: u64,
}

fn tick(server: &Server) -> Tick {
    Tick {
        at: Instant::now(),
        cpu: host::cpu_seconds(),
        frames: server.metrics().frames_in() as f64,
    }
}

/// Runs `phases` (seconds, traced) back to back, a drain between each.
/// Returns what each producer did, the marks at the phase boundaries
/// and the ticks read every [`WINDOW`] within each phase.
fn stream(
    server: &Server,
    sink: &Sink,
    phases: &[(f64, bool)],
) -> (Vec<Produced>, Vec<Mark>, Vec<Vec<Tick>>) {
    let (laps, batch) = (&sink.laps, sink.batch);
    let producers = host::nproc().min(laps.len()).max(1);
    let start = Barrier::new(producers + 1);
    let go = Barrier::new(producers + 1);
    let round = Barrier::new(producers);
    let failed = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let mut marks = Vec::new();
    let mut ticks = Vec::new();
    let produced = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let (start, go, round, failed, done) = (&start, &go, &round, &failed, &done);
                let handle = server.handle();
                scope.spawn(move || {
                    let mut out = Produced {
                        pushes: (p..laps.len()).step_by(producers).map(|s| (s, 0)).collect(),
                        ..Produced::default()
                    };
                    for &(secs, traced) in phases {
                        start.wait();
                        go.wait();
                        let end = Instant::now() + Duration::from_secs_f64(secs);
                        loop {
                            for (s, pushed) in out.pushes.iter_mut() {
                                let b = *pushed;
                                let frames = laps[*s].slice(b * batch as u64, batch);
                                let t = Instant::now();
                                sink.pushed(*s, b, t);
                                if handle.push_batch(SessionId(*s as u64), frames).is_err() {
                                    out.rejected += batch as u64;
                                    failed.store(true, Ordering::SeqCst);
                                    break;
                                }
                                if traced {
                                    out.push_us.push(t.elapsed().as_secs_f64() * 1e6);
                                }
                                *pushed += 1;
                            }
                            // Closed loop: the next round starts once the
                            // server has processed this one.
                            if round.wait().is_leader() {
                                handle.drain().expect("server is running");
                                let stop = Instant::now() >= end || failed.load(Ordering::SeqCst);
                                done.store(stop, Ordering::SeqCst);
                            }
                            round.wait();
                            if done.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for &(secs, _) in phases {
            start.wait();
            marks.push(Mark::take(server));
            done.store(false, Ordering::SeqCst);
            go.wait();
            let t0 = Instant::now();
            let mut phase = vec![tick(server)];
            for k in 1..=(secs / WINDOW.as_secs_f64()) as u32 {
                std::thread::sleep((t0 + WINDOW * k).saturating_duration_since(Instant::now()));
                phase.push(tick(server));
            }
            ticks.push(phase);
        }
        let produced: Vec<Produced> = handles
            .into_iter()
            .map(|h| h.join().expect("producer panicked"))
            .collect();
        marks.push(Mark::take(server));
        produced
    });
    (produced, marks, ticks)
}

pub fn run(args: &Args, w: Workload) -> Report {
    let mut report = Report::new();
    let batch = w.batch();
    let laps = Arc::new(gen::laps(args.seed, SESSIONS, &w.gestures(), batch));
    // `peak_rss_mb` is the growth over the benchmark's own inputs.
    let baseline_mib = host::rss_mib();

    // Set-up is repeated and its median reported; the last server is
    // the one measured.
    let mut setup_s = Vec::new();
    let mut deploy_ms = Vec::new();
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            prev.server.shutdown();
        }
        let s = setup(w, SESSIONS);
        setup_s.push(s.seconds);
        deploy_ms.extend(s.deploy_ms.iter().copied());
        last = Some(s);
    }
    let setup = last.expect("at least one set-up");
    let server = setup.server;

    let sink = Arc::new(Sink::new(laps.clone(), batch, &setup.queries));
    let to_sink = sink.clone();
    server.on_detection(Arc::new(move |sid, d| to_sink.record(sid.0 as usize, d)));

    let warm = (args.seconds as f64 / 5.0).min(1.0);
    let phases: Vec<(f64, bool)> = if args.trace {
        // Half the streaming of an untraced run: the traced replay of
        // everything sent takes about as long again.
        let quarter = args.seconds as f64 / 4.0;
        vec![(warm, false), (quarter, false), (quarter, true)]
    } else {
        vec![(warm, false), (args.seconds as f64, false)]
    };
    let (produced, marks, ticks) = stream(&server, &sink, &phases);
    let rss = host::peak_rss_mib() - baseline_mib;
    let metrics = server.metrics();
    let end = marks.last().expect("one mark per phase boundary");

    // Per-session pushes, and the conservation identity.
    let mut pushes: Vec<u64> = vec![0; laps.len()];
    let mut lost = Lost::default();
    let mut push_us = Vec::new();
    for p in produced {
        for (s, v) in p.pushes {
            pushes[s] = v;
        }
        push_us.extend(p.push_us);
        lost.rejected += p.rejected;
    }
    lost.shed = metrics.shed_frames();
    lost.quarantined = metrics.quarantined_frames();
    lost.stale = metrics.shards.iter().map(|s| s.stale_frames).sum();
    lost.quota = metrics.shards.iter().map(|s| s.quota_frames).sum();
    let sent: u64 = pushes.iter().sum::<u64>() * batch as u64 + lost.rejected;
    gate::conservation(&mut report, sent, end.frames_in as u64, &lost);

    // Detections as the in-process client saw them, and their latency
    // from the push of the batch that carried their last frame, for
    // batches pushed in the measured phase.
    let (mut server_dets, mut latency_ms) = sink.take();
    let (from, to) = (marks[1].at, marks[2].at);
    latency_ms.retain(|&(pushed, _)| pushed >= from && pushed < to);
    let registry = server.handle().registry();
    let queries = setup.queries;
    server.shutdown();

    // The reference: the same sent input through the single-threaded
    // replay.
    let plans = Plans::compile(&queries);
    let sent_in: Vec<Sent<'_>> = laps
        .iter()
        .zip(&pushes)
        .map(|(lap, &batches)| Sent { lap, batches })
        .collect();
    let (mut replay_dets, traced) = if args.trace {
        let (d, l) = replay::traced(&plans, &sent_in, batch);
        (d, Some(l))
    } else {
        (
            replay::parallel(&plans, &sent_in, batch, host::nproc()),
            None,
        )
    };
    let detections = gate::detections(&mut report, &mut server_dets, &mut replay_dets);

    let (a, b) = (&marks[1], &marks[2]);
    let frames = b.frames_in - a.frames_in;
    let secs = b.at.duration_since(a.at).as_secs_f64();
    let (fps, cpu_us) = tick_rates(&ticks[1]);
    report.note(format!(
        "measured {frames} frames in {secs:.3} s; {} latency sample(s), {} deploy sample(s)",
        latency_ms.len(),
        deploy_ms.len()
    ));
    report.put("setup_s", median(&setup_s), "s");
    report.put("frames_per_s", fps, "frames/s");
    report.put("cpu_us_per_frame", cpu_us, "us");
    report.put(
        "detect_p50_ms",
        windowed(&latency_ms, from, to, |v| quantile(v, 0.5)),
        "ms",
    );
    report.put(
        "detect_p99_ms",
        windowed(&latency_ms, from, to, |v| quantile(v, 0.99)),
        "ms",
    );
    report.put("deploy_p50_ms", median(&deploy_ms), "ms");
    report.put("peak_rss_mb", rss, "MiB");
    report.put("detect.samples", latency_ms.len() as f64, "count");
    report.put("deploy.samples", deploy_ms.len() as f64, "count");
    report.put("detections", detections as f64, "count");
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);

    if let Some(l) = traced {
        let c = &marks[3];
        let traced_frames = c.frames_in - b.frames_in;
        let (traced_fps, _) = tick_rates(&ticks[2]);
        layers::put_all(
            &mut report,
            &Traced {
                layers: &l,
                plans: &plans,
                sessions: laps.len(),
                teach_ms: &setup.teach_ms,
                before: &b.scrape,
                after: &c.scrape,
                batch,
                server_cpu_ns_per_frame: ratio((c.cpu - b.cpu) * 1e9, traced_frames),
                push_us_p50: quantile(&push_us, 0.5),
                push_us_p99: quantile(&push_us, 0.99),
                drain_ms: c.drain_ms,
                overhead_pct: (ratio(fps, traced_fps) - 1.0) * 100.0,
                retiring_peak: 0.0,
                lost: &lost,
                failed_frac,
                net: Default::default(),
                durability: Default::default(),
                registry: &registry,
            },
        );
    }
    report
}
