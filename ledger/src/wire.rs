//! `live-wire` and `live-rollout`: GSW1 over loopback from one
//! generator child process.
//!
//! The server process (this one) runs a durable server behind the TCP
//! edge with control allowed. The generator is this binary re-executed
//! with `--generator`: it holds at most `nproc` connections, one thread
//! each, with the sessions multiplexed over them. It is an open loop:
//! every session sends a 4-frame batch on a fixed schedule, whatever
//! the server does, and each batch is timed from when it was due. One
//! connection also sends a `Deploy` at a fixed interval, a versioned
//! rollout to the next plan version: on `live-wire` of the rollout
//! probe (see [`probe`]), whose runs are in flight at rollouts but
//! which never detects, on `live-rollout` of one of the four gestures'
//! query text. The latter fails its gate: a rollout that lands while a
//! performance is in flight lets the old and the new version both
//! detect it.
//!
//! Parent → child commands on stdin: `CONNECT <addr>`, `CLOSE`, `GO`.
//! Child → parent lines on stdout: `LOADED`, `READY <connect seconds>`, `CLOSED`,
//! `PHASE` (traced run: the traced half begins), `SENT` (every
//! connection said bye), then `BATCHES`, `DET` and `STAT` result
//! lines and `DONE`.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use gesto_cep::{parse_query, Pattern, Query};
use gesto_durability::{FsyncPolicy, Journal};
use gesto_kinect::SkeletonFrame;
use gesto_serve::net::{wire as gsw1, NetClient, NetConfig, NetServer};
use gesto_serve::{ControlOp, Server, ServerConfig};

use crate::gate::{self, Lost};
use crate::gen::{self, Lap, Workload};
use crate::host;
use crate::layers::{self, DurabilityLayer, NetLayer, Traced};
use crate::replay::{self, Det, Plans, Sent};
use crate::report::Report;
use crate::stats::{median, quantile, ratio, tick_rates, windowed, Scrape, Tick, WINDOW};
use crate::{Args, SESSIONS, SETUP_REPS};

/// Offered load, frames per second over all sessions: about half the
/// wire rate that saturated the server on the 2-core host the ledger
/// was written on. Held constant across commits.
const OFFERED_FPS: f64 = 120_000.0;

/// Interval between the generator's `Deploy` messages.
const DEPLOY_EVERY: Duration = Duration::from_millis(250);

/// A run whose generator ran later than this at p99 did not offer the
/// load it claims: it is invalid.
const MAX_LAG_P99_MS: f64 = 250.0;

/// The gesture whose pattern the rollout probe copies.
const PROBE_BASE: &str = "swipe_right";

/// A pattern step no frame can match.
const NEVER: &str = r#"SELECT "never" MATCHING kinect_t(rHand_y > 1000000000.0);"#;

/// Batches whose wire encode/decode the traced run times.
const CODEC_BATCHES: usize = 50_000;

/// The query `live-wire` rolls out: the [`PROBE_BASE`] gesture's pattern
/// under its own name, with one more step that no frame can match. Its
/// runs seed and step as that gesture's do, so a rollout retires a plan
/// instance with runs in flight, which drains until they expire; but no
/// version of it ever detects. The rollout therefore covers journal,
/// compile, broadcast and draining, and leaves out only a retiring
/// instance completing a run, where the program double-detects (see
/// `live-rollout`).
fn probe(queries: &[Query]) -> Query {
    let never = parse_query(NEVER).expect("NEVER parses").pattern;
    let mut q = queries
        .iter()
        .find(|q| q.name == PROBE_BASE)
        .expect("the probe's gesture is deployed")
        .clone();
    q.name = "rollout_probe".into();
    let Pattern::Sequence(seq) = &mut q.pattern else {
        panic!("learned queries are sequences");
    };
    assert!(seq.within_ms.is_some(), "probe runs must expire");
    seq.steps.push(never);
    q
}

fn server_config(journal: &Path) -> ServerConfig {
    ServerConfig::new().with_durability(journal)
}

fn net_config() -> NetConfig {
    NetConfig::new().with_allow_control(true)
}

/// Scratch space inside the working directory (the benchmark reads and
/// writes nothing outside its checkout).
fn work_dir() -> PathBuf {
    let dir = std::env::current_dir()
        .expect("working directory is readable")
        .join(".ledger_work")
        .join(std::process::id().to_string());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    dir
}

/// The generator child; killed and reaped if the run is abandoned.
struct Generator {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Generator {
    fn spawn(args: &[String]) -> Generator {
        let mut child = Command::new(std::env::current_exe().expect("own executable path"))
            .arg("--generator")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the generator");
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Generator {
            child,
            stdin,
            stdout,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.stdin, "{line}").expect("generator is alive");
        self.stdin.flush().expect("generator is alive");
    }

    fn line(&mut self) -> String {
        let mut s = String::new();
        let n = self
            .stdout
            .read_line(&mut s)
            .expect("read from the generator");
        assert!(n > 0, "the generator exited early");
        s.trim_end().to_owned()
    }

    fn expect(&mut self, want: &str) {
        let got = self.line();
        assert_eq!(got, want, "unexpected generator reply");
    }
}

impl Drop for Generator {
    fn drop(&mut self) {
        // Best effort: the child also exits on its own when stdin
        // closes; never leave it running or unreaped.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the generator reported after the run.
#[derive(Default)]
struct GenResult {
    batches: Vec<u64>,
    dets: Vec<Vec<Det>>,
    stats: Vec<(String, f64)>,
}

impl GenResult {
    fn stat(&self, name: &str) -> f64 {
        self.stats
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

fn read_results(g: &mut Generator) -> GenResult {
    let mut r = GenResult {
        batches: vec![0; SESSIONS],
        dets: vec![Vec::new(); SESSIONS],
        ..GenResult::default()
    };
    loop {
        let line = g.line();
        let mut f = line.split(' ');
        match f.next() {
            Some("BATCHES") => {
                let s: usize = f.next().and_then(|v| v.parse().ok()).expect("session");
                r.batches[s] = f.next().and_then(|v| v.parse().ok()).expect("count");
            }
            Some("DET") => {
                let v: Vec<&str> = f.collect();
                let s: usize = v[0].parse().expect("session");
                r.dets[s].push((
                    v[1].to_owned(),
                    v[2].parse().expect("ts"),
                    v[3].parse().expect("started_at"),
                ));
            }
            Some("STAT") => {
                let name = f.next().expect("stat name").to_owned();
                r.stats
                    .push((name, f.next().and_then(|v| v.parse().ok()).expect("value")));
            }
            Some("DONE") => return r,
            _ => panic!("unexpected generator line: {line}"),
        }
    }
}

/// Boundary reading of the server process (no drain: the open loop
/// keeps running).
struct Mark {
    at: Instant,
    cpu: f64,
    scrape: Scrape,
}

impl Mark {
    fn take(server: &Server) -> Mark {
        Mark {
            at: Instant::now(),
            cpu: host::cpu_seconds(),
            scrape: Scrape::take(&server.handle().registry()),
        }
    }

    fn frames(&self) -> f64 {
        self.scrape.get("gesto_shard_frames_total")
    }
}

pub fn run(args: &Args, w: Workload) -> Report {
    let mut report = Report::new();
    let batch = w.batch();
    let work = work_dir();
    let journal = work.join("journal");

    // Before timing: learn, deploy on a durable server, stop it. Every
    // timed set-up is then a restart that recovers from this journal.
    let (queries, teach_ms) = gen::learn(&w.gestures());
    let probe_text = probe(&queries).to_query_text();
    let texts: Vec<String> = match w {
        Workload::LiveRollout => queries.iter().map(|q| q.to_query_text()).collect(),
        _ => vec![probe_text.clone()],
    };
    {
        let server = Server::start(server_config(&journal));
        for q in &queries {
            server.deploy(q.clone()).expect("learned query deploys");
        }
        server
            .deploy_text(&probe_text)
            .expect("probe query deploys");
        server.shutdown();
    }
    let texts_path = work.join("queries.json");
    std::fs::write(
        &texts_path,
        serde_json::to_string(&texts).expect("strings serialise"),
    )
    .expect("write the query texts");

    let mut g = Generator::spawn(&[
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        u8::from(args.trace).to_string(),
        "--queries".into(),
        texts_path.display().to_string(),
    ]);
    g.expect("LOADED");

    // `peak_rss_mb` is the growth over what the process held before
    // the first timed set-up.
    let baseline_mib = host::rss_mib();
    let mut setup_s = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        // The generator times its own connect, so the pipe between the
        // two processes stays out of the figure.
        let t0 = Instant::now();
        let server = Server::try_start(server_config(&journal)).expect("recover from the journal");
        let net = NetServer::start(server.handle(), net_config()).expect("start the edge");
        let started = t0.elapsed().as_secs_f64();
        g.send(&format!("CONNECT {}", net.local_addr()));
        let connect_s: f64 = g
            .line()
            .strip_prefix("READY ")
            .and_then(|v| v.parse().ok())
            .expect("READY with the connect time");
        setup_s.push(started + connect_s);
        if rep + 1 < SETUP_REPS {
            g.send("CLOSE");
            g.expect("CLOSED");
            net.shutdown();
            server.shutdown();
        } else {
            live = Some((server, net));
        }
    }
    let (server, net) = live.expect("at least one set-up");

    // The streaming phase: GO → every connection said bye → drained. A
    // monitor reads the server process every WINDOW (and, traced, polls
    // the retiring plan instances).
    let stop = AtomicBool::new(false);
    let (marks, monitored, drain_ms, rss, result) = std::thread::scope(|scope| {
        let mut marks = vec![Mark::take(&server)];
        g.send("GO");
        let handle = server.handle();
        let stop = &stop;
        let poll = if args.trace {
            Duration::from_millis(20)
        } else {
            WINDOW
        };
        let monitor = scope.spawn(move || {
            let (mut peak, mut ticks, mut next) = (0usize, Vec::new(), Instant::now());
            while !stop.load(Ordering::Relaxed) {
                let m = handle.metrics();
                peak = peak.max(m.shards.iter().map(|s| s.retiring).sum());
                if Instant::now() >= next {
                    ticks.push(Tick {
                        at: Instant::now(),
                        cpu: host::cpu_seconds(),
                        frames: m.frames_in() as f64,
                    });
                    next += WINDOW;
                }
                std::thread::sleep(poll);
            }
            (peak, ticks)
        });
        loop {
            match g.line().as_str() {
                "PHASE" => marks.push(Mark::take(&server)),
                "SENT" => break,
                other => panic!("unexpected generator line: {other}"),
            }
        }
        let t = Instant::now();
        server.drain().expect("server is running");
        let drain_ms = t.elapsed().as_secs_f64() * 1e3;
        marks.push(Mark::take(&server));
        // Before the generator's results are read into this process.
        let rss = host::peak_rss_mib() - baseline_mib;
        stop.store(true, Ordering::Relaxed);
        let monitored = monitor.join().expect("monitor panicked");
        (marks, monitored, drain_ms, rss, read_results(&mut g))
    });
    let (retiring_peak, ticks) = monitored;
    let mut result = result;
    let metrics = server.metrics();
    let registry = server.handle().registry();
    let edge = net.metrics();
    let e2e_pow2_ms = edge.latency().quantile(0.5) as f64 / 1e3;
    net.shutdown();
    server.shutdown();
    drop(g);

    let (first, end) = (&marks[0], marks.last().expect("end mark"));
    let frames = end.frames() - first.frames();
    let sent = result.stat("sent_frames") as u64;
    let lost = Lost {
        shed: metrics.shed_frames(),
        quarantined: metrics.quarantined_frames(),
        stale: metrics.shards.iter().map(|s| s.stale_frames).sum(),
        quota: metrics.shards.iter().map(|s| s.quota_frames).sum(),
        rejected: (edge.batches_rejected() as usize * batch) as u64,
    };
    // Frames lost on the wire itself (protocol errors) have no server
    // bucket: they show as a conservation failure.
    gate::conservation(&mut report, sent, end.frames() as u64, &lost);
    if edge.protocol_errors() > 0 {
        report.fail(format!("{} wire protocol error(s)", edge.protocol_errors()));
    }
    let lag_p99 = result.stat("lag_p99_ms");
    if lag_p99 > MAX_LAG_P99_MS {
        report.fail(format!(
            "invalid run: the generator lagged {lag_p99:.1} ms at p99 (bound {MAX_LAG_P99_MS} ms)"
        ));
    }

    // Durability probes on the journal this run wrote.
    let durability = if args.trace {
        let t = Instant::now();
        let s = Server::try_start(server_config(&journal)).expect("recover after the run");
        let recover_ms = t.elapsed().as_secs_f64() * 1e3;
        s.shutdown();
        DurabilityLayer {
            append_sync_us_p50: append_sync_us(
                &work.join("append"),
                &texts,
                result.stat("deploys"),
            ),
            recover_ms,
        }
    } else {
        DurabilityLayer::default()
    };
    std::fs::remove_dir_all(&work).ok();
    if let Some(parent) = work.parent() {
        // Only succeeds once no other run is using it.
        std::fs::remove_dir(parent).ok();
    }

    // The reference replay over exactly the batches each session sent.
    let laps = gen::laps(args.seed, SESSIONS, &w.gestures(), batch);
    let mut deployed = queries.clone();
    deployed.push(parse_query(&probe_text).expect("probe query parses"));
    let plans = Plans::compile(&deployed);
    let sent_in: Vec<Sent<'_>> = laps
        .iter()
        .zip(&result.batches)
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
    let mut server_dets = std::mem::take(&mut result.dets);
    let detections = gate::detections(&mut report, &mut server_dets, &mut replay_dets);

    let secs = end.at.duration_since(first.at).as_secs_f64();
    let detect_p50 = result.stat("detect_p50_ms");
    report.note(format!(
        "offered {OFFERED_FPS} frames/s; took in {frames} frames in {secs:.3} s; \
         {} latency sample(s), {} deploy sample(s)",
        result.stat("detect_samples"),
        result.stat("deploy_samples")
    ));
    report.put("setup_s", median(&setup_s), "s");
    report.put("frames_per_s", ratio(frames, secs), "frames/s");
    report.put("cpu_us_per_frame", tick_rates(&ticks).1, "us");
    report.put("detect_p50_ms", detect_p50, "ms");
    report.put("detect_p99_ms", result.stat("detect_p99_ms"), "ms");
    report.put("deploy_p50_ms", result.stat("deploy_p50_ms"), "ms");
    report.put("peak_rss_mb", rss, "MiB");
    report.put("detect.samples", result.stat("detect_samples"), "count");
    report.put("deploy.samples", result.stat("deploy_samples"), "count");
    report.put("detections", detections as f64, "count");

    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    if let Some(l) = traced {
        let (a, b) = (&marks[1], end);
        let cpu_per = |x: &Mark, y: &Mark| ratio((y.cpu - x.cpu) * 1e9, y.frames() - x.frames());
        let (untraced, traced_ns) = (cpu_per(first, a), cpu_per(a, b));
        layers::put_all(
            &mut report,
            &Traced {
                layers: &l,
                plans: &plans,
                sessions: laps.len(),
                teach_ms: &teach_ms,
                before: &a.scrape,
                after: &b.scrape,
                batch,
                server_cpu_ns_per_frame: traced_ns,
                // On the wire the spans are the generator's
                // `send_batch` calls.
                push_us_p50: result.stat("push_us_p50"),
                push_us_p99: result.stat("push_us_p99"),
                drain_ms,
                overhead_pct: (ratio(traced_ns, untraced) - 1.0) * 100.0,
                retiring_peak: retiring_peak as f64,
                lost: &lost,
                failed_frac,
                net: NetLayer {
                    encode_ns_per_frame: result.stat("encode_ns_per_frame"),
                    decode_ns_per_frame: result.stat("decode_ns_per_frame"),
                    client_gap_ms: detect_p50 - e2e_pow2_ms,
                    lag_p99_ms: lag_p99,
                    e2e_p50_pow2_ms: e2e_pow2_ms,
                },
                durability,
                registry: &registry,
            },
        );
    }
    report
}

/// The run's control ops replayed through `Journal::append` + `sync`
/// at fsync `Always` in a fresh directory; median microseconds.
fn append_sync_us(dir: &Path, texts: &[String], deploys: f64) -> f64 {
    let (mut journal, _) = Journal::open(dir, FsyncPolicy::Always).expect("open a scratch journal");
    let mut samples = Vec::new();
    for i in 0..(deploys as usize).max(1) {
        let text = &texts[i % texts.len()];
        let op = ControlOp::Deploy {
            name: text_name(text),
            text: text.clone(),
            version: 2 + (i / texts.len()) as u32,
        };
        let payload = serde_json::to_string(&op).expect("control ops serialise");
        let t = Instant::now();
        journal.append(payload.as_bytes()).expect("journal append");
        journal.sync().expect("journal sync");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// The query name of a query text (`SELECT "name" ...`).
fn text_name(text: &str) -> String {
    text.split('"').nth(1).unwrap_or_default().to_owned()
}

// ----- the generator child ---------------------------------------------

struct GenArgs {
    seed: u64,
    seconds: u64,
    trace: bool,
    texts: Vec<String>,
}

fn gen_args(argv: &[String]) -> GenArgs {
    let mut a = GenArgs {
        seed: 0,
        seconds: 0,
        trace: false,
        texts: Vec::new(),
    };
    for pair in argv.chunks(2) {
        let v = &pair[1];
        match pair[0].as_str() {
            "--seed" => a.seed = v.parse().expect("seed"),
            "--seconds" => a.seconds = v.parse().expect("seconds"),
            "--trace" => a.trace = v != "0",
            "--queries" => {
                let text = std::fs::read_to_string(v).expect("read the query texts");
                a.texts = serde_json::from_str(&text).expect("query texts are JSON strings");
            }
            other => panic!("unknown generator argument {other}"),
        }
    }
    a
}

/// What one connection's thread measured.
#[derive(Default)]
struct ConnOut {
    /// (session, batches sent).
    batches: Vec<(u64, u64)>,
    dets: Vec<(u64, Det)>,
    /// (due time of the batch, ms until the detection was read).
    latency_ms: Vec<(Instant, f64)>,
    lag_ms: Vec<f64>,
    deploy_ms: Vec<f64>,
    send_us: Vec<f64>,
}

/// One connection's open loop. Slot `k` of this thread's schedule sends
/// batch `k / n` of its `k % n`-th session, due at `t0 + k · spacing`.
#[allow(clippy::too_many_arguments)] // one call site; the schedule's parameters read best flat
fn conn_loop(
    client: &mut NetClient,
    sessions: &[u64],
    laps: &[Lap],
    conns: usize,
    t0: Instant,
    spacing: Duration,
    slots: u64,
    trace_from: Option<u64>,
    deploys: Option<&[String]>,
) -> ConnOut {
    let n = sessions.len() as u64;
    let batch = Workload::LiveWire.batch() as u64;
    let mut out = ConnOut::default();
    let mut next_deploy = t0 + DEPLOY_EVERY;
    let due = |k: u64| t0 + spacing.mul_f64(k as f64);
    let collect = |client: &mut NetClient, out: &mut ConnOut| {
        let got = client.take_detections().expect("read detections");
        if got.is_empty() {
            return;
        }
        let now = Instant::now();
        for d in got {
            let s = d.session as usize;
            if let Some(i) = laps[s].index_of(d.ts) {
                let k = (i / batch) * n + (d.session / conns as u64);
                let at = due(k);
                out.latency_ms
                    .push((at, now.saturating_duration_since(at).as_secs_f64() * 1e3));
            }
            out.dets.push((d.session, (d.gesture, d.ts, d.started_at)));
        }
    };
    for k in 0..slots {
        let at = due(k);
        loop {
            let now = Instant::now();
            if let Some(texts) = deploys {
                if now >= next_deploy {
                    let i = out.deploy_ms.len();
                    let t = Instant::now();
                    client
                        .deploy_text(&texts[i % texts.len()])
                        .expect("redeploy is acknowledged");
                    out.deploy_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    next_deploy += DEPLOY_EVERY;
                    continue;
                }
            }
            if now >= at {
                break;
            }
            collect(client, &mut out);
            // Ahead of schedule: sleep rather than spin, so the
            // generator leaves the cores to the server.
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
        let s = sessions[(k % n) as usize];
        let b = k / n;
        let frames: Vec<SkeletonFrame> = laps[s as usize].slice(b * batch, batch as usize);
        let t = Instant::now();
        out.lag_ms
            .push(t.saturating_duration_since(at).as_secs_f64() * 1e3);
        client.send_batch(s, &frames).expect("send a batch");
        if trace_from.is_some_and(|from| k >= from) {
            out.send_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        collect(client, &mut out);
    }
    for (i, &s) in sessions.iter().enumerate() {
        let sent = slots / n + u64::from((i as u64) < slots % n);
        out.batches.push((s, sent));
    }
    out
}

/// Times `wire::encode_frame_batch` over the first batches of the run
/// and `wire::decode` over the bytes it produced; ns per frame each.
fn codec_ns(laps: &[Lap]) -> (f64, f64) {
    let batch = Workload::LiveWire.batch();
    let batches: Vec<(u64, Vec<SkeletonFrame>)> = (0..CODEC_BATCHES)
        .map(|k| {
            let s = k % SESSIONS;
            let b = (k / SESSIONS) as u64;
            (s as u64, laps[s].slice(b * batch as u64, batch))
        })
        .collect();
    let frames = (CODEC_BATCHES * batch) as f64;
    let mut bytes = Vec::with_capacity(CODEC_BATCHES * 512);
    let t = Instant::now();
    for (s, f) in &batches {
        gsw1::encode_frame_batch(*s, f, &mut bytes);
    }
    let encode = t.elapsed().as_nanos() as f64 / frames;
    let t = Instant::now();
    let mut pos = 0;
    while pos < bytes.len() {
        let (msg, used) = gsw1::decode(&bytes[pos..])
            .expect("own encoding decodes")
            .expect("whole messages");
        std::hint::black_box(msg);
        pos += used;
    }
    let decode = t.elapsed().as_nanos() as f64 / frames;
    (encode, decode)
}

/// `--generator`: builds the inputs, then follows the parent's
/// commands.
pub fn generator_main(argv: &[String]) {
    let a = gen_args(argv);
    let w = Workload::LiveWire;
    let batch = w.batch();
    let laps = gen::laps(a.seed, SESSIONS, &w.gestures(), batch);
    let conns = host::nproc().min(SESSIONS);
    let mine: Vec<Vec<u64>> = (0..conns)
        .map(|c| (c as u64..SESSIONS as u64).step_by(conns).collect())
        .collect();
    let mut stdout = std::io::stdout();
    let mut say = |line: &str| {
        writeln!(stdout, "{line}").expect("parent is reading");
        stdout.flush().expect("parent is reading");
    };
    say("LOADED");

    let mut clients: Vec<NetClient> = Vec::new();
    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        // EOF on stdin means the parent is gone: exit quietly.
        let Some(Ok(cmd)) = lines.next() else { return };
        if let Some(addr) = cmd.strip_prefix("CONNECT ") {
            let t = Instant::now();
            clients = mine
                .iter()
                .map(|sessions| {
                    let mut c = NetClient::connect_with_flags(addr, 0).expect("connect");
                    for &s in sessions {
                        c.open_session(s).expect("open session");
                    }
                    c.ping().expect("edge answers");
                    c
                })
                .collect();
            say(&format!("READY {}", t.elapsed().as_secs_f64()));
        } else if cmd == "CLOSE" {
            for c in clients.drain(..) {
                c.bye().expect("bye");
            }
            say("CLOSED");
        } else if cmd == "GO" {
            break;
        }
    }

    // The open loop. Each connection carries `OFFERED_FPS / conns`.
    let spacing = Duration::from_secs_f64(batch as f64 * conns as f64 / OFFERED_FPS);
    let slots = (a.seconds as f64 / spacing.as_secs_f64()) as u64;
    let trace_from = a.trace.then_some(slots / 2);
    let t0 = Instant::now() + Duration::from_millis(5);
    let outs: Vec<ConnOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&mine)
            .enumerate()
            .map(|(c, (client, sessions))| {
                let laps = &laps;
                let deploys = (c == 0).then_some(a.texts.as_slice());
                scope.spawn(move || {
                    conn_loop(
                        client, sessions, laps, conns, t0, spacing, slots, trace_from, deploys,
                    )
                })
            })
            .collect();
        if a.trace {
            std::thread::sleep(
                (t0 + spacing.mul_f64((slots / 2) as f64))
                    .saturating_duration_since(Instant::now()),
            );
            say("PHASE");
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut all = ConnOut::default();
    for (mut out, client) in outs.into_iter().zip(clients) {
        for d in client.bye().expect("bye") {
            out.dets.push((d.session, (d.gesture, d.ts, d.started_at)));
        }
        all.batches.extend(out.batches);
        all.dets.extend(out.dets);
        all.latency_ms.extend(out.latency_ms);
        all.lag_ms.extend(out.lag_ms);
        all.deploy_ms.extend(out.deploy_ms);
        all.send_us.extend(out.send_us);
    }
    say("SENT");

    let (encode, decode) = if a.trace { codec_ns(&laps) } else { (0.0, 0.0) };
    for (s, n) in &all.batches {
        say(&format!("BATCHES {s} {n}"));
    }
    for (s, (g, ts, started)) in &all.dets {
        say(&format!("DET {s} {g} {ts} {started}"));
    }
    let sent: u64 = all.batches.iter().map(|(_, n)| n).sum::<u64>() * batch as u64;
    let end = t0 + Duration::from_secs(a.seconds);
    let stats = [
        ("sent_frames", sent as f64),
        (
            "detect_p50_ms",
            windowed(&all.latency_ms, t0, end, |v| quantile(v, 0.5)),
        ),
        (
            "detect_p99_ms",
            windowed(&all.latency_ms, t0, end, |v| quantile(v, 0.99)),
        ),
        ("detect_samples", all.latency_ms.len() as f64),
        ("deploy_p50_ms", median(&all.deploy_ms)),
        ("deploy_samples", all.deploy_ms.len() as f64),
        ("deploys", all.deploy_ms.len() as f64),
        ("lag_p99_ms", quantile(&all.lag_ms, 0.99)),
        ("push_us_p50", quantile(&all.send_us, 0.5)),
        ("push_us_p99", quantile(&all.send_us, 0.99)),
        ("encode_ns_per_frame", encode),
        ("decode_ns_per_frame", decode),
    ];
    for (name, v) in stats {
        say(&format!("STAT {name} {v:?}"));
    }
    say("DONE");
}
