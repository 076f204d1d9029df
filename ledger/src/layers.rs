//! The per-layer ledger of a traced run: every layer's number, by the
//! module it belongs to, computed from the traced replay, the spans
//! the ledger recorded around its calls into the server, and registry
//! deltas over the traced server phase.

use std::time::Instant;

use gesto_telemetry::{encode_text, Registry};

use crate::gate::Lost;
use crate::replay::{LayerNs, Plans};
use crate::report::Report;
use crate::stats::{hist_mean, hist_quantile, median, ratio, Scrape};

/// Network-edge numbers (all 0 on the in-process workloads).
#[derive(Default)]
pub struct NetLayer {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub client_gap_ms: f64,
    pub lag_p99_ms: f64,
    pub e2e_p50_pow2_ms: f64,
}

/// Durable control-plane numbers (all 0 when the server is not
/// durable).
#[derive(Default)]
pub struct DurabilityLayer {
    pub append_sync_us_p50: f64,
    pub recover_ms: f64,
}

/// Everything a traced run measured.
pub struct Traced<'a> {
    pub layers: &'a LayerNs,
    pub plans: &'a Plans,
    pub sessions: usize,
    pub teach_ms: &'a [f64],
    /// Registry before and after the traced server phase.
    pub before: &'a Scrape,
    pub after: &'a Scrape,
    pub batch: usize,
    /// Server-process CPU per frame over the traced phase.
    pub server_cpu_ns_per_frame: f64,
    /// Spans around the ledger's `push_batch` / `send_batch` calls.
    pub push_us_p50: f64,
    pub push_us_p99: f64,
    pub drain_ms: f64,
    /// Traced vs untraced server phase, in percent.
    pub overhead_pct: f64,
    pub retiring_peak: f64,
    pub lost: &'a Lost,
    pub failed_frac: f64,
    pub net: NetLayer,
    pub durability: DurabilityLayer,
    pub registry: &'a Registry,
}

pub fn put_all(r: &mut Report, t: &Traced<'_>) {
    let l = t.layers;
    let frames = l.frames as f64;
    let per_frame = |ns: u64| ratio(ns as f64, frames);
    let (a, b) = (t.after, t.before);
    let srv_frames = a.delta(b, "gesto_shard_frames_total");
    let srv_batches = a.delta(b, "gesto_shard_batches_total");

    r.put("kinect.tuple_ns_per_frame", per_frame(l.tuple), "ns");
    r.put("kinect.block_ns_per_frame", per_frame(l.block), "ns");
    r.put(
        "transform.kinect_t_ns_per_frame",
        per_frame(l.kinect_t),
        "ns",
    );
    r.put("stream.views_ns_per_frame", per_frame(l.views), "ns");
    r.put(
        "stream.views_self_ns_per_frame",
        per_frame(l.views) - per_frame(l.kinect_t),
        "ns",
    );
    r.put(
        "stream.blocks_per_batch",
        ratio(a.delta(b, "gesto_blocks_built_total"), srv_batches),
        "count",
    );
    r.put(
        "stream.block_rows_per_frame",
        ratio(a.delta(b, "gesto_block_rows_built_total"), srv_frames),
        "count",
    );

    let plans = t.plans.plans.len().max(1) as f64;
    let seeded = a.delta(b, "gesto_nfa_runs_seeded_total");
    let kernel_rows = a.delta(b, "gesto_kernel_block_rows_total");
    r.put("cep.nfa_ns_per_frame", per_frame(l.nfa), "ns");
    r.put(
        "cep.nfa_ns_per_frame_per_plan",
        per_frame(l.nfa) / plans,
        "ns",
    );
    r.put(
        "cep.runs_seeded_per_frame",
        ratio(seeded, srv_frames),
        "count",
    );
    r.put(
        "cep.match_ratio",
        ratio(a.delta(b, "gesto_nfa_matches_total"), seeded),
        "ratio",
    );
    r.put(
        "cep.runs_shed",
        a.delta(b, "gesto_nfa_runs_shed_total"),
        "count",
    );
    r.put(
        "cep.kernel_rows_per_frame",
        ratio(kernel_rows, srv_frames),
        "count",
    );
    r.put(
        "cep.scalar_fallback_ratio",
        ratio(
            a.delta(b, "gesto_kernel_scalar_fallback_total"),
            kernel_rows,
        ),
        "ratio",
    );
    r.put("cep.compile_ms", median(&t.plans.compile_ms), "ms");
    r.put(
        "cep.state_bytes_per_session",
        ratio(l.state_bytes as f64, t.sessions as f64),
        "B",
    );

    // The replay's own cost per frame, net of input making and of the
    // duplicate kinect_t probe: what the layers must add up to.
    let replay_wall = l.wall.saturating_sub(l.input + l.kinect_t);
    let replay_ns = per_frame(replay_wall);
    let layer_sum = per_frame(l.tuple + l.block + l.views + l.nfa);

    r.put("serve.push_us_p50", t.push_us_p50, "us");
    r.put("serve.push_us_p99", t.push_us_p99, "us");
    r.put("serve.drain_ms", t.drain_ms, "ms");
    let queue = a.hist_delta(b, "gesto_shard_push_latency_us");
    r.put("serve.queue_wait_us_p50", hist_quantile(&queue, 0.5), "us");
    r.put(
        "serve.overhead_ns_per_frame",
        t.server_cpu_ns_per_frame - replay_ns,
        "ns",
    );
    let after = a.series("gesto_shard_frames_total");
    let before = b.series("gesto_shard_frames_total");
    let per_shard: Vec<f64> = after
        .iter()
        .zip(before.iter().chain(std::iter::repeat(&0.0)))
        .map(|(x, y)| x - y)
        .collect();
    let max = per_shard.iter().cloned().fold(0.0, f64::max);
    let mean = ratio(per_shard.iter().sum(), per_shard.len() as f64);
    r.put("serve.shard_skew", ratio(max, mean), "ratio");
    r.put("serve.failed_frames.shed", t.lost.shed as f64, "count");
    r.put("serve.failed_frames.stale", t.lost.stale as f64, "count");
    r.put("serve.failed_frames.quota", t.lost.quota as f64, "count");
    r.put(
        "serve.failed_frames.quarantined",
        t.lost.quarantined as f64,
        "count",
    );
    r.put(
        "serve.failed_frames.rejected",
        t.lost.rejected as f64,
        "count",
    );
    r.put(
        "serve.contention_total",
        a.delta(b, "gesto_shard_contention_total"),
        "count",
    );
    r.put("serve.retiring_peak", t.retiring_peak, "count");
    r.put("failed_frac", t.failed_frac, "ratio");

    let detections = a.delta(b, "gesto_net_detections_sent_total");
    r.put("net.encode_ns_per_frame", t.net.encode_ns_per_frame, "ns");
    r.put("net.decode_ns_per_frame", t.net.decode_ns_per_frame, "ns");
    r.put(
        "net.bytes_in_per_frame",
        ratio(a.delta(b, "gesto_net_bytes_in_total"), srv_frames),
        "B",
    );
    r.put(
        "net.bytes_out_per_detection",
        ratio(a.delta(b, "gesto_net_bytes_out_total"), detections),
        "B",
    );
    r.put(
        "net.credit_stalls",
        a.delta(b, "gesto_net_credit_stalls_total"),
        "count",
    );
    r.put(
        "net.parked_batches",
        a.delta(b, "gesto_net_batches_parked_total"),
        "count",
    );
    r.put("net.client_gap_ms", t.net.client_gap_ms, "ms");
    r.put("net.e2e_latency_p50_ms_pow2", t.net.e2e_p50_pow2_ms, "ms");
    r.put("gen.lag_p99_ms", t.net.lag_p99_ms, "ms");

    r.put(
        "durability.append_sync_us_p50",
        t.durability.append_sync_us_p50,
        "us",
    );
    r.put("durability.recover_ms", t.durability.recover_ms, "ms");
    r.put(
        "durability.checkpoints",
        a.delta(b, "gesto_checkpoints_total"),
        "count",
    );
    r.put(
        "durability.journal_bytes",
        a.delta(b, "gesto_journal_bytes_total"),
        "B",
    );

    r.put("learn.teach_ms_per_gesture", median(t.teach_ms), "ms");

    let t0 = Instant::now();
    let text = encode_text(&t.registry.gather());
    std::hint::black_box(text);
    r.put(
        "telemetry.scrape_ms",
        t0.elapsed().as_secs_f64() * 1e3,
        "ms",
    );

    r.put(
        "replay.frames_per_s",
        ratio(frames * 1e9, replay_wall as f64),
        "frames/s",
    );
    r.put("replay.residual_ns_per_frame", replay_ns - layer_sum, "ns");
    r.put("trace_overhead_pct", t.overhead_pct, "%");

    // Replay vs program: the replay's per-frame layer cost over the
    // shard's sampled stage timers from the traced server phase.
    let stage = |s: &str| {
        let h = a.hist_delta(b, &format!("gesto_stage_duration_ns{{stage={s}}}"));
        ratio(hist_mean(&h), t.batch as f64)
    };
    r.put(
        "xcheck.kinect_stream_ratio",
        ratio(
            per_frame(l.tuple + l.block + l.views),
            stage("transform") + stage("views"),
        ),
        "ratio",
    );
    r.put(
        "xcheck.cep_ratio",
        ratio(per_frame(l.nfa), stage("nfa")),
        "ratio",
    );
}
