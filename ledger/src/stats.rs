//! Exact quantiles over client-side samples, and readings of the
//! server's metric registry (whose pow-2 histograms are only ever used
//! as a cross-check).

use std::time::{Duration, Instant};

use gesto_telemetry::{HistogramSnapshot, Registry, SampleValue};

/// Runs are summarised as medians over windows of this length, so a
/// transient stall of the shared host moves one window, not the run.
pub const WINDOW: Duration = Duration::from_millis(500);

/// Exact `q`-quantile (linear interpolation between order statistics);
/// 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Splits `samples` (timed values) into consecutive [`WINDOW`]s from
/// `from` up to `to`, applies `stat` to each non-empty window and
/// returns the median.
pub fn windowed(
    samples: &[(Instant, f64)],
    from: Instant,
    to: Instant,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    let w = WINDOW.as_secs_f64();
    let n = (to.saturating_duration_since(from).as_secs_f64() / w) as usize;
    let mut windows = vec![Vec::new(); n.max(1)];
    for &(at, v) in samples {
        if at >= from {
            let k = (at.duration_since(from).as_secs_f64() / w) as usize;
            if let Some(win) = windows.get_mut(k) {
                win.push(v);
            }
        }
    }
    let per: Vec<f64> = windows
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| stat(v))
        .collect();
    median(&per)
}

/// A reading of the server process's cumulative counters.
pub struct Tick {
    pub at: Instant,
    pub cpu: f64,
    pub frames: f64,
}

/// Medians over consecutive ticks of frames per second and of CPU
/// microseconds per frame (windows that took in no frame are skipped).
pub fn tick_rates(ticks: &[Tick]) -> (f64, f64) {
    let (mut fps, mut cpu) = (Vec::new(), Vec::new());
    for w in ticks.windows(2) {
        let frames = w[1].frames - w[0].frames;
        if frames <= 0.0 {
            continue;
        }
        fps.push(ratio(frames, w[1].at.duration_since(w[0].at).as_secs_f64()));
        cpu.push(ratio((w[1].cpu - w[0].cpu) * 1e6, frames));
    }
    (median(&fps), median(&cpu))
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One gathered registry: counters and gauges summed per family over
/// all label sets, histograms merged per family-and-label string.
#[derive(Clone, Default)]
pub struct Scrape {
    scalars: Vec<(String, f64)>,
    hists: Vec<(String, HistogramSnapshot)>,
}

impl Scrape {
    pub fn take(registry: &Registry) -> Scrape {
        let mut s = Scrape::default();
        for sample in registry.gather() {
            let labels: Vec<String> = sample
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let keyed = format!("{}{{{}}}", sample.name, labels.join(","));
            match sample.value {
                SampleValue::Counter(v) => {
                    s.add(&sample.name, v as f64);
                    s.add(&keyed, v as f64);
                }
                SampleValue::Gauge(v) => {
                    s.add(&sample.name, v);
                    s.add(&keyed, v);
                }
                SampleValue::Histogram(h) => s.hists.push((keyed, *h)),
            }
        }
        s
    }

    fn add(&mut self, key: &str, v: f64) {
        match self.scalars.iter_mut().find(|(k, _)| k == key) {
            Some((_, total)) => *total += v,
            None => self.scalars.push((key.to_owned(), v)),
        }
    }

    /// A family total (`name`) or one series (`name{k=v,...}`); 0 when
    /// absent.
    pub fn get(&self, key: &str) -> f64 {
        self.scalars
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The value of every series of family `name`, in gather order.
    pub fn series(&self, name: &str) -> Vec<f64> {
        let prefix = format!("{name}{{");
        self.scalars
            .iter()
            .filter(|(k, _)| k.starts_with(&prefix))
            .map(|(_, v)| *v)
            .collect()
    }

    /// Histogram series whose key starts with `prefix`, merged.
    pub fn hist(&self, prefix: &str) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for (_, h) in self.hists.iter().filter(|(k, _)| k.starts_with(prefix)) {
            for (o, b) in out.buckets.iter_mut().zip(h.buckets.iter()) {
                *o += b;
            }
            out.count += h.count;
            out.sum += h.sum;
            out.max = out.max.max(h.max);
        }
        out
    }

    /// `self − before` for a counter.
    pub fn delta(&self, before: &Scrape, key: &str) -> f64 {
        self.get(key) - before.get(key)
    }

    /// `self − before` for a histogram.
    pub fn hist_delta(&self, before: &Scrape, prefix: &str) -> HistogramSnapshot {
        let (a, b) = (self.hist(prefix), before.hist(prefix));
        let mut out = a.clone();
        for (o, x) in out.buckets.iter_mut().zip(b.buckets.iter()) {
            *o -= x;
        }
        out.count -= b.count;
        out.sum -= b.sum;
        out
    }
}

/// Mean of a histogram snapshot.
pub fn hist_mean(h: &HistogramSnapshot) -> f64 {
    ratio(h.sum as f64, h.count as f64)
}

/// Pow-2 quantile of a snapshot: the ceiling of the bucket holding the
/// `q`-th sample (the registry's own rule, ±50% by construction).
pub fn hist_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = ((q * h.count as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, n) in h.buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return (1u64 << (i + 1).min(63)) as f64;
        }
    }
    h.max as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
