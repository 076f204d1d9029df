//! The result of one run: metrics by name and unit, the correctness
//! verdict, and the output format (human-readable lines, then one JSON
//! object as the last line of standard output).

/// One run's outcome.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Every correctness check held.
    pub correct: bool,
    /// Frames the generator sent.
    pub attempted: u64,
    /// Frames sent but not taken in by the server.
    pub failed: u64,
    /// Human-readable findings (gate failures, counts).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report that is correct until a check fails.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // Non-finite readings (0/0 on an empty phase) are reported as 0
        // so the output stays valid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a failed check; the run then reports `correct: false`.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("FAILED: {why}"));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Keeps only the named metrics, in the given order.
    pub fn select(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for n in names {
            match self.metrics.iter().find(|(m, _, _)| m == n) {
                Some(m) => kept.push(m.clone()),
                None => panic!("metric {n} was not measured"),
            }
        }
        self.metrics = kept;
    }

    /// Prints the report: provenance and notes, a metric table, then
    /// the JSON result line.
    pub fn print(&self, provenance: &[(String, String)]) {
        let prov: Vec<String> = provenance
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        println!("provenance {{{}}}", prov.join(", "));
        for n in &self.notes {
            println!("{n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:<40} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
