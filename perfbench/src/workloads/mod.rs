//! The three workloads and what they share.

pub mod ingest_generations;
pub mod lifecycle_file;
pub mod service_mix;

use crate::layers::LayerCounters;
use crate::report::Outcome;
use crate::trace::{self_times, Tracer};
use std::time::{Duration, Instant};

/// The layer spans of the traced backup path; their summed self time is the
/// serial layer time the pipeline speed-up divides.
pub const BACKUP_LAYERS: &[&str] = &[
    "chunking.build",
    "chunking.scan",
    "hashkit.sha1",
    "core.super_chunk_build",
    "core.handprint",
    "core.route",
    "core.node_dedup",
    "core.register_file",
    "storage.flush",
];

/// The measuring window of one run.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    window: Duration,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            window: Duration::from_secs_f64(seconds),
        }
    }

    pub fn has_time(&self) -> bool {
        self.start.elapsed() < self.window
    }
}

/// Runs `rep(0)` as an untimed warm-up (caches fill, the allocator grows),
/// then `rep(1)`, `rep(2)`, … until the budget is spent and at least
/// `min_reps` repetitions are timed.  Each repetition derives its own
/// dataset from its index, so the medians average over many datasets.
pub fn repeat<T>(
    budget: &Budget,
    min_reps: usize,
    mut rep: impl FnMut(u64) -> Result<T, String>,
) -> Result<(T, Vec<T>), String> {
    let warmup = rep(0)?;
    let mut timed = Vec::new();
    while timed.len() < min_reps || budget.has_time() {
        timed.push(rep(timed.len() as u64 + 1)?);
    }
    Ok((warmup, timed))
}

/// Turns a traced run's spans and counters into per-layer metrics: the self
/// time of every layer span (as `<span>_s`), the counters, and the share of
/// the traced wall time the layer spans cover.
pub fn per_layer_metrics(outcome: &mut Outcome, tracer: &Tracer, counters: &LayerCounters) {
    let spans = tracer.spans();
    let times = self_times(&spans);
    let mut layers: Vec<&str> = spans.iter().filter(|s| s.layer).map(|s| s.name).collect();
    layers.sort_unstable();
    layers.dedup();
    for name in layers {
        outcome.single(&format!("{name}_s"), "s", times.get(name));
    }
    for (name, value) in counters.metrics() {
        let unit = crate::report::PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("every counter is a contract metric");
        outcome.single(name, unit, value);
    }
    outcome.single("trace.coverage", "ratio", times.coverage());
}

#[cfg(test)]
mod tests {
    use crate::report::{json_line, END_TO_END, PER_LAYER};

    fn assert_complete(
        workload: &str,
        untraced: &crate::report::Outcome,
        traced: &crate::report::Outcome,
    ) {
        let (line, correct) = json_line(untraced, END_TO_END);
        assert!(
            correct,
            "{workload} untraced: {line} {:?}",
            untraced.failures
        );
        let (line, correct) = json_line(traced, PER_LAYER);
        assert!(correct, "{workload} traced: {line} {:?}", traced.failures);
        for (name, _) in END_TO_END {
            let m = untraced.get(name).unwrap();
            assert!(m.value > 0.0, "{workload} {name} = {}", m.value);
        }
        // Resident growth of a tiny run is noise and may be negative.
        assert!(
            untraced.get("rss_growth_mb").is_some(),
            "{workload} rss_growth_mb"
        );
    }

    /// A tiny-size untraced and traced run of `workload`.
    fn both(workload: &str, seed: u64) -> (crate::report::Outcome, crate::report::Outcome) {
        let run = |trace| crate::run_workload(workload, seed, 0.0, true, trace).unwrap();
        (run(false), run(true))
    }

    #[test]
    fn ingest_generations_smoke() {
        let (untraced, traced) = both("ingest_generations", 1);
        assert_complete("ingest_generations", &untraced, &traced);
    }

    #[test]
    fn lifecycle_file_smoke() {
        let (untraced, traced) = both("lifecycle_file", 2);
        assert_complete("lifecycle_file", &untraced, &traced);
        for name in [
            "gc_s",
            "recovery_s",
            "gc.bytes_reclaimed",
            "recovery.journal_bytes",
        ] {
            let m = untraced.get(name).or_else(|| traced.get(name)).unwrap();
            assert!(m.value > 0.0, "{name} = {}", m.value);
        }
    }

    #[test]
    fn service_mix_smoke() {
        let (untraced, traced) = both("service_mix", 3);
        assert_complete("service_mix", &untraced, &traced);
        for name in ["backup_p50_ms", "restore_p50_ms", "requests_per_s"] {
            assert!(untraced.get(name).unwrap().value > 0.0, "{name}");
        }
        for name in [
            "service.backend_call_s",
            "service.stack_call_s",
            "service.tcp_call_s",
            "service.codec_s",
            "service.middleware_s",
            "service.transport_s",
        ] {
            assert!(traced.get(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(crate::run_workload("nope", 1, 0.0, true, false).is_err());
    }
}
