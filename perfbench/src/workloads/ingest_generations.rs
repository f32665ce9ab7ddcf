//! `ingest_generations`: generational backups through the ingest pipeline
//! into a memory-backend cluster.
//!
//! Every byte passes the chunk scan and SHA-1, and after generation 0 most
//! chunks are duplicates, so the rest of the time goes to handprints,
//! routing, the similarity index and the fingerprint cache rather than to
//! container appends.  No fsync, journal or service layer runs.
//!
//! The bounded passes run the pipeline on one worker: on a shared 2-core
//! host a 2-worker pass swings by a quarter from run to run, since either
//! core being taken stalls both.  The traced run times the 2-worker pipeline
//! against the serial layer sum instead (`core.pipeline_speedup`).

use super::{repeat, Budget};
use crate::inputs::{derive_seed, generational_set_into};
use crate::layers::{traced_backup, LayerCounters};
use crate::report::Outcome;
use crate::sys::rss_mb;
use crate::trace::Tracer;
use sigma_chunking::ChunkerParams;
use sigma_core::{BackupClient, DedupCluster, FileId, IngestPipeline, SigmaConfig, StreamPayload};
use sigma_storage::BackendKind;
use std::sync::Arc;
use std::time::Instant;

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub nodes: usize,
    pub streams: usize,
    pub generations: usize,
    pub stream_bytes: usize,
    pub growth: usize,
    pub mutation_rate: f64,
    /// Pipeline workers of the bounded passes.
    pub workers: usize,
    /// Times every file is restored per pass.
    pub restore_passes: usize,
    /// Timed passes to run at least, however short the budget.
    pub min_passes: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        nodes: 4,
        streams: 8,
        generations: 4,
        stream_bytes: 4 << 20,
        growth: 64 << 10,
        mutation_rate: 0.05,
        workers: 1,
        restore_passes: 4,
        min_passes: 4,
    };

    pub const TINY: Sizes = Sizes {
        nodes: 2,
        streams: 2,
        generations: 2,
        stream_bytes: 256 << 10,
        growth: 8 << 10,
        mutation_rate: 0.05,
        workers: 1,
        restore_passes: 1,
        min_passes: 1,
    };
}

/// Pipeline workers of the pass the traced run compares the serial layer
/// time against.
const SPEEDUP_WORKERS: usize = 2;

fn config(workers: usize) -> SigmaConfig {
    SigmaConfig::builder()
        .storage_backend(BackendKind::Memory)
        .chunker(ChunkerParams::cdc(1 << 10, 4 << 10, 16 << 10))
        .parallelism(workers)
        .build()
        .expect("valid ingest configuration")
}

/// Timings and results of one pass.
struct Pass {
    setup_s: f64,
    backup_s: f64,
    restore_s: f64,
    /// MB/s of each single-file restore.
    restore_rates: Vec<f64>,
    logical_bytes: u64,
    dedup_ratio: f64,
    stored_per_logical: f64,
    rss_growth_mb: f64,
}

/// How a pass backs its inputs up.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `IngestPipeline::backup_streams` with this many workers.
    Pipeline(usize),
    /// `BackupClient`, one stream after another: the untraced twin of the
    /// traced path.
    Serial,
}

/// One pass on a fresh cluster: set-up, backups, flush, restores; output
/// checks happen with the clock stopped.  The inputs are generated into
/// `inputs`, whose buffers passes reuse, so set-up time is generation work
/// rather than page faults that come and go with the allocator's state.
fn pass(
    sizes: &Sizes,
    seed: u64,
    mode: Mode,
    inputs: &mut Vec<Vec<Vec<u8>>>,
    outcome: &mut Outcome,
) -> Pass {
    let setup = Instant::now();
    generational_set_into(
        inputs,
        seed,
        sizes.streams,
        sizes.generations,
        sizes.stream_bytes,
        sizes.mutation_rate,
        sizes.growth,
    );
    let inputs = &*inputs;
    let rss_before = rss_mb();
    let workers = match mode {
        Mode::Pipeline(workers) => workers,
        Mode::Serial => 1,
    };
    let cluster = Arc::new(DedupCluster::with_similarity_router(
        sizes.nodes,
        config(workers),
    ));
    let pipeline = IngestPipeline::with_parallelism(cluster.clone(), workers);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut backup_s = 0.0;
    let mut logical_bytes = 0u64;
    let mut files: Vec<(usize, usize, FileId)> = Vec::new();
    for (g, streams) in inputs.iter().enumerate() {
        // The pipeline takes ownership of its inputs; the copies are neither
        // set-up nor part of the timed backup.
        let payloads: Vec<StreamPayload> = match mode {
            Mode::Pipeline(_) => streams
                .iter()
                .enumerate()
                .map(|(s, data)| StreamPayload::new(s as u64, format!("s{s}-g{g}"), data.clone()))
                .collect(),
            Mode::Serial => Vec::new(),
        };
        let clients: Vec<BackupClient> = match mode {
            Mode::Pipeline(_) => Vec::new(),
            Mode::Serial => (0..streams.len())
                .map(|s| BackupClient::with_generation(cluster.clone(), s as u64, g as u64))
                .collect(),
        };

        let t = Instant::now();
        let reports = match mode {
            Mode::Pipeline(_) => pipeline.backup_streams(payloads),
            Mode::Serial => clients
                .iter()
                .zip(streams)
                .enumerate()
                .map(|(s, (c, data))| c.backup_bytes(&format!("s{s}-g{g}"), data))
                .collect(),
        };
        backup_s += t.elapsed().as_secs_f64();

        match reports {
            Ok(reports) => {
                for (s, r) in reports.iter().enumerate() {
                    outcome.check(r.logical_bytes == streams[s].len() as u64, || {
                        format!("backup of stream {s} generation {g} acknowledged the wrong size")
                    });
                    logical_bytes += r.logical_bytes;
                    files.push((g, s, r.file_id));
                }
            }
            Err(e) => outcome.check(false, || format!("generation {g} backup failed: {e}")),
        }
    }
    let t = Instant::now();
    cluster.flush();
    backup_s += t.elapsed().as_secs_f64();

    let stats = cluster.stats();
    let mut restore_s = 0.0;
    let mut restore_rates = Vec::new();
    for _ in 0..sizes.restore_passes {
        for &(g, s, file_id) in &files {
            let t = Instant::now();
            let restored = cluster.restore_file(file_id);
            let took = t.elapsed().as_secs_f64();
            restore_s += took;
            restore_rates.push(inputs[g][s].len() as f64 / took / 1e6);
            outcome.check(restored.as_deref().ok() == Some(&inputs[g][s][..]), || {
                format!("restore of stream {s} generation {g} differs from its input")
            });
        }
    }
    let rss_growth_mb = rss_mb() - rss_before;

    Pass {
        setup_s,
        backup_s,
        restore_s,
        restore_rates,
        logical_bytes,
        dedup_ratio: stats.dedup_ratio,
        stored_per_logical: stats.physical_bytes as f64 / logical_bytes.max(1) as f64,
        rss_growth_mb,
    }
}

/// The untraced run: a warm-up pass, then passes on fresh datasets until
/// the budget is spent; medians reported.
pub fn run(sizes: &Sizes, seed: u64, budget: &Budget) -> Outcome {
    let mut outcome = Outcome::default();
    let mut inputs = Vec::new();
    let (warmup, passes) = repeat(budget, sizes.min_passes, |i| {
        let mode = Mode::Pipeline(sizes.workers);
        Ok(pass(
            sizes,
            derive_seed(seed, i),
            mode,
            &mut inputs,
            &mut outcome,
        ))
    })
    .expect("an ingest pass reports failures through its checks");
    let col = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    outcome.median("setup_s", "s", &col(|p| p.setup_s));
    // Generation 0 is all new data and later ones mostly duplicates, so a
    // backup rate is only comparable over a whole pass.
    outcome.median(
        "backup_mbps",
        "MB/s",
        &col(|p| p.logical_bytes as f64 / p.backup_s / 1e6),
    );
    let rates: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.restore_rates.iter().copied())
        .collect();
    outcome.median("restore_mbps", "MB/s", &rates);
    outcome.median("dedup_ratio", "ratio", &col(|p| p.dedup_ratio));
    outcome.median(
        "stored_bytes_per_logical_byte",
        "ratio",
        &col(|p| p.stored_per_logical),
    );
    // Only the first pass starts from a process whose allocator holds no
    // memory freed by an earlier pass.
    outcome.single("rss_growth_mb", "MB", warmup.rss_growth_mb);
    outcome
}

/// The traced run: an untraced 2-worker pipeline pass and an untraced serial
/// pass, then the serial path again with a span around every layer call.
pub fn run_traced(sizes: &Sizes, seed: u64) -> (Outcome, Tracer, LayerCounters) {
    let mut outcome = Outcome::default();
    let seed = derive_seed(seed, 0);
    let mut inputs = Vec::new();
    let parallel = pass(
        sizes,
        seed,
        Mode::Pipeline(SPEEDUP_WORKERS),
        &mut inputs,
        &mut outcome,
    );
    let serial = pass(sizes, seed, Mode::Serial, &mut inputs, &mut outcome);
    // `inputs` still holds this seed's dataset for the traced pass.
    let cluster = DedupCluster::with_similarity_router(sizes.nodes, config(1));
    let tracer = Tracer::default();
    let mut counters = LayerCounters::default();
    let mut files = Vec::new();
    // Every backup, the flush and every restore is a root span, so the traced
    // wall time counts operations only, as the untraced timers do.
    for (g, streams) in inputs.iter().enumerate() {
        for (s, data) in streams.iter().enumerate() {
            let session = cluster
                .director()
                .open_session_in_generation(&format!("client-{s}"), g as u64);
            let request = files.len() as u64;
            let name = format!("s{s}-g{g}");
            match traced_backup(&tracer, &cluster, session, s as u64, &name, data, request) {
                Ok((file_id, counts)) => {
                    counters.add_backup(&counts);
                    files.push((g, s, file_id));
                }
                Err(e) => outcome.check(false, || format!("traced backup {name} failed: {e}")),
            }
        }
    }
    tracer.layer("storage.flush", 0, || cluster.flush());
    for _ in 0..sizes.restore_passes {
        for (request, &(g, s, file_id)) in files.iter().enumerate() {
            let restored = tracer.layer("core.restore", request as u64, || {
                cluster.restore_file_with_report(file_id)
            });
            let ok = restored
                .as_ref()
                .is_ok_and(|(d, _)| d[..] == inputs[g][s][..]);
            outcome.check(ok, || {
                format!("traced restore of stream {s} generation {g} differs")
            });
            if let Ok((_, report)) = &restored {
                counters.restore.add(report);
            }
        }
    }
    counters.clusters.push(cluster.stats());

    let times = crate::trace::self_times(&tracer.spans());
    outcome.single(
        "trace.overhead",
        "ratio",
        times.wall_s / (serial.backup_s + serial.restore_s),
    );
    let backup_layers: f64 = super::BACKUP_LAYERS.iter().map(|n| times.get(n)).sum();
    outcome.single(
        "core.pipeline_speedup",
        "ratio",
        backup_layers / parallel.backup_s,
    );
    let mbps = parallel.logical_bytes as f64 / parallel.backup_s / 1e6;
    outcome.single("core.pipeline_2_workers_mbps", "MB/s", mbps);
    (outcome, tracer, counters)
}
