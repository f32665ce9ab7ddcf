//! `lifecycle_file`: the whole life of a file-backed cluster.
//!
//! Generational backups through `BackupClient` into a 2-node cluster on the
//! file backend (real fsync, 1 MiB containers, a read cache smaller than
//! each node's data); then the oldest generation expires and GC reclaims
//! it; then every node restarts from disk and every surviving file is
//! restored cold, over several passes.  It is the only workload where the
//! journal, fsync, container objects, the read cache, recovery and GC do
//! the work.

use super::{repeat, Budget};
use crate::inputs::{derive_seed, generational_set_into};
use crate::layers::{traced_backup, LayerCounters};
use crate::report::Outcome;
use crate::sys::{dir_bytes, rss_mb, ScratchDir};
use crate::trace::{maybe_layer, Tracer};
use sigma_chunking::ChunkerParams;
use sigma_core::{BackupClient, DedupCluster, FileId, SigmaConfig};
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
    pub container_bytes: usize,
    pub restore_cache_bytes: u64,
    /// Passes over every surviving file after the restart.
    pub restore_passes: usize,
    /// Timed cycles to run at least, however short the budget.
    pub min_cycles: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        nodes: 2,
        streams: 4,
        generations: 4,
        stream_bytes: 4 << 20,
        growth: 64 << 10,
        mutation_rate: 0.10,
        container_bytes: 1 << 20,
        restore_cache_bytes: 4 << 20,
        restore_passes: 4,
        min_cycles: 3,
    };

    pub const TINY: Sizes = Sizes {
        nodes: 2,
        streams: 2,
        generations: 3,
        stream_bytes: 256 << 10,
        growth: 8 << 10,
        mutation_rate: 0.10,
        container_bytes: 64 << 10,
        restore_cache_bytes: 128 << 10,
        restore_passes: 2,
        min_cycles: 1,
    };
}

/// Timings and results of one cycle.
struct Cycle {
    setup_s: f64,
    backup_s: f64,
    /// MB/s of each single-file backup.
    backup_rates: Vec<f64>,
    gc_s: f64,
    recovery_s: f64,
    restore_s: f64,
    /// MB/s of each single-file restore.
    restore_rates: Vec<f64>,
    dedup_ratio: f64,
    stored_per_logical: f64,
    rss_growth_mb: f64,
}

impl Cycle {
    fn op_s(&self) -> f64 {
        self.backup_s + self.gc_s + self.recovery_s + self.restore_s
    }
}

/// Times `f`, inside a layer span when a tracer is given.
fn timed<R>(
    tracer: Option<&Tracer>,
    span: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t = Instant::now();
    let out = maybe_layer(tracer, span, request, f);
    (out, t.elapsed().as_secs_f64())
}

/// One cycle in a fresh directory.  With a tracer, backups take the traced
/// path and every timed phase is a root span, so the traced wall time counts
/// the same operations as the untraced timers; output checks run with the
/// clock stopped either way.  The inputs are generated into `inputs`, whose
/// buffers the cycles reuse: after a cycle has filled the page cache with
/// its files, faulting in fresh input pages takes a varying, often long time.
fn cycle(
    sizes: &Sizes,
    seed: u64,
    inputs: &mut Vec<Vec<Vec<u8>>>,
    outcome: &mut Outcome,
    tracer: Option<&Tracer>,
    counters: &mut LayerCounters,
) -> Result<Cycle, String> {
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
    let dir = ScratchDir::new("lifecycle").map_err(|e| format!("scratch directory: {e}"))?;
    let config = SigmaConfig::builder()
        .file_storage(dir.path())
        .chunker(ChunkerParams::cdc(1 << 10, 4 << 10, 16 << 10))
        .container_capacity(sizes.container_bytes)
        .restore_cache_bytes(sizes.restore_cache_bytes)
        .gc_liveness_threshold(1.0)
        .build()
        .map_err(|e| format!("configuration: {e}"))?;
    let cluster = Arc::new(DedupCluster::with_similarity_router(sizes.nodes, config));
    let setup_s = setup.elapsed().as_secs_f64();

    let mut backup_s = 0.0;
    let mut backup_rates = Vec::new();
    let mut logical_bytes = 0u64;
    let mut files: Vec<(usize, usize, FileId)> = Vec::new();
    for (g, streams) in inputs.iter().enumerate() {
        for (s, data) in streams.iter().enumerate() {
            let name = format!("s{s}-g{g}");
            let request = files.len() as u64;
            let t = Instant::now();
            let acked = match tracer {
                Some(tracer) => {
                    let session = cluster
                        .director()
                        .open_session_in_generation(&format!("client-{s}"), g as u64);
                    traced_backup(tracer, &cluster, session, s as u64, &name, data, request).map(
                        |(file_id, counts)| {
                            counters.add_backup(&counts);
                            (file_id, counts.logical_bytes)
                        },
                    )
                }
                None => BackupClient::with_generation(cluster.clone(), s as u64, g as u64)
                    .backup_bytes(&name, data)
                    .map(|r| (r.file_id, r.logical_bytes)),
            };
            let took = t.elapsed().as_secs_f64();
            backup_s += took;
            backup_rates.push(data.len() as f64 / took / 1e6);
            match acked {
                Ok((file_id, logical)) => {
                    outcome.check(logical == data.len() as u64, || {
                        format!("backup {name} acknowledged the wrong size")
                    });
                    logical_bytes += logical;
                    files.push((g, s, file_id));
                }
                Err(e) => outcome.check(false, || format!("backup {name} failed: {e}")),
            }
        }
    }
    let (flushed, flush_s) = timed(tracer, "storage.flush", 0, || cluster.try_flush());
    backup_s += flush_s;
    outcome.check(flushed.is_ok(), || format!("flush failed: {flushed:?}"));

    let stats = cluster.stats();
    let (journal, objects, disk_before) = dir_bytes(dir.path());
    let (expired, expire_s) = timed(tracer, "core.delete_generation", 0, || {
        cluster.delete_generation(0)
    });
    let (gc, collect_s) = timed(tracer, "core.collect_garbage", 0, || {
        cluster.collect_garbage()
    });
    let gc_s = expire_s + collect_s;
    outcome.check(expired.is_ok(), || {
        format!("expiring generation 0 failed: {expired:?}")
    });
    let reclaimed = gc.as_ref().map_or(0, |r| r.bytes_reclaimed);
    outcome.check(reclaimed > 0, || format!("GC reclaimed nothing: {gc:?}"));
    let disk_after = dir_bytes(dir.path()).2;
    let survivors: Vec<_> = files.iter().filter(|f| f.0 > 0).copied().collect();
    let live_bytes: u64 = survivors
        .iter()
        .map(|&(g, s, _)| inputs[g][s].len() as u64)
        .sum();

    let mut recovery_s = 0.0;
    for id in cluster.node_ids() {
        let (recovered, s) = timed(tracer, "core.restart_node", id as u64, || {
            cluster.restart_node_from_disk(id)
        });
        recovery_s += s;
        match recovered {
            Ok(r) => {
                counters.add_extra("recovery.journal_bytes", r.bytes_replayed as f64);
                counters.add_extra(
                    "recovery.backend_objects_verified",
                    r.backend_objects_verified as f64,
                );
                counters.add_extra(
                    "recovery.backend_objects_repaired",
                    r.backend_objects_repaired as f64,
                );
                outcome.check(true, String::new);
            }
            Err(e) => outcome.check(false, || format!("restart of node {id} failed: {e}")),
        }
    }

    let mut restore_s = 0.0;
    let mut restore_rates = Vec::new();
    for _ in 0..sizes.restore_passes {
        for &(g, s, file_id) in &survivors {
            let (restored, t) = timed(tracer, "core.restore", file_id, || {
                cluster.restore_file_with_report(file_id)
            });
            restore_s += t;
            let ok = restored
                .as_ref()
                .is_ok_and(|(d, _)| d[..] == inputs[g][s][..]);
            outcome.check(ok, || {
                format!("restore of stream {s} generation {g} after restart differs")
            });
            restore_rates.push(inputs[g][s].len() as f64 / t / 1e6);
            if let (Some(_), Ok((_, report))) = (tracer, &restored) {
                counters.restore.add(report);
            }
        }
    }
    let rss_growth_mb = rss_mb() - rss_before;
    if tracer.is_some() {
        let logical = logical_bytes.max(1) as f64;
        counters.clusters.push(stats.clone());
        counters.add_extra(
            "storage.journal_bytes_per_logical_byte",
            journal as f64 / logical,
        );
        counters.add_extra(
            "storage.object_bytes_per_logical_byte",
            objects as f64 / logical,
        );
        if let Ok(r) = &gc {
            counters.add_extra("gc.bytes_reclaimed", r.bytes_reclaimed as f64);
            counters.add_extra("gc.containers_compacted", r.containers_compacted as f64);
        }
        counters.add_extra(
            "gc.disk_bytes_delta",
            disk_after as f64 - disk_before as f64,
        );
    }

    Ok(Cycle {
        setup_s,
        backup_s,
        backup_rates,
        gc_s,
        recovery_s,
        restore_s,
        restore_rates,
        dedup_ratio: stats.dedup_ratio,
        stored_per_logical: disk_after as f64 / live_bytes.max(1) as f64,
        rss_growth_mb,
    })
}

/// The untraced run: a warm-up cycle, then cycles on fresh datasets until
/// the budget is spent; medians reported.
pub fn run(sizes: &Sizes, seed: u64, budget: &Budget) -> Outcome {
    let mut outcome = Outcome::default();
    let mut counters = LayerCounters::default();
    let mut inputs = Vec::new();
    let repeated = repeat(budget, sizes.min_cycles, |i| {
        let seed = derive_seed(seed, i);
        cycle(sizes, seed, &mut inputs, &mut outcome, None, &mut counters)
    });
    let (warmup, cycles) = match repeated {
        Ok(done) => done,
        Err(e) => {
            outcome.check(false, || e);
            return outcome;
        }
    };
    let col = |f: fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<f64>>();
    outcome.median("setup_s", "s", &col(|c| c.setup_s));
    let pooled = |f: fn(&Cycle) -> &Vec<f64>| -> Vec<f64> {
        cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    outcome.median("backup_mbps", "MB/s", &pooled(|c| &c.backup_rates));
    outcome.median("restore_mbps", "MB/s", &pooled(|c| &c.restore_rates));
    outcome.median("dedup_ratio", "ratio", &col(|c| c.dedup_ratio));
    outcome.median(
        "stored_bytes_per_logical_byte",
        "ratio",
        &col(|c| c.stored_per_logical),
    );
    outcome.single("rss_growth_mb", "MB", warmup.rss_growth_mb);
    outcome.median("gc_s", "s", &col(|c| c.gc_s));
    outcome.median("recovery_s", "s", &col(|c| c.recovery_s));
    outcome
}

/// The traced run: one untraced cycle to compare against, then one cycle
/// with a span around every layer call.
pub fn run_traced(sizes: &Sizes, seed: u64) -> (Outcome, Tracer, LayerCounters) {
    let mut outcome = Outcome::default();
    let mut counters = LayerCounters::default();
    let tracer = Tracer::default();
    let seed = derive_seed(seed, 0);
    let mut inputs = Vec::new();
    let mut untraced_counters = LayerCounters::default();
    let untraced = cycle(
        sizes,
        seed,
        &mut inputs,
        &mut outcome,
        None,
        &mut untraced_counters,
    );
    let traced = untraced.and_then(|untraced| {
        cycle(
            sizes,
            seed,
            &mut inputs,
            &mut outcome,
            Some(&tracer),
            &mut counters,
        )
        .map(|_| untraced)
    });
    match traced {
        Ok(untraced) => {
            let times = crate::trace::self_times(&tracer.spans());
            outcome.single("trace.overhead", "ratio", times.wall_s / untraced.op_s());
            let backup_layers: f64 = super::BACKUP_LAYERS.iter().map(|n| times.get(n)).sum();
            let speedup = backup_layers / untraced.backup_s;
            outcome.single("core.pipeline_speedup", "ratio", speedup);
        }
        Err(e) => outcome.check(false, || e),
    }
    (outcome, tracer, counters)
}
