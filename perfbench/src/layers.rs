//! The traced backup and restore paths, re-composed from each layer's public
//! functions so that a span can sit at every layer boundary.
//!
//! [`traced_backup`] performs `BackupClient::backup_reader`'s exact sequence:
//! `ChunkerParams::build` → `Chunker::split` → `FingerprintAlgorithm::fingerprint` →
//! `SuperChunkBuilder::push_chunk` → `SuperChunk::handprint` →
//! `SimilarityRouter::route` over the node map → `DedupNode::process_super_chunk`
//! → `Director::register_file`.  The routing statistics the cluster would
//! keep are kept here instead, from the routing decisions.

use crate::trace::Tracer;
use sigma_core::{
    ChunkDescriptor, ClusterStats, DataRouter, DedupCluster, FileId, RecipeEntry, RestoreReport,
    RoutingContext, SigmaError, SimilarityRouter, SuperChunkBuilder,
};
use std::collections::BTreeMap;

/// Counts the traced paths collect from routing decisions and receipts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BackupCounts {
    pub logical_bytes: u64,
    pub chunks: u64,
    pub duplicate_chunks: u64,
    pub prerouting_lookups: u64,
    pub nodes_contacted: u64,
}

impl BackupCounts {
    fn add(&mut self, other: &BackupCounts) {
        self.logical_bytes += other.logical_bytes;
        self.chunks += other.chunks;
        self.duplicate_chunks += other.duplicate_chunks;
        self.prerouting_lookups += other.prerouting_lookups;
        self.nodes_contacted += other.nodes_contacted;
    }
}

/// Restore counters summed over many [`RestoreReport`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RestoreCounts {
    pub logical_bytes: u64,
    pub backend_bytes_read: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub containers_read: u64,
    pub coalesced_runs: u64,
    pub serial_fallback_chunks: u64,
}

impl RestoreCounts {
    pub fn add(&mut self, r: &RestoreReport) {
        self.logical_bytes += r.logical_bytes;
        self.backend_bytes_read += r.backend_bytes_read;
        self.cache_hits += r.cache_hits;
        self.cache_misses += r.cache_misses;
        self.containers_read += r.containers_read;
        self.coalesced_runs += r.coalesced_runs;
        self.serial_fallback_chunks += r.serial_fallback_chunks;
    }
}

/// One traced file backup into `cluster` under `session_id`.
pub fn traced_backup(
    tracer: &Tracer,
    cluster: &DedupCluster,
    session_id: u64,
    stream: u64,
    name: &str,
    data: &[u8],
    request: u64,
) -> Result<(FileId, BackupCounts), SigmaError> {
    tracer.op("op.backup", request, || {
        let config = cluster.config();
        // The router holds only its configuration; the cluster's own instance
        // is private, so an identical one routes here.
        let router = SimilarityRouter::new(config.capacity_balancing);
        let chunker = tracer.layer("chunking.build", request, || config.chunker.build());
        let algorithm = config.fingerprint_algorithm;
        let file_marker = cluster.director().file_count() as u64;
        let mut counts = BackupCounts {
            logical_bytes: data.len() as u64,
            ..BackupCounts::default()
        };

        let chunks = tracer.layer("chunking.scan", request, || chunker.split(data));
        let mut builder = SuperChunkBuilder::new(config.super_chunk_size);
        let mut pending = Vec::new();
        for chunk in chunks {
            counts.chunks += 1;
            let descriptor = tracer.layer("hashkit.sha1", request, || {
                ChunkDescriptor::new(algorithm.fingerprint(chunk.data()), chunk.len() as u32)
            });
            let emitted = tracer.layer("core.super_chunk_build", request, || {
                builder.push_chunk(descriptor, chunk.into_data())
            });
            pending.extend(emitted);
        }
        pending.extend(tracer.layer("core.super_chunk_build", request, || builder.finish()));

        let mut recipe = Vec::new();
        for sc in pending {
            let handprint = tracer.layer("core.handprint", request, || {
                sc.handprint(config.handprint_size)
            });
            let map = cluster.node_map();
            let decision = tracer.layer("core.route", request, || {
                router.route(&RoutingContext {
                    super_chunk: &sc,
                    handprint: &handprint,
                    file_id: Some(file_marker),
                    nodes: map.nodes(),
                })
            });
            counts.prerouting_lookups += decision.prerouting_lookup_messages;
            counts.nodes_contacted += decision.nodes_contacted;
            let receipt = tracer.layer("core.node_dedup", request, || {
                map.nodes()[decision.target].process_super_chunk(stream, &sc, &handprint)
            })?;
            counts.duplicate_chunks += receipt.duplicate_chunks;
            recipe.extend(sc.descriptors().iter().map(|d| RecipeEntry {
                fingerprint: d.fingerprint,
                len: d.len,
                node: receipt.node_id,
            }));
        }
        let file_id = tracer.layer("core.register_file", request, || {
            cluster
                .director()
                .register_file(session_id, name, data.len() as u64, recipe)
        });
        Ok((file_id, counts))
    })
}

/// Sums of everything the traced passes of one workload saw.
#[derive(Debug, Clone, Default)]
pub struct LayerCounters {
    pub backup: BackupCounts,
    pub restore: RestoreCounts,
    /// Node statistics of each traced cluster, taken after its last backup.
    pub clusters: Vec<ClusterStats>,
    /// Further per-layer values keyed by metric name (journal and object
    /// bytes, recovery and GC counts).
    pub extra: BTreeMap<&'static str, f64>,
}

impl LayerCounters {
    pub fn add_backup(&mut self, counts: &BackupCounts) {
        self.backup.add(counts);
    }

    pub fn add_extra(&mut self, name: &'static str, value: f64) {
        *self.extra.entry(name).or_insert(0.0) += value;
    }

    /// The count-type per-layer metrics, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let b = &self.backup;
        let r = &self.restore;
        let nodes = self.clusters.iter().flat_map(|c| c.nodes.iter());
        let (mut cache_lookups, mut cache_hits, mut evictions) = (0u64, 0u64, 0u64);
        let (mut sim_lookups, mut sim_hits, mut index_lookups, mut sealed) =
            (0u64, 0u64, 0u64, 0u64);
        for n in nodes {
            cache_lookups += n.cache.lookups;
            cache_hits += n.cache.hits;
            evictions += n.cache.evictions;
            sim_lookups += n.similarity_index.lookups;
            sim_hits += n.similarity_index.hits;
            index_lookups += n.chunk_index.lookups;
            sealed += n.containers.sealed_containers;
        }
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mut out = vec![
            ("chunking.chunks", b.chunks as f64),
            ("hashkit.bytes", b.logical_bytes as f64),
            ("core.prerouting_lookups", b.prerouting_lookups as f64),
            ("core.nodes_contacted", b.nodes_contacted as f64),
            (
                "core.duplicate_chunk_share",
                ratio(b.duplicate_chunks, b.chunks),
            ),
            (
                "storage.fingerprint_cache.hit_ratio",
                ratio(cache_hits, cache_lookups),
            ),
            ("storage.fingerprint_cache.evictions", evictions as f64),
            (
                "storage.similarity_index.hit_ratio",
                ratio(sim_hits, sim_lookups),
            ),
            ("storage.chunk_index.lookups", index_lookups as f64),
            ("storage.containers_sealed", sealed as f64),
            (
                "restore.read_amplification",
                ratio(r.backend_bytes_read, r.logical_bytes),
            ),
            (
                "restore.cache_hit_ratio",
                ratio(r.cache_hits, r.cache_hits + r.cache_misses),
            ),
            ("restore.containers_read", r.containers_read as f64),
            ("restore.coalesced_runs", r.coalesced_runs as f64),
            (
                "restore.serial_fallback_chunks",
                r.serial_fallback_chunks as f64,
            ),
        ];
        for name in [
            "storage.journal_bytes_per_logical_byte",
            "storage.object_bytes_per_logical_byte",
            "recovery.journal_bytes",
            "recovery.backend_objects_verified",
            "recovery.backend_objects_repaired",
            "gc.bytes_reclaimed",
            "gc.containers_compacted",
            "gc.disk_bytes_delta",
        ] {
            out.push((name, self.extra.get(name).copied().unwrap_or(0.0)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigma_chunking::ChunkerParams;
    use sigma_core::{BackupClient, SigmaConfig};
    use sigma_storage::BackendKind;
    use sigma_workloads::payload::random_bytes;

    fn cluster() -> DedupCluster {
        let config = SigmaConfig::builder()
            .storage_backend(BackendKind::Memory)
            .chunker(ChunkerParams::cdc(1024, 4096, 16384))
            .super_chunk_size(64 * 1024)
            .build()
            .unwrap();
        DedupCluster::with_similarity_router(3, config)
    }

    /// The re-composed path must store and route exactly what the client
    /// does, or its layer times describe a different program.
    #[test]
    fn traced_backup_matches_backup_client() {
        let data = random_bytes(300_000, 9);
        let again = [
            &data[..100_000],
            &random_bytes(50_000, 10)[..],
            &data[100_000..],
        ]
        .concat();

        let plain = std::sync::Arc::new(cluster());
        let client = BackupClient::new(plain.clone(), 4);
        let a = client.backup_bytes("a", &data).unwrap();
        let b = client.backup_bytes("b", &again).unwrap();
        plain.flush();

        let traced = cluster();
        let tracer = Tracer::default();
        let session = traced.director().open_session("client-4");
        let (fa, ca) = traced_backup(&tracer, &traced, session, 4, "a", &data, 1).unwrap();
        let (fb, cb) = traced_backup(&tracer, &traced, session, 4, "b", &again, 2).unwrap();
        traced.flush();

        assert_eq!((ca.chunks, cb.chunks), (a.chunks, b.chunks));
        assert_eq!(cb.duplicate_chunks, b.duplicate_chunks);
        assert_eq!(traced.restore_file(fa).unwrap(), data);
        assert_eq!(traced.restore_file(fb).unwrap(), again);
        let (ps, ts) = (plain.stats(), traced.stats());
        assert_eq!(ps.physical_bytes, ts.physical_bytes);
        assert_eq!(ps.node_usage, ts.node_usage);
        let recipe = |c: &DedupCluster, f| c.director().recipe(f).unwrap().chunks.clone();
        assert_eq!(recipe(&plain, a.file_id), recipe(&traced, fa));
        assert_eq!(recipe(&plain, b.file_id), recipe(&traced, fb));

        let names: std::collections::BTreeSet<_> = tracer.spans().iter().map(|s| s.name).collect();
        for layer in [
            "op.backup",
            "chunking.build",
            "chunking.scan",
            "hashkit.sha1",
            "core.super_chunk_build",
            "core.handprint",
            "core.route",
            "core.node_dedup",
            "core.register_file",
        ] {
            assert!(names.contains(layer), "{layer} never traced");
        }
    }
}
