//! The container-aware restore pipeline: plan → coalesce → cache → assemble.
//!
//! This is the only way chunk bytes leave a container.  A whole-file restore
//! runs it over the recipe; [`DedupCluster::read_chunk`] runs it over one
//! entry.  The work is organised around *containers*, the unit the storage
//! layer is actually fast at:
//!
//! 1. **Plan** — walk the recipe once, resolving every entry to its record
//!    extent with a counted chunk-index lookup that follows forwarding
//!    tombstones, and group the entries by `(node, container)`.  Each entry's
//!    output window is sized from the extent the index returns, not from the
//!    recipe's `len`.
//! 2. **Coalesce** — each group becomes one
//!    [`read_chunks_batched`](sigma_storage::ContainerStore::read_chunks_batched)
//!    call: adjacent/nearby extents merge into one backend read per run, and a
//!    [container read cache](sigma_storage::ContainerReadCache) serves repeat
//!    visits from RAM.
//! 3. **Assemble** — every chunk decodes *directly* into its window of the
//!    preallocated output buffer, so each byte is copied exactly once.
//! 4. **Fan out** — groups run on the ingest pipeline's worker pool
//!    ([`run_pool`]), `SigmaConfig::restore_parallelism` wide; output order
//!    is free because each group writes disjoint windows.
//! 5. **Re-plan** — a group whose batched read fails with
//!    [`SigmaError::ChunkMigrated`] or [`SigmaError::ChunkMissing`] (a
//!    migration or GC moved its container after the plan located it) locates
//!    its entries again from their recipe node and reads again, for at most
//!    as many rounds as the membership directory has nodes.  Any other error
//!    is final, and so is a re-located extent whose length differs from its
//!    window.
//!
//! A failed restore returns the error of the earliest failing recipe entry.
//! A restore whose reads all succeed passes one end-to-end size check: the
//! rebuilt byte count must equal the recipe's `size`, or the restore returns
//! [`SigmaError::RestoreTruncated`].

use crate::cluster::DedupCluster;
use crate::director::{FileId, FileRecipe};
use crate::node::DedupNode;
use crate::pipeline::run_pool;
use crate::{Result, SigmaError};
use sigma_hashkit::Fingerprint;
use sigma_storage::{BatchedReadStats, ChunkFetch, ChunkLocation, ContainerId};
use std::collections::HashMap;
use std::sync::Arc;

/// What one planned restore did — the pipeline's observability surface,
/// aggregated into `sigma_metrics::RestoreCounters` by the service layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestoreReport {
    /// Logical bytes delivered to the caller.
    pub logical_bytes: u64,
    /// Chunk payloads decoded.
    pub chunks_read: u64,
    /// Batched `(node, container)` reads that succeeded.
    pub containers_read: u64,
    /// Container-read-cache hits across groups.
    pub cache_hits: u64,
    /// Container-read-cache misses across groups.
    pub cache_misses: u64,
    /// Bytes actually read from storage backends (RAM serves count as their
    /// logical length, cache hits as zero).
    pub backend_bytes_read: u64,
    /// Backend reads issued after extent coalescing.
    pub coalesced_runs: u64,
    /// Payload bytes memcpy'd while assembling the output.  The pipeline
    /// writes each byte exactly once (`bytes_copied == logical_bytes`); the
    /// reference path's per-chunk `Vec` + `extend_from_slice` costs two.
    pub bytes_copied: u64,
    /// Chunks the pipeline re-planned: located again, after a migration or
    /// GC moved their container between the plan and the read.  A chunk
    /// re-planned in several rounds counts once per round.
    pub serial_fallback_chunks: u64,
    /// Worker threads the group fan-out ran on.
    pub parallelism: usize,
}

impl RestoreReport {
    /// Backend bytes read per logical byte restored (0 when nothing was
    /// restored); below 1.0 means the read cache absorbed repeat visits.
    pub fn read_amplification(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            self.backend_bytes_read as f64 / self.logical_bytes as f64
        }
    }

    /// Counts one successful batched read that copied `copied` payload bytes.
    fn absorb_read(&mut self, s: &BatchedReadStats, copied: u64) {
        self.chunks_read += s.chunks;
        self.containers_read += 1;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
        self.coalesced_runs += s.coalesced_runs;
        self.bytes_copied += copied;
        // Served from RAM: count the logical bytes so read amplification
        // stays 1.0 on volatile backends — but a cache hit genuinely skipped
        // the medium.
        self.backend_bytes_read += if s.backend_bytes_read == 0 && s.cache_hits == 0 {
            copied
        } else {
            s.backend_bytes_read
        };
    }

    fn absorb_group(&mut self, g: &RestoreReport) {
        self.chunks_read += g.chunks_read;
        self.containers_read += g.containers_read;
        self.cache_hits += g.cache_hits;
        self.cache_misses += g.cache_misses;
        self.backend_bytes_read += g.backend_bytes_read;
        self.coalesced_runs += g.coalesced_runs;
        self.bytes_copied += g.bytes_copied;
        self.serial_fallback_chunks += g.serial_fallback_chunks;
    }
}

/// A planned fetch's recipe entry: its index, which orders failures, and the
/// node the *recipe* recorded, which a re-plan follows tombstones from (not
/// wherever the plan last saw the chunk).
type Entry = (usize, usize);

/// All of one container's planned fetches — the unit of fan-out.
struct Group<'a> {
    node: Arc<DedupNode>,
    container: ContainerId,
    /// One entry per fetch, in recipe order.
    entries: Vec<Entry>,
    fetches: Vec<ChunkFetch<'a>>,
}

/// A failed recipe entry: its index and its error.
type Failure = (usize, SigmaError);

/// Keeps the failure of the earliest recipe entry.
fn keep_earliest(slot: &mut Option<Failure>, failure: Failure) {
    if slot.as_ref().map_or(true, |(i, _)| failure.0 < *i) {
        *slot = Some(failure);
    }
}

/// Groups located fetches by `(node, container)`, in order of each group's
/// first recipe index.  Fetches arrive in recipe order, so each group's
/// fetches stay in recipe order too.
fn group_fetches<'a>(
    located: impl IntoIterator<Item = (Arc<DedupNode>, ContainerId, Entry, ChunkFetch<'a>)>,
) -> Vec<Group<'a>> {
    let mut by_container: HashMap<(usize, ContainerId), Group<'a>> = HashMap::new();
    for (node, container, entry, fetch) in located {
        let group = by_container
            .entry((node.id(), container))
            .or_insert_with(|| Group {
                node,
                container,
                entries: Vec::new(),
                fetches: Vec::new(),
            });
        group.entries.push(entry);
        group.fetches.push(fetch);
    }
    let mut groups: Vec<Group<'a>> = by_container.into_values().collect();
    groups.sort_unstable_by_key(|g| g.entries[0].0);
    groups
}

impl DedupCluster {
    /// Reconstructs a file and reports what the restore pipeline did.
    ///
    /// Runs the planned pipeline at
    /// [`SigmaConfig::effective_restore_parallelism`](crate::SigmaConfig::effective_restore_parallelism);
    /// [`restore_file`](Self::restore_file) is this without the report.
    ///
    /// # Errors
    ///
    /// Exactly as [`restore_file`](Self::restore_file).
    pub fn restore_file_with_report(&self, file_id: FileId) -> Result<(Vec<u8>, RestoreReport)> {
        let workers = self.config().effective_restore_parallelism();
        self.restore_file_pipelined(file_id, workers)
    }

    /// Reconstructs a file on the planned pipeline with an explicit worker
    /// count, bypassing the `restore_parallelism` knob — the entry point the
    /// equivalence proptests and benches sweep.
    ///
    /// # Errors
    ///
    /// Exactly as [`restore_file`](Self::restore_file).
    pub fn restore_file_pipelined(
        &self,
        file_id: FileId,
        workers: usize,
    ) -> Result<(Vec<u8>, RestoreReport)> {
        let recipe = self
            .director()
            .recipe(file_id)
            .ok_or(SigmaError::FileNotFound(file_id))?;
        self.restore_planned(file_id, &recipe, workers.max(1))
    }

    /// Reads one chunk back from the node a recipe recorded for it: the
    /// restore pipeline run over a single entry, so forwarding tombstones are
    /// followed and a read racing a migration is re-planned.
    ///
    /// # Errors
    ///
    /// Propagates [`SigmaError::ChunkMissing`] / [`SigmaError::PayloadUnavailable`]
    /// from the node.
    pub fn read_chunk(&self, node: usize, fingerprint: &Fingerprint) -> Result<Vec<u8>> {
        let hop_cap = self.directory_len();
        let (located, location) = self.locate_chunk(node, fingerprint, hop_cap)?;
        let mut out = vec![0u8; location.len as usize];
        let group = Group {
            node: located,
            container: location.container,
            entries: vec![(0, node)],
            fetches: vec![ChunkFetch {
                fingerprint: *fingerprint,
                offset: location.offset,
                out: &mut out,
            }],
        };
        self.fetch_group(group, hop_cap).map_err(|(_, e)| e)?;
        Ok(out)
    }

    /// The plan → coalesce → assemble core.
    fn restore_planned(
        &self,
        file_id: FileId,
        recipe: &FileRecipe,
        workers: usize,
    ) -> Result<(Vec<u8>, RestoreReport)> {
        // Plan: locate entries in recipe order.  A locate failure ends the
        // plan; the entries before it are still read, so a read failure of an
        // earlier entry takes precedence.
        let hop_cap = self.directory_len();
        let mut failure: Option<Failure> = None;
        let mut located = Vec::with_capacity(recipe.chunks.len());
        for (index, entry) in recipe.chunks.iter().enumerate() {
            match self.locate_chunk(entry.node, &entry.fingerprint, hop_cap) {
                Ok(hit) => located.push(hit),
                Err(error) => {
                    failure = Some((index, error));
                    break;
                }
            }
        }
        let total: u64 = located.iter().map(|(_, l)| u64::from(l.len)).sum();

        // Carve the output into one disjoint window per located entry;
        // chained `split_at_mut` keeps this safe-code-only.
        let mut out = vec![0u8; total as usize];
        let mut rest: &mut [u8] = out.as_mut_slice();
        let planned = located.into_iter().zip(&recipe.chunks).enumerate().map(
            |(index, ((node, location), entry))| {
                let (window, tail) = std::mem::take(&mut rest).split_at_mut(location.len as usize);
                rest = tail;
                let fetch = ChunkFetch {
                    fingerprint: entry.fingerprint,
                    offset: location.offset,
                    out: window,
                };
                (node, location.container, (index, entry.node), fetch)
            },
        );
        let groups = group_fetches(planned);

        let mut report = RestoreReport {
            logical_bytes: total,
            parallelism: workers,
            ..RestoreReport::default()
        };
        for outcome in run_pool(workers, groups, |_, group| self.fetch_group(group, hop_cap)) {
            match outcome {
                Ok(stats) => report.absorb_group(&stats),
                Err(f) => keep_earliest(&mut failure, f),
            }
        }
        if let Some((_, error)) = failure {
            return Err(error);
        }
        if total != recipe.size {
            return Err(SigmaError::RestoreTruncated {
                file_id,
                expected: recipe.size,
                actual: total,
            });
        }
        Ok((out, report))
    }

    /// Resolves a fingerprint to `(owning node, record extent)`, following
    /// forwarding tombstones for at most `hop_cap` hops — the only tombstone
    /// walk on the read path.
    fn locate_chunk(
        &self,
        node: usize,
        fingerprint: &Fingerprint,
        hop_cap: usize,
    ) -> Result<(Arc<DedupNode>, ChunkLocation)> {
        let mut node_id = node;
        let mut hops = 0usize;
        loop {
            let current = self
                .node_by_id(node_id)
                .ok_or_else(|| SigmaError::ChunkMissing {
                    node: node_id,
                    fingerprint: fingerprint.to_string(),
                })?;
            match current.plan_chunk_read(fingerprint) {
                Ok(location) => return Ok((current, location)),
                Err(SigmaError::ChunkMigrated { node: next, .. }) => {
                    hops += 1;
                    if hops > hop_cap {
                        return Err(SigmaError::ChunkMissing {
                            node: next,
                            fingerprint: fingerprint.to_string(),
                        });
                    }
                    node_id = next;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs one group: a batched container read, re-planned for at most
    /// `hop_cap` rounds while it fails because the container moved.  Returns
    /// the group's counters, or the failure of its earliest failing entry.
    fn fetch_group(
        &self,
        group: Group<'_>,
        hop_cap: usize,
    ) -> std::result::Result<RestoreReport, Failure> {
        let mut stats = RestoreReport::default();
        let mut failure: Option<Failure> = None;
        let mut rounds = 0usize;
        let mut pending = vec![group];
        while let Some(mut group) = pending.pop() {
            match group
                .node
                .read_chunks_batched(&group.container, &mut group.fetches)
            {
                Ok(s) => {
                    let copied = group.fetches.iter().map(|f| f.out.len() as u64).sum();
                    stats.absorb_read(&s, copied);
                }
                Err(SigmaError::ChunkMigrated { .. } | SigmaError::ChunkMissing { .. })
                    if rounds < hop_cap =>
                {
                    rounds += 1;
                    let mut relocated = Vec::with_capacity(group.fetches.len());
                    for (fetch, (index, recipe_node)) in
                        group.fetches.into_iter().zip(group.entries)
                    {
                        match self.locate_chunk(recipe_node, &fetch.fingerprint, hop_cap) {
                            Ok((node, location)) if location.len as usize == fetch.out.len() => {
                                stats.serial_fallback_chunks += 1;
                                let fetch = ChunkFetch {
                                    offset: location.offset,
                                    ..fetch
                                };
                                relocated.push((
                                    node,
                                    location.container,
                                    (index, recipe_node),
                                    fetch,
                                ));
                            }
                            // The extent no longer fits the window the plan
                            // carved for it: never read into the wrong window.
                            Ok((node, _)) => {
                                let error = SigmaError::ChunkMissing {
                                    node: node.id(),
                                    fingerprint: fetch.fingerprint.to_string(),
                                };
                                keep_earliest(&mut failure, (index, error));
                            }
                            Err(error) => keep_earliest(&mut failure, (index, error)),
                        }
                    }
                    pending.extend(group_fetches(relocated));
                }
                Err(error) => {
                    // Charge the error to the entry it names, else to the
                    // group's first entry (a container-wide failure).
                    let named = match &error {
                        SigmaError::PayloadUnavailable { fingerprint } => group
                            .fetches
                            .iter()
                            .position(|f| f.fingerprint.to_string() == *fingerprint),
                        _ => None,
                    };
                    keep_earliest(&mut failure, (group.entries[named.unwrap_or(0)].0, error));
                }
            }
        }
        match failure {
            Some(f) => Err(f),
            None => Ok(stats),
        }
    }
}
