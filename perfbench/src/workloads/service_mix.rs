//! `service_mix`: the full middleware stack served over loopback TCP.
//!
//! A `ServiceConfig` text builds auth → admission → quota → rate limit →
//! fair scheduler → logging in front of a 4-node memory cluster, and
//! `TcpService` serves it.  The load is a closed loop: two persistent
//! connections each send their next request only when the previous one has
//! returned.  Requests belong to four tenants; about half back up a 128 KiB
//! payload cut from one shared base, about half restore a file acknowledged
//! earlier, and a few ask for stats.  Per-request fixed costs (middleware,
//! codec, framing, the per-connection thread, tenant accounting) are a large
//! share here and no fsync or journal path runs.

use super::{repeat, Budget, BACKUP_LAYERS};
use crate::inputs::{derive_seed, shared_base_pool};
use crate::layers::{traced_backup, LayerCounters};
use crate::report::Outcome;
use crate::stats::{median, percentile_label, tail};
use crate::sys::rss_mb;
use crate::trace::{maybe_layer, self_times, Tracer};
use sigma_chunking::ChunkerParams;
use sigma_core::{DedupCluster, SigmaConfig};
use sigma_service::backend::FILE_ID_KEY;
use sigma_service::{
    codec, Backend, BackupService, Operation, RequestEnvelope, ResponseEnvelope, ServiceBuilder,
    ServiceConfig, ServiceResult, ServiceStack, TcpClient, TcpService,
};
use sigma_storage::BackendKind;
use sigma_workloads::DeterministicRng;
use std::sync::Arc;
use std::time::Instant;

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub nodes: usize,
    pub tenants: usize,
    pub connections: usize,
    pub payload_bytes: usize,
    pub base_bytes: usize,
    pub pool: usize,
    /// Requests each connection sends per round.
    pub requests_per_round: usize,
    /// Timed rounds per run at least, each on a freshly built stack.  Two
    /// full-size rounds send about 2,350 backups and as many restores, so
    /// p99 has more than 20 samples beyond it.
    pub min_rounds: usize,
    /// Requests in the script the traced passes replay.
    pub traced_requests: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        nodes: 4,
        tenants: 4,
        connections: 2,
        payload_bytes: 128 << 10,
        base_bytes: 4 << 20,
        pool: 64,
        requests_per_round: 1200,
        min_rounds: 2,
        traced_requests: 400,
    };

    pub const TINY: Sizes = Sizes {
        nodes: 2,
        tenants: 2,
        connections: 2,
        payload_bytes: 16 << 10,
        base_bytes: 64 << 10,
        pool: 4,
        requests_per_round: 12,
        min_rounds: 1,
        traced_requests: 24,
    };
}

fn cluster(sizes: &Sizes) -> Arc<DedupCluster> {
    let config = SigmaConfig::builder()
        .storage_backend(BackendKind::Memory)
        .chunker(ChunkerParams::cdc(1 << 10, 4 << 10, 16 << 10))
        .build()
        .expect("valid service configuration");
    Arc::new(DedupCluster::with_similarity_router(sizes.nodes, config))
}

fn tenant(t: usize) -> String {
    format!("tenant-{t}")
}

fn token(t: usize) -> String {
    format!("secret-{t}")
}

/// The stack description: every layer present, limits far above what two
/// closed-loop connections can reach, so a steady run is never rejected.
fn service_config(sizes: &Sizes) -> String {
    let mut text = String::from("[auth.tokens]\n");
    for t in 0..sizes.tenants {
        text += &format!("\"{}\" = \"{}\"\n", tenant(t), token(t));
    }
    text += "\n[quota.logical_bytes]\n";
    for t in 0..sizes.tenants {
        text += &format!("\"{}\" = {}\n", tenant(t), 1u64 << 40);
    }
    text += "
[rate_limit]
capacity = 1000000
refill_per_sec = 1000000.0

[admission]
max_inflight_requests = 64
max_inflight_bytes = 268435456
retry_after_ms = 10

[fair_scheduler]
quantum_bytes = 262144
max_tenant_inflight_bytes = 8388608
max_concurrent = 8

[logging]
enabled = true
";
    text
}

fn stack(sizes: &Sizes, cluster: Arc<DedupCluster>) -> ServiceStack {
    ServiceConfig::build(&service_config(sizes), cluster).expect("the stack description parses")
}

/// One request of a script.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Backup {
        tenant: usize,
        payload: usize,
    },
    /// Restore the file the `nth` backup of the script created.
    Restore {
        nth: usize,
    },
    Stats {
        tenant: usize,
    },
}

/// Picks the next step: half backups, most of the rest restores of an
/// earlier backup, one in fifty a stats call.
fn next_step(rng: &mut DeterministicRng, sizes: &Sizes, backups_so_far: usize) -> Step {
    let roll = rng.below(100);
    if backups_so_far == 0 || roll < 49 {
        Step::Backup {
            tenant: rng.below(sizes.tenants as u64) as usize,
            payload: rng.below(sizes.pool as u64) as usize,
        }
    } else if roll < 98 {
        Step::Restore {
            nth: rng.below(backups_so_far as u64) as usize,
        }
    } else {
        Step::Stats {
            tenant: rng.below(sizes.tenants as u64) as usize,
        }
    }
}

/// A fixed request sequence for the traced passes.
fn script(seed: u64, sizes: &Sizes) -> Vec<Step> {
    let mut rng = DeterministicRng::new(derive_seed(seed, 7));
    let mut backups = 0;
    (0..sizes.traced_requests)
        .map(|_| {
            let step = next_step(&mut rng, sizes, backups);
            backups += matches!(step, Step::Backup { .. }) as usize;
            step
        })
        .collect()
}

/// An acknowledged backup: who owns it, its file id, which payload it holds.
#[derive(Debug, Clone, Copy)]
struct Acked {
    tenant: usize,
    file_id: u64,
    payload: usize,
}

/// Builds the envelope for `step`; `acked` resolves restore targets.
fn envelope(id: u64, step: Step, pool: &[Vec<u8>], acked: &[Acked]) -> (RequestEnvelope, usize) {
    let (t, op, payload) = match step {
        Step::Backup { tenant, payload } => (
            tenant,
            Operation::Backup {
                file_name: format!("file-{id}"),
                generation: 0,
            },
            pool[payload].clone(),
        ),
        Step::Restore { nth } => (
            acked[nth].tenant,
            Operation::Restore {
                file_id: acked[nth].file_id,
            },
            Vec::new(),
        ),
        Step::Stats { tenant } => (tenant, Operation::Stats, Vec::new()),
    };
    let req = RequestEnvelope::new(id, tenant(t), op)
        .with_payload(payload)
        .with_token(token(t));
    (req, t)
}

/// Checks one response; returns the acknowledgement a backup produced.
fn check_response(
    step: Step,
    tenant: usize,
    resp: Result<&ResponseEnvelope, String>,
    pool: &[Vec<u8>],
    acked: &[Acked],
) -> Result<Option<Acked>, String> {
    let resp = resp?;
    if !resp.is_ok() {
        return Err(format!(
            "{:?} answered {:?}: {}",
            step, resp.code, resp.message
        ));
    }
    match step {
        Step::Backup { payload, .. } => match resp.metadata_u64(FILE_ID_KEY) {
            Some(file_id) => Ok(Some(Acked {
                tenant,
                file_id,
                payload,
            })),
            None => Err("backup acknowledged without a file id".into()),
        },
        Step::Restore { nth } if resp.payload != pool[acked[nth].payload] => Err(format!(
            "restore of file {} returned other bytes",
            acked[nth].file_id
        )),
        _ => Ok(None),
    }
}

/// What one connection of the closed loop saw.
#[derive(Debug, Default)]
struct ConnLog {
    backup_ms: Vec<f64>,
    restore_ms: Vec<f64>,
    other_ms: Vec<f64>,
    failures: Vec<String>,
    acked: Vec<Acked>,
}

/// One closed-loop connection: sends its next request when the previous
/// one has returned, `requests_per_round` times.
fn closed_loop(
    mut client: TcpClient,
    conn: u64,
    seed: u64,
    sizes: &Sizes,
    pool: &[Vec<u8>],
) -> ConnLog {
    let mut rng = DeterministicRng::new(derive_seed(seed, 100 + conn));
    let mut log = ConnLog::default();
    for n in 0..sizes.requests_per_round as u64 {
        let step = next_step(&mut rng, sizes, log.acked.len());
        let (req, t) = envelope((conn << 32) | n, step, pool, &log.acked);
        let start = Instant::now();
        let resp = client.call(&req);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match step {
            Step::Backup { .. } => log.backup_ms.push(ms),
            Step::Restore { .. } => log.restore_ms.push(ms),
            Step::Stats { .. } => log.other_ms.push(ms),
        }
        match check_response(
            step,
            t,
            resp.as_ref().map_err(|e| e.to_string()),
            pool,
            &log.acked,
        ) {
            Ok(Some(a)) => log.acked.push(a),
            Ok(None) => {}
            Err(e) => {
                log.failures.push(e);
                if log.failures.len() > 100 {
                    break; // the service is broken; stop hammering it
                }
            }
        }
    }
    log
}

/// Results of one round on a fresh stack.
struct Round {
    setup_s: f64,
    wall_s: f64,
    logs: Vec<ConnLog>,
    dedup_ratio: f64,
    stored_per_logical: f64,
    rss_growth_mb: f64,
}

fn round(sizes: &Sizes, seed: u64, outcome: &mut Outcome) -> Result<Round, String> {
    let setup = Instant::now();
    let pool = shared_base_pool(seed, sizes.base_bytes, sizes.payload_bytes, sizes.pool);
    let rss_before = rss_mb();
    let cluster = cluster(sizes);
    let stack = Arc::new(stack(sizes, cluster.clone()));
    let mut server = TcpService::bind("127.0.0.1:0", stack).map_err(|e| format!("bind: {e}"))?;
    let clients = (0..sizes.connections)
        .map(|_| TcpClient::connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let setup_s = setup.elapsed().as_secs_f64();

    let start = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let pool = &pool;
                scope.spawn(move || closed_loop(client, c as u64, seed, sizes, pool))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load connection panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = cluster.stats();
    let rss_growth_mb = rss_mb() - rss_before;
    server.shutdown();

    // Every acknowledged backup must still restore to its payload.
    for log in &logs {
        for a in &log.acked {
            let ok = cluster
                .restore_file(a.file_id)
                .is_ok_and(|d| d == pool[a.payload]);
            outcome.check(ok, || {
                format!("acknowledged file {} does not restore", a.file_id)
            });
        }
    }
    Ok(Round {
        setup_s,
        wall_s,
        logs,
        dedup_ratio: stats.dedup_ratio,
        stored_per_logical: stats.physical_bytes as f64 / stats.logical_bytes.max(1) as f64,
        rss_growth_mb,
    })
}

/// The untraced run: a warm-up round, then closed-loop rounds of a fixed
/// request count, each on a fresh payload pool, until the budget is spent.
pub fn run(sizes: &Sizes, seed: u64, budget: &Budget) -> Outcome {
    let mut outcome = Outcome::default();
    let repeated = repeat(budget, sizes.min_rounds, |i| {
        round(sizes, derive_seed(seed, i), &mut outcome)
    });
    let (warmup, rounds) = match repeated {
        Ok(done) => done,
        Err(e) => {
            outcome.check(false, || e);
            return outcome;
        }
    };
    let logs = || rounds.iter().flat_map(|r| r.logs.iter());
    let backup_ms: Vec<f64> = logs().flat_map(|l| l.backup_ms.iter().copied()).collect();
    let restore_ms: Vec<f64> = logs().flat_map(|l| l.restore_ms.iter().copied()).collect();
    let requests = logs()
        .map(|l| l.backup_ms.len() + l.restore_ms.len() + l.other_ms.len())
        .sum::<usize>();
    for log in logs() {
        let ops = log.backup_ms.len() + log.restore_ms.len() + log.other_ms.len();
        outcome.tally(ops as u64, &log.failures);
    }
    let col = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    outcome.median("setup_s", "s", &col(|r| r.setup_s));
    // Every request moves one payload, so a median request's rate is the
    // payload size over its median latency.
    let payload_mb = sizes.payload_bytes as f64 / 1e6;
    let rate = |ms: &[f64]| payload_mb / (median(ms) / 1e3);
    outcome.value("backup_mbps", "MB/s", rate(&backup_ms), backup_ms.len());
    outcome.value("restore_mbps", "MB/s", rate(&restore_ms), restore_ms.len());
    outcome.median("dedup_ratio", "ratio", &col(|r| r.dedup_ratio));
    outcome.median(
        "stored_bytes_per_logical_byte",
        "ratio",
        &col(|r| r.stored_per_logical),
    );
    outcome.single("rss_growth_mb", "MB", warmup.rss_growth_mb);
    for (op, samples) in [("backup", &backup_ms), ("restore", &restore_ms)] {
        outcome.median(&format!("{op}_p50_ms"), "ms", samples);
        if let Some((p, value)) = tail(samples) {
            let name = format!("{op}_{}_ms", percentile_label(p));
            outcome.value(&name, "ms", value, samples.len());
        }
    }
    let wall: f64 = col(|r| r.wall_s).iter().sum();
    outcome.value("requests_per_s", "1/s", requests as f64 / wall, requests);
    outcome
}

/// Puts every call into the wrapped stack in a `service.middleware` span:
/// the span's self time is the middleware's, its child the backend's.
struct TracedStack {
    stack: ServiceStack,
    tracer: Arc<Tracer>,
}

impl Backend for TracedStack {
    fn call(&self, req: RequestEnvelope) -> ServiceResult {
        let request = req.request_id;
        Ok(self
            .tracer
            .layer("service.middleware", request, || self.stack.call(req)))
    }
}

/// Puts every `BackupService` call in a `service.backend_call` span.
struct TracedBackend {
    backend: BackupService,
    tracer: Arc<Tracer>,
}

impl Backend for TracedBackend {
    fn call(&self, req: RequestEnvelope) -> ServiceResult {
        let request = req.request_id;
        self.tracer
            .layer("service.backend_call", request, || self.backend.call(req))
    }
}

/// One connection replaying the script against its own server and cluster.
struct Replay {
    client: TcpClient,
    /// Traced replays put each call in a `service.transport` span, whose
    /// self time is everything between the client and the server's stack.
    tracer: Option<Arc<Tracer>>,
    acked: Vec<Acked>,
    call_s: f64,
    backup_s: f64,
}

impl Replay {
    /// Sends step `i` and checks the answer; returns the exchange.
    fn step(
        &mut self,
        i: usize,
        step: Step,
        pool: &[Vec<u8>],
        outcome: &mut Outcome,
    ) -> Option<(RequestEnvelope, ResponseEnvelope)> {
        if matches!(step, Step::Restore { nth } if nth >= self.acked.len()) {
            outcome.check(false, || format!("step {i} restores a backup that failed"));
            return None;
        }
        let (req, t) = envelope(i as u64, step, pool, &self.acked);
        let start = Instant::now();
        let client = &mut self.client;
        let call = || client.call(&req).map_err(|e| e.to_string());
        let resp = maybe_layer(self.tracer.as_deref(), "service.transport", i as u64, call);
        let took = start.elapsed().as_secs_f64();
        self.call_s += took;
        if matches!(step, Step::Backup { .. }) {
            self.backup_s += took;
        }
        match check_response(
            step,
            t,
            resp.as_ref().map_err(Clone::clone),
            pool,
            &self.acked,
        ) {
            Ok(a) => {
                self.acked.extend(a);
                outcome.check(true, String::new);
            }
            Err(e) => outcome.check(false, || e),
        }
        resp.ok().map(|resp| (req, resp))
    }
}

/// A server for the replay: the configured stack over a fresh cluster, with
/// spans around the stack and the backend when a tracer is given.
fn replay_server(
    sizes: &Sizes,
    tracer: Option<&Arc<Tracer>>,
) -> std::io::Result<(TcpService, Replay)> {
    let stack = match tracer {
        Some(tracer) => {
            let backend = TracedBackend {
                backend: BackupService::new(cluster(sizes)),
                tracer: tracer.clone(),
            };
            let stack = ServiceConfig::parse(&service_config(sizes))
                .expect("the stack description parses")
                .into_builder()
                .build_with_backend(Arc::new(backend));
            let outer = TracedStack {
                stack,
                tracer: tracer.clone(),
            };
            ServiceBuilder::new().build_with_backend(Arc::new(outer))
        }
        None => stack(sizes, cluster(sizes)),
    };
    let server = TcpService::bind("127.0.0.1:0", Arc::new(stack))?;
    let client = TcpClient::connect(server.local_addr())?;
    let replay = Replay {
        client,
        tracer: tracer.cloned(),
        acked: Vec::new(),
        call_s: 0.0,
        backup_s: 0.0,
    };
    Ok((server, replay))
}

/// The tracer back from the servers, which have all shut down.
fn unwrap_tracer(tracer: Arc<Tracer>) -> Tracer {
    Arc::try_unwrap(tracer).expect("every server holding the tracer has shut down")
}

/// The traced run: one seeded script through the re-composed core path,
/// then over TCP with spans around the transport, the middleware stack and
/// the backend, each on a fresh cluster; the codec is timed over every
/// traced exchange.
pub fn run_traced(sizes: &Sizes, seed: u64) -> (Outcome, Tracer, LayerCounters) {
    let mut outcome = Outcome::default();
    let mut counters = LayerCounters::default();
    let tracer = Arc::new(Tracer::default());
    let pool = shared_base_pool(seed, sizes.base_bytes, sizes.payload_bytes, sizes.pool);
    let steps = script(seed, sizes);

    // Core layers, as `BackupService` drives them for each request.
    let core = cluster(sizes);
    let sessions: Vec<u64> = (0..sizes.tenants)
        .map(|t| {
            core.director()
                .open_tenant_session(&format!("client-{t}"), 0, &tenant(t))
        })
        .collect();
    let mut files: Vec<(u64, usize)> = Vec::new();
    for (i, &step) in steps.iter().enumerate() {
        let request = i as u64;
        match step {
            Step::Backup { tenant: t, payload } => {
                let name = format!("file-{i}");
                match traced_backup(
                    &tracer,
                    &core,
                    sessions[t],
                    t as u64,
                    &name,
                    &pool[payload],
                    request,
                ) {
                    Ok((file_id, counts)) => {
                        counters.add_backup(&counts);
                        files.push((file_id, payload));
                    }
                    Err(e) => outcome.check(false, || format!("traced backup {i} failed: {e}")),
                }
            }
            Step::Restore { nth } if nth >= files.len() => {
                outcome.check(false, || format!("step {i} restores a backup that failed"));
            }
            Step::Restore { nth } => {
                let (file_id, payload) = files[nth];
                let restored = tracer.layer("core.restore", request, || {
                    core.restore_file_with_report(file_id)
                });
                let ok = restored.as_ref().is_ok_and(|(d, _)| *d == pool[payload]);
                outcome.check(ok, || format!("traced restore of file {file_id} differs"));
                if let Ok((_, report)) = &restored {
                    counters.restore.add(report);
                }
            }
            Step::Stats { .. } => {
                tracer.layer("core.stats", request, || core.stats());
            }
        }
    }
    tracer.layer("storage.flush", 0, || core.flush());
    counters.clusters.push(core.stats());

    // Over TCP, traced and untraced in lockstep so that neither runs on a
    // warmer machine.  The traced server's spans nest under the client's
    // span, since the client waits while the server works.
    let servers = replay_server(sizes, Some(&tracer))
        .and_then(|traced| Ok((traced, replay_server(sizes, None)?)));
    let Ok(((traced_server, mut traced), (untraced_server, mut untraced))) = servers else {
        outcome.check(false, || "the TCP replay could not start".into());
        return (outcome, unwrap_tracer(tracer), counters);
    };
    for (i, &step) in steps.iter().enumerate() {
        untraced.step(i, step, &pool, &mut outcome);
        let Some((req, resp)) = traced.step(i, step, &pool, &mut outcome) else {
            continue;
        };
        // The codec work of the exchange: both directions, both sides.
        let back = tracer.layer("service.codec", i as u64, || {
            let req_bytes = codec::encode_request(&req).ok()?;
            let resp_bytes = codec::encode_response(&resp).ok()?;
            Some((
                codec::decode_request(&req_bytes).ok()?,
                codec::decode_response(&resp_bytes).ok()?,
            ))
        });
        let ok = back.is_some_and(|(r, s)| r == req && s == resp);
        outcome.check(ok, || format!("codec round trip of exchange {i} differs"));
    }
    drop((traced, traced_server, untraced_server));

    let times = self_times(&tracer.spans());
    outcome.single(
        "service.stack_call_s",
        "s",
        times.total("service.middleware"),
    );
    outcome.single("service.tcp_call_s", "s", times.total("service.transport"));
    outcome.single(
        "trace.overhead",
        "ratio",
        times.total("service.transport") / untraced.call_s,
    );
    let backup_layers: f64 = BACKUP_LAYERS.iter().map(|n| times.get(n)).sum();
    outcome.single(
        "core.pipeline_speedup",
        "ratio",
        backup_layers / untraced.backup_s,
    );
    (outcome, unwrap_tracer(tracer), counters)
}
