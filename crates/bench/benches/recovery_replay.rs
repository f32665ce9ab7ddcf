//! Recovery-replay throughput: how fast a crashed node comes back.
//!
//! Not a figure of the paper — its prototype has no durability story — but the
//! metric that gates restart latency once nodes journal: MB/s of write-ahead-log
//! replay, i.e. how quickly [`DedupNode::recover`] turns journal bytes back into
//! a serving node (containers reinstalled, chunk + similarity indexes rebuilt).
//! The byte basis is *journal bytes consumed* — neither logical client bytes
//! nor physical container bytes — so raw and compacted numbers are comparable
//! to each other but not to ingest MB/s.
//!
//! The banner prints a one-shot table comparing a raw (append-by-append) journal
//! against its compacted (single-snapshot) form at a reporting scale; criterion
//! then measures both replay paths on a mid-size journal.  The journal images
//! are the `sigma-bench` runner's: before compacting, every other sealed
//! container is swept as dead, so compaction has superseded records to fold
//! away.  Compaction replay should win: one frame instead of thousands.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sigma_bench::runner::{journal_image, replay_config};
use sigma_core::{DedupNode, SigmaConfig};
use sigma_storage::Journal;
use std::sync::Arc;

fn recover(config: &SigmaConfig, image: &[u8]) -> u64 {
    let journal = Arc::new(Journal::from_bytes(image.to_vec()));
    let (node, report) = DedupNode::recover(0, config, journal).expect("recovery cannot fail");
    assert!(report.containers_recovered > 0);
    node.storage_usage()
}

fn report() {
    sigma_bench::banner(
        "recovery replay",
        "journal-replay throughput of DedupNode::recover, raw vs compacted log",
    );
    let config = replay_config();
    let mut table = sigma_metrics::report::TextTable::new(vec![
        "journal",
        "payload MiB",
        "journal MiB",
        "replay MB/s",
    ]);
    for (label, payload_bytes, compacted) in [
        ("raw", 4 << 20, false),
        ("raw", 16 << 20, false),
        ("compacted", 16 << 20, true),
    ] {
        let image = journal_image(&config, payload_bytes, compacted);
        let sw = sigma_metrics::Stopwatch::start();
        let recovered = recover(&config, &image);
        let tp = sw.stop(image.len() as u64);
        assert!(recovered > 0);
        table.add_row(vec![
            label.to_string(),
            format!("{:.1}", payload_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", image.len() as f64 / (1 << 20) as f64),
            format!("{:.1}", tp.mb_per_sec()),
        ]);
    }
    sigma_bench::print_table("recovery replay throughput", &table.render());
}

fn bench(c: &mut Criterion) {
    report();

    let config = replay_config();
    let raw = journal_image(&config, 8 << 20, false);
    let compacted = journal_image(&config, 8 << 20, true);

    let mut group = c.benchmark_group("recovery_replay");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("raw_journal", |b| b.iter(|| recover(&config, &raw)));
    group.throughput(Throughput::Bytes(compacted.len() as u64));
    group.bench_function("compacted_journal", |b| {
        b.iter(|| recover(&config, &compacted))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
