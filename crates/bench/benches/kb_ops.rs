//! Microbenchmarks for the Knowledge Base: insert, typed lookup, prefix
//! and suffix queries, and collective-sync acceptance (supports the
//! paper's claim that the knowgget key encoding "allows for fast
//! queries").

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kalis_core::{KalisId, KnowValue, Knowgget, KnowledgeBase};
use kalis_packets::Entity;

fn populated(entries: usize) -> KnowledgeBase {
    let mut kb = KnowledgeBase::new(KalisId::new("K1"));
    for i in 0..entries {
        kb.insert(format!("TrafficFrequency.CLASS{i}"), i as f64 * 0.001);
        kb.insert_about(
            "SignalStrength",
            Entity::new(format!("node-{i}")),
            -40.0 - i as f64,
        );
    }
    kb.drain_changes();
    kb
}

fn bench_kb(c: &mut Criterion) {
    let mut group = c.benchmark_group("kb");
    group.bench_function("insert_update", |b| {
        let mut kb = populated(128);
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            kb.insert("Multihop", flip);
        });
    });
    group.bench_function("get_typed", |b| {
        let mut kb = populated(128);
        kb.insert("MonitoredNodes", 8i64);
        b.iter(|| black_box(kb.get_int("MonitoredNodes")));
    });
    group.bench_function("sublabels_prefix_query", |b| {
        let kb = populated(128);
        b.iter(|| black_box(kb.sublabels("TrafficFrequency").len()));
    });
    group.bench_function("entities_suffix_query", |b| {
        let kb = populated(128);
        b.iter(|| black_box(kb.entities_with("SignalStrength").len()));
    });
    group.bench_function("get_about_hit", |b| {
        let kb = populated(128);
        let node = Entity::new("node-64");
        b.iter(|| black_box(kb.get_about("SignalStrength", &node)));
    });
    group.bench_function("insert_unchanged_collective", |b| {
        // The no-op rewrite most module writes are: same label, same
        // value, already collective.
        let mut kb = populated(128);
        kb.insert_collective("Mobile", true);
        kb.drain_dirty_collective();
        b.iter(|| black_box(kb.insert_collective("Mobile", true)));
    });
    group.bench_function("get_all_creators", |b| {
        // Three creators and ~200 entries, one label queried across all
        // of them (the wormhole correlation query).
        let mut kb = populated(64);
        for peer in ["K2", "K3"] {
            let peer = KalisId::new(peer);
            for i in 0..4 {
                let origins = Knowgget::about(
                    "DroppedOrigins",
                    KnowValue::Text(format!("o{i},o{}", i + 1)),
                    peer.clone(),
                    Entity::new(format!("node-{i}")),
                );
                kb.accept_remote(&peer, origins).unwrap();
            }
            for i in 0..30 {
                let rate = Knowgget::new(
                    format!("TrafficFrequency.CLASS{i}"),
                    KnowValue::Float(i as f64 * 0.5 + 0.25),
                    peer.clone(),
                );
                kb.accept_remote(&peer, rate).unwrap();
            }
        }
        assert!((190..=210).contains(&kb.len()), "{} entries", kb.len());
        b.iter(|| black_box(kb.get_all_creators("DroppedOrigins").len()));
    });
    group.bench_function("accept_remote", |b| {
        let mut kb = populated(32);
        let k2 = KalisId::new("K2");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let knowgget = Knowgget::new("Mobile", KnowValue::Int(i as i64), k2.clone());
            black_box(kb.accept_remote(&k2, knowgget).unwrap());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_kb);
criterion_main!(benches);
