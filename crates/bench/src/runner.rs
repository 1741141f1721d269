//! Drives each IDS over a scenario's captured traffic and unifies their
//! outputs into [`Detection`]s for scoring.

use std::time::Duration;

use kalis_baselines::snort::{SnortAlert, SnortIds};
use kalis_baselines::traditional;
use kalis_core::knowledge::{PeerRegistry, XorChannel};
use kalis_core::metrics::ResourceMeter;
use kalis_core::response::Revocation;
use kalis_core::{Alert, AttackKind, Kalis, KalisId};
use kalis_packets::{CapturedPacket, Entity, Timestamp};
use kalis_telemetry::TelemetrySnapshot;

/// A system-agnostic detection event.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detection time.
    pub time: Timestamp,
    /// Claimed classification.
    pub attack: AttackKind,
    /// Claimed victim.
    pub victim: Option<Entity>,
    /// Claimed suspects.
    pub suspects: Vec<Entity>,
}

impl From<Alert> for Detection {
    fn from(alert: Alert) -> Self {
        Detection {
            time: alert.time,
            attack: alert.attack,
            victim: alert.victim,
            suspects: alert.suspects,
        }
    }
}

impl From<SnortAlert> for Detection {
    fn from(alert: SnortAlert) -> Self {
        Detection {
            time: alert.time,
            attack: alert.attack_hint(),
            victim: Some(Entity::new(alert.dst.to_string())),
            suspects: vec![Entity::new(alert.src.to_string())],
        }
    }
}

/// The outcome of one IDS run over one capture stream.
#[derive(Debug)]
pub struct RunOutcome {
    /// Unified detections.
    pub detections: Vec<Detection>,
    /// Resource accounting.
    pub meter: ResourceMeter,
    /// Revocations issued (empty for Snort, which has no response engine).
    pub revocations: Vec<Revocation>,
    /// Full telemetry snapshot (per-stage latency histograms, KB churn,
    /// journal) — `None` for systems without a telemetry registry
    /// (Snort).
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Run an adaptive Kalis node (full default library, autonomous knowledge
/// discovery) over a capture stream.
pub fn run_kalis(captures: &[CapturedPacket]) -> RunOutcome {
    let mut kalis = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .build();
    run_kalis_instance(&mut kalis, captures)
}

/// Run a pre-built Kalis (or traditional) instance over a capture stream.
pub fn run_kalis_instance(kalis: &mut Kalis, captures: &[CapturedPacket]) -> RunOutcome {
    for packet in captures {
        kalis.ingest(packet.clone());
    }
    if let Some(last) = captures.last() {
        // Final housekeeping tick so window-based detectors flush.
        kalis.tick(last.timestamp + Duration::from_secs(2));
    }
    RunOutcome {
        detections: kalis
            .drain_alerts()
            .into_iter()
            .map(Detection::from)
            .collect(),
        meter: kalis.meter(),
        revocations: kalis.response().history().to_vec(),
        telemetry: Some(kalis.telemetry().snapshot()),
    }
}

/// Run the traditional-IDS baseline (all modules always on, one
/// randomly-chosen replication variant per run).
pub fn run_traditional(captures: &[CapturedPacket], seed: u64) -> RunOutcome {
    let mut ids = traditional::build_with_seed("T1", seed);
    run_kalis_instance(&mut ids, captures)
}

/// Run the Snort baseline with its community ruleset.
pub fn run_snort(captures: &[CapturedPacket]) -> RunOutcome {
    let mut snort = SnortIds::with_community_rules();
    for packet in captures {
        snort.process(packet);
    }
    RunOutcome {
        detections: snort
            .drain_alerts()
            .into_iter()
            .map(Detection::from)
            .collect(),
        meter: snort.meter(),
        revocations: Vec::new(),
        telemetry: None,
    }
}

/// Run two collaborating Kalis nodes over two vantage points, exchanging
/// collective knowledge through the (stand-in) encrypted channel every
/// 500 ms of capture time — the §VI-D deployment.
///
/// Returns the outcomes for node A and node B.
pub fn run_kalis_pair(
    captures_a: &[CapturedPacket],
    captures_b: &[CapturedPacket],
) -> (RunOutcome, RunOutcome) {
    let (mut a, mut b) =
        run_kalis_pair_nodes(captures_a, captures_b, kalis_telemetry::SampleRate::off());
    let out_a = RunOutcome {
        detections: a.drain_alerts().into_iter().map(Detection::from).collect(),
        meter: a.meter(),
        revocations: a.response().history().to_vec(),
        telemetry: Some(a.telemetry().snapshot()),
    };
    let out_b = RunOutcome {
        detections: b.drain_alerts().into_iter().map(Detection::from).collect(),
        meter: b.meter(),
        revocations: b.response().history().to_vec(),
        telemetry: Some(b.telemetry().snapshot()),
    };
    (out_a, out_b)
}

/// Same collaborative run as [`run_kalis_pair`], but returns the nodes
/// themselves (alerts undrained) so callers can inspect alert
/// provenance, traces, and knowledge state — with causal tracing at the
/// given sample rate on both vantage points.
pub fn run_kalis_pair_nodes(
    captures_a: &[CapturedPacket],
    captures_b: &[CapturedPacket],
    sampling: kalis_telemetry::SampleRate,
) -> (Kalis, Kalis) {
    let mut a = Kalis::builder(KalisId::new("K1"))
        .with_default_modules()
        .with_trace_sampling(sampling)
        .build();
    let mut b = Kalis::builder(KalisId::new("K2"))
        .with_default_modules()
        .with_trace_sampling(sampling)
        .build();
    let channel = XorChannel::new(0x6b616c6973);
    // Discovery-through-advertisement (paper §V): each node learns of the
    // other from its broadcast beacon before any knowledge flows.
    let mut peers_a = PeerRegistry::new(a.id().clone());
    let mut peers_b = PeerRegistry::new(b.id().clone());
    let mut ia = 0usize;
    let mut ib = 0usize;
    let mut next_sync = Timestamp::ZERO + Duration::from_millis(500);
    loop {
        let ta = captures_a.get(ia).map(|c| c.timestamp);
        let tb = captures_b.get(ib).map(|c| c.timestamp);
        let (node_is_a, ts) = match (ta, tb) {
            (None, None) => break,
            (Some(t), None) => (true, t),
            (None, Some(t)) => (false, t),
            (Some(x), Some(y)) => {
                if x <= y {
                    (true, x)
                } else {
                    (false, y)
                }
            }
        };
        // Periodic beaconing + knowledge exchange on the capture clock.
        while ts >= next_sync {
            let beacon_a = peers_a.own_beacon().encode();
            let beacon_b = peers_b.own_beacon().encode();
            if let Some(beacon) = kalis_core::knowledge::PeerBeacon::decode(&beacon_b) {
                peers_a.observe(beacon, next_sync);
            }
            if let Some(beacon) = kalis_core::knowledge::PeerBeacon::decode(&beacon_a) {
                peers_b.observe(beacon, next_sync);
            }
            // Knowledge flows only between discovered peers.
            if !peers_a.peers(next_sync).is_empty() && !peers_b.peers(next_sync).is_empty() {
                exchange(&mut a, &mut b, &channel);
            }
            a.tick(next_sync);
            b.tick(next_sync);
            next_sync += Duration::from_millis(500);
        }
        if node_is_a {
            a.ingest(captures_a[ia].clone());
            ia += 1;
        } else {
            b.ingest(captures_b[ib].clone());
            ib += 1;
        }
    }
    // Final exchange + flush.
    exchange(&mut a, &mut b, &channel);
    let end = captures_a
        .last()
        .map(|c| c.timestamp)
        .unwrap_or(Timestamp::ZERO)
        .max(
            captures_b
                .last()
                .map(|c| c.timestamp)
                .unwrap_or(Timestamp::ZERO),
        )
        + Duration::from_secs(2);
    a.tick(end);
    b.tick(end);
    (a, b)
}

fn exchange(a: &mut Kalis, b: &mut Kalis, channel: &XorChannel) {
    if let Some(msg) = a.collective_outbox() {
        let sealed = msg.seal(channel);
        if let Ok(opened) = kalis_core::knowledge::SyncMessage::open(&sealed, channel) {
            let _ = b.accept_sync(opened);
        }
    }
    if let Some(msg) = b.collective_outbox() {
        let sealed = msg.seal(channel);
        if let Ok(opened) = kalis_core::knowledge::SyncMessage::open(&sealed, channel) {
            let _ = a.accept_sync(opened);
        }
    }
}
