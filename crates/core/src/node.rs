//! The top-level Kalis node: wires the Communication System, Data Store,
//! Knowledge Base, Module Manager, response engine, and collective
//! synchronization into the paper's Fig. 4 architecture.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use kalis_packets::{CapturedPacket, Entity, Timestamp};

use kalis_telemetry::{
    config_fingerprint, metric_name, names, AlertProvenance, Counter, EvidenceKnowgget,
    FlightRecorder, Gauge, Histogram, JournalEvent, PacketRef, SampleRate, Telemetry, TraceContext,
    TraceRef, Tracer, Trigger, DEFAULT_JOURNAL_TAIL, DEFAULT_RING_DEPTH,
    DEFAULT_SNAPSHOT_INTERVAL_SECS, DEFAULT_TRACE_CAPACITY, ROOT_SPAN, SAMPLE_SCALE,
    TRIGGER_MASK_ALL,
};

use crate::alert::Alert;
use crate::bus::{EventBus, KalisEvent};
use crate::capture::PacketSource;
use crate::config::{Config, ModuleDef};
use crate::error::KalisError;
use crate::id::KalisId;
use crate::knowledge::{
    ChangeEvent, CollectiveSync, KnowKey, KnowValue, KnowledgeBase, PeerBeacon, PeerHealth,
    ReceiptKind, SecureChannel, SyncConfig, SyncEvent, SyncMessage, SyncTransmit, XorChannel,
    DEGRADED_LABEL,
};
use crate::metrics::ResourceMeter;
use crate::modules::{
    KeyPattern, KeyUse, Module, ModuleCtx, ModuleHealth, ModuleManager, ModuleRegistry,
    OverloadController, ShedMode, SupervisorConfig,
};
use crate::ops::{
    HotEntity, ModuleStatus, OpsConfig, OpsServer, OpsShared, Readiness, SloStatus, SpaceSaving,
    StatusReport,
};
use crate::response::ResponseEngine;
use crate::store::{DataStore, WindowConfig};

/// How often [`Kalis::process_source`] injects ticks between packets.
const TICK_EVERY: Duration = Duration::from_secs(1);

/// Minimum wall-clock spacing between full `/status` report renders on
/// the packet-driven (unforced) refresh path. Capture clocks can run
/// arbitrarily faster than real time during replay and benchmarks;
/// throttling by wall time keeps the ops surface off the hot path while
/// scrapers — which live in wall time — still see state at most this
/// stale. Explicit `tick()` calls and readiness transitions always
/// render immediately.
const OPS_RENDER_MIN_INTERVAL: Duration = Duration::from_millis(100);

/// Shared secret of the default [`XorChannel`] ("kalis" in ASCII) used
/// when the embedder does not provide its own [`SecureChannel`].
const DEFAULT_SYNC_KEY: u64 = 0x006b_616c_6973;

/// A-priori knowgget key (Fig. 6 config language): sync peer TTL in
/// seconds.
pub const SYNC_PEER_TTL_KEY: &str = "Sync.PeerTtl";
/// A-priori knowgget key (Fig. 6 config language): sync beacon cadence in
/// seconds.
pub const SYNC_BEACON_INTERVAL_KEY: &str = "Sync.BeaconInterval";

/// A-priori knowgget key: cap on distinct entities holding per-entity
/// knowggets in the Knowledge Base. Past the cap, the least-recently
/// written entity is evicted wholesale (see
/// [`crate::knowledge::DEFAULT_KB_ENTITY_BUDGET`]).
pub const KB_ENTITY_BUDGET_KEY: &str = "KB.PerEntityBudget";

/// A-priori knowgget key: panic allowance before the supervisor
/// quarantines a module.
pub const SUPERVISOR_PANIC_LIMIT_KEY: &str = "Supervisor.PanicLimit";
/// A-priori knowgget key: optional per-dispatch watchdog budget in
/// milliseconds.
pub const SUPERVISOR_BUDGET_MS_KEY: &str = "Supervisor.BudgetMs";
/// A-priori knowgget key: sustained ingest rate (packets/second) beyond
/// which overload shedding engages.
pub const SUPERVISOR_BURST_PPS_KEY: &str = "Supervisor.BurstPps";

/// A-priori knowgget key: head-based causal-trace sampling rate, a
/// fraction in `[0, 1]` of ingested packets whose causal chain (module
/// dispatch, knowledge writes, alerts, sync contributions) is recorded.
/// `0` (the default) disables tracing entirely.
pub const TRACE_SAMPLE_RATE_KEY: &str = "Trace.SampleRate";

/// A-priori knowgget key: TCP port for the kalis-ops HTTP surface
/// (`/metrics`, `/healthz`, `/readyz`, `/status`) on loopback. Absent
/// (the default) means no listener; the builder's
/// [`KalisBuilder::with_ops`] can also enable it (with an ephemeral
/// port if desired — the knowgget only accepts explicit ports).
pub const OPS_PORT_KEY: &str = "Ops.Port";
/// A-priori knowgget key: p99 whole-ingest latency target in
/// microseconds for the detection-latency SLO. Setting it turns on the
/// `slo.*` gauges and the breach/recovery journal events.
pub const OPS_SLO_KEY: &str = "Ops.LatencySloUs";
/// A-priori knowgget key: how many hot source entities the space-saving
/// sketch monitors (the `kalis_hot_entity` cardinality cap).
pub const OPS_HOT_ENTITIES_KEY: &str = "Ops.HotEntities";

/// A-priori knowgget key: flight-recorder ring depth in frames. `0`
/// disables the recorder entirely (no sampling, no captures).
pub const DIAG_RING_DEPTH_KEY: &str = "Diag.RingDepth";
/// A-priori knowgget key: flight-recorder sampling interval in seconds
/// of capture time.
pub const DIAG_INTERVAL_KEY: &str = "Diag.SnapshotIntervalSecs";
/// A-priori knowgget key: bitmask of armed capture triggers (see
/// [`kalis_telemetry::Trigger::bit`]); defaults to all five armed.
pub const DIAG_TRIGGER_MASK_KEY: &str = "Diag.TriggerMask";

/// How many captured diagnostics bundles a node retains (and serves
/// via `/debug/diag`); older bundles are dropped first.
pub const DIAG_BUNDLE_RETENTION: usize = 4;

/// The node's own knowgget contract — the keys [`KalisBuilder::try_build`]
/// and the sync engine touch outside any module: the sync/supervisor
/// tuning knobs (read from a-priori configuration) and the `DegradedMode`
/// flag (written by the sync state machine, consumed by
/// collaborative-only modules). `kalis-lint` folds this into the
/// whole-system analysis alongside the per-module contracts.
pub fn system_contract() -> crate::modules::KnowggetContract {
    use crate::modules::{KnowggetContract, ValueType};
    KnowggetContract::new()
        .reads(SYNC_PEER_TTL_KEY, ValueType::Float)
        .reads(SYNC_BEACON_INTERVAL_KEY, ValueType::Float)
        .reads(KB_ENTITY_BUDGET_KEY, ValueType::Int)
        .reads(SUPERVISOR_PANIC_LIMIT_KEY, ValueType::Int)
        .reads(SUPERVISOR_BUDGET_MS_KEY, ValueType::Int)
        .reads(SUPERVISOR_BURST_PPS_KEY, ValueType::Int)
        .reads(TRACE_SAMPLE_RATE_KEY, ValueType::Float)
        .bounded(0.0, 1.0)
        .reads(OPS_PORT_KEY, ValueType::Int)
        .reads(OPS_SLO_KEY, ValueType::Int)
        .reads(OPS_HOT_ENTITIES_KEY, ValueType::Int)
        .reads(DIAG_RING_DEPTH_KEY, ValueType::Int)
        .reads(DIAG_INTERVAL_KEY, ValueType::Int)
        .reads(DIAG_TRIGGER_MASK_KEY, ValueType::Int)
        .writes(DEGRADED_LABEL, ValueType::Bool)
}

/// Builder for [`Kalis`] nodes.
///
/// # Examples
///
/// ```
/// use kalis_core::{Kalis, KalisId};
/// use kalis_core::config::Config;
///
/// let config: Config = "modules = { TrafficStatsModule } knowggets = { Mobile = false }".parse()?;
/// let kalis = Kalis::builder(KalisId::new("K1"))
///     .with_config(config)
///     .with_default_modules()
///     .try_build()?;
/// assert_eq!(kalis.knowledge().get_bool("Mobile"), Some(false));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct KalisBuilder {
    id: KalisId,
    config: Config,
    registry: ModuleRegistry,
    load_default_library: bool,
    adaptive: bool,
    auto_response: bool,
    window: WindowConfig,
    extra_modules: Vec<(Box<dyn Module>, bool)>,
    sync_config: Option<SyncConfig>,
    sync_channel: Option<Box<dyn SecureChannel>>,
    supervisor_config: Option<SupervisorConfig>,
    trace_sampling: Option<SampleRate>,
    trace_capacity: Option<usize>,
    ops: Option<OpsConfig>,
}

impl KalisBuilder {
    fn new(id: KalisId) -> Self {
        KalisBuilder {
            id,
            config: Config::empty(),
            registry: ModuleRegistry::with_defaults(),
            load_default_library: false,
            adaptive: true,
            auto_response: true,
            window: WindowConfig::default(),
            extra_modules: Vec::new(),
            sync_config: None,
            sync_channel: None,
            supervisor_config: None,
            trace_sampling: None,
            trace_capacity: None,
            ops: None,
        }
    }

    /// Apply a parsed configuration file: its modules are constructed and
    /// *pinned* active; its knowggets become a-priori knowledge.
    pub fn with_config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Load the entire built-in module library (unpinned: detection
    /// modules activate only when the knowledge requires them).
    pub fn with_default_modules(mut self) -> Self {
        self.load_default_library = true;
        self
    }

    /// Replace the module registry.
    pub fn with_registry(mut self, registry: ModuleRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Add a custom module instance (`pinned` keeps it always active).
    pub fn with_module(mut self, module: Box<dyn Module>, pinned: bool) -> Self {
        self.extra_modules.push((module, pinned));
        self
    }

    /// Disable knowledge-driven activation: every module is always active.
    /// This is the paper's *traditional IDS* emulation.
    pub fn traditional(mut self) -> Self {
        self.adaptive = false;
        self
    }

    /// Enable/disable automatic countermeasures (default: enabled).
    pub fn with_auto_response(mut self, enabled: bool) -> Self {
        self.auto_response = enabled;
        self
    }

    /// Override the Data Store window policy.
    pub fn with_window(mut self, window: WindowConfig) -> Self {
        self.window = window;
        self
    }

    /// Override the fault-tolerant sync tunables. The `Sync.PeerTtl` and
    /// `Sync.BeaconInterval` a-priori knowggets (seconds) still take
    /// precedence over the corresponding fields.
    pub fn with_sync_config(mut self, config: SyncConfig) -> Self {
        self.sync_config = Some(config);
        self
    }

    /// Replace the default [`XorChannel`] used to seal sync traffic.
    pub fn with_sync_channel(mut self, channel: Box<dyn SecureChannel>) -> Self {
        self.sync_channel = Some(channel);
        self
    }

    /// Override the module-supervisor tunables (panic allowance, watchdog
    /// budget, quarantine backoff, overload capacity). The
    /// `Supervisor.PanicLimit`, `Supervisor.BudgetMs`, and
    /// `Supervisor.BurstPps` a-priori knowggets still take precedence
    /// over the corresponding fields.
    pub fn with_supervisor_config(mut self, config: SupervisorConfig) -> Self {
        self.supervisor_config = Some(config);
        self
    }

    /// Set the head-based causal-trace sampling rate. The
    /// `Trace.SampleRate` a-priori knowgget (a fraction in `[0, 1]`)
    /// still takes precedence. The default is sampling off, which keeps
    /// the per-packet tracing cost to a single atomic load.
    pub fn with_trace_sampling(mut self, rate: SampleRate) -> Self {
        self.trace_sampling = Some(rate);
        self
    }

    /// Override the bounded trace-buffer capacity (events retained;
    /// oldest are dropped and counted beyond it).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Enable the kalis-ops HTTP surface: a loopback listener serving
    /// `/metrics`, `/healthz`, `/readyz`, and `/status`, plus the
    /// per-module resource profiler feeding it. The `Ops.Port`,
    /// `Ops.LatencySloUs`, and `Ops.HotEntities` a-priori knowggets
    /// still take precedence over the corresponding fields.
    pub fn with_ops(mut self, config: OpsConfig) -> Self {
        self.ops = Some(config);
        self
    }

    /// Build, surfacing configuration problems.
    ///
    /// # Errors
    ///
    /// Returns [`KalisError::UnknownModule`] when the configuration names
    /// a module absent from the registry, and [`KalisError::Io`] when the
    /// ops listener cannot bind its configured address.
    pub fn try_build(self) -> Result<Kalis, KalisError> {
        let mut kb = KnowledgeBase::new(self.id.clone());
        // Sync tunables ride the Fig. 6 config language as a-priori
        // knowggets (seconds); they are stored like any knowledge and
        // also applied to the engine. TTL first: it derives the beacon
        // cadence, which an explicit interval then overrides.
        let mut sync_config = self.sync_config.unwrap_or_default();
        let seconds_knowgget = |wanted: &str| {
            self.config
                .knowggets
                .iter()
                .find(|(key, _)| key == wanted)
                .and_then(|(_, value)| value.as_f64())
                .filter(|secs| *secs > 0.0)
                .map(Duration::from_secs_f64)
        };
        if let Some(ttl) = seconds_knowgget(SYNC_PEER_TTL_KEY) {
            sync_config = sync_config.with_peer_ttl(ttl);
        }
        if let Some(interval) = seconds_knowgget(SYNC_BEACON_INTERVAL_KEY) {
            sync_config.beacon_interval = interval;
        }
        // Supervisor tunables ride the config language the same way.
        let mut supervisor_config = self.supervisor_config.unwrap_or_default();
        let positive_knowgget = |wanted: &str| {
            self.config
                .knowggets
                .iter()
                .find(|(key, _)| key == wanted)
                .and_then(|(_, value)| value.as_f64())
                .filter(|n| *n > 0.0)
        };
        if let Some(limit) = positive_knowgget(SUPERVISOR_PANIC_LIMIT_KEY) {
            supervisor_config.panic_limit = limit as u32;
        }
        if let Some(ms) = positive_knowgget(SUPERVISOR_BUDGET_MS_KEY) {
            supervisor_config.budget = Some(Duration::from_secs_f64(ms / 1_000.0));
        }
        if let Some(pps) = positive_knowgget(SUPERVISOR_BURST_PPS_KEY) {
            supervisor_config.burst_pps = pps as u64;
        }
        // The KB's own per-entity budget rides the config language too,
        // applied before the a-priori knowggets land so entity-scoped
        // config knowledge is indexed under the configured cap.
        if let Some(budget) = positive_knowgget(KB_ENTITY_BUDGET_KEY) {
            kb.set_entity_budget(budget as usize);
        }
        // The ops surface rides the config language the same way: any
        // `Ops.*` knowgget enables the runtime (with a loopback
        // ephemeral port unless `Ops.Port` names one), and each knob
        // takes precedence over the corresponding `with_ops` field.
        let mut ops_config = self.ops;
        if let Some(port) = positive_knowgget(OPS_PORT_KEY).filter(|p| *p <= f64::from(u16::MAX)) {
            ops_config
                .get_or_insert_with(OpsConfig::default)
                .bind
                .set_port(port as u16);
        }
        if let Some(us) = positive_knowgget(OPS_SLO_KEY) {
            ops_config.get_or_insert_with(OpsConfig::default).slo_p99_us = Some(us as u64);
        }
        if let Some(k) = positive_knowgget(OPS_HOT_ENTITIES_KEY) {
            ops_config
                .get_or_insert_with(OpsConfig::default)
                .hot_entities = k as usize;
        }
        // The flight-recorder knobs ride the config language the same
        // way. `Diag.RingDepth = 0` legitimately *disables* the
        // recorder, so depth and mask use a non-negative read rather
        // than the positive filter above.
        let non_negative_knowgget = |wanted: &str| {
            self.config
                .knowggets
                .iter()
                .find(|(key, _)| key == wanted)
                .and_then(|(_, value)| value.as_f64())
                .filter(|n| *n >= 0.0)
        };
        let recorder = FlightRecorder::new(
            non_negative_knowgget(DIAG_RING_DEPTH_KEY).map_or(DEFAULT_RING_DEPTH, |d| d as usize),
            positive_knowgget(DIAG_INTERVAL_KEY)
                .map_or(DEFAULT_SNAPSHOT_INTERVAL_SECS, |s| s as u64)
                .saturating_mul(1_000_000),
            non_negative_knowgget(DIAG_TRIGGER_MASK_KEY)
                .map_or(TRIGGER_MASK_ALL, |m| (m as u32) & TRIGGER_MASK_ALL),
        );
        // The tracing knob rides the config language the same way; only
        // fractions in [0, 1] are honored (kalis-lint flags the rest).
        let tracer = Arc::new(Tracer::new(
            self.trace_capacity.unwrap_or(DEFAULT_TRACE_CAPACITY),
        ));
        let sample_rate = self
            .config
            .knowggets
            .iter()
            .find(|(key, _)| key == TRACE_SAMPLE_RATE_KEY)
            .and_then(|(_, value)| value.as_f64())
            .filter(|fraction| (0.0..=1.0).contains(fraction))
            .map(SampleRate::from_fraction)
            .or(self.trace_sampling)
            .unwrap_or_else(SampleRate::off);
        tracer.set_sample_rate(sample_rate);
        for (key, value) in &self.config.knowggets {
            // Config keys may carry an `@entity` suffix but never a
            // creator (paper §IV-B3).
            match key.split_once('@') {
                Some((label, entity)) => {
                    kb.insert_about(label, Entity::new(entity.to_owned()), value.clone());
                }
                None => {
                    kb.insert(key.clone(), value.clone());
                }
            }
        }
        let syncer = CollectiveSync::new(
            self.id.clone(),
            self.sync_channel
                .unwrap_or_else(|| Box::new(XorChannel::new(DEFAULT_SYNC_KEY))),
            sync_config,
        );
        let mut manager = if self.adaptive {
            ModuleManager::new()
        } else {
            ModuleManager::all_always_active()
        };
        manager.set_supervisor(supervisor_config);
        let mut pinned_names = Vec::new();
        for def in &self.config.modules {
            let module = self.registry.build(def)?;
            pinned_names.push(def.name.clone());
            manager.add(module, true);
        }
        if self.load_default_library {
            for name in self.registry.names() {
                if pinned_names.iter().any(|p| p == name) {
                    continue;
                }
                let def = crate::config::ModuleDef::new(name);
                manager.add(self.registry.build(&def)?, false);
            }
        }
        for (module, pinned) in self.extra_modules {
            manager.add(module, pinned);
        }
        let tele = Arc::new(Telemetry::new());
        kb.set_telemetry(&tele);
        manager.set_telemetry(&tele);
        // Initial activation pass against the a-priori knowledge.
        let changes = kb.drain_changes();
        manager.reconfigure_traced(&kb, &Kalis::describe_trigger(&changes), 0);
        let ops = match ops_config {
            None => None,
            Some(cfg) => {
                let shared = Arc::new(OpsShared::new(self.id.as_str(), Arc::clone(&tele)));
                let server = OpsServer::bind(cfg.bind, Arc::clone(&shared))?;
                Some(OpsRuntime::new(server, shared, &cfg, &tele))
            }
        };
        let mut kalis = Kalis {
            id: self.id,
            kb,
            store: DataStore::with_config(self.window),
            manager,
            alerts: Vec::new(),
            pending_alert_cursor: 0,
            provenance: Vec::new(),
            tracer,
            ingest_seq: 0,
            current_trace: TraceContext::none(),
            current_packet_seq: None,
            response: ResponseEngine::new(),
            auto_response: self.auto_response,
            last_tick: None,
            bus: EventBus::new(),
            syncer,
            overload: OverloadController::default(),
            stats: NodeStats::new(&tele),
            journaled_evictions: BTreeMap::new(),
            recorder,
            diag_edges: DiagEdges::default(),
            diag_bundles: Vec::new(),
            tele,
            ops,
        };
        // Publish an initial report so `/status` and `/readyz` answer
        // correctly before the first packet or tick.
        if kalis.ops.is_some() {
            kalis.ops_refresh(Timestamp::ZERO, true);
        }
        Ok(kalis)
    }

    /// Build, panicking on configuration errors.
    ///
    /// # Panics
    ///
    /// Panics when the configuration names an unknown module; use
    /// [`KalisBuilder::try_build`] to handle that case.
    pub fn build(self) -> Kalis {
        self.try_build().expect("invalid Kalis configuration")
    }
}

/// Last-observed values of every trigger signal, so `diag_tick` fires
/// captures on *edges* (a readiness flip, a rising quarantine count)
/// rather than re-capturing on every tick a condition persists.
#[derive(Debug, Default)]
struct DiagEdges {
    reasons: Vec<String>,
    quarantined: usize,
    degraded: bool,
    evictions: u64,
    /// Whether the previous tick saw evictions advance — the
    /// state-exhaustion trigger fires on the *rising edge* of eviction
    /// activity, not on every tick of a sustained spray.
    evicting: bool,
    slo_breached: bool,
}

/// Node-level instrument handles, cached once at build time so the
/// per-packet path never touches the registry lock.
struct NodeStats {
    packets: Arc<Counter>,
    ticks: Arc<Counter>,
    pipeline: Arc<Histogram>,
    work: Arc<Counter>,
    peak_state: Arc<Gauge>,
    alerts: Arc<Counter>,
    sync_sent: Arc<Counter>,
    sync_accepted: Arc<Counter>,
    sync_rejected: Arc<Counter>,
    sync_bytes_out: Arc<Counter>,
    sync_bytes_in: Arc<Counter>,
    sync_knowggets_out: Arc<Counter>,
    sync_knowggets_in: Arc<Counter>,
    sync_retransmits: Arc<Counter>,
    sync_duplicates: Arc<Counter>,
    sync_queue_dropped: Arc<Counter>,
    peers_healthy: Arc<Gauge>,
    peers_suspect: Arc<Gauge>,
    peers_dead: Arc<Gauge>,
    peers_expired: Arc<Counter>,
    degraded: Arc<Gauge>,
    pipeline_degraded: Arc<Gauge>,
    trace_sampled: Arc<Counter>,
    trace_dropped: Arc<Gauge>,
    diag_captures: Arc<Counter>,
    diag_occupancy: Arc<Gauge>,
    diag_last_trigger: Arc<Gauge>,
}

impl NodeStats {
    fn new(registry: &Telemetry) -> Self {
        NodeStats {
            packets: registry.counter(names::PACKETS_INGESTED),
            ticks: registry.counter(names::TICKS),
            pipeline: registry.histogram(names::PIPELINE),
            work: registry.counter(names::WORK_UNITS),
            peak_state: registry.gauge(names::PEAK_STATE_BYTES),
            alerts: registry.counter(names::ALERTS),
            sync_sent: registry.counter(names::SYNC_SENT),
            sync_accepted: registry.counter(names::SYNC_ACCEPTED),
            sync_rejected: registry.counter(names::SYNC_REJECTED),
            sync_bytes_out: registry.counter(names::SYNC_BYTES_OUT),
            sync_bytes_in: registry.counter(names::SYNC_BYTES_IN),
            sync_knowggets_out: registry.counter(names::SYNC_KNOWGGETS_OUT),
            sync_knowggets_in: registry.counter(names::SYNC_KNOWGGETS_IN),
            sync_retransmits: registry.counter(names::SYNC_RETRANSMITS),
            sync_duplicates: registry.counter(names::SYNC_DUPLICATES),
            sync_queue_dropped: registry.counter(names::SYNC_QUEUE_DROPPED),
            peers_healthy: registry.gauge(names::PEERS_HEALTHY),
            peers_suspect: registry.gauge(names::PEERS_SUSPECT),
            peers_dead: registry.gauge(names::PEERS_DEAD),
            peers_expired: registry.counter(names::PEERS_EXPIRED),
            degraded: registry.gauge(names::DEGRADED_MODE),
            pipeline_degraded: registry.gauge(names::PIPELINE_DEGRADED),
            trace_sampled: registry.counter(names::TRACE_SAMPLED),
            trace_dropped: registry.gauge(names::TRACE_DROPPED),
            diag_captures: registry.counter(names::DIAG_CAPTURES),
            diag_occupancy: registry.gauge(names::DIAG_RING_OCCUPANCY),
            diag_last_trigger: registry.gauge(names::DIAG_LAST_TRIGGER),
        }
    }
}

/// The ops surface runtime: the HTTP listener, the state shared with
/// it, the hot-entity sketch, and the SLO tracker. Present only when
/// the surface was enabled (builder or `Ops.*` knowggets).
struct OpsRuntime {
    server: OpsServer,
    shared: Arc<OpsShared>,
    /// Top-K source-entity heavy-hitter sketch, fed one observation per
    /// ingested packet.
    sketch: SpaceSaving<Entity>,
    /// Capture-clock micros of the first ingested packet (uptime base).
    started_us: Option<u64>,
    /// Wall-clock instant of the last full report render, gating
    /// unforced refreshes to [`OPS_RENDER_MIN_INTERVAL`].
    last_render: Option<std::time::Instant>,
    /// Readiness reasons at the last publish — the cheap comparison key
    /// that lets `after_dispatch` detect a readiness transition without
    /// rebuilding the whole report.
    last_reasons: Vec<String>,
    slo: Option<SloTracker>,
}

/// Detection-latency SLO state: gauges plus the breach latch that turns
/// p99-vs-target transitions into journal events.
struct SloTracker {
    target_us: u64,
    breached: bool,
    p99: Arc<Gauge>,
    target: Arc<Gauge>,
    burn: Arc<Gauge>,
    breached_gauge: Arc<Gauge>,
}

impl OpsRuntime {
    fn new(
        server: OpsServer,
        shared: Arc<OpsShared>,
        config: &OpsConfig,
        tele: &Telemetry,
    ) -> Self {
        let slo = config.slo_p99_us.map(|target_us| {
            let tracker = SloTracker {
                target_us,
                breached: false,
                p99: tele.gauge(names::SLO_LATENCY_P99_US),
                target: tele.gauge(names::SLO_TARGET_US),
                burn: tele.gauge(names::SLO_BURN_PERMILLE),
                breached_gauge: tele.gauge(names::SLO_BREACHED),
            };
            tracker.target.set(target_us);
            tracker
        });
        OpsRuntime {
            server,
            shared,
            sketch: SpaceSaving::new(config.hot_entities),
            started_us: None,
            last_render: None,
            last_reasons: Vec::new(),
            slo,
        }
    }
}

/// Outbound sync work produced by one [`Kalis::sync_poll`] pass.
#[derive(Debug, Default)]
pub struct SyncPoll {
    /// This node's beacon, when the configured cadence says it is due.
    pub beacon: Option<PeerBeacon>,
    /// Sealed frames (first transmissions, retransmissions, and
    /// full-resync snapshots) ready for the transport.
    pub frames: Vec<SyncTransmit>,
    /// Set when the bounded outbound queue dropped entries this pass.
    pub overflow: Option<KalisError>,
}

/// The outcome of [`Kalis::receive_sync_frame`].
#[derive(Debug)]
pub struct SyncReceipt {
    /// The authenticated sender.
    pub from: KalisId,
    /// Knowggets applied to the Knowledge Base (0 for acks and
    /// duplicates).
    pub accepted: usize,
    /// Whether the frame was a replay/duplicate dropped by dedup.
    pub duplicate: bool,
    /// A sealed ack to hand back to the transport, when the frame
    /// warrants one.
    pub reply: Option<Vec<u8>>,
}

/// A Kalis IDS node.
///
/// See the [crate docs](crate) for the architecture overview and the
/// builder ([`Kalis::builder`]) for construction options.
pub struct Kalis {
    id: KalisId,
    kb: KnowledgeBase,
    store: DataStore,
    manager: ModuleManager,
    alerts: Vec<Alert>,
    pending_alert_cursor: usize,
    /// Provenance records parallel to `alerts` (one per alert, assembled
    /// at emission time).
    provenance: Vec<AlertProvenance>,
    tracer: Arc<Tracer>,
    /// Monotonic ingest counter seeding deterministic trace ids.
    ingest_seq: u64,
    /// The trace context of the packet currently being dispatched
    /// (`none` outside ingest).
    current_trace: TraceContext,
    /// Ingest sequence of the packet currently being dispatched.
    current_packet_seq: Option<u64>,
    response: ResponseEngine,
    auto_response: bool,
    last_tick: Option<Timestamp>,
    bus: EventBus,
    syncer: CollectiveSync,
    overload: OverloadController,
    tele: Arc<Telemetry>,
    stats: NodeStats,
    /// Last-journaled cumulative eviction count per bounded structure
    /// (`module:<name>` / `kb`): the delta latch behind the aggregated
    /// `state_evicted` journal records emitted at tick cadence.
    journaled_evictions: BTreeMap<String, u64>,
    /// The flight recorder: bounded telemetry history plus capture
    /// bookkeeping, sampled at tick cadence by [`Kalis::diag_tick`].
    recorder: FlightRecorder,
    /// Trigger edge detection state for the recorder.
    diag_edges: DiagEdges,
    /// Retained diagnostics bundles, oldest first: `(bundle id,
    /// kalis.diag.v1 JSON)`, bounded to [`DIAG_BUNDLE_RETENTION`].
    diag_bundles: Vec<(String, String)>,
    ops: Option<OpsRuntime>,
}

impl Kalis {
    /// Start building a node.
    pub fn builder(id: KalisId) -> KalisBuilder {
        KalisBuilder::new(id)
    }

    /// This node's identifier.
    pub fn id(&self) -> &KalisId {
        &self.id
    }

    /// Ingest one captured packet: store it, route it to the active
    /// modules under the overload controller's current shed mode, apply
    /// knowledge changes to module activation, and run countermeasures
    /// for any new alerts.
    ///
    /// Every dispatch is supervised: module panics are caught and
    /// isolated, crash-looping modules are quarantined, and under a
    /// sustained ingest burst unpinned detection modules see sampled
    /// dispatch (heavyweight anomaly modules first, pinned signature
    /// modules never) instead of the node falling behind the capture.
    pub fn ingest(&mut self, packet: CapturedPacket) {
        let pipeline = Arc::clone(&self.stats.pipeline);
        let _span = pipeline.span();
        self.stats.packets.inc();
        let now = packet.timestamp;
        self.ingest_seq = self.ingest_seq.wrapping_add(1);
        // Tracing-off fast path: one relaxed atomic load, nothing else.
        if self.tracer.enabled() {
            let ctx = self.tracer.root(self.id.as_str(), self.ingest_seq);
            if ctx.sampled {
                self.stats.trace_sampled.inc();
                self.tracer.record(
                    &ctx,
                    0,
                    now.as_micros(),
                    "ingest",
                    self.id.as_str(),
                    format!(
                        "seq={} medium={:?} bytes={}",
                        self.ingest_seq,
                        packet.medium,
                        packet.raw.len()
                    ),
                );
                // Knowledge writes during this dispatch inherit the
                // packet's causal trace.
                self.kb.set_trace(ctx.trace_id, ctx.span_id);
            }
            self.current_trace = ctx;
        }
        self.maybe_tick(now);
        let shed = self.observe_arrival(now);
        self.store.push(packet);
        // Dispatch from the stored packet itself: the borrow of `store`
        // is disjoint from the fields dispatch mutates and ends before
        // `after_dispatch`.
        let packet = self.store.latest().expect("just pushed");
        if let Some(ops) = &mut self.ops {
            if ops.started_us.is_none() {
                ops.started_us = Some(now.as_micros());
            }
            // Hot-entity accounting: one sketch observation per packet,
            // keyed by the network source (falling back to the link
            // transmitter for captures without one).
            if let Some(entity) = packet
                .decoded()
                .and_then(|p| p.net_src().or_else(|| p.transmitter()))
            {
                ops.sketch.observe(&entity);
            }
        }
        self.current_packet_seq = Some(self.ingest_seq);
        let mut ctx = ModuleCtx {
            now,
            kb: &mut self.kb,
            alerts: &mut self.alerts,
        };
        let outcome = self.manager.dispatch_packet_shed(&mut ctx, packet, shed);
        self.overload.episode_skipped += outcome.modules_shed;
        self.stats.work.add(outcome.work_units());
        if self.current_trace.sampled {
            let dispatch = self.current_trace.child(0);
            self.tracer.record(
                &dispatch,
                self.current_trace.span_id,
                now.as_micros(),
                "dispatch",
                self.id.as_str(),
                format!("shed={shed:?} work={}", outcome.work_units()),
            );
        }
        self.after_dispatch(now);
        if self.current_trace.sampled {
            self.kb.clear_trace();
            self.stats.trace_dropped.set(self.tracer.dropped());
        }
        self.current_trace = TraceContext::none();
        self.current_packet_seq = None;
    }

    /// [`Kalis::ingest`] with backpressure signalling: the packet is
    /// always processed (the shed policy bounds the per-packet work, so
    /// nothing is dropped silently), but while the overload controller is
    /// in severe shedding the call reports
    /// [`KalisError::PipelineOverload`] so callers that *can* slow the
    /// capture down know to do so.
    ///
    /// # Errors
    ///
    /// [`KalisError::PipelineOverload`] while the observed arrival rate
    /// holds at ≥ 2× the configured `Supervisor.BurstPps` capacity.
    pub fn try_ingest(&mut self, packet: CapturedPacket) -> Result<(), KalisError> {
        self.ingest(packet);
        if self.overload.mode() == ShedMode::All {
            return Err(KalisError::PipelineOverload {
                rate: self.overload.rate(),
                capacity: self.manager.supervisor_config().burst_pps,
            });
        }
        Ok(())
    }

    /// Feed one arrival to the overload controller and journal shedding
    /// episode transitions. Returns the shed mode to dispatch under.
    fn observe_arrival(&mut self, now: Timestamp) -> ShedMode {
        let was_shedding = self.overload.shedding();
        let mode = self.overload.observe(now, self.manager.supervisor_config());
        let shedding = mode != ShedMode::None;
        if shedding != was_shedding {
            let event = if shedding {
                JournalEvent::LoadShedEngaged {
                    rate: self.overload.rate(),
                    capacity: self.manager.supervisor_config().burst_pps,
                }
            } else {
                JournalEvent::LoadShedReleased {
                    skipped: self.overload.episode_skipped,
                }
            };
            self.tele.journal().record(now.as_micros(), event);
            if !shedding {
                self.overload.episode_skipped = 0;
            }
        }
        self.stats
            .pipeline_degraded
            .set(u64::from(shedding || self.manager.quarantined_count() > 0));
        mode
    }

    /// Advance time without a packet: runs module housekeeping and
    /// reconfiguration.
    pub fn tick(&mut self, now: Timestamp) {
        self.tick_inner(now, true);
    }

    /// The tick body. Explicit [`Kalis::tick`] calls force a full ops
    /// report render; the packet-driven cadence (`maybe_tick`) leaves
    /// rendering to the wall-clock throttle.
    fn tick_inner(&mut self, now: Timestamp, force_ops: bool) {
        self.stats.ticks.inc();
        self.last_tick = Some(now);
        // Housekeeping alerts (e.g. the collaborative wormhole verdict,
        // raised by correlation between packets) deserve a causal trace
        // too: when no packet context is active, the tick itself becomes
        // the root span. Ticks nested in `ingest` inherit the packet's
        // trace instead.
        let own_trace = !self.current_trace.is_some() && self.tracer.enabled();
        if own_trace {
            self.ingest_seq = self.ingest_seq.wrapping_add(1);
            let ctx = self.tracer.root(self.id.as_str(), self.ingest_seq);
            if ctx.sampled {
                self.stats.trace_sampled.inc();
                self.tracer.record(
                    &ctx,
                    0,
                    now.as_micros(),
                    "tick",
                    self.id.as_str(),
                    String::new(),
                );
                self.kb.set_trace(ctx.trace_id, ctx.span_id);
            }
            self.current_trace = ctx;
        }
        let mut ctx = ModuleCtx {
            now,
            kb: &mut self.kb,
            alerts: &mut self.alerts,
        };
        let outcome = self.manager.dispatch_tick(&mut ctx);
        self.stats.work.add(outcome.work_units());
        self.response.expire(now);
        self.after_dispatch(now);
        self.journal_state_evictions(now);
        // The ops surface refreshes at tick cadence: profiler gauges,
        // SLO posture, and the pre-rendered /status document.
        if self.ops.is_some() {
            self.ops_refresh(now, force_ops);
        }
        // The flight recorder samples (and latches captures) after the
        // ops refresh so the SLO breach latch is current for this tick.
        self.diag_tick(now);
        if own_trace {
            if self.current_trace.sampled {
                self.kb.clear_trace();
                self.stats.trace_dropped.set(self.tracer.dropped());
            }
            self.current_trace = TraceContext::none();
        }
    }

    /// Journal aggregated bounded-state evictions: one `state_evicted`
    /// record per structure whose cumulative count moved since the last
    /// tick. Aggregation is deliberate — per-eviction records would let
    /// a state-exhaustion adversary flood the journal at spray rate.
    fn journal_state_evictions(&mut self, now: Timestamp) {
        let mut totals: Vec<(String, u64)> = self
            .manager
            .module_profiles()
            .iter()
            .filter(|p| p.evictions > 0)
            .map(|p| (format!("module:{}", p.name), p.evictions))
            .collect();
        let kb_evictions = self.kb.entity_evictions();
        if kb_evictions > 0 {
            totals.push(("kb".to_owned(), kb_evictions));
        }
        for (structure, evicted) in totals {
            if self.journaled_evictions.get(&structure) == Some(&evicted) {
                continue;
            }
            self.journaled_evictions.insert(structure.clone(), evicted);
            self.tele.journal().record(
                now.as_micros(),
                JournalEvent::StateEvicted { structure, evicted },
            );
        }
    }

    /// Cumulative bounded-state evictions across every budgeted
    /// structure (module maps plus the KB's entity index) — the
    /// state-exhaustion trigger signal.
    fn total_evictions(&self) -> u64 {
        self.manager
            .module_profiles()
            .iter()
            .map(|p| p.evictions)
            .sum::<u64>()
            + self.kb.entity_evictions()
    }

    /// One flight-recorder pass at tick cadence: sample the telemetry
    /// surface into the ring, then compare every trigger signal against
    /// its last-seen value and freeze a `kalis.diag.v1` bundle on the
    /// first armed edge. Runs on the virtual clock only — captures are
    /// deterministic for a deterministic run.
    fn diag_tick(&mut self, now: Timestamp) {
        if !self.recorder.enabled() {
            return;
        }
        let now_us = now.as_micros();
        self.recorder.maybe_sample(now_us, &self.tele);

        let reasons = self.readiness().reasons;
        let quarantined = self.manager.quarantined_count();
        let degraded = self.syncer.degraded();
        let evictions = self.total_evictions();
        let evicting = evictions > self.diag_edges.evictions;
        let slo_breached = self
            .ops
            .as_ref()
            .and_then(|ops| ops.slo.as_ref())
            .is_some_and(|tracker| tracker.breached);
        let edges = [
            (Trigger::ReadinessFlip, reasons != self.diag_edges.reasons),
            (
                Trigger::SloBreached,
                slo_breached && !self.diag_edges.slo_breached,
            ),
            (
                Trigger::ModuleQuarantined,
                quarantined > self.diag_edges.quarantined,
            ),
            (Trigger::DegradedSync, degraded && !self.diag_edges.degraded),
            (
                Trigger::StateExhaustion,
                evicting && !self.diag_edges.evicting,
            ),
        ];
        let fired = edges
            .iter()
            .find(|(trigger, edge)| *edge && self.recorder.armed(*trigger))
            .map(|(trigger, _)| *trigger);
        self.diag_edges = DiagEdges {
            reasons,
            quarantined,
            degraded,
            evictions,
            evicting,
            slo_breached,
        };
        if let Some(trigger) = fired {
            self.diag_capture(trigger, now_us);
        }
        self.stats
            .diag_occupancy
            .set(self.recorder.occupancy() as u64);
    }

    /// Freeze the ring plus the journal tail, trace trees, and config
    /// fingerprint into a retained bundle, journal the capture, and
    /// republish the `/debug/diag` surface.
    fn diag_capture(&mut self, trigger: Trigger, now_us: u64) {
        let fingerprint = config_fingerprint(&self.recommend_config().to_string());
        let traces = self.tracer.enabled().then(|| self.tracer.to_json());
        let bundle = self.recorder.capture(
            trigger,
            now_us,
            &self.tele,
            self.id.as_str(),
            &fingerprint,
            traces.as_deref(),
            DEFAULT_JOURNAL_TAIL,
        );
        self.tele.journal().record(
            now_us,
            JournalEvent::DiagCaptured {
                trigger: trigger.name().to_owned(),
                bundle: bundle.bundle_id.clone(),
            },
        );
        self.stats.diag_captures.inc();
        self.stats.diag_last_trigger.set(u64::from(trigger.bit()));
        self.diag_bundles
            .push((bundle.bundle_id.clone(), bundle.to_json()));
        if self.diag_bundles.len() > DIAG_BUNDLE_RETENTION {
            self.diag_bundles.remove(0);
        }
        if let Some(ops) = &self.ops {
            ops.shared.publish_diag(&self.diag_bundles);
        }
    }

    fn maybe_tick(&mut self, now: Timestamp) {
        let due = match self.last_tick {
            None => true,
            Some(last) => now.saturating_since(last) >= TICK_EVERY,
        };
        if due {
            self.tick_inner(now, false);
        }
    }

    /// Summarize a batch of knowledge changes as the `trigger` string
    /// recorded with every module flip in the journal's audit trail.
    fn describe_trigger(changes: &[ChangeEvent]) -> String {
        let mut parts: Vec<String> = changes
            .iter()
            .take(3)
            .map(|c| {
                if c.removed {
                    format!("-{}", c.key.encode())
                } else {
                    c.key.encode()
                }
            })
            .collect();
        if changes.len() > 3 {
            parts.push(format!("+{} more", changes.len() - 3));
        }
        parts.join(",")
    }

    /// Drain pending knowledge changes and re-run module activation,
    /// journaling the flips against the changed keys. Returns
    /// `(activated, deactivated)`.
    fn reconfigure_on_changes(&mut self, now: Timestamp, publish: bool) -> (usize, usize) {
        let changes = self.kb.drain_changes();
        let trigger = Self::describe_trigger(&changes);
        if publish {
            for change in changes {
                self.bus.publish(KalisEvent::KnowledgeChanged {
                    key: change.key,
                    value: change.value,
                    removed: change.removed,
                    trace_id: change.trace_id,
                });
            }
        }
        self.manager
            .reconfigure_traced(&self.kb, &trigger, now.as_micros())
    }

    fn after_dispatch(&mut self, now: Timestamp) {
        if self.kb.has_changes() {
            let (activated, deactivated) = self.reconfigure_on_changes(now, true);
            if activated + deactivated > 0 {
                self.bus.publish(KalisEvent::ModulesReconfigured {
                    time: now,
                    activated,
                    deactivated,
                });
            }
        }
        // Stamp the causal trace on freshly raised alerts *before* the
        // bus/journal clone below, and assemble each one's provenance
        // record while the triggering state is still in place.
        if self.current_trace.sampled {
            for alert in &mut self.alerts[self.pending_alert_cursor..] {
                alert.trace_id = self.current_trace.trace_id;
            }
        }
        for index in self.pending_alert_cursor..self.alerts.len() {
            let record = self.assemble_provenance(index, now.as_micros());
            if self.current_trace.sampled {
                let span = self.current_trace.child(1 + index as u32);
                self.tracer.record(
                    &span,
                    self.current_trace.span_id,
                    now.as_micros(),
                    format!("alert:{}", record.attack),
                    self.id.as_str(),
                    format!("module={} victim={}", record.module, record.victim),
                );
            }
            self.provenance.push(record);
        }
        let new_alerts: Vec<Alert> = self.alerts[self.pending_alert_cursor..].to_vec();
        for alert in &new_alerts {
            self.stats.alerts.inc();
            let kind = alert.attack.to_string();
            let severity = alert.severity.to_string();
            self.tele
                .counter(&metric_name(
                    names::ALERTS_BY,
                    &[("kind", &kind), ("severity", &severity)],
                ))
                .inc();
            self.tele.journal().record(
                alert.time.as_micros(),
                JournalEvent::AlertRaised {
                    kind,
                    severity,
                    module: alert.module.clone(),
                },
            );
            if self.auto_response {
                self.response.apply(alert);
            }
            self.bus.publish(KalisEvent::AlertRaised(alert.clone()));
        }
        self.pending_alert_cursor = self.alerts.len();
        let state = self.store.state_bytes() + self.kb.state_bytes() + self.manager.state_bytes();
        self.stats.peak_state.set_max(state as u64);
        // Readiness transitions must reach /readyz immediately, not at
        // the next tick: compare the (usually empty) reason set against
        // the last published one and republish only on change.
        if let Some(ops) = &self.ops {
            if ops.last_reasons != self.readiness().reasons {
                self.ops_refresh(now, true);
            }
        }
    }

    /// Subscribe to this node's event stream (alerts, knowledge changes,
    /// module reconfigurations) — the integration point for dashboards,
    /// SIEM uploaders, and notification mechanisms (paper §V).
    pub fn subscribe(&mut self) -> crossbeam::channel::Receiver<KalisEvent> {
        self.bus.subscribe()
    }

    /// Derive a minimal static configuration from the knowledge collected
    /// so far: the currently required modules plus the stable single-level
    /// knowggets as a-priori knowledge.
    ///
    /// This realizes the paper's envisioned workflow of "selecting a
    /// specific module configuration — based on the knowledge collected by
    /// Kalis in a network — and ... deploy\[ing\] that configuration at
    /// compile-time on very small devices" (§VIII): the returned
    /// [`Config`] round-trips through the Fig. 6 text format.
    pub fn recommend_config(&self) -> Config {
        let modules = self
            .manager
            .active_defs()
            .into_iter()
            .map(|(name, params)| {
                let mut def = ModuleDef::new(name);
                def.params = params;
                def
            })
            .collect();
        let mut knowggets: Vec<(String, KnowValue)> = self
            .kb
            .iter()
            .filter(|k| {
                // Stable local single-level knowledge only. DegradedMode
                // is runtime sync state, not deployable configuration —
                // baking it into a recommendation would pin a fresh node
                // into degraded mode (and name a knowgget no contract
                // registers as a-priori input).
                k.creator == self.id
                    && k.entity.is_none()
                    && !k.label.contains('.')
                    && k.label != crate::sensing::labels::MONITORED_NODES
                    && k.label != DEGRADED_LABEL
            })
            .map(|k| (k.label, k.value))
            .collect();
        // The sync tunables carry dotted labels (excluded by the filter
        // above) but belong in a deployable config: a node rebuilt from
        // it keeps the same fault-tolerance posture. Normalize through
        // the wire format so the emitted value re-parses to the exact
        // same variant (`12.0` goes out as `12` and comes back as Int).
        let sync = self.syncer.config();
        for (key, secs) in [
            (SYNC_PEER_TTL_KEY, sync.peer_ttl.as_secs_f64()),
            (SYNC_BEACON_INTERVAL_KEY, sync.beacon_interval.as_secs_f64()),
        ] {
            knowggets.push((
                key.to_owned(),
                KnowValue::from_wire(&KnowValue::Float(secs).to_wire()),
            ));
        }
        // The supervisor knobs round-trip the same way: a node rebuilt
        // from the recommendation keeps the same crash-loop and overload
        // posture. Quarantined modules were already excluded above
        // (`active_names()` skips them).
        let supervisor = self.manager.supervisor_config();
        knowggets.push((
            SUPERVISOR_PANIC_LIMIT_KEY.to_owned(),
            KnowValue::Int(i64::from(supervisor.panic_limit)),
        ));
        if let Some(budget) = supervisor.budget {
            knowggets.push((
                SUPERVISOR_BUDGET_MS_KEY.to_owned(),
                KnowValue::Int(budget.as_millis() as i64),
            ));
        }
        knowggets.push((
            SUPERVISOR_BURST_PPS_KEY.to_owned(),
            KnowValue::Int(supervisor.burst_pps as i64),
        ));
        // The KB's own per-entity budget rides along when tuned, so a
        // node rebuilt from the recommendation keeps the same
        // state-exhaustion posture.
        if self.kb.entity_budget() != crate::knowledge::DEFAULT_KB_ENTITY_BUDGET {
            knowggets.push((
                KB_ENTITY_BUDGET_KEY.to_owned(),
                KnowValue::Int(self.kb.entity_budget() as i64),
            ));
        }
        // The tracing knob rides along only when sampling is on, so a
        // node rebuilt from the recommendation keeps the same
        // observability posture (and a default node stays on the
        // tracing-off fast path).
        let threshold = self.tracer.sample_rate().threshold();
        if threshold > 0 {
            let fraction = f64::from(threshold) / f64::from(SAMPLE_SCALE);
            knowggets.push((
                TRACE_SAMPLE_RATE_KEY.to_owned(),
                KnowValue::from_wire(&KnowValue::Float(fraction).to_wire()),
            ));
        }
        // The ops knobs ride along when the surface is enabled: the
        // bound port (resolved from 0 to the actual ephemeral one, so a
        // node rebuilt from the recommendation is scrapeable at a known
        // place), the SLO target, and any non-default sketch capacity.
        if let Some(ops) = &self.ops {
            knowggets.push((
                OPS_PORT_KEY.to_owned(),
                KnowValue::Int(i64::from(ops.server.addr().port())),
            ));
            if let Some(slo) = &ops.slo {
                knowggets.push((OPS_SLO_KEY.to_owned(), KnowValue::Int(slo.target_us as i64)));
            }
            if ops.sketch.capacity() != crate::ops::DEFAULT_HOT_ENTITIES {
                knowggets.push((
                    OPS_HOT_ENTITIES_KEY.to_owned(),
                    KnowValue::Int(ops.sketch.capacity() as i64),
                ));
            }
        }
        // The flight-recorder knobs ride along when tuned away from the
        // defaults, so a node rebuilt from the recommendation keeps the
        // same diagnostics-capture posture.
        let depth = self.recorder.depth();
        if depth != DEFAULT_RING_DEPTH {
            knowggets.push((DIAG_RING_DEPTH_KEY.to_owned(), KnowValue::Int(depth as i64)));
        }
        let interval_secs = self.recorder.interval_us() / 1_000_000;
        if interval_secs != DEFAULT_SNAPSHOT_INTERVAL_SECS {
            knowggets.push((
                DIAG_INTERVAL_KEY.to_owned(),
                KnowValue::Int(interval_secs as i64),
            ));
        }
        let mask = self.recorder.trigger_mask();
        if mask != TRIGGER_MASK_ALL {
            knowggets.push((
                DIAG_TRIGGER_MASK_KEY.to_owned(),
                KnowValue::Int(i64::from(mask)),
            ));
        }
        Config { modules, knowggets }
    }

    /// Drain a packet source to exhaustion, injecting periodic ticks
    /// between packets (1 s cadence on the capture clock).
    pub fn process_source(&mut self, source: &mut dyn PacketSource) {
        while let Some(packet) = source.poll() {
            self.ingest(packet);
        }
    }

    /// Alerts raised so far (not yet drained).
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Remove and return all alerts. The provenance records assembled
    /// for them are discarded with them — export what you need (via
    /// [`Kalis::explain_alert`]) first.
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        self.pending_alert_cursor = 0;
        self.provenance.clear();
        std::mem::take(&mut self.alerts)
    }

    /// The provenance record assembled for `alerts()[index]`: the
    /// triggering packet, the knowggets the raising module read (with
    /// the module/node/trace that wrote each), the activation state that
    /// made the module eligible, and any remote evidence contributed
    /// over collective sync.
    pub fn explain_alert(&self, index: usize) -> Option<&AlertProvenance> {
        self.provenance.get(index)
    }

    /// Provenance records parallel to [`Kalis::alerts`].
    pub fn alert_provenance(&self) -> &[AlertProvenance] {
        &self.provenance
    }

    /// The causal tracer: sampling control, the bounded trace buffer,
    /// and trace JSON export for `kalis-trace`.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// Build the evidence chain for `alerts()[index]` from the raising
    /// module's declared contract, resolved against the Knowledge Base
    /// at emission time.
    fn assemble_provenance(&self, index: usize, time_us: u64) -> AlertProvenance {
        let alert = &self.alerts[index];
        let contract = self.manager.contract_of(&alert.module).unwrap_or_default();
        let mut activation = Vec::new();
        for input in contract.activation_inputs() {
            let label = input.pattern.root();
            let value = self
                .kb
                .get(label)
                .map_or_else(|| "unset".to_owned(), |v| v.to_string());
            activation.push(format!("{label} = {value}"));
        }
        let mut evidence = Vec::new();
        for read in &contract.reads {
            self.resolve_evidence(read, &mut evidence);
        }
        let packet = self.current_packet_seq.map(|seq| PacketRef {
            seq,
            summary: self.store.latest().map_or_else(String::new, |p| {
                format!("medium={:?} bytes={}", p.medium, p.raw.len())
            }),
        });
        AlertProvenance {
            attack: alert.attack.to_string(),
            severity: alert.severity.to_string(),
            module: alert.module.clone(),
            victim: alert
                .victim
                .as_ref()
                .map_or_else(String::new, |v| v.to_string()),
            trace: TraceRef {
                node: self.id.to_string(),
                trace_id: alert.trace_id,
                span_id: if alert.trace_id == 0 { 0 } else { ROOT_SPAN },
            },
            time_us,
            packet,
            activation,
            evidence,
        }
    }

    /// Resolve one declared read against the Knowledge Base: collective
    /// reads enumerate every creator's copy (remote evidence), family
    /// reads enumerate the discovered members, per-entity reads every
    /// entity, and plain reads the single local knowgget.
    fn resolve_evidence(&self, read: &KeyUse, out: &mut Vec<EvidenceKnowgget>) {
        let label = read.pattern.root();
        if read.collective {
            for (creator, entity, value) in self.kb.get_all_creators(label) {
                let remote = creator != self.id;
                let key = KnowKey {
                    creator,
                    label: label.to_owned(),
                    entity,
                };
                out.push(self.evidence_entry(key, &value, remote));
            }
            return;
        }
        match &read.pattern {
            KeyPattern::Family(root) => {
                for (member, value) in self.kb.sublabels(root) {
                    let key = KnowKey::new(self.id.clone(), member);
                    out.push(self.evidence_entry(key, &value, false));
                }
            }
            KeyPattern::Exact(label) if read.per_entity => {
                for (entity, value) in self.kb.entities_with(label) {
                    let key = KnowKey::about(self.id.clone(), label.clone(), entity);
                    out.push(self.evidence_entry(key, &value, false));
                }
            }
            KeyPattern::Exact(label) => {
                if let Some(value) = self.kb.get(label) {
                    let key = KnowKey::new(self.id.clone(), label.clone());
                    out.push(self.evidence_entry(key, &value, false));
                }
            }
        }
    }

    fn evidence_entry(&self, key: KnowKey, value: &KnowValue, remote: bool) -> EvidenceKnowgget {
        let node = key.creator.to_string();
        let encoded = key.encode();
        let origin = self.kb.origin_of_encoded(&encoded);
        EvidenceKnowgget {
            key: encoded,
            value: value.to_string(),
            writer_module: origin.map_or_else(String::new, |o| o.module.clone()),
            origin: TraceRef {
                node,
                trace_id: origin.map_or(0, |o| o.trace_id),
                span_id: origin.map_or(0, |o| o.span_id),
            },
            remote,
        }
    }

    /// The Knowledge Base (read view).
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// The Knowledge Base (mutable — for tests, static knowledge
    /// injection, and embedding scenarios).
    pub fn knowledge_mut(&mut self) -> &mut KnowledgeBase {
        &mut self.kb
    }

    /// Insert a static knowgget and re-run module activation.
    pub fn insert_knowledge(&mut self, label: &str, value: impl Into<KnowValue>) {
        self.kb.insert(label, value);
        let now = self.last_tick.unwrap_or(Timestamp::ZERO);
        self.reconfigure_on_changes(now, false);
    }

    /// The response (countermeasure) engine.
    pub fn response(&self) -> &ResponseEngine {
        &self.response
    }

    /// Names of currently active modules.
    pub fn active_modules(&self) -> Vec<&'static str> {
        self.manager.active_names()
    }

    /// Per-module resource and state profiles (work, occupancy,
    /// evictions, budget) — the same view `/status` serves, exposed so
    /// harnesses can assert state stays within budget.
    pub fn module_state(&self) -> Vec<crate::modules::ModuleProfile> {
        self.manager.module_profiles()
    }

    /// Resource accounting so far: a facade deriving the meter from the
    /// telemetry counters (`packets.ingested`, `work.units`,
    /// `state.peak_bytes`), so the two views can never disagree.
    pub fn meter(&self) -> ResourceMeter {
        ResourceMeter {
            packets: self.stats.packets.get(),
            work_units: self.stats.work.get(),
            peak_state_bytes: self.stats.peak_state.get() as usize,
        }
    }

    /// This node's telemetry registry: counters, gauges, per-module
    /// latency histograms, and the structured event journal. Snapshot it
    /// with [`Telemetry::snapshot`] and export via
    /// [`kalis_telemetry::TelemetrySnapshot::to_prometheus`] or
    /// [`kalis_telemetry::TelemetrySnapshot::to_json`].
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.tele
    }

    /// The Data Store.
    pub fn store(&self) -> &DataStore {
        &self.store
    }

    /// Mutable access to the Data Store (e.g. to attach a disk log).
    pub fn store_mut(&mut self) -> &mut DataStore {
        &mut self.store
    }

    /// Collect this node's changed collective knowggets as a sync message
    /// for its peers, if any changed.
    pub fn collective_outbox(&mut self) -> Option<SyncMessage> {
        let dirty = self.kb.drain_dirty_collective();
        if dirty.is_empty() {
            return None;
        }
        let message = SyncMessage::new(self.id.clone(), dirty);
        let knowggets = message.knowggets.len() as u64;
        let bytes = message.encoded_len() as u64;
        self.stats.sync_sent.inc();
        self.stats.sync_knowggets_out.add(knowggets);
        self.stats.sync_bytes_out.add(bytes);
        self.tele.journal().record(
            self.capture_time_us(),
            JournalEvent::SyncSent {
                peer: "*".to_owned(),
                knowggets,
                bytes,
            },
        );
        Some(message)
    }

    /// Accept a peer's sync message, enforcing creator ownership.
    ///
    /// # Errors
    ///
    /// Returns [`KalisError::SyncRejected`] when any knowgget violates the
    /// ownership rule; accepted knowggets before the violation are kept.
    pub fn accept_sync(&mut self, message: SyncMessage) -> Result<usize, KalisError> {
        let sender = message.from.to_string();
        let bytes = {
            let bytes = message.encoded_len() as u64;
            self.stats.sync_bytes_in.add(bytes);
            bytes
        };
        let trace_enabled = self.tracer.enabled();
        let mut accepted = 0;
        for knowgget in message.knowggets {
            // Capture the wire-carried provenance before the knowgget is
            // consumed, so an accepted contribution can be recorded
            // against its *originating* node's trace.
            let traced = trace_enabled
                .then(|| knowgget.origin.clone().filter(|o| o.trace_id != 0))
                .flatten()
                .map(|origin| {
                    let key = KnowKey {
                        creator: knowgget.creator.clone(),
                        label: knowgget.label.clone(),
                        entity: knowgget.entity.clone(),
                    };
                    (origin, key.encode())
                });
            match self.kb.accept_remote(&message.from, knowgget) {
                Ok(true) => {
                    accepted += 1;
                    if let Some((origin, encoded)) = traced {
                        let ctx = TraceContext {
                            trace_id: origin.trace_id,
                            span_id: origin.span_id,
                            sampled: self.tracer.sample_rate().decide(origin.trace_id),
                        };
                        self.tracer.record(
                            &ctx,
                            0,
                            self.capture_time_us(),
                            format!("sync.accept:{encoded}"),
                            self.id.as_str(),
                            format!("from {sender} written by {}", origin.module),
                        );
                    }
                }
                Ok(false) => {}
                Err(reason) => {
                    self.stats.sync_rejected.inc();
                    self.tele.journal().record(
                        self.capture_time_us(),
                        JournalEvent::SyncRejected {
                            peer: sender.clone(),
                            reason: reason.clone(),
                        },
                    );
                    return Err(KalisError::SyncRejected {
                        peer: sender,
                        reason,
                    });
                }
            }
        }
        self.stats.sync_accepted.inc();
        self.stats.sync_knowggets_in.add(accepted as u64);
        self.tele.journal().record(
            self.capture_time_us(),
            JournalEvent::SyncAccepted {
                peer: sender,
                knowggets: accepted as u64,
                bytes,
            },
        );
        if self.kb.has_changes() {
            let now = self.last_tick.unwrap_or(Timestamp::ZERO);
            self.reconfigure_on_changes(now, false);
        }
        Ok(accepted)
    }

    /// Record a peer beacon heard on the local network. Returns whether
    /// the peer is newly discovered (a new peer is owed a full
    /// collective-state re-sync on the next [`Kalis::sync_poll`]).
    pub fn observe_beacon(&mut self, beacon: &PeerBeacon, now: Timestamp) -> bool {
        let newly = self.syncer.observe_peer(&beacon.from, now);
        self.apply_sync_events(now);
        newly
    }

    /// Drive the fault-tolerant sync engine one step: emit this node's
    /// beacon when due, queue full-state snapshots for peers owed a
    /// re-sync, broadcast freshly-dirty collective knowggets, and return
    /// every sealed frame due for (re-)transmission.
    pub fn sync_poll(&mut self, now: Timestamp) -> SyncPoll {
        let beacon = self.syncer.beacon_due(now).then(|| PeerBeacon {
            from: self.id.clone(),
        });
        for peer in self.syncer.take_resync_peers() {
            let snapshot = self.kb.collective_knowggets();
            self.syncer.enqueue_to(&peer, snapshot, now);
        }
        let dirty = self.kb.drain_dirty_collective();
        if !dirty.is_empty() {
            self.syncer.enqueue_broadcast(&dirty, now);
        }
        let frames = self.syncer.poll(now);
        for frame in &frames {
            if frame.retransmit {
                self.stats.sync_retransmits.inc();
            } else {
                self.stats.sync_sent.inc();
                self.stats.sync_knowggets_out.add(frame.knowggets);
                self.tele.journal().record(
                    now.as_micros(),
                    JournalEvent::SyncSent {
                        peer: frame.to.to_string(),
                        knowggets: frame.knowggets,
                        bytes: frame.bytes.len() as u64,
                    },
                );
            }
            self.stats.sync_bytes_out.add(frame.bytes.len() as u64);
        }
        let overflow = self.apply_sync_events(now);
        SyncPoll {
            beacon,
            frames,
            overflow,
        }
    }

    /// Open a sealed sync frame from the transport: acks settle pending
    /// retransmissions, fresh data is applied to the Knowledge Base under
    /// the ownership rule, and replays are dropped (but re-acked).
    ///
    /// # Errors
    ///
    /// [`KalisError::SyncRejected`] when authentication or decoding fails
    /// (peer `"unknown"` if the sender was unreadable) or when a knowgget
    /// violates the ownership rule.
    pub fn receive_sync_frame(
        &mut self,
        sealed: &[u8],
        now: Timestamp,
    ) -> Result<SyncReceipt, KalisError> {
        let receipt = self.syncer.receive(sealed, now).map_err(|reason| {
            self.stats.sync_rejected.inc();
            self.tele.journal().record(
                now.as_micros(),
                JournalEvent::SyncRejected {
                    peer: "unknown".to_owned(),
                    reason: reason.clone(),
                },
            );
            KalisError::SyncRejected {
                peer: "unknown".to_owned(),
                reason,
            }
        })?;
        let from = receipt.from.clone();
        let seq = receipt.seq;
        let result = match receipt.kind {
            ReceiptKind::Fresh(message) => {
                let accepted = self.accept_sync(message)?;
                Ok(SyncReceipt {
                    from,
                    accepted,
                    duplicate: false,
                    reply: receipt.reply,
                })
            }
            ReceiptKind::Duplicate => {
                self.stats.sync_duplicates.inc();
                self.tele.journal().record(
                    now.as_micros(),
                    JournalEvent::SyncDuplicate {
                        peer: from.to_string(),
                        seq,
                    },
                );
                Ok(SyncReceipt {
                    from,
                    accepted: 0,
                    duplicate: true,
                    reply: receipt.reply,
                })
            }
            ReceiptKind::Ack { .. } => Ok(SyncReceipt {
                from,
                accepted: 0,
                duplicate: false,
                reply: None,
            }),
        };
        self.apply_sync_events(now);
        result
    }

    /// Health of `peer` as tracked by the sync state machine.
    ///
    /// # Errors
    ///
    /// [`KalisError::PeerUnreachable`] when the peer is unknown or Dead.
    pub fn peer_health(&self, peer: &KalisId) -> Result<PeerHealth, KalisError> {
        match self.syncer.peer_health(peer) {
            Some(PeerHealth::Dead) | None => Err(KalisError::PeerUnreachable {
                peer: peer.to_string(),
            }),
            Some(health) => Ok(health),
        }
    }

    /// Whether this node is in degraded local-only mode (all peers Dead
    /// or sync backlog overflowed): local detection keeps running, but
    /// collaborative-only verdicts are suppressed.
    pub fn degraded(&self) -> bool {
        self.syncer.degraded()
    }

    /// Whether the *detection pipeline itself* is degraded: overload
    /// shedding is in effect or at least one module is quarantined. The
    /// collective-sync notion of degradation ([`Kalis::degraded`]) is
    /// independent of this one.
    pub fn degraded_pipeline(&self) -> bool {
        self.overload.shedding() || self.manager.quarantined_count() > 0
    }

    /// The shed mode decided by the overload controller at the last
    /// ingest.
    pub fn shed_mode(&self) -> ShedMode {
        self.overload.mode()
    }

    /// Address of the kalis-ops HTTP listener, when the surface is
    /// enabled (resolves port 0 to the actual ephemeral port).
    pub fn ops_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(|ops| ops.server.addr())
    }

    /// Diagnostics bundles retained by the flight recorder, oldest
    /// first: `(bundle id, kalis.diag.v1 JSON)`. Bounded to
    /// [`DIAG_BUNDLE_RETENTION`]; also served via `/debug/diag` when
    /// the ops surface is enabled.
    pub fn diag_bundles(&self) -> &[(String, String)] {
        &self.diag_bundles
    }

    /// The trigger behind the flight recorder's most recent capture.
    pub fn diag_last_trigger(&self) -> Option<&'static str> {
        self.recorder.last_trigger().map(Trigger::name)
    }

    /// The node's current readiness verdict: empty reasons means fit
    /// for duty. `/readyz` serves the same verdict as published at the
    /// last transition or tick; this accessor recomputes it live.
    ///
    /// A node stays *live* through all of these, but loses *readiness*
    /// when any pinned module sits in quarantine
    /// (`pinned_module_quarantined:<name>`), overload shedding is
    /// engaged (`overload_shedding:<heavy|all>`), or collective sync
    /// fell into degraded local-only mode (`sync_degraded`). Unpinned
    /// quarantined modules do not flip readiness: the knowledge-driven
    /// activation contract never promised they would run.
    pub fn readiness(&self) -> Readiness {
        let mut reasons = Vec::new();
        for name in self.manager.quarantined_pinned_names() {
            reasons.push(format!("pinned_module_quarantined:{name}"));
        }
        match self.overload.mode() {
            ShedMode::None => {}
            ShedMode::Heavy => reasons.push("overload_shedding:heavy".to_owned()),
            ShedMode::All => reasons.push("overload_shedding:all".to_owned()),
        }
        if self.syncer.degraded() {
            reasons.push("sync_degraded".to_owned());
        }
        Readiness { reasons }
    }

    fn shed_label(mode: ShedMode) -> &'static str {
        match mode {
            ShedMode::None => "none",
            ShedMode::Heavy => "heavy",
            ShedMode::All => "all",
        }
    }

    /// Rebuild and publish everything the ops listener serves: profiler
    /// gauges, SLO posture (with breach/recovery journal events), the
    /// hot-entity exposition block, and the pre-rendered `/status` and
    /// `/readyz` documents. Runs at tick cadence plus on every
    /// readiness transition; scrapes between refreshes see the last
    /// published state without touching node internals.
    ///
    /// Only the profiler gauges and the readiness comparison run on
    /// every call. The full report render is throttled to
    /// [`OPS_RENDER_MIN_INTERVAL`] of wall time unless `force` is set
    /// (explicit ticks, readiness transitions, build) — capture clocks
    /// compress time under replay, and re-rendering kilobytes of JSON
    /// per capture-second would tax the ingest hot path for staleness
    /// no wall-clock scraper could ever observe.
    fn ops_refresh(&mut self, now: Timestamp, force: bool) {
        if self.ops.is_none() {
            return;
        }
        self.manager.publish_profiles();
        let readiness = self.readiness();
        let ops = self.ops.as_mut().expect("checked above");
        let due = force
            || ops.last_reasons != readiness.reasons
            || !ops
                .last_render
                .is_some_and(|at| at.elapsed() < OPS_RENDER_MIN_INTERVAL);
        if !due {
            return;
        }
        // kalis-lint: allow(KL302): ops snapshot throttle is wall-clock by design
        ops.last_render = Some(std::time::Instant::now());
        let modules: Vec<ModuleStatus> = self
            .manager
            .module_profiles()
            .iter()
            .map(ModuleStatus::from)
            .collect();
        let peers: Vec<(String, String)> = self
            .syncer
            .peers()
            .into_iter()
            .map(|(id, health)| (id.to_string(), health.as_str().to_owned()))
            .collect();
        let alerts = self.stats.alerts.get();
        // SLO posture: p99 of the whole-ingest pipeline histogram (ns)
        // against the configured target, latched so only transitions
        // reach the journal.
        let slo = {
            let p99_us = self.stats.pipeline.snapshot().quantile(0.99) / 1_000;
            let tele = &self.tele;
            let ops = self.ops.as_mut().expect("checked above");
            ops.slo.as_mut().map(|tracker| {
                let breached = p99_us > tracker.target_us;
                tracker.p99.set(p99_us);
                tracker
                    .burn
                    .set(p99_us.saturating_mul(1000) / tracker.target_us.max(1));
                tracker.breached_gauge.set(u64::from(breached));
                if breached != tracker.breached {
                    tracker.breached = breached;
                    let event = if breached {
                        JournalEvent::SloBreached {
                            p99_us,
                            target_us: tracker.target_us,
                        }
                    } else {
                        JournalEvent::SloRecovered {
                            p99_us,
                            target_us: tracker.target_us,
                        }
                    };
                    tele.journal().record(now.as_micros(), event);
                }
                SloStatus {
                    target_us: tracker.target_us,
                    p99_us,
                    breached,
                }
            })
        };
        let journal_dropped = self.tele.journal().dropped();
        let trace_dropped = self.tracer.dropped();
        let ops = self.ops.as_mut().expect("checked above");
        let hot_entities: Vec<HotEntity> = ops
            .sketch
            .top()
            .into_iter()
            .map(|entry| HotEntity {
                entity: entry.key.to_string(),
                count: entry.count,
                error: entry.error,
            })
            .collect();
        let uptime_us = ops
            .started_us
            .map_or(0, |start| now.as_micros().saturating_sub(start));
        let (diag_captures, diag_ring_occupancy, diag_last_trigger) = (
            self.recorder.captures(),
            self.recorder.occupancy() as u64,
            self.recorder
                .last_trigger()
                .map(|t| t.name().to_owned())
                .unwrap_or_default(),
        );
        let report = StatusReport {
            node: self.id.to_string(),
            readiness,
            capture_time_us: now.as_micros(),
            uptime_us,
            shed_mode: Self::shed_label(self.overload.mode()).to_owned(),
            sync_degraded: self.syncer.degraded(),
            modules,
            peers,
            hot_entities,
            journal_dropped,
            trace_dropped,
            alerts,
            slo,
            diag_captures,
            diag_ring_occupancy,
            diag_last_trigger,
        };
        ops.last_reasons = report.readiness.reasons.clone();
        ops.shared.publish(&report);
    }

    /// Names of modules currently quarantined by the supervisor.
    pub fn quarantined_modules(&self) -> Vec<&'static str> {
        self.manager.quarantined_names()
    }

    /// Supervision health of the named module, mirroring
    /// [`Kalis::peer_health`]: the degenerate states are errors.
    ///
    /// # Errors
    ///
    /// [`KalisError::UnknownModule`] when no module by that name is
    /// loaded; [`KalisError::ModuleQuarantined`] while the module is
    /// quarantined (its backoff has not yet released it to probation).
    pub fn module_health(&self, name: &str) -> Result<ModuleHealth, KalisError> {
        match self.manager.module_health(name) {
            None => Err(KalisError::UnknownModule {
                name: name.to_owned(),
            }),
            Some(ModuleHealth::Quarantined) => Err(KalisError::ModuleQuarantined {
                module: name.to_owned(),
            }),
            Some(health) => Ok(health),
        }
    }

    /// The active supervisor tunables (after config-knowgget overrides).
    pub fn supervisor_config(&self) -> &SupervisorConfig {
        self.manager.supervisor_config()
    }

    /// The active sync tunables (after config-knowgget overrides).
    pub fn sync_config(&self) -> &SyncConfig {
        self.syncer.config()
    }

    /// Drain the sync engine's state-machine events into the journal,
    /// gauges, and the `DegradedMode` knowgget that collaborative modules
    /// key off. Returns the backlog-overflow error for this pass, if any.
    fn apply_sync_events(&mut self, now: Timestamp) -> Option<KalisError> {
        let events = self.syncer.drain_events();
        if events.is_empty() {
            return None;
        }
        let mut overflow_dropped: u64 = 0;
        let mut degraded_flip: Option<bool> = None;
        for event in events {
            match event {
                SyncEvent::PeerDiscovered { .. } => {}
                SyncEvent::Health { peer, from, to } => {
                    self.tele.journal().record(
                        now.as_micros(),
                        JournalEvent::PeerHealthChanged {
                            peer: peer.to_string(),
                            from: from.as_str().to_owned(),
                            to: to.as_str().to_owned(),
                        },
                    );
                }
                SyncEvent::QueueOverflow { dropped, .. } => {
                    overflow_dropped += dropped;
                    self.stats.sync_queue_dropped.add(dropped);
                }
                SyncEvent::DegradedEntered { reason } => {
                    degraded_flip = Some(true);
                    self.tele
                        .journal()
                        .record(now.as_micros(), JournalEvent::DegradedEntered { reason });
                }
                SyncEvent::DegradedExited { healthy } => {
                    degraded_flip = Some(false);
                    self.tele.journal().record(
                        now.as_micros(),
                        JournalEvent::DegradedExited {
                            healthy_peers: healthy,
                        },
                    );
                }
                SyncEvent::PeerExpired { peer } => {
                    self.stats.peers_expired.inc();
                    self.tele.journal().record(
                        now.as_micros(),
                        JournalEvent::PeerExpired {
                            peer: peer.to_string(),
                        },
                    );
                }
            }
        }
        let mut healthy = 0u64;
        let mut suspect = 0u64;
        let mut dead = 0u64;
        for (_, health) in self.syncer.peers() {
            match health {
                PeerHealth::Healthy => healthy += 1,
                PeerHealth::Suspect => suspect += 1,
                PeerHealth::Dead => dead += 1,
            }
        }
        self.stats.peers_healthy.set(healthy);
        self.stats.peers_suspect.set(suspect);
        self.stats.peers_dead.set(dead);
        self.stats.degraded.set(u64::from(self.syncer.degraded()));
        if let Some(entered) = degraded_flip {
            // The mode is itself knowledge: collaborative-only modules
            // (e.g. wormhole correlation) suppress their verdicts while
            // it is set, and the Module Manager re-evaluates activation.
            if entered {
                self.kb.insert(DEGRADED_LABEL, true);
            } else {
                self.kb.remove(DEGRADED_LABEL);
            }
            self.reconfigure_on_changes(now, true);
        }
        // Degraded-mode flips change readiness; publish them to /readyz
        // immediately rather than waiting for the next tick or packet.
        if let Some(ops) = &self.ops {
            if ops.last_reasons != self.readiness().reasons {
                self.ops_refresh(now, true);
            }
        }
        (overflow_dropped > 0).then_some(KalisError::SyncBacklogOverflow {
            dropped: overflow_dropped,
        })
    }

    /// The journal/trace timestamp for events outside packet processing:
    /// the latest capture-clock time this node has seen.
    fn capture_time_us(&self) -> u64 {
        self.last_tick.map_or(0, Timestamp::as_micros)
    }
}

impl core::fmt::Debug for Kalis {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Kalis")
            .field("id", &self.id)
            .field("knowledge", &self.kb.len())
            .field("active_modules", &self.manager.active_count())
            .field("alerts", &self.alerts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::ReplaySource;
    use kalis_packets::{Medium, ShortAddr};

    fn ctp_packet(ms: u64, thl: u8) -> CapturedPacket {
        let raw = kalis_netsim::craft::ctp_data(
            ShortAddr(2),
            ShortAddr(1),
            (ms / 100) as u8,
            ShortAddr(3),
            (ms / 100) as u8,
            thl,
            b"r",
        );
        CapturedPacket::capture(
            Timestamp::from_millis(ms),
            Medium::Ieee802154,
            Some(-50.0),
            "t",
            raw,
        )
    }

    #[test]
    fn builder_default_library_starts_with_sensing_only() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let active = kalis.active_modules();
        assert!(active.contains(&"TopologyDiscoveryModule"));
        assert!(active.contains(&"TrafficStatsModule"));
        assert!(active.contains(&"MobilityAwarenessModule"));
        assert!(
            !active
                .iter()
                .any(|n| n.contains("Flood") || n.contains("Smurf")),
            "no detection module without knowledge: {active:?}"
        );
    }

    #[test]
    fn knowledge_discovery_activates_detection_modules() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        // Forwarded CTP traffic → Multihop=true → watchdog modules activate.
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let active = kalis.active_modules();
        assert!(active.contains(&"SelectiveForwardingModule"), "{active:?}");
        assert!(active.contains(&"BlackholeModule"));
        assert!(active.contains(&"SmurfModule"));
        assert!(active.contains(&"SybilModule"), "802.15.4 medium seen");
    }

    #[test]
    fn traditional_mode_runs_all_modules_always() {
        let kalis = Kalis::builder(KalisId::new("T"))
            .with_default_modules()
            .traditional()
            .build();
        assert_eq!(kalis.active_modules().len(), 17, "whole library active");
    }

    #[test]
    fn apriori_knowledge_activates_immediately() {
        let config: Config = "knowggets = { Multihop = true }".parse().unwrap();
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(config)
            .with_default_modules()
            .build();
        assert!(kalis.active_modules().contains(&"SmurfModule"));
    }

    #[test]
    fn pinned_config_modules_stay_active() {
        let config: Config = "modules = { IcmpFloodModule (threshold = 5) }"
            .parse()
            .unwrap();
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(config)
            .build();
        assert_eq!(kalis.active_modules(), vec!["IcmpFloodModule"]);
    }

    #[test]
    fn unknown_config_module_errors() {
        let config: Config = "modules = { Bogus }".parse().unwrap();
        let err = Kalis::builder(KalisId::new("K1"))
            .with_config(config)
            .try_build()
            .unwrap_err();
        assert!(matches!(err, KalisError::UnknownModule { .. }));
    }

    #[test]
    fn process_source_drains_replay() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let packets: Vec<_> = (0..10).map(|i| ctp_packet(i * 200, 1)).collect();
        let mut source = ReplaySource::new("replay", packets);
        kalis.process_source(&mut source);
        assert_eq!(kalis.meter().packets, 10);
        assert_eq!(kalis.store().len(), 10);
        assert!(kalis.meter().peak_state_bytes > 0);
    }

    #[test]
    fn collective_roundtrip_between_two_nodes() {
        let mut k1 = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let mut k2 = Kalis::builder(KalisId::new("K2"))
            .with_default_modules()
            .build();
        // K1 observes a node → publishes collective SignalStrength.
        k1.ingest(ctp_packet(0, 0));
        let msg = k1
            .collective_outbox()
            .expect("signal strength is collective");
        let accepted = k2.accept_sync(msg).unwrap();
        assert!(accepted >= 1);
        let all = k2.knowledge().get_all_creators("SignalStrength");
        assert!(all.iter().any(|(creator, ..)| creator.as_str() == "K1"));
    }

    #[test]
    fn forged_sync_is_rejected() {
        let mut k2 = Kalis::builder(KalisId::new("K2")).build();
        let forged = SyncMessage::new(
            KalisId::new("K3"),
            vec![crate::knowledge::Knowgget::new(
                "Multihop",
                KnowValue::Bool(true),
                KalisId::new("K1"), // creator ≠ sender
            )],
        );
        assert!(k2.accept_sync(forged).is_err());
    }

    #[test]
    fn event_bus_publishes_knowledge_modules_and_alerts() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        let rx = kalis.subscribe();
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let events: Vec<_> = rx.try_iter().collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, crate::bus::KalisEvent::KnowledgeChanged { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, crate::bus::KalisEvent::ModulesReconfigured { .. })));
    }

    #[test]
    fn recommended_config_roundtrips_and_rebuilds() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let config = kalis.recommend_config();
        assert!(config
            .modules
            .iter()
            .any(|m| m.name == "SelectiveForwardingModule"));
        assert!(config
            .knowggets
            .iter()
            .any(|(k, v)| k == "Multihop" && *v == KnowValue::Bool(true)));
        // Round-trip through the Fig. 6 text format and rebuild a node
        // from it (the compile-time deployment workflow).
        let text = config.to_string();
        let reparsed: Config = text.parse().unwrap();
        assert_eq!(reparsed, config);
        let small = Kalis::builder(KalisId::new("tiny"))
            .with_config(reparsed)
            .try_build()
            .unwrap();
        assert!(small
            .active_modules()
            .contains(&"SelectiveForwardingModule"));
    }

    #[test]
    fn sync_tunables_ride_the_config_language() {
        // Both knobs set explicitly via the Fig. 6 text format.
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "knowggets = { Sync.PeerTtl = 12, Sync.BeaconInterval = 2 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        assert_eq!(kalis.sync_config().peer_ttl, Duration::from_secs(12));
        assert_eq!(kalis.sync_config().beacon_interval, Duration::from_secs(2));
        // The knobs are ordinary knowggets too — visible in the KB.
        assert_eq!(kalis.knowledge().get_f64("Sync.PeerTtl"), Some(12.0));

        // TTL alone derives the beacon cadence (ttl / 3).
        let ttl_only = Kalis::builder(KalisId::new("K2"))
            .with_config("knowggets = { Sync.PeerTtl = 9 }".parse().unwrap())
            .build();
        assert_eq!(ttl_only.sync_config().peer_ttl, Duration::from_secs(9));
        assert_eq!(
            ttl_only.sync_config().beacon_interval,
            Duration::from_secs(3)
        );

        // File order does not matter: an explicit interval wins even
        // when it appears before the TTL that would otherwise derive it.
        let reordered = Kalis::builder(KalisId::new("K3"))
            .with_config(
                "knowggets = { Sync.BeaconInterval = 2, Sync.PeerTtl = 12 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        assert_eq!(reordered.sync_config().peer_ttl, Duration::from_secs(12));
        assert_eq!(
            reordered.sync_config().beacon_interval,
            Duration::from_secs(2)
        );

        // The tunables survive a full recommend -> render -> parse ->
        // rebuild round-trip (the compile-time deployment workflow).
        let config = kalis.recommend_config();
        let text = config.to_string();
        let reparsed: Config = text.parse().unwrap();
        assert_eq!(reparsed, config);
        let redeployed = Kalis::builder(KalisId::new("K4"))
            .with_config(reparsed)
            .try_build()
            .unwrap();
        assert_eq!(redeployed.sync_config(), kalis.sync_config());
    }

    #[test]
    fn auto_response_revokes_suspects() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "modules = { IcmpFloodModule (threshold = 5) } knowggets = { Multihop = false }"
                    .parse()
                    .unwrap(),
            )
            .build();
        // Craft an ICMP reply flood.
        for i in 0..10u64 {
            let ip = kalis_netsim::craft::ipv4_echo_reply(
                std::net::Ipv4Addr::new(1, 1, 1, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 7),
                1,
                i as u16,
            );
            let raw = kalis_netsim::craft::wifi_ipv4(
                kalis_packets::MacAddr::from_index(66),
                kalis_packets::MacAddr::BROADCAST,
                kalis_packets::MacAddr::from_index(0),
                i as u16,
                &ip,
            );
            kalis.ingest(CapturedPacket::capture(
                Timestamp::from_millis(i * 50),
                Medium::Wifi,
                Some(-48.0),
                "w",
                raw,
            ));
        }
        assert!(!kalis.alerts().is_empty());
        let attacker = Entity::from(kalis_packets::MacAddr::from_index(66));
        assert!(kalis
            .response()
            .is_revoked(&attacker, Timestamp::from_secs(1)));
    }

    #[test]
    fn supervisor_knowggets_override_builder_config() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "modules = { TrafficStatsModule } knowggets = { Supervisor.PanicLimit = 7, Supervisor.BudgetMs = 50, Supervisor.BurstPps = 123 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        let cfg = kalis.supervisor_config();
        assert_eq!(cfg.panic_limit, 7);
        assert_eq!(cfg.budget, Some(Duration::from_millis(50)));
        assert_eq!(cfg.burst_pps, 123);
    }

    #[test]
    fn recommend_config_round_trips_supervisor_knobs() {
        let base = SupervisorConfig {
            panic_limit: 5,
            budget: Some(Duration::from_millis(20)),
            burst_pps: 777,
            ..SupervisorConfig::default()
        };
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_supervisor_config(base)
            .build();
        let recommended = kalis.recommend_config();
        let text = recommended.to_string();
        let rebuilt = Kalis::builder(KalisId::new("K2"))
            .with_config(text.parse().expect("recommendation re-parses"))
            .build();
        let cfg = rebuilt.supervisor_config();
        assert_eq!(cfg.panic_limit, 5);
        assert_eq!(cfg.budget, Some(Duration::from_millis(20)));
        assert_eq!(cfg.burst_pps, 777);
    }

    #[test]
    fn burst_engages_shedding_and_flags_pipeline_degraded() {
        let supervisor = SupervisorConfig {
            burst_pps: 50,
            ..SupervisorConfig::default()
        };
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_supervisor_config(supervisor)
            .build();
        assert!(!kalis.degraded_pipeline());
        // ~10× capacity: 500 packets over one second of capture time.
        let mut overloaded = 0;
        for i in 0..500u64 {
            let packet = ctp_packet(i * 2, 0);
            if kalis.try_ingest(packet).is_err() {
                overloaded += 1;
            }
        }
        assert!(
            kalis.shed_mode() != ShedMode::None,
            "burst engages shedding"
        );
        assert!(kalis.degraded_pipeline());
        assert!(overloaded > 0, "severe overload surfaces PipelineOverload");
        // Calm traffic releases the shed (rate falls below ¾ capacity).
        for i in 0..60u64 {
            kalis.ingest(ctp_packet(2_000 + i * 100, 0));
        }
        assert_eq!(kalis.shed_mode(), ShedMode::None);
        assert!(!kalis.degraded_pipeline());
    }

    #[test]
    fn tracing_knob_rides_the_config_language_and_round_trips() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_config("knowggets = { Trace.SampleRate = 0.5 }".parse().unwrap())
            .build();
        assert!(kalis.tracer().enabled());
        assert_eq!(kalis.tracer().sample_rate(), SampleRate::from_fraction(0.5));
        // Out-of-range values are ignored (and flagged by kalis-lint).
        let bogus = Kalis::builder(KalisId::new("K2"))
            .with_config("knowggets = { Trace.SampleRate = 7 }".parse().unwrap())
            .build();
        assert!(!bogus.tracer().enabled());
        // recommend -> render -> parse -> rebuild keeps the posture.
        let config = kalis.recommend_config();
        let rebuilt = Kalis::builder(KalisId::new("K3"))
            .with_config(config.to_string().parse().unwrap())
            .try_build()
            .unwrap();
        assert_eq!(rebuilt.tracer().sample_rate(), kalis.tracer().sample_rate());
        // Sampling-off nodes leave the knob out of the recommendation.
        let quiet = Kalis::builder(KalisId::new("K4")).build();
        assert!(!quiet
            .recommend_config()
            .knowggets
            .iter()
            .any(|(k, _)| k == TRACE_SAMPLE_RATE_KEY));
    }

    #[test]
    fn diag_and_slo_knobs_round_trip_through_the_recommendation() {
        let tuned = "knowggets = { Diag.RingDepth = 16, Diag.SnapshotIntervalSecs = 5, \
                     Diag.TriggerMask = 5, Ops.LatencySloUs = 250000 }";
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_config(tuned.parse().unwrap())
            .build();
        assert_eq!(kalis.recorder.depth(), 16);
        assert_eq!(kalis.recorder.interval_us(), 5_000_000);
        assert_eq!(kalis.recorder.trigger_mask(), 5);
        let slo_target = |node: &Kalis| node.ops.as_ref()?.slo.as_ref().map(|s| s.target_us);
        assert_eq!(slo_target(&kalis), Some(250_000));
        // recommend -> render -> parse -> rebuild keeps the posture. The
        // pinned `Ops.Port` is dropped: the original still holds it.
        let mut config: Config = kalis.recommend_config().to_string().parse().unwrap();
        config.knowggets.retain(|(key, _)| key != OPS_PORT_KEY);
        let rebuilt = Kalis::builder(KalisId::new("K2"))
            .with_config(config)
            .try_build()
            .unwrap();
        assert_eq!(rebuilt.recorder.depth(), kalis.recorder.depth());
        assert_eq!(rebuilt.recorder.interval_us(), kalis.recorder.interval_us());
        assert_eq!(
            rebuilt.recorder.trigger_mask(),
            kalis.recorder.trigger_mask()
        );
        assert_eq!(slo_target(&rebuilt), slo_target(&kalis));
        // Default capture posture leaves every Diag knob out.
        let plain = Kalis::builder(KalisId::new("K3")).build();
        assert!(!plain
            .recommend_config()
            .knowggets
            .iter()
            .any(|(key, _)| key.starts_with("Diag.")));
    }

    #[test]
    fn full_sampling_traces_ingest_and_knowledge_writes() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_trace_sampling(SampleRate::full())
            .build();
        for i in 0..5 {
            kalis.ingest(ctp_packet(i * 100, 1));
        }
        let events = kalis.tracer().events();
        assert!(events.iter().any(|e| e.name == "ingest"));
        assert!(events.iter().any(|e| e.name == "dispatch"));
        // Every event belongs to a real trace recorded on this node.
        assert!(events.iter().all(|e| e.trace_id != 0 && e.node == "K1"));
        // Knowledge written during a traced dispatch is attributed to
        // the writing module and the packet's trace.
        let origin = kalis
            .knowledge()
            .origin_of_encoded("K1$Multihop")
            .expect("Multihop write is attributed");
        assert_eq!(origin.module, "TopologyDiscoveryModule");
        assert_ne!(origin.trace_id, 0);
        // The tracing-off default records nothing.
        let mut quiet = Kalis::builder(KalisId::new("K2"))
            .with_default_modules()
            .build();
        quiet.ingest(ctp_packet(0, 1));
        assert!(quiet.tracer().events().is_empty());
        assert!(
            quiet.knowledge().origin_of_encoded("K2$Multihop").is_none()
                || quiet
                    .knowledge()
                    .origin_of_encoded("K2$Multihop")
                    .unwrap()
                    .trace_id
                    == 0
        );
    }

    #[test]
    fn alerts_carry_trace_ids_and_provenance() {
        let mut kalis = Kalis::builder(KalisId::new("K1"))
            .with_config(
                "modules = { IcmpFloodModule (threshold = 5) } knowggets = { Multihop = false, Trace.SampleRate = 1 }"
                    .parse()
                    .unwrap(),
            )
            .build();
        for i in 0..10u64 {
            let ip = kalis_netsim::craft::ipv4_echo_reply(
                std::net::Ipv4Addr::new(1, 1, 1, 1),
                std::net::Ipv4Addr::new(10, 0, 0, 7),
                1,
                i as u16,
            );
            let raw = kalis_netsim::craft::wifi_ipv4(
                kalis_packets::MacAddr::from_index(66),
                kalis_packets::MacAddr::BROADCAST,
                kalis_packets::MacAddr::from_index(0),
                i as u16,
                &ip,
            );
            kalis.ingest(CapturedPacket::capture(
                Timestamp::from_millis(i * 50),
                Medium::Wifi,
                Some(-48.0),
                "w",
                raw,
            ));
        }
        assert!(!kalis.alerts().is_empty());
        let alert = &kalis.alerts()[0];
        assert_ne!(alert.trace_id, 0, "sampled alert is stamped");
        assert_eq!(kalis.alert_provenance().len(), kalis.alerts().len());
        let provenance = kalis.explain_alert(0).expect("assembled at emission");
        assert_eq!(provenance.module, alert.module);
        assert_eq!(provenance.trace.trace_id, alert.trace_id);
        assert_eq!(provenance.trace.node, "K1");
        let packet = provenance.packet.as_ref().expect("packet-triggered");
        assert!(packet.seq > 0);
        assert!(packet.summary.contains("Wifi"));
        // The module's activation inputs are captured as evidence.
        assert!(provenance
            .activation
            .iter()
            .any(|a| a.contains("Multihop = false")));
        // The trace contains the alert emission itself.
        assert!(kalis
            .tracer()
            .events()
            .iter()
            .any(|e| e.name == "alert:icmp-flood" && e.trace_id == alert.trace_id));
        // JSON explain format round-trips.
        let back = AlertProvenance::from_json(&provenance.to_json()).unwrap();
        assert_eq!(&back, provenance);
        // Draining alerts discards the parallel provenance table.
        kalis.drain_alerts();
        assert!(kalis.alert_provenance().is_empty());
        assert!(kalis.explain_alert(0).is_none());
    }

    #[test]
    fn remote_sync_contributions_carry_their_origin_trace() {
        let mut k1 = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .with_trace_sampling(SampleRate::full())
            .build();
        let mut k2 = Kalis::builder(KalisId::new("K2"))
            .with_default_modules()
            .with_trace_sampling(SampleRate::full())
            .build();
        k1.ingest(ctp_packet(0, 0));
        let msg = k1.collective_outbox().expect("collective knowledge");
        let traced: Vec<_> = msg
            .knowggets
            .iter()
            .filter(|k| k.origin.as_ref().is_some_and(|o| o.trace_id != 0))
            .cloned()
            .collect();
        assert!(!traced.is_empty(), "K1's writes carry trace provenance");
        k2.accept_sync(msg).unwrap();
        // K2's knowledge remembers the remote origin...
        let sample = &traced[0];
        let key = KnowKey {
            creator: sample.creator.clone(),
            label: sample.label.clone(),
            entity: sample.entity.clone(),
        };
        let origin = k2
            .knowledge()
            .origin_of_encoded(&key.encode())
            .expect("remote origin stored");
        assert_eq!(origin, sample.origin.as_ref().unwrap());
        // ...and K2's trace buffer shows the contribution arriving,
        // recorded under K1's trace id.
        assert!(k2
            .tracer()
            .events()
            .iter()
            .any(|e| e.name.starts_with("sync.accept:K1$") && e.trace_id == origin.trace_id));
    }

    #[test]
    fn module_health_mirrors_peer_health_errors() {
        let kalis = Kalis::builder(KalisId::new("K1"))
            .with_default_modules()
            .build();
        assert!(matches!(
            kalis.module_health("TrafficStatsModule"),
            Ok(ModuleHealth::Healthy)
        ));
        assert!(matches!(
            kalis.module_health("NoSuchModule"),
            Err(KalisError::UnknownModule { .. })
        ));
    }
}
