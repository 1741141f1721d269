//! The layer-by-layer replay: the same work `Kalis::ingest`, `tick` and
//! the sync calls do, rebuilt from the public layer APIs of `kalis-core`
//! in the order the node uses them, with a span around each layer call.
//! Each library module sits in a `ModuleManager` of its own so its
//! dispatches are timed alone.
//!
//! The node's own orchestration (provenance, event bus, telemetry, flight
//! recorder, state accounting) is left out on purpose: it is what the
//! traced node run has and this replay has not, so it shows up as
//! `node.ingest_residual_ns_per_pkt`. The equivalence gate in `main`
//! checks that this replay reproduces the node's alerts, activation
//! timeline and final Knowledge Base revision.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kalis_core::config::{Config, ModuleDef};
use kalis_core::knowledge::{PeerBeacon, ReceiptKind, SyncEvent, XorChannel};
use kalis_core::modules::{ModuleCtx, ModuleKind, ModuleManager, ModuleRegistry, ShedMode};
use kalis_core::node::{KB_ENTITY_BUDGET_KEY, SYNC_BEACON_INTERVAL_KEY, SYNC_PEER_TTL_KEY};
use kalis_core::response::ResponseEngine;
use kalis_core::store::DataStore;
use kalis_core::{
    Alert, CollectiveSync, KalisError, KalisId, Knowgget, KnowledgeBase, SyncConfig, DEGRADED_LABEL,
};
use kalis_packets::{CapturedPacket, Entity, Timestamp};
use kalis_telemetry::Telemetry;

use crate::drive::{Ids, Outbound, SYNC_KEY, TICK_EVERY};
use crate::spans::{span, SpanLog};

/// One library module and the manager that dispatches to it alone.
struct Slot {
    name: &'static str,
    kind: ModuleKind,
    manager: ModuleManager,
}

/// Work the replay counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    /// Packets ingested.
    pub packets: u64,
    /// Reconfiguration passes (one per drained change batch).
    pub reconfigures: u64,
    /// Σ over packets of active detection modules at dispatch.
    pub active_detection: u64,
}

/// A Kalis node rebuilt from its layers.
pub struct LayerNode {
    id: KalisId,
    kb: KnowledgeBase,
    store: DataStore,
    slots: Vec<Slot>,
    alerts: Vec<Alert>,
    cursor: usize,
    response: ResponseEngine,
    last_tick: Option<Timestamp>,
    syncer: CollectiveSync,
    /// Shed mode of each ingest, as the node's overload controller chose
    /// it (the controller has no public per-packet API).
    shed: std::vec::IntoIter<ShedMode>,
    last_shed: ShedMode,
    log: Rc<RefCell<SpanLog>>,
    /// What the replay counted.
    pub counts: LayerCounts,
    _telemetry: Arc<Telemetry>,
}

fn knowgget_f64(config: &Config, key: &str) -> Option<f64> {
    config
        .knowggets
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_f64())
        .filter(|v| *v > 0.0)
}

impl LayerNode {
    /// Build the layers the way `KalisBuilder::try_build` does for a
    /// config without pinned modules and the whole default library.
    pub fn new(
        id: &str,
        config: &Config,
        shed: Vec<ShedMode>,
        log: Rc<RefCell<SpanLog>>,
    ) -> Result<Self, KalisError> {
        if let Some(module) = config.modules.first() {
            return Err(KalisError::UnknownModule {
                name: format!("{} (the layer replay loads no pinned modules)", module.name),
            });
        }
        let id = KalisId::new(id);
        let mut kb = KnowledgeBase::new(id.clone());
        let mut sync = SyncConfig::default();
        if let Some(ttl) = knowgget_f64(config, SYNC_PEER_TTL_KEY) {
            sync = sync.with_peer_ttl(Duration::from_secs_f64(ttl));
        }
        if let Some(interval) = knowgget_f64(config, SYNC_BEACON_INTERVAL_KEY) {
            sync.beacon_interval = Duration::from_secs_f64(interval);
        }
        if let Some(budget) = knowgget_f64(config, KB_ENTITY_BUDGET_KEY) {
            kb.set_entity_budget(budget as usize);
        }
        for (key, value) in &config.knowggets {
            match key.split_once('@') {
                Some((label, entity)) => {
                    kb.insert_about(label, Entity::new(entity.to_owned()), value.clone());
                }
                None => {
                    kb.insert(key.clone(), value.clone());
                }
            }
        }
        let telemetry = Arc::new(Telemetry::new());
        kb.set_telemetry(&telemetry);
        let registry = ModuleRegistry::with_defaults();
        let mut slots = Vec::new();
        for name in registry.names() {
            let module = registry.build(&ModuleDef::new(name))?;
            let descriptor = module.descriptor();
            let mut manager = ModuleManager::new();
            manager.add(module, false);
            manager.set_telemetry(&telemetry);
            slots.push(Slot {
                name: descriptor.name,
                kind: descriptor.kind,
                manager,
            });
        }
        kb.drain_changes();
        for slot in &mut slots {
            slot.manager.reconfigure(&kb);
        }
        Ok(LayerNode {
            syncer: CollectiveSync::new(id.clone(), Box::new(XorChannel::new(SYNC_KEY)), sync),
            id,
            kb,
            store: DataStore::new(),
            slots,
            alerts: Vec::new(),
            cursor: 0,
            response: ResponseEngine::new(),
            last_tick: None,
            shed: shed.into_iter(),
            last_shed: ShedMode::None,
            log,
            counts: LayerCounts::default(),
            _telemetry: telemetry,
        })
    }

    /// Drain knowledge changes and re-run activation, as the node does
    /// after every dispatch and every accepted sync message.
    fn reconfigure(&mut self) {
        let log = &self.log;
        let kb = &mut self.kb;
        span(log, "knowledge.drain", "", || black_box(kb.drain_changes()));
        let slots = &mut self.slots;
        let kb = &self.kb;
        span(log, "modules.reconfigure", "", || {
            for slot in slots.iter_mut() {
                black_box(slot.manager.reconfigure(kb));
            }
        });
        self.counts.reconfigures += 1;
    }

    fn after_dispatch(&mut self) {
        if self.kb.has_changes() {
            self.reconfigure();
        }
        for alert in &self.alerts[self.cursor..] {
            let response = &mut self.response;
            span(&self.log, "response.apply", "", || {
                black_box(response.apply(alert))
            });
        }
        self.cursor = self.alerts.len();
    }

    fn apply_sync_events(&mut self) {
        let mut degraded = None;
        for event in self.syncer.drain_events() {
            match event {
                SyncEvent::DegradedEntered { .. } => degraded = Some(true),
                SyncEvent::DegradedExited { .. } => degraded = Some(false),
                _ => {}
            }
        }
        if let Some(entered) = degraded {
            if entered {
                self.kb.insert(DEGRADED_LABEL, true);
            } else {
                self.kb.remove(DEGRADED_LABEL);
            }
            self.reconfigure();
        }
    }
}

impl Ids for LayerNode {
    fn ingest(&mut self, packet: CapturedPacket) -> Result<(), KalisError> {
        let now = packet.timestamp;
        if self
            .last_tick
            .is_none_or(|last| now.saturating_since(last) >= TICK_EVERY)
        {
            self.tick(now);
        }
        let shed = self.shed.next().unwrap_or(ShedMode::None);
        self.last_shed = shed;
        let log = &self.log;
        let store = &mut self.store;
        span(log, "store.push", "", || store.push(packet));
        let packet = span(log, "store.clone", "", || {
            store.window().last().cloned().expect("just pushed")
        });
        self.counts.packets += 1;
        for slot in &mut self.slots {
            let active = slot.manager.active_count() > 0;
            if active && slot.kind == ModuleKind::Detection {
                self.counts.active_detection += 1;
            }
            let mut ctx = ModuleCtx {
                now,
                kb: &mut self.kb,
                alerts: &mut self.alerts,
            };
            let manager = &mut slot.manager;
            // An inactive module's dispatch is a no-op; it is still made
            // (unspanned) so every manager samples the same packets.
            let mut dispatch = || black_box(manager.dispatch_packet_shed(&mut ctx, &packet, shed));
            if active {
                span(log, "module.packet", slot.name, dispatch);
            } else {
                dispatch();
            }
        }
        self.after_dispatch();
        if shed == ShedMode::All {
            return Err(KalisError::PipelineOverload {
                rate: 0,
                capacity: 0,
            });
        }
        Ok(())
    }

    fn tick(&mut self, now: Timestamp) {
        self.last_tick = Some(now);
        let log = &self.log;
        for slot in &mut self.slots {
            let mut ctx = ModuleCtx {
                now,
                kb: &mut self.kb,
                alerts: &mut self.alerts,
            };
            let active = slot.manager.active_count() > 0;
            let manager = &mut slot.manager;
            let mut dispatch = || black_box(manager.dispatch_tick(&mut ctx));
            if active {
                span(log, "module.tick", slot.name, dispatch);
            } else {
                dispatch();
            }
        }
        self.response.expire(now);
        self.after_dispatch();
    }

    fn sync_poll(&mut self, now: Timestamp) -> Outbound {
        let beacon = self.syncer.beacon_due(now).then(|| {
            PeerBeacon {
                from: self.id.clone(),
            }
            .encode()
        });
        for peer in self.syncer.take_resync_peers() {
            let snapshot = self.kb.collective_knowggets();
            self.syncer.enqueue_to(&peer, snapshot, now);
        }
        let dirty: Vec<Knowgget> = self.kb.drain_dirty_collective();
        if !dirty.is_empty() {
            self.syncer.enqueue_broadcast(&dirty, now);
        }
        let frames = self.syncer.poll(now);
        self.apply_sync_events();
        Outbound {
            beacon,
            retransmits: frames.iter().filter(|f| f.retransmit).count() as u64,
            frames: frames.into_iter().map(|f| f.bytes).collect(),
        }
    }

    fn receive_frame(
        &mut self,
        sealed: &[u8],
        now: Timestamp,
    ) -> Result<Option<Vec<u8>>, KalisError> {
        let receipt =
            self.syncer
                .receive(sealed, now)
                .map_err(|reason| KalisError::SyncRejected {
                    peer: "unknown".to_owned(),
                    reason,
                })?;
        let reply = match receipt.kind {
            ReceiptKind::Fresh(message) => {
                for knowgget in message.knowggets {
                    self.kb
                        .accept_remote(&message.from, knowgget)
                        .map_err(|reason| KalisError::SyncRejected {
                            peer: message.from.to_string(),
                            reason,
                        })?;
                }
                if self.kb.has_changes() {
                    self.reconfigure();
                }
                receipt.reply
            }
            ReceiptKind::Duplicate => receipt.reply,
            ReceiptKind::Ack { .. } => None,
        };
        self.apply_sync_events();
        Ok(reply)
    }

    fn observe_beacon(&mut self, beacon: &[u8], now: Timestamp) {
        if let Some(beacon) = PeerBeacon::decode(beacon) {
            self.syncer.observe_peer(&beacon.from, now);
            self.apply_sync_events();
        }
    }

    fn active(&self) -> Vec<&'static str> {
        self.slots
            .iter()
            .filter(|s| s.manager.is_active(s.name))
            .map(|s| s.name)
            .collect()
    }

    fn shed_mode(&self) -> ShedMode {
        self.last_shed
    }

    fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    fn kb_revision(&self) -> u64 {
        self.kb.revision()
    }
}

/// Mean cost of `KnowledgeBase::get`/`get_about` and of
/// `insert`/`insert_about` over a Knowledge Base's own local population.
/// Inserts re-write the stored value, the path most module writes take
/// (see `knowledge.write_useful_ratio`). Returns `(get_ns, insert_ns)`,
/// or zeros for an empty population.
pub fn kb_op_costs(kb: &KnowledgeBase, budget: Duration) -> (f64, f64) {
    let local: Vec<Knowgget> = kb.iter().filter(|k| &k.creator == kb.local_id()).collect();
    if local.is_empty() {
        return (0.0, 0.0);
    }
    let mut kb = kb.clone();
    let started = Instant::now();
    let (mut get_ns, mut gets) = (0u128, 0u64);
    let (mut insert_ns, mut inserts) = (0u128, 0u64);
    while started.elapsed() < budget {
        let t = Instant::now();
        for k in &local {
            black_box(match &k.entity {
                None => kb.get(&k.label),
                Some(e) => kb.get_about(&k.label, e),
            });
        }
        get_ns += t.elapsed().as_nanos();
        gets += local.len() as u64;
        let writes: Vec<Knowgget> = local.clone();
        let t = Instant::now();
        for k in writes {
            black_box(match k.entity {
                None => kb.insert(k.label, k.value),
                Some(e) => kb.insert_about(k.label, e, k.value),
            });
        }
        insert_ns += t.elapsed().as_nanos();
        inserts += local.len() as u64;
    }
    (
        get_ns as f64 / gets.max(1) as f64,
        insert_ns as f64 / inserts.max(1) as f64,
    )
}
