//! The Knowledge Base proper: a structured entry table with the paper's
//! query shapes (exact, per-entity, multilevel family, every creator)
//! and change tracking.
//!
//! # Storage layout
//!
//! Knowggets are stored by their parts, never as encoded strings:
//!
//! ```text
//! own:   label -> Slot                      the local node's knowledge
//! peers: [(creator, label -> Slot)]         remote creators, in key order
//! Slot:  { network-level Entry, entity -> Entry }
//! Entry: { canonical KnowValue, wire length, collective, dirty, origin }
//! ```
//!
//! The canonical value is what [`KnowValue::from_wire`] gives back for
//! the value's wire text, so a read returns a stored clone instead of
//! parsing. Whether a write changes anything still means "the wire text
//! differs" (`Float(3.0)` rewrites `Int(3)` without a change, a `NaN`
//! rewrites a `NaN` without a change, `Text("1.50")` changes
//! `Float(1.5)`). The comparison streams the new value's wire form
//! against the entry without building it. The rare write whose wire
//! text is not its canonical value's own (a `Text` such as `"1.50"` or
//! `"007"`) keeps that text in the entry for the comparison.
//!
//! # Where strings are encoded
//!
//! A lookup, a write that changes nothing and a removal of an absent
//! key allocate nothing beyond what the caller passes in. The paper's
//! flat `creator$label@entity` key and the `to_wire()` text appear only
//! at the edges: the [`ChangeEvent`] of a real change, [`KnowledgeBase::iter`],
//! [`KnowledgeBase::drain_dirty_collective`],
//! [`KnowledgeBase::collective_knowggets`], provenance lookups
//! ([`KnowledgeBase::origin_of_encoded`]) and the sync layer, which
//! encodes the knowggets those edges return.
//!
//! # Ordering guarantee
//!
//! Every query and edge that returns several knowggets returns them in
//! byte order of their encoded keys, the order of the string-keyed store
//! this table replaced. Across creators, the table order is that order
//! (a creator id cannot contain `$`, so comparing `creator$` decides).
//! Within one creator, label order is not: `Foo.Bar` and `Foo2` sort
//! before `Foo@e`. So the edges that span several labels sort with
//! `tail_cmp`, which compares the encoded bytes without building them.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use kalis_packets::Entity;

use crate::bounded::BoundedMap;
use crate::id::KalisId;

use super::{KnowKey, KnowValue, Knowgget, KnowggetOrigin};

/// Default cap on distinct entities holding per-entity knowggets. An
/// adversary spraying fake identities otherwise grows the KB without
/// bound; past this many entities the least-recently-written one is
/// evicted wholesale (every knowgget about it removed, with removal
/// change events so modules observe the knowledge disappearing).
pub const DEFAULT_KB_ENTITY_BUDGET: usize = 4096;

use kalis_telemetry::{metric_name, names, Counter, Gauge, Telemetry};
use std::sync::Arc;

/// Cached instrument handles so the KB hot path never touches the
/// registry lock (paper-scale workloads query the KB per packet).
#[derive(Debug, Clone)]
struct KbStats {
    inserts: Arc<Counter>,
    gets: Arc<Counter>,
    removes: Arc<Counter>,
    syncs: Arc<Counter>,
    churn: Arc<Counter>,
    revision: Arc<Gauge>,
    entity_occupancy: Arc<Gauge>,
    entity_evictions: Arc<Gauge>,
}

/// The footprint one stored entry is charged in
/// [`KnowledgeBase::state_bytes`]: its encoded key and wire text plus a
/// fixed overhead.
fn entry_bytes(creator: &KalisId, label: &str, entity: Option<&Entity>, wire_len: usize) -> usize {
    let encoded =
        creator.as_str().len() + 1 + label.len() + entity.map_or(0, |e| e.as_str().len() + 1);
    encoded + wire_len + 48
}

/// The bytes of an encoded key after `creator$`: `label` or
/// `label@entity`.
fn tail<'a>(label: &'a str, entity: Option<&'a Entity>) -> impl Iterator<Item = u8> + 'a {
    let entity = entity.map(Entity::as_str);
    label.bytes().chain(
        entity
            .into_iter()
            .flat_map(|e| Some(b'@').into_iter().chain(e.bytes())),
    )
}

/// Byte order of two encoded keys of the same creator. Only keys whose
/// labels are one a prefix of the other need more than a slice compare.
fn tail_cmp(a: (&str, Option<&Entity>), b: (&str, Option<&Entity>)) -> Ordering {
    let (la, lb) = (a.0.as_bytes(), b.0.as_bytes());
    let n = la.len().min(lb.len());
    if la[..n] != lb[..n] {
        return la[..n].cmp(&lb[..n]);
    }
    // After the shorter label comes `@entity` (or nothing); after the
    // same bytes, the longer label goes on with its next byte.
    let after_short = |entity: Option<&Entity>, next: u8| match entity {
        None => Some(Ordering::Less),
        Some(_) if next != b'@' => Some(b'@'.cmp(&next)),
        Some(_) => None,
    };
    let fast = match (la.get(n), lb.get(n)) {
        // Same label: the network-level entry first, then entities.
        (None, None) => Some(a.1.map(Entity::as_str).cmp(&b.1.map(Entity::as_str))),
        (None, Some(&next)) => after_short(a.1, next),
        (Some(&next), None) => after_short(b.1, next).map(Ordering::reverse),
        (Some(_), Some(_)) => None,
    };
    fast.unwrap_or_else(|| tail(a.0, a.1).cmp(tail(b.0, b.1)))
}

/// Byte order of `creator$` prefixes, which decides the order of two
/// encoded keys of different creators.
fn creator_cmp(a: &KalisId, b: &KalisId) -> Ordering {
    fn dollar(id: &KalisId) -> impl Iterator<Item = u8> + '_ {
        id.as_str().bytes().chain(Some(b'$'))
    }
    dollar(a).cmp(dollar(b))
}

/// Byte order of two encoded keys.
fn key_cmp(a: &Knowgget, b: &Knowgget) -> Ordering {
    creator_cmp(&a.creator, &b.creator)
        .then_with(|| tail_cmp((&a.label, a.entity.as_ref()), (&b.label, b.entity.as_ref())))
}

/// A change to the Knowledge Base, consumed by the Module Manager to
/// decide module activation (paper: "the Knowledge Base will in turn
/// notify the Module Manager that recent changes ... might require
/// activating or deactivating specific modules").
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeEvent {
    /// The key that changed.
    pub key: KnowKey,
    /// The new value (the last value before removal when `removed`).
    pub value: KnowValue,
    /// Whether the knowgget was removed.
    pub removed: bool,
    /// Causal trace the write belongs to (0 = untraced).
    pub trace_id: u64,
}

/// One stored knowgget.
#[derive(Debug, Clone)]
struct Entry {
    /// The canonical value: what `from_wire` returns for the wire text.
    value: KnowValue,
    /// The wire text, kept only when it is not `value`'s own wire form.
    raw: Option<Box<str>>,
    /// Length of the wire text.
    wire_len: usize,
    /// Shared with peers on change (paper §IV-B3).
    collective: bool,
    /// Changed since the last [`KnowledgeBase::drain_dirty_collective`].
    dirty: bool,
    /// Which module last changed the value, and under which trace.
    /// Only a real change re-attributes, so replayed or duplicated
    /// writes cannot churn the recorded provenance.
    origin: Option<KnowggetOrigin>,
}

impl Entry {
    /// The entry a changing write stores.
    fn new(value: &KnowValue, collective: bool, origin: Option<KnowggetOrigin>) -> Self {
        let (value, raw) = match value {
            // These print a wire text that parses back to themselves.
            KnowValue::Bool(_) | KnowValue::Int(_) => (value.clone(), None),
            KnowValue::Float(x) if x.is_finite() && x.fract() != 0.0 => (value.clone(), None),
            KnowValue::Text(wire) => Self::canonical(wire),
            KnowValue::Float(_) => Self::canonical(&value.to_wire()),
        };
        let wire_len = raw.as_deref().map_or_else(|| value.wire_len(), str::len);
        Entry {
            value,
            raw,
            wire_len,
            collective,
            dirty: collective,
            origin,
        }
    }

    /// The canonical value of a wire text, and the text itself when the
    /// canonical value prints differently.
    fn canonical(wire: &str) -> (KnowValue, Option<Box<str>>) {
        let value = KnowValue::from_wire(wire);
        let raw = (!value.wire_eq_str(wire)).then(|| wire.into());
        (value, raw)
    }

    /// Whether `value` has exactly this entry's wire text.
    fn holds(&self, value: &KnowValue) -> bool {
        match &self.raw {
            Some(raw) => value.wire_eq_str(raw),
            None => value.wire_eq(&self.value),
        }
    }
}

/// Everything stored under one (creator, label).
#[derive(Debug, Clone, Default)]
struct Slot {
    network: Option<Entry>,
    about: BTreeMap<Entity, Entry>,
}

impl Slot {
    fn get(&self, entity: Option<&Entity>) -> Option<&Entry> {
        match entity {
            None => self.network.as_ref(),
            Some(e) => self.about.get(e),
        }
    }

    fn get_mut(&mut self, entity: Option<&Entity>) -> Option<&mut Entry> {
        match entity {
            None => self.network.as_mut(),
            Some(e) => self.about.get_mut(e),
        }
    }

    fn take(&mut self, entity: Option<&Entity>) -> Option<Entry> {
        match entity {
            None => self.network.take(),
            Some(e) => self.about.remove(e),
        }
    }

    fn put(&mut self, entity: Option<&Entity>, entry: Entry) {
        match entity {
            None => self.network = Some(entry),
            Some(e) => match self.about.get_mut(e) {
                Some(slot) => *slot = entry,
                None => {
                    self.about.insert(e.clone(), entry);
                }
            },
        }
    }

    fn is_empty(&self) -> bool {
        self.network.is_none() && self.about.is_empty()
    }

    /// The entries in encoded-key order: the network-level one first.
    fn entries(&self) -> impl Iterator<Item = (Option<&Entity>, &Entry)> {
        self.network
            .iter()
            .map(|entry| (None, entry))
            .chain(self.about.iter().map(|(e, entry)| (Some(e), entry)))
    }
}

/// One creator's knowledge, by label.
type Labels = BTreeMap<Box<str>, Slot>;

/// A stored entry with its key parts, as the edges walk them.
type EntryRef<'a> = (&'a KalisId, &'a str, Option<&'a Entity>, &'a Entry);

fn knowgget((creator, label, entity, entry): EntryRef<'_>) -> Knowgget {
    Knowgget {
        label: label.to_owned(),
        value: entry.value.clone(),
        creator: creator.clone(),
        entity: entity.cloned(),
        origin: entry.origin.clone(),
    }
}

/// The centralized store of knowggets for one Kalis node.
///
/// Keys are the paper's `⟨creator, label, entity⟩` triple, held as a
/// creator → label → entity table of entries (canonical value, wire
/// length, collective and dirty flags, origin), which makes the query
/// shapes of §V cheap:
///
/// * **exact**: a local lookup by label (and entity),
/// * **per-entity**: every entity under one local label,
/// * **multilevel**: every local label of a `root.` family,
/// * **collective**: one label across every creator.
///
/// Each query visits only the entries under its label or family. A
/// lookup, a write that changes nothing and a removal of an absent key
/// allocate nothing; the encoded `creator$label@entity` string is built
/// only at the edges (change events, [`KnowledgeBase::iter`], the sync
/// outbox, provenance). Every result list comes back in byte order of
/// the encoded keys, as the paper's flat string store would list it.
///
/// # Examples
///
/// ```
/// use kalis_core::{KalisId, KnowValue, KnowledgeBase};
///
/// let mut kb = KnowledgeBase::new(KalisId::new("K1"));
/// kb.insert("Multihop", KnowValue::Bool(true));
/// kb.insert("MonitoredNodes", KnowValue::Int(8));
/// assert_eq!(kb.get_bool("Multihop"), Some(true));
/// assert_eq!(kb.get_int("MonitoredNodes"), Some(8));
/// ```
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    local: KalisId,
    /// The local node's knowledge.
    own: Labels,
    /// Remote creators' knowledge, sorted by `creator_cmp`; a creator
    /// whose last entry goes is dropped.
    peers: Vec<(KalisId, Labels)>,
    /// Entries stored across `own` and `peers`.
    len: usize,
    /// Running [`KnowledgeBase::state_bytes`] total, kept in step with
    /// every insert, removal and purge.
    entry_bytes: usize,
    /// Keys of the entries whose `dirty` flag is set: the sync outbox.
    dirty: BTreeSet<KnowKey>,
    changes: Vec<ChangeEvent>,
    revision: u64,
    /// The module currently dispatching (set by the Module Manager
    /// around each callback); empty = operator/config/embedder write.
    writer: String,
    /// The trace context of the packet/tick being dispatched
    /// (`(trace_id, span_id)`; zeros = untraced).
    trace: (u64, u32),
    /// Bounded index of per-entity knowledge: entity → the (creator,
    /// label) of every knowgget about it. When a fresh entity would
    /// exceed the budget, the least-recently-written entity is evicted
    /// and all of its knowggets purged.
    entity_index: BoundedMap<Entity, Vec<(KalisId, Box<str>)>>,
    stats: Option<KbStats>,
}

impl KnowledgeBase {
    /// An empty Knowledge Base owned by `local`.
    pub fn new(local: KalisId) -> Self {
        KnowledgeBase {
            local,
            own: Labels::new(),
            peers: Vec::new(),
            len: 0,
            entry_bytes: 0,
            dirty: BTreeSet::new(),
            changes: Vec::new(),
            revision: 0,
            writer: String::new(),
            trace: (0, 0),
            entity_index: BoundedMap::new(DEFAULT_KB_ENTITY_BUDGET),
            stats: None,
        }
    }

    /// Attach a telemetry registry: from now on every operation is
    /// counted under `kb.ops[op=...]` and revision churn is tracked.
    pub fn set_telemetry(&mut self, registry: &Telemetry) {
        let op = |name: &str| registry.counter(&metric_name(names::KB_OPS, &[("op", name)]));
        self.stats = Some(KbStats {
            inserts: op("insert"),
            gets: op("get"),
            removes: op("remove"),
            syncs: op("sync"),
            churn: registry.counter(names::KB_CHURN),
            revision: registry.gauge(names::KB_REVISION),
            entity_occupancy: registry.gauge(names::KB_ENTITY_OCCUPANCY),
            entity_evictions: registry.gauge(names::KB_ENTITY_EVICTIONS),
        });
    }

    #[inline]
    fn note_insert(&self) {
        if let Some(s) = &self.stats {
            s.inserts.inc();
        }
    }

    #[inline]
    fn note_get(&self) {
        if let Some(s) = &self.stats {
            s.gets.inc();
        }
    }

    #[inline]
    fn note_remove(&self) {
        if let Some(s) = &self.stats {
            s.removes.inc();
        }
    }

    #[inline]
    fn note_sync(&self) {
        if let Some(s) = &self.stats {
            s.syncs.inc();
        }
    }

    /// Record a revision bump (a real state change).
    #[inline]
    fn note_churn(&self) {
        if let Some(s) = &self.stats {
            s.churn.inc();
            s.revision.set(self.revision);
            s.entity_occupancy.set(self.entity_index.len() as u64);
            s.entity_evictions.set(self.entity_index.evictions());
        }
    }

    /// The owning Kalis node's identifier.
    pub fn local_id(&self) -> &KalisId {
        &self.local
    }

    /// Monotonic revision counter; bumps on every change.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The table of `creator`; `None` is the local node.
    fn table(&self, creator: Option<&KalisId>) -> Option<&Labels> {
        match creator {
            None => Some(&self.own),
            Some(c) => self.peer_index(c).ok().map(|i| &self.peers[i].1),
        }
    }

    fn table_mut(&mut self, creator: Option<&KalisId>) -> Option<&mut Labels> {
        match creator {
            None => Some(&mut self.own),
            Some(c) => {
                let i = self.peer_index(c).ok()?;
                Some(&mut self.peers[i].1)
            }
        }
    }

    fn peer_index(&self, creator: &KalisId) -> Result<usize, usize> {
        self.peers
            .binary_search_by(|(c, _)| creator_cmp(c, creator))
    }

    /// `None` for the local node, else `Some(creator)`.
    fn remote<'a>(&self, creator: &'a KalisId) -> Option<&'a KalisId> {
        (*creator != self.local).then_some(creator)
    }

    /// Every creator's table, in encoded-key order.
    fn tables(&self) -> impl Iterator<Item = (&KalisId, &Labels)> {
        let split = self
            .peers
            .partition_point(|(c, _)| creator_cmp(c, &self.local).is_lt());
        let (before, after) = self.peers.split_at(split);
        fn peer((c, t): &(KalisId, Labels)) -> (&KalisId, &Labels) {
            (c, t)
        }
        before
            .iter()
            .map(peer)
            .chain(Some((&self.local, &self.own)))
            .chain(after.iter().map(peer))
    }

    /// Every entry in encoded-key order.
    fn sorted(&self) -> Vec<EntryRef<'_>> {
        let mut out = Vec::with_capacity(self.len);
        for (creator, table) in self.tables() {
            let start = out.len();
            for (label, slot) in table {
                out.extend(
                    slot.entries()
                        .map(|(e, entry)| (creator, &**label, e, entry)),
                );
            }
            out[start..].sort_by(|a, b| tail_cmp((a.1, a.2), (b.1, b.2)));
        }
        out
    }

    /// Store `value` under (creator, label, entity) if its wire text
    /// differs from the stored one; returns whether it did. `creator`
    /// is `None` for the local node. The write's origin is built only
    /// on a real change.
    fn write(
        &mut self,
        creator: Option<&KalisId>,
        label: &str,
        entity: Option<Entity>,
        value: KnowValue,
        collective: bool,
        origin: impl FnOnce(&Self) -> Option<KnowggetOrigin>,
    ) -> bool {
        let existing = self
            .table_mut(creator)
            .and_then(|t| t.get_mut(label))
            .and_then(|slot| slot.get_mut(entity.as_ref()));
        let (collective, was_dirty, old_wire) = match existing {
            Some(entry) => {
                entry.collective |= collective;
                if entry.holds(&value) {
                    return false;
                }
                (entry.collective, entry.dirty, Some(entry.wire_len))
            }
            None => (collective, false, None),
        };
        // A real change: from here on, allocating is fine.
        let origin = origin(self);
        let trace_id = origin.as_ref().map_or(0, |o| o.trace_id);
        let entry = Entry::new(&value, collective, origin);
        let key = KnowKey {
            creator: creator.unwrap_or(&self.local).clone(),
            label: label.to_owned(),
            entity,
        };
        self.entry_bytes += entry_bytes(&key.creator, label, key.entity.as_ref(), entry.wire_len);
        match old_wire {
            Some(wire_len) => {
                self.entry_bytes -= entry_bytes(&key.creator, label, key.entity.as_ref(), wire_len);
            }
            None => self.len += 1,
        }
        if collective && !was_dirty {
            self.dirty.insert(key.clone());
        }
        let table = match creator {
            None => &mut self.own,
            Some(c) => {
                let i = self.peer_index(c).unwrap_or_else(|i| {
                    self.peers.insert(i, (c.clone(), Labels::new()));
                    i
                });
                &mut self.peers[i].1
            }
        };
        if !table.contains_key(label) {
            table.insert(label.into(), Slot::default());
        }
        if let Some(slot) = table.get_mut(label) {
            slot.put(key.entity.as_ref(), entry);
        }
        self.revision += 1;
        // Entity-scoped knowledge is indexed under its entity so the
        // per-entity budget can evict whole entities at once. The
        // eviction (if any) happens *before* the new entity is indexed,
        // so the purge can never touch the fresh write.
        let evicted = key.entity.as_ref().and_then(|entity| {
            let (keys, evicted) = self.entity_index.get_or_insert_with(entity, Vec::new);
            if !keys.iter().any(|(c, l)| *c == key.creator && **l == *label) {
                keys.push((key.creator.clone(), label.into()));
            }
            evicted
        });
        self.changes.push(ChangeEvent {
            key,
            value,
            removed: false,
            trace_id,
        });
        if let Some((entity, keys)) = evicted {
            self.purge_entity(&entity, keys);
        }
        self.note_churn();
        true
    }

    /// Take one entry out of the table, dropping an emptied slot or peer
    /// table, and keep the running totals in step. Returns the removed
    /// entry's key and canonical value.
    fn unlink(
        &mut self,
        creator: Option<&KalisId>,
        label: &str,
        entity: Option<&Entity>,
    ) -> Option<(KnowKey, KnowValue)> {
        let table = self.table_mut(creator)?;
        let slot = table.get_mut(label)?;
        let entry = slot.take(entity)?;
        let table_emptied = slot.is_empty() && {
            table.remove(label);
            table.is_empty()
        };
        if let Some(c) = creator.filter(|_| table_emptied) {
            if let Ok(i) = self.peer_index(c) {
                self.peers.remove(i);
            }
        }
        let key = KnowKey {
            creator: creator.unwrap_or(&self.local).clone(),
            label: label.to_owned(),
            entity: entity.cloned(),
        };
        self.len -= 1;
        self.entry_bytes -= entry_bytes(&key.creator, label, entity, entry.wire_len);
        self.revision += 1;
        if entry.dirty {
            self.dirty.remove(&key);
        }
        Some((key, entry.value))
    }

    /// Remove every knowgget about an entity evicted from the bounded
    /// entity index, in encoded-key order. Each removal is a real
    /// change: modules see removal events exactly as if the knowgget
    /// had expired normally.
    fn purge_entity(&mut self, entity: &Entity, mut keys: Vec<(KalisId, Box<str>)>) {
        let about = Some(entity);
        keys.sort_by(|a, b| {
            creator_cmp(&a.0, &b.0).then_with(|| tail_cmp((&a.1, about), (&b.1, about)))
        });
        for (creator, label) in keys {
            let creator = self.remote(&creator);
            if let Some((key, value)) = self.unlink(creator, &label, about) {
                self.changes.push(ChangeEvent {
                    key,
                    value,
                    removed: true,
                    trace_id: 0,
                });
            }
        }
    }

    /// Cap the number of distinct entities that may hold per-entity
    /// knowggets (`KB.PerEntityBudget`). Shrinking below the current
    /// occupancy immediately purges the overflow entities' knowledge.
    pub fn set_entity_budget(&mut self, budget: usize) {
        let budget = budget.max(1);
        if budget == self.entity_index.budget() {
            return;
        }
        let old = std::mem::replace(&mut self.entity_index, BoundedMap::new(budget));
        let mut purged = Vec::new();
        for (entity, keys) in old.iter() {
            if let Some(dropped) = self.entity_index.insert(entity.clone(), keys.clone()) {
                purged.push(dropped);
            }
        }
        for (entity, keys) in purged {
            self.purge_entity(&entity, keys);
        }
        self.note_churn();
    }

    /// The configured per-entity state budget.
    pub fn entity_budget(&self) -> usize {
        self.entity_index.budget()
    }

    /// Distinct entities currently holding per-entity knowggets.
    pub fn entity_occupancy(&self) -> usize {
        self.entity_index.len()
    }

    /// Entities evicted (wholesale) to stay within the budget.
    pub fn entity_evictions(&self) -> u64 {
        self.entity_index.evictions()
    }

    /// The origin the next local write will be attributed to, from the
    /// ambient writer/trace set by the dispatch loop.
    fn current_origin(&self) -> Option<KnowggetOrigin> {
        if self.writer.is_empty() && self.trace == (0, 0) {
            return None;
        }
        Some(KnowggetOrigin {
            module: self.writer.clone(),
            trace_id: self.trace.0,
            span_id: self.trace.1,
        })
    }

    /// Declare the module about to perform writes (called by the Module
    /// Manager around each dispatch). Empty string = no module
    /// (operator/config writes).
    pub fn set_writer(&mut self, module: &str) {
        if self.writer != module {
            self.writer.clear();
            self.writer.push_str(module);
        }
    }

    /// Clear the ambient writer attribution.
    pub fn clear_writer(&mut self) {
        self.writer.clear();
    }

    /// Declare the trace context writes should be attributed to
    /// (`(0, 0)` = untraced).
    pub fn set_trace(&mut self, trace_id: u64, span_id: u32) {
        self.trace = (trace_id, span_id);
    }

    /// Clear the ambient trace attribution.
    pub fn clear_trace(&mut self) {
        self.trace = (0, 0);
    }

    /// Write provenance for an encoded key (`creator$label@entity`), if
    /// any was recorded.
    pub fn origin_of_encoded(&self, encoded: &str) -> Option<&KnowggetOrigin> {
        self.origin_of(&encoded.parse().ok()?)
    }

    /// Write provenance for a key, if any was recorded.
    pub fn origin_of(&self, key: &KnowKey) -> Option<&KnowggetOrigin> {
        self.table(self.remote(&key.creator))?
            .get(key.label.as_str())?
            .get(key.entity.as_ref())?
            .origin
            .as_ref()
    }

    /// Insert or update a local network-level knowgget. Returns whether
    /// the stored value changed.
    pub fn insert(&mut self, label: impl AsRef<str>, value: impl Into<KnowValue>) -> bool {
        self.note_insert();
        self.write(
            None,
            label.as_ref(),
            None,
            value.into(),
            false,
            Self::current_origin,
        )
    }

    /// Insert or update a local entity-specific knowgget.
    pub fn insert_about(
        &mut self,
        label: impl AsRef<str>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        let value = value.into();
        self.write(
            None,
            label.as_ref(),
            Some(entity),
            value,
            false,
            Self::current_origin,
        )
    }

    /// Insert a local knowgget **marked collective**: changes to it are
    /// shared with peer Kalis nodes (paper §IV-B3, Collective Knowledge).
    pub fn insert_collective(
        &mut self,
        label: impl AsRef<str>,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        self.write(
            None,
            label.as_ref(),
            None,
            value.into(),
            true,
            Self::current_origin,
        )
    }

    /// Insert a collective entity-specific knowgget.
    pub fn insert_about_collective(
        &mut self,
        label: impl AsRef<str>,
        entity: Entity,
        value: impl Into<KnowValue>,
    ) -> bool {
        self.note_insert();
        let value = value.into();
        self.write(
            None,
            label.as_ref(),
            Some(entity),
            value,
            true,
            Self::current_origin,
        )
    }

    /// Remove a local network-level knowgget.
    pub fn remove(&mut self, label: &str) -> bool {
        self.note_remove();
        self.remove_local(label, None)
    }

    /// Remove a local entity-specific knowgget.
    pub fn remove_about(&mut self, label: &str, entity: &Entity) -> bool {
        self.note_remove();
        self.remove_local(label, Some(entity))
    }

    fn remove_local(&mut self, label: &str, entity: Option<&Entity>) -> bool {
        let Some((key, value)) = self.unlink(None, label, entity) else {
            return false;
        };
        if let Some(entity) = entity {
            let emptied = self.entity_index.get_mut(entity).is_some_and(|keys| {
                keys.retain(|(c, l)| !(*c == key.creator && **l == *label));
                keys.is_empty()
            });
            if emptied {
                self.entity_index.remove(entity);
            }
        }
        self.changes.push(ChangeEvent {
            key,
            value,
            removed: true,
            trace_id: self.trace.0,
        });
        self.note_churn();
        true
    }

    /// Look up a local network-level knowgget.
    pub fn get(&self, label: &str) -> Option<KnowValue> {
        self.note_get();
        self.own
            .get(label)?
            .network
            .as_ref()
            .map(|e| e.value.clone())
    }

    /// Look up a local entity-specific knowgget.
    pub fn get_about(&self, label: &str, entity: &Entity) -> Option<KnowValue> {
        self.note_get();
        self.own
            .get(label)?
            .about
            .get(entity)
            .map(|e| e.value.clone())
    }
    /// Typed lookup: boolean.
    pub fn get_bool(&self, label: &str) -> Option<bool> {
        self.get(label)?.as_bool()
    }

    /// Typed lookup: integer.
    pub fn get_int(&self, label: &str) -> Option<i64> {
        self.get(label)?.as_int()
    }

    /// Typed lookup: float.
    pub fn get_f64(&self, label: &str) -> Option<f64> {
        self.get(label)?.as_f64()
    }

    /// Typed lookup: text.
    pub fn get_text(&self, label: &str) -> Option<String> {
        self.get(label).map(|v| v.as_text())
    }

    /// Every knowgget with the given label across **all** creators — the
    /// collective-correlation query ("other Kalis nodes are noticing
    /// changes in signal strength for specific devices").
    pub fn get_all_creators(&self, label: &str) -> Vec<(KalisId, Option<Entity>, KnowValue)> {
        self.note_get();
        let mut out = Vec::new();
        for (creator, table) in self.tables() {
            if let Some(slot) = table.get(label) {
                out.extend(
                    slot.entries()
                        .map(|(e, entry)| (creator.clone(), e.cloned(), entry.value.clone())),
                );
            }
        }
        out
    }

    /// Every local knowgget whose label starts with `root.` (the
    /// sub-knowggets of a multilevel knowgget), as `(sub-label, value)`.
    pub fn sublabels(&self, root: &str) -> Vec<(String, KnowValue)> {
        self.note_get();
        let prefix = format!("{root}.");
        let mut members: Vec<(&str, Option<&Entity>, &Entry)> = self
            .own
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .take_while(|(label, _)| label.starts_with(&prefix))
            .flat_map(|(label, slot)| slot.entries().map(move |(e, entry)| (&**label, e, entry)))
            .collect();
        members.sort_by(|a, b| tail_cmp((a.0, a.1), (b.0, b.1)));
        members
            .into_iter()
            .map(|(label, _, entry)| (label[prefix.len()..].to_owned(), entry.value.clone()))
            .collect()
    }

    /// Every entity that has a local knowgget with `label`, with its value
    /// — the suffix query of the paper.
    pub fn entities_with(&self, label: &str) -> Vec<(Entity, KnowValue)> {
        self.note_get();
        self.own.get(label).map_or_else(Vec::new, |slot| {
            slot.about
                .iter()
                .map(|(e, entry)| (e.clone(), entry.value.clone()))
                .collect()
        })
    }

    /// Iterate over every entry as decoded knowggets, in encoded-key
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = Knowgget> + '_ {
        self.sorted().into_iter().map(knowgget)
    }

    /// Number of knowggets stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rough live-memory footprint (the RAM-usage proxy for experiments):
    /// each entry is charged its encoded key, its wire text and 48
    /// bytes. O(1): the total is maintained as entries change.
    pub fn state_bytes(&self) -> usize {
        self.entry_bytes
    }

    /// Drain the change log accumulated since the last call.
    pub fn drain_changes(&mut self) -> Vec<ChangeEvent> {
        std::mem::take(&mut self.changes)
    }

    /// Whether there are undrained changes.
    pub fn has_changes(&self) -> bool {
        !self.changes.is_empty()
    }

    /// Drain the collective knowggets that changed since the last call —
    /// the outbox of the synchronization mechanism.
    pub fn drain_dirty_collective(&mut self) -> Vec<Knowgget> {
        let dirty = std::mem::take(&mut self.dirty);
        let mut out: Vec<Knowgget> = dirty
            .into_iter()
            .filter_map(|key| {
                let creator = self.remote(&key.creator);
                let entry = self
                    .table_mut(creator)?
                    .get_mut(key.label.as_str())?
                    .get_mut(key.entity.as_ref())?;
                entry.dirty = false;
                Some(Knowgget {
                    value: entry.value.clone(),
                    origin: entry.origin.clone(),
                    label: key.label,
                    creator: key.creator,
                    entity: key.entity,
                })
            })
            .collect();
        out.sort_by(key_cmp);
        out
    }

    /// Every knowgget currently marked collective, regardless of dirty
    /// state — the full-state payload sent when a recovered peer needs a
    /// complete re-sync.
    pub fn collective_knowggets(&self) -> Vec<Knowgget> {
        self.sorted()
            .into_iter()
            .filter(|(.., entry)| entry.collective)
            .map(knowgget)
            .collect()
    }

    /// Accept a knowgget from peer `sender`.
    ///
    /// Enforces the paper's ownership rule: a Kalis node "can only update
    /// those knowggets ... that were originally generated by itself", i.e.
    /// the knowgget's creator must be the sender.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason when the creator does not match the
    /// sender or the creator claims to be the local node.
    pub fn accept_remote(&mut self, sender: &KalisId, knowgget: Knowgget) -> Result<bool, String> {
        self.note_sync();
        if &knowgget.creator != sender {
            return Err(format!(
                "creator `{}` does not match sender `{sender}`",
                knowgget.creator
            ));
        }
        if knowgget.creator == self.local {
            return Err("peer attempted to overwrite local knowledge".to_owned());
        }
        let Knowgget {
            label,
            value,
            creator,
            entity,
            origin,
        } = knowgget;
        // A remote knowgget carries its own provenance (or none, for
        // peers predating the provenance wire extension) — never the
        // local ambient writer.
        Ok(self.write(Some(&creator), &label, entity, value, false, |_| origin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::new(KalisId::new("K1"))
    }

    #[test]
    fn paper_figure_5_contents() {
        // Build the exact Knowledge Base of Fig. 5 and check every query.
        let mut kb = kb();
        kb.insert("Multihop", true);
        kb.insert("MonitoredNodes", 8i64);
        kb.insert_about("SignalStrength", Entity::new("SensorA"), -67.0);
        kb.insert("TrafficFrequency.TCPSYN", 0.037);
        kb.insert("TrafficFrequency.TCPACK", 0.090);
        let remote = Knowgget::about(
            "SignalStrength",
            KnowValue::Float(-84.0),
            KalisId::new("K2"),
            Entity::new("SensorA"),
        );
        kb.accept_remote(&KalisId::new("K2"), remote).unwrap();

        assert_eq!(kb.get_bool("Multihop"), Some(true));
        assert_eq!(kb.get_int("MonitoredNodes"), Some(8));
        assert_eq!(
            kb.get_about("SignalStrength", &Entity::new("SensorA"))
                .and_then(|v| v.as_f64()),
            Some(-67.0)
        );
        let subs = kb.sublabels("TrafficFrequency");
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].0, "TCPACK");
        assert_eq!(subs[1].0, "TCPSYN");
        let all = kb.get_all_creators("SignalStrength");
        assert_eq!(all.len(), 2, "local and K2's values both visible");
        assert_eq!(kb.len(), 6);
    }

    #[test]
    fn insert_reports_change_only_on_difference() {
        let mut kb = kb();
        assert!(kb.insert("Multihop", true));
        assert!(!kb.insert("Multihop", true), "same value → no change");
        assert!(kb.insert("Multihop", false));
    }

    #[test]
    fn change_log_records_inserts_and_removals() {
        let mut kb = kb();
        kb.insert("Mobile", false);
        kb.insert("Mobile", true);
        kb.remove("Mobile");
        let changes = kb.drain_changes();
        assert_eq!(changes.len(), 3);
        assert!(!changes[0].removed);
        assert_eq!(changes[1].value, KnowValue::Bool(true));
        assert!(changes[2].removed);
        assert!(kb.drain_changes().is_empty(), "drain empties the log");
    }

    #[test]
    fn entities_with_suffix_query() {
        let mut kb = kb();
        kb.insert_about("SignalStrength", Entity::new("A"), -60.0);
        kb.insert_about("SignalStrength", Entity::new("B"), -70.0);
        kb.insert_about("Other", Entity::new("C"), 1i64);
        let got = kb.entities_with("SignalStrength");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.as_str(), "A");
        assert_eq!(got[1].0.as_str(), "B");
    }

    #[test]
    fn collective_dirty_tracking() {
        let mut kb = kb();
        kb.insert_collective("Mobile", true);
        kb.insert("Private", 1i64);
        let dirty = kb.drain_dirty_collective();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].label, "Mobile");
        assert!(kb.drain_dirty_collective().is_empty());
        // Unchanged re-insert does not re-dirty.
        kb.insert_collective("Mobile", true);
        assert!(kb.drain_dirty_collective().is_empty());
        // A real change does.
        kb.insert_collective("Mobile", false);
        assert_eq!(kb.drain_dirty_collective().len(), 1);
    }

    #[test]
    fn collective_knowggets_snapshot_ignores_dirty_state() {
        let mut kb = kb();
        kb.insert_collective("Mobile", true);
        kb.insert_collective("Multihop", false);
        kb.insert("Private", 1i64);
        kb.drain_dirty_collective();
        // Even with nothing dirty, the full snapshot is available for a
        // recovering peer's re-sync.
        let snap = kb.collective_knowggets();
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().all(|k| k.creator == KalisId::new("K1")));
    }

    #[test]
    fn remote_updates_enforce_creator_ownership() {
        let mut kb = kb();
        let k2 = KalisId::new("K2");
        let k3 = KalisId::new("K3");
        // Legitimate: K2 sends its own knowgget.
        let own = Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone());
        assert_eq!(kb.accept_remote(&k2, own), Ok(true));
        // Forged: K3 sends a knowgget claiming K2 as creator.
        let forged = Knowgget::new("Multihop", KnowValue::Bool(false), k2.clone());
        assert!(kb.accept_remote(&k3, forged).is_err());
        // Forged: K2 tries to overwrite local (K1) knowledge.
        let local_forge = Knowgget::new("Multihop", KnowValue::Bool(false), KalisId::new("K1"));
        assert!(kb.accept_remote(&KalisId::new("K1"), local_forge).is_err());
        // The accepted value is still K2's original.
        let all = kb.get_all_creators("Multihop");
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].2, KnowValue::Bool(true));
    }

    #[test]
    fn remote_and_local_keys_do_not_collide() {
        let mut kb = kb();
        kb.insert("Multihop", false);
        let k2 = KalisId::new("K2");
        kb.accept_remote(
            &k2,
            Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone()),
        )
        .unwrap();
        assert_eq!(kb.get_bool("Multihop"), Some(false), "local view unchanged");
        assert_eq!(kb.len(), 2);
    }

    #[test]
    fn state_bytes_grows_with_content() {
        let mut kb = kb();
        let empty = kb.state_bytes();
        kb.insert("TrafficFrequency.TCPSYN", 0.037);
        assert!(kb.state_bytes() > empty);
    }

    #[test]
    fn writes_are_attributed_to_the_ambient_writer_and_trace() {
        let mut kb = kb();
        kb.set_writer("TopologyModule");
        kb.set_trace(0xABCD, 7);
        kb.insert("Multihop", true);
        let key = KnowKey::new(KalisId::new("K1"), "Multihop");
        let origin = kb.origin_of(&key).expect("attributed");
        assert_eq!(origin.module, "TopologyModule");
        assert_eq!(origin.trace_id, 0xABCD);
        assert_eq!(origin.span_id, 7);
        // Idempotent re-write under a different trace keeps the original
        // attribution: provenance follows the value.
        kb.set_trace(0xEEEE, 9);
        kb.insert("Multihop", true);
        assert_eq!(kb.origin_of(&key).unwrap().trace_id, 0xABCD);
        // A real change re-attributes.
        kb.insert("Multihop", false);
        assert_eq!(kb.origin_of(&key).unwrap().trace_id, 0xEEEE);
        // Operator writes (no writer, no trace) clear the attribution.
        kb.clear_writer();
        kb.clear_trace();
        kb.insert("Multihop", true);
        assert!(kb.origin_of(&key).is_none());
        // iter() carries the recorded origin on each knowgget.
        kb.set_writer("MobilityModule");
        kb.insert("Mobile", true);
        let got = kb
            .iter()
            .find(|k| k.label == "Mobile")
            .expect("knowgget present");
        assert_eq!(got.origin.as_ref().unwrap().module, "MobilityModule");
    }

    #[test]
    fn remote_origin_rides_the_knowgget_not_the_local_writer() {
        let mut kb = kb();
        kb.set_writer("LocalModule");
        let k2 = KalisId::new("K2");
        let remote = Knowgget::new("Multihop", KnowValue::Bool(true), k2.clone()).with_origin(
            KnowggetOrigin {
                module: "TrafficModule".into(),
                trace_id: 42,
                span_id: 3,
            },
        );
        kb.accept_remote(&k2, remote.clone()).unwrap();
        let key = KnowKey::new(k2.clone(), "Multihop");
        let origin = kb.origin_of(&key).expect("remote origin stored");
        assert_eq!(origin.module, "TrafficModule");
        assert_eq!(origin.trace_id, 42);
        // A duplicated frame (same value) must not churn provenance.
        let dup = remote.with_origin(KnowggetOrigin {
            module: "Imposter".into(),
            trace_id: 99,
            span_id: 1,
        });
        kb.accept_remote(&k2, dup).unwrap();
        assert_eq!(kb.origin_of(&key).unwrap().module, "TrafficModule");
        // Removal drops the attribution entry alongside the value.
        kb.set_writer("");
        kb.insert("Gone", 1i64);
        kb.remove("Gone");
        let gone = KnowKey::new(KalisId::new("K1"), "Gone");
        assert!(kb.origin_of(&gone).is_none());
    }

    #[test]
    fn entity_budget_evicts_stalest_entity_wholesale() {
        let mut kb = kb();
        kb.set_entity_budget(3);
        // Each entity holds two knowggets; E0 is written first.
        for i in 0..4 {
            let e = Entity::new(format!("E{i}"));
            kb.insert_about("SignalStrength", e.clone(), -60.0 - f64::from(i));
            kb.insert_about_collective("Suspicious", e, i % 2 == 0);
        }
        assert_eq!(kb.entity_occupancy(), 3, "occupancy capped at budget");
        assert_eq!(kb.entity_evictions(), 1, "E0 evicted");
        assert!(
            kb.get_about("SignalStrength", &Entity::new("E0")).is_none(),
            "every knowgget about the evicted entity is purged"
        );
        assert!(kb.get_about("Suspicious", &Entity::new("E0")).is_none());
        assert!(kb.get_about("SignalStrength", &Entity::new("E3")).is_some());
        // The purge surfaced as removal change events for modules.
        let changes = kb.drain_changes();
        let removed: Vec<_> = changes.iter().filter(|c| c.removed).collect();
        assert_eq!(removed.len(), 2, "both E0 knowggets removed");
        assert!(removed
            .iter()
            .all(|c| c.key.entity.as_ref().map(Entity::as_str) == Some("E0")));
        // Network-level (entity-less) knowledge is never budgeted.
        kb.insert("Multihop", true);
        assert_eq!(kb.get_bool("Multihop"), Some(true));
        assert_eq!(kb.entity_occupancy(), 3);
    }

    #[test]
    fn entity_budget_spray_stays_bounded_and_recency_protects_hot_entities() {
        let mut kb = kb();
        kb.set_entity_budget(8);
        let hot = Entity::new("Gateway");
        for i in 0..200 {
            kb.insert_about("SignalStrength", Entity::new(format!("fake-{i}")), -80.0);
            // The real entity is re-written every round, so LRU keeps it.
            kb.insert_about("SignalStrength", hot.clone(), -60.0 - f64::from(i % 3));
        }
        assert!(kb.entity_occupancy() <= 8);
        assert!(kb.entity_evictions() > 0);
        assert!(
            kb.get_about("SignalStrength", &hot).is_some(),
            "recently-touched entity survives the spray"
        );
        assert_eq!(
            kb.len(),
            kb.entity_occupancy(),
            "one knowgget per surviving entity; nothing leaks"
        );
    }

    #[test]
    fn explicit_remove_unindexes_the_entity() {
        let mut kb = kb();
        kb.set_entity_budget(4);
        let e = Entity::new("A");
        kb.insert_about("SignalStrength", e.clone(), -60.0);
        assert_eq!(kb.entity_occupancy(), 1);
        kb.remove_about("SignalStrength", &e);
        assert_eq!(
            kb.entity_occupancy(),
            0,
            "last knowgget removed → entity gone"
        );
        // Shrinking the budget below occupancy purges overflow.
        for i in 0..4 {
            kb.insert_about("X", Entity::new(format!("E{i}")), 1i64);
        }
        kb.set_entity_budget(2);
        assert_eq!(kb.entity_occupancy(), 2);
        assert_eq!(kb.len(), 2);
        assert_eq!(kb.entity_budget(), 2);
    }

    #[test]
    fn revision_increases_monotonically() {
        let mut kb = kb();
        let r0 = kb.revision();
        kb.insert("A", 1i64);
        let r1 = kb.revision();
        kb.insert("A", 1i64); // no-op
        let r2 = kb.revision();
        assert!(r1 > r0);
        assert_eq!(r1, r2);
    }

    /// The stored entries as a string-keyed store holds them: encoded
    /// key → wire text.
    fn wire_map(kb: &KnowledgeBase) -> BTreeMap<String, String> {
        kb.sorted()
            .into_iter()
            .map(|(creator, label, entity, entry)| {
                let key = KnowKey {
                    creator: creator.clone(),
                    label: label.to_owned(),
                    entity: entity.cloned(),
                };
                let wire = entry
                    .raw
                    .as_deref()
                    .map_or_else(|| entry.value.to_wire(), str::to_owned);
                (key.encode(), wire)
            })
            .collect()
    }

    /// The state charge a fresh walk over the stored entries gives.
    fn walked_state_bytes(kb: &KnowledgeBase) -> usize {
        wire_map(kb)
            .iter()
            .map(|(k, v)| k.len() + v.len() + 48)
            .sum()
    }

    proptest::proptest! {
        /// The running state total equals a fresh walk after any mix of
        /// local and remote writes, removals, budget purges and budget
        /// shrinks.
        #[test]
        fn running_state_total_matches_a_walk(
            ops in proptest::collection::vec((0u8..8, 0u8..6, 0u8..12, 0i64..100_000), 1..200),
        ) {
            let mut kb = kb();
            kb.set_entity_budget(6);
            let k2 = KalisId::new("K2");
            for (op, label, entity, n) in ops {
                let label = ["Multihop", "A", "SignalStrength", "TrafficFrequency.UDP", "X", "Suspicious"]
                    [usize::from(label)];
                let entity = Entity::new(format!("E{entity}"));
                // Values of different wire lengths, so a rewrite of an
                // existing key changes its charge.
                let value = if n % 3 == 0 {
                    KnowValue::Text("v".repeat((n % 17) as usize))
                } else {
                    KnowValue::Int(n)
                };
                match op {
                    0 => {
                        kb.insert(label, value);
                    }
                    1 => {
                        kb.insert_about(label, entity, value);
                    }
                    2 => {
                        kb.remove(label);
                    }
                    3 => {
                        kb.remove_about(label, &entity);
                    }
                    4 => kb.set_entity_budget(1 + (n % 8) as usize),
                    5 => {
                        kb.insert_about_collective(label, entity, value);
                    }
                    6 => {
                        let _ = kb.accept_remote(&k2, Knowgget::new(label, value, k2.clone()));
                    }
                    _ => {
                        let remote = Knowgget::about(label, value, k2.clone(), entity);
                        let _ = kb.accept_remote(&k2, remote);
                    }
                }
                proptest::prop_assert_eq!(kb.state_bytes(), walked_state_bytes(&kb));
            }
        }

        /// The change log records every mutation: replaying the drained
        /// log onto a snapshot of the entries reproduces the KB, after
        /// any mix of local and remote writes, removals, budget purges
        /// and budget changes. Incremental activation relies on this.
        #[test]
        fn replayed_change_log_reproduces_entries(
            ops in proptest::collection::vec((0u8..8, 0u8..6, 0u8..12, 0i64..1000), 1..200),
            split in 0usize..200,
        ) {
            let mut kb = kb();
            kb.set_entity_budget(6);
            let k2 = KalisId::new("K2");
            let mut snapshot = None;
            for (i, (op, label, entity, n)) in ops.into_iter().enumerate() {
                if i == split {
                    kb.drain_changes();
                    snapshot = Some(wire_map(&kb));
                }
                let label = ["Multihop", "A", "SignalStrength", "TrafficFrequency.UDP", "X", "Mobile"]
                    [usize::from(label)];
                let entity = Entity::new(format!("E{entity}"));
                let value = match n % 4 {
                    0 => KnowValue::Bool(n % 8 == 0),
                    1 => KnowValue::Int(n),
                    2 => KnowValue::Float(n as f64 / 4.0),
                    _ => KnowValue::Text(format!("t{}", n % 5)),
                };
                match op {
                    0 => {
                        kb.insert(label, value);
                    }
                    1 => {
                        kb.insert_about(label, entity, value);
                    }
                    2 => {
                        kb.remove(label);
                    }
                    3 => {
                        kb.remove_about(label, &entity);
                    }
                    4 => kb.set_entity_budget(1 + (n % 8) as usize),
                    5 => {
                        kb.insert_about_collective(label, entity, value);
                    }
                    6 => {
                        let _ = kb.accept_remote(&k2, Knowgget::new(label, value, k2.clone()));
                    }
                    _ => {
                        let remote = Knowgget::about(label, value, k2.clone(), entity);
                        let _ = kb.accept_remote(&k2, remote);
                    }
                }
            }
            let mut replayed = snapshot.unwrap_or_default();
            for change in kb.drain_changes() {
                let encoded = change.key.encode();
                if change.removed {
                    replayed.remove(&encoded);
                } else {
                    replayed.insert(encoded, change.value.to_wire());
                }
            }
            proptest::prop_assert_eq!(&replayed, &wire_map(&kb));
        }
    }
}
