//! Per-peer sync read sets (`kalis-lint --read-sets`).
//!
//! Interest-based synchronization (ROADMAP item 3) needs to know, for
//! each peer, *which collective knowggets that peer actually consumes* —
//! its **read set** — so beacons can carry only knowledge someone will
//! read instead of the full collective surface. The knowgget contracts
//! already declare this: a module consumes peer knowledge when it
//! declares a collective-correlation read (`reads_collective`) or when
//! one of its reads overlaps a key some contract writes collectively
//! (peer copies of the key land in the local KB via sync).
//!
//! This module computes that set purely from contracts — deterministic
//! for a given registry, no runtime state — and renders it as a
//! hand-rolled JSON artifact (schema `kalis.read-sets.v1`, documented in
//! `OBSERVABILITY_MAP.md`) with three views: per-module, rolled up per
//! attack family (via each detection module's `detects` descriptor), and
//! the node-wide union an undifferentiated peer would subscribe to.

use std::collections::BTreeMap;

use kalis_core::json::quote;
use kalis_core::modules::{KnowggetContract, ModuleRegistry};
use kalis_core::AttackKind;

use crate::system::overlaps;

/// Why a key is in a module's sync read set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadReason {
    /// The module declares a collective-correlation read
    /// (`reads_collective`): it iterates peer creators of the key.
    CollectiveRead,
    /// The module's plain read overlaps a key some contract writes
    /// collectively, so synced peer copies feed it.
    CollectiveProducer,
}

impl ReadReason {
    /// Stable JSON label.
    pub fn name(self) -> &'static str {
        match self {
            ReadReason::CollectiveRead => "collective-read",
            ReadReason::CollectiveProducer => "collective-producer",
        }
    }
}

/// One entry of a module's sync read set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadSetEntry {
    /// The key label (pattern rendering, `Family.*` for families).
    pub key: String,
    /// Why sync matters for this key.
    pub reason: ReadReason,
    /// Whether the key is entity-scoped (`label@entity`).
    pub per_entity: bool,
}

/// The per-peer sync read sets derived from a registry's contracts.
#[derive(Debug, Clone)]
pub struct ReadSets {
    /// `module name → sorted entries`; modules with empty sync read
    /// sets are included (with an empty list) so the artifact is a
    /// complete inventory.
    pub modules: BTreeMap<String, Vec<ReadSetEntry>>,
    /// `attack family label → sorted key labels`, unioned over the
    /// detection modules that detect the family. Sync-only, like
    /// `modules`.
    pub families: BTreeMap<&'static str, Vec<String>>,
    /// `attack family label → every key the family's detection modules
    /// read at all` (synced or locally sensed) — the family's full
    /// knowledge dependency surface. Families without a shipped
    /// detector are absent here (unlike `families`, which lists every
    /// `AttackKind` label).
    pub knowledge: BTreeMap<&'static str, Vec<String>>,
    /// The node-wide union: every key any module needs from sync.
    pub union: Vec<String>,
}

/// The sync read set of one contract against the set of collective
/// writes in the system.
fn contract_read_set(
    contract: &KnowggetContract,
    collective: &[&kalis_core::modules::KeyUse],
) -> Vec<ReadSetEntry> {
    let mut entries = Vec::new();
    for read in &contract.reads {
        let reason = if read.collective {
            Some(ReadReason::CollectiveRead)
        } else if collective
            .iter()
            .any(|w| overlaps(&w.pattern, &read.pattern))
        {
            Some(ReadReason::CollectiveProducer)
        } else {
            None
        };
        if let Some(reason) = reason {
            entries.push(ReadSetEntry {
                key: read.pattern.to_string(),
                reason,
                per_entity: read.per_entity,
            });
        }
    }
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    entries.dedup();
    entries
}

impl ReadSets {
    /// Compute every module's sync read set from the registry's
    /// contracts. Deterministic: registries iterate in name order and
    /// every collection here is sorted.
    pub fn from_registry(registry: &ModuleRegistry) -> Self {
        let contracts = registry.contracts();
        let collective: Vec<&kalis_core::modules::KeyUse> = contracts
            .iter()
            .flat_map(|(_, _, c)| c.writes.iter().filter(|w| w.collective))
            .collect();

        let mut modules = BTreeMap::new();
        let mut families: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let mut knowledge: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        let mut union: Vec<String> = Vec::new();
        for (name, descriptor, contract) in &contracts {
            let entries = contract_read_set(contract, &collective);
            union.extend(entries.iter().map(|e| e.key.clone()));
            if let Some(attack) = descriptor.detects {
                let keys = families.entry(attack.label()).or_default();
                keys.extend(entries.iter().map(|e| e.key.clone()));
                let deps = knowledge.entry(attack.label()).or_default();
                deps.extend(contract.reads.iter().map(|r| r.pattern.to_string()));
            }
            modules.insert(name.clone(), entries);
        }
        // Every attack family appears, even with an empty read set, so
        // the `experiments --lint` preflight can assert per-family
        // coverage explicitly.
        for attack in AttackKind::all() {
            families.entry(attack.label()).or_default();
        }
        for keys in families.values_mut().chain(knowledge.values_mut()) {
            keys.sort();
            keys.dedup();
        }
        union.sort();
        union.dedup();
        ReadSets {
            modules,
            families,
            knowledge,
            union,
        }
    }

    /// The rolled-up read set for one attack family label, if known.
    pub fn family(&self, label: &str) -> Option<&[String]> {
        self.families.get(label).map(Vec::as_slice)
    }

    /// Render the artifact as deterministic JSON (`kalis.read-sets.v1`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"kalis.read-sets.v1\",\n");
        out.push_str("  \"modules\": {\n");
        let last_module = self.modules.len().saturating_sub(1);
        for (i, (name, entries)) in self.modules.iter().enumerate() {
            out.push_str(&format!("    {}: [", quote(name)));
            for (j, e) in entries.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"key\": {}, \"reason\": {}, \"per_entity\": {}}}",
                    quote(&e.key),
                    quote(e.reason.name()),
                    e.per_entity
                ));
            }
            out.push(']');
            if i != last_module {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n  \"families\": {\n");
        let last_family = self.families.len().saturating_sub(1);
        for (i, (label, keys)) in self.families.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}",
                quote(label),
                json_string_array(keys)
            ));
            if i != last_family {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n  \"knowledge\": {\n");
        let last_dep = self.knowledge.len().saturating_sub(1);
        for (i, (label, keys)) in self.knowledge.iter().enumerate() {
            out.push_str(&format!(
                "    {}: {}",
                quote(label),
                json_string_array(keys)
            ));
            if i != last_dep {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"union\": {}\n}}\n",
            json_string_array(&self.union)
        ));
        out
    }
}

fn json_string_array(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", quoted.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_read_sets_are_deterministic_and_plausible() {
        let reg = ModuleRegistry::with_defaults();
        let a = ReadSets::from_registry(&reg);
        let b = ReadSets::from_registry(&reg);
        assert_eq!(a.to_json(), b.to_json(), "artifact must be deterministic");

        // The wormhole detector correlates peer watchdog evidence.
        let wormhole = &a.modules["WormholeModule"];
        assert!(wormhole.iter().any(|e| e.key == "DroppedOrigins"
            && e.reason == ReadReason::CollectiveRead
            && e.per_entity));
        // The blackhole watchdog consumes peer wormhole confirmations
        // via their collective producer.
        let watchdog = &a.modules["BlackholeModule"];
        assert!(watchdog
            .iter()
            .any(|e| e.reason == ReadReason::CollectiveProducer));
        // Purely local modules have empty sync read sets but still appear.
        assert!(a.modules["FragmentFloodModule"].is_empty());
        // Family roll-up: wormhole's family carries its keys.
        assert!(a
            .family("wormhole")
            .unwrap()
            .contains(&"DroppedOrigins".to_owned()));
        // Every attack family label is present in the artifact.
        for attack in AttackKind::all() {
            assert!(
                a.family(attack.label()).is_some(),
                "{} missing",
                attack.label()
            );
        }
        // Knowledge dependency surface: every family with a shipped
        // detector reads *something* — the knowledge-driven claim —
        // including families whose sync read set is empty.
        assert!(!a.knowledge["icmp-flood"].is_empty());
        assert!(a.knowledge["wormhole"].contains(&"DroppedOrigins".to_owned()));
        assert!(
            !a.knowledge.contains_key("anomaly"),
            "no shipped anomaly detector"
        );
        // The union is sorted and deduplicated.
        let mut sorted = a.union.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(a.union, sorted);
        assert!(!a.union.is_empty());
    }

    #[test]
    fn json_artifact_shape() {
        let json = ReadSets::from_registry(&ModuleRegistry::with_defaults()).to_json();
        assert!(json.starts_with("{\n  \"schema\": \"kalis.read-sets.v1\""));
        assert!(json.contains("\"modules\""));
        assert!(json.contains("\"families\""));
        assert!(json.contains("\"knowledge\""));
        assert!(json.contains("\"union\""));
        assert!(json.contains("\"collective-read\""));
        assert!(json.trim_end().ends_with('}'));
        // Balanced braces/brackets (cheap well-formedness check; the CLI
        // test parses it properly).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
