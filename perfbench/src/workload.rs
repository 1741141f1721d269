//! The four workloads: seeded traffic mixes generated with the
//! repository's simulator and attack injectors, each with the Fig. 6
//! config its node(s) run under. Generation is the load generator, not
//! the system, and stays outside every timed region.

use kalis_attacks::SymptomInstance;
use kalis_bench::experiments::spray_trace;
use kalis_bench::{Scenario, ScenarioKind};
use kalis_packets::CapturedPacket;

use crate::drive::Capture;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E1: single-hop WiFi smart home under ICMP flood bursts.
    WifiFlood,
    /// E2: CTP/802.15.4 multi-hop WSN, static and mobile phases, with
    /// node replication.
    WsnMobile,
    /// E1 plus a state-exhaustion spray of unique identities.
    IdentitySpray,
    /// The §VI-D wormhole: two taps, two nodes, framed sync between them.
    WsnCollab,
}

/// How much traffic one workload generates.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Independent traces (each from its own derived seed).
    pub traces: u64,
    /// Injected symptom instances per trace.
    pub symptoms: u32,
    /// Spray identities per burst (`identity-spray` only).
    pub spray_identities: u32,
    /// Spray bursts, 9 s apart (`identity-spray` only).
    pub spray_bursts: u32,
}

/// One generated trace with its ground truth.
#[derive(Debug)]
pub struct Trace {
    /// Frames per tap, merged in time order.
    pub capture: Capture,
    /// Injected symptoms.
    pub truth: Vec<SymptomInstance>,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::WifiFlood,
        Workload::WsnMobile,
        Workload::IdentitySpray,
        Workload::WsnCollab,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WifiFlood => "wifi-flood",
            Workload::WsnMobile => "wsn-mobile",
            Workload::IdentitySpray => "identity-spray",
            Workload::WsnCollab => "wsn-collab",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nodes the workload runs (one per tap).
    pub fn nodes(self) -> usize {
        match self {
            Workload::WsnCollab => 2,
            _ => 1,
        }
    }

    /// The Fig. 6 configuration every node of this workload parses. No
    /// module is pinned: the whole library loads and activation is left
    /// to knowledge, as in the paper's Kalis runs.
    pub fn config(self) -> &'static str {
        match self {
            Workload::WifiFlood | Workload::WsnMobile => {
                "# Autonomous Kalis node: the whole library, activation by knowledge.\n\
                 modules = { }\n\
                 knowggets = { KB.PerEntityBudget = 4096 }\n"
            }
            Workload::IdentitySpray => {
                "# Autonomous node under an identity spray; the KB entity budget is\n\
                 # stated so the overflow it meets is explicit.\n\
                 modules = { }\n\
                 knowggets = { KB.PerEntityBudget = 4096 }\n"
            }
            Workload::WsnCollab => {
                "# Collaborating vantage node: 1 s beacons, 3 s peer TTL.\n\
                 modules = { }\n\
                 knowggets = { KB.PerEntityBudget = 4096, Sync.PeerTtl = 3, Sync.BeaconInterval = 1 }\n"
            }
        }
    }

    /// The size the benchmark runs, or a reduced one for self-checks.
    pub fn size(self, reduced: bool) -> Size {
        // identity-spray: 400 identities per burst keeps the spray as
        // dense as a burst of the flood; 16 bursts (6,400 identities, each
        // naming ~2 entities) overflow the module budgets (1024) ~6x and
        // the KB entity budget (4096) ~3x. 11 flood bursts span the spray.
        let (traces, symptoms, spray_identities, spray_bursts) = match (self, reduced) {
            (Workload::WifiFlood, false) => (4, 12, 0, 0),
            (Workload::WsnMobile, false) => (40, 12, 0, 0),
            (Workload::IdentitySpray, false) => (2, 11, 400, 16),
            (Workload::WsnCollab, false) => (40, 24, 0, 0),
            (Workload::WifiFlood, true) => (1, 6, 0, 0),
            (Workload::WsnMobile, true) => (7, 12, 0, 0),
            (Workload::IdentitySpray, true) => (1, 6, 40, 8),
            (Workload::WsnCollab, true) => (8, 24, 0, 0),
        };
        Size {
            traces,
            symptoms,
            spray_identities,
            spray_bursts,
        }
    }

    /// Generate the workload's traces from `seed`: the same seed gives
    /// the same traces.
    pub fn generate(self, seed: u64, size: Size) -> Vec<Trace> {
        (0..size.traces)
            .map(|i| {
                let s = seed.wrapping_mul(1_000_003).wrapping_add(i);
                match self {
                    Workload::WifiFlood => {
                        single(Scenario::build(ScenarioKind::IcmpFlood, s, size.symptoms))
                    }
                    Workload::WsnMobile => {
                        single(Scenario::build(ScenarioKind::Replication, s, size.symptoms))
                    }
                    Workload::IdentitySpray => {
                        let scenario = Scenario::build(ScenarioKind::IcmpFlood, s, size.symptoms);
                        let spray = spray_trace(s, size.spray_identities, size.spray_bursts);
                        let mut merged: Vec<CapturedPacket> =
                            scenario.captures.into_iter().chain(spray).collect();
                        merged.sort_by_key(|p| p.timestamp);
                        Trace {
                            capture: Capture::new(vec![merged]),
                            truth: scenario.truth,
                        }
                    }
                    Workload::WsnCollab => {
                        // The wormhole scenario is scripted, so the seed
                        // deals out trace lengths instead. Every run gets
                        // near the same mix of lengths, and so of cost.
                        let spread = u64::from(size.symptoms / 2 + 1);
                        let symptoms = size.symptoms + ((mix(seed) + i) % spread) as u32;
                        let scenario = Scenario::build(ScenarioKind::Wormhole, s, symptoms);
                        let b = scenario
                            .captures_b
                            .expect("the wormhole scenario has two taps");
                        Trace {
                            capture: Capture::new(vec![scenario.captures, b]),
                            truth: scenario.truth,
                        }
                    }
                }
            })
            .collect()
    }
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn single(scenario: Scenario) -> Trace {
    Trace {
        capture: Capture::new(vec![scenario.captures]),
        truth: scenario.truth,
    }
}
