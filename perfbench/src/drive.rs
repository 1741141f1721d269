//! The closed-loop replay harness. One thread hands each captured frame to
//! a node as soon as the previous call returns; the node runs on the
//! capture clock, so its verdicts do not depend on how fast it runs.
//!
//! The harness is generic over the system under test ([`Ids`]: a whole
//! Kalis node, or the layer-by-layer replay of one) and over a [`Probe`]
//! that wraps every call (per-call latency for timed runs, spans for
//! traced runs).

use std::time::Duration;

use kalis_core::knowledge::{PeerBeacon, XorChannel};
use kalis_core::modules::ShedMode;
use kalis_core::{Alert, Kalis, KalisError, KalisId};
use kalis_packets::{CapturedPacket, Timestamp};

/// Key sealing sync frames between the two nodes of a collaborative
/// workload (the node's built-in default, passed explicitly so the
/// layer-by-layer replay can seal identically).
pub const SYNC_KEY: u64 = 0x006b_616c_6973;

/// Housekeeping cadence of a node (`Kalis` ticks at most once per second
/// of capture time).
pub const TICK_EVERY: Duration = Duration::from_secs(1);

/// Beacon and knowledge-exchange cadence of a collaborative pair, on the
/// capture clock.
pub const SYNC_EVERY: Duration = Duration::from_millis(500);

/// Outbound sync work of one poll, as bytes for the in-process link.
#[derive(Debug, Default)]
pub struct Outbound {
    /// Encoded beacon, when due.
    pub beacon: Option<Vec<u8>>,
    /// Sealed frames.
    pub frames: Vec<Vec<u8>>,
    /// How many of `frames` are retransmissions.
    pub retransmits: u64,
}

/// The system under test, as the harness sees it.
pub trait Ids {
    /// Ingest one captured packet.
    fn ingest(&mut self, packet: CapturedPacket) -> Result<(), KalisError>;
    /// Advance time without a packet.
    fn tick(&mut self, now: Timestamp);
    /// Drive the sync engine one step.
    fn sync_poll(&mut self, now: Timestamp) -> Outbound;
    /// Open a sealed frame; returns the ack to send back, if any.
    fn receive_frame(
        &mut self,
        sealed: &[u8],
        now: Timestamp,
    ) -> Result<Option<Vec<u8>>, KalisError>;
    /// Record a peer beacon.
    fn observe_beacon(&mut self, beacon: &[u8], now: Timestamp);
    /// Modules active right now, in library order.
    fn active(&self) -> Vec<&'static str>;
    /// Shed mode the last ingest dispatched under.
    fn shed_mode(&self) -> ShedMode;
    /// Every alert raised so far.
    fn alerts(&self) -> &[Alert];
    /// Knowledge Base revision.
    fn kb_revision(&self) -> u64;
}

impl Ids for Kalis {
    fn ingest(&mut self, packet: CapturedPacket) -> Result<(), KalisError> {
        self.try_ingest(packet)
    }

    fn tick(&mut self, now: Timestamp) {
        Kalis::tick(self, now);
    }

    fn sync_poll(&mut self, now: Timestamp) -> Outbound {
        let poll = Kalis::sync_poll(self, now);
        Outbound {
            beacon: poll.beacon.map(|b| b.encode()),
            retransmits: poll.frames.iter().filter(|f| f.retransmit).count() as u64,
            frames: poll.frames.into_iter().map(|f| f.bytes).collect(),
        }
    }

    fn receive_frame(
        &mut self,
        sealed: &[u8],
        now: Timestamp,
    ) -> Result<Option<Vec<u8>>, KalisError> {
        self.receive_sync_frame(sealed, now).map(|r| r.reply)
    }

    fn observe_beacon(&mut self, beacon: &[u8], now: Timestamp) {
        if let Some(beacon) = PeerBeacon::decode(beacon) {
            Kalis::observe_beacon(self, &beacon, now);
        }
    }

    fn active(&self) -> Vec<&'static str> {
        self.active_modules()
    }

    fn shed_mode(&self) -> ShedMode {
        Kalis::shed_mode(self)
    }

    fn alerts(&self) -> &[Alert] {
        Kalis::alerts(self)
    }

    fn kb_revision(&self) -> u64 {
        self.knowledge().revision()
    }
}

/// Build one Kalis node of a workload: its Fig. 6 config, the whole
/// default library (unpinned, so activation is knowledge-driven) and the
/// shared sync key.
pub fn build_node(id: &str, config: &kalis_core::config::Config) -> Result<Kalis, KalisError> {
    Kalis::builder(KalisId::new(id))
        .with_config(config.clone())
        .with_default_modules()
        .with_sync_channel(Box::new(XorChannel::new(SYNC_KEY)))
        .try_build()
}

/// A call the harness makes into a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `CapturedPacket::capture` (frame decode).
    Capture,
    /// `Kalis::try_ingest`.
    Ingest,
    /// `Kalis::tick`.
    Tick,
    /// `Kalis::sync_poll`.
    Poll,
    /// `Kalis::receive_sync_frame`.
    Receive,
    /// `Kalis::observe_beacon`.
    Beacon,
}

/// Wraps every call the harness makes.
pub trait Probe {
    /// Run `f`, the call `op`.
    fn call<R>(&mut self, op: Op, f: impl FnOnce() -> R) -> R;
}

/// A probe that does nothing.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline]
    fn call<R>(&mut self, _op: Op, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// A replayable capture: one or two taps merged into one time-ordered
/// event list (node index, packet index).
#[derive(Debug)]
pub struct Capture {
    /// Frames per tap, each in time order.
    pub taps: Vec<Vec<CapturedPacket>>,
    /// Merged order: (tap, index into the tap). Ties go to the lower tap.
    pub order: Vec<(usize, usize)>,
}

impl Capture {
    /// Merge taps by timestamp.
    pub fn new(taps: Vec<Vec<CapturedPacket>>) -> Self {
        let mut order: Vec<(usize, usize)> = taps
            .iter()
            .enumerate()
            .flat_map(|(t, tap)| (0..tap.len()).map(move |i| (t, i)))
            .collect();
        order.sort_by_key(|&(t, i)| (taps[t][i].timestamp, t));
        Capture { taps, order }
    }

    /// Frames across all taps.
    pub fn packets(&self) -> usize {
        self.order.len()
    }

    /// Capture time of the last frame.
    pub fn end(&self) -> Timestamp {
        self.order
            .last()
            .map_or(Timestamp::ZERO, |&(t, i)| self.taps[t][i].timestamp)
    }
}

/// What one replay did, counted by the harness.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// `try_ingest` calls.
    pub ingests: u64,
    /// `try_ingest` calls that returned an error.
    pub ingest_errors: u64,
    /// Frames whose decode stopped before a parsed stack.
    pub undecoded: u64,
    /// Frames handed to `receive_sync_frame` (data and acks).
    pub frames: u64,
    /// Bytes of those frames.
    pub frame_bytes: u64,
    /// Frames the receiver rejected.
    pub frames_rejected: u64,
    /// Retransmitted frames.
    pub retransmits: u64,
}

/// Per-node observations a traced replay records after every call.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Timeline {
    /// (capture time µs, active modules) whenever the set changed.
    pub activation: Vec<(u64, Vec<&'static str>)>,
    /// Shed mode of every ingest, in order.
    pub shed: Vec<ShedMode>,
}

impl Timeline {
    fn note(&mut self, now: Timestamp, node: &impl Ids) {
        let active = node.active();
        if self.activation.last().map(|(_, a)| a) != Some(&active) {
            self.activation.push((now.as_micros(), active));
        }
    }
}

/// Replay `capture` into `nodes` (one per tap).
///
/// With `explicit_ticks`, the harness calls `tick` at the node's 1 s
/// cadence just before the ingest that would run it, so a probe can time
/// ticks apart from ingest; the node does the same work either way. With
/// `timelines`, activation and shed mode are recorded after every call.
pub fn replay<I: Ids, P: Probe>(
    nodes: &mut [I],
    capture: &Capture,
    probe: &mut P,
    explicit_ticks: bool,
    mut timelines: Option<&mut [Timeline]>,
) -> Counts {
    let mut counts = Counts::default();
    let mut last_tick: Vec<Option<Timestamp>> = vec![None; nodes.len()];
    let mut next_sync = Timestamp::ZERO + SYNC_EVERY;
    for &(tap, index) in &capture.order {
        let frame = &capture.taps[tap][index];
        let now = frame.timestamp;
        if nodes.len() == 2 {
            while now >= next_sync {
                sync_step(
                    nodes,
                    next_sync,
                    probe,
                    &mut counts,
                    timelines.as_deref_mut(),
                );
                last_tick.iter_mut().for_each(|t| *t = Some(next_sync));
                next_sync += SYNC_EVERY;
            }
        }
        let node = &mut nodes[tap];
        if last_tick[tap].is_none_or(|last| now.saturating_since(last) >= TICK_EVERY) {
            last_tick[tap] = Some(now);
            if explicit_ticks {
                probe.call(Op::Tick, || node.tick(now));
                if let Some(t) = timelines.as_deref_mut() {
                    t[tap].note(now, node);
                }
            }
        }
        let packet = probe.call(Op::Capture, || {
            CapturedPacket::capture(
                frame.timestamp,
                frame.medium,
                frame.rssi_dbm,
                frame.interface.as_str(),
                frame.raw.clone(),
            )
        });
        counts.undecoded += u64::from(packet.packet.is_none());
        let result = probe.call(Op::Ingest, || node.ingest(packet));
        counts.ingests += 1;
        counts.ingest_errors += u64::from(result.is_err());
        if let Some(t) = timelines.as_deref_mut() {
            t[tap].shed.push(node.shed_mode());
            t[tap].note(now, node);
        }
    }
    counts
}

/// One exchange on the lossless in-process link: each node polls, its
/// beacon and frames reach the other node at once, acks come straight
/// back; then both nodes run housekeeping.
fn sync_step<I: Ids, P: Probe>(
    nodes: &mut [I],
    now: Timestamp,
    probe: &mut P,
    counts: &mut Counts,
    mut timelines: Option<&mut [Timeline]>,
) {
    for from in 0..2 {
        let to = 1 - from;
        let out = probe.call(Op::Poll, || nodes[from].sync_poll(now));
        counts.retransmits += out.retransmits;
        if let Some(beacon) = &out.beacon {
            probe.call(Op::Beacon, || nodes[to].observe_beacon(beacon, now));
        }
        for frame in &out.frames {
            counts.frames += 1;
            counts.frame_bytes += frame.len() as u64;
            match probe.call(Op::Receive, || nodes[to].receive_frame(frame, now)) {
                Ok(Some(ack)) => {
                    counts.frames += 1;
                    counts.frame_bytes += ack.len() as u64;
                    if probe
                        .call(Op::Receive, || nodes[from].receive_frame(&ack, now))
                        .is_err()
                    {
                        counts.frames_rejected += 1;
                    }
                }
                Ok(None) => {}
                Err(_) => counts.frames_rejected += 1,
            }
        }
    }
    for (i, node) in nodes.iter_mut().enumerate() {
        probe.call(Op::Tick, || node.tick(now));
        if let Some(t) = timelines.as_deref_mut() {
            t[i].note(now, node);
        }
    }
}

/// Final housekeeping after the trace so window-based detectors flush
/// (as the repository's experiment runner does); not part of any timed
/// region.
pub fn flush<I: Ids>(nodes: &mut [I], capture: &Capture, mut timelines: Option<&mut [Timeline]>) {
    let at = capture.end() + Duration::from_secs(2);
    for (i, node) in nodes.iter_mut().enumerate() {
        node.tick(at);
        if let Some(t) = timelines.as_deref_mut() {
            t[i].note(at, node);
        }
    }
}
