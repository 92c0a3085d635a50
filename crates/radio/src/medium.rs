//! The broadcast medium: radios at positions, transmissions with
//! airtime, per-receiver SNR/PER, collisions with physical capture.
//!
//! The medium is PHY-agnostic: callers pass each transmission's airtime
//! and decode threshold (computed from `wile_dot11::phy` one layer up),
//! so this crate does not depend on the 802.11 crate and can carry BLE
//! advertising PDUs with identical semantics.
//!
//! # Determinism
//!
//! Loss decisions are derived from a per-(transmission, receiver) hash of
//! the medium's seed, so results do not depend on the order receivers
//! poll their inboxes.
//!
//! # Performance
//!
//! The medium is a hot path for fleet-scale campaigns, so it indexes
//! its state instead of rescanning it:
//!
//! * the transmission log is **start-ordered** (transmissions are issued
//!   in time order), so carrier sense ([`Medium::is_busy`]) binary-searches
//!   a start-time window bounded by the longest airtime seen, and the
//!   collision scan inside [`Medium::take_inbox`] walks outwards from
//!   the wanted frame to its time-neighbours — a contiguous run of the
//!   log — filtering on channel, instead of walking the whole log;
//! * transmissions are additionally indexed **per spatial cell** of the
//!   sender, and inbox drains only visit cells within the listener's
//!   sensitivity horizon — in a metro-scale hall a gateway examines the
//!   few thousand beacons transmitted near it, not the whole city's
//!   (see "Spatial sharding" below). Each radio gets a dense cell slot
//!   at attach, so a transmit is one push onto a list, not a hash-map
//!   entry;
//! * pairwise received power (path loss + static shadowing) is
//!   **memoized per (tx, rx) link** — for static topologies every
//!   `log10`/`sqrt`/Box–Muller evaluation happens once — in one row
//!   per listening radio (sender → value): a drain looks its row up
//!   once, and each reception probes a table of that listener's own
//!   links, not one of every link in the city. Out-of-horizon pairs
//!   are distance-culled *before* touching the row, so the rows hold
//!   O(audible links), not O(radios²). The cull reads the sender
//!   position copied into the transmission, not the radio table. The
//!   rows, the cell slots and the horizon memo hash their
//!   simulator-assigned keys with a small fixed integer hasher, not
//!   SipHash;
//! * frame bytes are held in one of two ways. [`Medium::transmit`]
//!   copies the caller's slice into the medium's own **chunked byte
//!   arena**, so a frame nobody hears costs no allocation of its own,
//!   and retirement frees whole chunks (recycling them for later
//!   frames, so a steady-state transmit allocates nothing).
//!   [`Medium::transmit_from`] logs only a **(source, key)** pair: a
//!   registered [`FrameSource`] renders the bytes the first time
//!   anything reads them, so a fleet beacon nobody hears is never
//!   built at all. Either way a transmission's first delivery puts its
//!   bytes in one `Arc<[u8]>` kept beside it, and every later receiver
//!   shares that `Arc`: delivering a beacon to N gateways is one copy
//!   (or render) and N refcount bumps;
//! * with [`Medium::retire_consumed`] enabled, transmissions every
//!   attached cursor has passed are **retired**, so long campaigns run
//!   in memory bounded by the in-flight window rather than the full
//!   history. [`Medium::release_all`] raises a medium-wide floor under
//!   every cursor instead of writing each one, so a poll over a
//!   million transmit-only radios costs O(1), not O(radios).
//!
//! # Spatial sharding
//!
//! Shadowing deviates are clamped to ±[`SHADOW_CLAMP_SIGMA`] standard
//! deviations (the implicit bound of the old hash-fed Box–Muller was
//! ±7.4σ — beyond physical plausibility and uselessly loose). That makes
//! the strongest possible arrival at distance `d` a closed form, and
//! inverting it gives the **sensitivity horizon**: the distance beyond
//! which a transmission at power `p` cannot reach a listener with
//! sensitivity `s` even with maximum shadowing gain. Radios live in a
//! grid of [`CELL_M`]-metre cells keyed by position; a drain visits only
//! cells within the horizon of the strongest power ever transmitted.
//! Every skipped transmission is *provably* below the listener's
//! sensitivity, so the cull is behaviour-preserving, not approximate.
//!
//! All of this is behaviour-preserving: the [`RxFrame`] sequence each
//! listener observes is byte-identical to the retained naive reference
//! implementation ([`crate::naive::NaiveMedium`]), which the property
//! tests in `tests/props.rs` enforce over random topologies.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::channel::ChannelModel;
use crate::per::packet_error_rate;
use crate::stats::{MediumCounters, MediumStats};
use crate::time::{Duration, Instant};

/// Identifies one attached radio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RadioId(pub u32);

/// Static configuration of an attached radio.
#[derive(Debug, Clone, Copy)]
pub struct RadioConfig {
    /// Position in metres (planar).
    pub position_m: (f64, f64),
    /// Channel number the radio is tuned to (2.4 GHz numbering, or the
    /// BLE advertising channel index — only equality matters).
    pub channel: u8,
    /// Below this received power (dBm) the radio does not even detect
    /// the frame (no interference contribution is modelled below it
    /// either — a simplification).
    pub sensitivity_dbm: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            position_m: (0.0, 0.0),
            channel: 6,
            sensitivity_dbm: -92.0,
        }
    }
}

/// Parameters of one transmission.
#[derive(Debug, Clone, Copy)]
pub struct TxParams {
    /// On-air duration of the PPDU.
    pub airtime: Duration,
    /// Transmit power, dBm.
    pub power_dbm: f64,
    /// SNR (dB) at which this frame's modulation decodes with 50 % PER
    /// for a 1000-byte frame (see `wile_dot11::phy::PhyRate::min_snr_db`).
    pub min_snr_db: f64,
}

/// A frame as it arrived at one receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct RxFrame {
    /// Delivery time (end of the PPDU).
    pub at: Instant,
    /// The transmitting radio.
    pub from: RadioId,
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-noise ratio at this receiver, dB.
    pub snr_db: f64,
    /// The frame bytes. The medium copies them out of its arena (or has
    /// their [`FrameSource`] render them) once, on the transmission's
    /// first delivery, and every other receiver
    /// of that transmission shares the same `Arc`. Fault injection that
    /// corrupts a frame copy-on-writes its own copy
    /// ([`crate::plan::FaultTimeline::apply_shared`]).
    pub bytes: Arc<[u8]>,
}

/// Renders the bytes of frames logged by [`Medium::transmit_from`].
///
/// The medium keeps only the key of such a frame and asks its source
/// for the bytes the first time anything reads them: its first
/// delivery, or [`Medium::transmissions`]. A frame nobody hears is
/// never rendered. A source must be a pure function of the key: the
/// same key always renders the same bytes, exactly as many as the
/// length it was transmitted with.
pub trait FrameSource: std::fmt::Debug + Send + Sync {
    /// Append the frame for `key` to `out` (which arrives empty).
    fn render(&self, key: u64, out: &mut Vec<u8>);
}

/// A [`FrameSource`] registered with one medium by
/// [`Medium::add_source`]; it means nothing to any other medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceId(u8);

/// The `source` of a transmission whose bytes were copied into the
/// arena; registered sources are numbered from 1.
const ARENA: u8 = 0;

/// Where a transmitted frame's bytes come from.
enum Frame<'a> {
    /// Copied into the arena now.
    Bytes(&'a [u8]),
    /// Rendered by a registered source when first read.
    Keyed(SourceId, u64),
}

/// One entry of the start-ordered log. A city-scale run retains
/// hundreds of thousands of these, so it stays within 80 bytes: the
/// end is derived from the airtime and the bytes live elsewhere (in
/// the arena, or with a [`FrameSource`] until first read).
#[derive(Debug, Clone)]
struct Transmission {
    from: RadioId,
    channel: u8,
    /// [`ARENA`] when the bytes were copied into the arena at
    /// `locator`, else the registered source that renders key
    /// `locator`.
    source: u8,
    /// Frame length in bytes.
    len: u16,
    start: Instant,
    /// The sender's position, copied at transmit time so the horizon
    /// cull never reads the radio table.
    position_m: (f64, f64),
    params: TxParams,
    /// The arena offset or the source's key (see `source`).
    locator: u64,
    /// The frame as the receivers get it, built on its first read.
    heard: OnceCell<Arc<[u8]>>,
}

const _: () = assert!(std::mem::size_of::<Transmission>() <= 80);

impl Transmission {
    fn end(&self) -> Instant {
        self.start + self.params.airtime
    }
}

/// Bytes per arena chunk. One chunk holds the largest 802.11 MPDU
/// (11,454 bytes); a longer frame gets a chunk of its own.
const CHUNK: usize = 16 * 1024;

/// The copied frames' bytes, append-only, addressed by a virtual
/// offset: chunk `k` covers offsets `[k·CHUNK, (k+1)·CHUNK)`, and a
/// frame never straddles two chunks (one that does not fit the rest of
/// the current chunk starts the next). An oversize frame's chunk is
/// sized to it and spans as many virtual chunks as it needs; the ones
/// after its first hold nothing.
#[derive(Debug, Clone, Default)]
struct FrameArena {
    /// Chunk `first + i` is `chunks[i]`.
    chunks: VecDeque<Chunk>,
    first: u64,
    /// Where the next frame goes.
    head: u64,
    /// Retired `CHUNK`-sized chunks, cleared, for the next ones: the
    /// arena holds at most as many chunks as the retained log's high
    /// water needed, and a steady state allocates none.
    spare: Vec<Vec<u8>>,
}

/// One arena chunk.
#[derive(Debug, Clone)]
struct Chunk {
    bytes: Vec<u8>,
    /// Absolute log index of the last frame copied into the chunk (for
    /// an oversize frame's empty trailing chunks, that frame's).
    last: u64,
}

impl FrameArena {
    /// Append `bytes`, the frame of absolute log index `frame`; returns
    /// their offset.
    fn push(&mut self, bytes: &[u8], frame: u64) -> u64 {
        let (c, len) = (CHUNK as u64, bytes.len() as u64);
        if self.head % c + len > c {
            self.head = self.head.next_multiple_of(c);
        }
        let at = self.head;
        if at / c == self.first + self.chunks.len() as u64 {
            if len > c {
                let slots = len.div_ceil(c);
                self.chunks.push_back(Chunk {
                    bytes: bytes.to_vec(),
                    last: frame,
                });
                self.chunks.extend((1..slots).map(|_| Chunk {
                    bytes: Vec::new(),
                    last: frame,
                }));
                self.head = at + slots * c;
                return at;
            }
            let bytes = self
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(CHUNK));
            self.chunks.push_back(Chunk { bytes, last: frame });
        }
        let chunk = self
            .chunks
            .back_mut()
            .expect("the frame's chunk was just ensured");
        chunk.bytes.extend_from_slice(bytes);
        chunk.last = frame;
        self.head = at + len;
        at
    }

    /// The `len` bytes at `offset`.
    fn get(&self, offset: u64, len: u16) -> &[u8] {
        let c = CHUNK as u64;
        let within = (offset % c) as usize;
        &self.chunks[(offset / c - self.first) as usize].bytes[within..within + len as usize]
    }

    /// Drop every chunk whose frames all sit below absolute log index
    /// `frame`, short of the chunk the next frame may still extend.
    /// Chunks are in log order, so this stops at the chunk of the
    /// oldest frame at or after `frame` and costs O(chunks dropped),
    /// however many keyed frames the log holds between them.
    fn retire_before(&mut self, frame: u64) {
        let open = self.head / CHUNK as u64;
        while self.first < open && self.chunks.front().is_some_and(|c| c.last < frame) {
            let mut chunk = self.chunks.pop_front().expect("just checked");
            self.first += 1;
            if chunk.bytes.capacity() == CHUNK {
                chunk.bytes.clear();
                self.spare.push(chunk.bytes);
            }
        }
    }
}

/// How much stronger (dB) the wanted signal must be than an overlapping
/// interferer for the receiver to capture it anyway.
pub const CAPTURE_MARGIN_DB: f64 = 10.0;

/// Log-normal shadowing deviates are clamped to this many standard
/// deviations on either side. Bounding the tail is what makes the
/// sensitivity horizon (and therefore the spatial cull) a closed form;
/// ±4σ keeps 99.994 % of the distribution and caps the gain a link can
/// shadow *up* by (e.g. +24 dB at σ = 6).
pub const SHADOW_CLAMP_SIGMA: f64 = 4.0;

/// Edge length (metres) of the spatial grid cells senders are indexed
/// by. Small enough that a metro hall spans many cells, large enough
/// that short-horizon fleets only ever merge a handful of neighbour
/// lists per drain.
pub const CELL_M: f64 = 32.0;

/// The grid cell containing a position.
fn cell_of(pos: (f64, f64)) -> (i32, i32) {
    (
        (pos.0 / CELL_M).floor() as i32,
        (pos.1 / CELL_M).floor() as i32,
    )
}

/// A count multiset of `values`.
fn counts<T: Ord + Copy>(values: &[T]) -> BTreeMap<T, u32> {
    let mut m = BTreeMap::new();
    for &v in values {
        *m.entry(v).or_default() += 1;
    }
    m
}

/// Remove one `value` from a count multiset.
fn uncount<T: Ord>(m: &mut BTreeMap<T, u32>, value: T) {
    if let std::collections::btree_map::Entry::Occupied(mut e) = m.entry(value) {
        *e.get_mut() -= 1;
        if *e.get() == 0 {
            e.remove();
        }
    }
}

/// SplitMix64's finalizer: a bijective mix of all 64 bits into all 64.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The hasher of the medium's maps, whose keys the simulator assigns
/// (radio ids, cell coordinates, bit patterns of configured powers): a
/// multiply–rotate fold of the key's words, finished by [`mix64`]. It
/// is fixed and unkeyed, so it is for those keys only; a map keyed by
/// bytes from outside the process keeps `std`'s keyed SipHash, or
/// crafted keys could collide on purpose.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_i32(&mut self, n: i32) {
        self.write_u64(u64::from(n as u32));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(26) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// A hash map under [`IdHasher`].
type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// One listener's memoized link budgets: sender id → (tx power bits,
/// rx power dBm). Stored sparsely and per listener: a drain probes a
/// table of only its own audible links (a metro gateway's few
/// thousand), not one of every link in the city. Positions are fixed at
/// attach, so entries never go stale. Each entry is keyed by the
/// transmit power it was computed for (radios almost always transmit
/// at one power, so a single slot per link suffices).
type LinkRow = IdMap<u32, (u64, f64)>;

/// The shared broadcast medium.
///
/// ```
/// use wile_radio::{Medium, RadioConfig};
/// use wile_radio::medium::TxParams;
/// use wile_radio::{Duration, Instant};
///
/// let mut m = Medium::new(Default::default(), 42);
/// let sensor = m.attach(RadioConfig { position_m: (0.0, 0.0), ..Default::default() });
/// let phone = m.attach(RadioConfig { position_m: (3.0, 0.0), ..Default::default() });
///
/// m.transmit(sensor, Instant::from_ms(10), TxParams {
///     airtime: Duration::from_us(50), power_dbm: 0.0, min_snr_db: 25.0,
/// }, b"beacon".to_vec());
///
/// let rx = m.take_inbox(phone, Instant::from_secs(1));
/// assert_eq!(rx.len(), 1);
/// assert_eq!(&rx[0].bytes[..], b"beacon");
/// ```
#[derive(Debug, Clone)]
pub struct Medium {
    model: ChannelModel,
    seed: u64,
    radios: Vec<RadioConfig>,
    /// Retained transmissions; absolute index = `base` + vec position.
    txs: Vec<Transmission>,
    /// The retained copied frames' bytes.
    arena: FrameArena,
    /// Registered frame sources; source `k` is `sources[k - 1]`.
    sources: Vec<Arc<dyn FrameSource>>,
    /// Scratch a source renders into, reused across renders.
    render_buf: RefCell<Vec<u8>>,
    /// Absolute index of `txs[0]` (count of retired transmissions).
    base: u64,
    /// Per-receiver cursor (absolute), below [`Medium::release_all`]'s
    /// floor: everything before `max(cursors[r], floor.0)` has been
    /// offered to receiver `r` already.
    cursors: Vec<u64>,
    /// Per-receiver high-water mark of `up_to` deadlines the receiver
    /// has drained (or released) its inbox to, below the floor:
    /// `max(drained_to[r], floor.1)`.
    drained_to: Vec<Instant>,
    /// The `(cursor, drained_to)` floor [`Medium::release_all`] raises
    /// under every radio at once.
    floor: (u64, Instant),
    /// Count multisets of `cursors` and `drained_to`, so the retirement
    /// scan reads each minimum without an O(radios) pass.
    cursor_counts: BTreeMap<u64, u32>,
    drained_counts: BTreeMap<Instant, u32>,
    /// Absolute indices per sender cell slot, start-ordered — the
    /// spatial shard index inbox drains merge from. Slots are fixed
    /// once assigned, so lists stay (possibly empty) for the medium's
    /// life.
    cell_txs: Vec<Vec<u64>>,
    /// `(channel, cell)` → slot in `cell_txs`.
    cell_slots: IdMap<(u8, i32, i32), u32>,
    /// Per-radio slot in `cell_txs`, assigned at attach.
    radio_cell: Vec<u32>,
    /// Longest airtime ever transmitted — bounds the start-time window
    /// a transmission can overlap.
    max_airtime: Duration,
    /// Strongest power ever transmitted — bounds the horizon any
    /// retained transmission can reach.
    max_power_dbm: f64,
    /// Listener id → that listener's [`LinkRow`]; only radios that
    /// drain or sense the medium get one.
    links: RefCell<IdMap<u32, LinkRow>>,
    /// Memoized sensitivity horizons keyed by (power bits, sensitivity
    /// bits); fleets use a handful of distinct combinations.
    horizons: RefCell<IdMap<(u64, u64), f64>>,
    /// The last horizon looked up, checked before `horizons`: fleets
    /// almost always ask for the same one again.
    last_horizon: Cell<Option<((u64, u64), f64)>>,
    /// Retire fully-consumed history (see [`Medium::retire_consumed`]).
    bounded: bool,
    last_start: Instant,
    /// Total frames ever transmitted (for stats).
    tx_count: u64,
    /// Cursor advances since the last retirement scan — amortizes the
    /// O(radios) min-cursor pass to O(1) per drain on large fleets.
    retire_skip: u32,
    /// Scratch for merging neighbour-cell index lists without a per-poll
    /// allocation.
    inbox_scratch: Vec<u64>,
    /// Observational tallies (see [`Medium::stats`]).
    counters: MediumCounters,
}

impl Medium {
    /// A medium with the given propagation model and loss seed.
    pub fn new(model: ChannelModel, seed: u64) -> Self {
        Medium {
            model,
            seed,
            radios: Vec::new(),
            txs: Vec::new(),
            arena: FrameArena::default(),
            sources: Vec::new(),
            render_buf: RefCell::default(),
            base: 0,
            cursors: Vec::new(),
            drained_to: Vec::new(),
            floor: (0, Instant::ZERO),
            cursor_counts: BTreeMap::new(),
            drained_counts: BTreeMap::new(),
            cell_txs: Vec::new(),
            cell_slots: IdMap::default(),
            radio_cell: Vec::new(),
            max_airtime: Duration::ZERO,
            max_power_dbm: f64::NEG_INFINITY,
            links: RefCell::default(),
            horizons: RefCell::default(),
            last_horizon: Cell::new(None),
            bounded: false,
            last_start: Instant::ZERO,
            tx_count: 0,
            retire_skip: 0,
            inbox_scratch: Vec::new(),
            counters: MediumCounters::default(),
        }
    }

    /// Attach a radio; returns its id.
    pub fn attach(&mut self, cfg: RadioConfig) -> RadioId {
        // A new radio starts at the oldest retained transmission with
        // nothing drained, which the release floor would hide: fold the
        // floor into every radio first (attaching mid-run is rare).
        if self.floor.0 > self.base || self.floor.1 > Instant::ZERO {
            self.lower_floor();
        }
        let (ci, cj) = cell_of(cfg.position_m);
        let next = self.cell_txs.len() as u32;
        let slot = *self.cell_slots.entry((cfg.channel, ci, cj)).or_insert(next);
        if slot == next {
            self.cell_txs.push(Vec::new());
        }
        self.radio_cell.push(slot);
        self.radios.push(cfg);
        self.cursors.push(self.base);
        self.drained_to.push(Instant::ZERO);
        *self.cursor_counts.entry(self.base).or_default() += 1;
        *self.drained_counts.entry(Instant::ZERO).or_default() += 1;
        RadioId(self.radios.len() as u32 - 1)
    }

    /// Write the release floor into every radio's own cursor and
    /// drained mark and reset it to zero.
    fn lower_floor(&mut self) {
        let (cursor, drained) = std::mem::replace(&mut self.floor, (0, Instant::ZERO));
        for c in &mut self.cursors {
            *c = (*c).max(cursor);
        }
        for d in &mut self.drained_to {
            *d = (*d).max(drained);
        }
        self.cursor_counts = counts(&self.cursors);
        self.drained_counts = counts(&self.drained_to);
    }

    /// Receiver `r`'s effective `(cursor, drained_to)`.
    fn consumed(&self, r: usize) -> (u64, Instant) {
        (
            self.cursors[r].max(self.floor.0),
            self.drained_to[r].max(self.floor.1),
        )
    }

    /// Move receiver `r` to `(cursor, drained_to)`, keeping the count
    /// multisets in step.
    fn set_consumed(&mut self, r: usize, cursor: u64, drained: Instant) {
        if self.cursors[r] != cursor {
            uncount(&mut self.cursor_counts, self.cursors[r]);
            *self.cursor_counts.entry(cursor).or_default() += 1;
            self.cursors[r] = cursor;
        }
        if self.drained_to[r] != drained {
            uncount(&mut self.drained_counts, self.drained_to[r]);
            *self.drained_counts.entry(drained).or_default() += 1;
            self.drained_to[r] = drained;
        }
    }

    /// The propagation model in use.
    pub fn model(&self) -> &ChannelModel {
        &self.model
    }

    /// Total transmissions offered to the medium so far.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// Snapshot of the medium's observational counters: delivery and
    /// loss breakdown, link-cache effectiveness, retained-log depth.
    pub fn stats(&self) -> MediumStats {
        self.counters.snapshot(self.tx_count)
    }

    /// Bound the medium's memory: retire transmissions once every
    /// attached cursor has passed them and no live query can still see
    /// them. Off by default (the full history is retained for
    /// [`Medium::transmissions`] consumers such as pcap export).
    ///
    /// In bounded mode two contracts apply, both natural for
    /// time-ordered event loops:
    ///
    /// * [`Medium::transmissions`] yields only the retained suffix;
    /// * a receiver must not query [`Medium::is_busy`] or
    ///   [`Medium::take_inbox`] for instants earlier than deadlines it
    ///   has already drained or released to.
    ///
    /// Listeners that never read their inbox (transmit-only devices)
    /// should periodically call [`Medium::release`] so history behind
    /// them can be reclaimed.
    pub fn retire_consumed(&mut self, on: bool) {
        self.bounded = on;
    }

    /// Transmissions currently retained in memory (≤ [`Medium::tx_count`]
    /// once retirement is enabled).
    pub fn live_tx_count(&self) -> usize {
        self.txs.len()
    }

    /// Transmissions retired so far (always 0 unless
    /// [`Medium::retire_consumed`] is enabled).
    pub fn retired_tx_count(&self) -> u64 {
        self.base
    }

    fn tx(&self, abs: u64) -> &Transmission {
        &self.txs[(abs - self.base) as usize]
    }

    /// Register `source` for [`Medium::transmit_from`]. Panics past 255
    /// sources.
    pub fn add_source(&mut self, source: Arc<dyn FrameSource>) -> SourceId {
        let id =
            u8::try_from(self.sources.len() + 1).expect("a medium holds at most 255 frame sources");
        self.sources.push(source);
        SourceId(id)
    }

    /// Transmit `bytes` from `from` starting at `at`; the medium keeps
    /// a copy.
    ///
    /// Transmissions must be issued in non-decreasing start-time order
    /// (the event queue guarantees this in multi-device scenarios);
    /// issuing one earlier than the previous start panics, because
    /// collision resolution would silently miss it.
    ///
    /// Returns the end-of-frame instant. Panics on a frame longer than
    /// 65,535 bytes (no 802.11 MPDU or BLE PDU comes close).
    pub fn transmit(
        &mut self,
        from: RadioId,
        at: Instant,
        params: TxParams,
        bytes: impl AsRef<[u8]>,
    ) -> Instant {
        let bytes = bytes.as_ref();
        let len = u16::try_from(bytes.len())
            .unwrap_or_else(|_| panic!("a {}-byte frame exceeds 65,535 bytes", bytes.len()));
        self.log(from, at, params, len, Frame::Bytes(bytes))
    }

    /// [`Medium::transmit`] for the `len`-byte frame that `source`
    /// renders for `key`. The medium logs only the pair and has the
    /// source render the bytes the first time anything reads them (the
    /// first delivery, or [`Medium::transmissions`]), so a frame that
    /// nobody hears costs neither a render nor a copy. Every observable
    /// is what [`Medium::transmit`] of the rendered bytes gives.
    ///
    /// Panics if `source` was not registered with this medium.
    pub fn transmit_from(
        &mut self,
        from: RadioId,
        at: Instant,
        params: TxParams,
        source: SourceId,
        key: u64,
        len: u16,
    ) -> Instant {
        assert!(
            usize::from(source.0) <= self.sources.len(),
            "{source:?} is not registered with this medium"
        );
        self.log(from, at, params, len, Frame::Keyed(source, key))
    }

    /// Append one transmission to the log and the sender's cell list.
    fn log(
        &mut self,
        from: RadioId,
        at: Instant,
        params: TxParams,
        len: u16,
        frame: Frame<'_>,
    ) -> Instant {
        assert!(
            at >= self.last_start,
            "transmissions must be issued in time order ({at} < {})",
            self.last_start
        );
        self.last_start = at;
        let end = at + params.airtime;
        if params.airtime > self.max_airtime {
            self.max_airtime = params.airtime;
        }
        if params.power_dbm > self.max_power_dbm {
            self.max_power_dbm = params.power_dbm;
        }
        let cfg = self.radios[from.0 as usize];
        let abs = self.base + self.txs.len() as u64;
        let (source, locator) = match frame {
            Frame::Bytes(bytes) => (ARENA, self.arena.push(bytes, abs)),
            Frame::Keyed(source, key) => (source.0, key),
        };
        self.cell_txs[self.radio_cell[from.0 as usize] as usize].push(abs);
        self.txs.push(Transmission {
            from,
            channel: cfg.channel,
            source,
            len,
            start: at,
            position_m: cfg.position_m,
            params,
            locator,
            heard: OnceCell::new(),
        });
        self.tx_count += 1;
        self.counters.high_water(self.txs.len() as u64);
        end
    }

    /// Start-time floor (ns) below which a transmission cannot reach
    /// `at`: one starting at or before `at − max_airtime` has ended by
    /// `at`. `None` when the subtraction would go below zero (no lower
    /// cull is possible).
    fn reach_floor(&self, at: Instant) -> Option<u64> {
        at.as_nanos().checked_sub(self.max_airtime.as_nanos())
    }

    /// Position in `txs` of the first transmission that may still be on
    /// air at `at` (everything before it is below the reach floor).
    fn first_reaching(&self, at: Instant) -> usize {
        match self.reach_floor(at) {
            Some(floor_ns) => self.txs.partition_point(|t| t.start.as_nanos() <= floor_ns),
            None => 0,
        }
    }

    /// The distance (metres) beyond which a transmission at `power_dbm`
    /// cannot arrive at or above `sensitivity_dbm` even with maximum
    /// (+[`SHADOW_CLAMP_SIGMA`]·σ) shadowing gain. Infinite when the
    /// model cannot bound it (non-positive path-loss exponent).
    fn horizon_m(&self, power_dbm: f64, sensitivity_dbm: f64) -> f64 {
        let key = (power_dbm.to_bits(), sensitivity_dbm.to_bits());
        if let Some((last, h)) = self.last_horizon.get() {
            if last == key {
                return h;
            }
        }
        if let Some(&h) = self.horizons.borrow().get(&key) {
            self.last_horizon.set(Some((key, h)));
            return h;
        }
        let budget = power_dbm + SHADOW_CLAMP_SIGMA * self.model.shadowing_sigma_db
            - sensitivity_dbm
            - self.model.pl0_db;
        let h = if self.model.exponent > 0.0 && budget.is_finite() {
            // A hair of slack absorbs the powf↔log10 round-trip error so
            // the cull stays strictly conservative, plus the 0.1 m
            // path-loss floor.
            (10f64.powf(budget / (10.0 * self.model.exponent)) * 1.000_001).max(0.2)
        } else {
            f64::INFINITY
        };
        self.horizons.borrow_mut().insert(key, h);
        self.last_horizon.set(Some((key, h)));
        h
    }

    /// True when a transmission at `power_dbm` from position `a` is
    /// provably below `sens_dbm` at position `b`: the pair is farther
    /// apart than the sensitivity horizon. Used to skip the
    /// received-power path (and its cache insert) for pairs that could
    /// never be heard; `false` on any non-finite geometry, which safely
    /// falls through to the exact computation.
    fn beyond_horizon(&self, a: (f64, f64), b: (f64, f64), power_dbm: f64, sens_dbm: f64) -> bool {
        let h = self.horizon_m(power_dbm, sens_dbm);
        if !h.is_finite() {
            return false;
        }
        let d2 = (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2);
        d2 > h * h
    }

    /// Whether `listener` would sense the medium busy at `at` (any
    /// in-flight transmission on its channel above its sensitivity).
    ///
    /// Cost is O(log n + k) in the number of retained transmissions,
    /// where k is the overlap window — the device-side carrier-sense
    /// ramp calls this on every copy.
    pub fn is_busy(&self, listener: RadioId, at: Instant) -> bool {
        let cfg = self.radios[listener.0 as usize];
        // Active at `at` ⇔ start ≤ at < end; the log is start-ordered,
        // so the candidates sit in the (at − max_airtime, at] window.
        let lo = self.first_reaching(at);
        let hi = self.txs.partition_point(|t| t.start <= at);
        let mut links = self.links.borrow_mut();
        let row = links.entry(listener.0).or_default();
        self.txs[lo..hi].iter().any(|tx| {
            tx.channel == cfg.channel
                && at < tx.end()
                && tx.from != listener
                && !self.beyond_horizon(
                    tx.position_m,
                    cfg.position_m,
                    tx.params.power_dbm,
                    cfg.sensitivity_dbm,
                )
                && self.rx_power(tx, listener, row) >= cfg.sensitivity_dbm
        })
    }

    /// The absolute index where a cursor walk to `up_to` stops: the
    /// first transmission at or after `cursor` whose end is after
    /// `up_to` (everything before it has been consumed). Binary search
    /// on starts plus a scan bounded by `max_airtime`: a transmission
    /// starting at or before `up_to − max_airtime` has necessarily
    /// ended, and one starting after `up_to` necessarily has not.
    fn inbox_stop(&self, cursor: u64, up_to: Instant) -> u64 {
        let hi = self.base + self.txs.partition_point(|t| t.start <= up_to) as u64;
        let lo = self.base + self.first_reaching(up_to) as u64;
        let mut i = lo.max(cursor);
        while i < hi {
            if self.tx(i).end() > up_to {
                return i;
            }
            i += 1;
        }
        hi
    }

    /// Collect every frame that finished arriving at `listener` by
    /// `up_to`, applying SNR-based loss and collision capture. Frames are
    /// returned once; later calls continue where this one left off.
    ///
    /// Call this only after all transmissions starting before `up_to`
    /// have been issued, or late transmissions may miss collisions.
    pub fn take_inbox(&mut self, listener: RadioId, up_to: Instant) -> Vec<RxFrame> {
        let mut out = Vec::new();
        self.take_inbox_into(listener, up_to, &mut out);
        out
    }

    /// [`Medium::take_inbox`], appending into a caller-owned buffer —
    /// the allocation-free form for pollers that drain every few
    /// seconds for hours.
    ///
    /// The walk is spatially sharded: only transmissions from cells
    /// within the sensitivity horizon are merged (in issue order, so
    /// the frame sequence is identical to the naive full walk — every
    /// skipped transmission is provably below sensitivity), and the
    /// cursor advances to exactly where the full walk would stop.
    pub fn take_inbox_into(&mut self, listener: RadioId, up_to: Instant, out: &mut Vec<RxFrame>) {
        let r = listener.0 as usize;
        let cfg = self.radios[r];
        let (mut cursor, drained) = self.consumed(r);
        let end = self.base + self.txs.len() as u64;
        if cursor < end {
            let stop = self.inbox_stop(cursor, up_to);
            if stop > cursor {
                let mut cand = std::mem::take(&mut self.inbox_scratch);
                cand.clear();
                self.collect_audible(cfg, cursor, stop, &mut cand);
                // Each transmission lives in exactly one cell list, so
                // the sorted union is duplicate-free and issue-ordered.
                cand.sort_unstable();
                let mut links = self.links.borrow_mut();
                let row = links.entry(listener.0).or_default();
                for &i in &cand {
                    if self.tx(i).from != listener {
                        if let Some(frame) = self.receive_one(i, listener, cfg, row) {
                            out.push(frame);
                        }
                    }
                }
                drop(links);
                self.inbox_scratch = cand;
            }
            cursor = stop;
        }
        self.set_consumed(r, cursor, drained.max(up_to));
        self.maybe_retire(false);
    }

    /// Gather the `[cursor, stop)` segments of every cell list on the
    /// listener's channel within its sensitivity horizon. Cells outside
    /// the square of radius `⌊h/CELL⌋ + 1` are at least `h` metres away
    /// at their nearest corner, so nothing in them can be heard.
    fn collect_audible(&self, cfg: RadioConfig, cursor: u64, stop: u64, cand: &mut Vec<u64>) {
        let mut push_list = |idxs: &[u64]| {
            let lo = idxs.partition_point(|&i| i < cursor);
            let hi = idxs.partition_point(|&i| i < stop);
            cand.extend_from_slice(&idxs[lo..hi]);
        };
        let h = self.horizon_m(self.max_power_dbm, cfg.sensitivity_dbm);
        let r = if h.is_finite() {
            (h / CELL_M).floor() as i64 + 1
        } else {
            i64::MAX
        };
        let (ci, cj) = cell_of(cfg.position_m);
        let span = r.checked_mul(2).and_then(|d| d.checked_add(1));
        let enumerable = span
            .and_then(|s| s.checked_mul(s))
            .is_some_and(|n| n <= self.cell_slots.len() as i64);
        if enumerable {
            let r = r as i32;
            for di in -r..=r {
                for dj in -r..=r {
                    let key = (cfg.channel, ci.wrapping_add(di), cj.wrapping_add(dj));
                    if let Some(&slot) = self.cell_slots.get(&key) {
                        push_list(&self.cell_txs[slot as usize]);
                    }
                }
            }
        } else {
            // Fewer radio cells than the neighbourhood has slots: filter
            // the known cells instead of enumerating the square.
            for (&(ch, i, j), &slot) in &self.cell_slots {
                if ch == cfg.channel
                    && (i as i64 - ci as i64).abs() <= r
                    && (j as i64 - cj as i64).abs() <= r
                {
                    push_list(&self.cell_txs[slot as usize]);
                }
            }
        }
    }

    /// Declare that `listener` will never ask for frames that finished
    /// by `up_to`: advances its cursor without modelling reception, so
    /// consumed history behind it can be retired in bounded mode.
    ///
    /// Loss decisions are stateless per (transmission, receiver), so
    /// skipping them here cannot disturb any other receiver's stream.
    pub fn release(&mut self, listener: RadioId, up_to: Instant) {
        let r = listener.0 as usize;
        let (mut cursor, drained) = self.consumed(r);
        if cursor < self.base + self.txs.len() as u64 {
            cursor = self.inbox_stop(cursor, up_to);
        }
        self.set_consumed(r, cursor, drained.max(up_to));
        self.maybe_retire(false);
    }

    /// [`Medium::release`] for every attached radio at once, without
    /// touching any of them: one scan of the in-flight window instead
    /// of one scan and retirement check per radio. It raises a
    /// medium-wide floor under every cursor and drained mark, so a
    /// million-radio fleet's poll writes two words, not two million.
    ///
    /// Receivers that still want frames ending by `up_to` must drain
    /// ([`Medium::take_inbox`]) *before* this is called; afterwards that
    /// history is considered consumed for everyone.
    pub fn release_all(&mut self, up_to: Instant) {
        // The stop index is the same for every radio: the first retained
        // transmission still in flight at `up_to`. Computing it once
        // replaces the per-radio scan.
        let boundary = self.inbox_stop(self.base, up_to);
        self.floor = (self.floor.0.max(boundary), self.floor.1.max(up_to));
        self.maybe_retire(true);
    }

    /// Drop the longest prefix of transmissions that (a) every cursor
    /// has passed, (b) every receiver has drained past in time, and
    /// (c) cannot overlap any unconsumed or future transmission — so
    /// neither delivery, collision modelling, nor in-contract carrier
    /// sense can ever observe the difference.
    ///
    /// The scan is amortized: single cursor advances
    /// ([`Medium::take_inbox`], [`Medium::release`]) only trigger it
    /// once per `radios` calls, while [`Medium::release_all`] — the
    /// only operation that moves *every* cursor — forces it. The minima
    /// come from the count multisets under the floor:
    /// `min_r max(own_r, floor) = max(min_r own_r, floor)`.
    fn maybe_retire(&mut self, forced: bool) {
        if !self.bounded || self.txs.is_empty() {
            return;
        }
        self.retire_skip += 1;
        if !forced && (self.retire_skip as usize) < self.radios.len() {
            return;
        }
        self.retire_skip = 0;
        let (Some((&own_cursor, _)), Some((&own_drained, _))) = (
            self.cursor_counts.first_key_value(),
            self.drained_counts.first_key_value(),
        ) else {
            return;
        };
        let min_cursor = own_cursor.max(self.floor.0);
        let min_drained = own_drained.max(self.floor.1);
        // Anything ending after `horizon` may still interact with a
        // pending frame, a future transmission (start ≥ last_start), or
        // an allowed is_busy query (at ≥ own drained_to ≥ min_drained).
        let mut horizon = min_drained.min(self.last_start);
        if min_cursor < self.base + self.txs.len() as u64 {
            horizon = horizon.min(self.tx(min_cursor).start);
        }
        let max_pos = (min_cursor - self.base) as usize;
        let mut k = 0usize;
        while k < max_pos && self.txs[k].end() <= horizon {
            k += 1;
        }
        // Amortize the prefix drain: compact only once a meaningful
        // chunk is reclaimable.
        if k < 64 && k * 2 < self.txs.len() {
            return;
        }
        let new_base = self.base + k as u64;
        self.txs.drain(..k);
        self.base = new_base;
        self.arena.retire_before(new_base);
        for idxs in &mut self.cell_txs {
            let p = idxs.partition_point(|&i| i < new_base);
            idxs.drain(..p);
        }
    }

    /// Iterate over every *retained* transmission (for pcap export and
    /// statistics) — the full history unless
    /// [`Medium::retire_consumed`] is enabled. Yields
    /// `(from, start, end, bytes)`. A keyed frame
    /// ([`Medium::transmit_from`]) not yet heard is rendered here, once:
    /// its receivers then share those bytes.
    pub fn transmissions(&self) -> impl Iterator<Item = (RadioId, Instant, Instant, &[u8])> + '_ {
        self.txs.iter().map(|t| {
            let bytes = match t.source {
                ARENA => self.arena.get(t.locator, t.len),
                _ => &self.heard(t)[..],
            };
            (t.from, t.start, t.end(), bytes)
        })
    }

    /// `tx`'s bytes as its receivers share them, copied out of the arena
    /// or rendered by its source on the first call.
    fn heard<'a>(&'a self, tx: &'a Transmission) -> &'a Arc<[u8]> {
        tx.heard.get_or_init(|| match tx.source {
            ARENA => Arc::from(self.arena.get(tx.locator, tx.len)),
            source => {
                let mut buf = self.render_buf.borrow_mut();
                buf.clear();
                self.sources[usize::from(source) - 1].render(tx.locator, &mut buf);
                assert_eq!(
                    buf.len(),
                    usize::from(tx.len),
                    "source {source} rendered key {:#x} to a frame of another length",
                    tx.locator
                );
                Arc::from(&buf[..])
            }
        })
    }

    /// Received power for `tx` at `listener`, memoized in the
    /// listener's link row `row`.
    ///
    /// The row stores the *result of the exact original computation*
    /// keyed by the transmit power's bit pattern, so memoized and fresh
    /// values are bit-identical.
    fn rx_power(&self, tx: &Transmission, listener: RadioId, row: &mut LinkRow) -> f64 {
        let bits = tx.params.power_dbm.to_bits();
        if let Some(&(power, value)) = row.get(&tx.from.0) {
            if power == bits {
                MediumCounters::bump(&self.counters.cache_hits);
                return value;
            }
        }
        MediumCounters::bump(&self.counters.cache_misses);
        let a = tx.position_m;
        let b = self.radios[listener.0 as usize].position_m;
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        let value =
            self.model.rx_power_dbm(tx.params.power_dbm, d) + self.shadow_db(tx.from, listener);
        row.insert(tx.from.0, (bits, value));
        value
    }

    /// Static log-normal shadowing for a link: symmetric, deterministic
    /// in (seed, node pair), zero when the model's sigma is zero. This
    /// is classic block shadowing — obstacles do not move during a run.
    /// Deviates are clamped to ±[`SHADOW_CLAMP_SIGMA`]σ (see the module
    /// docs on spatial sharding).
    fn shadow_db(&self, a: RadioId, b: RadioId) -> f64 {
        let sigma = self.model.shadowing_sigma_db;
        if sigma == 0.0 {
            return 0.0;
        }
        let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let u1 = Self::unit_hash(self.seed ^ 0x5AAD_0001, lo, hi);
        let u2 = Self::unit_hash(self.seed ^ 0x5AAD_0002, lo, hi);
        // Box–Muller for a standard normal from two uniforms.
        let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        sigma * z.clamp(-SHADOW_CLAMP_SIGMA, SHADOW_CLAMP_SIGMA)
    }

    fn unit_hash(seed: u64, a: u32, b: u32) -> f64 {
        let x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(a as u64 + 1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(b as u64 + 1);
        (mix64(x) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn receive_one(
        &self,
        tx_abs: u64,
        listener: RadioId,
        cfg: RadioConfig,
        row: &mut LinkRow,
    ) -> Option<RxFrame> {
        let tx = self.tx(tx_abs);
        // The horizon precheck culls on distance alone — no cache
        // insert — and only where reception is provably impossible.
        if self.beyond_horizon(
            tx.position_m,
            cfg.position_m,
            tx.params.power_dbm,
            cfg.sensitivity_dbm,
        ) {
            MediumCounters::bump(&self.counters.culled_sensitivity);
            return None;
        }
        let rssi = self.rx_power(tx, listener, row);
        if rssi < cfg.sensitivity_dbm {
            MediumCounters::bump(&self.counters.culled_sensitivity);
            return None;
        }
        // Collision check: any other transmission overlapping in time on
        // the same channel, heard above sensitivity, within the capture
        // margin, destroys this frame at this receiver. Overlap needs
        // other.end > tx.start, so only starts after tx.start −
        // max_airtime qualify (an earlier one has end ≤ tx.start), and
        // other.start < tx.end. The log is start-ordered, so those are
        // the contiguous run of time-neighbours around `tx_abs`; it is
        // visited in issue order, as the capture rule's cache traffic
        // and early exit are order-sensitive.
        let pos = (tx_abs - self.base) as usize;
        let floor_ns = self.reach_floor(tx.start);
        let mut lo = pos;
        while lo > 0 && floor_ns.is_none_or(|f| self.txs[lo - 1].start.as_nanos() > f) {
            lo -= 1;
        }
        let tx_end = tx.end();
        let mut hi = pos + 1;
        while hi < self.txs.len() && self.txs[hi].start <= tx_end {
            hi += 1;
        }
        for (k, other) in self.txs[lo..hi].iter().enumerate() {
            if lo + k == pos || other.channel != tx.channel || other.from == listener {
                continue;
            }
            let overlaps = other.start < tx_end && tx.start < other.end();
            if !overlaps {
                continue;
            }
            // An interferer below the listener's sensitivity is ignored
            // by the capture rule anyway, so the horizon precheck here
            // is also behaviour-preserving (and keeps metro-scale
            // interferer scans out of the link cache).
            if self.beyond_horizon(
                other.position_m,
                cfg.position_m,
                other.params.power_dbm,
                cfg.sensitivity_dbm,
            ) {
                continue;
            }
            let interferer = self.rx_power(other, listener, row);
            if interferer >= cfg.sensitivity_dbm && rssi < interferer + CAPTURE_MARGIN_DB {
                MediumCounters::bump(&self.counters.collision_losses);
                return None;
            }
        }
        let snr = rssi - self.model.effective_noise_dbm();
        let per = packet_error_rate(snr, tx.params.min_snr_db, tx.len as usize);
        if self.loss_roll(tx_abs, listener) < per {
            MediumCounters::bump(&self.counters.per_losses);
            return None;
        }
        MediumCounters::bump(&self.counters.delivered);
        Some(RxFrame {
            at: tx_end,
            from: tx.from,
            rssi_dbm: rssi,
            snr_db: snr,
            bytes: Arc::clone(self.heard(tx)),
        })
    }

    /// Uniform [0,1) roll, deterministic in (seed, tx ordinal, receiver).
    /// The ordinal is the transmission's absolute issue index, so
    /// retirement never shifts the roll a frame receives.
    fn loss_roll(&self, tx_abs: u64, listener: RadioId) -> f64 {
        let x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tx_abs)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(listener.0 as u64 + 1);
        (mix64(x) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MediumStats;

    fn quiet_params() -> TxParams {
        TxParams {
            airtime: Duration::from_us(100),
            power_dbm: 0.0,
            min_snr_db: 15.0,
        }
    }

    fn two_node_medium(distance: f64) -> (Medium, RadioId, RadioId) {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let a = m.attach(RadioConfig {
            position_m: (0.0, 0.0),
            ..Default::default()
        });
        let b = m.attach(RadioConfig {
            position_m: (distance, 0.0),
            ..Default::default()
        });
        (m, a, b)
    }

    #[test]
    fn close_range_delivery() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"hello");
        let rx = m.take_inbox(b, Instant::from_secs(1));
        assert_eq!(rx.len(), 1);
        assert_eq!(&rx[0].bytes[..], b"hello");
        assert_eq!(rx[0].from, a);
        assert_eq!(rx[0].at, Instant::from_ms(1) + Duration::from_us(100));
        assert!(rx[0].snr_db > 40.0);
    }

    #[test]
    fn sender_does_not_hear_itself() {
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x");
        assert!(m.take_inbox(a, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn out_of_range_not_delivered() {
        // Default model: sensitivity -92 dBm at 0 dBm tx → ~50+ m range;
        // use 10 km to be decisively out of range.
        let (mut m, a, b) = two_node_medium(10_000.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x");
        assert!(m.take_inbox(b, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn different_channels_do_not_mix() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let a = m.attach(RadioConfig {
            channel: 1,
            ..Default::default()
        });
        let b = m.attach(RadioConfig {
            channel: 6,
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x");
        assert!(m.take_inbox(b, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn release_all_matches_per_radio_release() {
        // Same traffic through two bounded media; one releases radio by
        // radio, the other in one batch. Cursor/retirement state and the
        // frames a later drain returns must agree.
        let build = || {
            let mut m = Medium::new(ChannelModel::default(), 3);
            let radios: Vec<RadioId> = (0..4)
                .map(|i| {
                    m.attach(RadioConfig {
                        position_m: (i as f64, 0.0),
                        ..Default::default()
                    })
                })
                .collect();
            m.retire_consumed(true);
            for k in 0..200u64 {
                let from = radios[(k % 4) as usize];
                m.transmit(from, Instant::from_ms(k), quiet_params(), vec![k as u8]);
            }
            (m, radios)
        };
        let cut = Instant::from_ms(150);
        let (mut a, radios_a) = build();
        for &r in &radios_a {
            a.release(r, cut);
        }
        let (mut b, radios_b) = build();
        b.release_all(cut);
        assert_eq!(a.live_tx_count(), b.live_tx_count());
        assert_eq!(a.retired_tx_count(), b.retired_tx_count());
        assert!(b.retired_tx_count() > 0, "batch release enables retirement");
        for (&ra, &rb) in radios_a.iter().zip(&radios_b) {
            let fa = a.take_inbox(ra, Instant::from_secs(1));
            let fb = b.take_inbox(rb, Instant::from_secs(1));
            assert_eq!(fa, fb);
        }
    }

    #[test]
    fn inbox_consumes_once() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x");
        assert_eq!(m.take_inbox(b, Instant::from_secs(1)).len(), 1);
        assert!(m.take_inbox(b, Instant::from_secs(2)).is_empty());
    }

    #[test]
    fn inbox_respects_deadline() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(10), quiet_params(), b"x");
        assert!(m.take_inbox(b, Instant::from_ms(5)).is_empty());
        assert_eq!(m.take_inbox(b, Instant::from_ms(11)).len(), 1);
    }

    #[test]
    fn take_inbox_into_reuses_the_buffer() {
        let (mut m, a, b) = two_node_medium(2.0);
        let mut buf = Vec::with_capacity(16);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x");
        m.take_inbox_into(b, Instant::from_ms(5), &mut buf);
        let cap = buf.capacity();
        m.transmit(a, Instant::from_ms(10), quiet_params(), b"y");
        m.take_inbox_into(b, Instant::from_secs(1), &mut buf);
        assert_eq!(buf.len(), 2, "appends, does not replace");
        assert_eq!(buf.capacity(), cap, "no reallocation");
        assert_eq!(&buf[0].bytes[..], b"x");
        assert_eq!(&buf[1].bytes[..], b"y");
    }

    #[test]
    fn overlapping_equal_power_transmissions_collide() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let a = m.attach(RadioConfig {
            position_m: (0.0, 0.0),
            ..Default::default()
        });
        let b = m.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        let rx = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        m.transmit(a, Instant::from_us(0), quiet_params(), b"A");
        m.transmit(b, Instant::from_us(50), quiet_params(), b"B");
        // Receiver equidistant: neither captures.
        assert!(m.take_inbox(rx, Instant::from_secs(1)).is_empty());
    }

    #[test]
    fn capture_lets_much_stronger_frame_survive() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let near = m.attach(RadioConfig {
            position_m: (1.0, 0.0),
            ..Default::default()
        });
        let far = m.attach(RadioConfig {
            position_m: (40.0, 0.0),
            ..Default::default()
        });
        let rx = m.attach(RadioConfig {
            position_m: (0.0, 0.0),
            ..Default::default()
        });
        m.transmit(near, Instant::from_us(0), quiet_params(), b"N");
        m.transmit(far, Instant::from_us(50), quiet_params(), b"F");
        let frames = m.take_inbox(rx, Instant::from_secs(1));
        assert_eq!(frames.len(), 1);
        assert_eq!(&frames[0].bytes[..], b"N");
    }

    #[test]
    fn non_overlapping_sequential_frames_both_arrive() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_us(0), quiet_params(), b"1");
        m.transmit(a, Instant::from_us(200), quiet_params(), b"2");
        assert_eq!(m.take_inbox(b, Instant::from_secs(1)).len(), 2);
    }

    #[test]
    fn busy_sensing() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_us(100), quiet_params(), b"x");
        assert!(!m.is_busy(b, Instant::from_us(50)));
        assert!(m.is_busy(b, Instant::from_us(150)));
        assert!(!m.is_busy(b, Instant::from_us(250)));
        // The sender itself is not "busy" from its own frame.
        assert!(!m.is_busy(a, Instant::from_us(150)));
    }

    #[test]
    fn busy_sensing_with_mixed_airtimes() {
        // A long frame issued before several short ones must still be
        // seen by carrier sense deep into its airtime (the windowed scan
        // must use the *maximum* airtime, not the latest).
        let (mut m, a, b) = two_node_medium(2.0);
        let long = TxParams {
            airtime: Duration::from_ms(10),
            ..quiet_params()
        };
        m.transmit(a, Instant::from_us(0), long, b"long");
        for i in 0..20u64 {
            m.transmit(
                a,
                Instant::from_ms(1) + Duration::from_us(i * 110),
                quiet_params(),
                b"s",
            );
        }
        // 8 ms in: only the long frame is still on air.
        assert!(m.is_busy(b, Instant::from_ms(8)));
        assert!(!m.is_busy(b, Instant::from_ms(11)));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_transmit_panics() {
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(10), quiet_params(), vec![]);
        m.transmit(a, Instant::from_ms(5), quiet_params(), vec![]);
    }

    #[test]
    fn marginal_snr_loses_some_frames() {
        // Place the receiver where SNR ≈ the decode threshold: expect
        // partial loss, not all-or-nothing.
        let model = ChannelModel::default();
        let d = model.range_for_snr_m(0.0, 15.0);
        let mut m = Medium::new(model, 7);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig {
            position_m: (d, 0.0),
            sensitivity_dbm: -110.0,
            ..Default::default()
        });
        let mut t = Instant::ZERO;
        for _ in 0..200 {
            t = m.transmit(a, t + Duration::from_ms(1), quiet_params(), vec![0u8; 1000]);
        }
        let got = m.take_inbox(b, t + Duration::from_secs(1)).len();
        assert!(got > 20 && got < 180, "got {got}/200");
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed| {
            let model = ChannelModel::default();
            let d = model.range_for_snr_m(0.0, 15.0);
            let mut m = Medium::new(model, seed);
            let a = m.attach(RadioConfig::default());
            let b = m.attach(RadioConfig {
                position_m: (d, 0.0),
                sensitivity_dbm: -110.0,
                ..Default::default()
            });
            let mut t = Instant::ZERO;
            for _ in 0..50 {
                t = m.transmit(a, t + Duration::from_ms(1), quiet_params(), vec![0u8; 1000]);
            }
            m.take_inbox(b, t + Duration::from_secs(1))
                .iter()
                .map(|f| f.at.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn shadowing_is_deterministic_symmetric_and_off_by_default() {
        let shadowed = ChannelModel {
            shadowing_sigma_db: 8.0,
            ..Default::default()
        };
        let mut m = Medium::new(shadowed, 5);
        let a = m.attach(RadioConfig::default());
        let b = m.attach(RadioConfig {
            position_m: (10.0, 0.0),
            ..Default::default()
        });
        let c = m.attach(RadioConfig {
            position_m: (0.0, 10.0),
            ..Default::default()
        });
        let p = quiet_params();
        m.transmit(a, Instant::from_us(0), p, b"1");
        m.transmit(b, Instant::from_ms(1), p, b"2");
        m.transmit(a, Instant::from_ms(2), p, b"3");

        let at_b: Vec<f64> = m
            .take_inbox(b, Instant::from_secs(1))
            .iter()
            .map(|f| f.rssi_dbm)
            .collect();
        let at_c: Vec<f64> = m
            .take_inbox(c, Instant::from_secs(1))
            .iter()
            .map(|f| f.rssi_dbm)
            .collect();
        // Same link, same static shadow: frames 1 and 3 at B identical.
        assert_eq!(at_b.len(), 2);
        assert!((at_b[0] - at_b[1]).abs() < 1e-9);
        // B→A shadow equals A→B shadow (symmetry): the rssi C measured
        // from A differs from B's (different links, different shadows)…
        assert!(!at_c.is_empty());
        assert_ne!(at_b[0], at_c[0]);
        // …despite equal geometric distance (10 m both ways).
        let plain = Medium::new(ChannelModel::default(), 5);
        let _ = plain; // zero-sigma medium applies no shadow at all:
        let mut m0 = Medium::new(ChannelModel::default(), 5);
        let a0 = m0.attach(RadioConfig::default());
        let b0 = m0.attach(RadioConfig {
            position_m: (10.0, 0.0),
            ..Default::default()
        });
        m0.transmit(a0, Instant::from_us(0), p, b"1");
        let rssi = m0.take_inbox(b0, Instant::from_secs(1))[0].rssi_dbm;
        let want = ChannelModel::default().rx_power_dbm(0.0, 10.0);
        assert!((rssi - want).abs() < 1e-9);
    }

    #[test]
    fn shadow_deviates_are_clamped() {
        // Sweep many links: no shadow may exceed the clamp.
        let sigma = 6.0;
        let m = Medium::new(
            ChannelModel {
                shadowing_sigma_db: sigma,
                ..Default::default()
            },
            11,
        );
        for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let s = m.shadow_db(RadioId(a), RadioId(b));
                assert!(
                    s.abs() <= SHADOW_CLAMP_SIGMA * sigma + 1e-9,
                    "shadow {s} exceeds clamp for link ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn horizon_cull_never_drops_an_audible_frame() {
        // A multi-cell spiral of senders from well inside to well
        // outside the sensitivity horizon of a −20 dBm transmission
        // (~74 m under the default model): the sharded drain must
        // deliver exactly what the naive full walk delivers, while the
        // distance cull demonstrably fires for the far senders.
        let model = ChannelModel {
            shadowing_sigma_db: 6.0,
            ..Default::default()
        };
        let mut m = Medium::new(model, 21);
        let mut naive = crate::naive::NaiveMedium::new(model, 21);
        let gw_cfg = RadioConfig {
            position_m: (500.0, 500.0),
            sensitivity_dbm: -92.0,
            ..Default::default()
        };
        let gw = m.attach(gw_cfg);
        let gw_n = naive.attach(gw_cfg);
        let p = TxParams {
            airtime: Duration::from_us(100),
            power_dbm: -20.0,
            min_snr_db: 4.0,
        };
        for i in 0..64u64 {
            let ang = i as f64 * std::f64::consts::TAU / 64.0;
            let r = 5.0 + i as f64 * 12.0;
            let cfg = RadioConfig {
                position_m: (500.0 + r * ang.cos(), 500.0 + r * ang.sin()),
                ..Default::default()
            };
            let s = m.attach(cfg);
            let s_n = naive.attach(cfg);
            m.transmit(s, Instant::from_ms(i), p, vec![i as u8]);
            naive.transmit(s_n, Instant::from_ms(i), p, vec![i as u8]);
        }
        let got = m.take_inbox(gw, Instant::from_secs(10));
        let want = naive.take_inbox(gw_n, Instant::from_secs(10));
        assert_eq!(got, want);
        assert!(!got.is_empty(), "some close senders must be audible");
        // The cull actually fired: distant spiral members were skipped
        // without ever touching the link cache.
        assert!(m.stats().culled_sensitivity > 0);
        assert!(got.len() < 64, "far senders must be below sensitivity");
    }

    #[test]
    fn tx_count_and_transmissions_iterator() {
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit(a, Instant::ZERO, quiet_params(), b"x");
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"y");
        assert_eq!(m.tx_count(), 2);
        let all: Vec<_> = m.transmissions().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].3, b"y");
    }

    #[test]
    fn bounded_mode_retires_consumed_history() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.retire_consumed(true);
        let mut t = Instant::ZERO;
        for i in 0..5_000u64 {
            t = m.transmit(a, Instant::from_ms(i), quiet_params(), vec![0u8; 64]);
            if i % 100 == 99 {
                m.take_inbox(b, t);
                m.release(a, t);
            }
        }
        m.take_inbox(b, t + Duration::from_secs(1));
        m.release(a, t + Duration::from_secs(1));
        assert_eq!(m.tx_count(), 5_000);
        assert!(
            m.live_tx_count() < 300,
            "history not reclaimed: {} live",
            m.live_tx_count()
        );
        assert!(m.retired_tx_count() > 4_000);
    }

    #[test]
    fn bounded_mode_is_behaviour_identical() {
        // Same workload, bounded vs unbounded: identical delivery, and
        // identical loss pattern (ordinal-keyed rolls survive
        // retirement).
        let run = |bounded: bool| {
            let model = ChannelModel::default();
            let d = model.range_for_snr_m(0.0, 15.0);
            let mut m = Medium::new(model, 9);
            m.retire_consumed(bounded);
            let a = m.attach(RadioConfig::default());
            let b = m.attach(RadioConfig {
                position_m: (d, 0.0),
                sensitivity_dbm: -110.0,
                ..Default::default()
            });
            let mut got = Vec::new();
            let mut t = Instant::ZERO;
            for i in 0..500u64 {
                t = m.transmit(a, Instant::from_ms(i), quiet_params(), vec![0u8; 1000]);
                if i % 10 == 9 {
                    got.extend(m.take_inbox(b, t));
                    m.release(a, t);
                }
            }
            got.extend(m.take_inbox(b, t + Duration::from_secs(1)));
            got
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn release_skips_without_delivering() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), b"x");
        m.release(b, Instant::from_secs(1));
        // The frame was passed over, not queued.
        assert!(m.take_inbox(b, Instant::from_secs(2)).is_empty());
    }

    /// A frame of `len` bytes that differs from every other test frame.
    fn patterned(k: usize, len: usize) -> Vec<u8> {
        (0..len).map(|i| (k * 31 + i * 7) as u8).collect()
    }

    /// The largest 802.11 MPDU (VHT), in bytes.
    const MAX_MPDU: usize = 11_454;

    #[test]
    fn mixed_frame_sizes_cross_chunk_boundaries_intact() {
        let (mut m, a, b) = two_node_medium(2.0);
        let sizes = [1, 700, 5_000, 9_000, MAX_MPDU, 0, 3, 16_000, 8_193];
        let frames: Vec<Vec<u8>> = (0..40)
            .map(|k| patterned(k, sizes[k % sizes.len()]))
            .collect();
        for (k, f) in frames.iter().enumerate() {
            m.transmit(a, Instant::from_ms(k as u64), quiet_params(), f);
        }
        assert!(m.arena.chunks.len() > 10, "the frames span many chunks");
        let logged: Vec<&[u8]> = m.transmissions().map(|t| t.3).collect();
        assert_eq!(logged, frames.iter().map(|f| &f[..]).collect::<Vec<_>>());
        let heard = m.take_inbox(b, Instant::from_secs(1));
        assert_eq!(heard.len(), frames.len());
        for (rx, f) in heard.iter().zip(&frames) {
            assert_eq!(&rx.bytes[..], &f[..]);
        }
    }

    #[test]
    fn largest_mpdu_fits_one_chunk_and_longer_frames_get_their_own() {
        let (mut m, a, b) = two_node_medium(2.0);
        let big = patterned(1, MAX_MPDU);
        m.transmit(a, Instant::from_ms(1), quiet_params(), &big);
        assert_eq!(m.arena.chunks.len(), 1);
        // Longer than a chunk: one exact-size allocation, and the frame
        // after it starts a fresh chunk.
        let huge = patterned(2, 40_000);
        let tail = patterned(3, 10);
        m.transmit(a, Instant::from_ms(2), quiet_params(), &huge);
        m.transmit(a, Instant::from_ms(3), quiet_params(), &tail);
        let heard = m.take_inbox(b, Instant::from_secs(1));
        let got: Vec<&[u8]> = heard.iter().map(|f| &f.bytes[..]).collect();
        assert_eq!(got, [&big[..], &huge[..], &tail[..]]);
        let logged: Vec<&[u8]> = m.transmissions().map(|t| t.3).collect();
        assert_eq!(logged, got);
    }

    #[test]
    #[should_panic(expected = "exceeds 65,535 bytes")]
    fn frames_longer_than_a_u16_length_are_refused() {
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_ms(1), quiet_params(), vec![0u8; 65_536]);
    }

    #[test]
    fn retirement_mid_chunk_keeps_the_retained_suffix() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.retire_consumed(true);
        // 1,000-byte frames: 16 to a chunk, so frame 137 sits mid-chunk.
        let frames: Vec<Vec<u8>> = (0..200).map(|k| patterned(k, 1_000)).collect();
        for (k, f) in frames.iter().enumerate() {
            m.transmit(a, Instant::from_ms(k as u64), quiet_params(), f);
        }
        let chunks = m.arena.chunks.len();
        m.release_all(Instant::from_ms(137));
        assert_eq!(m.retired_tx_count(), 137);
        let logged: Vec<&[u8]> = m.transmissions().map(|t| t.3).collect();
        assert_eq!(
            logged,
            frames[137..].iter().map(|f| &f[..]).collect::<Vec<_>>()
        );
        assert_eq!(m.arena.chunks.len(), chunks - 137 / 16);
        // The freed chunks are reused, not reallocated.
        let spare = m.arena.spare.len();
        assert_eq!(spare, 137 / 16);
        for k in 200..240 {
            m.transmit(
                a,
                Instant::from_ms(k),
                quiet_params(),
                patterned(k as usize, 1_000),
            );
        }
        assert!(m.arena.spare.len() < spare);
        let heard = m.take_inbox(b, Instant::from_secs(1));
        assert_eq!(heard.len(), 103);
        assert_eq!(&heard[0].bytes[..], &frames[137][..]);
        assert_eq!(&heard[102].bytes[..], &patterned(239, 1_000)[..]);
    }

    #[test]
    fn corrupting_a_shared_first_hear_copies_on_write() {
        use crate::fault::FaultOutcome;
        use crate::plan::{Disturbance, FaultPhase, FaultPlan, FaultTimeline};

        let mut m = Medium::new(ChannelModel::default(), 1);
        let tx = m.attach(RadioConfig::default());
        let ears: Vec<RadioId> = (1..=3)
            .map(|i| {
                m.attach(RadioConfig {
                    position_m: (i as f64, 0.0),
                    ..Default::default()
                })
            })
            .collect();
        let frame = patterned(5, 64);
        m.transmit(tx, Instant::from_ms(1), quiet_params(), &frame);
        let mut heard: Vec<RxFrame> = ears
            .iter()
            .map(|&r| m.take_inbox(r, Instant::from_secs(1)).remove(0))
            .collect();
        // One copy out of the arena, shared by every receiver.
        assert!(Arc::ptr_eq(&heard[0].bytes, &heard[1].bytes));
        assert!(Arc::ptr_eq(&heard[0].bytes, &heard[2].bytes));
        let mut faults = FaultTimeline::new(FaultPlan::new(
            vec![FaultPhase::new(
                Instant::ZERO,
                Instant::from_secs(10),
                Disturbance::Interferer {
                    period: Duration::from_ms(100),
                    airtime: Duration::from_ms(100),
                    corrupt_octets: 8,
                },
                "always on",
            )],
            4,
        ));
        let at = heard[0].at;
        assert_eq!(
            faults.apply_shared(at, &mut heard[0].bytes),
            FaultOutcome::Corrupted
        );
        assert_ne!(&heard[0].bytes[..], &frame[..]);
        assert!(!Arc::ptr_eq(&heard[0].bytes, &heard[1].bytes));
        for other in &heard[1..] {
            assert_eq!(&other.bytes[..], &frame[..]);
        }
        assert_eq!(m.transmissions().next().unwrap().3, &frame[..]);
    }

    /// A source whose frame for key `k` is `k`'s eight little-endian
    /// bytes, counting its renders.
    #[derive(Debug, Default)]
    struct Counting {
        renders: std::sync::atomic::AtomicU64,
    }

    impl Counting {
        fn renders(&self) -> u64 {
            self.renders.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl FrameSource for Counting {
        fn render(&self, key: u64, out: &mut Vec<u8>) {
            self.renders
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            out.extend_from_slice(&key.to_le_bytes());
        }
    }

    /// `m` with a [`Counting`] source registered.
    fn counted(m: &mut Medium) -> (Arc<Counting>, SourceId) {
        let source = Arc::new(Counting::default());
        let id = m.add_source(source.clone());
        (source, id)
    }

    #[test]
    fn a_keyed_frame_nobody_hears_is_never_rendered() {
        let (mut m, a, b) = two_node_medium(10_000.0);
        m.retire_consumed(true);
        let (source, id) = counted(&mut m);
        for k in 0..100u64 {
            m.transmit_from(a, Instant::from_ms(k), quiet_params(), id, k, 8);
        }
        assert!(m.take_inbox(b, Instant::from_secs(1)).is_empty());
        m.release_all(Instant::from_secs(1));
        assert!(m.retired_tx_count() > 0);
        assert_eq!(source.renders(), 0);
    }

    #[test]
    fn a_keyed_frame_heard_by_n_listeners_is_rendered_once() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let (source, id) = counted(&mut m);
        let tx = m.attach(RadioConfig::default());
        let ears: Vec<RadioId> = (1..=4)
            .map(|i| {
                m.attach(RadioConfig {
                    position_m: (i as f64, 0.0),
                    ..Default::default()
                })
            })
            .collect();
        m.transmit_from(tx, Instant::from_ms(1), quiet_params(), id, 0xC0FFEE, 8);
        let heard: Vec<RxFrame> = ears
            .iter()
            .map(|&r| m.take_inbox(r, Instant::from_secs(1)).remove(0))
            .collect();
        assert_eq!(source.renders(), 1);
        assert_eq!(&heard[0].bytes[..], 0xC0FFEE_u64.to_le_bytes());
        for rx in &heard[1..] {
            assert!(Arc::ptr_eq(&heard[0].bytes, &rx.bytes));
        }
        // The log reads the same render.
        assert_eq!(m.transmissions().next().unwrap().3, &heard[0].bytes[..]);
        assert_eq!(source.renders(), 1);
    }

    #[test]
    fn transmissions_renders_each_keyed_frame_at_most_once() {
        let (mut m, a, b) = two_node_medium(2.0);
        let (source, id) = counted(&mut m);
        m.transmit_from(a, Instant::from_ms(1), quiet_params(), id, 1, 8);
        m.transmit(a, Instant::from_ms(2), quiet_params(), b"copied");
        m.transmit_from(a, Instant::from_ms(3), quiet_params(), id, 3, 8);
        // The first frame is heard before the log is read.
        assert_eq!(m.take_inbox(b, Instant::from_ms(2)).len(), 1);
        assert_eq!(source.renders(), 1);
        for _ in 0..3 {
            let logged: Vec<&[u8]> = m.transmissions().map(|t| t.3).collect();
            assert_eq!(
                logged,
                [&1u64.to_le_bytes()[..], b"copied", &3u64.to_le_bytes()[..]]
            );
        }
        assert_eq!(source.renders(), 2);
        // A delivery after the log was read shares its render.
        let rest = m.take_inbox(b, Instant::from_secs(1));
        assert_eq!(rest.len(), 2);
        assert_eq!(&rest[1].bytes[..], 3u64.to_le_bytes());
        assert_eq!(source.renders(), 2);
    }

    #[test]
    fn arena_chunks_retire_behind_the_oldest_retained_copied_frame() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.retire_consumed(true);
        let (_source, id) = counted(&mut m);
        // 1,000-byte copied frames (16 to a chunk), each followed by
        // two keyed ones, so copied frame j has log index 3j.
        let frames: Vec<Vec<u8>> = (0..100).map(|k| patterned(k, 1_000)).collect();
        for (j, f) in frames.iter().enumerate() {
            let t = Instant::from_ms(3 * j as u64);
            m.transmit(a, t, quiet_params(), f);
            for k in 1..3 {
                let key = (3 * j + k) as u64;
                m.transmit_from(
                    a,
                    t + Duration::from_us(k as u64 * 200),
                    quiet_params(),
                    id,
                    key,
                    8,
                );
            }
        }
        let chunks = m.arena.chunks.len();
        assert_eq!(chunks, 100usize.div_ceil(16));
        // Retire through log index 101: copied frames 0–33 go, so the
        // two chunks holding frames 0–31 are freed and the one holding
        // 32–47 stays.
        m.release_all(Instant::from_us(99_600));
        assert_eq!(m.retired_tx_count(), 102);
        assert_eq!(m.arena.chunks.len(), chunks - 2);
        let logged: Vec<&[u8]> = m.transmissions().map(|t| t.3).collect();
        assert_eq!(logged[0], &frames[34][..]);
        // Retiring all but the last (keyed) frame frees every chunk but
        // the one the next copied frame would extend.
        m.release_all(Instant::from_secs(1));
        assert_eq!(m.live_tx_count(), 1);
        assert_eq!(m.arena.chunks.len(), 1);
        m.transmit(a, Instant::from_secs(2), quiet_params(), &frames[0]);
        let heard = m.take_inbox(b, Instant::from_secs(3));
        assert_eq!(&heard[0].bytes[..], &frames[0][..]);
    }

    #[test]
    #[should_panic(expected = "another length")]
    fn a_render_of_another_length_is_refused() {
        let (mut m, a, b) = two_node_medium(2.0);
        let (_source, id) = counted(&mut m);
        m.transmit_from(a, Instant::from_ms(1), quiet_params(), id, 7, 9);
        m.take_inbox(b, Instant::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn a_source_of_another_medium_is_refused() {
        let (mut other, _, _) = two_node_medium(2.0);
        let (_source, id) = counted(&mut other);
        let (mut m, a, _b) = two_node_medium(2.0);
        m.transmit_from(a, Instant::from_ms(1), quiet_params(), id, 7, 8);
    }

    #[test]
    fn the_medium_can_move_between_threads() {
        fn send<T: Send>() {}
        send::<Medium>();
    }

    /// The memoized `(power bits, dBm)` slot `listener` holds for
    /// `sender`, if any.
    fn slot(m: &Medium, listener: RadioId, sender: RadioId) -> Option<(u64, f64)> {
        m.links.borrow().get(&listener.0)?.get(&sender.0).copied()
    }

    #[test]
    fn a_new_transmit_power_replaces_the_link_slot_and_counts_a_miss() {
        let (mut m, a, b) = two_node_medium(2.0);
        let loud = quiet_params();
        let soft = TxParams {
            power_dbm: -5.0,
            ..quiet_params()
        };
        let mut misses = Vec::new();
        for (k, p) in [loud, loud, soft, soft, loud].into_iter().enumerate() {
            m.transmit(a, Instant::from_ms(k as u64), p, b"x");
            assert_eq!(m.take_inbox(b, Instant::from_ms(k as u64 + 1)).len(), 1);
            misses.push(m.stats().cache_misses);
            let (bits, _) = slot(&m, b, a).expect("the drain cached the link");
            assert_eq!(bits, p.power_dbm.to_bits(), "frame {k}");
        }
        // One slot per link: each power change evicts the other power.
        assert_eq!(misses, [1, 1, 2, 2, 3]);
        assert_eq!(m.stats().cache_hits, 2);
        assert_eq!(m.links.borrow()[&b.0].len(), 1);
    }

    #[test]
    fn carrier_sense_warms_the_row_a_later_drain_hits() {
        let (mut m, a, b) = two_node_medium(2.0);
        m.transmit(a, Instant::from_us(100), quiet_params(), b"x");
        assert!(m.is_busy(b, Instant::from_us(150)));
        let sensed = m.stats();
        assert_eq!((sensed.cache_hits, sensed.cache_misses), (0, 1));
        let (_, dbm) = slot(&m, b, a).expect("carrier sense cached the link");
        let rx = m.take_inbox(b, Instant::from_secs(1));
        assert_eq!(rx.len(), 1);
        assert_eq!(rx[0].rssi_dbm.to_bits(), dbm.to_bits());
        let drained = m.stats();
        assert_eq!((drained.cache_hits, drained.cache_misses), (1, 1));
    }

    #[test]
    fn listeners_of_one_sender_keep_separate_slots() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let tx = m.attach(RadioConfig::default());
        let near = m.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        let far = m.attach(RadioConfig {
            position_m: (0.0, 9.0),
            ..Default::default()
        });
        for k in 0..3 {
            m.transmit(tx, Instant::from_ms(k), quiet_params(), b"x");
        }
        let at_near = m.take_inbox(near, Instant::from_secs(1));
        let at_far = m.take_inbox(far, Instant::from_secs(1));
        assert_eq!((at_near.len(), at_far.len()), (3, 3));
        let stats = m.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (4, 2));
        let (_, near_dbm) = slot(&m, near, tx).expect("near row");
        let (_, far_dbm) = slot(&m, far, tx).expect("far row");
        assert_eq!(near_dbm, at_near[0].rssi_dbm);
        assert_eq!(far_dbm, at_far[0].rssi_dbm);
        assert!(near_dbm > far_dbm);
        // Neither listener's row holds the other's link.
        assert_eq!(slot(&m, near, far), None);
        assert_eq!(slot(&m, far, near), None);
    }

    #[test]
    fn stats_of_a_fixed_world_are_pinned() {
        // Three listeners amid 24 shadowed senders on a 12 m grid, each
        // sending every 2 ms with overlapping airtimes at one of two
        // powers; bounded, with a drain, carrier sense and a release
        // every 10 ms. Every tally, link-cache hits and misses included,
        // is part of the medium's observable output.
        let model = ChannelModel {
            shadowing_sigma_db: 6.0,
            ..Default::default()
        };
        let mut m = Medium::new(model, 42);
        m.retire_consumed(true);
        let ears: Vec<RadioId> = [(30.0, 30.0), (60.0, 30.0), (45.0, 60.0)]
            .into_iter()
            .map(|position_m| {
                m.attach(RadioConfig {
                    position_m,
                    ..Default::default()
                })
            })
            .collect();
        let senders: Vec<RadioId> = (0..24)
            .map(|k| {
                m.attach(RadioConfig {
                    position_m: ((k % 6) as f64 * 12.0 + 15.0, (k / 6) as f64 * 12.0 + 20.0),
                    ..Default::default()
                })
            })
            .collect();
        let mut out = Vec::new();
        for step in 0..200usize {
            let at = Instant::from_us(step as u64 * 2_000);
            for (k, &s) in senders.iter().enumerate() {
                if (k + step) % 5 != 0 {
                    continue;
                }
                let power_dbm = if (k + step) % 3 == 0 { -6.0 } else { 0.0 };
                let p = TxParams {
                    airtime: Duration::from_us(300),
                    power_dbm,
                    min_snr_db: 10.0,
                };
                m.transmit(s, at + Duration::from_us(k as u64 * 20), p, b"pinned");
            }
            if step % 5 == 4 {
                let up_to = at + Duration::from_ms(1);
                for &e in &ears {
                    m.is_busy(e, up_to);
                    m.take_inbox_into(e, up_to, &mut out);
                }
                m.release_all(up_to);
            }
        }
        assert_eq!(
            m.stats(),
            MediumStats {
                tx_attempts: 960,
                culled_sensitivity: 719,
                collision_losses: 1_789,
                per_losses: 30,
                delivered: 342,
                cache_hits: 4_187,
                cache_misses: 1_944,
                retained_high_water: 27,
            }
        );
        assert_eq!(out.len() as u64, m.stats().delivered);
    }
}
