//! [`BeaconFleet`]: the transmit-only fleet of §5.4 precomputed
//! beacons.

use std::sync::Arc;

use crate::sap::AirCtx;
use wile::beacon::BeaconTemplate;
use wile_dot11::mac::SeqControl;
use wile_dot11::phy::{frame_airtime_us, PhyRate};
use wile_dot11::MacAddr;
use wile_radio::medium::{FrameSource, Medium, RadioId, SourceId, TxParams};
use wile_radio::time::{Duration, Instant};

/// A fleet of periodic transmit-only Wi-LE beacons sharing one
/// [`BeaconTemplate`].
///
/// §5.4: "The content of the packet including all of headers can be
/// pre-computed and then only the IoT device's data needs to be
/// inserted into the packet." A fleet beacon is fully determined by
/// the device id and its sequence number, so the fleet registers the
/// one template with the medium as a [`FrameSource`] and a wake
/// transmits only the key `device_id << 16 | seq`: the medium renders
/// the beacon (identity, sequence number, FCS) the first time a
/// receiver hears it, and never renders one that nobody hears. The
/// per-device state a wake touches (radio, id, sequence number, sent
/// tally) lives in parallel vectors indexed by the device ordinal, so
/// at a million devices a wake is a few dense array reads, not a boxed
/// actor each.
///
/// Fleet devices only transmit: there is no receive window, no
/// MLME-WAKE, and no per-device power trace (callers attribute energy
/// in closed form). Every device sends [`BeaconFleet::READING`] at
/// 0 dBm.
pub struct BeaconFleet {
    /// The template's registration with the fleet's medium.
    source: SourceId,
    /// Every beacon's length; the template fixes it.
    frame_len: u16,
    /// Every beacon's transmit parameters.
    params: TxParams,
    radios: Vec<RadioId>,
    device_ids: Vec<u32>,
    seqs: Vec<u16>,
    sent: Vec<u32>,
    period: Duration,
    end: Instant,
}

impl BeaconFleet {
    /// The reading every fleet device sends: eight zero bytes.
    pub const READING: [u8; 8] = [0; 8];

    /// An empty fleet transmitting on `medium`, whose devices wake
    /// every `period` up to and including `end`; add devices with
    /// [`BeaconFleet::push_device`]. Registers the fleet's template
    /// with `medium`, so every wake must transmit on that medium.
    pub fn new(medium: &mut Medium, period: Duration, end: Instant) -> Self {
        let template = BeaconTemplate::new(MacAddr::from_device_id(0), 0, Self::READING.len())
            .expect("the reading fits one fragment");
        let frame_len = template.frame_len();
        BeaconFleet {
            source: medium.add_source(Arc::new(FleetFrames(template))),
            frame_len: u16::try_from(frame_len).expect("a one-fragment beacon is short"),
            params: TxParams {
                airtime: Duration::from_us(frame_airtime_us(PhyRate::WILE_PAPER, frame_len)),
                power_dbm: 0.0,
                min_snr_db: PhyRate::WILE_PAPER.min_snr_db(),
            },
            radios: Vec::new(),
            device_ids: Vec::new(),
            seqs: Vec::new(),
            sent: Vec::new(),
            period,
            end,
        }
    }

    /// Add a device transmitting as `device_id` (with the address
    /// `DeviceIdentity::new(device_id)` gives it) on `radio`; returns
    /// its ordinal.
    pub fn push_device(&mut self, device_id: u32, radio: RadioId) -> u32 {
        self.radios.push(radio);
        self.device_ids.push(device_id);
        self.seqs.push(0);
        self.sent.push(0);
        self.radios.len() as u32 - 1
    }

    /// Device `device` wakes at `air.now` and transmits one beacon: one
    /// MCPS-DATA request and confirm in telemetry, with the
    /// `mac.request` span closed at the frame's on-air end. Returns the
    /// device's next wake, `now + period`, while that is not past the
    /// fleet's end.
    pub fn wake(&mut self, air: &mut AirCtx<'_>, device: u32) -> Option<Instant> {
        air.begin("mac.mcps_data.request");
        let i = device as usize;
        let seq = self.seqs[i];
        air.medium.transmit_from(
            self.radios[i],
            air.now,
            self.params,
            self.source,
            FleetFrames::key(self.device_ids[i], seq),
            self.frame_len,
        );
        self.seqs[i] = seq.wrapping_add(1);
        self.sent[i] += 1;
        air.finish("mac.mcps_data.confirm", air.now + self.params.airtime);
        let next = air.now + self.period;
        (next <= self.end).then_some(next)
    }

    /// The fleet's first-wake train for `Kernel::schedule_batch`: device
    /// `i` first wakes at `start + i × stagger`, with wakes spread
    /// uniformly across one period from 500 ms on so the fleet's load
    /// is uniform, not phase-locked.
    ///
    /// Panics on an empty fleet.
    pub fn wake_train(&self) -> (Instant, Duration) {
        let stagger_ns = self.period.as_nanos() / self.radios.len() as u64;
        (Instant::from_ms(500), Duration::from_nanos(stagger_ns))
    }

    /// Beacons sent across the fleet.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().map(|&s| s as u64).sum()
    }
}

/// The fleet's template as the medium's [`FrameSource`]: key
/// [`FleetFrames::key`]`(device_id, seq)` renders that device's
/// `seq`-th beacon.
#[derive(Debug)]
struct FleetFrames(BeaconTemplate);

impl FleetFrames {
    fn key(device_id: u32, seq: u16) -> u64 {
        u64::from(device_id) << 16 | u64::from(seq)
    }
}

impl FrameSource for FleetFrames {
    fn render(&self, key: u64, out: &mut Vec<u8>) {
        let seq = key as u16;
        self.0.render_as(
            (key >> 16) as u32,
            seq,
            SeqControl::new(seq & 0x0FFF, 0),
            &BeaconFleet::READING,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile::registry::DeviceIdentity;
    use wile_radio::medium::{Medium, RadioConfig};
    use wile_telemetry::Telemetry;

    #[test]
    fn wake_matches_a_per_device_template_byte_for_byte() {
        let identity = DeviceIdentity::new(3);
        let at = Instant::from_ms(500);

        // Direct render-and-transmit from a per-device template.
        let mut m_direct = Medium::new(Default::default(), 3);
        let r = m_direct.attach(RadioConfig::default());
        let mut tpl = BeaconTemplate::new(identity.mac, 3, 8).unwrap();
        let frame = tpl.render(0, SeqControl::new(0, 0), &[0u8; 8]);
        let airtime = Duration::from_us(frame_airtime_us(PhyRate::WILE_PAPER, frame.len()));
        m_direct.transmit(
            r,
            at,
            TxParams {
                airtime,
                power_dbm: 0.0,
                min_snr_db: PhyRate::WILE_PAPER.min_snr_db(),
            },
            frame,
        );

        // The fleet's wake.
        let mut m_fleet = Medium::new(Default::default(), 3);
        let r2 = m_fleet.attach(RadioConfig::default());
        let mut fleet = BeaconFleet::new(
            &mut m_fleet,
            Duration::from_secs(60),
            Instant::from_secs(3_600),
        );
        let dev = fleet.push_device(3, r2);
        let mut tel = Telemetry::off();
        let mut air = AirCtx::bare(&mut m_fleet, at, &mut tel);
        let next = fleet.wake(&mut air, dev);

        let direct: Vec<_> = m_direct.transmissions().collect();
        let woken: Vec<_> = m_fleet.transmissions().collect();
        assert_eq!(direct[0].3, woken[0].3);
        assert_eq!(direct[0].1, woken[0].1);
        assert_eq!(next, Some(at + Duration::from_secs(60)));
        assert_eq!(fleet.total_sent(), 1);
    }

    #[test]
    fn wakes_stop_at_the_end_and_count_one_request_and_confirm_each() {
        let mut m = Medium::new(Default::default(), 3);
        let mut fleet = BeaconFleet::new(&mut m, Duration::from_secs(10), Instant::from_secs(25));
        let dev = fleet.push_device(1, m.attach(RadioConfig::default()));
        let mut tel = Telemetry::new();
        let mut now = Instant::from_secs(5);
        let mut wakes = 0;
        loop {
            wakes += 1;
            let mut air = AirCtx::bare(&mut m, now, &mut tel);
            match fleet.wake(&mut air, dev) {
                Some(next) => now = next,
                None => break,
            }
        }
        // Wakes at 5, 15 and 25 s (the end itself is included); the
        // next one, 35 s, is past the end.
        assert_eq!((wakes, fleet.total_sent()), (3, 3));
        for name in ["mac.mcps_data.request", "mac.mcps_data.confirm"] {
            assert_eq!(tel.registry().counter(name, &[]), Some(3), "{name}");
        }
    }
}
