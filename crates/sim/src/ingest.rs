//! First-class gateway ingest stage.
//!
//! Every scenario that models channel faults does it the same way:
//! frames are pulled raw off the medium, run through the seeded
//! [`FaultTimeline`] keyed by their arrival instant, and only survivors
//! reach [`Gateway::ingest`]. [`GatewayIngest`] is the one shared
//! implementation of that pipeline: the fleet and campaign gateways,
//! every `wile-cluster` lane, and the `wile-gatewayd` replay core all
//! run it.

use wile::monitor::{Gateway, Received};
use wile_mac::{MacProtocol, McpsDataIndication};
use wile_radio::fault::FaultOutcome;
use wile_radio::medium::{Medium, RadioId, RxFrame};
use wile_radio::plan::FaultTimeline;
use wile_radio::time::Instant;

/// A gateway bound to its radio, draining through the fault timeline.
#[derive(Debug)]
pub struct GatewayIngest {
    radio: RadioId,
    gateway: Gateway,
}

impl GatewayIngest {
    /// Bind `gateway` to the medium radio it listens on.
    pub fn new(radio: RadioId, gateway: Gateway) -> Self {
        GatewayIngest { radio, gateway }
    }

    /// The gateway's radio id.
    pub fn radio(&self) -> RadioId {
        self.radio
    }

    /// The wrapped gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Mutable access to the wrapped gateway (link health, stats).
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// Pull raw frames that arrived by `up_to` from the gateway radio,
    /// apply the fault timeline (outage ⇒ skip, drop ⇒ skip, corruption
    /// ⇒ pass through mutated — the gateway's FCS check is the
    /// component under test for those), and feed survivors through the
    /// gateway pipeline. Returns newly delivered messages.
    pub fn drain(
        &mut self,
        medium: &mut Medium,
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
    ) -> Vec<Received> {
        let frames = medium.take_inbox(self.radio, up_to);
        self.ingest_when(frames, faults, |_| true)
    }

    /// [`drain`](GatewayIngest::drain), with every delivery lifted into
    /// an MCPS-DATA.indication — the gateway-side face of the MAC
    /// service layer (`wile-mac`). Counts are identical to `drain`'s;
    /// the lift moves payloads, it never copies or filters.
    pub fn drain_indications(
        &mut self,
        medium: &mut Medium,
        faults: Option<&mut FaultTimeline>,
        up_to: Instant,
    ) -> Vec<McpsDataIndication> {
        self.drain(medium, faults, up_to)
            .into_iter()
            .map(|r| McpsDataIndication::from_received(MacProtocol::Wile, r))
            .collect()
    }

    /// Apply a per-frame admission predicate and the air-side fault
    /// timeline to frames the *caller* sourced — a radio inbox
    /// (`Medium::take_inbox`), a staged replay buffer, a socket, a
    /// capture file — and feed survivors through the gateway pipeline,
    /// one at a time (nothing is collected in between, so a poll
    /// allocates only its deliveries list).
    /// [`drain`](GatewayIngest::drain) is exactly `take_inbox` + this
    /// with an always-true predicate, so a replayed frame takes the
    /// byte-identical code path a simulated one does.
    ///
    /// `admit` is consulted with each frame's arrival instant *before*
    /// the fault timeline. Frames it rejects are discarded — exactly
    /// like an air-side outage, they never reach the pipeline and
    /// never count as pipeline state. This is the hook the cluster
    /// layer uses to model a crashed gateway process: its radio keeps
    /// receiving, but nothing behind it is alive to look.
    pub fn ingest_when(
        &mut self,
        frames: impl IntoIterator<Item = RxFrame>,
        mut faults: Option<&mut FaultTimeline>,
        mut admit: impl FnMut(Instant) -> bool,
    ) -> Vec<Received> {
        let survivors = frames.into_iter().filter_map(|mut f| {
            if !admit(f.at) {
                return None;
            }
            if let Some(tl) = faults.as_deref_mut() {
                if tl.gateway_down(f.at)
                    || tl.apply_shared(f.at, &mut f.bytes) == FaultOutcome::Dropped
                {
                    return None;
                }
            }
            Some(f)
        });
        self.gateway.ingest(survivors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile::inject::Injector;
    use wile::registry::DeviceIdentity;
    use wile_radio::medium::RadioConfig;
    use wile_radio::plan::{Disturbance, FaultPhase, FaultPlan};

    fn world() -> (Medium, RadioId, RadioId) {
        let mut medium = Medium::new(Default::default(), 11);
        let gw = medium.attach(RadioConfig::default());
        let dev = medium.attach(RadioConfig {
            position_m: (2.0, 0.0),
            ..Default::default()
        });
        (medium, gw, dev)
    }

    #[test]
    fn faultless_drain_delivers() {
        let (mut medium, gw, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"reading");
        let mut ingest = GatewayIngest::new(gw, Gateway::new());
        let got = ingest.drain(&mut medium, None, Instant::from_secs(2));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].device_id, 5);
    }

    #[test]
    fn outage_swallows_frames() {
        let (mut medium, gw, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        inj.inject(&mut medium, dev, b"reading");
        // The beacon lands ~480 ms in; a 0–10 s outage covers it.
        let plan = FaultPlan::new(
            vec![FaultPhase::new(
                Instant::ZERO,
                Instant::from_secs(10),
                Disturbance::GatewayOutage,
                "reboot",
            )],
            3,
        );
        let mut tl = FaultTimeline::new(plan);
        let mut ingest = GatewayIngest::new(gw, Gateway::new());
        let got = ingest.drain(&mut medium, Some(&mut tl), Instant::from_secs(2));
        assert!(got.is_empty());
        // Frames consumed during the outage are gone, not deferred.
        let later = ingest.drain(&mut medium, Some(&mut tl), Instant::from_secs(20));
        assert!(later.is_empty());
    }

    #[test]
    fn gateway_indications_preserve_drain_counts() {
        // The gateway-side face of the MAC service layer: every
        // delivery lifts into one MCPS-DATA.indication, in order, with
        // nothing filtered or duplicated.
        use wile_mac::MacProtocol;
        let (mut medium, gw, dev) = world();
        let mut inj = Injector::new(DeviceIdentity::new(5), Instant::ZERO);
        for _ in 0..3 {
            inj.inject(&mut medium, dev, b"reading");
        }
        let mut ingest = GatewayIngest::new(gw, Gateway::new());
        let got = ingest.drain_indications(&mut medium, None, Instant::from_secs(30));
        assert_eq!(got.len(), 3);
        for ind in &got {
            assert_eq!(ind.protocol, MacProtocol::Wile);
            assert_eq!(ind.device_id, 5);
            assert_eq!(ind.payload, b"reading");
        }
        let seqs: Vec<u16> = got.iter().map(|i| i.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
