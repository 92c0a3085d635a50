//! Advertising-event scheduling.
//!
//! The spec requires each advertising event to start `advInterval +
//! advDelay` after the previous one, where advDelay is a fresh
//! pseudo-random 0–10 ms — BLE's built-in mechanism for the same
//! collision-decorrelation that §6 of the paper attributes to clock
//! jitter in Wi-LE.

use crate::channel::ADV_CHANNELS;
use crate::pdu::AdvPdu;
use wile_radio::time::{Duration, Instant};

/// Maximum advDelay, per the spec.
pub(crate) const ADV_DELAY_MAX: Duration = Duration::from_ms(10);

/// One scheduled transmission: when, and on which advertising channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledTx {
    /// Start of the PDU on air.
    pub at: Instant,
    /// Advertising channel index (37, 38 or 39).
    pub channel: u8,
    /// The complete air bytes.
    pub air_bytes: Vec<u8>,
}

/// Deterministic advertising-event scheduler.
#[derive(Debug, Clone)]
pub struct Advertiser {
    interval: Duration,
    next_event: Instant,
    rng_state: u64,
    /// Gap between the three per-event channel transmissions (radio
    /// retune time).
    hop_gap: Duration,
}

impl Advertiser {
    /// An advertiser with the given nominal interval, seeded for
    /// reproducible advDelay draws.
    pub fn new(start: Instant, interval: Duration, seed: u64) -> Self {
        assert!(interval >= Duration::from_ms(20), "advInterval >= 20 ms");
        Advertiser {
            interval,
            next_event: start,
            rng_state: seed | 1,
            hop_gap: Duration::from_us(400),
        }
    }

    fn next_delay(&mut self) -> Duration {
        // xorshift64* — deterministic, dependency-free.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
        Duration::from_us(r % (ADV_DELAY_MAX.as_us() + 1))
    }

    /// Produce the transmissions of the next advertising event for
    /// `pdu`, advancing the schedule.
    pub fn next_event(&mut self, pdu: &AdvPdu) -> Vec<ScheduledTx> {
        let mut at = self.next_event;
        let mut out = Vec::with_capacity(3);
        for &ch in &ADV_CHANNELS {
            let air = pdu.to_air_bytes(ch);
            let dur = Duration::from_us(air.len() as u64 * 8);
            out.push(ScheduledTx {
                at,
                channel: ch,
                air_bytes: air,
            });
            at += dur + self.hop_gap;
        }
        self.next_event = self.next_event + self.interval + self.next_delay();
        out
    }

    /// When the next event will begin.
    pub fn next_event_at(&self) -> Instant {
        self.next_event
    }

    /// Push the next event back to `t` (no-op if it is already later).
    ///
    /// The spec's advDelay already lets an event slip; this is the same
    /// liberty taken deliberately, for callers whose radio is blocked —
    /// e.g. a shared-medium driver deferring behind another protocol's
    /// in-flight exchange. Later events reschedule from the deferred
    /// start, so the train never produces a transmission in the past.
    pub fn defer_to(&mut self, t: Instant) {
        if self.next_event < t {
            self.next_event = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::BleAddr;

    fn pdu() -> AdvPdu {
        AdvPdu::nonconn(BleAddr::random_static(1), b"data")
    }

    #[test]
    fn event_covers_three_channels_in_order() {
        let mut adv = Advertiser::new(Instant::ZERO, Duration::from_ms(100), 42);
        let txs = adv.next_event(&pdu());
        assert_eq!(txs.len(), 3);
        assert_eq!(
            txs.iter().map(|t| t.channel).collect::<Vec<_>>(),
            vec![37, 38, 39]
        );
        assert!(txs[0].at < txs[1].at && txs[1].at < txs[2].at);
    }

    #[test]
    fn intervals_include_bounded_delay() {
        let mut adv = Advertiser::new(Instant::ZERO, Duration::from_ms(100), 42);
        let mut last = Instant::ZERO;
        for i in 0..200 {
            let txs = adv.next_event(&pdu());
            if i > 0 {
                let gap = txs[0].at.since(last);
                assert!(gap >= Duration::from_ms(100), "gap {gap}");
                assert!(gap <= Duration::from_ms(110), "gap {gap}");
            }
            last = txs[0].at;
        }
    }

    #[test]
    fn delay_actually_varies() {
        let mut adv = Advertiser::new(Instant::ZERO, Duration::from_ms(100), 42);
        let mut gaps = std::collections::HashSet::new();
        let mut last = Instant::ZERO;
        for i in 0..50 {
            let txs = adv.next_event(&pdu());
            if i > 0 {
                gaps.insert(txs[0].at.since(last).as_us());
            }
            last = txs[0].at;
        }
        assert!(gaps.len() > 10, "only {} distinct gaps", gaps.len());
    }

    #[test]
    fn seeded_reproducibility() {
        let run = |seed| {
            let mut adv = Advertiser::new(Instant::ZERO, Duration::from_ms(100), seed);
            (0..20)
                .map(|_| adv.next_event(&pdu())[0].at.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn air_bytes_decode_per_channel() {
        let mut adv = Advertiser::new(Instant::ZERO, Duration::from_ms(100), 1);
        for tx in adv.next_event(&pdu()) {
            let back = AdvPdu::from_air_bytes(&tx.air_bytes, tx.channel).unwrap();
            assert_eq!(back.adv_data, b"data");
        }
    }

    #[test]
    #[should_panic(expected = "advInterval")]
    fn tiny_interval_rejected() {
        Advertiser::new(Instant::ZERO, Duration::from_ms(5), 0);
    }
}
