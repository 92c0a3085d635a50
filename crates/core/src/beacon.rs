//! Building the fake beacons Wi-LE injects.
//!
//! Two paths:
//!
//! * [`build_wile_beacon`] — the straightforward builder;
//! * [`BeaconTemplate`] — the §5.4 optimization: "The content of the
//!   packet including all of headers can be pre-computed and then only
//!   the IoT device's data needs to be inserted into the packet." The
//!   template is built once; per transmission only the payload bytes,
//!   sequence number and FCS are patched. The codec benchmark measures
//!   the speedup. Devices' frames differ only in those fields and the
//!   identity ones (source address, BSSID, header device id), so one
//!   template serves a whole fleet: [`BeaconTemplate::render_as`]
//!   renders any device's frame from the unchanged template into a
//!   caller's buffer. Because that render needs nothing but the
//!   device id and the sequence number, a simulated fleet need not
//!   render at all when it transmits: `wile_mac::BeaconFleet` hands
//!   the template to the medium, which renders a beacon only if some
//!   receiver hears it.

use crate::encode::{encode_fragments, EncodeError};
use crate::message::Message;
use crate::{VTYPE_DATA, WILE_OUI};
use wile_dot11::fcs;
use wile_dot11::ie;
use wile_dot11::mac::SeqControl;
use wile_dot11::mgmt::{Beacon, BeaconBuilder};
use wile_dot11::MacAddr;

/// Build a complete Wi-LE beacon MPDU for `msg`: hidden SSID, one
/// vendor IE per fragment, broadcast receiver.
pub fn build_wile_beacon(
    source: MacAddr,
    msg: &Message,
    seq: SeqControl,
    timestamp_us: u64,
) -> Result<Vec<u8>, EncodeError> {
    let frags = encode_fragments(msg)?;
    let mut b = BeaconBuilder::new(source)
        .timestamp(timestamp_us)
        .seq(seq)
        .hidden_ssid()
        .supported_rates(&[0x82, 0x84, 0x8B, 0x96]);
    for f in &frags {
        b = b.vendor_specific(WILE_OUI, VTYPE_DATA, f);
    }
    Ok(b.build())
}

/// A precomputed beacon whose payload region is patched in place.
///
/// Fixed-capacity: the template reserves space for a single fragment of
/// exactly `capacity` payload bytes; every [`BeaconTemplate::render`]
/// must supply that many. Devices with variable readings pad to a fixed
/// size — which is also the privacy-preserving choice.
#[derive(Debug, Clone)]
pub struct BeaconTemplate {
    buf: Vec<u8>,
    /// Offset of the 8-byte fragment header inside `buf`.
    header_off: usize,
    capacity: usize,
}

impl BeaconTemplate {
    /// Precompute a template for `capacity`-byte payloads from
    /// `source` / `device_id`.
    pub fn new(source: MacAddr, device_id: u32, capacity: usize) -> Result<Self, EncodeError> {
        let msg = Message::new(device_id, 0, &vec![0u8; capacity]);
        let frame = build_wile_beacon(source, &msg, SeqControl::new(0, 0), 0)?;
        // Locate the vendor IE: scan the body for our OUI/vtype.
        let body = &frame[24 + 12..frame.len() - 4];
        let mut header_off = None;
        for el in ie::Elements::new(body) {
            let el = el.expect("frame we just built");
            if el.id == ie::ElementId::VendorSpecific {
                // el.data starts at some offset inside body; compute it.
                let data_start = el.data.as_ptr() as usize - body.as_ptr() as usize;
                header_off = Some(24 + 12 + data_start + 4); // skip OUI + vtype
                break;
            }
        }
        Ok(BeaconTemplate {
            buf: frame,
            header_off: header_off.expect("vendor IE present"),
            capacity,
        })
    }

    /// The payload capacity the template was built for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The length of every frame the template renders, FCS included.
    pub fn frame_len(&self) -> usize {
        self.buf.len()
    }

    /// Patch in a new reading and return the finished MPDU, borrowed
    /// from the template buffer: rendering allocates nothing, and the
    /// frame is valid until the next render.
    ///
    /// Panics if `payload.len() != capacity` — the template's length
    /// fields are fixed.
    pub fn render(&mut self, seq: u16, mac_seq: SeqControl, payload: &[u8]) -> &[u8] {
        patch(
            &mut self.buf,
            self.header_off,
            self.capacity,
            seq,
            mac_seq,
            payload,
        );
        &self.buf
    }

    /// Append to `out` the frame [`BeaconTemplate::render`] would give
    /// for device `device_id`, as sent from the address
    /// [`MacAddr::from_device_id`] gives it (what `DeviceIdentity::new`
    /// uses). The frame is byte-identical to one from a template built
    /// for that identity; the template itself is left as it is.
    ///
    /// Panics if `payload.len() != capacity`.
    pub fn render_as(
        &self,
        device_id: u32,
        seq: u16,
        mac_seq: SeqControl,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.extend_from_slice(&self.buf);
        let frame = &mut out[start..];
        let mac = MacAddr::from_device_id(device_id).octets();
        // addr2 (source) and addr3 (BSSID) of the management header.
        frame[10..16].copy_from_slice(&mac);
        frame[16..22].copy_from_slice(&mac);
        // Fragment header: the device id lives at header_off+1..5.
        frame[self.header_off + 1..self.header_off + 5].copy_from_slice(&device_id.to_be_bytes());
        patch(frame, self.header_off, self.capacity, seq, mac_seq, payload);
    }
}

/// Patch a reading into `frame`, a copy of a template whose fragment
/// header sits at `header_off`: the MAC sequence control, the fragment
/// sequence number and the `capacity`-byte payload, then the FCS.
fn patch(
    frame: &mut [u8],
    header_off: usize,
    capacity: usize,
    seq: u16,
    mac_seq: SeqControl,
    payload: &[u8],
) {
    assert_eq!(payload.len(), capacity, "template capacity is fixed");
    // MAC sequence control at offset 22.
    frame[22..24].copy_from_slice(&mac_seq.to_le_bytes());
    // Fragment header: seq lives at header_off+5..7.
    frame[header_off + 5..header_off + 7].copy_from_slice(&seq.to_be_bytes());
    // Payload right after the 8-byte header.
    let p = header_off + crate::message::HEADER_LEN;
    frame[p..p + capacity].copy_from_slice(payload);
    // Refresh the FCS.
    let len = frame.len();
    let crc = fcs::crc32(&frame[..len - 4]);
    frame[len - 4..].copy_from_slice(&crc.to_le_bytes());
}

/// Extract all Wi-LE data-IE payloads from a (possibly foreign) beacon.
pub fn wile_fragments<'a>(beacon: &'a Beacon<&'a [u8]>) -> Vec<&'a [u8]> {
    wile_fragment_payloads(beacon).collect()
}

/// The Wi-LE data-IE payloads of a (possibly foreign) beacon, in IE
/// order, walked lazily — [`wile_fragments`] without the `Vec`.
pub fn wile_fragment_payloads<'a>(
    beacon: &'a Beacon<&'a [u8]>,
) -> impl Iterator<Item = &'a [u8]> + 'a {
    ie::vendor_elements(beacon.elements(), WILE_OUI, VTYPE_DATA).map(|v| v.payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode_fragments;

    fn dev_mac() -> MacAddr {
        MacAddr::from_device_id(7)
    }

    #[test]
    fn built_beacon_is_valid_and_hidden() {
        let msg = Message::new(7, 3, b"t=20.1C");
        let frame = build_wile_beacon(dev_mac(), &msg, SeqControl::new(3, 0), 999).unwrap();
        assert!(fcs::check_fcs(&frame));
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert!(b.is_hidden_ssid());
        assert!(b.header().addr1().is_broadcast());
        assert_eq!(b.timestamp(), 999);
    }

    #[test]
    fn fragments_decode_back_to_message() {
        let payload: Vec<u8> = (0..600).map(|i| i as u8).collect();
        let msg = Message::new(7, 3, &payload);
        let frame = build_wile_beacon(dev_mac(), &msg, SeqControl::new(0, 0), 0).unwrap();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        let frags = wile_fragments(&b);
        assert_eq!(frags.len(), 3);
        let back = decode_fragments(frags.into_iter()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn template_render_matches_fresh_build() {
        let mut tpl = BeaconTemplate::new(dev_mac(), 7, 8).unwrap();
        let rendered = tpl.render(42, SeqControl::new(5, 0), b"ABCDEFGH");
        let fresh = build_wile_beacon(
            dev_mac(),
            &Message::new(7, 42, b"ABCDEFGH"),
            SeqControl::new(5, 0),
            0,
        )
        .unwrap();
        assert_eq!(rendered, &fresh[..]);
    }

    #[test]
    fn shared_template_renders_any_device() {
        // One template rendered for device after device, back and forth,
        // must match a template built for each identity, and a render
        // appends after what the buffer already holds.
        let shared = BeaconTemplate::new(MacAddr::from_device_id(0), 0, 4).unwrap();
        let mut out = b"kept".to_vec();
        for &id in &[7u32, 1, u32::MAX, 7] {
            let mut own = BeaconTemplate::new(MacAddr::from_device_id(id), id, 4).unwrap();
            let want = own.render(9, SeqControl::new(9, 0), b"abcd");
            out.truncate(4);
            shared.render_as(id, 9, SeqControl::new(9, 0), b"abcd", &mut out);
            assert_eq!(&out[..4], b"kept");
            assert_eq!(&out[4..], want);
            assert_eq!(out.len() - 4, shared.frame_len());
        }
    }

    #[test]
    fn template_renders_are_independent() {
        let mut tpl = BeaconTemplate::new(dev_mac(), 7, 4).unwrap();
        let a = tpl.render(1, SeqControl::new(1, 0), b"aaaa").to_vec();
        let b = tpl.render(2, SeqControl::new(2, 0), b"bbbb").to_vec();
        assert_ne!(a, b);
        assert!(fcs::check_fcs(&a));
        assert!(fcs::check_fcs(&b));
        // Both parse with the right payloads.
        let bb = Beacon::new_checked(&b[..]).unwrap();
        let back = decode_fragments(wile_fragments(&bb).into_iter()).unwrap();
        assert_eq!(back.payload, b"bbbb");
        assert_eq!(back.seq, 2);
    }

    #[test]
    #[should_panic(expected = "capacity is fixed")]
    fn template_wrong_size_panics() {
        let mut tpl = BeaconTemplate::new(dev_mac(), 7, 4).unwrap();
        tpl.render(1, SeqControl::new(1, 0), b"toolong");
    }

    #[test]
    fn foreign_beacons_have_no_fragments() {
        let frame = BeaconBuilder::new(MacAddr::new([9; 6]))
            .ssid(b"HomeNet")
            .build();
        let b = Beacon::new_checked(&frame[..]).unwrap();
        assert!(wile_fragments(&b).is_empty());
    }

    #[test]
    fn beacon_size_scales_with_payload() {
        let small = build_wile_beacon(
            dev_mac(),
            &Message::new(1, 1, b"x"),
            SeqControl::new(0, 0),
            0,
        )
        .unwrap();
        let big = build_wile_beacon(
            dev_mac(),
            &Message::new(1, 1, &[0; 200]),
            SeqControl::new(0, 0),
            0,
        )
        .unwrap();
        assert!(big.len() > small.len());
        // A one-byte-payload Wi-LE beacon is ~60-70 bytes on air.
        assert!(small.len() < 80, "{}", small.len());
    }
}
