//! Minimal libpcap writer (the classic microsecond format), so anything
//! the simulated medium carried can be opened in Wireshark — the same
//! debugging loop the smoltcp examples provide with `--pcap`.

use crate::medium::Medium;
use crate::time::Instant;
use std::io::{self, Write};

/// DLT for raw IEEE 802.11 frames (no radiotap header).
pub const LINKTYPE_IEEE802_11: u32 = 105;
/// DLT for Bluetooth LE link-layer (with pseudo-header — we omit it and
/// use this constant only as a tag; Wireshark decodes the 802.11 dumps,
/// BLE dumps are for byte-level inspection).
pub const LINKTYPE_BLUETOOTH_LE_LL: u32 = 251;

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    sink: W,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header for the given link type.
    pub fn new(mut sink: W, linktype: u32) -> io::Result<Self> {
        sink.write_all(&0xA1B2_C3D4u32.to_le_bytes())?; // magic
        sink.write_all(&2u16.to_le_bytes())?; // major
        sink.write_all(&4u16.to_le_bytes())?; // minor
        sink.write_all(&0u32.to_le_bytes())?; // thiszone
        sink.write_all(&0u32.to_le_bytes())?; // sigfigs
        sink.write_all(&65_535u32.to_le_bytes())?; // snaplen
        sink.write_all(&linktype.to_le_bytes())?;
        Ok(PcapWriter { sink })
    }

    /// Append one frame captured at virtual time `at`.
    pub fn write_frame(&mut self, at: Instant, frame: &[u8]) -> io::Result<()> {
        let us = at.as_us();
        self.sink
            .write_all(&((us / 1_000_000) as u32).to_le_bytes())?;
        self.sink
            .write_all(&((us % 1_000_000) as u32).to_le_bytes())?;
        self.sink.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.sink.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.sink.write_all(frame)?;
        Ok(())
    }

    /// Flush and recover the sink.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Dump every transmission a medium carried into a pcap byte buffer.
pub fn dump_medium(medium: &Medium) -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new(), LINKTYPE_IEEE802_11).expect("vec write");
    for (_, start, _, bytes) in medium.transmissions() {
        w.write_frame(start, &bytes).expect("vec write");
    }
    w.into_inner().expect("vec flush")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelModel;
    use crate::medium::{RadioConfig, TxParams};
    use crate::time::Duration;

    #[test]
    fn global_header_layout() {
        let w = PcapWriter::new(Vec::new(), LINKTYPE_IEEE802_11).unwrap();
        let bytes = w.into_inner().unwrap();
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xA1B2_C3D4u32.to_le_bytes());
        assert_eq!(&bytes[20..24], &105u32.to_le_bytes());
    }

    #[test]
    fn frame_record_layout() {
        let mut w = PcapWriter::new(Vec::new(), LINKTYPE_IEEE802_11).unwrap();
        w.write_frame(Instant::from_secs_f64(1.5), b"abcd").unwrap();
        let bytes = w.into_inner().unwrap();
        let rec = &bytes[24..];
        assert_eq!(&rec[0..4], &1u32.to_le_bytes()); // seconds
        assert_eq!(&rec[4..8], &500_000u32.to_le_bytes()); // microseconds
        assert_eq!(&rec[8..12], &4u32.to_le_bytes()); // caplen
        assert_eq!(&rec[12..16], &4u32.to_le_bytes()); // origlen
        assert_eq!(&rec[16..], b"abcd");
    }

    #[test]
    fn dump_medium_contains_all_frames() {
        let mut m = Medium::new(ChannelModel::default(), 1);
        let a = m.attach(RadioConfig::default());
        let p = TxParams {
            airtime: Duration::from_us(10),
            power_dbm: 0.0,
            min_snr_db: 5.0,
        };
        m.transmit(a, Instant::from_ms(1), p, b"one");
        m.transmit(a, Instant::from_ms(2), p, b"two!");
        let pcap = dump_medium(&m);
        // 24 header + (16+3) + (16+4).
        assert_eq!(pcap.len(), 24 + 19 + 20);
    }
}
