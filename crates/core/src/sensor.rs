//! Compact binary codecs for typical IoT readings.
//!
//! The paper's motivating device is "a battery-powered wireless
//! temperature sensor which … periodically wakes up (e.g., every 10
//! minutes) to send its temperature reading". These codecs keep such
//! readings to a handful of bytes so a Wi-LE beacon stays small (and
//! its airtime — hence energy — minimal).

/// A sensor reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reading {
    /// Temperature in centi-degrees Celsius (−327.68 … +327.67 °C).
    TemperatureCentiC(i16),
    /// Relative humidity in tenths of a percent (0 … 1000).
    HumidityPerMille(u16),
    /// Battery voltage in millivolts.
    BatteryMv(u16),
    /// An application-defined counter.
    Counter(u32),
}

impl Reading {
    /// Type tag on the wire.
    fn tag(&self) -> u8 {
        match self {
            Reading::TemperatureCentiC(_) => 1,
            Reading::HumidityPerMille(_) => 2,
            Reading::BatteryMv(_) => 3,
            Reading::Counter(_) => 4,
        }
    }

    /// Append to a buffer (tag + fixed-width value).
    pub(crate) fn push(&self, out: &mut Vec<u8>) {
        out.push(self.tag());
        match self {
            Reading::TemperatureCentiC(v) => out.extend_from_slice(&v.to_be_bytes()),
            Reading::HumidityPerMille(v) => out.extend_from_slice(&v.to_be_bytes()),
            Reading::BatteryMv(v) => out.extend_from_slice(&v.to_be_bytes()),
            Reading::Counter(v) => out.extend_from_slice(&v.to_be_bytes()),
        }
    }

    /// Parse one reading; returns it and the remaining bytes.
    pub(crate) fn parse(b: &[u8]) -> Option<(Reading, &[u8])> {
        let (&tag, rest) = b.split_first()?;
        Some(match tag {
            1 if rest.len() >= 2 => (
                Reading::TemperatureCentiC(i16::from_be_bytes([rest[0], rest[1]])),
                &rest[2..],
            ),
            2 if rest.len() >= 2 => (
                Reading::HumidityPerMille(u16::from_be_bytes([rest[0], rest[1]])),
                &rest[2..],
            ),
            3 if rest.len() >= 2 => (
                Reading::BatteryMv(u16::from_be_bytes([rest[0], rest[1]])),
                &rest[2..],
            ),
            4 if rest.len() >= 4 => (
                Reading::Counter(u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]])),
                &rest[4..],
            ),
            _ => return None,
        })
    }
}

/// Encode a set of readings into one payload.
pub fn encode_readings(readings: &[Reading]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in readings {
        r.push(&mut out);
    }
    out
}

/// Decode all readings; `None` on any malformation.
pub fn decode_readings(mut b: &[u8]) -> Option<Vec<Reading>> {
    let mut out = Vec::new();
    while !b.is_empty() {
        let (r, rest) = Reading::parse(b)?;
        out.push(r);
        b = rest;
    }
    Some(out)
}

impl core::fmt::Display for Reading {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Reading::TemperatureCentiC(v) => write!(f, "{:.2} °C", *v as f64 / 100.0),
            Reading::HumidityPerMille(v) => write!(f, "{:.1} %RH", *v as f64 / 10.0),
            Reading::BatteryMv(v) => write!(f, "{:.3} V", *v as f64 / 1000.0),
            Reading::Counter(v) => write!(f, "count={v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_kinds() {
        let rs = [
            Reading::TemperatureCentiC(2150),
            Reading::HumidityPerMille(483),
            Reading::BatteryMv(2987),
            Reading::Counter(123_456),
        ];
        let bytes = encode_readings(&rs);
        assert_eq!(bytes.len(), 3 + 3 + 3 + 5);
        assert_eq!(decode_readings(&bytes).unwrap(), rs);
    }

    #[test]
    fn negative_temperature() {
        let bytes = encode_readings(&[Reading::TemperatureCentiC(-1043)]);
        assert_eq!(
            decode_readings(&bytes).unwrap(),
            [Reading::TemperatureCentiC(-1043)]
        );
    }

    #[test]
    fn typical_sensor_message_is_tiny() {
        // Temperature + battery: 6 bytes — fits one Wi-LE fragment with
        // room to spare, keeping beacon airtime minimal.
        let bytes = encode_readings(&[Reading::TemperatureCentiC(2150), Reading::BatteryMv(3001)]);
        assert_eq!(bytes.len(), 6);
        assert!(bytes.len() < crate::encode::FRAGMENT_CAPACITY);
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode_readings(&[1, 0]).is_none()); // truncated value
        assert!(decode_readings(&[99, 0, 0]).is_none()); // unknown tag
        assert_eq!(decode_readings(&[]).unwrap(), []);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reading::TemperatureCentiC(2150).to_string(), "21.50 °C");
        assert_eq!(Reading::HumidityPerMille(483).to_string(), "48.3 %RH");
        assert_eq!(Reading::BatteryMv(2987).to_string(), "2.987 V");
        assert_eq!(Reading::Counter(7).to_string(), "count=7");
    }
}
