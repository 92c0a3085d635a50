//! The 16-bit frame control field at the start of every 802.11 frame.

use crate::error::{Error, Result};

/// The four top-level 802.11 frame types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Management frames: beacons, probes, authentication, association…
    Management,
    /// Control frames: ACK, RTS, CTS, PS-Poll…
    Control,
    /// Data frames (including QoS data and null data).
    Data,
    /// 802.11ad+ extension frames (not used here, parsed for completeness).
    Extension,
}

impl FrameType {
    /// Wire encoding (bits 2–3 of frame control).
    pub(crate) fn to_bits(self) -> u16 {
        match self {
            FrameType::Management => 0,
            FrameType::Control => 1,
            FrameType::Data => 2,
            FrameType::Extension => 3,
        }
    }

    /// Decode from bits 2–3 of frame control.
    pub(crate) fn from_bits(bits: u16) -> Self {
        match bits & 0b11 {
            0 => FrameType::Management,
            1 => FrameType::Control,
            2 => FrameType::Data,
            _ => FrameType::Extension,
        }
    }
}

/// Management frame subtypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MgmtSubtype {
    AssocReq,
    AssocResp,
    ReassocReq,
    ReassocResp,
    ProbeReq,
    ProbeResp,
    TimingAdvertisement,
    Beacon,
    Atim,
    Disassoc,
    Auth,
    Deauth,
    Action,
    ActionNoAck,
}

impl MgmtSubtype {
    /// Wire encoding (bits 4–7 of frame control).
    pub(crate) fn to_bits(self) -> u16 {
        match self {
            MgmtSubtype::AssocReq => 0,
            MgmtSubtype::AssocResp => 1,
            MgmtSubtype::ReassocReq => 2,
            MgmtSubtype::ReassocResp => 3,
            MgmtSubtype::ProbeReq => 4,
            MgmtSubtype::ProbeResp => 5,
            MgmtSubtype::TimingAdvertisement => 6,
            MgmtSubtype::Beacon => 8,
            MgmtSubtype::Atim => 9,
            MgmtSubtype::Disassoc => 10,
            MgmtSubtype::Auth => 11,
            MgmtSubtype::Deauth => 12,
            MgmtSubtype::Action => 13,
            MgmtSubtype::ActionNoAck => 14,
        }
    }

    /// Decode from bits 4–7 of frame control.
    pub(crate) fn from_bits(bits: u16) -> Result<Self> {
        Ok(match bits & 0b1111 {
            0 => MgmtSubtype::AssocReq,
            1 => MgmtSubtype::AssocResp,
            2 => MgmtSubtype::ReassocReq,
            3 => MgmtSubtype::ReassocResp,
            4 => MgmtSubtype::ProbeReq,
            5 => MgmtSubtype::ProbeResp,
            6 => MgmtSubtype::TimingAdvertisement,
            8 => MgmtSubtype::Beacon,
            9 => MgmtSubtype::Atim,
            10 => MgmtSubtype::Disassoc,
            11 => MgmtSubtype::Auth,
            12 => MgmtSubtype::Deauth,
            13 => MgmtSubtype::Action,
            14 => MgmtSubtype::ActionNoAck,
            _ => return Err(Error::BadValue),
        })
    }
}

/// Control frame subtypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CtrlSubtype {
    BlockAckReq,
    BlockAck,
    PsPoll,
    Rts,
    Cts,
    Ack,
    CfEnd,
    CfEndCfAck,
}

impl CtrlSubtype {
    /// Wire encoding (bits 4–7 of frame control).
    pub(crate) fn to_bits(self) -> u16 {
        match self {
            CtrlSubtype::BlockAckReq => 8,
            CtrlSubtype::BlockAck => 9,
            CtrlSubtype::PsPoll => 10,
            CtrlSubtype::Rts => 11,
            CtrlSubtype::Cts => 12,
            CtrlSubtype::Ack => 13,
            CtrlSubtype::CfEnd => 14,
            CtrlSubtype::CfEndCfAck => 15,
        }
    }

    /// Decode from bits 4–7 of frame control.
    pub(crate) fn from_bits(bits: u16) -> Result<Self> {
        Ok(match bits & 0b1111 {
            8 => CtrlSubtype::BlockAckReq,
            9 => CtrlSubtype::BlockAck,
            10 => CtrlSubtype::PsPoll,
            11 => CtrlSubtype::Rts,
            12 => CtrlSubtype::Cts,
            13 => CtrlSubtype::Ack,
            14 => CtrlSubtype::CfEnd,
            15 => CtrlSubtype::CfEndCfAck,
            _ => return Err(Error::BadValue),
        })
    }
}

/// Data frame subtypes (the subset in use plus null frames, which the
/// 802.11 power-save protocol uses to signal sleep transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DataSubtype {
    Data,
    Null,
    QosData,
    QosNull,
}

impl DataSubtype {
    /// Wire encoding (bits 4–7 of frame control).
    pub(crate) fn to_bits(self) -> u16 {
        match self {
            DataSubtype::Data => 0,
            DataSubtype::Null => 4,
            DataSubtype::QosData => 8,
            DataSubtype::QosNull => 12,
        }
    }

    /// Decode from bits 4–7 of frame control.
    pub(crate) fn from_bits(bits: u16) -> Result<Self> {
        Ok(match bits & 0b1111 {
            0 => DataSubtype::Data,
            4 => DataSubtype::Null,
            8 => DataSubtype::QosData,
            12 => DataSubtype::QosNull,
            _ => return Err(Error::BadValue),
        })
    }

    /// True for subtypes that carry no frame body.
    pub(crate) fn is_null(self) -> bool {
        matches!(self, DataSubtype::Null | DataSubtype::QosNull)
    }
}

/// Decoded view of the 16-bit frame control field.
///
/// Stored in wire byte order internally; accessors decode on demand.
///
/// ```
/// use wile_dot11::mac::{FrameControl, FrameType, MgmtSubtype};
/// let fc = FrameControl::mgmt(MgmtSubtype::Beacon);
/// assert_eq!(fc.frame_type(), FrameType::Management);
/// assert_eq!(fc.mgmt_subtype().unwrap(), MgmtSubtype::Beacon);
/// assert_eq!(fc.to_le_bytes(), [0x80, 0x00]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameControl(pub u16);

impl FrameControl {
    /// Build a management frame control word with all flags clear.
    pub fn mgmt(subtype: MgmtSubtype) -> Self {
        FrameControl((FrameType::Management.to_bits() << 2) | (subtype.to_bits() << 4))
    }

    /// Build a control frame control word with all flags clear.
    pub(crate) fn ctrl(subtype: CtrlSubtype) -> Self {
        FrameControl((FrameType::Control.to_bits() << 2) | (subtype.to_bits() << 4))
    }

    /// Build a data frame control word with all flags clear.
    pub(crate) fn data(subtype: DataSubtype) -> Self {
        FrameControl((FrameType::Data.to_bits() << 2) | (subtype.to_bits() << 4))
    }

    /// Parse from the first two bytes of a frame.
    pub(crate) fn from_le_bytes(b: [u8; 2]) -> Self {
        FrameControl(u16::from_le_bytes(b))
    }

    /// Wire encoding, little-endian.
    pub fn to_le_bytes(self) -> [u8; 2] {
        self.0.to_le_bytes()
    }

    /// Protocol version (bits 0–1); always 0 in deployed 802.11.
    pub fn protocol_version(self) -> u8 {
        (self.0 & 0b11) as u8
    }

    /// The top-level frame type.
    pub fn frame_type(self) -> FrameType {
        FrameType::from_bits(self.0 >> 2)
    }

    /// Raw 4-bit subtype field.
    pub(crate) fn subtype_bits(self) -> u16 {
        (self.0 >> 4) & 0b1111
    }

    /// Decode the subtype as a management subtype.
    pub fn mgmt_subtype(self) -> Result<MgmtSubtype> {
        if self.frame_type() != FrameType::Management {
            return Err(Error::WrongType);
        }
        MgmtSubtype::from_bits(self.subtype_bits())
    }

    /// Decode the subtype as a control subtype.
    pub(crate) fn ctrl_subtype(self) -> Result<CtrlSubtype> {
        if self.frame_type() != FrameType::Control {
            return Err(Error::WrongType);
        }
        CtrlSubtype::from_bits(self.subtype_bits())
    }

    /// Decode the subtype as a data subtype.
    pub(crate) fn data_subtype(self) -> Result<DataSubtype> {
        if self.frame_type() != FrameType::Data {
            return Err(Error::WrongType);
        }
        DataSubtype::from_bits(self.subtype_bits())
    }

    /// To-DS: frame is headed to the distribution system (client→AP).
    pub fn to_ds(self) -> bool {
        self.flag(8)
    }

    /// Set or clear [`FrameControl::to_ds`].
    pub(crate) fn set_to_ds(self, on: bool) -> Self {
        self.with_flag(8, on)
    }

    /// From-DS: frame comes from the distribution system (AP→client).
    pub fn from_ds(self) -> bool {
        self.flag(9)
    }

    /// Set or clear [`FrameControl::from_ds`].
    pub(crate) fn set_from_ds(self, on: bool) -> Self {
        self.with_flag(9, on)
    }

    /// Sender will enter power-save mode after this exchange — the bit
    /// the 802.11 PS protocol pivots on.
    pub fn power_mgmt(self) -> bool {
        self.flag(12)
    }

    /// Set or clear [`FrameControl::power_mgmt`].
    pub(crate) fn set_power_mgmt(self, on: bool) -> Self {
        self.with_flag(12, on)
    }

    fn flag(self, bit: u16) -> bool {
        self.0 & (1 << bit) != 0
    }

    fn with_flag(mut self, bit: u16, on: bool) -> Self {
        if on {
            self.0 |= 1 << bit;
        } else {
            self.0 &= !(1 << bit);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beacon_frame_control_is_0x8000() {
        // The canonical first two bytes of every beacon frame.
        assert_eq!(
            FrameControl::mgmt(MgmtSubtype::Beacon).to_le_bytes(),
            [0x80, 0x00]
        );
    }

    #[test]
    fn ack_frame_control_is_0xd400() {
        assert_eq!(
            FrameControl::ctrl(CtrlSubtype::Ack).to_le_bytes(),
            [0xD4, 0x00]
        );
    }

    #[test]
    fn pspoll_frame_control_is_0xa400() {
        assert_eq!(
            FrameControl::ctrl(CtrlSubtype::PsPoll).to_le_bytes(),
            [0xA4, 0x00]
        );
    }

    #[test]
    fn qos_data_to_ds() {
        let fc = FrameControl::data(DataSubtype::QosData).set_to_ds(true);
        assert_eq!(fc.to_le_bytes(), [0x88, 0x01]);
        assert!(fc.to_ds());
        assert!(!fc.from_ds());
    }

    #[test]
    fn all_mgmt_subtypes_round_trip() {
        use MgmtSubtype::*;
        for st in [
            AssocReq,
            AssocResp,
            ReassocReq,
            ReassocResp,
            ProbeReq,
            ProbeResp,
            TimingAdvertisement,
            Beacon,
            Atim,
            Disassoc,
            Auth,
            Deauth,
            Action,
            ActionNoAck,
        ] {
            let fc = FrameControl::mgmt(st);
            assert_eq!(fc.mgmt_subtype().unwrap(), st);
            assert_eq!(fc.frame_type(), FrameType::Management);
        }
    }

    #[test]
    fn all_ctrl_subtypes_round_trip() {
        use CtrlSubtype::*;
        for st in [
            BlockAckReq,
            BlockAck,
            PsPoll,
            Rts,
            Cts,
            Ack,
            CfEnd,
            CfEndCfAck,
        ] {
            assert_eq!(FrameControl::ctrl(st).ctrl_subtype().unwrap(), st);
        }
    }

    #[test]
    fn all_data_subtypes_round_trip() {
        use DataSubtype::*;
        for st in [Data, Null, QosData, QosNull] {
            assert_eq!(FrameControl::data(st).data_subtype().unwrap(), st);
        }
        assert!(Null.is_null());
        assert!(QosNull.is_null());
        assert!(!Data.is_null());
    }

    #[test]
    fn wrong_type_rejected() {
        let fc = FrameControl::mgmt(MgmtSubtype::Beacon);
        assert_eq!(fc.ctrl_subtype(), Err(Error::WrongType));
        assert_eq!(fc.data_subtype(), Err(Error::WrongType));
    }

    #[test]
    fn reserved_mgmt_subtype_rejected() {
        // Subtype 7 is reserved for management frames.
        let fc = FrameControl((FrameType::Management.to_bits() << 2) | (7 << 4));
        assert_eq!(fc.mgmt_subtype(), Err(Error::BadValue));
    }

    #[test]
    fn flags_set_and_clear() {
        let fc = FrameControl::data(DataSubtype::Null)
            .set_power_mgmt(true)
            .set_to_ds(true);
        assert!(fc.power_mgmt() && fc.to_ds() && !fc.from_ds());
        let fc = fc.set_power_mgmt(false).set_from_ds(true);
        assert!(!fc.power_mgmt() && fc.to_ds() && fc.from_ds());
        assert_eq!(fc.to_le_bytes(), [0x48, 0x03]);
    }

    #[test]
    fn parse_from_wire_bytes() {
        let fc = FrameControl::from_le_bytes([0x80, 0x00]);
        assert_eq!(fc.mgmt_subtype().unwrap(), MgmtSubtype::Beacon);
        assert_eq!(fc.protocol_version(), 0);
    }
}
