//! Management frame bodies and builders.
//!
//! All builders emit complete MPDUs (24-byte MAC header + body + FCS) ready
//! to hand to the simulated medium; all parsers are zero-copy wrappers.

mod assoc;
mod auth;
mod beacon;
mod deauth;
mod probe;

pub use assoc::{AssocReq, AssocReqBuilder, AssocResp, AssocRespBuilder};
pub use auth::{Auth, AuthBuilder, StatusCode};
pub use beacon::{Beacon, BeaconBuilder, CapabilityInfo, BEACON_FIXED_LEN};
pub use deauth::{Deauth, DeauthBuilder, ReasonCode};
pub use probe::{ProbeReq, ProbeReqBuilder, ProbeRespBuilder};
