//! # wile-scenarios — the paper's evaluation, end to end
//!
//! One module per §5.3 scenario and one per artifact:
//!
//! * [`scenario`] — the common result type (energy/packet, idle
//!   current, TX window) every scenario produces;
//! * [`wifi_dc`] — WiFi Duty Cycle: deep sleep, re-associate, transmit
//!   (drives `wile-netstack`'s full connection);
//! * [`wifi_ps`] — WiFi Power Saving: stay associated, aggressive
//!   power-save idle, transmit without re-association;
//! * [`ble`] — the CC2541 reference (per-phase model + real PDUs);
//! * [`wile_sc`] — Wi-LE injection;
//! * [`mod@table1`] — assembles Table 1 from the four scenarios;
//! * [`fig3`] — the current-versus-time traces of Figures 3a/3b;
//! * [`fig4`] — the average-power-versus-interval sweep of Figure 4
//!   (Equation 1), with crossover analysis;
//! * [`ablation`] — design-space sweeps DESIGN.md calls out (bitrate,
//!   payload size, init time / ASIC, clock-drift ppm);
//! * [`campaign`] — fault-injection campaigns: a fleet run through a
//!   scheduled disturbance timeline (burst loss, jammers, outages),
//!   comparing adaptive repeat policies against static baselines — run
//!   on the `wile-sim` actor kernel;
//! * [`session`] — the §6 two-way command session ported to kernel
//!   actors (differentially tested against the synchronous runner);
//! * [`assoc`] — N duty-cycled WiFi clients re-associating on one
//!   shared kernel medium, serialized by the air lease;
//! * [`metro`] — the multi-gateway metro deployment on `wile-cluster`:
//!   overlapping gateways, cross-gateway dedup with best-RSSI election,
//!   roaming handoffs, bounded lane queues (experiment E11), with a
//!   single-gateway reference runner as the differential oracle;
//! * [`mixed`] — the mixed-protocol metro (experiment E15): one medium
//!   simultaneously carrying the Wi-LE fleet, BLE advertising trains,
//!   and WiFi migrants that switch protocol mid-run through MLME
//!   primitives — every device issuing `wile-mac` primitives to its
//!   protocol's MAC, composed via the kernel air lease;
//! * [`chaos`] — the metro deployment under infrastructure chaos
//!   (experiment E13): gateway crash/restart with checkpoint-based
//!   recovery, backhaul partitions with bounded store-and-forward,
//!   aggregator overload shedding, and air outages on one unified
//!   timeline, audited for extended conservation and at-most-once;
//! * [`report`] — paper-style text rendering of all of the above.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablation;
pub mod assoc;
pub mod ble;
pub mod campaign;
pub mod chaos;
pub mod fig3;
pub mod fig4;
pub mod metro;
pub mod mixed;
pub mod report;
pub mod scenario;
pub mod session;
pub mod table1;
pub mod wifi_dc;
pub mod wifi_ps;
pub mod wile_sc;

pub use scenario::ScenarioResult;
pub use table1::{table1, Table1};
