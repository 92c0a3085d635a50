//! The §6 two-way session on the `wile-sim` actor kernel.
//!
//! [`wile::session::run_session`] drives one device and one gateway
//! through `cycles` reporting rounds in a synchronous for-loop. This
//! module is that driver ported to the kernel: the device is an actor
//! (wake, uplink, optionally announce and listen through a receive
//! window), the gateway is an actor built on the extracted
//! [`wile::session::gateway_serve`] half, and each cycle becomes up to
//! three same-instant events ordered by the kernel's FIFO tie-break —
//! exactly the technique the campaign port uses for its feedback round.
//!
//! Because both drivers issue the identical medium call sequence
//! (inject → gateway serve → device listen, cycle by cycle), their
//! [`SessionOutcome`]s are equal for the same seed; the tests here
//! assert that differentially against the synchronous loop.
//!
//! The device side speaks the MAC service layer: each uplink is one
//! MCPS-DATA.request on a single-device [`WileMac`] (with a receive
//! window on announce cycles), and each window read is one MLME-WAKE —
//! the confirm carries the absolute window and the listened duration,
//! so the actor keeps no injector state of its own.

use wile::inject::Injector;
use wile::registry::DeviceIdentity;
use wile::session::{gateway_serve, uplink_payload, Command, CommandQueue, SessionOutcome};
use wile::twoway::RxWindow;
use wile_mac::{AirCtx, McpsDataRequest, MlmeWakeRequest, WileMac};
use wile_radio::medium::{RadioConfig, RadioId};
use wile_radio::time::{Duration, Instant};
use wile_sim::{Actor, ActorId, Ctx, Kernel};

/// Configuration of a kernel-driven two-way session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Device id (identity, uplink filter, command queue key).
    pub device_id: u32,
    /// Medium seed.
    pub seed: u64,
    /// Reporting cycles to run.
    pub cycles: usize,
    /// Announce a receive window on every k-th beacon (≥ 1).
    pub window_every: usize,
    /// Wake period.
    pub period: Duration,
    /// Commands pre-queued for the device, in order.
    pub commands: Vec<Vec<u8>>,
    /// Gateway position (device sits at the origin).
    pub gw_position_m: (f64, f64),
}

/// Session events: `Wake` drives the device, `Serve` the gateway,
/// `Listen` returns to the device to read its announced window.
enum SessionEv {
    /// Start of reporting cycle `cycle` (device).
    Wake {
        /// Cycle ordinal, 0-based.
        cycle: usize,
    },
    /// Drain the gateway inbox up to `up_to` and answer any announced
    /// window (gateway).
    Serve {
        /// Drain deadline (just past the uplink's on-air end).
        up_to: Instant,
    },
    /// Listen through the announced window (device).
    Listen {
        /// Window open.
        open: Instant,
        /// Window close.
        close: Instant,
    },
}

struct DeviceSession {
    mac: WileMac,
    gw: ActorId,
    cycles: usize,
    window_every: usize,
    period: Duration,
    window: RxWindow,
    last_cmd: u16,
    executed: Vec<u16>,
    listen_total: Duration,
}

impl Actor<SessionEv> for DeviceSession {
    fn on_event(&mut self, now: Instant, ev: SessionEv, ctx: &mut Ctx<'_, SessionEv>) {
        match ev {
            SessionEv::Wake { cycle } => {
                let announce = (cycle + 1) % self.window_every == 0;
                // Uplink: reading + echo of the last executed command.
                let payload = uplink_payload(self.last_cmd, format!("r{cycle}").as_bytes());
                let confirm = {
                    let mut air = AirCtx {
                        medium: &mut *ctx.medium,
                        now,
                        actor: 0,
                        telemetry: &mut *ctx.telemetry,
                    };
                    self.mac.mcps_data(
                        &mut air,
                        McpsDataRequest {
                            device: 0,
                            payload: &payload,
                            rx_window: announce.then_some(self.window),
                            copies: 1,
                            repeat_of: None,
                        },
                    )
                };
                // Same-instant follow-ups, FIFO-ordered: the gateway
                // serves the uplink first, then (if announced) we come
                // back to listen through the window.
                ctx.send(
                    self.gw,
                    SessionEv::Serve {
                        up_to: confirm.t_tx_end + Duration::from_ms(1),
                    },
                );
                if announce {
                    let (open, close) = confirm
                        .rx_window
                        .expect("a windowed request confirms with its absolute window");
                    let me = ctx.self_id();
                    ctx.send(me, SessionEv::Listen { open, close });
                }
                if cycle + 1 < self.cycles {
                    let me = ctx.self_id();
                    ctx.schedule(
                        Instant::from_ms(500) + self.period.mul(cycle as u64 + 1),
                        me,
                        SessionEv::Wake { cycle: cycle + 1 },
                    );
                }
            }
            SessionEv::Listen { open, close } => {
                let wake = {
                    let mut air = AirCtx {
                        medium: &mut *ctx.medium,
                        now,
                        actor: 0,
                        telemetry: &mut *ctx.telemetry,
                    };
                    self.mac.mlme_wake(
                        &mut air,
                        MlmeWakeRequest {
                            device: 0,
                            open,
                            close,
                        },
                    )
                };
                self.listen_total += wake.listened;
                if let Some(bytes) = wake.downlink {
                    if let Some(cmd) = Command::parse(&bytes) {
                        self.last_cmd = cmd.id;
                        self.executed.push(cmd.id);
                        ctx.emit("cmd_executed", cmd.id as u64);
                    }
                }
            }
            SessionEv::Serve { .. } => {
                unreachable!("gateway event addressed to the device actor")
            }
        }
    }
}

struct GatewaySession {
    radio: RadioId,
    device_id: u32,
    queue: CommandQueue,
    uplinks: usize,
}

impl Actor<SessionEv> for GatewaySession {
    fn on_event(&mut self, _now: Instant, ev: SessionEv, ctx: &mut Ctx<'_, SessionEv>) {
        match ev {
            SessionEv::Serve { up_to } => {
                let got = gateway_serve(
                    ctx.medium,
                    self.radio,
                    self.device_id,
                    &mut self.queue,
                    up_to,
                );
                self.uplinks += got;
                ctx.emit("uplinks", got as u64);
            }
            _ => unreachable!("device event addressed to the gateway actor"),
        }
    }
}

/// Run a two-way session on the actor kernel; the outcome is equal to
/// [`wile::session::run_session`] with the same parameters and seed.
pub fn run_session_kernel(cfg: &SessionConfig) -> SessionOutcome {
    assert!(cfg.window_every >= 1);
    let mut kernel: Kernel<SessionEv> = Kernel::new(Default::default(), cfg.seed);
    // Attach order matches the synchronous setup: device, then gateway.
    let dev_radio = kernel.medium_mut().attach(RadioConfig::default());
    let gw_radio = kernel.medium_mut().attach(RadioConfig {
        position_m: cfg.gw_position_m,
        ..Default::default()
    });

    let mut queue = CommandQueue::new();
    for body in &cfg.commands {
        queue.push(cfg.device_id, body);
    }
    let gw = kernel.add_actor(GatewaySession {
        radio: gw_radio,
        device_id: cfg.device_id,
        queue,
        uplinks: 0,
    });
    let mut mac = WileMac::new();
    mac.push_injector(
        Injector::new(DeviceIdentity::new(cfg.device_id), Instant::ZERO),
        dev_radio,
    );
    let dev = kernel.add_actor(DeviceSession {
        mac,
        gw,
        cycles: cfg.cycles,
        window_every: cfg.window_every,
        period: cfg.period,
        window: RxWindow {
            offset_us: 300,
            length_us: 3_000,
        },
        last_cmd: 0,
        executed: Vec::new(),
        listen_total: Duration::ZERO,
    });

    if cfg.cycles > 0 {
        kernel.schedule(Instant::from_ms(500), dev, SessionEv::Wake { cycle: 0 });
    }
    kernel.run();

    let dev = kernel.remove_actor::<DeviceSession>(dev);
    let gw = kernel.remove_actor::<GatewaySession>(gw);
    SessionOutcome {
        uplinks: gw.uplinks,
        commands_executed: dev.executed,
        commands_confirmed: gw.queue.confirmed.len(),
        device_listen_time: dev.listen_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wile_radio::medium::Medium;

    /// Run the synchronous reference with a matching world.
    fn run_reference(cfg: &SessionConfig) -> SessionOutcome {
        let mut medium = Medium::new(Default::default(), cfg.seed);
        let dev = medium.attach(RadioConfig::default());
        let gw = medium.attach(RadioConfig {
            position_m: cfg.gw_position_m,
            ..Default::default()
        });
        let mut inj = Injector::new(DeviceIdentity::new(cfg.device_id), Instant::ZERO);
        let mut queue = CommandQueue::new();
        for body in &cfg.commands {
            queue.push(cfg.device_id, body);
        }
        wile::session::run_session(
            &mut medium,
            dev,
            gw,
            &mut inj,
            &mut queue,
            cfg.cycles,
            cfg.window_every,
            cfg.period,
        )
    }

    fn cfg(window_every: usize, cycles: usize, n_commands: usize) -> SessionConfig {
        SessionConfig {
            device_id: 9,
            seed: 55,
            cycles,
            window_every,
            period: Duration::from_secs(10),
            commands: (0..n_commands)
                .map(|i| format!("cmd{i}").into_bytes())
                .collect(),
            gw_position_m: (2.0, 0.0),
        }
    }

    #[test]
    fn kernel_session_matches_synchronous_runner() {
        for window_every in [1usize, 2, 4] {
            for n_commands in [0usize, 2, 8] {
                let c = cfg(window_every, 8, n_commands);
                assert_eq!(
                    run_reference(&c),
                    run_session_kernel(&c),
                    "diverged at window_every={window_every}, commands={n_commands}"
                );
            }
        }
    }

    #[test]
    fn kernel_session_delivers_and_confirms() {
        let out = run_session_kernel(&cfg(2, 6, 2));
        assert_eq!(out.uplinks, 6);
        assert_eq!(out.commands_executed.len(), 2);
        assert_eq!(out.commands_confirmed, 2);
    }

    #[test]
    fn kernel_session_is_deterministic() {
        let c = cfg(2, 8, 4);
        assert_eq!(run_session_kernel(&c), run_session_kernel(&c));
    }
}
