//! The campaign as `wile-sim` actors.
//!
//! Two actor types share the kernel:
//!
//! * `DevActor` — one per device: the wake → (maybe two-way) beacon →
//!   repeat-copy → drift-clocked reschedule lifecycle, with the
//!   adaptation state (the module-private `Dev`) it owns;
//! * `GwActor` — the gateway: periodic fault-filtered inbox drains
//!   through [`GatewayIngest`], history release, stale-device eviction,
//!   and the loss-report downlink that answers a two-way beacon.
//!
//! ## Splitting the synchronous feedback round
//!
//! A two-way exchange — device transmit, gateway drain + reply, device
//! listen — is one synchronous round on the air, but one event can't
//! run it (the gateway's state lives in another actor), so the round
//! becomes three events at the *same instant* `t`:
//! `Msg` (device transmits the windowed beacon, then [`Ctx::send`]s
//! `ServeWindow` to the gateway and `FinishFeedback` to itself),
//! `ServeWindow` (gateway drains up to the window open and transmits
//! its reply), and `FinishFeedback` (device listens through the window
//! and closes out the round). The kernel's FIFO tie-break guarantees
//! the two follow-ups run back-to-back right after `Msg`, and the
//! clear-air guard (`TWOWAY_GUARD`) guarantees no other event was
//! pending at `t` — so the medium sees the transmit/drain/listen
//! sequence of one synchronous round.
//!
//! The copy count is captured *before* the round (feedback may shrink
//! the policy mid-round) and carried inside `FinishFeedback`; the
//! period backoff is read *after*, once any loss report has been
//! absorbed.

use super::{
    check_config, summarize, AdaptMode, CampaignConfig, CampaignReport, Dev, FEEDBACK_WINDOW,
    PAYLOAD, TWOWAY_GUARD,
};
use std::collections::HashSet;
use wile::inject::InjectReport;
use wile::monitor::{Gateway, Received};
use wile::twoway::FeedbackFrame;
use wile_mac::{AirCtx, McpsDataRequest, MlmeWakeRequest};
use wile_radio::medium::{RadioConfig, TxParams};
use wile_radio::plan::FaultTimeline;
use wile_radio::time::{Duration, Instant};
use wile_sim::{Actor, ActorId, Ctx, GatewayIngest, Kernel, PollTrain};
use wile_telemetry::Telemetry;

/// Campaign events. `Msg`/`Copy` address a [`DevActor`],
/// `Poll`/`ServeWindow` the [`GwActor`], `FinishFeedback` comes back to
/// the device that opened the window.
enum CampaignEv {
    /// Start of a message round for the addressed device.
    Msg,
    /// One repeat copy of an in-flight message.
    Copy {
        /// Sequence number of the message being repeated.
        seq: u16,
    },
    /// Periodic gateway poll.
    Poll,
    /// A device opened a two-way window: drain and answer it.
    ServeWindow {
        /// Index of the soliciting device.
        dev: usize,
        /// Window open (gateway drains up to here).
        open: Instant,
        /// When the loss-report reply goes on air.
        reply_at: Instant,
    },
    /// Close out a two-way round on the device side.
    FinishFeedback {
        /// Sequence number the windowed beacon carried.
        seq: u16,
        /// Copy count captured before the round.
        copies: u8,
        /// Window open.
        open: Instant,
        /// Window close.
        close: Instant,
        /// The beacon's inject report (folded into the device's energy
        /// accounting once the round completes).
        rep: InjectReport,
    },
}

/// One campaign device: lifecycle state plus the config slice it needs.
struct DevActor {
    dev: Dev,
    index: usize,
    gw: ActorId,
    mode: AdaptMode,
    period: Duration,
    copy_spacing: Duration,
    end: Instant,
}

impl DevActor {
    /// Shared tail of a message round: book the message, schedule its
    /// repeat copies, and reschedule the next wake on the drifting
    /// clock (reading the post-round backoff).
    fn finish_round(&mut self, seq: u16, copies: u8, t: Instant, ctx: &mut Ctx<'_, CampaignEv>) {
        self.dev.msgs.push((seq, t));
        let me = ctx.self_id();
        for j in 1..copies {
            ctx.schedule(
                t + self.copy_spacing.mul(j as u64),
                me,
                CampaignEv::Copy { seq },
            );
        }
        let backoff = self.dev.mac.period_backoff(0);
        let next = self.dev.clock.wake_after(t, self.period + backoff);
        if next <= self.end {
            ctx.schedule(next, me, CampaignEv::Msg);
        }
    }
}

impl Actor<CampaignEv> for DevActor {
    fn on_event(&mut self, now: Instant, ev: CampaignEv, ctx: &mut Ctx<'_, CampaignEv>) {
        match ev {
            CampaignEv::Msg => {
                // One `dev.cycle` span per wake-to-wake interval:
                // close the previous cycle (if any) and open the next.
                // Durations are sim-time, so the `span_ns{span=...}`
                // histogram is deterministic.
                let _ = ctx.span_exit();
                if now > self.end {
                    return;
                }
                ctx.span_enter("dev.cycle");
                let tl = ctx
                    .faults
                    .as_deref_mut()
                    .expect("the campaign kernel installs a fault timeline");
                // Clock-skew phases shift the oscillator while active.
                let want_skew = tl.skew_ppm(now);
                if want_skew != self.dev.applied_skew_ppm {
                    let delta = want_skew - self.dev.applied_skew_ppm;
                    self.dev.clock.shift_ppm(delta);
                    self.dev.applied_skew_ppm = want_skew;
                }
                // Blind adaptation samples carrier sense at wake.
                if matches!(self.mode, AdaptMode::Blind(_)) {
                    let busy = tl.air_busy(now);
                    self.dev.mac.observe_air_busy(0, busy);
                }
                let policy = self.dev.policy();
                let wants_feedback = match &self.mode {
                    AdaptMode::Feedback { every, .. } => {
                        self.dev.msg_count.is_multiple_of((*every).max(1) as u64)
                    }
                    _ => false,
                };
                // The two-way exchange transmits a gateway reply just
                // after the beacon; skip it if any other event lands
                // inside that window (transmit order must stay
                // monotone). This also guarantees the ServeWindow /
                // FinishFeedback follow-ups run with nothing
                // interleaved.
                let clear_air = match ctx.next_event_time() {
                    Some(next) => next >= now + TWOWAY_GUARD,
                    None => true,
                };
                self.dev.msg_count += 1;

                if wants_feedback && clear_air {
                    let confirm = {
                        let mut air = AirCtx {
                            medium: &mut *ctx.medium,
                            now,
                            actor: self.index as u32,
                            telemetry: &mut *ctx.telemetry,
                        };
                        self.dev.mac.mcps_data(
                            &mut air,
                            McpsDataRequest {
                                device: 0,
                                payload: PAYLOAD,
                                rx_window: Some(FEEDBACK_WINDOW),
                                copies: 1,
                                repeat_of: None,
                            },
                        )
                    };
                    let seq = confirm.seq;
                    let (open, close) = confirm
                        .rx_window
                        .expect("a windowed request confirms with its absolute window");
                    let reply_at = open + Duration::from_us(300);
                    let rep = confirm.report();
                    ctx.send(
                        self.gw,
                        CampaignEv::ServeWindow {
                            dev: self.index,
                            open,
                            reply_at,
                        },
                    );
                    let me = ctx.self_id();
                    ctx.send(
                        me,
                        CampaignEv::FinishFeedback {
                            seq,
                            copies: policy.copies,
                            open,
                            close,
                            rep,
                        },
                    );
                } else {
                    let confirm = {
                        let mut air = AirCtx {
                            medium: &mut *ctx.medium,
                            now,
                            actor: self.index as u32,
                            telemetry: &mut *ctx.telemetry,
                        };
                        self.dev
                            .mac
                            .mcps_data(&mut air, McpsDataRequest::plain(0, PAYLOAD))
                    };
                    let seq = confirm.seq;
                    self.dev.reports.push(confirm.report());
                    self.finish_round(seq, policy.copies, now, ctx);
                }
            }
            CampaignEv::Copy { seq } => {
                let confirm = {
                    let mut air = AirCtx {
                        medium: &mut *ctx.medium,
                        now,
                        actor: self.index as u32,
                        telemetry: &mut *ctx.telemetry,
                    };
                    self.dev.mac.mcps_data(
                        &mut air,
                        McpsDataRequest {
                            device: 0,
                            payload: PAYLOAD,
                            rx_window: None,
                            copies: 1,
                            repeat_of: Some(seq),
                        },
                    )
                };
                self.dev.reports.push(confirm.report());
            }
            CampaignEv::FinishFeedback {
                seq,
                copies,
                open,
                close,
                rep,
            } => {
                // Device listens through its announced window (the
                // MLME-WAKE primitive — the 802.11ba-style "wake up and
                // receive" face of the SAP).
                let device_id = self.dev.mac.injector(0).identity().device_id;
                let wake = {
                    let mut air = AirCtx {
                        medium: &mut *ctx.medium,
                        now,
                        actor: self.index as u32,
                        telemetry: &mut *ctx.telemetry,
                    };
                    self.dev.mac.mlme_wake(
                        &mut air,
                        MlmeWakeRequest {
                            device: 0,
                            open,
                            close,
                        },
                    )
                };
                if let Some(bytes) = wake.downlink {
                    if let Some(f) = FeedbackFrame::decode(&bytes) {
                        if f.device_id == device_id {
                            self.dev.mac.record_feedback(0, f.loss());
                            self.dev.feedback_received += 1;
                            ctx.emit("feedback_rx", device_id as u64);
                        }
                    }
                }
                self.dev.reports.push(rep);
                self.finish_round(seq, copies, now, ctx);
            }
            _ => unreachable!("gateway event addressed to a device actor"),
        }
    }
}

/// The campaign gateway: fault-filtered ingest, history release,
/// eviction, and the two-way downlink.
struct GwActor {
    ingest: GatewayIngest,
    delivered: HashSet<(u32, u16)>,
    /// Per-device first-arrival instants (folded back into each
    /// [`Dev`] after the run for recovery accounting).
    arrivals: Vec<Vec<Instant>>,
    evicted: Vec<u32>,
}

impl GwActor {
    fn record(&mut self, got: Vec<Received>) {
        for r in got {
            let idx = (r.device_id - 1) as usize;
            if self.delivered.insert((r.device_id, r.seq)) {
                self.arrivals[idx].push(r.at);
            }
        }
    }
}

impl Actor<CampaignEv> for GwActor {
    fn on_event(&mut self, now: Instant, ev: CampaignEv, ctx: &mut Ctx<'_, CampaignEv>) {
        match ev {
            CampaignEv::Poll => {
                let got = self
                    .ingest
                    .drain(ctx.medium, ctx.faults.as_deref_mut(), now);
                ctx.emit("poll_delivered", got.len() as u64);
                self.record(got);
                // Devices only read their radios inside feedback
                // windows, which always open after the current instant,
                // and the gateway has just drained to it: waive
                // everything older so it can be retired.
                ctx.medium.release_all(now);
                if let Some(h) = self.ingest.gateway_mut().link_health_mut() {
                    self.evicted.extend(h.evict_stale(now));
                }
            }
            CampaignEv::ServeWindow {
                dev,
                open,
                reply_at,
            } => {
                // Catch up on arrivals (including the soliciting
                // beacon, if the channel let it through) and answer
                // inside the window.
                let got = self
                    .ingest
                    .drain(ctx.medium, ctx.faults.as_deref_mut(), open);
                self.record(got);
                let device_id = dev as u32 + 1;
                let loss = self
                    .ingest
                    .gateway()
                    .link_health()
                    .and_then(|h| h.loss_estimate(device_id));
                if let Some(loss) = loss {
                    let down = ctx
                        .faults
                        .as_deref_mut()
                        .expect("the campaign kernel installs a fault timeline")
                        .gateway_down(reply_at);
                    if !down {
                        ctx.medium.transmit(
                            self.ingest.radio(),
                            reply_at,
                            TxParams {
                                airtime: Duration::from_us(60),
                                power_dbm: 0.0,
                                min_snr_db: 5.0,
                            },
                            FeedbackFrame::for_loss(device_id, loss).encode(),
                        );
                    }
                }
            }
            _ => unreachable!("device event addressed to the gateway actor"),
        }
    }
}

/// Run one campaign on the `wile-sim` actor kernel, folding its
/// telemetry into `tel`: metrics (kernel dispatch, medium, gateway
/// pipeline, link health, `dev.cycle` spans) and, with
/// [`Telemetry::with_trace`], the structured event trace ready for
/// [`wile_telemetry::RunTrace::to_jsonl`]. A disabled collector
/// records nothing and costs one branch per call site — the report is
/// bit-identical either way, which `tests/telemetry_diff.rs` asserts.
pub fn run_campaign(cfg: &CampaignConfig, tel: &mut Telemetry) -> CampaignReport {
    let (latency, _cycle) = check_config(cfg);

    // Default channel model, the config seed, bounded mode on.
    let mut kernel: Kernel<CampaignEv> = Kernel::new(Default::default(), cfg.seed);
    kernel.set_faults(FaultTimeline::new(cfg.plan.clone()));
    if tel.enabled() {
        let mut kt = Telemetry::new();
        kt.set_trace_enabled(tel.trace().enabled());
        kernel.set_telemetry(kt);
    }

    // Attach order fixes RadioId assignment: gateway first, then
    // devices in index order.
    let gw_radio = kernel.medium_mut().attach(RadioConfig::default());
    let mut dev_radios = Vec::with_capacity(cfg.devices);
    for i in 0..cfg.devices {
        dev_radios.push(kernel.medium_mut().attach(RadioConfig {
            position_m: Dev::position(cfg, i),
            ..Default::default()
        }));
    }

    let gw_id = kernel.add_actor(GwActor {
        ingest: GatewayIngest::new(gw_radio, Gateway::with_link_health(cfg.link)),
        delivered: HashSet::new(),
        arrivals: vec![Vec::new(); cfg.devices],
        evicted: Vec::new(),
    });
    let end = Instant::ZERO + cfg.duration;
    let mut dev_ids = Vec::with_capacity(cfg.devices);
    for (i, &radio) in dev_radios.iter().enumerate() {
        dev_ids.push(kernel.add_actor(DevActor {
            dev: Dev::build(cfg, i, radio),
            index: i,
            gw: gw_id,
            mode: cfg.mode.clone(),
            period: cfg.period,
            copy_spacing: cfg.copy_spacing,
            end,
        }));
    }

    // Setup scheduling order fixes FIFO ordinals: initial messages in
    // device order first, then the whole poll train (device 0's first
    // wake ties with the 1 s poll and must win).
    let train = PollTrain::new(cfg.poll_every, end + cfg.period + Duration::from_secs(2));
    for (i, &id) in dev_ids.iter().enumerate() {
        kernel.schedule(
            Instant::from_secs(1) + Duration::from_ms(137 * i as u64),
            id,
            CampaignEv::Msg,
        );
    }
    for at in train.instants() {
        kernel.schedule(at, gw_id, CampaignEv::Poll);
    }

    kernel.run();

    let GwActor {
        mut ingest,
        delivered,
        mut arrivals,
        evicted,
        ..
    } = kernel.remove_actor::<GwActor>(gw_id);
    if tel.enabled() {
        kernel.flush_telemetry();
        let reg = kernel.telemetry_mut().registry_mut();
        ingest.gateway().record_telemetry(reg, &[]);
        reg.counter_set("campaign.delivered", &[], delivered.len() as u64);
        reg.counter_set("campaign.evicted", &[], evicted.len() as u64);
        tel.merge_from(kernel.telemetry());
    }
    let mut devs = Vec::with_capacity(cfg.devices);
    for (i, &id) in dev_ids.iter().enumerate() {
        let mut dev = kernel.remove_actor::<DevActor>(id).dev;
        dev.arrivals = std::mem::take(&mut arrivals[i]);
        devs.push(dev);
    }
    summarize(
        cfg,
        latency,
        devs,
        ingest.gateway_mut(),
        delivered,
        evicted,
        train.horizon(),
    )
}
