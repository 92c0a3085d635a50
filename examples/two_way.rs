//! The §6 two-way extension: an actuator announces a short receive
//! window after each beacon; the gateway sends a command inside it.
//!
//! ```sh
//! cargo run --example two_way
//! ```

use wile::message::Message;
use wile::registry::DeviceIdentity;
use wile::twoway::{build_twoway_beacon, rx_window_of, RxWindow};
use wile_device::{Mcu, PowerState};
use wile_dot11::mac::SeqControl;
use wile_dot11::mgmt::Beacon;
use wile_dot11::phy::{frame_airtime_us, PhyRate};
use wile_instrument::energy::energy_mj;
use wile_radio::medium::TxParams;
use wile_radio::time::{Duration, Instant};
use wile_radio::{Medium, RadioConfig};

fn main() {
    let mut medium = Medium::new(Default::default(), 2);
    let dev_radio = medium.attach(RadioConfig::default());
    let gw_radio = medium.attach(RadioConfig {
        position_m: (2.0, 0.0),
        ..Default::default()
    });
    let identity = DeviceIdentity::new(9);

    let mut mcu = Mcu::esp32(Instant::ZERO);
    mcu.set_state(PowerState::DeepSleep);
    let model = *mcu.model();

    // Device: wake, beacon with a 3 ms receive window, listen, sleep.
    mcu.wake_from_deep_sleep();
    mcu.wifi_init_inject();
    let window = RxWindow {
        offset_us: 300,
        length_us: 3_000,
    };
    let msg = Message::new(identity.device_id, 0, b"status=ok");
    let frame = build_twoway_beacon(&identity, &msg, window, SeqControl::new(0, 0));
    let rate = PhyRate::WILE_PAPER;
    let airtime = Duration::from_us(frame_airtime_us(rate, frame.len()));
    let (on_air, tx_end) = mcu.transmit(airtime, 0.0);
    medium.transmit(
        dev_radio,
        on_air,
        TxParams {
            airtime,
            power_dbm: 0.0,
            min_snr_db: rate.min_snr_db(),
        },
        frame,
    );

    // Gateway: hears the beacon, reads the window, replies inside it.
    let heard = medium.take_inbox(gw_radio, tx_end + Duration::from_ms(1));
    let beacon = Beacon::new_checked(&heard[0].bytes[..]).expect("wile beacon");
    let win = rx_window_of(&beacon).expect("announced window");
    let (open, close) = win.absolute(heard[0].at);
    println!(
        "gateway: beacon announces rx window {} µs after EOF, {} µs long",
        win.offset_us, win.length_us
    );
    let reply_at = open + Duration::from_us(400);
    medium.transmit(
        gw_radio,
        reply_at,
        TxParams {
            airtime: Duration::from_us(60),
            power_dbm: 0.0,
            min_snr_db: 5.0,
        },
        b"cmd:set-interval=300",
    );

    // Device: light-sleep through the offset, listen only for the window.
    let t_listen_start = mcu.now();
    mcu.stay(PowerState::LightSleep, open.since(mcu.now()));
    mcu.listen(close.since(mcu.now()));
    let downlink: Vec<_> = medium
        .take_inbox(dev_radio, close)
        .into_iter()
        .filter(|f| f.at >= open && f.at <= close)
        .collect();
    mcu.deep_sleep();

    for f in &downlink {
        println!(
            "device: downlink inside window: {:?}",
            String::from_utf8_lossy(&f.bytes)
        );
    }

    // The §6 energy argument: the window costs microjoules, an
    // always-on receiver costs milliwatts.
    let listen_mj = energy_mj(mcu.trace(), &model, t_listen_start, mcu.now());
    let always_on_mj = model.power_mw(PowerState::RadioListen) * 1.0; // 1 s of listening
    println!(
        "device: receive window cost {:.1} µJ; one second of always-on listening would cost {:.1} mJ ({}x)",
        listen_mj * 1000.0,
        always_on_mj,
        (always_on_mj / listen_mj) as u64
    );
}
