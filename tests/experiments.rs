//! Regression tests pinning every paper artifact to its acceptance
//! band (the per-experiment index of DESIGN.md; deltas recorded in
//! EXPERIMENTS.md).

use wile_scenarios::{ablation, fig3, fig4, table1};

/// E3 — Table 1, all four columns.
#[test]
fn e3_table1_within_bands() {
    let t = table1::table1();
    let checks = [
        (&t.wile, 0.084, 0.15),
        (&t.ble, 0.071, 0.15),
        (&t.wifi_dc, 238.2, 0.20),
        (&t.wifi_ps, 19.8, 0.20),
    ];
    for (col, paper_mj, band) in checks {
        let rel = (col.energy_per_packet_mj - paper_mj).abs() / paper_mj;
        assert!(
            rel < band,
            "{}: measured {:.3} mJ vs paper {paper_mj} mJ (rel {rel:.3})",
            col.name,
            col.energy_per_packet_mj
        );
    }
    // Idle currents are model inputs and must match exactly.
    assert_eq!(t.wile.idle_current_ma, 0.0025);
    assert_eq!(t.ble.idle_current_ma, 0.0011);
    assert_eq!(t.wifi_dc.idle_current_ma, 0.0025);
    assert_eq!(t.wifi_ps.idle_current_ma, 4.5);
}

/// E1 — Figure 3a phase timeline.
#[test]
fn e1_fig3a_phases() {
    let p = fig3::fig3a();
    // Paper: sleep to 0.2 s; init 0.2–0.85 s; assoc 0.85–1.15 s;
    // DHCP/ARP until near 1.75 s; then Tx and sleep.
    let sleep = p.phase_duration_s("Sleep").unwrap();
    let init = p.phase_duration_s("MC/WiFi init").unwrap();
    let assoc = p.phase_duration_s("Probe/Auth./Associate").unwrap();
    let dhcp = p.phase_duration_s("DHCP/ARP").unwrap();
    assert!((sleep - 0.2).abs() < 0.01, "sleep {sleep}");
    assert!((init - 0.65).abs() < 0.05, "init {init}");
    assert!((0.22..=0.40).contains(&assoc), "assoc {assoc}");
    assert!((0.35..=0.75).contains(&dhcp), "dhcp {dhcp}");
    // Total active roughly matches the figure's ~1.4 s envelope.
    let total = init + assoc + dhcp;
    assert!((1.2..=1.7).contains(&total), "total {total}");
}

/// E2 — Figure 3b: shorter init, single spike, long sleep.
#[test]
fn e2_fig3b_shape() {
    let p = fig3::fig3b();
    let init = p.phase_duration_s("MC/WiFi init").unwrap();
    assert!((0.4..=0.55).contains(&init), "init {init}");
    // §5.2: "this step is shorter when compared with the WiFi case."
    let a = fig3::fig3a();
    assert!(
        init < a.phase_duration_s("MC/WiFi init").unwrap()
            + a.phase_duration_s("Probe/Auth./Associate").unwrap()
    );
    // The TX phase is microseconds.
    let tx = p.phase_duration_s("Tx").unwrap();
    assert!(tx < 0.001, "tx {tx}");
}

/// E4 — Figure 4: curve shapes, crossover, separations.
#[test]
fn e4_fig4_shape() {
    let t = table1::table1();
    let f = fig4::fig4_from(&t, &fig4::default_grid());

    // A WiFi-PS/WiFi-DC crossover exists (the §5.5 claim); with the
    // paper's own Table 1 numbers it computes to ≈0.27 min.
    let x = f.ps_dc_crossover_min().expect("crossover");
    assert!((0.15..=0.45).contains(&x), "crossover {x} min");

    // Wi-LE ≈ BLE (within 3×) everywhere.
    let wile = f.curve("Wi-LE").unwrap();
    let ble = f.curve("BLE").unwrap();
    for (w, b) in wile.points.iter().zip(&ble.points) {
        assert!(w.1 / b.1 < 3.0, "at {} min", w.0);
    }

    // Wi-LE at least 2 orders below the best WiFi everywhere plotted,
    // ≥2.5 orders at 1 min (the paper's "about 3 orders" is the
    // mid-sweep value).
    for &m in &[0.5, 1.0, 2.0, 3.0, 5.0] {
        assert!(f.wifi_to_wile_ratio(m) > 90.0, "{m} min");
    }
    assert!(f.wifi_to_wile_ratio(1.0) > 316.0);
}

/// E5 — §3.1 frame counting (20 MAC + 7 higher-layer).
#[test]
fn e5_connection_frame_count() {
    let run = wile_scenarios::wifi_dc::run(&Default::default());
    assert!(run.outcome.connected);
    // 7 connection-establishment higher-layer frames + 1 sensor payload.
    assert_eq!(run.outcome.higher_layer_frames, 8);
    assert!(
        (20..=30).contains(&run.outcome.mac_frames),
        "mac {}",
        run.outcome.mac_frames
    );
}

/// E6 — §6 clock-jitter decorrelation.
#[test]
fn e6_jitter_decorrelation() {
    let (ideal, drifting) = ablation::drift_ablation(4, 12);
    assert!(ideal.delivery_ratio < 0.1);
    assert!(drifting.tail_ratio > 0.8);
}

/// Ablation sanity: the ASIC projection undercuts BLE-per-event scale.
#[test]
fn ablation_asic_endpoint() {
    let asic = ablation::asic_full_cycle();
    let uj = asic.energy_per_packet_mj * 1000.0;
    // Full cycle on an ASIC: a few hundred µJ at most (vs 93 000 µJ on
    // the ESP32 full cycle); the paper predicts "much lower power
    // consumption" and this quantifies it.
    assert!(uj < 350.0, "{uj}");
}

/// Cross-check: Eq. (1) against an hour-long simulated trace.
#[test]
fn eq1_cross_validation() {
    use wile_instrument::energy::energy_mj;
    use wile_radio::time::Instant;
    let runs = 30usize;
    let run = wile_scenarios::wile_sc::run(runs, b"t=21.5C", 120);
    let model = run.injector.model();
    let start = Instant::from_ms(200);
    let end = start + wile_radio::time::Duration::from_secs(120 * runs as u64);
    let sim_mw = energy_mj(run.injector.trace(), &model, start, end) / (120.0 * runs as f64);
    let eq1_mw = wile_scenarios::wile_sc::full_cycle_row().average_power_mw(120.0);
    assert!(
        (sim_mw - eq1_mw).abs() / eq1_mw < 0.03,
        "sim {sim_mw} eq1 {eq1_mw}"
    );
}

/// The printed paper artifacts, digit for digit: Table 1 and Figures
/// 3a, 3b and 4 as `power_survey` renders them, the §5.4 ablations at
/// the precision `power_survey -- ablations` prints, and the Figure 3
/// CSV and Figure 4 `.dat` blocks of `power_survey -- csv`.
/// The band tests above would pass a changed digit; these would not.
#[test]
fn printed_artifacts_are_pinned() {
    use std::fmt::Write;
    use wile_telemetry::fnv1a;

    let rendered = wile_scenarios::report::render_all();
    assert_eq!(
        fnv1a(rendered.as_bytes()),
        0x57e7_8643_fa80_be5d,
        "render_all() changed:\n{rendered}"
    );

    let cap = wile::encode::FRAGMENT_CAPACITY;
    let mut s = String::new();
    for p in ablation::bitrate_sweep(128) {
        writeln!(s, "{} {:.1} {:.1}", p.rate, p.tx_energy_uj, p.range_m).unwrap();
    }
    for p in ablation::payload_sweep(&[8, 64, cap, cap + 1, 500, 900]) {
        let (len, frags) = (p.beacon_len, p.fragments);
        writeln!(s, "{} {len} {frags} {:.1}", p.payload_len, p.tx_energy_uj).unwrap();
    }
    for p in ablation::init_time_sweep(&[1.0, 0.5, 0.2, 0.05, 0.01]) {
        writeln!(s, "{:.4} {:.1}", p.init_s, p.full_cycle_uj).unwrap();
    }
    let asic_uj = ablation::asic_full_cycle().energy_per_packet_mj * 1000.0;
    writeln!(s, "{asic_uj:.1}").unwrap();
    writeln!(s, "{:.1}", ablation::failed_scan_energy_mj()).unwrap();
    for k in [1usize, 3, 11] {
        writeln!(s, "{k} {:.1}", ablation::channel_scan_overhead_mj(k)).unwrap();
    }
    assert_eq!(
        fnv1a(s.as_bytes()),
        0x3d34_1b6c_9bbe_87b6,
        "ablations changed:\n{s}"
    );

    use wile_instrument::export::{series_to_dat, to_csv};
    let mut csv = String::new();
    for (name, trace) in [("fig3a", fig3::fig3a()), ("fig3b", fig3::fig3b())] {
        writeln!(csv, "# --- {name}.csv ---").unwrap();
        csv += &to_csv(&fig3::plot_trace(&trace, 2000));
    }
    for c in &fig4::fig4().curves {
        writeln!(csv, "# --- fig4 ---").unwrap();
        csv += &series_to_dat(c.name, &c.points);
    }
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x7a62_b6f8_be03_743a,
        "power_survey -- csv changed"
    );
}
