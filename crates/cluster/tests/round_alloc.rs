//! A warm aggregation round allocates per shard, not per device.
//!
//! Once every device is tracked and each shard's report list has
//! grown, a round folds each shard's reports into its device table in
//! place and moves each winner's payload into its delivery. What is
//! left to allocate is per round and per shard (the outcome's counter
//! lists, a sort buffer) plus the delivery lists doubling as they
//! grow, so a round of 10,000 messages may allocate only O(log n) more
//! than a round of 100. A per-device allocation (a device state cloned
//! out of the table, a payload copied into its delivery) costs one per
//! message and breaks the bound. Counting allocations instead of
//! timing them makes the check immune to a noisy host. The allocator
//! counts only on the thread that switched counting on, and the rounds
//! run with one worker on that thread.

use wile_cluster::{ClusterAggregator, GatewayReport, RoamingConfig};
use wile_radio::time::Instant;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;

const DEVICES: u32 = 10_000;
const LANES: usize = 4;

/// One copy of message `seq` from each of the first `devices` devices,
/// heard by a lane that rotates with the device id.
fn batch(devices: u32, seq: u16, ordinal0: u64) -> Vec<GatewayReport> {
    (0..devices)
        .map(|d| GatewayReport {
            gateway: d as usize % LANES,
            device_id: d,
            seq,
            at: Instant::from_ms(1_000 * u64::from(seq) + u64::from(d % 500)),
            rssi_dbm: -60.0 - f64::from(d % 20),
            payload: vec![seq as u8; 12].into(),
            encrypted: false,
            ordinal: ordinal0 + u64::from(d),
        })
        .collect()
}

#[test]
fn a_warm_round_does_not_allocate_per_device() {
    let mut agg = ClusterAggregator::new(LANES, 8, RoamingConfig::default());
    // Warm up: every device tracked, every shard's report list grown.
    let got = agg.round(&mut batch(DEVICES, 0, 0), 1);
    assert_eq!(got.len(), DEVICES as usize);
    assert_eq!(agg.devices_tracked(), DEVICES as usize);

    // The batches are built before counting: their payloads are the
    // gateways' allocations, not the round's.
    let mut small = batch(100, 1, 1 << 20);
    let mut large = batch(DEVICES, 2, 2 << 20);
    let (few, got_few) = allocations_in(|| agg.round(&mut small, 1));
    let (many, got_many) = allocations_in(|| agg.round(&mut large, 1));
    assert_eq!(got_few.len(), 100);
    assert_eq!(got_many.len(), DEVICES as usize);
    assert!(got_many.iter().all(|d| d.payload == [2; 12]));
    assert_eq!(agg.devices_tracked(), DEVICES as usize);

    // 9,900 more devices touched. The nine delivery lists (one per
    // shard plus the merged one) double about seven more times each,
    // and each shard's sort takes a buffer: ~64 more allocations. The
    // bound of 200 leaves room for another growth policy; one
    // allocation per device would add 9,900.
    let extra = many.saturating_sub(few);
    assert!(
        extra < 200,
        "a round of {DEVICES} messages allocated {many} times, one of 100 \
         allocated {few}: {extra} more, i.e. ~{:.2} per extra device",
        extra as f64 / f64::from(DEVICES - 100)
    );
}
