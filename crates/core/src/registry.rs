//! Device identities.
//!
//! §6: "The messages generated by IoT devices must contain unique
//! identifiers so that they can be distinguished from each other." An
//! identity binds a 32-bit device id to a deterministic locally
//! administered MAC address and (for the security extension) a 256-bit
//! key derived from a deployment-wide provisioning secret.

use wile_crypto::sha256::Sha256;
use wile_dot11::MacAddr;

/// One provisioned Wi-LE device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceIdentity {
    /// The unique device id carried in every message header.
    pub device_id: u32,
    /// The source/BSSID address its beacons use.
    pub mac: MacAddr,
    key: Option<[u8; 32]>,
}

impl DeviceIdentity {
    /// An unkeyed identity (plaintext messages).
    pub fn new(device_id: u32) -> Self {
        DeviceIdentity {
            device_id,
            mac: MacAddr::from_device_id(device_id),
            key: None,
        }
    }

    /// A keyed identity: key = SHA-256(provisioning_secret ‖ device_id).
    pub fn with_key(device_id: u32, provisioning_secret: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(provisioning_secret);
        h.update(&device_id.to_be_bytes());
        DeviceIdentity {
            device_id,
            mac: MacAddr::from_device_id(device_id),
            key: Some(h.finalize()),
        }
    }

    /// The device key, if provisioned.
    pub(crate) fn key(&self) -> Option<&[u8; 32]> {
        self.key.as_ref()
    }
}

/// The gateway-side registry: device id → identity (and key).
#[derive(Debug, Default)]
pub struct Registry {
    devices: std::collections::HashMap<u32, DeviceIdentity>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a device.
    pub fn add(&mut self, identity: DeviceIdentity) {
        self.devices.insert(identity.device_id, identity);
    }

    /// Look up a device.
    pub fn get(&self, device_id: u32) -> Option<&DeviceIdentity> {
        self.devices.get(&device_id)
    }

    /// Deregister a device, returning its identity if it was present.
    /// Cluster deployments call this when evicting a device that went
    /// stale (no beacon heard by any gateway for the idle horizon), so
    /// the registry tracks the live fleet rather than growing forever.
    pub fn remove(&mut self, device_id: u32) -> Option<DeviceIdentity> {
        self.devices.remove(&device_id)
    }

    /// Iterate over all registered identities. Order is unspecified
    /// (hash order); callers that need determinism should sort by
    /// [`DeviceIdentity::device_id`] — see [`Registry::device_ids`].
    pub fn iter(&self) -> impl Iterator<Item = &DeviceIdentity> {
        self.devices.values()
    }

    /// All registered device ids, sorted ascending — the deterministic
    /// companion to [`Registry::iter`] for reports and handoff
    /// bookkeeping.
    pub fn device_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.devices.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Provision `n` keyed devices with consecutive ids starting at 1.
    pub fn provision_fleet(secret: &[u8], n: u32) -> Self {
        let mut r = Registry::new();
        for id in 1..=n {
            r.add(DeviceIdentity::with_key(id, secret));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mac_is_deterministic_and_unique() {
        let a = DeviceIdentity::new(1);
        let b = DeviceIdentity::new(2);
        assert_eq!(a, DeviceIdentity::new(1));
        assert_ne!(a.mac, b.mac);
        assert!(a.mac.is_locally_administered());
    }

    #[test]
    fn keys_differ_per_device_and_secret() {
        let a = DeviceIdentity::with_key(1, b"deploy-secret");
        let b = DeviceIdentity::with_key(2, b"deploy-secret");
        let c = DeviceIdentity::with_key(1, b"other-secret");
        assert_ne!(a.key(), b.key());
        assert_ne!(a.key(), c.key());
        assert_eq!(a.key(), DeviceIdentity::with_key(1, b"deploy-secret").key());
    }

    #[test]
    fn unkeyed_identity_has_no_key() {
        assert!(DeviceIdentity::new(5).key().is_none());
    }

    #[test]
    fn remove_deregisters_and_returns_identity() {
        let mut r = Registry::provision_fleet(b"s", 3);
        let gone = r.remove(2).expect("device 2 was provisioned");
        assert_eq!(gone.device_id, 2);
        assert_eq!(gone.key(), DeviceIdentity::with_key(2, b"s").key());
        assert!(r.get(2).is_none());
        assert_eq!(r.len(), 2);
        // Removing again (or an unknown id) is a clean no-op.
        assert!(r.remove(2).is_none());
        assert!(r.remove(99).is_none());
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn iter_walks_every_identity() {
        let mut r = Registry::provision_fleet(b"s", 5);
        let mut ids: Vec<u32> = r.iter().map(|d| d.device_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        assert_eq!(r.device_ids(), vec![1, 2, 3, 4, 5]);
        assert!(r.iter().all(|d| d.key().is_some()));
        r.remove(3);
        assert_eq!(r.device_ids(), vec![1, 2, 4, 5]);
        assert_eq!(r.iter().count(), 4);
    }

    #[test]
    fn fleet_provisioning() {
        let r = Registry::provision_fleet(b"s", 10);
        assert_eq!(r.len(), 10);
        assert!(r.get(1).is_some() && r.get(10).is_some());
        assert!(r.get(0).is_none() && r.get(11).is_none());
        assert!(r.get(3).unwrap().key().is_some());
    }
}
