//! Flash-storage model (UFS-class device).
//!
//! PCMark Storage and Antutu Mem exercise internal/external storage and
//! database IO; the model turns demanded IO rates into device busy
//! fractions and effective throughput, distinguishing sequential from
//! random access.

use crate::config::StorageConfig;

/// Access pattern of an IO stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoPattern {
    /// Large sequential transfers.
    Sequential,
    /// Small scattered transfers (database/SQLite-style).
    Random,
}

/// Storage work demanded for one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoDemand {
    /// Read rate demanded, in MB/s.
    pub read_mbps: f64,
    /// Write rate demanded, in MB/s.
    pub write_mbps: f64,
    /// Access pattern.
    pub pattern: IoPattern,
}

impl IoDemand {
    /// A sequential stream reading and writing at the given rates.
    pub fn sequential(read_mbps: f64, write_mbps: f64) -> Self {
        IoDemand {
            read_mbps,
            write_mbps,
            pattern: IoPattern::Sequential,
        }
    }

    /// A random-access stream reading and writing at the given rates.
    pub fn random(read_mbps: f64, write_mbps: f64) -> Self {
        IoDemand {
            read_mbps,
            write_mbps,
            pattern: IoPattern::Random,
        }
    }
}

/// Per-tick output of the storage model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StorageTickResult {
    /// Device busy fraction in `[0, 1]`.
    pub busy: f64,
    /// Read throughput actually delivered, in MB/s.
    pub read_mbps: f64,
    /// Write throughput actually delivered, in MB/s.
    pub write_mbps: f64,
}

/// Runtime model of the flash storage device.
#[derive(Debug, Clone)]
pub struct Storage {
    config: StorageConfig,
}

impl Storage {
    /// Build the runtime model from a validated configuration.
    pub fn new(config: StorageConfig) -> Self {
        Storage { config }
    }

    /// The device's static configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Serve the demanded IO for one tick. Demands beyond device limits
    /// saturate: the device runs 100% busy and delivers its peak rates.
    pub fn tick(&self, demand: Option<&IoDemand>) -> StorageTickResult {
        let Some(demand) = demand else {
            return StorageTickResult::default();
        };
        let (peak_read, peak_write) = match demand.pattern {
            IoPattern::Sequential => (self.config.seq_read_mbps, self.config.seq_write_mbps),
            IoPattern::Random => (self.config.rand_read_mbps, self.config.rand_write_mbps),
        };
        let read = demand.read_mbps.clamp(0.0, peak_read);
        let write = demand.write_mbps.clamp(0.0, peak_write);
        // Reads and writes share the device; busy fractions add.
        let busy = (read / peak_read + write / peak_write).clamp(0.0, 1.0);
        StorageTickResult {
            busy,
            read_mbps: read,
            write_mbps: write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocConfig;

    fn storage() -> Storage {
        Storage::new(SocConfig::snapdragon_888().storage)
    }

    #[test]
    fn no_demand_is_idle() {
        let r = storage().tick(None);
        assert_eq!(r.busy, 0.0);
        assert_eq!(r.read_mbps, 0.0);
    }

    #[test]
    fn sequential_faster_than_random() {
        let s = storage();
        let seq = s.tick(Some(&IoDemand::sequential(5000.0, 5000.0)));
        let rnd = s.tick(Some(&IoDemand::random(5000.0, 5000.0)));
        assert!(seq.read_mbps > rnd.read_mbps);
        assert!(seq.write_mbps > rnd.write_mbps);
    }

    #[test]
    fn saturation_caps_throughput_and_busy() {
        let s = storage();
        let r = s.tick(Some(&IoDemand::sequential(1.0e6, 1.0e6)));
        assert_eq!(r.read_mbps, s.config().seq_read_mbps);
        assert_eq!(r.write_mbps, s.config().seq_write_mbps);
        assert_eq!(r.busy, 1.0);
    }

    #[test]
    fn light_demand_partial_busy() {
        let s = storage();
        let r = s.tick(Some(&IoDemand::sequential(210.0, 0.0)));
        assert!((r.busy - 0.1).abs() < 1e-9);
    }

    #[test]
    fn mixed_read_write_busy_adds() {
        let s = storage();
        let half_read = s.config().seq_read_mbps / 2.0;
        let half_write = s.config().seq_write_mbps / 2.0;
        let r = s.tick(Some(&IoDemand::sequential(half_read, half_write)));
        assert!((r.busy - 1.0).abs() < 1e-9);
    }
}
