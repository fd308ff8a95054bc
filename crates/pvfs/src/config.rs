//! Calibrated software-path costs.
//!
//! All CPU charges live here so the whole reproduction is calibrated in one
//! place. The anchor measurements come from the paper's platform (800 MHz
//! Pentium-III, Linux 2.4): the paper reports the cache module's extra work
//! on a socket call at **under 400 µs per 4 KB block**, and the figure
//! levels imply a millisecond-scale fixed cost per libpvfs call.

use sim_core::Dur;

/// Per-operation CPU costs charged to node CPUs.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Sender-side cost of one socket send (syscall + TCP/IP stack).
    pub send_overhead: Dur,
    /// Receiver-side cost of one socket receive.
    pub recv_overhead: Dur,
    /// Fixed libpvfs cost per application-level call (request setup,
    /// partitioning, bookkeeping).
    pub client_request_overhead: Dur,
    /// Additional libpvfs cost per iod contacted in one call.
    pub client_per_iod_overhead: Dur,
    /// Client-side copy of arriving data to the user buffer, per 4 KB.
    pub client_copy_per_block: Dur,
    /// iod cost to parse and set up one request.
    pub iod_request_overhead: Dur,
    /// iod copy cost per 4 KB moved between page cache and socket.
    pub iod_copy_per_block: Dur,
    /// mgr cost per metadata request.
    pub mgr_request_overhead: Dur,
    /// Cache module: hash lookup per block (paid hit or miss).
    pub cache_lookup_per_block: Dur,
    /// Cache module: copy of one cached 4 KB block to/from user space.
    /// lookup + copy is the paper's "< 400 us per 4 KB block".
    pub cache_copy_per_block: Dur,
    /// Cache module: insert/bookkeeping per block on the miss path.
    pub cache_insert_per_block: Dur,
    /// Cache module: fixed FSM cost per intercepted socket call.
    pub cache_call_overhead: Dur,
}

impl CostModel {
    /// Values for the paper's 800 MHz P-III / Linux 2.4 platform.
    pub fn pentium3_800() -> CostModel {
        CostModel {
            send_overhead: Dur::micros(150),
            recv_overhead: Dur::micros(150),
            client_request_overhead: Dur::micros(900),
            client_per_iod_overhead: Dur::micros(200),
            client_copy_per_block: Dur::micros(40),
            iod_request_overhead: Dur::micros(400),
            iod_copy_per_block: Dur::micros(40),
            mgr_request_overhead: Dur::micros(200),
            cache_lookup_per_block: Dur::micros(30),
            cache_copy_per_block: Dur::micros(320),
            cache_insert_per_block: Dur::micros(40),
            cache_call_overhead: Dur::micros(25),
        }
    }

    /// The paper's headline number: full cache service cost of one 4 KB
    /// block on a socket call (lookup + copy). Must stay under 400 µs.
    pub fn cache_block_service(&self) -> Dur {
        self.cache_lookup_per_block + self.cache_copy_per_block
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::pentium3_800()
    }
}

/// PVFS deployment settings.
#[derive(Debug, Clone)]
pub struct PvfsConfig {
    /// iod page cache capacity, in 4 KB pages (server-side OS cache).
    pub iod_page_cache_pages: usize,
}

impl Default for PvfsConfig {
    fn default() -> Self {
        PvfsConfig {
            iod_page_cache_pages: 8192, // 32 MB of the node's 128 MB
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_service_under_papers_bound() {
        let c = CostModel::pentium3_800();
        assert!(
            c.cache_block_service() < Dur::micros(400),
            "cache block service {} exceeds the paper's 400us bound",
            c.cache_block_service()
        );
    }

    #[test]
    fn defaults_are_sane() {
        let p = PvfsConfig::default();
        assert!(p.iod_page_cache_pages * 4096 <= 64 * 1024 * 1024, "page cache fits in node RAM");
    }
}
