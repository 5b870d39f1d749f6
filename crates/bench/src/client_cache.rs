//! The client-side-caching comparator (Hotpot-class).

use std::collections::{BTreeMap, HashMap};

use gengar_core::error::GengarError;
use gengar_core::layout::lockword;
use gengar_core::pool::DshmPool;
use gengar_core::{GengarClient, GlobalPtr};

#[derive(Debug)]
struct Entry {
    version: u64,
    data: Vec<u8>,
    stamp: u64,
}

/// Cache-hit/miss counters for the comparator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCacheStats {
    /// Reads served from the local cache after version validation.
    pub hits: u64,
    /// Reads that went to the pool.
    pub misses: u64,
    /// Validation round trips that found a stale version.
    pub stale: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
}

/// A DSHM client that caches object payloads in *its own* DRAM.
///
/// Cache hits cost one 8-byte RDMA READ (version validation) instead of a
/// full-object READ; a miss is one versioned read
/// ([`GengarClient::read_versioned`]). The contrast with Gengar: each
/// client caches separately (no sharing across clients), every hit still
/// pays a round trip for validation, and writes must go through the home
/// node's lock/version protocol to keep validations sound.
#[derive(Debug)]
pub struct ClientCache {
    client: GengarClient,
    entries: HashMap<u64, Entry>,
    lru: BTreeMap<u64, u64>,
    used: u64,
    capacity: u64,
    next_stamp: u64,
    stats: ClientCacheStats,
}

impl ClientCache {
    /// Wraps `client` with a plain validate-on-hit LRU of `capacity` bytes
    /// (the contrast Gengar's admission/ghost/demotion machinery is
    /// measured against). `client` must run `Consistency::Seqlock`, so
    /// every write bumps the version a hit validates against.
    pub fn new(client: GengarClient, capacity: u64) -> ClientCache {
        ClientCache {
            client,
            entries: HashMap::new(),
            lru: BTreeMap::new(),
            used: 0,
            capacity,
            next_stamp: 0,
            stats: ClientCacheStats::default(),
        }
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> ClientCacheStats {
        self.stats
    }

    fn touch(&mut self, base: u64) {
        if let Some(e) = self.entries.get_mut(&base) {
            self.lru.remove(&e.stamp);
            self.next_stamp += 1;
            e.stamp = self.next_stamp;
            self.lru.insert(e.stamp, base);
        }
    }

    fn remove(&mut self, base: u64) {
        if let Some(e) = self.entries.remove(&base) {
            self.lru.remove(&e.stamp);
            self.used -= e.data.len() as u64;
        }
    }

    fn insert(&mut self, base: u64, version: u64, data: Vec<u8>) {
        if data.len() as u64 > self.capacity {
            return;
        }
        self.remove(base);
        while self.used + data.len() as u64 > self.capacity {
            let (_, &victim) = self.lru.iter().next().expect("used > 0 implies entries");
            self.remove(victim);
            self.stats.evictions += 1;
        }
        self.next_stamp += 1;
        self.used += data.len() as u64;
        self.lru.insert(self.next_stamp, base);
        self.entries.insert(
            base,
            Entry {
                version,
                data,
                stamp: self.next_stamp,
            },
        );
    }
}

impl DshmPool for ClientCache {
    fn alloc(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError> {
        self.client.alloc(server, size)
    }

    fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        self.remove(ptr.addr.raw());
        self.client.free(ptr)
    }

    fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError> {
        let base = ptr.addr.raw();
        // Validate a cached copy with a single 8-byte READ of the object's
        // lock/version word.
        if self.entries.contains_key(&base) {
            let word = self.client.read_lock_word(ptr)?;
            let entry = self.entries.get(&base).expect("checked above");
            if !lockword::is_locked(word) && lockword::version(word) == entry.version {
                let off = offset as usize;
                if off + buf.len() <= entry.data.len() {
                    buf.copy_from_slice(&entry.data[off..off + buf.len()]);
                    self.touch(base);
                    self.stats.hits += 1;
                    return Ok(());
                }
            }
            self.remove(base);
            self.stats.stale += 1;
        }
        // Miss: one versioned read fetches the whole object and the word
        // it was validated against.
        self.stats.misses += 1;
        let mut data = vec![0u8; ptr.size as usize];
        let word = self.client.read_versioned(ptr, 0, &mut data)?;
        buf.copy_from_slice(&data[offset as usize..offset as usize + buf.len()]);
        self.insert(base, lockword::version(word), data);
        Ok(())
    }

    fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError> {
        // Write-through with version bump (lock/unlock inside the client);
        // drop our copy so the next read revalidates.
        self.remove(ptr.addr.raw());
        self.client.write(ptr, offset, data)
    }

    fn cas_u64(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError> {
        // The CAS itself leaves the lock word alone; the release bumps the
        // version, so other clients' copies fail their next validation.
        self.remove(ptr.addr.raw());
        self.client.lock(ptr)?;
        let prev = self.client.cas_u64(ptr, offset, expected, new);
        self.client.unlock(ptr)?;
        prev
    }

    fn servers(&self) -> Vec<u8> {
        self.client.server_ids()
    }
}

#[cfg(test)]
mod tests {
    use gengar_core::cluster::Cluster;
    use gengar_core::config::ServerConfig;
    use gengar_rdma::FabricConfig;

    use super::*;
    use crate::exp::SystemKind;
    use crate::RunConfig;

    fn cluster() -> Cluster {
        let config = SystemKind::ClientCache.server_config(ServerConfig::small());
        Cluster::launch(1, config, FabricConfig::instant()).unwrap()
    }

    fn client(cluster: &Cluster, capacity: u64) -> ClientCache {
        let config = SystemKind::ClientCache.client_config(&RunConfig::default());
        ClientCache::new(cluster.client(config).unwrap(), capacity)
    }

    #[test]
    fn hits_after_first_read() {
        let cluster = cluster();
        let mut pool = client(&cluster, 1 << 20);
        let ptr = pool.alloc(0, 128).unwrap();
        pool.write(ptr, 0, &[4u8; 128]).unwrap();
        let mut buf = [0u8; 128];
        pool.read(ptr, 0, &mut buf).unwrap();
        assert_eq!(pool.cache_stats().misses, 1);
        for _ in 0..10 {
            pool.read(ptr, 0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 4));
        }
        assert_eq!(pool.cache_stats().hits, 10);
    }

    #[test]
    fn writes_invalidate_and_revalidate() {
        let cluster = cluster();
        let mut pool = client(&cluster, 1 << 20);
        let ptr = pool.alloc(0, 64).unwrap();
        pool.write(ptr, 0, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        pool.read(ptr, 0, &mut buf).unwrap();
        pool.write(ptr, 0, &[2u8; 64]).unwrap();
        pool.read(ptr, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn cross_client_writes_detected_by_version() {
        let cluster = cluster();
        let mut a = client(&cluster, 1 << 20);
        let mut b = client(&cluster, 1 << 20);
        let ptr = a.alloc(0, 64).unwrap();
        a.write(ptr, 0, &[1u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        b.read(ptr, 0, &mut buf).unwrap(); // b caches version v
        a.write(ptr, 0, &[9u8; 64]).unwrap(); // bumps the version
        b.read(ptr, 0, &mut buf).unwrap(); // validation must fail -> refetch
        assert!(buf.iter().all(|&b| b == 9), "stale client cache: {buf:?}");
        assert!(b.cache_stats().stale >= 1);
    }

    #[test]
    fn cross_client_cas_detected_by_version() {
        let cluster = cluster();
        let mut a = client(&cluster, 1 << 20);
        let mut b = client(&cluster, 1 << 20);
        let ptr = a.alloc(0, 64).unwrap();
        a.write(ptr, 0, &[0u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        b.read(ptr, 0, &mut buf).unwrap(); // b caches the zeros
        assert_eq!(a.cas_u64(ptr, 0, 0, 7).unwrap(), 0);
        b.read(ptr, 0, &mut buf).unwrap();
        assert_eq!(
            u64::from_le_bytes(buf[..8].try_into().unwrap()),
            7,
            "b served a stale copy after a's CAS"
        );
        assert!(b.cache_stats().stale >= 1);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let cluster = cluster();
        // Room for two 64-byte objects only.
        let mut pool = client(&cluster, 128);
        let mut buf = [0u8; 64];
        let ptrs: Vec<GlobalPtr> = (0..3).map(|_| pool.alloc(0, 64).unwrap()).collect();
        for p in &ptrs {
            pool.write(*p, 0, &[6u8; 64]).unwrap();
            pool.read(*p, 0, &mut buf).unwrap();
        }
        assert!(pool.used <= 128);
        assert!(pool.cache_stats().evictions >= 1);
    }
}
