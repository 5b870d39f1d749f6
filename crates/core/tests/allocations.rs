//! DESIGN.md § Host cost of a round trip, rule 3: a warm call on the issue
//! path allocates nothing on the calling thread. A counting global
//! allocator (this binary's own) counts the allocations each thread makes
//! while it has counting switched on; every test switches it on around
//! 1 000 warm calls of one kind on an instant cluster and asserts none.
//!
//! The one issue-path step that allocates is the hotness report a client
//! writes every `report_every` accesses; the clients here set
//! `report_every` past the calls they make and flush reports by hand, and
//! `a_report_flush_allocates_a_pinned_amount` pins what a flush costs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use gengar_core::cache::CachePolicy;
use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, Consistency, ServerConfig};
use gengar_core::{GengarClient, GlobalPtr};
use gengar_rdma::FabricConfig;

struct Counting;

thread_local! {
    /// Whether this thread's allocations count, and how many have.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNTED: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNTED.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNTED.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    COUNTED.with(Cell::get)
}

const CALLS: u64 = 1_000;

#[test]
fn the_counter_counts_this_thread_only() {
    let n = allocations(|| {
        std::hint::black_box(Vec::<u8>::with_capacity(8));
        std::thread::spawn(|| std::hint::black_box(Vec::<u8>::with_capacity(8)))
            .join()
            .unwrap();
    });
    // The spawn allocates on this thread too; the child's vector does not
    // count.
    assert!(n >= 1);
    assert_eq!(allocations(|| drop(std::hint::black_box(vec![1u8]))), 1);
}

/// A client that writes no report on its own within a test.
fn client(cluster: &Cluster, consistency: Consistency) -> GengarClient {
    cluster
        .client(ClientConfig {
            consistency,
            report_every: u32::MAX,
            ..Default::default()
        })
        .unwrap()
}

/// Objects of 4 KiB on the cluster's two servers, written once.
fn objects(client: &mut GengarClient, n: usize) -> Vec<GlobalPtr> {
    let ptrs: Vec<_> = (0..n)
        .map(|i| client.alloc((i % 2) as u8, 4096).unwrap())
        .collect();
    for p in &ptrs {
        client.write(*p, 0, &[7; 4096]).unwrap();
    }
    client.drain_all().unwrap();
    ptrs
}

fn cluster() -> Cluster {
    Cluster::launch(2, ServerConfig::small(), FabricConfig::instant()).unwrap()
}

#[test]
fn warm_cache_hit_reads_allocate_nothing() {
    let cluster = cluster();
    let mut client = client(&cluster, Consistency::None);
    let ptrs = objects(&mut client, 2);
    let mut buf = [0u8; 4096];
    // Report the objects hot until the epoch has promoted them and a
    // mailbox has named their frames.
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits < 2 * CALLS {
        for p in &ptrs {
            client.read(*p, 0, &mut buf).unwrap();
        }
        client.flush_reports().unwrap();
        assert!(
            Instant::now() < deadline,
            "no promotion: {:?}",
            client.stats()
        );
    }
    let hits = client.stats().cache_hits;
    let n = allocations(|| {
        for i in 0..CALLS {
            client.read(ptrs[i as usize % 2], 0, &mut buf).unwrap();
        }
    });
    assert_eq!(client.stats().cache_hits - hits, CALLS, "every read hit");
    assert_eq!(n, 0, "allocations over {CALLS} cache-hit reads");
}

#[test]
fn warm_nvm_reads_allocate_nothing() {
    let cluster = cluster();
    let mut client = client(&cluster, Consistency::None);
    let ptrs = objects(&mut client, 2);
    let mut buf = [0u8; 4096];
    // No report: nothing is promoted, every read goes to NVM.
    let read = |client: &mut GengarClient, buf: &mut [u8]| {
        for i in 0..CALLS {
            client.read(ptrs[i as usize % 2], 0, buf).unwrap();
        }
    };
    read(&mut client, &mut buf);
    let nvm = client.stats().nvm_reads;
    let n = allocations(|| read(&mut client, &mut buf));
    assert_eq!(
        client.stats().nvm_reads - nvm,
        CALLS,
        "every read went to NVM"
    );
    assert_eq!(n, 0, "allocations over {CALLS} NVM reads");
}

#[test]
fn warm_staged_writes_allocate_nothing() {
    let cluster = cluster();
    let mut client = client(&cluster, Consistency::None);
    let ptrs = objects(&mut client, 8);
    let write = |client: &mut GengarClient| {
        for i in 0..CALLS {
            let p = ptrs[i as usize % ptrs.len()];
            client.write(p, 64, &i.to_le_bytes()).unwrap();
        }
    };
    write(&mut client);
    let staged = client.stats().staged_writes;
    let n = allocations(|| write(&mut client));
    assert_eq!(
        client.stats().staged_writes - staged,
        CALLS,
        "every write staged"
    );
    assert_eq!(n, 0, "allocations over {CALLS} staged writes");
}

#[test]
fn warm_seqlock_writes_allocate_nothing() {
    let cluster = cluster();
    let mut client = client(&cluster, Consistency::Seqlock);
    let ptrs = objects(&mut client, 2);
    let write = |client: &mut GengarClient| {
        for i in 0..CALLS {
            let p = ptrs[i as usize % 2];
            client.write(p, 64, &i.to_le_bytes()).unwrap();
        }
    };
    write(&mut client);
    let direct = client.stats().direct_writes;
    let n = allocations(|| write(&mut client));
    assert_eq!(
        client.stats().direct_writes - direct,
        CALLS,
        "every write went direct"
    );
    assert_eq!(n, 0, "allocations over {CALLS} Seqlock writes");
}

/// A `Seqlock` write that knows its object's frame fetches the frame's
/// header behind its lock CAS and refreshes the frame ahead of its unlock,
/// from the same op area: once warm, nothing allocates either.
#[test]
fn warm_seqlock_writes_that_refresh_frames_allocate_nothing() {
    let cluster = cluster();
    let mut client = client(&cluster, Consistency::Seqlock);
    let ptrs = objects(&mut client, 2);
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.stats().cache_hits < 2 * CALLS {
        for p in &ptrs {
            client.read(*p, 0, &mut buf).unwrap();
        }
        client.flush_reports().unwrap();
        assert!(
            Instant::now() < deadline,
            "no promotion: {:?}",
            client.stats()
        );
    }
    let mut data = [0u8; 4096];
    let mut write = |client: &mut GengarClient, round: u64| {
        for i in 0..CALLS {
            data[..8].copy_from_slice(&(round + i).to_le_bytes());
            client.write(ptrs[i as usize % 2], 0, &data).unwrap();
        }
    };
    write(&mut client, 0);
    let n = allocations(|| write(&mut client, CALLS));
    // The server heard of no write: only the writer refreshed the frames.
    let hits = client.stats().cache_hits;
    for (i, p) in ptrs.iter().enumerate() {
        client.read(*p, 0, &mut buf).unwrap();
        let last = 2 * CALLS - 2 + i as u64;
        assert_eq!(buf[..8], last.to_le_bytes());
    }
    assert_eq!(client.stats().cache_hits - hits, 2, "every frame refreshed");
    assert_eq!(n, 0, "allocations over {CALLS} Seqlock writes");
}

/// The hotness report, written every `report_every` accesses, is the one
/// issue-path step that allocates. Without a cache (no mailbox to fetch)
/// a flush costs a fixed count: one list of flights, then 11 per server
/// with pending accesses (its entry lists, the slot's encoding, its
/// doorbell's op list, the settled results and the cursor's landing
/// buffer).
#[test]
fn a_report_flush_allocates_a_pinned_amount() {
    let mut config = ServerConfig::small();
    config.cache = CachePolicy::disabled();
    let cluster = Cluster::launch(2, config, FabricConfig::instant()).unwrap();
    let mut client = client(&cluster, Consistency::None);
    let ptrs = objects(&mut client, 2);
    // Reads of whole objects: what the hotness monitor is told of.
    let mut buf = [0u8; 4096];
    client.flush_reports().unwrap();
    let mut flush = |servers: usize| {
        for p in &ptrs[..servers] {
            client.read(*p, 0, &mut buf).unwrap();
        }
        allocations(|| client.flush_reports().unwrap())
    };
    let (one, two) = (flush(1), flush(2));
    assert_eq!(
        (one, two),
        (12, 23),
        "allocations of a flush to one and two servers"
    );
}
