//! Layer probes: each layer called alone, outside any workload, so a
//! per-layer cost can be read without the layers above it. Run once per
//! traced invocation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gengar_core::cache::CacheManager;
use gengar_core::hotness::{AccessEntry, HotnessMonitor};
use gengar_core::{CachePolicy, GlobalAddr, MemClass};
use gengar_hybridmem::latency::spin_for_ns;
use gengar_hybridmem::{DeviceProfile, MemDevice, MemKind, MemRegion};
use gengar_rdma::{Access, Endpoint, Fabric, FabricConfig, Payload, QpOptions, RemoteAddr, Sge};
use gengar_telemetry::{LatencyHistogram, TelemetryConfig};

use crate::stats::median;
use crate::trace::SpanLog;

const PAGE: u64 = 4096;

/// Median wall time of `f` over `iters` calls, after `iters / 5` unmeasured
/// ones, in nanoseconds. `f` gets the call's index, counted over both.
fn median_ns(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let warm = iters / 5;
    for i in 0..warm {
        f(i);
    }
    let samples: Vec<f64> = (warm..warm + iters)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Runs every probe, one span each, and returns `(metric, value)` pairs.
///
/// # Errors
///
/// A device, verbs or cache call that fails: the probes call the layers
/// the way their own tests do, so a failure is a defect, not a result.
pub fn run(log: &mut SpanLog) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let root = log.begin("probes", 0);
    let mut probe = |name: &'static str,
                     log: &mut SpanLog,
                     f: &mut dyn FnMut() -> Result<f64, String>|
     -> Result<(), String> {
        let span = log.begin(name, root.id);
        let value = f()?;
        log.end(span);
        out.push((name, value));
        Ok(())
    };
    let err = |e: &dyn std::fmt::Display| e.to_string();

    // hybridmem: the busy-wait floor under every modelled delay, then the
    // device models alone.
    probe("probe.hybridmem.spin_overshoot_ns", log, &mut || {
        Ok(median_ns(2000, |_| spin_for_ns(1000)) - 1000.0)
    })?;
    let device = |profile| MemDevice::new(0, profile, 1 << 20).map_err(|e| err(&e));
    let offset = |i: u32| u64::from(i % 64) * PAGE;
    let mut page = vec![0x5Au8; PAGE as usize];
    let nvm = device(DeviceProfile::optane())?;
    let dram = device(DeviceProfile::dram())?;
    probe("probe.hybridmem.nvm_read_4k_ns", log, &mut || {
        Ok(median_ns(500, |i| {
            nvm.read(offset(i), &mut page).expect("in range")
        }))
    })?;
    probe("probe.hybridmem.nvm_write_flush_4k_ns", log, &mut || {
        Ok(median_ns(500, |i| {
            nvm.write(offset(i), &page).expect("in range");
            nvm.flush(offset(i), PAGE).expect("in range");
        }))
    })?;
    probe("probe.hybridmem.dram_read_4k_ns", log, &mut || {
        Ok(median_ns(500, |i| {
            dram.read(offset(i), &mut page).expect("in range")
        }))
    })?;

    // rdma: one connected pair over remote DRAM and NVM, the bed of
    // `crates/bench/benches/verbs.rs`.
    let fabric = Fabric::new(FabricConfig {
        telemetry: TelemetryConfig::disabled(),
        ..FabricConfig::infiniband_100g()
    });
    let (client, server) = (fabric.add_node(), fabric.add_node());
    let (c_pd, s_pd) = (client.alloc_pd(), server.alloc_pd());
    let mr = |pd: &gengar_rdma::ProtectionDomain, profile| {
        let dev = Arc::new(device(profile)?);
        pd.reg_mr(MemRegion::whole(dev), Access::all())
            .map_err(|e| err(&e))
    };
    let local = mr(&c_pd, DeviceProfile::instant(MemKind::Dram))?;
    let remote_dram = mr(&s_pd, DeviceProfile::dram())?;
    let remote_nvm = mr(&s_pd, DeviceProfile::optane())?;
    let (ep, peer) = Endpoint::pair((&client, &c_pd), (&server, &s_pd), QpOptions::default())
        .map_err(|e| err(&e))?;
    let sge = |len| Sge::new(local.lkey(), 0, len);
    probe("probe.rdma.read_nvm_4k_ns", log, &mut || {
        Ok(median_ns(500, |_| {
            ep.read(sge(PAGE), RemoteAddr::new(remote_nvm.rkey(), 0))
                .expect("read verb");
        }))
    })?;
    probe("probe.rdma.write_nvm_4k_ns", log, &mut || {
        Ok(median_ns(500, |_| {
            ep.write(
                Payload::Sge(sge(PAGE)),
                RemoteAddr::new(remote_nvm.rkey(), 0),
            )
            .expect("write verb");
        }))
    })?;
    probe("probe.rdma.cas_ns", log, &mut || {
        Ok(median_ns(500, |_| {
            ep.compare_swap(sge(8), RemoteAddr::new(remote_dram.rkey(), 0), 0, 0)
                .expect("cas verb");
        }))
    })?;
    probe("probe.rdma.send_recv_ns", log, &mut || {
        Ok(median_ns(500, |_| {
            peer.post_recv(Sge::new(remote_dram.lkey(), PAGE, 64))
                .expect("post recv");
            ep.send(Payload::Sge(sge(64)), None).expect("send verb");
            peer.recv(Duration::from_secs(1)).expect("recv completion");
        }))
    })?;

    // core.cache: promote 4 KiB objects into an empty 16 MiB cache, then
    // look them up.
    let cache_dev =
        Arc::new(MemDevice::new(1, DeviceProfile::dram(), 16 << 20).map_err(|e| err(&e))?);
    let mut cache = CacheManager::with_policy(
        0,
        MemRegion::whole(cache_dev),
        None,
        CachePolicy::new().capacity(16 << 20),
        TelemetryConfig::disabled(),
    );
    const CACHED: u32 = 1200;
    let addr = |i: u32| GlobalAddr::new(0, MemClass::Nvm, u64::from(i % CACHED) * PAGE);
    probe("probe.core.cache.promote_4k_us", log, &mut || {
        let mut admitted = true;
        // 1000 measured after 200 unmeasured: every one a fresh address.
        let ns = median_ns(1000, |i| {
            admitted &= cache.promote(addr(i), &page, 4).expect("promote");
        });
        if admitted {
            Ok(ns / 1e3)
        } else {
            Err("an empty cache refused a promotion".to_owned())
        }
    })?;
    probe("probe.core.cache.lookup_ns", log, &mut || {
        let mut hits = 0u32;
        let ns = median_ns(2000, |i| {
            hits += u32::from(cache.lookup(addr(i).raw()).is_some())
        });
        if hits == 2400 {
            Ok(ns)
        } else {
            Err(format!("{hits} of 2400 lookups of promoted objects hit"))
        }
    })?;

    // core.hotness: one 128-entry access report, then an epoch fold over
    // 4096 addresses.
    let mut monitor = HotnessMonitor::with_policy(&CachePolicy::new(), TelemetryConfig::disabled());
    let entries = |n: u64| -> Vec<AccessEntry> {
        (0..n)
            .map(|i| AccessEntry {
                addr: i * PAGE,
                count: 2,
                wrote: false,
            })
            .collect()
    };
    let report = entries(128);
    probe("probe.core.hotness.record_ns_per_entry", log, &mut || {
        Ok(median_ns(500, |_| monitor.record(&report)) / 128.0)
    })?;
    let epoch = entries(4096);
    probe("probe.core.hotness.fold_epoch_us", log, &mut || {
        let samples: Vec<f64> = (0..50)
            .map(|_| {
                monitor.record(&epoch);
                let t0 = Instant::now();
                let folded = monitor.fold_epoch();
                let ns = t0.elapsed().as_nanos() as f64;
                assert_eq!(folded.len(), 4096);
                ns / 1e3
            })
            .collect();
        Ok(median(&samples))
    })?;

    // telemetry: the cost one histogram sample adds to an instrumented op.
    probe("probe.telemetry.hist_record_ns", log, &mut || {
        let hist = LatencyHistogram::new();
        const N: u64 = 1_000_000;
        let t0 = Instant::now();
        for i in 0..N {
            hist.record_ns(std::hint::black_box(i));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(hist.count(), N);
        Ok(ns / N as f64)
    })?;

    log.end(root);
    Ok(out)
}
