//! `gengar-top` — a live terminal view of cluster health, fed entirely by
//! the `Inspect` admin RPC.
//!
//! ```sh
//! cargo run -p gengar-bench --release --bin gengar-top            # live view
//! cargo run -p gengar-bench --bin gengar-top -- --once --json    # one doc/server
//! cargo run -p gengar-bench --bin gengar-top -- --prom          # exposition
//! ```
//!
//! The binary launches its own demo cluster over the in-process simulated
//! fabric, drives a background read/write workload against every server,
//! and polls each server's `Inspect` RPC once per refresh — exactly the
//! loop an external dashboard would run, minus the sockets. Each refresh
//! renders overall/per-component health, the newest window digest
//! (ops, p99s, errors, backlog, mirror lag) and any alerting SLOs.
//!
//! Flags:
//! - `--servers N`   cluster size (default 2)
//! - `--interval MS` refresh period (default 500)
//! - `--ticks N`     refresh count, then exit (default: until killed)
//! - `--once`        shorthand for `--ticks 1` without screen clearing
//! - `--json`        print the raw inspect documents, one per line,
//!   instead of rendering (`--once --json` feeds the `inspectcheck` gate)
//! - `--prom`        print the Prometheus exposition of the registry
//!   snapshot each tick instead of rendering
//! - `--flap`        flap one client<->server link so the view shows a
//!   real Degraded/Critical episode and recovery

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gengar_core::cluster::Cluster;
use gengar_core::config::{ClientConfig, ServerConfig};
use gengar_core::health::COMPONENTS;
use gengar_rdma::{FabricConfig, FaultPlane, PartitionFlap};
use gengar_telemetry::{json_field_num, json_field_str, prometheus_text, Registry};

/// ANSI-colours a health state word for the terminal.
fn paint(state: &str) -> String {
    match state {
        "healthy" => format!("\x1b[32m{state:<8}\x1b[0m"),
        "degraded" => format!("\x1b[33m{state:<8}\x1b[0m"),
        "critical" => format!("\x1b[31m{state:<8}\x1b[0m"),
        other => format!("{other:<8}"),
    }
}

/// Renders one server's inspect document as rows of the live view.
fn render_server(doc: &str) {
    let server = json_field_num(doc, 0, "server").unwrap_or(-1);
    let tick = json_field_num(doc, 0, "tick").unwrap_or(0);
    let overall = json_field_str(doc, 0, "overall").unwrap_or("?");
    print!("server {server}  tick {tick:<6} overall {}", paint(overall));

    // Component states, in the order the plane defines them.
    for name in COMPONENTS {
        let pat = format!("\"{name}\":{{");
        let state = doc
            .find(&pat)
            .and_then(|at| json_field_str(doc, at, "state"))
            .unwrap_or("?");
        print!("  {name} {}", paint(state));
    }
    println!();

    // Newest window digest (windows are serialized newest-first).
    if let Some(at) = doc.find("\"windows\":[{") {
        let ops = json_field_num(doc, at, "ops").unwrap_or(0);
        let rp99 = json_field_num(doc, at, "read_p99_us").unwrap_or(0);
        let wp99 = json_field_num(doc, at, "write_p99_us").unwrap_or(0);
        let err = json_field_num(doc, at, "err").unwrap_or(0);
        let backlog = json_field_num(doc, at, "backlog").unwrap_or(0);
        let lag = json_field_num(doc, at, "lag").unwrap_or(0);
        println!(
            "          window: ops {ops:<7} read_p99 {rp99:>5}us  \
             write_p99 {wp99:>5}us  err {err:<4} backlog {backlog:<4} lag {lag}"
        );
    }

    // Alerting SLOs only; a quiet plane prints nothing here.
    let mut at = 0;
    while let Some(rel) = doc[at..].find("\"alerting\":true") {
        let hit = at + rel;
        // Walk back to this SLO entry's opening brace to read its fields.
        let start = doc[..hit].rfind('{').unwrap_or(0);
        let name = json_field_str(doc, start, "name").unwrap_or("?");
        println!("          \x1b[31mSLO ALERT\x1b[0m {name} burning its error budget");
        at = hit + 1;
    }
}

fn main() {
    let mut servers = 2usize;
    let mut interval = Duration::from_millis(500);
    let mut ticks: Option<u64> = None;
    let mut once = false;
    let mut json = false;
    let mut prom = false;
    let mut flap = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--servers" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => servers = n,
                _ => die("--servers needs a count >= 1"),
            },
            "--interval" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms >= 10 => interval = Duration::from_millis(ms),
                _ => die("--interval needs milliseconds >= 10"),
            },
            "--ticks" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => ticks = Some(n),
                _ => die("--ticks needs a count >= 1"),
            },
            "--once" => once = true,
            "--json" => json = true,
            "--prom" => prom = true,
            "--flap" => flap = true,
            other => die(&format!("unknown flag: {other}")),
        }
    }
    if once {
        ticks = Some(1);
    }

    // The demo cluster: health plane on with a fast tick so the view has
    // fresh windows at human refresh rates, faults armed only for --flap.
    let fault_plane = Arc::new(FaultPlane::new(11));
    let mut fabric = FabricConfig::infiniband_100g();
    if flap {
        fabric.faults = Some(Arc::clone(&fault_plane));
    }
    let mut config = ServerConfig::small();
    config.health.enabled = true;
    config.health.tick = Duration::from_millis(50);
    let cluster = Arc::new(Cluster::launch(servers, config, fabric).expect("cluster launch"));

    // Background workload: one thread per server keeps its data path warm
    // so every window digest carries real ops and latencies.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..servers as u8)
        .map(|s| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = cluster
                    .client(ClientConfig {
                        max_retries: 16,
                        ..Default::default()
                    })
                    .expect("workload client");
                let ptr = client.alloc(s, 1024).expect("workload alloc");
                let mut buf = [0u8; 1024];
                let mut i = 0u8;
                while !stop.load(Ordering::Relaxed) {
                    // Faulted links make individual ops fail past their
                    // retry budget; the loop carries on so the view can
                    // show the episode and the recovery.
                    let _ = client.write(ptr, 0, &[i; 1024]);
                    for _ in 0..8 {
                        let _ = client.read(ptr, 0, &mut buf);
                    }
                    i = i.wrapping_add(1);
                }
            })
        })
        .collect();

    if flap {
        // Flap the first client<->server link: blocked 10 of every 40
        // sends, enough for the clients component to walk to Degraded
        // while the workload keeps (retrying and) flowing.
        let server_node = cluster.server(0).expect("server 0").node().id();
        let client_node = cluster
            .client(ClientConfig::default())
            .expect("probe client")
            .node()
            .id();
        fault_plane.add_flap(PartitionFlap::on_link(client_node, server_node, 40, 10));
    }

    let mut poller = cluster.client(ClientConfig::default()).expect("poller");
    let mut n = 0u64;
    loop {
        std::thread::sleep(interval);
        let docs: Vec<String> = (0..servers as u8)
            .map(|s| poller.inspect(s).expect("inspect rpc"))
            .collect();
        if json {
            for doc in &docs {
                println!("{doc}");
            }
        } else if prom {
            print!("{}", prometheus_text(&Registry::global().snapshot()));
        } else {
            if !once {
                // Clear and home — the classic top(1) repaint.
                print!("\x1b[2J\x1b[H");
            }
            println!(
                "gengar-top — {servers} server(s), refresh {}ms{}  (ctrl-c to quit)",
                interval.as_millis(),
                if flap { ", link flap armed" } else { "" }
            );
            println!();
            for doc in &docs {
                render_server(doc);
            }
        }
        n += 1;
        if ticks == Some(n) {
            break;
        }
    }

    stop.store(true, Ordering::Relaxed);
    for w in workers {
        let _ = w.join();
    }
    cluster.shutdown();
}

fn die(msg: &str) -> ! {
    eprintln!("gengar-top: {msg}");
    eprintln!(
        "usage: gengar-top [--servers N] [--interval MS] [--ticks N] \
         [--once] [--json] [--prom] [--flap]"
    );
    std::process::exit(2);
}
