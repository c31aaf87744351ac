//! Load generator for the tuning-service daemon.
//!
//! ```text
//! lego-served-load [--clients K] [--requests N] [--mix H:C:W]
//!                  [--devices a100,h100] [--sidecar PATH]
//! ```
//!
//! Spins up an embedded daemon on an ephemeral port (workers sized to
//! the client count, so every client can be served concurrently), then
//! drives four phases over K persistent connections:
//!
//! 1. **herd** — every client fires the *same* fresh request through a
//!    barrier: the coalescing tier must collapse the herd onto exactly
//!    one search, and every response line must be byte-identical;
//! 2. **cold** — distinct workload/device keys, each a fresh search;
//! 3. **warm** — the cold keys replayed, served from the memory tier;
//! 4. **rewarm** — the daemon is shut down (flushing its memo sidecar),
//!    a *new* daemon restarts against a fresh cache but the same
//!    sidecar, and the cold keys are replayed as fresh searches: the
//!    responses must be byte-identical to phase 2's and the metrics
//!    must report `sidecar_warm_hits > 0` — cross-process proof that
//!    persisted derived results re-warm a restarted service.
//!
//! Emits `BENCH_served.json` (per-phase QPS, client-side p50/p99,
//! per-tier hit counts, coalescing ratio) via the standard bench-emit
//! conventions, and exits nonzero if a phase invariant fails — CI runs
//! this binary as the service smoke test.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use lego_served::client::{is_ok, Client};
use lego_served::{Server, ServerConfig, TuneSpec};
use lego_tune::{emit, Json};

const USAGE: &str =
    "lego-served-load: drive a herd/cold/warm request mix at an embedded lego-served daemon

usage: lego-served-load [options]

options:
  --clients K       concurrent client connections (default 8)
  --requests N      total tune requests across all phases (default 120)
  --mix H:C:W       herd:cold:warm request-count weights (default 1:3:1)
  --devices LIST    comma-separated device tags to spread cold keys over
                    (default a100,h100)
  --sidecar PATH    persistent memo-sidecar file used for the
                    restart-rewarm phase; kept after the run when given
                    (default: a temp file, removed afterwards)
  --help            print this help

exit status: 0 on success, 1 if a serving invariant fails, 2 on bad usage";

fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return match args.next() {
                Some(v) if !v.starts_with("--") => Some(v),
                _ => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            };
        }
    }
    None
}

fn usize_flag(flag: &str, default: usize) -> usize {
    match flag_value(flag) {
        None => default,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("{flag} requires a positive integer, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// One phase's client-side observations.
struct PhaseResult {
    name: &'static str,
    requests: usize,
    wall_s: f64,
    latencies_ms: Vec<f64>,
    responses: Vec<String>,
    /// Server tier counters diffed across the phase (memory, cache,
    /// coalesced, searched).
    tier_diff: [i64; 4],
}

fn tier_counts(metrics: &Json) -> [i64; 4] {
    let tiers = metrics.get("tiers").expect("metrics carries tiers");
    ["memory", "cache", "coalesced", "searched"]
        .map(|k| tiers.get(k).and_then(Json::as_i64).unwrap_or(0))
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Runs one phase: client `i` sends `plans[i]` sequentially, all
/// clients released together by a barrier.
fn run_phase(
    name: &'static str,
    addr: std::net::SocketAddr,
    service: &lego_served::TuneService,
    plans: Vec<Vec<TuneSpec>>,
    failed: &AtomicBool,
) -> PhaseResult {
    let before = tier_counts(&service.metrics().to_json());
    let barrier = Arc::new(Barrier::new(plans.len()));
    let t0 = Instant::now();
    let handles: Vec<_> = plans
        .into_iter()
        .map(|plan| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect to embedded daemon");
                barrier.wait();
                let mut out = Vec::with_capacity(plan.len());
                for spec in &plan {
                    let t = Instant::now();
                    let response = client.tune(spec).expect("tune roundtrip");
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    out.push((ms, response));
                }
                out
            })
        })
        .collect();
    let mut latencies_ms = Vec::new();
    let mut responses = Vec::new();
    for h in handles {
        for (ms, response) in h.join().expect("client thread") {
            if !is_ok(&response) {
                eprintln!("[{name}] request failed: {}", response.render());
                failed.store(true, Ordering::SeqCst);
            }
            latencies_ms.push(ms);
            responses.push(response.render());
        }
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    let after = tier_counts(&service.metrics().to_json());
    let mut tier_diff = [0i64; 4];
    for i in 0..4 {
        tier_diff[i] = after[i] - before[i];
    }
    PhaseResult {
        name,
        requests: responses.len(),
        wall_s,
        latencies_ms,
        responses,
        tier_diff,
    }
}

fn phase_row(p: &PhaseResult) -> Json {
    let mut sorted = p.latencies_ms.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Json::obj([
        ("phase", Json::Str(p.name.to_string())),
        ("requests", Json::Int(p.requests as i64)),
        ("qps", Json::num(p.requests as f64 / p.wall_s)),
        ("p50_ms", Json::num(percentile(&sorted, 0.50))),
        ("p99_ms", Json::num(percentile(&sorted, 0.99))),
        ("memory_hits", Json::Int(p.tier_diff[0])),
        ("cache_hits", Json::Int(p.tier_diff[1])),
        ("coalesced", Json::Int(p.tier_diff[2])),
        ("searched", Json::Int(p.tier_diff[3])),
        (
            "hit_rate",
            Json::num(
                (p.tier_diff[0] + p.tier_diff[1] + p.tier_diff[2]) as f64
                    / (p.requests.max(1)) as f64,
            ),
        ),
    ])
}

/// The cold pool: `count` distinct (workload, device) keys spread over
/// cheap-to-search families and the requested devices.
fn cold_pool(count: usize, devices: &[String]) -> Vec<TuneSpec> {
    (0..count)
        .map(|i| {
            let step = (i / 3) as i64;
            // Small per-step growth keeps every key distinct without
            // letting the trace cost of the largest sizes dominate.
            let workload = match i % 3 {
                0 => format!("transpose(n={})", 256 + 16 * step),
                1 => format!("softmax(m={},n=256)", 8 + 8 * step),
                _ => format!("nw(n={},b=16)", 64 + 16 * step),
            };
            TuneSpec {
                workload,
                device: Some(devices[i % devices.len()].clone()),
                ..TuneSpec::default()
            }
        })
        .collect()
}

/// Deals `specs` round-robin into `clients` per-client plans.
fn deal(specs: Vec<TuneSpec>, clients: usize) -> Vec<Vec<TuneSpec>> {
    let mut plans = vec![Vec::new(); clients];
    for (i, spec) in specs.into_iter().enumerate() {
        plans[i % clients].push(spec);
    }
    plans
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    const VALUE_FLAGS: [&str; 5] = ["--clients", "--requests", "--mix", "--devices", "--sidecar"];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            let _ = it.next();
        } else {
            eprintln!("unknown argument {a:?}\n\n{USAGE}");
            std::process::exit(2);
        }
    }

    let clients = usize_flag("--clients", 8);
    let requests = usize_flag("--requests", 120);
    let mix = flag_value("--mix").unwrap_or_else(|| "1:3:1".to_string());
    let weights: Vec<usize> = mix
        .split(':')
        .map(|p| p.parse::<usize>().unwrap_or(0))
        .collect();
    if weights.len() != 3 || weights.iter().sum::<usize>() == 0 {
        eprintln!("--mix must be H:C:W with nonnegative integer weights, got {mix:?}");
        std::process::exit(2);
    }
    let devices: Vec<String> = flag_value("--devices")
        .unwrap_or_else(|| "a100,h100".to_string())
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    for d in &devices {
        if gpu_sim::lookup(d).is_none() {
            eprintln!(
                "unknown device {d:?} in --devices (use {})",
                gpu_sim::DEVICE_TAGS.join("|")
            );
            std::process::exit(2);
        }
    }

    let total_w: usize = weights.iter().sum();
    // Herd needs at least the full client count to exercise coalescing.
    let herd_n = (requests * weights[0] / total_w).max(clients);
    let cold_n = (requests * weights[1] / total_w).max(1);
    let warm_n = (requests * weights[2] / total_w).max(1);

    let cache_path =
        std::env::temp_dir().join(format!("lego_served_load_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&cache_path);
    let sidecar_flag = flag_value("--sidecar").map(PathBuf::from);
    let keep_sidecar = sidecar_flag.is_some();
    let sidecar_path = sidecar_flag.unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "lego_served_load_sidecar_{}.txt",
            std::process::id()
        ))
    });
    // The first daemon must start cold so the rewarm phase measures
    // what *this run's* shutdown flush persisted.
    let _ = std::fs::remove_file(&sidecar_path);

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: clients,
        cache: Some(PathBuf::from(&cache_path)),
        sidecar: Some(sidecar_path.clone()),
        device_default: gpu_sim::a100(),
    })
    .expect("bind embedded daemon");
    let addr = server.local_addr();
    let service = server.service();
    println!(
        "lego-served-load: embedded daemon on {addr}, {clients} clients, \
         mix herd={herd_n} cold={cold_n} warm={warm_n}"
    );

    let failed = AtomicBool::new(false);

    // Phase 1: herd — one identical fresh request per slot.
    let herd_spec = TuneSpec::workload("lud(n=512,bs=16)");
    let herd = run_phase(
        "herd",
        addr,
        &service,
        deal(vec![herd_spec; herd_n], clients),
        &failed,
    );
    if herd.tier_diff[3] != 1 {
        eprintln!(
            "INVARIANT VIOLATED: herd of {} ran {} searches (want exactly 1)",
            herd.requests, herd.tier_diff[3]
        );
        failed.store(true, Ordering::SeqCst);
    }
    if let Some(first) = herd.responses.first() {
        if herd.responses.iter().any(|r| r != first) {
            eprintln!("INVARIANT VIOLATED: herd responses are not byte-identical");
            failed.store(true, Ordering::SeqCst);
        }
    }
    let coalescing_ratio = herd.requests as f64 / herd.tier_diff[3].max(1) as f64;
    if coalescing_ratio <= 1.0 {
        eprintln!("INVARIANT VIOLATED: coalescing ratio {coalescing_ratio} must exceed 1");
        failed.store(true, Ordering::SeqCst);
    }

    // Phase 2: cold — distinct keys, each a fresh search.
    let pool = cold_pool(cold_n, &devices);
    let cold = run_phase("cold", addr, &service, deal(pool.clone(), clients), &failed);
    if cold.tier_diff[3] != cold_n as i64 {
        eprintln!(
            "INVARIANT VIOLATED: {} distinct cold keys ran {} searches",
            cold_n, cold.tier_diff[3]
        );
        failed.store(true, Ordering::SeqCst);
    }

    // Phase 3: warm — replay the cold keys; everything must come from
    // the memory tier.
    let warm_specs: Vec<TuneSpec> = (0..warm_n).map(|i| pool[i % pool.len()].clone()).collect();
    let warm = run_phase("warm", addr, &service, deal(warm_specs, clients), &failed);
    if warm.tier_diff[0] != warm_n as i64 {
        eprintln!(
            "INVARIANT VIOLATED: {} warm replays got {} memory hits",
            warm_n, warm.tier_diff[0]
        );
        failed.store(true, Ordering::SeqCst);
    }

    // Shut the daemon down cleanly and flush the cache.
    let mut ctl = Client::connect(addr).expect("connect for shutdown");
    let bye = ctl.shutdown().expect("shutdown roundtrip");
    if !is_ok(&bye) {
        eprintln!(
            "INVARIANT VIOLATED: shutdown not acknowledged: {}",
            bye.render()
        );
        failed.store(true, Ordering::SeqCst);
    }
    server.join().expect("daemon drain + cache flush");
    if !cache_path.exists() {
        eprintln!("INVARIANT VIOLATED: cache file was not flushed on shutdown");
        failed.store(true, Ordering::SeqCst);
    }
    let _ = std::fs::remove_file(&cache_path);
    if !sidecar_path.exists() {
        eprintln!("INVARIANT VIOLATED: memo sidecar was not flushed on shutdown");
        failed.store(true, Ordering::SeqCst);
    }

    // Phase 4: restart-rewarm — a new daemon against a *fresh* cache
    // (so the replays run real searches, not memory/cache hits) but the
    // first daemon's sidecar. The searches must be byte-identical to
    // the cold phase's and must hit the re-warmed memo tables.
    let cache2_path = std::env::temp_dir().join(format!(
        "lego_served_load_{}_rewarm.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache2_path);
    let server2 = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: clients,
        cache: Some(cache2_path.clone()),
        sidecar: Some(sidecar_path.clone()),
        device_default: gpu_sim::a100(),
    })
    .expect("bind restarted daemon");
    let addr2 = server2.local_addr();
    let service2 = server2.service();
    let rewarm = run_phase(
        "rewarm",
        addr2,
        &service2,
        deal(pool.clone(), clients),
        &failed,
    );
    if rewarm.tier_diff[3] != cold_n as i64 {
        eprintln!(
            "INVARIANT VIOLATED: {} rewarm keys ran {} searches (fresh cache must force searches)",
            cold_n, rewarm.tier_diff[3]
        );
        failed.store(true, Ordering::SeqCst);
    }
    let byte_identical = {
        let mut a = cold.responses.clone();
        let mut b = rewarm.responses.clone();
        a.sort();
        b.sort();
        a == b
    };
    if !byte_identical {
        eprintln!(
            "INVARIANT VIOLATED: rewarmed searches diverged from the cold run \
             (sidecar state altered results)"
        );
        failed.store(true, Ordering::SeqCst);
    }
    let sidecar_warm_hits = service2
        .metrics()
        .to_json()
        .get("sidecar_warm_hits")
        .and_then(Json::as_i64)
        .unwrap_or(0);
    if sidecar_warm_hits <= 0 {
        eprintln!(
            "INVARIANT VIOLATED: restarted daemon reported {sidecar_warm_hits} sidecar warm hits"
        );
        failed.store(true, Ordering::SeqCst);
    }
    let mut ctl2 = Client::connect(addr2).expect("connect for rewarm shutdown");
    let bye2 = ctl2.shutdown().expect("rewarm shutdown roundtrip");
    if !is_ok(&bye2) {
        eprintln!(
            "INVARIANT VIOLATED: rewarm shutdown not acknowledged: {}",
            bye2.render()
        );
        failed.store(true, Ordering::SeqCst);
    }
    server2.join().expect("rewarm daemon drain + flush");
    let _ = std::fs::remove_file(&cache2_path);
    if !keep_sidecar {
        let _ = std::fs::remove_file(&sidecar_path);
    }

    let phases = [&herd, &cold, &warm, &rewarm];
    println!(
        "\n{:<6} {:>8} {:>9} {:>9} {:>9} {:>7} {:>6} {:>9} {:>8}",
        "phase", "requests", "qps", "p50_ms", "p99_ms", "memory", "cache", "coalesced", "searched"
    );
    for p in &phases {
        let mut sorted = p.latencies_ms.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{:<6} {:>8} {:>9.1} {:>9.3} {:>9.3} {:>7} {:>6} {:>9} {:>8}",
            p.name,
            p.requests,
            p.requests as f64 / p.wall_s,
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.99),
            p.tier_diff[0],
            p.tier_diff[1],
            p.tier_diff[2],
            p.tier_diff[3],
        );
    }
    println!(
        "coalescing ratio: {coalescing_ratio:.1}x ({} herd requests, 1 search)",
        herd.requests
    );

    let mut rows: Vec<Json> = phases.iter().map(|p| phase_row(p)).collect();
    rows.push(Json::obj([
        ("phase", Json::Str("summary".to_string())),
        ("clients", Json::Int(clients as i64)),
        (
            "requests",
            Json::Int((herd.requests + cold.requests + warm.requests + rewarm.requests) as i64),
        ),
        ("coalescing_ratio", Json::num(coalescing_ratio)),
        (
            "warm_hit_rate",
            Json::num(warm.tier_diff[0] as f64 / warm.requests.max(1) as f64),
        ),
        ("sidecar_warm_hits", Json::Int(sidecar_warm_hits)),
        ("rewarm_byte_identical", Json::Bool(byte_identical)),
        ("devices", Json::Str(devices.join(","))),
        ("mix", Json::Str(mix.clone())),
    ]));
    emit::announce(emit::write_bench_json("served", rows));

    if failed.load(Ordering::SeqCst) {
        eprintln!("lego-served-load: FAILED (see invariant violations above)");
        std::process::exit(1);
    }
    println!("lego-served-load: all serving invariants held");
}
