//! `serve-mix`: the tuning daemon on loopback with two workers and two
//! closed-loop client connections.
//!
//! Set-up tunes a few thousand cheap keys in process, writes them to a
//! tuning cache and memo sidecar in a scratch directory, and restarts
//! the daemon on them (cache and sidecar load). Each round, one client
//! (alternating) sends a cold search of a key nobody asked for before —
//! the search, then a store that re-reads and rewrites the whole cache
//! file — while the other client, at the same time, replays populated
//! keys (memory tier) back to back until the search has answered; so
//! every warm replay competes with a search and its cache rewrite for
//! the two cores. Then both send a herd request together after a
//! barrier (one search, one coalesced wait). Every response must be
//! byte-identical to an in-process `TuneService::resolve` of the same
//! request, and the two herd responses identical to each other.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_sim::GpuConfig;
use lego_served::protocol::{self, Request};
use lego_served::{Client, Server, ServerConfig, Tier, TuneService, TuneSpec};
use lego_tune::rng::Rng;
use lego_tune::{Budget, RowwiseOp, Strategy, TuneRequest, TuningCache, WorkloadKind};

use crate::ops::{self, Class, Limit, Op, Outcome};
use crate::spans::{self, count, span};

/// Populated keys the clients replay.
const WARM_POOL: usize = 240;
/// Further populated keys nobody requests: they size the cache
/// document every cold search rewrites.
const PADDING: usize = 1800;
/// Warm replays a client sends in one round at most (it stops earlier,
/// when the other client's search answers).
const MAX_REPLAYS: usize = 50_000;
/// Rounds of the traced run.
const TRACED_ROUNDS: u64 = 12;
/// Rounds whose ops the tail is taken over.
const TAIL_ROUNDS: usize = 10;
/// Daemon restarts during set-up (the last one stays up).
const RESTARTS: usize = 5;
const CLIENTS: usize = 2;
const OPS: [RowwiseOp; 3] = [
    RowwiseOp::Softmax,
    RowwiseOp::LayernormFwd,
    RowwiseOp::LayernormBwd,
];

fn devices() -> [GpuConfig; 3] {
    [gpu_sim::a100(), gpu_sim::h100(), gpu_sim::mi300()]
}

/// Populated key `i`: every eighth a LUD instance, every eighth a
/// transpose, the rest rowwise, on a seeded device. The warm pool's
/// sizes come from narrow bands, so its reference figures move little
/// from seed to seed; the padding's rows are multiples of 64 too, which
/// cold and herd keys never are.
fn pool_request(i: usize, rng: &mut Rng) -> TuneRequest {
    let device = rng.pick(&devices()).clone();
    let warm = i < WARM_POOL;
    let kind = match i % 8 {
        0 if warm => WorkloadKind::Lud {
            n: 256 * (8 + rng.below(16) as i64),
            bs: 16,
        },
        1 if warm => WorkloadKind::Transpose {
            n: 64 * (16 + rng.below(32) as i64),
        },
        _ if warm => WorkloadKind::Rowwise {
            op: *rng.pick(&OPS),
            m: 64 * (32 + rng.below(32) as i64),
            n: 128 * (32 + rng.below(32) as i64),
        },
        _ => WorkloadKind::Rowwise {
            op: *rng.pick(&OPS),
            m: 64 * (1 + rng.below(64) as i64),
            n: 128 * (1 + rng.below(64) as i64),
        },
    };
    TuneRequest::new(kind, device)
}

/// The `j`-th cold key of client `client`: a rowwise instance whose row
/// count is `16 + 16·client` past a multiple of 64, so no two clients,
/// and no populated key, ever share it.
fn cold_request(seed: u64, client: usize, j: usize) -> TuneRequest {
    let mut rng = ops::rng(seed, "serve-cold", (client * 1_000_000 + j) as u64);
    let kind = WorkloadKind::Rowwise {
        op: *rng.pick(&OPS),
        m: 64 * (1 + (j % 64) as i64) + 16 + 16 * client as i64,
        n: 128 * (1 + ((j / 64) % 64) as i64),
    };
    TuneRequest::new(kind, rng.pick(&devices()).clone())
}

/// Round `round`'s herd key, shared by both clients: a budgeted rowwise
/// search whose row count is 48 past a multiple of 64.
fn herd_request(seed: u64, round: usize) -> TuneRequest {
    let mut rng = ops::rng(seed, "serve-herd", round as u64);
    let kind = WorkloadKind::Rowwise {
        op: *rng.pick(&OPS),
        m: 64 * (1 + (round % 64) as i64) + 48,
        n: 128 * (1 + ((round / 64) % 64) as i64),
    };
    TuneRequest {
        kind,
        device: rng.pick(&devices()).clone(),
        strategy: Strategy::Anneal,
        budget: Budget(32),
        space: None,
    }
}

/// The wire line of a request.
fn line(req: &TuneRequest) -> String {
    let budgeted = req.strategy != Strategy::Exhaustive;
    TuneSpec {
        workload: req.kind.name(),
        device: Some(req.device.tag.to_string()),
        strategy: Some(req.strategy.name().to_string()),
        budget: budgeted.then_some(req.budget.max_evals()),
        space: None,
    }
    .to_json()
    .render()
}

/// The populated keys: the warm pool first, then the padding.
pub fn population(seed: u64) -> Vec<TuneRequest> {
    let mut rng = ops::rng(seed, "serve-pool", 0);
    let mut used = HashSet::new();
    let mut out = Vec::with_capacity(WARM_POOL + PADDING);
    while out.len() < WARM_POOL + PADDING {
        let req = pool_request(out.len(), &mut rng);
        if used.insert(req.cache_key()) {
            out.push(req);
        }
    }
    out
}

/// The client that sends round `round`'s cold search. The clients take
/// turns, one search per round, so no search waits for another's cache
/// rewrite and the cold latencies form one group.
pub fn searcher(round: usize) -> usize {
    round % CLIENTS
}

/// The `j`-th warm replay of client `client` in round `round`, drawn
/// from `pool`.
pub fn warm_request(
    seed: u64,
    pool: &[TuneRequest],
    client: usize,
    round: usize,
    j: usize,
) -> TuneRequest {
    let index = ((round as u64) << 32) | ((client as u64) << 31) | j as u64;
    let mut rng = ops::rng(seed, "serve-warm", index);
    pool[rng.below(pool.len())].clone()
}

/// A populated key's winner: simulated time (µs) and index-expression
/// op count.
type Winner = (f64, u64);

/// Tunes every populated key on a fresh thread, writes the cache
/// document and the thread's memo sidecar, and returns the winners.
fn populate(keys: &[TuneRequest], cache: &Path, sidecar: &Path) -> Result<Vec<Winner>, String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut batch = Vec::new();
            let mut winners = Vec::new();
            for req in keys {
                let tuner = req.tuner();
                let seeded = tuner
                    .tune_seeded(&req.kind, &[], None)
                    .map_err(|e| format!("populating {}: {e}", req.kind.name()))?;
                winners.push((
                    seeded.result.tuned.time_s * 1e6,
                    seeded.result.index_ops.unwrap_or(0) as u64,
                ));
                batch.push((req.cache_key(), tuner.entry_from(&seeded)));
            }
            TuningCache::new(cache)
                .store_many(&batch)
                .map_err(|e| format!("writing the cache: {e}"))?;
            lego_tune::sidecar::collect_and_save(sidecar)
                .map_err(|e| format!("writing the sidecar: {e}"))?;
            Ok(winners)
        })
        .join()
        .expect("population panicked")
    })
}

/// A daemon under test: the real `Server`, or (traced runs) the same
/// service behind a benchmark-side loop that spans every layer call.
enum Daemon {
    Real(Server),
    Traced(TracedServer),
}

impl Daemon {
    fn start(traced: bool, cache: &Path, sidecar: &Path) -> std::io::Result<Daemon> {
        if traced {
            return TracedServer::start(cache, sidecar).map(Daemon::Traced);
        }
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: CLIENTS,
            cache: Some(cache.to_path_buf()),
            sidecar: Some(sidecar.to_path_buf()),
            device_default: gpu_sim::a100(),
        })
        .map(Daemon::Real)
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Daemon::Real(s) => s.local_addr(),
            Daemon::Traced(s) => s.addr,
        }
    }

    /// Asks the daemon to drain and waits until it has flushed.
    fn stop(self) -> Result<(), String> {
        let mut c = Client::connect(self.addr()).map_err(|e| format!("connect: {e}"))?;
        c.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        drop(c);
        match self {
            Daemon::Real(s) => s.join(),
            Daemon::Traced(s) => s.join(),
        }
        .map_err(|e| format!("daemon flush: {e}"))
    }
}

/// Opens the client connections and waits until each has an answer —
/// i.e. both workers have installed the sidecar and are serving.
fn connect_ready(addr: SocketAddr) -> Result<Vec<Client>, String> {
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.metrics().map_err(|e| format!("metrics: {e}"))?;
        clients.push(c);
    }
    Ok(clients)
}

/// What one client thread hands back.
#[derive(Default)]
struct Driven {
    /// Its ops, with the round each belongs to, in send order.
    ops: Vec<(usize, Op)>,
    /// The response to each distinct request line.
    responses: HashMap<String, String>,
    /// Requests answered differently on different sends.
    unstable: Vec<String>,
    /// Its herd response per round.
    herds: Vec<(usize, String)>,
}

impl Driven {
    fn record(&mut self, round: usize, op: Op, request: String, response: String) {
        if op.class == Class::Herd {
            self.herds.push((round, response.clone()));
        }
        self.ops.push((round, op));
        match self.responses.get(&request) {
            Some(r) if *r != response => self.unstable.push(request),
            Some(_) => {}
            None => {
                self.responses.insert(request, response);
            }
        }
    }
}

pub fn run(seed: u64, limit: Limit, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = scratch_dir();
    let result = run_in(seed, limit, traced, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        out.fail(e);
    }
    out
}

fn scratch_dir() -> PathBuf {
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    PathBuf::from(".bench_tmp").join(format!("serve-{}-{nonce}", std::process::id()))
}

fn run_in(
    seed: u64,
    limit: Limit,
    traced: bool,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("scratch dir: {e}"))?;
    let cache = dir.join("TUNE_CACHE.json");
    let sidecar = dir.join("SIDECAR.txt");
    let keys = population(seed);
    let t0 = Instant::now();
    let winners = populate(&keys, &cache, &sidecar)?;
    out.notes.push(format!(
        "serve-mix: populated {} keys in {:.3} s",
        winners.len(),
        t0.elapsed().as_secs_f64()
    ));
    if traced {
        persistence_layers(&cache, &sidecar, dir)?;
    }

    // Set-up: restart the daemon on the populated files until both
    // workers answer; the last restart stays up.
    let mut times = Vec::new();
    let mut daemon = None;
    for i in 0..RESTARTS {
        let t = Instant::now();
        let d = Daemon::start(traced, &cache, &sidecar).map_err(|e| format!("start: {e}"))?;
        let clients = connect_ready(d.addr())?;
        times.push(t.elapsed().as_secs_f64());
        if i + 1 < RESTARTS {
            drop(clients);
            d.stop()?;
        } else {
            daemon = Some((d, clients));
        }
    }
    out.setup_s = crate::stats::median(&times);
    let (daemon, clients) = daemon.expect("last restart kept");

    let pool = &keys[..WARM_POOL];
    let shared = Shared {
        seed,
        pool,
        cache: &cache,
        limit,
        start: Instant::now(),
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        searching: AtomicBool::new(false),
        error: Mutex::new(None),
    };
    let driven: Vec<Driven> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let shared = &shared;
                s.spawn(move || drive(c, client, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    out.busy_s = shared.start.elapsed().as_secs_f64();
    daemon.stop()?;
    if let Some(e) = shared.error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }

    let ops: Vec<(usize, Op)> = driven.iter().flat_map(|d| d.ops.iter().copied()).collect();
    out.tail_sample = ops
        .iter()
        .filter(|(round, _)| *round < TAIL_ROUNDS)
        .map(|(_, op)| op.ms)
        .collect();
    out.ops = ops.into_iter().map(|(_, op)| op).collect();
    out.notes.push(format!(
        "serve-mix: {} warm replays in {} ops",
        out.ops.iter().filter(|op| op.class == Class::Warm).count(),
        out.ops.len()
    ));
    if traced {
        count(
            "tune.cache.store.bytes",
            std::fs::metadata(&cache).map(|m| m.len()).unwrap_or(0) as f64,
        );
    }
    check(&driven, out)?;
    // Reference figures: the populated keys' winners.
    for (sim_us, index_ops) in winners {
        out.sim_us.push(sim_us);
        out.index_ops += index_ops;
    }
    Ok(())
}

/// The persistence calls a restart and a shutdown make, replayed
/// directly so each gets a span: cache load, sidecar load, sidecar
/// save (to a copy).
fn persistence_layers(cache: &Path, sidecar: &Path, dir: &Path) -> Result<(), String> {
    let entries = span("tune.cache.load", || TuningCache::new(cache).entries());
    count("tune.cache.load.entries", entries.len() as f64);
    let sc = span("expr.sidecar.load", || lego_tune::Sidecar::load(sidecar));
    count("expr.sidecar.entries", sc.len() as f64);
    span("expr.sidecar.save", || {
        sc.save(&dir.join("SIDECAR.copy.txt"))
    })
    .map_err(|e| format!("sidecar save: {e}"))
}

/// What the two client threads share.
struct Shared<'a> {
    seed: u64,
    pool: &'a [TuneRequest],
    cache: &'a Path,
    limit: Limit,
    start: Instant,
    barrier: Barrier,
    stop: AtomicBool,
    /// Set while the round's cold search is in flight.
    searching: AtomicBool,
    /// The first error either client met. Once set, neither sends
    /// another request, and both leave together at the next round's
    /// start (a client that left alone would strand the other at a
    /// barrier).
    error: Mutex<Option<String>>,
}

impl Shared<'_> {
    fn failed(&self) -> bool {
        self.error.lock().expect("error slot poisoned").is_some()
    }

    fn fail(&self, e: String) {
        self.error
            .lock()
            .expect("error slot poisoned")
            .get_or_insert(e);
    }
}

/// One closed-loop client: its rounds, until both clients agree at the
/// start of a round that the run is over.
fn drive(c: usize, mut client: Client, sh: &Shared) -> Driven {
    let mut d = Driven::default();
    let mut op_id = 0u64;
    let mut send = |d: &mut Driven, round: usize, req: &TuneRequest, class: Class| {
        if sh.failed() {
            return;
        }
        let request = line(req);
        spans::set_op(((c as u64) << 32) | op_id);
        op_id += 1;
        let t = Instant::now();
        let t_ns = spans::now_ns();
        match client.roundtrip_line(&request) {
            Ok(response) => {
                spans::record("served.roundtrip", t_ns, spans::now_ns());
                let op = Op {
                    ms: ops::ms_since(t),
                    class,
                };
                d.record(round, op, request, response);
            }
            Err(e) => sh.fail(format!("client {c}: {e}")),
        }
    };
    for round in 0.. {
        if sh.barrier.wait().is_leader() {
            let elapsed = sh.start.elapsed().as_secs_f64();
            let more = sh.limit.more(elapsed, round as u64, TRACED_ROUNDS);
            sh.stop.store(!more || sh.failed(), Ordering::SeqCst);
            sh.searching.store(true, Ordering::SeqCst);
        }
        sh.barrier.wait();
        if sh.stop.load(Ordering::SeqCst) {
            return d;
        }
        if c == searcher(round) {
            let req = cold_request(sh.seed, c, round / CLIENTS);
            send(&mut d, round, &req, Class::Cold);
            sh.searching.store(false, Ordering::SeqCst);
        } else {
            // Replays for as long as the search (and its cache rewrite)
            // is in flight.
            let mut j = 0;
            while sh.searching.load(Ordering::SeqCst) && !sh.failed() && j < MAX_REPLAYS {
                send(
                    &mut d,
                    round,
                    &warm_request(sh.seed, sh.pool, c, round, j),
                    Class::Warm,
                );
                j += 1;
            }
        }
        // Both clients fire the herd request at the same moment.
        sh.barrier.wait();
        send(&mut d, round, &herd_request(sh.seed, round), Class::Herd);
        // The round's searches rewrote the cache file twice. Flush it
        // now, so the file system's deferred work (journal commit,
        // freeing the replaced files) lands here and not, at random, in
        // the next round.
        if sh.barrier.wait().is_leader() {
            if let Err(e) = std::fs::File::open(sh.cache).and_then(|f| f.sync_all()) {
                sh.fail(format!("flushing the cache file: {e}"));
            }
        }
    }
    unreachable!("the round loop only ends at a round's start")
}

/// Byte-identity against in-process resolution, and herd agreement.
fn check(driven: &[Driven], out: &mut Outcome) -> Result<(), String> {
    let mut lines: Vec<&str> = driven
        .iter()
        .flat_map(|d| d.responses.keys().map(String::as_str))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let expected = oracle(&lines)?;

    for d in driven {
        for request in &d.unstable {
            out.fail(format!(
                "{request}: answered differently on different sends"
            ));
        }
        for (request, response) in &d.responses {
            if expected.get(request) != Some(response) {
                out.fail(format!(
                    "response differs from in-process resolve for {request}"
                ));
            }
        }
    }
    let mut herds: HashMap<usize, Vec<&str>> = HashMap::new();
    for (round, response) in driven.iter().flat_map(|d| &d.herds) {
        herds.entry(*round).or_default().push(response);
    }
    for (round, responses) in herds {
        if responses.len() != CLIENTS || responses.windows(2).any(|w| w[0] != w[1]) {
            out.fail(format!("herd of round {round}: responses disagree"));
        }
    }
    Ok(())
}

/// In-process response lines (newline stripped) per request line,
/// resolved on two threads by services with no cache.
fn oracle(lines: &[&str]) -> Result<HashMap<String, String>, String> {
    let answer = |service: &TuneService, l: &str| -> Result<(String, String), String> {
        let Ok(Request::Tune(spec)) = protocol::parse_request(l) else {
            return Err(format!("not a tune request: {l}"));
        };
        let req = protocol::resolve(&spec, service.default_device())?;
        let served = service.resolve(&req).0?;
        let line = protocol::render_line(&served.to_json());
        Ok((l.to_string(), line.trim_end().to_string()))
    };
    let half = lines.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    let service = TuneService::new(gpu_sim::a100(), None, None);
                    chunk
                        .iter()
                        .map(|l| answer(&service, l))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut map = HashMap::new();
        for h in handles {
            map.extend(h.join().expect("oracle panicked")?);
        }
        Ok(map)
    })
}

// ---------------------------------------------------------------------
// The traced daemon: `Server`'s accept/worker structure around the same
// `TuneService`, with a span around each layer call of a request.
// ---------------------------------------------------------------------

struct TracedServer {
    addr: SocketAddr,
    service: Arc<TuneService>,
    threads: Vec<JoinHandle<()>>,
}

impl TracedServer {
    fn start(cache: &Path, sidecar: &Path) -> std::io::Result<TracedServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let service = Arc::new(TuneService::new(
            gpu_sim::a100(),
            Some(cache.to_path_buf()),
            Some(sidecar.to_path_buf()),
        ));
        service.set_addr(addr);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut threads: Vec<JoinHandle<()>> = (0..CLIENTS)
            .map(|idx| {
                let (rx, service) = (Arc::clone(&rx), Arc::clone(&service));
                std::thread::spawn(move || {
                    service.warm_worker(idx);
                    loop {
                        let conn = rx.lock().expect("channel poisoned").recv();
                        match conn {
                            Ok(stream) => serve_traced(stream, &service),
                            Err(_) => break,
                        }
                    }
                    service.harvest_worker();
                })
            })
            .collect();
        let acceptor_service = Arc::clone(&service);
        threads.push(std::thread::spawn(move || {
            for conn in listener.incoming() {
                if acceptor_service.is_shutdown() {
                    break;
                }
                if let Ok(stream) = conn {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
        }));
        Ok(TracedServer {
            addr,
            service,
            threads,
        })
    }

    fn join(self) -> std::io::Result<()> {
        for t in self.threads {
            t.join().expect("traced daemon thread panicked");
        }
        self.service.flush()
    }
}

fn serve_traced(stream: TcpStream, service: &TuneService) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut text = String::new();
    loop {
        match reader.read_line(&mut text) {
            Ok(0) => break,
            Ok(_) if !text.ends_with('\n') => break,
            Ok(_) => {
                let (reply, shutdown) = dispatch_traced(text.trim(), service);
                text.clear();
                if writer
                    .write_all(reply.as_bytes())
                    .and_then(|()| writer.flush())
                    .is_err()
                {
                    break;
                }
                if shutdown {
                    service.begin_shutdown();
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if service.is_shutdown() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn dispatch_traced(text: &str, service: &TuneService) -> (String, bool) {
    let parsed = span("served.parse", || {
        protocol::parse_request(text).and_then(|r| match r {
            Request::Tune(spec) => {
                protocol::resolve(&spec, service.default_device()).map(|t| (Some(t), false))
            }
            Request::Shutdown => Ok((None, true)),
            _ => Ok((None, false)),
        })
    });
    let shutdown = matches!(parsed, Ok((None, true)));
    let reply = match parsed {
        Err(e) => protocol::error_response(&e),
        Ok((None, true)) => lego_tune::Json::obj([
            ("ok", lego_tune::Json::Bool(true)),
            ("draining", lego_tune::Json::Bool(true)),
        ]),
        Ok((None, false)) => service.metrics().to_json(),
        Ok((Some(req), _)) => {
            let t0 = spans::now_ns();
            let (result, tier) = service.resolve(&req);
            let name = match tier {
                Tier::Memory => "served.resolve.memory",
                Tier::Cache => "served.resolve.cache",
                Tier::Coalesced => "served.resolve.coalesced",
                Tier::Searched => "served.resolve.searched",
            };
            spans::record(name, t0, spans::now_ns());
            match result {
                Ok(served) => served.to_json(),
                Err(e) => protocol::error_response(&e),
            }
        }
    };
    (
        span("served.render", || protocol::render_line(&reply)),
        shutdown,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        // Per round: the searcher's cold key, the other client's first
        // replays, the herd key.
        let stream = |seed| {
            let pool = population(seed);
            let mut lines = Vec::new();
            for round in 0..6 {
                let c = searcher(round);
                lines.push(line(&cold_request(seed, c, round / CLIENTS)));
                for j in 0..20 {
                    let req = warm_request(seed, &pool[..WARM_POOL], 1 - c, round, j);
                    lines.push(line(&req));
                }
                lines.push(line(&herd_request(seed, round)));
            }
            lines
        };
        assert_eq!(stream(4), stream(4));
        assert_ne!(stream(4), stream(5));
        let keys = |s| {
            population(s)
                .iter()
                .map(TuneRequest::cache_key)
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(4), keys(4));
        assert_ne!(keys(4), keys(5));
    }

    #[test]
    fn cold_and_herd_keys_never_collide_with_the_population() {
        let pool: HashSet<String> = population(9).iter().map(TuneRequest::cache_key).collect();
        let mut seen = HashSet::new();
        for round in 0..500 {
            for c in 0..CLIENTS {
                let cold = cold_request(9, c, round).cache_key();
                assert!(!pool.contains(&cold) && seen.insert(cold));
            }
            let herd = herd_request(9, round).cache_key();
            assert!(!pool.contains(&herd) && seen.insert(herd));
        }
    }
}
