//! The LEGO workspace benchmark: one seeded workload per invocation,
//! its outputs checked, its metrics printed as the last stdout line.
//!
//! ```text
//! lego-perfbench --workload derive|tune-cold|serve-mix|fleet-grid \
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs half
//! the window untraced, then replays the start of the same op stream —
//! a fixed prefix, so work counts repeat exactly — with spans around
//! every layer call, and reports the per-layer metrics plus the tracing
//! overhead (traced against untraced ops/s); the spans themselves are
//! written to `.bench_out/spans-<workload>-<seed>.tsv`.

mod derive;
mod fleet;
mod ops;
mod replica;
mod serve;
mod spans;
mod stats;
mod tune_cold;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ops::{Class, Limit, Op, Outcome};

const WORKLOADS: [&str; 4] = ["derive", "tune-cold", "serve-mix", "fleet-grid"];
/// Spans written to the trace file at most.
const SPAN_FILE_LIMIT: usize = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(name, value);
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (use {})",
            WORKLOADS.join("|")
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(workload: &str, seed: u64, limit: Limit, traced: bool) -> Outcome {
    match workload {
        "derive" => derive::run(seed, limit),
        "tune-cold" => tune_cold::run(seed, limit, traced),
        "serve-mix" => serve::run(seed, limit, traced),
        "fleet-grid" => fleet::run(seed, limit),
        _ => unreachable!("validated by parse_args"),
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Latencies of `ops`, ascending.
fn sorted_ms<'a>(ops: impl IntoIterator<Item = &'a Op>) -> Vec<f64> {
    let mut v: Vec<f64> = ops.into_iter().map(|op| op.ms).collect();
    v.sort_by(f64::total_cmp);
    v
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(o: &Outcome, notes: &mut Vec<String>) -> Result<Metrics, String> {
    let all = sorted_ms(&o.ops);
    let cold = sorted_ms(o.ops.iter().filter(|op| op.class == Class::Cold));
    let mut head = o.tail_sample.clone();
    head.sort_by(f64::total_cmp);
    if head.is_empty() || cold.is_empty() {
        return Err(format!(
            "too few ops ({} in the tail sample, {} cold)",
            head.len(),
            cold.len()
        ));
    }
    if o.sim_us.is_empty() {
        return Err("no reference results".to_string());
    }
    let (tail, pct, n) = stats::tail(&head);
    notes.push(format!(
        "tail_ms = p{pct:.2} of {n} sampled ops; cold_p50_ms over {} cold ops",
        cold.len()
    ));
    let metrics = [
        ("setup_s", o.setup_s, "s"),
        ("ops_per_s", all.len() as f64 / o.busy_s, "1/s"),
        ("p50_ms", stats::percentile(&all, 50.0), "ms"),
        ("tail_ms", tail, "ms"),
        ("cold_p50_ms", stats::percentile(&cold, 50.0), "ms"),
        ("tuned_sim_us_geomean", stats::geomean(&o.sim_us), "us"),
        ("index_ops_total", o.index_ops as f64, "count"),
    ];
    Ok(metrics.map(|(n, v, u)| (n.to_string(), v, u)).to_vec())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Spans reported as `<span>.calls` (how many) and `<span>.ns` (summed
/// self time).
const TIMED: [&str; 29] = [
    "gpusim.trace_gen",
    "gpusim.coalesce",
    "gpusim.l2",
    "gpusim.smem",
    "gpusim.tiles",
    "gpusim.traffic",
    "gpusim.assemble",
    "gpusim.bound",
    "core.build",
    "core.apply_sym",
    "core.apply",
    "expr.simplify",
    "expr.print",
    "codegen.generate",
    "tune.enumerate",
    "tune.annotate",
    "tune.workload",
    "tune.search",
    "tune.search_budgeted",
    "tune.fleet.run",
    "tune.cache.load",
    "expr.sidecar.load",
    "expr.sidecar.save",
    "served.parse",
    "served.render",
    "served.resolve.memory",
    "served.resolve.coalesced",
    "served.resolve.searched",
    "bench.capture",
];

/// Counters reported as recorded, with their units.
const COUNTED: [(&str, &str); 18] = [
    ("gpusim.trace_gen.lanes", "count"),
    ("gpusim.coalesce.warps", "count"),
    ("gpusim.coalesce.sectors", "count"),
    ("gpusim.l2.accesses", "count"),
    ("gpusim.smem.warps", "count"),
    ("gpusim.tiles.touches", "count"),
    ("expr.arena.nodes", "count"),
    ("codegen.generate.source_bytes", "bytes"),
    ("tune.enumerate.candidates", "count"),
    ("tune.search.evals", "count"),
    ("tune.search.pruned", "count"),
    ("tune.cache.load.entries", "count"),
    ("tune.cache.store.bytes", "bytes"),
    ("expr.sidecar.entries", "count"),
    ("tune.fleet.keys", "count"),
    ("tune.fleet.transfers", "count"),
    ("tune.fleet.evals_saved", "count"),
    ("tune.fleet.key_ns", "ns"),
];

/// The per-layer metrics of a traced run.
fn per_layer(
    untraced: &Outcome,
    traced: &Outcome,
    spans: &[spans::Span],
    counts: &BTreeMap<&'static str, f64>,
) -> Metrics {
    let t = spans::totals(spans);
    let calls = |n: &str| t.get(n).map_or(0.0, |x| x.calls as f64);
    let own = |n: &str| t.get(n).map_or(0.0, |x| x.self_ns as f64);
    let c = |n: &str| counts.get(n).copied().unwrap_or(0.0);
    let hit_ratio = |h: &str, m: &str| ratio(c(h), c(h) + c(m));

    let mut m: Metrics = Vec::new();
    for span in TIMED {
        m.push((format!("{span}.calls"), calls(span), "count"));
        m.push((format!("{span}.ns"), own(span), "ns"));
    }
    for (name, unit) in COUNTED {
        m.push((name.to_string(), c(name), unit));
    }

    // Share of the exhaustive stencil requests' time spent in trace
    // generation, coalescing and L2 (benchmark capture excluded).
    let own_ns = spans::self_ns(spans);
    let (mut sim, mut total) = (0i64, 0i64);
    for (s, &own) in spans.iter().zip(&own_ns) {
        if s.op & tune_cold::STENCIL_OP == 0 {
            continue;
        }
        match s.name {
            "gpusim.trace_gen" | "gpusim.coalesce" | "gpusim.l2" => sim += own as i64,
            "bench.capture" => total -= own as i64,
            "op" => total += s.ns() as i64,
            _ => {}
        }
    }
    let resolve_ns = own("served.resolve.memory")
        + own("served.resolve.cache")
        + own("served.resolve.coalesced")
        + own("served.resolve.searched");
    let ops_per_s = |o: &Outcome| ratio(o.ops.len() as f64, o.busy_s);
    let attempted = (untraced.ops.len() + traced.ops.len()).max(1) as f64;
    // Figures too noisy on a two-vCPU VM to gate a change on: the warm
    // ops' tail (of the untraced half) and the process's peak RSS.
    let warm = sorted_ms(untraced.ops.iter().filter(|op| op.class == Class::Warm));
    let warm_pct = |p| {
        if warm.is_empty() {
            0.0
        } else {
            stats::percentile(&warm, p)
        }
    };
    let derived: [(&str, f64, &'static str); 16] = [
        (
            "gpusim.l2.hit_ratio",
            ratio(c("gpusim.l2.hits"), c("gpusim.l2.accesses")),
            "ratio",
        ),
        (
            "gpusim.traffic.memo_hit_ratio",
            hit_ratio("gpusim.traffic.memo_hits", "gpusim.traffic.memo_misses"),
            "ratio",
        ),
        (
            "expr.simplify.memo_hit_ratio",
            hit_ratio("expr.simplify.memo_hits", "expr.simplify.memo_misses"),
            "ratio",
        ),
        (
            "expr.arena.hit_ratio",
            hit_ratio("expr.arena.intern_hits", "expr.arena.intern_misses"),
            "ratio",
        ),
        (
            "tune.annotate.hit_ratio",
            ratio(c("tune.annotate.hits"), calls("tune.annotate")),
            "ratio",
        ),
        (
            "tune.search.prune_ratio",
            ratio(c("tune.search.pruned"), c("tune.search.evals")),
            "ratio",
        ),
        // Every searched request stores its result once.
        (
            "tune.cache.store.calls",
            calls("served.resolve.searched"),
            "count",
        ),
        ("served.roundtrip.ns", own("served.roundtrip"), "ns"),
        (
            "served.wire.ns",
            (own("served.roundtrip") - resolve_ns).max(0.0),
            "ns",
        ),
        (
            "tune_cold.stencil.gpusim_share",
            ratio(sim as f64, total as f64),
            "ratio",
        ),
        ("trace.untraced_ops_per_s", ops_per_s(untraced), "1/s"),
        (
            "trace.ops_per_s_ratio",
            ratio(ops_per_s(traced), ops_per_s(untraced)),
            "ratio",
        ),
        (
            "failed_ratio",
            (untraced.failed + traced.failed) as f64 / attempted,
            "ratio",
        ),
        ("untraced.warm_p90_ms", warm_pct(90.0), "ms"),
        ("untraced.warm_p99_ms", warm_pct(99.0), "ms"),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
    ];
    m.extend(derived.map(|(n, v, u)| (n.to_string(), v, u)));
    m
}

/// Layer work a workload exists to exercise, required of its traced
/// run: a counter that must not stay at zero.
fn required_work(workload: &str) -> Option<&'static str> {
    match workload {
        "tune-cold" => Some("tune.search.pruned"),
        "fleet-grid" => Some("tune.fleet.evals_saved"),
        _ => None,
    }
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lego-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut notes = Vec::new();
    let (metrics, attempted, failed) = if args.trace {
        let half = Limit::Seconds(args.seconds / 2.0);
        let untraced = run(&args.workload, args.seed, half, false);
        spans::set_enabled(true);
        let traced = run(&args.workload, args.seed, Limit::Prefix, true);
        spans::set_enabled(false);
        let (spans, counts) = spans::drain();
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        match spans::write_tsv(&path, &spans, SPAN_FILE_LIMIT) {
            Ok(()) => notes.push(format!(
                "{} spans recorded, written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
        notes.extend(untraced.notes.iter().cloned());
        notes.extend(traced.notes.iter().cloned());
        let mut failed = untraced.failed + traced.failed;
        if let Some(name) = required_work(&args.workload) {
            if counts.get(name).copied().unwrap_or(0.0) <= 0.0 {
                notes.push(format!("check failed: {name} is 0 in the traced run"));
                failed += 1;
            }
        }
        (
            per_layer(&untraced, &traced, &spans, &counts),
            untraced.ops.len() + traced.ops.len(),
            failed,
        )
    } else {
        let o = run(
            &args.workload,
            args.seed,
            Limit::Seconds(args.seconds),
            false,
        );
        notes.extend(o.notes.iter().cloned());
        match end_to_end(&o, &mut notes) {
            Ok(m) => (m, o.ops.len(), o.failed),
            Err(e) => {
                for n in &notes {
                    eprintln!("{n}");
                }
                eprintln!("lego-perfbench: {}: {e}", args.workload);
                std::process::exit(1);
            }
        }
    };
    for n in &notes {
        println!("# {n}");
    }
    let attempted = attempted.max(failed).max(1);
    println!("{}", render(failed == 0, attempted, failed, &metrics));
}
