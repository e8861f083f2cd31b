//! The repository's benchmark: four workloads over the simulator, the SMR
//! schemes, the structures and the native backend, each run from one
//! process for a fixed time, with its outputs checked. See README.md.
//!
//! Usage: `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`, the end-to-end metrics with
//! `--trace 0` and the per-layer metrics with `--trace 1`.

mod checks;
mod gen;
mod kernels;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use kernels::EventNs;
use stats::{median, nearest_rank};
use trace::Tracer;
use workload::{Backend, Rep, Spec, WORKLOADS};

const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Fewest repetitions a run makes however short `--seconds` is; a traced
/// run alternates traced and untraced repetitions, so it needs two more.
const MIN_REPS: usize = 3;
const MIN_REPS_TRACED: usize = 5;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut spec = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec = Some(Spec::find(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host times of one repetition.
struct Times {
    traced: bool,
    machine_new: f64,
    structure_new: f64,
    prefill: f64,
    setup: f64,
    timed: f64,
    check: f64,
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Metrics in output order: name, value, unit.
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let spec = args.spec;
    let inputs = spec.inputs(args.seed);
    let (reference_prefill, _) = inputs.reference_results();
    let ops_per_rep = inputs.total_ops();
    let mut tracer = Tracer::new(args.trace);
    let events = args.trace.then(|| kernels::measure(&mut tracer));
    let mut errors = Vec::new();
    let native = args
        .trace
        .then(|| native_layer(args.seed, &mut tracer, &mut errors));

    let mut times = Vec::new();
    let mut first: Option<Rep> = None;
    let min_reps = if args.trace {
        MIN_REPS_TRACED
    } else {
        MIN_REPS
    };
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Repeat whole rounds while another one as long as the last still fits
    // in the budget.
    let mut last = Duration::ZERO;
    while times.len() < min_reps || start.elapsed() + last <= budget {
        let round = Instant::now();
        let traced = args.trace && times.len() % 2 == 0;
        tracer.set_enabled(traced);
        let rep = spec.rep(&inputs);
        let c0 = Instant::now();
        errors.extend(checks::check_rep(spec, &inputs, &reference_prefill, &rep));
        if let Some(f) = &first {
            errors.extend(checks::same_simulation("repetition", f, &rep));
        }
        let c1 = Instant::now();
        let m = rep.marks;
        let root = tracer.span("rep", m[0], c1, None);
        tracer.span("machine_new", m[0], m[1], Some(root));
        tracer.span("structure_new", m[1], m[2], Some(root));
        tracer.span("prefill", m[2], m[3], Some(root));
        tracer.span("timed", m[4], m[5], Some(root));
        tracer.span("check", c0, c1, Some(root));
        println!(
            "rep {}: setup {:.6} s, timed {:.6} s{}",
            times.len(),
            rep.setup_s(),
            rep.timed_s(),
            if traced { ", traced" } else { "" }
        );
        times.push(Times {
            traced,
            machine_new: rep.machine_new_s(),
            structure_new: rep.structure_new_s(),
            prefill: rep.prefill_s(),
            setup: rep.setup_s(),
            timed: rep.timed_s(),
            check: (c1 - c0).as_secs_f64(),
        });
        first.get_or_insert(rep);
        last = round.elapsed();
    }
    let first = first.expect("at least one repetition");
    let rss_mb = peak_rss_mb();

    // Checks made once per run, apart from the repetitions.
    tracer.set_enabled(args.trace);
    let c0 = Instant::now();
    errors.extend(checks::replay(spec, &inputs));
    errors.extend(checks::cross_backend(spec, &inputs, &first));
    // The native workload's sim_* metrics come from its modelled twin.
    let twin = (spec.backend == Backend::Native).then(|| {
        let (exec, quantum) = spec.modelled();
        let twin = workload::sim_rep(spec.structure, exec, quantum, &inputs);
        errors.extend(checks::check_rep(spec, &inputs, &reference_prefill, &twin));
        twin
    });
    errors.extend(checks::hp_sim_ledger(
        spec,
        &inputs,
        twin.as_ref().unwrap_or(&first),
    ));
    let run_checks_s = (Instant::now() - c0).as_secs_f64();
    tracer.span("check.run", c0, Instant::now(), None);
    let modelled = twin.as_ref().unwrap_or(&first);

    let metrics = if args.trace {
        per_layer(
            spec,
            native.expect("native layer ran"),
            modelled,
            &times,
            run_checks_s,
            events.as_ref().expect("kernels ran"),
        )
    } else {
        end_to_end(ops_per_rep, modelled, &times, rss_mb)
    };

    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.json", spec.name, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    // An operation fails only by panicking, which ends the process, so a
    // run that gets here failed none.
    let attempted = times.len() * ops_per_rep;
    println!(
        "{}: seed {}, {} repetitions of {} ops: {attempted} attempted, 0 failed, {} checks failed",
        spec.name,
        args.seed,
        times.len(),
        ops_per_rep,
        errors.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {}}}",
        errors.is_empty(),
        metrics.json()
    );
}

/// Repetitions of the native backend a traced run times.
const NATIVE_REPS: usize = 5;

/// The native backend as a layer, measured in every traced run: the
/// `hash-hp-native` repetition on this seed's inputs, `NATIVE_REPS` times,
/// each checked. Returns the median ops/s and peak live lines.
fn native_layer(seed: u64, tracer: &mut Tracer, errors: &mut Vec<String>) -> (f64, f64) {
    let spec = Spec::find("hash-hp-native").expect("the native workload exists");
    let inputs = spec.inputs(seed);
    let (reference_prefill, _) = inputs.reference_results();
    let t0 = Instant::now();
    let (mut rates, mut peaks) = (Vec::new(), Vec::new());
    for _ in 0..NATIVE_REPS {
        let rep = workload::native_rep(&inputs);
        errors.extend(checks::check_rep(spec, &inputs, &reference_prefill, &rep));
        rates.push(inputs.total_ops() as f64 / rep.timed_s());
        peaks.push(rep.ledger.peak as f64);
    }
    tracer.span("native_layer", t0, Instant::now(), None);
    (median(&rates), median(&peaks))
}

fn median_of(times: &[Times], f: impl Fn(&Times) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

fn end_to_end(ops_per_rep: usize, modelled: &Rep, times: &[Times], rss_mb: f64) -> Metrics {
    let stats = modelled.stats.as_ref().expect("a simulated run");
    let mut lat = modelled.latencies.clone();
    lat.sort_unstable();
    let p999 = nearest_rank(&lat, 0.999);
    println!(
        "sim_op_cycles: {} samples, {} of them above p999",
        lat.len(),
        lat.iter().filter(|&&l| l > p999).count()
    );
    let mut m = Metrics(Vec::new());
    m.add(
        "host_ops_per_s",
        median_of(times, |t| ops_per_rep as f64 / t.timed),
        "1/s",
    );
    m.add("setup_s", median_of(times, |t| t.setup), "s");
    m.add("host_peak_rss_mb", rss_mb, "MB");
    m.add("sim_ops_per_mcycle", stats.ops_per_mcycle(), "ops/Mcycle");
    m.add("sim_peak_live_lines", modelled.ledger.peak as f64, "lines");
    m.add(
        "sim_op_cycles.p50",
        nearest_rank(&lat, 0.5) as f64,
        "cycles",
    );
    m.add("sim_op_cycles.p999", p999 as f64, "cycles");
    m
}

fn per_layer(
    spec: &Spec,
    (native_ops_per_s, native_peak_lines): (f64, f64),
    modelled: &Rep,
    times: &[Times],
    run_checks_s: f64,
    ns: &EventNs,
) -> Metrics {
    let s = modelled.stats.as_ref().expect("a simulated run");
    let sum = |f: fn(&mcsim::CoreStats) -> u64| s.sum(f);
    let traced: Vec<&Times> = times.iter().filter(|t| t.traced).collect();
    let untraced: Vec<&Times> = times.iter().filter(|t| !t.traced).collect();
    let med =
        |ts: &[&Times], f: fn(&Times) -> f64| median(&ts.iter().map(|t| f(t)).collect::<Vec<_>>());
    let timed_s = med(&traced, |t| t.timed);

    // Host-time attribution: only the simulated workloads run the
    // simulator in their timed phase.
    let attributed_s = match spec.backend {
        Backend::Native => 0.0,
        Backend::Sim { exec, .. } => {
            let handoff = if exec == mcsim::ExecBackend::Threads {
                ns.handoff_threads
            } else {
                ns.handoff_coop
            };
            let c = |f: fn(&mcsim::CoreStats) -> u64| sum(f) as f64;
            (c(|x| x.turn_handoffs) * handoff
                + c(|x| x.batched_events) * ns.batched
                + c(|x| x.l1_hits) * ns.l1_hit
                + c(|x| x.l2_hits + x.mem_accesses) * ns.miss
                + c(|x| x.cread_ok + x.cread_fail) * ns.cread
                + c(|x| x.untag_alls) * ns.untag_all
                + c(|x| x.allocs + x.frees) / 2.0 * ns.alloc_free)
                * 1e-9
        }
    };

    let mut m = Metrics(Vec::new());
    let count = |m: &mut Metrics, name, f: fn(&mcsim::CoreStats) -> u64| {
        m.add(name, sum(f) as f64, "count")
    };
    count(&mut m, "mcsim.turn_handoffs", |c| c.turn_handoffs);
    count(&mut m, "mcsim.batched_events", |c| c.batched_events);
    m.add("mcsim.handoff_ns.coop", ns.handoff_coop, "ns");
    m.add("mcsim.handoff_ns.threads", ns.handoff_threads, "ns");
    m.add("mcsim.batched_event_ns", ns.batched, "ns");
    count(&mut m, "mcsim.accesses", |c| c.accesses);
    count(&mut m, "mcsim.l1_hits", |c| c.l1_hits);
    count(&mut m, "mcsim.l2_hits", |c| c.l2_hits);
    count(&mut m, "mcsim.mem_accesses", |c| c.mem_accesses);
    count(&mut m, "mcsim.invalidations_sent", |c| c.invalidations_sent);
    let cycles = |m: &mut Metrics, name, f: fn(&mcsim::CoreStats) -> u64| {
        m.add(name, sum(f) as f64, "cycles")
    };
    cycles(&mut m, "mcsim.l1_hit_cycles", |c| c.l1_hit_cycles);
    cycles(&mut m, "mcsim.l2_hit_cycles", |c| c.l2_hit_cycles);
    cycles(&mut m, "mcsim.mem_fill_cycles", |c| c.mem_fill_cycles);
    cycles(&mut m, "mcsim.invalidation_cycles", |c| {
        c.invalidation_cycles
    });
    m.add("mcsim.l1_hit_ns", ns.l1_hit, "ns");
    m.add("mcsim.miss_ns", ns.miss, "ns");
    count(&mut m, "mcsim.cread_ok", |c| c.cread_ok);
    count(&mut m, "mcsim.cread_fail", |c| c.cread_fail);
    count(&mut m, "mcsim.cwrite_fail", |c| c.cwrite_fail);
    count(&mut m, "mcsim.untag_alls", |c| c.untag_alls);
    count(&mut m, "mcsim.revoke_remote", |c| c.revoke_remote);
    count(&mut m, "mcsim.revoke_evict", |c| {
        c.revoke_l1_evict + c.revoke_l2_evict
    });
    let creads = sum(|c| c.cread_ok + c.cread_fail);
    m.add(
        "mcsim.cread_success_ratio",
        ratio(sum(|c| c.cread_ok), creads),
        "ratio",
    );
    m.add("mcsim.cread_ns", ns.cread, "ns");
    m.add("mcsim.untag_all_ns", ns.untag_all, "ns");
    count(&mut m, "mcsim.allocs", |c| c.allocs);
    count(&mut m, "mcsim.frees", |c| c.frees);
    m.add("mcsim.alloc_free_ns", ns.alloc_free, "ns");
    count(&mut m, "mcsim.cas_ops", |c| c.cas_ops);
    let cas = sum(|c| c.cas_ops);
    m.add(
        "mcsim.cas_success_ratio",
        ratio(cas - sum(|c| c.cas_failures), cas),
        "ratio",
    );
    count(&mut m, "casmr.fences", |c| c.fences);
    m.add(
        "casmr.garbage_lines_end",
        checks::garbage_lines_end(modelled) as f64,
        "lines",
    );
    m.add("casmr.native_ops_per_s", native_ops_per_s, "1/s");
    m.add("casmr.native_peak_lines", native_peak_lines, "lines");
    m.add(
        "cads.accesses_per_op",
        ratio(sum(|c| c.accesses), s.total_ops),
        "accesses/op",
    );
    m.add("span.machine_new_s", med(&traced, |t| t.machine_new), "s");
    m.add(
        "span.structure_new_s",
        med(&traced, |t| t.structure_new),
        "s",
    );
    m.add("span.prefill_s", med(&traced, |t| t.prefill), "s");
    m.add("span.timed_s", timed_s, "s");
    m.add(
        "span.check_s",
        times.iter().map(|t| t.check).sum::<f64>() + run_checks_s,
        "s",
    );
    m.add("mcsim.attributed_s", attributed_s, "s");
    m.add("mcsim.residual_s", timed_s - attributed_s, "s");
    m.add(
        "span.overhead_ratio",
        med(&untraced, |t| t.timed) / timed_s,
        "ratio",
    );
    m
}
