//! Output checks. Each tests a property every correct run has, or compares
//! against a computation made apart from the program: a `BTreeSet` replay
//! of the same inputs, or the same configuration on the other exec backend.
//! None compares against stored output. Each returns its failures.

use cads::smr::SmrLazyList;
use cads::{DsShared, HashTable, SetDs};
use casmr::{Env, Hp, SmrConfig};
use mcsim::{Addr, ExecBackend, Machine};

use crate::gen::{Inputs, Op};
use crate::workload::{play, sim_config, sim_rep, Backend, Rep, Spec, Structure, BUCKETS};

/// Allocated-but-not-freed lines that are not reachable in the structure.
pub fn garbage_lines_end(rep: &Rep) -> i64 {
    rep.ledger.not_freed as i64 - rep.final_keys.len() as i64
}

/// Checks on one repetition.
pub fn check_rep(
    spec: &Spec,
    inputs: &Inputs,
    reference_prefill: &[bool],
    rep: &Rep,
) -> Vec<String> {
    let mut errs = Vec::new();
    // Per-key set check: initial membership plus successful inserts minus
    // successful deletes is 0 or 1, and equals membership after the run.
    if rep.prefill_results != reference_prefill {
        errs.push("prefill inserts disagree with a BTreeSet".into());
    }
    let range = inputs.key_range as usize;
    let mut count = vec![0i64; range + 1];
    for &k in &inputs.prefill {
        count[k as usize] = 1;
    }
    for (ops, results) in inputs.ops.iter().zip(&rep.results) {
        if ops.len() != results.len() {
            errs.push(format!(
                "{} results for {} operations",
                results.len(),
                ops.len()
            ));
            return errs;
        }
        for (&op, &ok) in ops.iter().zip(results) {
            match (op, ok) {
                (Op::Insert(k), true) => count[k as usize] += 1,
                (Op::Delete(k), true) => count[k as usize] -= 1,
                _ => {}
            }
        }
    }
    let mut present = vec![false; range + 1];
    for &k in &rep.final_keys {
        match present.get_mut(k as usize) {
            Some(p) if k > 0 => *p = true,
            _ => errs.push(format!(
                "key {k} outside 1..={range} found in the structure"
            )),
        }
    }
    let bad_keys = (1..=range)
        .filter(|&k| !(0..=1).contains(&count[k]) || (count[k] == 1) != present[k])
        .count();
    if bad_keys > 0 {
        errs.push(format!("{bad_keys} keys fail the per-key set check"));
    }
    // Allocation ledger, where the backend counts allocations.
    if let Some((allocs, frees)) = rep.ledger.allocs_frees {
        errs.extend(ledger(allocs, frees, rep.ledger.not_freed));
    }
    // Reclamation: CA frees at once; hp's garbage stays bounded.
    let garbage = garbage_lines_end(rep);
    match spec.structure {
        Structure::CaList if garbage != 0 => {
            errs.push(format!("CA left {garbage} unreachable lines unfreed"))
        }
        Structure::CaList => {}
        Structure::HpHash => {
            let live: u64 = rep.garbage.iter().map(|g| g.live).sum();
            if garbage != live as i64 {
                errs.push(format!(
                    "{garbage} unreachable lines but hp holds {live} retired"
                ));
            }
            let t = spec.cores as u64;
            let cfg = SmrConfig::default();
            let bound = t * (cfg.reclaim_freq + t * cfg.slots_per_thread as u64);
            let peak: u64 = rep.garbage.iter().map(|g| g.peak).sum();
            if peak > bound {
                errs.push(format!("hp garbage peaked at {peak} > bound {bound}"));
            }
        }
    }
    // Histogram count: one latency sample per completed operation.
    if let Some(stats) = &rep.stats {
        let n = inputs.total_ops() as u64;
        if rep.latencies.len() as u64 != n || stats.total_ops != n {
            errs.push(format!(
                "{} latency samples and {} completed ops for {n} operations",
                rep.latencies.len(),
                stats.total_ops
            ));
        }
    }
    errs
}

fn ledger(allocs: u64, frees: u64, not_freed: u64) -> Option<String> {
    (allocs.checked_sub(frees) != Some(not_freed)).then(|| {
        format!("ledger: {allocs} allocs - {frees} frees != {not_freed} allocated-but-not-freed")
    })
}

/// An environment that counts the lines its user allocates and frees.
struct Counting<'a, E: ?Sized> {
    env: &'a mut E,
    allocs: u64,
    frees: u64,
}

impl<'a, E: ?Sized> Counting<'a, E> {
    fn new(env: &'a mut E) -> Self {
        Counting {
            env,
            allocs: 0,
            frees: 0,
        }
    }
}

impl<E: Env + ?Sized> Env for Counting<'_, E> {
    fn tid(&self) -> usize {
        self.env.tid()
    }
    fn threads(&self) -> usize {
        self.env.threads()
    }
    fn read(&mut self, a: Addr) -> u64 {
        self.env.read(a)
    }
    fn write(&mut self, a: Addr, v: u64) {
        self.env.write(a, v)
    }
    fn cas(&mut self, a: Addr, expected: u64, new: u64) -> Result<u64, u64> {
        self.env.cas(a, expected, new)
    }
    fn fence(&mut self) {
        self.env.fence()
    }
    fn tick(&mut self, n: u64) {
        self.env.tick(n)
    }
    fn alloc(&mut self) -> Addr {
        self.allocs += 1;
        self.env.alloc()
    }
    fn free(&mut self, a: Addr) {
        self.frees += 1;
        self.env.free(a)
    }
    fn op_completed(&mut self) {
        self.env.op_completed()
    }
    fn now(&mut self) -> u64 {
        self.env.now()
    }
    fn smr_fence(&mut self) {
        self.env.smr_fence()
    }
    fn spin_hint(&mut self, iter: u64) {
        self.env.spin_hint(iter)
    }
}

/// Allocation ledger of the hp hash table on the simulator. `mcsim` does
/// not count allocations, so this re-runs the modelled repetition with the
/// structure's and the scheme's allocs and frees counted where they reach
/// the simulator. The count must match the simulated allocator, and
/// counting must change no simulated counter.
pub fn hp_sim_ledger(spec: &Spec, inputs: &Inputs, modelled: &Rep) -> Vec<String> {
    if spec.structure != Structure::HpHash {
        return Vec::new();
    }
    let (exec, quantum) = spec.modelled();
    let m = Machine::new(sim_config(inputs, exec, quantum));
    let hp = Hp::new(&m, inputs.ops.len(), SmrConfig::default());
    let ds = HashTable::new(&m, BUCKETS, |mm| SmrLazyList::new(mm, &hp));
    let prefill = m.run_on(1, |_, ctx| {
        let mut env = Counting::new(ctx);
        let mut tls = ds.register(0);
        for &k in &inputs.prefill {
            ds.insert(&mut env, &mut tls, k);
        }
        (env.allocs, env.frees)
    });
    m.reset_timing();
    let timed = m.run_on(inputs.ops.len(), |c, ctx| {
        let mut env = Counting::new(ctx);
        let mut tls = ds.register(c);
        play(&ds, &mut env, &mut tls, &inputs.ops[c], None);
        (env.allocs, env.frees)
    });
    let stats = m.stats();
    let (allocs, frees) = prefill
        .iter()
        .chain(&timed)
        .fold((0, 0), |(a, f), (da, df)| (a + da, f + df));
    let mut errs: Vec<String> = ledger(allocs, frees, stats.allocated_not_freed)
        .into_iter()
        .collect();
    let same = modelled
        .stats
        .as_ref()
        .is_some_and(|s| s.cores == stats.cores);
    if !same {
        errs.push("counting allocations changed the simulated counters".into());
    }
    errs
}

/// A simulated repetition must repeat exactly: same counters, same results,
/// same latencies.
pub fn same_simulation(what: &str, a: &Rep, b: &Rep) -> Vec<String> {
    let (Some(sa), Some(sb)) = (&a.stats, &b.stats) else {
        return Vec::new();
    };
    let mut errs = Vec::new();
    if sa.cores != sb.cores || sa.max_cycles != sb.max_cycles || a.ledger != b.ledger {
        errs.push(format!("{what}: simulated counters differ"));
    }
    if a.results != b.results || a.latencies != b.latencies {
        errs.push(format!("{what}: operation results or latencies differ"));
    }
    errs
}

/// One-thread replay: the same scheme and structure on one core must
/// return, op for op, what a `BTreeSet` returns.
pub fn replay(spec: &Spec, inputs: &Inputs) -> Vec<String> {
    let seq = inputs.sequential();
    let rep = match spec.backend {
        Backend::Sim { exec, quantum } => sim_rep(spec.structure, exec, quantum, &seq),
        Backend::Native => crate::workload::native_rep(&seq),
    };
    let (prefill, ops) = inputs.reference_results();
    let mismatches = rep
        .prefill_results
        .iter()
        .zip(&prefill)
        .filter(|(a, b)| a != b)
        .count()
        + rep.results[0]
            .iter()
            .zip(&ops)
            .filter(|(a, b)| a != b)
            .count();
    if mismatches > 0 || rep.results[0].len() != ops.len() {
        vec![format!(
            "one-thread replay: {mismatches} results differ from a BTreeSet"
        )]
    } else {
        Vec::new()
    }
}

/// Cross-backend equality: a threads-backend run must match a coop run of
/// the same configuration bit for bit.
pub fn cross_backend(spec: &Spec, inputs: &Inputs, rep: &Rep) -> Vec<String> {
    match spec.backend {
        Backend::Sim {
            exec: ExecBackend::Threads,
            quantum,
        } => {
            let coop = sim_rep(spec.structure, ExecBackend::Coop, quantum, inputs);
            same_simulation("threads vs coop", rep, &coop)
        }
        _ => Vec::new(),
    }
}
