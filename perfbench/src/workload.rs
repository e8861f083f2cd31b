//! The four workloads and one repetition of each: build the machine (or
//! native pool) and the structure, prefill on one core, then run the timed
//! phase, recording every operation's return value.

use std::time::Instant;

use cads::ca::CaLazyList;
use cads::seqcheck::walk_list;
use cads::smr::SmrLazyList;
use cads::{HashTable, SetDs};
use casmr::{Env, GarbageStats, Hp, NativeMachine, SmrBase, SmrConfig};
use mcsim::{Ctx, ExecBackend, Machine, MachineConfig, MachineStats};

use crate::gen::{Inputs, Op};

/// Buckets of the Fig. 2 hash table.
pub const BUCKETS: usize = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Structure {
    /// The Fig. 1 lazy list under Conditional Access.
    CaList,
    /// The Fig. 2 hash table of lazy lists under hazard pointers.
    HpHash,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Sim { exec: ExecBackend, quantum: u64 },
    Native,
}

pub struct Spec {
    pub name: &'static str,
    pub structure: Structure,
    pub backend: Backend,
    /// Simulated cores, or host threads on the native backend.
    pub cores: usize,
    pub key_range: u64,
    pub ops_per_core: usize,
}

// Why each workload exists is recorded in README.md and BENCHMARK.json.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "list-ca-exact",
        structure: Structure::CaList,
        backend: Backend::Sim {
            exec: ExecBackend::Coop,
            quantum: 0,
        },
        cores: 8,
        key_range: 1000,
        ops_per_core: 2500,
    },
    Spec {
        name: "hash-hp-update",
        structure: Structure::HpHash,
        backend: Backend::Sim {
            exec: ExecBackend::Coop,
            quantum: 64,
        },
        cores: 8,
        key_range: 1000,
        ops_per_core: 4000,
    },
    Spec {
        name: "hash-hp-native",
        structure: Structure::HpHash,
        backend: Backend::Native,
        cores: 2,
        key_range: 1000,
        ops_per_core: 200_000,
    },
    Spec {
        name: "list-ca-threads",
        structure: Structure::CaList,
        backend: Backend::Sim {
            exec: ExecBackend::Threads,
            quantum: 0,
        },
        cores: 2,
        key_range: 64,
        ops_per_core: 5000,
    },
];

/// Allocation counts of one repetition, prefill included, static lines
/// excluded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Lines allocated and freed over the repetition, where the backend
    /// counts them: the native pool does; `mcsim` keeps per-core
    /// `allocs`/`frees` counters but never increments them.
    pub allocs_frees: Option<(u64, u64)>,
    /// Allocated-but-not-freed lines at the end, and their high-water mark.
    pub not_freed: u64,
    pub peak: u64,
}

/// What one repetition produced.
pub struct Rep {
    /// Start, machine built, structure built, prefilled, timed phase
    /// started, timed phase ended.
    pub marks: [Instant; 6],
    pub prefill_results: Vec<bool>,
    /// `results[c][i]`: the return value of `inputs.ops[c][i]`.
    pub results: Vec<Vec<bool>>,
    /// Simulated cycles of every timed operation (simulator only).
    pub latencies: Vec<u64>,
    /// Simulator counters of the timed phase.
    pub stats: Option<MachineStats>,
    pub ledger: Ledger,
    /// Per-thread SMR garbage at the end (empty under CA).
    pub garbage: Vec<GarbageStats>,
    /// Keys reachable in the structure after the run, ascending.
    pub final_keys: Vec<u64>,
}

impl Rep {
    fn secs(&self, from: usize, to: usize) -> f64 {
        (self.marks[to] - self.marks[from]).as_secs_f64()
    }
    pub fn machine_new_s(&self) -> f64 {
        self.secs(0, 1)
    }
    pub fn structure_new_s(&self) -> f64 {
        self.secs(1, 2)
    }
    pub fn prefill_s(&self) -> f64 {
        self.secs(2, 3)
    }
    pub fn setup_s(&self) -> f64 {
        self.secs(0, 3)
    }
    pub fn timed_s(&self) -> f64 {
        self.secs(4, 5)
    }
}

/// The ops of one core, recording results (and, given a buffer, each op's
/// latency as the environment's clock sees it).
pub fn play<E: Env + ?Sized, D: SetDs<E>>(
    ds: &D,
    env: &mut E,
    tls: &mut D::Tls,
    ops: &[Op],
    mut latencies: Option<&mut Vec<u64>>,
) -> Vec<bool> {
    let mut results = Vec::with_capacity(ops.len());
    for &op in ops {
        let start = if latencies.is_some() { env.now() } else { 0 };
        let ok = match op {
            Op::Insert(k) => ds.insert(env, tls, k),
            Op::Delete(k) => ds.delete(env, tls, k),
        };
        if let Some(l) = latencies.as_deref_mut() {
            l.push(env.now() - start);
        }
        results.push(ok);
        env.op_completed();
    }
    results
}

/// Machine memory sized for the leaky worst case, as the figure runners do.
pub fn sim_config(inputs: &Inputs, exec: ExecBackend, quantum: u64) -> MachineConfig {
    let worst_nodes = 2 * inputs.prefill.len() as u64 + 2 * inputs.total_ops() as u64 + 4096;
    MachineConfig {
        cores: inputs.ops.len(),
        quantum,
        exec,
        mem_bytes: (worst_nodes * 64).next_power_of_two().max(1 << 22),
        static_lines: 4096,
        ..MachineConfig::default()
    }
}

/// One repetition of `structure` on a simulated machine with one core per
/// operation list of `inputs`.
pub fn sim_rep(structure: Structure, exec: ExecBackend, quantum: u64, inputs: &Inputs) -> Rep {
    let t0 = Instant::now();
    let m = Machine::new(sim_config(inputs, exec, quantum));
    let t1 = Instant::now();
    match structure {
        Structure::CaList => {
            let ds = CaLazyList::new(&m);
            let t2 = Instant::now();
            drive_sim(
                &m,
                &ds,
                inputs,
                [t0, t1, t2],
                |_| None,
                || walk_list(&m, ds.head_node()),
            )
        }
        Structure::HpHash => {
            let hp = Hp::new(&m, inputs.ops.len(), SmrConfig::default());
            let ds = HashTable::new(&m, BUCKETS, |mm| SmrLazyList::new(mm, &hp));
            let t2 = Instant::now();
            drive_sim(
                &m,
                &ds,
                inputs,
                [t0, t1, t2],
                |tls| Some(hp.garbage(tls)),
                || hash_keys(&m, &ds),
            )
        }
    }
}

fn hash_keys<H: casmr::EnvHost, S>(host: &H, ds: &HashTable<SmrLazyList<S>>) -> Vec<u64> {
    let mut keys: Vec<u64> = ds
        .buckets()
        .iter()
        .flat_map(|b| walk_list(host, b.head_node()))
        .collect();
    keys.sort_unstable();
    keys
}

fn drive_sim<D: for<'m> SetDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    inputs: &Inputs,
    [t0, t1, t2]: [Instant; 3],
    garbage: impl Fn(&D::Tls) -> Option<GarbageStats> + Sync,
    keys: impl FnOnce() -> Vec<u64>,
) -> Rep {
    let prefill_results = m
        .run_on(1, |_, ctx| {
            let mut tls = ds.register(0);
            inputs
                .prefill
                .iter()
                .map(|&k| ds.insert(ctx, &mut tls, k))
                .collect::<Vec<_>>()
        })
        .remove(0);
    let t3 = Instant::now();
    m.reset_timing();
    let t4 = Instant::now();
    let outs = m.run_on(inputs.ops.len(), |c, ctx| {
        let mut tls = ds.register(c);
        let mut lat = Vec::with_capacity(inputs.ops[c].len());
        let results = play(ds, ctx, &mut tls, &inputs.ops[c], Some(&mut lat));
        (results, lat, garbage(&tls))
    });
    let t5 = Instant::now();
    let stats = m.stats();
    let ledger = Ledger {
        allocs_frees: None,
        not_freed: stats.allocated_not_freed,
        peak: stats.peak_allocated,
    };
    let mut results = Vec::new();
    let mut latencies = Vec::new();
    let mut garbage = Vec::new();
    for (r, l, g) in outs {
        results.push(r);
        latencies.extend(l);
        garbage.extend(g);
    }
    Rep {
        marks: [t0, t1, t2, t3, t4, t5],
        prefill_results,
        results,
        latencies,
        stats: Some(stats),
        ledger,
        garbage,
        final_keys: keys(),
    }
}

/// One repetition of the hp hash table on host threads, one per operation
/// list of `inputs`.
pub fn native_rep(inputs: &Inputs) -> Rep {
    let threads = inputs.ops.len();
    // The figure runners' pool size: the leaky worst case plus slack.
    let lines = 2 * inputs.prefill.len() + 2 * inputs.total_ops() + 8193;
    let t0 = Instant::now();
    let mut m = NativeMachine::new(lines);
    let t1 = Instant::now();
    let hp = Hp::new(&m, threads, SmrConfig::default());
    let ds = HashTable::new(&m, BUCKETS, |mm| SmrLazyList::new(mm, &hp));
    let static_lines = m.stats().allocated;
    let t2 = Instant::now();
    let prefill_results = m
        .run_on(1, |_, env| {
            let mut tls = cads::DsShared::register(&ds, 0);
            inputs
                .prefill
                .iter()
                .map(|&k| ds.insert(env, &mut tls, k))
                .collect::<Vec<_>>()
        })
        .remove(0);
    let t3 = Instant::now();
    m.reset_timing();
    let t4 = Instant::now();
    let outs = m.run_on(threads, |c, env| {
        let mut tls = cads::DsShared::register(&ds, c);
        let results = play(&ds, env, &mut tls, &inputs.ops[c], None);
        (results, hp.garbage(&tls))
    });
    let t5 = Instant::now();
    let s = m.stats();
    let ledger = Ledger {
        allocs_frees: Some((s.allocated - static_lines, s.freed)),
        not_freed: s.allocated_not_freed - static_lines,
        peak: s.peak_allocated - static_lines,
    };
    let (results, garbage) = outs.into_iter().unzip();
    Rep {
        marks: [t0, t1, t2, t3, t4, t5],
        prefill_results,
        results,
        latencies: Vec::new(),
        stats: None,
        ledger,
        garbage,
        final_keys: hash_keys(&m, &ds),
    }
}

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|s| s.name == name)
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        Inputs::generate(seed, self.cores, self.key_range, self.ops_per_core)
    }

    /// One repetition of this workload on `inputs`.
    pub fn rep(&self, inputs: &Inputs) -> Rep {
        match self.backend {
            Backend::Sim { exec, quantum } => sim_rep(self.structure, exec, quantum, inputs),
            Backend::Native => native_rep(inputs),
        }
    }

    /// The simulated run that gives the `sim_*` metrics: the workload
    /// itself on the simulator, and on the native backend its modelled
    /// twin (the same inputs on as many simulated cores, figure quantum).
    pub fn modelled(&self) -> (ExecBackend, u64) {
        match self.backend {
            Backend::Sim { exec, quantum } => (exec, quantum),
            Backend::Native => (ExecBackend::Coop, 64),
        }
    }
}
