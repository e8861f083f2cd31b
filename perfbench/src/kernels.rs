//! Host cost of each simulator event class, from small kernels in the
//! manner of `cabench`'s `micro_sim` bodies.
//!
//! Every event a core issues either keeps the turn (a batched event) or
//! passes it (a handoff), so those two classes price dispatch. The other
//! classes are increments on top: what an L1 hit, a directory miss with an
//! invalidation, a `cread`, an `untag_all` or an alloc+free pair adds to a
//! bare event. An increment is the difference of two kernels' medians,
//! floored at 0.

use std::time::Instant;

use mcsim::{Ctx, ExecBackend, Machine, MachineConfig};

use crate::stats::median;
use crate::trace::Tracer;

/// Host nanoseconds per event class (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct EventNs {
    pub batched: f64,
    pub handoff_coop: f64,
    pub handoff_threads: f64,
    pub l1_hit: f64,
    pub miss: f64,
    pub cread: f64,
    pub untag_all: f64,
    pub alloc_free: f64,
}

/// Rounds of every kernel; each class reports the median of its rounds.
const ROUNDS: usize = 7;
/// Iterations per core of the one-core and coop kernels.
const N: u64 = 100_000;
/// Iterations per core of the threads-backend handoff kernel, whose
/// handoffs cost tens of times more.
const N_THREADS: u64 = 1_000;

struct Kernel {
    name: &'static str,
    machine: Machine,
    line: mcsim::Addr,
    cores: usize,
    iters: u64,
    body: fn(&mut Ctx, mcsim::Addr, u64),
    /// Host ns per unit, one entry per round.
    ns: Vec<f64>,
}

impl Kernel {
    fn new(
        name: &'static str,
        cores: usize,
        quantum: u64,
        exec: ExecBackend,
        iters: u64,
        body: fn(&mut Ctx, mcsim::Addr, u64),
    ) -> Self {
        let machine = Machine::new(MachineConfig {
            cores,
            quantum,
            exec,
            mem_bytes: 1 << 22,
            static_lines: 64,
            ..MachineConfig::default()
        });
        let line = machine.alloc_static(1);
        Kernel {
            name,
            machine,
            line,
            cores,
            iters,
            body,
            ns: Vec::new(),
        }
    }

    /// One round. The unit is an iteration on one-core kernels and a turn
    /// handoff on multi-core ones, read from the machine's own counters.
    fn round(&mut self, tracer: &mut Tracer, parent: usize) {
        let m = &self.machine;
        m.reset_timing();
        let (body, line, iters) = (self.body, self.line, self.iters);
        let t0 = Instant::now();
        m.run_on(self.cores, |_, ctx| {
            for i in 0..iters {
                body(ctx, line, i);
            }
        });
        let t1 = Instant::now();
        tracer.span(self.name, t0, t1, Some(parent));
        let stats = m.stats();
        let units = if self.cores == 1 {
            iters
        } else {
            stats.sum(|c| c.turn_handoffs)
        };
        self.ns
            .push((t1 - t0).as_secs_f64() * 1e9 / units.max(1) as f64);
    }

    fn median(&self) -> f64 {
        median(&self.ns)
    }
}

/// Time every kernel, rounds interleaved so that a slow phase of the host
/// touches all classes alike.
pub fn measure(tracer: &mut Tracer) -> EventNs {
    let coop = ExecBackend::Coop;
    let mut ks = [
        Kernel::new("kernel.bare", 1, 0, coop, N, |ctx, _, _| ctx.op_completed()),
        Kernel::new("kernel.read", 1, 0, coop, N, |ctx, a, _| {
            std::hint::black_box(ctx.read(a));
        }),
        Kernel::new("kernel.cread", 1, 0, coop, N, |ctx, a, _| {
            std::hint::black_box(ctx.cread(a));
        }),
        Kernel::new("kernel.cread_untag_all", 1, 0, coop, N, |ctx, a, _| {
            std::hint::black_box(ctx.cread(a));
            ctx.untag_all();
        }),
        Kernel::new("kernel.alloc_free", 1, 0, coop, N, |ctx, _, _| {
            let n = ctx.alloc();
            ctx.free(n);
        }),
        Kernel::new("kernel.handoff_coop", 2, 0, coop, N, |ctx, _, _| {
            ctx.tick(1);
            ctx.op_completed();
        }),
        Kernel::new(
            "kernel.handoff_threads",
            2,
            0,
            ExecBackend::Threads,
            N_THREADS,
            |ctx, _, _| {
                ctx.tick(1);
                ctx.op_completed();
            },
        ),
        // Two cores storing to one line at quantum 0: every store misses,
        // invalidates the other core's copy and passes the turn.
        Kernel::new("kernel.write_pingpong", 2, 0, coop, N, |ctx, a, i| {
            ctx.write(a, i)
        }),
    ];
    let t0 = Instant::now();
    let root = tracer.span("kernels", t0, t0, None);
    for _ in 0..ROUNDS {
        for k in ks.iter_mut() {
            k.round(tracer, root);
        }
    }
    tracer.close(root, Instant::now());
    let [bare, read, cread, cread_untag, alloc_free, handoff_coop, handoff_threads, pingpong] =
        ks.map(|k| k.median());
    let inc = |x: f64| x.max(0.0);
    EventNs {
        batched: bare,
        handoff_coop,
        handoff_threads,
        l1_hit: inc(read - bare),
        miss: inc(pingpong - handoff_coop),
        cread: inc(cread - read),
        untag_all: inc(cread_untag - cread - bare),
        alloc_free: inc(alloc_free - 2.0 * bare),
    }
}
