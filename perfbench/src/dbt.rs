//! The translation and execution side: timed engine runs, the traced
//! replay of the translation layers, and multi-tenant serving.

use crate::programs::{self, Reference};
use crate::trace::Tracer;
use ldbt_compiler::ArmImage;
use ldbt_core::serve::{serve_with, ServeProgram, ServeReport};
use ldbt_core::EngineKind;
use ldbt_dbt::{DbtStats, Engine, RuleCell, RunOutcome, Translator};
use ldbt_isa::Memory;
use ldbt_learn::RuleSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Host-instruction budget of one engine run.
const FUEL: u64 = 3_000_000_000;

pub const ENGINES: [EngineKind; 3] = [EngineKind::Rules, EngineKind::Tcg, EngineKind::Jit];

/// How a phase changes an engine after `Engine::new`. The engine comes
/// with its own defaults (every `LDBT_*` variable is cleared first); a
/// phase applies only the overrides it needs, such as a watchdog period
/// or no superblock regions.
pub type Configure<'a> = &'a (dyn Fn(Engine) -> Engine + Sync);

/// The engine as it comes.
pub fn as_it_comes(e: Engine) -> Engine {
    e
}

/// The configuration `Engine::new` takes from the (cleared) environment,
/// read through the same functions it calls.
pub fn engine_defaults() -> String {
    use ldbt_dbt::env;
    let onoff = |p: Option<u64>| p.map_or("off".to_string(), |v| v.to_string());
    format!(
        "chaining={} superblocks={} region_alloc={} fusion={} smc={} repair={} watchdog={} fault={}",
        env::chaining_from_env(),
        onoff(env::superblocks_from_env()),
        env::region_alloc_from_env(),
        env::fusion_from_env(),
        env::smc_from_env(),
        env::repair_from_env(),
        onoff(env::watchdog_from_env()),
        if ldbt_learn::fault::env_plan().is_some() { "on" } else { "off" },
    )
}

pub fn translator(kind: EngineKind, rules: &Arc<RuleSet>) -> Translator {
    match kind {
        EngineKind::Rules => Translator::Rules(Arc::clone(rules)),
        EngineKind::Tcg => Translator::Tcg,
        EngineKind::Jit => Translator::Jit,
    }
}

/// One finished engine run.
pub struct Run {
    pub secs: f64,
    pub stats: DbtStats,
    /// Whether the program ran to its end.
    pub finished: bool,
    /// `None` when the final state matches the reference.
    pub mismatch: Option<String>,
}

/// Run `image` to halt on a fresh engine, timing construction and the
/// run (translation included); the check against `reference` is untimed.
pub fn run_program(
    image: &ArmImage,
    kind: EngineKind,
    rules: &Arc<RuleSet>,
    configure: Configure,
    reference: &Reference,
    tracer: &Tracer,
) -> Run {
    let t0 = Instant::now();
    let (e, out) = tracer.span("engine.run", || {
        let mut e = configure(Engine::new(image, translator(kind, rules)));
        let out = e.run(std::hint::black_box(FUEL));
        (e, out)
    });
    let secs = t0.elapsed().as_secs_f64();
    let finished = out == RunOutcome::Halted;
    let mismatch = if !finished {
        Some(format!("engine stopped with {out:?}"))
    } else {
        programs::compare(
            image,
            reference,
            |r| e.guest_reg(r),
            |a| e.guest_mem(a),
            e.stats.guest_dyn(),
        )
    };
    Run { secs, stats: e.stats, finished, mismatch }
}

/// The self-modifying image: the engine's final registers must equal the
/// interpreter's, and `r0` the closed form.
pub fn run_smc(
    kind: EngineKind,
    rules: &Arc<RuleSet>,
    configure: Configure,
    reference: &Reference,
    tracer: &Tracer,
) -> Run {
    let image = ldbt_workloads::asm::smc_image();
    let mut run = run_program(&image, kind, rules, configure, reference, tracer);
    if run.mismatch.is_none() && reference.regs[0] != ldbt_workloads::asm::SMC_RESULT {
        run.mismatch = Some(format!("smc r0 {:#x} is not the closed form", reference.regs[0]));
    }
    run
}

/// The trapping mini-kernel: the engine-driven schedule must equal the
/// interpreter-driven one, with `proc_wild` as the only fault.
/// Returns the run and the number of traps the engine surfaced: every
/// slice ends in one (a yield, an exit, or a fault).
pub fn run_kernel(
    kind: EngineKind,
    rules: &Arc<RuleSet>,
    configure: Configure,
    tracer: &Tracer,
) -> (Run, u64) {
    let t0 = Instant::now();
    let got = tracer.span("engine.run", || {
        ldbt_core::kernel::run_mini_kernel_dbt(translator(kind, rules), configure)
    });
    let secs = t0.elapsed().as_secs_f64();
    let traps = u64::from(got.yields) + got.results.len() as u64;
    let want = ldbt_core::kernel::run_mini_kernel_interp();
    let mismatch = if got != want {
        Some("mini-kernel schedule differs from the interpreter's".to_string())
    } else if got.faults.len() != 1 || got.faults[0].0 != 2 {
        Some(format!("mini-kernel faults {:?}, expected only proc_wild", got.faults))
    } else {
        None
    };
    (Run { secs, stats: DbtStats::new(), finished: true, mismatch }, traps)
}

/// Translation-layer costs of one replay.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub blocks: u64,
    pub rule_lookups: u64,
}

/// Replay the translation layers over each distinct block leader of
/// `image`: decode, TCG IR, backend lowering, rule lowering and JIT
/// optimization, each in its own span.
pub fn replay_translation(
    image: &ArmImage,
    leaders: &[u32],
    rules: &RuleSet,
    tracer: &Tracer,
) -> Replay {
    let mut mem = Memory::new();
    image.load_into(&mut mem);
    let mut r = Replay::default();
    for &pc in leaders {
        let block = tracer.span("dbt.decode", || ldbt_dbt::tcg::decode_block(&mem, pc));
        if block.instrs.is_empty() {
            continue;
        }
        r.blocks += 1;
        let tcg = tracer.span("dbt.tcg_ir", || ldbt_dbt::tcg::translate_block(&mem, &block));
        if tcg.unsupported_at.is_none() {
            tracer.span("dbt.lower", || ldbt_dbt::backend::lower_block(&tcg));
            tracer.span("dbt.jit_opt", || ldbt_dbt::jit::optimize_block(&tcg));
        }
        if ldbt_dbt::rules::block_supported(&block) {
            let low = tracer.span("dbt.rules_lower", || {
                ldbt_dbt::rules::lower_block_with_rules(&mem, &block, rules)
            });
            r.rule_lookups += low.lookups as u64;
        }
    }
    r
}

/// Per-tenant wall clocks of a traced serve: engine-construction times
/// seen by the configurator, keyed by thread.
pub type Clocks = Mutex<Vec<(std::thread::ThreadId, Instant)>>;

/// Serve `programs` to `tenants` tenants over one shared rule cell.
/// With `clocks`, every engine construction is time-stamped per thread.
pub fn serve(
    programs: &[ServeProgram],
    tenants: usize,
    rules: &RuleSet,
    configure: Configure,
    clocks: Option<&Clocks>,
) -> (ServeReport, f64) {
    let cell = Arc::new(RuleCell::new(rules.clone()));
    let t0 = Instant::now();
    let report = serve_with(programs, tenants, &cell, |e| {
        if let Some(c) = clocks {
            c.lock()
                .expect("clock log poisoned")
                .push((std::thread::current().id(), Instant::now()));
        }
        configure(e)
    });
    (report, t0.elapsed().as_secs_f64())
}

/// Each tenant's (first, last) engine-construction time. The caller
/// appends a sentinel program, so the last construction marks the end of
/// the tenant's real programs.
pub fn tenant_spans(clocks: &Clocks) -> Vec<(Instant, Instant)> {
    let c = clocks.lock().expect("clock log poisoned");
    let mut by: Vec<(std::thread::ThreadId, Instant, Instant)> = Vec::new();
    for (id, t) in c.iter() {
        match by.iter_mut().find(|(i, _, _)| i == id) {
            Some(e) => e.2 = *t,
            None => by.push((*id, *t, *t)),
        }
    }
    by.into_iter().map(|(_, first, last)| (first, last)).collect()
}
