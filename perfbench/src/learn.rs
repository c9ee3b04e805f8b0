//! The learning side: cold learning, the rule database and warm
//! relearning, concrete co-execution of every learned rule, and the
//! traced replay of the learning layers.

use crate::programs::{Rng, Source, DISPATCH};
use crate::trace::Tracer;
use ldbt_arm::{ArmEvent, ArmInstr, ArmState};
use ldbt_compiler::{compile_arm, compile_x86, Options};
use ldbt_core::experiment::{loo_rules, ProgramRules};
use ldbt_isa::{CostModel, ExecStats, Memory, Width};
use ldbt_learn::param::{initial_mappings_limit, MAX_MAPPING_TRIES};
use ldbt_learn::pipeline::learn_from_source_cached;
use ldbt_learn::{LearnConfig, LearnStats, Rule, RuleSet, VerifyCache};
use ldbt_smt::TermPool;
use ldbt_x86::interp::{run_seq, SeqExit};
use ldbt_x86::{X86Instr, X86State};
use std::path::Path;
use std::time::Instant;

/// Rules learned under one compiler configuration.
pub struct ConfigRules {
    /// Per-program rule sets, in source order.
    pub per_program: Vec<RuleSet>,
    pub stats: Vec<LearnStats>,
}

/// Learn every source under `options` with one fresh memo cache shared
/// across the programs (the protocol of `learn_all`).
pub fn learn_config(
    sources: &[Source],
    options: &Options,
    config: &LearnConfig,
    cache: &mut VerifyCache,
    tracer: &Tracer,
) -> ConfigRules {
    let mut per_program = Vec::new();
    let mut stats = Vec::new();
    for s in sources {
        let report = tracer.span("learn.program", || {
            learn_from_source_cached(&s.name, &s.src, options, config, cache)
        });
        let report = report.unwrap_or_else(|e| panic!("{} fails to compile: {e}", s.name));
        per_program.push(report.rules);
        stats.push(report.stats);
    }
    ConfigRules { per_program, stats }
}

/// The union of `sets`. `RuleSet::merge` is order-independent but
/// re-sorts the whole accumulated set on every call, so the sets are
/// merged pairwise in a balanced tree rather than folded one by one.
pub fn merged(sets: &[RuleSet]) -> RuleSet {
    match sets {
        [] => RuleSet::new(),
        [one] => one.clone(),
        _ => {
            let (a, b) = sets.split_at(sets.len() / 2);
            let mut all = merged(a);
            all.merge(&merged(b));
            all
        }
    }
}

/// The rule set each learned program's namesakes run with: for a suite
/// program, the leave-one-out set composed by the system's own
/// `experiment::loo_rules`; for the dispatch loop, its own rules.
pub fn leave_one_out(learned: &ConfigRules, sources: &[Source]) -> Vec<RuleSet> {
    let suite: Vec<ProgramRules> = (0..sources.len())
        .filter(|&i| sources[i].name != DISPATCH)
        .map(|i| ProgramRules {
            name: sources[i].name.clone(),
            rules: learned.per_program[i].clone(),
            stats: learned.stats[i].clone(),
        })
        .collect();
    (0..sources.len())
        .map(|i| {
            if sources[i].name == DISPATCH {
                learned.per_program[i].clone()
            } else {
                loo_rules(&suite, &sources[i].name)
            }
        })
        .collect()
}

/// Fold `from` into `into` (signatures are content keys, so memo entries
/// of different configurations never conflict).
pub fn absorb_cache(into: &mut VerifyCache, from: &VerifyCache) {
    for (sig, outcome) in from.iter() {
        if into.get(sig).is_none() {
            into.insert(sig.to_string(), outcome.clone());
        }
    }
}

pub fn save_db(path: &Path, rules: &RuleSet, cache: &VerifyCache) -> u64 {
    ldbt_learn::db::save(path, rules, cache).expect("rule database is writable");
    std::fs::metadata(path).map(|m| m.len()).expect("rule database was written")
}

pub fn load_db(path: &Path) -> ldbt_learn::RuleDb {
    ldbt_learn::db::load(path).unwrap_or_else(|e| panic!("saved rule database fails to load: {e}"))
}

/// Outcome of co-executing one rule.
pub enum CoExec {
    Agree,
    Differ(String),
    /// The templates hold control flow a straight-line co-execution
    /// cannot run (calls, indirect branches, stack traffic).
    Unsupported,
}

const TRIALS: u64 = 8;
/// Base of the randomized data window pointer registers aim into.
const WINDOW: u32 = 0x0010_0000;
const WINDOW_WORDS: u32 = 1024;

fn guest_runnable(guest: &[ArmInstr]) -> bool {
    guest.iter().enumerate().all(|(k, i)| match i {
        ArmInstr::B { .. } => k + 1 == guest.len(),
        ArmInstr::Bl { .. } | ArmInstr::Bx { .. } | ArmInstr::Svc { .. } => false,
        _ => true,
    })
}

fn host_runnable(host: &[X86Instr]) -> bool {
    host.iter().enumerate().all(|(k, i)| match i {
        X86Instr::Jcc { .. } => k + 1 == host.len(),
        X86Instr::Jmp { .. }
        | X86Instr::JmpInd { .. }
        | X86Instr::Call { .. }
        | X86Instr::Ret
        | X86Instr::Push { .. }
        | X86Instr::Pop { .. }
        | X86Instr::Pushfd
        | X86Instr::Popfd
        | X86Instr::Halt
        | X86Instr::ChainJmp { .. }
        | X86Instr::Trap => false,
        _ => true,
    })
}

/// Run `rule`'s guest template on the ARM interpreter and its host
/// template, registers bound through `host_reg_of`, on the x86
/// interpreter, from the same seeded random registers and memory; compare
/// every mapped register, all of memory, and the branch outcome.
pub fn co_execute(rule: &Rule, seed: u64) -> CoExec {
    if !guest_runnable(&rule.guest) || !host_runnable(&rule.host) {
        return CoExec::Unsupported;
    }
    // A trailing jcc branches past a `ret` onto a `hlt`: taken ends the
    // sequence `Halted`, not taken `Returned`.
    let mut host = rule.host.clone();
    if let Some(X86Instr::Jcc { target, .. }) = host.last_mut() {
        *target = 1;
    }
    host.push(X86Instr::Ret);
    host.push(X86Instr::Halt);
    let mut pairs: Vec<_> = rule.host_reg_of.iter().map(|(h, g)| (*h, *g)).collect();
    pairs.sort_by_key(|(h, _)| h.index());
    let mut rng = Rng::new(seed);
    for trial in 0..TRIALS {
        let mut mem = Memory::new();
        for w in 0..WINDOW_WORDS {
            mem.write(WINDOW + 4 * w, rng.next_u32(), Width::W32);
        }
        let mut arm = ArmState { mem: mem.clone(), ..ArmState::default() };
        for r in 0..15 {
            // Half the registers point into the data window, so loads and
            // stores through them see random data.
            arm.regs[r] = if rng.next_u64() & 1 == 0 {
                WINDOW + 4 * (rng.next_u32() % WINDOW_WORDS)
            } else {
                rng.next_u32()
            };
        }
        let mut x86 = X86State { mem, ..X86State::default() };
        for (h, g) in &pairs {
            x86.set_reg(*h, arm.reg(*g));
        }
        let mut guest_taken = false;
        for i in &rule.guest {
            match arm.exec(i) {
                ArmEvent::Next => {}
                ArmEvent::Branch(_) => guest_taken = true,
                _ => return CoExec::Unsupported,
            }
        }
        let exit =
            run_seq(&mut x86, &host, 1_000, &CostModel::default(), &mut ExecStats::default());
        let host_taken = match exit {
            SeqExit::Halted => true,
            SeqExit::Returned => false,
            other => {
                return CoExec::Differ(format!("trial {trial}: host template exits {other:?}"))
            }
        };
        if rule.has_branch && guest_taken != host_taken {
            return CoExec::Differ(format!(
                "trial {trial}: branch taken {guest_taken} vs {host_taken}"
            ));
        }
        for (h, g) in &pairs {
            if x86.reg(*h) != arm.reg(*g) {
                return CoExec::Differ(format!(
                    "trial {trial}: {g} = {:#x} but {h} = {:#x}",
                    arm.reg(*g),
                    x86.reg(*h)
                ));
            }
        }
        if let Some(a) = arm.mem.first_difference(&x86.mem, |_| false) {
            return CoExec::Differ(format!("trial {trial}: memory differs at {a:#x}"));
        }
    }
    CoExec::Agree
}

/// Counters of the traced learning replay.
#[derive(Debug, Default, Clone)]
pub struct ReplayCounts {
    pub pairs: u64,
    pub prepare_fail: u64,
    pub param_fail: u64,
    pub verify_calls: u64,
    pub verify_fail: u64,
}

/// Replay the learning layers one public call at a time, each inside a
/// span: compile both sides, extract snippet pairs, prepare,
/// parameterize, and verify every candidate mapping until one holds. No
/// memo: every pair is verified, which is what the layer costs.
pub fn replay(sources: &[Source], configs: &[Options], tracer: &Tracer) -> ReplayCounts {
    let mut c = ReplayCounts::default();
    let mut pool = TermPool::new();
    for options in configs {
        for s in sources {
            let (guest, host) = tracer.span("compiler.build", || {
                (compile_arm(&s.src, options), compile_x86(&s.src, options))
            });
            let (guest, host) = (guest.expect("suite compiles"), host.expect("suite compiles"));
            let (pairs, _dropped) = tracer
                .span("learn.extract", || ldbt_learn::extract::extract_with_stats(&guest, &host));
            c.pairs += pairs.len() as u64;
            for pair in &pairs {
                if tracer.span("learn.prepare", || ldbt_learn::prepare::prepare(pair)).is_err() {
                    c.prepare_fail += 1;
                    continue;
                }
                let mappings =
                    tracer.span("learn.param", || initial_mappings_limit(pair, MAX_MAPPING_TRIES));
                let mappings = match mappings {
                    Ok(m) if !m.is_empty() => m,
                    _ => {
                        c.param_fail += 1;
                        continue;
                    }
                };
                let mut ok = false;
                for m in &mappings {
                    pool.reset();
                    c.verify_calls += 1;
                    let r = tracer
                        .span("learn.verify", || ldbt_learn::verify::verify_in(&mut pool, pair, m));
                    if r.is_ok() {
                        ok = true;
                        break;
                    }
                }
                if !ok {
                    c.verify_fail += 1;
                }
            }
        }
    }
    c
}

/// Wall time of `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
