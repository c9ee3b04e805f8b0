//! One round: learn, run, serve — every operation checked.

use crate::dbt::{self, Configure, ENGINES};
use crate::learn::{self, CoExec};
use crate::programs::{Reference, DISPATCH};
use crate::trace::Tracer;
use crate::{Args, Setup, Spec};
use ldbt_core::serve::ServeProgram;
use ldbt_dbt::Engine;
use ldbt_learn::{LearnConfig, RuleSet, VerifyCache};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Cold learning passes per round, and the fewest warm passes.
const LEARN_PASSES: usize = 3;
/// Warm passes repeat until they have taken this long in a round. A warm
/// pass takes ~30 ms on the `-O2` workloads, and the host's speed changes
/// in bursts of a second or so: warm passes filling 0.3 s of a round left
/// `warm_learn_s` of `serve` (five rounds a run) spread by 0.26-0.29
/// between runs.
const WARM_MIN_S: f64 = 1.0;

/// Operation and check tallies.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
}

impl Tally {
    /// Count one operation: a run that did not finish fails; a finished
    /// run whose output differs from the reference is wrong.
    pub fn op(&mut self, what: &str, run: &dbt::Run) {
        self.attempted += 1;
        match &run.mismatch {
            Some(_) if !run.finished => self.failed += 1,
            Some(m) => self.wrong.push(format!("{what}: {m}")),
            None => {}
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong.push(what());
        }
    }
}

/// Per-engine totals of one round's run phase.
#[derive(Default, Clone)]
pub struct EngineTotals {
    pub secs: f64,
    pub cycles: u64,
    pub trans_cycles: u64,
    pub host_instrs: u64,
    /// Registry counters summed over the programs.
    pub ctrs: BTreeMap<&'static str, u64>,
    pub traps: u64,
    /// Host instructions of the dispatch loop program's run.
    pub dispatch_host_instrs: u64,
}

impl EngineTotals {
    fn add(&mut self, run: &dbt::Run) {
        self.secs += run.secs;
        self.cycles += run.stats.total_cycles();
        self.trans_cycles += run.stats.exec.translation_cycles;
        self.host_instrs += run.stats.exec.host_instrs;
        for (k, v) in run.stats.registry() {
            *self.ctrs.entry(k).or_default() += v;
        }
    }

    pub fn ctr(&self, k: &str) -> u64 {
        self.ctrs.get(k).copied().unwrap_or(0)
    }
}

/// One round's measurements.
pub struct RoundOut {
    /// Times of the round's cold learning passes.
    pub learn_s: Vec<f64>,
    /// Times of the round's warm passes (database load + relearn).
    pub warm_s: Vec<f64>,
    pub db_save_s: f64,
    pub db_load_s: f64,
    pub db_bytes: u64,
    /// Size of the merged rule set over every configuration.
    pub rules_learned: usize,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub engines: Vec<EngineTotals>,
    pub serve_s: f64,
    pub serve_wd: (u64, u64, u64),
    pub serve_generation: u64,
    pub rules_checked: u64,
    pub rules_uncoexec: u64,
    /// Rule sets the round learned, kept for the traced replays.
    pub loo: Vec<Arc<RuleSet>>,
    pub suite_rules: RuleSet,
}

pub struct Ctx<'a> {
    pub args: &'a Args,
    pub spec: &'a Spec,
    pub tracer: &'a Tracer,
    pub learn_cfg: LearnConfig,
    pub tenants: usize,
    pub setup: &'a Setup,
    pub refs: &'a [Reference],
    pub smc_ref: Option<Reference>,
    pub db_path: PathBuf,
}

impl Ctx<'_> {
    /// The rule set the rules engine runs program `i` with.
    pub fn rules_for(&self, loo: &[Arc<RuleSet>], i: usize) -> Arc<RuleSet> {
        Arc::clone(&loo[self.setup.run[i].learned])
    }

    /// Indices of the suite programs (the dispatch loop is not served).
    fn suite_programs(&self) -> Vec<usize> {
        (0..self.setup.run.len()).filter(|&i| self.setup.run[i].name != DISPATCH).collect()
    }

    pub fn serve_programs(&self) -> Vec<ServeProgram> {
        self.suite_programs()
            .into_iter()
            .map(|i| ServeProgram {
                name: self.setup.run[i].name.clone(),
                image: self.setup.images[i].clone(),
                want: self.refs[i].regs[0],
            })
            .collect()
    }

    /// The engine configuration of the serve phase: the watchdog sampling
    /// at the workload's period, if it has one.
    pub fn serve_config(&self) -> impl Fn(Engine) -> Engine + Sync {
        let period = self.spec.serve_watchdog;
        move |e: Engine| if period.is_some() { e.with_watchdog(period) } else { e }
    }

    /// The run phase: every program of the workload, and the asm images
    /// when it has them, to halt on a fresh engine per translator, each
    /// engine changed by `configure`. `label` tells the operations of
    /// a variant apart in the wrong-output list.
    pub fn run_phase(
        &self,
        loo: &[Arc<RuleSet>],
        suite_rules: &RuleSet,
        configure: Configure,
        label: &str,
        tally: &mut Tally,
    ) -> Vec<EngineTotals> {
        let t = self.tracer;
        let mut engines = Vec::new();
        for kind in ENGINES {
            let mut tot = EngineTotals::default();
            for (i, image) in self.setup.images.iter().enumerate() {
                let rules = self.rules_for(loo, i);
                let run = dbt::run_program(image, kind, &rules, configure, &self.refs[i], t);
                let name = &self.setup.run[i].name;
                tally.op(&format!("{name} on {}{label}", kind.name()), &run);
                if *name == DISPATCH {
                    tot.dispatch_host_instrs = run.stats.exec.host_instrs;
                }
                tot.add(&run);
            }
            if let Some(smc_ref) = &self.smc_ref {
                let rules = Arc::new(suite_rules.clone());
                let run = dbt::run_smc(kind, &rules, configure, smc_ref, t);
                tally.op(&format!("smc_image on {}{label}", kind.name()), &run);
                tot.add(&run);
                let (run, traps) = dbt::run_kernel(kind, &rules, configure, t);
                tally.op(&format!("mini-kernel on {}{label}", kind.name()), &run);
                tot.secs += run.secs;
                tot.traps += traps;
            }
            engines.push(tot);
        }
        engines
    }

    pub fn round(&self, tally: &mut Tally) -> RoundOut {
        let t = self.tracer;
        let learned = &self.setup.learned;
        // --- Learn: cold, one fresh memo per configuration. A pass is
        // short, so each round makes several and keeps every time. ---
        let mut learn_s = Vec::new();
        let mut pass = || {
            let (out, secs) = learn::timed(|| {
                t.span("learn.cold", || {
                    let mut cold = Vec::new();
                    let mut caches = Vec::new();
                    for options in &self.spec.configs {
                        let mut cache = VerifyCache::new();
                        cold.push(learn::learn_config(
                            learned,
                            options,
                            &self.learn_cfg,
                            &mut cache,
                            t,
                        ));
                        caches.push(cache);
                    }
                    // The run phase uses the first configuration's rules.
                    let loo = t.span("learn.loo", || learn::leave_one_out(&cold[0], learned));
                    (cold, caches, loo.into_iter().map(Arc::new).collect::<Vec<_>>())
                })
            });
            learn_s.push(secs);
            out
        };
        let (cold, caches, loo) = (1..LEARN_PASSES).fold(pass(), |_, _| pass());
        let first = &cold[0].per_program;
        let suite: Vec<RuleSet> = (0..first.len())
            .filter(|&i| learned[i].name != DISPATCH)
            .map(|i| first[i].clone())
            .collect();
        let suite_rules = learn::merged(&suite);
        let all_rules = learn::merged(
            &cold.iter().flat_map(|c| c.per_program.iter().cloned()).collect::<Vec<_>>(),
        );
        let mut union = VerifyCache::new();
        for c in &caches {
            learn::absorb_cache(&mut union, c);
        }
        let memo_hits = cold.iter().flat_map(|c| &c.stats).map(|s| s.cache_hits as u64).sum();
        let memo_misses = cold.iter().flat_map(|c| &c.stats).map(|s| s.cache_misses as u64).sum();
        // --- Rule database: save, then learn again warm from it. ---
        let (db_bytes, db_save_s) = learn::timed(|| {
            t.span("learn.db_save", || learn::save_db(&self.db_path, &all_rules, &union))
        });
        let mut warm_s: Vec<f64> = Vec::new();
        let mut db_load_s = 0.0;
        let mut warm_pass = || {
            let t_warm = Instant::now();
            let (db, load_s) =
                learn::timed(|| t.span("learn.db_load", || learn::load_db(&self.db_path)));
            db_load_s = load_s;
            let warm: Vec<learn::ConfigRules> = t.span("learn.warm", || {
                self.spec
                    .configs
                    .iter()
                    .map(|options| {
                        let mut cache = db.cache.clone();
                        learn::learn_config(learned, options, &self.learn_cfg, &mut cache, t)
                    })
                    .collect()
            });
            (warm, t_warm.elapsed().as_secs_f64())
        };
        let warm = loop {
            let (warm, secs) = warm_pass();
            warm_s.push(secs);
            if warm_s.len() >= LEARN_PASSES && warm_s.iter().sum::<f64>() >= WARM_MIN_S {
                break warm;
            }
        };
        t.span("check.warm", || {
            for (k, (c, w)) in cold.iter().zip(&warm).enumerate() {
                for (i, (cr, wr)) in c.per_program.iter().zip(&w.per_program).enumerate() {
                    tally.check(cr.canonical_dump() == wr.canonical_dump(), || {
                        format!("config {k} {}: warm rules differ from cold rules", learned[i].name)
                    });
                }
                let misses: usize = w.stats.iter().map(|s| s.cache_misses).sum();
                tally.check(misses == 0, || {
                    format!("config {k}: warm relearn missed the memo {misses} times")
                });
            }
        });
        // --- Co-execute every learned rule on seeded random inputs. ---
        let (mut rules_checked, mut rules_uncoexec) = (0, 0);
        t.span("check.rules", || {
            for rule in all_rules.iter() {
                match learn::co_execute(rule, self.args.seed ^ rule.stable_key()) {
                    CoExec::Agree => rules_checked += 1,
                    CoExec::Differ(why) => {
                        rules_checked += 1;
                        tally.wrong.push(format!("rule {:016x}: {why}", rule.stable_key()));
                    }
                    CoExec::Unsupported => rules_uncoexec += 1,
                }
            }
        });
        tally.attempted += rules_checked;
        // --- Run: every program to halt on a fresh engine per translator. ---
        let engines = self.run_phase(&loo, &suite_rules, &dbt::as_it_comes, "", tally);
        // --- Serve: tenants share one rule cell. ---
        let programs = self.serve_programs();
        let (report, serve_s) = t.span("serve", || {
            dbt::serve(&programs, self.tenants, &suite_rules, &self.serve_config(), None)
        });
        let served = self.suite_programs();
        let want_instrs: u64 = served.iter().map(|&i| self.refs[i].steps).sum();
        for tr in &report.tenants {
            tally.attempted += programs.len() as u64;
            for ((name, got), &i) in tr.checksums.iter().zip(&served) {
                let want = self.refs[i].regs[0];
                tally.check(*got == want, || {
                    format!("tenant {} {name}: r0 {got:#x}, interpreter {want:#x}", tr.tenant)
                });
            }
            tally.check(
                tr.checksums.len() == programs.len() && tr.guest_instrs == want_instrs,
                || {
                    format!(
                        "tenant {}: {} guest instrs, interpreter {want_instrs}",
                        tr.tenant, tr.guest_instrs
                    )
                },
            );
        }
        let agg = |k: &str| report.aggregate.iter().find(|(n, _)| *n == k).map_or(0, |(_, v)| *v);
        RoundOut {
            learn_s,
            warm_s,
            db_save_s,
            db_load_s,
            db_bytes,
            rules_learned: all_rules.len(),
            memo_hits,
            memo_misses,
            engines,
            serve_s,
            serve_wd: (agg("watchdog_checks"), agg("quarantined_rules"), agg("wd_repaired")),
            serve_generation: report.generation,
            rules_checked,
            rules_uncoexec,
            loo,
            suite_rules,
        }
    }
}
