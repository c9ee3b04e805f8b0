//! `perfbench`: one benchmark for learn → translate → run.
//!
//! ```text
//! perfbench --workload <suite-test|learn|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every round of a run goes through the whole pipeline on the
//! workload's programs: learn rules (cold, then warm from the saved rule
//! database), run every program to halt on a fresh engine per
//! translator, and serve the programs to two tenants over one shared rule
//! cell. Rounds repeat until `--seconds` have passed; time metrics are
//! medians over rounds. Every output is checked against the ARM
//! interpreter, closed forms, a second compile path, or a property of the
//! method. The last stdout line is one JSON object (see README.md).

mod dbt;
mod learn;
mod programs;
mod report;
mod round;
mod trace;

use dbt::ENGINES;
use ldbt_compiler::{ArmImage, OptLevel, Options, Style};
use ldbt_core::serve::ServeProgram;
use ldbt_learn::LearnConfig;
use ldbt_workloads::Workload;
use programs::{RunSource, Source};
use report::{median, Metrics};
use round::{Ctx, RoundOut, Tally};
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

/// Directory (inside the checkout) for the rule database, reports and
/// spans.
const OUT_DIR: &str = ".bench_out";
/// Set-ups before the first round, and after each round. The host's speed
/// drifts over seconds, so set-up is sampled across the whole run, like
/// the rounds, and `setup_s` is the median of every sample.
const SETUPS_FIRST: usize = 5;
const SETUPS_PER_ROUND: usize = 5;
/// Passes of the run phase without superblock regions in a traced run;
/// `dbt.noregion_ms.<engine>` is their median.
const NOREGION_PASSES: usize = 3;
/// Watchdog sampling period of the `serve` workload.
const SERVE_WATCHDOG: u64 = 16;
/// Learning threads. On a shared 2-vCPU host, two threads learned no
/// faster than one, and with two (they share one verification memo)
/// `learn_s` and `warm_learn_s` spread by up to 0.33 and 0.38 between
/// runs of identical work.
const LEARN_THREADS: usize = 1;
/// Suite regenerations run by the workloads of `test`-size programs.
const TEST_VARIANTS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wl {
    SuiteTest,
    Learn,
    Serve,
}

impl Wl {
    fn parse(s: &str) -> Option<Wl> {
        Some(match s {
            "suite-test" => Wl::SuiteTest,
            "learn" => Wl::Learn,
            "serve" => Wl::Serve,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Wl::SuiteTest => "suite-test",
            Wl::Learn => "learn",
            Wl::Serve => "serve",
        }
    }
}

/// What a workload runs in each phase.
pub struct Spec {
    /// Program size of the run and serve phases.
    pub size: Workload,
    /// Regenerations of the suite run in the run and serve phases. Short
    /// programs run several, so that a run's totals vary little from seed
    /// to seed.
    pub run_variants: u64,
    /// Add the dispatch loop program (rules learned from its own source).
    pub dispatch: bool,
    /// Add the self-modifying and trapping hand-assembled images.
    pub asm: bool,
    /// Compiler configurations learned from; each gets a fresh memo.
    pub configs: Vec<Options>,
    /// Watchdog period of the serve phase.
    pub serve_watchdog: Option<u64>,
}

impl Spec {
    fn of(wl: Wl) -> Spec {
        let o2 = vec![Options::o2()];
        match wl {
            Wl::SuiteTest => Spec {
                size: Workload::Test,
                run_variants: TEST_VARIANTS,
                dispatch: false,
                asm: true,
                configs: o2,
                serve_watchdog: None,
            },
            Wl::Learn => Spec {
                size: Workload::Test,
                run_variants: TEST_VARIANTS,
                dispatch: false,
                asm: false,
                // -O2 LLVM first: the run phase uses its rules.
                configs: [Style::Llvm, Style::Gcc]
                    .iter()
                    .flat_map(|&style| {
                        [OptLevel::O2, OptLevel::O0, OptLevel::O1, OptLevel::O3]
                            .map(|level| Options { level, style })
                    })
                    .collect(),
                serve_watchdog: None,
            },
            Wl::Serve => Spec {
                size: Workload::Ref,
                run_variants: 1,
                dispatch: true,
                asm: false,
                configs: o2,
                serve_watchdog: Some(SERVE_WATCHDOG),
            },
        }
    }
}

pub struct Args {
    pub wl: Wl,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut wl = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let val = argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                wl = Some(Wl::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds out of range: {val}"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {val}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args { wl: wl.ok_or("--workload is required")?, seed, seconds, trace })
}

/// Remove every `LDBT_*` variable before any library reads one, so an
/// environment knob cannot change a run; returns what was removed.
fn clear_ldbt_env() -> Vec<String> {
    let found: Vec<(String, String)> =
        std::env::vars().filter(|(k, _)| k.starts_with("LDBT_")).collect();
    for (k, _) in &found {
        std::env::remove_var(k);
    }
    found.into_iter().map(|(k, v)| format!("{k}={v}")).collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workload's programs, and the guest images of those that run.
pub struct Setup {
    pub learned: Vec<Source>,
    pub run: Vec<RunSource>,
    pub images: Vec<ArmImage>,
}

fn setup(wl: &Spec, seed: u64, tracer: &Tracer) -> Setup {
    let (learned, run) = programs::workload(seed, wl.size, wl.run_variants, wl.dispatch);
    let images = run
        .iter()
        .map(|s| tracer.span("compiler.image", || programs::build(&s.src, &Options::o2())))
        .collect();
    Setup { learned, run, images }
}

fn main() {
    let cleared = clear_ldbt_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <suite-test|learn|serve> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tenants = nproc.min(2);
    let spec = Spec::of(args.wl);
    let tracer = Tracer::new(args.trace);
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).expect("output directory is writable");
    let configs: Vec<String> =
        spec.configs.iter().map(|o| format!("{:?}-{:?}", o.level, o.style)).collect();
    let mut config: Vec<(String, String)> = vec![
        ("workload".into(), args.wl.name().into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("cpu".into(), cpu_model()),
        ("learn_threads".into(), LEARN_THREADS.to_string()),
        ("tenants".into(), tenants.to_string()),
        ("engine_defaults".into(), dbt::engine_defaults()),
        ("serve_watchdog".into(), spec.serve_watchdog.map_or("off".into(), |p| p.to_string())),
        ("configs".into(), configs.join(",")),
        (
            "ldbt_env_cleared".into(),
            if cleared.is_empty() { "none".into() } else { cleared.join(" ") },
        ),
    ];
    for (k, v) in &config {
        eprintln!("perfbench {k}: {v}");
    }

    // Set-up, repeated; the last one is used.
    let mut setup_times = Vec::new();
    let mut set_up = || {
        let (s, secs) = learn::timed(|| setup(&spec, args.seed, &tracer));
        setup_times.push(secs);
        s
    };
    let st = (1..SETUPS_FIRST).fold(set_up(), |_, _| set_up());

    // References, outside every timed phase.
    let mut tally = Tally::default();
    let (refs, interp_s) = learn::timed(|| {
        st.images
            .iter()
            .map(|img| tracer.span("arm.interp", || programs::interpret(img, false)))
            .collect::<Vec<_>>()
    });
    let smc_ref = spec.asm.then(|| programs::interpret(&ldbt_workloads::asm::smc_image(), false));
    for ((s, img), r) in st.run.iter().zip(&st.images).zip(&refs) {
        tally.check(programs::second_path_agrees(&s.src, img, r), || {
            format!("{}: GCC -O0 build computes a different checksum", s.name)
        });
    }
    if let Some(r) = &smc_ref {
        tally.check(r.regs[0] == ldbt_workloads::asm::SMC_RESULT, || {
            "smc interpreter r0 is not the closed form".into()
        });
    }
    // Work normalization: guest instructions of the paper suite's
    // programs (seed 0) over this seed's.
    let smc_steps = smc_ref.as_ref().map_or(0, |r| r.steps);
    let guest_instrs: u64 = refs.iter().map(|r| r.steps).sum::<u64>() + smc_steps;
    let paper_instrs = if args.seed == 0 {
        guest_instrs
    } else {
        let paper = setup(&spec, 0, &Tracer::new(false));
        paper.images.iter().map(|img| programs::interpret(img, false).steps).sum::<u64>()
            + smc_steps
    };
    let norm = paper_instrs as f64 / guest_instrs as f64;

    let ctx = Ctx {
        args: &args,
        spec: &spec,
        tracer: &tracer,
        learn_cfg: LearnConfig { threads: LEARN_THREADS, fault: None, ..LearnConfig::default() },
        tenants,
        setup: &st,
        refs: &refs,
        smc_ref,
        db_path: out_dir.join(format!("{}-rules.db", args.wl.name())),
    };
    let t_loop = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    while rounds.is_empty() || t_loop.elapsed().as_secs_f64() < args.seconds {
        rounds.push(tracer.span("round", || ctx.round(&mut tally)));
        for _ in 0..SETUPS_PER_ROUND {
            set_up();
        }
    }

    let mut e2e = end_to_end(&rounds, median(&setup_times), norm);
    let layer = if args.trace {
        let images_per_setup = tracer.total_ms("compiler.image") / setup_times.len() as f64;
        let extras = Extras { norm, images_per_setup, interp_ms: interp_s * 1e3, guest_instrs };
        let layer = per_layer(&ctx, &rounds, &extras, &mut tally);
        tracer
            .write(&out_dir.join(format!("{}-spans.jsonl", args.wl.name())))
            .expect("span file is writable");
        layer
    } else {
        Vec::new()
    };
    e2e.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));

    for w in &tally.wrong {
        eprintln!("perfbench: WRONG {w}");
    }
    let run_facts = [
        ("rounds", rounds.len().to_string()),
        ("norm", norm.to_string()),
        ("guest_instrs", guest_instrs.to_string()),
        ("paper_guest_instrs", paper_instrs.to_string()),
    ];
    for (k, v) in run_facts {
        eprintln!("perfbench {k}: {v}");
        config.push((k.into(), v));
    }
    let line = report::result_line(&tally, if args.trace { &layer } else { &e2e });
    let path = out_dir.join(format!("{}-trace{}.json", args.wl.name(), u8::from(args.trace)));
    report::write(&path, &config, &e2e, &layer, &tracer, &tally, &line)
        .expect("report is writable");
    println!("{line}");
}

/// End-to-end metrics: times are medians over rounds; the work-scaled
/// ones carry the normalization to the paper suite's guest instructions.
fn end_to_end(rounds: &[RoundOut], setup_s: f64, norm: f64) -> Metrics {
    let last = rounds.last().expect("at least one round");
    let med = |f: &dyn Fn(&RoundOut) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut m: Metrics = vec![("setup_s".into(), setup_s, "s")];
    for (k, kind) in ENGINES.iter().enumerate() {
        m.push((format!("{}_s", kind.name()), med(&|r| r.engines[k].secs) * norm, "s"));
    }
    for (k, kind) in ENGINES.iter().enumerate() {
        m.push((
            format!("{}_mcycles", kind.name()),
            last.engines[k].cycles as f64 / 1e6 * norm,
            "Mcycles",
        ));
    }
    for (k, kind) in ENGINES.iter().enumerate().take(2) {
        let minstrs = last.engines[k].host_instrs as f64 / 1e6 * norm;
        m.push((format!("{}_host_minstrs", kind.name()), minstrs, "Minstrs"));
    }
    let all = |f: &dyn Fn(&RoundOut) -> &Vec<f64>| {
        median(&rounds.iter().flat_map(f).copied().collect::<Vec<_>>())
    };
    m.push(("learn_s".into(), all(&|r| &r.learn_s), "s"));
    m.push(("warm_learn_s".into(), all(&|r| &r.warm_s), "s"));
    m.push(("rules_learned".into(), last.rules_learned as f64, "rules"));
    m.push(("serve_s".into(), med(&|r| r.serve_s) * norm, "s"));
    m
}

/// Facts from outside the rounds that the per-layer metrics need.
struct Extras {
    norm: f64,
    images_per_setup: f64,
    interp_ms: f64,
    guest_instrs: u64,
}

/// The traced run's per-layer metrics: counters of the last round, and
/// one pass of the layer replays and ablation runs.
fn per_layer(ctx: &Ctx, rounds: &[RoundOut], x: &Extras, tally: &mut Tally) -> Metrics {
    let (st, tracer) = (ctx.setup, ctx.tracer);
    let last = rounds.last().expect("at least one round");
    let med = |f: &dyn Fn(&RoundOut) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let replay =
        tracer.span("learn.replay", || learn::replay(&st.learned, &ctx.spec.configs, tracer));
    let mut dbt_replay = dbt::Replay::default();
    tracer.span("dbt.replay", || {
        for (i, img) in st.images.iter().enumerate() {
            let leaders = programs::interpret(img, true).leaders;
            let r = dbt::replay_translation(img, &leaders, &ctx.rules_for(&last.loo, i), tracer);
            dbt_replay.blocks += r.blocks;
            dbt_replay.rule_lookups += r.rule_lookups;
        }
    });
    // The run phase again without superblock regions: the same programs,
    // asm images included, as `<engine>_s`, and a median over passes.
    let no_regions = |e: ldbt_dbt::Engine| e.with_superblocks(None);
    let passes: Vec<Vec<round::EngineTotals>> = (0..NOREGION_PASSES)
        .map(|_| {
            tracer.span("dbt.noregion", || {
                ctx.run_phase(&last.loo, &last.suite_rules, &no_regions, " without regions", tally)
            })
        })
        .collect();
    let noregion_s: Vec<f64> = (0..ENGINES.len())
        .map(|k| median(&passes.iter().map(|p| p[k].secs).collect::<Vec<_>>()))
        .collect();
    // The serve phase once more with the watchdog off, and once with a
    // trivial sentinel program appended, whose engine construction marks
    // the end of each tenant's real programs.
    let programs = ctx.serve_programs();
    let (_, wd_off_s) =
        dbt::serve(&programs, ctx.tenants, &last.suite_rules, &dbt::as_it_comes, None);
    let mut with_sentinel = programs.clone();
    let sentinel = programs::build("int main() { return 7; }", &Options::o2());
    with_sentinel.push(ServeProgram { name: "sentinel".into(), image: sentinel, want: 7 });
    let clocks = dbt::Clocks::default();
    let serve_config = ctx.serve_config();
    dbt::serve(&with_sentinel, ctx.tenants, &last.suite_rules, &serve_config, Some(&clocks));
    let tenants = dbt::tenant_spans(&clocks);
    for (a, b) in &tenants {
        tracer.record("serve.tenant", *a, *b);
    }
    let tenant_s: Vec<f64> =
        tenants.iter().map(|(a, b)| (*b - *a).as_secs_f64() * x.norm).collect();

    let rules = &last.engines[0];
    let mut m: Metrics = Vec::new();
    let mut push = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    push("compiler.build_ms", x.images_per_setup + tracer.total_ms("compiler.build"), "ms");
    push("learn.extract_ms", tracer.total_ms("learn.extract"), "ms");
    push("learn.pairs", replay.pairs as f64, "count");
    push("learn.prepare_ms", tracer.total_ms("learn.prepare"), "ms");
    push("learn.prepare_fail", replay.prepare_fail as f64, "count");
    push("learn.param_ms", tracer.total_ms("learn.param"), "ms");
    push("learn.param_fail", replay.param_fail as f64, "count");
    push("learn.verify_ms", tracer.total_ms("learn.verify"), "ms");
    push("learn.verify_calls", replay.verify_calls as f64, "count");
    push("learn.verify_fail", replay.verify_fail as f64, "count");
    push("learn.memo_hits", last.memo_hits as f64, "count");
    push("learn.memo_misses", last.memo_misses as f64, "count");
    push("learn.db_bytes", last.db_bytes as f64, "bytes");
    push("learn.db_save_ms", med(&|r| r.db_save_s) * 1e3, "ms");
    push("learn.db_load_ms", med(&|r| r.db_load_s) * 1e3, "ms");
    push("dbt.blocks", dbt_replay.blocks as f64, "count");
    push("dbt.decode_ms", tracer.total_ms("dbt.decode"), "ms");
    push("dbt.tcg_ir_ms", tracer.total_ms("dbt.tcg_ir"), "ms");
    push("dbt.lower_ms", tracer.total_ms("dbt.lower"), "ms");
    push("dbt.rules_lower_ms", tracer.total_ms("dbt.rules_lower"), "ms");
    push("dbt.jit_opt_ms", tracer.total_ms("dbt.jit_opt"), "ms");
    push("dbt.rule_lookups", dbt_replay.rule_lookups as f64, "count");
    for (k, kind) in ENGINES.iter().enumerate() {
        push(&format!("dbt.noregion_ms.{}", kind.name()), noregion_s[k] * 1e3 * x.norm, "ms");
    }
    push("exec.guest_minstrs", rules.ctr("guest_dyn") as f64 / 1e6, "Minstrs");
    push("exec.dispatch_host_instrs", rules.dispatch_host_instrs as f64, "count");
    for (k, kind) in ENGINES.iter().enumerate() {
        let e = &last.engines[k];
        push(
            &format!("exec.exec_mcycles.{}", kind.name()),
            (e.cycles - e.trans_cycles) as f64 / 1e6,
            "Mcycles",
        );
    }
    for (k, kind) in ENGINES.iter().enumerate() {
        push(
            &format!("exec.trans_mcycles.{}", kind.name()),
            last.engines[k].trans_cycles as f64 / 1e6,
            "Mcycles",
        );
    }
    for (k, kind) in ENGINES.iter().enumerate() {
        let ns = med(&|r| r.engines[k].secs) * 1e9 / last.engines[k].host_instrs as f64;
        push(&format!("exec.ns_per_host_instr.{}", kind.name()), ns, "ns");
    }
    for (name, ctr) in [
        ("exec.block_execs", "block_execs"),
        ("exec.chained_execs", "chained_execs"),
        ("exec.ibtc_hits", "ibtc_hits"),
        ("exec.ibtc_misses", "ibtc_misses"),
        ("exec.helper_steps", "helper_steps"),
        ("exec.mem_loads", "mem_loads"),
        ("exec.mem_stores", "mem_stores"),
    ] {
        push(name, rules.ctr(ctr) as f64, "count");
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    push(
        "exec.dyn_coverage",
        ratio(rules.ctr("guest_dyn_covered"), rules.ctr("guest_dyn")),
        "ratio",
    );
    push(
        "exec.static_coverage",
        ratio(rules.ctr("guest_static_covered"), rules.ctr("guest_static")),
        "ratio",
    );
    for (name, ctr) in [
        ("sb.formed", "sb_formed"),
        ("sb.execs", "sb_execs"),
        ("sb.invalidated", "sb_invalidated"),
        ("sb.ra_promoted", "ra_promoted"),
        ("sb.fuse_elim", "fuse_elim"),
        ("smc.invalidations", "smc_invalidations"),
    ] {
        push(name, rules.ctr(ctr) as f64, "count");
    }
    push("trap.count", rules.traps as f64, "count");
    push("wd.checks", last.serve_wd.0 as f64, "count");
    push("wd.quarantined", last.serve_wd.1 as f64, "count");
    push("wd.repaired", last.serve_wd.2 as f64, "count");
    push("wd.off_ms", wd_off_s * 1e3 * x.norm, "ms");
    push("serve.tenant_max_s", tenant_s.iter().copied().fold(0.0, f64::max), "s");
    push("serve.tenant_min_s", tenant_s.iter().copied().fold(f64::INFINITY, f64::min), "s");
    push("serve.generation", last.serve_generation as f64, "count");
    push("arm.interp_ms", x.interp_ms, "ms");
    push("arm.steps", x.guest_instrs as f64, "count");
    push("check.rules_checked", last.rules_checked as f64, "count");
    push("check.rules_uncoexec", last.rules_uncoexec as f64, "count");
    m
}
