//! The guest programs a workload runs, and the reference results every
//! engine run is checked against.
//!
//! References come from the ARM interpreter, never from a translator,
//! and the interpreter itself is cross-checked against a second compile
//! path (GCC-style `-O0`) of the same source.

use ldbt_arm::{ArmMachine, ArmReg, ArmStop};
use ldbt_compiler::link::{build_arm_image, ArmImage};
use ldbt_compiler::{OptLevel, Options, Style};
use ldbt_dbt::env::GUEST_MEM_LIMIT;
use ldbt_isa::Width;
use ldbt_workloads::{source, Benchmark, Workload, SUITE};
use std::collections::BTreeSet;

/// Interpreter budget for one reference run.
const INTERP_FUEL: u64 = 2_000_000_000;

/// The loop program of the dispatch-throughput gate, run in `serve`'s run
/// phase with rules learned from its own source.
pub const DISPATCH_SRC: &str = "
int a[64];
int main() {
  int s = 0;
  for (int i = 0; i < 64; i += 1) { a[i] = i * 7 + 1; }
  for (int i = 0; i < 3000; i += 1) {
    for (int j = 0; j < 64; j += 1) {
      s = s + a[j];
      s = s ^ (j & 7);
    }
  }
  return s & 0xffff;
}";

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Variant `variant` of the twelve suite programs for `seed`. Seed 0,
/// variant 0 is the paper suite; any other pair regenerates every program
/// from a seed derived from it and the program's own, keeping names,
/// sizes and iteration counts.
pub fn suite(seed: u64, variant: u64) -> Vec<Benchmark> {
    SUITE
        .iter()
        .map(|b| {
            let s = if seed == 0 && variant == 0 {
                b.seed
            } else {
                Rng::new(seed ^ b.seed.rotate_left(32) ^ variant.rotate_right(8)).next_u64()
            };
            Benchmark { seed: s, ..*b }
        })
        .collect()
}

/// A program rules are learned from. Iteration counts do not change code
/// shape, so suite rules always come from the `ref` source.
#[derive(Clone)]
pub struct Source {
    pub name: String,
    pub src: String,
}

/// A program the run and serve phases execute.
#[derive(Clone)]
pub struct RunSource {
    pub name: String,
    pub src: String,
    /// Index of its namesake among the learned programs: the rules
    /// engine runs it with that program's leave-one-out set (the dispatch
    /// loop with its own rules).
    pub learned: usize,
}

/// Name of the dispatch loop program.
pub const DISPATCH: &str = "dispatch";

/// A workload's programs. Rules are learned from the paper suite, for
/// every seed; the first `run_variants` regenerations of the suite for
/// `seed` run at `size`. The dispatch loop is learned from and run when
/// asked.
pub fn workload(
    seed: u64,
    size: Workload,
    run_variants: u64,
    with_dispatch: bool,
) -> (Vec<Source>, Vec<RunSource>) {
    let mut learned: Vec<Source> = suite(0, 0)
        .iter()
        .map(|b| Source { name: b.name.to_string(), src: source(b, Workload::Ref) })
        .collect();
    let mut run = Vec::new();
    for v in 0..run_variants {
        for (i, b) in suite(seed, v).iter().enumerate() {
            let name = if v == 0 { b.name.to_string() } else { format!("{}.{v}", b.name) };
            run.push(RunSource { name, src: source(b, size), learned: i });
        }
    }
    if with_dispatch {
        let src = DISPATCH_SRC.to_string();
        run.push(RunSource { name: DISPATCH.into(), src: src.clone(), learned: learned.len() });
        learned.push(Source { name: DISPATCH.into(), src });
    }
    (learned, run)
}

pub fn build(src: &str, options: &Options) -> ArmImage {
    build_arm_image(src, options)
        .unwrap_or_else(|e| panic!("generated program fails to build: {e}"))
}

/// The interpreter's final state for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// r0–r14 at halt.
    pub regs: [u32; 15],
    /// Every global word, in image order.
    pub globals: Vec<u32>,
    /// Guest instructions executed (the halting `svc` included).
    pub steps: u64,
    /// Distinct guest block leaders reached (entry, and every pc that
    /// follows a block-ending instruction); filled only on request.
    pub leaders: Vec<u32>,
}

fn machine(image: &ArmImage) -> ArmMachine {
    let mut m = ArmMachine::new();
    m.state.trap_limit = Some(GUEST_MEM_LIMIT);
    image.load_into(&mut m.state.mem);
    m.state.regs[15] = image.entry;
    m
}

/// Every global word of `image` as read by `read`.
pub fn global_words(image: &ArmImage, read: impl Fn(u32) -> u32) -> Vec<u32> {
    let mut out = Vec::new();
    for (_, addr, count, _) in &image.globals {
        for i in 0..*count {
            out.push(read(addr + 4 * i));
        }
    }
    out
}

/// Run `image` on the ARM interpreter to halt.
pub fn interpret(image: &ArmImage, want_leaders: bool) -> Reference {
    let mut m = machine(image);
    let mut leaders = BTreeSet::new();
    if want_leaders {
        leaders.insert(image.entry);
        loop {
            let pc = m.pc();
            let word = m.state.mem.read(pc, Width::W32);
            let ends = ldbt_arm::encode::decode(word).map(|i| i.is_block_end()).unwrap_or(true);
            match m.step() {
                Ok(ldbt_arm::ArmEvent::Syscall(0)) => break,
                Ok(ldbt_arm::ArmEvent::Syscall(_)) | Ok(ldbt_arm::ArmEvent::Trap(_)) | Err(_) => {
                    panic!("reference run of a suite program trapped at {pc:#x}")
                }
                Ok(_) => {}
            }
            assert!(m.steps < INTERP_FUEL, "reference run did not halt");
            if ends {
                leaders.insert(m.pc());
            }
        }
    } else {
        let stop = m.run(INTERP_FUEL);
        assert_eq!(stop, ArmStop::Halt, "reference run did not halt");
    }
    let mut regs = [0u32; 15];
    regs.copy_from_slice(&m.state.regs[..15]);
    let globals = global_words(image, |a| m.state.mem.read(a, Width::W32));
    Reference { regs, globals, steps: m.steps, leaders: leaders.into_iter().collect() }
}

/// The second compile path: the same source built GCC-style at `-O0`
/// must compute the same checksum (`r0` and the `checksum` global, when
/// the program has one) on the interpreter.
pub fn second_path_agrees(src: &str, image: &ArmImage, reference: &Reference) -> bool {
    let other = build(src, &Options { level: OptLevel::O0, style: Style::Gcc });
    let r = interpret(&other, false);
    let checksum_of = |img: &ArmImage, refr: &Reference| -> Option<u32> {
        let mut k = 0;
        for (name, _, count, _) in &img.globals {
            if name == "checksum" {
                return Some(refr.globals[k]);
            }
            k += *count as usize;
        }
        None
    };
    r.regs[0] == reference.regs[0] && checksum_of(&other, &r) == checksum_of(image, reference)
}

/// Compare an engine's final state with the reference; `None` when they
/// agree, otherwise a description of the first difference.
pub fn compare(
    image: &ArmImage,
    reference: &Reference,
    regs: impl Fn(ArmReg) -> u32,
    mem: impl Fn(u32) -> u32,
    guest_dyn: u64,
) -> Option<String> {
    for r in ArmReg::ALL.iter().take(15) {
        if regs(*r) != reference.regs[r.index()] {
            return Some(format!(
                "{r} = {:#x}, interpreter {:#x}",
                regs(*r),
                reference.regs[r.index()]
            ));
        }
    }
    if global_words(image, mem) != reference.globals {
        return Some("global memory differs from the interpreter's".into());
    }
    if guest_dyn != reference.steps {
        return Some(format!("guest_dyn {guest_dyn}, interpreter steps {}", reference.steps));
    }
    None
}
