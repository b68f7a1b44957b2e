//! Golden-trace oracle for the interpreter.
//!
//! `golden_traces.txt` holds one line per (program, input vector) pair:
//! the ten suite workloads, a few input-dependent faulting programs, and
//! 240 seeded generator programs of 30–400 statements, each run on the
//! guard's default vector set. A line records
//! the step count, the output count and an FNV-1a hash over the outputs'
//! bit patterns, or the `Debug` text of the error. Any change to the
//! interpreter's observable behaviour — values, step counts, error
//! variants or messages — shows up as a changed line.
//!
//! The file was written by an earlier interpreter and is the reference:
//! a mismatch is a behaviour change to fix, not a file to refresh. The
//! lines this build produced are left in `golden_traces.actual` under
//! Cargo's `CARGO_TARGET_TMPDIR` for diffing.

use gospel_exec::{ExecValue, Trace};
use gospel_workloads::generator::{self, GenConfig};
use std::fmt::Write as _;

/// `genesis_guard::GuardConfig::default()`'s vector set and step budget
/// (restated: the guard crate depends on this one).
const SEED: u64 = 0x00C0_FFEE;
const VECTORS: usize = 4;
const VECTOR_LEN: usize = 8;
const STEP_LIMIT: u64 = 2_000_000;

const GENERATED: u64 = 240;

/// Programs whose run faults on some vectors and not others (vector 0 is
/// all zeros, vector 1 all ones).
const FAULTING: &[(&str, &str)] = &[
    (
        "oob",
        "program oob\ninteger k, i\nreal a(4, 3)\nread k\ndo i = 1, 3\na(i + k, i) = i\nend do\nwrite a(2, 2)\nend",
    ),
    (
        "intdiv",
        "program intdiv\ninteger d, x\nread d\nx = 7 / d\nwrite x\nwrite 9 mod d\nend",
    ),
    (
        "realmod",
        "program realmod\ninteger d\nreal r\nread d\nr = 2.5\nwrite r / d\nwrite r mod d\nend",
    ),
    (
        "runaway",
        "program runaway\ninteger n, i, j, s\nread n\ns = 0\ndo i = 1, 1000 * n + 1\ndo j = 1, 1000\ns = s + j\nend do\nend do\nwrite s\nend",
    ),
];

fn fnv64(outputs: &[ExecValue]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in outputs {
        let (tag, bits) = match *v {
            ExecValue::Int(i) => (0u8, i as u64),
            ExecValue::Real(r) => (1u8, r.to_bits()),
        };
        for b in std::iter::once(tag).chain(bits.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn programs() -> Vec<(String, gospel_ir::Program)> {
    let mut out: Vec<(String, gospel_ir::Program)> = gospel_workloads::suite()
        .into_iter()
        .map(|(name, prog)| (name.to_string(), prog))
        .collect();
    for (name, src) in FAULTING {
        out.push((name.to_string(), gospel_frontend::compile(src).unwrap()));
    }
    for seed in 0..GENERATED {
        let n = 30 + usize::try_from(seed * 37 % 371).unwrap();
        let cfg = GenConfig {
            statements: n,
            scalars: n / 10,
            arrays: n / 40,
            ..GenConfig::default()
        };
        out.push((format!("gen{seed}/n{n}"), generator::generate(seed, cfg)));
    }
    out
}

fn render() -> String {
    let vectors: Vec<Vec<ExecValue>> = generator::input_vectors(SEED, VECTORS, VECTOR_LEN)
        .into_iter()
        .map(|v| v.into_iter().map(ExecValue::Int).collect())
        .collect();
    let mut text = String::new();
    for (name, prog) in programs() {
        for (i, v) in vectors.iter().enumerate() {
            match gospel_exec::run_limited(&prog, v, STEP_LIMIT) {
                Ok(Trace { outputs, steps }) => writeln!(
                    text,
                    "{name} v{i} steps={steps} outs={} fnv={:016x}",
                    outputs.len(),
                    fnv64(&outputs)
                ),
                Err(e) => writeln!(text, "{name} v{i} err {e:?}"),
            }
            .unwrap();
        }
    }
    text
}

#[test]
fn interpreter_reproduces_the_golden_traces() {
    let want = include_str!("golden_traces.txt");
    let got = render();
    if got == want {
        return;
    }
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_traces.actual");
    std::fs::write(&actual, &got).unwrap();
    let first = got
        .lines()
        .zip(want.lines())
        .find(|(g, w)| g != w)
        .map_or_else(
            || format!("line counts differ: {} vs {}", got.lines().count(), want.lines().count()),
            |(g, w)| format!("golden:  {w}\ncurrent: {g}"),
        );
    panic!("traces drifted from golden_traces.txt (full output in {}):\n{first}", actual.display());
}
