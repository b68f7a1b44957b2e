//! Differential testing: every catalog optimization must preserve the
//! observable behaviour (the `write` trace) of every workload — and of
//! random programs — bit for bit. This is a stronger check than the
//! paper's structural comparison: it catches miscompiles that happen to be
//! structurally plausible.

use genesis::Driver;
use gospel_exec::{run, ExecValue, Trace};
use gospel_ir::Program;
use gospel_opts::interaction::natural_mode;
use gospel_workloads::generator::{generate, GenConfig};
use proptest::prelude::*;

fn trace_of(prog: &Program, what: &str) -> Trace {
    run(prog, &[]).unwrap_or_else(|e| panic!("{what} failed to execute: {e}"))
}

#[test]
fn every_optimizer_preserves_suite_semantics() {
    let opts = gospel_opts::catalog().expect("catalog generates");
    for (name, prog) in gospel_workloads::suite() {
        let baseline = trace_of(&prog, name);
        assert!(!baseline.outputs.is_empty(), "{name} writes nothing");
        for opt in &opts {
            let mut work = prog.clone();
            Driver::new(opt)
                .apply(&mut work, natural_mode(opt))
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", opt.name));
            let after = trace_of(&work, &format!("{name} after {}", opt.name));
            assert!(
                baseline.same_outputs(&after),
                "{name}/{} changed observable behaviour:\n  before: {:?}\n  after:  {:?}",
                opt.name,
                baseline.outputs,
                after.outputs
            );
        }
    }
}

/// Copy propagation must not forward `a = b` into a loop that redefines
/// `b` after the use: the redefinition reaches the use again over the
/// back edge, so it lies on `path(a = b, use)` although it follows the
/// use lexically.
#[test]
fn cpp_respects_redefinitions_over_a_loop_back_edge() {
    let src = "program p\ninteger a, b, c, d, i\na = b\ndo i = 1, 22\n\
               c = a + 1\nb = 66\nend do\nd = c\nwrite d\nend";
    let prog = gospel_frontend::compile(src).unwrap();
    let baseline = trace_of(&prog, "input");
    let cpp = gospel_opts::by_name("CPP");
    for matcher in [genesis::MatcherKind::Fused, genesis::MatcherKind::Scan] {
        let mut work = prog.clone();
        let mut d = Driver::new(&cpp);
        d.matcher = matcher;
        d.apply(&mut work, natural_mode(&cpp)).unwrap();
        let after = trace_of(&work, "generated CPP output");
        assert!(
            baseline.same_outputs(&after),
            "{}: CPP changed observable behaviour:\n  before: {:?}\n  after:  {:?}",
            matcher.as_str(),
            baseline.outputs,
            after.outputs
        );
    }
    let mut work = prog.clone();
    gospel_opts::hand::cpp(&mut work).unwrap();
    assert!(
        baseline.same_outputs(&trace_of(&work, "hand-coded CPP output")),
        "hand-coded CPP changed observable behaviour"
    );
}

#[test]
fn chained_pipeline_preserves_suite_semantics() {
    for (name, prog) in gospel_workloads::suite() {
        let baseline = trace_of(&prog, name);
        let mut work = prog.clone();
        for opt_name in ["CTP", "CFO", "CPP", "DCE", "FUS", "PAR"] {
            let opt = gospel_opts::by_name(opt_name);
            Driver::new(&opt)
                .apply(&mut work, natural_mode(&opt))
                .unwrap_or_else(|e| panic!("{name}/{opt_name}: {e}"));
        }
        let after = trace_of(&work, &format!("{name} after pipeline"));
        assert!(
            baseline.same_outputs(&after),
            "{name}: pipeline changed behaviour"
        );
    }
}

#[test]
fn dead_code_elimination_reduces_steps_after_propagation() {
    // The semantic payoff of the CTP→DCE enablement: fewer executed
    // statements, identical outputs.
    let prog = gospel_frontend::compile(
        "program p\ninteger i, n, s\nn = 100\ns = 0\ndo i = 1, n\ns = s + i\nend do\nwrite s\nend",
    )
    .unwrap();
    let before = trace_of(&prog, "baseline");
    let mut work = prog.clone();
    for name in ["CTP", "DCE"] {
        let opt = gospel_opts::by_name(name);
        Driver::new(&opt)
            .apply(&mut work, natural_mode(&opt))
            .unwrap();
    }
    let after = trace_of(&work, "optimized");
    assert!(before.same_outputs(&after));
    assert!(
        after.steps <= before.steps,
        "optimization should not add work: {} -> {}",
        before.steps,
        after.steps
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scalar_optimizers_preserve_random_program_semantics(
        seed in 0u64..4000,
        n in 20usize..80,
        pct in 10u32..90,
    ) {
        let prog = generate(seed, GenConfig { statements: n, const_pct: pct, ..Default::default() });
        let Ok(baseline) = run(&prog, &[]) else {
            // division-by-zero etc. in a random program: skip
            return Ok(());
        };
        for name in ["CTP", "CPP", "CFO", "DCE", "PAR", "FUS", "LUR", "BMP", "ICM"] {
            let opt = gospel_opts::by_name(name);
            let mut work = prog.clone();
            if Driver::new(&opt).apply(&mut work, natural_mode(&opt)).is_err() {
                // documented prototype restrictions (e.g. scalar-LCV bump)
                continue;
            }
            let after = run(&work, &[]);
            prop_assert!(after.is_ok(), "{} broke execution: {:?}", name, after);
            prop_assert!(
                baseline.same_outputs(&after.unwrap()),
                "{} changed random-program behaviour (seed {})",
                name,
                seed
            );
        }
    }

    #[test]
    fn interpreter_is_deterministic(seed in 0u64..2000, n in 20usize..60) {
        let prog = generate(seed, GenConfig { statements: n, ..Default::default() });
        let a = run(&prog, &[ExecValue::Int(1)]);
        let b = run(&prog, &[ExecValue::Int(1)]);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn unparse_roundtrip_preserves_suite_semantics() {
    // IR → MiniFor source → IR executes identically: the system works as a
    // source-to-source optimizer.
    let par = gospel_opts::by_name("PAR");
    for (name, prog) in gospel_workloads::suite() {
        let baseline = trace_of(&prog, name);
        // also exercise pardo in the surface syntax
        let mut transformed = prog.clone();
        Driver::new(&par)
            .apply(&mut transformed, natural_mode(&par))
            .unwrap();
        for (label, p) in [("plain", &prog), ("parallelized", &transformed)] {
            let text = gospel_frontend::unparse(p);
            let back = gospel_frontend::compile(&text)
                .unwrap_or_else(|e| panic!("{name} ({label}) unparse invalid: {e}\n{text}"));
            let after = trace_of(&back, &format!("{name} ({label}) reparsed"));
            assert!(
                baseline.same_outputs(&after),
                "{name} ({label}): roundtrip changed behaviour"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unparse_roundtrip_preserves_random_semantics(seed in 0u64..3000, n in 20usize..80) {
        let prog = generate(seed, GenConfig { statements: n, ..Default::default() });
        let Ok(baseline) = run(&prog, &[]) else { return Ok(()); };
        let text = gospel_frontend::unparse(&prog);
        let back = gospel_frontend::compile(&text);
        prop_assert!(back.is_ok(), "seed {}: {:?}\n{}", seed, back.err(), text);
        let after = run(&back.unwrap(), &[]);
        prop_assert!(after.is_ok());
        prop_assert!(baseline.same_outputs(&after.unwrap()), "seed {} roundtrip changed behaviour", seed);
    }
}
