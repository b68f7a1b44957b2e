//! Controls for the benchmark's own checks: the output check must fire on
//! a known-wrong optimizer, and equal seeds must reproduce equal results.

use genbench::{run_with, Options, Setup, Workload};

/// CTP without its `no (Sl, pos2): …` clause: it propagates a constant
/// past a second, conditional definition of the same variable.
const BROKEN_CTP: &str = r#"
OPTIMIZATION CTP
TYPE
  Stmt: Si, Sj;
PRECOND
  Code_Pattern
    any Si: Si.opc == assign AND type(Si.opr_2) == const;
  Depend
    any (Sj, pos): flow_dep(Si, Sj, (=))
                   AND operand(Sj, pos) == Si.opr_1;
ACTION
  modify(operand(Sj, pos), Si.opr_2);
END
"#;

fn one_pass(seed: u64) -> Options {
    Options {
        seed,
        seconds: 0.0,
        trace: false,
        out_dir: None,
    }
}

#[test]
fn output_check_rejects_a_miscompiling_optimizer() {
    let mut setup = Setup::new(Workload::Suite, 3).expect("suite set-up");
    setup.replace(gospel_opts::compile_spec(BROKEN_CTP).expect("broken CTP still compiles"));
    let out = run_with(&setup, 0.0, &one_pass(3)).expect("run");
    assert!(out.failed > 0, "the broken CTP went unnoticed");
    assert!(
        out.failures.iter().any(|f| f.contains("writes differ")),
        "the exec comparison did not fire: {:?}",
        out.failures
    );
    let passed = out.metric("passed_frac").expect("passed_frac is reported");
    assert!(passed < 1.0, "passed_frac = {passed}");
}

#[test]
fn correct_catalog_passes_the_output_check() {
    let setup = Setup::new(Workload::Suite, 3).expect("suite set-up");
    let out = run_with(&setup, 0.0, &one_pass(3)).expect("run");
    assert_eq!(out.failed, 0, "{:?}", out.failures);
}

#[test]
fn equal_seeds_reproduce_counts_and_output_text() {
    for workload in [Workload::Suite, Workload::Validated] {
        let a = genbench::run(workload, &one_pass(424_242)).expect("first run");
        let b = genbench::run(workload, &one_pass(424_242)).expect("second run");
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.fingerprint, b.fingerprint, "{}", workload.name());
        for name in [
            "applications",
            "points_found",
            "exec_steps_ratio",
            "stmts_out_ratio",
        ] {
            assert_eq!(a.metric(name), b.metric(name), "{} {name}", workload.name());
        }
    }
}
