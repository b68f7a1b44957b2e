//! Integration: validated sessions end to end — the full catalog over the
//! whole workload suite under [`GuardedSession`], the fault-injection
//! matrix, and the quarantine of a deliberately wrong specification.

use genesis::{ApplyMode, FaultKind, FaultPlan};
use genesis_guard::{GuardConfig, GuardOutcome, GuardStage, GuardedSession};
use gospel_exec::ExecValue;
use gospel_opts::interaction::natural_mode;
use gospel_trace::Recorder;
use std::sync::Arc;

/// The paper's CTP with the reaching-definition guard (the `no` clause)
/// removed: it happily propagates a constant past a second definition, so
/// it is *wrong* on any program where two defs reach the use. Translation
/// validation must catch it. Named CTP deliberately so registering it
/// replaces the correct catalog entry.
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

/// A program where exactly one of the two reaching definitions is picked
/// by the broken CTP: `write y` prints 3 or 4 depending on the input, but
/// the broken propagation makes it print 3 unconditionally.
const TWO_DEFS: &str = "\
program t
  integer c, x, y
  read c
  x = 3
  if (c > 0) then
    x = 4
  end if
  y = x
  write y
end
";

fn exec_on_guard_vectors(prog: &gospel_ir::Program) -> Vec<Option<Vec<ExecValue>>> {
    let cfg = GuardConfig::default();
    gospel_workloads::generator::input_vectors(cfg.seed, cfg.vectors, cfg.vector_len)
        .into_iter()
        .map(|v| {
            let inputs: Vec<ExecValue> = v.into_iter().map(ExecValue::Int).collect();
            gospel_exec::run_limited(prog, &inputs, cfg.step_limit)
                .ok()
                .map(|t| t.outputs)
        })
        .collect()
}

#[test]
fn catalog_over_full_suite_preserves_traces_or_rolls_back() {
    let opts = gospel_opts::catalog().expect("catalog generates");
    let modes: Vec<(String, ApplyMode)> = opts
        .iter()
        .map(|o| (o.name.clone(), natural_mode(o)))
        .collect();
    for (wname, prog) in gospel_workloads::suite() {
        let before = exec_on_guard_vectors(&prog);
        let mut gs = GuardedSession::new(prog, GuardConfig::default());
        for opt in gospel_opts::catalog().expect("catalog generates") {
            gs.register(opt);
        }
        for (name, mode) in &modes {
            let outcome = gs
                .apply(name, *mode)
                .unwrap_or_else(|e| panic!("{wname}/{name}: {e}"));
            // Every rejection must come with a structured report; nothing
            // may abort the session.
            if let GuardOutcome::Rejected(report) = &outcome {
                assert_eq!(report.optimizer, *name, "{wname}");
                assert!(report.rolled_back, "{wname}/{name}: {report}");
            }
        }
        // Rollback on every failure means the surviving program's traces
        // must equal the original's on every vector.
        let after = exec_on_guard_vectors(gs.program());
        assert_eq!(before, after, "{wname}: guarded pipeline changed semantics");
        // And the catalog, being correct, should actually get through.
        assert!(
            gs.reports().is_empty(),
            "{wname}: catalog optimizer rejected: {:?}",
            gs.reports()
        );
    }
}

#[test]
fn injection_matrix_is_contained_for_every_fault_kind() {
    let kinds = [
        (FaultKind::Analysis, GuardStage::Run, false),
        (FaultKind::Action, GuardStage::Run, false),
        (FaultKind::CorruptCommit, GuardStage::Structural, true),
        (FaultKind::Panic, GuardStage::Internal, true),
    ];
    for (kind, expected_stage, quarantines) in kinds {
        let prog = gospel_frontend::compile(
            "program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend",
        )
        .unwrap();
        let original = prog.clone();
        let mut gs = GuardedSession::new(prog, GuardConfig::default());
        gs.register(gospel_opts::by_name("CTP"));
        gs.register(gospel_opts::by_name("DCE"));
        gs.set_fault(Some(FaultPlan::new(kind)));

        let outcome = gs
            .apply("CTP", ApplyMode::AllPoints)
            .unwrap_or_else(|e| panic!("{kind:?} escaped containment: {e}"));
        let GuardOutcome::Rejected(report) = outcome else {
            panic!("{kind:?}: expected a rejection, got {outcome:?}");
        };
        assert_eq!(report.stage, expected_stage, "{kind:?}: {report}");
        assert!(report.rolled_back, "{kind:?}");
        assert_eq!(report.quarantined, quarantines, "{kind:?}: {report}");
        assert!(
            gs.program().structurally_eq(&original),
            "{kind:?}: program not restored"
        );
        assert_eq!(gs.reports().len(), 1, "{kind:?}: diagnostic not recorded");

        // The session must keep working: the un-faulted optimizer runs.
        gs.set_fault(None);
        let next = gs.apply("DCE", ApplyMode::AllPoints).unwrap();
        assert!(
            matches!(next, GuardOutcome::Applied(_)),
            "{kind:?}: session did not continue: {next:?}"
        );
    }
}

#[test]
fn fault_plans_scope_to_optimizer_and_application() {
    let prog = gospel_frontend::compile(
        "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
    )
    .unwrap();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.register(gospel_opts::by_name("CTP"));
    gs.register(gospel_opts::by_name("DCE"));
    // A fault aimed at DCE must not perturb CTP.
    gs.set_fault(Some(FaultPlan::new(FaultKind::Panic).for_optimizer("DCE")));
    let outcome = gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    assert!(outcome.is_applied(), "{outcome:?}");
    // …and must fire (contained) when DCE itself runs.
    let outcome = gs.apply("DCE", ApplyMode::AllPoints).unwrap();
    assert!(matches!(outcome, GuardOutcome::Rejected(_)), "{outcome:?}");
}

#[test]
fn broken_ctp_is_caught_rolled_back_and_quarantined() {
    let prog = gospel_frontend::compile(TWO_DEFS).unwrap();
    let original = prog.clone();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.register(gospel_opts::compile_spec(BROKEN_CTP).expect("broken CTP still compiles"));

    let outcome = gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    let GuardOutcome::Rejected(report) = outcome else {
        panic!("broken CTP was not rejected: {outcome:?}");
    };
    assert_eq!(report.stage, GuardStage::Translation, "{report}");
    assert!(report.vector.is_some(), "{report}");
    assert_eq!(report.mismatch_at, Some(0), "{report}");
    assert!(report.quarantined, "{report}");
    assert!(gs.program().structurally_eq(&original), "not rolled back");

    // Quarantine holds: subsequent sequences skip it and continue.
    let outcomes = gs.run_sequence(&["CTP"]).unwrap();
    assert!(
        matches!(outcomes[0].1, GuardOutcome::Skipped { .. }),
        "{:?}",
        outcomes[0]
    );

    // The *correct* CTP is innocent: re-registering lifts the quarantine
    // and it passes validation on the same program.
    gs.register(gospel_opts::by_name("CTP"));
    let outcome = gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    assert!(outcome.is_applied(), "{outcome:?}");
}

#[test]
fn user_rollback_walks_the_checkpoint_ring() {
    let prog = gospel_frontend::compile(
        "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
    )
    .unwrap();
    let original = prog.clone();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.register(gospel_opts::by_name("CTP"));
    gs.register(gospel_opts::by_name("DCE"));
    gs.apply("CTP", ApplyMode::AllPoints).unwrap();
    gs.apply("DCE", ApplyMode::AllPoints).unwrap();
    assert_eq!(gs.checkpoints(), 2);
    gs.rollback(2).unwrap();
    assert!(gs.program().structurally_eq(&original));
    assert_eq!(gs.checkpoints(), 0);
}

#[test]
fn panic_mid_action_leaves_a_validatable_program() {
    // Regression: a panic fired *after* the actions have journaled edits
    // used to escape with the in-flight `EditDelta` journal dropped,
    // leaving the session's program half-transformed. The driver now
    // replays the undo log under `catch_unwind` before re-raising, so a
    // guarded session must come back with every statement still valid
    // and the program byte-identical to the pre-apply snapshot.
    let prog = gospel_frontend::compile(
        "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
    )
    .unwrap();
    let original = prog.clone();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.register(gospel_opts::by_name("CTP"));
    gs.register(gospel_opts::by_name("DCE"));
    gs.set_fault(Some(FaultPlan::new(FaultKind::PanicInAction)));

    let outcome = gs
        .apply("CTP", ApplyMode::AllPoints)
        .expect("panic must be contained, not escape the session");
    let GuardOutcome::Rejected(report) = outcome else {
        panic!("expected the injected panic to reject, got {outcome:?}");
    };
    assert!(report.rolled_back, "{report}");
    assert!(report.quarantined, "a contained panic must quarantine: {report}");

    // The surviving program is structurally intact statement by
    // statement — no dangling operands from the aborted transaction.
    let prog = gs.program();
    for id in prog.iter() {
        gospel_ir::validate_stmt(prog, id)
            .unwrap_or_else(|e| panic!("post-panic statement {id:?} invalid: {e}"));
    }
    gospel_ir::validate(prog).expect("post-panic program fails whole-program validation");
    assert!(prog.structurally_eq(&original), "program not restored");

    // And the session still works: the panicking optimizer is
    // quarantined, but an un-faulted one runs to completion.
    gs.set_fault(None);
    let next = gs.apply("DCE", ApplyMode::AllPoints).unwrap();
    assert!(matches!(next, GuardOutcome::Applied(_)), "{next:?}");
}

/// The six-optimizer chain the validated benchmark runs.
const CHAIN: [&str; 6] = ["CTP", "CPP", "ICM", "FUS", "DCE", "CFO"];

fn recorded(prog: gospel_ir::Program) -> (GuardedSession, Arc<Recorder>) {
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    let rec = Arc::new(Recorder::new());
    gs.set_recorder(Some(rec.clone()));
    (gs, rec)
}

#[test]
fn interpreter_runs_once_per_vector_per_changed_program() {
    let vectors = GuardConfig::default().vectors as u64;
    for (wname, prog) in gospel_workloads::suite() {
        let (mut gs, rec) = recorded(prog);
        for opt in gospel_opts::catalog().expect("catalog generates") {
            gs.register(opt);
        }
        let mut changed = 0;
        for name in CHAIN {
            let before = gs.program().clone();
            let outcome = gs.apply(name, ApplyMode::AllPoints).unwrap();
            assert!(outcome.is_applied(), "{wname}/{name}: {outcome:?}");
            if !gs.program().structurally_eq(&before) {
                changed += 1;
            }
        }
        // The input runs once per vector; after that only an apply that
        // changed the program runs it again.
        assert_eq!(
            rec.counter("guard.exec_runs"),
            vectors * (1 + changed),
            "{wname}: {changed} of {} applies changed the program",
            CHAIN.len()
        );
        // Every other trace the guard compared was reused: the baselines
        // of all applies but the first, and the after-traces of the
        // applies that changed nothing.
        let applies = CHAIN.len() as u64;
        assert_eq!(
            rec.counter("guard.exec_reused"),
            vectors * ((applies - 1) + (applies - changed)),
            "{wname}"
        );
    }
}

/// The broken CTP's rejection on `program`, from a fresh session (which
/// has no traces to reuse).
fn fresh_broken_ctp_report(program: &gospel_ir::Program) -> String {
    let mut gs = GuardedSession::new(program.clone(), GuardConfig::default());
    gs.register(gospel_opts::compile_spec(BROKEN_CTP).unwrap());
    match gs.apply("CTP", ApplyMode::AllPoints).unwrap() {
        GuardOutcome::Rejected(report) => report.to_string(),
        other => panic!("broken CTP was not rejected: {other:?}"),
    }
}

#[test]
fn broken_ctp_is_still_caught_after_a_user_rollback() {
    const EXPECTED: &str = "[translation] CTP rejected: output 0 diverged: 4 before vs 3 after \
                            (input vector 1, first divergent output 0); rolled back; quarantined";
    let prog = gospel_frontend::compile(TWO_DEFS).unwrap();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.register(gospel_opts::by_name("CPP"));
    gs.register(gospel_opts::by_name("DCE"));
    let original = gs.program().clone();
    assert!(gs.apply("CPP", ApplyMode::AllPoints).unwrap().applications() > 0);
    let after_cpp = gs.program().clone();
    assert!(gs.apply("DCE", ApplyMode::AllPoints).unwrap().applications() > 0);

    // One step back, then the wrong spec: rejected exactly as on a fresh
    // session over the same program.
    gs.rollback(1).unwrap();
    assert!(gs.program().structurally_eq(&after_cpp));
    gs.register(gospel_opts::compile_spec(BROKEN_CTP).unwrap());
    let GuardOutcome::Rejected(report) = gs.apply("CTP", ApplyMode::AllPoints).unwrap() else {
        panic!("broken CTP was not rejected after rollback(1)");
    };
    assert_eq!(report.to_string(), EXPECTED);
    assert_eq!(report.to_string(), fresh_broken_ctp_report(&after_cpp));
    assert!(gs.program().structurally_eq(&after_cpp), "not rolled back");

    // All the way back to the input.
    gs.rollback(1).unwrap();
    assert!(gs.program().structurally_eq(&original));
    gs.register(gospel_opts::compile_spec(BROKEN_CTP).unwrap());
    let GuardOutcome::Rejected(report) = gs.apply("CTP", ApplyMode::AllPoints).unwrap() else {
        panic!("broken CTP was not rejected after rollback to the input");
    };
    assert_eq!(report.to_string(), EXPECTED);
    assert_eq!(report.to_string(), fresh_broken_ctp_report(&original));
}

/// Faults on input vector 0 only (the all-zeros vector: `d = 0`), through
/// a dead division DCE removes. With the division gone, vector 0 takes
/// the `x = 4` branch that the broken CTP miscompiles into `write 3`.
const FAULTS_ON_VECTOR_0: &str = "\
program t
  integer d, x, y, z
  read d
  z = 7 / d
  x = 3
  if (d == 0) then
    x = 4
  end if
  y = x
  write y
end
";

#[test]
fn a_miscompile_on_a_vector_the_input_faulted_on_is_still_caught() {
    let prog = gospel_frontend::compile(FAULTS_ON_VECTOR_0).unwrap();
    let faults: Vec<bool> = exec_on_guard_vectors(&prog).iter().map(Option::is_none).collect();
    assert_eq!(faults, [true, false, false, false]);

    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.register(gospel_opts::by_name("DCE"));
    let outcome = gs.apply("DCE", ApplyMode::AllPoints).unwrap();
    assert!(outcome.is_applied(), "{outcome:?}");
    let fixed = gs.program().clone();
    assert!(exec_on_guard_vectors(&fixed).iter().all(Option::is_some), "DCE left the fault");

    gs.register(gospel_opts::compile_spec(BROKEN_CTP).unwrap());
    let GuardOutcome::Rejected(report) = gs.apply("CTP", ApplyMode::AllPoints).unwrap() else {
        panic!("miscompile visible only on vector 0 escaped");
    };
    assert_eq!(report.stage, GuardStage::Translation, "{report}");
    assert_eq!(report.vector, Some(0), "{report}");
    assert_eq!(report.to_string(), fresh_broken_ctp_report(&fixed));
    assert!(gs.program().structurally_eq(&fixed), "not rolled back");
}

#[test]
fn corrupt_and_timeout_restores_keep_the_baselines_right() {
    let faults = [
        // Structural rejection: rolled back, traces restored.
        (FaultPlan::new(FaultKind::CorruptCommit), false),
        // Transient timeout: the retry restarts from the checkpoint.
        (FaultPlan::new(FaultKind::Timeout).transient(), true),
        // Persistent timeout: the retry fails too; rolled back.
        (FaultPlan::new(FaultKind::Timeout), false),
    ];
    for (plan, applies) in faults {
        let what = format!("{plan:?}");
        let prog = gospel_frontend::compile(TWO_DEFS).unwrap();
        let (mut gs, rec) = recorded(prog);
        gs.register(gospel_opts::by_name("CPP"));
        gs.set_fault(Some(plan));
        let outcome = gs.apply("CPP", ApplyMode::AllPoints).unwrap();
        assert_eq!(outcome.is_applied(), applies, "{what}: {outcome:?}");
        gs.set_fault(None);
        let program = gs.program().clone();
        assert_eq!(
            exec_on_guard_vectors(&program),
            exec_on_guard_vectors(&gospel_frontend::compile(TWO_DEFS).unwrap()),
            "{what}: program not restored"
        );

        // The next apply validates against the restored program's traces,
        // without re-running it, and still catches the wrong spec.
        let reused = rec.counter("guard.exec_reused");
        gs.register(gospel_opts::compile_spec(BROKEN_CTP).unwrap());
        let GuardOutcome::Rejected(report) = gs.apply("CTP", ApplyMode::AllPoints).unwrap() else {
            panic!("{what}: broken CTP was not rejected");
        };
        assert_eq!(report.to_string(), fresh_broken_ctp_report(&program), "{what}");
        assert!(gs.program().structurally_eq(&program), "{what}: not rolled back");
        assert_eq!(
            rec.counter("guard.exec_reused") - reused,
            GuardConfig::default().vectors as u64,
            "{what}: the restored program's traces were not reused"
        );
    }
}

#[test]
fn a_user_rollback_forgets_the_undone_programs_traces() {
    // DCE removes the vector-0 fault; rolling it back brings the fault
    // back, so vector 0 must again be out of scope for the next apply
    // (CPP keeps the dead division, which still faults there).
    let prog = gospel_frontend::compile(FAULTS_ON_VECTOR_0).unwrap();
    let mut gs = GuardedSession::new(prog, GuardConfig::default());
    gs.register(gospel_opts::by_name("DCE"));
    gs.register(gospel_opts::by_name("CPP"));
    assert!(gs.apply("DCE", ApplyMode::AllPoints).unwrap().is_applied());
    gs.rollback(1).unwrap();
    let outcome = gs.apply("CPP", ApplyMode::AllPoints).unwrap();
    assert!(outcome.is_applied(), "{outcome:?}");
    assert!(outcome.applications() > 0);
    assert!(exec_on_guard_vectors(gs.program())[0].is_none());
}
