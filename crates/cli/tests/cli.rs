//! End-to-end tests of the `genesis-opt` binary.

use std::io::Write;
use std::process::{Command, Stdio};

const PROG: &str = "\
program demo
  integer n, i
  real a(50)
  n = 50
  do i = 1, n
    a(i) = 1.0
  end do
  write a(1)
end
";

fn write_prog() -> tempfile_path::TempPath {
    tempfile_path::write(PROG)
}

/// Minimal temp-file helper (std only).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(contents: &str) -> TempPath {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "genesis-opt-test-{}-{:?}-{}.mf",
            std::process::id(),
            std::thread::current().id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&p, contents).expect("write temp program");
        TempPath(p)
    }
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_genesis-opt"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn specs_lists_the_catalog() {
    let out = run_ok(&["specs"]);
    for name in ["CPP", "CTP", "DCE", "ICM", "INX", "CRC", "BMP", "PAR", "LUR", "FUS", "CFO"] {
        assert!(out.contains(name), "missing {name}:\n{out}");
    }
}

#[test]
fn show_points_apply_pipeline() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();

    let shown = run_ok(&["show", path]);
    assert!(shown.contains("do i = 1, n"), "{shown}");

    let points = run_ok(&["points", path, "CTP"]);
    assert!(points.contains("application point(s)"), "{points}");

    let applied = run_ok(&["apply", path, "CTP,PAR"]);
    assert!(applied.contains("pardo i = 1, 50"), "{applied}");
    assert!(applied.contains("write a(1)"), "{applied}");
}

#[test]
fn apply_emits_source_with_flag() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let out = run_ok(&["apply", path, "CTP,PAR", "--source"]);
    assert!(out.contains("pardo i = 1, 50"), "{out}");
    assert!(out.contains("program demo"), "{out}");
    // the emitted source recompiles through the same tool
    let reprog = tempfile_path::write(&out[out.find("program").unwrap()..]);
    let reout = run_ok(&["show", reprog.0.to_str().unwrap()]);
    assert!(reout.contains("pardo"), "{reout}");
}

#[test]
fn emit_prints_figure_6_shape() {
    let out = run_ok(&["emit", "CTP"]);
    for piece in ["set_up_CTP", "match_CTP", "pre_CTP", "act_CTP", "set_up_OPT"] {
        assert!(out.contains(piece), "missing {piece}");
    }
    let rust = run_ok(&["emit", "CTP", "--lang", "rust"]);
    assert!(rust.contains("pub fn apply_ctp"), "{rust}");
}

#[test]
fn interactive_session_over_stdin() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let mut child = bin()
        .args(["interactive", path])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"list\napply CTP\nsource\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CTP"), "{text}");
    assert!(text.contains("application(s)"), "{text}");
    assert!(text.contains("program demo"), "{text}");
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn user_spec_file_registers() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let spec = tempfile_path::write(
        "OPTIMIZATION MY TYPE Stmt: S; PRECOND Code_Pattern any S: S.opc == assign AND S.opr_1 == S.opr_2; ACTION delete(S); END",
    );
    let out = run_ok(&["points", path, "MY", "--spec", spec.0.to_str().unwrap()]);
    assert!(out.contains("0 application point(s)"), "{out}");
}

/// Runs the binary expecting failure; returns stderr.
fn run_err(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        !out.status.success(),
        "{args:?} unexpectedly succeeded:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every failure must produce a single-line `error:` diagnostic on stderr
/// (plus, for validation failures, one report line per rejection).
fn last_error_line(stderr: &str) -> &str {
    let line = stderr
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    assert!(line.starts_with("error:"), "no error line in: {stderr}");
    line
}

#[test]
fn missing_program_file_fails_with_one_line() {
    let err = run_err(&["show", "/no/such/file.mf"]);
    let line = last_error_line(&err);
    assert!(line.contains("/no/such/file.mf"), "{line}");
}

#[test]
fn unreadable_program_file_fails_with_one_line() {
    // A directory is unreadable as a program file on every platform.
    let dir = std::env::temp_dir();
    let err = run_err(&["show", dir.to_str().unwrap()]);
    last_error_line(&err);
}

#[test]
fn malformed_spec_file_fails_with_one_line() {
    let prog = write_prog();
    let spec = tempfile_path::write("OPTIMIZATION oops THIS IS NOT GOSPEL");
    let err = run_err(&[
        "apply",
        prog.0.to_str().unwrap(),
        "CTP",
        "--spec",
        spec.0.to_str().unwrap(),
    ]);
    let line = last_error_line(&err);
    assert!(line.contains(spec.0.to_str().unwrap()), "{line}");
}

#[test]
fn bad_numeric_flag_fails_with_context() {
    let prog = write_prog();
    let err = run_err(&["run", prog.0.to_str().unwrap(), "CTP", "--fuel", "lots"]);
    let line = last_error_line(&err);
    assert!(line.contains("--fuel"), "{line}");
}

#[test]
fn bad_inject_plan_fails_with_context() {
    let prog = write_prog();
    let err = run_err(&["run", prog.0.to_str().unwrap(), "CTP", "--inject", "gremlins"]);
    last_error_line(&err);
}

#[test]
fn run_and_seq_apply_with_budgets() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let out = run_ok(&["run", path, "CTP", "--timeout-ms", "60000", "--max-growth", "8"]);
    assert!(out.contains("application(s)"), "{out}");
    let out = run_ok(&["seq", path, "CTP,PAR", "--validate"]);
    assert!(out.contains("pardo i = 1, 50"), "{out}");
}

#[test]
fn trace_streams_jsonl_and_metrics_prints_table() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let trace = tempfile_path::write("");
    let out = run_ok(&[
        "run",
        path,
        "CTP",
        "--trace",
        trace.0.to_str().unwrap(),
        "--metrics",
    ]);
    assert!(out.contains("driver.applications"), "{out}");
    let text = std::fs::read_to_string(&trace.0).unwrap();
    assert!(!text.is_empty(), "trace file must not be empty");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    for needle in [
        "\"name\":\"driver.attempt\"",
        "\"name\":\"search.match\"",
        "\"name\":\"dep.update\"",
        "\"name\":\"driver.applications\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn trace_without_path_fails_with_context() {
    let prog = write_prog();
    let err = run_err(&["run", prog.0.to_str().unwrap(), "CTP", "--trace"]);
    assert!(last_error_line(&err).contains("--trace"), "{err}");
}

#[test]
fn validate_trace_includes_guard_events() {
    let prog = write_prog();
    let trace = tempfile_path::write("");
    let stderr = run_err(&[
        "run",
        prog.0.to_str().unwrap(),
        "CTP",
        "--validate",
        "--inject",
        "corrupt",
        "--trace",
        trace.0.to_str().unwrap(),
    ]);
    assert!(stderr.contains("[structural]"), "{stderr}");
    let text = std::fs::read_to_string(&trace.0).unwrap();
    for needle in [
        "\"name\":\"guard.apply\"",
        "\"name\":\"guard.validate\"",
        "\"name\":\"guard.rollback\"",
        "\"name\":\"guard.quarantine\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

const BROKEN_CTP_SPEC: &str = "\
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
";

const TWO_DEFS_PROG: &str = "\
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

#[test]
fn validate_quarantines_a_wrong_spec_end_to_end() {
    let prog = tempfile_path::write(TWO_DEFS_PROG);
    let spec = tempfile_path::write(BROKEN_CTP_SPEC);
    // Without validation the wrong spec silently miscompiles (exit 0).
    let out = run_ok(&[
        "run",
        prog.0.to_str().unwrap(),
        "CTP",
        "--spec",
        spec.0.to_str().unwrap(),
    ]);
    assert!(out.contains("application(s)"), "{out}");
    // With --validate it is caught, rolled back, quarantined, nonzero.
    let stderr = run_err(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,DCE,CTP",
        "--validate",
        "--spec",
        spec.0.to_str().unwrap(),
    ]);
    assert!(stderr.contains("[translation]"), "{stderr}");
    assert!(stderr.contains("rolled back"), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    // The third entry (CTP again) was skipped, not re-run.
    assert!(stderr.contains("skipped CTP"), "{stderr}");
    last_error_line(&stderr);
}

#[test]
fn validate_contains_injected_panic() {
    let prog = write_prog();
    let stderr = run_err(&[
        "run",
        prog.0.to_str().unwrap(),
        "CTP",
        "--validate",
        "--inject",
        "panic",
    ]);
    assert!(stderr.contains("[internal]"), "{stderr}");
    assert!(stderr.contains("rolled back"), "{stderr}");
    last_error_line(&stderr);
}

#[test]
fn deps_dot_output_is_wellformed() {
    let prog = write_prog();
    let out = run_ok(&["deps", prog.0.to_str().unwrap(), "--dot"]);
    assert!(out.starts_with("digraph deps {"), "{out}");
    assert!(out.trim_end().ends_with('}'), "{out}");
    assert!(out.contains("style=solid"), "{out}");
}

#[test]
fn apply_accepts_trace_and_metrics() {
    let prog = write_prog();
    let trace = tempfile_path::write("");
    let out = run_ok(&[
        "apply",
        prog.0.to_str().unwrap(),
        "CTP,PAR",
        "--trace",
        trace.0.to_str().unwrap(),
        "--metrics",
    ]);
    assert!(out.contains("driver.applications"), "{out}");
    let text = std::fs::read_to_string(&trace.0).unwrap();
    assert!(text.contains("\"name\":\"driver.attempt\""), "{text}");
    assert!(text.contains("\"name\":\"search.funnel\""), "{text}");
}

#[test]
fn explain_names_the_blocking_clause_per_candidate() {
    let prog = write_prog();
    let out = run_ok(&["explain", prog.0.to_str().unwrap(), "--opt", "CTP"]);
    assert!(out.contains("anchor candidate(s)"), "{out}");
    assert!(out.contains("FIRES"), "{out}");
    assert!(out.contains("not admitted"), "{out}");
    // Restricting to one statement narrows the report to it.
    let one = run_ok(&[
        "explain",
        prog.0.to_str().unwrap(),
        "--opt",
        "CTP",
        "--stmt",
        "0",
    ]);
    assert!(one.contains("1 anchor candidate(s)"), "{one}");
}

#[test]
fn explain_stmt_selects_the_loops_headed_there() {
    // s1 heads the first of two adjacent, fusable loops.
    let prog = tempfile_path::write(
        "program two\n  integer n, i\n  real a(50), b(50)\n  n = 50\n  do i = 1, n\n    \
         a(i) = 1.0\n  end do\n  do i = 1, n\n    b(i) = 2.0\n  end do\n  write a(1)\n  \
         write b(1)\nend\n",
    );
    let path = prog.0.to_str().unwrap();
    let out = run_ok(&["explain", path, "--opt", "FUS", "--stmt", "s1"]);
    assert!(out.contains("1 anchor candidate(s)"), "{out}");
    assert!(out.contains("(L0, L1): FIRES"), "{out}");
    let applied = run_ok(&["apply", path, "FUS", "--at", "s1"]);
    assert!(applied.contains("FUS: 1 application(s)"), "{applied}");
}

#[test]
fn explain_spec_replaces_the_same_named_catalog_entry() {
    let prog = write_prog();
    let spec = tempfile_path::write(
        "OPTIMIZATION CTP TYPE Stmt: S; PRECOND Code_Pattern any S: S.opc == write; ACTION delete(S); END",
    );
    let out = run_ok(&[
        "explain",
        prog.0.to_str().unwrap(),
        "--opt",
        "CTP",
        "--spec",
        spec.0.to_str().unwrap(),
    ]);
    assert!(out.contains("1 satisfy the precondition"), "{out}");
    assert!(out.contains("opcode set {write}"), "{out}");
    assert!(!out.contains("{assign}"), "{out}");
}

#[test]
fn explain_requires_a_known_optimizer() {
    let prog = write_prog();
    let err = run_err(&["explain", prog.0.to_str().unwrap(), "--opt", "NOPE"]);
    assert!(last_error_line(&err).contains("NOPE"), "{err}");
}

/// Records a real trace, reports it, and gates the report against a
/// baseline whose match-phase time is half the measured one — an
/// injected ≥20% regression that must exit nonzero — while the
/// untampered baseline passes.
#[test]
fn report_baseline_gates_an_injected_match_regression() {
    let prog = write_prog();
    let trace = tempfile_path::write("");
    run_ok(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,DCE,PAR",
        "--validate",
        "--trace",
        trace.0.to_str().unwrap(),
    ]);
    let json = run_ok(&["report", trace.0.to_str().unwrap(), "--format", "json"]);
    assert!(json.contains("\"metrics\""), "{json}");

    // Self-comparison passes at any threshold.
    let clean = tempfile_path::write(&json);
    run_ok(&[
        "report",
        trace.0.to_str().unwrap(),
        "--baseline",
        clean.0.to_str().unwrap(),
        "--threshold-pct",
        "5",
    ]);

    // Halve the baseline's match_ns: the current run now reads as a
    // +100% match-phase regression and the gate must fail.
    let start = json.find("\"match_ns\":").expect("match_ns in report") + "\"match_ns\":".len();
    let end = start + json[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let measured: u64 = json[start..end].parse().unwrap();
    assert!(measured > 0, "the traced run must spend time matching");
    let tampered = format!("{}{}{}", &json[..start], measured / 2, &json[end..]);
    let slow = tempfile_path::write(&tampered);
    let err = run_err(&[
        "report",
        trace.0.to_str().unwrap(),
        "--baseline",
        slow.0.to_str().unwrap(),
        "--threshold-pct",
        "20",
    ]);
    assert!(err.contains("match_ns"), "{err}");
    assert!(last_error_line(&err).contains("regressed"), "{err}");
}

#[test]
fn report_rejects_a_malformed_trace_with_context() {
    let junk = tempfile_path::write("this is not jsonl\n");
    let err = run_err(&["report", junk.0.to_str().unwrap()]);
    assert!(last_error_line(&err).contains("line 1"), "{err}");
}

#[test]
fn trace_sample_keeps_counters_while_dropping_spans() {
    let prog = write_prog();
    let full = tempfile_path::write("");
    let sampled = tempfile_path::write("");
    run_ok(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,PAR",
        "--trace",
        full.0.to_str().unwrap(),
    ]);
    run_ok(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,PAR",
        "--trace",
        sampled.0.to_str().unwrap(),
        "--trace-sample",
        "1000000",
    ]);
    let count = |path: &std::path::Path, needle: &str| {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|l| l.contains(needle))
            .count()
    };
    // Counters (exact by contract) survive sampling untouched...
    assert_eq!(
        count(&full.0, "\"name\":\"funnel.CTP.applied\""),
        count(&sampled.0, "\"name\":\"funnel.CTP.applied\""),
    );
    // ...while attempt spans are decimated.
    assert!(
        count(&sampled.0, "\"name\":\"driver.attempt\"")
            < count(&full.0, "\"name\":\"driver.attempt\""),
        "sampling must drop attempt spans"
    );
}

/// Three small programs for the batch tests; CTP applies twice to each.
fn batch_progs() -> Vec<tempfile_path::TempPath> {
    (1..=3)
        .map(|i| tempfile_path::write(&format!("program p{i}\ninteger x, y\nx = {i}\ny = x\nwrite y\nend\n")))
        .collect()
}

/// Runs `genesis-opt batch` over `progs` with `extra` flags and a
/// `--report` file; returns (exit success, stdout, report JSON).
fn run_batch(progs: &[tempfile_path::TempPath], extra: &[&str]) -> (bool, String, String) {
    let report = tempfile_path::write("");
    let out = bin()
        .arg("batch")
        .args(progs.iter().map(|p| p.0.to_str().unwrap()))
        .args(extra)
        .args(["--report", report.0.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let json = std::fs::read_to_string(&report.0).unwrap();
    (out.status.success(), String::from_utf8(out.stdout).unwrap(), json)
}

/// The per-file report lines of a `--report` JSON, in file order.
fn report_files(json: &str) -> Vec<&str> {
    json.lines().filter(|l| l.trim_start().starts_with("{\"file\"")).collect()
}

#[test]
fn batch_prints_results_in_input_order() {
    let progs = batch_progs();
    let (ok, out, json) = run_batch(&progs, &["--seq", "CTP"]);
    assert!(ok, "{out}");
    let mut last = 0;
    for (i, p) in progs.iter().enumerate() {
        let header = format!("== {}: 2 application(s)", p.0.to_str().unwrap());
        let at = out.find(&header).unwrap_or_else(|| panic!("missing {header}:\n{out}"));
        assert!(at >= last, "results out of input order:\n{out}");
        last = at;
        assert!(out[at..].contains(&format!("write {}", i + 1)), "{out}");
    }
    assert!(json.contains("\"done\": 3, \"failed\": 0, \"skipped\": 0"), "{json}");
}

#[test]
fn batch_persistent_fault_skips_the_rest_without_keep_going() {
    let progs = batch_progs();
    let (ok, _, json) = run_batch(&progs, &["--seq", "CTP", "--inject", "panic@CTP"]);
    assert!(!ok, "a failed file must make the exit code nonzero");
    let files = report_files(&json);
    assert!(files[0].contains("\"status\": \"failed\""), "{json}");
    for f in &files[1..] {
        assert!(f.contains("\"attempts\": 0") && f.contains("\"status\": \"skipped\""), "{json}");
    }
    assert!(json.contains("\"done\": 0, \"failed\": 1, \"skipped\": 2"), "{json}");
}

#[test]
fn batch_keep_going_attempts_every_file_one_plus_retries_times() {
    let progs = batch_progs();
    let (ok, _, json) = run_batch(
        &progs,
        &["--seq", "CTP", "--inject", "panic@CTP", "--keep-going", "--retries", "2"],
    );
    assert!(!ok);
    let files = report_files(&json);
    assert_eq!(files.len(), 3, "{json}");
    for f in files {
        assert!(f.contains("\"attempts\": 3") && f.contains("\"status\": \"failed\""), "{json}");
    }
}

#[test]
fn batch_transient_fault_heals_in_two_attempts() {
    let progs = batch_progs();
    let (ok, out, json) = run_batch(&progs, &["--seq", "CTP", "--inject", "~panic"]);
    assert!(ok, "{out}");
    for f in report_files(&json) {
        assert!(f.contains("\"attempts\": 2") && f.contains("\"status\": \"done\""), "{json}");
    }
}

#[test]
fn batch_metrics_sum_the_applications_of_every_file() {
    let progs = batch_progs();
    let (ok, out, json) = run_batch(&progs, &["--seq", "CTP,DCE", "--metrics"]);
    assert!(ok, "{out}");
    let per_file: u64 = report_files(&json)
        .iter()
        .map(|f| {
            let tail = &f[f.find("\"applications\": ").unwrap() + 16..];
            tail[..tail.find(',').unwrap()].parse::<u64>().unwrap()
        })
        .sum();
    let total: u64 = out
        .lines()
        .find_map(|l| l.strip_prefix("driver.applications"))
        .unwrap_or_else(|| panic!("no driver.applications counter:\n{out}"))
        .trim()
        .parse()
        .unwrap();
    assert!(per_file > 0);
    assert_eq!(total, per_file, "{out}\n{json}");
}

#[test]
fn batch_default_sequence_runs_a_replaced_optimizer_once() {
    let prog = write_prog();
    let spec = tempfile_path::write(
        "OPTIMIZATION CTP TYPE Stmt: S; PRECOND Code_Pattern any S: S.opc == write; ACTION delete(S); END",
    );
    let trace = tempfile_path::write("");
    run_ok(&[
        "batch",
        prog.0.to_str().unwrap(),
        "--spec",
        spec.0.to_str().unwrap(),
        "--trace",
        trace.0.to_str().unwrap(),
    ]);
    // Every run of an optimizer opens one attempt span at application 0.
    let text = std::fs::read_to_string(&trace.0).unwrap();
    let ctp_runs = text
        .lines()
        .filter(|l| l.contains("\"type\":\"span_open\",\"name\":\"driver.attempt\""))
        .filter(|l| l.contains("\"optimizer\":\"CTP\",\"application\":0"))
        .count();
    assert_eq!(ctp_runs, 1, "{text}");
}

#[test]
fn batch_rejects_flags_it_does_not_read() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    for extra in [&["--keep-gong"][..], &["--threads", "4"], &["--validate"], &["--bogus", "4"]] {
        let mut args = vec!["batch", path];
        args.extend_from_slice(extra);
        let err = run_err(&args);
        let line = last_error_line(&err);
        assert!(line.contains(extra[0]), "{extra:?}: {line}");
    }
}
