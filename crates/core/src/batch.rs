//! Batch driving: the same optimizer sequence over many programs, one
//! [`Session`] per program, run one file after another in input order
//! and traced into the caller's [`Recorder`].
//!
//! The driver is a **supervisor**: a panic escaping one file's session
//! is contained in that file's outcome ([`RunError::Internal`]),
//! transient errors (timeout, fuel exhaustion, contained panics) earn up
//! to [`BatchPolicy::retries`] fresh attempts from the pristine input
//! program within the per-file deadline, and a failure either skips the
//! remaining files ([`BatchStatus::Skipped`]) or — under
//! [`BatchPolicy::keep_going`] — leaves them to run.

use crate::compile::CompiledOptimizer;
use crate::cost::Cost;
use crate::error::RunError;
use crate::fault::FaultPlan;
use crate::session::{Session, SessionOptions};
use gospel_ir::Program;
use gospel_trace::{Recorder, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One program going into a batch run.
#[derive(Debug)]
pub struct BatchItem {
    /// Caller's handle for the program (usually its file name); echoed
    /// back on the outcome so results can be reported by name.
    pub label: String,
    /// The program to optimize.
    pub prog: Program,
}

/// Supervision policy for a batch run: what happens when a file fails.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Keep driving the remaining files after one ultimately fails. Off,
    /// a failure aborts the batch: every later file comes back
    /// [`BatchStatus::Skipped`].
    pub keep_going: bool,
    /// Extra attempts granted to a file whose run fails *transiently*
    /// (timeout, fuel exhaustion, or a contained panic). Each retry
    /// restarts from the pristine input program.
    pub retries: usize,
    /// Wall-clock deadline per file across all its attempts, clipping the
    /// per-apply timeout of every attempt. `None` = no file deadline.
    pub file_timeout_ms: Option<u64>,
    /// Scripted fault for chaos testing. Each file gets its own re-armed
    /// copy ([`FaultPlan::rearmed`]), so a transient fault fires once per
    /// file rather than once per batch.
    pub fault: Option<FaultPlan>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            keep_going: false,
            retries: 1,
            file_timeout_ms: None,
            fault: None,
        }
    }
}

/// What one batch item produced, in the item's input position.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The label of the [`BatchItem`] this outcome belongs to.
    pub label: String,
    /// How many attempts the file consumed (0 when skipped).
    pub attempts: usize,
    /// Wall-clock time the item spent across all attempts.
    pub elapsed_ms: u64,
    /// How the item ended.
    pub status: BatchStatus,
}

/// Terminal state of one batch item.
#[derive(Debug)]
pub enum BatchStatus {
    /// The whole sequence ran; the optimized program and its statistics
    /// (boxed: the program dwarfs the other variants).
    Done(Box<BatchSuccess>),
    /// The final attempt failed with this error (earlier transient
    /// failures were retried per [`BatchPolicy::retries`]).
    Failed(RunError),
    /// Never attempted: an earlier file failed without
    /// [`BatchPolicy::keep_going`].
    Skipped,
}

impl BatchStatus {
    /// True for [`BatchStatus::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, BatchStatus::Done(_))
    }

    /// The success payload, when done.
    pub fn success(&self) -> Option<&BatchSuccess> {
        match self {
            BatchStatus::Done(s) => Some(s),
            _ => None,
        }
    }

    /// The terminal error, when failed.
    pub fn error(&self) -> Option<&RunError> {
        match self {
            BatchStatus::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// The success side of a [`BatchOutcome`].
#[derive(Debug)]
pub struct BatchSuccess {
    /// The program after the whole sequence ran.
    pub prog: Program,
    /// Total applications across the sequence.
    pub applications: usize,
    /// Accumulated search + transformation cost across the sequence.
    pub cost: Cost,
}

/// Runs `sequence` (optimizer names; empty means each optimizer the
/// session ends up registering, once, in registration order) over every
/// item in turn and returns one outcome per item **in input order**.
///
/// Each item gets its own [`Session`] configured with `options` and a
/// clone of every optimizer in `optimizers`, registered in order, so a
/// later entry replaces a same-named earlier one. Every session traces
/// into `recorder` when one is given. `policy` governs panic
/// containment, retry, per-file deadlines, and whether one failure
/// skips the rest.
pub fn run_batch(
    items: Vec<BatchItem>,
    optimizers: &[CompiledOptimizer],
    sequence: &[&str],
    options: SessionOptions,
    policy: &BatchPolicy,
    recorder: Option<&Arc<Recorder>>,
) -> Vec<BatchOutcome> {
    let mut failed = false;
    items
        .into_iter()
        .map(|item| {
            if failed {
                return BatchOutcome {
                    label: item.label,
                    attempts: 0,
                    elapsed_ms: 0,
                    status: BatchStatus::Skipped,
                };
            }
            let out = run_supervised(item, optimizers, sequence, options, policy, recorder);
            failed = !policy.keep_going && matches!(out.status, BatchStatus::Failed(_));
            out
        })
        .collect()
}

/// Errors worth a second attempt: budget exhaustion can be input-order
/// luck, and a contained panic may be a transient interaction the retry
/// (with its cleared session state) avoids. Everything else is
/// deterministic and would just fail again.
fn transient(e: &RunError) -> bool {
    matches!(
        e,
        RunError::Timeout { .. } | RunError::FuelExhausted { .. } | RunError::Internal(_)
    )
}

fn elapsed_ms(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// Drives one file through the sequence with panic containment and
/// transient-retry supervision.
fn run_supervised(
    item: BatchItem,
    optimizers: &[CompiledOptimizer],
    sequence: &[&str],
    options: SessionOptions,
    policy: &BatchPolicy,
    rec: Option<&Arc<Recorder>>,
) -> BatchOutcome {
    let BatchItem { label, prog } = item;
    let started = Instant::now();
    let fault = policy.fault.as_ref().map(FaultPlan::rearmed);
    let mut attempts = 0usize;
    let status = loop {
        attempts += 1;
        let mut opts = options;
        if let Some(total) = policy.file_timeout_ms {
            // Clip this attempt's timeout to what is left of the file
            // deadline (at least 1ms so the driver's probe still runs
            // and reports Timeout rather than an arbitrary other error).
            let left = total.saturating_sub(elapsed_ms(started)).max(1);
            opts.timeout_ms = Some(opts.timeout_ms.map_or(left, |t| t.min(left)));
        }
        match run_attempt(prog.clone(), optimizers, sequence, opts, fault.clone(), rec.cloned()) {
            Ok(success) => break BatchStatus::Done(Box::new(success)),
            Err(e) => {
                let deadline_left = policy
                    .file_timeout_ms
                    .is_none_or(|total| elapsed_ms(started) < total);
                if transient(&e) && attempts <= policy.retries && deadline_left {
                    if let Some(r) = rec {
                        r.add("batch.file_retry", 1);
                        r.event(
                            "batch.file_retry",
                            &[
                                ("file", Value::str(label.clone())),
                                ("error", Value::str(e.to_string())),
                                ("attempt", Value::us(attempts)),
                            ],
                        );
                    }
                    continue;
                }
                break BatchStatus::Failed(e);
            }
        }
    };
    BatchOutcome {
        label,
        attempts,
        elapsed_ms: elapsed_ms(started),
        status,
    }
}

/// One attempt: a fresh session over a pristine copy of the program.
/// Panics escaping generated search/action code surface as
/// [`RunError::Internal`] instead of unwinding through the batch.
fn run_attempt(
    prog: Program,
    optimizers: &[CompiledOptimizer],
    sequence: &[&str],
    options: SessionOptions,
    fault: Option<FaultPlan>,
    rec: Option<Arc<Recorder>>,
) -> Result<BatchSuccess, RunError> {
    let run = catch_unwind(AssertUnwindSafe(move || {
        let mut sess = Session::with_options(prog, options);
        for opt in optimizers {
            sess.register(opt.clone());
        }
        sess.set_fault(fault);
        sess.set_recorder(rec);
        let reports = if sequence.is_empty() {
            let names: Vec<String> = sess.optimizer_names().into_iter().map(String::from).collect();
            sess.run_sequence(&names.iter().map(String::as_str).collect::<Vec<_>>())?
        } else {
            sess.run_sequence(sequence)?
        };
        let applications = reports.iter().map(|r| r.applications).sum();
        let cost = sess.total_cost();
        Ok(BatchSuccess {
            prog: sess.into_program(),
            applications,
            cost,
        })
    }));
    run.unwrap_or_else(|payload| Err(RunError::from_panic(payload.as_ref())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;
    use crate::fault::FaultKind;
    use gospel_frontend::compile as minifor;

    fn ctp() -> CompiledOptimizer {
        let (spec, info) = gospel_lang::parse_validated(crate::CTP_EXAMPLE_SPEC).unwrap();
        generate(spec, info).unwrap()
    }

    fn progs(k: usize) -> Vec<BatchItem> {
        (0..k)
            .map(|i| BatchItem {
                label: format!("p{i}"),
                prog: minifor(&format!(
                    "program p{i}\ninteger x, y\nx = {}\ny = x\nwrite y\nend",
                    i + 1
                ))
                .unwrap(),
            })
            .collect()
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let opts = [ctp()];
        let out = run_batch(
            progs(6),
            &opts,
            &["CTP"],
            SessionOptions::default(),
            &BatchPolicy::default(),
            None,
        );
        assert_eq!(out.len(), 6);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.label, format!("p{i}"));
            assert_eq!(o.attempts, 1);
            let ok = o.status.success().unwrap();
            assert_eq!(ok.applications, 2, "CTP propagates twice per program");
            // the propagated constant is this program's own
            let shown = format!("{}", gospel_ir::DisplayProgram(&ok.prog));
            assert!(shown.contains(&format!("write {}", i + 1)), "{shown}");
        }
    }

    #[test]
    fn default_sequence_runs_a_replaced_optimizer_once() {
        // A later optimizer of the same name replaces the earlier one at
        // registration, so the default sequence must name it once.
        let opts = [ctp(), ctp()];
        let rec = Arc::new(Recorder::new());
        let out = run_batch(
            progs(1),
            &opts,
            &[],
            SessionOptions::default(),
            &BatchPolicy::default(),
            Some(&rec),
        );
        assert!(out[0].status.is_done(), "{out:?}");
        // Each run of an optimizer opens exactly one attempt span at
        // application 0.
        let runs = rec
            .drain_events()
            .iter()
            .filter(|e| e.kind == gospel_trace::EventKind::SpanOpen && e.name == "driver.attempt")
            .filter(|e| e.field("application") == Some(&Value::us(0)))
            .count();
        assert_eq!(runs, 1, "CTP must run once, not once per slice entry");
    }

    #[test]
    fn per_item_errors_stay_per_item_and_share_one_recorder() {
        let opts = [ctp()];
        let keep_going = BatchPolicy {
            keep_going: true,
            ..BatchPolicy::default()
        };
        let rec = Arc::new(Recorder::new());
        let out = run_batch(
            progs(3),
            &opts,
            &["NOPE"],
            SessionOptions::default(),
            &keep_going,
            Some(&rec),
        );
        assert!(out
            .iter()
            .all(|o| matches!(o.status.error(), Some(RunError::UnknownOptimizer { .. }))));

        let rec2 = Arc::new(Recorder::new());
        let out = run_batch(
            progs(3),
            &opts,
            &["CTP"],
            SessionOptions::default(),
            &keep_going,
            Some(&rec2),
        );
        assert!(out.iter().all(|o| o.status.is_done()));
        // 3 programs x 2 applications each
        assert_eq!(rec2.counter("driver.applications"), 6);
    }

    #[test]
    fn failure_without_keep_going_skips_the_rest() {
        let opts = [ctp()];
        // p0 fails, so p1/p2 must be skipped and reported as such.
        let out = run_batch(
            progs(3),
            &opts,
            &["NOPE"],
            SessionOptions::default(),
            &BatchPolicy::default(),
            None,
        );
        assert!(matches!(
            out[0].status.error(),
            Some(RunError::UnknownOptimizer { .. })
        ));
        for o in &out[1..] {
            assert!(matches!(o.status, BatchStatus::Skipped), "{o:?}");
            assert_eq!(o.attempts, 0);
        }
    }

    #[test]
    fn injected_panic_is_contained_and_retried_per_file() {
        let opts = [ctp()];
        // A transient panic per file: every file's first attempt dies,
        // every retry succeeds — the supervisor self-heals and the batch
        // is fully green with exactly 2 attempts per file.
        let policy = BatchPolicy {
            fault: Some(FaultPlan::new(FaultKind::Panic).transient()),
            ..BatchPolicy::default()
        };
        let rec = Arc::new(Recorder::new());
        let out = run_batch(
            progs(3),
            &opts,
            &["CTP"],
            SessionOptions::default(),
            &policy,
            Some(&rec),
        );
        for o in &out {
            assert!(o.status.is_done(), "{o:?}");
            assert_eq!(o.attempts, 2);
            assert_eq!(o.status.success().unwrap().applications, 2);
        }
        assert_eq!(rec.counter("batch.file_retry"), 3);
    }

    #[test]
    fn persistent_panic_fails_only_its_own_file_under_keep_going() {
        let opts = [ctp()];
        let policy = BatchPolicy {
            keep_going: true,
            fault: Some(FaultPlan::new(FaultKind::Panic).at(1)),
            ..BatchPolicy::default()
        };
        let out = run_batch(
            progs(3),
            &opts,
            &["CTP"],
            SessionOptions::default(),
            &policy,
            None,
        );
        for o in &out {
            // Retries are allowed but the fault re-fires at the same
            // application index every attempt; the file ultimately fails
            // as Internal without touching its neighbours.
            assert!(
                matches!(o.status.error(), Some(RunError::Internal(_))),
                "{o:?}"
            );
            assert_eq!(o.attempts, 1 + BatchPolicy::default().retries);
        }
    }
}
