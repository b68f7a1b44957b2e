//! The explain engine: *why didn't this optimizer fire here?*
//!
//! Where the match funnel ([`crate::Driver`]'s `funnel.*` counters) says
//! how many candidates died at each stage, this module says **which**
//! stage killed **this** candidate and names the exact discriminator.
//! It runs the real scan searcher with recording on (see
//! [`Searcher::record`]), so the gates it reports on are the gates a run
//! evaluates. Per anchor candidate the searcher records whether it
//! fired and, if not, the gate that blocked it: an anchor-filter
//! admission miss, or else the deepest failing gate — the anchor
//! format, a later pattern clause, or a Depend clause. This module only
//! renders those records, naming the failing filter test, format
//! conjunct or clause in GOSpeL concrete syntax.

use crate::automaton::{anchor_filter, AnchorFilter, AnchorMiss};
use crate::compile::CompiledOptimizer;
use crate::error::RunError;
use crate::rt::RtVal;
use crate::solve::{conjuncts, eval_format, AnchorVisit, Gate, Searcher};
use gospel_dep::DepGraph;
use gospel_ir::{Program, StmtId};
use gospel_lang::ast::{ElemType, Quant};
use gospel_lang::{pretty_bool, pretty_depend_clause, pretty_pattern_clause};
use std::fmt;

/// The first gate that killed one anchor candidate, with the exact
/// discriminator that failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Blocker {
    /// The fused automaton's root opcode bucket rejected the statement.
    OpcodeMiss {
        /// The statement's opcode.
        got: String,
        /// The anchor's admissible opcode set.
        expected: Vec<String>,
    },
    /// A discriminator edge on the automaton's trie path rejected the
    /// statement.
    EdgeFailed {
        /// The failing edge in GOSpeL syntax, e.g. `type(opr_2) == const`.
        edge: String,
        /// The operand's actual class keyword.
        actual: String,
    },
    /// A top-level conjunct of a pattern clause's format is false.
    FormatFailed {
        /// 0-based pattern-clause index (0 = the anchor clause).
        clause: usize,
        /// The failing conjunct in GOSpeL syntax.
        conjunct: String,
    },
    /// An `any` pattern clause after the anchor found no witness under
    /// any surviving binding.
    NoWitness {
        /// 0-based pattern-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
    },
    /// A `no` pattern clause matched an element it forbids, under every
    /// surviving binding.
    Forbidden {
        /// 0-based pattern-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
        /// The matching element, e.g. `S4`.
        witness: String,
    },
    /// An `any` Depend clause has no solution under any surviving
    /// binding.
    DepUnsatisfied {
        /// 0-based Depend-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
    },
    /// A `no` Depend clause found a solution — a forbidden dependence —
    /// under every surviving binding.
    DepForbidden {
        /// 0-based Depend-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
        /// The forbidden solution's bindings, e.g. `Sl = S4`.
        witness: String,
    },
}

impl fmt::Display for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocker::OpcodeMiss { got, expected } => write!(
                f,
                "not admitted: opcode `{got}` is outside the anchor's \
                 opcode set {{{}}} (rejected at the automaton's root bucket)",
                expected.join(", ")
            ),
            Blocker::EdgeFailed { edge, actual } => write!(
                f,
                "not admitted: automaton edge `{edge}` failed (the operand is {actual})"
            ),
            Blocker::FormatFailed { clause, conjunct } => write!(
                f,
                "format of pattern clause {} failed at conjunct `{conjunct}`",
                clause + 1
            ),
            Blocker::NoWitness { clause, clause_text } => write!(
                f,
                "pattern clause {} (`{clause_text}`) found no witness",
                clause + 1
            ),
            Blocker::Forbidden {
                clause,
                clause_text,
                witness,
            } => write!(
                f,
                "pattern clause {} (`{clause_text}`) forbids {witness}, which matches",
                clause + 1
            ),
            Blocker::DepUnsatisfied { clause, clause_text } => write!(
                f,
                "dependence clause {} (`{clause_text}`) has no solution",
                clause + 1
            ),
            Blocker::DepForbidden {
                clause,
                clause_text,
                witness,
            } => write!(
                f,
                "dependence clause {} (`{clause_text}`) found a forbidden \
                 dependence: {witness}",
                clause + 1
            ),
        }
    }
}

/// One anchor candidate's verdict: the element examined and the first
/// gate that killed it (`None` = the optimizer fires here).
#[derive(Clone, Debug)]
pub struct CandidateExplanation {
    /// The anchor element, rendered (`S3 (assign)`, `L0`, `(L0, L1)`).
    pub anchor: String,
    /// The anchor statement, when the anchor is statement-shaped.
    pub stmt: Option<StmtId>,
    /// The first failing gate; `None` when the precondition holds.
    pub blocker: Option<Blocker>,
}

/// The full explain walk of one optimizer over one program.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The optimizer's name as registered.
    pub optimizer: String,
    /// Whether the anchor filter narrows a statement anchor — the
    /// condition under which the fused automaton fuses this optimizer.
    pub fused: bool,
    /// One verdict per anchor candidate, in program order.
    pub candidates: Vec<CandidateExplanation>,
}

impl ExplainReport {
    /// How many anchor candidates satisfy the whole precondition.
    pub fn fired(&self) -> usize {
        self.candidates.iter().filter(|c| c.blocker.is_none()).count()
    }

    /// The first blocked candidate's blocker, if any.
    pub fn first_blocker(&self) -> Option<&Blocker> {
        self.candidates.iter().find_map(|c| c.blocker.as_ref())
    }

    /// Human-readable narrative, one line per candidate.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}: {} anchor candidate(s), {} satisfy the precondition{}",
            self.optimizer,
            self.candidates.len(),
            self.fired(),
            if self.fused { " [fused anchor]" } else { "" }
        );
        for c in &self.candidates {
            match &c.blocker {
                None => {
                    let _ = writeln!(s, "  {}: FIRES", c.anchor);
                }
                Some(b) => {
                    let _ = writeln!(s, "  {}: {b}", c.anchor);
                }
            }
        }
        s
    }
}

fn render_val(v: &RtVal) -> String {
    match v {
        RtVal::Stmt(s) => s.to_string(),
        RtVal::Loop(l) => l.to_string(),
        other => format!("{other:?}"),
    }
}

fn render_candidate(prog: &Program, cand: &[RtVal]) -> String {
    let parts: Vec<String> = cand
        .iter()
        .map(|v| match v {
            RtVal::Stmt(s) => format!("{s} ({})", prog.quad(*s).op.gospel_name()),
            other => render_val(other),
        })
        .collect();
    if parts.len() == 1 {
        parts.into_iter().next().unwrap()
    } else {
        format!("({})", parts.join(", "))
    }
}

/// Runs the searcher over every anchor candidate of `opt` and reports
/// where each one stopped. `only_stmt` restricts the run to the anchors
/// headed at that statement (the CLI's `--stmt` flag) — the same rule
/// `apply --at` uses, so a loop anchor is selected by its head.
///
/// # Errors
///
/// Propagates [`RunError`] from the search itself (e.g. an `all`
/// quantifier in `Code_Pattern`), and rejects optimizers without an
/// `any` anchor clause.
pub fn explain(
    prog: &Program,
    deps: &DepGraph,
    opt: &CompiledOptimizer,
    only_stmt: Option<StmtId>,
) -> Result<ExplainReport, RunError> {
    let Some((anchor_clause, anchor_ty)) = opt.patterns.first() else {
        return Err(RunError::Action(
            "optimizer has no pattern clause to explain".into(),
        ));
    };
    if anchor_clause.quant != Quant::Any {
        return Err(RunError::Action(
            "`explain` requires an `any` anchor clause".into(),
        ));
    }
    let filter = anchor_clause
        .vars
        .first()
        .filter(|_| *anchor_ty == ElemType::Stmt)
        .map(|v| anchor_filter(anchor_clause, v))
        .filter(AnchorFilter::narrows);
    let mut searcher = Searcher::new(prog, deps, opt);
    searcher.at_point = only_stmt;
    searcher.record = Some(Vec::new());
    searcher.find_all(usize::MAX)?;
    let candidates = searcher
        .record
        .take()
        .unwrap_or_default()
        .into_iter()
        .map(|visit| {
            Ok(CandidateExplanation {
                anchor: render_candidate(prog, &visit.anchor),
                stmt: visit.anchor.first().and_then(RtVal::as_stmt),
                blocker: blocker(prog, deps, opt, filter.as_ref(), &visit)?,
            })
        })
        .collect::<Result<_, RunError>>()?;
    Ok(ExplainReport {
        optimizer: opt.name.clone(),
        fused: filter.is_some(),
        candidates,
    })
}

/// Renders one recorded anchor visit's blocker; `None` when it fired.
fn blocker(
    prog: &Program,
    deps: &DepGraph,
    opt: &CompiledOptimizer,
    filter: Option<&AnchorFilter>,
    visit: &AnchorVisit,
) -> Result<Option<Blocker>, RunError> {
    // Every visit that does not fire records the gate that blocked it.
    let Some(miss) = visit.miss.as_ref().filter(|_| !visit.fired) else {
        return Ok(None);
    };
    let np = opt.patterns.len();
    let pattern = || &opt.patterns[miss.idx].0;
    let dep = || &opt.depends[miss.idx - np].clause;
    Ok(Some(match miss.gate {
        Gate::Admission => {
            let (Some(filter), Some(RtVal::Stmt(s))) = (filter, visit.anchor.first()) else {
                return Err(RunError::Action("admission miss without a filter".into()));
            };
            let quad = prog.quad(*s);
            match filter.first_miss(quad) {
                Some(AnchorMiss::Class {
                    pos,
                    cls,
                    positive,
                    actual,
                }) => Blocker::EdgeFailed {
                    edge: format!(
                        "type(opr_{}) {} {}",
                        pos + 1,
                        if positive { "==" } else { "!=" },
                        cls.keyword()
                    ),
                    actual: actual.keyword().to_owned(),
                },
                _ => Blocker::OpcodeMiss {
                    got: quad.op.gospel_name().to_owned(),
                    expected: filter.opcodes.iter().flatten().map(|&k| k.to_owned()).collect(),
                },
            }
        }
        Gate::Format => {
            // Name the first top-level conjunct that is false under the
            // candidate's bindings; the searcher already found the whole
            // format false.
            let mut failing = None;
            for c in pattern().format.iter().flat_map(|f| conjuncts(f)) {
                if !eval_format(prog, deps.loops(), &miss.witness, c, &mut 0)? {
                    failing = Some(c);
                    break;
                }
            }
            Blocker::FormatFailed {
                clause: miss.idx,
                conjunct: failing.map(pretty_bool).unwrap_or_default(),
            }
        }
        Gate::NoWitness => Blocker::NoWitness {
            clause: miss.idx,
            clause_text: pretty_pattern_clause(pattern()),
        },
        Gate::Forbidden => Blocker::Forbidden {
            clause: miss.idx,
            clause_text: pretty_pattern_clause(pattern()),
            witness: render_candidate(
                prog,
                &pattern()
                    .vars
                    .iter()
                    .filter_map(|v| miss.witness.get(v).cloned())
                    .collect::<Vec<_>>(),
            ),
        },
        Gate::DepUnsatisfied => Blocker::DepUnsatisfied {
            clause: miss.idx - np,
            clause_text: pretty_depend_clause(dep()),
        },
        Gate::DepForbidden => Blocker::DepForbidden {
            clause: miss.idx - np,
            clause_text: pretty_depend_clause(dep()),
            witness: dep()
                .vars
                .iter()
                .filter_map(|v| {
                    miss.witness
                        .get(v)
                        .map(|val| format!("{v} = {}", render_val(val)))
                })
                .collect::<Vec<_>>()
                .join(", "),
        },
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;
    use gospel_lang::parse_validated;

    fn opt_of(src: &str) -> CompiledOptimizer {
        let (s, i) = parse_validated(src).unwrap();
        generate(s, i).unwrap()
    }

    fn ctp() -> CompiledOptimizer {
        opt_of(crate::CTP_EXAMPLE_SPEC)
    }

    fn world(src: &str) -> (Program, DepGraph) {
        let p = gospel_frontend::compile(src).unwrap();
        let d = DepGraph::analyze(&p).unwrap();
        (p, d)
    }

    #[test]
    fn names_the_failing_automaton_edge_and_opcode_bucket() {
        let (p, d) = world("program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend");
        let opt = ctp();
        let report = explain(&p, &d, &opt, None).unwrap();
        assert!(report.fused);
        assert_eq!(report.candidates.len(), 3);
        // x = 3 propagates into y = x: the precondition holds.
        assert!(report.candidates[0].blocker.is_none());
        // y = x: admitted opcode, but the const edge fails.
        assert_eq!(
            report.candidates[1].blocker,
            Some(Blocker::EdgeFailed {
                edge: "type(opr_2) == const".into(),
                actual: "var".into(),
            })
        );
        // write y: rejected at the root bucket.
        assert_eq!(
            report.candidates[2].blocker,
            Some(Blocker::OpcodeMiss {
                got: "write".into(),
                expected: vec!["assign".into()],
            })
        );
        assert_eq!(report.fired(), 1);
        let text = report.to_text();
        assert!(text.contains("type(opr_2) == const"), "{text}");
        assert!(text.contains("FIRES"), "{text}");
    }

    #[test]
    fn names_the_unsatisfied_and_forbidden_dependence_clauses() {
        // x is never used: CTP's `any` flow-dep clause has no solution.
        let (p, d) = world("program p\ninteger x\nx = 3\nend");
        let opt = ctp();
        let report = explain(&p, &d, &opt, None).unwrap();
        match &report.candidates[0].blocker {
            Some(Blocker::DepUnsatisfied { clause: 0, clause_text }) => {
                assert!(clause_text.contains("flow_dep(Si, Sj"), "{clause_text}");
            }
            other => panic!("expected DepUnsatisfied, got {other:?}"),
        }

        // Two defs of x reach y = x: the `no` clause finds the second
        // (forbidden) reaching definition.
        let (p, d) = world(
            "program p\ninteger x, y, z\nread z\nx = 3\nif (z > 0) then\nx = 4\nend if\ny = x\nend",
        );
        let report = explain(&p, &d, &opt, None).unwrap();
        let anchors: Vec<&CandidateExplanation> = report
            .candidates
            .iter()
            .filter(|c| c.blocker.is_some())
            .collect();
        assert!(
            anchors.iter().any(|c| matches!(
                c.blocker,
                Some(Blocker::DepForbidden { clause: 1, .. })
            )),
            "expected a DepForbidden blocker on the second Depend clause: {:?}",
            report.candidates
        );
    }

    #[test]
    fn names_the_failing_format_conjunct_past_an_inexact_filter() {
        // The trailing self-comparison conjunct is not capturable by the
        // anchor filter, so admission passes and the format walk must
        // attribute the failure.
        let opt = opt_of(
            "OPTIMIZATION SELFA\nTYPE\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
             any S: S.opc == assign AND type(S.opr_2) == const AND S.opr_1 == S.opr_2;\n\
             ACTION\n  delete(S);\nEND",
        );
        let (p, d) = world("program p\ninteger x\nx = 3\nend");
        let report = explain(&p, &d, &opt, None).unwrap();
        assert_eq!(
            report.candidates[0].blocker,
            Some(Blocker::FormatFailed {
                clause: 0,
                conjunct: "S.opr_1 == S.opr_2".into(),
            })
        );
    }

    #[test]
    fn restricts_to_one_statement_and_counts_loop_anchors() {
        let (p, d) = world("program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend");
        let opt = ctp();
        let s1 = p.iter().nth(1).unwrap();
        let report = explain(&p, &d, &opt, Some(s1)).unwrap();
        assert_eq!(report.candidates.len(), 1);
        assert_eq!(report.candidates[0].stmt, Some(s1));

        // A loop-anchored optimizer enumerates the loop table and is not
        // narrowed by the automaton.
        let lur = opt_of(
            "OPTIMIZATION LOOPY\nTYPE\n  Loop: L;\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
             any L;\n  Depend\n    no S: mem(S, L), ctrl_dep(L.head, S);\n\
             ACTION\n  delete(L.head);\nEND",
        );
        let (p, d) = world(
            "program p\ninteger i, x\nreal a(10)\ndo i = 1, 10\na(i) = x\nend do\nend",
        );
        let report = explain(&p, &d, &lur, None).unwrap();
        assert!(!report.fused);
        assert_eq!(report.candidates.len(), 1);
        match &report.candidates[0].blocker {
            Some(Blocker::DepForbidden { clause: 0, witness, .. }) => {
                assert!(!witness.is_empty());
            }
            None => {} // no control dep recorded for loop bodies: fires
            other => panic!("unexpected blocker {other:?}"),
        }
        // `only_stmt` selects a loop anchor by its head, as `apply --at`
        // does; any other statement selects none.
        let head = d.loops().iter().next().unwrap().head;
        assert_eq!(explain(&p, &d, &lur, Some(head)).unwrap().candidates.len(), 1);
        let body = p.next(head).unwrap();
        assert!(explain(&p, &d, &lur, Some(body)).unwrap().candidates.is_empty());
    }
}
