//! Precondition evaluation: pattern matching, dependence verification and
//! the two membership-checking strategies of §4.

use crate::automaton::{anchor_filter, AnchorFilter};
use crate::compile::{CompiledClause, CompiledOptimizer, Strategy};
use crate::cost::Cost;
use crate::error::RunError;
use crate::rt::{Bindings, RtVal};
use gospel_dep::{DepEdge, DepGraph, DepKind, DirElem, DirPattern};
use gospel_ir::{LoopTable, Operand, OperandPos, Program, StmtId};
use gospel_lang::ast::{
    Attr, BoolExpr, CmpOp, ElemType, OperandClass, PatternClause, Quant, SetExpr, ValExpr,
};
use gospel_lang::VarClass;
use std::collections::HashMap;
use std::time::Instant;

// ---------------------------------------------------------------------------
// value evaluation (shared with the action interpreter)
// ---------------------------------------------------------------------------

pub(crate) fn eval_val(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    v: &ValExpr,
) -> Result<RtVal, RunError> {
    match v {
        ValExpr::Int(n) => Ok(RtVal::Int(*n)),
        ValExpr::Real(r) => Ok(RtVal::Real(*r)),
        ValExpr::Name(n) => Ok(env
            .get(n)
            .cloned()
            .unwrap_or_else(|| RtVal::Name(n.clone()))),
        ValExpr::Ref(r) => {
            let mut val = env
                .get(&r.base)
                .cloned()
                .ok_or_else(|| RunError::Action(format!("`{}` is not bound", r.base)))?;
            for attr in &r.path {
                val = step_attr(prog, loops, val, *attr)?;
            }
            Ok(val)
        }
        ValExpr::OperandFn(s, p) => {
            let (stmt, pos) = operand_fn_place(prog, loops, env, s, p)?;
            Ok(RtVal::Operand(prog.quad(stmt).operand(pos).clone()))
        }
        ValExpr::Eval(a, opexpr, b) => {
            let fa = const_of(eval_val(prog, loops, env, a)?)?;
            let fb = const_of(eval_val(prog, loops, env, b)?)?;
            let opname = match eval_val(prog, loops, env, opexpr)? {
                RtVal::Opc(o) => o.gospel_name().to_owned(),
                RtVal::Name(n) => n,
                other => {
                    return Err(RunError::Action(format!(
                        "eval(): operation is not an opcode: {other:?}"
                    )))
                }
            };
            let op = fold_op(&opname)
                .ok_or_else(|| RunError::Action(format!("eval(): unknown op `{opname}`")))?;
            let folded = gospel_ir::Value::fold(op, fa, fb)
                .ok_or_else(|| RunError::Action("eval(): fold failed".into()))?;
            Ok(RtVal::Operand(Operand::Const(folded)))
        }
        ValExpr::Bump(x, var, k) => {
            let ox = eval_val(prog, loops, env, x)?
                .as_operand()
                .ok_or_else(|| RunError::Action("bump(): first argument not an operand".into()))?;
            let ov = eval_val(prog, loops, env, var)?
                .as_operand()
                .and_then(|o| o.as_var())
                .ok_or_else(|| RunError::Action("bump(): second argument not a variable".into()))?;
            let amount = const_of(eval_val(prog, loops, env, k)?)?
                .as_int()
                .ok_or_else(|| RunError::Action("bump(): amount is not an integer".into()))?;
            let repl = gospel_ir::AffineExpr::var(ov).plus_const(amount);
            // A bare scalar use of the bumped variable cannot be rewritten
            // to `var + k` inside a single operand slot: fail loudly rather
            // than silently leaving it unbumped.
            if amount != 0 && ox.as_var() == Some(ov) {
                return Err(RunError::Action(
                    "bump(): the control variable is used as a direct scalar operand; \
                     the substitution is not expressible (prototype restriction)"
                        .into(),
                ));
            }
            Ok(RtVal::Operand(ox.substitute_affine(ov, &repl)))
        }
    }
}

fn const_of(v: RtVal) -> Result<gospel_ir::Value, RunError> {
    match v {
        RtVal::Operand(Operand::Const(c)) => Ok(c),
        RtVal::Int(n) => Ok(gospel_ir::Value::Int(n)),
        RtVal::Real(r) => Ok(gospel_ir::Value::Real(r)),
        other => Err(RunError::Action(format!(
            "expected a constant operand, got {other:?}"
        ))),
    }
}

fn fold_op(name: &str) -> Option<gospel_ir::FoldOp> {
    Some(match name.to_ascii_lowercase().as_str() {
        "add" => gospel_ir::FoldOp::Add,
        "sub" => gospel_ir::FoldOp::Sub,
        "mul" => gospel_ir::FoldOp::Mul,
        "div" => gospel_ir::FoldOp::Div,
        "mod" => gospel_ir::FoldOp::Mod,
        _ => return None,
    })
}

fn step_attr(
    prog: &Program,
    loops: &LoopTable,
    val: RtVal,
    attr: Attr,
) -> Result<RtVal, RunError> {
    let nav_err = || RunError::Action(format!("attribute `.{}` navigated off the program", attr.keyword()));
    match (val, attr) {
        (RtVal::Stmt(s), Attr::Nxt) => prog.next(s).map(RtVal::Stmt).ok_or_else(nav_err),
        (RtVal::Stmt(s), Attr::Prev) => prog.prev(s).map(RtVal::Stmt).ok_or_else(nav_err),
        (RtVal::Stmt(s), Attr::Opr(i)) => {
            let pos = OperandPos::from_index(i as usize).ok_or_else(nav_err)?;
            Ok(RtVal::Operand(prog.quad(s).operand(pos).clone()))
        }
        (RtVal::Stmt(s), Attr::Opc) => Ok(RtVal::Opc(prog.quad(s).op)),
        (RtVal::Loop(l), Attr::Head) => Ok(RtVal::Stmt(loops.get(l).head)),
        (RtVal::Loop(l), Attr::End) => Ok(RtVal::Stmt(loops.get(l).end)),
        // Live reads through the header statement so that modified bounds
        // are observed.
        (RtVal::Loop(l), Attr::Lcv) => Ok(RtVal::Operand(prog.quad(loops.get(l).head).dst.clone())),
        (RtVal::Loop(l), Attr::Init) => Ok(RtVal::Operand(prog.quad(loops.get(l).head).a.clone())),
        (RtVal::Loop(l), Attr::Final) => Ok(RtVal::Operand(prog.quad(loops.get(l).head).b.clone())),
        (RtVal::Loop(l), Attr::Nxt) => loops
            .by_index(l.index() + 1)
            .map(|info| RtVal::Loop(info.id))
            .ok_or_else(nav_err),
        (RtVal::Loop(l), Attr::Prev) => l
            .index()
            .checked_sub(1)
            .and_then(|i| loops.by_index(i))
            .map(|info| RtVal::Loop(info.id))
            .ok_or_else(nav_err),
        (other, a) => Err(RunError::Action(format!(
            "attribute `.{}` not defined on {other:?}",
            a.keyword()
        ))),
    }
}

/// Resolves an operand *place* — where `modify` writes.
pub(crate) fn eval_place(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    v: &ValExpr,
) -> Result<(StmtId, OperandPos), RunError> {
    match v {
        ValExpr::OperandFn(s, p) => operand_fn_place(prog, loops, env, s, p),
        ValExpr::Ref(r) if !r.path.is_empty() => {
            let (prefix, last) = r.path.split_at(r.path.len() - 1);
            let base = ValExpr::Ref(gospel_lang::ast::ElemRef {
                base: r.base.clone(),
                path: prefix.to_vec(),
            });
            let holder = eval_val(prog, loops, env, &base)?;
            match (holder, last[0]) {
                (RtVal::Stmt(s), Attr::Opr(i)) => {
                    let pos = OperandPos::from_index(i as usize)
                        .ok_or_else(|| RunError::Action("bad operand index".into()))?;
                    Ok((s, pos))
                }
                (RtVal::Loop(l), Attr::Lcv) => Ok((loops.get(l).head, OperandPos::Dst)),
                (RtVal::Loop(l), Attr::Init) => Ok((loops.get(l).head, OperandPos::A)),
                (RtVal::Loop(l), Attr::Final) => Ok((loops.get(l).head, OperandPos::B)),
                (_h, a) => Err(RunError::Action(format!(
                    "`{}.{}` is not an operand place",
                    r.base,
                    a.keyword()
                ))),
            }
        }
        other => Err(RunError::Action(format!(
            "not an operand place: {other:?}"
        ))),
    }
}

fn operand_fn_place(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    s: &ValExpr,
    p: &ValExpr,
) -> Result<(StmtId, OperandPos), RunError> {
    let stmt = eval_val(prog, loops, env, s)?
        .as_stmt()
        .ok_or_else(|| RunError::Action("operand(): first argument not a statement".into()))?;
    let pos = eval_val(prog, loops, env, p)?
        .as_pos()
        .ok_or_else(|| RunError::Action("operand(): second argument not a position".into()))?;
    Ok((stmt, pos))
}

// ---------------------------------------------------------------------------
// comparisons
// ---------------------------------------------------------------------------

fn numeric(v: &RtVal) -> Option<f64> {
    match v {
        RtVal::Int(n) => Some(*n as f64),
        RtVal::Real(r) => Some(*r),
        RtVal::Operand(Operand::Const(c)) => Some(c.to_f64()),
        _ => None,
    }
}

pub(crate) fn compare(a: &RtVal, op: CmpOp, b: &RtVal) -> Result<bool, RunError> {
    if let (Some(x), Some(y)) = (numeric(a), numeric(b)) {
        return Ok(match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        });
    }
    let eq = match (a, b) {
        (RtVal::Stmt(x), RtVal::Stmt(y)) => x == y,
        (RtVal::Loop(x), RtVal::Loop(y)) => x == y,
        (RtVal::Pos(x), RtVal::Pos(y)) => x == y,
        (RtVal::Pos(p), RtVal::Int(n)) | (RtVal::Int(n), RtVal::Pos(p)) => {
            usize::try_from(*n).ok() == Some(p.index())
        }
        (RtVal::Operand(x), RtVal::Operand(y)) => x == y,
        (RtVal::Opc(o), RtVal::Name(n)) | (RtVal::Name(n), RtVal::Opc(o)) => {
            o.gospel_name().eq_ignore_ascii_case(n)
        }
        (RtVal::Name(x), RtVal::Name(y)) => x.eq_ignore_ascii_case(y),
        // Values of different kinds are simply unequal.
        _ => false,
    };
    match op {
        CmpOp::Eq => Ok(eq),
        CmpOp::Ne => Ok(!eq),
        _ => Err(RunError::Action(format!(
            "ordering comparison on non-numeric values {a:?} / {b:?}"
        ))),
    }
}

fn class_matches(o: &Operand, cls: OperandClass) -> bool {
    match cls {
        OperandClass::Const => matches!(o, Operand::Const(_)),
        OperandClass::Var => matches!(o, Operand::Var(_)),
        OperandClass::Elem => matches!(o, Operand::Elem { .. }),
        OperandClass::None => matches!(o, Operand::None),
    }
}

// ---------------------------------------------------------------------------
// the searcher
// ---------------------------------------------------------------------------

/// One precondition search over a program snapshot. Owns the running cost
/// counters and the per-clause strategy log used by the §4 experiments.
pub(crate) struct Searcher<'a> {
    pub prog: &'a Program,
    pub deps: &'a DepGraph,
    pub opt: &'a CompiledOptimizer,
    pub cost: Cost,
    /// Restrict the first pattern clause's anchor to this statement
    /// ("select application points", §3 interface option).
    pub at_point: Option<StmtId>,
    /// Resume filter: skip first-clause anchors strictly before this
    /// statement in program order. Set by the driver to the dependence
    /// update's dirty frontier — anchors before it saw no change since
    /// they last failed to match. Ignored when `at_point` is set.
    pub resume_from: Option<StmtId>,
    /// Complement filter: keep only first-clause anchors strictly
    /// *before* this statement. The driver's fixpoint safety net pairs it
    /// with a missed `resume_from` search so together the two passes
    /// cover every anchor exactly once. Ignored when `at_point` is set.
    pub stop_before: Option<StmtId>,
    /// Skip the Depend section ("override dependence restrictions").
    pub ignore_depends: bool,
    /// Which strategy each Depend clause actually used, in evaluation
    /// order (introspection for the strategy experiments).
    pub strategies_used: Vec<Strategy>,
    /// Per-Depend-clause candidate kills, indexed by clause position: how
    /// often an `any` clause found no solution or a `no` clause found one,
    /// failing the candidate binding reached from the pattern section.
    pub dep_rejects: Vec<u64>,
    /// The catalog-wide fused automaton and this optimizer's id in it,
    /// when the driver runs the fused matcher and the automaton fuses
    /// this optimizer's anchor. The top rung of the two-rung ladder:
    /// anchor candidates come from the optimizer's posting (admission
    /// already classified — zero per-search test evaluation), falling to
    /// the scan on stale order.
    pub fused: Option<(&'a crate::automaton::FusedAutomaton, usize)>,
    /// How often the fused posting bowed out because a member's program
    /// order was unknown to the dependence snapshot — the ladder's one
    /// fall (fused → scan). The driver surfaces it as
    /// `search.degraded.stale_order`.
    pub degraded_stale_order: u64,
    /// Anchor candidates skipped without a visit because the fused
    /// posting excluded them (they could never satisfy the anchor
    /// clause's opcode or class constraints).
    pub candidates_pruned: u64,
    /// Anchor candidates dispatched from the fused automaton's posting
    /// (surfaced as `search.fused.dispatched.<OPT>`).
    pub fused_dispatched: u64,
    /// Accumulate wall time spent in the pattern-matching phase
    /// (candidate enumeration + clause format evaluation) into
    /// `pattern_ns`. Off by default — the driver turns it on when a
    /// recorder is attached, keeping the per-anchor timer calls out of
    /// untraced runs.
    pub time_pattern: bool,
    /// Nanoseconds spent in the pattern-matching phase, when
    /// `time_pattern` is set. Dependence-clause evaluation is excluded:
    /// the paper's cost model splits precondition checking into the two
    /// phases, and the fused automaton targets only this one.
    pub pattern_ns: u64,
    /// Set by the most recent `pattern_candidates` call when the
    /// candidates came from a fused posting whose [`AnchorFilter`] is
    /// `exact` — the posting *is* the format's satisfying set, so
    /// `rec_pattern` skips format evaluation for those candidates.
    format_known: bool,
    /// How the most recent anchor enumeration relates to the admission
    /// set, so funnel accounting stays matcher-independent (see
    /// [`AnchorAdmission`]). Set by `pattern_candidates` for the anchor
    /// clause only.
    anchor_admission: AnchorAdmission,
    /// Funnel: elements the anchor enumeration considered, before any
    /// admission narrowing — `prog.len()` for statement anchors, the
    /// loop-table candidate count for loop anchors. Matcher-independent
    /// by construction.
    pub funnel_classified: u64,
    /// Funnel: visited anchor candidates inside the admission set. The
    /// posting path counts every visit (membership *is* admission); the
    /// scan path tests each visit with [`AnchorFilter::admits`] — the
    /// same predicate — so totals agree across both matchers over
    /// identical visited prefixes.
    pub funnel_admitted: u64,
    /// Funnel: admitted anchors whose clause format held (the exact
    /// `known_hold` shortcut counts here too — posting membership already
    /// proved the format).
    pub funnel_matched: u64,
    /// Funnel: pattern-section bindings that entered the Depend section.
    /// Not part of the `classified ≥ admitted ≥ matched` chain — one
    /// matched anchor can reach dependence checking under several
    /// bindings, or under none when a later pattern clause fails.
    pub funnel_dep_checked: u64,
    /// When `Some`, one [`AnchorVisit`] per anchor candidate visited,
    /// recording whether it fired and, if not, the gate that blocked it
    /// (`explain` renders these). `None` — the default — records nothing.
    pub record: Option<Vec<AnchorVisit>>,
}

/// A precondition gate that rejected a binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Gate {
    /// The anchor filter does not admit the anchor statement.
    Admission,
    /// The anchor clause's format is false.
    Format,
    /// An `any` pattern clause has no witness.
    NoWitness,
    /// A `no` pattern clause matched an element.
    Forbidden,
    /// An `any` Depend clause has no solution.
    DepUnsatisfied,
    /// A `no` Depend clause has a solution.
    DepForbidden,
}

/// One recorded anchor visit (see [`Searcher::record`]).
#[derive(Clone, Debug)]
pub(crate) struct AnchorVisit {
    /// The anchor candidate's values, in anchor-clause variable order.
    pub anchor: Vec<RtVal>,
    /// Some binding from this anchor satisfied the whole precondition.
    pub fired: bool,
    /// The blocking failure: an admission miss if there was one, else the
    /// deepest failing gate (the last of equal depth).
    pub miss: Option<GateMiss>,
}

/// One gate failure recorded under an anchor visit.
#[derive(Clone, Debug)]
pub(crate) struct GateMiss {
    /// Which gate failed.
    pub gate: Gate,
    /// The failing clause's position in the search: pattern clauses
    /// first, then Depend clauses.
    pub idx: usize,
    /// The bindings it failed under: the bound candidate for a format
    /// miss, the matching element for a `no` pattern clause, the first
    /// solution for a `no` Depend clause, the incoming bindings for the
    /// other clause gates, and none for an admission miss (the visit's
    /// anchor is the statement).
    pub witness: Bindings,
}

/// How anchor candidates produced by `pattern_candidates` relate to the
/// [`AnchorFilter`] admission set — the piece of bookkeeping that lets
/// both matchers report the same `admitted` funnel totals.
enum AnchorAdmission {
    /// Every visited candidate is admitted: the candidates came from a
    /// fused posting (admitted by construction), or no admission set
    /// narrows this enumeration (loop anchors, or a format with no
    /// opcode bound).
    All,
    /// Scan candidates with a narrowing filter: each visited statement
    /// is tested with [`AnchorFilter::admits`].
    Filter(AnchorFilter),
}

impl<'a> Searcher<'a> {
    pub fn new(prog: &'a Program, deps: &'a DepGraph, opt: &'a CompiledOptimizer) -> Searcher<'a> {
        Searcher {
            prog,
            deps,
            opt,
            cost: Cost::zero(),
            at_point: None,
            resume_from: None,
            stop_before: None,
            ignore_depends: false,
            strategies_used: Vec::new(),
            dep_rejects: vec![0; opt.depends.len()],
            fused: None,
            degraded_stale_order: 0,
            candidates_pruned: 0,
            fused_dispatched: 0,
            time_pattern: false,
            pattern_ns: 0,
            format_known: false,
            anchor_admission: AnchorAdmission::All,
            funnel_classified: 0,
            funnel_admitted: 0,
            funnel_matched: 0,
            funnel_dep_checked: 0,
            record: None,
        }
    }

    /// Counts one anchor visit, opens its record when recording, and
    /// returns whether the candidate is in the admission set.
    fn visit_anchor(&mut self, admission: &AnchorAdmission, cand: &[RtVal]) -> bool {
        let admitted = self.anchor_admitted(admission, cand);
        self.cost.anchor_visits += 1;
        if admitted {
            self.funnel_admitted += 1;
        }
        if let Some(visits) = &mut self.record {
            visits.push(AnchorVisit {
                anchor: cand.to_vec(),
                fired: false,
                miss: None,
            });
            if !admitted {
                self.note_miss(Gate::Admission, 0, Bindings::new());
            }
        }
        admitted
    }

    /// Records a gate failure against the current anchor visit. An
    /// admission miss is final; otherwise a failure at least as deep as
    /// the recorded one replaces it.
    fn note_miss(&mut self, gate: Gate, idx: usize, witness: Bindings) {
        let Some(visit) = self.record.as_mut().and_then(|v| v.last_mut()) else {
            return;
        };
        let replace = match &visit.miss {
            None => true,
            Some(m) => m.gate != Gate::Admission && idx >= m.idx,
        };
        if replace {
            visit.miss = Some(GateMiss { gate, idx, witness });
        }
    }

    /// Whether a visited anchor candidate is in the admission set, under
    /// the enumeration's [`AnchorAdmission`] accounting.
    fn anchor_admitted(&self, admission: &AnchorAdmission, cand: &[RtVal]) -> bool {
        match admission {
            AnchorAdmission::All => true,
            AnchorAdmission::Filter(f) => match cand.first() {
                Some(RtVal::Stmt(s)) => f.admits(self.prog.quad(*s)),
                _ => true,
            },
        }
    }

    fn loops(&self) -> &'a LoopTable {
        self.deps.loops()
    }

    /// Starts a pattern-phase timing interval when `time_pattern` is on.
    fn pattern_timer(&self) -> Option<Instant> {
        self.time_pattern.then(Instant::now)
    }

    /// Closes a [`Searcher::pattern_timer`] interval.
    fn note_pattern(&mut self, t: Option<Instant>) {
        if let Some(t) = t {
            self.pattern_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Finds the first full binding satisfying the precondition.
    ///
    /// Short-circuits inside the search: `rec` with limit 1 returns
    /// `true` up through every active clause loop the moment the first
    /// full binding lands, so no anchor after the match is visited (see
    /// `find_first_short_circuits_anchor_visits`).
    pub fn find_first(&mut self) -> Result<Option<Bindings>, RunError> {
        let mut out = Vec::with_capacity(1);
        self.rec(0, Bindings::new(), &mut out, 1)?;
        Ok(out.pop())
    }

    /// Finds up to `limit` bindings (all application points).
    pub fn find_all(&mut self, limit: usize) -> Result<Vec<Bindings>, RunError> {
        let mut out = Vec::new();
        self.rec(0, Bindings::new(), &mut out, limit)?;
        Ok(out)
    }

    /// Recursive backtracking over pattern clauses then dependence clauses.
    /// Returns `true` when enough bindings were collected.
    fn rec(
        &mut self,
        idx: usize,
        env: Bindings,
        out: &mut Vec<Bindings>,
        limit: usize,
    ) -> Result<bool, RunError> {
        let opt = self.opt;
        let np = opt.patterns.len();
        if idx < np {
            let (clause, ty) = &opt.patterns[idx];
            return self.rec_pattern(idx, clause, *ty, env, out, limit);
        }
        let di = idx - np;
        let depends = if self.ignore_depends {
            0
        } else {
            opt.depends.len()
        };
        if di < depends {
            if di == 0 {
                self.funnel_dep_checked += 1;
            }
            let cc = &opt.depends[di];
            return self.rec_depend(idx, cc, env, out, limit);
        }
        if let Some(visit) = self.record.as_mut().and_then(|v| v.last_mut()) {
            visit.fired = true;
        }
        out.push(env);
        Ok(out.len() >= limit)
    }

    fn rec_pattern(
        &mut self,
        idx: usize,
        clause: &PatternClause,
        ty: ElemType,
        env: Bindings,
        out: &mut Vec<Bindings>,
        limit: usize,
    ) -> Result<bool, RunError> {
        let t = self.pattern_timer();
        let candidates = self.pattern_candidates(clause, ty, idx);
        self.note_pattern(t);
        // Snapshot before recursing: nested clauses re-enter
        // `pattern_candidates` and overwrite the flag.
        let known_hold = self.format_known;
        let admission =
            std::mem::replace(&mut self.anchor_admission, AnchorAdmission::All);
        match clause.quant {
            Quant::Any => {
                let mut witnessed = false;
                'cands: for cand in candidates {
                    let admitted = idx == 0 && self.visit_anchor(&admission, &cand);
                    let mut env2 = env.clone();
                    for (v, val) in clause.vars.iter().zip(&cand) {
                        // A variable bound by an earlier clause (loop pairs
                        // chained through a shared loop) must agree.
                        if let Some(existing) = env2.get(v) {
                            if existing != val {
                                continue 'cands;
                            }
                        }
                        env2.set(v, val.clone());
                    }
                    let holds = if known_hold {
                        true
                    } else {
                        let t = self.pattern_timer();
                        let h = self.format_holds(clause, &env2)?;
                        self.note_pattern(t);
                        h
                    };
                    if admitted && holds {
                        self.funnel_matched += 1;
                    }
                    if !holds {
                        if idx == 0 {
                            self.note_miss(Gate::Format, 0, env2);
                        }
                        continue 'cands;
                    }
                    witnessed = true;
                    if self.rec(idx + 1, env2, out, limit)? {
                        return Ok(true);
                    }
                }
                if idx > 0 && !witnessed {
                    self.note_miss(Gate::NoWitness, idx, env);
                }
                Ok(false)
            }
            Quant::No => {
                for cand in candidates {
                    let admitted = idx == 0 && self.visit_anchor(&admission, &cand);
                    let mut env2 = env.clone();
                    for (v, val) in clause.vars.iter().zip(&cand) {
                        env2.set(v, val.clone());
                    }
                    let holds = if known_hold {
                        true
                    } else {
                        let t = self.pattern_timer();
                        let h = self.format_holds(clause, &env2)?;
                        self.note_pattern(t);
                        h
                    };
                    if holds {
                        if admitted {
                            self.funnel_matched += 1;
                        }
                        self.note_miss(Gate::Forbidden, idx, env2);
                        return Ok(false); // an element matches: clause fails
                    }
                }
                self.rec(idx + 1, env, out, limit)
            }
            Quant::All => Err(RunError::Action(
                "`all` in Code_Pattern is rejected at generation time".into(),
            )),
        }
    }

    fn format_holds(&mut self, clause: &PatternClause, env: &Bindings) -> Result<bool, RunError> {
        match &clause.format {
            None => Ok(true),
            Some(f) => {
                let mut checks = 0u64;
                let ok = eval_format(self.prog, self.loops(), env, f, &mut checks)?;
                self.cost.pattern_checks += checks;
                Ok(ok)
            }
        }
    }

    /// This optimizer's anchor posting from the fused automaton, in
    /// program order, or `None` when the scan must run: no automaton, the
    /// optimizer is not fused, or a posting member whose program position
    /// is unknown to the dependence snapshot (stale order).
    ///
    /// Restricting candidates to the posting is sound for both `any` and
    /// `no` quantifiers: a statement outside it provably fails the
    /// clause's opcode disjunction or one of its top-level
    /// `type(var.opr_N)` conjuncts (see [`AnchorFilter`]), so its format
    /// can never hold. The second component reports
    /// [`AnchorFilter::exact`]: the posting *equals* the format's
    /// satisfying set, so the caller may treat every returned candidate
    /// as already format-checked.
    fn fused_stmt_candidates(&mut self) -> Option<(Vec<StmtId>, bool)> {
        let (auto, id) = self.fused?;
        let exact = auto.exact(id);
        let posting = auto.posting(id);
        let mut ordered = Vec::with_capacity(posting.len());
        for &s in posting {
            match self.deps.order_of(s) {
                Some(o) => ordered.push((o, s)),
                None => {
                    self.degraded_stale_order += 1;
                    return None;
                }
            }
        }
        ordered.sort_unstable();
        Some((ordered.into_iter().map(|(_, s)| s).collect(), exact))
    }

    fn pattern_candidates(
        &mut self,
        clause: &PatternClause,
        ty: ElemType,
        idx: usize,
    ) -> Vec<Vec<RtVal>> {
        let first = idx == 0;
        self.format_known = false;
        // Hoisted ahead of the anchor_ok closure: candidate enumeration
        // may mutate the searcher (stale-order accounting), while the
        // closure holds a shared borrow for the rest of the function.
        // Ladder order: fused posting (anchor clause only — the automaton
        // compiles anchor filters), then scan.
        let fused = (first && ty == ElemType::Stmt)
            .then(|| self.fused_stmt_candidates())
            .flatten();
        let loops = self.loops();
        if first {
            // Funnel accounting, fixed before `anchor_ok` borrows the
            // searcher. `classified` counts the enumeration's universe
            // (pre-admission, pre-resume-filter), identical for every
            // matcher; `anchor_admission` tells the visit loop how to
            // recognise the admission set among visited candidates.
            self.funnel_classified += match ty {
                ElemType::Stmt => self.prog.len() as u64,
                ElemType::Loop => loops.iter().count() as u64,
                ElemType::NestedLoops => loops.nested_pairs().len() as u64,
                ElemType::TightLoops => loops.tight_pairs(self.prog).len() as u64,
                ElemType::AdjacentLoops => loops.adjacent_pairs(self.prog).len() as u64,
            };
            let filter = (ty == ElemType::Stmt && fused.is_none())
                .then(|| clause.vars.first().map(|v| anchor_filter(clause, v)))
                .flatten();
            self.anchor_admission = match filter {
                Some(f) if f.narrows() => AnchorAdmission::Filter(f),
                _ => AnchorAdmission::All,
            };
        }
        let resume_bar = self
            .resume_from
            .and_then(|r| self.deps.order_of(r));
        let stop_bar = self
            .stop_before
            .and_then(|r| self.deps.order_of(r));
        let anchor_ok = |head: StmtId| -> bool {
            if !first {
                return true;
            }
            if let Some(p) = self.at_point {
                return p == head;
            }
            match (resume_bar, self.deps.order_of(head)) {
                // Anchors strictly before the dirty frontier saw no change
                // since they last failed to match.
                (Some(bar), Some(h)) if h < bar => return false,
                _ => {}
            }
            match (stop_bar, self.deps.order_of(head)) {
                (Some(bar), Some(h)) => h < bar,
                // Unknown order (stale snapshot): stay conservative.
                _ => true,
            }
        };
        match ty {
            ElemType::Stmt => match fused {
                Some((posting, exact)) => {
                    self.candidates_pruned += self.prog.len().saturating_sub(posting.len()) as u64;
                    self.format_known = exact;
                    let out: Vec<Vec<RtVal>> = posting
                        .into_iter()
                        .filter(|&s| anchor_ok(s))
                        .map(|s| vec![RtVal::Stmt(s)])
                        .collect();
                    self.fused_dispatched += out.len() as u64;
                    out
                }
                None => self
                    .prog
                    .iter()
                    .filter(|&s| anchor_ok(s))
                    .map(|s| vec![RtVal::Stmt(s)])
                    .collect(),
            },
            ElemType::Loop => loops
                .iter()
                .filter(|l| anchor_ok(l.head))
                .map(|l| vec![RtVal::Loop(l.id)])
                .collect(),
            ElemType::NestedLoops => loops
                .nested_pairs()
                .into_iter()
                .filter(|&(o, _)| anchor_ok(loops.get(o).head))
                .map(|(o, i)| vec![RtVal::Loop(o), RtVal::Loop(i)])
                .collect(),
            ElemType::TightLoops => loops
                .tight_pairs(self.prog)
                .into_iter()
                .filter(|&(o, _)| anchor_ok(loops.get(o).head))
                .map(|(o, i)| vec![RtVal::Loop(o), RtVal::Loop(i)])
                .collect(),
            ElemType::AdjacentLoops => loops
                .adjacent_pairs(self.prog)
                .into_iter()
                .filter(|&(l1, _)| anchor_ok(loops.get(l1).head))
                .map(|(l1, l2)| vec![RtVal::Loop(l1), RtVal::Loop(l2)])
                .collect(),
        }
    }

    fn rec_depend(
        &mut self,
        idx: usize,
        cc: &CompiledClause,
        env: Bindings,
        out: &mut Vec<Bindings>,
        limit: usize,
    ) -> Result<bool, RunError> {
        let di = idx - self.opt.patterns.len();
        match cc.clause.quant {
            Quant::Any => {
                let solutions = self.solve_clause(cc, &env)?;
                if solutions.is_empty() {
                    self.dep_rejects[di] += 1;
                    self.note_miss(Gate::DepUnsatisfied, idx, env);
                    return Ok(false);
                }
                for sol in solutions {
                    if self.rec(idx + 1, sol, out, limit)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Quant::No => {
                let mut solutions = self.solve_clause(cc, &env)?;
                if solutions.is_empty() {
                    self.rec(idx + 1, env, out, limit)
                } else {
                    self.dep_rejects[di] += 1;
                    self.note_miss(Gate::DepForbidden, idx, solutions.swap_remove(0));
                    Ok(false)
                }
            }
            Quant::All => {
                let solutions = self.solve_clause(cc, &env)?;
                let mut env2 = env;
                for (v, pv) in cc.clause.vars.iter().zip(&cc.clause.pos_vars) {
                    let mut collected: Vec<(StmtId, Option<OperandPos>)> = Vec::new();
                    for sol in &solutions {
                        let stmt = sol.get(v).and_then(RtVal::as_stmt);
                        let pos = pv
                            .as_ref()
                            .and_then(|p| sol.get(p))
                            .and_then(RtVal::as_pos);
                        if let Some(s) = stmt {
                            if !collected.iter().any(|(cs, cp)| *cs == s && *cp == pos) {
                                collected.push((s, pos));
                            }
                        }
                    }
                    env2.set(v, RtVal::Set(collected));
                }
                self.rec(idx + 1, env2, out, limit)
            }
        }
    }

    /// Solves one dependence clause: returns every extension of `env`
    /// binding the clause's variables (and position variables) that makes
    /// the membership constraints and conditions true.
    fn solve_clause(
        &mut self,
        cc: &CompiledClause,
        env: &Bindings,
    ) -> Result<Vec<Bindings>, RunError> {
        let strategy = self.pick_strategy(cc, env);
        self.strategies_used.push(strategy);
        match strategy {
            Strategy::MembersFirst => self.solve_members_first(cc, env),
            Strategy::DepsFirst => self.solve_deps_first(cc, env),
            Strategy::Heuristic => unreachable!("pick_strategy resolves Heuristic"),
        }
    }

    fn pick_strategy(&self, cc: &CompiledClause, env: &Bindings) -> Strategy {
        let forced = self.opt.strategy;
        match forced {
            Strategy::MembersFirst => Strategy::MembersFirst,
            Strategy::DepsFirst if cc.deps_first_ok => Strategy::DepsFirst,
            Strategy::DepsFirst => Strategy::MembersFirst,
            Strategy::Heuristic => {
                if !cc.deps_first_ok {
                    return Strategy::MembersFirst;
                }
                let members_cost = self.estimate_members(cc, env);
                let deps_cost = self.estimate_deps(cc, env);
                if deps_cost <= members_cost {
                    Strategy::DepsFirst
                } else {
                    Strategy::MembersFirst
                }
            }
        }
    }

    /// Cost estimate for members-then-deps: the product of candidate-set
    /// sizes (the number of tuples enumerated).
    fn estimate_members(&self, cc: &CompiledClause, env: &Bindings) -> usize {
        let mut product = 1usize;
        for v in &cc.clause.vars {
            let size = self
                .member_generator(cc, v, env)
                .map_or_else(|| self.prog.len(), |els| els.len());
            product = product.saturating_mul(size.max(1));
        }
        product
    }

    /// Cost estimate for deps-then-membership: the number of edges the
    /// first binding atom would enumerate.
    fn estimate_deps(&self, cc: &CompiledClause, env: &Bindings) -> usize {
        for atom in conjuncts(&cc.clause.cond) {
            if let BoolExpr::Dep { from, to, .. } = atom {
                let from_bound = self.side_stmt(from, env);
                let to_bound = self.side_stmt(to, env);
                return match (from_bound, to_bound) {
                    (Some(s), _) => self.deps.from(s).count(),
                    (_, Some(s)) => self.deps.to(s).count(),
                    _ => self.deps.len(),
                };
            }
        }
        usize::MAX
    }

    fn side_stmt(&self, side: &ValExpr, env: &Bindings) -> Option<StmtId> {
        match side {
            ValExpr::Name(n) => env.get(n).and_then(RtVal::as_stmt),
            ValExpr::Ref(_) => eval_val(self.prog, self.loops(), env, side)
                .ok()
                .and_then(|v| v.as_stmt()),
            _ => None,
        }
    }

    /// The candidate set for `var` from a positive `mem(var, set)`
    /// constraint, if one exists.
    fn member_generator(
        &self,
        cc: &CompiledClause,
        var: &str,
        env: &Bindings,
    ) -> Option<Vec<StmtId>> {
        for m in &cc.clause.members {
            if m.negated {
                continue;
            }
            if let ValExpr::Name(n) = &m.elem {
                if n == var {
                    return self.set_elements(&m.set, env).ok();
                }
            }
        }
        None
    }

    fn set_elements(&self, set: &SetExpr, env: &Bindings) -> Result<Vec<StmtId>, RunError> {
        match set {
            SetExpr::Named(n) => match env.get(n) {
                Some(RtVal::Loop(l)) => Ok(self.loops().body(self.prog, *l).collect()),
                Some(RtVal::Set(items)) => Ok(items.iter().map(|(s, _)| *s).collect()),
                other => Err(RunError::Action(format!(
                    "`{n}` is not a set (bound to {other:?})"
                ))),
            },
            SetExpr::Path(a, b) => {
                let sa = eval_val(self.prog, self.loops(), env, a)?
                    .as_stmt()
                    .ok_or_else(|| RunError::Action("path(): not a statement".into()))?;
                let sb = eval_val(self.prog, self.loops(), env, b)?
                    .as_stmt()
                    .ok_or_else(|| RunError::Action("path(): not a statement".into()))?;
                let mut out = vec![sa];
                out.extend(self.prog.iter_between(sa, sb));
                if sa != sb {
                    out.push(sb);
                }
                // A loop around `sb` but not `sa` is re-entered over its
                // back edge, so its whole body lies on some path from `sa`
                // to `sb` — including the statements lexically after `sb`.
                let loops = self.loops();
                if let Some(l) = loops
                    .nest_of(sb)
                    .into_iter()
                    .find(|&l| !loops.contains(l, sa))
                {
                    let info = loops.get(l);
                    if !out.contains(&info.head) {
                        // `sa` lies after the loop: the lexical range
                        // never entered the body before `sb`.
                        out.extend(self.prog.iter_between(info.head, sb));
                    }
                    out.extend(self.prog.iter_between(sb, info.end));
                }
                Ok(out)
            }
            SetExpr::Union(a, b) => {
                let mut out = self.set_elements(a, env)?;
                for s in self.set_elements(b, env)? {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
                Ok(out)
            }
            SetExpr::Inter(a, b) => {
                let right = self.set_elements(b, env)?;
                Ok(self
                    .set_elements(a, env)?
                    .into_iter()
                    .filter(|s| right.contains(s))
                    .collect())
            }
        }
    }

    // ---- strategy (1): members first --------------------------------------

    fn solve_members_first(
        &mut self,
        cc: &CompiledClause,
        env: &Bindings,
    ) -> Result<Vec<Bindings>, RunError> {
        // Candidate list per clause variable.
        let mut lists: Vec<(String, Vec<RtVal>)> = Vec::new();
        for v in &cc.clause.vars {
            let class = self.opt.info.classes.get(v).copied();
            let cands: Vec<RtVal> = if let Some(set) = self.member_generator(cc, v, env) {
                set.into_iter().map(RtVal::Stmt).collect()
            } else if class == Some(VarClass::Loop) {
                self.loops().iter().map(|l| RtVal::Loop(l.id)).collect()
            } else {
                self.prog.iter().map(RtVal::Stmt).collect()
            };
            lists.push((v.clone(), cands));
        }

        let mut results = Vec::new();
        let mut stack = vec![env.clone()];
        for (v, cands) in &lists {
            let mut next = Vec::new();
            for e in &stack {
                for c in cands {
                    next.push(e.with(v, c.clone()));
                }
            }
            stack = next;
        }
        for e in stack {
            // Residual membership checks (negated or non-generator ones).
            if !self.members_hold(cc, &e)? {
                continue;
            }
            let mut envs = self.eval_bool_envs(&cc.clause.cond, e, cc)?;
            results.append(&mut envs);
        }
        dedup_envs(&mut results);
        Ok(results)
    }

    fn members_hold(&mut self, cc: &CompiledClause, env: &Bindings) -> Result<bool, RunError> {
        for m in &cc.clause.members {
            self.cost.dep_checks += 1;
            let elem = eval_val(self.prog, self.loops(), env, &m.elem)?
                .as_stmt()
                .ok_or_else(|| RunError::Action("mem(): element is not a statement".into()))?;
            let members = self.set_elements(&m.set, env)?;
            let inside = members.contains(&elem);
            if inside == m.negated {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ---- strategy (2): dependences first -----------------------------------

    fn solve_deps_first(
        &mut self,
        cc: &CompiledClause,
        env: &Bindings,
    ) -> Result<Vec<Bindings>, RunError> {
        let mut envs = self.eval_bool_envs(&cc.clause.cond, env.clone(), cc)?;
        // Filter by membership afterwards.
        let mut out = Vec::new();
        for e in envs.drain(..) {
            if self.members_hold(cc, &e)? {
                out.push(e);
            }
        }
        dedup_envs(&mut out);
        Ok(out)
    }

    // ---- relational condition evaluation ------------------------------------

    /// Evaluates a condition, returning every extension of `env` that makes
    /// it true. Dependence atoms may bind the clause's still-unbound
    /// variables (edge-driven generation) and position variables.
    fn eval_bool_envs(
        &mut self,
        b: &BoolExpr,
        env: Bindings,
        cc: &CompiledClause,
    ) -> Result<Vec<Bindings>, RunError> {
        match b {
            BoolExpr::And(l, r) => {
                let left = self.eval_bool_envs(l, env, cc)?;
                let mut out = Vec::new();
                for e in left {
                    out.extend(self.eval_bool_envs(r, e, cc)?);
                }
                Ok(out)
            }
            BoolExpr::Or(l, r) => {
                let mut out = self.eval_bool_envs(l, env.clone(), cc)?;
                out.extend(self.eval_bool_envs(r, env, cc)?);
                dedup_envs(&mut out);
                Ok(out)
            }
            BoolExpr::Not(inner) => {
                let inner_envs = self.eval_bool_envs(inner, env.clone(), cc)?;
                if inner_envs.is_empty() {
                    Ok(vec![env])
                } else {
                    Ok(Vec::new())
                }
            }
            BoolExpr::Cmp(l, op, r) => {
                self.cost.dep_checks += 1;
                let lv = eval_val(self.prog, self.loops(), &env, l)?;
                let rv = eval_val(self.prog, self.loops(), &env, r)?;
                if compare(&lv, *op, &rv)? {
                    Ok(vec![env])
                } else {
                    Ok(Vec::new())
                }
            }
            BoolExpr::TypeIs(v, cls, positive) => {
                self.cost.dep_checks += 1;
                let val = eval_val(self.prog, self.loops(), &env, v)?;
                let o = val
                    .as_operand()
                    .ok_or_else(|| RunError::Action("type(): not an operand".into()))?;
                if class_matches(&o, *cls) == *positive {
                    Ok(vec![env])
                } else {
                    Ok(Vec::new())
                }
            }
            BoolExpr::Dep {
                kind,
                from,
                to,
                dirs,
            } => self.eval_dep_atom(*kind, from, to, dirs.as_deref(), env, cc),
        }
    }

    fn eval_dep_atom(
        &mut self,
        kind: DepKind,
        from: &ValExpr,
        to: &ValExpr,
        dirs: Option<&[DirElem]>,
        env: Bindings,
        cc: &CompiledClause,
    ) -> Result<Vec<Bindings>, RunError> {
        let pattern = match dirs {
            Some(d) => DirPattern::new(d.to_vec()),
            None => DirPattern::any(),
        };
        // position variable associated with each clause variable
        let posmap: HashMap<&str, &str> = cc
            .clause
            .vars
            .iter()
            .zip(&cc.clause.pos_vars)
            .filter_map(|(v, p)| p.as_ref().map(|p| (v.as_str(), p.as_str())))
            .collect();

        let from_state = self.side_state(from, &env, cc)?;
        let to_state = self.side_state(to, &env, cc)?;

        // The cost of this atom is the number of candidate edges scanned —
        // this is what makes the two §4 strategies measurably different.
        let scanned: usize;
        let edges: Vec<&DepEdge> = match (&from_state, &to_state) {
            (Side::Bound(f), Side::Bound(t)) => {
                scanned = self.deps.from(*f).count();
                self.deps
                    .from(*f)
                    .filter(|e| e.dst == *t && e.kind == kind && pattern.matches(&e.dirvec))
                    .collect()
            }
            (Side::Bound(f), Side::Unbound(_)) => {
                scanned = self.deps.from(*f).count();
                self.deps
                    .from(*f)
                    .filter(|e| e.kind == kind && pattern.matches(&e.dirvec))
                    .collect()
            }
            (Side::Unbound(_), Side::Bound(t)) => {
                scanned = self.deps.to(*t).count();
                self.deps
                    .to(*t)
                    .filter(|e| e.kind == kind && pattern.matches(&e.dirvec))
                    .collect()
            }
            (Side::Unbound(_), Side::Unbound(_)) => {
                scanned = self.deps.len();
                self.deps
                    .edges()
                    .iter()
                    .filter(|e| e.kind == kind && pattern.matches(&e.dirvec))
                    .collect()
            }
        };
        self.cost.dep_checks += scanned.max(1) as u64;

        let mut out = Vec::new();
        for e in edges {
            let mut env2 = env.clone();
            let mut ok = true;
            if let Side::Unbound(v) = &from_state {
                env2.set(v, RtVal::Stmt(e.src));
            }
            if let Side::Unbound(v) = &to_state {
                env2.set(v, RtVal::Stmt(e.dst));
            }
            // Bind the position variables of any clause variable that is an
            // endpoint of this atom. The position reported is the paper's
            // "position of the dependence within the statement": the
            // operand position at the dependence's *sink*.
            for side in [from, to] {
                if let ValExpr::Name(v) = side {
                    if let Some(pv) = posmap.get(v.as_str()) {
                        let posval = RtVal::Pos(e.dst_pos);
                        match env2.get(pv) {
                            None => env2.set(pv, posval),
                            Some(existing) => {
                                if *existing != posval {
                                    ok = false;
                                }
                            }
                        }
                    }
                }
            }
            if ok {
                out.push(env2);
            }
        }
        dedup_envs(&mut out);
        Ok(out)
    }

    fn side_state(
        &self,
        side: &ValExpr,
        env: &Bindings,
        cc: &CompiledClause,
    ) -> Result<Side, RunError> {
        if let ValExpr::Name(n) = side {
            if !env.is_bound(n) {
                if cc.clause.vars.iter().any(|v| v == n) {
                    return Ok(Side::Unbound(n.clone()));
                }
                return Err(RunError::Action(format!(
                    "dependence endpoint `{n}` is unbound and not a clause variable"
                )));
            }
        }
        let stmt = eval_val(self.prog, self.loops(), env, side)?
            .as_stmt()
            .ok_or_else(|| {
                RunError::Action("dependence endpoints must be statements".into())
            })?;
        Ok(Side::Bound(stmt))
    }
}

enum Side {
    Bound(StmtId),
    Unbound(String),
}

fn dedup_envs(envs: &mut Vec<Bindings>) {
    let mut seen: Vec<Bindings> = Vec::new();
    envs.retain(|e| {
        if seen.contains(e) {
            false
        } else {
            seen.push(e.clone());
            true
        }
    });
}

/// A condition's top-level conjuncts, in source order.
pub(crate) fn conjuncts(b: &BoolExpr) -> Vec<&BoolExpr> {
    fn walk<'b>(b: &'b BoolExpr, out: &mut Vec<&'b BoolExpr>) {
        match b {
            BoolExpr::And(l, r) => {
                walk(l, out);
                walk(r, out);
            }
            other => out.push(other),
        }
    }
    let mut out = Vec::new();
    walk(b, &mut out);
    out
}

/// Pattern-format evaluation (no dependence atoms; short-circuit with
/// per-atom counting, which the §4 "specification variants" experiment
/// relies on).
pub(crate) fn eval_format(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    b: &BoolExpr,
    checks: &mut u64,
) -> Result<bool, RunError> {
    match b {
        BoolExpr::And(l, r) => {
            Ok(eval_format(prog, loops, env, l, checks)?
                && eval_format(prog, loops, env, r, checks)?)
        }
        BoolExpr::Or(l, r) => {
            Ok(eval_format(prog, loops, env, l, checks)?
                || eval_format(prog, loops, env, r, checks)?)
        }
        BoolExpr::Not(i) => Ok(!eval_format(prog, loops, env, i, checks)?),
        BoolExpr::Cmp(l, op, r) => {
            *checks += 1;
            // Navigation off the program edge (e.g. `.nxt` of the last
            // statement) makes the comparison false rather than an error.
            let lv = match eval_val(prog, loops, env, l) {
                Ok(v) => v,
                Err(_) => return Ok(false),
            };
            let rv = match eval_val(prog, loops, env, r) {
                Ok(v) => v,
                Err(_) => return Ok(false),
            };
            compare(&lv, *op, &rv)
        }
        BoolExpr::TypeIs(v, cls, positive) => {
            *checks += 1;
            let val = match eval_val(prog, loops, env, v) {
                Ok(v) => v,
                Err(_) => return Ok(false),
            };
            let o = val
                .as_operand()
                .ok_or_else(|| RunError::Action("type(): not an operand".into()))?;
            Ok(class_matches(&o, *cls) == *positive)
        }
        BoolExpr::Dep { .. } => Err(RunError::Action(
            "dependence test in Code_Pattern (rejected at validation)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;
    use gospel_frontend::compile as minifor;
    use gospel_lang::ast::ElemRef;
    use gospel_lang::parse_validated;

    fn world(src: &str) -> (Program, DepGraph) {
        let p = minifor(src).unwrap();
        let d = DepGraph::analyze(&p).unwrap();
        (p, d)
    }

    fn opt_of(spec: &str) -> CompiledOptimizer {
        let (s, i) = parse_validated(spec).unwrap();
        generate(s, i).unwrap()
    }

    const LOOPY: &str =
        "program p\ninteger i, n, x\nreal a(10)\nn = 10\ndo i = 1, n\na(i) = 0.0\nend do\nx = n\nend";

    #[test]
    fn attribute_navigation_on_statements_and_loops() {
        let (p, d) = world(LOOPY);
        let loops = d.loops();
        let first = p.first().unwrap();
        let mut env = Bindings::new();
        env.set("S", RtVal::Stmt(first));
        env.set("L", RtVal::Loop(loops.iter().next().unwrap().id));

        let r = |base: &str, path: Vec<Attr>| {
            eval_val(
                &p,
                loops,
                &env,
                &ValExpr::Ref(ElemRef {
                    base: base.into(),
                    path,
                }),
            )
        };
        // S.nxt is the do header; S.opc is assign; S.opr_2 the constant.
        assert!(matches!(r("S", vec![Attr::Nxt]).unwrap(), RtVal::Stmt(_)));
        assert_eq!(
            r("S", vec![Attr::Opc]).unwrap(),
            RtVal::Opc(gospel_ir::Opcode::Assign)
        );
        assert_eq!(
            r("S", vec![Attr::Opr(2)]).unwrap(),
            RtVal::Operand(Operand::int(10))
        );
        // L.head.nxt is the body statement; L.lcv / L.init / L.final read live.
        assert!(matches!(
            r("L", vec![Attr::Head, Attr::Nxt]).unwrap(),
            RtVal::Stmt(_)
        ));
        assert!(matches!(
            r("L", vec![Attr::Lcv]).unwrap(),
            RtVal::Operand(Operand::Var(_))
        ));
        assert_eq!(
            r("L", vec![Attr::Init]).unwrap(),
            RtVal::Operand(Operand::int(1))
        );
        // navigating off the program is an error
        assert!(r("S", vec![Attr::Prev]).is_err());
    }

    #[test]
    fn eval_place_forms() {
        let (p, d) = world(LOOPY);
        let loops = d.loops();
        let first = p.first().unwrap();
        let head = loops.iter().next().unwrap().head;
        let mut env = Bindings::new();
        env.set("S", RtVal::Stmt(first));
        env.set("L", RtVal::Loop(loops.iter().next().unwrap().id));
        env.set("p", RtVal::Pos(OperandPos::A));

        // S.opr_2
        let place = eval_place(
            &p,
            loops,
            &env,
            &ValExpr::Ref(ElemRef {
                base: "S".into(),
                path: vec![Attr::Opr(2)],
            }),
        )
        .unwrap();
        assert_eq!(place, (first, OperandPos::A));
        // operand(S, p)
        let place2 = eval_place(
            &p,
            loops,
            &env,
            &ValExpr::OperandFn(
                Box::new(ValExpr::Name("S".into())),
                Box::new(ValExpr::Name("p".into())),
            ),
        )
        .unwrap();
        assert_eq!(place2, (first, OperandPos::A));
        // L.final is the head's third slot
        let place3 = eval_place(
            &p,
            loops,
            &env,
            &ValExpr::Ref(ElemRef {
                base: "L".into(),
                path: vec![Attr::Final],
            }),
        )
        .unwrap();
        assert_eq!(place3, (head, OperandPos::B));
        // a bare statement is not a place
        assert!(eval_place(&p, loops, &env, &ValExpr::Name("S".into())).is_err());
    }

    #[test]
    fn compare_semantics() {
        use CmpOp::*;
        let t = |a: &RtVal, op, b: &RtVal| compare(a, op, b).unwrap();
        // numerics compare across Int/Real/Const operands
        assert!(t(&RtVal::Int(3), Eq, &RtVal::Operand(Operand::int(3))));
        assert!(t(&RtVal::Real(2.5), Gt, &RtVal::Int(2)));
        // positions coerce against ints
        assert!(t(&RtVal::Pos(OperandPos::B), Eq, &RtVal::Int(3)));
        // opcode vs name, case-insensitive
        assert!(t(
            &RtVal::Opc(gospel_ir::Opcode::Assign),
            Eq,
            &RtVal::Name("ASSIGN".into())
        ));
        // mismatched kinds are unequal, not an error (for ==/!=)
        assert!(t(&RtVal::Int(1), Ne, &RtVal::Name("assign".into())));
        // …but ordering them is an error
        assert!(compare(
            &RtVal::Name("x".into()),
            Lt,
            &RtVal::Name("y".into())
        )
        .is_err());
    }

    #[test]
    fn format_counting_short_circuits() {
        let (p, d) = world(LOOPY);
        let loops = d.loops();
        let first = p.first().unwrap(); // n := 10
        let mut env = Bindings::new();
        env.set("S", RtVal::Stmt(first));
        let cond = |txt: &str| -> BoolExpr {
            // reuse the spec parser to build conditions succinctly
            let spec = format!(
                "OPTIMIZATION T TYPE Stmt: S; PRECOND Code_Pattern any S: {txt}; ACTION delete(S); END"
            );
            let (ast, _) = parse_validated(&spec).unwrap();
            ast.patterns[0].format.clone().unwrap()
        };
        // first conjunct false => one check only
        let mut checks = 0;
        let ok = eval_format(
            &p,
            loops,
            &env,
            &cond("S.opc == add AND type(S.opr_2) == const"),
            &mut checks,
        )
        .unwrap();
        assert!(!ok);
        assert_eq!(checks, 1);
        // first true => both evaluated
        checks = 0;
        let ok = eval_format(
            &p,
            loops,
            &env,
            &cond("S.opc == assign AND type(S.opr_2) == const"),
            &mut checks,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(checks, 2);
    }

    #[test]
    fn strategies_agree_on_solutions() {
        // Whatever the strategy, the set of application points must match.
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Si, Sm; Loop: L;
PRECOND
  Code_Pattern
    any L;
  Depend
    any Si, Sm: mem(Si, L), flow_dep(Si, Sm) OR anti_dep(Si, Sm);
ACTION
  delete(Si);
END
"#;
        // note: this clause is deps_first-incompatible (OR) — exercise the
        // fallback too.
        let base = opt_of(spec);
        let src = "program p\ninteger i, x\nreal a(10)\ndo i = 1, 5\nx = i\na(i) = x\nend do\nwrite a(1)\nend";
        let (p, d) = world(src);
        let mut results = Vec::new();
        for strat in [Strategy::MembersFirst, Strategy::DepsFirst, Strategy::Heuristic] {
            let opt = base.with_strategy(strat);
            let mut s = Searcher::new(&p, &d, &opt);
            let found = s.find_all(usize::MAX).unwrap();
            results.push(found);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn deps_first_binds_from_edges_members_first_from_sets() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Sm, Sn; Loop: L;
PRECOND
  Code_Pattern
    any L;
  Depend
    any Sm, Sn: mem(Sm, L) AND mem(Sn, L), flow_dep(Sm, Sn);
ACTION
  modify(Sm.opr_1, 1);
END
"#;
        let base = opt_of(spec);
        let src = "program p\ninteger i, x, y\ndo i = 1, 5\nx = i\ny = x\nend do\nwrite y\nend";
        let (p, d) = world(src);
        for strat in [Strategy::MembersFirst, Strategy::DepsFirst] {
            let opt = base.with_strategy(strat);
            let mut s = Searcher::new(&p, &d, &opt);
            let found = s.find_first().unwrap();
            assert!(found.is_some(), "{strat:?} found nothing");
            assert_eq!(s.strategies_used, vec![strat]);
        }
        // …and their costs differ (the E6 effect, in miniature)
        let cost_of = |strat| {
            let opt = base.with_strategy(strat);
            let mut s = Searcher::new(&p, &d, &opt);
            s.find_all(usize::MAX).unwrap();
            s.cost.dep_checks
        };
        assert_ne!(
            cost_of(Strategy::MembersFirst),
            cost_of(Strategy::DepsFirst)
        );
    }

    #[test]
    fn no_clause_with_empty_binding_is_a_pure_check() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Sa, Sb;
PRECOND
  Code_Pattern
    any Sa: Sa.opc == assign;
    any Sb: Sb.opc == assign;
  Depend
    no: flow_dep(Sa, Sb);
ACTION
  delete(Sb);
END
"#;
        let opt = opt_of(spec);
        // x = 1; y = x: the pair (Sa=x, Sb=y-stmt) is rejected; the search
        // backtracks to independent pairs.
        let (p, d) = world("program p\ninteger x, y\nx = 1\ny = x\nwrite y\nend");
        let mut s = Searcher::new(&p, &d, &opt);
        let found = s.find_first().unwrap().expect("some pair is independent");
        let sa = found.get("Sa").unwrap().as_stmt().unwrap();
        let sb = found.get("Sb").unwrap().as_stmt().unwrap();
        assert!(!d.exists(
            DepKind::Flow,
            sa,
            sb,
            &DirPattern::any()
        ));
    }

    #[test]
    fn resume_skips_anchors_before_the_frontier() {
        // One first-clause Stmt pattern: every live statement is an anchor
        // candidate, and each candidate visit bumps `anchor_visits`.
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: S;
PRECOND
  Code_Pattern
    any S: S.opc == assign;
ACTION
  delete(S);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world("program p\ninteger a, b, c, e\na = 1\nb = 2\nc = 3\ne = 4\nend");
        let n = p.iter().count() as u64;

        let mut s = Searcher::new(&p, &d, &opt);
        s.find_all(usize::MAX).unwrap();
        assert_eq!(s.cost.anchor_visits, n, "baseline visits every statement");

        // Resuming from the statement at program order k must visit exactly
        // the anchors at or after k — none before the frontier.
        let frontier = p.iter().nth(2).unwrap();
        assert_eq!(d.order_of(frontier), Some(2));
        let mut s = Searcher::new(&p, &d, &opt);
        s.resume_from = Some(frontier);
        let found = s.find_all(usize::MAX).unwrap();
        assert_eq!(s.cost.anchor_visits, n - 2);
        assert!(found
            .iter()
            .all(|b| d.order_of(b.get("S").unwrap().as_stmt().unwrap()) >= Some(2)));

        // The complement pass (`stop_before`) covers exactly the skipped
        // prefix, so the two searches partition the anchor space.
        let mut s = Searcher::new(&p, &d, &opt);
        s.stop_before = Some(frontier);
        s.find_all(usize::MAX).unwrap();
        assert_eq!(s.cost.anchor_visits, 2);
    }

    #[test]
    fn path_sets_are_inclusive_and_ordered() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Sa, Sb, Sm;
PRECOND
  Code_Pattern
    any Sa: Sa.opc == assign;
    any Sb: Sb.opc == write;
  Depend
    all Sm: mem(Sm, path(Sa, Sb)), Sm.opc == assign;
ACTION
  delete(Sa);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world("program p\ninteger x, y\nx = 1\ny = 2\nwrite y\nend");
        let mut s = Searcher::new(&p, &d, &opt);
        let found = s.find_first().unwrap().unwrap();
        match found.get("Sm") {
            Some(RtVal::Set(items)) => {
                // both assignments are on the path from the first assign to
                // the write
                assert_eq!(items.len(), 2, "{items:?}");
            }
            other => panic!("expected a set, got {other:?}"),
        }
    }

    #[test]
    fn find_first_short_circuits_anchor_visits() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: S;
PRECOND
  Code_Pattern
    any S: S.opc == assign;
ACTION
  delete(S);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world("program p\ninteger a, b, c, e\na = 1\nb = 2\nc = 3\ne = 4\nend");
        let n = p.iter().count() as u64;
        assert!(n >= 4);

        let mut s = Searcher::new(&p, &d, &opt);
        s.find_all(usize::MAX).unwrap();
        assert_eq!(s.cost.anchor_visits, n, "find_all visits every anchor");

        // The very first statement matches, so `find_first` must stop
        // there: one anchor visit, not a collect-then-discard pass.
        let mut s = Searcher::new(&p, &d, &opt);
        let found = s.find_first().unwrap();
        assert!(found.is_some());
        assert_eq!(s.cost.anchor_visits, 1);
    }

    #[test]
    fn fused_candidates_agree_with_scan_and_prune() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: S;
PRECOND
  Code_Pattern
    any S: S.opc == assign;
ACTION
  delete(S);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world(LOOPY);
        let auto = crate::automaton::FusedAutomaton::build(std::slice::from_ref(&opt), &p);

        let stmts_of = |found: &[Bindings]| -> Vec<StmtId> {
            found
                .iter()
                .map(|b| b.get("S").unwrap().as_stmt().unwrap())
                .collect()
        };

        let mut scan = Searcher::new(&p, &d, &opt);
        let scan_found = scan.find_all(usize::MAX).unwrap();
        assert_eq!(scan.candidates_pruned, 0);

        let mut fast = Searcher::new(&p, &d, &opt);
        fast.fused = Some((&auto, 0));
        let fast_found = fast.find_all(usize::MAX).unwrap();

        // Identical bindings in identical order; the posting merely
        // skipped the statements that could never carry the pinned opcode.
        assert_eq!(stmts_of(&scan_found), stmts_of(&fast_found));
        let assigns = p.iter().filter(|&s| p.quad(s).op == gospel_ir::Opcode::Assign).count() as u64;
        assert_eq!(fast.cost.anchor_visits, assigns);
        assert_eq!(fast.candidates_pruned, p.len() as u64 - assigns);
        assert!(fast.candidates_pruned > 0);
        assert_eq!(
            (scan.funnel_admitted, scan.funnel_matched),
            (fast.funnel_admitted, fast.funnel_matched),
            "funnel totals are matcher-independent"
        );
    }

    #[test]
    fn path_includes_the_loop_body_past_the_target() {
        // `b = 66` follows `c = a + 1` lexically but reaches it again over
        // the back edge, so it is on the path from `a = b` to `c = a + 1`.
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Sa, Sb, Sm;
PRECOND
  Code_Pattern
    any Sa: Sa.opc == assign AND type(Sa.opr_2) == var;
    any Sb: Sb.opc == add;
  Depend
    all Sm: mem(Sm, path(Sa, Sb)), Sm.opc == assign;
ACTION
  delete(Sa);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world(
            "program p\ninteger a, b, c, i\na = b\ndo i = 1, 22\nc = a + 1\nb = 66\nend do\nwrite c\nend",
        );
        let mut s = Searcher::new(&p, &d, &opt);
        let found = s.find_first().unwrap().unwrap();
        let redef = p
            .iter()
            .find(|&s| p.quad(s).a == gospel_ir::Operand::int(66))
            .unwrap();
        match found.get("Sm") {
            Some(RtVal::Set(items)) => {
                assert!(items.iter().any(|(s, _)| *s == redef), "{items:?}");
            }
            other => panic!("expected a set, got {other:?}"),
        }
    }
}
