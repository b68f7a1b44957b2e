//! Hand-coded scalar optimizations: CTP, CPP, CFO, DCE.

use super::{fixpoint, HandError};
use gospel_dep::{DepGraph, DepKind, DirPattern};
use gospel_ir::{FoldOp, Opcode, Operand, Program, Quad, StmtId, Value};

fn eq_pattern() -> DirPattern {
    DirPattern::loop_independent()
}

/// Constant propagation (the hand-coded twin of the CTP specification).
/// Returns the number of uses rewritten.
///
/// # Errors
///
/// Fails only if the program is structurally invalid.
pub fn ctp(prog: &mut Program) -> Result<usize, HandError> {
    fixpoint(prog, |prog, deps| Ok(ctp_step(prog, deps)))
}

fn ctp_step(prog: &mut Program, deps: &DepGraph) -> bool {
    let eq = eq_pattern();
    for si in prog.iter().collect::<Vec<_>>() {
        let q = prog.quad(si);
        if q.op != Opcode::Assign || !q.a.is_const() {
            continue;
        }
        let konst = q.a.clone();
        let target = q.dst.clone();
        for e in deps.from(si) {
            if e.kind != DepKind::Flow || !eq.matches(&e.dirvec) {
                continue;
            }
            // Figure 6's repl(): only replace an operand that IS the
            // defined reference (not an element operand merely using it
            // in a subscript).
            if prog.quad(e.dst).operand(e.dst_pos) != &target {
                continue;
            }
            if other_def_reaches_same_operand(prog, deps, si, e.dst, e.dst_pos) {
                continue;
            }
            prog.modify(e.dst, e.dst_pos, konst);
            return true;
        }
    }
    false
}

/// The CTP/CPP "no other definition reaching the same operand" test —
/// the paper's `dep_opr` comparison from Figure 6. Any direction counts:
/// a definition reaching around a loop back edge blocks propagation just
/// as surely as a same-iteration one (differential testing caught a
/// miscompile under the `(=)`-restricted reading; see EXPERIMENTS.md).
fn other_def_reaches_same_operand(
    prog: &Program,
    deps: &DepGraph,
    si: StmtId,
    sj: StmtId,
    pos: gospel_ir::OperandPos,
) -> bool {
    let target = prog.quad(sj).operand(pos);
    deps.to(sj).any(|e2| {
        e2.kind == DepKind::Flow
            && e2.src != si
            && prog.quad(sj).operand(e2.dst_pos) == target
    })
}

/// Copy propagation (hand-coded twin of CPP).
///
/// # Errors
///
/// Fails only if the program is structurally invalid.
pub fn cpp(prog: &mut Program) -> Result<usize, HandError> {
    fixpoint(prog, |prog, deps| Ok(cpp_step(prog, deps)))
}

fn cpp_step(prog: &mut Program, deps: &DepGraph) -> bool {
    let eq = eq_pattern();
    let order = prog.order_index();
    for si in prog.iter().collect::<Vec<_>>() {
        let q = prog.quad(si);
        if q.op != Opcode::Assign || q.a.as_var().is_none() || q.a == q.dst {
            continue;
        }
        let copied = q.a.clone();
        let target = q.dst.clone();
        for e in deps.from(si) {
            if e.kind != DepKind::Flow || !eq.matches(&e.dirvec) {
                continue;
            }
            let sj = e.dst;
            if prog.quad(sj).operand(e.dst_pos) != &target {
                continue;
            }
            if other_def_reaches_same_operand(prog, deps, si, sj, e.dst_pos) {
                continue;
            }
            // The copied variable must not be redefined on a path from Si
            // to Sj (the spec's mem(Sm, path(Si, Sj)) ∧ anti test): the
            // textual range, plus the body of the outermost loop around
            // Sj but not Si, which reaches Sj again over its back edge.
            // Sj itself reads before it writes, so it does not count as an
            // intervening redefinition.
            let loops = deps.loops();
            let back_edge_loop = loops
                .nest_of(sj)
                .into_iter()
                .find(|&l| !loops.contains(l, si));
            let in_path = |s: StmtId| {
                s != sj
                    && ((order[&si] <= order[&s] && order[&s] <= order[&sj])
                        || back_edge_loop.is_some_and(|l| loops.contains(l, s)))
            };
            let redefined = deps.from(si).any(|e2| {
                e2.kind == DepKind::Anti && eq.matches(&e2.dirvec) && in_path(e2.dst)
            });
            if redefined {
                continue;
            }
            prog.modify(sj, e.dst_pos, copied);
            return true;
        }
    }
    false
}

/// Constant folding (hand-coded twin of CFO).
///
/// # Errors
///
/// Fails if a fold overflows (paralleling the generated optimizer, whose
/// `eval` action would fail).
pub fn cfo(prog: &mut Program) -> Result<usize, HandError> {
    fixpoint(prog, cfo_step)
}

fn cfo_step(prog: &mut Program, _deps: &DepGraph) -> Result<bool, HandError> {
    for si in prog.iter().collect::<Vec<_>>() {
        let q = prog.quad(si);
        let op = match q.op {
            Opcode::Add => FoldOp::Add,
            Opcode::Sub => FoldOp::Sub,
            Opcode::Mul => FoldOp::Mul,
            Opcode::Div => FoldOp::Div,
            Opcode::Mod => FoldOp::Mod,
            _ => continue,
        };
        let (Some(ca), Some(cb)) = (q.a.as_const(), q.b.as_const()) else {
            continue;
        };
        if matches!(op, FoldOp::Div | FoldOp::Mod) && cb == Value::Int(0) {
            continue; // the spec's `Si.opr_3 != 0` guard
        }
        let folded = Value::fold(op, ca, cb)
            .ok_or_else(|| HandError("constant fold failed (overflow?)".into()))?;
        let dst = q.dst.clone();
        prog.insert_after(Some(si), Quad::assign(dst, Operand::Const(folded)));
        prog.delete(si);
        return Ok(true);
    }
    Ok(false)
}

/// Dead code elimination (hand-coded twin of DCE).
///
/// # Errors
///
/// Fails only if the program is structurally invalid.
pub fn dce(prog: &mut Program) -> Result<usize, HandError> {
    fixpoint(prog, |prog, deps| Ok(dce_step(prog, deps)))
}

fn dce_step(prog: &mut Program, deps: &DepGraph) -> bool {
    for si in prog.iter().collect::<Vec<_>>() {
        if !matches!(
            prog.quad(si).op,
            Opcode::Assign
                | Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::Div
                | Opcode::Mod
                | Opcode::Neg
        ) {
            continue;
        }
        if deps.from(si).any(|e| e.kind == DepKind::Flow) {
            continue;
        }
        prog.delete(si);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_frontend::compile;
    use gospel_ir::DisplayProgram;

    #[test]
    fn ctp_and_spec_semantics_agree_on_blocking() {
        let mut p = compile(
            "program p\ninteger x, y, c\nx = 3\nif (c > 0) then\nx = 4\nend if\ny = x\nwrite y\nend",
        )
        .unwrap();
        assert_eq!(ctp(&mut p).unwrap(), 0);
    }

    #[test]
    fn cpp_respects_intervening_redefinition() {
        // x := y ; y := 7 ; z := x  — cannot replace x by y at z.
        let mut p = compile(
            "program p\ninteger x, y, z\ny = 1\nx = y\ny = 7\nz = x\nwrite z\nwrite y\nend",
        )
        .unwrap();
        // CPP of y=1 into x=y is possible, but x=y's copy into z=x is not.
        let n = cpp(&mut p).unwrap();
        let listing = DisplayProgram(&p).to_string();
        assert!(listing.contains("z := x"), "{listing}");
        let _ = n;
    }

    #[test]
    fn cpp_propagates_clean_copy() {
        let mut p = compile(
            "program p\ninteger x, y, z\ny = 1\nx = y\nz = x\nwrite z\nend",
        )
        .unwrap();
        cpp(&mut p).unwrap();
        let listing = DisplayProgram(&p).to_string();
        assert!(listing.contains("z := y"), "{listing}");
    }

    #[test]
    fn cfo_folds_and_replaces() {
        let mut p = compile("program p\ninteger x\nx = 2 + 3\nwrite x\nend").unwrap();
        // frontend lowers 2+3 into an Add quad
        assert_eq!(cfo(&mut p).unwrap(), 1);
        let listing = DisplayProgram(&p).to_string();
        assert!(listing.contains("x := 5"), "{listing}");
    }

    #[test]
    fn cfo_skips_division_by_zero() {
        let mut p = compile("program p\ninteger x\nx = 1 / 0\nwrite x\nend").unwrap();
        assert_eq!(cfo(&mut p).unwrap(), 0);
    }

    #[test]
    fn dce_removes_cascading_dead_code() {
        let mut p = compile(
            "program p\ninteger a, b, c\na = 1\nb = a + 1\nc = 5\nwrite c\nend",
        )
        .unwrap();
        // b is dead; once b goes, a is dead too.
        assert_eq!(dce(&mut p).unwrap(), 2);
        let listing = DisplayProgram(&p).to_string();
        assert!(!listing.contains("b :="), "{listing}");
        assert!(!listing.contains("a := 1"), "{listing}");
        assert!(listing.contains("c := 5"), "{listing}");
    }
}
