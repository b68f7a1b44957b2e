//! # gospel-exec — a reference interpreter for the quad IR
//!
//! Executes [`gospel_ir::Program`]s directly, with FORTRAN-style `do`
//! semantics (bounds evaluated at entry, at most `final - init + 1` trips,
//! control variable left at `final + 1` on natural exit) and `pardo`
//! executed sequentially (the legality conditions of the PAR optimization
//! guarantee that the parallel and sequential orders agree).
//!
//! Its purpose is **differential testing**: run a program before and after
//! an optimization and compare the `write` traces — a semantic check that
//! complements the paper's structural generated-vs-hand comparison.
//!
//! Each run first lowers the live statements to one instruction each:
//! scalars live in slots indexed by `Sym::index()` (with the declared type
//! for store coercion), arrays in dense slots, subscripts become
//! `(constant, [(slot, coeff)])` lists, and `do`/`if`/`else`/`end`
//! targets become precomputed jumps. Only unbalanced region markers are
//! rejected up front; every other defect (unknown intrinsic, loop without
//! a control variable, bad store target, undeclared array, subscript
//! arity) fails when, and only when, its statement executes.
//!
//! ```
//! let prog = gospel_frontend::compile("
//! program p
//!   integer i, s
//!   s = 0
//!   do i = 1, 4
//!     s = s + i
//!   end do
//!   write s
//! end
//! ").unwrap();
//! let trace = gospel_exec::run(&prog, &[]).unwrap();
//! assert_eq!(trace.outputs, vec![gospel_exec::ExecValue::Int(10)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gospel_ir::{
    AffineExpr, Opcode, Operand, Program, StmtId, Sym, Value, VarKind, VarType,
};
use std::fmt;

/// A runtime value: integer or real, with FORTRAN-ish promotion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecValue {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
}

impl ExecValue {
    fn to_f64(self) -> f64 {
        match self {
            ExecValue::Int(i) => i as f64,
            ExecValue::Real(r) => r,
        }
    }

    fn as_int(self) -> i64 {
        match self {
            ExecValue::Int(i) => i,
            ExecValue::Real(r) => r as i64,
        }
    }

    /// Bit-exact equality (the comparison differential tests need: the
    /// optimizations under test must preserve values exactly, not merely
    /// approximately).
    pub fn bit_eq(self, other: ExecValue) -> bool {
        match (self, other) {
            (ExecValue::Int(a), ExecValue::Int(b)) => a == b,
            (ExecValue::Real(a), ExecValue::Real(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl fmt::Display for ExecValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecValue::Int(i) => write!(f, "{i}"),
            ExecValue::Real(r) => write!(f, "{r}"),
        }
    }
}

/// What an execution produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Values written, in order.
    pub outputs: Vec<ExecValue>,
    /// Statements executed (a step count, for the step limit and for
    /// rough performance comparisons).
    pub steps: u64,
}

impl Trace {
    /// Bit-exact comparison of two traces' outputs.
    pub fn same_outputs(&self, other: &Trace) -> bool {
        self.outputs.len() == other.outputs.len()
            && self
                .outputs
                .iter()
                .zip(&other.outputs)
                .all(|(a, b)| a.bit_eq(*b))
    }

    /// The index of the first output where the traces diverge (a value
    /// mismatch, or the point where one trace ends early); `None` when
    /// the outputs agree bit for bit. Differential-testing harnesses use
    /// this to point a diagnostic at the exact divergent `write`.
    pub fn first_mismatch(&self, other: &Trace) -> Option<usize> {
        for (i, (a, b)) in self.outputs.iter().zip(&other.outputs).enumerate() {
            if !a.bit_eq(*b) {
                return Some(i);
            }
        }
        if self.outputs.len() != other.outputs.len() {
            return Some(self.outputs.len().min(other.outputs.len()));
        }
        None
    }
}

/// Execution failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Array subscript outside the declared extents.
    OutOfBounds {
        /// The array.
        array: String,
        /// The offending (1-based) subscript values.
        subs: Vec<i64>,
        /// At which statement.
        at: StmtId,
    },
    /// Integer division or modulus by zero.
    DivideByZero(StmtId),
    /// Unknown intrinsic function.
    UnknownIntrinsic(String, StmtId),
    /// The step budget was exhausted (runaway program).
    StepLimit(u64),
    /// Malformed program (unbalanced markers, missing operand, …).
    Malformed(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { array, subs, at } => {
                write!(f, "subscript {subs:?} out of bounds for `{array}` at {at}")
            }
            ExecError::DivideByZero(at) => write!(f, "division by zero at {at}"),
            ExecError::UnknownIntrinsic(n, at) => write!(f, "unknown intrinsic `{n}` at {at}"),
            ExecError::StepLimit(n) => write!(f, "step limit of {n} exhausted"),
            ExecError::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Runs `prog` with the default step limit (10 million statements),
/// feeding `inputs` to `read` statements (zero once exhausted).
///
/// # Errors
///
/// See [`ExecError`].
pub fn run(prog: &Program, inputs: &[ExecValue]) -> Result<Trace, ExecError> {
    run_limited(prog, inputs, 10_000_000)
}

/// [`run`] with an explicit step limit.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_limited(
    prog: &Program,
    inputs: &[ExecValue],
    step_limit: u64,
) -> Result<Trace, ExecError> {
    let (code, mem) = lower(prog)?;
    execute(&code, mem, inputs, step_limit).map_err(|e| *e)
}

/// An execution failure on the hot path: boxed, so every `Result` the
/// interpreter loop passes around stays small.
type Fault = Box<ExecError>;

/// A value source with its symbol resolved to a slot.
enum Src {
    Const(ExecValue),
    Scalar(usize),
    Elem(Box<Elem>),
    /// An array access that cannot execute; the message is raised when
    /// (and only when) the statement runs.
    Bad(&'static str),
}

/// A store target. Scalar stores carry their declared type.
enum Dst {
    Scalar(usize, Option<VarType>),
    Elem(Box<Elem>),
    Bad(String),
}

/// A well-formed array access: a declared array and one affine subscript
/// per dimension.
struct Elem {
    array: usize,
    sym: Sym,
    subs: Box<[Affine]>,
}

/// `constant + Σ coeff · scalar[slot]`.
struct Affine {
    constant: i64,
    terms: Box<[(usize, i64)]>,
}

enum Intrinsic {
    Sqrt,
    Sin,
    Cos,
    Abs,
    Exp,
    Log,
    Atan,
    Min,
    Max,
}

/// One lowered statement. Jump targets are instruction indices.
enum Op {
    /// `do`/`pardo` head; `exit` is the index after the matching `end do`.
    Do {
        lcv: Option<usize>,
        init: Src,
        fin: Src,
        exit: usize,
    },
    EndDo,
    /// `if`; falls through when taken, else jumps to `skip` (past the
    /// `else`, or onto the `end if`).
    If {
        op: Opcode,
        a: Src,
        b: Src,
        skip: usize,
    },
    /// An `else` reached from the then branch: jump onto the `end if`
    /// (`None`: a stray `else`).
    Else(Option<usize>),
    /// `end if`, `nop`.
    Next,
    Read(Dst),
    Write(Src),
    Assign(Dst, Src),
    Neg(Dst, Src),
    Arith(Opcode, Dst, Src, Src),
    /// An intrinsic call; an unknown name fails when executed.
    Call(Result<Intrinsic, String>, Dst, Src, Src),
}

struct Instr {
    at: StmtId,
    op: Op,
}

struct Array {
    dims: Box<[i64]>,
    int: bool,
    data: Vec<ExecValue>,
}

/// Program state: scalars indexed by `Sym::index()`, declared arrays by
/// a dense number.
struct Memory<'p> {
    prog: &'p Program,
    scalars: Vec<ExecValue>,
    arrays: Vec<Array>,
}

fn zero(ty: VarType) -> ExecValue {
    match ty {
        VarType::Int => ExecValue::Int(0),
        VarType::Real => ExecValue::Real(0.0),
    }
}

/// Lowers the live statements of `prog` to slot-resolved instructions and
/// allocates zeroed memory. Unbalanced region markers are rejected here;
/// every other defect becomes an instruction that fails when executed.
fn lower(prog: &Program) -> Result<(Vec<Instr>, Memory<'_>), ExecError> {
    let stmts: Vec<StmtId> = prog.iter().collect();
    let mut do_stack = Vec::new();
    let mut if_stack = Vec::new();
    let mut do_end = vec![0; stmts.len()];
    let mut if_else = vec![None; stmts.len()];
    let mut if_end = vec![0; stmts.len()];
    for (i, &s) in stmts.iter().enumerate() {
        match prog.quad(s).op {
            Opcode::DoHead | Opcode::ParDo => do_stack.push(i),
            Opcode::EndDo => {
                let h = do_stack
                    .pop()
                    .ok_or_else(|| ExecError::Malformed("unmatched end do".into()))?;
                do_end[h] = i;
            }
            op if op.is_if() => if_stack.push(i),
            Opcode::Else => {
                let h = *if_stack
                    .last()
                    .ok_or_else(|| ExecError::Malformed("else outside if".into()))?;
                if_else[h] = Some(i);
            }
            Opcode::EndIf => {
                let h = if_stack
                    .pop()
                    .ok_or_else(|| ExecError::Malformed("unmatched end if".into()))?;
                if_end[h] = i;
            }
            _ => {}
        }
    }
    if !do_stack.is_empty() || !if_stack.is_empty() {
        return Err(ExecError::Malformed("unclosed region".into()));
    }
    // An `else` jumps to its if's `end if`. When one if has two, the
    // second wins and the first is stray.
    let mut else_target = vec![None; stmts.len()];
    for (h, e) in if_else.iter().enumerate() {
        if let Some(e) = *e {
            else_target[e] = Some(if_end[h]);
        }
    }

    let mut scalars = vec![ExecValue::Int(0); prog.syms().len()];
    let mut arrays = Vec::new();
    let mut array_of = vec![None; prog.syms().len()];
    for info in prog.variables() {
        match &info.kind {
            VarKind::Scalar => scalars[info.sym.index()] = zero(info.ty),
            VarKind::Array(dims) => {
                let n: i64 = dims.iter().product();
                array_of[info.sym.index()] = Some(arrays.len());
                arrays.push(Array {
                    dims: dims.clone().into(),
                    int: info.ty == VarType::Int,
                    data: vec![zero(info.ty); usize::try_from(n.max(0)).unwrap_or(0)],
                });
            }
        }
    }
    let mut lw = Lowering {
        mem: Memory { prog, scalars, arrays },
        array_of,
    };
    let code = stmts
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let q = prog.quad(at);
            let op = match q.op {
                Opcode::DoHead | Opcode::ParDo => Op::Do {
                    lcv: q.dst.as_var().map(|s| lw.slot(s)),
                    init: lw.src(&q.a),
                    fin: lw.src(&q.b),
                    exit: do_end[i] + 1,
                },
                Opcode::EndDo => Op::EndDo,
                Opcode::IfLt
                | Opcode::IfLe
                | Opcode::IfGt
                | Opcode::IfGe
                | Opcode::IfEq
                | Opcode::IfNe => Op::If {
                    op: q.op,
                    a: lw.src(&q.a),
                    b: lw.src(&q.b),
                    skip: if_else[i].map_or(if_end[i], |e| e + 1),
                },
                Opcode::Else => Op::Else(else_target[i]),
                Opcode::EndIf | Opcode::Nop => Op::Next,
                Opcode::Read => Op::Read(lw.dst(&q.dst)),
                Opcode::Write => Op::Write(lw.src(&q.a)),
                Opcode::Assign => Op::Assign(lw.dst(&q.dst), lw.src(&q.a)),
                Opcode::Neg => Op::Neg(lw.dst(&q.dst), lw.src(&q.a)),
                Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Div | Opcode::Mod => {
                    Op::Arith(q.op, lw.dst(&q.dst), lw.src(&q.a), lw.src(&q.b))
                }
                Opcode::Call(f) => {
                    let name = prog.syms().name(f).trim_start_matches("@fn:");
                    let f = match name {
                        "sqrt" => Ok(Intrinsic::Sqrt),
                        "sin" => Ok(Intrinsic::Sin),
                        "cos" => Ok(Intrinsic::Cos),
                        "abs" => Ok(Intrinsic::Abs),
                        "exp" => Ok(Intrinsic::Exp),
                        "log" => Ok(Intrinsic::Log),
                        "atan" => Ok(Intrinsic::Atan),
                        "min" => Ok(Intrinsic::Min),
                        "max" => Ok(Intrinsic::Max),
                        other => Err(other.to_owned()),
                    };
                    Op::Call(f, lw.dst(&q.dst), lw.src(&q.a), lw.src(&q.b))
                }
            };
            Instr { at, op }
        })
        .collect();
    Ok((code, lw.mem))
}

/// Symbol resolution for [`lower`]: `array_of` maps a symbol index to its
/// array slot.
struct Lowering<'p> {
    mem: Memory<'p>,
    array_of: Vec<Option<usize>>,
}

impl Lowering<'_> {
    /// The scalar slot of `s` (symbols are interned, so this only grows the
    /// memory for a symbol the table does not know).
    fn slot(&mut self, s: Sym) -> usize {
        if s.index() >= self.mem.scalars.len() {
            self.mem.scalars.resize(s.index() + 1, ExecValue::Int(0));
        }
        s.index()
    }

    fn affine(&mut self, e: &AffineExpr) -> Affine {
        Affine {
            constant: e.constant(),
            terms: e.vars().map(|v| (self.slot(v), e.coeff(v))).collect(),
        }
    }

    fn elem(&mut self, array: Sym, subs: &[AffineExpr]) -> Result<Box<Elem>, &'static str> {
        let index = self.array_of.get(array.index()).copied().flatten();
        let index = index.ok_or("undeclared array")?;
        if subs.len() != self.mem.arrays[index].dims.len() {
            return Err("subscript arity");
        }
        Ok(Box::new(Elem {
            array: index,
            sym: array,
            subs: subs.iter().map(|e| self.affine(e)).collect(),
        }))
    }

    fn src(&mut self, o: &Operand) -> Src {
        match o {
            Operand::None => Src::Const(ExecValue::Int(0)),
            Operand::Const(Value::Int(i)) => Src::Const(ExecValue::Int(*i)),
            Operand::Const(Value::Real(r)) => Src::Const(ExecValue::Real(*r)),
            Operand::Var(s) => Src::Scalar(self.slot(*s)),
            Operand::Elem { array, subs } => self.elem(*array, subs).map_or_else(Src::Bad, Src::Elem),
        }
    }

    fn dst(&mut self, o: &Operand) -> Dst {
        match o {
            Operand::Var(s) => Dst::Scalar(self.slot(*s), self.mem.prog.var_info(*s).map(|i| i.ty)),
            Operand::Elem { array, subs } => match self.elem(*array, subs) {
                Ok(e) => Dst::Elem(e),
                Err(m) => Dst::Bad(m.into()),
            },
            other => Dst::Bad(format!("cannot store into {other:?}")),
        }
    }
}

struct LoopFrame {
    head: usize,
    lcv: usize,
    fin: i64,
}

/// Runs lowered code from its first instruction, one step per executed
/// instruction.
fn execute(
    code: &[Instr],
    mut mem: Memory<'_>,
    inputs: &[ExecValue],
    step_limit: u64,
) -> Result<Trace, Fault> {
    let mut trace = Trace::default();
    let mut loops: Vec<LoopFrame> = Vec::new();
    let mut inputs = inputs.iter();
    let mut pc = 0usize;
    while let Some(Instr { at, op }) = code.get(pc) {
        trace.steps += 1;
        if trace.steps > step_limit {
            return Err(ExecError::StepLimit(step_limit).into());
        }
        let at = *at;
        pc = match op {
            Op::Do { lcv, init, fin, exit } => {
                let init = mem.eval(init, at)?.as_int();
                let fin = mem.eval(fin, at)?.as_int();
                let lcv = lcv.ok_or_else(|| ExecError::Malformed("loop without LCV".into()))?;
                mem.scalars[lcv] = ExecValue::Int(init);
                if init > fin {
                    // zero-trip: FORTRAN leaves the LCV at init
                    *exit
                } else {
                    loops.push(LoopFrame { head: pc, lcv, fin });
                    pc + 1
                }
            }
            Op::EndDo => {
                let frame = loops
                    .last()
                    .ok_or_else(|| ExecError::Malformed("end do without frame".into()))?;
                let cur = mem.scalars[frame.lcv].as_int();
                mem.scalars[frame.lcv] = ExecValue::Int(cur + 1);
                if cur < frame.fin {
                    frame.head + 1
                } else {
                    loops.pop();
                    pc + 1
                }
            }
            Op::If { op, a, b, skip } => {
                let a = mem.eval(a, at)?.to_f64();
                let b = mem.eval(b, at)?.to_f64();
                let taken = match op {
                    Opcode::IfLt => a < b,
                    Opcode::IfLe => a <= b,
                    Opcode::IfGt => a > b,
                    Opcode::IfGe => a >= b,
                    Opcode::IfEq => a == b,
                    Opcode::IfNe => a != b,
                    _ => unreachable!(),
                };
                if taken {
                    pc + 1
                } else {
                    *skip
                }
            }
            // reached from the then branch: skip the else body
            Op::Else(end) => end.ok_or_else(|| ExecError::Malformed("stray else".into()))?,
            Op::Next => pc + 1,
            Op::Read(dst) => {
                let v = inputs.next().copied().unwrap_or(ExecValue::Int(0));
                mem.store(dst, v, at)?;
                pc + 1
            }
            Op::Write(a) => {
                trace.outputs.push(mem.eval(a, at)?);
                pc + 1
            }
            Op::Assign(dst, a) => {
                let v = mem.eval(a, at)?;
                mem.store(dst, v, at)?;
                pc + 1
            }
            Op::Neg(dst, a) => {
                let v = match mem.eval(a, at)? {
                    ExecValue::Int(i) => ExecValue::Int(-i),
                    ExecValue::Real(r) => ExecValue::Real(-r),
                };
                mem.store(dst, v, at)?;
                pc + 1
            }
            Op::Arith(op, dst, a, b) => {
                let a = mem.eval(a, at)?;
                let b = mem.eval(b, at)?;
                mem.store(dst, arith(*op, a, b, at)?, at)?;
                pc + 1
            }
            Op::Call(f, dst, a, b) => {
                let a = mem.eval(a, at)?.to_f64();
                let v = match f {
                    Ok(Intrinsic::Sqrt) => a.sqrt(),
                    Ok(Intrinsic::Sin) => a.sin(),
                    Ok(Intrinsic::Cos) => a.cos(),
                    Ok(Intrinsic::Abs) => a.abs(),
                    Ok(Intrinsic::Exp) => a.exp(),
                    Ok(Intrinsic::Log) => a.ln(),
                    Ok(Intrinsic::Atan) => a.atan(),
                    Ok(Intrinsic::Min) => a.min(mem.eval(b, at)?.to_f64()),
                    Ok(Intrinsic::Max) => a.max(mem.eval(b, at)?.to_f64()),
                    Err(name) => return Err(ExecError::UnknownIntrinsic(name.clone(), at).into()),
                };
                mem.store(dst, ExecValue::Real(v), at)?;
                pc + 1
            }
        };
    }
    Ok(trace)
}

#[inline(always)]
fn arith(op: Opcode, a: ExecValue, b: ExecValue, at: StmtId) -> Result<ExecValue, Fault> {
    if let (ExecValue::Int(x), ExecValue::Int(y)) = (a, b) {
        let v = match op {
            Opcode::Add => x.wrapping_add(y),
            Opcode::Sub => x.wrapping_sub(y),
            Opcode::Mul => x.wrapping_mul(y),
            Opcode::Div => {
                if y == 0 {
                    return Err(ExecError::DivideByZero(at).into());
                }
                x.wrapping_div(y)
            }
            Opcode::Mod => {
                if y == 0 {
                    return Err(ExecError::DivideByZero(at).into());
                }
                x.wrapping_rem(y)
            }
            _ => unreachable!(),
        };
        return Ok(ExecValue::Int(v));
    }
    let (x, y) = (a.to_f64(), b.to_f64());
    let v = match op {
        Opcode::Add => x + y,
        Opcode::Sub => x - y,
        Opcode::Mul => x * y,
        Opcode::Div => x / y,
        Opcode::Mod => {
            if y == 0.0 {
                return Err(ExecError::DivideByZero(at).into());
            }
            x % y
        }
        _ => unreachable!(),
    };
    Ok(ExecValue::Real(v))
}

impl Memory<'_> {
    #[inline(always)]
    fn eval(&self, src: &Src, at: StmtId) -> Result<ExecValue, Fault> {
        match src {
            Src::Const(v) => Ok(*v),
            Src::Scalar(slot) => Ok(self.scalars[*slot]),
            Src::Elem(e) => {
                let idx = self.flat_index(e, at)?;
                Ok(self.arrays[e.array].data[idx])
            }
            Src::Bad(m) => Err(ExecError::Malformed((*m).into()).into()),
        }
    }

    #[inline(always)]
    fn store(&mut self, dst: &Dst, v: ExecValue, at: StmtId) -> Result<(), Fault> {
        match dst {
            Dst::Scalar(slot, ty) => {
                // Coerce to the declared type (FORTRAN assignment).
                self.scalars[*slot] = match ty {
                    Some(VarType::Int) => ExecValue::Int(v.as_int()),
                    Some(VarType::Real) => ExecValue::Real(v.to_f64()),
                    None => v,
                };
            }
            Dst::Elem(e) => {
                let idx = self.flat_index(e, at)?;
                let array = &mut self.arrays[e.array];
                array.data[idx] = if array.int {
                    ExecValue::Int(v.as_int())
                } else {
                    ExecValue::Real(v.to_f64())
                };
            }
            Dst::Bad(m) => return Err(ExecError::Malformed(m.clone()).into()),
        }
        Ok(())
    }

    fn affine(&self, e: &Affine) -> i64 {
        let mut v = e.constant;
        for &(slot, coeff) in e.terms.iter() {
            v += coeff * self.scalars[slot].as_int();
        }
        v
    }

    /// Column-major (FORTRAN) offset of a 1-based subscript tuple.
    fn flat_index(&self, e: &Elem, at: StmtId) -> Result<usize, Fault> {
        let dims = &self.arrays[e.array].dims;
        let mut idx: i64 = 0;
        let mut stride: i64 = 1;
        for (sub, &d) in e.subs.iter().zip(dims.iter()) {
            let v = self.affine(sub);
            if v < 1 || v > d {
                return Err(ExecError::OutOfBounds {
                    array: self.prog.syms().name(e.sym).into(),
                    subs: e.subs.iter().map(|s| self.affine(s)).collect(),
                    at,
                }
                .into());
            }
            idx += (v - 1) * stride;
            stride *= d;
        }
        Ok(usize::try_from(idx).expect("non-negative"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_frontend::compile;
    use gospel_ir::ProgramBuilder;

    fn outputs(src: &str) -> Vec<ExecValue> {
        run(&compile(src).unwrap(), &[]).unwrap().outputs
    }

    #[test]
    fn arithmetic_and_loops() {
        let o = outputs(
            "program p\ninteger i, s\ns = 0\ndo i = 1, 10\ns = s + i\nend do\nwrite s\nwrite i\nend",
        );
        // sum 1..10 and the FORTRAN post-loop LCV value
        assert_eq!(o, vec![ExecValue::Int(55), ExecValue::Int(11)]);
    }

    #[test]
    fn zero_trip_loop_body_skipped() {
        let o = outputs(
            "program p\ninteger i, s\ns = 7\ndo i = 5, 4\ns = 0\nend do\nwrite s\nend",
        );
        assert_eq!(o, vec![ExecValue::Int(7)]);
    }

    #[test]
    fn branches_both_ways() {
        let o = outputs(
            "program p\ninteger x, y\nx = 3\nif (x > 2) then\ny = 1\nelse\ny = 2\nend if\nwrite y\nif (x > 5) then\ny = 3\nelse\ny = 4\nend if\nwrite y\nend",
        );
        assert_eq!(o, vec![ExecValue::Int(1), ExecValue::Int(4)]);
    }

    #[test]
    fn arrays_are_column_major_one_based() {
        let o = outputs(
            "program p\ninteger i, j\nreal a(3,3)\ndo i = 1, 3\ndo j = 1, 3\na(i,j) = 10 * i + j\nend do\nend do\nwrite a(2,3)\nend",
        );
        assert_eq!(o, vec![ExecValue::Real(23.0)]);
    }

    #[test]
    fn integer_division_semantics() {
        let o = outputs("program p\ninteger n, m\nn = 7\nm = n / 2\nwrite m\nwrite n mod 2\nend");
        assert_eq!(o[0], ExecValue::Int(3));
        assert_eq!(o[1], ExecValue::Int(1));
    }

    #[test]
    fn intrinsics_evaluate() {
        let o = outputs("program p\nreal x\nx = sqrt(16.0)\nwrite x\nwrite abs(0.0 - 2.5)\nend");
        assert_eq!(o[0], ExecValue::Real(4.0));
        assert_eq!(o[1], ExecValue::Real(2.5));
    }

    #[test]
    fn reads_consume_inputs_then_zero() {
        let prog = compile("program p\ninteger a, b\nread a\nread b\nwrite a + b\nend").unwrap();
        let t = run(&prog, &[ExecValue::Int(40), ExecValue::Int(2)]).unwrap();
        assert_eq!(t.outputs, vec![ExecValue::Int(42)]);
        let t2 = run(&prog, &[ExecValue::Int(40)]).unwrap();
        assert_eq!(t2.outputs, vec![ExecValue::Int(40)]);
    }

    #[test]
    fn out_of_bounds_is_detected() {
        let r = run(
            &compile("program p\ninteger i\nreal a(3)\ni = 4\na(i) = 1.0\nend").unwrap(),
            &[],
        );
        assert!(matches!(r, Err(ExecError::OutOfBounds { .. })), "{r:?}");
    }

    #[test]
    fn divide_by_zero_is_detected() {
        let r = run(
            &compile("program p\ninteger x, z\nz = 0\nx = 1 / z\nend").unwrap(),
            &[],
        );
        assert!(matches!(r, Err(ExecError::DivideByZero(_))), "{r:?}");
    }

    #[test]
    fn step_limit_guards_runaway() {
        // 1000-trip loop with a 10-step budget
        let r = run_limited(
            &compile("program p\ninteger i, s\ndo i = 1, 1000\ns = i\nend do\nend").unwrap(),
            &[],
            10,
        );
        assert!(matches!(r, Err(ExecError::StepLimit(10))));
    }

    /// `read c` / `if (c > 0) then` / `<body>` / `end if` / `write 7`:
    /// the body runs only on a positive input.
    fn behind_branch(body: impl FnOnce(&mut ProgramBuilder) -> StmtId) -> (Program, StmtId) {
        let mut b = ProgramBuilder::new("p");
        let c = b.scalar_int("c");
        b.read(Operand::Var(c));
        let tok = b.if_head(Opcode::IfGt, Operand::Var(c), Operand::int(0));
        let at = body(&mut b);
        b.end_if(tok);
        b.write(Operand::int(7));
        (b.finish(), at)
    }

    /// Runs `prog` on input 0 (branch skipped) and 1 (branch taken).
    fn skipped_then_taken(prog: &Program) -> (Result<Trace, ExecError>, Result<Trace, ExecError>) {
        (
            run(prog, &[ExecValue::Int(0)]),
            run(prog, &[ExecValue::Int(1)]),
        )
    }

    #[test]
    fn lazy_errors_fire_only_when_their_statement_runs() {
        let x = |b: &mut ProgramBuilder| Operand::Var(b.scalar_real("x"));
        type Body = Box<dyn Fn(&mut ProgramBuilder) -> StmtId>;
        type Expected = Box<dyn Fn(StmtId) -> ExecError>;
        let cases: Vec<(&str, Body, Expected)> = vec![
            (
                "unknown intrinsic",
                Box::new(move |b| {
                    let x = x(b);
                    b.call1(x, "frob", Operand::int(2))
                }),
                Box::new(|at| ExecError::UnknownIntrinsic("frob".into(), at)),
            ),
            (
                "loop without LCV",
                Box::new(|b| {
                    let at = b.stmt(Opcode::DoHead, Operand::None, Operand::int(1), Operand::int(2));
                    b.stmt(Opcode::EndDo, Operand::None, Operand::None, Operand::None);
                    at
                }),
                Box::new(|_| ExecError::Malformed("loop without LCV".into())),
            ),
            (
                "store into a constant",
                Box::new(|b| b.assign(Operand::int(1), Operand::int(2))),
                Box::new(|_| ExecError::Malformed("cannot store into Const(Int(1))".into())),
            ),
            (
                "read into nothing",
                Box::new(|b| b.read(Operand::None)),
                Box::new(|_| ExecError::Malformed("cannot store into None".into())),
            ),
            (
                "load from an undeclared array",
                Box::new(move |b| {
                    let s = b.scalar_int("s");
                    let x = x(b);
                    b.assign(x, Operand::elem1(s, AffineExpr::constant_expr(1)))
                }),
                Box::new(|_| ExecError::Malformed("undeclared array".into())),
            ),
            (
                "store into an undeclared array",
                Box::new(|b| {
                    let s = b.scalar_int("s");
                    b.assign(Operand::elem1(s, AffineExpr::constant_expr(1)), Operand::int(1))
                }),
                Box::new(|_| ExecError::Malformed("undeclared array".into())),
            ),
            (
                "subscript arity",
                Box::new(move |b| {
                    let a = b.array_real("a", &[4]);
                    let x = x(b);
                    let subs = vec![AffineExpr::constant_expr(1); 2];
                    b.assign(x, Operand::Elem { array: a, subs })
                }),
                Box::new(|_| ExecError::Malformed("subscript arity".into())),
            ),
            (
                "out of bounds",
                Box::new(|b| {
                    let a = b.array_int("a", &[4, 2]);
                    let subs = vec![AffineExpr::constant_expr(4), AffineExpr::constant_expr(3)];
                    b.assign(Operand::Elem { array: a, subs }, Operand::int(1))
                }),
                Box::new(|at| ExecError::OutOfBounds {
                    array: "a".into(),
                    subs: vec![4, 3],
                    at,
                }),
            ),
            (
                "integer division by zero",
                Box::new(move |b| {
                    let s = b.scalar_int("s");
                    b.div(Operand::Var(s), Operand::int(1), Operand::int(0))
                }),
                Box::new(ExecError::DivideByZero),
            ),
        ];
        for (what, body, want) in cases {
            let (prog, at) = behind_branch(body);
            let (skipped, taken) = skipped_then_taken(&prog);
            let skipped = skipped.unwrap_or_else(|e| panic!("{what}: fired on a skipped branch: {e}"));
            assert_eq!(skipped.outputs, vec![ExecValue::Int(7)], "{what}");
            assert_eq!(taken, Err(want(at)), "{what}");
        }
    }

    /// Two `else`s under one `if`: the second is the one the `if` jumps
    /// past, so only the then branch reaches the first — which is stray.
    #[test]
    fn a_second_else_makes_the_first_stray() {
        let (prog, _) = behind_branch(|b| {
            let tok = b.if_head(Opcode::IfEq, Operand::int(0), Operand::int(0));
            b.else_mark(tok);
            let at = b.else_mark(tok);
            b.end_if(tok);
            at
        });
        // Inner condition always holds, so the then branch runs into the
        // first else.
        let (skipped, taken) = skipped_then_taken(&prog);
        assert_eq!(skipped.unwrap().outputs, vec![ExecValue::Int(7)]);
        assert_eq!(taken, Err(ExecError::Malformed("stray else".into())));
    }

    /// An `end if` inside a loop that opened inside the `if`: skipping the
    /// branch lands on an `end do` with no loop frame.
    #[test]
    fn end_do_without_a_frame_fires_only_when_reached() {
        let mut b = ProgramBuilder::new("p");
        let c = b.scalar_int("c");
        let i = b.scalar_int("i");
        b.read(Operand::Var(c));
        b.stmt(Opcode::IfGt, Operand::None, Operand::Var(c), Operand::int(0));
        b.stmt(Opcode::DoHead, Operand::Var(i), Operand::int(1), Operand::int(2));
        b.stmt(Opcode::EndIf, Operand::None, Operand::None, Operand::None);
        b.stmt(Opcode::EndDo, Operand::None, Operand::None, Operand::None);
        b.write(Operand::Var(i));
        let prog = b.finish();
        let (skipped, taken) = skipped_then_taken(&prog);
        assert_eq!(skipped, Err(ExecError::Malformed("end do without frame".into())));
        assert_eq!(taken.unwrap().outputs, vec![ExecValue::Int(3)]);
    }

    #[test]
    fn unbalanced_markers_are_rejected_before_running() {
        let mut b = ProgramBuilder::new("p");
        b.write(Operand::int(1));
        b.stmt(Opcode::EndDo, Operand::None, Operand::None, Operand::None);
        let r = run(&b.finish(), &[]);
        assert_eq!(r, Err(ExecError::Malformed("unmatched end do".into())));
    }

    #[test]
    fn else_skip_jumps_onto_the_end_if() {
        let src = "program p\ninteger x, y\nread x\nif (x > 0) then\ny = 1\nelse\ny = 2\nend if\nwrite y\nend";
        let prog = compile(src).unwrap();
        // read, if, y = 1, else (jump), end if, write
        let taken = run(&prog, &[ExecValue::Int(1)]).unwrap();
        assert_eq!((taken.outputs, taken.steps), (vec![ExecValue::Int(1)], 6));
        // read, if (jump past else), y = 2, end if, write
        let skipped = run(&prog, &[ExecValue::Int(0)]).unwrap();
        assert_eq!((skipped.outputs, skipped.steps), (vec![ExecValue::Int(2)], 5));
    }

    #[test]
    fn nested_zero_trip_loops_leave_lcvs_at_init() {
        // An inner zero-trip loop leaves its LCV at init on every outer
        // trip; a zero-trip outer loop never reaches the inner head.
        let o = outputs(
            "program p\ninteger i, j, k, s\ns = 0\ndo i = 1, 2\ndo j = 5, 4\ns = 9\nend do\nend do\ndo k = 3, 1\ndo j = 1, 5\ns = 8\nend do\nend do\nwrite i\nwrite j\nwrite k\nwrite s\nend",
        );
        let ints: Vec<ExecValue> = [3, 5, 3, 0].into_iter().map(ExecValue::Int).collect();
        assert_eq!(o, ints);
    }

    #[test]
    fn step_limit_boundary_is_inclusive() {
        let prog = compile("program p\ninteger i, s\ndo i = 1, 3\ns = i\nend do\nwrite s\nend").unwrap();
        let steps = run(&prog, &[]).unwrap().steps;
        assert_eq!(steps, 8);
        assert_eq!(run_limited(&prog, &[], steps).unwrap().steps, steps);
        assert_eq!(
            run_limited(&prog, &[], steps - 1),
            Err(ExecError::StepLimit(steps - 1))
        );
    }

    #[test]
    fn pardo_runs_sequentially() {
        let mut prog = compile(
            "program p\ninteger i\nreal a(5)\ndo i = 1, 5\na(i) = i\nend do\nwrite a(5)\nend",
        )
        .unwrap();
        // flip the header to pardo by hand
        let head = prog
            .iter()
            .find(|&s| prog.quad(s).op == Opcode::DoHead)
            .unwrap();
        let q = prog.quad(head).clone();
        prog.replace(head, gospel_ir::Quad::new(Opcode::ParDo, q.dst, q.a, q.b));
        let t = run(&prog, &[]).unwrap();
        assert_eq!(t.outputs, vec![ExecValue::Real(5.0)]);
    }

}
