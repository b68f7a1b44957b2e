//! Abstract syntax of GOSpeL specifications.

pub use gospel_dep::{DepKind, DirElem};

/// A complete optimization specification.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// The optimization's name (e.g. `CTP`).
    pub name: String,
    /// Application mode requested by the author.
    pub mode: Mode,
    /// `TYPE` section.
    pub decls: Vec<TypeDecl>,
    /// `PRECOND` / `Code_Pattern` clauses, in source order.
    pub patterns: Vec<PatternClause>,
    /// `PRECOND` / `Depend` clauses, in source order (the paper requires
    /// patterns before dependences, which the grammar enforces).
    pub depends: Vec<DependClause>,
    /// `ACTION` section.
    pub actions: Vec<Action>,
}

/// How the generated optimizer should be applied (Section 1: traditional
/// optimizations run automatically; parallelizing transformations at the
/// user's direction).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Mode {
    /// Apply wherever the precondition holds.
    #[default]
    Auto,
    /// Apply only at user-selected points.
    Interactive,
}

/// The element types of the declaration section.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElemType {
    /// A single statement.
    Stmt,
    /// A single loop.
    Loop,
    /// A pair of loops, one (anywhere) inside the other.
    NestedLoops,
    /// A pair of loops nested with no statements between them.
    TightLoops,
    /// A pair of loops where the second immediately follows the first.
    AdjacentLoops,
}

impl ElemType {
    /// Number of identifiers a declaration group of this type binds.
    pub fn arity(self) -> usize {
        match self {
            ElemType::Stmt | ElemType::Loop => 1,
            _ => 2,
        }
    }

    /// The GOSpeL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            ElemType::Stmt => "Stmt",
            ElemType::Loop => "Loop",
            ElemType::NestedLoops => "Nested_Loops",
            ElemType::TightLoops => "Tight_Loops",
            ElemType::AdjacentLoops => "Adjacent_Loops",
        }
    }
}

/// One `TYPE` declaration: `Stmt: Si, Sj;` or `Tight_Loops: (L1, L2);`.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeDecl {
    /// The declared element type.
    pub ty: ElemType,
    /// Identifier groups — singletons for `Stmt`/`Loop`, pairs otherwise.
    pub groups: Vec<Vec<String>>,
}

/// The three quantifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quant {
    /// Bind one element satisfying the clause (search).
    Any,
    /// Bind the set of all elements satisfying the clause.
    All,
    /// Require that no element satisfies the clause (check only).
    No,
}

impl Quant {
    /// The GOSpeL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Quant::Any => "any",
            Quant::All => "all",
            Quant::No => "no",
        }
    }
}

/// A `Code_Pattern` clause: `quant vars [: format];`.
#[derive(Clone, Debug, PartialEq)]
pub struct PatternClause {
    /// The quantifier.
    pub quant: Quant,
    /// Bound element variables (one, or a pair for loop-pair types).
    pub vars: Vec<String>,
    /// Format restriction, if any.
    pub format: Option<BoolExpr>,
}

/// A `Depend` clause:
/// `quant vars [: member constraints ,] dependence conditions ;`.
///
/// The paper's `(Sj, pos)` form binds the operand position of the
/// dependence's sink access alongside the statement; `pos_vars[i]`
/// corresponds to `vars[i]` where present.
#[derive(Clone, Debug, PartialEq)]
pub struct DependClause {
    /// The quantifier.
    pub quant: Quant,
    /// Newly bound element variables (may be empty for pure checks).
    pub vars: Vec<String>,
    /// Position variables bound together with each element (parallel to
    /// `vars`; `None` where no position was requested).
    pub pos_vars: Vec<Option<String>>,
    /// Membership constraints (`mem(S, L)` …), evaluated before the
    /// dependence conditions as the paper's grammar requires.
    pub members: Vec<MemExpr>,
    /// The dependence conditions.
    pub cond: BoolExpr,
}

/// `mem(Element, Set)`.
#[derive(Clone, Debug, PartialEq)]
pub struct MemExpr {
    /// The element (usually a statement variable).
    pub elem: ValExpr,
    /// The set it must belong to.
    pub set: SetExpr,
    /// Negated membership (`nmem`).
    pub negated: bool,
}

/// Set expressions for membership constraints.
#[derive(Clone, Debug, PartialEq)]
pub enum SetExpr {
    /// A loop variable's body, or a set bound by an `all` clause.
    Named(String),
    /// `path(a, b)`: statements on a control-flow path from `a` to `b` —
    /// the lexical range from `a` to `b`, both inclusive, plus the body
    /// of the outermost loop that encloses `b` but not `a` (its back edge
    /// reaches `b` again from statements that follow `b` lexically).
    Path(ValExpr, ValExpr),
    /// Set union.
    Union(Box<SetExpr>, Box<SetExpr>),
    /// Set intersection.
    Inter(Box<SetExpr>, Box<SetExpr>),
}

/// Boolean precondition expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum BoolExpr {
    /// Conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Comparison of two values.
    Cmp(ValExpr, CmpOp, ValExpr),
    /// A dependence test `flow_dep(a, b, (dir…))`.
    Dep {
        /// Which dependence.
        kind: DepKind,
        /// Source element.
        from: ValExpr,
        /// Sink element. May be a `(var, posvar)` binding introduced by the
        /// enclosing clause.
        to: ValExpr,
        /// Direction-vector pattern; `None` when omitted.
        dirs: Option<Vec<DirElem>>,
    },
    /// `type(x) == const` and friends.
    TypeIs(ValExpr, OperandClass, bool),
}

/// Operand classifications testable with `type(...)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperandClass {
    /// A compile-time constant.
    Const,
    /// A scalar variable.
    Var,
    /// An array element reference.
    Elem,
    /// No operand in that slot.
    None,
}

impl OperandClass {
    /// The GOSpeL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            OperandClass::Const => "const",
            OperandClass::Var => "var",
            OperandClass::Elem => "elem",
            OperandClass::None => "none",
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Source spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Value expressions: element references, operand accessors, literals.
#[derive(Clone, Debug, PartialEq)]
pub enum ValExpr {
    /// `Si`, `L1.head.nxt`, `Sj.opr_2`, `L2.lcv` — a variable with an
    /// attribute path.
    Ref(ElemRef),
    /// `operand(S, pos)` — the operand of a statement at a position bound
    /// by a dependence clause (or a literal position 1–3).
    OperandFn(Box<ValExpr>, Box<ValExpr>),
    /// A bare identifier that is not a declared element: an opcode name in
    /// `Si.opc == assign`, or a position variable.
    Name(String),
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// `eval(a, op, b)` — constant-fold two operands (extension used by the
    /// CFO specification; see DESIGN.md). The operation is either a literal
    /// opcode name (`add`) or an opcode-valued reference (`Si.opc`).
    Eval(Box<ValExpr>, Box<ValExpr>, Box<ValExpr>),
    /// `bump(x, var, k)` — substitute `var := var + k` inside operand `x`
    /// (extension used by the LUR and BMP specifications; see DESIGN.md).
    /// The amount is any constant-valued expression.
    Bump(Box<ValExpr>, Box<ValExpr>, Box<ValExpr>),
}

/// A variable plus attribute path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElemRef {
    /// The base variable.
    pub base: String,
    /// Attribute accesses, left to right.
    pub path: Vec<Attr>,
}

impl ElemRef {
    /// A bare variable reference.
    pub fn bare(base: impl Into<String>) -> ElemRef {
        ElemRef {
            base: base.into(),
            path: Vec::new(),
        }
    }
}

/// The pre-defined attributes of the paper's element types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attr {
    /// Next code element of the same type (`.NXT`).
    Nxt,
    /// Previous code element (`.PREV`).
    Prev,
    /// Loop header statement (`.HEAD`).
    Head,
    /// Loop end statement (`.END`).
    End,
    /// Loop body — usable as a set (`.BODY`).
    Body,
    /// Loop control variable (`.LCV`).
    Lcv,
    /// Loop initial value (`.INIT`).
    Init,
    /// Loop final value (`.FINAL`).
    Final,
    /// Statement operand 1–3 (`.opr_1` …).
    Opr(u8),
    /// Statement opcode (`.opc`).
    Opc,
}

impl Attr {
    /// Source spelling.
    pub fn keyword(self) -> String {
        match self {
            Attr::Nxt => "nxt".into(),
            Attr::Prev => "prev".into(),
            Attr::Head => "head".into(),
            Attr::End => "end".into(),
            Attr::Body => "body".into(),
            Attr::Lcv => "lcv".into(),
            Attr::Init => "init".into(),
            Attr::Final => "final".into(),
            Attr::Opr(i) => format!("opr_{i}"),
            Attr::Opc => "opc".into(),
        }
    }
}

/// Statement templates for the `add` primitive.
#[derive(Clone, Debug, PartialEq)]
pub struct ElemDesc {
    /// Opcode name for the new statement.
    pub opc: String,
    /// Destination operand.
    pub opr_1: Option<ValExpr>,
    /// Second operand.
    pub opr_2: Option<ValExpr>,
    /// Third operand.
    pub opr_3: Option<ValExpr>,
}

/// The five transformation primitives plus `forall`.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// `delete(a)` — remove element `a`.
    Delete(ValExpr),
    /// `copy(a, b, c)` — copy `a`, place it after `b`, name it `c`.
    Copy(ValExpr, ValExpr, String),
    /// `move(a, b)` — move `a` to follow `b`.
    Move(ValExpr, ValExpr),
    /// `add(a, desc, b)` — insert a new statement described by `desc`
    /// after `a`, naming it `b`.
    Add(ValExpr, ElemDesc, String),
    /// `modify(place, new)` — overwrite the operand at `place`.
    Modify(ValExpr, ValExpr),
    /// `forall binder in set do … end` — repeat actions for every member
    /// of a set collected by an `all` clause.
    ForAll {
        /// The element variable bound on each iteration.
        var: String,
        /// Optional position variable (for sets of `(stmt, pos)` pairs).
        pos_var: Option<String>,
        /// The set: the name bound by an `all` quantifier, or a loop body.
        set: SetExpr,
        /// Actions executed per member.
        body: Vec<Action>,
    },
}
