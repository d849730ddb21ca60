//! The transaction intermediate representation.

use crate::object::{FieldId, ObjClass};
use crate::value::{EvalError, Value};
use std::fmt;

/// A transaction-local register. The IR is SSA: every register is assigned
/// by exactly one statement, which is what makes partial rollback of the
/// register file trivial — re-executing a sub-transaction simply recomputes
/// its own definitions and can never clobber an earlier block's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u16);

/// A per-instance transaction parameter (account ids, amounts, …). The
/// program is a *template*; an instance binds concrete parameter values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub u16);

/// Index of a top-level statement within a [`Program`].
pub type StmtIdx = usize;

/// A statement operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// An immediate value baked into the template.
    Const(Value),
    /// A transaction-local register.
    Var(VarId),
    /// A per-instance parameter.
    Param(ParamId),
}

impl Operand {
    /// The register this operand reads, if any.
    pub fn var(&self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}
impl From<ParamId> for Operand {
    fn from(p: ParamId) -> Self {
        Operand::Param(p)
    }
}
impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Const(Value::Int(v))
    }
}
impl From<bool> for Operand {
    fn from(v: bool) -> Self {
        Operand::Const(Value::Bool(v))
    }
}

/// How an object is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read-only: enters the read-set.
    Read,
    /// Read-write: fetched like a read, but also enters the write-set and
    /// its buffered copy may be mutated with [`Stmt::SetField`].
    Update,
}

/// Pure operations over [`Value`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputeOp {
    /// Integer addition (wrapping).
    Add,
    /// Integer subtraction (wrapping).
    Sub,
    /// Integer multiplication (wrapping).
    Mul,
    /// Integer division; zero divisor is an [`EvalError`].
    Div,
    /// Integer remainder; zero divisor is an [`EvalError`].
    Mod,
    /// Minimum of two integers.
    Min,
    /// Maximum of two integers.
    Max,
    /// Integer negation.
    Neg,
    /// Equality over any value type.
    Eq,
    /// Inequality over any value type.
    Ne,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer greater-than.
    Gt,
    /// Integer greater-or-equal.
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Boolean negation.
    Not,
    /// `Select(cond, a, b)` — value-level conditional, covering the common
    /// "pick the cheaper reservation" style logic without control flow.
    Select,
    /// String concatenation.
    Concat,
    /// Identity — used to give a constant/parameter a register name.
    Id,
}

impl ComputeOp {
    /// Operation name for diagnostics and error messages.
    pub fn name(self) -> &'static str {
        match self {
            ComputeOp::Add => "Add",
            ComputeOp::Sub => "Sub",
            ComputeOp::Mul => "Mul",
            ComputeOp::Div => "Div",
            ComputeOp::Mod => "Mod",
            ComputeOp::Min => "Min",
            ComputeOp::Max => "Max",
            ComputeOp::Neg => "Neg",
            ComputeOp::Eq => "Eq",
            ComputeOp::Ne => "Ne",
            ComputeOp::Lt => "Lt",
            ComputeOp::Le => "Le",
            ComputeOp::Gt => "Gt",
            ComputeOp::Ge => "Ge",
            ComputeOp::And => "And",
            ComputeOp::Or => "Or",
            ComputeOp::Not => "Not",
            ComputeOp::Select => "Select",
            ComputeOp::Concat => "Concat",
            ComputeOp::Id => "Id",
        }
    }

    /// The largest [`ComputeOp::arity`]: an evaluator may hold a call's
    /// arguments in an array this long.
    pub const MAX_ARITY: usize = 3;

    /// How many arguments the operation takes.
    pub fn arity(self) -> usize {
        match self {
            ComputeOp::Neg | ComputeOp::Not | ComputeOp::Id => 1,
            ComputeOp::Select => ComputeOp::MAX_ARITY,
            _ => 2,
        }
    }

    /// Evaluate the operation over concrete values.
    pub fn eval(self, args: &[Value]) -> Result<Value, EvalError> {
        if args.len() != self.arity() {
            return Err(EvalError::ArityMismatch {
                op: self.name(),
                expected: self.arity(),
                got: args.len(),
            });
        }
        use ComputeOp::*;
        Ok(match self {
            Add => Value::Int(args[0].as_int()?.wrapping_add(args[1].as_int()?)),
            Sub => Value::Int(args[0].as_int()?.wrapping_sub(args[1].as_int()?)),
            Mul => Value::Int(args[0].as_int()?.wrapping_mul(args[1].as_int()?)),
            Div => {
                let d = args[1].as_int()?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Value::Int(args[0].as_int()?.wrapping_div(d))
            }
            Mod => {
                let d = args[1].as_int()?;
                if d == 0 {
                    return Err(EvalError::DivisionByZero);
                }
                Value::Int(args[0].as_int()?.wrapping_rem(d))
            }
            Min => Value::Int(args[0].as_int()?.min(args[1].as_int()?)),
            Max => Value::Int(args[0].as_int()?.max(args[1].as_int()?)),
            Neg => Value::Int(args[0].as_int()?.wrapping_neg()),
            Eq => Value::Bool(args[0] == args[1]),
            Ne => Value::Bool(args[0] != args[1]),
            Lt => Value::Bool(args[0].as_int()? < args[1].as_int()?),
            Le => Value::Bool(args[0].as_int()? <= args[1].as_int()?),
            Gt => Value::Bool(args[0].as_int()? > args[1].as_int()?),
            Ge => Value::Bool(args[0].as_int()? >= args[1].as_int()?),
            And => Value::Bool(args[0].as_bool()? && args[1].as_bool()?),
            Or => Value::Bool(args[0].as_bool()? || args[1].as_bool()?),
            Not => Value::Bool(!args[0].as_bool()?),
            Select => {
                if args[0].as_bool()? {
                    args[1].clone()
                } else {
                    args[2].clone()
                }
            }
            Concat => {
                let mut s = String::from(args[0].as_str()?);
                s.push_str(args[1].as_str()?);
                Value::str(s)
            }
            Id => args[0].clone(),
        })
    }
}

/// One statement of a transaction program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A remote object invocation: fetch the latest copy of
    /// `class[index]` through a read quorum and bind its handle to `var`.
    /// This is the one statement that costs network round trips, and is the
    /// anchor of a UnitBlock.
    Open {
        /// Register receiving the object handle.
        var: VarId,
        /// Class of the object to open.
        class: ObjClass,
        /// Index of the object within its class (evaluated per instance).
        index: Operand,
        /// Read-only or read-write access.
        mode: AccessMode,
    },
    /// Read a field of an opened object into a register (local).
    GetField {
        /// Register receiving the field value.
        var: VarId,
        /// Handle of the opened object.
        obj: VarId,
        /// Which field to read.
        field: FieldId,
    },
    /// Mutate a field of an object opened with [`AccessMode::Update`]
    /// (local: the write is buffered in the write-set until commit).
    SetField {
        /// Handle of the opened (update-mode) object.
        obj: VarId,
        /// Which field to write.
        field: FieldId,
        /// The value to buffer.
        value: Operand,
    },
    /// Pure local computation: `out = op(ins…)`.
    Compute {
        /// Register receiving the result.
        out: VarId,
        /// The operation.
        op: ComputeOp,
        /// Operands, in the operation's argument order.
        ins: Vec<Operand>,
    },
    /// Effect-level conditional. Registers defined inside the branches are
    /// branch-local; value-level conditionals should use
    /// [`ComputeOp::Select`] instead. A `Cond` containing `Open`s forms a
    /// single composite UnitBlock (it cannot be split, because which opens
    /// execute is only known at run time).
    Cond {
        /// Boolean predicate selecting the branch.
        pred: Operand,
        /// Statements executed when the predicate is true.
        then_br: Vec<Stmt>,
        /// Statements executed when the predicate is false.
        else_br: Vec<Stmt>,
    },
}

/// A transaction template: straight-line SSA statements over `params`
/// parameters and `vars` registers.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Template name, e.g. `"bank/transfer"` or `"tpcc/neworder/5"`.
    pub name: String,
    /// Number of parameters an instance must bind.
    pub params: u16,
    /// Number of registers (exclusive upper bound on `VarId`).
    pub vars: u16,
    /// Top-level statements in program order.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// Iterate over top-level statements with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (StmtIdx, &Stmt)> {
        self.stmts.iter().enumerate()
    }

    /// Count remote opens, including those nested in `Cond` branches.
    pub fn open_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::Open { .. } => 1,
                    Stmt::Cond {
                        then_br, else_br, ..
                    } => count(then_br) + count(else_br),
                    _ => 0,
                })
                .sum()
        }
        count(&self.stmts)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} (params={})", self.name, self.params)?;
        for (i, s) in self.iter() {
            writeln!(f, "  [{i}] {s:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        use ComputeOp::*;
        let i = |v| Value::Int(v);
        assert_eq!(Add.eval(&[i(2), i(3)]).unwrap(), i(5));
        assert_eq!(Sub.eval(&[i(2), i(3)]).unwrap(), i(-1));
        assert_eq!(Mul.eval(&[i(4), i(3)]).unwrap(), i(12));
        assert_eq!(Div.eval(&[i(9), i(2)]).unwrap(), i(4));
        assert_eq!(Mod.eval(&[i(9), i(2)]).unwrap(), i(1));
        assert_eq!(Min.eval(&[i(9), i(2)]).unwrap(), i(2));
        assert_eq!(Max.eval(&[i(9), i(2)]).unwrap(), i(9));
        assert_eq!(Neg.eval(&[i(9)]).unwrap(), i(-9));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            ComputeOp::Div.eval(&[Value::Int(1), Value::Int(0)]),
            Err(EvalError::DivisionByZero)
        );
        assert_eq!(
            ComputeOp::Mod.eval(&[Value::Int(1), Value::Int(0)]),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn comparisons_and_logic() {
        use ComputeOp::*;
        let i = |v| Value::Int(v);
        let b = |v| Value::Bool(v);
        assert_eq!(Lt.eval(&[i(1), i(2)]).unwrap(), b(true));
        assert_eq!(Ge.eval(&[i(2), i(2)]).unwrap(), b(true));
        assert_eq!(Eq.eval(&[i(2), i(2)]).unwrap(), b(true));
        assert_eq!(
            Ne.eval(&[Value::str("a"), Value::str("b")]).unwrap(),
            b(true)
        );
        assert_eq!(And.eval(&[b(true), b(false)]).unwrap(), b(false));
        assert_eq!(Or.eval(&[b(true), b(false)]).unwrap(), b(true));
        assert_eq!(Not.eval(&[b(false)]).unwrap(), b(true));
    }

    #[test]
    fn select_picks_branch() {
        let got = ComputeOp::Select
            .eval(&[Value::Bool(true), Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(got, Value::Int(1));
        let got = ComputeOp::Select
            .eval(&[Value::Bool(false), Value::Int(1), Value::Int(2)])
            .unwrap();
        assert_eq!(got, Value::Int(2));
    }

    #[test]
    fn concat_and_id() {
        assert_eq!(
            ComputeOp::Concat
                .eval(&[Value::str("ab"), Value::str("cd")])
                .unwrap(),
            Value::str("abcd")
        );
        assert_eq!(ComputeOp::Id.eval(&[Value::Int(7)]).unwrap(), Value::Int(7));
    }

    #[test]
    fn arity_is_enforced() {
        assert!(matches!(
            ComputeOp::Add.eval(&[Value::Int(1)]),
            Err(EvalError::ArityMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
        assert!(ComputeOp::Not.eval(&[]).is_err());
        assert!(ComputeOp::Select.eval(&[Value::Bool(true)]).is_err());
    }

    #[test]
    fn type_errors_surface() {
        assert!(ComputeOp::Add
            .eval(&[Value::Bool(true), Value::Int(1)])
            .is_err());
        assert!(ComputeOp::And
            .eval(&[Value::Int(1), Value::Bool(true)])
            .is_err());
        assert!(ComputeOp::Concat
            .eval(&[Value::Int(1), Value::str("x")])
            .is_err());
    }

    #[test]
    fn wrapping_semantics() {
        assert_eq!(
            ComputeOp::Add
                .eval(&[Value::Int(i64::MAX), Value::Int(1)])
                .unwrap(),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn open_count_includes_cond_branches() {
        const C: ObjClass = ObjClass::new(0, "C");
        let open = |v: u16| Stmt::Open {
            var: VarId(v),
            class: C,
            index: Operand::from(0i64),
            mode: AccessMode::Read,
        };
        let p = Program {
            name: "t".into(),
            params: 0,
            vars: 3,
            stmts: vec![
                open(0),
                Stmt::Cond {
                    pred: Operand::from(true),
                    then_br: vec![open(1)],
                    else_br: vec![open(2)],
                },
            ],
        };
        assert_eq!(p.open_count(), 3);
    }
}
