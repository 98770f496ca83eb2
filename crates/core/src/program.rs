//! Multi-threaded litmus programs and a fluent builder.

use std::fmt;

use crate::error::CoreError;
use crate::ids::{Loc, Reg, ThreadId, Value};
use crate::instr::{AddrExpr, FenceKind, Instruction, RegExpr};

/// One thread: a straight-line sequence of [`Instruction`]s.
///
/// Programs in the paper's class are loop-free (loops are unrolled, §2.1),
/// so a thread is simply a vector.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Thread {
    /// The instructions, in program order.
    pub instructions: Vec<Instruction>,
}

impl Thread {
    /// Number of memory-access instructions in the thread.
    #[must_use]
    pub fn access_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_access()).count()
    }
}

/// A parallel program: a fixed set of threads over shared locations.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Program {
    /// The threads. Index `i` is thread `T{i+1}`.
    pub threads: Vec<Thread>,
}

impl Program {
    /// Starts building a program.
    #[must_use]
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Total number of memory-access instructions (the quantity bounded by
    /// Theorem 1).
    #[must_use]
    pub fn access_count(&self) -> usize {
        self.threads.iter().map(Thread::access_count).sum()
    }

    /// All locations mentioned by literal address operands.
    #[must_use]
    pub fn locations(&self) -> Vec<Loc> {
        let mut locs = Vec::new();
        for thread in &self.threads {
            for instr in &thread.instructions {
                let addr = match instr {
                    Instruction::Read { addr, .. } | Instruction::Write { addr, .. } => {
                        Some(addr)
                    }
                    _ => None,
                };
                if let Some(AddrExpr::Loc(loc)) = addr {
                    if !locs.contains(loc) {
                        locs.push(*loc);
                    }
                }
                for expr in Self::exprs_of(instr) {
                    Self::collect_loc_addrs(expr, &mut locs);
                }
            }
        }
        locs.sort();
        locs
    }

    fn exprs_of(instr: &Instruction) -> Vec<&RegExpr> {
        match instr {
            Instruction::Write { val, .. } => vec![val],
            Instruction::Op { expr, .. } => vec![expr],
            Instruction::Branch { cond } => vec![cond],
            _ => vec![],
        }
    }

    fn collect_loc_addrs(expr: &RegExpr, locs: &mut Vec<Loc>) {
        match expr {
            RegExpr::LocAddr(loc) => {
                if !locs.contains(loc) {
                    locs.push(*loc);
                }
            }
            RegExpr::Add(a, b) | RegExpr::Sub(a, b) => {
                Self::collect_loc_addrs(a, locs);
                Self::collect_loc_addrs(b, locs);
            }
            RegExpr::Const(_) | RegExpr::Reg(_) => {}
        }
    }

    /// Statically validates the program:
    ///
    /// * every register is defined (by a read or an op) before use, within
    ///   its thread;
    /// * no register is defined twice (single-assignment keeps outcome
    ///   constraints unambiguous — the paper's tests obey this).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UndefinedRegister`] or
    /// [`CoreError::RegisterRedefined`] naming the offending thread.
    pub fn validate(&self) -> Result<(), CoreError> {
        for (t, thread) in self.threads.iter().enumerate() {
            let tid = ThreadId(u8::try_from(t).expect("thread count fits in u8"));
            let mut defined: Vec<Reg> = Vec::new();
            for instr in &thread.instructions {
                for reg in instr.uses() {
                    if !defined.contains(&reg) {
                        return Err(CoreError::UndefinedRegister { thread: tid, reg });
                    }
                }
                if let Some(reg) = instr.def() {
                    if defined.contains(&reg) {
                        return Err(CoreError::RegisterRedefined { thread: tid, reg });
                    }
                    defined.push(reg);
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (t, thread) in self.threads.iter().enumerate() {
            writeln!(f, "{}:", ThreadId(t as u8))?;
            for instr in &thread.instructions {
                writeln!(f, "  {instr}")?;
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`Program`].
///
/// # Examples
///
/// The store-buffering shape (paper Figure 3, test L7):
///
/// ```
/// use mcm_core::{Loc, Program, Reg, Value};
///
/// let program = Program::builder()
///     .thread()
///     .write(Loc::X, Value(1))
///     .read(Loc::Y, Reg(1))
///     .thread()
///     .write(Loc::Y, Value(1))
///     .read(Loc::X, Reg(2))
///     .build()
///     .unwrap();
/// assert_eq!(program.threads.len(), 2);
/// assert_eq!(program.access_count(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    threads: Vec<Thread>,
}

impl ProgramBuilder {
    /// Opens a new thread; subsequent instructions go to it.
    #[must_use]
    pub fn thread(mut self) -> Self {
        self.threads.push(Thread::default());
        self
    }

    fn current(&mut self) -> &mut Thread {
        assert!(
            !self.threads.is_empty(),
            "call .thread() before adding instructions"
        );
        self.threads.last_mut().expect("non-empty")
    }

    /// Appends an arbitrary instruction.
    #[must_use]
    pub fn instr(mut self, instruction: Instruction) -> Self {
        self.current().instructions.push(instruction);
        self
    }

    /// `read loc -> dst`.
    #[must_use]
    pub fn read(self, loc: Loc, dst: Reg) -> Self {
        self.instr(Instruction::Read {
            addr: AddrExpr::Loc(loc),
            dst,
        })
    }

    /// `read [addr_reg] -> dst` (register-indirect, for address deps).
    #[must_use]
    pub fn read_indirect(self, addr_reg: Reg, dst: Reg) -> Self {
        self.instr(Instruction::Read {
            addr: AddrExpr::Reg(addr_reg),
            dst,
        })
    }

    /// `write loc = value` (constant store).
    #[must_use]
    pub fn write(self, loc: Loc, value: Value) -> Self {
        self.instr(Instruction::Write {
            addr: AddrExpr::Loc(loc),
            val: RegExpr::Const(value),
        })
    }

    /// `write loc = expr` (store of a computed value).
    #[must_use]
    pub fn write_expr(self, loc: Loc, val: RegExpr) -> Self {
        self.instr(Instruction::Write {
            addr: AddrExpr::Loc(loc),
            val,
        })
    }

    /// A full fence.
    #[must_use]
    pub fn fence(self) -> Self {
        self.instr(Instruction::Fence(FenceKind::Full))
    }

    /// A special fence flavour (§3.3).
    #[must_use]
    pub fn special_fence(self, flavour: u8) -> Self {
        self.instr(Instruction::Fence(FenceKind::Special(flavour)))
    }

    /// `dst = expr`.
    #[must_use]
    pub fn op(self, dst: Reg, expr: RegExpr) -> Self {
        self.instr(Instruction::Op { dst, expr })
    }

    /// The paper's dependency idiom: `dst = src - src + value`.
    #[must_use]
    pub fn dep_const(self, dst: Reg, src: Reg, value: Value) -> Self {
        self.op(dst, RegExpr::dep_const(src, value))
    }

    /// The address-dependency idiom: `dst = src - src + &loc`.
    #[must_use]
    pub fn dep_addr(self, dst: Reg, src: Reg, loc: Loc) -> Self {
        self.op(dst, RegExpr::dep_addr(src, loc))
    }

    /// A control-dependency-only branch on `cond`.
    #[must_use]
    pub fn branch_on(self, cond: Reg) -> Self {
        self.instr(Instruction::Branch {
            cond: RegExpr::Reg(cond),
        })
    }

    /// Finishes and validates the program.
    ///
    /// # Errors
    ///
    /// Propagates [`Program::validate`] failures.
    pub fn build(self) -> Result<Program, CoreError> {
        let program = Program {
            threads: self.threads,
        };
        program.validate()?;
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_shape() {
        let p = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .fence()
            .read(Loc::Y, Reg(1))
            .thread()
            .write(Loc::Y, Value(2))
            .read(Loc::Y, Reg(2))
            .read(Loc::X, Reg(3))
            .build()
            .unwrap();
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.threads[0].instructions.len(), 3);
        assert_eq!(p.access_count(), 5);
        assert_eq!(p.locations(), vec![Loc::X, Loc::Y]);
    }

    #[test]
    fn undefined_register_is_rejected() {
        let err = Program::builder()
            .thread()
            .write_expr(Loc::X, RegExpr::Reg(Reg(1)))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::UndefinedRegister { .. }));
    }

    #[test]
    fn redefined_register_is_rejected() {
        let err = Program::builder()
            .thread()
            .read(Loc::X, Reg(1))
            .read(Loc::Y, Reg(1))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::RegisterRedefined { .. }));
    }

    #[test]
    fn dependency_idioms_validate() {
        let p = Program::builder()
            .thread()
            .read(Loc::X, Reg(1))
            .dep_const(Reg(2), Reg(1), Value(1))
            .write_expr(Loc::Y, RegExpr::Reg(Reg(2)))
            .build()
            .unwrap();
        assert_eq!(p.access_count(), 2);
    }

    #[test]
    fn locations_include_address_dependency_targets() {
        let p = Program::builder()
            .thread()
            .read(Loc::Y, Reg(1))
            .dep_addr(Reg(2), Reg(1), Loc::X)
            .read_indirect(Reg(2), Reg(3))
            .build()
            .unwrap();
        assert_eq!(p.locations(), vec![Loc::X, Loc::Y]);
    }

    #[test]
    fn display_is_readable() {
        let p = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .build()
            .unwrap();
        assert_eq!(p.to_string(), "T1:\n  write X = 1\n");
    }
}
