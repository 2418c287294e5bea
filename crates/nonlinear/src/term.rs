//! Global hash-consed term arena: dense `u32` term ids, flat evaluation
//! tapes, and stable constraint ids.
//!
//! Every [`Expr`] that enters the solver is *interned* here: structurally
//! equal terms map to the same [`TermId`], so structural equality becomes
//! id equality and every downstream cache can key on a 4-byte id instead
//! of hashing (or rendering) a whole tree. The arena is append-only and
//! process-global — ids handed out once stay valid for the life of the
//! process, which is exactly what makes them usable as *cross-solve*
//! cache keys (the service's structural problem key).
//!
//! Per term the arena memoises, lazily and exactly once:
//!
//! * a [`TermTape`] — the postorder flattening the interval hot paths
//!   (interval evaluation, HC4 forward/backward) iterate instead of
//!   recursing over `Box` nodes, together with precomputed per-term facts
//!   (variable set, trig-blindness, affine view, constant enclosures);
//! * its simplification, and its simplified symbolic partial derivatives
//!   keyed on `(term, var)` in an identity-hash map. Both are computed
//!   once per *arena node*: a node's simplification applies one rule of
//!   [`Expr::simplify`] to its already simplified operands, and its
//!   derivative combines its operands' memoised derivatives by
//!   [`Expr::derivative`]'s rule, then simplifies. A subterm shared by
//!   several terms, or repeated inside one, is differentiated once, and
//!   the result is the term that differentiating and simplifying the
//!   expanded tree would intern. The walks use an explicit stack, so
//!   nesting depth costs no call stack. Newton compilation and the local
//!   search stop re-deriving the same gradients on every solve.
//!
//! A tape expands shared subterms back into tree form. The penalty search
//! instead evaluates many terms at one point, so it runs on a
//! [`DagProgram`] ([`compile`], [`compile_with_prefix`]): one
//! straight-line instruction per *distinct* arena node reachable from a
//! set of roots, so each shared subterm is computed once per point.
//!
//! Interning takes the single global mutex; the hot paths never do — a
//! constraint carries its `Arc<TermTape>`, fetched once at intern time.
//!
//! The id maps use a no-op hasher: ids are dense and already well mixed
//! by a splitmix64 finalizer, so re-hashing them would be pure waste.

use crate::expr::{Expr, VarId};
use absolver_linear::{CmpOp, LinExpr};
use absolver_num::{Interval, Rational};
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Dense identifier of an interned term. Two terms are structurally equal
/// iff their ids are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    /// The id as a dense array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw 32-bit id (for fingerprint mixing).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Dense identifier of an interned constraint `term ⋈ rhs`. Two
/// constraints are structurally equal iff their ids are equal; unlike a
/// bare [`TermId`] the id distinguishes `x² ≤ 4` from `x² = 4`, which is
/// what makes it a sound cache-key component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintId(u32);

impl ConstraintId {
    /// The raw 32-bit id (a compact hash-map key).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A flat arena node: one [`Expr`] constructor with interned children.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    Const(Rational),
    Var(VarId),
    Neg(TermId),
    Add(TermId, TermId),
    Sub(TermId, TermId),
    Mul(TermId, TermId),
    Div(TermId, TermId),
    Pow(TermId, i32),
    Sin(TermId),
    Cos(TermId),
    Exp(TermId),
    Ln(TermId),
    Sqrt(TermId),
    Abs(TermId),
}

/// One postorder tape instruction. Children of a binary operator are the
/// two preceding subtrees (`right = idx − 1`, `left = idx − 1 −
/// size[right]`), exactly the addressing the HC4 scratch always used —
/// the tape makes that flat form persistent and shared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapeOp {
    /// Constant; payload indexes the tape's constant tables.
    Const(u32),
    /// Variable reference.
    Var(u32),
    /// Unary negation.
    Neg,
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Integer power.
    Pow(i32),
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
}

/// The flat, immutable evaluation form of one interned term: postorder
/// ops plus everything the solver pipeline repeatedly asked the old tree
/// for (subtree sizes, variable set, constant enclosures, affine view).
/// Built once per term and shared via `Arc` by every constraint over it.
#[derive(Debug)]
pub struct TermTape {
    /// Postorder instructions; the last one is the root.
    pub ops: Vec<TapeOp>,
    /// Subtree size (node count) per instruction, for child addressing.
    pub size: Vec<u32>,
    /// Exact rational constants, indexed by [`TapeOp::Const`].
    pub consts: Vec<Rational>,
    /// `f64` renderings of [`TermTape::consts`].
    pub const_f64: Vec<f64>,
    /// Sound interval enclosures of [`TermTape::consts`] (a point when
    /// exactly representable, one ulp of widening otherwise).
    pub const_iv: Vec<Interval>,
    /// Sorted, deduplicated variables the term mentions.
    pub vars: Vec<VarId>,
    /// Largest variable id mentioned, if any.
    pub max_var: Option<VarId>,
    /// Whether the term contains a trigonometric subterm (HC4's backward
    /// pass cannot invert those, so the cascade schedules BC3).
    pub has_trig: bool,
    /// The affine view `Σ aᵢ·xᵢ + c`, when the term is linear.
    pub affine: Option<(LinExpr, Rational)>,
}

thread_local! {
    static F64_STACK: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
    static IV_STACK: Cell<Vec<Interval>> = const { Cell::new(Vec::new()) };
    /// Terms this thread interned that were new to the arena.
    static LOCAL_INTERNED: Cell<u64> = const { Cell::new(0) };
    /// Intern requests this thread resolved to an existing id.
    static LOCAL_DEDUP: Cell<u64> = const { Cell::new(0) };
}

impl TermTape {
    /// Number of tape instructions (= tree nodes of the expanded term).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty (never true for an interned term).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether the term is affine (see [`TermTape::affine`]).
    pub fn is_linear(&self) -> bool {
        self.affine.is_some()
    }

    /// Evaluates in `f64` arithmetic by one linear pass over the tape;
    /// IEEE semantics throughout, out-of-range variables read as NaN.
    /// Matches `Expr::eval_f64` on the rebuilt tree exactly.
    pub fn eval_f64(&self, values: &[f64]) -> f64 {
        let mut stack = F64_STACK.take();
        stack.clear();
        for op in &self.ops {
            let v = match *op {
                TapeOp::Const(i) => self.const_f64[i as usize],
                TapeOp::Var(v) => values.get(v as usize).copied().unwrap_or(f64::NAN),
                TapeOp::Neg => -pop(&mut stack),
                TapeOp::Add => {
                    let b = pop(&mut stack);
                    pop(&mut stack) + b
                }
                TapeOp::Sub => {
                    let b = pop(&mut stack);
                    pop(&mut stack) - b
                }
                TapeOp::Mul => {
                    let b = pop(&mut stack);
                    pop(&mut stack) * b
                }
                TapeOp::Div => {
                    let b = pop(&mut stack);
                    pop(&mut stack) / b
                }
                TapeOp::Pow(n) => pop(&mut stack).powi(n),
                TapeOp::Sin => pop(&mut stack).sin(),
                TapeOp::Cos => pop(&mut stack).cos(),
                TapeOp::Exp => pop(&mut stack).exp(),
                TapeOp::Ln => pop(&mut stack).ln(),
                TapeOp::Sqrt => pop(&mut stack).sqrt(),
                TapeOp::Abs => pop(&mut stack).abs(),
            };
            stack.push(v);
        }
        let out = pop(&mut stack);
        F64_STACK.set(stack);
        out
    }

    /// Sound interval evaluation by one linear pass over the tape.
    /// Matches `Expr::eval_interval` on the rebuilt tree exactly
    /// (including the constant-enclosure widening rule).
    pub fn eval_interval(&self, boxes: &[Interval]) -> Interval {
        let mut stack = IV_STACK.take();
        stack.clear();
        for op in &self.ops {
            let iv = self.step_interval(*op, boxes, &mut stack);
            stack.push(iv);
        }
        let out = stack.pop().expect("tape is nonempty");
        IV_STACK.set(stack);
        out
    }

    /// One interval-interpretation step: consumes the operand(s) of `op`
    /// from `stack` and returns the result. Shared between
    /// [`TermTape::eval_interval`] and the HC4 forward pass.
    #[inline]
    pub fn step_interval(
        &self,
        op: TapeOp,
        boxes: &[Interval],
        stack: &mut Vec<Interval>,
    ) -> Interval {
        match op {
            TapeOp::Const(i) => self.const_iv[i as usize],
            TapeOp::Var(v) => boxes.get(v as usize).copied().unwrap_or(Interval::ENTIRE),
            TapeOp::Neg => pop(stack).neg(),
            TapeOp::Add => {
                let b = pop(stack);
                pop(stack).add(b)
            }
            TapeOp::Sub => {
                let b = pop(stack);
                pop(stack).sub(b)
            }
            TapeOp::Mul => {
                let b = pop(stack);
                pop(stack).mul(b)
            }
            TapeOp::Div => {
                let b = pop(stack);
                pop(stack).div(b)
            }
            TapeOp::Pow(n) => pop(stack).powi(n),
            TapeOp::Sin => pop(stack).sin(),
            TapeOp::Cos => pop(stack).cos(),
            TapeOp::Exp => pop(stack).exp(),
            TapeOp::Ln => pop(stack).ln(),
            TapeOp::Sqrt => pop(stack).sqrt(),
            TapeOp::Abs => pop(stack).abs(),
        }
    }
}

/// One [`DagProgram`] instruction: an arena node whose operands are the
/// slots of earlier instructions.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DagOp {
    Const(f64),
    Var(u32),
    Neg(u32),
    Add(u32, u32),
    Sub(u32, u32),
    Mul(u32, u32),
    Div(u32, u32),
    Pow(u32, i32),
    Sin(u32),
    Cos(u32),
    Exp(u32),
    Ln(u32),
    Sqrt(u32),
    Abs(u32),
}

/// A straight-line program over the distinct arena nodes reachable from
/// a set of root terms ([`compile`]): one instruction per node, operands
/// before their users, so a subterm shared by several roots (or repeated
/// inside one) is evaluated once per point.
///
/// A program compiled by [`compile_with_prefix`] begins with the
/// instructions of its head roots. [`DagProgram::eval_prefix`] evaluates
/// only those, and [`DagProgram::eval_suffix`] adds the tail's remaining
/// instructions at the same point, reading the head's slots for the
/// nodes both share.
///
/// Every instruction applies the same IEEE operation to the same operand
/// values as [`TermTape::eval_f64`], so each root's value is
/// bit-identical to its tape's, and NaN exactly when the tape's is. (A
/// NaN's sign and payload are not fixed: Rust leaves them unspecified.)
#[derive(Debug, Clone)]
pub struct DagProgram {
    ops: Vec<DagOp>,
    roots: Vec<u32>,
    /// Instructions of the head roots: `ops[..prefix]`.
    prefix: usize,
}

impl DagProgram {
    /// Number of instructions (= distinct nodes reachable from the roots).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions (no roots).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Evaluates every instruction at `point` into `slots` (cleared
    /// first; its capacity is reused, so a warm buffer never
    /// reallocates). Out-of-range variables read as NaN, as on a tape.
    /// Read the results with [`DagProgram::root`].
    pub fn eval_f64(&self, point: &[f64], slots: &mut Vec<f64>) {
        self.eval_prefix(point, slots);
        self.eval_suffix(point, slots);
    }

    /// Evaluates the head's instructions at `point` into `slots` (cleared
    /// first): afterwards the head roots can be read.
    pub fn eval_prefix(&self, point: &[f64], slots: &mut Vec<f64>) {
        slots.clear();
        run(&self.ops[..self.prefix], point, slots);
    }

    /// Evaluates the remaining instructions at `point` into `slots`,
    /// which must hold exactly [`DagProgram::eval_prefix`]'s slots at the
    /// same point: afterwards every root can be read.
    pub fn eval_suffix(&self, point: &[f64], slots: &mut Vec<f64>) {
        debug_assert_eq!(slots.len(), self.prefix, "suffix needs the prefix slots");
        run(&self.ops[self.prefix..], point, slots);
    }

    /// The value of root `i` in `slots` filled by [`DagProgram::eval_f64`]
    /// (or, for a head root, by [`DagProgram::eval_prefix`]).
    pub fn root(&self, slots: &[f64], i: usize) -> f64 {
        slots[self.roots[i] as usize]
    }
}

/// Evaluates `ops` at `point`, appending one slot per instruction to
/// `slots`, whose earlier slots the operands index.
fn run(ops: &[DagOp], point: &[f64], slots: &mut Vec<f64>) {
    for op in ops {
        let at = |s: u32| slots[s as usize];
        let v = match *op {
            DagOp::Const(c) => c,
            DagOp::Var(v) => point.get(v as usize).copied().unwrap_or(f64::NAN),
            DagOp::Neg(a) => -at(a),
            DagOp::Add(a, b) => at(a) + at(b),
            DagOp::Sub(a, b) => at(a) - at(b),
            DagOp::Mul(a, b) => at(a) * at(b),
            DagOp::Div(a, b) => at(a) / at(b),
            DagOp::Pow(a, n) => at(a).powi(n),
            DagOp::Sin(a) => at(a).sin(),
            DagOp::Cos(a) => at(a).cos(),
            DagOp::Exp(a) => at(a).exp(),
            DagOp::Ln(a) => at(a).ln(),
            DagOp::Sqrt(a) => at(a).sqrt(),
            DagOp::Abs(a) => at(a).abs(),
        };
        slots.push(v);
    }
}

#[inline]
fn pop<T: Copy>(stack: &mut Vec<T>) -> T {
    stack.pop().expect("tape operand stack underflow")
}

/// splitmix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// No-op re-hash for maps whose keys are already splitmix-mixed ids.
#[derive(Debug, Default, Clone)]
struct IdentityState;

struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl BuildHasher for IdentityState {
    type Hasher = IdentityHasher;

    fn build_hasher(&self) -> IdentityHasher {
        IdentityHasher(0)
    }
}

type IdMap<V> = HashMap<u64, V, IdentityState>;

/// Cumulative arena-wide counters (process lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Unique terms stored (== intern requests that created a node).
    pub terms: u64,
    /// Unique constraints stored.
    pub constraints: u64,
    /// Intern requests answered by an existing id.
    pub dedup_hits: u64,
}

/// The global interning table. Append-only: terms are tiny (one enum
/// variant + ids) and workloads intern a few thousand distinct ones, so
/// the arena stays far below every other cache in the process.
#[derive(Default)]
struct Arena {
    nodes: Vec<Node>,
    index: HashMap<Node, TermId>,
    /// Lazily built tapes, one slot per term.
    tapes: Vec<Option<Arc<TermTape>>>,
    /// Lazily computed simplifications, one slot per term.
    simplified: Vec<Option<TermId>>,
    /// Simplified-derivative memo keyed on mixed `(term, var)`.
    derivs: IdMap<TermId>,
    /// Constraint table: `(term, op, rhs)` → dense id.
    constraints: HashMap<(TermId, CmpOp, Rational), ConstraintId>,
    dedup_hits: u64,
}

static ARENA: OnceLock<Mutex<Arena>> = OnceLock::new();

fn arena() -> &'static Mutex<Arena> {
    ARENA.get_or_init(Mutex::default)
}

fn lock() -> std::sync::MutexGuard<'static, Arena> {
    arena().lock().expect("term arena lock")
}

impl Arena {
    fn intern_node(&mut self, node: Node) -> TermId {
        if let Some(&id) = self.index.get(&node) {
            self.dedup_hits += 1;
            LOCAL_DEDUP.with(|c| c.set(c.get() + 1));
            return id;
        }
        let id = TermId(u32::try_from(self.nodes.len()).expect("term arena overflow"));
        self.nodes.push(node.clone());
        self.tapes.push(None);
        self.simplified.push(None);
        self.index.insert(node, id);
        LOCAL_INTERNED.with(|c| c.set(c.get() + 1));
        id
    }

    fn intern_expr(&mut self, e: &Expr) -> TermId {
        let node = match e {
            Expr::Const(c) => Node::Const(c.clone()),
            Expr::Var(v) => Node::Var(*v),
            Expr::Neg(a) => Node::Neg(self.intern_expr(a)),
            Expr::Add(a, b) => Node::Add(self.intern_expr(a), self.intern_expr(b)),
            Expr::Sub(a, b) => Node::Sub(self.intern_expr(a), self.intern_expr(b)),
            Expr::Mul(a, b) => Node::Mul(self.intern_expr(a), self.intern_expr(b)),
            Expr::Div(a, b) => Node::Div(self.intern_expr(a), self.intern_expr(b)),
            Expr::Pow(a, n) => Node::Pow(self.intern_expr(a), *n),
            Expr::Sin(a) => Node::Sin(self.intern_expr(a)),
            Expr::Cos(a) => Node::Cos(self.intern_expr(a)),
            Expr::Exp(a) => Node::Exp(self.intern_expr(a)),
            Expr::Ln(a) => Node::Ln(self.intern_expr(a)),
            Expr::Sqrt(a) => Node::Sqrt(self.intern_expr(a)),
            Expr::Abs(a) => Node::Abs(self.intern_expr(a)),
        };
        self.intern_node(node)
    }

    fn rebuild(&self, id: TermId) -> Expr {
        match &self.nodes[id.index()] {
            Node::Const(c) => Expr::Const(c.clone()),
            Node::Var(v) => Expr::Var(*v),
            Node::Neg(a) => Expr::Neg(Box::new(self.rebuild(*a))),
            Node::Add(a, b) => Expr::Add(Box::new(self.rebuild(*a)), Box::new(self.rebuild(*b))),
            Node::Sub(a, b) => Expr::Sub(Box::new(self.rebuild(*a)), Box::new(self.rebuild(*b))),
            Node::Mul(a, b) => Expr::Mul(Box::new(self.rebuild(*a)), Box::new(self.rebuild(*b))),
            Node::Div(a, b) => Expr::Div(Box::new(self.rebuild(*a)), Box::new(self.rebuild(*b))),
            Node::Pow(a, n) => Expr::Pow(Box::new(self.rebuild(*a)), *n),
            Node::Sin(a) => Expr::Sin(Box::new(self.rebuild(*a))),
            Node::Cos(a) => Expr::Cos(Box::new(self.rebuild(*a))),
            Node::Exp(a) => Expr::Exp(Box::new(self.rebuild(*a))),
            Node::Ln(a) => Expr::Ln(Box::new(self.rebuild(*a))),
            Node::Sqrt(a) => Expr::Sqrt(Box::new(self.rebuild(*a))),
            Node::Abs(a) => Expr::Abs(Box::new(self.rebuild(*a))),
        }
    }

    /// Emits the postorder tape of `id`, returning the subtree size.
    /// Sharing in the arena DAG is expanded back to tree form so the tape
    /// matches the original expression node-for-node.
    fn emit(
        &self,
        id: TermId,
        ops: &mut Vec<TapeOp>,
        size: &mut Vec<u32>,
        consts: &mut Vec<Rational>,
    ) -> u32 {
        let n = match self.nodes[id.index()].clone() {
            Node::Const(c) => {
                let slot = u32::try_from(consts.len()).expect("constant table overflow");
                consts.push(c);
                ops.push(TapeOp::Const(slot));
                1
            }
            Node::Var(v) => {
                ops.push(TapeOp::Var(u32::try_from(v).expect("variable id fits u32")));
                1
            }
            Node::Neg(a) => self.emit_unary(a, TapeOp::Neg, ops, size, consts),
            Node::Pow(a, p) => self.emit_unary(a, TapeOp::Pow(p), ops, size, consts),
            Node::Sin(a) => self.emit_unary(a, TapeOp::Sin, ops, size, consts),
            Node::Cos(a) => self.emit_unary(a, TapeOp::Cos, ops, size, consts),
            Node::Exp(a) => self.emit_unary(a, TapeOp::Exp, ops, size, consts),
            Node::Ln(a) => self.emit_unary(a, TapeOp::Ln, ops, size, consts),
            Node::Sqrt(a) => self.emit_unary(a, TapeOp::Sqrt, ops, size, consts),
            Node::Abs(a) => self.emit_unary(a, TapeOp::Abs, ops, size, consts),
            Node::Add(a, b) => self.emit_binary(a, b, TapeOp::Add, ops, size, consts),
            Node::Sub(a, b) => self.emit_binary(a, b, TapeOp::Sub, ops, size, consts),
            Node::Mul(a, b) => self.emit_binary(a, b, TapeOp::Mul, ops, size, consts),
            Node::Div(a, b) => self.emit_binary(a, b, TapeOp::Div, ops, size, consts),
        };
        size.push(n);
        n
    }

    fn emit_unary(
        &self,
        a: TermId,
        op: TapeOp,
        ops: &mut Vec<TapeOp>,
        size: &mut Vec<u32>,
        consts: &mut Vec<Rational>,
    ) -> u32 {
        let n = self.emit(a, ops, size, consts);
        ops.push(op);
        n + 1
    }

    fn emit_binary(
        &self,
        a: TermId,
        b: TermId,
        op: TapeOp,
        ops: &mut Vec<TapeOp>,
        size: &mut Vec<u32>,
        consts: &mut Vec<Rational>,
    ) -> u32 {
        let n = self.emit(a, ops, size, consts) + self.emit(b, ops, size, consts);
        ops.push(op);
        n + 1
    }

    fn build_tape(&self, id: TermId) -> TermTape {
        let mut ops = Vec::new();
        let mut size = Vec::new();
        let mut consts = Vec::new();
        self.emit(id, &mut ops, &mut size, &mut consts);
        let const_f64: Vec<f64> = consts.iter().map(Rational::to_f64).collect();
        let const_iv: Vec<Interval> = consts
            .iter()
            .zip(&const_f64)
            .map(|(c, &v)| {
                // Exactly representable constants stay points; one ulp of
                // widening covers rational→double rounding otherwise.
                if Rational::from_f64(v).as_ref() == Some(c) {
                    Interval::point(v)
                } else {
                    Interval::checked(v.next_down(), v.next_up())
                }
            })
            .collect();
        let mut vars: Vec<VarId> = ops
            .iter()
            .filter_map(|op| match op {
                TapeOp::Var(v) => Some(*v as VarId),
                _ => None,
            })
            .collect();
        vars.sort_unstable();
        vars.dedup();
        let max_var = vars.last().copied();
        let has_trig = ops.iter().any(|op| matches!(op, TapeOp::Sin | TapeOp::Cos));
        let affine = self.rebuild(id).to_affine();
        TermTape {
            ops,
            size,
            consts,
            const_f64,
            const_iv,
            vars,
            max_var,
            has_trig,
            affine,
        }
    }

    /// Appends the instruction of `id` (and, first, of its operands) to
    /// `ops` unless an earlier root already reached it; returns its slot.
    fn emit_dag(&self, id: TermId, slot_of: &mut HashMap<u32, u32>, ops: &mut Vec<DagOp>) -> u32 {
        if let Some(&slot) = slot_of.get(&id.raw()) {
            return slot;
        }
        let mut arg = |x: TermId| self.emit_dag(x, slot_of, ops);
        let op = match &self.nodes[id.index()] {
            Node::Const(c) => DagOp::Const(c.to_f64()),
            Node::Var(v) => DagOp::Var(u32::try_from(*v).expect("variable id fits u32")),
            Node::Neg(a) => DagOp::Neg(arg(*a)),
            Node::Add(a, b) => DagOp::Add(arg(*a), arg(*b)),
            Node::Sub(a, b) => DagOp::Sub(arg(*a), arg(*b)),
            Node::Mul(a, b) => DagOp::Mul(arg(*a), arg(*b)),
            Node::Div(a, b) => DagOp::Div(arg(*a), arg(*b)),
            Node::Pow(a, n) => DagOp::Pow(arg(*a), *n),
            Node::Sin(a) => DagOp::Sin(arg(*a)),
            Node::Cos(a) => DagOp::Cos(arg(*a)),
            Node::Exp(a) => DagOp::Exp(arg(*a)),
            Node::Ln(a) => DagOp::Ln(arg(*a)),
            Node::Sqrt(a) => DagOp::Sqrt(arg(*a)),
            Node::Abs(a) => DagOp::Abs(arg(*a)),
        };
        let slot = u32::try_from(ops.len()).expect("program slot overflow");
        ops.push(op);
        slot_of.insert(id.raw(), slot);
        slot
    }

    fn tape(&mut self, id: TermId) -> Arc<TermTape> {
        if let Some(t) = &self.tapes[id.index()] {
            return Arc::clone(t);
        }
        let tape = Arc::new(self.build_tape(id));
        self.tapes[id.index()] = Some(Arc::clone(&tape));
        tape
    }

    /// Calls `visit` on every node of the DAG under `root` that `done`
    /// does not yet hold, operands before their users. The walk keeps its
    /// own stack, so a deeply nested term needs no call stack.
    fn walk(
        &mut self,
        root: TermId,
        done: impl Fn(&Arena, TermId) -> bool,
        mut visit: impl FnMut(&mut Arena, TermId),
    ) {
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if done(self, id) {
                continue;
            }
            if expanded {
                visit(self, id);
                continue;
            }
            stack.push((id, true));
            let (a, b) = operands(&self.nodes[id.index()]);
            stack.extend(
                [b, a]
                    .into_iter()
                    .flatten()
                    .filter(|&x| !done(self, x))
                    .map(|x| (x, false)),
            );
        }
    }

    /// The simplification of `id` — the term [`Expr::simplify`] gives
    /// its rebuilt tree — memoised per node.
    fn simplify(&mut self, id: TermId) -> TermId {
        self.walk(
            id,
            |a, x| a.simplified[x.index()].is_some(),
            |a, x| {
                let s = match &a.nodes[x.index()] {
                    Node::Const(_) | Node::Var(_) => x,
                    node => {
                        let node = map_operands(node.clone(), |y| {
                            a.simplified[y.index()].expect("operands first")
                        });
                        a.simplify_node(node)
                    }
                };
                a.simplified[x.index()] = Some(s);
            },
        );
        self.simplified[id.index()].expect("walk visits the root")
    }

    /// One rule of [`Expr::simplify`] (the mode that does not keep
    /// negative zeros) applied to a node whose operands are already
    /// simplified; interns the result. In the arena the rule's structural
    /// comparison of two operands is a comparison of ids.
    fn simplify_node(&mut self, node: Node) -> TermId {
        let one = Rational::one();
        let node = match node {
            Node::Neg(a) => match &self.nodes[a.index()] {
                Node::Const(c) => Node::Const(-c),
                Node::Neg(inner) => return *inner,
                _ => Node::Neg(a),
            },
            Node::Add(a, b) => match (self.constant(a), self.constant(b)) {
                (Some(x), Some(y)) => Node::Const(x + y),
                (Some(x), _) if x.is_zero() => return b,
                (_, Some(y)) if y.is_zero() => return a,
                _ => Node::Add(a, b),
            },
            Node::Sub(a, b) => match (self.constant(a), self.constant(b)) {
                (Some(x), Some(y)) => Node::Const(x - y),
                (_, Some(y)) if y.is_zero() => return a,
                _ => Node::Sub(a, b),
            },
            Node::Mul(a, b) => match (self.constant(a), self.constant(b)) {
                (Some(x), Some(y)) => Node::Const(x * y),
                (Some(x), _) | (_, Some(x)) if x.is_zero() => Node::Const(Rational::zero()),
                (Some(x), _) if *x == one => return b,
                (_, Some(y)) if *y == one => return a,
                _ if a == b => Node::Pow(a, 2),
                _ => Node::Mul(a, b),
            },
            Node::Div(a, b) => match (self.constant(a), self.constant(b)) {
                (Some(x), Some(y)) if !y.is_zero() => Node::Const(x / y),
                (_, Some(y)) if *y == one => return a,
                _ => Node::Div(a, b),
            },
            Node::Pow(_, 0) => Node::Const(one),
            Node::Pow(a, 1) => return a,
            Node::Pow(a, n) => match self.constant(a) {
                Some(c) if n > 0 => Node::Const(c.powi(n)),
                _ => Node::Pow(a, n),
            },
            Node::Abs(a) => match self.constant(a) {
                Some(c) => Node::Const(c.abs()),
                None => Node::Abs(a),
            },
            node => node,
        };
        self.intern_node(node)
    }

    /// The constant `id` stands for, if it is one.
    fn constant(&self, id: TermId) -> Option<&Rational> {
        match &self.nodes[id.index()] {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The simplified partial derivative `∂id/∂v`: the term that
    /// `Expr::derivative` then `Expr::simplify` give on the rebuilt tree,
    /// computed once per `(node, v)` from the operands' memoised
    /// derivatives and simplifications.
    fn derivative(&mut self, id: TermId, v: VarId) -> TermId {
        if let Some(&d) = self.derivs.get(&deriv_key(id, v)) {
            return d;
        }
        self.simplify(id);
        self.walk(
            id,
            |a, x| a.derivs.contains_key(&deriv_key(x, v)),
            |a, x| {
                let d = a.derive_node(x, v);
                a.derivs.insert(deriv_key(x, v), d);
            },
        );
        self.derivs[&deriv_key(id, v)]
    }

    /// `∂id/∂v` by `Expr::derivative`'s rule for the node `id`, each new
    /// node simplified as [`Arena::simplify_node`] does. The operands'
    /// derivatives and simplifications are already memoised. A chain rule
    /// whose product a zero inner derivative makes zero answers zero
    /// before it interns the outer factor it would discard.
    fn derive_node(&mut self, id: TermId, v: VarId) -> TermId {
        let d = |a: &Arena, x: TermId| a.derivs[&deriv_key(x, v)];
        let s = |a: &Arena, x: TermId| a.simplified[x.index()].expect("simplified first");
        let k = |a: &mut Arena, n: i64| a.intern_node(Node::Const(Rational::from_int(n)));
        let zero_inner = |a: &Arena, e: TermId| a.constant(d(a, e)).is_some_and(Rational::is_zero);
        match self.nodes[id.index()].clone() {
            Node::Pow(e, _) | Node::Sin(e) | Node::Cos(e) | Node::Exp(e) if zero_inner(self, e) => {
                k(self, 0)
            }
            Node::Const(_) => k(self, 0),
            Node::Var(x) => k(self, i64::from(x == v)),
            Node::Neg(a) => self.simplify_node(Node::Neg(d(self, a))),
            Node::Add(a, b) => self.simplify_node(Node::Add(d(self, a), d(self, b))),
            Node::Sub(a, b) => self.simplify_node(Node::Sub(d(self, a), d(self, b))),
            Node::Mul(a, b) => {
                let l = self.simplify_node(Node::Mul(d(self, a), s(self, b)));
                let r = self.simplify_node(Node::Mul(s(self, a), d(self, b)));
                self.simplify_node(Node::Add(l, r))
            }
            Node::Div(a, b) => {
                let l = self.simplify_node(Node::Mul(d(self, a), s(self, b)));
                let r = self.simplify_node(Node::Mul(s(self, a), d(self, b)));
                let num = self.simplify_node(Node::Sub(l, r));
                let den = self.simplify_node(Node::Mul(s(self, b), s(self, b)));
                self.simplify_node(Node::Div(num, den))
            }
            Node::Pow(e, n) => {
                let factor = k(self, i64::from(n));
                let power = self.simplify_node(Node::Pow(s(self, e), n - 1));
                let scaled = self.simplify_node(Node::Mul(factor, power));
                self.simplify_node(Node::Mul(scaled, d(self, e)))
            }
            Node::Sin(e) => {
                let outer = self.simplify_node(Node::Cos(s(self, e)));
                self.simplify_node(Node::Mul(outer, d(self, e)))
            }
            Node::Cos(e) => {
                let outer = self.simplify_node(Node::Sin(s(self, e)));
                let prod = self.simplify_node(Node::Mul(outer, d(self, e)));
                self.simplify_node(Node::Neg(prod))
            }
            Node::Exp(e) => {
                let outer = self.simplify_node(Node::Exp(s(self, e)));
                self.simplify_node(Node::Mul(outer, d(self, e)))
            }
            Node::Ln(e) => self.simplify_node(Node::Div(d(self, e), s(self, e))),
            Node::Sqrt(e) => {
                let two = k(self, 2);
                let root = self.simplify_node(Node::Sqrt(s(self, e)));
                let den = self.simplify_node(Node::Mul(two, root));
                self.simplify_node(Node::Div(d(self, e), den))
            }
            Node::Abs(e) => {
                let num = self.simplify_node(Node::Mul(s(self, e), d(self, e)));
                let den = self.simplify_node(Node::Abs(s(self, e)));
                self.simplify_node(Node::Div(num, den))
            }
        }
    }
}

/// The derivative memo's key of `(id, v)`.
fn deriv_key(id: TermId, v: VarId) -> u64 {
    mix(((id.raw() as u64) << 32) | (v as u64 & 0xffff_ffff))
}

/// The operands of `node`, left first.
fn operands(node: &Node) -> (Option<TermId>, Option<TermId>) {
    match *node {
        Node::Const(_) | Node::Var(_) => (None, None),
        Node::Neg(a)
        | Node::Pow(a, _)
        | Node::Sin(a)
        | Node::Cos(a)
        | Node::Exp(a)
        | Node::Ln(a)
        | Node::Sqrt(a)
        | Node::Abs(a) => (Some(a), None),
        Node::Add(a, b) | Node::Sub(a, b) | Node::Mul(a, b) | Node::Div(a, b) => (Some(a), Some(b)),
    }
}

/// `node` with each operand replaced by `f(operand)`.
fn map_operands(node: Node, mut f: impl FnMut(TermId) -> TermId) -> Node {
    match node {
        Node::Const(_) | Node::Var(_) => node,
        Node::Neg(a) => Node::Neg(f(a)),
        Node::Add(a, b) => Node::Add(f(a), f(b)),
        Node::Sub(a, b) => Node::Sub(f(a), f(b)),
        Node::Mul(a, b) => Node::Mul(f(a), f(b)),
        Node::Div(a, b) => Node::Div(f(a), f(b)),
        Node::Pow(a, n) => Node::Pow(f(a), n),
        Node::Sin(a) => Node::Sin(f(a)),
        Node::Cos(a) => Node::Cos(f(a)),
        Node::Exp(a) => Node::Exp(f(a)),
        Node::Ln(a) => Node::Ln(f(a)),
        Node::Sqrt(a) => Node::Sqrt(f(a)),
        Node::Abs(a) => Node::Abs(f(a)),
    }
}

/// Interns an expression, returning its dense id.
pub fn intern(e: &Expr) -> TermId {
    lock().intern_expr(e)
}

/// Interns an expression and returns its id together with its shared
/// evaluation tape (one lock acquisition for both).
pub fn intern_with_tape(e: &Expr) -> (TermId, Arc<TermTape>) {
    let mut a = lock();
    let id = a.intern_expr(e);
    let tape = a.tape(id);
    (id, tape)
}

/// Rebuilds the boxed expression tree of an interned term (cold paths:
/// pretty-printing, problem rendering, differential tests).
pub fn rebuild(id: TermId) -> Expr {
    lock().rebuild(id)
}

/// The shared evaluation tape of an interned term.
pub fn tape(id: TermId) -> Arc<TermTape> {
    lock().tape(id)
}

/// Compiles the straight-line program of `roots` (see [`DagProgram`])
/// under one acquisition of the arena lock.
pub fn compile(roots: &[TermId]) -> DagProgram {
    compile_with_prefix(roots, &[])
}

/// Compiles one program over the roots `head` then `tail` (root `i` of
/// the tail is root `head.len() + i`) whose first instructions are
/// exactly those of `compile(head)`, so the head roots can be evaluated
/// alone ([`DagProgram::eval_prefix`]) and the tail added later at the
/// same point ([`DagProgram::eval_suffix`]).
pub fn compile_with_prefix(head: &[TermId], tail: &[TermId]) -> DagProgram {
    let a = lock();
    let mut slot_of: HashMap<u32, u32> = HashMap::new();
    let mut ops = Vec::new();
    let mut roots: Vec<u32> = head
        .iter()
        .map(|&r| a.emit_dag(r, &mut slot_of, &mut ops))
        .collect();
    let prefix = ops.len();
    roots.extend(tail.iter().map(|&r| a.emit_dag(r, &mut slot_of, &mut ops)));
    DagProgram { ops, roots, prefix }
}

/// The simplified partial derivative `∂id/∂v` as an interned term —
/// memoised arena-wide, so gradients are derived once per `(term, var)`
/// for the whole process.
pub(crate) fn derivative(id: TermId, v: VarId) -> TermId {
    lock().derivative(id, v)
}

/// The simplified partial derivative `∂id/∂v` as an interned term with
/// its tape — memoised arena-wide, so gradients are derived once per
/// `(term, var)` for the whole process.
pub fn derivative_tape(id: TermId, v: VarId) -> (TermId, Arc<TermTape>) {
    let mut a = lock();
    let d = a.derivative(id, v);
    let tape = a.tape(d);
    (d, tape)
}

/// Interns a constraint `term ⋈ rhs`, returning its stable dense id.
pub fn intern_constraint(term: TermId, op: CmpOp, rhs: &Rational) -> ConstraintId {
    let mut a = lock();
    if let Some(&id) = a.constraints.get(&(term, op, rhs.clone())) {
        return id;
    }
    let id = ConstraintId(u32::try_from(a.constraints.len()).expect("constraint table overflow"));
    a.constraints.insert((term, op, rhs.clone()), id);
    id
}

/// Structural-sharing census over a set of root terms: returns
/// `(tree_nodes, distinct_nodes)` — the total node count of the
/// expression *trees* (every duplicate counted each time it appears)
/// versus the distinct arena nodes actually reachable. The gap between
/// the two is exactly the duplication hash-consing collapsed; reports
/// quote `1 − distinct/tree` as the dedup rate of a workload.
pub fn sharing(roots: &[TermId]) -> (u64, u64) {
    fn walk(a: &Arena, id: TermId, seen: &mut HashMap<u32, u64>) -> u64 {
        if let Some(&n) = seen.get(&id.raw()) {
            return n;
        }
        let (x, y) = operands(&a.nodes[id.index()]);
        let n = 1 + [x, y]
            .into_iter()
            .flatten()
            .map(|c| walk(a, c, seen))
            .sum::<u64>();
        seen.insert(id.raw(), n);
        n
    }
    let a = lock();
    let mut seen: HashMap<u32, u64> = HashMap::new();
    let tree: u64 = roots.iter().map(|&r| walk(&a, r, &mut seen)).sum();
    (tree, seen.len() as u64)
}

/// Cumulative arena-wide counters.
pub fn stats() -> ArenaStats {
    let a = lock();
    ArenaStats {
        terms: a.nodes.len() as u64,
        constraints: a.constraints.len() as u64,
        dedup_hits: a.dedup_hits,
    }
}

/// Cumulative `(terms_interned, dedup_hits)` of the *calling thread* —
/// callers diff two snapshots to attribute interning work to a solve
/// without double counting across parallel shards.
pub fn local_counters() -> (u64, u64) {
    (LOCAL_INTERNED.with(Cell::get), LOCAL_DEDUP.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    #[test]
    fn structural_equality_is_id_equality() {
        let a = intern(&(x() * y() + Expr::int(3)));
        let b = intern(&(x() * y() + Expr::int(3)));
        let c = intern(&(y() * x() + Expr::int(3)));
        assert_eq!(a, b, "structurally equal terms share an id");
        assert_ne!(a, c, "operand order is part of the structure");
    }

    #[test]
    fn rebuild_round_trips() {
        let e = (x().sin() + Expr::constant("3.5".parse().unwrap()) / (Expr::int(4) - y())).pow(2);
        let id = intern(&e);
        assert_eq!(rebuild(id), e);
        assert_eq!(intern(&rebuild(id)), id);
    }

    #[test]
    fn tape_matches_tree_semantics() {
        let e = (x() * y() + Expr::int(1)) / (x() - y());
        let t = tape(intern(&e));
        let point = [1.5, 3.5];
        assert_eq!(t.eval_f64(&point), e.eval_f64(&point));
        let bx = [Interval::new(1.0, 2.0), Interval::new(3.0, 4.0)];
        assert_eq!(t.eval_interval(&bx), e.eval_interval(&bx));
        // Out-of-range variable: NaN / ENTIRE, as on the tree.
        assert!(t.eval_f64(&[1.0]).is_nan());
        assert_eq!(
            t.eval_interval(&[Interval::new(0.0, 1.0)]),
            e.eval_interval(&[Interval::new(0.0, 1.0)])
        );
    }

    #[test]
    fn tape_precomputed_facts() {
        let e = Expr::var(5).sin() + x();
        let t = tape(intern(&e));
        assert_eq!(t.vars, vec![0, 5]);
        assert_eq!(t.max_var, Some(5));
        assert!(t.has_trig);
        assert!(!t.is_linear());
        let lin = tape(intern(&(Expr::int(2) * x() + Expr::int(1))));
        assert!(lin.is_linear());
        assert!(!lin.has_trig);
    }

    #[test]
    fn tape_size_addressing() {
        // (x + y) * 2: postorder [x, y, +, 2, *]; size of the right child
        // of the root (the constant) is 1, left child (x + y) is 3.
        let e = (x() + y()) * Expr::int(2);
        let t = tape(intern(&e));
        assert_eq!(t.len(), 5);
        let root = t.len() - 1;
        let right = root - 1;
        assert_eq!(t.size[right], 1);
        let left = right - t.size[right] as usize;
        assert_eq!(t.size[left], 3);
        assert_eq!(t.size[root], 5);
    }

    #[test]
    fn dag_program_evaluates_shared_nodes_once() {
        let xy = x() * y();
        let e = xy.clone() + xy.clone() * Expr::int(2);
        let f = xy.sin();
        let ids = [intern(&e), intern(&f)];
        let p = compile(&ids);
        // x, y, x·y, 2, x·y·2, the sum and sin(x·y): x·y is shared within
        // `e` and across the roots, where `e`'s tape repeats it.
        assert_eq!(p.len(), 7);
        assert_eq!(tape(ids[0]).len(), 9);
        assert_eq!(sharing(&ids), (9 + 4, 7));
        let mut slots = Vec::new();
        p.eval_f64(&[1.5, -2.0], &mut slots);
        assert_eq!(p.root(&slots, 0), e.eval_f64(&[1.5, -2.0]));
        assert_eq!(p.root(&slots, 1), f.eval_f64(&[1.5, -2.0]));
        // The buffer is reused: a second point overwrites every slot.
        p.eval_f64(&[0.5, 4.0], &mut slots);
        assert_eq!(slots.len(), 7);
        assert_eq!(p.root(&slots, 1), f.eval_f64(&[0.5, 4.0]));
    }

    #[test]
    fn derivative_memo_agrees_with_legacy() {
        let e = x().sin() / (x() + Expr::int(2));
        let id = intern(&e);
        let (d1, dtape) = derivative_tape(id, 0);
        let (d2, _) = derivative_tape(id, 0);
        assert_eq!(d1, d2, "memo must return the same id");
        let legacy = e.derivative(0).simplify();
        assert_eq!(rebuild(d1), legacy);
        for &v in &[0.3, 1.0, 2.5] {
            assert_eq!(dtape.eval_f64(&[v]), legacy.eval_f64(&[v]));
        }
    }

    /// A chain rule whose inner derivative is zero answers zero without
    /// interning the outer factor: `∂/∂y` of `sin x + x³ + exp x + y`
    /// interns at most the constants 0 and 1, not `cos x`, `x²` or
    /// `3 · x²`. The variables are used by no other test, so those nodes
    /// would be new to the arena.
    #[test]
    fn a_zero_inner_derivative_interns_no_outer_factor() {
        let (x, y) = (Expr::var(7919), Expr::var(7920));
        let e = x.clone().sin() + x.clone().pow(3) + x.exp() + y;
        let id = intern(&e);
        let before = local_counters().0;
        let d = derivative(id, 7920);
        assert!(local_counters().0 - before <= 2);
        assert_eq!(rebuild(d), e.derivative(7920).simplify());
        assert_eq!(rebuild(d), Expr::int(1));
    }

    /// Terms nested 20 000 levels deep are interned on a thread with a
    /// large stack (interning recurses), then differentiated on a thread
    /// with a 256 KiB stack: the per-node walks keep their own stack.
    #[test]
    fn deep_terms_differentiate_on_a_small_stack() {
        const DEPTH: usize = 20_000;
        let (sum, wave) = std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(|| {
                // ((x + 1) + 1) + … and sin(… sin(sin(x) + y) + y …) + y.
                let (mut sum, mut wave) = (x(), x());
                for _ in 0..DEPTH {
                    sum = sum + Expr::int(1);
                    wave = wave.sin() + y();
                }
                (intern(&sum), intern(&wave))
            })
            .expect("spawn")
            .join()
            .expect("interning on a large stack");
        let (d_sum, d_wave_x, d_wave_y) = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || {
                let d = (derivative(sum, 0), derivative(wave, 0), derivative(wave, 1));
                assert_eq!(derivative(wave, 0), d.1, "memo hit");
                d
            })
            .expect("spawn")
            .join()
            .expect("differentiating on a 256 KiB stack");
        assert_eq!(d_sum, intern(&Expr::int(1)));
        // ∂/∂x of sin(w) + y is cos(w) · ∂w/∂x, the `+ 0` simplified away.
        let a = lock();
        let Node::Add(sin, _) = a.nodes[wave.index()] else {
            panic!("wave is a sum")
        };
        let Node::Sin(w) = a.nodes[sin.index()] else {
            panic!("wave's first operand is a sine")
        };
        let Node::Mul(cos, _) = a.nodes[d_wave_x.index()] else {
            panic!("∂wave/∂x is a product")
        };
        assert_eq!(a.nodes[cos.index()], Node::Cos(w));
        assert!(matches!(a.nodes[d_wave_y.index()], Node::Add(..)));
    }

    #[test]
    fn constraint_ids_distinguish_op_and_rhs() {
        let t = intern(&x().pow(2));
        let le4 = intern_constraint(t, CmpOp::Le, &Rational::from_int(4));
        let eq4 = intern_constraint(t, CmpOp::Eq, &Rational::from_int(4));
        let le9 = intern_constraint(t, CmpOp::Le, &Rational::from_int(9));
        assert_ne!(le4, eq4);
        assert_ne!(le4, le9);
        assert_eq!(le4, intern_constraint(t, CmpOp::Le, &Rational::from_int(4)));
    }

    #[test]
    fn counters_observe_sharing() {
        let (i0, h0) = local_counters();
        // A fresh, never-before-seen shape (unique constant) interns new
        // nodes; re-interning it is all dedup hits.
        let e = x() * Expr::constant("12345/67891".parse().unwrap()) + y().cos();
        intern(&e);
        let (i1, h1) = local_counters();
        assert!(i1 > i0, "fresh term must create nodes");
        intern(&e);
        let (i2, h2) = local_counters();
        assert_eq!(i2, i1, "re-intern creates nothing");
        assert!(h2 > h1.max(h0), "re-intern hits the table");
        let s = stats();
        assert!(s.terms > 0 && s.dedup_hits > 0);
    }
}
