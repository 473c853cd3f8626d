"""Content-fact inference: abstract interpretation of defining loops.

The derivation is deliberately **intra-routine**: a fact is a pure
function of one unit's source text plus the analysis options, which is
exactly the invariant the content-addressed summary cache fingerprints
(`engine/cache.py`) already capture — installing facts never needs a new
cache-key ingredient beyond the ``frontier`` toggle itself.

Eligibility of an array ``X`` in a unit:

* ``X`` is rank-1, integer-typed, and not in COMMON (callees could
  rewrite COMMON storage behind the analysis' back);
* every write to ``X`` in the unit sits in one *defining loop* — an
  unguarded, un-nested ``DO v = lo, hi`` whose body assigns ``X(v)``
  either unconditionally or in every arm of one IF/ELSE;
* ``X`` is never passed to a CALL, never appears in I/O, and is never
  read before the defining loop.

The right-hand sides are abstracted into the :mod:`.domain` lattice;
IF-arm writers are merged with the lattice join (two different constants
become an interval instead of being dropped).  A separate *coverage*
pass proves every later read hits the written segment — only covered
facts export index-array forms and guard bounds into conversion
contexts; uncovered facts are still recorded (and audited/validated)
but change nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterator, Optional

from ..dataflow.context import AnalysisOptions
from ..dataflow.convert import ConversionContext, to_symexpr
from ..fortran.ast_nodes import (
    Apply,
    Assign,
    BinOp,
    CallStmt,
    Continue,
    DoLoop,
    Expr,
    IfBlock,
    IntLit,
    IoStmt,
    LogicalIf,
    NameRef,
    Stmt,
)
from ..fortran.semantics import AnalyzedProgram
from ..symbolic import Predicate, SymExpr
from .domain import (
    ContentFact,
    Monotone,
    ValueAbstract,
    abstract_of_affine,
    join_value,
    monotone_of_affine,
)


@dataclass
class _ReadSite:
    """One array read with the loop context needed for coverage proofs."""

    position: int
    apply: Apply
    #: enclosing DO loops, outermost first
    loops: tuple[DoLoop, ...]


@dataclass
class _ArrayUse:
    """Everything one unit does with one array, in walk order."""

    write_positions: list[int] = field(default_factory=list)
    reads: list[_ReadSite] = field(default_factory=list)
    #: poisoned: passed to a CALL, used in I/O, written outside a clean
    #: defining loop, multi-dimensional use, ...
    poisoned: Optional[str] = None

    def poison(self, why: str) -> None:
        if self.poisoned is None:
            self.poisoned = why


def _exprs_of(stmt: Stmt) -> Iterator[Expr]:
    """Top-level expressions of one statement (not recursing into bodies)."""
    if isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, CallStmt):
        yield from stmt.args
    elif isinstance(stmt, IfBlock):
        for cond, _body in stmt.arms:
            yield cond
    elif isinstance(stmt, LogicalIf):
        yield stmt.cond
    elif isinstance(stmt, DoLoop):
        yield stmt.start
        yield stmt.stop
        if stmt.step is not None:
            yield stmt.step
    elif isinstance(stmt, IoStmt):
        for e in getattr(stmt, "args", ()) or ():
            if isinstance(e, Expr):
                yield e


class _UnitScan:
    """One pre-order walk collecting every array/scalar use with context."""

    def __init__(self, table) -> None:
        self.table = table
        self.uses: dict[str, _ArrayUse] = {}
        #: scalar name → positions of writes to it
        self.scalar_writes: dict[str, list[int]] = {}
        self.position = 0

    def use(self, name: str) -> _ArrayUse:
        return self.uses.setdefault(name, _ArrayUse())

    def scan(self, stmts: list[Stmt], loops: tuple[DoLoop, ...], guarded: bool):
        for stmt in stmts:
            self.position += 1
            pos = self.position
            if isinstance(stmt, Assign):
                target = stmt.target
                if isinstance(target, Apply):
                    self.use(target.name).write_positions.append(pos)
                    self._reads(target.args, pos, loops)
                else:
                    self.scalar_writes.setdefault(target.name, []).append(pos)
                self._reads([stmt.value], pos, loops)
            elif isinstance(stmt, CallStmt):
                for arg in stmt.args:
                    for node in arg.walk():
                        if (
                            isinstance(node, (NameRef, Apply))
                            and self.table.is_array(node.name)
                        ):
                            self.use(node.name).poison("passed to a CALL")
                        elif isinstance(node, NameRef):
                            # the callee may write any scalar passed by
                            # reference
                            self.scalar_writes.setdefault(
                                node.name, []
                            ).append(pos)
                self._reads(stmt.args, pos, loops)
            elif isinstance(stmt, IoStmt):
                for e in _exprs_of(stmt):
                    for node in e.walk():
                        if isinstance(
                            node, (NameRef, Apply)
                        ) and self.table.is_array(node.name):
                            self.use(node.name).poison("used in I/O")
                self._reads(list(_exprs_of(stmt)), pos, loops)
            elif isinstance(stmt, IfBlock):
                self._reads([cond for cond, _ in stmt.arms], pos, loops)
                for _, body in stmt.arms:
                    self.scan(body, loops, True)
                self.scan(stmt.orelse, loops, True)
            elif isinstance(stmt, LogicalIf):
                self._reads([stmt.cond], pos, loops)
                self.scan([stmt.stmt], loops, True)
            elif isinstance(stmt, DoLoop):
                self._reads(list(_exprs_of(stmt)), pos, loops)
                self.scalar_writes.setdefault(stmt.var, []).append(pos)
                self.scan(stmt.body, loops + (stmt,), guarded)
            elif isinstance(stmt, Continue):
                pass
            else:
                # GOTO / RETURN / STOP and anything unmodeled: poison
                # every array mentioned (none for the control statements)
                for e in _exprs_of(stmt):
                    for node in e.walk():
                        if isinstance(
                            node, (NameRef, Apply)
                        ) and self.table.is_array(node.name):
                            self.use(node.name).poison("unmodeled statement")

    def _reads(self, exprs: list[Expr], pos: int, loops) -> None:
        for e in exprs:
            for node in e.walk():
                if isinstance(node, Apply) and self.table.is_array(node.name):
                    self.use(node.name).reads.append(
                        _ReadSite(pos, node, tuple(loops))
                    )
                elif isinstance(node, NameRef) and self.table.is_array(
                    node.name
                ):
                    # whole-array reference outside a call: unanalyzable
                    self.use(node.name).poison("whole-array reference")


# --------------------------------------------------------------------------- #
# defining-loop abstraction
# --------------------------------------------------------------------------- #


def _assigns_to(stmts: list[Stmt], array: str) -> list[Assign]:
    out = []
    for stmt in stmts:
        for s in stmt.walk():
            if (
                isinstance(s, Assign)
                and isinstance(s.target, Apply)
                and s.target.name == array
            ):
                out.append(s)
    return out


def _touches(stmts: list[Stmt], array: str) -> int:
    count = 0
    for stmt in stmts:
        for s in stmt.walk():
            for e in _exprs_of(s):
                for node in e.walk():
                    if isinstance(node, (Apply, NameRef)) and node.name == array:
                        count += 1
    return count


def _stable_base(
    base: SymExpr, scan: _UnitScan, loop_pos: int, loop_var: str
) -> bool:
    """Is every free symbol of *base* unchanged from the defining loop on?

    A form substituted at a read site evaluates its symbols at *read*
    time; the fact computed them at *write* time.  The two agree exactly
    when no write to the symbol sits at or after the defining loop.
    """
    for name in base.free_vars():
        if name == loop_var:
            return False
        writes = scan.scalar_writes.get(name, ())
        if any(p >= loop_pos for p in writes):
            return False
    return True


def _affine_rhs(
    value: Expr, ctx, loop_var: str
) -> Optional[tuple[Fraction, SymExpr]]:
    """``(coeff, base)`` of an affine-in-the-index right-hand side."""
    sym = to_symexpr(value, ctx)
    if sym is None or not sym.is_linear_in(loop_var):
        return None
    coeff = sym.coeff_of_var(loop_var)
    base = sym - SymExpr.var(loop_var).scaled(coeff)
    if loop_var in base.free_vars():
        return None
    return coeff, base


def _recurrence_rhs(
    value: Expr, array: str, loop_var: str, ctx
) -> Optional[Fraction]:
    """The constant step of ``X(v) = X(v-1) ± c``, or ``None``."""
    if not isinstance(value, BinOp) or value.op not in ("+", "-"):
        return None
    sides = [(value.left, value.right, 1 if value.op == "+" else -1)]
    if value.op == "+":
        sides.append((value.right, value.left, 1))
    for prev, delta_expr, sign in sides:
        if not (isinstance(prev, Apply) and prev.name == array):
            continue
        if len(prev.args) != 1:
            return None
        sub = to_symexpr(prev.args[0], ctx)
        if sub is None or sub != SymExpr.var(loop_var) - SymExpr.const(1):
            return None
        delta_sym = to_symexpr(delta_expr, ctx)
        if delta_sym is None:
            return None
        delta = delta_sym.constant_value()
        if delta is None or delta == 0:
            return None
        if any(
            isinstance(n, (Apply, NameRef)) and n.name == array
            for n in delta_expr.walk()
        ):
            return None
        return delta * sign
    return None


def _loop_value(
    loop: DoLoop, array: str, scan: _UnitScan, loop_pos: int, ctx
) -> Optional[tuple[ValueAbstract, Optional[Fraction], int]]:
    """Abstract the values *loop* leaves in ``array``.

    Returns ``(value, recurrence_delta, lineno)`` or ``None`` when the
    loop is not a clean total writer of ``X(v)``.
    """
    v = loop.var
    body_ctx = ctx.with_index(v)
    assigns = _assigns_to(loop.body, array)
    lineno = assigns[0].lineno if assigns else loop.lineno

    def is_xv(target: Apply) -> bool:
        return (
            len(target.args) == 1
            and isinstance(target.args[0], NameRef)
            and target.args[0].name == v
        )

    if not all(is_xv(a.target) for a in assigns):  # type: ignore[arg-type]
        return None

    # layout: every statement of the body either never touches X, is the
    # single unconditional assign, or is one IF/ELSE assigning X in all arms
    unconditional: list[Assign] = []
    branches: list[IfBlock] = []
    for stmt in loop.body:
        touches = _touches([stmt], array)
        if touches == 0:
            continue
        if isinstance(stmt, Assign) and isinstance(stmt.target, Apply):
            reads_x = _touches([stmt], array) - 1
            if stmt.target.name == array and reads_x in (0, 1):
                unconditional.append(stmt)
                continue
            return None
        if isinstance(stmt, IfBlock):
            branches.append(stmt)
            continue
        return None

    if len(unconditional) == 1 and not branches:
        stmt = unconditional[0]
        if _touches([stmt], array) == 1:
            affine = _affine_rhs(stmt.value, body_ctx, v)
            if affine is not None and _stable_base(
                affine[1], scan, loop_pos, v
            ):
                return abstract_of_affine(*affine), None, stmt.lineno
            return None
        delta = _recurrence_rhs(stmt.value, array, v, body_ctx)
        if delta is None:
            return None
        mono = (
            Monotone.STRICT_INC if delta > 0 else Monotone.STRICT_DEC
        )
        return ValueAbstract(mono=mono), delta, stmt.lineno

    if len(branches) == 1 and not unconditional:
        block = branches[0]
        if any(_touches([cond], array) for cond, _ in block.arms):
            return None
        if not block.orelse:
            return None  # partial write: some iterations leave X(v) stale
        arms = [body for _, body in block.arms] + [block.orelse]
        merged: Optional[ValueAbstract] = None
        for body in arms:
            writes = _assigns_to(body, array)
            if len(writes) != 1 or _touches(body, array) != 1:
                return None
            affine = _affine_rhs(writes[0].value, body_ctx, v)
            if affine is None or not _stable_base(
                affine[1], scan, loop_pos, v
            ):
                return None
            value = abstract_of_affine(*affine)
            merged = value if merged is None else join_value(merged, value)
        if merged is None or merged.is_top():
            return None
        return merged, None, block.lineno
    return None


# --------------------------------------------------------------------------- #
# coverage proofs
# --------------------------------------------------------------------------- #


def _covers_reads(
    use: _ArrayUse,
    loop: DoLoop,
    loop_positions: tuple[int, int],
    ctx,
    comparer,
) -> bool:
    """Every read outside the defining loop provably hits ``[lo, hi]``."""
    lo = to_symexpr(loop.start, ctx)
    hi = to_symexpr(loop.stop, ctx)
    if lo is None or hi is None:
        return False
    start, end = loop_positions
    for site in use.reads:
        if start <= site.position <= end:
            continue  # in-loop reads are handled by the shape analysis
        if len(site.apply.args) != 1:
            return False
        site_ctx = ctx
        atoms = Predicate.true()
        usable = True
        for enclosing in site.loops:
            site_ctx = site_ctx.with_index(enclosing.var)
            if enclosing.step is not None and not (
                isinstance(enclosing.step, IntLit)
                and enclosing.step.value == 1
            ):
                usable = False
                continue
            elo = to_symexpr(enclosing.start, site_ctx)
            ehi = to_symexpr(enclosing.stop, site_ctx)
            if elo is None or ehi is None:
                continue  # sound to omit the range atom
            iv = SymExpr.var(enclosing.var)
            atoms = atoms & Predicate.le(elo, iv) & Predicate.le(iv, ehi)
        if not usable:
            return False
        sub = to_symexpr(site.apply.args[0], site_ctx)
        if sub is None:
            return False
        cmp = comparer.refine(atoms)
        if cmp.le(lo, sub) is not True or cmp.le(sub, hi) is not True:
            return False
    return True


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #


@dataclass
class ContentFacts:
    """All content facts of one program, ready for installation."""

    by_unit: dict[str, list[ContentFact]] = field(default_factory=dict)

    def count(self) -> int:
        return sum(len(v) for v in self.by_unit.values())

    def facts_for(self, unit: str) -> list[ContentFact]:
        return self.by_unit.get(unit, [])

    def forms_for(self, unit: str) -> dict[str, SymExpr]:
        """Coverage-verified affine closed forms, for subscript substitution."""
        out: dict[str, SymExpr] = {}
        for fact in self.facts_for(unit):
            if fact.kind == "affine" and fact.covered:
                form = fact.form()
                if form is not None:
                    out[fact.array] = form
        return out

    def bounds_for(self, unit: str) -> dict[str, tuple[Fraction, Fraction]]:
        """Coverage-verified element bounds, for guard discharge."""
        out: dict[str, tuple[Fraction, Fraction]] = {}
        for fact in self.facts_for(unit):
            if (
                fact.covered
                and fact.kind in ("affine", "bounds")
                and fact.value_lo is not None
                and fact.value_hi is not None
            ):
                out[fact.array] = (fact.value_lo, fact.value_hi)
        return out

    def install(self, analyzer) -> None:
        """Attach to a SummaryAnalyzer: context_for() then merges the
        derived forms/bounds into every conversion context it builds."""
        analyzer.content_facts = self

    def evidence_for(self, unit: str, arrays: set[str]) -> list[dict[str, Any]]:
        """Evidence payloads of the *exported* facts a loop consumed."""
        out = []
        for fact in self.facts_for(unit):
            if fact.array in arrays and fact.covered:
                out.append(fact.to_payload())
        return out


def infer_unit(
    analyzed: AnalyzedProgram, unit_name: str, options=None
) -> list[ContentFact]:
    """Content facts of one unit (pure function of its source + options)."""
    options = options or AnalysisOptions()
    if not (options.frontier and options.symbolic):
        return []
    table = analyzed.table(unit_name)
    unit = analyzed.unit(unit_name)

    scan = _UnitScan(table)
    scan.scan(unit.body, (), False)

    # locate top-level defining loops with their walk-position spans
    spans: dict[int, tuple[DoLoop, int, int]] = {}
    position = 0

    def measure(stmts: list[Stmt]) -> int:
        nonlocal position
        for stmt in stmts:
            position += 1
            start = position
            for block in stmt.body_blocks():
                measure(block)
            if isinstance(stmt, DoLoop):
                spans[id(stmt)] = (stmt, start, position)
        return position

    measure(unit.body)
    top_loops = [
        spans[id(stmt)] for stmt in unit.body if isinstance(stmt, DoLoop)
    ]

    ctx = ConversionContext(
        table=table,
        symbolic=options.symbolic,
        if_conditions=options.if_conditions,
    )
    comparer = options.comparer()
    facts: list[ContentFact] = []
    for name in sorted(scan.uses):
        use = scan.uses[name]
        if use.poisoned is not None:
            continue
        if not use.write_positions:
            continue
        info = table.arrays.get(name)
        if info is None or info.rank != 1:
            continue
        if table.element_type(name) != "integer":
            continue
        if table.common_block_of(name) is not None:
            continue
        # one defining loop must span every write
        defining = [
            (loop, start, end)
            for loop, start, end in top_loops
            if all(start <= p <= end for p in use.write_positions)
        ]
        if len(defining) != 1:
            continue
        loop, start, end = defining[0]
        if loop.step is not None and not (
            isinstance(loop.step, IntLit) and loop.step.value == 1
        ):
            continue
        if any(p < start for p in (s.position for s in use.reads)):
            continue  # read before definition: caller data escapes
        abstracted = _loop_value(loop, name, scan, start, ctx)
        if abstracted is None:
            continue
        value, delta, lineno = abstracted
        lo = to_symexpr(loop.start, ctx)
        hi = to_symexpr(loop.stop, ctx)
        if lo is None or hi is None:
            continue
        if not _stable_base(lo, scan, start, loop.var) or not _stable_base(
            hi, scan, start, loop.var
        ):
            continue
        covered = _covers_reads(use, loop, (start, end), ctx, comparer)
        if value.affine is not None:
            coeff, base = value.affine
            vlo, vhi = (value.bounds or (None, None))
            facts.append(
                ContentFact(
                    unit=unit_name,
                    array=name,
                    kind="affine",
                    seg_lo=lo,
                    seg_hi=hi,
                    coeff=coeff,
                    base=base,
                    value_lo=vlo,
                    value_hi=vhi,
                    mono=monotone_of_affine(coeff),
                    covered=covered,
                    lineno=lineno,
                    detail=f"{name}({loop.var}) = {coeff}*{loop.var} + {base}",
                )
            )
        elif value.bounds is not None:
            facts.append(
                ContentFact(
                    unit=unit_name,
                    array=name,
                    kind="bounds",
                    seg_lo=lo,
                    seg_hi=hi,
                    value_lo=value.bounds[0],
                    value_hi=value.bounds[1],
                    mono=value.mono,
                    covered=covered,
                    lineno=lineno,
                    detail=(
                        f"{value.bounds[0]} <= {name}(k) <= {value.bounds[1]}"
                    ),
                )
            )
        elif delta is not None:
            facts.append(
                ContentFact(
                    unit=unit_name,
                    array=name,
                    kind="monotone",
                    seg_lo=lo,
                    seg_hi=hi,
                    mono=value.mono,
                    delta=delta,
                    covered=False,  # monotone facts export nothing yet
                    lineno=lineno,
                    detail=f"{name}(k) - {name}(k-1) = {delta} on the segment",
                )
            )
    return facts


def infer_program(analyzed: AnalyzedProgram, options=None) -> ContentFacts:
    """Content facts for every unit of a program."""
    out = ContentFacts()
    for unit in analyzed.program.units:
        facts = infer_unit(analyzed, unit.name, options)
        if facts:
            out.by_unit[unit.name] = facts
    return out
