"""Property tests: frontier claims vs concrete execution.

Two oracle pairings: the blocked (two-pass) scan executors must agree
with the sequential fold they decompose — the associativity argument
every PARALLEL_SCAN verdict rests on — and every content fact the
domain infers must hold as an invariant of an actual interpreter run.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow import AnalysisOptions
from repro.fortran import analyze, parse_program
from repro.interp import Interpreter
from repro.kernels import get_frontier_kernel
from repro.validate import (
    blocked_affine_scan,
    blocked_scan,
    validate_content_facts,
)

OPTIONS = AnalysisOptions(frontier=True)

fractions = st.integers(-30, 30).map(Fraction)
ops = st.sampled_from(["+", "*", "min", "max"])

_FOLDS = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a * b,
    "min": min,
    "max": max,
}


def sequential_scan(op, seed, increments):
    out, acc = [], seed
    for inc in increments:
        acc = _FOLDS[op](acc, inc)
        out.append(acc)
    return out


@settings(max_examples=120)
@given(
    op=ops,
    seed=fractions,
    increments=st.lists(fractions, max_size=25),
    chunks=st.integers(1, 8),
)
def test_blocked_scan_equals_sequential(op, seed, increments, chunks):
    assert blocked_scan(op, seed, increments, chunks) == sequential_scan(
        op, seed, increments
    )


@settings(max_examples=120)
@given(
    seed=fractions,
    pairs=st.lists(st.tuples(fractions, fractions), max_size=20),
    chunks=st.integers(1, 8),
)
def test_blocked_affine_scan_equals_sequential(seed, pairs, chunks):
    out, x = [], seed
    for a, b in pairs:
        x = a * x + b
        out.append(x)
    assert blocked_affine_scan(pairs, seed, chunks) == out


# small integers as floats: prefix sums stay exact in binary FP, so the
# interpreter's float arithmetic is a sound oracle for the decomposition
small_ints = st.lists(
    st.integers(-9, 9).map(float), min_size=2, max_size=30
)


@settings(max_examples=40, deadline=None)
@given(data=small_ints, chunks=st.integers(1, 6))
def test_prefix_sum_kernel_decomposes(data, chunks):
    kernel = get_frontier_kernel("prefix_sum")
    n = len(data)
    args = kernel.make_args()
    args = dict(args, b=data + [0.0] * (1000 - n), n=n)
    interp = Interpreter(analyze(parse_program(kernel.source)))
    frame = interp.run_routine(kernel.routine, **args)
    seed = Fraction(args["a"][0])
    increments = [Fraction(v) for v in data[1:]]
    expected = blocked_scan("+", seed, increments, chunks)
    for k, value in zip(range(2, n + 1), expected):
        assert Fraction(frame.array("a").get((k,))) == value


AFFINE_KERNEL = """
      SUBROUTINE aff(A, B, n)
      REAL A(1000), B(1000)
      INTEGER n, i
      DO i = 2, n
        A(i) = 3*A(i-1) + B(i)
      ENDDO
      END
"""


@settings(max_examples=40, deadline=None)
@given(data=small_ints, chunks=st.integers(1, 6))
def test_affine_scan_kernel_decomposes(data, chunks):
    n = len(data)
    args = {
        "a": [1.0] + [0.0] * 999,
        "b": data + [0.0] * (1000 - n),
        "n": n,
    }
    interp = Interpreter(analyze(parse_program(AFFINE_KERNEL)))
    frame = interp.run_routine("aff", **args)
    pairs = [(Fraction(3), Fraction(v)) for v in data[1:]]
    expected = blocked_affine_scan(pairs, Fraction(1), chunks)
    for k, value in zip(range(2, n + 1), expected):
        assert Fraction(frame.array("a").get((k,))) == value


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 40),
    values=st.lists(
        st.integers(-50, 50).map(float), min_size=40, max_size=40
    ),
)
def test_content_facts_are_interpreter_invariants(n, values):
    for name in ("idx_gather", "flag_first_write"):
        kernel = get_frontier_kernel(name)
        args = dict(kernel.make_args())
        if "b" in args:
            args["b"] = values + [0.0] * (len(args["b"]) - 40)
        if "n" in args:
            args["n"] = min(n, 40)
        if "m" in args:
            args["m"] = min(n, 40)
        violations = validate_content_facts(
            kernel.source, kernel.routine, args, options=OPTIONS
        )
        assert violations == [], (name, violations)
