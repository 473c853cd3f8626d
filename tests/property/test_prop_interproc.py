"""Property test: interprocedural soundness on random call-heavy kernels.

Random loop bodies call helper subroutines (conditional early returns,
work-array fills, partial consumes) — the exact Figure 1(c) shape — and
the trace validator checks MOD_i/UE_i containment and privatization
claims against the concrete execution.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.validate import validate_loop

HELPERS = """
      SUBROUTINE hfill(w, q, c)
      REAL w(100), q(100)
      INTEGER c, j
      DO j = 1, c
        w(j) = q(j) + 1.0
      ENDDO
      END

      SUBROUTINE hguard(w, x, c)
      REAL w(100), x
      INTEGER c, j
      IF (x .GT. 100.0) RETURN
      DO j = 1, c
        w(j) = x * j
      ENDDO
      END

      SUBROUTINE hread(w, r, c, pos)
      REAL w(100), r(100)
      INTEGER c, pos, j
      REAL s
      s = 0.0
      DO j = 1, c
        s = s + w(j)
      ENDDO
      r(pos) = s
      END

      SUBROUTINE hbump(v)
      INTEGER v
      v = v + 3
      END
"""

CALLS = [
    "CALL hfill(t, b, m)",
    "CALL hfill(t, b, k)",
    "CALL hguard(t, x, m)",
    "CALL hread(t, a, m, i)",
    "CALL hread(b, a, k, i)",
    "CALL hbump(kv)",
]
LOCAL_STMTS = [
    "x = b(i) * 0.5",
    "t(i) = 1.0",
    "a(i) = t(1) + 0.5",
    "y = t(k)",
]
CONDITIONS = ["i .GT. k", "sw", "i .LE. 2"]


@st.composite
def call_kernels(draw):
    body: list[str] = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            body.append(f"        {draw(st.sampled_from(CALLS))}")
        elif kind == 1:
            body.append(f"        {draw(st.sampled_from(LOCAL_STMTS))}")
        elif kind == 2:
            cond = draw(st.sampled_from(CONDITIONS))
            inner = draw(st.sampled_from(CALLS + LOCAL_STMTS))
            body.append(f"        IF ({cond}) THEN")
            body.append(f"          {inner}")
            body.append("        ENDIF")
        else:
            body.append(f"        x = {draw(st.floats(0.5, 200.0))!r:.12}")
    lines = (
        [
            "      SUBROUTINE rndc(a, b, t, n, m, k, sw)",
            "      REAL a(100), b(100), t(100)",
            "      INTEGER n, m, k, i, kv",
            "      LOGICAL sw",
            "      REAL x, y",
            "      kv = 0",
            "      DO i = 1, n",
        ]
        + body
        + ["      ENDDO", "      END", HELPERS]
    )
    return "\n".join(lines) + "\n"


@given(
    call_kernels(),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 4),
    st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_interprocedural_kernels_validate(source, n, m, k, sw):
    report = validate_loop(
        source,
        "rndc",
        "i",
        args={
            "a": [0.25] * 40,
            "b": [1.25] * 40,
            "t": [0.0] * 40,
            "n": n,
            "m": m,
            "k": k,
            "sw": sw,
        },
    )
    assert report.ok, (source, report.violations)
