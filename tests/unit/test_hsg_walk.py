"""Unit tests for ``hsg.walk``, the one traversal of the HSG hierarchy."""

from repro import Panorama
from repro.fortran import analyze, parse_program
from repro.hsg import (
    BasicBlockNode,
    CondensedNode,
    IfConditionNode,
    LoopNode,
    build_hsg,
    walk,
    walk_cycle,
)

NEST = (
    "      SUBROUTINE s(a, n)\n"
    "      REAL a(10, 10, 10)\n"
    "      INTEGER n, i, j, k\n"
    "      x = 0\n"
    "      DO i = 1, n\n"
    "        DO j = 1, n\n"
    "          DO k = 1, n\n"
    "            a(i, j, k) = x\n"
    "          ENDDO\n"
    "        ENDDO\n"
    "      ENDDO\n"
    "      y = 1\n"
    "      END\n"
)

#: a backward GOTO inside a DO body: F77's WHILE loop
CYCLE_IN_DO = (
    "      SUBROUTINE s(a, n)\n"
    "      REAL a(100)\n"
    "      INTEGER n, i, j\n"
    "      DO 10 i = 1, n\n"
    "        j = 0\n"
    "   20   j = j + 1\n"
    "        IF (j .LT. 3) GOTO 20\n"
    "        a(i) = 1.0\n"
    "   10 CONTINUE\n"
    "      END\n"
)


def graph_of(source: str):
    return build_hsg(analyze(parse_program(source))).graph("s")


def loops_in(graph):
    return [n for n in graph.nodes if isinstance(n, LoopNode)]


class TestWalk:
    def test_node_order_is_depth_first_in_node_order(self):
        g = graph_of(NEST)
        (li,) = loops_in(g)
        (lj,) = loops_in(li.body)
        (lk,) = loops_in(lj.body)
        expected = []
        for node in g.nodes:
            expected.append(node)
            if node is li:
                for a in li.body.nodes:
                    expected.append(a)
                    if a is lj:
                        for b in lj.body.nodes:
                            expected.append(b)
                            if b is lk:
                                expected.extend(lk.body.nodes)
        assert [n for n, _ in walk(g)] == expected

    def test_enclosing_loops_outermost_first(self):
        g = graph_of(NEST)
        (li,) = loops_in(g)
        (lj,) = loops_in(li.body)
        (lk,) = loops_in(lj.body)
        enclosing = dict(walk(g))
        assert enclosing[li] == ()
        assert enclosing[lj] == (li,)
        assert enclosing[lk] == (li, lj)
        assert all(enclosing[n] == () for n in g.nodes)
        assert all(enclosing[n] == (li, lj, lk) for n in lk.body.nodes)

    def test_loop_body_at_depth_three(self):
        g = graph_of(NEST)
        (assign,) = [
            (node, loops)
            for node, loops in walk(g)
            if isinstance(node, BasicBlockNode)
            and any(str(s.target).startswith("a(") for s in node.stmts)
        ]
        node, loops = assign
        assert [loop.var for loop in loops] == ["i", "j", "k"]

    def test_walking_a_body_is_relative_to_it(self):
        g = graph_of(NEST)
        (li,) = loops_in(g)
        (lj,) = loops_in(li.body)
        enclosing = dict(walk(li.body))
        assert enclosing[lj] == ()
        assert li not in enclosing

    def test_condensed_cycle_is_one_node(self):
        g = graph_of(CYCLE_IN_DO)
        (loop,) = loops_in(g)
        (cycle,) = [n for n in loop.body.nodes if isinstance(n, CondensedNode)]
        walked = [n for n, _ in walk(g)]
        assert walked.count(cycle) == 1
        assert not any(m in walked for m in cycle.members)

    def test_members_follow_their_cycle(self):
        g = graph_of(CYCLE_IN_DO)
        (loop,) = loops_in(g)
        (cycle,) = [n for n in loop.body.nodes if isinstance(n, CondensedNode)]
        walked = list(walk(g, members=True))
        at = [n for n, _ in walked].index(cycle)
        following = walked[at + 1: at + 1 + len(cycle.members)]
        assert [n for n, _ in following] == cycle.members
        assert all(loops == (loop,) for _, loops in following)
        assert any(isinstance(m, IfConditionNode) for m in cycle.members)
        assert [n for n, _ in walk_cycle(cycle)] == cycle.members


class TestLoopReportNode:
    def test_report_node_is_the_hsg_loop(self):
        result = Panorama(run_machine_model=False).compile(NEST)
        loops = [loop for _, loop in result.hsg.all_loops()]
        assert len(result.loops) == 3
        assert all(r.node is loop for r, loop in zip(result.loops, loops))
        assert [r.var for r in result.loops] == ["i", "j", "k"]
