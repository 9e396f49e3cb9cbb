"""Built-in fixtures: the algebraic identity seeds and the smooth pairs used
by the verification suite.

Every fixture is integral, so it reduces cleanly modulo the working primes.
The smooth pairs were screened so that the space curve is smooth over
F_11/13/17/19, the quadric's rulings split there, and the covering trace
identity holds; `fix_a`/`fix_q` deliberately keep their classical shape even
though their intersection is singular (all four nodes of the cubic lie on
the quadric), which the certificates report.
"""

from __future__ import annotations

from .fields import QQ
from .poly import HomogPoly, SymMatrix
from .symmetroid import X4, Z3, Symmetrization, hankel_symmetroid

_E0 = [1, 0, 0, 0]
_E1 = [0, 1, 0, 0]
_E2 = [0, 0, 1, 0]
_E3 = [0, 0, 0, 1]
_Z = [0, 0, 0, 0]

TEST_PRIMES = (11, 13, 17, 19)


def fix_a(field=QQ):
    """Four-nodal normal form [[x0,x3,x3],[x3,x1,x3],[x3,x3,x2]]."""
    return Symmetrization.from_entry_rows(
        field, [[_E0, _E3, _E3], [_E3, _E1, _E3], [_E3, _E3, _E2]])


def fix_q(field=QQ):
    """The split quadric x0 x1 - x2 x3."""
    return SymMatrix.from_quadratic_form(
        HomogPoly(field, X4, 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}))


def fix_x(field=QQ):
    """Quartic produced by the forward construction on (fix_a, fix_q)."""
    return HomogPoly(field, Z3, 4, {(2, 2, 0): 1, (1, 1, 2): -2,
                                    (1, 0, 3): -2, (0, 1, 3): -2})


def fix_h(field=QQ):
    """Catalecticant slice of t^4 - 1."""
    return hankel_symmetroid(field, [-1, 0, 0, 0])


def _biell_symmetrization(field):
    rows = [[_E0, _E2, _Z], [_E2, _E1, _E2], [_Z, _E2, [1, 1, 0, 0]]]
    return Symmetrization.from_entry_rows(field, rows)


def _q(field, terms):
    return SymMatrix.from_quadratic_form(HomogPoly(field, X4, 2, terms))


class Fixture:
    """A named (symmetrization, quadric) pair with its expected invariants."""

    __slots__ = ("name", "build_a", "q_terms", "expected_type", "even", "smooth")

    def __init__(self, name, build_a, q_terms, expected_type, even, smooth):
        self.name = name
        self.build_a = build_a
        self.q_terms = q_terms
        self.expected_type = expected_type
        self.even = even
        self.smooth = smooth

    def symmetrization(self, field=QQ):
        return self.build_a(field)

    def quadric(self, field=QQ):
        return _q(field, self.q_terms)

    def quadric_form(self, field=QQ):
        return HomogPoly(field, X4, 2, self.q_terms)


_TWO_TERM_Q = {(1, 1, 0, 0): 1, (0, 0, 1, 1): -2}

FIXTURES = {
    "seed": Fixture("seed", fix_a, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1},
                    "T1", even=False, smooth=False),
    "t1": Fixture("t1", lambda f: hankel_symmetroid(f, [2, 1, 0, 1]),
                  {(1, 1, 0, 0): 1, (0, 0, 1, 1): 3}, "T1", even=False, smooth=True),
    "t2": Fixture("t2", lambda f: hankel_symmetroid(f, [1, -2, 2, -2]),
                  _TWO_TERM_Q, "T2", even=False, smooth=True),
    "t3": Fixture("t3", lambda f: hankel_symmetroid(f, [2, -7, 9, -5]),
                  _TWO_TERM_Q, "T3", even=False, smooth=True),
    "biell": Fixture("biell", _biell_symmetrization,
                     {(2, 0, 0, 0): 1, (0, 2, 0, 0): -4, (0, 0, 2, 0): 1, (0, 0, 0, 2): -1},
                     "DegenerateCone", even=False, smooth=True),
    "even": Fixture("even", fix_a,
                    {(2, 0, 0, 0): 1, (0, 2, 0, 0): -2, (0, 0, 2, 0): 3},
                    "T1", even=True, smooth=True),
    "even_biell": Fixture("even_biell", _biell_symmetrization,
                          {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (1, 1, 0, 0): -2,
                           (0, 0, 2, 0): 2, (0, 0, 0, 2): 1},
                          "DegenerateCone", even=True, smooth=True),
}

SMOOTH_FIXTURES = [f for f in FIXTURES.values() if f.smooth]
ROUNDTRIP_FIXTURES = [FIXTURES[k] for k in ("t1", "t2", "t3", "biell")]
