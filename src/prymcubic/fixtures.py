"""Built-in fixtures: the algebraic identity seeds and the smooth pairs used
by the verification suite, read from the shipped manifest
`data/fixtures.json`, which `prymcubic verify` checks as it stands.

The manifest's objects, over Q:
- `A_seed`, the four-nodal normal form [[x0,x3,x3],[x3,x1,x3],[x3,x3,x2]],
  with `Q_seed` the split quadric x0 x1 - x2 x3 and `X_seed` the quartic
  the forward construction gives for them;
- `A_t1`, `A_t2`, `A_t3` and `H`, the catalecticant (Hankel) slices of the
  monic quartics t^4 + t^3 + t + 2, t^4 - 2t^3 + 2t^2 - 2t + 1,
  t^4 - 5t^3 + 9t^2 - 7t + 2 and t^4 - 1;
- `A_biell`, the cone [[x0,x2,0],[x2,x1,x2],[0,x2,x0+x1]];
- the quadrics `Q_t1` = x0 x1 + 3 x2 x3, `Q_t2` = `Q_t3` = x0 x1 - 2 x2 x3,
  `Q_biell` = x0^2 - 4 x1^2 + x2^2 - x3^2, and the rank-3 `Q_even` =
  x0^2 - 2 x1^2 + 3 x2^2 and `Q_even_biell` = (x0 - x1)^2 + 2 x2^2 + x3^2,
  paired with `A_seed` and `A_biell`.

Every fixture is integral, so it reduces cleanly modulo the working primes.
The smooth pairs were screened so that the space curve is smooth over
F_11/13/17/19, the quadric's rulings split there, and the covering trace
identity holds; `fix_a`/`fix_q` deliberately keep their classical shape even
though their intersection is singular (all four nodes of the cubic lie on
the quadric), which the certificates report.
"""

from __future__ import annotations

from pathlib import Path

from .fields import QQ
from .scene import Scene, parse_scene, reduce_scene
from .symmetroid import X4

_MANIFEST = parse_scene((Path(__file__).parent / "data" / "fixtures.json")
                        .read_text(encoding="utf-8"))

TEST_PRIMES = (11, 13, 17, 19)

# the classification each pair's symmetrization must get
_EXPECTED_TYPES = {"seed": "T1", "t1": "T1", "t2": "T2", "t3": "T3",
                   "biell": "DegenerateCone", "even": "T1",
                   "even_biell": "DegenerateCone"}


def _object(name, field):
    """A new copy of a manifest object over `field`.  `reduce_scene` writes
    and reads it back, mapping each scalar as `change_field` does, so no two
    calls share an object, its memoised state or an oracle census."""
    return reduce_scene(Scene(QQ, {name: _MANIFEST.get(name)}), field).get(name)


def fix_a(field=QQ):
    """Four-nodal normal form [[x0,x3,x3],[x3,x1,x3],[x3,x3,x2]]."""
    return _object("A_seed", field)


def fix_q(field=QQ):
    """The split quadric x0 x1 - x2 x3."""
    return _object("Q_seed", field)


def fix_x(field=QQ):
    """Quartic produced by the forward construction on (fix_a, fix_q)."""
    return _object("X_seed", field)


def fix_h(field=QQ):
    """Catalecticant slice of t^4 - 1."""
    return _object("H", field)


class Fixture:
    """A named (symmetrization, quadric) pair of the manifest with its
    expected invariants."""

    __slots__ = ("name", "a_name", "q_name", "expected_type", "even", "smooth")

    def __init__(self, a_name, q_name):
        self.name = a_name[len("A_"):]
        self.a_name = a_name
        self.q_name = q_name
        self.expected_type = _EXPECTED_TYPES[self.name]
        self.even = _MANIFEST.get(q_name).rank() == 3
        self.smooth = [a_name, q_name] in _MANIFEST.metadata["smooth_pairs"]

    def symmetrization(self, field=QQ):
        return _object(self.a_name, field)

    def quadric(self, field=QQ):
        return _object(self.q_name, field)

    def quadric_form(self, field=QQ):
        return self.quadric(field).quadratic_form(field, X4)


FIXTURES = {fx.name: fx for fx in (Fixture(a, q) for a, q in _MANIFEST.metadata["pairs"])}

SMOOTH_FIXTURES = [f for f in FIXTURES.values() if f.smooth]
ROUNDTRIP_FIXTURES = [f for f in SMOOTH_FIXTURES if not f.even]
