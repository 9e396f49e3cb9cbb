"""Cubic symmetroids presented by a 3x3 symmetric matrix of linear forms in
four variables: determinant cubic, the cubic adjugation map, the quadric
Gauss-map vector, rank-one locus and type classification, Hankel and
trace-form models of Cayley cubics, cone projection, and the three
double-cover minors.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, islice, product

from . import linalg
from .binforms import ST, is_squarefree, pencil_determinant_raw, rational_roots
from .elim import plane_cubic_is_smooth
from .oracle import compile_raw
from .poly import HomogPoly, SymMatrix
from .quadrics import factor_rank_le2, multiple_members

X4 = ("x0", "x1", "x2", "x3")
Z3 = ("z0", "z1", "z2")
W3 = ("w0", "w1", "w2")

CONIC_MONOMIALS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
# the exponent of x_k x_l, k <= l, for each entry (k, l) of a 4x4 symmetric matrix
QUADRIC_EXPONENTS = {(k, l): tuple((i == k) + (i == l) for i in range(4))
                     for k, l in combinations_with_replacement(range(4), 2)}
# the matrix entry (i, j), i <= j, whose form carries each conic monomial
_CONIC_ENTRIES = [tuple(i for i in range(3) for _ in range(mon[i])) for mon in CONIC_MONOMIALS]


class SymmetroidType:
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"
    T7 = "T7"
    T8 = "T8"
    DEGENERATE_CONE = "DegenerateCone"
    DEGENERATE_SINGULAR = "DegenerateSingular"
    REDUCIBLE_UNCLASSIFIED = "ReducibleUnclassified"


IRREDUCIBLE_TYPES = (SymmetroidType.T1, SymmetroidType.T2, SymmetroidType.T3,
                     SymmetroidType.T4, SymmetroidType.T5)

PARTITION_TO_TYPE = {
    (1, 1, 1, 1): SymmetroidType.T1,
    (2, 1, 1): SymmetroidType.T2,
    (3, 1): SymmetroidType.T3,
    (2, 2): SymmetroidType.T4,
}


class SymmetroidError(ValueError):
    pass


class RankOneScheme:
    """The locus of double-line conics inside the web, cut out by two conics
    in the plane of lines."""

    __slots__ = ("conics", "positive_dimensional", "partition", "common_line",
                 "residual_point")

    def __init__(self, conics, positive_dimensional, partition=None,
                 common_line=None, residual_point=None):
        self.conics = conics
        self.positive_dimensional = positive_dimensional
        self.partition = partition
        self.common_line = common_line
        self.residual_point = residual_point


class PlaneCubicWithSym:
    __slots__ = ("cubic", "sym", "smooth")

    def __init__(self, cubic, sym, smooth):
        self.cubic = cubic
        self.sym = sym
        self.smooth = smooth


class Symmetrization:
    """The tensor behind a cubic symmetroid: a symmetric 3x3 matrix of linear
    forms in four variables, equivalently four constant symmetric matrices."""

    def __init__(self, field, matrix, xvars=X4):
        self.field = field
        self.matrix = matrix
        self.xvars = tuple(xvars)
        for e in matrix.upper.values():
            if not isinstance(e, HomogPoly) or e.degree != 1 or len(e.vars) != 4:
                raise SymmetroidError("entries must be linear forms in four variables")
        self._qvec = None
        self._gauss = None
        self._kernel = None
        self._scheme = None
        self._det = None
        self._adjq = None
        self._adjt = None
        self._adj = None
        self._type = None

    @staticmethod
    def from_entry_rows(field, rows):
        """rows[i][j] is a length-4 coefficient list of the (i,j) entry."""
        built = [[HomogPoly.linear(field, X4, [field.element(c) for c in rows[i][j]])
                  for j in range(3)] for i in range(3)]
        return Symmetrization(field, SymMatrix.from_rows(built))

    @staticmethod
    def from_quadric_vector(field, mats, xvars=X4):
        """Rebuild the matrix of forms from four constant symmetric matrices."""
        rows = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                coeffs = [mats[k].at(i, j) for k in range(4)]
                rows[i][j] = HomogPoly.linear(field, xvars, coeffs)
        return Symmetrization(field, SymMatrix.from_rows(rows), xvars)

    def change_field(self, new_field):
        if new_field == self.field:
            return self
        return Symmetrization(new_field, self.matrix.map(lambda f: f.change_field(new_field)),
                              self.xvars)

    # -- the two tensor views ------------------------------------------------

    def quadric_vector(self):
        """Four constant symmetric 3x3 matrices, one per x-coordinate."""
        if self._qvec is None:
            coeffs = {ij: f.linear_coeffs() for ij, f in self.matrix.upper.items()}
            mats = [SymMatrix(3, {ij: c[k] for ij, c in coeffs.items()}) for k in range(4)]
            self._qvec = tuple(mats)
        return self._qvec

    def gauss_quadrics(self):
        """The four quadratic forms in z read off the tensor; substituting
        them into a dual linear form recovers that form's conic."""
        if self._gauss is None:
            self._gauss = tuple(m.quadratic_form(self.field, Z3)
                                for m in self.quadric_vector())
        return self._gauss

    def determinant_cubic(self):
        if self._det is None:
            self._det = self.matrix.det()
        return self._det

    def contraction_at(self, point):
        """Scalar 3x3 matrix of the conic attached to a point of P^3."""
        point = [self.field.element(c) for c in point]
        return self.matrix.map(lambda f: f.evaluate(point))

    def coefficient_matrix(self):
        """6x4 matrix: columns are the four quadrics in conic coordinates."""
        zero = self.field.zero()
        return linalg.transpose([[form.terms.get(mon, zero) for mon in CONIC_MONOMIALS]
                                 for form in self.gauss_quadrics()])

    def contraction_kernel(self):
        """Kernel of the web map on the dual 4-space; empty iff non-degenerate.
        Memoized: classify, the rank-one scheme and the cone projection read
        one row reduction."""
        if self._kernel is None:
            self._kernel = linalg.kernel_basis(self.coefficient_matrix(), self.field)
        return self._kernel

    def is_degenerate(self):
        return bool(self.contraction_kernel())

    # -- adjugation ----------------------------------------------------------

    def adjugate_quadrics(self):
        """adj(A(x)), a symmetric matrix of quadrics in x: the double-cover
        minors and the enveloping cones of `milne` read it."""
        if self._adjq is None:
            self._adjq = self.matrix.adjugate()
        return self._adjq

    def adjugate_table(self):
        """The adjugate quadrics as one raw table, memoized: {(k, l): row}
        in `QUADRIC_EXPONENTS` order, where row lists the raw coefficient of
        x_k x_l in each entry of `adjugate_quadrics()`, in the order of its
        `upper`.  A linear combination of the entries is then one dot
        product per monomial, as in the enveloping cones of `milne`."""
        if self._adjt is None:
            zero = self.field._zero_raw
            entries = self.adjugate_quadrics().upper.values()
            self._adjt = {kl: [f.terms[e].val if e in f.terms else zero for f in entries]
                          for kl, e in QUADRIC_EXPONENTS.items()}
        return self._adjt

    def line_contraction(self):
        """3x4 matrix B(z): column j is the matrix of quadric j applied to z."""
        qv = self.quadric_vector()
        b = [[None] * 4 for _ in range(3)]
        for j, m in enumerate(qv):
            for i in range(3):
                coeffs = [m.at(i, k) for k in range(3)]
                b[i][j] = HomogPoly.linear(self.field, Z3, coeffs)
        return b

    def adjugate_cubics(self):
        """Signed maximal minors of B(z): the cubic map from the plane into
        the symmetroid, annihilated by B(z) as an exact identity."""
        if not any(self._adjugate_column()):
            raise SymmetroidError("adjugation map vanishes identically")
        return self._adj

    def _adjugate_column(self):
        if self._adj is None:
            minors = linalg.maximal_minors(self.line_contraction())
            cubics = [minors[tuple(k for k in range(4) if k != j)] for j in range(4)]
            self._adj = tuple(-c if j % 2 else c for j, c in enumerate(cubics))
        return self._adj

    def annihilation_holds(self):
        """B(z) times the column of adjugate cubics is zero; a column that
        vanishes identically is annihilated too."""
        b = self.line_contraction()
        column = [[c] for c in self._adjugate_column()]
        return not any(row[0] for row in linalg.mat_mul(b, column))

    # -- double cover minors ---------------------------------------------------

    def double_cover_minors(self):
        """The three 2x2-minor discriminants whose square roots all cut out
        the same double cover; the certificate is the exact syzygy tying the
        first and last of them to the determinant."""
        adj = self.adjugate_quadrics().at
        m12, m13, m23, cross = -adj(2, 2), -adj(1, 1), -adj(0, 0), adj(0, 2)
        cert = (linalg.det([[m12, cross], [cross, m23]])
                == self.matrix.at(1, 1) * self.determinant_cubic())
        return m12, m13, m23, cert

    # -- rank-one locus and classification -------------------------------------

    def rank_one_scheme(self):
        """The double-line locus: two conics k1, k2 in the line plane, read
        from the Segre symbol of their pencil (Hodge-Pedoe, Methods of
        Algebraic Geometry II).

        The two functionals are the reduced-row-echelon complement of the
        web's column space.  Applied to the square (w.z)^2 of a variable
        line, each is the quadratic form of the symmetric matrix M it fills
        in monomial order.  The singular members s k1 + t k2 are the roots
        of d = det(s M1 + t M2), which `binforms.pencil_determinant_raw`
        expands and `quadrics.multiple_members` reads.
        Three simple roots mean four simple points.  A multiple root is
        unique, hence rational, and the rank of its member tells a tangency
        (rank 2) from a pair of tangencies or a contact of order four
        (rank 1).  A common line makes every member singular, so it is
        searched for only when d vanishes identically: it is unique, hence
        rational, and found among the linear factors of k1 that divide k2,
        skipping a factorization that needs an extension.  Without one, all
        members are line pairs through one point, which carries the whole
        intersection.

        Memoized beside the contraction kernel: classify and the CLI report
        read one scheme.
        """
        if self._scheme is None:
            self._scheme = self._rank_one_scheme()
        return self._scheme

    def _rank_one_scheme(self):
        if self.is_degenerate():
            raise SymmetroidError("rank-one scheme is only computed for non-degenerate webs")
        field = self.field
        functionals = linalg.kernel_basis(linalg.transpose(self.coefficient_matrix()), field)
        m1, m2 = (SymMatrix(3, zip(_CONIC_ENTRIES, f)) for f in functionals)
        conics = k1, k2 = tuple(m.quadratic_form(field, W3) for m in (m1, m2))
        members = multiple_members(m1, m2, pencil_determinant_raw(m1, m2, field), field)
        if members is not None:
            partition = [1, 1, 1, 1]
            if members:
                mult, _, member = members[0]
                partition = {(2, 2): [2, 1, 1], (2, 1): [2, 2],
                             (3, 2): [3, 1], (3, 1): [4]}[mult, member.rank()]
            return RankOneScheme(conics, False, partition=partition)
        pair = factor_rank_le2(m1, field, W3)
        if pair is not None and not pair.extended:
            for line in (pair.h1,) if pair.kind == "double" else (pair.h1, pair.h2):
                res2 = k2.divide_linear(line)
                if res2 is not None:
                    pt = _line_intersection(k1.divide_linear(line), res2)
                    return RankOneScheme(conics, True, common_line=line, residual_point=pt)
        return RankOneScheme(conics, False, partition=[4])

    def classify(self):
        if self._type is None:
            self._type = self._classify()
        return self._type

    def _classify(self):
        det = self.determinant_cubic()
        if not det:
            return SymmetroidType.REDUCIBLE_UNCLASSIFIED
        kernel = self.contraction_kernel()
        if kernel:
            if len(kernel) > 1:
                return SymmetroidType.DEGENERATE_SINGULAR
            projected = self.project_from_vertex()
            return (SymmetroidType.DEGENERATE_CONE if projected.smooth
                    else SymmetroidType.DEGENERATE_SINGULAR)
        scheme = self.rank_one_scheme()
        if scheme.positive_dimensional:
            structural = self._classify_on_line(scheme)
            checked = self._crosscheck_reducible(structural)
            return checked
        part = tuple(scheme.partition)
        if part in PARTITION_TO_TYPE:
            return PARTITION_TO_TYPE[part]
        try:
            structural = (SymmetroidType.T6 if self._adjugate_image_in_quadric()
                          else SymmetroidType.T5)
        except SymmetroidError:
            return SymmetroidType.REDUCIBLE_UNCLASSIFIED
        return self._crosscheck_reducible(structural)

    def _classify_on_line(self, scheme):
        if scheme.residual_point is None:
            return SymmetroidType.REDUCIBLE_UNCLASSIFIED
        value = scheme.common_line.evaluate(scheme.residual_point)
        return SymmetroidType.T7 if value else SymmetroidType.T8

    def _adjugate_image_in_quadric(self):
        cubics = self.adjugate_cubics()
        quad_monomials = [tuple(m.count(i) for i in range(4))
                          for m in combinations_with_replacement(range(4), 2)]
        sextics = {mon: HomogPoly.monomial(self.field, X4, mon).substitute(cubics)
                   for mon in quad_monomials}
        target_monos = sorted({e for f in sextics.values() for e in f.terms})
        rows = []
        for tm in target_monos:
            rows.append([sextics[mon].terms.get(tm, self.field.zero())
                         for mon in quad_monomials])
        return bool(linalg.kernel_basis(rows, self.field))

    def _crosscheck_reducible(self, structural):
        """Over a finite field, compare with the plane factors of the
        determinant, found from binary-cubic roots and confirmed by exact
        division; disagreement is surfaced instead of guessed."""
        if not self.field.is_finite():
            return structural
        det = self.determinant_cubic()
        factors = _plane_factors(det, self.field)
        if structural in IRREDUCIBLE_TYPES:
            return structural if not factors else SymmetroidType.REDUCIBLE_UNCLASSIFIED
        if not factors:
            return SymmetroidType.REDUCIBLE_UNCLASSIFIED
        bytype = _reducible_type_from_factors(factors, self.field)
        return structural if bytype == structural else SymmetroidType.REDUCIBLE_UNCLASSIFIED

    # -- cones ----------------------------------------------------------------

    def project_from_vertex(self):
        """Plane cubic under the cone's vertex projection, with its inherited
        3-variable symmetrization; only for one-dimensional kernels."""
        kernel = self.contraction_kernel()
        if len(kernel) != 1:
            raise SymmetroidError("projection needs a one-dimensional kernel")
        kappa = kernel[0]
        drop = max(i for i, c in enumerate(kappa) if c)
        kept = [i for i in range(4) if i != drop]
        qv = self.quadric_vector()
        rows = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                coeffs = [qv[k].at(i, j) for k in kept]
                rows[i][j] = HomogPoly.linear(self.field, W3, coeffs)
        sym = SymMatrix.from_rows(rows)
        cubic = linalg.det(sym.rows())
        smooth = bool(cubic) and plane_cubic_is_smooth(cubic)
        return PlaneCubicWithSym(cubic, sym, smooth)

    # -- pointwise inverse ------------------------------------------------------

    def prym_canonical_point(self, point):
        """Singular point of the rank-2 conic attached to a symmetroid point:
        the plane image of that point under the inverse of adjugation."""
        point = [self.field.element(c) for c in point]
        if self.determinant_cubic().evaluate(point):
            raise SymmetroidError("point is not on the symmetroid")
        m = self.contraction_at(point)
        rows = m.rows()
        if linalg.rank(rows) != 2:
            raise SymmetroidError("conic at the point must have rank exactly two")
        ker = linalg.kernel_basis(rows, self.field)
        return linalg.normalize_point(ker[0])


def _line_intersection(l1, l2):
    """Meet of two distinct plane lines via the cross product."""
    cross = linalg.cross(l1.linear_coeffs(), l2.linear_coeffs())
    if not any(cross):
        return None
    return linalg.normalize_point(cross)


def _plane_factors(cubic, field):
    """All normalized linear factors of a nonzero space cubic over a finite
    field, with cofactor quadrics, in `oracle.projective_points_raw` order.

    The cubic does not vanish at some point v0 of the grid S^4, S the first
    min(q, 5) elements of the field: for q >= 5 because a nonzero form of
    degree < |S| in each variable does not vanish on S^4, and for q = 3
    because no nonzero cubic vanishes on all of P^3(F_3).  A factor L has
    L(v0) != 0, so normalized by L(v0) = 1 its value L(e_i) on each of the
    three unit vectors that complete v0 to a basis is -u for a rational
    root (u : 1) of the cubic restricted to the line (s v0 + t e_i).  That
    leaves at most 27 candidates, each confirmed by exact division.
    """
    ev = compile_raw(cubic)
    zero_raw = field._zero_raw
    zero, one = field.zero(), field.one()
    grid = list(islice(field.elements(), 5))
    # walked from the far corner, away from the coordinate hyperplanes,
    # where a sparse cubic mostly vanishes
    v0 = next(pt for pt in product(grid[::-1], repeat=4)
              if ev(tuple(c.val for c in pt)) != zero_raw)
    j = next(i for i, c in enumerate(v0) if c)
    others = [i for i in range(4) if i != j]
    values = []
    for i in others:
        unit = [one if k == i else zero for k in range(4)]
        values.append([-u for u, _ in rational_roots(cubic.restrict_to_line(v0, unit))])
    candidates = []
    for lam in product(*values):
        ell = [zero] * 4
        for i, li in zip(others, lam):
            ell[i] = li
        ell[j] = (1 - sum(li * v0[i] for i, li in zip(others, lam))) / v0[j]
        k = next(i for i, c in enumerate(ell) if c)
        candidates.append((k, tuple(c / ell[k] for c in ell)))
    # projective_points_raw order: fewer leading zeros first, then the tail
    candidates.sort(key=lambda kc: (kc[0], [c.val for c in kc[1]]))
    out = []
    for _, ell in candidates:
        quad = cubic.divide_linear(HomogPoly.linear(field, cubic.vars, ell))
        if quad is not None:
            out.append((ell, quad))
    return out


def _reducible_type_from_factors(factors, field):
    for coeffs, quad in factors:
        if quad.divide_linear(HomogPoly.linear(field, quad.vars, coeffs)) is not None:
            return SymmetroidType.T8
    if len(factors) == 1:
        coeffs, quad = factors[0]
        r = SymMatrix.from_quadratic_form(quad).rank()
        if r == 4:
            return SymmetroidType.T6
        if r == 3:
            return SymmetroidType.T7
    return SymmetroidType.REDUCIBLE_UNCLASSIFIED


def hankel_symmetroid(field, quartic_coeffs):
    """Symmetroid model carved from the rank-deficient locus of catalecticant
    matrices by the hyperplane of a monic quartic a0 + a1 t + a2 t^2 + a3 t^3 + t^4.

    For separable input this is a four-nodal cubic with singular points at
    (1 : t : t^2 : t^3) for each root t.
    """
    a = [field.element(c) for c in quartic_coeffs]
    if len(a) != 4:
        raise SymmetroidError("need the four non-leading coefficients of a monic quartic")
    last = HomogPoly.linear(field, X4, [-c for c in a])
    u = [HomogPoly.linear(field, X4, [1 if j == i else 0 for j in range(4)])
         for i in range(4)]
    rows = [[u[0], u[1], u[2]],
            [u[1], u[2], u[3]],
            [u[2], u[3], last]]
    return Symmetrization(field, SymMatrix.from_rows(rows))


def _poly_mod_quartic(coeffs, modulus, field):
    """Reduce a coefficient list mod the monic quartic t^4 + m3 t^3 + ... + m0."""
    cs = [field.element(c) for c in coeffs]
    while len(cs) > 4:
        top = cs.pop()
        k = len(cs) - 4
        for i in range(4):
            cs[k + i] = cs[k + i] - top * modulus[i]
    while len(cs) < 4:
        cs.append(field.zero())
    return cs


def cayley_normal_form(field, quartic_coeffs, h_coeffs):
    """Cubic surface carved out by the trace form of a separable quartic
    algebra: the sum of the products of any three conjugates of the linear
    form h.

    h_coeffs[j] lists the four algebra coordinates of the x_j coefficient.
    Computed as the trace of the adjugate of the multiplication-by-h matrix,
    entirely inside the quotient ring.
    """
    a = [field.element(c) for c in quartic_coeffs]
    monic = [1, a[3], a[2], a[1], a[0]]
    if not is_squarefree(HomogPoly(field, ST, 4, {(4 - i, i): c for i, c in enumerate(monic)})):
        raise SymmetroidError("the quartic must be separable")
    # multiplication matrix of h over k[x]: columns indexed by basis powers
    basis_cols = []
    for k in range(4):
        col = [HomogPoly.zero(field, X4, 1) for _ in range(4)]
        for j in range(4):
            # h_j(alpha) * alpha^k reduced mod the quartic
            hj = list(h_coeffs[j]) + [0] * (4 - len(h_coeffs[j]))
            shifted = [field.zero()] * k + [field.element(c) for c in hj]
            red = _poly_mod_quartic(shifted, a, field)
            xj = HomogPoly.linear(field, X4, [1 if t == j else 0 for t in range(4)])
            for i in range(4):
                if red[i]:
                    col[i] = col[i] + xj * red[i]
        basis_cols.append(col)
    mh = [[basis_cols[k][i] for k in range(4)] for i in range(4)]
    return linalg.sum_entries([
        linalg.det([[mh[i][j] for j in range(4) if j != k] for i in range(4) if i != k])
        for k in range(4)])


def quotient_plane_form(field, quartic_coeffs):
    """Algebra-coefficient linear form whose conjugate planes each pass
    through three of the four points (1 : t : t^2 : t^3).

    The x_k coefficient is the T^k coefficient of f(T)/(T - alpha); feeding
    this into cayley_normal_form puts the four singular points on the
    rational normal curve at the roots of f.
    """
    a0, a1, a2, a3 = [field.element(c) for c in quartic_coeffs]
    one = field.one()
    zero = field.zero()
    return [
        [a1, a2, a3, one],
        [a2, a3, one, zero],
        [a3, one, zero, zero],
        [one, zero, zero, zero],
    ]
