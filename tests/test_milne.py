from collections import Counter
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from prymcubic import binforms, linalg, milne, poly
from prymcubic.binforms import binary_gcd, pencil_determinant_raw
from prymcubic.fields import Field, FieldElement, FieldError, QQ
from prymcubic.fixtures import FIXTURES, fix_a
from prymcubic.milne import (Line2, MilneError, contact_points_match,
                             cubic_through_curve_and_twisted, enveloping_cone,
                             line_is_generic, reducible_member, tritangent_verify,
                             twisted_cubic)
from prymcubic.oracle import enumerate_bitangents, projective_points, projective_points_raw
from prymcubic.poly import HomogPoly, SymMatrix, proportional
from prymcubic.prym import forward_general
from prymcubic.symmetroid import QUADRIC_EXPONENTS, Symmetrization, SymmetroidError

from test_binforms import INVARIANT_FIELDS, _draw_form, _draw_scalar, bf, dense
from test_linalg import _line_basis_by_kernel
from test_poly import CASES_F3_F9, PROPERTY
from test_scene_properties import _scalar

F11 = Field.prime(11)
X4 = ("x0", "x1", "x2", "x3")
Z3 = ("z0", "z1", "z2")


def test_enveloping_cone_seed_line():
    # the line z2 = 0 against the classical seed: the envelope is a
    # double-cover minor locus
    a = fix_a(QQ)
    line = Line2(QQ, [1, 0, 0], [0, 1, 0])
    cone = enveloping_cone(a, line)
    target = HomogPoly(QQ, X4, 2, {(0, 0, 0, 2): 4, (1, 1, 0, 0): -4})
    assert proportional(cone.matrix.quadratic_form(QQ, X4), target)
    assert cone.rank < 4
    assert not cone.matrix.det()


def test_enveloping_cone_rejects_base_line():
    # type (7):0-entry pattern collapses the image of the line z0 = 0
    from prymcubic.symmetroid import Symmetrization
    E0, E1, E2, E3, Z = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]
    t7 = Symmetrization.from_entry_rows(QQ, [[E0, Z, Z], [Z, E1, E3], [Z, E3, E2]])
    line = Line2(QQ, [0, 1, 0], [0, 0, 1])
    with pytest.raises(MilneError):
        enveloping_cone(t7, line)


@pytest.mark.parametrize("F", [QQ, F11])
def test_line_carries_its_dual_coordinates(F):
    # u = p0 x p1, zero exactly when the two points do not span a line;
    # points with other than three coordinates are refused, not truncated
    assert Line2(F, [1, 2, 0], [0, 1, 3]).u == tuple(F.element(c) for c in (6, -3, 1))
    for p0, p1 in (([1, 2, 3], [2, 4, 6]), ([0, 0, 0], [1, 0, 0]), ([0, 1, 0], [0, 1, 0]),
                   ([1, 0, 0, 5], [0, 1, 0, 5]), ([1, 0], [0, 1])):
        with pytest.raises(MilneError):
            Line2(F, p0, p1)
    for dual in [(1, 2, 3), (0, 1, 5), (0, 0, 1), (1, 0, 0)]:
        u = Line2.from_dual(F, dual).u
        assert any(u) and not any(linalg.cross(u, [F.element(c) for c in dual]))


def test_reducible_member_degenerate_pencil():
    a = fix_a(QQ)
    line = Line2(QQ, [1, 0, 0], [0, 1, 0])
    cone = enveloping_cone(a, line)
    with pytest.raises(MilneError):
        reducible_member(cone.matrix, cone.matrix.scale(QQ.element(3)), QQ)


@pytest.mark.parametrize("F", [QQ, F11])
def test_reducible_member_vanishing_determinant(F):
    # E and Q share a two-dimensional kernel, so every member is singular;
    # F_11 reads the determinant from the compiled kernel, Q from Laplace
    e = SymMatrix.from_rows([[F.element(int(i == j < 2)) for j in range(4)] for i in range(4)])
    q = SymMatrix.from_rows([[F.element(int(i == j == 0)) for j in range(4)] for i in range(4)])
    with pytest.raises(MilneError, match="pencil determinant vanishes identically"):
        reducible_member(e, q, F)


@pytest.mark.parametrize("p", (3, 5, 101))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_pencil_kernel_matches_pencil_determinant(p, data):
    # the compiled det(s E + t Q) of one quadric Q and the Laplace
    # expansion of binforms.pencil_determinant_raw are the same dense raw
    # list once both are padded to s^0 t^4, for every E: zero, a multiple
    # of Q (a proportional pencil), a sum of one or two rank-one terms, or
    # a sum of four; Q itself is drawn of every rank
    F = Field.prime(p)
    raw = st.integers(0, p - 1)

    def sym(terms):
        rows = [[F.zero()] * 4 for _ in range(4)]
        for _ in range(terms):
            v = [F.element(data.draw(raw)) for _ in range(4)]
            c = F.element(data.draw(raw))
            rows = [[rows[i][j] + c * v[i] * v[j] for j in range(4)] for i in range(4)]
        return SymMatrix.from_rows(rows)

    q = sym(data.draw(st.integers(0, 4)))
    kernel = milne._pencil_kernel(q, F)
    for e in (sym(0), q.scale(F.element(data.draw(raw))), sym(data.draw(st.integers(1, 2))),
              sym(4)):
        det = kernel([e.upper[k].val for k in sorted(e.upper)])
        expanded = pencil_determinant_raw(e, q, F)
        assert len(det) <= 5 and len(expanded) <= 5
        assert det + [0] * (5 - len(det)) == expanded + [0] * (5 - len(expanded))


@pytest.mark.parametrize("name,field,cones", [
    ("t1", Field.prime(7).quadratic_extension(3), 124),
    ("t2", Field.prime(5).quadratic_extension(2), 116),
    ("seed", QQ, 112)], ids=["t1-F49", "t2-F25", "seed-Q"])
def test_reducible_member_factors_each_determinant_once(monkeypatch, name, field, cones):
    # reducible_member factors the pencil determinant of a cone at most
    # once, in quadrics.multiple_members: over Q every cone's, and over a
    # finite field, where the compiled discriminant answers first, only a
    # determinant with a multiple root, and none that is squarefree; the
    # cones are those of the nonzero duals in {0..4}^3 over F_49 and F_25,
    # each with and without a multiple root, and in {-2..2}^3 over Q
    a, q = FIXTURES[name].symmetrization(field), FIXTURES[name].quadric(field)
    calls = []
    decomposition = binforms.squarefree_decomposition

    def counted(f, field):
        calls.append(1)
        return decomposition(f, field)

    monkeypatch.setattr(binforms, "squarefree_decomposition", counted)
    per_cone, expected = [], []
    box = range(5) if field.characteristic() else range(-2, 3)
    for dual in product(box, repeat=3):
        if not any(dual):
            continue
        try:
            cone = enveloping_cone(a, Line2.from_dual(field, dual))
        except MilneError:
            continue
        det = pencil_determinant_raw(cone.matrix, q, field)
        expected.append(0 if field.is_finite() and binforms.is_squarefree_raw(field, 4, det)
                        else 1)
        calls.clear()
        reducible_member(cone.matrix, q, field)
        per_cone.append(len(calls))
    assert len(per_cone) == cones and per_cone == expected
    assert 1 in expected and (0 in expected) == field.is_finite()


def test_reducible_member_zero_pencil_end_is_degenerate():
    # a zero quadric spans no pencil with the other: its member at the root
    # of d = c s^4 would be the zero matrix, which has no planes
    zero = SymMatrix.from_rows([[F11.zero()] * 4 for _ in range(4)])
    ident = SymMatrix.from_rows(linalg.identity(4, F11))
    for lam, q in ((zero, ident), (ident, zero), (zero, zero)):
        with pytest.raises(MilneError, match="pencil is degenerate"):
            reducible_member(lam, q, F11)


def _milne_scan(fixture_name, p):
    F = Field.prime(p)
    fx = FIXTURES[fixture_name]
    a = fx.symmetrization(F)
    q = fx.quadric(F)
    fwd = forward_general(a, q)
    gamma = a.determinant_cubic()
    oracle = set()
    for bl in enumerate_bitangents(fwd.quartic, F):
        line = Line2(F, bl.p0, bl.p1)
        try:
            enveloping_cone(a, line)
        except MilneError:
            continue
        oracle.add(tuple(repr(c.val) for c in bl.dual))
    detected = {}
    for dual in projective_points_raw(F, 2):
        dual_el = tuple(F.element(c) for c in dual)
        line = Line2.from_dual(F, dual)
        try:
            cone = enveloping_cone(a, line)
        except MilneError:
            continue
        mem = reducible_member(cone.matrix, q, F)
        if mem is not None and mem.kind == "pair":
            detected[tuple(repr(c.val) for c in dual_el)] = (line, mem)
    return a, q, fwd, gamma, oracle, detected


def test_bijection_t1_f11():
    a, q, fwd, gamma, oracle, detected = _milne_scan("t1", 11)
    assert set(detected) == oracle
    assert len(oracle) >= 3
    for key, (line, mem) in detected.items():
        assert not proportional(mem.h1, mem.h2)
        for h in (mem.h1, mem.h2):
            cert = tritangent_verify(q, gamma, h)
            assert cert.passed
        tw = twisted_cubic(a, line)
        assert tw.honest


def test_contact_points_on_twisted_cubic():
    a, q, fwd, gamma, oracle, detected = _milne_scan("t1", 11)
    hits = 0
    for key, (line, mem) in detected.items():
        tw = twisted_cubic(a, line)
        for h in (mem.h1, mem.h2):
            cert = tritangent_verify(q, gamma, h)
            if cert.contact is None:
                continue
            assert contact_points_match(h, tw, cert.contact, cert.conic_param,
                                        cert.plane_basis)
            hits += 1
    assert hits >= 4


def test_envelope_contains_the_two_conics():
    """The two tritangent planes slice the quadric in conics lying on the
    envelope: the envelope restricted to each parametrized conic vanishes."""
    a, q, fwd, gamma, oracle, detected = _milne_scan("t1", 11)
    F = F11
    for key, (line, mem) in detected.items():
        cone = enveloping_cone(a, line)
        for h in (mem.h1, mem.h2):
            cert = tritangent_verify(q, gamma, h)
            if cert.conic_param is None:
                continue
            work = cert.conic_param[0].field
            lifted = []
            for i in range(4):
                acc = None
                for k in range(3):
                    c = cert.plane_basis[k][i]
                    if c:
                        t = cert.conic_param[k] * c
                        acc = t if acc is None else acc + t
                lifted.append(acc if acc is not None
                              else HomogPoly.zero(work, ("s", "t"), 2))
            cform = cone.matrix.quadratic_form(work, X4)
            restricted = cform.substitute(tuple(lifted))
            assert not restricted


def test_envelope_vanishes_exactly_on_prym_line_points():
    checked = 0
    from prymcubic.oracle import projective_points
    for prime in (11, 13, 17, 19):
        F = Field.prime(prime)
        a, q, fwd, gamma, oracle, detected = _milne_scan("t1", prime)
        if not detected:
            continue
        qform = FIXTURES["t1"].quadric_form(F)
        (key, (line, mem)) = sorted(detected.items())[0]
        cone = enveloping_cone(a, line)
        dualf = linalg.kernel_basis([[c for c in line.p0], [c for c in line.p1]], F)[0]
        for pt in projective_points(F, 3):
            if checked >= 20:
                break
            p = list(pt)
            if qform.evaluate(p) or gamma.evaluate(p):
                continue
            m = a.contraction_at(p)
            if linalg.rank(m.rows()) != 2:
                continue
            z = a.prym_canonical_point(p)
            on_line = not linalg.sum_entries([c * v for c, v in zip(dualf, z)])
            vanishes = not cone.matrix.quadratic_form(F, X4).evaluate(p)
            assert on_line == vanishes
            checked += 1
        if checked >= 20:
            break
    assert checked == 20


def test_twisted_cubic_seed_line():
    # the seed line z2 = 0 runs through base points: the image collapses onto
    # a node, the on-surface identity still holds, and it is not honest
    a = fix_a(F11)
    line = Line2(F11, [1, 0, 0], [0, 1, 0])
    tw = twisted_cubic(a, line)
    det = a.determinant_cubic()
    assert not det.substitute(tw.components)
    assert not tw.honest
    # a genuinely generic line gives an honest twisted cubic
    found = None
    for b in range(11):
        cand = Line2.from_dual(F11, (1, 3, b))
        if line_is_generic(a, cand):
            found = cand
            break
    assert found is not None
    tw2 = twisted_cubic(a, found)
    assert tw2.honest
    assert not det.substitute(tw2.components)


def test_unique_cubic_through_curve_and_twisted():
    a, q, fwd, gamma, oracle, detected = _milne_scan("t1", 11)
    count = 0
    for key, (line, mem) in sorted(detected.items()):
        tw = twisted_cubic(a, line)
        out, sol = cubic_through_curve_and_twisted(q, gamma, tw, F11)
        assert sol[0]
        assert proportional(out, gamma)
        count += 1
    assert count >= 3


def test_unique_cubic_negative_control():
    # four random points not on a mutual cubic-with-C: no nonzero solution
    fx = FIXTURES["t1"]
    a = fx.symmetrization(F11)
    q = fx.quadric(F11)
    gamma = a.determinant_cubic()
    qf = q.quadratic_form(F11, X4)
    pts = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 2, 3, 4]]
    rows = []
    for praw in pts:
        p = [F11.element(c) for c in praw]
        qv = qf.evaluate(p)
        rows.append([gamma.evaluate(p)] + [qv * p[i] for i in range(4)])
    kernel = linalg.kernel_basis(rows, F11)
    for v in kernel:
        assert not v[0]  # no cubic proportional to gamma survives


def test_dimension_count_three_conditions():
    a, q, fwd, gamma, oracle, detected = _milne_scan("t1", 11)
    (key, (line, mem)) = sorted(detected.items())[0]
    tw = twisted_cubic(a, line)
    qf = q.quadratic_form(F11, X4)
    rows = []
    for (s0, t0) in [(1, 0), (0, 1), (1, 1)]:
        se, te = F11.element(s0), F11.element(t0)
        pt = [c.evaluate([se, te]) for c in tw.components]
        qv = qf.evaluate(pt)
        rows.append([gamma.evaluate(pt)] + [qv * pt[i] for i in range(4)])
    assert len(linalg.kernel_basis(rows, F11)) == 2


def test_envelope_tangent_along_twisted_cubic():
    # the envelope touches the symmetroid all along the image of the line:
    # gradients composed with the parametrized cubic stay proportional
    fx = FIXTURES["t1"]
    a = fx.symmetrization(F11)
    gamma = a.determinant_cubic()
    tested = 0
    for b in range(11):
        line = Line2.from_dual(F11, (1, 5, b))
        if not line_is_generic(a, line):
            continue
        cone = enveloping_cone(a, line)
        tw = twisted_cubic(a, line)
        assert tw.honest
        grads_l = [g.substitute(tw.components)
                   for g in cone.matrix.quadratic_form(F11, X4).gradient()]
        grads_g = [g.substitute(tw.components) for g in gamma.gradient()]
        for i in range(4):
            for j in range(i + 1, 4):
                assert grads_l[i] * grads_g[j] == grads_l[j] * grads_g[i]
        tested += 1
        if tested >= 3:
            break
    assert tested >= 3


def test_tritangent_verify_tangent_plane_path():
    # a plane tangent to the quadric slices it in two rulings; the reducible
    # branch of the verifier must run and flag the split conic
    from prymcubic.fixtures import fix_q
    a = fix_a(F11)
    gamma = a.determinant_cubic()
    h = HomogPoly.linear(F11, X4, [0, 1, 0, 0])  # tangent to x0x1 - x2x3 at (1:0:0:0)
    cert = tritangent_verify(fix_q(F11), gamma, h)
    assert cert.reducible_conic
    assert isinstance(cert.passed, bool)


def _split_tangent_contact_is_even(q, gamma, h, field):
    """Reference parity of the divisor Γ·h on a plane h whose section of Q is
    two rational rulings: the points of Q ∩ h in P^3(F_p) are the two lines,
    the contact multiplicity of Γ at each of their points is the order of
    vanishing of Γ along the line there, and the crossing point adds both
    lines' orders.  Points off the rational ones are simple (a repeated
    conjugate pair would need degree four on a line), so the divisor is
    even iff every rational order is even and nothing is missing."""
    qf = q.quadratic_form(field, X4)
    plane = [pt for pt in projective_points(field, 3) if not h.evaluate(pt) and not qf.evaluate(pt)]
    # the crossing is the one point joined to every other by a line in Q
    def on_q_line(u, v):
        return all(not qf.evaluate([a * s + b for a, b in zip(u, v)]) for s in field.elements())
    crossing = next(u for u in plane if all(u is v or on_q_line(u, v) for v in plane))
    divisor, missing, lines = Counter(), 0, set()
    for v in plane:
        if v is crossing:
            continue
        line = frozenset(linalg.normalize_point([a * s + b for a, b in zip(crossing, v)])
                         for s in field.elements()) | {tuple(crossing)}
        if line in lines:
            continue
        lines.add(line)
        found = 0
        for pt in line:
            other = next(w for w in line if w != pt)
            rest = gamma.restrict_to_line(list(pt), list(other))
            if not rest:
                return False  # Γ contains the ruling: no divisor
            order = min(e[1] for e in rest.terms)
            divisor[pt] += order
            found += order
        missing += 3 - found
    assert len(lines) == 2
    return not missing and all(m % 2 == 0 for m in divisor.values())


@pytest.mark.parametrize("name,p,evens", [("biell", 5, 2), ("t2", 5, 1), ("t3", 3, 2),
                                          ("t1", 7, 1)])
def test_tangent_plane_verdicts_match_the_contact_parity(name, p, evens, monkeypatch):
    # every plane over F_p that cuts Q in two rational rulings (2p + 1
    # points) reaches the line-pair verdict of the tritangent check, which
    # must read the parity of Γ·h computed point by point
    field = Field.prime(p)
    fx = FIXTURES[name]
    q, gamma = fx.quadric(field), fx.symmetrization(field).determinant_cubic()
    qf = q.quadratic_form(field, X4)
    verdicts = []
    even_on_line_pair = milne._even_on_line_pair

    def spy(pair, cubic):
        verdicts.append(even_on_line_pair(pair, cubic))
        return verdicts[-1]

    monkeypatch.setattr(milne, "_even_on_line_pair", spy)
    got = Counter()
    for u in projective_points(field, 3):
        h = HomogPoly.linear(field, X4, list(u))
        if sum(1 for pt in projective_points(field, 3)
               if not h.evaluate(pt) and not qf.evaluate(pt)) != 2 * p + 1:
            continue
        verdicts.clear()
        cert = tritangent_verify(q, gamma, h)
        assert cert.reducible_conic and verdicts == [cert.passed]
        assert cert.passed == _split_tangent_contact_is_even(q, gamma, h, field)
        got[cert.passed] += 1
    assert got[True] == evens and got[False] > 0


def test_tritangent_verify_negative_control():
    # coordinate planes of the t1 fixture are not tritangents
    fx = FIXTURES["t1"]
    a = fx.symmetrization(F11)
    q = fx.quadric(F11)
    gamma = a.determinant_cubic()
    results = []
    for coeffs in ([1, 0, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1], [1, 2, 3, 4]):
        h = HomogPoly.linear(F11, X4, coeffs)
        cert = tritangent_verify(q, gamma, h)
        results.append(cert.passed)
    assert not any(results)


def test_bijection_more_fixtures_and_primes():
    for name, p in (("t3", 11), ("t1", 13)):
        a, q, fwd, gamma, oracle, detected = _milne_scan(name, p)
        assert set(detected) == oracle


def _dual_lines(p):
    """Every line of P^2 over F_p once, by normalized dual coordinates."""
    return ([(1, a, b) for a in range(p) for b in range(p)]
            + [(0, 1, b) for b in range(p)] + [(0, 0, 1)])


def test_line_tests_restrict_each_form_once(monkeypatch):
    # over F_p one evaluator per pair serves every line: the four adjugate
    # cubics are compiled once, and line_is_generic, enveloping_cone and
    # twisted_cubic on one line read one evaluation of it; the pencil
    # determinant is compiled once per quadric and evaluated once per cone.
    # No form is restricted on its own, and the cone is read off the
    # adjugate of the symmetrization, so no Gauss quadric is compiled.
    # Another line object, even an equal one, is evaluated afresh, and
    # another symmetrization compiles its own cubics.  Over Q one
    # restrict_forms_raw call restricts the four cubics on each line.
    builds, evaluations, restricted = [], [], []

    def counted_build(build, forms_of):
        def counted(*args):
            builds.append(forms_of(*args))
            ev = build(*args)

            def evaluated(*point):
                evaluations.append(forms_of(*args))
                return ev(*point)
            return evaluated
        return counted

    def counted_restrict(forms, p0, p1):
        restricted.extend(forms)
        return poly.restrict_forms_raw(forms, p0, p1)

    def one_form(*args):
        raise AssertionError("a form restricted on its own")

    monkeypatch.setattr(milne, "line_restrictions",
                        counted_build(milne.line_restrictions, lambda forms: forms))
    monkeypatch.setattr(milne, "_pencil_kernel",
                        counted_build(milne._pencil_kernel, lambda q, field: q))
    monkeypatch.setattr(milne, "restrict_forms_raw", counted_restrict)
    monkeypatch.setattr(HomogPoly, "restrict_to_line", one_form)
    a = FIXTURES["t1"].symmetrization(F11)
    q = FIXTURES["t1"].quadric(F11)
    four = a.adjugate_cubics()
    lines = cones = 0
    for dual in _dual_lines(11)[::7]:
        for line in (Line2.from_dual(F11, dual), Line2.from_dual(F11, dual)):
            line_is_generic(a, line)
            try:
                cone = enveloping_cone(a, line)
                reducible_member(cone.matrix, q, F11)
                cones += 1
            except MilneError:
                pass
            twisted_cubic(a, line)
            lines += 1
            assert evaluations.count(four) == lines, dual
            assert evaluations.count(q) == cones, dual
    assert cones > 0 and restricted == []
    assert builds == [four, q] and builds[0] is four and builds[1] is q
    b = FIXTURES["t2"].symmetrization(F11)
    line_is_generic(b, line)
    line_is_generic(a, line)
    assert [list(map(id, forms)) for forms in builds[2:]] == [
        list(map(id, b.adjugate_cubics())), list(map(id, four))]
    aq = FIXTURES["t1"].symmetrization(QQ)
    for dual in _dual_lines(11)[:3]:
        restricted.clear()
        line = Line2.from_dual(QQ, dual)
        line_is_generic(aq, line)
        enveloping_cone(aq, line)
        twisted_cubic(aq, line)
        assert Counter(map(id, restricted)) == Counter(map(id, aq.adjugate_cubics())), dual
    assert len(builds) == 4


def test_base_locus_test_runs_gcd_steps_only_on_a_zero_resultant(monkeypatch):
    # over F_p no gcd step on a line whose four restricted cubics are
    # nonzero with Res(first, second) != 0 or Res(first, fourth) != 0, as
    # on most lines; otherwise as many
    # steps as it takes the chain of binary_gcd on the wrapped restrictions,
    # the reference, to reach a constant gcd
    calls = []
    gcd_split = binforms._gcd_split

    def counted(a, b, field):
        calls.append(1)
        return gcd_split(a, b, field)

    monkeypatch.setattr(binforms, "_gcd_split", counted)
    a = FIXTURES["t1"].symmetrization(F11)
    seen = Counter()
    for dual in _dual_lines(11):
        line = Line2.from_dual(F11, dual)
        cubics = poly.restrict_forms(a.adjugate_cubics(), line.p0, line.p1)
        chain = [cubics[0]]
        for c in cubics[1:]:
            chain.append(binary_gcd(chain[-1], c))
        want = next((k for k in range(1, 4) if chain[k].degree == 0), 3)
        quick = all(cubics) and any(binforms.resultant(cubics[0], cubics[k]) for k in (1, 3))
        seen["fourth"] += quick and not binforms.resultant(cubics[0], cubics[1])
        calls.clear()
        assert line_is_generic(a, line) == (all(cubics) and chain[-1].degree == 0)
        assert len(calls) == (want if all(cubics) and not quick else 0), dual
        seen[len(calls)] += 1
    assert seen[0] > seen[3] > 0 and seen["fourth"] > 0


@pytest.mark.parametrize("name", sorted(INVARIANT_FIELDS) + ["QQ"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_coprime_cubics_read_the_resultant_first(name, data):
    # four restricted cubics, the last two maybe zero, the first two with a
    # drawn common factor (s, t, a linear form) or none, and each of the
    # last two sometimes with it too: milne's test, which over F_p reads the
    # compiled resultants of the first cubic with the second and the fourth
    # first, agrees with the gcd chain of are_coprime_raw
    field = INVARIANT_FIELDS.get(name, QQ)
    common = data.draw(st.sampled_from([[1], [1, 0], [0, 1], None]))
    common = bf(field, common) if common else bf(field, [1, _draw_scalar(data, field)])
    lists = [dense(common * _draw_form(data, field, 3 - common.degree)) for _ in range(2)]
    for _ in range(2):
        kind = data.draw(st.sampled_from(["zero", "form", "common"]))
        lists.append(dense(bf(field, [0] * 4) if kind == "zero" else _draw_form(data, field, 3)
                           if kind == "form" else common * _draw_form(data, field, 3 - common.degree)))
    assert milne._coprime(field, lists) == binforms.are_coprime_raw(field, 3, lists)


def _cone_by_forms(a, line):
    """The cone as the sum of six scalar multiples of the adjugate quadrics,
    by `linalg.sum_entries`, and its matrix by
    `SymMatrix.from_quadratic_form`: the reference for the dot products of
    `enveloping_cone`."""
    adj, u = a.adjugate_quadrics().at, line.u
    form = linalg.sum_entries([adj(i, j) * (u[i] * u[j] * (-4 if i == j else -8))
                               for i in range(3) for j in range(i, 3)])
    return form, SymMatrix.from_quadratic_form(form)


@pytest.mark.parametrize("name", sorted(CASES_F3_F9))
@PROPERTY
@given(data=st.data())
def test_enveloping_cone_matches_the_scaled_adjugate_quadrics(name, data):
    # random webs and lines over Q, F_101, F_3, F_9, F_11(sqrt 2) and
    # Q(sqrt 5); a cone that is refused has rank <= 2 or a line in the base
    # locus, or the web has no adjugation map
    make, raw = CASES_F3_F9[name]
    field = make()
    a = Symmetrization(field, SymMatrix(3, {
        (i, j): HomogPoly.linear(field, X4, [_scalar(data, field, raw) for _ in range(4)])
        for i in range(3) for j in range(i, 3)}))
    p0, p1 = ([_scalar(data, field, raw) for _ in range(3)] for _ in range(2))
    assume(any(linalg.cross(p0, p1)))
    line = Line2(field, p0, p1)
    form, mat = _cone_by_forms(a, line)
    try:
        cone = enveloping_cone(a, line)
    except (MilneError, SymmetroidError) as e:
        assert mat.rank() <= 2 or "base locus" in str(e) or "vanishes identically" in str(e)
        return
    assert cone.matrix.quadratic_form(field, X4) == form
    assert cone.matrix == mat and cone.rank == mat.rank()
    assert all(c.field == field for c in cone.matrix.upper.values())


@pytest.mark.parametrize("name,p", [("t1", 11), ("biell", 13), ("t3", 17)]
                         + [(name, 0) for name in sorted(FIXTURES)])
def test_enveloping_cone_is_the_discriminant_of_the_line_pencil(name, p):
    # the cone, read off the adjugate of the symmetrization, against the form
    # b^2 - 4ac built from the linear forms whose vectors a, b, c are the
    # coefficients of the Gauss quadrics restricted to the line: every line
    # of P^2 over F_p, and over Q (p = 0) the lines (1, a, b) with
    # |a|, |b| <= 3
    F = Field.prime(p) if p else QQ
    a = FIXTURES[name].symmetrization(F)
    duals = _dual_lines(p) if p else [(1, u, v) for u in range(-3, 4) for v in range(-3, 4)]
    cones = 0
    for dual in duals:
        line = Line2.from_dual(F, dual)
        try:
            cone = enveloping_cone(a, line)
        except MilneError:
            continue
        cones += 1
        rest = [g.restrict_to_line(line.p0, line.p1) for g in a.gauss_quadrics()]
        af, bf, cf = (HomogPoly.linear(F, X4, [r.terms.get(e, F.zero()) for r in rest])
                      for e in ((2, 0), (1, 1), (0, 2)))
        form = bf * bf - af * cf * 4
        assert cone.matrix.quadratic_form(F, X4) == form
        assert cone.matrix == SymMatrix.from_quadratic_form(form)
        assert cone.rank == 3
    assert cones > len(duals) // 2


RANK_CASES = dict(CASES_F3_F9, F5=(lambda: Field.prime(5), st.integers(0, 4)),
                  F7=(lambda: Field.prime(7), st.integers(0, 6)))


def _symmetric_of_rank(data, field, raw):
    """A symmetric 4x4 matrix as rows of field elements: the zero matrix, a
    diagonal one, a sum of weighted rank-one terms w v v^T with v drawn
    freely, or P^T D P with P invertible and D diagonal with r nonzero
    entries, which has rank r exactly, for r drawn in 0..4."""
    kind = data.draw(st.sampled_from(["zero", "diagonal", "terms", "congruent"]))
    zero = field.zero()
    m = [[zero] * 4 for _ in range(4)]
    if kind == "diagonal":
        for i in range(4):
            m[i][i] = _scalar(data, field, raw)
    elif kind == "terms":
        for _ in range(data.draw(st.integers(1, 4))):
            w, v = _scalar(data, field, raw), [_scalar(data, field, raw) for _ in range(4)]
            m = [[m[i][j] + w * v[i] * v[j] for j in range(4)] for i in range(4)]
    elif kind == "congruent":
        r = data.draw(st.integers(0, 4))
        rows = [[_scalar(data, field, raw) for _ in range(4)] for _ in range(4)]
        assume(linalg.rank(rows) == 4)
        for k in range(r):
            w = _scalar(data, field, raw)
            assume(w)
            m = [[m[i][j] + w * rows[k][i] * rows[k][j] for j in range(4)] for i in range(4)]
        assert linalg.rank(m) == r
    return m


@pytest.mark.parametrize("name", sorted(RANK_CASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_cone_rank_reads_the_universal_minors(name, data):
    # the five universal forms are the determinant and the principal 3x3
    # minors of the specialized matrix, and the rank they decide is that of
    # linalg.rank, a rank below 3 read as 2
    make, raw = RANK_CASES[name]
    field = make()
    m = _symmetric_of_rank(data, field, raw)
    vals = [m[i][j].val for i, j in QUADRIC_EXPONENTS]
    principal = [[r[:i] + r[i + 1:] for k, r in enumerate(m) if k != i] for i in range(4)]
    want = [linalg.det(m)] + [linalg.det(rows) for rows in principal]
    assert [field.element(want_k).val for want_k in want] == milne._rank_minors(field)(vals)
    assert milne._cone_rank(field, vals) == max(linalg.rank(m), 2)


@pytest.mark.parametrize("name", sorted(RANK_CASES))
def test_cone_rank_on_every_rank(name):
    # sum_{k < r} +-v_k v_k^T with v_0..v_3 = e0 + e1, e1 + e2, e2 + e3, e3
    # has rank r; diag(0, 1, 1, 1) and its permutations have one nonzero
    # principal 3x3 minor each, so every minor is read
    field = RANK_CASES[name][0]()
    vs = [[int(i in (k, k + 1)) for i in range(4)] for k in range(4)]
    for r in range(5):
        m = [[field.element(sum((-1) ** k * vs[k][i] * vs[k][j] for k in range(r)))
              for j in range(4)] for i in range(4)]
        vals = [m[i][j].val for i, j in QUADRIC_EXPONENTS]
        assert linalg.rank(m) == r
        assert milne._cone_rank(field, vals) == max(r, 2)
    for gap in range(4):
        vals = [field.element(int(i == j != gap)).val for i, j in QUADRIC_EXPONENTS]
        assert milne._cone_rank(field, vals) == 3


def _cone_by_rref(a, line):
    """The enveloping cone by the dot products of `enveloping_cone` on
    coordinates coerced per line, its entries wrapped before the rank and
    the rank by row reduction (`SymMatrix.rank`): the reference for the
    universal minors of `milne._cone_rank`."""
    field, adj, table = a.field, a.adjugate_quadrics(), a.adjugate_table()
    mul = field._mul
    u = [field.element(c).val for c in line.u]
    diagonal, off = field._from_int(-4), field._from_int(-8)
    weights = [mul(mul(u[i], u[j]), diagonal if i == j else off) for i, j in adj.upper]
    half = field._inv(field._from_int(2))
    upper = {}
    for (k, l), row in table.items():
        c = field._dot_raw(row, weights)
        upper[(k, l)] = FieldElement(field, c if k == l else mul(c, half))
    mat = SymMatrix(4, upper)
    rank = mat.rank()
    if rank <= 2:
        raise MilneError("line maps two-to-one onto a line of the dual space")
    if milne._in_base_locus(field, milne._restricted(a, line)):
        raise MilneError("line lies in the base locus of the cubic map")
    if rank == 4:
        raise milne.InternalError("enveloping cone of a plane conic has full rank; internal error")
    return milne.EnvelopingCone(mat, rank)


def _bitangents_by_elements(quartic, field, budget):
    """The bitangent walk on field elements: `projective_points`, which
    charges the budget as it starts, the element `linalg.line_basis` of
    each line, and a `BitangentLine` of its elements: the reference for the
    raw walk of `enumerate_bitangents`."""
    from prymcubic import oracle
    on_line = oracle.line_restrictions([quartic])
    squarefree = (oracle.binary_invariants(field)[0] if quartic.degree == 4
                  else lambda rest: False)
    out = []
    for dual_el in projective_points(field, 2, budget):
        p0, p1 = linalg.line_basis(dual_el, field)
        rest, = on_line([c.val for c in p0], [c.val for c in p1])
        if not any(rest):
            raise oracle.OracleError("quartic vanishes on a whole line; not reduced")
        if not squarefree(rest) and binforms.has_even_divisor_raw(field, quartic.degree, rest):
            out.append(oracle.BitangentLine(dual_el, tuple(p0), tuple(p1)))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (MilneError, milne.InternalError, ValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("name", ["t1", "t2", "t3", "seed", "even"])
def test_line_walk_matches_the_element_references(name):
    # on every line at p = 5, 7, 11, 13: the same points as the kernel
    # basis and the same dual coordinates as their cross product, the same
    # cone matrix, rank or error text as the row-reduced reference, and the
    # same bitangents, with the same points, as the element walk, wherever
    # forward_general gives a quartic
    seen = Counter()
    for p in (5, 7, 11, 13):
        F = Field.prime(p)
        a, q = FIXTURES[name].symmetrization(F), FIXTURES[name].quadric(F)
        for dual in projective_points_raw(F, 2):
            line = Line2.from_dual(F, dual)
            points = _line_basis_by_kernel(dual, F)
            assert [list(line.p0), list(line.p1)] == list(points)
            assert line.u == linalg.cross(*points)
            got, want = _outcome(enveloping_cone, a, line), _outcome(_cone_by_rref, a, line)
            if isinstance(want, tuple):
                assert got == want, dual
                seen[want[1]] += 1
            else:
                assert (got.matrix, got.rank) == (want.matrix, want.rank), dual
                seen[want.rank] += 1
        fwd = _outcome(forward_general, a, q)
        if isinstance(fwd, tuple):
            continue
        got = enumerate_bitangents(fwd.quartic, F)
        want = _bitangents_by_elements(fwd.quartic, F, 10 ** 7)
        assert [(b.dual, b.p0, b.p1) for b in got] == [(b.dual, b.p0, b.p1) for b in want]
        assert all(isinstance(c, type(F.one())) and c.field is F
                   for b in got for pt in (b.dual, b.p0, b.p1) for c in pt)
        seen["bitangents"] += len(got)
    # the even pair's quadric has rank 3, so forward_general gives no quartic
    assert seen[3] > 0 and (seen["bitangents"] > 0) == (name != "even")


def test_bitangent_walk_charges_its_budget_before_it_compiles(monkeypatch):
    # the walk charges p^2 to the budget before it compiles the quartic's
    # line restrictions: a budget of p^2 - 1 raises with no compile, and
    # p^2 + p, one short of the p^2 + p + 1 lines, runs, since the budget
    # counts q^dim as every point enumeration does
    from prymcubic import oracle
    compiles = []

    def counted(forms):
        compiles.append(forms)
        return line_restrictions(forms)

    line_restrictions = oracle.line_restrictions
    monkeypatch.setattr(oracle, "line_restrictions", counted)
    F = Field.prime(11)
    quartic = forward_general(FIXTURES["t1"].symmetrization(F), FIXTURES["t1"].quadric(F)).quartic
    with pytest.raises(oracle.BudgetExceeded):
        enumerate_bitangents(quartic, F, budget=11 ** 2 - 1)
    assert compiles == []
    assert enumerate_bitangents(quartic, F, budget=11 ** 2 + 11)
    assert len(compiles) == 1


@pytest.mark.parametrize("name", sorted(CASES_F3_F9))
def test_enveloping_cone_reduces_no_rows_on_any_field(name, monkeypatch):
    # every field reads the rank from the five universal minors: neither
    # SymMatrix.rank nor the raw elimination behind rref and rank runs
    field = CASES_F3_F9[name][0]()
    a = fix_a(field)
    a.adjugate_table()

    def refused(*args):
        raise AssertionError("a row reduction in the cone")

    monkeypatch.setattr(SymMatrix, "rank", refused)
    monkeypatch.setattr(linalg, "_eliminate", refused)
    ranks = Counter()
    for dual in [(1, 2, 3), (0, 1, 2), (1, 0, 0), (1, 1, 1), (2, 1, 0)]:
        try:
            ranks[enveloping_cone(a, Line2.from_dual(field, dual)).rank] += 1
        except MilneError as e:
            ranks[str(e)] += 1
    assert ranks[3] > 0


def test_a_line_over_another_field_is_read_in_the_web_field():
    # the walk reads the raw values of a line's coordinates: a line over the
    # base field of the web's field is lifted, and a line over a field that
    # does not coerce into the web's field is refused
    for base, make in ((F11, lambda: F11.quadratic_extension(2)),
                       (QQ, lambda: QQ.quadratic_extension(5))):
        field = make()
        a = FIXTURES["t1"].symmetrization(field)
        for dual in [(1, 2, 3), (0, 1, 5), (1, 0, 4), (2, 7, 1)]:
            here, there = Line2.from_dual(field, dual), Line2.from_dual(base, dual)
            assert line_is_generic(a, there) == line_is_generic(a, here)
            got, want = _outcome(enveloping_cone, a, there), _outcome(enveloping_cone, a, here)
            assert got == want if isinstance(want, tuple) else got.matrix == want.matrix
            assert twisted_cubic(a, there).components == twisted_cubic(a, here).components
    a = FIXTURES["t1"].symmetrization(Field.prime(13))
    for line in (Line2.from_dual(QQ, (1, 2, 3)), Line2.from_dual(F11, (1, 2, 3))):
        for check in (line_is_generic, enveloping_cone):
            with pytest.raises(FieldError):
                check(a, line)
