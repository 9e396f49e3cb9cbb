"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime.  Run with `pytest tests/test_acceptance.py -s` to see every
line; all tolerances are exact (identities over exact fields), only wall
clock budgets are soft physical limits.
"""

import random
import time

import pytest

from prymcubic.fields import Field, QQ
from prymcubic.fixtures import (FIXTURES, ROUNDTRIP_FIXTURES, SMOOTH_FIXTURES,
                                TEST_PRIMES, fix_a, fix_h, fix_q, fix_x)
from prymcubic.milne import (Line2, MilneError, contact_points_match,
                             cubic_through_curve_and_twisted, enveloping_cone,
                             line_is_generic, reducible_member, tritangent_verify,
                             twisted_cubic)
from prymcubic.oracle import (count_curve, count_double_cover,
                              count_hyperelliptic_octic, enumerate_bitangents,
                              projective_points_raw, smoothness_certificate)
from prymcubic.poly import HomogPoly, SymMatrix, proportional
from prymcubic.prym import (forward_even, forward_general, pencil_conics,
                            reverse_construct, roundtrip_change_matches)
from prymcubic.symmetroid import Symmetrization, SymmetroidError, hankel_symmetroid

F11 = Field.prime(11)
F13 = Field.prime(13)
X4 = ("x0", "x1", "x2", "x3")

E0, E1, E2, E3, Z = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]

NORMAL_FORMS = {
    "T1": [[E0, E3, E3], [E3, E1, E3], [E3, E3, E2]],
    "T2": [[E0, E3, [0, 0, 0, -1]], [E3, E1, Z], [[0, 0, 0, -1], Z, E2]],
    "T3": [[E0, E2, Z], [E2, E1, E3], [Z, E3, [0, 0, -1, 0]]],
    "T4": [[E0, [0, 0, 0, -1], E2], [[0, 0, 0, -1], E1, E3], [E2, E3, Z]],
    "T5": [[Z, E2, E0], [E2, [-1, 0, 0, 0], E3], [E0, E3, E1]],
    "T6": [[Z, E1, E3], [E1, Z, E2], [E3, E2, E0]],
    "T7": [[E0, Z, Z], [Z, E1, E3], [Z, E3, E2]],
    "T8": [[Z, Z, E2], [Z, E0, E3], [E2, E3, E1]],
}


def report(num, ok, elapsed, detail):
    line = "ACCEPTANCE %2d: %s (%.2fs) %s" % (num, "PASS" if ok else "FAIL", elapsed, detail)
    print(line)
    assert ok, line


def test_criterion_01_classification_table():
    t0 = time.time()
    ok = True
    for field in (F11, F13):
        for tag, rows in NORMAL_FORMS.items():
            got = Symmetrization.from_entry_rows(field, rows).classify()
            ok = ok and (got == tag)
    for tag in ("T1", "T2", "T3", "T4", "T5"):
        got = Symmetrization.from_entry_rows(QQ, NORMAL_FORMS[tag]).classify()
        ok = ok and (got == tag)
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, elapsed,
           "eight normal forms over F_11/F_13, types 1-5 over Q")


def test_criterion_02_gauss_identity():
    t0 = time.time()
    ok = True
    cases = [Symmetrization.from_entry_rows(F11, NORMAL_FORMS[t])
             for t in ("T1", "T2", "T3", "T4", "T5", "T6")]
    cases.append(fix_h(QQ))
    for a in cases:
        det = a.determinant_cubic()
        cub = a.adjugate_cubics()
        composed = [g.substitute(cub) for g in det.gradient()]
        qs = a.gauss_quadrics()
        for i in range(4):
            for j in range(i + 1, 4):
                ok = ok and (composed[i] * qs[j] == composed[j] * qs[i])
    elapsed = time.time() - t0
    report(2, ok and elapsed < 5.0, elapsed,
           "gradient-through-adjugate matches the quadric vector, types 1-6 and the catalecticant seed")


def _random_symmetrization(field, rng):
    rows = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            f = HomogPoly.linear(field, X4, [field.random(rng) for _ in range(4)])
            rows[i][j] = rows[j][i] = f
    return Symmetrization(field, SymMatrix.from_rows(rows))


def test_criterion_03_annihilation():
    t0 = time.time()
    rng = random.Random(1105)
    ok = True
    for field, trials in ((F11, 200), (QQ, 20)):
        for _ in range(trials):
            a = _random_symmetrization(field, rng)
            try:
                ok = ok and a.annihilation_holds()
            except SymmetroidError:
                pass  # identically-zero adjugate: the identity is vacuous
    elapsed = time.time() - t0
    report(3, ok and elapsed < 10.0, elapsed,
           "line contraction annihilates its adjugate on 200 F_11 + 20 Q samples")


def test_criterion_04_hankel_table():
    t0 = time.time()
    ok = True
    shapes = {
        "T1": [2, 1, 0, 1],
        "T2": [1, -2, 2, -2],
        "T3": [2, -7, 9, -5],
        "T4": [1, 0, 2, 0],
        "T5": [0, 0, 0, 0],
    }
    for field in (F11, F13):
        for tag, coeffs in shapes.items():
            ok = ok and hankel_symmetroid(field, coeffs).classify() == tag
    # separable cases: gradient vanishes exactly at (1 : t : t^2 : t^3)
    for field, roots in ((QQ, (1, -1)), (F13, (1, 12, 5, 8))):
        h = hankel_symmetroid(field, [-1, 0, 0, 0])
        ok = ok and h.classify() == "T1"
        grad = h.determinant_cubic().gradient()
        for traw in roots:
            t = field.element(traw)
            pt = [field.one(), t, t * t, t * t * t]
            ok = ok and all(not g.evaluate(pt) for g in grad)
    elapsed = time.time() - t0
    report(4, ok, elapsed,
           "factorization shapes hit their symmetroid types; nodes on the rational normal curve")


def test_criterion_05_forward_pullback_seed():
    t0 = time.time()
    fwd = forward_general(fix_a(QQ), fix_q(QQ))
    ok = fwd.quartic == fix_x(QQ)
    ok = ok and fwd.reduced
    # the seed quartic is singular at (1:0:0) and (0:1:0); the certificates
    # over two primes must detect exactly that
    for p in (11, 13):
        F = Field.prime(p)
        cert = smoothness_certificate([fix_x(F)], F)
        ok = ok and not cert.passed
        wit = tuple(c.val for c in cert.witness)
        ok = ok and wit in ((1, 0, 0), (0, 1, 0))
        grad = [g.evaluate(list(cert.witness)) for g in fix_x(F).gradient()]
        ok = ok and not any(grad)
    elapsed = time.time() - t0
    report(5, ok, elapsed,
           "seed pullback reproduced exactly; reduced; certificates report the two singular points")


def test_criterion_06_roundtrip():
    t0 = time.time()
    ok = True
    for fx in ROUNDTRIP_FIXTURES:
        for field in (QQ, F13):
            a = fx.symmetrization(field)
            q = fx.quadric(field)
            fwd = forward_general(a, q)
            pen = pencil_conics(a, q)
            ok = ok and not pen.extended
            rev = reverse_construct(fwd.quartic, pen.conics(), pen.field)
            ok = ok and roundtrip_change_matches(a, q, pen, rev)
            if fx.name == "biell":
                ok = ok and rev.symmetrization.classify() == "DegenerateCone"
                ok = ok and SymMatrix.from_quadratic_form(rev.quadric_form).rank() == 4
    elapsed = time.time() - t0
    report(6, ok and elapsed < 10.0, elapsed,
           "reverse of (forward, pencil) reproduces the pair for types 1, 2, 3 and the cone fixture")


def test_criterion_07_trace_identity():
    t0 = time.time()
    ok = True
    details = []
    for fx in SMOOTH_FIXTURES:
        fx_start = time.time()
        for p in TEST_PRIMES:
            F = Field.prime(p)
            a = fx.symmetrization(F)
            q = fx.quadric(F)
            gamma = a.determinant_cubic()
            qf = fx.quadric_form(F)
            cert = smoothness_certificate([qf, gamma], F)
            ok = ok and cert.passed
            # split rulings: rank-4 duals must have square discriminant
            if q.rank() == 4:
                ok = ok and F.sqrt(q.det()) is not None
            nc = count_curve([qf, gamma], F, 4).count
            minors = a.double_cover_minors()
            ok = ok and minors[3]
            ncover = count_double_cover([qf, gamma], list(minors[:3]), F).count
            if fx.even:
                model = forward_even(a, q)
                ok = ok and model.branch_reduced
                nx = count_hyperelliptic_octic(model.octic, F).count
            else:
                fwd = forward_general(a, q)
                ok = ok and smoothness_certificate([fwd.quartic], F).passed
                nx = count_curve([fwd.quartic], F, 3).count
            ok = ok and (ncover == nc + nx - (p + 1))
        per_fixture = time.time() - fx_start
        details.append("%s:%.1fs" % (fx.name, per_fixture))
        ok = ok and per_fixture < 120.0
    elapsed = time.time() - t0
    report(7, ok, elapsed,
           "cover trace = curve trace + quartic trace at p in {11,13,17,19} [%s]" % ", ".join(details))


def _milne_scan(fx, p):
    F = Field.prime(p)
    a = fx.symmetrization(F)
    q = fx.quadric(F)
    fwd = forward_general(a, q)
    gamma = a.determinant_cubic()
    oracle = set()
    for bl in enumerate_bitangents(fwd.quartic, F):
        line = Line2(F, bl.p0, bl.p1)
        if line_is_generic(a, line):
            oracle.add(tuple(c.val for c in bl.dual))
    detected = {}
    for dual in projective_points_raw(F, 2):
        line = Line2.from_dual(F, dual)
        if not line_is_generic(a, line):
            continue
        try:
            cone = enveloping_cone(a, line)
        except MilneError:
            continue
        mem = reducible_member(cone.matrix, q, F)
        if mem is not None and mem.kind == "pair":
            detected[dual] = (line, mem)
    return F, a, q, gamma, oracle, detected


def test_criterion_08_milne_bijection():
    t0 = time.time()
    F, a, q, gamma, oracle, detected = _milne_scan(FIXTURES["t1"], 11)
    keyed = {tuple(F.element(c).val for c in d) for d in detected}
    ok = keyed == oracle and len(oracle) >= 1
    for dual, (line, mem) in sorted(detected.items()):
        ok = ok and not mem.planes_unrepresentable
        tw = twisted_cubic(a, line)
        for h in (mem.h1, mem.h2):
            cert = tritangent_verify(q, gamma, h)
            ok = ok and cert.passed
            if cert.contact is not None:
                ok = ok and contact_points_match(h, tw, cert.contact,
                                                 cert.conic_param, cert.plane_basis)
    elapsed = time.time() - t0
    report(8, ok and elapsed < 300.0, elapsed,
           "pencil-detected lines == oracle bitangents over F_11 (%d lines); "
           "tritangency and contact points verified" % len(oracle))


def test_criterion_09_unique_cubic():
    t0 = time.time()
    verified = 0
    ok = True
    for name in ("t1", "t2", "t3"):
        for p in TEST_PRIMES:
            if verified >= 5:
                break
            F, a, q, gamma, oracle, detected = _milne_scan(FIXTURES[name], p)
            for dual, (line, mem) in sorted(detected.items()):
                if verified >= 5:
                    break
                tw = twisted_cubic(a, line)
                if not tw.honest:
                    continue
                out, sol = cubic_through_curve_and_twisted(q, gamma, tw, F)
                ok = ok and bool(sol[0]) and proportional(out, gamma)
                verified += 1
        if verified >= 5:
            break
    elapsed = time.time() - t0
    report(9, ok and verified >= 5, elapsed,
           "one-dimensional solution proportional to the cubic for %d verified bitangents" % verified)


def test_criterion_10_double_cover_consistency():
    t0 = time.time()
    ok = True
    rng = random.Random(77)
    for fx in FIXTURES.values():
        for field in (QQ, F11):
            ok = ok and fx.symmetrization(field).double_cover_minors()[3]
    for _ in range(50):
        ok = ok and _random_symmetrization(F13, rng).double_cover_minors()[3]
    # pointwise class agreement is a hard error inside the counters; run them
    for fx in SMOOTH_FIXTURES:
        F = F11
        a = fx.symmetrization(F)
        gamma = a.determinant_cubic()
        qf = fx.quadric_form(F)
        minors = a.double_cover_minors()
        count_double_cover([qf, gamma], list(minors[:3]), F)
    elapsed = time.time() - t0
    report(10, ok, elapsed,
           "minor syzygy exact for every constructed web; square classes agree at every counted point")
