"""Dev-only search for smooth fixtures: for each symmetroid shape, find an
integer quadric making C = Q /\\ Gamma smooth over F_11/13/17/19 with split
rulings, then validate the trace identity end to end at p=11 and p=13.

Run from the repo root:  python3 tools/find_fixtures.py
"""

import sys
import time

sys.path.insert(0, "src")

from prymcubic.fields import Field, QQ
from prymcubic.poly import HomogPoly, SymMatrix
from prymcubic.symmetroid import X4, Z3, Symmetrization, SymmetroidType, hankel_symmetroid
from prymcubic.prym import forward_general, forward_even, pencil_conics, reverse_construct, roundtrip_change_matches
from prymcubic.oracle import (smoothness_certificate, count_curve, count_double_cover,
                              count_hyperelliptic_octic, OracleError)

PRIMES = [11, 13, 17, 19]


def qmat(field, terms):
    return SymMatrix.from_quadratic_form(HomogPoly(field, X4, 2, terms))


def curve_smooth_everywhere(a_rows_builder, q_terms, expected_type):
    ok_all = True
    for p in PRIMES:
        F = Field.prime(p)
        a = a_rows_builder(F)
        if a.classify() != expected_type:
            return False, "type drift at %d: %s" % (p, a.classify())
        q = qmat(F, q_terms)
        if q.rank() == 4:
            det_q = q.det()
            if F.sqrt(det_q) is None:
                return False, "nonsplit at %d" % p
        gamma = a.determinant_cubic()
        qf = q.quadratic_form(F, X4)
        cert = smoothness_certificate([qf, gamma], F)
        if not cert.passed:
            return False, "singular at %d: %r" % (p, cert.witness)
    return True, "ok"


def trace_identity(a_builder, q_terms, p, even=False):
    F = Field.prime(p)
    a = a_builder(F)
    q = qmat(F, q_terms)
    gamma = a.determinant_cubic()
    qf = q.quadratic_form(F, X4)
    nc = count_curve([qf, gamma], F, 4, "C").count
    m12, m13, m23, cert = a.double_cover_minors()
    assert cert
    ncover = count_double_cover([qf, gamma], [m12, m13, m23], F).count
    if even:
        model = forward_even(a, q)
        assert model.branch_reduced, "branch not reduced"
        nx = count_hyperelliptic_octic(model.octic, F).count
    else:
        fwd = forward_general(a, q)
        certx = smoothness_certificate([fwd.quartic], F)
        if not certx.passed:
            return None, "X singular at %d: %r" % (p, certx.witness)
        nx = count_curve([fwd.quartic], F, 3, "X").count
    lhs = ncover
    rhs = nc + nx - (p + 1)
    return lhs == rhs, "N_cover=%d N_C=%d N_X=%d rhs=%d" % (ncover, nc, nx, rhs)


HANKELS = {
    "T1": ([-1, 0, 0, 0], SymmetroidType.T1),        # t^4 - 1
    "T1b": ([2, -1, -2, 0], SymmetroidType.T1),      # t^4 - 2t^2 - t + 2 ?
    "T2": ([1, -2, 2, -2], SymmetroidType.T2),       # (t-1)^2 (t^2+1)
    "T3": ([2, -7, 9, -5], SymmetroidType.T3),       # (t-1)^3 (t-2)
}

TWO_TERM_QS = []
for m in (2, 3, 5, 6, 7, 10, -2, -3, -5, 4, 9, -1, -4):
    TWO_TERM_QS.append(("x0x1-%d*x2x3" % m, {(1, 1, 0, 0): 1, (0, 0, 1, 1): -m}))
for m in (2, 3, 5, 7):
    TWO_TERM_QS.append(("x0x2-%d*x1x3" % m, {(1, 0, 1, 0): 1, (0, 1, 0, 1): -m}))
    TWO_TERM_QS.append(("x0x3-%d*x1x2" % m, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -m}))


def hankel_builder(coeffs):
    def build(field):
        return hankel_symmetroid(field, coeffs)
    return build


def search_irreducible():
    for name, (coeffs, tag) in HANKELS.items():
        if name == "T1b":
            continue
        builder = hankel_builder(coeffs)
        found = []
        for qname, qterms in TWO_TERM_QS:
            ok, msg = curve_smooth_everywhere(builder, qterms, tag)
            if not ok:
                continue
            t11 = trace_identity(builder, qterms, 11)
            t13 = trace_identity(builder, qterms, 13)
            print("  candidate %s + %s : trace11=%s trace13=%s" % (name, qname, t11, t13))
            if t11[0] and t13[0]:
                found.append((qname, qterms))
                break
        print("%s -> %s" % (name, found))


E0, E1, E2, E3, Z = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]


def biell_builder(field):
    rows = [[E0, E2, Z], [E2, E1, E2], [Z, E2, [1, 1, 0, 0]]]
    return Symmetrization.from_entry_rows(field, rows)


DIAG_QS = []
for (a, b, c, d) in [(1, -1, 1, -4), (1, -1, 4, -1), (1, -4, 1, -1), (1, -1, 1, -1),
                     (1, -1, 9, -1), (1, -9, 1, -1), (1, -1, 1, -9), (1, -1, 1, -16),
                     (1, -1, 2, -2), (2, -2, 1, -1), (1, -1, 3, -3), (1, -2, 2, -1)]:
    DIAG_QS.append(("diag(%d,%d,%d,%d)" % (a, b, c, d),
                    {(2, 0, 0, 0): a, (0, 2, 0, 0): b, (0, 0, 2, 0): c, (0, 0, 0, 2): d}))


def search_biell():
    for qname, qterms in DIAG_QS:
        ok, msg = curve_smooth_everywhere(biell_builder, qterms, SymmetroidType.DEGENERATE_CONE)
        if not ok:
            continue
        t11 = trace_identity(biell_builder, qterms, 11)
        t13 = trace_identity(biell_builder, qterms, 13)
        print("  biell candidate %s : trace11=%s trace13=%s" % (qname, t11, t13))
        if t11[0] and t13[0]:
            print("BIELL ->", qname)
            return


RANK3_QS = []
for (a, b, c) in [(1, 1, 1), (1, 1, -1), (1, 2, 1), (1, -2, 3), (1, 1, 2), (2, 1, 1),
                  (1, 3, 1), (1, 1, 3), (3, 1, 1), (1, -1, 2)]:
    RANK3_QS.append(("cone(%d,%d,%d)" % (a, b, c),
                     {(2, 0, 0, 0): a, (0, 2, 0, 0): b, (0, 0, 2, 0): c}))


def fix_a_builder(field):
    return Symmetrization.from_entry_rows(field, [[E0, E3, E3], [E3, E1, E3], [E3, E3, E2]])


def search_even():
    for builder, tag, label in [(fix_a_builder, SymmetroidType.T1, "fixA"),
                                (hankel_builder([1, -2, 2, -2]), SymmetroidType.T2, "hankelT2")]:
        for qname, qterms in RANK3_QS:
            ok, msg = curve_smooth_everywhere(builder, qterms, tag)
            if not ok:
                continue
            try:
                t11 = trace_identity(builder, qterms, 11, even=True)
                t13 = trace_identity(builder, qterms, 13, even=True)
            except (OracleError, AssertionError) as e:
                print("  even %s + %s failed: %s" % (label, qname, e))
                continue
            print("  even candidate %s + %s : trace11=%s trace13=%s" % (label, qname, t11, t13))
            if t11[0] and t13[0]:
                print("EVEN ->", label, qname)
                break


def search_even_biell():
    for qname, qterms in RANK3_QS:
        ok, msg = curve_smooth_everywhere(biell_builder, qterms, SymmetroidType.DEGENERATE_CONE)
        if not ok:
            continue
        try:
            t11 = trace_identity(biell_builder, qterms, 11, even=True)
            t13 = trace_identity(biell_builder, qterms, 13, even=True)
        except (OracleError, AssertionError) as e:
            print("  even-biell %s failed: %s" % (qname, e))
            continue
        print("  even-biell candidate %s : trace11=%s trace13=%s" % (qname, t11, t13))
        if t11[0] and t13[0]:
            print("EVEN-BIELL ->", qname)
            return


if __name__ == "__main__":
    t0 = time.time()
    print("== irreducible types ==")
    search_irreducible()
    print("== bielliptic cone ==")
    search_biell()
    print("== even (rank-3 quadric) ==")
    search_even()
    print("== even + bielliptic ==")
    search_even_biell()
    print("total %.1fs" % (time.time() - t0))
