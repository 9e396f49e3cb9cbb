import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from prymcubic import linalg
from prymcubic.binforms import (ST, _deg, _derivative, _divmod_poly, _gcd_poly,
                                _is_zero_poly, _monic, _pth_root_poly, _trim, are_coprime_raw,
                                binary_gcd, has_even_divisor_raw, invariant_forms, is_squarefree,
                                is_squarefree_raw, perfect_square_root, rational_roots,
                                resultant, squarefree_decomposition, squarefree_factors,
                                squarefree_factors_raw)
from prymcubic.fields import Field, QQ, QuadExtField, RationalField
from prymcubic.oracle import binary_invariants
from prymcubic.poly import HomogPoly, PolyError, proportional
from test_field_properties import CASES

F3 = Field.prime(3)
F5 = Field.prime(5)
F7 = Field.prime(7)
F9 = F3.quadratic_extension(2)
F11 = Field.prime(11)


def bf(field, coeffs):
    """The form in (s, t) whose i-th coefficient is that of s^(d-i) t^i."""
    d = len(coeffs) - 1
    return HomogPoly(field, ST, d, {(d - i, i): c for i, c in enumerate(coeffs)})


def lin_product(field, roots, extra_s=0, extra_t=0):
    """prod (t_i s - s_i t) over given projective roots (s_i : t_i)."""
    f = bf(field, [1])
    for (si, ti) in roots:
        f = f * bf(field, [field.element(ti), -field.element(si)])
    for _ in range(extra_s):
        f = f * bf(field, [1, 0])
    for _ in range(extra_t):
        f = f * bf(field, [0, 1])
    return f


def dense(form):
    """The dense raw list of a binary form, entry i at s^(d-i) t^i."""
    return [form.terms.get((form.degree - i, i), form.field.zero()).val
            for i in range(form.degree + 1)]


def squarefree_signature(form):
    """Reference: multiset of (multiplicity, degree) of the roots over the
    closure, read off `squarefree_factors`."""
    if not form:
        raise PolyError("signature of the zero form")
    sig = {}
    for m, g in squarefree_factors(form):
        sig[m] = sig.get(m, 0) + g.degree
    return sorted(sig.items())


def multiplicity_partition(form):
    """Reference: root multiplicities, one entry per closure point,
    descending."""
    parts = []
    for m, count in squarefree_signature(form):
        parts.extend([m] * count)
    return sorted(parts, reverse=True)


def test_signature_examples():
    # (s - t)^2 s t
    f = lin_product(QQ, [(1, 1), (1, 1)], extra_s=1, extra_t=1)
    assert squarefree_signature(f) == [(1, 2), (2, 1)]
    # s^4
    assert squarefree_signature(bf(QQ, [1, 0, 0, 0, 0])) == [(4, 1)]
    # s^4 - t^4 over Q: squarefree of degree 4
    assert squarefree_signature(bf(QQ, [1, 0, 0, 0, -1])) == [(1, 4)]


def test_signature_random_products():
    rng = random.Random(4)
    for field in (QQ, F11):
        for _ in range(25):
            roots = []
            used = set()
            for _ in range(rng.randint(1, 3)):
                while True:
                    r = (rng.randint(-3, 3), rng.randint(1, 3))
                    key = None
                    fr = field.element(r[0]) / field.element(r[1])
                    key = repr(fr.val)
                    if key not in used:
                        used.add(key)
                        roots.append((r, rng.randint(1, 3)))
                        break
            f = bf(field, [1])
            expected = {}
            for (r, m) in roots:
                for _ in range(m):
                    f = f * bf(field, [field.element(r[1]), -field.element(r[0])])
                expected[m] = expected.get(m, 0) + 1
            assert squarefree_signature(f) == sorted(expected.items())


def test_partition():
    f = lin_product(F11, [(1, 1), (1, 1), (2, 1), (3, 1)])
    assert multiplicity_partition(f) == [2, 1, 1]


def test_signature_small_characteristic():
    # (s - t)^3 t over F_3: derivative of core vanishes, needs p-th power descent
    f = lin_product(F3, [(1, 1)] * 3, extra_t=1)
    assert squarefree_signature(f) == [(1, 1), (3, 1)]
    g = lin_product(F3, [(1, 1)] * 6)
    assert squarefree_signature(g) == [(6, 1)]


def test_perfect_square_examples():
    f = bf(QQ, [1, 1, 1])  # s^2 + st + t^2
    root = perfect_square_root(f * f)
    assert root is not None and root.field == QQ
    assert root * root == f * f
    assert perfect_square_root(bf(QQ, [1, 0, 0, 0, 0, 0, 1])) is None  # s^6 + t^6
    # 2 is a square mod 7 (3^2 = 2), so the nonsquare-scalar case needs 3
    assert perfect_square_root(bf(F7, [0, 0, 2, 0, 0])).field == F7
    g = bf(F7, [0, 0, 3, 0, 0])  # 3 (st)^2, 3 a nonsquare mod 7
    root = perfect_square_root(g)
    assert root is not None and isinstance(root.field, QuadExtField)
    assert root * root == g.change_field(root.field)
    # over F_49 there is no second extension: 1 + sqrt(3) has norm 1 - 3 = 5,
    # a nonsquare mod 7, so it and 3 (1 + sqrt(3)) are nonsquares of F_49
    K = root.field
    assert perfect_square_root(g.change_field(K) * K.ext_element(1, 1)) is None


def test_perfect_square_random_recovery():
    rng = random.Random(9)
    for field in (QQ, F11):
        for _ in range(20):
            h = bf(field, [field.random(rng) for _ in range(rng.randint(2, 4))])
            if not h:
                continue
            root = perfect_square_root(h * h)
            assert root is not None
            assert root.field == field or not isinstance(field, RationalField)
            assert root * root == (h * h).change_field(root.field)


def test_zero_form_rejected():
    with pytest.raises(PolyError):
        squarefree_signature(bf(QQ, [0, 0, 0]))


def test_forms_in_three_variables_rejected():
    conic = HomogPoly(QQ, ("x", "y", "z"), 2, {(2, 0, 0): 1, (0, 1, 1): 1})
    for call in (squarefree_signature, perfect_square_root, lambda f: resultant(f, f)):
        with pytest.raises(PolyError, match="not a binary form"):
            call(conic)


def test_resultant_detects_common_roots():
    f = lin_product(F11, [(2, 1), (3, 1)])
    g = lin_product(F11, [(2, 1), (5, 1)])
    h = lin_product(F11, [(4, 1), (5, 1)])
    assert not resultant(f, g)
    assert resultant(f, h)
    # common root at (1:0)
    a = bf(F11, [0, 1, 1])
    b = bf(F11, [0, 1, 3])
    assert not resultant(a, b)


def test_resultant_of_constant_forms():
    # the Sylvester matrix of a constant c and a form of degree n is c times
    # the n x n identity
    c, g = bf(F11, [3]), lin_product(F11, [(2, 1), (5, 1), (1, 0)])
    assert resultant(c, g) == F11.element(3) ** 3
    assert resultant(g, c) == F11.element(3) ** 3
    assert resultant(c, bf(F11, [7])) == F11.one()
    assert resultant(bf(F11, [0]), bf(F11, [0])) == F11.one()
    assert resultant(bf(F11, [0]), g) == F11.zero()
    assert resultant(g, bf(F11, [0])) == F11.zero()
    assert resultant(bf(QQ, [2]), lin_product(QQ, [(1, 1)], extra_t=1)) == QQ.element(4)


def _sylvester_resultant(f, g):
    """The determinant of the Sylvester matrix by `linalg.det`'s Laplace
    expansion, two constants giving 1: the reference for the Euclidean
    `resultant`."""
    field = f.field
    if f.degree == g.degree == 0:
        return field.one()
    fc, gc = ([h.terms.get((h.degree - i, i), field.zero()) for i in range(h.degree + 1)]
              for h in (f, g))
    return linalg.det(linalg.sylvester(fc, gc, field.zero()))


@pytest.mark.parametrize("name", sorted(CASES) + ["F3", "F9"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_resultant_is_the_sylvester_determinant(name, data):
    # degrees 0-6, zero forms among them; a shared factor, a shared root at
    # (1:0) (both s^deg coefficients zero) or neither
    if name in CASES:
        make, raw = CASES[name]
        field = make()
    else:
        field = {"F3": F3, "F9": F9}[name]
        raw = st.integers(0, 8).map(lambda k: field.element((k % 3, k // 3)) if field is F9
                                    else field.element(k))
    sparse = st.one_of(st.just(0), raw)

    def form(d):
        return bf(field, [field.element(data.draw(sparse)) for _ in range(d + 1)])

    f, g = form(data.draw(st.integers(0, 4))), form(data.draw(st.integers(0, 4)))
    shared = data.draw(st.sampled_from(["none", "factor", "root at (1:0)"]))
    if shared == "factor":
        h = form(data.draw(st.integers(1, 2)))
        f, g = f * h, g * h
    elif shared == "root at (1:0)":
        t = bf(field, [0, 1])
        f, g = f * t, g * t
    r = resultant(f, g)
    assert r == _sylvester_resultant(f, g) and r.field == field
    assert resultant(g, f) == r * (-1) ** (f.degree * g.degree)
    if shared != "none" and f.degree and g.degree:
        assert not r


def test_binary_gcd():
    f = lin_product(QQ, [(2, 1), (3, 1), (3, 1)], extra_s=1)
    g = lin_product(QQ, [(3, 1), (5, 1)], extra_s=2)
    d = binary_gcd(f, g)
    expect = lin_product(QQ, [(3, 1)], extra_s=1)
    assert isinstance(d, HomogPoly) and d.vars == ST
    assert d.degree == expect.degree and proportional(d, expect)


def test_binary_gcd_with_a_zero_form():
    # gcd(0, f) and gcd(f, 0) are f normalized as gcd(f, f) is: the shared
    # s and t powers times a core whose highest s power has coefficient 1
    f = bf(F7, [3, 2, 0])  # 3 s^2 + 2 s t = s (3 s + 2 t)
    zero = HomogPoly.zero(F7, ST, 2)
    monic = bf(F7, [1, 3, 0])  # s^2 + 3 s t
    assert binary_gcd(f, f) == monic
    assert binary_gcd(zero, f) == monic and binary_gcd(f, zero) == monic
    g = bf(QQ, [0, 0, 4, -2])  # 4 s t^2 - 2 t^3
    assert (binary_gcd(HomogPoly.zero(QQ, ST, 1), g) == binary_gcd(g, g)
            == bf(QQ, [0, 0, 1, Fraction(-1, 2)]))
    assert binary_gcd(bf(F7, [5]), zero) == bf(F7, [1])
    d = binary_gcd(zero, zero)
    assert not d and d.vars == ST


def brute_roots(f):
    """Rational roots by evaluating at every point of P^1, in the order
    rational_roots promises: (u : 1) by u, then (1 : 0)."""
    field = f.field
    one, zero = field.one(), field.zero()
    roots = [(u, one) for u in field.elements() if not f.evaluate([u, one])]
    if not f.evaluate([one, zero]):
        roots.append((one, zero))
    return [(u.val, t.val) for u, t in roots]


def raw_roots(f):
    return [(u.val, t.val) for u, t in rational_roots(f)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_rational_roots_of_every_small_form(p):
    F = Field.prime(p)
    vals = list(F.elements())
    for d in range(4):
        for cs in product(vals, repeat=d + 1):
            if any(cs):
                f = bf(F, list(cs))
                assert raw_roots(f) == brute_roots(f), f


@pytest.mark.parametrize("field", [Field.prime(101), Field.prime(5).quadratic_extension(2),
                                   Field.prime(7).quadratic_extension(3)],
                         ids=["F101", "F5(sqrt2)", "F7(sqrt3)"])
def test_rational_roots_random_forms(field):
    rng = random.Random(6)
    elems = list(field.elements())
    for trial in range(60):
        if trial % 2:
            d = rng.randint(1, 8)
            f = bf(field, [field.random(rng) for _ in range(d + 1)])
            if not f:
                continue
        else:
            # repeated roots, roots at (0 : 1) and (1 : 0), and a cofactor
            # of degree <= 2 that may add roots or none
            roots = [(u, field.one()) for u in rng.sample(elems, rng.randint(0, 2))
                     for _ in range(rng.randint(1, 2))]
            extra_s, extra_t = rng.randint(0, 2), rng.randint(0, 1)
            f = lin_product(field, roots, extra_s, extra_t)
            room = 8 - f.degree
            g = bf(field, [field.random(rng) for _ in range(min(room, 2) + 1)])
            if g:
                f = f * g
        assert raw_roots(f) == brute_roots(f), f


def test_rational_roots_examples():
    # s^2 t (s - 2t)^3 (s^2 - 2t^2) over F_7, where 3^2 = 2
    f = (lin_product(F7, [(0, 1), (0, 1), (1, 0), (2, 1), (2, 1), (2, 1)])
         * bf(F7, [1, 0, -2]))
    assert raw_roots(f) == [(0, 1), (2, 1), (3, 1), (4, 1), (1, 0)]
    # -1 is a nonsquare mod 7 and a square in F_49
    assert raw_roots(bf(F7, [1, 0, 1])) == []
    K = F7.quadratic_extension(3)
    assert len(rational_roots(bf(K, [1, 0, 1]))) == 2
    with pytest.raises(PolyError):
        rational_roots(bf(F7, [0, 0]))


def check_squarefree_factors(f):
    field = f.field
    factors = squarefree_factors(f)
    # the factors of the form are those of its dense raw list, wrapped
    assert squarefree_factors_raw(field, f.degree, dense(f)) == [(m, dense(g)) for m, g in factors]
    prod = bf(field, [1])
    for m, g in factors:
        assert g.vars == f.vars and g.degree >= 1
        for _ in range(m):
            prod = prod * g
    assert prod.degree == f.degree and proportional(prod, f)
    for i, (_, g) in enumerate(factors):
        # squarefree: no root of g kills both partials, in any characteristic
        assert binary_gcd(binary_gcd(g, g.partial(0)), g.partial(1)).degree == 0
        for _, h in factors[i + 1:]:
            assert binary_gcd(g, h).degree == 0
        if g.degree == 1:
            # the root of a s + b t
            a, b = g.linear_coeffs()
            assert not g.evaluate([-b / a, field.one()] if a else [field.one(), field.zero()])
    s, t = bf(field, [1, 0]), bf(field, [0, 1])
    lead = [g for g in (s, t) if f.divide_linear(g) is not None]
    assert [g for _, g in factors[:len(lead)]] == lead
    core = factors[len(lead):]
    assert [m for m, _ in core] == sorted(m for m, _ in core)
    for _, g in core:
        assert g.terms.get((g.degree, 0)) == 1 and (0, g.degree) in g.terms


@pytest.mark.parametrize("name", sorted(CASES) + ["F3", "F9"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_squarefree_factors_properties(name, data):
    # products of random forms of degree <= 2 to powers <= 4 give repeated,
    # shared and s/t factors; over F_3 and F_9 the cubes need p-th-power descent
    if name in CASES:
        make, raw = CASES[name]
        field = make()
    else:
        field = {"F3": F3, "F9": F9}[name]
        raw = st.integers(0, 8).map(lambda k: field.element((k % 3, k // 3)) if field is F9
                                    else field.element(k))
    f = bf(field, [field.one()])
    for _ in range(data.draw(st.integers(1, 3))):
        d = data.draw(st.integers(1, 2))
        g = bf(field, [field.element(data.draw(raw)) for _ in range(d + 1)])
        if g:
            for _ in range(data.draw(st.integers(1, 4))):
                f = f * g
    if f.degree:
        check_squarefree_factors(f)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_is_squarefree_matches_the_partition(name, data):
    # a random form times up to two of s^2, t^2 and g^p, with g of degree 1
    # or 2 and p the characteristic (2 over Q); the zero form is not
    # squarefree, though it has no multiplicity partition
    make, raw = CASES[name]
    field = make()
    s, t = bf(field, [1, 0]), bf(field, [0, 1])
    g = bf(field, [field.element(data.draw(raw)) for _ in range(data.draw(st.integers(2, 3)))])
    g_p = bf(field, [field.one()])
    for _ in range(field.characteristic() or 2):
        g_p = g_p * g
    f = bf(field, [field.element(data.draw(raw)) for _ in range(data.draw(st.integers(1, 6)))])
    for h in data.draw(st.lists(st.sampled_from([s * s, t * t, g_p]), max_size=2)):
        f = f * h
    if f:
        assert is_squarefree(f) == (multiplicity_partition(f) == [1] * f.degree)
    else:
        assert not is_squarefree(f)


@pytest.mark.parametrize("field", [F3, F9], ids=["F3", "F9"])
def test_squarefree_factors_descend_pth_powers(field):
    s, t = bf(field, [1, 0]), bf(field, [0, 1])
    a = field.element(2) if field is F3 else field.ext_element(1, 1)
    u = s - t * a  # the root (a : 1)
    v = s * s + t * t  # irreducible over F_3, split over F_9
    w = s * s * s - t * t * t * a  # a cube: the derivative of its core vanishes
    for f in (u * u * u * t, v * v * v * s, w * w * s * s * s * t * t * t * t,
              u * u * u * u * u * u, s * s * s * v * v * v * v * v * v):
        check_squarefree_factors(f)
    assert squarefree_factors(u * u * u * t) == [(1, t), (3, u)]
    assert not u.evaluate([a, field.one()]) and not t.evaluate([field.one(), field.zero()])
    assert squarefree_factors(s * s * s * v * v * v) == [(3, s), (3, v)]


def _yun(f, field):
    """`squarefree_decomposition` without its early return for a squarefree
    f: Yun's loop runs to the end whenever f' is nonzero."""
    f = _monic(_trim(list(f), field), field)
    if _deg(f) == 0:
        return []
    p = field.characteristic()
    df = _derivative(f, field)
    out = {}
    rest = f
    if not _is_zero_poly(df, field):
        c = _gcd_poly(f, df, field)
        w, _ = _divmod_poly(f, c, field)
        i = 1
        while _deg(w) > 0:
            y = _gcd_poly(w, c, field)
            z, _ = _divmod_poly(w, y, field)
            if _deg(z) > 0:
                out[i] = z
            i += 1
            w = y
            c, _ = _divmod_poly(c, y, field)
        rest = c
    if _deg(rest) > 0:
        for m, g in _yun(_pth_root_poly(rest, field, p), field):
            key = m * p
            out[key] = field._convolve_raw(None, out[key], g) if key in out else g
    return sorted(out.items())


@pytest.mark.parametrize("name", sorted(CASES) + ["F3", "F5", "F9"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_squarefree_shortcut_matches_yun(name, data):
    # random products g^m h^k, squarefree ones among them, and f = g^p h
    # in characteristic p < 12, against the loop without the early return
    if name in CASES:
        make, raw = CASES[name]
        field = make()
    else:
        field = {"F3": F3, "F5": F5, "F9": F9}[name]
        raw = st.integers(0, 24).map(lambda k: field.element((k % 3, k // 3 % 3))
                                     if field is F9 else field.element(k))
    p = field.characteristic()
    f = bf(field, [field.one()])
    for _ in range(data.draw(st.integers(1, 3))):
        g = bf(field, [field.element(data.draw(raw)) for _ in range(data.draw(st.integers(2, 3)))])
        if g:
            small_p = 0 < p < 12 and data.draw(st.booleans())
            power = p if small_p else data.draw(st.integers(1, 2))
            for _ in range(power):
                f = f * g
    coeffs = [c.val for c in (f.terms.get((f.degree - i, i), field.zero())
                              for i in range(f.degree + 1))]
    assert squarefree_decomposition(coeffs, field) == _yun(coeffs, field)


@pytest.mark.parametrize("field", [F3, F5], ids=["F3", "F5"])
def test_squarefree_shortcut_leaves_pth_powers_to_descent(field):
    # f' = 0 (u^p + 1, u^2p + u^p + 2) and f = g^p h, with h = u^2 + 1
    # prime to g = u + 1, take the descent, not the early return
    p = field.p
    one = field._one_raw

    def u_poly(*terms):  # ascending raw list from {degree: coefficient}
        out = [field._zero_raw] * (max(k for k, _ in terms) + 1)
        for k, c in terms:
            out[k] = field._from_int(c)
        return out

    g = u_poly((0, 1), (1, 1))  # u + 1
    h = u_poly((0, 1), (2, 1))  # u^2 + 1
    g_p = [one]
    for _ in range(p):
        g_p = field._convolve_raw(None, g_p, g)
    cases = [u_poly((0, 1), (p, 1)), u_poly((0, 2), (p, 1), (2 * p, 1)),
             field._convolve_raw(None, g_p, h), h]
    for f in cases:
        assert squarefree_decomposition(f, field) == _yun(f, field)
    assert _is_zero_poly(_derivative(cases[0], field), field)
    assert squarefree_decomposition(cases[2], field)[-1][0] == p


def _perfect_square_root_by_factors(form):
    """`perfect_square_root` on forms, as it was before it read raw lists:
    the product of the squarefree factors to half their multiplicities,
    times a root of the form's lex-top coefficient over that product's
    square; kept as its reference."""
    field = form.field
    factors = squarefree_factors(form)
    if any(m % 2 for m, _ in factors):
        return None
    root0 = HomogPoly.monomial(field, form.vars, (0, 0))
    for m, g in factors:
        for _ in range(m // 2):
            root0 = root0 * g
    top = max(root0.terms)
    scalar = form.terms[tuple(2 * k for k in top)] / (root0.terms[top] * root0.terms[top])
    adjoined = field.adjoin_sqrt(scalar)
    if adjoined is None:
        return None
    work, r = adjoined
    return root0.change_field(work) * r


RAW_FIELDS = {"F3": F3, "F5": F5, "F101": Field.prime(101), "F9": F9, "QQ": QQ}


def _draw_scalar(data, field):
    if isinstance(field, QuadExtField) and field.is_finite():
        p = field.characteristic()
        k = data.draw(st.integers(0, p * p - 1))
        return field.element((k % p, k // p))
    if field is QQ:
        return field.element(Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3))))
    return field.element(data.draw(st.integers(0, field.order() - 1)))


def _draw_product(data, field, degree=None):
    """c * prod g^m: s, t, a linear form (with its root at (1:0) or (0:1)
    when a coefficient is zero) or a form of degree 2 to powers 1-4, the
    product maybe raised to the characteristic's power p <= 5, so that the
    derivative of its core vanishes, or else squared; c = 0 gives a zero
    form.  With a degree given, a random form fills the product up to it,
    or replaces a product of a larger degree."""
    s, t = bf(field, [1, 0]), bf(field, [0, 1])
    f = bf(field, [_draw_scalar(data, field)])
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["s", "t", "linear", "quadratic"]))
        g = {"s": s, "t": t}.get(kind) or bf(field, [
            _draw_scalar(data, field) for _ in range(2 if kind == "linear" else 3)])
        if g:
            for _ in range(data.draw(st.integers(1, 4))):
                f = f * g
    if data.draw(st.booleans()):
        p = field.characteristic()
        g, f = f, bf(field, [1])
        for _ in range(p if 0 < p <= 5 else 2):
            f = f * g
    if degree is not None:
        if f.degree > degree:
            f = bf(field, [_draw_scalar(data, field)])
        f = f * bf(field, [_draw_scalar(data, field) for _ in range(degree - f.degree + 1)])
    return f


def _shortened(data, cs, field):
    """cs without some of its trailing zeros: the raw lists the evaluators
    return may stop short."""
    n = len(cs)
    while n and field._is_zero_raw(cs[n - 1]) and data.draw(st.booleans()):
        n -= 1
    return cs[:n]


@pytest.mark.parametrize("name", sorted(RAW_FIELDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_raw_predicates_match_the_form_references(name, data):
    # is_squarefree_raw and has_even_divisor_raw against the multiplicity
    # partition, and perfect_square_root against its form-level reference:
    # over F_9 the reference may need a second extension for an even divisor
    field = RAW_FIELDS[name]
    f = _draw_product(data, field)
    cs = _shortened(data, dense(f), field)
    if not f:
        assert not is_squarefree_raw(field, f.degree, cs)
        with pytest.raises(PolyError, match="zero form"):
            has_even_divisor_raw(field, f.degree, cs)
        return
    parts = multiplicity_partition(f)
    assert is_squarefree_raw(field, f.degree, cs) == (parts == [1] * f.degree) == is_squarefree(f)
    even = all(m % 2 == 0 for m in parts)
    assert has_even_divisor_raw(field, f.degree, cs) == even
    if f.degree % 2 == 0:
        root, ref = perfect_square_root(f), _perfect_square_root_by_factors(f)
        assert root == ref and (root is None or root.field == ref.field)
        assert (ref is not None) == even or field is F9 and ref is None


@pytest.mark.parametrize("name", sorted(RAW_FIELDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_coprime_raw_matches_the_gcd_chain(name, data):
    # two to four forms of degree 3 with a drawn common factor (none, s, t,
    # a linear form, or a square), some of them zero, against the chain of
    # binary_gcd on the forms
    field = RAW_FIELDS[name]
    common = data.draw(st.sampled_from([[1], [1, 0], [0, 1], None, "square"]))
    if common is None:
        common = bf(field, [_draw_scalar(data, field) for _ in range(2)]) or bf(field, [1])
    elif common == "square":
        common = bf(field, [1, _draw_scalar(data, field)])
        common = common * common
    else:
        common = bf(field, common)
    forms = []
    for _ in range(data.draw(st.integers(2, 4))):
        forms.append(common * _draw_product(data, field, 3 - common.degree))
    lists = [_shortened(data, dense(f), field) for f in forms]
    g = forms[0]
    for f in forms[1:]:
        g = binary_gcd(g, f)
    assert are_coprime_raw(field, 3, lists) == (all(forms) and g.degree == 0)


INVARIANT_FIELDS = {"F3": F3, "F5": F5, "F13": Field.prime(13), "F101": Field.prime(101),
                    "F9": F9, "F49": F7.quadratic_extension(3)}


def _draw_form(data, field, degree):
    """A form of the given degree: a `_draw_product`, a scalar times
    s^k t^(degree-k), a double root at (1:0) or at (0:1) times a product, or
    the cube of a linear form times a product (a p-th power over F_3) when
    the degree is at least 3."""
    s, t = bf(field, [1, 0]), bf(field, [0, 1])
    kind = data.draw(st.sampled_from(["product", "monomial", "t^2", "s^2", "cube"][:4 + (degree >= 3)]))
    if kind == "product":
        return _draw_product(data, field, degree)
    if kind == "monomial":
        k = data.draw(st.integers(0, degree))
        return bf(field, [0] * (degree - k) + [_draw_scalar(data, field)] + [0] * k)
    if kind == "cube":
        u = bf(field, [_draw_scalar(data, field) for _ in range(2)])
        return u * u * u * _draw_product(data, field, degree - 3)
    g = {"t^2": t, "s^2": s}[kind]
    return g * g * _draw_product(data, field, degree - 2)


def _padded(cs, degree, field):
    return cs + [field._zero_raw] * (degree + 1 - len(cs))


@pytest.mark.parametrize("name", sorted(INVARIANT_FIELDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_compiled_invariants_match_the_gcd_chains(name, data):
    # the compiled discriminant of a quartic is nonzero exactly when
    # is_squarefree_raw holds, and then has_even_divisor_raw fails; the
    # compiled resultant of two cubics, with a drawn common factor or none,
    # is nonzero exactly when are_coprime_raw holds.  The raw predicates,
    # the reference, read the lists as the evaluators may stop them short.
    # Over F_9 and F_49 a raw zero is the pair (0, 0), which Python reads as
    # true
    field = INVARIANT_FIELDS[name]
    is_zero = field._is_zero_raw
    disc, res = binary_invariants(field)
    quartic = _draw_form(data, field, 4)
    cs = _shortened(data, dense(quartic), field)
    squarefree = not is_zero(disc(_padded(cs, 4, field)))
    assert squarefree == is_squarefree_raw(field, 4, cs)
    if squarefree:
        assert not has_even_divisor_raw(field, 4, cs)
    common = data.draw(st.sampled_from([[1], [1, 0], [0, 1], None]))
    common = bf(field, common) if common else bf(field, [1, _draw_scalar(data, field)])
    f, g = (common * _draw_form(data, field, 3 - common.degree) for _ in range(2))
    lists = [_shortened(data, dense(h), field) for h in (f, g)]
    assert (not is_zero(res(_padded(lists[0], 3, field) + _padded(lists[1], 3, field)))) \
        == are_coprime_raw(field, 3, lists)
    if common.degree:
        assert is_zero(res(dense(f) + dense(g)))


@pytest.mark.parametrize("field", [F3, F5], ids=["F3", "F5"])
def test_compiled_invariants_on_edge_forms(field):
    # zero lists, s^k and t^k, and p-th powers over F_3, whose derivative
    # in s or in t vanishes
    disc, res = binary_invariants(field)
    s, t = bf(field, [1, 0]), bf(field, [0, 1])
    a = field.element(2)
    u = s - t * a
    w = u * u * u
    assert not disc([0] * 5) and not res([0] * 8)
    for k in range(5):
        assert not disc(dense(bf(field, [0] * k + [1] + [0] * (4 - k))))
    assert disc(dense(s * t * (s * s + t * t * a))) and disc(dense(s * t * (s + t) * (s - t)))
    assert not disc(dense(w * (s + t))) and not disc(dense(w * t)) and not disc(dense(w * s))
    assert res(dense(s * s * s) + dense(t * t * t))
    assert not res(dense(s * s * s) + dense(s * t * t))
    assert not res(dense(w) + dense(u * t * t))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_generic_invariants_are_the_euclidean_resultants(data):
    # over Q the generic resultant of two cubics is the Euclidean resultant,
    # and the quartic's test form is Res(f_s, f_t), which is 16 times the
    # discriminant: 16 prod (r_i - r_j)^2 over the root pairs of a form
    # monic in s
    disc, res = invariant_forms()
    coeff = st.integers(-4, 4).map(lambda n: QQ.element(Fraction(n, data.draw(st.integers(1, 3)))))
    f, g = (bf(QQ, [data.draw(coeff) for _ in range(4)]) for _ in range(2))
    values = [c for h in (f, g) for c in (h.terms.get((3 - i, i), QQ.zero()) for i in range(4))]
    assert res.evaluate(values) == resultant(f, g)
    quartic = bf(QQ, [data.draw(coeff) for _ in range(5)])
    values = [quartic.terms.get((4 - i, i), QQ.zero()) for i in range(5)]
    assert disc.evaluate(values) == resultant(*quartic.gradient())
    roots = [data.draw(coeff) for _ in range(4)]
    monic = lin_product(QQ, [(r, 1) for r in roots])
    values = [monic.terms.get((4 - i, i), QQ.zero()) for i in range(5)]
    want = QQ.element(16)
    for i in range(4):
        for j in range(i + 1, 4):
            want = want * (roots[i] - roots[j]) * (roots[i] - roots[j])
    assert disc.evaluate(values) == want
    assert len(disc.terms) == 16 and len(res.terms) == 34


@pytest.mark.parametrize("field", [F3, F5], ids=["F3", "F5"])
def test_raw_predicates_on_edge_forms(field):
    s, t = bf(field, [1, 0]), bf(field, [0, 1])
    a = field.element(2)
    w = s * s * s - t * t * t * a  # (s - a^(1/3) t)^3 in characteristic 3
    u = s - t * a
    cases = [(s, True, False), (t, True, False), (s * t, True, False),
             (s * s, False, True), (t * t * t * t, False, True), (s * t * t, False, False),
             (u * u * s * s, False, True), (w, field.p != 3, False),
             (w * w, False, True), (w * w * s, False, False)]
    for f, squarefree, even in cases:
        cs = dense(f)
        assert is_squarefree_raw(field, f.degree, cs) == squarefree, f
        assert has_even_divisor_raw(field, f.degree, cs) == even, f
        assert has_even_divisor_raw(field, f.degree + 2, cs + [0, 0]) == even, f
        assert not is_squarefree_raw(field, f.degree + 2, cs + [0, 0]), f
    for degree in (0, 3):
        assert not is_squarefree_raw(field, degree, [])
        assert not is_squarefree_raw(field, degree, [0] * (degree + 1))
        assert not are_coprime_raw(field, degree, [[1] + [0] * degree, []])
    assert are_coprime_raw(field, 3, [dense(s * s * s), dense(t * t * t)])
    assert not are_coprime_raw(field, 3, [dense(s * s * s), dense(s * t * t)])
    # w = u^3 in characteristic 3 only
    assert are_coprime_raw(field, 3, [dense(w), dense(u * u * u)]) == (field.p != 3)
