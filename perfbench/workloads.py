"""Seeded workloads of the prymcubic benchmark.

A workload is a list of jobs, one *round*, made from the seed at set-up.  The
runner executes whole rounds, each in a freshly shuffled order, until the run
time is used up, so every run of one seed does the same mix of work.

Inputs are plain data (integer and Fraction coefficient lists).  Every job
builds fresh program objects from them inside the timed region, because
`Symmetrization` memoises its determinant and quadric vector and a reused
object would make later rounds cheaper than the first.

Jobs call the library through module attributes (`prym.forward_general`, not
a name imported into this module), so the tracer's patches reach them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from prymcubic import cli, milne, oracle, prym, scene
from prymcubic.fields import Field, QQ
from prymcubic.milne import Line2, MilneError
from prymcubic.oracle import DEFAULT_BUDGET, BudgetExceeded, OracleError
from prymcubic.poly import HomogPoly, SymMatrix
from prymcubic.prym import UnsupportedTower
from prymcubic.symmetroid import Symmetrization

X4 = ("x0", "x1", "x2", "x3")

# Refusals the library documents: bad reduction at a prime, and a pencil that
# would need a second quadratic extension.  Anything else raised is a failure.
DOCUMENTED_REFUSALS = (OracleError, UnsupportedTower)

# construct_q: a round is 38 pairs over Q and 2 `verify` runs (every 20th job).
CONSTRUCT_ROUND = 40
VERIFY_EVERY = 20
WEB_HEIGHT = 3

# classify_fp: eight normal forms and three random webs per normal form, at
# every prime.  The primes and the coordinates of the normal forms are fixed
# so that every seed does the same p^3 work: the scan's cost moves by up to a
# third under a permutation of the coordinates.
CLASSIFY_PRIMES = (23, 29, 31, 37)
RANDOM_WEBS_PER_FORM = 3

# trace_fp: trace identity on every smooth fixture, bijection on t1..t3.
TRACE_PRIMES = (23, 29, 31, 37)
BIJECTION_PRIMES = (11, 13, 17)
BIJECTION_PAIRS = ("t1", "t2", "t3")

WORKLOADS = ("construct_q", "classify_fp", "trace_fp")


class Job:
    """One unit of user work: `kind` selects the code path, `data` is plain
    input data, `expected` what the output must be (None: only the identities
    the job checks on its own)."""

    __slots__ = ("id", "kind", "label", "data", "expected")

    def __init__(self, id, kind, label, data, expected=None):
        self.id = id
        self.kind = kind
        self.label = label
        self.data = data
        self.expected = expected


class Outcome:
    """`status` is "ok", "refused" (a documented refusal) or "failed"."""

    __slots__ = ("status", "detail", "observed")

    def __init__(self, status, detail="", observed=None):
        self.status = status
        self.detail = detail
        self.observed = observed or {}


class JobFailed(Exception):
    """A job's output is wrong."""


def _check(cond, message):
    if not cond:
        raise JobFailed(message)


# -- reading the shipped data ---------------------------------------------------


def load_data(data_dir):
    """The shipped fixture manifest and normal forms, as parsed JSON."""
    with open(data_dir / "fixtures.json", encoding="utf-8") as fh:
        fixtures = json.load(fh)
    with open(data_dir / "normal_forms.json", encoding="utf-8") as fh:
        normal_forms = json.load(fh)
    return {"fixtures_path": str(data_dir / "fixtures.json"),
            "fixtures": fixtures, "normal_forms": normal_forms}


def _linear_rows(obj, scalar):
    """3x3 rows of length-4 coefficient lists of a scene symmetrization."""
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            coeffs = [0, 0, 0, 0]
            for term in obj["matrix"][i][j]:
                coeffs[term["e"].index(1)] = scalar(term["c"])
            row.append(coeffs)
        rows.append(row)
    return rows


def normal_form_rows(normal_forms):
    """Normal forms lifted to integers, keyed by name.

    The file is over F_11, and an F_11 element cannot be coerced into another
    prime field, so each residue becomes its symmetric integer lift ("10" is
    -1) and the forms are rebuilt over the target prime from the integers."""
    p = normal_forms["field"]["p"]

    def lift(c):
        r = int(c) % p
        return r if r <= p // 2 else r - p

    expected = normal_forms["metadata"]["expected"]
    return {name: (_linear_rows(obj, lift), expected[name])
            for name, obj in sorted(normal_forms["objects"].items())}


def smooth_pairs(fixtures):
    """(name, symmetrization rows, quadric matrix) for each smooth pair of the
    manifest, all entries Fractions."""
    objs = fixtures["objects"]
    out = []
    for aname, qname in fixtures["metadata"]["smooth_pairs"]:
        rows = _linear_rows(objs[aname], Fraction)
        qmat = [[Fraction(c) for c in row] for row in objs[qname]["matrix"]]
        out.append((aname[2:], rows, qmat))
    return out


# -- job generation ---------------------------------------------------------------


def _random_rows(rng, draw):
    rows = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            rows[i][j] = rows[j][i] = [draw() for _ in range(4)]
    return rows


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _split_quadric_terms(rng):
    """Q = L1*L2 - L3*L4 with integer linear forms, redrawn until rank 4.

    A split product has rational rulings, so the pencil needs at most the one
    quadratic extension the library supports; random rank-4 quadrics hit the
    documented `UnsupportedTower` refusal on about half the draws."""
    def linear():
        return HomogPoly.linear(QQ, X4, [rng.randint(-WEB_HEIGHT, WEB_HEIGHT) for _ in range(4)])
    while True:
        ls = [linear() for _ in range(4)]
        form = ls[0] * ls[1] - ls[2] * ls[3]
        if form and SymMatrix.from_quadratic_form(form).rank() == 4:
            return {e: c.val for e, c in form.terms.items()}


def construct_q_jobs(seed, data, recorded):
    rng = _rng("construct_q", seed)
    jobs = []
    for i in range(CONSTRUCT_ROUND):
        if i % VERIFY_EVERY == VERIFY_EVERY - 1:
            label = "verify%d" % i
            jobs.append(Job(i, "verify", label,
                            (data["fixtures_path"], rng.randrange(10 ** 6)), recorded.get(label)))
            continue
        rows = _random_rows(rng, lambda: rng.randint(-WEB_HEIGHT, WEB_HEIGHT))
        label = "pair%d" % i
        jobs.append(Job(i, "construct", label, (rows, _split_quadric_terms(rng)),
                        recorded.get(label)))
    return jobs


def classify_fp_jobs(seed, data, recorded):
    rng = _rng("classify_fp", seed)
    forms = normal_form_rows(data["normal_forms"])
    jobs = []
    for p in CLASSIFY_PRIMES:
        for name, (rows, tag) in forms.items():
            jobs.append(Job(len(jobs), "normal", "%s@%d" % (name, p), (p, rows),
                            {"tag": tag}))
            for k in range(RANDOM_WEBS_PER_FORM):
                label = "web%s.%d@%d" % (name[1:], k, p)
                web = _random_rows(rng, lambda: rng.randrange(p))
                jobs.append(Job(len(jobs), "random", label, (p, web), recorded.get(label)))
    return jobs


def trace_fp_jobs(seed, data, recorded):
    """The shipped fixtures at fixed primes; the seed only orders the jobs."""
    pairs = smooth_pairs(data["fixtures"])
    specs = [("trace", "%s@%d", p, pair) for p in TRACE_PRIMES for pair in pairs]
    specs += [("bijection", "bij-%s@%d", p, pair) for p in BIJECTION_PRIMES
              for pair in pairs if pair[0] in BIJECTION_PAIRS]
    jobs = []
    for kind, fmt, p, (name, rows, qmat) in specs:
        label = fmt % (name, p)
        jobs.append(Job(len(jobs), kind, label, (p, rows, qmat), recorded.get(label)))
    return jobs


_GENERATORS = {"construct_q": construct_q_jobs, "classify_fp": classify_fp_jobs,
               "trace_fp": trace_fp_jobs}


def make_jobs(workload, seed, data, expected):
    """The round of `workload` for `seed`.

    `expected` is the workload's entry of expected.json: the outputs recorded
    per job label, and the seed they were recorded with, or null when the
    inputs do not depend on the seed.  Recorded outputs of another seed are
    not used."""
    recorded = {}
    if expected and expected.get("seed") in (None, seed):
        recorded = expected["jobs"]
    return _GENERATORS[workload](seed, data, recorded)


def round_order(jobs, seed, round_index):
    order = list(range(len(jobs)))
    random.Random("order:%d:%d" % (seed, round_index)).shuffle(order)
    return order


# -- job bodies ------------------------------------------------------------------


def _scene_digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _run_construct(job):
    rows, qterms = job.data
    a = Symmetrization.from_entry_rows(QQ, rows)
    q = SymMatrix.from_quadratic_form(HomogPoly(QQ, X4, 2, qterms))
    tag = a.classify()
    fwd = prym.forward_general(a, q)
    pen = prym.pencil_conics(a, q)
    quartic = fwd.quartic.change_field(pen.field) if pen.extended else fwd.quartic
    rev = prym.reverse_construct(quartic, pen.conics(), pen.field)
    _check(prym.roundtrip_change_matches(a, q, pen, rev), "roundtrip identity failed")
    sc = scene.Scene(QQ, metadata={"source": "perfbench", "job": job.label})
    sc.add("A", a).add("Q", q).add("X", fwd.quartic)
    if not pen.extended:
        sc.add("K", (pen.conics(), pen.quartic))
    first = scene.write_scene(sc)
    second = scene.write_scene(scene.parse_scene(first))
    _check(first == second, "scene round trip is not byte-identical")
    return {"tag": tag, "extended": pen.extended, "scene_sha256": _scene_digest(first)}


def _run_verify(job):
    path, seed = job.data
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--seed", str(seed), "verify", path])
    _check(code == cli.EXIT_OK, "verify exited %s: %s" % (code, err.getvalue().strip()))
    report = json.loads(out.getvalue())
    _check(report["failures"] == [], "verify failures: %s" % report["failures"])
    return {"checked": len(report["notes"])}


def _run_classify(job):
    p, rows = job.data
    a = Symmetrization.from_entry_rows(Field.prime(p), rows)
    tag = a.classify()
    if job.kind == "random":
        _check(a.annihilation_holds(), "annihilation identity failed")
        _check(a.double_cover_minors()[3], "minor syzygy failed")
    return {"tag": tag}


def _build_pair(p, rows, qmat):
    field = Field.prime(p)
    a = Symmetrization.from_entry_rows(field, rows)
    q = SymMatrix.from_rows([[field.element(c) for c in row] for row in qmat])
    return field, a, q


def _run_trace(job):
    p, rows, qmat = job.data
    field, a, q = _build_pair(p, rows, qmat)
    gamma = a.determinant_cubic()
    eqs = [q.quadratic_form(field, X4), gamma]
    smooth = oracle.smoothness_certificate(eqs, field, budget=DEFAULT_BUDGET).passed
    curve = oracle.count_curve(eqs, field, 4, budget=DEFAULT_BUDGET)
    minors = a.double_cover_minors()
    _check(minors[3], "minor syzygy failed")
    # at a prime of bad reduction this raises OracleError, a documented refusal
    cover = oracle.count_double_cover(eqs, list(minors[:3]), field, budget=DEFAULT_BUDGET)
    _check(smooth, "double cover counted on a singular space curve")
    rank = q.rank()
    if rank == 4:
        _check(field.sqrt(q.det()) is not None, "rulings of Q do not split")
    if rank == 3:
        model = prym.forward_even(a, q)
        _check(model.branch_reduced, "branch scheme is not reduced")
        partner = oracle.count_hyperelliptic_octic(model.octic, field)
    else:
        fwd = prym.forward_general(a, q)
        _check(oracle.smoothness_certificate([fwd.quartic], field,
                                             budget=DEFAULT_BUDGET).passed,
               "plane quartic is singular")
        partner = oracle.count_curve([fwd.quartic], field, 3, budget=DEFAULT_BUDGET)
    for rep in (curve, cover, partner):
        _check(rep.weil_ok, "Weil bound violated: %r" % (rep,))
    _check(cover.count == curve.count + partner.count - (p + 1),
           "trace identity failed: %d != %d + %d - %d"
           % (cover.count, curve.count, partner.count, p + 1))
    return {"counts": [curve.count, cover.count, partner.count]}


def dual_lines(p):
    """Every line of P^2 over F_p once, as normalized dual coordinates."""
    for a in range(p):
        for b in range(p):
            yield (1, a, b)
    for b in range(p):
        yield (0, 1, b)
    yield (0, 0, 1)


def _run_bijection(job):
    p, rows, qmat = job.data
    field, a, q = _build_pair(p, rows, qmat)
    fwd = prym.forward_general(a, q)
    gamma = a.determinant_cubic()
    found = set()
    for bl in oracle.enumerate_bitangents(fwd.quartic, field, budget=DEFAULT_BUDGET):
        if milne.line_is_generic(a, Line2(field, bl.p0, bl.p1)):
            found.add(tuple(c.val for c in bl.dual))
    detected = {}
    for dual in dual_lines(p):
        line = Line2.from_dual(field, dual)
        if not milne.line_is_generic(a, line):
            continue
        try:
            cone = milne.enveloping_cone(a, line)
        except MilneError:
            continue  # the line's image degenerates: not a candidate
        member = milne.reducible_member(cone.matrix, q, field)
        if member is not None and member.kind == "pair":
            detected[dual] = (line, member)
    _check(set(detected) == found,
           "pencil-detected lines %s != oracle bitangents %s" % (sorted(detected), sorted(found)))
    for dual, (line, member) in sorted(detected.items()):
        _check(not member.planes_unrepresentable, "tritangent planes at %s unrepresentable" % (dual,))
        twisted = milne.twisted_cubic(a, line)
        for h in (member.h1, member.h2):
            cert = milne.tritangent_verify(q, gamma, h)
            _check(cert.passed, "tritangent at %s not certified" % (dual,))
            if cert.contact is not None:
                _check(milne.contact_points_match(h, twisted, cert.contact,
                                                  cert.conic_param, cert.plane_basis),
                       "contact points at %s off the twisted cubic" % (dual,))
    return {"bitangents": len(found)}


_BODIES = {"construct": _run_construct, "verify": _run_verify, "normal": _run_classify,
           "random": _run_classify, "trace": _run_trace, "bijection": _run_bijection}


def run_job(job):
    """Run one job and judge it.

    A documented refusal passes when the job has nothing recorded or its
    recorded outcome is that same refusal; an unexpected refusal, any other
    exception, `BudgetExceeded` and a wrong output all fail the job."""
    try:
        observed = _BODIES[job.kind](job)
    except JobFailed as e:
        return Outcome("failed", str(e))
    except BudgetExceeded as e:
        return Outcome("failed", "BudgetExceeded: %s" % e)
    except DOCUMENTED_REFUSALS as e:
        detail = "%s: %s" % (type(e).__name__, e)
        if job.expected is None or job.expected.get("refusal") == type(e).__name__:
            return Outcome("refused", detail, {"refusal": type(e).__name__})
        return Outcome("failed", "unexpected refusal " + detail)
    except Exception as e:  # an undocumented exception is the job's failure
        return Outcome("failed", "%s: %s" % (type(e).__name__, e))
    if job.expected is not None:
        for key, want in job.expected.items():
            if key != "refusal" and observed.get(key) != want:
                return Outcome("failed", "%s is %r, expected %r"
                               % (key, observed.get(key), want), observed)
    return Outcome("ok", "", observed)
