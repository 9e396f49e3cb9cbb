"""Command-line pipeline: classify symmetroids, build catalecticant models,
run the forward/reverse constructions, hunt tritangents, count points and
verify scene invariants.

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 budget exceeded,
4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .fields import Field, FieldError, PrimeField, QQ
from .milne import (Line2, MilneError, enveloping_cone, reducible_member,
                    tritangent_verify, twisted_cubic)
from .oracle import (BudgetExceeded, DEFAULT_BUDGET, OracleError, count_curve,
                     count_double_cover, count_hyperelliptic_octic,
                     enumerate_bitangents, projective_points, smoothness_certificate)
from .poly import PolyError, SymMatrix, proportional
from .prym import (InternalError, PrymError, UnsupportedTower, forward_even,
                   forward_general, pencil_conics, reverse_construct,
                   roundtrip_change_matches)
from .scene import (Scene, SceneError, parse_scene, reduce_scene,
                    scalar_to_json, write_scene)
from .symmetroid import (IRREDUCIBLE_TYPES, X4, Symmetrization, SymmetroidError,
                         SymmetroidType, hankel_symmetroid)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class CliInputError(ValueError):
    pass


def _load_scene(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scene(fh.read())
    except OSError as e:
        raise CliInputError("cannot read scene: %s" % e)


def _parse_monic_quartic(text):
    """Tiny parser for expressions like "t^4 - 2*t^2 + 1" with t monic of
    degree four; returns the four lower coefficients."""
    cleaned = text.replace(" ", "").replace("**", "^").replace("-", "+-")
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    coeffs = {k: Fraction(0) for k in range(5)}
    for chunk in cleaned.split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        head, t, tail = chunk.partition("t")
        if tail and not (tail[0] == "^" and tail[1:].isdecimal()):
            raise CliInputError("term %r: t may only be followed by ^n" % chunk)
        try:
            coef = Fraction((head.rstrip("*") or 1) if t else head)
        except ZeroDivisionError:
            raise CliInputError("coefficient %r has a zero denominator" % chunk)
        power = (int(tail[1:]) if tail else 1) if t else 0
        if power not in coeffs:
            raise CliInputError("exponent %d outside 0..4 in a monic quartic" % power)
        coeffs[power] += sign * coef
    if coeffs[4] != 1:
        raise CliInputError("quartic must be monic of degree four, got leading %s" % coeffs[4])
    return [coeffs[0], coeffs[1], coeffs[2], coeffs[3]]


def cmd_hankel(args):
    coeffs = _parse_monic_quartic(args.poly)
    field = Field.prime(args.p) if args.p else QQ
    a = hankel_symmetroid(field, [field.element(c) for c in coeffs])
    scene = Scene(field, metadata={"source": "hankel", "poly": args.poly})
    scene.add(args.name, a)
    print(write_scene(scene))
    return EXIT_OK


def cmd_classify(args):
    scene = _load_scene(args.scene)
    a = scene.get(args.object, "symmetrization")
    kernel = a.contraction_kernel()
    report = {
        "object": args.object,
        "type": a.classify(),
        "kernel_dimension": len(kernel),
        "annihilation": a.annihilation_holds(),
        "minor_relation": a.double_cover_minors()[3],
    }
    if not kernel:
        scheme = a.rank_one_scheme()
        report["rank_one"] = ("positive-dimensional" if scheme.positive_dimensional
                              else scheme.partition)
    print(json.dumps(report, sort_keys=True, indent=1))
    return EXIT_OK


def cmd_forward(args):
    scene = _load_scene(args.scene)
    a = scene.get(args.A, "symmetrization")
    q = scene.get(args.Q, "quadric")
    out = Scene(scene.field, metadata={"source": "forward", "A": args.A, "Q": args.Q})
    rank = q.rank()
    notes = {}
    if rank == 4:
        fwd = forward_general(a, q)
        out.add("X", fwd.quartic)
        notes["reduced"] = fwd.reduced
        try:
            pen = pencil_conics(a, q)
            if not pen.extended:
                out.add("K", (pen.conics(), pen.quartic))
            else:
                notes["pencil"] = "needs a quadratic extension; omitted from the scene"
        except UnsupportedTower as e:
            notes["pencil"] = str(e)
    elif rank == 3:
        model = forward_even(a, q)
        out.add("Xbar", model.conic)
        out.add("branch", model.branch_quartic)
        notes["branch_reduced"] = model.branch_reduced
        if model.octic is not None:
            out.add("octic", model.octic)
    else:
        raise CliInputError("quadric must have rank 3 or 4")
    out.metadata["notes"] = notes
    print(write_scene(out))
    return EXIT_OK


def cmd_reverse(args):
    scene = _load_scene(args.scene)
    quartic = scene.get(args.X, "quartic")
    conics, pencil_quartic = scene.get(args.pencil, "pencil")
    if not proportional(quartic, pencil_quartic):
        raise CliInputError("pencil data was built for a different quartic")
    rev = reverse_construct(quartic, conics, scene.field)
    out = Scene(scene.field, metadata={"source": "reverse"})
    out.add("A", rev.symmetrization)
    out.add("Q", rev.quadric)
    out.metadata["degenerate"] = rev.kernel_relation is not None
    out.metadata["type"] = rev.symmetrization.classify()
    print(write_scene(out))
    return EXIT_OK


def cmd_milne(args):
    scene = _load_scene(args.scene)
    if args.q or isinstance(scene.field, PrimeField):
        scene, _ = _resolve_count_field(scene, args.q)
    a = scene.get(args.A, "symmetrization")
    q = scene.get(args.Q, "quadric")
    field = scene.field
    lines = []
    if args.line:
        lines.append((args.line, scene.get(args.line, "line")))
    elif args.enumerate:
        if not isinstance(field, PrimeField):
            raise CliInputError("--enumerate needs a prime-field scene")
        for dual in projective_points(field, 2, args.budget):
            lines.append((str(dual), Line2.from_dual(field, dual)))
    else:
        raise CliInputError("pass --line NAME or --enumerate")
    gamma = a.determinant_cubic()
    results = []
    for name, line in lines:
        entry = {"line": name}
        try:
            cone = enveloping_cone(a, line)
        except MilneError as e:
            entry["generic"] = False
            entry["reason"] = str(e)
            results.append(entry)
            continue
        entry["generic"] = True
        member = reducible_member(cone.matrix, q, field)
        if member is None:
            entry["bitangent"] = False
        elif member.kind == "double":
            entry["bitangent"] = False
            entry["non_reduced_member"] = True
        elif member.planes_unrepresentable:
            entry["bitangent"] = True
            entry["planes"] = "beyond one quadratic extension"
        else:
            entry["bitangent"] = True
            certs = [tritangent_verify(q, gamma, h) for h in (member.h1, member.h2)]
            entry["tritangents_verified"] = [c.passed for c in certs]
            tw = twisted_cubic(a, line)
            entry["twisted_cubic_honest"] = tw.honest
        results.append(entry)
    print(json.dumps({"results": results}, sort_keys=True, indent=1, default=str))
    return EXIT_OK


def _resolve_count_field(scene, qarg):
    if isinstance(scene.field, PrimeField):
        if qarg and qarg != scene.field.p:
            raise CliInputError("scene is over F_%d, cannot count over %d" % (scene.field.p, qarg))
        return scene, scene.field
    if not qarg:
        raise CliInputError("--q is required for rational scenes")
    field = Field.prime(qarg)
    return reduce_scene(scene, field), field


def cmd_count(args):
    scene = _load_scene(args.scene)
    scene, field = _resolve_count_field(scene, args.q)
    label = args.curve
    cert = None  # a binary octic chart takes no smoothness certificate
    if "," in label:
        aname, qname = label.split(",", 1)
        a = scene.get(aname, "symmetrization")
        q = scene.get(qname, "quadric")
        eqs = [q.quadratic_form(field, X4), a.determinant_cubic()]
        if args.cover:
            m12, m13, m23, holds = a.double_cover_minors()
            if not holds:
                raise InternalError("minor relation failed; internal error")
            rep = count_double_cover(eqs, [m12, m13, m23], field, label=label,
                                     budget=args.budget)
        else:
            rep = count_curve(eqs, field, 4, label=label, budget=args.budget)
        cert = smoothness_certificate(eqs, field, budget=args.budget)
    else:
        f = scene.get(label, "quartic")
        if len(f.vars) == 2:
            rep = count_hyperelliptic_octic(f, field, label=label, budget=args.budget)
        else:
            # the arithmetic genus of a plane curve of degree d
            genus = (f.degree - 1) * (f.degree - 2) // 2
            rep = count_curve([f], field, genus, label=label, budget=args.budget)
            cert = smoothness_certificate([f], field, budget=args.budget)
    smooth = None if cert is None else cert.passed
    report = {"label": rep.label, "q": rep.q, "count": rep.count, "genus": rep.genus,
              "trace": rep.trace, "weil_ok": rep.weil_ok, "smooth": smooth,
              "singular_witness": [repr(c) for c in cert.witness] if smooth is False else None}
    print(json.dumps(report, sort_keys=True, indent=1))
    # a certified-smooth curve violating the Weil bound is an inconsistency
    return EXIT_VERIFY if smooth and not rep.weil_ok else EXIT_OK


def cmd_bitangents(args):
    scene = _load_scene(args.scene)
    scene, field = _resolve_count_field(scene, args.q)
    f = scene.get(args.object, "quartic")
    cert = smoothness_certificate([f], field, budget=args.budget)
    if not cert.passed:
        raise CliInputError("quartic is singular over F_%d at %r" % (field.p, cert.witness))
    lines = enumerate_bitangents(f, field, budget=args.budget)
    report = {"q": field.p, "count": len(lines),
              "lines": [[scalar_to_json(c) for c in bl.dual] for bl in lines]}
    print(json.dumps(report, sort_keys=True, indent=1))
    return EXIT_OK


def _verify_scene(scene):
    failures = []
    notes = {}
    syms = {n: o for n, o in scene.objects.items() if isinstance(o, Symmetrization)}
    quads = {n: o for n, o in scene.objects.items() if isinstance(o, SymMatrix)}
    for name, obj in scene.objects.items():
        if isinstance(obj, tuple):
            conics, quartic = obj
            prod = conics[0] * conics[3] - conics[1] * conics[2]
            if not prod or not proportional(prod, quartic):
                failures.append("%s: pencil compatibility identity failed" % name)
            else:
                notes[name] = "pencil compatible"
    for name, a in syms.items():
        try:
            tag = a.classify()
            notes[name] = tag
            if tag in IRREDUCIBLE_TYPES + (SymmetroidType.T6,):
                cub = a.adjugate_cubics()
                composed = [g.substitute(cub) for g in a.determinant_cubic().gradient()]
                if not proportional(composed, a.gauss_quadrics()):
                    failures.append("%s: Gauss identity failed" % name)
        except (SymmetroidError, PolyError) as e:
            failures.append("%s: %s" % (name, e))
    pairs = scene.metadata.get("pairs")
    if pairs is None:
        pairs = [[an, qn] for an in syms for qn in quads]
    for an, qn in pairs:
        a = syms.get(an)
        q = quads.get(qn)
        if a is None or q is None:
            failures.append("pair (%s, %s): missing object" % (an, qn))
            continue
        key = "%s|%s" % (an, qn)
        try:
            rank = q.rank()
            if rank == 4:
                fwd = forward_general(a, q)
                try:
                    pen = pencil_conics(a, q)
                except UnsupportedTower as e:
                    notes[key] = {"reduced": fwd.reduced, "pencil": str(e)}
                    continue
                rev = reverse_construct(fwd.quartic.change_field(pen.field), pen.conics(),
                                        pen.field)
                if not roundtrip_change_matches(a, q, pen, rev):
                    failures.append("%s: roundtrip identity failed" % key)
                notes[key] = {"reduced": fwd.reduced, "roundtrip": "ok"}
            elif rank == 3:
                model = forward_even(a, q)
                notes[key] = {"branch_reduced": model.branch_reduced}
        except (PrymError, SymmetroidError) as e:
            failures.append("%s: %s" % (key, e))
    return failures, notes


def cmd_verify(args):
    scene = _load_scene(args.scene)
    failures, notes = _verify_scene(scene)
    print(json.dumps({"failures": failures, "notes": notes},
                     sort_keys=True, indent=1, default=str))
    return EXIT_OK if not failures else EXIT_VERIFY


def build_parser():
    p = argparse.ArgumentParser(prog="prymcubic",
                                description="exact constructions around cubic symmetroids "
                                            "and genus 3/4 curve pairs")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="enumeration budget (points)")
    p.add_argument("--seed", type=int, default=20240,
                   help="unused: verify is deterministic and ignores it; "
                        "kept for callers that pass it")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("classify", help="classify a symmetroid in a scene")
    s.add_argument("scene")
    s.add_argument("--object", required=True)
    s.set_defaults(fn=cmd_classify)

    s = sub.add_parser("hankel", help="catalecticant symmetroid of a monic quartic")
    s.add_argument("--poly", required=True)
    s.add_argument("--p", type=int, default=None, help="prime field (default: rationals)")
    s.add_argument("--name", default="A")
    s.set_defaults(fn=cmd_hankel)

    s = sub.add_parser("forward", help="genus-3 partner of a (symmetroid, quadric) pair")
    s.add_argument("scene")
    s.add_argument("--A", required=True)
    s.add_argument("--Q", required=True)
    s.set_defaults(fn=cmd_forward)

    s = sub.add_parser("reverse", help="rebuild the space pair from quartic + pencil data")
    s.add_argument("scene")
    s.add_argument("--X", required=True)
    s.add_argument("--pencil", required=True)
    s.set_defaults(fn=cmd_reverse)

    s = sub.add_parser("milne-tritangents", help="bitangents to tritangent pairs")
    s.add_argument("scene")
    s.add_argument("--A", required=True)
    s.add_argument("--Q", required=True)
    s.add_argument("--line")
    s.add_argument("--enumerate", action="store_true")
    s.add_argument("--q", type=int, default=None,
                   help="reduce a rational scene modulo this prime first")
    s.set_defaults(fn=cmd_milne)

    s = sub.add_parser("count", help="point count, Frobenius trace and rational-point smoothness")
    s.add_argument("scene")
    s.add_argument("--curve", required=True,
                   help="quartic object name, or 'A,Q' for the space curve")
    s.add_argument("--q", type=int, default=None)
    s.add_argument("--cover", action="store_true",
                   help="count the minor double cover instead")
    s.set_defaults(fn=cmd_count)

    s = sub.add_parser("bitangents", help="exhaustive bitangent enumeration")
    s.add_argument("scene")
    s.add_argument("--object", required=True)
    s.add_argument("--q", type=int, default=None)
    s.set_defaults(fn=cmd_bitangents)

    s = sub.add_parser("verify", help="run the invariant suite on a scene")
    s.add_argument("scene")
    s.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExceeded as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_INTERNAL
    except (CliInputError, SceneError, FieldError, PolyError, SymmetroidError,
            PrymError, MilneError, OracleError, ValueError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
