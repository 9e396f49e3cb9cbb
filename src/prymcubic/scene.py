"""Scene files: a single JSON document holding one field and a bag of named
objects (symmetrizations, quadrics, quartics, pencil data, lines).

All scalars are strings (exact rationals as "num/den", residues as decimal
strings, extension elements as two-element arrays), keys are sorted and term
lists are emitted in descending exponent order, so parse -> write -> parse is
the identity on the byte level.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .fields import Field, FieldElement, FieldError, PrimeField, QuadExtField, QQ, RationalField
from .poly import HomogPoly, PolyError, SymMatrix
from .symmetroid import X4, Symmetrization
from .milne import Line2


class SceneError(ValueError):
    pass


def field_to_json(field):
    """The field's "type" tag and parameters: the one place a field class
    is mapped to its file-format tag."""
    if isinstance(field, RationalField):
        return {"type": "Q"}
    if isinstance(field, PrimeField):
        return {"type": "Fp", "p": field.p}
    return {"type": "QuadExt", "base": field_to_json(field.base),
            "d": scalar_to_json(field.base.element(field.d))}


def field_from_json(obj):
    t = obj.get("type")
    if t == "Q":
        return QQ
    if t == "Fp":
        p = obj.get("p")
        if p == 2:
            raise SceneError("characteristic two unsupported")
        try:
            return Field.prime(p)
        except FieldError as e:
            raise SceneError(str(e))
    if t == "QuadExt":
        base = field_from_json(obj["base"])
        try:
            return base.quadratic_extension(scalar_from_json(obj["d"], base))
        except FieldError as e:
            raise SceneError(str(e))
    raise SceneError("unknown field type %r" % (t,))


def scalar_to_json(el):
    f = el.field
    if isinstance(f, QuadExtField):
        return [scalar_to_json(FieldElement(f.base, v)) for v in el.val]
    return str(el.val)  # "num/den" or "num" for a Fraction


def scalar_from_json(data, field):
    if isinstance(data, list):
        if not isinstance(field, QuadExtField) or len(data) != 2:
            raise SceneError("extension scalar %r in a base field" % (data,))
        return field.ext_element(scalar_from_json(data[0], field.base),
                                 scalar_from_json(data[1], field.base))
    if not isinstance(data, str):
        raise SceneError("scalars must be strings, got %r" % (data,))
    if isinstance(field, QuadExtField):
        return field.element(scalar_from_json(data, field.base))
    if "/" in data:
        num, den = data.split("/", 1)
        return field.element(Fraction(int(num), int(den)))
    return field.element(int(data))


def poly_to_json(f):
    return {
        "vars": list(f.vars),
        "deg": f.degree,
        "terms": [{"c": scalar_to_json(f.terms[e]), "e": list(e)}
                  for e in sorted(f.terms, reverse=True)],
    }


def poly_from_json(data, field):
    try:
        terms = {tuple(t["e"]): scalar_from_json(t["c"], field) for t in data["terms"]}
        return HomogPoly(field, tuple(data["vars"]), data["deg"], terms)
    except (KeyError, TypeError, PolyError) as e:
        raise SceneError("bad polynomial: %s" % e)


def _linear_terms_to_json(f):
    return [{"c": scalar_to_json(f.terms[e]), "e": list(e)}
            for e in sorted(f.terms, reverse=True)]


def symmetrization_to_json(a):
    rows = []
    for i in range(3):
        rows.append([_linear_terms_to_json(a.matrix.at(i, j)) for j in range(3)])
    return {"kind": "symmetrization", "matrix": rows, "vars": list(a.xvars)}


def symmetrization_from_json(data, field):
    vars = tuple(data.get("vars", X4))
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            terms = {tuple(t["e"]): scalar_from_json(t["c"], field)
                     for t in data["matrix"][i][j]}
            row.append(HomogPoly(field, vars, 1, terms))
        rows.append(row)
    try:
        return Symmetrization(field, SymMatrix.from_rows(rows), xvars=vars)
    except PolyError as e:
        raise SceneError(str(e))


def quadric_to_json(q):
    rows = q.rows()
    return {"kind": "quadric",
            "matrix": [[scalar_to_json(rows[i][j]) for j in range(4)] for i in range(4)]}


def quadric_from_json(data, field):
    rows = [[scalar_from_json(c, field) for c in row] for row in data["matrix"]]
    try:
        return SymMatrix.from_rows(rows)
    except PolyError as e:
        raise SceneError(str(e))


def quartic_to_json(f):
    return {"kind": "quartic", "poly": poly_to_json(f)}


def pencil_to_json(conics, quartic):
    return {"kind": "pencil",
            "conics": [poly_to_json(c) for c in conics],
            "quartic": poly_to_json(quartic)}


def line_to_json(line):
    return {"kind": "line",
            "points": [[scalar_to_json(c) for c in line.p0],
                       [scalar_to_json(c) for c in line.p1]]}


class Scene:
    def __init__(self, field, objects=None, metadata=None):
        self.field = field
        self.objects = objects or {}
        self.metadata = metadata or {}

    def add(self, name, obj):
        self.objects[name] = obj
        return self

    def get(self, name, kind=None):
        if name not in self.objects:
            raise SceneError("no object named %r in the scene" % name)
        obj = self.objects[name]
        if kind is not None and _kind_of(obj) != kind:
            raise SceneError("object %r has kind %s, wanted %s"
                             % (name, _kind_of(obj), kind))
        return obj


def _kind_of(obj):
    if isinstance(obj, Symmetrization):
        return "symmetrization"
    if isinstance(obj, SymMatrix):
        return "quadric"
    if isinstance(obj, HomogPoly):
        return "quartic"
    if isinstance(obj, Line2):
        return "line"
    if isinstance(obj, tuple):
        return "pencil"
    raise SceneError("unserializable object %r" % (obj,))


def write_scene(scene):
    objs = {}
    for name, obj in scene.objects.items():
        kind = _kind_of(obj)
        if kind == "symmetrization":
            objs[name] = symmetrization_to_json(obj)
        elif kind == "quadric":
            objs[name] = quadric_to_json(obj)
        elif kind == "quartic":
            objs[name] = quartic_to_json(obj)
        elif kind == "line":
            objs[name] = line_to_json(obj)
        else:
            conics, quartic = obj
            objs[name] = pencil_to_json(conics, quartic)
    doc = {"field": field_to_json(scene.field), "objects": objs,
           "metadata": scene.metadata}
    return json.dumps(doc, sort_keys=True, indent=1)


def parse_scene(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError("invalid JSON: %s" % e)
    field = field_from_json(doc.get("field", {}))
    scene = Scene(field, metadata=doc.get("metadata", {}))
    for name, data in doc.get("objects", {}).items():
        kind = data.get("kind")
        if kind == "symmetrization":
            scene.add(name, symmetrization_from_json(data, field))
        elif kind == "quadric":
            scene.add(name, quadric_from_json(data, field))
        elif kind == "quartic":
            scene.add(name, poly_from_json(data["poly"], field))
        elif kind == "line":
            pts = data["points"]
            scene.add(name, Line2(field, [scalar_from_json(c, field) for c in pts[0]],
                                  [scalar_from_json(c, field) for c in pts[1]]))
        elif kind == "pencil":
            conics = tuple(poly_from_json(c, field) for c in data["conics"])
            quartic = poly_from_json(data["quartic"], field)
            scene.add(name, (conics, quartic))
        else:
            raise SceneError("unknown object kind %r" % (kind,))
    return scene


def reduce_scene(scene, field):
    """Map every object of a rational scene into a finite field."""
    out = Scene(field, metadata=dict(scene.metadata))
    for name, obj in scene.objects.items():
        kind = _kind_of(obj)
        if kind == "symmetrization":
            out.add(name, obj.change_field(field))
        elif kind == "quadric":
            out.add(name, obj.map(lambda v: v.change_field(field)))
        elif kind == "quartic":
            out.add(name, obj.change_field(field))
        elif kind == "line":
            out.add(name, Line2(field, [c.change_field(field) for c in obj.p0],
                                [c.change_field(field) for c in obj.p1]))
        else:
            conics, quartic = obj
            out.add(name, (tuple(c.change_field(field) for c in conics),
                           quartic.change_field(field)))
    return out

