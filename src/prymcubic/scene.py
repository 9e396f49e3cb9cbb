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
        return Field.prime(p)
    if t == "QuadExt":
        base = field_from_json(obj["base"])
        return base.quadratic_extension(scalar_from_json(obj["d"], base))
    raise SceneError("unknown field type %r" % (t,))


def scalar_to_json(el):
    f = el.field
    if isinstance(f, QuadExtField):
        return [scalar_to_json(FieldElement(f.base, v)) for v in f._parts(el.val)]
    return str(el.val)  # "num" for an int, "num/den" for a Fraction


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


def _terms_to_json(f):
    return [{"c": scalar_to_json(f.terms[e]), "e": list(e)}
            for e in sorted(f.terms, reverse=True)]


def _form_from_terms(field, vars, degree, terms):
    return HomogPoly(field, vars, degree,
                     {tuple(t["e"]): scalar_from_json(t["c"], field) for t in terms})


def _square_rows(data, n):
    rows = data["matrix"]
    if [len(row) for row in rows] != [n] * n:
        raise SceneError("matrix must be %d x %d" % (n, n))
    return rows


def poly_to_json(f):
    return {"vars": list(f.vars), "deg": f.degree, "terms": _terms_to_json(f)}


def poly_from_json(data, field):
    return _form_from_terms(field, tuple(data["vars"]), data["deg"], data["terms"])


def _symmetrization_to_json(a):
    return {"matrix": [[_terms_to_json(f) for f in row] for row in a.matrix.rows()],
            "vars": list(a.xvars)}


def _symmetrization_from_json(data, field):
    vars = tuple(data.get("vars", X4))
    rows = [[_form_from_terms(field, vars, 1, terms) for terms in row]
            for row in _square_rows(data, 3)]
    return Symmetrization(field, SymMatrix.from_rows(rows), xvars=vars)


def _quadric_to_json(q):
    return {"matrix": [[scalar_to_json(c) for c in row] for row in q.rows()]}


def _quadric_from_json(data, field):
    return SymMatrix.from_rows([[scalar_from_json(c, field) for c in row]
                                for row in _square_rows(data, 4)])


def _quartic_to_json(f):
    return {"poly": poly_to_json(f)}


def _quartic_from_json(data, field):
    return poly_from_json(data["poly"], field)


def _pencil_to_json(pencil):
    conics, quartic = pencil
    return {"conics": [poly_to_json(c) for c in conics], "quartic": poly_to_json(quartic)}


def _pencil_from_json(data, field):
    if len(data["conics"]) != 4:
        raise SceneError("a pencil needs four conics, not %d" % len(data["conics"]))
    return (tuple(poly_from_json(c, field) for c in data["conics"]),
            poly_from_json(data["quartic"], field))


def _line_to_json(line):
    return {"points": [[scalar_to_json(c) for c in p] for p in (line.p0, line.p1)]}


def _line_from_json(data, field):
    pts = data["points"]
    return Line2(field, [scalar_from_json(c, field) for c in pts[0]],
                 [scalar_from_json(c, field) for c in pts[1]])


# kind -> (class, writer, reader), the one list of what a scene holds.  A
# writer returns an object's JSON without its "kind"; a reader takes that JSON
# and the scene's field.
_KINDS = {
    "symmetrization": (Symmetrization, _symmetrization_to_json, _symmetrization_from_json),
    "quadric": (SymMatrix, _quadric_to_json, _quadric_from_json),
    "quartic": (HomogPoly, _quartic_to_json, _quartic_from_json),
    "line": (Line2, _line_to_json, _line_from_json),
    "pencil": (tuple, _pencil_to_json, _pencil_from_json),
}


class Scene:
    def __init__(self, field, objects=None, metadata=None):
        self.field = field
        self.objects = objects or {}
        self.metadata = metadata or {}

    def add(self, name, obj):
        """Keep obj under name.  An object over the base field of a scene
        over a quadratic extension is lifted into the extension, written
        and read back as `reduce_scene` does, so that the scene round-trips
        byte-identically; an object over any other field is refused."""
        field, kind = self.field, _kind_of(obj)
        fields = _fields_of(obj)
        if fields != {field}:
            base = field.base if isinstance(field, QuadExtField) else field
            if not fields <= {field, base}:
                raise SceneError("object %r lives over %s, not over the scene's field %r"
                                 % (name, ", ".join(sorted(map(repr, fields))), field))
            _, write, read = _KINDS[kind]
            obj = read(write(obj), field)
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


def _fields_of(obj):
    """The fields of an object's scalars: the fields of a quadric's entries,
    of the forms a pencil holds, or else the object's own field."""
    if isinstance(obj, SymMatrix):
        return {c.field for c in obj.upper.values()}
    if isinstance(obj, (tuple, list)):
        return set().union(*map(_fields_of, obj))
    return {obj.field}


def _kind_of(obj):
    for kind, (cls, _, _) in _KINDS.items():
        if isinstance(obj, cls):
            return kind
    raise SceneError("unserializable object %r" % (obj,))


_escape = json.encoder.encode_basestring_ascii


class _NotPlain(Exception):
    """A value `_write` leaves to `json.dumps`."""


def _write(value, pad, out):
    """Append the chunks of value to out; pad is a newline and one space
    per level of nesting."""
    t = type(value)
    if t is str:
        out.append(_escape(value))
    elif t is int:
        out.append(int.__repr__(value))
    elif t is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + " "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(value):
            if type(key) is not str:
                raise _NotPlain
            out += (sep, _escape(key), ": ")
            _write(value[key], inner, out)
            sep = comma
        out += (pad, "}")
    elif t is list or t is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + " "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = comma
        out += (pad, "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        raise _NotPlain


def dumps(doc):
    """`json.dumps(doc, sort_keys=True, indent=1)`, byte for byte: the one
    writer of scenes and CLI reports.  With an indent CPython runs its
    pure-Python encoder; this writes dicts with str keys, lists, tuples,
    strs, ints, bools and None itself, through the C string escaper, and
    hands any other document (a float, a non-str key, a subclass of str or
    int) to `json.dumps` whole."""
    out = []
    try:
        _write(doc, "\n", out)
    except _NotPlain:
        return json.dumps(doc, sort_keys=True, indent=1)
    return "".join(out)


def write_scene(scene):
    objs = {}
    for name, obj in scene.objects.items():
        kind = _kind_of(obj)
        objs[name] = dict(_KINDS[kind][1](obj), kind=kind)
    doc = {"field": field_to_json(scene.field), "objects": objs,
           "metadata": scene.metadata}
    return dumps(doc)


def _checked_metadata(metadata):
    """The scene's metadata: an object whose "pairs", when present, is a
    list of [symmetrization, quadric] name pairs."""
    if not isinstance(metadata, dict):
        raise SceneError("scene metadata must be an object, not %r" % (metadata,))
    pairs = metadata.get("pairs", [])
    if not (isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2 and all(isinstance(n, str) for n in pair)
            for pair in pairs)):
        raise SceneError("metadata \"pairs\" must be a list of [symmetrization, quadric] "
                         "name pairs, not %r" % (pairs,))
    return metadata


def parse_scene(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SceneError("invalid JSON: %s" % e)
    try:
        field = field_from_json(doc.get("field", {}))
        scene = Scene(field, metadata=_checked_metadata(doc.get("metadata", {})))
        for name, data in doc.get("objects", {}).items():
            entry = _KINDS.get(data.get("kind"))
            if entry is None:
                raise SceneError("unknown object kind %r" % (data.get("kind"),))
            scene.add(name, entry[2](data, field))
    except (KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError,
            FieldError, PolyError) as e:
        raise SceneError("malformed scene: %s: %s" % (type(e).__name__, e))
    return scene


def reduce_scene(scene, field):
    """Map every object of a scene over Q into `field`: each object is
    written and read back over `field`, which reduces the "num/den" scalars
    exactly as `FieldElement.change_field` does."""
    if scene.field != QQ:
        raise SceneError("only a scene over Q is reduced, not one over %r" % (scene.field,))
    out = Scene(field, metadata=dict(scene.metadata))
    for name, obj in scene.objects.items():
        _, write, read = _KINDS[_kind_of(obj)]
        out.add(name, read(write(obj), field))
    return out
