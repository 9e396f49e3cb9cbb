"""Outside-in tracer for the prymcubic layers.

`Tracer.install()` replaces, from outside the package, every public function
of each layer module and a few named methods by wrappers that record a span
(name, start, end, parent span, job id), and counts `FieldElement`
arithmetic without spans.  Each replaced function is patched in every
`prymcubic` namespace that binds it, since `from .x import f` makes a second
binding that a patch of `x` alone would miss.  `uninstall()` puts every
original back.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = ("fields", "poly", "linalg", "binforms", "elim", "quadrics", "symmetroid",
          "prym", "milne", "oracle", "scene", "cli")

# Methods traced with spans besides every public module-level function:
# (class, attribute, span name).  `__rmul__` is an alias of `__mul__`.
METHODS = {
    "fields": (("Field", "sqrt", "fields.sqrt"),),
    "poly": (("HomogPoly", "__mul__", "poly.mul"), ("HomogPoly", "__rmul__", "poly.mul"),
             ("HomogPoly", "substitute", "poly.substitute"),
             ("HomogPoly", "evaluate", "poly.evaluate"),
             ("HomogPoly", "restrict_to_line", "poly.restrict_to_line")),
    "symmetroid": tuple(("Symmetrization", m, "symmetroid." + m) for m in (
        "classify", "rank_one_scheme", "adjugate_cubics", "double_cover_minors")),
}

# FieldElement arithmetic, counted as `fields.ops` without spans: a span per
# scalar operation would cost more than the operation.
FIELD_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")

# Per-layer metrics reported by a traced run.  `X.calls`/`X.self_s` exist for
# each span name listed here; the layer totals `L.self_s` sum every span of
# the layer, named here or not.
SPANS = (
    "fields.sqrt",
    "poly.mul", "poly.substitute", "poly.evaluate", "poly.restrict_to_line",
    "poly.det_and_adjugate",
    "linalg.rref", "linalg.kernel_basis", "linalg.solve", "linalg.det",
    "binforms.squarefree_decomposition", "binforms.resultant",
    "binforms.perfect_square_root",
    "elim.resultant3_quadrics", "elim.plane_cubic_is_smooth",
    "quadrics.congruence_diagonalize", "quadrics.factor_rank_le2",
    "symmetroid.classify", "symmetroid.rank_one_scheme", "symmetroid.adjugate_cubics",
    "symmetroid.double_cover_minors",
    "prym.forward_general", "prym.forward_even", "prym.pencil_conics",
    "prym.reverse_construct", "prym.roundtrip_change_matches",
    "milne.enveloping_cone", "milne.reducible_member", "milne.tritangent_verify",
    "milne.twisted_cubic",
    "oracle.count_curve", "oracle.count_double_cover", "oracle.count_hyperelliptic_octic",
    "oracle.smoothness_certificate", "oracle.enumerate_bitangents",
    "scene.write_scene", "scene.parse_scene",
    "cli.main",
)
LAYER_TOTALS = ("poly", "linalg", "binforms", "symmetroid")

# Ratios of useful outcomes to calls: metric name -> (span, predicate on the
# span's result).
RATIOS = {
    "binforms.perfect_square_root.hit_ratio":
        ("binforms.perfect_square_root", lambda result: result is not None),
    "milne.reducible_member.hit_ratio":
        ("milne.reducible_member", lambda result: result is not None),
    "prym.pencil_conics.extended_ratio":
        ("prym.pencil_conics", lambda result: bool(result.extended)),
}


def metric_names():
    """Every per-layer metric a traced run reports, in report order."""
    names = ["fields.ops"]
    for span in SPANS:
        names += [span + ".calls", span + ".self_s"]
    names += [layer + ".self_s" for layer in LAYER_TOTALS]
    names += list(RATIOS)
    names += ["oracle.refusals", "scene.bytes", "fields.ops_per_s",
              "trace.overhead", "trace.self_share"]
    return names


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap; their durations sum to the part of the parent they cover."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.errors = {}          # span index -> exception class name
        self.hits = Counter()     # ratio metric -> useful outcomes
        self.ops = [0]            # FieldElement arithmetic calls
        self.scene_bytes = 0
        self.job_id = -1
        self.job_ops = Counter()  # job id -> FieldElement arithmetic calls
        self._ops_mark = 0
        self._stack = []
        self._patches = []

    def start_job(self, job_id):
        """Charge the FieldElement ops since the last switch to the job that
        ran, and tag later spans with `job_id` (-1: between jobs)."""
        self.job_ops[self.job_id] += self.ops[0] - self._ops_mark
        self._ops_mark = self.ops[0]
        self.job_id = job_id

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name, fn):
        nid = self._name_id(name)
        start, end, names, parents, jobs = self.start, self.end, self.name, self.parent, self.job
        stack, errors, clock = self._stack, self.errors, time.perf_counter
        observe = self._observer(name)

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                errors[i] = type(e).__name__
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _observer(self, name):
        """What a span of `name` records besides its time, or None."""
        if name == "scene.write_scene":
            return lambda args, text: self._add_bytes(text)
        if name == "scene.parse_scene":
            return lambda args, result: self._add_bytes(args[0])
        for metric, (span, useful) in RATIOS.items():
            if span == name:
                def count_hit(args, result):
                    if useful(result):
                        self.hits[metric] += 1
                return count_hit
        return None

    def _add_bytes(self, text):
        self.scene_bytes += len(text.encode("utf-8"))

    def _counted(self, fn):
        ops = self.ops

        def wrapper(*args):
            ops[0] += 1
            return fn(*args)

        return functools.wraps(fn)(wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall -----------------------------------------------------

    def install(self):
        """Patch every layer; a second install without uninstall is refused."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules["prymcubic." + layer] for layer in LAYERS}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "prymcubic" or n.startswith("prymcubic.")]
        for layer, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._spanned("%s.%s" % (layer, attr), fn)
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, bound, wrapper)
            for cls_name, attr, span in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                self._patch(cls, attr, self._spanned(span, cls.__dict__[attr]))
        element = modules["fields"].FieldElement
        for attr in FIELD_OPS:
            self._patch(element, attr, self._counted(element.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_table(self):
        """{span name: [calls, self seconds, errors]} over every span."""
        table = {}
        selfs = self_times(self.start, self.end, self.parent)
        for i, nid in enumerate(self.name):
            row = table.setdefault(self.names[nid], [0, 0.0, 0])
            row[0] += 1
            row[1] += selfs[i]
            row[2] += i in self.errors
        return table

    def by_job(self):
        """{job id: {layer: self seconds}} over every span."""
        out = {}
        selfs = self_times(self.start, self.end, self.parent)
        for i, nid in enumerate(self.name):
            layer = self.names[nid].split(".", 1)[0]
            per = out.setdefault(self.job[i], Counter())
            per[layer] += selfs[i]
        return out

    def _outermost(self, prefix):
        """Spans named `prefix`... whose parent is not, so that an error
        passing through nested calls of one layer counts once."""
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if (self.names[nid].startswith(prefix)
                    and (p < 0 or not self.names[self.name[p]].startswith(prefix))):
                yield i

    def metrics(self, rounds, wall, untraced_jobs_per_s, traced_jobs_per_s):
        """Per-layer metrics, counts and times per round of the workload."""
        table = self.layer_table()
        out = {"fields.ops": self.ops[0] / rounds}
        for span in SPANS:
            calls, self_s, _ = table.get(span, (0, 0.0, 0))
            out[span + ".calls"] = calls / rounds
            out[span + ".self_s"] = self_s / rounds
        for layer in LAYER_TOTALS:
            out[layer + ".self_s"] = sum(row[1] for name, row in table.items()
                                         if name.startswith(layer + ".")) / rounds
        for metric, (span, _) in RATIOS.items():
            calls = table.get(span, (0,))[0]
            out[metric] = self.hits[metric] / calls if calls else 0.0
        out["oracle.refusals"] = sum(
            1 for i in self._outermost("oracle.")
            if self.errors.get(i) == "OracleError") / rounds
        out["scene.bytes"] = self.scene_bytes / rounds
        out["fields.ops_per_s"] = self.ops[0] / wall
        out["trace.overhead"] = untraced_jobs_per_s / traced_jobs_per_s
        out["trace.self_share"] = sum(row[1] for row in table.values()) / wall
        return out

    def write_spans(self, path, job_labels):
        """Every span, gzipped text: a JSON header with the span names and job
        labels, then one line per span "name parent job start end error",
        where name, parent and job are indices and -1 means none."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "job_labels": job_labels,
                                 "columns": ["name", "parent", "job", "start", "end",
                                             "error"]}) + "\n")
            for lo in range(0, len(self.start), 10000):
                fh.write("".join(
                    "%d %d %d %.9f %.9f %s\n" % (self.name[i], self.parent[i], self.job[i],
                                                 self.start[i], self.end[i],
                                                 self.errors.get(i, "-"))
                    for i in range(lo, min(lo + 10000, len(self.start)))))
