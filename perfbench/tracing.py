"""Span recorder that wraps realbloch's layer functions from the outside.

Nothing in ``src/`` knows about it: `Tracer.install` replaces each layer
function in the namespace where ``realbloch.cli`` and ``realbloch.classify``
import it, and `Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, op)``.  Hamiltonian and symmetry
evaluations run tens of thousands of times per op, so they are not spans:
their calls and time are summed per enclosing span instead.  Self time of a
span is its duration minus the time covered by its child spans and by the
evaluations made directly inside it.
"""

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, layer): each function is wrapped where it is looked up
# at call time.  Helpers imported inside a function body (``_j_consistency``
# in the CLI) are looked up on their defining module.
LAYER_FUNCTIONS = [
    ("realbloch.cli", "classify_real_bundle", "classify"),
    ("realbloch.cli", "build_circle", "lattice.build"),
    ("realbloch.cli", "build_sphere2", "lattice.build"),
    ("realbloch.cli", "build_torus2", "lattice.build"),
    ("realbloch.cli", "_build_model", "models.build"),
    ("realbloch.cli", "oscillator_reference_section", "models.build"),
    ("realbloch.cli", "_oscillator_oracle", "models.oracle"),
    ("realbloch.cli", "eigensolve_family", "spectral.eigensolve"),
    ("realbloch.cli", "select_projection", "spectral.select"),
    ("realbloch.cli", "gap_margin", "spectral.select"),
    ("realbloch.cli", "frame_from_projection", "spectral.frame"),
    ("realbloch.cli", "smooth_frame_gauge", "spectral.gauge"),
    ("realbloch.cli", "verify_hamiltonian_symmetry", "symmetry.check"),
    ("realbloch.cli", "verify_projection_symmetry", "symmetry.check"),
    ("realbloch.cli", "sewing_matrix", "symmetry.sewing"),
    ("realbloch.cli", "link_field", "berry.link_field"),
    ("realbloch.cli", "link_field_from_connection", "berry.link_field"),
    ("realbloch.cli", "equivariance_residual", "berry.equivariance"),
    ("realbloch.cli", "local_connection_from_links", "berry.log"),
    ("realbloch.cli", "plaquette_curvature", "curvature.flux"),
    ("realbloch.cli", "chern_number", "curvature.chern"),
    ("realbloch.cli", "fixed_loop_holonomies", "holonomy.fixed_loops"),
    ("realbloch.cli", "flat_moduli_holonomy", "holonomy.moduli"),
    ("realbloch.cli", "_write_curvature_csv", "report.csv"),
    ("realbloch.cli", "_write_connection_csv", "report.csv"),
    ("realbloch.classify", "eigensolve_family", "spectral.eigensolve"),
    ("realbloch.classify", "verify_hamiltonian_symmetry", "symmetry.check"),
    ("realbloch.classify", "gap_margin", "spectral.select"),
    ("realbloch.classify", "select_projection", "spectral.select"),
    ("realbloch.classify", "verify_projection_symmetry", "symmetry.check"),
    ("realbloch.classify", "frame_from_projection", "spectral.frame"),
    ("realbloch.classify", "link_field", "berry.link_field"),
    ("realbloch.classify", "sewing_matrix", "symmetry.sewing"),
    ("realbloch.classify", "link_field_from_connection", "berry.link_field"),
    ("realbloch.classify", "equivariance_residual", "berry.equivariance"),
    ("realbloch.classify", "chern_number", "curvature.chern"),
    ("realbloch.classify", "plaquette_curvature", "curvature.flux"),
    ("realbloch.classify", "fixed_loop_holonomies", "holonomy.fixed_loops"),
    ("realbloch.classify", "_j_consistency", "symmetry.check"),
]

# aggregated per-call evaluators: (module, class, counter name)
EVALUATORS = [
    ("realbloch.spectral", "HamiltonianFamily", "models.h"),
    ("realbloch.symmetry", "SymmetryData", "models.j"),
]


def _projector_bytes(result):
    return {"spectral.projector_bytes": result.projectors.nbytes}


# per-layer byte counters read off a wrapped function's result
RESULT_BYTES = {"select_projection": _projector_bytes}


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.evals = defaultdict(lambda: [0, 0.0])  # (span, kind) -> [calls, s]
        self.counters = defaultdict(int)  # (op, name) -> value
        self._stack = []
        self._saved = []
        self.op = None

    # -- recording ----------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def span(self, name, fn):
        """Call ``fn()`` inside a span called ``name`` and return its value."""
        self.begin(name)
        try:
            return fn()
        finally:
            self.end()

    def add(self, name, value):
        self.counters[(self.op, name)] += value

    def _wrap(self, name, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end()
            if measure is not None:
                for key, value in measure(out).items():
                    tracer.add(key, value)
            return out

        return wrapper

    def _wrap_eval(self, kind, call):
        tracer = self

        @functools.wraps(call)
        def wrapper(obj, coords):
            t0 = time.perf_counter()
            try:
                return call(obj, coords)
            finally:
                acc = tracer.evals[(tracer._stack[-1] if tracer._stack else None, kind)]
                acc[0] += 1
                acc[1] += time.perf_counter() - t0

        return wrapper

    # -- patching -----------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, layer in LAYER_FUNCTIONS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(layer, fn, RESULT_BYTES.get(attr)))
        for module, cls_name, kind in EVALUATORS:
            cls = getattr(importlib.import_module(module), cls_name)
            call = cls.__dict__["__call__"]
            self._saved.append((cls, "__call__", call))
            setattr(cls, "__call__", self._wrap_eval(kind, call))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------

    def self_times(self):
        """Self time of every span, by span index."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for (span, _kind), (_calls, secs) in self.evals.items():
            if span is not None:
                covered[span] += secs
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def op_summary(self, op, root_name):
        """Per-layer totals for one op.

        Returns, per layer name, ``<layer>_s`` (summed self time) and
        ``<layer>_calls``; the evaluation totals ``models.h_evals``,
        ``models.j_evals`` and ``models.eval_s``; the op's counters; and, for
        the op's top-level span called ``root_name``, its duration
        ``root_s``, its self time ``root_self_s`` and ``covered_s``, the
        self time of everything below it.
        """
        selfs = self.self_times()
        out = defaultdict(int)
        in_op = [i for i, s in enumerate(self.spans) if s[4] == op]
        root = next(i for i in in_op
                    if self.spans[i][0] == root_name and self.spans[i][3] is None)
        under_root = {root}
        for i in in_op:  # parents precede children
            if self.spans[i][3] in under_root:
                under_root.add(i)
        for i in in_op:
            name = self.spans[i][0]
            out[f"{name}_s"] += selfs[i]
            out[f"{name}_calls"] += 1
        covered = sum(selfs[i] for i in under_root if i != root)
        for (span, kind), (calls, secs) in self.evals.items():
            if span is None or self.spans[span][4] != op:
                continue
            out[f"{kind}_evals"] += calls
            out["models.eval_s"] += secs
            if span in under_root:
                covered += secs
        for (counter_op, name), value in self.counters.items():
            if counter_op == op:
                out[name] += value
        out["root_s"] = self.spans[root][2] - self.spans[root][1]
        out["root_self_s"] = selfs[root]
        out["covered_s"] = covered
        return dict(out)

    def dump(self, path, extra=None):
        """Write every span and evaluation aggregate as one JSON document."""
        selfs = self.self_times()
        doc = {
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p, "op": o, "self_s": s}
                for (n, a, b, p, o), s in zip(self.spans, selfs)
            ],
            "evals": [
                {"span": span, "kind": kind, "calls": calls, "seconds": secs}
                for (span, kind), (calls, secs) in self.evals.items()
            ],
            "counters": [
                {"op": op, "name": name, "value": value}
                for (op, name), value in self.counters.items()
            ],
        }
        doc.update(extra or {})
        path.write_text(json.dumps(doc) + "\n")
