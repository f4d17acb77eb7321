"""Layer spans for traced runs, recorded from the benchmark's side only.

The tracer wraps each layer's public functions (and, for ``cli``, its
helpers), patching every ``idealiser`` namespace that holds them, so calls
made through ``from .x import f`` are seen too.  Each wrapped call records a
span: name, start, end, parent span and the analysis it belongs to.  Spans
stay in flat arrays until the run ends; a layer's self time is the duration
of its spans minus the time their child spans cover.

Low-level helpers that run millions of times per analysis (monomial
arithmetic, ``Poly.leading``, ``Fraction`` work) are deliberately not
wrapped: their time lands in the calling layer's self time.  ``cli.main``
and the ``_cmd_*`` bodies are not wrapped either, so their glue, and any
call into a function this table misses, shows as ``unattributed_s``.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# layer -> module -> public names ("Class.method" for methods); parser is
# part of poly, linalg part of action
LAYERS = {
    "noether": {
        "idealiser.noether": [
            "tor1", "tor1_is_zero", "s_set_box", "t_set_box", "critical_density_decide",
            "growth_probe", "decide_right", "decide_left", "decide", "left_witness_ideal",
            "integer_zeros_in_box",
        ],
    },
    "action": {
        "idealiser.action": [
            "apply_action", "act_on_ideal", "act_on_point", "stabiliser", "complement",
            "effective_directions", "TranslationAction.translation", "Lattice.__init__",
            "Lattice.coords", "Lattice.points_in_box",
        ],
        "idealiser.linalg": ["rref", "nullspace", "solve", "mat_vec", "mat_mul", "fraction_inverse"],
    },
    "normalforms": {
        "idealiser.normalforms": [
            "column_hermite", "kernel_basis", "smith_normal_form", "hermite_smith",
        ],
    },
    "groebner": {
        "idealiser.groebner": [
            "normal_form", "s_polynomial", "buchberger", "reduced_groebner_basis",
            "exact_divide", "ideal_sum", "ideal_product", "ideal_intersect", "ideal_quotient",
            "ideal_equal", "ideal_contains", "dimension_probe", "is_maximal_effective",
            "rational_point_of", "Ideal.groebner_basis", "Ideal.normal_form",
            "Ideal.contains_poly", "Ideal.is_zero_ideal", "Ideal.is_unit_ideal",
            "Ideal.is_principal",
        ],
    },
    "poly": {
        "idealiser.poly": [
            "directional_derivative", "PolyRing.parse", "Poly.__add__", "Poly.__sub__",
            "Poly.__neg__", "Poly.__mul__", "Poly.__pow__", "Poly.partial", "Poly.eval_at",
            "Poly.translate",
        ],
        "idealiser.parser": ["parse_poly"],
    },
    "diophantine": {
        "idealiser.diophantine": [
            "pell_fundamental", "pell_enumerate", "lattice_points_box", "classify_plane_curve",
            "line_data",
        ],
    },
    "skew": {
        "idealiser.skew": [
            "parse_skew", "idealiser_component", "quotient_table", "idealiser_membership",
            "right_ideal_truncation", "presentation_R_mod_IB", "SkewElement.__mul__",
        ],
    },
}
LAYER_NAMES = ("cli",) + tuple(LAYERS)
ROOT = "bench:analysis"


def _box(radius: int, dim: int) -> int:
    return (2 * int(radius) + 1) ** dim


def _box_candidates(name, args):
    """Candidate points of a noether box loop, from the call's box arguments:
    the volume of the sup-norm box, in group coordinates (d) or, for a point
    window, in the ring's coordinates (n)."""
    if name == "growth_probe":
        return _box(max(args[4]), args[2].d)
    if name == "integer_zeros_in_box":
        return _box(args[2], args[1])
    if name == "t_set_box":
        return _box(args[3], args[4].d)
    if name == "s_set_box":
        I, target, _, box, act = args[:5]
        ideal_target = hasattr(target, "gens")
        return _box(box, act.d if ideal_target else I.ring.n)
    return 0


class Tracer:
    """Spans of every traced analysis, plus counts taken from call results."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self.layer: list[str] = ["bench"]
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_analysis = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.analysis = -1
        self.counts = {"box_candidates": 0, "box_points": 0, "zero_reductions": 0, "components": 0}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ wrapping

    def _targets(self):
        """(layer, owner, attribute, original) for every name in the table."""
        cli = sys.modules["idealiser.cli"]
        for attr, fn in vars(cli).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == cli.__name__
                and attr != "main"
                and not attr.startswith("_cmd_")
            ):
                yield "cli", cli, attr, fn
        for layer, modules in LAYERS.items():
            for module_name, attrs in modules.items():
                module = sys.modules.get(module_name)
                for attr in attrs:
                    owner = module
                    if owner is not None and "." in attr:
                        cls_name, attr = attr.split(".")
                        owner = getattr(owner, cls_name, None)
                    fn = vars(owner).get(attr) if owner is not None else None
                    if not inspect.isfunction(fn):
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    yield layer, owner, attr, fn

    def prepare(self) -> None:
        """Build the wrappers once; ``install`` and ``remove`` swap them in."""
        for layer, owner, attr, fn in self._targets():
            label = f"{layer}:{getattr(fn, '__qualname__', attr)}"
            self.names.append(label)
            self.layer.append(layer)
            self._wrappers.append((owner, attr, fn, self._wrap(fn, len(self.names) - 1)))

    def install(self) -> None:
        idealiser_modules = [
            m for name, m in sys.modules.items() if name == "idealiser" or name.startswith("idealiser.")
        ]
        for owner, attr, fn, wrapper in self._wrappers:
            if inspect.isclass(owner):
                self._patch(owner, attr, fn, wrapper)
                continue
            for module in idealiser_modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name_id: int):
        name = fn.__name__
        stack = self.stack
        span_name, span_parent, span_analysis = self.span_name, self.span_parent, self.span_analysis
        span_start, span_end = self.span_start, self.span_end
        counts = self.counts
        hook = None
        if name in ("growth_probe", "integer_zeros_in_box", "t_set_box", "s_set_box"):
            def hook(args, result):
                counts["box_candidates"] += _box_candidates(name, args)
        elif name == "points_in_box":
            def hook(args, result):
                counts["box_points"] += len(result)
        elif name == "quotient_table":
            def hook(args, result):
                counts["components"] += len(result)
        elif name == "idealiser_component":
            def hook(args, result):
                counts["components"] += 1
        elif name == "normal_form" and fn.__module__ == "idealiser.groebner":
            buchberger = "groebner:buchberger"

            def hook(args, result):
                if stack and self.names[span_name[stack[-1]]] == buchberger and result.is_zero:
                    counts["zero_reductions"] += 1

        def traced(*args, **kwargs):
            span = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_analysis.append(self.analysis)
            span_end.append(0.0)
            stack.append(span)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ analyses

    def begin(self, analysis: int) -> None:
        """Open the root span of one analysis; layer spans nest under it."""
        self.analysis = analysis
        self.stack.append(len(self.span_name))
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_analysis.append(analysis)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())

    def end(self) -> None:
        self.span_end[self.stack.pop()] = perf_counter()

    # ------------------------------------------------------------ results

    def write(self, path) -> None:
        """All spans as gzipped tab-separated rows, for offline inspection."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tanalysis\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_analysis[i]}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )

    def layer_metrics(self, speed: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics, as means per traced analysis; ``speed`` maps
        each analysis to the factor that rescales its times to the
        reference speed."""
        names, layer = self.names, self.layer
        analyses = len(speed)
        n = len(self.span_name)
        child_time = [0.0] * n
        child_names: dict[int, set] = {}
        duration = [
            (self.span_end[i] - self.span_start[i]) / speed[self.span_analysis[i]]
            for i in range(n)
        ]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += duration[i]
                child_names.setdefault(p, set()).add(names[self.span_name[i]])
        self_time = {name: 0.0 for name in LAYER_NAMES + ("bench",)}
        calls: dict[str, int] = {}
        inclusive: dict[str, float] = {}
        with_child: dict[tuple[str, str], int] = {}
        probes = {
            ("groebner:Ideal.groebner_basis", "groebner:reduced_groebner_basis"),
            ("noether:tor1_is_zero", "groebner:ideal_intersect"),
        }
        for i in range(n):
            label = names[self.span_name[i]]
            self_time[layer[self.span_name[i]]] += duration[i] - child_time[i]
            calls[label] = calls.get(label, 0) + 1
            inclusive[label] = inclusive.get(label, 0.0) + duration[i]
            for parent_label, child_label in probes:
                if label == parent_label and child_label in child_names.get(i, ()):
                    key = (parent_label, child_label)
                    with_child[key] = with_child.get(key, 0) + 1

        def per(value):
            return value / analyses

        def frac(part, whole):
            return part / whole if whole else 0.0

        requests = calls.get("groebner:Ideal.groebner_basis", 0)
        computed_in_request = with_child.get(
            ("groebner:Ideal.groebner_basis", "groebner:reduced_groebner_basis"), 0
        )
        tor_tests = calls.get("noether:tor1_is_zero", 0)
        spolys = calls.get("groebner:s_polynomial", 0)
        normal_forms = [f"normalforms:{f}" for f in LAYERS["normalforms"]["idealiser.normalforms"]]
        out = {
            "cli.self_s": per(self_time["cli"]),
            "noether.self_s": per(self_time["noether"]),
            "noether.decide_s": per(inclusive.get("noether:decide", 0.0)),
            "noether.probe_s": per(inclusive.get("noether:growth_probe", 0.0)),
            "noether.tor_tests": per(tor_tests),
            "noether.tor_groebner_frac": frac(
                with_child.get(("noether:tor1_is_zero", "groebner:ideal_intersect"), 0), tor_tests
            ),
            "noether.box_candidates": per(self.counts["box_candidates"]),
            "action.self_s": per(self_time["action"]),
            "action.stabiliser_calls": per(calls.get("action:stabiliser", 0)),
            "action.stabiliser_s": per(inclusive.get("action:stabiliser", 0.0)),
            "action.act_on_ideal_calls": per(calls.get("action:act_on_ideal", 0)),
            "action.box_points": per(self.counts["box_points"]),
            "normalforms.calls": per(sum(calls.get(f, 0) for f in normal_forms)),
            "normalforms.self_s": per(self_time["normalforms"]),
            "groebner.self_s": per(self_time["groebner"]),
            "groebner.basis_requests": per(requests),
            "groebner.bases_computed": per(calls.get("groebner:reduced_groebner_basis", 0)),
            "groebner.basis_cache_hit_frac": frac(requests - computed_in_request, requests),
            "groebner.spolys": per(spolys),
            "groebner.nf_calls": per(calls.get("groebner:normal_form", 0)),
            "groebner.zero_reduction_frac": frac(self.counts["zero_reductions"], spolys),
            "groebner.intersections": per(calls.get("groebner:ideal_intersect", 0)),
            "groebner.intersect_s": per(inclusive.get("groebner:ideal_intersect", 0.0)),
            "groebner.quotients": per(calls.get("groebner:ideal_quotient", 0)),
            "poly.self_s": per(self_time["poly"]),
            "poly.mul_calls": per(calls.get("poly:Poly.__mul__", 0)),
            "poly.translate_calls": per(calls.get("poly:Poly.translate", 0)),
            "poly.translate_s": per(inclusive.get("poly:Poly.translate", 0.0)),
            "poly.parse_calls": per(calls.get("poly:parse_poly", 0)),
            "diophantine.self_s": per(self_time["diophantine"]),
            "diophantine.classify_calls": per(calls.get("diophantine:classify_plane_curve", 0)),
            "skew.self_s": per(self_time["skew"]),
            "skew.component_calls": per(self.counts["components"]),
            "unattributed_s": per(self_time["bench"]),
        }
        return out
