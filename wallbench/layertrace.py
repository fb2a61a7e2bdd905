"""Per-layer tracing for the traced benchmark run.

install() wraps every public function of each wallcross module, and the
public methods and operators of each public class, then rebinds each wrapped
function under every name that refers to it in any wallcross module (for
example arrangement.bareiss_rank, jets.rref and the blow-up names imported
into jets).  Only a traced worker installs the wrappers; a timed worker
never imports this module.

Each wrapper keeps, per function, a call count and a self time: its
duration minus the time of the wrapped calls nested inside it.  Calls made
directly by a benchmark operation are kept as spans; the fine-grained calls
beneath them are only counted, since one chamber_walk pair makes tens of
thousands of Q(e) operations.
"""

from __future__ import annotations

import functools
import sys
import time
from types import FunctionType

LAYERS = ("epsfield", "linalg", "arrangement", "weights", "mixedsub", "jets", "blowup", "cli")

EPS_BINARY = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__")
EPS_ARITH = EPS_BINARY + ("__neg__", "__pow__")
EPS_CMP = ("sign", "__eq__", "__lt__", "__le__", "__gt__", "__ge__")
#: Dunder methods wrapped on public classes; other underscore names are private.
WRAPPED_DUNDERS = frozenset(EPS_ARITH + EPS_CMP + ("__init__", "__str__"))
#: Left unwrapped: the polynomial internals of EpsRat, its constructor (called
#: by every operator) and coerce; their time counts to the epsfield caller.
UNWRAPPED = frozenset(("epsfield.EpsPoly", "epsfield.EpsRat.__init__",
                       "epsfield.EpsRat.coerce"))


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.stack: list[float] = []
        self.op = -1
        #: Cleared while the benchmark checks answers, so checks are not traced.
        self.active = [True]

    def reset(self) -> None:
        for rec in self.stats.values():
            rec[0], rec[1] = 0, 0.0
        self.counts.clear()
        self.spans.clear()

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, key: str, fn, hook=None):
        rec = self.stats.setdefault(key, [0, 0.0])
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        active = self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                rec[0] += 1
                rec[1] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                else:
                    spans.append((self.op, key, start, elapsed))
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self, package) -> int:
        """Wrap every target in the package's layer modules; return the count."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        rebind = {}
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (package.__name__, layer)]
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                key = "%s.%s" % (layer, name)
                if isinstance(obj, FunctionType):
                    rebind[id(obj)] = self.wrap(key, obj, HOOKS.get(key))
                elif isinstance(obj, type) and key not in UNWRAPPED:
                    self._wrap_class(key, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in rebind:
                    setattr(module, name, rebind[id(obj)])
        return len(self.stats)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            key = "%s.%s" % (prefix, attr)
            if (attr.startswith("_") and attr not in WRAPPED_DUNDERS) or key in UNWRAPPED:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                setattr(cls, attr, type(raw)(self.wrap(key, raw.__func__)))
            elif isinstance(raw, FunctionType):
                setattr(cls, attr, self.wrap(key, raw, HOOKS.get(key)))

    # -- per-layer metrics -----------------------------------------------------

    def calls(self, *keys: str) -> int:
        return sum(self.stats[k][0] for k in keys if k in self.stats)

    def self_s(self, *keys: str) -> float:
        return sum(self.stats[k][1] for k in keys if k in self.stats)

    def layer_calls(self, layer: str) -> int:
        return sum(rec[0] for k, rec in self.stats.items() if k.startswith(layer + "."))

    def layer_self_s(self, layer: str) -> float:
        return sum(rec[1] for k, rec in self.stats.items() if k.startswith(layer + "."))

    def work_counts(self) -> dict[str, int]:
        """Every call count and derived count: what two passes must repeat."""
        out = {k: rec[0] for k, rec in sorted(self.stats.items()) if rec[0]}
        out.update(sorted(self.counts.items()))
        return out

    def metrics(self, ops: int) -> dict[str, float]:
        eps = ["epsfield.EpsRat." + name for name in EPS_ARITH] + ["epsfield.eps_arith"]
        cmp = ["epsfield.EpsRat." + name for name in EPS_CMP] + ["epsfield.eps_cmp"]
        binary = self.counts.get("epsfield.binary_ops", 0)
        subdivisions = self.calls("mixedsub.regular_mixed_subdivision")
        flats_calls = self.calls("arrangement.flats")
        return {
            "epsfield.arith_calls": self.calls(*eps),
            "epsfield.cmp_calls": self.calls(*cmp),
            "epsfield.poly_gcd_calls": self.calls("epsfield.poly_gcd"),
            "epsfield.parse_calls": self.calls("epsfield.parse_eps_rat", "epsfield.parse_rat"),
            "epsfield.format_calls": self.calls("epsfield.format_poly"),
            "epsfield.self_s": self.layer_self_s("epsfield"),
            "epsfield.den1_share": self.counts.get("epsfield.den1_ops", 0) / binary if binary else 0.0,
            "linalg.bareiss_rank_calls": self.calls("linalg.bareiss_rank"),
            "linalg.rref_calls": self.calls("linalg.rref"),
            "linalg.self_s": self.layer_self_s("linalg"),
            "arrangement.flats_calls": flats_calls,
            "arrangement.flats_found": self.counts.get("arrangement.flats_found", 0),
            "arrangement.flats_per_op": flats_calls / ops,
            "arrangement.is_stable_calls": self.calls("arrangement.is_stable"),
            "arrangement.self_s": self.layer_self_s("arrangement"),
            "weights.walls_containing_calls": self.calls("weights.walls_containing"),
            "weights.segment_walls_calls": self.calls("weights.segment_walls"),
            "weights.predicate_calls": self.calls(
                "weights.same_chamber", "weights.in_chamber_closure", "weights.leq",
                "weights.sign_vector"),
            "weights.wall_value_calls": self.calls("weights.wall_value"),
            "weights.walls_found": self.counts.get("weights.walls_found", 0),
            "weights.crossings_found": self.counts.get("weights.crossings_found", 0),
            "weights.self_s": self.layer_self_s("weights"),
            "mixedsub.subdivision_calls": subdivisions,
            "mixedsub.cells_found": self.counts.get("mixedsub.cells_found", 0),
            "mixedsub.cell_vertices_calls": self.calls("mixedsub.cell_vertices"),
            "mixedsub.hull_s": self.self_s("mixedsub.regular_mixed_subdivision"),
            "mixedsub.dual_graph_s": self.self_s("mixedsub.dual_graph"),
            "mixedsub.fine_share": (self.counts.get("mixedsub.fine_subdivisions", 0) / subdivisions
                                    if subdivisions else 0.0),
            "mixedsub.self_s": self.layer_self_s("mixedsub"),
            "jets.calls": self.layer_calls("jets"),
            "jets.self_s": self.layer_self_s("jets"),
            "blowup.calls": self.layer_calls("blowup"),
            "blowup.self_s": self.layer_self_s("blowup"),
            "cli.main_calls": self.calls("cli.main"),
            "cli.exit2_calls": self.counts.get("cli.exit2_calls", 0),
            "cli.output_bytes": self.counts.get("cli.output_bytes", 0),
            "cli.self_s": self.layer_self_s("cli"),
        }


# -- counts taken from arguments and results ------------------------------------


def _den1(tracer, args, result):
    a, b = args[0], args[1]
    tracer.add("epsfield.binary_ops", 1)
    if a.den.degree == 0 and getattr(getattr(b, "den", None), "degree", 0) == 0:
        tracer.add("epsfield.den1_ops", 1)


def _found(name):
    def hook(tracer, args, result):
        tracer.add(name, len(result))
    return hook


def _subdivision(tracer, args, result):
    tracer.add("mixedsub.cells_found", len(result.cells))
    tracer.add("mixedsub.fine_subdivisions", int(result.is_fine))


def _cli_exit(tracer, args, result):
    tracer.add("cli.exit2_calls", int(result == 2))


HOOKS = {"epsfield.EpsRat." + name: _den1 for name in EPS_BINARY}
HOOKS.update({
    "weights.walls_containing": _found("weights.walls_found"),
    "weights.segment_walls": _found("weights.crossings_found"),
    "arrangement.flats": _found("arrangement.flats_found"),
    "mixedsub.regular_mixed_subdivision": _subdivision,
    "cli.main": _cli_exit,
})
