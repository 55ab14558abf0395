"""Per-layer spans around the public functions of each ``ksrays`` module.

The wrappers are installed from outside the package: each listed
function is replaced in its own module and in every ``ksrays`` module
that imported it by name, so internal calls are traced as well.  Spans
are aggregated in memory per function: call count and self time, which
is the span's duration minus the time covered by traced child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: module -> public functions measured as layers.  ``Configuration`` is
#: the constructor and ``restrict`` the method of ``rays.Configuration``.
LAYERS = {
    "rays": ("Configuration", "restrict"),
    "orthograph": ("signature", "maximal_cliques", "is_saturated", "capacity"),
    "colouring": (
        "is_ks_configuration",
        "critical_reduce",
        "find_partition_colouring",
        "verify_partition_colouring",
    ),
    "tropical": ("admits_anticlique_section", "tropical_dimension"),
    "entropy": ("minimize_entropy", "entropy_report", "validate_probability_weight"),
    "pauli": ("mine_parity_proofs", "four_edges", "verify_parity_proof"),
    "datasets": ("builtin",),
}


def layer_names() -> list[str]:
    """Metric names of the traced run, in a fixed order."""
    names = []
    for module, funcs in LAYERS.items():
        for f in funcs:
            names += [f"{module}.{f}.calls", f"{module}.{f}.self_s"]
        names.append(f"{module}.self_s")
    return names


class Tracer:
    """Aggregated spans; collects only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._child: list[float] = []

    def wrap(self, key: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._child.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                child = self._child.pop()
                if self._child:
                    self._child[-1] += span
                self.calls[key] = self.calls.get(key, 0) + 1
                self.self_s[key] = self.self_s.get(key, 0.0) + span - child

        return traced

    def install(self) -> None:
        """Rebind every listed function in all loaded ``ksrays`` modules."""
        import ksrays.rays as rays

        cls = rays.Configuration
        cls.__init__ = self.wrap("rays.Configuration", cls.__init__)
        cls.restrict = self.wrap("rays.restrict", cls.restrict)
        modules = [m for n, m in sys.modules.items() if n == "ksrays" or n.startswith("ksrays.")]
        for module, funcs in LAYERS.items():
            if module == "rays":
                continue
            home = sys.modules[f"ksrays.{module}"]
            for name in funcs:
                original = getattr(home, name)
                traced = self.wrap(f"{module}.{name}", original)
                for m in modules:
                    if getattr(m, name, None) is original:
                        setattr(m, name, traced)

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        return dict(self.calls), dict(self.self_s)
