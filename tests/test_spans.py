"""The traced benchmark's layer list names functions that exist.

``perfbench/spans.py`` wraps each function in ``LAYERS`` by name, so a
rename in ``ksrays`` would otherwise break only ``--trace`` runs.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_a_function_of_its_module():
    spans = _spans()
    for module, names in spans.LAYERS.items():
        home = importlib.import_module(f"ksrays.{module}")
        for name in names:
            # ``restrict`` is the method of ``rays.Configuration``.
            owner = home.Configuration if (module, name) == ("rays", "restrict") else home
            assert callable(getattr(owner, name, None)), f"{module}.{name}"


def test_benchmark_declares_the_traced_layers():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [metric["name"] for metric in declared] == _spans().layer_names()
