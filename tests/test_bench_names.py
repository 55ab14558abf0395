"""Every ``datasets`` and ``pauli`` name the benchmark reads resolves.

``perfbench/workloads.py`` and ``perfbench/test_oracles.py`` read tables
and functions such as ``datasets.T0_INDICES`` by attribute, so a rename
in ``ksrays`` would otherwise break only benchmark runs.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("datasets", "pauli")


def _reads() -> set[tuple[str, str]]:
    """(module, name) of each ``datasets.<name>`` or ``pauli.<name>``
    attribute read in ``perfbench/*.py``."""
    reads = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in MODULES
            ):
                reads.add((node.value.id, node.attr))
    return reads


def test_every_name_the_benchmark_reads_resolves():
    reads = _reads()
    assert ("datasets", "T0_INDICES") in reads and ("pauli", "SATURATED_WORDS") in reads
    for module, name in sorted(reads):
        home = importlib.import_module(f"ksrays.{module}")
        assert hasattr(home, name), f"{module}.{name}"
