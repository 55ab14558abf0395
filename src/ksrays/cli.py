"""Command-line front end for reproduction runs and ad-hoc analysis.

Machine-readable output goes to standard out, human summaries to
standard error.  Exit status 0 on success, 1 when a search legitimately
finds nothing (no colouring, no witnesses), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction

from . import datasets
from .rays import Configuration, dump_vectors, load_vectors
from .orthograph import (
    is_saturated,
    signature,
    steiner_check,
)
from .colouring import (
    critical_reduce,
    find_partition_colouring,
    is_critical,
    is_ks_configuration,
    parity_proof,
)
from .tropical import tropical_dimension
from .entropy import (
    InvalidWeightError,
    ProbabilityWeight,
    entropy_report,
    minimize_entropy,
)
from . import pauli


class InputError(ValueError):
    """Bad command input: unknown name, unreadable or malformed file."""


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


_SINGLE_DATASETS = tuple(n for n in datasets.DATASET_NAMES if n != "TROPICALS")


def _load_input(name: str, dim: int | None, count: int | None) -> Configuration:
    if name in _SINGLE_DATASETS:
        return datasets.builtin(name)
    if not os.path.exists(name):
        raise InputError(
            f"{name!r} is neither a built-in dataset "
            f"({', '.join(_SINGLE_DATASETS)}) nor a file"
        )
    if dim is None or dim < 1:
        raise InputError("--dim (at least 1) is required for vector-file input")
    with open(name) as fh:
        text = fh.read()
    try:
        return load_vectors(text, dim, count)
    except ValueError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="built-in dataset name or vectors file path")
    p.add_argument("--dim", type=int, default=None, help="ray dimension (file input)")
    p.add_argument("--count", type=int, default=None, help="ray count (file input)")


def _cmd_check(args) -> int:
    config = _load_input(args.input, args.dim, args.count)
    t0 = time.perf_counter()
    sat, _ = is_saturated(config)
    ks = is_ks_configuration(config)
    crit = is_critical(config) if ks else False
    steiner = steiner_check(config)
    elapsed = time.perf_counter() - t0
    print(f"saturated: {_yes(sat)}")
    print(f"ks: {_yes(ks)}")
    print(f"critical: {_yes(crit)}")
    print(f"steiner: {_yes(steiner)}")
    _say(
        f"{args.input}: {config.n} rays in dimension {config.dim}; "
        f"saturated: {_yes(sat)}, KS: {_yes(ks)}, critical: {_yes(crit)}, "
        f"Steiner: {_yes(steiner)} ({elapsed:.2f}s)"
    )
    return 0


def _cmd_signature(args) -> int:
    config = _load_input(args.input, args.dim, args.count)
    sig = signature(config)
    print(",".join(str(c) for c in sig.cliques))
    print(",".join(str(c) for c in sig.anticliques))
    _say(f"{args.input}: clique row then anticlique row, comma-separated")
    return 0


def _cmd_reduce(args) -> int:
    config = _load_input(args.input, args.dim, args.count)
    t0 = time.perf_counter()
    report = critical_reduce(config)
    for i, st in enumerate(report.iterations, 1):
        _say(
            f"iteration {i}: parents={len(st.parents)} m={st.survivors} "
            f"k={st.signature_classes} critical={len(st.finished)}"
        )
    _say(
        f"{len(report.results)} critical configuration(s), sizes "
        f"{sorted(len(r) for r in report.results)} "
        f"({time.perf_counter() - t0:.2f}s)"
    )
    # One critical-sequence row per result: surviving ray indices.
    for r in report.results:
        print(" ".join(str(i) for i in r))
    return 0


def _cmd_tropical(args) -> int:
    config = _load_input(args.input, args.dim, args.count)
    max_n = args.max_n if args.max_n is not None else config.dim - 2
    if max_n < 1:
        default = " (the default, dimension - 2)" if args.max_n is None else ""
        raise InputError(f"--max-n must be at least 1, got {max_n}{default}")
    t0 = time.perf_counter()
    if args.exhaustive:
        got = tropical_dimension(config, max_n, sample_per_n=math.inf)
    else:
        got = tropical_dimension(config, max_n)
    if got is None:
        _say(f"no section-free collection up to {max_n} cliques")
        return 1
    n, witnesses = got
    unions = sorted(tuple(sorted(u)) for u in {w.union for w in witnesses})
    _say(
        f"tropical dimension {n}: {len(witnesses)} witness collection(s), "
        f"{len(unions)} distinct union(s) ({time.perf_counter() - t0:.2f}s)"
    )
    for u in unions:
        print(" ".join(str(i) for i in u))
    return 0


def _cmd_colour(args) -> int:
    config = _load_input(args.input, args.dim, args.count)
    try:
        partition = tuple(int(x) for x in args.partition.split(","))
    except ValueError as exc:
        raise InputError(f"bad partition {args.partition!r}") from exc
    col = find_partition_colouring(config, partition)
    if col is None:
        proof = parity_proof(config) if any(p % 2 for p in partition) else None
        why = f": parity proof over {len(proof)} cliques" if proof else ""
        _say(f"no colouring of {args.input} is compatible with {partition}{why}")
        return 1
    _say(f"found a colouring of {args.input} compatible with {partition}")
    print(" ".join(str(v) for v in col.values))
    return 0


def _parse_weight(path: str, n: int) -> ProbabilityWeight:
    values: dict[int, Fraction] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                idx_s, val_s = line.split()
                idx = int(idx_s)
                val = Fraction(val_s)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(
                    f"{path}: bad weight entry at line {lineno}"
                ) from exc
            if idx in values:
                raise InputError(
                    f"{path}: ray index {idx} given twice, again at line {lineno}"
                )
            values[idx] = val
    if sorted(values) != list(range(n)):
        raise InputError(f"{path}: need exactly one value per ray index 0..{n - 1}")
    return ProbabilityWeight(tuple(values[i] for i in range(n)))


def _cmd_entropy(args) -> int:
    config = _load_input(args.input, args.dim, args.count)
    if not config.n:
        raise InputError(f"{args.input}: no rays, so no clique entropy")
    if args.witness:
        weight = _parse_weight(args.witness, config.n)
        try:
            report = entropy_report(config, weight)
        except InvalidWeightError:
            raise InputError(
                f"{args.witness}: not a valid probability weight"
            ) from None
    else:
        report = minimize_entropy(config)
    if report.equientropic:
        _say(
            f"equientropic at {report.common_entropy:.9f} "
            f"(statistical weight {report.statistical_weight:.6f})"
        )
        print(f"entropy {report.common_entropy!r}")
    else:
        _say("weight is valid but not equientropic")
        print("entropy none")
    for i, v in enumerate(report.witness.values):
        print(f"{i} {v}")
    return 0


def _cmd_pauli(args) -> int:
    if args.action == "lines":
        for line in pauli.OPERATOR_LINES:
            print(" ".join(str(w) for w in line))
        _say(f"{len(pauli.OPERATOR_LINES)} complete operator lines")
        return 0
    if args.action == "tuples":
        tuples = pauli.enumerate_parity_tuples(args.qubits, args.size)
        for words, sign in tuples:
            print(("+" if sign > 0 else "-") + " " + " ".join(map(str, words)))
        _say(
            f"{len(tuples)} parity {args.size}-tuples on {args.qubits} qubits"
        )
        return 0
    if args.action == "mine":
        t0 = time.perf_counter()
        neg, pos = pauli.four_edges(pauli.SATURATED_WORDS)
        proofs, profiles = pauli.mine_parity_proofs(pauli.SATURATED_WORDS)
        _say(
            f"{len(neg)} negative and {len(pos)} positive 4-edges; "
            f"{len(proofs)} proofs, {len(profiles)} distinct degree "
            f"profiles ({time.perf_counter() - t0:.1f}s)"
        )
        for profile in profiles:
            print(" ".join(f"{k}:{n_k}" for k, n_k in profile))
        return 0
    if args.action == "eigenrays":
        if len(args.words) != 7:
            raise InputError("eigenrays needs exactly 7 Pauli words")
        words = [pauli.word(t) for t in args.words]
        rays = pauli.joint_eigenrays(words)
        config = Configuration(rays)
        sys.stdout.write(dump_vectors(config))
        _say(f"{len(rays)} joint eigenrays")
        return 0
    raise InputError(f"unknown pauli action {args.action!r}")


def _cmd_dataset(args) -> int:
    if args.action == "list":
        for name in datasets.DATASET_NAMES:
            print(name)
        return 0
    name = args.name
    if name is None:
        raise InputError("dataset export needs a name")
    if name == "TROPICALS":
        # Index-set rows into M, 32 x 48 integers.
        for indices in datasets.TROPICAL_INDEX_SETS:
            print(" ".join(str(i) for i in indices))
        _say("32 tropical index sets into the 64-ray configuration")
        return 0
    if name not in _SINGLE_DATASETS:
        raise InputError(f"unknown dataset {name!r}")
    config = datasets.builtin(name)
    sys.stdout.write(dump_vectors(config))
    _say(f"{name}: {config.n} rays in dimension {config.dim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksrays",
        description="Exact analysis of Kochen-Specker ray configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="saturated / KS / critical / Steiner flags")
    _add_input_args(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("signature", help="clique and anticlique count rows")
    _add_input_args(p)
    p.set_defaults(func=_cmd_signature)

    p = sub.add_parser("reduce", help="signature-based reduction to critical sets")
    _add_input_args(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("tropical", help="tropical dimension and witness unions")
    _add_input_args(p)
    p.add_argument("--max-n", type=int, default=None, help="largest collection size (default: dimension - 2)")
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="scan every level in full, with no sampling (long run)",
    )
    p.set_defaults(func=_cmd_tropical)

    p = sub.add_parser("colour", help="partition-compatible colouring search")
    _add_input_args(p)
    p.add_argument("--partition", required=True, help="comma-separated parts, e.g. 6,2")
    p.set_defaults(func=_cmd_colour)

    p = sub.add_parser("entropy", help="entropy bound or witness evaluation")
    _add_input_args(p)
    p.add_argument("--witness", default=None, help="weight file with 'index value' rows")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("pauli", help="Pauli word computations")
    p.add_argument("action", choices=["lines", "tuples", "mine", "eigenrays"])
    p.add_argument("words", nargs="*", help="7 Pauli words (eigenrays)")
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--size", type=int, default=7)
    p.set_defaults(func=_cmd_pauli)

    p = sub.add_parser("dataset", help="built-in dataset export")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=_cmd_dataset)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # Bad input, unreadable files and failed library preconditions.
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
