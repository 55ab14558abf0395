"""End-to-end coverage of the command-line interface."""

from __future__ import annotations

import contextlib
import io
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ksrays import builtin
from ksrays.cli import main
from ksrays.pauli import OPERATOR_LINES, SATURATED_WORDS
from ksrays.rays import dump_vectors, load_vectors

from conftest import M_CRITICAL_52


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_builtin_kp36(self, capsys):
        code, out, err = run(capsys, "check", "KP36")
        assert code == 0
        assert "saturated: no" in out
        assert "ks: yes" in out
        assert "critical: yes" in out

    def test_file_input_round_trips(self, capsys, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text(dump_vectors(builtin("KP36")))
        code, out, _ = run(capsys, "check", str(path), "--dim", "8")
        assert code == 0
        builtin_out = run(capsys, "check", "KP36")[1]
        assert out == builtin_out

    def test_summary_names_the_ks_evidence(self, capsys, tmp_path):
        """stderr says whether a parity proof or the search decided KS;
        stdout keeps its four flag lines."""
        code, out, err = run(capsys, "check", "M")
        assert code == 0
        assert out == "saturated: yes\nks: yes\ncritical: no\nsteiner: yes\n"
        assert "KS: yes (parity proof, 15 cliques)," in err
        path = tmp_path / "m52.txt"
        path.write_text(dump_vectors(builtin("M").restrict(M_CRITICAL_52)))
        code, out, err = run(capsys, "check", str(path), "--dim", "8")
        assert code == 0
        assert out == "saturated: no\nks: yes\ncritical: yes\nsteiner: no\n"
        assert "KS: yes (exhaustive search)," in err
        code, out, err = run(capsys, "check", "A")
        assert "ks: no\n" in out
        assert "KS: no (exhaustive search)," in err

    def test_missing_dim_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("1 0 0 1")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "--dim" in err

    def test_unknown_input_is_an_error(self, capsys):
        code, _, err = run(capsys, "check", "NOPE")
        assert code == 2
        assert "error" in err

    def test_bad_token_reports_position(self, capsys, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("1 0\n0 oops\n")
        code, _, err = run(capsys, "check", str(path), "--dim", "2")
        assert code == 2
        assert "line 2" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            # The bad token's text also occurs inside an earlier token.
            ("(1+2j) 2j)", "'2j)' (line 1, column 8)"),
            # repr quotes a token holding ' with ".
            ("0 x'", "\"x'\" (line 1, column 3)"),
            ("1 0\r\n\r\n  0 oops\n", "'oops' (line 3, column 5)"),
        ],
    )
    def test_bad_token_column(self, capsys, tmp_path, text, where):
        path = tmp_path / "rays.txt"
        path.write_text(text, newline="")
        code, out, err = run(capsys, "check", str(path), "--dim", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: bad coordinate token {where}\n"

    @pytest.mark.parametrize("text", ["1 1\n2 2\n1 -1\n", "1 1\n1+1j 1+1j\n"])
    def test_parallel_vectors_are_an_error(self, capsys, tmp_path, text):
        path = tmp_path / "rays.txt"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path), "--dim", "2")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: rows 0 and 1 ")
        assert len(err.strip().splitlines()) == 1

    def test_non_ascii_digit_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "rays.txt"
        path.write_text("1 0\n0 \u0663\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(path), "--dim", "2")
        assert code == 2
        assert out == ""
        assert "bad coordinate token" in err and "line 2" in err
        assert "Traceback" not in err


class TestSignature:
    def test_two_comma_separated_rows(self, capsys):
        code, out, _ = run(capsys, "signature", "N")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "36,346,1224,2063,1776,830,204,21"
        assert rows[1] == "36,284,536,212"


class TestReduce:
    def test_kp40_emits_critical_sequence(self, capsys):
        code, out, err = run(capsys, "reduce", "KP40")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 1
        indices = [int(t) for t in rows[0].split()]
        assert len(indices) == 36
        assert "iteration 1" in err

    def test_colourable_input_rejected(self, capsys, tmp_path):
        path = tmp_path / "basis.txt"
        path.write_text(
            "\n".join(
                " ".join("1" if i == j else "0" for j in range(8))
                for i in range(8)
            )
        )
        code, _, err = run(capsys, "reduce", str(path), "--dim", "8")
        assert code == 2
        assert "colouring" in err


class TestColour:
    def test_six_two_found_on_m(self, capsys):
        code, out, _ = run(capsys, "colour", "M", "--partition", "6,2")
        assert code == 0
        values = [int(t) for t in out.split()]
        assert len(values) == 64
        assert set(values) == {0, 1}

    def test_seven_one_has_none(self, capsys):
        code, out, err = run(capsys, "colour", "M", "--partition", "7,1")
        assert code == 1
        assert out == ""
        assert "no colouring" in err

    def test_five_three_names_its_certificate(self, capsys):
        code, out, err = run(capsys, "colour", "M", "--partition", "5,3")
        assert code == 1
        assert out == ""
        assert err.strip() == (
            "no colouring of M is compatible with (5, 3): "
            "parity proof over 15 cliques"
        )

    def test_six_two_found_without_certificate(self, capsys):
        code, out, err = run(capsys, "colour", "M", "--partition", "6,2")
        assert code == 0
        assert len(out.split()) == 64
        assert "parity proof" not in err

    def test_bad_partition_is_an_error(self, capsys):
        code, _, _ = run(capsys, "colour", "M", "--partition", "6;2")
        assert code == 2


class TestEntropy:
    def test_witness_file_evaluated(self, capsys, tmp_path):
        path = tmp_path / "weight.txt"
        path.write_text("".join(f"{i} 1/8\n" for i in range(64)))
        code, out, err = run(capsys, "entropy", "M", "--witness", str(path))
        assert code == 0
        assert out.startswith("entropy ")
        assert "equientropic" in err

    def test_invalid_witness_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "weight.txt"
        path.write_text("".join(f"{i} 1/4\n" for i in range(64)))
        code, _, err = run(capsys, "entropy", "M", "--witness", str(path))
        assert code == 2
        assert err == f"error: {path}: not a valid probability weight\n"

    @pytest.mark.parametrize("value, code", [("1/8", 0), ("1/4", 2)])
    def test_witness_checks_saturation_once(
        self, capsys, tmp_path, monkeypatch, value, code
    ):
        import ksrays.entropy as entropy

        calls = []
        real = entropy.is_saturated
        monkeypatch.setattr(
            entropy, "is_saturated", lambda c: calls.append(c) or real(c)
        )
        path = tmp_path / "weight.txt"
        path.write_text("".join(f"{i} {value}\n" for i in range(64)))
        assert run(capsys, "entropy", "M", "--witness", str(path))[0] == code
        assert len(calls) == 1

    def test_unsaturated_input_with_witness_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "weight.txt"
        path.write_text("".join(f"{i} 1/8\n" for i in range(builtin("N").n)))
        code, out, err = run(capsys, "entropy", "N", "--witness", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: configuration is not saturated")

    def test_repeated_witness_index_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "weight.txt"
        path.write_text("".join(f"{i} 1/8\n" for i in range(64)) + "0 1/8\n")
        code, out, err = run(capsys, "entropy", "M", "--witness", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: ray index 0 given twice, again at line 65\n"

    @pytest.mark.parametrize("witness", [False, True])
    def test_empty_input_is_an_error(self, capsys, tmp_path, witness):
        path = tmp_path / "rays.txt"
        path.write_text("")
        extra = ["--witness", str(path)] if witness else []
        code, out, err = run(capsys, "entropy", str(path), "--dim", "1", *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: no rays, so no clique entropy\n"

    def test_zero_denominator_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "weight.txt"
        path.write_text("0 1/0\n")
        code, out, err = run(capsys, "entropy", "M", "--witness", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: bad weight entry at line 1\n"

    def test_missing_witness_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        code, _, err = run(capsys, "entropy", "M", "--witness", str(path))
        assert code == 2
        assert "Traceback" not in err
        assert "absent.txt" in err

    def test_zero_entropy_is_unsigned(self, capsys):
        code, out, err = run(capsys, "entropy", "A")
        assert code == 0
        assert "entropy 0.0" in out.splitlines()
        assert "equientropic at 0.000000000" in err

    def test_unsaturated_input_is_an_error(self, capsys):
        code, out, err = run(capsys, "entropy", "N")
        assert code == 2
        assert out == ""
        assert err.startswith("error: configuration is not saturated")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestTropical:
    @pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
    def test_uncovered_orthogonal_pair_is_an_error(self, capsys, tmp_path, extra):
        path = tmp_path / "pair.txt"
        path.write_text("1 0 0\n0 1 0\n")
        code, out, err = run(capsys, "tropical", str(path), "--dim", "3", *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error: orthogonal pair (0, 1)")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
    def test_max_n_below_one_is_an_error(self, capsys, value, extra):
        code, out, err = run(capsys, "tropical", "M", "--max-n", value, *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: --max-n must be at least 1, got {value}\n"

    def test_exhaustive_matches_default(self, capsys):
        default = run(capsys, "tropical", "KP40", "--max-n", "5")
        exhaustive = run(capsys, "tropical", "KP40", "--max-n", "5", "--exhaustive")
        assert default[0] == exhaustive[0] == 0
        assert default[1] == exhaustive[1]
        assert default[1] == " ".join(str(i) for i in range(40)) + "\n"

    def test_default_max_n_below_one_is_named(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("1 0\n0 1\n")
        code, out, err = run(capsys, "tropical", str(path), "--dim", "2")
        assert code == 2
        assert out == ""
        assert err == "error: --max-n must be at least 1, got 0 (the default, dimension - 2)\n"


class TestPauli:
    def test_lines_listed(self, capsys):
        code, out, _ = run(capsys, "pauli", "lines")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 8
        assert all(len(r.split()) == 7 for r in rows)

    def test_eigenrays_export(self, capsys):
        code, out, _ = run(
            capsys, "pauli", "eigenrays", *"XII IXI XXI IIZ XIZ IXZ XXZ".split()
        )
        assert code == 0
        config = load_vectors(out, 8)
        assert config.n == 8

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--qubits", "-1", "n_qubits must be in 1..4"),
            ("--qubits", "0", "n_qubits must be in 1..4"),
            ("--qubits", "5", "n_qubits must be in 1..4"),
            ("--size", "0", "tuple size must be at least 1"),
        ],
    )
    def test_tuples_arguments_are_bounded(self, capsys, flag, value, message):
        code, out, err = run(capsys, "pauli", "tuples", flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_eigenrays_arity_checked(self, capsys):
        code, _, err = run(capsys, "pauli", "eigenrays", "XII")
        assert code == 2
        assert "7" in err


class TestDataset:
    def test_list_names(self, capsys):
        code, out, _ = run(capsys, "dataset", "list")
        assert code == 0
        assert "M" in out.split()
        assert "TROPICALS" in out.split()

    def test_export_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "dataset", "export", "N")
        assert code == 0
        assert load_vectors(out, 8) == builtin("N")

    def test_export_tropical_index_rows(self, capsys):
        code, out, _ = run(capsys, "dataset", "export", "TROPICALS")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 32
        assert all(len(r.split()) == 48 for r in rows)

    def test_unknown_dataset_is_an_error(self, capsys):
        code, _, err = run(capsys, "dataset", "export", "XYZ")
        assert code == 2
        assert "unknown dataset" in err


# Pauli-word arguments: valid 3-qubit words, wrong lengths, bad letters.
PAULI_TOKENS = [str(w) for w in SATURATED_WORDS] + ["III", "XXX", "YII", "ixi", "XI",
                                                    "XIII", "", "XIW", "-XII"]


@st.composite
def eigenray_words(draw):
    """Seven words of a complete operator line, possibly with one word
    replaced, or 0-9 arbitrary word tokens."""
    if draw(st.booleans()):
        words = [str(w) for w in draw(st.permutations(draw(st.sampled_from(OPERATOR_LINES))))]
        if draw(st.booleans()):
            words[draw(st.integers(0, 6))] = draw(st.sampled_from(PAULI_TOKENS))
        return words
    return draw(st.lists(st.sampled_from(PAULI_TOKENS), max_size=9))


# Tokens the vector parser must reject or accept without a traceback.
ODD_TOKENS = ["0", "1", "-1", "1j", "1+1j", "2-j", "oops", "0.5", "0.5j",
              "1e400j", "nanj", "infj", "j", "1/2", "--", "+", "9" * 30]


@st.composite
def vector_files(draw):
    """(text, dim): a dumped restriction of M or T0 of at most 10 rays,
    possibly with one token replaced, up to 8 distinct rays in dimension
    1 to 4, or a list of odd tokens."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 4))
        # One vector per ray: entries in {-1, 0, 1}, first nonzero one 1.
        rays = [v for v in product((0, 1, -1), repeat=dim) if next((x for x in v if x), 0) == 1]
        rows = draw(st.lists(st.sampled_from(rays), min_size=1, max_size=8, unique=True))
        return "\n".join(" ".join(str(x) for x in row) for row in rows), dim
    if draw(st.booleans()):
        config = builtin(draw(st.sampled_from(["M", "T0"])))
        keep = draw(st.lists(st.integers(0, config.n - 1), min_size=1, max_size=10,
                             unique=True))
        tokens = dump_vectors(config.restrict(sorted(keep))).split()
        if draw(st.booleans()):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        return " ".join(tokens), 8
    tokens = draw(st.lists(st.sampled_from(ODD_TOKENS), max_size=16))
    return " ".join(tokens), draw(st.sampled_from([-1, 0, 1, 2, 4, 8]))


BAD_PARTITIONS = ["", "x", "4,4,", "4.0,4", "2,6", "0,8", "-1,9", "8", "1e1", "9" * 30]


@st.composite
def partitions_of(draw, dim: int) -> str:
    """A --partition value whose parts sum to dim (one part if dim < 2)."""
    parts, left = [], max(dim, 1)
    while left:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return ",".join(str(p) for p in sorted(parts, reverse=True))


# Weight-file rows the parser must read or reject with exit 2.
BAD_WEIGHT_ROWS = ["0 1/0", "0 nan", "0 oops", "0 inf", "0", "0 1 2", "x 1/2", "-1 1/2"]


@st.composite
def weight_files(draw) -> str:
    """'index value' rows for rays 0..k-1 with one common value, possibly
    with a repeated index or one row replaced by a malformed one."""
    k = draw(st.integers(0, 10))
    value = draw(st.sampled_from(["1", "1/2", "1/4", "1/8", "0", "-1/3"]))
    rows = [f"{i} {value}" for i in range(k)]
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BAD_WEIGHT_ROWS)))
    return "\n".join(rows)


DATASET_TOKENS = ["M", "TROPICALS", "KP36", "m", "", "XYZ", "TROPICAL", "M ", "../M"]


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(vector_files(), weight_files(), st.data())
    def test_exit_codes_on_vector_files(self, tmp_path_factory, case, weights, data):
        text, dim = case
        folder = tmp_path_factory.mktemp("fuzz")
        path = folder / "rays.txt"
        path.write_text(text)
        weight_path = folder / "weight.txt"
        weight_path.write_text(weights)
        args = [str(path), "--dim", str(dim)]
        runs = [[command, *args] for command in ("check", "signature", "reduce", "tropical", "entropy")]
        runs.append(["tropical", *args, "--exhaustive"])
        runs.append(["entropy", *args, "--witness", str(weight_path)])
        runs.append(["dataset", "export", data.draw(st.sampled_from(DATASET_TOKENS))])
        for partition in (data.draw(partitions_of(dim)), data.draw(st.sampled_from(BAD_PARTITIONS))):
            runs.append(["colour", *args, f"--partition={partition}"])
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()

    @settings(max_examples=40, deadline=None)
    @given(eigenray_words(), st.integers(-1, 3), st.integers(-1, 4))
    def test_exit_codes_on_pauli_arguments(self, words, qubits, size):
        for argv in (["pauli", "eigenrays", "--", *words],
                     ["pauli", "tuples", "--qubits", str(qubits), "--size", str(size)]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
