"""End-to-end coverage of the command-line interface."""

from __future__ import annotations

import pytest

from ksrays import builtin
from ksrays.cli import main
from ksrays.rays import dump_vectors, load_vectors


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
        assert "probability weight" in err

    def test_missing_witness_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        code, _, err = run(capsys, "entropy", "M", "--witness", str(path))
        assert code == 2
        assert "Traceback" not in err
        assert "absent.txt" in err

    def test_unsaturated_input_is_an_error(self, capsys):
        code, out, err = run(capsys, "entropy", "N")
        assert code == 2
        assert out == ""
        assert err.startswith("error: configuration is not saturated")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


class TestTropical:
    def test_uncovered_orthogonal_pair_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("1 0 0\n0 1 0\n")
        code, out, err = run(capsys, "tropical", str(path), "--dim", "3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: orthogonal pair (0, 1)")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


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
