"""CLI surface: subcommands, exit codes, output formats."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pclifford import cli
from pclifford.cli import DEFAULT_SEED, main
from pclifford.f2core import BitVec, format_matrix, make_form, parse_matrix
from pclifford.group import group_order, level_bits, parse_braid_word, reflection_product


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    def test_main_builds_no_parser_after_its_first_call(self, capsys, monkeypatch):
        run(capsys, "order", "--group", "o", "--dim", "4")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "order", "--group", "o", "--dim", "4")[0] == 0
        assert run(capsys, "sample", "--group", "sp", "--dim", "2")[0] == 0
        assert built == []  # 9 per call when each call builds its own

    def test_import_builds_no_parser(self):
        """The parser is built by the first main call, not by an import."""
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from pclifford import cli\n"
            "assert built == [], built\n"
            "assert cli.main(['order', '--group', 'o', '--dim', '4']) == 0\n"
            "assert built\n"
        )
        src = Path(cli.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60, env=env)

    def test_help_wraps_to_the_columns_of_each_call(self, capsys, monkeypatch):
        helps = []
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run(capsys, "--help")
            assert code == 0
            helps.append(out)
        assert helps[0] == helps[2] != helps[1]
        description = "Majorana-label Clifford algebra: sampling, encoding, designs."
        assert description in helps[1] and description not in helps[0]


class TestParsing:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "order", "--group", "o", "--dim", "4", "--frob", "1")
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage" in out.lower()


class TestOrder:
    def test_orthogonal_4(self, capsys):
        code, out, _ = run(capsys, "order", "--group", "o", "--dim", "4")
        assert code == 0 and out.strip() == "48"

    def test_symplectic_via_n(self, capsys):
        code, out, _ = run(capsys, "order", "--group", "sp", "--n", "2")
        assert code == 0 and out.strip() == "720"

    def test_dim_and_n_conflict(self, capsys):
        code, _, err = run(capsys, "order", "--group", "o", "--dim", "4", "--n", "2")
        assert code == 1 and "exactly one" in err

    def test_dim_required(self, capsys):
        code, _, _ = run(capsys, "order", "--group", "o")
        assert code == 1

    def test_largest_printable_order_prints(self, capsys):
        # |O(169)| has 4274 digits, under the 4300 Python prints by default
        from pclifford.group import group_order

        code, out, _ = run(capsys, "order", "--group", "o", "--dim", "169")
        assert code == 0 and out == f"{group_order('orthogonal', 169)}\n"

    @pytest.mark.parametrize(
        "group, dim", [("o", "170"), ("o", "200"), ("sp", "200"), ("o", "10000"), ("sp", "10000")]
    )
    def test_order_past_the_digit_limit_exits_quickly(self, capsys, group, dim):
        start = time.perf_counter()
        code, out, err = run(capsys, "order", "--group", group, "--dim", dim)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "more than 4300 digits" in err


class TestSample:
    def test_index_output_is_orthogonal(self, capsys):
        # every index at small dims round-trips through the text format
        from pclifford.group import OrthogonalMap, group_order

        for dim in (1, 2, 3, 4):
            for i in range(1, group_order("orthogonal", dim) + 1):
                code, out, _ = run(capsys, "sample", "--group", "o", "--dim", str(dim), "--index", str(i))
                assert code == 0
                OrthogonalMap(parse_matrix(out))  # constructor re-verifies

    def test_default_seed_reproducible(self, capsys):
        code1, out1, _ = run(capsys, "sample", "--group", "o", "--dim", "8")
        code2, out2, _ = run(capsys, "sample", "--group", "o", "--dim", "8")
        assert code1 == code2 == 0 and out1 == out2
        code3, out3, _ = run(capsys, "sample", "--group", "o", "--dim", "8", "--seed", str(DEFAULT_SEED))
        assert out3 == out1

    def test_index_seed_exclusive(self, capsys):
        code, _, err = run(capsys, "sample", "--group", "o", "--dim", "4", "--index", "1", "--seed", "3")
        assert code == 1 and "mutually exclusive" in err

    def test_basis_orthogonal_rejected(self, capsys):
        code, _, err = run(capsys, "sample", "--group", "o", "--dim", "4", "--basis", "pauli")
        assert code == 1 and "symplectic" in err

    def test_symplectic_majorana_output(self, capsys):
        code, out, _ = run(capsys, "sample", "--group", "sp", "--dim", "4", "--index", "7", "--basis", "majorana")
        assert code == 0
        from pclifford.group import SymplecticMap

        SymplecticMap(parse_matrix(out), "majorana")

    def test_bad_index(self, capsys):
        code, _, err = run(capsys, "sample", "--group", "o", "--dim", "3", "--index", "7")
        assert code == 1 and "out of range" in err
        for index in ("0", "-5", "721"):
            code, _, err = run(capsys, "sample", "--group", "sp", "--dim", "4", "--index", index)
            assert code == 1 and f"index {index} out of range 1..720" in err

    @pytest.mark.parametrize("group, dim", [("o", 200), ("sp", 200), ("o", 4096)])
    def test_bad_index_past_the_digit_limit_names_the_order_size(self, capsys, group, dim):
        # these orders run past the 4300 digits Python prints
        low = level_bits(cli._GROUPS[group], dim)
        code, out, err = run(capsys, "sample", "--group", group, "--dim", str(dim), "--index", "0")
        assert code == 1 and out == ""
        assert f"index 0 out of range 1..N, a group order N of at least 2^{low}" in err

    @pytest.mark.parametrize(
        "group, dim, exact",
        [("o", 12, True), ("o", 13, False), ("sp", 10, True), ("sp", 12, False)],
    )
    def test_bad_index_prints_the_order_below_2_to_the_64(self, capsys, group, dim, exact):
        kind = cli._GROUPS[group]
        code, _, err = run(capsys, "sample", "--group", group, "--dim", str(dim), "--index", "0")
        assert code == 1
        if exact:
            assert f"out of range 1..{group_order(kind, dim)}\n" in err
        else:
            assert f"at least 2^{level_bits(kind, dim)}\n" in err


class TestJw:
    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "jw", "--dim", "6")
        assert code == 0 and out == format_matrix(make_form("jw", 6))

    def test_odd_dim(self, capsys):
        code, _, _ = run(capsys, "jw", "--dim", "3")
        assert code == 1


class TestCompose:
    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("i^0 10\ni^0 01\n"))
        code, out, _ = run(capsys, "compose")
        assert code == 0 and out.strip() == "i^3 11"

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "strings.txt"
        p.write_text("i^1 1100\ni^1 1100\n")
        code, out, _ = run(capsys, "compose", str(p))
        assert code == 0 and out.strip() == "i^2 0000"

    def test_pauli_basis(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("i^0 11\ni^0 10\n"))
        code, out, _ = run(capsys, "compose", "--basis", "pauli")
        # (iZX) Z = i X Z Z ... direct zeta evaluation pins the phase
        from pclifford.strings import compose as c, parse_string

        want = c(parse_string("i^0 11", "pauli"), parse_string("i^0 10", "pauli"))
        assert code == 0 and out.strip() == f"i^{want.phase} {want.v}"

    def test_empty_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, _, err = run(capsys, "compose")
        assert code == 1 and "no strings" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "compose", "/nonexistent/strings.txt")
        assert code == 1


class TestStabEncode:
    def test_single_generator_roundtrip(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n=3 r=1\n111100\n"))
        code, out, _ = run(capsys, "stab-encode")
        assert code == 0
        matrix_text, word_text = out.split("\n\n", 1)
        S = parse_matrix(matrix_text)
        word = parse_braid_word(word_text, n=3)
        # the encoder's own word: 2 reflections for r = 1
        assert word_text == "B 100010\nB 101110\n"
        assert reflection_product(word.gens, 6) == S
        assert S.mulvec(BitVec.from_string("110000")) == BitVec.from_string("111100")

    def test_all_ones_stabilizer_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n=2 r=2\n1100\n0011\n"))
        code, _, err = run(capsys, "stab-encode")
        assert code == 1 and "add_ancilla" in err

    def test_bad_file(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("n=2 r=1\n1000\n"))
        code, _, _ = run(capsys, "stab-encode")
        assert code == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=3 r=1\n1100\n", "generator length does not match the mode count"),
            ("n=2 r=1\n1100\nsign=110\n", "sign vector length does not match the subspace"),
        ],
    )
    def test_rows_of_the_wrong_length(self, capsys, monkeypatch, text, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "stab-encode")
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize(
        "head, message",
        [
            ("n=2 n=3 r=1", "repeated key 'n'"),
            ("n=2 r=1 x=9", "unknown key 'x'"),
            ("n=2 r=1 r=2", "repeated key 'r'"),
        ],
    )
    def test_header_keys(self, capsys, monkeypatch, head, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{head}\n1100\n0110\n"))
        code, out, err = run(capsys, "stab-encode")
        assert code == 1 and out == "" and message in err

    def test_repeated_sign_line(self, capsys, monkeypatch):
        # refused, not resolved by the last line
        monkeypatch.setattr("sys.stdin", io.StringIO("n=2 r=1\n1100\nsign=1000\nsign=0100\n"))
        code, out, err = run(capsys, "stab-encode")
        assert code == 1 and out == "" and "repeated sign line 'sign=0100'" in err


class TestFrame:
    def test_exact_restricted_value_5(self, capsys):
        code, out, _ = run(
            capsys, "frame", "--group", "o", "--dim", "4", "--t", "3",
            "--exact", "--parity-restricted",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 5 and payload["restricted"] is True

    def test_monte_carlo_fields(self, capsys):
        code, out, _ = run(
            capsys, "frame", "--group", "o", "--n", "3", "--t", "2",
            "--samples", "400", "--seed", "5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "monte_carlo"
        assert payload["samples"] == 400 and payload["seed"] == 5

    def test_restricted_needs_orthogonal(self, capsys):
        code, _, err = run(
            capsys, "frame", "--group", "sp", "--dim", "4", "--t", "2",
            "--exact", "--parity-restricted",
        )
        assert code == 1 and "--group o" in err

    def test_symplectic_exact(self, capsys):
        code, out, _ = run(capsys, "frame", "--group", "sp", "--dim", "2", "--t", "4", "--exact")
        assert code == 0 and json.loads(out)["value"] == 15

    def test_restricted_odd_dim_rejected(self, capsys):
        code, out, err = run(
            capsys, "frame", "--group", "o", "--dim", "5", "--t", "3",
            "--exact", "--parity-restricted",
        )
        assert code == 1 and out == "" and "even quotient needs even dimension" in err

    @pytest.mark.parametrize("t", ["100000000000000000000", "5000"])
    def test_exact_bit_cap_exits_quickly(self, capsys, t):
        start = time.perf_counter()
        code, out, err = run(capsys, "frame", "--group", "o", "--dim", "4", "--t", t, "--exact")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "cap of 8192 bits" in err

    @pytest.mark.parametrize(
        "group, dim, want",
        [("o", d, 4) for d in ("8", "100", "128", "200", "4000")] + [("sp", "8", 2), ("sp", "100", 2)],
    )
    def test_exact_answers_past_enumerable_orders_quickly(self, capsys, group, dim, want):
        """F_2 counts the orbits on labels: 0, j, the even and the odd
        other labels for even O(N); 0 and the rest for Sp(2n)."""
        start = time.perf_counter()
        code, out, err = run(capsys, "frame", "--group", group, "--dim", dim, "--t", "2", "--exact")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and err == "" and json.loads(out)["value"] == want


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestFrameJsonValidity:
    def test_single_sample_has_null_std_error(self, capsys):
        code, out, _ = run(
            capsys, "frame", "--group", "o", "--dim", "4", "--t", "2", "--samples", "1"
        )
        assert code == 0
        payload = strict_json(out)
        assert payload["samples"] == 1 and payload["std_error"] is None

    @pytest.mark.parametrize("restricted", [False, True])
    def test_overflow_is_an_input_error(self, capsys, restricted):
        argv = ["frame", "--group", "o", "--dim", "4", "--t", "400", "--samples", "10"]
        if restricted:
            argv.append("--parity-restricted")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "--exact" in err

    @pytest.mark.parametrize("restricted", [False, True])
    def test_overflow_past_the_exact_cap_does_not_point_at_exact(self, capsys, restricted):
        # dim x (t - 1) = 19996 > 8192: exact mode refuses this request too
        argv = ["frame", "--group", "o", "--dim", "4", "--t", "5000", "--samples", "10"]
        if restricted:
            argv.append("--parity-restricted")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "--exact" not in err and "cap of 8192 bits" in err

    def test_overflow_under_the_exact_cap_points_at_exact_which_answers(self, capsys):
        # dim x (t - 1) = 1592 is under the cap at any group order
        argv = ["frame", "--group", "o", "--dim", "8", "--t", "200"]
        code, out, err = run(capsys, *argv, "--samples", "10")
        assert code == 1 and out == "" and "use exact mode (--exact)" in err
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--exact")
        assert time.perf_counter() - start < 1.0
        value = json.loads(out)["value"]
        assert code == 0 and err == "" and value.bit_length() == 1565
        # at least the 2^1592 / |O(8)| orbits of the tuples, at most all of them
        assert (1 << 1592) // group_order("orthogonal", 8) < value < 1 << 1592

    def test_restricted_overflow_at_the_quotient_cap_points_at_exact_which_answers(self, capsys):
        # (4 - 2) x (t - 1) = 8192 bits on the even quotient, as for Sp(2)
        argv = ["frame", "--group", "o", "--dim", "4", "--t", "4097", "--parity-restricted"]
        code, out, err = run(capsys, *argv, "--samples", "10", "--seed", "1")
        assert code == 1 and out == "" and "use exact mode (--exact)" in err
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--exact")
        assert time.perf_counter() - start < 1.0
        _, sp, _ = run(capsys, "frame", "--group", "sp", "--dim", "2", "--t", "4097", "--exact")
        assert code == 0 and err == "" and json.loads(out)["value"] == json.loads(sp)["value"]

    def test_library_json_refuses_non_finite(self):
        from pclifford.design import FramePotentialReport

        rep = FramePotentialReport(
            "orthogonal", 4, 2, "monte_carlo", False, estimate=1.0,
            std_error=float("inf"), samples=2,
        )
        with pytest.raises(ValueError):
            rep.to_json()


class TestOrbits:
    def test_orthogonal_4(self, capsys):
        code, out, _ = run(capsys, "orbits", "--group", "o", "--dim", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 4 and payload["sizes"] == [1, 1, 6, 8]

    def test_even_quotient_flag(self, capsys):
        code, out, _ = run(
            capsys, "orbits", "--group", "o", "--dim", "4", "--space", "even-quotient"
        )
        assert code == 0 and json.loads(out)["sizes"] == [1, 3]

    @pytest.mark.parametrize("dim", ["4", "64"])
    def test_symplectic_quotient_rejected(self, capsys, dim):
        """The argument error, not a size limit, at every dimension."""
        code, out, err = run(
            capsys, "orbits", "--group", "sp", "--dim", dim, "--space", "even-quotient"
        )
        assert code == 1 and out == ""
        assert "the symplectic group does not act on the even quotient" in err

    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_dimension_must_be_positive(self, capsys, dim):
        code, out, err = run(capsys, "orbits", "--group", "o", "--dim", dim)
        assert code == 1 and out == "" and "dimension must be >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--group", "o", "--dim", "4", "--tuple-order", "100000000"),
            ("--group", "o", "--dim", "1", "--tuple-order", "8192"),  # 2^8192 orbits
            ("--group", "sp", "--dim", "4096", "--tuple-order", "3"),  # 12288 bits
            ("--group", "sp", "--dim", "64", "--tuple-order", "6"),  # 151470 orbits
            ("--group", "o", "--dim", str(2**70)),
        ],
    )
    def test_oversize_request_exits_quickly(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "orbits", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert "cap" in err
        assert len(err) < 200  # names the limit, not a giant tuple count

    @pytest.mark.parametrize("k", ["17", "10000000"])
    def test_the_one_point_quotient_of_o2_answers_at_any_tuple_order(self, capsys, k):
        argv = ("--group", "o", "--dim", "2", "--space", "even-quotient", "--tuple-order", k)
        start = time.perf_counter()
        code, out, _ = run(capsys, "orbits", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and json.loads(out)["sizes"] == [1]

    @pytest.mark.parametrize("dim", ["16", "18"])
    def test_single_labels_past_the_old_tuple_cap_answer(self, capsys, dim):
        code, out, _ = run(capsys, "orbits", "--group", "sp", "--dim", dim)
        assert code == 0 and json.loads(out)["sizes"] == [1, (1 << int(dim)) - 1]

    @pytest.mark.parametrize(
        "dim, k, count",
        [
            (64, 2, 6),
            (4096, 2, 6),  # 8192 bits per pair: the largest sizes
            (1024, 5, 4590),  # 5120 bits: the most orbits at 1024 labels
        ],
    )
    def test_largest_accepted_requests_print_valid_json(self, capsys, dim, k, count):
        argv = ("orbits", "--group", "sp", "--dim", str(dim), "--tuple-order", str(k))
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert code == 0 and payload["count"] == len(payload["sizes"]) == count
        assert sum(payload["sizes"]) == 1 << (dim * k)


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 6
        assert all(ln.startswith("ok ") for ln in lines)

    def test_failure_propagates(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "_VERIFY_SUITES", [("broken", lambda rng: (False, "boom"))]
        )
        code, out, _ = run(capsys, "verify")
        assert code == 1 and "FAIL broken" in out


class TestExitCodes:
    def test_internal_error_is_2(self, capsys, monkeypatch):
        # the shared parser has bound the handlers already, so the fault goes
        # into the library call that the order handler makes
        def explode(kind, dim):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "level_bits", explode)
        code, _, err = run(capsys, "order", "--group", "o", "--dim", "4")
        assert code == 2 and "internal error" in err

    def test_bad_choice_is_1(self, capsys):
        code, _, _ = run(capsys, "order", "--group", "u", "--dim", "4")
        assert code == 1


def test_stab_encode_names_a_negative_generator_count(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("n=2 r=-1\n"))
    code, out, err = run(capsys, "stab-encode")
    assert code == 1 and out == ""
    assert "r=-1 must be >= 0" in err and "unrecognized" not in err
