"""End-to-end command checks through main(argv)."""

import hashlib
import json
import sys
import time

import pytest

from cmtorsion.cli import main

QUARTIC = """\
{
  "group": {"kind": "abelian", "invariants": [4]},
  "conj": 2,
  "factors": [{"phi": [0, 1]}]
}
"""

BIQUADRATIC = """\
{
  "group": {"kind": "abelian", "invariants": [2, 2]},
  "conj": 3,
  "factors": [{"phi": [0, 2]}]
}
"""

# the fallback joint of tests/test_search_reference.py: its full span is
# not densest, so its witness is a proper union of factors
FALLBACK = """\
{
  "group": {"kind": "abelian", "invariants": [2, 2, 4]},
  "conj": 8,
  "factors": [{"phi": [0, 1, 2, 3, 4, 5, 14, 15]},
              {"subgroup": [0, 2, 4, 6, 9, 11, 13, 15], "phi": [0]}]
}
"""


def assert_refused(capsys) -> str:
    # a refusal prints one error line and nothing on stdout; the line
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def assert_write_error(capsys, path):
    # an output path that cannot be written is invalid input: exit 2,
    # one error line naming the path, nothing on stdout
    assert str(path) in assert_refused(capsys)
    assert not path.exists()


@pytest.fixture
def default_str_digits():
    # the interpreter's default limit on the digits str() writes of an int
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def quartic_file(tmp_path):
    p = tmp_path / "quartic.json"
    p.write_text(QUARTIC, encoding="utf-8")
    return str(p)


class TestAnalyze:
    def test_human_output(self, quartic_file, capsys):
        assert main(["analyze", quartic_file]) == 0
        out = capsys.readouterr().out
        assert out == (
            "group C4, order 4, conj 2\n"
            "factors 1, genus 2, characters 4\n"
            "dim 3, defect 0, nondegenerate\n"
            "alpha = gamma = 4/3 (shortcut: nondegenerate)\n"
            "witness: dim 3, contains 4 characters [0, 1, 2, 3]\n"
            "bound checks: 6/6 passed\n"
            "saturation index 1\n"
        )

    def test_json_report(self, quartic_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", quartic_file, "--json", str(out)]) == 0
        capsys.readouterr()
        first = out.read_bytes()
        assert main(["analyze", quartic_file, "--json", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == first
        doc = json.loads(first)
        assert doc["alpha"] == {"num": "4", "den": "3"}
        assert doc["spans_visited"] == 1

    # the witness is read off the factor-union table, so no budget on
    # flats can stop either command on the fallback joint
    @pytest.mark.parametrize("command", [
        ["analyze"], ["simulate", "--ell", "3"]], ids=["analyze", "simulate"])
    def test_flat_budget_exit_code(self, command, tmp_path, capsys):
        p = tmp_path / "fallback.json"
        p.write_text(FALLBACK, encoding="utf-8")
        assert main([command[0], str(p)] + command[1:]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command[0] == "analyze":
            assert ("witness: dim 7, contains 16 characters "
                    f"{list(range(16))}\n") in captured.out
            # one span per union of the two factors
            out = tmp_path / "report.json"
            assert main(["analyze", str(p), "--json", str(out)]) == 0
            assert json.loads(out.read_bytes())["spans_visited"] == 3
        else:
            assert captured.out.splitlines()[1] == (
                "3,1,43046721,64,7,16,4.226567,true")

    def test_duplicate_exit_code(self, tmp_path, capsys):
        p = tmp_path / "biquad.json"
        p.write_text(BIQUADRATIC, encoding="utf-8")
        assert main(["analyze", str(p)]) == 3
        assert assert_refused(capsys) == (
            "error: characters 0 and 2 coincide; the datum is degenerate\n")

    def test_invalid_document_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"group": {"kind": "abelian"}}', encoding="utf-8")
        assert main(["analyze", str(p)]) == 2
        assert "$.group.invariants" in assert_refused(capsys)
        # a datum the constructor refuses is named at "$"
        p.write_text(QUARTIC.replace('"conj": 2', '"conj": 1'), encoding="utf-8")
        assert main(["analyze", str(p)]) == 2
        assert assert_refused(capsys) == (
            "error: $: conjugation squared is not the identity; "
            "factor 0: phi and its conjugate do not partition the cosets\n")

    def test_oversized_group_exit_code(self, tmp_path, capsys):
        p = tmp_path / "huge.json"
        p.write_text('{"group": {"kind": "abelian", "invariants": [100000]},'
                     ' "conj": 50000, "factors": [{"phi": [0]}]}', encoding="utf-8")
        assert main(["analyze", str(p)]) == 2
        assert "$.group.invariants" in assert_refused(capsys)

    def test_non_string_group_name_exit_code(self, tmp_path, capsys):
        p = tmp_path / "named.json"
        p.write_text('{"group": {"kind": "table", "name": {"x": [1, 2]},'
                     ' "table": [[0, 1], [1, 0]]}, "conj": 1,'
                     ' "factors": [{"phi": [0]}]}', encoding="utf-8")
        assert main(["analyze", str(p), "--json", "-"]) == 2
        assert "$.group.name" in assert_refused(capsys)

    @pytest.mark.parametrize("conj", ["[6]", "[-2]"])
    def test_coordinate_out_of_range_exit_code(self, tmp_path, capsys, conj):
        # both once wrapped around to element 2, the quartic's conj
        p = tmp_path / "wrapped.json"
        p.write_text(QUARTIC.replace('"conj": 2', f'"conj": {conj}'), encoding="utf-8")
        assert main(["analyze", str(p)]) == 2
        assert assert_refused(capsys) == "error: $.conj: not a valid coordinate list\n"

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/x.json"]) == 2
        assert assert_refused(capsys) == (
            "error: [Errno 2] No such file or directory: '/nonexistent/x.json'\n")

    def test_unwritable_json_path(self, quartic_file, tmp_path, capsys):
        # the OSError used to end in a traceback with exit 1
        out = tmp_path / "missing" / "report.json"
        assert main(["analyze", quartic_file, "--json", str(out)]) == 2
        assert_write_error(capsys, out)


# Files that ended in a traceback and exit 1, the code of failed checks,
# before they were refused as invalid input
UNREADABLE = {
    "not-utf8": b'{"group": {"kind": "table", "name": "\xff\xfe"}}',
    "nested-200000-deep": b"[" * 200000 + b"]" * 200000,
    "int-of-5000-digits": (b'{"group": {"kind": "abelian", "invariants": [' + b"9" * 5000
                           + b']}, "conj": 1, "factors": [{"phi": [0]}]}'),
}


@pytest.mark.parametrize("command", [["analyze"], ["simulate", "--ell", "5"], ["oracle"]],
                         ids=["analyze", "simulate", "oracle"])
@pytest.mark.parametrize("name", UNREADABLE)
def test_unreadable_file_is_invalid_input(tmp_path, capsys, default_str_digits, name, command):
    p = tmp_path / "datum.json"
    p.write_bytes(UNREADABLE[name])
    assert main([command[0], str(p)] + command[1:]) == 2
    assert_refused(capsys)


class TestSimulate:
    def test_csv_stdout(self, quartic_file, capsys):
        assert main(["simulate", quartic_file, "--ell", "5,13,101"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == \
            "ell,n,subgroup_order,degree,dim_W,n_W,estimate_decimal,bound_ok"
        assert lines[1] == "5,1,625,64,3,4,1.547952,true"
        assert lines[3] == "101,1,104060401,1000000,3,4,1.336214,true"

    def test_csv_file_deterministic(self, quartic_file, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["simulate", quartic_file, "--ell", "5,13",
                     "--csv", str(out)]) == 0
        first = out.read_bytes()
        assert b"\r" not in first
        assert main(["simulate", quartic_file, "--ell", "5,13",
                     "--csv", str(out)]) == 0
        assert out.read_bytes() == first

    def test_json_output(self, quartic_file, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["simulate", quartic_file, "--ell", "5", "--level", "2",
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["rows"][0]["degree"] == 8000
        assert doc["rows"][0]["ell"] == 5

    @pytest.mark.parametrize("flag", ["--csv", "--json"])
    def test_unwritable_output_path(self, quartic_file, tmp_path, capsys, flag):
        out = tmp_path / "missing" / "sweep"
        assert main(["simulate", quartic_file, "--ell", "5", flag, str(out)]) == 2
        assert_write_error(capsys, out)

    @pytest.mark.parametrize("csv, js", [("sweep.csv", "sweep.json"), ("-", "-"),
                                         ("sweep.csv", "-")], ids=["files", "stdout", "mixed"])
    def test_refuses_csv_with_json(self, quartic_file, tmp_path, capsys, csv, js):
        # --json used to win, and the CSV was dropped without a word
        out = [p if p == "-" else str(tmp_path / p) for p in (csv, js)]
        assert main(["simulate", quartic_file, "--ell", "5",
                     "--csv", out[0], "--json", out[1]]) == 2
        assert assert_refused(capsys) == "error: pass at most one of --csv or --json\n"
        assert [p.name for p in tmp_path.iterdir()] == ["quartic.json"]

    # SHA-256 of the output with --ell 5,13 --level 2
    @pytest.mark.parametrize("flag, digest", [
        ("--csv", "abbdc4dfe0b59651a783a0d608c625e58839626c27307449a0c39c27338f85e0"),
        ("--json", "bb4ebdf229d52a512230ead883de862c7b06c87e1f87d4b241be81a92b55f86a"),
    ])
    def test_each_output_flag_alone(self, quartic_file, tmp_path, capsys, flag, digest):
        out = tmp_path / "sweep"
        argv = ["simulate", quartic_file, "--ell", "5,13", "--level", "2", flag]
        assert main(argv + ["-"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest
        assert main(argv + [str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_rejects_even_ell(self, quartic_file, capsys):
        assert main(["simulate", quartic_file, "--ell", "4"]) == 2
        assert "odd prime" in assert_refused(capsys)
        # an ell that is no integer is refused before the sweep
        assert main(["simulate", quartic_file, "--ell", "5,x"]) == 2
        assert assert_refused(capsys) == "error: --ell wants a comma-separated integer list\n"

    def test_rejects_bad_level(self, quartic_file, capsys):
        assert main(["simulate", quartic_file, "--ell", "5",
                     "--level", "0"]) == 2
        assert assert_refused(capsys) == "error: --level must be a positive integer\n"

    # SHA-256 of the output with --ell 3,101: 101^(4 * 536) is the
    # largest order with at most 4300 digits, str's default limit
    @pytest.mark.parametrize("level, form, digest", [
        ("500", [], "73e05eed57ae55a94190029565f85f3fb65414154efd101a40382563ec591575"),
        ("536", [], "4e3c0372ff3ecdfef051f72817f3c48b55eb3ce6cf36ddfaa98cc6f57f38f509"),
        ("500", ["--json", "-"],
         "a2b70d2da42c2da8a04d7e310edffc43bef89e284062bc3ac24c6b4b9b9e86f4"),
        ("536", ["--json", "-"],
         "3772301a56dcbb99218de75a314fdfd6aa0b9f92a8e91b68befa9f090414d36c"),
    ])
    def test_large_level_written(self, quartic_file, capsys, default_str_digits,
                                 level, form, digest):
        assert main(["simulate", quartic_file, "--ell", "3,101", "--level", level] + form) == 0
        out = capsys.readouterr().out
        assert str(101 ** (4 * int(level))) in out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("level", ["537", "600", "1000000"])
    @pytest.mark.parametrize("form", [[], ["--json", "-"]], ids=["csv", "json"])
    def test_unwritable_order_refused(self, quartic_file, capsys, default_str_digits,
                                      level, form):
        # ended in a traceback from str(101 ** (4 * level)); level 10^6
        # first spent about 30 s on the powers
        start = time.perf_counter()
        assert main(["simulate", quartic_file, "--ell", "101,3", "--level", level] + form) == 2
        assert time.perf_counter() - start < 1.0
        assert assert_refused(capsys) == (f"error: subgroup order 101^{4 * int(level)} has more "
                                          "than 4300 decimal digits\n")


class TestOracle:
    def test_agreement(self, quartic_file, capsys):
        assert main(["oracle", quartic_file]) == 0
        out = capsys.readouterr().out
        assert out == "exact: 4/3\noracle: 4/3\nagreement: yes\n"

    def test_too_large(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({
            "group": {"kind": "abelian", "invariants": [14]},
            "conj": 7,
            "factors": [{"phi": [0, 1, 2, 3, 4, 5, 6]}],
        }), encoding="utf-8")
        assert main(["oracle", str(p)]) == 2
        assert assert_refused(capsys) == (
            "error: oracle handles at most 12 characters, system has 14\n")


class TestEnumerate:
    def test_single_group(self, capsys):
        assert main(["enumerate", "--abelian", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 types listed, 4 buildable, 0 degenerate" in out

    def test_translation_classes(self, capsys):
        assert main(["enumerate", "--abelian", "4", "--up-to-translation"]) == 0
        out = capsys.readouterr().out
        assert "1 types listed, 1 buildable, 0 degenerate" in out

    def test_primitive_only_filters(self, capsys):
        assert main(["enumerate", "--abelian", "2,2"]) == 0
        everything = capsys.readouterr().out
        assert main(["enumerate", "--abelian", "2,2", "--primitive-only"]) == 0
        primitive = capsys.readouterr().out
        assert len(primitive.splitlines()) < len(everything.splitlines())

    def test_flag_validation(self, capsys):
        for flags, message in [
            ([], "pass exactly one of --abelian or --max-order"),
            (["--abelian", "4", "--max-order", "8"], "pass exactly one of --abelian or --max-order"),
            (["--abelian", "4,6"], "invariant factors must form a divisor chain"),
            (["--abelian", "x"], "--abelian wants a comma-separated integer list"),
            (["--abelian", "2,1"], "invariant factors must be at least 2"),
            (["--max-order", "1"], "--max-order must be at least 2"),
        ]:
            assert main(["enumerate"] + flags) == 2
            assert assert_refused(capsys) == f"error: {message}\n"

    def test_refuses_too_many_types_before_building(self, capsys):
        # order 64 would list 2^32 raw types per involution
        start = time.perf_counter()
        for flags, log2 in [(["--abelian", "64"], 32), (["--abelian", "2,2,4,4"], 32),
                            (["--max-order", "26"], 13)]:
            assert main(["enumerate"] + flags) == 2
            assert f"2^{log2} raw CM types" in assert_refused(capsys)
        assert time.perf_counter() - start < 1.0

    def test_json_listing(self, tmp_path, capsys):
        out = tmp_path / "types.json"
        assert main(["enumerate", "--max-order", "4", "--json", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        names = {e["group"] for e in doc["types"]}
        assert names == {"C2", "C4", "C2xC2"}

    def test_unwritable_json_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "types.json"
        assert main(["enumerate", "--max-order", "4", "--json", str(out)]) == 2
        assert_write_error(capsys, out)


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify", "--max-group-order", "6"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "translation classes fully checked: 3" in out

    def test_refuses_orders_above_32_before_enumerating(self, capsys):
        # order 64 would list 2^32 raw types per involution
        start = time.perf_counter()
        assert main(["verify", "--max-group-order", "64"]) == 2
        assert "2^32 raw CM types" in assert_refused(capsys)
        assert main(["verify", "--max-group-order", "33"]) == 2
        assert "2^16 raw CM types" in assert_refused(capsys)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("order", ["1", "0", "-5"])
    def test_refuses_orders_below_2_by_the_option_name(self, capsys, order):
        assert main(["verify", "--max-group-order", order]) == 2
        assert assert_refused(capsys) == "error: max_group_order must be at least 2\n"

    def test_thread_count_does_not_change_output(self, capsys, monkeypatch):
        assert main(["verify", "--max-group-order", "8"]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv("CMT_THREADS", "4")
        assert main(["verify", "--max-group-order", "8"]) == 0
        threaded = capsys.readouterr().out
        assert serial == threaded
