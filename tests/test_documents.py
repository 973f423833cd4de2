"""Datum parsing and exact serialization."""

import hashlib
import json
import math
import random
import time
from itertools import product as iter_product

import pytest

from cmtorsion.alpha_engine import build_report, witness_basis
from cmtorsion.cli import main
from cmtorsion.cm_core import CMDatum, CMType, CosetSpace, FiniteGroup, enumerate_types
from cmtorsion import cm_core, documents
from cmtorsion.documents import (
    CSV_HEADER,
    MAX_FACTORS,
    MAX_GROUP_ORDER,
    DatumParseError,
    datum_to_dict,
    dumps_document,
    encode_fraction,
    encode_int,
    load_datum,
    parse_datum,
    report_to_dict,
    sweep_rows_to_csv,
    sweep_rows_to_json,
)
from cmtorsion.exact_linalg import IntSpanBasis
from cmtorsion.finite_level import SweepRow, exponent_sweep
from cmtorsion.mt_torus import DuplicateCharactersError, build_character_system
from cmtorsion.verify import builtin_groups
from fractions import Fraction
from test_acceptance import c2_times_alternating4
from test_search_reference import JOINTS

QUARTIC_DOC = {
    "group": {"kind": "abelian", "invariants": [4]},
    "conj": 2,
    "factors": [{"phi": [0, 1]}],
}


class TestParsing:
    def test_quartic_roundtrip(self):
        datum = parse_datum(QUARTIC_DOC)
        assert datum.group.name == "C4"
        assert datum.conj == 2
        assert datum.factors[0].phi == frozenset([0, 1])
        again = parse_datum(datum_to_dict(datum))
        assert again == datum

    def test_conj_as_coordinates(self):
        doc = {
            "group": {"kind": "abelian", "invariants": [2, 4]},
            "conj": [1, 0],
            "factors": [{"phi": [0, 1, 2, 3]}],
        }
        datum = parse_datum(doc)
        assert datum.conj == 4

    def test_table_group(self):
        dih = FiniteGroup.dihedral(4)
        doc = {
            "group": {"kind": "table", "name": "Dih4",
                      "table": [list(r) for r in dih.table]},
            "conj": 2,
            "factors": [{"phi": [0, 1, 4, 5]}],
        }
        datum = parse_datum(doc)
        assert datum.group == dih

    def test_subgroup_factors(self):
        doc = {
            "group": {"kind": "abelian", "invariants": [2, 2]},
            "conj": 3,
            "factors": [
                {"subgroup": [0, 1], "phi": [0]},
                {"subgroup": [0, 2], "phi": [0]},
            ],
        }
        datum = parse_datum(doc)
        assert [len(f.phi) for f in datum.factors] == [1, 1]

    @pytest.mark.parametrize("mutate,path", [
        (lambda d: d.pop("conj"), "$.conj"),
        (lambda d: d.update(conj=9), "$.conj"),
        (lambda d: d["group"].update(kind="weird"), "$.group.kind"),
        (lambda d: d["group"].update(invariants=[1]), "$.group.invariants[0]"),
        (lambda d: d.update(factors=[]), "$.factors"),
        (lambda d: d["factors"][0].update(phi=[0, 7]), "$.factors[0].phi[1]"),
        (lambda d: d["factors"][0].update(phi=[0, 0]), "$.factors[0].phi"),
        # coordinates run from 0 to k - 1; [6] and [-2] once wrapped
        # around to element 2 while 6 itself was refused
        (lambda d: d.update(conj=[6]), "$.conj"),
        (lambda d: d.update(conj=[-1]), "$.conj"),
        (lambda d: d["factors"][0].update(subgroup=[[0], [4]]), "$.factors[0].subgroup[1]"),
    ])
    def test_error_paths(self, mutate, path):
        doc = json.loads(json.dumps(QUARTIC_DOC))
        mutate(doc)
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == path

    @pytest.mark.parametrize("doc,path", [
        # each document parsed, with True read as 1 and False as 0,
        # before booleans were refused
        ({"group": {"kind": "abelian", "invariants": [2]},
          "conj": True, "factors": [{"phi": [False]}]}, "$.conj"),
        ({"group": {"kind": "abelian", "invariants": [2, 4]},
          "conj": [True, False], "factors": [{"phi": [0, 1, 2, 3]}]}, "$.conj"),
        (dict(QUARTIC_DOC, factors=[{"subgroup": [False], "phi": [0, 1]}]),
         "$.factors[0].subgroup[0]"),
        (dict(QUARTIC_DOC, factors=[{"phi": [0, True]}]), "$.factors[0].phi[1]"),
        ({"group": {"kind": "table", "table": [[0, 1], [1, False]]},
          "conj": 1, "factors": [{"phi": [0]}]}, "$.group.table[1]"),
    ], ids=["conj", "coordinates", "subgroup", "phi", "table"])
    def test_booleans_are_not_integers(self, doc, path, tmp_path, capsys):
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == path
        p = tmp_path / "bool.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(p), "--json", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert path in captured.err

    def test_partition_failure_reports_validation(self):
        doc = json.loads(json.dumps(QUARTIC_DOC))
        doc["conj"] = 1
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == "$"

    def test_bad_json_text(self):
        with pytest.raises(DatumParseError):
            load_datum("{not json")

    def test_bad_table(self):
        doc = {
            "group": {"kind": "table", "table": [[0, 1], [1, 1]]},
            "conj": 1,
            "factors": [{"phi": [0]}],
        }
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == "$.group.table"

    @pytest.mark.parametrize("name", [{"x": [1, 2]}, 7, None, ["C2"]])
    def test_table_name_must_be_a_string(self, name):
        doc = {
            "group": {"kind": "table", "name": name, "table": [[0, 1], [1, 0]]},
            "conj": 1,
            "factors": [{"phi": [0]}],
        }
        with pytest.raises(DatumParseError, match="must be a string") as err:
            parse_datum(doc)
        assert err.value.path == "$.group.name"

    @pytest.mark.parametrize("group,path", [
        ({"kind": "abelian", "invariants": [100000]}, "$.group.invariants"),
        ({"kind": "abelian", "invariants": [2] * 10}, "$.group.invariants"),
        ({"kind": "table", "table": [[]] * (MAX_GROUP_ORDER + 1)}, "$.group.table"),
    ])
    def test_group_order_cap(self, group, path):
        # refused before any table is built or checked
        doc = dict(QUARTIC_DOC, group=group)
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == path
        assert str(MAX_GROUP_ORDER) in str(err.value)


def many_factor_doc(count: int) -> dict:
    """`count` distinct CM types over C2xC16, conjugation (1, 0)."""
    rng = random.Random(count)
    phis = set()
    while len(phis) < count:
        phis.add(tuple(y + 16 * rng.randrange(2) for y in range(16)))
    return {"group": {"kind": "abelian", "invariants": [2, 16]},
            "conj": [1, 0], "factors": [{"phi": list(phi)} for phi in sorted(phis)]}


class TestFactorCap:
    def test_twelve_factors_parse(self):
        datum = parse_datum(many_factor_doc(MAX_FACTORS))
        assert len(datum.factors) == MAX_FACTORS == 12

    @pytest.mark.parametrize("command", [["analyze"], ["simulate", "--ell", "5"]])
    def test_more_factors_exit_2_before_any_build(self, command, tmp_path, capsys):
        doc = many_factor_doc(MAX_FACTORS + 1)
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == "$.factors"
        p = tmp_path / "many.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        assert main([command[0], str(p)] + command[1:]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "$.factors" in captured.err


def table_doc(table, name="custom") -> dict:
    return {"group": {"kind": "table", "name": name, "table": table},
            "conj": 1, "factors": [{"phi": [0]}]}


C2_TABLE = [[0, 1], [1, 0]]


@pytest.fixture
def cold_memo():
    documents._memo_group.cache_clear()
    documents._memo_space.cache_clear()


@pytest.mark.usefixtures("cold_memo")
class TestGroupMemo:
    """Parsing keeps each checked group and coset space for later documents."""

    def test_same_group_shares_objects(self):
        group, conj, sub = c2_times_alternating4()
        doc = {"group": {"kind": "table", "name": "C2xA4",
                         "table": [list(r) for r in group.table]},
               "conj": conj, "factors": [{"subgroup": sub, "phi": [0, 1, 2, 3]}]}
        for first, second in [(QUARTIC_DOC, dict(QUARTIC_DOC, factors=[{"phi": [0, 3]}])),
                              (doc, json.loads(json.dumps(doc)))]:
            a, b = parse_datum(first), parse_datum(second)
            assert a.group is b.group
            assert a.factors[0].space is b.factors[0].space
            assert a.factors[0].space.group is a.group

    def test_refusal_is_not_kept(self):
        for _ in range(2):
            with pytest.raises(DatumParseError) as err:
                parse_datum(table_doc([[0, 1], [1, 1]]))
            assert err.value.path == "$.group.table"
        assert documents._memo_group.cache_info().currsize == 0

    def test_booleans_refused_after_the_integer_table(self):
        assert parse_datum(table_doc(C2_TABLE)).group.order == 2
        with pytest.raises(DatumParseError) as err:
            parse_datum(table_doc([[0, True], [True, 0]]))
        assert err.value.path == "$.group.table[0]"

    def test_names_stay_apart(self):
        reports = []
        for name in ("first", "second"):
            datum = parse_datum(table_doc(C2_TABLE, name))
            assert datum.group.name == datum.factors[0].space.group.name == name
            cs = build_character_system(datum)
            reports.append(report_to_dict(build_report(cs), cs))
        assert [r["datum"]["group"]["name"] for r in reports] == ["first", "second"]
        first, second = (parse_datum(table_doc(C2_TABLE, n)) for n in ("first", "second"))
        assert first.group is not second.group

    def test_cold_and_warm_bytes_agree(self, catalogue):
        def report_text(text):
            cs = build_character_system(load_datum(text))
            return dumps_document(report_to_dict(build_report(cs), cs))

        texts = [json.dumps(datum_to_dict(cs.datum)) for _, cs in catalogue[::9]]
        cold = []
        for text in texts:
            documents._memo_group.cache_clear()
            documents._memo_space.cache_clear()
            cold.append(report_text(text))
        warm = [report_text(text) for text in texts + texts][len(texts):]
        assert documents._memo_group.cache_info().hits > 0
        assert warm == cold

    def test_memo_is_bounded(self):
        count = documents.MEMO_SPACES + 10
        for i in range(count):
            parse_datum(table_doc(C2_TABLE, f"n{i}"))
        assert documents._memo_group.cache_info().currsize == documents.MEMO_GROUPS
        assert documents._memo_space.cache_info().currsize == documents.MEMO_SPACES

    def test_large_groups_are_not_kept(self):
        doc = {"group": {"kind": "abelian", "invariants": [2, 64]},
               "conj": [1, 0], "factors": [{"phi": list(range(64))}]}
        a, b = parse_datum(doc), parse_datum(doc)
        assert a.group == b.group and a.group is not b.group
        assert documents._memo_group.cache_info().currsize == 0
        assert documents._memo_space.cache_info().currsize == 0


class TestEncoding:
    def test_int_threshold(self):
        assert encode_int(2 ** 53 - 1) == 2 ** 53 - 1
        assert encode_int(2 ** 53) == str(2 ** 53)
        assert encode_int(-(2 ** 60)) == str(-(2 ** 60))

    def test_fraction(self):
        assert encode_fraction(Fraction(4, 3)) == {"num": "4", "den": "3"}
        assert encode_fraction(Fraction(2)) == {"num": "2", "den": "1"}

    def test_report_document_deterministic(self):
        datum = parse_datum(QUARTIC_DOC)
        cs = build_character_system(datum)
        report = build_report(cs)
        one = dumps_document(report_to_dict(report, cs))
        two = dumps_document(report_to_dict(report, cs))
        assert one == two
        assert one.endswith("\n")
        doc = json.loads(one)
        assert doc["alpha"] == {"num": "4", "den": "3"}
        assert doc["witness"]["character_indices"] == [0, 1, 2, 3]
        assert doc["datum"]["group"]["invariants"] == [4]

    def test_sweep_csv_frozen(self):
        datum = parse_datum(QUARTIC_DOC)
        cs = build_character_system(datum)
        rows = exponent_sweep(cs, [5, 13], 1)
        text = sweep_rows_to_csv(rows)
        assert text == (
            CSV_HEADER + "\n"
            "5,1,625,64,3,4,1.547952,true\n"
            "13,1,28561,1728,3,4,1.376282,true\n"
        )

    def test_sweep_json_big_ints_become_strings(self):
        datum = parse_datum(QUARTIC_DOC)
        cs = build_character_system(datum)
        rows = exponent_sweep(cs, [101], 5)
        doc = sweep_rows_to_json(rows)
        entry = doc["rows"][0]
        assert isinstance(entry["subgroup_order"], str)
        assert int(entry["subgroup_order"]) == 101 ** 20
        assert entry["n_W"] == 4


# SHA-256 of the JSON report of every buildable translation-class
# representative up to order 10, keyed by (group, conj, phi).  Any change
# to a report byte, the witness or spans_visited shows up here.
PINNED_REPORTS = {
    ("C2", 1, (0,)):
        "7352e7c0cb1dc2960eefa0a70dd45c2f54f54a4824e52a385c1c5c75d7c7e6f5",
    ("C4", 2, (0, 1)):
        "b8dfa2a3bad98c511b6f60ca26a5b499972c3d34850a8f86b92abe29eaffcc3b",
    ("C6", 3, (0, 1, 2)):
        "5bb17a0910cc314c12b733596aa007639730e8cd1c9452a681163d032d9f60d8",
    ("C2xC2xC2", 1, (0, 2, 4, 7)):
        "5c3b3b58424837270d306210bf673e442a5747ca2e6c2f745e5b80875298768f",
    ("C2xC2xC2", 2, (0, 1, 4, 7)):
        "635ad7bb431494d6b5b600e3608f90c41e7968f8fd32164ebd776b22b22dd102",
    ("C2xC2xC2", 3, (0, 1, 4, 6)):
        "cc0f894103f76fd843cfe8b40a2eadf5c554f935deff47015fe759a9167cc8d6",
    ("C2xC2xC2", 4, (0, 1, 2, 7)):
        "2bc9e7bd740344a0fa0296ac1d728b062c1d25f614de3b56efbdb7bca09d0375",
    ("C2xC2xC2", 5, (0, 1, 2, 6)):
        "d733f3cc8392682d6141ab858d7e16f7e5ec8e31352ad79e0f07cd60621582e4",
    ("C2xC2xC2", 6, (0, 1, 2, 5)):
        "4fbae5393826e4304a5b66deab6d8106c63b777300e1131264ee34aa7ee320c1",
    ("C2xC2xC2", 7, (0, 1, 2, 4)):
        "f5505bfbf94581cf565a8fd8f657782b34d393a86231b938bb086affade6fb2c",
    ("C2xC4", 2, (0, 1, 4, 7)):
        "db80cbea8e7497f279463bf29f64aaae927c80f8b9c14850f62680a90e25c453",
    ("C2xC4", 4, (0, 1, 2, 7)):
        "78a7279a1bac55ae207de8a6a0789bafd6899699f5a9ebc4cbb3181f79d7e435",
    ("C2xC4", 6, (0, 1, 2, 5)):
        "aa1cdc5db4adbbd6991280a8eafe1268d6b41ff1d5da7837dfc576ee2adfce23",
    ("C8", 4, (0, 1, 2, 3)):
        "b1f96f72b8074479178c836576b59690b8e8e7380f30d31ed7ec06381fbf2e7a",
    ("C8", 4, (0, 1, 3, 6)):
        "dd1e05f91a294e83b31697e44c81d6f320c555d50a3248d249ed85c8f24bfeac",
    ("C10", 5, (0, 1, 2, 3, 4)):
        "7eae577039d4d1229a9fb948d740f1f9c8a101fb25a5c0ee1e3dd8e13f1e13d7",
    ("C10", 5, (0, 1, 2, 4, 8)):
        "0fb2e6953d46faca06df4b1189083b415a4d1876bd95ca8f55aa4b603f4a61e4",
    ("C10", 5, (0, 1, 3, 4, 7)):
        "cac68ced3547a393f582f312bc9b83b6046707a710c035acc7f1e03c8694864e",
    ("Q8", 2, (0, 1, 4, 5)):
        "d1a22c33306fc3ba4f278571411f96c8c816bedcfe2476288bbb5df5ca82de32",
    ("Q8", 2, (0, 1, 4, 7)):
        "33d7ed3b32f128d648f7b3ad8a5e77e19ac94ba62f78a3f5f8bb1985f082e8a8",
}


def test_report_bytes_pinned_up_to_order_10():
    found = {}
    for group in builtin_groups(10):
        for conj in group.central_involutions():
            for t in enumerate_types(group, conj, up_to_translation=True):
                try:
                    cs = build_character_system(CMDatum(group, conj, (t,)))
                except DuplicateCharactersError:
                    continue
                text = dumps_document(report_to_dict(build_report(cs), cs))
                found[(group.name, conj, t.phi_sorted())] = hashlib.sha256(
                    text.encode("utf-8")).hexdigest()
    assert found == PINNED_REPORTS


# sha256 of the report documents of the multi-factor joints, those whose
# witness is a proper factor union included
PINNED_JOINT_REPORTS = {
    "C2xC2": "c3bd307634039d0ca041e04ea7d0cc270a48d4f392449b5ecdbb9ee4165c0537",
    "C8": "4d0bf212cc482c7d346df23644d4d5668986f8eb2cca612cc6e58258e112ac83",
    "fallback": "d50efe325a27ddd77ff38fd05c6db9eae2832c4074a65db920aac338fab11371",
    "fallback-C4xC4": "7a0a962bfb25caf0f9cec73433c8dff178fc96637558fa80e8f3aa29acf45980",
    "fallback-C2xC8": "cfffca69592d0433eed1138e0503293514c4e3dd23b00780767518b00db6e950",
    "triple-C2xC2xC4": "9498ff378748bb10f2105540677e3e288db3d94a6f67c156e53e5cad00ce8f42",
    "triple-C4xC4": "ad9cbaaf66880fc3566f73a02f1ca739f2bf3261379ef4132f286cd2b53cf644",
}


def test_joint_report_bytes_pinned():
    found = {}
    for name, make in JOINTS.items():
        cs = make()
        text = dumps_document(report_to_dict(build_report(cs), cs))
        found[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert found == PINNED_JOINT_REPORTS


def reference_text(doc) -> str:
    """The canonical text as `json` writes it, the emitter's reference."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.fixture(scope="module")
def catalogue():
    """(report, system) for every buildable raw type of builtin_groups(12)
    and of the C2xA4 coset space, whose group a document sends as a table."""
    data = [(group, conj, t) for group in builtin_groups(12)
            for conj in group.central_involutions()
            for t in enumerate_types(group, conj)]
    group, conj, sub = c2_times_alternating4()
    space = CosetSpace(group, sub)
    pairs = {frozenset((i, space.act(conj, i))) for i in range(space.size)}
    data += [(group, conj, CMType(space, frozenset(picks)))
             for picks in iter_product(*map(sorted, pairs))]
    out = []
    for group, conj, t in data:
        try:
            cs = build_character_system(CMDatum(group, conj, (t,)))
        except DuplicateCharactersError:
            continue
        out.append((build_report(cs), cs))
    assert len(out) == 456
    return out


class TestEmitter:
    """`dumps_document` writes what `json.dumps(indent=2)` writes."""

    def test_reports(self, catalogue):
        for report, cs in catalogue:
            doc = report_to_dict(report, cs)
            assert dumps_document(doc) == reference_text(doc)

    def test_witness_cells_in_lowest_terms(self, catalogue):
        for report, cs in catalogue:
            cells = report_to_dict(report, cs)["witness"]["basis"]
            expected = []
            for row in witness_basis(cs, report.witness):
                pivot = next(x for x in row if x)
                expected.append([encode_fraction(Fraction(x, pivot)) for x in row])
            assert cells == expected

    def test_full_span_basis_from_the_pivot_characters(self, catalogue):
        # every catalogue witness is the full span, whose basis comes from
        # the characters at the pivot columns of H
        for report, cs in catalogue:
            assert len(report.witness.generating_indices) == len(cs.characters)
            span = IntSpanBasis(len(cs.characters[0]))
            for col in cs.characters:
                span.insert(col)
            assert witness_basis(cs, report.witness) == span.key()

    def test_sweep_rows(self, catalogue):
        for report, cs in catalogue[::20]:
            doc = sweep_rows_to_json(exponent_sweep(cs, [3, 101, 10 ** 18 + 3], 2, report))
            assert dumps_document(doc) == reference_text(doc)
        rows = [SweepRow(3, 1, 2 ** 60, 1, 1, 2, math.inf, True),
                SweepRow(5, 3, 2 ** 53, 2 ** 53 - 1, 2, 3, 1.5, False)]
        doc = sweep_rows_to_json(rows)
        assert doc["rows"][0]["estimate_decimal"] == math.inf
        assert dumps_document(doc) == reference_text(doc)

    def test_enumerate_listing(self, tmp_path, capsys):
        out = tmp_path / "types.json"
        assert main(["enumerate", "--max-order", "8", "--json", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == reference_text(json.loads(text))

    @pytest.mark.parametrize("doc", [
        {"name": "C2×A4 — ü", "x": "\u00e9\u4e2d\U0001F600"},
        {"quote\"back\\slash": "tab\tnl\ncr\r\x00\x1f\x7f/"},
        {}, [], [[]], [{}], {"a": {}, "b": [], "c": [[], {}]}, [[[]], [{}, []]],
        {"t": (1, 2), "nested": ((), ((3,),)), "empty": ()},
        [1, True, 0, False], [True, False], [None, None], [None, 1, "x", 1.5],
        {"neg": [-1, -(2 ** 70), -0.0, -2.5], "big": 2 ** 70, "f": [0.1, 1e300, 1e-7]},
        {"inf": [math.inf, -math.inf, math.nan], "one": math.inf},
        ["", "a"], "bare", 7, None, True,
    ])
    def test_hand_cases(self, doc):
        assert dumps_document(doc) == reference_text(doc)

    @pytest.mark.parametrize("doc", [
        {"alpha": Fraction(4, 3)}, [Fraction(1)], {"s": {1, 2}}, {1: "int key"},
        {"deep": [{"x": [1, {2: 3}]}]},
    ], ids=["fraction", "fraction-in-list", "set", "int-key", "nested-int-key"])
    def test_refuses_other_types(self, doc):
        with pytest.raises(TypeError):
            dumps_document(doc)


PLAIN_CELL = {"num": "1", "den": "1"}


class Text(str):
    pass


class Int(int):
    pass


class TestGridMemo:
    """Tables and witness bases are written from a memo of grid texts;
    a grid that only looks like a kept one gets its own text."""

    @pytest.fixture(autouse=True)
    def warm_memo(self):
        # the memo holds plain cells and a plain table, at the depths the
        # cases use, before each case
        documents._memo_grid.cache_clear()
        for depth in range(3):
            docs = [[[PLAIN_CELL]], [[PLAIN_CELL, {"num": "0", "den": "1"}]], [[0, 1], [1, 0]]]
            for _ in range(depth):
                docs = [{"a": doc} for doc in docs]
            for doc in docs:
                dumps_document(doc)
        yield
        documents._memo_grid.cache_clear()

    @pytest.mark.parametrize("doc", [
        [[{"num": 1, "den": "1"}]], [[{"num": True, "den": "1"}]],
        [[{"num": 1.0, "den": "1"}]], [[{"num": "1", "den": 1}]],
        [[{"den": "1", "num": "1"}]], [[{"num": "1", "den": "1", "x": "2"}]],
        [[{"num": "1"}, PLAIN_CELL]], [[{}, PLAIN_CELL]], [[PLAIN_CELL], []],
        [[PLAIN_CELL, 1]], [[PLAIN_CELL], [1]], [PLAIN_CELL, {"num": "0", "den": "1"}],
        [[{"num": "é\"\\\n", "den": "中"}]],
        {"a": [[PLAIN_CELL]], "b": {"c": [[PLAIN_CELL]]}, "d": [[[PLAIN_CELL]]]},
        [-1, 0, 255, 256, 1024, 2 ** 70, -(2 ** 70)], [0, True], [0, 1.0],
        [[0, 1], [1, 0]], [[0, True], [1, 0]], [[0, 1.0], [1, 0]], [[False, 1], [1, 0]],
        [[-1, 1024], [2 ** 70, 0]], [[0, 1], []], [[], []], [[0], [1, 2, 3]],
        ((0, 1), (1, 0)), [(0, 1), [1, 0]], [[0, 1], [1, None]], [[[0, 1]], [[1, 0]]],
        {"a": [[0, 1], [1, 0]], "b": {"c": [[0, 1], [1, 0]]}},
    ])
    def test_cases_match_json(self, doc):
        assert dumps_document(doc) == reference_text(doc)
        assert dumps_document(doc) == reference_text(doc)

    @pytest.mark.parametrize("doc", [
        [[{"num": Text("1"), "den": "1"}]], [[{"num": "1", "den": Text("1")}]],
        [[PLAIN_CELL, {"num": Text("0"), "den": "1"}]],
        [[0, Int(1)], [1, 0]], [[0, 1], [Int(1), 0]],
    ], ids=["str-num", "str-den", "second-cell", "int-first-row", "int-second-row"])
    def test_subclasses_are_refused_after_their_equals(self, doc):
        with pytest.raises(TypeError):
            dumps_document(doc)

    def test_memo_is_bounded(self):
        for i in range(10 ** 4):
            doc = [[{"num": str(i), "den": "1"}]]
            assert dumps_document(doc) == reference_text(doc)
        assert documents._memo_grid.cache_info().currsize == documents.MEMO_GRIDS
        for i in range(100):
            doc = {"table": [[0, i], [i, 0]]}
            assert dumps_document(doc) == reference_text(doc)
        info = documents._memo_grid.cache_info()
        assert info.currsize == documents.MEMO_GRIDS
        # 2048 ints, and 257 cells of two keys and two values
        for wide in ([list(range(256)) * 8], [[PLAIN_CELL] * 257]):
            assert dumps_document(wide) == reference_text(wide)
            assert documents._memo_grid.cache_info() == info

    def test_report_grids_are_kept(self, catalogue):
        for report, cs in catalogue[::40]:
            doc = report_to_dict(report, cs)
            assert dumps_document(doc) == dumps_document(doc) == reference_text(doc)
        assert documents._memo_grid.cache_info().currsize > 6


class TestOnePassParse:
    """A table or a phi list is type-checked in one pass; the first bad
    row or index is still the one named, and no refusal is kept."""

    def c2xa4_doc(self) -> dict:
        group, conj, sub = c2_times_alternating4()
        return {"group": {"kind": "table", "name": "C2xA4",
                          "table": [list(r) for r in group.table]},
                "conj": conj, "factors": [{"subgroup": sub, "phi": [0, 1, 2, 3]}]}

    @pytest.mark.usefixtures("cold_memo")
    @pytest.mark.parametrize("bad,path", [
        (lambda t: t[17].__setitem__(5, True), "$.group.table[17]"),
        (lambda t: t[17].__setitem__(5, 5.0), "$.group.table[17]"),
        (lambda t: (t[20].__setitem__(0, True), t[17].__setitem__(23, "x")),
         "$.group.table[17]"),
        (lambda t: t.__setitem__(9, tuple(t[9])), "$.group.table[9]"),
        (lambda t: t.__setitem__(9, "row"), "$.group.table[9]"),
        (lambda t: t[3].pop(), "$.group.table"),
    ], ids=["bool", "float", "first-bad-row", "tuple-row", "str-row", "ragged"])
    def test_first_bad_row_named_and_nothing_kept(self, bad, path):
        doc = self.c2xa4_doc()
        bad(doc["group"]["table"])
        for _ in range(2):
            with pytest.raises(DatumParseError) as err:
                parse_datum(doc)
            assert err.value.path == path
        assert documents._memo_group.cache_info().currsize == 0
        assert parse_datum(self.c2xa4_doc()).group.order == 24
        assert documents._memo_group.cache_info().currsize == 1

    def test_int_subclass_entries_still_parse(self):
        doc = table_doc([[Int(0), 1], [1, Int(0)]])
        assert parse_datum(doc).group.table == ((0, 1), (1, 0))

    @pytest.mark.parametrize("phi,path", [
        ([0, 1, 2, True], "$.factors[0].phi[3]"), ([0, 8, 1, -1], "$.factors[0].phi[1]"),
        ([0, -1], "$.factors[0].phi[1]"), ([0, 1.0], "$.factors[0].phi[1]"),
        ([0, 1, 1, 2], "$.factors[0].phi"),
    ])
    def test_phi_first_bad_index_named(self, phi, path):
        doc = self.c2xa4_doc()
        doc["factors"][0]["phi"] = phi
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == path


def test_one_validation_per_request(monkeypatch):
    # the constructor checks a datum once: neither the parse nor the
    # build checks it again, and a refused datum is never made
    calls = []
    real = cm_core._problems

    def counting(datum):
        calls.append(datum)
        return real(datum)

    monkeypatch.setattr(cm_core, "_problems", counting)
    text = json.dumps(QUARTIC_DOC)
    build_character_system(load_datum(text))
    assert len(calls) == 1
    datum = load_datum(text)
    build_character_system(datum)
    build_character_system(datum)
    assert len(calls) == 2
    problems = ("conjugation squared is not the identity; "
                "factor 0: phi and its conjugate do not partition the cosets")
    with pytest.raises(ValueError) as err:
        CMDatum(datum.group, 1, datum.factors)
    assert str(err.value) == problems
    assert len(calls) == 3 and real(calls[-1]) != []
    # the parse names the same problems at "$"
    with pytest.raises(DatumParseError) as err:
        load_datum(text.replace('"conj": 2', '"conj": 1'))
    assert str(err.value) == "$: " + problems
    assert len(calls) == 4
