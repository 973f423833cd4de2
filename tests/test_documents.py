"""Datum parsing and exact serialization."""

import hashlib
import json

import pytest

from cmtorsion.alpha_engine import build_report
from cmtorsion.cm_core import CMDatum, FiniteGroup, enumerate_types
from cmtorsion.documents import (
    CSV_HEADER,
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
from cmtorsion.finite_level import exponent_sweep
from cmtorsion.mt_torus import DuplicateCharactersError, build_character_system
from cmtorsion.verify import builtin_groups
from fractions import Fraction

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
        assert datum.genus == 2
        assert len(datum.factors) == 2

    @pytest.mark.parametrize("mutate,path", [
        (lambda d: d.pop("conj"), "$.conj"),
        (lambda d: d.update(conj=9), "$.conj"),
        (lambda d: d["group"].update(kind="weird"), "$.group.kind"),
        (lambda d: d["group"].update(invariants=[1]), "$.group.invariants[0]"),
        (lambda d: d.update(factors=[]), "$.factors"),
        (lambda d: d["factors"][0].update(phi=[0, 7]), "$.factors[0].phi[1]"),
        (lambda d: d["factors"][0].update(phi=[0, 0]), "$.factors[0].phi"),
    ])
    def test_error_paths(self, mutate, path):
        doc = json.loads(json.dumps(QUARTIC_DOC))
        mutate(doc)
        with pytest.raises(DatumParseError) as err:
            parse_datum(doc)
        assert err.value.path == path

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
        "894f349aa17e17dc18021584986b20ea1a7d8a0bc79576a24c06e4e532c3f3c8",
    ("C4", 2, (0, 1)):
        "48a215a7b384ba62f10883724c0d079c2bef4b78c0efedea2c51739e5d51a603",
    ("C6", 3, (0, 1, 2)):
        "371dbfb485fe8ac4bfb422b750808a319b88b214286ebfb20a201086a2e16c19",
    ("C2xC2xC2", 1, (0, 2, 4, 7)):
        "3c6ee1c48b852231c27df366a68bd05b89cdf0636fc63dcb21ce4851d78c901a",
    ("C2xC2xC2", 2, (0, 1, 4, 7)):
        "10679baa267b3dbe86fb43549557f8fff7344d3f408a9ce8cc5d0d9b715fc56f",
    ("C2xC2xC2", 3, (0, 1, 4, 6)):
        "b223ca9cb6a769e47bb4c4afb2472ace2fe38fc841087d29e0dc3d98bb89ca6e",
    ("C2xC2xC2", 4, (0, 1, 2, 7)):
        "7ba8ee0e9e70f337c259ba6bc6c347461a8309c35672c0b55853b93885f56f27",
    ("C2xC2xC2", 5, (0, 1, 2, 6)):
        "a1ddab1b174a500e54ae06327f4171f432f8656394fd5aa6d09adf282a8376a2",
    ("C2xC2xC2", 6, (0, 1, 2, 5)):
        "b58e998e307251ddc25e1c0d2ca68b77e2a564e28165f8f7b57a498ca4e214f6",
    ("C2xC2xC2", 7, (0, 1, 2, 4)):
        "51c606ee858f7c846f9121fc96f70ee2a448878e74aa966bcb505e5331d14ff3",
    ("C2xC4", 2, (0, 1, 4, 7)):
        "35ce92c92b48d39f6d77334d79dba50a6c8c0a444d9fd6fc808bcf98aaa19f74",
    ("C2xC4", 4, (0, 1, 2, 7)):
        "70c1c7607db07df6da12a4f0fce992f15328000575635bb5cec6643a2485ca0a",
    ("C2xC4", 6, (0, 1, 2, 5)):
        "e9210f82f106db8921a569fbbef1c8758302e26d98ad3acb528f31f70bc1e360",
    ("C8", 4, (0, 1, 2, 3)):
        "8a0119e2fabd94b2bce1baf7727ecb1809f240f0b1e41cfaaa595cb37abeaaad",
    ("C8", 4, (0, 1, 3, 6)):
        "c02a3a672d803570c6e654febb998ff22278e269b4e94c69cfc2336e06d46dcb",
    ("C10", 5, (0, 1, 2, 3, 4)):
        "699b8ce06739e2921eaa81708d91e7da68afc9ba269d21c222d47df773f29625",
    ("C10", 5, (0, 1, 2, 4, 8)):
        "f8c59291e4d347141f04646521179727838ec8afb607297f6e84a1c83bf1262a",
    ("C10", 5, (0, 1, 3, 4, 7)):
        "26f1c4b5f52c420f9e1d2bcb847a0d542159d31330dfb0505862862102131442",
    ("Q8", 2, (0, 1, 4, 5)):
        "0c54797c36b1580708a1358816fd2082c561d8140c78401510775286ca91dfac",
    ("Q8", 2, (0, 1, 4, 7)):
        "08e73d5197ba55ba6586460b08a988922ad67e29366a279b348104e8fa314142",
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
