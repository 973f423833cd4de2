"""Datum documents and report serialization.

A datum document is a small JSON object naming a group, the central
involution and the coset factors.  Serialization keeps every value
exact: integers beyond 2^53 and all rational parts are emitted as
strings so consumers never round-trip through floats.

Parsing keeps, per process, the checked group of each group node and
the coset space of each (group, subgroup), so a stream of documents
naming the same few groups builds and checks each of them once.  Every
field of every document is still checked before the lookup, a group or
space is built and checked in full on every miss, and a refusal is never
kept.  The memo takes groups of order at most `MEMO_MAX_ORDER` (64) and
keeps the `MEMO_GROUPS` (32) groups and `MEMO_SPACES` (64) coset spaces
used last: under 5 MB, the size of 64 spaces over order-64 tables of as
many names.  Larger groups are built for every document.  A table or a
phi list is type-checked in one pass over its entries; its rows or
indices are walked one by one only to name the first bad one.

The canonical text is the one `json.dumps(doc, indent=2,
ensure_ascii=False)` writes, plus a trailing newline.  `dumps_document`
writes it with its own emitter: `json` uses its C encoder only when
`indent` is None and otherwise walks every token in pure Python.  The
emitter takes each list after one type pass over its items, and a grid,
a list of rows whose items are all exact ints (a Cayley table) or all
dicts of exact strs (a witness basis), after a type pass over every
entry, key and value, from a memo of grid texts keyed by the indent and
the entries.  The memo keeps the `MEMO_GRIDS` (40) grids used last whose
keys hold at most `GRID_MAX_SCALARS` (1024) ints or strs, the tables of
groups up to order 32 and bases of up to 256 cells: under 3 MB at a
report's depths when the ints are below 2^53 and the strs hold at most
16 characters.  The analyze-stream pools of seeds 1-10 keep the same 31
grids, in about 240 kB.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from json.encoder import encode_basestring
from operator import countOf
from typing import Any

from .alpha_engine import AlphaReport, witness_basis
from .cm_core import CMDatum, CMType, CosetSpace, FiniteGroup
from .exact_linalg import all_ints
from .finite_level import SweepRow
from .mt_torus import CharacterSystem

SAFE_INT = 2 ** 53

# Largest group a document may name.  Building a group checks its table
# by Light's test, O(n^2) per greedy generator, once per process for the
# orders the memo keeps, so a tiny document must not ask for a huge one;
# 512 admits the order-384 Galois group, 2^4 * 4!, of a generic octic CM
# field (genus 4).
MAX_GROUP_ORDER = 512
# Most factors a document may list: the exponent is read off all
# 2^r - 1 unions of factor blocks, which doubles in time per factor.
MAX_FACTORS = 12

# The memo's bound.  Past order 64 a build costs more than ten times
# the parse, so keeping the group would save little.
MEMO_MAX_ORDER = 64
MEMO_GROUPS = 32
MEMO_SPACES = 64

CSV_HEADER = "ell,n,subgroup_order,degree,dim_W,n_W,estimate_decimal,bound_ok"


class DatumParseError(ValueError):
    """Invalid datum document; `path` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(condition: bool, path: str, message: str):
    if not condition:
        raise DatumParseError(path, message)


def _build_group(kind: str, key: tuple) -> FiniteGroup:
    # key: the invariants, or the table rows and the name
    if kind == "abelian":
        return FiniteGroup.abelian(key)
    table, name = key
    return FiniteGroup(table, name=name)


_memo_group = lru_cache(maxsize=MEMO_GROUPS)(_build_group)


def _build_space(group: FiniteGroup, name: str, subgroup: tuple[int, ...]) -> CosetSpace:
    # groups are equal by table; the name in the memo's key keeps each
    # space over a group of its own document's name
    return CosetSpace(group, subgroup)


_memo_space = lru_cache(maxsize=MEMO_SPACES)(_build_space)


def _parse_group(node: Any, path: str) -> FiniteGroup:
    _expect(isinstance(node, dict), path, "must be an object")
    kind = node.get("kind")
    _expect(kind in ("abelian", "table"), f"{path}.kind",
            "must be 'abelian' or 'table'")
    if kind == "abelian":
        inv = node.get("invariants")
        _expect(isinstance(inv, list) and inv, f"{path}.invariants",
                "must be a nonempty list")
        for i, x in enumerate(inv):
            _expect(all_ints((x,)) and x >= 2, f"{path}.invariants[{i}]",
                    "must be an integer >= 2")
        order = math.prod(inv)
        _expect(order <= MAX_GROUP_ORDER, f"{path}.invariants",
                f"group order exceeds {MAX_GROUP_ORDER}")
        key = tuple(inv)
    else:
        table = node.get("table")
        _expect(isinstance(table, list) and table, f"{path}.table",
                "must be a nonempty list of rows")
        order = len(table)
        _expect(order <= MAX_GROUP_ORDER, f"{path}.table",
                f"group order exceeds {MAX_GROUP_ORDER}")
        # one type pass over every entry; the rows are walked only to
        # name the first bad one, or to admit int subclasses
        if not (countOf(map(type, table), list) == order
                and countOf(map(type, chain.from_iterable(table)), int) == sum(map(len, table))):
            for i, row in enumerate(table):
                _expect(isinstance(row, list) and all_ints(row),
                        f"{path}.table[{i}]", "must be a list of integers")
        name = node.get("name", "custom")
        _expect(isinstance(name, str), f"{path}.name", "must be a string")
        key = (tuple(map(tuple, table)), name)
    build = _memo_group if order <= MEMO_MAX_ORDER else _build_group
    try:
        return build(kind, key)
    except ValueError as e:
        raise DatumParseError(f"{path}.table", str(e))


def _parse_element(node: Any, group: FiniteGroup, path: str) -> int:
    if all_ints((node,)):
        _expect(0 <= node < group.order, path,
                f"element index out of range 0..{group.order - 1}")
        return node
    if isinstance(node, list):
        _expect(all_ints(node), path,
                "coordinates must be integers")
        try:
            return group.index_of_tuple(tuple(node))
        except (KeyError, ValueError):
            raise DatumParseError(path, "not a valid coordinate list")
    raise DatumParseError(path, "must be an element index or coordinate list")


def parse_datum(doc: Any) -> CMDatum:
    """Build a datum from a parsed JSON document, checking every field."""
    _expect(isinstance(doc, dict), "$", "document must be an object")
    group = _parse_group(doc.get("group"), "$.group")
    _expect("conj" in doc, "$.conj", "missing")
    conj = _parse_element(doc["conj"], group, "$.conj")
    factors_node = doc.get("factors")
    _expect(isinstance(factors_node, list) and factors_node, "$.factors",
            "must be a nonempty list")
    _expect(len(factors_node) <= MAX_FACTORS, "$.factors",
            f"more than {MAX_FACTORS} factors")
    build_space = _memo_space if group.order <= MEMO_MAX_ORDER else _build_space
    factors = []
    for i, fnode in enumerate(factors_node):
        fpath = f"$.factors[{i}]"
        _expect(isinstance(fnode, dict), fpath, "must be an object")
        sub_node = fnode.get("subgroup", [0])
        _expect(isinstance(sub_node, list) and sub_node, f"{fpath}.subgroup",
                "must be a nonempty list of elements")
        subgroup = [_parse_element(x, group, f"{fpath}.subgroup[{j}]")
                    for j, x in enumerate(sub_node)]
        try:
            space = build_space(group, group.name, tuple(sorted(set(subgroup))))
        except ValueError as e:
            raise DatumParseError(f"{fpath}.subgroup", str(e))
        phi_node = fnode.get("phi")
        _expect(isinstance(phi_node, list) and phi_node, f"{fpath}.phi",
                "must be a nonempty list of coset indices")
        # one pass, as for the table
        if not (countOf(map(type, phi_node), int) == len(phi_node)
                and 0 <= min(phi_node) and max(phi_node) < space.size):
            for j, x in enumerate(phi_node):
                _expect(all_ints((x,)) and 0 <= x < space.size,
                        f"{fpath}.phi[{j}]",
                        f"coset index out of range 0..{space.size - 1}")
        phi = frozenset(phi_node)
        _expect(len(phi) == len(phi_node), f"{fpath}.phi",
                "coset indices must be distinct")
        factors.append(CMType(space, phi))
    try:
        return CMDatum(group, conj, tuple(factors))
    except ValueError as e:
        raise DatumParseError("$", str(e))


def load_datum(text: str) -> CMDatum:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DatumParseError("$", f"not valid JSON: {e}")
    except RecursionError:
        raise DatumParseError("$", "JSON nested too deeply")
    except ValueError as e:
        # an int literal past the interpreter's digit limit
        raise DatumParseError("$", f"unreadable JSON: {e}")
    return parse_datum(doc)


def datum_to_dict(datum: CMDatum) -> dict:
    group = datum.group
    if group.abelian_invariants is not None:
        gnode: dict = {"kind": "abelian",
                       "invariants": list(group.abelian_invariants)}
    else:
        gnode = {"kind": "table", "name": group.name,
                 "table": [list(row) for row in group.table]}
    return {
        "group": gnode,
        "conj": datum.conj,
        "factors": [
            {"subgroup": list(f.space.subgroup), "phi": list(f.phi_sorted())}
            for f in datum.factors
        ],
    }


def encode_int(v: int):
    """Integers stay native inside the float-safe range, else strings."""
    return v if abs(v) < SAFE_INT else str(v)


def encode_fraction(v: Fraction) -> dict:
    return {"num": str(v.numerator), "den": str(v.denominator)}


# The cells of -16 .. 16 over 1, copied into each document: the rows of
# a witness basis hold mostly 0 and +-1.
_UNIT_CELLS = {x: {"num": str(x), "den": "1"} for x in range(-16, 17)}


def _reduced_cells(row: tuple[int, ...]) -> list[dict]:
    # x / pivot in lowest terms; the pivot is positive (`witness_basis`),
    # and a unit pivot leaves every entry in lowest terms
    pivot = next(filter(None, row))
    if pivot == 1:
        try:
            return list(map(dict.copy, map(_UNIT_CELLS.__getitem__, row)))
        except KeyError:
            return [{"num": str(x), "den": "1"} for x in row]
    cells = []
    for x in row:
        g = math.gcd(x, pivot)
        cells.append({"num": str(x // g), "den": str(pivot // g)})
    return cells


def report_to_dict(report: AlphaReport, cs: CharacterSystem) -> dict:
    witness = report.witness
    return {
        "datum": datum_to_dict(cs.datum),
        "genus": report.genus,
        "dim": report.dim,
        "defect": report.defect,
        "alpha": encode_fraction(report.alpha),
        "gamma": encode_fraction(report.gamma),
        "shortcut_used": report.shortcut_used,
        "witness": {
            "dim": witness.dim,
            "n": witness.n,
            "ratio": encode_fraction(witness.ratio),
            "character_indices": list(witness.generating_indices),
            "basis": [_reduced_cells(row) for row in witness_basis(cs, witness)],
        },
        "bound_checks": dict(report.bound_checks),
        "saturation_index": cs.saturation_index,
        "spans_visited": report.spans_visited,
    }


# Scalar texts as `json` writes them with ensure_ascii=False
_SCALAR_TEXT = {
    str: encode_basestring,
    int: int.__repr__,
    float: json.dumps,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}

# The texts of grids written last: lists of rows whose items are all
# exact ints (Cayley tables) or all dicts of exact strs (witness bases),
# keyed by the indent and the rows' content after a type pass.  A str
# equals no value of another type, and the type pass keeps bools and
# floats out of int keys, so equal keys write equal texts.  A grid whose
# key holds more than GRID_MAX_SCALARS ints or strs (a cell's keys and
# values both count) is written without the memo; see the module
# docstring for the bytes.
MEMO_GRIDS = 40
GRID_MAX_SCALARS = 1024


def _join(parts, newline: str, inner: str, brackets: str) -> str:
    return brackets[0] + inner + ("," + inner).join(parts) + newline + brackets[1]


def _build_grid(key: tuple) -> str:
    # key: the indent, the rows' lengths and their ints; or the indent,
    # the rows' lengths and their cells' sizes, keys and values
    inner, lens = key[0], key[1]
    field = inner + "  "
    if len(key) == 3:
        texts = map(int.__repr__, key[2])
    else:
        items = iter([f"{k}: {v}" for k, v in zip(map(encode_basestring, key[3]),
                                                   map(encode_basestring, key[4]))])
        cell = field + "  "
        texts = iter([_join(islice(items, size), field, cell, "{}") if size else "{}"
                      for size in key[2]])
    return ("," + inner).join([_join(islice(texts, size), inner, field, "[]") if size else "[]"
                               for size in lens])


_memo_grid = lru_cache(maxsize=MEMO_GRIDS)(_build_grid)


def _grid(rows, inner: str):
    # the rows' texts joined, for rows of exact ints or of dicts of exact
    # strs; else None
    entries = list(chain.from_iterable(rows))
    lens = tuple(map(len, rows))
    kind = type(entries[0]) if entries else int
    if countOf(map(type, entries), kind) != len(entries):
        return None
    if kind is int:
        key = (inner, lens, tuple(entries))
        scalars = len(entries)
    elif kind is dict:
        keys = list(chain.from_iterable(entries))
        values = list(chain.from_iterable(map(dict.values, entries)))
        scalars = 2 * len(keys)
        if countOf(map(type, keys), str) + countOf(map(type, values), str) != scalars:
            return None
        key = (inner, lens, tuple(map(len, entries)), tuple(keys), tuple(values))
    else:
        return None
    build = _memo_grid if scalars <= GRID_MAX_SCALARS else _build_grid
    return build(key)


def _items_texts(value, inner: str):
    # the texts of the items of a nonempty list or tuple, each on a line
    # of its own at `inner`
    kinds = set(map(type, value))
    if len(kinds) == 1:
        text = _SCALAR_TEXT.get(next(iter(kinds)))
        if text is not None:
            return map(text, value)
    if kinds <= {list, tuple}:
        text = _grid(value, inner)
        if text is not None:
            return (text,)
    return [_emit(v, inner) for v in value]


def _emit(value, newline: str) -> str:
    # `newline` is "\n" plus the indent of the line holding `value`
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    inner = newline + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        # encode_basestring raises TypeError on a key that is no str
        parts = [f"{encode_basestring(k)}: "
                 f"{text(v) if (text := _SCALAR_TEXT.get(type(v))) else _emit(v, inner)}"
                 for k, v in value.items()]
        return _join(parts, newline, inner, "{}")
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        return _join(_items_texts(value, inner), newline, inner, "[]")
    raise TypeError(f"{type(value).__name__} is not a document value")


def dumps_document(doc: dict) -> str:
    """Canonical text form: two-space indent, LF, trailing newline.

    Byte for byte `json.dumps(doc, indent=2, ensure_ascii=False) + "\\n"`
    for documents of str-keyed dicts, lists, tuples, str, int, float,
    bool and None, each of exactly that type; anything else raises
    TypeError.  `json` reaches its C encoder only without `indent`, so
    its indented form would cost a Python generator step per token.
    """
    return _emit(doc, "\n") + "\n"


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.ell), str(r.n), str(r.subgroup_order), str(r.degree),
            str(r.dim_w), str(r.n_w), f"{r.estimate_decimal:.6f}",
            "true" if r.bound_ok else "false",
        ]))
    return "\n".join(lines) + "\n"


def sweep_rows_to_json(rows: list[SweepRow]) -> dict:
    return {
        "rows": [
            {
                "ell": r.ell,
                "n": r.n,
                "subgroup_order": encode_int(r.subgroup_order),
                "degree": encode_int(r.degree),
                "dim_W": r.dim_w,
                "n_W": r.n_w,
                "estimate_decimal": round(r.estimate_decimal, 6),
                "bound_ok": r.bound_ok,
            }
            for r in rows
        ]
    }
