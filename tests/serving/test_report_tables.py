"""The columnar tables of the serving report: one contract, three schemas.

:class:`RequestTable`, :class:`BatchTable` and :class:`StealTable` store
one numpy column per field of their record dataclass.  Every case here is
parametrized over the three, so the contract — record round trips,
construction, defaults, dtypes, slicing, offsets, concatenation, equality,
pickling, the empty table and ragged-column rejection — holds for each
schema alike.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields
from typing import Any

import numpy as np
import pytest

from repro.serving import (
    BatchRecord,
    BatchTable,
    RequestRecord,
    RequestTable,
    StealRecord,
    StealTable,
)

I64 = np.dtype(np.int64)
F64 = np.dtype(np.float64)


@dataclass(frozen=True)
class Case:
    table: type
    record: type
    schema: tuple[tuple[str, np.dtype], ...]  # column order and dtypes
    defaults: dict[str, Any]  # columns a caller may omit, and their fill
    derived: tuple[str, ...]  # properties shared by the record and the table
    records: list

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.schema]

    def full(self):
        return self.table.from_records(self.records)


CASES = {
    "requests": Case(
        table=RequestTable,
        record=RequestRecord,
        schema=(
            ("index", I64),
            ("arrival_s", F64),
            ("dispatch_s", F64),
            ("completion_s", F64),
            ("chip", I64),
            ("batch_index", I64),
            ("batch_size", I64),
            ("seq_len", I64),
            ("attempts", I64),
            ("slo_class", I64),
            ("deadline_s", F64),
        ),
        defaults={"attempts": 0, "slo_class": 0, "deadline_s": np.inf},
        derived=("latency_s", "wait_s", "met_deadline"),
        records=[
            RequestRecord(0, 0.0, 0.5, 1.5, 1, 0, 2, 128),
            RequestRecord(1, 0.25, 0.5, 1.5, 1, 0, 2, 128, attempts=1),
            RequestRecord(2, 1.0, 2.0, 2.75, 0, 1, 1, 64, 0, 2, 1.5),
            RequestRecord(5, 3.0, 3.0, 3.5, 0, 2, 1, 512, 2, 1, 0.25),
        ],
    ),
    "batches": Case(
        table=BatchTable,
        record=BatchRecord,
        schema=(
            ("index", I64),
            ("chip", I64),
            ("dispatch_s", F64),
            ("completion_s", F64),
            ("size", I64),
            ("seq_len", I64),
            ("energy_j", F64),
            ("tier", I64),
        ),
        defaults={"tier": 0},
        derived=("service_s",),
        records=[
            BatchRecord(0, 1, 0.5, 1.5, 2, 128, 1e-3),
            BatchRecord(1, 0, 2.0, 2.75, 1, 64, 5e-4, tier=1),
            BatchRecord(2, 0, 3.0, 3.5, 1, 512, 2e-3),
        ],
    ),
    "steals": Case(
        table=StealTable,
        record=StealRecord,
        schema=(
            ("batch_index", I64),
            ("queue", I64),
            ("chip", I64),
            ("decided_s", F64),
        ),
        defaults={},
        derived=(),
        records=[
            StealRecord(batch_index=3, queue=1, chip=0, decided_s=0.5),
            StealRecord(batch_index=7, queue=0, chip=1, decided_s=0.75),
            StealRecord(batch_index=9, queue=2, chip=1, decided_s=1.25),
        ],
    ),
}


@pytest.fixture(params=list(CASES.values()), ids=list(CASES))
def case(request) -> Case:
    return request.param


def test_records_round_trip(case):
    table = case.full()
    assert len(table) == len(case.records)
    assert list(table) == case.records
    assert [table[i] for i in range(len(table))] == case.records
    assert table[-1] == case.records[-1]
    assert case.table.from_records(list(table)) == table


def test_record_views_carry_python_scalars(case):
    record = case.full()[0]
    for name, dtype in case.schema:
        assert type(getattr(record, name)) is (int if dtype == I64 else float)


def test_schema_is_the_record_field_order(case):
    assert [field.name for field in fields(case.record)] == case.names


def test_column_dtypes_and_values(case):
    table = case.full()
    for name, dtype in case.schema:
        column = getattr(table, name)
        assert column.dtype == dtype, name
        assert column.tolist() == [getattr(r, name) for r in case.records]


def test_positional_and_keyword_construction_agree(case):
    table = case.full()
    columns = {name: getattr(table, name) for name in case.names}
    assert case.table(*columns.values()) == table
    assert case.table(**columns) == table


def test_optional_columns_take_the_record_defaults(case):
    table = case.full()
    required = [name for name in case.names if name not in case.defaults]
    positional = case.table(*[getattr(table, name) for name in required])
    keyword = case.table(**{name: getattr(table, name) for name in required})
    assert positional == keyword
    for name, value in case.defaults.items():
        column = getattr(positional, name)
        assert column.dtype == dict(case.schema)[name]
        assert column.size == len(table)
        assert np.all(column == value)
    # a record built without its optional fields carries the same fill
    for record in positional:
        for name, value in case.defaults.items():
            assert getattr(record, name) == value


def test_derived_columns_match_the_record_properties(case):
    table = case.full()
    for name in case.derived:
        assert getattr(table, name).tolist() == [
            getattr(r, name) for r in case.records
        ]


def test_slices_are_sub_tables(case):
    table = case.full()
    for part in (slice(1, None), slice(None, -1), slice(None, None, 2), slice(2, 2)):
        assert table[part] == case.table.from_records(case.records[part])


def test_shifted_offsets_only_the_named_columns(case):
    table = case.full()
    ints = [name for name, dtype in case.schema if dtype == I64][:2]
    shifted = table.shifted(**{name: 10 for name in ints})
    for name, dtype in case.schema:
        expected = getattr(table, name) + (10 if name in ints else 0)
        assert getattr(shifted, name).dtype == dtype
        assert np.array_equal(getattr(shifted, name), expected)


def test_coerce_keeps_a_table_and_converts_records(case):
    table = case.full()
    assert case.table.coerce(table) is table
    assert case.table.coerce(iter(case.records)) == table
    assert case.table.coerce(()) == case.table.from_records([])


def test_concatenate(case):
    head = case.table.from_records(case.records[:1])
    tail = case.table.from_records(case.records[1:])
    table = case.full()
    assert case.table.concatenate([head, tail]) == table
    empty = case.table.from_records([])
    assert case.table.concatenate([empty, table, empty]) == table


def test_equality(case):
    table = case.full()
    assert table == case.table.from_records(case.records)
    assert table != case.table.from_records(case.records[:-1])
    assert table != case.table.from_records(case.records[::-1])
    assert table.__eq__(object()) is NotImplemented
    for other in CASES.values():
        if other.table is not case.table:
            assert table.__eq__(other.full()) is NotImplemented
            assert table != other.full()


def test_pickle_round_trip(case):
    table = case.full()
    clone = pickle.loads(pickle.dumps(table))
    assert type(clone) is case.table
    assert clone == table
    assert list(clone) == case.records
    for name, dtype in case.schema:
        assert getattr(clone, name).dtype == dtype


def test_empty_table(case):
    empty = case.table.from_records([])
    assert len(empty) == 0
    assert list(empty) == []
    for name, dtype in case.schema:
        column = getattr(empty, name)
        assert column.dtype == dtype
        assert column.shape == (0,)
    assert empty == case.table(*[[] for _ in case.schema])
    assert empty != case.full()


@pytest.mark.parametrize("position", [1, -1])
def test_ragged_column_names_the_column(case, position):
    table = case.full()
    columns = {name: getattr(table, name) for name in case.names}
    name = case.names[position]
    columns[name] = columns[name][:-1]
    with pytest.raises(ValueError, match=f"'{name}'"):
        case.table(**columns)
