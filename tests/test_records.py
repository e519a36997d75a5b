"""The result records: immutable named tuples of their fields.

Every record type is built once from a small SIR run and checked for the
same contract: read-only fields, equality and hashing by fields, a repr of
its fields in declaration order, defaults, ``_replace``, and copies through
pickle and deepcopy.  The three records that check their fields do so on
construction, on ``_replace`` and on unpickling alike.
"""

import copy
import importlib
import inspect
import pickle

import pytest

from odeobs.conserved import Partition, alternative_observables, partition_jacobians
from odeobs.embedding import build_embedding, generic_rank, observability_verdict
from odeobs.expr import ExactProgram, Sym, Symbol, UnknownSymbolError, compile_exact, mul
from odeobs.graph import build_graph, graphical_observable, minimal_sensor_sets, scc_condensation
from odeobs.model import (
    ConservedSet,
    ModelError,
    ObservationSet,
    OdeSystem,
    load_model,
    verify_all_conserved,
    verify_conserved,
)
from odeobs.numeric import WitnessPair, integrate_rk4
from odeobs.poly import normalize_rational

from conftest import model_path

MODULES = ("model", "conserved", "graph", "embedding", "numeric", "poly")


def _records():
    sys, _ = verify_all_conserved(load_model(model_path("sir")))
    S, I, R = sys.states
    quantity = sys.conserved[0]
    g = ConservedSet((quantity,))
    obs = sys.observations[0]
    verdict = verify_conserved(sys, quantity)
    partition = Partition((S, I), (R,))
    search = alternative_observables(sys, g, (R,))
    graph = build_graph(sys)
    condensation = scc_condensation(graph)
    menu = minimal_sensor_sets(condensation)
    embedding = build_embedding(sys, obs)
    assessment = observability_verdict(sys, obs)
    found = search.positives()[0]
    records = [
        quantity,
        g,
        obs,
        sys,
        verdict,
        partition,
        partition_jacobians(g, partition),
        found.conditions,
        found,
        search,
        graph,
        condensation,
        menu.sets[0],
        menu,
        graphical_observable(condensation, (R,)),
        embedding,
        generic_rank(embedding),
        assessment,
        integrate_rk4(sys, (997, 3, 0), {"beta": 0.0004, "lambda": 0.04}, 0.5, 1.0),
        WitnessPair((1.0, 2.0, 3.0), (1.0, 2.5, 2.5), 0.0, 1.0, "S"),
        normalize_rational(mul(Sym(S), Sym(I))),
        verdict.detail,
    ]
    return {type(r).__name__: r for r in records}


RECORDS = _records()


def _fields(record):
    return {name: getattr(record, name) for name in record._fields}


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_type_is_covered():
    declared = set()
    for name in MODULES:
        module = importlib.import_module(f"odeobs.{name}")
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and hasattr(cls, "_fields"):
                declared.add(cls_name)
    public = {n for n in declared if not n.startswith("_")}
    assert public == set(RECORDS)
    assert len(RECORDS) == 22


@pytest.mark.parametrize("name", sorted(RECORDS))
class TestRecord:
    def test_fields_are_read_only(self, name):
        record = RECORDS[name]
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], getattr(record, record._fields[0]))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_equal_fields_compare_equal(self, name):
        record = RECORDS[name]
        twin = type(record)(**_fields(record))
        assert twin is not record and twin == record
        if _hashable(tuple(record)):
            assert hash(twin) == hash(record)
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_repr_lists_fields_in_declaration_order(self, name):
        record = RECORDS[name]
        body = ", ".join(f"{k}={v!r}" for k, v in _fields(record).items())
        assert repr(record) == f"{name}({body})"

    def test_keyword_construction_fills_defaults(self, name):
        record = RECORDS[name]
        cls = type(record)
        required = {k: v for k, v in _fields(record).items() if k not in cls._field_defaults}
        built = cls(**required)
        for field, default in cls._field_defaults.items():
            assert getattr(built, field) == default

    def test_replace_keeps_the_class(self, name):
        record = RECORDS[name]
        first = record._fields[0]
        copied = record._replace(**{first: getattr(record, first)})
        assert type(copied) is type(record) and copied == record

    @pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy])
    def test_pickle_and_deepcopy_round_trip(self, name, copier):
        record = RECORDS[name]
        copied = copier(record)
        assert type(copied) is type(record)
        if name == "Trajectory":  # its numpy arrays compare elementwise
            assert repr(copied) == repr(record)
        else:
            assert copied == record


def test_with_methods_keep_the_class():
    quantity = RECORDS["ConservedQuantity"]
    assert type(quantity.with_verified("exact")) is type(quantity)
    assert quantity.with_verified("exact").verified == "exact"
    sys = RECORDS["OdeSystem"]
    assert type(sys.with_conserved(())) is OdeSystem
    assert sys.with_conserved(()).conserved == ()


S, I = Symbol("S", "state"), Symbol("I", "state")
k = Symbol("k", "parameter")
Q = Symbol("Q", "state")


def test_exact_program_is_no_record_and_compares_by_identity():
    rows = ((mul(Sym(S), Sym(I)),),)
    program, twin = compile_exact(rows), compile_exact(rows)
    assert not isinstance(program, tuple)
    assert program == program and program != twin
    assert hash(program) == object.__hash__(program)
    assert twin.instrs == program.instrs and twin.outputs == program.outputs
    with pytest.raises(AttributeError):
        program.extra = 1
    assert type(program) is ExactProgram


# the checking records: class, fields, exception and message
INVALID = {
    "overlapping blocks": (Partition, ((S,), (S, I)), ValueError, "partition blocks overlap"),
    "empty s": (Partition, ((S, I), ()), ValueError, "sufficient block must be nonempty"),
    "no outputs": (ObservationSet, ((), "none"), ModelError, "observation set 'none' has no outputs"),
    "wrong rhs count": (
        OdeSystem, ("m", (S, I), (k,), (Sym(I),)), ModelError,
        "one right-hand side per state required",
    ),
    "duplicate names": (
        OdeSystem, ("m", (S,), (Symbol("S", "parameter"),), (Sym(S),)), ModelError,
        "duplicate symbol names in model",
    ),
    "undeclared symbol": (
        OdeSystem, ("m", (S,), (k,), (mul(Sym(Q), Sym(k)),)), UnknownSymbolError,
        "unknown symbol 'Q'",
    ),
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_checked_records_raise_however_built(case):
    cls, fields, error, message = INVALID[case]
    with pytest.raises(error) as raised:
        cls(*fields)
    assert str(raised.value) == message
    # an instance built around the check, as an old or crafted pickle holds it
    unchecked = tuple.__new__(cls, fields)
    with pytest.raises(error, match=message):
        pickle.loads(pickle.dumps(unchecked))
    with pytest.raises(error, match=message):
        copy.deepcopy(unchecked)
    with pytest.raises(error, match=message):
        unchecked._replace()
