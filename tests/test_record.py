"""The record contract: ``repro._record.record`` behaves as the stdlib
``@dataclass`` it replaces.

Record reprs name cache artifacts (``session._classifier_key`` hashes
``repr(SyncClassifier)``), and shard workers pickle records, so repr,
equality, hashing and pickling must match a stdlib dataclass built from
the same fields, byte for byte.
"""

import ast
import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro import _record
from repro._record import field, fields, record, replace
from repro.cli import main
from repro.core.classify import SyncClassifier
from repro.core.variation import TrendResult
from repro.lint.model import LintConfig, Severity
from repro.profiles.replay import InvocationTable
from repro.sim.network import TopologyNetworkModel, TorusTopology
from repro.trace.definitions import Metric, MetricMode, Paradigm, Region

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _twin(cls):
    """A stdlib dataclass with ``cls``'s name, fields and options."""
    specs = []
    for f in fields(cls):
        options = dict(init=f.init, repr=f.repr, compare=f.compare)
        if f.default is not _record._MISSING:
            options["default"] = f.default
        elif f.default_factory is not _record._MISSING:
            options["default_factory"] = f.default_factory
        specs.append((f.name, object, dataclasses.field(**options)))
    frozen = cls.__hash__ is not None
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen)
    twin.__qualname__ = cls.__qualname__
    return twin


def _as_twin(obj):
    twin = _twin(type(obj))
    return twin(**{f.name: getattr(obj, f.name) for f in fields(obj) if f.init})


def _table() -> InvocationTable:
    n = 3
    ints = np.arange(n, dtype=np.int64)
    times = np.linspace(0.0, 1.0, n)
    return InvocationTable(
        region=ints, t_enter=times, t_leave=times + 1, inclusive=np.ones(n),
        exclusive=np.ones(n), depth=ints + 1, parent=ints - 1,
        outermost=np.ones(n, dtype=bool), enter_index=ints, leave_index=ints,
    )


RECORDS = {
    "SyncClassifier": lambda: SyncClassifier(),
    "SyncClassifier-custom": lambda: SyncClassifier(
        name_patterns=("MPI_Wait*",), exclude_patterns=("MPI_Init",), include_io=True
    ),
    "LintConfig": lambda: LintConfig(
        select=("TL1*",), severity_overrides=(("TL101", Severity.ERROR),)
    ),
    "TrendResult": lambda: TrendResult(
        slope=0.5, relative_slope=0.01, tau=0.3, p_value=0.04, n_steps=12
    ),
    "Region": lambda: Region(7, "MPI_Allreduce", paradigm=Paradigm.MPI),
    "Metric": lambda: Metric(2, "PAPI_TOT_CYC"),
    "InvocationTable": _table,
    "TopologyNetworkModel": lambda: TopologyNetworkModel(
        topology=TorusTopology(dims=(4, 4)), congestion=False
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_eq_hash_match_a_stdlib_dataclass(name):
    obj = RECORDS[name]()
    twin = _as_twin(obj)
    assert repr(obj) == repr(twin)
    # Equal to a copy of itself, and array fields compare by identity first.
    assert obj == replace(obj) and twin == dataclasses.replace(twin)
    assert (obj != replace(obj)) is False
    assert _hash(obj) == _hash(twin)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as err:  # mutable, or frozen with array fields
        return str(err)


def test_field_order_and_match_args_follow_inheritance():
    network = RECORDS["TopologyNetworkModel"]()
    names = [f.name for f in fields(network)]
    assert names[:5] == ["latency", "bandwidth", "eager_threshold", "send_overhead",
                         "recv_overhead"]
    assert names[5:] == ["topology", "hop_latency", "link_bandwidth", "congestion", "_busy"]
    assert type(network).__match_args__ == tuple(names)
    assert type(network).__qualname__ == "TopologyNetworkModel"
    assert type(network).__module__ == "repro.sim.network"
    assert not hasattr(network, "__dict__")


def test_compare_false_and_repr_false_fields_are_skipped():
    a, b = RECORDS["TopologyNetworkModel"](), RECORDS["TopologyNetworkModel"]()
    a._busy["link"] = 1.0
    assert a == b and hash(a) == hash(b)
    assert "_busy" not in repr(a)


def test_default_factory_gives_each_instance_its_own_value():
    a, b = RECORDS["TopologyNetworkModel"](), RECORDS["TopologyNetworkModel"]()
    assert a._busy == {} and a._busy is not b._busy
    assert LintConfig().classifier == SyncClassifier()


def test_post_init_runs():
    assert Metric(1, "m").mode is MetricMode.ABSOLUTE
    assert TorusTopology(dims=(4, 6)).diameter == 5
    with pytest.raises(ValueError, match="requires a topology"):
        TopologyNetworkModel()


def test_frozen_records_refuse_assignment():
    region = RECORDS["Region"]()
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'name'"):
        region.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'name'"):
        del region.name
    config = LintConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.extra = 1  # frozen without slots: no new attributes either


def test_mutable_records_are_unhashable_and_assignable():
    @record(slots=True)
    class Point:
        x: int
        y: int = 0
        tags: list = field(default_factory=list)

    p = Point(1)
    p.y = 2
    assert repr(p) == f"{Point.__qualname__}(x=1, y=2, tags=[])"
    assert p == Point(1, 2) and p != Point(1, 3)
    with pytest.raises(TypeError):
        hash(p)
    with pytest.raises(TypeError):
        Point()
    with pytest.raises(TypeError):
        Point(1, 2, [], 4)
    with pytest.raises(TypeError):
        Point(1, z=3)


def test_replace_builds_a_changed_copy():
    region = RECORDS["Region"]()
    moved = replace(region, line=12)
    assert moved.line == 12 and moved.name == region.name and region.line == 0
    assert replace(LintConfig(), zero_sync_min=3).zero_sync_min == 3


@pytest.mark.parametrize("name", ["Region", "Metric", "TopologyNetworkModel", "LintConfig"])
def test_pickle_and_deepcopy_round_trip(name):
    obj = RECORDS[name]()
    for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert clone == obj and repr(clone) == repr(obj)
        assert type(clone) is type(obj)


def test_pickle_round_trip_keeps_array_fields():
    table = _table()
    clone = pickle.loads(pickle.dumps(table))
    for f in fields(table):
        np.testing.assert_array_equal(getattr(clone, f.name), getattr(table, f.name))


def test_cache_artifact_names_are_pinned(tmp_path, capsys):
    # Artifact names hash record reprs (the SOS entry's last part is the
    # classifier key): a repr that drifts would orphan every cache.
    cache = tmp_path / "cache"
    assert main(["analyze", str(GOLDEN / "tiny.jsonl"), "--cache-dir", str(cache)]) == 0
    names = sorted(p.name for p in cache.iterdir() if not p.name.startswith("stat-"))
    assert names == [
        "inv-02557d75e2f4db2e77f7023f62339d8f.npz",
        "inv-62608b5db8bdfb80c694dead402c5525.npz",
        "sos-51a1466c47075c386062a86ede65fed1-1-bf1af35f2b8f8c66.npz",
        "stats-51a1466c47075c386062a86ede65fed1.npz",
        "valid-51a1466c47075c386062a86ede65fed1.npz",
    ]


def test_no_module_imports_dataclasses_at_import_time():
    # ``dataclasses`` generates code with ``exec`` for every class it
    # defines; repro's records use repro._record, which imports the
    # module only to raise FrozenInstanceError.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders


def _import_time_nodes(node):
    """``node``'s statements that run on import: not function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)
