"""The codec's rules, written once: types, presence, paths, hooks."""

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field

import pytest

from repro.codec import Tagged, classes, hook, serializable
from repro.core.profiling import PhaseProfile, PhaseStats
from repro.experiments.report import TrendCheck
from repro.lint.findings import Finding
from repro.service import SpecError, SystemSpec


class RowError(ValueError):
    pass


@serializable("leaf", RowError)
@dataclass(frozen=True)
class Leaf:
    count: int
    ratio: float = 0.5

    def __post_init__(self):
        if self.count < 0:
            raise RowError(f"leaf.count: must be >= 0, got {self.count}")


@serializable("tree", RowError, shorthand=lambda name: {"name": name})
@dataclass(frozen=True)
class Tree:
    name: str
    leaves: tuple[Leaf, ...] = ()
    tags: dict[str, int] = field(default_factory=dict)
    best: Leaf | None = None
    scratch: list = field(default_factory=list, metadata=hook(local="stays home"))

    @property
    def size(self) -> int:
        return len(self.leaves)


@serializable("forest", RowError, derived={"size": int})
@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...] = ()
    flagged: Tree | None = field(default=None, metadata=hook(error=KeyError))

    @property
    def size(self) -> int:
        return len(self.trees)


def raises(cls, data, message, error=RowError):
    with pytest.raises(error) as exc:
        cls.from_dict(data)
    assert exc.value.args[0] == message
    return exc.value


class TestRules:
    def test_round_trip_and_key_order(self):
        tree = Tree("oak", (Leaf(1, 2.0), Leaf(2)), {"a": 1}, Leaf(0))
        data = tree.to_dict()
        assert list(data) == ["name", "leaves", "tags", "best"]
        assert Tree.from_dict(data) == tree
        assert Tree.from_json(tree.to_json()) == tree
        assert Forest.from_dict(Forest((tree,)).to_dict()).trees == (tree,)

    def test_int_rejects_bool_and_float_stores_float(self):
        raises(Leaf, {"count": True}, "leaf.count: expected int, got True")
        raises(Leaf, {"count": 1.0}, "leaf.count: expected int, got 1.0")
        leaf = Leaf.from_dict({"count": 1, "ratio": 3})
        assert leaf.ratio == 3.0 and isinstance(leaf.ratio, float)
        raises(Leaf, {"count": 1, "ratio": False}, "leaf.ratio: expected a finite float, got False")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_float_rejects_non_finite(self, value):
        raises(Leaf, {"count": 1, "ratio": value}, f"leaf.ratio: expected a finite float, got {value!r}")

    def test_presence_and_unknown_fields(self):
        raises(Leaf, {}, "leaf.count: required field is missing")
        raises(
            Leaf,
            {"count": 1, "zeta": 0, 7: 0},
            "leaf: unknown field(s) [7, 'zeta']; known fields: ['count', 'ratio']",
        )
        raises(Leaf, [1], "leaf: expected a dict, got [1]")

    def test_paths_name_indices_and_keys(self):
        raises(Tree, {"name": "t", "leaves": [{"count": 1}, {"count": "x"}]},
               "tree.leaves[1].count: expected int, got 'x'")
        raises(Tree, {"name": "t", "tags": {"a": 1, "b": None}}, "tree.tags.b: expected int, got None")
        raises(Tree, {"name": "t", "leaves": {"count": 1}}, "tree.leaves: expected a list, got {'count': 1}")
        raises(Forest, {"trees": [{"name": "t", "best": {"count": -1}}]},
               "forest.trees[0].best: leaf.count: must be >= 0, got -1")

    def test_root_post_init_error_propagates_unchanged(self):
        raises(Leaf, {"count": -2}, "leaf.count: must be >= 0, got -2")

    def test_shorthand(self):
        assert Tree.from_dict("elm") == Tree("elm")
        assert Forest.from_dict({"trees": ["elm"]}).trees == (Tree("elm"),)

    def test_local_field_never_crosses_the_wire(self):
        assert "scratch" not in Tree("t").to_dict()
        raises(Tree, {"name": "t", "scratch": []},
               "tree: unknown field(s) ['scratch']; known fields: ['best', 'leaves', 'name', 'tags']")
        with pytest.raises(RowError, match="tree.scratch: stays home"):
            Tree("t", scratch=[1]).to_dict()

    def test_derived_written_first_and_rechecked(self):
        data = Forest((Tree("a"),)).to_dict()
        assert list(data) == ["size", "trees", "flagged"] and data["size"] == 1
        del data["size"]
        assert Forest.from_dict(data).size == 1  # optional on read
        raises(Forest, dict(data, size=2), "forest.size: expected 1, got 2")

    def test_error_hook_retypes_failures_below_its_field(self):
        raises(Forest, {"flagged": {"name": 5}}, "forest.flagged.name: expected str, got 5", KeyError)
        raises(Forest, {"trees": [{"name": 5}]}, "forest.trees[0].name: expected str, got 5")

    def test_from_json_wraps_bad_json(self):
        with pytest.raises(RowError, match="leaf: not valid JSON"):
            Leaf.from_json("{")

    def test_compiled_classes_are_listed(self):
        assert {Leaf, Tree, Forest, SystemSpec, PhaseProfile} <= set(classes())

    def test_unsupported_annotation_is_a_definition_error(self):
        with pytest.raises(TypeError, match="cannot handle annotation"):
            @serializable("bad")
            @dataclass
            class Bad:
                value: set


class TestTagged:
    def test_dispatch_and_discriminator_errors(self):
        family = Tagged("msg", RowError)

        @family.register("hello")
        @dataclass(frozen=True)
        class Hello:
            who: str

        assert Hello.type == "hello"
        assert Hello("x").to_dict() == {"type": "hello", "who": "x"}
        assert family.decode({"type": "hello", "who": "x"}) == Hello("x")
        for data, message in [
            ({"who": "x"}, "msg.type: required field is missing"),
            ({"type": ["hello"]}, "msg.type: expected str, got ['hello']"),
            ({"type": "bye"}, "msg.type: unknown msg type 'bye'; known types: ['hello']"),
            ("hello", "msg: expected a JSON object, got 'hello'"),
        ]:
            with pytest.raises(RowError) as exc:
                family.decode(data)
            assert str(exc.value) == message
        with pytest.raises(RowError, match="hello.type: expected 'hello', got 'bye'"):
            Hello.from_dict({"type": "bye", "who": "x"})
        with pytest.raises(ValueError, match="already registered"):
            family.register("hello")(Hello)


class TestTypedDecoderErrors:
    """Every decoder raises its own error type, naming the field path."""

    @pytest.mark.parametrize(
        "cls, data, message",
        [
            (PhaseStats, {"path": "a", "calls": 1}, "phase.total_s: required field is missing"),
            (PhaseStats, {"path": "a", "calls": "1", "total_s": 0.1}, "phase.calls: expected int"),
            (PhaseProfile, {"phases": [{"path": "a"}]}, "profile.phases[0].calls: required field is missing"),
            (TrendCheck, {"name": "t", "detail": ""}, "trend.passed: required field is missing"),
            (TrendCheck, {"name": "t", "passed": 1, "detail": ""}, "trend.passed: expected bool"),
            (Finding, {"rule_id": "r", "path": "p", "line": 1, "message": "m"}, "finding.col: required field is missing"),
        ],
    )
    def test_rows(self, cls, data, message):
        with pytest.raises(ValueError, match=message.replace("[", r"\[").replace("]", r"\]")):
            cls.from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"config": {"pool_k": "4"}}, r"system\.config\.pool_k: expected int, got '4'"),
            ({"config": {"pool_k": 2.5}}, r"system\.config\.pool_k: expected int, got 2\.5"),
            ({"noise": {"read_noise": "x"}}, r"system\.noise\.read_noise: expected a finite float"),
            ({"detector": {"name": "grid", "params": []}}, r"system\.detector\.params: expected a dict"),
        ],
    )
    def test_nested_spec_fields(self, data, message):
        with pytest.raises(SpecError, match=message):
            SystemSpec.from_dict(data)


def test_rows_round_trip_through_json():
    profile = PhaseProfile((PhaseStats("a", 1, 1.0), PhaseStats("a.b", 2, 0.25)))
    assert PhaseProfile.from_json(profile.to_json()) == profile
    finding = Finding("seeded-rng", "x.py", 3, 1, "unseeded")
    assert Finding.from_dict(json.loads(json.dumps(finding.to_dict()))) == finding


def test_importing_faults_loads_no_numpy():
    code = "import sys, repro.faults; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
