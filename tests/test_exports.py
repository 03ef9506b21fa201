"""Tests for the public surface: the top-level lazy export table (PEP 562)
and a scan that every public name in ``src/repro`` is one the program reads."""

import ast
import importlib
from pathlib import Path

import pytest

import repro


class TestLazyExports:
    def test_every_export_resolves(self):
        for name in repro._EXPORTS:
            assert getattr(repro, name) is not None, name

    def test_exports_match_their_providing_module(self):
        for name, module_name in repro._EXPORTS.items():
            module = importlib.import_module(module_name)
            assert getattr(repro, name) is getattr(module, name), name

    def test_all_covers_exports_and_version(self):
        assert set(repro.__all__) == set(repro._EXPORTS) | {"__version__"}
        assert repro.__all__ == sorted(repro._EXPORTS) + ["__version__"]

    def test_dir_matches_all(self):
        # dir() sorts whatever __dir__ returns, so compare as sets
        assert set(dir(repro)) == set(repro.__all__)

    def test_version_is_exported(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_service_names_in_export_table(self):
        for name in (
            "Engine",
            "EngineCache",
            "Executor",
            "make_executor",
            "BatchResult",
            "RunResult",
            "SystemSpec",
            "ScenarioSpec",
            "ServiceSpec",
            "ComponentRef",
            "list_components",
        ):
            assert repro._EXPORTS[name] == "repro.service"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'Bogus'"):
            repro.Bogus

    def test_lazy_spelling_sanity(self):
        # A typo in _EXPORTS would make getattr fail only at first touch;
        # spot-check identity for a few heavily used names.
        from repro.core import HiRISEConfig, HiRISEPipeline
        from repro.service import Engine
        from repro.stream import StreamRunner

        assert repro.HiRISEConfig is HiRISEConfig
        assert repro.HiRISEPipeline is HiRISEPipeline
        assert repro.Engine is Engine
        assert repro.StreamRunner is StreamRunner


# -- the public surface is what the program reads ------------------------------

REPO = Path(__file__).resolve().parents[1]

#: The trees whose non-test files make up the program.
READERS = ("src", "benchmarks", "examples", "perfbench", "tools")

#: Public names that no non-test file reads and that stay anyway, each with
#: its reason: test oracles and names the docs publish.  Nothing else.
WAIVED = {
    "repro.sensor.adc.ADCModel.convert": (
        "uint16-code oracle: the sensor tests compare every read against "
        "to_float(convert(v, rng))"
    ),
    "repro.sensor.adc.ADCModel.to_float": "normalizes the convert() oracle's codes",
    "repro.analog.pooling_circuit.build_resistive_average": (
        "passive averaging core the MNA tests check the solver on"
    ),
    "repro.analog.pooling_circuit.ideal_shared_node_voltage": (
        "closed form the MNA tests check the solver against"
    ),
    "repro.analog.pooling_circuit.invert_shared_node_voltage": (
        "inverse of that closed form, checked the same way"
    ),
    "repro.server.client.wait_for_server": "published in docs/api.md",
    "repro.ml.model.Sequential.state_dict": "published in docs/architecture.md",
    "repro.ml.model.Sequential.load_state_dict": "published in docs/architecture.md",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _registered(node: ast.AST) -> bool:
    """Decorated ``@register_*(...)`` or ``@<registry>.register(...)``: the
    def is reached through its registry, not by name."""
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "register" or name.startswith("register_"):
            return True
    return False


def _public_defs(root: Path):
    """``(qualname, def node, path)`` for every top-level public function or
    class in ``src/repro`` and every public method of such a class."""
    src = root / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (*_FUNCS, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node, path
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _FUNCS) and not method.name.startswith("_"):
                        yield f"{module}.{node.name}.{method.name}", method, path


def _read_names(node: ast.AST, reexports: bool) -> list[str]:
    """The bare names ``node`` reads: a loaded name, an attribute, an
    imported name or an identifier string (``perfbench/spans.py`` resolves
    its seams by name).  An ``__init__.py``'s imports and strings are its
    re-exports (``__all__``, the lazy export table) and read nothing."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if reexports:
        return []
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value] if node.value.isidentifier() else []
    return []


def _reads(root: Path) -> dict[str, list[tuple[Path, int]]]:
    """Bare name -> where each non-test file of the program reads it."""
    reads: dict[str, list[tuple[Path, int]]] = {}
    for tree in READERS:
        for path in sorted((root / tree).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                for name in _read_names(node, path.name == "__init__.py"):
                    reads.setdefault(name, []).append((path, node.lineno))
    return reads


def unread_names(root: Path) -> dict[str, str]:
    """Qualname -> ``path:line`` of every public def that the program reads
    nowhere outside the def's own body."""
    reads = _reads(root)
    unread = {}
    for qualname, node, path in _public_defs(root):
        if _registered(node):
            continue
        if not any(
            where != path or not node.lineno <= line <= node.end_lineno
            for where, line in reads.get(node.name, ())
        ):
            unread[qualname] = f"{path.relative_to(root)}:{node.lineno}"
    return unread


class TestPublicSurface:
    """A public name in ``src/repro`` is one the program reads: a name only
    tests read is deleted with its tests, or waived with a reason."""

    @pytest.fixture(scope="class")
    def unread(self) -> dict[str, str]:
        return unread_names(REPO)

    def test_every_public_name_is_read(self, unread):
        stray = {q: where for q, where in unread.items() if q not in WAIVED}
        assert not stray, "public names only tests read:\n" + "\n".join(
            f"  {where}: {q}" for q, where in sorted(stray.items())
        )

    def test_every_waiver_is_still_needed(self, unread):
        stale = sorted(set(WAIVED) - set(unread))
        assert not stale, f"waived names that are gone or now read: {stale}"

    def test_scan_rules(self, tmp_path):
        files = {
            "src/repro/__init__.py": 'from .mod import exported\n__all__ = ["exported"]\n',
            "src/repro/mod.py": (
                "def used(): pass\n"
                "def by_string(): pass\n"
                "def exported(): pass\n"
                "def recursive(n):\n    return recursive(n - 1)\n"
                "@register_thing('x')\ndef registered(): pass\n"
                "@FRAMES.register('y')\nclass Frame: pass\n"
                "class Kept:\n"
                "    def called(self): pass\n"
                "    def own(self):\n        return self.own()\n"
                "    def _private(self): pass\n"
                "def _helper(): pass\n"
            ),
            "tools/use.py": (
                "from repro.mod import used\n"
                "used(Kept().called)\n"
                'SEAMS = [("repro.mod", None, "by_string")]\n'
            ),
            "tools/test_use.py": "from repro.mod import exported, recursive\n",
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        assert set(unread_names(tmp_path)) == {
            "repro.mod.exported", "repro.mod.recursive", "repro.mod.Kept.own",
        }
