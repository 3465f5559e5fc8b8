"""Tests for ``tools/check_invariants.py`` (the repository-invariant linter).

Two halves: the real tree must be clean (that is the CI gate), and each
invariant must actually fire on a synthetic violation — otherwise the green
check proves nothing.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_invariants", REPO_ROOT / "tools" / "check_invariants.py"
)
check_invariants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_invariants)


def _check_source(tmp_path, source, relative="repro/fake.py"):
    path = tmp_path / "fake.py"
    path.write_text(source, encoding="utf-8")
    return check_invariants.check_file(path, relative=relative)


class TestRealTree:
    def test_src_tree_is_clean(self):
        assert check_invariants.check_tree() == []


class TestFrozenMutation:
    def test_setattr_outside_lifecycle_modules_flagged(self, tmp_path):
        findings = _check_source(
            tmp_path, "def poke(node):\n    object.__setattr__(node, 'x', 1)\n"
        )
        assert [f[2] for f in findings] == ["frozen-mutation"]

    def test_setattr_in_lifecycle_module_allowed(self, tmp_path):
        findings = _check_source(
            tmp_path,
            "def poke(node):\n    object.__setattr__(node, 'x', 1)\n",
            relative="repro/dsl/ast.py",
        )
        assert findings == []


class TestLegacyImport:
    def test_from_import_flagged(self, tmp_path):
        findings = _check_source(
            tmp_path, "from repro.solver.legacy import LegacySolver\n"
        )
        assert [f[2] for f in findings] == ["legacy-import"]

    def test_plain_import_flagged(self, tmp_path):
        findings = _check_source(tmp_path, "import repro.solver.legacy\n")
        assert [f[2] for f in findings] == ["legacy-import"]

    def test_reexport_from_solver_package_flagged(self, tmp_path):
        findings = _check_source(
            tmp_path, "from repro.solver import legacy\n"
        )
        assert [f[2] for f in findings] == ["legacy-import"]

    def test_owning_package_allowed(self, tmp_path):
        # The owning package gets no exemption: ``repro.solver`` does not
        # re-export the legacy solver, so its __init__ is flagged too.
        findings = _check_source(
            tmp_path,
            "from repro.solver.legacy import LegacySolver\n",
            relative="repro/solver/__init__.py",
        )
        assert [f[2] for f in findings] == ["legacy-import"]

    def test_normal_solver_import_allowed(self, tmp_path):
        findings = _check_source(tmp_path, "from repro.solver import Solver\n")
        assert findings == []


class TestUnregisteredMutable:
    def test_empty_dict_flagged(self, tmp_path):
        findings = _check_source(tmp_path, "_CACHE = {}\n")
        assert [f[2] for f in findings] == ["unregistered-mutable"]

    def test_empty_constructor_flagged(self, tmp_path):
        source = "import weakref\n_CACHE = weakref.WeakKeyDictionary()\n"
        findings = _check_source(tmp_path, source)
        assert [f[2] for f in findings] == ["unregistered-mutable"]

    def test_registered_cache_allowed(self, tmp_path):
        source = (
            "from repro import caches\n"
            "_CACHE = caches.register_cache('fake._CACHE', caches.GuardedDict())\n"
        )
        assert _check_source(tmp_path, source) == []

    def test_literal_table_allowed(self, tmp_path):
        # Tables built in full at import time are read-only by convention.
        assert _check_source(tmp_path, "_OPERATORS = {'Or': 2, 'Not': 1}\n") == []

    def test_dunder_all_allowed(self, tmp_path):
        assert _check_source(tmp_path, "__all__ = []\n") == []

    def test_function_local_containers_allowed(self, tmp_path):
        source = "def build():\n    cache = {}\n    return cache\n"
        assert _check_source(tmp_path, source) == []
