"""The stable ``repro`` facade, and imports that must not warn."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import ModuleType

import repro
from repro.api import Engine

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestTopLevelFacade:
    def test_engine_is_exported(self):
        assert repro.Engine is Engine
        assert "Engine" in repro.__all__

    def test_core_types_reexported(self):
        for name in (
            "ContainmentChecker",
            "ContainmentResult",
            "Decision",
            "ChaseStore",
            "ExecutionBudget",
            "AdmissionRejected",
            "is_contained",
            "minimize_query",
        ):
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name


class TestDeprecationShims:
    def test_containment_package_defines_no_public_names(self):
        import repro.containment as package

        own = [
            name
            for name, value in vars(package).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)
        ]
        assert own == []
        assert not hasattr(package, "ContainmentChecker")

    def test_submodule_imports_do_not_warn(self):
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::DeprecationWarning",
                "-c",
                (
                    "import repro\n"
                    "from repro.containment.bounded import ContainmentChecker\n"
                    "from repro.containment.store import ChaseStore\n"
                    "from repro.api import Engine\n"
                ),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": REPO_SRC},
        )
        assert proc.returncode == 0, proc.stderr

    def test_unknown_attribute_raises(self):
        import repro.containment as legacy

        try:
            legacy.does_not_exist
        except AttributeError as exc:
            assert "does_not_exist" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected AttributeError")


class TestEngineSurface:
    def test_engine_context_manager_closes(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            assert engine.check(q1, q2).contained
        assert engine.closed

    def test_engine_stats_shape(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            engine.check(q1, q2)
            stats = engine.stats()
        for section in ("service", "queue", "pool", "store"):
            assert section in stats, section
        assert stats["service"]["checks"] == 1
