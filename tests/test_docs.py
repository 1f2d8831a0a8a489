"""The documentation contract: examples run, public API is documented.

Two enforcement layers for the audited packages (``repro.train``,
``repro.serving``, ``repro.streaming``, ``repro.core``, ``repro.parallel``,
``repro.analysis``):

* every doctest in their docstrings must pass (the same snippets the
  MkDocs API reference renders — a rotted example fails tier-1, not just
  the separate ``pytest --doctest-modules`` CI step);
* every public module, class, function, and method must carry a
  docstring (the local mirror of the ruff ``D1`` rules CI runs, so the
  gate also binds in environments without ruff installed).
"""

from __future__ import annotations

import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

AUDITED_PACKAGES = (
    "repro.train",
    "repro.serving",
    "repro.streaming",
    "repro.taxonomy",
    "repro.core",
    "repro.parallel",
    "repro.obs",
    "repro.analysis",
    "repro.gateway",
)


def _audited_modules():
    for name in AUDITED_PACKAGES:
        package = importlib.import_module(name)
        yield package
        for info in pkgutil.iter_modules(package.__path__, prefix=name + "."):
            yield importlib.import_module(info.name)


MODULES = list(_audited_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctest_examples_run(module):
    """Every ``>>>`` example in the audited packages must execute cleanly."""
    result = doctest.testmod(module, verbose=False, report=True)
    assert result.failed == 0, (
        f"{result.failed} doctest example(s) failed in {module.__name__}"
    )


def _missing_docstrings(path: Path):
    """Public defs without docstrings — the D100-D103/D106 subset.

    Magic methods and ``__init__`` are exempt (ruff's D105/D107), matching
    the configuration in ``pyproject.toml``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    if not ast.get_docstring(tree):
        missing.append(f"{path}:1 module")

    def walk(node, prefix="", public=True):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                is_public = public and not child.name.startswith("_")
                if is_public and not ast.get_docstring(child):
                    missing.append(
                        f"{path}:{child.lineno} {prefix}{child.name}"
                    )
                if isinstance(child, ast.ClassDef):
                    walk(child, prefix=f"{prefix}{child.name}.", public=is_public)

    walk(tree)
    return missing


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_api_is_documented(module):
    """Every public name in the audited packages carries a docstring."""
    missing = _missing_docstrings(Path(module.__file__))
    assert not missing, "undocumented public API:\n" + "\n".join(missing)


def test_package_version_is_single_sourced():
    """``pyproject.toml`` reads the version from ``repro.__version__``.

    A literal ``version =`` under ``[project]`` drifts from the package
    (it said 1.6.0 while the code said 1.9.0), and an installed wheel
    then misreports itself.
    """
    try:
        import tomllib
    except ImportError:  # Python 3.10
        import tomli as tomllib

    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(path.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
