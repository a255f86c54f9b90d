"""Every name a library module imports is used in that module, no library
module reads argparse internals, and importing the package parses no model.

``__init__.py`` is left out of the import check: its imports are the
package's public API.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "causalbn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_name():
    source = "import io\nfrom .bayesnet import DEFAULT_SIZE_CAP, joint\njoint()\n"
    assert unused_imports(source) == ["io (line 1)", "DEFAULT_SIZE_CAP (line 2)"]


#: a private name of the argparse module, or a private attribute of a parser
#: or action; ``cli`` describes the CLI in its own table instead
ARGPARSE_INTERNALS = re.compile(
    r"\bargparse\._|\.(_option_string_actions|_registry_get|_negative_number_matcher"
    r"|_mutually_exclusive_groups|_actions|_defaults)\b"
)


def argparse_internals(source: str) -> list[str]:
    return [
        f"line {n}: {m.group(0)}"
        for n, line in enumerate(source.splitlines(), 1)
        for m in ARGPARSE_INTERNALS.finditer(line)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_argparse_internals(path):
    assert argparse_internals(path.read_text(encoding="utf-8")) == []


def test_checker_flags_argparse_internals():
    source = (
        "kind = argparse._StoreAction\n"
        "for a in parser._actions: parser._defaults, a.dest\n"
        "parser.actions, view.defaults\n"
    )
    assert argparse_internals(source) == [
        "line 1: argparse._", "line 2: ._actions", "line 2: ._defaults",
    ]


def test_import_parses_no_model():
    # in a fresh interpreter, so no earlier test has filled the caches
    program = (
        "import causalbn\n"
        "from causalbn import latent, modelfile\n"
        "print(modelfile._bundled_model.cache_info().currsize,"
        " modelfile._parsed_text.cache_info().currsize,"
        " latent._template_tables.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "0 0 0\n"
