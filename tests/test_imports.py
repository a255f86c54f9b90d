"""Every name a library module imports is used in that module, every
private name a library module defines is used somewhere in the library, no
library module reads argparse internals, only ``bayesnet`` reads the size
cap or the store of kept answers, only ``fileio.write_file`` writes a
file and it never truncates the descriptor it writes through, and
importing the package parses no model and loads no process or thread
pool module.

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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private name that a module's top-level
    statement binds (a dunder name is not private) and that no statement of
    any module reads, outside the statements that bind it."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                bound = set()
            defined += [
                (module, name) for name in sorted(bound)
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
            ]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name not in bound:
                    read.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_private_name_is_used():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_checker_flags_an_unused_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "def _used(n):\n    return n < _LIMIT\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "_alias = _dead = None\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        ),
        "b": "from . import a\nfrom .a import _used\nprint(_used(1), a._alias)\n",
    }
    assert unreferenced_private_names(sources) == ["a._recursive", "a._dead"]


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


#: the size cap and the store of kept answers: the store keys each answer on
#: the cap, so the rule that ties them lives in ``bayesnet`` alone
CAP_RULE_NAMES = {"DEFAULT_SIZE_CAP", "_tables"}


def cap_rule_reads(source: str) -> list[str]:
    """``line n: name`` of each name, attribute or import of a
    ``CAP_RULE_NAMES`` name in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {(node.lineno, n) for n in names if n in CAP_RULE_NAMES}
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "bayesnet.py"],
    ids=lambda p: p.name,
)
def test_only_bayesnet_reads_the_cap_rule(path):
    assert cap_rule_reads(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_cap_rule_read():
    source = (
        "from .bayesnet import DEFAULT_SIZE_CAP as cap, joint\n"
        "if bayesnet.DEFAULT_SIZE_CAP > cap: net._tables.clear()\n"
        "_template_tables(), tables, net.tables\n"
    )
    assert cap_rule_reads(source) == [
        "line 1: DEFAULT_SIZE_CAP", "line 2: DEFAULT_SIZE_CAP", "line 2: _tables",
    ]


#: ``os.open`` flags that open a file for writing
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT"}
#: a ``mode`` string of ``open`` that writes
WRITE_MODE = re.compile(r"[rbt]*[wax+][rwabtx+]*")


def _called(node: ast.AST) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` and of ``m.f(...)``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def file_writes(source: str, writer: str | None = None) -> list[str]:
    """``line n: what`` of each call in ``source`` that writes a file, and
    of each ``O_TRUNC``: a ``write_text`` or ``write_bytes`` call, or an
    ``open`` call given a write mode or a write flag.

    Inside the function named ``writer`` a file may be written, but the
    descriptor that writes is never truncated: ``O_TRUNC`` may appear only
    in an ``open`` whose descriptor is closed at once, ``close(open(...))``,
    and an ``open`` given a ``w`` mode is reported."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == writer
        for node in ast.walk(stmt)
    }
    closed_at_once = {
        id(n)
        for node in ast.walk(tree)
        if _called(node) == "close" and node.args and _called(node.args[0]) == "open"
        for n in ast.walk(node.args[0])
    }
    found = []
    for node in ast.walk(tree):
        names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
        if isinstance(node, (ast.Name, ast.Attribute)):
            names = [node.id if isinstance(node, ast.Name) else node.attr]
        if "O_TRUNC" in names and not (id(node) in inside and id(node) in closed_at_once):
            found.append((node.lineno, "O_TRUNC"))
        name = _called(node)
        if name is None:
            continue
        args = node.args + [k.value for k in node.keywords if k.arg in ("mode", "flags")]
        modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        modes = [m for m in modes if WRITE_MODE.fullmatch(m)]
        flags = {
            n.attr if isinstance(n, ast.Attribute) else n.id
            for a in args for n in ast.walk(a) if isinstance(n, (ast.Name, ast.Attribute))
        }
        if id(node) in inside:
            writes = name == "open" and any("w" in m for m in modes)
        else:
            writes = name in ("write_text", "write_bytes") or (
                name == "open" and bool(modes or flags & WRITE_FLAGS)
            )
        if writes:
            found.append((node.lineno, f"{name}()"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_write_file_writes_files(path):
    writer = "write_file" if path.name == "fileio.py" else None
    assert file_writes(path.read_text(encoding="utf-8"), writer) == []


def test_checker_flags_a_file_write():
    source = (
        "Path(p).write_text(text, encoding='utf-8')\n"
        "p.write_bytes(data); open(p, encoding='utf-8', mode='a')\n"
        "with open(p, 'w', newline='') as fh, io.open(p, 'rb+'): p.open('x')\n"
        "fd = os.open(p, os.O_RDWR)\n"
        "from os import O_TRUNC\n"
        "open(p), open(p, 'rb'), open('w.csv', encoding='utf-8'), os.open(p, os.O_RDONLY)\n"
        "os.close(os.open(p, os.O_WRONLY | os.O_TRUNC))\n"
        "def write_file(p):\n"
        "    os.close(os.open(p, os.O_WRONLY | os.O_TRUNC))\n"
        "    fd = os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)\n"
        "    fd = os.open(p, os.O_WRONLY | os.O_CREAT); open(p, 'r+b'); open(p, mode='wb')\n"
    )
    assert file_writes(source, "write_file") == [
        "line 1: write_text()", "line 2: open()", "line 2: write_bytes()",
        "line 3: open()", "line 3: open()", "line 3: open()", "line 4: open()",
        "line 5: O_TRUNC", "line 7: O_TRUNC", "line 7: open()", "line 10: O_TRUNC",
        "line 11: open()",
    ]
    assert file_writes(source)[-7:] == [
        "line 9: O_TRUNC", "line 9: open()", "line 10: O_TRUNC", "line 10: open()",
        "line 11: open()", "line 11: open()", "line 11: open()",
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


def test_import_loads_no_pool_module():
    # ``concurrent.futures`` alone adds about 4 ms to every CLI call;
    # ``forward_sample`` starts plain threads instead
    program = (
        "import sys, causalbn\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
