"""Model file parsing and canonical serialization.

A model file is a JSON document with exactly three top-level keys:

    {
      "variables": [{"name": "X", "states": ["0", "1"]}, ...],
      "edges": [["X", "Z"], ...],
      "cpts": {"Z": {"parents": ["X"], "table": [[0.8, 0.2], ...]}, ...}
    }

CPT rows are ordered by parent configuration with the FIRST listed
parent slowest-varying; columns follow the child's state list.  The
serializer emits one canonical form (fixed key order, two-space
indent), so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import functools
import json
import os
from importlib import resources

import numpy as np

from .bayesnet import Cpt, DiscreteBayesNet, Variable
from .errors import ParseError
from .graph import Dag

BUNDLED_MODELS = (
    "fig1_left",
    "fig1_right",
    "fig2_model1",
    "fig2_model2",
    "modelA_observed",
    "modelB",
    "modelC",
    "modelD",
)

#: distinct model-file texts whose parsed networks one process keeps
MODEL_TEXT_CACHE_SIZE = 32


def parse_model(text: str) -> DiscreteBayesNet:
    """Parse and validate a model file; errors carry a location."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("variables", "edges", "cpts"):
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")
    extra = set(doc) - {"variables", "edges", "cpts"}
    if extra:
        raise ParseError(f"unexpected top-level keys {sorted(extra)}")
    for key in ("variables", "edges"):
        if not isinstance(doc[key], list):
            raise ParseError(f"{key} must be a list")

    variables: dict[str, Variable] = {}
    order: list[str] = []
    for i, spec in enumerate(doc["variables"]):
        if not isinstance(spec, dict) or set(spec) != {"name", "states"}:
            raise ParseError(f"variables[{i}]: expected keys name, states")
        name = spec["name"]
        if not isinstance(name, str):
            raise ParseError(f"variables[{i}]: name must be a string")
        if name in variables:
            raise ParseError(f"variables[{i}]: duplicate variable {name!r}")
        states = spec["states"]
        if (
            not isinstance(states, list)
            or len(states) < 2
            or not all(isinstance(s, str) for s in states)
        ):
            raise ParseError(f"variables[{i}] ({name!r}): states must be >=2 strings")
        if len(set(states)) != len(states):
            raise ParseError(f"variables[{i}] ({name!r}): duplicate state labels")
        for label in (name, *states):
            try:
                label.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"variables[{i}]: {label!r} cannot be encoded as UTF-8") from None
        variables[name] = Variable(name, tuple(states))
        order.append(name)

    cpts: dict[str, Cpt] = {}
    parents_map: dict[str, tuple[str, ...]] = {}
    if not isinstance(doc["cpts"], dict):
        raise ParseError("cpts must be an object")
    for child, spec in doc["cpts"].items():
        if child not in variables:
            raise ParseError(f"cpts[{child!r}]: unknown variable")
        if not isinstance(spec, dict) or set(spec) != {"parents", "table"}:
            raise ParseError(f"cpts[{child!r}]: expected keys parents, table")
        parents = spec["parents"]
        if not isinstance(parents, list) or not all(
            isinstance(p, str) and p in variables for p in parents
        ):
            raise ParseError(f"cpts[{child!r}]: parents must name existing variables")
        n_rows = 1
        for p in parents:
            n_rows *= len(variables[p].states)
        table = spec["table"]
        if not isinstance(table, list) or len(table) != n_rows:
            raise ParseError(
                f"cpts[{child!r}]: expected {n_rows} rows, got "
                f"{len(table) if isinstance(table, list) else type(table).__name__}"
            )
        width = len(variables[child].states)
        for r, row in enumerate(table):
            if not isinstance(row, list) or len(row) != width:
                raise ParseError(f"cpts[{child!r}]: row {r} must have {width} entries")
            # a JSON true or false is a bool, which is an int to isinstance
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row):
                raise ParseError(f"cpts[{child!r}]: row {r} has a non-numeric entry")
        parents_map[child] = tuple(parents)
        try:
            values = np.array(table, dtype=float)
        except OverflowError:
            raise ParseError(f"cpts[{child!r}]: an entry is too large for a float") from None
        cpts[child] = Cpt(child, tuple(parents), values)
    for name in order:
        if name not in cpts:
            raise ParseError(f"missing CPT for variable {name!r}")

    declared_edges = set()
    for i, edge in enumerate(doc["edges"]):
        if not isinstance(edge, list) or len(edge) != 2:
            raise ParseError(f"edges[{i}]: expected [parent, child]")
        if not all(isinstance(name, str) for name in edge):
            raise ParseError(f"edges[{i}]: variable names must be strings")
        p, c = edge
        if p not in variables or c not in variables:
            raise ParseError(f"edges[{i}]: unknown variable in [{p!r}, {c!r}]")
        declared_edges.add((p, c))
    implied = {(p, c) for c, ps in parents_map.items() for p in ps}
    if declared_edges != implied:
        raise ParseError(
            f"edges disagree with CPT parents: edges {sorted(declared_edges)} "
            f"vs parents {sorted(implied)}"
        )

    return DiscreteBayesNet(Dag(tuple(order), parents_map), variables, cpts)


def serialize_model(net: DiscreteBayesNet) -> str:
    """Canonical serialization (round-trips through parse_model)."""
    doc = {
        "variables": [
            {"name": n, "states": list(net.variables[n].states)} for n in net.dag.nodes
        ],
        "edges": [[p, c] for c in net.dag.nodes for p in net.dag.parents[c]],
        "cpts": {
            n: {
                "parents": list(net.cpts[n].parents),
                "table": [[float(x) for x in row] for row in net.cpts[n].table],
            }
            for n in net.dag.nodes
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def load_model(path_or_name: str) -> DiscreteBayesNet:
    """Load a model from a path, or from the bundled corpus by name.

    A path is read on every call and parsed once per distinct content
    (the last ``MODEL_TEXT_CACHE_SIZE`` texts are kept), so a rewritten
    file gives its new network and a malformed one raises on every call.
    A bundled model is parsed once per process.  Either way the
    (immutable) network is shared by every caller.
    """
    # the path as pathlib spells it, with no trailing separator; "" names no
    # file (pathlib would read it as ".")
    path = path_or_name.rstrip(os.sep) or os.sep
    if path_or_name and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ParseError(f"cannot read {path_or_name}: {reason}") from None
        return _parsed_text(text)
    name = path_or_name.removesuffix(".model")
    if name in BUNDLED_MODELS:
        return _bundled_model(name)
    raise ParseError(f"no such file or bundled model: {path_or_name!r}")


@functools.lru_cache(maxsize=MODEL_TEXT_CACHE_SIZE)
def _parsed_text(text: str) -> DiscreteBayesNet:
    return parse_model(text)


@functools.cache
def _bundled_model(name: str) -> DiscreteBayesNet:
    return parse_model(bundled_model_text(name))


def bundled_model_text(name: str) -> str:
    if name not in BUNDLED_MODELS:
        raise ParseError(f"unknown bundled model {name!r}")
    return (
        resources.files("causalbn").joinpath(f"models/{name}.model").read_text("utf-8")
    )
