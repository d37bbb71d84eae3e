"""Module-state lint: no module under ``src/`` mints identifiers from
state of its own.

"Worlds own their identifiers" (ROADMAP direction 1): a counter at
module scope is shared by every world in the process, so what one world
mints depends on what ran before it in the same interpreter, and two
worlds interleaved perturb each other's ids, bytes and event order.
The ``Network`` mints message, query, batch and assertion ids, the
``KeyStore`` certificate serials.  This lint has ``test_memo_lint.py``'s
allow-list form, with the allow-list empty.  It fails on

- an ``itertools.count(...)`` evaluated at import time — at module
  level or in a class body, anywhere but inside a function or lambda
  (those run later, per call);
- a ``global`` statement anywhere under ``src/``;
- a construction under ``src/`` of a type whose id travels on the wire
  (:data:`MINTED`) that leaves the id to the field's default, and any
  call of the one builder that does (``for_requests``, for encoding
  outside a world).  Two queries sharing the default would share a
  reply: the sender matches replies by ``InResponseTo``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``module:name`` -> why it may stand.
ALLOWED: dict[str, str] = {}

#: A type whose instances carry a minted id -> the field holding it.
MINTED = {
    "XacmlAuthzDecisionQuery": "query_id",
    "XacmlAuthzDecisionBatchQuery": "batch_id",
    "Assertion": "assertion_id",
}
#: The builder that keeps the defaults, and the class that owns it.
BARE_BUILDER = ("XacmlAuthzDecisionBatchQuery", "for_requests")

#: Bodies that run per call, not at import.
DEFERRED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def import_time_calls(node: ast.AST, name: str = ""):
    """``(name, call)`` for every call under ``node`` that runs when the
    module is imported; ``name`` is what the enclosing assignment binds."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        name = ", ".join(map(ast.unparse, targets))
    if isinstance(node, ast.Call):
        yield name or ast.unparse(node), node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, DEFERRED):
            yield from import_time_calls(child, name)


def state_of(module: str, tree: ast.Module) -> list[str]:
    """``module:name`` of every import-time counter and ``global`` name."""
    itertools_names = {"itertools"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "itertools"
    }
    count_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "count"
    }

    def is_count(call: ast.Call) -> bool:
        callee = call.func
        if isinstance(callee, ast.Attribute):
            return callee.attr == "count" and ast.unparse(callee.value) in itertools_names
        return isinstance(callee, ast.Name) and callee.id in count_names

    found = [
        f"{module}:{name}"
        for statement in tree.body
        if not isinstance(statement, DEFERRED)
        for name, call in import_time_calls(statement)
        if is_count(call)
    ]
    found += [
        f"{module}:{name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
        for name in node.names
    ]
    return found


def lint(sources) -> list[str]:
    return sorted(name for module, tree in sources for name in state_of(module, tree))


def calls_in(node: ast.AST, owner: str = "", function: str = ""):
    """``(call, enclosing class, enclosing function)`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from calls_in(child, child.name, function)
            continue
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls_in(child, owner, child.name)
            continue
        if isinstance(child, ast.Call):
            yield child, owner, function
        yield from calls_in(child, owner, function)


def unminted(module: str, tree: ast.Module) -> list[str]:
    """``module:line type`` of every construction of a :data:`MINTED`
    type that passes no id by keyword, and of every call of the bare
    builder; constructions inside the bare builder are its own."""
    found = []
    for call, owner, function in calls_in(tree):
        callee = call.func
        name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
        if name == BARE_BUILDER[1]:
            found.append(f"{module}:{call.lineno} {name}")
            continue
        kind = owner if name == "cls" else name
        if kind not in MINTED or (owner, function) == BARE_BUILDER:
            continue
        if not any(keyword.arg in (MINTED[kind], None) for keyword in call.keywords):
            found.append(f"{module}:{call.lineno} {kind}")
    return found


def test_module_state_under_src_is_exactly_the_allow_list():
    assert lint(trees()) == sorted(ALLOWED), (
        "module-level state under src/ and the allow-list differ: a world "
        "should own what it mints"
    )


def test_every_minted_id_under_src_is_passed_explicitly():
    assert [site for module, tree in trees() for site in unminted(module, tree)] == [], (
        "a construction leaves its id to the field default: mint it from "
        "the sender's world (network.mint)"
    )


def test_a_forgotten_mint_is_caught():
    synthetic = """
class XacmlAuthzDecisionBatchQuery:
    @classmethod
    def for_requests(cls, requests):
        return cls(queries=tuple(XacmlAuthzDecisionQuery(r) for r in requests))

    @classmethod
    def from_element(cls, element):
        return cls(queries=(), batch_id=element.get("ID"))

def send(network, request, fields):
    XacmlAuthzDecisionQuery(request=request, query_id=network.mint("xacmlq"))
    Assertion(**fields)
    saml.Assertion(issuer="idp")
    XacmlAuthzDecisionBatchQuery.for_requests([request])
    XacmlAuthzDecisionQuery(request=request)
"""
    assert unminted("repro/synthetic.py", ast.parse(synthetic)) == [
        "repro/synthetic.py:14 Assertion",
        "repro/synthetic.py:15 for_requests",
        "repro/synthetic.py:16 XacmlAuthzDecisionQuery",
    ]


def test_a_sixth_is_caught():
    synthetic = """
import itertools
import itertools as it
from itertools import count as ticket
from dataclasses import dataclass, field

_ids = itertools.count(1)
_aliased = it.count()
if True:
    _nested = ticket(5)

@dataclass
class Minted:
    serial: int = field(default_factory=itertools.count().__next__)
    later: int = field(default_factory=lambda: next(itertools.count()))

def bump():
    global _hits
    return itertools.count()
"""
    sources = [*trees(), ("repro/synthetic.py", ast.parse(synthetic))]
    assert sorted(set(lint(sources)) - set(ALLOWED)) == [
        "repro/synthetic.py:_aliased",
        "repro/synthetic.py:_hits",
        "repro/synthetic.py:_ids",
        "repro/synthetic.py:_nested",
        "repro/synthetic.py:serial",
    ]
