"""Module-state lint: no module under ``src/`` mints identifiers from
state of its own, but the ones listed here.

"Worlds own their identifiers" (ROADMAP direction 1): a counter at
module scope is shared by every world in the process, so what one world
mints depends on what ran before it in the same interpreter, and two
worlds interleaved perturb each other's ids, bytes and event order.
This lint is direction 1(a)'s first check, in ``test_memo_lint.py``'s
allow-list form.  It fails on

- an ``itertools.count(...)`` evaluated at import time — at module
  level or in a class body, anywhere but inside a function or lambda
  (those run later, per call);
- a ``global`` statement anywhere under ``src/``.

The allow-list is the mints direction 1 replaces with counters owned by
a world; an entry goes when its mint does.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``module:name`` -> why it may stand, for now.
ALLOWED = {
    "repro/simnet/message.py:_message_ids": "ROADMAP direction 1 removes",
    "repro/saml/xacml_profile.py:_query_ids": "ROADMAP direction 1 removes",
    "repro/saml/xacml_profile.py:_batch_ids": "ROADMAP direction 1 removes",
    "repro/saml/assertions.py:_assertion_ids": "ROADMAP direction 1 removes",
    "repro/wss/pki.py:_serials": "ROADMAP direction 1 removes",
}

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


def test_module_state_under_src_is_exactly_the_allow_list():
    assert lint(trees()) == sorted(ALLOWED), (
        "module-level state under src/ and the allow-list differ: a world "
        "should own what it mints; an entry goes when its mint does"
    )
    assert set(ALLOWED.values()) == {"ROADMAP direction 1 removes"}


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
