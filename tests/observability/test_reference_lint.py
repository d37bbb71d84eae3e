"""Reference lint: the reference semantics uses nothing it judges.

``tests/reference`` is what the engine, the request model and the query
decoders are judged by.  Were it to import the engine, a combiner, the
parser or a profile decoder, or call an ``evaluate``, ``decide`` or
``candidates`` method, it would certify the code by the code, as the
frozen parent interpreters it replaced did.  Of the package it may
import the value model, the policy objects whose fields it reads and the
function registry, each from its own module, and nothing else.
"""

import ast
from pathlib import Path

REFERENCE = Path(__file__).resolve().parents[1] / "reference"
MODULES = ("attributes", "context", "expressions", "functions", "policy", "rules")
ALLOWED = {f"repro.xacml.{name}" for name in MODULES}
CALLS = {"evaluate", "decide", "candidates"}


def violations(trees) -> list[str]:
    found = []
    for name, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [
                    f"{node.module}.{a.name}" if node.module == "repro.xacml" else node.module
                    for a in node.names
                ]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                modules = []
                if node.func.attr in CALLS:
                    found.append(f"{name}:{node.lineno}: .{node.func.attr}(")
            else:
                continue
            found += [
                f"{name}:{node.lineno}: {module}"
                for module in modules
                if module.split(".")[0] == "repro" and module not in ALLOWED
            ]
    return found


def test_the_reference_uses_nothing_it_judges():
    trees = [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(REFERENCE.glob("*.py"))
    ]
    assert len(trees) == 3
    assert violations(trees) == []


#: A made-up reference that leans on what it should judge, every way.
LEANING_WORLD = """
import repro.saml.xacml_profile
from repro.xacml import PdpEngine, functions
from repro.xacml.parser import parse_request
from repro.components import ForwardedBatchQuery
from repro.xacml.attributes import Bag


def judge(policy, ctx, store, request):
    store.candidates(request)
    functions.lookup("f")(Bag())
    return policy.evaluate(ctx)
"""


def test_the_reference_lint_finds_each_lean():
    assert violations([("world.py", ast.parse(LEANING_WORLD))]) == [
        "world.py:2: repro.saml.xacml_profile",
        "world.py:3: repro.xacml.PdpEngine",
        "world.py:4: repro.xacml.parser",
        "world.py:5: repro.components",
        "world.py:10: .candidates(",
        "world.py:12: .evaluate(",
    ]
