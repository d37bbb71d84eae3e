"""Memo lint: every ``functools.lru_cache`` under ``src/`` has the one
allowed form, and is on a list.

A module-level memo is module-level mutable state, which "worlds own
their identifiers" (ROADMAP direction 1) forbids — except in the form
``xacml.parser.parse_response`` documents: a *bounded* ``lru_cache`` on
a module-level *pure* function of immutable arguments returning an
immutable value, which maps texts (or parts) to their value, mints
nothing and never remembers an exception, so two worlds in one process
cannot perturb each other through it.  This lint is the first slice of
direction 1(a): it checks what can be checked from the syntax tree —
where the decorator sits and that its bound is a literal or a module
constant — and keeps an explicit allow-list for what cannot, each entry
naming the docstring that states the contract.  A new memo is a
deliberate edit here, next to the reason it is safe.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: ``module:function`` -> the docstring (``module:function``) that states
#: the contract the memo keeps.  Nothing else under ``src/`` may memoize.
ALLOWED = {
    "repro/xacml/parser.py:parse_response": "repro/xacml/parser.py:parse_response",
    "repro/wsvc/ws_security.py:_certificate_of": "repro/wsvc/ws_security.py:_certificate_of",
    # The policy-side leaf constructors (ISSUE 24): one contract, stated
    # on the first of them.
    "repro/xacml/attributes.py:_designator_of": "repro/xacml/attributes.py:_designator_of",
    "repro/xacml/targets.py:_match_of": "repro/xacml/attributes.py:_designator_of",
    "repro/xacml/targets.py:_single_of": "repro/xacml/attributes.py:_designator_of",
    "repro/xacml/expressions.py:_condition_of": "repro/xacml/attributes.py:_designator_of",
    # The request-side leaf constructor: the same contract, its own bound.
    "repro/xacml/attributes.py:_attribute_of": "repro/xacml/attributes.py:_designator_of",
}

MEMO_NAMES = {"lru_cache", "cache", "cached_property"}


def trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def imported_from(tree: ast.Module, module: str = "") -> set[str]:
    """Names a module-level ``from module import ...`` binds (from any
    module when none is given)."""
    return {
        alias.asname or alias.name
        for statement in tree.body
        if isinstance(statement, ast.ImportFrom)
        and (not module or statement.module == module)
        for alias in statement.names
    }


def integer_constants(tree: ast.Module) -> set[str]:
    """Names bound at module level to an integer literal."""
    return {
        target.id
        for statement in tree.body
        if isinstance(statement, ast.Assign)
        and isinstance(statement.value, ast.Constant)
        and type(statement.value.value) is int
        for target in statement.targets
        if isinstance(target, ast.Name)
    }


def problems_of(module: str, tree: ast.Module) -> tuple[list[str], list[str]]:
    """``(problems, memoized functions)`` of one module."""
    bare = imported_from(tree, "functools") & MEMO_NAMES
    constants = integer_constants(tree) | imported_from(tree)

    def is_memo(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in MEMO_NAMES and ast.unparse(node.value) == "functools"
        return isinstance(node, ast.Name) and node.id in bare

    problems, memoized, as_decorator = [], [], set()
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in function.decorator_list:
            callee = decorator.func if isinstance(decorator, ast.Call) else decorator
            if not is_memo(callee):
                continue
            as_decorator.add(callee)
            where = f"{module}:{function.name}"
            memoized.append(where)
            if function not in tree.body:
                problems.append(f"{where}: memo on a method or a nested function")
            if not (isinstance(decorator, ast.Call) and ast.unparse(callee).endswith("lru_cache")):
                problems.append(f"{where}: unbounded (bare @lru_cache, @cache)")
                continue
            bounds = [k.value for k in decorator.keywords if k.arg == "maxsize"]
            bound = (bounds + decorator.args[:1] + [ast.Constant(None)])[0]
            literal = isinstance(bound, ast.Constant) and type(bound.value) is int
            constant = (
                isinstance(bound, ast.Name) and bound.id.isupper() and bound.id in constants
            )
            if not (literal or constant):
                problems.append(
                    f"{where}: maxsize is {ast.unparse(bound)}, neither an "
                    "integer literal nor a module constant"
                )
    # A memo applied any other way (``f = lru_cache(8)(g)``) would hide
    # from the walk above.
    problems += [
        f"{module}: {ast.unparse(node)} used other than as a decorator"
        for node in ast.walk(tree)
        if is_memo(node) and node not in as_decorator
    ]
    return problems, memoized


def lint(sources):
    problems, memoized = [], []
    for module, tree in sources:
        found, names = problems_of(module, tree)
        problems += found
        memoized += names
    return problems, memoized


def test_every_memo_under_src_has_the_allowed_form_and_is_listed():
    problems, memoized = lint(trees())
    assert problems == []
    assert sorted(memoized) == sorted(ALLOWED), (
        "the memos under src/ and the allow-list differ: a new memo needs "
        "an entry here naming the docstring that states its contract"
    )


def test_every_allow_list_entry_names_a_docstring_that_states_the_contract():
    docstrings = {
        f"{module}:{node.name}": ast.get_docstring(node) or ""
        for module, tree in trees()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    for memo, contract in ALLOWED.items():
        text = " ".join(docstrings[contract].split()).lower()
        for phrase in ("lru_cache", "pure", "immutable", "mint"):
            assert phrase in text, f"{contract} (named by {memo}) does not state {phrase!r}"
        assert contract == memo or contract.split(":")[1] in docstrings[memo], (
            f"{memo} does not point at {contract}"
        )


def lint_text(text: str) -> list[str]:
    return lint([("m.py", ast.parse(text))])[0]


def test_the_lint_rejects_what_it_says_it_rejects():
    header = "import functools\nfrom functools import lru_cache, cache\nSIZE = 8\n"
    assert lint_text(header + "@functools.lru_cache(maxsize=SIZE)\ndef f(x): ...\n") == []
    assert lint_text(header + "@lru_cache(maxsize=16)\ndef f(x): ...\n") == []
    for bad in (
        "@lru_cache\ndef f(x): ...\n",
        "@cache\ndef f(x): ...\n",
        "@functools.cache\ndef f(x): ...\n",
        "@lru_cache(maxsize=None)\ndef f(x): ...\n",
        "@lru_cache()\ndef f(x): ...\n",
        "@lru_cache(maxsize=size())\ndef f(x): ...\n",
        "@lru_cache(maxsize=OTHER)\ndef f(x): ...\n",
        "class C:\n    @lru_cache(maxsize=8)\n    def f(self): ...\n",
        "class C:\n    @functools.cached_property\n    def f(self): ...\n",
        "def outer():\n    @lru_cache(maxsize=8)\n    def f(x): ...\n",
        "def g(x): ...\nf = lru_cache(maxsize=8)(g)\n",
    ):
        assert lint_text(header + bad), f"the lint let through:\n{bad}"
