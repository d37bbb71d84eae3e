"""Surface lint: every module under ``src/repro``, every function, class
and method in it, and every option they take, has a user that is not a
test.

A module earns its keep when an experiment, an example or another live
module uses it.  A module whose only importers are its own package
``__init__`` (the re-export) and its own tests is code nothing runs.
The same holds one level down, for names (see "names" below).

What counts, read from the syntax tree only:

- *A user* is any file under ``benchmarks/`` or ``examples/``, or a live
  module under ``src/`` other than the module itself and the ``__init__``
  of a package that encloses it.  Nothing under ``tests/`` is a user.
- *A use* is one of the module's public top-level names (a ``def``,
  ``class`` or assignment at module level not starting with ``_``)
  appearing in the user as a ``Name``, an ``Attribute`` or an import
  alias, or the module's own name appearing as an import alias (each
  part of a dotted one counts).  Its own name anywhere else is too
  often a local: ``keys.py`` has a ``mac`` and every decision has
  ``.obligations``.
- *Live* is a fixed point grown from the users outside ``src/``: a
  module used only by dead modules is dead too.  A package ``__init__``
  is live when a module of its package is (importing one runs it).
- ``__main__.py`` files are entry points: exempt, and users.

The allow-list has ``test_memo_lint.py``'s form — module → the reason it
may stand without a user — and must name modules that would otherwise
be dead, so a stale entry fails as well.

Names, read the same way:

- *A unit* is a top-level ``def`` or ``class`` of a live module, or a
  method (a ``def`` or ``class`` in a class body), public or private;
  dunders are exempt.  Its name is its last part.
- *A use* is the unit's name as a ``Name``, an ``Attribute``, a keyword
  argument, an import alias or an identifier-shaped string constant
  (``getattr``, dispatch tables), in a file under ``benchmarks/`` or
  ``examples/``, in always-run code of a live module — module-level
  statements bar a package ``__init__``'s re-exporting imports and
  ``__all__``, and every decorator — or in a live unit other than
  itself.  A class's bases and body statements belong to the class.
- *Live* is a fixed point, as for modules: a method of a dead class is
  dead, and so is a unit only dead units read.  A function under a
  registering decorator (``functions.register``) is live by it.

``ALLOWED_NAMES`` is the second allow-list, of the same form and rule.

Options, one level down again: a default is a second configuration of
the code, and it earns its keep the way a name does.

- *An option* is a defaulted parameter of a live function unit
  (``self`` / ``cls`` excluded), or a defaulted field of a live
  ``*Config`` dataclass.
- *A use* is a call that names the unit and passes the option — by
  keyword, by position, or through a ``*`` / ``**`` splat — in a file
  under ``benchmarks/`` or ``examples/``, in always-run code of a live
  module, or in a live unit.  A call names an ``__init__`` by its class
  (or a subclass that runs it, or ``cls`` inside it, or
  ``super().__init__`` in a subclass), and a ``*Config`` field by its
  class or by ``replace``.  An assignment ``x.<option> = ...`` (``x``
  not ``self`` / ``cls``) outside the option's own class is a use too.
- *A forward* — a live unit passing on its own parameter, by name or by
  splatting its ``*args`` / ``**kwargs`` — is a use only once that
  parameter is itself used: the same fixed point as for names.
- An unused option becomes a constant at its default, and the code only
  another value reached goes with it.  ``ALLOWED_OPTIONS`` (same form and
  rule) takes only deployment settings: addresses, identities and keys,
  names and topics.  "A test sets it" is never a reason.

Imports, last: a module under ``src/repro`` reads every name it imports
(Pyflakes' unused-import rule, F401, which CI's ruff runs); a package
``__init__`` re-exports, and is exempt.
"""

import ast
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
USER_DIRS = ("benchmarks", "examples")

#: ``module`` -> why it may stand with no non-test user.
ALLOWED = {
    "repro/observability/catalog.py": "the data test_catalog_lint.py reads",
}


def parse_tree(root: Path, prefix: Path):
    for path in sorted(prefix.rglob("*.py")):
        yield path.relative_to(root).as_posix(), ast.parse(
            path.read_text(encoding="utf-8")
        )


def public_names(module: str, tree: ast.Module) -> set[str]:
    """The names a use of ``module`` may appear as (see :func:`uses`)."""
    names = {f"import {Path(module).stem}"}
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(statement.name)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (
                statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            )
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return {name for name in names if not name.startswith(("_", "import _"))}


def uses(tree: ast.Module) -> set[str]:
    """Every identifier ``tree`` reads as a name, attribute or import
    alias; an alias's parts once more as ``"import <part>"``."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            parts = node.name.split(".")
            found.update(parts)
            found.update(f"import {part}" for part in parts)
    return found


def enclosing_inits(module: str) -> set[str]:
    """The ``__init__`` of every package that contains ``module``."""
    return {f"{parent.as_posix()}/__init__.py" for parent in Path(module).parents}


def dead_modules(sources, users, allowed=()) -> list[str]:
    """Modules of ``sources`` that no user reaches, as a sorted list.

    ``sources`` and ``users`` are ``(path, tree)`` pairs: the modules
    under ``src/`` (paths relative to it) and the files outside it that
    count as users; ``allowed`` modules are live by fiat.
    """
    sources = dict(sources)
    names = {module: public_names(module, tree) for module, tree in sources.items()}
    read = {module: uses(tree) for module, tree in sources.items()}
    outside = set().union(*(uses(tree) for _, tree in users))
    live = {
        module
        for module in sources
        if module in allowed or Path(module).name == "__main__.py"
    }
    grew = True
    while grew:
        grew = False
        for module in sorted(set(sources) - live):
            if Path(module).name == "__init__.py":
                package = f"{Path(module).parent.as_posix()}/"
                alive = any(other.startswith(package) for other in live)
            else:
                skip = enclosing_inits(module) | {module}
                alive = bool(names[module] & outside) or any(
                    names[module] & read[user] for user in live - skip
                )
            if alive:
                live.add(module)
                grew = True
    return sorted(set(sources) - live)


def repo_sources():
    return parse_tree(SRC, SRC / "repro")


def repo_users():
    for directory in USER_DIRS:
        yield from parse_tree(ROOT, ROOT / directory)


def test_every_module_under_src_has_a_non_test_user():
    assert dead_modules(repo_sources(), repo_users(), ALLOWED) == [], (
        "modules only tests (or nothing) use: give each an experiment or "
        "example that exercises it, or delete it with its tests"
    )


def test_every_allow_list_entry_would_otherwise_be_dead():
    dead = dead_modules(repo_sources(), repo_users())
    assert sorted(ALLOWED) == dead, "an allow-list entry gained a user: drop it"


def lint(files: dict[str, str]) -> list[str]:
    """:func:`dead_modules` over a made-up tree laid out like the repo."""
    parsed = {path: ast.parse(text) for path, text in files.items()}
    return dead_modules(
        [(path.removeprefix("src/"), tree) for path, tree in parsed.items() if path.startswith("src/")],
        [(path, tree) for path, tree in parsed.items() if path.split("/")[0] in USER_DIRS],
    )  # fmt: skip


def test_a_module_used_only_through_its_package_re_export_is_dead():
    files = {
        "src/pkg/__init__.py": "from .live import run\nfrom .spare import helper\n",
        "src/pkg/live.py": "def run(): ...\n",
        "src/pkg/spare.py": "def helper(): ...\n",
        "examples/demo.py": "from pkg import run\nrun()\n",
    }
    assert lint(files) == ["pkg/spare.py"]
    # A test is not a user ...
    assert lint({**files, "tests/test_spare.py": "from pkg import helper\n"}) == [
        "pkg/spare.py"
    ]
    # ... a live module is, and so is an example ...
    for user, text in (
        ("src/pkg/live.py", "from .spare import helper\ndef run(): helper()\n"),
        ("examples/other.py", "import pkg.spare\n"),
    ):
        assert lint({**files, user: text}) == []
    # ... but a dead one is not, however many of them chain.
    chained = {
        **files,
        "src/pkg/spare.py": "from .deeper import inner\ndef helper(): inner()\n",
        "src/pkg/deeper.py": "def inner(): ...\n",
    }
    assert lint(chained) == ["pkg/deeper.py", "pkg/spare.py"]
    # A package whose every module is dead is dead whole.
    assert lint({**files, "src/pkg/sub/__init__.py": "from .x import y\n",
                 "src/pkg/sub/x.py": "y = 1\n"}) == [
        "pkg/spare.py", "pkg/sub/__init__.py", "pkg/sub/x.py"
    ]  # fmt: skip


# -- names ---------------------------------------------------------------------


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Decorators that make the function they wrap reachable by a key, not a
#: name (``functions.register``: the registry calls it by function id).
REGISTERING_DECORATORS = {"register"}


def identifiers(nodes) -> set[str]:
    """Every identifier the ``nodes`` read as a name, attribute, keyword
    argument, import alias or identifier-shaped string constant."""
    found: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                found.add(node.arg)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
                if node.asname is not None:
                    found.add(node.asname)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value.isidentifier()
            ):
                found.add(node.value)
    return found


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def registers(definition) -> bool:
    for decorator in definition.decorator_list:
        function = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (
            getattr(function, "id", None) in REGISTERING_DECORATORS
            or getattr(function, "attr", None) in REGISTERING_DECORATORS
        ):
            return True
    return False


class Unit(NamedTuple):
    """One ``def`` or ``class`` of a module, at top level or in a class."""

    key: str  # "<module>:<Qualified.name>"
    name: str
    owner: Optional[str]  # the enclosing class's key
    reads: set[str]  # what its signature and body read
    exempt: bool  # live whenever its owner is: dunder, registered
    node: ast.AST  # its ``def`` or ``class``


def units_of(module: str, tree: ast.Module) -> tuple[list[Unit], set[str]]:
    """The units of ``module`` and what its always-run code reads.

    Always run: module-level statements (bar a package ``__init__``'s
    re-exporting imports and any ``__all__``) and every decorator.  A
    class's bases and body statements are read by the class itself.
    """
    units: list[Unit] = []
    always: set[str] = set()
    is_init = Path(module).name == "__init__.py"

    def visit(body, owner, prefix, reads):
        for statement in body:
            if not isinstance(statement, _DEFS):
                if owner is None and (
                    (is_init and isinstance(statement, (ast.Import, ast.ImportFrom)))
                    or "__all__" in identifiers(getattr(statement, "targets", []))
                ):
                    continue
                reads |= identifiers([statement])
                continue
            always.update(identifiers(statement.decorator_list))
            qualified = f"{prefix}{statement.name}"
            key = f"{module}:{qualified}"
            if isinstance(statement, ast.ClassDef):
                own = identifiers(statement.bases + statement.keywords)
                visit(statement.body, key, f"{qualified}.", own)
            else:
                signature = [statement.args] + (
                    [statement.returns] if statement.returns is not None else []
                )
                own = identifiers(signature + statement.body)
            exempt = is_dunder(statement.name) or registers(statement)
            units.append(Unit(key, statement.name, owner, own, exempt, statement))

    visit(tree.body, None, "", always)
    return units, always


def live_units(sources, users, allowed=(), module_allowed=ALLOWED):
    """The units of the live modules of ``sources``, and the keys of the
    live ones, with what the always-run code of live modules reads.

    A unit is live when its name is read by a user, by always-run code
    of a live module, or by another live unit — and, for a method, its
    class is live.  Dunders and registered functions need no reader.
    ``allowed`` keys are live by fiat; ``module_allowed`` modules are
    live for :func:`dead_modules`.
    """
    sources = dict(sources)
    users = list(users)
    dead_modules_ = set(dead_modules(sources.items(), users, module_allowed))
    units: dict[str, Unit] = {}
    always: dict[str, list] = {}
    reached = identifiers(tree for _, tree in users)
    for module, tree in sources.items():
        if module in dead_modules_:
            continue
        found, read = units_of(module, tree)
        units.update((unit.key, unit) for unit in found)
        always[module] = [s for s in tree.body if not isinstance(s, _DEFS)]
        reached |= read
    readers: dict[str, set[str]] = {}
    live: set[str] = set()
    grew = True
    while grew:
        grew = False
        for unit in units.values():
            if unit.key in live or (unit.owner is not None and unit.owner not in live):
                continue
            if (
                unit.exempt
                or unit.key in allowed
                or unit.name in reached
                or readers.get(unit.name, set()) - {unit.key}
            ):
                live.add(unit.key)
                for name in unit.reads:
                    readers.setdefault(name, set()).add(unit.key)
                grew = True
    return units, live, always


def dead_names(sources, users, allowed=(), module_allowed=ALLOWED) -> list[str]:
    """Units of the live modules of ``sources`` that nothing live reads
    (see :func:`live_units`), as a sorted list."""
    units, live, _ = live_units(sources, users, allowed, module_allowed)
    return sorted(
        key for key, unit in units.items() if key not in live and not unit.exempt
    )


#: ``module:Qualified.name`` -> why it may stand with no non-test reader.
ALLOWED_NAMES = {
    "repro/observability/catalog.py:is_cataloged_series": (
        "the catalog's series check, which test_catalog_lint.py reads "
        "(the module's own allow-list reason)"
    ),
    "repro/simnet/network.py:Network.heal": (
        "ends a partition; HybridStrategy's lost-push recovery cells "
        "(E15's hybrid row) heal the link they cut"
    ),
}


def test_every_name_in_a_live_module_has_a_non_test_reader():
    assert dead_names(repo_sources(), repo_users(), ALLOWED_NAMES) == [], (
        "functions, classes or methods only tests (or nothing) use: give "
        "each a user in an experiment or example, or delete it with its tests"
    )


def test_every_name_allow_list_entry_would_otherwise_be_dead():
    assert sorted(ALLOWED_NAMES) == dead_names(repo_sources(), repo_users()), (
        "a name allow-list entry gained a user (or vanished): drop it"
    )


def name_lint(files: dict[str, str], allowed=()) -> list[str]:
    """:func:`dead_names` over a made-up tree laid out like the repo."""
    parsed = {path: ast.parse(text) for path, text in files.items()}
    return dead_names(
        [(path.removeprefix("src/"), tree) for path, tree in parsed.items() if path.startswith("src/")],
        [(path, tree) for path, tree in parsed.items() if path.split("/")[0] in USER_DIRS],
        allowed,
    )  # fmt: skip


#: A PEP with a pull path an example drives and a batch path nothing does.
PEP = """
class Pep:
    def __init__(self):
        self._cache = {}

    def authorize(self, request):
        return self._query(request)

    def _query(self, request):
        return request

    def authorize_batch(self, requests):
        return self._query_batch(requests)

    def _query_batch(self, requests):
        return [self._query(request) for request in requests]
"""


def test_a_method_only_tests_call_is_dead_and_so_is_its_private_helper():
    files = {
        "src/pkg/__init__.py": "from .pep import Pep\n",
        "src/pkg/pep.py": PEP,
        "examples/demo.py": "from pkg import Pep\nPep().authorize('r')\n",
        "tests/test_pep.py": "from pkg import Pep\nPep().authorize_batch(['r'])\n",
    }
    # A test calls the batch path: not a use.  Its private helper, whose
    # only caller is the batch path, is dead with it; ``_query`` lives on
    # through ``authorize``.
    assert name_lint(files) == [
        "pkg/pep.py:Pep._query_batch",
        "pkg/pep.py:Pep.authorize_batch",
    ]
    # An example's call makes the whole path live.
    assert name_lint({**files, "examples/batch.py": "from pkg import Pep\nPep().authorize_batch([])\n"}) == []  # fmt: skip
    # Deleting the caller orphans the helper, and the lint says so.
    orphaned = PEP.replace(
        "    def authorize_batch(self, requests):\n"
        "        return self._query_batch(requests)\n",
        "",
    )
    assert name_lint({**files, "src/pkg/pep.py": orphaned}) == ["pkg/pep.py:Pep._query_batch"]  # fmt: skip


def test_a_method_only_a_dead_method_calls_is_dead():
    files = {
        "src/pkg/m.py": (
            "class A:\n"
            "    def run(self): ...\n"
            "    def spare(self): return self.deeper()\n"
            "    def deeper(self): return 1\n"
            "class B:\n"
            "    def tick(self): return A().spare()\n"
        ),
        "examples/demo.py": "from pkg.m import A\nA().run()\n",
    }
    # ``B`` is dead, so ``B.tick`` is, so ``spare`` is, so ``deeper`` is.
    assert name_lint(files) == [
        "pkg/m.py:A.deeper", "pkg/m.py:A.spare", "pkg/m.py:B", "pkg/m.py:B.tick"
    ]  # fmt: skip


def test_a_registered_function_needs_no_caller_and_dunders_are_exempt():
    files = {
        "src/pkg/functions.py": (
            "REGISTRY = {}\n"
            "def register(identifier):\n"
            "    def wrap(function):\n"
            "        REGISTRY[identifier] = function\n"
            "        return function\n"
            "    return wrap\n"
            "@register('urn:f')\n"
            "def f(x): return x\n"
            "def g(x): return x\n"
            "class Node:\n"
            "    def __repr__(self): return 'Node'\n"
        ),
        "examples/demo.py": "from pkg.functions import REGISTRY, Node\nREGISTRY['urn:f'](Node())\n",
    }
    assert name_lint(files) == ["pkg/functions.py:g"]


def test_a_string_constant_and_a_keyword_argument_are_uses():
    files = {
        "src/pkg/m.py": "def hook(): ...\ndef option(): ...\n",
        "examples/demo.py": "getattr(object, 'hook')\ndict(option=1)\n",
    }
    assert name_lint(files) == []


def test_every_name_allow_list_entry_has_a_reason():
    for key, reason in ALLOWED_NAMES.items():
        assert ":" in key and isinstance(reason, str) and reason.strip(), key


#: One cell per rule of the module docstring: made-up files, and the
#: units the lint must report dead in them.
RULES = {
    "a-re-export-is-not-a-use": (
        {
            "src/pkg/__init__.py": "from .m import run, spare\n__all__ = ['run', 'spare']\n",
            "src/pkg/m.py": "def run(): ...\ndef spare(): ...\n",
            "examples/demo.py": "from pkg import run\nrun()\n",
        },
        ["pkg/m.py:spare"],
    ),
    "a-module-level-statement-is-a-use": (
        {
            "src/pkg/m.py": "def build(): return {}\nDEFAULT = build()\ndef run(): return DEFAULT\n",
            "examples/demo.py": "from pkg.m import run\nrun()\n",
        },
        [],
    ),
    "a-decorator-is-a-use": (
        {
            "src/pkg/m.py": "def traced(f): return f\n@traced\ndef run(): ...\n",
            "examples/demo.py": "from pkg.m import run\nrun()\n",
        },
        [],
    ),
    "a-live-class-reads-its-bases": (
        {
            "src/pkg/m.py": "class Base: ...\nclass Live(Base): ...\nclass Spare: ...\n",
            "examples/demo.py": "from pkg.m import Live\nLive()\n",
        },
        ["pkg/m.py:Spare"],
    ),
    "a-dead-class-reads-nothing": (
        {
            "src/pkg/m.py": "class Base: ...\nclass Spare(Base): ...\ndef run(): ...\n",
            "examples/demo.py": "from pkg.m import run\nrun()\n",
        },
        ["pkg/m.py:Base", "pkg/m.py:Spare"],
    ),
    "a-method-of-a-dead-class-is-dead-though-its-name-is-read": (
        {
            "src/pkg/m.py": "class Spare:\n    def run(self): ...\ndef run(): ...\n",
            "examples/demo.py": "from pkg.m import run\nrun()\n",
        },
        ["pkg/m.py:Spare", "pkg/m.py:Spare.run"],
    ),
    "recursion-is-not-a-use": (
        {
            "src/pkg/m.py": "def run(): ...\ndef spare(n): return spare(n - 1) if n else 0\n",
            "examples/demo.py": "from pkg.m import run\nrun()\n",
        },
        ["pkg/m.py:spare"],
    ),
    "an-import-alias-is-a-use": (
        {
            "src/pkg/m.py": "def run(): ...\n",
            "examples/demo.py": "from pkg.m import run as go\ngo()\n",
        },
        [],
    ),
    "a-string-that-is-no-identifier-is-no-use": (
        {
            "src/pkg/m.py": "def run(): ...\ndef hook(): ...\n",
            "examples/demo.py": "from pkg.m import run\nrun()\nprint('hook()')\n",
        },
        ["pkg/m.py:hook"],
    ),
    "async-defs-and-nested-classes-are-units": (
        {
            "src/pkg/m.py": (
                "class Outer:\n"
                "    class Inner: ...\n"
                "    async def fetch(self): ...\n"
            ),
            "examples/demo.py": "from pkg.m import Outer\nOuter()\n",
        },
        ["pkg/m.py:Outer.Inner", "pkg/m.py:Outer.fetch"],
    ),
    "names-of-a-dead-module-are-the-module-lints-to-report": (
        {
            "src/pkg/m.py": "def run(): ...\n",
            "src/pkg/spare.py": "def helper(): ...\n",
            "examples/demo.py": "from pkg.m import run\nrun()\n",
        },
        [],
    ),
}


@pytest.mark.parametrize("rule", list(RULES))
def test_a_rule_of_the_name_lint(rule):
    files, dead = RULES[rule]
    assert name_lint(files) == dead


def test_an_allow_list_entry_that_gains_a_user_fails_the_lint():
    files = {
        "src/pkg/m.py": "def run(): ...\ndef spare(): ...\n",
        "examples/demo.py": "from pkg.m import run\nrun()\n",
    }
    allowed = {"pkg/m.py:spare": "kept on purpose"}
    assert name_lint(files, allowed) == []
    assert sorted(allowed) == name_lint(files)
    # Once an example uses it, the entry no longer names a dead unit:
    # the equality the repo-wide check asserts breaks.
    used = {**files, "examples/other.py": "from pkg.m import spare\nspare()\n"}
    assert sorted(allowed) != name_lint(used)


# -- options -------------------------------------------------------------------


class Option(NamedTuple):
    """One defaulted parameter of a live unit, or defaulted field of a
    live ``*Config`` dataclass."""

    unit: str  # the key of its unit (the class, for a field)
    name: str
    owner: str  # the class an assignment outside of which is a use


def is_config(node) -> bool:
    return (
        isinstance(node, ast.ClassDef)
        and node.name.endswith("Config")
        and any(
            "dataclass" in identifiers([d.func if isinstance(d, ast.Call) else d])
            for d in node.decorator_list
        )
    )


def fields_of(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """A dataclass's fields in order, each with whether it has a default."""
    return [
        (statement.target.id, statement.value is not None)
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and "ClassVar" not in identifiers([statement.annotation])
    ]


def parameters_of(unit: Unit) -> tuple[list[str], list[str], set[str], set[str]]:
    """``(positional, keyword_only, defaulted, variadic)`` names of a
    function unit, a method's ``self`` / ``cls`` dropped."""
    args = unit.node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):])
    defaulted |= {
        a.arg
        for a, default in zip(args.kwonlyargs, args.kw_defaults, strict=True)
        if default is not None
    }
    static = "staticmethod" in identifiers(unit.node.decorator_list)
    if unit.owner is not None and not static and positional:
        positional = positional[1:]
    variadic = {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    return positional, [a.arg for a in args.kwonlyargs], defaulted, variadic


def unused_options(sources, users, allowed=()) -> list[str]:
    """Options of live units that no user and no live unit passes, as
    sorted ``"<unit key>(<name>)"`` strings (see the module docstring)."""
    users = list(users)
    units, live, always = live_units(sources, users)
    live_units_ = [units[key] for key in sorted(live)]
    classes: dict[str, list[Unit]] = {}
    for unit in live_units_:
        if isinstance(unit.node, ast.ClassDef):
            classes.setdefault(unit.name, []).append(unit)

    def init_of(class_name: str, seen=()) -> list[Unit]:
        """The ``__init__`` (or ``*Config`` fields) a call naming the
        class runs: its own, else the nearest one up its bases."""
        found = []
        for cls in classes.get(class_name, []):
            own = f"{cls.key}.__init__"
            if own in live:
                found.append(units[own])
            elif is_config(cls.node):
                found.append(cls)
            else:
                for base in cls.node.bases:
                    name = identifiers([base])
                    for base_name in name - set(seen) - {class_name}:
                        found += init_of(base_name, (*seen, class_name))
        return found

    # Every option, and the parameters through which a unit forwards.
    options: dict[tuple[str, str], Option] = {}
    signature: dict[str, tuple[list[str], set[str], set[str]]] = {}
    for unit in live_units_:
        if is_config(unit.node):
            fields = fields_of(unit.node)
            names = [name for name, _ in fields]
            signature[unit.key] = (names, set(), set())
            for name, default in fields:
                if default:
                    options[unit.key, name] = Option(unit.key, name, unit.key)
        elif isinstance(unit.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional, keyword_only, defaulted, variadic = parameters_of(unit)
            signature[unit.key] = (positional, set(positional + keyword_only), variadic)
            owner = unit.owner or unit.key
            for name in positional + keyword_only:
                if name in defaulted:
                    options[unit.key, name] = Option(unit.key, name, owner)
    by_unit: dict[str, list[Option]] = {}
    for option in options.values():
        by_unit.setdefault(option.unit, []).append(option)
    by_name: dict[str, list[Option]] = {}
    for option in options.values():
        by_name.setdefault(option.name, []).append(option)
    fields_named = {
        name: [o for o in found if is_config(units[o.unit].node)]
        for name, found in by_name.items()
    }

    # A pass is ``(option key, condition)``: the condition is None, or
    # the ``(unit key, name)`` that must be passed to the forwarder.
    passes: list[tuple[tuple[str, str], Optional[tuple[str, str]]]] = []

    def condition(value, forwarder: Optional[Unit], name: str):
        """None when ``value`` is a choice; else what forwarding needs."""
        if forwarder is None or forwarder.key not in signature:
            return None
        positional, named, variadic = signature[forwarder.key]
        starred = isinstance(value, ast.Starred)
        inner = value.value if starred else value
        if not isinstance(inner, ast.Name):
            return None
        if inner.id in variadic:
            return (forwarder.key, "*" if starred else name)
        if inner.id in named and (forwarder.key, inner.id) in options:
            return (forwarder.key, inner.id)
        return None

    def targets(call: ast.Call, enclosing: Optional[Unit]) -> list[Unit]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", None) == "super"
            and enclosing is not None
            and enclosing.owner is not None
        ):
            bases = units[enclosing.owner].node.bases
            return [t for base in identifiers(bases) for t in init_of(base)]
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            return []
        if name == "cls" and enclosing is not None and enclosing.owner is not None:
            name = units[enclosing.owner].name
        found = [u for u in live_units_ if u.name == name and u.key in signature]
        return [u for u in found if not isinstance(u.node, ast.ClassDef)] + init_of(name)

    def visit_call(call: ast.Call, enclosing: Optional[Unit]):
        is_replace = getattr(call.func, "id", getattr(call.func, "attr", None)) == "replace"
        for target in targets(call, enclosing):
            positional, _, _ = signature[target.key]
            for index, arg in enumerate(call.args):
                starred = isinstance(arg, ast.Starred)
                names = positional[index:] if starred else positional[index : index + 1]
                if starred or index >= len(positional):
                    names = [*names, "*"]  # what the target's ``*args`` takes
                for name in names:
                    passes.append(((target.key, name), condition(arg, enclosing, name)))
            for keyword in call.keywords:
                if keyword.arg is not None:
                    passes.append(((target.key, keyword.arg), condition(keyword.value, enclosing, keyword.arg)))  # fmt: skip
                    continue
                # A splat: every keyword, each forwarded on its own.
                for name in [*(o.name for o in by_unit.get(target.key, [])), "**"]:
                    passes.append(((target.key, name), condition(keyword.value, enclosing, name)))  # fmt: skip
        if is_replace:
            for keyword in call.keywords:
                if keyword.arg is None:
                    passes.extend(((o.unit, o.name), None) for found in fields_named.values() for o in found)  # fmt: skip
                for option in fields_named.get(keyword.arg, []):
                    passes.append(((option.unit, option.name), condition(keyword.value, enclosing, option.name)))  # fmt: skip

    def visit_assign(target: ast.Attribute, value, enclosing: Optional[Unit]):
        if getattr(target.value, "id", None) in ("self", "cls"):
            return
        for option in by_name.get(target.attr, []):
            if option.owner == option.unit and not is_config(units[option.unit].node):
                continue  # a function's parameter is no attribute
            if enclosing is None or option.owner not in (enclosing.key, enclosing.owner):
                passes.append(((option.unit, option.name), condition(value, enclosing, option.name)))  # fmt: skip

    def visit(nodes, enclosing: Optional[Unit]):
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Call):
                    visit_call(node, enclosing)
                elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    found = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in found:
                        if isinstance(target, ast.Attribute):
                            visit_assign(target, node.value, enclosing)

    visit([tree for _, tree in users], None)
    for statements in always.values():
        visit(statements, None)
    for unit in live_units_:
        node = unit.node
        if isinstance(node, ast.ClassDef):
            visit([s for s in node.body if not isinstance(s, _DEFS)] + node.bases, unit)
        else:
            visit(node.decorator_list, None)
            visit(node.args.defaults + [d for d in node.args.kw_defaults if d] + node.body, unit)  # fmt: skip

    used: set[tuple[str, str]] = set()

    def holds(fact) -> bool:
        unit, name = fact
        return fact in used or (unit, "**") in used and name != "*"

    grew = True
    while grew:
        grew = False
        for option, needs in passes:
            if option not in used and (needs is None or holds(needs)):
                used.add(option)
                grew = True
    return sorted(
        f"{option.unit}({option.name})"
        for key, option in options.items()
        if not holds(key) and f"{option.unit}({option.name})" not in allowed
    )


#: ``"<unit key>(<option>)"`` -> the deployment setting it is: only
#: addresses, identities and keys, names and topics belong here.
ALLOWED_OPTIONS = {
    "repro/capability/tokens.py:CapabilityVerifier.__init__(audience)": (
        "the relying party's own name, which a capability must be "
        "addressed to"
    ),
    "repro/components/fabric.py:DomainDecisionGateway.__init__(identity)": (
        "the identity a deployment gives a gateway: with one, the gateway "
        "signs its queries and verifies its replies"
    ),
    "repro/domain/identity.py:IdentityProvider.issue_assertion(audience)": (
        "the name of the relying party an assertion is addressed to"
    ),
}


def test_every_option_has_a_non_test_user():
    assert unused_options(repo_sources(), repo_users(), ALLOWED_OPTIONS) == [], (
        "options only tests set (or nobody): make each a constant at its "
        "default and delete what only another value reached"
    )


def test_every_option_allow_list_entry_would_otherwise_be_unused():
    assert sorted(ALLOWED_OPTIONS) == unused_options(repo_sources(), repo_users()), (
        "an option allow-list entry gained a user (or vanished): drop it"
    )


def test_every_option_allow_list_entry_has_a_reason():
    for key, reason in ALLOWED_OPTIONS.items():
        assert key.endswith(")") and isinstance(reason, str) and reason.strip(), key


def option_lint(files: dict[str, str]) -> list[str]:
    """:func:`unused_options` over a made-up tree laid out like the repo."""
    parsed = {path: ast.parse(text) for path, text in files.items()}
    return unused_options(
        [(path.removeprefix("src/"), tree) for path, tree in parsed.items() if path.startswith("src/")],
        [(path, tree) for path, tree in parsed.items() if path.split("/")[0] in USER_DIRS],
    )  # fmt: skip


#: A made-up library: a component with a keyword-only knob, a config
#: dataclass, a helper taking a positional option and a factory that
#: forwards its own option to the component.
OPTION_WORLD = """
from dataclasses import dataclass, replace

@dataclass
class CacheConfig:
    ttl: float = 0.0
    capacity: int = 100

class Gateway:
    def __init__(self, name, *, forward_ttl=3, config=None):
        self.name = name
        self.forward_ttl = forward_ttl

def lookup(key, timeout=2.0):
    return key

def build(name, forward_ttl=3):
    return Gateway(name, forward_ttl=forward_ttl)
"""


def test_a_rule_of_the_option_lint():
    files = {
        "src/pkg/m.py": OPTION_WORLD,
        "examples/demo.py": "from pkg.m import build, lookup, CacheConfig\nbuild('g')\nlookup('k')\nCacheConfig()\n",
        "tests/test_m.py": "from pkg.m import *\nGateway('g', forward_ttl=1)\nlookup('k', 0.5)\nreplace(CacheConfig(), ttl=5)\n",
    }
    every = [
        "pkg/m.py:CacheConfig(capacity)",
        "pkg/m.py:CacheConfig(ttl)",
        "pkg/m.py:Gateway.__init__(config)",
        "pkg/m.py:Gateway.__init__(forward_ttl)",
        "pkg/m.py:build(forward_ttl)",
        "pkg/m.py:lookup(timeout)",
    ]
    # What tests set is no use, and a forward of an unused option is none.
    assert option_lint(files) == every

    def used_by(example: str) -> list[str]:
        return option_lint({**files, "examples/more.py": "from pkg.m import *\n" + example})

    # A keyword, a position, ``replace`` and the class call are uses ...
    assert used_by("Gateway('g', forward_ttl=1)\n") == [o for o in every if "Gateway" not in o or "config" in o]  # fmt: skip
    assert used_by("lookup('k', 0.5)\n") == [o for o in every if "lookup" not in o]
    assert used_by("replace(CacheConfig(), ttl=5)\n") == [o for o in every if "(ttl)" not in o]
    assert used_by("CacheConfig(1.0, 10)\n") == [o for o in every if "CacheConfig" not in o]
    # ... a splat passes every option it can reach ...
    assert used_by("lookup(*args)\nCacheConfig(**kw)\n") == [
        o for o in every if "lookup" not in o and "CacheConfig" not in o
    ]
    # ... the forward counts once its own option is used ...
    assert used_by("build('g', forward_ttl=2)\n") == [
        o for o in every if "forward_ttl" not in o
    ]
    # ... and so does an assignment outside the option's class.
    assert used_by("g = Gateway('g')\ng.forward_ttl = 9\n") == [
        o for o in every if "Gateway.__init__(forward_ttl)" not in o
    ]


def test_a_subclass_call_and_a_super_forward_reach_the_base_options():
    files = {
        "src/pkg/m.py": (
            "class Base:\n"
            "    def __init__(self, name, timeout=1.0, identity=None): ...\n"
            "class Sub(Base): ...\n"
            "class Own(Base):\n"
            "    def __init__(self, name, limit=5, **kwargs):\n"
            "        super().__init__(name, **kwargs)\n"
        ),
        "examples/demo.py": "from pkg.m import Sub, Own\nSub('s', timeout=2.0)\nOwn('o', identity='k')\n",  # fmt: skip
    }
    # ``Sub`` runs ``Base.__init__``; ``Own`` forwards its keywords to it.
    assert option_lint(files) == ["pkg/m.py:Own.__init__(limit)"]


# -- imports -------------------------------------------------------------------


def names_read(tree: ast.Module) -> set[str]:
    """Every bare name ``tree`` reads, string annotations and ``__all__``
    included (what a Pyflakes-style unused-import check counts)."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations = [a.annotation for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs + [arguments.vararg, arguments.kwarg] if a is not None] + [node.returns]  # fmt: skip
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            for inner in ast.walk(annotation) if annotation is not None else ():
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    read |= names_read(ast.parse(inner.value, mode="eval"))
        if isinstance(node, ast.Assign) and "__all__" in identifiers(node.targets):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return read


def unused_imports(sources) -> list[str]:
    """``"<module>:<name>"`` for every name a module under ``src/``
    imports and never reads; a package ``__init__`` re-exports, so it
    is exempt."""
    found = []
    for module, tree in sources:
        if Path(module).name == "__init__.py":
            continue
        read = names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in read:
                        found.append(f"{module}:{bound}")
    return sorted(found)


def test_every_import_under_src_is_read():
    assert unused_imports(repo_sources()) == []


def test_the_import_lint_finds_an_unread_import():
    module = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from typing import Optional, TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .engine import Store\n"
        "from .spare import helper\n"
        "def f(x: Optional[int]) -> 'Store': return os.path.join(x)\n"
    )
    assert unused_imports([("pkg/m.py", module)]) == [
        "pkg/m.py:helper", "pkg/m.py:j"
    ]  # fmt: skip
    # A package ``__init__`` re-exports what it imports.
    assert unused_imports([("pkg/__init__.py", module)]) == []
