"""Surface lint: every module under ``src/repro`` has a user that is not a test.

A module earns its keep when an experiment, an example or another live
module uses it.  A module whose only importers are its own package
``__init__`` (the re-export) and its own tests is code nothing runs.

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
"""

import ast
from pathlib import Path

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
