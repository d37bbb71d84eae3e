"""Trust lint: an assertion is validated at one acceptance point.

A consumer that validated an identity assertion or a capability itself
would check only the certificate chain, which every VO member passes,
and skip the VO trust graph.
:meth:`repro.domain.domain.AdministrativeDomain.accept` checks the
signer's domain against the graph before it validates; this lint is the
pin that keeps a new acceptance point from calling
``validate_assertion`` around it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one module allowed to call ``validate_assertion`` (from ``accept``).
ACCEPTANCE_POINT = "domain/domain.py"


def callers(name: str) -> list[str]:
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None
            )
            if called == name:
                found.append(path.relative_to(SRC).as_posix())
    return found


def test_validate_assertion_is_called_from_accept_only():
    assert callers("validate_assertion") == [ACCEPTANCE_POINT], (
        "validate_assertion is called outside AdministrativeDomain.accept — "
        "admit assertions through accept, which reads the trust graph"
    )
