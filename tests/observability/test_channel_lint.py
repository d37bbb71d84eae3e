"""Channel lint: WS-Security is touched from one module under
``components/``.

The secure/plain exchange used to be hand-copied into the PEP, the
gateway, the federated gateway and the PDP, and one copy forgot the
signature check.  :mod:`repro.components.channel` now owns it; this
lint is the pin that keeps the copies from growing back.
"""

import re
from pathlib import Path

COMPONENTS = (
    Path(__file__).resolve().parents[2] / "src" / "repro" / "components"
)

#: Call sites (not imports, not mentions in prose): name + open paren.
SECURITY_CALLS = ("secure_envelope(", "verify_envelope(", "signer_of(")


def callers(call: str) -> list[str]:
    pattern = re.compile(rf"(?<![\w.`]){re.escape(call)}")
    return sorted(
        path.name
        for path in COMPONENTS.glob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )


def test_each_security_call_lives_in_the_channel_only():
    found = {call: callers(call) for call in SECURITY_CALLS}
    assert found == {call: ["channel.py"] for call in SECURITY_CALLS}, (
        "WS-Security is called outside components/channel.py — seal and "
        f"open exchanges through DecisionChannel instead: {found}"
    )
