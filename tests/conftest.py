"""Puts ``tests/`` on ``sys.path``, so any test can import the reference
semantics as ``from reference import wire, xacml``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
