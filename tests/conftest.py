"""Puts ``tests/`` on ``sys.path``, so any test can import the reference
semantics as ``from reference import wire, xacml``.

``--shuffle-seed N`` runs the collected tests in an order shuffled by
seed ``N``: a test that passes only after another one ran fails in some
order.  Without it the order is the files' own."""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed",
        type=int,
        default=None,
        metavar="N",
        help="run the collected tests in an order shuffled by seed N",
    )


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)
