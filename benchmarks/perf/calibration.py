"""The frozen calibration kernel that turns CPU time into cost units.

Raw wall *and* CPU time drift by about a fifth between back-to-back
identical runs on a shared box, so neither can be a gated number.  The
same runs divided by a fixed piece of work measured right beside them
agree within a few percent.  This module is that fixed piece of work,
and the clock both are read from.

One pass is a fixed mix of what the authorisation fabric itself spends
its time on: ``ElementTree.tostring``/``fromstring`` over a fixed
request-shaped tree (C code, allocator heavy) and pure-Python
dict/str/tuple churn (interpreter heavy).  One *cost unit* (cu) is one
thousandth of a kernel pass, so a decision that costs 50 cu costs a
twentieth of a pass on whatever machine ran both.

FROZEN: any edit to :func:`kernel_pass` re-bases every number ever
recorded in cu.  :data:`KERNEL_CHECKSUM` pins the work done; the smoke
test fails if the pass stops producing it.
"""

from __future__ import annotations

import statistics
import time
import xml.etree.ElementTree as ET

XML_ROUNDS = 24
PYTHON_ROUNDS = 2600
#: CPU seconds one pass took on the box the benchmark was defined on;
#: times reported in *reference-machine seconds* are scaled to it.
REFERENCE_KERNEL_S = 0.006
#: Kernel passes on each side of a piece of work that normalise it.
KERNEL_SIDE = 3
#: What :func:`kernel_pass` must return (pins the amount of work).
KERNEL_CHECKSUM = 91227

#: The clock every cost is read from: this process's CPU time, for the
#: work and for the kernel beside it.  A wall clock also counts the time
#: the process sat preempted, which the kernel's 6 ms mostly escape and
#: a 40 ms chunk does not: with two bursty processes competing for the
#: two cores, ``gateway_plain`` read p50 42.7 / p90 64 cu on the wall
#: clock and 40.0 / 47 cu (as on an idle box) on this one.
cost_clock = time.process_time


def _fixed_tree() -> ET.Element:
    """A request-context-shaped tree: 3 categories x 4 attributes."""
    root = ET.Element("Request", {"xmlns": "urn:calibration:context"})
    for category in ("Subject", "Resource", "Action"):
        section = ET.SubElement(root, category)
        for index in range(4):
            attribute = ET.SubElement(
                section,
                "Attribute",
                {
                    "AttributeId": f"urn:calibration:{category.lower()}:{index}",
                    "DataType": "http://www.w3.org/2001/XMLSchema#string",
                },
            )
            value = ET.SubElement(attribute, "AttributeValue")
            value.text = f"{category.lower()}-value-{index:04d}"
    return root


_TREE = _fixed_tree()


def kernel_pass() -> int:
    """Run the fixed work once; returns :data:`KERNEL_CHECKSUM`."""
    checksum = 0
    for _ in range(XML_ROUNDS):
        text = ET.tostring(_TREE, encoding="unicode")
        parsed = ET.fromstring(text)
        checksum += len(text) + len(parsed)
        for section in parsed:
            for attribute in section:
                checksum += len(attribute.get("AttributeId", ""))
    table: dict[tuple[int, str], int] = {}
    for index in range(PYTHON_ROUNDS):
        key = (index % 97, str(index % 53))
        table[key] = table.get(key, 0) + len(key[1]) + (index & 7)
    ordered = sorted(table.items())
    joined = "|".join(f"{a}:{b}={count}" for (a, b), count in ordered)
    checksum += len(joined) + sum(count for _, count in ordered)
    return checksum


def timed_kernel_pass() -> float:
    """CPU seconds one kernel pass took, checked for the right answer."""
    started = cost_clock()
    checksum = kernel_pass()
    elapsed = cost_clock() - started
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(
            f"calibration kernel returned {checksum}, expected "
            f"{KERNEL_CHECKSUM}: the frozen kernel was edited"
        )
    return elapsed


def kernel_around(kernels: list[float], after: int) -> float:
    """The kernel time that normalises work done just before pass ``after``.

    The median of the :data:`KERNEL_SIDE` passes before and after the
    work: it follows machine-speed drift over seconds without inheriting
    the scheduling noise (or a stall) of any single pass.
    """
    return statistics.median(kernels[max(0, after - KERNEL_SIDE) : after + KERNEL_SIDE])
