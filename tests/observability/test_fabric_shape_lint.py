"""Fabric shape lint: one batching stage, one partitioned send, one
decision-cache coherence rule.

The accumulate → dedup → flush → demux idea used to be written three
times (per-PEP queue, domain gateway, federated forward buffers), each
with its own flush-delay timer, and the shard-partition loop twice —
while the third send path forgot it and misrouted.  :class:`repro.
components.fabric.BatchingStage` and :meth:`repro.components.fabric.
BatchWireCore.send` now own them; this lint is the pin that keeps the
copies from growing back (beside ``test_channel_lint.py``, which does
the same for the WS-Security exchange).

The same happened to decision-cache coherence: the PEP and the gateway
each carried their own selective invalidation, and only the gateway's
copy fenced in-flight fills — the PEP served a revoked Permit from cache
for a whole TTL.  :class:`repro.components.cache.DecisionCache` owns
the scan and the fences now, for both tiers.

And to the PDP's policy refresh: every query that found the policy
cache stale used to probe and fetch for itself, nested inside whichever
query was already waiting for the same bundle.  One function asks the
PAP for policy now, and only under the single-flight guard that parks
everybody else.

And to policy leaves: RBAC compilation spelled its role ``Match`` and the
``Target(AnyOf(AllOf(...)))`` around it by hand, with a literal function
URN, beside the builders everybody else uses — so its leaves were never
the shared ones.  ``Match`` and ``AttributeDesignator`` are constructed
in the four ``xacml`` modules that own the tree and its two construction
paths (builders and parser), nowhere else under ``src/``.

And to query envelopes: a batch was tiled by patterns and every request
in it parsed again on its own, a forwarded batch's wrapper by one more
pattern.  One function runs expat on a query envelope now, and no
pattern names a ``<Request>``.

And to replica failover: a PEP could reach its PDP through the
dispatcher, through a ``pdp_selector`` hook (a heartbeat router, a
registry selector) or straight to its one configured address, and only
the first retried a replica that timed out.  ``DecisionDispatcher`` is
the only way now, and its ``dispatch`` the only loop that fails over.

And to static conflict analysis: E8's modality-conflict scan intersected
``Target.pinned`` sets beside E25's constraint algebra, and the two
disagreed on issued bags.  The scan is a query on the algebra now, and
``Target.pinned`` is read by shard partitioning and delegation scopes
only.
"""

import ast
from pathlib import Path

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
COMPONENTS = REPRO / "components"
#: Where decision caches live and where they are invalidated from.
COHERENCE = (COMPONENTS, REPRO / "revocation")


def functions():
    """``(file.function, node)`` for every function under components/."""
    for path in sorted(COMPONENTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.name}:{node.name}", node


def calls(node: ast.AST, method: str):
    """Call sites of ``<anything>.method(...)`` inside ``node``."""
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == method
    ]


def arms_a_flush_delay_timer(node: ast.AST) -> bool:
    """Does it ``schedule(<something>_delay, ...)``?  (``max_delay`` and
    ``forward_delay`` are the flush delays; timeouts and pacing are
    scheduled under other names.)"""
    return any(
        call.args
        and isinstance(call.args[0], ast.Attribute)
        and call.args[0].attr.endswith("_delay")
        for call in calls(node, "schedule")
    )


def test_one_function_arms_the_flush_delay_timer():
    armers = [name for name, node in functions() if arms_a_flush_delay_timer(node)]
    assert armers == ["fabric.py:trigger"], (
        "a flush-delay timer is armed outside BatchingStage.trigger — "
        f"instantiate the stage instead of copying its window: {armers}"
    )


def test_one_call_site_partitions_by_shard_owner():
    sites = [
        name for name, node in functions() for _ in calls(node, "partition")
    ]
    assert sites == ["fabric.py:send"], (
        "DecisionDispatcher.partition is called outside BatchWireCore.send "
        f"— send through the wire core instead: {sites}"
    )


def coherence_modules():
    """``(package/file, tree)`` for every module that may touch a
    decision cache, but the one that implements it."""
    for package in COHERENCE:
        for path in sorted(package.glob("*.py")):
            if path != COMPONENTS / "cache.py":
                yield (
                    f"{package.name}/{path.name}",
                    ast.parse(path.read_text(encoding="utf-8")),
                )


def test_only_the_cache_scans_its_entries():
    sites = [
        name for name, tree in coherence_modules() if calls(tree, "invalidate_where")
    ]
    assert sites == [], (
        "invalidate_where is called outside components/cache.py — a "
        "decision cache is invalidated through DecisionCache.invalidate_for"
        f" / invalidate_all, which also fence in-flight fills: {sites}"
    )


def test_only_the_cache_keeps_fences():
    def assigned_names(tree: ast.AST):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Store
            ):
                yield node.id if isinstance(node, ast.Name) else node.attr

    keepers = [
        f"{name}:{assigned}"
        for name, tree in coherence_modules()
        for assigned in assigned_names(tree)
        if "fence" in assigned.lower()
    ]
    assert keepers == [], (
        "fence bookkeeping outside components/cache.py — admit statements "
        f"through DecisionCache.admit instead of keeping a copy: {keepers}"
    )


# -- one policy refresh in flight per PDP (ISSUE 23) -----------------------------


def pdp_functions():
    return {
        name.split(":")[1]: node
        for name, node in functions()
        if name.startswith("pdp.py:")
    }


def is_self_attr(node: ast.AST, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def test_one_function_asks_the_pap_for_policy():
    askers = {
        (name, call.args[1].value)
        for name, node in pdp_functions().items()
        for call in calls(node, "call")
        if call.args and is_self_attr(call.args[0], "pap_address")
    }
    assert askers == {
        ("_refresh_policies", "pap.revision"),
        ("_refresh_policies", "pap.retrieve"),
        ("subscribe_to_policy_changes", "pap.subscribe"),
    }, (
        "the PAP is asked for policy outside PolicyDecisionPoint."
        f"_refresh_policies — a second refresh path is a second herd: {askers}"
    )


def mentions(node: ast.AST, attr: str) -> bool:
    return any(is_self_attr(inner, attr) for inner in ast.walk(node))


def test_the_refresh_runs_only_under_the_single_flight_guard():
    pdp = pdp_functions()
    entries = [name for name, node in pdp.items() if mentions(node, "_refresh_policies")]
    assert entries == ["_ensure_policies"], (
        f"_refresh_policies is entered from more than one place: {entries}"
    )
    # ... right after the guard is raised, inside the try whose finally
    # lowers it (or hands it to the release of whoever was parked).
    body = pdp["_ensure_policies"].body
    (at,) = [
        index
        for index, statement in enumerate(body)
        if isinstance(statement, ast.Try) and mentions(statement, "_refresh_policies")
    ]
    assert ast.unparse(body[at - 1]) == "self._parking = True"
    assert any(mentions(statement, "_parking") for statement in body[at].finalbody)
    # ... and the guard is the first thing every query endpoint tests.
    docstring, first = pdp["_serve_query"].body[:2]
    assert isinstance(docstring.value, ast.Constant)
    assert isinstance(first, ast.If) and ast.unparse(first.test) == "self._parking", (
        "_serve_query must park a query before it does anything else with it"
    )


# -- one way to build a policy leaf (ISSUE 24) --------------------------------------

#: The modules that may construct a leaf: where the node classes live,
#: where the builders are, and the parser.
LEAF_BUILDERS = {
    f"xacml/{name}.py" for name in ("attributes", "targets", "expressions", "parser")
}


def test_policy_leaves_are_constructed_in_the_xacml_tree_modules_only():
    sites = set()
    for path in sorted(REPRO.rglob("*.py")):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            if name in ("Match", "AttributeDesignator"):
                sites.add(path.relative_to(REPRO).as_posix())
    assert sites <= LEAF_BUILDERS, (
        "Match( / AttributeDesignator( constructed outside the xacml tree "
        "modules — use match_equal / target_of / attribute_equals / "
        f"designator, whose leaves are shared: {sorted(sites - LEAF_BUILDERS)}"
    )
    assert sites, "the lint found no construction site at all: it is looking wrong"


# -- one expat pass per query envelope ----------------------------------------------

#: The modules that read query envelopes, and the one function among
#: them that may run expat.
ENVELOPE_READERS = (REPRO / "saml", COMPONENTS / "federation.py")
ENVELOPE_PARSER = "saml/xacml_profile.py:parse_envelope"
EXPAT_ENTRIES = {"fromstring", "XML", "XMLParser", "XMLPullParser", "iterparse"}


def docstrings(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            yield node.body[0].value


def test_no_pattern_tiles_requests():
    """A ``<Request>`` is read by expat, inside the message it came in:
    no string in a module that compiles patterns names one."""
    sites = []
    for path in sorted(REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports_re = any(
            isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names)
            for node in ast.walk(tree)
        )
        if not imports_re:
            continue
        skipped = set(map(id, docstrings(tree)))
        sites.extend(
            f"{path.relative_to(REPRO).as_posix()}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "<Request" in node.value
            and id(node) not in skipped
        )
    assert sites == [], (
        "a pattern names <Request> — queries are decoded by one expat pass "
        f"(saml.xacml_profile.parse_envelope), never tiled by regex: {sites}"
    )


def owned_nodes(paths):
    """``(module:outermost function, node)`` for every node in ``paths``."""
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(function):
                    owner.setdefault(id(inner), function.name)
        module = path.relative_to(REPRO).as_posix()
        for node in ast.walk(tree):
            yield f"{module}:{owner.get(id(node), '<module>')}", node


def test_one_function_runs_expat_on_query_envelopes():
    paths = [
        path
        for reader in ENVELOPE_READERS
        for path in (sorted(reader.glob("*.py")) if reader.is_dir() else [reader])
    ]
    sites = []
    for site, call in owned_nodes(paths):
        if not isinstance(call, ast.Call):
            continue
        callee = call.func
        called = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
        if called in EXPAT_ENTRIES:
            sites.append(site)
    assert sites == [ENVELOPE_PARSER], (
        "expat runs on a query envelope outside parse_envelope — decode the "
        f"element it returns instead of parsing the text again: {sites}"
    )


# -- one failover loop -----------------------------------------------------------

#: Who may ask a dispatcher for a replica while excluding the ones tried.
EXCLUDING_SELECTORS = {
    "components/fabric.py:dispatch",
    "components/fabric.py:selector_for",
    "components/fabric.py:_check_timeout",
}

#: Loops that go on to the next address after a timeout without being a
#: failover: every address is asked on purpose.
FAN_OUTS = {
    "admin/syndication.py:_push_to_children": "pushes to every child",
    "components/pdp.py:_attribute_finder_for": "asks each PIP, not a PDP",
    "core/dependability.py:_beat": "the heartbeat pings every replica",
    "core/dependability.py:evaluate": "quorum voting asks for votes",
}


def excludes_tried(call: ast.Call) -> bool:
    """A ``.select(...)`` given a tried list (not the empty literal)."""
    arguments = call.args + [keyword.value for keyword in call.keywords]
    return any(
        not (isinstance(argument, ast.Tuple) and not argument.elts)
        for argument in arguments
    )


def retries_after_timeout(loop: ast.AST) -> bool:
    """Does the loop ``continue`` out of an ``except RpcTimeout``?"""
    for handler in ast.walk(loop):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        if any(getattr(name, "id", "") == "RpcTimeout" for name in caught) and any(
            isinstance(statement, ast.Continue) for statement in ast.walk(handler)
        ):
            return True
    return False


def test_dispatch_is_the_only_failover_loop():
    everything = sorted(REPRO.rglob("*.py"))
    hooks = [
        path.relative_to(REPRO).as_posix()
        for path in everything
        if "pdp_selector" in path.read_text(encoding="utf-8")
    ]
    assert hooks == [], (
        "a pdp_selector hook is back — routing is a RoutingPolicy behind "
        f"DecisionDispatcher: {hooks}"
    )
    selectors = {
        site
        for site, node in owned_nodes(everything)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "select"
        and excludes_tried(node)
    }
    assert selectors == EXCLUDING_SELECTORS, (
        "a replica is picked past the ones already tried outside the "
        f"dispatcher and the wire core's timeout: {sorted(selectors)}"
    )
    loops = {
        site
        for site, node in owned_nodes(everything)
        if isinstance(node, (ast.For, ast.While)) and retries_after_timeout(node)
    }
    assert loops == {"components/fabric.py:dispatch", *FAN_OUTS}, (
        "a timeout moves on to another replica outside "
        f"DecisionDispatcher.dispatch — route through it: {sorted(loops)}"
    )


# -- one static conflict analyser -----------------------------------------------

#: The footprint analyser E8 ran beside the constraint algebra.
RETIRED_ANALYSER = {"RuleFootprint", "footprints", "_footprint", "_sets_intersect"}
#: Who may summarise a target by :meth:`Target.pinned`.
PINNED_READERS = ["admin/delegation.py:policy_scope", "xacml/engine.py:partition_for"]


def identifiers(tree: ast.AST):
    """Every name a module defines, reads, imports or looks up."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name


def test_one_static_conflict_analyser():
    everything = sorted(REPRO.rglob("*.py"))
    trees = {
        path.relative_to(REPRO).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in everything
    }
    retired = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in set(identifiers(tree)) & RETIRED_ANALYSER
    )
    assert retired == [], (
        "the footprint analyser is back — modality conflicts are a query on "
        f"the analysis algebra (xacml.analysis.find_modality_conflicts): {retired}"
    )
    definitions = [
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "find_modality_conflicts"
    ]
    assert definitions == ["xacml/analysis/checks.py"], definitions
    readers = sorted(
        {
            site
            for site, node in owned_nodes(everything)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pinned"
        }
    )
    assert readers == PINNED_READERS, (
        "Target.pinned is read outside shard partitioning and delegation "
        f"scopes — static analysis reads targets through the algebra: {readers}"
    )
