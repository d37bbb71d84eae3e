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
PAP for policy now, entered from one place, and while its ask is on the
wire every query is parked before anything else is done with it.

And to policy leaves: RBAC compilation spelled its role ``Match`` and the
``Target(AnyOf(AllOf(...)))`` around it by hand, with a literal function
URN, beside the builders everybody else uses — so its leaves were never
the shared ones.  ``Match`` and ``AttributeDesignator`` are constructed
in the four ``xacml`` modules that own the tree and its two construction
paths (builders and parser), nowhere else under ``src/``.

And to query envelopes: a batch was tiled by patterns and every request
in it parsed again on its own, a forwarded batch's wrapper by one more
pattern.  One function runs expat on a query envelope now.  Patterns
read the writers' own form only: the canonical reader scans it once and
makes no expat call, any other text goes to that one expat pass whole,
and no pattern outside the reader names a ``<Request>``.

And to replica failover: a PEP could reach its PDP through the
dispatcher, through a ``pdp_selector`` hook (a heartbeat router, a
registry selector) or straight to its one configured address, and only
the first retried a replica that timed out.  ``DecisionDispatcher`` is
the only way now.  Then the PEP still had two transports — a blocking
RPC with a failover loop of its own (``DecisionDispatcher.dispatch``)
for ``authorize``, the wire core for ``submit`` — which counted
failovers differently.  Both entry points send through the wire core
now, and its timeout is the only re-send: no loop moves on to another
replica after a timeout.

And to static conflict analysis: E8's modality-conflict scan intersected
``Target.pinned`` sets beside E25's constraint algebra, and the two
disagreed on issued bags.  The scan is a query on the algebra now, and
``Target.pinned`` is read by shard partitioning and delegation scopes
only.

And to waiting for a reply: ``Component.call`` nested the event loop
inside whatever handler called it, and the wire core kept reply
handlers of its own, registered per action.  ``Component.ask`` is the
one way to wait now — it runs a continuation from the event that
settles the ask — and ``Component`` alone matches a reply: no handler
under ``src/`` is registered for a ``:response`` or ``:fault`` kind.
No handler or timer waits: no unit an event reaches calls ``call``
(``ask`` plus a driver wait, left to drivers and setup) or runs the
loop, and the loop itself refuses to nest.  Another lint keeps the
loop at the top level: under ``src/`` only ``Component.call`` and a
PEP's ``authorize`` (a top-level wait on the wire core) run it to a
predicate.
"""

import ast
from pathlib import Path

from test_surface_lint import identifiers as names_read

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


def pdp_methods():
    """``name -> node`` per method of ``PolicyDecisionPoint`` (a nested
    function belongs to the method it is in)."""
    tree = ast.parse((COMPONENTS / "pdp.py").read_text(encoding="utf-8"))
    (pdp,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "PolicyDecisionPoint"
    ]
    return {
        node.name: node for node in pdp.body if isinstance(node, ast.FunctionDef)
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
        for name, node in pdp_methods().items()
        for method in ("ask", "call")
        for call in calls(node, method)
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
    pdp = pdp_methods()
    entries = [name for name, node in pdp.items() if mentions(node, "_refresh_policies")]
    assert entries == ["_ensure_policies"], (
        f"_refresh_policies is entered from more than one place: {entries}"
    )
    # ... and only once the guard is raised: the statement that parks
    # queries from now on comes before the one that sends the refresh.
    body = pdp["_ensure_policies"].body

    def first(predicate):
        return min(index for index, statement in enumerate(body) if predicate(statement))

    raised = first(
        lambda statement: isinstance(statement, ast.Assign)
        and any(is_self_attr(target, "_parked") for target in ast.walk(statement))
    )
    sent = first(
        lambda statement: isinstance(statement, ast.Expr)
        and mentions(statement, "_refresh_policies")
    )
    assert raised < sent, "the refresh goes on the wire before queries are parked"
    # ... and the in-flight check is the first thing every query endpoint does.
    docstring, check = pdp["_serve_query"].body[:2]
    assert isinstance(docstring.value, ast.Constant)
    assert isinstance(check, ast.If) and (
        ast.unparse(check.test) == "self._parked is not None"
    ), "_serve_query must park a query before it does anything else with it"


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


#: The canonical reader, per module: the functions that read the
#: writers' own form with patterns, and the names its patterns are
#: held under.
CANONICAL_READER = {
    "xacml/parser.py": {
        "read_canonical", "canonical_request", "_leaf", "_attribute",
        "_CATEGORY", "_ATTRIBUTE", "_VALUE", "_VALUE_TOKEN",
        "_EMPTY_REQUEST", "_REQUEST_OPEN", "_REQUEST_CLOSE",
    },
    "saml/xacml_profile.py": {"_canonical_query", "_canonical_single", "canonical_batch"},
    "components/federation.py": {"_canonical_forward"},
}  # fmt: skip
#: What reads XML with expat, directly or as the tree path's entry.
TREE_READERS = EXPAT_ENTRIES | {"parse_envelope", "parse_request", "_request_of", "from_element"}


def top_level_owners(tree: ast.Module):
    """``{id(node): names}``: the names each node's top-level statement
    defines (a function's or class's name, an assignment's targets)."""
    owners = {}
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names = {statement.name}
        else:
            names = {
                node.id
                for target in getattr(statement, "targets", [getattr(statement, "target", None)])
                if target is not None
                for node in ast.walk(target)
                if isinstance(node, ast.Name)
            }
        for node in ast.walk(statement):
            owners[id(node)] = names
    return owners


def test_only_the_canonical_reader_names_requests_in_patterns():
    """A ``<Request>`` is named by a pattern only in the canonical
    reader: no other string in a module that compiles patterns names
    one (docstrings and the messages of ``raise`` are not patterns)."""
    sites = []
    for path in sorted(REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports_re = any(
            isinstance(node, ast.Import) and any(alias.name == "re" for alias in node.names)
            for node in ast.walk(tree)
        )
        if not imports_re:
            continue
        module = path.relative_to(REPRO).as_posix()
        skipped = set(map(id, docstrings(tree)))
        for raised in ast.walk(tree):
            if isinstance(raised, ast.Raise):
                skipped.update(map(id, ast.walk(raised)))
        owners = top_level_owners(tree)
        reader = CANONICAL_READER.get(module, set())
        sites.extend(
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "<Request" in node.value
            and id(node) not in skipped
            and not owners[id(node)] <= reader
        )
    assert sites == [], (
        "a pattern outside the canonical reader names <Request> — a query "
        "is read by the canonical reader or by one expat pass "
        f"(saml.xacml_profile.parse_envelope), never tiled by regex: {sites}"
    )


def test_the_canonical_reader_makes_no_expat_call():
    """Nothing the reader's functions call, within the modules that hold
    it, reads XML with expat or hands the text to the tree path: it
    returns None instead, and its caller does that."""
    defined, reached = {}, set()
    for module in CANONICAL_READER:
        tree = ast.parse((REPRO / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                defined[node.name] = node
    pending = [name for names in CANONICAL_READER.values() for name in names if name in defined]
    assert len(pending) == 8, "the lint lost sight of the reader's functions"
    sites = []
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for call in ast.walk(defined[name]):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            called = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
            if called in TREE_READERS:
                sites.append(f"{name} calls {called}")
            elif called in defined:
                pending.append(called)
    assert sites == [], f"the canonical reader reaches the tree path: {sites}"


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
    "components/fabric.py:selector_for",
    "components/fabric.py:_on_error",
}

#: Who asks a run of peers in turn (``Component.in_turn``), going on to
#: the next after a timeout without being a failover: each is asked on
#: purpose.
FAN_OUTS = {
    "admin/syndication.py:_syndicate": "pushes to every child",
    "components/pdp.py:_ask_pips": "each PIP is a source of its own",
    "core/dependability.py:_beat": "the heartbeat pings every replica",
    "core/dependability.py:evaluate": "quorum voting asks for votes",
    "core/discovery.py:_probe_all": "the prober pings every service",
    "domain/directory_service.py:_resolve": "one lookup per resource",
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


def test_the_wire_core_timeout_is_the_only_failover():
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
        or isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "in_turn"
    }
    assert loops == set(FAN_OUTS), (
        "a loop moves on to another replica after a timeout — send through "
        "the wire core, whose timeout fails over: "
        f"{sorted(loops - set(FAN_OUTS))}"
    )


# -- one static conflict analyser -----------------------------------------------

#: The footprint analyser E8 ran beside the constraint algebra.
RETIRED_ANALYSER = {"RuleFootprint", "footprints", "_footprint", "_sets_intersect"}
#: Who may summarise a target by :meth:`Target.pinned`.
PINNED_READERS = ["admin/delegation.py:policy_scope"]


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
        "Target.pinned is read outside delegation scopes — static "
        f"analysis reads targets through the algebra: {readers}"
    )


# -- no handler blocks (ROADMAP direction 9) ---------------------------------------

#: Calls that drive the event loop from inside whoever makes them: the
#: synchronous RPC and the loop it runs.
BLOCKING = {"call", "run_until"}
#: Calls whose callbacks run as events, by the parameters each takes:
#: ``on``'s handler, the loop's (or network's) timers, a component's
#: rounds, an ask's two continuations, the step and end of a turn and
#: the completion a PEP's ``submit`` runs when the decision lands.
EVENT_ENTRIES = {
    "on": ("kind", "handler"),
    "schedule": ("delay", "callback"),
    "schedule_at": ("when", "callback"),
    "every": ("period", "round_"),
    "ask": ("recipient", "kind", "payload", "on_reply", "on_error"),
    "in_turn": ("items", "step", "done"),
    "submit": ("request", "callback"),
}
#: The parameters of :data:`EVENT_ENTRIES` that take a callback.
CALLBACKS = {"handler", "callback", "round_", "on_reply", "on_error", "step", "done"}


def event_callbacks(call: ast.Call) -> list[ast.AST]:
    """The arguments of ``call`` — one of :data:`EVENT_ENTRIES` — that
    run as events, passed by position or by keyword."""
    parameters = EVENT_ENTRIES[call.func.attr]
    return [
        argument
        for parameter, argument in zip(parameters, call.args)
        if parameter in CALLBACKS
    ] + [keyword.value for keyword in call.keywords if keyword.arg in CALLBACKS]


def event_units(module: str, tree: ast.Module):
    """``(key, name, node)`` per ``def`` not inside another ``def`` (a
    nested function — a finder, a callback — belongs to its encloser),
    and per name a module or class body assigns (a dispatch table
    reaches what it holds)."""

    def visit(body, prefix):
        for statement in body:
            if isinstance(statement, ast.ClassDef):
                yield from visit(statement.body, f"{prefix}{statement.name}.")
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{module}:{prefix}{statement.name}", statement.name, statement
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)) and statement.value:
                targets = getattr(statement, "targets", [getattr(statement, "target", None)])
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield f"{module}:{prefix}{target.id}", target.id, statement.value

    yield from visit(tree.body, "")


def hook_units(module: str, tree: ast.Module):
    """``(key, name, value)`` per attribute assigned anywhere: a hook
    such as ``pep.revocation_guard = self._pep_guard`` reaches what it
    holds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    yield f"{module}:{node.lineno}:{target.attr}", target.attr, node.value


def blocks(node: ast.AST) -> bool:
    """Does ``node`` call ``<anything>.call(...)`` or ``run_until``?"""
    return any(
        isinstance(call, ast.Call)
        and (
            getattr(call.func, "attr", None) in BLOCKING
            or getattr(call.func, "id", None) == "run_until"
        )
        for call in ast.walk(node)
    )


def blocking_sites(trees) -> list[str]:
    """Units that block and are reachable, by name, from an event.

    Roots are the identifiers in the callback arguments of every call
    to one of :data:`EVENT_ENTRIES` (``on``, the timers, ``every``,
    ``ask`` and ``in_turn``); a unit that passes a lambda or one of its
    own nested functions there is a root itself, since that callback is
    part of it.  A unit reads what ``test_surface_lint.identifiers``
    finds in it, and every unit or hook (:func:`hook_units`) bearing a
    name a reached unit reads is reached."""
    units = [unit for module, tree in trees for unit in event_units(module, tree)]
    by_name: dict[str, list] = {}
    for unit in units + [hook for module, tree in trees for hook in hook_units(module, tree)]:
        by_name.setdefault(unit[1], []).append(unit)
    pending = [
        name
        for _, tree in trees
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in EVENT_ENTRIES
        for name in names_read(event_callbacks(call))
    ]
    reached = {key for key, _, node in units if continues_in_itself(node)}
    for key, _, node in units:
        if key in reached:
            pending.extend(names_read([node]))
    seen: set[str] = set()
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for key, _, node in by_name.get(name, []):
            if key not in reached:
                reached.add(key)
                pending.extend(names_read([node]))
    return sorted(
        key for key, _, node in units if key in reached and blocks(node)
    )


def continues_in_itself(unit: ast.AST) -> bool:
    """Does ``unit`` hand one of :data:`EVENT_ENTRIES` a lambda or a
    function it nests?"""
    nested = {
        node.name
        for node in ast.walk(unit)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not unit
    }
    return any(
        isinstance(node, ast.Lambda) or isinstance(node, ast.Name) and node.id in nested
        for call in ast.walk(unit)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in EVENT_ENTRIES
        for argument in event_callbacks(call)
        for node in ast.walk(argument)
    )


def source_trees():
    return [
        (path.relative_to(REPRO).as_posix(), ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(REPRO.rglob("*.py"))
    ]


def test_no_handler_or_timer_reaches_a_blocking_call():
    assert blocking_sites(source_trees()) == [], (
        "a blocking call (.call / run_until) is reachable from a handler "
        "registered with on(...), a timer, a round or a continuation — ask, and "
        "continue from the reply's event instead"
    )


#: A made-up component: a handler whose helper blocks, a timer that
#: blocks through a dispatch table, and a blocking method that no event
#: reaches (the caller's own entry point).
BLOCKING_WORLD = """
class Server:
    def __init__(self):
        self.on("query", self._handle)
        self.loop.schedule(1.0, lambda: self._tick())

    def _handle(self, message):
        return self._lookup(message)

    def _lookup(self, message):
        return self.call("pip", "pip.query", message)

    _TABLE = {"tick": _lookup}

    def _tick(self):
        return self._TABLE["tick"](self, None)

    def drive(self):
        return self.call("server", "query", "<Q/>")
"""


def test_the_blocking_lint_finds_a_handler_that_blocks():
    trees = [("pkg/server.py", ast.parse(BLOCKING_WORLD))]
    assert blocking_sites(trees) == ["pkg/server.py:Server._lookup"]
    # Without the handler the timer still gets there, through the table.
    unregistered = BLOCKING_WORLD.replace('self.on("query", self._handle)', "pass")
    assert blocking_sites([("pkg/server.py", ast.parse(unregistered))]) == [
        "pkg/server.py:Server._lookup"
    ]
    # Without both nothing an event runs blocks; the caller's own entry
    # point never counted.
    quiet = unregistered.replace("lambda: self._tick()", "lambda: None")
    assert blocking_sites([("pkg/server.py", ast.parse(quiet))]) == []


#: A made-up watcher: an ask's continuation, a continuation nested in
#: its asker, a hook an error continuation reads, a turn's end and a
#: submit's completion that block, each reached only as a continuation
#: of a driver's call.
CONTINUING_WORLD = """
class Watcher:
    def lookup(self, key):
        def answered(reply):
            self.call("peer", "confirm", reply)

        self.ask("directory", "lookup", key, answered, self._missed)

    def start(self):
        self.ask("peer", "ping", "<Ping/>", self._heard, on_error=self._missed)

    def _heard(self, reply):
        return self._confirm(reply)

    def _confirm(self, reply):
        return self.call("peer", "confirm", reply)

    def _missed(self, exc):
        return self.pep.guard(exc)

    def protect(self, pep):
        pep.guard = self._status

    def _status(self, request):
        return self.call("authority", "status", request)

    def enqueue(self, pep, request):
        pep.submit(request, self._settled)

    def _settled(self, result):
        return self.call("audit", "record", result)

    def sweep(self, peers):
        self.in_turn(peers, lambda peer, settled: settled(), done=self._report)

    def _report(self):
        self.network.loop.run_until(lambda: True, self.now + 1.0)
"""


def test_the_blocking_lint_follows_continuations():
    trees = [("pkg/watcher.py", ast.parse(CONTINUING_WORLD))]
    assert blocking_sites(trees) == [
        "pkg/watcher.py:Watcher._confirm",
        "pkg/watcher.py:Watcher._report",
        "pkg/watcher.py:Watcher._settled",
        "pkg/watcher.py:Watcher._status",
        "pkg/watcher.py:Watcher.lookup",
    ]
    # Handed no continuation, the driver's own entry points never count.
    detached = CONTINUING_WORLD.replace("self._heard, on_error=self._missed", "None, None")
    detached = detached.replace("done=self._report", "done=None")
    detached = detached.replace("key, answered, self._missed", "key, None, None")
    detached = detached.replace("request, self._settled", "request, None")
    assert blocking_sites([("pkg/watcher.py", ast.parse(detached))]) == []


# -- the loop runs to a predicate at the top level only (ROADMAP direction 9) -----

#: ``module:Qualified.name`` of every function under ``src/`` that may
#: run the event loop until a predicate holds.
LOOP_RUNNERS = {
    "components/base.py:Component.call": "ask plus a driver wait",
    "components/pep.py:PolicyEnforcementPoint.authorize": (
        "the pull model's top-level wait on the PEP's wire core"
    ),
}


def run_until_sites(trees) -> list[str]:
    """``module:Qualified.name`` of each function calling ``run_until``
    (a nested function counts for the ``def`` it is in)."""
    return sorted(
        {
            key
            for module, tree in trees
            for key, _, node in event_units(module, tree)
            if any(
                isinstance(call, ast.Call)
                and (
                    getattr(call.func, "attr", None) == "run_until"
                    or getattr(call.func, "id", None) == "run_until"
                )
                for call in ast.walk(node)
            )
        }
    )


def test_only_top_level_waits_run_the_loop_to_a_predicate():
    assert run_until_sites(source_trees()) == sorted(LOOP_RUNNERS), (
        "run_until is called outside Component.call and "
        "PolicyEnforcementPoint.authorize — send, and handle the reply as "
        "an event; a script or test waits from outside src/"
    )


#: A made-up PEP whose completion waits for a second answer.
WAITING_WORLD = """
class PolicyEnforcementPoint:
    def authorize(self, request):
        answer = []
        self._wire.send(request, answer.append)
        self.network.loop.run_until(lambda: bool(answer), math.inf)
        return answer[0]

    def _complete(self, slot, statement):
        def recheck():
            self.loop.run_until(lambda: slot.done, self.now + 1.0)
        recheck()
"""


def test_the_wait_lint_finds_a_second_wait():
    trees = [("components/pep.py", ast.parse(WAITING_WORLD))]
    assert run_until_sites(trees) == [
        "components/pep.py:PolicyEnforcementPoint._complete",
        "components/pep.py:PolicyEnforcementPoint.authorize",
    ]
    assert run_until_sites(trees) != sorted(LOOP_RUNNERS)


# -- one place matches a reply (ROADMAP direction 9) ------------------------------

REPLY_KINDS = (":response", ":fault")


def reply_handlers(trees) -> list[str]:
    """``module:line`` of every ``on(kind, ...)`` whose kind — a literal,
    or an f-string by its literal tail — is a reply kind."""
    sites = []
    for module, tree in trees:
        for call in ast.walk(tree):
            if not (
                isinstance(call, ast.Call)
                and getattr(call.func, "attr", None) == "on"
                and call.args
            ):
                continue
            kind = call.args[0]
            if isinstance(kind, ast.JoinedStr) and kind.values:
                kind = kind.values[-1]
            if isinstance(kind, ast.Constant) and str(kind.value).endswith(REPLY_KINDS):
                sites.append(f"{module}:{call.lineno}")
    return sites


def test_component_alone_matches_replies():
    assert reply_handlers(source_trees()) == [], (
        "a handler is registered for a :response or :fault kind — ask, and "
        "let Component match the reply to its continuation"
    )


#: A made-up client that matches its own replies, twice.
REPLY_WORLD = """
class Client:
    def __init__(self, action):
        self.on("query", self._serve)
        self.on(f"{action}:response", self._reply)
        self.on("pip.query:fault", self._fault)
"""


def test_the_reply_lint_finds_a_reply_handler():
    trees = [("pkg/client.py", ast.parse(REPLY_WORLD))]
    assert reply_handlers(trees) == ["pkg/client.py:5", "pkg/client.py:6"]
