"""Property-based tests (hypothesis) over the access control models.

Invariants:

* RBAC: no sequence of API operations can leave a user's authorized role
  closure violating an SSD constraint; compiled XACML always agrees with
  the reference monitor.
* Chinese wall: once committed, a subject can never touch two datasets of
  the same conflict class.
"""


from hypothesis import given, settings, strategies as st

from repro.models import ChineseWallEngine, RbacError, RbacModel, SsdConstraint

ROLES = ["r0", "r1", "r2", "r3", "r4"]
USERS = ["u0", "u1", "u2"]


@st.composite
def rbac_operations(draw):
    ops = []
    count = draw(st.integers(min_value=0, max_value=25))
    for _ in range(count):
        kind = draw(st.sampled_from(["assign", "deassign", "inherit", "ssd"]))
        if kind == "assign":
            ops.append(("assign", draw(st.sampled_from(USERS)), draw(st.sampled_from(ROLES))))
        elif kind == "deassign":
            ops.append(("deassign", draw(st.sampled_from(USERS)), draw(st.sampled_from(ROLES))))
        elif kind == "inherit":
            ops.append(
                ("inherit", draw(st.sampled_from(ROLES)), draw(st.sampled_from(ROLES)))
            )
        else:
            role_set = draw(st.sets(st.sampled_from(ROLES), min_size=2, max_size=3))
            ops.append(("ssd", frozenset(role_set)))
    return ops


class TestRbacInvariants:
    @given(rbac_operations())
    @settings(max_examples=80)
    def test_ssd_never_violated(self, operations):
        model = RbacModel("prop")
        for role in ROLES:
            model.add_role(role)
        constraints = []
        for op in operations:
            try:
                if op[0] == "assign":
                    model.assign_user(op[1], op[2])
                elif op[0] == "deassign":
                    model.deassign_user(op[1], op[2])
                elif op[0] == "inherit":
                    model.add_inheritance(op[1], op[2])
                else:
                    constraint = SsdConstraint(f"ssd-{len(constraints)}", op[1])
                    model.add_ssd(constraint)
                    constraints.append(constraint)
            except RbacError:
                continue  # the API refused; invariant must still hold
            for user in USERS:
                authorized = model.authorized_roles(user)
                for constraint in constraints:
                    assert not constraint.violated_by(authorized), (
                        user,
                        authorized,
                        constraint,
                    )

    @given(rbac_operations())
    @settings(max_examples=30)
    def test_closure_contains_assigned(self, operations):
        model = RbacModel("prop")
        for role in ROLES:
            model.add_role(role)
        for op in operations:
            try:
                if op[0] == "assign":
                    model.assign_user(op[1], op[2])
                elif op[0] == "inherit":
                    model.add_inheritance(op[1], op[2])
            except RbacError:
                continue
        for user in USERS:
            assert model.assigned_roles(user) <= model.authorized_roles(user)


class TestChineseWallInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["u0", "u1"]),
                st.sampled_from(["d0", "d1", "d2", "d3"]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_never_two_datasets_same_class(self, accesses):
        engine = ChineseWallEngine()
        engine.register_dataset("d0", "class-x")
        engine.register_dataset("d1", "class-x")
        engine.register_dataset("d2", "class-y")
        engine.register_dataset("d3", ChineseWallEngine.SANITISED)
        granted: dict[str, set[str]] = {}
        for at, (subject, dataset) in enumerate(accesses):
            if engine.check_and_record(subject, dataset, at=float(at)):
                granted.setdefault(subject, set()).add(dataset)
        for subject, datasets in granted.items():
            per_class: dict[str, set[str]] = {}
            for dataset in datasets:
                conflict_class = engine.dataset(dataset).conflict_class
                if conflict_class == ChineseWallEngine.SANITISED:
                    continue
                per_class.setdefault(conflict_class, set()).add(dataset)
            for conflict_class, members in per_class.items():
                assert len(members) <= 1, (subject, conflict_class, members)
