"""Population generator: determinism, org shape, skew, streaming."""

import itertools
import random

import pytest

from repro.workloads.population import (
    Population,
    PopulationSpec,
    SUBJECT_CLEARANCE,
    SUBJECT_MANAGER,
    SUBJECT_UNIT,
    ZipfSampler,
)
from repro.xacml import Decision, PdpEngine, PolicyStore, RequestContext
from repro.xacml.attributes import (
    Category,
    DataType,
    SUBJECT_ROLE,
)


def small_population(**overrides) -> Population:
    spec = PopulationSpec(
        subjects=overrides.pop("subjects", 500),
        resources=overrides.pop("resources", 40),
        **overrides,
    )
    return Population(spec)


class TestZipfSampler:
    def test_ranks_stay_in_bounds(self):
        sampler = ZipfSampler(100, 1.1, random.Random(1))
        ranks = [sampler.sample() for _ in range(2000)]
        assert min(ranks) >= 1 and max(ranks) <= 100

    def test_deterministic_for_same_rng_seed(self):
        a = ZipfSampler(1000, 0.9, random.Random(7))
        b = ZipfSampler(1000, 0.9, random.Random(7))
        assert [a.sample() for _ in range(200)] == [
            b.sample() for _ in range(200)
        ]

    def test_skew_concentrates_on_low_ranks(self):
        sampler = ZipfSampler(10_000, 1.2, random.Random(3))
        ranks = [sampler.sample() for _ in range(5000)]
        top_share = sum(1 for rank in ranks if rank <= 100) / len(ranks)
        assert top_share > 0.5

    def test_zero_exponent_is_uniform(self):
        sampler = ZipfSampler(10, 0.0, random.Random(5))
        ranks = [sampler.sample() for _ in range(5000)]
        assert set(ranks) == set(range(1, 11))
        assert max(ranks.count(rank) for rank in set(ranks)) < 800

    def test_huge_n_needs_no_materialisation(self):
        # O(1) memory: constructing at 10^7 is instant, draws bounded.
        sampler = ZipfSampler(10_000_000, 1.1, random.Random(9))
        assert all(
            1 <= sampler.sample() <= 10_000_000 for _ in range(100)
        )


class TestOrgStructure:
    def test_profiles_are_deterministic_across_instances(self):
        a, b = small_population(), small_population()
        for index in range(0, 500, 17):
            assert a.subject_profile(index) == b.subject_profile(index)

    def test_root_is_executive_leaves_draw_ic_roles(self):
        population = small_population()
        spec = population.spec
        assert population.subject_profile(0).role == "executive"
        assert population.subject_profile(1).role == "director"
        leaf_roles = {
            population.subject_profile(index).role
            for index in range(400, 500)
            if not population._has_reports(index)
        }
        assert leaf_roles <= set(spec.roles)

    def test_manager_edges_form_a_tree(self):
        population = small_population()
        assert population.manager_index(0) is None
        for index in range(1, 500):
            manager = population.manager_index(index)
            assert 0 <= manager < index

    def test_unit_is_a_shared_ancestor(self):
        population = small_population()
        profile = population.subject_profile(300)
        manager = population.subject_profile(
            population.manager_index(300)
        )
        if manager.depth >= population.spec.unit_depth:
            assert profile.unit == manager.unit

    def test_subject_index_inverts_subject_id(self):
        population = small_population()
        for index in (0, 3, 499):
            assert population.subject_index(
                population.subject_id(index)
            ) == index
        assert population.subject_index("user-3") is None
        assert population.subject_index(
            population._subject_prefix + "9999"
        ) is None


class TestAttributes:
    def test_attributes_carry_role_unit_clearance_manager(self):
        population = small_population()
        attributes = population.subject_attributes(population.subject_id(42))
        assert {a.value for a in attributes[SUBJECT_ROLE]} == {
            population.subject_profile(42).role
        }
        assert SUBJECT_UNIT in attributes and SUBJECT_CLEARANCE in attributes
        assert attributes[SUBJECT_MANAGER][0].value == population.subject_id(
            population.manager_index(42)
        )
        assert attributes[SUBJECT_CLEARANCE][0].data_type is DataType.INTEGER

    def test_root_has_no_manager_attribute(self):
        population = small_population()
        attributes = population.subject_attributes(population.subject_id(0))
        assert SUBJECT_MANAGER not in attributes

    def test_strangers_resolve_to_nothing(self):
        population = small_population()
        assert population.attribute_resolver()("mallory") == {}

    def test_populate_pip_loads_every_subject(self):
        class FakeStore:
            def __init__(self):
                self.subjects = set()

            def set_subject_attribute(self, subject_id, attribute_id, values):
                assert isinstance(values, list)
                self.subjects.add(subject_id)

        population = small_population()
        store = FakeStore()
        subjects = population.spec.subjects
        assert population.populate_pip(store) == subjects
        assert len(store.subjects) == subjects


class TestPolicies:
    def engine_for(self, population: Population) -> PdpEngine:
        engine = PdpEngine(PolicyStore(indexed=True))
        for policy in population.policy_set():
            engine.add_policy(policy)
        return engine

    def decide(self, population, engine, index, action) -> Decision:
        profile = population.subject_profile(index)
        attributes = population.subject_attributes(profile.subject_id)

        def finder(category, attribute_id, data_type):
            if category is not Category.SUBJECT:
                return []
            return [
                value
                for value in attributes.get(attribute_id, [])
                if value.data_type is data_type
            ]

        engine.attribute_finder = finder
        return engine.evaluate(
            RequestContext.simple(profile.subject_id, "res-x", action)
        ).decision

    def test_entitlements_tighten_with_privilege(self):
        population = small_population()
        engine = self.engine_for(population)
        leaf = next(
            index
            for index in range(499, 0, -1)
            if population.subject_profile(index).role == "contractor"
        )
        assert self.decide(population, engine, leaf, "read") is Decision.PERMIT
        assert (
            self.decide(population, engine, leaf, "delete")
            is not Decision.PERMIT
        )
        # The root executive can do everything.
        for action in ("read", "write", "delete"):
            assert (
                self.decide(population, engine, 0, action) is Decision.PERMIT
            )

    def test_decisions_require_subject_state(self):
        """Without the subject's attributes no rule matches — decisions
        really do depend on the sharded state axis."""
        population = small_population()
        engine = self.engine_for(population)
        engine.attribute_finder = None
        response = engine.evaluate(
            RequestContext.simple(population.subject_id(0), "res-x", "read")
        )
        assert response.decision is not Decision.PERMIT


class TestStreams:
    def test_events_are_deterministic_generators(self):
        population = small_population()
        first = list(population.events(100, seed=3))
        second = list(population.events(100, seed=3))
        assert first == second
        assert first != list(population.events(100, seed=4))

    def test_events_stay_inside_the_population(self):
        population = small_population()
        for event in population.events(300):
            assert population.subject_index(event.subject_id) is not None
            assert event.resource_id.startswith(population._resource_prefix)
            assert event.action_id in ("read", "write", "delete")

    def test_zipf_subject_skew_shows_in_the_stream(self):
        population = small_population(subjects=5000)
        counts: dict[str, int] = {}
        for event in population.events(4000):
            counts[event.subject_id] = counts.get(event.subject_id, 0) + 1
        top = max(counts.values())
        assert top > 4000 * 0.05
        # The scramble decorrelates popularity from org position: the
        # hottest subject should not be the CEO by construction.
        assert len(counts) > 100

    def test_action_mix_follows_fractions(self):
        population = small_population(read_fraction=1.0, delete_fraction=0.0)
        assert all(
            event.action_id == "read"
            for event in population.events(200)
        )

    def test_request_contexts_mirror_events(self):
        population = small_population()
        for event, request in zip(
            population.events(50, seed=1),
            population.request_contexts(50, seed=1),
            strict=True,
        ):
            assert request.subject_id == event.subject_id
            assert request.resource_id == event.resource_id
            assert request.action_id == event.action_id

    def test_scramble_is_a_bijection(self):
        population = small_population(subjects=101)
        image = {
            population._scrambled_subject(rank) for rank in range(1, 102)
        }
        assert image == set(range(101))

    def test_stream_is_lazy(self):
        population = small_population()
        stream = population.events(10**9)
        assert len(list(itertools.islice(stream, 5))) == 5


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"subjects": 0},
            {"resources": 0},
            {"branching": 1},
            {"roles": ()},
            {"role_weights": (1.0,)},
            {"role_weights": (0.5, 0.5, -1.0)},
            {"read_fraction": 1.5},
            {"delete_fraction": -0.1},
        ],
    )
    def test_bad_specs_rejected(self, overrides):
        with pytest.raises(ValueError):
            PopulationSpec(**overrides)
