"""Maximality postprocessing (repro/core/postprocess.py)."""
import random

from hypothesis import given, strategies as st

from repro.core.postprocess import maximal_only, timed_maximal_only


def reference(results):
    res = set(results)
    return {s for s in res if not any(s < t for t in res)}


class TestMaximalOnly:
    def test_simple_domination(self):
        a = frozenset({1, 2, 3})
        b = frozenset({1, 2, 3, 4})
        assert maximal_only([a, b]) == {b}

    def test_equal_sets_deduplicated(self):
        a = frozenset({1, 2})
        assert maximal_only([a, frozenset({1, 2})]) == {a}

    def test_incomparable_kept(self):
        a = frozenset({1, 2, 3})
        b = frozenset({2, 3, 4})
        assert maximal_only([a, b]) == {a, b}

    def test_empty(self):
        assert maximal_only([]) == set()

    def test_empty_set_dominated_by_any_other(self):
        assert maximal_only([frozenset()]) == {frozenset()}
        assert maximal_only([frozenset(), frozenset({1})]) == {frozenset({1})}

    @given(
        st.lists(
            st.frozensets(st.integers(0, 12), min_size=1, max_size=6),
            max_size=40,
        )
    )
    def test_matches_reference(self, sets):
        assert maximal_only(sets) == reference(sets)

    @given(
        st.lists(
            st.tuples(
                st.frozensets(st.integers(0, 12), min_size=1, max_size=6),
                st.integers(0, 3),
            ),
            max_size=40,
        )
    )
    def test_filtering_each_part_first_keeps_the_maximal_sets(self, tagged):
        """The Spark engine filters each partition's candidates before
        the driver's pass; that must not change the maximal sets."""
        parts = [[s for s, i in tagged if i == part] for part in range(4)]
        local = set().union(*(maximal_only(part) for part in parts))
        assert maximal_only(local) == maximal_only(s for s, _ in tagged)

    def test_large_random_matches_reference(self):
        rng = random.Random(0)
        sets = [
            frozenset(rng.sample(range(30), rng.randint(2, 8))) for _ in range(500)
        ]
        assert maximal_only(sets) == reference(sets)

    def test_timed_variant_returns_time(self):
        out, dt = timed_maximal_only([frozenset({1})])
        assert out == {frozenset({1})} and dt >= 0
