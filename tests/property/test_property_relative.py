"""Property-based tests for schema-relative containment."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import is_contained
from repro.core.errors import ChaseBudgetExceeded
from repro.workloads import OntologyParams, QueryGenerator, generate_ontology

SETTINGS = settings(max_examples=15, deadline=None)


def _schema(seed: int):
    ontology = generate_ontology(
        seed,
        OntologyParams(
            n_classes=5, n_objects=0, mandatory_probability=0.0, n_attributes=3
        ),
    )
    return tuple(
        a for a in ontology.atoms if a.predicate in {"sub", "type", "funct"}
    )


class TestRelativeContainmentProperties:
    @SETTINGS
    @given(st.integers(0, 3000), st.integers(0, 3000))
    def test_absolute_implies_relative(self, pair_seed, schema_seed):
        """Shrinking the database class can only create containments."""
        q1, q2 = QueryGenerator(pair_seed).containment_pair()
        schema = _schema(schema_seed)
        try:
            absolute = is_contained(q1, q2).contained
            relative = is_contained(q1, q2, schema=schema).contained
        except ChaseBudgetExceeded:
            assume(False)
        if absolute:
            assert relative

    @SETTINGS
    @given(st.integers(0, 3000), st.integers(0, 3000))
    def test_relative_monotone_in_schema(self, pair_seed, schema_seed):
        """Adding schema atoms never destroys a relative containment."""
        q1, q2 = QueryGenerator(pair_seed).containment_pair()
        schema = _schema(schema_seed)
        half = schema[: len(schema) // 2]
        try:
            with_half = is_contained(q1, q2, schema=half).contained
            with_all = is_contained(q1, q2, schema=schema).contained
        except ChaseBudgetExceeded:
            assume(False)
        if with_half:
            assert with_all

    @SETTINGS
    @given(st.integers(0, 3000))
    def test_relative_reflexive(self, seed):
        gen = QueryGenerator(seed)
        q = gen.query()
        schema = _schema(seed)
        try:
            assert is_contained(q, q, schema=schema).contained
        except ChaseBudgetExceeded:
            assume(False)
