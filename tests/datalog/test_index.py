"""Unit tests for the indexed fact store."""

import pytest

from repro.core.atoms import Atom, data, member, sub
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Variable
from repro.datalog.index import FactIndex

X = Variable("X")
j, s, p = Constant("john"), Constant("student"), Constant("person")


class TestAddDiscard:
    def test_add_new_returns_true(self):
        index = FactIndex()
        assert index.add(member(j, s)) is True
        assert len(index) == 1

    def test_add_duplicate_returns_false(self):
        index = FactIndex([member(j, s)])
        assert index.add(member(j, s)) is False
        assert len(index) == 1

    def test_add_all_counts_new(self):
        index = FactIndex([member(j, s)])
        added = index.add_all([member(j, s), sub(s, p)])
        assert added == 1
        assert len(index) == 2

    def test_discard_present(self):
        index = FactIndex([member(j, s)])
        assert index.discard(member(j, s)) is True
        assert len(index) == 0
        assert member(j, s) not in index

    def test_discard_absent(self):
        index = FactIndex()
        assert index.discard(member(j, s)) is False

    def test_discard_then_candidates_empty(self):
        index = FactIndex([member(j, s)])
        index.discard(member(j, s))
        assert list(index.candidates(member(j, X))) == []


class TestLookup:
    def test_contains_and_iter(self):
        atoms = {member(j, s), sub(s, p)}
        index = FactIndex(atoms)
        assert set(index) == atoms
        assert member(j, s) in index
        assert member(j, p) not in index

    def test_facts_by_predicate(self):
        index = FactIndex([member(j, s), sub(s, p)])
        assert index.facts("member") == frozenset({member(j, s)})
        assert index.facts("nothing") == frozenset()

    def test_count_and_predicates(self):
        index = FactIndex([member(j, s), member(j, p)])
        assert index.count("member") == 2
        assert index.predicates() == {"member"}

    def test_bool(self):
        assert not FactIndex()
        assert FactIndex([member(j, s)])


class TestCandidates:
    def test_bound_position_narrows(self):
        index = FactIndex([member(j, s), member(j, p), member(Constant("m"), s)])
        got = set(index.candidates(member(j, X)))
        assert got == {member(j, s), member(j, p)}

    def test_unbound_pattern_returns_whole_relation(self):
        index = FactIndex([member(j, s), member(j, p)])
        got = set(index.candidates(member(Variable("A"), Variable("B"))))
        assert len(got) == 2

    def test_binding_from_substitution_used(self):
        index = FactIndex([member(j, s), member(Constant("m"), s)])
        sigma = Substitution({X: j})
        got = set(index.candidates(member(X, Variable("C")), sigma))
        assert got == {member(j, s)}

    def test_no_matching_bound_value_returns_empty(self):
        index = FactIndex([member(j, s)])
        assert list(index.candidates(member(Constant("zoe"), X))) == []

    def test_most_selective_position_chosen(self):
        # j appears in many facts at position 0; s only once at position 1.
        atoms = [member(j, Constant(f"c{i}")) for i in range(10)] + [member(j, s)]
        index = FactIndex(atoms)
        got = list(index.candidates(member(j, s)))
        assert got == [member(j, s)]


class TestFactsView:
    """facts() returns a cheap live view, not a per-call frozenset copy."""

    def test_view_equals_frozenset_both_ways(self):
        index = FactIndex([member(j, s), member(j, p)])
        view = index.facts("member")
        assert view == frozenset({member(j, s), member(j, p)})
        assert frozenset({member(j, s), member(j, p)}) == view

    def test_view_is_live(self):
        index = FactIndex([member(j, s)])
        view = index.facts("member")
        index.add(member(j, p))
        assert len(view) == 2 and member(j, p) in view

    def test_view_supports_set_algebra(self):
        index = FactIndex([member(j, s), sub(s, p)])
        view = index.facts("member")
        assert view | {sub(s, p)} == index.to_frozenset()
        assert view & {member(j, s)} == {member(j, s)}

    def test_empty_predicate_view_is_falsy(self):
        view = FactIndex().facts("member")
        assert not view
        assert len(view) == 0 and list(view) == []

    def test_view_is_not_mutable(self):
        view = FactIndex([member(j, s)]).facts("member")
        assert not hasattr(view, "add")
        with pytest.raises(AttributeError):
            view.anything = 1


class TestCandidatesSnapshot:
    """Regression: candidates() must survive mutation during iteration.

    The anytime pipeline interleaves chase steps with homomorphism
    searches over the same index; a lazily-consumed candidate stream must
    not blow up when the chase discards or adds facts mid-iteration.
    """

    def test_mutation_during_bound_scan(self):
        index = FactIndex([member(j, s), member(j, p)])
        stream = iter(index.candidates(member(j, X)))
        first = next(stream)
        index.discard(member(j, s))
        index.discard(member(j, p))
        index.add(member(j, Constant("fresh")))
        rest = list(stream)  # no RuntimeError, sees the snapshot
        assert {first, *rest} == {member(j, s), member(j, p)}

    def test_mutation_during_unbound_scan(self):
        index = FactIndex([member(j, s), member(j, p)])
        stream = iter(index.candidates(member(Variable("A"), Variable("B"))))
        next(stream)
        index.add(member(j, Constant("later")))
        assert len(list(stream)) == 1


class TestCopy:
    def test_copy_is_independent(self):
        index = FactIndex([member(j, s)])
        clone = index.copy()
        clone.add(sub(s, p))
        assert len(index) == 1
        assert len(clone) == 2

    def test_to_frozenset(self):
        index = FactIndex([member(j, s)])
        assert index.to_frozenset() == frozenset({member(j, s)})


class TestBucketHygiene:
    """Regression: discard must not leave empty predicate buckets behind."""

    def test_discard_last_atom_removes_bucket(self):
        index = FactIndex([member(j, s)])
        index.discard(member(j, s))
        assert "member" not in index.predicates()
        assert index._by_predicate == {}
        assert index._position_index == {}

    def test_discard_keeps_nonempty_bucket(self):
        index = FactIndex([member(j, s), member(j, p)])
        index.discard(member(j, s))
        assert index.predicates() == {"member"}

    def test_no_empty_buckets_after_merge_heavy_chase(self):
        """An EGD-merge-heavy chase discards and rewrites many atoms; the
        surviving index must hold no empty buckets or position entries."""
        from repro.chase.engine import chase
        from repro.core.atoms import funct
        from repro.core.query import ConjunctiveQuery

        names = "O A1 A2 A3 V1 W1 V2 W2 V3 W3 C".split()
        O, A1, A2, A3, V1, W1, V2, W2, V3, W3, C = (Variable(n) for n in names)
        # Three functional attributes, each with two values, forces three
        # EGD merges; the member/sub atoms over the merged values force
        # rewrites (discard + re-add) on top of the plain removals.
        merge_heavy = ConjunctiveQuery(
            "q_merges",
            (),
            (
                data(O, A1, V1), data(O, A1, W1), funct(A1, O),
                data(O, A2, V2), data(O, A2, W2), funct(A2, O),
                data(O, A3, V3), data(O, A3, W3), funct(A3, O),
                member(V1, C), member(W1, C), sub(V2, W2), member(V3, C),
            ),
        )
        result = chase(merge_heavy, max_level=8)
        assert not result.failed
        index = result.instance.index
        for predicate, bucket in index._by_predicate.items():
            assert bucket, f"empty bucket survived for {predicate!r}"
        for key, entry in index._position_index.items():
            assert entry, f"empty position entry survived for {key!r}"
        assert index.predicates() == {
            p for p in index._by_predicate if index._by_predicate[p]
        }


class TestSnapshotSemantics:
    """The documented read contracts the service layer's concurrent
    readers rely on (see the module docstring of repro.datalog.index)."""

    def test_facts_live_view_reflects_mutations(self):
        index = FactIndex()
        view = index.facts("member")
        index.add(member(Constant("o1"), Constant("c")))
        assert len(view) == 0 or len(view) == 1  # empty sentinel is static
        live = index.facts("member")
        index.add(member(Constant("o2"), Constant("c")))
        assert len(live) == 2  # live: later adds show through

    def test_facts_snapshot_is_detached(self):
        index = FactIndex()
        index.add(member(Constant("o1"), Constant("c")))
        snap = index.facts("member", snapshot=True)
        assert isinstance(snap, tuple) and len(snap) == 1
        index.add(member(Constant("o2"), Constant("c")))
        assert len(snap) == 1  # the snapshot does not grow
        assert index.facts("missing", snapshot=True) == ()

    def test_factsview_snapshot_method(self):
        index = FactIndex()
        index.add(member(Constant("o1"), Constant("c")))
        view = index.facts("member")
        snap = view.snapshot()
        index.add(member(Constant("o2"), Constant("c")))
        assert len(snap) == 1 and len(view) == 2

    def test_candidates_snapshot_survives_mutation_during_iteration(self):
        index = FactIndex()
        for i in range(50):
            index.add(member(Constant(f"o{i}"), Constant("c")))
        pattern = member(Variable("X"), Constant("c"))
        seen = 0
        for atom in index.candidates(pattern):
            # Mutating mid-iteration must not raise or tear the bucket.
            index.add(member(Constant(f"new{seen}"), Constant("c")))
            seen += 1
        assert seen == 50

    def test_iteration_during_concurrent_extension_sees_no_torn_bucket(self):
        """One writer extends, readers iterate snapshots: every atom seen
        is complete and the reader never crashes mid-iteration."""
        import threading

        index = FactIndex()
        for i in range(100):
            index.add(member(Constant(f"seed{i}"), Constant("c")))
        stop = threading.Event()
        errors = []
        # Everyone starts together, so the readers iterate while the
        # writer extends.  The writer stops after `writes` rounds or when
        # the readers finish: unbounded growth made each copy ever larger.
        started = threading.Barrier(5)
        writes = 5_000

        def writer():
            started.wait()
            for i in range(writes):
                if stop.is_set():
                    break
                index.add(member(Constant(f"w{i}"), Constant("c")))
                index.add(sub(Constant(f"w{i}"), Constant("top")))

        def reader():
            try:
                started.wait()
                pattern = member(Variable("X"), Constant("c"))
                for _ in range(200):
                    for atom in index.candidates(pattern):
                        assert atom.predicate == "member"
                        assert len(atom.args) == 2
                    for atom in index.facts("sub", snapshot=True):
                        assert atom.predicate == "sub"
                        assert len(atom.args) == 2
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        w = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        w.start()
        for r in readers:
            r.start()
        for r in readers:
            r.join(timeout=120)
        stop.set()
        w.join(timeout=30)
        assert not errors
