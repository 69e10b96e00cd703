import copy
import gc
import math
import pickle
import sys
import threading
import tracemalloc
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_oracle import oracle_chain
from closure_oracle import tuple_closure
from cutgroups import cli
from cutgroups.corpus import bundled_corpus_path, parse_corpus, run_survey
from cutgroups.errors import CapExceeded, DegreeMismatch, EmptyGenerators
from cutgroups.group import PermGroup, _Chain, _ChainLevel, trivial_group
from cutgroups.perm import Permutation, compose, parse_permutation, then_images
from cutgroups.constructions import alternating, cyclic, iterated_wreath, symmetric
from cutgroups.rationality import p_core
from cutgroups.structure import conjugacy_classes


def brute_closure(gens):
    """Independent enumeration oracle: plain set closure over products."""
    degree = gens[0].degree
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


class TestConstruction:
    def test_trivial_group(self):
        G = PermGroup(1, [Permutation.identity(1)])
        assert G.order() == 1

    def test_empty_generators_rejected(self):
        with pytest.raises(EmptyGenerators):
            PermGroup(3, [])

    def test_degree_mismatch_rejected(self):
        with pytest.raises(DegreeMismatch):
            PermGroup(3, [Permutation.identity(4)])

    def test_s3_from_generators(self):
        G = PermGroup(3, [parse_permutation("(1 2)", 3), parse_permutation("(1 2 3)", 3)])
        assert G.order() == len(brute_closure(list(G.generators))) == 6

    def test_s5_order(self):
        G = PermGroup(5, [parse_permutation("(1 2 3 4 5)", 5), parse_permutation("(1 2)", 5)])
        assert G.order() == 120


class TestPickle:
    """A group pickles and copies as its degree and generators."""

    def test_round_trip_keeps_generators_and_order(self):
        G = iterated_wreath(2, 3)
        H = pickle.loads(pickle.dumps(G))
        assert H.degree == G.degree
        assert [h.images for h in H.generators] == [g.images for g in G.generators]
        assert H.order() == G.order() == 128

    def test_a_group_holds_its_chain_when_made(self):
        G = PermGroup(4, [parse_permutation("(1 2 3 4)", 4)])
        assert isinstance(G._chain, _Chain) and G._chain.order == 4

    @pytest.mark.parametrize(
        "duplicate", [lambda G: pickle.loads(pickle.dumps(G)), copy.copy],
        ids=["pickle", "copy"],
    )
    def test_copy_holds_its_own_chain(self, duplicate):
        G = alternating(6)
        H = duplicate(G)
        assert isinstance(H._chain, _Chain) and H._chain is not G._chain
        assert H.base_points() == G.base_points()
        assert H.order() == G.order() == 360
        odd = parse_permutation("(1 2)", 6)
        for g in (*G.generators, odd):
            assert H.contains(g) == G.contains(g) == (g is not odd)


class TestOrder:
    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 6), (4, 24), (5, 120), (6, 720)])
    def test_symmetric_orders(self, n, expected):
        assert symmetric(n).order() == expected

    def test_order_matches_enumeration(self):
        for G in [symmetric(4), alternating(4), symmetric(5)]:
            assert G.order() == len(G.elements())

    def test_order_cached(self):
        G = symmetric(4)
        assert G.order() == G.order() == 24


class TestContains:
    def test_identity_always_member(self):
        G = PermGroup(4, [parse_permutation("(1 2 3)", 4)])
        assert G.contains(Permutation.identity(4))

    def test_odd_permutation_not_in_a4(self):
        A4 = alternating(4)
        t = parse_permutation("(1 2)", 4)
        assert not A4.contains(t)
        assert t not in A4.elements()

    def test_generator_products_are_members(self):
        G = symmetric(5)
        for a in G.generators:
            for b in G.generators:
                assert G.contains(compose(a, b))

    def test_contains_agrees_with_enumeration(self):
        A4 = alternating(4)
        members = set(A4.elements())
        for images in [(0, 1, 2, 3), (1, 0, 3, 2), (1, 0, 2, 3), (2, 3, 1, 0)]:
            p = Permutation(images)
            assert A4.contains(p) == (p in members)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            symmetric(4).contains(Permutation.identity(5))


class TestElements:
    def test_trivial(self):
        assert trivial_group(3).elements() == [Permutation.identity(3)]

    def test_s3_enumeration(self):
        elems = symmetric(3).elements()
        assert len(elems) == 6
        assert elems[0].is_identity()
        assert len(set(elems)) == 6

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded) as exc:
            symmetric(5).elements(cap=100)
        assert exc.value.order == 120

    def test_deterministic_order(self):
        gens = [parse_permutation("(1 2)", 4), parse_permutation("(1 2 3 4)", 4)]
        first = PermGroup(4, gens).elements()
        second = PermGroup(4, gens).elements()
        assert first == second

    def test_matches_brute_closure(self):
        G = alternating(4)
        assert set(G.elements()) == brute_closure(list(G.generators))


def layered_closure(G):
    """Oracle for the element order: the closure elements() ran before it
    recorded Cayley columns, on a seen set."""
    gens = [g.images for g in G.generators]
    out = [tuple(range(G.degree))]
    seen = set(out)
    for p in out:  # grows while it is walked: layer by layer
        for g in gens:
            q = then_images(p, g)
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out


@st.composite
def small_random_groups(draw):
    """1-3 random generators of degree 1-7, identity generators included."""
    n = draw(st.integers(1, 7))
    perm = st.one_of(st.permutations(list(range(n))), st.just(list(range(n))))
    gens = draw(st.lists(perm, min_size=1, max_size=3))
    return PermGroup(n, [Permutation(g) for g in gens])


class TestCayley:
    """The columns and tree that closure() returns, against products."""

    @staticmethod
    def assert_cayley_right(G):
        index, (right, parent, edge) = G.closure()
        words = list(index)
        encode, decode = G.encoding.encode, G.encoding.decode
        elems = [decode(w) for w in words]
        assert elems == layered_closure(G)
        assert [e.images for e in G.elements()] == elems
        assert index == {encode(p): i for i, p in enumerate(elems)}
        gens = [g.images for g in G.generators]
        assert len(right) == len(gens)
        for column in right:
            assert type(column) is list and len(column) == len(elems)
        for column in (parent, edge):
            assert column.typecode == "i" and len(column) == len(elems)
        for e, g in enumerate(gens):
            products = [index[encode(then_images(p, g))] for p in elems]
            assert right[e] == products
            # each entry is the index's own int object for that word
            assert all(j is k for j, k in zip(right[e], products))
        assert parent[0] == edge[0] == -1
        for j in range(1, len(elems)):
            assert 0 <= parent[j] < j
            assert then_images(elems[parent[j]], gens[edge[j]]) == elems[j]

    @settings(max_examples=80, deadline=None)
    @given(small_random_groups())
    def test_random_groups(self, G):
        self.assert_cayley_right(G)

    @pytest.mark.parametrize(
        "G", [trivial_group(1), trivial_group(4), symmetric(5), alternating(6)],
        ids=["trivial-1", "trivial-4", "S5", "A6"],
    )
    def test_named_groups(self, G):
        self.assert_cayley_right(G)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceeded):
            symmetric(5).closure(cap=100)


class TestOneEnumeration:
    """The closure's tuples and index are the elements' one representation:
    the class table wraps only its reps, and a group stores none of it, so
    no enumeration outlives its reader."""

    @pytest.mark.parametrize(
        "build", [lambda: symmetric(6), lambda: iterated_wreath(3, 2)],
        ids=["S6", "wreath-sylnorm-3-2"],
    )
    def test_class_table_wraps_only_reps(self, build, monkeypatch):
        G = build()
        made = []
        trusted = Permutation._trusted.__func__
        monkeypatch.setattr(
            Permutation,
            "_trusted",
            classmethod(lambda cls, images: made.append(images) or trusted(cls, images)),
        )
        table = conjugacy_classes(G)
        assert made == [rep.images for rep in table.reps]
        monkeypatch.undo()
        assert [e.images for e in G.elements()] == layered_closure(G)

    def test_each_group_enumerated_at_most_once(self, monkeypatch, capsys):
        # a serial bundled survey, an analyze run and a p-core: every reader
        # of an enumeration is the only one, so a cache on the group would
        # serve nobody; the groups are kept alive so that no id is reused
        groups = []
        closure = PermGroup.closure

        def recording(G, *args, **kwargs):
            groups.append(G)
            return closure(G, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "closure", recording)
        run_survey(parse_corpus(bundled_corpus_path()))
        assert cli.main(["analyze", "--family", "symmetric:5"]) == 0
        assert p_core(symmetric(4), 2).order() == 4  # reads G and P once each
        capsys.readouterr()
        ids = [id(G) for G in groups]
        assert len(ids) == len(set(ids)) > 172

    def test_readers_of_one_finished_group_agree_across_threads(self, monkeypatch):
        # the constructor builds the chain before any thread starts; the
        # threads only read the finished group, and none builds a chain
        from cutgroups import group

        built = []
        chain = group._Chain

        def counted_chain(*args):
            built.append(args)
            return chain(*args)

        monkeypatch.setattr(group, "_Chain", counted_chain)
        G = symmetric(6)
        member = G.generators[0]
        reads = [G.order, lambda: G.contains(member), lambda: conjugacy_classes(G)]
        barrier = threading.Barrier(8, timeout=30)
        results = [None] * 8

        def read(i):
            barrier.wait()
            # each thread takes the readers in its own rotation
            got = {r: reads[r]() for r in [(i + j) % 3 for j in range(3)]}
            results[i] = [got[r] for r in range(3)]

        threads = [threading.Thread(target=read, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so races show
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(built) == 1
        first = results[0][2]
        for order, member_in, table in results:
            assert order == 720 and member_in
            # the index's items are the words in order with their classes
            assert (table.reps, table.sizes, list(table.index.items())) == (
                first.reps, first.sizes, list(first.index.items())
            )


class TestChain:
    def test_base_points_smallest_moved_first(self):
        G = symmetric(4)
        base = G.base_points()
        assert base == sorted(base)
        assert base[0] == 0

    def test_large_group_order_without_enumeration(self):
        # degree 10 with order well beyond any sensible cap
        G = symmetric(10)
        assert G.order() == 3628800

    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: symmetric(30), math.factorial(30)),
            (lambda: alternating(40), math.factorial(40) // 2),
            # (|S_3| = 6) ** (1 + 3 + 9 + 27) for the depth-4 tower of degree 81
            (lambda: iterated_wreath(3, 4), 6 ** 40),
        ],
        ids=["S30", "A40", "wreath-3-4"],
    )
    def test_large_orders_match_closed_forms(self, make, expected):
        assert make().order() == expected

    @pytest.mark.parametrize(
        "make", [lambda: alternating(12), lambda: iterated_wreath(3, 3)], ids=["A12", "wreath-3-3"]
    )
    def test_base_points_deterministic(self, make):
        gens = make().generators
        first = PermGroup(gens[0].degree, gens).base_points()
        second = PermGroup(gens[0].degree, list(gens)).base_points()
        assert first == second
        assert len(set(first)) == len(first)


# Brute closure is only run up to this order; beyond it the rebuild-and-resift
# chain in chain_oracle is the reference.
BRUTE_CLOSURE_MAX = 5040

# The chain holds bytes up to degree 256 and image tuples above; moving the
# small cases up by 250 points runs them at degrees 251-259, across the switch.
OFFSETS = (0, 250)


@st.composite
def generators_and_queries(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    offset = draw(st.sampled_from(OFFSETS))
    perm = st.permutations(list(range(n))).map(
        lambda images: Permutation(list(range(offset)) + [offset + i for i in images])
    )
    gens = draw(st.lists(perm, min_size=1, max_size=4))
    randoms = draw(st.lists(perm, min_size=1, max_size=6))
    words = draw(st.lists(st.lists(st.sampled_from(gens), min_size=1, max_size=6), max_size=4))
    products = []
    for word in words:
        p = Permutation.identity(offset + n)
        for g in word:
            p = compose(p, g)
        products.append(p)
    return gens, randoms + products


class TestChainAgainstOracle:
    """The incremental chain against the rebuild-and-resift chain it
    replaced, kept in tests/chain_oracle.py."""

    @settings(max_examples=150, deadline=None)
    @given(generators_and_queries())
    def test_order_and_membership(self, case):
        gens, queries = case
        G = PermGroup(gens[0].degree, gens)
        oracle = oracle_chain(gens)
        assert G.order() == oracle.order()
        if G.order() <= BRUTE_CLOSURE_MAX:
            assert G.order() == len(brute_closure(gens))
        for q in queries:
            assert G.contains(q) == oracle.sift(q).is_identity()


def assert_steps_mirror_levels(chain):
    assert len(chain.steps) == len(chain.levels)
    for depth, (step, level) in enumerate(zip(chain.steps, chain.levels)):
        point, inverses, step_depth = step
        assert (point, step_depth) == (level.point, depth)
        assert inverses is level.inverses


def held_by(chain):
    """Every object a chain holds, through its slots and the lists, tuples
    and dicts below them."""
    seen, stack = {}, [chain]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            if isinstance(obj, (_Chain, list, tuple, dict)):
                stack.extend(gc.get_referents(obj))
    return list(seen.values())


def assert_only_sift_steps(chain):
    """A finished chain holds its steps and no build state: no level, no
    Schreier queue, and no word but the identity and the inverse tables,
    so no rep or strong generator; one identity table serves every level."""
    assert not any(hasattr(chain, slot) for slot in ("levels", "encoding", "identity_table"))
    tables = {id(t) for _, inverses, _ in chain.steps for t in inverses.values()}
    for obj in held_by(chain):
        assert not isinstance(obj, (_ChainLevel, deque))
        if isinstance(obj, bytes) or (isinstance(obj, tuple) and len(obj) > 256):
            assert obj is chain.identity or id(obj) in tables
    assert len({id(inverses[point]) for point, inverses, _ in chain.steps}) <= 1


class TestChainSteps:
    """The sift walks ``steps``, one (point, inverses, depth) tuple per
    level; the tuples hold the levels' own dicts, so an orbit that grows
    after its level was made is seen by the sift.  The levels are build
    state: once the build ends, the steps are all the chain keeps."""

    @settings(max_examples=150, deadline=None)
    @given(generators_and_queries())
    def test_steps_mirror_levels_after_every_insert(self, case):
        gens, _ = case
        insert = _Chain._insert

        def checked(chain, *args):
            insert(chain, *args)
            assert_steps_mirror_levels(chain)

        with mock.patch.object(_Chain, "_insert", checked):
            chain = PermGroup(gens[0].degree, gens)._chain
        assert_only_sift_steps(chain)


class TestChainInverses:
    @settings(max_examples=60, deadline=None)
    @given(generators_and_queries())
    def test_inverse_reps(self, case):
        # inverses are gathered from the parent point's, not inverted anew;
        # reps are words of the degree's length, inverses the tables that
        # compose them on the right, in the chain's own encoding.  Reps are
        # build state, so they are read after each generator is closed.
        gens, _ = case
        degree = gens[0].degree
        word = bytes if degree <= 256 else tuple
        table_length = max(degree, 256)
        close = _Chain._close
        closed = []

        def checked(chain, *args):
            close(chain, *args)
            closed.append(chain)
            for level in chain.levels:
                for beta, rep in level.reps.items():
                    inverse = level.inverses[beta]
                    assert type(rep) is type(inverse) is word
                    assert (len(rep), len(inverse)) == (degree, table_length)
                    assert chain._compose(rep, inverse) == chain.identity

        with mock.patch.object(_Chain, "_close", checked):
            G = PermGroup(degree, gens)
        # a chain has a level exactly when it closed a generator
        assert bool(closed) == (G.order() > 1)


class TestChainMemory:
    def test_bytes_chain_of_cyclic_256(self):
        # image tuples of all 256 reps and their inverses peak at 1.04 MiB;
        # 256 words of 256 bytes and their tables at about 0.17 MiB
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            assert cyclic(256).order() == 256
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak < 0.5 * 2 ** 20

    def test_parsed_bundled_corpus_keeps_only_sift_steps(self):
        # the 172 chains' sift steps retain about 1.55 MiB; their levels'
        # reps, strong generators and one identity table per level would
        # add about 0.9 MiB, over the bound
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = parse_corpus(bundled_corpus_path())
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert len(records) == 172
        assert retained < 2.0 * 2 ** 20


@st.composite
def small_closure_generators(draw, moved: int = 7):
    """1-3 random generators of degree 1-9, at offset 0 or 250 like
    generators_and_queries, that move at most ``moved`` points between
    them, so the group has at most moved! elements."""
    n = draw(st.integers(min_value=1, max_value=9))
    offset = draw(st.sampled_from(OFFSETS))
    support = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=moved))

    def on_support(images):
        out = list(range(offset + n))
        for a, b in zip(support, images):
            out[offset + a] = offset + b
        return Permutation(out)

    return draw(st.lists(st.permutations(support).map(on_support), min_size=1, max_size=3))


class TestClosureAgainstTupleClosure:
    """The closure on the words of the group's encoding against the closure
    on image tuples it replaced, kept in tests/closure_oracle.py."""

    @staticmethod
    def assert_same_closure(G):
        index, cayley = G.closure()
        words = list(index)
        images, tuple_index, tuple_cayley = tuple_closure(G.degree, G.generators)
        word = bytes if G.degree <= 256 else tuple
        assert all(type(w) is word for w in words)
        decode = G.encoding.decode
        assert [decode(w) for w in words] == images
        assert {decode(w): i for w, i in index.items()} == tuple_index
        positions = list(index.values())
        assert positions == list(range(len(words)))
        right, parent, edge = cayley
        tuple_right, tuple_parent, tuple_edge = tuple_cayley
        assert all(type(column) is list for column in right)
        assert right == [list(column) for column in tuple_right]
        assert parent.typecode == edge.typecode == "i"
        assert (parent, edge) == (tuple_parent, tuple_edge)
        # a column makes no int: each entry is the one the index holds
        assert all(j is positions[j] for column in right for j in column)

    @settings(max_examples=100, deadline=None)
    @given(small_closure_generators())
    def test_random_groups(self, gens):
        self.assert_same_closure(PermGroup(gens[0].degree, gens))

    @pytest.mark.parametrize(
        "G",
        [symmetric(8), alternating(8), iterated_wreath(3, 2), cyclic(256), cyclic(257)],
        ids=["S8", "A8", "wreath-sylnorm-3-2", "C256", "C257"],
    )
    def test_named_groups(self, G):
        self.assert_same_closure(G)
