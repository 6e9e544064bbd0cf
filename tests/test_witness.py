import hashlib
import json
import os
import random

import pytest

from zeroforcing import (
    ConstructionError,
    WitnessReport,
    canonical_form,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    derived_set,
    failed_zero_forcing_number,
    from_edges,
    generate_graphs,
    is_connected,
    mask_of,
    parse_graph6,
    path_graph,
    verify_witness,
    vertices_of,
    witness_delta3,
    witness_general,
    write_graph6,
)
from zeroforcing import cli, witness

from conftest import edges, petersen_graph


def two_cliques_sharing_vertex():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(3, 7) for v in range(u + 1, 7)]
    return from_edges(7, edges)


def two_disjoint_cliques():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)]
    return from_edges(8, edges)


def two_cliques_joined_by_a_bridge():
    return from_edges(8, edges(two_disjoint_cliques()) + [(3, 4)])


def assert_local_max_cut(g, rep):
    assert rep.route == "local-max-cut"
    assert rep.guaranteed_bound == (g.n + 1) // 2
    for v in vertices_of(rep.filled):
        assert (g.adj[v] & ~rep.filled).bit_count() >= 2
    assert derived_set(g, rep.filled) == rep.filled != g.full
    assert verify_witness(g, rep) == ()


def test_verify_witness_flags_forcing_sets():
    g = path_graph(3)
    bad = WitnessReport(filled=mask_of([0]), route="made-up", guaranteed_bound=1)
    assert verify_witness(g, bad) == ("set forces the whole graph",)
    good = WitnessReport(filled=mask_of([1]), route="made-up", guaranteed_bound=1)
    assert verify_witness(g, good) == ()
    assert good == WitnessReport(0b010, "made-up", 1) != bad
    assert hash(good) == hash(WitnessReport(0b010, "made-up", 1))
    with pytest.raises(AttributeError):
        good.filled = 0


def test_verify_witness_flags_vertices_outside_the_graph():
    # {1} alone does not force P3; vertex 3 is not in it
    g = path_graph(3)
    stray = WitnessReport(filled=mask_of([1, 3]), route="made-up", guaranteed_bound=1)
    assert verify_witness(g, stray) == ("set has vertices outside the graph",)


def test_verify_witness_flags_small_sets():
    g = path_graph(5)
    small = WitnessReport(filled=mask_of([1]), route="made-up", guaranteed_bound=2)
    assert verify_witness(g, small) == ("set has 1 vertices, below the bound 2",)


def test_local_max_cut_on_two_cliques_sharing_a_vertex():
    # a cut vertex or a bridge needs no route of its own
    g = two_cliques_sharing_vertex()
    rep = witness_delta3(g)
    assert_local_max_cut(g, rep)
    assert rep.filled.bit_count() == 4
    bridged = two_cliques_joined_by_a_bridge()
    assert_local_max_cut(bridged, witness_delta3(bridged))


def test_delta3_routes():
    # a second component needs no route of its own either
    assert not is_connected(two_disjoint_cliques())
    for g in (complete_graph(4), complete_graph(5), complete_bipartite(3, 3),
              petersen_graph(), two_disjoint_cliques()):
        assert_local_max_cut(g, witness_delta3(g))


def assert_both_sides_stall(g, rep):
    # the local max-cut leaves every vertex two neighbors across the cut,
    # so the side left unfilled stalls as well as the filled one
    other = g.full & ~rep.filled
    assert rep.filled.bit_count() + other.bit_count() == g.n
    assert rep.filled.bit_count() >= other.bit_count()
    assert derived_set(g, rep.filled) == rep.filled != g.full
    assert derived_set(g, other) == other != g.full


def test_algo1_on_k4():
    g = complete_graph(4)
    rep = witness_delta3(g)
    assert_local_max_cut(g, rep)
    assert rep.filled.bit_count() == 2
    assert_both_sides_stall(g, rep)


def test_algo1_on_petersen():
    g = petersen_graph()
    rep = witness_delta3(g)
    assert_local_max_cut(g, rep)
    assert rep.filled.bit_count() >= 5
    assert_both_sides_stall(g, rep)


def test_algo1_rejects_bad_inputs():
    with pytest.raises(ValueError, match="minimum degree 3"):
        witness_delta3(path_graph(5))
    # a disconnected graph is accepted and takes the same route
    g = two_disjoint_cliques()
    rep = witness_delta3(g)
    assert_local_max_cut(g, rep)
    assert_both_sides_stall(g, rep)


def test_cut_vertex_rejects_bad_inputs():
    # a cut vertex does not lift the minimum-degree requirement
    # two triangles sharing vertex 2
    low = from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert low.min_degree() == 2
    with pytest.raises(ValueError, match="minimum degree 3"):
        witness_delta3(low)
    # with or without a cut vertex the route is the same
    assert witness_delta3(complete_graph(5)).route == "local-max-cut"
    assert witness_delta3(two_cliques_sharing_vertex()).route == "local-max-cut"


def test_delta3_on_every_small_class():
    # every class with n <= 8 and minimum degree 3, connected or not
    seen = 0
    for n in range(4, 9):
        for g in generate_graphs(n):
            if g.min_degree() >= 3:
                assert_local_max_cut(g, witness_delta3(g))
                seen += 1
    assert seen == 2763


def test_delta3_rejects_low_degree():
    for g in (path_graph(5), cycle_graph(6), complete_bipartite(2, 3)):
        with pytest.raises(ValueError, match="minimum degree 3"):
            witness_delta3(g)


def test_general_path7():
    g = path_graph(7)
    rep = witness_general(g)
    assert rep.filled == mask_of([1, 3, 5])
    assert rep.route == "delta1-a(delta1-a(delta1-a(base)))"
    assert rep.guaranteed_bound == 3
    assert verify_witness(g, rep) == ()


def test_general_tiny_and_disconnected():
    assert witness_general(path_graph(1)).filled == 0
    assert witness_general(path_graph(2)).filled == 0
    rep = witness_general(from_edges(4, [(0, 1), (2, 3)]))
    assert rep.route == "disconnected"
    assert rep.filled == mask_of([2, 3])
    two_triangles = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    rep = witness_general(two_triangles)
    assert rep.filled == mask_of([3, 4, 5])
    assert rep.guaranteed_bound == 3


def test_general_known_routes():
    cases = {
        "P3": (path_graph(3), "delta1-a(base)", mask_of([1])),
        "C5": (cycle_graph(5), "delta2-case1(delta2-case1(base))", mask_of([0, 2])),
        "K4": (complete_graph(4), "local-max-cut", None),
        "K23": (complete_bipartite(2, 3), "delta2-case2bi(delta1-a(base))", mask_of([0, 1])),
    }
    for name, (g, route, expect) in cases.items():
        rep = witness_general(g)
        assert rep.route == route, name
        if expect is not None:
            assert rep.filled == expect, name
        assert verify_witness(g, rep) == (), name


def test_general_returns_literally_stalled_sets():
    rng = random.Random(71)
    from conftest import random_graph

    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.8))
        rep = witness_general(g)
        if n > 2:
            assert derived_set(g, rep.filled) == rep.filled != g.full
        assert rep.filled.bit_count() >= (n - 1) // 2


def test_broken_lift_fails_loudly(monkeypatch, capsys):
    # a lift whose set forces the graph must raise, never be replaced
    # by some other set
    leaf_pair = witness._leaf_pair

    def forcing_leaf_pair(g, v):
        sub, _ = leaf_pair(g, v)
        return sub, lambda filled: (1 << v, "broken")

    monkeypatch.setattr(witness, "_leaf_pair", forcing_leaf_pair)
    g = path_graph(5)
    assert derived_set(g, 1 << 0) == g.full
    with pytest.raises(ConstructionError):
        witness_general(g)
    assert cli.main(["witness", write_graph6(g)]) == 2
    assert "construction failed" in capsys.readouterr().err


def test_route_that_does_not_stall_fails_loudly(monkeypatch, capsys):
    # a route whose set forces one vertex and then stalls must raise,
    # never be replaced by its closure
    g = two_cliques_joined_by_a_bridge()
    planted = WitnessReport(filled=mask_of([0, 1, 2, 3]), route="planted",
                            guaranteed_bound=(g.n + 1) // 2)
    assert derived_set(g, planted.filled) == mask_of([0, 1, 2, 3, 4])
    assert verify_witness(g, planted) == ()
    monkeypatch.setattr(witness, "witness_delta3", lambda g: planted)
    with pytest.raises(ConstructionError, match="planted did not stall"):
        witness_general(g)
    assert cli.main(["witness", write_graph6(g)]) == 2
    assert "construction failed" in capsys.readouterr().err


def lift_at_every_low_degree_vertex(n, stalled_sets):
    """Reduce every connected n-vertex class at each vertex of degree 1 or 2,
    lift the given stalled sets of the reduced graph and check the paper's
    lift step on each; returns (reductions, sets lifted)."""
    reductions = lifted = 0
    for g in generate_graphs(n):
        if not is_connected(g):
            continue
        for v in range(n):
            if g.degree(v) > 2:
                continue
            reduce = witness._leaf_pair if g.degree(v) == 1 else witness._degree2_path
            sub, lift = reduce(g, v)
            for s in stalled_sets(sub):
                fill, tag = lift(s)
                # stalled, a proper subset, and at least one vertex larger
                assert derived_set(g, fill) == fill != g.full, (write_graph6(g), v, s, tag)
                assert fill.bit_count() >= s.bit_count() + 1, (write_graph6(g), v, s, tag)
                lifted += 1
            reductions += 1
    return reductions, lifted


def every_stalled_set(g):
    return [s for s in range(g.full) if derived_set(g, s) == s]


def exact_witness(g):
    # a maximum failed set is stalled, so lifting it gives F(G) >= F(G') + 1
    return [failed_zero_forcing_number(g).witness]


def test_lift_lemma_on_every_stalled_set():
    counts = [lift_at_every_low_degree_vertex(n, every_stalled_set) for n in range(3, 8)]
    assert counts == [(6, 6), (16, 22), (56, 176), (269, 1609), (1824, 21444)]
    assert lift_at_every_low_degree_vertex(8, exact_witness) == (19266, 19266)


@pytest.mark.skipif(not os.environ.get("RUN_EXTENDED"),
                    reason="about 18 s of CPU; set RUN_EXTENDED=1")
def test_extended_lift_lemma_on_exact_witnesses_n9():
    assert lift_at_every_low_degree_vertex(9, exact_witness) == (339292, 339292)


# The two digests below pin the construction's output, one row
# [graph6, route, filled, guaranteed_bound] per graph.  A deliberate change
# to the construction updates the pin and says why in CHANGES.md.
def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_general_verified_on_random_connected_graphs():
    # lifts far beyond the exhaustive range: spanning tree plus chords,
    # relabelled, from sparse (deep lift chains) to dense
    rng = random.Random(2202)
    rows = []
    for _ in range(1000):
        n = rng.randint(3, 62)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        perm = rng.sample(range(n), n)
        g = from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        rep = witness_general(g)
        assert verify_witness(g, rep) == (), write_graph6(g)
        assert rep.filled.bit_count() >= (n - 1) // 2
        rows.append([write_graph6(g), rep.route, rep.filled, rep.guaranteed_bound])
    assert _digest(rows) == (
        "018f09be570b7c97a8b78c980e103228ad231240cccdd54d842590da2f35c251")


def test_general_exhaustive_small():
    rows = []
    for n in range(1, 8):
        for h in generate_graphs(n):
            if not is_connected(h):
                continue
            # the construction depends on the labeling, so pin the canonical one
            g = parse_graph6(canonical_form(h))
            rep = witness_general(g)
            assert verify_witness(g, rep) == ()
            exact = failed_zero_forcing_number(g).value
            assert rep.filled.bit_count() <= exact
            assert rep.guaranteed_bound >= (n - 1) // 2 or n <= 2
            if g.min_degree() >= 3:
                assert rep.guaranteed_bound >= (n + 1) // 2
            rows.append([write_graph6(g), rep.route, rep.filled, rep.guaranteed_bound])
    assert len(rows) == 996
    assert _digest(sorted(rows)) == (
        "ba55fff9882161a82c449c32153c233cb6fa32090ee22b64c0edf7a08288bf95")


def test_partition_fill_survives_edge_additions():
    # an unspent stalled fill keeps stalling as edges arrive
    rng = random.Random(83)
    g = petersen_graph()
    rep = witness_delta3(g)
    assert rep.route == "local-max-cut"
    fill = rep.filled
    assert all(g.adj[v] & ~fill for v in vertices_of(fill))
    h = g
    non_edges = [(u, v) for u in range(10) for v in range(u + 1, 10)
                 if not g.adj[u] >> v & 1]
    rng.shuffle(non_edges)
    for u, v in non_edges[:20]:
        h = from_edges(10, edges(h) + [(u, v)])
        assert derived_set(h, fill) == fill != h.full
