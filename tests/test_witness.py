import hashlib
import json
import random

import pytest

from zeroforcing import (
    ConstructionError,
    WitnessReport,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    derived_set,
    failed_zero_forcing_number,
    from_edges,
    generate_graphs,
    is_connected,
    is_stalled,
    mask_of,
    parse_graph6,
    path_graph,
    petersen_graph,
    spent_vertices,
    verify_witness,
    vertices_of,
    witness_delta3,
    witness_general,
    write_graph6,
)
from zeroforcing import cli, witness
from zeroforcing.graph_core import _dfs, _even_cycle


def build_partition(g):
    parent, depth, back, _ = _dfs(g)
    return witness._build_partition(g, _even_cycle(parent, depth, back))


def two_cliques_sharing_vertex():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(3, 7) for v in range(u + 1, 7)]
    return from_edges(7, edges)


def test_verify_witness_flags_forcing_sets():
    g = path_graph(3)
    bad = WitnessReport(filled=mask_of([0]), route="made-up", guaranteed_bound=1)
    assert verify_witness(g, bad) == ("set forces the whole graph",)
    good = WitnessReport(filled=mask_of([1]), route="made-up", guaranteed_bound=1)
    assert verify_witness(g, good) == ()


def test_verify_witness_flags_small_sets():
    g = path_graph(5)
    small = WitnessReport(filled=mask_of([1]), route="made-up", guaranteed_bound=2)
    assert verify_witness(g, small) == ("set has 1 vertices, below the bound 2",)


def test_cut_vertex_construction():
    g = two_cliques_sharing_vertex()
    assert _dfs(g)[3] == mask_of([3])
    rep = witness_delta3(g)
    assert rep.route == "cut-vertex"
    assert rep.filled == mask_of([3, 4, 5, 6])
    assert rep.guaranteed_bound == 4
    assert verify_witness(g, rep) == ()
    assert is_stalled(g, rep.filled)


def test_cut_vertex_construction_may_force_once():
    # a bridge between two cliques: the cut vertex forces its lone
    # neighbor across the bridge, then stalls
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)]
    edges += [(3, 4)]
    g = from_edges(8, edges)
    for u in (3, 4):
        assert g.degree(u) == 4
    rep = witness_delta3(g)
    assert rep.route == "cut-vertex"
    closed = derived_set(g, rep.filled)
    assert closed != g.full
    assert closed == rep.filled | mask_of([3])
    assert verify_witness(g, rep) == ()


def test_partition_check_rejects_overlap():
    g = complete_graph(4)
    with pytest.raises(ConstructionError):
        witness._check_partition(g, mask_of([0, 1]), mask_of([1, 2, 3]))


def test_algo1_on_k4():
    g = complete_graph(4)
    left, right = build_partition(g)
    witness._check_partition(g, left, right)
    assert left | right == g.full


def test_algo1_on_petersen():
    g = petersen_graph()
    left, right = build_partition(g)
    witness._check_partition(g, left, right)
    assert left.bit_count() + right.bit_count() == 10
    # both sides stall when filled
    assert is_stalled(g, left)
    assert is_stalled(g, right)


def test_algo1_odd_residue(monkeypatch):
    # G@ouNo is the first n = 8 class whose case-4 residue has only odd
    # cycles, so the partition must take the odd-cycle route; one walk of
    # the graph and one of each residue serve both the even and the odd cycle
    residues, passes, evens = [], [], []
    real_induced, real_dfs, real_even = (
        witness.induced_subgraph, witness._dfs, witness._even_cycle)

    def induced(g, keep):
        out = real_induced(g, keep)
        residues.append(out[0])
        return out

    def dfs(g):
        passes.append(g)
        return real_dfs(g)

    def even(parent, depth, back):
        evens.append(real_even(parent, depth, back))
        return evens[-1]

    monkeypatch.setattr(witness, "induced_subgraph", induced)
    monkeypatch.setattr(witness, "_dfs", dfs)
    monkeypatch.setattr(witness, "_even_cycle", even)
    g = parse_graph6("G@ouNo")
    assert g.min_degree() >= 3
    rep = witness_delta3(g)
    assert rep.route == "algo1-even"
    assert residues and None in evens[1:]
    assert passes == [g] + residues
    left = rep.filled
    right = g.full ^ left
    witness._check_partition(g, left, right)
    assert is_stalled(g, left)
    assert is_stalled(g, right)


def test_algo1_rejects_bad_inputs():
    with pytest.raises(ValueError, match="minimum degree 3"):
        witness_delta3(path_graph(5))
    disconnected = from_edges(8, [(u, v) for u in range(4) for v in range(u + 1, 4)]
                              + [(u + 4, v + 4) for u in range(4) for v in range(u + 1, 4)])
    with pytest.raises(ValueError, match="connected"):
        witness_delta3(disconnected)
    # a graph with a cut vertex never reaches the Algorithm 1 partition
    assert witness_delta3(two_cliques_sharing_vertex()).route == "cut-vertex"


def test_cut_vertex_rejects_bad_inputs():
    with pytest.raises(ValueError, match="minimum degree 3"):
        witness_delta3(path_graph(5))
    # without a cut vertex the cut-vertex route is not taken
    assert _dfs(complete_graph(5))[3] == 0
    assert witness_delta3(complete_graph(5)).route == "algo1-even"


def test_delta3_routes():
    rep = witness_delta3(complete_graph(4))
    assert rep.route == "algo1-even"
    assert rep.guaranteed_bound == 2
    rep = witness_delta3(two_cliques_sharing_vertex())
    assert rep.route == "cut-vertex"
    assert rep.guaranteed_bound == 4


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
        "K4": (complete_graph(4), "algo1-even", None),
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
            assert is_stalled(g, rep.filled)
        assert rep.filled.bit_count() >= (n - 1) // 2


def test_broken_lift_fails_loudly(monkeypatch, capsys):
    # a lift whose set forces the graph must raise, never be replaced
    # by some other set
    def forcing_lift(g):
        leaf = next(u for u in range(g.n) if g.degree(u) == 1)
        return WitnessReport(filled=1 << leaf, route="broken",
                             guaranteed_bound=(g.n - 1) // 2)

    monkeypatch.setattr(witness, "_lift_leaf", forcing_lift)
    g = path_graph(5)
    assert derived_set(g, 1 << 0) == g.full
    with pytest.raises(ConstructionError):
        witness_general(g)
    assert cli.main(["witness", write_graph6(g)]) == 2
    assert "construction failed" in capsys.readouterr().err


def test_missing_even_cycle_fails_loudly(monkeypatch, capsys):
    # min degree 3 guarantees an even cycle, so a finder that returns
    # None must raise, never fall back to another seed
    monkeypatch.setattr(witness, "_even_cycle", lambda parent, depth, back: None)
    with pytest.raises(ConstructionError):
        witness_delta3(complete_graph(4))
    assert cli.main(["witness", "C~"]) == 2
    assert "construction failed" in capsys.readouterr().err


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
        "717e2711a5335202d49627867435f87a38a67729d6e07fdc73f050ab745cbe54")


def test_general_exhaustive_small():
    rows = []
    for n in range(1, 8):
        for g in generate_graphs(n):
            if not is_connected(g):
                continue
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
        "d2d9706098b64eec805c725fdb3c8e71c1f2a9fb1053ee8e4366d405d036352a")


def test_partition_fill_survives_edge_additions():
    # an unspent stalled fill keeps stalling as edges arrive
    rng = random.Random(83)
    g = petersen_graph()
    rep = witness_delta3(g)
    assert rep.route == "algo1-even"
    fill = rep.filled
    assert spent_vertices(g, fill) == 0
    h = g
    non_edges = [(u, v) for u in range(10) for v in range(u + 1, 10)
                 if not g.has_edge(u, v)]
    rng.shuffle(non_edges)
    for u, v in non_edges[:20]:
        h = h.with_edge(u, v)
        assert is_stalled(h, fill)
