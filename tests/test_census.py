import hashlib
import itertools
import json
import multiprocessing
import os
import random
from collections import Counter
from functools import lru_cache

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from zeroforcing import (
    CensusTable,
    ExactResult,
    Finding,
    canonical_form,
    check_values,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    from_edges,
    generate_graphs,
    is_connected,
    parse_graph6,
    path_graph,
    run_census,
    vertices_of,
    write_graph6,
)

from zeroforcing import census
from zeroforcing.census import _canon_bits, _classes, _novel_extensions, _subset_orbit

from conftest import edges, petersen_graph, random_graph
from naive import adj_sets, are_isomorphic, count_classes_by_dedupe, naive_refine


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        perm = list(range(n))
        rng.shuffle(perm)
        h = from_edges(n, [(perm[u], perm[v]) for u, v in edges(g)])
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_separates_nonisomorphic():
    rng = random.Random(29)
    seen = 0
    for _ in range(200):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, 0.5)
        h = random_graph(rng, n, 0.5)
        same_form = canonical_form(g) == canonical_form(h)
        assert same_form == are_isomorphic(g, h)
        seen += same_form
    assert seen < 50  # sanity: the pairs were mostly distinct


def test_canonical_graph_is_isomorphic_representative():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        rep = parse_graph6(canonical_form(g))
        assert are_isomorphic(g, rep)
        assert canonical_form(rep) == canonical_form(g)


def test_generated_counts_match_dedupe_oracle():
    for n in range(1, 7):
        classes = list(generate_graphs(n))
        connected = sum(1 for g in classes if is_connected(g))
        assert (len(classes), connected) == count_classes_by_dedupe(n)


def test_generated_classes_are_pairwise_distinct():
    for n in range(1, 7):
        forms = {canonical_form(g) for g in generate_graphs(n)}
        classes = list(generate_graphs(n))
        assert len(forms) == len(classes)
    for g, h in itertools.combinations(generate_graphs(5), 2):
        assert not are_isomorphic(g, h)


# sha256 of the sorted canonical_form records of the classes on n vertices,
# recorded when generation still yielded canonically labeled graphs, whose
# own records these were
CLASS_DIGESTS = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
    3: "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
    4: "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
    5: "6d6f843705782883a8ce87faa164796dcdcbc3f2d033fe2e34a8d782c2c6b82a",
    6: "f523cfda15e9d535ce349a3d80bef200e2f85e497064153b7efef1dfd7616d44",
    7: "d16cb100e88e2559837f2637813bf19f1e58dce202c8f4b5ae408eef2eb79f9b",
    8: "aff8dddabbc3d74f79ef9335e2a515a5455d4958c41e7b3ac4efc7a2d2299dba",
}


def test_generated_classes_have_the_pinned_canonical_forms():
    for n, digest in CLASS_DIGESTS.items():
        forms = sorted(canonical_form(g) for g in generate_graphs(n))
        assert hashlib.sha256("\n".join(forms).encode()).hexdigest() == digest, n


def _vertex_orbits(n, pairs):
    """The partition of range(n) joined by the (u, image of u) pairs."""
    root = list(range(n))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for u, w in pairs:
        root[find(u)] = find(w)
    return {frozenset(u for u in range(n) if find(u) == r) for r in set(map(find, range(n)))}


def _networkx_graph(g, marked=None):
    graph = nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(edges(g))
    nx.set_node_attributes(graph, {u: u == marked for u in range(g.n)}, "marked")
    return graph


def _networkx_automorphisms(g, u=None, w=None):
    """networkx's automorphisms of g, or only those that map u to w."""
    return GraphMatcher(_networkx_graph(g, u), _networkx_graph(g, w),
                        node_match=lambda a, b: a["marked"] == b["marked"]).isomorphisms_iter()


def _images(bit_maps):
    """Each generator of _canon_bits, a list of 1 << image[u], as the list
    image."""
    return [[bit.bit_length() - 1 for bit in bit_map] for bit_map in bit_maps]


def test_automorphism_generators_match_networkx():
    rng = random.Random(41)
    graphs = [g for n in range(1, 7) for g in generate_graphs(n)]
    graphs += [complete_graph(9), from_edges(9, []), petersen_graph()]
    for _ in range(100):
        n = rng.randint(1, 9)
        graphs.append(random_graph(rng, n, rng.uniform(0.1, 0.9)))
    assert sum(not is_connected(g) for g in graphs[-100:]) >= 20
    for g in graphs:
        _, _, generators = _canon_bits(g.n, g.adj)
        for bit_map, image in zip(generators, _images(generators)):
            assert bit_map == [1 << x for x in image]
            assert sorted(image) == list(range(g.n))
            assert sorted(tuple(sorted((image[u], image[w]))) for u, w in edges(g)) == edges(g)
        ours = _vertex_orbits(g.n, [(u, image[u]) for image in _images(generators) for u in range(g.n)])
        theirs = _vertex_orbits(g.n, [(u, w) for u in range(g.n) for w in range(u + 1, g.n)
                                      if next(_networkx_automorphisms(g, u, w), None)])
        assert ours == theirs, write_graph6(g)
        if g.n <= 6:
            # Burnside: the orbits on vertex subsets average 2^cycles over Aut(G)
            automorphisms = list(_networkx_automorphisms(g))
            fixed = sum(2 ** len(_vertex_orbits(g.n, p.items())) for p in automorphisms)
            seen, count = set(), 0
            for subset in range(1 << g.n):
                if subset not in seen:
                    count += 1
                    seen |= _subset_orbit(subset, generators)
            assert count * len(automorphisms) == fixed, write_graph6(g)


def _cell_sets(cells):
    return [set(vertices_of(cell)) for cell in cells]


def test_refinement_matches_full_passes():
    rng = random.Random(43)
    graphs = [g for n in range(1, 8) for g in generate_graphs(n)]
    for _ in range(300):
        graphs.append(random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9)))
    for g in graphs:
        adj = adj_sets(g)
        by_degree = [{v for v in range(g.n) if len(adj[v]) == d} for d in sorted(set(map(len, adj)))]
        root = census._root(g.n, g.adj)
        assert _cell_sets(root) == naive_refine(adj, by_degree), write_graph6(g)
        for i, cell in enumerate(root):
            for u in vertices_of(cell) if cell & (cell - 1) else ():
                child = root[:i] + [1 << u, cell ^ 1 << u] + root[i + 1:]
                refined = census._refine(g.adj, child, [1 << u])
                assert _cell_sets(refined) == naive_refine(adj, _cell_sets(child)), (write_graph6(g), u)


def _hypercube(d):
    return from_edges(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1])


# canonical_form of each graph as the unpruned search computed it
SYMMETRIC_FORMS = [
    (_hypercube(4), "O?????NKqiLGd_i_X_F_?"),
    (cycle_graph(16), "O?????B@OSA_I?S?S?E??"),
    (petersen_graph(), "I?LRCecq?"),
    (cycle_graph(8), "G?LTE?"),
    (complete_bipartite(3, 3), "EFz_"),
    (from_edges(8, [(u, 4 + w) for u in range(4) for w in range(4) if u != w]), "G?]uf?"),
]


@pytest.mark.parametrize("g, form", SYMMETRIC_FORMS, ids=["Q4", "C16", "Petersen", "C8", "K3,3", "K4,4-PM"])
def test_symmetric_graphs_keep_their_forms_with_few_generators(g, form):
    assert canonical_form(g) == form
    _, _, generators = _canon_bits(g.n, g.adj)
    assert len(generators) <= g.n - 1
    if g.n <= 8:
        # Burnside: the orbits on vertex subsets average 2^cycles over Aut(G)
        automorphisms = list(_networkx_automorphisms(g))
        fixed = sum(2 ** len(_vertex_orbits(g.n, p.items())) for p in automorphisms)
        seen, count = set(), 0
        for subset in range(1 << g.n):
            if subset not in seen:
                count += 1
                seen |= _subset_orbit(subset, generators)
        assert count * len(automorphisms) == fixed


def test_classes_from_distinct_parents_are_distinct():
    # canonical deletion deduplicates within one parent only
    for n in range(2, 8):
        children = [g for parent in _classes(n - 1) for g in _novel_extensions([parent], n)]
        assert len({canonical_form(g) for g in children}) == len(children)
        counts = (len(children), sum(is_connected(g) for g in children))
        assert counts == (count_classes_by_dedupe(n) if n <= 6 else (1044, 853))


def _kept_by_labelling(parent, n):
    """The adjacency of each child of parent that canonical augmentation
    keeps, with keys counted on the child itself and every tie settled by
    labelling it: the reference for _novel_extensions' shortcuts."""
    v = n - 1
    bit_maps = _canon_bits(v, parent.adj)[2]
    seen, kept = set(), []
    for neighborhood in range(1 << v):
        if neighborhood in seen:
            continue
        seen |= _subset_orbit(neighborhood, bit_maps)
        adj = tuple(row | (neighborhood >> u & 1) << v for u, row in enumerate(parent.adj))
        adj += (neighborhood,)
        degree = [row.bit_count() for row in adj]
        if degree[v] < max(degree):
            continue
        keys = [(degree[u], sum(16 ** degree[w] for w in vertices_of(row))) for u, row in enumerate(adj)]
        top = max(keys)
        if keys[v] < top:
            continue
        if keys.count(top) > 1:
            _, order, generators = _canon_bits(n, adj)
            w = next(u for u in order if keys[u] == top)
            if 1 << v not in _subset_orbit(1 << w, generators):
                continue
        kept.append(adj)
    return kept


def test_shortcuts_keep_the_children_labelling_keeps():
    parents = [(g, n + 1) for n in range(1, 8) for g in _classes(n)]
    parents += [(g, 9) for g in random.Random(37).sample(_classes(8), 60)]
    for parent, n in parents:
        kept = [g.adj for g in _novel_extensions([parent], n)]
        assert kept == _kept_by_labelling(parent, n), write_graph6(parent)


def test_twin_ties_are_never_labelled(monkeypatch):
    labelled = []

    def counted(n, adj, root=None):
        if root is not None:
            labelled.append(adj)
        return _canon_bits(n, adj, root)

    monkeypatch.setattr(census, "_canon_bits", counted)
    for n in range(3, 10):
        # from n = 5 on: at n = 4 the star is P3, whose child C4 ties v with
        # the leaves, which are not its twins
        stars = [complete_bipartite(1, n - 2)] if n >= 5 else []
        children = list(_novel_extensions([complete_graph(n - 1), from_edges(n - 1, [])] + stars, n))
        # K_n; a star K_{1,k} plus isolated vertices for each k < n; the
        # star with a second centre, joined to the first or not
        assert len(children) == 1 + n + 2 * len(stars), n
    assert labelled == []


def test_generate_rejects_large_n():
    for n in (0, 11):
        with pytest.raises(ValueError, match=f"covers 1..10, not {n}"):
            list(generate_graphs(n))


def test_check_values_kinds():
    kinds = {kind for kind, _ in check_values(9, zero=2, failed=2)}
    assert "lower-bound" in kinds  # 2 < floor(8/2)
    assert "conjecture" in kinds  # F = Z = 2 but n > 6
    assert {kind for kind, _ in check_values(3, zero=1, failed=2)} == {"upper-bound"}
    assert check_values(5, zero=1, failed=2) == []


def test_check_values_flags_zero_above_failed_plus_one():
    assert check_values(5, zero=4, failed=2) == [
        ("zero-bound", "zero forcing number 4 above F + 1 = 3")]
    assert check_values(5, zero=3, failed=2) == []


def test_check_values_without_zero():
    # None: Z <= F + 1 is certified and nothing reads Z
    assert check_values(5, zero=None, failed=2) == []
    assert check_values(3, zero=None, failed=0) == [
        ("lower-bound", "failed number 0 below floor((n-1)/2) = 1")]
    assert {kind for kind, _ in check_values(3, zero=None, failed=2)} == {"upper-bound"}
    assert {kind for kind, _ in check_values(9, zero=None, failed=2)} == {"lower-bound"}


def _eager_table(max_n, k_max, failed_number):
    """The census table with the exact Z of every connected class."""
    table = CensusTable(max_n=max_n, k_max=k_max)
    for n in range(1, max_n + 1):
        for g in generate_graphs(n):
            if is_connected(g):
                table.add(g, census._zero_forcing_value(g), failed_number(g))
    table.finalize()
    return table


def test_lazy_zero_matches_exact_zero_everywhere():
    values = {}

    def failed_number(g):
        return values.setdefault(write_graph6(g), census.failed_zero_forcing_number(g).value)

    for k_max in (1, 2, 4, 6, 10):
        assert run_census(7, k_max).to_json() == _eager_table(7, k_max, failed_number).to_json(), k_max


def test_exact_zero_runs_only_where_read(monkeypatch):
    real = census._zero_forcing_value
    called = []

    def counted(g):
        called.append(write_graph6(g))
        return real(g)

    monkeypatch.setattr(census, "_zero_forcing_value", counted)
    classes = [(g.n, census.failed_zero_forcing_number(g).value, write_graph6(g))
               for n in range(1, 8) for g in generate_graphs(n) if is_connected(g)]
    for k_max in (1, 4):
        called.clear()
        run_census(7, k_max, jobs=1)
        expected = [g6 for n, failed, g6 in classes if 1 <= failed <= k_max or n > failed + 4]
        assert sorted(called) == sorted(expected), k_max
        assert 0 < len(called) < len(classes)


def test_zero_bound_found_where_the_certificate_fails(monkeypatch):
    # F = 0 with witness 0: {0} forces only a path with end 0, so every other
    # class runs the exact Z, and those that are not paths have Z > F + 1
    planted = ExactResult(0, 0)
    monkeypatch.setattr(census, "failed_zero_forcing_number", lambda g: planted)
    table = run_census(4, 4)
    assert table.to_json() == _eager_table(4, 4, lambda g: 0).to_json()
    found = sorted(f.graph6 for f in table.violations if f.kind == "zero-bound")
    not_paths = sorted(canonical_form(g) for n in range(2, 5) for g in generate_graphs(n)
                       if is_connected(g) and (g.edge_count() != n - 1 or g.max_degree() > 2))
    assert found == not_paths and len(found) == 6
    assert census._zero_if_read(complete_graph(3), planted, 4) == 2


def test_table_tallies_and_exemplars():
    table = CensusTable(max_n=4, k_max=2)
    table.add(parse_graph6("Bg"), 1, 1)
    table.add(parse_graph6("Bw"), 2, 1)
    table.add(parse_graph6("C~"), 3, 2)
    table.finalize()
    assert table.f_counts[(1, 3)] == 2
    assert table.e_counts[(1, 3)] == 1
    assert table.f_total(1) == 2 and table.f_total(2) == 1
    assert table.e_total(1) == 1
    # exemplars keep the canonical record: BW is the path Bg relabeled
    assert table.exemplars[(1, 3)] == ["BW"] == [canonical_form(path_graph(3))]
    assert table.connected_totals[3] == 2
    table.add(parse_graph6("Bg"), 1, 2)
    assert [(f.kind, f.graph6) for f in table.violations] == [("upper-bound", "BW")]
    finding = table.violations[0]
    assert finding == Finding("upper-bound", "BW", 3, "failed number 2 above n - 2 = 1")
    assert hash(finding) == hash(Finding(kind="upper-bound", graph6="BW", n=3,
                                         detail="failed number 2 above n - 2 = 1"))
    with pytest.raises(AttributeError):
        finding.n = 4


def test_table_text_layout():
    table = run_census(max_n=4, k_max=2)
    text = table.to_text_table()
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["quantity", "n=1", "n=2", "n=3", "n=4", "total"]
    rows = {line.split("\t")[0]: line.split("\t")[1:] for line in lines[1:]}
    assert rows["F=1"] == ["0", "0", "2", "1", "3"]
    assert rows["F=Z=1"] == ["0", "0", "1", "1", "2"]
    assert rows["connected"] == ["1", "1", "2", "6", "10"]


def test_table_document_round_trips_json():
    table = run_census(max_n=5, k_max=3)
    doc = json.loads(table.to_json())
    assert doc["schema"] == "zeroforcing-census/1"
    assert doc["max_n"] == 5
    assert doc["f_counts"]["1"]["3"] == 2
    assert doc["e_counts"]["2"]["5"] == 4
    assert doc["connected_totals"]["5"] == 21
    assert doc["violations"] == []
    (exemplar,) = doc["exemplars"]["1"]["3"]
    assert are_isomorphic(parse_graph6(exemplar), path_graph(3))


def test_exemplars_parse_and_have_equal_numbers():
    from zeroforcing import failed_zero_forcing_number, zero_forcing_number

    table = run_census(max_n=5, k_max=2)
    for (k, n), items in table.exemplars.items():
        for text in items:
            g = parse_graph6(text)
            assert g.n == n
            assert failed_zero_forcing_number(g).value == k
            assert zero_forcing_number(g).value == k


def test_census_small_cells():
    table = run_census(max_n=6, k_max=4)
    nonzero_f = {k: v for k, v in table.f_counts.items() if v}
    assert nonzero_f == {
        (1, 3): 2, (1, 4): 1,
        (2, 4): 5, (2, 5): 5, (2, 6): 2,
        (3, 5): 16, (3, 6): 29,
        (4, 6): 81,
    }
    nonzero_e = {k: v for k, v in table.e_counts.items() if v}
    assert nonzero_e == {
        (1, 3): 1, (1, 4): 1,
        (2, 4): 4, (2, 5): 4, (2, 6): 1,
        (3, 5): 9, (3, 6): 10,
        (4, 6): 19,
    }
    assert table.violations == []


def test_census_parallel_matches_serial():
    serial = run_census(max_n=6, k_max=4, jobs=1)
    parallel = run_census(max_n=6, k_max=4, jobs=4)
    assert serial.to_json() == parallel.to_json()
    assert serial.to_text_table() == parallel.to_text_table()


def test_slices_of_parents_concatenate_to_the_whole_level():
    for n in range(2, 9):
        level = list(generate_graphs(n))
        parents = _classes(n - 1)
        for size in (1, 7, len(parents)):
            children = []
            for i in range(0, len(parents), size):
                children.extend(_novel_extensions(parents[i:i + size], n))
            assert children == level, (n, size)


def test_census_is_identical_at_uneven_job_counts(monkeypatch):
    # three workers even on a two-core machine, so the slices split unevenly
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = run_census(max_n=7, k_max=4, jobs=1)
    for jobs in (2, 3):
        parallel = run_census(max_n=7, k_max=4, jobs=jobs)
        assert parallel.to_json() == serial.to_json()
        assert parallel.to_text_table() == serial.to_text_table()
        assert parallel.class_totals == serial.class_totals


def test_census_tables_merge_in_any_order():
    parts = [census._shard(task) for task in census._level_slices(7, 4)]
    table = CensusTable(max_n=7, k_max=4)
    for part in reversed(parts):
        table.merge(part)
    table.finalize()
    whole = run_census(max_n=7, k_max=4)
    assert table.to_json() == whole.to_json()
    assert table.class_totals == whole.class_totals


def test_findings_from_forked_workers_are_canonical(monkeypatch):
    # Z = n > F + 1 plants a zero-bound finding in every class with n >= 2,
    # whether or not the census computes its Z; the forked workers inherit
    # the patch
    real = census.check_values
    monkeypatch.setattr(census, "check_values", lambda n, zero, failed: real(n, n, failed))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = run_census(max_n=6, k_max=4, jobs=1)
    forked = run_census(max_n=6, k_max=4, jobs=2)
    assert forked.to_json() == serial.to_json()
    assert len(forked.violations) == sum(forked.connected_totals.values()) - 1
    for finding in forked.violations:
        assert finding.kind == "zero-bound"
        assert finding.graph6 == canonical_form(parse_graph6(finding.graph6))


def test_census_generates_each_level_once(monkeypatch):
    classes = lru_cache(maxsize=None)(census._classes.__wrapped__)
    monkeypatch.setattr(census, "_classes", classes)  # a cold cache, restored afterwards
    extend = census._novel_extensions
    parents_seen = Counter()

    def counted(parents, n):
        parents = list(parents)
        parents_seen[n] += len(parents)
        return extend(parents, n)

    monkeypatch.setattr(census, "_novel_extensions", counted)
    run_census(max_n=7, k_max=4, jobs=1)
    # classes(6) below is generated through the spy, so count before it runs
    seen = dict(parents_seen)
    assert seen == {n: len(classes(n - 1)) for n in range(2, 8)}


def test_census_leaves_the_top_two_levels_to_its_tasks(monkeypatch):
    cached = lru_cache(maxsize=None)(census._classes.__wrapped__)
    asked = []

    def spy(n):
        asked.append(n)
        return cached(n)

    monkeypatch.setattr(census, "_classes", spy)  # a cold cache, restored afterwards
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    table = run_census(max_n=8, k_max=4, jobs=2)
    assert max(asked) == 6
    # the forked workers generated the other two levels, each class once
    assert table.class_totals == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_census_pool_is_bounded_by_the_cores(monkeypatch):
    requested = []

    class InProcessPool:
        def __init__(self, processes):
            requested.append(processes)

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

        def close(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", InProcessPool)
    expected = run_census(max_n=5, k_max=4).to_json()
    for cores, jobs, pools in ((3, 100000, [3]), (3, 2, [2]), (1, 100000, []), (None, 8, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        requested.clear()
        assert run_census(max_n=5, k_max=4, jobs=jobs).to_json() == expected
        assert requested == pools, (cores, jobs)


def test_census_rejects_max_n_above_builtin():
    # checked up front, before any level is generated
    with pytest.raises(ValueError, match="covers n = 1..10, not max_n=11"):
        run_census(max_n=11, k_max=4)
