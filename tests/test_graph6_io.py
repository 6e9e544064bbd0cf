import random

import networkx as nx
import pytest

from zeroforcing import (
    Graph6Error,
    complete_graph,
    from_edges,
    generate_graphs,
    parse_graph6,
    path_graph,
    write_graph6,
)
from zeroforcing.graph6_io import _pack_bits, _unpack_bits, read_records

from conftest import edges, petersen_graph, random_graph


def test_known_encodings():
    assert write_graph6(complete_graph(1)) == "@"
    assert write_graph6(complete_graph(3)) == "Bw"
    assert write_graph6(path_graph(3)) == "Bg"
    assert parse_graph6("@").n == 1
    assert edges(parse_graph6("Bw")) == [(0, 1), (0, 2), (1, 2)]
    assert edges(parse_graph6("Bg")) == [(0, 1), (1, 2)]


def test_header_and_whitespace_tolerated():
    assert [parse_graph6(s) for _, s in read_records([">>graph6<<Bw"])] == [complete_graph(3)]
    assert edges(parse_graph6("Bw\r\n")) == edges(complete_graph(3))
    assert edges(parse_graph6("  Bw  ")) == edges(complete_graph(3))
    with pytest.raises(Graph6Error, match="header"):
        parse_graph6(">>graph6<<Bw")


@pytest.mark.parametrize("bad", [
    "",
    "B",            # truncated body
    "Bww",          # trailing bytes
    "B\x19",        # byte below the alphabet
    "B\x7f",        # byte above the alphabet
    "~AB",          # n > 62 unsupported
    "?",            # n = 0
    "Bx",           # nonzero padding bits
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_round_trip_random():
    rng = random.Random(5)
    sizes = [rng.randint(1, 20) for _ in range(500)] + [62]
    for n in sizes:
        g = random_graph(rng, n, rng.uniform(0.0, 1.0))
        assert parse_graph6(write_graph6(g)) == g


def test_unpack_inverts_pack_under_any_vertex_order():
    # order[i] becomes vertex i; canonical labeling packs under such orders
    rng = random.Random(17)
    for n in list(range(1, 63)) * 3:
        g = random_graph(rng, n, rng.uniform(0.0, 1.0))
        order = list(range(n))
        rng.shuffle(order)
        relabeled = from_edges(n, [(order.index(u), order.index(v)) for u, v in edges(g)])
        assert _unpack_bits(n, _pack_bits(g.adj, order)) == relabeled.adj


def test_round_trip_all_small_classes():
    for n in range(1, 9):
        for g in generate_graphs(n):
            assert parse_graph6(write_graph6(g)) == g


def test_networkx_agrees_both_ways():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 15)
        g = random_graph(rng, n, rng.uniform(0.0, 0.9))
        text = write_graph6(g)
        h = nx.from_graph6_bytes(text.encode())
        assert sorted(h.nodes) == list(range(n))
        assert sorted(map(tuple, map(sorted, h.edges))) == edges(g)
        back = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert parse_graph6(back) == g


def test_read_records_numbers_lines():
    lines = [">>graph6<<", "Bw", "", "  ", "Bg\r\n", "@"]
    records = list(read_records(lines))
    assert records == [(2, "Bw"), (5, "Bg"), (6, "@")]
    assert [parse_graph6(s).n for _, s in records] == [3, 3, 1]


def test_read_records_keeps_a_later_header():
    # dropped from line 1 only, so the record on a later line fails to parse
    ((line, s),) = read_records(["", ">>graph6<<Bg"])
    assert line == 2
    with pytest.raises(Graph6Error, match="header"):
        parse_graph6(s)
    assert list(read_records([">>graph6<<Bg"])) == [(1, "Bg")]


def test_petersen_round_trip():
    g = petersen_graph()
    assert parse_graph6(write_graph6(g)) == g


def test_disconnected_round_trip():
    g = from_edges(7, [(0, 1), (2, 3), (3, 4), (2, 4)])
    assert parse_graph6(write_graph6(g)) == g
