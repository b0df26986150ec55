"""Chain sums, the geodesic bracket, and the chain inequalities."""

import heapq
import itertools
import json
import math

import numpy as np
import pytest

from jetspace import geodesic
from jetspace.cli import main
from jetspace.cubes import Cube, weighted_cube_distance
from jetspace.geodesic import (
    Chain,
    chain_length,
    d_lower,
    d_upper,
    gauge_chain_inequality,
    interpolating_candidates,
    interval_chain_inequality,
    verify_chain_bound,
)
from jetspace.jets import Jet, gauge, jet_distance, scale
from jetspace.modulus import Modulus
from jetspace.poly import Poly, multi_indices
from jetspace.serialize import jet_to_dict

MOD = Modulus.power(1, 2)


def _rand_jet(rng, n=1, deg=1, r_hi=1.5):
    coef = {a: float(rng.uniform(-2, 2)) for a in multi_indices(n, deg)}
    return Jet(
        Poly(n, deg, coef),
        Cube(tuple(rng.uniform(-1, 1, size=n)), float(rng.uniform(0.1, r_hi))),
    )


def test_chain_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        Chain((_rand_jet(rng),))
    with pytest.raises(ValueError):
        Chain((_rand_jet(rng, deg=1), _rand_jet(rng, deg=2)))


def test_chain_length_two_jets():
    rng = np.random.default_rng(1)
    t1, t2 = _rand_jet(rng), _rand_jet(rng)
    assert chain_length(MOD, Chain((t1, t2))) == jet_distance(MOD, t1, t2)


def test_chain_length_repeated_jet_adds_nothing():
    rng = np.random.default_rng(2)
    t1, t2 = _rand_jet(rng), _rand_jet(rng)
    assert chain_length(MOD, Chain((t1, t1, t2))) == pytest.approx(
        chain_length(MOD, Chain((t1, t2)))
    )


def test_chain_length_concatenation():
    rng = np.random.default_rng(3)
    jets = [_rand_jet(rng) for _ in range(4)]
    whole = chain_length(MOD, Chain(tuple(jets)))
    parts = chain_length(MOD, Chain(tuple(jets[:2]))) + chain_length(
        MOD, Chain(tuple(jets[1:]))
    )
    assert whole == pytest.approx(parts, rel=1e-12)


# -- shortest-path upper bound --------------------------------------------------


def test_d_upper_no_candidates_is_direct():
    rng = np.random.default_rng(4)
    t1, t2 = _rand_jet(rng), _rand_jet(rng)
    assert d_upper(MOD, t1, t2, []) == jet_distance(MOD, t1, t2)


def test_d_upper_same_poly_candidates_collapse_to_cube_distance():
    rng = np.random.default_rng(5)
    p = Poly(1, 1, {(1,): 1.3, (0,): -0.2})
    cubes = [
        Cube((float(rng.uniform(-1, 1)),), float(rng.uniform(0.1, 2))) for _ in range(5)
    ]
    start, end = Jet(p, cubes[0]), Jet(p, cubes[1])
    cands = [Jet(p, c) for c in cubes[2:]]
    # every edge equals the weighted cube distance, which is a metric, so the
    # direct edge is shortest
    assert d_upper(MOD, start, end, cands) == pytest.approx(
        weighted_cube_distance(MOD, cubes[0], cubes[1]), rel=1e-12
    )


def _brute_force_shortest(mod, start, end, candidates):
    nodes = [start, end, *candidates]
    best = jet_distance(mod, start, end)
    idx = range(2, len(nodes))
    for r in range(1, len(candidates) + 1):
        for mids in itertools.permutations(idx, r):
            path = [0, *mids, 1]
            total = sum(
                jet_distance(mod, nodes[a], nodes[b]) for a, b in zip(path, path[1:])
            )
            best = min(best, total)
    return best


def test_d_upper_matches_path_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(20):
        t1, t2 = _rand_jet(rng), _rand_jet(rng)
        cands = [_rand_jet(rng) for _ in range(4)]
        assert d_upper(MOD, t1, t2, cands) == pytest.approx(
            _brute_force_shortest(MOD, t1, t2, cands), rel=1e-10
        )


def test_d_upper_antitone_in_candidates():
    rng = np.random.default_rng(7)
    for _ in range(30):
        t1, t2 = _rand_jet(rng), _rand_jet(rng)
        cands = [_rand_jet(rng) for _ in range(5)]
        prev = math.inf
        for size in range(len(cands) + 1):
            val = d_upper(MOD, t1, t2, cands[:size])
            assert val <= prev * (1 + 1e-12)
            prev = val


def _chain_jet(rng, offset=0.0):
    """A random 2-D jet of degree 2, shaped like the metric benchmark's."""
    coef = {a: float(rng.uniform(-2, 2)) for a in multi_indices(2, 2)}
    center = tuple((rng.uniform(-1, 1, size=2) + offset).tolist())
    return Jet(Poly(2, 2, coef), Cube(center, float(rng.uniform(0.05, 1.5))))


def _chain_input(rng, candidates=24):
    """Start, end (its cube offset by 4, so that the search settles the
    candidates first) and the candidates."""
    start, end = _chain_jet(rng), _chain_jet(rng, offset=4.0)
    return start, end, [_chain_jet(rng) for _ in range(candidates)]


def _full_relaxation_d_upper(mod, start, end, candidates):
    """Dijkstra that weighs every edge from a settled node to an unsettled
    one with ``jet_distance``: the search ``d_upper`` prunes.  Returns the
    distance and the edges (i, j) that lowered j's label below the end's,
    which a pruned search must weigh too."""
    nodes = [start, end, *candidates]
    dist = [math.inf] * len(nodes)
    done = [False] * len(nodes)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    needed = []
    while heap:
        d, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        if i == 1:
            break
        for j in range(len(nodes)):
            if not done[j]:
                nd = d + jet_distance(mod, nodes[i], nodes[j])
                if nd < min(dist[j], dist[1]):
                    needed.append((i, j))
                if nd < dist[j]:
                    dist[j] = nd
                    heapq.heappush(heap, (nd, j))
    return dist[1], needed


@pytest.fixture
def weighed(monkeypatch):
    """The (jet, jet, weight) of every edge ``d_upper`` weighs, in order."""
    edges = []
    distance = geodesic._distance

    def recording(mod, t1, t2, peak):
        out = distance(mod, t1, t2, peak)
        edges.append((t1, t2, out))
        return out

    monkeypatch.setattr(geodesic, "_distance", recording)
    return edges


def _assert_matches_full_relaxation(mod, start, end, cands, weighed):
    """``d_upper`` equals the full search as ``float.hex`` and weighs every
    edge that lowers a label below the end's, the direct edge first;
    returns it."""
    weighed.clear()
    upper = d_upper(mod, start, end, cands)
    full, needed = _full_relaxation_d_upper(mod, start, end, cands)
    assert upper.hex() == full.hex()
    nodes = [start, end, *cands]
    assert weighed[0][:2] == (start, end)
    assert {(id(nodes[i]), id(nodes[j])) for i, j in needed} <= {
        (id(a), id(b)) for a, b, _ in weighed
    }
    return upper


def test_d_upper_edges_are_jet_distances_bit_for_bit(weighed):
    mod = Modulus.power(1.5, 2)
    rng = np.random.default_rng(21)
    for _ in range(32):
        start, end, cands = _chain_input(rng)
        upper = _assert_matches_full_relaxation(mod, start, end, cands, weighed)
        # of the 325 edges of the complete graph on 26 jets, fewer than half
        # are weighed
        assert len(weighed) < 325 / 2
        for a, b, weight in weighed:
            assert weight.hex() == jet_distance(mod, a, b).hex()
        assert upper <= jet_distance(mod, start, end)


def test_d_upper_matches_full_relaxation_bit_for_bit(weighed):
    mod = Modulus.power(1.5, 2)
    rng = np.random.default_rng(23)
    for _ in range(64):
        _assert_matches_full_relaxation(mod, *_chain_input(rng), weighed)


@pytest.mark.parametrize(
    "mod",
    [
        *(Modulus.power(q, 2) for q in (0.5, 1.0, 1.5, 2.0)),
        Modulus.power_log(1, 2),
        Modulus.table([(0.01, 1e-4), (1, 1), (1e4, 1e8)], 2),
    ],
    ids=["power-0.5", "power-1", "power-1.5", "power-2", "powerlog", "table"],
)
def test_d_upper_fuzz_matches_full_relaxation_bit_for_bit(mod, weighed):
    # coefficients over a wide range, radii from 0.05 to 2.7, interpolating
    # candidates (which give routes within 1-2 ulps of the direct edge), and
    # duplicate candidates, copies of start and end and candidates sharing
    # start's polynomial (zero, tied and cube-only edges)
    rng = np.random.default_rng(24)

    def jet(n, deg, size, offset):
        coef = {a: float(rng.uniform(-size, size)) for a in multi_indices(n, deg)}
        center = tuple((rng.uniform(-1, 1, size=n) + offset).tolist())
        return Jet(Poly(n, deg, coef), Cube(center, float(np.exp(rng.uniform(-3, 1)))))

    for trial in range(80):
        n, deg = 1 + trial % 2, int(rng.integers(0, 3))
        size = float(np.exp(rng.uniform(-2, 4)))
        start, end = jet(n, deg, size, 0.0), jet(n, deg, size, rng.uniform(0, 5))
        cands = interpolating_candidates(start, end, int(rng.integers(1, 6)))
        cands += [jet(n, deg, size, rng.uniform(0, 5)) for _ in range(int(rng.integers(0, 6)))]
        cands += [cands[0], start, end, Jet(start.poly, cands[-1].cube)]
        rng.shuffle(cands)
        _assert_matches_full_relaxation(mod, start, end, cands, weighed)


def test_d_upper_ignores_candidates_out_of_float_range(tmp_path):
    # the two extra candidates differ by +-inf in every coefficient
    start, end, cands = _chain_input(np.random.default_rng(22))
    huge = [
        Jet(Poly(2, 2, {a: sign * 1.7e308 for a in multi_indices(2, 2)}), jet.cube)
        for sign, jet in zip((1.0, -1.0), cands[:2])
    ]
    payload = {
        "omega": {"family": "power", "q": 1.5, "m": 2},
        "jets": [jet_to_dict(start), jet_to_dict(end)],
        "candidates": [jet_to_dict(j) for j in cands + huge],
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    assert main(["metric", "--input", str(path), "--output", str(out)]) == 0
    # the value the Poly-route discrepancies give
    assert json.loads(out.read_text())["geodesic_upper"] == 6.169519496746535


# -- lower bound and sandwich -----------------------------------------------------


def test_d_lower_same_poly_is_cube_distance():
    rng = np.random.default_rng(8)
    p = Poly(1, 1, {(1,): 0.9})
    q1 = Cube((0.0,), 1.0)
    q2 = Cube((1.5,), 0.4)
    assert d_lower(MOD, Jet(p, q1), Jet(p, q2)) == pytest.approx(
        weighted_cube_distance(MOD, q1, q2), rel=1e-12
    )
    t = Jet(p, q1)
    assert d_lower(MOD, t, t) == 0.0


def test_sandwich_ordering():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t1, t2 = _rand_jet(rng), _rand_jet(rng)
        cands = [_rand_jet(rng) for _ in range(3)]
        low = d_lower(MOD, t1, t2)
        up = d_upper(MOD, t1, t2, cands)
        direct = jet_distance(MOD, t1, t2)
        assert low <= up * (1 + 1e-9) + 1e-300
        assert up <= direct * (1 + 1e-9) + 1e-300


# -- chain scaling bound -----------------------------------------------------------


def test_chain_bound_two_jets():
    rng = np.random.default_rng(10)
    res = verify_chain_bound(MOD, Chain((_rand_jet(rng), _rand_jet(rng))))
    assert res.ok and res.slack >= 0


def test_chain_bound_identical_jets():
    rng = np.random.default_rng(11)
    t = _rand_jet(rng)
    res = verify_chain_bound(MOD, Chain((t, t, t)))
    assert res.ok and res.lhs == 0.0 and res.rhs == 0.0


def test_chain_bound_random_chains():
    rng = np.random.default_rng(12)
    for _ in range(300):
        jets = tuple(_rand_jet(rng) for _ in range(int(rng.integers(2, 6))))
        res = verify_chain_bound(MOD, Chain(jets))
        assert res.ok
        # both chain sums are the per-link jet distances, bit for bit
        links = list(zip(jets, jets[1:]))
        direct = sum(jet_distance(MOD, a, b) for a, b in links)
        assert chain_length(MOD, Chain(jets)).hex() == direct.hex()
        factor = math.exp(1)  # e^n for n = 1
        scaled = sum(jet_distance(MOD, scale(factor, a), scale(factor, b)) for a, b in links)
        assert res.rhs.hex() == scaled.hex()


# -- chain inequalities --------------------------------------------------------------


def test_interval_chain_triangle_instance():
    # two links, no extra steps: the triangle-type bound
    rng = np.random.default_rng(13)
    for _ in range(300):
        b = rng.uniform(0.05, 3.0, size=3).tolist()
        a = rng.uniform(0.0, 2.0, size=2).tolist()
        res = interval_chain_inequality(MOD, b, a, [0.0, 0.0])
        assert res.ok


def test_interval_chain_equal_scales():
    res = interval_chain_inequality(MOD, [1.0, 1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    assert res.ok


def test_chain_inequality_argument_checks():
    for b, a, c, message in (
        ([1.0], [], [], r"need l\+1 scales"),
        ([1.0, 1.0], [0.0], [], r"need l\+1 scales"),
        ([1.0, 0.0], [0.0], [0.0], "scales must be positive"),
        ([1.0, 1.0], [-1.0], [0.0], "steps must be non-negative"),
        ([1.0, 1.0], [0.0], [-1.0], "steps must be non-negative"),
    ):
        with pytest.raises(ValueError, match=message):
            interval_chain_inequality(MOD, b, a, c)
    for b, u, message in (
        ([1.0], [], r"need l\+1 scales"),
        ([1.0, 1.0], [0.0, 0.0], r"need l\+1 scales"),
        ([1.0, -1.0], [0.0], "scales must be positive"),
        ([1.0, 1.0], [-1.0], "discrepancies must be non-negative"),
    ):
        with pytest.raises(ValueError, match=message):
            gauge_chain_inequality(MOD, 1, 0, b, u)


def test_interval_chain_random():
    rng = np.random.default_rng(14)
    for _ in range(500):
        links = int(rng.integers(1, 6))
        b = rng.uniform(0.05, 3.0, size=links + 1).tolist()
        a = rng.uniform(0.0, 3.0, size=links).tolist()
        c = rng.uniform(0.0, 3.0, size=links).tolist()
        assert interval_chain_inequality(MOD, b, a, c).ok


def test_interval_chain_validation():
    with pytest.raises(ValueError):
        interval_chain_inequality(MOD, [1.0], [], [])
    with pytest.raises(ValueError):
        interval_chain_inequality(MOD, [1.0, 1.0], [0.0, 0.0], [0.0])
    with pytest.raises(ValueError):
        interval_chain_inequality(MOD, [1.0, -1.0], [0.0], [0.0])


def test_gauge_chain_zero_discrepancies():
    res = gauge_chain_inequality(MOD, 1, 0, [0.5, 1.0, 0.7], [0.0, 0.0])
    assert res.ok and res.lhs == 0.0


def test_gauge_chain_single_link():
    rng = np.random.default_rng(15)
    for _ in range(100):
        b = rng.uniform(0.05, 2.0, size=2).tolist()
        u = [gauge(MOD, 1, 0, float(rng.uniform(0, 2)), min(b))]
        assert gauge_chain_inequality(MOD, 1, 0, b, u).ok


def test_gauge_chain_random():
    rng = np.random.default_rng(16)
    for _ in range(300):
        top = int(rng.integers(0, 3))
        a_ord = int(rng.integers(0, top + 1))
        links = int(rng.integers(1, 5))
        b = rng.uniform(0.05, 2.0, size=links + 1).tolist()
        u = [
            gauge(MOD, top, a_ord, float(rng.uniform(0, 2)), min(bi, bj))
            for bi, bj in zip(b, b[1:])
        ]
        assert gauge_chain_inequality(MOD, top, a_ord, b, u).ok


def test_gauge_chain_top_order_is_carried_as_a_distance():
    # kernel 1/s: the summed top-order discrepancy 800 has its discrepancy
    # scale expm1(800) beyond the float range, while the integral up to that
    # scale is 800 itself; this once gave lhs = inf and ok = False
    res = gauge_chain_inequality(Modulus.power(1.0, 2), 1, 1, [1.0, 1.0, 1.0], [400.0, 400.0])
    assert res.ok
    assert res.lhs == 800.0 and res.rhs == 800.0


def test_gauge_chain_validation():
    with pytest.raises(ValueError):
        gauge_chain_inequality(MOD, 1, 0, [1.0, 1.0], [0.0, 0.0])


def test_interpolating_candidates():
    rng = np.random.default_rng(17)
    t1, t2 = _rand_jet(rng), _rand_jet(rng)
    cands = interpolating_candidates(t1, t2, count=3)
    assert len(cands) == 3
    for c in cands:
        assert min(t1.cube.radius, t2.cube.radius) <= c.cube.radius <= max(
            t1.cube.radius, t2.cube.radius
        )
    assert interpolating_candidates(t1, t2, count=0) == []
