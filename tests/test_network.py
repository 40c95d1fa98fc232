"""Network model: distances, moving pairs, validation, file round trip."""

import json
import math
import re

import numpy as np
import pytest

from hubroster.network import (
    Hub,
    HubNetwork,
    build_moving_pairs,
    distance,
    load_network,
    random_network,
    save_network,
)


def _hub(i, x, y, tier="local"):
    return Hub(i, f"H{i}", float(x), float(y), tier)


def test_distance_identity():
    assert distance(_hub(0, 0, 0), _hub(1, 0, 0)) == 0.0


def test_distance_3_4_5():
    assert distance(_hub(0, 0, 0), _hub(1, 3000, 4000)) == 5000.0


def test_distance_axis_aligned():
    assert distance(_hub(0, 0, 0), _hub(1, 2500, 0)) == 2500.0


def test_distance_symmetric_and_triangle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = (_hub(i, rng.uniform(0, 9000), rng.uniform(0, 9000)) for i in range(3))
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_pairs_single_within_radius():
    net = HubNetwork([_hub(0, 0, 0), _hub(1, 2000, 0)], d_max_m=3000, speed_m_per_h=15000)
    pairs = build_moving_pairs(net)
    assert len(pairs) == 1
    assert pairs[0].distance_m == 2000.0
    assert pairs[0].travel_time_h == pytest.approx(2000 / 15000)


def test_pairs_excluded_beyond_radius():
    net = HubNetwork([_hub(0, 0, 0), _hub(1, 5000, 0)], d_max_m=3000, speed_m_per_h=15000)
    assert build_moving_pairs(net) == []


def test_pairs_sorted_collinear():
    net = HubNetwork(
        [_hub(0, 0, 0), _hub(1, 1000, 0), _hub(2, 2500, 0)], d_max_m=3000, speed_m_per_h=15000
    )
    pairs = build_moving_pairs(net)
    assert [(p.hub_a, p.hub_b, p.distance_m) for p in pairs] == [
        (0, 1, 1000.0),
        (1, 2, 1500.0),
        (0, 2, 2500.0),
    ]


def test_pairs_brute_force_membership():
    """Every pair within the radius is present, every other pair absent."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        hubs = [_hub(i, rng.uniform(0, 8000), rng.uniform(0, 8000)) for i in range(8)]
        net = HubNetwork(hubs, d_max_m=3000, speed_m_per_h=15000)
        got = {(p.hub_a, p.hub_b) for p in build_moving_pairs(net)}
        for i in range(8):
            for j in range(i + 1, 8):
                expected = distance(hubs[i], hubs[j]) <= 3000
                assert ((i, j) in got) == expected
        dists = [p.distance_m for p in build_moving_pairs(net)]
        assert dists == sorted(dists)


def test_network_validation():
    with pytest.raises(ValueError):
        HubNetwork([_hub(0, 0, 0), _hub(0, 1, 1)], 3000, 15000)  # duplicate id
    with pytest.raises(ValueError):
        HubNetwork([_hub(0, math.inf, 0)], 3000, 15000)
    with pytest.raises(ValueError):
        HubNetwork([Hub(0, "x", 0.0, 0.0, "regional")], 3000, 15000)
    with pytest.raises(ValueError):
        HubNetwork([_hub(0, 0, 0)], 0, 15000)
    with pytest.raises(ValueError):
        HubNetwork([_hub(0, 0, 0)], 3000, 0)


def test_network_rejects_hubs_that_share_coordinates():
    # a merge between them would change hubs with no travel segment or move payment
    for hubs, first, second in (
        ([_hub(0, 0, 0), _hub(1, 0, 0)], 0, 1),
        ([_hub(3, 500, 250), _hub(7, 900, 0), _hub(5, 500, 250)], 3, 5),
        ([_hub(0, -0.0, 0), _hub(1, 0.0, 0)], 0, 1),
    ):
        with pytest.raises(ValueError, match=f"hubs {first} and {second} share coordinates"):
            HubNetwork(hubs, 3000, 15000)
    HubNetwork([_hub(0, 0, 0), _hub(1, 0, 1e-9)], 3000, 15000)  # distinct, however close


def test_json_round_trip(tmp_path):
    net = random_network(n_hubs=10, n_gateways=2, seed=5)
    path = tmp_path / "network.json"
    save_network(net, path)
    back = load_network(path)
    assert back.d_max_m == net.d_max_m
    assert back.speed_m_per_h == net.speed_m_per_h
    assert [(h.id, h.name, h.x_m, h.y_m, h.tier) for h in back.hubs] == [
        (h.id, h.name, h.x_m, h.y_m, h.tier) for h in net.hubs
    ]


def test_load_network_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "network.json"
    for text in ("[1, 2]", '"hubs"', "3"):
        path.write_text(text)
        with pytest.raises(ValueError, match="network.json: network must be a JSON object"):
            load_network(path)


def test_load_network_names_the_file_it_cannot_read_or_use(tmp_path):
    path = tmp_path / "network.json"
    with pytest.raises(ValueError, match="network.json: cannot read network"):
        load_network(path)
    hub = {"id": 0, "name": "A", "x_m": 0.0, "y_m": 0.0, "tier": "local"}
    for doc in (
        {"hubs": 5, "d_max_m": 3000, "speed_m_per_h": 15000},  # TypeError
        {"hubs": [{**hub, "x_m": "east"}], "d_max_m": 3000, "speed_m_per_h": 15000},  # ValueError
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="network.json: "):
            load_network(path)
    # a hub id that is not a JSON integer is refused, not truncated
    for bad, shown in ((1.5, "1.5"), (True, "true"), ("1", '"1"')):
        path.write_text(json.dumps({"hubs": [{**hub, "id": bad}], "d_max_m": 3000, "speed_m_per_h": 15000}))
        with pytest.raises(ValueError, match=f"network.json: hub id must be an integer, got {re.escape(shown)}$"):
            load_network(path)


def test_random_network_tiers_and_determinism():
    a = random_network(n_hubs=12, n_gateways=3, seed=9)
    b = random_network(n_hubs=12, n_gateways=3, seed=9)
    assert sum(1 for h in a.hubs if h.tier == "gateway") == 3
    assert [(h.x_m, h.y_m) for h in a.hubs] == [(h.x_m, h.y_m) for h in b.hubs]
    with pytest.raises(ValueError):
        random_network(n_hubs=2, n_gateways=3)
