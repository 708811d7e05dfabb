import json

from opra.corpus import (
    ANSWER_PLANS, QUERY_NAMES, fixture_graph, load_goldens, load_query, run,
)


def test_corpus_matches_goldens():
    report, failures = run()
    assert failures == []


def test_corpus_run_is_deterministic():
    first, _ = run()
    second, _ = run()
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


def test_goldens_cover_every_query():
    goldens = load_goldens()
    assert set(goldens["answers"]) == {name for name, _ in ANSWER_PLANS}
    assert set(goldens["answers"]) == set(QUERY_NAMES)


def test_expected_shapes_of_goldens(fig2):
    goldens = load_goldens()
    answers = goldens["answers"]
    # walking-constrained, simultaneous-extrema and club queries are
    # unsatisfiable on the map fixture
    assert answers["t_walk_via_walk"]["answers"] == []
    assert answers["path_lengths"]["answers"] == []
    assert answers["registers"]["answers"] == []
    assert answers["q_route"]["answers"]
    assert goldens["extrema"]["min_time_route_sp"]["value"] == 80
    assert goldens["extrema"]["max_attr_route_sp"]["value"] == "+inf"
    assert goldens["terms"]["mas_S_T"] == 1
    assert goldens["terms"]["mas_S_W"] == 0
    assert goldens["terms"]["t_walk_W"] == 100
    assert set(goldens["terms"]["crowded"].values()) == {0}
