"""The benchmark's own tests: each output check fails on a corrupted output."""

from __future__ import annotations

import copy
import json
from types import SimpleNamespace

import pytest

from perfbench import checks, tracer
from perfbench.layers import _transport_ms
from perfbench.workloads import WORKLOADS, TERM_EVERY, repeat_share, request_lists

VOCAB = frozenset({"purupuru", "katai", "yawarakai"})

TEXTURE = {
    "status": "ok",
    "confidence": 0.7,
    "topic": 1,
    "topic_distribution": [0.1, 0.7, 0.2],
    "predicted_terms": [
        {"surface": "purupuru", "probability": 0.5},
        {"surface": "katai", "probability": 0.3},
    ],
}
TERM = {"surface": "katai", "topic_affinity": [0.25, 0.25, 0.5], "best_topic": 2}


def corrupt(payload: dict, **changes) -> dict:
    bad = copy.deepcopy(payload)
    bad.update(changes)
    return bad


def test_nmi_known_values():
    assert checks.nmi([0, 0, 1, 1], ["a", "a", "b", "b"]) == pytest.approx(1.0)
    assert checks.nmi([0, 1, 0, 1], ["a", "a", "b", "b"]) == pytest.approx(0.0)
    assert checks.nmi([5, 5, 5], ["x", "x", "x"]) == 1.0
    assert checks.nmi([0, 0, 0, 0], ["a", "a", "b", "b"]) == 0.0
    # Label names do not matter, only the partition.
    assert checks.nmi([2, 2, 0, 1], "aabc") == pytest.approx(1.0)
    # H(A)=ln2, H(B)=1.5 ln2, I=ln2 -> NMI = 1 / 1.25.
    assert checks.nmi([0, 0, 1, 1], [0, 1, 2, 2]) == pytest.approx(0.8)


def test_nmi_floors_sit_above_chance():
    import numpy as np

    rng = np.random.default_rng(0)
    bands = list(rng.choice(8, size=100, p=[0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05]))
    chance = max(checks.nmi(list(rng.integers(0, 10, 100)), bands) for _ in range(50))
    assert chance < checks.HELDOUT_NMI_FLOOR
    chance = max(
        checks.nmi(list(rng.integers(0, 10, 750)), bands * 7 + bands[:50]) for _ in range(20)
    )
    assert chance < checks.TOPIC_NMI_FLOOR


def test_nmi_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        checks.nmi([0, 1], [0])


def test_valid_texture_response_passes():
    assert checks.check_texture_response(TEXTURE, 0.5, VOCAB) == []
    review = corrupt(TEXTURE, status="review")
    assert checks.check_texture_response(review, 0.8, VOCAB) == []


@pytest.mark.parametrize(
    "bad",
    [
        corrupt(TEXTURE, topic_distribution=[0.1, 0.7, 0.3]),  # sums to 1.1
        corrupt(TEXTURE, topic_distribution=[-0.1, 0.7, 0.4]),  # negative
        corrupt(TEXTURE, topic=2, confidence=0.2),  # topic not the argmax
        corrupt(TEXTURE, confidence=0.69),  # confidence not the max
        corrupt(TEXTURE, status="review"),  # status disagrees with threshold
        corrupt(TEXTURE, predicted_terms=[{"surface": "nope", "probability": 0.5}]),
        corrupt(TEXTURE, predicted_terms=list(reversed(TEXTURE["predicted_terms"]))),
        {k: v for k, v in TEXTURE.items() if k != "topic"},  # malformed
    ],
)
def test_corrupted_texture_response_fails(bad):
    assert checks.check_texture_response(bad, 0.5, VOCAB)


def test_term_response_checks():
    assert checks.check_term_response(TERM, "katai") == []
    assert checks.check_term_response(TERM, "purupuru")  # answered another term
    assert checks.check_term_response(corrupt(TERM, best_topic=0), "katai")
    assert checks.check_term_response(
        corrupt(TERM, topic_affinity=[0.25, 0.25, 0.4]), "katai"
    )
    assert checks.check_term_response({"surface": "katai"}, "katai")


def test_estimate_distribution_checks():
    assert checks.check_distribution([0.2, 0.8], 1, "estimate") == []
    assert checks.check_distribution([0.2, 0.7], 1, "estimate")
    assert checks.check_distribution([0.2, 0.8], 0, "estimate")
    assert checks.check_distribution([0.2, float("nan")], 0, "estimate")


def _fake_recipes(n: int) -> list:
    return [
        (
            SimpleNamespace(
                ingredients=[SimpleNamespace(name="gelatin", quantity_text=f"{i}g")],
                description=f"recipe {i}",
            ),
            None,
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_request_lists_are_fixed_by_the_seed(name):
    workload = WORKLOADS[name]
    recipes = _fake_recipes(workload.pool + 6)
    warmup, timed = request_lists(workload, 3, recipes, sorted(VOCAB))
    again = request_lists(workload, 3, recipes, sorted(VOCAB))
    assert (warmup, timed) == again
    assert request_lists(workload, 4, recipes, sorted(VOCAB))[1] != timed
    kinds = [request.kind for request in timed]
    assert kinds.count("texture") == workload.texture_requests
    assert kinds.count("term") == workload.term_requests
    assert all(
        (kind == "term") == (i % TERM_EVERY == TERM_EVERY - 1)
        for i, kind in enumerate(kinds)
    )
    # Warm-up recipes never appear in the timed window.
    warm_bodies = {r.body for r in warmup if r.kind == "texture"}
    assert not warm_bodies & {r.body for r in timed}
    keys = {r.key for r in timed if r.kind == "texture"}
    assert keys == set(range(workload.pool))
    expected = 0.0 if workload.zipf is None else 1 - workload.pool / workload.texture_requests
    assert repeat_share(timed) == pytest.approx(expected)
    assert json.loads(timed[0].body)["ingredients"]


def test_tracer_records_outermost_and_within_calls():
    class Layer:
        def outer(self, n):
            return self.inner(n) + (self.outer(n - 1) if n else 0)

        def inner(self, n):
            return n

    recorder = tracer.Recorder()
    tracer._wrap(recorder, Layer, "outer", "outer", extra=lambda args, result: result)
    tracer._wrap(recorder, Layer, "inner", "inner", within="outer")
    layer = Layer()
    assert layer.outer(2) == 3
    assert len(recorder.events["outer"]) == 1  # recursion counted once
    assert recorder.events["outer"][0][3] == 3
    assert len(recorder.events["inner"]) == 3
    layer.inner(1)  # outside any outer call: not recorded
    assert len(recorder.events["inner"]) == 3


def test_transport_matches_server_threads_to_connections():
    def record(path, start, end):
        return (SimpleNamespace(path=path), start, end, 200, b"")

    callers = [
        [record("/v1/texture", 0.0, 0.05), record("/v1/terms/a", 0.06, 0.10)],
        [record("/v1/texture", 0.01, 0.06), record("/v1/texture", 0.07, 0.12)],
    ]
    handles = [
        [0.001, 0.005, 7, "/v1/texture"], [0.061, 0.001, 7, "/v1/terms/a"],
        [0.011, 0.004, 9, "/v1/texture"], [0.071, 0.004, 9, "/v1/texture"],
    ]
    gaps = [0.05 - 0.005, 0.04 - 0.001, 0.05 - 0.004, 0.05 - 0.004]
    assert _transport_ms(handles, callers) == pytest.approx(sum(gaps) / 4 * 1000)
    handles[1][3] = "/v1/terms/b"
    with pytest.raises(RuntimeError):
        _transport_ms(handles, callers)
