"""Workloads and the seeded request lists they send.

A workload fixes the build (``repro run`` flags) and the traffic. All
inputs derive from the ``--seed`` the benchmark is given:

* the training corpus is ``repro run --seed <seed>``;
* held-out recipes come from a :class:`~repro.synth.generator.CorpusGenerator`
  on the stream ``SeedSequence([seed, 1])``, independent of the
  training stream, so no request repeats a training recipe;
* request order, Zipf draws and term picks come from
  ``SeedSequence([seed, 2])``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

_HELDOUT_STREAM = 1
_ORDER_STREAM = 2

#: Warm-up requests sent before the timed window (never timed).
WARMUP_TEXTURE = 6
WARMUP_TERMS = 2

#: Every ``TERM_EVERY``-th request of the timed list is a term lookup.
TERM_EVERY = 5


@dataclass(frozen=True)
class Workload:
    name: str
    recipes: int
    sweeps: int
    shards: int
    #: Distinct held-out recipes the texture requests are drawn from.
    pool: int
    texture_requests: int
    term_requests: int
    #: Zipf exponent of recipe popularity; ``None`` sends each pool
    #: recipe exactly once, in order.
    zipf: float | None

    def run_args(self, seed: int) -> list[str]:
        args = [
            "--recipes", str(self.recipes),
            "--sweeps", str(self.sweeps),
            "--seed", str(seed),
        ]
        if self.shards > 1:
            args += ["--shards", str(self.shards)]
        return args


WORKLOADS = {
    # Why each workload exists is recorded in BENCHMARK.json and README.md.
    "paper": Workload(
        name="paper",
        recipes=1500, sweeps=300, shards=1,
        pool=1000, texture_requests=1000, term_requests=250, zipf=None,
    ),
    "sharded": Workload(
        name="sharded",
        recipes=6000, sweeps=30, shards=4,
        pool=100, texture_requests=1000, term_requests=250, zipf=1.0,
    ),
}


@dataclass(frozen=True)
class Request:
    kind: str  # "texture" or "term"
    method: str
    path: str
    body: bytes
    #: Held-out pool index (texture) or the looked-up surface (term).
    key: Any


def heldout_recipes(workload: Workload, seed: int) -> list[Any]:
    """The held-out pool followed by the warm-up recipes."""
    from repro.synth.generator import CorpusGenerator
    from repro.synth.presets import CorpusPreset

    rng = np.random.default_rng(np.random.SeedSequence([seed, _HELDOUT_STREAM]))
    corpus = CorpusGenerator(rng=rng).generate(
        CorpusPreset(name="heldout", n_recipes=workload.pool + WARMUP_TEXTURE)
    )
    return [(recipe, corpus.truth_of(recipe.recipe_id)) for recipe in corpus.recipes]


def texture_body(recipe: Any) -> bytes:
    return json.dumps(
        {
            "ingredients": [
                {"name": i.name, "quantity": i.quantity_text}
                for i in recipe.ingredients
            ],
            "description": recipe.description,
        },
        sort_keys=True,
    ).encode("utf-8")


def _texture(index: int, recipe: Any) -> Request:
    return Request("texture", "POST", "/v1/texture", texture_body(recipe), index)


def _term(surface: str) -> Request:
    from urllib.parse import quote

    return Request("term", "GET", "/v1/terms/" + quote(surface), b"", surface)


def request_lists(
    workload: Workload,
    seed: int,
    recipes: Sequence[Any],
    vocabulary: Sequence[str],
) -> tuple[list[Request], list[Request]]:
    """``(warmup, timed)`` request lists for one session.

    The timed list interleaves texture requests and term lookups in a
    fixed order: every :data:`TERM_EVERY`-th request is a term lookup.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, _ORDER_STREAM]))
    pool = workload.pool
    if workload.zipf is None:
        order = np.arange(workload.texture_requests) % pool
    else:
        # Every pool recipe once, then Zipf-popular repeats, shuffled.
        weights = 1.0 / np.arange(1, pool + 1) ** workload.zipf
        repeats = rng.choice(
            pool, size=workload.texture_requests - pool, p=weights / weights.sum()
        )
        order = rng.permutation(np.concatenate([np.arange(pool), repeats]))
    surfaces = sorted(vocabulary)
    picks = rng.integers(0, len(surfaces), size=workload.term_requests + WARMUP_TERMS)
    terms = [_term(surfaces[int(i)]) for i in picks]
    textures = [_texture(int(i), recipes[int(i)][0]) for i in order]

    timed: list[Request] = []
    texture_iter, term_iter = iter(textures), iter(terms[WARMUP_TERMS:])
    for position in range(workload.texture_requests + workload.term_requests):
        if position % TERM_EVERY == TERM_EVERY - 1:
            timed.append(next(term_iter))
        else:
            timed.append(next(texture_iter))
    warmup = [
        _texture(pool + i, recipes[pool + i][0]) for i in range(WARMUP_TEXTURE)
    ] + terms[:WARMUP_TERMS]
    return warmup, timed


def repeat_share(requests: Sequence[Request]) -> float:
    """Share of texture requests whose body equals an earlier one."""
    seen: set[bytes] = set()
    repeats = total = 0
    for request in requests:
        if request.kind != "texture":
            continue
        total += 1
        repeats += request.body in seen
        seen.add(request.body)
    return repeats / total if total else 0.0
