"""Output checks the benchmark makes apart from the program under test.

Nothing here imports :mod:`repro`: the NMI is the benchmark's own, and
every check states a property the method must have (a distribution
sums to one, the reported topic is its argmax, ...) rather than
comparing against a stored copy of an earlier run's output. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Hashable, Mapping, Sequence

#: Slack on "sums to one" for a float sum over a handful of topics.
SUM_TOLERANCE = 1e-9

#: Floors on the NMI between model topics and the generator's
#: ground-truth gel bands, well above chance: ten random labels score
#: about 0.03 on the ~750-3,000 dataset recipes but up to 0.25 on the
#: 100 held-out recipes of ``sharded``. Today's code scores 0.48-0.75
#: (``topic_nmi``) and 0.77-0.90 (``heldout_nmi``).
TOPIC_NMI_FLOOR = 0.3
HELDOUT_NMI_FLOOR = 0.5


def _entropy(counts: Mapping[Any, int], total: int) -> float:
    return -sum((c / total) * math.log(c / total) for c in counts.values() if c)


def nmi(labels_a: Sequence[Hashable], labels_b: Sequence[Hashable]) -> float:
    """Normalised mutual information, arithmetic-mean normalisation.

    ``I(A; B) / ((H(A) + H(B)) / 2)``; two constant labelings score 1,
    and a constant labeling against a varied one scores 0.
    """
    if len(labels_a) != len(labels_b):
        raise ValueError("labelings differ in length")
    total = len(labels_a)
    if total == 0:
        raise ValueError("empty labelings")
    count_a = Counter(labels_a)
    count_b = Counter(labels_b)
    joint = Counter(zip(labels_a, labels_b))
    h_a = _entropy(count_a, total)
    h_b = _entropy(count_b, total)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    mutual = sum(
        (c / total) * math.log(c * total / (count_a[a] * count_b[b]))
        for (a, b), c in joint.items()
    )
    return max(0.0, mutual) / ((h_a + h_b) / 2.0)


def check_distribution(
    distribution: Sequence[float], topic: int, what: str
) -> list[str]:
    """A topic distribution is non-negative, sums to one, ``topic`` is its argmax."""
    problems = []
    if not distribution:
        return [f"{what}: empty distribution"]
    if any(not math.isfinite(p) or p < 0.0 for p in distribution):
        problems.append(f"{what}: negative or non-finite probability")
    if abs(math.fsum(distribution) - 1.0) > SUM_TOLERANCE:
        problems.append(f"{what}: sums to {math.fsum(distribution)!r}, not 1")
    if not 0 <= topic < len(distribution):
        problems.append(f"{what}: topic {topic} out of range")
    elif distribution[topic] != max(distribution):
        problems.append(f"{what}: topic {topic} is not the argmax")
    return problems


def check_texture_response(
    payload: Mapping[str, Any],
    ok_threshold: float,
    vocabulary: frozenset[str],
) -> list[str]:
    """Properties every ``POST /v1/texture`` answer must have."""
    try:
        distribution = [float(p) for p in payload["topic_distribution"]]
        topic = int(payload["topic"])
        confidence = float(payload["confidence"])
        status = payload["status"]
        terms = payload["predicted_terms"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"texture: malformed response ({exc!r})"]
    problems = check_distribution(distribution, topic, "texture")
    if distribution and confidence != max(distribution):
        problems.append("texture: confidence is not the distribution's max")
    if status != ("ok" if confidence >= ok_threshold else "review"):
        problems.append(
            f"texture: status {status!r} disagrees with confidence "
            f"{confidence} vs threshold {ok_threshold}"
        )
    probabilities = []
    for term in terms:
        if term.get("surface") not in vocabulary:
            problems.append(f"texture: predicted term {term.get('surface')!r} "
                            "is not in the vocabulary")
        probabilities.append(float(term.get("probability", math.nan)))
    if any(a < b for a, b in zip(probabilities, probabilities[1:])) or any(
        not math.isfinite(p) for p in probabilities
    ):
        problems.append("texture: predicted terms not in descending probability")
    return problems


def check_term_response(payload: Mapping[str, Any], surface: str) -> list[str]:
    """Properties every ``GET /v1/terms/{term}`` answer must have."""
    try:
        affinity = [float(p) for p in payload["topic_affinity"]]
        best = int(payload["best_topic"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"term: malformed response ({exc!r})"]
    problems = check_distribution(affinity, best, f"term {surface!r}")
    if payload.get("surface") != surface:
        problems.append(f"term: answered {payload.get('surface')!r} for {surface!r}")
    return problems
