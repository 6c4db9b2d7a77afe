"""Per-layer metrics of one traced session, from the recorded call events.

Event lists are ``name -> [[start, duration, thread, extra], ...]`` as
written by :class:`perfbench.tracer.Recorder`; starts are
``CLOCK_MONOTONIC`` seconds shared by every process of the session.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any

#: Stage ``compute`` calls, by layer (see :mod:`perfbench.tracer`).
_STAGES = ("synth.generate", "embedding.gel_filter", "corpus.featurise",
           "stage.fit", "stage.linker")
#: Fit phases timed inside ``JointTextureTopicModel.fit``.
_FIT_PHASES = ("core.z_kernel", "core.nw_posterior", "core.nw_sample",
               "core.y_density", "core.loglik")


def _total(events: dict[str, list], name: str) -> float:
    return sum(event[1] for event in events.get(name, ()))


def _mean_ms(events: list) -> float:
    return statistics.fmean(event[1] for event in events) * 1000.0


def _inside(events: list, spans: list) -> list:
    """The events that start inside one of ``spans``."""
    return [
        event for event in events
        if any(s[0] <= event[0] <= s[0] + s[1] for s in spans)
    ]


def _store_mb(store: Path) -> float:
    size = sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
    return size / (1024.0 * 1024.0)


def _pipeline(build: dict[str, Any], reference_wall_s: float, store: Path) -> dict:
    events = build["events"]
    stage_events = [event for name in _STAGES for event in events.get(name, ())]
    imports = min(event[0] for event in stage_events) - build["launched"]
    stage_total = sum(event[1] for event in stage_events)
    put = _total(events, "artifacts.put")
    kept = [
        event[3][1] for event in events["corpus.featurise"]
        if event[3][0] == "build-dataset"
    ]

    fits = events["core.fit"]
    phase = {name: _inside(events.get(name, []), fits) for name in _FIT_PHASES}
    seconds = {name: sum(e[1] for e in phase[name]) for name in _FIT_PHASES}
    fit_s = _total(events, "core.fit")
    tokens = sum(event[3] for event in phase["core.z_kernel"])
    return {
        "pipeline.imports_s": (imports, "s"),
        "pipeline.overhead_s": (build["wall_s"] - imports - stage_total - put, "s"),
        "synth.generate_s": (_total(events, "synth.generate"), "s"),
        "embedding.gel_filter_s": (_total(events, "embedding.gel_filter"), "s"),
        "embedding.sentences": (
            sum(event[3] for event in events["embedding.w2v_fit"]), "count"
        ),
        "corpus.featurise_s": (_total(events, "corpus.featurise"), "s"),
        "corpus.kept_recipes": (kept[-1], "count"),
        "core.fit_s": (fit_s, "s"),
        "core.z_kernel_s": (seconds["core.z_kernel"], "s"),
        "core.nw_posterior_s": (seconds["core.nw_posterior"], "s"),
        "core.nw_sample_s": (seconds["core.nw_sample"], "s"),
        "core.y_density_s": (seconds["core.y_density"], "s"),
        "core.loglik_s": (seconds["core.loglik"], "s"),
        "core.fit_other_s": (fit_s - sum(seconds.values()), "s"),
        "core.z_tokens_per_s": (tokens / seconds["core.z_kernel"], "1/s"),
        "core.nw_sample_calls": (len(phase["core.nw_sample"]), "count"),
        "core.nw_posterior_calls": (len(phase["core.nw_posterior"]), "count"),
        "core.linker_s": (_total(events, "core.linker"), "s"),
        "artifacts.put_s": (put, "s"),
        "artifacts.written_mb": (_store_mb(store), "MB"),
        "bench.trace_overhead_ratio": (build["wall_s"] / reference_wall_s - 1.0, "ratio"),
    }


def _serve_start(start_events: list[dict]) -> dict:
    def median(name: str) -> float:
        return statistics.median(_total(events, name) for events in start_events)

    return {
        "artifacts.load_s": (median("artifacts.load"), "s"),
        "serve.bundle_load_s": (median("serve.bundle_load"), "s"),
        "serve.engine_init_s": (median("serve.engine_init"), "s"),
    }


def _transport_ms(handles: list, records: list[list[tuple]]) -> float:
    """Mean of (client latency - ``ServeApp.handle`` time) per request.

    Each keep-alive connection is served by one handler thread, so the
    handle calls of one server thread, in start order, are the requests
    of one client caller, in send order; the path sequences must agree.
    """
    by_thread: dict[int, list] = defaultdict(list)
    for event in handles:
        by_thread[event[2]].append(event)
    served = [sorted(group) for group in by_thread.values()]
    gaps = []
    for caller in records:
        paths = [request.path for request, *_ in caller]
        match = [group for group in served if [e[3] for e in group] == paths]
        if len(match) != 1:
            raise RuntimeError("server handle calls do not match a client connection")
        for (_, started, ended, _, _), event in zip(caller, match[0]):
            gaps.append((ended - started) - event[1])
    return statistics.fmean(gaps) * 1000.0


def _serve_traffic(events: dict[str, list], window: dict[str, Any], n_done: int) -> dict:
    start, end = window["start"], window["end"]
    timed = {
        name: [event for event in group if start <= event[0] <= end]
        for name, group in events.items()
    }
    api = [event for event in timed["serve.handle"] if event[3].startswith("/v1/")]
    texture = [event for event in api if event[3] == "/v1/texture"]

    submits: dict[int, list[float]] = defaultdict(list)
    for event in sorted(timed["serve.submit"]):
        submits[event[3]].append(event[0])
    waits = []
    for event in timed["serve.infer"]:
        submitted = max(t for t in submits[event[3]] if t <= event[0])
        waits.append(event[0] - submitted)

    before = window["before"]["metricz"]["metrics"].get("serve.batch_size", {})
    after = window["after"]["metricz"]["metrics"]["serve.batch_size"]
    batches = after["count"] - before.get("count", 0)
    return {
        "serve.handle_ms": (_mean_ms(texture), "ms"),
        "serve.parse_ms": (_mean_ms(timed["serve.parse"]), "ms"),
        "serve.queue_wait_ms": (statistics.fmean(waits) * 1000.0, "ms"),
        "serve.featurise_ms": (_mean_ms(timed["serve.featurise"]), "ms"),
        "serve.fold_in_ms": (_mean_ms(timed["serve.fold_in"]), "ms"),
        "serve.render_ms": (_mean_ms(timed["serve.render"]), "ms"),
        "serve.batch_size_mean": (
            (after["total"] - before.get("total", 0.0)) / batches, "count"
        ),
        "serve.term_profile_ms": (_mean_ms(timed["serve.term_profile"]), "ms"),
        "serve.transport_ms": (_transport_ms(api, window["records"]), "ms"),
        "bench.client_cpu_ms_per_req": (window["client_cpu_s"] * 1000.0 / n_done, "ms"),
    }


def _api(events: dict[str, list]) -> dict:
    estimates = len(events["api.estimate"])
    return {
        "core.estimate_posterior_ms": (_mean_ms(events["core.estimate_posterior"]), "ms"),
        "core.estimate_link_ms": (
            _total(events, "core.estimate_link") * 1000.0 / estimates, "ms"
        ),
    }


def per_layer(
    build: dict[str, Any],
    reference_wall_s: float,
    store: Path,
    start_events: list[dict],
    window: dict[str, Any],
    api_events: dict[str, list],
    n_done: int,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced session, as ``name -> (value, unit)``."""
    return {
        **_pipeline(build, reference_wall_s, store),
        **_serve_start(start_events),
        **_serve_traffic(start_events[-1], window, n_done),
        **_api(api_events),
    }
