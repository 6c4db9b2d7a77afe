"""Timing wrappers around the public calls of each ``repro`` layer.

The wrappers live here, not in the program: :func:`install` replaces
selected functions and methods with timed versions that append one
``[start, duration, thread, extra]`` event per call to a
:class:`Recorder`. Starts are ``time.monotonic()`` readings, which on
Linux is ``CLOCK_MONOTONIC`` and therefore comparable between the
benchmark and its child processes.

Roles select what a process wraps: ``run`` (the ``repro run`` child),
``serve`` (each ``repro serve`` child) and ``api`` (the benchmark's own
in-process API phase).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Recorder:
    """Per-name call events, safe to append from any thread."""

    def __init__(self) -> None:
        self.events: dict[str, list[list[Any]]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()

    def depth(self, name: str) -> int:
        """How many calls of ``name`` are open on this thread."""
        return getattr(self._local, "depth", {}).get(name, 0)

    def _enter(self, name: str) -> int:
        if not hasattr(self._local, "depth"):
            self._local.depth = {}
        depth = self._local.depth.get(name, 0)
        self._local.depth[name] = depth + 1
        return depth

    def _leave(self, name: str) -> None:
        self._local.depth[name] -= 1

    def add(self, name: str, start: float, duration: float, extra: Any) -> None:
        event = [start, duration, threading.get_ident(), extra]
        with self._lock:
            self.events[name].append(event)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(self.events), handle)


def _timed(
    recorder: Recorder,
    fn: Callable[..., Any],
    name: str,
    extra: Callable[[tuple, Any], Any] | None = None,
    within: str | None = None,
) -> Callable[..., Any]:
    """``fn`` timed under ``name``.

    Only the outermost call of ``name`` on a thread is recorded, so a
    kernel whose sweep calls an inner kernel's sweep counts once.
    ``within`` records only calls made inside an open call of another
    recorded name. ``extra(args, result)`` attaches a value to the event.
    """

    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        if within is not None and not recorder.depth(within):
            return fn(*args, **kwargs)
        if recorder._enter(name):
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._leave(name)
        start = time.monotonic()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = time.monotonic() - start
            recorder._leave(name)
            recorder.add(name, start, duration, extra(args, result) if extra else None)

    return timed


def _wrap(recorder: Recorder, owner: type, attr: str, name: str, **options: Any) -> None:
    """Time the method (or classmethod) ``owner.attr``."""
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_timed(recorder, raw.__func__, name, **options)))
    else:
        setattr(owner, attr, _timed(recorder, raw, name, **options))


def _wrap_function(recorder: Recorder, modules: list[Any], attr: str, name: str) -> None:
    """Time a module-level function under every name it was imported as."""
    timed = _timed(recorder, getattr(modules[0], attr), name)
    for module in modules:
        setattr(module, attr, timed)


def install(recorder: Recorder, role: str) -> None:
    """Install the wrappers for one role: ``run``, ``serve`` or ``api``."""
    if role == "run":
        _install_run(recorder)
    elif role == "serve":
        _install_serve(recorder)
    elif role == "api":
        _install_api(recorder)
    else:
        raise ValueError(f"unknown tracer role {role!r}")


def _stage_extra(args: tuple, result: Any) -> Any:
    stage = args[0]
    docs = getattr(result, "docs", None)
    return [stage.name, None if docs is None else len(docs)]


def _install_run(recorder: Recorder) -> None:
    from repro.artifacts import store
    from repro.core import joint_model, kernels, lda, linkage, normal_wishart
    from repro.embedding import gel_filter
    from repro.pipeline import stages

    layer_of = {
        stages.SynthCorpusStage: "synth.generate",
        stages.ShardedCorpusStage: "synth.generate",
        stages.GelFilterStage: "embedding.gel_filter",
        stages.ShardedGelFilterStage: "embedding.gel_filter",
        stages.BuildDatasetStage: "corpus.featurise",
        stages.ShardDatasetStage: "corpus.featurise",
        stages.MergeDatasetStage: "corpus.featurise",
        stages.FitModelStage: "stage.fit",
        stages.BuildLinkerStage: "stage.linker",
    }
    for cls, name in layer_of.items():
        _wrap(recorder, cls, "compute", name, extra=_stage_extra)
    _wrap(
        recorder, gel_filter.GelRelatednessFilter, "fit", "embedding.w2v_fit",
        extra=lambda args, result: len(args[1]),
    )
    _wrap(recorder, joint_model.JointTextureTopicModel, "fit", "core.fit")
    for cls in (
        kernels.LegacyKernel, kernels.DenseKernel, kernels.SparseKernel,
        kernels.AliasKernel, kernels.DistributedKernel,
    ):
        _wrap(
            recorder, cls, "sweep", "core.z_kernel",
            extra=lambda args, result: args[0].csr.n_tokens,
        )
    _wrap_function(recorder, [normal_wishart], "posterior", "core.nw_posterior")
    _wrap_function(recorder, [normal_wishart], "sample", "core.nw_sample")
    _wrap_function(
        recorder, [normal_wishart], "batch_log_density", "core.y_density"
    )
    _wrap_function(
        recorder, [lda, joint_model], "word_log_likelihood", "core.loglik"
    )
    _wrap(recorder, linkage.TopicLinker, "__init__", "core.linker")
    _wrap(recorder, store.ArtifactStore, "put", "artifacts.put")
    _wrap(recorder, store.ArtifactStore, "put_chunked", "artifacts.put")


def _install_serve(recorder: Recorder) -> None:
    from repro.artifacts import store
    from repro.serve import app, batch, engine, schemas

    _wrap(recorder, store.ArtifactStore, "load", "artifacts.load")
    _wrap(recorder, engine.ModelBundle, "load", "serve.bundle_load")
    _wrap(recorder, engine.InferenceEngine, "__init__", "serve.engine_init")
    _wrap(
        recorder, app.ServeApp, "handle", "serve.handle",
        extra=lambda args, result: args[2].partition("?")[0],
    )
    _wrap_function(recorder, [app], "validate_request", "serve.parse")
    _wrap(
        recorder, batch.MicroBatcher, "submit", "serve.submit",
        extra=lambda args, result: id(args[1]),
    )
    _wrap(
        recorder, engine.InferenceEngine, "infer", "serve.infer",
        extra=lambda args, result: id(args[1]),
    )
    _wrap(recorder, engine.InferenceEngine, "features_of", "serve.featurise")
    _wrap(recorder, engine.InferenceEngine, "fold_in", "serve.fold_in")
    _wrap(recorder, schemas.TextureResponse, "to_dict", "serve.render")
    _wrap(recorder, engine.InferenceEngine, "term_profile", "serve.term_profile")


def _install_api(recorder: Recorder) -> None:
    from repro.core import estimator, linkage

    _wrap(recorder, estimator.TextureEstimator, "estimate", "api.estimate")
    _wrap(
        recorder, estimator.TextureEstimator, "topic_posterior",
        "core.estimate_posterior",
    )
    _wrap(
        recorder, linkage.TopicLinker, "assignment_table", "core.estimate_link",
        within="api.estimate",
    )
