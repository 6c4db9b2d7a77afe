"""Build-and-serve session benchmark: ``repro run`` -> ``repro serve`` -> API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 1 --trace 0

One run is one session of four phases that never overlap:

1. a cold ``python -m repro run`` into an empty artifact store;
2. cold ``python -m repro serve`` starts on that store (the last one
   stays up);
3. closed-loop HTTP traffic from two threads, each with one keep-alive
   connection, over the workload's fixed request list;
4. the in-process Python API (``TextureEstimator``) on the same store.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
session with the run and serve children started through
``perfbench/launch.py`` (timing wrappers installed), plus one untraced
``repro run`` for the tracing overhead, and prints the per-layer
metrics. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent))

#: Server starts per session; ``setup_s`` is their median.
SETUP_STARTS = 3
#: Texture requests re-sent for the determinism check and replayed
#: through the in-process engine for the batched-equals-sequential check.
SAMPLE_CHECKS = 20
#: API estimates per session, cycling over the held-out pool.
ESTIMATES = 500
#: The served fold-in settings (``repro serve`` defaults).
FOLD_IN_SWEEPS = 48
START_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


# -- children ---------------------------------------------------------------


class Children:
    """Every process the session starts, so each is stopped and reaped."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.procs: list[subprocess.Popen] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self._n = 0

    def command(self, args: list[str], role: str, traced: bool) -> tuple[list[str], Path | None]:
        if not traced:
            return [sys.executable, "-m", "repro", *args], None
        self._n += 1
        events = self.work / f"events-{role}-{self._n}.json"
        launcher = str(BENCH_DIR / "launch.py")
        return [sys.executable, launcher, str(events), role, "--", *args], events

    def popen(self, cmd: list[str], **kwargs: Any) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, **kwargs)
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()


def run_build(children: Children, args: list[str], traced: bool) -> dict[str, Any]:
    """One ``repro run`` child: wall time, peak RSS and (traced) its events."""
    cmd, events = children.command(["run", *args], "run", traced)
    with open(children.work / "run.log", "ab") as out:
        launched = time.monotonic()
        proc = children.popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro run exited {proc.returncode}; see {children.work / 'run.log'}:\n"
            + (children.work / "run.log").read_text()[-2000:]
        )
    return {
        "launched": launched,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "events": json.loads(events.read_text()) if events else None,
    }


def http_get(port: int, path: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, children: Children, store: Path, traced: bool) -> None:
        cmd, self.events_path = children.command(
            ["serve", "--cache-dir", str(store), "--port", "0",
             "--fold-in-sweeps", str(FOLD_IN_SWEEPS)],
            "serve", traced,
        )
        self.stderr = open(children.work / "serve.log", "ab")
        launched = time.monotonic()
        self.proc = children.popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr)
        line = self._read_line(launched + START_TIMEOUT_S)
        match = re.search(rb"http://[\d.]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not announce a port: {line!r}")
        self.port = int(match.group(1))
        while True:
            try:
                status, body = http_get(self.port, "/healthz")
            except OSError:
                status = 0
            if status == 200:
                break
            if time.monotonic() > launched + START_TIMEOUT_S:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.monotonic() - launched
        self.health = json.loads(body)
        self.events: dict[str, list] | None = None

    def _read_line(self, deadline: float) -> bytes:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        data = b""
        while b"\n" not in data:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError("repro serve did not start in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"repro serve exited during start-up (code {self.proc.wait()})"
                )
            data += chunk
        return data

    def cpu_seconds(self) -> float:
        """utime + stime of the server process."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.stderr.close()
        if code != 0:
            raise RuntimeError(f"repro serve exited {code} on SIGTERM")
        if self.events_path is not None:
            self.events = json.loads(self.events_path.read_text())


# -- traffic ----------------------------------------------------------------


def send(conn: http.client.HTTPConnection, request: Any) -> tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if request.body else {}
    conn.request(request.method, request.path, body=request.body or None, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def traffic(
    port: int, warmup: list, timed: list, min_seconds: float, probe: Any
) -> dict[str, Any]:
    """Closed loop: two callers, each on one keep-alive connection.

    Caller ``i`` sends requests ``i, i+2, ...`` of each list, each only
    after the previous reply. Warm-up requests finish before the timed
    window opens. The window repeats whole rounds of ``timed`` until it
    has lasted ``min_seconds``. ``probe()`` is read just before the
    window opens and just after it closes.
    """
    n_callers = 2
    ready = threading.Barrier(n_callers + 1)
    go = threading.Barrier(n_callers + 1)
    window: dict[str, Any] = {"more": True}

    def decide() -> None:
        window["more"] = time.monotonic() - window["start"] < min_seconds

    round_end = threading.Barrier(n_callers, action=decide)
    records: list[list[tuple]] = [[] for _ in range(n_callers)]
    warm_records: list[list[tuple]] = [[] for _ in range(n_callers)]
    errors: list[BaseException] = []

    def caller(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

        def one(request: Any, sink: list) -> None:
            nonlocal conn
            started = time.monotonic()
            try:
                status, body = send(conn, request)
            except (OSError, http.client.HTTPException):
                conn.close()
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
                )
                status, body = -1, b""
            sink.append((request, started, time.monotonic(), status, body))

        try:
            for request in warmup[index::n_callers]:
                one(request, warm_records[index])
            ready.wait()
            go.wait()
            mine = timed[index::n_callers]
            while True:
                for request in mine:
                    one(request, records[index])
                round_end.wait()
                if not window["more"]:
                    break
        except BaseException as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)
            for barrier in (ready, go, round_end):
                barrier.abort()
        finally:
            conn.close()

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(n_callers)]
    for thread in threads:
        thread.start()
    try:
        ready.wait()
        window["before"] = probe()
        window["cpu_before"] = time.process_time()
        window["start"] = time.monotonic()
        go.wait()
    except threading.BrokenBarrierError:
        pass
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    window["after"] = probe()
    flat = [record for per_caller in records for record in per_caller]
    window["end"] = max(record[2] for record in flat)
    window["client_cpu_s"] = time.process_time() - window["cpu_before"]
    window["records"] = records
    window["warm_records"] = [r for per_caller in warm_records for r in per_caller]
    return window


# -- the session ------------------------------------------------------------


class Ops:
    """Operations attempted and failed: requests, estimates, output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def iter_recipes(corpus: Any) -> Any:
    if hasattr(corpus, "iter_shards"):
        for shard in corpus.iter_shards():
            yield from shard.recipes
    else:
        yield from corpus.recipes


def session(workload: Any, seed: int, min_seconds: float, trace: bool, work: Path) -> dict:
    from perfbench import checks, tracer
    from perfbench.workloads import heldout_recipes, repeat_share, request_lists, texture_body
    from repro.artifacts.store import ArtifactStore
    from repro.core.estimator import TextureEstimator
    from repro.pipeline.stages import BuildDatasetStage, ShardedCorpusStage, SynthCorpusStage
    from repro.serve import FoldInConfig, InferenceEngine, ModelBundle
    from repro.serve.engine import validate_request

    ops = Ops()
    metrics: dict[str, tuple[float, str]] = {}
    children = Children(work)
    recipes = heldout_recipes(workload, seed)
    store = work / "store"
    try:
        if trace:
            reference = run_build(
                children, workload.run_args(seed) + ["--cache-dir", str(work / "ref")], False
            )
            shutil.rmtree(work / "ref")
        build = run_build(
            children,
            workload.run_args(seed) + ["--cache-dir", str(store), "--json", str(work / "run.json")],
            trace,
        )
        manifest = json.loads((work / "run.json").read_text())
        log(f"repro run {build['wall_s']:.2f}s peak {build['peak_rss_mb']:.0f} MB")

        artifacts = ArtifactStore(store)
        stage_fp = {name: rec["fingerprint"] for name, rec in manifest["stages"].items()}
        dataset, _ = artifacts.load(BuildDatasetStage(), stage_fp["build-dataset"])
        corpus_stage = ShardedCorpusStage() if workload.shards > 1 else SynthCorpusStage()
        corpus, _ = artifacts.load(corpus_stage, stage_fp["synth-corpus"])
        vocabulary = frozenset(dataset.vocabulary)
        truth = [corpus.truth_of(rid).gel_band for rid in dataset.recipe_ids]
        training = {texture_body(r) for r in iter_recipes(corpus)}
        if any(texture_body(recipe) in training for recipe, _ in recipes):
            raise RuntimeError("a held-out recipe repeats a training recipe")
        warmup, timed = request_lists(workload, seed, recipes, sorted(vocabulary))
        log(f"{len(timed)} timed requests, texture repeat share {repeat_share(timed):.3f}")

        # -- phase 2: cold starts; the last server stays up for traffic ----
        servers_events = []
        setups = []
        for start in range(SETUP_STARTS):
            server = Server(children, store, trace)
            setups.append(server.setup_s)
            if start < SETUP_STARTS - 1:
                server.stop()
                servers_events.append(server.events)
        log("setup " + ", ".join(f"{s:.3f}" for s in setups) + " s")

        # -- phase 3: closed-loop traffic ------------------------------------
        ops.record(
            [] if server.health["model"]["fingerprint"] == manifest["experiment"]
            else ["/healthz fingerprint differs from the run manifest"]
        )
        ok_threshold = float(server.health["model"]["fold_in"]["ok_threshold"])

        def probe() -> dict[str, Any]:
            return {
                "cpu_s": server.cpu_seconds(),
                "metricz": json.loads(http_get(server.port, "/metricz")[1]) if trace else None,
            }

        window = traffic(server.port, warmup, timed, min_seconds, probe)
        serve_rss = server.peak_rss_mb()

        answers: dict[Any, list[Any]] = {}
        latencies: dict[str, list[float]] = {"texture": [], "term": []}
        for request, _, _, status, body in window["warm_records"]:
            ops.record([] if status == 200 else [f"warm-up {request.path}: HTTP {status}"])
        flat = [record for per_caller in window["records"] for record in per_caller]
        for request, started, ended, status, body in flat:
            if status != 200:
                ops.record([f"{request.path}: HTTP {status}"])
                continue
            payload = json.loads(body)
            if request.kind == "texture":
                problems = checks.check_texture_response(payload, ok_threshold, vocabulary)
                answers.setdefault(request.key, []).append(payload)
            else:
                problems = checks.check_term_response(payload, request.key)
            ops.record(problems)
            latencies[request.kind].append((ended - started) * 1000.0)
        n_done = len(latencies["texture"]) + len(latencies["term"])
        ops.record(
            [] if all(all(a == group[0] for a in group) for group in answers.values())
            else ["repeated texture requests got different answers"]
        )

        # Determinism: re-send a sample of timed texture requests.
        sample = []
        for request in timed:
            if request.kind == "texture" and request.key in answers and request not in sample:
                sample.append(request)
            if len(sample) == SAMPLE_CHECKS:
                break
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=REQUEST_TIMEOUT_S)
        try:
            for request in sample:
                status, body = send(conn, request)
                ops.record(
                    [] if status == 200 and json.loads(body) == answers[request.key][0]
                    else [f"re-sent texture request {request.key} answered differently"]
                )
        finally:
            conn.close()
        server.stop()
        servers_events.append(server.events)

        # -- phase 4: in-process API on the same store -----------------------
        bundle = ModelBundle.load(ArtifactStore(store))
        engine = InferenceEngine(
            bundle, config=FoldInConfig(n_sweeps=FOLD_IN_SWEEPS, burn_in=FOLD_IN_SWEEPS // 3)
        )
        for request in sample:
            local = json.loads(json.dumps(engine.infer(validate_request(request.body)).to_dict()))
            ops.record(
                [] if local == answers[request.key][0]
                else [f"HTTP answer {request.key} differs from InferenceEngine.infer"]
            )
        recorder = tracer.Recorder()
        if trace:
            tracer.install(recorder, "api")
        estimator = TextureEstimator(bundle)
        estimate_ms = []
        for index in range(ESTIMATES):
            recipe = recipes[index % workload.pool][0]
            started = time.monotonic()
            estimate = estimator.estimate(recipe)
            estimate_ms.append((time.monotonic() - started) * 1000.0)
            ops.record(
                checks.check_distribution(
                    [float(p) for p in estimate.topic_distribution], estimate.topic, "estimate"
                )
            )

        topic_nmi = checks.nmi(list(bundle.model.topic_assignments()), truth)
        ops.record(
            [] if topic_nmi >= checks.TOPIC_NMI_FLOOR
            else [f"topic_nmi {topic_nmi:.3f} below {checks.TOPIC_NMI_FLOOR}"]
        )
        served = sorted(answers)
        heldout_nmi = checks.nmi(
            [answers[key][0]["topic"] for key in served],
            [recipes[key][1].gel_band for key in served],
        )
        ops.record(
            [] if heldout_nmi >= checks.HELDOUT_NMI_FLOOR
            else [f"heldout_nmi {heldout_nmi:.3f} below {checks.HELDOUT_NMI_FLOOR}"]
        )
        span = window["end"] - window["start"]
        log(
            f"traffic {n_done} requests in {span:.2f}s; topic_nmi {topic_nmi:.3f} "
            f"heldout_nmi {heldout_nmi:.3f}"
        )

        if not trace:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "pipeline_s": (build["wall_s"], "s"),
                "pipeline_peak_rss_mb": (build["peak_rss_mb"], "MB"),
                "topic_nmi": (topic_nmi, "ratio"),
                "serve_requests_per_s": (n_done / span, "1/s"),
                "texture_p50_ms": (percentile(latencies["texture"], 50), "ms"),
                "texture_p99_ms": (percentile(latencies["texture"], 99), "ms"),
                "terms_p50_ms": (percentile(latencies["term"], 50), "ms"),
                "serve_cpu_ms_per_req": (
                    (window["after"]["cpu_s"] - window["before"]["cpu_s"]) * 1000.0 / n_done,
                    "ms",
                ),
                "serve_peak_rss_mb": (serve_rss, "MB"),
                "heldout_nmi": (heldout_nmi, "ratio"),
                "estimate_p50_ms": (statistics.median(estimate_ms), "ms"),
            }
        else:
            from perfbench.layers import per_layer

            metrics = per_layer(
                build=build,
                reference_wall_s=reference["wall_s"],
                store=store,
                start_events=servers_events,
                window=window,
                api_events=recorder.events,
                n_done=n_done,
            )
    finally:
        children.stop_all()
    return {"ops": ops, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        log(f"no repro source tree at {ROOT / 'src'}; run from a checkout root")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    import repro

    if not Path(repro.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        log(f"imported repro from {repro.__file__}, not from this checkout")
        return 2
    print(
        f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__}",
        flush=True,
    )
    import compileall

    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = session(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except Exception:  # noqa: BLE001 - any failure ends the run without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    ops = result["ops"]
    for problem in ops.problems[:20]:
        log(f"FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
