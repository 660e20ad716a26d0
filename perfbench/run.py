"""The repository's benchmark: one command, five workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table4-fused --seed 2022 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

``--trace 0`` measures with no tracing and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced units of work
and prints the per-layer metrics (see ``bench_trace``).

End-to-end times (``setup_s``, ``wall_s`` and ``work_per_s``) are
host-normalised: every timed program call is bracketed by a fixed
pure-Python probe loop (``bench_workloads.host_probe``) and rescaled to
the speed at which that probe takes ``PROBE_REFERENCE_S``.  A shared
2-vCPU host was seen to run the same code up to 1.9x slower for
minutes at a time; the probe follows that drift, no program change
moves it.  The times as measured are printed and recorded beside
them; per-layer times are as measured.  Metric names
and units come from ``BENCHMARK.json``; ``layer_map.json`` says which
end-to-end metric each per-layer number should move, on which
workload.  Human-readable lines (medians with quartiles and sample
counts, the host fingerprint, Table IV fidelity) come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record, spans
included, is written under ``perfbench/out/``.

Everything the benchmark writes stays under ``perfbench/out/``: the
native kernel cache, temporary files, checkpoints, result caches.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 5


def bootstrap() -> None:
    """Point imports at this checkout's ``src`` and keep every write
    inside ``perfbench/out``.

    ``repro.perf.workloads.TraceGenerator`` seeds its trace from
    ``hash(profile.name)``, which Python salts per process, so the
    Figure 6/7 inputs would differ between two runs at the same
    ``--seed``.  The benchmark fixes the salt (``PYTHONHASHSEED=0``) so
    that its inputs are a function of ``--seed`` alone.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_NATIVE_CACHE"] = str(OUT / "native-cache")
    # loopback workers are fresh interpreters: they need the path too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cc_version() -> str:
    try:
        done = subprocess.run(
            [os.environ.get("CC", "cc"), "--version"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return (done.stdout.splitlines() or ["unavailable"])[0]


def fingerprint() -> dict:
    import numpy

    from repro.engine import resolve_backend

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": _cc_version(),
        "backend_auto": resolve_backend("auto"),
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


# ----------------------------------------------------------------------
# measurements outside the timed loop
# ----------------------------------------------------------------------


def setup_samples(args, workload: str) -> list[tuple[float, float]]:
    """Process start until the first unit is ready, measured on fresh
    interpreters (import, backend resolve with a warm native cache,
    design points and engines, or profiles); each as (seconds, host
    probe seconds around it)."""
    from bench_workloads import host_probe

    samples = []
    for _ in range(SETUP_RUNS):
        before = host_probe()
        start = perf_counter()
        child = subprocess.Popen(
            [
                sys.executable, str(HERE / "run.py"), "--setup-only",
                "--workload", workload, "--seed", str(args.seed),
                "--scale", repr(args.scale),
            ],
            stdout=subprocess.PIPE, text=True,
        )
        line = child.stdout.readline()
        seconds = perf_counter() - start
        child.stdout.close()
        if child.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up run for {workload} failed")
        samples.append((seconds, (before + host_probe()) / 2))
    return samples


def at_reference_speed(samples) -> list[float]:
    """(seconds, host probe seconds) samples rescaled to the speed at
    which the probe takes ``PROBE_REFERENCE_S``."""
    from bench_workloads import PROBE_REFERENCE_S

    return [seconds * PROBE_REFERENCE_S / probe for seconds, probe in samples]


_COMPILE = """\
import sys, time
from repro.engine.cc import load_library
start = time.perf_counter()
ok = load_library() is not None
print(time.perf_counter() - start if ok else -1.0)
"""


def compile_seconds() -> float:
    """A cold native kernel build into a fresh directory (paid once
    per host); 0.0 when the toolchain is missing."""
    cache = OUT / "tmp" / f"cold-native-{os.getpid()}"
    env = dict(os.environ, REPRO_NATIVE_CACHE=str(cache))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _COMPILE],
            env=env, capture_output=True, text=True, timeout=170, check=True,
        )
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return max(0.0, float(done.stdout.strip().splitlines()[-1]))


@contextlib.contextmanager
def counting_requeues(counter: dict):
    """Count every lease the coordinator's queue hands out again
    (worker failure, lost worker, expired lease): each is a failed
    operation.  Counts only; adds no timing."""
    from repro.distribute.queue import ChunkQueue

    originals = {}
    for attr in ("requeue", "release_worker", "reap_expired"):
        original = originals[attr] = getattr(ChunkQueue, attr)

        def counted(self, *args, _original=original):
            before = self.requeues
            try:
                return _original(self, *args)
            finally:
                counter["requeues"] += self.requeues - before

        setattr(ChunkQueue, attr, counted)
    try:
        yield
    finally:
        for attr, original in originals.items():
            setattr(ChunkQueue, attr, original)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def run_workload(args, name: str) -> dict:
    from bench_workloads import DEFAULT_SEED, WORKLOADS, fidelity, host_probe, load_pins

    spec = load_spec()
    workdir = OUT / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](args.seed, args.scale, workdir)
    tracer = None
    failures = {"requeues": 0}
    checks: list[tuple[str, bool, str]] = []
    try:
        start = perf_counter()
        workload.prepare()
        own_setup = perf_counter() - start
        setups = [] if args.trace else setup_samples(args, name)
        workload.prime()
        if args.trace:
            from bench_layers import register
            from bench_trace import Tracer

            tracer = Tracer()
            register(tracer)
        guard = (
            counting_requeues(failures)
            if workload.campaign
            else contextlib.nullcontext()
        )
        walls, traced = [], []
        parts: dict[str, list[tuple[float, float]]] = {}
        first = None
        with guard:
            deadline = perf_counter() + args.seconds
            index = 0
            while True:
                tracing = tracer is not None and index % 2 == 1
                # Each unit starts from a collected heap, as a fresh call
                # would, not with the previous unit's garbage pending.
                gc.collect()
                if tracing:
                    tracer.unit = index
                    tracer.install()
                probe = host_probe()
                begin = perf_counter()
                try:
                    work, signature, calls = workload.unit()
                finally:
                    wall = perf_counter() - begin
                    if tracing:
                        tracer.uninstall()
                if calls is None:
                    calls = {"unit": (wall, (probe + host_probe()) / 2)}
                else:
                    # the probes bracketing each call ran inside the unit
                    wall -= sum(2 * probe for _, probe in calls.values())
                (traced if tracing else walls).append(wall)
                if not tracing:
                    for call, sample in calls.items():
                        parts.setdefault(call, []).append(sample)
                if first is None:
                    first, first_work = signature, work
                else:
                    checks.append(
                        (f"repeat {index} identical", signature == first, "")
                    )
                index += 1
                enough = len(walls) >= 2 if tracer is None else len(traced) >= 1
                if enough and perf_counter() >= deadline:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks += workload.checks(first)
        pins = load_pins()
        if args.seed == DEFAULT_SEED and args.scale == 1.0 and name in pins:
            checks.append(
                ("pinned at the default seed", first == pins[name], "pins.json")
            )
        gap, points = fidelity(workload.last_table) if workload.table4 else (0.0, [])
    finally:
        workload.close()

    attempted = len(walls) + len(traced) + len(checks) + failures["requeues"]
    failed = sum(1 for _, ok, _ in checks if not ok) + failures["requeues"]
    values: dict[str, float] = {}
    spread: dict[str, dict] = {}
    raw = None

    def put(metric: str, samples: list[float]) -> None:
        q1, median, q3 = quartiles(samples)
        values[metric] = median
        spread[metric] = {"q1": q1, "median": median, "q3": q3, "n": len(samples)}

    if tracer is None:
        # Each unit's time is the sum of its program calls, every call
        # rescaled by the host probe taken around it.
        put("setup_s", at_reference_speed(setups))
        put(
            "wall_s",
            [sum(unit) for unit in zip(*map(at_reference_speed, parts.values()))],
        )
        values["work_per_s"] = first_work / values["wall_s"]
        raw = {
            "setup_s": statistics.median(seconds for seconds, _ in setups),
            "wall_s": statistics.median(
                sum(seconds for seconds, _ in unit) for unit in zip(*parts.values())
            ),
            "host_probe_s": statistics.median(
                probe for series in parts.values() for _, probe in series
            ),
        }
        put("peak_rss_mb", [peak_rss_mb])
        wanted = spec["end_to_end"]
    else:
        from bench_layers import layer_metrics

        units = len(traced)
        values.update(layer_metrics(tracer, units))
        trace_wall = sum(traced) / units
        values["trace.wall_s"] = trace_wall
        values["trace.overhead_s"] = trace_wall - sum(walls) / len(walls)
        values["unattributed_s"] = trace_wall - sum(
            values[f"self.{layer}_s"] for layer in tracer.layer_self
        )
        values["engine.compile_s"] = compile_seconds()
        values["campaign_trials"] = first_work if workload.campaign else 0
        values["paper_gap_pp"] = gap
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": int(args.trace),
        "host": fingerprint(),
        "own_setup_s": own_setup,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "spread": spread,
        "checks": [
            {"check": check, "ok": ok, "detail": detail}
            for check, ok, detail in checks
        ],
        "paper_gap_pp": gap,
        "fidelity": points,
        "raw": raw,
        "untraced_walls_s": walls,
        "call_seconds": parts,
        "traced_walls_s": traced,
    }
    if tracer is not None:
        record["trace_dump"] = tracer.dump()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    report(record)
    return record


def report(record: dict) -> None:
    from bench_workloads import PROBE_REFERENCE_S

    print(
        f"# perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']} "
        f"scale={record['scale']}"
    )
    print(f"# host {json.dumps(record['host'], sort_keys=True)}")
    for name, metric in record["metrics"].items():
        line = f"{name:28s} {metric['value']:>14.6g} {metric['unit']}"
        spread = record["spread"].get(name)
        if spread is not None:
            line += (
                f"   units: median {spread['median']:.6g}  "
                f"q1 {spread['q1']:.6g}  q3 {spread['q3']:.6g}  n={spread['n']}"
            )
        print(line)
    if record["raw"]:
        raw = record["raw"]
        print(
            f"# as measured, not rescaled: setup_s {raw['setup_s']:.6g} s, "
            f"wall_s {raw['wall_s']:.6g} s; host probe {raw['host_probe_s'] * 1e3:.3f} ms "
            f"(reference {PROBE_REFERENCE_S * 1e3:.3f} ms)"
        )
    print(
        f"# checks: {record['attempted']} attempted, {record['failed']} failed, "
        f"error_rate {record['error_rate']:.4g}"
    )
    for check in record["checks"]:
        if not check["ok"]:
            print(f"#   FAILED {check['check']}: {check['detail']}")
    if record["fidelity"]:
        print(
            f"# Table IV fidelity: paper_gap_pp {record['paper_gap_pp']:.4f} "
            f"(mean |measured - paper| MSED over {len(record['fidelity'])} points)"
        )
        for row in record["fidelity"]:
            lo, hi = row["ci95_pct"]
            verdict = "contains" if row["ci_contains_paper"] else "MISSES"
            print(
                f"#   {row['point']:9s} measured {row['measured_pct']:7.3f}% "
                f"[{lo:7.3f}, {hi:7.3f}] @95%  paper {row['paper_pct']:6.2f}%  "
                f"CI {verdict} paper  n={row['trials']}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload's size (smoke runs use a small one)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bootstrap()
    from bench_workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)} or all")
    if args.setup_only:
        workload = WORKLOADS[names[0]](args.seed, args.scale, OUT / "probe")
        workload.prepare()
        print("ready", flush=True)
        return 0
    records = [run_workload(args, name) for name in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{name}": metric
            for record in records
            for name, metric in record["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(record["correct"] for record in records),
                "attempted": sum(record["attempted"] for record in records),
                "failed": sum(record["failed"] for record in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
