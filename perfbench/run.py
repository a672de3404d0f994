#!/usr/bin/env python3
"""Benchmark of the morphlex CLI on three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported and
launched from ./src. One client process builds the workload's inputs
from --seed, then runs rounds of one CLI invocation each, one after the
other, each in a child process, for at most S seconds of whole rounds
(at least one). Every round's outputs are checked against an independent
reference (reference.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics, tracing overhead
included. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

import os

# One BLAS thread for this process and every child; set before numpy loads.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")

# A run must end within 180 s: no round starts that the last one says
# would end after this much time.
ROUND_END_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "items/s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """Handle on spawn.py, which starts every CLI invocation (see there why)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, out_dir: str, rnd) -> tuple[int, str, str]:
        """Run one CLI invocation to completion and record its wall time,
        CPU time and peak RSS on the round."""
        stdout_path = os.path.join(out_dir, "cli.stdout")
        stderr_path = os.path.join(out_dir, "cli.stderr")
        request = {
            "argv": argv, "env": child_env(), "cwd": ROOT,
            "stdout": stdout_path, "stderr": stderr_path, "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        rnd.wall_s, rnd.cpu_s, rnd.rss_mb = reply["wall_s"], reply["cpu_s"], reply["rss_mb"]
        rnd.invocations += 1
        with open(stdout_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(stderr_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return reply["code"], stdout, stderr

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def timed_setup(workload, seed: int, work: str) -> tuple[object, float, float]:
    """Build the world once: returns it, the set-up time and the part of
    that time spent inside the program's .vec writer."""
    writer_s = 0.0
    original = worlds.save_vec_file

    def timed_writer(*args, **kwargs):
        nonlocal writer_s
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            writer_s += time.perf_counter() - start

    worlds.save_vec_file = timed_writer
    try:
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        start = time.perf_counter()
        world = workload.build(seed, work)
        elapsed = time.perf_counter() - start
    finally:
        worlds.save_vec_file = original
    return world, elapsed, writer_s


def run_round(launcher, workload, world, expected, seed, index, traced, work, tag):
    out = os.path.join(work, f"round{index}{'t' if traced else ''}")
    os.makedirs(out)
    rnd = workloads.Round(traced=traced)
    args = workload.args(world, out, seed)
    prefix = os.path.join(out, "trace")
    if traced:
        argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), prefix, "--"] + args
    else:
        argv = [sys.executable, "-m", "morphlex.cli"] + args
    rnd.exit_code, stdout, stderr = launcher.run(argv, out, rnd)
    if rnd.exit_code != 0:
        rnd.failed += 1
        tail = " | ".join(stderr.strip().splitlines()[-3:])
        print(f"invocation failed with exit code {rnd.exit_code}: {tail}", file=sys.stderr)
        return rnd
    workload.check(world, expected, rnd, out, stdout)
    if traced:
        rnd.layers, rnd.missing = layers.from_trace(prefix)
        for suffix in (".npz", ".json"):
            shutil.copyfile(prefix + suffix, os.path.join(RESULTS, f"{tag}-spans{index}{suffix}"))
    return rnd


def startup_seconds(repeats: int = 5) -> float:
    """Interpreter start plus ``import morphlex.cli``: median of a few."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import morphlex.cli"], env=child_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(launcher: Launcher) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begun = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = os.path.join(WORK, args.workload)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS, exist_ok=True)

    setups = [timed_setup(workload, args.seed, work) for _ in range(workload.setup_repeats)]
    world = setups[-1][0]
    expected = workload.expect(world, workloads.make_reference(world))

    # Whole rounds only, and no round that the last one says would end
    # past the window: the run measures for at most --seconds (but always
    # at least one round), instead of overshooting by up to a round.
    rounds = []
    measuring = time.perf_counter()
    while True:
        index = len(rounds)
        started = time.perf_counter()
        for traced in (False, True) if trace else (False,):
            rounds.append(
                run_round(launcher, workload, world, expected, args.seed, index, traced, work, tag)
            )
        now = time.perf_counter()
        last = now - started
        if now + last - measuring > args.seconds or now + last - begun > ROUND_END_LIMIT_S:
            break
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.invocations + r.forms for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    hashes = sorted({r.sha256 for r in rounds if r.sha256})
    if len(hashes) > 1:
        problems.append(f"rounds of one seed wrote different outputs: {hashes}")
    plain = [r for r in rounds if not r.traced and r.exit_code == 0]
    traced = [r for r in rounds if r.traced and r.layers]

    metrics: dict = {}
    units = dict(layers.PER_LAYER) if trace else dict(END_TO_END)
    if plain and not trace:
        metrics = {
            "setup_s": statistics.median(s[1] for s in setups),
            "wall_s": statistics.median(r.wall_s for r in plain),
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "peak_rss_mb": max(r.rss_mb for r in plain),
            "throughput": statistics.median(r.items / r.wall_s for r in plain),
        }
    elif plain and traced:
        measured = {key: statistics.median(r.layers[key] for r in traced) for key in traced[0].layers}
        measured["trace.overhead_ratio"] = (
            statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain)
        )
        measured["cli.startup_s"] = startup_seconds()
        measured["embeddings.save_vec_file.s"] = statistics.median(s[2] for s in setups)
        metrics = {name: measured[name] for name in units}
        for name in traced[0].missing:
            print(f"trace: wrapped name {name} is missing; its layer reads 0", file=sys.stderr)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": sum(not r.traced for r in rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "invocations": sum(r.invocations for r in rounds),
        "source_forms": sum(r.forms for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "near_ties": sum(r.near_ties for r in rounds),
        "sha256": hashes,
        "precision_at_1": rounds[0].precision,
        "seed_nll": rounds[0].nll,
        "problems": problems[:50],
        "metrics": metrics,
    }
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {summary['rounds']} round(s), "
        f"{summary['invocations']} CLI invocations, {summary['source_forms']} source forms; "
        f"attempted {attempted}, failed {failed}, near-ties {summary['near_ties']}"
    )
    print(f"outputs sha256 {' '.join(hashes)}; P@1 {summary['precision_at_1']}; "
          f"seed NLL {summary['seed_nll']}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    if metrics and not trace:
        print(f"throughput counts {workload.items} per second of wall_s")
    if set(metrics) != set(units):
        print("error: not every metric could be measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


def import_program() -> bool:
    """Put the checkout's ./src first on the path and check morphlex loads from it."""
    sys.path[:0] = [SRC, HERE]
    import morphlex

    where = os.path.realpath(os.path.dirname(morphlex.__file__))
    if where != os.path.realpath(os.path.join(SRC, "morphlex")):
        print(f"error: imported morphlex from {where}, not from {SRC}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "morphlex", "cli.py")):
        print(f"error: no morphlex sources under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    # Started before numpy loads, so children inherit a small footprint.
    launcher = Launcher()
    code = 2
    try:
        if import_program():
            import layers  # noqa: E402
            import workloads  # noqa: E402
            import worlds  # noqa: E402
            code = main(launcher)
    finally:
        launcher.close()
    sys.exit(code)
