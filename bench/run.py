"""End-to-end benchmark of the bimvec CLI on generated building inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run generates the workload's inputs, then repeats
whole rounds of CLI commands (parse, graph, snapshot, embed, query, predict)
for about ``--seconds``, checks every command's output, and reports the
end-to-end metrics: each command's median time, its start-up corrected by a
reference task timed next to it (see ``corrected`` and ``summarize``). With
``--trace 1`` it
runs one untraced CLI round and then repeats an in-process round that calls
each module's public functions inside spans (see ``layers.py``), reporting
the per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The CLI runs from the working tree: ``python -m bimvec.cli`` with ``src/`` of
this checkout on ``PYTHONPATH``, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
MIN_ROUNDS = 2
# The reference task timed next to every timed step: a fresh interpreter
# that imports numpy and nothing of the checkout, i.e. the kind of start-up
# every CLI command begins with. Each step's reported time is its wall time
# less the reference's excess over REFERENCE_S, its median on the machine of
# the README's figures (see ``corrected``).
REFERENCE_ARGV = [sys.executable, "-c", "import numpy"]
REFERENCE_S = 0.15
COMMANDS = ("parse", "graph", "snapshot", "embed", "query", "predict")
COMMAND_TIMEOUT_S = 120

sys.path.insert(0, BENCH_DIR)
import checks  # noqa: E402
import gen  # noqa: E402

# Embed settings per workload, seeds included: the run's --seed varies the
# inputs, not the training. quickstart keeps the README's dimension, window,
# walk length and seeds with fewer walks and one epoch (see README.md); the
# generated workloads train lightly, at a high learning rate, so that their
# heavy layers show and their cells still separate by space.
WORKLOADS = {
    "quickstart": {
        "embed_from": "store",
        "embed": {"dimension": 64, "walk-length": 80, "walks-per-node": 2,
                  "window": 10, "epochs": 1, "walk-seed": 7, "train-seed": 7},
        "repeats": {"parse": 3, "graph": 3, "snapshot": 3, "embed": 1},
        "queries": 4, "predicts": 3, "k": 5, "predict_k": 2,
    },
    "tower-timeline": {
        "embed_from": "store",
        "embed": {"dimension": 8, "walk-length": 5, "walks-per-node": 2,
                  "window": 2, "negatives": 2, "epochs": 1, "initial-lr": 0.5,
                  "walk-seed": 7, "train-seed": 7},
        "repeats": {"parse": 3, "graph": 3, "snapshot": 1, "embed": 1},
        "queries": 6, "predicts": 4, "k": 10, "predict_k": 5,
    },
    "campus-static": {
        "embed_from": "graph",
        "embed": {"dimension": 8, "walk-length": 4, "walks-per-node": 1,
                  "window": 2, "negatives": 2, "epochs": 1, "initial-lr": 1.0,
                  "p": 1.0, "q": 0.5, "walk-seed": 7, "train-seed": 7},
        "repeats": {"parse": 3, "graph": 2, "snapshot": 2, "embed": 1},
        "queries": 3, "predicts": 2, "k": 10, "predict_k": 5,
    },
}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    if workload == "quickstart":
        return gen.quickstart(out_dir, os.path.join(ROOT, "tests", "data"))
    if workload == "tower-timeline":
        return gen.tower(out_dir, seed)
    return gen.campus(out_dir, seed)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_process(argv: list[str], out_path: str, env: dict | None = None
                ) -> tuple[int, float, float]:
    """Run one command (by default with the checkout's src/ on PYTHONPATH)
    to completion, killing it after COMMAND_TIMEOUT_S; return (exit code,
    wall s, peak RSS MB)."""
    with open(out_path, "w", encoding="utf-8") as out, \
            open(out_path + ".err", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=cli_env() if env is None else env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def reference_s() -> float:
    """Wall time of one run of the reference task."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    code, wall, _ = run_process(REFERENCE_ARGV, os.path.join(WORK, "reference.out"), env)
    if code != 0:
        raise SystemExit("the reference task failed: " + " ".join(REFERENCE_ARGV))
    return wall


def corrected(wall: float, before: float, after: float) -> float:
    """A step's wall time with its start-up taken at the nominal speed: the
    time of interpreter start-up and imports drifts by a third within
    minutes on a shared machine, and the reference runs just before and
    after the step drift with it. The rest of the step is left as measured."""
    return wall - (before + after) / 2 + REFERENCE_S


def setup(workload: str, seed: int) -> tuple[dict, float]:
    """Generate and write the inputs and warm the module cache; repeated,
    and timed each time. Returns the last inputs and the median corrected
    time."""
    times = []
    before = reference_s()
    for repeat in range(SETUP_REPEATS):
        target = os.path.join(WORK, f"inputs{repeat}")
        start = time.perf_counter()
        inputs = generate(workload, seed, target)
        code, _, _ = run_process([sys.executable, "-c", "import bimvec.cli"],
                                 os.path.join(WORK, "warm.out"))
        wall = time.perf_counter() - start
        if code != 0:
            raise SystemExit("cannot import bimvec.cli from src/")
        after = reference_s()
        times.append(corrected(wall, before, after))
        before = after
    return inputs, statistics.median(times)


def plan_round(workload: str, seed: int, inputs: dict, round_dir: str) -> list[dict]:
    """The round's commands in chain order, each with its output path where
    it writes one; parse, graph, snapshot and embed repeat as the workload
    says, and each command reads the last output of the one before."""
    spec = WORKLOADS[workload]
    paths = inputs["paths"]
    cli = [sys.executable, "-m", "bimvec.cli"]
    plan = [{"name": "parse", "argv": cli + ["parse", paths["ifc"]]}
            for _ in range(spec["repeats"]["parse"])]
    for i in range(spec["repeats"]["graph"]):
        graph_path = os.path.join(round_dir, f"graph{i}.tsv")
        plan.append({"name": "graph", "out": graph_path, "argv": cli + [
            "graph", paths["ifc"], "--footprints", paths["footprints"],
            "--sensors", paths["sensors"], "--cell-size", str(inputs["cell_size"]),
            "--out", graph_path]})
    for i in range(spec["repeats"]["snapshot"]):
        store = os.path.join(round_dir, f"store{i}")
        plan.append({"name": "snapshot", "out": store, "argv": cli + [
            "snapshot", graph_path, "--readings", paths["readings"],
            "--fixes", paths["fixes"], "--step", str(inputs["step"]), "--out", store]})
    embed_input = [store, "--flatten", "union"] if spec["embed_from"] == "store" \
        else [graph_path]
    for i in range(spec["repeats"]["embed"]):
        emb = os.path.join(round_dir, f"emb{i}")
        plan.append({"name": "embed", "out": emb, "argv": cli + ["embed"] + embed_input + [
            "--out", emb] + [f"--{key}={value}" for key, value in spec["embed"].items()]})
    checkpoint = os.path.join(emb, "checkpoint.bin")
    picks = gen.pick_cells(inputs["spaces"], seed, spec["queries"] + spec["predicts"])
    for node in picks[:spec["queries"]]:
        plan.append({"name": "query", "node": node, "argv": cli + [
            "query", checkpoint, node, "-k", str(spec["k"]), "--filter", "CELL"]})
    for node in picks[spec["queries"]:]:
        plan.append({"name": "predict", "node": node, "argv": cli + [
            "predict", checkpoint, node, "--labels", paths["labels"],
            "-k", str(spec["predict_k"])]})
    return plan


def check_round(workload: str, inputs: dict, plan: list[dict],
                results: list[dict]) -> float | None:
    """Attach each command's problems to its result; return the round's
    community margin when the embedding could be read."""
    spec = WORKLOADS[workload]
    expected = inputs["expected"]
    emb = None
    margin = None
    labels = checks.read_labels(inputs["paths"]["labels"])
    for step, result in zip(plan, results):
        if result["code"] != 0:
            result["problems"] = [f"exit code {result['code']}"]
            continue
        with open(result["stdout"], encoding="utf-8") as fp:
            stdout = fp.read()
        name = step["name"]
        try:
            if name == "parse":
                problems = checks.check_parse(stdout, expected)
            elif name == "graph":
                problems = checks.check_graph(stdout, expected)
            elif name == "snapshot":
                problems = checks.check_store(step["out"], expected)
            elif name == "embed":
                emb = checks.Embedding(step["out"])
                problems = emb.problems()
                margin = emb.community_margin()
                if workload == "quickstart" and not margin > 0:
                    problems.append(f"community margin {margin:.4f} is not positive")
            elif emb is None:
                problems = ["no embedding to check against"]
            elif name == "query":
                problems = checks.check_query(stdout, emb, step["node"], spec["k"], "CELL")
            else:
                problems = checks.check_predict(stdout, emb, labels, step["node"],
                                                spec["predict_k"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        result["problems"] = problems
    return margin


def cli_round(workload: str, seed: int, inputs: dict) -> tuple[list, float | None]:
    round_dir = os.path.join(WORK, "round")
    shutil.rmtree(round_dir, ignore_errors=True)
    os.makedirs(round_dir)
    plan = plan_round(workload, seed, inputs, round_dir)
    results = []
    before = reference_s()
    for i, step in enumerate(plan):
        stdout = os.path.join(round_dir, f"{i:02d}-{step['name']}.out")
        code, wall, rss = run_process(step["argv"], stdout)
        after = reference_s()
        results.append({"name": step["name"], "code": code, "wall": wall,
                        "corrected": corrected(wall, before, after), "rss": rss,
                        "stdout": stdout})
        before = after
    margin = check_round(workload, inputs, plan, results)
    return results, margin


def command_medians(rounds: list[list[dict]], key: str) -> dict[str, float]:
    """Median ``key`` time ("wall" or "corrected") of each command over the
    rounds' invocations of it. Their sum is one pass of the chain with one
    query and one predict."""
    return {name: statistics.median(r[key] for results in rounds for r in results
                                    if r["name"] == name)
            for name in COMMANDS}


def summarize(rounds: list[list[dict]], margins: list[float], setup_s: float) -> dict:
    """Each command time is the median corrected time over the run's
    invocations of that command, and pipeline_s the sum of those medians."""
    medians = command_medians(rounds, "corrected")
    metrics = {"setup_s": (setup_s, "s"), "pipeline_s": (sum(medians.values()), "s")}
    metrics.update((f"{name}_s", (value, "s")) for name, value in medians.items())
    metrics["peak_rss_mb"] = (max(r["rss"] for results in rounds for r in results), "MB")
    # A run whose embed never produced vectors has failed operations already;
    # 0 keeps the result valid JSON.
    metrics["community_margin"] = (statistics.median(margins) if margins else 0.0,
                                   "cosine")
    return metrics


def another_round(elapsed: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean round so far, still ends
    within the run's ``seconds``."""
    return elapsed * (done + 1) / done <= seconds


def report(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bimvec", "cli.py")):
        print(f"error: no bimvec sources under {SRC}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> None:
    """One run of one workload; its last line of output is the result."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    inputs, setup_s = setup(workload, seed)
    print(f"# {workload} seed {seed}: expected {json.dumps(inputs['expected'])}")

    rounds, margins = [], []
    start = time.perf_counter()
    if trace:
        sys.path.insert(0, SRC)
        import layers
        results, _ = cli_round(workload, seed, inputs)
        rounds.append(results)
        traced = layers.run(workload, seed, inputs, WORKLOADS[workload], WORK,
                            seconds - (time.perf_counter() - start),
                            sum(command_medians(rounds, "wall").values()), cli_env(),
                            another_round)
        metrics = traced.metrics
    else:
        traced = None
        while len(rounds) < MIN_ROUNDS or another_round(time.perf_counter() - start,
                                                        len(rounds), seconds):
            results, margin = cli_round(workload, seed, inputs)
            rounds.append(results)
            if margin is not None:
                margins.append(margin)
        metrics = summarize(rounds, margins, setup_s)
    with open(os.path.join(WORK, "rounds.json"), "w", encoding="utf-8") as fp:
        json.dump([[{k: r[k] for k in ("name", "code", "wall", "corrected", "rss")}
                    for r in results]
                   for results in rounds], fp)
    commands = [r for results in rounds for r in results]
    problems = [f"{r['name']}: {p}" for r in commands for p in r["problems"]]
    attempted = len(commands)
    failed = sum(1 for r in commands if r["problems"])
    if traced is not None:
        problems += traced.problems
        attempted += traced.attempted
        failed += traced.failed
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# rounds {len(rounds)}, measured {time.perf_counter() - start:.1f} s; "
          "median wall s: " + ", ".join(f"{name} {value:.4g}" for name, value
                                        in command_medians(rounds, "wall").items()))
    report(failed == 0, attempted, failed, metrics)


if __name__ == "__main__":
    sys.exit(main())
