"""friendbias benchmark: run one workload through the unmodified CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a friendbias source tree; the package is imported from
its `src/` directory. Each CLI run is one child process, started one at a
time; its set-up time, wall time, CPU time and peak RSS come from the child's
own clock readings and its own rusage (os.wait4). Runs repeat until the next
one would end after S seconds, with at least two, and every run's outputs are
checked and compared byte for byte with the first run's.

--trace 0 reports the end-to-end metrics: medians over the runs, and for
set-up also over groups of set-up-only children spread over the run.
--trace 1 makes one untraced and one traced run and reports the per-layer
metrics of the traced one. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
Outputs go to .perfbench_out/ under the current directory and are removed as
soon as they are checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPEATS = 2
SETUP_PROBES = 4          # set-up-only children per group; groups spread over the run
RUN_LIMIT_S = 170.0       # every child is killed after this, so the run ends in time
POLL_S = 0.005


@dataclass
class ChildRun:
    """One child process: its clock readings, rusage and verdict."""
    elapsed_s: float                 # spawn to reaped, seen by the parent
    setup_s: float | None = None
    wall_s: float | None = None
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    error: str | None = None
    bytes_written: int = 0
    spans: list | None = None


class Bench:
    def __init__(self, root: Path, workload, seed: int, scale: str):
        self.src = root / "src"
        self.workload = workload
        self.work = root / ".perfbench_out" / workload.name
        self.out = self.work / "out"
        self.cfg = workload.resolved(seed, str(self.out.relative_to(root)),
                                     scale)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        # output hashes of earlier runs of this program, workload, seed and
        # scale in this tree, so determinism is also checked across runs
        self.hash_store = (root / ".perfbench_out" / "hashes"
                           / f"{_tree_digest(self.src)}-{workload.name}"
                             f"-{seed}-{scale}.json")
        self.reference: dict | None = None
        if self.hash_store.is_file():
            with open(self.hash_store) as fh:
                self.reference = json.load(fh)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cfg_path = self.work / "config.json"
        with open(self.cfg_path, "w") as fh:
            json.dump(self.cfg, fh)

    def _spawn(self, args: list[str], timing: Path) -> ChildRun:
        log = self.work / "child.log"
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            t_spawn = time.monotonic()
            pid = os.posix_spawn(
                sys.executable,
                [sys.executable, str(HERE / "child.py"), str(self.src),
                 str(timing), *args],
                os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                          (os.POSIX_SPAWN_DUP2, fd, 2)])
        finally:
            os.close(fd)
        timed_out = False
        while True:
            reaped, status, usage = os.wait4(pid, os.WNOHANG)
            if reaped:
                break
            if time.monotonic() > self.deadline:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                timed_out = True
                break
            time.sleep(POLL_S)
        run = ChildRun(elapsed_s=time.monotonic() - t_spawn,
                       cpu_s=usage.ru_utime + usage.ru_stime,
                       peak_rss_mb=usage.ru_maxrss / 1024.0)
        rc = os.waitstatus_to_exitcode(status)
        if timed_out:
            run.error = f"killed after the {RUN_LIMIT_S:.0f} s run limit"
        elif rc != 0:
            run.error = f"exit code {rc}: {log.read_text()[-2000:].strip()}"
        if timing.is_file():
            with open(timing) as fh:
                t = json.load(fh)
            run.setup_s = t["t_entry"] - t_spawn
            run.wall_s = t["t_exit"] - t["t_entry"]
            timing.unlink()
        return run

    def probe_setup(self) -> ChildRun:
        return self._spawn(["-"], self.work / "timing.json")

    def run_cli(self, traced: bool) -> ChildRun:
        shutil.rmtree(self.out, ignore_errors=True)
        trace_path = self.work / "spans.json"
        run = self._spawn([str(trace_path) if traced else "-",
                           self.workload.experiment,
                           "--config", str(self.cfg_path)],
                          self.work / "timing.json")
        if traced and trace_path.is_file():
            with open(trace_path) as fh:
                run.spans = json.load(fh)
        if run.error is None:
            run.error = self._verify(run)
        shutil.rmtree(self.out, ignore_errors=True)
        return run

    def _verify(self, run: ChildRun) -> str | None:
        try:
            problem = self.workload.check(self.out, self.cfg)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problem = f"output check failed: {exc!r}"
        if problem:
            return problem
        hashes = {}
        for path in sorted(self.out.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                hashes[str(path.relative_to(self.out))] = \
                    hashlib.sha256(data).hexdigest()
                run.bytes_written += len(data)
        if self.reference is None:
            self.reference = hashes
            self.hash_store.parent.mkdir(parents=True, exist_ok=True)
            with open(self.hash_store, "w") as fh:
                json.dump(hashes, fh)
        elif hashes != self.reference:
            return "output bytes differ from an earlier run of this seed"
        return None

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _tree_digest(src: Path) -> str:
    """Digest of the program's sources, naming the program being measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _median(values):
    return statistics.median(values) if values else 0.0


def repeat_cli(bench: Bench, seconds: float) -> tuple[list, list]:
    """Untraced CLI runs until the next one would end after `seconds`, and
    groups of set-up probes at the start, at least every third of `seconds`
    and at the end: set-up time drifts over seconds on a shared machine."""
    start = last_probes = time.monotonic()
    probes = [bench.probe_setup() for _ in range(SETUP_PROBES)]
    runs: list[ChildRun] = []
    while True:
        runs.append(bench.run_cli(traced=False))
        now = time.monotonic()
        typical = _median([r.elapsed_s for r in runs])
        done = typical > bench.time_left() or (
            len(runs) >= MIN_REPEATS and now - start + typical > seconds)
        if done or now - last_probes >= seconds / 3:
            probes += [bench.probe_setup() for _ in range(SETUP_PROBES)]
            last_probes = now
        if done:
            return runs, probes


def _line(name: str, value: float, unit: str, note: str) -> str:
    return f"  {name:<44} {value:>16.6g} {unit:<6} {note}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="tiny shrinks every size, for the smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "friendbias" / "cli.py").is_file():
        print(f"error: {root} is not a friendbias source tree "
              "(no src/friendbias/cli.py); run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    bench = Bench(root, workload, args.seed, args.scale)
    probes: list[ChildRun] = []
    traced = None
    if args.trace:
        runs = [bench.run_cli(traced=False)]
        traced = bench.run_cli(traced=True)
    else:
        runs, probes = repeat_cli(bench, args.seconds)
    attempted = runs + ([traced] if traced else [])
    failed = [r for r in attempted if r.error]
    for r in failed:
        print(f"{workload.name} seed {args.seed}: run failed: {r.error}",
              file=sys.stderr)
    for r in probes:
        if r.error:
            print(f"{workload.name}: set-up probe failed: {r.error}",
                  file=sys.stderr)

    timed = [r for r in runs if r.wall_s is not None]
    print(f"workload {workload.name} ({workload.experiment}) seed {args.seed} "
          f"scale {args.scale}: {len(attempted)} runs, {len(failed)} failed")
    n = len(timed)
    setups = [r.setup_s for r in probes + timed if r.setup_s is not None]
    e2e = {"wall_s": (_median([r.wall_s for r in timed]), n),
           "setup_s": (_median(setups), len(setups)),
           "cpu_s": (_median([r.cpu_s for r in timed]), n),
           "peak_rss_mb": (_median([r.peak_rss_mb for r in timed]), n)}
    units = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
    for name, (value, count) in e2e.items():
        print(_line(name, value, units[name], f"median of {count}"))
    print(_line("error_rate", len(failed) / len(attempted), "ratio",
                f"{len(failed)} failed / {len(attempted)} attempted"))

    if traced:
        if traced.error or traced.spans is None:
            layers = {name: 0.0 for name, _, _ in PER_LAYER}
        else:
            layers = layer_metrics(traced.spans, traced.wall_s,
                                   e2e["wall_s"][0], traced.bytes_written)
        for name, value in layers.items():
            print(_line(name, value, units[name], "traced run"))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, (v, _) in e2e.items()}
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({"correct": not failed, "attempted": len(attempted),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
