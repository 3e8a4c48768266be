"""gseat benchmark: timed ``gseat sweep`` runs with output and call-count checks.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/gseat``.  One client
runs sweeps back to back (a closed loop), each in a fresh process
(``child.py``), until ``--seconds`` is used up and at least every sweep
seed of the run has been swept.  BLAS runs at its default thread count.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced sweeps and prints the per-layer metrics of the traced
ones.  Every sweep's ``results.csv`` must be byte-identical to the first
one made for the same sweep config (kept in ``.perfbench_out/ref``).
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (per-seed rows of the sweeps) and ``metrics``.
A full record with the environment is written to ``.perfbench_out/results``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, expected_calls, sweep_config, sweep_seeds  # noqa: E402

# the run must end well inside the 180 s a run is allowed
DEADLINE_S = 170.0
# set-up is short and noisy, so extra processes that only set up add samples
SETUP_PROBES = 5

END_TO_END = [
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("clean_acc", "fraction"),
    ("adv_acc", "fraction"),
]


class RunFailure(Exception):
    """A sweep that did not finish, or whose output failed a check."""


def git_commit(root: Path):
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.seeds = sweep_seeds(workload, seed)
        base = ROOT / ".perfbench_out"
        self.ref_dir = base / "ref" / workload
        self.run_dir = base / "runs" / f"{workload}-seed{seed}-trace{int(trace)}"
        self.record_path = base / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.ref_dir.mkdir(parents=True, exist_ok=True)
        self.setups = []
        self.sweeps = []      # one dict per sweep child
        self.csv_by_seed = {}

    def _remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def _child(self, config_path: Path, out: Path, extra) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        remaining = self._remaining()
        if remaining <= 0:
            raise RunFailure("run deadline passed")
        spawned = time.monotonic()
        argv = [sys.executable, str(HERE / "child.py"), "--config", str(config_path),
                "--out", str(out), *extra, "--spawned-at", repr(spawned)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise RunFailure(f"sweep process killed after {remaining:.0f} s") from None
        wall = time.monotonic() - spawned
        if proc.returncode != 0:
            raise RunFailure(f"sweep process exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(out / "result.json", "r", encoding="utf-8") as fh:
            result = json.load(fh)
        result["wall_s"] = wall
        self.setups.append(result["setup_s"])
        return result

    def _write_config(self, sweep_seed: int) -> Path:
        path = self.run_dir / f"config-seed{sweep_seed}.json"
        if not path.exists():
            path.write_text(json.dumps(sweep_config(self.workload, sweep_seed), indent=1,
                                       sort_keys=True), encoding="utf-8")
        return path

    def probe_setup(self):
        config = self._write_config(self.seeds[0])
        for i in range(SETUP_PROBES):
            self._child(config, self.run_dir / f"probe{i}", ["--setup-only"])

    def sweep(self, index: int, sweep_seed: int, traced: bool):
        config = self._write_config(sweep_seed)
        out = self.run_dir / f"sweep{index}"
        result = self._child(config, out, ["--trace", str(int(traced))])
        result.update(seed=sweep_seed, traced=traced)
        if result["rc"] != 0:
            raise RunFailure(f"sweep seed {sweep_seed} exited {result['rc']}")
        data = (out / "results.csv").read_bytes()
        self._check_csv(sweep_seed, data)
        result["rows"] = self._per_seed_rows(data)
        if traced:
            self._check_calls(sweep_seed, result["calls"])
        self.sweeps.append(result)

    def _check_csv(self, sweep_seed: int, data: bytes):
        first = self.csv_by_seed.setdefault(sweep_seed, data)
        if data != first:
            raise RunFailure(f"results.csv for seed {sweep_seed} changed within the run")
        # keyed by the config's content, so an edited workload gets a fresh reference
        config = self._write_config(sweep_seed).read_bytes()
        ref = self.ref_dir / f"seed{sweep_seed}-{hashlib.sha256(config).hexdigest()[:16]}.csv"
        if ref.exists():
            if ref.read_bytes() != data:
                raise RunFailure(f"results.csv for seed {sweep_seed} differs from {ref}")
        else:
            tmp = ref.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_bytes(data)
            os.replace(tmp, ref)

    def _per_seed_rows(self, data: bytes) -> list:
        rows = [r for r in csv.DictReader(io.StringIO(data.decode("utf-8")))
                if r["seed"].isdigit()]
        methods = WORKLOADS[self.workload]["methods"]
        if sorted(r["method"] for r in rows) != sorted(methods):
            raise RunFailure(f"per-seed rows {[r['method'] for r in rows]} "
                             f"do not cover methods {methods}")
        for row in rows:
            if row["status"] != "ok" and not row["status"].startswith("error:"):
                raise RunFailure(f"unknown row status {row['status']!r}")
        return rows

    def _check_calls(self, sweep_seed: int, calls: dict):
        expected = expected_calls(sweep_config(self.workload, sweep_seed))
        wrong = {name: (calls.get(name, 0), want) for name, want in expected.items()
                 if calls.get(name, 0) != want}
        if wrong:
            raise RunFailure(f"traced call counts (got, want) differ: {wrong}")

    def measure(self):
        if not self.trace:
            self.probe_setup()
        loop_start = time.monotonic()
        minimum = 2 if self.trace else len(self.seeds)
        index = 0
        while True:
            if self.trace:
                sweep_seed, traced = self.seeds[(index // 2) % len(self.seeds)], index % 2 == 1
            else:
                sweep_seed, traced = self.seeds[index % len(self.seeds)], False
            self.sweep(index, sweep_seed, traced)
            index += 1
            elapsed = time.monotonic() - loop_start
            typical = statistics.median(s["wall_s"] for s in self.sweeps)
            if index >= minimum and elapsed + typical > self.seconds:
                break

    def rows(self) -> list:
        return [row for s in self.sweeps for row in s["rows"]]

    def metrics(self) -> dict:
        untraced = [s for s in self.sweeps if not s["traced"]]
        sweep_s = statistics.median(s["sweep_s"] for s in untraced)
        if self.trace:
            traced = [s for s in self.sweeps if s["traced"]]
            values = {name: statistics.median(s["layers"][name] for s in traced)
                      for name, _, _ in PER_LAYER if name != "trace_overhead"}
            values["trace_overhead"] = statistics.median(s["sweep_s"] for s in traced) / sweep_s
            return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}

        # accuracy over each distinct sweep seed once: repeats are byte-identical
        ok = []
        for sweep_seed in self.seeds:
            first = next(s for s in self.sweeps if s["seed"] == sweep_seed)
            ok.extend(r for r in first["rows"] if r["status"] == "ok")
        if not ok:
            raise RunFailure("no per-seed row finished")
        adv_cols = [c for c in ok[0] if c.startswith("adv_")]
        values = {
            "sweep_s": sweep_s,
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
            "clean_acc": statistics.fmean(float(r["clean_acc"]) for r in ok),
            "adv_acc": statistics.fmean(float(r[c]) for r in ok for c in adv_cols),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gseat" / "__init__.py").is_file():
        print(f"no gseat source under {ROOT / 'src'}; run from a gseat checkout",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    error = None
    metrics = {}
    try:
        run.measure()
        metrics = run.metrics()
    except RunFailure as exc:
        error = str(exc)
        print(f"check failed: {error}", file=sys.stderr)

    rows = run.rows()
    failed = sum(r["status"] != "ok" for r in rows)
    env = run.sweeps[0]["env"] if run.sweeps else None
    if env is not None:
        env["git_commit"] = git_commit(ROOT)
        if env["blas_oversubscribed"]:
            print(f"warning: BLAS uses {env['blas_threads']} threads on "
                  f"{env['nproc']} cores", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sweep_seeds": run.seeds, "env": env, "error": error,
        "sweeps": [{k: s[k] for k in ("seed", "traced", "setup_s", "sweep_s", "wall_s",
                                      "peak_rss_mb")} for s in run.sweeps],
        "setup_samples": run.setups, "metrics": metrics,
    }
    run.record_path.parent.mkdir(parents=True, exist_ok=True)
    run.record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"env: {json.dumps(env)}")
    print(f"sweeps: {len(run.sweeps)} ({sum(s['traced'] for s in run.sweeps)} traced), "
          f"seeds {run.seeds}")
    if rows:
        print(f"failed_frac: {failed / len(rows):.6f} ({failed}/{len(rows)} per-seed rows)")
    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": error is None, "attempted": max(len(rows), 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
