"""Single-driver benchmark for the autoprepad_ray validation engine.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fimg_validate --seed 1 \\
        --seconds 8 --trace 0

One driver process runs a closed loop: one validation job at a time,
the next one only after the previous one returned and was checked,
until ``--seconds`` have passed (at least one job).  It first generates
the seeded inputs (cached under ``.bench_build/perfbench``), then
``SETUP_SAMPLES`` times sets up a Ray session -- ``ray.init``, one
untimed warm-up job on a small sibling input and the fixture-cache
check -- and runs timed jobs in it for an equal share of the window.
``--trace 1`` instead runs one traced job of every workload, the layer
probes, and two untraced ``fimg_validate`` jobs for the tracing
overhead, and reports the per-layer numbers from the span file it
writes.

The last line of standard output is the result object; the line before
it is the full record (per-job counters, host noise, Ray config).
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fimg_validate", "tabular_profile", "runner_resume")

NUM_CPUS = 4                  # logical; the engine's tests use 4 as well
OBJECT_STORE_BYTES = 768 << 20
SETUP_SAMPLES = 3
# keep idle workers for the whole run: with Ray's default (kill an idle
# worker after 1 s) each job restarts a timing-dependent number of
# worker processes, about 1 s of CPU each, and that count, not the
# engine, set most of a job's spread
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000}
MAX_SOCKET_PATH = 107         # AF_UNIX limit; Ray puts sockets in its temp dir
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000"
                        "/sockets/plasma_store")


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


class Bench:
    def __init__(self, args: argparse.Namespace):
        import ray

        from autoprepad_ray.context import quiet_data_context

        from perfbench import inputs, jobs, procstat, tracing

        self.ray, self.quiet = ray, quiet_data_context
        self.inputs, self.jobs = inputs, jobs
        self.procstat, self.tracing = procstat, tracing
        self.args = args
        self.kind = args.workload
        self.work = os.path.join(ROOT, ".bench_build", "perfbench")
        self.cache = os.path.join(self.work, "cache")
        self.scratch = os.path.join(self.work, "scratch")
        ray_tmp = os.path.join(ROOT, ".bench_build", "ray")
        self.ray_tmp = (ray_tmp if len(ray_tmp) + RAY_SOCKET_SUFFIX
                        <= MAX_SOCKET_PATH else None)
        self.counters = None
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    # ---- Ray session -----------------------------------------------------

    def ray_start(self) -> None:
        kw = {"_temp_dir": self.ray_tmp} if self.ray_tmp else {}
        self.ray.init(address="local", num_cpus=NUM_CPUS,
                      object_store_memory=OBJECT_STORE_BYTES,
                      include_dashboard=False, log_to_driver=False,
                      logging_level="ERROR",
                      # a copy: ray.init adds the session's spill
                      # directory to the dict it is given
                      _system_config=dict(RAY_SYSTEM_CONFIG), **kw)
        self.quiet()
        logs = os.path.join(self.ray_tmp or "/tmp/ray", "session_latest",
                            "logs", "python-core-worker-*.log")
        prev = self.counters
        self.counters = self.procstat.ProcCounters(logs)
        if prev is not None:
            self.counters.all_pids.update(prev.all_pids)

    def ray_stop(self) -> None:
        if self.counters is not None:
            self.counters.snapshot()          # learn every live worker pid
        if self.ray.is_initialized():
            self.ray.shutdown()
        if self.counters is not None:
            self.procstat.wait_gone(self.counters.all_pids)

    # ---- inputs ----------------------------------------------------------

    def fixtures(self, kinds: set[str]) -> tuple[dict, dict]:
        """Full-size and warm-up inputs for ``kinds``."""
        i, seed = self.inputs, self.args.seed
        full, warm = {}, {}
        if kinds & {"fimg_validate", "runner_resume"}:
            full["fimg"] = i.fimg(self.cache, seed)
            warm["fimg"] = i.fimg(self.cache, seed, rows=i.WARM_FIMG_ROWS)
        if "tabular_profile" in kinds:
            full["tab"] = i.tabular(self.cache, seed)
            warm["tab"] = i.tabular(self.cache, seed, rows=i.WARM_TAB_ROWS)
        return full, warm

    @staticmethod
    def fx_for(kind: str, fxs: dict) -> dict:
        return fxs["tab" if kind == "tabular_profile" else "fimg"]

    def cache_check(self, fx: dict) -> dict:
        if "files" in fx:
            return self.inputs.load_tabular(fx["dir"])
        return self.inputs.load_fimg(fx["dir"])

    # ---- jobs ------------------------------------------------------------

    def job(self, kind: str, fx: dict, tracer, job_id: str,
            check: bool = True) -> dict:
        """Run and check one job; returns its record (wall, counters)."""
        self.attempted += 1
        a = self.counters.snapshot()
        self.counters.reset_peaks()
        t = time.perf_counter()
        out, err = None, None
        try:
            out = self.jobs.run(kind, fx, tracer, job_id, self.scratch)
        except Exception as e:  # a job that raises is a failed attempt
            err = f"{type(e).__name__}: {e}"
        wall = time.perf_counter() - t
        b = self.counters.snapshot()
        if out is not None and check:
            try:
                self.jobs.check(kind, out, fx)
            except self.jobs.CheckFailed as e:
                err = f"check: {e}"
        if err is not None:
            self.failed += 1
            self.errors.append(f"{job_id}: {err}")
        rec = {"job": job_id, "ok": err is None, "wall_s": round(wall, 4),
               "rows": fx["rows"], "hwm_mb": b.hwm_mb,
               **self.procstat.job_delta(a, b)}
        rec["out"] = out
        return rec

    def setup(self, kind: str, warm_fx: dict, fx: dict,
              import_s: float) -> float:
        """One set-up: ray.init, the warm-up job, the fixture-cache
        check.  Returns its time plus the process's import time.

        The warm-up runs the workload's job on the small sibling input
        (an image validation for ``runner_resume``, whose per-partition
        cost would make a resume warm-up as long as a timed job).  Its
        output is not checked: the small inputs are too small for the
        drift verdicts to be stable."""
        t = time.perf_counter()
        self.ray_start()
        warm_kind = ("fimg_validate" if kind == "runner_resume" else kind)
        self.job(warm_kind, warm_fx, self.tracing.NullTracer(), "warmup",
                 check=False)
        self.cache_check(fx)
        return import_s + time.perf_counter() - t

    def ray_config(self) -> dict:
        from autoprepad_ray.context import default_pool_size
        return {"num_cpus": NUM_CPUS, "object_store_bytes": OBJECT_STORE_BYTES,
                "system_config": RAY_SYSTEM_CONFIG,
                "decode_pool_size": default_pool_size(),
                "temp_dir": self.ray_tmp or "ray default",
                "ray_version": self.ray.__version__,
                "host_cpus": os.cpu_count()}

    # ---- modes -----------------------------------------------------------

    def run_untraced(self, import_s: float) -> tuple[dict, dict]:
        t = time.perf_counter()
        full, warm = self.fixtures({self.kind})
        fixture_s = time.perf_counter() - t
        fx, wfx = self.fx_for(self.kind, full), self.fx_for(self.kind, warm)
        null = self.tracing.NullTracer()
        setups, recs = [], []
        # the window is split over the set-up sessions: job walls differ
        # by up to 15 % from one Ray session to the next and hardly
        # within one, so jobs from every session go into the medians.
        # Closed loop: a job starts only if the last one's wall time says
        # it ends inside its session's share (at least one job in all)
        share = self.args.seconds / SETUP_SAMPLES
        for k in range(SETUP_SAMPLES):
            if k:
                self.ray_stop()
            setups.append(self.setup(self.kind, wfx, fx, import_s))
            t0 = time.perf_counter()
            while not recs or (time.perf_counter() - t0 + recs[-1]["wall_s"]
                               <= share):
                rec = self.job(self.kind, fx, null, f"job{len(recs)}")
                rec["session"] = k
                self.cleanup(rec)
                recs.append(rec)
        ok = [r for r in recs if r["ok"]] or recs
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "rows_per_s": (statistics.median(
                r["rows"] / r["wall_s"] for r in ok), "rows/s"),
            "cpu_s_per_krow": (statistics.median(
                1000.0 * (r["driver_cpu_s"] + r["worker_cpu_s"]) / r["rows"]
                for r in ok), "s"),
            "peak_rss_mb": (statistics.median(r["hwm_mb"] for r in ok),
                            "MB"),
        }
        detail = {
            "setup_samples_s": [round(s, 4) for s in setups],
            "import_s": round(import_s, 4),
            "fixture_s": round(fixture_s, 4),
            "input": {"rows": fx["rows"], "bytes": fx["bytes"]},
            "jobs": len(recs), "job_records": recs,
            "error_rate": self.failed / self.attempted,
        }
        return metrics, detail

    def run_traced(self, import_s: float) -> tuple[dict, dict]:
        t = time.perf_counter()
        full, warm = self.fixtures(set(WORKLOADS))
        fixture_s = time.perf_counter() - t
        setup_s = self.setup(self.kind, self.fx_for(self.kind, warm),
                             self.fx_for(self.kind, full), import_s)
        tr = self.tracing.Tracer()
        null = self.tracing.NullTracer()
        recs, walls = {}, {null: [], tr: []}
        # the tracing overhead comes from fimg_validate jobs run
        # untraced, traced, traced, untraced, so a steady drift in host
        # speed cancels; they run last because the first timed job after
        # the warm-up is slower than later ones
        plan = [("runner_resume", tr, "runner_resume"),
                ("tabular_profile", tr, "tabular_profile"),
                ("fimg_validate", null, "untraced0"),
                ("fimg_validate", tr, "fimg_validate"),
                ("fimg_validate", tr, "traced1"),
                ("fimg_validate", null, "untraced1")]
        for kind, tracer, job_id in plan:
            rec = self.job(kind, self.fx_for(kind, full), tracer, job_id)
            if rec["out"] is None:
                raise RuntimeError(f"{job_id} job failed: {self.errors[-1]}")
            if job_id == "tabular_profile":
                states = rec["out"]["states"]
            self.cleanup(rec)
            if kind == "fimg_validate":
                walls[tracer].append(rec["wall_s"])
            if job_id == kind:
                recs[kind] = rec
        self.probe(self.jobs.fimg_probes, full["fimg"], tr)
        self.probe(self.jobs.tabular_probes, full["tab"], tr, states)
        layer = self.jobs.layer_metrics(tr)
        own = recs[self.kind]
        layer["io.read_amplification"] = (recs["tabular_profile"]["rchar"]
                                          / full["tab"]["bytes"])
        layer["ray.worker_starts"] = own["worker_starts"]
        layer["proc.driver_cpu_share"] = own["driver_cpu_s"] / max(
            1e-9, own["worker_cpu_s"] + own["driver_cpu_s"])
        rows = full["fimg"]["rows"]
        rps_untraced = rows / statistics.mean(walls[null])
        rps_traced = rows / statistics.mean(walls[tr])
        layer["trace.overhead_pct"] = (100.0 * (rps_untraced - rps_traced)
                                       / rps_untraced)
        os.makedirs(os.path.join(self.work, "out"), exist_ok=True)
        span_file = os.path.join(
            self.work, "out",
            f"spans_{self.kind}_s{self.args.seed}.json")
        tr.dump(span_file)
        selfs = tr.self_times()
        self_by_name: dict[str, float] = {}
        for s in tr.spans:
            self_by_name[s["name"]] = round(
                self_by_name.get(s["name"], 0.0) + selfs[s["id"]], 4)
        units = layer_units()
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        detail = {"setup_s": round(setup_s, 4),
                  "fixture_s": round(fixture_s, 4),
                  "span_file": os.path.relpath(span_file, ROOT),
                  "self_time_s": self_by_name,
                  "rows_per_s_untraced": rps_untraced,
                  "rows_per_s_traced": rps_traced,
                  "overhead_walls_s": {"untraced": walls[null],
                                       "traced": walls[tr]},
                  "traced_jobs": recs}
        return metrics, detail

    def probe(self, fn, fx: dict, tracer, *args) -> None:
        """A traced layer probe is an attempted operation of its own."""
        self.attempted += 1
        try:
            fn(fx, tracer, *args)
        except self.jobs.CheckFailed as e:
            self.failed += 1
            self.errors.append(f"{fn.__name__}: check: {e}")

    def cleanup(self, rec: dict) -> None:
        out = rec.pop("out", None)
        if out and "out_dir" in out:
            shutil.rmtree(out["out_dir"], ignore_errors=True)


def layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def main() -> int:
    args = parse_args()
    # Ray puts the driver's working directory on its workers' sys.path:
    # the engine and this package must resolve from the checkout root
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    # temporary files of Ray, pyarrow and the engine stay in the checkout
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    bench = Bench(args)
    import_s = time.perf_counter() - T_PROCESS
    if bench.ray_tmp:
        shutil.rmtree(bench.ray_tmp, ignore_errors=True)
    try:
        if args.trace:
            metrics, detail = bench.run_traced(import_s)
        else:
            metrics, detail = bench.run_untraced(import_s)
        detail["ray_config"] = bench.ray_config()
    finally:
        bench.ray_stop()
        shutil.rmtree(bench.scratch, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
        if bench.ray_tmp:
            shutil.rmtree(bench.ray_tmp, ignore_errors=True)
    detail.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "errors": bench.errors})
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
