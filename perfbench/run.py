"""Campaign benchmark: cold scenario campaigns, closed loop, one client.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload lss-centralized --seed 0 --seconds 20 --trace 0

``--trace 0`` issues cold campaigns back to back for ``--seconds``
seconds, each into a fresh throwaway store, replays each once from that
store, and prints the end-to-end metrics.  ``--trace 1`` runs a fixed
campaign set (sized from ``--seconds``) twice per campaign, untraced and
then traced, and prints the per-layer metrics; its trace is written to
``.perfbench_out/``.  Every metric is printed as ``name value unit``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.  See ``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
#: Fresh processes timed for ``setup_s`` besides the benchmark's own;
#: the median of all is reported.
SETUP_PROBES = 2
#: Seconds :func:`reference_kernel` takes on the 2-core VM the bounds
#: were set on.  Timings are rescaled by REF_S / (its duration around
#: them), so the drift in the machine's speed (+-20% within a minute on
#: a shared VM) largely cancels out of the reported figures.
REF_S = 0.0050

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "median_error_m": "m",
    "fraction_localized": "ratio",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Put the checkout's ``src`` first on the path and import it.

    Exits with code 1, printing no result, when the checkout holds no
    program.  ``REPRO_*`` settings from the environment are dropped so
    the ambient shell cannot change what is measured.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def reference_kernel() -> float:
    """Seconds a fixed reference workload takes right now.

    Many small NumPy calls driven from a Python loop, the mix the
    program's solvers spend their time in; the mean of three passes, as
    the machine flips between fast and slow states within a second.  It
    is benchmark code, so no change to the program can move it; it
    gauges how fast the machine is running at this moment.
    """
    import numpy as np

    points = np.random.default_rng(0).random((50, 2))
    passes = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(2000):
            delta = points - points[i % 50]
            total += float(np.dot(delta[:, 0], delta[:, 1]))
        passes.append(time.perf_counter() - t0)
    return statistics.fmean(passes)


def timed(fn):
    """``(fn(), its wall seconds at reference machine speed)``: the wall
    time scaled by REF_S over the mean :func:`reference_kernel` time just
    before and just after the call."""
    before = reference_kernel()
    t0 = time.perf_counter()
    value = fn()
    wall_s = time.perf_counter() - t0
    return value, wall_s * REF_S / ((before + reference_kernel()) / 2.0)


def unit_for(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("ns_per_pair_term"):
        return "ns"
    if name.endswith("bytes_put"):
        return "bytes"
    if name.endswith("_s") or "wall_s_" in name:
        return "s"
    return "count"


@dataclass
class ScenarioTally:
    """Cold-campaign outcomes of one campaign template."""

    trials: int = 0
    wall_s: float = 0.0
    errors: List[float] = field(default_factory=list)
    fractions: List[float] = field(default_factory=list)
    nonfinite: int = 0
    attempted: int = 0
    failed: int = 0


class Tally:
    """Outcomes of a set of cold campaigns, kept per template."""

    def __init__(self) -> None:
        self.by_template: Dict[str, ScenarioTally] = {}
        self.problems: List[str] = []

    def add(self, campaign, outcome) -> None:
        template = campaign.template
        tally = self.by_template.setdefault(template.spec.scenario_id, ScenarioTally())
        n = template.n_trials if outcome.cold is None else outcome.cold.n_trials
        tally.attempted += n
        if outcome.problem is not None:
            tally.failed += n
            self.problems.append(f"{campaign.label}: {outcome.problem}")
            return
        tally.trials += n
        tally.wall_s += outcome.cold_s
        for record in outcome.cold.records:
            error = record.metrics.get("median_error_m", math.nan)
            fraction = record.metrics.get("fraction_localized", math.nan)
            if math.isfinite(error):
                tally.errors.append(error)
            if math.isfinite(fraction):
                tally.fractions.append(fraction)
            if not (math.isfinite(error) and math.isfinite(fraction)):
                tally.nonfinite += 1

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.by_template.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.by_template.values())

    @property
    def wall_s(self) -> float:
        return sum(t.wall_s for t in self.by_template.values())

    def end_to_end(self) -> Dict[str, float]:
        """The workload's throughput and accuracy figures.

        Each figure is taken per campaign template and then averaged
        with every template counting once, so the mix of cheap and
        costly scenarios stays fixed however many campaigns the time
        allowed and wherever adaptive campaigns stopped.
        """
        tallies = list(self.by_template.values())

        def per_template(stat, present):
            return statistics.fmean([stat(t) for t in tallies if present(t)] or [math.nan])

        return {
            "trials_per_s": 1.0 / per_template(lambda t: t.wall_s / t.trials, lambda t: t.trials),
            "median_error_m": per_template(lambda t: statistics.fmean(t.errors), lambda t: t.errors),
            "fraction_localized": per_template(
                lambda t: statistics.fmean(t.fractions), lambda t: t.fractions
            ),
            "ok_frac": per_template(
                lambda t: 1.0 - (t.nonfinite + t.failed) / t.attempted, lambda t: t.attempted
            ),
        }


@dataclass
class Outcome:
    cold: object = None  # the cold campaign's result
    cold_s: float = 0.0  # its wall time at reference machine speed
    problem: Optional[str] = None


def run_campaign(campaign, tracer=None, recorder=None) -> Outcome:
    """One cold campaign into a fresh store, then its replay from it.

    With *tracer*, both run inside ``telemetry.recording(recorder)``
    with the layer wrappers installed.
    """
    from contextlib import ExitStack

    from repro import telemetry
    from repro.scenarios import run_scenario
    from repro.store import ResultStore, aggregates_equal, records_equal

    template = campaign.template
    outcome = Outcome()
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as root, ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(telemetry.recording(recorder))
                stack.enter_context(tracer.installed(campaign.label))
            store = ResultStore(Path(root) / "store")
            kwargs = dict(
                master_seed=campaign.master_seed,
                n_trials=template.n_trials,
                stopping=template.stopping,
                n_workers=1,
                store=store,
            )
            outcome.cold, outcome.cold_s = timed(lambda: run_scenario(template.spec, **kwargs))
            replay = run_scenario(template.spec, **kwargs)
            hits, puts = store.stats.hits, store.stats.puts
    except Exception:  # a campaign that raises is counted, not fatal
        outcome.problem = "raised:\n" + traceback.format_exc()
        return outcome

    problems = []
    n, budget, stopping = outcome.cold.n_trials, template.n_trials, template.stopping
    if stopping is None and n != budget:
        problems.append(f"fixed campaign returned {n} of {budget} trials")
    if stopping is not None and not stopping.min_trials <= n <= budget:
        problems.append(f"adaptive campaign returned {n} trials, not {stopping.min_trials}..{budget}")
    if (hits, puts) != (1, 1):
        problems.append(f"replay was not served by the store (hits={hits}, puts={puts})")
    if not (records_equal(outcome.cold, replay) and aggregates_equal(outcome.cold, replay)):
        problems.append("replay differs from its cold campaign")
    outcome.problem = "; ".join(problems) or None
    return outcome


def setup_sample() -> str:
    """This process's set-up seconds so far and a reference-kernel time
    taken right after, as ``"<setup_s> <reference_s>"``."""
    return f"{time.perf_counter() - _T0} {reference_kernel()}"


def measure_setup(own: str, workload: str, seed: int) -> float:
    """Median set-up seconds of this process (*own*, a
    :func:`setup_sample`) and :data:`SETUP_PROBES` fresh probe processes,
    each rescaled to reference machine speed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    samples = [own] + [
        subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
        ).stdout
        for _ in range(SETUP_PROBES)
    ]
    return statistics.median(
        setup_s * REF_S / reference_s
        for setup_s, reference_s in (map(float, sample.split()) for sample in samples)
    )


def untraced_run(workload, seed: int, seconds: float) -> Tally:
    """Cold campaigns back to back until *seconds* have passed."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for campaign in workload.campaigns(seed):
        tally.add(campaign, run_campaign(campaign))
        if time.perf_counter() >= deadline:
            break
    return tally


def traced_run(workload, seed: int, seconds: float, trace_path: Path):
    """Each campaign of a fixed set untraced, then traced.

    Returns ``(plain tally, traced tally, per-layer metrics)``.  A traced
    campaign whose trial records differ from the untraced one's counts
    as failed.
    """
    from itertools import islice

    from repro import telemetry
    from repro.store import aggregates_equal, records_equal

    from perfbench.tracing import LayerTracer, layer_metrics
    from perfbench.workloads import traced_rounds

    n_campaigns = traced_rounds(workload, seconds) * len(workload.round)
    plain, traced = Tally(), Tally()
    tracer, recorder = LayerTracer(), telemetry.TraceRecorder()
    for campaign in islice(workload.campaigns(seed), n_campaigns):
        first = run_campaign(campaign)
        second = run_campaign(campaign, tracer, recorder)
        if (second.problem is None and first.problem is None
                and not (records_equal(first.cold, second.cold)
                         and aggregates_equal(first.cold, second.cold))):
            second.problem = "traced trial records differ from untraced ones"
        plain.add(campaign, first)
        traced.add(campaign, second)
    overhead = traced.wall_s / plain.wall_s - 1.0 if plain.wall_s else 0.0
    recorder.write(trace_path)
    return plain, traced, layer_metrics(recorder, tracer.totals, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    from perfbench.workloads import DEFAULT_SEED, build_workload

    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = build_workload(args.workload)
    next(workload.campaigns(seed))  # seed derivation is part of set-up
    own_setup = setup_sample()
    if args.setup_probe:
        print(own_setup)
        return 0

    WORK.mkdir(exist_ok=True)
    if args.trace:
        trace_path = WORK / f"{workload.name}-seed{seed}.trace.jsonl"
        plain, traced, metrics = traced_run(workload, seed, args.seconds, trace_path)
        tallies = (plain, traced)
        units = {name: unit_for(name) for name in metrics}
        print(f"trace: {trace_path}", file=sys.stderr)
    else:
        setup_s = measure_setup(own_setup, workload.name, seed)
        tallies = (untraced_run(workload, seed, args.seconds),)
        metrics = tallies[0].end_to_end()
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    problems = [p for tally in tallies for p in tally.problems]
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
