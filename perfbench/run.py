"""Benchmark of the cliffopt compile pipeline on one seeded workload.

    python3 perfbench/run.py --workload clifford-bi --seed 1 --seconds 32 --trace 0

Set-up generates the workload's inputs from the seed, builds the input
tableaus and compiles a small warm-up instance. The timed loop then
compiles every instance, round after round, until --seconds have passed
(at least one full round), and compile_s sums each instance's median
time. setup_s is the median time of SETUP_PROBES fresh processes that do
only the set-up, from spawn to exit, run between compiles across the
loop; each must generate the same inputs. Every time is scaled by a
reference computation timed next to it (see REFERENCE_S).

With --trace 0 the run reports the end-to-end metrics. With --trace 1
each round compiles every instance once untraced and once traced, the
traced pass also rebuilding the input tableau and running the baseline
synthesizers; the run reports per-layer self times from the spans, the
layers' counts, and the tracing overhead (traced minus untraced
compile time). Spans are written to perfbench/out/ at the end.

Every output is checked against its input by the benchmark's own
simulator (symplectic.py). Every count must repeat exactly: between the
rounds of a run, and between runs of one workload and seed on the same
code, through fingerprints kept in perfbench/out/fingerprints/. An
instance that raises, fails the check or does not repeat is failed.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, asdict
from pathlib import Path

import inputs
import symplectic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9

# On a shared machine the speed of a core swings by up to 2x for tens of
# seconds at a time. Every timing is therefore scaled by a fixed
# pure-Python reference computation timed right before and after it:
#     reported seconds = wall seconds * REFERENCE_S / reference wall seconds,
# that is, seconds on a machine on which the reference takes REFERENCE_S,
# about its fastest time on a 2.0 GHz Xeon vCPU under CPython 3.11. The
# reference is the benchmark's own code, so no change to cliffopt moves it.
REFERENCE_S = 0.020
_REFERENCE_GATES = inputs.random_cz_circuit(random.Random("reference"), 16, 1600)


def reference_wall() -> float:
    start = time.perf_counter()
    symplectic.tableau(16, _REFERENCE_GATES)
    return time.perf_counter() - start


END_TO_END_UNITS = {
    "compile_s": "s",
    "setup_s": "s",
    "two_qubit_out": "count",
    "gates_out": "count",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
}

# Span names, each reported as its self time "<name>_s". The "compile"
# span encloses one pipeline run; its self time is the glue between calls.
LAYER_SPANS = (
    "circuit.parse",
    "tableau.circuit_to_tableau",
    "synth.greedy.bidirectional",
    "synth.greedy.unidirectional",
    "synth.disentangle.disentangler",
    "synth.canonical.ag",
    "stages.partition",
    "stages.merge_swaps",
    "matching.match",
    "stages.pauli_layer",
)
BIDIRECTIONAL_SIZES = tuple(n for n, _ in inputs.WORKLOADS["clifford-bi"].specs)

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    **{f"synth.greedy.bidirectional_s.n{n}": "s" for n in BIDIRECTIONAL_SIZES},
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
    "synth.greedy.two_qubit": "count",
    "synth.disentangle.cnot_cost": "count",
    "synth.canonical.two_qubit": "count",
    "synth.canonical.two_qubit_vs_ag": "ratio",
    "stages.two_qubit_saved": "count",
    "matching.two_qubit_removed": "count",
    "matching.gates_removed": "count",
    "matching.changed_frac": "ratio",
    "matching.gates_in_per_s": "1/s",
}


@dataclass
class InstanceRun:
    wall_s: list[float] = field(default_factory=list)  # untraced, unscaled
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    layer_s: dict[str, list[float]] = field(default_factory=dict)
    fingerprint: dict[str, object] = field(default_factory=dict)
    output: object = None  # the first rep's output Circuit
    error: str | None = None


def fingerprint(compiled) -> dict[str, object]:
    """The counts of one pipeline run, which must repeat exactly."""
    return {
        "output_sha256": hashlib.sha256(compiled.output.to_text().encode()).hexdigest(),
        "synth_two_qubit": compiled.source.two_qubit_count if compiled.synthesized else 0,
        "partition_two_qubit": compiled.partition.to_circuit().two_qubit_count,
        "merged_two_qubit": compiled.merged.two_qubit_count,
        "merged_gates": len(compiled.merged),
        "matched_two_qubit": compiled.matched.two_qubit_count,
        "matched_gates": len(compiled.matched),
        "two_qubit_out": compiled.output.two_qubit_count,
        "gates_out": len(compiled.output),
    }


def implements(text: str, circuit) -> bool:
    """Whether the output circuit has the tableau of the input text, signs
    included, by the benchmark's own simulator."""
    n, gates = symplectic.parse(text)
    out = [(g.kind, g.qubits) for g in circuit.gates]
    return circuit.n == n and symplectic.tableau(n, out) == symplectic.tableau(n, gates)


def merge_fingerprint(run: InstanceRun, fp: dict[str, object], where: str) -> None:
    for key, value in fp.items():
        if run.fingerprint.setdefault(key, value) != value:
            run.error = f"{key} differs {where}: {run.fingerprint[key]} then {value}"


class Bench:
    def __init__(self, pipeline, workload, insts, sources) -> None:
        self.pipeline = pipeline
        self.workload = workload
        self.insts = insts
        self.sources = sources
        self.runs = [InstanceRun() for _ in insts]
        self.tracer = pipeline.Tracer()
        self._reference = 0.0  # wall time of the latest reference run

    def measure(self, seconds: float, traced: bool, probe: SetupProbe) -> None:
        """Compile every instance each round until `seconds` have passed.

        The set-up probes run between compiles, spread evenly over the
        loop, so that setup_s samples the machine at several moments;
        their time is not counted in the loop's seconds.
        """
        start = time.perf_counter()
        paused = 0.0
        self._reference = reference_wall()
        rnd = 0
        while any(run.error is None for run in self.runs):
            for k, run in enumerate(self.runs):
                elapsed = time.perf_counter() - start - paused
                due = seconds * len(probe.times) / SETUP_PROBES
                if len(probe.times) < SETUP_PROBES and elapsed >= due and not probe.problem:
                    paused += probe()
                    self._reference = reference_wall()
                if rnd and elapsed >= seconds:
                    return
                if run.error is not None:
                    continue
                if not traced:
                    self._rep(k, False)
                else:
                    # Alternate which pass goes first, so neither gets a
                    # warmer cache on every instance.
                    for with_trace in (False, True) if (rnd + k) % 2 else (True, False):
                        self._rep(k, with_trace)
            rnd += 1

    def _rep(self, k: int, traced: bool) -> None:
        p, run, synth = self.pipeline, self.runs[k], self.workload.synth
        tracer = self.tracer if traced else p.NO_TRACE
        first = len(self.tracer.spans)
        try:
            if traced and synth:
                source = p.load_tableau(self.insts[k].text, tracer, k)
                if source != self.sources[k]:
                    run.error = "input tableau differs between set-up and a traced rebuild"
            else:
                source = self.sources[k]
            start = time.perf_counter()
            compiled = p.compile_one(source, synth, tracer, k)
            elapsed = time.perf_counter() - start
            fp = fingerprint(compiled)
            if traced:
                tableau = source if synth else p.to_tableau(compiled.source, tracer, k)
                cost, ag = p.baselines(tableau, tracer, k)
                fp.update(cnot_cost=cost, ag_two_qubit=ag.two_qubit_count)
        except Exception:  # noqa: BLE001 - a failing instance is counted, not fatal
            run.error = traceback.format_exc()
            self._reference = reference_wall()
            return
        after = reference_wall()
        scale = 2 * REFERENCE_S / (self._reference + after)
        self._reference = after
        if traced:
            run.traced_s.append(elapsed * scale)
            for name, seconds in p.self_times(self.tracer.spans, first).items():
                run.layer_s.setdefault(name, []).append(seconds * scale)
        else:
            run.wall_s.append(elapsed)
            run.untraced_s.append(elapsed * scale)
        if run.output is None:
            run.output = compiled.output
        merge_fingerprint(run, fp, "between rounds")

    def verify(self) -> None:
        """Check each output against its input with the independent simulator."""
        for inst, run in zip(self.insts, self.runs):
            if run.output is not None and not implements(inst.text, run.output):
                run.error = "output circuit does not implement the input"

    def check_across_runs(self, seed: int) -> None:
        """Compare fingerprints with earlier runs of this code, workload and seed."""
        code = hashlib.sha256()
        for path in sorted(ROOT.glob("src/cliffopt/**/*.py")) + sorted(HERE.glob("*.py")):
            code.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
        code.update(f"{self.workload.name}/{seed}".encode())
        path = OUT / "fingerprints" / f"{code.hexdigest()[:32]}.json"
        stored = json.loads(path.read_text()) if path.exists() else [{} for _ in self.runs]
        for k, run in enumerate(self.runs):
            if run.error is None:
                fp, run.fingerprint = run.fingerprint, dict(stored[k])
                merge_fingerprint(run, fp, "from an earlier run")
                if run.error is None:
                    stored[k] = run.fingerprint
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stored))

    def ok(self) -> list[tuple[inputs.Instance, InstanceRun]]:
        return [(i, r) for i, r in zip(self.insts, self.runs) if r.error is None]

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        ok = self.ok()
        return {
            "compile_s": sum(statistics.median(r.untraced_s) for _, r in ok),
            "setup_s": setup_s,
            "two_qubit_out": sum(r.fingerprint["two_qubit_out"] for _, r in ok),
            "gates_out": sum(r.fingerprint["gates_out"] for _, r in ok),
            "verified_frac": len(ok) / len(self.runs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        ok = self.ok()
        m = {name: 0.0 for name in PER_LAYER_UNITS}
        for inst, r in ok:
            for name, values in r.layer_s.items():
                key = "pipeline.self_s" if name == "compile" else f"{name}_s"
                m[key] += statistics.median(values)
                if name == "synth.greedy.bidirectional":
                    m[f"{key}.n{inst.n}"] += statistics.median(values)
        m["trace.overhead_s"] = sum(
            statistics.median(r.traced_s) - statistics.median(r.untraced_s) for _, r in ok
        )

        def total(key: str) -> int:
            return sum(r.fingerprint[key] for _, r in ok)

        m["synth.greedy.two_qubit"] = total("synth_two_qubit")
        m["synth.disentangle.cnot_cost"] = total("cnot_cost")
        m["synth.canonical.two_qubit"] = total("ag_two_qubit")
        m["synth.canonical.two_qubit_vs_ag"] = math.exp(statistics.fmean(
            math.log(r.fingerprint["two_qubit_out"] / r.fingerprint["ag_two_qubit"]) for _, r in ok
        ))
        m["stages.two_qubit_saved"] = total("partition_two_qubit") - total("merged_two_qubit")
        m["matching.two_qubit_removed"] = total("merged_two_qubit") - total("matched_two_qubit")
        m["matching.gates_removed"] = total("merged_gates") - total("matched_gates")
        m["matching.changed_frac"] = sum(
            (r.fingerprint["matched_two_qubit"], r.fingerprint["matched_gates"])
            < (r.fingerprint["merged_two_qubit"], r.fingerprint["merged_gates"])
            for _, r in ok
        ) / len(self.runs)
        m["matching.gates_in_per_s"] = total("merged_gates") / m["matching.match_s"]
        return m

    def write_spans(self, seed: int) -> Path:
        path = OUT / f"spans-{self.workload.name}-{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.tracer.spans]))
        return path


class SetupProbe:
    """Times fresh processes that do only the set-up, from spawn to exit,
    and checks that each generated the same inputs."""

    def __init__(self, args, digest: str) -> None:
        self.cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only",
        ]
        self.digest = digest
        self.walls: list[float] = []
        self.times: list[float] = []  # scaled by the reference
        self.problem: str | None = None

    def __call__(self) -> float:
        """Run one probe and return its wall time.

        The probe times the reference itself, at its start and its end,
        because it may run on another core than this process.
        """
        start = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - start
        reply = proc.stdout.split()[-3:]
        if proc.returncode != 0 or reply[:1] != [self.digest]:
            self.problem = f"a set-up process failed or made other inputs: {proc.stderr[-500:]}"
            return wall
        before, after = float(reply[1]), float(reply[2])
        self.walls.append(wall - before - after)
        self.times.append((wall - before - after) * 2 * REFERENCE_S / (before + after))
        return wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="do the set-up, print the input digest and exit (used to time set-up)",
    )
    args = parser.parse_args(argv)
    workload = inputs.WORKLOADS[args.workload]
    reference_before = reference_wall() if args.setup_only else 0.0

    try:
        import pipeline
    except ImportError as exc:
        print(f"perfbench: cannot import cliffopt from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    def source(inst: inputs.Instance):
        return pipeline.load_tableau(inst.text) if workload.synth else inst.text

    insts = inputs.instances(workload, args.seed)
    sources = [source(inst) for inst in insts]
    pipeline.compile_one(source(inputs.warmup_instance(workload, args.seed)), workload.synth)
    digest = inputs.digest(insts)
    if args.setup_only:
        print(digest, reference_before, reference_wall())
        return 0

    probe = SetupProbe(args, digest)
    bench = Bench(pipeline, workload, insts, sources)
    # Keep the set-up's objects out of the collector's way, so the timed
    # loop pays only for the garbage the pipeline itself makes.
    gc.collect()
    gc.freeze()
    bench.measure(args.seconds, bool(args.trace), probe)
    while len(probe.times) < SETUP_PROBES and probe.problem is None:
        probe()
    bench.verify()
    bench.check_across_runs(args.seed)

    for inst, run in zip(insts, bench.runs):
        times = run.untraced_s
        print(
            f"instance {inst.index:2d} n={inst.n:2d} reps={len(times)} "
            f"median_s={statistics.median(times) if times else float('nan'):.4f} "
            f"median_wall_s={statistics.median(run.wall_s) if times else float('nan'):.4f} "
            f"two_qubit_out={run.fingerprint.get('two_qubit_out')} "
            f"gates_out={run.fingerprint.get('gates_out')} "
            f"{'ok' if run.error is None else 'FAILED'}"
        )
        if run.error is not None:
            print(f"instance {inst.index} failed: {run.error}", file=sys.stderr)
    if probe.problem:
        print(probe.problem, file=sys.stderr)
        return 1
    if not bench.ok():
        return 1
    failed = len(insts) - len(bench.ok())
    if args.trace:
        values, units = bench.per_layer(), PER_LAYER_UNITS
        print(f"spans written to {bench.write_spans(args.seed).relative_to(ROOT)}")
    else:
        values, units = bench.end_to_end(statistics.median(probe.times)), END_TO_END_UNITS
    print(
        f"unscaled wall seconds: compile {sum(statistics.median(r.wall_s) for _, r in bench.ok()):.4f}, "
        f"set-up {statistics.median(probe.walls):.4f}"
    )
    for name, value in values.items():
        print(f"{name:40s} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(insts), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
