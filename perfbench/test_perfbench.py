"""Tests of the benchmark itself: the checks reject wrong answers, the tracer
leaves the library as it found it and counts the same on every run, the
workload inputs follow from the seed, and BENCHMARK.json matches what the
runs print.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from l1rec import chebyshev, lp, newton, recovery
from l1rec.catalog import catalog_function
from l1rec.chebyshev import ChebSeries
from l1rec.localization import minimax, omega_measure

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def perturbed(series: ChebSeries, j: int = 1, rel: float = 1e-6) -> ChebSeries:
    c = np.array(series.coeffs)
    c[j] += rel * np.max(np.abs(c))
    return ChebSeries(series.basis, c)


def rejects(check, out) -> bool:
    try:
        check(out)
    except checks.CheckFailed:
        return True
    return False


# -- the checks accept the library's answers and reject wrong ones -----------

@pytest.fixture(scope="module")
def shortcut_abs():
    return newton.best_l1(catalog_function("absx"), 40)


@pytest.fixture(scope="module")
def shortcut_sqrt():
    return newton.best_l1(catalog_function("sqrt1mx2"), 32)


def test_shortcut_checks(shortcut_abs, shortcut_sqrt):
    f, kinks, f_l1 = workloads.TARGETS["absx"]
    exact = checks.abs_best_l1(40)
    check = lambda out: checks.check_shortcut(f, kinks, f_l1, 40, out, exact)
    check(shortcut_abs)
    assert rejects(check, dataclasses.replace(shortcut_abs, polynomial=perturbed(shortcut_abs.polynomial)))
    assert rejects(check, dataclasses.replace(shortcut_abs, l1_error=shortcut_abs.l1_error * (1 + 1e-9)))

    f, kinks, f_l1 = workloads.TARGETS["sqrt1mx2"]
    check = lambda out: checks.check_shortcut(f, kinks, f_l1, 32, out)
    check(shortcut_sqrt)
    assert rejects(check, dataclasses.replace(shortcut_sqrt, polynomial=perturbed(shortcut_sqrt.polynomial, 2)))
    assert rejects(check, dataclasses.replace(shortcut_sqrt, l1_error=shortcut_sqrt.l1_error * (1 - 1e-9)))


def test_sign_bound_matches_closed_form():
    for n in (2, 40, 640):
        assert checks.sign_bound(np.abs, n + 2, (0.0,)) == pytest.approx(checks.abs_best_l1(n), rel=1e-12)


def test_best_l1_check():
    f, kinks, _ = workloads.TARGETS["absx14"]
    out = newton.best_l1(catalog_function("absx14"), 3)
    assert out.path.value == "newton_converged"
    check = lambda o: checks.check_best_l1(f, kinks, 3, o)
    check(out)
    assert rejects(check, dataclasses.replace(out, polynomial=perturbed(out.polynomial)))
    assert rejects(check, dataclasses.replace(out, l1_error=out.l1_error * (1 + 1e-8)))


def test_recovery_check():
    rep = recovery.recover_l1(catalog_function("corrupted_t5"), 5, N=workloads.RECOVERY_N)
    checks.check_recovery(workloads._t5, rep, expected_k=76)
    assert rejects(lambda r: checks.check_recovery(workloads._t5, r), dataclasses.replace(rep, recovered=perturbed(rep.recovered, rel=1e-8)))
    assert rejects(lambda r: checks.check_recovery(workloads._t5, r, expected_k=75), rep)


def test_localization_check():
    f = workloads._abs
    target = catalog_function("absx")
    best = newton.best_l1(target, 10)
    ref = minimax(target, 10)
    rep = omega_measure(target, 10, best=best, reference=ref)
    checks.check_localization(f, best, ref, rep)
    check = lambda b, r, o: rejects(lambda out: checks.check_localization(f, *out), (b, r, o))
    assert check(best, ref, dataclasses.replace(rep, omega_measure=rep.omega_measure * 1.001))
    assert check(best, ref, dataclasses.replace(rep, omega_bound=0.99 * rep.omega_measure))
    assert check(best, dataclasses.replace(ref, error=ref.error * (1 + 1e-6)), rep)
    assert check(best, dataclasses.replace(ref, polynomial=perturbed(ref.polynomial, 0, 1e-4)), rep)


# -- workload inputs ---------------------------------------------------------

def test_inputs_follow_the_seed():
    labels = lambda seed: [op.label for op in workloads.build("recover", seed)]
    assert labels(3) == labels(3)
    assert sorted(labels(3)) == sorted(labels(4))
    assert labels(3) != labels(4)


def test_random_batch_and_kept_fault():
    """The batch recovers exactly; the kept draw still trips the l1-fit LP."""
    batch, fault = workloads.random_instances()
    for inst in batch[:3]:
        rep = recovery.recover_l1(inst.samples, inst.n, N=workloads.RECOVERY_N)
        checks.check_recovery(lambda x, c=inst.coeffs: checks.u_series_eval(c, x), rep, expected_k=inst.changed)
    with pytest.raises(RuntimeError, match="l1-fit LP failed"):
        recovery.recover_l1(fault.samples, fault.n, N=workloads.RECOVERY_N)


# -- tracing -----------------------------------------------------------------

def test_tracer_restores_bindings_and_repeats_counts():
    before = (newton.solve, recovery.solve, lp.linprog, chebyshev.interpolate_on_grid, ChebSeries.__call__)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert newton.solve is not before[0]
            out = newton.best_l1(tracer.make("absx14"), 3)
        finally:
            tracer.uninstall()
        runs.append(dict(tracer.counts))
        assert out.path.value == "newton_converged"
        assert tracer.counts["lp.calls"] == 2 and tracer.counts["highs.nit"] > 0
        assert all(span[3] is None or span[3] < i for i, span in enumerate(tracer.spans))
    after = (newton.solve, recovery.solve, lp.linprog, chebyshev.interpolate_on_grid, ChebSeries.__call__)
    assert before == after
    assert runs[0] == runs[1]


# -- the benchmark's contract --------------------------------------------------

def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_OPS)
    layers = tracing.Tracer().metrics(1)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layers.items()}
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "op_s.p50", "peak_rss_mb"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recover", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
