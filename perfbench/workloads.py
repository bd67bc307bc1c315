"""The three workloads: their inputs, timed operations and checks.

An operation is one call into the public API, or the three calls that make
up an Omega measurement. Each builds its FuncRep afresh:
proxies, value_scale and l1_norm are cached on the FuncRep, so reusing one
would move proxy work out of the timed call. The seed fixes the order of the
operations in a round; `recover` also holds random instances, drawn from a
fixed stream so that every seed runs the same LPs (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from l1rec import catalog, localization, newton, recovery
from l1rec.chebyshev import build_grid

import checks

RECOVERY_N = 4999  # N+1 = 5000 grid samples
RANDOM_STREAM = 2  # numpy default_rng seed of the criterion-3 style draws
RANDOM_BATCH = 8  # the first draws of that stream, all recovered exactly
KEPT_FAULT_DRAW = 40  # the first draw of the stream on which recover_l1 raises


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]  # the timed call; returns what the library returned
    check: Callable[[object], None]  # raises checks.CheckFailed on a wrong answer


# -- targets, as the library sees them and as the checks compute them ---------

def _abs(x):
    return np.abs(x)


def _sqrt1mx2(x):
    return np.sqrt(np.maximum(0.0, 1.0 - np.asarray(x, dtype=float) ** 2))


TARGETS = {
    # spec: (own evaluator, kinks, ||f||_1 where a check needs it)
    "expsin10": (lambda x: np.exp(x) * np.sin(10.0 * x), (), None),
    "absx14": (lambda x: np.abs(x - 0.25), (0.25,), None),
    "abs(sin(30*x))": (
        lambda x: np.abs(np.sin(30.0 * x)),
        tuple(k * np.pi / 30.0 for k in range(-9, 10)),
        None,
    ),
    "absx": (_abs, (0.0,), 1.0),
    "sqrt1mx2": (_sqrt1mx2, (), np.pi / 2.0),
}


def _t5(x):
    return np.cos(5.0 * np.arccos(np.clip(x, -1.0, 1.0)))


def _p8(x):
    return legendre.legval(x, [0.0] * 8 + [1.0])


# -- random corrupted polynomials (the criterion-3 generator) -----------------

@dataclass(frozen=True)
class Corrupted:
    n: int
    coeffs: np.ndarray  # second-kind coefficients of the clean polynomial
    samples: np.ndarray  # on build_grid(RECOVERY_N)
    changed: int  # samples the generator corrupted


def corrupted_draw(rng, points: np.ndarray) -> Corrupted:
    """A random clean polynomial of degree n <= 10, corrupted on 1-3 intervals
    of total measure s = 0.9/(n+1)^2 < 1/(n+1)^2, by values 1 to 1e3 times
    its sup norm with random signs."""
    n = int(rng.integers(0, 11))
    coeffs = rng.standard_normal(n + 1)
    sup = float(np.max(np.abs(checks.u_series_eval(coeffs, np.linspace(-1.0, 1.0, 2001)))))
    s = 0.9 / (n + 1) ** 2
    pieces = int(rng.integers(1, 4))
    parts = rng.dirichlet(np.ones(pieces)) * s
    starts = np.sort(rng.uniform(-1.0, 1.0 - s, pieces))
    samples = checks.u_series_eval(coeffs, points)
    inside = np.zeros(len(points), dtype=bool)
    cursor = -1.0
    for start, width in zip(starts, parts):
        lo = max(start, cursor + 1e-6)
        inside |= (points >= lo) & (points <= lo + width)
        cursor = lo + width
    k = int(np.count_nonzero(inside))
    samples[inside] += rng.uniform(1.0, 1e3, k) * rng.choice([-1, 1], k) * sup
    return Corrupted(n=n, coeffs=coeffs, samples=samples, changed=k)


def random_instances() -> tuple[list[Corrupted], Corrupted]:
    """(the first RANDOM_BATCH draws, draw KEPT_FAULT_DRAW) of RANDOM_STREAM."""
    rng = np.random.default_rng(RANDOM_STREAM)
    points = build_grid(RECOVERY_N).points
    draws = [corrupted_draw(rng, points) for _ in range(KEPT_FAULT_DRAW)]
    return draws[:RANDOM_BATCH], draws[-1]


# -- operations ----------------------------------------------------------------

def _best_l1_op(make, spec: str, n: int, expect: str, check) -> Op:
    def run():
        return newton.best_l1(make(spec), n)

    def verify(out):
        checks.require(out.path.value == expect, f"path {out.path.value}, expected {expect}")
        check(out)

    return Op(f"best_l1 {spec} n={n}", run, verify)


def newton_ops(make) -> list[Op]:
    ops = []
    for spec, n in (("expsin10", 10), ("absx14", 20), ("abs(sin(30*x))", 10)):
        f, kinks, _ = TARGETS[spec]
        check = lambda out, f=f, kinks=kinks, n=n: checks.check_best_l1(f, kinks, n, out)
        ops.append(_best_l1_op(make, spec, n, "newton_converged", check))
    return ops


def certify_ops(make) -> list[Op]:
    """best_l1 on the certified-interpolant path at high degree, and Omega
    measurements (best_l1, Remez minimax, Omega crossings) at low degree."""
    ops = []
    cases = [("absx", n) for n in (640, 1280, 2560, 5120)] + [("sqrt1mx2", n) for n in (256, 512, 1024)]
    for spec, n in cases:
        f, kinks, f_l1 = TARGETS[spec]
        exact = checks.abs_best_l1(n) if spec == "absx" else None
        check = lambda out, f=f, kinks=kinks, f_l1=f_l1, n=n, exact=exact: checks.check_shortcut(
            f, kinks, f_l1, n, out, exact
        )
        ops.append(_best_l1_op(make, spec, n, "interpolant_shortcut", check))
    for spec, n in (("absx", 40), ("absx", 80)):
        f = TARGETS[spec][0]

        def run(spec=spec, n=n):
            target = make(spec)
            best = newton.best_l1(target, n)
            ref = localization.minimax(target, n)
            return best, ref, localization.omega_measure(target, n, best=best, reference=ref)

        ops.append(Op(f"omega_measure {spec} n={n}", run, lambda out, f=f: checks.check_localization(f, *out)))
    return ops


def recover_ops(make) -> list[Op]:
    ops = []
    grid = build_grid(RECOVERY_N).points
    for spec, clean, n in (
        ("corrupted_t5", _t5, 5),
        ("legendre8_corrupted", _p8, 8),
        ("legendre8_corrupted", _p8, 10),
        ("legendre8_corrupted", _p8, 16),
    ):
        def run(spec=spec, n=n):
            target = make(spec)
            return target, recovery.recover_l1(target, n, N=RECOVERY_N)

        def verify(out, clean=clean):
            target, rep = out
            changed = int(np.count_nonzero(target.corruption.contains(grid)))
            checks.check_recovery(clean, rep, expected_k=changed)

        ops.append(Op(f"recover_l1 {spec} n={n}", run, verify))
    batch, fault = random_instances()
    for i, inst in enumerate(batch + [fault]):
        label = f"recover_l1 draw {KEPT_FAULT_DRAW if inst is fault else i + 1} n={inst.n} k={inst.changed}"
        clean = lambda x, c=inst.coeffs: checks.u_series_eval(c, x)
        ops.append(
            Op(
                label,
                lambda inst=inst: (None, recovery.recover_l1(inst.samples, inst.n, N=RECOVERY_N)),
                lambda out, clean=clean, k=inst.changed: checks.check_recovery(clean, out[1], expected_k=k),
            )
        )
    return ops


WORKLOAD_OPS = {
    "newton": newton_ops,
    "recover": recover_ops,
    "certify": certify_ops,
}


def build(name: str, seed: int, make=catalog.resolve_function) -> list[Op]:
    """The operations of one round, in the order the seed gives.

    `make` turns a catalog name or expression into a FuncRep; the traced run
    passes one that counts evaluator calls.
    """
    ops = WORKLOAD_OPS[name](make)
    order = np.random.default_rng(seed).permutation(len(ops))
    return [ops[i] for i in order]
