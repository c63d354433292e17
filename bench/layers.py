"""Layer-level parts of the traced run: the coverage pass, the dimension
sweep and the import time."""

import statistics
import subprocess
import sys
import time

import numpy as np

import qrenyi
from workloads import haar_unitary, well_conditioned

SWEEP_DIMS = (2, 4, 8, 16, 32)

#: Functions timed at each sweep dimension, called on (rho, sigma, channel).
SWEEP = {
    "linalg.hermitian_eig": lambda rho, sigma, ch: qrenyi.hermitian_eig(sigma),
    "linalg.matrix_power_on_support":
        lambda rho, sigma, ch: qrenyi.matrix_power_on_support(sigma, -1.0 / 3.0),
    "divergences.srd": lambda rho, sigma, ch: qrenyi.srd(rho, sigma, 2.0),
    "dpi.dpi_check": lambda rho, sigma, ch: qrenyi.dpi_check(rho, sigma, ch, 2.0),
    "dpi.equality_residual":
        lambda rho, sigma, ch: qrenyi.equality_residual(rho, sigma, ch, 2.0),
}

MIN_SWEEP_PASSES = 3

IMPORT_PROBES = 3


def coverage(seed):
    """Call every traced function once on small inputs, so that each one
    has measured figures on every workload."""
    s = int(np.random.default_rng([seed, 4]).integers(2**31))
    rho = qrenyi.random_density(4, 4, s)
    sigma = qrenyi.random_density(4, 4, s + 1)
    channel = qrenyi.partial_trace_channel(2, 2)
    qrenyi.dpi_check(rho, sigma, channel, 2.0)
    qrenyi.equality_residual(rho, sigma, channel, 2.0)
    qrenyi.sufficiency_test(rho, sigma, channel)
    qrenyi.conditional_renyi(qrenyi.BipartiteState(rho, 2, 2), 2.0)
    qrenyi.renyi_entropy(qrenyi.partial_trace(rho, 2, 2), 2.0)
    qrenyi.dpi_violation_search(0.3, 8, s, refine_steps=8)
    pure = qrenyi.random_density(4, 1, s + 2)
    qrenyi.reof_minimize(qrenyi.BipartiteState(pure, 2, 2), 2.0, restarts=0)


def sweep(seed, seconds):
    """Warm median time of each SWEEP function at each dimension, in us.

    One untimed pass warms up; timed passes repeat until ``seconds`` have
    passed, and at least MIN_SWEEP_PASSES times."""
    rng = np.random.default_rng([seed, 5])
    inputs = {}
    for d in SWEEP_DIMS:
        v = haar_unitary(rng, 2 * d)[:, :d]  # isometry d -> 2d: two d x d Kraus ops
        channel = qrenyi.QuantumChannel([v[:d], v[d:]])
        inputs[d] = (well_conditioned(rng, d), well_conditioned(rng, d), channel)
    samples = {(name, d): [] for name in SWEEP for d in SWEEP_DIMS}
    start = time.perf_counter()
    passes = -1
    while passes < MIN_SWEEP_PASSES or time.perf_counter() - start < seconds:
        for (name, d), times in samples.items():
            t0 = time.perf_counter()
            SWEEP[name](*inputs[d])
            if passes >= 0:
                times.append(time.perf_counter() - t0)
        passes += 1
    return {
        f"{name}.d{d}_us": (statistics.median(times) * 1e6, "us")
        for (name, d), times in samples.items()
    }


def import_time(src):
    """Median time of ``import qrenyi`` in IMPORT_PROBES fresh interpreters, in s."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import qrenyi; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout))
    return statistics.median(times)
