"""Processing-inequality gaps, the algebraic equality certificate, and
recovery maps.

Three stories: a unitary channel loses nothing (certificate says equal),
amplitude damping loses distinguishability (certificate refuses, recovery
fails on rho), and a fidelity-attaining measurement nulls the order-1/2
gap even though nothing can be recovered.
"""

import numpy as np

from qrenyi import (
    amplitude_damping,
    apply,
    dpi_check,
    equality_residual,
    fidelity_attaining_povm,
    measurement_channel,
    petz_recovery,
    random_density,
    random_unitary,
    sufficiency_test,
    unitary_channel,
)
from qrenyi.linalg import fidelity, max_abs

rho = random_density(2, 2, seed=11)
sigma = random_density(2, 2, seed=12)

print("1) Unitary conjugation: equality, certified")
u_chan = unitary_channel(random_unitary(2, seed=13))
for alpha in (0.5, 2.0):
    report = dpi_check(rho, sigma, u_chan, alpha)
    cert = equality_residual(rho, sigma, u_chan, alpha)
    print(
        f"   order {alpha}: gap = {report.gap:+.2e}, "
        f"residual = {cert.residual:.2e}, verdict = {cert.verdict}"
    )

print("\n2) Amplitude damping (0.3): a strict gap and a failing certificate")
damp = amplitude_damping(0.3)
for alpha in (0.5, 2.0):
    report = dpi_check(rho, sigma, damp, alpha)
    cert = equality_residual(rho, sigma, damp, alpha)
    print(
        f"   order {alpha}: gap = {report.gap:+.4f}, "
        f"residual = {cert.residual:.3f}, verdict = {cert.verdict}"
    )

print("\n   The recovery map anchored at sigma restores sigma but not rho:")
rec = petz_recovery(sigma, damp)
back_sigma = apply(rec.channel, apply(damp, sigma))
back_rho = apply(rec.channel, apply(damp, rho))
print(f"   |R(L(sigma)) - sigma| = {max_abs(back_sigma - sigma):.2e}")
print(f"   |R(L(rho))   - rho|   = {max_abs(back_rho - rho):.2e}")
print(f"   sufficiency_test: {sufficiency_test(rho, sigma, damp)}")

print("\n3) Equality at order 1/2 without recoverability")
povm, classical_fid = fidelity_attaining_povm(rho, sigma)
chan = measurement_channel(povm)
report = dpi_check(rho, sigma, chan, 0.5)
print(f"   state fidelity              = {fidelity(rho, sigma):.10f}")
print(f"   measured-outcome fidelity   = {classical_fid:.10f}")
print(f"   order-1/2 gap               = {report.gap:+.2e}")
print(f"   sufficiency_test            = {sufficiency_test(rho, sigma, chan)}")
print("   (the measurement preserves order-1/2 distinguishability, yet the")
print("    states cannot be recovered from the outcome statistics)")
