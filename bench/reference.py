"""Reference spectral functions built on ``numpy.linalg.eigh`` alone.

The workload checks compare the library against these.  They share no code
with ``qrenyi`` and use the same support rule: an eigenvalue counts only
above ``1e-10 * max(1, lambda_max)``, and powers are taken on the support.
"""

import numpy as np

CUTOFF = 1e-10


def supported(a):
    """Eigenvalues and eigenvectors of a Hermitian matrix on its support."""
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    keep = w > CUTOFF * max(1.0, w[-1])
    return w[keep], v[:, keep]


def power(a, p):
    w, v = supported(a)
    return (v * w**p) @ v.conj().T


def srd(rho, sigma, alpha):
    """Sandwiched Renyi divergence in bits (finite support cases only)."""
    s = power(sigma, (1.0 - alpha) / (2.0 * alpha))
    w, _ = supported(s @ rho @ s)
    return float(np.log2(np.sum(w**alpha) / np.trace(rho).real) / (alpha - 1.0))


def renyi_entropy(rho, alpha):
    w, _ = supported(rho)
    return float(np.log2(np.sum(w**alpha)) / (1.0 - alpha))


def partial_trace(m, dim_a, dim_b, keep="A"):
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    return np.einsum("abcb->ac", t) if keep == "A" else np.einsum("abac->bc", t)


def apply_kraus(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)
